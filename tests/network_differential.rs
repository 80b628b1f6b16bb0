//! Differential harness for the networked dissemination front: a session
//! over a loopback socket must be *indistinguishable* from an in-memory
//! one — the paper's client-based-enforcement claim made literal.
//!
//! A `ChunkServer` serves a hospital document on 127.0.0.1; a
//! `RemoteStore` client runs the five Figure-10 views × all four integrity schemes
//! through the **unchanged** session code. Delivery logs, `AccessCost`
//! (including the refetch audit) and every session statistic must be
//! byte-identical to the in-memory backend, and both must match the DOM
//! oracle. The fault half then checks that the network can only fail
//! *loudly*: a server gone mid-session is a typed `SessionError::Store`,
//! a tampered byte on the server is detected client-side as
//! `SessionError::Integrity`, and a client window too small to cache the
//! document still produces identical views while the refetch meters
//! record the extra round trips.

use std::sync::Arc;
use xsac::core::oracle::oracle_view_string;
use xsac::core::output::reassemble_to_string;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::profiles::View;
use xsac::net::{connect, ChunkServer, ClientConfig};
use xsac::soe::{run_session_shared, CompiledPolicy, ServerDoc, SessionConfig, SessionError};
use xsac::xml::Document;

fn key() -> TripleDes {
    TripleDes::new(*b"network-diff-key-24-abcd")
}

fn tiny_layout() -> ChunkLayout {
    ChunkLayout { chunk_size: 256, fragment_size: 32 }
}

fn hospital() -> Document {
    hospital_document(&HospitalConfig { folders: 2, ..Default::default() }, 77)
}

#[test]
fn remote_sessions_equal_in_memory_sessions_and_oracle() {
    let doc = hospital();
    let frequent = physician_name(0);
    let rare = physician_name(HospitalConfig::default().physicians - 1);
    for scheme in IntegrityScheme::ALL {
        let mem = ServerDoc::prepare(&doc, &key(), scheme, tiny_layout());
        let served = ServerDoc::prepare(&doc, &key(), scheme, tiny_layout());
        let handle = ChunkServer::new(served, "hospital").spawn("127.0.0.1:0").expect("spawn");
        // Two client configurations: a comfortable window, and a
        // one-chunk window with no batching — worst-case round trips.
        // Both must be invisible to everything but the store meters.
        let configs = [
            ClientConfig::default(),
            ClientConfig { window_bytes: 1, batch_chunks: 1, ..ClientConfig::default() },
        ];
        for (k, config) in configs.iter().enumerate() {
            let remote = connect(handle.addr(), "hospital", *config).expect("connect");
            for view in View::ALL {
                let mut dict = mem.dict.clone();
                let policy = view.policy(&mut dict, &frequent, &rare);
                let compiled = Arc::new(CompiledPolicy::compile(&policy));
                let expected = oracle_view_string(&doc, &policy);
                let config = SessionConfig::default();
                let a = run_session_shared(&mem, &key(), &compiled, None, &config, None)
                    .expect("mem session");
                let b = run_session_shared(&remote, &key(), &compiled, None, &config, None)
                    .expect("remote session");
                let label = format!("{scheme:?} {} client#{k}", view.name());
                assert_eq!(a.log, b.log, "{label}: delivery log diverged over the wire");
                assert_eq!(a.cost, b.cost, "{label}: AccessCost diverged over the wire");
                assert_eq!(a.output, b.output, "{label}");
                assert_eq!(a.stats, b.stats, "{label}");
                assert_eq!(a.result_bytes, b.result_bytes, "{label}");
                assert_eq!(a.handles_created, b.handles_created, "{label}");
                assert_eq!(a.handles_peak, b.handles_peak, "{label}");
                let got = reassemble_to_string(&dict, &b.log);
                assert_eq!(got, expected, "{label}: remote view diverged from oracle");
            }
            let stats = remote.protected.store.stats();
            assert!(stats.round_trips > 0, "client#{k} never touched the network");
            if k == 1 {
                // The one-chunk window cannot cache across sessions: the
                // refetch meters must show the price.
                assert!(
                    stats.chunks_refetched > 0,
                    "a one-chunk window across 5 views must refetch"
                );
            }
        }
        // The service snapshot attributes every byte to the one tenant:
        // the single-doc server is just a one-entry registry.
        let snap = handle.service_snapshot();
        assert_eq!(snap.registry.unknown_doc_rejections, 0, "no doc id was ever mistyped");
        let row = snap.registry.docs.iter().find(|r| r.doc_id == "hospital").expect("tenant row");
        assert!(row.open && !row.lazy, "an inserted document is resident: {row:?}");
        assert_eq!(
            row.chunks_served, snap.chunks_served,
            "a one-tenant service attributes all chunks to its tenant"
        );
        assert_eq!(snap.admission_rejections, 0, "two clients fit the default admission cap");
        handle.shutdown().expect("shutdown");
    }
}

#[test]
fn document_larger_than_frame_guard_serves_with_o_layout_meta() {
    // The wire acceptance bar for the streamed skip-index: a document
    // whose *encoded plaintext* exceeds the 64 KiB frame guard still
    // protects, connects and serves byte-identical Figure-10 views —
    // because no frame in either direction ever carries the document
    // whole. The meta in the `Hello` reply is O(layout) (dictionary +
    // geometry + digest table), and ciphertext moves in bounded chunk
    // batches. The client is configured to *reject* any frame over the
    // guard, so an O(plaintext) meta would fail the handshake loudly.
    use xsac::net::wire::DEFAULT_SERVER_MAX_FRAME;
    let doc = hospital_document(&HospitalConfig { folders: 40, ..Default::default() }, 11);
    let layout = ChunkLayout::default();
    let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout);
    assert!(
        mem.protected.plain_len > DEFAULT_SERVER_MAX_FRAME,
        "test document must exceed the frame guard: {} encoded bytes",
        mem.protected.plain_len
    );
    let meta_wire = xsac::net::meta::encode_meta(&mem.meta()).len();
    assert!(
        meta_wire < DEFAULT_SERVER_MAX_FRAME,
        "the Hello meta payload must stay under the frame guard: {meta_wire} bytes"
    );
    let served = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout);
    let handle = ChunkServer::new(served, "big").spawn("127.0.0.1:0").expect("spawn");
    let remote = connect(
        handle.addr(),
        "big",
        ClientConfig { max_frame: DEFAULT_SERVER_MAX_FRAME, ..ClientConfig::default() },
    )
    .expect("a document bigger than the frame guard must still connect");
    let frequent = physician_name(0);
    let rare = physician_name(HospitalConfig::default().physicians - 1);
    for view in View::ALL {
        let mut dict = mem.dict.clone();
        let policy = view.policy(&mut dict, &frequent, &rare);
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let config = SessionConfig::default();
        let a =
            run_session_shared(&mem, &key(), &compiled, None, &config, None).expect("mem session");
        let b = run_session_shared(&remote, &key(), &compiled, None, &config, None)
            .expect("remote session");
        assert_eq!(a.log, b.log, "{}: delivery log diverged over the wire", view.name());
        assert_eq!(a.cost, b.cost, "{}: AccessCost diverged over the wire", view.name());
        let expected = oracle_view_string(&doc, &policy);
        let got = reassemble_to_string(&dict, &b.log);
        assert_eq!(got, expected, "{}: remote view diverged from oracle", view.name());
    }
    handle.shutdown().expect("shutdown");
}

#[test]
fn server_gone_mid_session_is_typed_store_error() {
    let doc = hospital();
    let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
    let served = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
    let handle = ChunkServer::new(served, "hospital").spawn("127.0.0.1:0").expect("spawn");
    // One-chunk window: every session must talk to the server.
    let remote = connect(
        handle.addr(),
        "hospital",
        ClientConfig { window_bytes: 1, batch_chunks: 1, ..ClientConfig::default() },
    )
    .expect("connect");
    let mut dict = remote.dict.clone();
    let policy = View::S.policy(&mut dict, &physician_name(0), &physician_name(1));
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    // While the server lives, the session succeeds…
    let ok = run_session_shared(&remote, &key(), &compiled, None, &SessionConfig::default(), None);
    assert!(ok.is_ok(), "session with a live server must succeed");
    // …after it dies, the *same* session aborts with a typed storage
    // error: no panic, no partial view, exactly like a dying disk.
    handle.shutdown().expect("shutdown");
    match run_session_shared(&remote, &key(), &compiled, None, &SessionConfig::default(), None) {
        Err(SessionError::Store(e)) => {
            let _ = e.to_string(); // displayable, like every typed error
        }
        Err(other) => panic!("expected SessionError::Store, got {other}"),
        Ok(_) => panic!("session must not succeed against a dead server"),
    }
    // The in-memory reference still serves the full view (sanity).
    run_session_shared(&mem, &key(), &compiled, None, &SessionConfig::default(), None)
        .expect("reference");
}

#[test]
fn tampered_server_store_detected_client_side() {
    let doc = hospital();
    let mut served = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
    // The untrusted server flips one ciphertext byte before publishing —
    // inside chunk 0, which every session verifies for the header read.
    // (Random integrity checking covers exactly what is *read*: a flip in
    // a subtree the policy skips is never fetched, so never seen.)
    served.protected.ciphertext_mut()[100] ^= 0x20;
    let handle = ChunkServer::new(served, "hospital").spawn("127.0.0.1:0").expect("spawn");
    let remote = connect(handle.addr(), "hospital", ClientConfig::default()).expect("connect");
    let mut dict = remote.dict.clone();
    let policy = View::S.policy(&mut dict, &physician_name(0), &physician_name(1));
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    match run_session_shared(&remote, &key(), &compiled, None, &SessionConfig::default(), None) {
        Err(SessionError::Integrity(_)) => {} // the SOE caught the server lying
        Err(other) => panic!("expected SessionError::Integrity, got {other}"),
        Ok(_) => panic!("tampered ciphertext must not produce a view"),
    }
    handle.shutdown().expect("shutdown");
}

#[test]
fn remote_refetch_audit_matches_in_memory_audit() {
    // `AccessCost::bytes_refetched` is reader-side and must be identical
    // across backends — the remote round trips it predicts are then
    // visible in the store-side meters.
    let doc = hospital();
    let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, tiny_layout());
    let served = ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, tiny_layout());
    let handle = ChunkServer::new(served, "hospital").spawn("127.0.0.1:0").expect("spawn");
    let remote = connect(
        handle.addr(),
        "hospital",
        ClientConfig { window_bytes: 1, batch_chunks: 1, ..ClientConfig::default() },
    )
    .expect("connect");
    let frequent = physician_name(0);
    let rare = physician_name(1);
    for view in View::ALL {
        let mut dict = mem.dict.clone();
        let policy = view.policy(&mut dict, &frequent, &rare);
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let config = SessionConfig::default();
        let a = run_session_shared(&mem, &key(), &compiled, None, &config, None).expect("mem");
        let b =
            run_session_shared(&remote, &key(), &compiled, None, &config, None).expect("remote");
        assert_eq!(
            a.cost.bytes_refetched,
            b.cost.bytes_refetched,
            "{}: refetch audit diverged across backends",
            view.name()
        );
    }
    handle.shutdown().expect("shutdown");
}
