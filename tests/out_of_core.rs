//! Bounded-memory regression tests for the out-of-core serving path: a
//! file-backed `DocServer` run must stay O(window × sessions) resident,
//! never O(document) — so future refactors can't silently re-materialize
//! the ciphertext — and a storage fault mid-session must abort as a typed
//! error with nothing partially delivered.

use std::sync::Arc;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::store::{FaultStore, InjectedFault, TempPath};
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::Profile;
use xsac::soe::{
    run_session_shared, CompiledPolicy, DocServer, ServerDoc, SessionError, SessionSpec,
};

fn key() -> TripleDes {
    TripleDes::new(*b"out-of-core-demo-key-24!")
}

/// A document comfortably larger than the resident window (the
/// acceptance bar is ≥ 8×; this is ~20×+).
fn big_hospital() -> xsac::xml::Document {
    hospital_document(&HospitalConfig { folders: 40, ..Default::default() }, 11)
}

fn workload(server_dict: &xsac::xml::TagDict) -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    for _ in 0..2 {
        for profile in Profile::figure9() {
            let mut dict = server_dict.clone();
            let policy = profile.policy(&physician_name(0), &mut dict);
            specs.push(SessionSpec::new(profile.name(), policy));
        }
    }
    specs
}

#[test]
fn concurrent_file_backed_sessions_stay_within_window_budget() {
    const WINDOW: usize = 8 * 1024;
    let doc = big_hospital();
    let layout = ChunkLayout::default();
    let tmp = TempPath::new("out-of-core");
    let prepared = ServerDoc::prepare_to_store_with_stats(
        &doc,
        &key(),
        IntegrityScheme::EcbMht,
        layout,
        tmp.path(),
        WINDOW,
    )
    .expect("prepare to store")
    .0;
    let doc_len = prepared.protected.ciphertext_len();
    assert!(
        doc_len >= 8 * WINDOW,
        "test document ({doc_len} B) must be ≥ 8× the resident window ({WINDOW} B)"
    );

    // Reference: the same workload over the in-memory backend.
    let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout);
    let mem_server = DocServer::new(mem, key());
    let reference = mem_server.serve_batch(&workload(&mem_server.doc().dict));

    let server = DocServer::new(prepared, key());
    let specs = workload(&server.doc().dict);
    let results = server.serve_concurrent(&specs, 4);

    // Byte-identical delivery and metering, session by session.
    for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
        let (got, want) = (got.as_ref().expect("file session"), want.as_ref().expect("mem"));
        assert_eq!(got.log, want.log, "spec {i}: delivery log diverged across backends");
        assert_eq!(got.cost.bytes_to_soe, want.cost.bytes_to_soe, "spec {i}");
        assert_eq!(got.cost.bytes_decrypted, want.cost.bytes_decrypted, "spec {i}");
        assert_eq!(got.cost.bytes_hashed, want.cost.bytes_hashed, "spec {i}");
        assert_eq!(got.result_bytes, want.result_bytes, "spec {i}");
    }

    // The memory contract: peak residency is bounded by the window times
    // the session count (each live session adds O(chunk) staging), and is
    // a small fraction of the document — the ciphertext was never
    // re-materialized.
    let peak = server.resident_bytes_peak().expect("file store meters residency") as usize;
    assert!(peak > 0, "somebody must have read something");
    assert!(
        peak <= WINDOW * specs.len(),
        "resident peak {peak} exceeds window×sessions = {}",
        WINDOW * specs.len()
    );
    assert!(
        peak * 4 <= doc_len,
        "resident peak {peak} is not ≪ document length {doc_len}: ciphertext re-materialized?"
    );
}

#[test]
fn one_pass_protection_never_holds_o_document() {
    // The publisher side of the memory contract: protecting a document
    // ≥ 8× the serving window streams parse → encode → encrypt → disk,
    // holding only the bit-sink flush buffer plus one chunk under
    // assembly — never the encoded plaintext or the ciphertext whole.
    const WINDOW: usize = 8 * 1024;
    let doc = big_hospital();
    let layout = ChunkLayout::default();
    let tmp = TempPath::new("one-pass-protect");
    let (prepared, stats) = ServerDoc::prepare_to_store_with_stats(
        &doc,
        &key(),
        IntegrityScheme::EcbMht,
        layout,
        tmp.path(),
        WINDOW,
    )
    .expect("prepare to store");
    assert_eq!(stats.encoded_len, prepared.protected.plain_len);
    assert!(
        stats.encoded_len >= 8 * WINDOW,
        "test document ({} B encoded) must be ≥ 8× the window ({WINDOW} B)",
        stats.encoded_len
    );
    assert!(
        stats.peak_buffered <= layout.chunk_size + 2048,
        "protection pipeline must buffer O(chunk), not O(document): \
         peak {} for {} encoded bytes",
        stats.peak_buffered,
        stats.encoded_len
    );
    // And the streamed ciphertext is the one the in-memory path produces.
    let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout);
    assert_eq!(prepared.protected.digests, mem.protected.digests);
    assert_eq!(std::fs::read(tmp.path()).unwrap(), mem.protected.ciphertext());
}

#[test]
fn storage_fault_mid_session_aborts_with_typed_error() {
    // An I/O fault after the session is underway surfaces as
    // `SessionError::Store`, not a panic and not a truncated view.
    let doc = hospital_document(&HospitalConfig { folders: 3, ..Default::default() }, 5);
    let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, ChunkLayout::default());
    let faulty = ServerDoc {
        dict: mem.dict.clone(),
        protected: mem.protected.clone().map_store(FaultStore::new),
    };
    let mut dict = faulty.dict.clone();
    let policy = Profile::Secretary.policy("sec", &mut dict);
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    // Probe run: learn how many store reads this session makes, then
    // schedule a transient fault halfway through the next run.
    run_session_shared(&faulty, &key(), &compiled, None, &Default::default(), None).expect("probe");
    let per_session = faulty.protected.store.reads_seen();
    assert!(per_session >= 2, "session must hit the store more than once");
    faulty.protected.store.fail_read(per_session + per_session / 2, InjectedFault::Io);
    let res = run_session_shared(&faulty, &key(), &compiled, None, &Default::default(), None);
    match res {
        Err(SessionError::Store(_)) => {}
        Err(e) => panic!("expected SessionError::Store, got {e}"),
        Ok(_) => panic!("expected SessionError::Store, got a successful session"),
    }
    // With the (transient) fault gone, the same document serves fine.
    let ok = run_session_shared(&faulty, &key(), &compiled, None, &Default::default(), None)
        .expect("clean retry");
    let want = run_session_shared(&mem, &key(), &compiled, None, &Default::default(), None)
        .expect("reference");
    assert_eq!(ok.log, want.log, "post-fault session must deliver the full view");
}
