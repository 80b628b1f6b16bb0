//! Differential fault-injection harness for the resilience layer: a
//! [`FaultTransport`] chaos proxy sits between a `RemoteStore` client
//! and a `ChunkServer`, and every scripted fault schedule must land in
//! exactly one of two buckets:
//!
//! * **recoverable** — transient transport faults (dropped connections,
//!   truncated frames, duplicated frames, a mid-session server restart)
//!   are absorbed by the client's reconnect/retry machinery and the
//!   session completes **byte-identical** to the in-memory oracle; the
//!   only observable difference is the retry accounting in
//!   `RemoteStats` (`reconnects`, `retried_chunks`, `backoff_ms`);
//! * **unrecoverable** — exhausted retries, a stalled server, or a
//!   reconnect onto *different dissemination material* surface as the
//!   right typed error (`SessionError::Store`, with
//!   `StoreError::IdentityChanged` for the latter) and the session
//!   yields **no partial plaintext**.

use std::sync::Arc;
use xsac::core::oracle::oracle_view_string;
use xsac::core::output::reassemble_to_string;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::store::StoreError;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::profiles::View;
use xsac::net::{
    connect, ChunkServer, ClientConfig, FaultPlan, FaultTransport, NetFault, RetryConfig,
};
use xsac::soe::{run_session_shared, CompiledPolicy, ServerDoc, SessionConfig, SessionError};
use xsac::xml::Document;

fn key() -> TripleDes {
    TripleDes::new(*b"network-fault-key-24-abc")
}

fn tiny_layout() -> ChunkLayout {
    ChunkLayout { chunk_size: 256, fragment_size: 32 }
}

fn hospital() -> Document {
    hospital_document(&HospitalConfig { folders: 2, ..Default::default() }, 77)
}

/// A client configuration that exercises the network hard (one-chunk
/// window, no batching) and retries fast enough for tests.
fn chatty_client() -> ClientConfig {
    ClientConfig {
        window_bytes: 1,
        batch_chunks: 1,
        retry: RetryConfig {
            max_retries: 6,
            backoff_base: std::time::Duration::from_millis(2),
            backoff_max: std::time::Duration::from_millis(50),
            jitter_seed: 42,
        },
        ..ClientConfig::default()
    }
}

/// The acceptance schedule: three distinct transient faults — a dead
/// socket, a mid-frame truncation, a duplicated response frame — hit
/// one session, which must complete byte-identically to the in-memory
/// oracle with `reconnects == 3`.
#[test]
fn recoverable_fault_schedule_yields_byte_identical_session() {
    let doc = hospital();
    let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
    let served = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
    let handle = ChunkServer::new(served, "hospital").spawn("127.0.0.1:0").expect("spawn");
    let proxy = FaultTransport::spawn(handle.addr()).expect("proxy");
    // Frames are server→client responses: 0 = Hello (carrying the
    // meta), 1… = Chunks. Connection 1 dies on the 3rd chunk response,
    // connection 2 truncates its 2nd, connection 3 duplicates its 2nd
    // (desyncing the response stream), connection 4 (empty queue) is
    // clean.
    proxy.push_plan(FaultPlan::faulty(NetFault::DropAfter(3)));
    proxy.push_plan(FaultPlan::faulty(NetFault::TruncateAfter(2)));
    proxy.push_plan(FaultPlan::faulty(NetFault::DuplicateAt(2)));
    let remote = connect(proxy.addr(), "hospital", chatty_client()).expect("connect");

    let mut dict = mem.dict.clone();
    let policy = View::S.policy(&mut dict, &physician_name(0), &physician_name(1));
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let expected = oracle_view_string(&doc, &policy);
    let config = SessionConfig::default();
    let a = run_session_shared(&mem, &key(), &compiled, None, &config, None).expect("mem session");
    let b = run_session_shared(&remote, &key(), &compiled, None, &config, None)
        .expect("faulted session");

    assert_eq!(a.log, b.log, "delivery log diverged across the fault schedule");
    assert_eq!(a.cost, b.cost, "AccessCost diverged across the fault schedule");
    assert_eq!(a.output, b.output);
    assert_eq!(a.stats, b.stats);
    assert_eq!(reassemble_to_string(&dict, &b.log), expected, "view diverged from oracle");

    let stats = remote.protected.store.stats();
    assert_eq!(stats.reconnects, 3, "three faults, three reconnects: {stats:?}");
    assert!(stats.retried_chunks >= 3, "each fault re-issues its in-flight batch: {stats:?}");
    assert_eq!(proxy.conn_count(), 4, "initial connection + three replacements");
    proxy.shutdown();
    handle.shutdown().expect("shutdown");
}

/// A reconnect that lands on a server publishing *different* material
/// under the same doc id must fail with the typed identity error — the
/// session is never silently re-synced.
#[test]
fn reconnect_onto_different_document_is_typed_identity_error() {
    let doc_a = hospital();
    let doc_b = hospital_document(&HospitalConfig { folders: 2, ..Default::default() }, 78);
    let served_a = ServerDoc::prepare(&doc_a, &key(), IntegrityScheme::EcbMht, tiny_layout());
    let served_b = ServerDoc::prepare(&doc_b, &key(), IntegrityScheme::EcbMht, tiny_layout());
    let handle_a = ChunkServer::new(served_a, "hospital").spawn("127.0.0.1:0").expect("spawn a");
    let handle_b = ChunkServer::new(served_b, "hospital").spawn("127.0.0.1:0").expect("spawn b");
    let proxy = FaultTransport::spawn(handle_a.addr()).expect("proxy");
    // Connection 1 (to server A) dies after two chunk responses; every
    // later connection is routed to server B, whose metadata cannot
    // hash-match the session's original.
    proxy.push_plan(FaultPlan::faulty(NetFault::DropAfter(3)));
    let remote = connect(proxy.addr(), "hospital", chatty_client()).expect("connect");
    proxy.set_backend(handle_b.addr());

    let mut dict = remote.dict.clone();
    let policy = View::S.policy(&mut dict, &physician_name(0), &physician_name(1));
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    match run_session_shared(&remote, &key(), &compiled, None, &SessionConfig::default(), None) {
        Err(SessionError::Store(StoreError::IdentityChanged { .. })) => {}
        Err(other) => panic!("expected IdentityChanged, got {other}"),
        Ok(_) => panic!("a session must not complete over swapped dissemination material"),
    }
    // Permanent: the identity failure is not retried into oblivion —
    // exactly one replacement connection was attempted.
    assert_eq!(proxy.conn_count(), 2, "identity mismatch must not be retried");
    proxy.shutdown();
    handle_a.shutdown().expect("shutdown a");
    handle_b.shutdown().expect("shutdown b");
}

/// Faults beyond the retry budget collapse to the same typed
/// `SessionError::Store` a dying disk produces, with no partial view.
#[test]
fn persistent_drops_exhaust_retries_into_typed_error() {
    let doc = hospital();
    let served = ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, tiny_layout());
    let handle = ChunkServer::new(served, "hospital").spawn("127.0.0.1:0").expect("spawn");
    let proxy = FaultTransport::spawn(handle.addr()).expect("proxy");
    // Every connection survives its handshake (frame 0) and dies on the
    // first chunk response — no retry budget can outlast that.
    for _ in 0..12 {
        proxy.push_plan(FaultPlan::faulty(NetFault::DropAfter(1)));
    }
    let mut config = chatty_client();
    config.retry.max_retries = 3;
    let remote = connect(proxy.addr(), "hospital", config).expect("connect");
    let mut dict = remote.dict.clone();
    let policy = View::S.policy(&mut dict, &physician_name(0), &physician_name(1));
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    match run_session_shared(&remote, &key(), &compiled, None, &SessionConfig::default(), None) {
        // Err carries no delivery log: nothing partial was produced.
        Err(SessionError::Store(e)) => {
            assert!(e.is_transient(), "exhaustion surfaces the last transport error: {e:?}")
        }
        Err(other) => panic!("expected SessionError::Store, got {other}"),
        Ok(_) => panic!("session must not survive a fault on every connection"),
    }
    let stats = remote.protected.store.stats();
    assert!(stats.reconnects >= 3, "the budget was spent reconnecting: {stats:?}");
    assert!(stats.backoff_ms > 0, "retries must have backed off: {stats:?}");
    proxy.shutdown();
    handle.shutdown().expect("shutdown");
}

/// A server that stops answering trips the client's I/O deadline — a
/// bounded, typed timeout, not a hang.
#[test]
fn stalled_server_times_out_into_typed_error() {
    let doc = hospital();
    let served = ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, tiny_layout());
    let handle = ChunkServer::new(served, "hospital").spawn("127.0.0.1:0").expect("spawn");
    let proxy = FaultTransport::spawn(handle.addr()).expect("proxy");
    // Connection 1 dies after the handshake; every replacement stalls
    // during its own handshake, so the read deadline decides.
    proxy.push_plan(FaultPlan::faulty(NetFault::DropAfter(1)));
    for _ in 0..8 {
        proxy.push_plan(FaultPlan::faulty(NetFault::Stall));
    }
    let mut config = chatty_client();
    config.retry.max_retries = 2;
    config.io_timeout = Some(std::time::Duration::from_millis(150));
    let remote = connect(proxy.addr(), "hospital", config).expect("connect");
    let mut dict = remote.dict.clone();
    let policy = View::S.policy(&mut dict, &physician_name(0), &physician_name(1));
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let start = std::time::Instant::now();
    match run_session_shared(&remote, &key(), &compiled, None, &SessionConfig::default(), None) {
        Err(SessionError::Store(StoreError::Io { kind, .. })) => {
            use std::io::ErrorKind;
            assert!(
                matches!(kind, ErrorKind::TimedOut | ErrorKind::WouldBlock),
                "expected a deadline failure, got {kind:?}"
            );
        }
        Err(other) => panic!("expected a typed timeout, got {other}"),
        Ok(_) => panic!("session must not survive a fully stalled server"),
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "stall must resolve within the deadline budget, took {:?}",
        start.elapsed()
    );
    proxy.shutdown();
    handle.shutdown().expect("shutdown");
}

/// Satellite: the server is killed mid-session and restarted (same
/// document, fresh port); the session rides the reconnect machinery and
/// completes with output and refetch accounting identical to the
/// in-memory oracle.
#[test]
fn mid_stream_server_restart_resumes_identically() {
    let doc = hospital();
    let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
    let served_a = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
    let handle_a = ChunkServer::new(served_a, "hospital").spawn("127.0.0.1:0").expect("spawn a");
    let proxy = std::sync::Arc::new(FaultTransport::spawn(handle_a.addr()).expect("proxy"));
    // Connection 1 trickles (2 ms per response frame), so the assassin
    // reliably lands its kill mid-session; the replacement connection
    // (empty plan queue) runs at full speed.
    proxy.push_plan(FaultPlan::delayed(std::time::Duration::from_millis(2)));
    let mut config = chatty_client();
    // Generous budget: the session must outlive the restart window.
    config.retry.max_retries = 10;
    let remote = connect(proxy.addr(), "hospital", config).expect("connect");

    // Prepare the successor *before* the session starts: the client's
    // retry budget only has to cover the kill→retarget gap, and the
    // session cannot finish while a preparation on loaded CI delays the
    // kill.
    let served_b = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
    // The assassin: once the first server has demonstrably served part
    // of the session, kill it, bring up a replacement on a *fresh* port
    // (rebinding the old one races TIME_WAIT), and retarget the proxy.
    let assassin = std::thread::spawn({
        let proxy = std::sync::Arc::clone(&proxy);
        move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while handle_a.service_snapshot().chunks_served < 4 {
                assert!(std::time::Instant::now() < deadline, "session never started");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            handle_a.shutdown().expect("kill server a");
            let handle_b =
                ChunkServer::new(served_b, "hospital").spawn("127.0.0.1:0").expect("spawn b");
            proxy.set_backend(handle_b.addr());
            handle_b
        }
    });

    let mut dict = mem.dict.clone();
    let policy = View::S.policy(&mut dict, &physician_name(0), &physician_name(1));
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let config = SessionConfig::default();
    let a = run_session_shared(&mem, &key(), &compiled, None, &config, None).expect("mem session");
    let b = run_session_shared(&remote, &key(), &compiled, None, &config, None)
        .expect("resumed session");
    let handle_b = assassin.join().expect("assassin thread");

    assert_eq!(a.log, b.log, "delivery log diverged across the server restart");
    assert_eq!(a.output, b.output);
    assert_eq!(
        a.cost.bytes_refetched, b.cost.bytes_refetched,
        "refetch accounting diverged across the restart"
    );
    let stats = remote.protected.store.stats();
    assert!(stats.reconnects >= 1, "the restart must be visible in the meters: {stats:?}");
    assert!(stats.retried_chunks >= 1, "the in-flight batch was replayed: {stats:?}");
    // The successor's service snapshot shows the resumed session's
    // traffic under the same tenant id, with no routing accidents.
    let snap = handle_b.service_snapshot();
    assert!(snap.chunks_served > 0, "server B must have finished the session: {snap:?}");
    assert_eq!(snap.registry.unknown_doc_rejections, 0);
    std::sync::Arc::try_unwrap(proxy).ok().expect("assassin joined; sole owner").shutdown();
    handle_b.shutdown().expect("shutdown b");
}
