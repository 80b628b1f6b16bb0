//! Multi-tenant differential harness: one `ChunkServer` process serves
//! many hospital documents through a `DocRegistry`, under a **global**
//! residency budget smaller than any single document — and every
//! session must still be byte-identical to its single-document
//! in-memory oracle.
//!
//! The acceptance shape (ISSUE 7): ≥ 8 distinct documents, ≥ 16
//! concurrent client sessions with interleaved doc-ids, lazy
//! open/close of file-backed tenants under LRU pressure, and the whole
//! thing invisible at the session layer — the only observable
//! difference is the service snapshot's accounting. The chaos half
//! re-runs the story against registry closes landing mid-session and a
//! killed-and-restarted server resuming *all* tenants.

use std::sync::Arc;
use xsac::core::oracle::oracle_view_string;
use xsac::core::output::reassemble_to_string;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::store::TempPath;
use xsac::crypto::{ChunkStore, IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::profiles::View;
use xsac::net::{
    connect, ChunkServer, ClientConfig, DocRegistry, FaultPlan, FaultTransport, RetryConfig,
};
use xsac::soe::{run_session_shared, CompiledPolicy, DocMeta, ServerDoc, SessionConfig};
use xsac::xml::Document;

const N_DOCS: usize = 8;
const N_THREADS: usize = 16;
/// The global pool budget: 8 chunks of 256 bytes — far below any one
/// hospital document (asserted), let alone eight of them.
const BUDGET: usize = 2048;
const CHUNK: usize = 256;

fn key() -> TripleDes {
    TripleDes::new(*b"multi-tenant-key-24-abcd")
}

fn tiny_layout() -> ChunkLayout {
    ChunkLayout { chunk_size: CHUNK, fragment_size: 32 }
}

fn scheme_for(i: usize) -> IntegrityScheme {
    if i.is_multiple_of(2) {
        IntegrityScheme::EcbMht
    } else {
        IntegrityScheme::Ecb
    }
}

fn tenant_doc(i: usize) -> Document {
    hospital_document(&HospitalConfig { folders: 1, ..Default::default() }, 100 + i as u64)
}

fn doc_id(i: usize) -> String {
    format!("hospital-{i}")
}

/// A client that exercises the server hard (one-chunk client window, no
/// batching) and retries fast enough for tests.
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

/// Every tenant three ways: the in-memory oracle, the on-disk
/// ciphertext (kept alive by the returned `TempPath`s), and the
/// registration material for `insert_file`.
struct Tenants {
    oracles: Vec<ServerDoc>,
    metas: Vec<DocMeta>,
    tmps: Vec<TempPath>,
}

fn build_tenants(n: usize) -> Tenants {
    let mut oracles = Vec::new();
    let mut metas = Vec::new();
    let mut tmps = Vec::new();
    for i in 0..n {
        let doc = tenant_doc(i);
        let oracle = ServerDoc::prepare(&doc, &key(), scheme_for(i), tiny_layout());
        assert!(
            oracle.protected.ciphertext_len() > BUDGET,
            "tenant {i} must be larger than the global budget: {} vs {BUDGET}",
            oracle.protected.ciphertext_len()
        );
        let tmp = TempPath::new("multi-tenant");
        let file = ServerDoc::prepare_to_store_with_stats(
            &doc,
            &key(),
            scheme_for(i),
            tiny_layout(),
            tmp.path(),
            1024,
        )
        .expect("prepare_to_store")
        .0;
        metas.push(file.meta());
        oracles.push(oracle);
        tmps.push(tmp);
    }
    Tenants { oracles, metas, tmps }
}

fn registry_over(tenants: &Tenants, max_open: usize) -> Arc<DocRegistry> {
    let registry = Arc::new(DocRegistry::new(BUDGET).with_max_open_docs(max_open));
    for (i, (meta, tmp)) in tenants.metas.iter().zip(&tenants.tmps).enumerate() {
        registry.insert_file(doc_id(i), meta.clone(), tmp.path());
    }
    registry
}

/// Runs one view session against `remote` and asserts it is
/// byte-identical to the in-memory oracle (log, cost, output, stats)
/// and to the DOM oracle.
fn assert_session_matches_oracle(
    remote: &ServerDoc<xsac::net::RemoteStore>,
    oracle: &ServerDoc,
    source: &Document,
    view: View,
    label: &str,
) {
    let mut dict = oracle.dict.clone();
    let policy = view.policy(&mut dict, &physician_name(0), &physician_name(1));
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let expected = oracle_view_string(source, &policy);
    let config = SessionConfig::default();
    let a =
        run_session_shared(oracle, &key(), &compiled, None, &config, None).expect("oracle session");
    let b =
        run_session_shared(remote, &key(), &compiled, None, &config, None).expect("remote session");
    assert_eq!(a.log, b.log, "{label}: delivery log diverged");
    assert_eq!(a.cost, b.cost, "{label}: AccessCost diverged");
    assert_eq!(a.output, b.output, "{label}: output diverged");
    assert_eq!(a.stats, b.stats, "{label}: session stats diverged");
    assert_eq!(reassemble_to_string(&dict, &b.log), expected, "{label}: view != DOM oracle");
}

/// The acceptance test: 8 file-backed tenants, 16 concurrent sessions
/// with interleaved doc-ids, an open cap of 4 forcing close/reopen
/// churn, and a pool budget smaller than any single document.
#[test]
fn sixteen_sessions_eight_tenants_one_global_budget() {
    let tenants = build_tenants(N_DOCS);
    let registry = registry_over(&tenants, 4);
    let handle =
        ChunkServer::with_registry(Arc::clone(&registry)).spawn("127.0.0.1:0").expect("spawn");

    std::thread::scope(|scope| {
        for t in 0..N_THREADS {
            let tenants = &tenants;
            let addr = handle.addr();
            scope.spawn(move || {
                // Interleaved tenants: each thread visits two documents,
                // phase-shifted so every tenant sees traffic from several
                // threads at overlapping times.
                for (k, i) in [t % N_DOCS, (t + 3) % N_DOCS].into_iter().enumerate() {
                    let config = if t % 2 == 0 { ClientConfig::default() } else { chatty_client() };
                    let remote = connect(addr, &doc_id(i), config).expect("connect");
                    let view = View::ALL[(t + k) % View::ALL.len()];
                    let label = format!("thread {t} session {k} tenant {i} {}", view.name());
                    assert_session_matches_oracle(
                        &remote,
                        &tenants.oracles[i],
                        &tenant_doc(i),
                        view,
                        &label,
                    );
                }
            });
        }
    });

    let snap = handle.service_snapshot();
    assert_eq!(snap.registry.docs.len(), N_DOCS);
    assert_eq!(snap.registry.unknown_doc_rejections, 0);
    assert!(
        snap.registry.resident_bytes_peak <= (BUDGET + CHUNK) as u64,
        "global residency budget violated: peak {} over budget {BUDGET} (+1 chunk)",
        snap.registry.resident_bytes_peak
    );
    assert!(snap.registry.doc_opens >= N_DOCS as u64, "every tenant must have opened: {snap:?}");
    assert!(
        snap.registry.doc_closes >= 1,
        "an open cap of 4 under 8 tenants must close documents: {snap:?}"
    );
    assert!(snap.registry.pool_evictions > 0, "a tight budget must evict: {snap:?}");
    for row in &snap.registry.docs {
        assert!(row.lazy, "{}: all tenants here are file-backed", row.doc_id);
        assert!(row.chunks_served > 0, "{} was never served: {row:?}", row.doc_id);
    }
    let per_doc: u64 = snap.registry.docs.iter().map(|r| r.chunks_served).sum();
    assert_eq!(per_doc, snap.chunks_served, "per-tenant rows must sum to the service total");
    assert!(snap.connections >= N_THREADS as u64 * 2);
    handle.shutdown().expect("shutdown");
}

/// A registry close landing mid-session is invisible to the session: the
/// connection keeps its `Arc` to the served document, the close only
/// purges pooled residency, and the next `Hello` reopens the tenant.
#[test]
fn mid_session_registry_close_is_invisible() {
    let tenants = build_tenants(2);
    let registry = registry_over(&tenants, 2);
    let handle =
        ChunkServer::with_registry(Arc::clone(&registry)).spawn("127.0.0.1:0").expect("spawn");

    // One-chunk client window: the session below re-reads through the
    // server continuously, so the close lands between server reads.
    let remote = connect(handle.addr(), &doc_id(0), chatty_client()).expect("connect");
    let want = tenants.oracles[0].protected.ciphertext().to_vec();
    let half = want.len() / 2;
    let mut got = vec![0u8; want.len()];
    remote.protected.store.read_at(0, &mut got[..half]).expect("first half");
    // The admin path evicts the tenant cold, mid-session.
    assert!(registry.close(&doc_id(0)), "tenant 0 must have been open to close");
    remote.protected.store.read_at(half, &mut got[half..]).expect("second half");
    assert_eq!(got, want, "bytes diverged across a mid-session registry close");

    // A full session over the closed tenant reopens it transparently.
    let remote2 = connect(handle.addr(), &doc_id(0), ClientConfig::default()).expect("reconnect");
    assert_session_matches_oracle(
        &remote2,
        &tenants.oracles[0],
        &tenant_doc(0),
        View::S,
        "post-close session",
    );

    let snap = handle.service_snapshot();
    let row = snap.registry.docs.iter().find(|r| r.doc_id == doc_id(0)).expect("row");
    assert!(row.closes >= 1 && row.opens >= 2, "close + reopen must be counted: {row:?}");
    assert!(snap.registry.pool_purged_chunks > 0, "the close must purge pooled chunks");
    handle.shutdown().expect("shutdown");
}

/// The server process is killed mid-session and restarted over the same
/// ciphertext files (fresh registry, fresh port); every tenant's
/// session rides the reconnect machinery and completes byte-identical
/// to its oracle.
#[test]
fn killed_and_restarted_server_resumes_all_tenants() {
    let tenants = build_tenants(3);
    let registry_a = registry_over(&tenants, 3);
    let handle_a = ChunkServer::with_registry(registry_a).spawn("127.0.0.1:0").expect("spawn a");
    let proxy = Arc::new(FaultTransport::spawn(handle_a.addr()).expect("proxy"));
    // Each initial connection trickles (2 ms per response frame) so the
    // assassin reliably lands its kill mid-session; replacements (empty
    // plan queue) run at full speed.
    for _ in 0..3 {
        proxy.push_plan(FaultPlan::delayed(std::time::Duration::from_millis(2)));
    }

    // The assassin: once the first server has demonstrably served part
    // of the workload, kill it and bring up a replacement registry over
    // the *same* files on a fresh port, then retarget the proxy.
    let assassin = std::thread::spawn({
        let proxy = Arc::clone(&proxy);
        let registry_b = registry_over(&tenants, 3);
        move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while handle_a.service_snapshot().chunks_served < 6 {
                assert!(std::time::Instant::now() < deadline, "workload never started");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            handle_a.shutdown().expect("kill server a");
            let handle_b =
                ChunkServer::with_registry(registry_b).spawn("127.0.0.1:0").expect("spawn b");
            proxy.set_backend(handle_b.addr());
            handle_b
        }
    });

    std::thread::scope(|scope| {
        for i in 0..3 {
            let tenants = &tenants;
            let proxy = &proxy;
            scope.spawn(move || {
                let mut config = chatty_client();
                // Generous budget: the session must outlive the
                // kill → respawn → retarget window.
                config.retry.max_retries = 10;
                let remote = connect(proxy.addr(), &doc_id(i), config).expect("connect");
                assert_session_matches_oracle(
                    &remote,
                    &tenants.oracles[i],
                    &tenant_doc(i),
                    View::S,
                    &format!("tenant {i} across restart"),
                );
                remote.protected.store.stats()
            });
        }
    });

    let handle_b = assassin.join().expect("assassin thread");
    let snap = handle_b.service_snapshot();
    // The replacement registry served real traffic for the resumed
    // tenants (the kill landed mid-workload, so at least one session
    // finished on server B).
    assert!(snap.chunks_served > 0, "server B must have resumed tenants: {snap:?}");
    assert!(
        snap.registry.resident_bytes_peak <= (BUDGET + CHUNK) as u64,
        "the restarted registry keeps the same global budget"
    );
    Arc::try_unwrap(proxy).ok().expect("assassin joined; sole owner").shutdown();
    handle_b.shutdown().expect("shutdown b");
}

/// Randomized multi-tenant workload against the residency bound: K
/// file-backed tenants, a budget far below their combined size, random
/// interleaved chunk reads from several threads — the pool's peak may
/// never exceed budget + one chunk, and the close/reopen churn is
/// visible in the snapshot.
#[test]
fn randomized_workload_respects_global_residency_bound() {
    let tenants = build_tenants(6);
    let total: usize = tenants.oracles.iter().map(|o| o.protected.ciphertext_len()).sum();
    assert!(total > BUDGET * 10, "the workload must dwarf the budget: {total} vs {BUDGET}");
    let registry = registry_over(&tenants, 2);
    let handle =
        ChunkServer::with_registry(Arc::clone(&registry)).spawn("127.0.0.1:0").expect("spawn");

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let tenants = &tenants;
            let addr = handle.addr();
            scope.spawn(move || {
                // Deterministic xorshift per thread: reproducible chaos.
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (t + 1);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut remotes: Vec<Option<ServerDoc<xsac::net::RemoteStore>>> =
                    (0..tenants.oracles.len()).map(|_| None).collect();
                for _ in 0..40 {
                    let i = (rng() % tenants.oracles.len() as u64) as usize;
                    let oracle = &tenants.oracles[i];
                    let remote = match &mut remotes[i] {
                        Some(r) => r,
                        slot => slot
                            .insert(connect(addr, &doc_id(i), chatty_client()).expect("connect")),
                    };
                    let n_chunks = oracle.protected.chunk_count() as u64;
                    let ci = (rng() % n_chunks) as usize;
                    let range = oracle.protected.chunk_range(ci);
                    let mut got = vec![0u8; range.len()];
                    remote.protected.store.read_at(range.start, &mut got).expect("read");
                    assert_eq!(
                        got,
                        &oracle.protected.ciphertext()[range],
                        "tenant {i} chunk {ci} diverged under the randomized workload"
                    );
                }
            });
        }
    });

    let snap = handle.service_snapshot();
    assert!(
        snap.registry.resident_bytes_peak <= (BUDGET + CHUNK) as u64,
        "global residency bound violated: peak {} over budget {BUDGET} (+1 chunk)",
        snap.registry.resident_bytes_peak
    );
    assert!(
        snap.registry.doc_closes >= 1 && snap.registry.doc_opens >= 7,
        "an open cap of 2 under 6 tenants must churn: {snap:?}"
    );
    assert!(
        snap.registry.pool_refetches > 0,
        "evict/reopen cycles must show up as refetches: {snap:?}"
    );
    handle.shutdown().expect("shutdown");
}
