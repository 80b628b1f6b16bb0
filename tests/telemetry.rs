//! The unified telemetry surface, end to end:
//!
//! * **differential** — the runtime span-clock switch must change *no*
//!   output byte: the five Figure-10 views × all four integrity schemes produce
//!   identical delivery logs, result sizes and `AccessCost` with
//!   telemetry on and off (phases are the only thing that moves);
//! * **aggregation** — 8 threads of sessions against a two-tenant
//!   server over live TCP, phase profiles pushed back with `Report`:
//!   the wire-level `Stats` snapshot must show non-zero per-phase
//!   totals and request-latency percentiles, per-doc rows must sum
//!   exactly to the service totals, the encoding must round-trip, and
//!   every counter must be monotone across snapshots;
//! * **coverage** — a real admission rejection and real shared-pool
//!   evictions must surface in the Prometheus text exposition with
//!   their live values, not as synthetic fixtures;
//! * **hostility** — `Report` before `Hello`, `Admin` while disabled,
//!   the retired document-listing admin op and unparseable frames must
//!   each produce a *typed* fault frame on a connection that keeps
//!   serving afterwards.
//!
//! Tests that depend on the global runtime switch serialize on one lock
//! (the test harness runs threads in parallel).

use std::sync::{Arc, Mutex, MutexGuard};
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{ChunkStore as _, IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::profiles::View;
use xsac::datagen::Profile;
use xsac::net::wire::{
    read_frame, write_frame, AdminOp, Request, Response, DEFAULT_CLIENT_MAX_FRAME, PROTOCOL_VERSION,
};
use xsac::net::{
    admin_close_doc, connect, decode_snapshot, encode_snapshot, fetch_stats, render_text,
    ChunkServer, ClientConfig, ConnectError, DocRegistry, Fault, ServerConfig,
};
use xsac::obs::{self, Phase, PhaseProfile};
use xsac::soe::{
    run_session_shared, CompiledPolicy, DocServer, ServerDoc, SessionConfig, SessionSpec,
};
use xsac::xml::Document;
use xsac_testkit::TempPath;

fn key() -> TripleDes {
    TripleDes::new(*b"telemetry-test-key-24-ab")
}

fn tiny_layout() -> ChunkLayout {
    ChunkLayout { chunk_size: 256, fragment_size: 32 }
}

fn hospital() -> Document {
    hospital_document(&HospitalConfig { folders: 2, ..Default::default() }, 7)
}

/// Serializes tests that read or flip the global runtime switch.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn runtime_switch_changes_no_output_bytes() {
    let _guard = telemetry_lock();
    let doc = hospital();
    let frequent = physician_name(0);
    let rare = physician_name(HospitalConfig::default().physicians - 1);
    for scheme in IntegrityScheme::ALL {
        let server = ServerDoc::prepare(&doc, &key(), scheme, tiny_layout());
        for view in View::ALL {
            let mut dict = server.dict.clone();
            let policy = view.policy(&mut dict, &frequent, &rare);
            let compiled = Arc::new(CompiledPolicy::compile(&policy));
            let config = SessionConfig::default();
            obs::set_enabled(false);
            let off = run_session_shared(&server, &key(), &compiled, None, &config, None)
                .expect("off session");
            obs::set_enabled(true);
            let on = run_session_shared(&server, &key(), &compiled, None, &config, None)
                .expect("on session");
            assert_eq!(off.log, on.log, "{scheme:?}/{view:?}: delivery log moved with telemetry");
            assert_eq!(off.result_bytes, on.result_bytes, "{scheme:?}/{view:?}: result size");
            assert_eq!(off.cost, on.cost, "{scheme:?}/{view:?}: AccessCost moved with telemetry");
            assert!(off.phases.is_zero(), "{scheme:?}/{view:?}: disabled clock recorded time");
            assert!(on.phases.total() > 0, "{scheme:?}/{view:?}: enabled clock recorded nothing");
        }
    }
}

#[test]
fn stats_over_tcp_aggregates_rows_and_stays_monotone() {
    let _guard = telemetry_lock();
    obs::set_enabled(true);
    let doc = hospital();
    let registry = Arc::new(DocRegistry::new(1 << 18));
    for id in ["a", "b"] {
        registry
            .insert(id, ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout()));
    }
    let handle = ChunkServer::with_registry(Arc::clone(&registry)).spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // 8 threads × 3 profiles, alternating tenants, each pushing its
    // session phase profile back over the Report frame.
    std::thread::scope(|scope| {
        for t in 0..8usize {
            scope.spawn(move || {
                let id = if t % 2 == 0 { "a" } else { "b" };
                let remote = connect(addr, id, ClientConfig::default()).expect("connect");
                let client = DocServer::new(remote, key());
                let mut phases = PhaseProfile::new();
                for profile in Profile::figure9() {
                    let mut dict = client.doc().dict.clone();
                    let spec = SessionSpec::new(
                        profile.name(),
                        profile.policy(&physician_name(0), &mut dict),
                    );
                    let res = client.serve(&spec).expect("session");
                    phases.merge(&res.phases);
                }
                client.doc().protected.store.report_profile(&phases).expect("report");
            });
        }
    });

    let first = fetch_stats(addr, &ClientConfig::default()).expect("stats");
    // The service saw real traffic and real client-side phase time.
    assert!(first.connections >= 8 && first.requests > 0 && first.chunks_served > 0);
    for phase in [Phase::Decrypt, Phase::Evaluate, Phase::Decode] {
        assert!(
            first.phase_totals.get(phase) > 0,
            "no reported {} time reached the service roll-up",
            phase.name()
        );
    }
    assert!(first.request_latency.count() > 0, "no request was latency-timed");
    assert!(first.request_latency.p99() >= first.request_latency.p50());

    // Per-doc rows sum *exactly* to the service totals.
    assert_eq!(first.registry.docs.len(), 2);
    let mut phases = PhaseProfile::new();
    let (mut lat_count, mut lat_sum, mut requests) = (0u64, 0u64, 0u64);
    for row in &first.registry.docs {
        assert!(row.requests > 0, "tenant {} saw no traffic", row.doc_id);
        assert!(
            !obs::enabled() || row.phases.total() > 0,
            "tenant {} got no reported phases",
            row.doc_id
        );
        phases.merge(&row.phases);
        lat_count += row.request_latency.count();
        lat_sum += row.request_latency.sum();
        requests += row.requests;
    }
    assert_eq!(phases, first.phase_totals, "per-doc phase rows must sum to the service total");
    assert_eq!(lat_count, first.request_latency.count());
    assert_eq!(lat_sum, first.request_latency.sum());
    assert!(requests <= first.requests, "doc-bound requests cannot exceed all requests");

    // The snapshot the wire carried round-trips its own encoding.
    assert_eq!(decode_snapshot(&encode_snapshot(&first)).expect("round-trip"), first);

    // Counters are monotone across snapshots (the second Stats request
    // itself adds traffic on top of the first).
    let second = fetch_stats(addr, &ClientConfig::default()).expect("stats again");
    assert!(second.connections > first.connections);
    assert!(second.requests >= first.requests);
    assert!(second.chunks_served >= first.chunks_served);
    assert!(second.bytes_served >= first.bytes_served);
    assert!(second.phase_totals.total() >= first.phase_totals.total());
    assert!(second.request_latency.count() >= first.request_latency.count());
    handle.shutdown().unwrap();
}

#[test]
fn live_admission_rejections_and_pool_evictions_reach_the_text_exposition() {
    let doc = hospital();
    let mut tmps = Vec::new();
    // Two lazy file tenants under a pool budget smaller than one
    // document: a full scan must evict under pressure.
    let mut budget = usize::MAX;
    let mut files = Vec::new();
    for id in ["cold-a", "cold-b"] {
        let tmp = TempPath::new("telemetry-pool");
        let file = ServerDoc::prepare_to_store_with_stats(
            &doc,
            &key(),
            IntegrityScheme::EcbMht,
            tiny_layout(),
            tmp.path(),
            1024,
        )
        .expect("prepare to store")
        .0;
        budget = budget.min(file.meta().ciphertext_len / 2);
        files.push((id, file.meta()));
        tmps.push(tmp);
    }
    let registry = Arc::new(DocRegistry::new(budget));
    for ((id, meta), tmp) in files.into_iter().zip(&tmps) {
        registry.insert_file(id, meta, tmp.path());
    }
    let server = ChunkServer::with_registry(Arc::clone(&registry))
        .with_config(ServerConfig { max_conns: 1, ..ServerConfig::default() });
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // A real admission rejection: one held slot, one turned-away peer.
    let held = connect(addr, "cold-a", ClientConfig::default()).expect("hold the slot");
    match connect(addr, "cold-a", ClientConfig::default()) {
        Err(ConnectError::Rejected(Fault::Busy { .. })) => {}
        Err(other) => panic!("expected Busy at the admission cap, got {other:?}"),
        Ok(_) => panic!("the admission cap must turn the second client away"),
    }
    // Real pool evictions: scan a document bigger than the shared budget.
    let mut buf = vec![0u8; held.protected.ciphertext_len()];
    held.protected.store.read_at(0, &mut buf).expect("scan");
    drop(held);

    // The freed slot is noticed asynchronously; poll until Stats gets in.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let snap = loop {
        match fetch_stats(addr, &ClientConfig::default()) {
            Ok(snap) => break snap,
            Err(ConnectError::Rejected(Fault::Busy { .. })) => {
                assert!(std::time::Instant::now() < deadline, "admission never recovered");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(other) => panic!("expected recovery or Busy, got {other:?}"),
        }
    };
    assert!(snap.admission_rejections >= 1, "the Busy fault was not counted");
    assert!(snap.registry.pool_evictions >= 1, "a scan over budget must evict");

    // Satellite audit: the live values — not fixtures — in the text
    // exposition, exactly as a scraper would read them.
    let text = render_text(&snap);
    for needle in [
        format!("xsac_admission_rejections_total {}", snap.admission_rejections),
        format!("xsac_pool_evictions_total {}", snap.registry.pool_evictions),
        format!("xsac_pool_budget_bytes {budget}"),
        format!("xsac_doc_requests_total{{doc=\"cold-a\"}} {}", snap.registry.docs[0].requests),
    ] {
        assert!(text.contains(&needle), "text exposition is missing {needle:?}:\n{text}");
    }
    handle.shutdown().unwrap();
}

/// One raw request/response exchange on an already-open socket.
fn call_raw(sock: &mut std::net::TcpStream, buf: &mut Vec<u8>, req: &Request) -> Response {
    write_frame(sock, &req.encode()).expect("write frame");
    read_frame(sock, DEFAULT_CLIENT_MAX_FRAME, buf).expect("read frame");
    Response::decode(buf).expect("decode response")
}

#[test]
fn hostile_stats_admin_and_report_frames_are_typed_and_survivable() {
    let doc = hospital();
    let prepared = ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, tiny_layout());
    // Admin stays at its default: disabled.
    let handle = ChunkServer::new(prepared, "doc").spawn("127.0.0.1:0").unwrap();
    let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    let mut buf = Vec::new();

    // Report before Hello: a typed out-of-order rejection.
    match call_raw(&mut sock, &mut buf, &Request::Report { phases: PhaseProfile::new() }) {
        Response::Err(Fault::BadRequest { .. }) => {}
        other => panic!("expected BadRequest for Report-before-Hello, got {other:?}"),
    }
    // Admin while the surface is switched off: typed, permanent.
    let close = Request::Admin(AdminOp::CloseDoc { doc_id: "doc".to_owned() });
    match call_raw(&mut sock, &mut buf, &close) {
        Response::Err(Fault::AdminDisabled) => {}
        other => panic!("expected AdminDisabled, got {other:?}"),
    }
    // The retired document-listing admin op (tag 0): a typed rejection.
    write_frame(&mut sock, &[0x05, 0x00]).expect("write retired admin op");
    read_frame(&mut sock, DEFAULT_CLIENT_MAX_FRAME, &mut buf).expect("read");
    match Response::decode(&buf).expect("decode") {
        Response::Err(Fault::BadRequest { .. }) => {}
        other => panic!("expected BadRequest for the retired admin op, got {other:?}"),
    }
    // A Stats request with trailing garbage is unparseable — typed, not
    // a hang and not a disconnect.
    write_frame(&mut sock, &[0x04, 0xde, 0xad]).expect("write junk");
    read_frame(&mut sock, DEFAULT_CLIENT_MAX_FRAME, &mut buf).expect("read");
    match Response::decode(&buf).expect("decode") {
        Response::Err(Fault::BadRequest { .. }) => {}
        other => panic!("expected BadRequest for trailing garbage, got {other:?}"),
    }

    // The same connection keeps serving: Stats answers and parses…
    match call_raw(&mut sock, &mut buf, &Request::Stats) {
        Response::Stats(bytes) => {
            let snap = decode_snapshot(&bytes).expect("snapshot decodes");
            assert!(snap.fault_frames >= 4, "the four hostile frames were not counted");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    // …and a late Hello still binds, after which Report is accepted.
    let hello = Request::Hello { version: PROTOCOL_VERSION, doc_id: "doc".to_owned() };
    match call_raw(&mut sock, &mut buf, &hello) {
        Response::Hello(_) => {}
        other => panic!("expected Hello, got {other:?}"),
    }
    let mut phases = PhaseProfile::new();
    phases.add_nanos(Phase::Evaluate, 123);
    match call_raw(&mut sock, &mut buf, &Request::Report { phases }) {
        Response::Report => {}
        other => panic!("expected Report ack, got {other:?}"),
    }
    let snap = fetch_stats(handle.addr(), &ClientConfig::default()).expect("stats");
    assert_eq!(
        snap.phase_totals.get(Phase::Evaluate),
        123,
        "the reported profile must land on the bound doc"
    );
    handle.shutdown().unwrap();
}

#[test]
fn admin_surface_lists_and_closes_tenants_when_enabled() {
    let doc = hospital();
    let registry = Arc::new(DocRegistry::new(1 << 18));
    registry
        .insert("resident", ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, tiny_layout()));
    let tmp = TempPath::new("telemetry-admin");
    let file = ServerDoc::prepare_to_store_with_stats(
        &doc,
        &key(),
        IntegrityScheme::Ecb,
        tiny_layout(),
        tmp.path(),
        1024,
    )
    .expect("prepare to store")
    .0;
    registry.insert_file("lazy", file.meta(), tmp.path());
    let handle = ChunkServer::with_registry(Arc::clone(&registry))
        .with_config(ServerConfig { admin: true, ..ServerConfig::default() })
        .spawn("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();
    let cfg = ClientConfig::default();

    let docs = fetch_stats(addr, &cfg).expect("list").registry.docs;
    assert_eq!(docs.len(), 2);
    let lazy = docs.iter().find(|d| d.doc_id == "lazy").expect("lazy row");
    assert!(lazy.lazy, "file tenants are lazy");
    assert!(docs.iter().any(|d| d.doc_id == "resident" && !d.lazy && d.open));

    // Warm the lazy tenant so there is an instance to close.
    let _scan = connect(addr, "lazy", ClientConfig::default()).expect("open lazy");
    assert!(admin_close_doc(addr, "lazy", &cfg).expect("close"), "lazy tenants close");
    assert!(!admin_close_doc(addr, "lazy", &cfg).expect("re-close"), "already closed");
    assert!(!admin_close_doc(addr, "resident", &cfg).expect("resident"), "resident never closes");
    assert!(!admin_close_doc(addr, "ghost", &cfg).expect("unknown"), "unknown ids are a no-op");
    handle.shutdown().unwrap();
}
