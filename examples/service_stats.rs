//! The telemetry surface end to end: a multi-tenant server answering the
//! wire-level `Stats` and `Admin` frames, a client stamping its
//! session-phase profile back with `Report`.
//!
//! Two hospital documents go behind one socket. Clients run the §7 role
//! sessions against each tenant — decrypting, verifying and evaluating
//! locally, as the architecture demands — then push their per-phase wall
//! times to the server so the service-wide roll-up sees the whole
//! pipeline, not just the chunk-serving half it can observe itself.
//! A `Stats` round trip lists the tenants, the admin surface closes one,
//! and a final `Stats` round trip prints the snapshot as Prometheus text
//! exposition.
//!
//!     cargo run --release --example service_stats

use std::sync::Arc;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::Profile;
use xsac::net::{
    admin_close_doc, connect, fetch_stats, render_text, ChunkServer, ClientConfig, DocRegistry,
    ServerConfig,
};
use xsac::obs::PhaseProfile;
use xsac::soe::{DocServer, ServerDoc, SessionSpec};
use xsac_testkit::TempPath;

fn main() {
    let key = TripleDes::new(*b"stats-example-key-24-byt");

    // Two tenants share one registry (and one residency budget): one
    // resident, one lazy file-backed — the kind the admin surface can
    // actually close (and the next Hello transparently reopens).
    let registry = Arc::new(DocRegistry::new(1 << 18));
    let doc = hospital_document(&HospitalConfig { folders: 16, ..Default::default() }, 3);
    registry.insert(
        "hospital-2026",
        ServerDoc::prepare(&doc, &key, IntegrityScheme::EcbMht, ChunkLayout::default()),
    );
    let archive = hospital_document(&HospitalConfig { folders: 6, ..Default::default() }, 11);
    let tmp = TempPath::new("service-stats-archive");
    let file = ServerDoc::prepare_to_store_with_stats(
        &archive,
        &key,
        IntegrityScheme::EcbMht,
        ChunkLayout::default(),
        tmp.path(),
        1 << 16,
    )
    .expect("prepare archive to file")
    .0;
    registry.insert_file("archive-2025", file.meta(), tmp.path());
    let server = ChunkServer::with_registry(Arc::clone(&registry))
        .with_config(ServerConfig { admin: true, ..ServerConfig::default() });
    let handle = server.spawn("127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr();
    println!("stats-enabled chunk server on {addr} (admin surface on)\n");

    // Run the Figure-9 roles against both tenants and report each
    // client's phase profile back — the only way decrypt/verify/evaluate
    // time (spent inside the client SOE) can reach the server's metrics.
    for doc_id in ["hospital-2026", "archive-2025"] {
        let remote = connect(addr, doc_id, ClientConfig::default()).expect("connect");
        let client = DocServer::new(remote, key.clone());
        let mut phases = PhaseProfile::new();
        for profile in Profile::figure9() {
            let mut dict = client.doc().dict.clone();
            let spec =
                SessionSpec::new(profile.name(), profile.policy(&physician_name(0), &mut dict));
            let res = client.serve(&spec).expect("session");
            phases.merge(&res.phases);
        }
        client.doc().protected.store.report_profile(&phases).expect("report");
    }

    // List what the service is routing (the read-only Stats rows), then
    // close a tenant through the admin surface; its row survives the close.
    let cfg = ClientConfig::default();
    for d in fetch_stats(addr, &cfg).expect("list docs").registry.docs {
        println!("stats: doc {:?} open={} lazy={}", d.doc_id, d.open, d.lazy);
    }
    let closed = admin_close_doc(addr, "archive-2025", &cfg).expect("close doc");
    println!("admin: closed archive-2025 = {closed}\n");

    // One read-only Stats round trip, rendered for scraping.
    let snap = fetch_stats(addr, &cfg).expect("fetch stats");
    print!("{}", render_text(&snap));
    handle.shutdown().expect("shutdown");
}
