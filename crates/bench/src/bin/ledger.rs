//! The serving ledger: warm `DocServer` sessions for the three Figure-9
//! profiles × {ECB, ECB-MHT} × three deployments of the same document,
//! measured side by side. Writes `BENCH_ledger.json` at the repo root
//! (see `docs/BENCHMARKS.md`).
//!
//! * **mem** — `ServerDoc::prepare`: the whole ciphertext resident;
//! * **file** — `prepare_to_store_with_stats`: ciphertext encrypted and
//!   digested chunk-at-a-time to disk, served through an 8 KiB window;
//! * **tcp** — a `ChunkServer` publishes the document on loopback and the
//!   sessions run client-side over `connect(.., ClientConfig::default())`.
//!
//! Rows are timed in interleaved rounds, the row order rotating each
//! round, one batch of sessions per row per round — so host drift lands
//! on every row alike. Each row records the spread of ns/session, the
//! mean per-phase split of a session (`SessionResult::phases`), its
//! metered `AccessCost`, and on file rows the store's residency peak.
//! The run asserts the residency, wire, cache and remote/local contracts
//! before it writes anything.

use std::fmt::Write as _;
use std::time::Instant;
use xsac_bench::demo_key;
use xsac_crypto::chunk::ChunkLayout;
use xsac_crypto::{AccessCost, ChunkStore, IntegrityScheme};
use xsac_datagen::{hospital::physician_name, Dataset, Profile};
use xsac_net::{connect, ChunkServer, ClientConfig};
use xsac_obs::{Phase, PhaseProfile};
use xsac_soe::{DocServer, ServerDoc, SessionResult, SessionSpec};
use xsac_testkit::TempPath;

const SESSIONS_PER_BATCH: usize = 8;
const ROUNDS: usize = 25;
/// Resident window for the file deployment (4 default chunks).
const WINDOW_BYTES: usize = 8 * 1024;
const SCHEMES: [IntegrityScheme; 2] = [IntegrityScheme::Ecb, IntegrityScheme::EcbMht];
/// `SCHEMES[MHT]` is ECB-MHT, whose servers the contracts are asserted on.
const MHT: usize = 1;
/// The phases a read session charges (encode and io are protect-time).
const SESSION_PHASES: [Phase; 5] =
    [Phase::Fetch, Phase::Decrypt, Phase::Hash, Phase::Decode, Phase::Evaluate];

type Serve<'a> = Box<dyn Fn(&[SessionSpec]) -> Vec<SessionResult> + 'a>;

fn serve<S: ChunkStore>(server: &DocServer<S>) -> Serve<'_> {
    Box::new(move |specs| {
        server.serve_batch(specs).into_iter().map(|r| r.expect("session")).collect()
    })
}

struct Row<'a> {
    profile: Profile,
    scheme: IntegrityScheme,
    deployment: &'static str,
    serve: Serve<'a>,
    specs: Vec<SessionSpec>,
    /// ns/session of each round's batch.
    samples: Vec<f64>,
    phases: PhaseProfile,
    cost: AccessCost,
    resident_bytes_peak: Option<u64>,
}

fn specs_for(dict: &xsac_xml::TagDict, profile: Profile) -> Vec<SessionSpec> {
    (0..SESSIONS_PER_BATCH)
        .map(|_| {
            let mut dict = dict.clone();
            SessionSpec::new(profile.name(), profile.policy(&physician_name(0), &mut dict))
        })
        .collect()
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// (min, median, median absolute deviation) of the samples.
fn spread(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let med = median(&sorted);
    let mut dev: Vec<f64> = sorted.iter().map(|s| (s - med).abs()).collect();
    dev.sort_by(f64::total_cmp);
    (sorted[0], med, median(&dev))
}

fn main() {
    let doc = Dataset::Hospital.generate(0.03, 42);
    let layout = ChunkLayout::default();
    let key = demo_key();
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mems: Vec<DocServer> = SCHEMES
        .iter()
        .map(|&scheme| DocServer::new(ServerDoc::prepare(&doc, &key, scheme, layout), demo_key()))
        .collect();
    let doc_bytes = mems[0].doc().protected.ciphertext_len();

    // Contract check: on a warm server, a second session re-hashes zero
    // MHT leaf bytes (the cross-session cache's whole point).
    let mht_mem = &mems[MHT];
    let mut dict = mht_mem.doc().dict.clone();
    let policy = Profile::Doctor.policy(&physician_name(0), &mut dict);
    let cold = mht_mem.serve(&SessionSpec::new("Doctor", policy)).expect("cold session");
    assert!(cold.cost.terminal_bytes_hashed > 0, "cold session must hash leaves");
    let mut dict = mht_mem.doc().dict.clone();
    let policy = Profile::Doctor.policy(&physician_name(0), &mut dict);
    let warm = mht_mem.serve(&SessionSpec::new("Doctor", policy)).expect("warm session");
    assert_eq!(warm.cost.terminal_bytes_hashed, 0, "warm session must re-hash nothing");

    let tmps: Vec<TempPath> = SCHEMES.iter().map(|_| TempPath::new("bench-ledger")).collect();
    let (files, protect_peaks): (Vec<_>, Vec<_>) = SCHEMES
        .iter()
        .zip(&tmps)
        .map(|(&scheme, tmp)| {
            let (file, stats) = ServerDoc::prepare_to_store_with_stats(
                &doc,
                &key,
                scheme,
                layout,
                tmp.path(),
                WINDOW_BYTES,
            )
            .expect("prepare to store");
            (DocServer::new(file, demo_key()), stats.peak_buffered)
        })
        .unzip();
    let meta_wire_bytes = xsac_net::meta::encode_meta(&files[MHT].doc().meta()).len();
    let protect_peak = protect_peaks[MHT];

    let handles: Vec<_> = SCHEMES
        .iter()
        .map(|&scheme| {
            let published = ServerDoc::prepare(&doc, &key, scheme, layout);
            ChunkServer::new(published, scheme.name()).spawn("127.0.0.1:0").expect("spawn server")
        })
        .collect();
    let tcps: Vec<_> = SCHEMES
        .iter()
        .zip(&handles)
        .map(|(scheme, h)| {
            let remote =
                connect(h.addr(), scheme.name(), ClientConfig::default()).expect("connect");
            DocServer::new(remote, demo_key())
        })
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for profile in Profile::figure9() {
        for (i, &scheme) in SCHEMES.iter().enumerate() {
            let deployments =
                [("mem", serve(&mems[i])), ("file", serve(&files[i])), ("tcp", serve(&tcps[i]))];
            for (deployment, serve) in deployments {
                rows.push(Row {
                    profile,
                    scheme,
                    deployment,
                    serve,
                    specs: specs_for(&mems[i].doc().dict, profile),
                    samples: Vec::with_capacity(ROUNDS),
                    phases: PhaseProfile::new(),
                    cost: AccessCost::default(),
                    resident_bytes_peak: None,
                });
            }
        }
    }

    // Warm every row (compiled policy, terminal trees, client windows),
    // then time interleaved rounds.
    for row in &rows {
        (row.serve)(&row.specs);
    }
    for round in 0..ROUNDS {
        for k in 0..rows.len() {
            let i = (round + k) % rows.len();
            let row = &mut rows[i];
            let start = Instant::now();
            let results = (row.serve)(&row.specs);
            row.samples.push(start.elapsed().as_nanos() as f64 / results.len() as f64);
            for r in &results {
                row.phases.merge(&r.phases);
            }
            row.cost = results.last().expect("non-empty batch").cost;
        }
    }
    for row in rows.iter_mut().filter(|r| r.deployment == "file") {
        let i = SCHEMES.iter().position(|&s| s == row.scheme).expect("scheme");
        row.resident_bytes_peak = files[i].resident_bytes_peak();
    }

    // The residency contract, asserted before it is recorded: the
    // file-backed run must have stayed O(window), not O(document).
    let peak = files[MHT].resident_bytes_peak().expect("metered backend") as usize;
    assert!(doc_bytes >= 8 * WINDOW_BYTES, "document must dwarf the window");
    assert!(peak * 4 <= doc_bytes, "peak residency {peak} not ≪ document {doc_bytes}");
    assert!(mht_mem.resident_bytes_peak().is_none(), "mem backend does not meter");
    // The wire/protect contracts: the `Hello` meta is O(layout), and one-pass
    // protection buffers O(chunk) — neither scales with the document.
    assert!(meta_wire_bytes * 4 <= doc_bytes, "meta {meta_wire_bytes} B not ≪ document");
    assert!(protect_peak <= layout.chunk_size + 2048, "protect peak {protect_peak} not O(chunk)");

    // The acceptance contract: batched remote serving stays within a
    // small constant factor of in-memory (the pipeline is crypto-bound,
    // not wire-bound). Best round against best round, so a noisy shared
    // host doesn't flake the gate.
    let best = |profile: Profile, deployment: &str| {
        let row = rows
            .iter()
            .find(|r| {
                r.profile == profile
                    && r.scheme == IntegrityScheme::EcbMht
                    && r.deployment == deployment
            })
            .expect("row");
        spread(&row.samples).0
    };
    for profile in Profile::figure9() {
        let factor = best(profile, "tcp") / best(profile, "mem");
        assert!(
            factor < 10.0,
            "{}: best batched remote is {factor:.1}× local — the wire is dominating",
            profile.name()
        );
    }

    let mut body = String::from("{\n  \"bench\": \"ledger\",\n");
    let _ = writeln!(body, "  \"cpus\": {cpus},");
    body.push_str("  \"dataset\": \"Hospital\",\n  \"scale\": 0.03,\n  \"seed\": 42,\n");
    let _ = writeln!(body, "  \"doc_bytes\": {doc_bytes},");
    let _ = writeln!(body, "  \"window_bytes\": {WINDOW_BYTES},");
    let _ = writeln!(body, "  \"meta_wire_bytes\": {meta_wire_bytes},");
    let _ = writeln!(body, "  \"protect_peak_buffered\": {protect_peak},");
    let _ = writeln!(body, "  \"sessions_per_batch\": {SESSIONS_PER_BATCH},");
    let _ = writeln!(body, "  \"rounds\": {ROUNDS},");
    body.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (min, med, mad) = spread(&r.samples);
        let sessions = (r.samples.len() * SESSIONS_PER_BATCH) as f64;
        let phases: Vec<String> = SESSION_PHASES
            .iter()
            .map(|&p| format!("\"{}\": {:.0}", p.name(), r.phases.get(p) as f64 / sessions))
            .collect();
        let c = &r.cost;
        println!(
            "{:<10} {:<7} {:<4}: {:>8.1} sessions/s  (median {:>9.0} ns, MAD {:>7.0} ns)",
            r.profile.name(),
            r.scheme.name(),
            r.deployment,
            1e9 / med,
            med,
            mad
        );
        let _ = writeln!(
            body,
            "    {{\"profile\": \"{}\", \"scheme\": \"{}\", \"deployment\": \"{}\", \
             \"n\": {}, \"min_ns\": {min:.0}, \"median_ns\": {med:.0}, \"mad_ns\": {mad:.0}, \
             \"phases_ns\": {{{}}}, \
             \"cost\": {{\"bytes_to_soe\": {}, \"bytes_decrypted\": {}, \"bytes_hashed\": {}, \
             \"digests_decrypted\": {}, \"terminal_bytes_hashed\": {}, \"reads\": {}, \
             \"bytes_refetched\": {}}}, \"resident_bytes_peak\": {}}}{}",
            r.profile.name(),
            r.scheme.name(),
            r.deployment,
            r.samples.len(),
            phases.join(", "),
            c.bytes_to_soe,
            c.bytes_decrypted,
            c.bytes_hashed,
            c.digests_decrypted,
            c.terminal_bytes_hashed,
            c.reads,
            c.bytes_refetched,
            r.resident_bytes_peak.map_or("null".to_owned(), |p| p.to_string()),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    body.push_str("  ]\n}\n");
    println!(
        "\ndocument {doc_bytes} B, window {WINDOW_BYTES} B, ECB-MHT resident peak {peak} B; \
         Hello meta {meta_wire_bytes} B; protect peak {protect_peak} B"
    );
    let path = output_dir().join("BENCH_ledger.json");
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    drop(rows);
    drop(tcps);
    for h in handles {
        h.shutdown().expect("shutdown");
    }
}

/// `XSAC_BENCH_DIR`, else the enclosing repository root, else `.` (same
/// convention as the criterion shim).
fn output_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("XSAC_BENCH_DIR") {
        return std::path::PathBuf::from(dir);
    }
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        if dir.join(".git").exists() {
            return dir;
        }
        if !dir.pop() {
            return start;
        }
    }
}
