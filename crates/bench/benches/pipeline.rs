//! Criterion: end-to-end SOE pipeline (decode + verify + decrypt +
//! evaluate) — the wall-clock counterpart of Figure 12. Each row compiles
//! its policy once, outside the timed loop, as serving does per role;
//! `evaluator/compile` times compilation on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use xsac_bench::{prepare, run_strategy};
use xsac_crypto::IntegrityScheme;
use xsac_datagen::{hospital::physician_name, Dataset, Profile};
use xsac_soe::{CompiledPolicy, Strategy};

fn bench_pipeline(c: &mut Criterion) {
    let doc = Dataset::Hospital.generate(0.03, 42);
    let bytes = xsac_xml::writer::document_to_string(&doc).len() as u64;
    for scheme in [IntegrityScheme::Ecb, IntegrityScheme::EcbMht] {
        let server = prepare(&doc, scheme);
        let mut group = c.benchmark_group(format!("pipeline/{}", scheme.name()));
        group.throughput(Throughput::Bytes(bytes));
        group.sample_size(10);
        for profile in Profile::figure9() {
            for (label, strategy) in [("tcsbr", Strategy::Tcsbr), ("bf", Strategy::BruteForce)] {
                group.bench_with_input(
                    BenchmarkId::new(profile.name(), label),
                    &strategy,
                    |b, &strategy| {
                        let mut dict = server.dict.clone();
                        let policy = profile.policy(&physician_name(0), &mut dict);
                        let policy = Arc::new(CompiledPolicy::compile(&policy));
                        b.iter(|| run_strategy(&server, &policy, None, strategy).result_bytes)
                    },
                );
            }
        }
        group.finish();
    }
}

/// Prices the span clock itself: the ECB-MHT Doctor pipeline row with
/// telemetry on (every phase transition reads the monotonic clock)
/// against the same row with the runtime switch off (`Tick::now` is a
/// relaxed load and a branch). Beyond the two report rows, an
/// interleaved min-of-K A/B *asserts* the instrumentation costs < 2% —
/// the tentpole's zero-allocation-span-clock budget, kept honest by the
/// bench run itself.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let doc = Dataset::Hospital.generate(0.03, 42);
    let bytes = xsac_xml::writer::document_to_string(&doc).len() as u64;
    let server = prepare(&doc, IntegrityScheme::EcbMht);
    let mut dict = server.dict.clone();
    let policy = Profile::Doctor.policy(&physician_name(0), &mut dict);
    let policy = Arc::new(CompiledPolicy::compile(&policy));
    let session = || run_strategy(&server, &policy, None, Strategy::Tcsbr).result_bytes;

    let mut group = c.benchmark_group("pipeline/telemetry");
    group.throughput(Throughput::Bytes(bytes));
    group.sample_size(10);
    for (label, on) in [("Doctor-mht/instrumented", true), ("Doctor-mht/off", false)] {
        xsac_obs::set_enabled(on);
        group.bench_function(label, |b| b.iter(session));
    }
    group.finish();

    // Interleaved min-of-K: alternating on/off inside each round cancels
    // drift (thermal, scheduler), and the per-mode minimum estimates the
    // noise-free cost. K × 3 sessions per mode keeps this under a second.
    const ROUNDS: usize = 9;
    let mut best = [f64::INFINITY; 2];
    for _ in 0..ROUNDS {
        for (slot, on) in [(0usize, true), (1, false)] {
            xsac_obs::set_enabled(on);
            let t = Instant::now();
            for _ in 0..3 {
                black_box(session());
            }
            best[slot] = best[slot].min(t.elapsed().as_secs_f64());
        }
    }
    xsac_obs::set_enabled(true);
    let overhead = (best[0] - best[1]) / best[1];
    println!("telemetry overhead (Doctor, ECB-MHT): {:+.2}%", overhead * 100.0);
    assert!(
        overhead < 0.02,
        "span clock costs {:.2}% on the ECB-MHT Doctor row — the <2% telemetry budget is blown",
        overhead * 100.0
    );
}

criterion_group!(benches, bench_pipeline, bench_telemetry_overhead);
criterion_main!(benches);
