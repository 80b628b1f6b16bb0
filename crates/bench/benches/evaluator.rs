//! Criterion: real (host) throughput of the streaming access-control
//! evaluator — the wall-clock counterpart of Figure 9's simulated times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use xsac_core::evaluator::{CompiledPolicy, CompilerMode, EvalConfig, Evaluator};
use xsac_datagen::profiles::{stacked_researcher_policy, View};
use xsac_datagen::{hospital::physician_name, Dataset, Profile};
use xsac_xml::Event;

fn bench_profiles(c: &mut Criterion) {
    let doc = Dataset::Hospital.generate(0.05, 42);
    let events: Vec<Event<'static>> = doc.events();
    let xml_bytes = xsac_xml::writer::document_to_string(&doc).len() as u64;
    let mut group = c.benchmark_group("evaluator/hospital");
    group.throughput(Throughput::Bytes(xml_bytes));
    for profile in Profile::figure9() {
        group.bench_with_input(
            BenchmarkId::from_parameter(profile.name()),
            &profile,
            |b, profile| {
                let mut dict = doc.dict.clone();
                let policy = profile.policy(&physician_name(0), &mut dict);
                b.iter(|| {
                    let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
                    for ev in &events {
                        eval.event(ev);
                    }
                    eval.finish().log.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_minimization(c: &mut Criterion) {
    // A/B: the containment-minimizing policy compiler against the
    // verbatim compilation, on rule-heavy profiles. "Researcher" is the
    // already-minimal 21-rule Figure-9 policy (minimization must cost
    // nothing); "Researcher×4" stacks four verbatim copies (84 rules),
    // which the compiler folds back to 21 — the redundancy shape real
    // policies grow when role templates are concatenated per-grant.
    let doc = Dataset::Hospital.generate(0.05, 42);
    let events: Vec<Event<'static>> = doc.events();
    let xml_bytes = xsac_xml::writer::document_to_string(&doc).len() as u64;
    let mut group = c.benchmark_group("evaluator/minimization");
    group.throughput(Throughput::Bytes(xml_bytes));
    let policies = [("Researcher", 1usize), ("Researcherx4", 4usize)];
    for (name, copies) in policies {
        let mut dict = doc.dict.clone();
        let policy = xsac_datagen::profiles::stacked_researcher_policy("r", 10, copies, &mut dict);
        for (mode, tag) in [(CompilerMode::Minimized, "min"), (CompilerMode::Unminimized, "raw")] {
            let compiled = Arc::new(CompiledPolicy::with_mode(&policy, mode));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{name}/{tag}")),
                &compiled,
                |b, compiled| {
                    b.iter(|| {
                        let mut eval = Evaluator::with_compiled(
                            Arc::clone(compiled),
                            None,
                            EvalConfig::default(),
                        );
                        for ev in &events {
                            eval.event(ev);
                        }
                        eval.finish().log.len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    // The policy compiler alone — what a fresh login pays before its
    // first event: containment minimization plus flat-IR lowering.
    let doc = Dataset::Hospital.generate(0.05, 42);
    let mut dict = doc.dict.clone();
    let (frequent, rare) = (physician_name(0), physician_name(1));
    let policies = [
        ("Researcher", Profile::Researcher { groups: 10 }.policy("r", &mut dict)),
        ("SR", View::Sr.policy(&mut dict, &frequent, &rare)),
        ("JR", View::Jr.policy(&mut dict, &frequent, &rare)),
        ("Doctor", Profile::Doctor.policy(&frequent, &mut dict)),
        ("Researcherx4", stacked_researcher_policy("r", 10, 4, &mut dict)),
    ];
    let mut group = c.benchmark_group("evaluator/compile");
    for (name, policy) in &policies {
        group.bench_with_input(BenchmarkId::from_parameter(name), policy, |b, policy| {
            b.iter(|| CompiledPolicy::compile(policy).rule_count())
        });
    }
    group.finish();
}

fn bench_rule_count_scaling(c: &mut Criterion) {
    // Access-control cost grows with the number of ARA (Figure 9's
    // discussion); sweep the Researcher group count.
    let doc = Dataset::Hospital.generate(0.03, 42);
    let events: Vec<Event<'static>> = doc.events();
    let mut group = c.benchmark_group("evaluator/rule-count");
    for groups in [1usize, 4, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(groups), &groups, |b, &groups| {
            let mut dict = doc.dict.clone();
            let policy = xsac_datagen::researcher_policy("r", groups, &mut dict);
            b.iter(|| {
                let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
                for ev in &events {
                    eval.event(ev);
                }
                eval.finish().log.len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_profiles,
    bench_minimization,
    bench_compile,
    bench_rule_count_scaling
);
criterion_main!(benches);
