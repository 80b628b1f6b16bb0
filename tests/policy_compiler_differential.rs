//! Differential suite for the policy compiler: containment-based rule
//! minimization + the flat evaluation IR must be *invisible* to
//! everything but speed.
//!
//! Three angles:
//!
//! * **Figure-10 views** (already minimal — no rule is containment-
//!   redundant): the minimized compilation must drop zero rules and the
//!   session must be byte-identical to the unminimized one — delivery
//!   log, `AccessCost`, evaluator statistics, readback handles — and
//!   both must match the DOM oracle. With and without a query (the
//!   per-session IR-extension path).
//! * **Synthetic redundant policies** (duplicates, contained same-sign
//!   pairs, duplicates under a deny): the minimizer must actually drop
//!   rules, the view must stay oracle-exact, and the minimized session
//!   must not do *more* work than the unminimized one.
//! * **Random rule sets** over random hospital documents: whatever the
//!   minimizer decides, the delivered view equals the unminimized view
//!   and the oracle.
//!
//! The Figure-10 angle runs under all four integrity schemes.

use proptest::prelude::*;
use std::sync::Arc;
use xsac::core::oracle::oracle_view_string;
use xsac::core::output::reassemble_to_string;
use xsac::core::{CompiledPolicy, CompilerMode, Policy, Sign};
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::profiles::{figure10_query, stacked_researcher_policy, View};
use xsac::datagen::rulegen::{random_policy, RuleGenConfig};
use xsac::soe::{
    run_session_shared, ServerDoc, SessionConfig, SessionResult, Strategy as SoeStrategy,
};
use xsac::xpath::Automaton;

fn key() -> TripleDes {
    TripleDes::new(*b"policy-compiler-diff-24a")
}

fn layout() -> ChunkLayout {
    ChunkLayout { chunk_size: 512, fragment_size: 64 }
}

/// One session under an explicit compiler mode.
fn run_mode(
    server: &ServerDoc,
    policy: &Policy,
    mode: CompilerMode,
    query: Option<&Automaton>,
    config: &SessionConfig,
) -> SessionResult {
    let compiled = Arc::new(CompiledPolicy::with_mode(policy, mode));
    run_session_shared(server, &key(), &compiled, query, config, None).expect("session")
}

/// Asserts full byte-identity between a minimized and an unminimized
/// session — the contract when minimization dropped nothing.
macro_rules! assert_identical {
    ($min:expr, $raw:expr, $label:expr) => {
        prop_assert_eq!(&$min.log, &$raw.log, "{}: delivery log diverged", $label);
        prop_assert_eq!($min.cost, $raw.cost, "{}: AccessCost diverged", $label);
        prop_assert_eq!(&$min.output, &$raw.output, "{}: output stats diverged", $label);
        prop_assert_eq!(&$min.stats, &$raw.stats, "{}: evaluator stats diverged", $label);
        prop_assert_eq!($min.result_bytes, $raw.result_bytes, "{}", $label);
        prop_assert_eq!($min.handles_created, $raw.handles_created, "{}", $label);
        prop_assert_eq!($min.handles_peak, $raw.handles_peak, "{}", $label);
    };
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..Default::default() })]

    /// Minimized == unminimized == oracle on the Figure-10 views, with
    /// and without a query, under all four integrity schemes and both
    /// consumption strategies. The views carry no redundant rule, so
    /// the compilations must be *indistinguishable* in every metered
    /// quantity, not just in the delivered view.
    #[test]
    fn figure10_views_are_untouched_and_byte_identical(
        folders in 1usize..4,
        doc_seed in any::<u16>(),
        age in 30u32..80,
    ) {
        let config = HospitalConfig { folders, ..Default::default() };
        let doc = hospital_document(&config, doc_seed as u64);
        let frequent = physician_name(0);
        let rare = physician_name(config.physicians - 1);
        for scheme in IntegrityScheme::ALL {
            let server = ServerDoc::prepare(&doc, &key(), scheme, layout());
            for view in View::ALL {
                let mut dict = server.dict.clone();
                let policy = view.policy(&mut dict, &frequent, &rare);
                let expected = oracle_view_string(&doc, &policy);
                let query = Automaton::parse(&figure10_query(age), &mut dict).expect("query");
                for with_query in [false, true] {
                    let q = if with_query { Some(&query) } else { None };
                    for strategy in [SoeStrategy::Tcsbr, SoeStrategy::BruteForce] {
                        let sc = SessionConfig { strategy, ..Default::default() };
                        let min = run_mode(&server, &policy, CompilerMode::Minimized, q, &sc);
                        let raw = run_mode(&server, &policy, CompilerMode::Unminimized, q, &sc);
                        let label =
                            format!("{scheme:?} {} q={with_query} {strategy:?}", view.name());
                        prop_assert_eq!(
                            min.compiler.rules_dropped(), 0,
                            "{}: Figure-10 views have no redundant rule", &label
                        );
                        prop_assert_eq!(min.compiler.rules_in, policy.rules.len(), "{}", &label);
                        prop_assert!(min.compiler.ir_instructions > 0, "{}", &label);
                        assert_identical!(min, raw, &label);
                        if !with_query {
                            let got = reassemble_to_string(&dict, &min.log);
                            prop_assert_eq!(&got, &expected, "{}: diverged from oracle", &label);
                        }
                    }
                }
            }
        }
    }

    /// Random rule sets: whatever the minimizer drops, the delivered
    /// view equals the unminimized view and the DOM oracle, and the
    /// minimized session never does more evaluator work. When nothing
    /// drops, the sessions must be byte-identical outright.
    #[test]
    fn random_rule_sets_survive_minimization(
        doc_seed in any::<u16>(),
        rule_seed in any::<u16>(),
        rules in 2usize..12,
    ) {
        let doc = hospital_document(
            &HospitalConfig { folders: 2, ..Default::default() },
            doc_seed as u64,
        );
        let gen_config = RuleGenConfig { rules, ..Default::default() };
        let policy = random_policy(&doc, &gen_config, rule_seed as u64);
        let expected = oracle_view_string(&doc, &policy);
        let server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, layout());
        let dict = server.dict.clone();
        for strategy in [SoeStrategy::Tcsbr, SoeStrategy::BruteForce] {
            let sc = SessionConfig { strategy, ..Default::default() };
            let min = run_mode(&server, &policy, CompilerMode::Minimized, None, &sc);
            let raw = run_mode(&server, &policy, CompilerMode::Unminimized, None, &sc);
            let label = format!("seed {doc_seed}/{rule_seed} {strategy:?}");
            prop_assert_eq!(&min.log, &raw.log, "{}: delivery log diverged", &label);
            prop_assert!(
                min.stats.token_ops <= raw.stats.token_ops,
                "{}: minimized session did more token work ({} > {})",
                &label, min.stats.token_ops, raw.stats.token_ops
            );
            prop_assert!(min.cost.bytes_to_soe <= raw.cost.bytes_to_soe, "{}", &label);
            if min.compiler.rules_dropped() == 0 {
                assert_identical!(min, raw, &label);
            }
            let got = reassemble_to_string(&dict, &min.log);
            prop_assert_eq!(&got, &expected, "{}: diverged from oracle", &label);
        }
    }
}

/// Synthetic redundant policies: the minimizer must fire, and firing
/// must be invisible in the delivered view.
#[test]
fn redundant_policies_drop_rules_without_changing_the_view() {
    let doc = hospital_document(&HospitalConfig { folders: 2, ..Default::default() }, 7);
    let server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout());
    // (rules, expected drops): duplicates, a contained same-sign pair
    // with no opposite rule, and duplicates surviving *under* a deny
    // (mutual containment is droppable even when §3.3's strong
    // condition fails for strict containment).
    let cases: &[(&[(Sign, &str)], usize)] = &[
        (&[(Sign::Permit, "//Admin"), (Sign::Permit, "//Admin")], 1),
        (&[(Sign::Permit, "//Admin"), (Sign::Permit, "//Admin//Address")], 1),
        (&[(Sign::Permit, "//MedActs"), (Sign::Permit, "//MedActs"), (Sign::Deny, "//Details")], 1),
        // Triplicate permits drop to one; ⊖//Analysis//Cholesterol is
        // contained in ⊖//Analysis but survives — §3.3's strong
        // condition demands every opposite-signed rule be contained in
        // the dominating deny, and ⊕//Folder//Age is not.
        (
            &[
                (Sign::Permit, "//Folder//Age"),
                (Sign::Permit, "//Folder//Age"),
                (Sign::Permit, "//Folder//Age"),
                (Sign::Deny, "//Analysis"),
                (Sign::Deny, "//Analysis//Cholesterol"),
            ],
            2,
        ),
    ];
    for (rules, expected_drops) in cases {
        let mut dict = server.dict.clone();
        let policy = Policy::parse("u", rules, &mut dict).unwrap();
        let expected = oracle_view_string(&doc, &policy);
        for strategy in [SoeStrategy::Tcsbr, SoeStrategy::BruteForce] {
            let sc = SessionConfig { strategy, ..Default::default() };
            let min = run_mode(&server, &policy, CompilerMode::Minimized, None, &sc);
            let raw = run_mode(&server, &policy, CompilerMode::Unminimized, None, &sc);
            assert_eq!(
                min.compiler.rules_dropped(),
                *expected_drops,
                "{rules:?}: wrong drop count"
            );
            assert_eq!(raw.compiler.rules_dropped(), 0, "{rules:?}: unminimized must not drop");
            assert_eq!(min.log, raw.log, "{rules:?} {strategy:?}: delivery log diverged");
            assert!(
                min.stats.token_ops <= raw.stats.token_ops,
                "{rules:?} {strategy:?}: minimized did more work"
            );
            assert!(min.cost.bytes_to_soe <= raw.cost.bytes_to_soe, "{rules:?} {strategy:?}");
            let got = reassemble_to_string(&dict, &min.log);
            assert_eq!(got, expected, "{rules:?} {strategy:?}: diverged from oracle");
        }
    }
}

/// The rule-heavy A/B profile: four stacked copies of the 10-group
/// Researcher policy minimize back to the 21 base rules, and the
/// stacked-minimized session is byte-identical to the base session.
#[test]
fn stacked_researcher_minimizes_to_the_base_policy() {
    let doc = hospital_document(&HospitalConfig { folders: 3, ..Default::default() }, 11);
    let server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout());
    let mut dict = server.dict.clone();
    let base = xsac::datagen::profiles::researcher_policy("r", 10, &mut dict);
    let stacked = stacked_researcher_policy("r", 10, 4, &mut dict);
    assert_eq!(stacked.rules.len(), 84);
    let compiled = CompiledPolicy::compile(&stacked);
    assert_eq!(compiled.rule_count(), base.rules.len(), "4×21 rules must minimize to 21");
    assert_eq!(compiled.minimize_stats().rules_dropped(), 63);

    let sc = SessionConfig::default();
    let stacked_min = run_mode(&server, &stacked, CompilerMode::Minimized, None, &sc);
    let stacked_raw = run_mode(&server, &stacked, CompilerMode::Unminimized, None, &sc);
    let base_min = run_mode(&server, &base, CompilerMode::Minimized, None, &sc);
    // The minimized stacked policy *is* the base policy.
    assert_eq!(stacked_min.log, base_min.log);
    assert_eq!(stacked_min.stats, base_min.stats);
    assert_eq!(stacked_min.cost, base_min.cost);
    // And it delivers the same view as the unminimized stacked one, for
    // a fraction of the token work.
    assert_eq!(stacked_min.log, stacked_raw.log);
    assert!(
        stacked_min.stats.token_ops * 2 < stacked_raw.stats.token_ops,
        "84→21 rules should cut token work by far more than 2×: {} vs {}",
        stacked_min.stats.token_ops,
        stacked_raw.stats.token_ops
    );
    assert_eq!(reassemble_to_string(&dict, &stacked_min.log), oracle_view_string(&doc, &stacked));
}
