//! SOE working-memory characteristics (§2: "the SOE has at least a small
//! quantity of secure working memory to protect sensitive data structures
//! at processing time" — 8 KB RAM on the paper's target card).
//!
//! The streaming structures must scale with document *depth* and policy
//! size, never with document *length*; pending entries must scale with the
//! pending content, not the whole document.

use xsac_core::evaluator::{EvalConfig, Evaluator};
use xsac_core::{Policy, Sign};
use xsac_xml::Document;

fn run(doc: &Document, rules: &[(Sign, &str)]) -> xsac_core::EvalStats {
    run_cfg(doc, rules, EvalConfig::default())
}

fn run_cfg(doc: &Document, rules: &[(Sign, &str)], config: EvalConfig) -> xsac_core::EvalStats {
    let mut dict = doc.dict.clone();
    let policy = Policy::parse("u", rules, &mut dict).unwrap();
    let mut eval = Evaluator::new(&policy, None, config);
    for ev in doc.events() {
        eval.event(&ev);
    }
    eval.finish().stats
}

/// Wide flat documents: peak token count is independent of sibling count.
#[test]
fn token_peak_independent_of_document_width() {
    let rules: &[(Sign, &str)] = &[(Sign::Permit, "//a//b"), (Sign::Deny, "//a/c[d=1]")];
    let make = |n: usize| {
        let mut xml = String::from("<a>");
        for i in 0..n {
            xml.push_str(&format!("<b>x{i}</b><c><d>{}</d></c>", i % 3));
        }
        xml.push_str("</a>");
        Document::parse(&xml).unwrap()
    };
    let small = run(&make(10), rules);
    let large = run(&make(1000), rules);
    assert!(
        large.peak_tokens <= small.peak_tokens + 2,
        "token stack must not grow with width: {} vs {}",
        large.peak_tokens,
        small.peak_tokens
    );
    assert!(large.peak_auth_entries <= small.peak_auth_entries + 2);
}

/// Peak tokens grow (at worst linearly) with nesting depth, as the paper's
/// stack design implies.
#[test]
fn token_peak_scales_with_depth_only() {
    let rules: &[(Sign, &str)] = &[(Sign::Permit, "//a//a")];
    let make = |depth: usize| {
        let mut xml = String::new();
        for _ in 0..depth {
            xml.push_str("<a>");
        }
        xml.push('x');
        for _ in 0..depth {
            xml.push_str("</a>");
        }
        Document::parse(&xml).unwrap()
    };
    // Measure the raw stacks: the §3.3 pruning would otherwise flatten
    // the growth (that, too, is asserted — below).
    let raw = EvalConfig { enable_skip_directives: false };
    let d10 = run_cfg(&make(10), rules, raw.clone());
    let d40 = run_cfg(&make(40), rules, raw);
    assert!(d40.peak_tokens > d10.peak_tokens, "deeper nesting keeps more proxies");
    // //a//a keeps one proxy per (level, first-match position): O(depth²)
    // in the raw NFA — 4× depth ⇒ ≤ ~16× tokens, not worse.
    assert!(d40.peak_tokens <= d10.peak_tokens * 20, "{} vs {}", d40.peak_tokens, d10.peak_tokens);
    // With the §3.3 optimizations the growth flattens entirely.
    let rules: &[(Sign, &str)] = &[(Sign::Permit, "//a//a")];
    let o10 = run(&make(10), rules);
    let o40 = run(&make(40), rules);
    assert!(
        o40.peak_tokens <= o10.peak_tokens + 4,
        "pruning bounds the stack: {} vs {}",
        o40.peak_tokens,
        o10.peak_tokens
    );
}

/// Pending entries track unresolved content only and drain on resolution.
#[test]
fn pending_peak_tracks_unresolved_content() {
    // Early-resolving predicate: flag comes first → nothing pends.
    let early = {
        let mut xml = String::from("<r>");
        for i in 0..50 {
            xml.push_str(&format!("<f><flag>1</flag><data>d{i}</data></f>"));
        }
        xml.push_str("</r>");
        Document::parse(&xml).unwrap()
    };
    // Late-resolving predicate: flag comes last → each folder pends until
    // its own close, but folders resolve one after another.
    let late = {
        let mut xml = String::from("<r>");
        for i in 0..50 {
            xml.push_str(&format!("<f><data>d{i}</data><flag>1</flag></f>"));
        }
        xml.push_str("</r>");
        Document::parse(&xml).unwrap()
    };
    let rules: &[(Sign, &str)] = &[(Sign::Permit, "//f[flag=1]")];
    let e = run(&early, rules);
    let l = run(&late, rules);
    // Early flags pend only the folder shell and the flag element for one
    // event; late flags pend the folder's whole prefix.
    assert!(e.peak_pending_entries <= 3, "early flags barely pend: {e:?}");
    assert!(l.peak_pending_entries > e.peak_pending_entries);
    assert!(
        l.peak_pending_entries <= 8,
        "per-folder pending must drain at each folder close: {}",
        l.peak_pending_entries
    );
}

/// Predicate instances resolve at scope exit; the open count never grows
/// with the number of processed folders.
#[test]
fn open_instances_bounded_by_nesting() {
    let mut xml = String::from("<r>");
    for i in 0..200 {
        xml.push_str(&format!("<f><a>v{i}</a></f>"));
    }
    xml.push_str("</r>");
    let doc = Document::parse(&xml).unwrap();
    let stats = run(&doc, &[(Sign::Permit, "//f[missing=1]"), (Sign::Deny, "//f[a=never]")]);
    assert!(
        stats.peak_open_instances <= 4,
        "instances must close with their folders: {}",
        stats.peak_open_instances
    );
    assert!(stats.instances_created >= 400, "two instances per folder");
}
