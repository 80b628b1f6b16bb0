//! The paper's own worked examples, executed end to end.

use std::sync::Arc;
use xsac::core::evaluator::{EvalConfig, Evaluator};
use xsac::core::oracle::oracle_view_string;
use xsac::core::output::reassemble_to_string;
use xsac::core::{Policy, Sign};
use xsac::xml::Document;

/// Figure 3: rules R: ⊕ //b[c]/d and S: ⊖ //c over the abstract document
/// a( b(d c d), c( b(d c) ) ) — the snapshot document of the paper.
#[test]
fn figure3_execution() {
    let xml = "<a><b><d>d1</d><c>c1</c><d>d2</d></b><c><b><d>d3</d><c>c2</c></b></c></a>";
    let doc = Document::parse(xml).unwrap();
    let mut dict = doc.dict.clone();
    let policy =
        Policy::parse("u", &[(Sign::Permit, "//b[c]/d"), (Sign::Deny, "//c")], &mut dict).unwrap();
    let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
    for ev in doc.events() {
        eval.event(&ev);
    }
    let res = eval.finish();
    let got = reassemble_to_string(&dict, &res.log);
    // d1/d2 granted once c1 satisfies [c] (pending at step 2, resolved at
    // step 3 of the paper's snapshot); the inner b under the denied outer
    // c re-grants d3 (most-specific), the outer c remains a shell.
    assert_eq!(got, "<a><b><d>d1</d><d>d2</d></b><c><b><d>d3</d></b></c></a>");
    assert_eq!(got, oracle_view_string(&doc, &policy));
    // The paper's step 3 optimization: the satisfied [c] predicate stops
    // being evaluated — no second instance for the same b.
    assert!(res.stats.instances_created >= 2, "two b instances bind [c]");
}

/// Figure 7: the skip-index walkthrough with rules
///   R: ⊕ /a[d = 4]/c    S: ⊖ //c/e[m = 3]
///   T: ⊕ //c[//i = 3]//f U: ⊖ //h[k = 2]
#[test]
fn figure7_skipping_walkthrough() {
    let xml = "<a><b><m>0</m><o>0</o><p>0</p></b>\
               <c><e><m>3</m><t>0</t><p>0</p></e>\
                  <f><m>0</m><p>0</p></f>\
                  <g>0</g>\
                  <h><m>0</m><k>2</k><i>3</i></h></c>\
               <d>4</d></a>";
    let doc = Document::parse(xml).unwrap();
    let mut dict = doc.dict.clone();
    let policy = Policy::parse(
        "u",
        &[
            (Sign::Permit, "/a[d = 4]/c"),
            (Sign::Deny, "//c/e[m = 3]"),
            (Sign::Permit, "//c[//i = 3]//f"),
            (Sign::Deny, "//h[k = 2]"),
        ],
        &mut dict,
    )
    .unwrap();
    let expected = oracle_view_string(&doc, &policy);
    // The paper's delivered elements: c's subtree minus e (m=3 denies it)
    // minus h (k=2 denies it); f also granted by T.
    assert_eq!(expected, "<a><c><f><m>0</m><p>0</p></f><g>0</g></c></a>");
    let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
    for ev in doc.events() {
        eval.event(&ev);
    }
    let got = reassemble_to_string(&dict, &eval.finish().log);
    assert_eq!(got, expected);
}

/// Figure 7's first skip: "at the time element b is reached, all the
/// active rules are stopped thanks to TagArray_b and the complete subtree
/// can be skipped" — verified through the full encrypted session, where
/// the skip saves measurable bytes.
#[test]
fn figure7_skip_saves_bytes() {
    use xsac::crypto::chunk::ChunkLayout;
    use xsac::crypto::{IntegrityScheme, TripleDes};
    use xsac::soe::{
        run_session_shared, CompiledPolicy, CostModel, ServerDoc, SessionConfig, Strategy,
    };

    // Fatten b's subtree so the skip is visible in the byte counts.
    let mut b_content = String::new();
    for i in 0..60 {
        b_content.push_str(&format!("<m>filler {i}</m>"));
    }
    let xml = format!(
        "<a><b>{b_content}</b>\
         <c><e><m>3</m></e><f><m>0</m></f><g>0</g><h><k>2</k><i>3</i></h></c>\
         <d>4</d></a>"
    );
    let doc = Document::parse(&xml).unwrap();
    let key = TripleDes::new(*b"figure7-walkthrough-24!!");
    let server = ServerDoc::prepare(
        &doc,
        &key,
        IntegrityScheme::Ecb,
        ChunkLayout { chunk_size: 512, fragment_size: 64 },
    );
    let mut dict = server.dict.clone();
    let policy = Policy::parse(
        "u",
        &[
            (Sign::Permit, "/a[d = 4]/c"),
            (Sign::Deny, "//c/e[m = 3]"),
            (Sign::Permit, "//c[//i = 3]//f"),
            (Sign::Deny, "//h[k = 2]"),
        ],
        &mut dict,
    )
    .unwrap();
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let t = run_session_shared(&server, &key, &compiled, None, &SessionConfig::default(), None)
        .unwrap();
    let b = run_session_shared(
        &server,
        &key,
        &compiled,
        None,
        &SessionConfig { strategy: Strategy::BruteForce, cost: CostModel::smartcard() },
        None,
    )
    .unwrap();
    assert_eq!(reassemble_to_string(&dict, &t.log), reassemble_to_string(&dict, &b.log));
    assert!(
        t.cost.bytes_to_soe * 2 < b.cost.bytes_to_soe,
        "b's subtree must be skipped: {} vs {}",
        t.cost.bytes_to_soe,
        b.cost.bytes_to_soe
    );
    assert!(t.stats.skips_denied >= 1);
}

/// §5's pending-predicate scenario: a predicate conditioning a subtree is
/// encountered long after the subtree; out-of-order delivery reassembles
/// the original order.
#[test]
fn pending_predicate_reassembly_order() {
    // //folder[flag=1]: flag arrives last; three folders interleaved with
    // granted-by-other-rule content.
    let xml = "<r>\
        <folder><data>A</data><flag>1</flag></folder>\
        <keep>x</keep>\
        <folder><data>B</data><flag>0</flag></folder>\
        <folder><data>C</data><flag>1</flag></folder>\
      </r>";
    let doc = Document::parse(xml).unwrap();
    let mut dict = doc.dict.clone();
    let policy = Policy::parse(
        "u",
        &[(Sign::Permit, "//folder[flag=1]"), (Sign::Permit, "//keep")],
        &mut dict,
    )
    .unwrap();
    let expected = oracle_view_string(&doc, &policy);
    let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
    for ev in doc.events() {
        eval.event(&ev);
    }
    let got = reassemble_to_string(&dict, &eval.finish().log);
    assert_eq!(got, expected);
    // Document order restored: A before x before C; B absent.
    let a = got.find("<data>A</data>").expect("A");
    let x = got.find("<keep>x</keep>").expect("x");
    let c = got.find("<data>C</data>").expect("C");
    assert!(a < x && x < c);
    assert!(!got.contains("<data>B</data>"));
}

/// The Structural rule (§2): names of the path to a granted node are
/// delivered; with the dummy option, denied ancestors are renamed.
#[test]
fn structural_rule_with_dummy_names() {
    let xml = "<top><hidden><leaf>payload</leaf><other>no</other></hidden></top>";
    let doc = Document::parse(xml).unwrap();
    let mut dict = doc.dict.clone();
    let policy = Policy::parse("u", &[(Sign::Permit, "//leaf")], &mut dict).unwrap();
    let dummy = xsac::xml::writer::dummy_tag(&mut dict);
    let config = EvalConfig { dummy_denied_ancestors: true, ..Default::default() };
    let mut eval = Evaluator::new(&policy, None, config).with_dummy_tag(dummy);
    for ev in doc.events() {
        eval.event(&ev);
    }
    let got = reassemble_to_string(&dict, &eval.finish().log);
    assert_eq!(got, "<_><_><leaf>payload</leaf></_></_>");
}
