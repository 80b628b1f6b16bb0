//! Differential testing: the streaming evaluator must produce exactly the
//! authorized view computed by the DOM oracle, for random documents ×
//! random policies × random queries, with and without the §3.3
//! optimizations enabled.

use proptest::prelude::*;
use xsac_core::evaluator::{EvalConfig, Evaluator};
use xsac_core::oracle::{oracle_query_string, oracle_view_string, Oracle};
use xsac_core::output::reassemble_to_string;
use xsac_core::{Policy, Sign};
use xsac_xml::{Document, Node, NodeId, TagId};
use xsac_xpath::{parse_path, Automaton};

// ---------------------------------------------------------------------
// generators

/// A small tag alphabet keeps collision probability high (more rule hits).
const TAGS: &[&str] = &["a", "b", "c", "d", "e"];
const VALUES: &[&str] = &["1", "2", "3", "ann", "bob"];

fn arb_doc() -> impl Strategy<Value = String> {
    // Recursive XML generator: element with up to 4 children, depth ≤ 4.
    let leaf = prop_oneof![
        proptest::sample::select(VALUES).prop_map(|v| v.to_string()),
        proptest::sample::select(TAGS).prop_map(|t| format!("<{t}></{t}>")),
    ];
    let inner = leaf.prop_recursive(4, 24, 4, |elem| {
        (proptest::sample::select(TAGS), prop::collection::vec(elem, 0..4)).prop_map(
            |(t, children)| {
                let mut s = format!("<{t}>");
                for c in children {
                    s.push_str(&c);
                }
                s.push_str(&format!("</{t}>"));
                s
            },
        )
    });
    (proptest::sample::select(TAGS), prop::collection::vec(inner, 0..4)).prop_map(
        |(t, children)| {
            let mut s = format!("<{t}>");
            for c in children {
                s.push_str(&c);
            }
            s.push_str(&format!("</{t}>"));
            s
        },
    )
}

fn arb_step() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => proptest::sample::select(TAGS).prop_map(|t| t.to_string()),
        1 => Just("*".to_string()),
    ]
}

fn arb_pred() -> impl Strategy<Value = String> {
    let relpath = prop_oneof![
        arb_step(),
        (arb_step(), arb_step()).prop_map(|(a, b)| format!("{a}/{b}")),
        arb_step().prop_map(|s| format!("//{s}")),
    ];
    let cmp = prop_oneof![
        Just(String::new()),
        (proptest::sample::select(&["=", "!=", ">", "<"]), proptest::sample::select(VALUES))
            .prop_map(|(op, v)| format!(" {op} {v}")),
    ];
    (relpath, cmp).prop_map(|(p, c)| format!("[{p}{c}]"))
}

fn arb_path() -> impl Strategy<Value = String> {
    let seg = (proptest::sample::select(&["/", "//"]), arb_step(), prop::option::of(arb_pred()))
        .prop_map(|(axis, step, pred)| format!("{axis}{step}{}", pred.unwrap_or_default()));
    prop::collection::vec(seg, 1..4).prop_map(|segs| segs.concat())
}

fn arb_policy() -> impl Strategy<Value = Vec<(bool, String)>> {
    prop::collection::vec((any::<bool>(), arb_path()), 0..5)
}

// ---------------------------------------------------------------------
// drivers

fn run_streaming(
    doc: &Document,
    rules: &[(bool, String)],
    query: Option<&str>,
    optimized: bool,
) -> String {
    let mut dict = doc.dict.clone();
    let rules: Vec<(Sign, &str)> = rules
        .iter()
        .map(|(permit, p)| (if *permit { Sign::Permit } else { Sign::Deny }, p.as_str()))
        .collect();
    let policy = Policy::parse("ann", &rules, &mut dict).unwrap();
    let q = query.map(|q| Automaton::parse(q, &mut dict).unwrap());
    let config = EvalConfig { enable_skip_directives: optimized };
    let mut eval = Evaluator::new(&policy, q.as_ref(), config);
    for ev in doc.events() {
        eval.event(&ev);
    }
    let res = eval.finish();
    reassemble_to_string(&dict, &res.log)
}

/// A driver that *honours* skip directives, computing DescTag sets from the
/// materialized document (standing in for the skip index) and serving
/// readbacks from the original events.
fn run_with_skips(doc: &Document, rules: &[(bool, String)], query: Option<&str>) -> String {
    use xsac_core::evaluator::{Directive, SkipInfo};
    use xsac_core::output::SubtreeRef;

    let mut dict = doc.dict.clone();
    let rules: Vec<(Sign, &str)> = rules
        .iter()
        .map(|(permit, p)| (if *permit { Sign::Permit } else { Sign::Deny }, p.as_str()))
        .collect();
    let policy = Policy::parse("ann", &rules, &mut dict).unwrap();
    let q = query.map(|q| Automaton::parse(q, &mut dict).unwrap());
    let mut eval = Evaluator::new(&policy, q.as_ref(), EvalConfig::default());

    // Pre-compute, for every node, its DescTag list (sorted, as the skip
    // index stores it) and its events.
    let mut desc: std::collections::HashMap<NodeId, Vec<TagId>> = Default::default();
    fn fill(
        doc: &Document,
        id: NodeId,
        desc: &mut std::collections::HashMap<NodeId, Vec<TagId>>,
    ) -> Vec<TagId> {
        let mut list = Vec::new();
        for &c in doc.children(id) {
            if let Node::Element { tag, .. } = doc.node(c) {
                list.push(*tag);
                list.extend(fill(doc, c, desc));
            }
        }
        list.sort();
        list.dedup();
        desc.insert(id, list.clone());
        list
    }
    fill(doc, doc.root(), &mut desc);

    // Walk the tree, honouring directives.
    enum Todo {
        Node(NodeId),
        Close,
    }
    let mut handles: Vec<NodeId> = Vec::new();
    let mut stack = vec![Todo::Node(doc.root())];
    while let Some(item) = stack.pop() {
        let serve = |eval: &mut Evaluator, handles: &Vec<NodeId>| {
            let reqs = eval.take_readbacks();
            for r in reqs {
                let node = handles[r.subtree.0 as usize];
                let mut evs = Vec::new();
                doc.emit(node, &mut |e| evs.push(e.clone().into_owned()));
                eval.readback_events(r.entry, &evs);
            }
        };
        match item {
            Todo::Close => {
                let _ = eval.close();
                serve(&mut eval, &handles);
            }
            Todo::Node(id) => match doc.node(id) {
                Node::Text(t) => {
                    eval.text(t);
                    serve(&mut eval, &handles);
                }
                Node::Element { tag, children } => {
                    let handle = SubtreeRef(handles.len() as u64);
                    handles.push(id);
                    let info = SkipInfo { desc_tags: desc.get(&id).map(Vec::as_slice) };
                    let d = eval.open(*tag, Some(&info));
                    serve(&mut eval, &handles);
                    match d {
                        Directive::SkipDeny => {
                            eval.skip_close(None);
                            serve(&mut eval, &handles);
                        }
                        Directive::SkipPending => {
                            eval.skip_close(Some(handle));
                            serve(&mut eval, &handles);
                        }
                        Directive::Deliver => {
                            let mut evs = Vec::new();
                            doc.emit(id, &mut |e| evs.push(e.clone().into_owned()));
                            for ev in &evs[1..] {
                                eval.raw_event(ev);
                            }
                            serve(&mut eval, &handles);
                        }
                        Directive::Continue => {
                            stack.push(Todo::Close);
                            for &c in children.iter().rev() {
                                stack.push(Todo::Node(c));
                            }
                        }
                    }
                }
            },
        }
    }
    let res = eval.finish();
    reassemble_to_string(&dict, &res.log)
}

fn run_oracle(doc: &Document, rules: &[(bool, String)], query: Option<&str>) -> String {
    let mut dict = doc.dict.clone();
    let rules: Vec<(Sign, &str)> = rules
        .iter()
        .map(|(permit, p)| (if *permit { Sign::Permit } else { Sign::Deny }, p.as_str()))
        .collect();
    let policy = Policy::parse("ann", &rules, &mut dict).unwrap();
    match query {
        None => oracle_view_string(doc, &policy),
        Some(q) => oracle_query_string(doc, &policy, &parse_path(q).unwrap()),
    }
}

// ---------------------------------------------------------------------
// properties

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..Default::default() })]

    #[test]
    fn streaming_equals_oracle(xml in arb_doc(), rules in arb_policy()) {
        let doc = Document::parse(&xml).unwrap();
        let expected = run_oracle(&doc, &rules, None);
        let plain = run_streaming(&doc, &rules, None, false);
        prop_assert_eq!(&plain, &expected, "plain evaluator diverged on {} rules={:?}", xml, rules);
        let optimized = run_streaming(&doc, &rules, None, true);
        prop_assert_eq!(&optimized, &expected, "optimized evaluator diverged on {} rules={:?}", xml, rules);
    }

    #[test]
    fn skipping_driver_equals_oracle(xml in arb_doc(), rules in arb_policy()) {
        let doc = Document::parse(&xml).unwrap();
        let expected = run_oracle(&doc, &rules, None);
        let skipped = run_with_skips(&doc, &rules, None);
        prop_assert_eq!(&skipped, &expected, "skipping driver diverged on {} rules={:?}", xml, rules);
    }

    #[test]
    fn query_streaming_equals_oracle(xml in arb_doc(), rules in arb_policy(), query in arb_path()) {
        let doc = Document::parse(&xml).unwrap();
        let expected = run_oracle(&doc, &rules, Some(&query));
        let plain = run_streaming(&doc, &rules, Some(&query), false);
        prop_assert_eq!(&plain, &expected, "query evaluator diverged on {} rules={:?} q={}", xml, rules, query);
        let skipped = run_with_skips(&doc, &rules, Some(&query));
        prop_assert_eq!(&skipped, &expected, "query skipping driver diverged on {} rules={:?} q={}", xml, rules, query);
    }
}

// ---------------------------------------------------------------------
// fixed regression corpus (cheap to run, easy to debug)

#[test]
fn paper_motivating_policies_on_tiny_hospital() {
    let xml = "<Hospital>\
        <Folder>\
          <Admin><SSN>1</SSN><Fname>Ann</Fname><Age>71</Age></Admin>\
          <Protocol><Id>9</Id><Type>G3</Type></Protocol>\
          <MedActs>\
            <Act><Date>d</Date><RPhys>doc1</RPhys><Details><Symptoms>s</Symptoms></Details></Act>\
            <Act><Date>d</Date><RPhys>doc2</RPhys><Details><Symptoms>t</Symptoms></Details></Act>\
          </MedActs>\
          <Analysis><LabResults><G3><Cholesterol>260</Cholesterol><RPhys>doc1</RPhys></G3></LabResults></Analysis>\
        </Folder>\
        <Folder>\
          <Admin><SSN>2</SSN><Fname>Bob</Fname><Age>40</Age></Admin>\
          <MedActs><Act><Date>d</Date><RPhys>doc2</RPhys><Details><Symptoms>u</Symptoms></Details></Act></MedActs>\
          <Analysis><LabResults><G3><Cholesterol>200</Cholesterol><RPhys>doc2</RPhys></G3></LabResults></Analysis>\
        </Folder>\
      </Hospital>";
    let doc = Document::parse(xml).unwrap();

    let secretary: Vec<(bool, String)> = vec![(true, "//Admin".into())];
    let doctor: Vec<(bool, String)> = vec![
        (true, "//Folder/Admin".into()),
        (true, "//MedActs[//RPhys = USER]".into()),
        (false, "//Act[RPhys != USER]/Details".into()),
        (true, "//Folder[MedActs//RPhys = USER]/Analysis".into()),
    ];
    let researcher: Vec<(bool, String)> = vec![
        (true, "//Folder[Protocol]//Age".into()),
        (true, "//Folder[Protocol/Type=G3]//LabResults//G3".into()),
        (false, "//G3[Cholesterol > 250]".into()),
    ];

    for (name, rules) in [("secretary", secretary), ("doctor", doctor), ("researcher", researcher)]
    {
        // Doctor rules resolve USER=doc1.
        let expected = {
            let mut dict = doc.dict.clone();
            let rs: Vec<(Sign, &str)> = rules
                .iter()
                .map(|(p, s)| (if *p { Sign::Permit } else { Sign::Deny }, s.as_str()))
                .collect();
            let policy = Policy::parse("doc1", &rs, &mut dict).unwrap();
            oracle_view_string(&doc, &policy)
        };
        let streaming = {
            let mut dict = doc.dict.clone();
            let rs: Vec<(Sign, &str)> = rules
                .iter()
                .map(|(p, s)| (if *p { Sign::Permit } else { Sign::Deny }, s.as_str()))
                .collect();
            let policy = Policy::parse("doc1", &rs, &mut dict).unwrap();
            let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
            for ev in doc.events() {
                eval.event(&ev);
            }
            reassemble_to_string(&dict, &eval.finish().log)
        };
        assert_eq!(streaming, expected, "profile {name}");
        assert!(!expected.is_empty(), "profile {name} should see something");
    }
}

#[test]
fn researcher_semantics_spot_check() {
    // The researcher sees Age of protocol folders and G3 results with
    // Cholesterol ≤ 250 (the ⊖ rule denies > 250).
    let xml = "<H><Folder><Admin><Age>71</Age></Admin><Protocol><Type>G3</Type></Protocol>\
               <Analysis><LabResults><G3><Cholesterol>260</Cholesterol></G3></LabResults></Analysis></Folder></H>";
    let doc = Document::parse(xml).unwrap();
    let mut dict = doc.dict.clone();
    let policy = Policy::parse(
        "res",
        &[
            (Sign::Permit, "//Folder[Protocol]//Age"),
            (Sign::Permit, "//Folder[Protocol/Type=G3]//LabResults//G3"),
            (Sign::Deny, "//G3[Cholesterol > 250]"),
        ],
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
    // Cholesterol > 250 ⇒ the G3 subtree is denied; Age remains.
    assert!(got.contains("<Age>71</Age>"), "{got}");
    assert!(!got.contains("260"), "{got}");
}

#[test]
fn oracle_streaming_agree_on_handpicked_corpus() {
    let cases: &[(&str, &[(bool, &str)])] = &[
        ("<a><b><c>1</c></b><b><c>2</c></b></a>", &[(true, "//b[c=1]")]),
        ("<a><b>x</b></a>", &[(true, "//a"), (false, "//b"), (true, "//b")]),
        ("<a><a><a>deep</a></a></a>", &[(true, "//a/a")]),
        ("<a><b><a><b>z</b></a></b></a>", &[(true, "//a//b[a]")]),
        ("<a><b>1</b><b>2</b><b>3</b></a>", &[(true, "/a/b[. = 2]")]),
        ("<a><b><c><d>x</d></c></b></a>", &[(true, "//d"), (false, "/a/b")]),
        ("<a><x>1</x><b><y>2</y></b></a>", &[(true, "/a[x=1]/b")]),
        ("<a><b><y>2</y></b><x>1</x></a>", &[(true, "/a[x=1]/b")]),
        ("<a><b><y>2</y></b><x>9</x></a>", &[(true, "/a[x=1]/b")]),
        ("<a><b><c>x</c></b></a>", &[(true, "//*")]),
        ("<a><b></b></a>", &[(true, "//b[c]")]),
    ];
    for (xml, rules) in cases {
        let doc = Document::parse(xml).unwrap();
        let rules: Vec<(bool, String)> = rules.iter().map(|(p, s)| (*p, s.to_string())).collect();
        let expected = run_oracle(&doc, &rules, None);
        for optimized in [false, true] {
            let got = run_streaming(&doc, &rules, None, optimized);
            assert_eq!(got, expected, "xml={xml} rules={rules:?} optimized={optimized}");
        }
        let skipped = run_with_skips(&doc, &rules, None);
        assert_eq!(skipped, expected, "skipping driver xml={xml} rules={rules:?}");
    }
}

#[test]
fn oracle_matches_decisions_consistency() {
    // decisions() and view() agree: view contains exactly granted nodes
    // plus shells on paths to granted nodes.
    let xml = "<a><b><c>x</c></b><d>y</d></a>";
    let doc = Document::parse(xml).unwrap();
    let mut dict = doc.dict.clone();
    let policy = Policy::parse("u", &[(Sign::Permit, "//c")], &mut dict).unwrap();
    let o = Oracle::new(&doc);
    let decisions = o.decisions(&policy);
    let view = o.view(&policy);
    for (node, granted) in &view {
        if *granted {
            assert_eq!(decisions.get(node), Some(&true));
        }
    }
    for (node, granted) in &decisions {
        if *granted {
            assert_eq!(view.get(node), Some(&true));
        }
    }
}
