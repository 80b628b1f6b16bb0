//! Sufficient containment test for XP{[],*,//} tree patterns.
//!
//! §3.3 of the paper discusses exploiting query containment to eliminate
//! redundant rules from a policy, noting the exact problem is co-NP
//! complete for XP{[],*,//} \[MiS02\]. As the paper does, we settle for the
//! classic *sufficient* condition: `P ⊇ Q` whenever there exists a
//! homomorphism from P's tree pattern into Q's tree pattern (preserving
//! root, labels — a wildcard in P maps anywhere —, child edges to child
//! edges, descendant edges to descendant paths, and the output node of P to
//! the output node of Q). Comparison leaves map only to comparisons that
//! *imply* them.

use crate::ast::{Axis, CmpOp, NameTest, Path, Value};

/// Tree-pattern node used for the homomorphism test.
#[derive(Debug, Clone)]
struct PNode {
    /// `None` encodes the virtual document root.
    test: Option<NameTest>,
    /// Axis of the incoming edge (meaningless for the virtual root).
    axis: Axis,
    children: Vec<usize>,
    /// Comparisons attached to this node (self predicates + terminal
    /// predicate-path comparisons).
    comparisons: Vec<(CmpOp, Value)>,
    /// True for the last spine node (the output node).
    output: bool,
}

/// A tree pattern built from a [`Path`].
#[derive(Debug, Clone)]
pub struct Pattern {
    nodes: Vec<PNode>,
    root: usize,
}

impl Pattern {
    /// Converts a parsed path into its tree pattern.
    pub fn from_path(path: &Path) -> Pattern {
        let mut nodes = vec![PNode {
            test: None,
            axis: Axis::Child,
            children: Vec::new(),
            comparisons: Vec::new(),
            output: false,
        }];
        let root = 0usize;
        let mut cur = root;
        for step in &path.steps {
            let id = nodes.len();
            nodes.push(PNode {
                test: Some(step.test.clone()),
                axis: step.axis,
                children: Vec::new(),
                comparisons: Vec::new(),
                output: false,
            });
            nodes[cur].children.push(id);
            cur = id;
            for pred in &step.predicates {
                if pred.steps.is_empty() {
                    // Self predicate: comparison constrains the spine node.
                    if let Some(c) = &pred.comparison {
                        nodes[cur].comparisons.push(c.clone());
                    }
                    continue;
                }
                let mut pcur = cur;
                for pstep in &pred.steps {
                    let pid = nodes.len();
                    nodes.push(PNode {
                        test: Some(pstep.test.clone()),
                        axis: pstep.axis,
                        children: Vec::new(),
                        comparisons: Vec::new(),
                        output: false,
                    });
                    nodes[pcur].children.push(pid);
                    pcur = pid;
                }
                if let Some(c) = &pred.comparison {
                    nodes[pcur].comparisons.push(c.clone());
                }
            }
        }
        nodes[cur].output = true;
        Pattern { nodes, root }
    }
}

/// True when `sup` is guaranteed to contain `sub` (sufficient condition:
/// a pattern homomorphism exists). A `false` answer is inconclusive.
pub fn contains(sup: &Path, sub: &Path) -> bool {
    Pattern::from_path(sup).contains(&Pattern::from_path(sub))
}

impl Pattern {
    /// True when a homomorphism maps `self` into `sub` (`self ⊇ sub`).
    fn contains(&self, sub: &Pattern) -> bool {
        let mut memo = vec![None; self.nodes.len() * sub.nodes.len()];
        can_map(self, sub, self.root, sub.root, &mut memo)
    }
}

/// Memoized check: can `p_id` (and its whole subtree) map onto `q_id`?
fn can_map(
    p: &Pattern,
    q: &Pattern,
    p_id: usize,
    q_id: usize,
    memo: &mut Vec<Option<bool>>,
) -> bool {
    let key = p_id * q.nodes.len() + q_id;
    if let Some(v) = memo[key] {
        return v;
    }
    // Break (harmless, acyclic) recursion on the memo key.
    memo[key] = Some(false);
    let pn = &p.nodes[p_id];
    let qn = &q.nodes[q_id];
    let ok = node_compatible(pn, qn)
        && pn.children.iter().all(|&pc| {
            let axis = p.nodes[pc].axis;
            match axis {
                // A child edge must map onto a child *edge* of Q — a
                // descendant-axis child of q sits at unknown depth.
                Axis::Child => qn
                    .children
                    .iter()
                    .filter(|&&qc| q.nodes[qc].axis == Axis::Child)
                    .any(|&qc| can_map(p, q, pc, qc, memo)),
                // A descendant edge maps onto any downward path (≥ 1 edge).
                Axis::Descendant => {
                    descendants(q, q_id).into_iter().any(|qd| can_map(p, q, pc, qd, memo))
                }
            }
        });
    memo[key] = Some(ok);
    ok
}

fn node_compatible(pn: &PNode, qn: &PNode) -> bool {
    // Virtual roots map only to each other.
    match (&pn.test, &qn.test) {
        (None, None) => {}
        (None, Some(_)) | (Some(_), None) => return false,
        (Some(NameTest::Wildcard), Some(_)) => {}
        (Some(NameTest::Name(a)), Some(NameTest::Name(b))) if a == b => {}
        _ => return false,
    }
    // Output alignment: P's output node must land on Q's output node.
    if pn.output && !qn.output {
        return false;
    }
    // Every comparison required by P must be implied by one of Q's.
    pn.comparisons.iter().all(|pc| qn.comparisons.iter().any(|qc| implies(qc, pc)))
}

fn descendants(q: &Pattern, id: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack: Vec<usize> = q.nodes[id].children.clone();
    while let Some(n) = stack.pop() {
        out.push(n);
        stack.extend(q.nodes[n].children.iter().copied());
    }
    out
}

/// Does the comparison `a` imply the comparison `b` (on the same node)?
fn implies(a: &(CmpOp, Value), b: &(CmpOp, Value)) -> bool {
    if a == b {
        return true;
    }
    // Numeric implication for literal values.
    let (Value::Literal(av), Value::Literal(bv)) = (&a.1, &b.1) else {
        return false;
    };
    let (Ok(x), Ok(y)) = (av.parse::<f64>(), bv.parse::<f64>()) else {
        return false;
    };
    use CmpOp::*;
    match (a.0, b.0) {
        // v = x implies v op y?
        (Eq, Eq) => x == y,
        (Eq, Ne) => x != y,
        (Eq, Lt) => x < y,
        (Eq, Le) => x <= y,
        (Eq, Gt) => x > y,
        (Eq, Ge) => x >= y,
        // v > x implies v > y when x >= y, etc.
        (Gt, Gt) => x >= y,
        (Gt, Ge) => x >= y,
        (Ge, Ge) => x >= y,
        (Ge, Gt) => x > y,
        (Lt, Lt) => x <= y,
        (Lt, Le) => x <= y,
        (Le, Le) => x <= y,
        (Le, Lt) => x < y,
        (Gt, Ne) => x >= y,
        (Lt, Ne) => x <= y,
        _ => false,
    }
}

/// Containment of rule *scopes* (object node-sets extended to their whole
/// subtrees by the cascading propagation of §2): `scope(sup) ⊇ scope(sub)`.
///
/// `scope(P) = nodes(P) ∪ nodes(P//*)`, so the test decomposes into two
/// sufficient disjunctions.
pub fn scope_contains(sup: &Path, sub: &Path) -> bool {
    ScopePattern::new(sup).contains(&ScopePattern::new(sub))
}

/// A rule's scope as the two tree patterns [`scope_contains`] compares —
/// the object pattern `P` and its `//*`-extended form — built once per
/// minimization, plus a signature of the element names they mention.
struct ScopePattern {
    object: Pattern,
    extended: Pattern,
    /// One bit per element name (hashed into 128 bits). A homomorphism
    /// maps each named node onto a node with the same name, so
    /// `sup ⊇ sub` requires `names(sup) ⊆ names(sub)` and hence
    /// `sig(sup) ⊆ sig(sub)`: a pair failing the bit test is rejected
    /// exactly; a hash collision only sends a pair on to the full test.
    names: u128,
}

impl ScopePattern {
    fn new(path: &Path) -> ScopePattern {
        let object = Pattern::from_path(path);
        let extended = Pattern::from_path(&extend_descendants(path));
        let names = object
            .nodes
            .iter()
            .filter_map(|n| match &n.test {
                Some(NameTest::Name(name)) => Some(1u128 << (fnv1a(name) % 128)),
                _ => None,
            })
            .fold(0, |acc, bit| acc | bit);
        ScopePattern { object, extended, names }
    }

    /// `scope(self) ⊇ scope(sub)` — [`scope_contains`] over prebuilt
    /// patterns.
    fn contains(&self, sub: &ScopePattern) -> bool {
        (self.object.contains(&sub.object) || self.extended.contains(&sub.object))
            && (self.object.contains(&sub.extended) || self.extended.contains(&sub.extended))
    }
}

/// FNV-1a: a fixed, dependency-free hash for the name signatures.
fn fnv1a(s: &str) -> u32 {
    s.bytes().fold(0x811c_9dc5, |h, b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// Appends a `//*` step (the propagated scope below the object nodes).
fn extend_descendants(p: &Path) -> Path {
    let mut out = p.clone();
    out.steps.push(crate::ast::Step {
        axis: Axis::Descendant,
        test: NameTest::Wildcard,
        predicates: Vec::new(),
    });
    out
}

/// Outcome of policy minimization: the redundant rules and the containment
/// structure found along the way (policy-compiler observability).
///
/// A rule `S` is flagged redundant when another *same-signed* rule `R`
/// contains it and no opposite-signed rule could carve an exception inside
/// `S` but outside `R` — following §3.3, we use the *strong* elimination
/// condition. In keeping with the paper ("this strong elimination
/// condition is sufficient but not necessary"), we only eliminate `S` when
/// there are no opposite-signed rules at all, or every opposite-signed
/// rule `T` satisfies `T ⊇ R` (so the exception applies equally with or
/// without S).
///
/// One case needs no guard at all: *mutually* contained same-signed rules
/// have identical match sets on every document, so duplicates beyond the
/// first are idempotent under the conflict-resolution policies and are
/// always dropped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RedundancyReport {
    /// Indexes of paths proven redundant (droppable without changing any
    /// authorized view).
    pub redundant: Vec<usize>,
    /// Number of ordered same-signed pairs `(R, S)`, `R ≠ S`, with
    /// `R ⊇ S` proven — the raw containment structure the elimination
    /// worked from (mutual containments count twice).
    pub containment_pairs: usize,
}

/// Minimizes signed rules by comparing their *scopes* (propagation
/// included) — the entry point used by `CompiledPolicy` and
/// `Policy::minimize`.
///
/// Each rule's patterns are built once, and a pair runs the homomorphism
/// test only when its name signatures allow a containment, so rules over
/// disjoint vocabularies cost one bit test per pair. The report is the one
/// [`scope_contains`] over every ordered pair would give.
pub fn redundant_rules_report(paths: &[(bool, Path)]) -> RedundancyReport {
    let scopes: Vec<ScopePattern> = paths.iter().map(|(_, p)| ScopePattern::new(p)).collect();
    redundant_by(paths, |r, s| {
        let (sup, sub) = (&scopes[r], &scopes[s]);
        sup.names & !sub.names == 0 && sup.contains(sub)
    })
}

/// The elimination of [`RedundancyReport`] over the containment relation
/// `le(r, s)` ⇔ `paths[r] ⊇ paths[s]` (queried once per ordered pair).
fn redundant_by(
    paths: &[(bool, Path)],
    mut le: impl FnMut(usize, usize) -> bool,
) -> RedundancyReport {
    let n = paths.len();
    // Containment matrix: m[r][s] ⇔ le(r, s) — computed once so the
    // elimination scan below costs no further homomorphism tests.
    let mut m = vec![false; n * n];
    let mut containment_pairs = 0usize;
    for (r, (sign_r, _)) in paths.iter().enumerate() {
        for (s, (sign_s, _)) in paths.iter().enumerate() {
            if r == s {
                continue;
            }
            let c = le(r, s);
            m[r * n + s] = c;
            if c && sign_r == sign_s {
                containment_pairs += 1;
            }
        }
    }
    let mut out: Vec<usize> = Vec::new();
    for (i, (sign_s, _)) in paths.iter().enumerate() {
        for (j, (sign_r, _)) in paths.iter().enumerate() {
            if i == j || sign_s != sign_r {
                continue;
            }
            if out.contains(&j) {
                continue; // do not justify elimination by an eliminated rule
            }
            if !m[j * n + i] {
                continue; // need R ⊇ S
            }
            if m[i * n + j] {
                // Mutual same-signed containment: identical match sets on
                // every document, so the duplicates are idempotent under
                // Denial-Takes-Precedence / Most-Specific-Object — drop all
                // but the lowest-indexed representative unconditionally
                // (no opposite-signed rule can distinguish two rules with
                // the same sign and the same scope).
                if j > i {
                    continue; // keep the earliest copy
                }
                out.push(i);
                break;
            }
            // Strict containment: §3.3's strong elimination condition —
            // safe only when every opposite-signed rule T also contains
            // the container R (the exception applies equally with or
            // without S).
            let safe = paths
                .iter()
                .enumerate()
                .filter(|(k, (sign_t, _))| *k != i && *k != j && sign_t != sign_s)
                .all(|(k, _)| m[k * n + j]);
            if safe {
                out.push(i);
                break;
            }
        }
    }
    RedundancyReport { redundant: out, containment_pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path;

    /// Elimination over plain node-set containment.
    fn redundant_paths(paths: &[(bool, Path)]) -> Vec<usize> {
        redundant_by(paths, |r, s| contains(&paths[r].1, &paths[s].1)).redundant
    }

    /// The exhaustive minimizer: every ordered pair runs `scope_contains`
    /// from scratch — the oracle `redundant_rules_report` must reproduce.
    fn exhaustive_report(paths: &[(bool, Path)]) -> RedundancyReport {
        redundant_by(paths, |r, s| scope_contains(&paths[r].1, &paths[s].1))
    }

    fn c(sup: &str, sub: &str) -> bool {
        contains(&parse_path(sup).unwrap(), &parse_path(sub).unwrap())
    }

    #[test]
    fn reflexive() {
        for p in ["/a", "//a/b", "//a[b=1]/c", "//a/*//b"] {
            assert!(c(p, p), "{p} should contain itself");
        }
    }

    #[test]
    fn descendant_contains_child() {
        assert!(c("//b", "/a/b"));
        assert!(c("//a//b", "/a/b"));
        assert!(c("//a//b", "//a/x/b"));
        assert!(!c("/a/b", "//b"));
    }

    #[test]
    fn wildcard_contains_names() {
        assert!(c("/a/*", "/a/b"));
        assert!(!c("/a/b", "/a/*"));
        assert!(c("//*", "//b"));
    }

    #[test]
    fn predicates_weaken_containment() {
        assert!(c("//a", "//a[b]"), "fewer predicates contain more");
        assert!(!c("//a[b]", "//a"), "predicate cannot contain predicate-free");
        assert!(c("//a[b]", "//a[b][c]"));
    }

    #[test]
    fn numeric_comparison_implication() {
        assert!(c("//g[x > 250]", "//g[x > 300]"));
        assert!(!c("//g[x > 300]", "//g[x > 250]"));
        assert!(c("//g[x > 250]", "//g[x = 300]"));
        assert!(c("//g[x >= 250]", "//g[x > 250]"));
        assert!(!c("//g[x > 250]", "//g[x >= 250]"));
        assert!(c("//g[x != 5]", "//g[x = 6]"));
        assert!(c("//g[x < 10]", "//g[x <= 9]"));
    }

    #[test]
    fn string_comparisons_exact_only() {
        assert!(c("//p[t = G3]", "//p[t = G3]"));
        assert!(!c("//p[t = G3]", "//p[t = G4]"));
    }

    #[test]
    fn output_node_must_align() {
        // //a/b selects b nodes; //a selects a nodes — incomparable.
        assert!(!c("//a", "//a/b"));
        assert!(!c("//a/b", "//a"));
    }

    #[test]
    fn paper_example_structural() {
        // §3.3: R=/a, S=/a/b[P1] — R contains S? R selects `a` nodes and S
        // selects `b` nodes, so as node sets no; but with rule propagation
        // the *scope* of R covers S. Scope containment is node containment
        // of the rule objects followed by propagation — the optimizer tests
        // the object paths extended by //*.
        assert!(c("/a//*", "/a/b"));
        assert!(c("/a//*", "/a/b[x=1]/c"));
    }

    #[test]
    fn redundancy_detection() {
        let paths =
            vec![(true, parse_path("//a//*").unwrap()), (true, parse_path("//a/b").unwrap())];
        assert_eq!(redundant_paths(&paths), vec![1]);
    }

    #[test]
    fn scope_containment() {
        let a = parse_path("//a").unwrap();
        let ab = parse_path("//a/b").unwrap();
        assert!(scope_contains(&a, &ab), "the scope of //a covers //a/b and below");
        assert!(!scope_contains(&ab, &a));
        assert!(scope_contains(&a, &a), "scope containment is reflexive");
        let c = parse_path("//c").unwrap();
        assert!(!scope_contains(&a, &c));
    }

    #[test]
    fn redundant_rules_uses_scopes() {
        let paths = vec![(true, parse_path("//a").unwrap()), (true, parse_path("//a/b").unwrap())];
        assert_eq!(redundant_rules_report(&paths).redundant, vec![1]);
    }

    #[test]
    fn redundancy_blocked_by_opposite_rule() {
        // T: ⊖ //a/b/c sits inside S: ⊕ //a/b which sits inside R: ⊕ //a//*.
        // Eliminating S would be wrong if T carved an exception between R
        // and S under Most-Specific-Object (S re-grants below T's level...
        // here we conservatively keep S).
        let paths = vec![
            (true, parse_path("//a//*").unwrap()),
            (true, parse_path("//a/b//*").unwrap()),
            (false, parse_path("//a/b/c").unwrap()),
        ];
        assert!(redundant_paths(&paths).is_empty());
    }

    #[test]
    fn mutual_containment_removes_only_one() {
        let paths =
            vec![(true, parse_path("//a/b").unwrap()), (true, parse_path("//a/b").unwrap())];
        let r = redundant_paths(&paths);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn duplicates_dropped_even_under_opposite_rules() {
        // The strong condition would keep the duplicate (⊖ //a/b/c does
        // not contain //a/b), but identical match sets make it safe.
        let paths = vec![
            (true, parse_path("//a/b").unwrap()),
            (true, parse_path("//a/b").unwrap()),
            (true, parse_path("//a/b").unwrap()),
            (false, parse_path("//a/b/c").unwrap()),
        ];
        assert_eq!(redundant_paths(&paths), vec![1, 2], "keep only the first copy");
    }

    #[test]
    fn report_counts_containment_pairs() {
        let paths = vec![(true, parse_path("//a").unwrap()), (true, parse_path("//a/b").unwrap())];
        let report = redundant_rules_report(&paths);
        assert_eq!(report.redundant, vec![1], "//a/b's scope sits inside //a's");
        assert_eq!(report.containment_pairs, 1);
        // An opposite-signed rule blocks the elimination (strong condition)
        // but the containment pair is still reported.
        let guarded = vec![
            (true, parse_path("//a").unwrap()),
            (true, parse_path("//a/b").unwrap()),
            (false, parse_path("//c").unwrap()),
        ];
        let report = redundant_rules_report(&guarded);
        assert!(report.redundant.is_empty(), "conservative under the deny");
        assert_eq!(report.containment_pairs, 1);
        // Mutual containment counts both directions.
        let dupes = vec![(true, parse_path("//x").unwrap()), (true, parse_path("//x").unwrap())];
        assert_eq!(redundant_rules_report(&dupes).containment_pairs, 2);
    }

    /// Parses `(permit, path)` rule texts.
    fn signed(rules: &[(bool, &str)]) -> Vec<(bool, Path)> {
        rules.iter().map(|&(sign, p)| (sign, parse_path(p).unwrap())).collect()
    }

    /// The prefiltered minimizer against the exhaustive oracle.
    fn assert_same_report(paths: &[(bool, Path)]) -> RedundancyReport {
        let fast = redundant_rules_report(paths);
        let texts: Vec<String> = paths.iter().map(|(s, p)| format!("{s}:{p}")).collect();
        assert_eq!(fast, exhaustive_report(paths), "rules {texts:?}");
        fast
    }

    /// Rule sets drawn by the workload generator for Figure 12. Its rules
    /// come out of the `xsac-core` build of this crate, so they cross over
    /// as text.
    #[test]
    fn prefilter_matches_exhaustive_on_generated_policies() {
        use xsac_datagen::{rulegen, Dataset};
        let mut pairs = 0;
        let mut dropped = 0;
        for dataset in Dataset::ALL {
            let doc = dataset.generate(0.02, 7);
            for (k, rules) in [6, 12, 24].into_iter().enumerate() {
                let config = rulegen::RuleGenConfig {
                    rules,
                    // Short paths over a small vocabulary collide often
                    // enough to exercise containments.
                    max_steps: 1 + k,
                    ..Default::default()
                };
                for seed in 0..12 {
                    let policy = rulegen::random_policy(&doc, &config, seed);
                    let paths: Vec<(bool, Path)> = policy
                        .rules
                        .iter()
                        .map(|r| (r.sign.is_permit(), parse_path(&r.path.to_string()).unwrap()))
                        .collect();
                    let report = assert_same_report(&paths);
                    pairs += report.containment_pairs;
                    dropped += report.redundant.len();
                }
            }
        }
        assert!(pairs > 0 && dropped > 0, "generated policies must exercise containment");
    }

    #[test]
    fn prefilter_matches_exhaustive_on_stacked_researcher() {
        let mut rules = Vec::new();
        for _ in 0..4 {
            rules.push((true, "//Folder[Protocol]//Age".to_owned()));
            for g in 1..=10 {
                rules.push((true, format!("//Folder[Protocol/Type=G{g}]//LabResults//G{g}")));
                rules.push((false, format!("//G{g}[Cholesterol > 250]")));
            }
        }
        let texts: Vec<(bool, &str)> = rules.iter().map(|(s, p)| (*s, p.as_str())).collect();
        let report = assert_same_report(&signed(&texts));
        assert_eq!(texts.len() - report.redundant.len(), 21, "84 rules fold to 21");
        // Each of the 21 rules has 3 copies in other positions: 84 · 3.
        assert_eq!(report.containment_pairs, 252);
    }

    #[test]
    fn prefilter_matches_exhaustive_on_wildcards_and_numbers() {
        for rules in [
            // Wildcard-only patterns carry no names: the signature passes
            // them on, both as container and as contained.
            &[(true, "//*"), (true, "/a/*"), (true, "/a/b"), (false, "/*/*/c")][..],
            &[(true, "/a/*"), (true, "//*"), (false, "//*//*")],
            // Numeric implication: equal names, different literals.
            &[(false, "//g[x > 250]"), (false, "//g[x > 300]"), (true, "//g[x = 300]")],
            &[(true, "//g[x >= 250]"), (true, "//g[x > 250]"), (false, "//h[x < 10]")],
            &[(true, "//p[t = G3]"), (true, "//p[t = G4]"), (true, "//p[t = G3]")],
        ] {
            let report = assert_same_report(&signed(rules));
            assert!(report.containment_pairs > 0, "{rules:?}");
        }
    }

    fn arb_rule() -> impl Strategy<Value = (bool, String)> {
        const TAGS: &[&str] = &["a", "b", "c", "d"];
        let step = prop_oneof![
            4 => proptest::sample::select(TAGS).prop_map(|t| t.to_string()),
            1 => Just("*".to_string()),
        ];
        let seg = (proptest::sample::select(&["/", "//"]), step)
            .prop_map(|(axis, test)| format!("{axis}{test}"));
        let pred = prop_oneof![
            2 => Just(String::new()),
            1 => (proptest::sample::select(TAGS), proptest::sample::select(&["", " = 1", " > 1", " > 2"]))
                .prop_map(|(t, c)| format!("[{t}{c}]")),
        ];
        (any::<bool>(), prop::collection::vec(seg, 1..4), pred)
            .prop_map(|(sign, segs, p)| (sign, format!("{}{p}", segs.concat())))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..Default::default() })]

        #[test]
        fn prefilter_matches_exhaustive_on_random_rules(
            rules in prop::collection::vec(arb_rule(), 1..10),
        ) {
            let texts: Vec<(bool, &str)> = rules.iter().map(|(s, p)| (*s, p.as_str())).collect();
            let paths = signed(&texts);
            prop_assert_eq!(redundant_rules_report(&paths), exhaustive_report(&paths), "rules {:?}", texts);
        }
    }
}
