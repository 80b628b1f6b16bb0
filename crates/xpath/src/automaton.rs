//! Access Rule Automata (ARA), §3.1.
//!
//! Each access rule (and query) is compiled into a non-deterministic finite
//! automaton with **one navigational path** and **zero or more predicate
//! paths**. Directed edges are triggered by `open` events whose tag matches
//! the edge label (an element name or `*`); the descendant axis is modelled
//! by a self-transition labelled `*` on the source state.
//!
//! The automaton also precomputes the `RemainingLabels` metadata of §4.2:
//! for every state, the set of element tags that *must* still be seen for a
//! token in that state to reach its final state. The skip index compares
//! this set against the descendant-tag set of the current element to kill
//! tokens early.

use crate::ast::{Axis, CmpOp, Path, Value};
use xsac_xml::{TagDict, TagId};

/// Automaton state index.
pub type StateId = u32;

/// Transition label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// Matches a specific tag.
    Tag(TagId),
    /// Matches any tag (`*`).
    Wildcard,
}

impl Label {
    /// True when an `open(tag)` event triggers this label.
    #[inline]
    pub fn matches(self, tag: TagId) -> bool {
        match self {
            Label::Tag(t) => t == tag,
            Label::Wildcard => true,
        }
    }
}

/// Which path of the ARA a state belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateKind {
    /// Navigational path.
    Nav,
    /// Predicate path `index`.
    Pred(u32),
}

/// One ARA state.
#[derive(Clone, Debug)]
pub struct State {
    /// Outgoing chain transition (linear paths have at most one).
    pub transition: Option<(Label, StateId)>,
    /// Self-transition labelled `*` (descendant axis pending).
    pub self_loop: bool,
    /// Path membership.
    pub kind: StateKind,
    /// Final state of its path.
    pub is_final: bool,
    /// Tags that must still be matched on the way to this path's final
    /// state (wildcard steps contribute nothing). Sorted, deduplicated.
    pub remaining_labels: Vec<TagId>,
    /// Predicate paths anchored here: when a navigational token *arrives*
    /// in this state, it spawns one predicate token per entry.
    pub pred_anchors: Vec<u32>,
    /// Nav states only: tags needed for a *fresh rule instance* to become
    /// active strictly below an element where a token rests in this state —
    /// remaining navigational labels plus the labels of all predicate paths
    /// anchored at or ahead of this state. Used by `DecideSubtree` (§3.3).
    pub activation_labels: Vec<TagId>,
    /// Nav states only: predicate indexes whose anchor is at or ahead of
    /// this state (not yet bound by a token resting here).
    pub preds_ahead: Vec<u32>,
}

/// Description of one predicate path.
#[derive(Clone, Debug)]
pub struct PredPathInfo {
    /// Index within [`Automaton::preds`].
    pub index: u32,
    /// Navigational state the predicate is anchored at (the state *reached*
    /// by matching the step carrying the predicate).
    pub anchor_state: StateId,
    /// First state of the predicate path; a freshly spawned predicate token
    /// starts here. Equal to [`PredPathInfo::final_state`] for self
    /// predicates (`[. op v]`).
    pub start_state: StateId,
    /// Final state of the predicate path.
    pub final_state: StateId,
    /// Optional comparison on the matched element's immediate text.
    pub comparison: Option<(CmpOp, Value)>,
}

/// A compiled ARA.
#[derive(Clone, Debug)]
pub struct Automaton {
    /// All states (navigational chain first, predicate chains interleaved
    /// after their anchor step).
    pub states: Vec<State>,
    /// Start state (before the document root opens).
    pub start: StateId,
    /// Final state of the navigational path.
    pub nav_final: StateId,
    /// Predicate paths in anchor order.
    pub preds: Vec<PredPathInfo>,
    /// Pretty-printed source path (diagnostics).
    pub source: String,
}

// Compiled automata are shared across session threads by the multi-session
// serving layer (one `Arc`-ed compiled policy per role): they must stay
// `Send + Sync` — no interior mutability, no `Rc` — which this checks at
// compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Automaton>();
    assert_send_sync::<State>();
};

impl Automaton {
    /// Compiles a parsed [`Path`], interning its names into `dict`.
    ///
    /// Tags are interned (not merely looked up) so that rules mentioning
    /// tags absent from a given document still build; their transitions
    /// simply never fire.
    pub fn compile(path: &Path, dict: &mut TagDict) -> Automaton {
        let mut b = Builder { states: Vec::new(), preds: Vec::new() };
        let start = b.push_state(StateKind::Nav);
        let mut cur = start;
        for step in &path.steps {
            if step.axis == Axis::Descendant {
                b.states[cur as usize].self_loop = true;
            }
            let next = b.push_state(StateKind::Nav);
            let label = label_of(&step.test, dict);
            b.states[cur as usize].transition = Some((label, next));
            for pred in &step.predicates {
                let idx = b.preds.len() as u32;
                b.states[next as usize].pred_anchors.push(idx);
                let (p_start, p_final) = b.build_pred_chain(idx, pred, dict);
                b.preds.push(PredPathInfo {
                    index: idx,
                    anchor_state: next,
                    start_state: p_start,
                    final_state: p_final,
                    comparison: pred.comparison.clone(),
                });
            }
            cur = next;
        }
        b.states[cur as usize].is_final = true;
        let mut automaton = Automaton {
            states: b.states,
            start,
            nav_final: cur,
            preds: b.preds,
            source: path.to_string(),
        };
        automaton.compute_remaining_labels();
        automaton.compute_activation_metadata();
        automaton
    }

    /// Parses and compiles in one step.
    pub fn parse(expr: &str, dict: &mut TagDict) -> Result<Automaton, crate::parser::XPathError> {
        Ok(Self::compile(&crate::parser::parse_path(expr)?, dict))
    }

    /// State accessor.
    #[inline]
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id as usize]
    }

    /// Walks each linear chain backwards accumulating required tags.
    fn compute_remaining_labels(&mut self) {
        // Chains are identified by following `transition` from every chain
        // start (nav start + each predicate start). Compute by repeated
        // backward accumulation: remaining(s) = remaining(next) ∪ {label}.
        let order: Vec<StateId> = (0..self.states.len() as StateId).rev().collect();
        // States are created in chain order (source before target), so a
        // single reverse pass suffices.
        for id in order {
            let Some((label, next)) = self.states[id as usize].transition else {
                continue;
            };
            let mut labels = self.states[next as usize].remaining_labels.clone();
            if let Label::Tag(t) = label {
                labels.push(t);
            }
            labels.sort_unstable();
            labels.dedup();
            self.states[id as usize].remaining_labels = labels;
        }
    }

    /// Computes `activation_labels` and `preds_ahead` for nav states.
    fn compute_activation_metadata(&mut self) {
        let nav_states: Vec<StateId> = (0..self.states.len() as StateId)
            .filter(|&s| self.states[s as usize].kind == StateKind::Nav)
            .collect();
        for &s in &nav_states {
            let mut labels = self.states[s as usize].remaining_labels.clone();
            let mut ahead = Vec::new();
            for p in &self.preds {
                // Anchored strictly ahead: the anchor state has not been
                // crossed by a token currently resting in `s`.
                if p.anchor_state > s {
                    ahead.push(p.index);
                    labels.extend(
                        self.states[p.start_state as usize].remaining_labels.iter().copied(),
                    );
                }
            }
            labels.sort_unstable();
            labels.dedup();
            self.states[s as usize].activation_labels = labels;
            self.states[s as usize].preds_ahead = ahead;
        }
    }
}

struct Builder {
    states: Vec<State>,
    preds: Vec<PredPathInfo>,
}

impl Builder {
    fn push_state(&mut self, kind: StateKind) -> StateId {
        let id = self.states.len() as StateId;
        self.states.push(State {
            transition: None,
            self_loop: false,
            kind,
            is_final: false,
            remaining_labels: Vec::new(),
            pred_anchors: Vec::new(),
            activation_labels: Vec::new(),
            preds_ahead: Vec::new(),
        });
        id
    }

    /// Builds the linear chain of a predicate path; returns (start, final).
    fn build_pred_chain(
        &mut self,
        idx: u32,
        pred: &crate::ast::Predicate,
        dict: &mut TagDict,
    ) -> (StateId, StateId) {
        let start = self.push_state(StateKind::Pred(idx));
        let mut cur = start;
        for step in &pred.steps {
            if step.axis == Axis::Descendant {
                self.states[cur as usize].self_loop = true;
            }
            let next = self.push_state(StateKind::Pred(idx));
            let label = label_of(&step.test, dict);
            self.states[cur as usize].transition = Some((label, next));
            cur = next;
        }
        self.states[cur as usize].is_final = true;
        (start, cur)
    }
}

fn label_of(test: &crate::ast::NameTest, dict: &mut TagDict) -> Label {
    match test {
        crate::ast::NameTest::Name(n) => Label::Tag(dict.intern(n)),
        crate::ast::NameTest::Wildcard => Label::Wildcard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path;

    fn compile(expr: &str) -> (Automaton, TagDict) {
        let mut dict = TagDict::new();
        let a = Automaton::compile(&parse_path(expr).unwrap(), &mut dict);
        (a, dict)
    }

    #[test]
    fn figure3_rule_r_structure() {
        // R: ⊕ //b[c]/d — Figure 3(b) of the paper: navigational states
        // 1-(b)->2-(d)->3 with a self-loop on 1, predicate path 4-(c)->5.
        let (a, dict) = compile("//b[c]/d");
        let b = dict.get("b").unwrap();
        let c = dict.get("c").unwrap();
        let d = dict.get("d").unwrap();

        let s0 = a.state(a.start);
        assert!(s0.self_loop, "descendant axis puts a *-self-loop on the start state");
        let (l0, s1_id) = s0.transition.unwrap();
        assert_eq!(l0, Label::Tag(b));

        let s1 = a.state(s1_id);
        assert_eq!(s1.pred_anchors, vec![0], "predicate [c] anchored after matching b");
        let (l1, s2_id) = s1.transition.unwrap();
        assert_eq!(l1, Label::Tag(d));
        assert!(a.state(s2_id).is_final);
        assert_eq!(a.nav_final, s2_id);

        assert_eq!(a.preds.len(), 1);
        let p = &a.preds[0];
        assert_eq!(p.anchor_state, s1_id);
        assert!(!a.state(p.start_state).self_loop, "child-axis predicate");
        let (pl, pf) = a.state(p.start_state).transition.unwrap();
        assert_eq!(pl, Label::Tag(c));
        assert_eq!(pf, p.final_state);
        assert!(a.state(p.final_state).is_final);
        assert!(p.comparison.is_none());
    }

    #[test]
    fn figure3_rule_s_structure() {
        // S: ⊖ //c — states 6-(c)->7 with self-loop on 6.
        let (a, dict) = compile("//c");
        assert!(a.state(a.start).self_loop);
        let (l, f) = a.state(a.start).transition.unwrap();
        assert_eq!(l, Label::Tag(dict.get("c").unwrap()));
        assert!(a.state(f).is_final);
        assert!(a.preds.is_empty());
    }

    #[test]
    fn remaining_labels_linear() {
        let (a, dict) = compile("/a/b/c");
        let ta = dict.get("a").unwrap();
        let tb = dict.get("b").unwrap();
        let tc = dict.get("c").unwrap();
        let mut expect = vec![ta, tb, tc];
        expect.sort_unstable();
        assert_eq!(a.state(a.start).remaining_labels, expect);
        assert!(a.state(a.nav_final).remaining_labels.is_empty());
    }

    #[test]
    fn remaining_labels_skip_wildcards() {
        let (a, dict) = compile("/a/*/c");
        let ta = dict.get("a").unwrap();
        let tc = dict.get("c").unwrap();
        let mut expect = vec![ta, tc];
        expect.sort_unstable();
        assert_eq!(a.state(a.start).remaining_labels, expect);
    }

    #[test]
    fn activation_labels_include_pending_predicate_paths() {
        // //a[x//y]/b : from the start state, activating a fresh instance
        // needs a, b (nav) and x, y (predicate path).
        let (a, dict) = compile("//a[x//y]/b");
        let names: Vec<TagId> = ["a", "b", "x", "y"].iter().map(|n| dict.get(n).unwrap()).collect();
        let mut expect = names.clone();
        expect.sort_unstable();
        assert_eq!(a.state(a.start).activation_labels, expect);
        assert_eq!(a.state(a.start).preds_ahead, vec![0]);

        // Once the anchor is crossed (state after matching a), only b
        // remains for activation of *fresh* instances... the anchor is
        // behind, so the predicate path no longer counts as "ahead".
        let (_, s1) = a.state(a.start).transition.unwrap();
        assert!(a.state(s1).preds_ahead.is_empty());
        assert_eq!(a.state(s1).activation_labels, vec![dict.get("b").unwrap()]);
    }

    #[test]
    fn self_predicate_start_is_final() {
        let (a, _) = compile("//Age[. > 65]");
        assert_eq!(a.preds.len(), 1);
        let p = &a.preds[0];
        assert_eq!(p.start_state, p.final_state);
        assert!(a.state(p.start_state).is_final);
        assert!(p.comparison.is_some());
    }

    #[test]
    fn multiple_predicates_multiple_anchors() {
        let (a, _) = compile("//Folder[Protocol][MedActs//RPhys = USER]/Analysis");
        assert_eq!(a.preds.len(), 2);
        assert_eq!(a.preds[0].anchor_state, a.preds[1].anchor_state);
        let anchor = a.state(a.preds[0].anchor_state);
        assert_eq!(anchor.pred_anchors, vec![0, 1]);
    }

    #[test]
    fn label_matching() {
        assert!(Label::Wildcard.matches(TagId(9)));
        assert!(Label::Tag(TagId(9)).matches(TagId(9)));
        assert!(!Label::Tag(TagId(9)).matches(TagId(8)));
    }

    #[test]
    fn parse_helper() {
        let mut dict = TagDict::new();
        assert!(Automaton::parse("//a/b", &mut dict).is_ok());
        assert!(Automaton::parse("not a path", &mut dict).is_err());
    }
}
