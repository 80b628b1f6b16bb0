//! Tokens and the Token Stack (§3.1).
//!
//! "The navigation progress in all ARA is memorized thanks to a unique
//! stack-based data structure called Token Stack. The top of the stack
//! contains all active NT and PT tokens, i.e. tokens that can trigger a new
//! transition at the next incoming event. Tokens created by a triggered
//! transition are pushed in the stack. The stack is popped at each close
//! event."

use crate::condition::PredInstId;
use std::sync::Arc;
use xsac_xpath::{ir, CmpOp};

/// Identifies the automaton a token belongs to: a policy rule or the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleRef {
    /// Index into the policy's rule vector.
    Rule(u16),
    /// The (single) query automaton.
    Query,
}

impl RuleRef {
    /// Maps a flat-IR owner (rule index or [`ir::OWNER_QUERY`]) to a
    /// `RuleRef`.
    #[inline]
    pub fn from_owner(owner: u16) -> RuleRef {
        if owner == ir::OWNER_QUERY {
            RuleRef::Query
        } else {
            RuleRef::Rule(owner)
        }
    }
}

/// Predicate instances bound by a rule instance so far:
/// `(pred_index, instance)` pairs, materializing the paper's "rule
/// instance" depth labels.
///
/// The empty list — the common case by far (tokens that never crossed a
/// predicate anchor) — is represented without any allocation, and cloning
/// it is free: the evaluator clones one `Bindings` per live token per
/// open event, so this representation keeps the steady-state loop clear
/// of refcount traffic.
#[derive(Clone, Debug, Default)]
pub struct Bindings(Option<Arc<[(u32, PredInstId)]>>);

impl Bindings {
    /// No bindings (allocation-free, clone-free).
    pub const EMPTY: Bindings = Bindings(None);

    /// The bindings as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[(u32, PredInstId)] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// Iterates the `(pred_index, instance)` pairs.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, (u32, PredInstId)> {
        self.as_slice().iter()
    }

    /// True when no instance is bound.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl From<&[(u32, PredInstId)]> for Bindings {
    fn from(s: &[(u32, PredInstId)]) -> Bindings {
        if s.is_empty() {
            Bindings(None)
        } else {
            Bindings(Some(Arc::from(s)))
        }
    }
}

impl From<Vec<(u32, PredInstId)>> for Bindings {
    fn from(v: Vec<(u32, PredInstId)>) -> Bindings {
        Bindings::from(&v[..])
    }
}

/// A navigational token (NT): progress of one rule instance along the
/// navigational path.
///
/// The token addresses its state as a single index into the session's flat
/// instruction bank ([`xsac_xpath::InstrSeq`]); the owning automaton is
/// recorded on the instruction itself, so the hot loop reads one
/// contiguous `Instr` per token instead of chasing an (automaton, state)
/// pair.
#[derive(Clone, Debug)]
pub struct NavToken {
    /// Current state: global instruction index.
    pub instr: u32,
    /// Predicate instances bound so far.
    pub bindings: Bindings,
}

/// A predicate token (PT): progress of one predicate instance along its
/// predicate path.
#[derive(Clone, Debug)]
pub struct PredToken {
    /// Predicate path: *global* id into the bank's predicate table.
    pub pred: u32,
    /// Current state: global instruction index.
    pub instr: u32,
    /// The instance this token works for.
    pub inst: PredInstId,
}

/// A comparison armed at the current level: a predicate token reached its
/// final state on an element whose immediate text must satisfy `op value`.
#[derive(Clone, Debug)]
pub struct ArmedCmp {
    /// Instance satisfied if the comparison succeeds.
    pub inst: PredInstId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side with `USER` already resolved.
    pub value: Arc<str>,
    /// Armed for a query predicate (satisfaction is gated on node
    /// delivery, see `evaluator`).
    pub query: bool,
}

/// One level of the Token Stack: tokens active below the element opened at
/// that depth.
#[derive(Clone, Debug, Default)]
pub struct TokenLevel {
    /// Active navigational tokens.
    pub nav: Vec<NavToken>,
    /// Active predicate tokens.
    pub pred: Vec<PredToken>,
    /// Comparisons awaiting the current element's immediate text.
    pub armed: Vec<ArmedCmp>,
}

impl TokenLevel {
    /// No live work at this level: nothing inside the current subtree can
    /// trigger any transition or comparison — the precondition of
    /// `SkipSubtree` ("the Token Stack becomes empty", §3.3).
    pub fn is_empty(&self) -> bool {
        self.nav.is_empty() && self.pred.is_empty() && self.armed.is_empty()
    }

    /// Number of tokens (for statistics).
    pub fn token_count(&self) -> usize {
        self.nav.len() + self.pred.len() + self.armed.len()
    }
}

/// The Token Stack.
#[derive(Default)]
pub struct TokenStack {
    levels: Vec<TokenLevel>,
    /// Peak total tokens across all levels (SOE memory accounting).
    pub peak_tokens: usize,
    total: usize,
}

impl TokenStack {
    /// Creates a stack with the given base level (depth 0: start tokens).
    pub fn new(base: TokenLevel) -> Self {
        let total = base.token_count();
        TokenStack { levels: vec![base], peak_tokens: total, total }
    }

    /// The top level.
    pub fn top(&self) -> &TokenLevel {
        self.levels.last().expect("token stack never empty")
    }

    /// Pushes a new level (open event).
    pub fn push(&mut self, level: TokenLevel) {
        self.total += level.token_count();
        self.peak_tokens = self.peak_tokens.max(self.total);
        self.levels.push(level);
    }

    /// Pops the top level (close event).
    pub fn pop(&mut self) -> TokenLevel {
        assert!(self.levels.len() > 1, "cannot pop the base token level");
        let level = self.levels.pop().expect("checked");
        self.total -= level.token_count();
        level
    }

    /// Moves the top level out (an empty level takes its place) so the
    /// caller can iterate it while mutating other evaluator state, without
    /// cloning any token. Pair with [`TokenStack::put_top`].
    pub fn take_top(&mut self) -> TokenLevel {
        let top = self.levels.last_mut().expect("token stack never empty");
        let level = std::mem::take(top);
        self.total -= level.token_count();
        level
    }

    /// Restores a level taken with [`TokenStack::take_top`].
    pub fn put_top(&mut self, level: TokenLevel) {
        self.total += level.token_count();
        let top = self.levels.last_mut().expect("token stack never empty");
        debug_assert!(top.is_empty(), "put_top over a non-empty level");
        *top = level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nav(instr: u32) -> NavToken {
        NavToken { instr, bindings: Bindings::EMPTY }
    }

    #[test]
    fn push_pop_tracks_totals() {
        let mut ts = TokenStack::new(TokenLevel { nav: vec![nav(0)], ..Default::default() });
        assert_eq!(ts.levels.len(), 1);
        ts.push(TokenLevel { nav: vec![nav(1), nav(2)], ..Default::default() });
        assert_eq!(ts.levels.len(), 2);
        assert_eq!(ts.peak_tokens, 3);
        let popped = ts.pop();
        assert_eq!(popped.nav.len(), 2);
        assert_eq!(ts.levels.len(), 1);
    }

    #[test]
    #[should_panic(expected = "base token level")]
    fn popping_base_panics() {
        let mut ts = TokenStack::new(TokenLevel::default());
        ts.pop();
    }

    #[test]
    fn emptiness_includes_armed() {
        let mut lvl = TokenLevel::default();
        assert!(lvl.is_empty());
        lvl.armed.push(ArmedCmp {
            inst: PredInstId(0),
            op: CmpOp::Eq,
            value: Arc::from("x"),
            query: false,
        });
        assert!(!lvl.is_empty());
        assert_eq!(lvl.token_count(), 1);
    }

    #[test]
    fn rule_ref_from_owner() {
        assert_eq!(RuleRef::from_owner(0), RuleRef::Rule(0));
        assert_eq!(RuleRef::from_owner(7), RuleRef::Rule(7));
        assert_eq!(RuleRef::from_owner(ir::OWNER_QUERY), RuleRef::Query);
    }
}
