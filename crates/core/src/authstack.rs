//! The Authorization Stack and conflict resolution (§3.2).
//!
//! "The Authorization Stack registers the NT tokens having reached the
//! final state of a navigational path, at a given depth in the document.
//! The scope of the corresponding rule is bounded by the time the NT token
//! remains in the stack. This stack is used to solve conflicts between
//! rules." The bottom of the stack holds the implicit *negative-active*
//! closed policy.
//!
//! `DecideNode` (Figure 4) integrates the closed policy,
//! *Denial-Takes-Precedence* and *Most-Specific-Object-Takes-Precedence*.
//! The same walk, carried out symbolically, yields the *delivery condition*
//! stored with pending elements (§5):
//!
//! ```text
//! cond(0) = false
//! cond(d) = ¬deny(d) ∧ (grant(d) ∨ cond(d-1))
//! ```
//!
//! where `deny(d)`/`grant(d)` are the disjunctions of the negative/positive
//! rule instances registered at level `d` (an instance is the conjunction
//! of its predicate-instance variables).
//!
//! Both folds are memoized per level under the registry's resolution epoch
//! ([`PredRegistry::epoch`]): level `d`'s result depends only on levels
//! `1..=d` and on instance states, so between two resolutions each open or
//! text event folds only the levels pushed since the last query, and
//! pending elements share one `Arc<Cond>` per level as §5 prescribes.

use crate::condition::{Cond, Ternary};
use crate::predicate::PredRegistry;
use crate::rule::Sign;
use crate::token::{Bindings, RuleRef};
use std::sync::Arc;

/// A rule or query instance whose navigational path completed at a level.
#[derive(Clone, Debug)]
pub struct AuthEntry {
    /// Owning automaton.
    pub rule: RuleRef,
    /// Rule sign (queries are recorded separately but kept positive here).
    pub sign: Sign,
    /// Conjunction of predicate instances the instance depends on
    /// (empty = unconditionally active).
    pub bindings: Bindings,
}

impl AuthEntry {
    /// Ternary status of this instance under the registry.
    pub fn status(&self, reg: &PredRegistry) -> Ternary {
        let lookup = reg.lookup();
        let mut acc = Ternary::True;
        for (_, inst) in self.bindings.iter() {
            acc = acc.and(Cond::Var(*inst).eval(&lookup));
            if acc == Ternary::False {
                return acc;
            }
        }
        acc
    }

    /// The instance as a boolean expression.
    pub fn cond(&self) -> Arc<Cond> {
        Cond::and(self.bindings.iter().map(|(_, i)| Cond::var(*i)))
    }
}

/// One level of the Authorization Stack (one document depth).
#[derive(Clone, Debug, Default)]
pub struct AuthLevel {
    /// Access-rule instances anchored at this depth.
    pub entries: Vec<AuthEntry>,
    /// Query instances whose navigational path completed at this depth.
    pub query_entries: Vec<AuthEntry>,
}

/// The Authorization Stack.
pub struct AuthStack {
    levels: Vec<AuthLevel>,
    /// Peak number of registered instances (SOE memory accounting).
    pub peak_entries: usize,
    live_entries: usize,
    /// Registry epoch the memoized folds below were computed at.
    memo_epoch: u64,
    /// `decisions[k]`: `DecideNode` over levels `1..=k+1` (a prefix of
    /// the stack; extended on demand, truncated on pop).
    decisions: Vec<Decision>,
    /// `conds[k]`: the delivery condition over levels `1..=k+1`.
    conds: Vec<Arc<Cond>>,
}

/// The access decision for a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// ⊕ — deliver.
    Permit,
    /// ⊖ — prohibit.
    Deny,
    /// ? — depends on pending predicates.
    Pending,
}

impl From<Ternary> for Decision {
    fn from(t: Ternary) -> Decision {
        match t {
            Ternary::True => Decision::Permit,
            Ternary::False => Decision::Deny,
            Ternary::Unknown => Decision::Pending,
        }
    }
}

impl Default for AuthStack {
    fn default() -> Self {
        Self::new()
    }
}

impl AuthStack {
    /// Stack containing only the implicit closed-policy level 0.
    pub fn new() -> Self {
        AuthStack {
            levels: vec![AuthLevel::default()],
            peak_entries: 0,
            live_entries: 0,
            memo_epoch: 0,
            decisions: Vec::new(),
            conds: Vec::new(),
        }
    }

    /// Pushes the level for a newly opened element.
    pub fn push(&mut self, level: AuthLevel) {
        self.live_entries += level.entries.len() + level.query_entries.len();
        self.peak_entries = self.peak_entries.max(self.live_entries);
        self.levels.push(level);
    }

    /// Pops on close.
    pub fn pop(&mut self) -> AuthLevel {
        assert!(self.levels.len() > 1, "cannot pop the closed-policy level");
        let level = self.levels.pop().expect("checked");
        self.live_entries -= level.entries.len() + level.query_entries.len();
        let depth = self.depth();
        self.decisions.truncate(depth);
        self.conds.truncate(depth);
        level
    }

    /// Current depth (document depth of the top level).
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// Levels above the closed-policy base.
    pub fn levels(&self) -> &[AuthLevel] {
        &self.levels[1..]
    }

    /// `DecideNode` — the access decision for the current node (Figure 4).
    ///
    /// Implemented bottom-up (equivalent to the paper's top-down recursion):
    /// starting from the closed policy, each level overrides the decision
    /// carried from below according to Denial-Takes-Precedence at the level
    /// and Most-Specific-Object-Takes-Precedence across levels.
    pub fn decide_node(&mut self, reg: &PredRegistry) -> Decision {
        self.sync(reg);
        while self.decisions.len() < self.depth() {
            let below = self.decisions.last().copied().unwrap_or(Decision::Deny);
            let level = &self.levels[self.decisions.len() + 1];
            self.decisions.push(decide_level(level, below, reg));
        }
        self.decisions.last().copied().unwrap_or(Decision::Deny) // level 0: closed policy
    }

    /// The delivery condition of the current node as a boolean expression —
    /// the symbolic counterpart of [`AuthStack::decide_node`], stored with
    /// pending elements (§5). Constant-folds against already-resolved
    /// instances; yields `Const` exactly when `decide_node` is decisive.
    pub fn delivery_cond(&mut self, reg: &PredRegistry) -> Arc<Cond> {
        self.sync(reg);
        while self.conds.len() < self.depth() {
            let below = self.conds.last().cloned().unwrap_or_else(Cond::f);
            let level = &self.levels[self.conds.len() + 1];
            self.conds.push(cond_level(level, below, reg));
        }
        self.conds.last().cloned().unwrap_or_else(Cond::f) // closed policy
    }

    /// Drops the memoized folds when an instance resolved since they were
    /// computed.
    fn sync(&mut self, reg: &PredRegistry) {
        if self.memo_epoch != reg.epoch() {
            self.memo_epoch = reg.epoch();
            self.decisions.clear();
            self.conds.clear();
        }
    }

    /// Query coverage of the current node: true when some query instance at
    /// any enclosing level applies (existential semantics — the query
    /// "is interested in this node" iff the node lies in the scope of a
    /// completed query match, §3.2).
    pub fn query_cover(&self, reg: &PredRegistry) -> Ternary {
        let mut acc = Ternary::False;
        for level in self.levels() {
            for e in &level.query_entries {
                acc = acc.or(e.status(reg));
                if acc == Ternary::True {
                    return acc;
                }
            }
        }
        acc
    }

    /// Symbolic counterpart of [`AuthStack::query_cover`].
    pub fn query_cond(&self, reg: &PredRegistry) -> Arc<Cond> {
        let mut parts: Vec<Arc<Cond>> = Vec::new();
        for level in self.levels() {
            for e in &level.query_entries {
                match e.status(reg) {
                    Ternary::True => return Cond::t(),
                    Ternary::False => {}
                    Ternary::Unknown => parts.push(e.cond()),
                }
            }
        }
        Cond::or(parts)
    }

    /// True when a rule of the given sign could still fire strictly inside
    /// the current subtree *from an instance already registered*: a pending
    /// instance of that sign at any level would, if resolved true, override
    /// the current decision for descendants at its own level... — pending
    /// instances are registered at their own level and already participate
    /// in `decide_node` for descendants, so this helper only reports
    /// whether any pending instance of `sign` exists at all (used by
    /// `DecideSubtree` to block subtree-wide conclusions).
    pub fn has_pending_of_sign(&self, sign: Sign, reg: &PredRegistry) -> bool {
        self.levels().iter().any(|level| {
            level.entries.iter().any(|e| e.sign == sign && e.status(reg) == Ternary::Unknown)
        })
    }
}

/// One step of `DecideNode`: the decision at `level` given the decision
/// `below` it.
fn decide_level(level: &AuthLevel, below: Decision, reg: &PredRegistry) -> Decision {
    let mut pos_active = false;
    let mut pos_pending = false;
    let mut neg_active = false;
    let mut neg_pending = false;
    for e in &level.entries {
        match (e.sign, e.status(reg)) {
            (_, Ternary::False) => {}
            (Sign::Permit, Ternary::True) => pos_active = true,
            (Sign::Permit, Ternary::Unknown) => pos_pending = true,
            (Sign::Deny, Ternary::True) => neg_active = true,
            (Sign::Deny, Ternary::Unknown) => neg_pending = true,
        }
    }
    let pending_overrides = (pos_active && neg_pending)
        || (pos_pending && below == Decision::Deny)
        || (neg_pending && below == Decision::Permit);
    if neg_active {
        Decision::Deny
    } else if pos_active && !neg_pending {
        Decision::Permit
    } else if pending_overrides {
        Decision::Pending
    } else {
        below
    }
}

/// One step of the delivery-condition fold:
/// `cond(d) = ¬deny(d) ∧ (grant(d) ∨ cond(d-1))`, sharing `below` when the
/// level holds no live instance.
fn cond_level(level: &AuthLevel, below: Arc<Cond>, reg: &PredRegistry) -> Arc<Cond> {
    let mut grants: Vec<Arc<Cond>> = Vec::new();
    let mut denies: Vec<Arc<Cond>> = Vec::new();
    for e in &level.entries {
        // Fold resolved instances into constants.
        let c = match e.status(reg) {
            Ternary::True => Cond::t(),
            Ternary::False => continue,
            Ternary::Unknown => e.cond(),
        };
        match e.sign {
            Sign::Permit => grants.push(c),
            Sign::Deny => denies.push(c),
        }
    }
    if grants.is_empty() && denies.is_empty() {
        return below;
    }
    Cond::and([Cond::not(Cond::or(denies)), Cond::or([Cond::or(grants), below])])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::PredInstId;
    use proptest::prelude::*;

    impl AuthStack {
        /// `DecideNode` folded from scratch — the memo's oracle.
        fn decide_node_scratch(&self, reg: &PredRegistry) -> Decision {
            self.levels().iter().fold(Decision::Deny, |below, l| decide_level(l, below, reg))
        }

        /// The delivery condition folded from scratch — the memo's oracle.
        fn delivery_cond_scratch(&self, reg: &PredRegistry) -> Arc<Cond> {
            self.levels().iter().fold(Cond::f(), |below, l| cond_level(l, below, reg))
        }
    }

    fn entry(sign: Sign, bindings: &[PredInstId]) -> AuthEntry {
        AuthEntry {
            rule: RuleRef::Rule(0),
            sign,
            bindings: bindings.iter().map(|&i| (0u32, i)).collect::<Vec<_>>().into(),
        }
    }

    fn level(entries: Vec<AuthEntry>) -> AuthLevel {
        AuthLevel { entries, query_entries: vec![] }
    }

    #[test]
    fn closed_policy_denies() {
        let mut s = AuthStack::new();
        let reg = PredRegistry::new();
        assert_eq!(s.decide_node(&reg), Decision::Deny);
        assert_eq!(*s.delivery_cond(&reg), Cond::Const(false));
    }

    #[test]
    fn positive_active_grants() {
        let mut s = AuthStack::new();
        let reg = PredRegistry::new();
        s.push(level(vec![entry(Sign::Permit, &[])]));
        assert_eq!(s.decide_node(&reg), Decision::Permit);
        assert_eq!(*s.delivery_cond(&reg), Cond::Const(true));
    }

    #[test]
    fn denial_takes_precedence_same_level() {
        let mut s = AuthStack::new();
        let reg = PredRegistry::new();
        s.push(level(vec![entry(Sign::Permit, &[]), entry(Sign::Deny, &[])]));
        assert_eq!(s.decide_node(&reg), Decision::Deny);
    }

    #[test]
    fn most_specific_takes_precedence() {
        let mut s = AuthStack::new();
        let reg = PredRegistry::new();
        s.push(level(vec![entry(Sign::Deny, &[])]));
        s.push(level(vec![entry(Sign::Permit, &[])]));
        assert_eq!(s.decide_node(&reg), Decision::Permit, "deeper grant overrides outer deny");
        s.pop();
        assert_eq!(s.decide_node(&reg), Decision::Deny);
    }

    #[test]
    fn pending_negative_blocks_positive_same_level() {
        let mut s = AuthStack::new();
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        s.push(level(vec![entry(Sign::Permit, &[]), entry(Sign::Deny, &[p])]));
        assert_eq!(s.decide_node(&reg), Decision::Pending);
        // Resolving the predicate true turns the node into a denial...
        reg.satisfy(p);
        assert_eq!(s.decide_node(&reg), Decision::Deny);
    }

    #[test]
    fn pending_positive_over_denied_below() {
        let mut s = AuthStack::new();
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        s.push(level(vec![entry(Sign::Permit, &[p])]));
        assert_eq!(s.decide_node(&reg), Decision::Pending);
        reg.close_depth(1); // scope exits, instance resolves false
        assert_eq!(s.decide_node(&reg), Decision::Deny);
    }

    #[test]
    fn agreeing_pending_does_not_block() {
        // A pending negative over an already-denied node stays denied.
        let mut s = AuthStack::new();
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        s.push(level(vec![entry(Sign::Deny, &[p])]));
        assert_eq!(s.decide_node(&reg), Decision::Deny);
        // And a pending positive over a granted node stays granted.
        s.push(level(vec![entry(Sign::Permit, &[])]));
        let p2 = reg.create(2);
        s.push(level(vec![entry(Sign::Permit, &[p2])]));
        assert_eq!(s.decide_node(&reg), Decision::Permit);
    }

    #[test]
    fn delivery_cond_matches_decision_after_resolution() {
        let mut s = AuthStack::new();
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        let q = reg.create(1);
        // Level 1: grant unconditionally. Level 2: deny if p, grant if q.
        s.push(level(vec![entry(Sign::Permit, &[])]));
        s.push(level(vec![entry(Sign::Deny, &[p]), entry(Sign::Permit, &[q])]));
        assert_eq!(s.decide_node(&reg), Decision::Pending);
        let cond = s.delivery_cond(&reg);
        assert_eq!(cond.eval(&reg.lookup()), Ternary::Unknown);
        reg.satisfy(q);
        // deny still pending: ¬p ∧ (q ∨ below) — p unknown → Unknown.
        assert_eq!(cond.eval(&reg.lookup()), Ternary::Unknown);
        assert_eq!(s.decide_node(&reg), Decision::Pending);
        reg.close_depth(1); // p resolves false
        assert_eq!(cond.eval(&reg.lookup()), Ternary::True);
        assert_eq!(s.decide_node(&reg), Decision::Permit);
    }

    #[test]
    fn query_cover_existential() {
        let mut s = AuthStack::new();
        let mut reg = PredRegistry::new();
        assert_eq!(s.query_cover(&reg), Ternary::False);
        let p = reg.create(1);
        let mut lvl = AuthLevel::default();
        lvl.query_entries.push(entry(Sign::Permit, &[p]));
        s.push(lvl);
        assert_eq!(s.query_cover(&reg), Ternary::Unknown);
        reg.satisfy(p);
        assert_eq!(s.query_cover(&reg), Ternary::True);
        assert_eq!(*s.query_cond(&reg), Cond::Const(true));
    }

    #[test]
    fn figure4_examples() {
        // Reconstruction of the conflict examples sketched in Figure 4:
        // stack (bottom→top) ⊖, ⊕ → Permit (most specific wins).
        let mut s = AuthStack::new();
        let reg = PredRegistry::new();
        s.push(level(vec![entry(Sign::Deny, &[])]));
        s.push(level(vec![entry(Sign::Permit, &[])]));
        assert_eq!(s.decide_node(&reg), Decision::Permit);
        // ⊖, ⊕, ⊖? (pending deny on top): pending — the deny may override.
        let mut reg = PredRegistry::new();
        let p = reg.create(3);
        s.push(level(vec![entry(Sign::Deny, &[p])]));
        assert_eq!(s.decide_node(&reg), Decision::Pending);
        // Empty top level defers to below.
        s.push(level(vec![]));
        assert_eq!(s.decide_node(&reg), Decision::Pending);
    }

    #[test]
    fn peak_entry_accounting() {
        let mut s = AuthStack::new();
        s.push(level(vec![entry(Sign::Permit, &[]), entry(Sign::Deny, &[])]));
        s.push(level(vec![entry(Sign::Permit, &[])]));
        assert_eq!(s.peak_entries, 3);
        s.pop();
        s.pop();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.peak_entries, 3);
    }

    #[test]
    fn has_pending_of_sign() {
        let mut s = AuthStack::new();
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        s.push(level(vec![entry(Sign::Deny, &[p])]));
        assert!(s.has_pending_of_sign(Sign::Deny, &reg));
        assert!(!s.has_pending_of_sign(Sign::Permit, &reg));
    }

    /// Replays `ops` against a stack and a registry, checking after every
    /// step that the memoized folds equal the from-scratch ones. Each op is
    /// `(kind, a, b)`: push a level (instances created at the new depth,
    /// entries binding random instances), pop (then close the popped
    /// depth, as the evaluator does), satisfy, resolve to a condition, or
    /// close an arbitrary depth.
    fn replay(ops: &[(u8, u32, u32)]) -> Result<(), TestCaseError> {
        let mut s = AuthStack::new();
        let mut reg = PredRegistry::new();
        let mut ids: Vec<PredInstId> = Vec::new();
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let pick = |ids: &[PredInstId], x: u32| ids[x as usize % ids.len()];
            match kind % 6 {
                0 | 1 => {
                    let depth = s.depth() as u32 + 1;
                    ids.extend((0..a % 3).map(|_| reg.create(depth)));
                    let entries = (0..b % 4)
                        .map(|k| {
                            let sign = if (a >> k) & 1 == 0 { Sign::Permit } else { Sign::Deny };
                            let n = if ids.is_empty() { 0 } else { (b >> (2 * k + 2)) % 3 };
                            let binds: Vec<PredInstId> =
                                (0..n).map(|j| pick(&ids, a.rotate_left(5 * (j + k)))).collect();
                            entry(sign, &binds)
                        })
                        .collect();
                    s.push(level(entries));
                }
                2 if s.depth() > 0 => {
                    let depth = s.depth() as u32;
                    s.pop();
                    reg.close_depth(depth);
                }
                3 if !ids.is_empty() => reg.satisfy(pick(&ids, a)),
                // Gate on an earlier instance only, keeping `Expr` chains
                // acyclic as the evaluator's are.
                4 if !ids.is_empty() => {
                    let id = pick(&ids, a);
                    let gate = match b % 4 {
                        0 => Cond::t(),
                        1 => Cond::f(),
                        _ if id.0 == 0 => Cond::t(),
                        _ => Cond::var(PredInstId(b % id.0)),
                    };
                    reg.satisfy_with_condition(id, gate);
                }
                5 => reg.close_depth(a % (s.depth() as u32 + 2)),
                _ => {}
            }
            prop_assert_eq!(
                s.decide_node(&reg),
                s.decide_node_scratch(&reg),
                "decide_node diverged at step {} of {:?}",
                step,
                ops
            );
            prop_assert_eq!(
                &*s.delivery_cond(&reg),
                &*s.delivery_cond_scratch(&reg),
                "delivery_cond diverged at step {} of {:?}",
                step,
                ops
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 400, ..Default::default() })]

        #[test]
        fn memoized_folds_match_scratch_folds(
            ops in prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..60),
        ) {
            replay(&ops)?;
        }
    }

    #[test]
    fn memo_survives_until_a_resolution() {
        let mut s = AuthStack::new();
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        s.push(level(vec![entry(Sign::Permit, &[p])]));
        s.push(level(vec![]));
        let first = s.delivery_cond(&reg);
        assert!(Arc::ptr_eq(&first, &s.delivery_cond(&reg)), "same epoch: shared condition");
        s.push(level(vec![]));
        assert!(Arc::ptr_eq(&first, &s.delivery_cond(&reg)), "an empty level shares below");
        reg.satisfy(p);
        assert_eq!(*s.delivery_cond(&reg), Cond::Const(true), "a resolution refolds");
        assert_eq!(s.decide_node(&reg), Decision::Permit);
    }

    #[test]
    fn every_state_transition_advances_the_epoch() {
        let mut reg = PredRegistry::new();
        let other = PredRegistry::new();
        assert_ne!(reg.epoch(), other.epoch(), "registries never share an epoch");
        let (a, b, c, d) = (reg.create(1), reg.create(2), reg.create(2), reg.create(3));
        let mut last = reg.epoch();
        let mut advanced = |reg: &PredRegistry, expect: bool, what: &str| {
            assert_eq!(reg.epoch() != last, expect, "{what}");
            last = reg.epoch();
        };
        advanced(&reg, false, "creating an instance");
        reg.satisfy(a);
        advanced(&reg, true, "Unknown → Known(true)");
        reg.satisfy(a);
        advanced(&reg, false, "satisfying a resolved instance");
        reg.satisfy_with_condition(b, Cond::f());
        advanced(&reg, false, "a false gate resolves nothing");
        reg.satisfy_with_condition(b, Cond::var(a));
        advanced(&reg, true, "Unknown → Expr");
        reg.satisfy_with_condition(c, Cond::t());
        advanced(&reg, true, "Unknown → Known(true) through a true gate");
        reg.close_depth(2);
        advanced(&reg, false, "closing a depth with nothing left open");
        reg.close_depth(3);
        advanced(&reg, true, "Unknown → Known(false) at scope exit");
        assert!(matches!(reg.state(d), crate::predicate::InstState::Known(false)));
    }
}
