//! Predicate instances and the Predicate Set (§3.1).
//!
//! A *predicate instance* is one anchoring of a predicate path at a concrete
//! element. Its life cycle is:
//!
//! 1. **Unknown** — created when a navigational token crosses the anchor
//!    state; predicate tokens start exploring the anchor's subtree;
//! 2. **True** — some matched element satisfied the (optional) comparison.
//!    "The corresponding predicate will be considered true until the
//!    anchor's level is popped — there is no need to continue to evaluate
//!    this predicate in this subtree" (Figure 3, step 3);
//! 3. **False** — the anchor element closed with the instance still
//!    Unknown: no further match is possible, the instance resolves false.
//!
//! The paper's *Predicate Set* registers satisfied instances; instances are
//! "discarded from this set at the time the current depth in the document
//! becomes less than its own depth". The registry below keeps resolved
//! instances addressable after scope exit because Pending-Stack conditions
//! may still reference them (§5); the SOE memory meter distinguishes
//! in-scope instances (Predicate-Set equivalent) from archived resolutions.

use crate::condition::{Cond, PredInstId, VarState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of registry epoch bases (see [`PredRegistry::epoch`]).
static NEXT_REGISTRY: AtomicU64 = AtomicU64::new(0);

/// State of one predicate instance.
#[derive(Clone, Debug)]
pub enum InstState {
    /// Still being evaluated inside its anchor scope.
    Unknown,
    /// Definitively resolved.
    Known(bool),
    /// Resolved to a condition (query predicates gated on node delivery).
    Expr(Arc<Cond>),
}

/// Registry of all predicate instances created during one evaluation.
pub struct PredRegistry {
    /// State of every instance, by id.
    instances: Vec<InstState>,
    /// Instances per anchor depth, for scope-exit resolution (mirrors the
    /// Predicate Set's discard-on-pop behaviour).
    by_depth: Vec<Vec<PredInstId>>,
    /// Instances resolved since the last drain (consumers re-evaluate the
    /// pending entries watching them).
    newly_resolved: Vec<PredInstId>,
    /// Number of instances currently Unknown (in scope).
    open_count: usize,
    /// Peak of `open_count` (SOE memory accounting).
    pub peak_open: usize,
    /// Resolution epoch, advanced by every instance state transition.
    epoch: u64,
}

impl Default for PredRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl PredRegistry {
    /// Fresh registry.
    pub fn new() -> Self {
        PredRegistry {
            instances: Vec::new(),
            by_depth: Vec::new(),
            newly_resolved: Vec::new(),
            open_count: 0,
            peak_open: 0,
            // Each registry counts from its own base, 2^32 apart: an
            // instance changes state at most once and ids are `u32`, so
            // two registries never share an epoch.
            epoch: NEXT_REGISTRY.fetch_add(1, Ordering::Relaxed) << 32,
        }
    }

    /// The resolution epoch. It changes whenever any instance changes
    /// state (Unknown → Known / Expr) and at no other time, and no two
    /// registries share one, so anything computed from instance states
    /// stays valid while the epoch reads the same. Creating an instance
    /// does not advance it: a new instance is Unknown and nothing computed
    /// earlier refers to it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Creates an instance anchored at `anchor_depth`.
    pub fn create(&mut self, anchor_depth: u32) -> PredInstId {
        let id = PredInstId(self.instances.len() as u32);
        self.instances.push(InstState::Unknown);
        let d = anchor_depth as usize;
        if self.by_depth.len() <= d {
            self.by_depth.resize_with(d + 1, Vec::new);
        }
        self.by_depth[d].push(id);
        self.open_count += 1;
        self.peak_open = self.peak_open.max(self.open_count);
        id
    }

    /// Current state.
    pub fn state(&self, id: PredInstId) -> &InstState {
        &self.instances[id.0 as usize]
    }

    /// True when the instance is already satisfied — its tokens can be
    /// dropped (the paper's predicate-suspension optimization).
    pub fn is_true(&self, id: PredInstId) -> bool {
        matches!(self.instances[id.0 as usize], InstState::Known(true))
    }

    /// True when still unresolved.
    pub fn is_unknown(&self, id: PredInstId) -> bool {
        matches!(self.instances[id.0 as usize], InstState::Unknown)
    }

    /// Marks an instance satisfied.
    pub fn satisfy(&mut self, id: PredInstId) {
        if self.is_unknown(id) {
            self.resolve(id, InstState::Known(true));
        }
    }

    /// Resolves a (query) instance to a gating condition.
    pub fn satisfy_with_condition(&mut self, id: PredInstId, cond: Arc<Cond>) {
        if self.is_unknown(id) {
            match &*cond {
                Cond::Const(b) => {
                    let b = *b;
                    if b {
                        self.satisfy(id);
                    } else { // an unsatisfied gate resolves nothing
                    }
                }
                _ => self.resolve(id, InstState::Expr(cond)),
            }
        }
    }

    /// Scope exit: the element at `depth` just closed — every instance
    /// anchored at `depth` still Unknown resolves to false.
    pub fn close_depth(&mut self, depth: u32) {
        let d = depth as usize;
        if d >= self.by_depth.len() {
            return;
        }
        for id in std::mem::take(&mut self.by_depth[d]) {
            if self.is_unknown(id) {
                self.resolve(id, InstState::Known(false));
            }
        }
    }

    /// The one state transition: an Unknown instance takes its resolution.
    fn resolve(&mut self, id: PredInstId, state: InstState) {
        self.instances[id.0 as usize] = state;
        self.open_count -= 1;
        self.newly_resolved.push(id);
        self.epoch += 1;
    }

    /// Drains the instances resolved since the previous call.
    pub fn drain_resolved(&mut self) -> Vec<PredInstId> {
        std::mem::take(&mut self.newly_resolved)
    }

    /// True if any resolution is waiting to be drained.
    pub fn has_unprocessed_resolutions(&self) -> bool {
        !self.newly_resolved.is_empty()
    }

    /// Lookup closure for [`Cond::eval`].
    pub fn lookup(&self) -> impl Fn(PredInstId) -> VarState + '_ {
        move |id| match &self.instances[id.0 as usize] {
            InstState::Unknown => VarState::Unknown,
            InstState::Known(b) => VarState::Known(*b),
            InstState::Expr(c) => VarState::Expr(c.clone()),
        }
    }

    /// Total instances ever created.
    pub fn created(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Ternary;

    #[test]
    fn lifecycle_satisfied() {
        let mut r = PredRegistry::new();
        let a = r.create(3);
        assert!(r.is_unknown(a));
        r.satisfy(a);
        assert!(r.is_true(a));
        assert_eq!(r.drain_resolved(), vec![a]);
        // Scope exit after satisfaction changes nothing.
        r.close_depth(3);
        assert!(r.is_true(a));
        assert!(r.drain_resolved().is_empty());
    }

    #[test]
    fn lifecycle_scope_exit_resolves_false() {
        let mut r = PredRegistry::new();
        let a = r.create(2);
        r.close_depth(2);
        assert!(matches!(r.state(a), InstState::Known(false)));
        assert_eq!(r.drain_resolved(), vec![a]);
    }

    #[test]
    fn close_depth_only_touches_that_depth() {
        let mut r = PredRegistry::new();
        let a = r.create(2);
        let b = r.create(3);
        r.close_depth(3);
        assert!(r.is_unknown(a));
        assert!(!r.is_unknown(b));
    }

    #[test]
    fn satisfy_is_idempotent() {
        let mut r = PredRegistry::new();
        let a = r.create(1);
        r.satisfy(a);
        r.satisfy(a);
        assert_eq!(r.drain_resolved().len(), 1);
    }

    #[test]
    fn expr_resolution_feeds_eval() {
        let mut r = PredRegistry::new();
        let gate = r.create(1);
        let q = r.create(2);
        r.satisfy_with_condition(q, Cond::var(gate));
        let c = Cond::var(q);
        assert_eq!(c.eval(&r.lookup()), Ternary::Unknown);
        r.satisfy(gate);
        assert_eq!(c.eval(&r.lookup()), Ternary::True);
    }

    #[test]
    fn constant_gate_short_circuits() {
        let mut r = PredRegistry::new();
        let q = r.create(1);
        r.satisfy_with_condition(q, Cond::t());
        assert!(r.is_true(q));
        let q2 = r.create(1);
        r.satisfy_with_condition(q2, Cond::f());
        assert!(r.is_unknown(q2), "a false gate leaves the instance open for later matches");
    }

    #[test]
    fn peak_open_tracks_memory() {
        let mut r = PredRegistry::new();
        let a = r.create(1);
        let _b = r.create(2);
        assert_eq!(r.peak_open, 2);
        r.satisfy(a);
        let _c = r.create(2);
        assert_eq!(r.peak_open, 2);
        assert_eq!(r.created(), 3);
    }
}
