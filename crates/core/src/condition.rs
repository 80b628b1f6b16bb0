//! Ternary boolean conditions over predicate instances.
//!
//! When `DecideNode` cannot decide a node because of pending rules, the node
//! is buffered together with "the logical expression conditioning the
//! delivery of the element/subtree" (§5). Expressions are shared (`Arc`,
//! so evaluators can cross threads) —
//! "since several pending elements are likely to depend on the same rule,
//! logical expressions can be shared among them to gain internal storage".

use std::fmt;
use std::sync::Arc;

/// Identifier of one predicate *instance* — one anchoring of a predicate
/// path at a concrete document element. The paper materializes instances by
/// labelling tokens with the depth of their creation (§3.1); unique ids are
/// equivalent within a root-to-node path and remain unambiguous inside
/// Pending-Stack conditions after the traversal has left the scope.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredInstId(pub u32);

impl fmt::Debug for PredInstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Three-valued logic: a condition is true, false, or not yet resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ternary {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Depends on unresolved predicate instances.
    Unknown,
}

impl Ternary {
    /// Kleene conjunction.
    pub fn and(self, other: Ternary) -> Ternary {
        use Ternary::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Ternary) -> Ternary {
        use Ternary::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ternary {
        match self {
            Ternary::True => Ternary::False,
            Ternary::False => Ternary::True,
            Ternary::Unknown => Ternary::Unknown,
        }
    }

    /// From a definite boolean.
    pub fn known(b: bool) -> Ternary {
        if b {
            Ternary::True
        } else {
            Ternary::False
        }
    }
}

/// A shared boolean expression over predicate instances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Constant.
    Const(bool),
    /// The resolution of a predicate instance.
    Var(PredInstId),
    /// Negation.
    Not(Arc<Cond>),
    /// Conjunction (empty = true).
    And(Vec<Arc<Cond>>),
    /// Disjunction (empty = false).
    Or(Vec<Arc<Cond>>),
}

thread_local! {
    /// The two constants, shared instead of allocated per use. Per thread,
    /// so that concurrent sessions do not contend on one reference count.
    static CONSTS: [Arc<Cond>; 2] = [Arc::new(Cond::Const(false)), Arc::new(Cond::Const(true))];
}

impl Cond {
    /// `true`.
    pub fn t() -> Arc<Cond> {
        CONSTS.with(|c| Arc::clone(&c[1]))
    }

    /// `false`.
    pub fn f() -> Arc<Cond> {
        CONSTS.with(|c| Arc::clone(&c[0]))
    }

    /// A single variable.
    pub fn var(id: PredInstId) -> Arc<Cond> {
        Arc::new(Cond::Var(id))
    }

    /// Simplifying negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(c: Arc<Cond>) -> Arc<Cond> {
        match &*c {
            Cond::Const(true) => Cond::f(),
            Cond::Const(false) => Cond::t(),
            Cond::Not(inner) => inner.clone(),
            _ => Arc::new(Cond::Not(c)),
        }
    }

    /// Simplifying conjunction.
    pub fn and(parts: impl IntoIterator<Item = Arc<Cond>>) -> Arc<Cond> {
        let mut out: Vec<Arc<Cond>> = Vec::new();
        for p in parts {
            match &*p {
                Cond::Const(true) => {}
                Cond::Const(false) => return Cond::f(),
                Cond::And(inner) => out.extend(inner.iter().cloned()),
                _ => out.push(p),
            }
        }
        match out.len() {
            0 => Cond::t(),
            1 => out.pop().unwrap(),
            _ => Arc::new(Cond::And(out)),
        }
    }

    /// Simplifying disjunction.
    pub fn or(parts: impl IntoIterator<Item = Arc<Cond>>) -> Arc<Cond> {
        let mut out: Vec<Arc<Cond>> = Vec::new();
        for p in parts {
            match &*p {
                Cond::Const(false) => {}
                Cond::Const(true) => return Cond::t(),
                Cond::Or(inner) => out.extend(inner.iter().cloned()),
                _ => out.push(p),
            }
        }
        match out.len() {
            0 => Cond::f(),
            1 => out.pop().unwrap(),
            _ => Arc::new(Cond::Or(out)),
        }
    }

    /// Evaluates under a variable assignment supplied by `lookup`.
    ///
    /// `lookup` may itself return composite knowledge via [`VarState`]:
    /// query predicate instances resolve to *conditions* (their match is
    /// gated on the delivery of the matched node), which is why evaluation
    /// recurses through the registry.
    pub fn eval(&self, lookup: &impl Fn(PredInstId) -> VarState) -> Ternary {
        match self {
            Cond::Const(b) => Ternary::known(*b),
            Cond::Var(v) => match lookup(*v) {
                VarState::Unknown => Ternary::Unknown,
                VarState::Known(b) => Ternary::known(b),
                VarState::Expr(c) => c.eval(lookup),
            },
            Cond::Not(c) => c.eval(lookup).not(),
            Cond::And(cs) => {
                let mut acc = Ternary::True;
                for c in cs {
                    acc = acc.and(c.eval(lookup));
                    if acc == Ternary::False {
                        break;
                    }
                }
                acc
            }
            Cond::Or(cs) => {
                let mut acc = Ternary::False;
                for c in cs {
                    acc = acc.or(c.eval(lookup));
                    if acc == Ternary::True {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// Collects the variables the expression depends on (transitively
    /// through the registry is the caller's concern).
    pub fn vars(&self, out: &mut Vec<PredInstId>) {
        match self {
            Cond::Const(_) => {}
            Cond::Var(v) => out.push(*v),
            Cond::Not(c) => c.vars(out),
            Cond::And(cs) | Cond::Or(cs) => {
                for c in cs {
                    c.vars(out);
                }
            }
        }
    }

    /// Rough in-memory size of the expression (for SOE memory accounting).
    pub fn weight(&self) -> usize {
        match self {
            Cond::Const(_) | Cond::Var(_) => 1,
            Cond::Not(c) => 1 + c.weight(),
            Cond::And(cs) | Cond::Or(cs) => 1 + cs.iter().map(|c| c.weight()).sum::<usize>(),
        }
    }
}

/// The resolution state of a predicate instance.
#[derive(Clone, Debug)]
pub enum VarState {
    /// Not yet resolved.
    Unknown,
    /// Resolved to a definite boolean.
    Known(bool),
    /// Resolved to another condition (used by query predicates gated on
    /// the delivery of the node they matched).
    Expr(Arc<Cond>),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign(pairs: &[(u32, VarState)]) -> impl Fn(PredInstId) -> VarState + '_ {
        move |id| {
            pairs
                .iter()
                .find(|(v, _)| *v == id.0)
                .map(|(_, s)| s.clone())
                .unwrap_or(VarState::Unknown)
        }
    }

    #[test]
    fn ternary_tables() {
        use Ternary::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
        assert_eq!(Ternary::known(true), True);
    }

    #[test]
    fn constructors_simplify() {
        let v = Cond::var(PredInstId(1));
        assert_eq!(*Cond::and([Cond::t(), v.clone()]), *v);
        assert_eq!(*Cond::and([Cond::f(), v.clone()]), Cond::Const(false));
        assert_eq!(*Cond::or([Cond::f(), v.clone()]), *v);
        assert_eq!(*Cond::or([Cond::t(), v.clone()]), Cond::Const(true));
        assert_eq!(*Cond::not(Cond::not(v.clone())), *v);
        assert_eq!(*Cond::and([] as [Arc<Cond>; 0]), Cond::Const(true));
        assert_eq!(*Cond::or([] as [Arc<Cond>; 0]), Cond::Const(false));
    }

    #[test]
    fn constants_are_shared() {
        assert!(Arc::ptr_eq(&Cond::t(), &Cond::t()));
        assert!(Arc::ptr_eq(&Cond::f(), &Cond::not(Cond::t())));
        assert!(Arc::ptr_eq(&Cond::t(), &Cond::and([] as [Arc<Cond>; 0])));
        assert!(Arc::ptr_eq(&Cond::f(), &Cond::or([] as [Arc<Cond>; 0])));
    }

    #[test]
    fn nested_flattening() {
        let a = Cond::var(PredInstId(1));
        let b = Cond::var(PredInstId(2));
        let c = Cond::var(PredInstId(3));
        let inner = Cond::and([a, b]);
        let outer = Cond::and([inner, c]);
        match &*outer {
            Cond::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn eval_with_partial_assignment() {
        // cond = ¬v1 ∧ (v2 ∨ v3)
        let cond = Cond::and([
            Cond::not(Cond::var(PredInstId(1))),
            Cond::or([Cond::var(PredInstId(2)), Cond::var(PredInstId(3))]),
        ]);
        assert_eq!(cond.eval(&assign(&[])), Ternary::Unknown);
        assert_eq!(cond.eval(&assign(&[(1, VarState::Known(true))])), Ternary::False);
        assert_eq!(
            cond.eval(&assign(&[(1, VarState::Known(false)), (2, VarState::Known(true))])),
            Ternary::True
        );
        assert_eq!(
            cond.eval(&assign(&[(1, VarState::Known(false)), (2, VarState::Known(false))])),
            Ternary::Unknown
        );
    }

    #[test]
    fn eval_through_expr_vars() {
        // v1 := (v2), v2 := true  — query-style indirection.
        let cond = Cond::var(PredInstId(1));
        let lookup = |id: PredInstId| match id.0 {
            1 => VarState::Expr(Cond::var(PredInstId(2))),
            2 => VarState::Known(true),
            _ => VarState::Unknown,
        };
        assert_eq!(cond.eval(&lookup), Ternary::True);
    }

    #[test]
    fn vars_collection() {
        let cond = Cond::and([
            Cond::not(Cond::var(PredInstId(1))),
            Cond::or([Cond::var(PredInstId(2)), Cond::var(PredInstId(1))]),
        ]);
        let mut vs = Vec::new();
        cond.vars(&mut vs);
        vs.sort_unstable();
        vs.dedup();
        assert_eq!(vs, vec![PredInstId(1), PredInstId(2)]);
    }

    #[test]
    fn weight_is_positive() {
        assert!(Cond::t().weight() >= 1);
        let c = Cond::and([Cond::var(PredInstId(1)), Cond::var(PredInstId(2))]);
        assert!(c.weight() >= 3);
    }
}
