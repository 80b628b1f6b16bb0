//! Abstract syntax for XP{[],*,//}.

use std::fmt;

/// Step axis: `/` (child) or `//` (descendant-or-self composed with child,
/// i.e. the usual abbreviated descendant axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/name`
    Child,
    /// `//name`
    Descendant,
}

/// Node test of a step.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NameTest {
    /// Named element test.
    Name(String),
    /// Wildcard `*`.
    Wildcard,
}

impl NameTest {
    /// True when the test accepts `name`.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            NameTest::Name(n) => n == name,
            NameTest::Wildcard => true,
        }
    }
}

/// Comparison operator inside a predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates `left op right`, comparing numerically when both sides
    /// parse as numbers, lexicographically otherwise (the paper's rules
    /// compare both numbers, e.g. `[Cholesterol > 250]`, and strings, e.g.
    /// `[Type = G3]`).
    pub fn eval(self, left: &str, right: &str) -> bool {
        let l = left.trim();
        let r = right.trim();
        if let (Ok(lf), Ok(rf)) = (l.parse::<f64>(), r.parse::<f64>()) {
            match self {
                CmpOp::Eq => lf == rf,
                CmpOp::Ne => lf != rf,
                CmpOp::Lt => lf < rf,
                CmpOp::Le => lf <= rf,
                CmpOp::Gt => lf > rf,
                CmpOp::Ge => lf >= rf,
            }
        } else {
            match self {
                CmpOp::Eq => l == r,
                CmpOp::Ne => l != r,
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
            }
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Right-hand side of a predicate comparison.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// A literal (quoted or bare word / number).
    Literal(String),
    /// The `USER` variable, bound to the subject at evaluation time
    /// (e.g. `//MedActs[//RPhys = USER]` — Figure 1).
    User,
}

impl Value {
    /// Resolves against the current subject.
    pub fn resolve<'a>(&'a self, user: &'a str) -> &'a str {
        match self {
            Value::Literal(s) => s,
            Value::User => user,
        }
    }
}

/// A predicate `[path]` or `[path op value]`.
///
/// The path is *relative* to the anchor element; an empty path denotes the
/// anchor itself (`[. = v]`). Predicate paths are linear, matching the ARA
/// structure of §3.1 ("an ARA includes one navigational path and optionally
/// one or several predicate paths").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// Relative steps from the anchor element (possibly empty = self).
    pub steps: Vec<Step>,
    /// Optional comparison on the matched element's immediate text.
    pub comparison: Option<(CmpOp, Value)>,
}

/// One location step.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Step {
    /// Axis connecting this step to the previous one.
    pub axis: Axis,
    /// Node test.
    pub test: NameTest,
    /// Predicates attached to this step.
    pub predicates: Vec<Predicate>,
}

/// An absolute XP{[],*,//} path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Path {
    /// Steps from the document root.
    pub steps: Vec<Step>,
}

impl Path {
    /// Total number of predicates anywhere in the path.
    pub fn predicate_count(&self) -> usize {
        self.steps.iter().map(|s| s.predicates.len()).sum()
    }
}

impl fmt::Display for NameTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameTest::Name(n) => f.write_str(n),
            NameTest::Wildcard => f.write_str("*"),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        if self.steps.is_empty() {
            f.write_str(".")?;
        } else {
            for (i, s) in self.steps.iter().enumerate() {
                let sep = match s.axis {
                    Axis::Child if i == 0 => "",
                    Axis::Child => "/",
                    Axis::Descendant => "//",
                };
                write!(f, "{sep}{}", s.test)?;
                for p in &s.predicates {
                    write!(f, "{p}")?;
                }
            }
        }
        if let Some((op, v)) = &self.comparison {
            match v {
                Value::Literal(s) => write!(f, " {op} {s}")?,
                Value::User => write!(f, " {op} USER")?,
            }
        }
        f.write_str("]")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            let sep = match s.axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            };
            write!(f, "{sep}{}", s.test)?;
            for p in &s.predicates {
                write!(f, "{p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_numeric_vs_string() {
        assert!(CmpOp::Gt.eval("260", "250"));
        assert!(!CmpOp::Gt.eval("9", "250")); // numeric, not lexicographic
        assert!(CmpOp::Eq.eval("G3", "G3"));
        assert!(CmpOp::Ne.eval("G3", "G4"));
        assert!(CmpOp::Lt.eval("abc", "abd")); // lexicographic fallback
        assert!(CmpOp::Le.eval("5", "5.0")); // numeric equality
    }

    #[test]
    fn cmp_trims_whitespace() {
        assert!(CmpOp::Eq.eval(" 250 ", "250"));
    }

    #[test]
    fn value_resolution() {
        assert_eq!(Value::User.resolve("doc1"), "doc1");
        assert_eq!(Value::Literal("G3".into()).resolve("doc1"), "G3");
    }

    #[test]
    fn nametest_matching() {
        assert!(NameTest::Wildcard.matches("anything"));
        assert!(NameTest::Name("a".into()).matches("a"));
        assert!(!NameTest::Name("a".into()).matches("b"));
    }
}
