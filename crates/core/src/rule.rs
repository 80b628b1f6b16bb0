//! Access rules and policies (§2 of the paper).
//!
//! An access rule is a 3-uple `<sign, subject, object>` where the object is
//! an XP{[],*,//} expression. Rules propagate to the whole subtree of every
//! object node; conflicts are resolved by *Denial-Takes-Precedence* and
//! *Most-Specific-Object-Takes-Precedence* over a closed policy.

use xsac_xml::TagDict;
use xsac_xpath::{parse_path, Automaton, Path, XPathError};

/// Permission or prohibition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Positive rule (⊕): grants read access.
    Permit,
    /// Negative rule (⊖): denies read access.
    Deny,
}

impl Sign {
    /// True for [`Sign::Permit`].
    pub fn is_permit(self) -> bool {
        matches!(self, Sign::Permit)
    }
}

/// One compiled access rule.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Permission / prohibition.
    pub sign: Sign,
    /// Source path (kept for diagnostics and the oracle).
    pub path: Path,
    /// Compiled ARA.
    pub automaton: Automaton,
}

/// The set of rules attached to one subject on one document — "the access
/// control policy" defining the subject's authorized view.
#[derive(Clone, Debug)]
pub struct Policy {
    /// The subject the policy belongs to; the `USER` variable in rule
    /// predicates resolves to this string.
    pub subject: String,
    /// Compiled rules.
    pub rules: Vec<Rule>,
}

impl Policy {
    /// Builds a policy from `(sign, xpath)` pairs, interning tags in `dict`.
    pub fn parse(
        subject: &str,
        rules: &[(Sign, &str)],
        dict: &mut TagDict,
    ) -> Result<Policy, XPathError> {
        let mut compiled = Vec::with_capacity(rules.len());
        for (sign, expr) in rules {
            let path = parse_path(expr)?;
            let automaton = Automaton::compile(&path, dict);
            compiled.push(Rule { sign: *sign, path, automaton });
        }
        Ok(Policy { subject: subject.to_owned(), rules: compiled })
    }

    /// Applies the static minimization of §3.3: drops rules proven
    /// redundant by the sufficient containment condition. Returns the
    /// number of rules removed.
    pub fn minimize(&mut self) -> usize {
        // Rule scopes are the object node-sets extended by the cascading
        // propagation of §2; the minimizer compares scopes.
        let signed: Vec<(bool, Path)> =
            self.rules.iter().map(|r| (r.sign.is_permit(), r.path.clone())).collect();
        let redundant = xsac_xpath::redundant_rules_report(&signed).redundant;
        let mut removed = 0;
        let mut keep = Vec::with_capacity(self.rules.len());
        for (i, r) in self.rules.drain(..).enumerate() {
            if redundant.contains(&i) {
                removed += 1;
            } else {
                keep.push(r);
            }
        }
        self.rules = keep;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_policy() {
        let mut dict = TagDict::new();
        let p = Policy::parse(
            "doc1",
            &[(Sign::Permit, "//Folder/Admin"), (Sign::Deny, "//Act[RPhys != USER]/Details")],
            &mut dict,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].sign, Sign::Permit);
        assert_eq!(p.rules[1].sign, Sign::Deny);
        assert!(dict.get("Folder").is_some());
    }

    #[test]
    fn parse_error_propagates() {
        let mut dict = TagDict::new();
        assert!(Policy::parse("u", &[(Sign::Permit, "not a path")], &mut dict).is_err());
    }

    #[test]
    fn minimize_drops_contained_same_sign_rule() {
        let mut dict = TagDict::new();
        let mut p =
            Policy::parse("u", &[(Sign::Permit, "//a"), (Sign::Permit, "//a/b")], &mut dict)
                .unwrap();
        assert_eq!(p.minimize(), 1);
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].path.to_string(), "//a");
    }

    #[test]
    fn minimize_keeps_rules_guarded_by_opposite_sign() {
        let mut dict = TagDict::new();
        let mut p = Policy::parse(
            "u",
            &[(Sign::Permit, "//a"), (Sign::Permit, "//a/b"), (Sign::Deny, "//a/b/c")],
            &mut dict,
        )
        .unwrap();
        assert_eq!(p.minimize(), 0, "the deny rule carves an exception");
        assert_eq!(p.rules.len(), 3);
    }

    #[test]
    fn sign_helpers() {
        assert!(Sign::Permit.is_permit());
        assert!(!Sign::Deny.is_permit());
    }
}
