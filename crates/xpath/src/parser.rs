//! Parser for the XP{[],*,//} fragment.
//!
//! Grammar (whitespace insignificant except inside quoted literals):
//!
//! ```text
//! path      := ('/' | '//') step (('/' | '//') step)*
//! step      := nametest predicate*
//! nametest  := NAME | '*'
//! predicate := '[' relpath (cmp value)? ']'
//! relpath   := '.' | ('//')? step (('/' | '//') step)*
//! cmp       := '=' | '!=' | '<' | '<=' | '>' | '>='
//! value     := quoted | bareword | 'USER' | '$USER'
//! ```

use crate::ast::{Axis, CmpOp, NameTest, Path, Predicate, Step, Value};
use std::fmt;

/// XPath parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset in the expression.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XPathError {}

struct Cursor<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, XPathError> {
        Err(XPathError { offset: self.pos, message: message.into() })
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let r = self.rest();
        let t = r.trim_start();
        self.pos += r.len() - t.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// `//` must be checked before `/`.
    fn take_axis(&mut self) -> Option<Axis> {
        if self.eat("//") {
            Some(Axis::Descendant)
        } else if self.eat("/") {
            Some(Axis::Child)
        } else {
            None
        }
    }

    fn take_name(&mut self) -> Result<String, XPathError> {
        let r = self.rest();
        let end = r
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '@')))
            .map(|(i, _)| i)
            .unwrap_or(r.len());
        if end == 0 {
            return self.err("expected an element name or '*'");
        }
        self.pos += end;
        Ok(r[..end].to_owned())
    }

    fn take_nametest(&mut self) -> Result<NameTest, XPathError> {
        if self.eat("*") {
            Ok(NameTest::Wildcard)
        } else {
            Ok(NameTest::Name(self.take_name()?))
        }
    }

    fn take_cmp(&mut self) -> Option<CmpOp> {
        self.skip_ws();
        // Longest operators first.
        for (tok, op) in [
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ] {
            if self.eat(tok) {
                return Some(op);
            }
        }
        None
    }

    fn take_value(&mut self) -> Result<Value, XPathError> {
        self.skip_ws();
        match self.peek() {
            Some(q @ ('"' | '\'')) => {
                self.pos += 1;
                let r = self.rest();
                let Some(end) = r.find(q) else {
                    return self.err("unterminated string literal");
                };
                let v = r[..end].to_owned();
                self.pos += end + 1;
                Ok(Value::Literal(v))
            }
            Some(_) => {
                // Bare word up to ']' (trimmed); `USER` / `$USER` is special.
                let r = self.rest();
                let Some(end) = r.find(']') else {
                    return self.err("expected ']' after predicate value");
                };
                let raw = r[..end].trim();
                if raw.is_empty() {
                    return self.err("empty predicate value");
                }
                self.pos += end; // leave ']' for the caller
                if raw == "USER" || raw == "$USER" {
                    Ok(Value::User)
                } else {
                    Ok(Value::Literal(raw.to_owned()))
                }
            }
            None => self.err("expected a value"),
        }
    }

    fn take_predicate(&mut self) -> Result<Predicate, XPathError> {
        // '[' already consumed.
        self.skip_ws();
        let mut steps = Vec::new();
        if self.eat(".") {
            // self path
        } else {
            // Optional leading '//' (e.g. `[//RPhys = USER]`); a leading
            // name means a child step (`[Protocol]` ≡ `[./Protocol]`).
            let first_axis = if self.eat("//") {
                Axis::Descendant
            } else {
                let _ = self.eat("/"); // tolerate explicit './'-less '/'
                Axis::Child
            };
            let test = self.take_nametest()?;
            steps.push(Step { axis: first_axis, test, predicates: Vec::new() });
            while let Some(axis) = self.take_axis() {
                let test = self.take_nametest()?;
                steps.push(Step { axis, test, predicates: Vec::new() });
            }
        }
        self.skip_ws();
        let comparison = match self.take_cmp() {
            Some(op) => {
                let value = self.take_value()?;
                Some((op, value))
            }
            None => None,
        };
        self.skip_ws();
        if !self.eat("]") {
            return self.err(
                "expected ']' (nested predicates are not part of the linear ARA predicate paths)",
            );
        }
        Ok(Predicate { steps, comparison })
    }
}

/// Parses an absolute XP{[],*,//} path such as
/// `//Folder[Protocol/Type=G3]//LabResults//G3`.
pub fn parse_path(input: &str) -> Result<Path, XPathError> {
    let mut c = Cursor { input, pos: 0 };
    c.skip_ws();
    let mut steps = Vec::new();
    let Some(first_axis) = c.take_axis() else {
        return c.err("a path must start with '/' or '//'");
    };
    let mut axis = first_axis;
    loop {
        let test = c.take_nametest()?;
        let mut predicates = Vec::new();
        loop {
            c.skip_ws();
            if c.eat("[") {
                predicates.push(c.take_predicate()?);
            } else {
                break;
            }
        }
        steps.push(Step { axis, test, predicates });
        c.skip_ws();
        match c.take_axis() {
            Some(a) => axis = a,
            None => break,
        }
    }
    c.skip_ws();
    if c.pos != c.input.len() {
        return c.err(format!("unexpected trailing input: {:?}", c.rest()));
    }
    Ok(Path { steps })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        parse_path(s).unwrap_or_else(|e| panic!("{s}: {e}"))
    }

    #[test]
    fn simple_child_path() {
        let path = p("/a/b/c");
        assert_eq!(path.steps.len(), 3);
        assert!(path.steps.iter().all(|s| s.axis == Axis::Child));
    }

    #[test]
    fn descendant_and_wildcard() {
        let path = p("//a/*/b");
        assert_eq!(path.steps[0].axis, Axis::Descendant);
        assert_eq!(path.steps[1].test, NameTest::Wildcard);
    }

    #[test]
    fn paper_rules_parse() {
        // Every rule from Figures 1 and 7 of the paper.
        for expr in [
            "//Folder/Admin",
            "//MedActs[//RPhys = USER]",
            "//Act[RPhys != USER]/Details",
            "//Folder[MedActs//RPhys = USER]/Analysis",
            "//Folder[Protocol]//Age",
            "//Folder[Protocol/Type=G3]//LabResults//G3",
            "//G3[Cholesterol > 250]",
            "//Admin",
            "/a[d = 4]/c",
            "//c/e[m=3]",
            "//c[//i = 3]//f",
            "//h[k = 2]",
            "//Folder[//Age>65]",
        ] {
            let _ = p(expr);
        }
    }

    #[test]
    fn predicate_structure() {
        let path = p("//Folder[Protocol/Type=G3]//LabResults");
        let pred = &path.steps[0].predicates[0];
        assert_eq!(pred.steps.len(), 2);
        assert_eq!(pred.steps[0].axis, Axis::Child);
        assert_eq!(pred.comparison, Some((CmpOp::Eq, Value::Literal("G3".into()))));
        assert_eq!(path.predicate_count(), 1);
    }

    #[test]
    fn user_variable() {
        let path = p("//MedActs[//RPhys = USER]");
        let pred = &path.steps[0].predicates[0];
        assert_eq!(pred.steps[0].axis, Axis::Descendant);
        assert_eq!(pred.comparison, Some((CmpOp::Eq, Value::User)));
    }

    #[test]
    fn self_predicate() {
        let path = p("//Age[. > 65]");
        let pred = &path.steps[0].predicates[0];
        assert!(pred.steps.is_empty());
        assert_eq!(pred.comparison, Some((CmpOp::Gt, Value::Literal("65".into()))));
    }

    #[test]
    fn quoted_values() {
        let path = p("//a[b = \"x y]z\"]");
        let pred = &path.steps[0].predicates[0];
        assert_eq!(pred.comparison, Some((CmpOp::Eq, Value::Literal("x y]z".into()))));
    }

    #[test]
    fn multiple_predicates_per_step() {
        let path = p("//a[b][c=1]/d");
        assert_eq!(path.steps[0].predicates.len(), 2);
        assert_eq!(path.predicate_count(), 2);
    }

    #[test]
    fn display_roundtrip() {
        for expr in [
            "//Folder/Admin",
            "//Folder[MedActs//RPhys = USER]/Analysis",
            "/a[d = 4]/c",
            "//a[b][c = 1]/d",
            "//x[. = 5]",
            "//a/*/b",
        ] {
            let parsed = p(expr);
            let printed = parsed.to_string();
            assert_eq!(p(&printed), parsed, "roundtrip of {expr} via {printed}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse_path("a/b").is_err(), "relative path");
        assert!(parse_path("/a[").is_err(), "unterminated predicate");
        assert!(parse_path("/a[b=]").is_err(), "missing value");
        assert!(parse_path("/a]").is_err(), "trailing junk");
        assert!(parse_path("//").is_err(), "missing name");
        assert!(parse_path("").is_err(), "empty");
    }
}
