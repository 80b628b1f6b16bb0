//! A pull parser producing [`Event`]s from XML text.
//!
//! The parser covers the XML subset exercised by the paper's datasets:
//! elements, attributes, character data, entity references, comments,
//! processing instructions, CDATA sections and a document prolog.
//!
//! Following §2 of the paper ("Attributes are handled in the model similarly
//! to elements"), attributes are surfaced as child elements whose names are
//! prefixed with `@`, opened (and closed) immediately after their owner
//! element opens.

use crate::dict::{TagDict, TagId};
use crate::escape::unescape;
use crate::event::Event;
use std::borrow::Cow;
use std::fmt;

/// Parser error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A pull parser over a UTF-8 XML string.
///
/// Tags are interned into the supplied [`TagDict`] as they are encountered.
/// Whitespace-only text is dropped, matching the data-oriented documents
/// of the paper.
pub struct Parser<'a, 'd> {
    input: &'a str,
    pos: usize,
    dict: &'d mut TagDict,
    /// Stack of currently open elements.
    open: Vec<TagId>,
    /// Attribute events queued after an element open.
    queued: Vec<Event<'a>>,
    finished: bool,
}

impl<'a, 'd> Parser<'a, 'd> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str, dict: &'d mut TagDict) -> Self {
        Parser { input, pos: 0, dict, open: Vec::new(), queued: Vec::new(), finished: false }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.into() })
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        let trimmed = rest.trim_start_matches([' ', '\t', '\r', '\n']);
        self.pos += rest.len() - trimmed.len();
    }

    fn take_name(&mut self) -> Result<&'a str, ParseError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !is_name_char(*c))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return self.err("expected a name");
        }
        self.pos += end;
        Ok(&rest[..end])
    }

    /// Skips `<!-- ... -->`, `<? ... ?>`, `<!DOCTYPE ...>` constructs.
    fn skip_misc(&mut self) -> Result<bool, ParseError> {
        let rest = self.rest();
        if let Some(stripped) = rest.strip_prefix("<!--") {
            match stripped.find("-->") {
                Some(i) => {
                    self.pos += 4 + i + 3;
                    Ok(true)
                }
                None => self.err("unterminated comment"),
            }
        } else if rest.starts_with("<?") {
            match rest.find("?>") {
                Some(i) => {
                    self.pos += i + 2;
                    Ok(true)
                }
                None => self.err("unterminated processing instruction"),
            }
        } else if rest.starts_with("<!DOCTYPE") {
            // No internal-subset support; skip to the first '>'.
            match rest.find('>') {
                Some(i) => {
                    self.pos += i + 1;
                    Ok(true)
                }
                None => self.err("unterminated DOCTYPE"),
            }
        } else {
            Ok(false)
        }
    }

    /// Returns the next event, or `None` at end of input.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        if let Some(ev) = self.queued.pop() {
            return Ok(Some(ev));
        }
        loop {
            if self.finished {
                return Ok(None);
            }
            if self.open.is_empty() {
                self.skip_ws();
            }
            if self.pos >= self.input.len() {
                if !self.open.is_empty() {
                    return self
                        .err(format!("{} unclosed element(s) at end of input", self.open.len()));
                }
                self.finished = true;
                return Ok(None);
            }
            let rest = self.rest();
            if rest.starts_with("<!--") || rest.starts_with("<?") || rest.starts_with("<!DOCTYPE") {
                self.skip_misc()?;
                continue;
            }
            if let Some(cdata) = rest.strip_prefix("<![CDATA[") {
                let Some(i) = cdata.find("]]>") else {
                    return self.err("unterminated CDATA section");
                };
                let text = &cdata[..i];
                self.pos += 9 + i + 3;
                if text.is_empty() || self.open.is_empty() {
                    // CDATA outside the root is ignored like other
                    // top-level character data.
                    continue;
                }
                return Ok(Some(Event::Text(Cow::Borrowed(text))));
            }
            if let Some(after) = rest.strip_prefix("</") {
                let _ = after;
                self.pos += 2;
                let name = self.take_name()?;
                self.skip_ws();
                if !self.rest().starts_with('>') {
                    return self.err("expected '>' after closing tag name");
                }
                self.pos += 1;
                let tag = self.dict.get(name);
                match (self.open.pop(), tag) {
                    (Some(top), Some(t)) if top == t => return Ok(Some(Event::Close(t))),
                    (Some(top), _) => {
                        return self.err(format!(
                            "mismatched closing tag </{}>, expected </{}>",
                            name,
                            self.dict.name(top)
                        ))
                    }
                    (None, _) => {
                        return self.err(format!("closing tag </{name}> with no open element"))
                    }
                }
            }
            if rest.starts_with('<') {
                self.pos += 1;
                let name = self.take_name()?;
                let tag = self.dict.intern(name);
                // Attributes.
                let mut attr_events: Vec<Event<'a>> = Vec::new();
                loop {
                    self.skip_ws();
                    let rest = self.rest();
                    if rest.starts_with("/>") {
                        self.pos += 2;
                        // Self-closing: emit open now, queue attrs + close.
                        self.queued.push(Event::Close(tag));
                        for ev in attr_events.into_iter().rev() {
                            self.queued.push(ev);
                        }
                        return Ok(Some(Event::Open(tag)));
                    }
                    if rest.starts_with('>') {
                        self.pos += 1;
                        self.open.push(tag);
                        for ev in attr_events.into_iter().rev() {
                            self.queued.push(ev);
                        }
                        return Ok(Some(Event::Open(tag)));
                    }
                    if rest.is_empty() {
                        return self.err("unterminated opening tag");
                    }
                    // attribute name="value"
                    let aname = self.take_name()?;
                    self.skip_ws();
                    if !self.rest().starts_with('=') {
                        return self.err(format!("expected '=' after attribute {aname}"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.rest().chars().next() {
                        Some(q @ ('"' | '\'')) => q,
                        _ => return self.err("expected quoted attribute value"),
                    };
                    self.pos += 1;
                    let rest = self.rest();
                    let Some(endq) = rest.find(quote) else {
                        return self.err("unterminated attribute value");
                    };
                    let raw = &rest[..endq];
                    self.pos += endq + 1;
                    let attr_tag = self.dict.intern(&format!("@{aname}"));
                    attr_events.push(Event::Open(attr_tag));
                    attr_events.push(Event::Text(unescape(raw)));
                    attr_events.push(Event::Close(attr_tag));
                }
            }
            // Character data up to the next '<'.
            let end = rest.find('<').unwrap_or(rest.len());
            let raw = &rest[..end];
            self.pos += end;
            if self.open.is_empty() {
                // Text outside the root (prolog whitespace) is ignored.
                continue;
            }
            if raw.trim().is_empty() {
                continue;
            }
            return Ok(Some(Event::Text(unescape(raw))));
        }
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '@')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_events(mut p: Parser<'_, '_>) -> Result<Vec<Event<'static>>, ParseError> {
        let mut out = Vec::new();
        while let Some(ev) = p.next()? {
            out.push(ev.into_owned());
        }
        Ok(out)
    }

    fn parse(input: &str) -> (Vec<Event<'static>>, TagDict) {
        let mut dict = TagDict::new();
        let events = collect_events(Parser::new(input, &mut dict)).expect("parse");
        (events, dict)
    }

    #[test]
    fn simple_document() {
        let (events, dict) = parse("<a><b>hi</b><c/></a>");
        let a = dict.get("a").unwrap();
        let b = dict.get("b").unwrap();
        let c = dict.get("c").unwrap();
        assert_eq!(
            events,
            vec![
                Event::Open(a),
                Event::Open(b),
                Event::Text("hi".into()),
                Event::Close(b),
                Event::Open(c),
                Event::Close(c),
                Event::Close(a),
            ]
        );
    }

    #[test]
    fn attributes_become_elements() {
        let (events, dict) = parse(r#"<a id="7">x</a>"#);
        let a = dict.get("a").unwrap();
        let id = dict.get("@id").unwrap();
        assert_eq!(
            events,
            vec![
                Event::Open(a),
                Event::Open(id),
                Event::Text("7".into()),
                Event::Close(id),
                Event::Text("x".into()),
                Event::Close(a),
            ]
        );
    }

    #[test]
    fn prolog_comments_cdata() {
        let (events, dict) =
            parse("<?xml version=\"1.0\"?><!DOCTYPE a><a><!-- c --><![CDATA[1<2]]></a>");
        let a = dict.get("a").unwrap();
        assert_eq!(events, vec![Event::Open(a), Event::Text("1<2".into()), Event::Close(a)]);
    }

    #[test]
    fn whitespace_text_skipped_by_default() {
        let (events, _) = parse("<a>\n  <b>x</b>\n</a>");
        assert_eq!(events.iter().filter(|e| matches!(e, Event::Text(_))).count(), 1);
    }

    #[test]
    fn entities_resolved() {
        let (events, _) = parse("<a>x &amp; y &lt; z</a>");
        assert!(matches!(&events[1], Event::Text(t) if t == "x & y < z"));
    }

    #[test]
    fn mismatched_close_is_error() {
        let mut dict = TagDict::new();
        let err = collect_events(Parser::new("<a><b></a></b>", &mut dict)).unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn unclosed_element_is_error() {
        let mut dict = TagDict::new();
        let err = collect_events(Parser::new("<a><b>", &mut dict)).unwrap_err();
        assert!(err.message.contains("unclosed"));
    }

    #[test]
    fn stray_close_is_error() {
        let mut dict = TagDict::new();
        let err = collect_events(Parser::new("</a>", &mut dict)).unwrap_err();
        assert!(err.message.contains("no open element"));
    }
}
