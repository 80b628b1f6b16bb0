//! Serialization of events and trees back to XML text.

use crate::dict::{TagDict, TagId};
use crate::escape::escape;
use crate::event::Event;
use crate::tree::{Document, Node, NodeId};

/// Streaming serializer: feed it events, read out XML text.
pub struct XmlWriter<'d> {
    dict: &'d TagDict,
    out: String,
}

impl<'d> XmlWriter<'d> {
    /// Compact writer (no insignificant whitespace).
    pub fn new(dict: &'d TagDict) -> Self {
        XmlWriter { dict, out: String::new() }
    }

    /// Handles one event.
    pub fn event(&mut self, ev: &Event<'_>) {
        match ev {
            Event::Open(tag) => {
                self.out.push('<');
                self.out.push_str(self.dict.name(*tag));
                self.out.push('>');
            }
            Event::Text(text) => self.out.push_str(&escape(text)),
            Event::Close(tag) => {
                self.out.push_str("</");
                self.out.push_str(self.dict.name(*tag));
                self.out.push('>');
            }
        }
    }

    /// Consumes the writer, returning the XML text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Serializes a whole document compactly.
pub fn document_to_string(doc: &Document) -> String {
    let mut w = XmlWriter::new(&doc.dict);
    doc.emit(doc.root(), &mut |e| w.event(e));
    w.finish()
}

/// Byte length of the *textual* XML serialization of a node, used by the
/// `NC` (non-compressed) encoding baseline of Figure 8.
pub fn textual_len(doc: &Document, id: NodeId) -> usize {
    match doc.node(id) {
        Node::Text(t) => escape(t).len(),
        Node::Element { tag, children } => {
            let name = doc.dict.name(*tag).len();
            // <tag> + </tag>
            let mut n = name * 2 + 5;
            for &c in children {
                n += textual_len(doc, c);
            }
            n
        }
    }
}

/// A dummy tag name used when the structural rule replaces denied ancestor
/// names (§2: "names of denied elements in this path can be replaced by a
/// dummy value").
pub const DUMMY_TAG_NAME: &str = "_";

/// Ensures `dict` contains the dummy tag, returning its id.
pub fn dummy_tag(dict: &mut TagDict) -> TagId {
    dict.intern(DUMMY_TAG_NAME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let xml = "<a><b>x &amp; y</b><c></c></a>";
        let doc = Document::parse(xml).unwrap();
        assert_eq!(document_to_string(&doc), xml);
    }

    #[test]
    fn subtree_serialization() {
        let doc = Document::parse("<a><b>x</b><c>y</c></a>").unwrap();
        let b = doc.children(doc.root())[0];
        let mut w = XmlWriter::new(&doc.dict);
        doc.emit(b, &mut |e| w.event(e));
        assert_eq!(w.finish(), "<b>x</b>");
    }

    #[test]
    fn textual_len_matches_serialization() {
        let doc = Document::parse("<a><b>x &amp; y</b><c></c></a>").unwrap();
        assert_eq!(textual_len(&doc, doc.root()), document_to_string(&doc).len());
    }

    #[test]
    fn parse_serialize_parse_is_identity() {
        let xml = "<r><x a=\"1\">one</x><y><z>two</z></y></r>";
        let d1 = Document::parse(xml).unwrap();
        let s1 = document_to_string(&d1);
        let d2 = Document::parse(&s1).unwrap();
        assert_eq!(d1.events(), d2.events());
    }
}
