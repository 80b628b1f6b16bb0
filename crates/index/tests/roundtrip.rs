//! Property tests for the skip-index encodings: decode(encode(d)) == d
//! for arbitrary documents, and skipping is position-exact everywhere.
//! Each property runs over small-dictionary documents and over wide ones
//! whose dictionaries span several 64-bit tag-set words.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use xsac_index::decode::{ByteSource, CursorDecoder, DecoderContext, SliceSource};
use xsac_index::encode::{encode_document, Encoding};
use xsac_xml::{Document, Event, Node, NodeId, TagId};

/// Every remaining event of a cursor, as owned events.
fn drain<R: ByteSource>(d: &mut CursorDecoder<R>) -> Vec<Event<'static>>
where
    R::Error: std::fmt::Debug,
{
    let mut out = Vec::new();
    while let Some(ev) = d.next().unwrap() {
        out.push(ev.into_owned());
    }
    out
}

/// The whole document through a cursor resumed over its root context.
fn decode_all(bytes: &[u8], dict_len: usize) -> Vec<Event<'static>> {
    let root = DecoderContext::root(bytes, dict_len).unwrap();
    drain(&mut CursorDecoder::resume(SliceSource(bytes), root))
}

fn cursor(bytes: &[u8], dict_len: usize) -> CursorDecoder<SliceSource<'_>> {
    CursorDecoder::new(SliceSource(bytes), dict_len).unwrap()
}

const TAGS: &[&str] = &["alpha", "b", "cc", "d1", "e"];

fn arb_xml() -> impl Strategy<Value = String> {
    let text = proptest::string::string_regex("[a-z0-9 ]{0,24}").expect("regex");
    let leaf = prop_oneof![
        text.prop_map(|t| t),
        proptest::sample::select(TAGS).prop_map(|t| format!("<{t}></{t}>")),
    ];
    let inner = leaf.prop_recursive(5, 40, 4, |elem| {
        (proptest::sample::select(TAGS), prop::collection::vec(elem, 0..4))
            .prop_map(|(t, cs)| format!("<{t}>{}</{t}>", cs.concat()))
    });
    (proptest::sample::select(TAGS), prop::collection::vec(inner, 0..4))
        .prop_map(|(t, cs)| format!("<{t}>{}</{t}>", cs.concat()))
}

/// Wide documents: tags drawn from 150 names under a root with dozens of
/// subtrees, so dictionaries usually pass 64 entries (multi-word tag
/// sets, tag arrays longer than one 32-bit run), and now and then a text
/// of several hundred bytes, so size fields cross byte boundaries.
fn arb_wide_xml() -> impl Strategy<Value = String> {
    let tag = || (0u32..150).prop_map(|i| format!("t{i}"));
    let text = prop_oneof![
        4 => proptest::string::string_regex("[a-z0-9 ]{0,24}").expect("regex"),
        1 => proptest::string::string_regex("[a-z ]{200,700}").expect("regex"),
    ];
    let leaf = prop_oneof![text, tag().prop_map(|t| format!("<{t}></{t}>"))];
    let inner = leaf.prop_recursive(4, 0, 0, move |elem| {
        (tag(), prop::collection::vec(elem, 0..5))
            .prop_map(|(t, cs)| format!("<{t}>{}</{t}>", cs.concat()))
    });
    (tag(), prop::collection::vec(inner, 20..60))
        .prop_map(|(t, cs)| format!("<{t}>{}</{t}>", cs.concat()))
}

fn check_roundtrip(xml: &str) -> Result<(), TestCaseError> {
    let doc = Document::parse(xml).unwrap();
    let enc = encode_document(&doc, Encoding::TCSBR);
    let events = decode_all(&enc.bytes, doc.dict.len());
    prop_assert_eq!(&events, &doc.events(), "roundtrip of {}", xml);
    let walked = drain(&mut cursor(&enc.bytes, doc.dict.len()));
    prop_assert_eq!(walked, events, "cursor roundtrip of {}", xml);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..Default::default() })]

    #[test]
    fn tcsbr_roundtrip(xml in arb_xml()) {
        check_roundtrip(&xml)?;
    }

    /// Skipping the i-th top-level element must land exactly on its next
    /// sibling for every i.
    #[test]
    fn skip_everywhere_is_position_exact(xml in arb_xml(), which in 0usize..8) {
        check_skip(&xml, which)?;
    }

    /// Readback of any saved element context reproduces the subtree, and
    /// of every rest context the records left in its element.
    #[test]
    fn readback_everywhere(xml in arb_xml(), which in 0usize..6) {
        check_readback(&xml, which)?;
    }

    /// Every element the cursor opens exposes its `DescTag_e` as the
    /// sorted descendant-tag list of the tree.
    #[test]
    fn last_desc_is_the_descendant_tag_set(xml in arb_xml()) {
        check_last_desc(&xml)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

    #[test]
    fn tcsbr_roundtrip_wide(xml in arb_wide_xml()) {
        check_roundtrip(&xml)?;
    }

    #[test]
    fn skip_everywhere_is_position_exact_wide(xml in arb_wide_xml(), which in 0usize..60) {
        check_skip(&xml, which)?;
    }

    #[test]
    fn readback_everywhere_wide(xml in arb_wide_xml(), which in 0usize..200) {
        check_readback(&xml, which)?;
    }

    #[test]
    fn last_desc_is_the_descendant_tag_set_wide(xml in arb_wide_xml()) {
        check_last_desc(&xml)?;
    }
}

/// The sorted set of tags (text included) strictly below `id`.
fn descendant_tags(doc: &Document, id: NodeId) -> Vec<TagId> {
    fn collect(doc: &Document, id: NodeId, out: &mut BTreeSet<TagId>) {
        for &c in doc.children(id) {
            out.insert(match doc.node(c) {
                Node::Element { tag, .. } => *tag,
                Node::Text(_) => TagId::TEXT,
            });
            collect(doc, c, out);
        }
    }
    let mut tags = BTreeSet::new();
    collect(doc, id, &mut tags);
    tags.into_iter().collect()
}

fn check_last_desc(xml: &str) -> Result<(), TestCaseError> {
    let doc = Document::parse(xml).unwrap();
    let enc = encode_document(&doc, Encoding::TCSBR);
    let mut elements = doc
        .preorder()
        .into_iter()
        .map(|(id, _)| id)
        .filter(|&id| matches!(doc.node(id), Node::Element { .. }));
    let mut d = cursor(&enc.bytes, doc.dict.len());
    while let Some(ev) = d.next().unwrap() {
        if matches!(ev, Event::Open(_)) {
            let id = elements.next().expect("one element per open");
            prop_assert_eq!(
                d.last_desc(),
                &descendant_tags(&doc, id)[..],
                "element {:?} of {}",
                id,
                xml
            );
        }
    }
    prop_assert!(elements.next().is_none());
    Ok(())
}

fn check_skip(xml: &str, which: usize) -> Result<(), TestCaseError> {
    let doc = Document::parse(xml).unwrap();
    let enc = encode_document(&doc, Encoding::TCSBR);
    // Reference: full event stream.
    let full = decode_all(&enc.bytes, doc.dict.len());
    // Walk again, skipping the `which`-th element at depth 2.
    let mut d = cursor(&enc.bytes, doc.dict.len());
    let mut got: Vec<Event<'static>> = Vec::new();
    let mut seen = 0usize;
    let mut skipped_any = false;
    while let Some(ev) = d.next().unwrap() {
        let ev = ev.into_owned();
        if matches!(ev, Event::Open(_)) && d.depth() == 2 {
            seen += 1;
            if seen - 1 == which {
                skipped_any = true;
                d.skip_current();
                continue;
            }
        }
        got.push(ev);
    }
    if !skipped_any {
        // Fewer than `which` children: plain roundtrip.
        prop_assert_eq!(got, full);
        return Ok(());
    }
    // Expected: full stream minus the skipped subtree's events.
    let mut expected: Vec<Event<'_>> = Vec::new();
    let mut seen = 0usize;
    let mut depth = 0usize;
    let mut skipping = 0usize; // depth at which the skip started
    for ev in full {
        match &ev {
            Event::Open(_) => {
                depth += 1;
                if skipping == 0 && depth == 2 {
                    if seen == which {
                        seen += 1;
                        skipping = depth;
                        continue;
                    }
                    seen += 1;
                }
            }
            Event::Close(_) => {
                if skipping > 0 && depth == skipping {
                    skipping = 0;
                    depth -= 1;
                    continue;
                }
                depth -= 1;
            }
            Event::Text(_) => {}
        }
        if skipping == 0 {
            expected.push(ev);
        }
    }
    prop_assert_eq!(got, expected);
    Ok(())
}

/// Walks the whole document, saving the context of its `which`-th
/// element and, after every close inside the root, the rest context of
/// the element left open (a forest that may start with text). Each saved
/// context, read back through [`CursorDecoder::read_range`], must
/// reproduce exactly its slice of the walk.
fn check_readback(xml: &str, which: usize) -> Result<(), TestCaseError> {
    let doc = Document::parse(xml).unwrap();
    let enc = encode_document(&doc, Encoding::TCSBR);
    let mut d = cursor(&enc.bytes, doc.dict.len());
    // Each event of the walk with the depth after it.
    let mut walk: Vec<(Event<'static>, usize)> = Vec::new();
    // (context, index of its first event, true for a whole subtree)
    let mut saved: Vec<(DecoderContext, usize, bool)> = Vec::new();
    let mut opens = 0usize;
    while let Some(ev) = d.next().unwrap() {
        let ev = ev.into_owned();
        match ev {
            Event::Open(_) => {
                if opens == which {
                    saved.push((d.last_element_context().unwrap(), walk.len(), true));
                }
                opens += 1;
            }
            Event::Close(_) => {
                if let Some(rest) = d.rest_context() {
                    saved.push((rest, walk.len() + 1, false));
                }
            }
            Event::Text(_) => {}
        }
        walk.push((ev, d.depth()));
    }
    for (ctx, first, subtree) in saved {
        let expected: Vec<Event<'static>> = if subtree {
            // The open, then everything up to the close that returns to
            // the depth the open started from.
            let base = walk[first].1 - 1;
            let len = walk[first..].iter().position(|(_, depth)| *depth == base).unwrap() + 1;
            walk[first..first + len].iter().map(|(ev, _)| ev.clone()).collect()
        } else {
            // Everything up to the enclosing element's close.
            let level = walk[first - 1].1;
            let tail = walk[first..].iter().take_while(|(_, depth)| *depth >= level);
            tail.map(|(ev, _)| ev.clone()).collect()
        };
        let got = drain(&mut d.read_range(&ctx).unwrap());
        prop_assert_eq!(got, expected, "context {:?} of {}", ctx, xml);
    }
    Ok(())
}
