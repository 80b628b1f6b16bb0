//! Property tests for the skip-index encodings: decode(encode(d)) == d
//! for arbitrary documents, and skipping is position-exact everywhere.
//! Each property runs over small-dictionary documents and over wide ones
//! whose dictionaries span several 64-bit tag-set words.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use xsac_index::decode::{decode_range, CursorDecoder, DecoderContext, SliceSource};
use xsac_index::encode::{encode_document, Encoding};
use xsac_xml::{Document, Event, Node, NodeId, TagId};

/// The whole document through the range decoder, under its root context.
fn decode_all(bytes: &[u8], dict_len: usize) -> Vec<Event<'_>> {
    let mut out = Vec::new();
    decode_range(bytes, 0, &DecoderContext::root(bytes, dict_len).unwrap(), &mut out).unwrap();
    out
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
    let mut d = cursor(&enc.bytes, doc.dict.len());
    let mut walked: Vec<Event<'static>> = Vec::new();
    while let Some(ev) = d.next().unwrap() {
        walked.push(ev.into_owned());
    }
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

    /// Readback of any saved element context reproduces the subtree.
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

fn check_readback(xml: &str, which: usize) -> Result<(), TestCaseError> {
    let doc = Document::parse(xml).unwrap();
    let enc = encode_document(&doc, Encoding::TCSBR);
    let mut d = cursor(&enc.bytes, doc.dict.len());
    let mut count = 0usize;
    let mut saved = None;
    while let Some(ev) = d.next().unwrap() {
        if matches!(ev, Event::Open(_)) {
            if count == which {
                saved = d.last_element_context();
            }
            count += 1;
        }
    }
    if let Some(ctx) = saved {
        let mut events = Vec::new();
        decode_range(&enc.bytes, 0, &ctx, &mut events).unwrap();
        prop_assert!(matches!(events.first(), Some(Event::Open(_))));
        prop_assert!(matches!(events.last(), Some(Event::Close(_))));
        // Balanced and self-contained.
        let mut depth = 0i64;
        for ev in &events {
            match ev {
                Event::Open(_) => depth += 1,
                Event::Close(_) => depth -= 1,
                _ => {}
            }
            prop_assert!(depth >= 0);
        }
        prop_assert_eq!(depth, 0);
    }
    Ok(())
}
