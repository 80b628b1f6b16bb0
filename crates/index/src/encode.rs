//! Server-side encoding of a document under the five Figure-8 variants.
//!
//! ## TCSBR (the Skip index, §4.1)
//!
//! Every node is a byte-aligned record:
//!
//! ```text
//! [leaf:1][tag-index:⌈log2 |DescTag_parent|⌉][size:⌈log2 (BodySize_parent+1)⌉]
//! [tag-array:|DescTag_parent| bits — internal elements only][pad][body…]
//! ```
//!
//! * the *tag index* points into the parent's descendant-tag list
//!   (`Log2(DescTag_parent(e)) bits suffice to encode the tag of e`);
//! * the *size* is the byte length of the record body (subtree records or
//!   raw text bytes), coded relative to the parent's own body size
//!   (`a recursive scheme reduces the encoding to
//!   log2(SubtreeSize_parent(e)) bits`); storing sizes makes closing tags
//!   unnecessary;
//! * the *tag array* is the bitmap of descendant tags over the parent's
//!   descendant-tag list (the recursive reduction of §4.1); leaves omit it
//!   ("an additional bit is added to each node" to distinguish them);
//! * text nodes are leaves under the reserved `#text` dictionary entry,
//!   their size is the text byte length.
//!
//! A node's body size depends on its children's header widths, which
//! depend on that very body size; the encoder resolves the circularity by
//! a monotone fixed-point iteration (the paper acknowledges the same
//! power-of-2 sensitivity when discussing updates).
//!
//! ## Other variants
//!
//! `NC` is the textual document. `TC` is a byte-aligned event stream
//! (2-bit event code + global-width tag codes). `TCS` adds global-width
//! subtree sizes and drops closing tags. `TCSB` adds a full-dictionary
//! bitmap per internal element. All sizes reported include the serialized
//! tag dictionary for the compressed variants.

use crate::bits::{width_for, BitSink, BitWriter};
use xsac_xml::{Document, Node, NodeId, TagId};

/// The five encodings of Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Non-compressed textual XML.
    NC,
    /// Tag compression.
    TC,
    /// Tag compression + subtree sizes.
    TCS,
    /// TCS + descendant-tag bitmaps.
    TCSB,
    /// Recursive TCSB — the Skip index.
    TCSBR,
}

impl Encoding {
    /// All variants in Figure-8 order.
    pub const ALL: [Encoding; 5] =
        [Encoding::NC, Encoding::TC, Encoding::TCS, Encoding::TCSB, Encoding::TCSBR];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::NC => "NC",
            Encoding::TC => "TC",
            Encoding::TCS => "TCS",
            Encoding::TCSB => "TCSB",
            Encoding::TCSBR => "TCSBR",
        }
    }
}

/// An encoded document.
#[derive(Clone, Debug)]
pub struct EncodedDoc {
    /// The encoded bytes (for `NC`, the UTF-8 text).
    pub bytes: Vec<u8>,
    /// Total bytes of text content (the denominators of Figure 8).
    pub text_bytes: usize,
    /// Serialized size of the tag dictionary (0 for `NC`).
    pub dict_bytes: usize,
}

impl EncodedDoc {
    /// Total size including the dictionary.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len() + self.dict_bytes
    }

    /// Structure bytes (everything that is not text content).
    pub fn structure_bytes(&self) -> usize {
        self.total_bytes() - self.text_bytes
    }
}

/// Per-node layout facts shared by the encoders.
struct NodeFacts {
    /// Sorted descendant tags (with `#text`) — `DescTag_e`.
    desc: Vec<TagId>,
    /// Body length in bytes (children records, or text bytes).
    body: u64,
    /// Whether the node is a leaf (no children at all).
    leaf: bool,
}

fn is_text(doc: &Document, id: NodeId) -> bool {
    matches!(doc.node(id), Node::Text(_))
}

fn node_tag(doc: &Document, id: NodeId) -> TagId {
    match doc.node(id) {
        Node::Text(_) => TagId::TEXT,
        Node::Element { tag, .. } => *tag,
    }
}

/// Computes descendant-tag sets for every element (strictly below).
fn desc_sets(doc: &Document) -> Vec<Vec<TagId>> {
    let mut out: Vec<Vec<TagId>> = vec![Vec::new(); doc.node_count()];
    // Post-order: children before parents.
    let order = doc.preorder();
    for &(id, _) in order.iter().rev() {
        if is_text(doc, id) {
            continue;
        }
        let mut set: Vec<TagId> = Vec::new();
        for &c in doc.children(id) {
            set.push(node_tag(doc, c));
            set.extend(out[c.index()].iter().copied());
        }
        set.sort_unstable();
        set.dedup();
        out[id.index()] = set;
    }
    out
}

/// Encodes a document under the chosen variant.
pub fn encode_document(doc: &Document, encoding: Encoding) -> EncodedDoc {
    match encoding {
        Encoding::NC => encode_nc(doc),
        Encoding::TC => encode_tc(doc),
        Encoding::TCS => encode_tcs(doc, false),
        Encoding::TCSB => encode_tcs(doc, true),
        Encoding::TCSBR => encode_tcsbr(doc),
    }
}

fn text_bytes_of(doc: &Document) -> usize {
    doc.preorder()
        .iter()
        .filter_map(|&(id, _)| match doc.node(id) {
            Node::Text(t) => Some(t.len()),
            _ => None,
        })
        .sum()
}

fn encode_nc(doc: &Document) -> EncodedDoc {
    let text = xsac_xml::writer::document_to_string(doc);
    EncodedDoc { text_bytes: text_bytes_of(doc), bytes: text.into_bytes(), dict_bytes: 0 }
}

/// TC: byte-aligned event records. Event codes: `00` open (+ tag code),
/// `01` text (+ length + bytes), `10` close.
fn encode_tc(doc: &Document) -> EncodedDoc {
    let tagw = width_for(doc.dict.len().saturating_sub(1) as u64);
    // Text lengths use a global width sized by the longest text.
    let max_text = doc
        .preorder()
        .iter()
        .filter_map(|&(id, _)| match doc.node(id) {
            Node::Text(t) => Some(t.len()),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let lenw = width_for(max_text as u64);
    let mut w = BitWriter::new();
    w.write_bytes(&(lenw as u8).to_be_bytes());
    let emit = |w: &mut BitWriter, ev: &xsac_xml::Event<'_>| match ev {
        xsac_xml::Event::Open(t) => {
            w.write(0b00, 2);
            w.write(t.0 as u64, tagw);
            w.align();
        }
        xsac_xml::Event::Text(s) => {
            w.write(0b01, 2);
            w.write(s.len() as u64, lenw);
            w.align();
            w.write_bytes(s.as_bytes());
        }
        xsac_xml::Event::Close(_) => {
            w.write(0b10, 2);
            w.align();
        }
    };
    doc.emit(doc.root(), &mut |e| emit(&mut w, e));
    EncodedDoc {
        bytes: w.finish(),
        text_bytes: text_bytes_of(doc),
        dict_bytes: doc.dict.serialized_len(),
    }
}

/// TCS / TCSB: global-width tags and sizes; optional full-width bitmaps.
fn encode_tcs(doc: &Document, bitmaps: bool) -> EncodedDoc {
    let nt = doc.dict.len();
    let tagw = width_for(nt.saturating_sub(1) as u64);
    let desc = if bitmaps { Some(desc_sets(doc)) } else { None };

    // Global fixed point: the size-field width depends on the total size.
    let mut sizew = 16u32;
    let (mut sizes, mut total);
    loop {
        sizes = vec![0u64; doc.node_count()];
        let order = doc.preorder();
        for &(id, _) in order.iter().rev() {
            match doc.node(id) {
                Node::Text(t) => sizes[id.index()] = t.len() as u64,
                Node::Element { children, .. } => {
                    let mut body = 0u64;
                    for &c in children {
                        body +=
                            record_len_global(doc, c, tagw, sizew, bitmaps, nt) + sizes[c.index()];
                    }
                    sizes[id.index()] = body;
                }
            }
        }
        total = record_len_global(doc, doc.root(), tagw, sizew, bitmaps, nt)
            + sizes[doc.root().index()];
        let needed = width_for(total);
        if needed <= sizew {
            sizew = needed.max(1);
            // Recompute once with the final width for exactness.
            let mut sizes2 = vec![0u64; doc.node_count()];
            for &(id, _) in doc.preorder().iter().rev() {
                match doc.node(id) {
                    Node::Text(t) => sizes2[id.index()] = t.len() as u64,
                    Node::Element { children, .. } => {
                        let mut body = 0u64;
                        for &c in children {
                            body += record_len_global(doc, c, tagw, sizew, bitmaps, nt)
                                + sizes2[c.index()];
                        }
                        sizes2[id.index()] = body;
                    }
                }
            }
            sizes = sizes2;
            break;
        }
        sizew = needed;
    }

    let mut w = BitWriter::new();
    w.write_bytes(&(sizew as u8).to_be_bytes());
    #[allow(clippy::too_many_arguments)]
    fn emit(
        doc: &Document,
        id: NodeId,
        w: &mut BitWriter,
        sizes: &[u64],
        desc: &Option<Vec<Vec<TagId>>>,
        tagw: u32,
        sizew: u32,
        nt: usize,
    ) {
        let leaf = doc.children(id).is_empty();
        w.write_bit(leaf);
        w.write(node_tag(doc, id).0 as u64, tagw);
        w.write(sizes[id.index()], sizew);
        if !leaf {
            if let Some(desc) = desc {
                let set = &desc[id.index()];
                for t in 0..nt {
                    w.write_bit(set.binary_search(&TagId(t as u32)).is_ok());
                }
            }
        }
        w.align();
        match doc.node(id) {
            Node::Text(t) => w.write_bytes(t.as_bytes()),
            Node::Element { children, .. } => {
                for &c in children {
                    emit(doc, c, w, sizes, desc, tagw, sizew, nt);
                }
            }
        }
    }
    emit(doc, doc.root(), &mut w, &sizes, &desc, tagw, sizew, nt);
    EncodedDoc {
        bytes: w.finish(),
        text_bytes: text_bytes_of(doc),
        dict_bytes: doc.dict.serialized_len(),
    }
}

/// Header length (bytes) of a node record in TCS/TCSB.
fn record_len_global(
    doc: &Document,
    id: NodeId,
    tagw: u32,
    sizew: u32,
    bitmaps: bool,
    nt: usize,
) -> u64 {
    let leaf = doc.children(id).is_empty();
    let mut bits = 1 + tagw + sizew;
    if !leaf && bitmaps {
        bits += nt as u32;
    }
    u64::from(bits.div_ceil(8))
}

/// TCSBR — the Skip index: the streamed encoder collected into memory.
fn encode_tcsbr(doc: &Document) -> EncodedDoc {
    let mut bytes = Vec::new();
    encode_tcsbr_stream(doc, |b| {
        bytes.extend_from_slice(b);
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|e| match e {});
    EncodedDoc { bytes, text_bytes: text_bytes_of(doc), dict_bytes: doc.dict.serialized_len() }
}

/// Outcome of a streamed TCSBR encode (see [`encode_tcsbr_stream`]).
#[derive(Clone, Copy, Debug)]
pub struct StreamedEncode {
    /// Total encoded length handed downstream (header + root record).
    pub encoded_len: usize,
    /// Peak bytes the encoder itself had buffered — O(1), never
    /// O(document); the figure publishing folds into its protect-peak
    /// accounting.
    pub peak_buffered: usize,
}

/// Streams the TCSBR encoding of `doc` into `emit` without ever holding
/// the encoded bytes whole: the per-node layout facts are O(nodes) and the
/// byte buffer is O(1). This is the one TCSBR writer — [`encode_document`]
/// collects it into memory, and publishing feeds it straight to the
/// encryptor; the consumer's error type `E` propagates out unchanged.
pub fn encode_tcsbr_stream<E>(
    doc: &Document,
    emit: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<StreamedEncode, E> {
    let facts = compute_tcsbr_facts(doc);
    let ctx = root_ctx(doc);
    let root = &facts[doc.root().index()];
    let root_record = root.body + header_len_with(root, ctx.tags.len(), ctx.body);
    let mut w = BitSink::new(emit);
    w.write_bytes(&(root_record as u32).to_be_bytes())?;
    emit_tcsbr(doc, doc.root(), &ctx, &facts, &mut w)?;
    let (encoded_len, peak_buffered) = w.finish()?;
    Ok(StreamedEncode { encoded_len, peak_buffered })
}

/// The encoding context a node is read under: the parent's descendant-tag
/// list and body size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ctx {
    /// Sorted tag list of the parent (`DescTag_parent`).
    pub tags: Vec<TagId>,
    /// Parent body size in bytes.
    pub body: u64,
}

/// Context of the document root: the full dictionary, and the root record
/// length itself as the size bound (stored in the 4-byte header).
pub fn root_ctx(doc: &Document) -> Ctx {
    Ctx { tags: (0..doc.dict.len() as u32).map(TagId).collect(), body: u32::MAX as u64 }
}

fn compute_tcsbr_facts(doc: &Document) -> Vec<NodeFacts> {
    let desc = desc_sets(doc);
    let mut facts: Vec<NodeFacts> =
        desc.into_iter().map(|d| NodeFacts { desc: d, body: 0, leaf: true }).collect();
    for &(id, _) in doc.preorder().iter().rev() {
        match doc.node(id) {
            Node::Text(t) => {
                facts[id.index()].body = t.len() as u64;
                facts[id.index()].leaf = true;
            }
            Node::Element { children, .. } => {
                facts[id.index()].leaf = children.is_empty();
                // Fixed point on this node's body size: child header
                // widths depend on it.
                let mut body = 0u64;
                loop {
                    let mut next = 0u64;
                    for &c in children {
                        next +=
                            header_len_with(&facts[c.index()], facts[id.index()].desc.len(), body)
                                + facts[c.index()].body;
                    }
                    if next == body {
                        break;
                    }
                    assert!(next > body, "body sizes grow monotonically");
                    body = next;
                }
                facts[id.index()].body = body;
            }
        }
    }
    facts
}

/// Header length (bytes) of a record with `parent_tags` context entries
/// and `parent_body` size bound.
fn header_len_with(node: &NodeFacts, parent_tags: usize, parent_body: u64) -> u64 {
    let tagw = width_for(parent_tags.saturating_sub(1) as u64);
    let sizew = width_for(parent_body);
    let mut bits = 1 + tagw + sizew;
    if !node.leaf {
        bits += parent_tags as u32;
    }
    u64::from(bits.div_ceil(8))
}

fn emit_tcsbr<F, E>(
    doc: &Document,
    id: NodeId,
    ctx: &Ctx,
    facts: &[NodeFacts],
    w: &mut BitSink<F, E>,
) -> Result<(), E>
where
    F: FnMut(&[u8]) -> Result<(), E>,
{
    let f = &facts[id.index()];
    let tagw = width_for(ctx.tags.len().saturating_sub(1) as u64);
    let sizew = width_for(ctx.body);
    let tag = node_tag(doc, id);
    let idx = ctx
        .tags
        .binary_search(&tag)
        .unwrap_or_else(|_| panic!("tag {tag:?} missing from parent context"));
    w.write_bit(f.leaf);
    w.write(idx as u64, tagw);
    w.write(f.body, sizew);
    if !f.leaf {
        for t in &ctx.tags {
            w.write_bit(f.desc.binary_search(t).is_ok());
        }
    }
    w.align()?;
    match doc.node(id) {
        Node::Text(t) => w.write_bytes(t.as_bytes())?,
        Node::Element { children, .. } => {
            let child_ctx = Ctx { tags: f.desc.clone(), body: f.body };
            for &c in children {
                emit_tcsbr(doc, c, &child_ctx, facts, w)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse("<a><b><m>one</m><o>two</o></b><c><e><m>3</m></e><f>ff</f></c><d>4</d></a>")
            .unwrap()
    }

    #[test]
    fn all_encodings_produce_output() {
        let d = doc();
        for enc in Encoding::ALL {
            let e = encode_document(&d, enc);
            assert!(!e.bytes.is_empty(), "{:?}", enc);
            assert_eq!(e.text_bytes, 10); // one+two+3+ff+4 = 3+3+1+2+1
        }
    }

    #[test]
    fn nc_equals_serialization() {
        let d = doc();
        let e = encode_document(&d, Encoding::NC);
        assert_eq!(e.bytes, xsac_xml::writer::document_to_string(&d).into_bytes());
        assert_eq!(e.dict_bytes, 0);
    }

    #[test]
    fn compressed_variants_beat_nc_on_structure() {
        let d = doc();
        let nc = encode_document(&d, Encoding::NC);
        let tc = encode_document(&d, Encoding::TC);
        assert!(
            tc.structure_bytes() < nc.structure_bytes(),
            "TC {} vs NC {}",
            tc.structure_bytes(),
            nc.structure_bytes()
        );
    }

    #[test]
    fn tcs_larger_than_tc_tcsb_larger_than_tcs() {
        // Figure 8's ordering on structure size: TC < TCS < TCSB; TCSBR
        // falls back near TC.
        let d = doc();
        let tc = encode_document(&d, Encoding::TC).structure_bytes();
        let tcs = encode_document(&d, Encoding::TCS).structure_bytes();
        let tcsb = encode_document(&d, Encoding::TCSB).structure_bytes();
        let tcsbr = encode_document(&d, Encoding::TCSBR).structure_bytes();
        assert!(tcs >= tc, "TCS {tcs} < TC {tc}");
        assert!(tcsb >= tcs, "TCSB {tcsb} < TCS {tcs}");
        assert!(tcsbr <= tcsb, "TCSBR {tcsbr} > TCSB {tcsb}");
    }

    #[test]
    fn desc_sets_strictly_below() {
        let d = Document::parse("<a><b><c>x</c></b></a>").unwrap();
        let sets = desc_sets(&d);
        let root_set = &sets[d.root().index()];
        let b = d.dict.get("b").unwrap();
        let c = d.dict.get("c").unwrap();
        let a = d.dict.get("a").unwrap();
        assert!(root_set.contains(&b) && root_set.contains(&c));
        assert!(root_set.contains(&TagId::TEXT));
        assert!(!root_set.contains(&a), "a itself is not below a");
    }

    #[test]
    fn fixed_point_terminates_on_large_fanout() {
        // 300 children pushes the size field over a byte boundary.
        let mut xml = String::from("<r>");
        for _ in 0..300 {
            xml.push_str("<x>abcdefgh</x>");
        }
        xml.push_str("</r>");
        let d = Document::parse(&xml).unwrap();
        let e = encode_document(&d, Encoding::TCSBR);
        assert!(e.bytes.len() > 300 * 9);
    }

    #[test]
    fn streamed_tcsbr_matches_in_memory() {
        // However the consumer receives it, the stream is one TCSBR
        // document: its 4-byte header announces exactly the root record
        // that follows, the reported length is what was handed over, and
        // the encoder itself buffers O(1), not O(document).
        let mut xml = String::from("<r>");
        for i in 0..200 {
            xml.push_str(&format!("<x><y>{}</y><z>payload-{i}-0123456789</z></x>", "t".repeat(i)));
        }
        xml.push_str("</r>");
        for xml in
            ["<a></a>", "<a><b>one</b><c>two</c></a>", "<a>t1<b><c><d>deep</d></c></b>t2</a>", &xml]
        {
            let d = Document::parse(xml).unwrap();
            let mut streamed = Vec::new();
            let out = encode_tcsbr_stream(&d, |b| {
                assert!(!b.is_empty(), "empty slices are never handed downstream");
                streamed.extend_from_slice(b);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
            assert_eq!(streamed, encode_document(&d, Encoding::TCSBR).bytes);
            assert_eq!(out.encoded_len, streamed.len());
            let root_record = u32::from_be_bytes(streamed[..4].try_into().unwrap()) as usize;
            assert_eq!(root_record + 4, streamed.len(), "header of {}", &xml[..20.min(xml.len())]);
            assert!(
                out.peak_buffered < 2048,
                "encoder buffered {} bytes of a {}-byte document",
                out.peak_buffered,
                streamed.len()
            );
        }
    }

    #[test]
    fn stream_consumer_error_propagates() {
        let d = doc();
        let mut n = 0;
        let res = encode_tcsbr_stream(&d, |_b| {
            n += 1;
            Err("downstream refused")
        });
        assert_eq!(res.unwrap_err(), "downstream refused");
        assert_eq!(n, 1, "must stop at the first consumer failure");
    }

    #[test]
    fn empty_elements_encode() {
        let d = Document::parse("<a><b></b><c></c></a>").unwrap();
        for enc in Encoding::ALL {
            let e = encode_document(&d, enc);
            assert!(!e.bytes.is_empty(), "{enc:?}");
            assert_eq!(e.text_bytes, 0);
        }
    }
}
