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
//! power-of-2 sensitivity when discussing updates). A child's header
//! length depends only on its leaf bit and the parent's tag count and
//! body size, so each step is closed-form: `Σ child bodies + n_leaf ·
//! hdr(leaf) + n_internal · hdr(internal)`.
//!
//! One post-order pass computes those sizes and every `DescTag_e` (a
//! dictionary-wide bitset per open element, on a stack bounded by the
//! depth), appending each set, sorted, to one arena. Children borrow
//! their parent's arena range as context; a tag array is a merge walk
//! of two sorted lists. TCSB's bitmaps read the same arena.
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

    /// A compressed variant's output: `bytes`, plus the dictionary.
    fn compressed(doc: &Document, bytes: Vec<u8>) -> EncodedDoc {
        EncodedDoc { bytes, text_bytes: text_bytes_of(doc), dict_bytes: doc.dict.serialized_len() }
    }
}

/// Per-node layout facts shared by the encoders.
#[derive(Clone, Copy, Default)]
struct NodeFacts {
    /// Sorted descendant tags (with `#text`) — `DescTag_e` — as the range
    /// `lo..hi` of the arena.
    lo: u32,
    hi: u32,
    /// Body length in bytes (children records, or text bytes).
    body: u64,
    /// Index of the node's tag in its parent's descendant-tag list.
    idx: u32,
    /// Whether the node is a leaf (no children at all).
    leaf: bool,
}

/// Layout facts of a whole document: one [`NodeFacts`] per node, and every
/// element's descendant-tag list concatenated into one arena.
struct Facts {
    nodes: Vec<NodeFacts>,
    arena: Vec<TagId>,
}

impl Facts {
    /// `DescTag_e` of `id`, sorted (empty for a text node).
    fn desc(&self, id: NodeId) -> &[TagId] {
        let f = &self.nodes[id.index()];
        &self.arena[f.lo as usize..f.hi as usize]
    }
}

fn node_tag(doc: &Document, id: NodeId) -> TagId {
    match doc.node(id) {
        Node::Text(_) => TagId::TEXT,
        Node::Element { tag, .. } => *tag,
    }
}

/// The whole dictionary, in id order: the root's context.
fn all_tags(doc: &Document) -> Vec<TagId> {
    (0..doc.dict.len() as u32).map(TagId).collect()
}

fn set_bit(set: &mut [u64], tag: TagId) {
    set[tag.index() / 64] |= 1 << (tag.index() % 64);
}

/// Position of `tag` in the sorted list of `set`'s members.
fn rank(set: &[u64], tag: TagId) -> u32 {
    let (word, bit) = (tag.index() / 64, tag.index() % 64);
    let below: u32 = set[..word].iter().map(|w| w.count_ones()).sum();
    below + (set[word] & ((1 << bit) - 1)).count_ones()
}

/// Computes every node's layout facts in one post-order pass. Each open
/// element owns a dictionary-wide bitset on a stack bounded by the depth;
/// a finished element appends its set, sorted, to the arena, ranks its
/// children's tags in it, then ORs it and its own tag into its parent's.
fn compute_facts(doc: &Document) -> Facts {
    let words = doc.dict.len().div_ceil(64);
    let mut nodes = vec![NodeFacts::default(); doc.node_count()];
    let mut arena = Vec::new();
    let mut sets: Vec<u64> = vec![0; words];
    // Open elements, with the children still to visit.
    let mut open = vec![(doc.root(), doc.children(doc.root()).iter())];
    while let Some((id, rest)) = open.last_mut() {
        let id = *id;
        let top = sets.len() - words;
        if let Some(&c) = rest.next() {
            match doc.node(c) {
                Node::Text(t) => {
                    nodes[c.index()].body = t.len() as u64;
                    nodes[c.index()].leaf = true;
                    set_bit(&mut sets[top..], TagId::TEXT);
                }
                Node::Element { children, .. } => {
                    open.push((c, children.iter()));
                    sets.resize(sets.len() + words, 0);
                }
            }
            continue;
        }
        open.pop();
        let children = doc.children(id);
        let lo = arena.len() as u32; // the last element's checked `hi`
        for (i, &word) in sets[top..].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                arena.push(TagId((i * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        let hi = u32::try_from(arena.len()).expect("arena indices fit u32");
        for &c in children {
            // A text child's `#text` is tag 0: always rank 0.
            if let Node::Element { tag, .. } = doc.node(c) {
                nodes[c.index()].idx = rank(&sets[top..], *tag);
            }
        }
        let body = body_size(children, &nodes, (hi - lo) as usize);
        let f = &mut nodes[id.index()];
        (f.lo, f.hi, f.body, f.leaf) = (lo, hi, body, children.is_empty());
        if !open.is_empty() {
            let (below, own) = sets.split_at_mut(top);
            let parent = &mut below[top - words..];
            for (p, o) in parent.iter_mut().zip(own.iter()) {
                *p |= o;
            }
            set_bit(parent, node_tag(doc, id));
        }
        sets.truncate(top);
    }
    // The root is read under the whole dictionary, in id order.
    nodes[doc.root().index()].idx = doc.tag(doc.root()).0;
    Facts { nodes, arena }
}

/// Body size of an element with `tags` descendant tags: the least fixed
/// point of `Σ child bodies + Σ child headers(body)`. Every leaf child's
/// header has one length and every internal child's another, so each step
/// is O(1).
fn body_size(children: &[NodeId], nodes: &[NodeFacts], tags: usize) -> u64 {
    let (mut bodies, mut leaves) = (0u64, 0u64);
    for &c in children {
        bodies += nodes[c.index()].body;
        leaves += u64::from(nodes[c.index()].leaf);
    }
    let internal = children.len() as u64 - leaves;
    let mut body = 0u64;
    loop {
        let next = bodies
            + leaves * header_len(true, tags, body)
            + internal * header_len(false, tags, body);
        if next == body {
            return body;
        }
        assert!(next > body, "body sizes grow monotonically");
        body = next;
    }
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

/// The content of every text node, in arena order.
fn texts(doc: &Document) -> impl Iterator<Item = &str> {
    (0..doc.node_count() as u32).filter_map(|i| match doc.node(NodeId(i)) {
        Node::Text(t) => Some(t.as_str()),
        Node::Element { .. } => None,
    })
}

fn text_bytes_of(doc: &Document) -> usize {
    texts(doc).map(str::len).sum()
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
    let lenw = width_for(texts(doc).map(str::len).max().unwrap_or(0) as u64);
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
    EncodedDoc::compressed(doc, w.finish())
}

/// TCS / TCSB: global-width tags and sizes; optional full-width bitmaps.
fn encode_tcs(doc: &Document, bitmaps: bool) -> EncodedDoc {
    let nt = doc.dict.len();
    let tagw = width_for(nt.saturating_sub(1) as u64);
    let facts = bitmaps.then(|| compute_facts(doc));
    let all = all_tags(doc);
    let bitmap = if bitmaps { nt as u32 } else { 0 };
    // Header length (bytes) of a record under a size-field width.
    let header = |id: NodeId, sizew: u32| {
        let internal = !doc.children(id).is_empty();
        u64::from((1 + tagw + sizew + if internal { bitmap } else { 0 }).div_ceil(8))
    };
    // Every body size under a size-field width, and the total.
    let sizes_with = |sizew: u32| {
        let mut sizes = vec![0u64; doc.node_count()];
        for &(id, _) in doc.preorder().iter().rev() {
            sizes[id.index()] = match doc.node(id) {
                Node::Text(t) => t.len() as u64,
                Node::Element { children, .. } => {
                    children.iter().map(|&c| header(c, sizew) + sizes[c.index()]).sum()
                }
            };
        }
        let total = header(doc.root(), sizew) + sizes[doc.root().index()];
        (sizes, total)
    };
    // Global fixed point: the size-field width depends on the total size.
    let mut sizew = 16u32;
    let sizes = loop {
        let needed = width_for(sizes_with(sizew).1);
        if needed <= sizew {
            // Recompute once with the final width for exactness.
            sizew = needed.max(1);
            break sizes_with(sizew).0;
        }
        sizew = needed;
    };

    // No closing tags and global widths: the records are simply the
    // nodes in document order.
    let mut w = BitWriter::new();
    w.write_bytes(&(sizew as u8).to_be_bytes());
    for (id, _) in doc.preorder() {
        let leaf = doc.children(id).is_empty();
        w.write_bit(leaf);
        w.write(node_tag(doc, id).0 as u64, tagw);
        w.write(sizes[id.index()], sizew);
        if let (false, Some(facts)) = (leaf, &facts) {
            tag_array(&all, facts.desc(id), |v, n| w.write(v, n));
        }
        w.align();
        if let Node::Text(t) = doc.node(id) {
            w.write_bytes(t.as_bytes());
        }
    }
    EncodedDoc::compressed(doc, w.finish())
}

/// TCSBR — the Skip index: the streamed encoder collected into memory.
fn encode_tcsbr(doc: &Document) -> EncodedDoc {
    let mut bytes = Vec::new();
    encode_tcsbr_stream(doc, |b| {
        bytes.extend_from_slice(b);
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|e| match e {});
    EncodedDoc::compressed(doc, bytes)
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
    let facts = compute_facts(doc);
    // The root is read under the full dictionary, with the root record
    // length itself as the size bound (stored in the 4-byte header).
    let (all, bound) = (all_tags(doc), u64::from(u32::MAX));
    let root = &facts.nodes[doc.root().index()];
    let root_record = root.body + header_len(root.leaf, all.len(), bound);
    let mut w = BitSink::new(emit);
    w.write_bytes(&(root_record as u32).to_be_bytes())?;
    emit_tcsbr(doc, doc.root(), &all, width_for(bound), &facts, &mut w)?;
    let (encoded_len, peak_buffered) = w.finish()?;
    Ok(StreamedEncode { encoded_len, peak_buffered })
}

/// Header length (bytes) of a record with `parent_tags` context entries
/// and `parent_body` size bound.
fn header_len(leaf: bool, parent_tags: usize, parent_body: u64) -> u64 {
    let array = if leaf { 0 } else { parent_tags as u32 };
    let bits = 1 + width_for(parent_tags.saturating_sub(1) as u64) + width_for(parent_body) + array;
    u64::from(bits.div_ceil(8))
}

/// Hands `write` the tag array of a node whose sorted descendant list is
/// `desc`, under the sorted context `ctx` — one bit per context tag, set
/// when that tag occurs below the node — in runs of up to 32 bits. The
/// descendants of a node are descendants of its parent, so `desc ⊆ ctx`
/// and one merge walk of the two lists decides every bit.
fn tag_array(ctx: &[TagId], desc: &[TagId], mut write: impl FnMut(u64, u32)) {
    let mut next = 0;
    for run in ctx.chunks(32) {
        let mut bits = 0u64;
        for t in run {
            let hit = desc.get(next) == Some(t);
            bits = bits << 1 | u64::from(hit);
            next += usize::from(hit);
        }
        write(bits, run.len() as u32);
    }
    debug_assert_eq!(next, desc.len(), "descendant tags outside the parent context");
}

/// Writes the record of `id` under its context: the parent's
/// descendant-tag list `ctx` (borrowed from the arena) and the size-field
/// width `sizew` the parent's body size implies.
fn emit_tcsbr<F, E>(
    doc: &Document,
    id: NodeId,
    ctx: &[TagId],
    sizew: u32,
    facts: &Facts,
    w: &mut BitSink<F, E>,
) -> Result<(), E>
where
    F: FnMut(&[u8]) -> Result<(), E>,
{
    let (f, tagw) = (&facts.nodes[id.index()], width_for(ctx.len().saturating_sub(1) as u64));
    // `[leaf][tag index][size]`, packed in one write.
    w.write((u64::from(f.leaf) << tagw | u64::from(f.idx)) << sizew | f.body, 1 + tagw + sizew);
    if !f.leaf {
        tag_array(ctx, facts.desc(id), |v, n| w.write(v, n));
    }
    w.align()?;
    match doc.node(id) {
        Node::Text(t) => w.write_bytes(t.as_bytes())?,
        Node::Element { children, .. } => {
            for &c in children {
                emit_tcsbr(doc, c, facts.desc(id), width_for(f.body), facts, w)?;
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
        let facts = compute_facts(&d);
        let root_set = facts.desc(d.root());
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
