//! Streaming decoder for the Skip index (TCSBR) with subtree skipping.
//!
//! The decoder mirrors §4.1's description: "the SOE stores the tag
//! dictionary and uses an internal SkipStack to record the DescTag and
//! SubtreeSize of the current element. When decoding an element e,
//! DescTag_parent(e) and SubtreeSize_parent(e) are retrieved from this
//! stack and used to decode in turn TagArray_e, SubtreeSize_e and the
//! encoded tag of e."
//!
//! One decoder, [`CursorDecoder`], does all decoding and speaks the
//! parser's [`Event`]s. It walks the records through a [`ByteSource`],
//! which lends the bytes of each record it visits. Skipping an open
//! subtree is a position seek to its body end. An element's `DescTag_e`
//! is the sorted tag list its children are read under — the same list
//! the `SkipStack` keeps — exposed by [`CursorDecoder::last_desc`].
//!
//! The same loop serves two kinds of context:
//!
//! * [`CursorDecoder::new`] reads the 4-byte header and walks the
//!   document's single root record;
//! * [`CursorDecoder::resume`] walks a saved [`DecoderContext`] — one
//!   subtree, or the forest of records left in an element — as a
//!   pending-subtree readback (§5) does. [`CursorDecoder::read_range`]
//!   fetches such a range in one pull and resumes a cursor over the lent
//!   bytes.
//!
//! Malformed bytes surface as a [`DecodeError`]; a cursor reports it
//! through its source's own error type (`ByteSource::Error:
//! From<DecodeError>`), so a fetch failure and a decode failure reach the
//! caller as one error type.

use crate::bits::{width_for, BitReader};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use xsac_xml::{Event, TagId};

/// Decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Snapshot sufficient to re-decode a byte range later (pending-subtree
/// readback): the record's starting offset, its end, and the decoding
/// context it is read under.
#[derive(Debug, Clone)]
pub struct DecoderContext {
    /// First byte of the range (a record boundary).
    pub start: usize,
    /// One past the last byte of the range.
    pub end: usize,
    /// `DescTag_parent`: tag list the records are indexed against.
    pub tags: Arc<[TagId]>,
    /// `SubtreeSize_parent`: the size bound for the size fields.
    pub body_bound: u64,
}

impl DecoderContext {
    /// The context of the whole document: its root record, indexed
    /// against the full tag dictionary (`dict_len` tags, shared knowledge
    /// between SOE and server), spanning the length announced by the
    /// 4-byte header at the start of `header`.
    pub fn root(header: &[u8], dict_len: usize) -> Result<DecoderContext, DecodeError> {
        let len: [u8; 4] = header
            .get(..4)
            .and_then(|h| h.try_into().ok())
            .ok_or_else(|| DecodeError { offset: 0, message: "missing header".into() })?;
        Ok(DecoderContext {
            start: 4,
            end: 4 + u32::from_be_bytes(len) as usize,
            tags: (0..dict_len as u32).map(TagId).collect(),
            body_bound: u32::MAX as u64,
        })
    }
}

/// One open element on the `SkipStack`: its tag, where its record starts
/// and its body ends, and the context its children are read under.
struct Level {
    tag: TagId,
    start: usize,
    end: usize,
    tags: Arc<[TagId]>,
    body_bound: u64,
}

/// A parsed record header.
struct Header {
    tag: TagId,
    /// Absolute byte extent `[body_start, body_end)` of the record body.
    body_start: usize,
    body_end: usize,
}

/// Parses the record header at the start of `bytes`: the record at
/// absolute offset `start`, read under its parent's context (`tags` is
/// `DescTag_parent`, `bound` is `SubtreeSize_parent`) and required to end
/// by `level_end`. Each tag set in the record's TagArray (`DescTag_e`;
/// leaves have none) is passed to `desc`.
#[inline]
fn parse_header(
    bytes: &[u8],
    start: usize,
    tags: &[TagId],
    bound: u64,
    level_end: usize,
    mut desc: impl FnMut(TagId),
) -> Result<Header, DecodeError> {
    let err = |message: &str| DecodeError { offset: start, message: message.into() };
    let mut r = BitReader::at(bytes, 0);
    let leaf = r.read_bit().ok_or_else(|| err("eof in leaf bit"))?;
    let tagw = width_for(tags.len().saturating_sub(1) as u64);
    let idx = r.read(tagw).ok_or_else(|| err("eof in tag index"))? as usize;
    let tag = *tags.get(idx).ok_or_else(|| err("tag index out of context"))?;
    let size = r.read(width_for(bound)).ok_or_else(|| err("eof in size"))? as usize;
    if !leaf {
        for &t in tags {
            if r.read_bit().ok_or_else(|| err("eof in tag array"))? {
                desc(t);
            }
        }
    }
    r.align();
    let body_start = start + r.byte_pos();
    let body_end = body_start + size;
    if body_end > level_end {
        return Err(err("record overruns its parent"));
    }
    Ok(Header { tag, body_start, body_end })
}

/// A fallible, random-access byte provider the [`CursorDecoder`] pulls
/// encoded ranges through — the seam between the index layer and
/// whatever fetches, verifies and decrypts those bytes (in the SOE, a
/// metered `SoeReader` over a `ChunkStore`; in tests and readbacks, a
/// plain slice).
///
/// Every byte the decoder consumes goes through [`ByteSource::fetch`], so
/// a metering source observes exactly the decoder's touch pattern: the
/// records it reads, never the subtrees it skips.
pub trait ByteSource {
    /// Failure type of the cursor as a whole: a fetch failure of the
    /// source, or a [`DecodeError`] in the bytes it delivered.
    type Error: From<DecodeError>;

    /// Total document length in bytes.
    fn len(&self) -> usize;

    /// True when the document is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lends the bytes `offset..offset + len`. The borrow ends before the
    /// next call, so a source may serve every fetch from one buffer of
    /// its own; a failed fetch lends nothing.
    fn fetch(&mut self, offset: usize, len: usize) -> Result<&[u8], Self::Error>;
}

/// [`ByteSource`] over an in-memory slice (tests, oracles, readbacks).
pub struct SliceSource<'a>(pub &'a [u8]);

impl ByteSource for SliceSource<'_> {
    type Error = DecodeError;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn fetch(&mut self, offset: usize, len: usize) -> Result<&[u8], DecodeError> {
        offset
            .checked_add(len)
            .and_then(|end| self.0.get(offset..end))
            .ok_or_else(|| DecodeError { offset, message: "fetch past end of input".into() })
    }
}

/// Streaming TCSBR decoder over a [`ByteSource`]. It fetches each record's
/// header and body on demand, so the bytes it holds at any moment are at
/// most one record header, and the source sees precisely the skip-index
/// access pattern: headers of the records on the authorized path, bodies
/// of delivered text, and nothing of skipped subtrees.
///
/// [`CursorDecoder::next`] yields the parser's [`Event`]s, closes
/// synthesized (the encoding has no closing tags). Text events borrow the
/// bytes the source lent, so each event must be consumed before the next
/// call. After an [`Event::Open`], [`CursorDecoder::last_desc`] holds the
/// element's `DescTag_e`. Every failure — of the source or of the bytes
/// it delivered — comes back as the source's error type. A context saved
/// with [`CursorDecoder::last_element_context`] or
/// [`CursorDecoder::rest_context`] is read back with
/// [`CursorDecoder::read_range`].
pub struct CursorDecoder<R: ByteSource> {
    src: R,
    /// Absolute offset of the source's first byte: 0 over a whole
    /// document, the range start over a readback's lent bytes.
    origin: usize,
    pos: usize,
    /// The context the cursor walks: the root record's (from the 4-byte
    /// header) or a saved one.
    base: DecoderContext,
    /// The base is the document root: exactly one record, never text.
    root: bool,
    stack: Vec<Level>,
    /// Scratch for the tag array being parsed: the next child context.
    desc: Vec<TagId>,
    /// A record header whose tag array arrived in a second fetch.
    hdr: Vec<u8>,
}

impl<R: ByteSource> CursorDecoder<R> {
    /// Creates a cursor over a whole document; `dict_len` is the tag
    /// dictionary size. Fetches the 4-byte root-record header immediately.
    /// The cursor yields exactly one root record, which must be an
    /// element.
    pub fn new(mut src: R, dict_len: usize) -> Result<CursorDecoder<R>, R::Error> {
        let base = DecoderContext::root(src.fetch(0, 4)?, dict_len)?;
        Ok(CursorDecoder { root: true, ..CursorDecoder::resume(src, base) })
    }

    /// Creates a cursor over a saved context: the records from
    /// `ctx.start` to `ctx.end` — one subtree, or the children left in an
    /// element, text included — read under `ctx`'s tags and bound.
    pub fn resume(src: R, ctx: DecoderContext) -> CursorDecoder<R> {
        CursorDecoder {
            src,
            origin: 0,
            pos: ctx.start,
            base: ctx,
            root: false,
            stack: Vec::new(),
            desc: Vec::new(),
            hdr: Vec::new(),
        }
    }

    /// Consumes the cursor, returning the source.
    pub fn into_source(self) -> R {
        self.src
    }

    /// `DescTag_e` of the element the last [`CursorDecoder::next`] opened:
    /// the sorted list of tags occurring below it — also the context its
    /// children are read under — and empty for a leaf. Meaningful right
    /// after `next` returned an [`Event::Open`].
    pub fn last_desc(&self) -> &[TagId] {
        self.stack.last().map_or(&[], |top| &top.tags)
    }

    /// Current absolute byte position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The context of the innermost open element's whole record — right
    /// after an [`Event::Open`], the element just opened. Save it before
    /// skipping to allow readback.
    pub fn last_element_context(&self) -> Option<DecoderContext> {
        let (top, below) = self.stack.split_last()?;
        let (tags, body_bound) = below
            .last()
            .map_or((&self.base.tags, self.base.body_bound), |p| (&p.tags, p.body_bound));
        Some(DecoderContext { start: top.start, end: top.end, tags: tags.clone(), body_bound })
    }

    /// Context covering the *remaining* content of the current element
    /// (skip-rest on close directives).
    pub fn rest_context(&self) -> Option<DecoderContext> {
        let top = self.stack.last()?;
        Some(DecoderContext {
            start: self.pos,
            end: top.end,
            tags: top.tags.clone(),
            body_bound: top.body_bound,
        })
    }

    /// Next event in document order, `None` at the end. Fetches the
    /// record's header (and, for text, its body) from the source; a text
    /// event borrows the bytes the source lent.
    #[allow(clippy::should_implement_trait)] // fallible, lending pull-style next()
    pub fn next(&mut self) -> Result<Option<Event<'_>>, R::Error> {
        let (tags, bound, level_end) = match self.stack.last() {
            Some(top) => {
                debug_assert!(self.pos <= top.end, "decoder overran a subtree");
                if self.pos == top.end {
                    let tag = top.tag;
                    self.stack.pop();
                    return Ok(Some(Event::Close(tag)));
                }
                (&top.tags, top.body_bound, top.end)
            }
            None => {
                let more =
                    if self.root { self.pos == self.base.start } else { self.pos < self.base.end };
                if !more {
                    return Ok(None);
                }
                (&self.base.tags, self.base.body_bound, self.base.end)
            }
        };
        let start = self.pos;
        // The widths of the fixed prefix (leaf bit, tag index, size) are
        // known from the parent context before reading a single byte —
        // fetch exactly that many, then the tag array whose presence the
        // leaf bit (the record's first bit) reveals.
        let prefix_bits =
            1 + width_for(tags.len().saturating_sub(1) as u64) as usize + width_for(bound) as usize;
        // A well-formed header lies inside its level, so clamping the
        // fetches to `level_end` changes nothing on valid input, and a
        // header that would cross it fails in `parse_header` below at an
        // absolute offset instead of in the source.
        let avail = level_end.saturating_sub(start);
        let prefix_len = prefix_bits.div_ceil(8).min(avail);
        let hdr_len = (prefix_bits + tags.len()).div_ceil(8).min(avail);
        let mut header = self.src.fetch(start - self.origin, prefix_len)?;
        if hdr_len > prefix_len && BitReader::at(header, 0).read_bit() == Some(false) {
            self.hdr.clear();
            self.hdr.extend_from_slice(header);
            let rest = start + prefix_len - self.origin;
            self.hdr.extend_from_slice(self.src.fetch(rest, hdr_len - prefix_len)?);
            header = &self.hdr;
        }
        self.desc.clear();
        let desc = &mut self.desc;
        let h = parse_header(header, start, tags, bound, level_end, |t| desc.push(t))?;
        if h.tag == TagId::TEXT {
            if self.root && self.stack.is_empty() {
                return Err(DecodeError {
                    offset: start,
                    message: "text node at document root".into(),
                }
                .into());
            }
            let bytes = self.src.fetch(h.body_start - self.origin, h.body_end - h.body_start)?;
            let text = std::str::from_utf8(bytes).map_err(|_| DecodeError {
                offset: h.body_start,
                message: "invalid UTF-8 text".into(),
            })?;
            self.pos = h.body_end;
            return Ok(Some(Event::Text(Cow::Borrowed(text))));
        }
        // Element record. The child-context tag list is the only
        // per-record allocation (it outlives this record via saved
        // `DecoderContext`s).
        self.stack.push(Level {
            tag: h.tag,
            start,
            end: h.body_end,
            tags: self.desc.as_slice().into(),
            body_bound: (h.body_end - h.body_start) as u64,
        });
        self.pos = h.body_start;
        Ok(Some(Event::Open(h.tag)))
    }

    /// Skips what is left of the innermost open element — its whole
    /// subtree right after its [`Event::Open`], or the rest of its
    /// children after some were decoded — and pops it without emitting
    /// its close. A pure position seek: the source is never asked for the
    /// skipped bytes, which is the whole point of the index.
    pub fn skip_current(&mut self) {
        let level = self.stack.pop().expect("skip_current without open element");
        self.pos = level.end;
    }

    /// Fetches the byte range of a saved context in one pull (pending
    /// readback) and resumes a cursor over those lent bytes alone: the
    /// readback pulls nothing more from this cursor's source. The
    /// returned cursor's positions and error offsets are absolute, as
    /// this one's are; it borrows this one, so it ends before the next
    /// navigation call.
    pub fn read_range(
        &mut self,
        ctx: &DecoderContext,
    ) -> Result<CursorDecoder<SliceSource<'_>>, R::Error> {
        let outside = || DecodeError { offset: ctx.start, message: "range outside source".into() };
        let at = ctx.start.checked_sub(self.origin).ok_or_else(outside)?;
        let len = ctx.end.checked_sub(ctx.start).ok_or_else(outside)?;
        let bytes = self.src.fetch(at, len)?;
        Ok(CursorDecoder {
            origin: ctx.start,
            ..CursorDecoder::resume(SliceSource(bytes), ctx.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;
    use crate::encode::{encode_document, Encoding};
    use xsac_xml::Document;

    fn cursor(bytes: &[u8], dict_len: usize) -> CursorDecoder<SliceSource<'_>> {
        CursorDecoder::new(SliceSource(bytes), dict_len).unwrap()
    }

    /// Every remaining event of a cursor, as owned events.
    fn drain<R: ByteSource>(d: &mut CursorDecoder<R>) -> Result<Vec<Event<'static>>, R::Error> {
        let mut out = Vec::new();
        while let Some(ev) = d.next()? {
            out.push(ev.into_owned());
        }
        Ok(out)
    }

    /// The records of `ctx` through a cursor resumed over the whole
    /// encoding.
    fn resumed(bytes: &[u8], ctx: &DecoderContext) -> Result<Vec<Event<'static>>, DecodeError> {
        drain(&mut CursorDecoder::resume(SliceSource(bytes), ctx.clone()))
    }

    fn roundtrip(xml: &str) {
        let doc = Document::parse(xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let root = DecoderContext::root(&enc.bytes, doc.dict.len()).unwrap();
        assert_eq!(drain(&mut cursor(&enc.bytes, doc.dict.len())).unwrap(), doc.events(), "{xml}");
        assert_eq!(resumed(&enc.bytes, &root).unwrap(), doc.events(), "{xml}");
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip("<a><b>one</b><c>two</c></a>");
    }

    #[test]
    fn roundtrip_deep_and_mixed() {
        roundtrip("<a>t1<b><c><d>deep</d></c></b>t2<e></e></a>");
    }

    #[test]
    fn roundtrip_empty_root() {
        roundtrip("<a></a>");
    }

    #[test]
    fn roundtrip_repeated_tags_recursive() {
        roundtrip("<a><a><a>x</a></a><a>y</a></a>");
    }

    #[test]
    fn skip_current_lands_on_sibling() {
        let doc = Document::parse("<a><b><x>111</x><y>222</y></b><c>cc</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        let b = doc.dict.get("b").unwrap();
        let c = doc.dict.get("c").unwrap();
        // a
        assert!(matches!(d.next().unwrap(), Some(Event::Open(_))));
        // b → skip it
        assert_eq!(d.next().unwrap(), Some(Event::Open(b)));
        d.skip_current();
        // next must be c
        assert_eq!(d.next().unwrap(), Some(Event::Open(c)));
    }

    /// A `ByteSource` that counts fetched bytes and calls — stands in for
    /// the metered SOE reader to pin the cursor's touch pattern.
    struct CountingSource<'a> {
        src: SliceSource<'a>,
        fetched: usize,
        calls: usize,
    }

    impl<'a> CountingSource<'a> {
        fn new(data: &'a [u8]) -> Self {
            CountingSource { src: SliceSource(data), fetched: 0, calls: 0 }
        }
    }

    impl ByteSource for CountingSource<'_> {
        type Error = DecodeError;
        fn len(&self) -> usize {
            self.src.len()
        }
        fn fetch(&mut self, offset: usize, len: usize) -> Result<&[u8], DecodeError> {
            let bytes = self.src.fetch(offset, len)?;
            self.fetched += len;
            self.calls += 1;
            Ok(bytes)
        }
    }

    const SKIPPABLE: &str = "<a><b><x>0123456789012345678901234567890123456789</x></b><c>c</c></a>";

    #[test]
    fn skipped_bytes_not_counted() {
        let doc = Document::parse(SKIPPABLE).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let counting = || CountingSource::new(&enc.bytes);
        let mut d = CursorDecoder::new(counting(), doc.dict.len()).unwrap();
        drain(&mut d).unwrap();
        let full = d.into_source().fetched;
        let mut d = CursorDecoder::new(counting(), doc.dict.len()).unwrap();
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        d.skip_current();
        drain(&mut d).unwrap();
        let skipped = d.into_source().fetched;
        assert_eq!(full, enc.bytes.len(), "a full scan reads every byte");
        assert!(skipped + 40 <= full, "skipping must save the text bytes: {skipped} vs {full}");
    }

    #[test]
    fn readback_matches_skipped_subtree() {
        let doc = Document::parse("<a><b><x>11</x><y>22</y></b><c>cc</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        d.skip_current();
        let b = doc.dict.get("b").unwrap();
        let x = doc.dict.get("x").unwrap();
        let y = doc.dict.get("y").unwrap();
        assert_eq!(
            resumed(&enc.bytes, &ctx).unwrap(),
            vec![
                Event::Open(b),
                Event::Open(x),
                Event::Text("11".into()),
                Event::Close(x),
                Event::Open(y),
                Event::Text("22".into()),
                Event::Close(y),
                Event::Close(b),
            ]
        );
    }

    #[test]
    fn rest_context_covers_remaining_children() {
        let doc = Document::parse("<a><b>1</b><c>2</c><d>3</d></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        d.next().unwrap(); // "1"
        d.next().unwrap(); // /b
        let ctx = d.rest_context().unwrap();
        d.skip_current();
        assert_eq!(d.next().unwrap(), None);
        let c = doc.dict.get("c").unwrap();
        let dd = doc.dict.get("d").unwrap();
        assert_eq!(
            resumed(&enc.bytes, &ctx).unwrap(),
            vec![
                Event::Open(c),
                Event::Text("2".into()),
                Event::Close(c),
                Event::Open(dd),
                Event::Text("3".into()),
                Event::Close(dd),
            ]
        );
    }

    /// The root context holds one element record; a saved forest may
    /// start with text.
    #[test]
    fn text_is_refused_at_the_root_and_decoded_at_the_top_of_a_forest() {
        // A hand-built encoding whose root record is a text leaf.
        let dict_len = 3;
        let mut w = BitWriter::new();
        w.write_bit(true); // leaf
        w.write(TagId::TEXT.0 as u64, width_for(dict_len as u64 - 1));
        w.write(2, width_for(u32::MAX as u64));
        w.align();
        w.write_bytes(b"hi");
        let record = w.finish();
        let mut bytes = (record.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&record);
        let err = cursor(&bytes, dict_len).next().unwrap_err();
        assert_eq!(err, DecodeError { offset: 4, message: "text node at document root".into() });
        let root = DecoderContext::root(&bytes, dict_len).unwrap();
        assert_eq!(resumed(&bytes, &root).unwrap(), [Event::Text("hi".into())]);

        // The children left in an element, text first.
        let doc = Document::parse("<a><b>x</b>t1<c></c>t2</a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        for _ in 0..4 {
            d.next().unwrap(); // a, b, "x", /b
        }
        let rest = d.rest_context().unwrap();
        let (a, c) = (doc.dict.get("a").unwrap(), doc.dict.get("c").unwrap());
        let tail =
            [Event::Text("t1".into()), Event::Open(c), Event::Close(c), Event::Text("t2".into())];
        assert_eq!(resumed(&enc.bytes, &rest).unwrap(), tail);
        let mut whole = tail.to_vec();
        whole.push(Event::Close(a));
        assert_eq!(drain(&mut d).unwrap(), whole, "the walk goes on past the saved context");
    }

    #[test]
    fn desc_tags_exposed_on_open() {
        let doc = Document::parse("<a><b><c>x</c></b><e></e></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let tag = |name| doc.dict.get(name).unwrap();
        let sorted = |mut tags: Vec<TagId>| {
            tags.sort();
            tags
        };
        let mut d = cursor(&enc.bytes, doc.dict.len());
        assert_eq!(d.next().unwrap(), Some(Event::Open(tag("a"))));
        assert_eq!(d.last_desc(), sorted(vec![tag("b"), tag("c"), tag("e"), TagId::TEXT]));
        // Each element exposes its own list: the context its children
        // are read under.
        assert_eq!(d.next().unwrap(), Some(Event::Open(tag("b"))));
        assert_eq!(d.last_desc(), sorted(vec![tag("c"), TagId::TEXT]));
        assert_eq!(d.next().unwrap(), Some(Event::Open(tag("c"))));
        assert_eq!(d.last_desc(), [TagId::TEXT]);
        for _ in 0..3 {
            d.next().unwrap(); // "x", /c, /b
        }
        // A leaf has no tag array: its list is empty.
        assert_eq!(d.next().unwrap(), Some(Event::Open(tag("e"))));
        assert!(d.last_desc().is_empty());
    }

    /// Every proper prefix of an encoding fails to decode, from the root
    /// and resumed over the root context alike.
    #[test]
    fn truncated_input_errors() {
        let doc = Document::parse("<a><b>hello world</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        for cut in 0..enc.bytes.len() {
            let truncated = &enc.bytes[..cut];
            if let Ok(root) = DecoderContext::root(truncated, doc.dict.len()) {
                assert!(resumed(truncated, &root).is_err(), "resumed, cut {cut}");
            }
            let Ok(mut d) = CursorDecoder::new(SliceSource(truncated), doc.dict.len()) else {
                continue;
            };
            assert!(drain(&mut d).is_err(), "cursor, cut {cut}: truncation must be detected");
        }
    }

    #[test]
    fn garbage_header_errors() {
        assert!(CursorDecoder::new(SliceSource(&[1, 2]), 5).is_err());
        assert!(DecoderContext::root(&[1, 2], 5).is_err());
    }

    /// The readback path agrees with the walk event for event: the whole
    /// encoding, fetched in one pull and decoded by the cursor
    /// [`CursorDecoder::read_range`] resumes over the lent slice, on
    /// hand-written shapes and on every generated dataset.
    #[test]
    fn cursor_matches_slice_decoder_event_for_event() {
        let mut docs: Vec<Document> = [
            "<a></a>",
            "<a><b>one</b><c>two</c></a>",
            "<a>t1<b><c><d>deep</d></c></b>t2<e></e></a>",
            "<a><a><a>x</a></a><a>y</a></a>",
        ]
        .iter()
        .map(|xml| Document::parse(xml).unwrap())
        .collect();
        docs.extend(xsac_datagen::Dataset::ALL.iter().map(|ds| ds.generate(0.005, 7)));
        for doc in &docs {
            let enc = encode_document(doc, Encoding::TCSBR);
            let root = DecoderContext::root(&enc.bytes, doc.dict.len()).unwrap();
            let mut d = cursor(&enc.bytes, doc.dict.len());
            let expect = drain(&mut d.read_range(&root).unwrap()).unwrap();
            assert!(expect.len() > 1);
            assert_eq!(drain(&mut d).unwrap(), expect);
        }
    }

    #[test]
    fn cursor_skip_fetches_nothing_from_skipped_subtree() {
        let doc = Document::parse(SKIPPABLE).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = CursorDecoder::new(CountingSource::new(&enc.bytes), doc.dict.len()).unwrap();
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let body = d.position();
        d.skip_current();
        let skipped_body = d.position() - body;
        drain(&mut d).unwrap();
        assert_eq!(
            d.into_source().fetched,
            enc.bytes.len() - skipped_body,
            "a skip fetches all but the skipped body, byte for byte"
        );
    }

    #[test]
    fn cursor_readback_decodes_from_fetched_range_only() {
        let doc = Document::parse("<a><b><x>11</x><y>22</y></b><c>cc</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = CursorDecoder::new(CountingSource::new(&enc.bytes), doc.dict.len()).unwrap();
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        d.skip_current();
        let before = (d.src.calls, d.src.fetched);
        // The readback is one pull of exactly the saved range, decoded
        // from that slice alone.
        let events = drain(&mut d.read_range(&ctx).unwrap()).unwrap();
        assert_eq!((d.src.calls, d.src.fetched), (before.0 + 1, before.1 + ctx.end - ctx.start));
        assert_eq!(events, resumed(&enc.bytes, &ctx).unwrap());
    }

    #[test]
    fn resume_rejects_range_outside_data() {
        let doc = Document::parse("<a><b>hello</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        // The source ends inside the range, or the range is inverted:
        // typed errors.
        assert!(resumed(&enc.bytes[..ctx.end - 1], &ctx).is_err());
        let inverted = DecoderContext { start: ctx.end, end: ctx.start, ..ctx };
        assert!(d.read_range(&inverted).is_err());
    }

    /// A readback reports positions and errors in absolute offsets, as
    /// a whole-document walk does: for every single-bit flip inside a
    /// saved range that ends where its parent ends, decoding the range
    /// through `read_range` fails (or succeeds) exactly as walking the
    /// whole flipped document does — including a header cut off by the
    /// range end.
    #[test]
    fn readback_errors_carry_whole_document_offsets() {
        for xml in [
            "<a><x>lead</x><b><c>some text</c><d><e>more</e>tail</d></b></a>",
            "<a><x>l</x><x/><b><c>s</c><d><e>m</e><e/><d/>t</d><c>u</c><f/><c/><e>v</e></b></a>",
            "<a><x/><b><c>1</c><d>2</d><e>3</e><f>4</f><g>5</g><h/><i/><j>6</j><k/><l/></b></a>",
        ] {
            let doc = Document::parse(xml).unwrap();
            let enc = encode_document(&doc, Encoding::TCSBR);
            let mut d = cursor(&enc.bytes, doc.dict.len());
            d.next().unwrap(); // a
            let ctx = loop {
                let Some(Event::Open(tag)) = d.next().unwrap() else { continue };
                if doc.dict.name(tag) == "b" {
                    break d.last_element_context().unwrap();
                }
                d.skip_current();
            };
            assert_eq!(ctx.end, enc.bytes.len(), "`b` must end where the root does");
            let mut errors = 0;
            for bit in ctx.start * 8..ctx.end * 8 {
                let mut flipped = enc.bytes.clone();
                flipped[bit / 8] ^= 0x80 >> (bit % 8);
                let mut outer = cursor(&flipped, doc.dict.len());
                let mut range = outer.read_range(&ctx).unwrap();
                assert_eq!(range.position(), ctx.start);
                let readback = drain(&mut range).err();
                let mut walk = cursor(&flipped, doc.dict.len());
                let whole = loop {
                    match walk.next() {
                        Ok(Some(_)) => {}
                        Ok(None) => break None,
                        Err(e) => break Some(e),
                    }
                };
                assert_eq!(readback, whole, "{xml}, bit {bit}: readback and walk disagree");
                errors += readback.is_some() as usize;
            }
            assert!(errors > 0, "{xml}: some flip must break the range");
        }
    }

    #[test]
    fn cursor_truncated_input_errors() {
        let doc = Document::parse("<a><b>hello world</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let truncated = &enc.bytes[..enc.bytes.len() - 4];
        let mut d = cursor(truncated, doc.dict.len());
        assert!(drain(&mut d).is_err(), "truncation must be detected");
    }
}
