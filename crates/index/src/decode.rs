//! Streaming decoder for the Skip index (TCSBR) with subtree skipping.
//!
//! The decoder mirrors §4.1's description: "the SOE stores the tag
//! dictionary and uses an internal SkipStack to record the DescTag and
//! SubtreeSize of the current element. When decoding an element e,
//! DescTag_parent(e) and SubtreeSize_parent(e) are retrieved from this
//! stack and used to decode in turn TagArray_e, SubtreeSize_e and the
//! encoded tag of e."
//!
//! One record parser serves two callers, and both speak the parser's
//! [`Event`]s:
//!
//! * [`CursorDecoder`] walks the document through a [`ByteSource`],
//!   fetching only the records it visits. Skipping an open subtree is a
//!   position seek to its body end. An element's `DescTag_e` is the
//!   sorted tag list its children are read under — the same list the
//!   `SkipStack` keeps — exposed by [`CursorDecoder::last_desc`].
//! * [`decode_range`] re-decodes a saved [`DecoderContext`] in one pass
//!   over bytes already in hand — pending-subtree readback (§5), or the
//!   whole document under [`DecoderContext::root`]. Its text events
//!   borrow the input, and it appends into a caller-owned buffer, so a
//!   readback allocates per *element record* (its descendant-tag
//!   context), never per text byte.
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

/// One open element on the `SkipStack`: its tag, the context its children
/// are read under, and where its body ends.
struct Level {
    tag: TagId,
    tags: Arc<[TagId]>,
    body_bound: u64,
    end: usize,
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

/// Decodes the saved range `ctx` into events (pending readback, or the
/// whole document under [`DecoderContext::root`]). The range may hold one
/// subtree or a forest of records. `data` holds the document bytes
/// `base..base + data.len()` — a readback fetches exactly its saved range
/// and decodes it in place with `base = ctx.start`. All offsets in `ctx`
/// and in the returned errors stay absolute.
///
/// `out` is cleared and filled; its text events borrow `data`, so one
/// buffer serves every readback of a session without copying text.
pub fn decode_range<'d>(
    data: &'d [u8],
    base: usize,
    ctx: &DecoderContext,
    out: &mut Vec<Event<'d>>,
) -> Result<(), DecodeError> {
    out.clear();
    if ctx.start < base || ctx.end < ctx.start || ctx.end - base > data.len() {
        return Err(DecodeError {
            offset: ctx.start,
            message: "range outside provided data".into(),
        });
    }
    let mut stack: Vec<Level> = Vec::new();
    let mut desc: Vec<TagId> = Vec::new();
    let mut pos = ctx.start;
    loop {
        // Close exhausted levels. Every record ends within its parent
        // (checked by `parse_header`), so `pos` never passes an end.
        while let Some(top) = stack.last() {
            if pos != top.end {
                break;
            }
            out.push(Event::Close(top.tag));
            stack.pop();
        }
        let (tags, bound, level_end) = match stack.last() {
            Some(top) => (&top.tags, top.body_bound, top.end),
            None if pos < ctx.end => (&ctx.tags, ctx.body_bound, ctx.end),
            None => return Ok(()),
        };
        desc.clear();
        let h = parse_header(&data[pos - base..], pos, tags, bound, level_end, |t| desc.push(t))?;
        if h.tag == TagId::TEXT {
            let bytes = &data[h.body_start - base..h.body_end - base];
            let text = std::str::from_utf8(bytes).map_err(|_| DecodeError {
                offset: h.body_start,
                message: "invalid UTF-8 text".into(),
            })?;
            out.push(Event::Text(text.into()));
            pos = h.body_end;
        } else {
            out.push(Event::Open(h.tag));
            stack.push(Level {
                tag: h.tag,
                tags: desc.as_slice().into(),
                body_bound: (h.body_end - h.body_start) as u64,
                end: h.body_end,
            });
            pos = h.body_start;
        }
    }
}

/// A fallible, random-access byte provider the [`CursorDecoder`] pulls
/// encoded ranges through — the seam between the index layer and
/// whatever fetches, verifies and decrypts those bytes (in the SOE, a
/// metered `SoeReader` over a `ChunkStore`; in tests, a plain slice).
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

    /// Appends the bytes `offset..offset + len` to `out`. On error
    /// nothing may remain appended (the caller's buffer is rolled back to
    /// its length at entry, as `SoeReader::read_into` guarantees).
    fn fetch(&mut self, offset: usize, len: usize, out: &mut Vec<u8>) -> Result<(), Self::Error>;
}

/// [`ByteSource`] over an in-memory slice (tests, oracles).
pub struct SliceSource<'a>(pub &'a [u8]);

impl ByteSource for SliceSource<'_> {
    type Error = DecodeError;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn fetch(&mut self, offset: usize, len: usize, out: &mut Vec<u8>) -> Result<(), DecodeError> {
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= self.0.len())
            .ok_or_else(|| DecodeError { offset, message: "fetch past end of input".into() })?;
        out.extend_from_slice(&self.0[offset..end]);
        Ok(())
    }
}

/// Streaming TCSBR decoder over a [`ByteSource`]. It fetches each record's
/// header and body on demand, so the bytes resident at any moment are one
/// record header plus (for text) one text body, and the source sees
/// precisely the skip-index access pattern: headers of the records on the
/// authorized path, bodies of delivered text, and nothing of skipped
/// subtrees.
///
/// [`CursorDecoder::next`] yields the parser's [`Event`]s, closes
/// synthesized (the encoding has no closing tags). Text events borrow the
/// decoder's fetch buffer, so each event must be consumed before the next
/// call. After an [`Event::Open`], [`CursorDecoder::last_desc`] holds the
/// element's `DescTag_e`. Every failure — of the source or of the bytes
/// it delivered — comes back as the source's error type. A context saved
/// with [`CursorDecoder::last_element_context`] or
/// [`CursorDecoder::rest_context`] is read back with
/// [`CursorDecoder::read_range`] and [`decode_range`].
pub struct CursorDecoder<R: ByteSource> {
    src: R,
    pos: usize,
    /// The root record's context (from the 4-byte header).
    root: DecoderContext,
    stack: Vec<Level>,
    last_element: Option<DecoderContext>,
    /// Scratch for the tag array being parsed: the next child context.
    desc: Vec<TagId>,
    done: bool,
    /// Scratch for the current record header.
    hdr: Vec<u8>,
    /// Scratch for the current text body.
    text: Vec<u8>,
    /// Scratch for readback ranges (see [`CursorDecoder::read_range`]).
    range: Vec<u8>,
    /// Total bytes fetched by `next` (skipped bytes are *not* counted —
    /// that is the point of the index).
    pub bytes_read: usize,
}

impl<R: ByteSource> CursorDecoder<R> {
    /// Creates a cursor over a source; `dict_len` is the tag dictionary
    /// size. Fetches the 4-byte root-record header immediately.
    pub fn new(mut src: R, dict_len: usize) -> Result<CursorDecoder<R>, R::Error> {
        if src.len() < 4 {
            return Err(DecodeError { offset: 0, message: "missing header".into() }.into());
        }
        let mut hdr = Vec::with_capacity(4);
        src.fetch(0, 4, &mut hdr)?;
        let root = DecoderContext::root(&hdr, dict_len)?;
        Ok(CursorDecoder {
            src,
            pos: root.start,
            root,
            stack: Vec::new(),
            last_element: None,
            desc: Vec::new(),
            done: false,
            hdr,
            text: Vec::new(),
            range: Vec::new(),
            bytes_read: 4,
        })
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

    /// The context of the element record most recently opened by
    /// [`CursorDecoder::next`] — save it before skipping to allow
    /// readback.
    pub fn last_element_context(&self) -> Option<DecoderContext> {
        self.last_element.clone()
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
    /// event borrows the decoder's fetch buffer.
    #[allow(clippy::should_implement_trait)] // fallible, lending pull-style next()
    pub fn next(&mut self) -> Result<Option<Event<'_>>, R::Error> {
        if self.done {
            return Ok(None);
        }
        // Close any element whose body is exhausted.
        if let Some(top) = self.stack.last() {
            debug_assert!(self.pos <= top.end, "decoder overran a subtree");
            if self.pos == top.end {
                let level = self.stack.pop().expect("non-empty");
                if self.stack.is_empty() {
                    self.done = true;
                }
                return Ok(Some(Event::Close(level.tag)));
            }
        }
        if self.stack.is_empty() && self.pos > self.root.start {
            self.done = true;
            return Ok(None);
        }

        let (tags, bound, level_end) = match self.stack.last() {
            Some(top) => (top.tags.clone(), top.body_bound, top.end),
            None => (self.root.tags.clone(), self.root.body_bound, self.root.end),
        };
        let record_start = self.pos;
        // The widths of the fixed prefix (leaf bit, tag index, size) are
        // known from the parent context before reading a single byte —
        // fetch exactly that many, then the tag array whose presence the
        // leaf bit (the record's first bit) reveals.
        let prefix_bits =
            1 + width_for(tags.len().saturating_sub(1) as u64) as usize + width_for(bound) as usize;
        self.hdr.clear();
        self.src.fetch(record_start, prefix_bits.div_ceil(8), &mut self.hdr)?;
        if BitReader::at(&self.hdr, 0).read_bit() == Some(false) {
            let have = self.hdr.len();
            let hdr_len = (prefix_bits + tags.len()).div_ceil(8);
            if hdr_len > have {
                self.src.fetch(record_start + have, hdr_len - have, &mut self.hdr)?;
            }
        }
        self.desc.clear();
        let desc = &mut self.desc;
        let h = parse_header(&self.hdr, record_start, &tags, bound, level_end, |t| desc.push(t))?;
        self.bytes_read += h.body_start - record_start;
        if h.tag == TagId::TEXT {
            if self.stack.is_empty() {
                return Err(DecodeError {
                    offset: record_start,
                    message: "text node at document root".into(),
                }
                .into());
            }
            let size = h.body_end - h.body_start;
            self.text.clear();
            self.src.fetch(h.body_start, size, &mut self.text)?;
            let text = std::str::from_utf8(&self.text).map_err(|_| DecodeError {
                offset: h.body_start,
                message: "invalid UTF-8 text".into(),
            })?;
            self.pos = h.body_end;
            self.bytes_read += size;
            return Ok(Some(Event::Text(Cow::Borrowed(text))));
        }
        // Element record. The child-context tag list is the only
        // per-record allocation (it outlives this record via saved
        // `DecoderContext`s).
        self.last_element =
            Some(DecoderContext { start: record_start, end: h.body_end, tags, body_bound: bound });
        self.stack.push(Level {
            tag: h.tag,
            tags: self.desc.as_slice().into(),
            body_bound: (h.body_end - h.body_start) as u64,
            end: h.body_end,
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
        if self.stack.is_empty() {
            self.done = true;
        }
    }

    /// Fetches the byte range of a saved context in one pull (pending
    /// readback) and returns it; decode it in place with [`decode_range`]
    /// using `ctx.start` as the base. The borrow ends before the next
    /// navigation call, so one internal buffer serves every readback of a
    /// session.
    pub fn read_range(&mut self, ctx: &DecoderContext) -> Result<&[u8], R::Error> {
        if ctx.end < ctx.start {
            return Err(DecodeError { offset: ctx.start, message: "inverted range".into() }.into());
        }
        self.range.clear();
        self.src.fetch(ctx.start, ctx.end - ctx.start, &mut self.range)?;
        Ok(&self.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_document, Encoding};
    use xsac_xml::Document;

    fn cursor(bytes: &[u8], dict_len: usize) -> CursorDecoder<SliceSource<'_>> {
        CursorDecoder::new(SliceSource(bytes), dict_len).unwrap()
    }

    /// The whole document through the range decoder, under its root
    /// context.
    fn decode_all(bytes: &[u8], dict_len: usize) -> Result<Vec<Event<'_>>, DecodeError> {
        let mut out = Vec::new();
        decode_range(bytes, 0, &DecoderContext::root(bytes, dict_len)?, &mut out)?;
        Ok(out)
    }

    /// The whole document through the cursor, as owned events.
    fn cursor_events(bytes: &[u8], dict_len: usize) -> Vec<Event<'static>> {
        let mut d = cursor(bytes, dict_len);
        let mut out = Vec::new();
        while let Some(ev) = d.next().unwrap() {
            out.push(ev.into_owned());
        }
        out
    }

    fn roundtrip(xml: &str) {
        let doc = Document::parse(xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        assert_eq!(decode_all(&enc.bytes, doc.dict.len()).unwrap(), doc.events(), "{xml}");
        assert_eq!(cursor_events(&enc.bytes, doc.dict.len()), doc.events(), "{xml}");
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

    #[test]
    fn skipped_bytes_not_counted() {
        let doc = Document::parse(
            "<a><b><x>0123456789012345678901234567890123456789</x></b><c>c</c></a>",
        )
        .unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let full = {
            let mut d = cursor(&enc.bytes, doc.dict.len());
            while d.next().unwrap().is_some() {}
            d.bytes_read
        };
        let skipped = {
            let mut d = cursor(&enc.bytes, doc.dict.len());
            d.next().unwrap(); // a
            d.next().unwrap(); // b
            d.skip_current();
            while d.next().unwrap().is_some() {}
            d.bytes_read
        };
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
        let mut events = Vec::new();
        decode_range(&enc.bytes, 0, &ctx, &mut events).unwrap();
        let b = doc.dict.get("b").unwrap();
        let x = doc.dict.get("x").unwrap();
        let y = doc.dict.get("y").unwrap();
        assert_eq!(
            events,
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
        let mut events = Vec::new();
        decode_range(&enc.bytes, 0, &ctx, &mut events).unwrap();
        let c = doc.dict.get("c").unwrap();
        let dd = doc.dict.get("d").unwrap();
        assert_eq!(
            events,
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

    /// Every proper prefix of an encoding fails to decode, through the
    /// cursor and through the range decoder alike.
    #[test]
    fn truncated_input_errors() {
        let doc = Document::parse("<a><b>hello world</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        for cut in 0..enc.bytes.len() {
            let truncated = &enc.bytes[..cut];
            assert!(decode_all(truncated, doc.dict.len()).is_err(), "range decoder, cut {cut}");
            let Ok(mut d) = CursorDecoder::new(SliceSource(truncated), doc.dict.len()) else {
                continue;
            };
            let result = loop {
                match d.next() {
                    Ok(None) => break Ok(()),
                    Ok(Some(_)) => {}
                    Err(e) => break Err(e),
                }
            };
            assert!(result.is_err(), "cursor, cut {cut}: truncation must be detected");
        }
    }

    #[test]
    fn garbage_header_errors() {
        assert!(CursorDecoder::new(SliceSource(&[1, 2]), 5).is_err());
        assert!(DecoderContext::root(&[1, 2], 5).is_err());
    }

    /// A `ByteSource` that counts fetched bytes — stands in for the
    /// metered SOE reader to pin the cursor's touch pattern.
    struct CountingSource<'a> {
        data: &'a [u8],
        fetched: usize,
    }

    impl ByteSource for CountingSource<'_> {
        type Error = DecodeError;
        fn len(&self) -> usize {
            self.data.len()
        }
        fn fetch(
            &mut self,
            offset: usize,
            len: usize,
            out: &mut Vec<u8>,
        ) -> Result<(), DecodeError> {
            SliceSource(self.data).fetch(offset, len, out)?;
            self.fetched += len;
            Ok(())
        }
    }

    /// The two decoders that ship agree event for event: the cursor's
    /// walk against the slice decoder [`decode_range`] over the whole
    /// encoding (root context), on hand-written shapes and on every
    /// generated dataset.
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
            let expect = decode_all(&enc.bytes, doc.dict.len()).unwrap();
            assert!(expect.len() > 1);
            assert_eq!(cursor_events(&enc.bytes, doc.dict.len()), expect);
        }
    }

    #[test]
    fn cursor_skip_fetches_nothing_from_skipped_subtree() {
        let doc = Document::parse(
            "<a><b><x>0123456789012345678901234567890123456789</x></b><c>c</c></a>",
        )
        .unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let full = {
            let mut d =
                CursorDecoder::new(CountingSource { data: &enc.bytes, fetched: 0 }, doc.dict.len())
                    .unwrap();
            while d.next().unwrap().is_some() {}
            d.into_source().fetched
        };
        let skipped = {
            let mut d =
                CursorDecoder::new(CountingSource { data: &enc.bytes, fetched: 0 }, doc.dict.len())
                    .unwrap();
            d.next().unwrap(); // a
            d.next().unwrap(); // b
            d.skip_current();
            while d.next().unwrap().is_some() {}
            d.into_source().fetched
        };
        assert!(skipped + 40 <= full, "skip must not fetch the subtree: {skipped} vs {full}");
    }

    #[test]
    fn cursor_readback_decodes_from_fetched_range_only() {
        let doc = Document::parse("<a><b><x>11</x><y>22</y></b><c>cc</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        d.skip_current();
        // The readback decodes over a buffer holding only the saved range.
        let data = d.read_range(&ctx).unwrap();
        assert_eq!(data.len(), ctx.end - ctx.start);
        let mut events = Vec::new();
        decode_range(data, ctx.start, &ctx, &mut events).unwrap();
        let mut whole = Vec::new();
        decode_range(&enc.bytes, 0, &ctx, &mut whole).unwrap();
        assert_eq!(events, whole);
    }

    #[test]
    fn decode_range_rejects_range_outside_data() {
        let doc = Document::parse("<a><b>hello</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        let mut out = Vec::new();
        // Buffer starts after the range, or is too short: typed error.
        let short = &enc.bytes[ctx.start..ctx.end - 1];
        assert!(decode_range(short, ctx.start, &ctx, &mut out).is_err());
        assert!(decode_range(&enc.bytes[..], ctx.start + 1, &ctx, &mut out).is_err());
    }

    #[test]
    fn cursor_truncated_input_errors() {
        let doc = Document::parse("<a><b>hello world</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let truncated = &enc.bytes[..enc.bytes.len() - 4];
        let mut d = cursor(truncated, doc.dict.len());
        let mut result = Ok(());
        loop {
            match d.next() {
                Ok(None) => break,
                Ok(Some(_)) => {}
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert!(result.is_err(), "truncation must be detected");
    }
}
