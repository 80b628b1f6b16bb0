//! Robustness: the decoders that ship must never panic on hostile bytes —
//! they either produce nodes or return a `DecodeError`. (The integrity
//! layer rejects tampering before decoding in the real pipeline; the
//! decoders still must not be the weak link, e.g. under scheme `ECB`
//! which detects nothing.)
//!
//! Every property feeds the same input to both: the cursor walk over the
//! whole document, and the range decoder (pending-subtree readback) over
//! the document's root context and over an element context saved while
//! walking the *valid* encoding — a readback of a range whose bytes were
//! corrupted after the context was taken.

use proptest::prelude::*;
use xsac_index::decode::{decode_range, CursorDecoder, DecoderContext, SliceSource};
use xsac_index::encode::{encode_document, Encoding};
use xsac_index::DecodeError;
use xsac_xml::Document;

fn drive_cursor(bytes: &[u8], dict_len: usize) -> Result<usize, DecodeError> {
    let mut d = CursorDecoder::new(SliceSource(bytes), dict_len)?;
    let mut n = 0usize;
    // Defensive cap: a malformed stream must not loop forever either.
    for _ in 0..100_000 {
        match d.next()? {
            None => return Ok(n),
            Some(_) => n += 1,
        }
    }
    panic!("decoder did not terminate");
}

fn drive_range(bytes: &[u8], ctx: &DecoderContext) -> Result<usize, DecodeError> {
    let mut out = Vec::new();
    decode_range(bytes, 0, ctx, &mut out)?;
    Ok(out.len())
}

/// Drives both decoders over `bytes`; `saved` is an element context taken
/// from the valid encoding the bytes were derived from, if any.
fn drive(bytes: &[u8], dict_len: usize, saved: Option<&DecoderContext>) {
    let _ = drive_cursor(bytes, dict_len);
    if let Ok(root) = DecoderContext::root(bytes, dict_len) {
        let _ = drive_range(bytes, &root);
    }
    if let Some(ctx) = saved {
        let _ = drive_range(bytes, ctx);
    }
}

/// `<r>` holding `children` copies of `child(i)`, encoded, plus the
/// context of its first child element saved by the cursor.
fn encoded(children: usize, child: impl Fn(usize) -> String) -> (Vec<u8>, usize, DecoderContext) {
    let xml: String = (0..children).map(child).collect();
    let doc = Document::parse(&format!("<r>{xml}</r>")).unwrap();
    let enc = encode_document(&doc, Encoding::TCSBR);
    let mut d = CursorDecoder::new(SliceSource(&enc.bytes), doc.dict.len()).unwrap();
    d.next().unwrap(); // r
    d.next().unwrap(); // first child
    let ctx = d.last_element_context().unwrap();
    (enc.bytes, doc.dict.len(), ctx)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..Default::default() })]

    /// Arbitrary garbage: no panic, no hang — also for a readback of an
    /// arbitrary range of it.
    #[test]
    fn garbage_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        dict in 1usize..40,
        start in 0usize..600,
        len in 0usize..600,
        bound in any::<u32>(),
    ) {
        let ctx = DecoderContext {
            start,
            end: start + len,
            tags: (0..dict as u32).map(xsac_xml::TagId).collect(),
            body_bound: u64::from(bound),
        };
        drive(&bytes, dict, Some(&ctx));
    }

    /// Bit flips in valid encodings: no panic, no hang (errors are fine,
    /// and silent misdecodes are the integrity layer's problem).
    #[test]
    fn flipped_encodings_never_panic(
        children in 1usize..6,
        flip_pos in any::<u32>(),
        flip_bit in 0u8..8,
    ) {
        let (mut bytes, dict_len, saved) =
            encoded(children, |i| format!("<x><y>value {i}</y></x>"));
        let pos = flip_pos as usize % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        drive(&bytes, dict_len, Some(&saved));
    }

    /// Truncations of valid encodings: no panic, no hang.
    #[test]
    fn truncations_never_panic(children in 1usize..6, cut in any::<u32>()) {
        let (bytes, dict_len, saved) = encoded(children, |i| format!("<x>t{i}</x>"));
        let cut = cut as usize % (bytes.len() + 1);
        drive(&bytes[..cut], dict_len, Some(&saved));
    }

    /// A wrong dictionary size must not panic either.
    #[test]
    fn wrong_dictionary_never_panics(wrong_dict in 1usize..64) {
        let doc = Document::parse("<a><b>x</b><c>y</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        drive(&enc.bytes, wrong_dict, None);
    }
}
