//! Serialization of [`DocMeta`] — the payload of the `Hello` reply.
//!
//! The format is a straight field-by-field binary layout using the wire
//! primitives (little-endian integers, length-prefixed strings/byte
//! strings), decoded through the same bounds-checked cursor as every
//! other message: a hostile or truncated meta payload surfaces as a
//! typed [`WireError`], never a panic. The payload is O(layout) — tag
//! dictionary, integrity scheme, geometry, lengths and the per-chunk
//! digest table; the encoded document itself never travels, the SOE
//! streams it back out of the ciphertext. Every document is TCSBR-encoded,
//! so no encoding selector travels either: protocol version 1 carried one
//! byte for it after the dictionary, and version 2 dropped it. Since
//! version 3 this payload is the only statement of the document's
//! geometry on the wire: the `Hello` reply carries it whole.
//!
//! The *integrity* of the material does not rest on this layer — the
//! digest table is encrypted and position-bound, so a server lying here
//! can only cause verification failures client-side (the tamper tests
//! pin this) — but internally *consistent* geometry is enforced here, so
//! a hostile meta cannot push the session layer into out-of-range
//! arithmetic before verification gets a chance to fail.

use crate::wire::{Cursor, WireError};
use xsac_crypto::chunk::{ChunkLayout, DIGEST_RECORD};
use xsac_crypto::IntegrityScheme;
use xsac_soe::DocMeta;
use xsac_xml::TagDict;

/// Serializes document metadata for the wire.
pub fn encode_meta(meta: &DocMeta) -> Vec<u8> {
    let mut out = Vec::new();
    // Tag dictionary, in id order (entry 0 is always `#text`).
    out.extend_from_slice(&(meta.dict.len() as u32).to_le_bytes());
    for (_, name) in meta.dict.iter() {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    // Scheme + geometry + lengths.
    out.push(scheme_code(meta.scheme));
    out.extend_from_slice(&(meta.layout.chunk_size as u32).to_le_bytes());
    out.extend_from_slice(&(meta.layout.fragment_size as u32).to_le_bytes());
    out.extend_from_slice(&(meta.plain_len as u64).to_le_bytes());
    out.extend_from_slice(&(meta.ciphertext_len as u64).to_le_bytes());
    // Encrypted digest table.
    out.extend_from_slice(&(meta.digests.len() as u32).to_le_bytes());
    for d in &meta.digests {
        out.extend_from_slice(d);
    }
    out
}

/// Parses a meta payload, enforcing internal consistency: the
/// announced geometry, lengths and digest-table size must agree with each
/// other exactly as honest preparation would produce them. A disagreeing
/// payload is a typed [`WireError::Malformed`], so the connection layer
/// reports it and survives instead of panicking (or handing the session
/// layer impossible arithmetic).
pub fn decode_meta(body: &[u8]) -> Result<DocMeta, WireError> {
    let mut c = Cursor::new(body);
    let dict_n = c.u32()? as usize;
    let mut dict = TagDict::new();
    for i in 0..dict_n {
        let name = c.str()?;
        let id = dict.intern(name);
        if id.index() != i {
            // Entry 0 must be `#text` (pre-interned by `TagDict::new`)
            // and every other entry fresh — duplicates would silently
            // renumber tags and scramble the decoded document.
            return Err(WireError::Malformed("dictionary entries out of order"));
        }
    }
    let scheme = scheme_from_code(c.u8()?)?;
    let layout = ChunkLayout { chunk_size: c.u32()? as usize, fragment_size: c.u32()? as usize };
    if layout.chunk_size == 0
        || layout.fragment_size == 0
        || !layout.fragment_size.is_multiple_of(8)
        || !layout.chunk_size.is_multiple_of(layout.fragment_size)
    {
        // `ChunkLayout::validate` asserts; a hostile geometry must be a
        // typed error instead.
        return Err(WireError::Malformed("invalid chunk geometry"));
    }
    let plain_len = c.u64()? as usize;
    let ciphertext_len = c.u64()? as usize;
    // The ciphertext is the plaintext zero-padded to the 8-byte block
    // size — any other announced length is a lie about the geometry.
    if ciphertext_len != plain_len.div_ceil(8) * 8 {
        return Err(WireError::Malformed("ciphertext length disagrees with plaintext length"));
    }
    let digest_n = c.u32()? as usize;
    // Tamper-resistant schemes carry exactly one digest record per chunk
    // of the announced ciphertext; ECB carries none.
    let expect_digests = match scheme {
        IntegrityScheme::Ecb => 0,
        _ => ciphertext_len.div_ceil(layout.chunk_size),
    };
    if digest_n != expect_digests {
        return Err(WireError::Malformed("digest table disagrees with announced length"));
    }
    let mut digests = Vec::with_capacity(digest_n.min(1 << 20));
    for _ in 0..digest_n {
        let rec: [u8; DIGEST_RECORD] =
            c.take(DIGEST_RECORD, "digest record")?.try_into().expect("record length");
        digests.push(rec);
    }
    c.finish("trailing meta bytes")?;
    Ok(DocMeta { dict, scheme, layout, digests, plain_len, ciphertext_len })
}

fn scheme_code(s: IntegrityScheme) -> u8 {
    match s {
        IntegrityScheme::Ecb => 0,
        IntegrityScheme::CbcSha => 1,
        IntegrityScheme::CbcShac => 2,
        IntegrityScheme::EcbMht => 3,
    }
}

fn scheme_from_code(code: u8) -> Result<IntegrityScheme, WireError> {
    Ok(match code {
        0 => IntegrityScheme::Ecb,
        1 => IntegrityScheme::CbcSha,
        2 => IntegrityScheme::CbcShac,
        3 => IntegrityScheme::EcbMht,
        _ => return Err(WireError::Malformed("unknown integrity scheme")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsac_crypto::chunk::ChunkLayout;
    use xsac_crypto::{IntegrityScheme, TripleDes};
    use xsac_soe::ServerDoc;
    use xsac_xml::Document;

    #[test]
    fn meta_roundtrips_byte_exactly() {
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let key = TripleDes::new(*b"meta-roundtrip-key-24-ab");
        let prepared = ServerDoc::prepare(
            &doc,
            &key,
            IntegrityScheme::EcbMht,
            ChunkLayout { chunk_size: 256, fragment_size: 32 },
        );
        let meta = prepared.meta();
        let decoded = decode_meta(&encode_meta(&meta)).unwrap();
        assert_eq!(decoded.scheme, meta.scheme);
        assert_eq!(decoded.layout, meta.layout);
        assert_eq!(decoded.digests, meta.digests);
        assert_eq!(decoded.plain_len, meta.plain_len);
        assert_eq!(decoded.ciphertext_len, meta.ciphertext_len);
        assert_eq!(decoded.dict.len(), meta.dict.len());
        for (id, name) in meta.dict.iter() {
            assert_eq!(decoded.dict.name(id), name);
        }
        // Re-encoding the decoded meta is byte-identical (canonical form).
        assert_eq!(encode_meta(&decoded), encode_meta(&meta));
    }

    #[test]
    fn meta_payload_is_o_layout() {
        // The wire payload must scale with the digest table and the
        // dictionary, never the document text: a 50× larger document in
        // the same chunk geometry grows the payload by chunk count only.
        let small = Document::parse("<a><b>x</b></a>").unwrap();
        let mut xml = String::from("<a>");
        for i in 0..400 {
            xml.push_str(&format!("<b>a much longer payload body number {i}</b>"));
        }
        xml.push_str("</a>");
        let big = Document::parse(&xml).unwrap();
        let key = TripleDes::new(*b"meta-roundtrip-key-24-ab");
        let layout = ChunkLayout { chunk_size: 2048, fragment_size: 128 };
        let s = ServerDoc::prepare(&small, &key, IntegrityScheme::CbcShac, layout);
        let b = ServerDoc::prepare(&big, &key, IntegrityScheme::CbcShac, layout);
        let small_wire = encode_meta(&s.meta()).len();
        let big_wire = encode_meta(&b.meta()).len();
        let digest_growth = (b.meta().digests.len() - s.meta().digests.len()) * DIGEST_RECORD;
        assert!(b.protected.plain_len > 50 * s.protected.plain_len);
        assert_eq!(
            big_wire - small_wire,
            digest_growth,
            "meta growth must be exactly the digest table (same dictionary)"
        );
    }

    #[test]
    fn hostile_meta_is_typed_error_not_panic() {
        let doc = Document::parse("<a><b>x</b></a>").unwrap();
        let key = TripleDes::new(*b"meta-roundtrip-key-24-ab");
        let prepared = ServerDoc::prepare(
            &doc,
            &key,
            IntegrityScheme::Ecb,
            ChunkLayout { chunk_size: 256, fragment_size: 32 },
        );
        let good = encode_meta(&prepared.meta());
        // Truncations at every prefix length parse as errors, never panic.
        for cut in 0..good.len() {
            assert!(decode_meta(&good[..cut]).is_err(), "cut at {cut} must not decode");
        }
        // A hostile geometry (zero chunk size) is refused.
        let mut evil = prepared.meta();
        evil.layout = ChunkLayout { chunk_size: 0, fragment_size: 32 };
        assert!(matches!(decode_meta(&encode_meta(&evil)), Err(WireError::Malformed(_))));
    }

    #[test]
    fn hostile_meta_inconsistent_lengths_refused() {
        let doc = Document::parse("<a><b>some text body</b><c>more</c></a>").unwrap();
        let key = TripleDes::new(*b"meta-roundtrip-key-24-ab");
        let layout = ChunkLayout { chunk_size: 256, fragment_size: 32 };
        let prepared = ServerDoc::prepare(&doc, &key, IntegrityScheme::CbcShac, layout);

        // Ciphertext length that is not the block-padded plaintext length.
        let mut evil = prepared.meta();
        evil.ciphertext_len += 8;
        assert!(matches!(decode_meta(&encode_meta(&evil)), Err(WireError::Malformed(_))));

        // Digest table shorter than the announced ciphertext needs.
        let mut evil = prepared.meta();
        evil.digests.pop();
        assert!(matches!(decode_meta(&encode_meta(&evil)), Err(WireError::Malformed(_))));

        // Digest table longer than the announced ciphertext needs.
        let mut evil = prepared.meta();
        evil.digests.push([0u8; DIGEST_RECORD]);
        assert!(matches!(decode_meta(&encode_meta(&evil)), Err(WireError::Malformed(_))));

        // ECB must announce an empty digest table.
        let ecb = ServerDoc::prepare(&doc, &key, IntegrityScheme::Ecb, layout);
        let mut evil = ecb.meta();
        evil.digests.push([0u8; DIGEST_RECORD]);
        assert!(matches!(decode_meta(&encode_meta(&evil)), Err(WireError::Malformed(_))));
    }

    #[test]
    fn version_1_meta_payload_is_typed_error() {
        // Protocol version 1 put an encoding byte (always 4, TCSBR)
        // between the dictionary and the scheme. Such a payload must be
        // refused as malformed, never mis-parsed into shifted geometry.
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let key = TripleDes::new(*b"meta-roundtrip-key-24-ab");
        for scheme in IntegrityScheme::ALL {
            let meta = ServerDoc::prepare(&doc, &key, scheme, ChunkLayout::default()).meta();
            let mut v1 = encode_meta(&meta);
            let dict_end = 4 + meta.dict.iter().map(|(_, name)| 4 + name.len()).sum::<usize>();
            v1.insert(dict_end, 4);
            assert!(
                matches!(decode_meta(&v1), Err(WireError::Malformed(_))),
                "{scheme:?}: version-1 payload decoded"
            );
        }
    }
}
