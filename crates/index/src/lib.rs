//! The Skip index (§4 of Bouganim et al., VLDB 2004) and the encoding
//! variants it is compared against in Figure 8.
//!
//! The Skip index is "a highly compact structural index, encoded
//! recursively into the XML document to allow streaming", designed "to
//! detect and skip the unauthorized fragments (wrt. an access control
//! policy) and the irrelevant fragments (wrt. a potential query)".
//!
//! Encodings (Figure 8):
//!
//! | name | content |
//! |------|---------|
//! | `NC` | the original, non-compressed textual document |
//! | `TC` | dictionary tag compression: `log2(Nt)`-bit tag codes |
//! | `TCS` | TC + subtree sizes (skippable; closing tags dropped) |
//! | `TCSB` | TCS + a descendant-tag bitmap per internal element |
//! | `TCSBR` | the recursive variant of TCSB — **the Skip index** |
//!
//! Place in the workspace (see the repo-root `README.md` architecture
//! map): this crate is the §4–§5 layer — it turns a parsed document into
//! skippable encoded bytes on the server side, and back into events
//! inside the SOE, where `xsac-soe` meters every consumed byte through
//! the integrity layer of `xsac-crypto`.
//!
//! Modules:
//! * [`bits`] — bit-level readers/writers;
//! * [`encode`] — document → encoded bytes for every variant;
//! * [`decode`] — one record parser behind two decoders: the streaming
//!   [`CursorDecoder`] with the paper's `SkipStack`, able to skip subtrees
//!   by their byte extents, and [`decode_range`], which re-decodes a saved
//!   range (pending-subtree readback, or the whole document);
//! * [`overhead`] — the structure/text ratios of Figure 8.

pub mod bits;
pub mod decode;
pub mod encode;
pub mod overhead;

pub use decode::{
    decode_range, ByteSource, CursorDecoder, DecodeError, DecoderContext, SliceSource,
};
pub use encode::{encode_document, encode_tcsbr_stream, EncodedDoc, Encoding, StreamedEncode};
pub use overhead::{overhead_row, OverheadReport};
