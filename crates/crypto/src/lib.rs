//! Cryptographic substrate for the xsac workspace, built from scratch
//! (no external crypto crates): DES / triple-DES, SHA-1, the paper's
//! position-XOR-ECB encryption, chunked documents and per-chunk Merkle
//! hash trees enabling *random integrity checking* (§6 + Appendix A of
//! Bouganim et al., VLDB 2004).
//!
//! Threat model (§6): "in a client-based context, the attacker is the user
//! himself" — block substitution, known-plaintext dictionaries,
//! statistical inference, and random tampering must all be defeated while
//! still allowing the SOE to make forward *and backward* random accesses
//! with 8-byte alignment.
//!
//! * [`des`] — the DES block cipher and 3DES-EDE as a fast SP-table
//!   implementation, with the bit-by-bit FIPS path retained as
//!   [`des::reference`] (both validated against published test vectors
//!   and against each other by differential property tests);
//! * [`sha1`](mod@crate::sha1) — SHA-1 (validated against FIPS-180 vectors);
//! * [`modes`] — ECB, CBC and the paper's `E_k(b ⊕ pos)` position-XOR-ECB;
//! * [`chunk`] — chunk/fragment layout of Appendix A, with a streaming
//!   chunk-at-a-time protection core shared by the in-memory and
//!   file-backed paths;
//! * [`store`] — ciphertext storage backends behind the [`ChunkStore`]
//!   trait: in-memory ([`MemStore`]) and out-of-core file-backed with a
//!   metered resident window ([`FileStore`]);
//! * [`merkle`] — per-chunk Merkle trees over ciphertext fragments;
//! * [`protocol`] — the four integrity schemes of Figure 11 (ECB,
//!   CBC-SHA, CBC-SHAC, ECB-MHT) with SOE/terminal cost accounting; the
//!   [`SoeReader`] caches each visited chunk's whole Merkle tree so
//!   terminal hashing is amortized to one chunk-length per visited chunk
//!   and every proof is a table lookup, keeps the Merkle nodes it has
//!   authenticated in the current chunk so a fetch ships only the proof
//!   siblings it cannot vouch for yet, deciphers ECB-MHT blocks only as
//!   reads consume them, and pulls every ciphertext byte through the
//!   document's store — storage failures surface as typed [`ReadError`]s,
//!   never panics.

pub mod chunk;
pub mod des;
pub mod merkle;
pub mod modes;
pub mod protocol;
pub mod sha1;
pub mod store;

pub use chunk::{ChunkLayout, ProtectedDoc};
pub use des::TripleDes;
pub use protocol::{AccessCost, IntegrityError, IntegrityScheme, LeafCache, ReadError, SoeReader};
pub use sha1::{sha1, Sha1};
pub use store::{
    ChunkStore, ChunkWindow, DynChunkStore, FileStore, MemStore, PoolDoc, ResidencyMeter,
    StoreError, WindowPool,
};
