//! Chunked document layout (Appendix A).
//!
//! "We consider an XML document of any size, split in chunks (e.g., 2 KB),
//! divided in small fragments (e.g., 256 bytes), and in turn subdivided in
//! blocks of 8 bytes. The chunk partition is required to make the
//! integrity checking compatible with the memory capacity of the SOE,
//! fragments are introduced to allow random accesses inside a chunk and
//! the block is the unit of encryption."
//!
//! Protection is **chunk-at-a-time**, and [`ChunkProtector`] is the one
//! protector: plaintext is pushed in slices of any size, and each full
//! chunk is encrypted, digested and handed to a sink, so neither the
//! padded plaintext nor the ciphertext is ever materialized as a whole.
//! Publishing feeds it straight from the skip-index encoder (into memory
//! or to a file); [`ProtectedDoc::protect`] runs it over a plaintext
//! already in memory and collects the chunks into a [`MemStore`].

use crate::des::TripleDes;
use crate::merkle::chunk_tree;
use crate::modes::{cbc_encrypt_in_place, posxor_decrypt_in_place, posxor_encrypt_in_place, BLOCK};
use crate::protocol::IntegrityScheme;
use crate::sha1::{sha1, Digest};
use crate::store::{ChunkStore, FileStore, MemStore};
use std::io;
use std::path::Path;
use xsac_obs::{Phase, PhaseProfile, Tick};

/// Geometry of the protected document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkLayout {
    /// Chunk size in bytes (multiple of the fragment size).
    pub chunk_size: usize,
    /// Fragment size in bytes (multiple of 8).
    pub fragment_size: usize,
}

impl Default for ChunkLayout {
    fn default() -> Self {
        // Chunks as in the paper's example; fragments slightly smaller
        // (the paper gives 256 B as an example — 128 B halves the random-
        // access over-fetch at one extra proof level; see docs/BENCHMARKS.md).
        ChunkLayout { chunk_size: 2048, fragment_size: 128 }
    }
}

impl ChunkLayout {
    /// Validates the geometry.
    pub fn validate(&self) {
        assert!(self.fragment_size.is_multiple_of(BLOCK), "fragments must be whole blocks");
        assert!(
            self.chunk_size.is_multiple_of(self.fragment_size),
            "chunks must be whole fragments"
        );
    }

    /// Fragments per chunk.
    pub fn fragments_per_chunk(&self) -> usize {
        self.chunk_size / self.fragment_size
    }

    /// Chunk index of a byte offset.
    pub fn chunk_of(&self, offset: usize) -> usize {
        offset / self.chunk_size
    }
}

/// Encrypted digest record size (20-byte SHA-1 padded to 3 blocks).
pub const DIGEST_RECORD: usize = 24;

/// Block-position domain where digest records are encrypted (disjoint from
/// document block positions so no `E_k(b⊕p)` pair can be replayed between
/// the two areas).
const DIGEST_DOMAIN: u64 = 1 << 40;

/// A protected (encrypted + authenticated) document as stored on the
/// server / untrusted terminal, generic over the ciphertext backend.
///
/// The default backend is the in-memory [`MemStore`]; [`FileStore`] keeps
/// the ciphertext out of core behind a small resident window, and the
/// tests wrap either to inject storage failures. Every consumer reads
/// through the [`ChunkStore`] trait, so the choice is invisible to the
/// protocol — the `streaming_differential` harness pins byte-identical
/// behaviour.
#[derive(Clone)]
pub struct ProtectedDoc<S: ChunkStore = MemStore> {
    /// The integrity scheme in force.
    pub scheme: IntegrityScheme,
    /// Geometry.
    pub layout: ChunkLayout,
    /// Ciphertext backend (zero-padded plaintext, block-encrypted).
    pub store: S,
    /// Per-chunk encrypted digests (empty for [`IntegrityScheme::Ecb`]).
    pub digests: Vec<[u8; DIGEST_RECORD]>,
    /// Plaintext length before padding.
    pub plain_len: usize,
}

/// Push-style protection pipeline: plaintext arrives in arbitrary-sized
/// slices (e.g. straight from a streaming encoder), is assembled into
/// chunks, and each full chunk is encrypted, digested and handed to
/// `emit` immediately. One chunk-sized buffer is the only transient
/// state — neither the plaintext nor the ciphertext is ever materialized
/// whole, which is what lets publishing run encode → encrypt → sink as
/// one pass.
pub struct ChunkProtector<'k, E, F: FnMut(&[u8]) -> Result<(), E>> {
    key: &'k TripleDes,
    scheme: IntegrityScheme,
    layout: ChunkLayout,
    /// The chunk under assembly (plaintext until sealed).
    buf: Vec<u8>,
    /// Index of the chunk under assembly.
    ci: usize,
    /// Total plaintext pushed so far.
    plain_len: usize,
    digests: Vec<[u8; DIGEST_RECORD]>,
    emit: F,
    /// Wall time per protect phase: cipher work charged to
    /// [`Phase::Decrypt`] (the block cipher works both directions),
    /// digest work to [`Phase::Hash`], the emit sink to [`Phase::Io`].
    /// Telemetry only — never part of the byte-exact outputs.
    phases: PhaseProfile,
}

impl<'k, E, F: FnMut(&[u8]) -> Result<(), E>> ChunkProtector<'k, E, F> {
    /// Fresh pipeline over a ciphertext consumer.
    pub fn new(
        key: &'k TripleDes,
        scheme: IntegrityScheme,
        layout: ChunkLayout,
        emit: F,
    ) -> ChunkProtector<'k, E, F> {
        layout.validate();
        ChunkProtector {
            key,
            scheme,
            layout,
            // Exact-capacity chunk buffer: assembly never reallocates, so
            // the pipeline's residency is exactly one chunk.
            buf: Vec::with_capacity(layout.chunk_size),
            ci: 0,
            plain_len: 0,
            digests: Vec::new(),
            emit,
            phases: PhaseProfile::new(),
        }
    }

    /// Appends plaintext; every chunk completed by it is sealed and
    /// emitted before returning.
    pub fn push(&mut self, mut data: &[u8]) -> Result<(), E> {
        self.plain_len += data.len();
        while !data.is_empty() {
            let room = self.layout.chunk_size - self.buf.len();
            let take = room.min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.buf.len() == self.layout.chunk_size {
                self.seal()?;
            }
        }
        Ok(())
    }

    /// Encrypts + digests the assembled chunk and hands it downstream.
    fn seal(&mut self) -> Result<(), E> {
        // Zero padding of the final blocks (a full chunk is already
        // block-aligned: chunk sizes are whole fragments, fragments whole
        // blocks).
        self.buf.resize(self.buf.len().div_ceil(BLOCK) * BLOCK, 0);
        let ci = self.ci;
        let start = ci * self.layout.chunk_size;
        // Plaintext digest must be taken before the in-place pass.
        let t = Tick::now();
        let plain_digest =
            if self.scheme == IntegrityScheme::CbcSha { Some(sha1(&self.buf)) } else { None };
        self.phases.record(Phase::Hash, t);
        let t = Tick::now();
        match self.scheme {
            IntegrityScheme::Ecb | IntegrityScheme::EcbMht => {
                posxor_encrypt_in_place(self.key, &mut self.buf, (start / BLOCK) as u64);
            }
            IntegrityScheme::CbcSha | IntegrityScheme::CbcShac => {
                // Per-chunk CBC with the chunk index folded into the IV
                // (random access re-starts at chunk boundaries).
                cbc_encrypt_in_place(self.key, &mut self.buf, iv_for(ci));
            }
        }
        self.phases.record(Phase::Decrypt, t);
        let t = Tick::now();
        let digest = match self.scheme {
            IntegrityScheme::Ecb => None,
            IntegrityScheme::CbcSha => plain_digest,
            IntegrityScheme::CbcShac => Some(sha1(&self.buf)),
            IntegrityScheme::EcbMht => Some(chunk_tree(&self.buf, self.layout.fragment_size)[0]),
        };
        self.phases.record(Phase::Hash, t);
        if let Some(d) = digest {
            let t = Tick::now();
            self.digests.push(encrypt_digest(self.key, ci, &d));
            self.phases.record(Phase::Decrypt, t);
        }
        let t = Tick::now();
        (self.emit)(&self.buf)?;
        self.phases.record(Phase::Io, t);
        self.buf.clear();
        self.ci += 1;
        Ok(())
    }

    /// Peak bytes buffered by the pipeline itself (≤ one chunk) — for the
    /// protect-time residency accounting.
    pub fn peak_buffered(&self) -> usize {
        self.buf.capacity()
    }

    /// Seals the final partial chunk (block-padded) and returns the
    /// digest table, the total plaintext length pushed, and the wall time
    /// per protect phase (cipher, digest and emit splits) — telemetry
    /// only, never part of the byte-exact outputs.
    pub fn finish(mut self) -> Result<(Vec<[u8; DIGEST_RECORD]>, usize, PhaseProfile), E> {
        if !self.buf.is_empty() {
            self.seal()?;
        }
        Ok((self.digests, self.plain_len, self.phases))
    }
}

impl ProtectedDoc {
    /// Encrypts and authenticates `plaintext` under `key` into an
    /// in-memory store.
    pub fn protect(
        plaintext: &[u8],
        key: &TripleDes,
        scheme: IntegrityScheme,
        layout: ChunkLayout,
    ) -> ProtectedDoc {
        let mut ciphertext = Vec::with_capacity(plaintext.len().div_ceil(BLOCK) * BLOCK);
        let mut p = ChunkProtector::new(key, scheme, layout, |chunk: &[u8]| {
            ciphertext.extend_from_slice(chunk);
            Ok::<(), std::convert::Infallible>(())
        });
        p.push(plaintext).unwrap_or_else(|e| match e {});
        let (digests, _, _) = p.finish().unwrap_or_else(|e| match e {});
        ProtectedDoc {
            scheme,
            layout,
            store: MemStore::new(ciphertext),
            digests,
            plain_len: plaintext.len(),
        }
    }

    /// The stored ciphertext (in-memory backend).
    pub fn ciphertext(&self) -> &[u8] {
        &self.store.bytes
    }

    /// Mutable access to the stored ciphertext — how the tamper tests
    /// (and examples demonstrating detection) flip bytes.
    pub fn ciphertext_mut(&mut self) -> &mut Vec<u8> {
        &mut self.store.bytes
    }

    /// Re-homes this document's ciphertext (bytes as stored — including
    /// any tampering) into a file-backed store with the given resident
    /// window. The differential and fault harnesses use this to run the
    /// *same* protected bytes through both backends.
    pub fn to_file_backed(
        &self,
        path: &Path,
        window_bytes: usize,
    ) -> io::Result<ProtectedDoc<FileStore>> {
        let store =
            FileStore::create(path, &self.store.bytes, self.layout.chunk_size, window_bytes)?;
        Ok(ProtectedDoc {
            scheme: self.scheme,
            layout: self.layout,
            store,
            digests: self.digests.clone(),
            plain_len: self.plain_len,
        })
    }
}

impl<S: ChunkStore> ProtectedDoc<S> {
    /// Re-homes the document onto a backend built from the current one —
    /// e.g. `doc.map_store(FaultStore::new)` (from `xsac-testkit`) wraps
    /// the ciphertext in a fault-injecting store without touching the
    /// other fields.
    pub fn map_store<T: ChunkStore>(self, f: impl FnOnce(S) -> T) -> ProtectedDoc<T> {
        ProtectedDoc {
            scheme: self.scheme,
            layout: self.layout,
            store: f(self.store),
            digests: self.digests,
            plain_len: self.plain_len,
        }
    }

    /// Stored ciphertext length (padded plaintext).
    pub fn ciphertext_len(&self) -> usize {
        self.store.len()
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.store.len().div_ceil(self.layout.chunk_size)
    }

    /// Ciphertext byte range of a chunk.
    pub fn chunk_range(&self, ci: usize) -> std::ops::Range<usize> {
        let start = ci * self.layout.chunk_size;
        start..(start + self.layout.chunk_size).min(self.store.len())
    }

    /// Total stored size (ciphertext + digest table).
    pub fn stored_len(&self) -> usize {
        self.store.len() + self.digests.len() * DIGEST_RECORD
    }
}

/// Encrypts a 20-byte digest into a 24-byte record bound to its chunk.
/// Stack-only: the record never touches the heap.
pub fn encrypt_digest(key: &TripleDes, chunk_index: usize, digest: &Digest) -> [u8; DIGEST_RECORD] {
    let mut record = [0u8; DIGEST_RECORD];
    record[..20].copy_from_slice(digest);
    posxor_encrypt_in_place(key, &mut record, DIGEST_DOMAIN + (chunk_index as u64) * 3);
    record
}

/// Decrypts a digest record (stack-only).
pub fn decrypt_digest(key: &TripleDes, chunk_index: usize, record: &[u8; DIGEST_RECORD]) -> Digest {
    let mut dec = *record;
    posxor_decrypt_in_place(key, &mut dec, DIGEST_DOMAIN + (chunk_index as u64) * 3);
    dec[..20].try_into().expect("20 bytes")
}

fn iv_for(chunk_index: usize) -> u64 {
    0xA5A5_5A5A_0000_0000u64 ^ chunk_index as u64
}

/// CBC initialisation vector of a chunk (shared with the reader).
pub fn chunk_iv(chunk_index: usize) -> u64 {
    iv_for(chunk_index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsac_testkit::TempPath;

    fn key() -> TripleDes {
        TripleDes::new(*b"0123456789abcdefghijklmn")
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 253) as u8).collect()
    }

    #[test]
    fn layout_validation() {
        ChunkLayout::default().validate();
        assert_eq!(ChunkLayout::default().fragments_per_chunk(), 16);
        assert_eq!(ChunkLayout::default().chunk_of(2047), 0);
        assert_eq!(ChunkLayout::default().chunk_of(2048), 1);
    }

    #[test]
    #[should_panic(expected = "whole fragments")]
    fn bad_layout_rejected() {
        ChunkLayout { chunk_size: 1000, fragment_size: 256 }.validate();
    }

    #[test]
    fn protect_shapes() {
        let k = key();
        let d = data(5000);
        for scheme in IntegrityScheme::ALL {
            let p = ProtectedDoc::protect(&d, &k, scheme, ChunkLayout::default());
            assert_eq!(p.ciphertext().len(), 5000usize.div_ceil(8) * 8);
            assert_eq!(p.chunk_count(), 3);
            match scheme {
                IntegrityScheme::Ecb => assert!(p.digests.is_empty()),
                _ => assert_eq!(p.digests.len(), 3),
            }
            assert_eq!(p.plain_len, 5000);
        }
    }

    #[test]
    fn protector_output_independent_of_push_granularity() {
        // The push-style pipeline must produce the same ciphertext and
        // digest table whether the plaintext arrives whole, byte by byte,
        // or in awkward prime-sized slices — the property the streaming
        // encoder (which emits odd-sized runs) relies on.
        let k = key();
        let d = data(4999);
        let layout = ChunkLayout { chunk_size: 512, fragment_size: 64 };
        for scheme in IntegrityScheme::ALL {
            let whole = ProtectedDoc::protect(&d, &k, scheme, layout);
            for step in [1usize, 7, 131, 512, 4999] {
                let mut pieced = Vec::new();
                let mut p = ChunkProtector::<std::convert::Infallible, _>::new(
                    &k,
                    scheme,
                    layout,
                    |c: &[u8]| {
                        pieced.extend_from_slice(c);
                        Ok(())
                    },
                );
                for s in d.chunks(step) {
                    p.push(s).unwrap();
                }
                assert!(p.peak_buffered() <= layout.chunk_size, "{scheme:?}");
                let (dg, plain_len, _) = p.finish().unwrap();
                assert_eq!(pieced, whole.ciphertext(), "{scheme:?} step {step}");
                assert_eq!(dg, whole.digests, "{scheme:?} step {step}");
                assert_eq!(plain_len, d.len());
            }
        }
    }

    #[test]
    fn to_file_backed_preserves_bytes_and_tampering() {
        let k = key();
        let mut p =
            ProtectedDoc::protect(&data(3000), &k, IntegrityScheme::EcbMht, ChunkLayout::default());
        p.ciphertext_mut()[100] ^= 0x10; // tampering must survive the move
        let tmp = TempPath::new("to-file-backed");
        let f = p.to_file_backed(tmp.path(), 4096).unwrap();
        assert_eq!(std::fs::read(tmp.path()).unwrap(), p.ciphertext());
        assert_eq!(f.digests, p.digests);
    }

    #[test]
    fn digest_roundtrip_and_binding() {
        let k = key();
        let digest = sha1(b"hello");
        let rec = encrypt_digest(&k, 5, &digest);
        assert_eq!(decrypt_digest(&k, 5, &rec), digest);
        // A digest record moved to another chunk slot decrypts wrongly.
        assert_ne!(decrypt_digest(&k, 6, &rec), digest);
    }

    #[test]
    fn ciphertext_differs_between_schemes_and_positions() {
        let k = key();
        let d = vec![0x11u8; 4096];
        let ecb = ProtectedDoc::protect(&d, &k, IntegrityScheme::EcbMht, ChunkLayout::default());
        // Position XOR: equal plaintext blocks yield distinct ciphertext.
        assert_ne!(ecb.ciphertext()[0..8], ecb.ciphertext()[8..16]);
        let cbc = ProtectedDoc::protect(&d, &k, IntegrityScheme::CbcSha, ChunkLayout::default());
        assert_ne!(cbc.ciphertext()[0..8], ecb.ciphertext()[0..8]);
    }
}
