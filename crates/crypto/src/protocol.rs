//! The four integrity schemes of Figure 11 and the cooperative SOE/
//! terminal read protocol of Appendix A.
//!
//! | scheme | encryption | integrity | random-access cost profile |
//! |---|---|---|---|
//! | `ECB` | position-XOR ECB | none | covering blocks only |
//! | `CBC-SHA` | per-chunk CBC | SHA-1 over *plaintext* chunks | whole chunk decrypted & hashed |
//! | `CBC-SHAC` | per-chunk CBC | SHA-1 over *ciphertext* chunks | whole chunk transferred & hashed, partial decryption |
//! | `ECB-MHT` | position-XOR ECB | per-chunk Merkle tree over ciphertext fragments | covering fragments + the proof siblings the SOE has not yet authenticated in the chunk (a log-size proof on a chunk's first fetch, often none for the next fragment); one digest decryption per visited chunk |
//!
//! The [`SoeReader`] plays the SOE: every byte entering it is charged as
//! communication, every block it deciphers as decryption, every byte it
//! hashes as hashing — the quantities the cost model of `xsac-soe` turns
//! into Figure-9/11/12 times. The terminal's own computations (fragment
//! hashes, Merkle proofs) are free for the SOE but tracked for reporting
//! as [`AccessCost::terminal_bytes_hashed`]; under ECB-MHT the terminal
//! builds a chunk's whole Merkle tree *once per visited chunk* and reads
//! every intra-chunk proof out of it, so a skip-heavy session's terminal
//! hashing is linear in the chunks visited, not quadratic in the
//! fragments fetched per chunk. The SOE verifies each ECB-MHT fragment
//! as ciphertext and deciphers only the 8-byte blocks a read consumes.
//! It keeps the Merkle nodes it has authenticated in the current chunk
//! ([`VerifiedNodes`]), so a fetch ships and recombines only the siblings
//! below the fragment's deepest authenticated ancestor: less than the
//! per-fragment proof of Appendix A, and charged as such.
//!
//! ## Storage backends and failure
//!
//! Every ciphertext byte reaches the reader through the document's
//! [`ChunkStore`] — in-memory ([`MemStore`]),
//! file-backed behind a bounded resident window
//! ([`FileStore`](crate::store::FileStore)), or a fault-injecting test
//! wrapper ([`FaultStore`](crate::store::FaultStore)). The fetch unit is
//! bounded for every scheme (covering blocks clipped to one chunk for
//! ECB, one fragment for ECB-MHT, one chunk for the CBC schemes), so a
//! session's resident state is O(chunk), whatever the document size.
//! Storage failures surface as [`ReadError::Store`] next to
//! [`ReadError::Integrity`] — typed, never a panic — and the working
//! buffer is discarded on *any* failed fetch, so no partial plaintext
//! can be served from a failed or unverified unit.

use crate::chunk::{decrypt_digest, ProtectedDoc, DIGEST_RECORD};
use crate::des::TripleDes;
use crate::merkle::{fragment_hashes, leaf_proof, merkle_tree, VerifiedNodes};
use crate::modes::{cbc_decrypt_in_place, posxor_decrypt_in_place, BLOCK};
use crate::sha1::{sha1, Digest};
use crate::store::{ChunkStore, MemStore, StoreError};
use std::fmt;
use std::sync::{Arc, OnceLock};
use xsac_obs::{Phase, PhaseProfile, SpanClock, Tick};

/// Integrity scheme selector (Figure 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntegrityScheme {
    /// Encryption only — confidentiality without tamper resistance.
    Ecb,
    /// CBC + SHA-1 over plaintext chunks ("the most direct application of
    /// state-of-the-art techniques").
    CbcSha,
    /// CBC + SHA-1 over ciphertext chunks (verification without
    /// decryption).
    CbcShac,
    /// The paper's scheme: position-XOR ECB + Merkle hash trees.
    EcbMht,
}

impl IntegrityScheme {
    /// All schemes in Figure-11 order.
    pub const ALL: [IntegrityScheme; 4] = [
        IntegrityScheme::Ecb,
        IntegrityScheme::CbcSha,
        IntegrityScheme::CbcShac,
        IntegrityScheme::EcbMht,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            IntegrityScheme::Ecb => "ECB",
            IntegrityScheme::CbcSha => "CBC-SHA",
            IntegrityScheme::CbcShac => "CBC-SHAC",
            IntegrityScheme::EcbMht => "ECB-MHT",
        }
    }

    /// Does the scheme detect tampering at all?
    pub fn tamper_resistant(self) -> bool {
        self != IntegrityScheme::Ecb
    }
}

/// Detected integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    /// Chunk where verification failed.
    pub chunk: usize,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "integrity violation detected in chunk {}", self.chunk)
    }
}

impl std::error::Error for IntegrityError {}

/// A failed [`SoeReader`] access: either the integrity layer rejected the
/// bytes, or the storage backend could not produce them. Both abort the
/// read without delivering partial plaintext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// Tampering detected (digest mismatch).
    Integrity(IntegrityError),
    /// The ciphertext store failed (short read, I/O error, out-of-bounds
    /// request).
    Store(StoreError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Integrity(e) => e.fmt(f),
            ReadError::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<IntegrityError> for ReadError {
    fn from(e: IntegrityError) -> Self {
        ReadError::Integrity(e)
    }
}

impl From<StoreError> for ReadError {
    fn from(e: StoreError) -> Self {
        ReadError::Store(e)
    }
}

/// Byte-level cost counters accumulated by a reader.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessCost {
    /// Bytes crossing the terminal→SOE channel.
    pub bytes_to_soe: u64,
    /// Bytes deciphered inside the SOE.
    pub bytes_decrypted: u64,
    /// Bytes hashed inside the SOE.
    pub bytes_hashed: u64,
    /// Digest records deciphered inside the SOE.
    pub digests_decrypted: u64,
    /// Bytes hashed by the (free, untrusted) terminal. Under ECB-MHT this
    /// is amortized by the tree cache: at most one chunk-length per
    /// visited chunk, however many fragments of it are fetched. It counts
    /// the leaf (fragment) bytes only, not the 40-byte inner-node combines
    /// of the tree build. When sessions share a [`LeafCache`], the **first
    /// toucher pays**: a chunk's hashing is charged to the one session that
    /// built its tree, every later session meters zero for it — so the sum
    /// across all sessions over one document stays ≤ one document length.
    pub terminal_bytes_hashed: u64,
    /// Number of read requests.
    pub reads: u64,
    /// Bytes transferred to the SOE *more than once*: the working buffer
    /// holds only the last fetched unit, so revisiting an earlier span
    /// (e.g. a pending readback over a multi-chunk bulk delivery) pays
    /// the channel again — and, over a networked store, extra round
    /// trips. Always ≤ [`bytes_to_soe`](AccessCost::bytes_to_soe) (these
    /// bytes are part of it); the audit keeps the cost model honest
    /// about re-transfer, which a per-request view would undercount.
    /// Tracked block-granular by a terminal-side bitmap (1 bit per
    /// 8-byte block, ~doc/64 bytes — free, abundant terminal memory).
    pub bytes_refetched: u64,
}

impl AccessCost {
    /// Adds another cost.
    pub fn add(&mut self, other: &AccessCost) {
        self.bytes_to_soe += other.bytes_to_soe;
        self.bytes_decrypted += other.bytes_decrypted;
        self.bytes_hashed += other.bytes_hashed;
        self.digests_decrypted += other.digests_decrypted;
        self.terminal_bytes_hashed += other.terminal_bytes_hashed;
        self.reads += other.reads;
        self.bytes_refetched += other.bytes_refetched;
    }
}

/// Terminal-side Merkle tree cache (ECB-MHT), shareable across sessions
/// serving the same [`ProtectedDoc`].
///
/// One lazily-initialized slot per chunk holding the chunk's whole tree
/// ([`merkle_tree`]: 2n−1 digests, about 300 bytes more than its n leaves
/// at the default layout): the first session to fetch any fragment of a
/// chunk builds (and is metered for) it; every other fetch — same session
/// or a concurrent one — reads its Merkle proof out of the cached table
/// for free. Reads are lock-free (`OnceLock::get` on the hot path); the terminal is untrusted, abundant
/// hardware (§2), so none of this occupies SOE memory, and a poisoned
/// cache can at worst cause verification *failures*, never forged
/// acceptance — the SOE still checks every proof against its decrypted
/// chunk digest.
pub struct LeafCache {
    chunks: Vec<OnceLock<Vec<Digest>>>,
}

impl LeafCache {
    /// Empty cache with one slot per chunk of `doc`.
    pub fn for_doc<S: ChunkStore>(doc: &ProtectedDoc<S>) -> LeafCache {
        let mut chunks = Vec::new();
        chunks.resize_with(doc.chunk_count(), OnceLock::new);
        LeafCache { chunks }
    }

    /// The chunk's cached tree, if already built.
    fn get(&self, ci: usize) -> Option<&[Digest]> {
        self.chunks.get(ci).and_then(|c| c.get()).map(Vec::as_slice)
    }

    /// The chunk's tree, built on first touch from `chunk`'s ciphertext
    /// bytes. `charge` runs exactly once per chunk across *all* sharers —
    /// in the session that actually builds the tree (first toucher pays).
    fn get_or_compute(
        &self,
        ci: usize,
        chunk: &[u8],
        fragment_size: usize,
        charge: impl FnOnce(u64),
    ) -> &[Digest] {
        let mut computed = false;
        let tree = self.chunks[ci].get_or_init(|| {
            computed = true;
            merkle_tree(&fragment_hashes(chunk, fragment_size))
        });
        if computed {
            charge(chunk.len() as u64);
        }
        tree
    }

    /// Number of chunks whose trees have been built (diagnostics).
    pub fn warmed_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }
}

/// The SOE-side reader: random-access reads with decryption and integrity
/// verification, cooperating with the untrusted terminal that stores the
/// ciphertext.
///
/// The reader models a *streaming* SOE with a small working buffer: the
/// most recently fetched unit (covering blocks within one chunk for ECB, a
/// fragment for ECB-MHT, a chunk for the CBC schemes — all fit the SOE RAM
/// of §2) stays in secure memory, so consecutive reads of nearby bytes are
/// free. An ECB-MHT fragment stays ciphertext once verified; each of its
/// blocks is deciphered the first time a read consumes it. Random jumps
/// refetch; that asymmetry is exactly what the paper's Figure 11 measures. The unit bound also bounds *terminal*
/// residency: over an out-of-core store, a session keeps O(chunk) bytes
/// in memory, never O(document), and reports its buffers to the store's
/// [`ResidencyMeter`](crate::store::ResidencyMeter) when it has one.
///
/// [`SoeReader::read`] is the one read method: it assembles each request
/// in a reader-owned output buffer and lends it, so a decoder pulling
/// records through the reader copies nothing of its own.
pub struct SoeReader<'a, S: ChunkStore = MemStore> {
    doc: &'a ProtectedDoc<S>,
    key: &'a TripleDes,
    /// Plaintext offset of the working buffer (meaningful when the
    /// buffer is non-empty).
    cache_start: usize,
    /// Working buffer: the last fetched unit. The allocation is reused
    /// across fetches — ciphertext is staged in and deciphered in place, so
    /// a session costs O(units-with-growth) allocations, not O(blocks).
    /// Plaintext throughout, except under ECB-MHT, where only the blocks
    /// marked in `plain_blocks` are. Discarded whole on any failed fetch:
    /// partial or unverified plaintext is never served.
    cache: Vec<u8>,
    /// ECB-MHT only: one bit per 8-byte block of `cache`, set once that
    /// block has been deciphered in place. Reset on every fetch.
    plain_blocks: Vec<u64>,
    /// ECB-MHT only: the current unit's fetch lap, left open until the
    /// unit's first decipher (which directly follows the fetch) switches
    /// it to [`Phase::Decrypt`] and stops it.
    open_lap: Option<SpanClock>,
    /// ECB-MHT only: nanoseconds and blocks of every timed Decrypt span
    /// so far, and their ratio in 16.16 fixed point — the rate untimed
    /// deciphers are charged at. A ratio of sums, not the last unit's own
    /// rate: a one-block span with a stall in it must not price a whole
    /// fragment.
    decipher_timed: (u64, u64),
    decipher_rate: u64,
    /// Reused buffer for the Merkle proof of the fragment being fetched:
    /// only the siblings `verified` cannot already vouch for.
    proof: Vec<Digest>,
    /// Terminal-side chunk staging buffer: holds a cold chunk's
    /// ciphertext while its Merkle tree is built.
    chunk_scratch: Vec<u8>,
    /// Which chunk's ciphertext `chunk_scratch` currently holds, when
    /// valid — lets a cold ECB-MHT fetch serve its fragment from the
    /// chunk it just read for the tree build instead of a second store
    /// read. The store is read-only, so the copy never goes stale.
    scratch_chunk: Option<usize>,
    /// Buffer bytes currently registered with the store's residency
    /// meter (0 when the store has none).
    registered_resident: usize,
    /// ECB-MHT only: the chunk whose digest was decrypted last ("one
    /// digest per visited chunk in the worst case, when the chunks
    /// accessed are not contiguous"), and the Merkle nodes of that chunk
    /// the SOE has authenticated so far: the digest itself, then every
    /// path node and sibling of a fragment proof that checked out. SOE
    /// memory, at most 2n−1 digests for n fragments per chunk; moving to
    /// another chunk forgets them, so a readback that jumps back
    /// re-proves from the chunk digest.
    verified_chunk: Option<usize>,
    verified: VerifiedNodes,
    /// Terminal-side Merkle tree cache (ECB-MHT only). The terminal is
    /// free, untrusted and abundant hardware (§2), so it keeps every
    /// visited chunk's tree — for the whole session when the reader owns
    /// the cache (created lazily on first MHT fetch), or across *all*
    /// sessions over the document when a shared cache was supplied via
    /// [`SoeReader::with_leaf_cache`]. Either way a chunk's tree is built
    /// at most once per cache lifetime, whatever the access pattern
    /// — including the backward jumps of pending-subtree readbacks. None
    /// of this occupies SOE memory.
    leaves: Option<Arc<LeafCache>>,
    /// Terminal-side audit bitmap: one bit per 8-byte block that has
    /// crossed the channel at least once, so re-transfers are metered
    /// ([`AccessCost::bytes_refetched`]). Lazily sized on first fetch.
    fetched_blocks: Vec<u64>,
    /// The plaintext of the last read, which [`SoeReader::read`] lends.
    /// Decoded and consumed inside the SOE like the working buffer, but
    /// not reported to the residency meter: it holds one request, which
    /// the request's caller would otherwise hold itself.
    out: Vec<u8>,
    /// Accumulated costs.
    pub cost: AccessCost,
    /// Wall time per pipeline phase: staging charged to
    /// [`Phase::Fetch`], cipher work to [`Phase::Decrypt`] (for ECB-MHT,
    /// at serve time, as blocks are first consumed: each unit's first
    /// decipher is timed and sets the rate its later ones are charged
    /// at), digest work to [`Phase::Hash`] (the terminal's tree build
    /// included — it runs on the same host here). Telemetry only: kept *outside* [`AccessCost`]
    /// because the differential harnesses compare costs exactly and
    /// timings are nondeterministic.
    pub phases: PhaseProfile,
}

impl<'a, S: ChunkStore> SoeReader<'a, S> {
    /// New reader session with a private (per-session) leaf cache.
    pub fn new(doc: &'a ProtectedDoc<S>, key: &'a TripleDes) -> SoeReader<'a, S> {
        SoeReader {
            doc,
            key,
            cache_start: 0,
            cache: Vec::new(),
            plain_blocks: Vec::new(),
            open_lap: None,
            decipher_timed: (0, 0),
            decipher_rate: 0,
            proof: Vec::new(),
            chunk_scratch: Vec::new(),
            scratch_chunk: None,
            registered_resident: 0,
            verified_chunk: None,
            verified: VerifiedNodes::default(),
            leaves: None,
            fetched_blocks: Vec::new(),
            out: Vec::new(),
            cost: AccessCost::default(),
            phases: PhaseProfile::new(),
        }
    }

    /// New reader session sharing a cross-session [`LeafCache`] (the
    /// multi-session serving path: tree building happens once per chunk
    /// per *document*, not per session).
    pub fn with_leaf_cache(
        doc: &'a ProtectedDoc<S>,
        key: &'a TripleDes,
        leaves: Arc<LeafCache>,
    ) -> SoeReader<'a, S> {
        assert_eq!(leaves.chunks.len(), doc.chunk_count(), "leaf cache sized for another layout");
        let mut r = SoeReader::new(doc, key);
        r.leaves = Some(leaves);
        r
    }

    /// Reads `len` plaintext bytes at `offset`, verifying integrity per
    /// the document's scheme, and lends them. One reader-owned output
    /// buffer serves every read, so the borrow ends before the next call.
    /// A failed read lends nothing: no partial plaintext is ever served.
    pub fn read(&mut self, offset: usize, len: usize) -> Result<&[u8], ReadError> {
        self.cost.reads += 1;
        // A request beyond the store is a storage-level fault (a
        // malformed or malicious index), reported — never a panic. Same
        // contract (and error payload) as every backend's `read_at`.
        crate::store::check_bounds(offset, len, self.doc.store.len())?;
        let end = offset + len;
        // Served spans are appended in order, so the output is written
        // once per byte.
        self.out.clear();
        // A request starting before the working buffer but overlapping it
        // would overwrite the buffer while fetching its own head and then
        // re-transfer bytes that were resident at entry. Serve the overlap
        // into its place in the output first (the one case that sizes the
        // output up front); the fetch loop skips it, so the channel (and
        // the refetch audit) only see the bytes that actually move.
        let cached = self.cache_start..self.cache_start + self.cache.len();
        let held = if !self.cache.is_empty() && offset < cached.start && end > cached.start {
            let take = end.min(cached.end) - cached.start;
            self.decipher(0, take);
            self.out.resize(len, 0);
            self.out[cached.start - offset..][..take].copy_from_slice(&self.cache[..take]);
            cached.start..cached.start + take
        } else {
            end..end
        };
        let mut pos = offset;
        while pos < end {
            let cached = self.cache_start..self.cache_start + self.cache.len();
            let take = if pos == held.start {
                held.len()
            } else if !self.cache.is_empty() && cached.contains(&pos) {
                let take = (end - pos).min(cached.end - pos);
                let lo = pos - self.cache_start;
                self.decipher(lo, lo + take);
                let span = &self.cache[lo..lo + take];
                if self.out.len() > pos - offset {
                    // The head of a held request, in front of the held span.
                    self.out[pos - offset..][..take].copy_from_slice(span);
                } else {
                    self.out.extend_from_slice(span);
                }
                take
            } else {
                // Clamp the fetch extent so an ECB unit (whose extent
                // tracks the request end) never re-covers the held range.
                // CBC and MHT units are chunk/fragment extents, which
                // cannot overlap the (unit-aligned) held range from below.
                let req_end = if pos < held.start { held.start } else { end };
                if let Err(e) = self.fetch_unit(pos, req_end) {
                    // A failed unit — storage fault or integrity violation
                    // — must never be consumable: discard the working
                    // buffer (its contents are unverified ciphertext or
                    // garbage). Centralized here so every error path of
                    // `fetch_unit`, present and future, is covered
                    // structurally.
                    self.drop_cache();
                    return Err(e);
                }
                continue;
            };
            if matches!(self.doc.scheme, IntegrityScheme::CbcShac | IntegrityScheme::EcbMht) {
                // These schemes verify *ciphertext*, so decryption is
                // charged per byte served. ECB-MHT deciphers exactly the
                // served blocks (`decipher`); CBC chaining has the whole
                // CBC-SHAC chunk deciphered at fetch time.
                self.cost.bytes_decrypted += take as u64;
            }
            pos += take;
        }
        Ok(&self.out)
    }

    /// Replaces the working buffer with the ciphertext range `lo..hi`
    /// read from the store (one bounded `read_at`, whatever the backend),
    /// reusing its allocation. The caller (`read`) discards the buffer on
    /// any failure.
    /// Unmetered: every caller is a `fetch_unit` arm whose chained span
    /// clock is already in its Fetch lap (one clock read per phase
    /// transition for the whole unit — per-operation brackets here would
    /// double the clock traffic on 128-byte fragments).
    fn stage(&mut self, lo: usize, hi: usize) -> Result<(), ReadError> {
        self.cache.clear();
        self.cache_start = lo;
        self.cache.resize(hi - lo, 0);
        self.doc.store.read_at(lo, &mut self.cache)?;
        self.note_residency();
        Ok(())
    }

    /// Discards the working buffer (verification or storage failure: its
    /// contents are unverified ciphertext or garbage).
    fn drop_cache(&mut self) {
        self.cache.clear();
    }

    /// ECB-MHT: deciphers, in place, the blocks of the working buffer's
    /// bytes `lo..hi` not deciphered since the last fetch (position-XOR
    /// ECB deciphers any block on its own). Each contiguous run of such
    /// blocks goes to the cipher in one call, so its blocks share the
    /// kernel's lanes. No-op for the other schemes, whose fetched units
    /// are plaintext already.
    ///
    /// Timing adds no clock read to the fetch lap's. A unit's first
    /// decipher runs right after its fetch and ends the fetch lap, left
    /// open for it, with a Decrypt span; later deciphers, often a block or
    /// two each, are charged at the timed spans' per-block rate without
    /// reading the clock — a clock pair per serve would cost more than
    /// the span clock's <2% budget allows.
    fn decipher(&mut self, lo: usize, hi: usize) {
        if self.doc.scheme != IntegrityScheme::EcbMht {
            return;
        }
        let blocks = lo / BLOCK..hi.div_ceil(BLOCK);
        let is_plain = |mask: &[u64], b: usize| mask[b / 64] & (1 << (b % 64)) != 0;
        let Some(first) = blocks.clone().find(|&b| !is_plain(&self.plain_blocks, b)) else {
            return;
        };
        let mut lap = self.open_lap.take();
        let before = self.phases.get(Phase::Decrypt);
        if let Some(lap) = &mut lap {
            lap.switch(&mut self.phases, Phase::Decrypt);
        }
        let first_block = (self.cache_start / BLOCK) as u64;
        let mut deciphered = 0;
        let mut b = first;
        while b < blocks.end {
            if is_plain(&self.plain_blocks, b) {
                b += 1;
                continue;
            }
            // A maximal run of still-ciphertext blocks: one cipher call.
            let end = (b..blocks.end).find(|&e| is_plain(&self.plain_blocks, e));
            let end = end.unwrap_or(blocks.end);
            let run = &mut self.cache[b * BLOCK..end * BLOCK];
            posxor_decrypt_in_place(self.key, run, first_block + b as u64);
            for m in b..end {
                self.plain_blocks[m / 64] |= 1 << (m % 64);
            }
            deciphered += (end - b) as u64;
            b = end;
        }
        match lap {
            Some(lap) => {
                lap.stop(&mut self.phases);
                let (nanos, blocks) = &mut self.decipher_timed;
                *nanos += self.phases.get(Phase::Decrypt) - before;
                *blocks += deciphered;
                self.decipher_rate = (*nanos << 16) / *blocks;
            }
            None => self.phases.add_nanos(Phase::Decrypt, (self.decipher_rate * deciphered) >> 16),
        }
        note_deciphered(deciphered);
    }

    /// Reports the reader's buffer footprint to the store's residency
    /// meter, if it has one (the out-of-core accounting: window + every
    /// reader buffer = total resident bytes).
    fn note_residency(&mut self) {
        if let Some(m) = self.doc.store.meter() {
            let now = self.cache.capacity() + self.chunk_scratch.capacity();
            match now.cmp(&self.registered_resident) {
                std::cmp::Ordering::Greater => m.add((now - self.registered_resident) as u64),
                std::cmp::Ordering::Less => m.sub((self.registered_resident - now) as u64),
                std::cmp::Ordering::Equal => {}
            }
            self.registered_resident = now;
        }
    }

    /// Meters the unit `lo..hi` (block-aligned, like every fetch unit)
    /// into the refetch audit: blocks seen before are charged to
    /// [`AccessCost::bytes_refetched`], then all are marked seen.
    fn note_unit_fetched(&mut self, lo: usize, hi: usize) {
        if self.fetched_blocks.is_empty() {
            self.fetched_blocks = vec![0u64; self.doc.store.len().div_ceil(BLOCK).div_ceil(64)];
        }
        for block in lo / BLOCK..hi.div_ceil(BLOCK) {
            let (word, bit) = (block / 64, 1u64 << (block % 64));
            if self.fetched_blocks[word] & bit != 0 {
                self.cost.bytes_refetched += BLOCK as u64;
            }
            self.fetched_blocks[word] |= bit;
        }
    }

    /// The chunk's encrypted digest record, or an integrity error if the
    /// (untrusted) digest table does not cover it — a truncated table is
    /// an attack, not a panic.
    fn digest_record(&self, ci: usize) -> Result<&[u8; DIGEST_RECORD], IntegrityError> {
        self.doc.digests.get(ci).ok_or(IntegrityError { chunk: ci })
    }

    /// Fetches, verifies and decrypts the unit containing `pos` into the
    /// working buffer. Costs are charged only after the fallible store
    /// reads succeed, so a session that retries past a transient fault
    /// meters exactly like a fault-free one; on any error the caller
    /// (`read`) discards the working buffer.
    fn fetch_unit(&mut self, pos: usize, req_end: usize) -> Result<(), ReadError> {
        let layout = self.doc.layout;
        let ci = layout.chunk_of(pos);
        let chunk_range = self.doc.chunk_range(ci);
        match self.doc.scheme {
            IntegrityScheme::Ecb => {
                // Unit: the blocks covering the request, clipped to the
                // current chunk — nothing to verify (8-byte-aligned
                // random access, Appendix A), but the unit stays bounded
                // so resident memory is O(chunk) even for bulk delivery
                // over an out-of-core store. A multi-chunk request simply
                // fetches one such unit per chunk.
                let f_lo = pos / BLOCK * BLOCK;
                let f_hi = (req_end.div_ceil(BLOCK) * BLOCK).min(chunk_range.end);
                let mut lap = SpanClock::start(Phase::Fetch);
                self.stage(f_lo, f_hi)?;
                self.cost.bytes_to_soe += (f_hi - f_lo) as u64;
                self.cost.bytes_decrypted += (f_hi - f_lo) as u64;
                self.note_unit_fetched(f_lo, f_hi);
                lap.switch(&mut self.phases, Phase::Decrypt);
                posxor_decrypt_in_place(self.key, &mut self.cache, (f_lo / BLOCK) as u64);
                lap.stop(&mut self.phases);
            }
            IntegrityScheme::CbcSha => {
                // Unit: the whole chunk — the digest is over plaintext, so
                // everything must be transferred, deciphered and hashed.
                let mut lap = SpanClock::start(Phase::Fetch);
                self.stage(chunk_range.start, chunk_range.end)?;
                let chunk_len = chunk_range.len();
                self.cost.bytes_to_soe += (chunk_len + DIGEST_RECORD) as u64;
                self.cost.bytes_decrypted += (chunk_len + DIGEST_RECORD) as u64;
                self.cost.bytes_hashed += chunk_len as u64;
                self.cost.digests_decrypted += 1;
                self.note_unit_fetched(chunk_range.start, chunk_range.end);
                lap.switch(&mut self.phases, Phase::Decrypt);
                cbc_decrypt_in_place(self.key, &mut self.cache, crate::chunk::chunk_iv(ci));
                let expect = decrypt_digest(self.key, ci, self.digest_record(ci)?);
                lap.switch(&mut self.phases, Phase::Hash);
                let got = sha1(&self.cache);
                lap.stop(&mut self.phases);
                if got != expect {
                    return Err(IntegrityError { chunk: ci }.into());
                }
            }
            IntegrityScheme::CbcShac => {
                // Unit: the whole chunk, hashed as ciphertext (no
                // decryption needed to verify), then deciphered.
                let mut lap = SpanClock::start(Phase::Fetch);
                self.stage(chunk_range.start, chunk_range.end)?;
                let chunk_len = chunk_range.len();
                self.cost.bytes_to_soe += (chunk_len + DIGEST_RECORD) as u64;
                self.cost.bytes_hashed += chunk_len as u64;
                self.cost.digests_decrypted += 1;
                self.cost.bytes_decrypted += DIGEST_RECORD as u64;
                self.note_unit_fetched(chunk_range.start, chunk_range.end);
                lap.switch(&mut self.phases, Phase::Decrypt);
                let expect = decrypt_digest(self.key, ci, self.digest_record(ci)?);
                lap.switch(&mut self.phases, Phase::Hash);
                let got = sha1(&self.cache);
                if got != expect {
                    return Err(IntegrityError { chunk: ci }.into());
                }
                // CBC chaining allows decrypting just the needed blocks;
                // decryption is charged per byte served (see `read`). The
                // working buffer holds the verified chunk.
                lap.switch(&mut self.phases, Phase::Decrypt);
                cbc_decrypt_in_place(self.key, &mut self.cache, crate::chunk::chunk_iv(ci));
                lap.stop(&mut self.phases);
            }
            IntegrityScheme::EcbMht => {
                // Unit: one fragment + the part of its Merkle proof the
                // SOE cannot vouch for yet; the fragment's ciphertext is
                // verified against the chunk's authenticated nodes.
                // Nothing is deciphered here: `read` deciphers each
                // block the first time it serves it.
                let (f_lo, f_hi) = self.fragment_extent(pos);
                // Terminal: the chunk's whole tree, built at most once
                // per chunk per cache lifetime — every further fetch in
                // the chunk (even after jumping away and back, as pending
                // readbacks do, or from a concurrent session sharing the
                // cache) reads its proof out of the cached table. The
                // building session alone is charged.
                let cache = match &self.leaves {
                    Some(c) => Arc::clone(c),
                    None => {
                        let c = Arc::new(LeafCache::for_doc(self.doc));
                        self.leaves = Some(Arc::clone(&c));
                        c
                    }
                };
                let tree = self.chunk_tree(&cache, ci, chunk_range.clone())?;
                // One chained lap for the whole unit (Fetch, Decrypt for a
                // chunk's digest, Hash): fragments are 128 bytes, so
                // per-operation clock brackets here would cost more than
                // the work they time — the A/B bench holds the whole span
                // clock to <2%. The lap stays open and ends with the
                // unit's first decipher (see `decipher`).
                let mut lap = SpanClock::start(Phase::Fetch);
                // Stage the fragment ciphertext into the working buffer.
                // When the scratch buffer holds this chunk (the cold
                // tree build just read it), the fragment is a subrange of
                // it — no second store read.
                if self.scratch_chunk == Some(ci) {
                    self.cache.clear();
                    self.cache_start = f_lo;
                    let start = chunk_range.start;
                    self.cache.extend_from_slice(&self.chunk_scratch[f_lo - start..f_hi - start]);
                    self.note_residency();
                } else {
                    self.stage(f_lo, f_hi)?;
                }
                self.plain_blocks.clear();
                self.plain_blocks.resize(self.cache.len().div_ceil(BLOCK).div_ceil(64), 0);
                // All fallible store reads are behind us: charge the unit.
                self.cost.bytes_to_soe += (f_hi - f_lo) as u64;
                self.note_unit_fetched(f_lo, f_hi);
                if self.verified_chunk != Some(ci) {
                    // A new chunk: its decrypted digest is the only node
                    // the SOE trusts.
                    lap.switch(&mut self.phases, Phase::Decrypt);
                    self.cost.bytes_to_soe += DIGEST_RECORD as u64;
                    self.cost.digests_decrypted += 1;
                    self.cost.bytes_decrypted += DIGEST_RECORD as u64;
                    let d = decrypt_digest(self.key, ci, self.digest_record(ci)?);
                    self.verified.reset(chunk_range.len().div_ceil(layout.fragment_size), d);
                    self.verified_chunk = Some(ci);
                }
                lap.switch(&mut self.phases, Phase::Hash);
                let f_idx = (f_lo - chunk_range.start) / layout.fragment_size;
                leaf_proof(tree, f_idx, self.verified.known(), &mut self.proof);
                // SOE: hash the fragment, recombine it with the shipped
                // siblings (one 40-byte combine each) up to its deepest
                // authenticated ancestor, and compare.
                let proof_len = self.proof.len() as u64;
                self.cost.bytes_to_soe += proof_len * 20;
                self.cost.bytes_hashed += (f_hi - f_lo) as u64 + proof_len * 40;
                if !self.verified.verify_leaf(f_idx, sha1(&self.cache), &self.proof) {
                    lap.stop(&mut self.phases);
                    return Err(IntegrityError { chunk: ci }.into());
                }
                self.open_lap = Some(lap);
            }
        }
        Ok(())
    }

    /// The chunk's Merkle tree out of `cache`, building it on first
    /// touch: a cold chunk is staged through the reader's scratch buffer
    /// (a fallible, bounded read), which then also serves the fragment
    /// that asked for it.
    fn chunk_tree<'c>(
        &mut self,
        cache: &'c LeafCache,
        ci: usize,
        chunk_range: std::ops::Range<usize>,
    ) -> Result<&'c [Digest], ReadError> {
        let fragment_size = self.doc.layout.fragment_size;
        // Warm lookups (every fragment fetch after the chunk's first)
        // must not touch the clock: this runs once per 128-byte unit.
        if let Some(tree) = cache.get(ci) {
            return Ok(tree);
        }
        // Two racing sessions may both stage the chunk, but the charge
        // closure runs only when this call built the tree: the first
        // toucher pays, and a session that lost the compute records
        // nothing.
        let t = Tick::now();
        self.scratch_chunk = None;
        self.chunk_scratch.clear();
        self.chunk_scratch.resize(chunk_range.len(), 0);
        self.doc.store.read_at(chunk_range.start, &mut self.chunk_scratch)?;
        self.scratch_chunk = Some(ci);
        self.note_residency();
        self.phases.record(Phase::Fetch, t);
        let cost = &mut self.cost;
        let phases = &mut self.phases;
        let t = Tick::now();
        Ok(cache.get_or_compute(ci, &self.chunk_scratch, fragment_size, |n| {
            cost.terminal_bytes_hashed += n;
            phases.record(Phase::Hash, t);
        }))
    }

    /// Fragment-aligned extent containing `pos`, clipped to the document.
    fn fragment_extent(&self, pos: usize) -> (usize, usize) {
        let fs = self.doc.layout.fragment_size;
        let lo = pos / fs * fs;
        let hi = (lo + fs).min(self.doc.store.len());
        (lo, hi)
    }
}

impl<S: ChunkStore> Drop for SoeReader<'_, S> {
    fn drop(&mut self) {
        // Release the buffers registered with the store's residency
        // meter, if any.
        if let Some(m) = self.doc.store.meter() {
            m.sub(self.registered_resident as u64);
        }
    }
}

/// Counts the blocks the ECB-MHT path physically deciphers: a no-op
/// outside tests, a per-thread meter inside them.
#[cfg(not(test))]
fn note_deciphered(_blocks: u64) {}
#[cfg(test)]
use tests::note_deciphered;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkLayout;
    use crate::store::{FaultStore, InjectedFault, TempPath};
    use std::cell::Cell;

    thread_local! {
        static DECIPHERED: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn note_deciphered(blocks: u64) {
        DECIPHERED.with(|c| c.set(c.get() + blocks));
    }

    fn deciphered() -> u64 {
        DECIPHERED.with(Cell::get)
    }

    fn key() -> TripleDes {
        TripleDes::new(*b"abcdefghijklmnopqrstuvwx")
    }

    fn doc(scheme: IntegrityScheme, n: usize) -> (ProtectedDoc, Vec<u8>) {
        let data: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();
        let k = key();
        (ProtectedDoc::protect(&data, &k, scheme, ChunkLayout::default()), data)
    }

    #[test]
    fn read_roundtrips_all_schemes() {
        for scheme in IntegrityScheme::ALL {
            let (p, data) = doc(scheme, 7000);
            let k = key();
            let mut r = SoeReader::new(&p, &k);
            for (off, len) in [(0usize, 100usize), (2040, 20), (4096, 2048), (6990, 10), (3, 5)] {
                let got = r.read(off, len).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
                assert_eq!(got, &data[off..off + len], "{scheme:?} read {off}+{len}");
            }
        }
    }

    #[test]
    fn read_roundtrips_file_backed() {
        // Same accesses as above, through the out-of-core store, with a
        // window a fraction of the document.
        for scheme in IntegrityScheme::ALL {
            let (p, data) = doc(scheme, 7000);
            let tmp = TempPath::new("proto-roundtrip");
            let f = p.to_file_backed(tmp.path(), 2048).unwrap();
            let k = key();
            let mut r = SoeReader::new(&f, &k);
            for (off, len) in [(0usize, 100usize), (2040, 20), (4096, 2048), (6990, 10), (3, 5)] {
                let got = r.read(off, len).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
                assert_eq!(got, &data[off..off + len], "{scheme:?} read {off}+{len}");
            }
            drop(r);
            let meter = f.store.meter().unwrap();
            assert!(
                meter.resident_bytes_peak() <= (2048 + 2 * p.layout.chunk_size + 64) as u64,
                "resident peak {} not O(window + chunk)",
                meter.resident_bytes_peak()
            );
            assert_eq!(meter.resident_bytes_now(), 2048, "only the window remains after drop");
        }
    }

    #[test]
    fn read_past_end_is_typed_error_not_panic() {
        for scheme in IntegrityScheme::ALL {
            let (p, _) = doc(scheme, 1000);
            let k = key();
            let mut r = SoeReader::new(&p, &k);
            for (off, len) in [(1000usize, 8usize), (999, 2), (usize::MAX, 1), (0, usize::MAX)] {
                let err = r.read(off, len).unwrap_err();
                assert!(
                    matches!(err, ReadError::Store(StoreError::OutOfBounds { .. })),
                    "{scheme:?} {off}+{len}: {err:?}"
                );
            }
            // The reader survives: a valid read still works.
            assert!(r.read(0, 8).is_ok());
        }
    }

    #[test]
    fn store_fault_surfaces_and_no_partial_delivery() {
        for scheme in IntegrityScheme::ALL {
            let (p, data) = doc(scheme, 8192);
            let k = key();
            let faulty = p.map_store(FaultStore::new);
            let mut r = SoeReader::new(&faulty, &k);
            r.read(0, 16).unwrap(); // warm: read 0 (+ leaf chunk read for MHT)
            let n_warm = faulty.store.reads_seen();
            faulty.store.fail_read(n_warm, InjectedFault::Io);
            // Spanning request: the first unit comes from the warm working
            // buffer, the next store read fails — the read lends nothing.
            let err = r.read(0, 4100).unwrap_err();
            assert!(matches!(err, ReadError::Store(StoreError::Io { .. })), "{scheme:?}: {err:?}");
            // The reader recovers once the (transient) fault passes.
            assert_eq!(r.read(0, 4100).unwrap(), &data[0..4100], "{scheme:?}");
        }
    }

    #[test]
    fn every_single_byte_tamper_detected() {
        // Property: for tamper-resistant schemes, flipping any ciphertext
        // byte in a read chunk is detected (sampled stride for speed).
        for scheme in [IntegrityScheme::CbcSha, IntegrityScheme::CbcShac, IntegrityScheme::EcbMht] {
            let (p, _) = doc(scheme, 4096);
            let k = key();
            for pos in (0..4096).step_by(97) {
                let mut bad = p.clone();
                bad.ciphertext_mut()[pos] ^= 0x40;
                let mut r = SoeReader::new(&bad, &k);
                let res = r.read(pos / 8 * 8, 8);
                assert!(res.is_err(), "{scheme:?}: tamper at {pos} undetected");
                // Refetching must fail again — for ECB-MHT the second
                // fetch takes the warm leaf-cache path, whose proofs are
                // derived from the already-computed (tampered) leaves.
                let res = r.read(pos / 8 * 8, 8);
                assert!(res.is_err(), "{scheme:?}: tamper at {pos} undetected on cached path");
                // A *different* fragment of the same chunk must also fail:
                // the root covers every leaf, cached or not.
                let chunk_start = pos / p.layout.chunk_size * p.layout.chunk_size;
                let other = chunk_start
                    + (pos % p.layout.chunk_size + p.layout.fragment_size) % p.layout.chunk_size;
                let res = r.read(other / 8 * 8, 8);
                assert!(res.is_err(), "{scheme:?}: tamper at {pos} undetected from {other}");
            }
        }
    }

    #[test]
    fn mht_leaf_hashes_computed_once_per_visited_chunk() {
        // Fetching every fragment of a chunk must charge the terminal at
        // most one chunk-length of hashing (the tentpole of PR 2: leaf
        // hashes are cached, not recomputed per fragment fetch).
        let (p, data) = doc(IntegrityScheme::EcbMht, 4096);
        let k = key();
        let layout = p.layout;
        let chunk0_len = p.chunk_range(0).len() as u64;
        let mut r = SoeReader::new(&p, &k);
        // Visit the fragments in reverse so every fetch misses the
        // working buffer and goes through `fetch_unit`.
        for f in (0..layout.fragments_per_chunk()).rev() {
            let off = f * layout.fragment_size;
            let got = r.read(off, 8).unwrap();
            assert_eq!(got, &data[off..off + 8]);
        }
        assert_eq!(
            r.cost.terminal_bytes_hashed, chunk0_len,
            "visiting all fragments of one chunk must hash its leaves exactly once"
        );
        // Moving to another chunk hashes that chunk's leaves once…
        let chunk1_len = p.chunk_range(1).len() as u64;
        r.read(layout.chunk_size, 8).unwrap();
        assert_eq!(r.cost.terminal_bytes_hashed, chunk0_len + chunk1_len);
        r.read(layout.chunk_size + layout.fragment_size, 8).unwrap();
        assert_eq!(r.cost.terminal_bytes_hashed, chunk0_len + chunk1_len, "still cached");
        // …and returning to the first chunk is free: the terminal
        // (abundant, untrusted hardware) keeps every visited chunk's
        // leaves for the session, so the backward jumps of pending
        // readbacks never re-hash.
        r.read(0, 8).unwrap();
        assert_eq!(r.cost.terminal_bytes_hashed, chunk0_len + chunk1_len, "revisit is free");
    }

    #[test]
    fn mht_deciphers_only_the_blocks_it_serves() {
        let (p, data) = doc(IntegrityScheme::EcbMht, 3 * 2048);
        let k = key();
        let fs = p.layout.fragment_size;
        // Every block of the working buffer is either deciphered (marked,
        // and equal to the plaintext) or untouched ciphertext.
        let check_buffer = |r: &SoeReader<'_>| {
            for (b, block) in r.cache.chunks(BLOCK).enumerate() {
                let at = r.cache_start + b * BLOCK;
                let (plain, cipher) = (&data[at..at + BLOCK], &p.ciphertext()[at..at + BLOCK]);
                assert_ne!(plain, cipher);
                let marked = r.plain_blocks[b / 64] & (1 << (b % 64)) != 0;
                assert_eq!(block, if marked { plain } else { cipher }, "block at {at}");
            }
        };
        let mut r = SoeReader::new(&p, &k);
        // (offset, len, blocks newly deciphered): every fetched unit
        // deciphers each block it serves exactly once.
        let script: [(usize, usize, u64); 9] = [
            (0, 8, 1),           // fragment 0, block 0
            (20, 30, 5),         // forward: blocks 2..=6
            (4, 8, 1),           // blocks 0, 1: only block 1 is new
            (fs + 40, 16, 2),    // fragment 1, blocks 5, 6
            (fs + 40, 16, 0),    // …again: nothing new
            (fs - 8, 16, 2),     // backward straddle: held block + refetched block
            (2 * fs - 6, 20, 3), // fragment boundary: blocks 15 | 0, 1
            (2048 - 12, 24, 4),  // chunk boundary: blocks 14, 15 | 0, 1
            (2048 - 12, 24, 2),  // backward again: chunk 0's tail refetched
        ];
        for (i, (off, len, new_blocks)) in script.into_iter().enumerate() {
            let before = deciphered();
            assert_eq!(r.read(off, len).unwrap(), &data[off..off + len], "step {i}");
            assert_eq!(deciphered() - before, new_blocks, "step {i}: {off}+{len}");
            check_buffer(&r);
            if i == 0 {
                assert_eq!(&r.cache[8..], &p.ciphertext()[8..fs], "rest still ciphertext");
            }
        }
    }

    #[test]
    fn mht_decrypt_time_costs_no_clock_read_past_a_units_first_decipher() {
        let (p, data) = doc(IntegrityScheme::EcbMht, 2048);
        let k = key();
        let mut r = SoeReader::new(&p, &k);
        // The unit's first decipher closes its fetch lap with a timed span…
        assert_eq!(r.read(0, 8).unwrap(), &data[..8]);
        assert!(r.open_lap.is_none());
        let rate = r.decipher_rate;
        assert!(rate > 0, "telemetry is on by default");
        // …later blocks of the unit are charged at the timed rate…
        let at = r.phases.get(Phase::Decrypt);
        assert_eq!(r.read(8, 24).unwrap(), &data[8..32]);
        assert_eq!(r.phases.get(Phase::Decrypt) - at, (rate * 3) >> 16);
        // …and a range with no new blocks is charged nothing.
        let at = r.phases.get(Phase::Decrypt);
        assert_eq!(r.read(0, 32).unwrap(), &data[..32]);
        assert_eq!(r.phases.get(Phase::Decrypt), at);
    }

    #[test]
    fn mht_cached_fetches_meter_like_fresh_ones() {
        // Apart from terminal hashing, a warm-cache fragment fetch charges
        // what a fresh reader would, less the proof digests the SOE has
        // already authenticated: the terminal's cache changes no SOE-side
        // cost, the SOE's own node cache only removes shipped siblings and
        // their combines.
        let (p, _) = doc(IntegrityScheme::EcbMht, 4096);
        let k = key();
        let mut warm = SoeReader::new(&p, &k);
        warm.read(0, 8).unwrap(); // warms leaf + digest caches of chunk 0
        let before = warm.cost;
        warm.read(1024, 8).unwrap(); // fragment 8, same chunk
        let mut fresh = SoeReader::new(&p, &k);
        fresh.read(1024, 8).unwrap();
        let warm_delta = AccessCost {
            bytes_to_soe: warm.cost.bytes_to_soe - before.bytes_to_soe,
            bytes_decrypted: warm.cost.bytes_decrypted - before.bytes_decrypted,
            bytes_hashed: warm.cost.bytes_hashed - before.bytes_hashed,
            digests_decrypted: warm.cost.digests_decrypted - before.digests_decrypted,
            terminal_bytes_hashed: warm.cost.terminal_bytes_hashed - before.terminal_bytes_hashed,
            reads: warm.cost.reads - before.reads,
            bytes_refetched: warm.cost.bytes_refetched - before.bytes_refetched,
        };
        // Fragment 0's proof authenticated the right half of the tree, so
        // fragment 8 ships 3 siblings under it instead of a 4-digest proof.
        let fs = p.layout.fragment_size as u64;
        assert_eq!(fresh.cost.bytes_to_soe, fs + 4 * 20 + DIGEST_RECORD as u64);
        assert_eq!(fresh.cost.bytes_hashed, fs + 4 * 40);
        assert_eq!(warm_delta.bytes_to_soe, fs + 3 * 20);
        assert_eq!(warm_delta.bytes_hashed, fs + 3 * 40);
        assert_eq!(warm_delta.bytes_decrypted, fresh.cost.bytes_decrypted - DIGEST_RECORD as u64);
        assert_eq!(warm_delta.digests_decrypted, 0, "digest cache holds");
        assert_eq!(warm_delta.terminal_bytes_hashed, 0, "leaf cache holds");
    }

    /// What the SOE trusts: the chunk and its authenticated nodes.
    fn trusted(r: &SoeReader<'_, impl ChunkStore>) -> (Option<usize>, Vec<Option<Digest>>) {
        let nodes = (0..64 * r.verified.known().len()).map(|i| r.verified.get(i).copied());
        (r.verified_chunk, nodes.collect())
    }

    /// `p` behind a [`FaultStore`], with a terminal tree cache already
    /// warmed over every chunk: sessions sharing it stage each fragment
    /// from the store, not from the copy of a chunk read for a cold tree
    /// build, so corruption injected mid-session reaches them.
    fn faulty_with_warm_trees(
        p: &ProtectedDoc,
    ) -> (ProtectedDoc<FaultStore<MemStore>>, Arc<LeafCache>) {
        let faulty = p.clone().map_store(FaultStore::new);
        let cache = Arc::new(LeafCache::for_doc(&faulty));
        let k = key();
        let mut warm = SoeReader::with_leaf_cache(&faulty, &k, Arc::clone(&cache));
        for ci in 0..p.chunk_count() {
            warm.read(p.chunk_range(ci).start, 8).unwrap();
        }
        drop(warm);
        (faulty, cache)
    }

    #[test]
    fn mht_reused_sibling_digest_still_catches_mid_session_corruption() {
        // Fragment 0's proof authenticates fragment 1's digest, so the
        // fetch of fragment 1 ships no proof and checks the fragment hash
        // against that stored digest alone. Corrupting fragment 1 on the
        // medium after fragment 0 was read must still be caught there.
        let (p, _) = doc(IntegrityScheme::EcbMht, 4096);
        let k = key();
        let fs = p.layout.fragment_size;
        let (faulty, cache) = faulty_with_warm_trees(&p);
        let mut r = SoeReader::with_leaf_cache(&faulty, &k, cache);
        r.read(0, 8).unwrap();
        faulty.store.corrupt(fs + 3, 0x10);
        let before = r.cost;
        let err = r.read(fs, 8).unwrap_err();
        assert_eq!(err, ReadError::Integrity(IntegrityError { chunk: 0 }));
        assert_eq!(r.cost.bytes_to_soe - before.bytes_to_soe, fs as u64, "no proof shipped");
        assert_eq!(r.cost.bytes_hashed - before.bytes_hashed, fs as u64, "no combine run");
    }

    #[test]
    fn mht_failed_fetch_leaves_the_trusted_nodes_as_they_were() {
        let (p, data) = doc(IntegrityScheme::EcbMht, 4096);
        let k = key();
        let fs = p.layout.fragment_size;
        let (faulty, cache) = faulty_with_warm_trees(&p);
        let mut r = SoeReader::with_leaf_cache(&faulty, &k, cache);
        let mut clean = SoeReader::new(&p, &k);
        r.read(0, 8).unwrap();
        clean.read(0, 8).unwrap();
        let before = trusted(&r);
        assert_eq!(before, trusted(&clean));
        // Fragment 5 ships its siblings under the trusted (4..8) node and
        // fails against it: nothing it carried is trusted afterwards.
        faulty.store.corrupt(5 * fs + 1, 4);
        assert!(r.read(5 * fs, 8).is_err());
        assert_eq!(trusted(&r), before);
        // The next fetch meters exactly as if the failed one never ran.
        let (at, clean_at) = (r.cost, clean.cost);
        assert_eq!(r.read(2 * fs, 8).unwrap(), &data[2 * fs..2 * fs + 8]);
        clean.read(2 * fs, 8).unwrap();
        let shipped = r.cost.bytes_to_soe - at.bytes_to_soe;
        assert_eq!(shipped, clean.cost.bytes_to_soe - clean_at.bytes_to_soe);
        assert_eq!(shipped, fs as u64 + 20, "one sibling: fragment 3");
        assert_eq!(trusted(&r), trusted(&clean));
        // A fetch into another chunk trusts that chunk's decrypted digest
        // and nothing its failing proof carried.
        faulty.store.corrupt(2048 + 1, 4);
        assert!(r.read(2048, 8).is_err());
        let (chunk, nodes) = trusted(&r);
        assert_eq!(chunk, Some(1));
        assert_eq!(nodes.iter().flatten().count(), 1, "the chunk digest alone");
    }

    #[test]
    fn mht_readback_into_an_earlier_chunk_reproves_from_its_digest() {
        // A pending readback jumps back into a chunk visited before. The
        // nodes trusted then were dropped when the reader moved on, so the
        // readback decrypts the chunk digest again and ships a full proof.
        let (p, data) = doc(IntegrityScheme::EcbMht, 3 * 2048);
        let k = key();
        let fs = p.layout.fragment_size;
        let mut r = SoeReader::new(&p, &k);
        r.read(0, 8).unwrap(); // chunk 0: fragment 1's digest is trusted
        r.read(2048 + fs, 8).unwrap(); // chunk 1, fragment 1
        assert_eq!(trusted(&r).0, Some(1));
        let before = r.cost;
        assert_eq!(r.read(fs, 8).unwrap(), &data[fs..fs + 8]);
        assert_eq!(r.cost.digests_decrypted - before.digests_decrypted, 1);
        assert_eq!(
            r.cost.bytes_to_soe - before.bytes_to_soe,
            (fs + 4 * 20 + DIGEST_RECORD) as u64,
            "a full 4-digest proof: nothing of the first visit is reused"
        );
        // Chunk 1's nodes sit at the same table slots as chunk 0's: had
        // they been reused, fragment 1 of chunk 0 (whose slot then held
        // chunk 1's fragment-1 digest) could not have verified.
        assert_eq!(trusted(&r).1.iter().flatten().count(), 9, "root + 4 path nodes + 4 siblings");
    }

    #[test]
    fn mht_fetch_path_reuses_its_proof_buffer() {
        // After the first full proof sized it, no fetch reallocates the
        // proof buffer, whatever chunk or fragment it reads.
        let (p, data) = doc(IntegrityScheme::EcbMht, 2 * 2048);
        let k = key();
        let fs = p.layout.fragment_size;
        let mut r = SoeReader::new(&p, &k);
        r.read(0, 8).unwrap();
        let buffer = (r.proof.as_ptr(), r.proof.capacity());
        for off in (0..2 * 2048).step_by(fs).rev().chain((0..2 * 2048).step_by(3 * fs)) {
            assert_eq!(r.read(off, 8).unwrap(), &data[off..off + 8]);
            assert_eq!((r.proof.as_ptr(), r.proof.capacity()), buffer, "fetch at {off}");
        }
    }

    #[test]
    fn shared_leaf_cache_first_toucher_pays() {
        // Two readers over one shared cache: the second session re-hashes
        // zero leaf bytes, and the sum across sessions stays ≤ one
        // document length — the warm-cache metering contract of the
        // multi-session server.
        let (p, data) = doc(IntegrityScheme::EcbMht, 8192);
        let k = key();
        let cache = Arc::new(LeafCache::for_doc(&p));
        let mut first = SoeReader::with_leaf_cache(&p, &k, Arc::clone(&cache));
        let mut second = SoeReader::with_leaf_cache(&p, &k, Arc::clone(&cache));
        for off in (0..8192).step_by(512) {
            let got = first.read(off, 8).unwrap();
            assert_eq!(got, &data[off..off + 8]);
        }
        assert!(first.cost.terminal_bytes_hashed > 0);
        for off in (0..8192).step_by(512) {
            let got = second.read(off, 8).unwrap();
            assert_eq!(got, &data[off..off + 8]);
        }
        assert_eq!(second.cost.terminal_bytes_hashed, 0, "warm session re-hashes nothing");
        assert!(
            first.cost.terminal_bytes_hashed + second.cost.terminal_bytes_hashed
                <= p.ciphertext().len() as u64,
            "cross-session hashing sum bounded by one document length"
        );
        // SOE-side costs are identical: the shared cache only affects
        // terminal hashing.
        assert_eq!(first.cost.bytes_to_soe, second.cost.bytes_to_soe);
        assert_eq!(first.cost.bytes_decrypted, second.cost.bytes_decrypted);
        assert_eq!(first.cost.bytes_hashed, second.cost.bytes_hashed);
        assert_eq!(cache.warmed_chunks(), p.chunk_count());
    }

    #[test]
    fn shared_leaf_cache_still_detects_tampering() {
        // A cache warmed by an honest session must not mask tampering
        // seen by a later session (the SOE re-verifies every proof), and
        // a cache warmed from tampered bytes must keep failing.
        let (p, _) = doc(IntegrityScheme::EcbMht, 4096);
        let k = key();
        let mut bad = p.clone();
        bad.ciphertext_mut()[100] ^= 1;
        let cache = Arc::new(LeafCache::for_doc(&bad));
        let mut r1 = SoeReader::with_leaf_cache(&bad, &k, Arc::clone(&cache));
        assert!(r1.read(96, 8).is_err());
        let mut r2 = SoeReader::with_leaf_cache(&bad, &k, Arc::clone(&cache));
        assert!(r2.read(96, 8).is_err(), "warm cache must not hide tampering");
    }

    #[test]
    fn digest_tamper_detected() {
        for scheme in [IntegrityScheme::CbcSha, IntegrityScheme::CbcShac, IntegrityScheme::EcbMht] {
            let (p, _) = doc(scheme, 3000);
            let k = key();
            let mut bad = p.clone();
            bad.digests[0][5] ^= 1;
            let mut r = SoeReader::new(&bad, &k);
            assert!(r.read(0, 16).is_err(), "{scheme:?}");
        }
    }

    #[test]
    fn truncated_digest_table_is_error_not_panic() {
        // A malicious terminal can truncate the digest table; the reader
        // must refuse (typed integrity error), never index out of bounds.
        for scheme in [IntegrityScheme::CbcSha, IntegrityScheme::CbcShac, IntegrityScheme::EcbMht] {
            let (p, _) = doc(scheme, 5000);
            let k = key();
            let mut bad = p.clone();
            bad.digests.truncate(1);
            let mut r = SoeReader::new(&bad, &k);
            let err = r.read(4096, 8).unwrap_err();
            assert!(matches!(err, ReadError::Integrity(_)), "{scheme:?}: {err:?}");
            // The unverifiable unit must not linger in the working
            // buffer: a repeat of the same read must fail again, never
            // serve the staged (unverified) bytes as plaintext.
            let err = r.read(4096, 8).unwrap_err();
            assert!(
                matches!(err, ReadError::Integrity(_)),
                "{scheme:?}: second read served an unverified unit: {err:?}"
            );
        }
    }

    #[test]
    fn ecb_does_not_detect_tampering() {
        let (p, _) = doc(IntegrityScheme::Ecb, 2048);
        let k = key();
        let mut bad = p.clone();
        bad.ciphertext_mut()[0] ^= 1;
        let mut r = SoeReader::new(&bad, &k);
        assert!(r.read(0, 8).is_ok(), "ECB is not tamper resistant by design");
    }

    #[test]
    fn chunk_substitution_detected() {
        // Copying chunk 1's ciphertext over chunk 0 must fail: digests are
        // position-bound.
        let (p, _) = doc(IntegrityScheme::EcbMht, 6000);
        let k = key();
        let mut bad = p.clone();
        let (r0, r1) = (p.chunk_range(0), p.chunk_range(1));
        let chunk1 = p.ciphertext()[r1].to_vec();
        bad.ciphertext_mut()[r0].copy_from_slice(&chunk1);
        let mut r = SoeReader::new(&bad, &k);
        assert!(r.read(0, 8).is_err());
    }

    #[test]
    fn mht_costs_less_than_cbc_sha_for_small_reads() {
        let (p_mht, _) = doc(IntegrityScheme::EcbMht, 64 * 1024);
        let (p_sha, _) = doc(IntegrityScheme::CbcSha, 64 * 1024);
        let k = key();
        let mut mht = SoeReader::new(&p_mht, &k);
        let mut sha = SoeReader::new(&p_sha, &k);
        // Scattered small reads across distinct chunks.
        for i in 0..16 {
            let off = i * 4096 + 128;
            mht.read(off, 64).unwrap();
            sha.read(off, 64).unwrap();
        }
        assert!(
            mht.cost.bytes_decrypted < sha.cost.bytes_decrypted,
            "MHT {} vs CBC-SHA {}",
            mht.cost.bytes_decrypted,
            sha.cost.bytes_decrypted
        );
        assert!(mht.cost.bytes_to_soe < sha.cost.bytes_to_soe);
    }

    #[test]
    fn contiguous_reads_verify_once() {
        let (p, _) = doc(IntegrityScheme::EcbMht, 2048);
        let k = key();
        let mut r = SoeReader::new(&p, &k);
        r.read(0, 64).unwrap();
        let d1 = r.cost.digests_decrypted;
        r.read(64, 64).unwrap();
        assert_eq!(r.cost.digests_decrypted, d1, "same chunk: no second digest decryption");
    }

    #[test]
    fn file_backed_costs_equal_in_memory_costs() {
        // The backend is invisible to the metering: the same access
        // pattern charges byte-identical AccessCost over MemStore and
        // FileStore, for every scheme — the reader-level differential
        // that the workspace-level harness scales up to whole sessions.
        for scheme in IntegrityScheme::ALL {
            let (p, _) = doc(scheme, 3 * 4096);
            let tmp = TempPath::new("proto-cost-diff");
            let f = p.to_file_backed(tmp.path(), 2048).unwrap();
            let k = key();
            let mut mem = SoeReader::new(&p, &k);
            let mut file = SoeReader::new(&f, &k);
            for (off, len) in
                [(0usize, 64usize), (8192, 4096), (100, 8), (4000, 200), (0, 12288), (12280, 8)]
            {
                assert_eq!(
                    mem.read(off, len).unwrap(),
                    file.read(off, len).unwrap(),
                    "{scheme:?} {off}+{len}"
                );
            }
            assert_eq!(mem.cost, file.cost, "{scheme:?}: metering diverged across backends");
        }
    }

    #[test]
    fn revisit_of_multi_chunk_span_is_metered_as_refetch() {
        // The PR-4 caveat, now audited: the working buffer holds one
        // unit, so revisiting an earlier span of a multi-chunk bulk read
        // re-transfers it — `bytes_refetched` pins the exact figure so a
        // remote store's extra round trips can't be undercounted.
        let (p, _) = doc(IntegrityScheme::Ecb, 3 * 2048);
        let k = key();
        let mut r = SoeReader::new(&p, &k);
        // Bulk span over three chunks: every unit is fresh.
        r.read(0, 3 * 2048).unwrap();
        assert_eq!(r.cost.bytes_refetched, 0, "first pass transfers nothing twice");
        // Revisit of the first chunk: the working buffer holds only the
        // last unit, so the covering blocks cross the channel again.
        r.read(0, 64).unwrap();
        assert_eq!(r.cost.bytes_refetched, 64, "revisited covering blocks are re-transfers");
        // A consecutive read inside the fresh working buffer is free.
        r.read(0, 32).unwrap();
        assert_eq!(r.cost.bytes_refetched, 64);
        // And the audit stays ≤ the total channel figure.
        assert!(r.cost.bytes_refetched <= r.cost.bytes_to_soe);

        // A backward jump into a *never-fetched* region (a skipped
        // subtree read back later) is not a refetch.
        let mut fresh = SoeReader::new(&p, &k);
        fresh.read(2048, 8).unwrap();
        fresh.read(0, 8).unwrap();
        assert_eq!(fresh.cost.bytes_refetched, 0, "first touch is never a refetch");

        // Same audit under ECB-MHT: refetching one fragment re-transfers
        // exactly that fragment.
        let (p, _) = doc(IntegrityScheme::EcbMht, 2 * 2048);
        let mut r = SoeReader::new(&p, &k);
        r.read(0, 8).unwrap(); // fragment 0
        r.read(2048, 8).unwrap(); // another chunk: working buffer moves on
        r.read(0, 8).unwrap(); // fragment 0 again
        assert_eq!(r.cost.bytes_refetched, p.layout.fragment_size as u64);
    }

    #[test]
    fn revisit_serves_still_resident_chunk_without_refetch() {
        // The PR-4 over-count, fixed: re-reading a 3-chunk span while the
        // working buffer still holds one of its chunks used to charge the
        // channel (and the refetch audit) for all three. The resident
        // chunk is now set aside and served in place, so the meter and
        // the actual transfers agree at exactly two chunks.
        let (p, data) = doc(IntegrityScheme::Ecb, 3 * 2048);
        let k = key();
        let mut r = SoeReader::new(&p, &k);
        r.read(0, 3 * 2048).unwrap();
        let before = r.cost;
        let got = r.read(0, 3 * 2048).unwrap();
        assert_eq!(got, data, "held plaintext must be byte-identical");
        assert_eq!(
            r.cost.bytes_refetched - before.bytes_refetched,
            2 * 2048,
            "the still-resident chunk must not be metered as a refetch"
        );
        assert_eq!(
            r.cost.bytes_to_soe - before.bytes_to_soe,
            2 * 2048,
            "the meter must agree with the actual transfers"
        );

        // Same audit under a whole-chunk-unit scheme: only the two
        // refetched chunks cross the channel (plus their digest records).
        let (p, data) = doc(IntegrityScheme::CbcShac, 3 * 2048);
        let mut r = SoeReader::new(&p, &k);
        r.read(0, 3 * 2048).unwrap();
        let before = r.cost;
        let got = r.read(0, 3 * 2048).unwrap();
        assert_eq!(got, data);
        assert_eq!(r.cost.bytes_refetched - before.bytes_refetched, 2 * 2048);
        assert_eq!(r.cost.bytes_to_soe - before.bytes_to_soe, 2 * (2048 + DIGEST_RECORD as u64));

        // A partial backward overlap holds only the overlapping prefix.
        let (p, data) = doc(IntegrityScheme::Ecb, 2 * 2048);
        let mut r = SoeReader::new(&p, &k);
        r.read(0, 2 * 2048).unwrap(); // working buffer: chunk 1
        let before = r.cost;
        let got = r.read(2040, 16).unwrap(); // 8 bytes before chunk 1, 8 inside
        assert_eq!(got, &data[2040..2056], "straddling read must be exact");
        assert_eq!(r.cost.bytes_refetched - before.bytes_refetched, 8);
        assert_eq!(r.cost.bytes_to_soe - before.bytes_to_soe, 8);
    }

    #[test]
    fn cost_accumulation() {
        let (p, _) = doc(IntegrityScheme::EcbMht, 4096);
        let k = key();
        let mut r = SoeReader::new(&p, &k);
        r.read(0, 10).unwrap();
        let c1 = r.cost;
        r.read(2048, 10).unwrap();
        assert!(r.cost.bytes_to_soe > c1.bytes_to_soe);
        assert_eq!(r.cost.reads, 2);
    }
}
