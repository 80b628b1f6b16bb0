//! Ciphertext storage backends for [`ProtectedDoc`](crate::ProtectedDoc):
//! the terminal side of Figure 2 as an abstraction.
//!
//! The paper's SOE never materializes the document it serves — the
//! ciphertext lives on the *terminal* (untrusted, abundant storage) and
//! crosses into the SOE a bounded unit at a time. [`ChunkStore`] models
//! that boundary: a fallible, bounded, `Sync` read interface the
//! [`SoeReader`](crate::SoeReader) pulls every ciphertext byte through.
//! Two backends:
//!
//! * [`MemStore`] — the whole ciphertext in one `Vec<u8>` (documents
//!   that fit in RAM).
//! * [`FileStore`] — out-of-core: the ciphertext lives in a file and only
//!   a small, metered **resident window** of recently-read chunks is held
//!   in memory. N concurrent sessions over one shared `FileStore` stay
//!   O(window), not O(document) — [`ResidencyMeter`] proves it.
//!
//! The fault paths of the whole read pipeline are exercised through
//! `xsac-testkit`'s `FaultStore`, a wrapper over any backend that
//! injects short reads, I/O errors and byte corruption on a schedule.
//!
//! Storage failures surface as typed [`StoreError`]s (never a panic) and
//! flow through [`ReadError`](crate::protocol::ReadError) next to
//! integrity violations: a flaky disk aborts a session exactly like a
//! tampered byte does — without delivering partial plaintext.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::{fmt, io};

/// A storage failure reported by a [`ChunkStore`] backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The requested range lies (partly) outside the stored ciphertext —
    /// a malformed request or a truncated store.
    OutOfBounds {
        /// Requested start offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Total stored ciphertext length.
        doc_len: usize,
    },
    /// The backend returned fewer bytes than requested (e.g. a truncated
    /// file — an attack surface in its own right: the terminal is
    /// untrusted).
    ShortRead {
        /// Requested start offset.
        offset: usize,
        /// Bytes requested.
        wanted: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// An I/O error from the backend (message carried as text so the
    /// error stays `Clone`/`Eq` for differential assertions).
    Io {
        /// Offset of the failed read.
        offset: usize,
        /// The underlying [`io::ErrorKind`].
        kind: io::ErrorKind,
        /// Human-readable detail.
        msg: String,
    },
    /// The backend's content identity changed mid-session — e.g. a
    /// reconnecting remote store whose re-fetched document metadata is
    /// no longer byte-identical to the one the session started with.
    /// Always permanent: a session must never be silently re-synced onto
    /// different dissemination material.
    IdentityChanged {
        /// What diverged (human-readable).
        what: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::OutOfBounds { offset, len, doc_len } => {
                write!(f, "read of {len} bytes at {offset} outside stored length {doc_len}")
            }
            StoreError::ShortRead { offset, wanted, got } => {
                write!(f, "short read at {offset}: wanted {wanted} bytes, got {got}")
            }
            StoreError::Io { offset, kind, msg } => {
                write!(f, "storage I/O error at {offset} ({kind:?}): {msg}")
            }
            StoreError::IdentityChanged { what } => {
                write!(f, "store identity changed mid-session: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    fn from_io(offset: usize, e: &io::Error) -> StoreError {
        StoreError::Io { offset, kind: e.kind(), msg: e.to_string() }
    }

    /// The failure taxonomy of the read path: **transient** failures are
    /// ones a retry of the same operation could plausibly survive (the
    /// medium or channel hiccuped — a reset socket, a timed-out read, an
    /// interrupted syscall); **permanent** failures are properties of
    /// the stored data or the request itself (out-of-bounds, a truncated
    /// store, a changed document identity) that no retry can fix.
    ///
    /// Retry *policy* lives in the backends (e.g. `xsac-net`'s
    /// `RemoteStore` reconnects on transient transport failures before
    /// giving up); by the time a `StoreError` reaches the session layer
    /// the backend's bounded retries are exhausted, and the session
    /// aborts either way — this classification tells the operator
    /// whether running the session again is worth anything.
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::OutOfBounds { .. } => false,
            StoreError::ShortRead { .. } => false,
            StoreError::IdentityChanged { .. } => false,
            StoreError::Io { kind, .. } => !matches!(
                kind,
                io::ErrorKind::InvalidData
                    | io::ErrorKind::InvalidInput
                    | io::ErrorKind::NotFound
                    | io::ErrorKind::PermissionDenied
                    | io::ErrorKind::Unsupported
                    | io::ErrorKind::AlreadyExists
            ),
        }
    }
}

/// Resident-byte metering shared by a store and the readers over it: how
/// many ciphertext-derived bytes are held in memory *right now*, and the
/// high-water mark. The out-of-core contract ("documents larger than
/// RAM") is exactly `resident_bytes_peak ≪ document length`, and the
/// regression tests pin it.
#[derive(Debug, Default)]
pub struct ResidencyMeter {
    now: AtomicU64,
    peak: AtomicU64,
}

impl ResidencyMeter {
    /// Registers `n` more resident bytes.
    pub fn add(&self, n: u64) {
        let now = self.now.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Releases `n` resident bytes.
    pub fn sub(&self, n: u64) {
        self.now.fetch_sub(n, Ordering::Relaxed);
    }

    /// Bytes resident right now (store window + registered reader
    /// buffers).
    pub fn resident_bytes_now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// High-water mark of resident bytes.
    pub fn resident_bytes_peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Bounded, fallible, `Sync` access to a protected document's ciphertext
/// — the terminal side of the Figure-2 channel.
///
/// Implementations must be shareable across concurrent sessions
/// (`&self` reads, `Sync`); every read is bounded by the caller's buffer,
/// so no method ever requires materializing the document.
pub trait ChunkStore: Sync {
    /// Total ciphertext length in bytes.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` with the ciphertext bytes starting at `offset`.
    /// Implementations must either fill the whole buffer or return an
    /// error — a partially-written `buf` must never be reported as
    /// success.
    fn read_at(&self, offset: usize, buf: &mut [u8]) -> Result<(), StoreError>;

    /// The store's residency meter, when the backend bounds (and
    /// meters) its resident bytes. Readers over a metered store report
    /// their own staging buffers here too, so the figure covers the
    /// complete read path.
    fn meter(&self) -> Option<&ResidencyMeter> {
        None
    }
}

/// A type-erased, shareable [`ChunkStore`]: the store type of
/// heterogeneous collections (a registry serving in-memory and
/// file-backed documents side by side). Boxing is transparent — every
/// trait method, [`meter`](ChunkStore::meter) included, delegates to the
/// erased backend.
pub type DynChunkStore = Box<dyn ChunkStore + Send + Sync>;

impl ChunkStore for DynChunkStore {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        (**self).read_at(offset, buf)
    }

    fn meter(&self) -> Option<&ResidencyMeter> {
        (**self).meter()
    }
}

/// Shared bounds check for `read_at` implementations (and the reader's
/// request pre-check — one definition of the out-of-bounds contract).
pub(crate) fn check_bounds(offset: usize, len: usize, doc_len: usize) -> Result<(), StoreError> {
    if offset.checked_add(len).is_none_or(|end| end > doc_len) {
        return Err(StoreError::OutOfBounds { offset, len, doc_len });
    }
    Ok(())
}

/// The in-memory backend: the whole ciphertext in one `Vec<u8>`.
#[derive(Clone, Debug, Default)]
pub struct MemStore {
    /// The stored ciphertext. Public so tamper tests (and the examples
    /// demonstrating detection) can flip bytes directly.
    pub bytes: Vec<u8>,
}

impl MemStore {
    /// Wraps a ciphertext buffer.
    pub fn new(bytes: Vec<u8>) -> MemStore {
        MemStore { bytes }
    }
}

impl ChunkStore for MemStore {
    fn len(&self) -> usize {
        self.bytes.len()
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        check_bounds(offset, buf.len(), self.bytes.len())?;
        buf.copy_from_slice(&self.bytes[offset..offset + buf.len()]);
        Ok(())
    }
}

/// One resident chunk of a [`WindowPool`]. The bytes are behind an
/// `Arc` so a request can copy from them after releasing the pool lock.
struct PoolSlot {
    doc: u32,
    chunk: usize,
    bytes: Arc<Vec<u8>>,
}

/// Per-document bookkeeping inside a [`WindowPool`]: the ever-fetched
/// bitmap (refetch accounting survives a [`WindowPool::purge_doc`], so
/// close/reopen cycles show up as refetches) and per-document
/// fetch/refetch counters.
struct DocState {
    /// Bitmap of chunks ever fetched from the backend.
    ever: Vec<u64>,
    /// Backend fetches for this document (cache misses).
    fetches: u64,
    /// Fetches of a chunk this document had already fetched before.
    refetches: u64,
}

struct PoolInner {
    /// LRU of resident chunks across *all* documents, most recently used
    /// at the back.
    lru: VecDeque<PoolSlot>,
    /// Sum of `bytes.len()` over the resident slots.
    resident: usize,
    /// Registered documents, indexed by the id in [`PoolDoc`].
    docs: Vec<DocState>,
}

/// An opaque ticket naming one document registered in a [`WindowPool`]
/// (obtained from [`WindowPool::register`], consumed by
/// [`ChunkWindow::in_pool`] and [`WindowPool::purge_doc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolDoc(u32);

/// A **shared residency budget** for resident ciphertext chunks across
/// any number of documents: the multi-tenant generalization of a single
/// document's [`ChunkWindow`].
///
/// A pool holds one LRU over `(document, chunk)` slots bounded by a
/// global `budget_bytes` — N documents served through one pool stay
/// O(budget) resident *in total*, not O(budget × N). Every
/// [`ChunkWindow`] is a per-document view over some pool: a private one
/// (the classic single-document window, created by [`ChunkWindow::new`])
/// or a shared one ([`ChunkWindow::in_pool`]), so the caching, metering
/// and locking behaviour cannot drift between the two shapes.
///
/// The eviction invariant is the window's, globalized: eviction happens
/// *before* insertion (the incoming length is known without fetching),
/// so metered residency never transiently exceeds
/// `max(budget, one chunk)` — the multi-tenant residency-bound tests pin
/// `resident_bytes_peak() ≤ budget + one chunk` across randomized
/// workloads. [`purge_doc`](WindowPool::purge_doc) drops a closed
/// document's resident chunks immediately (a registry closing a cold
/// tenant) while keeping its ever-fetched bitmap, so the cost of the
/// close shows up honestly as refetches when the document is reopened.
pub struct WindowPool {
    budget: usize,
    inner: Mutex<PoolInner>,
    meter: ResidencyMeter,
    fetches: AtomicU64,
    refetches: AtomicU64,
    evictions: AtomicU64,
    purged: AtomicU64,
}

impl WindowPool {
    /// An empty pool with a global residency budget of `budget_bytes`.
    pub fn new(budget_bytes: usize) -> WindowPool {
        WindowPool {
            budget: budget_bytes,
            inner: Mutex::new(PoolInner { lru: VecDeque::new(), resident: 0, docs: Vec::new() }),
            meter: ResidencyMeter::default(),
            fetches: AtomicU64::new(0),
            refetches: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            purged: AtomicU64::new(0),
        }
    }

    /// The global residency budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// The pool's residency meter (all documents combined).
    pub fn meter(&self) -> &ResidencyMeter {
        &self.meter
    }

    /// Backend fetches across all documents (cache misses).
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Backend fetches of chunks their document had fetched before —
    /// budget pressure (or a purge) the pool could not absorb.
    pub fn refetches(&self) -> u64 {
        self.refetches.load(Ordering::Relaxed)
    }

    /// Chunks evicted under budget pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Chunks dropped by [`purge_doc`](WindowPool::purge_doc).
    pub fn purged_chunks(&self) -> u64 {
        self.purged.load(Ordering::Relaxed)
    }

    /// Chunks currently resident, across all documents.
    pub fn resident_chunks(&self) -> usize {
        self.inner.lock().expect("window pool").lru.len()
    }

    /// Registers a document of `doc_len` ciphertext bytes in chunks of
    /// `chunk_size`; the returned ticket keys its slots, bitmap and
    /// counters. Every window built from the ticket
    /// ([`ChunkWindow::in_pool`]) shares them, so a registry that
    /// registers a tenant once and builds a window per open keeps the
    /// ever-fetched bitmap across close/reopen cycles: post-reopen
    /// fetches meter as refetches (the honest cost of the close).
    pub fn register(&self, doc_len: usize, chunk_size: usize) -> PoolDoc {
        assert!(chunk_size > 0, "chunk size must be positive");
        let mut inner = self.inner.lock().expect("window pool");
        inner.docs.push(DocState {
            ever: vec![0; doc_len.div_ceil(chunk_size).div_ceil(64)],
            fetches: 0,
            refetches: 0,
        });
        PoolDoc(u32::try_from(inner.docs.len() - 1).expect("pool document count fits u32"))
    }

    /// Number of documents ever registered in this pool (registrations
    /// are permanent; close/reopen cycles reuse their ticket, so this
    /// tracks *distinct* documents, not open/close churn).
    pub fn registered_docs(&self) -> usize {
        self.inner.lock().expect("window pool").docs.len()
    }

    /// Drops every resident chunk of `doc` (a registry closing a lazy
    /// tenant releases its share of the budget immediately). The
    /// document's ever-fetched bitmap survives, so post-reopen fetches
    /// count as refetches; in-flight readers holding chunk `Arc`s are
    /// unaffected.
    pub fn purge_doc(&self, doc: PoolDoc) {
        let mut inner = self.inner.lock().expect("window pool");
        let mut freed = 0usize;
        let mut dropped = 0u64;
        inner.lru.retain(|s| {
            if s.doc == doc.0 {
                freed += s.bytes.len();
                dropped += 1;
                false
            } else {
                true
            }
        });
        inner.resident -= freed;
        self.meter.sub(freed as u64);
        self.purged.fetch_add(dropped, Ordering::Relaxed);
    }
}

/// A bounded LRU window of resident ciphertext chunks with metered
/// residency — the client-side caching core shared by every out-of-core
/// backend ([`FileStore`] over a local file, `xsac-net`'s `RemoteStore`
/// over a socket), so the backends cannot drift in their memory
/// behaviour.
///
/// A window is a **per-document view over a [`WindowPool`]**:
/// [`ChunkWindow::new`] creates a private single-document pool (the
/// historical behaviour — the window bound is the pool budget), while
/// [`ChunkWindow::in_pool`] joins a shared pool so many documents serve
/// under one global residency budget (the multi-tenant registry shape).
///
/// The budget is never an error source: at least one chunk always fits
/// (a pathological configuration degrades to re-fetching), and every
/// byte held is tracked by the pool's [`ResidencyMeter`]. The window is
/// `Sync`: concurrent sessions share it behind the pool mutex — the lock
/// covers the (cold) backend fetches and the LRU bookkeeping; a warm hit
/// merely clones the slot's `Arc` under the lock and copies outside it,
/// and decryption/verification never hold it. The window also counts
/// backend `fetches`/`refetches`: a refetch (a chunk fetched again after
/// eviction) is exactly the figure a remote backend pays an extra round
/// trip for.
pub struct ChunkWindow {
    pool: Arc<WindowPool>,
    doc: u32,
    doc_len: usize,
    chunk_size: usize,
}

impl ChunkWindow {
    /// An empty window over a document of `doc_len` ciphertext bytes in
    /// chunks of `chunk_size`, bounded by a private pool of
    /// `window_bytes`.
    pub fn new(doc_len: usize, chunk_size: usize, window_bytes: usize) -> ChunkWindow {
        let pool = Arc::new(WindowPool::new(window_bytes));
        let doc = pool.register(doc_len, chunk_size);
        ChunkWindow::in_pool(&pool, doc, doc_len, chunk_size)
    }

    /// A window over the document `doc` registered in `pool` (as
    /// `doc_len` ciphertext bytes in chunks of `chunk_size`), sharing
    /// the pool's global residency budget with every other document
    /// registered there.
    ///
    /// `doc` must have come from [`WindowPool::register`] on this same
    /// pool; a ticket from another pool corrupts that pool's accounting.
    pub fn in_pool(
        pool: &Arc<WindowPool>,
        doc: PoolDoc,
        doc_len: usize,
        chunk_size: usize,
    ) -> ChunkWindow {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunkWindow { pool: Arc::clone(pool), doc: doc.0, doc_len, chunk_size }
    }

    /// The residency bound in bytes — the window's pool budget (global
    /// across documents when the pool is shared).
    pub fn window_bytes(&self) -> usize {
        self.pool.budget
    }

    /// The pool this window draws residency from.
    pub fn pool(&self) -> &Arc<WindowPool> {
        &self.pool
    }

    /// The chunk size the window is organized around.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The document's ciphertext length in bytes.
    pub fn doc_len(&self) -> usize {
        self.doc_len
    }

    /// Number of chunks the document spans.
    pub fn chunk_count(&self) -> usize {
        self.doc_len.div_ceil(self.chunk_size)
    }

    /// Stored length of chunk `ci` (the tail chunk may be partial).
    pub fn chunk_len(&self, ci: usize) -> usize {
        let start = ci * self.chunk_size;
        (start + self.chunk_size).min(self.doc_len) - start
    }

    /// Number of this document's chunks currently resident.
    pub fn resident_chunks(&self) -> usize {
        self.pool
            .inner
            .lock()
            .expect("window pool")
            .lru
            .iter()
            .filter(|s| s.doc == self.doc)
            .count()
    }

    /// The pool's residency meter (covers every document sharing the
    /// pool; for a private pool, exactly this document).
    pub fn meter(&self) -> &ResidencyMeter {
        &self.pool.meter
    }

    /// Backend fetches performed for this document so far (cache
    /// misses).
    pub fn chunk_fetches(&self) -> u64 {
        self.pool.inner.lock().expect("window pool").docs[self.doc as usize].fetches
    }

    /// Backend fetches of a chunk that had already been fetched before
    /// (evicted and needed again) — for a networked backend, round trips
    /// the window was too small to save.
    pub fn chunk_refetches(&self) -> u64 {
        self.pool.inner.lock().expect("window pool").docs[self.doc as usize].refetches
    }

    /// The resident bytes of chunk `ci`, fetching on a miss.
    ///
    /// `fetch` runs under the window lock (backend fetches need
    /// exclusivity anyway — a file seek/read pair, a socket round trip)
    /// and returns the chunks to make resident: at least `ci` itself,
    /// plus any read-ahead the backend chose to bring along. Each must
    /// be exactly [`chunk_len`](ChunkWindow::chunk_len) long. Eviction
    /// is LRU, metered, and never evicts `ci` itself (the window always
    /// serves the chunk it just fetched); read-ahead chunks that would
    /// evict `ci` are dropped instead.
    ///
    /// Warm hits hold the lock only to clone the slot's `Arc` and touch
    /// the LRU order; cold misses evict *first* (the incoming length is
    /// known without fetching, so metered residency never transiently
    /// exceeds max(window, one chunk)).
    pub fn get_or_fetch<F>(&self, ci: usize, fetch: F) -> Result<Arc<Vec<u8>>, StoreError>
    where
        F: FnOnce() -> Result<Vec<(usize, Vec<u8>)>, StoreError>,
    {
        let mut inner = self.pool.inner.lock().expect("window pool");
        let inner = &mut *inner;
        if let Some(i) = inner.lru.iter().position(|s| s.doc == self.doc && s.chunk == ci) {
            let s = inner.lru.remove(i).expect("indexed slot");
            let bytes = Arc::clone(&s.bytes);
            inner.lru.push_back(s);
            return Ok(bytes);
        }
        let fetched = fetch()?;
        let mut wanted = None;
        for (fi, bytes) in fetched {
            debug_assert_eq!(bytes.len(), self.chunk_len(fi), "fetched chunk {fi} mis-sized");
            let got = self.insert_locked(inner, fi, bytes, ci);
            if fi == ci {
                wanted = got;
            }
        }
        wanted.ok_or(StoreError::ShortRead {
            offset: ci * self.chunk_size,
            wanted: self.chunk_len(ci),
            got: 0,
        })
    }

    /// Makes `bytes` resident as this document's chunk `fi`, evicting
    /// LRU slots pool-wide (never this document's `pinned` chunk) until
    /// it fits; returns the resident bytes, or `None` if the chunk was
    /// dropped to protect `pinned`. A chunk already resident is kept
    /// (the copies are identical: stores are read-only).
    fn insert_locked(
        &self,
        inner: &mut PoolInner,
        fi: usize,
        bytes: Vec<u8>,
        pinned: usize,
    ) -> Option<Arc<Vec<u8>>> {
        if let Some(i) = inner.lru.iter().position(|s| s.doc == self.doc && s.chunk == fi) {
            return Some(Arc::clone(&inner.lru[i].bytes));
        }
        let pool = &*self.pool;
        pool.fetches.fetch_add(1, Ordering::Relaxed);
        let doc_state = &mut inner.docs[self.doc as usize];
        doc_state.fetches += 1;
        if let Some(word) = doc_state.ever.get_mut(fi / 64) {
            if *word >> (fi % 64) & 1 == 1 {
                pool.refetches.fetch_add(1, Ordering::Relaxed);
                doc_state.refetches += 1;
            }
            *word |= 1 << (fi % 64);
        }
        let incoming = bytes.len();
        while !inner.lru.is_empty() && inner.resident + incoming > pool.budget {
            // LRU across all documents, but never the pinned chunk: the
            // pool must keep serving the chunk this fetch is for. (While
            // inserting the pinned chunk itself, it is not yet resident,
            // so every slot is evictable.)
            let Some(i) = inner.lru.iter().position(|s| !(s.doc == self.doc && s.chunk == pinned))
            else {
                // Only the pinned chunk is left: drop the incoming
                // read-ahead chunk rather than the one being served.
                return None;
            };
            let evicted = inner.lru.remove(i).expect("indexed slot");
            inner.resident -= evicted.bytes.len();
            pool.meter.sub(evicted.bytes.len() as u64);
            pool.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let bytes = Arc::new(bytes);
        inner.resident += incoming;
        pool.meter.add(incoming as u64);
        inner.lru.push_back(PoolSlot { doc: self.doc, chunk: fi, bytes: Arc::clone(&bytes) });
        Some(bytes)
    }

    /// Shared `read_at` implementation over the window: splits the
    /// request into chunks, serves each from the window, and calls
    /// `fetch(ci, last_ci)` on a miss — `last_ci` being the last chunk
    /// of the request, so a backend can batch the rest of the request
    /// (and beyond) into one round trip.
    pub fn read_at<F>(&self, offset: usize, buf: &mut [u8], mut fetch: F) -> Result<(), StoreError>
    where
        F: FnMut(usize, usize) -> Result<Vec<(usize, Vec<u8>)>, StoreError>,
    {
        check_bounds(offset, buf.len(), self.doc_len)?;
        if buf.is_empty() {
            return Ok(());
        }
        let (first, last) = (offset / self.chunk_size, (offset + buf.len() - 1) / self.chunk_size);
        for ci in first..=last {
            let chunk_start = ci * self.chunk_size;
            let chunk = self.get_or_fetch(ci, || fetch(ci, last))?;
            // Copy the intersection of the request with this chunk —
            // outside the window lock (the Arc keeps the bytes alive
            // even if a concurrent miss evicts the slot meanwhile).
            let lo = offset.max(chunk_start);
            let hi = (offset + buf.len()).min(chunk_start + chunk.len());
            buf[lo - offset..hi - offset]
                .copy_from_slice(&chunk[lo - chunk_start..hi - chunk_start]);
        }
        Ok(())
    }
}

/// The out-of-core backend: ciphertext in a file, with a small
/// [`ChunkWindow`] of recently-read chunks resident in memory.
///
/// Reads are served chunk-at-a-time through the window (see
/// [`ChunkWindow`] for the bounding, metering and locking contract); the
/// file itself sits behind its own mutex, taken only for the cold
/// seek/read pair.
pub struct FileStore {
    file: Mutex<File>,
    window: ChunkWindow,
}

impl FileStore {
    /// Opens an existing ciphertext file. `chunk_size` must match the
    /// [`ChunkLayout`](crate::ChunkLayout) the document was protected
    /// with; `window_bytes` bounds the resident window.
    pub fn open(path: &Path, chunk_size: usize, window_bytes: usize) -> io::Result<FileStore> {
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        Ok(FileStore {
            file: Mutex::new(file),
            window: ChunkWindow::new(len, chunk_size, window_bytes),
        })
    }

    /// Wraps an already-opened ciphertext `file` with an
    /// already-constructed `window` (sized for the file's length) — for
    /// callers that must do the blocking `open`/`stat` outside a lock
    /// (a registry routing `Hello` frames) and only then commit the
    /// store. The window's document length is taken as the file length.
    pub fn from_open_file(file: File, window: ChunkWindow) -> FileStore {
        FileStore { file: Mutex::new(file), window }
    }

    /// Writes `bytes` to `path` and opens it as a store — the
    /// convenience path for converting an in-memory document (tests,
    /// differential harnesses). Publishing to a file streams instead
    /// (`ServerDoc::prepare_to_store_with_stats` in `xsac-soe`), never
    /// materializing the ciphertext.
    pub fn create(
        path: &Path,
        bytes: &[u8],
        chunk_size: usize,
        window_bytes: usize,
    ) -> io::Result<FileStore> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        FileStore::open(path, chunk_size, window_bytes)
    }

    /// The configured resident-window bound in bytes.
    pub fn window_bytes(&self) -> usize {
        self.window.window_bytes()
    }

    /// Number of chunks currently resident in the window.
    pub fn resident_chunks(&self) -> usize {
        self.window.resident_chunks()
    }

    /// The store's resident window (fetch/refetch diagnostics).
    pub fn window(&self) -> &ChunkWindow {
        &self.window
    }

    /// Reads chunk `ci` from the file.
    fn read_chunk_from_file(&self, ci: usize) -> Result<Vec<u8>, StoreError> {
        let start = ci * self.window.chunk_size();
        let mut bytes = vec![0u8; self.window.chunk_len(ci)];
        let mut file = self.file.lock().expect("file store file");
        file.seek(SeekFrom::Start(start as u64)).map_err(|e| StoreError::from_io(start, &e))?;
        let mut filled = 0usize;
        while filled < bytes.len() {
            match file.read(&mut bytes[filled..]) {
                Ok(0) => {
                    return Err(StoreError::ShortRead {
                        offset: start,
                        wanted: bytes.len(),
                        got: filled,
                    })
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(StoreError::from_io(start + filled, &e)),
            }
        }
        Ok(bytes)
    }
}

impl ChunkStore for FileStore {
    fn len(&self) -> usize {
        self.window.doc_len()
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.window.read_at(offset, buf, |ci, _| Ok(vec![(ci, self.read_chunk_from_file(ci)?)]))
    }

    fn meter(&self) -> Option<&ResidencyMeter> {
        Some(self.window.meter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsac_testkit::TempPath;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 % 251) as u8).collect()
    }

    #[test]
    fn mem_store_roundtrip_and_bounds() {
        let s = MemStore::new(data(100));
        let mut buf = vec![0u8; 40];
        s.read_at(30, &mut buf).unwrap();
        assert_eq!(buf, &data(100)[30..70]);
        assert!(matches!(s.read_at(90, &mut buf), Err(StoreError::OutOfBounds { .. })));
        assert!(matches!(s.read_at(usize::MAX, &mut buf), Err(StoreError::OutOfBounds { .. })));
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
    }

    #[test]
    fn file_store_roundtrip_across_chunks() {
        let tmp = TempPath::new("filestore-roundtrip");
        let bytes = data(5000);
        let s = FileStore::create(tmp.path(), &bytes, 512, 1024).unwrap();
        assert_eq!(s.len(), 5000);
        // Reads of every alignment, including chunk-spanning and the
        // partial tail chunk.
        for (off, len) in [(0usize, 5000usize), (500, 600), (4990, 10), (511, 2), (0, 0)] {
            let mut buf = vec![0u8; len];
            s.read_at(off, &mut buf).unwrap();
            assert_eq!(buf, &bytes[off..off + len], "{off}+{len}");
        }
        assert!(matches!(s.read_at(4999, &mut [0u8; 2]), Err(StoreError::OutOfBounds { .. })));
    }

    #[test]
    fn file_store_window_stays_bounded() {
        let tmp = TempPath::new("filestore-window");
        let bytes = data(64 * 512);
        let s = FileStore::create(tmp.path(), &bytes, 512, 2048).unwrap();
        let mut buf = [0u8; 8];
        for off in (0..bytes.len()).step_by(512) {
            s.read_at(off, &mut buf).unwrap();
        }
        let meter = s.meter().unwrap();
        assert!(meter.resident_bytes_now() <= 2048, "window exceeded");
        assert!(
            meter.resident_bytes_peak() <= 2048,
            "peak {} exceeded window 2048",
            meter.resident_bytes_peak()
        );
        assert!(s.resident_chunks() <= 4);
        // A warm re-read of the last chunk touches no new residency.
        let peak = meter.resident_bytes_peak();
        s.read_at(bytes.len() - 8, &mut buf).unwrap();
        assert_eq!(meter.resident_bytes_peak(), peak);
    }

    #[test]
    fn file_store_tiny_window_still_serves() {
        // A window smaller than one chunk degrades to re-reading, never
        // errors: the just-read chunk is immune to eviction.
        let tmp = TempPath::new("filestore-tiny");
        let bytes = data(2048);
        let s = FileStore::create(tmp.path(), &bytes, 512, 1).unwrap();
        let mut buf = vec![0u8; 2048];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, bytes);
        assert_eq!(s.resident_chunks(), 1);
    }

    #[test]
    fn truncated_file_is_short_read_not_panic() {
        let tmp = TempPath::new("filestore-truncated");
        let bytes = data(4096);
        let s = FileStore::create(tmp.path(), &bytes, 512, 4096).unwrap();
        // Truncate the file behind the store's back (len was captured at
        // open): reads past the new end must surface as ShortRead.
        std::fs::write(tmp.path(), &bytes[..1000]).unwrap();
        let mut buf = [0u8; 8];
        let err = s.read_at(2048, &mut buf).unwrap_err();
        assert!(matches!(err, StoreError::ShortRead { .. }), "{err:?}");
    }

    #[test]
    fn chunk_window_batched_fetch_and_refetch_stats() {
        // A miss may bring read-ahead chunks along; later reads of those
        // chunks hit the window (no new fetch). Refetches count only
        // chunks fetched again after eviction.
        let bytes = data(4 * 512);
        let w = ChunkWindow::new(bytes.len(), 512, 2 * 512);
        let fetch_span = |first: usize, n: usize| {
            (first..first + n).map(|ci| (ci, bytes[ci * 512..(ci + 1) * 512].to_vec())).collect()
        };
        let got = w.get_or_fetch(0, || Ok(fetch_span(0, 2))).unwrap();
        assert_eq!(&got[..], &bytes[..512]);
        assert_eq!((w.chunk_fetches(), w.chunk_refetches()), (2, 0));
        // Chunk 1 came along with the batch: a hit, no new fetch.
        let got = w.get_or_fetch(1, || panic!("chunk 1 must be resident")).unwrap();
        assert_eq!(&got[..], &bytes[512..1024]);
        assert_eq!((w.chunk_fetches(), w.chunk_refetches()), (2, 0));
        // Fill the window with 2 and 3 (evicts 0 and 1)…
        w.get_or_fetch(2, || Ok(fetch_span(2, 2))).unwrap();
        assert_eq!(w.resident_chunks(), 2);
        // …then chunk 0 again: a refetch the window was too small to save.
        w.get_or_fetch(0, || Ok(fetch_span(0, 1))).unwrap();
        assert_eq!((w.chunk_fetches(), w.chunk_refetches()), (5, 1));
        assert!(w.meter().resident_bytes_peak() <= 2 * 512);
    }

    #[test]
    fn chunk_window_read_ahead_never_evicts_the_served_chunk() {
        // A batch larger than the window must not evict the chunk being
        // served; the overflowing read-ahead chunks are dropped instead.
        let bytes = data(8 * 512);
        let w = ChunkWindow::new(bytes.len(), 512, 2 * 512);
        let got = w
            .get_or_fetch(0, || {
                Ok((0..8).map(|ci| (ci, bytes[ci * 512..(ci + 1) * 512].to_vec())).collect())
            })
            .unwrap();
        assert_eq!(&got[..], &bytes[..512]);
        assert!(w.resident_chunks() <= 2);
        assert!(w.meter().resident_bytes_now() <= 2 * 512, "window bound violated by read-ahead");
        let mut buf = [0u8; 8];
        w.read_at(0, &mut buf, |_, _| panic!("chunk 0 must still be resident")).unwrap();
        assert_eq!(buf, bytes[..8]);
    }

    #[test]
    fn window_pool_budget_is_global_across_documents() {
        // Two file-backed stores share one pool: total residency obeys
        // the single global budget, not one budget per document.
        let pool = Arc::new(WindowPool::new(2 * 512));
        let (ta, tb) = (TempPath::new("pool-doc-a"), TempPath::new("pool-doc-b"));
        let (da, db) = (data(8 * 512), data(6 * 512));
        std::fs::write(ta.path(), &da).unwrap();
        std::fs::write(tb.path(), &db).unwrap();
        let open = |path: &Path, len| {
            let file = File::open(path).unwrap();
            FileStore::from_open_file(
                file,
                ChunkWindow::in_pool(&pool, pool.register(len, 512), len, 512),
            )
        };
        let (a, b) = (open(ta.path(), da.len()), open(tb.path(), db.len()));
        let mut buf = [0u8; 8];
        for i in 0..8 {
            a.read_at(i * 512, &mut buf).unwrap();
            assert_eq!(buf, da[i * 512..i * 512 + 8], "doc a chunk {i}");
            if i < 6 {
                b.read_at(i * 512, &mut buf).unwrap();
                assert_eq!(buf, db[i * 512..i * 512 + 8], "doc b chunk {i}");
            }
        }
        assert!(
            pool.meter().resident_bytes_peak() <= 2 * 512,
            "shared budget exceeded: {}",
            pool.meter().resident_bytes_peak()
        );
        assert!(pool.resident_chunks() <= 2);
        assert!(pool.evictions() > 0, "interleaved scans over a tiny pool must evict");
        assert_eq!(pool.fetches(), a.window().chunk_fetches() + b.window().chunk_fetches());
        // Same-index chunks of different documents never alias.
        a.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, da[..8]);
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, db[..8]);
    }

    #[test]
    fn window_pool_purge_releases_budget_and_counts_refetches() {
        let pool = Arc::new(WindowPool::new(8 * 512));
        let tmp = TempPath::new("pool-purge");
        let bytes = data(4 * 512);
        std::fs::write(tmp.path(), &bytes).unwrap();
        let file = File::open(tmp.path()).unwrap();
        let token = pool.register(bytes.len(), 512);
        let s =
            FileStore::from_open_file(file, ChunkWindow::in_pool(&pool, token, bytes.len(), 512));
        let mut buf = vec![0u8; bytes.len()];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, bytes);
        assert_eq!(pool.resident_chunks(), 4);
        pool.purge_doc(token);
        assert_eq!(pool.resident_chunks(), 0);
        assert_eq!(pool.meter().resident_bytes_now(), 0);
        assert_eq!(pool.purged_chunks(), 4);
        // The store still serves (chunks re-read from the file), and the
        // ever-bitmap survived the purge: these are refetches.
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, bytes);
        assert_eq!(pool.refetches(), 4);
        assert_eq!(s.window().chunk_refetches(), 4);
    }

    #[test]
    fn window_pool_rejoin_reuses_ticket_and_bitmap_across_reopen_churn() {
        // The registry's close/reopen path: purge, then reopen a window
        // under the original ticket. The registration table must not grow with the
        // churn, and every post-reopen fetch must meter as a refetch —
        // the honest round-trip cost of the close.
        let pool = Arc::new(WindowPool::new(8 * 512));
        let tmp = TempPath::new("pool-rejoin");
        let bytes = data(4 * 512);
        std::fs::write(tmp.path(), &bytes).unwrap();
        let mut buf = vec![0u8; bytes.len()];
        let file = File::open(tmp.path()).unwrap();
        let token = pool.register(bytes.len(), 512);
        let s =
            FileStore::from_open_file(file, ChunkWindow::in_pool(&pool, token, bytes.len(), 512));
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, bytes);
        drop(s);
        pool.purge_doc(token);
        assert_eq!(pool.registered_docs(), 1);
        for cycle in 1..=3u64 {
            let file = std::fs::File::open(tmp.path()).unwrap();
            let window = ChunkWindow::in_pool(&pool, token, bytes.len(), 512);
            let s = FileStore::from_open_file(file, window);
            s.read_at(0, &mut buf).unwrap();
            assert_eq!(buf, bytes, "reopen cycle {cycle} served the wrong bytes");
            assert_eq!(s.window().chunk_refetches(), 4 * cycle, "bitmap lost across rejoin");
            pool.purge_doc(token);
        }
        assert_eq!(
            pool.registered_docs(),
            1,
            "reopen churn must reuse the ticket, not register anew"
        );
        assert_eq!(pool.refetches(), 12);
        assert_eq!(pool.meter().resident_bytes_now(), 0);
    }

    #[test]
    fn dyn_chunk_store_delegates_every_method() {
        let boxed: DynChunkStore = Box::new(MemStore::new(data(100)));
        assert_eq!(boxed.len(), 100);
        assert!(!boxed.is_empty());
        assert!(boxed.meter().is_none());
        let mut buf = [0u8; 10];
        boxed.read_at(5, &mut buf).unwrap();
        assert_eq!(buf, data(100)[5..15]);
        assert!(matches!(boxed.read_at(95, &mut buf), Err(StoreError::OutOfBounds { .. })));
    }

    #[test]
    fn error_taxonomy_transient_vs_permanent() {
        // Shape-of-the-data failures are permanent; channel failures are
        // transient. The net client's retry loop and the docs' failure
        // table both lean on this split.
        let permanent = [
            StoreError::OutOfBounds { offset: 0, len: 1, doc_len: 0 },
            StoreError::ShortRead { offset: 0, wanted: 8, got: 4 },
            StoreError::IdentityChanged { what: "doc meta".to_owned() },
            StoreError::Io {
                offset: 0,
                kind: io::ErrorKind::InvalidData,
                msg: "garbage".to_owned(),
            },
        ];
        for e in &permanent {
            assert!(!e.is_transient(), "{e} must be permanent");
        }
        let transient = [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::Other,
        ];
        for kind in transient {
            let e = StoreError::Io { offset: 0, kind, msg: "blip".to_owned() };
            assert!(e.is_transient(), "{e} must be transient");
        }
    }
}
