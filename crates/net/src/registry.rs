//! The multi-tenant document registry: doc-ids → served documents,
//! under one global residency budget.
//!
//! A [`DocRegistry`] is what turns the one-document demo socket into a
//! service: the `Hello` frame's doc-id negotiation routes here. Two
//! kinds of tenants live side by side (type-erased behind
//! [`DynChunkStore`]):
//!
//! * **resident** documents ([`DocRegistry::insert`]) — any prepared
//!   [`ServerDoc`], always open; the single-tenant
//!   [`ChunkServer::new`](crate::ChunkServer::new) shape is a registry
//!   with one resident entry;
//! * **lazy file-backed** documents ([`DocRegistry::insert_file`]) —
//!   registered as metadata + a ciphertext path, opened on first route
//!   through [`FileStore::from_open_file`] over a
//!   [`ChunkWindow::in_pool`] window, so every tenant's resident
//!   chunks draw from the registry's one shared [`WindowPool`] budget,
//!   and closed again (LRU, [`max_open_docs`](DocRegistry::with_max_open_docs))
//!   when too many lazy tenants are open at once.
//!
//! Routing hands out `Arc<ServedDoc>`: a connection that negotiated a
//! document keeps serving it even if the registry closes the tenant
//! mid-session (the close only purges pooled chunks — invisible to the
//! session beyond refetches), and a later `Hello` for the same id
//! simply reopens it. Per-document counters survive close/reopen cycles
//! and roll up — together with the pool's residency figures — into the
//! [`RegistrySnapshot`] half of the server's
//! [`ServiceSnapshot`](crate::server::ServiceSnapshot).
//!
//! The shape follows trustification's registry-over-storage split (an
//! API layer fronting an object store, with an admin path that can
//! drop and reopen indexes): storage stays dumb, the registry owns
//! lifecycle and accounting.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xsac_crypto::store::{
    ChunkStore, ChunkWindow, DynChunkStore, FileStore, PoolDoc, StoreError, WindowPool,
};
use xsac_obs::{AtomicHistogram, Histogram, PhaseProfile, SharedPhaseProfile};
use xsac_soe::{DocMeta, ServerDoc};

/// Per-document serving counters, shared across every connection bound
/// to the document and surviving close/reopen cycles. Read only through
/// [`DocRegistry::snapshot`] into a [`DocRow`].
#[derive(Debug, Default)]
pub(crate) struct DocMetrics {
    pub(crate) requests: AtomicU64,
    pub(crate) chunks_served: AtomicU64,
    pub(crate) bytes_served: AtomicU64,
    pub(crate) fault_frames: AtomicU64,
    opens: AtomicU64,
    closes: AtomicU64,
    /// Σ phase nanoseconds reported by client sessions over this
    /// document (the `Report` frame) — zero until a client reports.
    /// Decrypt/verify/evaluate run inside the client's SOE, so the
    /// server never observes them directly.
    pub(crate) phases: SharedPhaseProfile,
    /// Wall time of each request answered while bound to this document,
    /// log-bucketed nanoseconds.
    pub(crate) request_latency: AtomicHistogram,
}

/// One open document as the server serves it: the reassembled
/// [`ServerDoc`], its pre-encoded meta (the `Hello` reply payload), and
/// its counters.
/// Connections hold it by `Arc`, so a registry close never invalidates
/// an in-flight session.
pub struct ServedDoc {
    pub(crate) doc: ServerDoc<DynChunkStore>,
    pub(crate) meta_bytes: Arc<Vec<u8>>,
    pub(crate) metrics: Arc<DocMetrics>,
}

impl ServedDoc {
    /// The served document.
    pub fn doc(&self) -> &ServerDoc<DynChunkStore> {
        &self.doc
    }
}

/// Why a doc-id failed to route.
#[derive(Debug)]
pub enum OpenError {
    /// The id is not registered — answered on the wire as the typed
    /// [`Fault::UnknownDoc`](crate::Fault::UnknownDoc) frame.
    Unknown,
    /// The id is registered but its backing store failed to open, or
    /// its file's length disagrees with the registered meta (answered
    /// as a typed I/O fault; the registration stays, so a later `Hello`
    /// retries the open).
    Store(StoreError),
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::Unknown => write!(f, "document id not registered"),
            OpenError::Store(e) => write!(f, "backing store failed to open: {e}"),
        }
    }
}

impl std::error::Error for OpenError {}

enum Backing {
    /// Always open (in-memory or caller-managed store).
    Resident(Arc<ServedDoc>),
    /// Lazy file-backed: opened on first route, closable under LRU
    /// pressure. `pool_doc` is the store's pool ticket: set at first
    /// open and kept across close/reopen cycles, so a close can purge
    /// the tenant's resident chunks and a reopen rejoins the pool under
    /// the same ticket (the ever-fetched bitmap survives — post-reopen
    /// traffic meters as refetches, and churn does not grow the pool's
    /// registration table).
    File {
        meta: Box<DocMeta>,
        path: PathBuf,
        chunk_size: usize,
        open: Option<Arc<ServedDoc>>,
        pool_doc: Option<PoolDoc>,
    },
}

struct Entry {
    backing: Backing,
    meta_bytes: Arc<Vec<u8>>,
    metrics: Arc<DocMetrics>,
    /// Registry-clock tick of the last route, for LRU closing.
    last_used: u64,
}

/// One row of a [`RegistrySnapshot`]: a registered document and its
/// lifetime counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocRow {
    /// The registered id.
    pub doc_id: String,
    /// Whether the document is currently open (servable without a
    /// reopen). Resident documents are always open.
    pub open: bool,
    /// Whether the document is a lazy file-backed tenant.
    pub lazy: bool,
    /// Requests served while bound to this document (Hello + Meta +
    /// Chunks + Report).
    pub requests: u64,
    /// Chunks shipped.
    pub chunks_served: u64,
    /// Ciphertext payload bytes shipped.
    pub bytes_served: u64,
    /// Typed fault frames answered while bound to this document.
    pub fault_frames: u64,
    /// Open events (a resident document counts one, at registration).
    pub opens: u64,
    /// Close events (LRU pressure or an explicit [`DocRegistry::close`]).
    pub closes: u64,
    /// Σ phase nanoseconds reported by client sessions (`Report`
    /// frames) over this document.
    pub phases: PhaseProfile,
    /// Log-bucketed wall time (nanoseconds) of requests answered while
    /// bound to this document.
    pub request_latency: Histogram,
}

/// Registry-level half of the service snapshot: per-document rows plus
/// the shared pool's residency/eviction figures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// One row per registered document, sorted by id.
    pub docs: Vec<DocRow>,
    /// Document open events across all tenants.
    pub doc_opens: u64,
    /// Document close events (LRU + explicit) across all tenants.
    pub doc_closes: u64,
    /// `Hello` frames naming an unregistered id.
    pub unknown_doc_rejections: u64,
    /// The shared pool's global residency budget.
    pub budget_bytes: usize,
    /// Pool bytes resident right now.
    pub resident_bytes_now: u64,
    /// Pool residency high-water mark.
    pub resident_bytes_peak: u64,
    /// Pool backend fetches.
    pub pool_fetches: u64,
    /// Pool refetches (budget pressure + close/reopen cycles).
    pub pool_refetches: u64,
    /// Pool chunks evicted under budget pressure.
    pub pool_evictions: u64,
    /// Pool chunks dropped by document closes.
    pub pool_purged_chunks: u64,
}

/// Maps doc-ids to served documents under one shared residency budget.
/// See the [module docs](self) for the routing and lifecycle contract.
pub struct DocRegistry {
    pool: Arc<WindowPool>,
    inner: Mutex<HashMap<String, Entry>>,
    max_open_docs: usize,
    clock: AtomicU64,
    unknown_docs: AtomicU64,
    opens: AtomicU64,
    closes: AtomicU64,
}

impl DocRegistry {
    /// An empty registry whose lazy tenants share a [`WindowPool`] of
    /// `budget_bytes` (the **global** residency bound across all
    /// file-backed documents — deliberately allowed to be smaller than
    /// any single document). Lazy tenants stay open until
    /// [`with_max_open_docs`](DocRegistry::with_max_open_docs) caps
    /// them.
    pub fn new(budget_bytes: usize) -> DocRegistry {
        DocRegistry {
            pool: Arc::new(WindowPool::new(budget_bytes)),
            inner: Mutex::new(HashMap::new()),
            max_open_docs: usize::MAX,
            clock: AtomicU64::new(0),
            unknown_docs: AtomicU64::new(0),
            opens: AtomicU64::new(0),
            closes: AtomicU64::new(0),
        }
    }

    /// Caps how many lazy file-backed documents may be open at once:
    /// routing a cold tenant past the cap closes the least-recently
    /// routed open one (resident tenants are exempt — they have no
    /// close). Bounds per-document overhead (open file handles, meta
    /// state) the way the pool budget bounds chunk residency.
    pub fn with_max_open_docs(mut self, max: usize) -> DocRegistry {
        self.max_open_docs = max.max(1);
        self
    }

    /// The shared residency pool (budget, meter, fetch/eviction
    /// counters).
    pub fn pool(&self) -> &Arc<WindowPool> {
        &self.pool
    }

    /// Registers `doc` under `doc_id` as an always-open resident tenant
    /// (replacing any previous registration of the id). The store is
    /// type-erased, so in-memory and file-backed documents mix freely.
    pub fn insert<S: ChunkStore + Send + Sync + 'static>(
        &self,
        doc_id: impl Into<String>,
        doc: ServerDoc<S>,
    ) {
        let metrics = Arc::new(DocMetrics::default());
        metrics.opens.fetch_add(1, Ordering::Relaxed);
        self.opens.fetch_add(1, Ordering::Relaxed);
        let meta_bytes = Arc::new(crate::meta::encode_meta(&doc.meta()));
        let served = Arc::new(ServedDoc {
            doc: doc.into_dyn(),
            meta_bytes: Arc::clone(&meta_bytes),
            metrics: Arc::clone(&metrics),
        });
        let doc_id = doc_id.into();
        let mut inner = self.inner.lock().expect("doc registry");
        // Re-registering over an open lazy tenant is a close: purge its
        // pooled residency and count it, rather than letting the old
        // entry's chunks squat on the budget until LRU pressure.
        self.close_locked(&mut inner, &doc_id);
        inner.insert(
            doc_id,
            Entry { backing: Backing::Resident(served), meta_bytes, metrics, last_used: 0 },
        );
    }

    /// Registers a lazy file-backed tenant: `meta` (as produced by
    /// [`ServerDoc::meta`] after `prepare_to_store_with_stats`) plus the
    /// ciphertext `path`. Nothing is opened until the first `Hello`
    /// routes here; the meta the `Hello` reply carries is encoded once
    /// now, so every open — and every reconnecting client's identity
    /// check — sees byte-identical metadata.
    pub fn insert_file(&self, doc_id: impl Into<String>, meta: DocMeta, path: impl Into<PathBuf>) {
        let meta_bytes = Arc::new(crate::meta::encode_meta(&meta));
        let chunk_size = meta.layout.chunk_size;
        let doc_id = doc_id.into();
        let mut inner = self.inner.lock().expect("doc registry");
        // As in `insert`: replacing an open lazy tenant closes it first.
        self.close_locked(&mut inner, &doc_id);
        inner.insert(
            doc_id,
            Entry {
                backing: Backing::File {
                    meta: Box::new(meta),
                    path: path.into(),
                    chunk_size,
                    open: None,
                    pool_doc: None,
                },
                meta_bytes,
                metrics: Arc::new(DocMetrics::default()),
                last_used: 0,
            },
        );
    }

    /// Routes a doc-id: the `Hello` path. Returns the served document,
    /// opening a lazy tenant (and LRU-closing the coldest open one past
    /// the cap) as needed.
    ///
    /// The blocking file I/O of a cold open happens **outside** the
    /// registry lock (double-checked: look, release, open, re-acquire,
    /// install), so one slow disk cannot head-of-line block `Hello`
    /// routing for already-open or resident tenants.
    pub fn open(&self, doc_id: &str) -> Result<Arc<ServedDoc>, OpenError> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        loop {
            // Fast path under the lock: resident or already-open tenants
            // route immediately; otherwise capture what the open needs.
            let (path, chunk_size, meta_len) = {
                let mut inner = self.inner.lock().expect("doc registry");
                let Some(entry) = inner.get_mut(doc_id) else {
                    self.unknown_docs.fetch_add(1, Ordering::Relaxed);
                    return Err(OpenError::Unknown);
                };
                entry.last_used = tick;
                match &entry.backing {
                    Backing::Resident(doc) => return Ok(Arc::clone(doc)),
                    Backing::File { open: Some(doc), .. } => return Ok(Arc::clone(doc)),
                    Backing::File { path, chunk_size, meta, .. } => {
                        (path.clone(), *chunk_size, meta.ciphertext_len)
                    }
                }
            };
            // The slow part — open + stat — with the lock released.
            let opened = File::open(&path).and_then(|f| {
                let len = f.metadata()?.len() as usize;
                Ok((f, len))
            });
            let (file, len) = opened.map_err(|e| {
                OpenError::Store(StoreError::Io {
                    offset: 0,
                    kind: e.kind(),
                    msg: format!("open {}: {e}", path.display()),
                })
            })?;
            // A truncated or replaced file must not be served under the
            // registered meta: the tenant stays closed, and no retry can
            // fix it.
            if len != meta_len {
                return Err(OpenError::Store(StoreError::Io {
                    offset: 0,
                    kind: io::ErrorKind::InvalidData,
                    msg: format!("{}: {len} bytes, meta announces {meta_len}", path.display()),
                }));
            }
            // Re-acquire and install, unless a racing route beat us to
            // it (use theirs) or the entry changed under us (retry).
            let mut inner = self.inner.lock().expect("doc registry");
            let Some(entry) = inner.get_mut(doc_id) else {
                self.unknown_docs.fetch_add(1, Ordering::Relaxed);
                return Err(OpenError::Unknown);
            };
            let served = match &mut entry.backing {
                Backing::Resident(doc) => return Ok(Arc::clone(doc)),
                Backing::File { open: Some(doc), .. } => return Ok(Arc::clone(doc)),
                Backing::File { meta, path: cur_path, chunk_size: cur_cs, open, pool_doc } => {
                    if *cur_path != path || *cur_cs != chunk_size || meta.ciphertext_len != len {
                        // Re-registered while we were opening: our file
                        // handle is stale — start over.
                        continue;
                    }
                    // Reopens rejoin the pool under the original ticket:
                    // the ever-fetched bitmap survives the close, so
                    // post-reopen fetches meter as refetches and reopen
                    // churn does not grow the pool's registration table.
                    let window = match *pool_doc {
                        Some(token) => ChunkWindow::rejoin_pool(&self.pool, token, len, chunk_size),
                        None => ChunkWindow::in_pool(&self.pool, len, chunk_size),
                    };
                    *pool_doc = Some(window.pool_doc());
                    let store = FileStore::from_open_file(file, window);
                    let served = Arc::new(ServedDoc {
                        doc: ServerDoc::from_meta((**meta).clone(), store).into_dyn(),
                        meta_bytes: Arc::clone(&entry.meta_bytes),
                        metrics: Arc::clone(&entry.metrics),
                    });
                    *open = Some(Arc::clone(&served));
                    entry.metrics.opens.fetch_add(1, Ordering::Relaxed);
                    self.opens.fetch_add(1, Ordering::Relaxed);
                    served
                }
            };
            self.enforce_open_cap(&mut inner, doc_id);
            return Ok(served);
        }
    }

    /// Closes the least-recently routed open lazy tenants (never
    /// `just_opened`) until the open count fits the cap.
    fn enforce_open_cap(&self, inner: &mut HashMap<String, Entry>, just_opened: &str) {
        loop {
            let mut open_count = 0usize;
            let mut victim: Option<(&String, u64)> = None;
            for (id, entry) in inner.iter() {
                if let Backing::File { open: Some(_), .. } = entry.backing {
                    open_count += 1;
                    if id != just_opened && victim.is_none_or(|(_, best)| entry.last_used < best) {
                        victim = Some((id, entry.last_used));
                    }
                }
            }
            if open_count <= self.max_open_docs {
                return;
            }
            let Some((id, _)) = victim else { return };
            let id = id.clone();
            self.close_locked(inner, &id);
        }
    }

    fn close_locked(&self, inner: &mut HashMap<String, Entry>, doc_id: &str) -> bool {
        let Some(entry) = inner.get_mut(doc_id) else { return false };
        let Backing::File { open, pool_doc, .. } = &mut entry.backing else { return false };
        if open.take().is_none() {
            return false;
        }
        // Purge residency but keep the ticket: the reopen path rejoins
        // the pool under it, preserving refetch accounting.
        if let Some(token) = *pool_doc {
            self.pool.purge_doc(token);
        }
        entry.metrics.closes.fetch_add(1, Ordering::Relaxed);
        self.closes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Explicitly closes a lazy tenant (the admin path: evict a cold
    /// document's residency now). Connections already bound to it keep
    /// serving through their `Arc`; the next `Hello` reopens it.
    /// Returns whether anything was open to close (resident tenants and
    /// unknown ids return `false`).
    pub fn close(&self, doc_id: &str) -> bool {
        let mut inner = self.inner.lock().expect("doc registry");
        self.close_locked(&mut inner, doc_id)
    }

    /// Number of registered documents.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("doc registry").len()
    }

    /// Whether the registry has no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `doc_id` is registered.
    pub fn contains(&self, doc_id: &str) -> bool {
        self.inner.lock().expect("doc registry").contains_key(doc_id)
    }

    /// A consistent snapshot of every tenant's counters plus the shared
    /// pool's residency figures — the registry half of
    /// [`ServiceSnapshot`](crate::server::ServiceSnapshot).
    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let inner = self.inner.lock().expect("doc registry");
        let mut docs: Vec<DocRow> = inner
            .iter()
            .map(|(id, entry)| {
                let (open, lazy) = match &entry.backing {
                    Backing::Resident(_) => (true, false),
                    Backing::File { open, .. } => (open.is_some(), true),
                };
                let m = &entry.metrics;
                DocRow {
                    doc_id: id.clone(),
                    open,
                    lazy,
                    requests: load(&m.requests),
                    chunks_served: load(&m.chunks_served),
                    bytes_served: load(&m.bytes_served),
                    fault_frames: load(&m.fault_frames),
                    opens: load(&m.opens),
                    closes: load(&m.closes),
                    phases: m.phases.snapshot(),
                    request_latency: m.request_latency.snapshot(),
                }
            })
            .collect();
        docs.sort_by(|a, b| a.doc_id.cmp(&b.doc_id));
        RegistrySnapshot {
            docs,
            doc_opens: load(&self.opens),
            doc_closes: load(&self.closes),
            unknown_doc_rejections: load(&self.unknown_docs),
            budget_bytes: self.pool.budget_bytes(),
            resident_bytes_now: self.pool.meter().resident_bytes_now(),
            resident_bytes_peak: self.pool.meter().resident_bytes_peak(),
            pool_fetches: self.pool.fetches(),
            pool_refetches: self.pool.refetches(),
            pool_evictions: self.pool.evictions(),
            pool_purged_chunks: self.pool.purged_chunks(),
        }
    }
}
