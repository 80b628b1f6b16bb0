//! The dissemination server: a [`ChunkServer`] publishes the documents
//! of a [`DocRegistry`] over TCP to any number of concurrent clients.
//!
//! The `Hello` frame's doc-id routes through the registry, and the
//! reply carries the routed document's encoded meta (pre-encoded once
//! per registration), so one round trip binds a connection. One
//! server process is a **multi-tenant service**: resident in-memory
//! documents and lazy file-backed ones (opened on demand, all drawing
//! chunk residency from the registry's one shared
//! [`WindowPool`](xsac_crypto::WindowPool) budget) are served side by
//! side, and an unknown id is answered with a typed
//! [`Fault::UnknownDoc`] frame — never a hang or a panic. The
//! historical one-document shape ([`ChunkServer::new`]) is just a
//! registry with a single resident entry.
//!
//! Over a [`FileStore`](xsac_crypto::FileStore)-backed document the
//! ciphertext flows **disk → pooled window → socket** without ever
//! being materialized, so a box serving documents larger than its RAM
//! is `ServerDoc::prepare_to_store_with_stats` +
//! [`DocRegistry::insert_file`] + `ChunkServer::spawn`. The server holds no keys and sees no
//! plaintext queries or views: it is the paper's *untrusted* party,
//! shipping ciphertext, encrypted digests and the (public) skip-index
//! material; access control happens entirely client-side.
//!
//! Concurrency matches the PR-3 idiom: a threaded accept loop over
//! `std::thread::scope`, one scoped thread per connection, no shared
//! mutable state beyond the registry/pool locks and the serving
//! counters.
//!
//! # Resilience and admission
//!
//! No connection can pin a server thread: every accepted socket carries
//! **read/write deadlines** ([`ServerConfig`]), so a peer that stalls
//! mid-request (or stops draining responses) is evicted when its
//! deadline fires, and every connection has a **frame budget**
//! (generalizing the per-frame [`DEFAULT_SERVER_MAX_FRAME`] guard to the
//! whole conversation) after which it is closed. Past
//! [`ServerConfig::max_conns`] live connections the server stops
//! admitting: excess peers are answered with one typed
//! [`Fault::Busy`] frame and dropped without a handler thread — the
//! transient fault the client retry loop backs off on. All eviction
//! and rejection kinds are counted in the [`ServiceSnapshot`]; a well-behaved
//! client just reconnects — the `RemoteStore` retry loop makes any of
//! them invisible to the session above it.

use crate::registry::{DocRegistry, OpenError, RegistrySnapshot, ServedDoc};
use crate::wire::{
    self, AdminOp, AdminReply, Fault, Request, Response, WireError, DEFAULT_SERVER_MAX_FRAME,
    MAX_CHUNKS_PER_REQUEST, PROTOCOL_VERSION,
};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xsac_crypto::store::ChunkStore;
use xsac_obs::{Histogram, PhaseProfile, Tick};
use xsac_soe::ServerDoc;

/// Pool budget backing the single-document [`ChunkServer::new`]
/// convenience constructor. Resident documents never draw from the
/// pool, so the value only matters if such a server later gains lazy
/// tenants through [`ChunkServer::registry`].
const SINGLE_DOC_POOL_BUDGET: usize = 8 << 20;

/// Per-connection resource policy: socket deadlines, the lifetime frame
/// budget, and the admission cap (the frame-size and batch bounds are
/// the wire constants [`DEFAULT_SERVER_MAX_FRAME`] and
/// [`MAX_CHUNKS_PER_REQUEST`]). The defaults serve patient, legitimate
/// clients; tighten them for hostile networks.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Read deadline per socket: a connection idle (or trickling) longer
    /// than this between frames is evicted as a slow peer. `None`
    /// removes the deadline (not recommended: one stalled client then
    /// pins a connection thread forever).
    pub read_timeout: Option<Duration>,
    /// Write deadline per socket: a peer that stops draining its
    /// responses is evicted rather than blocking the sender.
    pub write_timeout: Option<Duration>,
    /// Most request frames one connection may send over its lifetime —
    /// the whole-conversation generalization of
    /// [`DEFAULT_SERVER_MAX_FRAME`]. Exceeding it closes the connection
    /// (counted in [`ServiceSnapshot::budget_evictions`]); a legitimate
    /// long-lived client simply reconnects.
    pub max_frames_per_conn: u64,
    /// Most connections served concurrently — the accept-side
    /// generalization of the frame budget. A peer arriving past the cap
    /// is answered with one typed [`Fault::Busy`] frame (transient: the
    /// client retry loop backs off and reconnects) and dropped without
    /// ever getting a handler thread, so a connection flood degrades
    /// into bounded, counted rejections instead of unbounded threads.
    pub max_conns: u64,
    /// Whether [`Request::Admin`] operations (closing tenants) are
    /// honoured. Off by default: the admin surface mutates registry
    /// state, so an operator must opt a listener into it; a disabled
    /// server answers every admin frame with the typed
    /// [`Fault::AdminDisabled`] and keeps the connection alive.
    /// `Stats` is read-only and stays available regardless.
    pub admin: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frames_per_conn: 1 << 20,
            max_conns: 1024,
            admin: false,
        }
    }
}

/// Serving counters, shared between the accept loop, every connection
/// thread, and the [`ServerHandle`]. Read only through
/// [`ServiceSnapshot`]; per-document breakdowns live in the registry.
#[derive(Debug, Default)]
pub(crate) struct NetMetrics {
    connections: AtomicU64,
    requests: AtomicU64,
    chunks_served: AtomicU64,
    bytes_served: AtomicU64,
    fault_frames: AtomicU64,
    slow_peer_evictions: AtomicU64,
    budget_evictions: AtomicU64,
    admission_rejections: AtomicU64,
}

/// Service-level roll-up: the server's connection/transport counters
/// plus the registry's per-document and residency figures, taken
/// together — the one structure an operator scrapes, and the only way
/// to read a running server's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Per-document rows and shared-pool residency.
    pub registry: RegistrySnapshot,
    /// Connections admitted (not counting admission rejections).
    pub connections: u64,
    /// Requests served across all tenants.
    pub requests: u64,
    /// Chunks shipped across all tenants.
    pub chunks_served: u64,
    /// Ciphertext payload bytes shipped across all tenants (chunk
    /// bodies only, not framing or the meta in `Hello` replies).
    pub bytes_served: u64,
    /// Typed fault frames sent.
    pub fault_frames: u64,
    /// Connections evicted because a socket deadline fired — a peer that
    /// stalled mid-frame, went idle past the read deadline, or stopped
    /// draining responses.
    pub slow_peer_evictions: u64,
    /// Connections closed for exhausting their
    /// [frame budget](ServerConfig::max_frames_per_conn).
    pub budget_evictions: u64,
    /// Connections turned away at the
    /// [admission cap](ServerConfig::max_conns) with a `Busy` frame.
    pub admission_rejections: u64,
    /// Σ session phase nanoseconds reported by clients (`Report`
    /// frames), merged across every per-doc row.
    pub phase_totals: PhaseProfile,
    /// Wall time of every doc-bound request, log-bucketed nanoseconds,
    /// merged across every per-doc row.
    pub request_latency: Histogram,
}

impl ServiceSnapshot {
    /// Sets the service-wide phase and latency totals to the merge of
    /// the per-doc rows. The totals are *defined* that way, so
    /// rows-sum-to-totals holds by construction (requests not bound to a
    /// document are not timed) and the wire never carries a second copy.
    pub(crate) fn with_row_totals(mut self) -> ServiceSnapshot {
        self.phase_totals = PhaseProfile::new();
        self.request_latency = Histogram::new();
        for d in &self.registry.docs {
            self.phase_totals.merge(&d.phases);
            self.request_latency.merge(&d.request_latency);
        }
        self
    }
}

/// Serves the documents of a [`DocRegistry`] to concurrent network
/// clients.
pub struct ChunkServer {
    registry: Arc<DocRegistry>,
    config: ServerConfig,
    metrics: Arc<NetMetrics>,
    /// Connections currently being served — the admission gauge
    /// compared against [`ServerConfig::max_conns`].
    live: AtomicU64,
    /// Reader-side clones of every *live* connection keyed by a
    /// connection id, so shutdown can unblock their (blocking) frame
    /// reads deterministically. A handler removes its own entry on exit
    /// — a long-running server does not accumulate dead fds, and
    /// shutdown never races two peers that look alike.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl ChunkServer {
    /// Wraps a single prepared document for network serving under
    /// `doc_id` — the historic one-tenant shape, now sugar for a
    /// one-entry registry.
    pub fn new<S: ChunkStore + Send + Sync + 'static>(
        doc: ServerDoc<S>,
        doc_id: impl Into<String>,
    ) -> ChunkServer {
        let registry = DocRegistry::new(SINGLE_DOC_POOL_BUDGET);
        registry.insert(doc_id, doc);
        ChunkServer::with_registry(Arc::new(registry))
    }

    /// Serves every document of `registry` — the multi-tenant shape.
    /// The registry stays shared: documents can be registered or closed
    /// while the server runs.
    pub fn with_registry(registry: Arc<DocRegistry>) -> ChunkServer {
        ChunkServer {
            registry,
            config: ServerConfig::default(),
            metrics: Arc::new(NetMetrics::default()),
            live: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the whole per-connection policy: deadlines, frame
    /// budget, admission cap.
    pub fn with_config(mut self, config: ServerConfig) -> ChunkServer {
        self.config = config;
        self
    }

    /// The document registry being served.
    pub fn registry(&self) -> &Arc<DocRegistry> {
        &self.registry
    }

    /// The service-level roll-up: transport counters + registry rows +
    /// pool residency, in one consistent read.
    pub fn service_snapshot(&self) -> ServiceSnapshot {
        service_snapshot(&self.registry, &self.metrics)
    }

    /// Serves `listener` until `stop` is raised: a threaded accept loop
    /// over `std::thread::scope`, one scoped thread per connection.
    ///
    /// The accept loop **blocks** in `accept` (no poll/sleep cycle); the
    /// stop flag is observed when the next connection arrives, so a
    /// stopper must follow the store with a wake-up connection to the
    /// listener — [`ServerHandle::shutdown`] does exactly that. Blocks
    /// the calling thread; [`ChunkServer::spawn`] wraps it in a
    /// background thread with a shutdown handle.
    pub fn serve(&self, listener: TcpListener, stop: &AtomicBool) -> io::Result<()> {
        std::thread::scope(|scope| {
            let mut result = Ok(());
            let mut next_id = 0u64;
            loop {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        // The wake-up connection that delivered a stop
                        // (or a client racing the shutdown) is dropped
                        // unserved and uncounted.
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let live = self.live.load(Ordering::Relaxed);
                        if live >= self.config.max_conns {
                            // Admission rejection: answer one Busy frame
                            // off-thread (the write carries a deadline,
                            // so a peer that won't read it cannot pin
                            // the rejector) and drop the socket. No
                            // handler thread, no conns entry.
                            self.metrics.admission_rejections.fetch_add(1, Ordering::Relaxed);
                            let max = self.config.max_conns;
                            scope.spawn(move || reject_busy(stream, self.config, live, max));
                            continue;
                        }
                        self.live.fetch_add(1, Ordering::Relaxed);
                        self.metrics.connections.fetch_add(1, Ordering::Relaxed);
                        let id = next_id;
                        next_id += 1;
                        if let Ok(clone) = stream.try_clone() {
                            self.conns.lock().expect("connection list").push((id, clone));
                        }
                        scope.spawn(move || {
                            self.handle_conn(stream);
                            // Drop this connection's shutdown clone:
                            // dead sockets must not accumulate fds.
                            self.conns
                                .lock()
                                .expect("connection list")
                                .retain(|(cid, _)| *cid != id);
                            self.live.fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            // Unblock every connection thread's pending read, then let
            // the scope join them — the drain is deterministic: after
            // `serve` returns, no handler thread is running.
            for (_, conn) in self.conns.lock().expect("connection list").drain(..) {
                let _ = conn.shutdown(Shutdown::Both);
            }
            result
        })
    }

    /// One connection's request/response loop. Transport and framing
    /// failures end the connection (the client owns retry policy);
    /// in-protocol problems are answered with typed fault frames and the
    /// conversation continues — until the socket's deadline fires or the
    /// connection's frame budget runs out, both of which evict the peer.
    ///
    /// `bound` is the document this connection negotiated via `Hello`;
    /// a later `Hello` may rebind it to another tenant mid-connection.
    /// The handler holds the document by `Arc`, so a registry close
    /// never invalidates the session.
    fn handle_conn(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(self.config.read_timeout);
        let _ = stream.set_write_timeout(self.config.write_timeout);
        let mut buf = Vec::new();
        let mut bound: Option<Arc<ServedDoc>> = None;
        let mut frames = 0u64;
        loop {
            if frames >= self.config.max_frames_per_conn {
                self.metrics.budget_evictions.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match wire::read_frame(&mut stream, DEFAULT_SERVER_MAX_FRAME, &mut buf) {
                Ok(()) => {}
                Err(e) => {
                    // A fired read deadline is a slow-peer eviction; a
                    // closed/garbled peer is just gone.
                    if is_deadline(&e) {
                        self.metrics.slow_peer_evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
            }
            frames += 1;
            self.metrics.requests.fetch_add(1, Ordering::Relaxed);
            // Request wall time — decode through response written —
            // charged to the document the connection is bound to *after*
            // dispatch (a Hello's cost lands on the tenant it routed
            // to). Unbound requests are not timed anywhere, keeping the
            // per-doc-rows-sum-to-service-totals invariant exact.
            let t = Tick::now();
            let response = match Request::decode(&buf) {
                Ok(req) => self.dispatch(req, &mut bound),
                Err(_) => {
                    Response::Err(Fault::BadRequest { reason: "unparseable request".to_owned() })
                }
            };
            if let Some(doc) = &bound {
                doc.metrics.requests.fetch_add(1, Ordering::Relaxed);
            }
            if matches!(response, Response::Err(_)) {
                self.metrics.fault_frames.fetch_add(1, Ordering::Relaxed);
                if let Some(doc) = &bound {
                    doc.metrics.fault_frames.fetch_add(1, Ordering::Relaxed);
                }
            }
            if let Err(e) = wire::write_frame(&mut stream, &response.encode()) {
                if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) {
                    self.metrics.slow_peer_evictions.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            if let Some(doc) = &bound {
                doc.metrics.request_latency.record(t.elapsed_nanos());
            }
        }
    }

    fn dispatch(&self, req: Request, bound: &mut Option<Arc<ServedDoc>>) -> Response {
        match req {
            Request::Hello { version, doc_id } => {
                if version != PROTOCOL_VERSION {
                    return Response::Err(Fault::VersionMismatch { server: PROTOCOL_VERSION });
                }
                let doc = match self.registry.open(&doc_id) {
                    Ok(doc) => doc,
                    Err(OpenError::Unknown) => {
                        return Response::Err(Fault::UnknownDoc { requested: doc_id });
                    }
                    Err(OpenError::Store(e)) => return Response::Err(Fault::from_store(&e)),
                };
                let hello = Response::Hello(doc.meta_bytes.as_ref().clone());
                // Rebinding: a second Hello moves this connection to
                // another tenant (interleaved doc-ids per connection).
                *bound = Some(doc);
                hello
            }
            Request::GetChunks { .. } | Request::Report { .. } if bound.is_none() => out_of_order(),
            Request::GetChunks { first, count } => {
                let doc = Arc::clone(bound.as_ref().expect("bound checked above"));
                self.get_chunks(&doc, first, count)
            }
            Request::Stats => {
                Response::Stats(crate::stats::encode_snapshot(&self.service_snapshot()))
            }
            Request::Admin(_) if !self.config.admin => Response::Err(Fault::AdminDisabled),
            Request::Admin(AdminOp::CloseDoc { doc_id }) => {
                Response::Admin(AdminReply::Closed { closed: self.registry.close(&doc_id) })
            }
            Request::Report { phases } => {
                let doc = bound.as_ref().expect("bound checked above");
                doc.metrics.phases.merge(&phases);
                Response::Report
            }
        }
    }

    fn get_chunks(&self, doc: &ServedDoc, first: u64, count: u32) -> Response {
        let p = &doc.doc.protected;
        if count == 0 || count > MAX_CHUNKS_PER_REQUEST {
            return Response::Err(Fault::BadRequest {
                reason: format!("batch of {count} chunks (limit {MAX_CHUNKS_PER_REQUEST})"),
            });
        }
        let end = first.saturating_add(count as u64);
        if end > p.chunk_count() as u64 {
            // Saturating: a hostile run near u64::MAX must produce a
            // fault frame, not an overflow panic in this thread.
            return Response::Err(Fault::OutOfBounds {
                offset: first.saturating_mul(p.layout.chunk_size as u64),
                len: (count as u64).saturating_mul(p.layout.chunk_size as u64),
                doc_len: p.ciphertext_len() as u64,
            });
        }
        let mut chunks = Vec::with_capacity(count as usize);
        for ci in first..end {
            let range = p.chunk_range(ci as usize);
            let mut bytes = vec![0u8; range.len()];
            if let Err(e) = p.store.read_at(range.start, &mut bytes) {
                return Response::Err(Fault::from_store(&e));
            }
            self.metrics.chunks_served.fetch_add(1, Ordering::Relaxed);
            self.metrics.bytes_served.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            doc.metrics.chunks_served.fetch_add(1, Ordering::Relaxed);
            doc.metrics.bytes_served.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            chunks.push((ci, bytes));
        }
        Response::Chunks(chunks)
    }
}

/// Answers a connection arriving past the admission cap: one typed
/// `Busy` frame under a write deadline, then the socket is dropped.
/// The client finds the frame waiting when it looks for its `Hello`
/// response.
fn reject_busy(mut stream: TcpStream, config: ServerConfig, live: u64, max: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(config.write_timeout);
    let frame = Response::Err(Fault::Busy { live, max }).encode();
    if wire::write_frame(&mut stream, &frame).is_ok() {
        // Drain briefly until the peer closes: its Hello bytes sit
        // unread in our receive queue, and closing over them would RST
        // the connection — racing the Busy frame out of the peer's
        // socket before it reads the typed rejection. The drain is
        // bounded by a *total* deadline and a byte cap, not just a
        // per-read timeout: a hostile peer trickling one byte every few
        // hundred milliseconds must not pin this thread (rejection
        // threads are exempt from `max_conns` and are joined by the
        // serve scope, so an unbounded drain would defeat the admission
        // cap and stall shutdown). Worst case the peer sees an RST it
        // earned.
        const DRAIN_DEADLINE: Duration = Duration::from_millis(500);
        const DRAIN_MAX_BYTES: usize = 64 * 1024;
        let start = Instant::now();
        let mut drained = 0usize;
        let mut sink = [0u8; 256];
        loop {
            let left = DRAIN_DEADLINE.saturating_sub(start.elapsed());
            if left.is_zero() || drained >= DRAIN_MAX_BYTES {
                break;
            }
            let _ = stream.set_read_timeout(Some(left.max(Duration::from_millis(10))));
            match io::Read::read(&mut stream, &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn service_snapshot(registry: &DocRegistry, m: &NetMetrics) -> ServiceSnapshot {
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    ServiceSnapshot {
        registry: registry.snapshot(),
        connections: load(&m.connections),
        requests: load(&m.requests),
        chunks_served: load(&m.chunks_served),
        bytes_served: load(&m.bytes_served),
        fault_frames: load(&m.fault_frames),
        slow_peer_evictions: load(&m.slow_peer_evictions),
        budget_evictions: load(&m.budget_evictions),
        admission_rejections: load(&m.admission_rejections),
        ..ServiceSnapshot::default()
    }
    .with_row_totals()
}

/// Whether a read-side wire failure is a fired socket deadline (the
/// slow-peer signature) rather than a dead or hostile peer.
fn is_deadline(e: &WireError) -> bool {
    matches!(e, WireError::Io { kind: io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock, .. })
}

fn out_of_order() -> Response {
    Response::Err(Fault::BadRequest { reason: "request before Hello".to_owned() })
}

impl ChunkServer {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and
    /// serves on a background thread; the returned handle exposes the
    /// bound address, the service snapshot, the registry, and
    /// deterministic shutdown.
    pub fn spawn(self, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::clone(&self.metrics);
        let registry = Arc::clone(&self.registry);
        let join = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || self.serve(listener, &stop)
        });
        Ok(ServerHandle { addr, stop, metrics, registry, join })
    }
}

/// A running [`ChunkServer`] spawned on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
    registry: Arc<DocRegistry>,
    join: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound socket address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry being served (register, close or inspect tenants
    /// while the server runs).
    pub fn registry(&self) -> &Arc<DocRegistry> {
        &self.registry
    }

    /// The service-level roll-up: transport counters + registry rows +
    /// pool residency, in one consistent read.
    pub fn service_snapshot(&self) -> ServiceSnapshot {
        service_snapshot(&self.registry, &self.metrics)
    }

    /// Stops the accept loop (raising the flag, then waking the blocked
    /// `accept` with a throwaway loopback connection), disconnects every
    /// client, joins all connection threads, and returns the server's
    /// I/O outcome.
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::Release);
        // The wake-up connection: accepted, seen as a stop, dropped. If
        // the accept loop already exited (listener error), this fails —
        // harmlessly, since nothing is blocked anymore.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5));
        self.join.join().expect("server thread must not panic")
    }
}

// Scoped connection threads share `&ChunkServer` (compile-time check).
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<ChunkServer>();
    assert_sync::<DocRegistry>();
};
