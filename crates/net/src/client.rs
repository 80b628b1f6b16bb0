//! The dissemination client: [`connect`] performs the handshake and
//! returns a [`ServerDoc`]`<`[`RemoteStore`]`>` — a document whose
//! ciphertext lives on the other end of a socket.
//!
//! [`RemoteStore`] implements [`ChunkStore`], so everything above it —
//! [`SoeReader`](xsac_crypto::SoeReader) decryption and MHT/digest
//! verification, skip-index navigation, access-control evaluation,
//! [`DocServer`](xsac_soe::DocServer) multi-session serving — runs
//! **unchanged** against a remote server: the paper's client-based
//! enforcement made literal, pinned byte-for-byte by
//! `tests/network_differential.rs` and `tests/network_faults.rs`.
//!
//! Fetches go through the same [`ChunkWindow`] as the file backend (one
//! caching/metering implementation, two transports) plus two
//! network-only tricks:
//!
//! * **request batching** — a read spanning many chunks asks for all of
//!   them in one `GetChunks` round trip;
//! * **read-ahead** — on a sequential access pattern (chunk `c` right
//!   after `c-1`) the client extends the fetch to the next
//!   [`batch_chunks`](ClientConfig::batch_chunks) chunks, so a scan pays
//!   one round trip per batch instead of per chunk.
//!
//! # Resilience
//!
//! The dissemination channel is the paper's *untrusted, unreliable*
//! party, so the client assumes it will misbehave:
//!
//! * every socket carries **deadlines** — a dial timeout
//!   ([`ClientConfig::dial_timeout`]) and per-read/per-write I/O
//!   timeouts ([`ClientConfig::io_timeout`]) — so a stalled server can
//!   never hang a session indefinitely;
//! * a **transient** transport failure (reset connection, timed-out
//!   read, peer gone between or inside a frame, a desynchronized
//!   response stream) triggers a bounded **reconnect**: the client
//!   re-dials, replays the `Hello`/`GetMeta` handshake, verifies the
//!   returned metadata is *byte-identical* to the one the session
//!   started with (a mismatch is a typed
//!   [`StoreError::IdentityChanged`] — never a silent re-sync onto
//!   different dissemination material), and re-issues only the
//!   in-flight `GetChunks` batch;
//! * retries are bounded ([`RetryConfig::max_retries`]) with
//!   exponential backoff and deterministic, seedable jitter, all
//!   surfaced in [`RemoteStats`] (`reconnects`, `retried_chunks`,
//!   `backoff_ms`);
//! * **permanent** failures — typed fault frames, protocol violations,
//!   changed identity — and exhausted retries collapse to the same
//!   typed [`StoreError`]s a local backend produces: a session over a
//!   dying server aborts as `SessionError::Store`, exactly like a
//!   session over a dying disk, with nothing partially delivered.

use crate::server::ServiceSnapshot;
use crate::wire::{
    self, AdminDocEntry, AdminOp, AdminReply, ChunkSpan, Fault, HelloInfo, Request, Response,
    WireError, DEFAULT_CLIENT_MAX_FRAME, PROTOCOL_VERSION,
};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use xsac_crypto::sha1::sha1;
use xsac_crypto::store::{ChunkStore, ChunkWindow, ResidencyMeter, StoreError};
use xsac_obs::{AtomicHistogram, Histogram, PhaseProfile, Tick};
use xsac_soe::ServerDoc;

/// Bounded-retry policy for transient transport failures, with
/// exponential backoff and deterministic, seedable jitter (tests pin
/// exact schedules by fixing [`jitter_seed`](RetryConfig::jitter_seed)).
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Reconnect-and-retry attempts per failed fetch before the failure
    /// is surfaced. 0 disables reconnection (the pre-resilience
    /// behaviour: first transport error kills the store).
    pub max_retries: u32,
    /// Backoff before the first retry; attempt `k` waits up to
    /// `backoff_base << (k-1)`, capped at
    /// [`backoff_max`](RetryConfig::backoff_max).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_max: Duration,
    /// Seed of the deterministic jitter PRNG (xorshift64). Each sleep is
    /// drawn from `[cap/2, cap]`, so two clients with different seeds
    /// desynchronize their retry storms.
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            max_retries: 4,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x5eed_cafe_f00d_d1ce,
        }
    }
}

/// Client-side configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Resident chunk-cache bound in bytes (the [`ChunkWindow`]).
    pub window_bytes: usize,
    /// Most chunks fetched per round trip (batching bound and
    /// sequential read-ahead depth). 1 disables read-ahead.
    pub batch_chunks: usize,
    /// Largest response frame accepted (allocation guard; must cover the
    /// document's `Meta` frame).
    pub max_frame: usize,
    /// TCP dial deadline ([`TcpStream::connect_timeout`]) for the
    /// initial connect and every reconnect — a non-routable server
    /// address fails in bounded time instead of the kernel's default.
    pub dial_timeout: Duration,
    /// Per-read/per-write socket deadline. `None` removes the deadline
    /// (not recommended: a stalled peer then blocks a fetch forever).
    pub io_timeout: Option<Duration>,
    /// Reconnect/retry policy for transient transport failures.
    pub retry: RetryConfig,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            window_bytes: 64 << 10,
            batch_chunks: 4,
            max_frame: DEFAULT_CLIENT_MAX_FRAME,
            dial_timeout: Duration::from_secs(10),
            io_timeout: Some(Duration::from_secs(30)),
            retry: RetryConfig::default(),
        }
    }
}

/// A failed [`connect`] handshake.
#[derive(Debug)]
pub enum ConnectError {
    /// The TCP connection could not be established.
    Io(io::Error),
    /// Framing or transport failure during the handshake.
    Wire(WireError),
    /// The server answered with a typed fault (unknown doc id, version
    /// mismatch, …).
    Rejected(Fault),
    /// The server's meta payload is inconsistent with its `Hello`
    /// announcement — a lying or confused server, refused up front.
    MetaMismatch(&'static str),
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::Io(e) => write!(f, "connect failed: {e}"),
            ConnectError::Wire(e) => write!(f, "handshake failed: {e}"),
            ConnectError::Rejected(fault) => write!(f, "server rejected the session: {fault}"),
            ConnectError::MetaMismatch(what) => {
                write!(f, "server meta inconsistent with its Hello: {what}")
            }
        }
    }
}

impl std::error::Error for ConnectError {}

impl From<io::Error> for ConnectError {
    fn from(e: io::Error) -> ConnectError {
        ConnectError::Io(e)
    }
}

impl From<WireError> for ConnectError {
    fn from(e: WireError) -> ConnectError {
        match e {
            WireError::Fault(fault) => ConnectError::Rejected(fault),
            other => ConnectError::Wire(other),
        }
    }
}

/// One connection to a [`ChunkServer`](crate::server::ChunkServer).
struct Conn {
    stream: TcpStream,
    /// Reusable response frame buffer.
    buf: Vec<u8>,
}

impl Conn {
    /// One request/response round trip.
    fn call(&mut self, req: &Request, max_frame: usize) -> Result<Response, WireError> {
        wire::write_frame(&mut self.stream, &req.encode())?;
        wire::read_frame(&mut self.stream, max_frame, &mut self.buf)?;
        Response::decode(&self.buf)
    }
}

/// The connection-and-retry state behind the store's lock: the live
/// connection (if any), the sequential-pattern tracker, and the jitter
/// PRNG.
struct ConnState {
    /// The live connection; `None` after a transport failure, until the
    /// next fetch re-dials.
    conn: Option<Conn>,
    /// Last chunk fetched, for sequential-pattern detection.
    last_fetched: Option<u64>,
    /// xorshift64 state for deterministic backoff jitter.
    rng: u64,
}

/// Remote chunk-fetch statistics (the network analogue of the
/// [`ResidencyMeter`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// `GetChunks` round trips.
    pub round_trips: u64,
    /// Chunks received over the wire.
    pub chunks_fetched: u64,
    /// Chunks fetched over the wire *again* after window eviction —
    /// round trips a larger window (or batch) would have saved.
    pub chunks_refetched: u64,
    /// Ciphertext payload bytes received.
    pub wire_bytes: u64,
    /// Successful reconnect handshakes after a transient transport
    /// failure.
    pub reconnects: u64,
    /// Chunks whose `GetChunks` batch was re-issued after a transport
    /// failure (the idempotent-resume replay volume).
    pub retried_chunks: u64,
    /// Total milliseconds slept in retry backoff.
    pub backoff_ms: u64,
    /// Wall time of each successful `GetChunks` round trip,
    /// log-bucketed nanoseconds (`p50()`/`p99()` are the percentile
    /// fields the network benchmarks stamp into their JSON rows).
    pub latency: Histogram,
}

/// A [`ChunkStore`] whose ciphertext lives on a remote
/// [`ChunkServer`](crate::server::ChunkServer): bounded reads become
/// batched `GetChunks` round trips through a local [`ChunkWindow`],
/// surviving transient transport failures by bounded reconnection (see
/// the [module docs](crate::client#resilience)).
pub struct RemoteStore {
    state: Mutex<ConnState>,
    window: ChunkWindow,
    doc_len: usize,
    chunk_count: u64,
    batch_chunks: usize,
    max_frame: usize,
    /// Resolved server addresses, kept for re-dialing.
    targets: Vec<SocketAddr>,
    doc_id: String,
    /// SHA-1 of the raw `GetMeta` payload from the session's first
    /// handshake. A reconnect whose meta hashes differently is refused
    /// typed-ly: the session must never continue onto different
    /// dissemination material. (The digest — not the payload — is kept,
    /// so a window-bounded client does not carry an O(document)
    /// allocation for its lifetime.)
    meta_sha1: [u8; 20],
    dial_timeout: Duration,
    io_timeout: Option<Duration>,
    retry: RetryConfig,
    round_trips: AtomicU64,
    wire_bytes: AtomicU64,
    reconnects: AtomicU64,
    retried_chunks: AtomicU64,
    backoff_nanos: AtomicU64,
    latency: AtomicHistogram,
}

impl RemoteStore {
    /// The cache window (fetch/refetch diagnostics).
    pub fn window(&self) -> &ChunkWindow {
        &self.window
    }

    /// Snapshot of the remote-fetch statistics.
    pub fn stats(&self) -> RemoteStats {
        RemoteStats {
            round_trips: self.round_trips.load(Ordering::Relaxed),
            chunks_fetched: self.window.chunk_fetches(),
            chunks_refetched: self.window.chunk_refetches(),
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            retried_chunks: self.retried_chunks.load(Ordering::Relaxed),
            backoff_ms: self.backoff_nanos.load(Ordering::Relaxed) / 1_000_000,
            latency: self.latency.snapshot(),
        }
    }

    /// Pushes a session's phase profile to the server, which merges it
    /// into the bound document's metrics (the `Report` frame) — how
    /// client-side decrypt/verify/evaluate time reaches the service's
    /// `Stats` roll-up. Best-effort telemetry: one reconnect attempt,
    /// no retry loop.
    pub fn report_profile(&self, profile: &PhaseProfile) -> Result<(), StoreError> {
        let mut state = self.state.lock().expect("remote connection state");
        if state.conn.is_none() {
            self.reconnect_locked(&mut state)?;
        }
        let req = Request::Report { phases: *profile };
        let res = state.conn.as_mut().expect("live connection").call(&req, self.max_frame);
        match res {
            Ok(Response::Report) => Ok(()),
            Ok(Response::Err(fault)) => Err(fault.into_store_error(0)),
            Ok(_) => {
                state.conn = None;
                Err(StoreError::Io {
                    offset: 0,
                    kind: io::ErrorKind::Other,
                    msg: "server answered Report with a different message".to_owned(),
                })
            }
            Err(e) => {
                state.conn = None;
                Err(wire_to_store(e, 0))
            }
        }
    }

    /// Re-dials the server and replays the `Hello`/`GetMeta` handshake.
    /// The returned metadata must hash identically to the session's
    /// original — on success the state holds a live connection again.
    fn reconnect_locked(&self, state: &mut ConnState) -> Result<(), StoreError> {
        let to_store = |e: ConnectError| -> StoreError {
            match e {
                ConnectError::Io(e) => {
                    StoreError::Io { offset: 0, kind: e.kind(), msg: format!("reconnect: {e}") }
                }
                ConnectError::Wire(w) => wire_to_store(w, 0),
                ConnectError::Rejected(fault) => fault.into_store_error(0),
                ConnectError::MetaMismatch(what) => StoreError::IdentityChanged {
                    what: format!("reconnect handshake inconsistent: {what}"),
                },
            }
        };
        let stream = dial(&self.targets, self.dial_timeout, self.io_timeout).map_err(to_store)?;
        let mut conn = Conn { stream, buf: Vec::new() };
        let (_, meta_bytes) =
            handshake(&mut conn, &self.doc_id, self.max_frame).map_err(to_store)?;
        if sha1(&meta_bytes) != self.meta_sha1 {
            return Err(StoreError::IdentityChanged {
                what: "document metadata returned by the reconnect handshake is not \
                       byte-identical to the metadata this session started with"
                    .to_owned(),
            });
        }
        // Drop the handshake-sized buffer before the steady state.
        conn.buf = Vec::new();
        state.conn = Some(conn);
        state.last_fetched = None;
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Sleeps the exponential-backoff-with-jitter delay for retry
    /// `attempt` (1-based) and meters it.
    fn backoff(&self, state: &mut ConnState, attempt: u32) {
        let shift = attempt.saturating_sub(1).min(20);
        let cap = self
            .retry
            .backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.retry.backoff_max)
            .as_nanos() as u64;
        if cap == 0 {
            return;
        }
        // xorshift64 — deterministic for a fixed seed, so fault-schedule
        // tests replay byte-identically.
        let mut x = state.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.rng = x;
        let sleep_ns = cap / 2 + x % (cap / 2 + 1);
        self.backoff_nanos.fetch_add(sleep_ns, Ordering::Relaxed);
        std::thread::sleep(Duration::from_nanos(sleep_ns));
    }

    /// Checks a `Chunks` response against the span that was requested:
    /// exactly the asked-for indices, in order, each exactly its stored
    /// length. Anything else is a desynchronized or lying peer — typed,
    /// and (bounded-)retriable over a fresh connection.
    fn validate_chunks(
        &self,
        need_ci: usize,
        want: u32,
        chunks: Vec<(u64, Vec<u8>)>,
        offset: usize,
    ) -> Result<Vec<(usize, Vec<u8>)>, StoreError> {
        let desync = |msg: String| StoreError::Io { offset, kind: io::ErrorKind::Other, msg };
        if chunks.len() != want as usize {
            return Err(desync(format!(
                "server answered a {want}-chunk request with {} chunks",
                chunks.len()
            )));
        }
        let mut out = Vec::with_capacity(chunks.len());
        for (k, (ci, bytes)) in chunks.into_iter().enumerate() {
            if ci != (need_ci + k) as u64 {
                return Err(desync(format!(
                    "server sent chunk {ci} where {} was requested",
                    need_ci + k
                )));
            }
            let ci = ci as usize;
            if ci >= self.chunk_count as usize || bytes.len() != self.window.chunk_len(ci) {
                return Err(desync(format!("server sent a mis-sized or out-of-range chunk {ci}")));
            }
            out.push((ci, bytes));
        }
        for (_, bytes) in &out {
            self.wire_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// Fetches the span starting at `need_ci` in one round trip: the
    /// rest of the current request (`req_last_ci`), extended to the full
    /// batch depth when the access pattern is sequential, clamped to the
    /// batch bound, the window capacity and the document end. Transient
    /// transport failures reconnect and re-issue the same batch (at most
    /// [`RetryConfig::max_retries`] times); in-protocol fault frames and
    /// permanent failures surface immediately.
    fn fetch_span(
        &self,
        need_ci: usize,
        req_last_ci: usize,
    ) -> Result<Vec<(usize, Vec<u8>)>, StoreError> {
        let offset = need_ci * self.window.chunk_size();
        let mut state = self.state.lock().expect("remote connection state");
        let sequential = need_ci > 0 && state.last_fetched == Some(need_ci as u64 - 1);
        let mut want = (req_last_ci - need_ci + 1).min(self.batch_chunks);
        if sequential {
            want = self.batch_chunks;
        }
        let window_cap = (self.window.window_bytes() / self.window.chunk_size()).max(1);
        let want =
            want.min(window_cap).min((self.chunk_count as usize).saturating_sub(need_ci)).max(1)
                as u32;
        let req =
            Request::GetChunks { spans: vec![ChunkSpan { first: need_ci as u64, count: want }] };

        let mut attempt: u32 = 0;
        // One more transient failure is absorbed per iteration until the
        // retry budget runs out; each re-issued batch is idempotent (the
        // store is immutable and identity-checked on reconnect).
        loop {
            if state.conn.is_none() {
                match self.reconnect_locked(&mut state) {
                    Ok(()) => {}
                    Err(e) if e.is_transient() && attempt < self.retry.max_retries => {
                        attempt += 1;
                        self.backoff(&mut state, attempt);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            let conn = state.conn.as_mut().expect("live connection");
            let t = Tick::now();
            let e: StoreError = match conn.call(&req, self.max_frame) {
                Ok(Response::Chunks(chunks)) => {
                    self.latency.record(t.elapsed_nanos());
                    match self.validate_chunks(need_ci, want, chunks, offset) {
                        Ok(out) => {
                            self.round_trips.fetch_add(1, Ordering::Relaxed);
                            state.last_fetched = Some(need_ci as u64 + want as u64 - 1);
                            return Ok(out);
                        }
                        // A desynchronized response stream poisons the
                        // connection; a fresh handshake re-synchronizes.
                        Err(e) => e,
                    }
                }
                // An in-protocol fault frame is an authoritative answer,
                // not a transport failure: no retry will change it.
                Ok(Response::Err(fault)) => return Err(fault.into_store_error(offset)),
                Ok(_) => StoreError::Io {
                    offset,
                    kind: io::ErrorKind::Other,
                    msg: "server answered GetChunks with a different message".to_owned(),
                },
                Err(e) => {
                    let transient = e.is_transient();
                    let mapped = wire_to_store(e, offset);
                    if !transient {
                        state.conn = None;
                        return Err(mapped);
                    }
                    mapped
                }
            };
            // Transient failure of an issued batch: drop the connection,
            // count the replay, back off, go around.
            state.conn = None;
            if attempt >= self.retry.max_retries {
                return Err(e);
            }
            attempt += 1;
            self.retried_chunks.fetch_add(want as u64, Ordering::Relaxed);
            self.backoff(&mut state, attempt);
        }
    }
}

impl ChunkStore for RemoteStore {
    fn len(&self) -> usize {
        self.doc_len
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        self.window.read_at(offset, buf, |ci, req_last| self.fetch_span(ci, req_last))
    }

    fn meter(&self) -> Option<&ResidencyMeter> {
        Some(self.window.meter())
    }
}

/// Maps a wire-level failure into the typed [`StoreError`] a local
/// backend would produce, so the read path upstream is transport-blind.
fn wire_to_store(e: WireError, offset: usize) -> StoreError {
    match e {
        WireError::Fault(fault) => fault.into_store_error(offset),
        WireError::Io { kind, msg } => StoreError::Io { offset, kind, msg },
        // Transient by the wire taxonomy — the mapped kind must stay
        // transient by the store taxonomy, or a retriable failure would
        // flip permanent across the layer boundary.
        e @ WireError::Closed => {
            StoreError::Io { offset, kind: io::ErrorKind::ConnectionAborted, msg: e.to_string() }
        }
        e @ WireError::Truncated { .. } => {
            StoreError::Io { offset, kind: io::ErrorKind::UnexpectedEof, msg: e.to_string() }
        }
        other => {
            StoreError::Io { offset, kind: io::ErrorKind::InvalidData, msg: other.to_string() }
        }
    }
}

/// Dials the first reachable target under the dial deadline and arms the
/// socket's I/O deadlines — no returned socket is ever deadline-free
/// unless explicitly configured so.
fn dial(
    targets: &[SocketAddr],
    dial_timeout: Duration,
    io_timeout: Option<Duration>,
) -> Result<TcpStream, ConnectError> {
    let mut last: Option<io::Error> = None;
    for addr in targets {
        match TcpStream::connect_timeout(addr, dial_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(io_timeout)?;
                stream.set_write_timeout(io_timeout)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(ConnectError::Io(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::AddrNotAvailable, "no server addresses to dial")
    })))
}

/// Replays the protocol opening on a fresh connection: `Hello` (version
/// and doc-id negotiation) then `GetMeta`. Returns the server's `Hello`
/// announcement and the *raw* meta payload (decoded and validated by the
/// caller; hashed for identity checks on reconnect).
fn handshake(
    conn: &mut Conn,
    doc_id: &str,
    max_frame: usize,
) -> Result<(HelloInfo, Vec<u8>), ConnectError> {
    let hello = Request::Hello { version: PROTOCOL_VERSION, doc_id: doc_id.to_owned() };
    let info: HelloInfo = match conn.call(&hello, max_frame)? {
        Response::Hello(info) => info,
        Response::Err(fault) => return Err(ConnectError::Rejected(fault)),
        _ => return Err(ConnectError::Wire(WireError::Unexpected("non-Hello reply to Hello"))),
    };
    if info.version != PROTOCOL_VERSION {
        return Err(ConnectError::Rejected(Fault::VersionMismatch { server: info.version }));
    }
    let meta_bytes = match conn.call(&Request::GetMeta, max_frame)? {
        Response::Meta(bytes) => bytes,
        Response::Err(fault) => return Err(ConnectError::Rejected(fault)),
        _ => return Err(ConnectError::Wire(WireError::Unexpected("non-Meta reply to GetMeta"))),
    };
    Ok((info, meta_bytes))
}

/// Connects to a [`ChunkServer`](crate::server::ChunkServer), negotiates
/// the protocol, pulls the document metadata, and assembles a servable
/// [`ServerDoc`] over a [`RemoteStore`] — ready for
/// [`run_session_shared`](xsac_soe::run_session_shared) or a client-side
/// [`DocServer`](xsac_soe::DocServer), unchanged.
pub fn connect(
    addr: impl ToSocketAddrs,
    doc_id: &str,
    config: ClientConfig,
) -> Result<ServerDoc<RemoteStore>, ConnectError> {
    let targets: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let stream = dial(&targets, config.dial_timeout, config.io_timeout)?;
    let mut conn = Conn { stream, buf: Vec::new() };

    let (info, meta_bytes) = handshake(&mut conn, doc_id, config.max_frame)?;
    let meta_sha1 = sha1(&meta_bytes);
    let meta = crate::meta::decode_meta(&meta_bytes)?;
    drop(meta_bytes);

    // The meta must agree with the Hello announcement — both came from
    // the same (untrusted) server, so this catches confusion, not
    // malice; malice is caught by the integrity layer during reads.
    if meta.scheme != info.scheme {
        return Err(ConnectError::MetaMismatch("integrity scheme"));
    }
    if meta.layout.chunk_size != info.chunk_size as usize
        || meta.layout.fragment_size != info.fragment_size as usize
    {
        return Err(ConnectError::MetaMismatch("chunk geometry"));
    }
    if meta.ciphertext_len != info.ciphertext_len as usize {
        return Err(ConnectError::MetaMismatch("ciphertext length"));
    }
    let chunk_count = meta.ciphertext_len.div_ceil(meta.layout.chunk_size);
    if chunk_count != info.chunk_count as usize {
        return Err(ConnectError::MetaMismatch("chunk count"));
    }
    if meta.scheme.tamper_resistant() && meta.digests.len() != chunk_count {
        return Err(ConnectError::MetaMismatch("digest table length"));
    }

    // The frame buffer just held the meta payload (proportional to the
    // document); drop that capacity before the steady state, where
    // frames are at most a batch of chunks — a window-bounded client
    // must not carry a handshake-sized allocation for its lifetime.
    conn.buf = Vec::new();

    let store = RemoteStore {
        state: Mutex::new(ConnState {
            conn: Some(conn),
            last_fetched: None,
            // xorshift64 needs a non-zero state.
            rng: config.retry.jitter_seed | 1,
        }),
        window: ChunkWindow::new(meta.ciphertext_len, meta.layout.chunk_size, config.window_bytes),
        doc_len: meta.ciphertext_len,
        chunk_count: chunk_count as u64,
        batch_chunks: config.batch_chunks.max(1),
        max_frame: config.max_frame,
        targets,
        doc_id: doc_id.to_owned(),
        meta_sha1,
        dial_timeout: config.dial_timeout,
        io_timeout: config.io_timeout,
        retry: config.retry,
        round_trips: AtomicU64::new(0),
        wire_bytes: AtomicU64::new(0),
        reconnects: AtomicU64::new(0),
        retried_chunks: AtomicU64::new(0),
        backoff_nanos: AtomicU64::new(0),
        latency: AtomicHistogram::new(),
    };
    Ok(ServerDoc::from_meta(meta, store))
}

/// Dials the server and performs exactly one request/response exchange
/// with no `Hello` — the shape of the read-only `Stats` and the gated
/// `Admin` frames, neither of which binds a document.
fn one_shot(
    addr: impl ToSocketAddrs,
    config: &ClientConfig,
    req: &Request,
) -> Result<Response, ConnectError> {
    let targets: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let stream = dial(&targets, config.dial_timeout, config.io_timeout)?;
    let mut conn = Conn { stream, buf: Vec::new() };
    match conn.call(req, config.max_frame)? {
        Response::Err(fault) => Err(ConnectError::Rejected(fault)),
        resp => Ok(resp),
    }
}

/// Fetches the service-wide telemetry snapshot over the wire: one
/// `Stats` round trip, decoded by [`crate::stats::decode_snapshot`].
/// Needs no `Hello` — `Stats` is read-only and always answered.
pub fn fetch_stats(
    addr: impl ToSocketAddrs,
    config: &ClientConfig,
) -> Result<ServiceSnapshot, ConnectError> {
    match one_shot(addr, config, &Request::Stats)? {
        Response::Stats(bytes) => Ok(crate::stats::decode_snapshot(&bytes)?),
        _ => Err(ConnectError::Wire(WireError::Unexpected("non-Stats reply to Stats"))),
    }
}

/// Lists the documents the service is routing (`Admin(ListDocs)`).
/// Rejected with [`Fault::AdminDisabled`] unless the server was started
/// with [`ServerConfig::admin`](crate::server::ServerConfig::admin).
pub fn admin_list_docs(
    addr: impl ToSocketAddrs,
    config: &ClientConfig,
) -> Result<Vec<AdminDocEntry>, ConnectError> {
    match one_shot(addr, config, &Request::Admin(AdminOp::ListDocs))? {
        Response::Admin(AdminReply::Docs(docs)) => Ok(docs),
        _ => Err(ConnectError::Wire(WireError::Unexpected("non-Docs reply to ListDocs"))),
    }
}

/// Asks the service to drop a document's server instance
/// (`Admin(CloseDoc)`); returns whether an open instance was torn down.
/// Subject to the same [`ServerConfig::admin`](crate::server::ServerConfig::admin) gate.
pub fn admin_close_doc(
    addr: impl ToSocketAddrs,
    doc_id: &str,
    config: &ClientConfig,
) -> Result<bool, ConnectError> {
    let req = Request::Admin(AdminOp::CloseDoc { doc_id: doc_id.to_owned() });
    match one_shot(addr, config, &req)? {
        Response::Admin(AdminReply::Closed { closed }) => Ok(closed),
        _ => Err(ConnectError::Wire(WireError::Unexpected("non-Closed reply to CloseDoc"))),
    }
}

// Remote documents are served concurrently by a client-side `DocServer`
// (compile-time check).
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<RemoteStore>();
};
