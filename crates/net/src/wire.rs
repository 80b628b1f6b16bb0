//! The dissemination wire protocol: length-prefixed binary frames with
//! typed request/response messages.
//!
//! Every frame is `[len: u32 LE][body]` where `body` starts with a
//! one-byte message tag. Both peers read frames through
//! [`read_frame`], which enforces a **maximum frame length** before any
//! allocation happens — a malicious peer can state an absurd length but
//! can never make the other side reserve memory for it — and reports a
//! connection that dies mid-frame as a typed [`WireError::Truncated`],
//! never a panic or a hang on garbage.
//!
//! The protocol is versioned ([`PROTOCOL_VERSION`], negotiated by
//! [`Request::Hello`]) and deliberately small — the interactions of the
//! dissemination model plus an observability/management surface:
//!
//! | request | response | paper role |
//! |---|---|---|
//! | `Hello` | `Hello` | doc id + version negotiation, answered with the Figure-2 material: the encoded [`DocMeta`](xsac_soe::DocMeta) (dictionary, scheme, geometry, digest table) |
//! | `GetChunks` | `Chunks` | batched ciphertext fetch — one round trip, one run of chunks |
//! | `Stats` | `Stats` | the serialized [`ServiceSnapshot`](crate::ServiceSnapshot) |
//! | `Admin` | `Admin` | close a tenant (off unless [`ServerConfig::admin`](crate::ServerConfig) is set) |
//! | `Report` | `Report` | client pushes its session's phase profile to the bound doc |
//! | — | `Err` | typed faults mirroring [`StoreError`] |
//!
//! Responses carry storage faults as structured [`Fault`] frames so the
//! client can surface them as the *same* typed [`StoreError`]s a local
//! backend produces: the session layer cannot tell a flaky disk from a
//! flaky network, and aborts identically on both.

use std::fmt;
use std::io::{self, Read, Write};
use xsac_crypto::store::StoreError;
use xsac_obs::{Phase, PhaseProfile};

/// Protocol version spoken by this build (negotiated in `Hello`).
/// Version 2 dropped the encoding byte from the meta payload; version 3
/// made the `Hello` reply carry the meta, retiring `GetMeta`, and made
/// `GetChunks` ask for one run of chunks.
pub const PROTOCOL_VERSION: u16 = 3;

/// Default maximum frame a client accepts (must cover the `Hello` reply,
/// which carries the meta of the largest document it expects to open).
pub const DEFAULT_CLIENT_MAX_FRAME: usize = 64 << 20;

/// Maximum frame a server accepts — requests are tiny, so the bound is
/// a tight hostile-peer allocation guard.
pub const DEFAULT_SERVER_MAX_FRAME: usize = 64 << 10;

/// Most chunks one `GetChunks` run may ask for.
pub const MAX_CHUNKS_PER_REQUEST: u32 = 256;

/// A wire-level failure: transport I/O, framing violations, or a typed
/// fault frame sent by the peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Transport I/O failure (connection reset, refused, …).
    Io {
        /// The underlying [`io::ErrorKind`].
        kind: io::ErrorKind,
        /// Human-readable detail.
        msg: String,
    },
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The connection died (or the peer stopped) mid-frame.
    Truncated {
        /// Bytes the frame header promised.
        wanted: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The peer announced a frame longer than this side accepts. The
    /// frame is rejected *before* any allocation.
    FrameTooLarge {
        /// Announced length.
        len: usize,
        /// This side's limit.
        max: usize,
    },
    /// The frame's body does not parse as a message.
    Malformed(&'static str),
    /// A structurally valid message that is not the one expected here
    /// (e.g. a `Chunks` response to a `Hello`).
    Unexpected(&'static str),
    /// A typed fault frame sent by the peer.
    Fault(Fault),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io { kind, msg } => write!(f, "wire I/O error ({kind:?}): {msg}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Truncated { wanted, got } => {
                write!(f, "truncated frame: header promised {wanted} bytes, got {got}")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "peer announced a {len}-byte frame, limit is {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Unexpected(what) => write!(f, "unexpected message: {what}"),
            WireError::Fault(fault) => write!(f, "peer fault: {fault}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Whether this failure is a **transport** hiccup a fresh connection
    /// could survive (reset/timed-out I/O, a peer gone between or inside
    /// a frame) rather than a **protocol** answer or violation
    /// (fault frames, malformed/unexpected/oversized messages), which
    /// re-asking can never change. The client's reconnect loop retries
    /// exactly the transient class.
    pub fn is_transient(&self) -> bool {
        match self {
            WireError::Closed | WireError::Truncated { .. } => true,
            WireError::Io { kind, .. } => !matches!(
                kind,
                io::ErrorKind::InvalidData
                    | io::ErrorKind::InvalidInput
                    | io::ErrorKind::Unsupported
            ),
            WireError::FrameTooLarge { .. }
            | WireError::Malformed(_)
            | WireError::Unexpected(_)
            | WireError::Fault(_) => false,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io { kind: e.kind(), msg: e.to_string() }
    }
}

/// A typed fault frame: storage errors crossing the wire (mirroring
/// [`StoreError`] field for field) plus the protocol-level rejections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// [`StoreError::OutOfBounds`] on the server.
    OutOfBounds {
        /// Requested start offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Server-side stored length.
        doc_len: u64,
    },
    /// [`StoreError::ShortRead`] on the server.
    ShortRead {
        /// Requested start offset.
        offset: u64,
        /// Bytes requested.
        wanted: u64,
        /// Bytes available.
        got: u64,
    },
    /// [`StoreError::Io`] on the server (kind flattened into the text —
    /// the client re-raises it as [`io::ErrorKind::Other`]).
    Io {
        /// Offset of the failed read.
        offset: u64,
        /// Human-readable detail.
        msg: String,
    },
    /// The requested document id is not served here.
    UnknownDoc {
        /// The id the client asked for.
        requested: String,
    },
    /// The peers speak different protocol versions.
    VersionMismatch {
        /// The server's version.
        server: u16,
    },
    /// The server is at its connection-admission cap and refused this
    /// connection before serving it. Transient by construction: the
    /// client's reconnect loop retries it with backoff, exactly like a
    /// reset socket.
    Busy {
        /// Live connections when the rejection was issued.
        live: u64,
        /// The server's [`max_conns`](crate::server::ServerConfig::max_conns) cap.
        max: u64,
    },
    /// A structurally valid request the server refuses (out-of-protocol
    /// ordering, over-long batch, …).
    BadRequest {
        /// Human-readable reason.
        reason: String,
    },
    /// An [`Request::Admin`] frame reached a server whose
    /// [`admin`](crate::server::ServerConfig::admin) surface is off
    /// (the default). Permanent: re-asking cannot enable it.
    AdminDisabled,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::OutOfBounds { offset, len, doc_len } => {
                write!(f, "read of {len} bytes at {offset} outside stored length {doc_len}")
            }
            Fault::ShortRead { offset, wanted, got } => {
                write!(f, "short read at {offset}: wanted {wanted}, got {got}")
            }
            Fault::Io { offset, msg } => write!(f, "server storage I/O error at {offset}: {msg}"),
            Fault::UnknownDoc { requested } => write!(f, "unknown document id {requested:?}"),
            Fault::VersionMismatch { server } => {
                write!(f, "server speaks protocol version {server}, client {PROTOCOL_VERSION}")
            }
            Fault::Busy { live, max } => {
                write!(f, "server at its admission cap ({live} live connections, cap {max})")
            }
            Fault::BadRequest { reason } => write!(f, "bad request: {reason}"),
            Fault::AdminDisabled => write!(f, "the server's admin surface is disabled"),
        }
    }
}

impl Fault {
    /// Wraps a server-side storage error for the wire.
    pub fn from_store(e: &StoreError) -> Fault {
        match e {
            StoreError::OutOfBounds { offset, len, doc_len } => Fault::OutOfBounds {
                offset: *offset as u64,
                len: *len as u64,
                doc_len: *doc_len as u64,
            },
            StoreError::ShortRead { offset, wanted, got } => Fault::ShortRead {
                offset: *offset as u64,
                wanted: *wanted as u64,
                got: *got as u64,
            },
            StoreError::Io { offset, kind, msg } => {
                Fault::Io { offset: *offset as u64, msg: format!("{kind:?}: {msg}") }
            }
            // Client-side only (a reconnecting store refusing changed
            // metadata); a server never produces it, but the mapping
            // must stay total.
            StoreError::IdentityChanged { what } => {
                Fault::Io { offset: 0, msg: format!("store identity changed: {what}") }
            }
        }
    }

    /// Re-raises a fault as the typed [`StoreError`] a local backend
    /// would have produced, so the read path upstream cannot tell the
    /// difference. Protocol-level faults become I/O errors at `offset`.
    pub fn into_store_error(self, offset: usize) -> StoreError {
        match self {
            Fault::OutOfBounds { offset, len, doc_len } => StoreError::OutOfBounds {
                offset: offset as usize,
                len: len as usize,
                doc_len: doc_len as usize,
            },
            Fault::ShortRead { offset, wanted, got } => StoreError::ShortRead {
                offset: offset as usize,
                wanted: wanted as usize,
                got: got as usize,
            },
            Fault::Io { offset, msg } => {
                StoreError::Io { offset: offset as usize, kind: io::ErrorKind::Other, msg }
            }
            // An admission rejection is a *transient* condition by the
            // store taxonomy (WouldBlock): the client's bounded
            // reconnect loop backs off and retries instead of aborting
            // the session.
            busy @ Fault::Busy { .. } => {
                StoreError::Io { offset, kind: io::ErrorKind::WouldBlock, msg: busy.to_string() }
            }
            // The remaining protocol rejections (unknown doc, version
            // mismatch, bad request) are authoritative answers:
            // permanent by the store taxonomy, so no retry loop wastes
            // its budget re-asking the same question.
            other => {
                StoreError::Io { offset, kind: io::ErrorKind::InvalidInput, msg: other.to_string() }
            }
        }
    }
}

/// One management operation in a [`Request::Admin`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminOp {
    /// Closes a lazy tenant's residency now (see
    /// [`DocRegistry::close`](crate::DocRegistry::close)).
    CloseDoc {
        /// The document to close.
        doc_id: String,
    },
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens the conversation: protocol version + requested document,
    /// answered with the document's encoded meta.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Which published document the client wants.
        doc_id: String,
    },
    /// Batched ciphertext fetch: one run of consecutive chunks, one
    /// round trip.
    GetChunks {
        /// First chunk index.
        first: u64,
        /// Number of consecutive chunks (1 to [`MAX_CHUNKS_PER_REQUEST`]).
        count: u32,
    },
    /// Requests the server's
    /// [`ServiceSnapshot`](crate::ServiceSnapshot) — counters, per-doc
    /// rows, phase totals and latency histograms. Needs no `Hello`: the
    /// snapshot is service-wide, not per-document.
    Stats,
    /// A management operation, honoured only when the server's
    /// [`admin`](crate::server::ServerConfig::admin) surface is on
    /// (answered with [`Fault::AdminDisabled`] otherwise).
    Admin(AdminOp),
    /// Pushes the client session's phase profile to the server, where it
    /// is merged into the **bound** document's metrics (requires a prior
    /// `Hello`). Access control runs inside the client's SOE, so
    /// decrypt/verify/evaluate time exists only client-side; this frame
    /// is how it reaches the server's `Stats` roll-up.
    Report {
        /// Per-phase nanoseconds, indexed like [`Phase::ALL`].
        phases: PhaseProfile,
    },
}

/// The successful answer to a [`Request::Admin`] operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminReply {
    /// Whether `CloseDoc` found anything open to close.
    Closed {
        /// `true` iff an open lazy tenant was closed.
        closed: bool,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Successful handshake: the bound document's serialized metadata
    /// (decoded by [`meta`](crate::meta)).
    Hello(Vec<u8>),
    /// Fetched chunks: `(chunk index, ciphertext bytes)` per chunk, in
    /// request order.
    Chunks(Vec<(u64, Vec<u8>)>),
    /// The serialized [`ServiceSnapshot`](crate::ServiceSnapshot)
    /// (decoded by [`stats`](crate::stats)).
    Stats(Vec<u8>),
    /// A successful admin operation.
    Admin(AdminReply),
    /// Acknowledges a [`Request::Report`].
    Report,
    /// A typed fault.
    Err(Fault),
}

// ---- message tags ----
// (0x02/0x82 stay unassigned: a version-2 peer's `GetMeta`/`Meta`
// must parse as an unknown tag, never as another message.)
const REQ_HELLO: u8 = 0x01;
const REQ_GET_CHUNKS: u8 = 0x03;
const REQ_STATS: u8 = 0x04;
const REQ_ADMIN: u8 = 0x05;
const REQ_REPORT: u8 = 0x06;
const RESP_HELLO: u8 = 0x81;
const RESP_CHUNKS: u8 = 0x83;
const RESP_STATS: u8 = 0x84;
const RESP_ADMIN: u8 = 0x85;
const RESP_REPORT: u8 = 0x86;
const RESP_ERR: u8 = 0xFF;

// ---- admin op codes ----
// (0 was a document listing, retired: the `Stats` frame carries every
// doc id with its open/lazy state.)
const ADMIN_CLOSE_DOC: u8 = 1;

// ---- fault codes ----
const FAULT_OOB: u8 = 1;
const FAULT_SHORT: u8 = 2;
const FAULT_IO: u8 = 3;
const FAULT_UNKNOWN_DOC: u8 = 16;
const FAULT_VERSION: u8 = 17;
const FAULT_BAD_REQUEST: u8 = 18;
const FAULT_BUSY: u8 = 19;
const FAULT_ADMIN: u8 = 20;

/// Writes one frame: length prefix + body.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len()).expect("frame fits u32");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame body into `buf` (reused across frames). Rejects
/// frames longer than `max_frame` before allocating, and distinguishes a
/// clean close between frames ([`WireError::Closed`]) from a connection
/// dying mid-frame ([`WireError::Truncated`]).
pub fn read_frame(r: &mut impl Read, max_frame: usize, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let mut prefix = [0u8; 4];
    read_exact_or(r, &mut prefix, true)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Err(WireError::Malformed("empty frame"));
    }
    if len > max_frame {
        return Err(WireError::FrameTooLarge { len, max: max_frame });
    }
    buf.clear();
    buf.resize(len, 0);
    read_exact_or(r, buf, false)
}

/// `read_exact` with typed errors: EOF at byte 0 of the length prefix is
/// a clean close, anywhere else a truncation.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], start_of_frame: bool) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if start_of_frame && filled == 0 {
                    Err(WireError::Closed)
                } else {
                    Err(WireError::Truncated { wanted: buf.len(), got: filled })
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

// ---- little put/get primitives ----

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over a frame body — every under-run is a
/// typed [`WireError::Malformed`], never a slice panic.
pub(crate) struct Cursor<'a> {
    b: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Cursor<'a> {
        Cursor { b }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        let (&v, rest) = self.b.split_first().ok_or(WireError::Malformed("missing u8"))?;
        self.b = rest;
        Ok(v)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, "missing u16")?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, "missing u32")?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, "missing u64")?.try_into().expect("8")))
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.b.len() < n {
            return Err(WireError::Malformed(what));
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Ok(head)
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n, "string body")?)
            .map_err(|_| WireError::Malformed("string not UTF-8"))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n, "byte-string body")
    }

    pub(crate) fn finish(self, what: &'static str) -> Result<(), WireError> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed(what))
        }
    }
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, u32::try_from(b.len()).expect("bytes fit u32"));
    out.extend_from_slice(b);
}

impl Request {
    /// Serializes the request into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version, doc_id } => {
                out.push(REQ_HELLO);
                put_u16(&mut out, *version);
                put_str(&mut out, doc_id);
            }
            Request::GetChunks { first, count } => {
                out.push(REQ_GET_CHUNKS);
                put_u64(&mut out, *first);
                put_u32(&mut out, *count);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Admin(op) => {
                out.push(REQ_ADMIN);
                let AdminOp::CloseDoc { doc_id } = op;
                out.push(ADMIN_CLOSE_DOC);
                put_str(&mut out, doc_id);
            }
            Request::Report { phases } => {
                out.push(REQ_REPORT);
                put_profile(&mut out, phases);
            }
        }
        out
    }

    /// Parses a frame body as a request.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            REQ_HELLO => {
                let version = c.u16()?;
                let doc_id = c.str()?.to_owned();
                Request::Hello { version, doc_id }
            }
            REQ_GET_CHUNKS => Request::GetChunks { first: c.u64()?, count: c.u32()? },
            REQ_STATS => Request::Stats,
            REQ_ADMIN => match c.u8()? {
                ADMIN_CLOSE_DOC => {
                    Request::Admin(AdminOp::CloseDoc { doc_id: c.str()?.to_owned() })
                }
                _ => return Err(WireError::Malformed("unknown admin op")),
            },
            REQ_REPORT => Request::Report { phases: get_profile(&mut c)? },
            _ => return Err(WireError::Malformed("unknown request tag")),
        };
        c.finish("trailing request bytes")?;
        Ok(req)
    }
}

/// Encodes a phase profile: a phase-count byte, then one u64 of
/// nanoseconds per phase in [`Phase::ALL`] order. The explicit count
/// keeps the layout self-describing if phases are ever added.
pub(crate) fn put_profile(out: &mut Vec<u8>, p: &PhaseProfile) {
    out.push(Phase::COUNT as u8);
    for &nanos in p.nanos() {
        put_u64(out, nanos);
    }
}

/// Decodes a [`put_profile`] phase profile, refusing a count this build
/// does not know (a peer speaking a different phase set must surface as
/// a typed error, not silently misattributed time).
pub(crate) fn get_profile(c: &mut Cursor<'_>) -> Result<PhaseProfile, WireError> {
    if c.u8()? as usize != Phase::COUNT {
        return Err(WireError::Malformed("unknown phase count"));
    }
    let mut nanos = [0u64; Phase::COUNT];
    for slot in &mut nanos {
        *slot = c.u64()?;
    }
    Ok(PhaseProfile::from_nanos(nanos))
}

impl Response {
    /// Serializes the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Hello(meta) => {
                out.push(RESP_HELLO);
                out.extend_from_slice(meta);
            }
            Response::Chunks(chunks) => {
                // Tag, count, then an index and a length before each chunk.
                out.reserve(3 + chunks.iter().map(|(_, b)| 12 + b.len()).sum::<usize>());
                out.push(RESP_CHUNKS);
                put_u16(&mut out, u16::try_from(chunks.len()).expect("chunk count fits u16"));
                for (ci, bytes) in chunks {
                    put_u64(&mut out, *ci);
                    put_bytes(&mut out, bytes);
                }
            }
            Response::Stats(bytes) => {
                out.push(RESP_STATS);
                out.extend_from_slice(bytes);
            }
            Response::Admin(reply) => {
                out.push(RESP_ADMIN);
                let AdminReply::Closed { closed } = reply;
                out.push(ADMIN_CLOSE_DOC);
                out.push(*closed as u8);
            }
            Response::Report => out.push(RESP_REPORT),
            Response::Err(fault) => {
                out.push(RESP_ERR);
                let (code, a, b, c, msg): (u8, u64, u64, u64, &str) = match fault {
                    Fault::OutOfBounds { offset, len, doc_len } => {
                        (FAULT_OOB, *offset, *len, *doc_len, "")
                    }
                    Fault::ShortRead { offset, wanted, got } => {
                        (FAULT_SHORT, *offset, *wanted, *got, "")
                    }
                    Fault::Io { offset, msg } => (FAULT_IO, *offset, 0, 0, msg.as_str()),
                    Fault::UnknownDoc { requested } => {
                        (FAULT_UNKNOWN_DOC, 0, 0, 0, requested.as_str())
                    }
                    Fault::VersionMismatch { server } => (FAULT_VERSION, *server as u64, 0, 0, ""),
                    Fault::Busy { live, max } => (FAULT_BUSY, *live, *max, 0, ""),
                    Fault::BadRequest { reason } => (FAULT_BAD_REQUEST, 0, 0, 0, reason.as_str()),
                    Fault::AdminDisabled => (FAULT_ADMIN, 0, 0, 0, ""),
                };
                out.push(code);
                put_u64(&mut out, a);
                put_u64(&mut out, b);
                put_u64(&mut out, c);
                put_str(&mut out, msg);
            }
        }
        out
    }

    /// Parses a frame body as a response.
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            RESP_HELLO => {
                // The meta payload is opaque at this layer; `meta`
                // decodes it.
                let rest = c.take(body.len() - 1, "meta body")?;
                return Ok(Response::Hello(rest.to_vec()));
            }
            RESP_CHUNKS => {
                let n = c.u16()? as usize;
                let mut chunks = Vec::with_capacity(n);
                for _ in 0..n {
                    let ci = c.u64()?;
                    chunks.push((ci, c.bytes()?.to_vec()));
                }
                Response::Chunks(chunks)
            }
            RESP_STATS => {
                // Like the meta, the snapshot payload is opaque here; the
                // `stats` module decodes (and version-checks) it.
                let rest = c.take(body.len() - 1, "stats body")?;
                return Ok(Response::Stats(rest.to_vec()));
            }
            RESP_ADMIN => match c.u8()? {
                ADMIN_CLOSE_DOC => Response::Admin(AdminReply::Closed { closed: c.u8()? != 0 }),
                _ => return Err(WireError::Malformed("unknown admin reply")),
            },
            RESP_REPORT => Response::Report,
            RESP_ERR => {
                let code = c.u8()?;
                let (a, b, cc) = (c.u64()?, c.u64()?, c.u64()?);
                let msg = c.str()?.to_owned();
                let fault = match code {
                    FAULT_OOB => Fault::OutOfBounds { offset: a, len: b, doc_len: cc },
                    FAULT_SHORT => Fault::ShortRead { offset: a, wanted: b, got: cc },
                    FAULT_IO => Fault::Io { offset: a, msg },
                    FAULT_UNKNOWN_DOC => Fault::UnknownDoc { requested: msg },
                    FAULT_VERSION => Fault::VersionMismatch {
                        server: u16::try_from(a)
                            .map_err(|_| WireError::Malformed("version out of range"))?,
                    },
                    FAULT_BUSY => Fault::Busy { live: a, max: b },
                    FAULT_BAD_REQUEST => Fault::BadRequest { reason: msg },
                    FAULT_ADMIN => Fault::AdminDisabled,
                    _ => return Err(WireError::Malformed("unknown fault code")),
                };
                Response::Err(fault)
            }
            _ => return Err(WireError::Malformed("unknown response tag")),
        };
        c.finish("trailing response bytes")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Hello { version: PROTOCOL_VERSION, doc_id: "hospital".to_owned() },
            Request::GetChunks { first: 1000, count: 4 },
            Request::Stats,
            Request::Admin(AdminOp::CloseDoc { doc_id: "cold-tenant".to_owned() }),
            Request::Report { phases: PhaseProfile::from_nanos([7, 6, 5, 4, 3, 2, 1]) },
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn report_with_unknown_phase_count_is_malformed() {
        let mut body = Request::Report { phases: PhaseProfile::new() }.encode();
        body[1] = Phase::COUNT as u8 + 1;
        assert!(matches!(Request::decode(&body), Err(WireError::Malformed(_))));
        body[1] = 0;
        assert!(matches!(Request::decode(&body), Err(WireError::Malformed(_))));
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Hello(vec![1, 2, 3]),
            Response::Chunks(vec![(0, vec![9u8; 16]), (7, vec![1u8; 8])]),
            Response::Err(Fault::OutOfBounds { offset: 10, len: 20, doc_len: 15 }),
            Response::Err(Fault::ShortRead { offset: 1, wanted: 2, got: 0 }),
            Response::Err(Fault::Io { offset: 3, msg: "disk on fire".to_owned() }),
            Response::Err(Fault::UnknownDoc { requested: "nope".to_owned() }),
            Response::Err(Fault::VersionMismatch { server: 2 }),
            Response::Err(Fault::Busy { live: 1024, max: 1024 }),
            Response::Err(Fault::BadRequest { reason: "batch too long".to_owned() }),
            Response::Err(Fault::AdminDisabled),
            Response::Stats(vec![1, 9, 9, 4]),
            Response::Admin(AdminReply::Closed { closed: true }),
            Response::Report,
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn frame_roundtrip_and_guards() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello frame").unwrap();
        let mut buf = Vec::new();
        let mut r = &wire[..];
        read_frame(&mut r, 1024, &mut buf).unwrap();
        assert_eq!(buf, b"hello frame");
        // Clean close between frames.
        assert_eq!(read_frame(&mut r, 1024, &mut buf), Err(WireError::Closed));
        // Truncated mid-frame.
        let mut r = &wire[..wire.len() - 3];
        assert!(matches!(read_frame(&mut r, 1024, &mut buf), Err(WireError::Truncated { .. })));
        // Over-long announcement rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &huge[..];
        assert_eq!(
            read_frame(&mut r, 1024, &mut buf),
            Err(WireError::FrameTooLarge { len: u32::MAX as usize, max: 1024 })
        );
        // Zero-length frames are malformed, not an infinite loop.
        let mut r = &0u32.to_le_bytes()[..];
        assert!(matches!(read_frame(&mut r, 1024, &mut buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        assert!(matches!(Request::decode(&[]), Err(WireError::Malformed(_))));
        assert!(matches!(Request::decode(&[0x42]), Err(WireError::Malformed(_))));
        assert!(matches!(Response::decode(&[RESP_CHUNKS, 1]), Err(WireError::Malformed(_))));
        // The retired document-listing admin op (0) is an unknown op.
        assert!(matches!(Request::decode(&[REQ_ADMIN, 0]), Err(WireError::Malformed(_))));
        // A string length pointing past the body must not panic.
        let mut evil = vec![REQ_HELLO, 0, 0];
        evil.extend_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(Request::decode(&evil), Err(WireError::Malformed(_))));
        // Trailing garbage is rejected.
        let mut ok = Request::Stats.encode();
        ok.push(0);
        assert!(matches!(Request::decode(&ok), Err(WireError::Malformed(_))));
        // The retired `GetMeta` tag (0x02) is an unknown request.
        assert!(matches!(Request::decode(&[0x02]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn fault_store_error_mapping_roundtrips() {
        let errs = [
            StoreError::OutOfBounds { offset: 1, len: 2, doc_len: 3 },
            StoreError::ShortRead { offset: 4, wanted: 5, got: 6 },
        ];
        for e in errs {
            assert_eq!(Fault::from_store(&e).into_store_error(0), e);
        }
        // Io keeps offset and message, flattening the kind into the text.
        let io = StoreError::Io {
            offset: 9,
            kind: io::ErrorKind::UnexpectedEof,
            msg: "gone".to_owned(),
        };
        match Fault::from_store(&io).into_store_error(0) {
            StoreError::Io { offset: 9, msg, .. } => assert!(msg.contains("gone")),
            other => panic!("{other:?}"),
        }
        // Admission rejections must stay transient across the mapping,
        // or a full server would permanently kill retrying sessions.
        let busy = Fault::Busy { live: 9, max: 8 }.into_store_error(0);
        assert!(busy.is_transient(), "Busy must map transient: {busy:?}");
        // …while protocol rejections stay permanent.
        let unknown = Fault::UnknownDoc { requested: "x".to_owned() }.into_store_error(0);
        assert!(!unknown.is_transient(), "UnknownDoc must map permanent: {unknown:?}");
    }
}
