//! A deterministic chaos proxy for network-fault testing.
//!
//! [`FaultTransport`] sits between a `RemoteStore` client and a
//! `ChunkServer` (both in `xsac-net`) on loopback and injects faults
//! **per connection** according to a scripted [`FaultPlan`] queue:
//! dropped connections after N frames, mid-frame truncation, duplicated
//! frames, fixed per-frame delay, and full stalls. The
//! `tests/network_faults.rs` differential harness uses it to prove that
//! every *recoverable* schedule yields a session byte-identical to the
//! in-memory oracle, and every *unrecoverable* one yields the right
//! typed error with no partial plaintext.
//!
//! The proxy is frame-aware in the server→client direction (faults are
//! specified in frames, the protocol's natural unit) and a raw byte
//! pump client→server. The backend address is retargetable mid-flight
//! ([`FaultTransport::set_backend`]) so harnesses can kill a server and
//! restart it on a fresh port — loopback `TcpListener::bind` to a
//! just-closed port would otherwise trip over `TIME_WAIT`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The terminal fault a proxied connection suffers, counted in
/// server→client frames (0-based where an index is given).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Clean passthrough: the connection behaves perfectly.
    None,
    /// Forward `n` response frames, then reset the connection — the
    /// client sees a dead socket mid-conversation.
    DropAfter(u32),
    /// Forward `n` response frames, then ship only the first half of
    /// frame `n` and reset — the client sees a short read inside a
    /// frame body.
    TruncateAfter(u32),
    /// Forward everything, but send response frame `n` twice — the
    /// client's response stream desynchronizes from its requests.
    DuplicateAt(u32),
    /// Stop forwarding responses entirely (requests still flow): the
    /// client blocks until its read deadline fires.
    Stall,
}

/// One connection's scripted behaviour: an optional fixed delay before
/// every forwarded response frame (degraded-link simulation), plus a
/// terminal [`NetFault`].
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Injected latency per response frame.
    pub delay_each: Option<Duration>,
    /// The fault this connection eventually suffers.
    pub fault: NetFault,
}

impl FaultPlan {
    /// A connection that behaves perfectly.
    pub fn clean() -> FaultPlan {
        FaultPlan { delay_each: None, fault: NetFault::None }
    }

    /// A clean connection with fixed per-frame latency.
    pub fn delayed(delay: Duration) -> FaultPlan {
        FaultPlan { delay_each: Some(delay), fault: NetFault::None }
    }

    /// A connection that suffers `fault` with no added latency.
    pub fn faulty(fault: NetFault) -> FaultPlan {
        FaultPlan { delay_each: None, fault }
    }
}

struct Shared {
    backend: Mutex<SocketAddr>,
    /// Scripts for upcoming connections, popped front on accept; an
    /// empty queue means [`FaultPlan::clean`].
    plans: Mutex<VecDeque<FaultPlan>>,
    stop: AtomicBool,
    accepted: AtomicU64,
    /// Live proxied socket pairs `(client_side, server_side)`, kept so
    /// shutdown can sever them; stale entries are harmless (shutdown on
    /// a dead fd errors quietly).
    socks: Mutex<Vec<(TcpStream, TcpStream)>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// The chaos proxy: listens on an ephemeral loopback port and forwards
/// each accepted connection to the current backend under the next
/// queued [`FaultPlan`].
pub struct FaultTransport {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_join: JoinHandle<()>,
}

impl FaultTransport {
    /// Binds an ephemeral loopback port and starts proxying to
    /// `backend`.
    pub fn spawn(backend: SocketAddr) -> io::Result<FaultTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend: Mutex::new(backend),
            plans: Mutex::new(VecDeque::new()),
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            socks: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept_join = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || accept_loop(&listener, &shared)
        });
        Ok(FaultTransport { addr, shared, accept_join })
    }

    /// The proxy's listening address — point `connect()` here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queues the script for the next accepted connection (FIFO; an
    /// empty queue yields clean passthrough).
    pub fn push_plan(&self, plan: FaultPlan) {
        self.shared.plans.lock().expect("plan queue").push_back(plan);
    }

    /// Retargets *future* connections to a different backend — the
    /// "server died, another one took over" scenario. Live connections
    /// keep their original backend.
    pub fn set_backend(&self, backend: SocketAddr) {
        *self.shared.backend.lock().expect("backend addr") = backend;
    }

    /// Connections accepted so far (the client's observable reconnect
    /// count from the network's point of view).
    pub fn conn_count(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Stops accepting, severs all connections, joins every pump
    /// thread. Deterministic: after this returns no proxy thread is
    /// running.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocked accept; ignore failure (listener may already
        // be gone).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5));
        self.accept_join.join().expect("proxy accept thread must not panic");
        // Only now is the socket list final: sever everything, then
        // join the pumps.
        for (c, s) in self.shared.socks.lock().expect("socket list").drain(..) {
            let _ = c.shutdown(Shutdown::Both);
            let _ = s.shutdown(Shutdown::Both);
        }
        for pump in self.shared.pumps.lock().expect("pump list").drain(..) {
            pump.join().expect("proxy pump thread must not panic");
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if shared.stop.load(Ordering::Acquire) {
            return; // the shutdown wake-up connection
        }
        let backend = *shared.backend.lock().expect("backend addr");
        let server = match TcpStream::connect_timeout(&backend, Duration::from_secs(5)) {
            Ok(s) => s,
            // Backend down: drop the client socket, which is exactly
            // the refused/reset failure the client must handle.
            Err(_) => continue,
        };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let plan =
            shared.plans.lock().expect("plan queue").pop_front().unwrap_or(FaultPlan::clean());
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        shared
            .socks
            .lock()
            .expect("socket list")
            .push((client.try_clone().expect("clone"), server.try_clone().expect("clone")));
        let mut pumps = shared.pumps.lock().expect("pump list");
        pumps.push(std::thread::spawn(move || pump_raw(client, s2)));
        pumps.push(std::thread::spawn(move || pump_frames(server, c2, plan)));
    }
}

/// Client→server: a plain byte pump. On exit it severs *both* sockets
/// so the frame pump (possibly blocked in a read, e.g. under
/// [`NetFault::Stall`]) is guaranteed to unblock — and vice versa.
fn pump_raw(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Server→client: frame-aware forwarding under `plan`.
fn pump_frames(mut from: TcpStream, mut to: TcpStream, plan: FaultPlan) {
    let mut index: u32 = 0;
    let mut body = Vec::new();
    while let Ok(true) = read_raw_frame(&mut from, &mut body) {
        if let Some(delay) = plan.delay_each {
            std::thread::sleep(delay);
        }
        let forwarded = match plan.fault {
            NetFault::None => forward(&mut to, &body, false),
            NetFault::DropAfter(n) => {
                if index >= n {
                    break; // reset before forwarding frame n
                }
                forward(&mut to, &body, false)
            }
            NetFault::TruncateAfter(n) => {
                if index >= n {
                    // Honest header, half the body, then reset: the
                    // client's frame read dies mid-body.
                    let len = (body.len() as u32).to_le_bytes();
                    let half = &body[..body.len() / 2];
                    let _ = to.write_all(&len).and_then(|()| to.write_all(half));
                    break;
                }
                forward(&mut to, &body, false)
            }
            NetFault::DuplicateAt(n) => forward(&mut to, &body, index == n),
            NetFault::Stall => {
                // Swallow this and every later response. The pump keeps
                // *reading* so the backend never blocks; it exits when
                // either socket is severed (client deadline firing drops
                // the connection → raw pump sees EOF → severs us).
                true
            }
        };
        if !forwarded {
            break;
        }
        index += 1;
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

fn forward(to: &mut TcpStream, body: &[u8], duplicate: bool) -> bool {
    let len = (body.len() as u32).to_le_bytes();
    let times = if duplicate { 2 } else { 1 };
    for _ in 0..times {
        if to.write_all(&len).and_then(|()| to.write_all(body)).is_err() {
            return false;
        }
    }
    true
}

/// Reads one `[len: u32 LE][body]` frame. `Ok(false)` is clean EOF at a
/// frame boundary. The proxy trusts the peer it fronts, but still caps
/// the allocation so a scrambled stream cannot OOM the test process.
fn read_raw_frame(r: &mut TcpStream, body: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > (256 << 20) {
        return Err(io::ErrorKind::InvalidData.into());
    }
    body.clear();
    body.resize(len, 0);
    r.read_exact(body)?;
    Ok(true)
}
