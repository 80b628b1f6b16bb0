//! Networked dissemination front for the xsac pipeline: the paper's
//! deployment model (§2, Figure 2) as an actual client/server system.
//!
//! The paper's architecture *is* dissemination: a server — or any
//! untrusted third party — stores the encrypted, integrity-protected
//! document; clients pull ciphertext, decrypt, verify and enforce access
//! control **locally**, inside their own SOE. Everything below this
//! crate already speaks that shape ([`ChunkStore`](xsac_crypto::ChunkStore)
//! made the ciphertext fetch path fallible and backend-generic); this
//! crate adds the wire:
//!
//! * [`wire`] — a small length-prefixed binary protocol (a versioned
//!   `Hello` answered with the document's meta, batched `GetChunks`,
//!   typed fault frames) with a max-frame guard so a malicious peer can
//!   never force unbounded allocation;
//! * [`registry`] — [`DocRegistry`]: the multi-tenant routing table
//!   mapping doc-ids to served documents (resident or lazily opened
//!   file-backed, all drawing chunk residency from one shared
//!   [`WindowPool`](xsac_crypto::WindowPool) budget), with per-document
//!   counters that survive close/reopen cycles;
//! * [`server`] — [`ChunkServer`]: serves every document of a registry
//!   (in-memory or file-backed — disk → socket without materializing
//!   the document) to concurrent connections over a
//!   `std::thread::scope` accept loop, with admission control
//!   ([`ServerConfig::max_conns`] → typed `Busy` rejections) and a
//!   [`ServiceSnapshot`] roll-up, the one read path for its counters;
//! * [`client`] — [`connect`] + [`RemoteStore`]: a
//!   [`ChunkStore`](xsac_crypto::ChunkStore) over a
//!   connection, with a bounded client-side chunk cache (the same
//!   [`ChunkWindow`](xsac_crypto::ChunkWindow) as the file backend) and
//!   sequential read-ahead;
//! * [`meta`] — serialization of the
//!   [`DocMeta`](xsac_soe::DocMeta) dissemination payload the `Hello`
//!   reply carries.
//!
//! Because the session layer is store-generic, a complete TCSBR session —
//! skip-index navigation, 3DES decryption, MHT/digest verification,
//! access-control evaluation — runs client-side against a remote server
//! **with zero changes to the session code**; `tests/network_differential.rs`
//! (workspace root) pins byte-identical delivery logs and `AccessCost`
//! against the in-memory backend, and typed `SessionError::Store` /
//! `SessionError::Integrity` aborts for dead servers, truncated frames
//! and tampered ciphertext.
//!
//! # Resilience
//!
//! Real dissemination networks drop connections, stall, and duplicate
//! frames, so both ends carry an explicit failure policy:
//!
//! * the client retries **transient** transport failures — re-dial,
//!   replay the one-frame `Hello` handshake, verify the returned
//!   metadata is *byte-identical* to the one the session started with
//!   (any divergence is a typed, permanent
//!   [`IdentityChanged`](xsac_crypto::store::StoreError::IdentityChanged)
//!   — a session is never silently re-synced onto different
//!   dissemination material), then re-issue only the in-flight chunk
//!   batch, under bounded exponential backoff with deterministic
//!   seedable jitter ([`RetryConfig`]); everything is surfaced in
//!   [`RemoteStats`] (`reconnects`, `retried_chunks`, `backoff_ms`);
//! * the server arms every accepted socket with read/write deadlines
//!   and a per-connection frame budget ([`ServerConfig`]), evicting
//!   slow or greedy peers (counted in the [`ServiceSnapshot`]) instead of
//!   letting them pin connection threads;
//! * the `fault` module (test-only, behind the `fault-injection`
//!   feature for external harnesses — not part of normal builds, so not
//!   linkable here) is a chaos proxy used by
//!   `tests/network_faults.rs` to prove recoverable fault schedules
//!   yield byte-identical sessions and unrecoverable ones yield typed
//!   errors with no partial plaintext.

pub mod client;
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;
pub mod meta;
pub mod registry;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::{
    admin_close_doc, connect, fetch_stats, ClientConfig, ConnectError, RemoteStats, RemoteStore,
    RetryConfig,
};
#[cfg(any(test, feature = "fault-injection"))]
pub use fault::{FaultPlan, FaultTransport, NetFault};
pub use registry::{DocRegistry, DocRow, OpenError, RegistrySnapshot, ServedDoc};
pub use server::{ChunkServer, ServerConfig, ServerHandle, ServiceSnapshot};
pub use stats::{decode_snapshot, encode_snapshot, render_json, render_text, SNAPSHOT_VERSION};
pub use wire::{AdminOp, AdminReply, Fault, WireError, PROTOCOL_VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;
    use std::sync::Arc;
    use xsac_core::output::reassemble_to_string;
    use xsac_core::{Policy, Sign};
    use xsac_crypto::chunk::ChunkLayout;
    use xsac_crypto::store::StoreError;
    use xsac_crypto::{ChunkStore, IntegrityScheme, TripleDes};
    use xsac_soe::{run_session_shared, CompiledPolicy, ServerDoc, SessionConfig};

    fn key() -> TripleDes {
        TripleDes::new(*b"net-crate-test-key-24-ab")
    }

    fn tiny_layout() -> ChunkLayout {
        ChunkLayout { chunk_size: 256, fragment_size: 32 }
    }

    fn prepared(xml: &str, scheme: IntegrityScheme) -> ServerDoc {
        let doc = xsac_xml::Document::parse(xml).unwrap();
        ServerDoc::prepare(&doc, &key(), scheme, tiny_layout())
    }

    fn wide_xml() -> String {
        let mut xml = String::from("<a>");
        for i in 0..120 {
            xml.push_str(&format!("<r><k>keep number {i}</k><d>drop number {i}</d></r>"));
        }
        xml.push_str("</a>");
        xml
    }

    #[test]
    fn remote_session_equals_local_session() {
        let xml = wide_xml();
        let local = prepared(&xml, IntegrityScheme::EcbMht);
        let handle = ChunkServer::new(prepared(&xml, IntegrityScheme::EcbMht), "doc")
            .spawn("127.0.0.1:0")
            .unwrap();
        let remote = connect(handle.addr(), "doc", ClientConfig::default()).unwrap();

        let mut dict = local.dict.clone();
        let policy = Policy::parse("u", &[(Sign::Permit, "//k")], &mut dict).unwrap();
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let config = SessionConfig::default();
        let a = run_session_shared(&local, &key(), &compiled, None, &config, None).unwrap();
        let b = run_session_shared(&remote, &key(), &compiled, None, &config, None).unwrap();
        assert_eq!(a.log, b.log, "delivery log diverged across the wire");
        assert_eq!(a.cost, b.cost, "AccessCost diverged across the wire");
        assert_eq!(reassemble_to_string(&dict, &a.log), reassemble_to_string(&dict, &b.log));
        let stats = remote.protected.store.stats();
        assert!(stats.round_trips > 0 && stats.chunks_fetched > 0);
        let snap = handle.service_snapshot();
        assert_eq!(snap.chunks_served, stats.chunks_fetched);
        assert_eq!(snap.bytes_served, stats.wire_bytes);
        handle.shutdown().unwrap();
    }

    #[test]
    fn batching_cuts_round_trips_without_changing_results() {
        let xml = wide_xml();
        let handle = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc")
            .spawn("127.0.0.1:0")
            .unwrap();
        let mut results = Vec::new();
        let mut trips = Vec::new();
        for batch in [1usize, 4] {
            let remote = connect(
                handle.addr(),
                "doc",
                ClientConfig { batch_chunks: batch, ..ClientConfig::default() },
            )
            .unwrap();
            let mut buf = vec![0u8; remote.protected.ciphertext_len()];
            remote.protected.store.read_at(0, &mut buf).unwrap();
            results.push(buf);
            trips.push(remote.protected.store.stats().round_trips);
        }
        assert_eq!(results[0], results[1], "batching must not change the bytes");
        assert!(
            trips[1] * 2 <= trips[0],
            "batch=4 should need far fewer round trips: {} vs {}",
            trips[1],
            trips[0]
        );
        handle.shutdown().unwrap();
    }

    #[test]
    fn sequential_read_ahead_batches_a_scan() {
        let xml = wide_xml();
        let handle = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc")
            .spawn("127.0.0.1:0")
            .unwrap();
        let remote = connect(
            handle.addr(),
            "doc",
            ClientConfig { batch_chunks: 4, ..ClientConfig::default() },
        )
        .unwrap();
        let store = &remote.protected.store;
        let n_chunks = remote.protected.chunk_count();
        assert!(n_chunks >= 8, "need a multi-chunk document, got {n_chunks}");
        // Chunk-at-a-time sequential scan: after the first fetch, the
        // read-ahead keeps the scan at ~1 round trip per 4 chunks.
        let mut buf = vec![0u8; 8];
        for ci in 0..n_chunks {
            store.read_at(ci * 256, &mut buf).unwrap();
        }
        let stats = store.stats();
        assert!(
            stats.round_trips <= (n_chunks as u64).div_ceil(4) + 1,
            "sequential scan of {n_chunks} chunks took {} round trips",
            stats.round_trips
        );
        assert_eq!(stats.chunks_refetched, 0);
        handle.shutdown().unwrap();
    }

    #[test]
    fn handshake_rejections_are_typed() {
        let xml = "<a><b>x</b></a>";
        let handle = ChunkServer::new(prepared(xml, IntegrityScheme::Ecb), "right-id")
            .spawn("127.0.0.1:0")
            .unwrap();
        match connect(handle.addr(), "wrong-id", ClientConfig::default()) {
            Err(ConnectError::Rejected(Fault::UnknownDoc { requested })) => {
                assert_eq!(requested, "wrong-id")
            }
            Err(other) => panic!("expected UnknownDoc, got {other:?}"),
            Ok(_) => panic!("expected UnknownDoc, got a successful connect"),
        }
        // The server survives a rejected client and serves the next one.
        let ok = connect(handle.addr(), "right-id", ClientConfig::default()).unwrap();
        assert_eq!(ok.protected.ciphertext_len() % 8, 0);
        handle.shutdown().unwrap();
    }

    #[test]
    fn oversized_frame_announcement_is_refused_without_allocation() {
        // A rogue "server" announces a frame bigger than the client's
        // limit: the client must refuse with a typed error (before any
        // allocation — the length is checked first), not hang or abort.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let rogue = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Read the client's Hello frame, then announce u32::MAX bytes.
            let mut buf = Vec::new();
            wire::read_frame(&mut s, 1 << 20, &mut buf).unwrap();
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
            s.write_all(&[0u8; 16]).unwrap();
        });
        let Err(err) = connect(addr, "doc", ClientConfig::default()) else {
            panic!("connect to the rogue server must fail")
        };
        match err {
            ConnectError::Wire(WireError::FrameTooLarge { len, .. }) => {
                assert_eq!(len, u32::MAX as usize)
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        rogue.join().unwrap();
    }

    #[test]
    fn truncated_frame_is_typed_error() {
        // The "server" sends half a frame and closes: typed Truncated.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let rogue = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            wire::read_frame(&mut s, 1 << 20, &mut buf).unwrap();
            s.write_all(&100u32.to_le_bytes()).unwrap();
            s.write_all(&[0x81u8; 10]).unwrap(); // 10 of the promised 100
        });
        let Err(err) = connect(addr, "doc", ClientConfig::default()) else {
            panic!("connect to the rogue server must fail")
        };
        match err {
            ConnectError::Wire(WireError::Truncated { wanted: 100, got: 10 }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        rogue.join().unwrap();
    }

    #[test]
    fn server_gone_mid_reads_is_typed_store_error() {
        let xml = wide_xml();
        let handle = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc")
            .spawn("127.0.0.1:0")
            .unwrap();
        // Tiny window: every read past the cache needs the server.
        let remote = connect(
            handle.addr(),
            "doc",
            ClientConfig { window_bytes: 1, batch_chunks: 1, ..ClientConfig::default() },
        )
        .unwrap();
        let mut buf = [0u8; 8];
        remote.protected.store.read_at(0, &mut buf).unwrap();
        handle.shutdown().unwrap();
        let err = remote.protected.store.read_at(512, &mut buf).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "expected a typed I/O error, got {err:?}");
    }

    #[test]
    fn file_backed_server_disk_to_socket() {
        // Disk to socket: prepare_to_store_with_stats writes
        // ciphertext straight to disk; ChunkServer serves it through the
        // FileStore window; a remote client reads it back byte-exactly.
        let xml = wide_xml();
        let doc = xsac_xml::Document::parse(&xml).unwrap();
        let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, tiny_layout());
        let want = mem.protected.ciphertext().to_vec();
        let tmp = xsac_crypto::store::TempPath::new("net-disk-to-socket");
        let file = ServerDoc::prepare_to_store_with_stats(
            &doc,
            &key(),
            IntegrityScheme::EcbMht,
            tiny_layout(),
            tmp.path(),
            1024,
        )
        .unwrap()
        .0;
        let handle = ChunkServer::new(file, "doc").spawn("127.0.0.1:0").unwrap();
        let remote = connect(handle.addr(), "doc", ClientConfig::default()).unwrap();
        let mut got = vec![0u8; remote.protected.ciphertext_len()];
        remote.protected.store.read_at(0, &mut got).unwrap();
        assert_eq!(got, want, "disk → socket → client bytes diverged");
        handle.shutdown().unwrap();
    }

    #[test]
    fn dial_timeout_bounds_connect_to_unroutable_address() {
        // 10.255.255.1 is non-routable in this environment: without
        // connect_timeout the kernel's SYN retries would block for
        // minutes. The dial deadline turns it into a bounded, typed
        // failure. (Retries don't apply: connect() dials exactly once.)
        let config = ClientConfig {
            dial_timeout: std::time::Duration::from_millis(250),
            ..ClientConfig::default()
        };
        let start = std::time::Instant::now();
        let Err(err) = connect("10.255.255.1:9", "doc", config) else {
            panic!("connect to a non-routable address must fail")
        };
        let elapsed = start.elapsed();
        // A true blackhole fails the dial itself (Io); sandboxed CI
        // environments sometimes intercept the SYN and reset on first
        // write instead (Wire). Both are bounded, typed failures.
        assert!(
            matches!(err, ConnectError::Io(_) | ConnectError::Wire(_)),
            "expected a typed dial/transport failure, got {err:?}"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "dial to a non-routable address must fail within the deadline, took {elapsed:?}"
        );
    }

    #[test]
    fn frame_budget_eviction_is_transparent_to_a_retrying_client() {
        let xml = wide_xml();
        let local = prepared(&xml, IntegrityScheme::Ecb);
        let want = local.protected.ciphertext().to_vec();
        // A miserly budget: 6 request frames per connection (handshake
        // included), so a full-document scan must be evicted and
        // reconnect several times.
        let server = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc").with_config(
            server::ServerConfig { max_frames_per_conn: 6, ..server::ServerConfig::default() },
        );
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let remote = connect(
            handle.addr(),
            "doc",
            ClientConfig {
                batch_chunks: 1,
                retry: client::RetryConfig {
                    backoff_base: std::time::Duration::from_millis(1),
                    ..client::RetryConfig::default()
                },
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let mut got = vec![0u8; remote.protected.ciphertext_len()];
        remote.protected.store.read_at(0, &mut got).unwrap();
        assert_eq!(got, want, "bytes diverged across budget evictions");
        let stats = remote.protected.store.stats();
        assert!(stats.reconnects > 0, "a 6-frame budget must force reconnects: {stats:?}");
        assert!(
            handle.service_snapshot().budget_evictions >= stats.reconnects,
            "every reconnect here is a budget eviction"
        );
        handle.shutdown().unwrap();
    }

    #[test]
    fn slow_peer_is_evicted_on_read_deadline() {
        let xml = wide_xml();
        let server = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc").with_config(
            server::ServerConfig {
                read_timeout: Some(std::time::Duration::from_millis(50)),
                ..server::ServerConfig::default()
            },
        );
        let handle = server.spawn("127.0.0.1:0").unwrap();
        // A peer that connects and never speaks: the read deadline must
        // fire and free the connection thread.
        let mute = std::net::TcpStream::connect(handle.addr()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while handle.service_snapshot().slow_peer_evictions == 0 {
            assert!(std::time::Instant::now() < deadline, "slow peer never evicted");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        drop(mute);
        handle.shutdown().unwrap();
    }

    #[test]
    fn chaos_proxy_clean_passthrough_is_invisible() {
        let xml = wide_xml();
        let handle = ChunkServer::new(prepared(&xml, IntegrityScheme::EcbMht), "doc")
            .spawn("127.0.0.1:0")
            .unwrap();
        let direct = connect(handle.addr(), "doc", ClientConfig::default()).unwrap();
        let proxy = fault::FaultTransport::spawn(handle.addr()).unwrap();
        let proxied = connect(proxy.addr(), "doc", ClientConfig::default()).unwrap();
        let mut a = vec![0u8; direct.protected.ciphertext_len()];
        let mut b = vec![0u8; proxied.protected.ciphertext_len()];
        direct.protected.store.read_at(0, &mut a).unwrap();
        proxied.protected.store.read_at(0, &mut b).unwrap();
        assert_eq!(a, b, "a clean proxy must be invisible");
        assert_eq!(proxied.protected.store.stats().reconnects, 0);
        proxy.shutdown();
        handle.shutdown().unwrap();
    }

    #[test]
    fn dropped_connection_reconnects_and_resumes() {
        let xml = wide_xml();
        let local = prepared(&xml, IntegrityScheme::Ecb);
        let want = local.protected.ciphertext().to_vec();
        let handle = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc")
            .spawn("127.0.0.1:0")
            .unwrap();
        let proxy = fault::FaultTransport::spawn(handle.addr()).unwrap();
        // First connection dies 2 response frames in (the Hello reply
        // and one chunk batch: mid-scan); the replacement is clean.
        proxy.push_plan(fault::FaultPlan::faulty(fault::NetFault::DropAfter(2)));
        let remote = connect(
            proxy.addr(),
            "doc",
            ClientConfig {
                batch_chunks: 1,
                retry: client::RetryConfig {
                    backoff_base: std::time::Duration::from_millis(1),
                    ..client::RetryConfig::default()
                },
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let mut got = vec![0u8; remote.protected.ciphertext_len()];
        remote.protected.store.read_at(0, &mut got).unwrap();
        assert_eq!(got, want, "bytes diverged across a dropped connection");
        let stats = remote.protected.store.stats();
        assert_eq!(stats.reconnects, 1, "exactly one drop was scheduled: {stats:?}");
        assert!(stats.retried_chunks >= 1, "the in-flight batch must be re-issued: {stats:?}");
        proxy.shutdown();
        handle.shutdown().unwrap();
    }

    #[test]
    fn one_server_many_tenants_routes_by_doc_id() {
        // Three resident tenants behind one socket: the Hello doc-id
        // routes, an unknown id is a typed rejection, and the snapshot
        // attributes traffic per document.
        let registry = Arc::new(DocRegistry::new(1 << 16));
        let bodies = [
            ("alpha", "<a><b>alpha body</b><c>alpha tail</c></a>".to_owned()),
            ("beta", wide_xml()),
            ("gamma", "<a><b>gamma</b></a>".to_owned()),
        ];
        for (id, xml) in &bodies {
            registry.insert(*id, prepared(xml, IntegrityScheme::EcbMht));
        }
        let handle =
            ChunkServer::with_registry(Arc::clone(&registry)).spawn("127.0.0.1:0").unwrap();
        for (id, xml) in &bodies {
            let want = prepared(xml, IntegrityScheme::EcbMht).protected.ciphertext().to_vec();
            let remote = connect(handle.addr(), id, ClientConfig::default()).unwrap();
            let mut got = vec![0u8; remote.protected.ciphertext_len()];
            remote.protected.store.read_at(0, &mut got).unwrap();
            assert_eq!(got, want, "tenant {id} served the wrong bytes");
        }
        match connect(handle.addr(), "delta", ClientConfig::default()) {
            Err(ConnectError::Rejected(Fault::UnknownDoc { requested })) => {
                assert_eq!(requested, "delta")
            }
            Err(other) => panic!("expected UnknownDoc for an unregistered id, got {other:?}"),
            Ok(_) => panic!("an unregistered id must not connect"),
        }
        let snap = handle.service_snapshot();
        assert_eq!(snap.registry.unknown_doc_rejections, 1);
        assert_eq!(snap.registry.docs.len(), 3);
        for row in &snap.registry.docs {
            assert!(row.chunks_served > 0, "tenant {} served nothing: {row:?}", row.doc_id);
            assert!(!row.lazy && row.open);
        }
        let per_doc: u64 = snap.registry.docs.iter().map(|r| r.chunks_served).sum();
        assert_eq!(per_doc, snap.chunks_served, "per-doc rows must sum to the service total");
        handle.shutdown().unwrap();
    }

    #[test]
    fn re_hello_rebinds_a_connection_to_another_tenant() {
        // One connection, two tenants: a second Hello mid-conversation
        // switches the binding, and each GetChunks answers from the
        // document bound *at that moment*.
        let registry = Arc::new(DocRegistry::new(1 << 16));
        let xml_a = wide_xml();
        let xml_b = "<a><b>other tenant entirely</b><c>padding padding</c></a>";
        registry.insert("a", prepared(&xml_a, IntegrityScheme::Ecb));
        registry.insert("b", prepared(xml_b, IntegrityScheme::Ecb));
        let want_a = prepared(&xml_a, IntegrityScheme::Ecb);
        let want_b = prepared(xml_b, IntegrityScheme::Ecb);
        let handle =
            ChunkServer::with_registry(Arc::clone(&registry)).spawn("127.0.0.1:0").unwrap();

        let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
        // Nagle + delayed ACK would put each small frame on a ~40 ms
        // clock; the typed client sets this too.
        sock.set_nodelay(true).unwrap();
        let mut buf = Vec::new();
        let call = |req: &wire::Request,
                    sock: &mut std::net::TcpStream,
                    buf: &mut Vec<u8>|
         -> wire::Response {
            wire::write_frame(sock, &req.encode()).unwrap();
            wire::read_frame(sock, 1 << 20, buf).unwrap();
            wire::Response::decode(buf).unwrap()
        };
        let first_chunk = wire::Request::GetChunks { first: 0, count: 1 };
        for (id, want) in [("a", &want_a), ("b", &want_b), ("a", &want_a)] {
            let hello = wire::Request::Hello { version: PROTOCOL_VERSION, doc_id: id.to_owned() };
            match call(&hello, &mut sock, &mut buf) {
                wire::Response::Hello(bytes) => {
                    assert_eq!(bytes, meta::encode_meta(&want.meta()), "Hello for {id}")
                }
                other => panic!("expected Hello for {id}, got {other:?}"),
            }
            match call(&first_chunk, &mut sock, &mut buf) {
                wire::Response::Chunks(chunks) => {
                    let range = want.protected.chunk_range(0);
                    assert_eq!(chunks.len(), 1);
                    assert_eq!(chunks[0].0, 0);
                    assert_eq!(
                        chunks[0].1,
                        &want.protected.ciphertext()[range],
                        "chunk 0 after rebinding to {id} came from the wrong tenant"
                    );
                }
                other => panic!("expected Chunks from {id}, got {other:?}"),
            }
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn admission_cap_answers_typed_busy_and_recovers() {
        let xml = wide_xml();
        let server = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc")
            .with_config(server::ServerConfig { max_conns: 1, ..server::ServerConfig::default() });
        let handle = server.spawn("127.0.0.1:0").unwrap();
        // First client occupies the only slot.
        let held = connect(handle.addr(), "doc", ClientConfig::default()).unwrap();
        // Second is turned away with the typed, transient Busy fault —
        // no hang, no silent close.
        match connect(handle.addr(), "doc", ClientConfig::default()) {
            Err(ConnectError::Rejected(Fault::Busy { live, max })) => {
                assert_eq!((live, max), (1, 1))
            }
            Err(other) => panic!("expected Busy at the admission cap, got {other:?}"),
            Ok(_) => panic!("the admission cap must turn the second client away"),
        }
        assert!(handle.service_snapshot().admission_rejections >= 1);
        // Freeing the slot re-opens admission (poll: the handler notices
        // the closed peer asynchronously).
        drop(held);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match connect(handle.addr(), "doc", ClientConfig::default()) {
                Ok(_) => break,
                Err(ConnectError::Rejected(Fault::Busy { .. })) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "admission never recovered after the held connection closed"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(other) => panic!("expected recovery or Busy, got {other:?}"),
            }
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn lazy_file_tenants_share_one_budget_and_reopen_on_demand() {
        // Two file-backed tenants, a pool budget smaller than either
        // document, and an open cap of one: routing B closes A, routing
        // A again reopens it — all invisible to clients, all counted.
        let xml = wide_xml();
        let doc = xsac_xml::Document::parse(&xml).unwrap();
        let mut tmps = Vec::new();
        let registry = Arc::new(DocRegistry::new(512).with_max_open_docs(1));
        for id in ["a", "b"] {
            let tmp = xsac_crypto::store::TempPath::new("net-lazy-tenant");
            let file = ServerDoc::prepare_to_store_with_stats(
                &doc,
                &key(),
                IntegrityScheme::EcbMht,
                tiny_layout(),
                tmp.path(),
                1024,
            )
            .unwrap()
            .0;
            registry.insert_file(id, file.meta(), tmp.path());
            tmps.push(tmp);
        }
        let want = prepared(&xml, IntegrityScheme::EcbMht).protected.ciphertext().to_vec();
        assert!(want.len() > 512, "the budget must be smaller than one document");
        let handle =
            ChunkServer::with_registry(Arc::clone(&registry)).spawn("127.0.0.1:0").unwrap();
        for id in ["a", "b", "a"] {
            let remote = connect(handle.addr(), id, ClientConfig::default()).unwrap();
            let mut got = vec![0u8; remote.protected.ciphertext_len()];
            remote.protected.store.read_at(0, &mut got).unwrap();
            assert_eq!(got, want, "lazy tenant {id} served the wrong bytes");
        }
        let snap = handle.service_snapshot();
        assert!(snap.registry.doc_opens >= 3, "expected open,open,reopen: {snap:?}");
        assert!(snap.registry.doc_closes >= 2, "the open cap of 1 must close tenants: {snap:?}");
        assert!(
            snap.registry.resident_bytes_peak <= 512 + 256,
            "global budget violated: peak {} over budget 512 (+1 chunk)",
            snap.registry.resident_bytes_peak
        );
        assert!(snap.registry.pool_purged_chunks > 0, "closes must purge pooled chunks");
        let a_row = snap.registry.docs.iter().find(|r| r.doc_id == "a").unwrap();
        assert!(a_row.lazy && a_row.opens >= 2 && a_row.closes >= 1, "{a_row:?}");
        // Close/reopen churn reuses each tenant's pool ticket: two
        // tenants mean exactly two registrations no matter how often
        // the open cap cycles them, and the reopened tenant's fetches
        // meter as refetches (its ever-fetched bitmap survived).
        assert_eq!(
            registry.pool().registered_docs(),
            2,
            "reopen churn must not grow the pool's registration table"
        );
        assert!(
            snap.registry.pool_refetches > 0,
            "post-reopen fetches must count as refetches: {snap:?}"
        );
        handle.shutdown().unwrap();
    }

    /// Sends `req` as one frame on `sock` and reads back the response.
    fn call(sock: &mut std::net::TcpStream, req: &wire::Request) -> wire::Response {
        let mut buf = Vec::new();
        wire::write_frame(sock, &req.encode()).unwrap();
        wire::read_frame(sock, 1 << 20, &mut buf).unwrap();
        wire::Response::decode(&buf).unwrap()
    }

    #[test]
    fn old_protocol_hello_is_typed_fault_and_connection_survives() {
        let xml = wide_xml();
        let handle = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc")
            .spawn("127.0.0.1:0")
            .unwrap();
        let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
        let hello = |version| wire::Request::Hello { version, doc_id: "doc".to_owned() };
        assert_eq!(PROTOCOL_VERSION, 3);
        for old in [1, 2] {
            match call(&mut sock, &hello(old)) {
                wire::Response::Err(Fault::VersionMismatch { server: 3 }) => {}
                other => panic!("expected VersionMismatch {{ server: 3 }}, got {other:?}"),
            }
        }
        match call(&mut sock, &hello(PROTOCOL_VERSION)) {
            wire::Response::Hello(bytes) => {
                assert_eq!(bytes, meta::encode_meta(&prepared(&xml, IntegrityScheme::Ecb).meta()))
            }
            other => panic!("a correct Hello must succeed after a mismatch, got {other:?}"),
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn get_chunks_guards_draw_typed_faults_and_connection_survives() {
        let xml = wide_xml();
        let doc = prepared(&xml, IntegrityScheme::Ecb);
        let n = doc.protected.chunk_count() as u64;
        let handle = ChunkServer::new(doc, "doc").spawn("127.0.0.1:0").unwrap();
        let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        let hello = wire::Request::Hello { version: PROTOCOL_VERSION, doc_id: "doc".to_owned() };
        assert!(matches!(call(&mut sock, &hello), wire::Response::Hello(_)));
        let run = |first, count| wire::Request::GetChunks { first, count };
        for (first, count) in
            [(0, 0), (0, wire::MAX_CHUNKS_PER_REQUEST + 1), (n - 1, 2), (u64::MAX - 1, 4)]
        {
            match call(&mut sock, &run(first, count)) {
                wire::Response::Err(Fault::BadRequest { .. }) if count == 0 => {}
                wire::Response::Err(Fault::BadRequest { .. })
                    if count > wire::MAX_CHUNKS_PER_REQUEST => {}
                wire::Response::Err(Fault::OutOfBounds { .. })
                    if (1..=wire::MAX_CHUNKS_PER_REQUEST).contains(&count) => {}
                other => panic!("run {first}+{count}: expected a typed fault, got {other:?}"),
            }
            // The same connection serves a valid run right after.
            match call(&mut sock, &run(n - 1, 1)) {
                wire::Response::Chunks(chunks) => assert_eq!(chunks.len(), 1),
                other => panic!("valid run after {first}+{count} refused: {other:?}"),
            }
        }
        assert_eq!(handle.service_snapshot().fault_frames, 4);
        handle.shutdown().unwrap();
    }

    #[test]
    fn handshake_is_one_request_and_a_reconnect_adds_one() {
        let xml = wide_xml();
        let handle = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc")
            .spawn("127.0.0.1:0")
            .unwrap();
        let requests = |handle: &ServerHandle| {
            let snap = handle.service_snapshot();
            (snap.requests, snap.registry.docs[0].requests)
        };
        let config = ClientConfig {
            batch_chunks: 1,
            retry: client::RetryConfig {
                backoff_base: std::time::Duration::from_millis(1),
                ..client::RetryConfig::default()
            },
            ..ClientConfig::default()
        };
        let direct = connect(handle.addr(), "doc", config).unwrap();
        assert_eq!(requests(&handle), (1, 1), "connect is one Hello");
        drop(direct);
        // Through the proxy, the first connection forwards the Hello
        // reply and dies on the chunk response: the client reconnects
        // (one Hello) and re-issues its one-chunk batch.
        let proxy = fault::FaultTransport::spawn(handle.addr()).unwrap();
        proxy.push_plan(fault::FaultPlan::faulty(fault::NetFault::DropAfter(1)));
        let remote = connect(proxy.addr(), "doc", config).unwrap();
        assert_eq!(requests(&handle), (2, 2));
        let mut buf = [0u8; 8];
        remote.protected.store.read_at(0, &mut buf).unwrap();
        assert_eq!(remote.protected.store.stats().reconnects, 1);
        // Two GetChunks (the lost one and its replay) and one more Hello.
        assert_eq!(requests(&handle), (5, 5));
        proxy.shutdown();
        handle.shutdown().unwrap();
    }

    #[test]
    fn truncated_or_inconsistent_hello_meta_is_typed_malformed() {
        let good = meta::encode_meta(&prepared(&wide_xml(), IntegrityScheme::EcbMht).meta());
        let mut inconsistent = meta::decode_meta(&good).unwrap();
        inconsistent.ciphertext_len += 8;
        for payload in [good[..good.len() - 1].to_vec(), meta::encode_meta(&inconsistent)] {
            // A stub server answers the Hello with a bad meta.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stub = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                wire::read_frame(&mut s, 1 << 20, &mut buf).unwrap();
                wire::write_frame(&mut s, &wire::Response::Hello(payload).encode()).unwrap();
            });
            match connect(addr, "doc", ClientConfig::default()) {
                Err(ConnectError::Wire(WireError::Malformed(_))) => {}
                Err(other) => panic!("expected Wire(Malformed), got {other:?}"),
                Ok(_) => panic!("a bad meta must not connect"),
            }
            stub.join().unwrap();
        }
    }

    #[test]
    fn truncated_lazy_file_is_refused_at_open() {
        // A lazy tenant's file no longer matches its registered meta: the
        // open is refused with a permanent typed error, `Hello` answers a
        // fault frame, the tenant stays closed, and the connection still
        // routes to a healthy tenant.
        let doc = xsac_xml::Document::parse(&wide_xml()).unwrap();
        let registry = Arc::new(DocRegistry::new(1 << 20));
        let mut tmps = Vec::new();
        for id in ["cut", "whole"] {
            let tmp = xsac_crypto::store::TempPath::new("net-truncated");
            let layout = tiny_layout();
            let file = ServerDoc::prepare_to_store_with_stats(
                &doc,
                &key(),
                IntegrityScheme::EcbMht,
                layout,
                tmp.path(),
                1024,
            )
            .unwrap()
            .0;
            registry.insert_file(id, file.meta(), tmp.path());
            tmps.push(tmp);
        }
        let cut = std::fs::OpenOptions::new().write(true).open(tmps[0].path()).unwrap();
        cut.set_len(cut.metadata().unwrap().len() - 8).unwrap();
        match registry.open("cut") {
            Err(registry::OpenError::Store(e)) => assert!(!e.is_transient(), "{e}"),
            other => panic!("a truncated file must not open: {:?}", other.map(|_| ())),
        }
        let handle =
            ChunkServer::with_registry(Arc::clone(&registry)).spawn("127.0.0.1:0").unwrap();
        let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
        let hello =
            |id: &str| wire::Request::Hello { version: PROTOCOL_VERSION, doc_id: id.into() };
        match call(&mut sock, &hello("cut")) {
            wire::Response::Err(Fault::Io { msg, .. }) => assert!(msg.contains("meta"), "{msg}"),
            other => panic!("expected a typed I/O fault, got {other:?}"),
        }
        match call(&mut sock, &hello("whole")) {
            wire::Response::Hello(bytes) => {
                assert!(meta::decode_meta(&bytes).unwrap().ciphertext_len > 0)
            }
            other => panic!("the connection must still route, got {other:?}"),
        }
        let snap = handle.service_snapshot();
        let row = snap.registry.docs.iter().find(|r| r.doc_id == "cut").unwrap();
        assert_eq!(row.opens, 0, "the mismatched tenant must stay closed: {row:?}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn reinserting_over_an_open_lazy_tenant_closes_it_first() {
        // Re-registering an id whose lazy tenant is open is a close:
        // the old tenant's pooled residency is released immediately and
        // the close is counted — it must not squat on the budget until
        // LRU pressure happens to evict it.
        let xml = wide_xml();
        let doc = xsac_xml::Document::parse(&xml).unwrap();
        let registry = DocRegistry::new(1 << 20);
        let tmp = xsac_crypto::store::TempPath::new("net-reinsert");
        let file = ServerDoc::prepare_to_store_with_stats(
            &doc,
            &key(),
            IntegrityScheme::Ecb,
            tiny_layout(),
            tmp.path(),
            1024,
        )
        .unwrap()
        .0;
        registry.insert_file("doc", file.meta(), tmp.path());
        let served = registry.open("doc").unwrap();
        let mut before = vec![0u8; served.doc().protected.ciphertext_len()];
        served.doc().protected.store.read_at(0, &mut before).unwrap();
        assert!(registry.pool().meter().resident_bytes_now() > 0);
        registry.insert("doc", prepared(&xml, IntegrityScheme::Ecb));
        assert_eq!(
            registry.pool().meter().resident_bytes_now(),
            0,
            "replacing an open tenant must purge its pooled chunks"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.doc_closes, 1, "the replacement must be counted as a close: {snap:?}");
        // The displaced session keeps serving through its Arc.
        let mut after = vec![0u8; before.len()];
        served.doc().protected.store.read_at(0, &mut after).unwrap();
        assert_eq!(after, before);
    }

    #[test]
    fn trickling_rejected_peer_cannot_stall_shutdown() {
        // A peer turned away at the admission cap that trickles a byte
        // every ~100ms and never closes: the rejection drain is bounded
        // by a total deadline, so it cannot pin its scoped thread (and
        // with it ServerHandle::shutdown) indefinitely.
        let xml = wide_xml();
        let server = ChunkServer::new(prepared(&xml, IntegrityScheme::Ecb), "doc")
            .with_config(server::ServerConfig { max_conns: 1, ..server::ServerConfig::default() });
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let held = connect(handle.addr(), "doc", ClientConfig::default()).unwrap();
        let addr = handle.addr();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let trickler = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if s.write_all(&[0u8]).is_err() {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            }
        });
        // Let the accept loop route the trickler into a rejection.
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert!(handle.service_snapshot().admission_rejections >= 1);
        let t0 = std::time::Instant::now();
        drop(held);
        handle.shutdown().unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "shutdown stalled behind a trickling rejected peer"
        );
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        trickler.join().unwrap();
    }
}
