//! Property tests for multi-tenant routing: the `Hello` doc-id
//! negotiation must be **total and typed** over arbitrary identifier
//! byte strings (route, or reject with the right typed fault — never
//! hang, panic, or mis-route), and tenants must be perfectly isolated:
//! a connection bound to document A never receives a chunk, meta
//! payload or digest belonging to document B, pinned by SHA-1 over
//! every delivered span.
//!
//! Everything here speaks the raw wire protocol (hand-built frames over
//! a plain `TcpStream`), so hostile inputs the typed client could never
//! emit — non-UTF-8 doc-ids, interleaved re-Hellos — are exercised
//! against the real server loop.

use proptest::prelude::*;
use std::net::TcpStream;
use std::sync::Arc;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{sha1, IntegrityScheme, TripleDes};
use xsac::net::wire::{self, Request, Response};
use xsac::net::{ChunkServer, DocRegistry, Fault, ServerHandle, PROTOCOL_VERSION};
use xsac::soe::ServerDoc;
use xsac::xml::Document;

const MAX_FRAME: usize = 1 << 20;

fn key() -> TripleDes {
    TripleDes::new(*b"mt-property-key-24-abcde")
}

fn tiny_layout() -> ChunkLayout {
    ChunkLayout { chunk_size: 256, fragment_size: 32 }
}

fn tenant_xml(i: usize) -> String {
    let mut xml = String::from("<a>");
    for k in 0..30 {
        xml.push_str(&format!("<r><k>tenant {i} keep {k}</k><d>tenant {i} drop {k}</d></r>"));
    }
    xml.push_str("</a>");
    xml
}

const TENANT_IDS: &[&str] = &["tenant-a", "tenant-b"];

/// Two resident tenants with distinct content, plus each tenant's
/// expected ciphertext, chunk hashes and meta payload. Document
/// preparation (debug-mode 3DES) dominates per-case cost, so the
/// registry is built once and shared; each case spawns its own (cheap)
/// server over it.
struct Fixture {
    registry: Arc<DocRegistry>,
    docs: Vec<ServerDoc>,
    chunk_sha1: Vec<Vec<[u8; 20]>>,
    meta_bytes: Vec<Vec<u8>>,
}

struct LiveFixture {
    fx: &'static Fixture,
    handle: ServerHandle,
}

impl std::ops::Deref for LiveFixture {
    type Target = Fixture;
    fn deref(&self) -> &Fixture {
        self.fx
    }
}

fn fixture() -> LiveFixture {
    static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    let fx = FIXTURE.get_or_init(|| {
        let registry = Arc::new(DocRegistry::new(1 << 16));
        let mut docs = Vec::new();
        let mut chunk_sha1 = Vec::new();
        let mut meta_bytes = Vec::new();
        for (i, id) in TENANT_IDS.iter().enumerate() {
            let doc = Document::parse(&tenant_xml(i)).unwrap();
            let scheme = if i % 2 == 0 { IntegrityScheme::EcbMht } else { IntegrityScheme::Ecb };
            let prepared = ServerDoc::prepare(&doc, &key(), scheme, tiny_layout());
            registry.insert(*id, ServerDoc::prepare(&doc, &key(), scheme, tiny_layout()));
            let hashes: Vec<[u8; 20]> = (0..prepared.protected.chunk_count())
                .map(|ci| {
                    sha1(&prepared.protected.ciphertext()[prepared.protected.chunk_range(ci)])
                })
                .collect();
            meta_bytes.push(xsac::net::meta::encode_meta(&prepared.meta()));
            chunk_sha1.push(hashes);
            docs.push(prepared);
        }
        Fixture { registry, docs, chunk_sha1, meta_bytes }
    });
    let handle =
        ChunkServer::with_registry(Arc::clone(&fx.registry)).spawn("127.0.0.1:0").expect("spawn");
    LiveFixture { fx, handle }
}

/// Connects a raw protocol socket. `TCP_NODELAY` matters: these tests
/// issue many small back-to-back request frames, and Nagle + delayed
/// ACK would serialize each one onto a ~40 ms clock.
fn raw_socket(fx: &LiveFixture) -> TcpStream {
    let sock = TcpStream::connect(fx.handle.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock
}

fn call(sock: &mut TcpStream, req: &Request) -> Response {
    let mut buf = Vec::new();
    wire::write_frame(sock, &req.encode()).expect("write frame");
    wire::read_frame(sock, MAX_FRAME, &mut buf).expect("read frame");
    Response::decode(&buf).expect("decode response")
}

fn raw_call(sock: &mut TcpStream, body: &[u8]) -> Response {
    let mut buf = Vec::new();
    wire::write_frame(sock, body).expect("write frame");
    wire::read_frame(sock, MAX_FRAME, &mut buf).expect("read frame");
    Response::decode(&buf).expect("decode response")
}

/// Doc-ids stressing the router: registered ids, near-misses, and
/// arbitrary strings over a hostile alphabet (the shim's `.` class
/// includes quotes, controls, non-ASCII and more).
fn arb_doc_id() -> impl Strategy<Value = String> {
    prop_oneof![
        2 => proptest::sample::select(TENANT_IDS).prop_map(|s| s.to_string()),
        1 => proptest::sample::select(&["tenant-c", "TENANT-A", "tenant-a ", "", "hospital"])
            .prop_map(|s| s.to_string()),
        3 => proptest::string::string_regex(".{0,12}").unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// Routing is total and typed: every doc-id string either routes to
    /// its registered tenant (Hello carrying that tenant's meta)
    /// or draws `Fault::UnknownDoc` echoing the requested id — on a
    /// connection that stays usable for a correct retry.
    #[test]
    fn hello_routing_is_total_and_typed(ids in prop::collection::vec(arb_doc_id(), 1..5)) {
        let fx = fixture();
        let mut sock = raw_socket(&fx);
        for id in &ids {
            let hello = Request::Hello { version: PROTOCOL_VERSION, doc_id: id.clone() };
            match (TENANT_IDS.iter().position(|t| t == id), call(&mut sock, &hello)) {
                (Some(i), Response::Hello(bytes)) => {
                    prop_assert_eq!(
                        &bytes, &fx.meta_bytes[i],
                        "doc id {:?} routed to the wrong tenant", id
                    );
                }
                (None, Response::Err(Fault::UnknownDoc { requested })) => {
                    prop_assert_eq!(&requested, id, "rejection must echo the requested id");
                }
                (expected, got) => {
                    return Err(TestCaseError::fail(format!(
                        "doc id {id:?} (registered: {}): got {got:?}",
                        expected.is_some()
                    )));
                }
            }
        }
        // The connection survives any rejection mix: a registered Hello
        // still succeeds afterwards.
        match call(&mut sock, &Request::Hello {
            version: PROTOCOL_VERSION,
            doc_id: TENANT_IDS[0].to_string(),
        }) {
            Response::Hello(_) => {}
            other => return Err(TestCaseError::fail(format!(
                "connection unusable after rejections: {other:?}"
            ))),
        }
        fx.handle.shutdown().unwrap();
    }

    /// A `Hello` whose doc-id bytes are not UTF-8 is a typed
    /// `BadRequest` — the decode failure never kills the server or the
    /// connection.
    #[test]
    fn non_utf8_doc_id_is_typed_bad_request(prefix in prop::collection::vec(any::<u8>(), 0..8)) {
        let fx = fixture();
        let mut sock = raw_socket(&fx);
        // Hand-built Hello body: tag, version, then a length-prefixed
        // byte string ending in 0xFF — invalid in any UTF-8 position.
        let mut id_bytes = prefix;
        id_bytes.push(0xFF);
        let mut body = vec![0x01u8];
        body.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        body.extend_from_slice(&u32::try_from(id_bytes.len()).unwrap().to_le_bytes());
        body.extend_from_slice(&id_bytes);
        match raw_call(&mut sock, &body) {
            Response::Err(Fault::BadRequest { .. }) => {}
            other => return Err(TestCaseError::fail(format!(
                "expected BadRequest for a non-UTF-8 doc id, got {other:?}"
            ))),
        }
        // The connection still routes a well-formed Hello.
        match call(&mut sock, &Request::Hello {
            version: PROTOCOL_VERSION,
            doc_id: TENANT_IDS[1].to_string(),
        }) {
            Response::Hello(_) => {}
            other => return Err(TestCaseError::fail(format!(
                "connection unusable after a malformed frame: {other:?}"
            ))),
        }
        fx.handle.shutdown().unwrap();
    }

    /// The compact meta decode is total and typed over hostile
    /// payloads: announced lengths, geometry and digest table must agree
    /// exactly as honest preparation produces them, or the decode is a
    /// typed `WireError` — never a panic, never an inconsistent
    /// `DocMeta` handed to the session layer. And a client that just
    /// refused a hostile meta has poisoned nothing: the same server
    /// still answers an honest handshake on a fresh socket.
    #[test]
    fn hostile_meta_decode_is_total_and_typed(
        tenant in 0usize..2,
        ct_delta in 1usize..64,
        flip_at in any::<u16>(),
        flip_bit in 0u8..8,
        cut in any::<u16>(),
    ) {
        use xsac::net::meta::{decode_meta, encode_meta};
        use xsac::net::WireError;
        let fx = fixture();
        let good_bytes = &fx.meta_bytes[tenant];
        let good = decode_meta(good_bytes).expect("honest meta decodes");

        // Ciphertext length that is not the block-padded plaintext
        // length (any nonzero delta breaks the padding equation).
        let mut evil = good.clone();
        evil.ciphertext_len += ct_delta;
        prop_assert!(
            matches!(decode_meta(&encode_meta(&evil)), Err(WireError::Malformed(_))),
            "inconsistent ciphertext length must be refused"
        );

        // Digest table disagreeing with the announced geometry — too
        // short, too long, and (for the digestless scheme) non-empty.
        let mut evil = good.clone();
        if evil.digests.pop().is_none() {
            evil.digests.push([0u8; xsac::crypto::chunk::DIGEST_RECORD]);
        }
        prop_assert!(
            matches!(decode_meta(&encode_meta(&evil)), Err(WireError::Malformed(_))),
            "digest table disagreeing with geometry must be refused"
        );

        // Geometry scramble on the tamper-resistant tenant: a different
        // (even self-consistent) chunk size makes the digest table the
        // wrong length for the announced ciphertext.
        let mut evil = decode_meta(&fx.meta_bytes[0]).expect("honest meta decodes");
        evil.layout.chunk_size *= 2;
        prop_assert!(
            matches!(decode_meta(&encode_meta(&evil)), Err(WireError::Malformed(_))),
            "geometry disagreeing with the digest table must be refused"
        );

        // Any truncation is a typed error, and any single bit flip is
        // *total*: it decodes or errors, but never panics and never
        // yields a meta whose geometry disagrees with itself.
        let cut = (cut as usize) % good_bytes.len();
        prop_assert!(decode_meta(&good_bytes[..cut]).is_err());
        let mut flipped = good_bytes.clone();
        let at = (flip_at as usize) % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        if let Ok(meta) = decode_meta(&flipped) {
            prop_assert_eq!(meta.ciphertext_len, meta.plain_len.div_ceil(8) * 8);
        }

        // The server that served the honest bytes is untouched by any of
        // this: a fresh handshake still round-trips byte-identically.
        let mut sock = raw_socket(&fx);
        match call(&mut sock, &Request::Hello {
            version: PROTOCOL_VERSION,
            doc_id: TENANT_IDS[tenant].to_string(),
        }) {
            Response::Hello(bytes) => prop_assert_eq!(&bytes, good_bytes),
            other => return Err(TestCaseError::fail(format!("Hello failed: {other:?}"))),
        }
        fx.handle.shutdown().unwrap();
    }

    /// Cross-tenant isolation, pinned by SHA-1: over a random schedule
    /// of interleaved re-Hellos and chunk reads on one connection, every
    /// delivered chunk hashes to the owning tenant's expected ciphertext
    /// chunk, and every `Hello` reply's meta payload is byte-identical
    /// to the owning tenant's encoding — zero bytes of document B on a
    /// session bound to document A.
    #[test]
    fn sessions_never_receive_other_tenants_bytes(
        ops in prop::collection::vec((any::<bool>(), any::<u16>(), 1u8..4), 1..24)
    ) {
        let fx = fixture();
        let mut sock = raw_socket(&fx);
        let mut bound: Option<usize> = None;
        for (switch, pick, count) in ops {
            let tenant = (pick as usize) % TENANT_IDS.len();
            if switch || bound.is_none() {
                match call(&mut sock, &Request::Hello {
                    version: PROTOCOL_VERSION,
                    doc_id: TENANT_IDS[tenant].to_string(),
                }) {
                    Response::Hello(bytes) => prop_assert_eq!(
                        &bytes,
                        &fx.meta_bytes[tenant],
                        "meta for tenant {} is not the owner's encoding", tenant
                    ),
                    other => return Err(TestCaseError::fail(format!("Hello failed: {other:?}"))),
                }
                bound = Some(tenant);
            }
            let owner = bound.expect("bound after Hello");
            let n_chunks = fx.docs[owner].protected.chunk_count() as u64;
            let first = (pick as u64).wrapping_mul(7) % n_chunks;
            let count = u32::from(count).min(u32::try_from(n_chunks - first).unwrap());
            match call(&mut sock, &Request::GetChunks { first, count }) {
                Response::Chunks(chunks) => {
                    prop_assert_eq!(chunks.len(), count as usize);
                    for (ci, bytes) in chunks {
                        let want = fx.chunk_sha1[owner][ci as usize];
                        let other = fx.chunk_sha1[1 - owner].get(ci as usize);
                        let got = sha1(&bytes);
                        prop_assert_eq!(
                            got, want,
                            "chunk {} on a session bound to tenant {} is not the owner's", ci, owner
                        );
                        if let Some(&foreign) = other {
                            prop_assert_ne!(
                                got, foreign,
                                "chunk {} matches the OTHER tenant — cross-tenant leak", ci
                            );
                        }
                    }
                }
                other => return Err(TestCaseError::fail(format!("GetChunks failed: {other:?}"))),
            }
        }
        fx.handle.shutdown().unwrap();
    }
}
