//! Dissemination over the wire: an untrusted chunk server on a loopback
//! socket, a client enforcing access control locally.
//!
//! The publisher prepares the hospital document once and hands it to a
//! `ChunkServer` — the untrusted party: it holds ciphertext, encrypted
//! digests and the public skip-index material, but no keys. A client
//! connects (one `Hello` round trip, answered with the metadata) and
//! runs ordinary sessions through a `RemoteStore`-backed `DocServer`:
//! every ciphertext byte crosses the socket, is verified and decrypted
//! client-side, and the delivered view is exactly what the policy
//! allows — the server never sees it.
//!
//!     cargo run --release --example remote_session

use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::Profile;
use xsac::net::{connect, ChunkServer, ClientConfig};
use xsac::soe::{DocServer, ServerDoc, SessionSpec};

fn main() {
    // The secure channel of Figure 2: key material shared out of band.
    let key = TripleDes::new(*b"remote-example-key-24-ab");
    let doc = hospital_document(&HospitalConfig { folders: 20, ..Default::default() }, 3);

    // Publisher → untrusted server (which never sees this key).
    let prepared = ServerDoc::prepare(&doc, &key, IntegrityScheme::EcbMht, ChunkLayout::default());
    let doc_bytes = prepared.protected.ciphertext_len();
    let server = ChunkServer::new(prepared, "hospital-2026");
    let handle = server.spawn("127.0.0.1:0").expect("bind loopback");
    println!(
        "chunk server listening on {} ({} KB of ciphertext)\n",
        handle.addr(),
        doc_bytes / 1024
    );

    // Client: connect, then serve the three §7 profiles locally. The
    // session code is the same one the in-process examples use — only
    // the store behind it changed.
    let remote = connect(
        handle.addr(),
        "hospital-2026",
        ClientConfig { window_bytes: 32 * 1024, batch_chunks: 4, ..ClientConfig::default() },
    )
    .expect("connect");
    let client = DocServer::new(remote, key);
    let specs: Vec<SessionSpec> = Profile::figure9()
        .into_iter()
        .map(|p| {
            let mut dict = client.doc().dict.clone();
            SessionSpec::new(p.name(), p.policy(&physician_name(0), &mut dict))
        })
        .collect();
    for (spec, res) in specs.iter().zip(client.serve_batch(&specs)) {
        let res = res.expect("session");
        println!(
            "{:<12} delivered {:>6} B of authorized view \
             ({:>3} KB over the socket, {:>4} B re-fetched)",
            spec.role,
            res.result_bytes,
            res.cost.bytes_to_soe / 1024,
            res.cost.bytes_refetched,
        );
    }

    let stats = client.doc().protected.store.stats();
    println!(
        "\nclient: {} round trips, {} chunks fetched ({} refetched), {} KB on the wire",
        stats.round_trips,
        stats.chunks_fetched,
        stats.chunks_refetched,
        stats.wire_bytes / 1024
    );
    println!(
        "client resilience: {} reconnects, {} chunks retried, {} ms backing off",
        stats.reconnects, stats.retried_chunks, stats.backoff_ms
    );
    let snap = handle.service_snapshot();
    println!(
        "server: {} connections, {} requests, {} chunks / {} KB served",
        snap.connections,
        snap.requests,
        snap.chunks_served,
        snap.bytes_served / 1024
    );
    handle.shutdown().expect("shutdown");
}
