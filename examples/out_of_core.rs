//! Out-of-core serving: one file-backed document, many subjects, bounded
//! resident memory.
//!
//! The publisher encrypts + digests the hospital document chunk-at-a-time
//! straight to disk (`prepare_to_store_with_stats` — the ciphertext is
//! never materialized in memory), then a `DocServer` serves differently-
//! privileged sessions through a small resident window. The example
//! prints the metered peak residency against the document size: the
//! serving cost is O(window), however large the document grows.
//!
//!     cargo run --release --example out_of_core

use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::Profile;
use xsac::soe::{DocServer, ServerDoc, SessionSpec};
use xsac_testkit::TempPath;

fn main() {
    let key = TripleDes::new(*b"out-of-core-example-24ab");
    let doc = hospital_document(&HospitalConfig { folders: 60, ..Default::default() }, 7);

    // Publish to disk: a 16 KB resident window over the whole document.
    const WINDOW: usize = 16 * 1024;
    let tmp = TempPath::new("example");
    let prepared = ServerDoc::prepare_to_store_with_stats(
        &doc,
        &key,
        IntegrityScheme::EcbMht,
        ChunkLayout::default(),
        tmp.path(),
        WINDOW,
    )
    .expect("prepare to store")
    .0;
    let doc_bytes = prepared.protected.ciphertext_len();
    println!(
        "published {} KB of ciphertext to {} (window: {} KB)\n",
        doc_bytes / 1024,
        tmp.path().display(),
        WINDOW / 1024
    );

    // Serve the three §7 profiles concurrently off the shared file.
    let server = DocServer::new(prepared, key);
    let specs: Vec<SessionSpec> = Profile::figure9()
        .into_iter()
        .map(|p| {
            let mut dict = server.doc().dict.clone();
            SessionSpec::new(p.name(), p.policy(&physician_name(0), &mut dict))
        })
        .collect();
    for (spec, res) in specs.iter().zip(server.serve_concurrent(&specs, 3)) {
        let res = res.expect("session");
        println!(
            "{:<12} delivered {:>6} B of authorized view ({} KB crossed the SOE channel)",
            spec.role,
            res.result_bytes,
            res.cost.bytes_to_soe / 1024
        );
    }

    let peak = server.resident_bytes_peak().expect("file store meters residency");
    println!(
        "\nresident peak: {} KB of {} KB document ({:.1}%) — O(window), not O(document)",
        peak / 1024,
        doc_bytes / 1024,
        100.0 * peak as f64 / doc_bytes as f64
    );
    assert!((peak as usize) < doc_bytes / 2, "residency must stay well under the document size");
}
