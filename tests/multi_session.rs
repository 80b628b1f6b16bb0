//! Determinism and metering of the multi-session serving layer
//! (`xsac_soe::server`): N concurrent sessions over one `DocServer` —
//! mixed roles, mixed strategies, both bench integrity schemes — must
//! deliver exactly what the same sessions deliver when run sequentially
//! *without* any shared cache, and the cross-session leaf cache must obey
//! its first-toucher metering contract.

use std::sync::Arc;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::Profile;
use xsac::soe::{run_session_shared, CompiledPolicy, DocServer, ServerDoc, SessionSpec, Strategy};

fn key() -> TripleDes {
    TripleDes::new(*b"multi-session-demo-key!!")
}

fn doc_server(scheme: IntegrityScheme) -> DocServer {
    let doc = hospital_document(&HospitalConfig { folders: 5, ..Default::default() }, 7);
    let prepared = ServerDoc::prepare(
        &doc,
        &key(),
        scheme,
        ChunkLayout { chunk_size: 1024, fragment_size: 128 },
    );
    DocServer::new(prepared, key())
}

/// Mixed workload: the three hospital profiles, alternating TCSBR and
/// brute force, several sessions per role.
fn workload(server: &DocServer) -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    for round in 0..2 {
        for profile in Profile::figure9() {
            let mut dict = server.doc().dict.clone();
            let policy = profile.policy(&physician_name(0), &mut dict);
            let strategy =
                if (round + specs.len()) % 2 == 0 { Strategy::Tcsbr } else { Strategy::BruteForce };
            specs.push(SessionSpec::new(profile.name(), policy).strategy(strategy));
        }
    }
    specs
}

#[test]
fn concurrent_sessions_match_unshared_sequential_runs() {
    for scheme in [IntegrityScheme::Ecb, IntegrityScheme::EcbMht] {
        let server = doc_server(scheme);
        let specs = workload(&server);

        // Reference: each session alone, private caches, fresh compile.
        let reference: Vec<_> = specs
            .iter()
            .map(|s| {
                run_session_shared(
                    server.doc(),
                    &key(),
                    &Arc::new(CompiledPolicy::compile(&s.policy)),
                    s.query.as_ref(),
                    &s.config,
                    None,
                )
                .expect("reference session")
            })
            .collect();

        let concurrent = server.serve_concurrent(&specs, 4);
        assert_eq!(concurrent.len(), reference.len());
        for (i, (got, want)) in concurrent.iter().zip(&reference).enumerate() {
            let got = got.as_ref().expect("concurrent session");
            // Byte-identical delivery logs (items, anchors, payloads).
            assert_eq!(got.log, want.log, "{scheme:?} spec {i}: delivery log diverged");
            assert_eq!(got.output, want.output, "{scheme:?} spec {i}");
            assert_eq!(got.stats, want.stats, "{scheme:?} spec {i}");
            // Every SOE-side cost is identical; only terminal hashing is
            // redistributed by the shared leaf cache (first toucher pays),
            // so it is asserted separately below.
            assert_eq!(got.cost.bytes_to_soe, want.cost.bytes_to_soe, "{scheme:?} spec {i}");
            assert_eq!(got.cost.bytes_decrypted, want.cost.bytes_decrypted, "{scheme:?} spec {i}");
            assert_eq!(got.cost.bytes_hashed, want.cost.bytes_hashed, "{scheme:?} spec {i}");
            assert_eq!(
                got.cost.digests_decrypted, want.cost.digests_decrypted,
                "{scheme:?} spec {i}"
            );
            assert_eq!(got.cost.reads, want.cost.reads, "{scheme:?} spec {i}");
            assert_eq!(got.result_bytes, want.result_bytes, "{scheme:?} spec {i}");
        }

        // And the concurrent run agrees with a sequential shared-cache
        // batch on a *fresh* server (same warm/cold distribution is not
        // guaranteed, so again: logs only).
        let server2 = doc_server(scheme);
        let batch = server2.serve_batch(&specs);
        for (i, (a, b)) in concurrent.iter().zip(&batch).enumerate() {
            assert_eq!(
                a.as_ref().unwrap().log,
                b.as_ref().unwrap().log,
                "{scheme:?} spec {i}: concurrent vs batch"
            );
        }
    }
}

#[test]
fn warm_cache_metering_sums_to_at_most_one_document() {
    // First-toucher-pays semantics: across N sessions sharing one
    // `DocServer`, total terminal leaf hashing is bounded by one document
    // length — however the sessions interleave — and a warm session
    // meters zero.
    let server = doc_server(IntegrityScheme::EcbMht);
    let specs = workload(&server);
    let results = server.serve_concurrent(&specs, 4);
    let ciphertext_len = server.doc().protected.ciphertext().len() as u64;
    let total: u64 = results.iter().map(|r| r.as_ref().unwrap().cost.terminal_bytes_hashed).sum();
    assert!(total > 0, "somebody must hash the touched chunks");
    assert!(
        total <= ciphertext_len,
        "cross-session terminal hashing {total} exceeds one document length {ciphertext_len}"
    );

    // A session started after the fleet finds every touched chunk warm.
    let mut dict = server.doc().dict.clone();
    let policy = Profile::Secretary.policy("sec", &mut dict);
    let warm = server.serve(&SessionSpec::new("Secretary", policy)).expect("warm session");
    assert_eq!(
        warm.cost.terminal_bytes_hashed, 0,
        "warm second session must re-hash zero MHT leaf bytes"
    );
}
