//! Differential property test for the out-of-core read path: a
//! file-backed session must be *indistinguishable* from an in-memory one.
//!
//! Random hospital documents × all five Figure-10 views × all four integrity schemes
//! × random chunk layouts: the file-backed server (ciphertext encrypted
//! chunk-at-a-time straight to disk, served through a bounded resident
//! window) must produce byte-identical delivery logs and identical
//! `AccessCost`/metering to the in-memory server — and both must still
//! match the DOM oracle. Whatever the storage layer does, the enforced
//! view stays exactly the model semantics.
//!
//! Case counts are modest: each case drives real 3DES in debug mode.

use proptest::prelude::*;
use std::sync::Arc;
use xsac::core::oracle::oracle_view_string;
use xsac::core::output::reassemble_to_string;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::profiles::View;
use xsac::soe::{
    run_session_shared, CompiledPolicy, ServerDoc, SessionConfig, Strategy as SoeStrategy,
};
use xsac_testkit::TempPath;

fn key() -> TripleDes {
    TripleDes::new(*b"streaming-diff-key-24-ab")
}

/// Random (but always valid) chunk geometry: chunks 256/512/1024 bytes,
/// fragments 32/64 — small enough that tiny documents still span many
/// chunks.
fn arb_layout() -> impl Strategy<Value = ChunkLayout> {
    (0u32..3, 0u32..2)
        .prop_map(|(c, f)| ChunkLayout { chunk_size: 256usize << c, fragment_size: 32usize << f })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..Default::default() })]

    /// File-backed == in-memory == oracle, across views, schemes,
    /// strategies and layouts.
    #[test]
    fn file_backed_sessions_equal_in_memory_sessions(
        folders in 1usize..4,
        doc_seed in any::<u16>(),
        layout in arb_layout(),
        window_chunks in 1usize..4,
    ) {
        let config = HospitalConfig { folders, ..Default::default() };
        let doc = hospital_document(&config, doc_seed as u64);
        let frequent = physician_name(0);
        let rare = physician_name(config.physicians - 1);
        for scheme in IntegrityScheme::ALL {
            let mem = ServerDoc::prepare(&doc, &key(), scheme, layout);
            let tmp = TempPath::new("streaming-diff");
            let window = window_chunks * layout.chunk_size;
            // The production out-of-core path: encrypt + digest straight
            // to disk, chunk-at-a-time.
            let file = ServerDoc::prepare_to_store_with_stats(
                &doc,
                &key(),
                scheme,
                layout,
                tmp.path(),
                window,
            )
            .expect("prepare to store")
            .0;
            for view in View::ALL {
                let mut dict = mem.dict.clone();
                let policy = view.policy(&mut dict, &frequent, &rare);
                let compiled = Arc::new(CompiledPolicy::compile(&policy));
                let expected = oracle_view_string(&doc, &policy);
                for strategy in [SoeStrategy::Tcsbr, SoeStrategy::BruteForce] {
                    let config = SessionConfig { strategy, ..Default::default() };
                    let a = run_session_shared(&mem, &key(), &compiled, None, &config, None)
                        .expect("in-memory session");
                    let b = run_session_shared(&file, &key(), &compiled, None, &config, None)
                        .expect("file-backed session");
                    let label = format!("{scheme:?} {} {strategy:?}", view.name());
                    // Byte-identical delivery logs (items, anchors,
                    // payloads) and identical metering: the backend must
                    // be invisible to everything but residency.
                    prop_assert_eq!(&a.log, &b.log, "{}: delivery log diverged", &label);
                    prop_assert_eq!(a.cost, b.cost, "{}: AccessCost diverged", &label);
                    prop_assert_eq!(a.output, b.output, "{}", &label);
                    prop_assert_eq!(a.stats, b.stats, "{}", &label);
                    prop_assert_eq!(a.result_bytes, b.result_bytes, "{}", &label);
                    prop_assert_eq!(a.handles_created, b.handles_created, "{}", &label);
                    prop_assert_eq!(a.handles_peak, b.handles_peak, "{}", &label);
                    // And both enforce exactly the model semantics.
                    let got = reassemble_to_string(&dict, &a.log);
                    prop_assert_eq!(&got, &expected, "{}: view diverged from oracle", &label);
                }
            }
            // The streamed ciphertext is byte-identical to the in-memory
            // one (same chunk-at-a-time core), so the files can be
            // re-served interchangeably.
            prop_assert_eq!(
                std::fs::read(tmp.path()).expect("stored ciphertext"),
                mem.protected.ciphertext().to_vec()
            );
            prop_assert_eq!(&file.protected.digests, &mem.protected.digests);
        }
    }
}
