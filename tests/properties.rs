//! Workspace-level property tests: the full encrypted pipeline must agree
//! with the DOM oracle on random documents × random policies, under every
//! integrity scheme; tampering anywhere must be detected.
//!
//! Case counts are modest: each case drives real 3DES in debug mode.

use proptest::prelude::*;
use std::sync::Arc;
use xsac::core::oracle::oracle_view_string;
use xsac::core::output::reassemble_to_string;
use xsac::core::{Policy, Sign};
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::index::decode::{decode_range, DecoderContext};
use xsac::index::encode::{encode_document, Encoding};
use xsac::soe::{
    run_session_shared, CompiledPolicy, SessionConfig, SessionError, Strategy as SoeStrategy,
};
use xsac::xml::Document;

const TAGS: &[&str] = &["a", "b", "c", "d"];
const VALUES: &[&str] = &["1", "2", "secret-value", "x"];

fn arb_doc() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        proptest::sample::select(VALUES).prop_map(|v| v.to_string()),
        proptest::sample::select(TAGS).prop_map(|t| format!("<{t}></{t}>")),
    ];
    let inner = leaf.prop_recursive(3, 16, 3, |elem| {
        (proptest::sample::select(TAGS), prop::collection::vec(elem, 0..3))
            .prop_map(|(t, cs)| format!("<{t}>{}</{t}>", cs.concat()))
    });
    (proptest::sample::select(TAGS), prop::collection::vec(inner, 0..3))
        .prop_map(|(t, cs)| format!("<{t}>{}</{t}>", cs.concat()))
}

fn arb_rules() -> impl Strategy<Value = Vec<(bool, String)>> {
    let step = prop_oneof![
        3 => proptest::sample::select(TAGS).prop_map(|t| t.to_string()),
        1 => Just("*".to_string()),
    ];
    let seg = (proptest::sample::select(&["/", "//"]), step).prop_map(|(a, s)| format!("{a}{s}"));
    let pred = prop_oneof![
        Just(String::new()),
        (proptest::sample::select(TAGS), proptest::sample::select(&["", " = 1", " != 2"]))
            .prop_map(|(t, c)| format!("[{t}{c}]")),
    ];
    let path = (prop::collection::vec(seg, 1..3), pred)
        .prop_map(|(segs, p)| format!("{}{p}", segs.concat()));
    prop::collection::vec((any::<bool>(), path), 0..4)
}

fn key() -> TripleDes {
    TripleDes::new(*b"property-test-key-24-xyz")
}

fn layout() -> ChunkLayout {
    ChunkLayout { chunk_size: 256, fragment_size: 32 }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// The whole encrypted pipeline equals the oracle.
    #[test]
    fn encrypted_session_equals_oracle(xml in arb_doc(), rules in arb_rules()) {
        let doc = Document::parse(&xml).unwrap();
        let rules: Vec<(Sign, &str)> = rules
            .iter()
            .map(|(p, s)| (if *p { Sign::Permit } else { Sign::Deny }, s.as_str()))
            .collect();
        for scheme in [IntegrityScheme::Ecb, IntegrityScheme::EcbMht] {
            let server = xsac::soe::ServerDoc::prepare(&doc, &key(), scheme, layout());
            let mut dict = server.dict.clone();
            let policy = Policy::parse("ann", &rules, &mut dict).unwrap();
            let compiled = Arc::new(CompiledPolicy::compile(&policy));
            let expected = oracle_view_string(&doc, &policy);
            for strategy in [SoeStrategy::Tcsbr, SoeStrategy::BruteForce] {
                let config = SessionConfig { strategy, cost: xsac::soe::CostModel::smartcard() };
                let res = run_session_shared(&server, &key(), &compiled, None, &config, None).unwrap();
                prop_assert_eq!(
                    reassemble_to_string(&dict, &res.log),
                    expected.clone(),
                    "xml={} rules={:?} scheme={:?} strategy={:?}",
                    xml, rules, scheme, strategy
                );
            }
        }
    }

    /// TCSBR roundtrip at workspace level.
    #[test]
    fn skip_index_roundtrip(xml in arb_doc()) {
        let doc = Document::parse(&xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let root = DecoderContext::root(&enc.bytes, doc.dict.len()).unwrap();
        let mut events = Vec::new();
        decode_range(&enc.bytes, 0, &root, &mut events).unwrap();
        prop_assert_eq!(events, doc.events());
    }

    /// Any single-byte flip anywhere in the protected store is detected
    /// by ECB-MHT (ciphertext or digest table).
    #[test]
    fn tamper_detection_everywhere(xml in arb_doc(), flip in any::<(u32, u8)>()) {
        let doc = Document::parse(&xml).unwrap();
        let mut server = xsac::soe::ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout());
        let (pos, bit) = flip;
        let n = server.protected.ciphertext().len();
        let d = server.protected.digests.len();
        let total = n + d * 24;
        let pos = pos as usize % total;
        let mask = 1u8 << (bit % 8);
        if pos < n {
            server.protected.ciphertext_mut()[pos] ^= mask;
        } else {
            let di = (pos - n) / 24;
            let off = (pos - n) % 24;
            server.protected.digests[di][off] ^= mask;
        }
        let mut dict = server.dict.clone();
        // A policy that reads everything, so the flipped byte is visited.
        let policy = Policy::parse("u", &[(Sign::Permit, "/*")], &mut dict).unwrap();
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let res = run_session_shared(&server, &key(), &compiled, None, &SessionConfig::default(), None);
        prop_assert!(
            matches!(res, Err(SessionError::Integrity(_))),
            "flip at {} undetected (xml={})", pos, xml
        );
    }
}

#[test]
fn session_config_default_is_tcsbr_smartcard() {
    let c = SessionConfig::default();
    assert_eq!(c.strategy, SoeStrategy::Tcsbr);
}
