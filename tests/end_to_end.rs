//! End-to-end integration: publisher → encrypted terminal store → SOE
//! session → authorized view, across strategies, schemes and profiles.
//!
//! Documents are kept small: these tests run in debug mode where the
//! from-scratch 3DES costs real time.

use std::sync::Arc;
use xsac::core::oracle::{oracle_query_string, oracle_view_string};
use xsac::core::output::reassemble_to_string;
use xsac::core::{Policy, Sign};
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::Profile;
use xsac::soe::{
    lwb_estimate, run_session_shared, CompiledPolicy, CostModel, ServerDoc, SessionConfig,
    SessionError, Strategy,
};
use xsac::xpath::{parse_path, Automaton};

fn key() -> TripleDes {
    TripleDes::new(*b"integration-test-key-24!")
}

fn small_hospital() -> xsac::xml::Document {
    hospital_document(&HospitalConfig { folders: 4, ..Default::default() }, 99)
}

fn layout() -> ChunkLayout {
    ChunkLayout { chunk_size: 512, fragment_size: 64 }
}

#[test]
fn all_profiles_all_schemes_match_oracle() {
    let doc = small_hospital();
    let user = physician_name(0);
    for scheme in IntegrityScheme::ALL {
        let server = ServerDoc::prepare(&doc, &key(), scheme, layout());
        for profile in Profile::figure9() {
            let mut dict = server.dict.clone();
            let policy = profile.policy(&user, &mut dict);
            let compiled = Arc::new(CompiledPolicy::compile(&policy));
            let expected = oracle_view_string(&doc, &policy);
            for strategy in [Strategy::Tcsbr, Strategy::BruteForce] {
                let config = SessionConfig { strategy, cost: CostModel::smartcard() };
                let res = run_session_shared(&server, &key(), &compiled, None, &config, None)
                    .unwrap_or_else(|e| panic!("{scheme:?}/{strategy:?}: {e}"));
                let got = reassemble_to_string(&dict, &res.log);
                assert_eq!(
                    got,
                    expected,
                    "profile {} scheme {:?} strategy {:?}",
                    profile.name(),
                    scheme,
                    strategy
                );
            }
        }
    }
}

#[test]
fn query_session_matches_oracle() {
    let doc = small_hospital();
    let server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout());
    let mut dict = server.dict.clone();
    let policy = xsac::datagen::secretary_policy("sec", &mut dict);
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    for v in [0, 40, 70, 101] {
        let q_text = xsac::datagen::profiles::figure10_query(v);
        let q = Automaton::parse(&q_text, &mut dict).expect("query");
        let expected = oracle_query_string(&doc, &policy, &parse_path(&q_text).unwrap());
        let res = run_session_shared(
            &server,
            &key(),
            &compiled,
            Some(&q),
            &SessionConfig::default(),
            None,
        )
        .expect("session");
        assert_eq!(reassemble_to_string(&dict, &res.log), expected, "v={v}");
    }
}

#[test]
fn tcsbr_never_reads_more_than_brute_force() {
    let doc = small_hospital();
    let server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, layout());
    for profile in Profile::figure9() {
        let mut dict = server.dict.clone();
        let policy = profile.policy(&physician_name(0), &mut dict);
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let t =
            run_session_shared(&server, &key(), &compiled, None, &SessionConfig::default(), None)
                .unwrap();
        let bf = SessionConfig { strategy: Strategy::BruteForce, cost: CostModel::smartcard() };
        let b = run_session_shared(&server, &key(), &compiled, None, &bf, None).unwrap();
        assert!(
            t.cost.bytes_decrypted <= b.cost.bytes_decrypted,
            "{}: {} > {}",
            profile.name(),
            t.cost.bytes_decrypted,
            b.cost.bytes_decrypted
        );
        assert!(t.time.total() <= b.time.total() * 1.001);
    }
}

#[test]
fn lwb_is_a_lower_bound_for_every_profile() {
    let doc = small_hospital();
    let server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::Ecb, layout());
    for profile in Profile::figure9() {
        let mut dict = server.dict.clone();
        let policy = profile.policy(&physician_name(0), &mut dict);
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let t =
            run_session_shared(&server, &key(), &compiled, None, &SessionConfig::default(), None)
                .unwrap();
        let lwb = lwb_estimate(&doc, &policy, CostModel::smartcard());
        assert!(
            lwb.time.total() <= t.time.total() * 1.02,
            "{}: LWB {} vs TCSBR {}",
            profile.name(),
            lwb.time.total(),
            t.time.total()
        );
    }
}

#[test]
fn every_scheme_but_ecb_detects_tampering() {
    let doc = small_hospital();
    for scheme in [IntegrityScheme::CbcSha, IntegrityScheme::CbcShac, IntegrityScheme::EcbMht] {
        let mut server = ServerDoc::prepare(&doc, &key(), scheme, layout());
        let n = server.protected.ciphertext().len();
        server.protected.ciphertext_mut()[n / 3] ^= 0x04;
        let mut dict = server.dict.clone();
        let policy = Policy::parse("u", &[(Sign::Permit, "//Folder")], &mut dict).unwrap();
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let res =
            run_session_shared(&server, &key(), &compiled, None, &SessionConfig::default(), None);
        assert!(matches!(res, Err(SessionError::Integrity(_))), "{scheme:?} must detect the flip");
    }
}

#[test]
fn block_swap_attack_rejected() {
    // §6: "substituting some blocks of folders X and Y to mislead the
    // access control manager" — swap two ciphertext blocks.
    let doc = small_hospital();
    let mut server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout());
    let n = server.protected.ciphertext().len();
    let (a, b) = (n / 4 / 8 * 8, n / 2 / 8 * 8);
    for i in 0..8 {
        server.protected.ciphertext_mut().swap(a + i, b + i);
    }
    let mut dict = server.dict.clone();
    let policy = Policy::parse("u", &[(Sign::Permit, "//Folder")], &mut dict).unwrap();
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let res = run_session_shared(&server, &key(), &compiled, None, &SessionConfig::default(), None);
    assert!(matches!(res, Err(SessionError::Integrity(_))));
}

#[test]
fn digest_table_tampering_rejected() {
    let doc = small_hospital();
    let mut server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout());
    server.protected.digests[0][0] ^= 1;
    let mut dict = server.dict.clone();
    let policy = Policy::parse("u", &[(Sign::Permit, "//Folder")], &mut dict).unwrap();
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let res = run_session_shared(&server, &key(), &compiled, None, &SessionConfig::default(), None);
    assert!(matches!(res, Err(SessionError::Integrity(_))));
}

#[test]
fn policy_minimization_preserves_views() {
    let doc = small_hospital();
    // Same-signed containment with no opposite rules: minimized.
    let mut dict = doc.dict.clone();
    let mut policy =
        Policy::parse("u", &[(Sign::Permit, "//Admin"), (Sign::Permit, "//Admin/SSN")], &mut dict)
            .unwrap();
    let before = oracle_view_string(&doc, &policy);
    let removed = policy.minimize();
    assert_eq!(removed, 1, "the contained rule is dropped");
    assert_eq!(oracle_view_string(&doc, &policy), before);

    // An opposite-signed rule makes the (sufficient, conservative)
    // condition of §3.3 hold back — nothing is removed and the view is
    // untouched either way.
    let mut policy = Policy::parse(
        "u",
        &[(Sign::Permit, "//Admin"), (Sign::Permit, "//Admin/SSN"), (Sign::Deny, "//MedActs")],
        &mut dict,
    )
    .unwrap();
    let before = oracle_view_string(&doc, &policy);
    assert_eq!(policy.minimize(), 0, "conservative in the presence of denials");
    assert_eq!(oracle_view_string(&doc, &policy), before);
}

#[test]
fn dynamic_policies_same_ciphertext() {
    // The paper's core motivation: rules change without re-encryption.
    let doc = small_hospital();
    let server = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout());
    let views: Vec<String> = [
        vec![(Sign::Permit, "//Admin")],
        vec![(Sign::Permit, "//Admin"), (Sign::Deny, "//SSN")],
        vec![(Sign::Permit, "//Folder"), (Sign::Deny, "//Admin")],
    ]
    .into_iter()
    .map(|rules| {
        let mut dict = server.dict.clone();
        let policy = Policy::parse("u", &rules, &mut dict).unwrap();
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let res =
            run_session_shared(&server, &key(), &compiled, None, &SessionConfig::default(), None)
                .unwrap();
        reassemble_to_string(&dict, &res.log)
    })
    .collect();
    assert_ne!(views[0], views[1]);
    assert_ne!(views[1], views[2]);
    assert!(views[1].contains("<Fname>") && !views[1].contains("<SSN>"));
}
