//! Parental control over streamed content (one of the paper's motivating
//! applications: "the ever-increasing concern of parents to protect
//! children by controlling and filtering out what they access").
//!
//! A content feed is published encrypted; the child's device holds a SOE
//! with parent-defined rules. Rules are *dynamic*: the parent tightens
//! them without re-encrypting the feed — the whole point of evaluating
//! access control on the client instead of compiling it into the
//! encryption.
//!
//! ```sh
//! cargo run --release --example parental_control
//! ```

use std::sync::Arc;
use xsac::core::output::reassemble_to_string;
use xsac::core::{Policy, Sign};
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::soe::{
    run_session_shared, CompiledPolicy, CostModel, ServerDoc, SessionConfig, Strategy,
};
use xsac::xml::Document;

fn main() {
    let feed = Document::parse(
        "<feed>\
           <show><rating>G</rating><title>Space Gardens</title>\
             <episode><n>1</n><video>g-content-1</video></episode>\
             <episode><n>2</n><video>g-content-2</video></episode></show>\
           <show><rating>PG13</rating><title>City Nights</title>\
             <episode><n>1</n><video>pg13-content</video></episode></show>\
           <show><rating>R</rating><title>Dark Alley</title>\
             <episode><n>1</n><video>r-content</video></episode></show>\
         </feed>",
    )
    .expect("feed");
    let key = TripleDes::new(*b"family-television-key-24");
    let server = ServerDoc::prepare(&feed, &key, IntegrityScheme::EcbMht, ChunkLayout::default());

    // The same ciphertext, two different parental policies — no
    // re-encryption between them.
    let policies: [(&str, Vec<(Sign, &str)>); 2] = [
        ("young child", vec![(Sign::Permit, "//show[rating = G]")]),
        (
            "teenager",
            vec![(Sign::Permit, "//show[rating = G]"), (Sign::Permit, "//show[rating = PG13]")],
        ),
    ];

    for (who, rules) in policies {
        let mut dict = server.dict.clone();
        let policy = Policy::parse("parent", &rules, &mut dict).expect("rules");
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let config = SessionConfig { strategy: Strategy::Tcsbr, cost: CostModel::smartcard() };
        let res =
            run_session_shared(&server, &key, &compiled, None, &config, None).expect("session");
        println!("== profile: {who} ==");
        println!("{}", reassemble_to_string(&dict, &res.log));
        println!(
            "(denied/pending subtrees skipped without decryption: {}/{})\n",
            res.stats.skips_denied, res.stats.skips_pending
        );
    }

    // Tampering with the feed (e.g. splicing an R-rated block over a G
    // one) is detected before anything is delivered. Flip a ciphertext
    // bit — a swap of two positions can silently no-op when the bytes
    // happen to coincide, which this very feed demonstrates.
    let mut tampered =
        ServerDoc::prepare(&feed, &key, IntegrityScheme::EcbMht, ChunkLayout::default());
    tampered.protected.ciphertext_mut()[8] ^= 0x01;
    let mut dict = tampered.dict.clone();
    let policy = Policy::parse("parent", &[(Sign::Permit, "//feed")], &mut dict).expect("rules");
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let config = SessionConfig { strategy: Strategy::Tcsbr, cost: CostModel::smartcard() };
    match run_session_shared(&tampered, &key, &compiled, None, &config, None) {
        Err(e) => println!("tampered feed rejected: {e}"),
        Ok(_) => unreachable!("tampering must be detected"),
    }
}
