//! The paper's motivating example (§2, Figure 1): a hospital document
//! shared by secretaries, doctors and medical researchers, each seeing a
//! different authorized view of the same encrypted data.
//!
//! ```sh
//! cargo run --release --example hospital
//! ```

use std::sync::Arc;
use xsac::core::output::reassemble_to_string;
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::Profile;
use xsac::soe::{
    run_session_shared, CompiledPolicy, CostModel, ServerDoc, SessionConfig, Strategy,
};

fn main() {
    // The publisher generates and protects the document once.
    let doc = hospital_document(&HospitalConfig { folders: 12, ..Default::default() }, 7);
    let key = TripleDes::new(*b"hospital-example-key-24!");
    let server = ServerDoc::prepare(&doc, &key, IntegrityScheme::EcbMht, ChunkLayout::default());
    println!(
        "published: {} folders, {} encoded bytes, {} stored bytes (with digests)\n",
        12,
        server.protected.plain_len,
        server.stored_len()
    );

    // Three subjects evaluate their own policies on the same ciphertext.
    for profile in Profile::figure9() {
        let mut dict = server.dict.clone();
        let policy = profile.policy(&physician_name(0), &mut dict);
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let config = SessionConfig { strategy: Strategy::Tcsbr, cost: CostModel::smartcard() };
        let res =
            run_session_shared(&server, &key, &compiled, None, &config, None).expect("session");
        let view = reassemble_to_string(&dict, &res.log);
        println!("== {} ==", profile.name());
        println!(
            "  result: {} bytes | simulated smartcard time {:.2}s \
             (comm {:.2}s, decrypt {:.2}s, hash {:.2}s, AC {:.2}s)",
            res.result_bytes,
            res.time.total(),
            res.time.comm_s,
            res.time.decrypt_s,
            res.time.hash_s,
            res.time.ac_s
        );
        println!(
            "  skipped subtrees: {} denied, {} pending; {} readbacks",
            res.stats.skips_denied, res.stats.skips_pending, res.output.readbacks
        );
        let preview: String = view.chars().take(160).collect();
        println!("  view preview: {preview}…\n");
    }
}
