//! The full secure pipeline, stage by stage: publish → encrypt+index →
//! stream through the SOE → query the authorized view — with the cost
//! accounting that drives the paper's evaluation, across the three
//! Table-1 target architectures.
//!
//! ```sh
//! cargo run --release --example secure_pipeline
//! ```

use std::sync::Arc;
use xsac::core::output::reassemble_to_string;
use xsac::core::{Policy, Sign};
use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, HospitalConfig};
use xsac::soe::{
    lwb_estimate, run_session_shared, CompiledPolicy, CostModel, ServerDoc, SessionConfig, Strategy,
};
use xsac::xpath::Automaton;

fn main() {
    // --- publisher side -------------------------------------------------
    let doc = hospital_document(&HospitalConfig { folders: 30, ..Default::default() }, 11);
    let raw = xsac::xml::writer::document_to_string(&doc);
    let key = TripleDes::new(*b"pipeline-demo-24-byte-k!");
    let server = ServerDoc::prepare(&doc, &key, IntegrityScheme::EcbMht, ChunkLayout::default());
    println!("[publisher] raw XML:        {:>9} bytes", raw.len());
    println!("[publisher] skip-indexed:   {:>9} bytes (TCSBR)", server.protected.plain_len);
    println!(
        "[publisher] on terminal:    {:>9} bytes (encrypted + digests)\n",
        server.stored_len()
    );

    // --- client side -----------------------------------------------------
    // A researcher-style rule set plus a query over the authorized view.
    let mut dict = server.dict.clone();
    let policy = Policy::parse(
        "researcher",
        &[
            (Sign::Permit, "//Folder[Protocol]//Age"),
            (Sign::Permit, "//Folder[Protocol/Type=G3]//LabResults//G3"),
            (Sign::Deny, "//G3[Cholesterol > 250]"),
        ],
        &mut dict,
    )
    .expect("policy");
    let compiled = Arc::new(CompiledPolicy::compile(&policy));
    let query = Automaton::parse("//Folder[//Age > 60]", &mut dict).expect("query");

    for (label, cost) in [
        ("smartcard        (0.5 MB/s comm, 0.15 MB/s 3DES)", CostModel::smartcard()),
        ("software+internet(0.1 MB/s comm, 1.2 MB/s 3DES)", CostModel::software_internet()),
        ("software+LAN     (10 MB/s comm, 1.2 MB/s 3DES)", CostModel::software_lan()),
    ] {
        let config = SessionConfig { strategy: Strategy::Tcsbr, cost };
        let res = run_session_shared(&server, &key, &compiled, Some(&query), &config, None)
            .expect("session");
        println!(
            "[{label}]\n    total {:>7.3}s = comm {:.3} + decrypt {:.3} + hash {:.3} + AC {:.3}",
            res.time.total(),
            res.time.comm_s,
            res.time.decrypt_s,
            res.time.hash_s,
            res.time.ac_s
        );
    }

    // Result + baselines under the smartcard model.
    let config = SessionConfig { strategy: Strategy::Tcsbr, cost: CostModel::smartcard() };
    let res =
        run_session_shared(&server, &key, &compiled, Some(&query), &config, None).expect("session");
    let bf = run_session_shared(
        &server,
        &key,
        &compiled,
        Some(&query),
        &SessionConfig { strategy: Strategy::BruteForce, cost: CostModel::smartcard() },
        None,
    )
    .expect("bf");
    let lwb = lwb_estimate(&doc, &policy, CostModel::smartcard());
    println!(
        "\n[baselines] brute-force {:.3}s vs TCSBR {:.3}s vs LWB {:.3}s",
        bf.time.total(),
        res.time.total(),
        lwb.time.total()
    );
    println!(
        "[transfer]  brute-force {} bytes vs TCSBR {} bytes into the SOE",
        bf.cost.bytes_to_soe, res.cost.bytes_to_soe
    );
    let view = reassemble_to_string(&dict, &res.log);
    let preview: String = view.chars().take(240).collect();
    println!("\nquery result preview:\n{preview}…");
}
