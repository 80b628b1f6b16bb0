//! Figure 12 — Performance on real datasets.
//!
//! Throughput (KB/s of source document) of TCSBR and LWB, with and
//! without integrity checking, over Sigmod (simple ~50%-selective random
//! policy), WSU (random rules), Treebank (8 random rules, complex), and
//! the three Hospital profiles.

use std::sync::Arc;
use xsac_bench::{banner, dataset_scale, generate, parse_args, prepare, run_strategy};
use xsac_core::Policy;
use xsac_crypto::IntegrityScheme;
use xsac_datagen::rulegen::{policy_with_selectivity, RuleGenConfig};
use xsac_datagen::{hospital::physician_name, Dataset, Profile};
use xsac_soe::{lwb_estimate, CompiledPolicy, CostModel, Strategy};
use xsac_xml::Document;

fn row(name: &str, doc: &Document, policy: &Policy, source_bytes: usize) {
    let cost = CostModel::smartcard();
    let lwb = lwb_estimate(doc, policy, cost);
    let compiled = Arc::new(CompiledPolicy::compile(policy));
    let mut cells = Vec::new();
    let mut result_bytes = 0usize;
    for scheme in [IntegrityScheme::Ecb, IntegrityScheme::EcbMht] {
        let server = prepare(doc, scheme);
        let res = run_strategy(&server, &compiled, None, Strategy::Tcsbr);
        result_bytes = res.result_bytes;
        // Delivered-result throughput, the paper's metric ("produces a
        // throughput ranging from 55KBps to 85KBps").
        cells.push(res.result_bytes as f64 / 1000.0 / res.time.total().max(1e-9));
    }
    let r = result_bytes as f64 / 1000.0;
    let lwb_plain = r / lwb.time.total().max(1e-9);
    let lwb_int = r / lwb.time_with_integrity.total().max(1e-9);
    let _ = source_bytes;
    println!(
        "{:<10} {:>11.0} {:>11.0} {:>11.0} {:>11.0}",
        name, cells[1], lwb_int, cells[0], lwb_plain
    );
}

fn main() {
    let args = parse_args();
    banner("Figure 12. Throughput on real datasets (result KB delivered per s)", &args);
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>11}",
        "dataset", "TCSBR+Int", "LWB+Int", "TCSBR", "LWB"
    );
    // Sigmod: simple, not very selective policy (paper: 50% returned).
    {
        let doc = generate(Dataset::Sigmod, &args);
        let (policy, sel) = policy_with_selectivity(
            &doc,
            &RuleGenConfig { rules: 3, ..Default::default() },
            0.5,
            0.15,
            args.seed,
            60,
        );
        let bytes = xsac_index::encode::encode_document(&doc, xsac_index::encode::Encoding::TCSBR)
            .bytes
            .len();
        row(&format!("Sigmod({:.0}%)", sel * 100.0), &doc, &policy, bytes);
    }
    // WSU: random rules.
    {
        let doc = generate(Dataset::Wsu, &args);
        let (policy, sel) = policy_with_selectivity(
            &doc,
            &RuleGenConfig { rules: 5, ..Default::default() },
            0.4,
            0.25,
            args.seed + 1,
            60,
        );
        let bytes = xsac_index::encode::encode_document(&doc, xsac_index::encode::Encoding::TCSBR)
            .bytes
            .len();
        row(&format!("WSU({:.0}%)", sel * 100.0), &doc, &policy, bytes);
    }
    // Treebank: 8 random rules ("complex"), 1/16 scale.
    {
        let doc = generate(Dataset::Treebank, &args);
        let (policy, sel) = policy_with_selectivity(
            &doc,
            &RuleGenConfig { rules: 8, ..Default::default() },
            0.3,
            0.25,
            args.seed + 2,
            20,
        );
        let bytes = xsac_index::encode::encode_document(&doc, xsac_index::encode::Encoding::TCSBR)
            .bytes
            .len();
        row(
            &format!(
                "Bank({:.0}%,s{:.3})",
                sel * 100.0,
                dataset_scale(Dataset::Treebank, args.scale)
            ),
            &doc,
            &policy,
            bytes,
        );
    }
    // Hospital profiles.
    {
        let doc = generate(Dataset::Hospital, &args);
        let bytes = xsac_index::encode::encode_document(&doc, xsac_index::encode::Encoding::TCSBR)
            .bytes
            .len();
        for profile in Profile::figure9() {
            let mut dict = doc.dict.clone();
            let policy = profile.policy(&physician_name(0), &mut dict);
            row(profile.name(), &doc, &policy, bytes);
        }
    }
    println!();
    println!("Paper (full scale): throughput 55-85 KB/s across datasets with integrity,");
    println!("TCSBR close to LWB in every case.");
}
