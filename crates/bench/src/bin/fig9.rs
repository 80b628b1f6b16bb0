//! Figure 9 — Access control overhead.
//!
//! Hospital document, three profiles (Secretary / Doctor / Researcher
//! with 10 protocol groups). For each: Brute-Force, TCSBR and the LWB
//! oracle bound, as ExecTime/LWB ratios plus the TCSBR cost split
//! (communication / decryption / access control).

use std::sync::Arc;
use xsac_bench::{banner, generate, parse_args, prepare, run_strategy};
use xsac_crypto::IntegrityScheme;
use xsac_datagen::{hospital::physician_name, Dataset, Profile};
use xsac_soe::{lwb_estimate, CompiledPolicy, CostModel, Strategy};

fn main() {
    let args = parse_args();
    banner("Figure 9. Access control overhead (Hospital document)", &args);
    let doc = generate(Dataset::Hospital, &args);
    // Integrity is "not taken into account here" (§7) — ECB scheme.
    let server = prepare(&doc, IntegrityScheme::Ecb);
    println!(
        "source: {} encoded bytes ({} raw)",
        server.protected.plain_len,
        xsac_xml::writer::document_to_string(&doc).len()
    );
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>8} {:>8} | split comm/decrypt/ac (TCSBR)",
        "profile", "BF(s)", "TCSBR(s)", "LWB(s)", "BF/LWB", "TCSBR/LWB"
    );
    let cost = CostModel::smartcard();
    for profile in Profile::figure9() {
        let mut dict = server.dict.clone();
        let policy = profile.policy(&physician_name(0), &mut dict);
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let bf = run_strategy(&server, &compiled, None, Strategy::BruteForce);
        let tc = run_strategy(&server, &compiled, None, Strategy::Tcsbr);
        let lwb = lwb_estimate(&doc, &policy, cost);
        let lwb_t = lwb.time.total().max(1e-9);
        let (c, d, _h, a) = tc.time.split();
        println!(
            "{:<11} {:>9.2} {:>9.2} {:>9.2} {:>8.1} {:>8.2} | {:>4.0}% /{:>4.0}% /{:>4.0}%",
            profile.name(),
            bf.time.total(),
            tc.time.total(),
            lwb.time.total(),
            bf.time.total() / lwb_t,
            tc.time.total() / lwb_t,
            c,
            d,
            a,
        );
        println!(
            "{:<11} result={}KB skipped(deny/pend)={}/{} filtered_tokens={}",
            "",
            tc.result_bytes / 1000,
            tc.stats.skips_denied,
            tc.stats.skips_pending,
            tc.stats.tokens_filtered
        );
    }
    println!();
    println!("Paper (full scale): BF ≈ 19.5-20.4s; TCSBR 1.4s/6.4s/2.4s vs LWB 1.8s/5.8s/1.3s;");
    println!("AC cost 2-15%, decryption 53-60%, communication 30-38% of TCSBR time.");
}
