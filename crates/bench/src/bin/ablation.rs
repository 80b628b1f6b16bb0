//! Ablation: which part of the Skip index buys the speedup?
//!
//! Two design choices of the Skip index are worth ablating:
//!
//! 1. **subtree sizes** make skipping *possible* (TCS would already have
//!    them) — strategy `SizesOnly` skips only when tokens die naturally;
//! 2. **descendant-tag bitmaps** (`DescTag` + `RemainingLabels`, §4.2)
//!    kill tokens early, making skips *frequent* — full `Tcsbr`.
//!
//! Brute force anchors the no-index end.

use std::sync::Arc;
use xsac_bench::{banner, generate, parse_args, prepare, run_strategy};
use xsac_crypto::IntegrityScheme;
use xsac_datagen::{hospital::physician_name, Dataset, Profile};
use xsac_soe::{CompiledPolicy, Strategy};

fn main() {
    let args = parse_args();
    banner("Ablation: subtree sizes vs descendant-tag filtering (Hospital)", &args);
    let doc = generate(Dataset::Hospital, &args);
    let server = prepare(&doc, IntegrityScheme::Ecb);
    println!(
        "{:<11} {:>12} {:>12} {:>12}   (simulated smartcard seconds)",
        "profile", "BruteForce", "SizesOnly", "TCSBR"
    );
    for profile in Profile::figure9() {
        let mut dict = server.dict.clone();
        let policy =
            Arc::new(CompiledPolicy::compile(&profile.policy(&physician_name(0), &mut dict)));
        let mut cells = Vec::new();
        for strategy in [Strategy::BruteForce, Strategy::SizesOnly, Strategy::Tcsbr] {
            let res = run_strategy(&server, &policy, None, strategy);
            cells.push((res.time.total(), res.stats.tokens_filtered, res.stats.skips_denied));
        }
        println!(
            "{:<11} {:>11.2}s {:>11.2}s {:>11.2}s   filtered={} skips={}→{}",
            profile.name(),
            cells[0].0,
            cells[1].0,
            cells[2].0,
            cells[2].1,
            cells[1].2,
            cells[2].2,
        );
    }
    println!();
    println!("Finding: SizesOnly ≈ BruteForce — with descendant-axis rules the tokens");
    println!("never die on their own, so subtree sizes alone enable *zero* skips. The");
    println!("DescTag bitmaps (§4.2) are the ingredient that makes the Skip index work.");
}
