//! Figure 10 — Impact of queries.
//!
//! Query `//Folder[//Age > v]` executed over the five views (Secretary,
//! part-time doctor, full-time doctor, junior researcher, senior
//! researcher), sweeping `v` to vary the selectivity. The paper plots
//! execution time against result size: the relation is linear per view
//! and nonempty even for empty results (parts of the document must be
//! analysed before being skipped).

use std::sync::Arc;
use xsac_bench::{banner, generate, parse_args, prepare, run_strategy};
use xsac_crypto::IntegrityScheme;
use xsac_datagen::profiles::{figure10_query, View};
use xsac_datagen::{hospital::physician_name, Dataset};
use xsac_soe::{CompiledPolicy, Strategy};
use xsac_xpath::Automaton;

fn main() {
    let args = parse_args();
    banner("Figure 10. Impact of queries: //Folder[//Age > v]", &args);
    let doc = generate(Dataset::Hospital, &args);
    let server = prepare(&doc, IntegrityScheme::Ecb);
    // The generator skews physician workloads: phys000 is the busiest
    // (full-time doctor), the last id the rarest (part-time doctor).
    let frequent = physician_name(0);
    let rare = physician_name(9);
    println!("{:<5} {:>4} {:>12} {:>10} {:>10}", "view", "v", "result(KB)", "time(s)", "KB/s");
    for view in View::ALL {
        for v in [101, 90, 75, 50, 0] {
            let mut dict = server.dict.clone();
            let policy =
                Arc::new(CompiledPolicy::compile(&view.policy(&mut dict, &frequent, &rare)));
            let q = Automaton::parse(&figure10_query(v), &mut dict).expect("query");
            let res = run_strategy(&server, &policy, Some(&q), Strategy::Tcsbr);
            let t = res.time.total();
            println!(
                "{:<5} {:>4} {:>12.1} {:>10.3} {:>10.1}",
                view.name(),
                v,
                res.result_bytes as f64 / 1000.0,
                t,
                res.result_bytes as f64 / 1000.0 / t.max(1e-9)
            );
        }
        println!();
    }
    println!("Expected shape: execution time grows linearly with result size per view;");
    println!("time is nonzero at v=101 (empty result) — skipping still needs analysis.");
}
