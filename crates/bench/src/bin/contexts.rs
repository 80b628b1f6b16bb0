//! Table-1 projection: the same measured byte/operation counts priced
//! under the three target architectures ("the numbers given in Table 1
//! allow projecting the performance results on different target
//! architectures", §7).
//!
//! Expected crossover: the hardware SOE is *decryption-bound*, a software
//! SOE behind the Internet is *communication-bound*, and on a LAN the
//! bottleneck almost vanishes — the access-control CPU share grows.

use std::sync::Arc;
use xsac_bench::{banner, demo_key, generate, parse_args, prepare};
use xsac_crypto::IntegrityScheme;
use xsac_datagen::{hospital::physician_name, Dataset, Profile};
use xsac_soe::{run_session_shared, CompiledPolicy, CostModel, SessionConfig, Strategy};

fn main() {
    let args = parse_args();
    banner("Table-1 contexts: one workload, three architectures (Hospital, TCSBR)", &args);
    let doc = generate(Dataset::Hospital, &args);
    let server = prepare(&doc, IntegrityScheme::EcbMht);
    let contexts = [
        ("smartcard", CostModel::smartcard()),
        ("sw+internet", CostModel::software_internet()),
        ("sw+LAN", CostModel::software_lan()),
    ];
    println!(
        "{:<11} {:<12} {:>9} {:>7} {:>9} {:>7} {:>7}",
        "profile", "context", "total(s)", "comm%", "decrypt%", "hash%", "ac%"
    );
    for profile in Profile::figure9() {
        let mut dict = server.dict.clone();
        let policy =
            Arc::new(CompiledPolicy::compile(&profile.policy(&physician_name(0), &mut dict)));
        for (name, cost) in contexts {
            let config = SessionConfig { strategy: Strategy::Tcsbr, cost };
            let res = run_session_shared(&server, &demo_key(), &policy, None, &config, None)
                .expect("session");
            let (c, d, h, a) = res.time.split();
            println!(
                "{:<11} {:<12} {:>9.3} {:>6.0}% {:>8.0}% {:>6.0}% {:>6.0}%",
                profile.name(),
                name,
                res.time.total(),
                c,
                d,
                h,
                a
            );
        }
        println!();
    }
    println!("Expected: decryption dominates on the card; communication dominates over");
    println!("the Internet; on a LAN the totals collapse and the AC share surfaces.");
}
