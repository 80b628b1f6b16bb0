//! Figure 11 — Impact of integrity control.
//!
//! Authorized-view construction for the three profiles under the four
//! protection schemes: ECB (no integrity), CBC-SHA (hash plaintext
//! chunks), CBC-SHAC (hash ciphertext chunks), ECB-MHT (the paper's
//! Merkle-tree scheme). Expected shape: ECB-MHT costs 32–38% over bare
//! ECB, while CBC-SHA(C) force whole-chunk work and lose the skipping
//! benefit. The reproduction's SOE keeps the Merkle nodes it has
//! authenticated in the current chunk, so an ECB-MHT fetch ships fewer
//! proof digests than Appendix A's full log-size proof (4 at 16 fragments
//! per chunk); the `digests/fetch` column reports how many.

use std::sync::Arc;
use xsac_bench::{banner, generate, parse_args, prepare, run_strategy};
use xsac_crypto::chunk::DIGEST_RECORD;
use xsac_crypto::{AccessCost, ChunkLayout, IntegrityScheme};
use xsac_datagen::{hospital::physician_name, Dataset, Profile};
use xsac_soe::{CompiledPolicy, Strategy};

fn main() {
    let args = parse_args();
    banner("Figure 11. Impact of integrity control (Hospital)", &args);
    let doc = generate(Dataset::Hospital, &args);
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>9}   {:<24} {:>14} {:>11}",
        "profile",
        "ECB",
        "CBC-SHA",
        "CBC-SHAC",
        "ECB-MHT",
        "(+% over ECB)",
        "digests/fetch",
        "MHT term.KB"
    );
    for profile in Profile::figure9() {
        let mut times = Vec::new();
        let mut mht_terminal_hashed = 0u64;
        let mut digests_per_fetch = 0.0;
        for scheme in IntegrityScheme::ALL {
            let server = prepare(&doc, scheme);
            let mut dict = server.dict.clone();
            let policy =
                Arc::new(CompiledPolicy::compile(&profile.policy(&physician_name(0), &mut dict)));
            let res = run_strategy(&server, &policy, None, Strategy::Tcsbr);
            times.push(res.time.total());
            if scheme == IntegrityScheme::EcbMht {
                mht_terminal_hashed = res.cost.terminal_bytes_hashed;
                digests_per_fetch = proof_digests_per_fetch(&res.cost, res.result_bytes);
            }
        }
        let base = times[0];
        let pct = format!(
            "(+{:.0}% / +{:.0}% / +{:.0}%)",
            (times[1] / base - 1.0) * 100.0,
            (times[2] / base - 1.0) * 100.0,
            (times[3] / base - 1.0) * 100.0,
        );
        println!(
            "{:<11} {:>8.2}s {:>8.2}s {:>8.2}s {:>8.2}s   {:<24} {:>14.2} {:>11.1}",
            profile.name(),
            times[0],
            times[1],
            times[2],
            times[3],
            pct,
            digests_per_fetch,
            mht_terminal_hashed as f64 / 1000.0,
        );
    }
    println!();
    println!("digests/fetch: Merkle proof digests shipped per ECB-MHT fragment fetch;");
    println!("Appendix A ships a full 4-digest proof with each one.");
    println!("MHT term.KB: free terminal-side leaf hashing under ECB-MHT, amortized");
    println!("to one chunk-length per visited chunk by the SoeReader leaf cache.");
    println!("Paper (full scale): ECB 1.4/6.4/2.4s; CBC-SHA 8.5/18.6/12.6s;");
    println!("CBC-SHAC 5.2/12.6*/8.5s; ECB-MHT 1.9/8.5/3.3s (+32-38% over ECB).");
}

/// Proof digests per fragment fetch of an ECB-MHT session, recovered from
/// its meters: a fetch charges its fragment bytes F to both channel and
/// hashing, 20 B per shipped digest to the channel and 40 B per combine
/// (one per digest) to hashing; each visited chunk adds a digest record
/// to the channel, and the result leaves over it too.
fn proof_digests_per_fetch(cost: &AccessCost, result_bytes: usize) -> f64 {
    let records = cost.digests_decrypted * DIGEST_RECORD as u64;
    let shipped = cost.bytes_to_soe - result_bytes as u64 - records; // F + 20·P
    let digests = (cost.bytes_hashed - shipped) / 20; // (F + 40·P) − (F + 20·P)
    let fragment_bytes = cost.bytes_hashed - 40 * digests;
    let fetches = fragment_bytes.div_ceil(ChunkLayout::default().fragment_size as u64);
    digests as f64 / fetches.max(1) as f64
}
