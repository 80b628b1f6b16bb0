//! Shared harness for the experiment binaries (one per table/figure of
//! the paper — see the repo-root README.md for the experiment index).
//!
//! Every binary accepts:
//!
//! * `--scale <f64>`   dataset scale (1.0 = Table-2 sizes; default 0.25
//!   to keep a full run in seconds — results are reported per-byte /
//!   as ratios, which are scale-invariant);
//! * `--seed <u64>`    generator seed (default 42);
//! * `--full`          shorthand for `--scale 1.0`.

use std::sync::Arc;
use xsac_core::CompiledPolicy;
use xsac_crypto::chunk::ChunkLayout;
use xsac_crypto::{IntegrityScheme, TripleDes};
use xsac_datagen::Dataset;
use xsac_soe::{run_session_shared, CostModel, ServerDoc, SessionConfig, SessionResult, Strategy};
use xsac_xml::Document;
use xsac_xpath::Automaton;

/// Common command-line arguments.
#[derive(Clone, Copy, Debug)]
pub struct HarnessArgs {
    /// Dataset scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs { scale: 0.25, seed: 42 }
    }
}

/// Parses `std::env::args` (panics on malformed input — these are
/// experiment drivers, not user-facing tools).
pub fn parse_args() -> HarnessArgs {
    let mut out = HarnessArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                out.scale = args.next().expect("--scale value").parse().expect("scale f64")
            }
            "--seed" => out.seed = args.next().expect("--seed value").parse().expect("seed u64"),
            "--full" => out.scale = 1.0,
            other => panic!("unknown argument {other}; supported: --scale, --seed, --full"),
        }
    }
    out
}

/// The workspace-wide demo key.
pub fn demo_key() -> TripleDes {
    TripleDes::new(*b"xsac-demo-24-byte-key!!!")
}

/// Treebank runs at 1/16 of the other datasets' scale (59 MB full size;
/// the paper's shape observations hold at this scale; see README.md).
pub fn dataset_scale(dataset: Dataset, scale: f64) -> f64 {
    match dataset {
        Dataset::Treebank => scale / 16.0,
        _ => scale,
    }
}

/// Generates a dataset at the harness scale.
pub fn generate(dataset: Dataset, args: &HarnessArgs) -> Document {
    dataset.generate(dataset_scale(dataset, args.scale), args.seed)
}

/// Prepares a server document with the given scheme.
pub fn prepare(doc: &Document, scheme: IntegrityScheme) -> ServerDoc {
    ServerDoc::prepare(doc, &demo_key(), scheme, ChunkLayout::default())
}

/// Runs a session under the smartcard cost model. The caller compiles
/// the policy once (`CompiledPolicy::compile`) and reuses it across
/// runs, as serving does per role.
pub fn run_strategy(
    server: &ServerDoc,
    policy: &Arc<CompiledPolicy>,
    query: Option<&Automaton>,
    strategy: Strategy,
) -> SessionResult {
    let config = SessionConfig { strategy, cost: CostModel::smartcard() };
    run_session_shared(server, &demo_key(), policy, query, &config, None).expect("session")
}

/// Prints a rule with the experiment header.
pub fn banner(title: &str, args: &HarnessArgs) {
    println!("==============================================================");
    println!("{title}");
    println!("(scale {}, seed {}; shapes are scale-invariant)", args.scale, args.seed);
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn treebank_runs_smaller() {
        assert_eq!(dataset_scale(Dataset::Treebank, 1.0), 1.0 / 16.0);
        assert_eq!(dataset_scale(Dataset::Wsu, 1.0), 1.0);
    }

    #[test]
    fn end_to_end_smoke() {
        let args = HarnessArgs { scale: 0.01, seed: 1 };
        let doc = generate(Dataset::Hospital, &args);
        let server = prepare(&doc, IntegrityScheme::Ecb);
        let mut dict = server.dict.clone();
        let policy =
            Arc::new(CompiledPolicy::compile(&xsac_datagen::secretary_policy("sec", &mut dict)));
        let res = run_strategy(&server, &policy, None, Strategy::Tcsbr);
        assert!(res.result_bytes > 0);
        let bf = run_strategy(&server, &policy, None, Strategy::BruteForce);
        assert!(bf.time.total() >= res.time.total());
    }
}
