//! The xsac benchmark: authorized-view latency and throughput, and publish
//! rate, over four workloads, with a separate traced run for per-layer
//! numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <view-rules|view-integrity|served-tcp|publish> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated: a fixed corpus of
//! Hospital documents and, from the seed, each client's sequence of views
//! and the order of published documents. The system is driven only
//! through the public entry points its users call (`Document::parse`,
//! `ServerDoc::prepare*`, `CompiledPolicy::compile`, `run_session_shared`,
//! `DocServer`, `DocRegistry`, `ChunkServer::spawn`, `xsac_net::connect`)
//! and read only through the counters those return; every delivered view
//! is compared with the DOM oracle outside the timed interval.
//!
//! `--trace 0` measures with telemetry off and prints the end-to-end
//! metrics; `--trace 1` alternates telemetry-off and telemetry-on
//! segments and prints the per-layer metrics, derived from the benchmark's
//! own timing of each call plus the counters the calls return. The last
//! line of standard output is the JSON result; the lines before it list
//! what makes runs comparable and every metric with its unit and sample
//! count. Files are written only under `.perfbench-work/` in the working
//! directory and removed on exit.

mod inputs;
mod measure;
mod report;
mod workloads;

use measure::{layer_shares, Run, Schedule};
use report::{quantile, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// Telemetry-on seconds of the partner workload in the layer-separation
/// check of a traced view-rules / view-integrity run.
const PARTNER_SECONDS: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    Ok(Args { workload, seed, seconds, traced })
}

/// The run's working directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// 3DES block-decrypt throughput of this host (best of five), bytes/s.
fn des_bytes_per_s() -> f64 {
    const BLOCKS: u64 = 8192;
    let key = inputs::key();
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for i in 0..BLOCKS {
                acc ^= key.decrypt_block(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
            BLOCKS as f64 * 8.0 / t.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// Per-view-kind medians and the quantiles around p50 and p90: session
/// times are multimodal, and a percentile sitting in a gap between modes
/// jumps with tiny shifts of the mix.
fn print_modes(setup: &workloads::Setup, run: &Run) {
    let views = run.views(false);
    let labels = setup.labels();
    for (k, label) in labels.iter().enumerate() {
        let mut walls: Vec<f64> =
            views.iter().filter(|v| v.kind == k).map(|v| v.wall_ns as f64 * 1e-6).collect();
        if walls.is_empty() {
            continue;
        }
        walls.sort_by(f64::total_cmp);
        let q = |p: f64| quantile(&walls, p);
        println!(
            "# view {label:<10} n={:<6} ms: p10={:.3} p50={:.3} p90={:.3}",
            walls.len(),
            q(0.1),
            q(0.5),
            q(0.9)
        );
    }
    let mut walls: Vec<f64> = views.iter().map(|v| v.wall_ns as f64 * 1e-6).collect();
    walls.sort_by(f64::total_cmp);
    let q = |p: f64| quantile(&walls, p);
    println!(
        "# quantiles ms: q48={:.3} q50={:.3} q52={:.3} | q88={:.3} q90={:.3} q92={:.3}",
        q(0.48),
        q(0.5),
        q(0.52),
        q(0.88),
        q(0.9),
        q(0.92)
    );
    for (lo, mid, hi) in [(0.48, "p50", 0.52), (0.88, "p90", 0.92)] {
        if q(hi) > 1.25 * q(lo) {
            println!(
                "# FLAG {mid} sits between modes: q{lo}..q{hi} spans {:.3}..{:.3} ms",
                q(lo),
                q(hi)
            );
        }
    }
}

/// The layer-separation check of a traced view-rules or view-integrity
/// run: the pair must load different layers, so that an optimisation
/// shows on one and not on the other. Runs the other workload of the pair
/// briefly, traced, and returns that run so its results count as checked.
fn separation(
    args: &Args,
    work: &Path,
    run: &Run,
    report: &mut Report,
) -> Result<Option<Run>, String> {
    let partner = match args.workload {
        Workload::ViewRules => Workload::ViewIntegrity,
        Workload::ViewIntegrity => Workload::ViewRules,
        _ => {
            report.push("layers.core_separation", "ratio", 0.0, 0);
            report.push("layers.crypto_separation", "ratio", 0.0, 0);
            return Ok(None);
        }
    };
    let other = workloads::setup(partner, args.seed, work)?;
    let (partner_run, _) = other.measure(Schedule::new(PARTNER_SECONDS, true));
    other.close()?;
    let (mine, theirs) = (layer_shares(&run.views(true)), layer_shares(&partner_run.views(true)));
    let (rules, integrity) =
        if args.workload == Workload::ViewRules { (mine, theirs) } else { (theirs, mine) };
    let core = rules.0 / integrity.0.max(1e-9);
    let crypto = integrity.1 / rules.1.max(1e-9);
    for (name, value) in [("layers.core_separation", core), ("layers.crypto_separation", crypto)] {
        report.push(name, "ratio", value, 2);
        let verdict = if value >= 2.0 { "holds" } else { "FLAG: below 2" };
        println!("# {name} {value:.2} ({verdict})");
    }
    Ok(Some(partner_run))
}

fn run(args: &Args) -> Result<(), String> {
    let work = WorkDir::create()?;
    xsac_obs::set_enabled(false);
    let setup = workloads::setup(args.workload, args.seed, &work.0)?;
    for line in &setup.describe {
        println!("# {line}");
    }
    let mut report = Report::default();
    let (run, snaps) = setup.measure(Schedule::new(args.seconds, args.traced));
    let partner = if args.traced {
        measure::per_layer(&run, des_bytes_per_s(), &mut report);
        setup.server_layers(&run, &snaps, &mut report);
        let get = |name| report.get(name).unwrap_or(0.0);
        if get("soe.attributed_ratio") < 0.95 {
            println!("# FLAG soe.attributed_ratio {:.4} < 0.95", get("soe.attributed_ratio"));
        }
        println!("# obs.overhead_pct {:.2}% (telemetry budget < 2%)", get("obs.overhead_pct"));
        separation(args, &work.0, &run, &mut report)?
    } else {
        setup.end_to_end(&run, &snaps, &mut report);
        print_modes(&setup, &run);
        None
    };
    setup.close()?;
    let runs: Vec<&Run> = std::iter::once(&run).chain(partner.as_ref()).collect();
    let attempted: u64 = runs.iter().map(|r| r.attempted()).sum();
    let failed: u64 = runs.iter().map(|r| r.failed()).sum();
    if let Some(why) = runs.iter().find_map(|r| r.first_failure()) {
        println!("# first failure: {why}");
    }
    println!(
        "# attempted={attempted} failed={failed} fail_ratio={}",
        failed as f64 / attempted as f64
    );
    report.print_table();
    println!("{}", report.json(failed == 0, attempted, failed));
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
