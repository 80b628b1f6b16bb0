//! The closed-loop harness: time slicing, per-operation samples, and the
//! metrics derived from them.
//!
//! An untraced run is one segment with telemetry off. A traced run
//! alternates telemetry-off and telemetry-on segments in ABBA order, so
//! the two modes see the same machine conditions; per-layer numbers come
//! from the telemetry-on segments and the off/on throughput ratio is the
//! tracing overhead. An operation that straddles a segment boundary is
//! checked and counted as attempted but left out of both modes' figures.

use crate::report::{median, peak_rss_mb, quantile, Report};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xsac_crypto::AccessCost;
use xsac_obs::{Phase, PhaseProfile};

/// Length of one traced segment.
const SEGMENT: Duration = Duration::from_millis(500);
/// [`Gate::segment`] after the last segment.
const STOPPED: usize = usize::MAX;

/// The run's segments: whether telemetry is on in each.
pub struct Schedule {
    pub telemetry: Vec<bool>,
    pub segment: Duration,
}

impl Schedule {
    pub fn new(seconds: f64, traced: bool) -> Schedule {
        if !traced {
            return Schedule { telemetry: vec![false], segment: Duration::from_secs_f64(seconds) };
        }
        let pairs = ((seconds / (2.0 * SEGMENT.as_secs_f64())).round() as usize).max(1);
        // ABBA: off,on, on,off, off,on, ...
        let telemetry = (0..pairs).flat_map(|p| [p % 2 == 1, p % 2 == 0]).collect();
        Schedule { telemetry, segment: SEGMENT }
    }
}

/// The current segment, as the client threads see it.
pub struct Gate(AtomicUsize);

impl Gate {
    /// Index of the current segment, or `None` once the run is over.
    pub fn segment(&self) -> Option<usize> {
        match self.0.load(Ordering::SeqCst) {
            STOPPED => None,
            k => Some(k),
        }
    }
}

/// Runs `client` on `threads` threads until the schedule ends, switching
/// telemetry at each segment boundary and calling `at_boundary(k)` right
/// after segment `k` starts (`k == segments` once the run is over).
pub fn drive<W: Send>(
    schedule: &Schedule,
    threads: usize,
    mut at_boundary: impl FnMut(usize),
    client: impl Fn(usize, &Gate) -> W + Sync,
) -> Vec<W> {
    let n = schedule.telemetry.len();
    let gate = Gate(AtomicUsize::new(0));
    xsac_obs::set_enabled(schedule.telemetry[0]);
    at_boundary(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (gate, client) = (&gate, &client);
                scope.spawn(move || client(t, gate))
            })
            .collect();
        let start = Instant::now();
        for k in 1..=n {
            let due = start + schedule.segment * k as u32;
            while let Some(left) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(left);
            }
            // Mode first, then the segment: an operation tagged with
            // segment k started after its mode was in force.
            if k < n {
                xsac_obs::set_enabled(schedule.telemetry[k]);
            }
            gate.0.store(if k < n { k } else { STOPPED }, Ordering::SeqCst);
            at_boundary(k);
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// One completed view session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ViewSample {
    /// Index of the view kind in the workload's mix.
    pub kind: usize,
    /// The whole view as its user waits for it: connect + compile + session.
    pub wall_ns: u64,
    pub connect_ns: u64,
    pub compile_ns: u64,
    /// The session call itself (`run_session_shared` / `DocServer::serve`).
    pub session_ns: u64,
    /// Fresh policy compilations this view caused.
    pub compiles: u64,
    pub phases: PhaseProfile,
    pub cost: AccessCost,
    /// Table-1 smartcard seconds (`SessionResult::time`).
    pub card_s: f64,
    pub result_bytes: u64,
    pub handles_peak: u64,
    pub rules_out: u64,
    pub token_ops: u64,
    /// Client-side wire figures (`RemoteStats`); zero in process.
    pub round_trips: u64,
    pub rtt_sum_ns: u64,
    pub rtt_count: u64,
    pub refetched_chunks: u64,
}

/// One document taken from XML text to stored ciphertext.
#[derive(Clone, Copy, Debug, Default)]
pub struct PublishSample {
    pub source_bytes: u64,
    pub parse_ns: u64,
    pub prepare_ns: u64,
    /// Ciphertext plus digest table.
    pub stored_bytes: u64,
    pub peak_buffered: u64,
    pub phases: PhaseProfile,
}

/// One loop operation: the view it ended with and, on publish, the
/// publish before it; or why it failed.
pub type Outcome = Result<(Option<PublishSample>, ViewSample), String>;

/// What one client thread measured.
#[derive(Default)]
pub struct Tally {
    /// Samples with the segment they ran in (straddlers are left out).
    pub views: Vec<(usize, ViewSample)>,
    pub publishes: Vec<(usize, PublishSample)>,
    /// Per segment: completed loop operations and their busy time.
    pub ops: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Records one loop operation that started in segment `start`: a view
    /// and, on publish, the publish before it. Failures count, and the
    /// samples are kept unless the operation left its segment.
    pub fn record(&mut self, gate: &Gate, start: usize, res: Outcome) {
        self.attempted += 1;
        let (publish, view) = match res {
            Ok(ok) => ok,
            Err(why) => return self.fail(why),
        };
        if gate.segment() != Some(start) {
            return;
        }
        let mut busy_ns = view.wall_ns;
        if let Some(p) = publish {
            busy_ns += p.parse_ns + p.prepare_ns;
            self.publishes.push((start, p));
        }
        self.views.push((start, view));
        if self.ops.len() <= start {
            self.ops.resize(start + 1, (0, 0));
        }
        self.ops[start].0 += 1;
        self.ops[start].1 += busy_ns;
    }

    /// Records a publish made between loop operations (not part of any).
    pub fn record_publish(
        &mut self,
        gate: &Gate,
        start: usize,
        res: Result<PublishSample, String>,
    ) {
        self.attempted += 1;
        match res {
            Err(why) => self.fail(why),
            Ok(p) if gate.segment() == Some(start) => self.publishes.push((start, p)),
            Ok(_) => {}
        }
    }
}

/// The measured run of one workload.
pub struct Run {
    pub schedule: Schedule,
    pub tallies: Vec<Tally>,
}

impl Run {
    pub fn attempted(&self) -> u64 {
        self.tallies.iter().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|t| t.failed).sum()
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.tallies.iter().find_map(|t| t.first_failure.as_deref())
    }

    /// Views measured with telemetry `on`.
    pub fn views(&self, on: bool) -> Vec<ViewSample> {
        let mode = |s: usize| self.schedule.telemetry[s] == on;
        self.tallies
            .iter()
            .flat_map(|t| t.views.iter().filter(|(s, _)| mode(*s)).map(|(_, v)| *v))
            .collect()
    }

    pub fn publishes(&self, on: bool) -> Vec<PublishSample> {
        let mode = |s: usize| self.schedule.telemetry[s] == on;
        self.tallies
            .iter()
            .flat_map(|t| t.publishes.iter().filter(|(s, _)| mode(*s)).map(|(_, p)| *p))
            .collect()
    }

    /// Closed-loop throughput in loop operations per busy second, summed
    /// over the client threads.
    pub fn ops_per_s(&self, on: bool) -> f64 {
        self.per_thread_rate(|t| {
            t.ops
                .iter()
                .enumerate()
                .filter(|(s, _)| self.schedule.telemetry[*s] == on)
                .fold((0, 0), |(n, ns), (_, &(dn, dns))| (n + dn, ns + dns))
        })
    }

    /// Σ over threads of count / busy seconds, from `(count, busy_ns)`.
    fn per_thread_rate(&self, f: impl Fn(&Tally) -> (u64, u64)) -> f64 {
        self.tallies
            .iter()
            .map(|t| match f(t) {
                (_, 0) => 0.0,
                (n, ns) => n as f64 / (ns as f64 * 1e-9),
            })
            .sum()
    }
}

/// Workload-specific inputs to the end-to-end metrics.
pub struct Context<'a> {
    /// Wall seconds of each set-up repetition.
    pub setup_s: &'a [f64],
    /// Ciphertext bytes the server shipped during the run, where a
    /// network is crossed.
    pub wire_bytes: Option<u64>,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = values.fold((0u64, 0.0), |(n, s), v| (n + 1, s + v));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run, ctx: &Context, report: &mut Report) {
    let views = run.views(false);
    let publishes = run.publishes(false);
    let n = views.len() as u64;
    assert!(n > 0, "the run completed no view");
    let mut walls: Vec<f64> = views.iter().map(|v| ms(v.wall_ns)).collect();
    walls.sort_by(f64::total_cmp);
    // Views per second of view wall time, summed over the client threads.
    let rate = run.per_thread_rate(|t| {
        t.views.iter().fold((0, 0), |(k, ns), (_, v)| (k + 1, ns + v.wall_ns))
    });
    report.push("setup_s", "s", median(ctx.setup_s), ctx.setup_s.len() as u64);
    report.push("views_per_s", "1/s", rate, n);
    report.push("view_p50_ms", "ms", quantile(&walls, 0.5), n);
    report.push("view_p90_ms", "ms", quantile(&walls, 0.9), n);
    let attempted = run.attempted();
    report.push(
        "ok_ratio",
        "ratio",
        (attempted - run.failed()) as f64 / attempted as f64,
        attempted,
    );
    report.push("card_model_s", "s", mean(views.iter().map(|v| v.card_s)), n);
    let wire_kb = match ctx.wire_bytes {
        Some(bytes) => bytes as f64 / 1000.0 / n as f64,
        // In process, the terminal→SOE channel carries the ciphertext.
        None => mean(views.iter().map(|v| (v.cost.bytes_to_soe - v.result_bytes) as f64 / 1000.0)),
    };
    report.push("wire_kb_per_view", "KB", wire_kb, n);
    assert!(!publishes.is_empty(), "the run completed no publish");
    let source: u64 = publishes.iter().map(|p| p.source_bytes).sum();
    let ns: u64 = publishes.iter().map(|p| p.parse_ns + p.prepare_ns).sum();
    let stored: u64 = publishes.iter().map(|p| p.stored_bytes).sum();
    let samples = publishes.len() as u64;
    report.push("publish_mb_per_s", "MB/s", source as f64 / 1e6 / (ns as f64 * 1e-9), samples);
    report.push("stored_bytes_ratio", "ratio", stored as f64 / source as f64, samples);
    report.push("peak_rss_mb", "MB", peak_rss_mb(), 1);
}

/// Time shares of the telemetry-on views: (core, crypto), where core is
/// compile + evaluate and crypto is decrypt + hash, over view wall time.
pub fn layer_shares(views: &[ViewSample]) -> (f64, f64) {
    let wall: u64 = views.iter().map(|v| v.wall_ns).sum();
    let core: u64 = views.iter().map(|v| v.compile_ns + v.phases.get(Phase::Evaluate)).sum();
    let crypto: u64 =
        views.iter().map(|v| v.phases.get(Phase::Decrypt) + v.phases.get(Phase::Hash)).sum();
    (core as f64 / wall.max(1) as f64, crypto as f64 / wall.max(1) as f64)
}

/// The per-layer metrics every workload derives from its own samples.
/// `des_bytes_per_s` is the 3DES rate timed in set-up.
pub fn per_layer(run: &Run, des_bytes_per_s: f64, report: &mut Report) {
    let views = run.views(true);
    let n = views.len() as u64;
    let per_view = |f: &dyn Fn(&ViewSample) -> f64| mean(views.iter().map(f));
    let phase_ms = |p: Phase| per_view(&|v| ms(v.phases.get(p)));
    let kb = |f: &dyn Fn(&AccessCost) -> u64| per_view(&|v| f(&v.cost) as f64 / 1000.0);

    report.push("core.compile_us", "us", per_view(&|v| v.compile_ns as f64 * 1e-3), n);
    report.push("core.compiles_per_view", "count", per_view(&|v| v.compiles as f64), n);
    report.push("core.rules_out", "count", per_view(&|v| v.rules_out as f64), n);
    report.push("core.evaluate_ms", "ms", phase_ms(Phase::Evaluate), n);
    report.push("core.token_ops_per_view", "count", per_view(&|v| v.token_ops as f64), n);
    report.push("index.decode_ms", "ms", phase_ms(Phase::Decode), n);
    report.push("crypto.fetch_ms", "ms", phase_ms(Phase::Fetch), n);
    report.push("crypto.decrypt_ms", "ms", phase_ms(Phase::Decrypt), n);
    report.push("crypto.hash_ms", "ms", phase_ms(Phase::Hash), n);
    report.push("crypto.soe_kb_per_view", "KB", kb(&|c| c.bytes_to_soe), n);
    report.push("crypto.decrypted_kb_per_view", "KB", kb(&|c| c.bytes_decrypted), n);
    report.push("crypto.hashed_kb_per_view", "KB", kb(&|c| c.bytes_hashed), n);
    report.push("crypto.terminal_hashed_kb_per_view", "KB", kb(&|c| c.terminal_bytes_hashed), n);
    report.push("crypto.refetched_kb_per_view", "KB", kb(&|c| c.bytes_refetched), n);
    // Useful work over physical work: the time the metered decrypt bytes
    // take at the set-up 3DES rate, over the decrypt time measured.
    let decrypted: u64 = views.iter().map(|v| v.cost.bytes_decrypted).sum();
    let decrypt_ns: u64 = views.iter().map(|v| v.phases.get(Phase::Decrypt)).sum();
    let efficiency = if decrypt_ns == 0 {
        0.0
    } else {
        decrypted as f64 / des_bytes_per_s / (decrypt_ns as f64 * 1e-9)
    };
    report.push("crypto.decrypt_efficiency", "ratio", efficiency, n);

    let publishes = run.publishes(true);
    let np = publishes.len() as u64;
    let per_pub = |f: &dyn Fn(&PublishSample) -> f64| mean(publishes.iter().map(f));
    report.push("xml.parse_ms", "ms", per_pub(&|p| ms(p.parse_ns)), np);
    report.push("index.encode_ms", "ms", per_pub(&|p| ms(p.phases.get(Phase::Encode))), np);
    report.push("crypto.encrypt_ms", "ms", per_pub(&|p| ms(p.phases.get(Phase::Decrypt))), np);
    report.push("crypto.digest_ms", "ms", per_pub(&|p| ms(p.phases.get(Phase::Hash))), np);
    report.push("crypto.io_ms", "ms", per_pub(&|p| ms(p.phases.get(Phase::Io))), np);
    let peak = publishes.iter().map(|p| p.peak_buffered).max().unwrap_or(0);
    report.push("crypto.protect_peak_kb", "KB", peak as f64 / 1000.0, np);

    report.push("soe.session_ms", "ms", per_view(&|v| ms(v.session_ns)), n);
    report.push("soe.result_kb_per_view", "KB", per_view(&|v| v.result_bytes as f64 / 1000.0), n);
    let handles = views.iter().map(|v| v.handles_peak).max().unwrap_or(0);
    report.push("soe.handles_peak", "count", handles as f64, n);
    // Compile and connect are timed by the benchmark; the session is covered
    // by its phases. What is left is unattributed.
    let attributed: u64 =
        views.iter().map(|v| v.connect_ns + v.compile_ns + v.phases.total()).sum();
    let wall: u64 = views.iter().map(|v| v.wall_ns).sum();
    report.push("soe.attributed_ratio", "ratio", attributed as f64 / wall.max(1) as f64, n);

    report.push("net.connect_ms", "ms", per_view(&|v| ms(v.connect_ns)), n);
    report.push("net.round_trips_per_view", "count", per_view(&|v| v.round_trips as f64), n);
    let (rtt_sum, rtt_n) =
        views.iter().fold((0u64, 0u64), |(s, c), v| (s + v.rtt_sum_ns, c + v.rtt_count));
    let rtt_us = if rtt_n == 0 { 0.0 } else { rtt_sum as f64 * 1e-3 / rtt_n as f64 };
    report.push("net.rtt_mean_us", "us", rtt_us, rtt_n);
    report.push("net.fetch_wait_ms", "ms", per_view(&|v| ms(v.rtt_sum_ns)), n);
    report.push(
        "net.client_refetch_chunks_per_view",
        "count",
        per_view(&|v| v.refetched_chunks as f64),
        n,
    );

    let (core, crypto) = layer_shares(&views);
    report.push("core.share_pct", "%", core * 100.0, n);
    report.push("crypto.share_pct", "%", crypto * 100.0, n);
    let (off, on) = (run.ops_per_s(false), run.ops_per_s(true));
    let overhead = if on == 0.0 { 0.0 } else { (off / on - 1.0) * 100.0 };
    report.push("obs.overhead_pct", "%", overhead, n);
}
