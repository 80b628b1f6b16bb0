//! The four workloads. Each sets itself up, publishing its documents
//! through the system several times to time set-up, asks the oracle for
//! every view it will request, then runs a closed loop of sessions or
//! publishes through the public entry points, checking every result. The
//! view workloads also publish a document again once a second.

use crate::inputs::{key, Mix, Prepared, Rng, Role, Source, ViewKind};
use crate::measure::{drive, Context, Outcome, PublishSample, Run, Schedule, Tally, ViewSample};
use crate::report::Report;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsac_core::CompiledPolicy;
use xsac_crypto::chunk::ChunkLayout;
use xsac_crypto::{ChunkStore, FileStore, IntegrityScheme};
use xsac_net::{connect, ChunkServer, ClientConfig, DocRegistry, ServerHandle, ServiceSnapshot};
use xsac_soe::{
    run_session_shared, DocServer, ServerDoc, SessionConfig, SessionResult, SessionSpec,
};
use xsac_xml::Document;

/// Generator seed of the document corpus. The documents are fixed, so the
/// cost-model and byte metrics hold steady from run to run; `--seed`
/// draws the session sequences and the publish order.
const CORPUS_SEED: u64 = 2004;
/// Set-up is repeated at least `SETUP_REPS` times and for at least
/// `SETUP_SPAN`; `setup_s` is the median. One set-up takes milliseconds,
/// and this host's speed shifts from one second to the next, so a short
/// burst of repetitions would time whichever state it happened to hit.
const SETUP_REPS: usize = 21;
const SETUP_SPAN: Duration = Duration::from_secs(2);
/// How often the view workloads publish their document again between
/// sessions, which is where their `publish_mb_per_s` comes from.
const REPUBLISH_EVERY: Duration = Duration::from_secs(1);
/// Resident window of every file-backed store (server tenants and the
/// publisher's read-back).
const FILE_WINDOW: usize = 64 << 10;
/// Hospital scales of the in-process view workloads' documents (0.2 to
/// 0.45 MB of XML). Documents are kept small, so sessions take
/// milliseconds and a run completes thousands. Several sizes spread each
/// view kind's session times over several modes: on a host whose speed
/// flips between two states, a percentile inside one narrow mode jumps
/// with the share of time spent in each, while over several modes it
/// moves smoothly.
const VIEW_SCALES: [f64; 4] = [0.05, 0.07, 0.09, 0.11];
/// served-tcp: documents, their scale, the registry's open cap, the shared
/// pool budget as a share of all their ciphertext, and client threads.
const SERVED_DOCS: usize = 4;
const SERVED_SCALE: f64 = 0.05;
const SERVED_OPEN_CAP: usize = 2;
const SERVED_BUDGET_SHARE: f64 = 0.4;
const SERVED_CLIENTS: usize = 2;
/// publish: one document per scale, in seeded order.
const PUBLISH_SCALES: [f64; 7] = [0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ViewRules,
    ViewIntegrity,
    ServedTcp,
    Publish,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ViewRules, Workload::ViewIntegrity, Workload::ServedTcp, Workload::Publish];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ViewRules => "view-rules",
            Workload::ViewIntegrity => "view-integrity",
            Workload::ServedTcp => "served-tcp",
            Workload::Publish => "publish",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The session mix: each view kind with its weight per mix block. The
/// weights put p50 and p90 inside a mode of the (multimodal) session
/// times, not in a gap between two.
fn mix_of(workload: Workload) -> Vec<(ViewKind, usize)> {
    match workload {
        // Rule-heavy logins: compile + evaluate dominate, nothing is hashed.
        Workload::ViewRules => vec![
            (ViewKind::new("Researcher", Role::Researcher(10), "res"), 4),
            (ViewKind::new("SR", Role::Researcher(8), "sr"), 2),
            (ViewKind::new("JR", Role::Researcher(2), "jr"), 1),
            (ViewKind::doctor("Doctor", 1), 2),
        ],
        // Repeat subjects on a long-lived ECB-MHT server: decrypt and hash
        // dominate; the queries leave subtrees pending and read them back.
        Workload::ViewIntegrity => vec![
            (ViewKind::new("Sec", Role::Secretary, "sec"), 18),
            (ViewKind::doctor("FTD", 0), 3),
            (ViewKind::doctor("PTD", 6), 2),
            (ViewKind::doctor("FTD+q40", 0).with_query(40), 1),
            (ViewKind::doctor("FTD+q75", 0).with_query(75), 1),
            (ViewKind::doctor("PTD+q60", 6).with_query(60), 1),
        ],
        // Skip-heavy views: little is read per session, so the handshake,
        // round trips and the shared pool weigh.
        Workload::ServedTcp => vec![
            (ViewKind::new("Sec", Role::Secretary, "sec"), 1),
            (ViewKind::doctor("PTD", 6), 1),
            (ViewKind::new("JR", Role::Researcher(2), "jr"), 1),
        ],
        // The view read back from each freshly published document.
        Workload::Publish => vec![(ViewKind::new("Sec", Role::Secretary, "sec"), 1)],
    }
}

fn spec_of(view: &Prepared) -> SessionSpec {
    let spec = SessionSpec::new(view.kind.role_name(), view.policy.clone());
    match &view.query {
        Some(q) => spec.query(q.clone()),
        None => spec,
    }
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The session-derived fields of a sample.
fn sample_of(res: &SessionResult) -> ViewSample {
    ViewSample {
        phases: res.phases,
        cost: res.cost,
        card_s: res.time.total(),
        result_bytes: res.result_bytes as u64,
        handles_peak: res.handles_peak as u64,
        rules_out: res.compiler.rules_out as u64,
        token_ops: res.stats.token_ops as u64,
        ..ViewSample::default()
    }
}

fn check(view: &Prepared, res: &SessionResult) -> Result<(), String> {
    if view.matches(&res.log) {
        Ok(())
    } else {
        Err(format!("{}: view differs from the oracle's", view.kind.label))
    }
}

/// A view through a `DocServer`: the policy lookup (a compile on a cold
/// cache) timed on its own, then `serve`.
fn serve_view<S: ChunkStore>(
    server: &DocServer<S>,
    spec: &SessionSpec,
    view: &Prepared,
) -> Result<ViewSample, String> {
    let before = server.compiler_snapshot().compiles;
    let t = Instant::now();
    server.compiled_policy_mode(&spec.role, &spec.policy, spec.mode);
    let compile_ns = nanos(t);
    let t = Instant::now();
    let res = server.serve(spec).map_err(|e| format!("{}: {e}", view.kind.label))?;
    let session_ns = nanos(t);
    check(view, &res)?;
    Ok(ViewSample {
        wall_ns: compile_ns + session_ns,
        compile_ns,
        session_ns,
        compiles: (server.compiler_snapshot().compiles - before) as u64,
        ..sample_of(&res)
    })
}

/// XML text → parsed document → ECB-MHT ciphertext stored at `path`.
fn publish_file(text: &str, path: &Path) -> Result<(ServerDoc<FileStore>, PublishSample), String> {
    let t = Instant::now();
    let doc = Document::parse(text).map_err(|e| format!("parse: {e}"))?;
    let parse_ns = nanos(t);
    let t = Instant::now();
    let (stored, stats) = ServerDoc::prepare_to_store_with_stats(
        &doc,
        &key(),
        IntegrityScheme::EcbMht,
        ChunkLayout::default(),
        path,
        FILE_WINDOW,
    )
    .map_err(|e| format!("publish: {e}"))?;
    let sample = PublishSample {
        source_bytes: text.len() as u64,
        parse_ns,
        prepare_ns: nanos(t),
        stored_bytes: stored.stored_len() as u64,
        peak_buffered: stats.peak_buffered as u64,
        phases: stats.phases,
    };
    Ok((stored, sample))
}

/// XML text → parsed document → in-memory ciphertext under `scheme`.
fn publish_memory(
    text: &str,
    scheme: IntegrityScheme,
) -> Result<(ServerDoc, PublishSample), String> {
    let t = Instant::now();
    let doc = Document::parse(text).map_err(|e| format!("parse: {e}"))?;
    let parse_ns = nanos(t);
    let t = Instant::now();
    let prepared = ServerDoc::prepare(&doc, &key(), scheme, ChunkLayout::default());
    let sample = PublishSample {
        source_bytes: text.len() as u64,
        parse_ns,
        prepare_ns: nanos(t),
        stored_bytes: prepared.stored_len() as u64,
        ..PublishSample::default()
    };
    Ok((prepared, sample))
}

/// Whether set-up should be repeated again, after the `done` timed so far.
fn more_setup(done: &[f64]) -> bool {
    done.len() < SETUP_REPS || done.iter().sum::<f64>() < SETUP_SPAN.as_secs_f64()
}

/// What a workload's set-up produced, ready to measure.
pub struct Setup {
    workload: Workload,
    seed: u64,
    /// Wall seconds of each set-up repetition.
    setup_s: Vec<f64>,
    state: State,
    /// Facts that make runs comparable, one line each.
    pub describe: Vec<String>,
}

/// One in-memory document of view-rules or view-integrity.
struct MemoryDoc {
    server: DocServer,
    views: Vec<Prepared>,
    specs: Vec<SessionSpec>,
    text: String,
}

enum State {
    /// view-rules and view-integrity: in-memory documents.
    Memory { docs: Vec<MemoryDoc>, scheme: IntegrityScheme },
    /// served-tcp: per document, its id, views and text; and a file for
    /// publishing again.
    Served {
        handle: ServerHandle,
        ids: Vec<String>,
        views: Vec<Vec<Prepared>>,
        texts: Vec<String>,
        republish_path: PathBuf,
    },
    /// publish: per document, its text, file and read-back view.
    Publish { texts: Vec<String>, paths: Vec<PathBuf>, views: Vec<Prepared> },
}

/// Sets `workload` up from `seed`; files go under `work`.
pub fn setup(workload: Workload, seed: u64, work: &Path) -> Result<Setup, String> {
    let kinds: Vec<ViewKind> = mix_of(workload).into_iter().map(|(k, _)| k).collect();
    let mut setup_s = Vec::new();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (state, line) = match workload {
        Workload::ViewRules | Workload::ViewIntegrity => {
            setup_memory(workload, &kinds, &mut setup_s)?
        }
        Workload::ServedTcp => setup_served(&kinds, work, &mut setup_s)?,
        Workload::Publish => setup_publish(&kinds[0], &mut Rng::new(seed), work, &mut setup_s)?,
    };
    let describe = vec![format!("cpus={cpus} seed={seed} workload={}", workload.name()), line];
    Ok(Setup { workload, seed, setup_s, state, describe })
}

fn setup_memory(
    workload: Workload,
    kinds: &[ViewKind],
    setup_s: &mut Vec<f64>,
) -> Result<(State, String), String> {
    let scheme = match workload {
        Workload::ViewRules => IntegrityScheme::Ecb,
        _ => IntegrityScheme::EcbMht,
    };
    let sources: Vec<Source> = VIEW_SCALES
        .iter()
        .enumerate()
        .map(|(i, &scale)| Source::hospital(scale, CORPUS_SEED + 20 + i as u64))
        .collect();
    let mut servers = Vec::new();
    while more_setup(setup_s) {
        let t = Instant::now();
        servers.clear();
        for source in &sources {
            servers.push(DocServer::new(publish_memory(&source.text, scheme)?.0, key()));
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let sizes: Vec<String> = sources.iter().map(|s| s.text.len().to_string()).collect();
    let line = format!(
        "scales={VIEW_SCALES:?} source_bytes=[{}] scheme={scheme:?} store=memory \
         client_threads=1 connections=0 transport=in-process",
        sizes.join(",")
    );
    let mut docs = Vec::new();
    for (source, server) in sources.into_iter().zip(servers) {
        let views: Vec<Prepared> =
            kinds.iter().map(|k| Prepared::new(k, &server.doc().dict, &source.dom)).collect();
        let specs: Vec<SessionSpec> = views.iter().map(spec_of).collect();
        if workload == Workload::ViewIntegrity {
            // A long-lived server: policies compiled and leaves hashed
            // before the loop, as in steady state.
            for (view, spec) in views.iter().zip(&specs) {
                serve_view(&server, spec, view)?;
            }
        }
        docs.push(MemoryDoc { server, views, specs, text: source.text });
    }
    Ok((State::Memory { docs, scheme }, line))
}

fn setup_served(
    kinds: &[ViewKind],
    work: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<(State, String), String> {
    let sources: Vec<Source> = (0..SERVED_DOCS)
        .map(|i| Source::hospital(SERVED_SCALE, CORPUS_SEED + 1 + i as u64))
        .collect();
    let ids: Vec<String> = (0..SERVED_DOCS).map(|i| format!("hospital-{i}")).collect();
    let paths: Vec<PathBuf> =
        (0..SERVED_DOCS).map(|i| work.join(format!("served-{i}.ct"))).collect();
    let mut handle: Option<ServerHandle> = None;
    let (mut metas, mut budget) = (Vec::new(), 0);
    while more_setup(setup_s) {
        if let Some(old) = handle.take() {
            old.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
        }
        let t = Instant::now();
        metas.clear();
        for (source, path) in sources.iter().zip(&paths) {
            metas.push(publish_file(&source.text, path)?.0.meta());
        }
        let total: usize = metas.iter().map(|m| m.ciphertext_len).sum();
        budget = (total as f64 * SERVED_BUDGET_SHARE) as usize;
        let registry = DocRegistry::new(budget).with_max_open_docs(SERVED_OPEN_CAP);
        for ((id, meta), path) in ids.iter().zip(&metas).zip(&paths) {
            registry.insert_file(id.as_str(), meta.clone(), path);
        }
        let spawned = ChunkServer::with_registry(Arc::new(registry))
            .spawn("127.0.0.1:0")
            .map_err(|e| format!("spawn: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        handle = Some(spawned);
    }
    let sizes: Vec<String> = sources.iter().map(|s| s.text.len().to_string()).collect();
    let line = format!(
        "scale={SERVED_SCALE} docs={SERVED_DOCS} source_bytes=[{}] scheme=EcbMht store=file \
         pool_budget_bytes={budget} open_cap={SERVED_OPEN_CAP} client_threads={SERVED_CLIENTS} \
         connections={SERVED_CLIENTS} transport=tcp-loopback",
        sizes.join(",")
    );
    let views = sources
        .iter()
        .zip(&metas)
        .map(|(s, m)| kinds.iter().map(|k| Prepared::new(k, &m.dict, &s.dom)).collect())
        .collect();
    let handle = handle.expect("at least one set-up");
    let texts = sources.into_iter().map(|s| s.text).collect();
    let republish_path = work.join("republish.ct");
    Ok((State::Served { handle, ids, views, texts, republish_path }, line))
}

fn setup_publish(
    kind: &ViewKind,
    rng: &mut Rng,
    work: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<(State, String), String> {
    let mut docs: Vec<(f64, u64)> =
        PUBLISH_SCALES.iter().enumerate().map(|(i, &s)| (s, CORPUS_SEED + 10 + i as u64)).collect();
    rng.shuffle(&mut docs);
    let scales: Vec<f64> = docs.iter().map(|&(s, _)| s).collect();
    let sources: Vec<Source> = docs.iter().map(|&(s, d)| Source::hospital(s, d)).collect();
    // The publisher's set-up: each text parsed once, for the dictionary
    // the read-back view's policy is written against.
    let mut dicts = Vec::new();
    while more_setup(setup_s) {
        let t = Instant::now();
        dicts.clear();
        for s in &sources {
            dicts.push(Document::parse(&s.text).map_err(|e| format!("parse: {e}"))?.dict);
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let sizes: Vec<String> = sources.iter().map(|s| s.text.len().to_string()).collect();
    let line = format!(
        "scales={scales:?} source_bytes=[{}] scheme=EcbMht store=file client_threads=1 \
         connections=0 transport=in-process",
        sizes.join(",")
    );
    let views = sources.iter().zip(&dicts).map(|(s, d)| Prepared::new(kind, d, &s.dom)).collect();
    let paths = (0..sources.len()).map(|i| work.join(format!("publish-{i}.ct"))).collect();
    let texts = sources.into_iter().map(|s| s.text).collect();
    Ok((State::Publish { texts, paths, views }, line))
}

impl Setup {
    /// Labels of the view kinds, indexed by `ViewSample::kind`.
    pub fn labels(&self) -> Vec<&'static str> {
        mix_of(self.workload).into_iter().map(|(k, _)| k.label).collect()
    }

    /// Runs `op` on the entries of each client thread's mix until the
    /// schedule ends. Client 0 also calls `republish(k)` between two ops
    /// once every `REPUBLISH_EVERY`: publishing timed through the whole
    /// run, not in a fraction of a second of set-up, holds steady on a
    /// host whose speed drifts from minute to minute.
    fn closed_loop(
        &self,
        schedule: &Schedule,
        threads: usize,
        at_boundary: impl FnMut(usize),
        op: impl Fn(usize) -> Outcome + Sync,
        republish: Option<&(dyn Fn(usize) -> Result<PublishSample, String> + Sync)>,
    ) -> Vec<Tally> {
        // One entry per (document, view kind), or per published document.
        let kinds: Vec<usize> = mix_of(self.workload).into_iter().map(|(_, w)| w).collect();
        let weights = match &self.state {
            State::Memory { docs, .. } => kinds.repeat(docs.len()),
            State::Served { ids, .. } => kinds.repeat(ids.len()),
            State::Publish { texts, .. } => vec![1; texts.len()],
        };
        drive(schedule, threads, at_boundary, |thread, gate| {
            let mut mix = Mix::new(&weights, Rng::new(self.seed ^ (thread as u64 + 1)).next_u64());
            let mut tally = Tally::default();
            let (start, mut published) = (Instant::now(), 0);
            while let Some(seg) = gate.segment() {
                match republish {
                    Some(f) if thread == 0 && start.elapsed() >= REPUBLISH_EVERY * published => {
                        tally.record_publish(gate, seg, f(published as usize));
                        published += 1;
                    }
                    _ => tally.record(gate, seg, op(mix.next_index())),
                }
            }
            tally
        })
    }

    /// Runs the closed loop under `schedule`. Returns the samples and, on
    /// served-tcp, the server's snapshot at every segment boundary.
    pub fn measure(&self, schedule: Schedule) -> (Run, Vec<ServiceSnapshot>) {
        let mut snaps = Vec::new();
        let tallies = match &self.state {
            State::Memory { docs, scheme } if self.workload == Workload::ViewRules => {
                let config = SessionConfig::default();
                let per_doc = docs[0].views.len();
                let republish =
                    |k: usize| publish_memory(&docs[k % docs.len()].text, *scheme).map(|(_, p)| p);
                self.closed_loop(
                    &schedule,
                    1,
                    |_| {},
                    |i| {
                        // A fresh login: the client compiles its policy, then
                        // runs the session (what `run_session` does).
                        let (doc, kind) = (&docs[i / per_doc], i % per_doc);
                        let view = &doc.views[kind];
                        let t = Instant::now();
                        let compiled = Arc::new(CompiledPolicy::compile(&view.policy));
                        let compile_ns = nanos(t);
                        let t = Instant::now();
                        let res = run_session_shared(
                            doc.server.doc(),
                            &key(),
                            &compiled,
                            view.query.as_ref(),
                            &config,
                            None,
                        )
                        .map_err(|e| format!("{}: {e}", view.kind.label))?;
                        let session_ns = nanos(t);
                        check(view, &res)?;
                        let sample = ViewSample {
                            kind,
                            wall_ns: compile_ns + session_ns,
                            compile_ns,
                            session_ns,
                            compiles: 1,
                            ..sample_of(&res)
                        };
                        Ok((None, sample))
                    },
                    Some(&republish),
                )
            }
            State::Memory { docs, scheme } => {
                let per_doc = docs[0].views.len();
                let republish =
                    |k: usize| publish_memory(&docs[k % docs.len()].text, *scheme).map(|(_, p)| p);
                self.closed_loop(
                    &schedule,
                    1,
                    |_| {},
                    |i| {
                        let (doc, kind) = (&docs[i / per_doc], i % per_doc);
                        let sample = serve_view(&doc.server, &doc.specs[kind], &doc.views[kind])?;
                        Ok((None, ViewSample { kind, ..sample }))
                    },
                    Some(&republish),
                )
            }
            State::Served { handle, ids, views, texts, republish_path } => {
                let addr = handle.addr();
                let per_doc = views[0].len();
                let at_boundary = |_| snaps.push(handle.service_snapshot());
                let republish = |k: usize| {
                    publish_file(&texts[k % texts.len()], republish_path).map(|(_, p)| p)
                };
                let op = |i: usize| {
                    // One connection per session: connect, serve, drop.
                    let (doc, kind) = (i / per_doc, i % per_doc);
                    let view = &views[doc][kind];
                    let spec = spec_of(view);
                    let t = Instant::now();
                    let remote = connect(addr, &ids[doc], ClientConfig::default())
                        .map_err(|e| format!("{}: {e}", view.kind.label))?;
                    let connect_ns = nanos(t);
                    let server = DocServer::new(remote, key());
                    let sample = serve_view(&server, &spec, view)?;
                    let stats = server.doc().protected.store.stats();
                    let sample = ViewSample {
                        kind,
                        wall_ns: sample.wall_ns + connect_ns,
                        connect_ns,
                        round_trips: stats.round_trips,
                        rtt_sum_ns: stats.latency.sum(),
                        rtt_count: stats.latency.count(),
                        refetched_chunks: stats.chunks_refetched,
                        ..sample
                    };
                    Ok((None, sample))
                };
                self.closed_loop(&schedule, SERVED_CLIENTS, at_boundary, op, Some(&republish))
            }
            State::Publish { texts, paths, views } => self.closed_loop(
                &schedule,
                1,
                |_| {},
                |i| {
                    let (stored, publish) = publish_file(&texts[i], &paths[i])?;
                    let view =
                        serve_view(&DocServer::new(stored, key()), &spec_of(&views[i]), &views[i])?;
                    Ok((Some(publish), view))
                },
                None,
            ),
        };
        (Run { schedule, tallies }, snaps)
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self, run: &Run, snaps: &[ServiceSnapshot], report: &mut Report) {
        let ctx = Context {
            setup_s: &self.setup_s,
            wire_bytes: (!snaps.is_empty())
                .then(|| over_segments(&run.schedule, snaps, false, |s| s.bytes_served)),
        };
        crate::measure::end_to_end(run, &ctx, report);
    }

    /// The server-side per-layer metrics of a traced run, over its
    /// telemetry-on segments (zero where no server runs).
    pub fn server_layers(&self, run: &Run, snaps: &[ServiceSnapshot], report: &mut Report) {
        let views = run.views(true).len() as u64;
        let on = |f: fn(&ServiceSnapshot) -> u64| {
            if snaps.is_empty() {
                0
            } else {
                over_segments(&run.schedule, snaps, true, f)
            }
        };
        let (requests, request_ns) =
            (on(|s| s.request_latency.count()), on(|s| s.request_latency.sum()));
        let mean_us = if requests == 0 { 0.0 } else { request_ns as f64 * 1e-3 / requests as f64 };
        report.push("net.server_request_mean_us", "us", mean_us, requests);
        let per_view = |n: u64| n as f64 / views.max(1) as f64;
        report.push(
            "net.pool_evictions",
            "count/view",
            per_view(on(|s| s.registry.pool_evictions)),
            views,
        );
        report.push(
            "net.pool_refetches",
            "count/view",
            per_view(on(|s| s.registry.pool_refetches)),
            views,
        );
        report.push("net.doc_opens", "count/view", per_view(on(|s| s.registry.doc_opens)), views);
        let peak = snaps.last().map_or(0, |s| s.registry.resident_bytes_peak);
        report.push("net.resident_peak_kb", "KB", peak as f64 / 1000.0, 1);
    }

    /// Stops what the set-up started.
    pub fn close(self) -> Result<(), String> {
        match self.state {
            State::Served { handle, .. } => {
                handle.shutdown().map_err(|e| format!("server shutdown: {e}"))
            }
            _ => Ok(()),
        }
    }
}

/// Σ over the segments whose telemetry is `on` of a counter's growth
/// (`snaps[k]` is taken as segment `k` starts, the last one at the end).
fn over_segments(
    schedule: &Schedule,
    snaps: &[ServiceSnapshot],
    on: bool,
    f: fn(&ServiceSnapshot) -> u64,
) -> u64 {
    (0..schedule.telemetry.len())
        .filter(|&k| schedule.telemetry[k] == on)
        .map(|k| f(&snaps[k + 1]).saturating_sub(f(&snaps[k])))
        .sum()
}
