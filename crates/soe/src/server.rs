//! Multi-session serving: one protected document, many concurrently
//! served subjects.
//!
//! The paper's deployment scenario is an untrusted store serving *many*
//! differently-privileged clients of the same published document (§2).
//! Everything that does not depend on a single session is shared here,
//! per document:
//!
//! * a cross-session **terminal Merkle tree cache** ([`LeafCache`]): under
//!   ECB-MHT, a chunk's Merkle tree is built once per *document* (first
//!   toucher pays, lock-free warm reads), not once per session;
//! * a per-role **compiled-policy cache**: rule automata and
//!   `USER`-resolved comparison literals compile once per role
//!   ([`CompiledPolicy`]) and are shared by every session of that role.
//!
//! Sessions themselves stay fully independent (`Evaluator` is `Send`, its
//! state is per-session), so [`DocServer::serve_concurrent`] fans them out
//! over `std::thread::scope` with no synchronization on the hot path. The
//! shared caches change *metering* only in the documented way
//! (`AccessCost::terminal_bytes_hashed` is paid by the first toucher);
//! delivery logs and every SOE-side cost are byte-identical to running
//! each session alone — the `multi_session` differential test pins this.

use crate::cost::CostModel;
use crate::document::ServerDoc;
use crate::session::{run_session_shared, SessionConfig, SessionError, SessionResult, Strategy};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xsac_core::{CompiledPolicy, CompilerMode, Policy};
use xsac_crypto::store::{ChunkStore, MemStore};
use xsac_crypto::{LeafCache, TripleDes};
use xsac_xpath::Automaton;

/// One requested session: a subject (role) with its policy, optional
/// query and configuration.
pub struct SessionSpec {
    /// Role name — the compiled-policy cache key together with the
    /// policy's subject. Sessions passing the same role *and* subject
    /// reuse the automata compiled for the first one; the caller must
    /// keep `(role, subject)` ↔ rule-set consistent. Distinct subjects
    /// never share a compilation (their `USER` comparisons differ).
    pub role: String,
    /// The role's access-control policy.
    pub policy: Policy,
    /// Optional per-session query.
    pub query: Option<Automaton>,
    /// Session configuration.
    pub config: SessionConfig,
    /// Policy-compiler mode. [`CompilerMode::Minimized`] (the default)
    /// drops containment-redundant rules at compile time;
    /// [`CompilerMode::Unminimized`] keeps the policy verbatim (the A/B
    /// escape hatch used by the differential tests and benchmarks).
    pub mode: CompilerMode,
}

impl SessionSpec {
    /// A TCSBR session under the smartcard cost model.
    pub fn new(role: impl Into<String>, policy: Policy) -> SessionSpec {
        SessionSpec {
            role: role.into(),
            policy,
            query: None,
            config: SessionConfig { strategy: Strategy::Tcsbr, cost: CostModel::smartcard() },
            mode: CompilerMode::default(),
        }
    }

    /// Sets the consumption strategy.
    pub fn strategy(mut self, strategy: Strategy) -> SessionSpec {
        self.config.strategy = strategy;
        self
    }

    /// Sets the query.
    pub fn query(mut self, query: Automaton) -> SessionSpec {
        self.query = Some(query);
        self
    }

    /// Sets the policy-compiler mode.
    pub fn compiler_mode(mut self, mode: CompilerMode) -> SessionSpec {
        self.mode = mode;
        self
    }
}

/// Aggregate policy-compiler activity across a [`DocServer`]'s lifetime:
/// how often compilation ran versus hit the cache, and how much the
/// minimizer shrank the rule sets it saw. Hit/miss accounting is what
/// catches cache-key regressions (a key missing the compiler mode would
/// show hits where compiles belong — and serve the wrong automata).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompilerSnapshot {
    /// Fresh compilations (cache misses).
    pub compiles: usize,
    /// Requests served from the compiled-policy cache.
    pub cache_hits: usize,
    /// Total rules fed to the compiler across all fresh compilations.
    pub rules_in: usize,
    /// Total rules dropped as containment-redundant.
    pub rules_dropped: usize,
}

/// A published document plus the state every session over it can share,
/// generic over where the ciphertext lives: in memory ([`MemStore`], the
/// default) or out-of-core behind a bounded resident window
/// ([`xsac_crypto::FileStore`]) — N concurrent sessions over one
/// file-backed document stay O(window), not O(document), and
/// [`DocServer::resident_bytes_peak`] proves it.
pub struct DocServer<S: ChunkStore = MemStore> {
    doc: ServerDoc<S>,
    key: TripleDes,
    /// Cross-session terminal leaf-hash cache (ECB-MHT; harmless for the
    /// other schemes, which never consult it).
    leaves: Arc<LeafCache>,
    /// Compiled rule automata, one entry per `(role, subject, mode)`. The
    /// subject is part of the key because compilation resolves `USER`
    /// against it: two subjects sharing a role name must never share the
    /// other's resolved comparisons. The compiler mode is part of the key
    /// because minimized and unminimized compilations of one policy are
    /// different artifacts — an A/B session asking for the unminimized
    /// build must never be handed the minimized one (or vice versa).
    policies: Mutex<HashMap<(String, String, CompilerMode), Arc<CompiledPolicy>>>,
    /// Fresh compilations performed (compiler observability).
    compiles: AtomicUsize,
    /// Compiled-policy cache hits.
    cache_hits: AtomicUsize,
    /// Σ rules fed to the compiler over all fresh compilations.
    rules_in: AtomicUsize,
    /// Σ rules dropped by minimization over all fresh compilations.
    rules_dropped: AtomicUsize,
}

impl<S: ChunkStore> DocServer<S> {
    /// Wraps a prepared document for multi-session serving.
    pub fn new(doc: ServerDoc<S>, key: TripleDes) -> DocServer<S> {
        let leaves = Arc::new(LeafCache::for_doc(&doc.protected));
        DocServer {
            doc,
            key,
            leaves,
            policies: Mutex::new(HashMap::new()),
            compiles: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            rules_in: AtomicUsize::new(0),
            rules_dropped: AtomicUsize::new(0),
        }
    }

    /// The underlying prepared document.
    pub fn doc(&self) -> &ServerDoc<S> {
        &self.doc
    }

    /// High-water mark of ciphertext-derived bytes resident in memory
    /// (store window + every session's staging buffers), when the
    /// backend meters residency — `None` for in-memory stores, where the
    /// whole document is resident by construction. The bounded-memory
    /// regression tests pin `peak ≤ window × sessions ≪ document`.
    pub fn resident_bytes_peak(&self) -> Option<u64> {
        self.doc.protected.store.meter().map(|m| m.resident_bytes_peak())
    }

    /// The shared terminal leaf-hash cache (diagnostics: how many chunks
    /// are warm).
    pub fn leaf_cache(&self) -> &Arc<LeafCache> {
        &self.leaves
    }

    /// The compiled policy for a `(role, subject, mode)` triple, compiling
    /// (and caching) on first use. The subject comes from
    /// `policy.subject` — `USER` comparisons are resolved against it at
    /// compile time, so each subject gets its own compilation even within
    /// one role; the mode is part of the key so minimized and unminimized
    /// builds of one policy never shadow each other. The lock guards only
    /// the map — compilation of a novel triple happens outside any
    /// session's hot path.
    pub fn compiled_policy_mode(
        &self,
        role: &str,
        policy: &Policy,
        mode: CompilerMode,
    ) -> Arc<CompiledPolicy> {
        let key = (role.to_owned(), policy.subject.clone(), mode);
        if let Some(hit) = self.policies.lock().expect("policy cache").get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let compiled = Arc::new(CompiledPolicy::with_mode(policy, mode));
        let mut cache = self.policies.lock().expect("policy cache");
        match cache.entry(key) {
            Entry::Occupied(e) => {
                // Another thread compiled the same triple while we did;
                // its artifact wins so every session of the triple shares
                // one Arc, and our duplicate work counts as a hit.
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(e.get())
            }
            Entry::Vacant(v) => {
                let stats = compiled.minimize_stats();
                self.compiles.fetch_add(1, Ordering::Relaxed);
                self.rules_in.fetch_add(stats.rules_in, Ordering::Relaxed);
                self.rules_dropped.fetch_add(stats.rules_dropped(), Ordering::Relaxed);
                Arc::clone(v.insert(compiled))
            }
        }
    }

    /// Number of `(role, subject, mode)` triples whose policies are
    /// compiled and cached.
    pub fn cached_roles(&self) -> usize {
        self.policies.lock().expect("policy cache").len()
    }

    /// Aggregate policy-compiler activity since the server was created.
    pub fn compiler_snapshot(&self) -> CompilerSnapshot {
        CompilerSnapshot {
            compiles: self.compiles.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            rules_in: self.rules_in.load(Ordering::Relaxed),
            rules_dropped: self.rules_dropped.load(Ordering::Relaxed),
        }
    }

    /// Runs one session against the shared caches.
    pub fn serve(&self, spec: &SessionSpec) -> Result<SessionResult, SessionError> {
        let compiled = self.compiled_policy_mode(&spec.role, &spec.policy, spec.mode);
        run_session_shared(
            &self.doc,
            &self.key,
            &compiled,
            spec.query.as_ref(),
            &spec.config,
            Some(&self.leaves),
        )
    }

    /// Runs the sessions one after another on the calling thread (shared
    /// caches, no parallelism) — the batch counterpart of
    /// [`DocServer::serve_concurrent`], and the reference ordering for the
    /// determinism tests.
    pub fn serve_batch(&self, specs: &[SessionSpec]) -> Vec<Result<SessionResult, SessionError>> {
        specs.iter().map(|s| self.serve(s)).collect()
    }

    /// Fans the sessions out over `threads` scoped worker threads (shared
    /// caches, work-stealing by atomic index). Results come back in spec
    /// order. `threads == 0` is treated as 1.
    pub fn serve_concurrent(
        &self,
        specs: &[SessionSpec],
        threads: usize,
    ) -> Vec<Result<SessionResult, SessionError>> {
        let threads = threads.max(1).min(specs.len().max(1));
        if threads == 1 {
            return self.serve_batch(specs);
        }
        // Pre-compile every role up front so workers never contend on the
        // policy-cache lock mid-stream.
        for spec in specs {
            self.compiled_policy_mode(&spec.role, &spec.policy, spec.mode);
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<SessionResult, SessionError>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let res = self.serve(&specs[i]);
                    *slots[i].lock().expect("result slot") = Some(res);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("result slot").expect("worker filled every slot"))
            .collect()
    }
}

// The server is shared by reference across scoped threads: it (and the
// full session machinery it drives) must be `Sync`.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<DocServer>();
    assert_sync::<DocServer<xsac_crypto::FileStore>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use xsac_core::output::reassemble_to_string;
    use xsac_core::Sign;
    use xsac_crypto::chunk::ChunkLayout;
    use xsac_crypto::IntegrityScheme;
    use xsac_xml::Document;

    fn server(xml: &str, scheme: IntegrityScheme) -> DocServer {
        let doc = Document::parse(xml).unwrap();
        let key = TripleDes::new(*b"0123456789abcdefFEDCBA98");
        let prepared = ServerDoc::prepare(
            &doc,
            &key,
            scheme,
            ChunkLayout { chunk_size: 256, fragment_size: 32 },
        );
        DocServer::new(prepared, key)
    }

    fn spec(role: &str, rules: &[(Sign, &str)], server: &DocServer) -> SessionSpec {
        let mut dict = server.doc().dict.clone();
        SessionSpec::new(role, Policy::parse(role, rules, &mut dict).unwrap())
    }

    #[test]
    fn serve_matches_run_session() {
        let s = server("<a><b><c>keep</c><d>1</d></b><e>deny</e></a>", IntegrityScheme::EcbMht);
        let sp = spec("u", &[(Sign::Permit, "//b[d=1]"), (Sign::Deny, "//e")], &s);
        let served = s.serve(&sp).unwrap();
        let direct = run_session_shared(
            s.doc(),
            &TripleDes::new(*b"0123456789abcdefFEDCBA98"),
            &Arc::new(CompiledPolicy::compile(&sp.policy)),
            None,
            &sp.config,
            None,
        )
        .unwrap();
        let dict = s.doc().dict.clone();
        assert_eq!(
            reassemble_to_string(&dict, &served.log),
            reassemble_to_string(&dict, &direct.log)
        );
    }

    #[test]
    fn policy_cache_compiles_each_role_once() {
        let s = server("<a><b>x</b></a>", IntegrityScheme::Ecb);
        let sp = spec("doctor", &[(Sign::Permit, "//b")], &s);
        let c1 = s.compiled_policy_mode(&sp.role, &sp.policy, CompilerMode::default());
        let c2 = s.compiled_policy_mode(&sp.role, &sp.policy, CompilerMode::default());
        assert!(Arc::ptr_eq(&c1, &c2), "same role must share one compiled policy");
        assert_eq!(s.cached_roles(), 1);
        let other = spec("secretary", &[(Sign::Permit, "//a")], &s);
        let c3 = s.compiled_policy_mode(&other.role, &other.policy, CompilerMode::default());
        assert!(!Arc::ptr_eq(&c1, &c3));
        assert_eq!(s.cached_roles(), 2);
    }

    #[test]
    fn compiler_mode_is_part_of_the_cache_key() {
        // Minimized and unminimized builds of one (role, subject) must be
        // distinct cache entries: ⊕//b ⊇ ⊕//b/c, so the minimized build
        // drops a rule the unminimized one keeps.
        let s = server("<a><b><c>x</c></b></a>", IntegrityScheme::Ecb);
        let sp = spec("doctor", &[(Sign::Permit, "//b"), (Sign::Permit, "//b/c")], &s);
        let min = s.compiled_policy_mode(&sp.role, &sp.policy, CompilerMode::Minimized);
        let raw = s.compiled_policy_mode(&sp.role, &sp.policy, CompilerMode::Unminimized);
        assert!(!Arc::ptr_eq(&min, &raw), "modes must not share a cache slot");
        assert_eq!(min.rule_count(), 1);
        assert_eq!(raw.rule_count(), 2);
        assert_eq!(s.cached_roles(), 2);
        // And each mode still hits its own entry.
        let min2 = s.compiled_policy_mode(&sp.role, &sp.policy, CompilerMode::Minimized);
        assert!(Arc::ptr_eq(&min, &min2));
        let snap = s.compiler_snapshot();
        assert_eq!(snap.compiles, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.rules_in, 4);
        assert_eq!(snap.rules_dropped, 1);
    }

    #[test]
    fn session_result_carries_minimize_stats() {
        let s = server("<a><b><c>x</c></b></a>", IntegrityScheme::Ecb);
        let sp = spec("doctor", &[(Sign::Permit, "//b"), (Sign::Permit, "//b/c")], &s);
        let res = s.serve(&sp).unwrap();
        assert_eq!(res.compiler.rules_in, 2);
        assert_eq!(res.compiler.rules_out, 1);
        assert!(res.compiler.ir_instructions > 0);
        let raw = s
            .serve(
                &spec("doctor", &[(Sign::Permit, "//b"), (Sign::Permit, "//b/c")], &s)
                    .compiler_mode(CompilerMode::Unminimized),
            )
            .unwrap();
        assert_eq!(raw.compiler.rules_dropped(), 0);
        let dict = s.doc().dict.clone();
        assert_eq!(
            reassemble_to_string(&dict, &res.log),
            reassemble_to_string(&dict, &raw.log),
            "minimization must not change the view"
        );
    }

    #[test]
    fn same_role_distinct_subjects_never_share_a_compilation() {
        // `USER` resolves at compile time: caching by role alone would
        // hand subject B the view compiled for subject A. Each subject
        // must get its own compilation — and its own view.
        let xml = "<r><act><phys>alice</phys><data>for alice</data></act>\
                   <act><phys>bob</phys><data>for bob</data></act></r>";
        let s = server(xml, IntegrityScheme::EcbMht);
        let rules: &[(Sign, &str)] = &[(Sign::Permit, "//act[phys = USER]")];
        let mut dict = s.doc().dict.clone();
        let alice = SessionSpec::new("clerk", Policy::parse("alice", rules, &mut dict).unwrap());
        let mut dict = s.doc().dict.clone();
        let bob = SessionSpec::new("clerk", Policy::parse("bob", rules, &mut dict).unwrap());
        let ca = s.compiled_policy_mode(&alice.role, &alice.policy, CompilerMode::default());
        let cb = s.compiled_policy_mode(&bob.role, &bob.policy, CompilerMode::default());
        assert!(!Arc::ptr_eq(&ca, &cb), "distinct subjects must not share a compilation");
        assert_eq!(s.cached_roles(), 2);
        let dict = s.doc().dict.clone();
        let view_a = reassemble_to_string(&dict, &s.serve(&alice).unwrap().log);
        let view_b = reassemble_to_string(&dict, &s.serve(&bob).unwrap().log);
        assert!(view_a.contains("for alice") && !view_a.contains("for bob"), "{view_a}");
        assert!(view_b.contains("for bob") && !view_b.contains("for alice"), "{view_b}");
    }

    #[test]
    fn warm_second_session_rehashes_nothing() {
        let mut xml = String::from("<a>");
        for i in 0..80 {
            xml.push_str(&format!("<r><k>keep {i}</k><d>drop {i}</d></r>"));
        }
        xml.push_str("</a>");
        let s = server(&xml, IntegrityScheme::EcbMht);
        let sp = spec("u", &[(Sign::Permit, "//k")], &s);
        let cold = s.serve(&sp).unwrap();
        assert!(cold.cost.terminal_bytes_hashed > 0, "first session pays the hashing");
        let warm = s.serve(&sp).unwrap();
        assert_eq!(warm.cost.terminal_bytes_hashed, 0, "warm session re-hashes zero leaf bytes");
        // Every other cost is unchanged by the shared cache.
        assert_eq!(warm.cost.bytes_to_soe, cold.cost.bytes_to_soe);
        assert_eq!(warm.cost.bytes_decrypted, cold.cost.bytes_decrypted);
        assert_eq!(warm.cost.bytes_hashed, cold.cost.bytes_hashed);
    }

    #[test]
    fn concurrent_results_in_spec_order() {
        let s = server("<a><b>x</b><c>y</c></a>", IntegrityScheme::EcbMht);
        let specs: Vec<SessionSpec> = (0..8)
            .map(|i| {
                let rule = if i % 2 == 0 { "//b" } else { "//c" };
                spec(if i % 2 == 0 { "even" } else { "odd" }, &[(Sign::Permit, rule)], &s)
            })
            .collect();
        let dict = s.doc().dict.clone();
        let results = s.serve_concurrent(&specs, 4);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            let out = reassemble_to_string(&dict, &r.as_ref().unwrap().log);
            if i % 2 == 0 {
                assert_eq!(out, "<a><b>x</b></a>", "slot {i}");
            } else {
                assert_eq!(out, "<a><c>y</c></a>", "slot {i}");
            }
        }
    }
}
