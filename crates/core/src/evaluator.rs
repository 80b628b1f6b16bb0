//! The streaming access-control evaluator (§3), with skip-index driven
//! subtree decisions (§3.3, §4.2) and pending-predicate management (§5).
//!
//! # Driving the evaluator
//!
//! Feed SAX events through [`Evaluator::event`] (or [`Evaluator::open`] /
//! [`Evaluator::text`] / [`Evaluator::close`] when skip-index metadata is
//! available). Calls return a [`Directive`] advising the driver about the
//! subtree that was just opened (or, on close, about the *remaining content*
//! of the parent):
//!
//! * [`Directive::Continue`] — keep feeding events normally;
//! * [`Directive::Deliver`] — the whole subtree is authorized and inside
//!   the query scope; the driver *may* bulk-feed its events through
//!   [`Evaluator::raw_event`], bypassing the automata;
//! * [`Directive::SkipDeny`] — nothing inside the subtree can be delivered;
//!   the driver *may* skip the encrypted bytes entirely and call
//!   [`Evaluator::skip_close`];
//! * [`Directive::SkipPending`] — the subtree's delivery hangs on a fixed
//!   pending condition and nothing inside can change any automaton state;
//!   the driver *may* skip and register a readback handle via
//!   [`Evaluator::skip_close`].
//!
//! Directives are *permissions*, not obligations: a driver that ignores
//! them and keeps feeding events produces the same authorized view — only
//! the costs differ. This invariant is exercised by the differential tests.

use crate::authstack::{AuthEntry, AuthLevel, AuthStack, Decision};
use crate::condition::{Cond, Ternary};
use crate::output::{
    Disposition, LogItem, OutputBuilder, OutputStats, ReadbackRequest, SubtreeRef,
};
use crate::predicate::PredRegistry;
use crate::rule::{Policy, Sign};
use crate::stats::EvalStats;
use crate::token::{ArmedCmp, Bindings, NavToken, PredToken, RuleRef, TokenLevel, TokenStack};
use std::sync::Arc;
use xsac_xml::{Event, TagId};
use xsac_xpath::ir::OWNER_QUERY;
use xsac_xpath::{Automaton, InstrSeq, Value};

/// Advisory returned to the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Directive {
    /// Keep feeding events.
    Continue,
    /// Whole subtree authorized: bulk delivery allowed (`raw_event`).
    Deliver,
    /// Whole subtree denied: skipping allowed (`skip_close`).
    SkipDeny,
    /// Whole subtree pending under a fixed condition: skipping allowed
    /// (`skip_close` with a readback handle).
    SkipPending,
}

/// Skip-index metadata attached to an open event by index-aware drivers.
/// A driver that passes it can skip the opened subtree and read it back
/// later, so [`Evaluator::open`] may answer [`Directive::SkipPending`].
#[derive(Clone, Debug, Default)]
pub struct SkipInfo<'a> {
    /// `DescTag_e`: the sorted tags occurring strictly below the opened
    /// element (enables the §4.2 token filter).
    pub desc_tags: Option<&'a [TagId]>,
}

/// Evaluator configuration.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Emit skip/deliver directives and prune decided-subtree tokens
    /// (§3.3). With `false` the evaluator always answers `Continue` —
    /// the brute-force mode used as a baseline and in differential tests.
    pub enable_skip_directives: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig { enable_skip_directives: true }
    }
}

/// Result of an evaluation.
#[derive(Debug)]
pub struct EvalResult {
    /// The delivery log (reassemble with [`crate::output::reassemble`]).
    pub log: Vec<LogItem>,
    /// Output-side statistics.
    pub output: OutputStats,
    /// Evaluator statistics.
    pub stats: EvalStats,
}

/// How a [`CompiledPolicy`] was built. Part of any compiled-policy cache
/// key: a cached unminimized policy must never be served where a minimized
/// one is expected (and vice versa in differential tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CompilerMode {
    /// Containment-based rule minimization ran before IR generation (the
    /// default).
    #[default]
    Minimized,
    /// Every source rule compiled as written (differential baseline).
    Unminimized,
}

/// What the policy compiler did, recorded at build time for observability
/// (surfaces on `SessionResult` and in the dissemination service
/// snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Rules in the source policy.
    pub rules_in: usize,
    /// Rules surviving minimization (== `rules_in` when unminimized).
    pub rules_out: usize,
    /// Same-signed containment pairs proven during minimization.
    pub containment_pairs: usize,
    /// Instructions in the flat IR bank.
    pub ir_instructions: usize,
    /// Predicate paths in the flat IR bank.
    pub ir_predicates: usize,
}

impl MinimizeStats {
    /// Rules dropped by minimization.
    pub fn rules_dropped(&self) -> usize {
        self.rules_in - self.rules_out
    }
}

/// A policy compiled for the evaluator by the two-stage policy compiler:
///
/// 1. **Minimization** (§3.3): rules proven redundant under the sufficient
///    containment condition — a deny subsumed by a broader deny, an allow
///    shadowed next to an ancestor deny-rest, duplicate/mutually-contained
///    same-signed rules — are dropped before any automaton is laid out,
///    shrinking the bank every event is run against. Recorded in
///    [`MinimizeStats`]; disabled by [`CompilerMode::Unminimized`] (through
///    [`CompiledPolicy::with_mode`]) for differential testing.
/// 2. **Flat IR**: the surviving automata are merged into one contiguous
///    [`InstrSeq`] with `USER`-resolved comparison literals indexed by
///    global predicate id.
///
/// Sharing the result via `Arc` lets a multi-session server pay the
/// compile cost **once per (role, mode)** instead of once per session
/// ([`Evaluator::with_compiled`]). The type is `Send + Sync`, so one
/// compiled policy can serve any number of concurrent sessions.
pub struct CompiledPolicy {
    /// Merged instruction bank of the surviving rules.
    ir: InstrSeq,
    /// Rule signs, indexed by owner (surviving-rule index).
    signs: Vec<Sign>,
    /// Comparison literals with `USER` resolved, indexed by *global*
    /// predicate id.
    cmp_values: Vec<Option<Arc<str>>>,
    mode: CompilerMode,
    stats: MinimizeStats,
}

impl CompiledPolicy {
    /// Compiles a policy with minimization on (the production path).
    pub fn compile(policy: &Policy) -> CompiledPolicy {
        Self::with_mode(policy, CompilerMode::Minimized)
    }

    /// Compiles a policy under an explicit [`CompilerMode`].
    pub fn with_mode(policy: &Policy, mode: CompilerMode) -> CompiledPolicy {
        let rules_in = policy.rules.len();
        let (kept, containment_pairs): (Vec<&crate::rule::Rule>, usize) = match mode {
            CompilerMode::Unminimized => (policy.rules.iter().collect(), 0),
            CompilerMode::Minimized => {
                let signed: Vec<(bool, xsac_xpath::Path)> =
                    policy.rules.iter().map(|r| (r.sign.is_permit(), r.path.clone())).collect();
                let report = xsac_xpath::redundant_rules_report(&signed);
                let kept = policy
                    .rules
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !report.redundant.contains(i))
                    .map(|(_, r)| r)
                    .collect();
                (kept, report.containment_pairs)
            }
        };
        let ir = InstrSeq::compile(kept.iter().map(|r| &r.automaton));
        let signs: Vec<Sign> = kept.iter().map(|r| r.sign).collect();
        let subject = policy.subject.as_str();
        let cmp_values: Vec<Option<Arc<str>>> =
            kept.iter()
                .flat_map(|r| {
                    r.automaton.preds.iter().map(move |p| {
                        p.comparison.as_ref().map(|(_, v)| Arc::from(v.resolve(subject)))
                    })
                })
                .collect();
        let stats = MinimizeStats {
            rules_in,
            rules_out: signs.len(),
            containment_pairs,
            ir_instructions: ir.len(),
            ir_predicates: ir.preds.len(),
        };
        CompiledPolicy { ir, signs, cmp_values, mode, stats }
    }

    /// Number of compiled (surviving) rules.
    pub fn rule_count(&self) -> usize {
        self.signs.len()
    }

    /// The mode this policy was compiled under.
    pub fn mode(&self) -> CompilerMode {
        self.mode
    }

    /// What the compiler did (minimization + IR size).
    pub fn minimize_stats(&self) -> &MinimizeStats {
        &self.stats
    }
}

/// Per-session instruction bank: the role's shared IR extended with the
/// session's query automaton (owner [`OWNER_QUERY`]). Built only when a
/// query exists; query-less sessions evaluate the shared bank directly.
struct SessionIr {
    ir: InstrSeq,
    /// Extended comparison table (rule literals + query literals, by
    /// global predicate id). Query `USER` resolves to `""` — queries have
    /// no subject.
    cmp_values: Vec<Option<Arc<str>>>,
}

/// The streaming evaluator.
pub struct Evaluator {
    policy: Arc<CompiledPolicy>,
    /// Query-extended instruction bank; `None` when the session has no
    /// query (the policy's shared bank is used as-is).
    extended: Option<Box<SessionIr>>,
    config: EvalConfig,
    tokens: TokenStack,
    auth: AuthStack,
    registry: PredRegistry,
    output: OutputBuilder,
    stats: EvalStats,
    /// Document depth (0 before the root opens).
    depth: u32,
    /// Open tags of currently open elements (for close bookkeeping).
    open_tags: Vec<TagId>,
    /// Deferred output action for the element just opened (lets
    /// `skip_close` replace an element entry by a skiptree entry).
    pending_open: Option<(TagId, Disposition)>,
    /// Depth of nested raw (bulk-delivery) elements inside the current
    /// raw subtree.
    raw_depth: u32,
    raw_active: bool,
    /// Recycled token levels: popped on close, reused by the next open, so
    /// the steady-state event loop allocates nothing (§ scratch buffers).
    free_levels: Vec<TokenLevel>,
    /// Recycled authorization levels (same lifecycle).
    free_auth: Vec<AuthLevel>,
    /// Scratch: rule-predicate satisfactions recognized by this event.
    rule_sats: Vec<crate::condition::PredInstId>,
    /// Scratch: query-predicate satisfactions recognized by this event.
    query_sats: Vec<crate::condition::PredInstId>,
    /// Scratch: binding accumulation for `advance_nav`.
    bindings_buf: Vec<(u32, crate::condition::PredInstId)>,
}

// The multi-session serving layer fans sessions out over threads; the
// evaluator, its shared compiled policy and its results must stay `Send`
// (checked at compile time — an accidental `Rc`/`RefCell` regression
// anywhere in the token/auth/pending machinery fails here).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Evaluator>();
    assert_send::<EvalResult>();
    assert_send::<CompiledPolicy>();
    assert_sync::<CompiledPolicy>();
};

impl Evaluator {
    /// Creates an evaluator for a policy, an optional query, and a config.
    ///
    /// Compiles the policy privately; sessions sharing one policy should
    /// compile once and use [`Evaluator::with_compiled`].
    pub fn new(policy: &Policy, query: Option<&Automaton>, config: EvalConfig) -> Evaluator {
        Evaluator::with_compiled(Arc::new(CompiledPolicy::compile(policy)), query, config)
    }

    /// Creates an evaluator over an already-compiled (shared) policy.
    pub fn with_compiled(
        policy: Arc<CompiledPolicy>,
        query: Option<&Automaton>,
        config: EvalConfig,
    ) -> Evaluator {
        // A query extends a clone of the role's shared bank; the clone is
        // per-session setup cost, paid zero times on the per-event path.
        let mut query_start = None;
        let extended: Option<Box<SessionIr>> = query.map(|q| {
            let mut ir = policy.ir.clone();
            query_start = Some(ir.append(q, OWNER_QUERY));
            let mut cmp_values = policy.cmp_values.clone();
            cmp_values.extend(q.preds.iter().map(|p| {
                p.comparison.as_ref().map(|(_, v)| match v {
                    Value::Literal(s) => Arc::from(s.as_str()),
                    Value::User => Arc::from(""),
                })
            }));
            Box::new(SessionIr { ir, cmp_values })
        });
        // Base token level: start tokens of every automaton.
        let mut base = TokenLevel::default();
        for &start in &policy.ir.starts {
            base.nav.push(NavToken { instr: start, bindings: Bindings::EMPTY });
        }
        if let Some(qs) = query_start {
            base.nav.push(NavToken { instr: qs, bindings: Bindings::EMPTY });
        }
        let dummy = None; // resolved lazily by the caller via config + dict
        let stats = EvalStats { tokens_created: base.nav.len(), ..Default::default() };
        Evaluator {
            policy,
            extended,
            tokens: TokenStack::new(base),
            auth: AuthStack::new(),
            registry: PredRegistry::new(),
            output: OutputBuilder::new(dummy),
            stats,
            depth: 0,
            open_tags: Vec::new(),
            pending_open: None,
            raw_depth: 0,
            raw_active: false,
            config,
            free_levels: Vec::new(),
            free_auth: Vec::new(),
            rule_sats: Vec::new(),
            query_sats: Vec::new(),
            bindings_buf: Vec::new(),
        }
    }

    /// Replaces the names of denied ancestors kept by the structural rule
    /// with `dummy` (§2). Call before feeding events.
    pub fn with_dummy_tag(mut self, dummy: TagId) -> Self {
        self.output = OutputBuilder::new(Some(dummy));
        self
    }

    /// Convenience dispatcher without skip metadata.
    pub fn event(&mut self, ev: &Event<'_>) -> Directive {
        match ev {
            Event::Open(t) => self.open(*t, None),
            Event::Text(s) => {
                self.text(s);
                Directive::Continue
            }
            Event::Close(_) => self.close(),
        }
    }

    /// Processes an open event. `skip` carries skip-index metadata when the
    /// driver has it; without it the answer is never
    /// [`Directive::SkipPending`].
    pub fn open(&mut self, tag: TagId, skip: Option<&SkipInfo<'_>>) -> Directive {
        assert!(!self.raw_active, "feed raw subtree events through raw_event");
        self.flush_pending_open();
        self.stats.open_events += 1;
        self.depth += 1;
        self.open_tags.push(tag);

        // Split-borrow the evaluator once: the shared instruction bank
        // stays immutably borrowed across the whole event while the
        // per-session state mutates — no per-event `Arc` bump, no
        // per-token clone of the top level. The bank is resolved to one
        // `&InstrSeq` here; every token then costs a single indexed load.
        let Evaluator {
            policy,
            extended,
            config,
            tokens,
            auth,
            registry,
            output,
            stats,
            depth,
            pending_open,
            free_levels,
            free_auth,
            rule_sats,
            query_sats,
            bindings_buf,
            ..
        } = self;
        let has_query = extended.is_some();
        let (ir, cmp_values): (&InstrSeq, &[Option<Arc<str>>]) = match extended.as_deref() {
            Some(e) => (&e.ir, &e.cmp_values),
            None => (&policy.ir, &policy.cmp_values),
        };
        let signs: &[Sign] = &policy.signs;
        let depth = *depth;

        // (1) Token transitions — into scratch buffers recycled from
        // previously popped levels: the steady-state loop allocates
        // nothing. The top level is *moved* out (and restored below)
        // instead of cloned.
        let mut new_level = free_levels.pop().unwrap_or_default();
        let mut auth_level = free_auth.pop().unwrap_or_default();

        let top = tokens.take_top();
        for t in &top.nav {
            stats.token_ops += 1;
            let st = ir.instr(t.instr);
            if st.self_loop() {
                new_level.nav.push(t.clone());
                stats.tokens_created += 1;
            }
            if st.matches(tag) {
                advance_nav(
                    ir,
                    signs,
                    cmp_values,
                    registry,
                    stats,
                    bindings_buf,
                    depth,
                    t,
                    st.next,
                    &mut new_level,
                    &mut auth_level,
                    rule_sats,
                    query_sats,
                );
            }
        }
        for p in &top.pred {
            stats.token_ops += 1;
            if registry.is_true(p.inst) {
                continue; // predicate already satisfied in this scope (§3.3)
            }
            let st = ir.instr(p.instr);
            if st.self_loop() {
                new_level.pred.push(p.clone());
                stats.tokens_created += 1;
            }
            if st.matches(tag) {
                advance_pred(
                    ir,
                    cmp_values,
                    stats,
                    p,
                    st.next,
                    &mut new_level,
                    rule_sats,
                    query_sats,
                );
            }
        }
        tokens.put_top(top);

        // (2) Skip-index token filtering (§4.2): kill tokens whose
        // RemainingLabels are not all present below this element.
        if let Some(desc) = skip.and_then(|s| s.desc_tags) {
            let before = new_level.nav.len();
            new_level.nav.retain(|t| {
                let st = ir.instr(t.instr);
                st.is_final() || all_below(ir.labels(st.remaining), desc)
            });
            stats.tokens_filtered += before - new_level.nav.len();

            let before = new_level.pred.len();
            new_level.pred.retain(|t| {
                let st = ir.instr(t.instr);
                st.is_final() || all_below(ir.labels(st.remaining), desc)
            });
            stats.tokens_filtered += before - new_level.pred.len();
        }

        // (3) Authorization stack.
        auth.push(auth_level);

        // (4a) Rule-predicate satisfactions recognized at this very event.
        for inst in rule_sats.drain(..) {
            registry.satisfy(inst);
        }

        // (4b) Query-predicate satisfactions, gated on this node's access
        // condition (query predicates read only authorized content, §2).
        if !query_sats.is_empty() {
            let gate = auth.delivery_cond(registry);
            for inst in query_sats.drain(..) {
                registry.satisfy_with_condition(inst, gate.clone());
            }
        }

        // (4c) Decision for this node — after every satisfaction carried
        // by this very event (a node can complete the query match that
        // puts itself in scope).
        let decision = auth.decide_node(registry);
        let disposition = disposition_of(decision, auth, registry, has_query);

        // (5) Subtree-level conclusions (§3.3). Prune rule tokens when the
        // subtree decision is reached and no opposite-signed rule can fire
        // inside.
        if config.enable_skip_directives {
            if let Decision::Permit | Decision::Deny = decision {
                let contrary = match decision {
                    Decision::Permit => Sign::Deny,
                    _ => Sign::Permit,
                };
                let any_contrary = new_level.nav.iter().any(|t| {
                    let owner = ir.instr(t.instr).owner;
                    owner != OWNER_QUERY && signs[owner as usize] == contrary
                }) || auth.has_pending_of_sign(contrary, registry);
                if !any_contrary {
                    new_level.nav.retain(|t| ir.instr(t.instr).owner == OWNER_QUERY);
                }
            }
        }

        let level_empty = new_level.is_empty();
        tokens.push(new_level);
        stats.peak_tokens = stats.peak_tokens.max(tokens.peak_tokens);

        // (6) Deferred output action + resolutions.
        *pending_open = Some((tag, disposition.clone()));
        flush_resolutions_of(registry, output);
        stats.peak_pending_entries = stats.peak_pending_entries.max(output.waiting_entries());

        // (7) Directive.
        if !config.enable_skip_directives || !level_empty {
            return Directive::Continue;
        }
        match disposition {
            Disposition::Commit => {
                stats.skips_delivered += 1;
                Directive::Deliver
            }
            Disposition::Drop => {
                stats.skips_denied += 1;
                Directive::SkipDeny
            }
            Disposition::Pend(_) => {
                if skip.is_some() {
                    stats.skips_pending += 1;
                    Directive::SkipPending
                } else {
                    Directive::Continue
                }
            }
        }
    }

    /// Processes a text event.
    pub fn text(&mut self, content: &str) {
        assert!(!self.raw_active, "feed raw subtree events through raw_event");
        self.flush_pending_open();
        self.stats.text_events += 1;
        // (a) Armed comparisons at the current level — the level is moved
        // out (not cloned) for the duration of the walk.
        let top = self.tokens.take_top();
        let mut gate: Option<Arc<Cond>> = None;
        for a in &top.armed {
            self.stats.token_ops += 1;
            if !self.registry.is_unknown(a.inst) {
                continue;
            }
            if a.op.eval(content, &a.value) {
                if a.query {
                    let g = gate.get_or_insert_with(|| self.access_cond()).clone();
                    self.registry.satisfy_with_condition(a.inst, g);
                } else {
                    self.registry.satisfy(a.inst);
                }
            }
        }
        self.tokens.put_top(top);
        // (b) Dispose of the text node itself.
        let disposition = self.disposition();
        self.output.text(content, disposition, &self.registry);
        // (c) Deliveries triggered by the new resolutions.
        self.flush_resolutions();
        self.update_peaks();
    }

    /// Processes a close event. The returned directive concerns the
    /// *remaining content* of the parent element (the paper triggers
    /// `SkipSubtree` on close events too — Figure 7).
    pub fn close(&mut self) -> Directive {
        assert!(!self.raw_active, "feed raw subtree events through raw_event");
        self.flush_pending_open();
        self.stats.close_events += 1;
        self.pop_and_recycle();
        self.registry.close_depth(self.depth);
        self.output.close_element();
        self.open_tags.pop();
        self.depth -= 1;
        self.flush_resolutions();
        self.update_peaks();

        // Skip-rest opportunity for the parent.
        if !self.config.enable_skip_directives || self.depth == 0 {
            return Directive::Continue;
        }
        if !self.tokens.top().is_empty() {
            return Directive::Continue;
        }
        match self.disposition() {
            Disposition::Commit => Directive::Deliver,
            Disposition::Drop => Directive::SkipDeny,
            Disposition::Pend(_) => Directive::SkipPending,
        }
    }

    /// Completes a skipped subtree (after [`Directive::SkipDeny`] /
    /// [`Directive::SkipPending`] from [`Evaluator::open`]) or a skipped
    /// remainder (after a directive from [`Evaluator::close`]).
    ///
    /// `handle` is required when the skipped content is pending: it is the
    /// driver's readback reference to the still-encrypted bytes. Returns
    /// `true` when the handle was registered for a later readback — when
    /// `false`, the driver may free whatever state the handle addressed
    /// (the skipped content is definitively denied).
    pub fn skip_close(&mut self, handle: Option<SubtreeRef>) -> bool {
        assert!(!self.raw_active, "cannot skip while bulk-delivering");
        let mut retained = false;
        if let Some((tag, disp)) = self.pending_open.take() {
            // Whole-subtree skip: the element's open was processed, nothing
            // below it will be.
            match disp {
                Disposition::Commit => {
                    panic!("skip_close after a Deliver directive: use raw_event")
                }
                Disposition::Drop => {}
                Disposition::Pend(cond) => {
                    let h = handle.expect("pending skip requires a readback handle");
                    self.output.pend_skipped_subtree(tag, cond, h, &self.registry);
                    retained = true;
                }
            }
            self.pop_and_recycle();
            self.registry.close_depth(self.depth);
            self.open_tags.pop();
            self.depth -= 1;
            self.flush_resolutions();
        } else {
            // Skip the remaining content of the current element.
            assert!(self.depth > 0, "skip_close with no open element");
            match self.disposition() {
                Disposition::Commit => {
                    panic!("skip_close after a Deliver directive: use raw_event")
                }
                Disposition::Drop => {}
                Disposition::Pend(cond) => {
                    let h = handle.expect("pending skip requires a readback handle");
                    self.output.pend_skipped_rest(cond, h, &self.registry);
                    retained = true;
                }
            }
            self.stats.close_events += 1;
            self.pop_and_recycle();
            self.registry.close_depth(self.depth);
            self.output.close_element();
            self.open_tags.pop();
            self.depth -= 1;
            self.flush_resolutions();
        }
        self.update_peaks();
        retained
    }

    /// Bulk-delivers one event of an authorized subtree (after
    /// [`Directive::Deliver`]). Feed every event *inside* the subtree plus
    /// the subtree root's close; the root's open was already processed.
    pub fn raw_event(&mut self, ev: &Event<'_>) {
        self.flush_pending_open();
        self.raw_active = true;
        self.stats.raw_events += 1;
        match ev {
            Event::Open(t) => {
                self.output.open_element(*t, Disposition::Commit, &self.registry);
                self.raw_depth += 1;
            }
            Event::Text(s) => {
                self.output.text(s, Disposition::Commit, &self.registry);
            }
            Event::Close(_) => {
                if self.raw_depth > 0 {
                    self.raw_depth -= 1;
                    self.output.close_element();
                } else {
                    // Close of the raw subtree root: resume normal mode.
                    self.raw_active = false;
                    self.stats.close_events += 1;
                    self.pop_and_recycle();
                    self.registry.close_depth(self.depth);
                    self.output.close_element();
                    self.open_tags.pop();
                    self.depth -= 1;
                    self.flush_resolutions();
                    self.update_peaks();
                }
            }
        }
    }

    /// Drains pending readback requests (subtrees whose condition resolved
    /// true and whose bytes must be re-read from the terminal).
    pub fn take_readbacks(&mut self) -> Vec<ReadbackRequest> {
        self.output.take_readbacks()
    }

    /// Drains the handles of skipped subtrees whose condition resolved
    /// *false*: their bytes will never be requested, so the driver can
    /// free the readback state it kept for them.
    pub fn take_released_handles(&mut self) -> Vec<SubtreeRef> {
        self.output.take_released()
    }

    /// Supplies the decoded events of a read-back subtree (or remainder).
    pub fn readback_events<'e>(
        &mut self,
        entry: usize,
        events: impl IntoIterator<Item = Event<'e>>,
    ) {
        self.output.deliver_readback(entry, events);
    }

    /// Finishes the evaluation, producing the delivery log and statistics.
    pub fn finish(mut self) -> EvalResult {
        self.flush_pending_open();
        assert_eq!(self.depth, 0, "finish with {} unclosed element(s)", self.depth);
        self.update_peaks();
        let stats = {
            let mut s = self.stats.clone();
            s.instances_created = self.registry.created();
            s.peak_tokens = s.peak_tokens.max(self.tokens.peak_tokens);
            s.peak_auth_entries = self.auth.peak_entries;
            s.peak_open_instances = self.registry.peak_open;
            s
        };
        let (log, output) = self.output.finish(&self.registry);
        let mut stats = stats;
        stats.peak_pending_entries = output.pending_peak;
        EvalResult { log, output, stats }
    }

    // ------------------------------------------------------------------
    // internals

    /// Pops the token and authorization levels of a closing element and
    /// recycles their buffers for the next open (the steady-state event
    /// loop neither allocates nor frees).
    fn pop_and_recycle(&mut self) {
        let mut level = self.tokens.pop();
        level.nav.clear();
        level.pred.clear();
        level.armed.clear();
        self.free_levels.push(level);
        let mut auth = self.auth.pop();
        auth.entries.clear();
        auth.query_entries.clear();
        self.free_auth.push(auth);
    }

    /// Access decision combined with query coverage.
    fn disposition(&mut self) -> Disposition {
        let decision = self.auth.decide_node(&self.registry);
        disposition_of(decision, &mut self.auth, &self.registry, self.extended.is_some())
    }

    /// Access condition alone (gates query predicate matches).
    fn access_cond(&mut self) -> Arc<Cond> {
        self.auth.delivery_cond(&self.registry)
    }

    fn flush_pending_open(&mut self) {
        if let Some((tag, disp)) = self.pending_open.take() {
            self.output.open_element(tag, disp, &self.registry);
        }
    }

    fn flush_resolutions(&mut self) {
        flush_resolutions_of(&mut self.registry, &mut self.output);
    }

    fn update_peaks(&mut self) {
        self.stats.peak_pending_entries =
            self.stats.peak_pending_entries.max(self.output.waiting_entries());
    }
}

// ----------------------------------------------------------------------
// Free-function internals: `open()` split-borrows the evaluator (shared
// automata stay immutably borrowed while session state mutates), so the
// helpers it calls take the fields they touch explicitly.

/// `RemainingLabels ⊆ DescTag_e` (§4.2) on two sorted tag lists: the
/// labels come sorted from the automaton, the descendant list from the
/// skip index. Each label is searched past the previous one's match.
#[inline]
fn all_below(labels: &[TagId], mut desc: &[TagId]) -> bool {
    debug_assert!(labels.is_sorted(), "remaining labels must be sorted");
    labels.iter().all(|label| match desc.binary_search(label) {
        Ok(i) => {
            desc = &desc[i + 1..];
            true
        }
        Err(_) => false,
    })
}

#[allow(clippy::too_many_arguments)]
fn advance_nav(
    ir: &InstrSeq,
    signs: &[Sign],
    cmp_values: &[Option<Arc<str>>],
    registry: &mut PredRegistry,
    stats: &mut EvalStats,
    bindings_buf: &mut Vec<(u32, crate::condition::PredInstId)>,
    depth: u32,
    t: &NavToken,
    next: u32,
    new_level: &mut TokenLevel,
    auth_level: &mut AuthLevel,
    rule_sats: &mut Vec<crate::condition::PredInstId>,
    query_sats: &mut Vec<crate::condition::PredInstId>,
) {
    let next_instr = ir.instr(next);
    let owner = next_instr.owner;
    let is_query = owner == OWNER_QUERY;
    // Tokens that bind no new predicate instance share their parent's
    // binding list (`Arc` bump); a fresh list is built only when this
    // step anchors predicates.
    let bindings: Bindings = if next_instr.anchors.is_empty() {
        t.bindings.clone()
    } else {
        bindings_buf.clear();
        bindings_buf.extend_from_slice(t.bindings.as_slice());
        for &pred_id in ir.anchors(next_instr.anchors) {
            let info = &ir.preds[pred_id as usize];
            let inst = registry.create(depth);
            bindings_buf.push((pred_id, inst));
            if info.self_pred {
                // Self predicate `[. op v]` or bare `[.]`.
                match &info.comparison {
                    None => {
                        if is_query {
                            query_sats.push(inst);
                        } else {
                            rule_sats.push(inst);
                        }
                    }
                    Some((op, _)) => {
                        new_level.armed.push(ArmedCmp {
                            inst,
                            op: *op,
                            value: cmp_values[pred_id as usize].clone().expect("comparison value"),
                            query: is_query,
                        });
                    }
                }
            } else {
                new_level.pred.push(PredToken { pred: pred_id, instr: info.start, inst });
                stats.tokens_created += 1;
            }
        }
        Bindings::from(&bindings_buf[..])
    };
    if next_instr.is_final() {
        let entry = AuthEntry {
            rule: RuleRef::from_owner(owner),
            sign: if is_query { Sign::Permit } else { signs[owner as usize] },
            bindings,
        };
        if is_query {
            auth_level.query_entries.push(entry);
        } else {
            auth_level.entries.push(entry);
        }
    } else {
        new_level.nav.push(NavToken { instr: next, bindings });
        stats.tokens_created += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn advance_pred(
    ir: &InstrSeq,
    cmp_values: &[Option<Arc<str>>],
    stats: &mut EvalStats,
    p: &PredToken,
    next: u32,
    new_level: &mut TokenLevel,
    rule_sats: &mut Vec<crate::condition::PredInstId>,
    query_sats: &mut Vec<crate::condition::PredInstId>,
) {
    if ir.instr(next).is_final() {
        let info = &ir.preds[p.pred as usize];
        let is_query = info.owner == OWNER_QUERY;
        match &info.comparison {
            None => {
                if is_query {
                    query_sats.push(p.inst);
                } else {
                    rule_sats.push(p.inst);
                }
            }
            Some((op, _)) => {
                new_level.armed.push(ArmedCmp {
                    inst: p.inst,
                    op: *op,
                    value: cmp_values[p.pred as usize].clone().expect("comparison value"),
                    query: is_query,
                });
            }
        }
    } else {
        new_level.pred.push(PredToken { pred: p.pred, instr: next, inst: p.inst });
        stats.tokens_created += 1;
    }
}

/// Access `decision` (the stack's `DecideNode`) combined with query
/// coverage (free-function form for use under split borrows).
fn disposition_of(
    decision: Decision,
    auth: &mut AuthStack,
    registry: &PredRegistry,
    has_query: bool,
) -> Disposition {
    let access = match decision {
        Decision::Permit => Ternary::True,
        Decision::Deny => Ternary::False,
        Decision::Pending => Ternary::Unknown,
    };
    let qcover = if has_query { auth.query_cover(registry) } else { Ternary::True };
    match access.and(qcover) {
        Ternary::True => Disposition::Commit,
        Ternary::False => Disposition::Drop,
        Ternary::Unknown => {
            let mut parts = vec![auth.delivery_cond(registry)];
            if has_query {
                parts.push(auth.query_cond(registry));
            }
            Disposition::Pend(Cond::and(parts))
        }
    }
}

fn flush_resolutions_of(registry: &mut PredRegistry, output: &mut OutputBuilder) {
    while registry.has_unprocessed_resolutions() {
        let resolved = registry.drain_resolved();
        output.process_resolutions(&resolved, registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::reassemble_to_string;
    use crate::rule::Policy;
    use xsac_xml::Document;

    fn run(xml: &str, subject: &str, rules: &[(Sign, &str)]) -> String {
        run_q(xml, subject, rules, None)
    }

    fn run_q(xml: &str, subject: &str, rules: &[(Sign, &str)], query: Option<&str>) -> String {
        let doc = Document::parse(xml).unwrap();
        let mut dict = doc.dict.clone();
        let policy = Policy::parse(subject, rules, &mut dict).unwrap();
        let q = query.map(|q| Automaton::parse(q, &mut dict).unwrap());
        let mut eval = Evaluator::new(&policy, q.as_ref(), EvalConfig::default());
        for ev in doc.events() {
            eval.event(&ev);
        }
        let res = eval.finish();
        reassemble_to_string(&dict, &res.log)
    }

    #[test]
    fn closed_policy_delivers_nothing() {
        assert_eq!(run("<a><b>x</b></a>", "u", &[]), "");
    }

    #[test]
    fn simple_grant() {
        assert_eq!(
            run("<a><b>x</b><c>y</c></a>", "u", &[(Sign::Permit, "//b")]),
            "<a><b>x</b></a>"
        );
    }

    #[test]
    fn grant_root_denies_subtree() {
        assert_eq!(
            run("<a><b>x</b><c>y</c></a>", "u", &[(Sign::Permit, "/a"), (Sign::Deny, "/a/c")]),
            "<a><b>x</b></a>"
        );
    }

    #[test]
    fn most_specific_regrant() {
        assert_eq!(
            run(
                "<a><b><c>deep</c>shallow</b></a>",
                "u",
                &[(Sign::Permit, "/a"), (Sign::Deny, "/a/b"), (Sign::Permit, "/a/b/c")]
            ),
            "<a><b><c>deep</c></b></a>"
        );
    }

    #[test]
    fn denial_takes_precedence() {
        assert_eq!(run("<a><b>x</b></a>", "u", &[(Sign::Permit, "//b"), (Sign::Deny, "//b")]), "");
    }

    #[test]
    fn predicate_grants_after_the_fact() {
        // The predicate [d=1] resolves *after* <c> has been seen: pending
        // delivery must reassemble c before d in document order.
        assert_eq!(
            run("<a><b><c>keep</c><d>1</d></b></a>", "u", &[(Sign::Permit, "//b[d=1]")]),
            "<a><b><c>keep</c><d>1</d></b></a>"
        );
    }

    #[test]
    fn predicate_false_discards() {
        assert_eq!(
            run("<a><b><c>keep</c><d>2</d></b></a>", "u", &[(Sign::Permit, "//b[d=1]")]),
            ""
        );
    }

    #[test]
    fn user_variable_resolution() {
        let xml = "<r><act><phys>alice</phys><data>x</data></act>\
                   <act><phys>bob</phys><data>y</data></act></r>";
        assert_eq!(
            run(xml, "alice", &[(Sign::Permit, "//act[phys = USER]")]),
            "<r><act><phys>alice</phys><data>x</data></act></r>"
        );
    }

    #[test]
    fn descendant_predicate_multiple_instances() {
        // //b[c] with several b candidates at different depths (footnote 5
        // of the paper): only instances whose own subtree contains a c
        // qualify.
        let xml = "<a><b><d>no</d></b><b><c>1</c><d>yes</d></b></a>";
        assert_eq!(run(xml, "u", &[(Sign::Permit, "//b[c]/d")]), "<a><b><d>yes</d></b></a>");
    }

    #[test]
    fn figure3_document() {
        // The paper's Figure 3: rules R: ⊕ //b[c]/d, S: ⊖ //c on the
        // abstract document a(b(d,c,d), c(b(d,c)), b(c)). Walking the
        // semantics: every d under a b-with-c is granted, every c denied.
        let xml = "<a><b><d>d1</d><c>c1</c><d>d2</d></b><c><b><d>d3</d><c>c2</c></b></c></a>";
        let got = run(xml, "u", &[(Sign::Permit, "//b[c]/d"), (Sign::Deny, "//c")]);
        // d1, d2 granted (b has c); d3's b contains c2 so d3 granted too —
        // but its path runs through the denied outer c, kept as a shell.
        assert_eq!(got, "<a><b><d>d1</d><d>d2</d></b><c><b><d>d3</d></b></c></a>");
    }

    #[test]
    fn pending_negative_blocks_until_resolution() {
        // ⊕ //a, ⊖ //a/b[x=1]: b pending until x seen.
        assert_eq!(
            run(
                "<a><b><k>v</k><x>1</x></b><c>ok</c></a>",
                "u",
                &[(Sign::Permit, "//a"), (Sign::Deny, "//a/b[x=1]")]
            ),
            "<a><c>ok</c></a>"
        );
        assert_eq!(
            run(
                "<a><b><k>v</k><x>2</x></b><c>ok</c></a>",
                "u",
                &[(Sign::Permit, "//a"), (Sign::Deny, "//a/b[x=1]")]
            ),
            "<a><b><k>v</k><x>2</x></b><c>ok</c></a>"
        );
    }

    #[test]
    fn wildcard_and_descendant_axes() {
        assert_eq!(
            run("<a><x><b>1</b></x><y><b>2</b></y><b>3</b></a>", "u", &[(Sign::Permit, "/a/*/b")]),
            "<a><x><b>1</b></x><y><b>2</b></y></a>"
        );
        assert_eq!(
            run("<a><x><b>1</b></x><b>2</b></a>", "u", &[(Sign::Permit, "//b")]),
            "<a><x><b>1</b></x><b>2</b></a>"
        );
    }

    #[test]
    fn query_intersects_view() {
        let xml = "<r><f><age>70</age><name>A</name></f><f><age>50</age><name>B</name></f></r>";
        // View: everything. Query: folders with age > 65.
        assert_eq!(
            run_q(xml, "u", &[(Sign::Permit, "/r")], Some("//f[age > 65]")),
            "<r><f><age>70</age><name>A</name></f></r>"
        );
    }

    #[test]
    fn query_predicate_cannot_read_denied_content() {
        let xml = "<r><f><age>70</age><name>A</name></f></r>";
        // age is denied: the query predicate must not observe it.
        assert_eq!(
            run_q(xml, "u", &[(Sign::Permit, "/r"), (Sign::Deny, "//age")], Some("//f[age > 65]")),
            ""
        );
    }

    #[test]
    fn query_without_rules_sees_nothing() {
        assert_eq!(run_q("<a><b>x</b></a>", "u", &[], Some("//b")), "");
    }

    #[test]
    fn empty_elements_and_self_predicates() {
        assert_eq!(
            run("<a><b></b><c>5</c></a>", "u", &[(Sign::Permit, "//c[. = 5]")]),
            "<a><c>5</c></a>"
        );
        assert_eq!(run("<a><c>6</c></a>", "u", &[(Sign::Permit, "//c[. = 5]")]), "");
    }

    #[test]
    fn skip_directives_do_not_change_output() {
        let xml = "<a><b><c>keep</c><d>1</d></b><e><f>deny</f></e></a>";
        let rules = &[(Sign::Permit, "//b[d=1]"), (Sign::Deny, "//e")];
        let with = {
            let doc = Document::parse(xml).unwrap();
            let mut dict = doc.dict.clone();
            let policy = Policy::parse("u", rules, &mut dict).unwrap();
            let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
            for ev in doc.events() {
                eval.event(&ev);
            }
            reassemble_to_string(&dict, &eval.finish().log)
        };
        let without = {
            let doc = Document::parse(xml).unwrap();
            let mut dict = doc.dict.clone();
            let policy = Policy::parse("u", rules, &mut dict).unwrap();
            let cfg = EvalConfig { enable_skip_directives: false };
            let mut eval = Evaluator::new(&policy, None, cfg);
            for ev in doc.events() {
                eval.event(&ev);
            }
            reassemble_to_string(&dict, &eval.finish().log)
        };
        assert_eq!(with, without);
    }

    #[test]
    fn directives_fire_on_denied_subtrees() {
        let doc = Document::parse("<a><b><x>1</x></b><c>keep</c></a>").unwrap();
        let mut dict = doc.dict.clone();
        let policy =
            Policy::parse("u", &[(Sign::Permit, "/a"), (Sign::Deny, "/a/b")], &mut dict).unwrap();
        let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
        let mut skipped = false;
        let events = doc.events();
        let mut i = 0;
        while i < events.len() {
            let d = eval.event(&events[i]);
            if d == Directive::SkipDeny && matches!(events[i], Event::Open(_)) {
                // Skip to the matching close.
                let mut depth = 1;
                let mut j = i + 1;
                while depth > 0 {
                    match events[j] {
                        Event::Open(_) => depth += 1,
                        Event::Close(_) => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                eval.skip_close(None);
                skipped = true;
                i = j;
            } else {
                i += 1;
            }
        }
        let res = eval.finish();
        assert!(skipped, "expected a SkipDeny directive for <b>");
        assert_eq!(reassemble_to_string(&dict, &res.log), "<a><c>keep</c></a>");
        assert!(res.stats.skips_denied >= 1);
    }

    #[test]
    fn deliver_directive_allows_raw_feed() {
        let doc = Document::parse("<a><b><x>1</x><y>2</y></b></a>").unwrap();
        let mut dict = doc.dict.clone();
        let policy = Policy::parse("u", &[(Sign::Permit, "/a/b")], &mut dict).unwrap();
        let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
        let events = doc.events();
        let mut i = 0;
        let mut raw_used = false;
        while i < events.len() {
            let d = eval.event(&events[i]);
            i += 1;
            if d == Directive::Deliver && matches!(events[i - 1], Event::Open(_)) {
                raw_used = true;
                // Feed the rest of the subtree raw (depth bookkeeping).
                let mut depth = 1;
                while depth > 0 {
                    match events[i] {
                        Event::Open(_) => depth += 1,
                        Event::Close(_) => depth -= 1,
                        _ => {}
                    }
                    eval.raw_event(&events[i]);
                    i += 1;
                }
            }
        }
        let res = eval.finish();
        assert!(raw_used);
        assert_eq!(reassemble_to_string(&dict, &res.log), "<a><b><x>1</x><y>2</y></b></a>");
        assert!(res.stats.raw_events > 0);
    }

    #[test]
    fn token_filtering_with_desc_tags() {
        let doc = Document::parse("<a><b><c>x</c></b></a>").unwrap();
        let mut dict = doc.dict.clone();
        let policy = Policy::parse("u", &[(Sign::Permit, "//zz")], &mut dict).unwrap();
        let zz = dict.get("zz").unwrap();
        let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
        // DescTag of <a> does not contain zz: the //zz token dies at once.
        let mut desc = vec![dict.get("b").unwrap(), dict.get("c").unwrap()];
        desc.sort();
        assert!(!desc.contains(&zz));
        let d = eval.open(dict.get("a").unwrap(), Some(&SkipInfo { desc_tags: Some(&desc) }));
        assert_eq!(d, Directive::SkipDeny, "no rule can match below: skip");
        eval.skip_close(None);
        let res = eval.finish();
        assert!(res.stats.tokens_filtered > 0);
        assert_eq!(reassemble_to_string(&dict, &res.log), "");
    }

    /// The sorted-list subset test agrees with per-label membership,
    /// labels at either end of the descendant list and just outside it
    /// included.
    #[test]
    fn all_below_matches_membership() {
        let desc = [2, 5, 9].map(TagId);
        for labels in [
            &[][..],
            &[2],
            &[9],
            &[2, 9],
            &[2, 5, 9],
            &[1],
            &[10],
            &[1, 2],
            &[9, 10],
            &[3],
            &[2, 3, 9],
        ] {
            let labels: Vec<TagId> = labels.iter().copied().map(TagId).collect();
            let member = labels.iter().all(|l| desc.contains(l));
            assert_eq!(all_below(&labels, &desc), member, "{labels:?} ⊆ {desc:?}");
            assert!(all_below(&labels, &[]) == labels.is_empty());
        }
    }

    /// A token whose remaining labels sit at either end of the descendant
    /// list survives the §4.2 filter; one whose labels lie just outside
    /// the list (or between its entries) is filtered.
    #[test]
    fn token_filter_at_the_ends_of_the_descendant_list() {
        let mut dict = xsac_xml::TagDict::new();
        let t: Vec<TagId> = (0..8).map(|i| dict.intern(&format!("t{i}"))).collect();
        let policy = Policy::parse("u", &[(Sign::Permit, "//t2/t5")], &mut dict).unwrap();
        let ends = [t[2], t[3], t[4], t[5]];
        let cases: [(&[TagId], bool); 7] = [
            (&ends, true),
            (&[t[2], t[5]], true),
            (&[t[1], t[2], t[5], t[6]], true),
            (&[t[3], t[4], t[5]], false),
            (&[t[2], t[3], t[4]], false),
            (&[t[1], t[3], t[4], t[6]], false),
            (&[t[6], t[7]], false),
        ];
        for (desc, survives) in cases {
            let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
            let d = eval.open(t[0], Some(&SkipInfo { desc_tags: Some(desc) }));
            let expect = if survives { Directive::Continue } else { Directive::SkipDeny };
            assert_eq!(d, expect, "{desc:?}");
            if survives {
                eval.close();
            } else {
                eval.skip_close(None);
            }
            let filtered = eval.finish().stats.tokens_filtered;
            assert_eq!(filtered, usize::from(!survives), "{desc:?}");
        }
    }

    #[test]
    fn pending_skip_with_readback() {
        // ⊕ //b[d=1]: at <b>, with desc tags {c,d} the rule is pending and
        // after the predicate tokens... the subtree *cannot* be skipped at
        // <b> (predicate tokens are alive). But ⊖-irrelevant <e> content
        // with a pending ancestor can. Construct: ⊕ //a[x=1]//b — at <b>
        // everything inside is covered by the pending instance and no
        // token can fire inside (desc tags exclude all rule labels).
        let doc = Document::parse("<a><b><k>v</k></b><x>1</x></a>").unwrap();
        let mut dict = doc.dict.clone();
        let policy = Policy::parse("u", &[(Sign::Permit, "//a[x=1]//b")], &mut dict).unwrap();
        let mut eval = Evaluator::new(&policy, None, EvalConfig::default());
        let a = dict.get("a").unwrap();
        let b = dict.get("b").unwrap();
        let k = dict.get("k").unwrap();
        let x = dict.get("x").unwrap();
        let desc_b = [k];
        assert_eq!(eval.open(a, None), Directive::Continue);
        let d = eval.open(b, Some(&SkipInfo { desc_tags: Some(&desc_b) }));
        assert_eq!(d, Directive::SkipPending);
        eval.skip_close(Some(SubtreeRef(99)));
        // x=1 satisfies the predicate → readback request for b's subtree.
        eval.open(x, None);
        eval.text("1");
        eval.close();
        let reqs = eval.take_readbacks();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].subtree, SubtreeRef(99));
        eval.readback_events(
            reqs[0].entry,
            [
                Event::Open(b),
                Event::Open(k),
                Event::Text("v".into()),
                Event::Close(k),
                Event::Close(b),
            ],
        );
        eval.close();
        let res = eval.finish();
        // Only b's subtree is granted by //a[x=1]//b; x itself is not.
        assert_eq!(reassemble_to_string(&dict, &res.log), "<a><b><k>v</k></b></a>");
        assert_eq!(res.stats.skips_pending, 1);
        assert_eq!(res.output.readbacks, 1);
    }
}
