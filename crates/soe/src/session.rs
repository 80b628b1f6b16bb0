//! The SOE evaluation session: the full client-side pipeline of Figure 2.
//!
//! A session streams the encrypted document from the terminal through the
//! SOE: bytes are transferred, verified (per the integrity scheme),
//! deciphered, skip-index decoded and fed to the access-control
//! evaluator. Skip directives translate into byte seeks that save
//! communication *and* decryption — "the two limiting factors of the
//! target architecture" (§3.3). Pending subtrees are skipped and read
//! back on resolution (§5); their bytes are charged only if actually
//! delivered.
//!
//! Every byte consumed by the decoder is metered through the
//! [`xsac_crypto::SoeReader`], which also performs the *real* integrity
//! verification — a tampered document aborts the session exactly as it
//! would on the card.

use crate::cost::{CostModel, TimeBreakdown};
use crate::document::ServerDoc;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use xsac_core::evaluator::{
    CompiledPolicy, Directive, EvalConfig, Evaluator, MinimizeStats, SkipInfo,
};
use xsac_core::output::{LogItem, OutputStats, SubtreeRef};
use xsac_core::stats::EvalStats;
use xsac_crypto::protocol::AccessCost;
use xsac_crypto::store::ChunkStore;
use xsac_crypto::{LeafCache, ReadError, SoeReader, StoreError, TripleDes};
use xsac_index::decode::{decode_range, ByteSource, CursorDecoder, DecoderContext};
use xsac_obs::{Phase, PhaseProfile, SpanClock};
use xsac_xml::Event;
use xsac_xpath::Automaton;

/// How the SOE consumes the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Skip-index driven (the paper's TCSBR strategy).
    Tcsbr,
    /// Ablation: subtree sizes only — skips fire when tokens die
    /// naturally, but the `RemainingLabels`/`DescTag` token filter of
    /// §4.2 is disabled (models a TCS-style index).
    SizesOnly,
    /// Brute force: read and analyze everything (the BF baseline of
    /// Figure 9 — "filtering the document without any index").
    BruteForce,
}

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Consumption strategy.
    pub strategy: Strategy,
    /// Cost model used to synthesize times.
    pub cost: CostModel,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { strategy: Strategy::Tcsbr, cost: CostModel::smartcard() }
    }
}

/// Session failure.
#[derive(Debug)]
pub enum SessionError {
    /// Tampering detected by the integrity layer.
    Integrity(xsac_crypto::IntegrityError),
    /// The ciphertext store failed (short read, I/O error, truncation) —
    /// out-of-core backends are fallible; a storage fault aborts the
    /// session exactly like tampering, with nothing partially delivered.
    Store(StoreError),
    /// Malformed encoded document.
    Decode(xsac_index::DecodeError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Integrity(e) => write!(f, "session aborted: {e}"),
            SessionError::Store(e) => write!(f, "session aborted: {e}"),
            SessionError::Decode(e) => write!(f, "session aborted: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// Whether re-running the whole session could plausibly succeed.
    ///
    /// Tampering and malformed documents are permanent; storage failures
    /// delegate to [`StoreError::is_transient`] — by the time one
    /// surfaces here the backend's own bounded retries (e.g. the remote
    /// store's reconnect loop) are already exhausted, so this is advice
    /// for the *caller's* retry policy, not an invitation to loop.
    pub fn is_transient(&self) -> bool {
        match self {
            SessionError::Integrity(_) | SessionError::Decode(_) => false,
            SessionError::Store(e) => e.is_transient(),
        }
    }
}

impl From<xsac_crypto::IntegrityError> for SessionError {
    fn from(e: xsac_crypto::IntegrityError) -> Self {
        SessionError::Integrity(e)
    }
}

impl From<ReadError> for SessionError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Integrity(e) => SessionError::Integrity(e),
            ReadError::Store(e) => SessionError::Store(e),
        }
    }
}

impl From<xsac_index::DecodeError> for SessionError {
    fn from(e: xsac_index::DecodeError) -> Self {
        SessionError::Decode(e)
    }
}

/// Outcome of a session.
pub struct SessionResult {
    /// Delivery log of the authorized view / query result.
    pub log: Vec<LogItem>,
    /// Output statistics.
    pub output: OutputStats,
    /// Evaluator statistics.
    pub stats: EvalStats,
    /// Byte-level costs metered by the integrity layer.
    pub cost: AccessCost,
    /// Synthesized times under the session's cost model.
    pub time: TimeBreakdown,
    /// Size of the delivered result (text + tag bytes).
    pub result_bytes: usize,
    /// Readback contexts registered over the whole session (one per
    /// pending skip).
    pub handles_created: usize,
    /// Peak readback contexts retained at once. Served and discarded
    /// contexts are dropped eagerly, so this stays proportional to the
    /// *simultaneously pending* subtrees, not to every skip ever taken.
    pub handles_peak: usize,
    /// Policy-compiler observability: how much the containment-based
    /// minimization pass shrank the rule set this session ran under, and
    /// how big the resulting flat instruction bank is.
    pub compiler: MinimizeStats,
    /// Measured wall time per pipeline phase: fetch/decrypt/hash from the
    /// SOE reader, decode/evaluate from the session event loop (decode is
    /// exclusive — reader time accrued inside `decoder.next()` is
    /// subtracted out). Telemetry only: zero when runtime-disabled, and
    /// never part of the byte-exact outputs the differential suites
    /// compare ([`AccessCost`] and [`TimeBreakdown`] stay
    /// model-synthesized).
    pub phases: PhaseProfile,
}

// Sessions fan out over threads in the server layer; their results must
// cross back (compile-time check).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SessionResult>();
    assert_send::<SessionError>();
};

/// Bookkeeping for pending-subtree readback contexts. Contexts are
/// dropped as soon as they can no longer be requested (served, or the
/// pending condition resolved false), keeping a long session's table
/// O(pending) instead of O(all handles ever).
#[derive(Default)]
struct HandleTable {
    map: HashMap<u64, DecoderContext>,
    next: u64,
    created: usize,
    peak: usize,
}

impl HandleTable {
    fn insert(&mut self, ctx: DecoderContext) -> u64 {
        let id = self.next;
        self.next += 1;
        self.map.insert(id, ctx);
        self.created += 1;
        self.peak = self.peak.max(self.map.len());
        id
    }

    fn remove(&mut self, id: u64) {
        self.map.remove(&id);
    }
}

/// [`ByteSource`] adapter: every byte the decoder pulls is transferred,
/// verified and deciphered through the [`SoeReader`] — the real Figure-2
/// pipeline. Nothing stays resident beyond the reader's chunk window and
/// the decoder's per-record buffers, so a session's footprint is bounded
/// by the window budget plus one record, independent of document size.
struct SoeSource<'a, S: ChunkStore> {
    reader: SoeReader<'a, S>,
    /// Encoded plaintext length (`ProtectedDoc::plain_len`).
    len: usize,
}

impl<S: ChunkStore> ByteSource for SoeSource<'_, S> {
    type Error = SessionError;

    fn len(&self) -> usize {
        self.len
    }

    fn fetch(&mut self, offset: usize, len: usize, out: &mut Vec<u8>) -> Result<(), SessionError> {
        Ok(self.reader.read_into(offset, len, out)?)
    }
}

/// Runs one SOE session over a compiled policy and, under ECB-MHT, an
/// optional cross-session terminal leaf-hash cache.
///
/// The caller compiles the policy (`CompiledPolicy::compile`) and can
/// share the result: sessions sharing a document and role should go
/// through [`crate::server::DocServer`], which caches both the compiled
/// policy and the leaf hashes, so neither is rebuilt per session.
pub fn run_session_shared<S: ChunkStore>(
    server: &ServerDoc<S>,
    key: &TripleDes,
    policy: &Arc<CompiledPolicy>,
    query: Option<&Automaton>,
    config: &SessionConfig,
    leaves: Option<&Arc<LeafCache>>,
) -> Result<SessionResult, SessionError> {
    let reader = match leaves {
        Some(cache) => SoeReader::with_leaf_cache(&server.protected, key, Arc::clone(cache)),
        None => SoeReader::new(&server.protected, key),
    };
    // The decoder pulls every record it visits out of the ciphertext
    // through the reader: transfer, verification and decryption happen on
    // demand, per record, and skipped subtrees are never fetched at all.
    // No plaintext image of the document exists on either side. A
    // verification failure aborts the session.
    let source = SoeSource { reader, len: server.protected.plain_len };
    let mut decoder = CursorDecoder::new(source, server.dict.len())?;

    let eval_config =
        EvalConfig { enable_skip_directives: config.strategy != Strategy::BruteForce };
    let use_desc_filter = config.strategy == Strategy::Tcsbr;
    let mut eval = Evaluator::with_compiled(Arc::clone(policy), query, eval_config);

    // Pending skipped subtrees: handle → saved decoder context.
    let mut handles = HandleTable::default();

    // Span clock for the event loop: one clock read per decode↔evaluate
    // transition. Reader time (fetch/decrypt/hash) accrues inside
    // `decoder.next()`/`read_range` calls — always under the Decode span
    // — and is subtracted out at the end, so the reported Decode figure
    // is decode-exclusive.
    let mut spans = PhaseProfile::new();
    let mut clock = SpanClock::start(Phase::Decode);

    loop {
        // Advance the decoder. A text event borrows the decoder's buffer
        // and is consumed before the decoder is needed again.
        clock.switch(&mut spans, Phase::Decode);
        let Some(event) = decoder.next()? else { break };
        clock.switch(&mut spans, Phase::Evaluate);
        match event {
            Event::Text(t) => {
                eval.text(&t);
                serve_readbacks(&mut eval, &mut decoder, &mut handles, &mut clock, &mut spans)?;
            }
            Event::Close(_) => {
                let directive = eval.close();
                serve_readbacks(&mut eval, &mut decoder, &mut handles, &mut clock, &mut spans)?;
                if directive == Directive::SkipDeny || directive == Directive::SkipPending {
                    // Skip the rest of the parent element. A denied rest
                    // needs no readback context; a pending one registers
                    // its context only for as long as the evaluator
                    // actually keeps the handle.
                    if let Some(ctx) = decoder.rest_context() {
                        if ctx.start < ctx.end {
                            decoder.skip_current();
                            if directive == Directive::SkipPending {
                                let handle = handles.insert(ctx);
                                if !eval.skip_close(Some(SubtreeRef(handle))) {
                                    handles.remove(handle);
                                }
                            } else {
                                eval.skip_close(None);
                            }
                            serve_readbacks(
                                &mut eval,
                                &mut decoder,
                                &mut handles,
                                &mut clock,
                                &mut spans,
                            )?;
                            continue;
                        }
                    }
                }
            }
            Event::Open(tag) => {
                let info = SkipInfo { desc_tags: use_desc_filter.then(|| decoder.last_desc()) };
                let directive = eval.open(tag, Some(&info));
                serve_readbacks(&mut eval, &mut decoder, &mut handles, &mut clock, &mut spans)?;
                match directive {
                    Directive::Continue => {}
                    Directive::SkipDeny => {
                        decoder.skip_current();
                        eval.skip_close(None);
                        serve_readbacks(
                            &mut eval,
                            &mut decoder,
                            &mut handles,
                            &mut clock,
                            &mut spans,
                        )?;
                    }
                    Directive::SkipPending => {
                        let ctx = decoder.last_element_context().expect("element context");
                        let handle = handles.insert(ctx);
                        decoder.skip_current();
                        if !eval.skip_close(Some(SubtreeRef(handle))) {
                            handles.remove(handle);
                        }
                        serve_readbacks(
                            &mut eval,
                            &mut decoder,
                            &mut handles,
                            &mut clock,
                            &mut spans,
                        )?;
                    }
                    Directive::Deliver => {
                        // Bulk delivery: stream the subtree's events
                        // without rule evaluation — bytes are still
                        // transferred and deciphered, record by record,
                        // and the element's own close arrives from the
                        // decoder (its open was already processed).
                        //
                        // The whole streamed span is charged to Decode:
                        // delivery is decoding plus copy-out, the rule
                        // engine never runs, and per-event clock reads
                        // here would blow the <2% instrumentation budget
                        // the A/B bench enforces on delivery-heavy
                        // profiles. Evaluate stays rule-engine-only.
                        clock.switch(&mut spans, Phase::Decode);
                        let depth = decoder.depth();
                        while let Some(event) = decoder.next()? {
                            eval.raw_event(&event);
                            if matches!(event, Event::Close(_)) && decoder.depth() < depth {
                                break;
                            }
                        }
                        clock.switch(&mut spans, Phase::Evaluate);
                        serve_readbacks(
                            &mut eval,
                            &mut decoder,
                            &mut handles,
                            &mut clock,
                            &mut spans,
                        )?;
                    }
                }
            }
        }
    }

    clock.switch(&mut spans, Phase::Evaluate);
    let result = eval.finish();
    clock.stop(&mut spans);
    let source = decoder.into_source();
    let reader_phases = source.reader.phases;
    let mut cost = source.reader.cost;
    // The reader's fetch/decrypt/hash time all accrued under the loop's
    // Decode span (the decoder's source is only pulled from
    // `decoder.next()`/`read_range`, both timed as Decode) — subtract it
    // so Decode reports decoding proper. Saturating: the clocks are
    // read at different instants, so tiny inversions are possible.
    let reader_nanos = reader_phases.get(Phase::Fetch)
        + reader_phases.get(Phase::Decrypt)
        + reader_phases.get(Phase::Hash);
    let mut phases = reader_phases;
    phases.add_nanos(Phase::Decode, spans.get(Phase::Decode).saturating_sub(reader_nanos));
    phases.add_nanos(Phase::Evaluate, spans.get(Phase::Evaluate));
    let evaluator_ops = (result.stats.token_ops + result.stats.events()) as u64;
    let result_bytes: usize = result
        .log
        .iter()
        .map(|item| match &item.node {
            xsac_core::output::LogNode::Element { tag, .. } => server.dict.name(*tag).len() * 2 + 5,
            xsac_core::output::LogNode::Text(t) => t.len(),
        })
        .sum();
    // The authorized result leaves the SOE over the same channel it came
    // in by (Table 1's "worst case where each data entering the SOE takes
    // part in the result").
    cost.bytes_to_soe += result_bytes as u64;
    let time = config.cost.time_of(&cost, evaluator_ops);
    Ok(SessionResult {
        log: result.log,
        output: result.output,
        stats: result.stats,
        cost,
        time,
        result_bytes,
        handles_created: handles.created,
        handles_peak: handles.peak,
        compiler: *policy.minimize_stats(),
        phases,
    })
}

/// Serves the evaluator's readback requests: transfers + verifies +
/// decodes the saved byte ranges ("pending elements or subtrees are read
/// back from the terminal", §5 — never re-analyzed, just delivered).
/// Each readback fetches exactly its saved range through the decoder's
/// source (metered and verified like any other access) and decodes it in
/// place — the document never needs a resident plaintext image. Served
/// contexts are dropped from the handle table, as are the contexts of
/// subtrees whose condition resolved false — the table stays O(pending).
fn serve_readbacks<S: ChunkStore>(
    eval: &mut Evaluator,
    decoder: &mut CursorDecoder<SoeSource<'_, S>>,
    handles: &mut HandleTable,
    clock: &mut SpanClock,
    spans: &mut PhaseProfile,
) -> Result<(), SessionError> {
    loop {
        for released in eval.take_released_handles() {
            handles.remove(released.0);
        }
        let reqs = eval.take_readbacks();
        if reqs.is_empty() {
            return Ok(());
        }
        for req in reqs {
            let ctx = handles.map.get(&req.subtree.0).expect("readback handle").clone();
            // Readback transfer + re-decode is decode-span work (its
            // reader costs are subtracted like any other fetch).
            clock.switch(spans, Phase::Decode);
            let data = decoder.read_range(&ctx)?;
            // The events borrow the decoder's range buffer, so the vector
            // is per-readback local; its length is O(delivered events),
            // and only actually-delivered subtrees pay it.
            let mut events: Vec<xsac_xml::Event<'_>> = Vec::new();
            decode_range(data, ctx.start, &ctx, &mut events)?;
            clock.switch(spans, Phase::Evaluate);
            eval.readback_events(req.entry, &events);
            handles.remove(req.subtree.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsac_core::oracle::oracle_view_string;
    use xsac_core::output::reassemble_to_string;
    use xsac_core::{Policy, Sign};
    use xsac_crypto::chunk::ChunkLayout;
    use xsac_crypto::IntegrityScheme;
    use xsac_xml::Document;

    fn key() -> TripleDes {
        TripleDes::new(*b"0123456789abcdefFEDCBA98")
    }

    fn tiny_layout() -> ChunkLayout {
        ChunkLayout { chunk_size: 256, fragment_size: 32 }
    }

    fn run(
        xml: &str,
        rules: &[(Sign, &str)],
        strategy: Strategy,
        scheme: IntegrityScheme,
    ) -> (String, AccessCost) {
        let doc = Document::parse(xml).unwrap();
        let k = key();
        let server = ServerDoc::prepare(&doc, &k, scheme, tiny_layout());
        let mut dict = server.dict.clone();
        let policy = Policy::parse("u", rules, &mut dict).unwrap();
        let config = SessionConfig { strategy, cost: CostModel::smartcard() };
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let res = run_session_shared(&server, &k, &compiled, None, &config, None).unwrap();
        (reassemble_to_string(&dict, &res.log), res.cost)
    }

    #[test]
    fn session_matches_oracle() {
        let xml = "<a><b><c>keep</c><d>1</d></b><e><f>drop drop drop</f></e></a>";
        let rules: &[(Sign, &str)] = &[(Sign::Permit, "//b[d=1]"), (Sign::Deny, "//e")];
        let doc = Document::parse(xml).unwrap();
        let mut dict = doc.dict.clone();
        let policy = Policy::parse("u", rules, &mut dict).unwrap();
        let expected = oracle_view_string(&doc, &policy);
        for strategy in [Strategy::Tcsbr, Strategy::BruteForce] {
            for scheme in IntegrityScheme::ALL {
                let (got, _) = run(xml, rules, strategy, scheme);
                assert_eq!(got, expected, "{strategy:?} {scheme:?}");
            }
        }
    }

    #[test]
    fn skipping_saves_bytes() {
        // A large denied subtree must not be transferred under Tcsbr.
        let mut xml = String::from("<a><keep>y</keep><deny>");
        for i in 0..200 {
            xml.push_str(&format!("<x>secret value number {i}</x>"));
        }
        xml.push_str("</deny></a>");
        let rules: &[(Sign, &str)] = &[(Sign::Permit, "/a"), (Sign::Deny, "/a/deny")];
        let (out_skip, cost_skip) = run(&xml, rules, Strategy::Tcsbr, IntegrityScheme::EcbMht);
        let (out_bf, cost_bf) = run(&xml, rules, Strategy::BruteForce, IntegrityScheme::EcbMht);
        assert_eq!(out_skip, out_bf);
        assert!(
            cost_skip.bytes_to_soe * 2 < cost_bf.bytes_to_soe,
            "skipping must save most communication: {} vs {}",
            cost_skip.bytes_to_soe,
            cost_bf.bytes_to_soe
        );
        assert!(cost_skip.bytes_decrypted < cost_bf.bytes_decrypted);
    }

    #[test]
    fn pending_subtree_never_decrypted_when_denied() {
        // ⊕ //a[x=1]//b with x=2: the b subtree is skipped pending and the
        // predicate resolves false — its bytes must never be read.
        let mut xml = String::from("<a><b>");
        for i in 0..100 {
            xml.push_str(&format!("<k>pending payload {i}</k>"));
        }
        xml.push_str("</b><x>2</x></a>");
        let rules: &[(Sign, &str)] = &[(Sign::Permit, "//a[x=1]//b")];
        let (out, cost) = run(&xml, rules, Strategy::Tcsbr, IntegrityScheme::EcbMht);
        assert_eq!(out, "");
        let (_, cost_bf) = run(&xml, rules, Strategy::BruteForce, IntegrityScheme::EcbMht);
        assert!(
            cost.bytes_to_soe * 2 < cost_bf.bytes_to_soe,
            "pending-denied subtree must stay on the terminal: {} vs {}",
            cost.bytes_to_soe,
            cost_bf.bytes_to_soe
        );
    }

    #[test]
    fn pending_subtree_read_back_when_granted() {
        let xml = "<a><b><k>v1</k><k>v2</k></b><x>1</x></a>";
        let rules: &[(Sign, &str)] = &[(Sign::Permit, "//a[x=1]//b")];
        let doc = Document::parse(xml).unwrap();
        let mut dict = doc.dict.clone();
        let policy = Policy::parse("u", rules, &mut dict).unwrap();
        let expected = oracle_view_string(&doc, &policy);
        let (got, _) = run(xml, rules, Strategy::Tcsbr, IntegrityScheme::EcbMht);
        assert_eq!(got, expected);
        assert!(got.contains("v1") && got.contains("v2"));
    }

    #[test]
    fn mht_terminal_hashing_amortized_per_chunk() {
        // End-to-end acceptance for the PR-2 leaf cache: however many
        // fragment fetches a session makes inside a chunk, terminal
        // hashing stays ≤ one chunk-length per chunk of the document —
        // even for brute force, which visits every fragment of every
        // chunk.
        let mut xml = String::from("<a>");
        for i in 0..120 {
            xml.push_str(&format!("<r><k>keep {i}</k><d>drop {i}</d><x>1</x></r>"));
        }
        xml.push_str("</a>");
        let doc = Document::parse(&xml).unwrap();
        let k = key();
        let server = ServerDoc::prepare(&doc, &k, IntegrityScheme::EcbMht, tiny_layout());
        let ciphertext_len = server.protected.ciphertext().len() as u64;
        // `//r[x=1]//k` leaves every k subtree pending until its r's x is
        // seen, forcing a backward readback jump per record — the access
        // pattern that would thrash a single-chunk cache.
        for rules in [&[(Sign::Permit, "//k")][..], &[(Sign::Permit, "//r[x=1]//k")][..]] {
            let mut dict = server.dict.clone();
            let policy = Policy::parse("u", rules, &mut dict).unwrap();
            let compiled = Arc::new(CompiledPolicy::compile(&policy));
            for strategy in [Strategy::Tcsbr, Strategy::BruteForce] {
                let config = SessionConfig { strategy, cost: CostModel::smartcard() };
                let res = run_session_shared(&server, &k, &compiled, None, &config, None).unwrap();
                assert!(
                    res.cost.terminal_bytes_hashed <= ciphertext_len,
                    "{strategy:?} {rules:?}: terminal hashed {} > document size {} — \
                     leaf cache not amortizing",
                    res.cost.terminal_bytes_hashed,
                    ciphertext_len
                );
                assert!(res.cost.terminal_bytes_hashed > 0, "{strategy:?}: MHT must hash leaves");
            }
        }
    }

    #[test]
    fn readback_contexts_dropped_when_served_or_discarded() {
        // Readback-heavy session: every record's k subtree pends on its
        // record's x, resolved (alternately true and false) before the
        // next record opens. Contexts must be dropped as they are served
        // (x=1) or discarded (x=2), so the retained peak stays O(pending)
        // — a handful — while the total created grows with the document.
        let mut xml = String::from("<a>");
        for i in 0..150 {
            let x = 1 + (i % 2);
            xml.push_str(&format!("<r><k>payload number {i}</k><x>{x}</x></r>"));
        }
        xml.push_str("</a>");
        let rules: &[(Sign, &str)] = &[(Sign::Permit, "//r[x=1]//k")];
        let doc = Document::parse(&xml).unwrap();
        let k = key();
        let server = ServerDoc::prepare(&doc, &k, IntegrityScheme::EcbMht, tiny_layout());
        let mut dict = server.dict.clone();
        let policy = Policy::parse("u", rules, &mut dict).unwrap();
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let res = run_session_shared(&server, &k, &compiled, None, &SessionConfig::default(), None)
            .unwrap();
        assert!(
            res.handles_created >= 100,
            "expected one pending skip per record, got {}",
            res.handles_created
        );
        assert!(
            res.handles_peak <= 8,
            "handle table must stay O(pending): peak {} for {} created",
            res.handles_peak,
            res.handles_created
        );
        // And the session still delivers the right view.
        let expected = oracle_view_string(&doc, &policy);
        assert_eq!(reassemble_to_string(&dict, &res.log), expected);
    }

    #[test]
    fn tampering_aborts_session() {
        let doc = Document::parse("<a><b>hello world hello</b></a>").unwrap();
        let k = key();
        let mut server = ServerDoc::prepare(&doc, &k, IntegrityScheme::EcbMht, tiny_layout());
        // Tamper one ciphertext byte.
        let n = server.protected.ciphertext().len();
        server.protected.ciphertext_mut()[n / 2] ^= 0x80;
        let mut dict = server.dict.clone();
        let policy = Policy::parse("u", &[(Sign::Permit, "//a")], &mut dict).unwrap();
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let res = run_session_shared(&server, &k, &compiled, None, &SessionConfig::default(), None);
        assert!(matches!(res, Err(SessionError::Integrity(_))));
    }

    #[test]
    fn query_session() {
        let xml = "<r><f><age>70</age><n>A</n></f><f><age>50</age><n>B</n></f></r>";
        let doc = Document::parse(xml).unwrap();
        let k = key();
        let server = ServerDoc::prepare(&doc, &k, IntegrityScheme::EcbMht, tiny_layout());
        let mut dict = server.dict.clone();
        let policy = Policy::parse("u", &[(Sign::Permit, "/r")], &mut dict).unwrap();
        let q = Automaton::parse("//f[age > 65]", &mut dict).unwrap();
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let res =
            run_session_shared(&server, &k, &compiled, Some(&q), &SessionConfig::default(), None)
                .unwrap();
        let got = reassemble_to_string(&dict, &res.log);
        assert_eq!(got, "<r><f><age>70</age><n>A</n></f></r>");
        assert!(res.time.total() > 0.0);
        assert!(res.result_bytes > 0);
    }
}
