//! Authorized-view construction: delivery log, Pending Stack, anchors and
//! reassembly (§5 of the paper).
//!
//! Delivered nodes are appended to a **delivery log**. Each log item places
//! one node (element tag or text) at an **anchor**: the paper identifies
//! "the future position of a pending element e' in the result by a single
//! number: `Ne` if e' is a potential right sibling of e, or `-Ne` if e' is
//! the potential leftmost child of e". [`Anchor::AfterSibling`] and
//! [`Anchor::FirstChildOf`] are those two cases; committed (non-pending)
//! nodes carry the same anchors, which makes the log order-independent and
//! lets pending fragments be delivered out of document order — "the benefit
//! of this asynchrony is to reduce the latency of the access control
//! management and to free the SOE internal memory, at the price of a more
//! complex reassembling of the final result".
//!
//! Pending nodes are registered in the **Pending Stack** as
//! `<value, level, skiptree, condition, anchor>` (§5). Entries whose
//! delivery condition resolves true are emitted (whole skipped subtrees
//! trigger a *readback request* so the driver re-reads the still-encrypted
//! bytes from the terminal); entries resolving false are discarded without
//! their content ever having been decrypted.
//!
//! The **structural rule** (§2) is enforced here: delivering a node forces
//! the emission of its not-yet-emitted ancestors as *shells* (opening tags
//! only, optionally renamed to a dummy when denied).

use crate::condition::{Cond, PredInstId, Ternary};
use crate::predicate::PredRegistry;
use std::collections::HashMap;
use std::sync::Arc;
use xsac_xml::{Document, Event, TagDict, TagId};

/// Placement of a log item in the result document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// Immediately after the item with the given sequence number, as its
    /// right sibling (the paper's `Ne`).
    AfterSibling(u64),
    /// First child of the item with the given sequence number (the paper's
    /// `-Ne`).
    FirstChildOf(u64),
    /// Root position of the result document.
    Document,
}

/// One delivered node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogNode {
    /// An element. `granted` distinguishes truly authorized elements from
    /// structural shells (ancestors kept for the structural rule).
    Element {
        /// Interned tag.
        tag: TagId,
        /// False for structural shells.
        granted: bool,
    },
    /// A text node.
    Text(String),
}

/// One item of the delivery log.
#[derive(Clone, Debug, PartialEq)]
pub struct LogItem {
    /// Sequence number (== index in the log).
    pub seq: u64,
    /// Placement.
    pub anchor: Anchor,
    /// Payload.
    pub node: LogNode,
}

/// Opaque driver-side handle to a skipped (still encrypted) subtree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubtreeRef(pub u64);

/// Request to re-read a skipped pending subtree whose condition resolved
/// true ("pending elements or subtrees are read back from the terminal").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadbackRequest {
    /// Pending-entry identifier to pass back to
    /// [`OutputBuilder::deliver_readback`].
    pub entry: usize,
    /// The driver handle registered at skip time.
    pub subtree: SubtreeRef,
}

/// What the evaluator decided for a node.
#[derive(Clone, Debug)]
pub enum Disposition {
    /// Decision ⊕ (and query cover) — deliver now.
    Commit,
    /// Decision ⊖ (or outside the query scope) — never deliver.
    Drop,
    /// Decision ? — buffer under the given delivery condition.
    Pend(Arc<Cond>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChildRef {
    Committed(u64),
    Pending(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ParentRef {
    /// Parent already in the log (or `None` for the document root).
    Committed(Option<u64>),
    /// Parent is a pending entry.
    Pending(usize),
}

#[derive(Clone, Debug, PartialEq)]
enum EntryState {
    Waiting,
    /// Subtree entry whose readback request has been issued to the driver.
    ReadbackIssued,
    /// Emitted as a structural shell (open tag only), not yet granted.
    Shell(u64),
    /// Fully delivered.
    Done(u64),
    /// Condition resolved false; never delivered (kept for anchor
    /// recovery of its right siblings).
    Dead,
}

#[derive(Clone, Debug)]
enum Payload {
    Element(TagId),
    Text(String),
    /// A skipped subtree rooted at the given tag; content still encrypted
    /// on the terminal, addressed by the driver handle.
    Subtree(TagId, SubtreeRef),
    /// A skipped *remainder* of an element: a forest of sibling subtrees
    /// (plus possible text), still encrypted, addressed by the handle.
    Forest(SubtreeRef),
}

/// One Pending-Stack entry: `<value, level, skiptree, condition, anchor>`.
/// The paper's `level` is not stored: relations are recovered from the
/// explicit parent and prev-sibling refs.
#[derive(Clone, Debug)]
struct PendingEntry {
    payload: Payload,
    cond: Arc<Cond>,
    state: EntryState,
    parent: ParentRef,
    prev_sibling: Option<ChildRef>,
    /// Memoized anchor (the paper memorizes anchors when the left
    /// neighbour is already delivered at buffering time).
    anchor_memo: Option<Anchor>,
}

/// Book-keeping for an element currently open in the input document.
#[derive(Clone, Debug)]
struct LiveElem {
    tag: TagId,
    /// Log seq if the opening tag has been emitted.
    emitted: Option<u64>,
    /// Pending entry for this element, when its decision was `?`.
    pending_idx: Option<usize>,
    /// Most recent child placed (committed or pending) — the prev-sibling
    /// pointer for the next child.
    last_child: Option<ChildRef>,
}

/// Statistics of the output side.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OutputStats {
    /// Log items emitted.
    pub items: usize,
    /// Pending entries created.
    pub pending_created: usize,
    /// Peak simultaneous waiting entries.
    pub pending_peak: usize,
    /// Structural shells emitted.
    pub shells: usize,
    /// Entries discarded (condition false).
    pub discarded: usize,
    /// Skipped subtrees read back.
    pub readbacks: usize,
    /// Total text bytes delivered.
    pub text_bytes: usize,
}

/// Builds the authorized view.
pub struct OutputBuilder {
    log: Vec<LogItem>,
    entries: Vec<PendingEntry>,
    live: Vec<LiveElem>,
    watchers: HashMap<PredInstId, Vec<usize>>,
    readbacks: Vec<ReadbackRequest>,
    /// Skipped-subtree handles whose entries were discarded (condition
    /// false): their encrypted bytes will never be read back, so the
    /// driver can drop its decoder context.
    released: Vec<SubtreeRef>,
    waiting: usize,
    /// Replace the names of non-granted shells with a dummy tag (§2).
    dummy_tag: Option<TagId>,
    stats: OutputStats,
}

impl OutputBuilder {
    /// New builder. When `dummy_tag` is set, structural shells emitted for
    /// non-granted ancestors use it instead of the real element name.
    pub fn new(dummy_tag: Option<TagId>) -> Self {
        OutputBuilder {
            log: Vec::new(),
            entries: Vec::new(),
            live: Vec::new(),
            watchers: HashMap::new(),
            readbacks: Vec::new(),
            released: Vec::new(),
            waiting: 0,
            dummy_tag,
            stats: OutputStats::default(),
        }
    }

    /// Handles an element open.
    pub fn open_element(&mut self, tag: TagId, disp: Disposition, reg: &PredRegistry) {
        let mut rec = LiveElem { tag, emitted: None, pending_idx: None, last_child: None };
        match disp {
            Disposition::Commit => {
                rec.emitted = Some(self.commit(LogNode::Element { tag, granted: true }));
            }
            // A denied element still materializes its unemitted parent's
            // shadow entry now, as the other dispositions do, so entry
            // order and the Pending-Stack counts do not depend on it.
            Disposition::Drop => {
                self.parent_ref_for_new_child();
            }
            Disposition::Pend(cond) => {
                rec.pending_idx = Some(self.pend(Payload::Element(tag), cond, reg));
            }
        }
        self.live.push(rec);
    }

    /// Handles a text node under the current element.
    pub fn text(&mut self, content: &str, disp: Disposition, reg: &PredRegistry) {
        match disp {
            Disposition::Commit => {
                self.commit(LogNode::Text(content.to_owned()));
            }
            Disposition::Drop => {}
            Disposition::Pend(cond) => {
                self.pend(Payload::Text(content.to_owned()), cond, reg);
            }
        }
    }

    /// Handles the close of the current element.
    pub fn close_element(&mut self) {
        self.live.pop().expect("close without open");
    }

    /// Registers a whole *skipped* subtree as pending: its bytes were never
    /// decrypted; `subtree` is the driver's readback handle. The subtree
    /// root element was at depth `live.len() + 1` (its open event was seen,
    /// the skip covers everything inside; no matching `close_element` call
    /// follows).
    pub fn pend_skipped_subtree(
        &mut self,
        tag: TagId,
        cond: Arc<Cond>,
        subtree: SubtreeRef,
        reg: &PredRegistry,
    ) {
        self.pend(Payload::Subtree(tag, subtree), cond, reg);
    }

    /// Registers the *remaining content* of the current element as a
    /// skipped pending forest (skip-on-close, Figure 7: the rest of the
    /// element is skipped once the decision settles mid-element).
    pub fn pend_skipped_rest(&mut self, cond: Arc<Cond>, subtree: SubtreeRef, reg: &PredRegistry) {
        self.pend(Payload::Forest(subtree), cond, reg);
    }

    /// Processes freshly resolved predicate instances: re-evaluates the
    /// conditions of the entries watching them; delivers, discards, or
    /// re-registers.
    pub fn process_resolutions(&mut self, resolved: &[PredInstId], reg: &PredRegistry) {
        for id in resolved {
            let Some(watching) = self.watchers.remove(id) else {
                continue;
            };
            for idx in watching {
                if !matches!(self.entries[idx].state, EntryState::Waiting | EntryState::Shell(_)) {
                    continue;
                }
                let cond = self.entries[idx].cond.clone();
                match cond.eval(&reg.lookup()) {
                    Ternary::True => self.deliver_entry(idx),
                    Ternary::False => {
                        if matches!(self.entries[idx].state, EntryState::Waiting) {
                            self.entries[idx].state = EntryState::Dead;
                            self.waiting -= 1;
                            self.stats.discarded += 1;
                            // Skipped content that will never be delivered:
                            // the driver can forget how to read it back.
                            match self.entries[idx].payload {
                                Payload::Subtree(_, h) | Payload::Forest(h) => {
                                    self.released.push(h)
                                }
                                _ => {}
                            }
                        }
                        // Shells stay: the structure was already required.
                    }
                    Ternary::Unknown => self.watch(idx, &cond, reg),
                }
            }
        }
    }

    /// Drains the readback requests issued since the last call.
    pub fn take_readbacks(&mut self) -> Vec<ReadbackRequest> {
        std::mem::take(&mut self.readbacks)
    }

    /// Drains the handles of skipped subtrees discarded since the last
    /// call (condition resolved false): the driver can drop whatever
    /// readback state it kept for them, so a long session's handle table
    /// stays proportional to the *pending* entries, not to every skip
    /// ever taken.
    pub fn take_released(&mut self) -> Vec<SubtreeRef> {
        std::mem::take(&mut self.released)
    }

    /// Delivers the events of a read-back subtree (the driver decrypted,
    /// verified and decoded the byte range of `req`). Owned text moves
    /// into the log as it is.
    pub fn deliver_readback<'e>(
        &mut self,
        entry: usize,
        events: impl IntoIterator<Item = Event<'e>>,
    ) {
        debug_assert!(matches!(
            self.entries[entry].payload,
            Payload::Subtree(..) | Payload::Forest(..)
        ));
        self.stats.readbacks += 1;
        // The fragment replaces the pending entry; items after the first
        // are placed relative to the fragment structure. Forest payloads
        // may contain several sibling roots: roots after the first anchor
        // to their delivered left sibling.
        let root_anchor = self.prepare_delivery(entry);
        let mut stack: Vec<u64> = Vec::new();
        let mut last_at_level: Vec<Option<u64>> = vec![None];
        let mut first = true;
        let place = |this: &mut Self,
                     first: &mut bool,
                     stack: &Vec<u64>,
                     last_at_level: &Vec<Option<u64>>|
         -> Anchor {
            if *first {
                *first = false;
                this.entries[entry].state = EntryState::Done(0); // fixed below
                root_anchor
            } else {
                match last_at_level.last().copied().flatten() {
                    Some(s) => Anchor::AfterSibling(s),
                    None => Anchor::FirstChildOf(*stack.last().expect("fragment depth")),
                }
            }
        };
        let mut done_seq: Option<u64> = None;
        for ev in events {
            match ev {
                Event::Open(tag) => {
                    let was_first = first;
                    let anchor = place(self, &mut first, &stack, &last_at_level);
                    let seq = self.emit(anchor, LogNode::Element { tag, granted: true });
                    if was_first {
                        done_seq = Some(seq);
                    }
                    *last_at_level.last_mut().expect("level") = Some(seq);
                    stack.push(seq);
                    last_at_level.push(None);
                }
                Event::Text(t) => {
                    let was_first = first;
                    let anchor = place(self, &mut first, &stack, &last_at_level);
                    let seq = self.emit(anchor, LogNode::Text(t.into_owned()));
                    if was_first {
                        done_seq = Some(seq);
                    }
                    *last_at_level.last_mut().expect("level") = Some(seq);
                }
                Event::Close(_) => {
                    stack.pop();
                    last_at_level.pop();
                }
            }
        }
        let seq = done_seq.expect("readback fragment must contain at least one node");
        self.entries[entry].state = EntryState::Done(seq);
        self.entries[entry].anchor_memo = Some(root_anchor);
        self.waiting -= 1;
    }

    /// Finalizes the output. Panics if any entry is still undetermined —
    /// at document end every predicate scope has closed, so every
    /// condition must have resolved.
    pub fn finish(mut self, reg: &PredRegistry) -> (Vec<LogItem>, OutputStats) {
        assert!(
            self.readbacks.is_empty()
                && !self.entries.iter().any(|e| e.state == EntryState::ReadbackIssued),
            "readback requests must be served before finishing"
        );
        let undecided: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.state, EntryState::Waiting))
            .filter(|(_, e)| e.cond.eval(&reg.lookup()) == Ternary::Unknown)
            .map(|(i, _)| i)
            .collect();
        assert!(undecided.is_empty(), "unresolved pending entries at document end: {undecided:?}");
        // Sweep entries that resolved without a watcher firing (true
        // conditions are delivered, false ones discarded).
        for idx in 0..self.entries.len() {
            if matches!(self.entries[idx].state, EntryState::Waiting) {
                match self.entries[idx].cond.clone().eval(&reg.lookup()) {
                    Ternary::True => self.deliver_entry(idx),
                    _ => {
                        self.entries[idx].state = EntryState::Dead;
                        self.waiting -= 1;
                        self.stats.discarded += 1;
                    }
                }
            }
        }
        (self.log, self.stats)
    }

    /// Output statistics so far.
    pub fn stats(&self) -> &OutputStats {
        &self.stats
    }

    /// Number of entries currently waiting (SOE memory accounting).
    pub fn waiting_entries(&self) -> usize {
        self.waiting
    }

    // ------------------------------------------------------------------
    // internals

    /// Emits structural shells for the live ancestor chain so that a
    /// committed node always has an emitted parent (structural rule).
    fn ensure_live_parent_emitted(&mut self) {
        let Some(top) = self.live.len().checked_sub(1) else {
            return;
        };
        if self.live[top].emitted.is_some() {
            return;
        }
        let idx = self.shadow_for_live(top);
        let seq = self.ensure_emitted(idx);
        self.live[top].emitted = Some(seq);
    }

    fn parent_ref_for_new_child(&mut self) -> ParentRef {
        match self.live.last() {
            None => ParentRef::Committed(None),
            Some(l) => {
                if let Some(seq) = l.emitted {
                    ParentRef::Committed(Some(seq))
                } else if let Some(idx) = l.pending_idx {
                    ParentRef::Pending(idx)
                } else {
                    // Denied, unemitted ancestor: materialize a shadow
                    // pending entry so that later deliveries can rebuild
                    // the path (structural rule).
                    let idx = self.shadow_for_live(self.live.len() - 1);
                    ParentRef::Pending(idx)
                }
            }
        }
    }

    /// Creates (recursively) shadow entries for unemitted, non-pending
    /// live ancestors. Returns the entry index for `live[i]`.
    fn shadow_for_live(&mut self, i: usize) -> usize {
        if let Some(idx) = self.live[i].pending_idx {
            return idx;
        }
        debug_assert!(self.live[i].emitted.is_none());
        let parent = if i == 0 {
            ParentRef::Committed(None)
        } else if let Some(seq) = self.live[i - 1].emitted {
            ParentRef::Committed(Some(seq))
        } else {
            ParentRef::Pending(self.shadow_for_live(i - 1))
        };
        let entry = PendingEntry {
            payload: Payload::Element(self.live[i].tag),
            cond: Cond::f(), // the element itself is denied
            state: EntryState::Waiting,
            parent,
            prev_sibling: self.prev_sibling_of_live(i),
            anchor_memo: None,
        };
        let idx = self.push_entry(entry);
        // Shadows have a constant-false condition: no watcher, they are
        // only ever emitted as shells.
        self.entries[idx].state = EntryState::Dead;
        self.waiting -= 1;
        self.live[i].pending_idx = Some(idx);
        // The shadowed element is its parent's most recent child (it is
        // still open); record it so younger siblings anchor after it.
        if i > 0 {
            self.live[i - 1].last_child = Some(ChildRef::Pending(idx));
        }
        idx
    }

    fn prev_sibling_of_live(&self, i: usize) -> Option<ChildRef> {
        if i == 0 {
            None
        } else {
            self.live[i - 1].last_child
        }
    }

    /// Delivers a node of the current element now (decision ⊕), after
    /// the shells its ancestors need; returns its log seq.
    fn commit(&mut self, node: LogNode) -> u64 {
        self.ensure_live_parent_emitted();
        let anchor = self.anchor_for_committed();
        let seq = self.emit(anchor, node);
        self.note_child(ChildRef::Committed(seq));
        seq
    }

    /// Buffers a node of the current element in the Pending Stack under
    /// `cond` (decision ?), watching the condition's unresolved variables;
    /// returns the entry index.
    fn pend(&mut self, payload: Payload, cond: Arc<Cond>, reg: &PredRegistry) -> usize {
        let parent = self.parent_ref_for_new_child();
        let prev_sibling = self.live.last().and_then(|l| l.last_child);
        let idx = self.push_entry(PendingEntry {
            payload,
            cond: cond.clone(),
            state: EntryState::Waiting,
            parent,
            prev_sibling,
            anchor_memo: None,
        });
        self.watch(idx, &cond, reg);
        self.note_child(ChildRef::Pending(idx));
        idx
    }

    fn note_child(&mut self, child: ChildRef) {
        if let Some(l) = self.live.last_mut() {
            l.last_child = Some(child);
        }
    }

    fn anchor_for_committed(&self) -> Anchor {
        match self.live.last() {
            None => Anchor::Document,
            Some(l) => {
                // Committed items anchor to their nearest committed left
                // sibling; pending left siblings deliver later and insert
                // themselves between.
                let mut prev = l.last_child;
                loop {
                    match prev {
                        Some(ChildRef::Committed(seq)) => return Anchor::AfterSibling(seq),
                        Some(ChildRef::Pending(idx)) => match self.entries[idx].state {
                            EntryState::Done(seq) | EntryState::Shell(seq) => {
                                return Anchor::AfterSibling(seq)
                            }
                            _ => prev = self.entries[idx].prev_sibling,
                        },
                        None => {
                            let seq = l.emitted.expect("committed child under unemitted parent");
                            return Anchor::FirstChildOf(seq);
                        }
                    }
                }
            }
        }
    }

    fn emit(&mut self, anchor: Anchor, node: LogNode) -> u64 {
        let seq = self.log.len() as u64;
        if let LogNode::Text(t) = &node {
            self.stats.text_bytes += t.len();
        }
        self.log.push(LogItem { seq, anchor, node });
        self.stats.items += 1;
        seq
    }

    fn push_entry(&mut self, entry: PendingEntry) -> usize {
        self.entries.push(entry);
        self.waiting += 1;
        self.stats.pending_created += 1;
        self.stats.pending_peak = self.stats.pending_peak.max(self.waiting);
        self.entries.len() - 1
    }

    /// Registers watchers on the unresolved variables of `cond`, expanding
    /// through registry `Expr` resolutions.
    fn watch(&mut self, idx: usize, cond: &Arc<Cond>, reg: &PredRegistry) {
        let mut direct = Vec::new();
        cond.vars(&mut direct);
        let mut seen = Vec::new();
        while let Some(v) = direct.pop() {
            if seen.contains(&v) {
                continue;
            }
            seen.push(v);
            match reg.state(v) {
                crate::predicate::InstState::Unknown => {
                    self.watchers.entry(v).or_default().push(idx);
                }
                crate::predicate::InstState::Known(_) => {}
                crate::predicate::InstState::Expr(c) => c.vars(&mut direct),
            }
        }
    }

    /// Computes (and memoizes) the anchor of an entry, walking the
    /// prev-sibling chain — the paper's anchor-recovery relations.
    fn resolve_anchor(&mut self, idx: usize) -> Anchor {
        if let Some(a) = self.entries[idx].anchor_memo {
            return a;
        }
        let mut cur = self.entries[idx].prev_sibling;
        let anchor = loop {
            match cur {
                Some(ChildRef::Committed(seq)) => break Anchor::AfterSibling(seq),
                Some(ChildRef::Pending(i)) => match self.entries[i].state {
                    EntryState::Done(seq) | EntryState::Shell(seq) => {
                        break Anchor::AfterSibling(seq)
                    }
                    EntryState::Waiting | EntryState::ReadbackIssued | EntryState::Dead => {
                        if let Some(a) = self.entries[i].anchor_memo {
                            break a;
                        }
                        cur = self.entries[i].prev_sibling;
                    }
                },
                None => match self.entries[idx].parent {
                    ParentRef::Committed(Some(seq)) => break Anchor::FirstChildOf(seq),
                    ParentRef::Committed(None) => break Anchor::Document,
                    ParentRef::Pending(p) => {
                        let seq = self.ensure_emitted(p);
                        break Anchor::FirstChildOf(seq);
                    }
                },
            }
        };
        self.entries[idx].anchor_memo = Some(anchor);
        anchor
    }

    /// Emits the entry as a structural shell if it is not in the log yet;
    /// returns its log seq.
    fn ensure_emitted(&mut self, idx: usize) -> u64 {
        match self.entries[idx].state {
            EntryState::Done(seq) | EntryState::Shell(seq) => return seq,
            _ => {}
        }
        if let ParentRef::Pending(p) = self.entries[idx].parent {
            self.ensure_emitted(p);
        }
        let anchor = self.resolve_anchor(idx);
        let tag = match self.entries[idx].payload {
            Payload::Element(t) | Payload::Subtree(t, _) => t,
            Payload::Text(_) => panic!("text entries cannot be shells"),
            Payload::Forest(_) => panic!("forest entries cannot be shells"),
        };
        let shown = self.dummy_tag.unwrap_or(tag);
        let was_waiting = matches!(self.entries[idx].state, EntryState::Waiting);
        let seq = self.emit(anchor, LogNode::Element { tag: shown, granted: false });
        self.stats.shells += 1;
        self.entries[idx].state = EntryState::Shell(seq);
        if was_waiting {
            self.waiting -= 1;
        }
        seq
    }

    /// Prepares delivery of an entry: parents first, anchor resolved.
    fn prepare_delivery(&mut self, idx: usize) -> Anchor {
        if let ParentRef::Pending(p) = self.entries[idx].parent {
            self.ensure_emitted(p);
        }
        self.resolve_anchor(idx)
    }

    /// Delivers an entry whose condition resolved true.
    fn deliver_entry(&mut self, idx: usize) {
        match self.entries[idx].state.clone() {
            EntryState::Done(_) | EntryState::Dead | EntryState::ReadbackIssued => {}
            EntryState::Shell(seq) => {
                // Already present structurally; the element itself is now
                // granted. (Log items are immutable; grantedness upgrades
                // are applied at reassembly via the entry table.)
                self.entries[idx].state = EntryState::Done(seq);
            }
            EntryState::Waiting => {
                let node = match self.entries[idx].payload.clone() {
                    Payload::Element(tag) => LogNode::Element { tag, granted: true },
                    Payload::Text(t) => LogNode::Text(t),
                    Payload::Subtree(_, subtree) | Payload::Forest(subtree) => {
                        // Content must be read back by the driver; completed
                        // by `deliver_readback`.
                        self.entries[idx].state = EntryState::ReadbackIssued;
                        self.readbacks.push(ReadbackRequest { entry: idx, subtree });
                        return;
                    }
                };
                let anchor = self.prepare_delivery(idx);
                let seq = self.emit(anchor, node);
                self.entries[idx].state = EntryState::Done(seq);
                self.entries[idx].anchor_memo = Some(anchor);
                self.waiting -= 1;
            }
        }
    }
}

/// Reassembles a delivery log into a [`Document`] (the terminal-side step
/// of §5). Returns `None` for an empty view.
pub fn reassemble(dict: &TagDict, log: &[LogItem]) -> Option<Document> {
    // Build children lists keyed by log seq.
    #[derive(Default, Clone)]
    struct Slot {
        children: Vec<u64>,
    }
    let mut slots: Vec<Slot> = vec![Slot::default(); log.len()];
    let mut parents: Vec<Option<u64>> = vec![None; log.len()];
    let mut roots: Vec<u64> = Vec::new();
    for item in log {
        match item.anchor {
            Anchor::Document => {
                roots.insert(0, item.seq);
            }
            Anchor::FirstChildOf(p) => {
                slots[p as usize].children.insert(0, item.seq);
                parents[item.seq as usize] = Some(p);
            }
            Anchor::AfterSibling(s) => {
                let parent = parents[s as usize];
                parents[item.seq as usize] = parent;
                let list = match parent {
                    Some(p) => &mut slots[p as usize].children,
                    None => &mut roots,
                };
                let pos = list.iter().position(|&x| x == s).expect("anchor target present");
                list.insert(pos + 1, item.seq);
            }
        }
    }
    let root_seq = *roots.first()?;
    assert!(roots.len() <= 1, "authorized views have a single root");
    fn build(
        dict: &TagDict,
        log: &[LogItem],
        slots: &[Slot],
        seq: u64,
        b: &mut xsac_xml::tree::DocBuilder<'_>,
    ) {
        for &c in &slots[seq as usize].children {
            match &log[c as usize].node {
                LogNode::Element { tag, .. } => {
                    b.open(dict.name(*tag));
                    build(dict, log, slots, c, b);
                    b.close();
                }
                LogNode::Text(t) => {
                    b.text(t.clone());
                }
            }
        }
    }
    let LogNode::Element { tag: root_tag, .. } = &log[root_seq as usize].node else {
        panic!("root log item must be an element");
    };
    let root_name = dict.name(*root_tag).to_owned();
    Some(Document::build(&root_name, |b| build(dict, log, &slots, root_seq, b)))
}

/// Reassembles and serializes (empty string for an empty view).
pub fn reassemble_to_string(dict: &TagDict, log: &[LogItem]) -> String {
    match reassemble(dict, log) {
        Some(doc) => xsac_xml::writer::document_to_string(&doc),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict_with(names: &[&str]) -> (TagDict, Vec<TagId>) {
        let mut d = TagDict::new();
        let ids = names.iter().map(|n| d.intern(n)).collect();
        (d, ids)
    }

    #[test]
    fn committed_stream_reassembles_in_order() {
        let (dict, t) = dict_with(&["a", "b", "c"]);
        let reg = PredRegistry::new();
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg); // <a>
        out.open_element(t[1], Disposition::Commit, &reg); // <b>
        out.text("x", Disposition::Commit, &reg);
        out.close_element();
        out.open_element(t[2], Disposition::Commit, &reg); // <c>
        out.close_element();
        out.close_element();
        let (log, stats) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<a><b>x</b><c></c></a>");
        assert_eq!(stats.items, 4);
        assert_eq!(stats.text_bytes, 1);
    }

    #[test]
    fn dropped_nodes_disappear() {
        let (dict, t) = dict_with(&["a", "b"]);
        let reg = PredRegistry::new();
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg);
        out.open_element(t[1], Disposition::Drop, &reg);
        out.text("secret", Disposition::Drop, &reg);
        out.close_element();
        out.close_element();
        let (log, _) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<a></a>");
    }

    #[test]
    fn pending_delivers_in_place_when_resolved_true() {
        let (dict, t) = dict_with(&["a", "b", "c"]);
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg); // <a>
        out.open_element(t[1], Disposition::Pend(Cond::var(p)), &reg); // <b>?
        out.text("x", Disposition::Pend(Cond::var(p)), &reg);
        out.close_element();
        out.open_element(t[2], Disposition::Commit, &reg); // <c> delivered first
        out.close_element();
        // Resolution arrives after <c> was emitted.
        reg.satisfy(p);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        out.close_element();
        let (log, _) = out.finish(&reg);
        // b must reappear *before* c despite later delivery.
        assert_eq!(reassemble_to_string(&dict, &log), "<a><b>x</b><c></c></a>");
    }

    #[test]
    fn pending_discarded_when_resolved_false() {
        let (dict, t) = dict_with(&["a", "b"]);
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg);
        out.open_element(t[1], Disposition::Pend(Cond::var(p)), &reg);
        out.text("x", Disposition::Pend(Cond::var(p)), &reg);
        out.close_element();
        reg.close_depth(1); // p → false
        out.process_resolutions(&reg.drain_resolved(), &reg);
        out.close_element();
        let (log, stats) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<a></a>");
        assert_eq!(stats.discarded, 2);
    }

    #[test]
    fn out_of_order_sibling_delivery_restores_document_order() {
        let (dict, t) = dict_with(&["r", "a", "b", "c"]);
        let mut reg = PredRegistry::new();
        let pa = reg.create(1);
        let pb = reg.create(1);
        let pc = reg.create(1);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg);
        for (tag, v) in [(t[1], pa), (t[2], pb), (t[3], pc)] {
            out.open_element(tag, Disposition::Pend(Cond::var(v)), &reg);
            out.close_element();
        }
        // Deliver middle, then last, then first.
        reg.satisfy(pb);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        reg.satisfy(pc);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        reg.satisfy(pa);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        out.close_element();
        let (log, _) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<r><a></a><b></b><c></c></r>");
    }

    #[test]
    fn structural_shell_for_denied_ancestor() {
        // r committed; d denied; inside d, x pending-true ⇒ d becomes a shell.
        let (dict, t) = dict_with(&["r", "d", "x"]);
        let mut reg = PredRegistry::new();
        let p = reg.create(2);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg);
        out.open_element(t[1], Disposition::Drop, &reg); // denied
        out.open_element(t[2], Disposition::Pend(Cond::var(p)), &reg);
        out.text("v", Disposition::Pend(Cond::var(p)), &reg);
        out.close_element();
        out.close_element(); // </d>
        reg.satisfy(p);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        out.close_element();
        let (log, stats) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<r><d><x>v</x></d></r>");
        assert_eq!(stats.shells, 1);
    }

    #[test]
    fn dummy_tag_renames_shells() {
        let (mut dict, t) = dict_with(&["r", "d", "x"]);
        let dummy = xsac_xml::writer::dummy_tag(&mut dict);
        let mut reg = PredRegistry::new();
        let p = reg.create(2);
        let mut out = OutputBuilder::new(Some(dummy));
        out.open_element(t[0], Disposition::Commit, &reg);
        out.open_element(t[1], Disposition::Drop, &reg);
        out.open_element(t[2], Disposition::Pend(Cond::var(p)), &reg);
        out.close_element();
        out.close_element();
        reg.satisfy(p);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        out.close_element();
        let (log, _) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<r><_><x></x></_></r>");
    }

    #[test]
    fn skipped_subtree_roundtrip_via_readback() {
        let (dict, t) = dict_with(&["r", "s", "u"]);
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg);
        out.pend_skipped_subtree(t[1], Cond::var(p), SubtreeRef(42), &reg);
        reg.satisfy(p);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        let reqs = out.take_readbacks();
        assert_eq!(reqs, vec![ReadbackRequest { entry: 0, subtree: SubtreeRef(42) }]);
        // Driver "reads back" <s><u>deep</u></s>.
        out.deliver_readback(
            reqs[0].entry,
            [
                Event::Open(t[1]),
                Event::Open(t[2]),
                Event::Text("deep".into()),
                Event::Close(t[2]),
                Event::Close(t[1]),
            ],
        );
        out.close_element();
        let (log, stats) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<r><s><u>deep</u></s></r>");
        assert_eq!(stats.readbacks, 1);
    }

    #[test]
    fn skipped_subtree_never_read_back_when_denied() {
        let (dict, t) = dict_with(&["r", "s"]);
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg);
        out.pend_skipped_subtree(t[1], Cond::var(p), SubtreeRef(7), &reg);
        reg.close_depth(1); // false
        out.process_resolutions(&reg.drain_resolved(), &reg);
        assert!(out.take_readbacks().is_empty(), "denied subtree is never decrypted");
        out.close_element();
        let (log, _) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<r></r>");
    }

    #[test]
    fn empty_view_reassembles_to_none() {
        let (dict, t) = dict_with(&["a"]);
        let reg = PredRegistry::new();
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Drop, &reg);
        out.close_element();
        let (log, _) = out.finish(&reg);
        assert!(reassemble(&dict, &log).is_none());
        assert_eq!(reassemble_to_string(&dict, &log), "");
    }

    #[test]
    fn pending_root_element() {
        let (dict, t) = dict_with(&["a", "b"]);
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Pend(Cond::var(p)), &reg);
        out.open_element(t[1], Disposition::Pend(Cond::var(p)), &reg);
        out.close_element();
        reg.satisfy(p);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        out.close_element();
        let (log, _) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<a><b></b></a>");
    }

    #[test]
    fn mixed_committed_and_pending_interleave_correctly() {
        // r: [x committed, y pending, z committed, w pending], deliveries
        // after z: expect x y z w.
        let (dict, t) = dict_with(&["r", "x", "y", "z", "w"]);
        let mut reg = PredRegistry::new();
        let py = reg.create(1);
        let pw = reg.create(1);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Commit, &reg);
        out.open_element(t[1], Disposition::Commit, &reg);
        out.close_element();
        out.open_element(t[2], Disposition::Pend(Cond::var(py)), &reg);
        out.close_element();
        out.open_element(t[3], Disposition::Commit, &reg);
        out.close_element();
        out.open_element(t[4], Disposition::Pend(Cond::var(pw)), &reg);
        out.close_element();
        reg.satisfy(pw);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        reg.satisfy(py);
        out.process_resolutions(&reg.drain_resolved(), &reg);
        out.close_element();
        let (log, _) = out.finish(&reg);
        assert_eq!(reassemble_to_string(&dict, &log), "<r><x></x><y></y><z></z><w></w></r>");
    }

    #[test]
    #[should_panic(expected = "unresolved pending entries")]
    fn finish_rejects_unresolved_entries() {
        let (_, t) = dict_with(&["a"]);
        let mut reg = PredRegistry::new();
        let p = reg.create(1);
        let mut out = OutputBuilder::new(None);
        out.open_element(t[0], Disposition::Pend(Cond::var(p)), &reg);
        out.close_element();
        let _ = out.finish(&reg);
    }
}
