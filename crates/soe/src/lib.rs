//! The target-architecture simulator: a Secure Operating Environment
//! (SOE) evaluating access control over an encrypted, skip-indexed,
//! streaming XML document served by an untrusted terminal (§2, Figure 2).
//!
//! The paper measured a C prototype on Axalto's cycle-accurate smartcard
//! simulator. This crate replaces that hardware with a *cost model*
//! (Table 1) charging every byte that crosses the terminal→SOE channel,
//! every byte deciphered or hashed inside the SOE, and every automaton
//! operation of the evaluator. The quantities are measured by actually
//! running the full pipeline — decoding, integrity verification and rule
//! evaluation are all real; only wall-clock time is synthesized.
//!
//! * [`cost`] — the Table-1 contexts and time synthesis;
//! * [`document`] — server-side preparation: one streamed pass of
//!   skip-index encoding + encryption + chunk digests, into memory or
//!   straight to a file ([`ServerDoc::prepare_to_store_with_stats`] — the
//!   out-of-core path for documents larger than RAM);
//! * [`session`] — the SOE pipeline: stream → decrypt → verify → evaluate
//!   → deliver, honouring skip directives and pending readbacks; storage
//!   faults abort as typed [`SessionError::Store`] errors, with nothing
//!   partially delivered;
//! * [`server`] — multi-session serving: one document (over any
//!   `ChunkStore` backend), many concurrent subjects, with cross-session
//!   leaf-hash and compiled-policy caches and metered peak residency for
//!   file-backed documents;
//! * [`baseline`] — the LWB oracle lower bound of §7 (the Brute-Force
//!   comparator is a session under [`Strategy::BruteForce`]).

pub mod baseline;
pub mod cost;
pub mod document;
pub mod server;
pub mod session;

pub use baseline::{lwb_estimate, LwbReport};
pub use cost::{CostModel, TimeBreakdown};
pub use document::{DocMeta, PrepareStats, ServerDoc};
pub use server::{CompilerSnapshot, DocServer, SessionSpec};
// Client sessions compile policies with these; re-exported so dependants
// (e.g. the net layer's observability) need not depend on xsac-core
// directly.
pub use session::{run_session_shared, SessionConfig, SessionError, SessionResult, Strategy};
pub use xsac_core::{CompiledPolicy, CompilerMode, MinimizeStats};
