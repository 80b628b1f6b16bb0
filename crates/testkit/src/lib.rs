//! Test machinery for the xsac workspace, kept out of the library
//! crates: the harnesses that prove the threat model of §6 ("the
//! attacker is the user himself") by injecting faults the attacker, a
//! flaky medium or a bad network would cause.
//!
//! * [`FaultStore`] wraps any [`ChunkStore`](xsac_crypto::ChunkStore)
//!   and injects short reads, transient I/O errors and persistent byte
//!   corruption on a deterministic schedule;
//! * [`FaultTransport`] is a loopback chaos proxy between a
//!   `RemoteStore` client and a `ChunkServer`, scripting dropped,
//!   truncated, duplicated, delayed and stalled connections
//!   ([`FaultPlan`], [`NetFault`]);
//! * [`TempPath`] is a unique `xsac-…` path under the temp directory,
//!   removed on drop, for the file-backed tests, examples and benches.
//!
//! Every library crate takes this one as a dev-dependency only, so no
//! release build links it; the bench harness, whose binaries never
//! ship, takes it as a normal one.

mod proxy;
mod store;

pub use proxy::{FaultPlan, FaultTransport, NetFault};
pub use store::{FaultStore, InjectedFault, TempPath};
