//! # xsac — client-based access control management for XML documents
//!
//! A complete Rust reproduction of Bouganim, Dang Ngoc & Pucheral,
//! *Client-Based Access Control Management for XML documents*
//! (VLDB 2004 / INRIA RR-5282): streaming evaluation of XPath-based
//! access-control policies over encrypted XML inside a memory-constrained
//! Secure Operating Environment (SOE), with a skip index converging to the
//! authorized parts of the document, pending-predicate management, and
//! random integrity checking.
//!
//! This crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`xml`] | `xsac-xml` | events, parser, tree, serializer, statistics |
//! | [`xpath`] | `xsac-xpath` | XP{[],*,//} AST, parser, access-rule automata |
//! | [`core`] | `xsac-core` | the streaming evaluator, conflict resolution, pending predicates, oracle |
//! | [`index`] | `xsac-index` | the Skip index (TCSBR) and the Figure-8 encodings |
//! | [`crypto`] | `xsac-crypto` | DES/3DES, SHA-1, position-XOR-ECB, Merkle integrity |
//! | [`soe`] | `xsac-soe` | Table-1 cost model, server prep, SOE sessions, baselines |
//! | [`net`] | `xsac-net` | dissemination wire protocol, chunk server, remote client store |
//! | [`obs`] | `xsac-obs` | phase-timed span clock, log-bucketed latency histograms |
//! | [`datagen`] | `xsac-datagen` | the four Table-2 datasets and the paper's policies |
//!
//! ## Quickstart
//!
//! ```
//! use xsac::core::{Policy, Sign, evaluator::Evaluator, output::reassemble_to_string};
//! use xsac::xml::Document;
//!
//! // A tiny medical folder…
//! let doc = Document::parse(
//!     "<Folder><Admin><Name>Ann</Name></Admin><MedActs><Act>x</Act></MedActs></Folder>",
//! ).unwrap();
//!
//! // …a secretary's policy (only administrative data)…
//! let mut dict = doc.dict.clone();
//! let policy = Policy::parse("sec", &[(Sign::Permit, "//Admin")], &mut dict).unwrap();
//!
//! // …streamed through the evaluator:
//! let mut eval = Evaluator::new(&policy, None, Default::default());
//! for ev in doc.events() {
//!     eval.event(&ev);
//! }
//! assert_eq!(
//!     reassemble_to_string(&dict, &eval.finish().log),
//!     "<Folder><Admin><Name>Ann</Name></Admin></Folder>"
//! );
//! ```
//!
//! For the full encrypted pipeline (skip index + integrity + cost
//! accounting) see [`soe::run_session_shared`] and the `examples/` directory.

pub use xsac_core as core;
pub use xsac_crypto as crypto;
pub use xsac_datagen as datagen;
pub use xsac_index as index;
pub use xsac_net as net;
pub use xsac_obs as obs;
pub use xsac_soe as soe;
pub use xsac_xml as xml;
pub use xsac_xpath as xpath;
