//! Streaming XML substrate for the xsac workspace.
//!
//! The paper's Secure Operating Environment (SOE) consumes XML as a stream of
//! SAX-style events (`open`, `value`, `close` — §3.1 of Bouganim et al.,
//! VLDB 2004). This crate provides:
//!
//! * [`event::Event`] — the event model, with tags interned as [`TagId`]s so
//!   the access-control automata compare integers instead of strings;
//! * [`dict::TagDict`] — the tag dictionary the paper assumes for
//!   dictionary-based structure compression (§4.1);
//! * [`parser::Parser`] — a pull parser producing events from XML text;
//! * [`tree::Document`] — an arena-based document tree used by the data
//!   generators, the server-side encoder and the non-streaming oracle;
//! * [`writer`] — serialization back to XML text;
//! * [`stats`] — the document statistics reported in Table 2 of the paper.

pub mod dict;
pub mod escape;
pub mod event;
pub mod parser;
pub mod stats;
pub mod tree;
pub mod writer;

pub use dict::{TagDict, TagId, TEXT_TAG_NAME};
pub use event::Event;
pub use parser::{ParseError, Parser};
pub use stats::DocStats;
pub use tree::{Document, Node, NodeId};
