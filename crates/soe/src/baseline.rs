//! Baselines of §7: the Brute-Force strategy and the LWB oracle bound.
//!
//! * **BF** "filters the document without any index" — the SOE reads and
//!   deciphers the *whole* document and runs the evaluator on every event
//!   (a session under [`Strategy::BruteForce`](crate::Strategy)).
//! * **LWB** "corresponds to the time required by an oracle to read only
//!   the authorized fragments of a document and decrypt it. Obviously, a
//!   genuine oracle will be able to predict the outcome of all predicates
//!   without checking them and to guess where the relevant data are" —
//!   it cannot be reached by any practical strategy.

use crate::cost::{CostModel, TimeBreakdown};
use std::collections::HashMap;
use xsac_core::oracle::Oracle;
use xsac_core::Policy;
use xsac_crypto::chunk::DIGEST_RECORD;
use xsac_index::decode::{CursorDecoder, SliceSource};
use xsac_index::encode::{encode_document, Encoding};
use xsac_xml::{Document, Event, Node, NodeId};

/// The LWB estimate for a policy over a document.
pub struct LwbReport {
    /// Encoded size of the authorized fragments (bytes the oracle reads).
    pub authorized_bytes: usize,
    /// Time without integrity checking.
    pub time: TimeBreakdown,
    /// Time with ECB-MHT integrity over the authorized bytes.
    pub time_with_integrity: TimeBreakdown,
}

/// Computes the LWB: the oracle knows every decision in advance and reads
/// exactly the encoded bytes of the authorized fragments — the record
/// headers and text bodies of delivered nodes (and of the structural
/// shells on their paths) in the *original* TCSBR encoding — then
/// decrypts them. No other byte crosses the channel.
pub fn lwb_estimate(doc: &Document, policy: &Policy, cost: CostModel) -> LwbReport {
    let authorized_bytes = lwb_bytes(doc, policy);
    let b = authorized_bytes as u64;
    // in + out on the channel, decryption of the authorized bytes.
    let time = cost.time(2 * b, b, 0, 0);
    // With integrity: the oracle still hashes what it reads and decrypts
    // one digest per chunk.
    let layout = xsac_crypto::chunk::ChunkLayout::default();
    let chunks = authorized_bytes.div_ceil(layout.chunk_size).max(1) as u64;
    let digest_bytes = chunks * DIGEST_RECORD as u64;
    let time_with_integrity =
        cost.time(2 * b + chunks * 20 + digest_bytes, b + digest_bytes, b + chunks * 40, 0);
    LwbReport { authorized_bytes, time, time_with_integrity }
}

/// Encoded bytes of the authorized fragments in the original document.
fn lwb_bytes(doc: &Document, policy: &Policy) -> usize {
    let oracle = Oracle::new(doc);
    let kept: HashMap<NodeId, bool> = oracle.view(policy);
    if kept.is_empty() {
        return 0;
    }
    // Walk the decoder and the tree in parallel (both are in document
    // order) to learn every node's encoded extent.
    let encoded = encode_document(doc, Encoding::TCSBR);
    let mut decoder =
        CursorDecoder::new(SliceSource(&encoded.bytes), doc.dict.len()).expect("fresh encoding");
    // Document-order node list (elements and text).
    let order: Vec<NodeId> = doc.preorder().into_iter().map(|(id, _)| id).collect();
    let mut idx = 0usize;
    // 4 header bytes up front.
    let mut bytes = 4usize;
    // Parent chain to attribute text keep decisions.
    let mut granted_stack: Vec<bool> = Vec::new();
    loop {
        let before = decoder.position();
        let is_text = match decoder.next().expect("fresh encoding decodes") {
            None => break,
            Some(Event::Close(_)) => {
                granted_stack.pop();
                continue;
            }
            Some(Event::Open(_)) => false,
            Some(Event::Text(_)) => true,
        };
        let consumed = decoder.position() - before;
        let id = order[idx];
        idx += 1;
        if is_text {
            debug_assert!(matches!(doc.node(id), Node::Text(_)));
            if granted_stack.last() == Some(&true) {
                bytes += consumed; // text record (header + body)
            }
        } else {
            debug_assert!(matches!(doc.node(id), Node::Element { .. }));
            if kept.contains_key(&id) {
                bytes += consumed; // record header
            }
            granted_stack.push(kept.get(&id) == Some(&true));
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::ServerDoc;
    use crate::session::{run_session_shared, SessionConfig, Strategy};
    use std::sync::Arc;
    use xsac_core::{CompiledPolicy, Sign};
    use xsac_crypto::chunk::ChunkLayout;
    use xsac_crypto::{IntegrityScheme, TripleDes};

    #[test]
    fn lwb_below_real_strategies() {
        let mut xml = String::from("<a>");
        for i in 0..120 {
            xml.push_str(&format!(
                "<rec><keep>value {i} is kept here</keep><drop>discarded payload {i}</drop></rec>"
            ));
        }
        xml.push_str("</a>");
        let doc = Document::parse(&xml).unwrap();
        let k = TripleDes::new(*b"0123456789abcdefFEDCBA98");
        let server = ServerDoc::prepare(
            &doc,
            &k,
            IntegrityScheme::Ecb,
            ChunkLayout { chunk_size: 512, fragment_size: 64 },
        );
        let mut dict = server.dict.clone();
        let policy = Policy::parse("u", &[(Sign::Permit, "//keep")], &mut dict).unwrap();
        let cost = CostModel::smartcard();
        let lwb = lwb_estimate(&doc, &policy, cost);
        let compiled = Arc::new(CompiledPolicy::compile(&policy));
        let run = |strategy| {
            run_session_shared(
                &server,
                &k,
                &compiled,
                None,
                &SessionConfig { strategy, cost },
                None,
            )
            .unwrap()
        };
        let tcsbr = run(Strategy::Tcsbr);
        let bf = run(Strategy::BruteForce);
        assert!(lwb.time.total() <= tcsbr.time.total() * 1.05, "LWB is a lower bound");
        assert!(tcsbr.time.total() < bf.time.total(), "TCSBR beats brute force");
        assert!(lwb.time_with_integrity.total() >= lwb.time.total());
        assert!(lwb.authorized_bytes > 0);
    }

    #[test]
    fn empty_view_lwb_is_zero() {
        let doc = Document::parse("<a><b>x</b></a>").unwrap();
        let mut dict = doc.dict.clone();
        let policy = Policy::parse("u", &[], &mut dict).unwrap();
        let lwb = lwb_estimate(&doc, &policy, CostModel::smartcard());
        assert_eq!(lwb.authorized_bytes, 0);
        assert_eq!(lwb.time.total(), 0.0);
    }
}
