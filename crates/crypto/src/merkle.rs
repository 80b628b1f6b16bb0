//! Per-chunk Merkle hash trees over ciphertext fragments (Appendix A,
//! Figure F1).
//!
//! "Each chunk is divided into m fragments organized in a binary tree. A
//! hash value is computed for each fragment and attached to each leaf.
//! Each intermediate node contains a hash computed on the concatenation of
//! its children. The ChunkDigest is the root. When the SOE accesses bytes
//! in fragment f, the terminal sends the hashing information computed on
//! the other fragments following the Merkle hash tree strategy; the SOE
//! recomputes the root and compares it to the (encrypted) ChunkDigest."
//!
//! Division of labour: the *terminal* builds each visited chunk's whole
//! tree once — [`merkle_tree`] over its [`fragment_hashes`], 2n−1 node
//! digests in pre-order from n leaf hashes and n−1 combines — after which
//! [`SoeReader`](crate::SoeReader) reads every intra-chunk proof out of
//! that table with [`tree_proof`] (copies, no hashing). The *SOE* hashes
//! only the fragments it actually reads and recombines them with the
//! proof through [`root_from_range`]; it never trusts a terminal-computed
//! digest for bytes it consumed.
//!
//! Both sides agree on one left-complete shape (`left_leaves`): the
//! builder and the proof reader walk the node table, the SOE walks the
//! same shape over its own leaves and the proof.

use crate::sha1::{sha1, Digest, Sha1};
use std::ops::Range;

/// Combines two child digests.
pub fn combine(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha1::new();
    h.update(left);
    h.update(right);
    h.finish()
}

/// Leaf digests of a chunk: one SHA-1 per fragment (over ciphertext).
pub fn fragment_hashes(chunk: &[u8], fragment_size: usize) -> Vec<Digest> {
    chunk.chunks(fragment_size).map(sha1).collect()
}

/// The whole Merkle tree over `leaves`: 2n−1 node digests in pre-order
/// (node, left subtree, right subtree), so `tree[0]` is the root and a
/// node over k leaves at index i has its left child at i + 1 and its right
/// child at i + 2·(left leaves). Built with n−1 combines; the terminal
/// builds one per *visited chunk*, not per fragment fetch.
pub fn merkle_tree(leaves: &[Digest]) -> Vec<Digest> {
    assert!(!leaves.is_empty(), "cannot hash an empty chunk");
    let mut tree = vec![Digest::default(); 2 * leaves.len() - 1];
    fill(&mut tree, leaves);
    tree
}

/// Fills the pre-order table `nodes` of the subtree over `leaves`;
/// returns its root.
fn fill(nodes: &mut [Digest], leaves: &[Digest]) -> Digest {
    nodes[0] = if leaves.len() == 1 {
        leaves[0]
    } else {
        let left = left_leaves(leaves.len());
        let (l, r) = nodes[1..].split_at_mut(2 * left - 1);
        combine(&fill(l, &leaves[..left]), &fill(r, &leaves[left..]))
    };
    nodes[0]
}

/// Merkle root of a leaf list. A single leaf is its own root.
pub fn merkle_root(leaves: &[Digest]) -> Digest {
    merkle_tree(leaves)[0]
}

/// Terminal side: the sibling digests the SOE needs to recompute the root
/// while knowing only the leaves in `range`. Returned in the deterministic
/// traversal order consumed by [`root_from_range`].
pub fn range_proof(leaves: &[Digest], range: Range<usize>) -> Vec<Digest> {
    let mut proof = Vec::new();
    tree_proof(&merkle_tree(leaves), range, &mut proof);
    proof
}

/// Like [`range_proof`], but read out of a prebuilt [`merkle_tree`] table
/// into the caller's buffer (cleared first): a lookup, no hashing.
pub fn tree_proof(tree: &[Digest], range: Range<usize>, out: &mut Vec<Digest>) {
    out.clear();
    walk_proof(tree, 0, 0..tree.len().div_ceil(2), &range, out);
}

fn walk_proof(
    tree: &[Digest],
    node: usize,
    interval: Range<usize>,
    range: &Range<usize>,
    out: &mut Vec<Digest>,
) {
    if interval.end <= range.start || interval.start >= range.end {
        // Disjoint: the whole subtree is one proof element.
        out.push(tree[node]);
        return;
    }
    if range.start <= interval.start && interval.end <= range.end {
        return; // fully known to the SOE
    }
    let left = left_leaves(interval.len());
    let mid = interval.start + left;
    walk_proof(tree, node + 1, interval.start..mid, range, out);
    walk_proof(tree, node + 2 * left, mid..interval.end, range, out);
}

/// Leaves under the left child of a node over `len` ≥ 2 leaves: the
/// largest power of two < `len` (a left-complete tree — both sides must
/// agree on this shape).
fn left_leaves(len: usize) -> usize {
    debug_assert!(len >= 2);
    let half = (len + 1).next_power_of_two() / 2;
    let left = if half >= len { len / 2 } else { half };
    left.max(1)
}

/// SOE side: recomputes the root knowing the leaves in `range` (computed
/// from the bytes it read) and the terminal-provided `proof`.
pub fn root_from_range(
    n_leaves: usize,
    range: Range<usize>,
    range_leaves: &[Digest],
    proof: &[Digest],
) -> Digest {
    assert_eq!(range.len(), range_leaves.len());
    let mut cursor = 0usize;
    let root = root_known(range_leaves, &range, 0..n_leaves, proof, &mut cursor);
    assert_eq!(cursor, proof.len(), "proof length mismatch");
    root
}

fn root_known(
    known: &[Digest],
    range: &Range<usize>,
    interval: Range<usize>,
    proof: &[Digest],
    cursor: &mut usize,
) -> Digest {
    if interval.end <= range.start || interval.start >= range.end {
        let d = proof[*cursor];
        *cursor += 1;
        return d;
    }
    if interval.len() == 1 {
        // A leaf the SOE hashed itself.
        return known[interval.start - range.start];
    }
    let mid = interval.start + left_leaves(interval.len());
    combine(
        &root_known(known, range, interval.start..mid, proof, cursor),
        &root_known(known, range, mid..interval.end, proof, cursor),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha1(&[i as u8])).collect()
    }

    /// The recursive derivation the node table replaced: every proof
    /// element's subtree root recomputed from the leaves.
    fn reference_range_proof(leaves: &[Digest], range: Range<usize>) -> Vec<Digest> {
        let mut proof = Vec::new();
        collect_proof(leaves, 0..leaves.len(), &range, &mut proof);
        proof
    }

    fn collect_proof(
        leaves: &[Digest],
        interval: Range<usize>,
        range: &Range<usize>,
        out: &mut Vec<Digest>,
    ) {
        if interval.end <= range.start || interval.start >= range.end {
            out.push(reference_root(leaves, interval));
            return;
        }
        if range.start <= interval.start && interval.end <= range.end {
            return;
        }
        let mid = interval.start + left_leaves(interval.len());
        collect_proof(leaves, interval.start..mid, range, out);
        collect_proof(leaves, mid..interval.end, range, out);
    }

    fn reference_root(leaves: &[Digest], interval: Range<usize>) -> Digest {
        if interval.len() == 1 {
            return leaves[interval.start];
        }
        let mid = interval.start + left_leaves(interval.len());
        combine(
            &reference_root(leaves, interval.start..mid),
            &reference_root(leaves, mid..interval.end),
        )
    }

    #[test]
    fn tree_proofs_match_recursive_reference() {
        let mut proof = Vec::new();
        for n in 1..=17 {
            let l = leaves(n);
            let tree = merkle_tree(&l);
            assert_eq!(tree.len(), 2 * n - 1);
            assert_eq!(tree[0], reference_root(&l, 0..n), "n={n}");
            assert_eq!(tree[0], merkle_root(&l), "n={n}");
            for a in 0..n {
                for b in a + 1..=n {
                    tree_proof(&tree, a..b, &mut proof);
                    assert_eq!(proof, reference_range_proof(&l, a..b), "n={n} range={a}..{b}");
                }
            }
        }
    }

    #[test]
    fn single_leaf_root() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), l[0]);
    }

    #[test]
    fn figure_f1_shape() {
        // 8 fragments, SOE reads fragment 2 (0-based): proof = H1..H2
        // combined pair, H4, H5678 — i.e. 3 digests.
        let l = leaves(8);
        let proof = range_proof(&l, 2..3);
        assert_eq!(proof.len(), 3);
        let root = root_from_range(8, 2..3, &l[2..3], &proof);
        assert_eq!(root, merkle_root(&l));
    }

    #[test]
    fn all_ranges_all_sizes_verify() {
        for n in 1..=9 {
            let l = leaves(n);
            let root = merkle_root(&l);
            for a in 0..n {
                for b in a + 1..=n {
                    let proof = range_proof(&l, a..b);
                    let got = root_from_range(n, a..b, &l[a..b], &proof);
                    assert_eq!(got, root, "n={n} range={a}..{b}");
                }
            }
        }
    }

    #[test]
    fn wrong_leaf_fails_verification() {
        let l = leaves(8);
        let root = merkle_root(&l);
        let proof = range_proof(&l, 3..5);
        let mut bad = l[3..5].to_vec();
        bad[0][0] ^= 1;
        let got = root_from_range(8, 3..5, &bad, &proof);
        assert_ne!(got, root);
    }

    #[test]
    fn fragment_hashing_partial_tail() {
        let data = vec![9u8; 700];
        let hashes = fragment_hashes(&data, 256);
        assert_eq!(hashes.len(), 3);
        assert_eq!(hashes[2], sha1(&data[512..700]));
    }

    #[test]
    fn proof_size_logarithmic() {
        let l = leaves(64);
        let proof = range_proof(&l, 17..18);
        assert!(
            proof.len() <= 6,
            "single-leaf proof in a 64-leaf tree is ≤ log2(64): {}",
            proof.len()
        );
    }
}
