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
//! [`SoeReader`](crate::SoeReader) reads every proof out of that table
//! with [`leaf_proof`] (copies, no hashing). The *SOE* hashes only the
//! fragments it actually reads and never trusts a terminal-computed
//! digest for bytes it consumed.
//!
//! Unlike Appendix A, the SOE does not recompute the root on every fetch.
//! It keeps the nodes it has authenticated in the current chunk
//! ([`VerifiedNodes`]: the decrypted chunk digest, then every recomputed
//! path node and every proof sibling that checked out), as in the
//! hash-tree cache of Gassend et al. (HPCA 2003). A fetch asks only for
//! the siblings below its fragment's deepest authenticated ancestor and
//! recombines up to that ancestor: the fragment after the one just
//! verified needs at most the siblings under their common ancestor, often
//! none, against the log-size proof of a fresh chunk. "Only the root is
//! known" is the stateless verifier, so there is one verify path.
//!
//! Both sides agree on one left-complete shape (`left_leaves`) and walk
//! the same pre-order node table.

use crate::sha1::{sha1, sha1_padded, Digest, DIGEST_LEN};

/// Combines two child digests: SHA-1 of `left ‖ right`. The 40-byte
/// message and its padding fill exactly one block, laid out here and
/// compressed once.
pub fn combine(left: &Digest, right: &Digest) -> Digest {
    let mut block = [0u8; 64];
    block[..DIGEST_LEN].copy_from_slice(left);
    block[DIGEST_LEN..2 * DIGEST_LEN].copy_from_slice(right);
    block[2 * DIGEST_LEN] = 0x80;
    block[56..].copy_from_slice(&(2 * DIGEST_LEN as u64 * 8).to_be_bytes());
    sha1_padded(&block)
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

/// Leaves under the left child of a node over `len` ≥ 2 leaves: the
/// largest power of two < `len` (a left-complete tree — both sides must
/// agree on this shape).
fn left_leaves(len: usize) -> usize {
    debug_assert!(len >= 2);
    let half = (len + 1).next_power_of_two() / 2;
    let left = if half >= len { len / 2 } else { half };
    left.max(1)
}

/// One node on a leaf's root-to-leaf path, below the root.
struct Step {
    /// Pre-order index of the path node.
    node: usize,
    /// Pre-order index of its sibling.
    sibling: usize,
    /// Is the path node its parent's left child?
    left: bool,
}

/// The path from the root of a pre-order tree over `n` leaves down to
/// `leaf`, top-down, one [`Step`] per level below the root. Index
/// arithmetic only: no hashing, no allocation.
fn path(n: usize, leaf: usize) -> impl Iterator<Item = Step> {
    let (mut node, mut span) = (0, 0..n);
    std::iter::from_fn(move || {
        if span.len() < 2 {
            return None;
        }
        let left = left_leaves(span.len());
        let mid = span.start + left;
        let (l, r) = (node + 1, node + 2 * left);
        let step = if leaf < mid {
            span.end = mid;
            Step { node: l, sibling: r, left: true }
        } else {
            span.start = mid;
            Step { node: r, sibling: l, left: false }
        };
        node = step.node;
        Some(step)
    })
}

fn is_known(known: &[u64], node: usize) -> bool {
    known.get(node / 64).is_some_and(|w| w & (1 << (node % 64)) != 0)
}

/// How many path steps of `leaf` are already authenticated, and the
/// deepest such node (the root if none). The known set is closed under
/// parent and sibling (see [`VerifiedNodes`]), so they form a prefix of
/// the path, ending at the leaf's deepest known ancestor.
fn known_prefix(n: usize, leaf: usize, known: &[u64]) -> (usize, usize) {
    path(n, leaf).take_while(|s| is_known(known, s.node)).fold((0, 0), |(d, _), s| (d + 1, s.node))
}

/// Terminal side: the sibling digests the SOE needs to authenticate leaf
/// `leaf` while it trusts the nodes marked in `known` — those of the path
/// nodes below the leaf's deepest known ancestor, top-down, read out of a
/// prebuilt [`merkle_tree`] table into the caller's buffer (cleared
/// first). A lookup, no hashing; empty when the leaf itself is known.
/// With only the root known this is the full log-size proof of
/// Appendix A.
pub fn leaf_proof(tree: &[Digest], leaf: usize, known: &[u64], out: &mut Vec<Digest>) {
    out.clear();
    let n = tree.len().div_ceil(2);
    out.extend(path(n, leaf).skip(known_prefix(n, leaf, known).0).map(|s| tree[s.sibling]));
}

/// SOE side: the authenticated nodes of one chunk's Merkle tree — a
/// pre-order table shaped like [`merkle_tree`]'s, of which only the slots
/// marked in a bitmask are trusted. [`reset`](Self::reset) trusts the
/// root alone (the decrypted chunk digest); every accepted
/// [`verify_leaf`](Self::verify_leaf) adds the leaf's recomputed path and
/// the proof siblings, so the known set is always closed under parent and
/// sibling. At most 2n−1 digests for n leaves (620 B at 16 fragments per
/// chunk), in buffers reused across chunks.
#[derive(Default)]
pub struct VerifiedNodes {
    nodes: Vec<Digest>,
    known: Vec<u64>,
}

impl VerifiedNodes {
    /// Forgets every node and trusts `root` as the root of a tree over
    /// `n` ≥ 1 leaves.
    pub fn reset(&mut self, n: usize, root: Digest) {
        let len = 2 * n - 1;
        self.nodes.clear();
        self.nodes.resize(len, Digest::default());
        self.nodes[0] = root;
        self.known.clear();
        self.known.resize(len.div_ceil(64), 0);
        self.known[0] = 1;
    }

    /// The known-node mask, as [`leaf_proof`] takes it.
    pub fn known(&self) -> &[u64] {
        &self.known
    }

    /// The authenticated digest of pre-order node `node`, if known.
    pub fn get(&self, node: usize) -> Option<&Digest> {
        is_known(&self.known, node).then(|| &self.nodes[node])
    }

    /// Authenticates `digest` as leaf `leaf`, given the siblings that
    /// [`leaf_proof`] returns for this known set: recombines up to the
    /// leaf's deepest known ancestor (one combine per sibling) and
    /// compares with its trusted digest. On a match, records the
    /// recomputed path nodes and the siblings as known. On a mismatch, or
    /// a proof of the wrong length, returns false and trusts nothing new.
    pub fn verify_leaf(&mut self, leaf: usize, digest: Digest, proof: &[Digest]) -> bool {
        let n = self.nodes.len().div_ceil(2);
        let (depth, anchor) = known_prefix(n, leaf, &self.known);
        let mut siblings = proof.iter();
        // Recomputed digests land in unknown slots only (the closure
        // property), so a failed check leaves every trusted slot as it was.
        let got = climb(&mut self.nodes, &mut path(n, leaf).skip(depth), digest, &mut siblings);
        if got != Some(self.nodes[anchor]) || siblings.len() != 0 {
            return false;
        }
        for s in path(n, leaf).skip(depth) {
            for node in [s.node, s.sibling] {
                self.known[node / 64] |= 1 << (node % 64);
            }
        }
        true
    }
}

/// Recomputes the digest at the top of `steps` from the leaf's `digest`
/// and the siblings, consumed top-down; each step's node and sibling
/// digests are written into `nodes`. `None` when the proof runs short.
fn climb(
    nodes: &mut [Digest],
    steps: &mut impl Iterator<Item = Step>,
    digest: Digest,
    siblings: &mut std::slice::Iter<'_, Digest>,
) -> Option<Digest> {
    let Some(step) = steps.next() else {
        return Some(digest);
    };
    let sibling = *siblings.next()?;
    let below = climb(nodes, steps, digest, siblings)?;
    nodes[step.node] = below;
    nodes[step.sibling] = sibling;
    Some(if step.left { combine(&below, &sibling) } else { combine(&sibling, &below) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use std::ops::Range;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha1(&[i as u8])).collect()
    }

    /// The recursive derivation the node table replaced: a leaf's full
    /// proof, top-down, each sibling's subtree root recomputed from the
    /// leaves.
    fn reference_proof(leaves: &[Digest], span: Range<usize>, leaf: usize, out: &mut Vec<Digest>) {
        if span.len() == 1 {
            return;
        }
        let mid = span.start + left_leaves(span.len());
        let (on, off) = if leaf < mid {
            (span.start..mid, mid..span.end)
        } else {
            (mid..span.end, span.start..mid)
        };
        out.push(reference_root(leaves, off));
        reference_proof(leaves, on, leaf, out);
    }

    fn reference_root(leaves: &[Digest], span: Range<usize>) -> Digest {
        if span.len() == 1 {
            return leaves[span.start];
        }
        let mid = span.start + left_leaves(span.len());
        combine(&reference_root(leaves, span.start..mid), &reference_root(leaves, mid..span.end))
    }

    fn fresh(n: usize, root: Digest) -> VerifiedNodes {
        let mut v = VerifiedNodes::default();
        v.reset(n, root);
        v
    }

    /// Every trusted slot, for before/after comparisons.
    fn trusted(v: &VerifiedNodes) -> Vec<Option<Digest>> {
        (0..64 * v.known().len()).map(|i| v.get(i).copied()).collect()
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
            let root_only = fresh(n, tree[0]);
            for leaf in 0..n {
                leaf_proof(&tree, leaf, root_only.known(), &mut proof);
                let mut want = Vec::new();
                reference_proof(&l, 0..n, leaf, &mut want);
                assert_eq!(proof, want, "n={n} leaf={leaf}");
            }
        }
    }

    #[test]
    fn single_leaf_root() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), l[0]);
        let mut v = fresh(1, l[0]);
        let mut proof = vec![l[0]];
        leaf_proof(&merkle_tree(&l), 0, v.known(), &mut proof);
        assert!(proof.is_empty());
        assert!(v.verify_leaf(0, l[0], &proof));
        assert!(!v.verify_leaf(0, l[0], &[l[0]]), "a one-leaf tree takes no proof");
    }

    #[test]
    fn figure_f1_shape() {
        // 8 fragments, SOE reads fragment 2 (0-based): proof = H5678,
        // H1..H2 combined pair, H4 — i.e. 3 digests.
        let l = leaves(8);
        let tree = merkle_tree(&l);
        let mut v = fresh(8, tree[0]);
        let mut proof = Vec::new();
        leaf_proof(&tree, 2, v.known(), &mut proof);
        assert_eq!(proof.len(), 3);
        assert!(v.verify_leaf(2, l[2], &proof));
    }

    #[test]
    fn every_leaf_every_size_verifies_from_the_root() {
        let mut proof = Vec::new();
        for n in 1..=9 {
            let l = leaves(n);
            let tree = merkle_tree(&l);
            for (leaf, digest) in l.iter().enumerate() {
                let mut v = fresh(n, tree[0]);
                leaf_proof(&tree, leaf, v.known(), &mut proof);
                assert!(v.verify_leaf(leaf, *digest, &proof), "n={n} leaf={leaf}");
            }
        }
    }

    #[test]
    fn sequential_scan_of_sixteen_leaves_ships_fifteen_digests() {
        // 4 + 0 + 1 + 0 + 2 + 0 + 1 + 0 + 3 + 0 + 1 + 0 + 2 + 0 + 1 + 0:
        // one digest per leaf but the first, instead of 4 per leaf.
        let l = leaves(16);
        let tree = merkle_tree(&l);
        let mut v = fresh(16, tree[0]);
        let mut proof = Vec::new();
        let mut shipped = Vec::new();
        for (leaf, digest) in l.iter().enumerate() {
            leaf_proof(&tree, leaf, v.known(), &mut proof);
            shipped.push(proof.len());
            assert!(v.verify_leaf(leaf, *digest, &proof), "leaf {leaf}");
        }
        assert_eq!(shipped, [4, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0]);
        assert_eq!(trusted(&v).iter().flatten().count(), 31, "the whole tree is known");
    }

    #[test]
    fn node_table_stays_within_two_n_minus_one_digests_and_is_reused() {
        let root = merkle_root(&leaves(16));
        let mut v = fresh(16, root);
        let (ptr, cap) = (v.nodes.as_ptr(), v.nodes.capacity());
        assert!(cap <= 31, "{cap}");
        for n in [5, 16, 1, 9, 16] {
            v.reset(n, root);
            assert_eq!(v.nodes.len(), 2 * n - 1);
            assert_eq!((v.nodes.as_ptr(), v.nodes.capacity()), (ptr, cap), "n={n}: reallocated");
        }
    }

    #[test]
    fn wrong_leaf_fails_verification() {
        let l = leaves(8);
        let tree = merkle_tree(&l);
        let mut v = fresh(8, tree[0]);
        let mut proof = Vec::new();
        leaf_proof(&tree, 0, v.known(), &mut proof);
        assert!(v.verify_leaf(0, l[0], &proof));
        let before = trusted(&v);
        for leaf in [1, 5] {
            let mut bad = l[leaf];
            bad[0] ^= 1;
            leaf_proof(&tree, leaf, v.known(), &mut proof);
            assert!(!v.verify_leaf(leaf, bad, &proof), "leaf {leaf}");
            assert_eq!(trusted(&v), before, "leaf {leaf}");
        }
    }

    #[test]
    fn proof_of_the_wrong_length_is_rejected_not_a_panic() {
        let l = leaves(8);
        let tree = merkle_tree(&l);
        let mut proof = Vec::new();
        leaf_proof(&tree, 3, fresh(8, tree[0]).known(), &mut proof);
        let mut v = fresh(8, tree[0]);
        assert!(!v.verify_leaf(3, l[3], &proof[..2]), "short");
        let mut long = proof.clone();
        long.push(l[0]);
        assert!(!v.verify_leaf(3, l[3], &long), "long");
        assert!(!v.verify_leaf(3, l[3], &[]), "empty");
        assert!(v.verify_leaf(3, l[3], &proof));
    }

    /// Random bytes from a seed (xorshift64*).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn combine_is_sha1_of_the_concatenation() {
        for seed in 1..200 {
            let bytes = noise(seed, 2 * DIGEST_LEN);
            let (l, r) = bytes.split_at(DIGEST_LEN);
            let (l, r): (Digest, Digest) = (l.try_into().unwrap(), r.try_into().unwrap());
            assert_eq!(combine(&l, &r), sha1(&bytes), "seed {seed}");
            let mut staged = Sha1::new();
            staged.update(&l);
            staged.update(&r);
            assert_eq!(combine(&l, &r), staged.finish(), "seed {seed}");
        }
    }

    #[test]
    fn fragment_hashing_partial_tail() {
        let data = vec![9u8; 700];
        let hashes = fragment_hashes(&data, 256);
        assert_eq!(hashes.len(), 3);
        assert_eq!(hashes[2], sha1(&data[512..700]));
        // Whole 128-byte fragments, then a short last one of every length
        // class: under one block, past the padding boundary, one byte
        // short of a fragment. Each leaf equals a staged hasher's digest.
        for (seed, len) in [(1, 2048), (2, 2048 - 90), (3, 2048 - 70), (4, 2047), (5, 100)] {
            let data = noise(seed, len);
            let got = fragment_hashes(&data, 128);
            assert_eq!(got.len(), len.div_ceil(128));
            for (i, (digest, fragment)) in got.iter().zip(data.chunks(128)).enumerate() {
                let mut staged = Sha1::new();
                staged.update(fragment);
                assert_eq!(*digest, staged.finish(), "len {len} fragment {i}");
            }
        }
    }

    #[test]
    fn proof_size_logarithmic() {
        let l = leaves(64);
        let tree = merkle_tree(&l);
        let mut proof = Vec::new();
        leaf_proof(&tree, 17, fresh(64, tree[0]).known(), &mut proof);
        assert!(
            proof.len() <= 6,
            "single-leaf proof in a 64-leaf tree is ≤ log2(64): {}",
            proof.len()
        );
    }
}
