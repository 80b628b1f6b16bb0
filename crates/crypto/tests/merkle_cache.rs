//! Property test for the SOE's authenticated-node cache
//! (`merkle::VerifiedNodes`): over every tree size from 1 to 17 leaves, a
//! random fetch order and one tampered leaf or shipped proof node, the
//! cached verifier accepts exactly when a stateless verifier given the
//! full log-size proof does, and it asks the terminal for exactly the
//! siblings below the fetched leaf's deepest authenticated ancestor.
//!
//! The reference side is written from the documented tree shape alone
//! (left-complete, pre-order, left subtree over the largest power of two
//! below the node's leaf count), not from the module's own walk.

use proptest::prelude::*;
use std::collections::HashSet;
use std::ops::Range;
use xsac_crypto::merkle::{combine, leaf_proof, merkle_tree, VerifiedNodes};
use xsac_crypto::sha1::{sha1, Digest};

/// One level of a leaf's root-to-leaf path, below the root.
struct Level {
    node: usize,
    sibling: usize,
    left: bool,
}

/// The path to `leaf` in a tree over `n` leaves, top-down, derived from
/// leaf intervals.
fn reference_path(n: usize, leaf: usize) -> Vec<Level> {
    let (mut node, mut span): (usize, Range<usize>) = (0, 0..n);
    let mut out = Vec::new();
    while span.len() > 1 {
        let left = 1 << (usize::BITS - 1 - (span.len() - 1).leading_zeros());
        let mid = span.start + left;
        let (l, r) = (node + 1, node + 2 * left);
        let level = if leaf < mid {
            span = span.start..mid;
            Level { node: l, sibling: r, left: true }
        } else {
            span = mid..span.end;
            Level { node: r, sibling: l, left: false }
        };
        node = level.node;
        out.push(level);
    }
    out
}

/// The stateless verifier: recombine the leaf with its full proof up to
/// the root.
fn stateless_accepts(path: &[Level], digest: Digest, full_proof: &[Digest], root: Digest) -> bool {
    let mut acc = digest;
    for (level, sibling) in path.iter().zip(full_proof).rev() {
        acc = if level.left { combine(&acc, sibling) } else { combine(sibling, &acc) };
    }
    acc == root
}

fn known_bits(known: &HashSet<usize>, words: usize) -> Vec<u64> {
    let mut bits = vec![0u64; words];
    for &node in known {
        bits[node / 64] |= 1 << (node % 64);
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

    #[test]
    fn cached_verifier_agrees_with_full_proofs(
        order in prop::collection::vec(any::<u64>(), 1..48),
        tamper_leaf in any::<bool>(),
        tamper_at in any::<u64>(),
        flip in any::<u64>(),
    ) {
        for n in 1..=17usize {
            let honest: Vec<Digest> = (0..n).map(|i| sha1(&[n as u8, i as u8])).collect();
            let honest_tree = merkle_tree(&honest);
            let root = honest_tree[0];
            // A tampered leaf is tampered on the medium: the terminal
            // builds its tree over it, the SOE hashes it on every fetch.
            let mut stored = honest.clone();
            let bad_leaf = (tamper_at % n as u64) as usize;
            if tamper_leaf {
                stored[bad_leaf][(flip % 20) as usize] ^= 1 << (flip % 8);
            }
            let terminal = merkle_tree(&stored);
            // Otherwise one fetch (with a non-empty proof) has one of its
            // shipped digests flipped in transit.
            let bad_fetch = (tamper_at % order.len() as u64) as usize;
            let mut v = VerifiedNodes::default();
            v.reset(n, root);
            let mut known: HashSet<usize> = HashSet::from([0]);
            let mut proof = Vec::new();
            for (i, &pick) in order.iter().enumerate() {
                let leaf = (pick % n as u64) as usize;
                let path = reference_path(n, leaf);
                let depth = path.iter().take_while(|l| known.contains(&l.node)).count();
                let mut full: Vec<Digest> = path.iter().map(|l| terminal[l.sibling]).collect();
                leaf_proof(&terminal, leaf, v.known(), &mut proof);
                prop_assert_eq!(&proof[..], &full[depth..], "n={} fetch {} leaf {}: request", n, i, leaf);
                if !tamper_leaf && i == bad_fetch && !proof.is_empty() {
                    let j = (flip % proof.len() as u64) as usize;
                    proof[j][0] ^= 0x80;
                    full[depth + j][0] ^= 0x80;
                }
                let before = v.known().to_vec();
                let cached = v.verify_leaf(leaf, stored[leaf], &proof);
                let stateless = stateless_accepts(&path, stored[leaf], &full, root);
                prop_assert_eq!(cached, stateless, "n={} fetch {} leaf {}: verdict", n, i, leaf);
                // Ground truth: the fetched leaf and every sibling of its
                // full proof are the honest ones.
                let authentic = stored[leaf] == honest[leaf]
                    && path.iter().zip(&full).all(|(l, d)| *d == honest_tree[l.sibling]);
                prop_assert_eq!(cached, authentic, "n={} fetch {} leaf {}: ground truth", n, i, leaf);
                if cached {
                    for level in &path[depth..] {
                        known.extend([level.node, level.sibling]);
                    }
                    prop_assert_eq!(v.known(), &known_bits(&known, before.len())[..]);
                } else {
                    prop_assert_eq!(v.known(), &before[..], "n={} fetch {}: a failed check trusts nothing new", n, i);
                }
                // Whatever it trusts is the honest tree's.
                for &node in &known {
                    prop_assert_eq!(v.get(node), Some(&honest_tree[node]), "n={} fetch {} node {}", n, i, node);
                }
            }
        }
    }
}
