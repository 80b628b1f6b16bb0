//! Compact sets of [`TagId`]s.
//!
//! The skip index stores, for every element `e`, the set of tags appearing
//! in `e`'s subtree (`DescTag_e`, §4.1). The evaluator compares the
//! `RemainingLabels` of every active token against this set (§4.2).

use crate::dict::TagId;

/// A fixed-capacity bitset over tag ids.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct TagSet {
    words: Vec<u64>,
}

impl TagSet {
    /// Empty set able to hold ids `< capacity`.
    pub fn with_capacity(capacity: usize) -> TagSet {
        TagSet { words: vec![0; capacity.div_ceil(64)] }
    }

    /// Empty set (grows on insert).
    pub fn new() -> TagSet {
        TagSet::default()
    }

    /// Inserts a tag, growing if needed. Returns true if newly inserted.
    pub fn insert(&mut self, tag: TagId) -> bool {
        let (w, b) = (tag.index() / 64, tag.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Empties the set, keeping its allocation (for reuse in decode
    /// loops: one `TagSet` can serve every element record of a session).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, tag: TagId) -> bool {
        let (w, b) = (tag.index() / 64, tag.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// True when every id in `tags` is present.
    #[inline]
    pub fn contains_all(&self, tags: &[TagId]) -> bool {
        tags.iter().all(|&t| self.contains(t))
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: &TagSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, &w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no tag is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = TagId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1u64 << b) != 0 {
                    Some(TagId((wi * 64 + b) as u32))
                } else {
                    None
                }
            })
        })
    }

    /// Members as a sorted vector.
    pub fn to_vec(&self) -> Vec<TagId> {
        self.iter().collect()
    }
}

impl FromIterator<TagId> for TagSet {
    fn from_iter<I: IntoIterator<Item = TagId>>(iter: I) -> Self {
        let mut s = TagSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains() {
        let mut s = TagSet::new();
        assert!(s.insert(TagId(3)));
        assert!(!s.insert(TagId(3)));
        assert!(s.insert(TagId(100)));
        assert!(s.contains(TagId(3)));
        assert!(s.contains(TagId(100)));
        assert!(!s.contains(TagId(4)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn superset_and_union() {
        let a: TagSet = [TagId(1), TagId(2), TagId(70)].into_iter().collect();
        let b: TagSet = [TagId(2)].into_iter().collect();
        let mut c = b.clone();
        c.union_with(&a);
        assert_eq!(c.to_vec(), a.to_vec());
    }

    #[test]
    fn contains_all_matches_remaining_labels_usage() {
        let s: TagSet = [TagId(1), TagId(5)].into_iter().collect();
        assert!(s.contains_all(&[TagId(1)]));
        assert!(s.contains_all(&[]));
        assert!(!s.contains_all(&[TagId(1), TagId(9)]));
    }

    #[test]
    fn iter_sorted() {
        let s: TagSet = [TagId(9), TagId(1), TagId(64)].into_iter().collect();
        assert_eq!(s.to_vec(), vec![TagId(1), TagId(9), TagId(64)]);
    }

    #[test]
    fn empty_set() {
        let s = TagSet::with_capacity(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
