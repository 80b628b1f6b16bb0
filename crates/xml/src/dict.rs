//! Tag dictionary: interning of element names.
//!
//! The paper assumes "the document structure is compressed thanks to a
//! dictionary of tags" (§4.1, citing XGRIND/XMill-style compressors). All
//! components of the workspace share this dictionary: the parser interns
//! names, the automata compare [`TagId`]s, and the skip-index encodings
//! derive their bit widths from the dictionary size.

use std::collections::HashMap;
use std::fmt;

/// Reserved dictionary entry used to represent text nodes uniformly in the
/// skip-index encodings (a text node is a leaf whose "tag" is `#text` and
/// whose subtree size is its byte length).
pub const TEXT_TAG_NAME: &str = "#text";

/// An interned element name. Comparing two `TagId`s is equivalent to
/// comparing the underlying names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub u32);

impl TagId {
    /// The `#text` pseudo-tag (always entry 0 of every dictionary).
    pub const TEXT: TagId = TagId(0);

    /// Index of this tag in the dictionary.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A bidirectional mapping between element names and [`TagId`]s.
///
/// Entry 0 is always the [`TEXT_TAG_NAME`] pseudo-tag.
#[derive(Clone, Debug)]
pub struct TagDict {
    names: Vec<String>,
    ids: HashMap<String, TagId>,
}

impl Default for TagDict {
    fn default() -> Self {
        Self::new()
    }
}

impl TagDict {
    /// Creates a dictionary containing only the `#text` pseudo-tag.
    pub fn new() -> Self {
        let mut d = TagDict { names: Vec::new(), ids: HashMap::new() };
        d.intern(TEXT_TAG_NAME);
        d
    }

    /// Interns `name`, returning its id (existing or freshly allocated).
    pub fn intern(&mut self, name: &str) -> TagId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = TagId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<TagId> {
        self.ids.get(name).copied()
    }

    /// Resolves an id back to its name. Panics on a foreign id.
    pub fn name(&self, id: TagId) -> &str {
        &self.names[id.index()]
    }

    /// Number of entries, including the `#text` pseudo-tag.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when only the `#text` pseudo-tag is present.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }

    /// Iterates over `(TagId, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (TagId(i as u32), n.as_str()))
    }

    /// Serialized size of the dictionary in bytes (names + separators),
    /// charged to the structure overhead of the encodings.
    pub fn serialized_len(&self) -> usize {
        self.names.iter().map(|n| n.len() + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_tag_is_entry_zero() {
        let d = TagDict::new();
        assert_eq!(d.get(TEXT_TAG_NAME), Some(TagId::TEXT));
        assert_eq!(d.name(TagId::TEXT), TEXT_TAG_NAME);
        assert_eq!(d.len(), 1);
        assert!(d.is_empty());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut d = TagDict::new();
        let a = d.intern("Folder");
        let b = d.intern("Admin");
        assert_ne!(a, b);
        assert_eq!(d.intern("Folder"), a);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn resolves_names_in_id_order() {
        let mut d = TagDict::new();
        let ids: Vec<TagId> = ["a", "b", "c"].iter().map(|n| d.intern(n)).collect();
        assert_eq!(d.name(ids[0]), "a");
        assert_eq!(d.name(ids[2]), "c");
        let collected: Vec<&str> = d.iter().map(|(_, n)| n).collect();
        assert_eq!(collected, vec![TEXT_TAG_NAME, "a", "b", "c"]);
    }

    #[test]
    fn serialized_len_counts_names_and_separators() {
        let mut d = TagDict::new();
        d.intern("ab");
        // "#text" + sep + "ab" + sep
        assert_eq!(d.serialized_len(), 6 + 3);
    }
}
