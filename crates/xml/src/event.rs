//! The SAX-style event model (§3.1: "the evaluator is fed by an event-based
//! parser raising open, value and close events").

use crate::dict::TagId;
use std::borrow::Cow;

/// A streaming document event.
///
/// Text is carried as a [`Cow`] so that events can either borrow from the
/// input buffer (parser) or own decoded bytes (skip-index decoder,
/// decrypted fragments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event<'a> {
    /// An opening tag.
    Open(TagId),
    /// Text content directly under the current element.
    Text(Cow<'a, str>),
    /// The matching closing tag.
    Close(TagId),
}

impl<'a> Event<'a> {
    /// Converts to an owned (`'static`) event.
    pub fn into_owned(self) -> Event<'static> {
        match self {
            Event::Open(t) => Event::Open(t),
            Event::Text(s) => Event::Text(Cow::Owned(s.into_owned())),
            Event::Close(t) => Event::Close(t),
        }
    }

    /// The tag of an open/close event, if any.
    pub fn tag(&self) -> Option<TagId> {
        match self {
            Event::Open(t) | Event::Close(t) => Some(*t),
            Event::Text(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let o = Event::Open(TagId(3));
        let c = Event::Close(TagId(3));
        let t = Event::Text(Cow::Borrowed("hi"));
        assert_eq!(o.tag(), Some(TagId(3)));
        assert_eq!(c.tag(), Some(TagId(3)));
        assert_eq!(t.tag(), None);
    }

    #[test]
    fn into_owned_preserves_content() {
        let t = Event::Text(Cow::Borrowed("abc"));
        let owned = t.clone().into_owned();
        assert_eq!(owned, t);
    }
}
