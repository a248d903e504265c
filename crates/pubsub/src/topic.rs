//! Topic identifiers.

use std::fmt;
use std::sync::Arc;

/// A topic name — the unit of subscription (§3.1: one topic = one gossip
/// group Π).
///
/// Cheaply cloneable (reference-counted string); compares and hashes by
/// content. A name is 1 to [`TopicId::MAX_LEN`] bytes: every receiver
/// refuses a frame with any other label, so no such id can be built.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(Arc<str>);

impl TopicId {
    /// Longest topic name in UTF-8 bytes; the wire codec refuses longer
    /// labels.
    pub const MAX_LEN: usize = 1024;

    /// Creates a topic id from its name.
    ///
    /// # Panics
    ///
    /// If `name` is empty or longer than [`MAX_LEN`](Self::MAX_LEN)
    /// bytes; [`try_new`](Self::try_new) is the fallible twin.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        match Self::try_new(name) {
            Some(topic) => topic,
            None => panic!(
                "a topic name is 1 to {} bytes, not {}",
                Self::MAX_LEN,
                name.len()
            ),
        }
    }

    /// Creates a topic id from its name, or `None` if the name is empty or
    /// longer than [`MAX_LEN`](Self::MAX_LEN) bytes.
    pub fn try_new(name: &str) -> Option<Self> {
        (1..=Self::MAX_LEN)
            .contains(&name.len())
            .then(|| TopicId(Arc::from(name)))
    }

    /// The topic name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TopicId {
    fn from(name: &str) -> Self {
        TopicId::new(name)
    }
}

impl From<String> for TopicId {
    fn from(name: String) -> Self {
        TopicId::new(name)
    }
}

impl AsRef<str> for TopicId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpbcast_types::FastSet;

    #[test]
    fn equality_is_by_content() {
        let a = TopicId::new("stocks/tech");
        let b = TopicId::from("stocks/tech".to_string());
        let c = TopicId::from("stocks/energy");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = FastSet::default();
        set.insert(a.clone());
        assert!(!set.insert(b));
        assert!(set.insert(c));
    }

    #[test]
    fn clones_share_storage() {
        let a = TopicId::new("x");
        let b = a.clone();
        assert_eq!(a.name().as_ptr(), b.name().as_ptr());
    }

    #[test]
    fn names_are_one_to_max_len_bytes() {
        let longest = "t".repeat(TopicId::MAX_LEN);
        assert_eq!(TopicId::new(&longest).name(), longest);
        assert_eq!(TopicId::try_new(""), None);
        assert_eq!(TopicId::try_new(&"t".repeat(TopicId::MAX_LEN + 1)), None);
    }

    #[test]
    #[should_panic(expected = "1 to 1024 bytes, not 0")]
    fn an_empty_name_panics() {
        let _ = TopicId::new("");
    }

    #[test]
    #[should_panic(expected = "1 to 1024 bytes, not 1025")]
    fn an_overlong_name_panics() {
        let _ = TopicId::from("é".repeat(512) + "x");
    }

    #[test]
    fn display_is_the_name() {
        assert_eq!(TopicId::new("fx/eurusd").to_string(), "fx/eurusd");
    }
}
