//! Topic identifiers.

use std::fmt;
use std::sync::Arc;

/// A topic name — the unit of subscription (§3.1: one topic = one gossip
/// group Π).
///
/// Cheaply cloneable (reference-counted string); compares and hashes by
/// content.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(Arc<str>);

impl TopicId {
    /// Creates a topic id from its name.
    pub fn new(name: impl AsRef<str>) -> Self {
        TopicId(Arc::from(name.as_ref()))
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
    fn display_is_the_name() {
        assert_eq!(TopicId::new("fx/eurusd").to_string(), "fx/eurusd");
    }
}
