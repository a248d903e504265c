//! Event notifications — the application payload of gossip messages.
//!
//! §2.3 footnote 7: *"These notifications constitute the actual payload of
//! the gossip messages, and can be viewed as application messages."*

use core::fmt;

use bytes::Bytes;

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use crate::EventId;

/// An opaque application payload.
///
/// Cheaply cloneable (reference counted) so that a notification buffered by
/// many processes in the simulator shares one allocation.
pub type Payload = Bytes;

/// An event notification: the unit the application broadcasts with
/// `LPB-CAST` and receives with `LPB-DELIVER`.
///
/// Equality, ordering and hashing are **by identifier only**: the protocol
/// treats two notifications with the same id as the same notification
/// (identifiers are unique, §3.2), which is what makes the no-duplicate
/// buffer semantics correct even if payload bytes were corrupted in transit.
///
/// # Example
///
/// ```
/// use lpbcast_types::{Event, EventId, ProcessId};
///
/// let id = EventId::new(ProcessId::new(0), 1);
/// let e = Event::new(id, b"tick".as_ref());
/// assert_eq!(e.id(), id);
/// assert_eq!(e.payload().as_ref(), b"tick");
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Event {
    id: EventId,
    payload: Payload,
}

impl Event {
    /// Creates a notification with the given identifier and payload.
    pub fn new(id: EventId, payload: impl Into<Payload>) -> Self {
        Event {
            id,
            payload: payload.into(),
        }
    }

    /// The globally unique identifier of this notification.
    pub const fn id(&self) -> EventId {
        self.id
    }

    /// The application payload.
    pub const fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Consumes the event, returning its payload.
    pub fn into_payload(self) -> Payload {
        self.payload
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl core::hash::Hash for Event {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {} ({} bytes)", self.id, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FastSet, ProcessId};

    fn eid(origin: u64, seq: u64) -> EventId {
        EventId::new(ProcessId::new(origin), seq)
    }

    #[test]
    fn identity_is_by_id_only() {
        let a = Event::new(eid(1, 1), b"x".as_ref());
        let b = Event::new(eid(1, 1), b"completely different".as_ref());
        assert_eq!(a, b);
        let mut set = FastSet::default();
        set.insert(a);
        assert!(!set.insert(b));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn different_ids_are_different_events() {
        let a = Event::new(eid(1, 1), b"x".as_ref());
        let b = Event::new(eid(1, 2), b"x".as_ref());
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    fn payload_is_shared_not_copied() {
        let payload = Payload::from(vec![0u8; 1024]);
        let a = Event::new(eid(2, 0), payload.clone());
        let b = a.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(a.payload().as_ptr(), b.payload().as_ptr());
        assert_eq!(b.into_payload().len(), 1024);
    }

    #[test]
    fn empty_payload_is_allowed() {
        let e = Event::new(eid(0, 0), Payload::new());
        assert!(e.payload().is_empty());
        assert_eq!(e.to_string(), "event p0#0 (0 bytes)");
    }
}
