//! Protocol messages and state-machine outputs.

use std::sync::Arc;

use lpbcast_types::{CompactDigest, Event, EventId, ProcessId};

use crate::unsub::UnsubDigest;

/// The digest of delivered notifications carried by every gossip message
/// (§3.2 "notification identifiers").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Digest {
    /// Snapshot of the bounded `eventIds` buffer
    /// ([`HistoryMode::Bounded`](crate::HistoryMode::Bounded)).
    Ids(Vec<EventId>),
    /// Per-origin compact form
    /// ([`HistoryMode::Compact`](crate::HistoryMode::Compact)).
    Compact(CompactDigest),
}

impl Digest {
    /// An empty digest in the `Ids` representation.
    pub fn empty() -> Self {
        Digest::Ids(Vec::new())
    }

    /// Whether `id` is covered by the digest.
    pub fn contains(&self, id: EventId) -> bool {
        match self {
            Digest::Ids(ids) => ids.contains(&id),
            Digest::Compact(d) => d.contains(id),
        }
    }
}

/// A gossip message (§3.2): the single message type that simultaneously
/// disseminates notifications, digests, unsubscriptions and subscriptions.
#[derive(Debug, Clone)]
pub struct Gossip {
    /// The emitting process.
    pub sender: ProcessId,
    /// Subscriptions to propagate; always contains the sender itself
    /// (Figure 1(b): `gossip.subs ← subs ∪ {pi}`).
    pub subs: Vec<ProcessId>,
    /// Unsubscriptions to propagate, grouped by issue timestamp.
    pub unsubs: UnsubDigest,
    /// Notifications received since the sender's last gossip.
    pub events: Vec<Event>,
    /// Digest of all notifications the sender has delivered.
    pub event_ids: Digest,
}

/// Messages exchanged by lpbcast processes.
///
/// The gossip body travels behind an [`Arc`]: one emission builds the
/// body once and every one of the `F` fanout copies clones the pointer,
/// not the payload. Simulator fan-out is therefore zero-copy; the wire
/// codec serializes through the pointer, so encoding is byte-identical
/// to carrying the body inline.
#[derive(Debug, Clone)]
pub enum Message {
    /// Periodic gossip (the only message required by the base protocol).
    Gossip(Arc<Gossip>),
    /// A joining process asks a known member to gossip its subscription on
    /// its behalf (§3.4).
    Subscribe {
        /// The joining process.
        subscriber: ProcessId,
    },
    /// Gossip-pull: ask the sender of a gossip for notifications whose ids
    /// appeared in its digest but were never delivered locally.
    RetransmitRequest {
        /// Ids requested.
        ids: Vec<EventId>,
    },
    /// Reply to a [`Message::RetransmitRequest`] with whatever the archive
    /// still holds.
    RetransmitResponse {
        /// The recovered notifications.
        events: Vec<Event>,
    },
}

impl Message {
    /// Wraps a gossip body into a [`Message::Gossip`], allocating its
    /// shared [`Arc`]. Fanout copies should clone the resulting message
    /// (pointer clone), not call this per copy.
    pub fn gossip(gossip: Gossip) -> Self {
        Message::Gossip(Arc::new(gossip))
    }
}

/// Everything an lpbcast step produced: the workspace-wide unified
/// envelope ([`lpbcast_types::Output`]) instantiated at [`Message`].
///
/// `delivered` carries LPB-DELIVER notifications in delivery order;
/// `learned_ids` is non-empty only in the §5.2 measurement convention
/// (*"once a gossip receiver has received the identifier of a
/// notification, the notification itself is assumed to have been
/// received"*, i.e. when `retransmit_request_max == 0` the driver may
/// count these as received); `outgoing` is the `(destination, message)`
/// send batch; `membership` reports view joins/leaves applied by the
/// step.
pub type Output = lpbcast_types::Output<Message>;

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn eid(p: u64, s: u64) -> EventId {
        EventId::new(pid(p), s)
    }

    #[test]
    fn digest_contains_both_forms() {
        let ids = Digest::Ids(vec![eid(1, 0), eid(1, 2)]);
        assert!(ids.contains(eid(1, 0)));
        assert!(!ids.contains(eid(1, 1)));

        let mut c = CompactDigest::new();
        c.extend([eid(1, 0), eid(1, 1), eid(2, 5)]);
        let compact = Digest::Compact(c);
        assert!(compact.contains(eid(1, 1)));
        assert!(!compact.contains(eid(2, 4)));
    }
}
