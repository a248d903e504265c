//! The `eventIds` history: which notifications have been delivered.
//!
//! Two interchangeable representations (selected by
//! [`HistoryMode`](crate::HistoryMode)):
//!
//! * **Bounded** — the paper's measured configuration: a remove-oldest
//!   buffer of at most `|eventIds|m` ids. Purged ids are *forgotten*: a
//!   late copy of a purged notification is delivered again, and the id
//!   stops being advertised in digests. This finiteness is what Figure
//!   6(b) quantifies.
//! * **Compact** — the §3.2 per-origin optimisation: exact membership with
//!   storage proportional to out-of-order ids only.

use std::ops::ControlFlow;

use lpbcast_types::{CompactDigest, EventId, OldestFirstBuffer};

use crate::config::HistoryMode;
use crate::message::Digest;

/// Delivered-notification history with pluggable representation.
#[derive(Debug, Clone)]
pub enum EventHistory {
    /// Bounded remove-oldest buffer (measured configuration).
    Bounded(OldestFirstBuffer<EventId>),
    /// Exact per-origin compact digest (§3.2 optimisation).
    Compact(CompactDigest),
}

impl EventHistory {
    /// Creates a history in the given mode; `event_ids_max` bounds the
    /// `Bounded` representation (ignored by `Compact`).
    pub fn new(mode: HistoryMode, event_ids_max: usize) -> Self {
        match mode {
            HistoryMode::Bounded => EventHistory::Bounded(OldestFirstBuffer::new(event_ids_max)),
            HistoryMode::Compact => EventHistory::Compact(CompactDigest::new()),
        }
    }

    /// Whether `id` is remembered as delivered.
    pub fn contains(&self, id: EventId) -> bool {
        match self {
            EventHistory::Bounded(buf) => buf.contains(&id),
            EventHistory::Compact(d) => d.contains(id),
        }
    }

    /// Records `id`; returns `true` if it was not remembered (i.e. the
    /// notification should be delivered).
    pub fn insert(&mut self, id: EventId) -> bool {
        match self {
            EventHistory::Bounded(buf) => buf.insert(id),
            EventHistory::Compact(d) => d.insert(id),
        }
    }

    /// Enforces the size bound; returns purged ids (empty for `Compact`).
    pub fn truncate(&mut self) -> Vec<EventId> {
        match self {
            EventHistory::Bounded(buf) => buf.truncate_oldest(),
            EventHistory::Compact(_) => Vec::new(),
        }
    }

    /// Number of ids currently remembered (watermark-covered ids included
    /// for `Compact`).
    pub fn len(&self) -> u64 {
        match self {
            EventHistory::Bounded(buf) => buf.len() as u64,
            EventHistory::Compact(d) => d.seen_count(),
        }
    }

    /// Whether nothing has been remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the digest to attach to an outgoing gossip (Figure 1(b):
    /// `gossip.eventIds ← eventIds`).
    pub fn to_digest(&self) -> Digest {
        match self {
            EventHistory::Bounded(buf) => Digest::Ids(buf.to_vec()),
            EventHistory::Compact(d) => Digest::Compact(d.clone()),
        }
    }

    /// §5.2 id absorption: records every id `digest` advertises that this
    /// history has not delivered, calling `learnt` with each in the order
    /// [`for_each_missing`](Self::for_each_missing) visits them.
    pub fn absorb(&mut self, digest: &Digest, mut learnt: impl FnMut(EventId)) {
        match (self, digest) {
            (EventHistory::Compact(ours), Digest::Compact(theirs)) => ours.absorb(theirs, learnt),
            (this, digest) => {
                let mut missing = Vec::new();
                let _ = this.for_each_missing(digest, |id| {
                    missing.push(id);
                    ControlFlow::Continue(())
                });
                for id in missing {
                    if this.insert(id) {
                        learnt(id);
                    }
                }
            }
        }
    }

    /// Calls `f` with each id advertised by `digest` that this history
    /// has not delivered — the candidates for a retransmission pull (§2.3
    /// footnote 5) — until `f` breaks, and returns whether it did.
    ///
    /// A `Compact` digest's watermarks come off the wire unchecked, so a
    /// caller that wants at most `k` ids breaks after the `k`-th: the walk
    /// never enumerates more than `f` accepts plus the ids this history
    /// already holds.
    pub fn for_each_missing(
        &self,
        digest: &Digest,
        mut f: impl FnMut(EventId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match digest {
            Digest::Ids(ids) => {
                for &id in ids {
                    if !self.contains(id) {
                        f(id)?;
                    }
                }
            }
            Digest::Compact(theirs) => match self {
                EventHistory::Compact(ours) => return ours.for_each_missing(theirs, f),
                EventHistory::Bounded(_) => {
                    // Enumerate their ids exactly and filter locally.
                    for (origin, od) in theirs.iter() {
                        for seq in (0..od.next_seq()).chain(od.out_of_order()) {
                            let id = EventId::new(origin, seq);
                            if !self.contains(id) {
                                f(id)?;
                            }
                        }
                    }
                }
            },
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpbcast_types::ProcessId;

    fn eid(p: u64, s: u64) -> EventId {
        EventId::new(ProcessId::new(p), s)
    }

    /// Every id `for_each_missing` visits, in order.
    fn missing(h: &EventHistory, digest: &Digest) -> Vec<EventId> {
        let mut out = Vec::new();
        let _ = h.for_each_missing(digest, |id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn bounded_forgets_oldest() {
        let mut h = EventHistory::new(HistoryMode::Bounded, 2);
        assert!(h.insert(eid(1, 0)));
        assert!(h.insert(eid(1, 1)));
        assert!(h.insert(eid(1, 2)));
        let purged = h.truncate();
        assert_eq!(purged, vec![eid(1, 0)]);
        assert!(!h.contains(eid(1, 0)), "purged id forgotten");
        assert!(h.insert(eid(1, 0)), "late copy delivered again");
    }

    #[test]
    fn compact_never_forgets() {
        let mut h = EventHistory::new(HistoryMode::Compact, 2);
        for s in 0..100 {
            assert!(h.insert(eid(1, s)));
        }
        assert!(h.truncate().is_empty());
        assert_eq!(h.len(), 100);
        assert!(!h.insert(eid(1, 0)), "no duplicate delivery ever");
    }

    #[test]
    fn digest_roundtrip_bounded() {
        let mut h = EventHistory::new(HistoryMode::Bounded, 10);
        h.insert(eid(1, 0));
        h.insert(eid(2, 3));
        let d = h.to_digest();
        assert!(d.contains(eid(1, 0)) && d.contains(eid(2, 3)));
        assert_eq!(d, Digest::Ids(vec![eid(1, 0), eid(2, 3)]));
    }

    #[test]
    fn for_each_missing_ids_digest() {
        let mut h = EventHistory::new(HistoryMode::Bounded, 10);
        h.insert(eid(1, 0));
        let digest = Digest::Ids(vec![eid(1, 0), eid(1, 1), eid(2, 0)]);
        let mut pull = missing(&h, &digest);
        pull.sort();
        assert_eq!(pull, vec![eid(1, 1), eid(2, 0)]);
    }

    #[test]
    fn for_each_missing_compact_digest_with_bounded_history() {
        let mut h = EventHistory::new(HistoryMode::Bounded, 10);
        h.insert(eid(1, 1));
        let mut theirs = CompactDigest::new();
        theirs.extend([eid(1, 0), eid(1, 1), eid(1, 2), eid(1, 4)]);
        let mut pull = missing(&h, &Digest::Compact(theirs));
        pull.sort();
        assert_eq!(pull, vec![eid(1, 0), eid(1, 2), eid(1, 4)]);
    }

    #[test]
    fn for_each_missing_compact_digest_with_compact_history() {
        let mut h = EventHistory::new(HistoryMode::Compact, 0);
        h.insert(eid(1, 0));
        let mut theirs = CompactDigest::new();
        theirs.extend([eid(1, 0), eid(1, 1)]);
        assert_eq!(missing(&h, &Digest::Compact(theirs)), vec![eid(1, 1)]);
    }

    #[test]
    fn len_and_emptiness() {
        let mut h = EventHistory::new(HistoryMode::Bounded, 5);
        assert!(h.is_empty());
        h.insert(eid(0, 0));
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
    }
}
