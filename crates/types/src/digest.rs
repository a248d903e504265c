//! Compact per-origin event-id digests.
//!
//! §3.2: *"We suppose that these identifiers are unique, and include the
//! identifier of the originator. That way, the buffer can be optimized by
//! only retaining for each sender the identifiers of notifications
//! delivered since the last one delivered in sequence."*
//!
//! [`CompactDigest`] implements exactly that optimisation: for every origin
//! it stores the next expected sequence number (everything below it has
//! been seen) plus the set of out-of-order sequence numbers above it.
//! It is used by the retransmission machinery (gossip pull) and offered by
//! `lpbcast-core` as an alternative to the bounded `eventIds` history.
//!
//! # Representation
//!
//! Every Compact-history process clones its digest into each gossip it
//! emits and diffs it against each gossip it receives, so the storage is
//! flat: a [`CompactDigest`] is one `Vec<(ProcessId, OriginDigest)>` sorted
//! by origin, an [`OriginDigest`] is a watermark plus one sorted `Vec<u64>`.
//! Cloning is one allocation per non-empty vector, lookups are binary
//! searches and a diff is a merge-join over two sorted arrays.
//!
//! The form is **canonical** — one set of seen ids has exactly one
//! representation — which is what lets `PartialEq`, `Clone` and the serde
//! derives stay structural:
//!
//! * `origins` is strictly ascending by origin (no duplicate origins);
//! * each `out_of_order` is strictly ascending and every member is
//!   `> next_seq` (a member equal to the watermark is absorbed into it,
//!   together with the run that follows).
//!
//! An origin entry may be empty (`next_seq == 0`, nothing out of order):
//! [`CompactDigest::set_origin`] installs what it is given, and an empty
//! entry is distinct from an absent one.

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use core::ops::ControlFlow;

use crate::{EventId, ProcessId};

/// Digest of the notifications seen from a single origin.
///
/// Invariant: every sequence number `< next_seq` is contained;
/// `out_of_order` is strictly ascending and every member is `> next_seq`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct OriginDigest {
    next_seq: u64,
    out_of_order: Vec<u64>,
}

/// What an origin we have never heard of looks like.
static NOTHING_SEEN: OriginDigest = OriginDigest {
    next_seq: 0,
    out_of_order: Vec::new(),
};

impl OriginDigest {
    /// Creates an empty digest (nothing seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a digest from its wire parts: the in-sequence watermark
    /// and the out-of-order set, in any order and with duplicates.
    /// Out-of-order entries at or below the watermark are absorbed,
    /// contiguous runs are compacted — the result always satisfies the
    /// struct invariant regardless of input, in `O(n log n)`.
    pub fn from_parts(next_seq: u64, out_of_order: impl IntoIterator<Item = u64>) -> Self {
        let mut d = OriginDigest {
            next_seq,
            out_of_order: out_of_order.into_iter().collect(),
        };
        d.normalize();
        d
    }

    /// Restores the invariant over an arbitrary `out_of_order`.
    fn normalize(&mut self) {
        let next_seq = self.next_seq;
        self.out_of_order.retain(|&s| s >= next_seq);
        self.out_of_order.sort_unstable();
        self.out_of_order.dedup();
        self.absorb_leading_run();
    }

    /// Advances the watermark over the out-of-order entries that have
    /// become contiguous with it.
    fn absorb_leading_run(&mut self) {
        let run = self
            .out_of_order
            .iter()
            .zip(self.next_seq..)
            .take_while(|&(&s, next)| s == next)
            .count();
        self.out_of_order.drain(..run);
        self.next_seq += run as u64;
    }

    /// Set union with `other`.
    fn union(&mut self, other: &OriginDigest) {
        self.next_seq = self.next_seq.max(other.next_seq);
        self.out_of_order.extend_from_slice(&other.out_of_order);
        self.normalize();
    }

    /// Whether nothing has been seen.
    fn is_empty(&self) -> bool {
        self.next_seq == 0 && self.out_of_order.is_empty()
    }

    /// The smallest sequence number not yet seen in sequence. All sequence
    /// numbers strictly below have been seen.
    pub const fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence numbers seen out of order (each `> next_seq`), ascending.
    pub fn out_of_order(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.out_of_order.iter().copied()
    }

    /// Whether `seq` has been seen.
    pub fn contains(&self, seq: u64) -> bool {
        seq < self.next_seq || self.out_of_order.binary_search(&seq).is_ok()
    }

    /// Records `seq`; returns `true` if it was unseen. Absorbs any
    /// out-of-order run that becomes contiguous.
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next_seq {
            return false;
        }
        if seq == self.next_seq {
            self.next_seq += 1;
            self.absorb_leading_run();
            return true;
        }
        match self.out_of_order.binary_search(&seq) {
            Ok(_) => false,
            Err(at) => {
                self.out_of_order.insert(at, seq);
                true
            }
        }
    }

    /// Number of distinct sequence numbers seen.
    pub fn seen_count(&self) -> u64 {
        self.next_seq + self.out_of_order.len() as u64
    }

    /// Storage cost of the digest in entries (1 for the in-sequence
    /// watermark + one per out-of-order id) — the quantity the §3.2
    /// optimisation minimises.
    pub fn storage_entries(&self) -> usize {
        1 + self.out_of_order.len()
    }

    /// Calls `f` with every sequence number `theirs` has seen and `self`
    /// has not — first the part of their in-sequence prefix beyond ours,
    /// then their out-of-order extras, each ascending — until `f` breaks.
    /// Each step either calls `f` or passes one of our own out-of-order
    /// entries, so a watermark read off the wire costs only as many steps
    /// as `f` accepts ids.
    fn for_each_missing(
        &self,
        theirs: &OriginDigest,
        mut f: impl FnMut(u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if theirs.out_of_order.is_empty() && self.next_seq >= theirs.next_seq {
            return ControlFlow::Continue(());
        }
        let mut ours = self.out_of_order.iter().copied().peekable();
        for seq in self.next_seq..theirs.next_seq {
            if ours.next_if_eq(&seq).is_none() {
                f(seq)?;
            }
        }
        for &seq in &theirs.out_of_order {
            if seq < self.next_seq {
                continue;
            }
            while ours.next_if(|&o| o < seq).is_some() {}
            if ours.peek() != Some(&seq) {
                f(seq)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// [`for_each_missing`](Self::for_each_missing) run to the end,
    /// recording what it reports — in one pass over the two sorted runs,
    /// with no per-id lookup. New out-of-order entries are appended and sorted in once,
    /// so a long hostile run costs `O(n log n)`, not a shift per entry.
    fn absorb(&mut self, theirs: &OriginDigest, mut f: impl FnMut(u64)) {
        if theirs.out_of_order.is_empty() && self.next_seq >= theirs.next_seq {
            return;
        }
        // Their in-sequence prefix swallows ours and the entries below it.
        let mut covered = 0;
        for seq in self.next_seq..theirs.next_seq {
            if self.out_of_order.get(covered) == Some(&seq) {
                covered += 1;
            } else {
                f(seq);
            }
        }
        self.out_of_order.drain(..covered);
        self.next_seq = self.next_seq.max(theirs.next_seq);
        // Their out-of-order extras, merge-joined against what is left.
        let known = self.out_of_order.len();
        let mut at = 0;
        for &seq in &theirs.out_of_order {
            if seq < self.next_seq {
                continue;
            }
            while at < known && self.out_of_order[at] < seq {
                at += 1;
            }
            if at == known || self.out_of_order[at] != seq {
                f(seq);
                self.out_of_order.push(seq);
            }
        }
        if known > 0 && self.out_of_order.len() > known {
            self.out_of_order.sort_unstable();
        }
        self.absorb_leading_run();
    }
}

/// Compact digest over all origins: the optimised `eventIds` representation
/// of §3.2.
///
/// # Example
///
/// ```
/// use lpbcast_types::{CompactDigest, EventId, ProcessId};
///
/// let p = ProcessId::new(1);
/// let mut d = CompactDigest::new();
/// assert!(d.insert(EventId::new(p, 0)));
/// assert!(d.insert(EventId::new(p, 2))); // out of order
/// assert!(!d.insert(EventId::new(p, 0))); // duplicate
/// assert!(d.contains(EventId::new(p, 2)));
/// assert!(!d.contains(EventId::new(p, 1)));
/// // Seeing seq 1 closes the gap and compacts storage.
/// d.insert(EventId::new(p, 1));
/// assert_eq!(d.origin(p).unwrap().next_seq(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct CompactDigest {
    origins: Vec<(ProcessId, OriginDigest)>,
}

impl CompactDigest {
    /// Creates an empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a digest from per-origin digests in any order (wire
    /// decoding): one sort, then duplicate origins are merged as
    /// [`set_origin`](Self::set_origin) would.
    pub fn from_origins(origins: impl IntoIterator<Item = (ProcessId, OriginDigest)>) -> Self {
        let mut origins: Vec<_> = origins.into_iter().collect();
        origins.sort_unstable_by_key(|&(origin, _)| origin);
        origins.dedup_by(|(origin, digest), (kept_origin, kept)| {
            let duplicate = origin == kept_origin;
            if duplicate {
                kept.union(digest);
            }
            duplicate
        });
        CompactDigest { origins }
    }

    /// Index of `origin`'s entry, or where it would be inserted.
    fn position(&self, origin: ProcessId) -> Result<usize, usize> {
        self.origins.binary_search_by_key(&origin, |&(o, _)| o)
    }

    /// Whether the notification id has been seen.
    pub fn contains(&self, id: EventId) -> bool {
        self.origin(id.origin())
            .is_some_and(|d| d.contains(id.seq()))
    }

    /// Records a notification id; returns `true` if it was unseen.
    pub fn insert(&mut self, id: EventId) -> bool {
        let at = match self.position(id.origin()) {
            Ok(at) => at,
            Err(at) => {
                self.origins.insert(at, (id.origin(), OriginDigest::new()));
                at
            }
        };
        self.origins[at].1.insert(id.seq())
    }

    /// Installs a whole per-origin digest (wire decoding). Merges with any
    /// digest already present for `origin`.
    pub fn set_origin(&mut self, origin: ProcessId, digest: OriginDigest) {
        match self.position(origin) {
            Ok(at) => self.origins[at].1.union(&digest),
            Err(at) => self.origins.insert(at, (origin, digest)),
        }
    }

    /// The per-origin digest for `origin`, if any notification from it has
    /// been seen.
    pub fn origin(&self, origin: ProcessId) -> Option<&OriginDigest> {
        self.position(origin).ok().map(|at| &self.origins[at].1)
    }

    /// Iterates over `(origin, digest)` pairs, ascending by origin.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ProcessId, &OriginDigest)> {
        self.origins.iter().map(|(p, d)| (*p, d))
    }

    /// Number of origins tracked.
    pub fn origin_count(&self) -> usize {
        self.origins.len()
    }

    /// Total distinct notification ids seen.
    pub fn seen_count(&self) -> u64 {
        self.iter().map(|(_, d)| d.seen_count()).sum()
    }

    /// Total storage entries (the quantity bounded by the §3.2
    /// optimisation).
    pub fn storage_entries(&self) -> usize {
        self.iter().map(|(_, d)| d.storage_entries()).sum()
    }

    /// Calls `f` with every id present in `other` but absent here — what
    /// this process should request from the sender of `other` (gossip
    /// pull, §2.3 footnote 5) — until `f` breaks, and returns whether it
    /// did. Ordered by origin; within an origin, the in-sequence prefix
    /// they have beyond ours, then their out-of-order extras.
    ///
    /// `other` may come off the wire with a watermark near `u64::MAX`, so
    /// a caller that wants at most `k` ids breaks after the `k`-th: the
    /// walk never enumerates more than `f` accepts plus this digest's own
    /// out-of-order entries.
    pub fn for_each_missing(
        &self,
        other: &CompactDigest,
        mut f: impl FnMut(EventId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut at = 0;
        for (origin, theirs) in other.iter() {
            while self.origins.get(at).is_some_and(|&(o, _)| o < origin) {
                at += 1;
            }
            let ours = match self.origins.get(at) {
                Some((o, ours)) if *o == origin => ours,
                _ => &NOTHING_SEEN,
            };
            ours.for_each_missing(theirs, |seq| f(EventId::new(origin, seq)))?;
        }
        ControlFlow::Continue(())
    }

    /// Records every id `theirs` advertises and this digest lacks, calling
    /// `learnt` with each in exactly the order
    /// [`for_each_missing`](Self::for_each_missing) visits them — that
    /// walk followed by an `insert` per id, without the intermediate list
    /// or the per-id lookups.
    pub fn absorb(&mut self, theirs: &CompactDigest, mut learnt: impl FnMut(EventId)) {
        let mut at = 0;
        for (origin, theirs) in theirs.iter() {
            while self.origins.get(at).is_some_and(|&(o, _)| o < origin) {
                at += 1;
            }
            if self.origins.get(at).is_none_or(|&(o, _)| o != origin) {
                // An empty entry teaches nothing: do not mirror it.
                if theirs.is_empty() {
                    continue;
                }
                self.origins.insert(at, (origin, OriginDigest::new()));
            }
            self.origins[at]
                .1
                .absorb(theirs, |seq| learnt(EventId::new(origin, seq)));
        }
    }
}

impl Extend<EventId> for CompactDigest {
    fn extend<I: IntoIterator<Item = EventId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl FromIterator<EventId> for CompactDigest {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        let mut d = CompactDigest::new();
        d.extend(iter);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn eid(p: u64, s: u64) -> EventId {
        EventId::new(pid(p), s)
    }

    /// Every id `for_each_missing` visits, in order.
    fn missing(ours: &CompactDigest, theirs: &CompactDigest) -> Vec<EventId> {
        let mut out = Vec::new();
        let _ = ours.for_each_missing(theirs, |id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn in_sequence_insertions_compact_to_watermark() {
        let mut d = OriginDigest::new();
        for s in 0..100 {
            assert!(d.insert(s));
        }
        assert_eq!(d.next_seq(), 100);
        assert_eq!(d.storage_entries(), 1, "fully compacted");
        assert_eq!(d.seen_count(), 100);
    }

    #[test]
    fn out_of_order_is_tracked_then_absorbed() {
        let mut d = OriginDigest::new();
        d.insert(2);
        d.insert(4);
        assert_eq!(d.next_seq(), 0);
        assert_eq!(d.storage_entries(), 3);
        d.insert(0);
        assert_eq!(d.next_seq(), 1);
        d.insert(1);
        // 1 closes the gap; 2 absorbed, next gap at 3.
        assert_eq!(d.next_seq(), 3);
        assert!(!d.contains(3) && d.contains(4), "next gap at 3");
        d.insert(3);
        assert_eq!(d.next_seq(), 5);
        assert_eq!(d.storage_entries(), 1);
    }

    #[test]
    fn duplicate_insertions_report_false() {
        let mut d = OriginDigest::new();
        assert!(d.insert(5));
        assert!(!d.insert(5));
        d.insert(0);
        assert!(!d.insert(0));
    }

    #[test]
    fn compact_digest_tracks_multiple_origins() {
        let mut d = CompactDigest::new();
        d.insert(eid(1, 0));
        d.insert(eid(2, 0));
        d.insert(eid(2, 1));
        assert_eq!(d.origin_count(), 2);
        assert_eq!(d.seen_count(), 3);
        assert!(d.contains(eid(2, 1)));
        assert!(!d.contains(eid(3, 0)));
    }

    #[test]
    fn for_each_missing_finds_what_to_pull() {
        let mut mine = CompactDigest::new();
        mine.extend([eid(1, 0), eid(1, 1), eid(2, 5)]);
        let mut theirs = CompactDigest::new();
        theirs.extend([eid(1, 0), eid(1, 1), eid(1, 2), eid(2, 5), eid(3, 0)]);
        let mut pull = missing(&mine, &theirs);
        pull.sort();
        assert_eq!(pull, vec![eid(1, 2), eid(3, 0)]);
        // Symmetric direction: they lack nothing we have... except (2,0..5)?
        // We only saw (2,5) out of order; they saw the same. Nothing due.
        assert!(missing(&theirs, &mine).is_empty());
    }

    #[test]
    fn for_each_missing_handles_out_of_order_prefixes() {
        // We saw seq 1 out of order; their prefix covers 0..3. We must pull
        // 0 and 2, not 1.
        let mut mine = CompactDigest::new();
        mine.insert(eid(7, 1));
        let mut theirs = CompactDigest::new();
        theirs.extend([eid(7, 0), eid(7, 1), eid(7, 2)]);
        let mut pull = missing(&mine, &theirs);
        pull.sort();
        assert_eq!(pull, vec![eid(7, 0), eid(7, 2)]);
    }

    #[test]
    fn for_each_missing_stops_at_the_first_break() {
        // A watermark read off the wire: the walk must end with the caller.
        let mut theirs = CompactDigest::new();
        theirs.set_origin(pid(3), OriginDigest::from_parts(u64::MAX, []));
        let mine: CompactDigest = [eid(3, 1)].into_iter().collect();
        let mut pull = Vec::new();
        let flow = mine.for_each_missing(&theirs, |id| {
            pull.push(id);
            if pull.len() == 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(flow.is_break());
        assert_eq!(pull, vec![eid(3, 0), eid(3, 2), eid(3, 3), eid(3, 4)]);
    }

    #[test]
    fn from_iterator_equals_incremental() {
        let ids = [eid(1, 2), eid(1, 0), eid(1, 1), eid(4, 0)];
        let collected: CompactDigest = ids.into_iter().collect();
        let mut incremental = CompactDigest::new();
        for id in ids {
            incremental.insert(id);
        }
        assert_eq!(collected, incremental);
    }
}
