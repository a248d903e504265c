//! pbcast wire messages.

use std::sync::Arc;

use lpbcast_types::{Event, EventId, ProcessId};

/// One entry of a digest gossip: an advertised message id and the hop
/// count of the advertiser's copy (so a puller knows the remaining hop
/// budget of what it would receive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestEntry {
    /// The advertised message.
    pub id: EventId,
    /// Hops already consumed by the advertiser's copy.
    pub hops: u32,
}

/// A per-origin run of advertised sequence numbers: every seq in
/// `min_seq..=max_seq` except the listed `gaps` is advertised, and every
/// covered copy consumed exactly `hops` hops. The §3.2 compaction
/// applied to the pbcast digest — a publisher's stream of consecutive
/// sequence numbers costs one range instead of one [`DigestEntry`] per
/// message.
///
/// `hops` is exact (the digest builder groups per `(origin, hops)`
/// class): approximating it — e.g. carrying a class maximum — compounds
/// through absorption chains, since every absorbed id re-advertises at
/// `hops + 1`, and was measured to exhaust the limited-hops budget early
/// enough to cost tail reliability at n = 10⁴.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginRange {
    /// The publisher whose sequence numbers the range covers.
    pub origin: ProcessId,
    /// Smallest advertised sequence number.
    pub min_seq: u64,
    /// Largest advertised sequence number (inclusive).
    pub max_seq: u64,
    /// Sequence numbers inside `min_seq..=max_seq` that are *not*
    /// advertised, ascending.
    pub gaps: Vec<u64>,
    /// Hops consumed by every advertised copy in the range.
    pub hops: u32,
}

impl OriginRange {
    /// Maximal `max_seq - min_seq` of a well-formed range: the digest
    /// builder splits longer runs, and the wire codec refuses longer
    /// spans (which caps how many ids a hostile range can make a receiver
    /// iterate).
    pub const MAX_SPAN: u64 = u16::MAX as u64;

    /// Number of sequence numbers the range advertises.
    pub fn advertised(&self) -> u64 {
        (self.max_seq - self.min_seq + 1) - self.gaps.len() as u64
    }

    /// Iterates the advertised ids (gaps skipped).
    pub fn ids(&self) -> impl Iterator<Item = EventId> + '_ {
        let mut gap_at = 0usize;
        (self.min_seq..=self.max_seq).filter_map(move |seq| {
            while gap_at < self.gaps.len() && self.gaps[gap_at] < seq {
                gap_at += 1;
            }
            if gap_at < self.gaps.len() && self.gaps[gap_at] == seq {
                return None;
            }
            Some(EventId::new(self.origin, seq))
        })
    }
}

/// The advertised-id section of a [`GossipDigest`], in either of two
/// lossless representations (mirroring lpbcast's flat/`Compact` history
/// split).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigestEntries {
    /// One entry per advertised message (the historical form).
    Flat(Vec<DigestEntry>),
    /// Per-origin sequence ranges (§3.2-style compaction).
    Compact(Vec<OriginRange>),
}

impl DigestEntries {
    /// Fixed-width cost of one flat entry: origin + seq + hops at 8, 8
    /// and 4 bytes.
    pub const FLAT_ENTRY_BYTES: usize = 8 + 8 + 4;
    /// Fixed-width cost of one gap-free range: origin + min_seq + span +
    /// gap count + hops at 8, 8, 2, 2 and 4 bytes. Spans are bounded by
    /// the digest builder ([`OriginRange::MAX_SPAN`]).
    pub const RANGE_BYTES: usize = 8 + 8 + 2 + 2 + 4;
    /// Fixed-width cost of one listed gap (an offset from `min_seq`).
    pub const GAP_BYTES: usize = 2;

    /// An empty section in the `Flat` representation.
    pub fn empty() -> Self {
        DigestEntries::Flat(Vec::new())
    }

    /// Number of message ids advertised.
    pub fn advertised_count(&self) -> u64 {
        match self {
            DigestEntries::Flat(entries) => entries.len() as u64,
            DigestEntries::Compact(ranges) => ranges.iter().map(OriginRange::advertised).sum(),
        }
    }

    /// Whether nothing is advertised.
    pub fn is_empty(&self) -> bool {
        self.advertised_count() == 0
    }

    /// Cost of the section's element list (the count prefix excluded)
    /// with every integer at a fixed width, the frame-v1 layout. The
    /// digest builder keeps whichever form costs less by this measure. It
    /// is a pure function of the entries, so the choice, and with it what
    /// pbcast gossips, stays put when the codec changes how integers are
    /// written (frame v2 writes varints; `lpbcast-net` computes that
    /// length itself).
    pub fn fixed_width_cost(&self) -> usize {
        match self {
            DigestEntries::Flat(entries) => entries.len() * Self::FLAT_ENTRY_BYTES,
            DigestEntries::Compact(ranges) => ranges
                .iter()
                .map(|r| Self::RANGE_BYTES + r.gaps.len() * Self::GAP_BYTES)
                .sum(),
        }
    }
}

/// The body of a periodic anti-entropy digest gossip (phase 2),
/// optionally piggybacking membership subscriptions (§6.2 partial-view
/// layer). Built once per round and shared behind an [`Arc`] across all
/// `F` fanout copies.
#[derive(Debug, Clone)]
pub struct GossipDigest {
    /// The advertiser.
    pub sender: ProcessId,
    /// Advertised (recently received, still-repeating) messages.
    pub entries: DigestEntries,
    /// Piggybacked subscriptions (empty with total views).
    pub subs: Vec<ProcessId>,
}

impl GossipDigest {
    /// A digest advertising `entries` in the flat form.
    pub fn flat(sender: ProcessId, entries: Vec<DigestEntry>, subs: Vec<ProcessId>) -> Self {
        GossipDigest {
            sender,
            entries: DigestEntries::Flat(entries),
            subs,
        }
    }
}

/// Messages exchanged by pbcast processes.
///
/// Like the lpbcast [`Message`](../lpbcast_core/enum.Message.html), the
/// per-round digest body travels behind an [`Arc`]: fanout copies clone
/// the pointer, not the entry vectors.
#[derive(Debug, Clone)]
pub enum PbcastMessage {
    /// A message payload: the best-effort first phase, or a served
    /// solicitation. `hops` counts transfers so far.
    Multicast {
        /// The message.
        event: Event,
        /// Transfers consumed to reach the receiver.
        hops: u32,
    },
    /// Periodic anti-entropy digest; see [`GossipDigest`].
    GossipDigest(Arc<GossipDigest>),
    /// Solicitation of missing messages from a digest sender (gossip
    /// pull).
    Solicit {
        /// Ids requested.
        ids: Vec<EventId>,
    },
}

impl PbcastMessage {
    /// Wraps a digest body into a [`PbcastMessage::GossipDigest`],
    /// allocating its shared [`Arc`].
    pub fn digest(digest: GossipDigest) -> Self {
        PbcastMessage::GossipDigest(Arc::new(digest))
    }
}

/// Result of one pbcast step: the workspace-wide unified envelope
/// ([`lpbcast_types::Output`]) instantiated at [`PbcastMessage`].
/// `learned_ids` is populated only in the
/// [`deliver_on_digest`](crate::PbcastConfig::deliver_on_digest)
/// convention; `membership` reports §6.2 partial-view joins applied from
/// piggybacked subscriptions.
pub type PbcastOutput = lpbcast_types::Output<PbcastMessage>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_range_ids_skip_gaps() {
        let range = OriginRange {
            origin: ProcessId::new(7),
            min_seq: 3,
            max_seq: 8,
            gaps: vec![4, 6],
            hops: 2,
        };
        assert_eq!(range.advertised(), 4);
        let ids: Vec<u64> = range.ids().map(|id| id.seq()).collect();
        assert_eq!(ids, vec![3, 5, 7, 8]);
        assert!(range.ids().all(|id| id.origin() == ProcessId::new(7)));
    }

    #[test]
    fn digest_entries_count_both_forms() {
        let flat = DigestEntries::Flat(vec![
            DigestEntry {
                id: EventId::new(ProcessId::new(1), 0),
                hops: 0,
            },
            DigestEntry {
                id: EventId::new(ProcessId::new(1), 1),
                hops: 1,
            },
        ]);
        assert_eq!(flat.advertised_count(), 2);
        assert_eq!(flat.fixed_width_cost(), 2 * DigestEntries::FLAT_ENTRY_BYTES);
        let compact = DigestEntries::Compact(vec![OriginRange {
            origin: ProcessId::new(1),
            min_seq: 0,
            max_seq: 9,
            gaps: vec![5],
            hops: 1,
        }]);
        assert_eq!(compact.advertised_count(), 9);
        assert_eq!(
            compact.fixed_width_cost(),
            DigestEntries::RANGE_BYTES + DigestEntries::GAP_BYTES
        );
        assert!(DigestEntries::empty().is_empty());
        assert!(!compact.is_empty());
    }

    #[test]
    fn default_output_is_empty() {
        assert!(PbcastOutput::default().is_empty());
    }
}
