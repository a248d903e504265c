//! pbcast wire messages.

use std::sync::Arc;

use lpbcast_types::{Event, EventId, FastMap, ProcessId};

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

/// A run of consecutive advertised sequence numbers from one origin:
/// every seq in `min_seq..=max_seq` is advertised, and every covered copy
/// consumed exactly `hops` hops. The §3.2 compaction applied to the
/// pbcast digest — a publisher's stream of consecutive sequence numbers
/// costs one range instead of one [`DigestEntry`] per message.
///
/// `hops` is exact (the digest builder groups per `(origin, hops)`
/// class): approximating it — e.g. carrying a class maximum — compounds
/// through absorption chains, since every absorbed id re-advertises at
/// `hops + 1`, and was measured to exhaust the limited-hops budget early
/// enough to cost tail reliability at n = 10⁴.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OriginRange {
    /// The publisher whose sequence numbers the range covers.
    pub origin: ProcessId,
    /// Smallest advertised sequence number.
    pub min_seq: u64,
    /// Largest advertised sequence number (inclusive).
    pub max_seq: u64,
    /// Hops consumed by every advertised copy in the range.
    pub hops: u32,
}

impl OriginRange {
    /// Maximal `max_seq - min_seq` of a well-formed range: the digest
    /// builder splits longer runs, and the wire codec refuses longer
    /// spans (which caps how many ids a hostile range can make a receiver
    /// iterate).
    pub const MAX_SPAN: u64 = u16::MAX as u64;
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
    pub ranges: Vec<OriginRange>,
    /// Piggybacked subscriptions (empty with total views).
    pub subs: Vec<ProcessId>,
}

impl GossipDigest {
    /// A digest advertising `entries`, folded into ranges: each range is
    /// a maximal run of consecutive seqs within one `(origin, hops)`
    /// class, split where its span would pass [`OriginRange::MAX_SPAN`].
    /// Classes appear in first-advertisement order and ranges ascend
    /// within a class, so the result is a pure function of `entries`.
    ///
    /// Grouping is per `(origin, hops)` — NOT per origin alone — so every
    /// advertised id keeps its *exact* hop count (see [`OriginRange`]).
    /// The price is one range per distinct hop depth per origin, and
    /// since the wire writes a singleton range as compactly as a lone
    /// `(origin, seq, hops)` entry, folding never costs bytes.
    pub fn new(sender: ProcessId, entries: &[DigestEntry], subs: Vec<ProcessId>) -> Self {
        let mut index: FastMap<(ProcessId, u32), usize> = FastMap::default();
        let mut classes: Vec<((ProcessId, u32), Vec<u64>)> = Vec::new();
        for e in entries {
            let key = (e.id.origin(), e.hops);
            let slot = *index.entry(key).or_insert_with(|| {
                classes.push((key, Vec::new()));
                classes.len() - 1
            });
            classes[slot].1.push(e.id.seq());
        }
        let mut ranges = Vec::new();
        for ((origin, hops), mut seqs) in classes {
            seqs.sort_unstable();
            seqs.dedup();
            for run in seqs.chunk_by(|a, b| a + 1 == *b) {
                for chunk in run.chunks(OriginRange::MAX_SPAN as usize + 1) {
                    if let (Some(&min_seq), Some(&max_seq)) = (chunk.first(), chunk.last()) {
                        ranges.push(OriginRange {
                            origin,
                            min_seq,
                            max_seq,
                            hops,
                        });
                    }
                }
            }
        }
        GossipDigest {
            sender,
            ranges,
            subs,
        }
    }

    /// Iterates the advertised ids with their hop counts, range by range,
    /// each range's seqs ascending.
    pub fn entries(&self) -> impl Iterator<Item = DigestEntry> + '_ {
        self.ranges.iter().flat_map(|r| {
            (r.min_seq..=r.max_seq).map(|seq| DigestEntry {
                id: EventId::new(r.origin, seq),
                hops: r.hops,
            })
        })
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

    fn entry(origin: u64, seq: u64, hops: u32) -> DigestEntry {
        DigestEntry {
            id: EventId::new(ProcessId::new(origin), seq),
            hops,
        }
    }

    #[test]
    fn new_folds_consecutive_runs_per_origin_and_hops() {
        // Store order: origin 1's run interleaved with origin 2 and with
        // a second hop depth of origin 1; a hole at seq 5.
        let entries = [
            entry(1, 3, 0),
            entry(2, 0, 1),
            entry(1, 4, 0),
            entry(1, 9, 2),
            entry(1, 6, 0),
            entry(1, 7, 0),
        ];
        let digest = GossipDigest::new(ProcessId::new(0), &entries, vec![]);
        let ranges: Vec<(u64, u64, u64, u32)> = digest
            .ranges
            .iter()
            .map(|r| (r.origin.as_u64(), r.min_seq, r.max_seq, r.hops))
            .collect();
        assert_eq!(
            ranges,
            vec![(1, 3, 4, 0), (1, 6, 7, 0), (2, 0, 0, 1), (1, 9, 9, 2)],
            "classes in first-advertisement order, runs ascending within"
        );
        let advertised: Vec<DigestEntry> = digest.entries().collect();
        assert_eq!(advertised.len(), 6);
        assert!(advertised.iter().all(|e| entries.contains(e)));
    }

    #[test]
    fn new_splits_runs_longer_than_max_span() {
        let entries: Vec<DigestEntry> = (0..=OriginRange::MAX_SPAN + 1)
            .map(|seq| entry(1, seq, 0))
            .collect();
        let digest = GossipDigest::new(ProcessId::new(0), &entries, vec![]);
        let spans: Vec<(u64, u64)> = digest
            .ranges
            .iter()
            .map(|r| (r.min_seq, r.max_seq))
            .collect();
        assert_eq!(
            spans,
            vec![
                (0, OriginRange::MAX_SPAN),
                (OriginRange::MAX_SPAN + 1, OriginRange::MAX_SPAN + 1)
            ]
        );
    }

    #[test]
    fn default_output_is_empty() {
        assert!(PbcastOutput::default().is_empty());
    }
}
