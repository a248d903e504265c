//! Unsubscriptions: timestamped leave records (§3.4).
//!
//! *"To avoid the situation where unsubscriptions remain in the system
//! forever (since unSubs is not purged), there is a timestamp attached to
//! every unsubscription. After a certain time, the unsubscription becomes
//! obsolete."*

use core::fmt;

use lpbcast_types::{varint, ProcessId, ProcessKeyed};

use crate::time::LogicalTime;

/// A record that `process` has left the system, stamped with the leaving
/// process's logical clock.
///
/// Identity (equality/hash) is by process only: a newer unsubscription for
/// the same process replaces rather than duplicates an older one in the
/// `unSubs` buffer.
#[derive(Debug, Clone, Copy)]
pub struct Unsubscription {
    process: ProcessId,
    issued_at: LogicalTime,
}

impl Unsubscription {
    /// Creates an unsubscription for `process` issued at `issued_at`.
    pub const fn new(process: ProcessId, issued_at: LogicalTime) -> Self {
        Unsubscription { process, issued_at }
    }

    /// The process that unsubscribed.
    pub const fn process(&self) -> ProcessId {
        self.process
    }

    /// When the unsubscription was issued (issuer's logical clock).
    pub const fn issued_at(&self) -> LogicalTime {
        self.issued_at
    }

    /// Whether this record is obsolete at local time `now` given the
    /// configured obsolescence window (in ticks). Obsolete records are
    /// neither applied nor forwarded.
    pub const fn is_obsolete(&self, now: LogicalTime, window: u64) -> bool {
        now.since(self.issued_at) > window
    }
}

impl PartialEq for Unsubscription {
    fn eq(&self, other: &Self) -> bool {
        self.process == other.process
    }
}

impl Eq for Unsubscription {}

impl core::hash::Hash for Unsubscription {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.process.hash(state);
    }
}

/// Records are equal exactly when their processes are, so an `unSubs`
/// buffer can index them by process.
impl ProcessKeyed for Unsubscription {
    fn process_key(&self) -> ProcessId {
        self.process
    }
}

impl fmt::Display for Unsubscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsub({} @ {})", self.process, self.issued_at)
    }
}

/// The `unSubs` gossip section: unsubscription records aggregated by
/// issue timestamp.
///
/// §3.4 documents that unsubscription sections grow with the leave rate:
/// every membership gossip carries the whole live `unSubs` buffer. Under
/// sustained churn the records cluster on a handful of recent logical
/// timestamps (every process that left in round *t* stamped its record
/// *t*), so grouping by timestamp stores each `issued_at` once and the
/// member list as bare process ids: one varint per record plus a varint
/// timestamp and a varint count per distinct timestamp, against two
/// varints per record for a flat list.
///
/// [`iter`](UnsubDigest::iter) yields the records in their **original
/// order** (the sender's `unSubs` buffer order), so in-memory delivery —
/// the simulator and every deterministic harness — applies them in the
/// order the paper's flat list would, down to the incidental order of
/// view removals that index-based random target selection is sensitive
/// to. Only the wire form is canonical: groups sorted by timestamp, ids
/// sorted and distinct within each group. The digest stores the records,
/// the wire's group count and the byte length of the groups, which are
/// all an encoded length needs. The records are sorted into wire order by
/// [`sorted_pairs`](UnsubDigest::sorted_pairs) only when a codec writes
/// bytes, so the simulator, which meters lengths and never encodes, never
/// sorts. Wire *decoding* yields records in group order; the record set,
/// obsolescence checks and purge outcomes do not depend on it.
#[derive(Debug, Clone, Default)]
pub struct UnsubDigest {
    /// The aggregated records, original order (the iteration source).
    records: Vec<Unsubscription>,
    /// Distinct timestamps among `records`: the wire's group count.
    groups: usize,
    /// Encoded bytes of the wire's groups: per group a varint timestamp
    /// and a varint leaver count, then one varint per distinct leaver.
    group_bytes: usize,
}

/// The distinct `(issued_at, process)` pairs of `records`, ascending.
fn sorted_pairs(records: &[Unsubscription]) -> Vec<(LogicalTime, ProcessId)> {
    let mut pairs: Vec<(LogicalTime, ProcessId)> = records
        .iter()
        .map(|u| (u.issued_at(), u.process()))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

impl UnsubDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregates `records`, preserving their order for iteration. Any
    /// list is accepted: repeated records and one process under several
    /// timestamps are counted the way the wire groups them.
    pub fn from_records<I>(records: I) -> Self
    where
        I: IntoIterator<Item = Unsubscription>,
    {
        let records: Vec<Unsubscription> = records.into_iter().collect();
        let (mut groups, mut group_bytes) = (0, 0);
        for group in sorted_pairs(&records).chunk_by(|a, b| a.0 == b.0) {
            groups += 1;
            group_bytes += varint::len(group[0].0.as_u64())
                + varint::len(group.len() as u64)
                + group
                    .iter()
                    .map(|(_, p)| varint::len(p.as_u64()))
                    .sum::<usize>();
        }
        UnsubDigest {
            records,
            groups,
            group_bytes,
        }
    }

    /// Aggregates the records of an `unSubs` buffer, which holds at most
    /// one record per process (records are equal by process), so every
    /// record is a distinct leaver and only the timestamps need grouping.
    /// Buffers hold a few distinct timestamps, and each record's first
    /// match turns up early in a scan of the records before it. A group's
    /// leaver count is a one-byte varint unless the buffer holds 128
    /// records or more; only then is each group's size counted, once, at
    /// its first record.
    pub(crate) fn from_buffer(records: Vec<Unsubscription>) -> Self {
        let (mut groups, mut group_bytes) = (0, 0);
        for (i, u) in records.iter().enumerate() {
            group_bytes += varint::len(u.process.as_u64());
            if records[..i].iter().any(|v| v.issued_at == u.issued_at) {
                continue;
            }
            let count_len = if records.len() < 128 {
                1
            } else {
                let leavers = records[i..]
                    .iter()
                    .filter(|v| v.issued_at == u.issued_at)
                    .count();
                varint::len(leavers as u64)
            };
            groups += 1;
            group_bytes += varint::len(u.issued_at.as_u64()) + count_len;
        }
        UnsubDigest {
            records,
            groups,
            group_bytes,
        }
    }

    /// The aggregated records in original (sender buffer) order — the
    /// slice [`iter`](UnsubDigest::iter) walks.
    pub fn records(&self) -> &[Unsubscription] {
        &self.records
    }

    /// The distinct `(issued_at, leaver)` pairs in wire order, ascending:
    /// each wire group is one run of equal timestamps. Built on each call,
    /// in one `Vec`.
    pub fn sorted_pairs(&self) -> Vec<(LogicalTime, ProcessId)> {
        sorted_pairs(&self.records)
    }

    /// Number of distinct timestamps on the wire.
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Encoded bytes of the wire groups (the group count before them
    /// excluded), so an encoded length needs no sort.
    pub fn groups_encoded_len(&self) -> usize {
        self.group_bytes
    }

    /// Total unsubscription records carried.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Whether the digest holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Yields every record in original (sender buffer) order.
    pub fn iter(&self) -> impl Iterator<Item = Unsubscription> + '_ {
        self.records.iter().copied()
    }
}

/// Equality is by the canonical wire form: two digests are equal when
/// they carry the same record set, regardless of iteration order.
impl PartialEq for UnsubDigest {
    fn eq(&self, other: &Self) -> bool {
        sorted_pairs(&self.records) == sorted_pairs(&other.records)
    }
}

impl Eq for UnsubDigest {}

/// Error returned when a process's own unsubscription is refused.
///
/// §3.4: *"the unsubscription of any process is refused as long as the
/// local unsubscription buffer of the process exceeds a given size. This
/// increases the probability for a process to be successfully removed from
/// the system."* (A full buffer would risk the process's own record being
/// truncated away before ever being gossiped.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsubscribeRefused {
    /// Current occupancy of the local `unSubs` buffer.
    pub buffered: usize,
    /// The configured refusal threshold that was exceeded.
    pub threshold: usize,
}

impl fmt::Display for UnsubscribeRefused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unsubscription refused: unSubs buffer holds {} entries (threshold {})",
            self.buffered, self.threshold
        )
    }
}

impl std::error::Error for UnsubscribeRefused {}

#[cfg(test)]
mod tests {
    use super::*;
    use lpbcast_types::FastSet;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    #[test]
    fn obsolescence_window() {
        let u = Unsubscription::new(pid(1), LogicalTime::new(10));
        assert!(!u.is_obsolete(LogicalTime::new(10), 5));
        assert!(!u.is_obsolete(LogicalTime::new(15), 5));
        assert!(u.is_obsolete(LogicalTime::new(16), 5));
        // Clock skew: issued "in the future" is never obsolete.
        assert!(!u.is_obsolete(LogicalTime::new(3), 5));
    }

    #[test]
    fn identity_is_by_process() {
        let a = Unsubscription::new(pid(1), LogicalTime::new(1));
        let b = Unsubscription::new(pid(1), LogicalTime::new(99));
        let c = Unsubscription::new(pid(2), LogicalTime::new(1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = FastSet::default();
        set.insert(a);
        assert!(!set.insert(b), "same process deduplicates");
        assert!(set.insert(c));
    }

    #[test]
    fn unsub_digest_is_canonical_and_lossless() {
        let records = [
            Unsubscription::new(pid(9), LogicalTime::new(3)),
            Unsubscription::new(pid(1), LogicalTime::new(7)),
            Unsubscription::new(pid(4), LogicalTime::new(3)),
            Unsubscription::new(pid(2), LogicalTime::new(7)),
        ];
        let digest = UnsubDigest::from_records(records);
        assert_eq!(digest.group_count(), 2, "two distinct timestamps");
        assert_eq!(digest.record_count(), 4);
        assert_eq!(
            digest.sorted_pairs()[..2],
            [(LogicalTime::new(3), pid(4)), (LogicalTime::new(3), pid(9))],
            "wire groups ascend by time, ids sorted within"
        );
        // Lossless AND order-preserving: iteration yields the records
        // exactly as given (the receive path applies them in buffer order).
        let out: Vec<Unsubscription> = digest.iter().collect();
        assert_eq!(out, records.to_vec());
        assert_eq!(
            out.iter().map(|u| u.issued_at()).collect::<Vec<_>>(),
            vec![
                LogicalTime::new(3),
                LogicalTime::new(7),
                LogicalTime::new(3),
                LogicalTime::new(7),
            ],
            "original interleaving preserved"
        );
        // Canonical wire form: any input order yields an equal digest.
        let mut reversed = records;
        reversed.reverse();
        assert_eq!(digest, UnsubDigest::from_records(reversed));
    }

    #[test]
    fn unsub_digest_counts_what_the_wire_groups() {
        // A repeated record and one process under two timestamps: three
        // records on the wire, in two groups.
        let at = |p, t| Unsubscription::new(pid(p), LogicalTime::new(t));
        let digest = UnsubDigest::from_records([at(3, 9), at(1, 9), at(3, 9), at(3, 2)]);
        assert_eq!(digest.record_count(), 4);
        // Groups {2: [3]} and {9: [1, 3]}: a timestamp, a count and the
        // ids, one byte each.
        assert_eq!((digest.group_count(), digest.groups_encoded_len()), (2, 7));
        assert_eq!(
            digest.sorted_pairs(),
            vec![
                (LogicalTime::new(2), pid(3)),
                (LogicalTime::new(9), pid(1)),
                (LogicalTime::new(9), pid(3)),
            ],
            "ascending, sorted and deduped within"
        );
        assert!(!digest.is_empty());
        assert!(UnsubDigest::new().is_empty());
        assert_eq!(
            (
                UnsubDigest::new().group_count(),
                UnsubDigest::new().groups_encoded_len()
            ),
            (0, 0)
        );
    }

    #[test]
    fn buffer_digest_counts_like_the_general_one() {
        // One record per process, as an `unSubs` buffer holds them.
        let records: Vec<Unsubscription> = [(7, 4), (2, 1), (9, 4), (4, 6), (1, 1), (8, 4)]
            .into_iter()
            .map(|(p, t)| Unsubscription::new(pid(p), LogicalTime::new(t)))
            .collect();
        let buffer = UnsubDigest::from_buffer(records.clone());
        let general = UnsubDigest::from_records(records.clone());
        assert_eq!((buffer.group_count(), buffer.groups_encoded_len()), (3, 12));
        assert_eq!(
            (general.group_count(), general.groups_encoded_len()),
            (3, 12)
        );
        assert_eq!(buffer.records(), &records[..], "buffer order kept");
        assert_eq!(buffer, general);
    }

    #[test]
    fn group_bytes_count_multi_byte_varints() {
        // 130 leavers at t = 300 (two-byte ids, timestamp and count),
        // interleaved with one at t = u64::MAX (a ten-byte timestamp).
        let mut records: Vec<Unsubscription> = (1000..1130)
            .map(|p| Unsubscription::new(pid(p), LogicalTime::new(300)))
            .collect();
        records.insert(64, Unsubscription::new(pid(5), LogicalTime::new(u64::MAX)));
        let expected = (2 + 2 + 130 * 2) + (10 + 1 + 1);
        let buffer = UnsubDigest::from_buffer(records.clone());
        let general = UnsubDigest::from_records(records);
        assert_eq!(
            (buffer.group_count(), buffer.groups_encoded_len()),
            (2, expected)
        );
        assert_eq!(
            (general.group_count(), general.groups_encoded_len()),
            (2, expected)
        );
    }

    #[test]
    fn refusal_error_is_descriptive() {
        let err = UnsubscribeRefused {
            buffered: 12,
            threshold: 8,
        };
        let text = err.to_string();
        assert!(text.contains("12") && text.contains('8'));
    }
}
