//! Chunked linear search for the protocol's small hot buffers, a
//! may-contain filter that lets a caller skip the search altogether, and
//! an exact process-id set that replaces it where the probes are many.
//!
//! A plain `iter().position(..)` compiles to a branchy early-exit loop
//! that the vectorizer cannot touch; for the 15–120-entry id buffers the
//! protocol probes dozens of times per gossip, the branch per element
//! dominates. [`position_of`] instead folds equality over fixed-width
//! chunks (which LLVM turns into SIMD compares for word-sized keys) and
//! branches once per chunk.
//!
//! Most of those probes miss: a received gossip's `subs` are mostly
//! processes the receiver does not know yet. [`IdFilter`] answers such a
//! probe from one bit. Gossip reception builds one filter over `view` and
//! one over `subs` and scans only on a "maybe" (Figure 1(a) phases 1–2 in
//! `lpbcast_core`).
//!
//! [`IdSet`] is the exact counterpart: a set of process ids that holds
//! the dense ordinals the engine and the UDP cluster assign as one bit
//! each. Churn's membership probes run on it: SWIM's remembered-dead and
//! queued-subject sets and, through `BoundedSet`'s index, lpbcast's
//! `unSubs` buffer.
//!
//! All three exist only for speed, so a change here must not move a single
//! committed number. Build the parent commit in a separate clone
//! (`git clone <repo> ../parent`, its own `CARGO_TARGET_DIR`), run the
//! same deterministic binaries on both trees and `cmp` the outputs: the
//! default `mass_scenarios` TSV, `scenario_suite` stdout at
//! `LPBCAST_SCENARIO_N=300 LPBCAST_SCENARIO_SEED=3`, and the four files
//! the CI-size `bench_sim` writes. In-tree, the golden tests,
//! `crates/core/tests/admission_differential.rs` and
//! `crates/membership/tests/swim_differential.rs` pin the same property,
//! and `id_set_matches_a_fast_set` holds [`IdSet`] to a `FastSet`.

use crate::{FastSet, ProcessId};

const CHUNK: usize = 8;

/// Index of the first element equal to `needle`, scanning in chunks.
#[inline]
pub fn position_of<T: PartialEq>(items: &[T], needle: &T) -> Option<usize> {
    let mut base = 0;
    let mut chunks = items.chunks_exact(CHUNK);
    for chunk in &mut chunks {
        // Fixed-trip-count, branch-free fold: vectorizable.
        let mut any = false;
        for item in chunk {
            any |= item == needle;
        }
        if any {
            for (j, item) in chunk.iter().enumerate() {
                if item == needle {
                    return Some(base + j);
                }
            }
        }
        base += CHUNK;
    }
    chunks
        .remainder()
        .iter()
        .position(|item| item == needle)
        .map(|j| base + j)
}

/// Whether `needle` occurs in `items` (chunked scan).
#[inline]
pub fn contains<T: PartialEq>(items: &[T], needle: &T) -> bool {
    position_of(items, needle).is_some()
}

/// `u64` words in an [`IdFilter`]: 16 × 64 = 1 024 bits, 128 bytes.
const FILTER_WORDS: usize = 16;

/// log₂ of the filter's bit count: how many hash bits pick a slot.
const SLOT_BITS: u32 = (FILTER_WORDS * 64).trailing_zeros();

/// 2⁶⁴ / φ, odd: multiplying by it is a bijection on `u64` whose top bits
/// depend on every input bit.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed-size, stack-only may-contain filter over process ids: one bit
/// per id, picked by a fixed multiplicative hash of
/// [`ProcessId::as_u64`] (no std hasher, so no ambient entropy).
///
/// [`may_contain`](IdFilter::may_contain) never answers `false` for an
/// inserted id. It may answer `true` for an id that was never inserted:
/// with k ids inserted, about k / 1 024 of the absent ids read "maybe".
/// There is no removal, so a filter over a buffer stays exact in the only
/// direction that matters when entries leave the buffer: it can only cost
/// its caller a scan, never skip one that would have found the id.
///
/// # Example
///
/// ```
/// use lpbcast_types::{scan::IdFilter, ProcessId};
///
/// let view = [ProcessId::new(3), ProcessId::new(8)];
/// let mut filter = IdFilter::from_ids(&view);
/// assert!(filter.may_contain(ProcessId::new(3)));
/// filter.insert(ProcessId::new(11));
/// assert!(filter.may_contain(ProcessId::new(11)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdFilter {
    bits: [u64; FILTER_WORDS],
}

impl IdFilter {
    /// A filter holding every id in `ids`.
    pub fn from_ids<'a>(ids: impl IntoIterator<Item = &'a ProcessId>) -> Self {
        let mut filter = IdFilter::default();
        for &id in ids {
            filter.insert(id);
        }
        filter
    }

    /// Records `id`.
    #[inline]
    pub fn insert(&mut self, id: ProcessId) {
        let (word, bit) = Self::slot(id);
        self.bits[word] |= bit;
    }

    /// `false` only if `id` was never inserted.
    #[inline]
    pub fn may_contain(&self, id: ProcessId) -> bool {
        let (word, bit) = Self::slot(id);
        self.bits[word] & bit != 0
    }

    /// The word index and bit mask of `id`: the top [`SLOT_BITS`] bits of
    /// a Fibonacci hash, which spreads the dense ids the simulator and
    /// the UDP harness assign.
    #[inline]
    fn slot(id: ProcessId) -> (usize, u64) {
        let h = id.as_u64().wrapping_mul(FIBONACCI) >> (64 - SLOT_BITS);
        ((h >> 6) as usize, 1 << (h & 63))
    }
}

/// `u64` words an [`IdSet`] may keep in its dense form whatever it
/// holds: 64 words, ordinals 0..4 096, 512 bytes.
const DENSE_FLOOR_WORDS: u64 = 64;

/// `u64` words a dense [`IdSet`] may keep per id it holds, past the
/// floor: 16 bytes an id, about what a `FastSet` spends on one (a
/// 9-byte bucket, at 7/16 to 7/8 load).
const DENSE_WORDS_PER_ID: u64 = 2;

/// An exact set of process ids.
///
/// Ids whose ordinals ([`ProcessId::as_u64`]) sit close together, as the
/// simulator's and the UDP cluster's `0..n` do, are held as one bit each
/// in a bitmap indexed by the ordinal: a probe is one load and a mask.
/// The bitmap covers ordinals from 0 up to the highest one inserted, so
/// a few ids far apart (an operator's ids, ids near `u64::MAX`) would
/// make it huge. The set therefore keeps its bitmap only while it spans
/// at most 64 words, or two words per held id, and otherwise switches to
/// a [`FastSet`], for good: like `BoundedSet`'s hash index, the hashed
/// form stays through removals. Either way it answers the same, and its
/// heap stays within a constant factor of a `FastSet`'s.
///
/// # Example
///
/// ```
/// use lpbcast_types::{scan::IdSet, ProcessId};
///
/// let mut dead = IdSet::new();
/// assert!(dead.insert(ProcessId::new(3)));
/// assert!(!dead.insert(ProcessId::new(3)));
/// assert!(dead.insert(ProcessId::new(u64::MAX)));
/// assert!(dead.contains(ProcessId::new(u64::MAX)) && !dead.contains(ProcessId::new(4)));
/// assert!(dead.remove(ProcessId::new(3)));
/// assert_eq!(dead.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IdSet {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Bit `v % 64` of word `v / 64` is set iff ordinal `v` is held.
    Dense(Vec<u64>),
    /// Boxed, so the set is no larger inline than the `Vec`.
    Hashed(Box<FastSet<ProcessId>>),
}

impl Default for IdSet {
    fn default() -> Self {
        IdSet {
            repr: Repr::Dense(Vec::new()),
        }
    }
}

/// The word index and bit mask of ordinal `v` in a dense bitmap.
#[inline]
fn bit_of(v: u64) -> (u64, u64) {
    (v >> 6, 1 << (v & 63))
}

/// The bitmap word holding ordinal `v`, if the bitmap reaches it.
#[inline]
fn word_of(words: &[u64], v: u64) -> Option<&u64> {
    usize::try_from(v >> 6).ok().and_then(|w| words.get(w))
}

/// [`word_of`], mutably.
#[inline]
fn word_of_mut(words: &mut [u64], v: u64) -> Option<&mut u64> {
    usize::try_from(v >> 6).ok().and_then(|w| words.get_mut(w))
}

impl IdSet {
    /// An empty set. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `id` is held.
    #[inline]
    pub fn contains(&self, id: ProcessId) -> bool {
        match &self.repr {
            Repr::Dense(words) => {
                let v = id.as_u64();
                word_of(words, v).is_some_and(|w| w & bit_of(v).1 != 0)
            }
            Repr::Hashed(ids) => ids.contains(&id),
        }
    }

    /// Inserts `id`; returns `true` if it was absent.
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let words = match &mut self.repr {
            Repr::Dense(words) => words,
            Repr::Hashed(ids) => return ids.insert(id),
        };
        let v = id.as_u64();
        let (word, bit) = bit_of(v);
        if let Some(w) = word_of_mut(words, v) {
            let absent = *w & bit == 0;
            *w |= bit;
            return absent;
        }
        let held = words.iter().map(|w| w.count_ones() as usize).sum::<usize>() + 1;
        let budget = DENSE_FLOOR_WORDS.max(DENSE_WORDS_PER_ID.saturating_mul(held as u64));
        if word < budget {
            // Within the budget, so `word` fits a usize.
            let w = word as usize;
            words.resize(w + 1, 0);
            words[w] |= bit;
        } else {
            let mut ids = FastSet::with_capacity_and_hasher(held, Default::default());
            for (&word, w) in words.iter().zip(0u64..) {
                let ordinals = (0..64).filter(move |b| word >> b & 1 != 0);
                ids.extend(ordinals.map(|b| ProcessId::new(w << 6 | b)));
            }
            ids.insert(id);
            self.repr = Repr::Hashed(Box::new(ids));
        }
        true
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: ProcessId) -> bool {
        match &mut self.repr {
            Repr::Dense(words) => {
                let v = id.as_u64();
                let Some(w) = word_of_mut(words, v) else {
                    return false;
                };
                let bit = bit_of(v).1;
                let present = *w & bit != 0;
                *w &= !bit;
                present
            }
            Repr::Hashed(ids) => ids.remove(&id),
        }
    }

    /// Number of ids held. Counts the bitmap's bits in the dense form.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Dense(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
            Repr::Hashed(ids) => ids.len(),
        }
    }

    /// Whether no id is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the set is in its dense (bitmap) form.
    #[cfg(test)]
    fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// The bytes the set holds allocated.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(words) => words.capacity() * std::mem::size_of::<u64>(),
            Repr::Hashed(ids) => {
                std::mem::size_of::<FastSet<ProcessId>>() + tests::fast_set_bytes(ids.capacity())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_first_occurrence_everywhere() {
        for len in 0..40usize {
            let items: Vec<u64> = (0..len as u64).collect();
            for needle in 0..len as u64 {
                assert_eq!(
                    position_of(&items, &needle),
                    Some(needle as usize),
                    "len {len}"
                );
            }
            assert_eq!(position_of(&items, &(len as u64 + 7)), None);
        }
    }

    #[test]
    fn duplicate_returns_first() {
        let items = [5u64, 9, 5, 1, 9, 9];
        assert_eq!(position_of(&items, &9), Some(1));
        assert!(contains(&items, &1));
        assert!(!contains(&items, &2));
    }

    /// Ids `0..count` of hash slot `slot`, built through the inverse of
    /// the multiplier so that all of them share one bit.
    fn ids_in_slot(slot: u64, count: u64) -> Vec<ProcessId> {
        // Newton's iteration for the inverse mod 2⁶⁴ of an odd number
        // doubles the correct low bits each step: 5 steps cover 64.
        let mut inverse = FIBONACCI;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(FIBONACCI.wrapping_mul(inverse)));
        }
        assert_eq!(FIBONACCI.wrapping_mul(inverse), 1);
        (0..count)
            .map(|low| ProcessId::new(((slot << (64 - SLOT_BITS)) | low).wrapping_mul(inverse)))
            .collect()
    }

    proptest::proptest! {
        /// No false negatives, for arbitrary ids plus the extremes.
        #[test]
        fn filter_has_no_false_negatives(
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..200),
            more in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..20),
        ) {
            let mut ids: Vec<ProcessId> = raw.into_iter().map(ProcessId::new).collect();
            ids.extend([ProcessId::new(0), ProcessId::new(u64::MAX)]);
            let mut filter = IdFilter::from_ids(&ids);
            for &id in &ids {
                proptest::prop_assert!(filter.may_contain(id), "{id} lost");
            }
            for &raw in &more {
                filter.insert(ProcessId::new(raw));
            }
            for id in ids.iter().copied().chain(more.into_iter().map(ProcessId::new)) {
                proptest::prop_assert!(filter.may_contain(id), "{id} lost after inserts");
            }
        }
    }

    #[test]
    fn ids_forced_into_one_slot_are_all_kept() {
        for slot in [0, 1, 63, 64, 1023] {
            let ids = ids_in_slot(slot, 64);
            assert!(ids
                .iter()
                .all(|&id| IdFilter::slot(id) == IdFilter::slot(ids[0])));
            let filter = IdFilter::from_ids(&ids);
            assert!(ids.iter().all(|&id| filter.may_contain(id)), "slot {slot}");
            // One slot set: every id elsewhere reads absent.
            let elsewhere = ids_in_slot((slot + 1) % 1024, 64);
            assert!(
                elsewhere.iter().all(|&id| !filter.may_contain(id)),
                "slot {slot}"
            );
        }
    }

    /// A dense ordinal, or one on either side of a 64-bit word, of the
    /// 4 096-ordinal dense floor or of a later page.
    fn dense_ordinal() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::strategy::Strategy;
        const EDGES: [u64; 10] = [63, 64, 127, 128, 4_095, 4_096, 4_097, 8_191, 8_192, 8_193];
        proptest::prop_oneof![
            0u64..300,
            0u64..300,
            (0..EDGES.len()).prop_map(|i| EDGES[i])
        ]
    }

    /// An ordinal from anywhere: dense, spread over the `u64` range, or
    /// near `u64::MAX`.
    fn any_ordinal() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::strategy::Strategy;
        proptest::prop_oneof![
            dense_ordinal(),
            proptest::prelude::any::<u64>(),
            (0u64..16).prop_map(|d| u64::MAX - d),
        ]
    }

    /// The ids one case draws from: dense only, or mixed with sparse ones.
    fn id_pool() -> impl proptest::strategy::Strategy<Value = Vec<ProcessId>> {
        use proptest::collection::vec;
        use proptest::strategy::Strategy;
        proptest::prop_oneof![vec(dense_ordinal(), 1..400), vec(any_ordinal(), 1..400)]
            .prop_map(|raw| raw.into_iter().map(ProcessId::new).collect())
    }

    /// The bytes behind a `FastSet<ProcessId>` whose `capacity()` is
    /// `capacity`: its table reports 7/8 of a power-of-two bucket count
    /// (one less than it below 8 buckets), and each bucket holds an id and
    /// a control byte. A removal that leaves a tombstone lowers the
    /// reported capacity, so this may read low, never high.
    pub(super) fn fast_set_bytes(capacity: usize) -> usize {
        let buckets = match capacity {
            0 => 0,
            1..=7 => (capacity + 1).next_power_of_two(),
            _ => (capacity * 8 / 7).next_power_of_two(),
        };
        buckets * (std::mem::size_of::<ProcessId>() + 1)
    }

    /// The fewest bytes a `FastSet<ProcessId>` that once held `peak` ids
    /// has allocated: its table keeps a power-of-two count of buckets,
    /// at least 4 and at least 8/7 of the ids, an id and a control byte
    /// each, and removals never shrink it.
    fn fast_set_floor_bytes(peak: usize) -> usize {
        let buckets = match peak {
            0 => return 0,
            1..=3 => 4,
            4..=7 => 8,
            _ => (peak * 8 / 7).next_power_of_two(),
        };
        buckets * (std::mem::size_of::<ProcessId>() + 1)
    }

    proptest::proptest! {
        /// Random `insert` / `remove` / `contains` sequences answer as a
        /// `FastSet<ProcessId>` does, in both forms and across the switch
        /// from the bitmap to the hashed form, and the heap stays within
        /// a constant factor of the least a `FastSet` that held as many
        /// ids needs: four times it in the hashed form (read from its
        /// capacity), four times it plus twice the dense floor in the
        /// bitmap.
        #[test]
        fn id_set_matches_a_fast_set(
            pool in id_pool(),
            ops in proptest::collection::vec((0u8..10, 0usize..400), 0..2_000),
        ) {
            let mut set = IdSet::new();
            let mut model: FastSet<ProcessId> = FastSet::default();
            let mut peak = 0;
            let floor_bytes = 2 * DENSE_FLOOR_WORDS as usize * std::mem::size_of::<u64>();
            for (step, &(kind, pick)) in ops.iter().enumerate() {
                let id = pool[pick % pool.len()];
                match kind {
                    0..=4 => proptest::prop_assert_eq!(set.insert(id), model.insert(id), "insert {} at {}", id, step),
                    5..=7 => proptest::prop_assert_eq!(set.remove(id), model.remove(&id), "remove {} at {}", id, step),
                    _ => proptest::prop_assert_eq!(set.contains(id), model.contains(&id), "contains {} at {}", id, step),
                }
                proptest::prop_assert_eq!(set.len(), model.len(), "len at {}", step);
                proptest::prop_assert_eq!(set.is_empty(), model.is_empty());
                peak = peak.max(model.len());
                let (heap, reference) = (set.heap_bytes(), fast_set_floor_bytes(peak));
                if set.is_dense() {
                    proptest::prop_assert!(heap <= 4 * reference + floor_bytes, "bitmap {} B, FastSet {} B at {}", heap, reference, step);
                } else {
                    proptest::prop_assert!(heap <= 4 * reference, "hashed {} B, FastSet {} B at {}", heap, reference, step);
                }
            }
            for &id in &pool {
                proptest::prop_assert_eq!(set.contains(id), model.contains(&id), "final {}", id);
            }
        }
    }

    #[test]
    fn id_set_switches_form_by_itself() {
        let mut set = IdSet::new();
        set.extend_for_test(0..100);
        assert!(set.is_dense() && set.heap_bytes() <= 4 * std::mem::size_of::<u64>());
        // One id near the top of the range: hashed, holding all 101.
        assert!(set.insert(ProcessId::new(u64::MAX)));
        assert!(!set.is_dense());
        assert_eq!(set.len(), 101);
        // Hashed for good: removing the far id does not switch back.
        assert!(set.remove(ProcessId::new(u64::MAX)));
        assert!(!set.is_dense() && set.len() == 100);
        assert!((0..100).all(|v| set.contains(ProcessId::new(v))));
        // Past the floor, the bitmap spans up to two words per id.
        let mut wide = IdSet::new();
        wide.extend_for_test(0..200);
        wide.extend_for_test([25_000]);
        assert!(wide.is_dense(), "391 words for 201 ids");
        wide.extend_for_test([30_000]);
        assert!(!wide.is_dense(), "469 words for 202 ids");
        assert!(wide.contains(ProcessId::new(25_000)) && !wide.contains(ProcessId::new(200)));
        assert_eq!(wide.len(), 202);
    }

    /// The set replaces `FastSet<ProcessId>` fields and `BoundedSet`'s
    /// optional `FastMap` index in per-node state, so it must not be
    /// larger inline than either.
    #[test]
    fn id_set_is_no_larger_inline_than_what_it_replaces() {
        use std::mem::size_of;
        assert!(size_of::<IdSet>() <= size_of::<FastSet<ProcessId>>());
        assert!(
            size_of::<Option<IdSet>>() <= size_of::<Option<crate::FastMap<ProcessId, usize>>>()
        );
    }

    impl IdSet {
        fn extend_for_test(&mut self, ordinals: impl IntoIterator<Item = u64>) {
            for v in ordinals {
                self.insert(ProcessId::new(v));
            }
        }
    }

    #[test]
    fn dense_ids_mostly_read_absent() {
        // A paper-sized view (l = 29) of dense simulator ids: the filter
        // must actually spare scans for the ids it never saw.
        let view: Vec<ProcessId> = (0..29).map(ProcessId::new).collect();
        let filter = IdFilter::from_ids(&view);
        let maybe = (1_000..11_000)
            .filter(|&raw| filter.may_contain(ProcessId::new(raw)))
            .count();
        assert!(maybe < 500, "{maybe} of 10 000 absent ids read maybe");
    }
}
