//! Chunked linear search for the protocol's small hot buffers, and a
//! may-contain filter that lets a caller skip the search altogether.
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
//! Both exist only for speed, so a change here must not move a single
//! committed number. Build the parent commit in a separate clone
//! (`git clone <repo> ../parent`, its own `CARGO_TARGET_DIR`), run the
//! same deterministic binaries on both trees and `cmp` the outputs: the
//! default `mass_scenarios` TSV, `scenario_suite` stdout at
//! `LPBCAST_SCENARIO_N=300 LPBCAST_SCENARIO_SEED=3`, and the four files
//! the CI-size `bench_sim` writes. In-tree, the golden tests and
//! `crates/core/tests/admission_differential.rs` pin the same property.

use crate::ProcessId;

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
