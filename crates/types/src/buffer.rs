//! Bounded, no-duplicate buffers with the paper's two eviction rules.
//!
//! §3.2: *"none of the outlined data structures contains duplicates. That
//! is, trying to add an already contained element to a list leaves the list
//! unchanged. Furthermore, every list has a maximum size, noted |L|m"*.
//!
//! Two eviction disciplines appear in Figure 1(a):
//!
//! * **random removal** (`view`, `subs`, `unSubs`, `events`):
//!   `while |L| > |L|m do remove random element from L` — [`BoundedSet`];
//! * **oldest-first removal** (`eventIds`):
//!   `while |eventIds| > |eventIds|m do remove oldest element` —
//!   [`OldestFirstBuffer`].

use std::collections::VecDeque;
use std::hash::Hash;

use rand::seq::SliceRandom;

use crate::hashing::{FastMap, FastSet};
use rand::Rng;

/// A no-duplicate collection with a maximum size and *random* truncation.
///
/// Backs the paper's `view`, `subs`, `unSubs` and `events` lists. Insertion
/// of an already-present element leaves the buffer unchanged and reports
/// `false`. Exceeding the maximum size is allowed *transiently*: the
/// protocol inserts a batch and then calls [`truncate_random`], mirroring
/// the `while |L| > |L|m` loops of Figure 1(a). Truncation returns the
/// evicted elements because phase 2 of gossip reception recycles entries
/// evicted from `view` into `subs`.
///
/// Membership tests and removals are O(1) amortized: a buffer holding at
/// most `LINEAR_SCAN_MAX` (128) elements (the common case — every buffer in
/// the paper's measured configuration holds at most ~120) uses
/// branch-friendly linear scans over a dense `Vec`, which beat a hash probe
/// at that size. The first insertion past 128 builds a hash index from the
/// stored elements; removals keep it, so a buffer that hovers near 128 does
/// not rebuild it again and again, and [`drain`] and [`clear`] drop it. What
/// decides is the number of elements held, not the configured bound: an
/// `events` buffer bounded at 170 but drained every period with ~40 in it
/// never builds one. The index only accelerates lookups; element order,
/// return values and random draws are the same with or without it.
///
/// Iteration order is unspecified.
///
/// [`truncate_random`]: BoundedSet::truncate_random
/// [`drain`]: BoundedSet::drain
/// [`clear`]: BoundedSet::clear
///
/// # Example
///
/// ```
/// use lpbcast_types::BoundedSet;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let mut set = BoundedSet::new(3);
/// for x in 0..5 {
///     set.insert(x);
/// }
/// assert_eq!(set.len(), 5); // transiently over the limit
/// let evicted = set.truncate_random(&mut rng);
/// assert_eq!(set.len(), 3);
/// assert_eq!(evicted.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedSet<T> {
    items: Vec<T>,
    /// Position of each element in `items`: built by the insertion that
    /// takes `items` past [`LINEAR_SCAN_MAX`], kept through removals,
    /// dropped by [`drain`](Self::drain) and [`clear`](Self::clear).
    index: Option<FastMap<T, usize>>,
    max_len: usize,
}

/// Most elements a [`BoundedSet`] without a hash index holds: the
/// insertion that takes it past this many builds the index.
pub const LINEAR_SCAN_MAX: usize = 128;

impl<T: Clone + Eq + Hash> BoundedSet<T> {
    /// Creates an empty buffer with maximum size `max_len` (the paper's
    /// |L|m). Allocates nothing.
    pub fn new(max_len: usize) -> Self {
        BoundedSet {
            items: Vec::new(),
            index: None,
            max_len,
        }
    }

    /// The configured maximum size |L|m.
    pub const fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the buffer currently exceeds its maximum size (possible
    /// between a batch of insertions and the truncation step).
    pub fn is_over_capacity(&self) -> bool {
        self.items.len() > self.max_len
    }

    /// Whether `item` is present.
    pub fn contains(&self, item: &T) -> bool {
        match &self.index {
            Some(index) => index.contains_key(item),
            None => crate::scan::contains(&self.items, item),
        }
    }

    /// Inserts `item`; returns `true` if it was absent. An already
    /// contained element leaves the buffer unchanged (§3.2).
    pub fn insert(&mut self, item: T) -> bool {
        if self.contains(&item) {
            return false;
        }
        self.push_absent(item);
        true
    }

    /// Appends `item` without the membership test [`insert`] makes. The
    /// caller must already know that `item` is absent, for instance from
    /// a [`scan::IdFilter`](crate::scan::IdFilter) "absent" answer.
    /// Appending a present element would break the no-duplicate rule;
    /// debug builds assert against it.
    ///
    /// [`insert`]: BoundedSet::insert
    pub fn push_absent(&mut self, item: T) {
        debug_assert!(!self.contains(&item), "push_absent of a present element");
        let pos = self.items.len();
        match &mut self.index {
            Some(index) => {
                index.insert(item.clone(), pos);
            }
            None if pos >= LINEAR_SCAN_MAX => {
                let index = self
                    .index
                    .insert(self.items.iter().cloned().zip(0..).collect());
                index.insert(item.clone(), pos);
            }
            None => {}
        }
        self.items.push(item);
    }

    /// Removes the element at `pos` by swap-remove, keeping the index (if
    /// any) consistent.
    fn remove_at(&mut self, pos: usize) -> T {
        let item = self.items.swap_remove(pos);
        if let Some(index) = &mut self.index {
            index.remove(&item);
            if pos < self.items.len() {
                // Fix up the index of the element swapped into `pos`.
                index.insert(self.items[pos].clone(), pos);
            }
        }
        item
    }

    /// Removes `item`; returns `true` if it was present.
    pub fn remove(&mut self, item: &T) -> bool {
        let pos = match &self.index {
            Some(index) => index.get(item).copied(),
            None => crate::scan::position_of(&self.items, item),
        };
        let Some(pos) = pos else {
            return false;
        };
        self.remove_at(pos);
        true
    }

    /// Removes and returns one uniformly random element, or `None` if
    /// empty.
    pub fn remove_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        let pos = rng.gen_range(0..self.items.len());
        Some(self.remove_at(pos))
    }

    /// Removes uniformly random elements until the buffer respects its
    /// maximum size; returns the evicted elements.
    ///
    /// Implements `while |L| > |L|m do remove random element from L`
    /// (Figure 1(a)).
    pub fn truncate_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<T> {
        let mut evicted = Vec::new();
        while self.items.len() > self.max_len {
            if let Some(item) = self.remove_random(rng) {
                evicted.push(item);
            }
        }
        evicted
    }

    /// Like [`truncate_random`](BoundedSet::truncate_random), but drops
    /// the evicted elements and returns only how many there were — the
    /// hot-path variant for callers that only record statistics.
    pub fn truncate_random_count<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let mut evicted = 0;
        while self.items.len() > self.max_len {
            self.remove_random(rng);
            evicted += 1;
        }
        evicted
    }

    /// Returns a reference to one uniformly random element, or `None` if
    /// empty.
    pub fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        self.items.choose(rng)
    }

    /// Returns up to `k` distinct elements chosen uniformly at random
    /// (fewer if the buffer holds fewer than `k`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<T> {
        self.items
            .choose_multiple(rng, k.min(self.items.len()))
            .cloned()
            .collect()
    }

    /// Iterates over the stored elements in unspecified order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Removes and returns all elements, and drops the hash index.
    pub fn drain(&mut self) -> Vec<T> {
        self.index = None;
        std::mem::take(&mut self.items)
    }

    /// Removes all elements, and drops the hash index.
    pub fn clear(&mut self) {
        self.index = None;
        self.items.clear();
    }

    /// A snapshot of the contents as a vector (unspecified order).
    pub fn to_vec(&self) -> Vec<T> {
        self.items.clone()
    }

    /// Retains only elements for which the predicate holds, calling it
    /// once per element.
    ///
    /// The survivors end up in the order that removing each rejected
    /// element by swap-remove, in storage order, leaves. That order falls
    /// out of one pass over positions. An element at or above the scan
    /// position has not moved yet, so a rejected one is swap-removed where
    /// it stands, and the tail it pulls in is judged as it moves. A
    /// rejected tail waits in the slot it was pulled into, behind every
    /// element below it in storage order, and those slots are emptied
    /// last, highest first: a swap-remove there pulls in only a tail that
    /// was already judged.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut waiting = Vec::new();
        let mut pos = 0;
        while pos < self.items.len() {
            if !keep(&self.items[pos]) {
                let last = self.items.len() - 1;
                if pos < last && !keep(&self.items[last]) {
                    waiting.push(pos);
                }
                self.remove_at(pos);
            }
            pos += 1;
        }
        for &pos in waiting.iter().rev() {
            self.remove_at(pos);
        }
    }
}

impl<'a, T> IntoIterator for &'a BoundedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T: Clone + Eq + Hash> Extend<T> for BoundedSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.insert(item);
        }
    }
}

/// A no-duplicate FIFO buffer with a maximum size and *oldest-first*
/// truncation.
///
/// Backs the paper's `eventIds` history: `while |eventIds| > |eventIds|m do
/// remove oldest element from eventIds` (Figure 1(a), phase 3). Re-inserting
/// an element that is already present leaves the buffer unchanged — it does
/// **not** refresh the element's age (§3.2: adding a contained element
/// leaves the list unchanged).
///
/// # Example
///
/// ```
/// use lpbcast_types::OldestFirstBuffer;
///
/// let mut ids = OldestFirstBuffer::new(2);
/// ids.insert(1);
/// ids.insert(2);
/// ids.insert(3);
/// let purged = ids.truncate_oldest();
/// assert_eq!(purged, vec![1]); // 1 was oldest
/// assert!(ids.contains(&2) && ids.contains(&3));
/// ```
#[derive(Debug, Clone)]
pub struct OldestFirstBuffer<T> {
    queue: VecDeque<T>,
    present: FastSet<T>,
    max_len: usize,
}

impl<T: Clone + Eq + Hash> OldestFirstBuffer<T> {
    /// Creates an empty buffer with maximum size `max_len`.
    pub fn new(max_len: usize) -> Self {
        OldestFirstBuffer {
            queue: VecDeque::new(),
            present: FastSet::default(),
            max_len,
        }
    }

    /// The configured maximum size |L|m.
    pub const fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether `item` is present.
    pub fn contains(&self, item: &T) -> bool {
        self.present.contains(item)
    }

    /// Inserts `item` as the newest element; returns `true` if it was
    /// absent. Does not refresh the age of an already-present element.
    pub fn insert(&mut self, item: T) -> bool {
        if !self.present.insert(item.clone()) {
            return false;
        }
        self.queue.push_back(item);
        true
    }

    /// Removes oldest elements until the buffer respects its maximum size;
    /// returns the purged elements, oldest first.
    pub fn truncate_oldest(&mut self) -> Vec<T> {
        let mut purged = Vec::new();
        while self.queue.len() > self.max_len {
            if let Some(item) = self.queue.pop_front() {
                self.present.remove(&item);
                purged.push(item);
            }
        }
        purged
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.queue.iter()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.present.clear();
    }

    /// A snapshot of the contents, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.queue.iter().cloned().collect()
    }
}

impl<'a, T> IntoIterator for &'a OldestFirstBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.queue.iter()
    }
}

impl<T: Clone + Eq + Hash> Extend<T> for OldestFirstBuffer<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.insert(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xB0BA)
    }

    #[test]
    fn bounded_set_rejects_duplicates() {
        let mut s = BoundedSet::new(10);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bounded_set_push_absent_appends_and_indexes() {
        // Scanning and indexed: the hash index must learn the appended
        // element too.
        for held in [0, LINEAR_SCAN_MAX] {
            let mut s = BoundedSet::new(4);
            s.extend(100..100 + held as u32);
            s.insert(1);
            s.push_absent(2);
            s.push_absent(3);
            assert_eq!(s.index.is_some(), held > 0, "held {held}");
            assert_eq!(s.to_vec()[held..], [1, 2, 3], "held {held}");
            assert!(!s.insert(2));
            assert!(s.remove(&3) && s.contains(&2) && !s.contains(&3));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "push_absent of a present element")]
    fn bounded_set_push_absent_rejects_present_in_debug() {
        let mut s = BoundedSet::new(4);
        s.insert(1);
        s.push_absent(1);
    }

    #[test]
    fn bounded_set_remove_fixes_index() {
        let mut s = BoundedSet::new(10);
        for x in 0..6 {
            s.insert(x);
        }
        assert!(s.remove(&2));
        assert!(!s.remove(&2));
        // After swap_remove, every remaining element must still be findable.
        for x in [0, 1, 3, 4, 5] {
            assert!(s.contains(&x), "lost element {x}");
            assert!(s.remove(&x));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn bounded_set_truncation_returns_evicted() {
        let mut r = rng();
        let mut s = BoundedSet::new(4);
        for x in 0..10 {
            s.insert(x);
        }
        assert!(s.is_over_capacity());
        let evicted = s.truncate_random(&mut r);
        assert_eq!(s.len(), 4);
        assert_eq!(evicted.len(), 6);
        // Evicted ∪ kept == original, disjoint.
        let kept: BTreeSet<i32> = s.iter().copied().collect();
        let gone: BTreeSet<i32> = evicted.iter().copied().collect();
        assert!(kept.is_disjoint(&gone));
        assert_eq!(kept.len() + gone.len(), 10);
    }

    #[test]
    fn bounded_set_truncation_is_random_not_fifo() {
        // Over many trials, the element evicted from a 2-of-1 overflow
        // should sometimes be the first inserted and sometimes the second.
        let mut first_evicted = 0;
        let mut second_evicted = 0;
        for seed in 0..200 {
            let mut r = SmallRng::seed_from_u64(seed);
            let mut s = BoundedSet::new(1);
            s.insert("a");
            s.insert("b");
            let evicted = s.truncate_random(&mut r);
            match evicted[0] {
                "a" => first_evicted += 1,
                _ => second_evicted += 1,
            }
        }
        assert!(first_evicted > 50, "eviction biased: a={first_evicted}");
        assert!(second_evicted > 50, "eviction biased: b={second_evicted}");
    }

    #[test]
    fn bounded_set_sample_returns_distinct() {
        let mut r = rng();
        let mut s = BoundedSet::new(100);
        for x in 0..20 {
            s.insert(x);
        }
        let picked = s.sample(&mut r, 7);
        assert_eq!(picked.len(), 7);
        let uniq: BTreeSet<i32> = picked.iter().copied().collect();
        assert_eq!(uniq.len(), 7);
        // Sampling more than available returns everything.
        assert_eq!(s.sample(&mut r, 50).len(), 20);
    }

    #[test]
    fn bounded_set_drain_and_clear() {
        let mut s = BoundedSet::new(10);
        s.extend([1, 2, 3]);
        let all = s.drain();
        assert_eq!(all.len(), 3);
        assert!(s.is_empty());
        s.extend([4, 5]);
        s.clear();
        assert!(s.is_empty() && !s.contains(&4));
    }

    #[test]
    fn bounded_set_retain() {
        let mut s = BoundedSet::new(10);
        s.extend(0..10);
        s.retain(|x| x % 2 == 0);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|x| x % 2 == 0));
        assert!(s.contains(&8) && !s.contains(&9));
    }

    /// `retain` as a sequence of removals: collect the rejected elements in
    /// storage order, then remove each by value.
    fn retain_by_removal(s: &mut BoundedSet<u32>, keep: impl Fn(&u32) -> bool) {
        let removed: Vec<u32> = s.items.iter().filter(|x| !keep(x)).copied().collect();
        for x in &removed {
            assert!(s.remove(x));
        }
    }

    /// The hash index, where there is one, maps exactly the stored items
    /// to their positions.
    fn assert_index_consistent(s: &BoundedSet<u32>) {
        if let Some(index) = &s.index {
            assert_eq!(index.len(), s.items.len());
            for (pos, x) in s.items.iter().enumerate() {
                assert_eq!(index.get(x), Some(&pos), "index of {x}");
            }
        }
    }

    proptest::proptest! {
        /// The one-pass `retain` leaves the order the removals leave, on
        /// the scanning and on the indexed layout (up to 300 elements: the
        /// index exists once more than 128 were held), whatever share of
        /// the elements it rejects.
        #[test]
        fn retain_matches_removing_each_rejected_element(
            max_len in 1usize..400,
            values in proptest::collection::vec(0u32..400, 0..300),
            removals in proptest::collection::vec(0u32..400, 0..20),
            marks in proptest::collection::vec(0u8..4, 400),
            threshold in 0u8..=4,
        ) {
            let mut s = BoundedSet::new(max_len);
            s.extend(values);
            for x in &removals {
                s.remove(x);
            }
            let keep = |x: &u32| marks[*x as usize] >= threshold;
            let mut model = s.clone();
            retain_by_removal(&mut model, keep);
            let (before, mut calls) = (s.len(), 0);
            s.retain(|x| {
                calls += 1;
                keep(x)
            });
            proptest::prop_assert_eq!(calls, before, "one call per element");
            proptest::prop_assert_eq!(&s.items, &model.items);
            assert_index_consistent(&s);
        }
    }

    /// One call on a [`BoundedSet`] in [`index_matches_the_scan_only_model`].
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        /// `push_absent` when the model says absent, nothing otherwise.
        PushAbsent(u32),
        Contains(u32),
        Remove(u32),
        RemoveRandom,
        TruncateRandom,
        TruncateRandomCount,
        /// `retain` of the elements `x` with `(x ^ salt) % 3 != 0`.
        Retain(u32),
        Drain,
        Clear,
    }

    /// What one [`Op`] returned, in one type for both sides.
    #[derive(Debug, PartialEq)]
    enum Returned {
        Nothing,
        Flag(bool),
        Maybe(Option<u32>),
        Evicted(Vec<u32>),
        Count(usize),
    }

    /// Mostly insertions, so that a sequence climbs past 128 between the
    /// removals, truncations, drains and clears that bring it back.
    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::strategy::Strategy;
        (0u16..1_000, 0u32..400).prop_map(|(kind, x)| match kind {
            0..=499 => Op::Insert(x),
            500..=749 => Op::PushAbsent(x),
            750..=819 => Op::Contains(x),
            820..=889 => Op::Remove(x),
            890..=979 => Op::RemoveRandom,
            980..=984 => Op::TruncateRandom,
            985..=989 => Op::TruncateRandomCount,
            990..=995 => Op::Retain(x),
            996..=997 => Op::Drain,
            _ => Op::Clear,
        })
    }

    /// The scan-only model: a `Vec` under the paper's rules, swap-remove
    /// as the one way out, and no index.
    struct ScanModel {
        items: Vec<u32>,
        max_len: usize,
        /// Whether more than [`LINEAR_SCAN_MAX`] elements were held since
        /// the last `drain` or `clear`: when the real set has an index.
        indexed: bool,
    }

    impl ScanModel {
        fn push(&mut self, x: u32) {
            self.items.push(x);
            self.indexed |= self.items.len() > LINEAR_SCAN_MAX;
        }

        fn remove_at(&mut self, pos: usize) -> u32 {
            self.items.swap_remove(pos)
        }

        fn remove_random(&mut self, rng: &mut SmallRng) -> Option<u32> {
            if self.items.is_empty() {
                return None;
            }
            let pos = rng.gen_range(0..self.items.len());
            Some(self.remove_at(pos))
        }

        fn apply(&mut self, op: &Op, rng: &mut SmallRng) -> Returned {
            let pos = |items: &[u32], x: u32| items.iter().position(|&y| y == x);
            match *op {
                Op::Insert(x) => {
                    let absent = pos(&self.items, x).is_none();
                    if absent {
                        self.push(x);
                    }
                    Returned::Flag(absent)
                }
                Op::PushAbsent(x) => {
                    if pos(&self.items, x).is_none() {
                        self.push(x);
                    }
                    Returned::Nothing
                }
                Op::Contains(x) => Returned::Flag(pos(&self.items, x).is_some()),
                Op::Remove(x) => {
                    let at = pos(&self.items, x);
                    at.map(|at| self.remove_at(at));
                    Returned::Flag(at.is_some())
                }
                Op::RemoveRandom => Returned::Maybe(self.remove_random(rng)),
                Op::TruncateRandom | Op::TruncateRandomCount => {
                    let mut evicted = Vec::new();
                    while self.items.len() > self.max_len {
                        evicted.extend(self.remove_random(rng));
                    }
                    match op {
                        Op::TruncateRandom => Returned::Evicted(evicted),
                        _ => Returned::Count(evicted.len()),
                    }
                }
                Op::Retain(salt) => {
                    let rejected: Vec<u32> = self
                        .items
                        .iter()
                        .copied()
                        .filter(|x| (x ^ salt) % 3 == 0)
                        .collect();
                    for x in rejected {
                        let at = pos(&self.items, x).expect("present");
                        self.remove_at(at);
                    }
                    Returned::Nothing
                }
                Op::Drain => {
                    self.indexed = false;
                    Returned::Evicted(std::mem::take(&mut self.items))
                }
                Op::Clear => {
                    self.indexed = false;
                    self.items.clear();
                    Returned::Nothing
                }
            }
        }
    }

    fn apply(s: &mut BoundedSet<u32>, model: &ScanModel, op: &Op, rng: &mut SmallRng) -> Returned {
        match *op {
            Op::Insert(x) => Returned::Flag(s.insert(x)),
            Op::PushAbsent(x) => {
                if !model.items.contains(&x) {
                    s.push_absent(x);
                }
                Returned::Nothing
            }
            Op::Contains(x) => Returned::Flag(s.contains(&x)),
            Op::Remove(x) => Returned::Flag(s.remove(&x)),
            Op::RemoveRandom => Returned::Maybe(s.remove_random(rng)),
            Op::TruncateRandom => Returned::Evicted(s.truncate_random(rng)),
            Op::TruncateRandomCount => Returned::Count(s.truncate_random_count(rng)),
            Op::Retain(salt) => {
                s.retain(|x| (x ^ salt) % 3 != 0);
                Returned::Nothing
            }
            Op::Drain => Returned::Evicted(s.drain()),
            Op::Clear => {
                s.clear();
                Returned::Nothing
            }
        }
    }

    proptest::proptest! {
        /// The index is a pure accelerator: driven through any sequence of
        /// calls whose length crosses 128 both ways, the set returns what a
        /// scan-only `Vec` model returns, draws the same random numbers,
        /// keeps the same order, and holds an index exactly when more than
        /// 128 elements were held since the last `drain` or `clear`.
        #[test]
        fn index_matches_the_scan_only_model(
            max_len in proptest::prop_oneof![
                0..=LINEAR_SCAN_MAX,
                LINEAR_SCAN_MAX - 16..=LINEAR_SCAN_MAX + 16,
                LINEAR_SCAN_MAX + 1..300,
            ],
            ops in proptest::collection::vec(op(), 0..1_500),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut s = BoundedSet::new(max_len);
            let mut model = ScanModel { items: Vec::new(), max_len, indexed: false };
            let (mut rng, mut model_rng) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            for (step, op) in ops.iter().enumerate() {
                let returned = apply(&mut s, &model, op, &mut rng);
                let expected = model.apply(op, &mut model_rng);
                proptest::prop_assert_eq!(returned, expected, "step {} {:?}", step, op);
                proptest::prop_assert_eq!(&s.items, &model.items, "step {} {:?}", step, op);
                proptest::prop_assert_eq!(s.index.is_some(), model.indexed, "step {}", step);
                assert_index_consistent(&s);
            }
            proptest::prop_assert_eq!(rng.gen::<u64>(), model_rng.gen::<u64>(), "same draws");
        }
    }

    #[test]
    fn bounded_set_zero_capacity_evicts_everything() {
        let mut r = rng();
        let mut s = BoundedSet::new(0);
        s.insert(1);
        let evicted = s.truncate_random(&mut r);
        assert_eq!(evicted, vec![1]);
        assert!(s.is_empty());
    }

    #[test]
    fn bounded_set_remove_random_empties() {
        let mut r = rng();
        let mut s = BoundedSet::new(5);
        s.extend([1, 2, 3]);
        let mut out = Vec::new();
        while let Some(x) = s.remove_random(&mut r) {
            out.push(x);
        }
        assert_eq!(out.len(), 3);
        assert!(s.remove_random(&mut r).is_none());
    }

    #[test]
    fn oldest_first_rejects_duplicates_without_refresh() {
        let mut b = OldestFirstBuffer::new(2);
        assert!(b.insert(1));
        assert!(b.insert(2));
        // Re-inserting 1 must NOT refresh its age.
        assert!(!b.insert(1));
        b.insert(3);
        let purged = b.truncate_oldest();
        assert_eq!(purged, vec![1], "1 must still be the oldest");
    }

    #[test]
    fn oldest_first_purges_in_insertion_order() {
        let mut b = OldestFirstBuffer::new(3);
        for x in 0..8 {
            b.insert(x);
        }
        let purged = b.truncate_oldest();
        assert_eq!(purged, vec![0, 1, 2, 3, 4]);
        assert_eq!(b.to_vec(), vec![5, 6, 7]);
    }

    #[test]
    fn oldest_first_purged_elements_can_reenter() {
        // This is the mechanism behind Figure 6(b): purged ids are treated
        // as unseen again.
        let mut b = OldestFirstBuffer::new(1);
        b.insert(7);
        b.insert(8);
        b.truncate_oldest();
        assert!(!b.contains(&7));
        assert!(b.insert(7), "purged id is insertable again");
    }

    #[test]
    fn oldest_first_iteration_is_oldest_to_newest() {
        let mut b = OldestFirstBuffer::new(10);
        b.extend([3, 1, 2]);
        let order: Vec<i32> = b.iter().copied().collect();
        assert_eq!(order, vec![3, 1, 2]);
    }
}
