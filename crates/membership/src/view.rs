//! Fixed-size partial views with uniform or weighted eviction.

use lpbcast_types::ProcessId;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::View;

/// How a [`PartialView`] evicts entries when it exceeds its maximum size
/// `l`, and how it picks entries to advertise in `subs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TruncationStrategy {
    /// The base algorithm of Figure 1(a): evict a uniformly random entry;
    /// advertise uniformly random entries.
    #[default]
    Uniform,
    /// The §6.1 optimisation: each entry carries a *weight* counting how
    /// often the owner has been told about the process (its "level of
    /// awareness"). Eviction removes a highest-weight entry (*"removing
    /// entries with a high weight, since these are more probable of being
    /// known by many other processes"*), ties broken uniformly;
    /// advertisement prefers lowest-weight entries (*"when constructing
    /// subs, a process preferably adds entries from its view with a small
    /// weight"*).
    Weighted,
}

/// One entry of a partial view: a known process and its awareness weight.
///
/// The weight is meaningful only under [`TruncationStrategy::Weighted`].
/// A `Uniform` view keeps no weights (nothing on its paths reads them), so
/// its entries all report the constant 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEntry {
    /// The known process.
    pub id: ProcessId,
    /// How many times the owner has learnt about `id` (initial insertion
    /// counts once).
    pub weight: u32,
}

/// A fixed-maximum-size random partial view of the system — the paper's
/// `view` variable (§3.2, maximum length `l`).
///
/// Invariants (checked by tests and upheld by construction):
///
/// * never contains the owner;
/// * never contains duplicates;
/// * may transiently exceed `l` between a batch of insertions and
///   [`truncate`](PartialView::truncate), mirroring Figure 1(a)'s
///   `while |view| > l` loop, which returns the evicted entries because
///   phase 2 recycles them into `subs`.
#[derive(Debug, Clone)]
pub struct PartialView {
    owner: ProcessId,
    // Split parallel arrays with linear lookups: `l` is ~15-35 in every
    // paper configuration, where a vectorizable scan over a contiguous
    // `Vec<ProcessId>` beats hashing the key outright (this is the single
    // hottest lookup in gossip reception's phase 2). Weights live in
    // their own array so id scans don't stride over them.
    ids: Vec<ProcessId>,
    /// Parallel to `ids` under `Weighted`; always empty under `Uniform`,
    /// whose truncation and advertisement never read a weight.
    weights: Vec<u32>,
    max_len: usize,
    strategy: TruncationStrategy,
}

impl PartialView {
    /// Creates an empty view owned by `owner`, bounded at `l` entries.
    pub fn new(owner: ProcessId, l: usize, strategy: TruncationStrategy) -> Self {
        PartialView {
            owner,
            ids: Vec::new(),
            weights: Vec::new(),
            max_len: l,
            strategy,
        }
    }

    /// Creates a view pre-populated with `members` (the owner and
    /// duplicates are skipped; no truncation is applied).
    pub fn with_members(
        owner: ProcessId,
        l: usize,
        strategy: TruncationStrategy,
        members: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        let mut view = PartialView::new(owner, l, strategy);
        for m in members {
            view.insert(m);
        }
        view
    }

    /// The maximum view length `l`.
    pub const fn max_len(&self) -> usize {
        self.max_len
    }

    /// The eviction/advertisement strategy in use.
    pub const fn strategy(&self) -> TruncationStrategy {
        self.strategy
    }

    /// Whether the view currently exceeds `l` (possible between batched
    /// insertions and truncation).
    pub fn is_over_capacity(&self) -> bool {
        self.ids.len() > self.max_len
    }

    fn is_weighted(&self) -> bool {
        self.strategy == TruncationStrategy::Weighted
    }

    /// Inserts `p`; returns `true` if it was absent (and is not the
    /// owner). Inserting an already-known process bumps its awareness
    /// weight instead (§6.1; a no-op on a `Uniform` view) and returns
    /// `false`.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        if p == self.owner {
            return false;
        }
        if let Some(pos) = lpbcast_types::scan::position_of(&self.ids, &p) {
            if self.is_weighted() {
                self.weights[pos] = self.weights[pos].saturating_add(1);
            }
            return false;
        }
        self.push_absent(p);
        true
    }

    /// Appends `p` without the scan [`insert`](PartialView::insert)
    /// makes. The caller must already know that `p` is neither a member
    /// nor the owner, for instance from a
    /// [`scan::IdFilter`](lpbcast_types::scan::IdFilter) "absent" answer;
    /// debug builds assert it.
    pub fn push_absent(&mut self, p: ProcessId) {
        debug_assert!(
            p != self.owner && !self.contains(p),
            "push_absent of the owner or a member"
        );
        self.ids.push(p);
        if self.is_weighted() {
            self.weights.push(1);
        }
    }

    /// Removes `p`; returns `true` if it was present. Used by phase 1 of
    /// gossip reception (unsubscriptions) and by failure handling.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let Some(pos) = lpbcast_types::scan::position_of(&self.ids, &p) else {
            return false;
        };
        self.remove_at(pos);
        true
    }

    fn remove_at(&mut self, pos: usize) -> ProcessId {
        if self.is_weighted() {
            self.weights.swap_remove(pos);
        }
        self.ids.swap_remove(pos)
    }

    /// The awareness weight of `p`, if known. A `Uniform` view keeps no
    /// weights: every member reports `Some(1)`.
    pub fn weight_of(&self, p: ProcessId) -> Option<u32> {
        let pos = lpbcast_types::scan::position_of(&self.ids, &p)?;
        Some(self.weights.get(pos).copied().unwrap_or(1))
    }

    /// Iterates over entries (id + weight) in unspecified order. On a
    /// `Uniform` view every weight is 1.
    pub fn entries(&self) -> impl Iterator<Item = ViewEntry> + '_ {
        self.ids.iter().enumerate().map(|(pos, &id)| ViewEntry {
            id,
            weight: self.weights.get(pos).copied().unwrap_or(1),
        })
    }

    /// The member ids in storage order: the order truncation and target
    /// selection index into.
    pub fn ids(&self) -> &[ProcessId] {
        &self.ids
    }

    /// Evicts entries until `|view| <= l`, following the configured
    /// strategy; returns the evicted process ids.
    ///
    /// Figure 1(a) phase 2: the evicted ids are *not* forgotten by the
    /// protocol — the caller adds them to `subs` so that knowledge keeps
    /// circulating.
    pub fn truncate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<ProcessId> {
        let mut evicted = Vec::new();
        self.truncate_each(rng, |p| evicted.push(p));
        evicted
    }

    /// [`truncate`](PartialView::truncate), handing each evicted id to
    /// `evicted` as it goes: the gossip hot path recycles them straight
    /// into `subs`, with no buffer in between.
    pub fn truncate_each<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        mut evicted: impl FnMut(ProcessId),
    ) {
        while self.ids.len() > self.max_len {
            let pos = match self.strategy {
                TruncationStrategy::Uniform => rng.gen_range(0..self.ids.len()),
                TruncationStrategy::Weighted => self.max_weight_position(rng),
            };
            evicted(self.remove_at(pos));
        }
    }

    /// Position of a maximum-weight entry, ties broken uniformly at
    /// random.
    fn max_weight_position<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let max_w = *self
            .weights
            .iter()
            .max()
            .expect("truncate on non-empty view");
        let candidates: Vec<usize> = self
            .weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w == max_w)
            .map(|(i, _)| i)
            .collect();
        *candidates
            .choose(rng)
            .expect("at least one max-weight entry")
    }

    /// Chooses up to `k` distinct processes to advertise in `subs`.
    ///
    /// Uniform strategy: a uniform sample. Weighted strategy (§6.1):
    /// lowest-weight entries first, ties broken randomly.
    pub fn select_advertised<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<ProcessId> {
        let k = k.min(self.ids.len());
        match self.strategy {
            TruncationStrategy::Uniform => self.ids.choose_multiple(rng, k).copied().collect(),
            TruncationStrategy::Weighted => {
                let mut shuffled: Vec<usize> = (0..self.ids.len()).collect();
                shuffled.shuffle(rng);
                shuffled.sort_by_key(|&i| self.weights[i]);
                shuffled.into_iter().take(k).map(|i| self.ids[i]).collect()
            }
        }
    }
}

impl View for PartialView {
    fn owner(&self) -> ProcessId {
        self.owner
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn contains(&self, p: ProcessId) -> bool {
        lpbcast_types::scan::contains(&self.ids, &p)
    }

    fn members(&self) -> Vec<ProcessId> {
        self.ids.clone()
    }

    fn select_targets<R: Rng + ?Sized>(&self, rng: &mut R, fanout: usize) -> Vec<ProcessId> {
        self.ids
            .choose_multiple(rng, fanout.min(self.ids.len()))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xFEED)
    }

    #[test]
    fn never_contains_owner() {
        let mut v = PartialView::new(pid(0), 5, TruncationStrategy::Uniform);
        assert!(!v.insert(pid(0)));
        assert!(v.is_empty());
        let v2 = PartialView::with_members(pid(0), 5, TruncationStrategy::Uniform, (0..4).map(pid));
        assert!(!v2.contains(pid(0)));
        assert_eq!(v2.len(), 3);
    }

    #[test]
    fn insert_is_idempotent_on_membership() {
        let mut v = PartialView::new(pid(0), 5, TruncationStrategy::Uniform);
        assert!(v.insert(pid(1)));
        assert!(!v.insert(pid(1)));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn reinsertion_bumps_weight() {
        let mut v = PartialView::new(pid(0), 5, TruncationStrategy::Weighted);
        v.insert(pid(1));
        assert_eq!(v.weight_of(pid(1)), Some(1));
        v.insert(pid(1));
        v.insert(pid(1));
        assert_eq!(v.weight_of(pid(1)), Some(3));
    }

    #[test]
    fn uniform_view_reports_constant_weight_one() {
        let mut r = rng();
        let mut v = PartialView::new(pid(0), 3, TruncationStrategy::Uniform);
        for p in [1, 2, 2, 2, 3, 4, 5] {
            v.insert(pid(p));
        }
        v.push_absent(pid(6));
        assert!(v.remove(pid(3)));
        assert_eq!(v.weight_of(pid(2)), Some(1), "re-insertion is not counted");
        assert_eq!(v.weight_of(pid(6)), Some(1));
        assert_eq!(v.weight_of(pid(3)), None);
        v.truncate(&mut r);
        let entries: Vec<ViewEntry> = v.entries().collect();
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().all(|e| e.weight == 1));
        assert_eq!(
            entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            v.ids(),
            "entries follow storage order"
        );
    }

    #[test]
    fn push_absent_appends_like_insert() {
        for strategy in [TruncationStrategy::Uniform, TruncationStrategy::Weighted] {
            let mut a = PartialView::new(pid(0), 5, strategy);
            let mut b = PartialView::new(pid(0), 5, strategy);
            for p in 1..=4 {
                a.insert(pid(p));
                b.push_absent(pid(p));
            }
            a.insert(pid(2));
            b.insert(pid(2));
            assert_eq!(a.ids(), b.ids());
            assert_eq!(
                a.entries().collect::<Vec<_>>(),
                b.entries().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "push_absent of the owner or a member")]
    fn push_absent_rejects_a_member_in_debug() {
        let mut v = PartialView::new(pid(0), 5, TruncationStrategy::Uniform);
        v.insert(pid(1));
        v.push_absent(pid(1));
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let mut v = PartialView::new(pid(0), 10, TruncationStrategy::Uniform);
        for p in 1..=6 {
            v.insert(pid(p));
        }
        assert!(v.remove(pid(3)));
        assert!(!v.remove(pid(3)));
        for p in [1, 2, 4, 5, 6] {
            assert!(v.contains(pid(p)), "lost p{p}");
        }
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn uniform_truncation_respects_l_and_returns_evicted() {
        let mut r = rng();
        let mut v = PartialView::new(pid(0), 3, TruncationStrategy::Uniform);
        for p in 1..=10 {
            v.insert(pid(p));
        }
        assert!(v.is_over_capacity());
        let evicted = v.truncate(&mut r);
        assert_eq!(v.len(), 3);
        assert_eq!(evicted.len(), 7);
        let kept: BTreeSet<ProcessId> = v.members().into_iter().collect();
        let gone: BTreeSet<ProcessId> = evicted.into_iter().collect();
        assert!(kept.is_disjoint(&gone));
        assert_eq!(kept.len() + gone.len(), 10);
    }

    #[test]
    fn weighted_truncation_evicts_heaviest() {
        let mut r = rng();
        let mut v = PartialView::new(pid(0), 2, TruncationStrategy::Weighted);
        v.insert(pid(1));
        v.insert(pid(2));
        v.insert(pid(3));
        // Make p2 the best-known process.
        v.insert(pid(2));
        v.insert(pid(2));
        let evicted = v.truncate(&mut r);
        assert_eq!(evicted, vec![pid(2)], "highest-weight entry must go");
        assert!(v.contains(pid(1)) && v.contains(pid(3)));
    }

    #[test]
    fn weighted_truncation_breaks_ties_randomly() {
        let mut evicted_counts = std::collections::BTreeMap::new();
        for seed in 0..300 {
            let mut r = SmallRng::seed_from_u64(seed);
            let mut v = PartialView::new(pid(0), 2, TruncationStrategy::Weighted);
            for p in 1..=3 {
                v.insert(pid(p));
            }
            let evicted = v.truncate(&mut r);
            *evicted_counts.entry(evicted[0]).or_insert(0u32) += 1;
        }
        assert_eq!(
            evicted_counts.len(),
            3,
            "all equal-weight entries evictable"
        );
        for (&p, &c) in &evicted_counts {
            assert!(c > 50, "{p} evicted only {c}/300 times");
        }
    }

    #[test]
    fn weighted_advertisement_prefers_light_entries() {
        let mut r = rng();
        let mut v = PartialView::new(pid(0), 10, TruncationStrategy::Weighted);
        for p in 1..=6 {
            v.insert(pid(p));
        }
        // p1..p3 become heavy.
        for _ in 0..5 {
            v.insert(pid(1));
            v.insert(pid(2));
            v.insert(pid(3));
        }
        let advertised = v.select_advertised(&mut r, 3);
        let set: BTreeSet<ProcessId> = advertised.into_iter().collect();
        assert_eq!(
            set,
            [pid(4), pid(5), pid(6)]
                .into_iter()
                .collect::<BTreeSet<_>>(),
            "light entries advertised first"
        );
    }

    #[test]
    fn uniform_advertisement_is_unbiased_sample() {
        let mut v = PartialView::new(pid(0), 10, TruncationStrategy::Uniform);
        for p in 1..=8 {
            v.insert(pid(p));
        }
        let mut seen: BTreeSet<ProcessId> = BTreeSet::new();
        for seed in 0..100 {
            let mut r = SmallRng::seed_from_u64(seed);
            seen.extend(v.select_advertised(&mut r, 2));
        }
        assert_eq!(seen.len(), 8, "every entry eventually advertised");
    }

    #[test]
    fn select_targets_are_distinct_members() {
        let mut r = rng();
        let mut v = PartialView::new(pid(0), 20, TruncationStrategy::Uniform);
        for p in 1..=15 {
            v.insert(pid(p));
        }
        let t = v.select_targets(&mut r, 5);
        assert_eq!(t.len(), 5);
        let set: BTreeSet<ProcessId> = t.iter().copied().collect();
        assert_eq!(set.len(), 5);
        assert!(t.iter().all(|&p| v.contains(p)));
        // Fanout larger than view: everything, once.
        let all = v.select_targets(&mut r, 100);
        assert_eq!(all.len(), 15);
    }

    #[test]
    fn truncate_on_within_capacity_view_is_noop() {
        let mut r = rng();
        let mut v = PartialView::new(pid(0), 5, TruncationStrategy::Uniform);
        v.insert(pid(1));
        assert!(v.truncate(&mut r).is_empty());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn zero_length_view_evicts_everything() {
        let mut r = rng();
        let mut v = PartialView::new(pid(0), 0, TruncationStrategy::Weighted);
        v.insert(pid(1));
        v.insert(pid(2));
        let evicted = v.truncate(&mut r);
        assert_eq!(evicted.len(), 2);
        assert!(v.is_empty());
    }
}
