//! Property-based tests for the foundational buffers and digests.

use lpbcast_types::{
    BoundedSet, CompactDigest, EventId, OldestFirstBuffer, OriginDigest, ProcessId,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

fn eid(p: u64, s: u64) -> EventId {
    EventId::new(ProcessId::new(p), s)
}

/// The first `limit` ids `ours.for_each_missing(theirs, ..)` visits, in
/// order, and whether the walk was cut short.
fn missing_up_to(
    ours: &CompactDigest,
    theirs: &CompactDigest,
    limit: usize,
) -> (Vec<EventId>, bool) {
    let mut out = Vec::new();
    let flow = ours.for_each_missing(theirs, |id| {
        if out.len() == limit {
            return ControlFlow::Break(());
        }
        out.push(id);
        ControlFlow::Continue(())
    });
    (out, flow.is_break())
}

/// Every id `ours.for_each_missing(theirs, ..)` visits, in order.
fn missing(ours: &CompactDigest, theirs: &CompactDigest) -> Vec<EventId> {
    missing_up_to(ours, theirs, usize::MAX).0
}

proptest! {
    /// After truncation a BoundedSet never exceeds its maximum size, never
    /// contains duplicates, and evicted ∪ kept equals the distinct inputs.
    #[test]
    fn bounded_set_invariants(
        items in vec(0u32..500, 0..200),
        max_len in 0usize..50,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = BoundedSet::new(max_len);
        for &x in &items {
            set.insert(x);
        }
        let distinct: BTreeSet<u32> = items.iter().copied().collect();
        prop_assert_eq!(set.len(), distinct.len());

        let evicted = set.truncate_random(&mut rng);
        prop_assert!(set.len() <= max_len);
        let kept: BTreeSet<u32> = set.iter().copied().collect();
        let gone: BTreeSet<u32> = evicted.iter().copied().collect();
        prop_assert_eq!(kept.len(), set.len(), "no duplicates kept");
        prop_assert_eq!(gone.len(), evicted.len(), "no duplicates evicted");
        prop_assert!(kept.is_disjoint(&gone));
        let reunion: BTreeSet<u32> = kept.union(&gone).copied().collect();
        prop_assert_eq!(reunion, distinct);
    }

    /// Sampling k elements yields min(k, len) distinct members of the set.
    #[test]
    fn bounded_set_sample_is_distinct_subset(
        items in vec(0u32..200, 0..100),
        k in 0usize..150,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = BoundedSet::new(usize::MAX);
        for &x in &items {
            set.insert(x);
        }
        let picked = set.sample(&mut rng, k);
        prop_assert_eq!(picked.len(), k.min(set.len()));
        let uniq: BTreeSet<u32> = picked.iter().copied().collect();
        prop_assert_eq!(uniq.len(), picked.len());
        prop_assert!(picked.iter().all(|x| set.contains(x)));
    }

    /// Interleaved inserts/removes keep the index consistent: contains()
    /// agrees with a model BTreeSet at every step.
    #[test]
    fn bounded_set_matches_model(
        ops in vec((any::<bool>(), 0u32..50), 0..300),
    ) {
        let mut set = BoundedSet::new(usize::MAX);
        let mut model = BTreeSet::new();
        for (is_insert, x) in ops {
            if is_insert {
                prop_assert_eq!(set.insert(x), model.insert(x));
            } else {
                prop_assert_eq!(set.remove(&x), model.remove(&x));
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.contains(&x), model.contains(&x));
        }
        let mut have: Vec<u32> = set.iter().copied().collect();
        have.sort_unstable();
        let want: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(have, want);
    }

    /// OldestFirstBuffer purges exactly the oldest distinct entries and
    /// never exceeds its bound after truncation.
    #[test]
    fn oldest_first_invariants(
        items in vec(0u32..100, 0..200),
        max_len in 0usize..40,
    ) {
        let mut buf = OldestFirstBuffer::new(max_len);
        let mut first_seen = Vec::new();
        let mut seen = BTreeSet::new();
        for &x in &items {
            if seen.insert(x) {
                first_seen.push(x);
            }
            buf.insert(x);
        }
        let purged = buf.truncate_oldest();
        prop_assert!(buf.len() <= max_len);
        let expected_purged: Vec<u32> = first_seen
            .iter()
            .copied()
            .take(first_seen.len().saturating_sub(max_len))
            .collect();
        prop_assert_eq!(purged, expected_purged);
        let expected_kept: Vec<u32> = first_seen
            .iter()
            .copied()
            .skip(first_seen.len().saturating_sub(max_len))
            .collect();
        prop_assert_eq!(buf.to_vec(), expected_kept);
    }

    /// CompactDigest::contains agrees with an explicit set of ids no matter
    /// the insertion order, and storage never exceeds what an explicit set
    /// would use.
    #[test]
    fn compact_digest_matches_explicit_set(
        raw in vec((0u64..5, 0u64..40), 0..200),
    ) {
        let ids: Vec<EventId> = raw.iter().map(|&(p, s)| eid(p, s)).collect();
        let mut digest = CompactDigest::new();
        let mut model: BTreeSet<EventId> = BTreeSet::new();
        for &id in &ids {
            prop_assert_eq!(digest.insert(id), model.insert(id));
        }
        prop_assert_eq!(digest.seen_count(), model.len() as u64);
        for p in 0..5u64 {
            for s in 0..41u64 {
                let id = eid(p, s);
                prop_assert_eq!(digest.contains(id), model.contains(&id));
            }
        }
        // The §3.2 optimisation: compact storage ≤ one entry per id + one
        // watermark per origin.
        prop_assert!(digest.storage_entries() <= model.len() + digest.origin_count());
    }

    /// for_each_missing visits exactly the set difference other ∖ self.
    #[test]
    fn for_each_missing_is_set_difference(
        mine_raw in vec((0u64..4, 0u64..20), 0..80),
        theirs_raw in vec((0u64..4, 0u64..20), 0..80),
    ) {
        let mine: CompactDigest = mine_raw.iter().map(|&(p, s)| eid(p, s)).collect();
        let theirs: CompactDigest = theirs_raw.iter().map(|&(p, s)| eid(p, s)).collect();
        let mine_set: BTreeSet<EventId> = mine_raw.iter().map(|&(p, s)| eid(p, s)).collect();
        let theirs_set: BTreeSet<EventId> = theirs_raw.iter().map(|&(p, s)| eid(p, s)).collect();

        let mut pull = missing(&mine, &theirs);
        pull.sort();
        let pull_set: BTreeSet<EventId> = pull.iter().copied().collect();
        prop_assert_eq!(pull_set.len(), pull.len(), "no duplicates");
        let expected: BTreeSet<EventId> =
            theirs_set.difference(&mine_set).copied().collect();
        prop_assert_eq!(pull_set, expected);
    }
}

/// Reference model for [`CompactDigest`]: the tree-backed representation
/// the flat one replaced, with its semantics spelled out operation by
/// operation. The flat digest must give the same answers in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
struct TreeDigest(BTreeMap<ProcessId, (u64, BTreeSet<u64>)>);

fn tree_origin_contains((next_seq, ooo): &(u64, BTreeSet<u64>), seq: u64) -> bool {
    seq < *next_seq || ooo.contains(&seq)
}

fn tree_origin_insert(d: &mut (u64, BTreeSet<u64>), seq: u64) -> bool {
    if tree_origin_contains(d, seq) {
        return false;
    }
    if seq == d.0 {
        d.0 += 1;
        while d.1.remove(&d.0) {
            d.0 += 1;
        }
    } else {
        d.1.insert(seq);
    }
    true
}

impl TreeDigest {
    fn contains(&self, id: EventId) -> bool {
        self.0
            .get(&id.origin())
            .is_some_and(|d| tree_origin_contains(d, id.seq()))
    }

    fn insert(&mut self, id: EventId) -> bool {
        tree_origin_insert(self.0.entry(id.origin()).or_default(), id.seq())
    }

    /// `set_origin(origin, OriginDigest::from_parts(next_seq, ooo))`.
    fn set_origin(&mut self, origin: ProcessId, next_seq: u64, ooo: &[u64]) {
        let mut digest = (next_seq, BTreeSet::new());
        for &seq in ooo {
            tree_origin_insert(&mut digest, seq);
        }
        let slot = self.0.entry(origin).or_default();
        let (mut base, other) = if slot.0 >= digest.0 {
            (slot.clone(), digest)
        } else {
            (digest, slot.clone())
        };
        for seq in other.1 {
            tree_origin_insert(&mut base, seq);
        }
        *slot = base;
    }

    fn seen_count(&self) -> u64 {
        self.0.values().map(|d| d.0 + d.1.len() as u64).sum()
    }

    fn storage_entries(&self) -> usize {
        self.0.values().map(|d| 1 + d.1.len()).sum()
    }

    fn missing_relative_to(&self, other: &TreeDigest) -> Vec<EventId> {
        let mut out = Vec::new();
        let nothing = (0, BTreeSet::new());
        for (&origin, theirs) in &other.0 {
            let ours = self.0.get(&origin).unwrap_or(&nothing);
            out.extend(
                (ours.0..theirs.0)
                    .filter(|s| !ours.1.contains(s))
                    .map(|s| EventId::new(origin, s)),
            );
            out.extend(
                theirs
                    .1
                    .iter()
                    .filter(|&&s| !tree_origin_contains(ours, s))
                    .map(|&s| EventId::new(origin, s)),
            );
        }
        out
    }
}

/// One step of a random digest history: `(kind, origin, seq, extra)`.
/// Kinds 0–5 insert `(origin, seq)`; 6 installs
/// `from_parts(seq % 8, extra)` — unsorted, with duplicates and entries
/// below the watermark; 7 installs an empty per-origin entry.
type DigestOp = (u8, u64, u64, Vec<u64>);

fn digest_ops(max_len: usize) -> impl Strategy<Value = Vec<DigestOp>> {
    vec((0u8..8, 0u64..5, 0u64..24, vec(0u64..24, 0..6)), 0..max_len)
}

fn apply_digest_op(
    digest: &mut CompactDigest,
    model: &mut TreeDigest,
    (kind, origin, seq, extra): &DigestOp,
) -> Result<(), TestCaseError> {
    let origin = ProcessId::new(*origin);
    match kind {
        0..=5 => {
            let id = EventId::new(origin, *seq);
            prop_assert_eq!(digest.insert(id), model.insert(id));
        }
        6 => {
            let next_seq = seq % 8;
            digest.set_origin(
                origin,
                OriginDigest::from_parts(next_seq, extra.iter().copied()),
            );
            model.set_origin(origin, next_seq, extra);
        }
        _ => {
            digest.set_origin(origin, OriginDigest::new());
            model.set_origin(origin, 0, &[]);
        }
    }
    Ok(())
}

fn build_digest(ops: &[DigestOp]) -> Result<(CompactDigest, TreeDigest), TestCaseError> {
    let (mut digest, mut model) = (CompactDigest::new(), TreeDigest::default());
    for op in ops {
        apply_digest_op(&mut digest, &mut model, op)?;
    }
    Ok((digest, model))
}

/// Every read of `digest` answers as `model` does, in the same order.
fn assert_digest_matches(digest: &CompactDigest, model: &TreeDigest) -> Result<(), TestCaseError> {
    let flat: Vec<(ProcessId, u64, Vec<u64>)> = digest
        .iter()
        .map(|(origin, d)| (origin, d.next_seq(), d.out_of_order().collect()))
        .collect();
    let tree: Vec<(ProcessId, u64, Vec<u64>)> = model
        .0
        .iter()
        .map(|(&origin, (next_seq, ooo))| (origin, *next_seq, ooo.iter().copied().collect()))
        .collect();
    prop_assert_eq!(flat, tree, "iter(): ascending origins, canonical entries");
    prop_assert_eq!(digest.origin_count(), model.0.len());
    prop_assert_eq!(digest.seen_count(), model.seen_count());
    prop_assert_eq!(digest.storage_entries(), model.storage_entries());
    for p in 0..6u64 {
        let origin = ProcessId::new(p);
        let tree = model.0.get(&origin);
        prop_assert_eq!(digest.origin(origin).is_some(), tree.is_some());
        for seq in 0..26u64 {
            let id = EventId::new(origin, seq);
            prop_assert_eq!(digest.contains(id), model.contains(id));
        }
        if let (Some(flat), Some(tree)) = (digest.origin(origin), tree) {
            for seq in 0..26u64 {
                prop_assert_eq!(flat.contains(seq), tree_origin_contains(tree, seq));
            }
        }
    }
    Ok(())
}

/// `absorb` against its definition: insert what `for_each_missing`
/// visits, in that order.
fn assert_absorb_matches(ours: &CompactDigest, theirs: &CompactDigest) {
    let mut expected = ours.clone();
    let expected_calls = missing(ours, theirs);
    for &id in &expected_calls {
        assert!(expected.insert(id), "{id:?} listed missing but present");
    }
    let mut absorbed = ours.clone();
    let mut calls = Vec::new();
    absorbed.absorb(theirs, |id| calls.push(id));
    assert_eq!(calls, expected_calls, "same ids in the same order");
    assert_eq!(absorbed, expected, "same resulting digest");
    assert!(missing(&absorbed, theirs).is_empty());
}

#[test]
fn absorb_handles_the_named_shapes() {
    let ids =
        |ids: &[(u64, u64)]| -> CompactDigest { ids.iter().map(|&(p, s)| eid(p, s)).collect() };

    // An origin absent on our side, between two we know.
    let ours = ids(&[(1, 0), (5, 0)]);
    let theirs = ids(&[(1, 0), (3, 0), (3, 1), (3, 4), (5, 0), (9, 2)]);
    assert_absorb_matches(&ours, &theirs);
    assert_absorb_matches(&CompactDigest::new(), &theirs);

    // An empty per-origin entry on theirs creates none on ours.
    let mut theirs = ids(&[(1, 0), (1, 1)]);
    theirs.set_origin(ProcessId::new(4), OriginDigest::new());
    let mut absorbed = ours.clone();
    absorbed.absorb(&theirs, |_| {});
    assert!(absorbed.origin(ProcessId::new(4)).is_none());
    assert_absorb_matches(&ours, &theirs);

    // Their prefix closes our gap: the out-of-order run 5,6,7 collapses
    // into the watermark, 9 stays out of order.
    let ours = ids(&[(2, 0), (2, 1), (2, 5), (2, 6), (2, 7), (2, 9)]);
    let theirs = ids(&[(2, 0), (2, 1), (2, 2), (2, 3), (2, 4)]);
    let mut absorbed = ours.clone();
    let mut calls = Vec::new();
    absorbed.absorb(&theirs, |id| calls.push(id));
    assert_eq!(calls, vec![eid(2, 2), eid(2, 3), eid(2, 4)]);
    let origin = absorbed.origin(ProcessId::new(2)).unwrap();
    assert_eq!(origin.next_seq(), 8);
    assert_eq!(origin.out_of_order().collect::<Vec<_>>(), vec![9]);
    assert_absorb_matches(&ours, &theirs);

    // Their out-of-order extra lands on our watermark and takes our run
    // with it.
    let ours = ids(&[(2, 0), (2, 2), (2, 3)]);
    let theirs = ids(&[(2, 1), (2, 3), (2, 6)]);
    assert_absorb_matches(&ours, &theirs);
}

proptest! {
    /// The flat digest against the tree model over random histories of
    /// `insert` / `set_origin`: every read agrees, `for_each_missing`
    /// visits the same ids in the same order, and `==` is model equality.
    #[test]
    fn flat_digest_matches_tree_model(
        ops_a in digest_ops(60),
        ops_b in digest_ops(60),
        shared in digest_ops(8),
    ) {
        let (a, model_a) = build_digest(&ops_a)?;
        let (b, model_b) = build_digest(&ops_b)?;
        assert_digest_matches(&a, &model_a)?;
        assert_digest_matches(&b, &model_b)?;
        prop_assert_eq!(missing(&a, &b), model_a.missing_relative_to(&model_b));
        prop_assert_eq!(missing(&b, &a), model_b.missing_relative_to(&model_a));
        prop_assert_eq!(a == b, model_a == model_b);

        // Canonical form: the same history in another order, and a digest
        // reassembled from its own entries, compare equal — and short
        // histories collide often enough to exercise `==` both ways.
        let (c, model_c) = build_digest(&shared)?;
        let mut reversed = shared.clone();
        reversed.reverse();
        let (d, model_d) = build_digest(&reversed)?;
        prop_assert_eq!(c == d, model_c == model_d);
        let rebuilt = CompactDigest::from_origins(b.iter().map(|(p, d)| (p, d.clone())));
        prop_assert_eq!(&rebuilt, &b);
        let mut reinstalled = CompactDigest::new();
        for (origin, d) in b.iter() {
            reinstalled.set_origin(origin, OriginDigest::from_parts(d.next_seq(), d.out_of_order()));
        }
        prop_assert_eq!(&reinstalled, &b);
    }

    /// `absorb(theirs, f)` ≡ `for_each_missing(theirs, |id| { assert!(insert(id));
    /// f(id) })`, on the digest and on the calls.
    #[test]
    fn absorb_is_missing_then_insert(
        ops_a in digest_ops(60),
        ops_b in digest_ops(60),
    ) {
        let (a, _) = build_digest(&ops_a)?;
        let (b, _) = build_digest(&ops_b)?;
        assert_absorb_matches(&a, &b);
        assert_absorb_matches(&b, &a);
        assert_absorb_matches(&a, &a);
    }

    /// Breaking the walk after `k` ids yields the first `k` of the full
    /// walk, and it reports a break exactly when ids were left unvisited.
    #[test]
    fn for_each_missing_stops_on_a_prefix(
        ops_a in digest_ops(60),
        ops_b in digest_ops(60),
        k in 0usize..24,
    ) {
        let (a, _) = build_digest(&ops_a)?;
        let (b, _) = build_digest(&ops_b)?;
        let all = missing(&a, &b);
        let (prefix, cut) = missing_up_to(&a, &b, k);
        prop_assert_eq!(&prefix[..], &all[..k.min(all.len())]);
        prop_assert_eq!(cut, all.len() > k);
    }
}
