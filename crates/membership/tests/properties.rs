//! Property-based tests for partial views and view-graph analytics.

use lpbcast_membership::{PartialView, TruncationStrategy, View, ViewGraph};
use lpbcast_types::ProcessId;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

fn strategy_from_bool(weighted: bool) -> TruncationStrategy {
    if weighted {
        TruncationStrategy::Weighted
    } else {
        TruncationStrategy::Uniform
    }
}

proptest! {
    /// Core view invariants hold after any insertion/truncation sequence:
    /// no owner, no duplicates, |view| ≤ l after truncate, evicted ∪ kept =
    /// distinct non-owner inserts.
    #[test]
    fn view_invariants(
        inserts in vec(0u64..64, 0..150),
        l in 0usize..20,
        weighted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let owner = pid(0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut view = PartialView::new(owner, l, strategy_from_bool(weighted));
        for &p in &inserts {
            view.insert(pid(p));
        }
        let distinct: BTreeSet<ProcessId> =
            inserts.iter().map(|&p| pid(p)).filter(|&p| p != owner).collect();
        prop_assert_eq!(view.len(), distinct.len());
        prop_assert!(!view.contains(owner));

        let evicted = view.truncate(&mut rng);
        prop_assert!(view.len() <= l);
        let kept: BTreeSet<ProcessId> = view.members().into_iter().collect();
        let gone: BTreeSet<ProcessId> = evicted.into_iter().collect();
        prop_assert_eq!(kept.len() + gone.len(), distinct.len());
        prop_assert!(kept.is_disjoint(&gone));
        let reunion: BTreeSet<ProcessId> = kept.union(&gone).copied().collect();
        prop_assert_eq!(reunion, distinct);
    }

    /// Target selection returns min(fanout, |view|) distinct members.
    #[test]
    fn target_selection_contract(
        inserts in vec(1u64..40, 0..60),
        fanout in 0usize..50,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let view = PartialView::with_members(
            pid(0),
            usize::MAX,
            TruncationStrategy::Uniform,
            inserts.iter().map(|&p| pid(p)),
        );
        let targets = view.select_targets(&mut rng, fanout);
        prop_assert_eq!(targets.len(), fanout.min(view.len()));
        let uniq: BTreeSet<ProcessId> = targets.iter().copied().collect();
        prop_assert_eq!(uniq.len(), targets.len());
        prop_assert!(targets.iter().all(|&t| view.contains(t)));
    }

    /// Weighted truncation only ever evicts an entry whose weight is
    /// maximal at the time of eviction; in particular, evicting a single
    /// overflow removes a max-weight entry.
    #[test]
    fn weighted_truncation_evicts_max_weight(
        base in vec(1u64..30, 2..30),
        bumps in vec(1u64..30, 0..60),
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let distinct: BTreeSet<u64> = base.iter().copied().collect();
        prop_assume!(distinct.len() >= 2);
        let l = distinct.len() - 1; // force exactly one eviction
        let mut view = PartialView::new(pid(0), l, TruncationStrategy::Weighted);
        for &p in &base {
            view.insert(pid(p));
        }
        for &p in &bumps {
            if distinct.contains(&p) {
                view.insert(pid(p)); // bump weights of known entries only
            }
        }
        let max_weight = view
            .entries()
            .map(|e| e.weight)
            .max()
            .unwrap();
        let heaviest: BTreeSet<ProcessId> = view
            .entries()
            .filter(|e| e.weight == max_weight)
            .map(|e| e.id)
            .collect();
        let evicted = view.truncate(&mut rng);
        prop_assert_eq!(evicted.len(), 1);
        prop_assert!(heaviest.contains(&evicted[0]));
    }

    /// Graph facts: reachable set size never exceeds node count; component
    /// sizes sum to node count; a graph built from views where everyone
    /// knows process 0 and process 0 knows someone is never partitioned.
    #[test]
    fn graph_component_sizes_sum(
        edges in vec((0u64..20, 0u64..20), 0..80),
    ) {
        let mut per_owner: BTreeMap<ProcessId, Vec<ProcessId>> = BTreeMap::new();
        for &(a, b) in &edges {
            if a != b {
                per_owner.entry(pid(a)).or_default().push(pid(b));
            }
        }
        let g = ViewGraph::from_views(per_owner.into_iter());
        let comps = g.undirected_components();
        prop_assert_eq!(comps.sizes().iter().sum::<usize>(), g.node_count());
        let sccs = g.strongly_connected_components();
        prop_assert_eq!(sccs.sizes().iter().sum::<usize>(), g.node_count());
        // SCCs are a refinement of undirected components.
        prop_assert!(sccs.count() >= comps.count());
        for p in 0..20u64 {
            if let Some(r) = g.reachable_from(pid(p)) {
                prop_assert!(r >= 1 && r <= g.node_count());
            }
        }
    }

    /// A hub topology (everyone ↔ p0) is never partitioned, whatever the
    /// spoke set.
    #[test]
    fn hub_topology_is_connected(spokes in vec(1u64..50, 1..40)) {
        let mut views: Vec<(ProcessId, Vec<ProcessId>)> =
            vec![(pid(0), spokes.iter().map(|&s| pid(s)).collect())];
        for &s in &spokes {
            views.push((pid(s), vec![pid(0)]));
        }
        let g = ViewGraph::from_views(views);
        prop_assert!(!g.is_partitioned());
        prop_assert_eq!(g.reachable_from(pid(0)), Some(g.node_count()));
    }
}
