//! Property tests for the simulation engine: conservation and
//! determinism invariants under arbitrary parameters.

use lpbcast_core::Config;
use lpbcast_sim::experiment::{InitialTopology, LpbcastSimParams, SimParams};
use lpbcast_types::ProcessId;
use proptest::prelude::*;

fn params(
    n: usize,
    l: usize,
    fanout: usize,
    loss: f64,
    topology: InitialTopology,
) -> LpbcastSimParams {
    LpbcastSimParams {
        n,
        config: Config::builder()
            .view_size(l)
            .fanout(fanout)
            .event_ids_max(64)
            .events_max(64)
            .deliver_on_digest(true)
            .build(),
        loss_rate: loss,
        tau: 0.0,
        rounds: 8,
        topology,
    }
}

fn topology_from_bool(ring: bool) -> InitialTopology {
    if ring {
        InitialTopology::Ring
    } else {
        InitialTopology::UniformRandom
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Infected counts are monotone in time, bounded by n, and the origin
    /// is always counted.
    #[test]
    fn infection_conservation(
        n in 4usize..40,
        l_seed in 1usize..20,
        fanout_seed in 1usize..6,
        loss in 0.0f64..0.6,
        ring in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let l = l_seed.min(n - 1).max(1);
        let fanout = fanout_seed.min(l);
        let p = params(n, l, fanout, loss, topology_from_bool(ring));
        let mut engine = p.build_engine(seed);
        let id = engine.publish_from(ProcessId::new(0), "probe".into());
        let mut prev = engine.tracker().infected_count(id);
        prop_assert_eq!(prev, 1, "origin infected at publish");
        for _ in 0..8 {
            engine.step();
            let cur = engine.tracker().infected_count(id);
            prop_assert!(cur >= prev, "infection went backwards");
            prop_assert!(cur <= n, "more infected than processes");
            prop_assert!(
                engine.tracker().has_seen(id, ProcessId::new(0)),
                "origin lost"
            );
            prev = cur;
        }
        // Latency accounting is consistent with infection counts.
        let hist = engine.tracker().latency_histogram(id);
        prop_assert_eq!(hist.iter().sum::<usize>(), prev, "histogram mass");
    }

    /// Identical parameters and seed produce identical runs; the network
    /// statistics add up.
    #[test]
    fn determinism_and_network_accounting(
        n in 4usize..30,
        loss in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let run = || {
            let p = params(n, (n - 1).min(8), 2, loss, InitialTopology::UniformRandom);
            let mut engine = p.build_engine(seed);
            let id = engine.publish_from(ProcessId::new(0), "d".into());
            engine.run(6);
            (
                engine.tracker().infected_count(id),
                engine.network().delivered_count(),
                engine.network().dropped_count(),
            )
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a, b, "same seed diverged");
        let (_, delivered, dropped) = a;
        if loss == 0.0 {
            prop_assert_eq!(dropped, 0);
        }
        prop_assert!(delivered + dropped > 0, "no traffic at all");
    }

    /// The view graph over any run never contains the owner in its own
    /// view and in-degrees sum to out-degrees.
    #[test]
    fn view_graph_degree_balance(
        n in 4usize..30,
        ring in any::<bool>(),
        rounds in 0u64..8,
        seed in any::<u64>(),
    ) {
        let p = params(n, (n - 1).min(6), 2, 0.05, topology_from_bool(ring));
        let mut engine = p.build_engine(seed);
        engine.run(rounds);
        let graph = engine.view_graph();
        let in_sum: usize = graph.in_degrees().iter().sum();
        let out_sum: usize = graph.out_degrees().iter().sum();
        prop_assert_eq!(in_sum, out_sum, "every edge has two endpoints");
        prop_assert!(graph.node_count() >= n, "alive nodes present");
    }

    /// Ring topologies start connected and stay connected under gossip.
    #[test]
    fn ring_start_never_partitions(
        n in 6usize..30,
        rounds in 1u64..8,
        seed in any::<u64>(),
    ) {
        let p = params(n, 4.min(n - 1), 2, 0.05, InitialTopology::Ring);
        let mut engine = p.build_engine(seed);
        prop_assert!(!engine.view_graph().is_partitioned(), "ring is connected");
        engine.run(rounds);
        prop_assert!(
            !engine.view_graph().is_partitioned(),
            "gossip must not split a connected membership"
        );
    }
}

/// The enqueue path must not deep-copy gossip bodies: every fanout copy
/// emitted by one tick aliases one `Arc` allocation (zero-copy fan-out).
#[test]
fn fanout_copies_alias_one_gossip_allocation() {
    use lpbcast_core::{Gossip, Message};
    use std::sync::Arc;

    let p = params(30, 10, 3, 0.0, InitialTopology::UniformRandom);
    let mut engine = p.build_engine(5);
    let node = engine.node_mut(ProcessId::new(0)).expect("node 0 exists");
    let outgoing = node.tick().outgoing;
    let arcs: Vec<&Arc<Gossip>> = outgoing
        .iter()
        .filter_map(|(_, m)| match m {
            Message::Gossip(g) => Some(g),
            _ => None,
        })
        .collect();
    assert_eq!(arcs.len(), 3, "one gossip per fanout target");
    assert!(
        arcs.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])),
        "fanout copies share one allocation"
    );
    assert_eq!(
        Arc::strong_count(arcs[0]),
        3,
        "exactly the fanout copies hold the body"
    );
}
