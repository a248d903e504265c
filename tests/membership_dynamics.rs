//! Integration: membership under churn — joins (§3.4), unsubscriptions,
//! partition resistance (§4.4), and prioritary-process normalization.

use lpbcast::core::{Config, Lpbcast};
use lpbcast::membership::View as _;
use lpbcast::sim::experiment::{InitialTopology, LpbcastSimParams, SimParams};
use lpbcast::sim::{Engine, NetworkModel};
use lpbcast::types::ProcessId;

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn config(l: usize) -> Config {
    Config::builder()
        .view_size(l)
        .fanout(3)
        .event_ids_max(128)
        .events_max(128)
        .build()
}

fn params(n: usize, l: usize) -> LpbcastSimParams {
    LpbcastSimParams {
        n,
        config: config(l),
        loss_rate: 0.05,
        tau: 0.0,
        rounds: 60,
        topology: InitialTopology::UniformRandom,
    }
}

#[test]
fn views_never_partition_under_normal_operation() {
    for seed in 0..5 {
        let mut engine = params(50, 8).build_engine(seed);
        for _ in 0..15 {
            engine.step();
            let graph = engine.view_graph();
            assert!(
                !graph.is_partitioned(),
                "partition at seed {seed}, round {}",
                engine.round()
            );
        }
    }
}

#[test]
fn in_degrees_concentrate_near_l() {
    // §6.1: ideally every process is known by exactly l others. Gossip
    // keeps the distribution centred on l with moderate spread.
    let mut engine = params(60, 10).build_engine(7);
    engine.run(40);
    let stats = engine.view_graph().in_degree_stats();
    assert!(
        (stats.mean - 10.0).abs() < 1.0,
        "mean in-degree {} should be ≈ l = 10",
        stats.mean
    );
    assert!(stats.min >= 1, "nobody forgotten entirely: {stats:?}");
}

#[test]
fn newcomers_join_through_one_contact() {
    let mut engine = params(30, 8).build_engine(21);
    engine.run(5);
    for i in 0..5u64 {
        engine.add_node(Lpbcast::joining(p(30 + i), config(8), 9000 + i, vec![p(i)]));
    }
    engine.run(10);
    for i in 0..5u64 {
        let node = engine.node(p(30 + i)).expect("present");
        assert!(!node.is_joining(), "p{} never completed its join", 30 + i);
        assert!(!node.view().is_empty(), "joined process has an empty view");
    }
    // Newcomers spread into the old members' views.
    let graph = engine.view_graph();
    let known: usize = (0..5u64)
        .filter_map(|i| graph.index_of(p(30 + i)))
        .map(|idx| graph.in_degrees()[idx])
        .sum();
    assert!(known > 0, "no old member learnt about any newcomer");
    // And a broadcast reaches the newcomers too.
    let id = engine.publish_from(p(3), "hi".into());
    engine.run(10);
    let reached = (0..5u64)
        .filter(|&i| engine.tracker().has_seen(id, p(30 + i)))
        .count();
    assert!(reached >= 4, "only {reached}/5 newcomers got the broadcast");
}

#[test]
fn join_survives_contact_crash_with_multiple_contacts() {
    let mut engine = params(20, 6).build_engine(33);
    engine.run(3);
    // The first contact is dead; the round-robin retry reaches the second.
    engine.crash(p(0));
    engine.add_node(Lpbcast::joining(
        p(99),
        Config::builder()
            .view_size(6)
            .fanout(3)
            .join_timeout(2)
            .build(),
        1234,
        vec![p(0), p(1)],
    ));
    engine.run(12);
    let node = engine.node(p(99)).expect("present");
    assert!(
        !node.is_joining(),
        "join should succeed through the surviving contact"
    );
}

#[test]
fn unsubscribed_processes_fade_from_views() {
    // §3.4: removal is *gradual* — and contested, because subscriptions
    // are "continuously dispatched" and keep re-advertising the leaver
    // until its unsubscription record reaches everyone or goes obsolete.
    // So the meaningful comparison is against a silent crash, where no
    // unsubscription circulates at all. Any single run is a coin flip
    // (eviction churn removes stale entries on its own schedule), so the
    // directional claim is asserted over an aggregate of seeds.
    let stale_count = |graceful: bool, seed: u64| -> usize {
        let mut engine = params(30, 8).build_engine(seed);
        engine.run(10);
        if graceful {
            engine
                .node_mut(p(0))
                .unwrap()
                .unsubscribe()
                .expect("accepted");
            engine.run(4); // lame duck: spread the unsubscription
        }
        engine.remove_node(p(0));
        engine.run(20);
        engine
            .nodes()
            .filter(|(_, node)| node.view().contains(p(0)))
            .count()
    };
    let seeds = 55u64..=62;
    let after_unsubscribe: usize = seeds.clone().map(|s| stale_count(true, s)).sum();
    let after_crash: usize = seeds.map(|s| stale_count(false, s)).sum();
    assert!(
        after_unsubscribe < after_crash,
        "unsubscription must accelerate removal: {after_unsubscribe} total stale \
         entries after graceful leaves vs {after_crash} after silent crashes"
    );
    assert!(
        after_unsubscribe <= 8 * 8,
        "{after_unsubscribe} stale view entries total across 8 seeds \
         (of 8×29 views) still reference the departed process"
    );
}

#[test]
fn prioritary_processes_heal_an_engineered_partition() {
    // §4.4: "we elect a very limited set of prioritary processes, which
    // are constantly known by each process. They are periodically used to
    // 'normalize' the views". Build two islands that only the prioritary
    // mechanism can reconnect.
    // Retransmission pulls (§3.2) are enabled so the cross-island
    // dissemination check below depends on the healed topology, not on
    // every process catching the notification during its brief push
    // window — without pulls the assertion is a coin-flip on RNG streams.
    let island_config = Config::builder()
        .view_size(4)
        .fanout(2)
        .prioritary(vec![p(0)])
        .normalization_period(3)
        .retransmit_request_max(4)
        .archive_capacity(16)
        .build();
    let mut engine: Engine<Lpbcast> = Engine::builder(NetworkModel::perfect(1)).build();
    // Island A: p0..p4 (contains the prioritary process p0).
    for i in 0..5u64 {
        let members: Vec<ProcessId> = (0..5).filter(|&j| j != i).map(p).collect();
        engine.add_node(Lpbcast::with_initial_view(
            p(i),
            island_config.clone(),
            100 + i,
            members,
        ));
    }
    // Island B: p5..p9, initially knowing only each other.
    for i in 5..10u64 {
        let members: Vec<ProcessId> = (5..10).filter(|&j| j != i).map(p).collect();
        engine.add_node(Lpbcast::with_initial_view(
            p(i),
            island_config.clone(),
            100 + i,
            members,
        ));
    }
    assert!(
        engine.view_graph().is_partitioned(),
        "the engineered split must start partitioned"
    );
    engine.run(12);
    assert!(
        !engine.view_graph().is_partitioned(),
        "prioritary normalization must reconnect the islands"
    );
    // And dissemination crosses the former boundary.
    let id = engine.publish_from(p(7), "across".into());
    engine.run(12);
    assert!(
        engine.tracker().infected_count(id) >= 9,
        "event stuck in one island: {}",
        engine.tracker().infected_count(id)
    );
}

#[test]
fn without_prioritary_processes_the_islands_stay_split() {
    // Control for the healing test: no prioritary set, no reconnection —
    // a §4.4 partition is permanent ("A priori, it is not possible to
    // recover from such a partition").
    let island_config = config(4);
    let mut engine: Engine<Lpbcast> = Engine::builder(NetworkModel::perfect(1)).build();
    for i in 0..5u64 {
        let members: Vec<ProcessId> = (0..5).filter(|&j| j != i).map(p).collect();
        engine.add_node(Lpbcast::with_initial_view(
            p(i),
            island_config.clone(),
            100 + i,
            members,
        ));
    }
    for i in 5..10u64 {
        let members: Vec<ProcessId> = (5..10).filter(|&j| j != i).map(p).collect();
        engine.add_node(Lpbcast::with_initial_view(
            p(i),
            island_config.clone(),
            100 + i,
            members,
        ));
    }
    engine.run(20);
    assert!(
        engine.view_graph().is_partitioned(),
        "gossip alone cannot invent links between disjoint islands"
    );
}
