//! Churn: processes join through the §3.4 subscription handshake and
//! leave through timestamped unsubscriptions, while broadcasts keep
//! flowing and the view graph stays connected.
//!
//! ```sh
//! cargo run --example churn
//! ```

use lpbcast::core::{Config, Lpbcast};
use lpbcast::membership::View as _;
use lpbcast::sim::experiment::{InitialTopology, LpbcastSimParams, SimParams};
use lpbcast::types::ProcessId;

/// `LPBCAST_EXAMPLE_N` overrides the bootstrap size (CI smoke-runs
/// shrink it; the join/leave cohorts and the post-churn publisher p20
/// stay fixed, so the floor is 12 — p20 must exist after the joins).
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 12)
        .unwrap_or(default)
}

fn main() {
    let p = ProcessId::new;
    let config = Config::builder()
        .view_size(8)
        .fanout(3)
        .event_ids_max(256)
        .events_max(256)
        .unsub_obsolescence(30)
        .build();
    let n0 = env_u64("LPBCAST_EXAMPLE_N", 30);
    let params = LpbcastSimParams {
        n: n0 as usize,
        config: config.clone(),
        loss_rate: 0.05,
        tau: 0.0,
        rounds: 100,
        topology: InitialTopology::UniformRandom,
    };
    let mut engine = params.build_engine(99);
    engine.run(5);
    report(&engine, "after bootstrap");

    // ── 10 newcomers join through random contacts (§3.4) ────────────────
    for i in 0..10u64 {
        let newcomer = p(n0 + i);
        let contact = p(i % n0);
        engine.add_node(Lpbcast::joining(
            newcomer,
            config.clone(),
            7000 + i,
            vec![contact],
        ));
        println!("{newcomer} joining via contact {contact}");
    }
    engine.run(8);
    let joined = (0..10u64)
        .filter(|&i| {
            engine
                .node(p(n0 + i))
                .is_some_and(|node| !node.is_joining())
        })
        .count();
    println!("\n{joined}/10 newcomers completed the join handshake");
    report(&engine, "after joins");

    // A broadcast reaches old and new members alike.
    let id = engine.publish_from(p(0), "welcome".into());
    engine.run(10);
    println!(
        "broadcast {id} reached {}/{} members",
        engine.tracker().infected_count(id),
        engine.alive_count()
    );

    // ── 8 members leave gracefully (timestamped unsubscriptions) ────────
    for i in 0..8u64 {
        let leaver = p(i);
        if let Some(node) = engine.node_mut(leaver) {
            match node.unsubscribe() {
                Ok(()) => println!("{leaver} unsubscribed"),
                Err(e) => println!("{leaver} refused: {e}"),
            }
        }
    }
    // Lame-duck rounds: the leavers keep gossiping so their
    // unsubscriptions spread, then they actually depart.
    engine.run(4);
    for i in 0..8u64 {
        engine.remove_node(p(i));
    }
    engine.run(10);
    report(&engine, "after departures");

    // How many surviving views still reference the departed processes?
    let stale: usize = engine
        .nodes()
        .map(|(_, node)| {
            node.view()
                .members()
                .iter()
                .filter(|m| m.as_u64() < 8)
                .count()
        })
        .sum();
    println!("stale view entries referencing departed processes: {stale}");

    // Dissemination still works in the churned system.
    let id = engine.publish_from(p(20), "still here".into());
    engine.run(10);
    println!(
        "post-churn broadcast reached {}/{} members",
        engine.tracker().infected_count(id),
        engine.alive_count()
    );
}

fn report(engine: &lpbcast::sim::Engine<Lpbcast>, label: &str) {
    let graph = engine.view_graph();
    let stats = graph.in_degree_stats();
    println!(
        "[{label}] members: {}, partitioned: {}, in-degree mean {:.1} (min {}, max {})\n",
        engine.alive_count(),
        graph.is_partitioned(),
        stats.mean,
        stats.min,
        stats.max
    );
}
