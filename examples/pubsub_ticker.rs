//! Topic-based publish/subscribe on top of lpbcast — the application the
//! paper built (§1, §3.1: *"Π can be considered as a single topic or
//! group, and joining/leaving Π can be viewed as subscribing/unsubscribing
//! from the topic"*).
//!
//! Ten traders subscribe to overlapping market-data topics; each topic is
//! its own gossip group, multiplexed over one `PubSubNode` per trader.
//!
//! ```sh
//! cargo run --example pubsub_ticker
//! ```

use lpbcast::core::Config;
use lpbcast::pubsub::{PubSubCluster, PubSubNode, TopicId};
use lpbcast::types::ProcessId;

fn main() {
    let p = ProcessId::new;
    let tech = TopicId::new("stocks/tech");
    let energy = TopicId::new("stocks/energy");
    let fx = TopicId::new("fx/eurusd");

    // Subscription matrix: (topic, subscriber set).
    let rosters: Vec<(&TopicId, Vec<u64>)> = vec![
        (&tech, (0..6).collect()),
        (&energy, (3..9).collect()),
        (&fx, vec![0, 2, 4, 6, 8]),
    ];
    let config = Config::builder()
        .view_size(6)
        .fanout(3)
        .event_ids_max(256)
        .events_max(256)
        .retransmit_request_max(8)
        .archive_capacity(512)
        .build();

    let mut cluster = PubSubCluster::new(0.05, 7);
    for i in 0..10u64 {
        let mut node = PubSubNode::new(p(i), config.clone(), 100 + i);
        for (topic, roster) in &rosters {
            if roster.contains(&i) {
                let peers: Vec<ProcessId> =
                    roster.iter().copied().filter(|&j| j != i).map(p).collect();
                node.subscribe_bootstrap(topic, peers);
            }
        }
        println!(
            "trader p{i} subscribes to: {}",
            node.topics()
                .map(TopicId::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        cluster.add_node(node);
    }

    // Publishers emit ticks into their topics.
    let ticks = [
        (&tech, 0u64, "AAPL 191.20"),
        (&tech, 5, "NVDA 1190.05"),
        (&energy, 3, "BRENT 82.11"),
        (&energy, 8, "WTI 78.40"),
        (&fx, 4, "EURUSD 1.0841"),
    ];
    println!();
    let mut published = Vec::new();
    for &(topic, origin, quote) in &ticks {
        let id = cluster
            .publish(p(origin), topic, quote)
            .expect("subscribed");
        println!("p{origin} published {quote:?} on {topic} as {id}");
        published.push((topic.clone(), id, quote));
    }

    cluster.run(12);

    // A latecomer joins one topic mid-stream (§3.4 handshake).
    println!("\np9 subscribes late to {tech} via contact p0");
    cluster
        .node_mut(p(9))
        .unwrap()
        .subscribe_via(&tech, vec![p(0)]);
    cluster.run(8);
    let late_tick = cluster
        .publish(p(1), &tech, "MSFT 428.90")
        .expect("subscribed");
    cluster.run(10);

    println!("\ndelivery report:");
    for (topic, id, quote) in &published {
        println!(
            "  {topic:<14} {quote:<15} → {} subscribers",
            cluster.delivered_to(topic, *id)
        );
    }
    println!(
        "  {tech:<14} {:<15} → {} subscribers (incl. late p9: {})",
        "MSFT 428.90",
        cluster.delivered_to(&tech, late_tick),
        cluster.has_delivered(p(9), &tech, late_tick)
    );

    // Every tick reached every trader on its topic's roster, and the
    // latecomer got the tick published after it joined.
    let roster_of = |topic: &TopicId| {
        rosters
            .iter()
            .find(|(t, _)| *t == topic)
            .map(|(_, roster)| roster.as_slice())
            .expect("every tick is on a listed topic")
    };
    for (topic, id, quote) in published
        .iter()
        .chain([&(tech.clone(), late_tick, "MSFT 428.90")])
    {
        for &trader in roster_of(topic) {
            assert!(
                cluster.has_delivered(p(trader), topic, *id),
                "p{trader} missed {quote:?} on {topic}"
            );
        }
    }
    assert!(
        cluster.has_delivered(p(9), &tech, late_tick),
        "late subscriber p9 missed the MSFT tick"
    );
}
