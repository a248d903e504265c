//! Quickstart: simulate a 64-process lpbcast group, broadcast one event,
//! and watch the infection spread round by round.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lpbcast::sim::experiment::{LpbcastSimParams, SimParams};
use lpbcast::types::ProcessId;

/// `LPBCAST_EXAMPLE_N` overrides the system size (CI smoke-runs shrink it).
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 8)
        .unwrap_or(default)
}

fn main() {
    // The paper's defaults: fanout F = 3, view size l = 15, message loss
    // ε = 0.05, crash fraction τ = 0.01 (§4.1, §5.2).
    let n = env_usize("LPBCAST_EXAMPLE_N", 64);
    let params = LpbcastSimParams::paper_defaults(n).rounds(12);
    let mut engine = params.build_engine(2026);

    // LPB-CAST from process 0.
    let id = engine.publish_from(ProcessId::new(0), "hello".into());
    println!("process p0 broadcast event {id}\n");
    println!("round  infected  bar");

    for round in 1..=12 {
        engine.step();
        let infected = engine.tracker().infected_count(id);
        println!(
            "{round:>5}  {infected:>8}  {}",
            "#".repeat(infected * 60 / n)
        );
        if infected == n {
            println!("\nall {n} processes infected after {round} rounds");
            break;
        }
    }

    let graph = engine.view_graph();
    let stats = graph.in_degree_stats();
    println!(
        "\nmembership: every process knows at most l = {} others;\n\
         in-degree over the view graph: mean {:.1}, min {}, max {} (ideal = l)",
        params.config.view_size, stats.mean, stats.min, stats.max
    );
    println!(
        "partitioned? {} (§4.4 predicts astronomically unlikely)",
        graph.is_partitioned()
    );
}
