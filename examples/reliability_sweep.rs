//! A miniature of the paper's Figure 6(b): sweep the `|eventIds|m` bound
//! and watch the delivery reliability respond — the cost of bounding the
//! only structure that remembers what has been delivered.
//!
//! ```sh
//! cargo run --release --example reliability_sweep
//! ```
//! (release strongly recommended; debug builds are ~20× slower)

use lpbcast::core::Config;
use lpbcast::sim::experiment::{
    reliability, InitialTopology, LpbcastSimParams, ReliabilityRun, Sweep,
};

/// CI smoke-run knobs: `LPBCAST_EXAMPLE_SEEDS` caps the seed count,
/// `LPBCAST_EXAMPLE_POINTS` the number of swept `|eventIds|m` values.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(default)
}

fn main() {
    let n = 80;
    let seed_count = env_usize("LPBCAST_EXAMPLE_SEEDS", 3);
    let seeds: Vec<u64> = (1..=seed_count as u64).collect();
    let run = ReliabilityRun {
        warmup: 8,
        publish_rounds: 15,
        rate: 25,
        drain: 10,
    };
    println!(
        "n = {n}, rate = {} events/round, l = 12, F = 3, {} seeds\n",
        run.rate,
        seeds.len()
    );
    println!("|eventIds|m  reliability  bar");
    let all_points = [8usize, 16, 24, 40, 60, 90, 120];
    let points =
        &all_points[..env_usize("LPBCAST_EXAMPLE_POINTS", all_points.len()).min(all_points.len())];
    for &ids_max in points {
        let params = LpbcastSimParams {
            n,
            config: Config::builder()
                .view_size(12)
                .fanout(3)
                .event_ids_max(ids_max)
                .events_max(60)
                .deliver_on_digest(true)
                .build(),
            loss_rate: 0.05,
            tau: 0.01,
            rounds: 0, // overridden by the run shape
            topology: InitialTopology::UniformRandom,
        };
        let reliability = reliability(Sweep::Pool, &params, &run, &seeds);
        println!(
            "{ids_max:>11}  {reliability:>11.3}  {}",
            "#".repeat((reliability * 50.0) as usize)
        );
    }
    println!(
        "\nthe id of a notification only disseminates while it sits in the\n\
         bounded eventIds buffer — small buffers cut the epidemic short\n\
         (paper §5.2, Figure 6(b))"
    );
}
