//! The six load generators in miniature, run side by side for lpbcast
//! and the pbcast baseline: deterministic, env-tunable, printable through
//! the one scenario renderer — the CI smoke run for
//! `lpbcast_sim::scenario` (the full-scale n = 10⁴ suite runs in
//! `bench_sim` and lands in `BENCH_sim.json` + `results/scenarios.tsv`).
//!
//! ```sh
//! cargo run --release --example scenario_suite
//! LPBCAST_SCENARIO_N=64 LPBCAST_SCENARIO_SEED=3 cargo run --release --example scenario_suite
//! LPBCAST_SCENARIO_PROTOCOL=pbcast cargo run --release --example scenario_suite
//! ```
//!
//! `LPBCAST_SCENARIO_PROTOCOL` picks one stack by its `ProtocolKind`
//! label (`lpbcast`, `pbcast`, `swim+lpbcast`, `swim+pbcast`) or `both`
//! (default: lpbcast and pbcast): a scenario is a timeline run by one
//! generic driver, so every stack goes through the identical code. Each
//! printed row's `spec` column names the exact experiment — paste it back
//! into `run_scenario_spec` (or a `results/mass_scenarios.tsv` row) and
//! the numbers reproduce bit for bit.

use lpbcast::sim::{cells_tsv, sweep_specs, ProtocolKind, ScenarioGenerator, ScenarioSpec};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn main() {
    use ScenarioGenerator::{
        ByzantineDroppers, Catastrophe, Churn, FlashCrowd, Partition, RepeatedPartitions,
    };
    // Floor of 16: the partition scenario needs two meaningful halves
    // and the churn cohort sizes derive from n.
    let n = env_usize("LPBCAST_SCENARIO_N", 300).max(16);
    let seed = env_usize("LPBCAST_SCENARIO_SEED", 1) as u64;
    let protocol =
        std::env::var("LPBCAST_SCENARIO_PROTOCOL").unwrap_or_else(|_| "both".to_string());
    println!("scenario suite at n={n}, seed {seed}, protocol {protocol}\n");

    let stacks: Vec<ProtocolKind> = match protocol.as_str() {
        "both" => vec![ProtocolKind::Lpbcast, ProtocolKind::Pbcast],
        label => vec![label.parse().unwrap_or_else(|e| {
            panic!("LPBCAST_SCENARIO_PROTOCOL must be a protocol label or `both`: {e}")
        })],
    };
    let generators = [
        Churn,
        Catastrophe,
        Partition,
        RepeatedPartitions,
        FlashCrowd,
        ByzantineDroppers,
    ];
    let cells: Vec<(ScenarioSpec, u64)> = stacks
        .iter()
        .flat_map(|&proto| {
            generators.map(|generator| (ScenarioSpec::new(proto, generator, n), seed))
        })
        .collect();
    let reports = sweep_specs(&cells);
    print!("{}", cells_tsv(&cells, &reports));

    for ((spec, _), report) in cells.iter().zip(&reports) {
        let (holds, what) = match spec.generator {
            Churn => (
                report["joins_completed"].value() > 0.0 && report["leaves_completed"].value() > 0.0,
                "churn actually happened",
            ),
            Catastrophe => (
                report.recovery_rounds.is_some(),
                "dissemination must recover",
            ),
            Partition => (
                report["rounds_to_connect"].rounds().is_some(),
                "bridges must reconnect the membership",
            ),
            _ => (report.reliability_mean > 0.5, "the cell must not collapse"),
        };
        assert!(holds, "{what}: {spec} -> {report:?}");
    }
}
