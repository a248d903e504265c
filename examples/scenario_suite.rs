//! The six scenario generators in miniature, run side by side for
//! lpbcast and the pbcast baseline: deterministic,
//! env-tunable, printable — the CI smoke run for
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
//! generic driver, so every stack goes through the identical code.

use lpbcast::sim::{
    run_scenario_spec, scenarios_tsv, ProtocolKind, ScenarioGenerator, ScenarioReport, ScenarioSpec,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn run_one(proto: ProtocolKind, n: usize, seed: u64) -> [ScenarioReport; 3] {
    let run = |generator| run_scenario_spec(&ScenarioSpec::new(proto, generator, n), seed);

    let churn = run(ScenarioGenerator::Churn);
    println!(
        "[{proto}] churn: {}/{} joins completed, {} leaves ({} refused), {} members at end,\n\
         \u{20}         reliability mean {:.4} / min {:.4} over {} events, partitioned: {}",
        churn["joins_completed"],
        churn["joins_attempted"],
        churn["leaves_completed"],
        churn["leaves_refused"],
        churn["final_members"],
        churn["mean_reliability"],
        churn["min_reliability"],
        churn["events_measured"],
        churn["partitioned_at_end"]
    );
    assert!(
        churn["joins_completed"].value() > 0.0 && churn["leaves_completed"].value() > 0.0,
        "churn actually happened: {churn:?}"
    );

    let catastrophe = run(ScenarioGenerator::Catastrophe);
    println!(
        "[{proto}] catastrophe: {} of {} crashed in one round; reliability {:.4} -> {:.4},\n\
         \u{20}         latency {:.2} -> {:.2} rounds, 99% of survivors re-reached in {:?} rounds",
        catastrophe["crashed"],
        catastrophe.n,
        catastrophe["reliability_before"],
        catastrophe["reliability_after"],
        catastrophe["latency_before_rounds"],
        catastrophe["latency_after_rounds"],
        catastrophe.recovery_rounds
    );
    assert!(
        catastrophe.recovery_rounds.is_some(),
        "dissemination must recover: {catastrophe:?}"
    );

    let partition = run(ScenarioGenerator::Partition);
    println!(
        "[{proto}] partition: {} components (largest {}) -> connected in {:?} rounds,\n\
         \u{20}         fully healed (one SCC) in {:?} rounds, post-heal reliability {:.4}\n",
        partition["components_before"],
        partition["largest_component_before"],
        partition["rounds_to_connect"].rounds(),
        partition.recovery_rounds,
        partition["post_heal_reliability"]
    );
    assert!(
        partition["rounds_to_connect"].rounds().is_some(),
        "bridges must reconnect the membership: {partition:?}"
    );
    [churn, catastrophe, partition]
}

fn main() {
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
    let reports: Vec<ScenarioReport> = stacks
        .iter()
        .flat_map(|&proto| run_one(proto, n, seed))
        .collect();

    println!("{}", scenarios_tsv(&reports));

    // The other three generators. Each cell is a ScenarioSpec whose
    // string form names the exact experiment — paste it back into
    // `run_scenario_spec` (or a `results/mass_scenarios.tsv` row) and
    // the numbers reproduce bit for bit.
    println!("── declarative spec cells (new generators) ──");
    for proto in stacks {
        for generator in [
            ScenarioGenerator::RepeatedPartitions,
            ScenarioGenerator::FlashCrowd,
            ScenarioGenerator::ByzantineDroppers,
        ] {
            let spec = ScenarioSpec::new(proto, generator, n);
            let report = run_scenario_spec(&spec, seed);
            println!(
                "[{spec};seed={seed}]\n\u{20}         reliability {:.4} (min {:.4}), recovery {:?}, wire {:.1} KB/round",
                report.reliability_mean,
                report.reliability_min,
                report.recovery_rounds,
                report.wire_bytes_per_round() / 1e3
            );
            assert!(
                report.reliability_mean > 0.5,
                "spec cell collapsed: {spec} -> {report:?}"
            );
        }
    }
}
