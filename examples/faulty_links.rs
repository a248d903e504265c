//! The deterministic fault-injection plane and the SWIM failure-detector
//! A/B in miniature: the same crash-detection and no-crash noise cells
//! run on a `swim+` stack and on the bare one under named [`FaultSpec`]
//! models — every cell printed through the one scenario renderer (its
//! `spec` column is the replayable spec string), env-tunable, the CI
//! smoke run for `lpbcast_sim::{fault, detector}` (the full-scale
//! n = 10⁴ study runs in `bench_sim` and lands in `BENCH_sim.json` +
//! `results/scenarios.tsv`).
//!
//! ```sh
//! cargo run --release --example faulty_links
//! LPBCAST_DETECTOR_N=500 LPBCAST_DETECTOR_SEED=3 cargo run --release --example faulty_links
//! ```

use lpbcast::sim::fault::FaultSpec;
use lpbcast::sim::{cells_tsv, detector_cells, sweep_specs, ProtocolKind, ScenarioGenerator};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn main() {
    let n = env_usize("LPBCAST_DETECTOR_N", 300).max(40);
    let seed = env_usize("LPBCAST_DETECTOR_SEED", 1) as u64;

    // The named fault models are plain strings — stable, diffable,
    // reconstructible: `FaultSpec` round-trips through `Display`/`FromStr`.
    for spec in [FaultSpec::noisy_links(seed), FaultSpec::slow_cohort(seed)] {
        let text = spec.to_string();
        let back: FaultSpec = text.parse().expect("spec round-trips");
        assert_eq!(spec, back);
        println!("fault model: {text}");
    }
    println!();

    let cells = detector_cells(n, seed);
    let reports = sweep_specs(&cells);
    print!("{}", cells_tsv(&cells, &reports));

    // The cells come in on/off pairs; the invariants are the `swim+` arm's.
    for ((spec, _), on) in cells.iter().zip(&reports).step_by(2) {
        match spec.generator {
            ScenarioGenerator::Detection => {
                assert!(
                    on["evictions"].value() > 0.0,
                    "the crash cohort must get confirmed: {spec} {on:?}"
                );
                assert!(
                    on["probe_reliability"].value() > 0.95,
                    "dissemination must recover with the detector on: {spec} {on:?}"
                );
                // Reaching 99% of the survivors inside the cap is what the
                // lpbcast cells promise; for swim+pbcast it is a measurement
                // (163 of 165 survivors at n = 300, seed 1 — a miss).
                assert!(
                    on.recovery_rounds.is_some() || spec.protocol == ProtocolKind::SwimPbcast,
                    "the recovery probe must make its cap: {spec} {on:?}"
                );
            }
            // Nobody crashed: every eviction is a detector mistake.
            ScenarioGenerator::NoiseWindow => {
                assert_eq!(on["evictions"], on["false_evictions"], "{spec} {on:?}");
            }
            _ => assert!(
                on.reliability_mean > 0.5,
                "churn must keep disseminating through the wrapper: {spec} {on:?}"
            ),
        }
    }
}
