//! The deterministic fault-injection plane and the SWIM failure-detector
//! A/B in miniature: the same crash-detection and no-crash noise cells
//! run on a `swim+` stack and on the bare one under named [`FaultSpec`]
//! models — every arm a printable `ScenarioSpec` string, env-tunable,
//! the CI smoke run for `lpbcast_sim::{fault, detector}` (the full-scale
//! n = 10⁴ study runs in `bench_sim` and lands in `BENCH_sim.json` +
//! `results/detector.tsv`).
//!
//! ```sh
//! cargo run --release --example faulty_links
//! LPBCAST_DETECTOR_N=500 LPBCAST_DETECTOR_SEED=3 cargo run --release --example faulty_links
//! ```

use lpbcast::sim::detector::{detector_study, detector_tsv};
use lpbcast::sim::fault::FaultSpec;
use lpbcast::sim::{ProtocolKind, ScenarioGenerator};

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

    let study = detector_study(n, seed);
    let (churn, pairs) = study.split_last().expect("the study ends with churn");

    for r in pairs {
        let (on, off) = (&r.on, &r.off);
        println!("[{} / {}] {};seed={seed}", r.scenario, r.fault, r.spec);
        println!(
            "           recovery {:?} -> {:?} rounds, probe reliability {:.4} -> {:.4}",
            off.recovery_rounds,
            on.recovery_rounds,
            off["probe_reliability"],
            on["probe_reliability"],
        );
        println!(
            "           detector: {} evictions ({} false), {} suspicions, {} refuted",
            on["evictions"], on["false_evictions"], on["suspicions"], on["refutations"],
        );
        if r.spec.generator == ScenarioGenerator::Detection {
            assert!(
                on["evictions"].value() > 0.0,
                "the crash cohort must get confirmed: {r:?}"
            );
            assert!(
                on["probe_reliability"].value() > 0.95,
                "dissemination must recover with the detector on: {r:?}"
            );
            // Reaching 99% of the survivors inside the cap is what the
            // lpbcast cells promise; for swim+pbcast it is a measurement
            // (163 of 165 survivors at n = 300, seed 1 — a miss).
            assert!(
                on.recovery_rounds.is_some() || r.spec.protocol == ProtocolKind::SwimPbcast,
                "the recovery probe must make its cap: {r:?}"
            );
        } else {
            // Nobody crashed: every eviction is a detector mistake.
            assert_eq!(on["evictions"], on["false_evictions"], "{r:?}");
        }
    }
    println!(
        "\n[churn] mean reliability with/without detector: {:.4} / {:.4}, joins {} / {}",
        churn.on.reliability_mean,
        churn.off.reliability_mean,
        churn.on["joins_completed"],
        churn.off["joins_completed"],
    );
    assert!(
        churn.on.reliability_mean > 0.5,
        "churn must keep disseminating through the wrapper"
    );

    println!("\n{}", detector_tsv(&study));
}
