//! Mass scenario sweep: expands a protocol × generator × fault × seed
//! grid into [`ScenarioSpec`] cells, runs them rayon-parallel with a
//! bit-identical serial reference, and writes one TSV row per
//! `(spec, seed)` to `results/mass_scenarios.tsv`.
//!
//! This is the evidence-matrix counterpart of `bench_sim`'s three
//! reference scenarios: every cell is a pure function of
//! `(spec, seed)`, so a TSV row names the exact experiment
//! that produced it — paste the spec string back into
//! `run_scenario_spec` and the numbers reproduce bit for bit.
//!
//! Run with `cargo run --release -p lpbcast-bench --bin mass_scenarios`.
//!
//! Environment knobs (CI runs a miniature grid; the TSV uploaded from a
//! default run is the full grid — `results/` is a build artifact, like
//! the other figures):
//!
//! * `MASS_SCENARIOS_N` — system size of every cell (default 1000).
//! * `MASS_SCENARIOS_SEEDS` — seeds per spec, numbered 1.. (default 2).
//! * `MASS_SCENARIOS_PROTOCOLS` — comma-separated protocol labels
//!   (default `lpbcast,pbcast`; also accepts `swim+lpbcast`,
//!   `swim+pbcast`).
//! * `MASS_SCENARIOS_GENERATORS` — comma-separated generator labels
//!   (default the six load generators: `churn,catastrophe,partition,
//!   repeated_partitions,flash_crowd,byzantine_droppers`; the SWIM
//!   detector A/B cells `detection,noise_window` are accepted too).
//! * `MASS_SCENARIOS_FAULTS` — comma-separated fault presets applied
//!   to every cell: `none`, `noisy_links`, `slow_cohort`,
//!   `silent_droppers` (default `none,noisy_links`).
//!
//! The harness re-runs the whole grid serially and exits non-zero if
//! any parallel report differs from the serial reference — the same
//! strict determinism contract as `bench_sim`'s shard check.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lpbcast_sim::fault::FaultSpec;
use lpbcast_sim::{
    sweep_specs, sweep_specs_serial, ProtocolKind, ScenarioGenerator, ScenarioReport, ScenarioSpec,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn env_list(name: &str, default: &str) -> Vec<String> {
    let raw = std::env::var(name).unwrap_or_else(|_| default.to_string());
    raw.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

/// Resolves a fault-preset label; the preset seed is fixed per label so
/// the fault cohort is part of the cell's identity (the plane is still
/// re-salted by the run seed).
fn fault_preset(label: &str) -> Option<Option<FaultSpec>> {
    match label {
        "none" => Some(None),
        "noisy_links" => Some(Some(FaultSpec::noisy_links(1))),
        "slow_cohort" => Some(Some(FaultSpec::slow_cohort(1))),
        "silent_droppers" => Some(Some(FaultSpec::silent_droppers(1))),
        _ => None,
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One TSV row per `(spec, seed)` cell. `recovery_rounds` renders as
/// `-` for generators without a recovery metric (churn) and as `never`
/// when a measurement blew its cap — both are schema-checked.
fn tsv(cells: &[(ScenarioSpec, u64)], fault_labels: &[&str], reports: &[ScenarioReport]) -> String {
    let mut out = String::from(
        "spec\tprotocol\tgenerator\tn\tfault\tseed\treliability_mean\treliability_min\trecovery_rounds\twire_bytes_per_round\trounds\n",
    );
    for (((spec, seed), fault), report) in cells.iter().zip(fault_labels).zip(reports) {
        let recovery = match (report.generator, report.recovery_rounds) {
            (ScenarioGenerator::Churn, _) => "-".to_string(),
            (_, Some(r)) => r.to_string(),
            (_, None) => "never".to_string(),
        };
        let _ = writeln!(
            out,
            "{spec}\t{}\t{}\t{}\t{fault}\t{seed}\t{:.5}\t{:.5}\t{recovery}\t{:.1}\t{}",
            report.protocol,
            report.generator,
            report.n,
            report.reliability_mean,
            report.reliability_min,
            report.wire_bytes_per_round(),
            report.rounds,
        );
    }
    out
}

#[expect(
    clippy::disallowed_methods,
    reason = "D2 waiver: times the parallel and serial sweeps for the console line only; no result reads it"
)]
fn main() {
    let n = env_usize("MASS_SCENARIOS_N", 1000);
    let seed_count = env_usize("MASS_SCENARIOS_SEEDS", 2) as u64;
    let protocols = env_list("MASS_SCENARIOS_PROTOCOLS", "lpbcast,pbcast");
    let generators = env_list(
        "MASS_SCENARIOS_GENERATORS",
        "churn,catastrophe,partition,repeated_partitions,flash_crowd,byzantine_droppers",
    );
    let faults = env_list("MASS_SCENARIOS_FAULTS", "none,noisy_links");

    // Expand the grid. Unknown labels are configuration errors, not
    // skips — a silently shrunken grid would read as full coverage.
    let mut cells: Vec<(ScenarioSpec, u64)> = Vec::new();
    let mut fault_labels: Vec<&str> = Vec::new();
    for proto in &protocols {
        let proto: ProtocolKind = proto.parse().unwrap_or_else(|e| {
            eprintln!("! MASS_SCENARIOS_PROTOCOLS: {e}");
            std::process::exit(2);
        });
        for generator in &generators {
            let generator: ScenarioGenerator = generator.parse().unwrap_or_else(|e| {
                eprintln!("! MASS_SCENARIOS_GENERATORS: {e}");
                std::process::exit(2);
            });
            for fault in &faults {
                let Some(preset) = fault_preset(fault) else {
                    eprintln!("! MASS_SCENARIOS_FAULTS: unknown preset {fault:?}");
                    std::process::exit(2);
                };
                let mut spec = ScenarioSpec::new(proto, generator, n);
                spec.fault = preset;
                for seed in 1..=seed_count {
                    cells.push((spec, seed));
                    fault_labels.push(fault.as_str());
                }
            }
        }
    }
    println!(
        "mass_scenarios: {} cells ({} protocols x {} generators x {} faults x {} seeds), n={n}, {} threads",
        cells.len(),
        protocols.len(),
        generators.len(),
        faults.len(),
        seed_count,
        rayon::current_num_threads()
    );

    let t = Instant::now();
    let reports = sweep_specs(&cells);
    let parallel_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let serial = sweep_specs_serial(&cells);
    let serial_secs = t.elapsed().as_secs_f64();
    let identical = reports == serial;
    println!(
        "sweep: parallel {parallel_secs:.2} s, serial reference {serial_secs:.2} s -> {}",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    for ((spec, seed), report) in cells.iter().zip(&reports) {
        println!(
            "  [{spec};seed={seed}] reliability {:.4} (min {:.4}), recovery {:?}, wire {:.1} KB/round",
            report.reliability_mean,
            report.reliability_min,
            report.recovery_rounds,
            report.wire_bytes_per_round() / 1e3
        );
    }

    let results_dir = workspace_root().join("results");
    let path = results_dir.join("mass_scenarios.tsv");
    let write = std::fs::create_dir_all(&results_dir)
        .and_then(|()| std::fs::write(&path, tsv(&cells, &fault_labels, &reports)));
    match write {
        Ok(()) => println!("→ {}", path.display()),
        Err(e) => eprintln!("! could not write results/mass_scenarios.tsv: {e}"),
    }

    if !identical {
        eprintln!(
            "! sweep determinism check FAILED: the rayon sweep diverged from the serial \
             reference — the TSV was written for inspection, exiting non-zero"
        );
        std::process::exit(1);
    }
}
