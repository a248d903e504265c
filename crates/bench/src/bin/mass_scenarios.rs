//! Mass scenario sweep: expands a protocol × generator × fault × seed
//! grid into [`ScenarioSpec`] cells, runs them rayon-parallel, and writes
//! every cell through the one scenario renderer to
//! `results/mass_scenarios.tsv` (`spec  seed  metric  value` rows).
//!
//! This is the evidence-matrix counterpart of `bench_sim`'s reference
//! scenarios: every cell is a pure function of `(spec, seed)`, so a TSV
//! row names the exact experiment that produced it — paste the spec
//! string back into `run_scenario_spec` and the numbers reproduce bit for
//! bit. The binary reads no clock, so its TSV is a pure function of the
//! grid too: CI reruns a grid under `RAYON_NUM_THREADS=1` and `cmp`s the
//! two files.
//!
//! Run with `cargo run --release -p lpbcast-bench --bin mass_scenarios`.
//! Exits 2 on an unknown label in any knob, or a size or seed count that
//! is not a positive integer, before a cell runs, and 1 if the TSV cannot
//! be written.
//!
//! Environment knobs (CI runs a miniature grid; the TSV uploaded from a
//! default run is the full grid — `results/` is a build artifact, like
//! the other figures; unset or empty reads as the default):
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

use lpbcast_bench::output::{env_usize, results_dir, write_output};
use lpbcast_sim::fault::FaultSpec;
use lpbcast_sim::{cell_json, cells_tsv, sweep_specs, ScenarioSpec};

/// The comma-separated labels in `name` (`default` when unset), each
/// resolved by `parse`. An unknown label exits 2: a silently shrunken
/// grid would read as full coverage.
fn env_labels<T>(name: &str, default: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let raw = std::env::var(name).unwrap_or_else(|_| default.to_string());
    raw.split(',')
        .map(str::trim)
        .filter(|label| !label.is_empty())
        .map(|label| {
            parse(label).unwrap_or_else(|| {
                eprintln!("! {name}: unknown label {label:?}");
                std::process::exit(2);
            })
        })
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

fn main() {
    let n = env_usize("MASS_SCENARIOS_N", 1).unwrap_or(1000);
    let seed_count = env_usize("MASS_SCENARIOS_SEEDS", 1).unwrap_or(2) as u64;
    let protocols = env_labels("MASS_SCENARIOS_PROTOCOLS", "lpbcast,pbcast", |label| {
        label.parse().ok()
    });
    let generators = env_labels(
        "MASS_SCENARIOS_GENERATORS",
        "churn,catastrophe,partition,repeated_partitions,flash_crowd,byzantine_droppers",
        |label| label.parse().ok(),
    );
    let faults = env_labels("MASS_SCENARIOS_FAULTS", "none,noisy_links", fault_preset);

    let mut cells: Vec<(ScenarioSpec, u64)> = Vec::new();
    for &proto in &protocols {
        for &generator in &generators {
            for &fault in &faults {
                let spec = ScenarioSpec {
                    fault,
                    ..ScenarioSpec::new(proto, generator, n)
                };
                cells.extend((1..=seed_count).map(|seed| (spec, seed)));
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

    let reports = sweep_specs(&cells);
    for ((spec, seed), report) in cells.iter().zip(&reports) {
        println!("  {}", cell_json(spec, *seed, report));
    }

    let path = results_dir().join("mass_scenarios.tsv");
    if !write_output(&path, &cells_tsv(&cells, &reports)) {
        std::process::exit(1);
    }
}
