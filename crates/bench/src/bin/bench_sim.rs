//! Deterministic science report: the scaling study (latency /
//! reliability / wire cost vs n) and one sweep of scenario cells — the
//! churn / catastrophe / partition suite per stack, the optional XL
//! catastrophe and the SWIM detector A/B — written to `BENCH_sim.json`
//! at the workspace root and to `results/{scaling,scenarios}.tsv`
//! (README "Reading `BENCH_sim.json`" documents the sections). Every
//! cell goes through the one renderer: `cell_json` into the JSON's
//! `cells`, `cells_tsv` into `results/scenarios.tsv`.
//!
//! Every byte of every output is a pure function of (code, sizes, seed):
//! the binary reads no clock and records nothing about the host, so two
//! runs — on any machine, at any rayon pool size — `cmp` equal. Wall
//! clock is `lpbench`'s job (`lpbench/README.md`).
//!
//! Run with `cargo run --release -p lpbcast-bench --bin bench_sim`.
//! Exits 2, before anything runs, on an unknown
//! `BENCH_SIM_SCENARIO_PROTOCOLS` label or a size knob that is not an
//! integer (a scaling size below 8, a system size of 0); exits 1 if an
//! output could not be written (after attempting every output).
//!
//! Environment knobs (system sizes and the protocol list — none changes
//! what a row means; unset or empty reads as the default):
//!
//! * `BENCH_SIM_SCALE_NS` — comma-separated system sizes of the scaling
//!   study, each at least 8 (default `125,1000,10000`).
//! * `BENCH_SIM_SCENARIO_N` — system size of the churn / catastrophe /
//!   partition scenario suite (default 10000).
//! * `BENCH_SIM_SCENARIO_PROTOCOLS` — comma-separated protocols the
//!   scenario suite runs (`lpbcast,pbcast` by default; the suite is
//!   generic over `ScenarioProtocol`, so both stacks produce
//!   side-by-side cells; `swim+lpbcast` / `swim+pbcast` run the
//!   SWIM-wrapped stacks).
//! * `BENCH_SIM_DETECTOR_N` — system size of the SWIM failure-detector
//!   A/B cells (default 10000; the committed snapshot records the
//!   full-scale run, CI uses a small n).
//! * `BENCH_SIM_SCALE_XL_NS` — comma-separated *extra-large* system
//!   sizes, each at least 8, for the env-gated `scaling_xl` section
//!   (default none; run locally with `BENCH_SIM_SCALE_XL_NS=100000`).
//! * `BENCH_SIM_SCENARIO_XL_N` — system size of the env-gated XL
//!   catastrophe cell (default none).

use std::path::{Path, PathBuf};

use lpbcast_bench::output::{env_usize, env_usizes, write_output};
use lpbcast_sim::scale::{scaling_study, scaling_tsv, ScalePoint};
use lpbcast_sim::{
    cell_json, cells_tsv, detector_cells, sweep_specs, ProtocolKind, ScenarioGenerator,
    ScenarioSpec,
};

/// The smallest system size the scaling study accepts.
const MIN_SCALE_N: usize = 8;

/// Every scenario cell of the report, each once, at seed 1: the churn /
/// catastrophe / partition suite per `BENCH_SIM_SCENARIO_PROTOCOLS`
/// stack, the env-gated XL catastrophe, then the detector A/B. Exits 2
/// on an unknown protocol label or a malformed size.
fn report_cells() -> Vec<(ScenarioSpec, u64)> {
    use ScenarioGenerator::{Catastrophe, Churn, Partition};
    let labels =
        std::env::var("BENCH_SIM_SCENARIO_PROTOCOLS").unwrap_or_else(|_| "lpbcast,pbcast".into());
    let protocols: Vec<ProtocolKind> = labels
        .split(',')
        .map(str::trim)
        .filter(|label| !label.is_empty())
        .map(|label| {
            label.parse().unwrap_or_else(|e| {
                eprintln!("! BENCH_SIM_SCENARIO_PROTOCOLS: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    let n = env_usize("BENCH_SIM_SCENARIO_N", 1).unwrap_or(10_000);
    let suite = protocols
        .into_iter()
        .flat_map(|p| [Churn, Catastrophe, Partition].map(|g| ScenarioSpec::new(p, g, n)));
    let xl = env_usize("BENCH_SIM_SCENARIO_XL_N", 1)
        .map(|xl_n| ScenarioSpec::new(ProtocolKind::Lpbcast, Catastrophe, xl_n));
    let detector = detector_cells(env_usize("BENCH_SIM_DETECTOR_N", 1).unwrap_or(10_000), 1);
    let mut cells = Vec::new();
    // A repeated protocol, or a detector arm equal to a suite cell, is
    // the same experiment: run and render it once.
    for cell in suite.chain(xl).map(|spec| (spec, 1)).chain(detector) {
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    cells
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The body of a JSON array: one element per line, indented into a
/// top-level section.
fn json_rows(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.map(|row| format!("    {row}")).collect();
    let mut out = rows.join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// The JSON array body of a `scaling` / `scaling_xl` section.
fn scaling_json_rows(points: &[ScalePoint]) -> String {
    json_rows(points.iter().map(|p| {
        format!(
            "{{\"n\": {}, \"view_size\": {}, \"buffer_bound\": {}, \"mean_latency_rounds\": {:.3}, \"model_latency_rounds\": {:.3}, \"reliability\": {:.5}, \"wire_bytes_per_round\": {:.1}}}",
            p.n,
            p.view_size,
            p.buffer_bound,
            p.mean_latency_rounds,
            p.model_latency_rounds,
            p.reliability,
            p.wire_bytes_per_round
        )
    }))
}

fn main() {
    // Every knob is checked before anything runs.
    let cells = report_cells();
    let mut scale_sizes = env_usizes("BENCH_SIM_SCALE_NS", MIN_SCALE_N);
    if scale_sizes.is_empty() {
        scale_sizes = vec![125, 1000, 10_000];
    }
    // Env-gated XL scaling ladder (n = 10^5-class points): absent by
    // default, so a CI-size run omits it.
    let xl_sizes = env_usizes("BENCH_SIM_SCALE_XL_NS", MIN_SCALE_N);

    // Scaling study: §5-scaled buffers, latency + reliability per size.
    let scale_points = scaling_study(&scale_sizes, 1);
    let xl_points = scaling_study(&xl_sizes, 1);
    for (tag, p) in scale_points
        .iter()
        .map(|p| ("scale", p))
        .chain(xl_points.iter().map(|p| ("scale-xl", p)))
    {
        println!(
            "{tag} n={}: l={} buffers={} latency {:.2} rounds (model {:.2}), reliability {:.4}, wire {:.1} KB/round",
            p.n,
            p.view_size,
            p.buffer_bound,
            p.mean_latency_rounds,
            p.model_latency_rounds,
            p.reliability,
            p.wire_bytes_per_round / 1e3
        );
    }

    // Every scenario cell in one sweep (deterministic per cell).
    let reports = sweep_specs(&cells);
    let cell_rows: Vec<String> = cells
        .iter()
        .zip(&reports)
        .map(|((spec, seed), report)| cell_json(spec, *seed, report))
        .collect();
    for row in &cell_rows {
        println!("cell {row}");
    }

    // Hand-rolled JSON (the workspace has no serde): stable key order,
    // one object per measurement.
    let mut json = String::from("{\n  \"schema\": \"bench_sim/v11\",\n");
    json.push_str("  \"scaling\": [\n");
    json.push_str(&scaling_json_rows(&scale_points));
    json.push_str("  ],\n");
    json.push_str("  \"scaling_xl\": [\n");
    json.push_str(&scaling_json_rows(&xl_points));
    json.push_str("  ],\n");
    json.push_str("  \"cells\": [\n");
    json.push_str(&json_rows(cell_rows.into_iter()));
    json.push_str("  ]\n}\n");

    // Attempt every output before judging any: a failed write must not
    // hide the others, and must not pass for a fresh artifact.
    let results_dir = workspace_root().join("results");
    let mut ok = write_output(&workspace_root().join("BENCH_sim.json"), &json);
    ok &= write_output(
        &results_dir.join("scaling.tsv"),
        &scaling_tsv(&[scale_points, xl_points].concat()),
    );
    ok &= write_output(
        &results_dir.join("scenarios.tsv"),
        &cells_tsv(&cells, &reports),
    );
    if !ok {
        std::process::exit(1);
    }
}
