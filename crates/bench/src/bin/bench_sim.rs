//! Deterministic science report: the scaling study (latency /
//! reliability / wire cost vs n), the churn / catastrophe / partition
//! scenario suite, the SWIM detector A/B and the sharded-vs-serial
//! round self-check, written to `BENCH_sim.json` at the workspace root
//! and to `results/{scaling,scenarios,detector}.tsv` (README "Reading
//! `BENCH_sim.json`" documents the sections).
//!
//! Every byte of every output is a pure function of (code, sizes, seed):
//! the binary reads no clock and records nothing about the host, so two
//! runs — on any machine, at any rayon pool size — `cmp` equal. Wall
//! clock is `lpbench`'s job (`lpbench/README.md`).
//!
//! Run with `cargo run --release -p lpbcast-bench --bin bench_sim`.
//! Exits non-zero if an output could not be written or the shard
//! self-check diverged (after attempting every output).
//!
//! Environment knobs (system sizes, the protocol list and the shard
//! count — none changes what a row means):
//!
//! * `BENCH_SIM_SCALE_NS` — comma-separated system sizes of the scaling
//!   study (default `125,1000,10000`).
//! * `BENCH_SIM_SCENARIO_N` — system size of the churn / catastrophe /
//!   partition scenario suite (default 10000).
//! * `BENCH_SIM_SCENARIO_PROTOCOLS` — comma-separated protocols the
//!   scenario suite runs (`lpbcast,pbcast` by default; the suite is
//!   generic over `ScenarioProtocol`, so both stacks produce
//!   side-by-side rows; `swim+lpbcast` / `swim+pbcast` run the
//!   SWIM-wrapped stacks).
//! * `BENCH_SIM_DETECTOR_N` — system size of the SWIM failure-detector
//!   A/B study (default 10000; the committed snapshot records the
//!   full-scale run, CI uses a small n).
//! * `BENCH_SIM_SHARDS` — engine shard count of every engine built here
//!   (default 1 = the classic serial round; the sharded round is
//!   bit-identical by construction and self-checked below).
//! * `BENCH_SIM_SCALE_XL_NS` — comma-separated *extra-large* system
//!   sizes for the env-gated `scaling_xl` section (default empty; run
//!   locally with `BENCH_SIM_SCALE_XL_NS=100000`).
//! * `BENCH_SIM_SCENARIO_XL_N` — system size of the env-gated xl
//!   catastrophe scenario row (default 0 = off).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lpbcast_sim::detector::{detector_study, detector_tsv};
use lpbcast_sim::experiment::{LpbcastSimParams, SimParams};
use lpbcast_sim::scale::{scaling_study, scaling_tsv, ScalePoint};
use lpbcast_sim::{
    run_scenario_spec, scenarios_tsv, shards_from_env, Metric, ProtocolKind, ScenarioGenerator,
    ScenarioReport, ScenarioSpec,
};
use lpbcast_types::{Payload, ProcessId};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// The comma-separated system sizes in `name` (entries below 8 or
/// unparsable are dropped; unset reads as empty).
fn env_sizes(name: &str) -> Vec<usize> {
    std::env::var(name)
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n: &usize| n >= 8)
                .collect()
        })
        .unwrap_or_default()
}

/// Per-round digest of an lpbcast run at a given shard count: infected
/// count, network delivered/dropped counters (the shared loss-RNG
/// stream) and exact wire bytes. Bit-equality of two digests across
/// shard counts is the engine's determinism contract.
fn shard_digest(n: usize, shards: usize, rounds: u64) -> Vec<(usize, u64, u64, u64)> {
    let params = LpbcastSimParams::paper_defaults(n).rounds(u64::MAX / 2);
    let mut engine = params
        .engine_builder(1)
        .wire_meter(lpbcast_net::wire_meter())
        .shards(shards)
        .build();
    let id = engine.publish_from(ProcessId::new(0), Payload::from_static(b"probe"));
    let mut digest = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        engine.step();
        digest.push((
            engine.tracker().infected_count(id),
            engine.network().delivered_count(),
            engine.network().dropped_count(),
            engine.wire_accounting().unwrap_or_default().bytes,
        ));
    }
    digest
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs one scenario cell at seed 1.
fn scenario(protocol: ProtocolKind, generator: ScenarioGenerator, n: usize) -> ScenarioReport {
    run_scenario_spec(&ScenarioSpec::new(protocol, generator, n), 1)
}

/// The `"metric": value, …` body shared by every `scenarios` /
/// `scenarios_xl` JSON object: the report's metrics in report order
/// (an unreached target as `null`), then wire cost.
fn scenario_json_fields(report: &ScenarioReport) -> String {
    let mut out = String::new();
    for (metric, value) in &report.metrics {
        let _ = match value {
            Metric::Rounds(None) => write!(out, "\"{metric}\": null, "),
            _ => write!(out, "\"{metric}\": {value}, "),
        };
    }
    let _ = write!(
        out,
        "\"wire_bytes_per_round\": {:.1}, \"wire_messages\": {}",
        report.wire_bytes_per_round(),
        report.wire_messages
    );
    out
}

/// The JSON array body of a `scaling` / `scaling_xl` section: one object
/// per size, one per line.
fn scaling_json_rows(points: &[ScalePoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"n\": {}, \"view_size\": {}, \"buffer_bound\": {}, \"mean_latency_rounds\": {:.3}, \"model_latency_rounds\": {:.3}, \"reliability\": {:.5}, \"wire_bytes_per_round\": {:.1}}}",
                p.n,
                p.view_size,
                p.buffer_bound,
                p.mean_latency_rounds,
                p.model_latency_rounds,
                p.reliability,
                p.wire_bytes_per_round
            )
        })
        .collect();
    let mut out = rows.join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Writes one output file, reporting the outcome; `false` on failure so
/// `main` can attempt the remaining outputs and still exit non-zero.
fn write_output(path: &Path, contents: &str) -> bool {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    match &written {
        Ok(()) => println!("→ {}", path.display()),
        Err(e) => eprintln!("! could not write {}: {e}", path.display()),
    }
    written.is_ok()
}

fn main() {
    // Scaling study: §5-scaled buffers, latency + reliability per size.
    let mut scale_sizes = env_sizes("BENCH_SIM_SCALE_NS");
    if scale_sizes.is_empty() {
        scale_sizes = vec![125, 1000, 10_000];
    }
    let scale_points = scaling_study(&scale_sizes, 1);
    // Env-gated XL scaling ladder (n = 10^5-class points): absent by
    // default, so a CI-size run omits it.
    let xl_points = scaling_study(&env_sizes("BENCH_SIM_SCALE_XL_NS"), 1);
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

    // Shard-determinism self-check: the sharded round must be
    // bit-identical to the serial reference. The harness exits non-zero
    // after writing its outputs if it is not.
    let shards = shards_from_env();
    let check_shards = shards.max(4);
    let (check_n, check_rounds) = (1000usize, 15u64);
    let shard_identical =
        shard_digest(check_n, 1, check_rounds) == shard_digest(check_n, check_shards, check_rounds);
    println!(
        "shard_check n={check_n} rounds={check_rounds}: serial vs {check_shards} shards -> {}",
        if shard_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    // Env-gated XL scenario row (catastrophe at n = 10^5): the
    // post-catastrophe robustness headline at the new scale ceiling.
    let xl_scenario_n = env_usize("BENCH_SIM_SCENARIO_XL_N", 0);
    let xl_catastrophe = (xl_scenario_n > 0).then(|| {
        let report = scenario(
            ProtocolKind::Lpbcast,
            ScenarioGenerator::Catastrophe,
            xl_scenario_n,
        );
        println!(
            "scenario-xl catastrophe/lpbcast n={xl_scenario_n}: {} crashed, reliability {:.4} -> {:.4}, recovery {:?}, wire {:.1} KB/round",
            report["crashed"],
            report["reliability_before"],
            report["reliability_after"],
            report.recovery_rounds,
            report.wire_bytes_per_round() / 1e3
        );
        report
    });

    // Scenario suite: continuous churn, catastrophic correlated failure,
    // partition-and-heal — once per protocol, side by side (deterministic;
    // seed 1).
    let scenario_n = env_usize("BENCH_SIM_SCENARIO_N", 10_000);
    let protocols =
        std::env::var("BENCH_SIM_SCENARIO_PROTOCOLS").unwrap_or_else(|_| "lpbcast,pbcast".into());
    // Per stack: the churn, catastrophe and partition reports, in that
    // order.
    let mut suites: Vec<[ScenarioReport; 3]> = Vec::new();
    let mut seen_protocols: Vec<ProtocolKind> = Vec::new();
    for label in protocols.split(',').map(str::trim) {
        if label.is_empty() {
            continue;
        }
        let Ok(proto) = label.parse::<ProtocolKind>() else {
            eprintln!(
                "! unknown scenario protocol {label:?} (expected lpbcast/pbcast/swim+lpbcast/swim+pbcast)"
            );
            continue;
        };
        // Dedup: a repeated protocol would emit duplicate JSON keys.
        if seen_protocols.contains(&proto) {
            continue;
        }
        seen_protocols.push(proto);
        let suite = [
            ScenarioGenerator::Churn,
            ScenarioGenerator::Catastrophe,
            ScenarioGenerator::Partition,
        ]
        .map(|generator| scenario(proto, generator, scenario_n));
        let [churn, catastrophe, partition] = &suite;
        println!(
            "scenario churn/{proto} n={scenario_n}: {}/{} joins, {} leaves ({} refused), members {} at end, reliability {:.4} (min {:.4}), partitioned {}, wire {:.1} KB/round",
            churn["joins_completed"],
            churn["joins_attempted"],
            churn["leaves_completed"],
            churn["leaves_refused"],
            churn["final_members"],
            churn["mean_reliability"],
            churn["min_reliability"],
            churn["partitioned_at_end"],
            churn.wire_bytes_per_round() / 1e3
        );
        println!(
            "scenario catastrophe/{proto} n={scenario_n}: {} crashed, reliability {:.4} -> {:.4}, latency {:.2} -> {:.2} rounds, recovery {:?}, wire {:.1} KB/round",
            catastrophe["crashed"],
            catastrophe["reliability_before"],
            catastrophe["reliability_after"],
            catastrophe["latency_before_rounds"],
            catastrophe["latency_after_rounds"],
            catastrophe.recovery_rounds,
            catastrophe.wire_bytes_per_round() / 1e3
        );
        println!(
            "scenario partition/{proto} n={}: connect {:?}, heal {:?}, post-heal reliability {:.4}, wire {:.1} KB/round",
            partition.n,
            partition["rounds_to_connect"].rounds(),
            partition.recovery_rounds,
            partition["post_heal_reliability"],
            partition.wire_bytes_per_round() / 1e3
        );
        suites.push(suite);
    }

    // SWIM failure-detector A/B: the same catastrophe and no-crash noise
    // loads with and without the Swim wrapper, under named fault specs
    // (deterministic; seed 1).
    let detector_n = env_usize("BENCH_SIM_DETECTOR_N", 10_000);
    let study = detector_study(detector_n, 1);
    let (churn, ab_pairs) = study
        .split_last()
        .expect("the study ends with the churn pair");
    for r in ab_pairs {
        println!(
            "detector {}/{} n={}: recovery off {:?} -> on {:?} rounds, probe reliability {:.4}/{:.4}, {} evictions ({} false), {} suspicions, {} refuted",
            r.scenario,
            r.fault,
            r.on.n,
            r.off.recovery_rounds,
            r.on.recovery_rounds,
            r.off["probe_reliability"],
            r.on["probe_reliability"],
            r.on["evictions"],
            r.on["false_evictions"],
            r.on["suspicions"],
            r.on["refutations"]
        );
    }
    println!(
        "detector churn A/B: reliability {:.4} with / {:.4} without, joins {}/{}",
        churn.on.reliability_mean,
        churn.off.reliability_mean,
        churn.on["joins_completed"],
        churn.off["joins_completed"]
    );

    // Hand-rolled JSON (the workspace has no serde): numbers only, stable
    // key order, one object per measurement.
    let mut json = String::from("{\n  \"schema\": \"bench_sim/v9\",\n");
    let _ = writeln!(json, "  \"shards\": {shards},");
    json.push_str("  \"scaling\": [\n");
    json.push_str(&scaling_json_rows(&scale_points));
    json.push_str("  ],\n");
    json.push_str("  \"scaling_xl\": [\n");
    json.push_str(&scaling_json_rows(&xl_points));
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"shard_check\": {{\"n\": {check_n}, \"rounds\": {check_rounds}, \"shards\": {check_shards}, \"identical\": {shard_identical}}},"
    );
    json.push_str("  \"scenarios_xl\": [\n");
    if let Some(report) = &xl_catastrophe {
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"catastrophe_xl\", \"protocol\": \"lpbcast\", \"n\": {}, {}}}",
            report.n,
            scenario_json_fields(report)
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"scenarios\": {\n");
    for (si, suite) in suites.iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", suite[0].protocol);
        for (i, report) in suite.iter().enumerate() {
            // The churn object has always called its size `n0`.
            let n_key = match report.generator {
                ScenarioGenerator::Churn => "n0",
                _ => "n",
            };
            let _ = writeln!(
                json,
                "      \"{}\": {{\"{n_key}\": {}, {}}}{}",
                report.generator,
                report.n,
                scenario_json_fields(report),
                if i + 1 < suite.len() { "," } else { "" }
            );
        }
        json.push_str(if si + 1 < suites.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  },\n");

    // Detector A/B section: one object per (scenario, fault) pair with
    // both arms, plus the churn-neutrality comparison.
    let arm_json = |arm: &ScenarioReport| {
        let recovery = arm
            .recovery_rounds
            .map_or_else(|| "null".into(), |r| r.to_string());
        format!(
            "{{\"recovery_rounds\": {recovery}, \"probe_reliability\": {}, \"evictions\": {}, \"false_evictions\": {}, \"suspicions\": {}, \"refutations\": {}}}",
            arm["probe_reliability"],
            arm["evictions"],
            arm["false_evictions"],
            arm["suspicions"],
            arm["refutations"]
        )
    };
    let _ = writeln!(json, "  \"detector\": {{");
    let _ = writeln!(json, "    \"n\": {detector_n},");
    json.push_str("    \"reports\": [\n");
    for (i, r) in ab_pairs.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"scenario\": \"{}\", \"fault\": \"{}\", \"n\": {}, \"on\": {}, \"off\": {}}}",
            r.scenario,
            r.fault,
            r.on.n,
            arm_json(&r.on),
            arm_json(&r.off)
        );
        json.push_str(if i + 1 < ab_pairs.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(
        json,
        "    \"churn\": {{\"mean_reliability_with\": {:.5}, \"mean_reliability_without\": {:.5}, \"joins_with\": {}, \"joins_without\": {}}}",
        churn.on.reliability_mean,
        churn.off.reliability_mean,
        churn.on["joins_completed"],
        churn.off["joins_completed"]
    );
    json.push_str("  }\n}\n");

    let mut scenarios_text = scenarios_tsv(suites.iter().flatten());
    if let Some(report) = &xl_catastrophe {
        let mut row = |metric: &str, value: &dyn std::fmt::Display| {
            let _ = writeln!(
                scenarios_text,
                "catastrophe_xl\tlpbcast\t{}\t{metric}\t{value}",
                report.n
            );
        };
        for (metric, value) in &report.metrics {
            row(metric, value);
        }
        row(
            "wire_bytes_per_round",
            &format_args!("{:.1}", report.wire_bytes_per_round()),
        );
    }

    // Attempt every output before judging any: a failed write must not
    // hide the others, and must not pass for a fresh artifact.
    let results_dir = workspace_root().join("results");
    let mut ok = write_output(&workspace_root().join("BENCH_sim.json"), &json);
    ok &= write_output(
        &results_dir.join("scaling.tsv"),
        &scaling_tsv(&[scale_points, xl_points].concat()),
    );
    ok &= write_output(&results_dir.join("scenarios.tsv"), &scenarios_text);
    ok &= write_output(&results_dir.join("detector.tsv"), &detector_tsv(&study));

    if !shard_identical {
        eprintln!(
            "! shard determinism check FAILED: shards={check_shards} diverged from the serial \
             reference at n={check_n} ({check_rounds} rounds) — outputs were written for \
             inspection, exiting non-zero"
        );
    }
    if !(ok && shard_identical) {
        std::process::exit(1);
    }
}
