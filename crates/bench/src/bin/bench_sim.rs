//! Simulator performance harness: times the engine's steady-state round
//! and the parallel sweep against its serial reference, then writes
//! `BENCH_sim.json` at the workspace root so every PR leaves a
//! comparable perf trajectory (README "Reading `BENCH_sim.json`"
//! documents the sections).
//!
//! Run with `cargo run --release -p lpbcast-bench --bin bench_sim`.
//!
//! Environment knobs:
//!
//! * `BENCH_SIM_STEPS` — timed steps per engine measurement (default 200).
//! * `BENCH_SIM_SWEEP_SEEDS` — seeds in the sweep measurement (default 32).
//! * `BENCH_SIM_SCALE_STEPS` — timed steps per scaling-study point
//!   (default 40; the n=10⁴ point is ~30-40 ms/step).
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
//! * `BENCH_SIM_SHARDS` — engine shard count for every measurement
//!   (default 1 = the classic serial round; the sharded round is
//!   bit-identical by construction and self-checked below).
//! * `BENCH_SIM_SPARSE_N` — system size of the sparse-mode idle-window
//!   A/B (default 10000).
//! * `BENCH_SIM_SCALE_XL_NS` — comma-separated *extra-large* system
//!   sizes for the env-gated `scaling_xl` section (default empty — CI
//!   omits it, so its committed full-scale rows gate softly; run
//!   locally with `BENCH_SIM_SCALE_XL_NS=100000`).
//! * `BENCH_SIM_SCENARIO_XL_N` — system size of the env-gated xl
//!   catastrophe scenario row (default 0 = off).
//! * `BENCH_SIM_MASS_N` — system size of the pinned mini-sweep over
//!   `ScenarioSpec` cells (default 400 everywhere — CI included — so
//!   the committed summary rows compare run to run; the full grid
//!   lives in the separate `mass_scenarios` bin).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lpbcast_core::Lpbcast;
use lpbcast_sim::detector::{detector_study, detector_tsv};
use lpbcast_sim::experiment::{
    infection_curve, sweep_dispatches_serial, LpbcastSimParams, SimParams, Sweep,
};
use lpbcast_sim::scale::{scaling_study, scaling_tsv, ScaleStudyOpts};
use lpbcast_sim::{
    run_scenario_spec, scenarios_tsv, shards_from_env, sweep_specs, sweep_specs_serial, Engine,
    Metric, ProtocolKind, ScenarioGenerator, ScenarioReport, ScenarioSpec, StepMode,
};
use lpbcast_types::{Payload, ProcessId};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// How many sub-windows a step measurement is split into: the reported
/// ns/step is the *minimum* window mean, so a background-load burst on a
/// shared host (the 1-CPU CI container swings ±30%) poisons at most the
/// windows it overlaps instead of the whole measurement. The regression
/// gate compares the cost of a step, and the min converges on it.
const STEP_WINDOWS: usize = 4;

/// Steady-state ns/step of the slab engine at system size `n`.
fn time_slab_step(n: usize, steps: usize) -> f64 {
    let params = LpbcastSimParams::paper_defaults(n).rounds(u64::MAX / 2);
    let mut engine = params.build_engine(1);
    engine.publish_from(ProcessId::new(0), "warm".into());
    engine.run(5); // settle into the steady state
    let window = (steps / STEP_WINDOWS).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..STEP_WINDOWS {
        let t = Instant::now();
        engine.run(window as u64);
        best = best.min(t.elapsed().as_nanos() as f64 / window as f64);
    }
    assert!(engine.round() > 5, "engine actually ran");
    best
}

/// Publishes `rate` events from rotating alive origins, then steps —
/// one loaded round (Fig. 6's "Rate = 40 msg/round" shape).
fn loaded_round(engine: &mut Engine<Lpbcast>, next_origin: &mut u64, n: u64, rate: usize) {
    for _ in 0..rate {
        for _ in 0..n {
            let origin = ProcessId::new(*next_origin % n);
            *next_origin += 1;
            if engine.is_alive(origin) {
                engine.publish_from(origin, Payload::from_static(b"load"));
                break;
            }
        }
    }
    engine.step();
}

/// Steady-state ns/step under sustained publication load: every round
/// carries fresh events plus a full digest, so the gossip bodies the
/// fan-out used to deep-copy are fat. This is the row where the
/// `Arc`-shared fan-out shows up (the unloaded rows gossip near-empty
/// bodies and measure routing, not cloning).
fn time_slab_step_loaded(n: usize, steps: usize, rate: usize) -> f64 {
    let params = LpbcastSimParams::paper_defaults(n).rounds(u64::MAX / 2);
    let mut engine = params.build_engine(1);
    let mut next_origin = 0u64;
    for _ in 0..5 {
        loaded_round(&mut engine, &mut next_origin, n as u64, rate);
    }
    let window = (steps / STEP_WINDOWS).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..STEP_WINDOWS {
        let t = Instant::now();
        for _ in 0..window {
            loaded_round(&mut engine, &mut next_origin, n as u64, rate);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / window as f64);
    }
    assert!(engine.round() > 5, "engine actually ran");
    best
}

/// Wall-clock seconds of a Fig. 5(a)-style multi-seed infection sweep.
fn time_sweep(n: usize, seeds: &[u64], sweep: Sweep) -> f64 {
    let params = LpbcastSimParams::paper_defaults(n).rounds(10);
    let t = Instant::now();
    let curve = infection_curve(sweep, &params, seeds);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(curve.len(), 11, "sweep produced the full curve");
    secs
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

/// ns/step over a post-catastrophe idle window: disseminate a probe,
/// crash 30% of the processes in one round, drain the in-flight traffic
/// (and, in sparse mode, let the wake heat decay), then time rounds in
/// which nothing new happens. Dense mode keeps paying full digest gossip
/// here; sparse mode quiesces.
fn time_idle_window(n: usize, steps: usize, mode: StepMode) -> f64 {
    let params = LpbcastSimParams::paper_defaults(n).rounds(u64::MAX / 2);
    let mut engine = params.engine_builder(1).step_mode(mode).build();
    engine.publish_from(ProcessId::new(0), Payload::from_static(b"probe"));
    engine.run(10);
    for i in 0..(3 * n as u64 / 10) {
        engine.crash(ProcessId::new(1 + i));
    }
    engine.run(12);
    let t = Instant::now();
    engine.run(steps as u64);
    t.elapsed().as_nanos() as f64 / steps as f64
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

struct StepResult {
    n: usize,
    steps: usize,
    slab_ns: f64,
}

/// Runs one scenario cell at seed 1, timing it.
fn timed_scenario(
    protocol: ProtocolKind,
    generator: ScenarioGenerator,
    n: usize,
) -> (ScenarioReport, f64) {
    let t = Instant::now();
    let report = run_scenario_spec(&ScenarioSpec::new(protocol, generator, n), 1);
    (report, t.elapsed().as_secs_f64() * 1e3)
}

/// The `"metric": value, …` body shared by every `scenarios` /
/// `scenarios_xl` JSON object: the report's metrics in report order
/// (an unreached target as `null`), then wire cost and wall clock.
fn scenario_json_fields(report: &ScenarioReport, wall_ms: f64) -> String {
    let mut out = String::new();
    for (metric, value) in &report.metrics {
        let _ = match value {
            Metric::Rounds(None) => write!(out, "\"{metric}\": null, "),
            _ => write!(out, "\"{metric}\": {value}, "),
        };
    }
    let _ = write!(
        out,
        "\"wire_bytes_per_round\": {:.1}, \"wire_messages\": {}, \"wall_ms\": {wall_ms:.1}",
        report.wire_bytes_per_round(),
        report.wire_messages
    );
    out
}

fn scale_sizes() -> Vec<usize> {
    std::env::var("BENCH_SIM_SCALE_NS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n: &usize| n >= 8)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![125, 1000, 10_000])
}

fn main() {
    let steps = env_usize("BENCH_SIM_STEPS", 200);
    let sweep_seed_count = env_usize("BENCH_SIM_SWEEP_SEEDS", 32);
    let scale_steps = env_usize("BENCH_SIM_SCALE_STEPS", 40);
    let threads = rayon::current_num_threads();

    println!(
        "bench_sim: {steps} steps/measurement, {sweep_seed_count}-seed sweep, {threads} threads"
    );

    let mut step_results = Vec::new();
    for n in [125usize, 1000, 10_000] {
        // The 10⁴ point costs tens of ms per step: scale the timed window
        // down so the whole harness stays interactive.
        let steps = if n >= 10_000 {
            (steps / 10).max(10)
        } else {
            steps
        };
        let slab_ns = time_slab_step(n, steps);
        println!("sim_round n={n}: slab {:.1} µs/step", slab_ns / 1e3);
        step_results.push(StepResult { n, steps, slab_ns });
    }

    let loaded_rate = 40usize;
    let loaded_steps = (steps / 2).max(10);
    let loaded_ns = time_slab_step_loaded(1000, loaded_steps, loaded_rate);
    println!(
        "sim_round n=1000 loaded (rate={loaded_rate}/round): {:.1} µs/step",
        loaded_ns / 1e3
    );

    let sweep_seeds: Vec<u64> = (0..sweep_seed_count as u64).map(|i| 0x5A + i).collect();
    let sweep_n = 250;
    let serial_s = time_sweep(sweep_n, &sweep_seeds, Sweep::Serial);
    let parallel_s = time_sweep(sweep_n, &sweep_seeds, Sweep::Pool);
    println!(
        "fig5a-style sweep n={sweep_n}, {} seeds: serial {serial_s:.3} s, parallel {parallel_s:.3} s, speedup {:.2}×{}",
        sweep_seeds.len(),
        serial_s / parallel_s,
        if sweep_dispatches_serial(sweep_seeds.len()) {
            " (parallel path auto-dispatched serial on this pool)"
        } else {
            ""
        }
    );

    // Scaling study: §5-scaled buffers, latency + reliability per size.
    let scale_opts = ScaleStudyOpts {
        seed: 1,
        measured_steps: scale_steps,
    };
    let scale_points = scaling_study(&scale_sizes(), &scale_opts);
    for p in &scale_points {
        println!(
            "scale n={}: l={} buffers={} {:.1} µs/step, build {:.2} ms, latency {:.2} rounds (model {:.2}), reliability {:.4}, wire {:.1} KB/round",
            p.n,
            p.view_size,
            p.buffer_bound,
            p.ns_per_step / 1e3,
            p.engine_build_ms,
            p.mean_latency_rounds,
            p.model_latency_rounds,
            p.reliability,
            p.wire_bytes_per_round / 1e3
        );
    }

    // Env-gated XL scaling ladder (n = 10^5-class points): absent by
    // default so CI's fresh snapshot omits it and the committed rows
    // gate softly.
    let xl_sizes: Vec<usize> = std::env::var("BENCH_SIM_SCALE_XL_NS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n: &usize| n >= 8)
                .collect()
        })
        .unwrap_or_default();
    let xl_points = if xl_sizes.is_empty() {
        Vec::new()
    } else {
        scaling_study(&xl_sizes, &scale_opts)
    };
    for p in &xl_points {
        println!(
            "scale-xl n={}: l={} buffers={} {:.1} µs/step, build {:.2} ms, latency {:.2} rounds, reliability {:.4}, wire {:.1} KB/round",
            p.n,
            p.view_size,
            p.buffer_bound,
            p.ns_per_step / 1e3,
            p.engine_build_ms,
            p.mean_latency_rounds,
            p.reliability,
            p.wire_bytes_per_round / 1e3
        );
    }

    // Shard-determinism self-check: the sharded round must be
    // bit-identical to the serial reference. Hard-gated — bench_gate.py
    // fails if a snapshot ever records identical=false, and the harness
    // itself exits non-zero after writing its outputs.
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

    // Sparse-mode idle-window A/B: the measured win of skipping
    // fully-idle nodes after a catastrophe has drained.
    let sparse_n = env_usize("BENCH_SIM_SPARSE_N", 10_000);
    let idle_steps = (steps / 4).max(10);
    let dense_idle_ns = time_idle_window(sparse_n, idle_steps, StepMode::Dense);
    let sparse_idle_ns = time_idle_window(sparse_n, idle_steps, StepMode::Sparse);
    println!(
        "sparse_mode n={sparse_n} post-catastrophe idle window: dense {:.1} µs/step, sparse {:.1} µs/step, {:.1}× win",
        dense_idle_ns / 1e3,
        sparse_idle_ns / 1e3,
        dense_idle_ns / sparse_idle_ns
    );

    // Env-gated XL scenario row (catastrophe at n = 10^5): the
    // post-catastrophe robustness headline at the new scale ceiling.
    let xl_scenario_n = env_usize("BENCH_SIM_SCENARIO_XL_N", 0);
    let xl_catastrophe = (xl_scenario_n > 0).then(|| {
        let (report, wall_ms) = timed_scenario(
            ProtocolKind::Lpbcast,
            ScenarioGenerator::Catastrophe,
            xl_scenario_n,
        );
        println!(
            "scenario-xl catastrophe/lpbcast n={xl_scenario_n}: {} crashed, reliability {:.4} -> {:.4}, recovery {:?}, wire {:.1} KB/round [{:.0} ms]",
            report["crashed"],
            report["reliability_before"],
            report["reliability_after"],
            report.recovery_rounds,
            report.wire_bytes_per_round() / 1e3,
            wall_ms
        );
        (report, wall_ms)
    });

    // Scenario suite: continuous churn, catastrophic correlated failure,
    // partition-and-heal — once per protocol, side by side (deterministic;
    // seed 1).
    let scenario_n = env_usize("BENCH_SIM_SCENARIO_N", 10_000);
    let protocols =
        std::env::var("BENCH_SIM_SCENARIO_PROTOCOLS").unwrap_or_else(|_| "lpbcast,pbcast".into());
    // Per stack: the churn, catastrophe and partition reports with
    // their wall clocks, in that order.
    let mut suites: Vec<[(ScenarioReport, f64); 3]> = Vec::new();
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
        .map(|generator| timed_scenario(proto, generator, scenario_n));
        let [(churn, churn_ms), (catastrophe, catastrophe_ms), (partition, partition_ms)] = &suite;
        println!(
            "scenario churn/{proto} n={scenario_n}: {}/{} joins, {} leaves ({} refused), members {} at end, reliability {:.4} (min {:.4}), partitioned {}, wire {:.1} KB/round [{:.0} ms]",
            churn["joins_completed"],
            churn["joins_attempted"],
            churn["leaves_completed"],
            churn["leaves_refused"],
            churn["final_members"],
            churn["mean_reliability"],
            churn["min_reliability"],
            churn["partitioned_at_end"],
            churn.wire_bytes_per_round() / 1e3,
            churn_ms
        );
        println!(
            "scenario catastrophe/{proto} n={scenario_n}: {} crashed, reliability {:.4} -> {:.4}, latency {:.2} -> {:.2} rounds, recovery {:?}, wire {:.1} KB/round [{:.0} ms]",
            catastrophe["crashed"],
            catastrophe["reliability_before"],
            catastrophe["reliability_after"],
            catastrophe["latency_before_rounds"],
            catastrophe["latency_after_rounds"],
            catastrophe.recovery_rounds,
            catastrophe.wire_bytes_per_round() / 1e3,
            catastrophe_ms
        );
        println!(
            "scenario partition/{proto} n={}: connect {:?}, heal {:?}, post-heal reliability {:.4}, wire {:.1} KB/round [{:.0} ms]",
            partition.n,
            partition["rounds_to_connect"].rounds(),
            partition.recovery_rounds,
            partition["post_heal_reliability"],
            partition.wire_bytes_per_round() / 1e3,
            partition_ms
        );
        suites.push(suite);
    }

    // Pinned mini-sweep over ScenarioSpec cells: a fixed 12-cell grid
    // (2 protocols × 3 generators × 2 seeds) at a CI-friendly size,
    // summarised per spec in the JSON so bench_gate.py can soft-gate
    // the scenario matrix without rerunning the full mass_scenarios
    // grid. The rayon/serial identity is hard-gated like shard_check.
    let mass_n = env_usize("BENCH_SIM_MASS_N", 400);
    let mass_seeds: [u64; 2] = [1, 2];
    let mut mass_cells: Vec<(ScenarioSpec, u64)> = Vec::new();
    for proto in [ProtocolKind::Lpbcast, ProtocolKind::Pbcast] {
        for generator in [
            ScenarioGenerator::Catastrophe,
            ScenarioGenerator::RepeatedPartitions,
            ScenarioGenerator::ByzantineDroppers,
        ] {
            for seed in mass_seeds {
                mass_cells.push((ScenarioSpec::new(proto, generator, mass_n), seed));
            }
        }
    }
    let mass_t = Instant::now();
    let mass_reports = sweep_specs(&mass_cells);
    let mass_wall_ms = mass_t.elapsed().as_secs_f64() * 1e3;
    let mass_identical = mass_reports == sweep_specs_serial(&mass_cells);
    // Aggregate per spec across its seed block (the cells are grouped
    // by construction: seeds are the innermost loop).
    let mut mass_summary: Vec<(String, f64, f64, Option<u64>, f64)> = Vec::new();
    for block in mass_cells
        .chunks(mass_seeds.len())
        .zip(mass_reports.chunks(mass_seeds.len()))
    {
        let (cells, reports) = block;
        let spec = cells[0].0.to_string();
        let mean = reports.iter().map(|r| r.reliability_mean).sum::<f64>() / reports.len() as f64;
        let min = reports
            .iter()
            .map(|r| r.reliability_min)
            .fold(f64::INFINITY, f64::min);
        // Worst recovery across seeds; None if any seed never recovered.
        let recovery = reports
            .iter()
            .map(|r| r.recovery_rounds)
            .collect::<Option<Vec<u64>>>()
            .and_then(|v| v.into_iter().max());
        let wire = reports
            .iter()
            .map(|r| r.wire_bytes_per_round())
            .sum::<f64>()
            / reports.len() as f64;
        mass_summary.push((spec, mean, min, recovery, wire));
    }
    println!(
        "mass mini-sweep n={mass_n}: {} cells, {} specs -> {} [{:.0} ms]",
        mass_cells.len(),
        mass_summary.len(),
        if mass_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        mass_wall_ms
    );
    for (spec, mean, min, recovery, wire) in &mass_summary {
        println!(
            "  [{spec}] reliability {mean:.4} (min {min:.4}), recovery {recovery:?}, wire {:.1} KB/round",
            wire / 1e3
        );
    }

    // SWIM failure-detector A/B: the same catastrophe and no-crash noise
    // loads with and without the Swim wrapper, under named fault specs
    // (deterministic; seed 1).
    let detector_n = env_usize("BENCH_SIM_DETECTOR_N", 10_000);
    let detector_t = Instant::now();
    let study = detector_study(detector_n, 1);
    let detector_wall_ms = detector_t.elapsed().as_secs_f64() * 1e3;
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
        "detector churn A/B: reliability {:.4} with / {:.4} without, joins {}/{} [{:.0} ms total]",
        churn.on.reliability_mean,
        churn.off.reliability_mean,
        churn.on["joins_completed"],
        churn.off["joins_completed"],
        detector_wall_ms
    );

    // Hand-rolled JSON (the workspace has no serde): numbers only, stable
    // key order, one object per measurement.
    let mut json = String::from("{\n  \"schema\": \"bench_sim/v8\",\n");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"steps_per_measurement\": {steps},");
    json.push_str("  \"step_throughput\": [\n");
    for (i, r) in step_results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"steps\": {}, \"slab_ns_per_step\": {:.1}, \"slab_steps_per_sec\": {:.1}}}",
            r.n,
            r.steps,
            r.slab_ns,
            1e9 / r.slab_ns
        );
        json.push_str(if i + 1 < step_results.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"loaded_step\": [{{\"n\": 1000, \"rate\": {loaded_rate}, \"steps\": {loaded_steps}, \"slab_ns_per_step\": {loaded_ns:.1}}}],"
    );
    let _ = writeln!(
        json,
        "  \"sweep\": {{\"n\": {sweep_n}, \"seeds\": {}, \"rounds\": 10, \"serial_secs\": {serial_s:.4}, \"parallel_secs\": {parallel_s:.4}, \"speedup\": {:.3}, \"parallel_path\": \"{}\"}},",
        sweep_seeds.len(),
        serial_s / parallel_s,
        if sweep_dispatches_serial(sweep_seeds.len()) {
            "serial-dispatch"
        } else {
            "rayon"
        }
    );
    json.push_str("  \"scaling\": [\n");
    for (i, p) in scale_points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"view_size\": {}, \"buffer_bound\": {}, \"steps\": {}, \"ns_per_step\": {:.1}, \"engine_build_ms\": {:.3}, \"build_count\": {}, \"mean_latency_rounds\": {:.3}, \"model_latency_rounds\": {:.3}, \"reliability\": {:.5}, \"wire_bytes_per_round\": {:.1}}}",
            p.n,
            p.view_size,
            p.buffer_bound,
            p.measured_steps,
            p.ns_per_step,
            p.engine_build_ms,
            p.build_count,
            p.mean_latency_rounds,
            p.model_latency_rounds,
            p.reliability,
            p.wire_bytes_per_round
        );
        json.push_str(if i + 1 < scale_points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"scaling_xl\": [\n");
    for (i, p) in xl_points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"view_size\": {}, \"buffer_bound\": {}, \"steps\": {}, \"ns_per_step\": {:.1}, \"engine_build_ms\": {:.3}, \"build_count\": {}, \"mean_latency_rounds\": {:.3}, \"model_latency_rounds\": {:.3}, \"reliability\": {:.5}, \"wire_bytes_per_round\": {:.1}}}",
            p.n,
            p.view_size,
            p.buffer_bound,
            p.measured_steps,
            p.ns_per_step,
            p.engine_build_ms,
            p.build_count,
            p.mean_latency_rounds,
            p.model_latency_rounds,
            p.reliability,
            p.wire_bytes_per_round
        );
        json.push_str(if i + 1 < xl_points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"shard_check\": {{\"n\": {check_n}, \"rounds\": {check_rounds}, \"shards\": {check_shards}, \"identical\": {shard_identical}}},"
    );
    let _ = writeln!(
        json,
        "  \"sparse_mode\": {{\"n\": {sparse_n}, \"idle_steps\": {idle_steps}, \"dense_ns_per_step\": {dense_idle_ns:.1}, \"sparse_ns_per_step\": {sparse_idle_ns:.1}, \"speedup\": {:.3}}},",
        dense_idle_ns / sparse_idle_ns
    );
    json.push_str("  \"scenarios_xl\": [\n");
    if let Some((report, wall_ms)) = &xl_catastrophe {
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"catastrophe_xl\", \"protocol\": \"lpbcast\", \"n\": {}, {}}}",
            report.n,
            scenario_json_fields(report, *wall_ms)
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"scenarios\": {\n");
    for (si, suite) in suites.iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", suite[0].0.protocol);
        for (i, (report, wall_ms)) in suite.iter().enumerate() {
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
                scenario_json_fields(report, *wall_ms),
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
    let _ = writeln!(json, "    \"wall_ms\": {detector_wall_ms:.1},");
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
    json.push_str("  },\n");

    // Mass mini-sweep section: the pinned ScenarioSpec grid, one
    // summary object per spec string.
    let _ = writeln!(json, "  \"mass_scenarios\": {{");
    let _ = writeln!(json, "    \"n\": {mass_n},");
    let _ = writeln!(json, "    \"seeds\": {},", mass_seeds.len());
    let _ = writeln!(json, "    \"identical\": {mass_identical},");
    let _ = writeln!(json, "    \"wall_ms\": {mass_wall_ms:.1},");
    json.push_str("    \"summary\": [\n");
    for (i, (spec, mean, min, recovery, wire)) in mass_summary.iter().enumerate() {
        let recovery = recovery.map_or_else(|| "null".into(), |r| r.to_string());
        let _ = write!(
            json,
            "      {{\"spec\": \"{spec}\", \"reliability_mean\": {mean:.5}, \"reliability_min\": {min:.5}, \"recovery_rounds\": {recovery}, \"wire_bytes_per_round\": {wire:.1}}}"
        );
        json.push_str(if i + 1 < mass_summary.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  }\n}\n");

    let path = workspace_root().join("BENCH_sim.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("→ {}", path.display()),
        Err(e) => eprintln!("! could not write BENCH_sim.json: {e}"),
    }

    let results_dir = workspace_root().join("results");
    let tsv_path = results_dir.join("scaling.tsv");
    let all_scale_points: Vec<_> = scale_points
        .iter()
        .chain(xl_points.iter())
        .cloned()
        .collect();
    let write_tsv = std::fs::create_dir_all(&results_dir)
        .and_then(|()| std::fs::write(&tsv_path, scaling_tsv(&all_scale_points)));
    match write_tsv {
        Ok(()) => println!("→ {}", tsv_path.display()),
        Err(e) => eprintln!("! could not write results/scaling.tsv: {e}"),
    }

    let scenarios_path = results_dir.join("scenarios.tsv");
    let mut scenarios_text = scenarios_tsv(suites.iter().flatten().map(|(report, _)| report));
    if let Some((report, wall_ms)) = &xl_catastrophe {
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
        row("wall_ms", &format_args!("{wall_ms:.1}"));
    }
    let write_scenarios = std::fs::create_dir_all(&results_dir)
        .and_then(|()| std::fs::write(&scenarios_path, scenarios_text));
    match write_scenarios {
        Ok(()) => println!("→ {}", scenarios_path.display()),
        Err(e) => eprintln!("! could not write results/scenarios.tsv: {e}"),
    }

    let detector_path = results_dir.join("detector.tsv");
    let write_detector = std::fs::create_dir_all(&results_dir)
        .and_then(|()| std::fs::write(&detector_path, detector_tsv(&study)));
    match write_detector {
        Ok(()) => println!("→ {}", detector_path.display()),
        Err(e) => eprintln!("! could not write results/detector.tsv: {e}"),
    }

    if !shard_identical {
        eprintln!(
            "! shard determinism check FAILED: shards={check_shards} diverged from the serial \
             reference at n={check_n} ({check_rounds} rounds) — outputs were written for \
             inspection, exiting non-zero"
        );
        std::process::exit(1);
    }
    if !mass_identical {
        eprintln!(
            "! mass-sweep determinism check FAILED: the rayon ScenarioSpec sweep diverged from \
             the serial reference at n={mass_n} — outputs were written for inspection, exiting \
             non-zero"
        );
        std::process::exit(1);
    }
}
