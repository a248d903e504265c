//! The report binaries' command line: a bad label or a malformed size
//! fails loudly, with the same exit code in both, before any cell runs.

use std::process::{Command, Output};

/// Runs a report binary at miniature sizes (so a regression that runs
/// anything stays cheap) with `env` on top.
fn run(bin: &str, env: &[(&str, &str)]) -> Output {
    Command::new(bin)
        .envs([
            ("BENCH_SIM_SCALE_NS", "16"),
            ("BENCH_SIM_SCENARIO_N", "16"),
            ("BENCH_SIM_DETECTOR_N", "16"),
            ("MASS_SCENARIOS_N", "16"),
            ("MASS_SCENARIOS_SEEDS", "1"),
        ])
        .envs(env.iter().copied())
        .output()
        .expect("binary runs")
}

fn assert_refused(out: &Output, label: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(label), "{label} missing from {stderr}");
}

#[test]
fn bench_sim_refuses_an_unknown_protocol_before_running_anything() {
    let out = run(
        env!("CARGO_BIN_EXE_bench_sim"),
        &[("BENCH_SIM_SCENARIO_PROTOCOLS", "lpbcast,nope")],
    );
    assert_refused(&out, "nope");
}

#[test]
fn bench_sim_refuses_a_malformed_size_in_any_knob() {
    for (knob, value) in [
        ("BENCH_SIM_SCALE_XL_NS", "100_000"),
        ("BENCH_SIM_SCENARIO_XL_N", "1e5"),
        ("BENCH_SIM_SCALE_NS", "16,4"),
        ("BENCH_SIM_SCENARIO_N", "ten"),
        ("BENCH_SIM_DETECTOR_N", "0"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_bench_sim"), &[(knob, value)]);
        assert_refused(&out, knob);
    }
}

#[test]
fn mass_scenarios_refuses_a_malformed_size_in_any_knob() {
    for (knob, value) in [("MASS_SCENARIOS_SEEDS", "two"), ("MASS_SCENARIOS_N", "1e3")] {
        let out = run(env!("CARGO_BIN_EXE_mass_scenarios"), &[(knob, value)]);
        assert_refused(&out, knob);
    }
}

#[test]
fn mass_scenarios_refuses_an_unknown_label_in_any_knob() {
    for knob in [
        "MASS_SCENARIOS_PROTOCOLS",
        "MASS_SCENARIOS_GENERATORS",
        "MASS_SCENARIOS_FAULTS",
    ] {
        let out = run(env!("CARGO_BIN_EXE_mass_scenarios"), &[(knob, "nope")]);
        assert_refused(&out, knob);
    }
}
