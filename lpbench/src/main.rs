//! `lpbench`: one end-to-end + per-layer benchmark for the lpbcast
//! simulator and socket runtime. See `README.md` beside this package for
//! the workloads, the metrics and how to read a traced run.
//!
//! ```text
//! lpbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick] [--append <file>]
//! lpbench --check <file>
//! lpbench --compare <a> <b>
//! lpbench --print-benchmark-json
//! ```
//!
//! A run prints a detail line for people and, as the last line of its
//! standard output, the result: `{"correct", "attempted", "failed",
//! "metrics"}` with the end-to-end metrics (`--trace 0`) or the per-layer
//! ones (`--trace 1`). It reads no environment variables.

#![forbid(unsafe_code)]

mod calib;
mod check;
mod hist;
mod input;
mod json;
mod metrics;
mod net;
mod report;
mod sim;
mod sys;
mod trace;

use std::io::Write;
use std::process::ExitCode;

use report::Report;

const USAGE: &str = "usage:
  lpbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick] [--append <file>]
  lpbench --check <file>             validate a result file against BENCHMARK.json
  lpbench --compare <a> <b>          apply each metric's bound to two result files
  lpbench --print-benchmark-json     the contract, generated from the tables in metrics.rs";

/// Runs one workload. `quick` selects the miniature shape (n <= 128).
fn run_workload(name: &str, seed: u64, seconds: u64, traced: bool, quick: bool) -> Option<Report> {
    Some(match name {
        "sim_loaded_1k" => {
            sim::run::<sim::PlainNode>(&sim::sim_loaded_1k(quick), seed, seconds, traced)
        }
        "sim_membership_10k" => {
            sim::run::<sim::PlainNode>(&sim::sim_membership_10k(quick), seed, seconds, traced)
        }
        "sim_churn_swim_2k" => {
            sim::run::<sim::SwimNode>(&sim::sim_churn_swim_2k(quick), seed, seconds, traced)
        }
        "net_loopback_512" => net::run(&net::net_loopback_512(quick), seed, seconds, traced),
        _ => return None,
    })
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    append: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seconds: metrics::RUN_SECONDS,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--append" => parsed.append = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&parsed.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(parsed)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn contract() -> Result<check::Contract, String> {
    check::Contract::parse(&read("BENCHMARK.json")?).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn records(path: &str) -> Result<Vec<check::Record>, String> {
    check::parse_records(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(!args.is_empty())
        }
        Some("--print-benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Some("--check") => {
            let [_, file] = args else {
                return Err("--check takes one file".into());
            };
            let (text, ok) = check::check(&contract()?, &records(file)?);
            print!("{text}");
            Ok(ok)
        }
        Some("--compare") => {
            let [_, a, b] = args else {
                return Err("--compare takes two files".into());
            };
            let (text, ok) = check::compare(&contract()?, &records(a)?, &records(b)?);
            print!("{text}");
            Ok(ok)
        }
        Some(_) => {
            let parsed = parse_run_args(args)?;
            let name = parsed.workload.as_deref().ok_or("--workload is required")?;
            let report = run_workload(
                name,
                parsed.seed,
                parsed.seconds,
                parsed.traced,
                parsed.quick,
            )
            .ok_or_else(|| {
                let known: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
                format!("unknown workload {name}; the workloads are {known:?}")
            })?;
            let result = report.result_json();
            if let Some(path) = &parsed.append {
                let line = check::record_line(
                    name,
                    parsed.seed,
                    parsed.seconds,
                    parsed.traced,
                    parsed.quick,
                    result.clone(),
                );
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot open {path}: {e}"))?;
                writeln!(file, "{line}").map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            println!("{}", report.detail_json());
            println!("{result}");
            // An incorrect run is still a result: the line above says so.
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("lpbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_as_the_driver_passes_them() {
        let parsed = parse_run_args(&strings(&[
            "--workload",
            "net_loopback_512",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(parsed.workload.as_deref(), Some("net_loopback_512"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.traced, parsed.quick),
            (42, 20, true, false)
        );
        assert!(parse_run_args(&strings(&["--trace", "yes"])).is_err());
        assert!(parse_run_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_run_args(&strings(&["--seed"])).is_err());
        assert!(run_workload("no_such_workload", 1, 1, false, true).is_none());
    }

    /// All four workloads in miniature, untraced and traced, through the
    /// same checker `--check` runs.
    #[test]
    fn a_full_quick_run_passes_check() {
        let contract = check::Contract::parse(&metrics::benchmark_json()).expect("contract");
        let mut lines = Vec::new();
        for (name, _) in metrics::WORKLOADS {
            for traced in [false, true] {
                let report = run_workload(name, 11, 1, traced, true).expect("known workload");
                assert!(
                    report.correct(),
                    "{name} traced={traced}: {:?}",
                    report.failures
                );
                assert_eq!(report.failed, 0, "{name}: a broadcast died out");
                lines.push(check::record_line(
                    name,
                    11,
                    1,
                    traced,
                    true,
                    report.result_json(),
                ));
            }
        }
        let records = check::parse_records(&lines.join("\n")).expect("own lines parse");
        let (text, ok) = check::check(&contract, &records);
        assert!(ok, "{text}");
        let (table, same) = check::compare(&contract, &records, &records);
        assert!(same, "{table}");
    }
}
