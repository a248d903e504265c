//! `--check` and `--compare`: reading result files back against the
//! contract in `BENCHMARK.json`.
//!
//! A result file holds one JSON object per line, as `--append <file>`
//! writes them: `{"workload", "seed", "seconds", "trace", "quick",
//! "result"}` where `result` is the run's last output line.

use crate::json::Json;

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` that results are held against.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing key \"{key}\""))
}

fn text(value: &Json, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("\"{key}\" is not a string"))
}

impl Contract {
    pub fn parse(benchmark_json: &str) -> Result<Contract, String> {
        let root = Json::parse(benchmark_json)?;
        let list = |key: &str| -> Result<&[Json], String> {
            field(&root, key)?
                .as_arr()
                .ok_or_else(|| format!("\"{key}\" is not a list"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Bounded {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    lower_is_better: text(m, "better")? == "lower",
                    bound: field(m, "bound")?
                        .as_f64()
                        .ok_or("\"bound\" is not a number")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list("per_layer")?
            .iter()
            .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        Ok(Contract {
            workloads,
            end_to_end,
            per_layer,
        })
    }
}

/// One line of a result file.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub traced: bool,
    pub quick: bool,
    pub result: Json,
}

pub fn parse_records(text_of_file: &str) -> Result<Vec<Record>, String> {
    text_of_file
        .lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let parse = || -> Result<Record, String> {
                let value = Json::parse(line)?;
                Ok(Record {
                    workload: text(&value, "workload")?,
                    traced: field(&value, "trace")?.as_f64() == Some(1.0),
                    quick: field(&value, "quick")?.as_bool().unwrap_or(false),
                    result: field(&value, "result")?.clone(),
                })
            };
            parse().map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// The line `--append` writes for one run.
pub fn record_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    result: Json,
) -> String {
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
        ("quick", Json::Bool(quick)),
        ("result", result),
    ])
    .to_string()
}

fn whole_number(value: &Json) -> Option<f64> {
    value.as_f64().filter(|n| n.fract() == 0.0 && *n >= 0.0)
}

/// Problems of one record against the contract; empty when it conforms.
fn check_record(contract: &Contract, record: &Record) -> Vec<String> {
    let mut problems = Vec::new();
    if !contract.workloads.contains(&record.workload) {
        problems.push(format!("unknown workload {}", record.workload));
    }
    let keys: Vec<&str> = record
        .result
        .as_obj()
        .map(|pairs| pairs.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("result keys are {keys:?}"));
        return problems;
    }
    if record.result.get("correct").and_then(Json::as_bool) != Some(true) {
        problems.push("the run reports its outputs as incorrect".into());
    }
    match record.result.get("attempted").and_then(whole_number) {
        Some(n) if n >= 1.0 => {}
        _ => problems.push("\"attempted\" is not a whole number >= 1".into()),
    }
    if record.result.get("failed").and_then(whole_number).is_none() {
        problems.push("\"failed\" is not a whole number >= 0".into());
    }
    let expected: Vec<(&str, &str)> = if record.traced {
        contract
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect()
    } else {
        contract
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    };
    let metrics = record
        .result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default();
    for (name, unit) in &expected {
        let Some((_, metric)) = metrics.iter().find(|(n, _)| n == name) else {
            problems.push(format!("metric {name} is missing"));
            continue;
        };
        if metric.get("unit").and_then(Json::as_str) != Some(unit) {
            problems.push(format!("metric {name} is not in {unit}"));
        }
        match metric.get("value").and_then(Json::as_f64) {
            Some(v) if v.is_finite() && v >= 0.0 => {
                if !record.traced && v == 0.0 {
                    problems.push(format!("end-to-end metric {name} is 0"));
                }
            }
            _ => problems.push(format!("metric {name} has no finite value >= 0")),
        }
    }
    for (name, _) in metrics {
        if !expected.iter().any(|(n, _)| n == name) {
            problems.push(format!("metric {name} is not in the contract"));
        }
    }
    if record.traced && !record.quick {
        // "State the sample count": a p99 needs far more than ten samples
        // beyond it; every full-size workload is sized for 10^5.
        let samples = metrics
            .iter()
            .find(|(n, _)| n == "bench.latency.samples")
            .and_then(|(_, m)| m.get("value"))
            .and_then(Json::as_f64);
        if samples.is_none_or(|s| s < 1e5) {
            problems.push(format!("latency sample count {samples:?} is below 1e5"));
        }
    }
    problems
}

/// Checks a whole result file; returns the report and whether it passed.
pub fn check(contract: &Contract, records: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for (i, record) in records.iter().enumerate() {
        for problem in check_record(contract, record) {
            ok = false;
            out += &format!("line {} ({}): {problem}\n", i + 1, record.workload);
        }
    }
    for workload in &contract.workloads {
        if !records.iter().any(|r| &r.workload == workload && !r.traced) {
            ok = false;
            out += &format!("{workload}: no end-to-end result\n");
        }
    }
    out += &format!(
        "{} records, {}\n",
        records.len(),
        if ok { "all conform" } else { "PROBLEMS" }
    );
    (out, ok)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver computes its spreads that way).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

fn values_of(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.result.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// One row per workload x end-to-end metric: `ok` when the second set's
/// median is no worse than the first's by more than the bound, `worse`
/// when it is, and `unresolved` when the first set's own quartile spread
/// is wider than the bound (unless every run of the second set reads
/// better than every run of the first). Returns the table and whether
/// every row is `ok`.
pub fn compare(contract: &Contract, a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = format!(
        "{:<20} {:<30} {:>14} {:>14} {:>9} {:>8}  verdict\n",
        "workload", "metric", "median a", "median b", "change", "bound"
    );
    let mut all_ok = true;
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let (va, vb) = (
                values_of(a, workload, &metric.name),
                values_of(b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                all_ok = false;
                out += &format!(
                    "{workload:<20} {:<30} missing on one side  unresolved\n",
                    metric.name
                );
                continue;
            }
            let (ma, mb) = (crate::hist::median(&va), crate::hist::median(&vb));
            // Positive = worse, as a share of the first set's median.
            let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
            let change = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
            let spread =
                quartiles(&va).map_or(0.0, |q| (q[2] - q[0]) / ma.abs().max(f64::MIN_POSITIVE));
            let b_always_better = vb.iter().all(|&y| va.iter().all(|&x| sign * (y - x) < 0.0));
            let verdict = if change > metric.bound {
                "worse"
            } else if spread > metric.bound && !b_always_better {
                "unresolved"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            out += &format!(
                "{workload:<20} {:<30} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>7.2}%  {verdict}\n",
                metric.name,
                change * 100.0,
                metric.bound * 100.0
            );
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{benchmark_json, metrics_json, END_TO_END};

    fn contract() -> Contract {
        Contract::parse(&benchmark_json()).expect("generated contract parses")
    }

    fn e2e_record(workload: &str, scale: f64) -> Record {
        let metrics: Vec<(String, &'static str, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, ..)| (n.to_string(), u, 10.0 * scale))
            .collect();
        let result = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(0.0)),
            ("metrics", metrics_json(&metrics)),
        ]);
        let line = record_line(workload, 1, 20, false, false, result);
        parse_records(&line).expect("own line parses").remove(0)
    }

    fn full_set(scale: f64) -> Vec<Record> {
        contract()
            .workloads
            .iter()
            .map(|w| e2e_record(w, scale))
            .collect()
    }

    #[test]
    fn contract_round_trips_the_tables() {
        let c = contract();
        assert_eq!(c.workloads.len(), 4);
        assert_eq!(c.end_to_end.len(), END_TO_END.len());
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.lower_is_better));
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "deliveries_per_s" && !m.lower_is_better));
    }

    #[test]
    fn check_accepts_a_conforming_set_and_names_what_is_wrong() {
        let c = contract();
        let (report, ok) = check(&c, &full_set(1.0));
        assert!(ok, "{report}");

        let mut missing_workload = full_set(1.0);
        missing_workload.pop();
        assert!(!check(&c, &missing_workload).1);

        let mut broken = full_set(1.0);
        let text = broken[0]
            .result
            .to_string()
            .replace("\"setup_s\"", "\"setup_ms\"");
        broken[0].result = Json::parse(&text).expect("still JSON");
        let (report, ok) = check(&c, &broken);
        assert!(!ok);
        assert!(
            report.contains("setup_s is missing")
                && report.contains("setup_ms is not in the contract")
        );

        let mut incorrect = full_set(1.0);
        let text = incorrect[1]
            .result
            .to_string()
            .replace("\"correct\": true", "\"correct\": false");
        incorrect[1].result = Json::parse(&text).expect("still JSON");
        assert!(!check(&c, &incorrect).1);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q =
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).expect("ten values");
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn compare_applies_each_bound_in_the_right_direction() {
        let c = contract();
        let (table, ok) = compare(&c, &full_set(1.0), &full_set(1.0));
        assert!(ok, "{table}");
        // Everything 20 % larger: lower-is-better metrics within a 25 %
        // bound pass, higher-is-better ones improve, tighter ones fail.
        let (table, ok) = compare(&c, &full_set(1.0), &full_set(1.2));
        assert!(!ok);
        let verdict = |metric: &str| {
            table
                .lines()
                .find(|l| l.starts_with("sim_loaded_1k") && l.contains(metric))
                .and_then(|l| l.split_whitespace().last())
                .map(str::to_string)
        };
        assert_eq!(verdict("setup_s").as_deref(), Some("ok"));
        assert_eq!(verdict("deliveries_per_s").as_deref(), Some("ok"));
        assert_eq!(verdict("wire_bytes_per_delivery").as_deref(), Some("worse"));
    }

    #[test]
    fn compare_reports_a_wide_baseline_as_unresolved() {
        let c = contract();
        let mut a = full_set(1.0);
        a.extend(full_set(1.6));
        a.extend(full_set(0.5));
        let (table, ok) = compare(&c, &a, &full_set(1.0));
        assert!(!ok);
        assert!(table.contains("unresolved"), "{table}");
    }
}
