//! The n=10⁴ scaling study: per-size delivery latency, reliability and
//! wire cost under §5-style buffer scaling.
//!
//! The paper evaluates lpbcast at n=125 (l = 15, F = 3, |eventIds|m = 60)
//! and argues the per-node cost stays constant as the system grows; the
//! 10⁴-scale evaluations of DPRB and Scalable BRB (see PAPERS.md) are the
//! modern reference points. This module extrapolates the paper's §4/§5
//! sizing guidance to larger n:
//!
//! * **view size `l`** grows logarithmically (§4.3: views of size
//!   O(log n) keep the view graph connected w.h.p.) — calibrated so the
//!   formula reproduces l = 15 at the paper's n = 125;
//! * **fanout `F`** stays fixed at 3 — the constant-per-node-cost claim;
//!   growing n is absorbed by latency, not by per-round traffic;
//! * **buffer bounds** (`|eventIds|m`, `|events|m`) grow sub-linearly
//!   (§5: the capacity required for a given delivery reliability grows
//!   slower than n) — scaled with √(n/125) from the paper's measured
//!   operating point.
//!
//! [`run_scale_point`] measures, at one system size: the mean delivery
//! latency of a probe broadcast in rounds (next to the Appendix-A
//! expectation-model prediction for the same n/F/ε/τ, which also sizes
//! the measurement window), the fraction of processes the probe reached
//! and the wire bytes the dissemination offered per round — every column
//! a pure function of `(n, seed)`. What a step or an engine build costs
//! in wall clock is `lpbench`'s question, not this module's.
//! [`scaling_study`] sweeps a size ladder and [`scaling_tsv`] renders the
//! rows as a TSV figure (written to `results/scaling.tsv` by
//! `bench_sim`).

use lpbcast_analysis::infection::{ExpectationModel, InfectionParams};
use lpbcast_core::{Config, HistoryMode};
use lpbcast_types::{Payload, ProcessId};

use crate::experiment::{LpbcastSimParams, SimParams};

/// §5-extrapolated view size: max(15, ⌈3.1·ln n⌉), reproducing the
/// paper's l = 15 at n = 125 and growing logarithmically past it
/// (l = 29 at n = 10⁴).
pub fn scaled_view_size(n: usize) -> usize {
    let l = (3.1 * (n.max(2) as f64).ln()).ceil() as usize;
    l.max(15)
}

/// §5-extrapolated buffer bound: the paper's 60 at n = 125, scaled with
/// √(n/125) (sub-linear growth; 537 at n = 10⁴).
pub fn scaled_buffer_bound(n: usize) -> usize {
    let b = (60.0 * (n as f64 / 125.0).sqrt()).ceil() as usize;
    b.max(60)
}

/// Simulation parameters for system size `n` with §5-scaled buffers and
/// the paper's ε = 0.05, τ = 0.01 fault model.
///
/// The history runs in [`HistoryMode::Compact`] (the §3.2 per-origin
/// optimisation): under sustained load the digest scan cost stays
/// O(origins) instead of O(delivered ids), which is what keeps the
/// n = 10⁴ rows flat when thousands of ids are in flight. The bounded
/// buffers keep their §5-scaled sizes for the `events` queue.
pub fn scaled_params(n: usize) -> LpbcastSimParams {
    let bound = scaled_buffer_bound(n);
    let mut params = LpbcastSimParams::paper_defaults(n);
    params.config = Config::builder()
        .view_size(scaled_view_size(n).min(n.saturating_sub(1).max(1)))
        .fanout(3.min(n.saturating_sub(1).max(1)))
        .event_ids_max(bound)
        .events_max(bound)
        .history_mode(HistoryMode::Compact)
        .deliver_on_digest(true)
        .build();
    params
}

/// One row of the scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// System size.
    pub n: usize,
    /// View size `l` used (scaled).
    pub view_size: usize,
    /// Buffer bound used for `|eventIds|m` and `|events|m` (scaled).
    pub buffer_bound: usize,
    /// Mean delivery latency of the probe broadcast, in rounds.
    pub mean_latency_rounds: f64,
    /// Mean latency predicted by the Appendix-A expectation model for
    /// the same n/F/ε/τ — the analytical cross-check of the measured
    /// column.
    pub model_latency_rounds: f64,
    /// Fraction of alive processes the probe reached.
    pub reliability: f64,
    /// Mean wire bytes per round offered during the probe dissemination
    /// (exact codec frame lengths over every fanout copy) — deterministic
    /// per seed; `tests/scale_golden.rs` holds it exactly.
    pub wire_bytes_per_round: f64,
    /// Rounds the dissemination run was given.
    pub rounds: u64,
}

/// The Appendix-A expectation model for size `n` with the paper's fault
/// rates (F = 3, ε = 0.05, τ = 0.01) — the analytical reference the
/// simulated scaling rows are compared against.
fn expectation_model(n: usize) -> ExpectationModel {
    ExpectationModel::new(InfectionParams::paper_defaults(n.max(2), 3))
}

/// Rounds given to a dissemination at size `n`: the model's expected
/// rounds to 99.9% coverage plus slack for the stochastic tail. Falls
/// back to 2·log₂ n if the model never reaches the target.
fn dissemination_rounds(n: usize) -> u64 {
    let fallback = (2.0 * (n.max(2) as f64).log2()).ceil() as u64;
    expectation_model(n)
        .rounds_to_fraction(0.999, 400)
        .unwrap_or(fallback)
        + 10
}

/// Mean delivery latency predicted by the expectation model: average of
/// the round at which each expected infection happens, origin included
/// at round 0.
fn model_mean_latency(n: usize, rounds: u64) -> f64 {
    let curve = expectation_model(n).expected_curve(rounds);
    let mut weighted = 0.0;
    for (r, pair) in curve.windows(2).enumerate() {
        weighted += (pair[1] - pair[0]).max(0.0) * (r + 1) as f64;
    }
    let total = curve.last().copied().unwrap_or(1.0).max(1.0);
    weighted / total
}

/// Measures one scaling row at system size `n`: one engine built from
/// [`scaled_params`] disseminates a single probe under the wire meter.
pub fn run_scale_point(n: usize, seed: u64) -> ScalePoint {
    let params = scaled_params(n);
    let (view_size, buffer_bound) = (params.config.view_size, params.config.event_ids_max);
    let rounds = dissemination_rounds(n);

    let mut engine = params
        .rounds(rounds)
        .engine_builder(seed ^ 0x5CA1_AB1E)
        .wire_meter(lpbcast_net::wire_meter())
        .build();
    let probe = engine.publish_from(ProcessId::new(0), Payload::from_static(b"probe"));
    engine.run(rounds);
    // Measured against the full membership n (never the end-of-run
    // alive count, which would over-report past 1.0 when a process sees
    // the probe and then crashes): a crashed process counts as delivered
    // iff it saw the probe before crashing, so τ = 1% caps the metric
    // near 0.99.
    let reliability = engine.tracker().reliability_of(probe, n);
    let mean_latency_rounds = engine.tracker().mean_latency(probe).unwrap_or(f64::NAN);
    let wire = engine.wire_accounting().unwrap_or_default();

    ScalePoint {
        n,
        view_size,
        buffer_bound,
        mean_latency_rounds,
        model_latency_rounds: model_mean_latency(n, rounds),
        reliability,
        wire_bytes_per_round: wire.bytes as f64 / rounds.max(1) as f64,
        rounds,
    }
}

/// Runs [`run_scale_point`] over a ladder of system sizes.
pub fn scaling_study(ns: &[usize], seed: u64) -> Vec<ScalePoint> {
    ns.iter().map(|&n| run_scale_point(n, seed)).collect()
}

/// Renders scaling rows as a TSV figure (header + one row per size).
pub fn scaling_tsv(points: &[ScalePoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# lpbcast scaling study: delivery latency, reliability and wire cost vs n\n\
         # l and buffer bounds scaled per §5 (see lpbcast_sim::scale);\n\
         # model_latency_rounds is the Appendix-A expectation-model prediction\n\
         n\tview_size\tbuffer_bound\tmean_latency_rounds\tmodel_latency_rounds\treliability\twire_bytes_per_round\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{:.3}\t{:.3}\t{:.5}\t{:.1}",
            p.n,
            p.view_size,
            p.buffer_bound,
            p.mean_latency_rounds,
            p.model_latency_rounds,
            p.reliability,
            p.wire_bytes_per_round
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_reproduce_paper_point_and_grow() {
        assert_eq!(scaled_view_size(125), 15, "paper operating point");
        assert_eq!(scaled_buffer_bound(125), 60, "paper operating point");
        assert!(scaled_view_size(10_000) > 15);
        assert!(scaled_view_size(10_000) < 40, "logarithmic, not linear");
        assert!(scaled_buffer_bound(10_000) > 60);
        assert!(
            scaled_buffer_bound(10_000) < 10_000 * 60 / 125,
            "sub-linear"
        );
    }

    #[test]
    fn scaled_params_stay_valid_for_tiny_n() {
        let p = scaled_params(4);
        assert!(p.config.view_size <= 3);
        assert!(p.config.fanout <= p.config.view_size);
        assert!(p.config.validate().is_ok());
    }

    #[test]
    fn scale_point_small_system_fully_infected() {
        let point = run_scale_point(64, 7);
        assert_eq!(point.n, 64);
        assert!(
            point.reliability > 0.95,
            "64 nodes, ample rounds: {point:?}"
        );
        assert!(
            point.mean_latency_rounds < 10.0,
            "latency stays logarithmic: {point:?}"
        );
        assert!(
            (point.mean_latency_rounds - point.model_latency_rounds).abs() < 2.5,
            "simulation tracks the Appendix-A expectation model: {point:?}"
        );
        assert!(
            point.wire_bytes_per_round > 0.0,
            "dissemination traffic was metered: {point:?}"
        );
    }

    #[test]
    fn tsv_has_header_and_rows() {
        let points = scaling_study(&[16, 32], 3);
        let tsv = scaling_tsv(&points);
        let data_lines: Vec<&str> = tsv
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with('n'))
            .collect();
        assert_eq!(data_lines.len(), 2);
        assert!(tsv.contains("wire_bytes_per_round"));
        assert!(data_lines[0].starts_with("16\t"));
    }
}
