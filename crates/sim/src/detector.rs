//! SWIM failure-detector A/B: the same scenario cells run once on a
//! [`Swim`](lpbcast_membership::Swim)-wrapped stack and once on the bare
//! one, under named [`FaultSpec`] models.
//!
//! The question the study answers is the one the paper leaves to its
//! buffer-decay mechanisms (§4.1 treats crashed processes as mere
//! message loss): *does explicit failure detection pay for itself?*
//! Three measurements, each a pair of [`ScenarioSpec`] cells differing
//! in `proto=` only — replayable from their spec strings, sweepable over
//! seeds by `mass_scenarios`, pinned by `tests/scenario_golden.rs`:
//!
//! * **Recovery** (`gen=detection`) — after a correlated crash of 45% of
//!   the membership, how many rounds until a probe broadcast reaches
//!   ≥ 99% of the survivors? Without a detector, the dead linger in
//!   partial views and soak up fanout until random truncation happens to
//!   evict them; with SWIM, confirmed failures are purged via
//!   [`Protocol::evict`](lpbcast_types::Protocol::evict) within a few
//!   probe periods, so gossip stops being wasted on corpses.
//! * **False positives** (`gen=noise_window`) — under noisy fault models
//!   where *nobody* is dead ([`FaultSpec::noisy_links`],
//!   [`FaultSpec::slow_cohort`]), every eviction is a detector mistake.
//!   The census counts evictions of still-alive processes across all
//!   nodes, and the refutations that saved the rest (a
//!   suspected-but-alive node bumps its incarnation, §SWIM): the
//!   precision half of the accuracy/speed trade.
//! * **Churn neutrality** (`gen=churn`) — the full churn scenario with
//!   the wrapper in place must keep joining, leaving and disseminating
//!   like the unwrapped protocol.
//!
//! `bench_sim` renders a [`detector_study`] into `BENCH_sim.json`'s
//! `detector` section and `results/detector.tsv`; CI `cmp`s the CI-size
//! rendering across rayon pool sizes, and `detector_golden` pins three
//! studies.

use std::fmt;

use crate::fault::FaultSpec;
use crate::scenario::spec::{sweep_specs, ProtocolKind, ScenarioGenerator, ScenarioSpec};
use crate::scenario::ScenarioReport;

/// One A/B measurement: the same cell, detector on and off.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorPair {
    /// Row label in `results/detector.tsv` and `BENCH_sim.json`:
    /// `catastrophe`, `noise`, `catastrophe_pbcast` or `churn`.
    pub scenario: &'static str,
    /// Fault-model label: `none`, `noisy_links`, `slow_cohort`.
    pub fault: &'static str,
    /// The cell the SWIM-wrapped arm ran; the baseline's differs in its
    /// `protocol` only.
    pub spec: ScenarioSpec,
    /// The SWIM-wrapped arm.
    pub on: ScenarioReport,
    /// The unwrapped baseline arm.
    pub off: ScenarioReport,
}

/// Runs the full study at size `n`: crash recovery under a clean and a
/// noisy network, false-positive windows under two no-crash noise
/// models, the crash A/B against the flat-membership pbcast baseline,
/// and (last) the churn-neutrality comparison at `n` clamped to
/// 40..=2000. Twelve cells through [`sweep_specs`]; deterministic per
/// `(n, seed)`.
pub fn detector_study(n: usize, seed: u64) -> Vec<DetectorPair> {
    use ScenarioGenerator::{Churn, Detection, NoiseWindow};
    let clean = ("none", None);
    let noisy = ("noisy_links", Some(FaultSpec::noisy_links(seed)));
    let slow = ("slow_cohort", Some(FaultSpec::slow_cohort(seed)));
    let lpbcast = [ProtocolKind::SwimLpbcast, ProtocolKind::Lpbcast];
    let pbcast = [ProtocolKind::SwimPbcast, ProtocolKind::Pbcast];
    // Row label, generator, size, fault overlay, [on, off] stacks.
    let rows = [
        ("catastrophe", Detection, n, clean, lpbcast),
        ("catastrophe", Detection, n, noisy, lpbcast),
        ("noise", NoiseWindow, n, noisy, lpbcast),
        ("noise", NoiseWindow, n, slow, lpbcast),
        ("catastrophe_pbcast", Detection, n, clean, pbcast),
        ("churn", Churn, n.clamp(40, 2000), clean, lpbcast),
    ];
    let cells: Vec<(ScenarioSpec, u64)> = rows
        .iter()
        .flat_map(|&(_, generator, n, (_, fault), stacks)| {
            stacks.map(|protocol| {
                let spec = ScenarioSpec::new(protocol, generator, n);
                (ScenarioSpec { fault, ..spec }, seed)
            })
        })
        .collect();
    let mut reports = sweep_specs(&cells).into_iter();
    let pairs = rows.iter().zip(cells.chunks(2));
    pairs
        .map(|(&(scenario, .., (fault, _), _), arms)| DetectorPair {
            scenario,
            fault,
            spec: arms[0].0,
            on: reports.next().expect("one report per cell"),
            off: reports.next().expect("one report per cell"),
        })
        .collect()
}

/// Renders a study as a long-format TSV figure
/// (`scenario  fault  detector  n  metric  value`), written to
/// `results/detector.tsv` by `bench_sim`.
pub fn detector_tsv(study: &[DetectorPair]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# SWIM failure-detector A/B: identical load and fault model, with/without the wrapper\n\
         # (see lpbcast_sim::detector; deterministic per seed)\n\
         scenario\tfault\tdetector\tn\tmetric\tvalue\n",
    );
    for pair in study {
        let (scenario, fault) = (pair.scenario, pair.fault);
        if pair.spec.generator == ScenarioGenerator::Churn {
            let mut row = |metric: &str, value: &dyn fmt::Display| {
                let _ = writeln!(out, "{scenario}\t{fault}\tab\t-\t{metric}\t{value}");
            };
            let (with, without) = (&pair.on, &pair.off);
            let (mean_with, mean_without) = (with.reliability_mean, without.reliability_mean);
            row("mean_reliability_with", &format_args!("{mean_with:.5}"));
            row(
                "mean_reliability_without",
                &format_args!("{mean_without:.5}"),
            );
            row("joins_with", &with["joins_completed"]);
            row("joins_without", &without["joins_completed"]);
            continue;
        }
        for (label, arm) in [("on", &pair.on), ("off", &pair.off)] {
            for metric in [
                "recovery_rounds",
                "probe_reliability",
                "evictions",
                "false_evictions",
                "suspicions",
                "refutations",
            ] {
                let (n, value) = (arm.n, arm[metric]);
                let _ = writeln!(out, "{scenario}\t{fault}\t{label}\t{n}\t{metric}\t{value}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::run_scenario_spec;
    use crate::scenario::Metric;

    const CENSUS: [&str; 4] = ["evictions", "false_evictions", "suspicions", "refutations"];

    /// One A/B measurement: `cell` on the wrapped and on the bare stack.
    fn ab(cell: ScenarioSpec, seed: u64) -> (ScenarioReport, ScenarioReport) {
        let arm = |protocol| run_scenario_spec(&ScenarioSpec { protocol, ..cell }, seed);
        (arm(ProtocolKind::SwimLpbcast), arm(ProtocolKind::Lpbcast))
    }

    #[test]
    fn swim_wrapper_runs_the_churn_scenario() {
        let spec = ScenarioSpec::new(ProtocolKind::SwimLpbcast, ScenarioGenerator::Churn, 60);
        let report = run_scenario_spec(&spec, 7);
        assert_eq!(report.protocol, "swim+lpbcast");
        assert!(
            report["joins_completed"].value() > report["joins_attempted"].value() / 2.0,
            "joins complete through the wrapper: {report:?}"
        );
        assert!(
            report.reliability_mean > 0.7,
            "dissemination survives the wrapper: {report:?}"
        );
        assert_eq!(
            report["partitioned_at_end"],
            Metric::Flag(false),
            "{report:?}"
        );
    }

    #[test]
    fn detector_confirms_catastrophe_victims() {
        let cell = ScenarioSpec {
            fraction: 0.30,
            rounds: 30,
            ..ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Detection, 120)
        };
        let (on, off) = ab(cell, 5);
        assert!(
            on["evictions"].value() > 0.0,
            "the crash cohort gets confirmed: {on:?}"
        );
        assert_eq!(off["evictions"], Metric::Count(0));
        assert!(
            on["probe_reliability"].value() > 0.95,
            "probe still disseminates: {on:?}"
        );
        assert!(on.recovery_rounds.is_some(), "recovery completes: {on:?}");
    }

    #[test]
    fn a_stack_without_a_detector_reports_four_zeros() {
        let spec = ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Detection, 80);
        let report = run_scenario_spec(&spec, 5);
        for metric in CENSUS {
            assert_eq!(report[metric], Metric::Count(0), "{metric}: {report:?}");
        }
        assert!(report["crashed"].value() > 0.0, "{report:?}");
    }

    #[test]
    fn noisy_links_without_crashes_mostly_refuted() {
        let cell = ScenarioSpec {
            rounds: 20,
            ..ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::NoiseWindow, 100)
        };
        let (on, off) = ab(cell.with_fault(FaultSpec::noisy_links(5)), 5);
        // Everybody is alive, so every eviction is false by definition.
        assert_eq!(on["evictions"], on["false_evictions"]);
        assert!(
            on["suspicions"].value() > 0.0,
            "a noisy network raises suspicions: {on:?}"
        );
        assert!(
            on["refutations"].value() > 0.0 || on["false_evictions"].value() == 0.0,
            "incarnation bumps push back: {on:?}"
        );
        assert!(
            on["probe_reliability"].value() > 0.9 && off["probe_reliability"].value() > 0.9,
            "the noise model is survivable either way: {on:?} {off:?}"
        );
    }

    #[test]
    fn study_is_deterministic_per_seed() {
        assert_eq!(detector_study(60, 3), detector_study(60, 3));
    }

    #[test]
    fn tsv_has_both_arms_and_all_metrics() {
        let tsv = detector_tsv(&detector_study(60, 2));
        for needle in [
            "catastrophe\tnone\ton\t",
            "catastrophe\tnone\toff\t",
            "noise\tnoisy_links\ton\t",
            "noise\tslow_cohort\ton\t",
            "recovery_rounds",
            "false_evictions",
            "refutations",
            "mean_reliability_with",
        ] {
            assert!(tsv.contains(needle), "missing {needle:?} in:\n{tsv}");
        }
    }
}
