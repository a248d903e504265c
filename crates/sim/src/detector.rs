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
//! [`detector_cells`] lists the twelve cells of one study. `bench_sim`
//! sweeps them beside the scenario suite and renders them like every
//! other cell ([`cells_tsv`](crate::cells_tsv) into
//! `results/scenarios.tsv`, [`cell_json`](crate::cell_json) into
//! `BENCH_sim.json`'s `cells`); CI `cmp`s the CI-size rendering across
//! rayon pool sizes, and `scenario_golden` pins three studies.

use crate::fault::FaultSpec;
use crate::scenario::spec::{ProtocolKind, ScenarioGenerator, ScenarioSpec};

/// The study at size `n`, as `(spec, seed)` cells in on/off pairs (the
/// `swim+` stack, then the bare one): crash recovery under a clean and a
/// noisy network, false-positive windows under two no-crash noise
/// models, the crash A/B against the flat-membership pbcast baseline,
/// and (last) the churn-neutrality comparison at `n` clamped to
/// 40..=2000.
pub fn detector_cells(n: usize, seed: u64) -> Vec<(ScenarioSpec, u64)> {
    use ScenarioGenerator::{Churn, Detection, NoiseWindow};
    let noisy = Some(FaultSpec::noisy_links(seed));
    let slow = Some(FaultSpec::slow_cohort(seed));
    let lpbcast = [ProtocolKind::SwimLpbcast, ProtocolKind::Lpbcast];
    let pbcast = [ProtocolKind::SwimPbcast, ProtocolKind::Pbcast];
    // Generator, size, fault overlay, [on, off] stacks.
    let pairs = [
        (Detection, n, None, lpbcast),
        (Detection, n, noisy, lpbcast),
        (NoiseWindow, n, noisy, lpbcast),
        (NoiseWindow, n, slow, lpbcast),
        (Detection, n, None, pbcast),
        (Churn, n.clamp(40, 2000), None, lpbcast),
    ];
    pairs
        .into_iter()
        .flat_map(|(generator, n, fault, stacks)| {
            stacks.map(|protocol| {
                let spec = ScenarioSpec::new(protocol, generator, n);
                (ScenarioSpec { fault, ..spec }, seed)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::run_scenario_spec;
    use crate::scenario::{Metric, ScenarioReport};

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
    fn cells_pair_each_swim_stack_with_its_bare_one() {
        let cells = detector_cells(5000, 3);
        assert_eq!(cells.len(), 12);
        for pair in cells.chunks(2) {
            let [(on, 3), (off, 3)] = pair else {
                panic!("an on/off pair at seed 3: {pair:?}");
            };
            assert_eq!(
                *off,
                ScenarioSpec {
                    protocol: off.protocol,
                    ..*on
                }
            );
            assert_eq!(on.protocol.name(), format!("swim+{}", off.protocol));
        }
        let (churn, _) = cells[10];
        assert_eq!((churn.generator, churn.n), (ScenarioGenerator::Churn, 2000));
        assert_eq!(detector_cells(12, 1)[10].0.n, 40);
    }
}
