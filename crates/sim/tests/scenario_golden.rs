//! Golden pin of the scenario layer: every metric of every generator ×
//! protocol stack, with and without a correlated-fault overlay, must
//! match `fixtures/scenario_golden.tsv` byte for byte.
//!
//! The fixture was rendered from the six hand-written scenario drivers
//! the timeline driver replaced (the commit before `run_plan` existed),
//! so it is the proof that re-expressing scenarios as data changed no
//! bit of any run — and from now on, that nobody else does by accident.
//! The later cells move every spec knob off its default (random-origin
//! load, custom rounds / fraction / cycles). The `detection` and
//! `noise_window` row blocks joined when the SWIM detector A/B became
//! spec cells, and the three `detector_cells` studies at the end when
//! their own fixture, rendered by the A/B's former driver, was retired —
//! additions only, each time.
//!
//! The rows are [`cells_tsv`]'s, so the fixture pins the one format every
//! scenario report is written in, too.
//!
//! When a change *means* to move these numbers, the failing run writes
//! the new rendering next to the test binary's temp dir; review the
//! diff and copy it over the fixture.
//!
//! The `#[ignore]`d test pins the committed PR 5 reference rows at full
//! scale (n = 10⁴, seed 1). Debug builds take minutes there:
//!
//! ```text
//! cargo test --release -p lpbcast-sim --test scenario_golden -- --ignored
//! ```

use lpbcast_sim::fault::FaultSpec;
use lpbcast_sim::{
    cells_tsv, detector_cells, run_scenario_spec, sweep_specs, Metric, ProtocolKind,
    ScenarioGenerator, ScenarioSpec,
};

#[test]
fn every_generator_on_every_stack_matches_the_golden_fixture() {
    let seed = 11;
    let mut cells = Vec::new();
    for proto in ProtocolKind::ALL {
        for generator in ScenarioGenerator::ALL {
            for fault in [None, Some(FaultSpec::noisy_links(7))] {
                let spec = ScenarioSpec::new(proto, generator, 72);
                cells.push((ScenarioSpec { fault, ..spec }, seed));
            }
        }
    }
    for proto in [ProtocolKind::Lpbcast, ProtocolKind::SwimPbcast] {
        for generator in ScenarioGenerator::ALL {
            let spec = ScenarioSpec {
                rounds: 7,
                rate: 5,
                publishers: 0,
                loss_rate: 0.1,
                fraction: 0.2,
                cycles: 2,
                ..ScenarioSpec::new(proto, generator, 72)
            };
            cells.push((spec, seed));
        }
    }
    for (n, seed) in [(120, 1), (120, 3), (300, 2)] {
        cells.extend(detector_cells(n, seed));
    }
    // Through the string form, so "paste the TSV spec column back in" is
    // covered too.
    let cells: Vec<(ScenarioSpec, u64)> = cells
        .iter()
        .map(|(spec, seed)| (spec.to_string().parse().expect("spec round-trips"), *seed))
        .collect();
    let actual = cells_tsv(&cells, &sweep_specs(&cells));

    let golden = include_str!("fixtures/scenario_golden.tsv");
    if actual != golden {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("scenario_golden.tsv");
        std::fs::write(&dump, &actual).expect("dump the actual rendering");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "scenario output diverged from the golden fixture at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             full rendering written to {}",
            line + 1,
            golden.lines().nth(line),
            actual.lines().nth(line),
            dump.display()
        );
    }
}

/// Full-scale reference pin: the three PR 5 committed scenarios must
/// reproduce the committed reference rows at n = 10⁴, seed 1 — lpbcast
/// churn completes 2998/3000 joins at mean reliability 0.9959, the
/// 30%-crash catastrophe recovers in 15 rounds, and the partition heals
/// to one SCC in 6 rounds.
#[test]
#[ignore = "full-scale n=10^4 run; execute with --release -- --ignored"]
fn specs_reproduce_the_committed_reference_rows() {
    let (n, seed) = (10_000, 1);
    let run = |generator| {
        run_scenario_spec(
            &ScenarioSpec::new(ProtocolKind::Lpbcast, generator, n),
            seed,
        )
    };

    let churn = run(ScenarioGenerator::Churn);
    assert_eq!(churn["joins_attempted"], Metric::Count(3000));
    assert_eq!(churn["joins_completed"], Metric::Count(2998));
    assert!(
        (churn.reliability_mean - 0.9959).abs() < 5e-5,
        "churn mean reliability drifted from the committed 0.9959: {}",
        churn.reliability_mean
    );

    let catastrophe = run(ScenarioGenerator::Catastrophe);
    assert_eq!(
        catastrophe.recovery_rounds,
        Some(15),
        "catastrophe recovery drifted from the committed 15 rounds"
    );

    let partition = run(ScenarioGenerator::Partition);
    assert_eq!(
        partition["rounds_to_heal"].rounds(),
        Some(6),
        "partition heal drifted from the committed 6 rounds"
    );
}
