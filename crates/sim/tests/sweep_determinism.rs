//! Determinism guarantees of the multi-seed sweeps: identical seeds must
//! produce identical curves run-to-run, and the rayon fan-out must be
//! bit-identical to the serial reference regardless of worker count.

use lpbcast_sim::experiment::{
    infection_curve, reliability, LpbcastSimParams, PbcastMembershipKind, PbcastSimParams,
    ReliabilityRun, Sweep,
};
use lpbcast_sim::{sweep_specs, sweep_specs_serial, ProtocolKind, ScenarioGenerator, ScenarioSpec};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// The vendored rayon sizes its worker pool from `RAYON_NUM_THREADS` at
/// every call; pin it above 1 so the parallel path is genuinely
/// exercised even on a 1-CPU host — `Sweep::Pool` otherwise
/// auto-dispatches to the serial reference there, and these bit-identity
/// tests would compare the serial path against itself.
fn force_parallel_pool() {
    std::env::set_var("RAYON_NUM_THREADS", "3");
}

fn lp_params() -> LpbcastSimParams {
    LpbcastSimParams::paper_defaults(60).rounds(8)
}

fn pb_params() -> PbcastSimParams {
    PbcastSimParams::figure7_defaults(60, PbcastMembershipKind::Partial { l: 10 }).rounds(8)
}

fn small_run() -> ReliabilityRun {
    ReliabilityRun {
        warmup: 3,
        publish_rounds: 6,
        rate: 8,
        drain: 4,
    }
}

#[test]
fn parallel_lpbcast_curve_is_bit_identical_to_serial() {
    force_parallel_pool();
    let parallel = infection_curve(Sweep::Pool, &lp_params(), &SEEDS);
    let serial = infection_curve(Sweep::Serial, &lp_params(), &SEEDS);
    // Bit-identity, not approximate equality: each seed owns an
    // independent engine and the mean is folded in seed order either way.
    assert_eq!(parallel, serial);
}

#[test]
fn parallel_pbcast_curve_is_bit_identical_to_serial() {
    force_parallel_pool();
    let parallel = infection_curve(Sweep::Pool, &pb_params(), &SEEDS);
    let serial = infection_curve(Sweep::Serial, &pb_params(), &SEEDS);
    assert_eq!(parallel, serial);
}

#[test]
fn parallel_lpbcast_reliability_is_bit_identical_to_serial() {
    force_parallel_pool();
    let parallel = reliability(Sweep::Pool, &lp_params(), &small_run(), &SEEDS);
    let serial = reliability(Sweep::Serial, &lp_params(), &small_run(), &SEEDS);
    assert_eq!(parallel.to_bits(), serial.to_bits());
}

#[test]
fn parallel_pbcast_reliability_is_bit_identical_to_serial() {
    force_parallel_pool();
    let parallel = reliability(Sweep::Pool, &pb_params(), &small_run(), &SEEDS);
    let serial = reliability(Sweep::Serial, &pb_params(), &small_run(), &SEEDS);
    assert_eq!(parallel.to_bits(), serial.to_bits());
}

#[test]
fn parallel_churn_cells_are_bit_identical_to_serial() {
    force_parallel_pool();
    // Small but genuinely churning: joins through §3.4 handshakes, leaves
    // through the unsubscribe path, publication load from random
    // origins, per-seed engines — on both the bare and the SWIM-wrapped
    // stack, one cell per seed.
    let mut cells: Vec<(ScenarioSpec, u64)> = [ProtocolKind::Lpbcast, ProtocolKind::SwimLpbcast]
        .into_iter()
        .flat_map(|proto| {
            let spec = ScenarioSpec {
                rounds: 8,
                rate: 4,
                publishers: 0,
                fraction: 0.05,
                ..ScenarioSpec::new(proto, ScenarioGenerator::Churn, 40)
            };
            SEEDS.map(|seed| (spec, seed))
        })
        .collect();
    // Plus one cell of the SWIM detector A/B: a crash, evictions, and
    // the census read off every node.
    let detection = ScenarioSpec::new(ProtocolKind::SwimLpbcast, ScenarioGenerator::Detection, 40);
    cells.push((detection, SEEDS[0]));
    let parallel = sweep_specs(&cells);
    let serial = sweep_specs_serial(&cells);
    // Full structural equality, report by report — churn mutates the
    // engine mid-run (add_node/remove_node), so this also proves the
    // slab bookkeeping is schedule-independent.
    assert_eq!(parallel, serial);
    let (detection, churn) = parallel.split_last().expect("cells were run");
    assert!(
        churn
            .iter()
            .all(|r| r["leaves_completed"].value() > 0.0 && r["joins_attempted"].value() == 16.0),
        "every cell actually churned"
    );
    assert!(detection["evictions"].value() > 0.0, "{detection:?}");
}

#[test]
fn repeated_parallel_sweeps_are_stable() {
    // Two parallel runs of the same sweep (potentially different thread
    // schedules) must agree exactly.
    let a = infection_curve(Sweep::Pool, &lp_params(), &SEEDS);
    let b = infection_curve(Sweep::Pool, &lp_params(), &SEEDS);
    assert_eq!(a, b);
}

#[test]
fn seed_order_matters_but_seed_set_results_are_stable() {
    // Sanity: permuting seeds changes nothing about per-seed results, so
    // the mean curve is permutation-invariant (mean is order-insensitive
    // over identical per-seed curves).
    let fwd = infection_curve(Sweep::Pool, &lp_params(), &SEEDS);
    let mut rev = SEEDS;
    rev.reverse();
    let bwd = infection_curve(Sweep::Pool, &lp_params(), &rev);
    for (a, b) in fwd.iter().zip(&bwd) {
        assert!((a - b).abs() < 1e-9, "mean curve differs: {a} vs {b}");
    }
}
