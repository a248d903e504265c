//! Integration: the reliability phenomenology of §5.2 / Figure 6 and the
//! pbcast comparison of §6.2 / Figure 7, at test-friendly scale.

use lpbcast::core::Config;
use lpbcast::pbcast::PbcastConfig;
use lpbcast::sim::experiment::{
    infection_curve, reliability, InitialTopology, LpbcastSimParams, PbcastMembershipKind,
    PbcastSimParams, ReliabilityRun, Sweep,
};

const SEEDS: [u64; 3] = [11, 22, 33];

fn lp_params(n: usize, l: usize, fanout: usize, ids_max: usize) -> LpbcastSimParams {
    LpbcastSimParams {
        n,
        config: Config::builder()
            .view_size(l)
            .fanout(fanout)
            .event_ids_max(ids_max)
            .events_max(60)
            .deliver_on_digest(true)
            .build(),
        loss_rate: 0.05,
        tau: 0.0,
        rounds: 0,
        topology: InitialTopology::UniformRandom,
    }
}

fn run_shape() -> ReliabilityRun {
    ReliabilityRun {
        warmup: 6,
        publish_rounds: 10,
        rate: 15,
        drain: 8,
    }
}

#[test]
fn reliability_monotone_in_event_ids_bound() {
    // Figure 6(b): the strong dependency.
    let n = 50;
    let r_small = reliability(Sweep::Pool, &lp_params(n, 10, 3, 8), &run_shape(), &SEEDS);
    let r_mid = reliability(Sweep::Pool, &lp_params(n, 10, 3, 40), &run_shape(), &SEEDS);
    let r_large = reliability(Sweep::Pool, &lp_params(n, 10, 3, 160), &run_shape(), &SEEDS);
    assert!(
        r_small < r_mid && r_mid < r_large,
        "expected monotone growth: {r_small:.3} {r_mid:.3} {r_large:.3}"
    );
    assert!(
        r_large > 0.95,
        "ample history ⇒ near-total delivery: {r_large:.3}"
    );
}

#[test]
fn reliability_only_weakly_depends_on_view_size() {
    // Figure 6(a): "the variation in terms of reliability is only very
    // weak".
    let n = 50;
    let r_small_view = reliability(Sweep::Pool, &lp_params(n, 8, 3, 60), &run_shape(), &SEEDS);
    let r_large_view = reliability(Sweep::Pool, &lp_params(n, 24, 3, 60), &run_shape(), &SEEDS);
    assert!(
        (r_large_view - r_small_view).abs() < 0.12,
        "l = 8 vs l = 24 should differ weakly: {r_small_view:.3} vs {r_large_view:.3}"
    );
}

#[test]
fn lpbcast_outpaces_pbcast_with_same_fanout() {
    // Figure 7(a): unlimited hops/repetitions give lpbcast the edge.
    let n = 60;
    let mut lp = lp_params(n, 12, 5, 60);
    lp.rounds = 8;
    lp.tau = 0.01;
    let lp_curve = infection_curve(Sweep::Pool, &lp, &SEEDS);
    let pb_curve = infection_curve(
        Sweep::Pool,
        &PbcastSimParams::figure7_defaults(n, PbcastMembershipKind::Partial { l: 12 }).rounds(8),
        &SEEDS,
    );
    let lp_area: f64 = lp_curve.iter().sum();
    let pb_area: f64 = pb_curve.iter().sum();
    assert!(
        lp_area >= pb_area,
        "lpbcast {lp_curve:?} should dominate pbcast {pb_curve:?}"
    );
    // Both converge near n.
    assert!(*lp_curve.last().unwrap() > 0.9 * n as f64);
    assert!(*pb_curve.last().unwrap() > 0.85 * n as f64);
}

#[test]
fn pbcast_partial_view_behaves_like_total_view() {
    // §6.2: "theoretically the size of the view does not impact the
    // probability of infection".
    let n = 50;
    let total = infection_curve(
        Sweep::Pool,
        &PbcastSimParams::figure7_defaults(n, PbcastMembershipKind::Total).rounds(10),
        &SEEDS,
    );
    let partial = infection_curve(
        Sweep::Pool,
        &PbcastSimParams::figure7_defaults(n, PbcastMembershipKind::Partial { l: 10 }).rounds(10),
        &SEEDS,
    );
    for (r, (t, p)) in total.iter().zip(&partial).enumerate() {
        assert!(
            (t - p).abs() < 0.25 * n as f64,
            "round {r}: total {t:.1} vs partial {p:.1} diverge too much"
        );
    }
}

#[test]
fn pbcast_reliability_sweep_mirrors_lpbcast() {
    // Figure 7(b) vs Figure 6(a): similar bands under the same workload.
    let n = 50;
    let run = run_shape();
    let pb = |l: usize| {
        let params = PbcastSimParams::figure7_defaults(n, PbcastMembershipKind::Partial { l })
            .config(
                PbcastConfig::builder()
                    .fanout(5)
                    .first_phase(false)
                    .pull(false)
                    .deliver_on_digest(true)
                    .history_max(60)
                    .build(),
            );
        reliability(Sweep::Pool, &params, &run, &SEEDS)
    };
    let r10 = pb(10);
    let r24 = pb(24);
    assert!(
        r10 > 0.5 && r24 > 0.5,
        "sane reliability: {r10:.3} {r24:.3}"
    );
    assert!(
        (r24 - r10).abs() < 0.15,
        "weak l dependence for pbcast too: {r10:.3} vs {r24:.3}"
    );
}

#[test]
fn crashes_cost_at_most_the_crashed_fraction() {
    let n = 50;
    let mut params = lp_params(n, 10, 3, 160);
    params.tau = 0.1; // 5 crashes
    params.rounds = 12;
    let curve = infection_curve(Sweep::Pool, &params, &SEEDS);
    // Everyone alive still gets the event: final coverage ≥ n − crashes − slack.
    assert!(
        *curve.last().unwrap() >= (n - 5 - 2) as f64,
        "crashes should only remove the crashed processes: {curve:?}"
    );
}
