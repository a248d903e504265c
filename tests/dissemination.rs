//! Cross-crate integration: the simulator against the analytical model —
//! the correlation the paper reports in §5.1 ("The results obtained from
//! these simulations support the validity of our analysis").

use lpbcast::analysis::infection::{InfectionModel, InfectionParams};
use lpbcast::core::Config;
use lpbcast::sim::experiment::{infection_curve, InitialTopology, LpbcastSimParams, Sweep};

const EPSILON: f64 = 0.05;
const SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

fn sim_params(n: usize, l: usize, fanout: usize, rounds: u64) -> LpbcastSimParams {
    LpbcastSimParams {
        n,
        config: Config::builder()
            .view_size(l)
            .fanout(fanout)
            .event_ids_max(60)
            .events_max(60)
            .deliver_on_digest(true)
            .build(),
        loss_rate: EPSILON,
        tau: 0.0, // isolate dissemination from crashes in these tests
        rounds,
        topology: InitialTopology::UniformRandom,
    }
}

#[test]
fn simulation_tracks_markov_chain() {
    let n = 60;
    let rounds = 10;
    let mut model = InfectionModel::new(InfectionParams::new(n, 3).loss_rate(EPSILON));
    let theory = model.expected_curve(rounds);
    let sim = infection_curve(Sweep::Pool, &sim_params(n, 12, 3, rounds), &SEEDS);
    for (r, (t, s)) in theory.iter().zip(&sim).enumerate() {
        let gap = (t - s).abs() / n as f64;
        assert!(
            gap < 0.15,
            "round {r}: theory {t:.1} vs sim {s:.1} (gap {:.1}% of n)",
            gap * 100.0
        );
    }
}

#[test]
fn fanout_ordering_matches_figure_2() {
    let n = 60;
    let area = |fanout: usize| -> f64 {
        infection_curve(Sweep::Pool, &sim_params(n, 12, fanout, 8), &SEEDS)
            .iter()
            .sum()
    };
    let a3 = area(3);
    let a5 = area(5);
    assert!(
        a5 > a3,
        "higher fanout must disseminate faster: F=3 area {a3:.0}, F=5 area {a5:.0}"
    );
}

#[test]
fn view_size_barely_affects_latency() {
    // The paper's central claim (§4.3 + Fig. 5(b)): l has little impact on
    // dissemination latency.
    let n = 60;
    let curve_small = infection_curve(Sweep::Pool, &sim_params(n, 6, 3, 10), &SEEDS);
    let curve_large = infection_curve(Sweep::Pool, &sim_params(n, 30, 3, 10), &SEEDS);
    // Compare round-4 coverage: within 20 % of n of each other.
    let gap = (curve_small[4] - curve_large[4]).abs() / n as f64;
    assert!(
        gap < 0.20,
        "l=6 vs l=30 round-4 coverage differs by {:.0}% of n ({} vs {})",
        gap * 100.0,
        curve_small[4],
        curve_large[4]
    );
    // And both saturate.
    assert!(*curve_small.last().unwrap() > 0.95 * n as f64);
    assert!(*curve_large.last().unwrap() > 0.95 * n as f64);
}

#[test]
fn loss_slows_but_does_not_stop_dissemination() {
    let n = 50;
    let mk = |loss: f64| {
        let mut p = sim_params(n, 12, 3, 14);
        p.loss_rate = loss;
        infection_curve(Sweep::Pool, &p, &SEEDS)
    };
    let clean = mk(0.0);
    let lossy = mk(0.30);
    assert!(
        clean[4] > lossy[4],
        "loss must slow dissemination: {} vs {}",
        clean[4],
        lossy[4]
    );
    assert!(
        *lossy.last().unwrap() > 0.95 * n as f64,
        "30% loss still converges eventually: {lossy:?}"
    );
}

#[test]
fn appendix_a_recursion_brackets_simulation() {
    use lpbcast::analysis::infection::ExpectationModel;
    let n = 60;
    let approx = ExpectationModel::new(InfectionParams::new(n, 3).loss_rate(EPSILON));
    let theory = approx.expected_curve(10);
    let sim = infection_curve(Sweep::Pool, &sim_params(n, 12, 3, 10), &SEEDS);
    // Both end saturated.
    assert!((theory.last().unwrap() - sim.last().unwrap()).abs() < 0.1 * n as f64);
}
