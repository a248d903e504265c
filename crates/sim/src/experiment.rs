//! Canned experiment harnesses for the paper's simulation figures.
//!
//! The paper asks the same two questions of lpbcast and of the pbcast
//! baseline under identical conditions (same ε, same τ, same random
//! views), so there is one body per measurement, generic over the
//! protocol stack ([`SimParams`]) and over the execution policy
//! ([`Sweep`]):
//!
//! * [`infection_curve`] — mean infected-per-round over many seeds
//!   (Fig. 5(a)/(b) with [`LpbcastSimParams`], Fig. 7(a) with
//!   [`PbcastSimParams`]),
//! * [`reliability`] — steady-state delivery reliability under a
//!   publication rate (Fig. 6, Fig. 7(b)),
//! * [`lpbcast_view_stats`] — in-degree statistics of the view graph
//!   (§6.1 uniformity).
//!
//! Both stacks boot through [`Bootstrap::engine_builder`], which owns
//! the topology stream, the per-node seeds, the loss model and the crash
//! plan — for a given seed the two arms of a comparison draw the same
//! views, the same loss stream and the same crash schedule.

use lpbcast_core::{Config, Lpbcast};
use lpbcast_membership::DegreeStats;
use lpbcast_pbcast::{Membership, Pbcast, PbcastConfig};
use lpbcast_types::{Payload, ProcessId, Protocol};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::engine::{Engine, EngineBuilder};
use crate::topology::Bootstrap;
pub use crate::topology::InitialTopology;

/// Parameters of an lpbcast simulation run.
#[derive(Debug, Clone)]
pub struct LpbcastSimParams {
    /// System size `n`.
    pub n: usize,
    /// Protocol configuration (view size `l`, fanout `F`, buffer bounds…).
    pub config: Config,
    /// Message-loss probability ε.
    pub loss_rate: f64,
    /// Crash fraction τ (⌊τ·n⌋ crashes per run, §4.1).
    pub tau: f64,
    /// Rounds to simulate.
    pub rounds: u64,
    /// Initial view layout.
    pub topology: InitialTopology,
}

impl LpbcastSimParams {
    /// The paper's simulation defaults (§4.1/§5): ε = 0.05, τ = 0.01,
    /// `F = 3`, `l = 15`, `|eventIds|m = 60`, and the §5.2 convention that
    /// a received id counts as a received notification (which is also what
    /// makes the simulation match the analysis, whose infected processes
    /// gossip the same notification every round — repetitions unlimited).
    pub fn paper_defaults(n: usize) -> Self {
        LpbcastSimParams {
            n,
            config: Config::builder()
                .view_size(15)
                .fanout(3)
                .event_ids_max(60)
                .deliver_on_digest(true)
                .build(),
            loss_rate: 0.05,
            tau: 0.01,
            rounds: 10,
            topology: InitialTopology::UniformRandom,
        }
    }

    /// Replaces the protocol configuration.
    #[must_use]
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Sets the number of rounds.
    #[must_use]
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets ε.
    #[must_use]
    pub fn loss_rate(mut self, loss_rate: f64) -> Self {
        self.loss_rate = loss_rate;
        self
    }

    /// Sets τ.
    #[must_use]
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the initial view layout.
    #[must_use]
    pub fn topology(mut self, topology: InitialTopology) -> Self {
        self.topology = topology;
        self
    }
}

/// Which membership the pbcast baseline runs on (Figure 7(a) compares
/// both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbcastMembershipKind {
    /// Complete view of the system.
    Total,
    /// lpbcast partial-view membership with the given `l`.
    Partial {
        /// View size `l`.
        l: usize,
    },
}

/// Parameters of a pbcast simulation run.
#[derive(Debug, Clone)]
pub struct PbcastSimParams {
    /// System size `n`.
    pub n: usize,
    /// Protocol configuration.
    pub config: PbcastConfig,
    /// Membership kind.
    pub membership: PbcastMembershipKind,
    /// Message-loss probability ε.
    pub loss_rate: f64,
    /// Crash fraction τ.
    pub tau: f64,
    /// Rounds to simulate.
    pub rounds: u64,
}

impl PbcastSimParams {
    /// Figure 7 defaults: `F = 5`, no first phase (curves start from one
    /// infected process), pull-based repair, ε = 0.05, τ = 0.01.
    pub fn figure7_defaults(n: usize, membership: PbcastMembershipKind) -> Self {
        PbcastSimParams {
            n,
            config: PbcastConfig::builder().fanout(5).first_phase(false).build(),
            membership,
            loss_rate: 0.05,
            tau: 0.01,
            rounds: 10,
        }
    }

    /// Replaces the protocol configuration.
    #[must_use]
    pub fn config(mut self, config: PbcastConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the number of rounds.
    #[must_use]
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }
}

/// Seed counts below this stay on the serial path even on multi-core
/// hosts: rayon's scope/join overhead exceeds the win for tiny sweeps.
const PARALLEL_MIN_SEEDS: usize = 4;

/// Whether a [`Sweep::Pool`] sweep will dispatch to the serial
/// reference for `seed_count` cells on the current thread pool.
///
/// On a single-threaded pool the parallel path is pure overhead
/// (`BENCH_sim.json` measured a 0.983× "speedup" on the 1-CPU reference
/// container), and for very small seed counts the fixed cost dominates.
/// Dispatching to the serial reference is always safe: the parallel and
/// serial paths are bit-identical by construction (see
/// `crates/sim/tests/sweep_determinism.rs`).
fn sweep_dispatches_serial(seed_count: usize) -> bool {
    rayon::current_num_threads() == 1 || seed_count < PARALLEL_MIN_SEEDS
}

/// Execution policy of a multi-cell sweep. Every sweep in this crate
/// goes through [`Sweep::map`], which returns results **in cell order**
/// under either policy — each cell owns an independent engine and
/// seed-derived RNG streams — so `Pool` output is bit-identical to
/// `Serial` (proven in `tests/sweep_determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Fan out across the rayon pool, unless the pool cannot pay for
    /// itself: a 1-thread pool, or too few cells.
    Pool,
    /// One cell after the other on the calling thread — the determinism
    /// reference.
    Serial,
}

impl Sweep {
    /// Runs `run` on every cell and collects the results in cell order.
    pub fn map<C: Sync, T: Send>(self, cells: &[C], run: impl Fn(&C) -> T + Sync) -> Vec<T> {
        if self == Sweep::Serial || sweep_dispatches_serial(cells.len()) {
            cells.iter().map(run).collect()
        } else {
            cells.par_iter().map(run).collect()
        }
    }
}

/// A protocol stack the sweeps can measure: parameters that know how
/// long their run is and how to boot an engine for a seed.
pub trait SimParams: Clone + Sync {
    /// The protocol the engine drives.
    type Protocol: Protocol;

    /// Rounds to simulate — also the horizon the crash plan is spread
    /// over.
    fn run_rounds(&self) -> u64;

    /// The same parameters over a different number of rounds.
    #[must_use]
    fn with_rounds(self, rounds: u64) -> Self;

    /// An [`EngineBuilder`] populated with `n` nodes for `seed` through
    /// [`Bootstrap::engine_builder`], for callers that stack further
    /// knobs (wire metering, fault planes) before sealing the engine.
    fn engine_builder(&self, seed: u64) -> EngineBuilder<Self::Protocol>;

    /// Boots an engine for `seed`.
    fn build_engine(&self, seed: u64) -> Engine<Self::Protocol> {
        self.engine_builder(seed).build()
    }
}

impl SimParams for LpbcastSimParams {
    type Protocol = Lpbcast;

    fn run_rounds(&self) -> u64 {
        self.rounds
    }

    fn with_rounds(self, rounds: u64) -> Self {
        self.rounds(rounds)
    }

    fn engine_builder(&self, seed: u64) -> EngineBuilder<Lpbcast> {
        let bootstrap = Bootstrap {
            n: self.n,
            view_size: self.config.view_size,
            topology: self.topology,
            loss_rate: self.loss_rate,
            tau: self.tau,
            rounds: self.rounds,
        };
        bootstrap.engine_builder(seed, |me, node_seed, view| {
            Lpbcast::with_initial_view(me, self.config.clone(), node_seed, view)
        })
    }
}

impl SimParams for PbcastSimParams {
    type Protocol = Pbcast;

    fn run_rounds(&self) -> u64 {
        self.rounds
    }

    fn with_rounds(self, rounds: u64) -> Self {
        self.rounds(rounds)
    }

    /// Partial views are drawn from the same topology stream as
    /// lpbcast's; total views draw nothing.
    fn engine_builder(&self, seed: u64) -> EngineBuilder<Pbcast> {
        let bootstrap = Bootstrap {
            n: self.n,
            view_size: match self.membership {
                PbcastMembershipKind::Total => 0,
                PbcastMembershipKind::Partial { l } => l,
            },
            topology: InitialTopology::UniformRandom,
            loss_rate: self.loss_rate,
            tau: self.tau,
            rounds: self.rounds,
        };
        let everyone = (0..self.n as u64).map(ProcessId::new);
        bootstrap.engine_builder(seed, |me, node_seed, view| {
            let membership = match self.membership {
                PbcastMembershipKind::Total => {
                    Membership::total(me, everyone.clone().filter(|&p| p != me))
                }
                PbcastMembershipKind::Partial { l } => {
                    Membership::partial(me, l, self.config.subs_max, view)
                }
            };
            Pbcast::new(me, self.config.clone(), node_seed, membership)
        })
    }
}

/// Runs one dissemination and returns the infected count after each round
/// (`curve[r]` = processes having seen the event at the end of round `r`;
/// `curve[0] = 1`, the origin).
fn infection_run<P: Protocol>(engine: &mut Engine<P>, rounds: u64) -> Vec<usize> {
    let id = engine.publish_from(ProcessId::new(0), Payload::from_static(b"probe"));
    let mut curve = vec![engine.tracker().infected_count(id)];
    for _ in 0..rounds {
        engine.step();
        curve.push(engine.tracker().infected_count(id));
    }
    curve
}

fn mean_curves(curves: &[Vec<usize>]) -> Vec<f64> {
    let len = curves[0].len();
    let mut mean = vec![0.0; len];
    for curve in curves {
        assert_eq!(curve.len(), len);
        for (m, &c) in mean.iter_mut().zip(curve) {
            *m += c as f64;
        }
    }
    for m in &mut mean {
        *m /= curves.len() as f64;
    }
    mean
}

/// Runs `one` on every seed under `sweep` and returns the results in
/// seed order — the shared front door of both measurements.
///
/// # Panics
///
/// Panics on an empty seed list: a mean over no runs is not a number.
fn per_seed<T: Send>(sweep: Sweep, seeds: &[u64], one: impl Fn(u64) -> T + Sync) -> Vec<T> {
    assert!(!seeds.is_empty(), "a sweep needs at least one seed");
    sweep.map(seeds, |&seed| one(seed))
}

/// Mean infected-per-round curve over `seeds` (Fig. 5 for lpbcast,
/// Fig. 7(a) for pbcast): p0 publishes one event into a fresh engine per
/// seed, and `curve[r]` is the mean number of processes that have seen
/// it at the end of round `r` (`curve[0] = 1`, the origin).
///
/// Per-seed curves are folded in seed order, so [`Sweep::Pool`] output
/// is bit-identical to [`Sweep::Serial`] regardless of the worker count.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn infection_curve<S: SimParams>(sweep: Sweep, params: &S, seeds: &[u64]) -> Vec<f64> {
    let rounds = params.run_rounds();
    let one = |seed| infection_run(&mut params.build_engine(seed), rounds);
    mean_curves(&per_seed(sweep, seeds, one))
}

/// Shape of a steady-state reliability run (Fig. 6): warm the views up,
/// publish at a fixed rate for a window, drain, then measure the delivery
/// fraction of the windowed events.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityRun {
    /// Rounds before publishing starts (view mixing).
    pub warmup: u64,
    /// Rounds during which events are published.
    pub publish_rounds: u64,
    /// Total events injected per round ("Rate = 40 msg/round").
    pub rate: usize,
    /// Quiet rounds after the window so late gossip settles.
    pub drain: u64,
}

impl ReliabilityRun {
    /// Rounds the whole run takes (the crash plan is spread over them).
    fn total_rounds(&self) -> u64 {
        self.warmup + self.publish_rounds + self.drain
    }
}

impl Default for ReliabilityRun {
    fn default() -> Self {
        ReliabilityRun {
            warmup: 10,
            publish_rounds: 20,
            rate: 40,
            drain: 10,
        }
    }
}

fn reliability_run<P: Protocol>(engine: &mut Engine<P>, run: &ReliabilityRun, seed: u64) -> f64 {
    let mut pub_rng = SmallRng::seed_from_u64(seed ^ 0x7075_626C_6973_6865);
    engine.run(run.warmup);
    let window_start = engine.round() + 1;
    let mut alive = Vec::new();
    for _ in 0..run.publish_rounds {
        alive.clear();
        alive.extend_from_slice(engine.alive_ids());
        for _ in 0..run.rate {
            let origin = alive[pub_rng.gen_range(0..alive.len())];
            engine.publish_from(origin, Payload::from_static(b"load"));
        }
        engine.step();
    }
    let window_end = engine.round();
    engine.run(run.drain);
    let population = engine.alive_count();
    engine
        .tracker()
        .reliability_report(window_start - 1..=window_end, population)
        .mean
}

/// Mean reliability (1 − β) over `seeds` (Fig. 6(a)/(b) for lpbcast,
/// Fig. 7(b) for pbcast).
///
/// The run length is taken from `run`, not from the parameters' own
/// round count: the crash plan is spread over `run`'s total rounds.
/// Per-seed results are summed in seed order, so [`Sweep::Pool`] output
/// is bit-identical to [`Sweep::Serial`].
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn reliability<S: SimParams>(
    sweep: Sweep,
    params: &S,
    run: &ReliabilityRun,
    seeds: &[u64],
) -> f64 {
    let params = params.clone().with_rounds(run.total_rounds());
    let one = |seed| reliability_run(&mut params.build_engine(seed), run, seed);
    per_seed(sweep, seeds, one).iter().sum::<f64>() / seeds.len() as f64
}

/// In-degree statistics of the lpbcast view graph after `params.rounds`
/// rounds of pure membership gossip (no events) — quantifies §6.1's "every
/// process should ideally be known by exactly l other processes".
pub fn lpbcast_view_stats(params: &LpbcastSimParams, seed: u64) -> DegreeStats {
    let mut engine = params.build_engine(seed);
    engine.run(params.rounds);
    engine.view_graph().in_degree_stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infection_curve_reaches_full_coverage() {
        let params = LpbcastSimParams::paper_defaults(40).rounds(12).tau(0.0);
        let curve = infection_curve(Sweep::Pool, &params, &[1, 2, 3, 4]);
        assert_eq!(curve.len(), 13);
        assert!((curve[0] - 1.0).abs() < 1e-9, "starts at s0 = 1");
        for w in curve.windows(2) {
            assert!(w[1] + 1e-9 >= w[0], "infection is monotone");
        }
        assert!(*curve.last().unwrap() > 39.0, "reaches ~n: {curve:?}");
    }

    #[test]
    fn larger_systems_take_longer() {
        let seeds = [1, 2, 3];
        let small = infection_curve(
            Sweep::Pool,
            &LpbcastSimParams::paper_defaults(30).rounds(8).tau(0.0),
            &seeds,
        );
        let large = infection_curve(
            Sweep::Pool,
            &LpbcastSimParams::paper_defaults(120).rounds(8).tau(0.0),
            &seeds,
        );
        let frac = |c: &[f64], n: f64, r: usize| c[r] / n;
        assert!(
            frac(&small, 30.0, 4) > frac(&large, 120.0, 4),
            "round-4 coverage: small {} vs large {}",
            frac(&small, 30.0, 4),
            frac(&large, 120.0, 4)
        );
    }

    #[test]
    fn pbcast_total_view_disseminates() {
        let params = PbcastSimParams::figure7_defaults(40, PbcastMembershipKind::Total).rounds(12);
        let curve = infection_curve(Sweep::Pool, &params, &[5, 6]);
        assert!(
            *curve.last().unwrap() > 35.0,
            "pbcast reaches ~n: {curve:?}"
        );
    }

    #[test]
    fn pbcast_partial_view_tracks_total_view() {
        let seeds = [7, 8, 9];
        let total = infection_curve(
            Sweep::Pool,
            &PbcastSimParams::figure7_defaults(40, PbcastMembershipKind::Total).rounds(12),
            &seeds,
        );
        let partial = infection_curve(
            Sweep::Pool,
            &PbcastSimParams::figure7_defaults(40, PbcastMembershipKind::Partial { l: 10 })
                .rounds(12),
            &seeds,
        );
        // §6.2: the partial view should not change the dissemination
        // behaviour much.
        let diff = (total.last().unwrap() - partial.last().unwrap()).abs();
        assert!(diff < 6.0, "total {total:?} vs partial {partial:?}");
    }

    #[test]
    fn lpbcast_beats_pbcast_early_rounds() {
        // Figure 7(a): lpbcast is ahead because hops/repetitions are
        // unlimited.
        let seeds = [11, 12, 13, 14];
        let lp = infection_curve(
            Sweep::Pool,
            &{
                let mut p = LpbcastSimParams::paper_defaults(60).rounds(8).tau(0.0);
                p.config = Config::builder()
                    .view_size(15)
                    .fanout(5)
                    .event_ids_max(60)
                    .deliver_on_digest(true)
                    .build();
                p
            },
            &seeds,
        );
        let pb = infection_curve(
            Sweep::Pool,
            &PbcastSimParams::figure7_defaults(60, PbcastMembershipKind::Partial { l: 15 })
                .rounds(8),
            &seeds,
        );
        let lp_area: f64 = lp.iter().sum();
        let pb_area: f64 = pb.iter().sum();
        assert!(
            lp_area >= pb_area,
            "lpbcast should dominate: {lp:?} vs {pb:?}"
        );
    }

    #[test]
    fn reliability_improves_with_bigger_id_history() {
        // The Figure 6(b) effect, at reduced scale for test speed.
        let seeds = [21, 22];
        let run = ReliabilityRun {
            warmup: 5,
            publish_rounds: 10,
            rate: 10,
            drain: 8,
        };
        let mk = |ids_max: usize| {
            let mut p = LpbcastSimParams::paper_defaults(40).tau(0.0);
            p.config = Config::builder()
                .view_size(10)
                .fanout(3)
                .event_ids_max(ids_max)
                .events_max(60)
                .deliver_on_digest(true)
                .build();
            p
        };
        let small = reliability(Sweep::Pool, &mk(8), &run, &seeds);
        let large = reliability(Sweep::Pool, &mk(120), &run, &seeds);
        assert!(
            large > small,
            "larger |eventIds|m must improve reliability: {small} vs {large}"
        );
        assert!(large > 0.9, "ample history ⇒ high reliability: {large}");
    }

    #[test]
    fn view_stats_concentrate_around_l() {
        let params = LpbcastSimParams::paper_defaults(60).rounds(30).tau(0.0);
        let stats = lpbcast_view_stats(&params, 3);
        // Mean in-degree over the whole graph is exactly mean out-degree,
        // which is l once views fill up.
        assert!(
            (stats.mean - 15.0).abs() < 1.5,
            "mean in-degree ≈ l: {stats:?}"
        );
        assert!(stats.coefficient_of_variation() < 0.6, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "a sweep needs at least one seed")]
    fn infection_curve_rejects_an_empty_seed_list() {
        let _ = infection_curve(Sweep::Pool, &LpbcastSimParams::paper_defaults(20), &[]);
    }

    #[test]
    #[should_panic(expected = "a sweep needs at least one seed")]
    fn reliability_rejects_an_empty_seed_list() {
        let params = PbcastSimParams::figure7_defaults(20, PbcastMembershipKind::Total);
        let _ = reliability(Sweep::Serial, &params, &ReliabilityRun::default(), &[]);
    }
}
