//! Canned experiment harnesses for the paper's simulation figures.
//!
//! These functions build engines with the paper's topology (every process
//! starts with a uniformly random view of size `l`), run them over many
//! seeds and aggregate:
//!
//! * [`lpbcast_infection_curve`] — mean infected-per-round (Fig. 5(a)/(b)),
//! * [`pbcast_infection_curve`] — same for the baseline (Fig. 7(a)),
//! * [`lpbcast_reliability`] / [`pbcast_reliability`] — steady-state
//!   delivery reliability under a publication rate (Fig. 6, Fig. 7(b)),
//! * [`lpbcast_view_stats`] — in-degree statistics of the view graph
//!   (§6.1 uniformity).

use lpbcast_core::{Config, Lpbcast};
use lpbcast_membership::DegreeStats;
use lpbcast_pbcast::{Membership, Pbcast, PbcastConfig};
use lpbcast_types::{Payload, ProcessId, Protocol};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::engine::{shards_from_env, Engine, EngineBuilder};
use crate::network::{CrashPlan, NetworkModel};
use crate::topology::{ring_view, sample_view_into};

/// How the initial views are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialTopology {
    /// The §4.1 assumption: every view is an independent uniform sample
    /// of size `l`.
    #[default]
    UniformRandom,
    /// A worst-case clustered start: process `i` knows only its `l`
    /// successors `i+1..=i+l (mod n)`. Far from uniform — used by the
    /// §6.1 membership-mixing ablation.
    Ring,
}

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

/// Whether the `*_infection_curve` / `*_reliability` sweeps will
/// dispatch to their serial references for `seed_count` seeds on the
/// current thread pool.
///
/// On a single-threaded pool the parallel path is pure overhead
/// (`BENCH_sim.json` measured a 0.983× "speedup" on the 1-CPU reference
/// container), and for very small seed counts the fixed cost dominates.
/// Dispatching to the serial reference is always safe: the parallel and
/// serial paths are bit-identical by construction (see
/// `crates/sim/tests/sweep_determinism.rs`). Public so harnesses (e.g.
/// `bench_sim`) can record which path a "parallel" measurement took.
pub fn sweep_dispatches_serial(seed_count: usize) -> bool {
    rayon::current_num_threads() == 1 || seed_count < PARALLEL_MIN_SEEDS
}

/// Execution policy of a multi-cell sweep. Every sweep in this crate
/// goes through [`Sweep::map`], which returns results **in cell order**
/// under either policy — each cell owns an independent engine and
/// seed-derived RNG streams — so `Pool` output is bit-identical to
/// `Serial` (proven in `tests/sweep_determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Fan out across the rayon pool, unless
    /// [`sweep_dispatches_serial`] says the pool cannot pay for itself.
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

/// Builds an lpbcast engine with `n` nodes and random initial views.
///
/// Initial views come from the O(l)-per-node Floyd sampler
/// ([`crate::topology::sample_view`]) — the whole bootstrap is O(n·l),
/// not O(n²) (no per-node candidate list is materialized).
pub fn build_lpbcast_engine(params: &LpbcastSimParams, seed: u64) -> Engine<Lpbcast> {
    lpbcast_engine_builder(params, seed).build()
}

/// The [`EngineBuilder`] behind [`build_lpbcast_engine`], for callers
/// that stack further knobs (wire metering, fault planes, step mode)
/// before sealing the engine.
pub fn lpbcast_engine_builder(params: &LpbcastSimParams, seed: u64) -> EngineBuilder<Lpbcast> {
    let mut topo_rng = SmallRng::seed_from_u64(seed ^ 0x746F_706F_6C6F_6779);
    let candidates: Vec<ProcessId> = (1..params.n as u64).map(ProcessId::new).collect();
    // The origin (p0) is excluded from the crash plan so infection curves
    // are conditional on a surviving publisher, like the paper's runs.
    let plan = CrashPlan::draw(&candidates, params.tau, params.rounds.max(1), seed);
    let mut scratch = Vec::new();
    let nodes = (0..params.n as u64).map(|i| {
        let members = match params.topology {
            InitialTopology::UniformRandom => {
                sample_view_into(
                    &mut topo_rng,
                    i,
                    params.n,
                    params.config.view_size,
                    &mut scratch,
                );
                scratch.iter().copied().map(ProcessId::new).collect()
            }
            InitialTopology::Ring => ring_view(i, params.n, params.config.view_size),
        };
        Lpbcast::with_initial_view(
            ProcessId::new(i),
            params.config.clone(),
            seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i),
            members,
        )
    });
    Engine::builder(NetworkModel::new(params.loss_rate, seed))
        .crash_plan(plan)
        .shards(shards_from_env())
        .nodes(nodes)
}

/// Builds a pbcast engine with `n` nodes. Partial views use the same
/// O(l)-per-node sampler as [`build_lpbcast_engine`].
pub fn build_pbcast_engine(params: &PbcastSimParams, seed: u64) -> Engine<Pbcast> {
    let mut topo_rng = SmallRng::seed_from_u64(seed ^ 0x746F_706F_6C6F_6779);
    let candidates: Vec<ProcessId> = (1..params.n as u64).map(ProcessId::new).collect();
    let plan = CrashPlan::draw(&candidates, params.tau, params.rounds.max(1), seed);
    let mut scratch = Vec::new();
    let nodes = (0..params.n as u64).map(|i| {
        let me = ProcessId::new(i);
        let membership = match params.membership {
            PbcastMembershipKind::Total => Membership::total(
                me,
                (0..params.n as u64).filter(|&j| j != i).map(ProcessId::new),
            ),
            PbcastMembershipKind::Partial { l } => {
                Membership::partial(me, l, params.config.subs_max, {
                    sample_view_into(&mut topo_rng, i, params.n, l, &mut scratch);
                    scratch
                        .iter()
                        .copied()
                        .map(ProcessId::new)
                        .collect::<Vec<_>>()
                })
            }
        };
        Pbcast::new(
            me,
            params.config.clone(),
            seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i),
            membership,
        )
    });
    Engine::builder(NetworkModel::new(params.loss_rate, seed))
        .crash_plan(plan)
        .shards(shards_from_env())
        .nodes(nodes)
        .build()
}

/// Runs one dissemination and returns the infected count after each round
/// (`curve[r]` = processes having seen the event at the end of round `r`;
/// `curve[0] = 1`, the origin).
fn infection_run<P>(engine: &mut Engine<P>, rounds: u64) -> Vec<usize>
where
    P: Protocol + Send,
    P::Msg: Send,
{
    let id = engine.publish_from(ProcessId::new(0), Payload::from_static(b"probe"));
    let mut curve = vec![engine.tracker().infected_count(id)];
    for _ in 0..rounds {
        engine.step();
        curve.push(engine.tracker().infected_count(id));
    }
    curve
}

fn mean_curves(curves: &[Vec<usize>]) -> Vec<f64> {
    assert!(!curves.is_empty(), "need at least one run");
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

/// Mean lpbcast infected-per-round curve over `seeds` (Fig. 5).
///
/// Seed runs fan out across the thread pool ([`Sweep::Pool`]); the
/// output is bit-identical to [`lpbcast_infection_curve_serial`]
/// regardless of the worker count.
pub fn lpbcast_infection_curve(params: &LpbcastSimParams, seeds: &[u64]) -> Vec<f64> {
    lpbcast_curve(Sweep::Pool, params, seeds)
}

/// Single-threaded [`lpbcast_infection_curve`] (determinism reference).
pub fn lpbcast_infection_curve_serial(params: &LpbcastSimParams, seeds: &[u64]) -> Vec<f64> {
    lpbcast_curve(Sweep::Serial, params, seeds)
}

fn lpbcast_curve(sweep: Sweep, params: &LpbcastSimParams, seeds: &[u64]) -> Vec<f64> {
    let run = |&s: &u64| infection_run(&mut build_lpbcast_engine(params, s), params.rounds);
    mean_curves(&sweep.map(seeds, run))
}

/// Mean pbcast infected-per-round curve over `seeds` (Fig. 7(a)).
/// Parallel over seeds; bit-identical to
/// [`pbcast_infection_curve_serial`].
pub fn pbcast_infection_curve(params: &PbcastSimParams, seeds: &[u64]) -> Vec<f64> {
    pbcast_curve(Sweep::Pool, params, seeds)
}

/// Single-threaded [`pbcast_infection_curve`] (determinism reference).
pub fn pbcast_infection_curve_serial(params: &PbcastSimParams, seeds: &[u64]) -> Vec<f64> {
    pbcast_curve(Sweep::Serial, params, seeds)
}

fn pbcast_curve(sweep: Sweep, params: &PbcastSimParams, seeds: &[u64]) -> Vec<f64> {
    let run = |&s: &u64| infection_run(&mut build_pbcast_engine(params, s), params.rounds);
    mean_curves(&sweep.map(seeds, run))
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

fn reliability_run<P>(engine: &mut Engine<P>, run: &ReliabilityRun, seed: u64) -> f64
where
    P: Protocol + Send,
    P::Msg: Send,
{
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

/// Mean lpbcast reliability (1 − β) over `seeds` (Fig. 6(a)/(b)).
///
/// Note: the run length is taken from `run`, not `params.rounds`.
/// Parallel over seeds; per-seed results are summed in seed order, so the
/// mean is bit-identical to [`lpbcast_reliability_serial`].
pub fn lpbcast_reliability(params: &LpbcastSimParams, run: &ReliabilityRun, seeds: &[u64]) -> f64 {
    lpbcast_mean_reliability(Sweep::Pool, params, run, seeds)
}

/// Single-threaded [`lpbcast_reliability`] (determinism reference).
pub fn lpbcast_reliability_serial(
    params: &LpbcastSimParams,
    run: &ReliabilityRun,
    seeds: &[u64],
) -> f64 {
    lpbcast_mean_reliability(Sweep::Serial, params, run, seeds)
}

fn lpbcast_mean_reliability(
    sweep: Sweep,
    params: &LpbcastSimParams,
    run: &ReliabilityRun,
    seeds: &[u64],
) -> f64 {
    let params = params.clone().rounds(run.total_rounds());
    let one = |&s: &u64| reliability_run(&mut build_lpbcast_engine(&params, s), run, s);
    sweep.map(seeds, one).iter().sum::<f64>() / seeds.len() as f64
}

/// Mean pbcast reliability over `seeds` (Fig. 7(b)). Parallel over seeds;
/// bit-identical to [`pbcast_reliability_serial`].
pub fn pbcast_reliability(params: &PbcastSimParams, run: &ReliabilityRun, seeds: &[u64]) -> f64 {
    pbcast_mean_reliability(Sweep::Pool, params, run, seeds)
}

/// Single-threaded [`pbcast_reliability`] (determinism reference).
pub fn pbcast_reliability_serial(
    params: &PbcastSimParams,
    run: &ReliabilityRun,
    seeds: &[u64],
) -> f64 {
    pbcast_mean_reliability(Sweep::Serial, params, run, seeds)
}

fn pbcast_mean_reliability(
    sweep: Sweep,
    params: &PbcastSimParams,
    run: &ReliabilityRun,
    seeds: &[u64],
) -> f64 {
    let params = params.clone().rounds(run.total_rounds());
    let one = |&s: &u64| reliability_run(&mut build_pbcast_engine(&params, s), run, s);
    sweep.map(seeds, one).iter().sum::<f64>() / seeds.len() as f64
}

/// In-degree statistics of the lpbcast view graph after `params.rounds`
/// rounds of pure membership gossip (no events) — quantifies §6.1's "every
/// process should ideally be known by exactly l other processes".
pub fn lpbcast_view_stats(params: &LpbcastSimParams, seed: u64) -> DegreeStats {
    let mut engine = build_lpbcast_engine(params, seed);
    engine.run(params.rounds);
    engine.view_graph().in_degree_stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infection_curve_reaches_full_coverage() {
        let params = LpbcastSimParams::paper_defaults(40).rounds(12).tau(0.0);
        let curve = lpbcast_infection_curve(&params, &[1, 2, 3, 4]);
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
        let small = lpbcast_infection_curve(
            &LpbcastSimParams::paper_defaults(30).rounds(8).tau(0.0),
            &seeds,
        );
        let large = lpbcast_infection_curve(
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
        let curve = pbcast_infection_curve(&params, &[5, 6]);
        assert!(
            *curve.last().unwrap() > 35.0,
            "pbcast reaches ~n: {curve:?}"
        );
    }

    #[test]
    fn pbcast_partial_view_tracks_total_view() {
        let seeds = [7, 8, 9];
        let total = pbcast_infection_curve(
            &PbcastSimParams::figure7_defaults(40, PbcastMembershipKind::Total).rounds(12),
            &seeds,
        );
        let partial = pbcast_infection_curve(
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
        let lp = lpbcast_infection_curve(
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
        let pb = pbcast_infection_curve(
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
        let small = lpbcast_reliability(&mk(8), &run, &seeds);
        let large = lpbcast_reliability(&mk(120), &run, &seeds);
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
}
