//! Initial-view layouts and the one engine bootstrap.
//!
//! The §4.1 bootstrap assumption is that every process starts with a
//! uniformly random view of size `l`. The obvious implementation — build
//! the (n−1)-element candidate list and `choose_multiple` from it —
//! costs O(n) time and memory *per node*, i.e. O(n²) per engine build,
//! which at n = 10⁴ dominated construction (~190 ms on the reference
//! container). [`sample_view`] instead draws `l` distinct indices with
//! Floyd's algorithm in O(l) time and O(l) memory, making a full engine
//! bootstrap O(n·l).
//!
//! [`ring_view`] is the §6.1 worst-case clustered layout, with the
//! `view_size ≥ n−1` wrap clamped so the view is always duplicate- and
//! self-free (the unclamped `(i + d) mod n` walk used to revisit
//! residues — including `i` itself — once `d` exceeded `n − 1`).
//!
//! [`Bootstrap::engine_builder`] is the only place an experiment or
//! scenario engine is populated: it owns the topology RNG
//! stream, the per-node seed formula ([`node_seed`]) and the
//! loss-model / crash-plan wiring, so every protocol stack compared
//! side by side starts from the same views, the same loss stream and
//! the same crash schedule for a given seed.

use lpbcast_types::{FastSet, ProcessId, Protocol};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Engine, EngineBuilder};
use crate::network::{CrashPlan, NetworkModel};

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
    /// Two halves (`0..n/2` and `n/2..n`), each with uniform views over
    /// its own side only: the views never cross the divide — a §4.4
    /// partition by construction.
    Halves,
}

/// Per-node protocol seed of process `id` in a run seeded with `seed`,
/// shared by bootstrap members and later joiners.
pub fn node_seed(seed: u64, id: u64) -> u64 {
    seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(id)
}

/// The protocol-independent half of an engine build: who is there, what
/// they initially know, and the §4.1 fault model they run under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bootstrap {
    /// System size `n` (processes `0..n`).
    pub n: usize,
    /// Initial view size `l` (0 draws nothing — for stacks that do not
    /// start from a sampled view).
    pub view_size: usize,
    /// Initial view layout.
    pub topology: InitialTopology,
    /// Message-loss probability ε.
    pub loss_rate: f64,
    /// Crash fraction τ: `⌊τ·(n−1)⌋` processes crash at uniformly random
    /// rounds of `1..=rounds` (0 = no crash plan). The origin p0 never
    /// crashes, so infection curves are conditional on a surviving
    /// publisher, like the paper's runs.
    pub tau: f64,
    /// Rounds the crash plan is spread over.
    pub rounds: u64,
}

impl Bootstrap {
    /// Starts an [`EngineBuilder`] over `n` nodes made by
    /// `node(id, node_seed, initial_view)`, called in id order, with the
    /// loss model and the crash plan installed. Callers stack further
    /// knobs (wire metering, fault planes) before sealing the engine.
    /// Nothing here reads the environment: the engine is a function of
    /// `(self, seed, node)` alone.
    ///
    /// The whole bootstrap is O(n·l): views come from the O(l)-per-node
    /// Floyd sampler, no per-node candidate list is materialized.
    /// Deterministic per `(self, seed)`.
    ///
    /// # Panics
    ///
    /// Panics on [`InitialTopology::Halves`] with `n < 4`.
    pub fn engine_builder<P: Protocol>(
        &self,
        seed: u64,
        mut node: impl FnMut(ProcessId, u64, Vec<ProcessId>) -> P,
    ) -> EngineBuilder<P> {
        let Bootstrap { n, view_size, .. } = *self;
        let split = match self.topology {
            InitialTopology::Halves => {
                assert!(n >= 4, "need at least two processes per side");
                n / 2
            }
            _ => n,
        };
        let mut topo_rng = SmallRng::seed_from_u64(seed ^ 0x746F_706F_6C6F_6779);
        let mut scratch = Vec::new();
        let nodes = (0..n as u64).map(|i| {
            let members = if self.topology == InitialTopology::Ring {
                ring_view(i, n, view_size)
            } else {
                // The usual self-excluding sampler over the node's own
                // island (the whole system unless `Halves`), in
                // island-local indices, offset to global ids afterwards.
                let (base, size) = if (i as usize) < split {
                    (0, split)
                } else {
                    (split as u64, n - split)
                };
                sample_view_into(&mut topo_rng, i - base, size, view_size, &mut scratch);
                scratch.iter().map(|&v| ProcessId::new(base + v)).collect()
            };
            node(ProcessId::new(i), node_seed(seed, i), members)
        });
        let candidates: Vec<ProcessId> = (1..n as u64).map(ProcessId::new).collect();
        let plan = CrashPlan::draw(&candidates, self.tau, self.rounds.max(1), seed);
        Engine::builder(NetworkModel::new(self.loss_rate, seed))
            .crash_plan(plan)
            .nodes(nodes)
    }
}

/// Draws `k` distinct values from `0..m` into `out` using Floyd's
/// algorithm: O(k) RNG draws and O(k) memory, no O(m) candidate list.
///
/// The output order is Floyd's insertion order, which is a deterministic
/// function of the RNG stream — identical seeds produce identical
/// samples. `k` is clamped to `m`.
pub fn sample_distinct(rng: &mut SmallRng, m: u64, k: usize, out: &mut Vec<u64>) {
    out.clear();
    let k = (k as u64).min(m);
    // Floyd: for j in m-k..m, draw t ∈ [0, j]; take t unless already
    // taken, in which case take j (which cannot have been taken yet —
    // every earlier pick is ≤ an earlier, strictly smaller j).
    if k <= 128 {
        // Small samples (every paper configuration): membership is a
        // linear scan of the output buffer itself — no allocation on the
        // engine-build hot path, and faster than hashing at these sizes.
        for j in (m - k)..m {
            let t = rng.gen_range(0..=j);
            let pick = if out.contains(&t) { j } else { t };
            out.push(pick);
        }
    } else {
        let mut taken: FastSet<u64> = FastSet::default();
        for j in (m - k)..m {
            let t = rng.gen_range(0..=j);
            let pick = if taken.insert(t) { t } else { j };
            if pick != t {
                taken.insert(pick);
            }
            out.push(pick);
        }
    }
    debug_assert_eq!(out.len(), k as usize);
}

/// Draws a uniformly random initial view for process `me` in a system of
/// `n` processes `0..n`: `min(l, n−1)` distinct members, never `me`.
///
/// Indices are sampled from `0..n−1` and shifted past `me`, so exclusion
/// of self costs nothing. O(l) per call — the engine-build hot path.
pub fn sample_view(rng: &mut SmallRng, me: u64, n: usize, l: usize) -> Vec<ProcessId> {
    let mut indices = Vec::new();
    sample_view_into(rng, me, n, l, &mut indices);
    indices.into_iter().map(ProcessId::new).collect()
}

/// [`sample_view`] writing raw ids into a reusable buffer (the engine
/// bootstrap calls this once per node; one allocation serves all n).
pub fn sample_view_into(rng: &mut SmallRng, me: u64, n: usize, l: usize, out: &mut Vec<u64>) {
    let m = (n as u64).saturating_sub(1);
    sample_distinct(rng, m, l, out);
    for v in out.iter_mut() {
        if *v >= me {
            *v += 1;
        }
    }
    debug_assert!(out.iter().all(|&v| v != me && v < n as u64));
}

/// The §6.1 worst-case clustered start: process `i` knows its
/// `min(l, n−1)` successors `i+1, i+2, …` (mod n).
///
/// Clamping the successor distance to `1..n` is what keeps the view
/// duplicate- and self-free when `l ≥ n−1`: the unclamped walk wrapped
/// past `i` and produced both repeats and a self-entry that the caller
/// then had to filter, leaving a shorter-than-expected view.
pub fn ring_view(me: u64, n: usize, l: usize) -> Vec<ProcessId> {
    let n = n as u64;
    let k = (l as u64).min(n.saturating_sub(1));
    let view: Vec<ProcessId> = (1..=k).map(|d| ProcessId::new((me + d) % n)).collect();
    debug_assert!(view.iter().all(|&p| p != ProcessId::new(me)));
    debug_assert!(
        {
            let mut sorted: Vec<_> = view.clone();
            sorted.sort_unstable();
            sorted.windows(2).all(|w| w[0] != w[1])
        },
        "ring view contains duplicates"
    );
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpbcast_core::{Config, Lpbcast};

    #[test]
    fn sample_distinct_is_exact_and_unique() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut out = Vec::new();
        sample_distinct(&mut rng, 100, 10, &mut out);
        assert_eq!(out.len(), 10);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "duplicates in {out:?}");
        assert!(out.iter().all(|&v| v < 100));
    }

    #[test]
    fn sample_distinct_clamps_to_population() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        sample_distinct(&mut rng, 5, 50, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "k > m returns all of 0..m");
    }

    #[test]
    fn sample_view_excludes_self_everywhere() {
        // `me` at the boundaries and in the middle.
        for me in [0u64, 7, 19] {
            let mut rng = SmallRng::seed_from_u64(3);
            let view = sample_view(&mut rng, me, 20, 19);
            assert_eq!(view.len(), 19, "l = n−1 fills the whole view");
            assert!(view.iter().all(|&p| p != ProcessId::new(me)));
        }
    }

    #[test]
    fn sample_view_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            sample_view(&mut rng, 3, 1000, 15)
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10), "different seeds diverge");
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Every candidate should be picked with probability l/(n−1);
        // loose 3σ-style bounds over many draws.
        let mut rng = SmallRng::seed_from_u64(42);
        let (n, l, draws) = (50usize, 5usize, 4000usize);
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            for p in sample_view(&mut rng, 0, n, l) {
                counts[p.as_u64() as usize] += 1;
            }
        }
        assert_eq!(counts[0], 0, "self never sampled");
        let expected = draws as f64 * l as f64 / (n - 1) as f64;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64 - expected).abs() < expected * 0.25,
                "candidate {i} drawn {c} times, expected ≈{expected:.0}"
            );
        }
    }

    #[test]
    fn ring_view_handles_oversized_l() {
        // The regression the clamp fixes: l ≥ n−1 used to wrap into
        // duplicates plus a filtered self-entry.
        for (n, l) in [(4usize, 5usize), (4, 3), (6, 8), (2, 10)] {
            let view = ring_view(1, n, l);
            assert_eq!(view.len(), l.min(n - 1), "n={n} l={l}");
            let mut sorted = view.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), view.len(), "duplicates at n={n} l={l}");
            assert!(view.iter().all(|&p| p != ProcessId::new(1)));
        }
    }

    #[test]
    fn ring_view_is_successors_in_order() {
        assert_eq!(
            ring_view(4, 6, 3),
            vec![ProcessId::new(5), ProcessId::new(0), ProcessId::new(1)]
        );
    }

    fn bootstrap(n: usize, topology: InitialTopology) -> Bootstrap {
        Bootstrap {
            n,
            view_size: 4,
            topology,
            loss_rate: 0.0,
            tau: 0.0,
            rounds: 1,
        }
    }

    #[test]
    fn halves_views_never_cross_the_divide() {
        let n = 11;
        let _ = bootstrap(n, InitialTopology::Halves).engine_builder(3, |id, seed, view| {
            let side = |p: ProcessId| p.as_u64() < (n / 2) as u64;
            assert_eq!(view.len(), 4);
            assert!(view.iter().all(|&p| p != id && side(p) == side(id)));
            Lpbcast::with_initial_view(id, Config::default(), seed, view)
        });
    }

    #[test]
    fn crash_plan_spares_the_origin() {
        let plan = Bootstrap {
            tau: 0.5,
            rounds: 3,
            ..bootstrap(40, InitialTopology::UniformRandom)
        };
        let mut engine = plan
            .engine_builder(5, |id, seed, view| {
                Lpbcast::with_initial_view(id, Config::default(), seed, view)
            })
            .build();
        engine.run(3);
        assert_eq!(engine.alive_count(), 40 - 19, "⌊0.5·39⌋ crashes");
        assert!(engine.is_alive(ProcessId::new(0)));
    }
}
