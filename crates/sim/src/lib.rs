//! Round-based simulator for lpbcast and pbcast — the §5.1 methodology:
//! *"we have simulated the entire system in a single process. More
//! precisely, we have simulated synchronous gossip rounds in which each
//! process gossips once."*
//!
//! The simulator drives the **same sans-IO state machines** used by the
//! UDP runtime, inside a synchronous-round [`Engine`]:
//!
//! 1. at the start of each round every alive node ticks once (emitting its
//!    periodic gossip);
//! 2. messages traverse a [`NetworkModel`] that drops each copy with
//!    probability ε and discards traffic to crashed processes;
//! 3. message-triggered responses (retransmission pulls/serves) are chased
//!    within the round up to a small depth — the paper's assumption that
//!    network latency is below the gossip period `T` (§4.1);
//! 4. deliveries are recorded by an [`InfectionTracker`] for infection
//!    curves (Figures 5, 7(a)) and reliability measurements (Figures 6,
//!    7(b)).
//!
//! Crashes follow the paper's fault model (§4.1): at most `f = τ·n`
//! processes crash during a run, at uniformly random rounds
//! ([`CrashPlan`]).
//!
//! # Performance architecture
//!
//! The simulator is built to sweep thousands of nodes and dozens of seeds
//! per figure:
//!
//! * **Dense slab engine** — nodes live in a `Vec` slab with a
//!   `ProcessId → index` cheap-hash map consulted once per *enqueued*
//!   message; envelopes carry slab indices, so delivery routing is an
//!   array access and liveness a bitset test ([`engine`]).
//! * **Double-buffered queues** — the round queue, reply buffer and
//!   next-round spill ping-pong between reused allocations; steady-state
//!   rounds do not allocate queue storage.
//! * **One round path** — a round runs on the calling thread, exactly
//!   as §5.1 describes it, and the library reads no environment
//!   variable: a run is a function of its arguments and seed.
//! * **Dense metrics** — the [`InfectionTracker`] interns process ids and
//!   keeps per-event flat first-seen-round vectors, two bytes per node
//!   (a `u16` offset from the event's first round, widened once to `u32`
//!   rounds when an offset does not fit), allocated once at the size of
//!   the membership, plus maintained infected counters ([`metrics`]).
//! * **Geometric loss sampling** — the [`NetworkModel`] draws the
//!   geometric gap between drops instead of one uniform per copy, making
//!   RNG cost proportional to ε·messages ([`network`]).
//! * **O(n·l) bootstrap** — initial views come from a Floyd-style
//!   distinct-index sampler ([`topology`]); no per-node candidate list is
//!   materialized, so engine construction is linear in the total view
//!   volume (the candidate-list build cost ~190 ms at n = 10⁴).
//! * **Parallel seed sweeps** — the only parallelism, and it needs no
//!   merge: the two protocol-generic measurements
//!   in [`experiment`] ([`experiment::infection_curve`],
//!   [`experiment::reliability`]) and every scenario grid map their
//!   cells through one in-order helper, [`experiment::Sweep::map`]. Each
//!   cell owns an independent engine and results come back in cell
//!   order, so the rayon fan-out ([`experiment::Sweep::Pool`]) and the
//!   serial reference ([`experiment::Sweep::Serial`]) are bit-identical
//!   (proven by `tests/sweep_determinism.rs`).
//!
//! Beyond the paper's static figures, [`scenario`] exercises dynamic
//! membership at scale. A scenario is a **timeline of actions plus one
//! report**: quiet and loaded rounds, §3.4 churn with lame-duck
//! departures, a one-round crash of 30% of the processes, a join surge,
//! bridge-healed §4.4 partitions, probes and reliability windows, run by
//! one generic driver over any [`ScenarioProtocol`]. A
//! string-serialisable [`ScenarioSpec`] names one cell of the
//! protocol × generator × fault matrix (churn, catastrophe, partition,
//! repeated partitions, flash crowds, Byzantine advertise-but-withhold
//! droppers, and the two cells of the SWIM [`detector`] A/B);
//! [`run_scenario_spec`] compiles it to its generator's
//! timeline and returns a [`ScenarioReport`] of named metrics, and
//! [`sweep_specs`] runs grids of cells rayon-parallel, bit-identical to
//! the serial reference. Adding a generator is one compile function and
//! one [`ScenarioGenerator`] variant (worked example in the [`scenario`]
//! module docs).
//!
//! A `(spec, seed)` cell and its report become text in one place:
//! [`cells_tsv`] writes long-format `spec seed metric value` rows and
//! [`cell_json`] one JSON object over the same fields (floats in their
//! shortest round-trip form, an unreached target as `never` / `null`).
//! `crates/bench/src/bin/bench_sim.rs` renders the scenario suite and the
//! [`detector_cells`] that way into `BENCH_sim.json` and
//! `results/scenarios.tsv`, `mass_scenarios` its grid into
//! `results/mass_scenarios.tsv`, and `tests/scenario_golden.rs` pins the
//! format with its fixture.
//!
//! # Example: one dissemination
//!
//! ```
//! use lpbcast_sim::experiment::{infection_curve, LpbcastSimParams, Sweep};
//!
//! let params = LpbcastSimParams::paper_defaults(64).rounds(12);
//! let curve = infection_curve(Sweep::Pool, &params, &[1, 2, 3]);
//! assert!(curve[0] >= 1.0, "origin infected at round 0");
//! assert!(*curve.last().unwrap() > 60.0, "near-total infection");
//! ```

#![warn(missing_docs, missing_debug_implementations)]

pub mod detector;
pub mod engine;
pub mod experiment;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod scale;
pub mod scenario;
pub mod topology;

pub use detector::detector_cells;
pub use engine::{Engine, EngineBuilder, WireAccounting};
pub use fault::{Fate, FaultPlane, FaultSpec};
pub use lpbcast_types::{MembershipEvent, Output, Protocol};
pub use metrics::{InfectionTracker, ReliabilityReport};
pub use network::{CrashPlan, NetworkModel};
pub use scale::{run_scale_point, scaling_study, scaling_tsv, ScalePoint};
pub use scenario::spec::{
    run_scenario_spec, sweep_specs, sweep_specs_serial, ProtocolKind, ScenarioGenerator,
    ScenarioSpec, ScenarioSpecParseError,
};
pub use scenario::{
    cell_json, cells_tsv, LeaveRefused, Metric, PbcastScenarioCfg, ScenarioProtocol,
    ScenarioReport, SwimScenarioCfg,
};
pub use topology::{
    node_seed, ring_view, sample_distinct, sample_view, Bootstrap, InitialTopology,
};
