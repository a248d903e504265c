//! The scenario timeline, its one driver and its one renderer.
//!
//! A [`ScenarioPlan`] is a run written down as data; [`run_plan`] is its
//! only interpreter. It owns the scenario layer's single [`Engine`]
//! construction site ([`build_engine`]) and every call that advances or
//! mutates the engine in scenario code, and returns the one
//! [`ScenarioReport`], which [`cells_tsv`] and [`cell_json`] turn into
//! text. Every round goes through the same draw order —
//! **joins → leaves → load → step → retire due leavers**, the parts an
//! action does not use contributing zero draws — so a run is a pure
//! function of `(plan, cfg, seed)` down to the last bit.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Index;

use lpbcast_net::wire_meter;
use lpbcast_types::{EventId, FastSet, Payload, ProcessId, Protocol};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::spec::{ScenarioGenerator, ScenarioSpec};
use super::{LeaveRefused, ScenarioProtocol};
use crate::engine::Engine;
use crate::fault::{FaultPlane, FaultSpec};
use crate::topology::{node_seed, sample_distinct, Bootstrap, InitialTopology};

// ─────────────────────────────── the plan ─────────────────────────────

/// The payload every publication of a loaded round carries (its length
/// feeds the wire meter); `None` is a plain gossip round. A loaded round
/// publishes the spec's `rate` events from its publisher pool.
pub(crate) type Load = Option<&'static [u8]>;

/// What an [`Action::Await`] waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Goal {
    /// The latest probe reached ≥ 99% of the members alive when the
    /// wait began.
    Probe,
    /// ≥ 99% of the join handshakes started so far completed.
    Joiners,
}

/// What an [`Action::Measure`] reads off the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reading {
    Members,
    JoinsAttempted,
    /// Joiners whose handshake completed (first gossip received),
    /// including those that have since departed.
    JoinsCompleted,
    LeavesCompleted,
    /// Departure requests refused (lpbcast's §3.4 full-`unSubs`
    /// protection; always 0 for protocols without one).
    LeavesRefused,
    /// Mean reliability of the closed window against the current
    /// membership. A headline reliability reading.
    WindowMean,
    /// Fraction of the current membership the latest probe reached. A
    /// headline reliability reading.
    ProbeCoverage,
    /// Mean delivery latency of the latest probe, in rounds.
    ProbeLatency,
    /// Whether the view graph is §4.4-partitioned.
    Partitioned,
    /// Undirected view-graph components.
    Components,
    LargestComponent,
    /// The failure-detector census
    /// ([`ScenarioProtocol::detector_census`] summed over every node
    /// the engine holds, crashed ones included): evictions issued …
    Evictions,
    /// … those among them whose target is still alive in the engine —
    /// detector mistakes, whether or not anybody else crashed or left …
    FalseEvictions,
    /// … suspicions raised, and suspicions refuted by an incarnation
    /// bump. All zero on a stack without a detector.
    Suspicions,
    Refutations,
}

/// One step of a scenario timeline.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Plain gossip rounds.
    Quiet(u64),
    /// Rounds that each publish the spec's load, carried by this
    /// payload, before they step.
    Run(u64, &'static [u8]),
    /// Rounds of §3.4 churn under `load`: each round `joins` newcomers
    /// enter and `leaves` random settled members take the protocol's
    /// departure path, to be removed `lame_duck` rounds later — the time
    /// a departure record, where the protocol has one, rides the
    /// leaver's own gossip.
    Churn {
        rounds: u64,
        joins: usize,
        leaves: usize,
        lame_duck: u64,
        load: Load,
    },
    /// This many newcomers start their handshake in the current round.
    JoinSurge(usize),
    /// Crashes this fraction of all processes at once. Records `crashed`
    /// and `survivors`.
    Crash(f64),
    /// Draws `bridges` side-B → side-A introductions
    /// ([`ScenarioProtocol::bridge`]) and re-injects them every round
    /// until the view graph is one strongly connected component or `cap`
    /// rounds passed. Records `rounds_to_connect` (undirected §4.4
    /// connectivity) and `rounds_to_heal`.
    Heal {
        bridges: usize,
        cap: u64,
    },
    /// p0 publishes a probe with this payload; later `Await`/`Measure`
    /// actions refer to the latest one.
    Probe(&'static [u8]),
    /// Runs up to `cap` rounds under `load` and records under `metric`
    /// how many passed before `goal` first held.
    /// With `stop_on_hit` the wait ends there; without, the full budget
    /// runs.
    Await {
        metric: Cow<'static, str>,
        goal: Goal,
        cap: u64,
        load: Load,
        stop_on_hit: bool,
    },
    /// Opens / closes (inclusive) the reliability window at the current
    /// round.
    OpenWindow,
    CloseWindow,
    /// Removes every leaver whose lame-duck period is still running:
    /// their request succeeded, so they are leavers, not members.
    RetireLeavers,
    /// Reads the closed window against the current membership: records
    /// `mean_reliability`, `min_reliability`, `events_measured`. A
    /// headline reliability reading.
    ReadWindow,
    /// Takes the reading *now* and records it under this name.
    Measure(&'static str, Reading),
}

/// A scenario as data. Built by the per-generator compile functions in
/// [`spec`](super::spec), executed by [`run_plan`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScenarioPlan {
    /// The cell being run: size, loss, load, publisher pool, fault
    /// overlay (a generator may raise `n` to its minimum).
    pub(crate) spec: ScenarioSpec,
    /// How the bootstrap views are laid out.
    pub(crate) bootstrap: InitialTopology,
    /// Salt of the harness RNG stream (`seed ^ salt`): who joins through
    /// whom, who leaves, who crashes, who publishes.
    pub(crate) salt: u64,
    /// Sustained leave rate the configuration must be sized for
    /// ([`ScenarioProtocol::size_for_leave_rate`]; 0 = none).
    pub(crate) leaves_per_round: usize,
    /// Run under [`ScenarioProtocol::strict_delivery`] with this
    /// fraction of non-publisher processes lying
    /// ([`Byz`](super::spec::Byz)).
    pub(crate) liar_frac: Option<f64>,
    /// A scheduled tear-and-heal divide: the `partition_*` fields of
    /// this spec are laid over the run's [`FaultSpec`], so the partition
    /// lives in the [`FaultPlane`] and the engine runs unmodified.
    pub(crate) tear: Option<FaultSpec>,
    /// Metrics the report lists first, in this order, whenever they were
    /// read (a reading taken before a crash may be listed after the crash
    /// counts); the rest follow in reading order.
    pub(crate) columns: &'static [&'static str],
    pub(crate) timeline: Vec<Action>,
}

// ────────────────────────────── the report ────────────────────────────

/// One named measurement of a [`ScenarioReport`]. `Display` is the one
/// text form of a report field ([`cells_tsv`], [`cell_json`]): floats in
/// their shortest round-trip form, so equal text is bit equality, and an
/// unreached target as `never`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// A count of processes, events or components.
    Count(usize),
    /// A delivery fraction in `[0, 1]`.
    Ratio(f64),
    /// A mean latency in rounds (`NaN` when nothing was delivered).
    Latency(f64),
    /// Rounds until a target was reached; `None` if the cap ran out.
    Rounds(Option<u64>),
    /// A yes/no observation.
    Flag(bool),
}

impl Metric {
    /// The numeric value (`Flag` as 0/1, an unreached `Rounds` as NaN).
    pub fn value(&self) -> f64 {
        match *self {
            Metric::Count(v) => v as f64,
            Metric::Ratio(v) | Metric::Latency(v) => v,
            Metric::Rounds(v) => v.map_or(f64::NAN, |r| r as f64),
            Metric::Flag(v) => f64::from(u8::from(v)),
        }
    }

    /// The rounds-until reading; `None` for an unreached target and for
    /// every other kind of metric.
    pub fn rounds(&self) -> Option<u64> {
        match *self {
            Metric::Rounds(v) => v,
            _ => None,
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Metric::Count(v) => write!(f, "{v}"),
            Metric::Ratio(v) | Metric::Latency(v) => write!(f, "{v}"),
            Metric::Rounds(Some(v)) => write!(f, "{v}"),
            Metric::Rounds(None) => f.write_str("never"),
            Metric::Flag(v) => write!(f, "{v}"),
        }
    }
}

/// Outcome of one scenario run: the fields every generator shares plus
/// an ordered list of named generator-specific metrics. Indexing by
/// metric name (`report["joins_completed"]`) panics on a name the
/// generator does not report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Protocol stack the run exercised
    /// ([`ProtocolKind::name`](super::spec::ProtocolKind::name)).
    pub protocol: &'static str,
    /// Generator that produced the run.
    pub generator: ScenarioGenerator,
    /// Bootstrap membership size.
    pub n: usize,
    /// Rounds the engine ran.
    pub rounds: u64,
    /// Total wire bytes offered to the transport across the run (exact
    /// codec frame lengths; every fanout copy counts).
    pub wire_bytes: u64,
    /// Message copies offered across the run.
    pub wire_messages: u64,
    /// Headline reliability: the *last* reliability reading of the
    /// timeline — the windowed mean for the load-driven generators, the
    /// post-failure mean for the catastrophe, the post-heal probe
    /// coverage for the partition.
    pub reliability_mean: f64,
    /// Worst reliability reading of the timeline (per-event minimum for
    /// full window readings).
    pub reliability_min: f64,
    /// Events behind [`reliability_mean`](ScenarioReport::reliability_mean).
    pub events_measured: usize,
    /// The worst rounds-until metric of the run (probe recovery, heal
    /// time, absorption time); `None` when the generator reports none or
    /// any of them blew its cap.
    pub recovery_rounds: Option<u64>,
    /// Generator-specific metrics, in report order.
    pub metrics: Vec<(Cow<'static, str>, Metric)>,
}

impl Index<&str> for ScenarioReport {
    type Output = Metric;

    fn index(&self, name: &str) -> &Metric {
        match self.metrics.iter().find(|(metric, _)| metric == name) {
            Some((_, value)) => value,
            None => panic!("{} reports no metric {name:?}", self.generator),
        }
    }
}

// ───────────────────────────── the renderer ───────────────────────────

/// One report field as the renderer writes it.
enum Field {
    /// A name: bare in TSV, a string in JSON.
    Label(&'static str),
    /// A measurement: `never` in TSV is `null` in JSON.
    Value(Metric),
}

impl ScenarioReport {
    /// Every field a rendering carries, in order: the shared report
    /// fields, then the generator's metrics in report order.
    fn fields(&self) -> impl Iterator<Item = (&str, Field)> {
        use Field::{Label, Value};
        use Metric::{Count, Ratio, Rounds};
        // `as usize` is lossless on the 64-bit targets that byte totals
        // this large need.
        let shared = [
            ("protocol", Label(self.protocol)),
            ("generator", Label(self.generator.name())),
            ("n", Value(Count(self.n))),
            ("rounds", Value(Count(self.rounds as usize))),
            ("wire_bytes", Value(Count(self.wire_bytes as usize))),
            ("wire_messages", Value(Count(self.wire_messages as usize))),
            ("reliability_mean", Value(Ratio(self.reliability_mean))),
            ("reliability_min", Value(Ratio(self.reliability_min))),
            ("recovery_rounds", Value(Rounds(self.recovery_rounds))),
        ];
        let metrics = self.metrics.iter();
        shared
            .into_iter()
            .chain(metrics.map(|(name, value)| (name.as_ref(), Value(*value))))
    }
}

/// Renders scenario cells as long-format TSV, one `spec  seed  metric
/// value` row per report field: the header, then each cell's block. The
/// spec string makes every row its own reproducer (paste it back into
/// [`run_scenario_spec`](super::spec::run_scenario_spec)).
///
/// # Panics
///
/// Panics unless there is one report per cell.
pub fn cells_tsv(cells: &[(ScenarioSpec, u64)], reports: &[ScenarioReport]) -> String {
    use std::fmt::Write as _;
    assert_eq!(cells.len(), reports.len(), "one report per cell");
    let mut out = String::from("spec\tseed\tmetric\tvalue\n");
    for ((spec, seed), report) in cells.iter().zip(reports) {
        for (metric, field) in report.fields() {
            let _ = match field {
                Field::Label(label) => writeln!(out, "{spec}\t{seed}\t{metric}\t{label}"),
                Field::Value(value) => writeln!(out, "{spec}\t{seed}\t{metric}\t{value}"),
            };
        }
    }
    out
}

/// Renders one scenario cell as a one-line JSON object: `spec` and
/// `seed`, then the fields of [`cells_tsv`] under the same names and in
/// the same text, except that an unreached target (and a float that is
/// not finite) is `null`.
pub fn cell_json(spec: &ScenarioSpec, seed: u64, report: &ScenarioReport) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"spec\": \"{spec}\", \"seed\": {seed}");
    for (metric, field) in report.fields() {
        let _ = match field {
            Field::Label(label) => write!(out, ", \"{metric}\": \"{label}\""),
            Field::Value(Metric::Rounds(None)) => write!(out, ", \"{metric}\": null"),
            Field::Value(Metric::Ratio(v) | Metric::Latency(v)) if !v.is_finite() => {
                write!(out, ", \"{metric}\": null")
            }
            Field::Value(value) => write!(out, ", \"{metric}\": {value}"),
        };
    }
    out.push('}');
    out
}

// ────────────────────────────── the driver ────────────────────────────

/// Builds the engine every scenario runs on: `n` bootstrap members with
/// initial views of size [`ScenarioProtocol::view_size`] through the shared
/// [`Bootstrap::engine_builder`] (no crash plan — scenarios crash
/// processes from their timeline), plus an exact wire meter (codec frame
/// lengths; accounting only, it draws no randomness) and the optional
/// fault overlay salted with the run seed.
///
/// # Panics
///
/// Panics on [`InitialTopology::Halves`] with `n < 4`.
fn build_engine<P: ScenarioProtocol>(
    topology: InitialTopology,
    n: usize,
    cfg: &P::Cfg,
    loss_rate: f64,
    fault: Option<FaultSpec>,
    seed: u64,
) -> Engine<P> {
    let bootstrap = Bootstrap {
        n,
        view_size: P::view_size(cfg),
        topology,
        loss_rate,
        tau: 0.0,
        rounds: 0,
    };
    let mut builder = bootstrap
        .engine_builder(seed, |id, node_seed, view| {
            P::bootstrap(id, cfg, node_seed, view)
        })
        .wire_meter(wire_meter());
    if let Some(spec) = fault {
        builder = builder.fault_plane(FaultPlane::new(spec, seed));
    }
    builder.build()
}

/// Publication-load origin chooser. With `publishers == 0` every event
/// comes from a uniformly random alive process; with `publishers = k`
/// the load follows the paper's §5 measurement model — a small pool of
/// long-lived senders (the paper's runs publish from *one* process at a
/// fixed rate) served round-robin, skipping members that crashed or
/// departed. Stream-shaped load is also what makes the §3.2 per-origin
/// digest compactions measurable: each publisher emits consecutive
/// sequence numbers, so digests collapse to a handful of ranges.
#[derive(Debug, Clone)]
struct LoadGen {
    publishers: u64,
    next: u64,
}

impl LoadGen {
    /// Picks the next origin, or `None` when the whole pool is gone.
    fn pick<P: Protocol>(
        &mut self,
        engine: &Engine<P>,
        rng: &mut SmallRng,
        alive: &[ProcessId],
    ) -> Option<ProcessId> {
        if self.publishers == 0 {
            return Some(alive[rng.gen_range(0..alive.len())]);
        }
        for _ in 0..self.publishers {
            let candidate = ProcessId::new(self.next % self.publishers);
            self.next += 1;
            if engine.is_alive(candidate) {
                return Some(candidate);
            }
        }
        None
    }
}

/// Runs one scenario timeline. Deterministic per `(P, plan, cfg, seed)`.
pub(crate) fn run_plan<P: ScenarioProtocol>(
    plan: &ScenarioPlan,
    cfg: &P::Cfg,
    seed: u64,
) -> ScenarioReport {
    let spec = &plan.spec;
    let fault = match plan.tear {
        Some(tear) => Some(FaultSpec {
            partition_period: tear.partition_period,
            partition_rounds: tear.partition_rounds,
            partition_frac: tear.partition_frac,
            partition_after: tear.partition_after,
            ..spec.fault.unwrap_or_default()
        }),
        None => spec.fault,
    };
    let mut run = Run {
        engine: build_engine::<P>(plan.bootstrap, spec.n, cfg, spec.loss_rate, fault, seed),
        cfg,
        seed,
        spec,
        rng: SmallRng::seed_from_u64(seed ^ plan.salt),
        load: LoadGen {
            publishers: spec.publishers as u64,
            next: 0,
        },
        next_id: spec.n as u64,
        alive: Vec::new(),
        scratch: Vec::new(),
        departures: VecDeque::new(),
        departing: FastSet::default(),
        departed_joiners: 0,
        leaves_completed: 0,
        leaves_refused: 0,
        window: (0, 0),
        probe: None,
        metrics: Vec::new(),
        reliability: None,
    };
    for action in &plan.timeline {
        run.exec(action);
    }

    let wire = run.engine.wire_accounting().unwrap_or_default();
    let (reliability_mean, reliability_min, events_measured) = run.reliability.unwrap_or_default();
    let waits = run.metrics.iter().filter_map(|(_, metric)| match metric {
        Metric::Rounds(rounds) => Some(*rounds),
        _ => None,
    });
    let waits: Option<Vec<u64>> = waits.collect();
    let column = |name: &str| plan.columns.iter().position(|&c| c == name);
    run.metrics
        .sort_by_key(|(name, _)| column(name).unwrap_or(usize::MAX));
    ScenarioReport {
        protocol: spec.protocol.name(),
        generator: spec.generator,
        n: spec.n,
        rounds: run.engine.round(),
        wire_bytes: wire.bytes,
        wire_messages: wire.messages,
        reliability_mean,
        reliability_min,
        events_measured,
        recovery_rounds: waits.and_then(|w| w.into_iter().max()),
        metrics: run.metrics,
    }
}

/// The state of one [`run_plan`] execution.
struct Run<'a, P: ScenarioProtocol> {
    engine: Engine<P>,
    cfg: &'a P::Cfg,
    seed: u64,
    /// `spec.n` is the bootstrap size: ids below it are bootstrap
    /// members, ids from it up to `next_id` are joiners.
    spec: &'a ScenarioSpec,
    rng: SmallRng,
    load: LoadGen,
    next_id: u64,
    /// Round-start snapshot of the engine's (incrementally maintained,
    /// already sorted) alive list — one memcpy, no sort.
    alive: Vec<ProcessId>,
    scratch: Vec<u64>,
    /// Accepted leavers and the round they actually depart.
    departures: VecDeque<(u64, ProcessId)>,
    /// Harness-side view of who is already scheduled to depart:
    /// protocols without a lame-duck state (pbcast's `leave_pending` is
    /// always false) would otherwise be picked as leavers twice during
    /// their departure window.
    departing: FastSet<ProcessId>,
    departed_joiners: usize,
    leaves_completed: usize,
    leaves_refused: usize,
    window: (u64, u64),
    probe: Option<EventId>,
    metrics: Vec<(Cow<'static, str>, Metric)>,
    /// Headline `(mean, min, events)` folded over reliability readings.
    reliability: Option<(f64, f64, usize)>,
}

impl<P: ScenarioProtocol> Run<'_, P> {
    fn exec(&mut self, action: &Action) {
        let n = self.spec.n;
        match *action {
            Action::Quiet(rounds) => self.rounds(rounds, 0, 0, 0, None),
            Action::Run(rounds, payload) => self.rounds(rounds, 0, 0, 0, Some(payload)),
            Action::Churn {
                rounds,
                joins,
                leaves,
                lame_duck,
                load,
            } => self.rounds(rounds, joins, leaves, lame_duck, load),
            Action::JoinSurge(joiners) => {
                self.snapshot();
                self.arrivals(joiners);
            }
            Action::Crash(fraction) => {
                assert!(
                    (0.0..1.0).contains(&fraction),
                    "crash fraction must be in [0, 1)"
                );
                // p0 is spared so probes keep a publisher (the paper's
                // runs are likewise conditional on a surviving one).
                let crashed = ((fraction * n as f64).floor() as usize).min(n.saturating_sub(1));
                sample_distinct(&mut self.rng, n as u64 - 1, crashed, &mut self.scratch);
                for v in &self.scratch {
                    self.engine.crash(ProcessId::new(v + 1));
                }
                self.record("crashed", Metric::Count(crashed));
                self.record("survivors", Metric::Count(self.engine.alive_count()));
            }
            Action::Heal { bridges, cap } => {
                // A single introduction is not enough to heal reliably:
                // the lone cross entry competes with full-view eviction
                // churn and can die out (observed at l = 6). Like a real
                // §3.4 process re-emitting its subscription on a timeout,
                // the bridges re-introduce themselves every round.
                let split = n / 2;
                let mut bridge = || {
                    let from = split as u64 + self.rng.gen_range(0..(n - split) as u64);
                    let to = self.rng.gen_range(0..split as u64);
                    (ProcessId::new(from), ProcessId::new(to))
                };
                let bridges: Vec<_> = (0..bridges).map(|_| bridge()).collect();
                let start = self.engine.round();
                let (mut connected, mut healed) = (None, None);
                for _ in 0..cap {
                    for &(from, to) in &bridges {
                        self.engine.enqueue(from, to, P::bridge(from));
                    }
                    self.rounds(1, 0, 0, 0, None);
                    let graph = self.engine.view_graph();
                    if connected.is_none() && !graph.is_partitioned() {
                        connected = Some(self.engine.round() - start);
                    }
                    if graph.strongly_connected_components().count() == 1 {
                        healed = Some(self.engine.round() - start);
                        break;
                    }
                }
                self.record("rounds_to_connect", Metric::Rounds(connected));
                self.record("rounds_to_heal", Metric::Rounds(healed));
            }
            Action::Probe(payload) => {
                let payload = Payload::from_static(payload);
                self.probe = Some(self.engine.publish_from(ProcessId::new(0), payload));
            }
            Action::Await {
                ref metric,
                goal,
                cap,
                load,
                stop_on_hit,
            } => {
                let start = self.engine.round();
                let population = match goal {
                    Goal::Probe => self.engine.alive_count(),
                    Goal::Joiners => self.joins_attempted(),
                };
                let target = (population as f64 * 0.99).ceil() as usize;
                let mut hit = None;
                for _ in 0..cap {
                    self.rounds(1, 0, 0, 0, load);
                    let reached = match goal {
                        Goal::Probe => self.engine.tracker().infected_count(self.probe()),
                        Goal::Joiners => self.joins_completed(),
                    };
                    if hit.is_none() && reached >= target {
                        hit = Some(self.engine.round() - start);
                        if stop_on_hit {
                            break;
                        }
                    }
                }
                self.record(metric.clone(), Metric::Rounds(hit));
            }
            Action::OpenWindow => self.window.0 = self.engine.round(),
            Action::CloseWindow => self.window.1 = self.engine.round(),
            Action::RetireLeavers => self.retire(u64::MAX),
            Action::ReadWindow => {
                let (mean, min, events) = self.window_reliability();
                self.record("mean_reliability", Metric::Ratio(mean));
                self.record("min_reliability", Metric::Ratio(min));
                self.record("events_measured", Metric::Count(events));
                self.record_reliability(mean, min, events);
            }
            Action::Measure(metric, reading) => {
                let engine = &self.engine;
                let value = match reading {
                    Reading::Members => Metric::Count(engine.alive_count()),
                    Reading::JoinsAttempted => Metric::Count(self.joins_attempted()),
                    Reading::JoinsCompleted => Metric::Count(self.joins_completed()),
                    Reading::LeavesCompleted => Metric::Count(self.leaves_completed),
                    Reading::LeavesRefused => Metric::Count(self.leaves_refused),
                    Reading::WindowMean => {
                        let (mean, _, events) = self.window_reliability();
                        self.record_reliability(mean, mean, events);
                        Metric::Ratio(mean)
                    }
                    Reading::ProbeCoverage => {
                        let population = engine.alive_count();
                        let coverage = engine.tracker().reliability_of(self.probe(), population);
                        self.record_reliability(coverage, coverage, 1);
                        Metric::Ratio(coverage)
                    }
                    Reading::ProbeLatency => {
                        let latency = engine.tracker().mean_latency(self.probe());
                        Metric::Latency(latency.unwrap_or(f64::NAN))
                    }
                    Reading::Partitioned => Metric::Flag(engine.view_graph().is_partitioned()),
                    Reading::Components => {
                        Metric::Count(engine.view_graph().undirected_components().count())
                    }
                    Reading::LargestComponent => {
                        Metric::Count(engine.view_graph().undirected_components().largest_size())
                    }
                    Reading::Evictions => self.census(|(evicted, _, _)| evicted.len()),
                    Reading::FalseEvictions => self.census(|(evicted, _, _)| {
                        evicted.iter().filter(|&&p| engine.is_alive(p)).count()
                    }),
                    Reading::Suspicions => self.census(|(_, raised, _)| raised as usize),
                    Reading::Refutations => self.census(|(_, _, refuted)| refuted as usize),
                };
                self.record(metric, value);
            }
        }
    }

    /// Engine rounds in the draw order every generator shares: joins →
    /// leaves → load → step → retire due leavers.
    fn rounds(&mut self, rounds: u64, joins: usize, leaves: usize, lame_duck: u64, load: Load) {
        for _ in 0..rounds {
            self.snapshot();
            self.arrivals(joins);
            for _ in 0..leaves {
                self.departure(lame_duck);
            }
            let (rate, payload) = load.map_or((0, &[][..]), |payload| (self.spec.rate, payload));
            for _ in 0..rate {
                let Some(origin) = self.load.pick(&self.engine, &mut self.rng, &self.alive) else {
                    continue;
                };
                if self.engine.is_alive(origin) {
                    let payload = Payload::from_static(payload);
                    self.engine.publish_from(origin, payload);
                }
            }
            self.engine.step();
            self.retire(self.engine.round());
        }
    }

    fn snapshot(&mut self) {
        self.alive.clear();
        self.alive.extend_from_slice(self.engine.alive_ids());
    }

    /// `count` newcomers enter through the protocol's join path, each
    /// holding three distinct contacts from the alive snapshot (Floyd
    /// sampler): under churn a single contact may itself leave before
    /// admitting the newcomer, which would strand an lpbcast joiner
    /// forever; the §3.4 round-robin retry routes around departed
    /// contacts.
    fn arrivals(&mut self, count: usize) {
        for _ in 0..count {
            let pool = self.alive.len();
            sample_distinct(&mut self.rng, pool as u64, 3.min(pool), &mut self.scratch);
            let contacts = self.scratch.iter().map(|&i| self.alive[i as usize]);
            let id = self.next_id;
            self.next_id += 1;
            let node = P::joiner(
                ProcessId::new(id),
                self.cfg,
                node_seed(self.seed, id),
                contacts.collect(),
            );
            self.engine.add_node(node);
        }
    }

    /// One random settled member takes the protocol's departure path
    /// (up to eight draws to find one that is neither joining nor
    /// already leaving).
    fn departure(&mut self, lame_duck: u64) {
        for _attempt in 0..8 {
            let candidate = self.alive[self.rng.gen_range(0..self.alive.len())];
            if self.departing.contains(&candidate) {
                continue;
            }
            let Some(node) = self.engine.node_mut(candidate) else {
                continue;
            };
            if node.leave_pending() || node.join_pending() {
                continue;
            }
            match node.request_leave() {
                Ok(()) => {
                    self.leaves_completed += 1;
                    // Only a settled joiner is eligible to leave, so a
                    // departing joiner still counts as a completed join
                    // after its node is removed.
                    if candidate.as_u64() >= self.spec.n as u64 {
                        self.departed_joiners += 1;
                    }
                    self.departing.insert(candidate);
                    let due = self.engine.round() + lame_duck;
                    self.departures.push_back((due, candidate));
                }
                Err(LeaveRefused) => self.leaves_refused += 1,
            }
            break;
        }
    }

    /// Removes the leavers whose departure round is `now` or earlier.
    fn retire(&mut self, now: u64) {
        while self.departures.front().is_some_and(|&(due, _)| due <= now) {
            let (_, id) = self.departures.pop_front().expect("front checked");
            self.engine.remove_node(id);
        }
    }

    fn joins_attempted(&self) -> usize {
        (self.next_id - self.spec.n as u64) as usize
    }

    fn joins_completed(&self) -> usize {
        let settled = |&id: &u64| {
            let node = self.engine.node(ProcessId::new(id));
            node.is_some_and(|node| !node.join_pending())
        };
        self.departed_joiners + (self.spec.n as u64..self.next_id).filter(settled).count()
    }

    fn probe(&self) -> EventId {
        self.probe.expect("the timeline published a probe first")
    }

    /// One column of [`ScenarioProtocol::detector_census`], summed over
    /// every node the engine holds.
    fn census(&self, column: impl Fn((&[ProcessId], u64, u64)) -> usize) -> Metric {
        let nodes = self.engine.nodes();
        Metric::Count(nodes.map(|(_, node)| column(node.detector_census())).sum())
    }

    /// `(mean, min, events)` of the per-event delivery fractions of the
    /// closed window against the current membership, each capped at 1:
    /// processes that saw an event and then departed would otherwise
    /// push the fraction past 1 (the tracker remembers them, the
    /// membership no longer contains them).
    fn window_reliability(&self) -> (f64, f64, usize) {
        let population = self.engine.alive_count();
        let window = self.window.0..=self.window.1;
        let report = self.engine.tracker().reliability_report(window, population);
        let per_event: Vec<f64> = report.per_event.iter().map(|&r| r.min(1.0)).collect();
        if per_event.is_empty() {
            return (0.0, 0.0, 0);
        }
        (
            per_event.iter().sum::<f64>() / per_event.len() as f64,
            per_event.iter().copied().fold(f64::INFINITY, f64::min),
            per_event.len(),
        )
    }

    fn record(&mut self, name: impl Into<Cow<'static, str>>, value: Metric) {
        self.metrics.push((name.into(), value));
    }

    fn record_reliability(&mut self, mean: f64, min: f64, events: usize) {
        let worst = self.reliability.map_or(min, |(_, worst, _)| worst.min(min));
        self.reliability = Some((mean, worst, events));
    }
}

#[cfg(test)]
mod tests {
    use super::super::spec::{run_scenario_spec, ProtocolKind, ScenarioSpec};
    use super::*;

    #[test]
    fn metrics_render_shortest_round_trip_floats() {
        assert_eq!(Metric::Ratio(0.995_912).to_string(), "0.995912");
        assert_eq!(Metric::Latency(4.25).to_string(), "4.25");
        assert_eq!(Metric::Rounds(Some(15)).rounds(), Some(15));
        assert_eq!(Metric::Count(15).rounds(), None);
        assert!(Metric::Rounds(None).value().is_nan());
    }

    #[test]
    fn one_report_renders_the_same_fields_as_tsv_rows_and_a_json_cell() {
        let spec = ScenarioSpec::new(ProtocolKind::SwimLpbcast, ScenarioGenerator::Detection, 120);
        let report = ScenarioReport {
            protocol: "swim+lpbcast",
            generator: ScenarioGenerator::Detection,
            n: 120,
            rounds: 57,
            wire_bytes: 12_345_678_901,
            wire_messages: 4321,
            reliability_mean: 0.1 + 0.2,
            reliability_min: 1.0,
            events_measured: 3,
            recovery_rounds: None,
            metrics: vec![
                ("crashed".into(), Metric::Count(54)),
                ("probe_reliability".into(), Metric::Ratio(119.0 / 120.0)),
                ("latency_rounds".into(), Metric::Latency(4.25)),
                ("rounds_to_heal".into(), Metric::Rounds(Some(6))),
                ("rounds_to_connect".into(), Metric::Rounds(None)),
                ("partitioned_after".into(), Metric::Flag(false)),
            ],
        };
        let key = "proto=swim+lpbcast;gen=detection;n=120;rounds=0;rate=20;publishers=16;loss=0.05;fraction=0;cycles=0";
        let expected_tsv: String = [
            "spec\tseed\tmetric\tvalue".to_string(),
            format!("{key}\t7\tprotocol\tswim+lpbcast"),
            format!("{key}\t7\tgenerator\tdetection"),
            format!("{key}\t7\tn\t120"),
            format!("{key}\t7\trounds\t57"),
            format!("{key}\t7\twire_bytes\t12345678901"),
            format!("{key}\t7\twire_messages\t4321"),
            format!("{key}\t7\treliability_mean\t0.30000000000000004"),
            format!("{key}\t7\treliability_min\t1"),
            format!("{key}\t7\trecovery_rounds\tnever"),
            format!("{key}\t7\tcrashed\t54"),
            format!("{key}\t7\tprobe_reliability\t0.9916666666666667"),
            format!("{key}\t7\tlatency_rounds\t4.25"),
            format!("{key}\t7\trounds_to_heal\t6"),
            format!("{key}\t7\trounds_to_connect\tnever"),
            format!("{key}\t7\tpartitioned_after\tfalse"),
        ]
        .map(|row| row + "\n")
        .concat();
        let tsv = cells_tsv(&[(spec, 7)], std::slice::from_ref(&report));
        assert_eq!(tsv, expected_tsv);

        let json = cell_json(&spec, 7, &report);
        let expected_json = format!(
            "{{\"spec\": \"{key}\", \"seed\": 7, \"protocol\": \"swim+lpbcast\", \
             \"generator\": \"detection\", \"n\": 120, \"rounds\": 57, \
             \"wire_bytes\": 12345678901, \"wire_messages\": 4321, \
             \"reliability_mean\": 0.30000000000000004, \"reliability_min\": 1, \
             \"recovery_rounds\": null, \"crashed\": 54, \
             \"probe_reliability\": 0.9916666666666667, \"latency_rounds\": 4.25, \
             \"rounds_to_heal\": 6, \"rounds_to_connect\": null, \"partitioned_after\": false}}"
        );
        assert_eq!(json, expected_json);

        // The same names in the same order: the TSV's metric column, and
        // the JSON keys after `spec` and `seed`.
        let tsv_names: Vec<&str> = tsv
            .lines()
            .skip(1)
            .map(|row| row.split('\t').nth(2).unwrap())
            .collect();
        let json_names: Vec<&str> = json
            .split(", \"")
            .skip(2)
            .map(|kv| kv.split('"').next().unwrap())
            .collect();
        assert_eq!(tsv_names, json_names);
    }

    #[test]
    #[should_panic(expected = "reports no metric")]
    fn indexing_an_unreported_metric_panics_with_its_name() {
        let spec = ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Partition, 20);
        let _ = run_scenario_spec(&spec, 1)["joins_completed"];
    }
}
