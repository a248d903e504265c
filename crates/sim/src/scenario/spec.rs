//! Declarative scenario matrix: a string-serialisable [`ScenarioSpec`]
//! naming *one cell* of the evidence grid — protocol × generator ×
//! size × load × fault model — and a runner that makes every cell a
//! pure function of `(spec, seed)`.
//!
//! A spec round-trips through the same hand-rolled `key=value;…`
//! grammar as [`FaultSpec`] — the workspace carries no serde — so
//! benchmark tables, TSV rows and CI configs can name a scenario
//! textually and replay it bit-exactly:
//!
//! ```text
//! proto=lpbcast;gen=churn;n=10000
//! proto=pbcast;gen=byzantine_droppers;n=1000;fraction=0.2;fault.lossy_links=0.2;fault.link_loss=0.3
//! ```
//!
//! Each [`ScenarioGenerator`] is one small function compiling a spec
//! into a timeline (see the [parent module](super) for the vocabulary),
//! run by the one generic driver.

use core::fmt;
use core::str::FromStr;

use lpbcast_core::Lpbcast;
use lpbcast_membership::{Swim, SwimConfig};
use lpbcast_pbcast::Pbcast;
use lpbcast_types::{EventId, Output, Payload, ProcessId, Protocol};

use super::plan::{run_plan, Action, Goal, Reading, ScenarioPlan, ScenarioReport};
use super::{LeaveRefused, Metric, ScenarioProtocol};
use crate::experiment::Sweep;
use crate::fault::{mix, FaultSpec};
use crate::topology::InitialTopology;

// ─────────────────────────── the spec itself ──────────────────────────

/// Which protocol stack a spec runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The paper's lpbcast.
    Lpbcast,
    /// The pbcast baseline.
    Pbcast,
    /// lpbcast wrapped in the SWIM failure detector.
    SwimLpbcast,
    /// pbcast wrapped in the SWIM failure detector.
    SwimPbcast,
}

impl ProtocolKind {
    /// Every protocol stack, in canonical sweep order.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Lpbcast,
        ProtocolKind::Pbcast,
        ProtocolKind::SwimLpbcast,
        ProtocolKind::SwimPbcast,
    ];

    /// The label used in spec strings, reports and TSV rows.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Lpbcast => "lpbcast",
            ProtocolKind::Pbcast => "pbcast",
            ProtocolKind::SwimLpbcast => "swim+lpbcast",
            ProtocolKind::SwimPbcast => "swim+pbcast",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ProtocolKind {
    type Err = ScenarioSpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // "swim" matches bench_sim's historical protocol knob.
        let label = if s == "swim" { "swim+lpbcast" } else { s };
        Self::ALL
            .into_iter()
            .find(|protocol| protocol.name() == label)
            .ok_or_else(|| ScenarioSpecParseError {
                fragment: format!("proto={s}"),
            })
    }
}

/// Which scenario generator a spec runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioGenerator {
    /// Continuous joins + leaves under load. Nodes leave through the
    /// protocol's departure path (lpbcast: §3.4 timestamped `unSubs`
    /// records, lame-duck gossip, then actual departure; pbcast has no
    /// unsubscription machinery, so leavers depart silently and their
    /// stale view entries only decay by eviction — the §3.4 contribution
    /// made measurable) while fresh nodes join mid-run (lpbcast: the
    /// §3.4 subscription handshake; pbcast: a newcomer whose partial
    /// membership starts from its contacts and spreads through
    /// piggybacked subs).
    Churn,
    /// A correlated failure crashes 30% of all processes in a single
    /// round; reliability and latency are measured before and after,
    /// plus the recovery time of a probe broadcast through the
    /// surviving membership.
    Catastrophe,
    /// Two halves boot with views confined to their own side, a handful
    /// of bridge introductions are injected, and the time until the view
    /// graph is whole again is measured (undirected §4.4 connectivity
    /// and full strong connectivity).
    Partition,
    /// The network tears along a stable divide on a fixed schedule
    /// ([`FaultSpec::partition_period`]) and heals, over and over;
    /// measures per-cycle heal latency and whether events published
    /// *during* a window eventually deliver.
    RepeatedPartitions,
    /// A large joiner cohort arrives in a single round (the §3.4
    /// subscription handshake under maximal contention); measures
    /// absorption time and reliability through the surge.
    FlashCrowd,
    /// A cohort of *advertise-but-withhold* liars (threat model from the
    /// Byzantine reliable-broadcast literature — see PAPERS.md): they
    /// gossip digests, subscriptions and membership chatter like model
    /// citizens but strip every notification body and answer
    /// retransmission requests with silence. Runs under
    /// [`ScenarioProtocol::strict_delivery`], because under the §5.2
    /// id-counts-as-received convention a withheld payload would cost
    /// nothing.
    ByzantineDroppers,
    /// The crash half of the SWIM detector A/B ([`crate::detector`]): a
    /// correlated crash of 45% of all processes, a detection gap that
    /// both arms idle through (one probe cycle, the suspect timeout, the
    /// confirm flood), then the recovery time of a probe through the
    /// survivors and the detector census. Run it on a bare and on a
    /// `swim+` stack to compare eviction with passive view decay — the
    /// paper treats crashed processes as mere message loss (§4.1).
    Detection,
    /// The precision half: the same probe and census over a full
    /// no-crash window. Nobody is dead, so under a noisy fault overlay
    /// ([`FaultSpec::noisy_links`], [`FaultSpec::slow_cohort`]) every
    /// eviction is a detector mistake, and the refutations are the
    /// suspected-but-alive nodes that saved themselves by bumping their
    /// incarnation.
    NoiseWindow,
}

impl ScenarioGenerator {
    /// Every generator, in canonical sweep order.
    pub const ALL: [ScenarioGenerator; 8] = [
        ScenarioGenerator::Churn,
        ScenarioGenerator::Catastrophe,
        ScenarioGenerator::Partition,
        ScenarioGenerator::RepeatedPartitions,
        ScenarioGenerator::FlashCrowd,
        ScenarioGenerator::ByzantineDroppers,
        ScenarioGenerator::Detection,
        ScenarioGenerator::NoiseWindow,
    ];

    /// The label used in spec strings, reports and TSV rows.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioGenerator::Churn => "churn",
            ScenarioGenerator::Catastrophe => "catastrophe",
            ScenarioGenerator::Partition => "partition",
            ScenarioGenerator::RepeatedPartitions => "repeated_partitions",
            ScenarioGenerator::FlashCrowd => "flash_crowd",
            ScenarioGenerator::ByzantineDroppers => "byzantine_droppers",
            ScenarioGenerator::Detection => "detection",
            ScenarioGenerator::NoiseWindow => "noise_window",
        }
    }
}

impl fmt::Display for ScenarioGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ScenarioGenerator {
    type Err = ScenarioSpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|generator| generator.name() == s)
            .ok_or_else(|| ScenarioSpecParseError {
                fragment: format!("gen={s}"),
            })
    }
}

/// One cell of the scenario matrix. Every field that is `0` (or `0.0`)
/// means *generator default* — a spec carrying only `proto`, `gen` and
/// `n` compiles to the §5-scaled reference run, which is what keeps the
/// committed reference numbers reproducible from spec strings.
///
/// Serialises to `key=value;…` via `Display`/`FromStr` (no serde); an
/// embedded fault model travels as `fault.<key>=<value>` fragments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Protocol stack under test.
    pub protocol: ProtocolKind,
    /// Scenario generator.
    pub generator: ScenarioGenerator,
    /// System size (bootstrap membership).
    pub n: usize,
    /// Generator-specific round knob (0 = generator default): churn
    /// rounds, catastrophe pre/post window, partition isolation rounds,
    /// repeated-partition window length, flash-crowd measurement
    /// window, byzantine load rounds, detection recovery cap,
    /// noise-window length.
    pub rounds: u64,
    /// Events published per loaded round (the §5 measurement load).
    pub rate: usize,
    /// Fixed publisher-pool size (0 = uniformly random origins).
    pub publishers: usize,
    /// Uniform message-loss probability ε.
    pub loss_rate: f64,
    /// Generator-specific fraction knob in `[0, 1]` (0 = default):
    /// churn intensity (joins = leaves = `fraction·n` per round),
    /// catastrophe and detection crash fraction, repeated-partition
    /// side-B fraction, flash-crowd joiner fraction, byzantine liar
    /// fraction. The partition and noise-window generators ignore it.
    pub fraction: f64,
    /// Repeated-partition cycle count (0 = default; other generators
    /// ignore it).
    pub cycles: u64,
    /// Optional correlated-fault overlay evaluated by a
    /// [`FaultPlane`](crate::fault::FaultPlane) salted with the run seed.
    pub fault: Option<FaultSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            protocol: ProtocolKind::Lpbcast,
            generator: ScenarioGenerator::Churn,
            n: 1000,
            rounds: 0,
            rate: 20,
            publishers: 16,
            loss_rate: 0.05,
            fraction: 0.0,
            cycles: 0,
            fault: None,
        }
    }
}

impl ScenarioSpec {
    /// A spec with default load knobs for `(protocol, generator, n)`.
    pub fn new(protocol: ProtocolKind, generator: ScenarioGenerator, n: usize) -> Self {
        ScenarioSpec {
            protocol,
            generator,
            n,
            ..ScenarioSpec::default()
        }
    }

    /// The spec with a correlated-fault overlay attached.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// `fraction · n` processes, at least one.
    fn cohort(&self, fraction: f64) -> usize {
        ((fraction * self.n as f64).round() as usize).max(1)
    }

    /// The plan skeleton every generator starts from: this cell on a
    /// uniform bootstrap, no configuration adjustments, the harness RNG
    /// stream named by `salt`.
    fn plan(&self, salt: &[u8; 8], timeline: Vec<Action>) -> ScenarioPlan {
        ScenarioPlan {
            spec: *self,
            bootstrap: InitialTopology::UniformRandom,
            salt: u64::from_be_bytes(*salt),
            leaves_per_round: 0,
            liar_frac: None,
            tear: None,
            columns: &[],
            timeline,
        }
    }

    /// Compiles the spec into its generator's timeline.
    pub(crate) fn compile(&self) -> ScenarioPlan {
        match self.generator {
            ScenarioGenerator::Churn => churn(self),
            ScenarioGenerator::Catastrophe => catastrophe(self),
            ScenarioGenerator::Partition => partition(self),
            ScenarioGenerator::RepeatedPartitions => repeated_partitions(self),
            ScenarioGenerator::FlashCrowd => flash_crowd(self),
            ScenarioGenerator::ByzantineDroppers => byzantine_droppers(self),
            ScenarioGenerator::Detection => detection(self),
            ScenarioGenerator::NoiseWindow => noise_window(self),
        }
    }
}

/// Failure to parse a [`ScenarioSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpecParseError {
    /// The offending `key=value` fragment.
    pub fragment: String,
}

impl fmt::Display for ScenarioSpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad scenario-spec fragment {:?}", self.fragment)
    }
}

impl std::error::Error for ScenarioSpecParseError {}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proto={};gen={};n={};rounds={};rate={};publishers={};loss={};fraction={};cycles={}",
            self.protocol,
            self.generator,
            self.n,
            self.rounds,
            self.rate,
            self.publishers,
            self.loss_rate,
            self.fraction,
            self.cycles,
        )?;
        if let Some(fault) = &self.fault {
            for fragment in fault.to_string().split(';') {
                write!(f, ";fault.{fragment}")?;
            }
        }
        Ok(())
    }
}

impl FromStr for ScenarioSpec {
    type Err = ScenarioSpecParseError;

    /// Parses the `key=value;…` form produced by `Display`. Keys may
    /// appear in any order; omitted keys keep their defaults; unknown
    /// keys and malformed values are errors. `fault.<key>` fragments
    /// are collected and delegated to [`FaultSpec::from_str`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = ScenarioSpec::default();
        let mut fault_fragments = String::new();
        for fragment in s.split(';').filter(|f| !f.trim().is_empty()) {
            let err = || ScenarioSpecParseError {
                fragment: fragment.to_string(),
            };
            let (key, value) = fragment.trim().split_once('=').ok_or_else(err)?;
            if let Some(fault_key) = key.strip_prefix("fault.") {
                if !fault_fragments.is_empty() {
                    fault_fragments.push(';');
                }
                fault_fragments.push_str(fault_key);
                fault_fragments.push('=');
                fault_fragments.push_str(value);
                continue;
            }
            let fu64 = || value.parse::<u64>().map_err(|_| err());
            let fusize = || value.parse::<usize>().map_err(|_| err());
            let ffrac = || {
                let fraction = value.parse::<f64>().ok();
                fraction.filter(|v| (0.0..=1.0).contains(v)).ok_or_else(err)
            };
            match key {
                "proto" => spec.protocol = value.parse()?,
                "gen" => spec.generator = value.parse()?,
                "n" => {
                    spec.n = fusize()?;
                    if spec.n == 0 {
                        return Err(err());
                    }
                }
                "rounds" => spec.rounds = fu64()?,
                "rate" => spec.rate = fusize()?,
                "publishers" => spec.publishers = fusize()?,
                // The network model takes ε ∈ [0, 1): total loss would
                // abort the run, so it does not parse.
                "loss" => spec.loss_rate = ffrac().ok().filter(|&v| v < 1.0).ok_or_else(err)?,
                "fraction" => spec.fraction = ffrac()?,
                "cycles" => spec.cycles = fu64()?,
                _ => return Err(err()),
            }
        }
        // Neither can a crash take everyone — checked once every key is
        // in, since they arrive in any order.
        let crashes = matches!(
            spec.generator,
            ScenarioGenerator::Catastrophe | ScenarioGenerator::Detection
        );
        if crashes && spec.fraction >= 1.0 {
            return Err(ScenarioSpecParseError {
                fragment: format!("fraction={}", spec.fraction),
            });
        }
        if !fault_fragments.is_empty() {
            spec.fault = Some(fault_fragments.parse().map_err(
                |e: crate::fault::FaultSpecParseError| ScenarioSpecParseError {
                    fragment: format!("fault.{}", e.fragment),
                },
            )?);
        }
        Ok(spec)
    }
}

// ────────────────────────── the eight generators ──────────────────────

/// A spec knob, with `default` standing in for an unset (zero) one.
fn or<T: PartialOrd + Default>(knob: T, default: T) -> T {
    if knob > T::default() {
        knob
    } else {
        default
    }
}

/// ~1% of the membership joins *and* leaves per round (`fraction`
/// overrides) for 30 rounds; leavers linger 3 rounds.
fn churn(spec: &ScenarioSpec) -> ScenarioPlan {
    let per_round = if spec.fraction > 0.0 {
        spec.cohort(spec.fraction)
    } else {
        (spec.n / 100).max(1)
    };
    ScenarioPlan {
        leaves_per_round: per_round,
        ..spec.plan(
            b"churn_rg",
            vec![
                Action::Quiet(5),
                Action::OpenWindow,
                Action::Churn {
                    rounds: or(spec.rounds, 30),
                    joins: per_round,
                    leaves: per_round,
                    lame_duck: 3,
                    load: Some(b"churn"),
                },
                Action::CloseWindow,
                // Drain rounds still retire due leavers; whoever's lame
                // duck outlasts the drain departs before the census, or
                // zombie members would inflate `final_members` and
                // dilute the reliability denominator.
                Action::Quiet(10),
                Action::RetireLeavers,
                Action::Measure("final_members", Reading::Members),
                Action::Measure("joins_attempted", Reading::JoinsAttempted),
                Action::Measure("joins_completed", Reading::JoinsCompleted),
                Action::Measure("leaves_completed", Reading::LeavesCompleted),
                Action::Measure("leaves_refused", Reading::LeavesRefused),
                Action::ReadWindow,
                Action::Measure("partitioned_at_end", Reading::Partitioned),
            ],
        )
    }
}

/// A 30% (`fraction`) crash between two 8-round loaded windows.
/// `reliability_before` is read *before* the crash, against the full
/// membership.
fn catastrophe(spec: &ScenarioSpec) -> ScenarioPlan {
    let window = Action::Run(or(spec.rounds, 8), b"load");
    ScenarioPlan {
        columns: &[
            "crashed",
            "survivors",
            "reliability_before",
            "reliability_after",
            "latency_before_rounds",
            "latency_after_rounds",
            "recovery_rounds",
            "partitioned_after",
        ],
        ..spec.plan(
            b"catastro",
            vec![
                Action::Quiet(5),
                Action::Probe(b"pre-probe"),
                Action::OpenWindow,
                window.clone(),
                Action::CloseWindow,
                Action::Quiet(10),
                Action::Measure("reliability_before", Reading::WindowMean),
                Action::Measure("latency_before_rounds", Reading::ProbeLatency),
                Action::Crash(or(spec.fraction, 0.30)),
                Action::Probe(b"recovery"),
                Action::Await {
                    metric: "recovery_rounds".into(),
                    goal: Goal::Probe,
                    cap: 40,
                    load: None,
                    stop_on_hit: true,
                },
                Action::Measure("latency_after_rounds", Reading::ProbeLatency),
                Action::OpenWindow,
                window,
                Action::CloseWindow,
                Action::Quiet(10),
                Action::Measure("reliability_after", Reading::WindowMean),
                Action::Measure("partitioned_after", Reading::Partitioned),
            ],
        )
    }
}

/// 5 isolated rounds, four bridges, at most 60 rounds to heal, then a
/// probe from side A gets 30 rounds to cross the former divide. Ignores
/// the load knobs and `fraction`.
fn partition(spec: &ScenarioSpec) -> ScenarioPlan {
    let spec = ScenarioSpec {
        n: spec.n.max(4),
        ..*spec
    };
    ScenarioPlan {
        bootstrap: InitialTopology::Halves,
        ..spec.plan(
            b"healbrdg",
            vec![
                Action::Measure("components_before", Reading::Components),
                Action::Measure("largest_component_before", Reading::LargestComponent),
                Action::Quiet(or(spec.rounds, 5)),
                Action::Heal {
                    bridges: 4,
                    cap: 60,
                },
                Action::Probe(b"healed"),
                Action::Quiet(30),
                Action::Measure("post_heal_reliability", Reading::ProbeCoverage),
            ],
        )
    }
}

/// Three (`cycles`) 6-round tears along a half/half (`fraction`)
/// divide with 20-round heal budgets, load flowing throughout. The
/// whole budget runs either way, so the tear schedule stays periodic.
fn repeated_partitions(spec: &ScenarioSpec) -> ScenarioPlan {
    let (warmup, torn, budget) = (5, or(spec.rounds, 6), 20);
    let mut timeline = vec![Action::Quiet(warmup), Action::OpenWindow];
    for cycle in 1..=or(spec.cycles, 3) {
        timeline.extend([
            Action::Run(torn, b"load"),
            Action::Probe(b"re-heal"),
            Action::Await {
                metric: format!("heal_rounds_{cycle}").into(),
                goal: Goal::Probe,
                cap: budget,
                load: Some(b"load"),
                stop_on_hit: false,
            },
        ]);
    }
    timeline.extend([Action::CloseWindow, Action::Quiet(10), Action::ReadWindow]);
    ScenarioPlan {
        tear: Some(FaultSpec {
            partition_period: torn + budget,
            partition_rounds: torn,
            partition_frac: or(spec.fraction, 0.5),
            partition_after: warmup,
            ..FaultSpec::default()
        }),
        ..spec.plan(b"repartns", timeline)
    }
}

/// Half of `n` (`fraction`) joins at once; absorption is watched over
/// a 30-round loaded window.
fn flash_crowd(spec: &ScenarioSpec) -> ScenarioPlan {
    spec.plan(
        b"flashcrd",
        vec![
            Action::Quiet(5),
            Action::JoinSurge(spec.cohort(or(spec.fraction, 0.5))),
            Action::Measure("joiners", Reading::JoinsAttempted),
            Action::OpenWindow,
            Action::Await {
                metric: "rounds_to_absorb".into(),
                goal: Goal::Joiners,
                cap: or(spec.rounds, 30),
                load: Some(b"flash"),
                stop_on_hit: false,
            },
            Action::CloseWindow,
            Action::Quiet(10),
            Action::Measure("joins_completed", Reading::JoinsCompleted),
            Action::ReadWindow,
            Action::Measure("partitioned_at_end", Reading::Partitioned),
        ],
    )
}

/// A 10% (`fraction`) lying cohort, 15 loaded rounds, then an honest
/// probe measures how long full coverage takes despite the black holes
/// re-advertising it.
fn byzantine_droppers(spec: &ScenarioSpec) -> ScenarioPlan {
    ScenarioPlan {
        liar_frac: Some(or(spec.fraction, 0.10)),
        ..spec.plan(
            b"byz_load",
            vec![
                Action::Quiet(5),
                Action::OpenWindow,
                Action::Run(or(spec.rounds, 15), b"load"),
                Action::CloseWindow,
                Action::Probe(b"byz-probe"),
                Action::Await {
                    metric: "recovery_rounds".into(),
                    goal: Goal::Probe,
                    cap: 40,
                    load: None,
                    stop_on_hit: true,
                },
                Action::Quiet(10),
                Action::ReadWindow,
            ],
        )
    }
}

/// The probe-and-census tail the two detector cells share: p0's probe
/// gets `cap` rounds to reach 99% of the members alive now, then its
/// coverage and the four census counts are read.
fn probe_and_census(cap: u64, stop_on_hit: bool) -> [Action; 7] {
    [
        Action::Probe(b"detector-probe"),
        Action::Await {
            metric: "recovery_rounds".into(),
            goal: Goal::Probe,
            cap,
            load: None,
            stop_on_hit,
        },
        Action::Measure("probe_reliability", Reading::ProbeCoverage),
        Action::Measure("evictions", Reading::Evictions),
        Action::Measure("false_evictions", Reading::FalseEvictions),
        Action::Measure("suspicions", Reading::Suspicions),
        Action::Measure("refutations", Reading::Refutations),
    ]
}

/// 8 quiet rounds (view mixing and the detector's first probe sweeps),
/// a 45% (`fraction`) crash from the catastrophe's victim stream, the
/// detection gap, then a recovery probe capped at 40 (`rounds`). The
/// cohort is harsher than the catastrophe's 30% on purpose: stale-view
/// fanout waste grows with the dead fraction, so this is the regime
/// where eviction-vs-passive-decay differences clear the one-round
/// quantization of the recovery measurement.
fn detection(spec: &ScenarioSpec) -> ScenarioPlan {
    // One probe cycle to notice the silence, the suspect timeout to
    // confirm, and then the Confirm flood itself: with fraction·n
    // deaths the piggyback queue carries thousands of distinct updates,
    // and epidemic coverage of the survivors takes O(log n) extra
    // rounds (at n=10⁴ survivors' views are ~35% dead entries ten
    // rounds post-crash but ~14% vs the bare stack's ~29% at twenty).
    // Deliberately no longer than that: lpbcast's passive view rotation
    // (§3.4 subs swaps) also scrubs dead entries eventually, so an
    // over-generous window hands the bare stack the same cleanup for
    // free and measures nothing. Every stack idles through the same
    // gap; only a detector spends it confirming and evicting.
    let gap = 6
        + SwimConfig::scaled(spec.n).suspect_timeout
        + 2 * u64::from(spec.n.max(2).ilog2().saturating_sub(8));
    let mut timeline = vec![
        Action::Quiet(8),
        Action::Crash(or(spec.fraction, 0.45)),
        Action::Quiet(gap),
    ];
    timeline.extend(probe_and_census(or(spec.rounds, 40), true));
    spec.plan(b"catastro", timeline)
}

/// 8 quiet rounds, then the probe and a full 30-round (`rounds`) window
/// with nobody crashed — the false-positive census. Ignores `fraction`.
fn noise_window(spec: &ScenarioSpec) -> ScenarioPlan {
    let mut timeline = vec![Action::Quiet(8)];
    timeline.extend(probe_and_census(or(spec.rounds, 30), false));
    spec.plan(b"catastro", timeline)
}

// ──────────────────────── the Byzantine wrapper ───────────────────────

/// The advertise-but-withhold adversary wrapper: delegates the entire
/// [`Protocol`] lifecycle to the inner protocol, but when this node is
/// in the lying cohort, every outgoing message passes through
/// [`ScenarioProtocol::withhold`] — digests, subscriptions and
/// detector chatter survive; notification bodies do not.
#[derive(Debug)]
pub struct Byz<P> {
    inner: P,
    lying: bool,
}

impl<P: ScenarioProtocol> Byz<P> {
    fn filter(&self, mut out: Output<P::Msg>) -> Output<P::Msg> {
        if self.lying {
            out.outgoing.retain_mut(|(_, msg)| P::withhold(msg));
        }
        out
    }
}

impl<P: ScenarioProtocol> Protocol for Byz<P> {
    type Msg = P::Msg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn tick(&mut self) -> Output<Self::Msg> {
        let out = self.inner.tick();
        self.filter(out)
    }

    fn handle_message(&mut self, from: ProcessId, msg: Self::Msg) -> Output<Self::Msg> {
        let out = self.inner.handle_message(from, msg);
        self.filter(out)
    }

    fn broadcast(&mut self, payload: Payload) -> (EventId, Output<Self::Msg>) {
        let (id, out) = self.inner.broadcast(payload);
        (id, self.filter(out))
    }

    fn view_members(&self) -> Vec<ProcessId> {
        self.inner.view_members()
    }

    fn evict(&mut self, process: ProcessId) {
        self.inner.evict(process);
    }
}

/// Scenario configuration of the adversary wrapper: the inner
/// configuration plus the lying-cohort selector.
#[derive(Debug, Clone)]
pub struct ByzCfg<C> {
    /// Inner protocol configuration.
    pub inner: C,
    /// Fraction of eligible processes in the lying cohort.
    pub liar_frac: f64,
    /// Process ids below this bound never lie — the publisher pool is
    /// spared so a withheld payload measures *dissemination* damage,
    /// not a liar strangling its own events at the source.
    pub honest_below: u64,
    /// Cohort-selection seed (derive it from the run seed).
    pub cohort_seed: u64,
}

impl<C> ByzCfg<C> {
    /// Whether `id` is in the lying cohort — a stable hash decision,
    /// like the [`FaultPlane`](crate::fault::FaultPlane) cohorts.
    pub fn is_liar(&self, id: ProcessId) -> bool {
        id.as_u64() >= self.honest_below
            && self.liar_frac > 0.0
            && unit(mix(self.cohort_seed ^ mix(id.as_u64() ^ 0x6C69_6172))) < self.liar_frac
    }
}

/// Maps a hash to `[0, 1)` with 53 random bits (the
/// [`FaultPlane`](crate::fault::FaultPlane) convention).
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<P: ScenarioProtocol> ScenarioProtocol for Byz<P> {
    type Cfg = ByzCfg<P::Cfg>;

    /// An honest wrapper by default (`liar_frac = 0`) over the inner
    /// strict-delivery configuration; the Byzantine generator fills in
    /// the cohort.
    fn scaled_cfg(n: usize) -> ByzCfg<P::Cfg> {
        let mut inner = P::scaled_cfg(n);
        P::strict_delivery(&mut inner);
        ByzCfg {
            inner,
            liar_frac: 0.0,
            honest_below: 0,
            cohort_seed: 0,
        }
    }

    fn size_for_leave_rate(cfg: &mut ByzCfg<P::Cfg>, leaves_per_round: usize) {
        P::size_for_leave_rate(&mut cfg.inner, leaves_per_round);
    }

    fn view_size(cfg: &ByzCfg<P::Cfg>) -> usize {
        P::view_size(&cfg.inner)
    }

    fn bootstrap(id: ProcessId, cfg: &ByzCfg<P::Cfg>, seed: u64, members: Vec<ProcessId>) -> Self {
        Byz {
            inner: P::bootstrap(id, &cfg.inner, seed, members),
            lying: cfg.is_liar(id),
        }
    }

    fn joiner(id: ProcessId, cfg: &ByzCfg<P::Cfg>, seed: u64, contacts: Vec<ProcessId>) -> Self {
        Byz {
            inner: P::joiner(id, &cfg.inner, seed, contacts),
            lying: cfg.is_liar(id),
        }
    }

    fn request_leave(&mut self) -> Result<(), LeaveRefused> {
        self.inner.request_leave()
    }

    fn join_pending(&self) -> bool {
        self.inner.join_pending()
    }

    fn leave_pending(&self) -> bool {
        self.inner.leave_pending()
    }

    fn bridge(from: ProcessId) -> Self::Msg {
        P::bridge(from)
    }

    fn withhold(msg: &mut Self::Msg) -> bool {
        P::withhold(msg)
    }

    fn strict_delivery(cfg: &mut Self::Cfg) {
        P::strict_delivery(&mut cfg.inner);
    }

    fn detector_census(&self) -> (&[ProcessId], u64, u64) {
        self.inner.detector_census()
    }
}

// ──────────────────────── running a spec cell ─────────────────────────

fn run_spec_on<P: ScenarioProtocol>(spec: &ScenarioSpec, seed: u64) -> ScenarioReport {
    let plan = spec.compile();
    let n = plan.spec.n;
    let mut cfg = P::scaled_cfg(n);
    if plan.leaves_per_round > 0 {
        P::size_for_leave_rate(&mut cfg, plan.leaves_per_round);
    }
    let Some(liar_frac) = plan.liar_frac else {
        return run_plan::<P>(&plan, &cfg, seed);
    };
    P::strict_delivery(&mut cfg);
    let cfg = ByzCfg {
        inner: cfg,
        liar_frac,
        honest_below: spec.publishers as u64,
        cohort_seed: mix(seed ^ u64::from_be_bytes(*b"byzantin")),
    };
    let liars = (0..n as u64).filter(|&i| cfg.is_liar(ProcessId::new(i)));
    let liars = Metric::Count(liars.count());
    let mut report = run_plan::<Byz<P>>(&plan, &cfg, seed);
    report.metrics.insert(0, ("liars".into(), liars));
    report
}

/// Runs one cell of the scenario matrix — a pure function of
/// `(spec, seed)`.
pub fn run_scenario_spec(spec: &ScenarioSpec, seed: u64) -> ScenarioReport {
    match spec.protocol {
        ProtocolKind::Lpbcast => run_spec_on::<Lpbcast>(spec, seed),
        ProtocolKind::Pbcast => run_spec_on::<Pbcast>(spec, seed),
        ProtocolKind::SwimLpbcast => run_spec_on::<Swim<Lpbcast>>(spec, seed),
        ProtocolKind::SwimPbcast => run_spec_on::<Swim<Pbcast>>(spec, seed),
    }
}

/// Runs many `(spec, seed)` cells in parallel; reports come back in
/// cell order and are bit-identical to [`sweep_specs_serial`]
/// regardless of the worker count (each cell owns an independent
/// engine and RNG streams).
pub fn sweep_specs(cells: &[(ScenarioSpec, u64)]) -> Vec<ScenarioReport> {
    Sweep::Pool.map(cells, |(spec, seed)| run_scenario_spec(spec, *seed))
}

/// Single-threaded [`sweep_specs`] (determinism reference).
pub fn sweep_specs_serial(cells: &[(ScenarioSpec, u64)]) -> Vec<ScenarioReport> {
    Sweep::Serial.map(cells, |(spec, seed)| run_scenario_spec(spec, *seed))
}

#[cfg(test)]
mod tests {
    use lpbcast_core::Config;
    use lpbcast_pbcast::PbcastConfig;

    use super::super::PbcastScenarioCfg;
    use super::*;

    fn small_config() -> Config {
        Config::builder()
            .view_size(6)
            .fanout(3)
            .event_ids_max(256)
            .events_max(256)
            .deliver_on_digest(true)
            .build()
    }

    fn small_pbcast_config() -> PbcastScenarioCfg {
        PbcastScenarioCfg {
            config: PbcastConfig::builder()
                .first_phase(false)
                .pull(false)
                .deliver_on_digest(true)
                .max_hops(12)
                .max_repetitions(6)
                .history_max(256)
                .store_max(512)
                .build(),
            view_size: 6,
        }
    }

    /// A spec with the small-system load knobs the unit tests share;
    /// the tests run its compiled plan against their own small
    /// configurations instead of the §5-scaled one.
    fn small(generator: ScenarioGenerator, n: usize, rounds: u64, rate: usize) -> ScenarioSpec {
        ScenarioSpec {
            generator,
            n,
            rounds,
            rate,
            publishers: 0,
            ..ScenarioSpec::default()
        }
    }

    /// The compiled churn plan with the per-round cohorts set by hand
    /// (a spec always joins as many as it leaves).
    fn churn_plan(spec: &ScenarioSpec, joins: usize, leaves: usize) -> ScenarioPlan {
        let mut plan = spec.compile();
        for action in &mut plan.timeline {
            if let Action::Churn {
                joins: j,
                leaves: l,
                ..
            } = action
            {
                (*j, *l) = (joins, leaves);
            }
        }
        plan
    }

    fn small_churn() -> ScenarioPlan {
        churn_plan(&small(ScenarioGenerator::Churn, 40, 10, 4), 2, 2)
    }

    #[test]
    fn churn_keeps_disseminating() {
        let report = run_plan::<Lpbcast>(&small_churn(), &small_config(), 7);
        assert_eq!(report["joins_attempted"], Metric::Count(20));
        assert!(
            report["joins_completed"].value() > 10.0,
            "most joins complete: {report:?}"
        );
        assert!(report["leaves_completed"].value() > 0.0, "{report:?}");
        assert!(
            report.reliability_mean > 0.8,
            "dissemination survives churn: {report:?}"
        );
        assert!(
            report.reliability_mean <= 1.0 && report.reliability_min <= 1.0,
            "reliability is a fraction: {report:?}"
        );
        assert_eq!(
            report["partitioned_at_end"],
            Metric::Flag(false),
            "{report:?}"
        );
        assert!(report.events_measured > 0);
    }

    #[test]
    fn pbcast_churn_runs_and_joins() {
        let report = run_plan::<Pbcast>(&small_churn(), &small_pbcast_config(), 7);
        assert_eq!(report["joins_attempted"], Metric::Count(20));
        assert!(
            report["joins_completed"].value() <= report["joins_attempted"].value(),
            "a joiner can complete at most once: {report:?}"
        );
        assert!(
            report["leaves_completed"].value() <= 20.0,
            "a member can leave at most once: {report:?}"
        );
        assert!(
            report["joins_completed"].value() > 10.0,
            "pbcast joiners admitted through digests: {report:?}"
        );
        assert!(report["leaves_completed"].value() > 0.0, "{report:?}");
        assert_eq!(
            report["leaves_refused"],
            Metric::Count(0),
            "pbcast has no refusal machinery: {report:?}"
        );
        assert!(
            report.reliability_mean > 0.5,
            "anti-entropy keeps disseminating under churn: {report:?}"
        );
        assert!(report.reliability_mean <= 1.0, "{report:?}");
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let plan = small_churn();
        assert_eq!(
            run_plan::<Lpbcast>(&plan, &small_config(), 5),
            run_plan::<Lpbcast>(&plan, &small_config(), 5)
        );
    }

    fn small_catastrophe(n: usize, fraction: f64, rounds: u64, rate: usize) -> ScenarioPlan {
        ScenarioSpec {
            fraction,
            ..small(ScenarioGenerator::Catastrophe, n, rounds, rate)
        }
        .compile()
    }

    #[test]
    fn catastrophe_recovers() {
        let plan = small_catastrophe(60, 0.4, 6, 5);
        let report = run_plan::<Lpbcast>(&plan, &small_config(), 11);
        assert_eq!(report["crashed"], Metric::Count(24));
        assert_eq!(report["survivors"], Metric::Count(36));
        assert!(
            report["reliability_before"].value() > 0.9,
            "healthy before: {report:?}"
        );
        assert!(
            report["reliability_after"].value() > 0.9,
            "recovers after losing 40%: {report:?}"
        );
        assert!(
            report.recovery_rounds.is_some(),
            "probe reaches survivors: {report:?}"
        );
        assert!(report["latency_after_rounds"].value().is_finite());
        // The headline reads the post-failure window; the worst reading
        // may be either side of the crash.
        assert_eq!(report.reliability_mean, report["reliability_after"].value());
        assert!(report.reliability_min <= report["reliability_before"].value());
    }

    #[test]
    fn pbcast_catastrophe_recovers() {
        let plan = small_catastrophe(60, 0.4, 6, 5);
        let report = run_plan::<Pbcast>(&plan, &small_pbcast_config(), 11);
        assert_eq!(report["crashed"], Metric::Count(24));
        assert!(
            report["reliability_before"].value() > 0.8,
            "healthy before: {report:?}"
        );
        assert!(
            report.recovery_rounds.is_some(),
            "anti-entropy re-reaches survivors: {report:?}"
        );
    }

    #[test]
    fn catastrophe_is_deterministic_per_seed() {
        let plan = small_catastrophe(40, 0.3, 4, 3);
        assert_eq!(
            run_plan::<Lpbcast>(&plan, &small_config(), 3),
            run_plan::<Lpbcast>(&plan, &small_config(), 3)
        );
    }

    #[test]
    fn partition_heals_through_bridges() {
        let plan = small(ScenarioGenerator::Partition, 60, 4, 0).compile();
        let report = run_plan::<Lpbcast>(&plan, &small_config(), 9);
        assert_eq!(report["components_before"], Metric::Count(2), "{report:?}");
        assert_eq!(
            report["largest_component_before"],
            Metric::Count(30),
            "{report:?}"
        );
        let connect = report["rounds_to_connect"].rounds();
        let heal = report["rounds_to_heal"].rounds();
        assert!(connect.is_some(), "{report:?}");
        assert!(heal.is_some(), "{report:?}");
        assert!(
            connect <= heal,
            "connectivity precedes strong connectivity: {report:?}"
        );
        assert_eq!(report.recovery_rounds, heal, "{report:?}");
        assert!(
            report["post_heal_reliability"].value() > 0.95,
            "broadcast crosses the healed divide: {report:?}"
        );
    }

    #[test]
    fn pbcast_partition_heals_through_digest_bridges() {
        let plan = small(ScenarioGenerator::Partition, 60, 4, 0).compile();
        let report = run_plan::<Pbcast>(&plan, &small_pbcast_config(), 9);
        assert_eq!(report["components_before"], Metric::Count(2), "{report:?}");
        assert!(
            report["rounds_to_connect"].rounds().is_some(),
            "subs-carrying digests reconnect the membership: {report:?}"
        );
        assert!(
            report["post_heal_reliability"].value() > 0.8,
            "broadcast crosses the healed divide: {report:?}"
        );
    }

    #[test]
    fn partition_is_deterministic_per_seed() {
        let plan = small(ScenarioGenerator::Partition, 30, 3, 0).compile();
        assert_eq!(
            run_plan::<Lpbcast>(&plan, &small_config(), 2),
            run_plan::<Lpbcast>(&plan, &small_config(), 2)
        );
    }

    #[test]
    fn spec_string_roundtrips() {
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::new(
                ProtocolKind::Pbcast,
                ScenarioGenerator::ByzantineDroppers,
                2500,
            ),
            ScenarioSpec {
                protocol: ProtocolKind::SwimPbcast,
                generator: ScenarioGenerator::RepeatedPartitions,
                n: 77,
                rounds: 9,
                rate: 5,
                publishers: 0,
                loss_rate: 0.125,
                fraction: 0.25,
                cycles: 2,
                fault: Some(FaultSpec::noisy_links(42)),
            },
            ScenarioSpec::new(ProtocolKind::SwimLpbcast, ScenarioGenerator::FlashCrowd, 60)
                .with_fault(FaultSpec {
                    partition_period: 10,
                    partition_rounds: 3,
                    partition_frac: 0.5,
                    ..FaultSpec::default()
                }),
        ] {
            let s = spec.to_string();
            let parsed: ScenarioSpec = s.parse().expect("roundtrip parse");
            assert_eq!(parsed, spec, "{s}");
        }
    }

    #[test]
    fn spec_parse_rejects_garbage() {
        assert!("proto=quux;gen=churn;n=10".parse::<ScenarioSpec>().is_err());
        assert!("gen=quux".parse::<ScenarioSpec>().is_err());
        assert!("n=0".parse::<ScenarioSpec>().is_err());
        assert!("loss=1.5".parse::<ScenarioSpec>().is_err());
        assert!("fraction=-0.5".parse::<ScenarioSpec>().is_err());
        assert!("bogus=1".parse::<ScenarioSpec>().is_err());
        assert!("rounds".parse::<ScenarioSpec>().is_err());
        assert!("fault.bogus=1".parse::<ScenarioSpec>().is_err());
        // Values that parse as fractions but that the run would abort
        // on: total loss, and a catastrophe that crashes everyone — in
        // either key order.
        let err = "proto=lpbcast;gen=churn;n=50;loss=1"
            .parse::<ScenarioSpec>()
            .unwrap_err();
        assert_eq!(err.fragment, "loss=1");
        let err = "proto=lpbcast;gen=catastrophe;n=50;fraction=1"
            .parse::<ScenarioSpec>()
            .unwrap_err();
        assert_eq!(err.fragment, "fraction=1");
        assert!("fraction=1;gen=catastrophe"
            .parse::<ScenarioSpec>()
            .is_err());
        assert!("gen=detection;fraction=1".parse::<ScenarioSpec>().is_err());
        // fraction=1 is a legal intensity for the other generators.
        assert!("gen=flash_crowd;fraction=1".parse::<ScenarioSpec>().is_ok());
        // Omitted keys default; empty fragments are tolerated; "swim"
        // aliases the wrapped lpbcast stack.
        let spec: ScenarioSpec = "proto=swim;;n=40;".parse().unwrap();
        assert_eq!(spec.protocol, ProtocolKind::SwimLpbcast);
        assert_eq!(spec.n, 40);
        assert_eq!(spec.rate, 20);
        assert!(spec.fault.is_none());
    }

    #[test]
    fn fault_fragments_embed_and_extract() {
        let spec = ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Catastrophe, 500)
            .with_fault(FaultSpec::slow_cohort(7));
        let s = spec.to_string();
        assert!(s.contains("fault.slow_nodes=0.1"), "{s}");
        let parsed: ScenarioSpec = s.parse().unwrap();
        assert_eq!(parsed.fault, Some(FaultSpec::slow_cohort(7)));
    }

    #[test]
    fn default_specs_compile_to_the_reference_run() {
        // ~1% of the membership joins and leaves per round for 30
        // rounds, 20 events/round from 16 publishers at ε = 5%.
        let plan =
            ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Churn, 200).compile();
        assert_eq!(plan.spec.loss_rate, 0.05);
        assert_eq!((plan.spec.rate, plan.spec.publishers), (20, 16));
        assert_eq!(plan.leaves_per_round, 2);
        assert!(
            plan.timeline.contains(&Action::Churn {
                rounds: 30,
                joins: 2,
                leaves: 2,
                lame_duck: 3,
                load: Some(b"churn"),
            }),
            "{plan:?}"
        );
    }

    #[test]
    fn repeated_partitions_heals_every_cycle() {
        let spec = ScenarioSpec {
            n: 80,
            generator: ScenarioGenerator::RepeatedPartitions,
            cycles: 2,
            ..ScenarioSpec::default()
        };
        let report = run_scenario_spec(&spec, 5);
        let heals: Vec<Metric> = report
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("heal_rounds_"))
            .map(|&(_, value)| value)
            .collect();
        assert_eq!(heals.len(), 2);
        assert!(
            heals.iter().all(|h| h.rounds().is_some()),
            "every cycle heals within budget: {report:?}"
        );
        assert_eq!(
            report.recovery_rounds,
            heals.iter().filter_map(Metric::rounds).max(),
            "the headline is the worst cycle: {report:?}"
        );
        assert!(report.reliability_mean > 0.8, "{report:?}");
        // Determinism across twin runs.
        assert_eq!(report, run_scenario_spec(&spec, 5));
    }

    #[test]
    fn flash_crowd_absorbs_the_surge() {
        let spec = ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::FlashCrowd, 80);
        let report = run_scenario_spec(&spec, 7);
        assert_eq!(report["joiners"], Metric::Count(40));
        assert!(
            report["joins_completed"].value() * 10.0 >= report["joiners"].value() * 9.0,
            "≥90% of the surge admitted: {report:?}"
        );
        assert!(report["rounds_to_absorb"].rounds().is_some(), "{report:?}");
        assert_eq!(
            report["partitioned_at_end"],
            Metric::Flag(false),
            "{report:?}"
        );
    }

    #[test]
    fn byzantine_droppers_lie_and_honest_runs_dont() {
        let spec = ScenarioSpec {
            generator: ScenarioGenerator::ByzantineDroppers,
            n: 80,
            fraction: 0.3,
            ..ScenarioSpec::default()
        };
        let report = run_scenario_spec(&spec, 9);
        assert!(report["liars"].value() > 0.0, "cohort selected: {report:?}");
        assert!(report.events_measured > 0);
        // The same run with fraction→0 liars must still disseminate
        // under strict delivery, and at least as well as with liars.
        let honest_spec = ScenarioSpec {
            fraction: 0.001, // effectively empty cohort, same code path
            ..spec
        };
        let honest = run_scenario_spec(&honest_spec, 9);
        assert_eq!(honest["liars"], Metric::Count(0), "{honest:?}");
        assert!(
            honest.reliability_mean >= report.reliability_mean,
            "withholding cannot improve reliability: honest {} vs byz {}",
            honest.reliability_mean,
            report.reliability_mean
        );
    }

    #[test]
    fn byzantine_runs_on_pbcast_too() {
        let spec = ScenarioSpec {
            protocol: ProtocolKind::Pbcast,
            generator: ScenarioGenerator::ByzantineDroppers,
            n: 60,
            fraction: 0.2,
            ..ScenarioSpec::default()
        };
        let report = run_scenario_spec(&spec, 11);
        assert_eq!(report.protocol, "pbcast");
        assert!(report["liars"].value() > 0.0, "{report:?}");
        assert!(
            report.reliability_mean > 0.3,
            "honest majority still disseminates through pulls: {report:?}"
        );
    }

    #[test]
    fn sweep_specs_matches_serial() {
        let cells: Vec<(ScenarioSpec, u64)> = vec![
            (
                ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Churn, 50),
                1,
            ),
            (
                ScenarioSpec::new(ProtocolKind::Pbcast, ScenarioGenerator::Catastrophe, 50),
                2,
            ),
            (
                ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::FlashCrowd, 50),
                3,
            ),
        ];
        assert_eq!(sweep_specs(&cells), sweep_specs_serial(&cells));
    }
}
