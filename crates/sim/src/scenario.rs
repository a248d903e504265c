//! Dynamic-membership scenarios: a scenario is a **timeline of actions
//! plus one report**, generic over any [`ScenarioProtocol`], so every
//! generator runs against lpbcast, the pbcast baseline and their
//! SWIM-wrapped stacks and reports comparable rows.
//!
//! The paper's core claim (§4–§5) is robustness under process failures
//! and dynamic membership, but the figure harnesses in [`experiment`]
//! only exercise static topologies with the §4.1 per-round crash plan.
//! The modern reference points (Dynamic Probabilistic Reliable Broadcast,
//! Scalable BRB — see PAPERS.md) make churn the headline scenario; this
//! module does the same at n = 10⁴.
//!
//! Every scenario exercises the same handful of paper primitives, so a
//! generator is *data*: one small function in [`spec`] compiles a
//! [`ScenarioSpec`] into a plan — how the membership boots (uniformly
//! random views, or two halves that form a §4.4 partition by
//! construction), the seed-derived RNG stream of the harness, the
//! configuration adjustments the protocol needs, and a timeline of
//! actions:
//!
//! * `Quiet` / `Run` — gossip rounds, idle or under the §5 measurement
//!   load (`rate` events per round from a fixed publisher pool);
//! * `Churn` — rounds in which newcomers join through the §3.4 handshake
//!   and members leave through the protocol's departure path, departing
//!   for real after a lame-duck period;
//! * `JoinSurge`, `Crash` — a joiner cohort arrives, or a fraction of
//!   all processes crashes, in a single round;
//! * `Heal` — bridge introductions ([`ScenarioProtocol::bridge`])
//!   re-injected until the [`lpbcast_membership::ViewGraph`] is whole;
//! * `Probe` / `Await` — p0 publishes a probe; rounds run until it
//!   reached 99% of the membership (or a joiner cohort was 99%
//!   admitted), up to a cap;
//! * `OpenWindow` / `CloseWindow` / `ReadWindow` — delimit the rounds
//!   whose events are measured, then read their delivery reliability;
//! * `Measure` — read one named metric *now* (membership and join
//!   counts, window and probe readings, view-graph shape, the
//!   failure-detector census).
//!
//! One driver interprets the timeline: it owns the only engine
//! construction site and the only calls that advance or mutate the
//! engine in scenario code, and every round it runs follows one fixed
//! draw order (joins → leaves → load → step → retire due leavers), so a
//! run is a pure function of `(spec, seed)` — [`spec::sweep_specs`] fans
//! cells out with rayon, bit-identical to the serial reference. It
//! returns one [`ScenarioReport`] — protocol, generator, size, rounds,
//! wire cost, headline reliability and recovery, plus the generator's
//! named metrics in report order. One renderer turns a `(spec, seed)`
//! cell and its report into text: [`cells_tsv`] writes `spec seed metric
//! value` rows, [`cell_json`] a JSON object over the same fields, and
//! `bench_sim`, `mass_scenarios`, the examples and the golden test all
//! call it. `tests/scenario_golden.rs` pins every metric of every
//! generator × protocol stack, with and without a fault overlay, to a
//! committed fixture, so the fixture pins the format too.
//!
//! # Adding a ninth generator
//!
//! One [`ScenarioGenerator`] variant (with its label and `ALL` slot) and
//! one compile function wired into `ScenarioSpec::compile` — no
//! parameter struct, no report type, no driver, no renderer change —
//! and the cell is spec-string addressable, sweepable by
//! `mass_scenarios` and one more row block in the golden fixture. The
//! SWIM detector A/B ([`crate::detector`]) is the worked example of a
//! generator that *did* need something new: its `detection` and
//! `noise_window` cells are two timelines out of the actions above, and
//! the one thing the vocabulary lacked was a `Reading` family — the
//! detector census (`evictions` / `false_evictions` / `suspicions` /
//! `refutations`), read through
//! [`ScenarioProtocol::detector_census`]. Churn *during* a broadcast,
//! say, needs nothing new at all:
//!
//! ```text
//! fn churn_during_broadcast(spec: &ScenarioSpec) -> ScenarioPlan {
//!     let per_round = spec.cohort(0.01);
//!     ScenarioPlan {
//!         leaves_per_round: per_round,
//!         ..spec.plan(b"churnbrd", vec![
//!             Action::Quiet(5),
//!             Action::Probe(b"mid-churn"),
//!             Action::OpenWindow,
//!             Action::Churn { rounds: 20, joins: per_round, leaves: per_round, lame_duck: 3, load: Some(b"load") },
//!             Action::CloseWindow,
//!             Action::Quiet(10),
//!             Action::RetireLeavers,
//!             Action::Measure("probe_coverage", Reading::ProbeCoverage),
//!             Action::ReadWindow,
//!         ])
//!     }
//! }
//! ```
//!
//! [`experiment`]: crate::experiment
//! [`ScenarioSpec`]: spec::ScenarioSpec
//! [`ScenarioGenerator`]: spec::ScenarioGenerator

use std::fmt;

use lpbcast_core::{Config, Lpbcast, Message};
use lpbcast_membership::{Swim, SwimConfig, SwimMsg};
use lpbcast_net::WireMessage;
use lpbcast_pbcast::{GossipDigest, Membership, Pbcast, PbcastConfig, PbcastMessage};
use lpbcast_types::{ProcessId, Protocol};

use crate::scale::{scaled_buffer_bound, scaled_params, scaled_view_size};

mod plan;
pub mod spec;

pub use plan::{cell_json, cells_tsv, Metric, ScenarioReport};

// ─────────────────────── the scenario protocol ────────────────────────

/// A graceful-departure request was refused (lpbcast's §3.4 protection of
/// the local `unSubs` buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaveRefused;

/// The protocol-specific hooks the generic scenario driver needs on top
/// of the sans-IO [`Protocol`] lifecycle: how to build members, how
/// newcomers enter, how members leave, and what message bridges two
/// membership islands.
///
/// Implemented for [`Lpbcast`], [`Pbcast`] and — generically — for
/// [`Swim`] and [`Byz`](spec::Byz) around either; every scenario, bench
/// row and smoke test instantly covers any further implementation.
/// Messages must be [`WireMessage`]s so every run meters its transport
/// bytes (`wire_bytes` in the reports).
pub trait ScenarioProtocol: Protocol<Msg: WireMessage + 'static> + Sized {
    /// Scenario-level protocol configuration bundle.
    type Cfg: Clone + fmt::Debug;

    /// The §5-scaled configuration at system size `n` (view/buffer
    /// bounds growing with n as in [`crate::scale`]).
    fn scaled_cfg(n: usize) -> Self::Cfg;

    /// Adapts the configuration to a sustained leave rate (lpbcast sizes
    /// its unsubscription plumbing; protocols without unsubscription
    /// records ignore this).
    fn size_for_leave_rate(cfg: &mut Self::Cfg, leaves_per_round: usize);

    /// The view size `l` the configuration uses (drives topology
    /// sampling).
    fn view_size(cfg: &Self::Cfg) -> usize;

    /// A bootstrap member whose view starts as `members`.
    fn bootstrap(id: ProcessId, cfg: &Self::Cfg, seed: u64, members: Vec<ProcessId>) -> Self;

    /// A newcomer entering the system through `contacts`.
    fn joiner(id: ProcessId, cfg: &Self::Cfg, seed: u64, contacts: Vec<ProcessId>) -> Self;

    /// Requests graceful departure.
    ///
    /// # Errors
    ///
    /// [`LeaveRefused`] when the protocol refuses the request (lpbcast's
    /// full-`unSubs` protection); the harness counts refusals.
    fn request_leave(&mut self) -> Result<(), LeaveRefused>;

    /// Whether the join handshake is still pending (the §3.4 "received no
    /// gossip yet" state; pbcast joiners complete on their first digest).
    fn join_pending(&self) -> bool;

    /// Whether the node is winding down after a leave request (lpbcast's
    /// lame-duck phase).
    fn leave_pending(&self) -> bool;

    /// An out-of-band message introducing `from` into the receiver's
    /// view — the §3.4 `Subscribe` for lpbcast, an empty subs-carrying
    /// digest for pbcast. Used by the partition-heal bridges.
    fn bridge(from: ProcessId) -> Self::Msg;

    /// Rewrites one outgoing message on behalf of a Byzantine
    /// *advertise-but-withhold* sender (the [`spec`] module's
    /// `ByzantineDroppers` generator): strip event payloads while
    /// keeping every advertisement (digest ids, subs) so honest peers
    /// waste pulls on the liar, or return `false` to suppress the
    /// message entirely. The default keeps everything intact — a
    /// protocol that does not override this cannot lie, and the
    /// Byzantine generator degenerates to an honest run for it.
    fn withhold(msg: &mut Self::Msg) -> bool {
        let _ = msg;
        true
    }

    /// Turns off the §5.2 *id-counts-as-received* measurement
    /// convention and enables the protocol's pull/retransmission path,
    /// so a withheld payload actually costs reliability instead of
    /// being credited on its advertisement. The Byzantine-dropper
    /// generator applies this to the scaled configuration.
    fn strict_delivery(cfg: &mut Self::Cfg) {
        let _ = cfg;
    }

    /// What this node's failure detector has done so far: the processes
    /// it evicted (in order, with multiplicity) and how many suspicions
    /// it raised and saw refuted. A stack without a detector reports
    /// nothing — the baseline arm of the [`crate::detector`] A/B reads
    /// four zeros.
    fn detector_census(&self) -> (&[ProcessId], u64, u64) {
        (&[], 0, 0)
    }
}

impl ScenarioProtocol for Lpbcast {
    type Cfg = Config;

    fn scaled_cfg(n: usize) -> Config {
        scaled_params(n).config
    }

    /// Unsubscription plumbing sized to the leave rate: the number of
    /// *live* (non-obsolete) unsubscription records in the system is
    /// ≈ `leaves_per_round × unsub_obsolescence`, so with the paper's
    /// fixed 15-entry buffer and 50-tick window a sustained 1%-per-round
    /// leave rate pegs `|unSubs|` above the §3.4 refusal threshold
    /// permanently and the leave path stops being exercised at all.
    /// Scaled here: a short obsolescence window (records only matter
    /// while the leaver's stale view entries linger), a buffer of
    /// 12× the leave cohort and a threshold at 9× — the refusal
    /// mechanism still triggers under bursts and is reported as the
    /// churn metric `leaves_refused`. The growing unsubscription
    /// sections this implies in every gossip are the §3.4 design's
    /// documented scalability cost.
    fn size_for_leave_rate(cfg: &mut Config, leaves_per_round: usize) {
        cfg.unsub_obsolescence = 9;
        cfg.unsubs_max = (leaves_per_round * 12).max(15);
        cfg.unsub_refusal_threshold = (leaves_per_round * 9).max(12);
    }

    fn view_size(cfg: &Config) -> usize {
        cfg.view_size
    }

    fn bootstrap(id: ProcessId, cfg: &Config, seed: u64, members: Vec<ProcessId>) -> Self {
        Lpbcast::with_initial_view(id, cfg.clone(), seed, members)
    }

    fn joiner(id: ProcessId, cfg: &Config, seed: u64, contacts: Vec<ProcessId>) -> Self {
        Lpbcast::joining(id, cfg.clone(), seed, contacts)
    }

    fn request_leave(&mut self) -> Result<(), LeaveRefused> {
        self.unsubscribe().map_err(|_| LeaveRefused)
    }

    fn join_pending(&self) -> bool {
        self.is_joining()
    }

    fn leave_pending(&self) -> bool {
        self.is_leaving()
    }

    fn bridge(from: ProcessId) -> Message {
        Message::Subscribe { subscriber: from }
    }

    /// The lpbcast lie: gossip keeps its `eventIds` digest, `subs` and
    /// `unSubs` (the liar stays a well-behaved member on paper) but the
    /// notification bodies vanish, and retransmission requests are
    /// answered with silence.
    fn withhold(msg: &mut Message) -> bool {
        match msg {
            Message::Gossip(gossip) => {
                std::sync::Arc::make_mut(gossip).events.clear();
                true
            }
            Message::RetransmitResponse { .. } => false,
            _ => true,
        }
    }

    /// Strict §3.3 delivery: ids learnt from digests are *not* counted
    /// as deliveries; missing bodies must be pulled from the gossip
    /// sender, so the archive and pull budgets must be live.
    fn strict_delivery(cfg: &mut Config) {
        cfg.deliver_on_digest = false;
        cfg.retransmit_request_max = cfg.retransmit_request_max.max(8);
        cfg.archive_capacity = cfg.archive_capacity.max(cfg.events_max * 2);
    }
}

/// Scenario configuration of the pbcast baseline: the protocol config
/// plus the partial-membership view size the engine builders sample.
#[derive(Debug, Clone)]
pub struct PbcastScenarioCfg {
    /// Protocol configuration.
    pub config: PbcastConfig,
    /// Partial-view size `l` (§6.2 membership layer).
    pub view_size: usize,
}

impl ScenarioProtocol for Pbcast {
    type Cfg = PbcastScenarioCfg;

    /// Figure-7-style pbcast (F = 5, anti-entropy only, §5.2
    /// deliver-on-digest convention) on the §6.2 partial-view membership
    /// layer, with buffers scaled like lpbcast's and the hop/repetition
    /// budgets loosened — the Fig-7 defaults (6 hops, 2 repetitions) are
    /// calibrated for n = 125 and strand the tail of a 10⁴-node system,
    /// especially when crashed processes linger in partial views and
    /// soak up fanout.
    fn scaled_cfg(n: usize) -> PbcastScenarioCfg {
        let bound = scaled_buffer_bound(n);
        let max_hops = ((2.0 * (n.max(2) as f64).ln()).ceil() as u32).max(6);
        let max_repetitions = ((n.max(2) as f64).ln().ceil() as u64).max(6);
        PbcastScenarioCfg {
            config: PbcastConfig::builder()
                .first_phase(false)
                .pull(false)
                .deliver_on_digest(true)
                .max_hops(max_hops)
                .max_repetitions(max_repetitions)
                .history_max(bound)
                .store_max(bound * 2)
                .build(),
            view_size: scaled_view_size(n).min(n.saturating_sub(1).max(1)),
        }
    }

    /// pbcast has no unsubscription records — nothing to size. The churn
    /// comparison measures exactly this gap: leavers' stale view entries
    /// linger until eviction churn replaces them.
    fn size_for_leave_rate(_cfg: &mut PbcastScenarioCfg, _leaves_per_round: usize) {}

    fn view_size(cfg: &PbcastScenarioCfg) -> usize {
        cfg.view_size
    }

    fn bootstrap(
        id: ProcessId,
        cfg: &PbcastScenarioCfg,
        seed: u64,
        members: Vec<ProcessId>,
    ) -> Self {
        let membership = Membership::partial(id, cfg.view_size, cfg.config.subs_max, members);
        Pbcast::new(id, cfg.config.clone(), seed, membership)
    }

    /// A pbcast newcomer knows only its contacts; its own subscription
    /// piggybacks on every digest it sends, so the membership spreads
    /// from there (§6.2).
    fn joiner(id: ProcessId, cfg: &PbcastScenarioCfg, seed: u64, contacts: Vec<ProcessId>) -> Self {
        Self::bootstrap(id, cfg, seed, contacts)
    }

    /// pbcast has no graceful-departure protocol: the request always
    /// succeeds and the node simply stops existing when the harness
    /// removes it. Peers discover nothing — their stale entries only
    /// decay by view eviction.
    fn request_leave(&mut self) -> Result<(), LeaveRefused> {
        Ok(())
    }

    /// Mirrors lpbcast's "admitted upon receiving the first gossip": a
    /// pbcast joiner is in once any digest reached it.
    fn join_pending(&self) -> bool {
        self.stats().digests_received == 0
    }

    fn leave_pending(&self) -> bool {
        false
    }

    fn bridge(from: ProcessId) -> PbcastMessage {
        PbcastMessage::digest(GossipDigest::new(from, &[], vec![from]))
    }

    /// The pbcast lie: digests (the advertisements) flow normally, but
    /// the `Multicast` frames that push or serve actual notifications
    /// are swallowed — solicitations against the liar go unanswered.
    fn withhold(msg: &mut PbcastMessage) -> bool {
        !matches!(msg, PbcastMessage::Multicast { .. })
    }

    /// Strict anti-entropy delivery: digest receipt no longer counts as
    /// delivery (the two are mutually exclusive in [`PbcastConfig`]),
    /// so bodies travel only through solicited `Multicast` serves.
    fn strict_delivery(cfg: &mut PbcastScenarioCfg) {
        cfg.config.deliver_on_digest = false;
        cfg.config.pull = true;
    }
}

/// Scenario configuration of a SWIM-wrapped stack: the inner protocol's
/// scenario configuration plus the detector's timing knobs.
#[derive(Debug, Clone)]
pub struct SwimScenarioCfg<C> {
    /// Inner protocol configuration.
    pub inner: C,
    /// Detector configuration.
    pub swim: SwimConfig,
}

/// Any stack behind the SWIM failure detector is a stack again, so the
/// whole scenario matrix runs against `Swim<Lpbcast>` and `Swim<Pbcast>`
/// unchanged — the latter asks whether explicit failure detection pays
/// off for the *flat-membership* protocol too.
impl<P: ScenarioProtocol> ScenarioProtocol for Swim<P> {
    type Cfg = SwimScenarioCfg<P::Cfg>;

    fn scaled_cfg(n: usize) -> Self::Cfg {
        SwimScenarioCfg {
            inner: P::scaled_cfg(n),
            swim: SwimConfig::scaled(n),
        }
    }

    fn size_for_leave_rate(cfg: &mut Self::Cfg, leaves_per_round: usize) {
        P::size_for_leave_rate(&mut cfg.inner, leaves_per_round);
    }

    fn view_size(cfg: &Self::Cfg) -> usize {
        P::view_size(&cfg.inner)
    }

    fn bootstrap(id: ProcessId, cfg: &Self::Cfg, seed: u64, members: Vec<ProcessId>) -> Self {
        let inner = P::bootstrap(id, &cfg.inner, seed, members);
        Swim::new(inner, cfg.swim.clone(), seed)
    }

    fn joiner(id: ProcessId, cfg: &Self::Cfg, seed: u64, contacts: Vec<ProcessId>) -> Self {
        let inner = P::joiner(id, &cfg.inner, seed, contacts);
        Swim::new(inner, cfg.swim.clone(), seed)
    }

    fn request_leave(&mut self) -> Result<(), LeaveRefused> {
        self.inner_mut().request_leave()
    }

    fn join_pending(&self) -> bool {
        self.inner().join_pending()
    }

    fn leave_pending(&self) -> bool {
        self.inner().leave_pending()
    }

    /// The inner bridge wrapped with an empty piggyback — the §3.4
    /// `Subscribe` travels through the detector layer like any other
    /// inner message.
    fn bridge(from: ProcessId) -> SwimMsg<P::Msg> {
        SwimMsg::Wrapped {
            inner: P::bridge(from),
            updates: Vec::new(),
        }
    }

    /// A Byzantine wrapper node lies through the detector layer too:
    /// the inner payload is withheld, but pings, acks and membership
    /// piggybacks flow — the liar stays impeccably *alive*.
    fn withhold(msg: &mut SwimMsg<P::Msg>) -> bool {
        match msg {
            SwimMsg::Wrapped { inner, .. } => P::withhold(inner),
            _ => true,
        }
    }

    fn strict_delivery(cfg: &mut Self::Cfg) {
        P::strict_delivery(&mut cfg.inner);
    }

    fn detector_census(&self) -> (&[ProcessId], u64, u64) {
        let stats = self.swim_stats();
        (self.evictions(), stats.suspicions, stats.refutations)
    }
}
