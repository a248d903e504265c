//! The three simulator workloads: single-threaded closed loops over
//! `lpbcast_sim::Engine`, run as *segments* (a fresh engine each:
//! warm-up, timed rounds, drain).
//!
//! Every parameter of a workload is written out here. Nothing is taken
//! from the product's `scaled_params` / `ScenarioSpec` helpers, so a later
//! change to one of those cannot silently change what is measured; builder
//! options not named here are left at the product's defaults on purpose.

use std::collections::VecDeque;
use std::time::Instant;

use lpbcast_core::{Config, HistoryMode, Lpbcast};
use lpbcast_membership::{Swim, SwimConfig};
use lpbcast_net::WireMessage;
use lpbcast_sim::{Engine, NetworkModel};
use lpbcast_types::{EventId, FastSet, Payload, ProcessId};

use crate::calib::{speed_factor, Calibrator};
use crate::hist::{median, Histogram};
use crate::input::{node_seed, sample_view, Rng};
use crate::metrics::LayerSheet;
use crate::report::Report;
use crate::sys;
use crate::trace::{
    self, set_timing, sum_spans, take_wire_spans, timed, traced_wire_meter, Classify, Harvest,
    Span, Stack, Traced, WireSpans, STEP_CLASSES,
};

/// Message loss ε of the paper's §5 measurement set-up.
const LOSS: f64 = 0.05;
const FANOUT: usize = 3;
/// Calibration slices per timed window, at least (about 3 ms each, spread
/// evenly between the rounds; see `calib`).
const SLICES_PER_SEGMENT: u64 = 64;
/// 16 bytes: the smallest payload that still looks like an application
/// notification; the simulator never reads it.
const PAYLOAD: &[u8; 16] = b"lpbench-16-bytes";

#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// This many events every round, round-robin over the publisher pool.
    PerRound(usize),
    /// One event from process 0 every this many rounds.
    EveryRounds(u64),
}

#[derive(Debug, Clone)]
pub struct Churn {
    pub joins_per_round: usize,
    pub leaves_per_round: usize,
    /// Rounds a leaver keeps gossiping its own unsubscription (§3.4)
    /// before it is removed.
    pub lame_duck: u64,
    /// Timed round at which a block of members crashes at once.
    pub crash_at: u64,
    pub crash_share: f64,
    /// Unsubscription plumbing sized for the leave rate (the product's
    /// churn scenario uses 9 / 12x / 9x the leave cohort).
    pub unsub_obsolescence: u64,
    pub unsubs_max: usize,
    pub unsub_refusal_threshold: usize,
    pub swim: SwimConfig,
}

/// The frozen parameters of one simulator workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub n: usize,
    /// View size `l`.
    pub view_size: usize,
    /// `|eventIds|m` = `|events|m`.
    pub bound: usize,
    pub load: Load,
    /// Processes `0..publishers` publish and never leave or crash.
    pub publishers: u64,
    pub warmup: u64,
    pub timed: u64,
    pub drain: u64,
    pub churn: Option<Churn>,
    /// What one segment costs on the reference box (2 cores, see README):
    /// a run of `--seconds s` executes `max(2, s / nominal)` segments, a
    /// number fixed by the arguments, so that a run does the same work on
    /// every commit and its deterministic metrics repeat exactly.
    pub nominal_segment_s: f64,
}

pub fn sim_loaded_1k(quick: bool) -> Shape {
    if quick {
        return Shape {
            n: 128,
            view_size: 15,
            bound: 60,
            load: Load::PerRound(8),
            publishers: 16,
            warmup: 10,
            timed: 60,
            drain: 15,
            churn: None,
            nominal_segment_s: 0.1,
        };
    }
    Shape {
        n: 1000,
        view_size: 22,
        bound: 170,
        load: Load::PerRound(40),
        publishers: 16,
        warmup: 30,
        timed: 250,
        drain: 20,
        churn: None,
        nominal_segment_s: 4.0,
    }
}

pub fn sim_membership_10k(quick: bool) -> Shape {
    if quick {
        return Shape {
            n: 128,
            view_size: 15,
            bound: 60,
            load: Load::EveryRounds(5),
            publishers: 1,
            warmup: 5,
            timed: 60,
            drain: 15,
            churn: None,
            nominal_segment_s: 0.1,
        };
    }
    Shape {
        n: 10_000,
        view_size: 29,
        bound: 537,
        load: Load::EveryRounds(5),
        publishers: 1,
        warmup: 10,
        timed: 60,
        drain: 20,
        churn: None,
        nominal_segment_s: 6.5,
    }
}

pub fn sim_churn_swim_2k(quick: bool) -> Shape {
    // `SwimConfig::scaled(2000)` as of the commit that added the
    // benchmark, written out; a field added later keeps its default.
    #[allow(clippy::needless_update)]
    let swim = SwimConfig {
        ping_period: 1,
        proxies: 3,
        ack_timeout: 1,
        indirect_timeout: 1,
        suspect_timeout: 4,
        hearsay_slack: 4,
        piggyback_max: 31,
        retransmit: 8,
        gossip_max: 500,
        dead_max: 4096,
        ..SwimConfig::default()
    };
    if quick {
        return Shape {
            n: 128,
            view_size: 15,
            bound: 60,
            load: Load::PerRound(4),
            publishers: 16,
            warmup: 5,
            timed: 40,
            drain: 15,
            churn: Some(Churn {
                joins_per_round: 1,
                leaves_per_round: 1,
                lame_duck: 3,
                crash_at: 10,
                crash_share: 0.1,
                unsub_obsolescence: 9,
                unsubs_max: 15,
                unsub_refusal_threshold: 12,
                swim: SwimConfig {
                    hearsay_slack: 2,
                    piggyback_max: 8,
                    retransmit: 6,
                    gossip_max: 64,
                    ..swim
                },
            }),
            nominal_segment_s: 0.1,
        };
    }
    Shape {
        n: 2000,
        view_size: 24,
        bound: 240,
        load: Load::PerRound(20),
        publishers: 16,
        warmup: 5,
        timed: 30,
        drain: 15,
        churn: Some(Churn {
            joins_per_round: 20,
            leaves_per_round: 20,
            lame_duck: 3,
            crash_at: 8,
            crash_share: 0.1,
            unsub_obsolescence: 9,
            unsubs_max: 240,
            unsub_refusal_threshold: 180,
            swim,
        }),
        nominal_segment_s: 5.0,
    }
}

fn lpbcast_config(shape: &Shape) -> Config {
    let mut builder = Config::builder()
        .view_size(shape.view_size)
        .fanout(FANOUT)
        .event_ids_max(shape.bound)
        .events_max(shape.bound)
        .history_mode(HistoryMode::Compact)
        .deliver_on_digest(true);
    if let Some(churn) = &shape.churn {
        builder = builder
            .unsub_obsolescence(churn.unsub_obsolescence)
            .unsubs_max(churn.unsubs_max)
            .unsub_refusal_threshold(churn.unsub_refusal_threshold);
    }
    builder.build()
}

/// A node type the simulator workloads can build.
pub trait SimNode: Stack + Send + Sized
where
    Self::Msg: WireMessage + Send + 'static,
{
    fn member(id: ProcessId, shape: &Shape, seed: u64, view: Vec<ProcessId>) -> Self;
    /// A newcomer entering through the §3.4 handshake.
    fn joiner(id: ProcessId, shape: &Shape, seed: u64, contacts: Vec<ProcessId>) -> Self;
}

pub type PlainNode = Traced<Lpbcast>;
pub type SwimNode = Traced<Swim<Traced<Lpbcast>>>;

impl SimNode for PlainNode {
    fn member(id: ProcessId, shape: &Shape, seed: u64, view: Vec<ProcessId>) -> Self {
        Traced::new(Lpbcast::with_initial_view(
            id,
            lpbcast_config(shape),
            seed,
            view,
        ))
    }

    fn joiner(id: ProcessId, shape: &Shape, seed: u64, contacts: Vec<ProcessId>) -> Self {
        Traced::new(Lpbcast::joining(id, lpbcast_config(shape), seed, contacts))
    }
}

fn swim_config(shape: &Shape) -> SwimConfig {
    shape
        .churn
        .as_ref()
        .map_or_else(SwimConfig::default, |c| c.swim.clone())
}

impl SimNode for SwimNode {
    fn member(id: ProcessId, shape: &Shape, seed: u64, view: Vec<ProcessId>) -> Self {
        Traced::new(Swim::new(
            PlainNode::member(id, shape, seed, view),
            swim_config(shape),
            seed,
        ))
    }

    fn joiner(id: ProcessId, shape: &Shape, seed: u64, contacts: Vec<ProcessId>) -> Self {
        Traced::new(Swim::new(
            PlainNode::joiner(id, shape, seed, contacts),
            swim_config(shape),
            seed,
        ))
    }
}

/// Spans the driver takes at its own call sites into the engine.
#[derive(Debug, Clone, Copy, Default)]
struct EngineSpans {
    step: Span,
    publish: Span,
    add_node: Span,
    remove_node: Span,
    crash: Span,
}

/// Everything one segment measured.
#[derive(Debug, Clone)]
pub struct Segment {
    // Pure functions of (shape, seed): compared between replays.
    latency: Histogram,
    expected_pairs: u64,
    delivered_pairs: u64,
    events: u64,
    /// Timed events that reached under half of their subscribers.
    events_died: u64,
    /// Unique (event, process) deliveries of the timed events.
    unique_deliveries: u64,
    wire_bytes_timed: u64,
    node_rounds: u64,
    /// Deliveries the nodes reported minus unique deliveries the tracker
    /// holds, over every event of the segment: not zero means a duplicate
    /// or a never-published id reached an application.
    excess_deliveries: i64,
    joins: u64,
    leaves: u64,
    leaves_refused: u64,
    crashed: u64,
    false_confirms: u64,
    wire_messages: u64,
    wire_bytes: u64,
    network_delivered: u64,
    network_dropped: u64,
    harvest: Harvest,
    // Timings.
    setup_s: f64,
    build_ns: u64,
    timed_wall_s: f64,
    timed_cpu_s: f64,
    /// How much slower than the reference the box ran during the timed
    /// window (see `calib`).
    speed_factor: f64,
    engine_spans: EngineSpans,
    wire_spans: WireSpans,
}

impl Segment {
    /// The deterministic part, for the replay check.
    fn fingerprint(&self) -> String {
        format!(
            "{:?} {} {} {} {} {} {} {} {} {} {} {} {} {:?} {:?}",
            self.latency,
            self.expected_pairs,
            self.delivered_pairs,
            self.events,
            self.events_died,
            self.unique_deliveries,
            self.wire_bytes_timed,
            self.node_rounds,
            self.excess_deliveries,
            self.wire_messages,
            self.wire_bytes,
            self.network_delivered,
            self.network_dropped,
            self.harvest.core,
            self.harvest.swim,
        )
    }
}

/// Runs one segment of `shape` from `seed`, with span timing on or off.
pub fn run_segment<N>(
    shape: &Shape,
    seed: u64,
    traced: bool,
    calibrator: &mut Calibrator,
) -> Segment
where
    N: SimNode,
    N::Msg: WireMessage + Classify + Send + 'static,
{
    let segment_start = Instant::now();
    let n = shape.n as u64;
    let mut rng = Rng::new(seed ^ 0x6C70_6265_6E63_6821); // "lpbench!"
    let nodes: Vec<N> = (0..n)
        .map(|i| {
            let view = sample_view(&mut rng, i, n, shape.view_size);
            N::member(ProcessId::new(i), shape, node_seed(seed, i), view)
        })
        .collect();
    let builder = Engine::builder(NetworkModel::new(LOSS, seed)).nodes(nodes);
    let mut engine = if traced {
        builder.wire_meter(traced_wire_meter::<N::Msg>()).build()
    } else {
        builder
            .wire_meter(lpbcast_net::wire_meter::<N::Msg>())
            .build()
    };
    let build_ns = segment_start.elapsed().as_nanos() as u64;

    // `(added_round, gone_round)` by process id; ids are dense.
    let mut roster: Vec<(u64, u64)> = vec![(0, u64::MAX); shape.n];
    let mut spans = EngineSpans::default();
    let mut departed = Harvest::default();
    let mut departures: VecDeque<(u64, ProcessId)> = VecDeque::new();
    let mut departing: FastSet<ProcessId> = FastSet::default();
    // (id, origin, publish round, published in the timed window)
    let mut events: Vec<(EventId, ProcessId, u64, bool)> = Vec::new();
    let mut published = 0u64;
    let (mut joins, mut leaves, mut leaves_refused, mut crashed) = (0u64, 0u64, 0u64, 0u64);
    let mut node_rounds = 0u64;
    let mut alive: Vec<ProcessId> = Vec::new();

    let (mut setup_s, mut wire_start) = (0.0, 0u64);
    let (mut timed_start, mut cpu_start) = (segment_start, 0.0);
    let (mut timed_wall_s, mut timed_cpu_s, mut wire_bytes_timed) = (0.0, 0.0, 0u64);
    // Calibration slices taken inside the timed window: (seconds, CPU
    // seconds, count), kept out of the timed wall and CPU time.
    let (mut slices_s, mut slices_cpu_s, mut slices) = (0.0, 0.0, 0usize);
    let slice_every = (shape.timed / SLICES_PER_SEGMENT).max(1);
    let slices_each = SLICES_PER_SEGMENT.div_ceil(shape.timed).max(1);
    let _ = take_wire_spans();

    let timed_from = shape.warmup;
    let drain_from = shape.warmup + shape.timed;
    for round in 0..drain_from + shape.drain {
        if round == timed_from {
            setup_s = segment_start.elapsed().as_secs_f64();
            wire_start = engine.wire_accounting().map_or(0, |w| w.bytes);
            cpu_start = sys::process_cpu_seconds();
            timed_start = Instant::now();
            set_timing(traced);
        }
        let in_timed = (timed_from..drain_from).contains(&round);
        let loaded = round < drain_from;

        if let (Some(churn), true) = (&shape.churn, loaded) {
            alive.clear();
            alive.extend_from_slice(engine.alive_ids());
            // Joins: each newcomer gets three distinct alive contacts, so
            // that one contact leaving cannot strand it.
            for _ in 0..churn.joins_per_round {
                let mut contacts: Vec<ProcessId> = Vec::with_capacity(3);
                while contacts.len() < 3.min(alive.len()) {
                    let c = alive[rng.below(alive.len() as u64) as usize];
                    if !contacts.contains(&c) {
                        contacts.push(c);
                    }
                }
                let id = roster.len() as u64;
                roster.push((engine.round(), u64::MAX));
                let node = N::joiner(ProcessId::new(id), shape, node_seed(seed, id), contacts);
                timed(&mut spans.add_node, || engine.add_node(node));
                joins += 1;
            }
            // Leaves: a random settled member that is not a publisher
            // unsubscribes, gossips its record for `lame_duck` rounds and
            // is then removed.
            for _ in 0..churn.leaves_per_round {
                for _attempt in 0..8 {
                    let candidate = alive[rng.below(alive.len() as u64) as usize];
                    if candidate.as_u64() < shape.publishers || departing.contains(&candidate) {
                        continue;
                    }
                    let Some(node) = engine.node_mut(candidate) else {
                        continue;
                    };
                    let core = node.lpbcast_mut();
                    if core.is_joining() || core.is_leaving() {
                        continue;
                    }
                    if core.unsubscribe().is_ok() {
                        leaves += 1;
                        departing.insert(candidate);
                        departures.push_back((engine.round() + churn.lame_duck, candidate));
                    } else {
                        leaves_refused += 1;
                    }
                    break;
                }
            }
            // The correlated crash: one contiguous block of the id-sorted
            // membership (a rack, a subnet) stops at once.
            if round == timed_from + churn.crash_at {
                let victims = (alive.len() as f64 * churn.crash_share) as usize;
                let first = rng.below(alive.len() as u64) as usize;
                let block: Vec<ProcessId> = (0..alive.len())
                    .map(|i| alive[(first + i) % alive.len()])
                    .filter(|p| p.as_u64() >= shape.publishers)
                    .take(victims)
                    .collect();
                for victim in block {
                    roster[victim.as_index()].1 = engine.round();
                    timed(&mut spans.crash, || engine.crash(victim));
                    crashed += 1;
                }
            }
        }

        if loaded {
            let due = match shape.load {
                Load::PerRound(k) => k,
                Load::EveryRounds(every) => usize::from(round.is_multiple_of(every)),
            };
            for _ in 0..due {
                let origin = ProcessId::new(published % shape.publishers);
                published += 1;
                let id = timed(&mut spans.publish, || {
                    engine.publish_from(origin, Payload::from_static(PAYLOAD))
                });
                events.push((id, origin, engine.round(), in_timed));
            }
        }

        if in_timed {
            node_rounds += engine.alive_count() as u64;
            if (round - timed_from).is_multiple_of(slice_every) {
                let cpu = sys::process_cpu_seconds();
                for _ in 0..slices_each {
                    slices_s += calibrator.slice();
                    slices += 1;
                }
                slices_cpu_s += sys::process_cpu_seconds() - cpu;
            }
        }
        timed(&mut spans.step, || engine.step());

        while departures
            .front()
            .is_some_and(|&(due, _)| due <= engine.round())
        {
            let (_, id) = departures.pop_front().expect("front checked");
            roster[id.as_index()].1 = roster[id.as_index()].1.min(engine.round());
            if let Some(node) = timed(&mut spans.remove_node, || engine.remove_node(id)) {
                node.harvest(0, &mut departed);
            }
        }

        if round + 1 == drain_from {
            set_timing(false);
            timed_wall_s = timed_start.elapsed().as_secs_f64() - slices_s;
            timed_cpu_s = sys::process_cpu_seconds() - cpu_start - slices_cpu_s;
            wire_bytes_timed = engine.wire_accounting().map_or(0, |w| w.bytes) - wire_start;
        }
    }
    // A leaver whose lame duck outlasts the drain is a leaver all the same.
    for (_, id) in departures {
        roster[id.as_index()].1 = roster[id.as_index()].1.min(engine.round());
    }

    // ── the oracle: who should have got what, and who did ────────────
    let tracker = engine.tracker();
    let mut latency = Histogram::new(1.0);
    let (mut expected_pairs, mut delivered_pairs, mut events_died) = (0u64, 0u64, 0u64);
    let (mut unique_deliveries, mut tracked_all) = (0u64, 0u64);
    let stayers: Vec<(ProcessId, u64)> = roster
        .iter()
        .enumerate()
        .filter(|(_, &(_, gone))| gone == u64::MAX)
        .map(|(id, &(added, _))| (ProcessId::new(id as u64), added))
        .collect();
    for &(id, origin, publish_round, in_timed) in &events {
        let reached = tracker.infected_count(id).saturating_sub(1) as u64;
        tracked_all += reached;
        if !in_timed {
            continue;
        }
        unique_deliveries += reached;
        // A delivery `d` rounds after publication happened somewhere in
        // the round interval (d-1, d]; it is recorded at the midpoint.
        let (expected, delivered) = if shape.churn.is_none() {
            for (d, &count) in tracker.latency_histogram(id).iter().enumerate().skip(1) {
                latency.record_n(d as f64 - 0.5, count as u64);
            }
            (n - 1, reached)
        } else {
            // Subscribers are the processes that were in the system when
            // the event was published and still are at the end of the
            // drain; who left or crashed in between is excused.
            let (mut expected, mut delivered) = (0u64, 0u64);
            for &(process, added) in &stayers {
                if process == origin || added > publish_round {
                    continue;
                }
                expected += 1;
                if let Some(d) = tracker.delivery_latency(id, process) {
                    delivered += 1;
                    latency.record(d.max(1) as f64 - 0.5);
                }
            }
            (expected, delivered)
        };
        expected_pairs += expected;
        delivered_pairs += delivered;
        events_died += u64::from(delivered * 2 < expected);
    }

    let mut harvest = departed;
    for (_, node) in engine.nodes() {
        node.harvest(0, &mut harvest);
    }
    // A confirm is false when its subject is still in the system at the
    // end of the run: it neither crashed nor left.
    let false_confirms = harvest
        .evicted
        .iter()
        .filter(|p| {
            roster
                .get(p.as_index())
                .is_some_and(|&(_, gone)| gone == u64::MAX)
        })
        .count() as u64;
    let wire = engine.wire_accounting().unwrap_or_default();

    Segment {
        latency,
        expected_pairs,
        delivered_pairs,
        events: events.iter().filter(|e| e.3).count() as u64,
        events_died,
        unique_deliveries,
        wire_bytes_timed,
        node_rounds,
        excess_deliveries: harvest.delivered as i64 - tracked_all as i64,
        joins,
        leaves,
        leaves_refused,
        crashed,
        false_confirms,
        wire_messages: wire.messages,
        wire_bytes: wire.bytes,
        network_delivered: engine.network().delivered_count(),
        network_dropped: engine.network().dropped_count(),
        harvest,
        setup_s,
        build_ns,
        timed_wall_s,
        timed_cpu_s,
        speed_factor: speed_factor(slices_s / slices as f64),
        engine_spans: spans,
        wire_spans: take_wire_spans(),
    }
}

/// Seeds of the segments of a run: the first two share a seed, so the
/// second is both a timing sample and the replay that must reproduce the
/// first one's deterministic metrics exactly.
fn segment_seeds(seed: u64, segments: usize) -> Vec<u64> {
    (0..segments as u64)
        .map(|i| seed.wrapping_add(i.saturating_sub(1)))
        .collect()
}

/// A whole run of one simulator workload: the end-to-end metrics with
/// tracing off, or (`traced`) the per-layer sheet of one traced segment.
pub fn run<N>(shape: &Shape, seed: u64, seconds: u64, traced: bool) -> Report
where
    N: SimNode,
    N::Msg: WireMessage + Classify + Send + 'static,
{
    let mut report = Report::default();
    // Traced: plain, traced, plain again, all of one seed, so that the
    // traced segment is compared with the same work on either side of it.
    let seeds = if traced {
        vec![seed; 3]
    } else {
        segment_seeds(
            seed,
            ((seconds as f64 / shape.nominal_segment_s) as usize).max(2),
        )
    };
    let mut calibrator = Calibrator::new();
    let segments: Vec<Segment> = seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| run_segment::<N>(shape, s, traced && i == 1, &mut calibrator))
        .collect();

    if segments[0].fingerprint() != segments[1].fingerprint() {
        report.fail("two replays of segment 0 disagree on a deterministic metric");
    }
    // Deterministic metrics pool the segments of distinct seeds.
    let distinct: Vec<&Segment> = segments
        .iter()
        .zip(&seeds)
        .enumerate()
        .filter(|(i, (_, s))| *i == 0 || **s != seed)
        .map(|(_, (segment, _))| segment)
        .collect();
    let mut latency = Histogram::new(1.0);
    for s in &distinct {
        latency.merge(&s.latency);
    }
    let sum = |f: fn(&Segment) -> u64| -> u64 { distinct.iter().map(|s| f(s)).sum() };
    let (expected, delivered) = (sum(|s| s.expected_pairs), sum(|s| s.delivered_pairs));
    let excess: i64 = segments.iter().map(|s| s.excess_deliveries).sum();
    if excess != 0 {
        report.fail(&format!(
            "{excess} deliveries beyond one per (event, process): a duplicate or a never-published id reached an application"
        ));
    }
    report.attempted = sum(|s| s.events);
    report.failed = sum(|s| s.events_died);
    let failed_share = 1.0 - delivered as f64 / expected.max(1) as f64;
    report.detail_list(
        "segment_timed_wall_s",
        segments.iter().map(|s| s.timed_wall_s),
    );
    report.detail_list(
        "segment_speed_factor",
        segments.iter().map(|s| s.speed_factor),
    );
    report.detail("latency_samples", latency.count() as f64);
    report.detail("expected_pairs", expected as f64);
    report.detail("delivery_failed_share", failed_share);
    report.detail("excess_deliveries", excess as f64);

    if !traced {
        // Times are in reference seconds: measured seconds over the
        // segment's speed factor (see `calib`).
        let per_segment =
            |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
        report.e2e("setup_s", per_segment(&|s| s.setup_s / s.speed_factor));
        report.e2e(
            "deliveries_per_s",
            per_segment(&|s| s.unique_deliveries as f64 * s.speed_factor / s.timed_wall_s),
        );
        report.e2e(
            "node_rounds_per_s",
            per_segment(&|s| s.node_rounds as f64 * s.speed_factor / s.timed_wall_s),
        );
        report.e2e("delivery_latency_rounds_p50", latency.quantile(0.5));
        report.e2e("delivery_latency_rounds_p99", latency.quantile(0.99));
        report.e2e("delivered_share", 1.0 - failed_share);
        report.e2e(
            "cpu_us_per_delivery",
            per_segment(&|s| {
                s.timed_cpu_s * 1e6 / s.speed_factor / s.unique_deliveries.max(1) as f64
            }),
        );
        report.e2e(
            "wire_bytes_per_delivery",
            sum(|s| s.wire_bytes_timed) as f64 / sum(|s| s.unique_deliveries).max(1) as f64,
        );
        report.e2e("peak_rss_mb", sys::peak_rss_mb());
        return report;
    }

    let t = &segments[1];
    let reference_wall = |s: &Segment| s.timed_wall_s / s.speed_factor;
    let plain_wall_s = (reference_wall(&segments[0]) + reference_wall(&segments[2])) / 2.0;
    let mut sheet = LayerSheet::new();
    core_layers(&mut sheet, &t.harvest);
    let outer = t.harvest.outer_spans();
    if t.harvest.levels.len() > 1 {
        // Detector self time: what the outer wrapper saw minus what the
        // inner one did (the inner `evict` is called from inside it).
        let inner_busy: u64 = t.harvest.core_spans().iter().map(|s| s.busy_ns()).sum();
        let outer_busy: u64 = outer.iter().map(|s| s.busy_ns()).sum();
        sheet.set(
            "membership.swim.self_ns",
            outer_busy.saturating_sub(inner_busy) as f64,
        );
        sheet.span("membership.swim.handle", &outer[trace::HANDLE_DETECTOR]);
        sheet.span(
            "membership.swim.evict",
            &t.harvest.core_spans()[trace::EVICT],
        );
    }
    sheet.set(
        "membership.swim.pings_sent",
        t.harvest.swim.pings_sent as f64,
    );
    sheet.set(
        "membership.swim.suspicions",
        t.harvest.swim.suspicions as f64,
    );
    sheet.set("membership.swim.confirms", t.harvest.swim.confirms as f64);
    sheet.set(
        "membership.swim.refutations",
        t.harvest.swim.refutations as f64,
    );
    sheet.set("membership.swim.false_confirms", t.false_confirms as f64);

    let spans = &t.engine_spans;
    sheet.span("sim.engine.step", &spans.step);
    sheet.span("sim.engine.publish", &spans.publish);
    sheet.span("sim.engine.add_node", &spans.add_node);
    sheet.span("sim.engine.remove_node", &spans.remove_node);
    sheet.span("sim.engine.crash", &spans.crash);
    sheet.span("sim.engine.meter", &t.wire_spans.meter);
    sheet.span("net.wire.encoded_len", &t.wire_spans.encoded_len);
    // The round minus what ran under it: the nodes' steps and the meter.
    let engine_self = spans
        .step
        .busy_ns()
        .saturating_sub(sum_spans(&outer, &STEP_CLASSES) + t.wire_spans.meter.busy_ns());
    sheet.set("sim.engine.self_ns", engine_self as f64);
    sheet.set(
        "sim.engine.self_ns_per_node_round",
        engine_self as f64 / t.node_rounds.max(1) as f64,
    );
    sheet.set("sim.engine.build_ns", t.build_ns as f64);
    sheet.set("sim.engine.wire_messages", t.wire_messages as f64);
    sheet.set("sim.engine.wire_bytes", t.wire_bytes as f64);
    sheet.set("sim.network.delivered", t.network_delivered as f64);
    sheet.set("sim.network.dropped", t.network_dropped as f64);

    sheet.set(
        "bench.trace.overhead_ratio",
        reference_wall(t) / plain_wall_s,
    );
    let in_spans = spans.step.busy_ns()
        + spans.publish.busy_ns()
        + spans.add_node.busy_ns()
        + spans.remove_node.busy_ns()
        + spans.crash.busy_ns();
    sheet.set(
        "bench.trace.window_coverage",
        in_spans as f64 / (t.timed_wall_s * 1e9),
    );
    sheet.set("bench.calib.speed_factor", t.speed_factor);
    sheet.set("bench.latency.samples", t.latency.count() as f64);
    sheet.set(
        "bench.oracle.delivery_failed_share",
        1.0 - t.delivered_pairs as f64 / t.expected_pairs.max(1) as f64,
    );
    sheet.set(
        "bench.oracle.excess_deliveries",
        excess.unsigned_abs() as f64,
    );
    sheet.set("bench.churn.joins", t.joins as f64);
    sheet.set("bench.churn.leaves", t.leaves as f64);
    sheet.set("bench.churn.leaves_refused", t.leaves_refused as f64);
    sheet.set("bench.churn.crashed", t.crashed as f64);
    report.layers = sheet.into_metrics();
    report
}

/// The lpbcast core's spans and counters, shared with the socket workload.
pub fn core_layers(sheet: &mut LayerSheet, harvest: &Harvest) {
    let core = harvest.core_spans();
    sheet.span("core.tick", &core[trace::TICK]);
    sheet.span("core.handle.gossip", &core[trace::HANDLE_GOSSIP]);
    sheet.span("core.handle.pull", &core[trace::HANDLE_PULL]);
    sheet.span("core.handle.subscribe", &core[trace::HANDLE_SUBSCRIBE]);
    sheet.span("core.broadcast", &core[trace::BROADCAST]);
    let stats = &harvest.core;
    let received = stats.events_delivered + stats.duplicate_events;
    sheet.set(
        "core.duplicate_ratio",
        stats.duplicate_events as f64 / received.max(1) as f64,
    );
    sheet.set("core.ids_learned", stats.ids_learned as f64);
    sheet.set("core.ids_purged", stats.ids_purged as f64);
    sheet.set("core.events_truncated", stats.events_truncated as f64);
    sheet.set(
        "core.retransmit_requests_sent",
        stats.retransmit_requests_sent as f64,
    );
    sheet.set("core.retransmits_served", stats.retransmits_served as f64);
    sheet.set("core.retransmit_misses", stats.retransmit_misses as f64);
    sheet.set("core.subs_added", stats.subs_added as f64);
    sheet.set("core.unsubs_applied", stats.unsubs_applied as f64);
    sheet.set("core.join_requests_sent", stats.join_requests_sent as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_two_segments_share_a_seed() {
        assert_eq!(segment_seeds(10, 4), [10, 10, 11, 12]);
    }

    fn replay<N>(shape: &Shape)
    where
        N: SimNode,
        N::Msg: WireMessage + Classify + Send + 'static,
    {
        let mut calibrator = Calibrator::new();
        let a = run_segment::<N>(shape, 5, false, &mut calibrator);
        let b = run_segment::<N>(shape, 5, true, &mut calibrator);
        let other = run_segment::<N>(shape, 6, false, &mut calibrator);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "replay (traced) must match"
        );
        assert_ne!(a.fingerprint(), other.fingerprint(), "the seed must matter");
        assert_eq!(a.excess_deliveries, 0);
        assert!(a.latency.count() > 0 && a.delivered_pairs > 0);
        assert!(
            a.delivered_pairs as f64 >= 0.98 * a.expected_pairs as f64,
            "{a:?}"
        );
    }

    #[test]
    fn loaded_replays_exactly() {
        replay::<PlainNode>(&sim_loaded_1k(true));
    }

    #[test]
    fn membership_replays_exactly() {
        replay::<PlainNode>(&sim_membership_10k(true));
    }

    #[test]
    fn churn_replays_exactly_and_churns() {
        let shape = sim_churn_swim_2k(true);
        replay::<SwimNode>(&shape);
        let s = run_segment::<SwimNode>(&shape, 5, false, &mut Calibrator::new());
        assert!(s.joins > 0 && s.leaves > 0 && s.crashed > 0, "{s:?}");
        assert!(s.harvest.swim.pings_sent > 0);
    }
}
