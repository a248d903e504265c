//! `net_loopback_512`: two `lpbcast_net::Cluster`s in this process
//! exchanging gossip over **loopback** UDP (no real link is crossed), one
//! driver thread per cluster, under an open-loop publication schedule.
//!
//! Open loop: event `k` is *due* at `start + k / rate` whatever the system
//! is doing, its latency runs from that due time, and how late the
//! generator actually sent it is reported (`bench.gen.lateness_ms_*`). A
//! segment whose generator fell behind by more than a gossip period (p99)
//! is retaken; a run that needs more than two retakes, or whose driver
//! threads did not both reach the end of the drain, is invalid, not slow.

use std::thread;
use std::time::{Duration, Instant};

use lpbcast_core::{Config, HistoryMode, Lpbcast};
use lpbcast_net::{Cluster, ClusterBuilder, ClusterStats, WireMessage};
use lpbcast_types::{Event, EventId, Payload, ProcessId};

use crate::calib::{speed_factor, Calibrator};
use crate::hist::{median, Histogram};
use crate::input::{node_seed, sample_view, Rng};
use crate::metrics::LayerSheet;
use crate::report::Report;
use crate::sim::core_layers;
use crate::sys;
use crate::trace::{
    set_timing, sum_spans, take_wire_spans, timed, Harvest, Span, Stack, Traced, WireSpans,
    WireTraced, BROADCAST, STEP_CLASSES,
};

/// The frozen parameters of the socket workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Instances per cluster; there are two clusters.
    pub per_cluster: u64,
    pub sockets: usize,
    /// Gossip period `T`.
    pub period: Duration,
    pub view_size: usize,
    /// `|eventIds|m` = `|events|m`.
    pub bound: usize,
    /// Events per second over both clusters; the schedule alternates.
    pub rate_hz: f64,
    pub publishers_per_cluster: u64,
    pub payload_len: usize,
    pub settle: Duration,
    pub drain: Duration,
    pub segments: usize,
    pub min_timed: Duration,
}

pub fn net_loopback_512(quick: bool) -> Shape {
    if quick {
        return Shape {
            per_cluster: 32,
            sockets: 2,
            period: Duration::from_millis(10),
            view_size: 8,
            bound: 512,
            rate_hz: 100.0,
            publishers_per_cluster: 4,
            payload_len: 64,
            settle: Duration::from_millis(100),
            drain: Duration::from_millis(400),
            segments: 2,
            min_timed: Duration::from_millis(300),
        };
    }
    Shape {
        per_cluster: 256,
        sockets: 2,
        period: Duration::from_millis(10),
        view_size: 15,
        bound: 512,
        rate_hz: 200.0,
        publishers_per_cluster: 8,
        payload_len: 64,
        settle: Duration::from_millis(200),
        drain: Duration::from_millis(1000),
        segments: 3,
        min_timed: Duration::from_millis(500),
    }
}

/// Pulls on (16 ids per gossip, retried after 4 ticks, 1024-event
/// archive) and `HistoryMode::Compact`: with the `Bounded` 512-id history
/// that `net_harness` and `examples/udp_cluster` configure, a prototype of
/// this workload re-delivered ~10^7 duplicates for 1000 events on 128
/// nodes once more than 512 ids had been published (README, "Findings").
fn config(shape: &Shape) -> Config {
    Config::builder()
        .view_size(shape.view_size)
        .fanout(3)
        .event_ids_max(shape.bound)
        .events_max(shape.bound)
        .history_mode(HistoryMode::Compact)
        .retransmit_request_max(16)
        .retransmit_retry_ticks(4)
        .archive_capacity(1024)
        .deliver_on_digest(false)
        .build()
}

/// A node type the socket workload can host.
pub trait NetNode: Stack + Send + Sized {
    fn wrap(core: Lpbcast) -> Self;
}

impl NetNode for Lpbcast {
    fn wrap(core: Lpbcast) -> Self {
        core
    }
}

pub type TracedNode = WireTraced<Traced<Lpbcast>>;

impl NetNode for TracedNode {
    fn wrap(core: Lpbcast) -> Self {
        WireTraced(Traced::new(core))
    }
}

/// The schedule of one segment, shared read-only by both driver threads.
#[derive(Debug)]
struct Plan<'a> {
    shape: &'a Shape,
    start: Instant,
    timed_end: Instant,
    end: Instant,
    /// Events scheduled, `k` in `0..events`; even `k` publish on side 0.
    events: u64,
}

impl Plan<'_> {
    fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.shape.rate_hz)
    }

    fn publisher(&self, k: u64) -> ProcessId {
        let side = k % 2;
        ProcessId::new(side * self.shape.per_cluster + (k / 2) % self.shape.publishers_per_cluster)
    }

    /// The id event `k` must carry: its publisher's next sequence number.
    fn event_id(&self, k: u64) -> EventId {
        EventId::new(
            self.publisher(k),
            (k / 2) / self.shape.publishers_per_cluster,
        )
    }

    fn payload(&self, k: u64) -> Payload {
        let mut bytes = vec![0xA5u8; self.shape.payload_len];
        bytes[..8].copy_from_slice(&k.to_le_bytes());
        Payload::from(bytes)
    }

    fn event_of(&self, event: &Event) -> Option<u64> {
        let payload = event.payload();
        if payload.len() != self.shape.payload_len {
            return None;
        }
        let k = u64::from_le_bytes(payload[..8].try_into().ok()?);
        (k < self.events && event.id() == self.event_id(k)).then_some(k)
    }
}

/// Exact-once record of one cluster's deliveries: a bit per
/// (event, local instance).
#[derive(Debug)]
struct Oracle {
    seen: Vec<u64>,
    per_event: Vec<u32>,
    latency_periods: Histogram,
    duplicates: u64,
    phantoms: u64,
}

impl Oracle {
    fn new(plan: &Plan) -> Self {
        let bits = (plan.events * plan.shape.per_cluster) as usize;
        Oracle {
            seen: vec![0; bits.div_ceil(64)],
            per_event: vec![0; plan.events as usize],
            latency_periods: Histogram::new(0.01),
            duplicates: 0,
            phantoms: 0,
        }
    }

    fn record(&mut self, plan: &Plan, side: u64, who: ProcessId, event: &Event, at: Instant) {
        let local = who.as_u64().wrapping_sub(side * plan.shape.per_cluster);
        let (Some(k), true) = (plan.event_of(event), local < plan.shape.per_cluster) else {
            self.phantoms += 1;
            return;
        };
        let bit = (k * plan.shape.per_cluster + local) as usize;
        if self.seen[bit / 64] & (1 << (bit % 64)) != 0 {
            self.duplicates += 1;
            return;
        }
        self.seen[bit / 64] |= 1 << (bit % 64);
        self.per_event[k as usize] += 1;
        let waited = at.saturating_duration_since(plan.due(k));
        self.latency_periods
            .record(waited.as_secs_f64() / plan.shape.period.as_secs_f64());
    }
}

/// What one driver thread brings back.
#[derive(Debug)]
struct Side {
    oracle: Oracle,
    published: Vec<bool>,
    lateness_ms: Histogram,
    /// Cluster counters over the timed window.
    stats: ClusterStats,
    thread_cpu_s: f64,
    window_s: f64,
    steps: u64,
    deliveries_in_window: u64,
    step: Span,
    broadcast: Span,
    take_deliveries: Span,
    oracle_span: Span,
    wire: WireSpans,
    harvest: Harvest,
}

/// Counters accumulated between two readings; fields this benchmark does
/// not know keep the later reading.
fn stats_since(now: &ClusterStats, then: &ClusterStats) -> ClusterStats {
    ClusterStats {
        datagrams_tx: now.datagrams_tx - then.datagrams_tx,
        datagrams_rx: now.datagrams_rx - then.datagrams_rx,
        wire_tx_bytes: now.wire_tx_bytes - then.wire_tx_bytes,
        wire_rx_bytes: now.wire_rx_bytes - then.wire_rx_bytes,
        local_messages: now.local_messages - then.local_messages,
        ticks: now.ticks - then.ticks,
        ..*now
    }
}

/// Calibration slices run before and after a segment (see `calib`): both
/// cores are busy during the timed window, so none can run inside it.
const BRACKET_SLICES: usize = 32;

/// Segments of one run that may be retaken because the generator ran late.
const MAX_LATE_SEGMENTS: u32 = 2;

/// Longest the loop sleeps in the poller when nothing is due.
const MAX_WAIT: Duration = Duration::from_millis(2);

/// One driver thread: settle, publish on schedule for the timed window,
/// drain; every delivery goes through the oracle.
fn drive<P>(mut cluster: Cluster<P>, side: u64, plan: &Plan, traced: bool) -> Result<Side, String>
where
    P: NetNode,
    P::Msg: WireMessage,
{
    let mut out = Side {
        oracle: Oracle::new(plan),
        published: vec![false; plan.events as usize],
        lateness_ms: Histogram::new(0.01),
        stats: ClusterStats::default(),
        thread_cpu_s: 0.0,
        window_s: 0.0,
        steps: 0,
        deliveries_in_window: 0,
        step: Span::default(),
        broadcast: Span::default(),
        take_deliveries: Span::default(),
        oracle_span: Span::default(),
        wire: WireSpans::default(),
        harvest: Harvest::default(),
    };
    let _ = take_wire_spans();
    let mut next_k = side;
    // (counters, thread CPU, instant) at the start of the timed window.
    let mut opened: Option<(ClusterStats, f64, Instant)> = None;
    let mut closed = false;
    loop {
        let now = Instant::now();
        if now >= plan.end {
            break;
        }
        if opened.is_none() && now >= plan.start {
            opened = Some((*cluster.stats(), sys::thread_cpu_seconds(), now));
            set_timing(traced);
        }
        if let (Some((stats, cpu, since)), false, true) = (&opened, closed, now >= plan.timed_end) {
            set_timing(false);
            closed = true;
            out.stats = stats_since(cluster.stats(), stats);
            out.thread_cpu_s = sys::thread_cpu_seconds() - cpu;
            out.window_s = now.duration_since(*since).as_secs_f64();
        }
        if opened.is_some() {
            while next_k < plan.events && plan.due(next_k) <= now {
                let (k, origin) = (next_k, plan.publisher(next_k));
                next_k += 2;
                let late = Instant::now().saturating_duration_since(plan.due(k));
                out.lateness_ms.record(late.as_secs_f64() * 1e3);
                let id = timed(&mut out.broadcast, || {
                    cluster.broadcast(origin, plan.payload(k))
                });
                out.published[k as usize] = id == Some(plan.event_id(k));
            }
        }
        let in_window = opened.is_some() && !closed;
        let next_due = if next_k < plan.events {
            plan.due(next_k)
        } else {
            plan.end
        };
        let boundary = match (opened.is_some(), closed) {
            (false, _) => plan.start,
            (true, false) => plan.timed_end,
            (true, true) => plan.end,
        };
        let wait = next_due
            .min(boundary)
            .saturating_duration_since(now)
            .min(MAX_WAIT);
        timed(&mut out.step, || cluster.step(wait))
            .map_err(|e| format!("cluster step failed: {e}"))?;
        let batch = timed(&mut out.take_deliveries, || cluster.take_deliveries());
        if in_window {
            out.steps += 1;
            out.deliveries_in_window += batch.len() as u64;
        }
        if !batch.is_empty() {
            let oracle = &mut out.oracle;
            timed(&mut out.oracle_span, || {
                let at = Instant::now();
                for (who, event) in &batch {
                    oracle.record(plan, side, *who, event, at);
                }
            });
        }
    }
    if !closed {
        return Err("driver thread never closed its timed window".into());
    }
    for id in cluster.instance_ids() {
        cluster.with_instance(id, |node| node.harvest(0, &mut out.harvest));
    }
    out.wire = take_wire_spans();
    Ok(out)
}

fn build_cluster<P>(shape: &Shape, side: u64, seed: u64) -> Cluster<P>
where
    P: NetNode,
    P::Msg: WireMessage,
{
    let mut cluster = ClusterBuilder::new(shape.period)
        .sockets(shape.sockets)
        .build::<P>()
        .expect("bind loopback sockets");
    let total = 2 * shape.per_cluster;
    let mut rng = Rng::new(seed ^ 0x6E65_7462_656E_6368 ^ side); // "netbench"
    for local in 0..shape.per_cluster {
        let id = side * shape.per_cluster + local;
        let view = sample_view(&mut rng, id, total, shape.view_size);
        let core = Lpbcast::with_initial_view(
            ProcessId::new(id),
            config(shape),
            node_seed(seed, id),
            view,
        );
        cluster
            .add_instance(P::wrap(core))
            .expect("fresh instance id");
    }
    cluster
}

/// Everything one segment measured.
#[derive(Debug)]
struct Segment {
    sides: Vec<Side>,
    setup_s: f64,
    process_cpu_s: f64,
    /// How much slower than the reference the box ran around this segment
    /// (see `calib`); applied to CPU time only, the rest is timer-paced.
    speed_factor: f64,
    events: u64,
    expected_pairs: u64,
    delivered_pairs: u64,
    events_died: u64,
    duplicates: u64,
    phantoms: u64,
    latency_periods: Histogram,
    lateness_ms: Histogram,
}

impl Segment {
    fn sum(&self, f: impl Fn(&Side) -> u64) -> u64 {
        self.sides.iter().map(f).sum()
    }

    /// In reference CPU microseconds.
    fn cpu_us_per_delivery(&self) -> f64 {
        self.process_cpu_s * 1e6 / self.speed_factor / self.delivered_pairs.max(1) as f64
    }
}

fn run_segment<P>(
    shape: &Shape,
    seed: u64,
    timed_for: Duration,
    traced: bool,
    calibrator: &mut Calibrator,
) -> Result<Segment, String>
where
    P: NetNode,
    P::Msg: WireMessage + Send,
{
    let slice_before = calibrator.mean_slice(BRACKET_SLICES);
    let segment_start = Instant::now();
    let a = build_cluster::<P>(shape, 0, seed);
    let b = build_cluster::<P>(shape, 1, seed);
    for (here, there) in [(&a, &b), (&b, &a)] {
        for id in there.instance_ids() {
            here.register_peer(
                id,
                there
                    .address_book()
                    .lookup(id)
                    .expect("instance registered itself"),
            );
        }
    }
    let start = Instant::now() + shape.settle;
    let plan = Plan {
        shape,
        start,
        timed_end: start + timed_for,
        end: start + timed_for + shape.drain,
        events: (shape.rate_hz * timed_for.as_secs_f64()) as u64,
    };
    let setup_s = start.duration_since(segment_start).as_secs_f64();

    let (sides, process_cpu_s) = thread::scope(|scope| {
        let plan = &plan;
        let handles = [
            scope.spawn(move || drive(a, 0, plan, traced)),
            scope.spawn(move || drive(b, 1, plan, traced)),
        ];
        // This thread only brackets the timed window with process CPU
        // readings (the driver threads are alive at both).
        thread::sleep(plan.start.saturating_duration_since(Instant::now()));
        let cpu_start = sys::process_cpu_seconds();
        thread::sleep(plan.timed_end.saturating_duration_since(Instant::now()));
        let cpu = sys::process_cpu_seconds() - cpu_start;
        let sides: Result<Vec<Side>, String> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("driver thread panicked".into()))
            })
            .collect();
        (sides, cpu)
    });
    let sides =
        sides.map_err(|e| format!("a driver thread did not reach the end of the drain: {e}"))?;
    let speed_factor = speed_factor((slice_before + calibrator.mean_slice(BRACKET_SLICES)) / 2.0);

    let subscribers = 2 * shape.per_cluster - 1;
    let mut segment = Segment {
        setup_s,
        process_cpu_s,
        speed_factor,
        events: plan.events,
        expected_pairs: 0,
        delivered_pairs: 0,
        events_died: 0,
        duplicates: sides.iter().map(|s| s.oracle.duplicates).sum(),
        phantoms: sides.iter().map(|s| s.oracle.phantoms).sum(),
        latency_periods: Histogram::new(0.01),
        lateness_ms: Histogram::new(0.01),
        sides,
    };
    for k in 0..plan.events as usize {
        let delivered: u64 = segment
            .sides
            .iter()
            .map(|s| u64::from(s.oracle.per_event[k]))
            .sum();
        if !segment.sides[k % 2].published[k] {
            // Never (or wrongly) published: every delivery of it is a
            // phantom, and the broadcast itself failed.
            segment.phantoms += delivered;
            segment.events_died += 1;
            continue;
        }
        segment.expected_pairs += subscribers;
        segment.delivered_pairs += delivered;
        segment.events_died += u64::from(delivered * 2 < subscribers);
    }
    for side in &segment.sides {
        segment.latency_periods.merge(&side.oracle.latency_periods);
        segment.lateness_ms.merge(&side.lateness_ms);
    }
    Ok(segment)
}

fn timed_for(shape: &Shape, seconds: u64) -> Duration {
    let share = Duration::from_secs_f64(seconds as f64 / shape.segments as f64);
    share
        .saturating_sub(shape.settle + shape.drain)
        .max(shape.min_timed)
}

/// A whole run: `shape.segments` untraced segments for the end-to-end
/// metrics, or (`traced`) the per-layer sheet of one traced segment.
pub fn run(shape: &Shape, seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report = Report::default();
    let window = timed_for(shape, seconds);
    // Traced: plain, traced, plain, so that the traced segment is compared
    // with untraced ones on either side of it.
    let count = if traced { 3 } else { shape.segments };
    let period_ms = shape.period.as_secs_f64() * 1e3;
    let mut segments = Vec::new();
    let mut late_segments = 0;
    let mut calibrator = Calibrator::new();
    let mut attempt = 0u64;
    while segments.len() < count {
        // A segment in which the generator fell a gossip period behind
        // did not offer the load it was meant to: it is no measurement,
        // and is taken again. This box freezes a thread for 50-250 ms
        // every few runs (off the CPU inside `epoll_wait`, both threads at
        // once); a stall of the product's own making would come back in
        // the retries, which are few, and fail the run below.
        if late_segments > MAX_LATE_SEGMENTS {
            report.fail(&format!(
                "the generator ran late (lateness p99 above the gossip period) in {late_segments} segments"
            ));
            return report;
        }
        let seed = seed.wrapping_add(attempt);
        attempt += 1;
        let segment = if traced && segments.len() == 1 {
            run_segment::<TracedNode>(shape, seed, window, true, &mut calibrator)
        } else {
            run_segment::<Lpbcast>(shape, seed, window, false, &mut calibrator)
        };
        match segment {
            Ok(segment) if segment.lateness_ms.quantile(0.99) > period_ms => late_segments += 1,
            Ok(segment) => segments.push(segment),
            Err(why) => {
                report.fail(&why);
                return report;
            }
        }
    }

    let mut latency = Histogram::new(0.01);
    let mut lateness = Histogram::new(0.01);
    for s in &segments {
        latency.merge(&s.latency_periods);
        lateness.merge(&s.lateness_ms);
    }
    let total = |f: fn(&Segment) -> u64| -> u64 { segments.iter().map(f).sum() };
    let (duplicates, phantoms) = (total(|s| s.duplicates), total(|s| s.phantoms));
    if duplicates > 0 {
        report.fail(&format!(
            "{duplicates} duplicate deliveries reached an application"
        ));
    }
    if phantoms > 0 {
        report.fail(&format!(
            "{phantoms} deliveries of an id that was never published"
        ));
    }
    let (expected, delivered) = (total(|s| s.expected_pairs), total(|s| s.delivered_pairs));
    let failed_share = 1.0 - delivered as f64 / expected.max(1) as f64;
    report.attempted = total(|s| s.events);
    report.failed = total(|s| s.events_died);
    report.detail_list(
        "segment_cpu_us_per_delivery",
        segments.iter().map(Segment::cpu_us_per_delivery),
    );
    report.detail_list(
        "segment_speed_factor",
        segments.iter().map(|s| s.speed_factor),
    );
    report.detail("segments_retaken_for_lateness", f64::from(late_segments));
    report.detail("timed_window_s", window.as_secs_f64());
    report.detail("latency_samples", latency.count() as f64);
    report.detail("expected_pairs", expected as f64);
    report.detail("delivery_failed_share", failed_share);
    report.detail("duplicate_deliveries", duplicates as f64);
    report.detail("phantom_deliveries", phantoms as f64);
    report.detail("generator_lateness_ms_p99", lateness.quantile(0.99));
    report.detail("generator_lateness_ms_max", lateness.max());

    if !traced {
        let per_segment =
            |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
        report.e2e("setup_s", per_segment(&|s| s.setup_s));
        // Deliveries that happened inside the timed window over its
        // measured length: the rate delivered while the load was on.
        report.e2e(
            "deliveries_per_s",
            per_segment(&|s| {
                s.sides
                    .iter()
                    .map(|side| side.deliveries_in_window as f64 / side.window_s)
                    .sum()
            }),
        );
        report.e2e(
            "node_rounds_per_s",
            per_segment(&|s| {
                s.sides
                    .iter()
                    .map(|side| side.stats.ticks as f64 / side.window_s)
                    .sum()
            }),
        );
        // Per-segment percentiles, then the median: one stalled segment
        // (a descheduled driver thread) must not set the run's tail.
        report.e2e(
            "delivery_latency_rounds_p50",
            per_segment(&|s| s.latency_periods.quantile(0.5)),
        );
        report.e2e(
            "delivery_latency_rounds_p99",
            per_segment(&|s| s.latency_periods.quantile(0.99)),
        );
        report.e2e("delivered_share", 1.0 - failed_share);
        report.e2e(
            "cpu_us_per_delivery",
            per_segment(&Segment::cpu_us_per_delivery),
        );
        let tx_bytes: u64 = segments
            .iter()
            .map(|s| s.sum(|side| side.stats.wire_tx_bytes))
            .sum();
        report.e2e(
            "wire_bytes_per_delivery",
            tx_bytes as f64 / delivered.max(1) as f64,
        );
        report.e2e("peak_rss_mb", sys::peak_rss_mb());
        return report;
    }

    let t = &segments[1];
    let plain_cpu_us =
        (segments[0].cpu_us_per_delivery() + segments[2].cpu_us_per_delivery()) / 2.0;
    let mut harvest = Harvest::default();
    let mut wire = WireSpans::default();
    let (mut step, mut broadcast, mut take, mut oracle) = (
        Span::default(),
        Span::default(),
        Span::default(),
        Span::default(),
    );
    for side in &t.sides {
        harvest.absorb(&side.harvest);
        wire.merge(&side.wire);
        step.merge(&side.step);
        broadcast.merge(&side.broadcast);
        take.merge(&side.take_deliveries);
        oracle.merge(&side.oracle_span);
    }
    let mut sheet = LayerSheet::new();
    core_layers(&mut sheet, &harvest);
    sheet.span("net.wire.encode", &wire.encode);
    sheet.span("net.wire.decode", &wire.decode);
    sheet.span("net.wire.encoded_len", &wire.encoded_len);
    sheet.set("net.wire.encode.bytes", wire.encode_bytes as f64);
    sheet.set("net.wire.decode.bytes", wire.decode_bytes as f64);
    // Each remote message is decoded once by its receiver, so decodes
    // count the messages sent; encodes fall below that when a gossip body
    // shared by several fanout copies is framed once.
    sheet.set(
        "net.wire.encodes_per_remote_msg",
        wire.encode.calls as f64 / wire.decode.calls.max(1) as f64,
    );
    sheet.span("net.cluster.step", &step);
    sheet.span("net.cluster.broadcast", &broadcast);
    sheet.span("net.cluster.take_deliveries", &take);
    // The loop's own CPU: the driver threads' CPU minus what ran under
    // them (protocol, codec) and beside them (the benchmark's oracle).
    let outer = harvest.outer_spans();
    let under =
        sum_spans(&outer, &STEP_CLASSES) + outer[BROADCAST].busy_ns() + wire.codec_busy_ns();
    let thread_cpu_ns = t.sides.iter().map(|s| s.thread_cpu_s).sum::<f64>() * 1e9;
    sheet.set(
        "net.cluster.self_cpu_ns",
        (thread_cpu_ns - (under + take.busy_ns() + oracle.busy_ns()) as f64).max(0.0),
    );
    let stat = |f: fn(&ClusterStats) -> u64| -> f64 {
        t.sides.iter().map(|s| f(&s.stats)).sum::<u64>() as f64
    };
    sheet.set("net.cluster.datagrams_tx", stat(|s| s.datagrams_tx));
    sheet.set("net.cluster.datagrams_rx", stat(|s| s.datagrams_rx));
    sheet.set("net.cluster.wire_tx_bytes", stat(|s| s.wire_tx_bytes));
    sheet.set("net.cluster.wire_rx_bytes", stat(|s| s.wire_rx_bytes));
    // Datagrams handed to `send_to` that no cluster received: socket
    // buffers overflowing on the loopback path (what the pulls repair).
    sheet.set(
        "net.cluster.datagram_loss_share",
        (1.0 - stat(|s| s.datagrams_rx) / stat(|s| s.datagrams_tx).max(1.0)).max(0.0),
    );
    sheet.set("net.cluster.local_messages", stat(|s| s.local_messages));
    sheet.set("net.cluster.ticks", stat(|s| s.ticks));
    sheet.set(
        "net.cluster.frames_per_datagram",
        wire.decode.calls as f64 / stat(|s| s.datagrams_rx).max(1.0),
    );
    let window_deliveries = t.sum(|s| s.deliveries_in_window).max(1) as f64;
    sheet.set(
        "net.cluster.datagrams_per_delivery",
        stat(|s| s.datagrams_tx) / window_deliveries,
    );
    let ticks_owed: f64 = t
        .sides
        .iter()
        .map(|s| shape.per_cluster as f64 * s.window_s / shape.period.as_secs_f64())
        .sum();
    sheet.set(
        "net.cluster.tick_shortfall",
        1.0 - stat(|s| s.ticks) / ticks_owed,
    );
    sheet.set(
        "net.cluster.deliveries_per_step",
        window_deliveries / t.sum(|s| s.steps).max(1) as f64,
    );
    sheet.set("bench.gen.lateness_ms_p99", t.lateness_ms.quantile(0.99));
    sheet.set("bench.gen.lateness_ms_max", t.lateness_ms.max());
    // The open loop fixes the wall time, so tracing shows up as CPU.
    sheet.set(
        "bench.trace.overhead_ratio",
        t.cpu_us_per_delivery() / plain_cpu_us,
    );
    let in_spans = step.busy_ns() + broadcast.busy_ns() + take.busy_ns() + oracle.busy_ns();
    let window_ns: f64 = t.sides.iter().map(|s| s.window_s * 1e9).sum();
    sheet.set("bench.trace.window_coverage", in_spans as f64 / window_ns);
    sheet.set("bench.calib.speed_factor", t.speed_factor);
    sheet.set("bench.latency.samples", t.latency_periods.count() as f64);
    sheet.set(
        "bench.oracle.delivery_failed_share",
        1.0 - t.delivered_pairs as f64 / t.expected_pairs.max(1) as f64,
    );
    sheet.set(
        "bench.oracle.excess_deliveries",
        (t.duplicates + t.phantoms) as f64,
    );
    report.layers = sheet.into_metrics();
    report
}
