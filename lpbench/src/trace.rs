//! Spans taken from the benchmark's side of each layer boundary.
//!
//! * [`Traced<P>`] wraps a [`Protocol`] and times `tick`,
//!   `handle_message` (by message class), `broadcast` and `evict`. It
//!   keeps `P::Msg`, so it nests: `Traced<Swim<Traced<Lpbcast>>>` gives the
//!   detector's self time as outer spans minus inner spans.
//! * [`TracedMsg<M>`] wraps a [`WireMessage`] and times the codec.
//!   [`WireTraced<P>`] is the adapter that makes a protocol speak
//!   `TracedMsg<P::Msg>` so a `Cluster` encodes and decodes through it.
//!
//! Spans are aggregated per class (calls, busy time) in memory and written
//! with the result. Timing is switched per thread ([`set_timing`]) so that
//! only the timed window is covered; with timing off a wrapper costs a
//! flag test and an integer add per call. `Traced` also counts what every step delivers,
//! whether or not timing is on: the simulator keeps protocol outputs to
//! itself, and this count is how the driver notices a duplicate or phantom
//! delivery there.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use bytes::BytesMut;
use lpbcast_core::{Lpbcast, Message, ProcessStats};
use lpbcast_membership::{Swim, SwimMsg, SwimStats};
use lpbcast_net::wire::WireError;
use lpbcast_net::WireMessage;
use lpbcast_types::{EventId, Output, Payload, ProcessId, Protocol};

/// Aggregate of one span class. Call-site spans time every call; the
/// wrappers' spans run millions of times a second, where two clock
/// readings per call would cost a tenth of the 10^4-node run, so they time
/// one call in eight, count every call, and scale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Calls made while timing was on (exact).
    pub calls: u64,
    timed_calls: u64,
    timed_ns: u64,
}

/// The wrappers time bursts of [`BURST`] consecutive calls (of any class,
/// counted per thread) out of every [`BURST_EVERY`]. Bursts, because a
/// lone timed call pays for fetching the clock's code and data back into
/// the cache, which tripled the apparent cost of a 200 ns span; counted
/// across classes, because calls come in short repeating patterns (a tick,
/// then its three metered copies) that a per-class stride would alias.
const BURST: u32 = 8;
const BURST_EVERY: u32 = 64;

impl Span {
    /// Counts a call of a wrapper span; returns the start instant if this
    /// call falls in a timed burst.
    fn enter_sampled(&mut self) -> Option<Instant> {
        if !timing() {
            return None;
        }
        self.calls += 1;
        let phase = PHASE.with(|p| {
            let phase = p.get();
            p.set(phase.wrapping_add(1));
            phase
        });
        (phase % BURST_EVERY < BURST).then(Instant::now)
    }

    fn exit(&mut self, started: Option<Instant>) {
        if let Some(started) = started {
            self.timed_calls += 1;
            self.timed_ns += started.elapsed().as_nanos() as u64;
        }
    }

    pub fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.timed_calls += other.timed_calls;
        self.timed_ns += other.timed_ns;
    }

    /// Time spent in all calls: measured when every call was timed, else
    /// the timed calls' mean applied to all of them.
    pub fn busy_ns(&self) -> u64 {
        if self.timed_calls == 0 {
            return 0;
        }
        (self.timed_ns as u128 * self.calls as u128 / self.timed_calls as u128) as u64
    }

    pub fn ns_per_call(&self) -> f64 {
        if self.timed_calls == 0 {
            0.0
        } else {
            self.timed_ns as f64 / self.timed_calls as f64
        }
    }
}

/// Runs `f` as one call of `span`, timed whenever this thread is timing.
pub fn timed<R>(span: &mut Span, f: impl FnOnce() -> R) -> R {
    let started = timing().then(Instant::now);
    span.calls += u64::from(started.is_some());
    let result = f();
    span.exit(started);
    result
}

thread_local! {
    static TIMING: Cell<bool> = const { Cell::new(false) };
    static PHASE: Cell<u32> = const { Cell::new(0) };
    static WIRE: RefCell<WireSpans> = RefCell::new(WireSpans::default());
}

/// Switches span timing for wrappers called on this thread.
pub fn set_timing(on: bool) {
    TIMING.with(|t| t.set(on));
}

pub fn timing() -> bool {
    TIMING.with(Cell::get)
}

// ── protocol spans ──────────────────────────────────────────────────

/// Span classes of one [`Traced`] level.
pub const TICK: usize = 0;
pub const HANDLE_GOSSIP: usize = 1;
/// Retransmission request + response (the gossip pull).
pub const HANDLE_PULL: usize = 2;
pub const HANDLE_SUBSCRIBE: usize = 3;
/// The failure detector's own ping / ack / ping-req traffic.
pub const HANDLE_DETECTOR: usize = 4;
pub const BROADCAST: usize = 5;
pub const EVICT: usize = 6;
pub const CLASSES: usize = 7;
/// The classes the driver calls from inside a round or loop iteration
/// (`broadcast` is called by the load generator, `evict` by a wrapper).
pub const STEP_CLASSES: [usize; 5] = [
    TICK,
    HANDLE_GOSSIP,
    HANDLE_PULL,
    HANDLE_SUBSCRIBE,
    HANDLE_DETECTOR,
];

pub type Spans = [Span; CLASSES];

pub fn sum_spans(spans: &Spans, classes: &[usize]) -> u64 {
    classes.iter().map(|&c| spans[c].busy_ns()).sum()
}

/// Which handle-span a message is billed to.
pub trait Classify {
    fn class(&self) -> usize;
}

impl Classify for Message {
    fn class(&self) -> usize {
        match self {
            Message::Gossip(_) => HANDLE_GOSSIP,
            Message::Subscribe { .. } => HANDLE_SUBSCRIBE,
            Message::RetransmitRequest { .. } | Message::RetransmitResponse { .. } => HANDLE_PULL,
        }
    }
}

impl<M: Classify> Classify for SwimMsg<M> {
    fn class(&self) -> usize {
        match self {
            SwimMsg::Wrapped { inner, .. } => inner.class(),
            _ => HANDLE_DETECTOR,
        }
    }
}

/// A protocol with its calls timed and its outputs counted.
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
    spans: Spans,
    /// Notifications handed to the application (payload deliveries plus
    /// ids learnt under the deliver-on-digest convention).
    delivered: u64,
}

impl<P> Traced<P> {
    pub fn new(inner: P) -> Self {
        Traced {
            inner,
            spans: Spans::default(),
            delivered: 0,
        }
    }

    fn finish<M>(&mut self, class: usize, started: Option<Instant>, out: &Output<M>) {
        self.spans[class].exit(started);
        self.delivered += (out.delivered.len() + out.learned_ids.len()) as u64;
    }
}

impl<P> Protocol for Traced<P>
where
    P: Protocol,
    P::Msg: Classify,
{
    type Msg = P::Msg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn tick(&mut self) -> Output<Self::Msg> {
        let started = self.spans[TICK].enter_sampled();
        let out = self.inner.tick();
        self.finish(TICK, started, &out);
        out
    }

    fn wants_tick(&self) -> bool {
        self.inner.wants_tick()
    }

    fn handle_message(&mut self, from: ProcessId, msg: Self::Msg) -> Output<Self::Msg> {
        let class = msg.class();
        let started = self.spans[class].enter_sampled();
        let out = self.inner.handle_message(from, msg);
        self.finish(class, started, &out);
        out
    }

    fn broadcast(&mut self, payload: Payload) -> (EventId, Output<Self::Msg>) {
        let started = self.spans[BROADCAST].enter_sampled();
        let (id, out) = self.inner.broadcast(payload);
        self.finish(BROADCAST, started, &out);
        (id, out)
    }

    fn view_members(&self) -> Vec<ProcessId> {
        self.inner.view_members()
    }

    fn evict(&mut self, process: ProcessId) {
        let started = self.spans[EVICT].enter_sampled();
        self.inner.evict(process);
        self.spans[EVICT].exit(started);
    }
}

// ── codec spans ─────────────────────────────────────────────────────

/// Codec spans of the calling thread (the codec's `decode_body` has no
/// receiver to hang an accumulator on, and each cluster runs on its own
/// thread, so per-thread accumulators need no lock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSpans {
    pub encode: Span,
    pub decode: Span,
    pub encoded_len: Span,
    /// The simulator's wire-meter closure (its child is `encoded_len`).
    pub meter: Span,
    pub encode_bytes: u64,
    pub decode_bytes: u64,
}

impl WireSpans {
    pub fn merge(&mut self, other: &WireSpans) {
        self.encode.merge(&other.encode);
        self.decode.merge(&other.decode);
        self.encoded_len.merge(&other.encoded_len);
        self.meter.merge(&other.meter);
        self.encode_bytes += other.encode_bytes;
        self.decode_bytes += other.decode_bytes;
    }

    /// Codec time that is not a child of the meter span.
    pub fn codec_busy_ns(&self) -> u64 {
        self.encode.busy_ns() + self.decode.busy_ns() + self.encoded_len.busy_ns()
    }
}

/// Returns and resets the calling thread's codec spans.
pub fn take_wire_spans() -> WireSpans {
    WIRE.with(|w| std::mem::take(&mut *w.borrow_mut()))
}

/// A wire message whose codec calls are timed.
#[derive(Debug, Clone)]
pub struct TracedMsg<M>(pub M);

impl<M: Classify> Classify for TracedMsg<M> {
    fn class(&self) -> usize {
        self.0.class()
    }
}

impl<M: WireMessage> WireMessage for TracedMsg<M> {
    fn encode_body(&self, buf: &mut BytesMut) {
        let before = buf.len();
        let started = WIRE.with(|w| w.borrow_mut().encode.enter_sampled());
        self.0.encode_body(buf);
        WIRE.with(|w| {
            let mut w = w.borrow_mut();
            w.encode.exit(started);
            if timing() {
                w.encode_bytes += (buf.len() - before) as u64;
            }
        });
    }

    fn decode_body(buf: &mut &[u8]) -> Result<Self, WireError> {
        let before = buf.len();
        let started = WIRE.with(|w| w.borrow_mut().decode.enter_sampled());
        let decoded = M::decode_body(buf);
        WIRE.with(|w| {
            let mut w = w.borrow_mut();
            w.decode.exit(started);
            if timing() {
                w.decode_bytes += (before - buf.len()) as u64;
            }
        });
        decoded.map(TracedMsg)
    }

    fn body_key(&self) -> Option<usize> {
        self.0.body_key()
    }

    fn encoded_len(&self) -> usize {
        let started = WIRE.with(|w| w.borrow_mut().encoded_len.enter_sampled());
        let len = self.0.encoded_len();
        WIRE.with(|w| w.borrow_mut().encoded_len.exit(started));
        len
    }
}

/// The simulator's wire meter with the closure and the `encoded_len`
/// calls under it timed. Measures exactly what `lpbcast_net::wire_meter`
/// measures; the per-message clone it adds is a pointer clone.
pub fn traced_wire_meter<M: WireMessage + Send>() -> impl FnMut(&M) -> usize + Send {
    let mut meter = lpbcast_net::wire_meter::<TracedMsg<M>>();
    move |message: &M| {
        let started = WIRE.with(|w| w.borrow_mut().meter.enter_sampled());
        let len = meter(&TracedMsg(message.clone()));
        WIRE.with(|w| w.borrow_mut().meter.exit(started));
        len
    }
}

/// Makes `P` speak `TracedMsg<P::Msg>`; adds no spans of its own.
#[derive(Debug)]
pub struct WireTraced<P>(pub P);

fn wrap_output<M>(out: Output<M>) -> Output<TracedMsg<M>> {
    Output {
        delivered: out.delivered,
        learned_ids: out.learned_ids,
        outgoing: out
            .outgoing
            .into_iter()
            .map(|(to, msg)| (to, TracedMsg(msg)))
            .collect(),
        membership: out.membership,
    }
}

impl<P: Protocol> Protocol for WireTraced<P> {
    type Msg = TracedMsg<P::Msg>;

    fn id(&self) -> ProcessId {
        self.0.id()
    }

    fn tick(&mut self) -> Output<Self::Msg> {
        wrap_output(self.0.tick())
    }

    fn wants_tick(&self) -> bool {
        self.0.wants_tick()
    }

    fn handle_message(&mut self, from: ProcessId, msg: Self::Msg) -> Output<Self::Msg> {
        wrap_output(self.0.handle_message(from, msg.0))
    }

    fn broadcast(&mut self, payload: Payload) -> (EventId, Output<Self::Msg>) {
        let (id, out) = self.0.broadcast(payload);
        (id, wrap_output(out))
    }

    fn view_members(&self) -> Vec<ProcessId> {
        self.0.view_members()
    }

    fn evict(&mut self, process: ProcessId) {
        self.0.evict(process);
    }
}

// ── harvesting ──────────────────────────────────────────────────────

/// Counters and spans summed over the nodes of a run.
#[derive(Debug, Clone, Default)]
pub struct Harvest {
    /// Span arrays per [`Traced`] level, outermost first.
    pub levels: Vec<Spans>,
    pub core: ProcessStats,
    pub swim: SwimStats,
    /// Every id a detector evicted, with multiplicity.
    pub evicted: Vec<ProcessId>,
    /// Deliveries seen by the outermost [`Traced`] level.
    pub delivered: u64,
}

impl Harvest {
    /// Spans of the innermost level: the lpbcast core.
    pub fn core_spans(&self) -> Spans {
        self.levels.last().copied().unwrap_or_default()
    }

    /// Spans of the outermost level: what the driver's calls cost.
    pub fn outer_spans(&self) -> Spans {
        self.levels.first().copied().unwrap_or_default()
    }

    fn add_spans(&mut self, level: usize, spans: &Spans) {
        if self.levels.len() <= level {
            self.levels.resize(level + 1, Spans::default());
        }
        for (total, span) in self.levels[level].iter_mut().zip(spans) {
            total.merge(span);
        }
    }

    /// Adds another sum (the other cluster's, the departed nodes').
    pub fn absorb(&mut self, other: &Harvest) {
        for (level, spans) in other.levels.iter().enumerate() {
            self.add_spans(level, spans);
        }
        add_core(&mut self.core, &other.core);
        add_swim(&mut self.swim, &other.swim);
        self.evicted.extend_from_slice(&other.evicted);
        self.delivered += other.delivered;
    }
}

fn add_core(t: &mut ProcessStats, s: &ProcessStats) {
    t.gossips_sent += s.gossips_sent;
    t.gossips_received += s.gossips_received;
    t.events_delivered += s.events_delivered;
    t.duplicate_events += s.duplicate_events;
    t.events_published += s.events_published;
    t.ids_learned += s.ids_learned;
    t.ids_purged += s.ids_purged;
    t.events_truncated += s.events_truncated;
    t.unsubs_applied += s.unsubs_applied;
    t.subs_added += s.subs_added;
    t.retransmit_requests_sent += s.retransmit_requests_sent;
    t.retransmits_served += s.retransmits_served;
    t.retransmit_misses += s.retransmit_misses;
    t.join_requests_sent += s.join_requests_sent;
}

fn add_swim(t: &mut SwimStats, s: &SwimStats) {
    t.pings_sent += s.pings_sent;
    t.acks_received += s.acks_received;
    t.ping_reqs_sent += s.ping_reqs_sent;
    t.indirect_acks += s.indirect_acks;
    t.suspicions += s.suspicions;
    t.confirms += s.confirms;
    t.refutations += s.refutations;
}

/// A protocol stack the benchmark can look inside.
pub trait Stack: Protocol {
    fn lpbcast_mut(&mut self) -> &mut Lpbcast;
    /// Adds this node's counters and spans to `sum`; `level` is the
    /// number of [`Traced`] wrappers already passed on the way in.
    fn harvest(&self, level: usize, sum: &mut Harvest);
}

impl Stack for Lpbcast {
    fn lpbcast_mut(&mut self) -> &mut Lpbcast {
        self
    }

    fn harvest(&self, _level: usize, sum: &mut Harvest) {
        add_core(&mut sum.core, self.stats());
    }
}

impl<P: Stack> Stack for Swim<P> {
    fn lpbcast_mut(&mut self) -> &mut Lpbcast {
        self.inner_mut().lpbcast_mut()
    }

    fn harvest(&self, level: usize, sum: &mut Harvest) {
        add_swim(&mut sum.swim, self.swim_stats());
        sum.evicted.extend_from_slice(self.evictions());
        self.inner().harvest(level, sum);
    }
}

impl<P: Stack> Stack for Traced<P>
where
    P::Msg: Classify,
{
    fn lpbcast_mut(&mut self) -> &mut Lpbcast {
        self.inner.lpbcast_mut()
    }

    fn harvest(&self, level: usize, sum: &mut Harvest) {
        sum.add_spans(level, &self.spans);
        if level == 0 {
            sum.delivered += self.delivered;
        }
        self.inner.harvest(level + 1, sum);
    }
}

impl<P: Stack> Stack for WireTraced<P> {
    fn lpbcast_mut(&mut self) -> &mut Lpbcast {
        self.0.lpbcast_mut()
    }

    fn harvest(&self, level: usize, sum: &mut Harvest) {
        self.0.harvest(level, sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpbcast_core::{Config, HistoryMode};
    use lpbcast_membership::SwimConfig;
    use lpbcast_net::wire::{decode, encode};

    fn config() -> Config {
        Config::builder()
            .view_size(4)
            .fanout(2)
            .history_mode(HistoryMode::Compact)
            .deliver_on_digest(true)
            .build()
    }

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn ring(n: u64, me: u64) -> Vec<ProcessId> {
        (1..=3).map(|d| pid((me + d) % n)).collect()
    }

    /// Runs `rounds` synchronous rounds over `nodes`, with a broadcast
    /// from node 0 every other round, and returns a transcript of every
    /// output: (round, node, deliveries, learnt ids, encoded sends).
    fn transcript<P>(mut nodes: Vec<P>, rounds: u64) -> Vec<String>
    where
        P: Protocol,
        P::Msg: WireMessage,
    {
        let mut lines = Vec::new();
        let mut record = |round: u64, who: ProcessId, out: &Output<P::Msg>| {
            let sends: Vec<String> = out
                .outgoing
                .iter()
                .map(|(to, m)| format!("{to}:{:?}", encode(m).to_vec()))
                .collect();
            lines.push(format!(
                "{round} {who} {:?} {:?} {sends:?}",
                out.delivered, out.learned_ids
            ));
        };
        for round in 0..rounds {
            if round % 2 == 0 {
                let (_, out) = nodes[0].broadcast(Payload::from_static(b"transparent"));
                record(round, pid(0), &out);
            }
            let mut inbox: Vec<(ProcessId, ProcessId, P::Msg)> = Vec::new();
            for node in &mut nodes {
                let out = node.tick();
                record(round, node.id(), &out);
                inbox.extend(out.outgoing.into_iter().map(|(to, m)| (node.id(), to, m)));
            }
            while let Some((from, to, msg)) = inbox.pop() {
                let node = &mut nodes[to.as_index()];
                let out = node.handle_message(from, msg);
                record(round, to, &out);
                inbox.extend(out.outgoing.into_iter().map(|(next, m)| (to, next, m)));
            }
        }
        lines
    }

    fn bare(n: u64) -> Vec<Lpbcast> {
        (0..n)
            .map(|i| Lpbcast::with_initial_view(pid(i), config(), 7 + i, ring(n, i)))
            .collect()
    }

    #[test]
    fn traced_is_transparent_with_timing_off_and_on() {
        let reference = transcript(bare(8), 12);
        assert!(reference
            .iter()
            .any(|l| l.contains("transparent") || l.contains("Event")));
        for on in [false, true] {
            set_timing(on);
            let traced = transcript(bare(8).into_iter().map(Traced::new).collect(), 12);
            set_timing(false);
            assert_eq!(traced, reference, "timing = {on}");
        }
    }

    #[test]
    fn nested_traced_swim_is_transparent() {
        let swim = |inner: Vec<Lpbcast>| -> Vec<Swim<Lpbcast>> {
            inner
                .into_iter()
                .map(|p| Swim::new(p, SwimConfig::default(), 3))
                .collect()
        };
        let reference = transcript(swim(bare(8)), 12);
        set_timing(true);
        let nested: Vec<Traced<Swim<Traced<Lpbcast>>>> = bare(8)
            .into_iter()
            .map(|p| Traced::new(Swim::new(Traced::new(p), SwimConfig::default(), 3)))
            .collect();
        let traced = transcript(nested, 12);
        set_timing(false);
        assert_eq!(traced, reference);
    }

    #[test]
    fn traced_counts_and_times_by_class() {
        set_timing(true);
        let mut a = Traced::new(Lpbcast::with_initial_view(pid(0), config(), 1, [pid(1)]));
        let mut b = Traced::new(Lpbcast::with_initial_view(pid(1), config(), 2, [pid(0)]));
        a.broadcast(Payload::from_static(b"x"));
        let out = a.tick();
        for (_, msg) in out.outgoing {
            b.handle_message(pid(0), msg);
        }
        b.handle_message(pid(0), Message::Subscribe { subscriber: pid(5) });
        set_timing(false);
        let mut sum = Harvest::default();
        a.harvest(0, &mut sum);
        b.harvest(0, &mut sum);
        let spans = sum.core_spans();
        assert_eq!(spans[TICK].calls, 1);
        assert_eq!(spans[BROADCAST].calls, 1);
        assert_eq!(spans[HANDLE_GOSSIP].calls, 1);
        assert_eq!(spans[HANDLE_SUBSCRIBE].calls, 1);
        assert_eq!(spans[HANDLE_PULL].calls, 0);
        assert_eq!(sum.delivered, 1, "b delivered a's event once");
        assert_eq!(sum.core.events_delivered, 1);
    }

    #[test]
    fn traced_msg_encodes_and_decodes_like_the_bare_message() {
        let mut a = Lpbcast::with_initial_view(pid(0), config(), 1, [pid(1), pid(2)]);
        a.broadcast(Payload::from_static(b"codec"));
        let mut messages: Vec<Message> = a.tick().outgoing.into_iter().map(|(_, m)| m).collect();
        messages.push(Message::Subscribe { subscriber: pid(9) });
        messages.push(Message::RetransmitRequest {
            ids: vec![EventId::new(pid(0), 0)],
        });
        set_timing(true);
        let _ = take_wire_spans();
        for message in &messages {
            let bare_bytes = encode(message);
            let traced = TracedMsg(message.clone());
            let traced_bytes = encode(&traced);
            assert_eq!(traced_bytes, bare_bytes);
            assert_eq!(traced.encoded_len(), message.encoded_len());
            assert_eq!(traced.body_key(), message.body_key());
            let back: TracedMsg<Message> = decode(&traced_bytes).expect("decodes");
            assert_eq!(encode(&back.0), bare_bytes);
        }
        set_timing(false);
        let spans = take_wire_spans();
        assert_eq!(spans.encode.calls, messages.len() as u64);
        assert_eq!(spans.decode.calls, messages.len() as u64);
        assert_eq!(spans.encoded_len.calls, messages.len() as u64);
        // Encoded bytes exclude the two-byte frame header; decoded ones too.
        assert_eq!(spans.encode_bytes, spans.decode_bytes);
        assert!(spans.encode_bytes > 0);
    }

    #[test]
    fn traced_meter_measures_what_the_product_meter_measures() {
        let mut a = Lpbcast::with_initial_view(pid(0), config(), 1, [pid(1), pid(2)]);
        a.broadcast(Payload::from_static(b"meter"));
        let messages: Vec<Message> = a.tick().outgoing.into_iter().map(|(_, m)| m).collect();
        let mut product = lpbcast_net::wire_meter::<Message>();
        let mut traced = traced_wire_meter::<Message>();
        set_timing(true);
        let _ = take_wire_spans();
        for m in &messages {
            assert_eq!(traced(m), product(m));
        }
        set_timing(false);
        let spans = take_wire_spans();
        assert_eq!(spans.meter.calls, 2);
        assert_eq!(spans.encoded_len.calls, 1, "fanout copies share one body");
    }
}
