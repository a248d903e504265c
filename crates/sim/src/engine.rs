//! The synchronous-round simulation engine, generic over any sans-IO
//! [`Protocol`].
//!
//! # Hot-path layout
//!
//! Nodes live in a dense slab (`Vec<N>` in insertion order) with a
//! `ProcessId → slab index` map used only at enqueue time; every envelope
//! carries its destination's slab index, so delivery is a bounds-checked
//! array access plus one bit-test against the `alive` bitset. The three
//! envelope queues (`pending`, the in-flight queue and the reply `scratch`
//! buffer) are double-buffered across generations *and* rounds — after
//! warm-up a steady-state round performs no queue reallocation at all.
//!
//! A round runs on the calling thread. What depends on order stays in
//! queue order: the loss draws, the fault plane's sequence numbers and
//! delayed copies (a copy's fate is decided before any copy is handled),
//! each receiver's own messages, and the order in which replies join the
//! next generation's queue. What does not depend on order is grouped for
//! the cache: each generation handles its copies by ascending destination
//! slab index, so a receiver's state is fetched once per generation
//! instead of once per message. Steps of distinct receivers commute, the
//! wire meter sums exact lengths, and every sighting of a step is marked
//! at the same round, so a run is still a pure function of its seed — the
//! same function as a loop that handles the queue front to back.
//! Parallelism lives one level up: sweeps fan independent engines out
//! over the rayon pool ([`crate::experiment::Sweep`]).

use std::collections::VecDeque;
use std::ops::Range;

use lpbcast_membership::ViewGraph;
use lpbcast_types::{EventId, Output, Payload, ProcessId, Protocol};

use crate::fault::FaultPlane;
use crate::metrics::InfectionTracker;
use crate::network::{CrashPlan, NetworkModel};
use lpbcast_types::FastMap;

/// How many reply generations (solicit → serve → absorb …) are chased
/// within one round. The paper assumes network latency below the gossip
/// period (§4.1), so a full pull exchange completes inside a round.
const CHASE_DEPTH: usize = 4;

/// A queued message copy. The destination is pre-resolved to a slab
/// index; the sender stays a `ProcessId` because that is what the
/// receiving state machine wants to see.
#[derive(Debug, Clone)]
struct Envelope<M> {
    from: ProcessId,
    to: u32,
    /// The copy's place in queue order while its generation is handled
    /// out of that order: a survivor's position among the generation's
    /// survivors, or a reply's position in the next generation's queue
    /// (see [`Engine::step`]). Meaningless while the copy waits in a queue.
    pos: u32,
    msg: M,
}

/// Cumulative transport-cost totals of an engine run (see
/// [`Engine::wire_accounting`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireAccounting {
    /// Message copies offered to the network (each fanout copy counts).
    pub messages: u64,
    /// Total encoded wire bytes of those copies.
    pub bytes: u64,
}

/// Optional per-message byte meter: a measuring closure (typically
/// `lpbcast_net::wire_meter`, which returns exact codec frame lengths
/// with once-per-`Arc`-body caching) plus the running totals.
struct WireMeter<M> {
    measure: Box<dyn FnMut(&M) -> usize>,
    totals: WireAccounting,
}

impl<M> WireMeter<M> {
    #[inline]
    fn record(&mut self, msg: &M) {
        self.totals.messages += 1;
        self.totals.bytes += (self.measure)(msg) as u64;
    }
}

impl<M> std::fmt::Debug for WireMeter<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireMeter")
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

/// A fixed-capacity bitset over slab indices.
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn grow_to(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    #[inline]
    fn get(&self, bit: usize) -> bool {
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }

    #[inline]
    fn set(&mut self, bit: usize) {
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    #[inline]
    fn clear(&mut self, bit: usize) {
        self.words[bit / 64] &= !(1 << (bit % 64));
    }
}

/// Synchronous-round simulator: each round, every alive node gossips once
/// (§5.1), messages suffer Bernoulli loss, and deliveries are tracked.
///
/// The engine drives any [`Protocol`] implementation directly —
/// `Engine<Lpbcast>`, `Engine<Pbcast>` and `Engine<Swim<Lpbcast>>` are
/// the same machinery; protocol steps speak the unified
/// [`Output`] envelope.
#[derive(Debug)]
pub struct Engine<P: Protocol> {
    /// Dense node slab, insertion order.
    nodes: Vec<P>,
    /// Process id of each slab entry (parallel to `nodes`).
    ids: Vec<ProcessId>,
    /// Tracker slot of each slab entry (parallel to `nodes`), interned
    /// when the node enters the slab.
    slots: Vec<u32>,
    /// Reverse map, consulted once per enqueued message.
    index: FastMap<ProcessId, u32>,
    /// Liveness bit per slab entry.
    alive: BitSet,
    alive_count: usize,
    /// Alive process ids, maintained sorted incrementally: membership
    /// changes pay one binary search + memmove instead of every
    /// `alive_ids` consumer paying an O(n log n) snapshot sort per round
    /// (the churn scenario reads this every round at n = 10⁴).
    alive_sorted: Vec<ProcessId>,
    network: NetworkModel,
    crash_plan: CrashPlan,
    tracker: InfectionTracker,
    round: u64,
    /// Messages published outside a step (first-phase multicasts) plus
    /// replies spilling past [`CHASE_DEPTH`], queued into the next round.
    pending: VecDeque<Envelope<P::Msg>>,
    /// Reply buffer reused across generations and rounds.
    scratch: VecDeque<Envelope<P::Msg>>,
    /// The replies of each survivor that replied, as `(survivor's queue
    /// position, start, end)` in the reply buffer. Reused across
    /// generations and rounds.
    reply_runs: Vec<(u32, u32, u32)>,
    /// Per-step delivery sightings as `(event, tracker slot of the
    /// node)`, recorded into the tracker as one batch at the end of the
    /// step (a record probe and a cell write each). Reused across rounds.
    sightings: Vec<(EventId, u32)>,
    /// Optional wire-byte meter over every offered message copy.
    meter: Option<WireMeter<P::Msg>>,
    /// Optional correlated fault model layered on top of the uniform
    /// [`NetworkModel`] loss.
    fault_plane: Option<FaultPlane>,
    /// Monotone per-delivery-attempt counter feeding the fault plane's
    /// stateless hash (separates copies sharing `(from, to, round)`).
    fault_seq: u64,
    /// Copies the fault plane deferred: `(due_round, envelope)`,
    /// insertion-ordered, drained into delivery when due. Their fate is
    /// decided already, so one message never faces loss or delay
    /// jeopardy twice.
    delayed: Vec<(u64, Envelope<P::Msg>)>,
}

/// Staged construction of an [`Engine`]: the network model plus every
/// optional engine-level knob (crash schedule, wire meter, fault plane,
/// pre-seeded nodes) in one fluent value.
///
/// Replaced the former `Engine::new` + `set_*` sprawl. Protocol-level
/// configuration (history mode, view sizes, initial topology) stays
/// where it lives: in each protocol's own config, applied to the nodes
/// passed to [`nodes`](EngineBuilder::nodes) / added after `build`.
pub struct EngineBuilder<P: Protocol> {
    network: NetworkModel,
    crash_plan: CrashPlan,
    meter: Option<WireMeter<P::Msg>>,
    fault_plane: Option<FaultPlane>,
    nodes: Vec<P>,
}

impl<P: Protocol> EngineBuilder<P> {
    /// Starts a builder over the given uniform loss model.
    pub fn new(network: NetworkModel) -> Self {
        EngineBuilder {
            network,
            crash_plan: CrashPlan::none(),
            meter: None,
            fault_plane: None,
            nodes: Vec::new(),
        }
    }

    /// Schedules correlated crashes (default: none).
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Installs a wire-byte meter: `measure` is called once per message
    /// copy the protocols offer to the network (fanout copies included —
    /// the transport pays per destination even when the `Arc`'d body is
    /// shared and encoded once) and must return its encoded frame
    /// length. Copies addressed to departed/unknown processes still
    /// count: a real transport transmits before discovering nobody
    /// listens. Measuring must not touch any randomness — accounting
    /// cannot perturb a run.
    pub fn wire_meter(mut self, measure: impl FnMut(&P::Msg) -> usize + 'static) -> Self {
        self.meter = Some(WireMeter {
            measure: Box::new(measure),
            totals: WireAccounting::default(),
        });
        self
    }

    /// Installs a correlated fault model (see [`crate::fault`]): each
    /// message copy that survives the uniform [`NetworkModel`] loss is
    /// then subjected to the plane's per-link loss, duplication and
    /// delay decisions. Deterministic: the plane is stateless and the
    /// engine feeds it a monotone delivery sequence number.
    pub fn fault_plane(mut self, plane: FaultPlane) -> Self {
        self.fault_plane = Some(plane);
        self
    }

    /// Seeds the engine with `nodes` (equivalent to calling
    /// [`Engine::add_node`] for each, in order, after `build`).
    pub fn nodes(mut self, nodes: impl IntoIterator<Item = P>) -> Self {
        self.nodes.extend(nodes);
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Engine<P> {
        let mut engine = Engine {
            nodes: Vec::new(),
            ids: Vec::new(),
            slots: Vec::new(),
            index: FastMap::default(),
            alive: BitSet::default(),
            alive_count: 0,
            alive_sorted: Vec::new(),
            network: self.network,
            crash_plan: self.crash_plan,
            tracker: InfectionTracker::new(),
            round: 0,
            pending: VecDeque::new(),
            scratch: VecDeque::new(),
            reply_runs: Vec::new(),
            sightings: Vec::new(),
            meter: self.meter,
            fault_plane: self.fault_plane,
            fault_seq: 0,
            delayed: Vec::new(),
        };
        for node in self.nodes {
            engine.add_node(node);
        }
        engine
    }
}

impl<P: Protocol> std::fmt::Debug for EngineBuilder<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> Engine<P> {
    /// Starts an [`EngineBuilder`] — the construction path for every
    /// engine-level knob (crash plan, wire meter, fault plane).
    pub fn builder(network: NetworkModel) -> EngineBuilder<P> {
        EngineBuilder::new(network)
    }

    /// The installed fault plane, if any.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.fault_plane.as_ref()
    }

    /// Totals of the installed wire meter (`None` when no meter is set).
    pub fn wire_accounting(&self) -> Option<WireAccounting> {
        self.meter.as_ref().map(|m| m.totals)
    }

    /// Records `id` in the sorted alive list.
    fn alive_sorted_insert(&mut self, id: ProcessId) {
        if let Err(pos) = self.alive_sorted.binary_search(&id) {
            self.alive_sorted.insert(pos, id);
        }
    }

    /// Drops `id` from the sorted alive list.
    fn alive_sorted_remove(&mut self, id: ProcessId) {
        if let Ok(pos) = self.alive_sorted.binary_search(&id) {
            self.alive_sorted.remove(pos);
        }
    }

    /// Adds a node (initially alive). Re-adding an existing id replaces
    /// the node in place and revives it.
    pub fn add_node(&mut self, node: P) {
        let id = node.id();
        if let Some(&i) = self.index.get(&id) {
            let i = i as usize;
            if !self.alive.get(i) {
                self.alive.set(i);
                self.alive_count += 1;
                self.alive_sorted_insert(id);
            }
            self.nodes[i] = node;
            return;
        }
        let i = self.nodes.len();
        self.nodes.push(node);
        self.ids.push(id);
        self.slots.push(self.tracker.slot(id));
        self.index.insert(id, i as u32);
        self.alive.grow_to(i + 1);
        self.alive.set(i);
        self.alive_count += 1;
        self.alive_sorted_insert(id);
    }

    /// Immediately crashes `id`: the node stops participating; in-flight
    /// and future traffic to it is discarded. The node state is retained
    /// for post-mortem inspection.
    pub fn crash(&mut self, id: ProcessId) {
        if let Some(&i) = self.index.get(&id) {
            let i = i as usize;
            if self.alive.get(i) {
                self.alive.clear(i);
                self.alive_count -= 1;
                self.alive_sorted_remove(id);
            }
        }
    }

    /// Removes a node entirely (graceful departure after unsubscription).
    pub fn remove_node(&mut self, id: ProcessId) -> Option<P> {
        let i = *self.index.get(&id)? as usize;
        if self.alive.get(i) {
            self.alive_count -= 1;
            self.alive_sorted_remove(id);
        }
        let last = self.nodes.len() - 1;
        // The slab swap moves `last` into slot `i`: fix the bitset, the
        // reverse map, and any queued envelope that addressed either slot.
        let node = self.nodes.swap_remove(i);
        self.ids.swap_remove(i);
        self.slots.swap_remove(i);
        self.index.remove(&id);
        if i != last {
            if self.alive.get(last) {
                self.alive.set(i);
            } else {
                self.alive.clear(i);
            }
            self.index.insert(self.ids[i], i as u32);
        }
        self.alive.clear(last);
        let (i, last) = (i as u32, last as u32);
        let fixup = |e: &mut Envelope<P::Msg>| {
            if e.to == i {
                return false;
            }
            if e.to == last {
                e.to = i;
            }
            true
        };
        self.pending.retain_mut(fixup);
        // Delayed copies address slab slots too, so the swap fixes them
        // the same way.
        self.delayed.retain_mut(|(_, e)| fixup(e));
        Some(node)
    }

    /// Whether `id` is present and not crashed.
    pub fn is_alive(&self, id: ProcessId) -> bool {
        self.index
            .get(&id)
            .is_some_and(|&i| self.alive.get(i as usize))
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Ids of alive nodes, ascending. Maintained incrementally — reading
    /// it is free (no snapshot, no sort). Callers that mutate the engine
    /// while sampling copy the slice first.
    pub fn alive_ids(&self) -> &[ProcessId] {
        &self.alive_sorted
    }

    /// Immutable access to a node.
    pub fn node(&self, id: ProcessId) -> Option<&P> {
        self.index.get(&id).map(|&i| &self.nodes[i as usize])
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: ProcessId) -> Option<&mut P> {
        let i = *self.index.get(&id)?;
        Some(&mut self.nodes[i as usize])
    }

    /// Iterates over `(id, node)` pairs in slab (insertion) order.
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.ids.iter().copied().zip(self.nodes.iter())
    }

    /// The current round (completed steps).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The infection/reliability tracker.
    pub fn tracker(&self) -> &InfectionTracker {
        &self.tracker
    }

    /// The network fault model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Publishes `payload` from node `origin`; returns the event id.
    /// First-phase sends (pbcast) are queued for the next round.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is absent or crashed.
    pub fn publish_from(&mut self, origin: ProcessId, payload: Payload) -> EventId {
        assert!(self.is_alive(origin), "publisher {origin} is not alive");
        let oi = self.index[&origin] as usize;
        let (id, output) = self.nodes[oi].broadcast(payload);
        self.tracker.record_publish(id, origin, self.round);
        // A protocol may self-deliver at publish time (the trait permits
        // it even though neither in-tree protocol does): record those
        // sightings immediately at the publish round — deferring them to
        // the next step's batch would stamp them one round late.
        for seen in output
            .delivered
            .iter()
            .map(|e| e.id())
            .chain(output.learned_ids.iter().copied())
        {
            self.tracker.record_seen_at(seen, origin, self.round);
        }
        for (to, msg) in output.outgoing {
            if let Some(m) = self.meter.as_mut() {
                m.record(&msg);
            }
            if let Some(&t) = self.index.get(&to) {
                self.pending.push_back(Envelope {
                    from: origin,
                    to: t,
                    pos: 0,
                    msg,
                });
            }
        }
        id
    }

    /// Queues one message from `from` to `to`, delivered during the next
    /// call to [`step`](Engine::step) — i.e. within the *upcoming* round,
    /// alongside that round's gossip (loss and liveness apply as for any
    /// other envelope; unknown destinations are dropped). Scenario
    /// harnesses use this to inject out-of-band protocol traffic — e.g.
    /// the §3.4 `Subscribe` bridges that heal a membership partition.
    pub fn enqueue(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) {
        if let Some(m) = self.meter.as_mut() {
            m.record(&msg);
        }
        if let Some(&t) = self.index.get(&to) {
            self.pending.push_back(Envelope {
                from,
                to: t,
                pos: 0,
                msg,
            });
        }
    }

    /// The directed "knows-about" graph over the **alive** nodes' views.
    pub fn view_graph(&self) -> ViewGraph {
        ViewGraph::from_views((0..self.nodes.len()).filter_map(|i| {
            if self.alive.get(i) {
                Some((self.ids[i], self.nodes[i].view_members()))
            } else {
                None
            }
        }))
    }

    /// Absorbs the step output of slab entry `i` into the round:
    /// sightings for the tracker, outgoing copies metered (unknown
    /// destinations included — a real transport transmits before
    /// discovering nobody listens) and enqueued onto `into`. Shared by the
    /// tick and delivery loops.
    #[inline]
    fn absorb_output(
        &mut self,
        i: usize,
        out: Output<P::Msg>,
        into: &mut VecDeque<Envelope<P::Msg>>,
    ) {
        let from = self.ids[i];
        if !(out.delivered.is_empty() && out.learned_ids.is_empty()) {
            let slot = self.slots[i];
            let seen = out.delivered.iter().map(|e| e.id());
            let seen = seen.chain(out.learned_ids.iter().copied());
            self.sightings.extend(seen.map(|id| (id, slot)));
        }
        for (to, msg) in out.outgoing {
            if let Some(m) = self.meter.as_mut() {
                m.record(&msg);
            }
            if let Some(&t) = self.index.get(&to) {
                into.push_back(Envelope {
                    from,
                    to: t,
                    pos: 0,
                    msg,
                });
            }
        }
    }

    /// Decides one queued envelope's fate — liveness, uniform loss, then
    /// the optional fault plane. Called in queue order, so the loss draws
    /// and the fault sequence are a function of the seed. Returns the copy
    /// when it is to be handled now; delayed/duplicated copies are pushed
    /// onto `self.delayed` as a side effect. A `fated` copy (one the fault
    /// plane delayed or duplicated) already passed both loss models at
    /// its original delivery attempt and faces liveness only.
    #[inline]
    fn surviving(&mut self, e: Envelope<P::Msg>, fated: bool) -> Option<Envelope<P::Msg>> {
        let ti = e.to as usize;
        if !self.alive.get(ti) {
            return None;
        }
        if fated {
            return Some(e);
        }
        if !self.network.delivers() {
            return None;
        }
        if let Some(plane) = &self.fault_plane {
            let seq = self.fault_seq;
            self.fault_seq += 1;
            let fate = plane.fate(e.from, self.ids[ti], self.round, seq);
            if let Some(off) = fate.duplicate {
                self.delayed.push((self.round + off, e.clone()));
            }
            let off = fate.primary?;
            if off > 0 {
                self.delayed.push((self.round + off, e));
                return None;
            }
        }
        Some(e)
    }

    /// Pass 1 of a delivery generation: decides the fate of every copy in
    /// `queue` with [`surviving`](Self::surviving), front to back, and
    /// keeps the survivors in place and in queue order, each tagged with
    /// its position among them. `fated` is the range of queue positions
    /// whose fate the fault plane already decided.
    fn fate_in_place(&mut self, queue: &mut VecDeque<Envelope<P::Msg>>, fated: Range<usize>) {
        let mut survivors = 0;
        for at in 0..queue.len() {
            let Some(e) = queue.pop_front() else { break };
            if let Some(mut e) = self.surviving(e, fated.contains(&at)) {
                e.pos = survivors;
                survivors += 1;
                queue.push_back(e);
            }
        }
    }

    /// Runs one synchronous round:
    ///
    /// 1. apply scheduled crashes;
    /// 2. every alive node ticks once, emitting its gossip (§3.3);
    /// 3. queued + emitted messages are delivered (loss applies), and
    ///    reply chains are chased for a bounded number of generations
    ///    within the round (the paper's latency-below-`T` assumption,
    ///    §4.1).
    ///
    /// Each delivery generation makes three passes over its queue:
    /// every copy's fate is decided in queue order; the survivors are
    /// handled by ascending destination slab index, each destination's
    /// copies in queue order; and the replies are put back in the order
    /// a front-to-back loop would have produced them — by their cause's
    /// queue position, then by output order — so the next generation's
    /// fates fall on the same copies.
    pub fn step(&mut self) {
        self.round += 1;

        // Split borrows: the crash list stays borrowed from `crash_plan`
        // while the liveness fields are updated (the sorted-list removal
        // is inlined rather than a `&mut self` call for that reason), so
        // no clone is needed.
        for &victim in self.crash_plan.crashes_at(self.round) {
            if let Some(&i) = self.index.get(&victim) {
                let i = i as usize;
                if self.alive.get(i) {
                    self.alive.clear(i);
                    self.alive_count -= 1;
                    if let Ok(pos) = self.alive_sorted.binary_search(&victim) {
                        self.alive_sorted.remove(pos);
                    }
                }
            }
        }

        // Phase A: periodic gossip from every alive node (slab order).
        // `pending` moves into the working queue; its buffer is handed
        // back at the end of the step, so capacity ping-pongs forever.
        let mut queue = std::mem::take(&mut self.pending);

        // Fault-plane-deferred copies due this round join the working
        // queue, moved out of `delayed` in insertion order (determinism).
        let round = self.round;
        let first_fated = queue.len();
        queue.extend(
            self.delayed
                .extract_if(.., |(due, _)| *due <= round)
                .map(|(_, e)| e),
        );
        let mut fated = first_fated..queue.len();

        for i in 0..self.nodes.len() {
            if !self.alive.get(i) {
                continue;
            }
            let out = self.nodes[i].tick();
            self.absorb_output(i, out, &mut queue);
        }

        // Phase B: delivery with bounded reply chasing.
        for _generation in 0..CHASE_DEPTH {
            if queue.is_empty() {
                break;
            }
            self.fate_in_place(&mut queue, std::mem::take(&mut fated));
            // Each receiver's copies together, in queue order.
            queue
                .make_contiguous()
                .sort_unstable_by_key(|e| (e.to, e.pos));
            self.scratch.clear();
            let mut replies = std::mem::take(&mut self.scratch);
            for envelope in queue.drain(..) {
                let ti = envelope.to as usize;
                let out = self.nodes[ti].handle_message(envelope.from, envelope.msg);
                let start = replies.len();
                self.absorb_output(ti, out, &mut replies);
                if replies.len() > start {
                    let run = (envelope.pos, start as u32, replies.len() as u32);
                    self.reply_runs.push(run);
                }
            }
            into_queue_order(&mut replies, &mut self.reply_runs);
            self.scratch = std::mem::replace(&mut queue, replies);
        }
        // Replies beyond the chase depth spill into the next round.
        self.pending = queue;

        // One batched tracker update for the whole step (drains and
        // reuses the sightings buffer).
        self.tracker
            .record_slot_batch(self.round, &mut self.sightings);
    }

    /// Runs `rounds` consecutive steps.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }
}

/// Pass 3 of a delivery generation: puts `replies` in the order a loop
/// handling the generation front to back would have produced them — by
/// their cause's queue position, then by output order. `runs` holds each
/// cause's replies as `(cause's position, start, end)`, each run in
/// output order; it is left empty.
fn into_queue_order<M>(replies: &mut VecDeque<Envelope<M>>, runs: &mut Vec<(u32, u32, u32)>) {
    let replies = replies.make_contiguous();
    // Causes are distinct, so this orders the runs by cause alone.
    runs.sort_unstable();
    let mut next = 0;
    for (_, start, end) in runs.drain(..) {
        for e in &mut replies[start as usize..end as usize] {
            e.pos = next;
            next += 1;
        }
    }
    // Follow each permutation cycle: every swap parks one reply.
    for i in 0..replies.len() {
        while replies[i].pos as usize != i {
            let j = replies[i].pos as usize;
            replies.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpbcast_core::{Config, Lpbcast};
    use lpbcast_membership::View as _;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    /// A tiny fully-meshed lpbcast cluster. Digest deliveries follow the
    /// paper's §5.2 measurement convention (a received id counts as a
    /// received notification) so that full-infection assertions depend on
    /// connectivity, not on every node catching the payload during its
    /// one-shot push window.
    fn cluster_nodes(n: u64, seed: u64) -> Vec<Lpbcast> {
        let config = Config::builder()
            .view_size(n as usize - 1)
            .fanout(2.min(n as usize - 1))
            .deliver_on_digest(true)
            .build();
        (0..n)
            .map(|i| {
                let members = (0..n).filter(|&j| j != i).map(pid);
                Lpbcast::with_initial_view(pid(i), config.clone(), seed.wrapping_add(i), members)
            })
            .collect()
    }

    fn cluster_with(
        n: u64,
        seed: u64,
        tune: impl FnOnce(EngineBuilder<Lpbcast>) -> EngineBuilder<Lpbcast>,
    ) -> Engine<Lpbcast> {
        tune(Engine::builder(NetworkModel::perfect(seed)))
            .nodes(cluster_nodes(n, seed))
            .build()
    }

    fn cluster(n: u64, seed: u64) -> Engine<Lpbcast> {
        cluster_with(n, seed, |b| b)
    }

    #[test]
    fn single_event_infects_small_cluster() {
        let mut engine = cluster(8, 7);
        let id = engine.publish_from(pid(0), Payload::from_static(b"x"));
        engine.run(10);
        assert_eq!(
            engine.tracker().infected_count(id),
            8,
            "full infection in a mesh"
        );
    }

    #[test]
    fn crashed_nodes_receive_nothing() {
        let mut engine = cluster(6, 3);
        engine.crash(pid(5));
        assert_eq!(engine.alive_count(), 5);
        let id = engine.publish_from(pid(0), Payload::from_static(b"x"));
        engine.run(10);
        assert_eq!(engine.tracker().infected_count(id), 5);
        assert!(!engine.tracker().has_seen(id, pid(5)));
    }

    #[test]
    fn crash_plan_applies_at_scheduled_round() {
        let config = Config::builder().view_size(5).fanout(2).build();
        let mut plan = CrashPlan::none();
        plan.schedule(3, pid(1));
        let mut engine = Engine::builder(NetworkModel::perfect(1))
            .crash_plan(plan)
            .nodes((0..4).map(|i| {
                let members = (0..4).filter(|&j| j != i).map(pid);
                Lpbcast::with_initial_view(pid(i), config.clone(), i, members)
            }))
            .build();
        engine.run(2);
        assert!(engine.is_alive(pid(1)));
        engine.step();
        assert!(!engine.is_alive(pid(1)), "crashed at round 3");
    }

    #[test]
    #[should_panic(expected = "not alive")]
    fn publish_from_crashed_panics() {
        let mut engine = cluster(3, 1);
        engine.crash(pid(0));
        let _ = engine.publish_from(pid(0), Payload::from_static(b"x"));
    }

    #[test]
    fn lossy_network_still_converges_with_redundancy() {
        let config = Config::builder()
            .view_size(7)
            .fanout(3)
            .deliver_on_digest(true)
            .build();
        let n = 16u64;
        let mut engine = Engine::builder(NetworkModel::new(0.3, 5))
            .nodes((0..n).map(|i| {
                let members = (0..n).filter(|&j| j != i).map(pid);
                Lpbcast::with_initial_view(pid(i), config.clone(), 100 + i, members)
            }))
            .build();
        let id = engine.publish_from(pid(0), Payload::from_static(b"x"));
        engine.run(25);
        assert!(
            engine.tracker().infected_count(id) >= 15,
            "gossip redundancy defeats 30% loss: {}",
            engine.tracker().infected_count(id)
        );
        assert!(
            engine.network().dropped_count() > 0,
            "loss actually happened"
        );
    }

    #[test]
    fn view_graph_reflects_current_views() {
        let engine = cluster(5, 2);
        let g = engine.view_graph();
        assert_eq!(g.node_count(), 5);
        assert!(!g.is_partitioned(), "full mesh is connected");
    }

    #[test]
    fn removed_node_is_gone() {
        let mut engine = cluster(4, 9);
        assert!(engine.remove_node(pid(3)).is_some());
        assert!(engine.remove_node(pid(3)).is_none());
        assert_eq!(engine.alive_count(), 3);
        assert!(engine.node(pid(3)).is_none());
    }

    #[test]
    fn removal_keeps_slab_consistent() {
        // Remove a middle node: the last slab entry is swapped into its
        // slot, and routing/liveness must follow it.
        let mut engine = cluster(6, 13);
        engine.crash(pid(5));
        assert!(engine.remove_node(pid(2)).is_some());
        assert_eq!(engine.alive_count(), 4);
        assert!(!engine.is_alive(pid(5)), "crash state follows the swap");
        assert!(engine.is_alive(pid(4)));
        assert_eq!(engine.alive_ids(), vec![pid(0), pid(1), pid(3), pid(4)]);
        let id = engine.publish_from(pid(0), Payload::from_static(b"x"));
        engine.run(10);
        assert_eq!(engine.tracker().infected_count(id), 4);
        assert!(!engine.tracker().has_seen(id, pid(5)));
    }

    #[test]
    fn enqueue_delivers_next_round() {
        let mut engine = cluster(4, 21);
        engine.enqueue(
            pid(3),
            pid(0),
            lpbcast_core::Message::Subscribe { subscriber: pid(3) },
        );
        // Unknown destination: silently dropped, no panic.
        engine.enqueue(
            pid(3),
            pid(99),
            lpbcast_core::Message::Subscribe { subscriber: pid(3) },
        );
        engine.step();
        assert!(
            engine.node(pid(0)).unwrap().view().contains(pid(3)),
            "injected Subscribe was handled"
        );
    }

    #[test]
    fn nodes_can_join_mid_run() {
        // Runtime add_node: the slab grows, the newcomer participates in
        // later rounds, and routing stays consistent.
        let mut engine = cluster(5, 17);
        engine.run(3);
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .deliver_on_digest(true)
            .build();
        engine.add_node(Lpbcast::joining(pid(9), config, 77, vec![pid(0), pid(1)]));
        assert_eq!(engine.alive_count(), 6);
        engine.run(6);
        assert!(
            !engine.node(pid(9)).unwrap().is_joining(),
            "join handshake completed through the engine"
        );
        let id = engine.publish_from(pid(0), Payload::from_static(b"x"));
        engine.run(8);
        assert!(
            engine.tracker().has_seen(id, pid(9)),
            "mid-run joiner receives broadcasts"
        );
    }

    #[test]
    fn wire_meter_counts_every_offered_copy() {
        let mut engine = cluster_with(6, 3, |b| b.wire_meter(|_| 10));
        assert_eq!(
            engine.wire_accounting(),
            Some(super::WireAccounting::default())
        );
        engine.publish_from(pid(0), Payload::from_static(b"x"));
        engine.run(5);
        let accounting = engine.wire_accounting().expect("meter installed");
        assert!(accounting.messages > 0, "gossip was offered");
        assert_eq!(
            accounting.bytes,
            accounting.messages * 10,
            "bytes are the sum of measured frame lengths"
        );
        // Copies to crashed nodes still count (the transport pays for
        // them), and metering never perturbs the run itself.
        let mut metered = cluster_with(8, 11, |b| b.wire_meter(lpbcast_net::wire_meter()));
        let mut plain = cluster(8, 11);
        let id_a = metered.publish_from(pid(0), Payload::from_static(b"x"));
        let id_b = plain.publish_from(pid(0), Payload::from_static(b"x"));
        metered.run(6);
        plain.run(6);
        assert_eq!(
            metered.tracker().infected_count(id_a),
            plain.tracker().infected_count(id_b),
            "metered and unmetered runs are identical"
        );
        let exact = metered.wire_accounting().unwrap();
        assert!(exact.bytes > exact.messages, "real frames exceed 1 byte");
    }

    #[test]
    fn determinism_same_seed_same_infection_curve() {
        let run = |seed| {
            let mut engine = cluster(10, seed);
            let id = engine.publish_from(pid(0), Payload::from_static(b"x"));
            let mut curve = Vec::new();
            for _ in 0..8 {
                engine.step();
                curve.push(engine.tracker().infected_count(id));
            }
            curve
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn removal_retargets_fault_delayed_copies() {
        // Every copy lags two rounds, so the two Subscribes below wait in
        // `delayed` while the slab swap happens. A view of 8 leaves room
        // for the newcomers, so a handled Subscribe stays visible.
        let lag = crate::fault::FaultSpec {
            slow_nodes: 1.0,
            slow_delay: 2,
            ..crate::fault::FaultSpec::default()
        };
        let config = Config::builder().view_size(8).fanout(2).build();
        let mut engine = Engine::builder(NetworkModel::perfect(4))
            .fault_plane(FaultPlane::new(lag, 4))
            .nodes((0..6).map(|i| {
                let members = (0..6).filter(|&j| j != i).map(pid);
                Lpbcast::with_initial_view(pid(i), config.clone(), i, members)
            }))
            .build();
        let subscribe = |id| lpbcast_core::Message::Subscribe {
            subscriber: pid(id),
        };
        let waiting = |engine: &Engine<Lpbcast>| {
            engine
                .delayed
                .iter()
                .filter(|(_, e)| matches!(e.msg, lpbcast_core::Message::Subscribe { .. }))
                .count()
        };
        engine.enqueue(pid(0), pid(5), subscribe(42));
        engine.enqueue(pid(0), pid(2), subscribe(43));
        engine.step();
        assert_eq!(waiting(&engine), 2, "both copies were delayed");

        // pid(5) leaves the last slot for pid(2)'s.
        assert!(engine.remove_node(pid(2)).is_some());
        assert_eq!(waiting(&engine), 1, "the removed node's copy is dropped");
        engine.run(2);
        assert!(
            engine.node(pid(5)).unwrap().view().contains(pid(42)),
            "the moved node handles the copy delayed to it"
        );
        assert!(
            engine.nodes().all(|(_, n)| !n.view().contains(pid(43))),
            "nobody handles the removed node's copy"
        );
    }

    /// The construction pin (successor of the PR 7 wrapper-equivalence
    /// test, whose deprecated arm is gone with the wrappers): two
    /// engines built through the same builder chain are observably
    /// identical.
    #[test]
    fn builder_construction_is_deterministic() {
        let make = || {
            let mut plan = CrashPlan::none();
            plan.schedule(4, pid(7));
            let mut engine: Engine<Lpbcast> = Engine::builder(NetworkModel::new(0.1, 5))
                .crash_plan(plan)
                .wire_meter(lpbcast_net::wire_meter())
                .fault_plane(crate::fault::FaultPlane::new(
                    crate::fault::FaultSpec::noisy_links(3),
                    3,
                ))
                .build();
            for node in cluster_nodes(9, 5) {
                engine.add_node(node);
            }
            let id = engine.publish_from(pid(0), Payload::from_static(b"x"));
            engine.run(6);
            (
                engine.tracker().infected_count(id),
                engine.wire_accounting(),
                engine.network().delivered_count(),
                engine.network().dropped_count(),
            )
        };
        assert_eq!(make(), make());
    }
}
