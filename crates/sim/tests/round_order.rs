//! Differential pin of the engine's delivery round. `Engine::step`
//! handles each generation grouped by destination; this test holds it to
//! a reference written here that handles every generation front to back
//! over the same public loss and fault models. A toy protocol logs each
//! message it handles under one sequence number shared by all nodes and
//! draws its replies from its own rng, so any change in what a node
//! handles, or in what order, shows up in its log.

use std::{cell::Cell, collections::BTreeMap, rc::Rc};

use lpbcast_sim::{Engine, FaultPlane, InfectionTracker, NetworkModel, WireAccounting};
use lpbcast_types::{EventId, Output, Payload, ProcessId, Protocol};

/// The engine's reply-chasing depth: generations handled per round.
const CHASE_DEPTH: usize = 4;
const N: u64 = 24;

/// `(hop, tag)`: replies go up to `CHASE_DEPTH` hops, so the last
/// generation's replies spill into the next round.
type Ping = (usize, u64);

struct Toy {
    id: ProcessId,
    rng: u64,
    seq: Rc<Cell<u64>>,
    /// `(shared sequence number, sender, message)` per handled message.
    log: Vec<(u64, ProcessId, Ping)>,
}

impl Toy {
    fn send(&mut self, out: &mut Output<Ping>, to: Option<ProcessId>, hop: usize) {
        self.rng = self.rng.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
        let draw = self.rng >> 33;
        let other = ProcessId::new((self.id.as_u64() + 1 + draw % (N - 1)) % N);
        out.send(to.unwrap_or(other), (hop, draw >> 5));
    }
}

impl Protocol for Toy {
    type Msg = Ping;
    fn id(&self) -> ProcessId {
        self.id
    }
    fn tick(&mut self) -> Output<Ping> {
        let mut out = Output::new();
        (0..3).for_each(|_| self.send(&mut out, None, 0));
        out
    }
    fn handle_message(&mut self, from: ProcessId, (hop, tag): Ping) -> Output<Ping> {
        let mut out = Output::new();
        out.learned_ids.push(event(tag % 4));
        if hop < CHASE_DEPTH && tag % 3 != 0 {
            self.send(&mut out, Some(from), hop + 1);
            self.send(&mut out, None, hop + 1);
        }
        self.seq.set(self.seq.get() + 1);
        self.log.push((self.seq.get(), from, (hop, tag)));
        out
    }
    fn broadcast(&mut self, _: Payload) -> (EventId, Output<Ping>) {
        (event(self.id.as_u64()), Output::new())
    }
    fn view_members(&self) -> Vec<ProcessId> {
        Vec::new()
    }
}

fn event(origin: u64) -> EventId {
    EventId::new(ProcessId::new(origin), 0)
}

fn toys(seq: &Rc<Cell<u64>>) -> Vec<Toy> {
    let toy = |i| Toy {
        id: ProcessId::new(i),
        rng: i,
        seq: seq.clone(),
        log: Vec::new(),
    };
    (0..N).map(toy).collect()
}

fn measure(&(hop, tag): &Ping) -> usize {
    2 + hop + (tag % 5) as usize
}

/// Delays and duplicates a fifth of the copies each.
fn plane() -> FaultPlane {
    FaultPlane::new(
        "seed=9;duplicate=0.2;delay=0.2;delay_max=2"
            .parse()
            .unwrap(),
        3,
    )
}

/// `(sender, destination slab index, message, fate already decided)`.
type Copy = (ProcessId, usize, Ping, bool);
/// The nodes, the tracker, the meter totals and the `(round, generation)`
/// of each node's handles, in order.
type Run = (
    Vec<Toy>,
    InfectionTracker,
    WireAccounting,
    Vec<Vec<(u64, usize)>>,
);

/// The queue-order round, run for `rounds`: every copy is fated and then
/// handled, front to back.
fn reference(rounds: u64) -> Run {
    let mut nodes = toys(&Rc::new(Cell::new(0)));
    let (mut net, plane, mut fault_seq) = (NetworkModel::new(0.3, 5), plane(), 0);
    let (mut tracker, mut meter) = (InfectionTracker::new(), WireAccounting::default());
    let (mut pending, mut delayed) = (Vec::<Copy>::new(), Vec::<(u64, Copy)>::new());
    let mut at = vec![Vec::new(); N as usize];
    (0..4).for_each(|k| tracker.record_publish(event(k), ProcessId::new(k), 0));
    for round in 1..=rounds {
        let mut sightings = Vec::new();
        let mut absorb = |from: usize, out: Output<Ping>, into: &mut Vec<Copy>| {
            let from = ProcessId::new(from as u64);
            sightings.extend(out.learned_ids.iter().map(|&id| (id, from)));
            for (to, msg) in out.outgoing {
                (meter.messages, meter.bytes) =
                    (meter.messages + 1, meter.bytes + measure(&msg) as u64);
                into.push((from, to.as_u64() as usize, msg, false));
            }
        };
        let mut queue = std::mem::take(&mut pending);
        let due;
        (due, delayed) = delayed.into_iter().partition(|(r, _)| *r <= round);
        queue.extend(due.into_iter().map(|(_, copy): (u64, Copy)| copy));
        (0..N as usize).for_each(|i| absorb(i, nodes[i].tick(), &mut queue));
        for generation in 0..CHASE_DEPTH {
            let mut replies = Vec::new();
            for (from, to, msg, fated) in std::mem::take(&mut queue) {
                if !fated {
                    if !net.delivers() {
                        continue;
                    }
                    let fate = plane.fate(from, ProcessId::new(to as u64), round, fault_seq);
                    fault_seq += 1;
                    if let Some(off) = fate.duplicate {
                        delayed.push((round + off, (from, to, msg, true)));
                    }
                    let Some(off) = fate.primary else { continue };
                    if off > 0 {
                        delayed.push((round + off, (from, to, msg, true)));
                        continue;
                    }
                }
                at[to].push((round, generation));
                absorb(to, nodes[to].handle_message(from, msg), &mut replies);
            }
            queue = replies;
        }
        pending = queue;
        for (id, p) in sightings.drain(..) {
            tracker.record_seen_at(id, p, round);
        }
    }
    (nodes, tracker, meter, at)
}

#[test]
fn grouped_round_matches_the_queue_order_round() {
    let seq = Rc::new(Cell::new(0));
    let mut engine = Engine::builder(NetworkModel::new(0.3, 5))
        .fault_plane(plane())
        .wire_meter(measure)
        .nodes(toys(&seq))
        .build();
    for k in 0..4 {
        engine.publish_from(ProcessId::new(k), Payload::from_static(b"x"));
    }
    engine.run(12);
    let (nodes, tracker, meter, at) = reference(12);

    assert_eq!(engine.wire_accounting(), Some(meter));
    // Each node's handles per `(round, generation, node)`, by the
    // reference's generation of the matching handle.
    let mut runs = BTreeMap::<_, Vec<u64>>::new();
    let handled = |t: &Toy| t.log.iter().map(|e| (e.1, e.2)).collect::<Vec<_>>();
    for (i, (id, node)) in engine.nodes().enumerate() {
        assert_eq!(handled(node), handled(&nodes[i]), "node {id}'s handles");
        for (&(seq, ..), &(round, generation)) in node.log.iter().zip(&at[i]) {
            runs.entry((round, generation, i)).or_default().push(seq);
        }
        let latency = |t: &InfectionTracker, k| t.delivery_latency(event(k), id);
        for k in 0..4 {
            assert_eq!(
                latency(engine.tracker(), k),
                latency(&tracker, k),
                "node {id}"
            );
        }
    }
    assert!(runs.len() > 4 * N as usize, "too few generations to judge");
    for ((round, generation, node), seqs) in runs {
        let contiguous = seqs.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(
            contiguous,
            "node {node} in round {round}, generation {generation}: {seqs:?}"
        );
    }
}
