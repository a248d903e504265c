//! Differential test of `Swim`'s bookkeeping: the detector, whose member
//! table is an id-sorted `Vec` merged against the inner view and whose
//! update queue answers "is this subject queued?" from a set, against a
//! model that keeps the table in a `BTreeMap`, finds queued subjects with
//! a linear scan and re-checks `dead` on every confirmation.
//!
//! The rewrite is a speed-up and nothing else, so the two must agree on
//! everything observable after every step: the member ids, incarnations
//! and suspicions, every outgoing message (piggybacked updates included,
//! which is where the queue shows), the inner protocol's `evict` calls in
//! order, `evictions()`, the dead set and every `SwimStats` counter. The
//! RNG is read off the probe targets and proxy choices. CI runs this in
//! release, where `confirm`'s `debug_assert!` is compiled out, with
//! `PROPTEST_CASES=4096`.

use std::collections::BTreeMap;

use lpbcast_membership::{Swim, SwimConfig, SwimMsg, SwimStats, Update, UpdateState};
use lpbcast_types::{
    Event, EventId, MembershipEvent, OldestFirstBuffer, Output, Payload, ProcessId, Protocol,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The node under test.
const ME: ProcessId = ProcessId::new(0);

/// Ids the steps draw from: small enough that views name this node,
/// confirmed-dead ids come back in views, and updates hit members.
const POOL: u64 = 10;

fn id() -> impl Strategy<Value = ProcessId> {
    (0..POOL).prop_map(ProcessId::new)
}

/// An inner protocol whose view the test sets before each tick. It logs
/// every `evict`, sends to the first two view entries on a tick, and
/// answers a wrapped message with a delivery, a membership event and,
/// for an even payload, a reply: enough traffic for updates to ride.
#[derive(Debug)]
struct Scripted {
    id: ProcessId,
    view: Vec<ProcessId>,
    evicted: Vec<ProcessId>,
    sent: u8,
}

impl Scripted {
    fn new(id: ProcessId) -> Self {
        Scripted {
            id,
            view: Vec::new(),
            evicted: Vec::new(),
            sent: 0,
        }
    }
}

impl Protocol for Scripted {
    type Msg = u8;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn tick(&mut self) -> Output<u8> {
        let mut out = Output::new();
        for &p in self.view.iter().take(2) {
            self.sent = self.sent.wrapping_add(1);
            out.send(p, self.sent);
        }
        out
    }

    fn handle_message(&mut self, from: ProcessId, msg: u8) -> Output<u8> {
        let mut out = Output::new();
        out.delivered
            .push(Event::new(EventId::new(from, u64::from(msg)), &b""[..]));
        out.membership.push(MembershipEvent::Joined(from));
        if msg.is_multiple_of(2) {
            out.send(from, msg.wrapping_add(1));
        }
        out
    }

    fn broadcast(&mut self, _: Payload) -> (EventId, Output<u8>) {
        (EventId::new(self.id, 0), Output::new())
    }

    fn view_members(&self) -> Vec<ProcessId> {
        self.view.clone()
    }

    fn evict(&mut self, process: ProcessId) {
        self.evicted.push(process);
        self.view.retain(|&p| p != process);
    }
}

// ── The model: the tree-and-scan bookkeeping, otherwise `Swim` as is ──

fn supersedes(new: &Update, old: &Update) -> bool {
    match (new.state, old.state) {
        (UpdateState::Confirm, UpdateState::Confirm) => false,
        (UpdateState::Confirm, _) => true,
        (_, UpdateState::Confirm) => false,
        (UpdateState::Suspect, UpdateState::Alive) => new.incarnation >= old.incarnation,
        (UpdateState::Alive, UpdateState::Suspect) => new.incarnation > old.incarnation,
        _ => new.incarnation > old.incarnation,
    }
}

#[derive(Debug, Clone, Copy)]
enum Status {
    Alive,
    Suspect { deadline: u64, first_hand: bool },
}

#[derive(Debug, Clone, Copy)]
struct MemberState {
    incarnation: u64,
    status: Status,
}

#[derive(Debug, Clone, Copy)]
enum ProbePhase {
    Direct,
    Indirect,
}

#[derive(Debug, Clone, Copy)]
struct Probe {
    target: ProcessId,
    phase: ProbePhase,
    deadline: u64,
}

#[derive(Debug, Clone)]
struct QueuedUpdate {
    update: Update,
    remaining: u32,
}

type Msg = SwimMsg<u8>;

/// One `Swim::member_states` item: id, incarnation, suspicion.
type MemberRow = (ProcessId, u64, Option<(u64, bool)>);

struct Model {
    inner: Scripted,
    cfg: SwimConfig,
    rng: SmallRng,
    self_id: ProcessId,
    incarnation: u64,
    ticks: u64,
    members: BTreeMap<ProcessId, MemberState>,
    dead: OldestFirstBuffer<ProcessId>,
    gossip: Vec<QueuedUpdate>,
    gossip_cursor: usize,
    probe_queue: Vec<ProcessId>,
    probe: Option<Probe>,
    eviction_log: Vec<ProcessId>,
    stats: SwimStats,
}

impl Model {
    fn new(inner: Scripted, cfg: SwimConfig, seed: u64) -> Self {
        let self_id = inner.id();
        Model {
            rng: SmallRng::seed_from_u64(
                seed ^ self_id.as_u64().wrapping_mul(0x5357_494D_9E37_79B9),
            ),
            self_id,
            inner,
            dead: OldestFirstBuffer::new(cfg.dead_max),
            cfg,
            incarnation: 0,
            ticks: 0,
            members: BTreeMap::new(),
            gossip: Vec::new(),
            gossip_cursor: 0,
            probe_queue: Vec::new(),
            probe: None,
            eviction_log: Vec::new(),
            stats: SwimStats::default(),
        }
    }

    /// `Swim::member_states`, off the tree.
    fn member_states(&self) -> Vec<MemberRow> {
        self.members
            .iter()
            .map(|(p, st)| {
                let suspicion = match st.status {
                    Status::Alive => None,
                    Status::Suspect {
                        deadline,
                        first_hand,
                    } => Some((deadline, first_hand)),
                };
                (*p, st.incarnation, suspicion)
            })
            .collect()
    }

    fn take_piggyback(&mut self) -> Vec<Update> {
        if self.gossip.is_empty() {
            return Vec::new();
        }
        let len = self.gossip.len();
        let take = self.cfg.piggyback_max.min(len);
        let mut out = Vec::with_capacity(take);
        let mut exhausted = false;
        let mut send = |entry: &mut QueuedUpdate| {
            out.push(entry.update);
            entry.remaining = entry.remaining.saturating_sub(1);
            exhausted |= entry.remaining == 0;
        };
        send(&mut self.gossip[0]);
        if take > 1 {
            let span = len - 1;
            if self.gossip_cursor >= span {
                self.gossip_cursor = 0;
            }
            let start = self.gossip_cursor;
            for i in 0..take - 1 {
                send(&mut self.gossip[1 + (start + i) % span]);
            }
            self.gossip_cursor = (start + take - 1) % span;
        }
        if exhausted {
            self.gossip.retain(|e| e.remaining > 0);
        }
        out
    }

    fn enqueue_update(&mut self, update: Update) {
        if let Some(entry) = self
            .gossip
            .iter_mut()
            .find(|e| e.update.subject == update.subject)
        {
            if supersedes(&update, &entry.update) {
                entry.update = update;
                entry.remaining = self.cfg.retransmit;
            }
            return;
        }
        if self.gossip.len() >= self.cfg.gossip_max {
            let refuting = self.gossip[0].update.subject == self.self_id;
            self.gossip
                .remove(usize::from(refuting && self.gossip.len() > 1));
        }
        self.gossip.push(QueuedUpdate {
            update,
            remaining: self.cfg.retransmit,
        });
    }

    fn enqueue_refutation(&mut self, update: Update) {
        self.gossip.retain(|e| e.update.subject != update.subject);
        if self.gossip.len() >= self.cfg.gossip_max {
            self.gossip.pop();
        }
        self.gossip.insert(
            0,
            QueuedUpdate {
                update,
                remaining: self.cfg.retransmit,
            },
        );
    }

    fn apply_update(&mut self, from: ProcessId, update: Update) {
        if update.subject == self.self_id {
            if !matches!(update.state, UpdateState::Alive) && update.incarnation >= self.incarnation
            {
                self.incarnation = update.incarnation + 1;
                self.stats.refutations += 1;
                self.enqueue_refutation(Update {
                    subject: self.self_id,
                    incarnation: self.incarnation,
                    state: UpdateState::Alive,
                });
            }
            return;
        }
        if update.subject == from && !matches!(update.state, UpdateState::Alive) {
            return;
        }
        if self.dead.contains(&update.subject) {
            return;
        }
        match update.state {
            UpdateState::Confirm => self.confirm(update.subject, update.incarnation),
            UpdateState::Alive => {
                if let Some(st) = self.members.get_mut(&update.subject) {
                    if update.incarnation > st.incarnation {
                        st.incarnation = update.incarnation;
                        st.status = Status::Alive;
                        self.enqueue_update(update);
                    }
                }
            }
            UpdateState::Suspect => {
                let deadline = self.ticks + self.cfg.suspect_timeout + self.cfg.hearsay_slack;
                if let Some(st) = self.members.get_mut(&update.subject) {
                    let overrides = update.incarnation > st.incarnation
                        || (update.incarnation == st.incarnation
                            && matches!(st.status, Status::Alive));
                    if overrides {
                        st.incarnation = update.incarnation;
                        if !matches!(st.status, Status::Suspect { .. }) {
                            st.status = Status::Suspect {
                                deadline,
                                first_hand: false,
                            };
                            self.stats.suspicions += 1;
                        }
                        self.enqueue_update(update);
                    }
                }
            }
        }
    }

    fn confirm(&mut self, p: ProcessId, incarnation: u64) {
        if self.dead.contains(&p) {
            return;
        }
        self.members.remove(&p);
        self.dead.insert(p);
        self.dead.truncate_oldest();
        self.inner.evict(p);
        self.eviction_log.push(p);
        self.stats.confirms += 1;
        if self.probe.map(|pr| pr.target) == Some(p) {
            self.probe = None;
        }
        self.enqueue_update(Update {
            subject: p,
            incarnation,
            state: UpdateState::Confirm,
        });
    }

    fn note_alive(&mut self, p: ProcessId) {
        if let Some(st) = self.members.get_mut(&p) {
            if matches!(st.status, Status::Suspect { .. }) {
                st.status = Status::Alive;
            }
        }
        if self.probe.map(|pr| pr.target) == Some(p) {
            self.probe = None;
        }
    }

    fn refresh_members(&mut self) {
        let mut view = self.inner.view_members();
        view.sort_unstable();
        view.dedup();
        for &p in &view {
            if p == self.self_id {
                continue;
            }
            if self.dead.contains(&p) {
                self.inner.evict(p);
                continue;
            }
            self.members.entry(p).or_insert(MemberState {
                incarnation: 0,
                status: Status::Alive,
            });
        }
        let probe_target = self.probe.map(|pr| pr.target);
        self.members.retain(|p, st| {
            view.binary_search(p).is_ok()
                || matches!(st.status, Status::Suspect { .. })
                || Some(*p) == probe_target
        });
    }

    fn next_probe_target(&mut self) -> Option<ProcessId> {
        for _ in 0..2 {
            while let Some(p) = self.probe_queue.pop() {
                if self.members.contains_key(&p) {
                    return Some(p);
                }
            }
            self.probe_queue = self.members.keys().copied().collect();
            self.probe_queue.shuffle(&mut self.rng);
            if self.probe_queue.is_empty() {
                return None;
            }
        }
        None
    }

    fn suspect(&mut self, target: ProcessId, out: &mut Output<Msg>) {
        let deadline = self.ticks + self.cfg.suspect_timeout;
        if let Some(st) = self.members.get_mut(&target) {
            let was_alive = matches!(st.status, Status::Alive);
            if !was_alive
                && !matches!(
                    st.status,
                    Status::Suspect {
                        first_hand: false,
                        ..
                    }
                )
            {
                return;
            }
            st.status = Status::Suspect {
                deadline,
                first_hand: true,
            };
            if was_alive {
                self.stats.suspicions += 1;
            }
            let incarnation = st.incarnation;
            let accusation = Update {
                subject: target,
                incarnation,
                state: UpdateState::Suspect,
            };
            self.enqueue_update(accusation);
            let mut updates = self.take_piggyback();
            updates.retain(|u| u.subject != target);
            updates.insert(0, accusation);
            out.send(target, SwimMsg::Ping { updates });
        }
    }

    fn probe_step(&mut self, out: &mut Output<Msg>) {
        let now = self.ticks;
        if let Some(probe) = self.probe {
            if now >= probe.deadline {
                match probe.phase {
                    ProbePhase::Direct => {
                        let proxies: Vec<ProcessId> = self
                            .members
                            .iter()
                            .filter(|(p, st)| {
                                **p != probe.target && matches!(st.status, Status::Alive)
                            })
                            .map(|(p, _)| *p)
                            .collect();
                        let chosen: Vec<ProcessId> = proxies
                            .choose_multiple(&mut self.rng, self.cfg.proxies)
                            .copied()
                            .collect();
                        if chosen.is_empty() {
                            self.probe = None;
                            self.suspect(probe.target, out);
                        } else {
                            self.stats.ping_reqs_sent += 1;
                            for proxy in chosen {
                                let updates = self.take_piggyback();
                                out.send(
                                    proxy,
                                    SwimMsg::PingReq {
                                        target: probe.target,
                                        updates,
                                    },
                                );
                            }
                            self.probe = Some(Probe {
                                target: probe.target,
                                phase: ProbePhase::Indirect,
                                deadline: now + self.cfg.indirect_timeout,
                            });
                        }
                    }
                    ProbePhase::Indirect => {
                        self.probe = None;
                        self.suspect(probe.target, out);
                    }
                }
            }
        }

        let mut due = Vec::new();
        let mut pending_first_hand = Vec::new();
        for (p, st) in self.members.iter_mut() {
            if let Status::Suspect {
                deadline,
                first_hand,
            } = st.status
            {
                if deadline > now {
                    if first_hand {
                        pending_first_hand.push((*p, st.incarnation));
                    }
                } else if first_hand {
                    due.push((*p, st.incarnation));
                } else {
                    st.status = Status::Alive;
                }
            }
        }
        for (p, incarnation) in due {
            self.confirm(p, incarnation);
        }
        for (p, incarnation) in pending_first_hand {
            let accusation = Update {
                subject: p,
                incarnation,
                state: UpdateState::Suspect,
            };
            let mut updates = self.take_piggyback();
            updates.retain(|u| u.subject != p);
            updates.insert(0, accusation);
            out.send(p, SwimMsg::Ping { updates });
        }

        if self.probe.is_none() && now.is_multiple_of(self.cfg.ping_period) {
            if let Some(target) = self.next_probe_target() {
                self.stats.pings_sent += 1;
                let updates = self.take_piggyback();
                out.send(target, SwimMsg::Ping { updates });
                self.probe = Some(Probe {
                    target,
                    phase: ProbePhase::Direct,
                    deadline: now + self.cfg.ack_timeout,
                });
            }
        }
    }

    fn wrap_output(&mut self, from_inner: Output<u8>, out: &mut Output<Msg>) {
        out.delivered.extend(from_inner.delivered);
        out.learned_ids.extend(from_inner.learned_ids);
        out.membership.extend(from_inner.membership);
        for (to, inner) in from_inner.outgoing {
            let updates = self.take_piggyback();
            out.send(to, SwimMsg::Wrapped { inner, updates });
        }
    }

    fn tick(&mut self) -> Output<Msg> {
        self.ticks += 1;
        let mut out = Output::new();
        self.refresh_members();
        self.probe_step(&mut out);
        let inner_out = self.inner.tick();
        self.wrap_output(inner_out, &mut out);
        out
    }

    fn handle_message(&mut self, from: ProcessId, msg: Msg) -> Output<Msg> {
        let mut out = Output::new();
        self.note_alive(from);
        for &update in msg.updates() {
            self.apply_update(from, update);
        }
        match msg {
            SwimMsg::Wrapped { inner, .. } => {
                let inner_out = self.inner.handle_message(from, inner);
                self.wrap_output(inner_out, &mut out);
            }
            SwimMsg::Ping { .. } => {
                let updates = self.take_piggyback();
                out.send(from, SwimMsg::Ack { updates });
            }
            SwimMsg::Ack { .. } => {
                self.stats.acks_received += 1;
            }
            SwimMsg::PingReq { target, .. } => {
                let updates = self.take_piggyback();
                out.send(
                    target,
                    SwimMsg::ProxyPing {
                        origin: from,
                        updates,
                    },
                );
            }
            SwimMsg::ProxyPing { origin, .. } => {
                let updates = self.take_piggyback();
                out.send(from, SwimMsg::ProxyAck { origin, updates });
            }
            SwimMsg::ProxyAck { origin, .. } => {
                let updates = self.take_piggyback();
                out.send(
                    origin,
                    SwimMsg::IndirectAck {
                        target: from,
                        updates,
                    },
                );
            }
            SwimMsg::IndirectAck { target, .. } => {
                self.stats.indirect_acks += 1;
                self.note_alive(target);
            }
        }
        out
    }

    fn evict(&mut self, process: ProcessId) {
        self.members.remove(&process);
        self.dead.insert(process);
        self.dead.truncate_oldest();
        if self.probe.map(|pr| pr.target) == Some(process) {
            self.probe = None;
        }
        self.inner.evict(process);
    }
}

// ── The run ─────────────────────────────────────────────────────────────

/// One step: a tick over a freshly set inner view, a received message,
/// or a driver eviction.
#[derive(Debug, Clone)]
enum Step {
    Tick(Vec<ProcessId>),
    Receive {
        from: ProcessId,
        kind: u8,
        other: ProcessId,
        updates: Vec<Update>,
    },
    Evict(ProcessId),
}

fn update() -> impl Strategy<Value = Update> {
    (id(), 0u64..4, 0u8..3).prop_map(|(subject, incarnation, state)| Update {
        subject,
        incarnation,
        state: match state {
            0 => UpdateState::Alive,
            1 => UpdateState::Suspect,
            _ => UpdateState::Confirm,
        },
    })
}

/// Four ticks, five receptions and one eviction in ten steps.
fn step() -> impl Strategy<Value = Step> {
    (
        0u8..10,
        vec(id(), 0..8),
        (id(), 0u8..7, id()),
        vec(update(), 0..5),
    )
        .prop_map(|(pick, view, (from, kind, other), updates)| match pick {
            0..=3 => Step::Tick(view),
            4..=8 => Step::Receive {
                from,
                kind,
                other,
                updates,
            },
            _ => Step::Evict(other),
        })
}

/// Every message kind, `other` naming the probe target or the origin.
fn message(kind: u8, other: ProcessId, updates: Vec<Update>) -> Msg {
    match kind {
        0 => SwimMsg::Wrapped {
            inner: other.as_u64() as u8 * 2,
            updates,
        },
        1 => SwimMsg::Ping { updates },
        2 => SwimMsg::Ack { updates },
        3 => SwimMsg::PingReq {
            target: other,
            updates,
        },
        4 => SwimMsg::ProxyPing {
            origin: other,
            updates,
        },
        5 => SwimMsg::ProxyAck {
            origin: other,
            updates,
        },
        _ => SwimMsg::IndirectAck {
            target: other,
            updates,
        },
    }
}

prop_compose! {
    /// Small budgets, so queues overflow, dead ids are forgotten, and
    /// every timeout expires within a run.
    fn config()(
        ping_period in 1u64..=3,
        proxies in 1usize..=3,
        timeouts in (1u64..=2, 1u64..=2, 1u64..=4, 0u64..=3),
        piggyback_max in 1usize..=5,
        retransmit in 1u32..=4,
        gossip_max in 1usize..=8,
        dead_max in 1usize..=6,
    ) -> SwimConfig {
        let (ack_timeout, indirect_timeout, suspect_timeout, hearsay_slack) = timeouts;
        SwimConfig {
            ping_period,
            proxies,
            ack_timeout,
            indirect_timeout,
            suspect_timeout,
            hearsay_slack,
            piggyback_max,
            retransmit,
            gossip_max,
            dead_max,
        }
    }
}

proptest! {
    #[test]
    fn sorted_table_and_subject_set_match_the_tree_and_scan_model(
        cfg in config(),
        seed in any::<u64>(),
        steps in vec(step(), 1..80),
    ) {
        let mut real = Swim::new(Scripted::new(ME), cfg.clone(), seed);
        let mut model = Model::new(Scripted::new(ME), cfg, seed);
        for (at, step) in steps.iter().enumerate() {
            let (got, want) = match step {
                Step::Tick(view) => {
                    real.inner_mut().view = view.clone();
                    model.inner.view = view.clone();
                    (real.tick(), model.tick())
                }
                Step::Receive { from, kind, other, updates } => {
                    let msg = message(*kind, *other, updates.clone());
                    (real.handle_message(*from, msg.clone()), model.handle_message(*from, msg))
                }
                Step::Evict(p) => {
                    real.evict(*p);
                    model.evict(*p);
                    (Output::new(), Output::new())
                }
            };
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "output, step {}", at);
            prop_assert_eq!(real.member_states().collect::<Vec<_>>(), model.member_states());
            prop_assert_eq!(&real.inner().evicted, &model.inner.evicted, "evict calls");
            prop_assert_eq!(real.evictions(), &model.eviction_log[..]);
            prop_assert_eq!(real.swim_stats(), &model.stats);
            prop_assert_eq!(real.incarnation(), model.incarnation);
            for p in (0..POOL).map(ProcessId::new) {
                prop_assert_eq!(real.is_dead(p), model.dead.contains(&p), "dead {}", p);
            }
        }
    }
}
