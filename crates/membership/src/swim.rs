//! SWIM-style failure detection as a [`Protocol`] wrapper.
//!
//! The paper's §3.4 machinery handles *departures* (explicit
//! unsubscriptions) but not *failures*: a crashed process simply fades
//! out of bounded partial views, which is why catastrophe recovery is
//! slow — dead view entries keep soaking up gossip fanout until view
//! rotation happens to purge them. [`Swim`] adds the missing active
//! layer, following the SWIM failure detector (Das, Gupta, Motivala,
//! DSN 2002), the de-facto companion of gossip dissemination:
//!
//! * **periodic ping** — each gossip period the wrapper probes one
//!   member (randomized round-robin over the wrapped protocol's view);
//! * **indirect ping-req** — a missed ack escalates to `k` proxy
//!   members which ping the target on the prober's behalf, so a lossy
//!   or asymmetric link cannot alone condemn a healthy process;
//! * **suspect / confirm with incarnation numbers** — an unreachable
//!   member is *suspected* (and the suspicion disseminated) before it
//!   is *confirmed* dead; the accused process refutes by bumping its
//!   incarnation number and announcing itself alive;
//! * **piggybacked dissemination** — membership updates ride every
//!   outgoing message, including the wrapped protocol's own gossip
//!   traffic, so detection costs almost no extra wire traffic beyond
//!   the pings themselves.
//!
//! A confirmed failure is purged from the wrapped protocol immediately
//! through [`Protocol::evict`] instead of fading out.
//!
//! `Swim<P>` itself implements [`Protocol`], so it composes with
//! lpbcast and pbcast unchanged and runs in the simulation engine, the
//! scenario suite and the UDP runtime without touching their code. Like every protocol in the workspace it is a
//! deterministic state machine: all randomness flows from one seeded
//! RNG, and member iteration uses ordered containers.

use lpbcast_types::{EventId, FastSet, OldestFirstBuffer, Output, Payload, ProcessId, Protocol};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Tuning knobs of the [`Swim`] failure detector. All timeouts are in
/// *ticks* of the wrapped protocol's gossip period `T` — the detector is
/// piggybacked on the gossip cadence and has no clock of its own.
#[derive(Debug, Clone)]
pub struct SwimConfig {
    /// Ticks between probe cycles (1 = probe one member every period).
    pub ping_period: u64,
    /// Number of proxy members asked to ping indirectly after a missed
    /// direct ack.
    pub proxies: usize,
    /// Ticks to wait for a direct ack before escalating to ping-req.
    pub ack_timeout: u64,
    /// Ticks to wait for an indirect ack before suspecting the target.
    pub indirect_timeout: u64,
    /// Ticks a suspect has to refute (via incarnation bump) before it is
    /// confirmed dead and evicted.
    pub suspect_timeout: u64,
    /// Extra ticks granted on top of `suspect_timeout` when a suspicion
    /// arrives by gossip rather than from our own failed probe: the
    /// refutation has to reach the accused and then travel back out to
    /// every holder of the rumor, a round trip that grows with the
    /// dissemination radius (scale with log₂ n, like `suspect_timeout`).
    pub hearsay_slack: u64,
    /// Maximum membership updates piggybacked on one outgoing message.
    pub piggyback_max: usize,
    /// How many outgoing messages each membership update rides before it
    /// stops being retransmitted (SWIM's λ·log n dissemination budget).
    pub retransmit: u32,
    /// Maximum queued membership updates awaiting dissemination.
    pub gossip_max: usize,
    /// Bound on the remembered-dead buffer (oldest forgotten first).
    /// Size it above the worst correlated-failure cohort expected: a
    /// forgotten dead entry can be resurrected by stale view gossip and
    /// has to be re-detected from scratch.
    pub dead_max: usize,
}

impl Default for SwimConfig {
    fn default() -> Self {
        SwimConfig {
            ping_period: 1,
            proxies: 3,
            ack_timeout: 1,
            indirect_timeout: 1,
            suspect_timeout: 4,
            hearsay_slack: 2,
            piggyback_max: 8,
            retransmit: 6,
            gossip_max: 64,
            dead_max: 4096,
        }
    }
}

impl SwimConfig {
    /// Defaults scaled to a system of `n` processes.
    ///
    /// SWIM's dissemination latency is O(log n), so the budgets racing
    /// against it must grow with it: an update must ride ~λ·log n
    /// messages to cover the group (`retransmit`, `gossip_max`), and a
    /// hearsay rumor is held long enough for the owning suspector's
    /// Confirm to arrive before the holder gives up on it
    /// (`hearsay_slack`). `suspect_timeout` itself stays flat — the
    /// refutation race is local (the suspector re-pings its suspect
    /// every tick of the window), so stretching the timeout with n only
    /// delays true eviction. `dead_max` scales linearly: it must exceed
    /// the worst correlated-failure cohort or forgotten dead entries get
    /// resurrected by stale view gossip.
    pub fn scaled(n: usize) -> Self {
        let defaults = SwimConfig::default();
        // Extra log₂ rounds past the ~2⁸-node regime the flat defaults
        // were tuned in.
        let extra = u64::from(n.max(2).ilog2().saturating_sub(8));
        SwimConfig {
            hearsay_slack: defaults.hearsay_slack + extra,
            retransmit: defaults.retransmit + extra as u32,
            // Piggyback bandwidth bounds how fast a mass-death event can
            // disseminate: a correlated crash of c·n processes produces
            // c·n Confirm updates that every survivor must receive, at
            // piggyback_max per message and ~fanout messages a round.
            // Flat 8-update messages would take O(n) rounds to carry a
            // 45% cohort at n=10⁴; scaling both the per-message budget
            // and the queue with n keeps that a constant number of
            // rounds (the wire meter prices the fatter envelopes).
            piggyback_max: defaults.piggyback_max.max(n / 64),
            gossip_max: defaults.gossip_max.max(n / 4),
            dead_max: defaults.dead_max.max(n),
            ..defaults
        }
    }
}

/// How a piggybacked [`Update`] describes its subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateState {
    /// The subject is alive at the carried incarnation (also the
    /// refutation message).
    Alive,
    /// The subject is suspected dead at the carried incarnation.
    Suspect,
    /// The subject is confirmed dead (overrides any incarnation).
    Confirm,
}

/// One piggybacked membership update: the SWIM dissemination unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// The process the update is about.
    pub subject: ProcessId,
    /// The subject's incarnation number as known to the update's origin.
    pub incarnation: u64,
    /// Claimed state.
    pub state: UpdateState,
}

/// Whether `new` carries strictly fresher information than `old` about
/// the same subject (SWIM's update-precedence rules).
fn supersedes(new: &Update, old: &Update) -> bool {
    debug_assert_eq!(new.subject, old.subject);
    match (new.state, old.state) {
        (UpdateState::Confirm, UpdateState::Confirm) => false,
        (UpdateState::Confirm, _) => true,
        (_, UpdateState::Confirm) => false,
        (UpdateState::Suspect, UpdateState::Alive) => new.incarnation >= old.incarnation,
        (UpdateState::Alive, UpdateState::Suspect) => new.incarnation > old.incarnation,
        _ => new.incarnation > old.incarnation,
    }
}

/// The wire messages of the detector. `Wrapped` carries the inner
/// protocol's traffic; everything else is SWIM's own probe machinery.
/// Every variant piggybacks a bounded batch of membership [`Update`]s.
#[derive(Debug, Clone)]
pub enum SwimMsg<M> {
    /// The wrapped protocol's own message, with updates riding along.
    Wrapped {
        /// The inner protocol's message.
        inner: M,
        /// Piggybacked membership updates.
        updates: Vec<Update>,
    },
    /// Direct probe; the receiver answers with [`SwimMsg::Ack`].
    Ping {
        /// Piggybacked membership updates.
        updates: Vec<Update>,
    },
    /// Answer to a direct [`SwimMsg::Ping`].
    Ack {
        /// Piggybacked membership updates.
        updates: Vec<Update>,
    },
    /// Ask the receiver (a proxy) to ping `target` on the sender's
    /// behalf.
    PingReq {
        /// The unreachable process to probe indirectly.
        target: ProcessId,
        /// Piggybacked membership updates.
        updates: Vec<Update>,
    },
    /// The proxy's probe of the target, remembering the original prober.
    ProxyPing {
        /// The process that issued the [`SwimMsg::PingReq`].
        origin: ProcessId,
        /// Piggybacked membership updates.
        updates: Vec<Update>,
    },
    /// The target's answer to a [`SwimMsg::ProxyPing`], sent back to the
    /// proxy.
    ProxyAck {
        /// The process that issued the original [`SwimMsg::PingReq`].
        origin: ProcessId,
        /// Piggybacked membership updates.
        updates: Vec<Update>,
    },
    /// The proxy forwarding a successful indirect probe to the original
    /// prober.
    IndirectAck {
        /// The probed process that answered.
        target: ProcessId,
        /// Piggybacked membership updates.
        updates: Vec<Update>,
    },
}

impl<M> SwimMsg<M> {
    /// The piggybacked updates of any variant.
    pub fn updates(&self) -> &[Update] {
        match self {
            SwimMsg::Wrapped { updates, .. }
            | SwimMsg::Ping { updates }
            | SwimMsg::Ack { updates }
            | SwimMsg::PingReq { updates, .. }
            | SwimMsg::ProxyPing { updates, .. }
            | SwimMsg::ProxyAck { updates, .. }
            | SwimMsg::IndirectAck { updates, .. } => updates,
        }
    }
}

/// Lifetime counters of one [`Swim`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwimStats {
    /// Direct pings sent.
    pub pings_sent: u64,
    /// Direct acks received for an outstanding probe.
    pub acks_received: u64,
    /// Ping-req escalations issued (missed direct acks).
    pub ping_reqs_sent: u64,
    /// Indirect acks received for an outstanding probe.
    pub indirect_acks: u64,
    /// Members moved to suspect state (local timeout or gossip).
    pub suspicions: u64,
    /// Members confirmed dead and evicted.
    pub confirms: u64,
    /// Times *this* process refuted a suspicion about itself.
    pub refutations: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Alive,
    /// `first_hand` records whether *our own* probe of the subject
    /// failed, or we merely heard the rumor. Only a first-hand suspector
    /// confirms at the deadline (SWIM's suspicion owner); a hearsay
    /// holder whose deadline passes without a Confirm arriving drops the
    /// rumor instead — otherwise every holder races the refutation
    /// independently and one lost ack anywhere condemns a live process
    /// irreversibly network-wide.
    Suspect {
        deadline: u64,
        first_hand: bool,
    },
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

/// A SWIM failure detector wrapped around any [`Protocol`].
///
/// The wrapper relays the inner protocol's lifecycle unchanged (its
/// messages travel inside [`SwimMsg::Wrapped`] envelopes) and adds the
/// probe/suspect/confirm machinery on top. Confirmed failures are
/// purged from the inner protocol immediately via [`Protocol::evict`].
///
/// # Example
///
/// ```
/// use lpbcast_membership::{Swim, SwimConfig};
/// use lpbcast_types::{Output, Payload, ProcessId, Protocol};
/// # #[derive(Debug)]
/// # struct Dummy(ProcessId);
/// # impl Protocol for Dummy {
/// #     type Msg = u8;
/// #     fn id(&self) -> ProcessId { self.0 }
/// #     fn tick(&mut self) -> Output<u8> { Output::new() }
/// #     fn handle_message(&mut self, _: ProcessId, _: u8) -> Output<u8> { Output::new() }
/// #     fn broadcast(&mut self, _: Payload) -> (lpbcast_types::EventId, Output<u8>) {
/// #         (lpbcast_types::EventId::new(self.0, 0), Output::new())
/// #     }
/// #     fn view_members(&self) -> Vec<ProcessId> { vec![ProcessId::new(1)] }
/// # }
/// let inner = Dummy(ProcessId::new(0));
/// let mut node = Swim::new(inner, SwimConfig::default(), 42);
/// let out = node.tick(); // probes one member of the inner view
/// assert!(out.outgoing.iter().any(|(to, _)| *to == ProcessId::new(1)));
/// ```
#[derive(Debug)]
pub struct Swim<P: Protocol> {
    inner: P,
    cfg: SwimConfig,
    rng: SmallRng,
    self_id: ProcessId,
    /// Own incarnation number (bumped to refute suspicions about self).
    incarnation: u64,
    ticks: u64,
    /// Tracked members (the inner view plus in-flight suspects), sorted
    /// by id with no id twice: lookups binary-search, iteration (probe
    /// order, proxy choice, the suspicion sweep) runs in ascending id
    /// order, and `refresh_members` merges the sorted inner view into it
    /// in one pass. Never holds this process or an id in `dead`.
    members: Vec<(ProcessId, MemberState)>,
    /// The previous `members` allocation, reused by the next merge.
    members_spare: Vec<(ProcessId, MemberState)>,
    /// Recently confirmed-dead processes, remembered so stale `Alive`
    /// updates cannot resurrect them (bounded, oldest forgotten first).
    dead: OldestFirstBuffer<ProcessId>,
    /// Updates awaiting piggybacked dissemination, at most one per
    /// subject.
    gossip: Vec<QueuedUpdate>,
    /// The subjects `gossip` holds an update about, so an update about a
    /// new subject is queued without a scan.
    queued: FastSet<ProcessId>,
    /// Round-robin position in `gossip` (see `take_piggyback`).
    gossip_cursor: usize,
    /// Randomized round-robin probe order.
    probe_queue: Vec<ProcessId>,
    probe: Option<Probe>,
    /// Processes this node evicted from the inner protocol on a SWIM
    /// confirmation, in confirmation order.
    eviction_log: Vec<ProcessId>,
    stats: SwimStats,
}

impl<P: Protocol> Swim<P> {
    /// Wraps `inner` with a failure detector. `seed` drives all of the
    /// detector's randomness (probe order, proxy choice); the inner
    /// protocol keeps its own RNG.
    pub fn new(inner: P, cfg: SwimConfig, seed: u64) -> Self {
        let self_id = inner.id();
        let dead = OldestFirstBuffer::new(cfg.dead_max);
        Swim {
            rng: SmallRng::seed_from_u64(
                seed ^ self_id.as_u64().wrapping_mul(0x5357_494D_9E37_79B9),
            ),
            self_id,
            inner,
            cfg,
            incarnation: 0,
            ticks: 0,
            members: Vec::new(),
            members_spare: Vec::new(),
            dead,
            gossip: Vec::new(),
            queued: FastSet::default(),
            gossip_cursor: 0,
            probe_queue: Vec::new(),
            probe: None,
            eviction_log: Vec::new(),
            stats: SwimStats::default(),
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped protocol, mutably (e.g. for scenario drivers that
    /// call protocol-specific methods like `unsubscribe`).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// The detector's configuration.
    pub fn swim_config(&self) -> &SwimConfig {
        &self.cfg
    }

    /// Lifetime detector counters.
    pub fn swim_stats(&self) -> &SwimStats {
        &self.stats
    }

    /// This process's current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Processes this node purged from the inner protocol on SWIM
    /// confirmations, in confirmation order. The scenario suite compares
    /// this log against ground truth to count false-positive evictions.
    pub fn evictions(&self) -> &[ProcessId] {
        &self.eviction_log
    }

    /// Whether `p` is currently in suspect state here.
    pub fn is_suspect(&self, p: ProcessId) -> bool {
        matches!(
            self.member(p),
            Some(MemberState {
                status: Status::Suspect { .. },
                ..
            })
        )
    }

    /// The tracked members in ascending id order, each with its
    /// incarnation and, for a suspect, `(deadline tick, first_hand)`:
    /// whether our own probe failed rather than a rumor arrived.
    pub fn member_states(
        &self,
    ) -> impl Iterator<Item = (ProcessId, u64, Option<(u64, bool)>)> + '_ {
        self.members.iter().map(|(p, st)| {
            let suspicion = match st.status {
                Status::Alive => None,
                Status::Suspect {
                    deadline,
                    first_hand,
                } => Some((deadline, first_hand)),
            };
            (*p, st.incarnation, suspicion)
        })
    }

    fn member(&self, p: ProcessId) -> Option<&MemberState> {
        let at = position(&self.members, p).ok()?;
        Some(&self.members[at].1)
    }

    fn remove_member(&mut self, p: ProcessId) {
        if let Ok(at) = position(&self.members, p) {
            self.members.remove(at);
        }
    }

    /// Whether `p` is remembered as confirmed dead here.
    pub fn is_dead(&self, p: ProcessId) -> bool {
        self.dead.contains(&p)
    }

    // ── update dissemination ─────────────────────────────────────────

    /// Drains up to `piggyback_max` queued updates onto one outgoing
    /// message, decrementing their retransmission budgets.
    ///
    /// The front of the queue is a priority slot (refutations are
    /// inserted there) and rides every message; the rest is served via a
    /// rotating cursor so consecutive messages carry *different* blocks
    /// of the queue. Without the rotation, every message re-sends the
    /// same head entries until their budgets drain, and throughput
    /// collapses to `piggyback_max` distinct updates per retransmit
    /// lifetime instead of per message — fatal when thousands of
    /// `Confirm`s must flood the cluster after a correlated crash.
    fn take_piggyback(&mut self) -> Vec<Update> {
        if self.gossip.is_empty() {
            return Vec::new();
        }
        let len = self.gossip.len();
        let take = self.cfg.piggyback_max.min(len);
        let mut out = Vec::with_capacity(take);
        // Only an entry sent here can have spent its budget, so the queue
        // (up to `gossip_max` long) is compacted only when one did.
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
            let queued = &mut self.queued;
            self.gossip.retain(|e| {
                let live = e.remaining > 0;
                if !live {
                    queued.remove(&e.update.subject);
                }
                live
            });
        }
        out
    }

    /// Queues `update` for dissemination, replacing any queued update
    /// about the same subject iff the new one supersedes it. A full queue
    /// drops its oldest entry, except this process's own refutation in
    /// the priority slot: that one is what stops its false eviction, so
    /// the entry behind it goes instead (unless it is the only one).
    fn enqueue_update(&mut self, update: Update) {
        if self.queued.contains(&update.subject) {
            if let Some(entry) = self
                .gossip
                .iter_mut()
                .find(|e| e.update.subject == update.subject)
            {
                if supersedes(&update, &entry.update) {
                    entry.update = update;
                    entry.remaining = self.cfg.retransmit;
                }
            }
            return;
        }
        if self.gossip.len() >= self.cfg.gossip_max {
            let refuting = self.gossip[0].update.subject == self.self_id;
            let oldest = usize::from(refuting && self.gossip.len() > 1);
            let dropped = self.gossip.remove(oldest);
            self.queued.remove(&dropped.update.subject);
        }
        self.queued.insert(update.subject);
        self.gossip.push(QueuedUpdate {
            update,
            remaining: self.cfg.retransmit,
        });
    }

    /// Queues a refutation about *this* process at the very front of
    /// the gossip queue: refutations race confirmation deadlines across
    /// the whole membership, so they ride the next outgoing messages
    /// ahead of everything else (SWIM gives them highest priority).
    fn enqueue_refutation(&mut self, update: Update) {
        if self.queued.contains(&update.subject) {
            self.gossip.retain(|e| e.update.subject != update.subject);
        }
        if self.gossip.len() >= self.cfg.gossip_max {
            if let Some(dropped) = self.gossip.pop() {
                self.queued.remove(&dropped.update.subject);
            }
        }
        self.queued.insert(update.subject);
        self.gossip.insert(
            0,
            QueuedUpdate {
                update,
                remaining: self.cfg.retransmit,
            },
        );
    }

    /// Applies one received update to local member state (and queues it
    /// onward when it changed anything). `from` is the sender of the
    /// message that carried the update.
    fn apply_update(&mut self, from: ProcessId, update: Update) {
        if update.subject == self.self_id {
            // Refutation: someone thinks we are suspect/dead. Bump our
            // incarnation past theirs and announce ourselves alive.
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
        // Direct evidence beats hearsay: a Suspect/Confirm rumor about
        // the very process whose message is in our hands right now is
        // stale by construction.
        if update.subject == from && !matches!(update.state, UpdateState::Alive) {
            return;
        }
        if self.dead.contains(&update.subject) {
            return; // confirmed dead stays dead
        }
        match update.state {
            UpdateState::Confirm => self.confirm(update.subject, update.incarnation),
            UpdateState::Alive => {
                if let Some(st) = member_mut(&mut self.members, update.subject) {
                    if update.incarnation > st.incarnation {
                        st.incarnation = update.incarnation;
                        st.status = Status::Alive;
                        self.enqueue_update(update);
                    }
                }
            }
            UpdateState::Suspect => {
                // Hearsay gets extra slack over a first-hand failed
                // probe: the refutation has to reach the accused and
                // then travel back out to *every* holder of the rumor,
                // so a bare suspect_timeout here would make the widest
                // dissemination radius confirm first.
                let deadline = self.ticks + self.cfg.suspect_timeout + self.cfg.hearsay_slack;
                if let Some(st) = member_mut(&mut self.members, update.subject) {
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

    /// Confirms `p` dead: purge it from the inner protocol immediately,
    /// remember it so stale updates cannot resurrect it, and disseminate
    /// the confirmation.
    ///
    /// `p` is not in `dead`: `apply_update` has already returned for a
    /// dead subject, and the suspicion sweep walks `members`, which holds
    /// no dead id.
    fn confirm(&mut self, p: ProcessId, incarnation: u64) {
        self.remove_member(p);
        let fresh = self.dead.insert(p);
        debug_assert!(fresh, "confirm of a process already dead");
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

    /// Direct evidence that `p` is alive right now (we received a message
    /// from it, or an ack about it): clear any local suspicion without
    /// touching the incarnation, and settle an outstanding probe of it.
    fn note_alive(&mut self, p: ProcessId) {
        if let Some(st) = member_mut(&mut self.members, p) {
            if matches!(st.status, Status::Suspect { .. }) {
                st.status = Status::Alive;
            }
        }
        if self.probe.map(|pr| pr.target) == Some(p) {
            self.probe = None;
        }
    }

    // ── probe machinery ──────────────────────────────────────────────

    /// Syncs the tracked member set with the inner protocol's view:
    /// adopt newcomers as alive, drop rotated-out entries unless a probe
    /// or suspicion is still in flight for them. One merge of the sorted
    /// view with the sorted members; only a view id that is not a member
    /// yet is looked up in `dead`.
    fn refresh_members(&mut self) {
        let mut view = self.inner.view_members();
        view.sort_unstable();
        view.dedup();
        let probe_target = self.probe.map(|pr| pr.target);
        let in_flight = |p: ProcessId, st: &MemberState| {
            matches!(st.status, Status::Suspect { .. }) || Some(p) == probe_target
        };
        let old = std::mem::take(&mut self.members);
        let mut merged = std::mem::take(&mut self.members_spare);
        merged.clear();
        let mut rest = old.iter().copied().peekable();
        for &p in &view {
            while let Some((q, st)) = rest.next_if(|(q, _)| *q < p) {
                if in_flight(q, &st) {
                    merged.push((q, st));
                }
            }
            if let Some(member) = rest.next_if(|(q, _)| *q == p) {
                merged.push(member);
                continue;
            }
            if p == self.self_id {
                continue;
            }
            if self.dead.contains(&p) {
                // Stale subs gossip re-admitted a confirmed-dead id into
                // the inner view. Scrub it again (silently: the eviction
                // log counts distinct confirmations, not re-scrubs) —
                // otherwise the inner protocol keeps burning fanout on
                // known-dead targets and the detector's whole advantage
                // evaporates.
                self.inner.evict(p);
                continue;
            }
            let alive = MemberState {
                incarnation: 0,
                status: Status::Alive,
            };
            merged.push((p, alive));
        }
        merged.extend(rest.filter(|(q, st)| in_flight(*q, st)));
        self.members = merged;
        self.members_spare = old;
    }

    /// The next probe target: randomized round-robin over the current
    /// members (SWIM §4.3's bounded-completeness order). Suspects stay in
    /// the rotation — a successful probe of a suspect clears the
    /// suspicion, and the probe traffic is what carries the suspicion
    /// update to the accused in small clusters.
    fn next_probe_target(&mut self) -> Option<ProcessId> {
        for _ in 0..2 {
            while let Some(p) = self.probe_queue.pop() {
                if self.member(p).is_some() {
                    return Some(p);
                }
            }
            self.probe_queue = self.members.iter().map(|(p, _)| *p).collect();
            self.probe_queue.shuffle(&mut self.rng);
            if self.probe_queue.is_empty() {
                return None;
            }
        }
        None
    }

    /// Moves `target` to suspect state after a failed (direct + indirect)
    /// probe cycle and disseminates the suspicion. The accusation is
    /// also sent *directly* to the accused: if the target is alive at
    /// all, it learns immediately and its refutation races the cluster's
    /// confirmation deadlines from round one instead of waiting for the
    /// rumor to reach it through gossip (Lifeguard's buddy refinement).
    fn suspect(&mut self, target: ProcessId, out: &mut Output<SwimMsg<P::Msg>>) {
        let deadline = self.ticks + self.cfg.suspect_timeout;
        if let Some(st) = member_mut(&mut self.members, target) {
            // A fresh suspicion, or a hearsay rumor our own failed probe
            // just corroborated — either way we now own the deadline.
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

    /// Advances the probe state machine by one tick and emits probe
    /// traffic into `out`.
    fn probe_step(&mut self, out: &mut Output<SwimMsg<P::Msg>>) {
        let now = self.ticks;

        // Escalate or give up on the outstanding probe.
        if let Some(probe) = self.probe {
            if now >= probe.deadline {
                match probe.phase {
                    ProbePhase::Direct => {
                        // Missed ack: ask k proxies to ping indirectly.
                        let proxies: Vec<ProcessId> = self
                            .members
                            .iter()
                            .filter(|(p, st)| {
                                *p != probe.target && matches!(st.status, Status::Alive)
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

        // Sweep expired suspicions. Only a first-hand suspector (our own
        // failed probe) confirms: a hearsay holder whose window passes
        // with neither a refutation nor a Confirm arriving drops the
        // rumor — the refutation it never saw may simply not have
        // reached it yet, and condemning on that is how one lost ack
        // cascades into a network-wide false eviction.
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
        // Keep pinging an accused member while its window runs: under
        // lossy links the one-shot accusation ping is not enough, and a
        // live suspect answering any of these retries refutes in time.
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

        // Start the next probe cycle.
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

    /// Re-addresses an inner output into the wrapper's envelope type,
    /// piggybacking queued updates on every outgoing message.
    fn wrap_output(&mut self, from_inner: Output<P::Msg>, out: &mut Output<SwimMsg<P::Msg>>) {
        append(&mut out.delivered, from_inner.delivered);
        append(&mut out.learned_ids, from_inner.learned_ids);
        append(&mut out.membership, from_inner.membership);
        for (to, inner) in from_inner.outgoing {
            let updates = self.take_piggyback();
            out.send(to, SwimMsg::Wrapped { inner, updates });
        }
    }
}

/// Where `p` is, or would be inserted, in an id-sorted member table.
fn position(members: &[(ProcessId, MemberState)], p: ProcessId) -> Result<usize, usize> {
    members.binary_search_by_key(&p, |(q, _)| *q)
}

/// `p`'s state in an id-sorted member table. A free function, so the
/// borrow is of the table alone.
fn member_mut(members: &mut [(ProcessId, MemberState)], p: ProcessId) -> Option<&mut MemberState> {
    let at = position(members, p).ok()?;
    Some(&mut members[at].1)
}

/// Appends `from` to `into`, moving the whole vector when `into` is empty
/// (a wrapper's fresh output always is) instead of copying its elements.
fn append<T>(into: &mut Vec<T>, mut from: Vec<T>) {
    if into.is_empty() {
        *into = from;
    } else {
        into.append(&mut from);
    }
}

impl<P: Protocol> Protocol for Swim<P> {
    type Msg = SwimMsg<P::Msg>;

    fn id(&self) -> ProcessId {
        self.self_id
    }

    fn tick(&mut self) -> Output<Self::Msg> {
        self.ticks += 1;
        let mut out = Output::new();
        self.refresh_members();
        self.probe_step(&mut out);
        let inner_out = self.inner.tick();
        self.wrap_output(inner_out, &mut out);
        out
    }

    fn handle_message(&mut self, from: ProcessId, msg: Self::Msg) -> Output<Self::Msg> {
        let mut out = Output::new();
        // Hearing from a process at all is direct liveness evidence.
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
                // note_alive(from) above already settled the probe.
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

    fn broadcast(&mut self, payload: Payload) -> (EventId, Output<Self::Msg>) {
        let (id, inner_out) = self.inner.broadcast(payload);
        let mut out = Output::new();
        self.wrap_output(inner_out, &mut out);
        (id, out)
    }

    fn view_members(&self) -> Vec<ProcessId> {
        self.inner.view_members()
    }

    fn evict(&mut self, process: ProcessId) {
        // Driver-driven eviction (e.g. an outer detector): propagate and
        // forget, but do not log it as a SWIM confirmation.
        self.remove_member(process);
        self.dead.insert(process);
        self.dead.truncate_oldest();
        if self.probe.map(|pr| pr.target) == Some(process) {
            self.probe = None;
        }
        self.inner.evict(process);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    /// A minimal inner protocol with a fixed view and no traffic of its
    /// own — isolates the SWIM state machine for the edge tests.
    #[derive(Debug)]
    struct Fixed {
        id: ProcessId,
        view: Vec<ProcessId>,
    }

    impl Fixed {
        fn new(id: u64, view: impl IntoIterator<Item = u64>) -> Self {
            Fixed {
                id: pid(id),
                view: view.into_iter().map(pid).collect(),
            }
        }
    }

    impl Protocol for Fixed {
        type Msg = u8;

        fn id(&self) -> ProcessId {
            self.id
        }

        fn tick(&mut self) -> Output<u8> {
            Output::new()
        }

        fn handle_message(&mut self, _: ProcessId, _: u8) -> Output<u8> {
            Output::new()
        }

        fn broadcast(&mut self, _: Payload) -> (EventId, Output<u8>) {
            (EventId::new(self.id, 0), Output::new())
        }

        fn view_members(&self) -> Vec<ProcessId> {
            self.view.clone()
        }

        fn evict(&mut self, process: ProcessId) {
            self.view.retain(|&p| p != process);
        }
    }

    fn cfg() -> SwimConfig {
        SwimConfig {
            proxies: 1,
            ..SwimConfig::default()
        }
    }

    /// Ticks `node` once, delivering nothing, and returns its sends.
    fn tick(node: &mut Swim<Fixed>) -> Vec<(ProcessId, SwimMsg<u8>)> {
        node.tick().outgoing
    }

    /// Delivers every message in `batch` addressed to `node`, returning
    /// the responses.
    fn deliver(
        node: &mut Swim<Fixed>,
        from: ProcessId,
        batch: Vec<(ProcessId, SwimMsg<u8>)>,
    ) -> Vec<(ProcessId, SwimMsg<u8>)> {
        let me = node.id();
        let mut replies = Vec::new();
        for (to, msg) in batch {
            if to == me {
                replies.extend(node.handle_message(from, msg).outgoing);
            }
        }
        replies
    }

    #[test]
    fn probe_ack_keeps_target_alive() {
        let mut a = Swim::new(Fixed::new(0, [1]), cfg(), 7);
        let mut b = Swim::new(Fixed::new(1, [0]), cfg(), 8);
        for _ in 0..12 {
            let sends = tick(&mut a);
            let acks = deliver(&mut b, pid(0), sends);
            deliver(&mut a, pid(1), acks);
            // b probes too; a answers.
            let sends = tick(&mut b);
            let acks = deliver(&mut a, pid(1), sends);
            deliver(&mut b, pid(0), acks);
        }
        assert!(!a.is_suspect(pid(1)) && !a.is_dead(pid(1)));
        assert!(!b.is_suspect(pid(0)) && !b.is_dead(pid(0)));
        assert!(a.swim_stats().acks_received > 0);
        assert!(a.evictions().is_empty());
    }

    #[test]
    fn silent_member_is_suspected_then_confirmed_and_evicted() {
        let mut a = Swim::new(Fixed::new(0, [1]), cfg(), 7);
        // p1 never answers anything.
        for _ in 0..16 {
            tick(&mut a);
            if a.is_dead(pid(1)) {
                break;
            }
        }
        assert!(a.is_dead(pid(1)), "silent member confirmed dead");
        assert_eq!(a.evictions(), &[pid(1)], "evicted exactly once");
        assert!(
            !a.inner().view_members().contains(&pid(1)),
            "inner view purged via Protocol::evict"
        );
        assert!(a.swim_stats().suspicions >= 1);
        assert_eq!(a.swim_stats().confirms, 1);
    }

    #[test]
    fn suspect_refutes_via_incarnation_bump() {
        let mut a = Swim::new(Fixed::new(0, [1]), cfg(), 7);
        let mut b = Swim::new(Fixed::new(1, [0]), cfg(), 8);
        // Drop all of a's probes until b is suspected (but NOT confirmed).
        while !a.is_suspect(pid(1)) {
            tick(&mut a);
            assert!(!a.is_dead(pid(1)), "suspicion must precede confirmation");
        }
        // Now b hears the suspicion (piggybacked on a's next ping) and
        // refutes with a higher incarnation.
        let sends = tick(&mut a);
        assert!(
            sends.iter().any(|(_, m)| m
                .updates()
                .iter()
                .any(|u| u.subject == pid(1) && u.state == UpdateState::Suspect)),
            "suspicion is disseminated"
        );
        tick(&mut b); // let b adopt its member set
        let replies = deliver(&mut b, pid(0), sends);
        assert_eq!(b.swim_stats().refutations, 1, "b bumped its incarnation");
        assert!(b.incarnation() > 0);
        let refuted = replies.iter().chain(tick(&mut b).iter()).any(|(_, m)| {
            m.updates().iter().any(|u| {
                u.subject == pid(1)
                    && u.state == UpdateState::Alive
                    && u.incarnation == b.incarnation()
            })
        });
        assert!(refuted, "refutation rides outgoing traffic");
        // a absorbs the refutation and clears the suspicion.
        let mut carried = deliver(&mut b, pid(0), tick(&mut a));
        carried.extend(tick(&mut b));
        deliver(&mut a, pid(1), carried);
        assert!(!a.is_suspect(pid(1)), "refutation clears suspicion");
        assert!(!a.is_dead(pid(1)));
    }

    #[test]
    fn indirect_ping_masks_a_one_way_link() {
        // Link a→b works but b's replies to a are lost; proxy c relays.
        let mut a = Swim::new(Fixed::new(0, [1, 2]), cfg(), 1);
        let mut b = Swim::new(Fixed::new(1, [0, 2]), cfg(), 2);
        let mut c = Swim::new(Fixed::new(2, [0, 1]), cfg(), 3);
        for _ in 0..24 {
            let sends = tick(&mut a);
            // Deliver a's traffic; drop every direct b→a reply.
            let b_replies = deliver(&mut b, pid(0), sends.clone());
            assert!(b_replies.iter().all(|(to, _)| *to == pid(0)));
            let c_replies = deliver(&mut c, pid(0), sends);
            // c's replies may target a (acks) or b (proxy pings).
            let b_from_c = deliver(&mut b, pid(2), c_replies.clone());
            deliver(&mut a, pid(2), c_replies);
            // b answers c's proxy ping; c forwards the indirect ack to a.
            let c_forward = deliver(&mut c, pid(1), b_from_c);
            deliver(&mut a, pid(2), c_forward);
            assert!(
                !a.is_dead(pid(1)),
                "indirect path must mask the one-way link"
            );
        }
        assert!(a.swim_stats().ping_reqs_sent > 0, "escalation exercised");
        assert!(a.swim_stats().indirect_acks > 0, "indirect ack path used");
        assert!(a.evictions().is_empty(), "no false positive");
    }

    #[test]
    fn same_seed_wrappers_are_deterministic() {
        let run = |seed: u64| {
            let mut a = Swim::new(Fixed::new(0, [1, 2, 3]), SwimConfig::default(), seed);
            let mut trace = Vec::new();
            for _ in 0..20 {
                for (to, msg) in tick(&mut a) {
                    trace.push((to, format!("{msg:?}")));
                }
            }
            trace
        };
        assert_eq!(run(5), run(5), "same seed, same probe schedule");
        assert_ne!(run(5), run(6), "different seeds diverge");
    }

    #[test]
    fn driver_evict_propagates_without_logging() {
        let mut a = Swim::new(Fixed::new(0, [1, 2]), cfg(), 7);
        tick(&mut a);
        a.evict(pid(1));
        assert!(a.is_dead(pid(1)));
        assert!(!a.inner().view_members().contains(&pid(1)));
        assert!(
            a.evictions().is_empty(),
            "driver-driven evictions are not SWIM confirmations"
        );
    }

    #[test]
    fn queue_overflow_keeps_this_nodes_refutation() {
        let cfg = SwimConfig {
            gossip_max: 4,
            piggyback_max: 1,
            ..cfg()
        };
        let mut a = Swim::new(Fixed::new(0, [1, 2]), cfg, 7);
        let confirm = |p| Update {
            subject: pid(p),
            incarnation: 0,
            state: UpdateState::Confirm,
        };
        for p in 11..=14 {
            a.enqueue_update(confirm(p));
        }
        assert_eq!(a.gossip.len(), 4, "queue full");
        // An accusation arrives; the refutation takes the priority slot.
        let accusation = Update {
            subject: pid(0),
            incarnation: 0,
            state: UpdateState::Suspect,
        };
        a.handle_message(
            pid(1),
            SwimMsg::Ping {
                updates: vec![accusation],
            },
        );
        let refutation = Update {
            subject: pid(0),
            incarnation: 1,
            state: UpdateState::Alive,
        };
        // One more update overflows the full queue.
        a.enqueue_update(confirm(15));
        let reply = a.handle_message(pid(2), SwimMsg::Ping { updates: vec![] });
        let [(_, SwimMsg::Ack { updates })] = &reply.outgoing[..] else {
            panic!("a ping is acked: {:?}", reply.outgoing);
        };
        assert_eq!(
            updates,
            &[refutation],
            "the refutation rides the next message"
        );
        assert_eq!(a.gossip.len(), 4, "the queue stays bounded");
    }

    #[test]
    fn update_precedence_rules() {
        let u = |inc, state| Update {
            subject: pid(9),
            incarnation: inc,
            state,
        };
        // Confirm beats everything, nothing beats Confirm.
        assert!(supersedes(
            &u(0, UpdateState::Confirm),
            &u(9, UpdateState::Alive)
        ));
        assert!(!supersedes(
            &u(9, UpdateState::Alive),
            &u(0, UpdateState::Confirm)
        ));
        // Suspect beats Alive at the same incarnation; Alive needs a
        // strictly higher incarnation to beat Suspect.
        assert!(supersedes(
            &u(3, UpdateState::Suspect),
            &u(3, UpdateState::Alive)
        ));
        assert!(!supersedes(
            &u(3, UpdateState::Alive),
            &u(3, UpdateState::Suspect)
        ));
        assert!(supersedes(
            &u(4, UpdateState::Alive),
            &u(3, UpdateState::Suspect)
        ));
    }
}
