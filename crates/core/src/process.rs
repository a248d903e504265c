//! The lpbcast process state machine (Figure 1 of the paper).

use std::ops::ControlFlow;

use lpbcast_membership::{PartialView, View};
use lpbcast_types::scan::IdFilter;
use lpbcast_types::{BoundedSet, Event, EventId, MembershipEvent, Payload, ProcessId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::archive::EventArchive;
use crate::config::Config;
use crate::history::EventHistory;
use crate::join::JoinState;
use crate::message::{Gossip, Message, Output};
use crate::stats::ProcessStats;
use crate::time::LogicalTime;
use crate::unsub::{UnsubDigest, UnsubscribeRefused, Unsubscription};

/// One lpbcast process: a deterministic, sans-IO state machine.
///
/// Drivers feed it [`Message`]s via [`handle_message`] and clock ticks via
/// [`tick`] (one tick per gossip period `T`); it returns [`Output`]s with
/// delivered events and messages to send. All randomness comes from an
/// internal [`SmallRng`] seeded at construction, so runs are reproducible.
///
/// [`handle_message`]: Lpbcast::handle_message
/// [`tick`]: Lpbcast::tick
#[derive(Debug)]
pub struct Lpbcast {
    id: ProcessId,
    config: Config,
    rng: SmallRng,
    now: LogicalTime,
    /// `view`: the partial membership view (max length `l`).
    view: PartialView,
    /// `subs`: subscriptions eligible for forwarding.
    subs: BoundedSet<ProcessId>,
    /// `unSubs`: unsubscriptions eligible for forwarding.
    unsubs: BoundedSet<Unsubscription>,
    /// `events`: notifications received since the last outgoing gossip.
    events: BoundedSet<Event>,
    /// `eventIds`: history of delivered notification ids.
    history: EventHistory,
    /// Older notifications kept for retransmission requests.
    archive: EventArchive,
    /// Sequence number for locally published notifications.
    next_seq: u64,
    /// In-progress §3.4 join handshake, if any.
    join: Option<JoinState>,
    /// Whether this process has unsubscribed and is winding down.
    leaving: bool,
    /// Ids already requested by a pending retransmission pull, keyed by
    /// the logical time the request went out (for the retry window).
    pending_pulls: lpbcast_types::FastMap<EventId, LogicalTime>,
    stats: ProcessStats,
}

impl Lpbcast {
    /// Creates a bootstrap member with an empty view.
    ///
    /// `seed` drives all of the process's randomness; distinct processes
    /// should get distinct seeds.
    pub fn new(id: ProcessId, config: Config, seed: u64) -> Self {
        debug_assert!(config.validate().is_ok(), "invalid config");
        let view = PartialView::new(id, config.view_size, config.strategy);
        let subs = BoundedSet::new(config.subs_max);
        let unsubs = BoundedSet::new(config.unsubs_max);
        let events = BoundedSet::new(config.events_max);
        let history = EventHistory::new(config.history_mode, config.event_ids_max);
        let archive = EventArchive::new(config.archive_capacity);
        Lpbcast {
            id,
            rng: SmallRng::seed_from_u64(seed ^ id.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            now: LogicalTime::ZERO,
            view,
            subs,
            unsubs,
            events,
            history,
            archive,
            next_seq: 0,
            join: None,
            leaving: false,
            pending_pulls: lpbcast_types::FastMap::default(),
            stats: ProcessStats::default(),
            config,
        }
    }

    /// Creates a bootstrap member whose view is pre-populated with
    /// `members` (truncated to `l` deterministically from the seed).
    pub fn with_initial_view(
        id: ProcessId,
        config: Config,
        seed: u64,
        members: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        let mut p = Lpbcast::new(id, config, seed);
        for m in members {
            p.view.insert(m);
        }
        let evicted = p.view.truncate(&mut p.rng);
        for e in evicted {
            p.subs.insert(e);
        }
        p.subs.truncate_random(&mut p.rng);
        p
    }

    /// Creates a process that joins through `contacts` (§3.4). Its first
    /// [`tick`](Lpbcast::tick) emits a [`Message::Subscribe`] to the first
    /// contact; timeouts re-emit round-robin.
    pub fn joining(id: ProcessId, config: Config, seed: u64, contacts: Vec<ProcessId>) -> Self {
        let mut p = Lpbcast::new(id, config, seed);
        // The contacts are the only processes the newcomer knows.
        for &c in &contacts {
            p.view.insert(c);
        }
        p.join = Some(JoinState::new(contacts));
        p
    }

    /// This process's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The local logical clock (ticks elapsed).
    pub fn now(&self) -> LogicalTime {
        self.now
    }

    /// The membership view.
    pub fn view(&self) -> &PartialView {
        &self.view
    }

    /// The configuration in use.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ProcessStats {
        &self.stats
    }

    /// The delivered-notification history.
    pub fn history(&self) -> &EventHistory {
        &self.history
    }

    /// Whether the §3.4 join handshake is still pending (completes upon
    /// receiving the first gossip).
    pub fn is_joining(&self) -> bool {
        self.join.is_some()
    }

    /// Whether this process has unsubscribed.
    pub fn is_leaving(&self) -> bool {
        self.leaving
    }

    /// Whether `id` has been delivered (or learnt via digest) according
    /// to the current history. Note: with
    /// [`HistoryMode::Bounded`](crate::HistoryMode::Bounded) the history
    /// forgets, so this can revert from `true` to `false`.
    pub fn has_seen(&self, id: EventId) -> bool {
        self.history.contains(id)
    }

    /// Publishes a notification (LPB-CAST): buffers it for the next
    /// outgoing gossip and returns its id.
    ///
    /// The notification is also recorded as delivered locally — the
    /// publishing application obviously has it — so the process will not
    /// re-deliver its own notification when gossiped back. (Figure 1(b)
    /// leaves this implicit; without it every publisher would deliver its
    /// own events a second time.)
    pub fn broadcast(&mut self, payload: impl Into<Payload>) -> EventId {
        let id = EventId::new(self.id, self.next_seq);
        self.next_seq += 1;
        let event = Event::new(id, payload);
        self.publish(event);
        id
    }

    /// Publishes a pre-built notification (LPB-CAST with an explicit
    /// event, useful when replaying traces). See
    /// [`broadcast`](Lpbcast::broadcast).
    pub fn publish(&mut self, event: Event) {
        self.history.insert(event.id());
        self.history.truncate();
        self.archive.store(&event);
        self.events.insert(event);
        let truncated = self.events.truncate_random(&mut self.rng);
        self.stats.events_truncated += truncated.len() as u64;
        self.stats.events_published += 1;
    }

    /// Requests departure from the system (§3.4).
    ///
    /// # Errors
    ///
    /// Refused while the local `unSubs` buffer exceeds the configured
    /// threshold, to protect the own record from truncation: *"the
    /// unsubscription of any process is refused as long as the local
    /// unsubscription buffer of the process exceeds a given size"*.
    pub fn unsubscribe(&mut self) -> Result<(), UnsubscribeRefused> {
        if self.unsubs.len() > self.config.unsub_refusal_threshold {
            return Err(UnsubscribeRefused {
                buffered: self.unsubs.len(),
                threshold: self.config.unsub_refusal_threshold,
            });
        }
        self.unsubs.insert(Unsubscription::new(self.id, self.now));
        self.leaving = true;
        Ok(())
    }

    /// Processes an incoming message.
    pub fn handle_message(&mut self, from: ProcessId, message: Message) -> Output {
        match message {
            Message::Gossip(gossip) => self.handle_gossip(&gossip),
            Message::Subscribe { subscriber } => self.handle_subscribe(subscriber),
            Message::RetransmitRequest { ids } => self.handle_retransmit_request(from, &ids),
            Message::RetransmitResponse { events } => self.handle_retransmit_response(events),
        }
    }

    /// Advances the gossip clock by one period `T` and emits the periodic
    /// gossip (Figure 1(b)) — *"this is done even if the process has not
    /// received any new notifications since it last sent a gossip
    /// message"*.
    pub fn tick(&mut self) -> Output {
        self.now = self.now.next();
        let mut output = Output::default();

        // §3.4: re-emit the subscription request on timeout.
        if let Some(join) = &mut self.join {
            let should_emit = join.attempts() == 0 || join.tick(self.config.join_timeout);
            if should_emit {
                let contact = join.take_contact();
                self.stats.join_requests_sent += 1;
                output.send(
                    contact,
                    Message::Subscribe {
                        subscriber: self.id,
                    },
                );
            }
        }

        // §4.4: periodically re-normalize the view with the prioritary
        // set. Prioritary processes are "constantly known", so the
        // overflow is taken out of the non-prioritary entries.
        if !self.config.prioritary.is_empty()
            && self.config.normalization_period > 0
            && self
                .now
                .as_u64()
                .is_multiple_of(self.config.normalization_period)
        {
            let prioritary = self.config.prioritary.clone();
            for p in prioritary {
                self.view.insert(p);
            }
            while self.view.len() > self.config.view_size {
                let candidates: Vec<ProcessId> = self
                    .view
                    .members()
                    .into_iter()
                    .filter(|p| !self.config.prioritary.contains(p))
                    .collect();
                use rand::seq::SliceRandom;
                let Some(&victim) = candidates.choose(&mut self.rng) else {
                    break; // view consists solely of prioritary processes
                };
                self.view.remove(victim);
                self.subs.insert(victim);
            }
            self.subs.truncate_random(&mut self.rng);
        }

        self.emit_gossip(&mut output);
        output
    }

    /// Builds the periodic gossip message and queues the send batch into
    /// `output` (one `Arc`'d body, `F` pointer clones).
    fn emit_gossip(&mut self, output: &mut Output) {
        let include_membership = self
            .now
            .as_u64()
            .is_multiple_of(self.config.membership_gossip_interval);

        // gossip.subs ← subs ∪ {pi}; §6.1 weighted mode tops up with
        // low-weight view entries so under-known processes circulate.
        let mut gossip_subs = Vec::new();
        if include_membership {
            gossip_subs = self.subs.to_vec();
            if !self.leaving && !gossip_subs.contains(&self.id) {
                gossip_subs.push(self.id);
            }
            if self.view.strategy() == lpbcast_membership::TruncationStrategy::Weighted {
                let room = self.config.subs_max.saturating_sub(gossip_subs.len());
                for p in self.view.select_advertised(&mut self.rng, room) {
                    if !gossip_subs.contains(&p) {
                        gossip_subs.push(p);
                    }
                }
            }
        }

        // gossip.unSubs ← unSubs, dropping obsolete records (§3.4). The
        // records travel grouped per issue timestamp (leave cohorts share
        // a logical clock value), halving the wire cost of the section
        // §3.4 says grows with the leave rate.
        let now = self.now;
        let window = self.config.unsub_obsolescence;
        self.unsubs.retain(|u| !u.is_obsolete(now, window));
        let gossip_unsubs = if include_membership {
            UnsubDigest::from_buffer(self.unsubs.to_vec())
        } else {
            UnsubDigest::new()
        };

        // gossip.events ← events; events ← ∅.
        let gossip_events = self.events.drain();

        let targets = self.view.select_targets(&mut self.rng, self.config.fanout);
        if targets.is_empty() {
            // Nothing was sent: put the drained events back so they ride
            // the next gossip instead of vanishing.
            for event in gossip_events {
                self.events.insert(event);
            }
            return;
        }
        self.stats.gossips_sent += 1;

        // One allocation for the body; every fanout copy clones the Arc.
        let gossip = std::sync::Arc::new(Gossip {
            sender: self.id,
            subs: gossip_subs,
            unsubs: gossip_unsubs,
            events: gossip_events,
            event_ids: self.history.to_digest(),
        });
        for to in targets {
            output.send(to, Message::Gossip(std::sync::Arc::clone(&gossip)));
        }
    }

    /// Figure 1(a): the three phases of gossip reception, plus digest
    /// handling (retransmission pull or the §5.2 id-absorption
    /// convention). Takes the body by reference: the same allocation may
    /// be shared with other fanout recipients.
    fn handle_gossip(&mut self, gossip: &Gossip) -> Output {
        self.stats.gossips_received += 1;
        let mut output = Output::default();

        // Receiving gossip is how a joining process learns it has been
        // admitted (§3.4: "pi will experience this by receiving more and
        // more gossip messages").
        self.join = None;

        // Phases 1–2 probe `view` and `subs` once per received id, and
        // most probes miss. A filter's "absent" answer is exact, so such
        // an id skips the scan (`push_absent`, or no `remove` at all);
        // "maybe" takes the scanning `insert`/`remove`. Either way the
        // buffers end up exactly as the scans alone would leave them.
        let mut in_view = IdFilter::from_ids(self.view.ids());
        let mut in_subs = IdFilter::from_ids(&self.subs);

        // ── Phase 1: unsubscriptions ──────────────────────────────────
        for unsub in gossip.unsubs.iter() {
            if unsub.is_obsolete(self.now, self.config.unsub_obsolescence) {
                continue;
            }
            if in_view.may_contain(unsub.process()) && self.view.remove(unsub.process()) {
                self.stats.unsubs_applied += 1;
                output
                    .membership
                    .push(MembershipEvent::Left(unsub.process()));
            }
            self.unsubs.insert(unsub);
        }
        self.unsubs.truncate_random_count(&mut self.rng);

        // ── Phase 2: subscriptions ────────────────────────────────────
        let in_old_view = in_view;
        for &new_sub in &gossip.subs {
            if new_sub == self.id {
                continue;
            }
            // `view_insert` bumps a §6.1 weight when the process is
            // already known and reports whether it was newly added — at
            // most one scan, not three. A phase-2 admission is *view
            // rotation* (the bounded random view constantly turns over
            // entries for long-standing members), not a membership
            // change, so it is deliberately not reported as a
            // MembershipEvent: only the explicit §3.4 signals
            // (unsubscription records, Subscribe requests) are.
            // Reporting rotations would also allocate on nearly every
            // received gossip — measured at ~8%/round at n=1000.
            if view_insert(&mut self.view, &mut in_view, new_sub) {
                subs_insert(&mut self.subs, &mut in_subs, new_sub);
                self.stats.subs_added += 1;
            }
        }
        self.recycle_view_overflow(&in_old_view, &mut in_subs);

        // ── Phase 3: notifications ────────────────────────────────────
        for event in &gossip.events {
            if self.history.insert(event.id()) {
                self.pending_pulls.remove(&event.id());
                self.events.insert(event.clone());
                self.archive.store(event);
                self.stats.events_delivered += 1;
                output.delivered.push(event.clone());
            } else {
                self.stats.duplicate_events += 1;
            }
        }
        let purged = self.history.truncate();
        self.stats.ids_purged += purged.len() as u64;
        self.stats.events_truncated += self.events.truncate_random_count(&mut self.rng) as u64;

        // ── Digest: gossip pull or §5.2 id absorption ─────────────────
        if self.config.retransmit_request_max > 0 {
            // An id is eligible if never pulled, or if its one
            // request/response datagram pair has been outstanding
            // past the retry window — on a lossy transport either
            // leg can vanish, and a pull that is never re-issued
            // leaves the notification unrecoverable forever. The
            // walk stops at the budget: the digest's watermarks are
            // the sender's word, and one near `u64::MAX` must not
            // enumerate its whole range.
            let now = self.now;
            let retry = self.config.retransmit_retry_ticks;
            let max = self.config.retransmit_request_max;
            let mut ids = Vec::new();
            let _ = self.history.for_each_missing(&gossip.event_ids, |id| {
                let eligible = match self.pending_pulls.get(&id) {
                    None => true,
                    Some(&asked) => retry > 0 && now.since(asked) >= retry,
                };
                if eligible {
                    ids.push(id);
                }
                if ids.len() == max {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            if !ids.is_empty() {
                for &id in &ids {
                    self.pending_pulls.insert(id, now);
                }
                // Bound the pending set against leaks from lost replies.
                if self.pending_pulls.len() > 4096 {
                    self.pending_pulls.clear();
                }
                self.stats.retransmit_requests_sent += 1;
                output.send(gossip.sender, Message::RetransmitRequest { ids });
            }
        } else if self.config.deliver_on_digest {
            let learned = &mut output.learned_ids;
            self.history
                .absorb(&gossip.event_ids, |id| learned.push(id));
            self.stats.ids_learned += learned.len() as u64;
            let purged = self.history.truncate();
            self.stats.ids_purged += purged.len() as u64;
        }

        output
    }

    /// Figure 1(a) phase 2 tail: evict view overflow (recycling the
    /// evicted entries into `subs` so knowledge keeps circulating), then
    /// bound `subs`. `in_subs` must hold every id in `subs`, and every
    /// member that `in_old_view` reads absent must be in `subs` already.
    fn recycle_view_overflow(&mut self, in_old_view: &IdFilter, in_subs: &mut IdFilter) {
        let subs = &mut self.subs;
        self.view.truncate_each(&mut self.rng, |evicted| {
            // A member the view did not hold before this message was
            // admitted by it, and admission put it in `subs` too.
            if in_old_view.may_contain(evicted) {
                subs_insert(subs, in_subs, evicted);
            }
        });
        self.subs.truncate_random_count(&mut self.rng);
    }

    /// §3.4: a joining process asked us to gossip its subscription on its
    /// behalf. We adopt it into our view and `subs` buffer; it will then
    /// circulate with our next gossip.
    fn handle_subscribe(&mut self, subscriber: ProcessId) -> Output {
        let mut output = Output::default();
        if subscriber != self.id {
            let in_old_view = IdFilter::from_ids(self.view.ids());
            if self.view.insert(subscriber) {
                self.stats.subs_added += 1;
                output.membership.push(MembershipEvent::Joined(subscriber));
            }
            self.subs.insert(subscriber);
            let mut in_subs = IdFilter::from_ids(&self.subs);
            self.recycle_view_overflow(&in_old_view, &mut in_subs);
        }
        output
    }

    /// Serves a gossip-pull from the archive.
    fn handle_retransmit_request(&mut self, from: ProcessId, ids: &[EventId]) -> Output {
        let events = self.archive.lookup_all(ids);
        if events.len() < ids.len() {
            self.stats.retransmit_misses += 1;
        }
        let mut output = Output::default();
        if !events.is_empty() {
            self.stats.retransmits_served += events.len() as u64;
            output.send(from, Message::RetransmitResponse { events });
        }
        output
    }

    /// Absorbs pulled notifications exactly like phase 3.
    fn handle_retransmit_response(&mut self, events: Vec<Event>) -> Output {
        let mut output = Output::default();
        for event in events {
            self.pending_pulls.remove(&event.id());
            if self.history.insert(event.id()) {
                self.events.insert(event.clone());
                self.archive.store(&event);
                self.stats.events_delivered += 1;
                output.delivered.push(event);
            } else {
                self.stats.duplicate_events += 1;
            }
        }
        let purged = self.history.truncate();
        self.stats.ids_purged += purged.len() as u64;
        self.stats.events_truncated += self.events.truncate_random_count(&mut self.rng) as u64;
        output
    }

    /// Purges a confirmed-dead process immediately: out of the view *and*
    /// out of the `subs` forwarding buffer, so the entry neither receives
    /// further gossip nor keeps circulating through piggybacked
    /// subscriptions. This is the active counterpart of the passive §3.4
    /// fade-out, driven by a failure detector through
    /// [`Protocol::evict`](lpbcast_types::Protocol::evict).
    pub fn evict(&mut self, process: ProcessId) {
        self.view.remove(process);
        self.subs.remove(&process);
    }
}

/// `view.insert(p)` behind `in_view`, a filter holding every member: an
/// "absent" answer appends without the scan. On a "maybe" the bit of `p`
/// is already set, so `in_view` keeps holding every member either way.
fn view_insert(view: &mut PartialView, in_view: &mut IdFilter, p: ProcessId) -> bool {
    if in_view.may_contain(p) {
        return view.insert(p);
    }
    view.push_absent(p);
    in_view.insert(p);
    true
}

/// [`view_insert`] for the `subs` buffer.
fn subs_insert(subs: &mut BoundedSet<ProcessId>, in_subs: &mut IdFilter, p: ProcessId) {
    if in_subs.may_contain(p) {
        subs.insert(p);
        return;
    }
    subs.push_absent(p);
    in_subs.insert(p);
}

/// The workspace-wide sans-IO lifecycle ([`lpbcast_types::Protocol`]):
/// generic drivers — `Engine<P>`, the scenario suite, `Cluster<P>` — run
/// lpbcast through this impl. The trait methods delegate to the inherent
/// ones; lpbcast buffers published notifications until the next gossip,
/// so `broadcast` never produces immediate sends.
impl lpbcast_types::Protocol for Lpbcast {
    type Msg = Message;

    fn id(&self) -> ProcessId {
        Lpbcast::id(self)
    }

    fn tick(&mut self) -> Output {
        Lpbcast::tick(self)
    }

    fn handle_message(&mut self, from: ProcessId, msg: Message) -> Output {
        Lpbcast::handle_message(self, from, msg)
    }

    fn broadcast(&mut self, payload: Payload) -> (EventId, Output) {
        (Lpbcast::broadcast(self, payload), Output::new())
    }

    fn view_members(&self) -> Vec<ProcessId> {
        use lpbcast_membership::View as _;
        self.view.members()
    }

    fn evict(&mut self, process: ProcessId) {
        Lpbcast::evict(self, process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HistoryMode;
    use crate::message::Digest;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn small_config() -> Config {
        Config::builder().view_size(4).fanout(2).build()
    }

    /// Extracts the gossip sent to `to` from an outgoing batch.
    fn gossip_to(outgoing: &[(ProcessId, Message)], to: ProcessId) -> Option<Gossip> {
        outgoing.iter().find_map(|(t, m)| match m {
            Message::Gossip(g) if *t == to => Some((**g).clone()),
            _ => None,
        })
    }

    fn any_gossip(outgoing: &[(ProcessId, Message)]) -> Gossip {
        outgoing
            .iter()
            .find_map(|(_, m)| match m {
                Message::Gossip(g) => Some((**g).clone()),
                _ => None,
            })
            .expect("a gossip message")
    }

    #[test]
    fn broadcast_rides_next_gossip_and_is_delivered_once() {
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        let mut b = Lpbcast::with_initial_view(pid(1), small_config(), 2, [pid(0)]);

        let id = a.broadcast(b"hello".as_ref());
        let out = a.tick();
        let gossip = gossip_to(&out.outgoing, pid(1)).expect("gossip to p1");
        assert_eq!(gossip.events.len(), 1);
        assert_eq!(gossip.events[0].id(), id);

        let received = b.handle_message(pid(0), Message::gossip(gossip.clone()));
        assert_eq!(received.delivered.len(), 1);
        assert_eq!(received.delivered[0].payload().as_ref(), b"hello");

        // Duplicate copy: no re-delivery.
        let again = b.handle_message(pid(0), Message::gossip(gossip));
        assert!(again.delivered.is_empty());
        assert_eq!(b.stats().duplicate_events, 1);
    }

    #[test]
    fn publisher_does_not_redeliver_own_event() {
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        let id = a.broadcast(b"x".as_ref());
        // Its own event comes back via some gossip.
        let echo = Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::new(),
            events: vec![Event::new(id, b"x".as_ref())],
            event_ids: Digest::empty(),
        };
        let out = a.handle_message(pid(1), Message::gossip(echo));
        assert!(out.delivered.is_empty());
        assert_eq!(a.stats().duplicate_events, 1);
    }

    #[test]
    fn events_are_forwarded_at_most_once() {
        // §3.2: "Every such notification is only gossiped at most once."
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        a.broadcast(b"x".as_ref());
        let first = a.tick();
        assert_eq!(any_gossip(&first.outgoing).events.len(), 1);
        let second = a.tick();
        assert!(
            any_gossip(&second.outgoing).events.is_empty(),
            "events buffer cleared after gossiping"
        );
    }

    #[test]
    fn gossip_carries_own_subscription() {
        // Figure 1(b): gossip.subs ← subs ∪ {pi}.
        let mut a = Lpbcast::with_initial_view(pid(7), small_config(), 1, [pid(1)]);
        let out = a.tick();
        let gossip = any_gossip(&out.outgoing);
        assert!(gossip.subs.contains(&pid(7)));
    }

    #[test]
    fn gossip_goes_to_fanout_targets() {
        let config = Config::builder().view_size(10).fanout(3).build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, (1..=8).map(pid));
        let out = a.tick();
        let gossip_targets: Vec<ProcessId> = out
            .outgoing
            .iter()
            .filter(|(_, m)| matches!(m, Message::Gossip(_)))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(gossip_targets.len(), 3);
        let uniq: std::collections::BTreeSet<_> = gossip_targets.iter().collect();
        assert_eq!(uniq.len(), 3, "targets are distinct");
    }

    #[test]
    fn fanout_copies_share_one_gossip_allocation() {
        use std::sync::Arc;
        let config = Config::builder().view_size(10).fanout(3).build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, (1..=8).map(pid));
        a.broadcast(b"shared".as_ref());
        let out = a.tick();
        let arcs: Vec<&Arc<Gossip>> = out
            .outgoing
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Gossip(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(arcs.len(), 3, "one copy per fanout target");
        assert!(
            arcs.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])),
            "all fanout copies alias the same allocation"
        );
        assert_eq!(
            Arc::strong_count(arcs[0]),
            3,
            "exactly the fanout copies hold the body"
        );
    }

    #[test]
    fn empty_view_emits_nothing() {
        let mut a = Lpbcast::new(pid(0), small_config(), 1);
        let out = a.tick();
        assert!(out.outgoing.is_empty());
        assert_eq!(a.stats().gossips_sent, 0);
    }

    #[test]
    fn gossip_emitted_even_without_new_events() {
        // §3.3: gossips are sent even with no new notifications.
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        let out = a.tick();
        let gossip = any_gossip(&out.outgoing);
        assert!(gossip.events.is_empty());
        assert_eq!(a.stats().gossips_sent, 1);
    }

    #[test]
    fn phase2_adds_new_subscriptions_to_view_and_subs() {
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![pid(1), pid(2), pid(3)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::empty(),
        };
        a.handle_message(pid(1), Message::gossip(gossip));
        assert!(a.view().contains(pid(2)));
        assert!(a.view().contains(pid(3)));
        // The new subscriptions become forwardable: next gossip carries them.
        let out = a.tick();
        let g = any_gossip(&out.outgoing);
        assert!(g.subs.contains(&pid(2)));
        assert!(g.subs.contains(&pid(3)));
    }

    #[test]
    fn phase2_never_adds_self() {
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![pid(0)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::empty(),
        };
        a.handle_message(pid(1), Message::gossip(gossip));
        assert!(!a.view().contains(pid(0)));
    }

    #[test]
    fn view_overflow_recycles_evicted_into_subs() {
        let config = Config::builder()
            .view_size(2)
            .fanout(1)
            .subs_max(10)
            .build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, [pid(1), pid(2)]);
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![pid(3), pid(4)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::empty(),
        };
        a.handle_message(pid(1), Message::gossip(gossip));
        assert_eq!(a.view().len(), 2, "view bounded at l");
        // All four processes must be known *somewhere*: view ∪ next subs.
        let out = a.tick();
        let g = any_gossip(&out.outgoing);
        let mut known: std::collections::BTreeSet<ProcessId> =
            a.view().members().into_iter().collect();
        known.extend(g.subs.iter().copied());
        for p in 1..=4 {
            assert!(known.contains(&pid(p)), "p{p} fell out of circulation");
        }
    }

    #[test]
    fn phase1_unsubscription_removes_from_view_and_forwards() {
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1), pid(2)]);
        let unsub = Unsubscription::new(pid(2), LogicalTime::ZERO);
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::from_records([unsub]),
            events: vec![],
            event_ids: Digest::empty(),
        };
        a.handle_message(pid(1), Message::gossip(gossip));
        assert!(!a.view().contains(pid(2)));
        assert_eq!(a.stats().unsubs_applied, 1);
        // Forwarded with the next gossip.
        let out = a.tick();
        let g = any_gossip(&out.outgoing);
        assert!(g.unsubs.iter().any(|u| u.process() == pid(2)));
    }

    #[test]
    fn obsolete_unsubscriptions_are_ignored_and_dropped() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .unsub_obsolescence(3)
            .build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, [pid(1), pid(2)]);
        // Age the local clock to t5.
        for _ in 0..5 {
            a.tick();
        }
        let stale = Unsubscription::new(pid(2), LogicalTime::new(1)); // age 4 > 3
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::from_records([stale]),
            events: vec![],
            event_ids: Digest::empty(),
        };
        a.handle_message(pid(1), Message::gossip(gossip));
        assert!(a.view().contains(pid(2)), "stale unsub not applied");
        let out = a.tick();
        let g = any_gossip(&out.outgoing);
        assert!(g.unsubs.is_empty(), "stale unsub not forwarded");
    }

    #[test]
    fn unsubscribe_spreads_and_respects_refusal() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .unsubs_max(10)
            .unsub_refusal_threshold(2)
            .build();
        let mut a = Lpbcast::with_initial_view(pid(0), config.clone(), 1, [pid(1)]);
        assert!(a.unsubscribe().is_ok());
        assert!(a.is_leaving());
        let out = a.tick();
        let g = any_gossip(&out.outgoing);
        assert!(g.unsubs.iter().any(|u| u.process() == pid(0)));
        assert!(
            !g.subs.contains(&pid(0)),
            "leaving process stops advertising itself"
        );

        // Refusal: pre-fill the unSubs buffer beyond the threshold.
        let mut b = Lpbcast::with_initial_view(pid(9), config, 2, [pid(1)]);
        let unsubs: Vec<Unsubscription> = (1..=3)
            .map(|p| Unsubscription::new(pid(p), LogicalTime::ZERO))
            .collect();
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![],
            unsubs: UnsubDigest::from_records(unsubs),
            events: vec![],
            event_ids: Digest::empty(),
        };
        b.handle_message(pid(1), Message::gossip(gossip));
        let err = b.unsubscribe().unwrap_err();
        assert_eq!(err.threshold, 2);
        assert!(!b.is_leaving());
    }

    #[test]
    fn join_handshake_emits_and_retries_then_completes() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .join_timeout(2)
            .build();
        let mut newcomer = Lpbcast::joining(pid(5), config, 3, vec![pid(1), pid(2)]);
        assert!(newcomer.is_joining());

        // First tick emits Subscribe to first contact.
        let out = newcomer.tick();
        let subs: Vec<&(ProcessId, Message)> = out
            .outgoing
            .iter()
            .filter(|(_, m)| matches!(m, Message::Subscribe { .. }))
            .collect();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].0, pid(1));

        // No gossip arrives: after join_timeout ticks, retry to next contact.
        let mut retried_to = None;
        for _ in 0..3 {
            let out = newcomer.tick();
            if let Some((to, _)) = out
                .outgoing
                .iter()
                .find(|(_, m)| matches!(m, Message::Subscribe { .. }))
            {
                retried_to = Some(*to);
                break;
            }
        }
        assert_eq!(retried_to, Some(pid(2)), "round-robin to second contact");
        assert!(newcomer.stats().join_requests_sent >= 2);

        // A gossip arrives: join complete.
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::empty(),
        };
        newcomer.handle_message(pid(1), Message::gossip(gossip));
        assert!(!newcomer.is_joining());
    }

    #[test]
    fn subscribe_request_adopts_newcomer() {
        let mut member = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        member.handle_message(pid(5), Message::Subscribe { subscriber: pid(5) });
        assert!(member.view().contains(pid(5)));
        // And the subscription circulates with the next gossip.
        let out = member.tick();
        let g = any_gossip(&out.outgoing);
        assert!(g.subs.contains(&pid(5)));
    }

    #[test]
    fn bounded_history_purges_and_redelivers() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .event_ids_max(1)
            .history_mode(HistoryMode::Bounded)
            .build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, [pid(1)]);
        let e1 = Event::new(EventId::new(pid(1), 0), b"1".as_ref());
        let e2 = Event::new(EventId::new(pid(1), 1), b"2".as_ref());
        let mk = |events: Vec<Event>| Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::new(),
            events,
            event_ids: Digest::empty(),
        };
        let out = a.handle_message(pid(1), Message::gossip(mk(vec![e1.clone(), e2])));
        assert_eq!(out.delivered.len(), 2);
        assert!(a.stats().ids_purged >= 1, "history bound enforced");
        // e1's id was purged: a late copy is delivered *again*.
        let out = a.handle_message(pid(1), Message::gossip(mk(vec![e1])));
        assert_eq!(
            out.delivered.len(),
            1,
            "purged id redelivers (Fig 6(b) effect)"
        );
    }

    #[test]
    fn compact_history_never_redelivers() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .event_ids_max(1)
            .history_mode(HistoryMode::Compact)
            .build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, [pid(1)]);
        let mk = |events: Vec<Event>| Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::new(),
            events,
            event_ids: Digest::empty(),
        };
        let events: Vec<Event> = (0..50)
            .map(|s| Event::new(EventId::new(pid(1), s), b"x".as_ref()))
            .collect();
        let out = a.handle_message(pid(1), Message::gossip(mk(events.clone())));
        assert_eq!(out.delivered.len(), 50);
        let out = a.handle_message(pid(1), Message::gossip(mk(events)));
        assert!(out.delivered.is_empty());
        assert_eq!(a.stats().duplicate_events, 50);
    }

    #[test]
    fn digest_absorption_learns_ids() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .deliver_on_digest(true)
            .build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, [pid(1)]);
        let id = EventId::new(pid(9), 0);
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::Ids(vec![id]),
        };
        let out = a.handle_message(pid(1), Message::gossip(gossip.clone()));
        assert_eq!(out.learned_ids, vec![id]);
        assert!(a.has_seen(id));
        // The learnt id now rides our own digest.
        let out = a.tick();
        let g = any_gossip(&out.outgoing);
        assert!(g.event_ids.contains(id));
        // And a second digest copy is not re-learnt.
        let out = a.handle_message(pid(1), Message::gossip(gossip));
        assert!(out.learned_ids.is_empty());
    }

    #[test]
    fn strict_mode_ignores_digests() {
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        let id = EventId::new(pid(9), 0);
        let gossip = Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::Ids(vec![id]),
        };
        let out = a.handle_message(pid(1), Message::gossip(gossip));
        assert!(out.is_empty());
        assert!(!a.has_seen(id));
    }

    #[test]
    fn retransmission_pull_roundtrip() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .retransmit_request_max(4)
            .archive_capacity(16)
            .build();
        let mut holder = Lpbcast::with_initial_view(pid(0), config.clone(), 1, [pid(1)]);
        let mut seeker = Lpbcast::with_initial_view(pid(1), config, 2, [pid(0)]);

        let id = holder.broadcast(b"precious".as_ref());
        // Seeker receives only the digest (payload "lost").
        let gossip = Gossip {
            sender: pid(0),
            subs: vec![pid(0)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: holder.history().to_digest(),
        };
        let out = seeker.handle_message(pid(0), Message::gossip(gossip.clone()));
        assert!(out.delivered.is_empty());
        let request = out
            .outgoing
            .iter()
            .find(|(_, m)| matches!(m, Message::RetransmitRequest { .. }))
            .expect("pull issued")
            .clone();
        assert_eq!(request.0, pid(0));
        assert_eq!(seeker.stats().retransmit_requests_sent, 1);

        // No duplicate request while the pull is pending.
        let out2 = seeker.handle_message(pid(0), Message::gossip(gossip));
        assert!(
            !out2
                .outgoing
                .iter()
                .any(|(_, m)| matches!(m, Message::RetransmitRequest { .. })),
            "pending pull deduplicated"
        );

        // Holder serves from the archive.
        let response = holder.handle_message(pid(1), request.1);
        let reply = response.outgoing.into_iter().next().expect("response");
        assert_eq!(reply.0, pid(1));
        assert_eq!(holder.stats().retransmits_served, 1);

        // Seeker finally delivers.
        let out = seeker.handle_message(pid(0), reply.1);
        assert_eq!(out.delivered.len(), 1);
        assert_eq!(out.delivered[0].id(), id);
        assert_eq!(out.delivered[0].payload().as_ref(), b"precious");
    }

    #[test]
    fn lost_pull_is_reissued_after_the_retry_window() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .retransmit_request_max(4)
            .retransmit_retry_ticks(3)
            .archive_capacity(16)
            .build();
        let mut holder = Lpbcast::with_initial_view(pid(0), config.clone(), 1, [pid(1)]);
        let mut seeker = Lpbcast::with_initial_view(pid(1), config, 2, [pid(0)]);

        holder.broadcast(b"precious".as_ref());
        let gossip = Gossip {
            sender: pid(0),
            subs: vec![pid(0)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: holder.history().to_digest(),
        };
        let pulled = |out: &Output| {
            out.outgoing
                .iter()
                .any(|(_, m)| matches!(m, Message::RetransmitRequest { .. }))
        };

        // First digest triggers the pull; the request (or its answer) is
        // then "lost" — we simply never feed a response back.
        assert!(pulled(
            &seeker.handle_message(pid(0), Message::gossip(gossip.clone()))
        ));
        // Within the window the pending pull still deduplicates.
        assert!(!pulled(
            &seeker.handle_message(pid(0), Message::gossip(gossip.clone()))
        ));

        for _ in 0..3 {
            seeker.tick();
        }
        // Past the window the id is eligible again — a lossy transport
        // must not be able to wedge an id in the in-flight state forever.
        assert!(pulled(
            &seeker.handle_message(pid(0), Message::gossip(gossip))
        ));
        assert_eq!(seeker.stats().retransmit_requests_sent, 2);
    }

    #[test]
    fn retransmit_miss_when_archive_evicted() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .retransmit_request_max(4)
            .archive_capacity(1)
            .build();
        let mut holder = Lpbcast::with_initial_view(pid(0), config, 1, [pid(1)]);
        let old = holder.broadcast(b"old".as_ref());
        holder.broadcast(b"new".as_ref()); // evicts "old" from the archive
        let out = holder.handle_message(pid(1), Message::RetransmitRequest { ids: vec![old] });
        assert!(out.outgoing.is_empty(), "nothing to serve");
        assert_eq!(holder.stats().retransmit_misses, 1);
    }

    #[test]
    fn prioritary_processes_are_renormalized_into_view() {
        let config = Config::builder()
            .view_size(2)
            .fanout(1)
            .prioritary(vec![pid(100)])
            .normalization_period(1)
            .build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, [pid(1), pid(2)]);
        assert!(!a.view().contains(pid(100)));
        a.tick();
        assert!(a.view().contains(pid(100)), "prioritary inserted on tick");
        assert_eq!(a.view().len(), 2, "view still bounded");
    }

    #[test]
    fn membership_gossip_interval_suppresses_membership_sections() {
        let config = Config::builder()
            .view_size(4)
            .fanout(2)
            .membership_gossip_interval(2)
            .build();
        let mut a = Lpbcast::with_initial_view(pid(0), config, 1, [pid(1)]);
        // t1: 1 % 2 != 0 → no membership info; t2: included.
        let out1 = a.tick();
        let g1 = any_gossip(&out1.outgoing);
        assert!(g1.subs.is_empty() && g1.unsubs.is_empty());
        let out2 = a.tick();
        let g2 = any_gossip(&out2.outgoing);
        assert!(g2.subs.contains(&pid(0)));
    }

    #[test]
    fn determinism_same_seed_same_behaviour() {
        let mk = || {
            let mut p = Lpbcast::with_initial_view(
                pid(0),
                Config::builder().view_size(3).fanout(2).build(),
                42,
                (1..=9).map(pid),
            );
            p.broadcast(b"d".as_ref());
            let out = p.tick();
            (
                p.view().members(),
                out.outgoing.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
            )
        };
        assert_eq!(mk(), mk(), "identical seeds give identical runs");
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mk = |seed| {
            let mut p = Lpbcast::with_initial_view(
                pid(0),
                Config::builder().view_size(3).fanout(2).build(),
                seed,
                (1..=30).map(pid),
            );
            p.tick();
            p.view().members()
        };
        // With 30 candidates for 3 slots, two seeds agreeing entirely is
        // overwhelmingly unlikely.
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn stats_accumulate() {
        let mut a = Lpbcast::with_initial_view(pid(0), small_config(), 1, [pid(1)]);
        a.broadcast(b"x".as_ref());
        a.tick();
        a.tick();
        assert_eq!(a.stats().events_published, 1);
        assert_eq!(a.stats().gossips_sent, 2);
    }
}
