//! The pbcast process state machine.

use std::collections::VecDeque;

use lpbcast_types::{FastMap, FastSet};

use lpbcast_types::{Event, EventId, OldestFirstBuffer, Payload, ProcessId, Protocol};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::PbcastConfig;
use crate::membership::Membership;
use crate::message::{DigestEntry, GossipDigest, PbcastMessage, PbcastOutput};

/// A stored message copy: payload (if held), consumed hops, and how many
/// more rounds it will be advertised.
#[derive(Debug, Clone)]
struct Stored {
    event: Option<Event>,
    hops: u32,
    remaining_reps: u64,
}

/// Lifetime counters of a pbcast process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PbcastStats {
    /// Messages published locally.
    pub published: u64,
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Redundant copies received.
    pub duplicates: u64,
    /// Digest gossips emitted.
    pub digests_sent: u64,
    /// Digest gossips received.
    pub digests_received: u64,
    /// Solicitations sent (pull requests).
    pub solicits_sent: u64,
    /// Payloads served to solicitors.
    pub served: u64,
    /// Solicited ids no longer in the store.
    pub solicit_misses: u64,
    /// Ids absorbed from digests (measurement convention).
    pub ids_learned: u64,
}

/// A Bimodal Multicast process over pluggable membership — sans-IO, like
/// [`Lpbcast`](../lpbcast_core/struct.Lpbcast.html): drivers call
/// [`tick`](Pbcast::tick) once per gossip period and route the returned
/// `(destination, message)` pairs.
#[derive(Debug)]
pub struct Pbcast {
    id: ProcessId,
    config: PbcastConfig,
    rng: SmallRng,
    membership: Membership,
    /// Delivered-id history, bounded remove-oldest (digest dedup source).
    history: OldestFirstBuffer<EventId>,
    /// Message copies by id (payload may be absent in digest-only mode).
    store: FastMap<EventId, Stored>,
    /// FIFO of stored ids for store eviction.
    store_order: VecDeque<EventId>,
    /// Ids already solicited this round (cleared on tick).
    pending_pulls: FastSet<EventId>,
    next_seq: u64,
    stats: PbcastStats,
}

impl Pbcast {
    /// Creates a process with the given membership.
    pub fn new(id: ProcessId, config: PbcastConfig, seed: u64, membership: Membership) -> Self {
        debug_assert!(config.validate().is_ok(), "invalid config");
        let history = OldestFirstBuffer::new(config.history_max);
        Pbcast {
            id,
            rng: SmallRng::seed_from_u64(seed ^ id.as_u64().wrapping_mul(0xD1B5_4A32_D192_ED03)),
            membership,
            history,
            store: FastMap::default(),
            store_order: VecDeque::new(),
            pending_pulls: FastSet::default(),
            next_seq: 0,
            stats: PbcastStats::default(),
            config,
        }
    }

    /// This process's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The membership in use.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &PbcastStats {
        &self.stats
    }

    /// Whether `id` is currently remembered as received.
    pub fn has_seen(&self, id: EventId) -> bool {
        self.history.contains(&id)
    }

    /// Publishes a message. Returns its id and an output whose `outgoing`
    /// batch carries the first-phase best-effort multicast (empty if the
    /// first phase is disabled).
    pub fn publish(&mut self, payload: impl Into<Payload>) -> (EventId, PbcastOutput) {
        let id = EventId::new(self.id, self.next_seq);
        self.next_seq += 1;
        let event = Event::new(id, payload);
        self.history.insert(id);
        self.history.truncate_oldest();
        self.store_copy(id, Some(event.clone()), 0);
        self.stats.published += 1;

        let mut out = PbcastOutput::default();
        if self.config.first_phase {
            for to in self.membership.members() {
                out.send(
                    to,
                    PbcastMessage::Multicast {
                        event: event.clone(),
                        hops: 1,
                    },
                );
            }
        }
        (id, out)
    }

    /// One gossip period: emit the anti-entropy digest to `F` targets.
    pub fn tick(&mut self) -> PbcastOutput {
        // Solicitations may be retried next round if replies were lost.
        self.pending_pulls.clear();

        // Walk the store in insertion order (`store_order`), not HashMap
        // order: std's per-process hash seed would otherwise randomize the
        // digest entry order and make same-seed runs diverge.
        let mut entries = Vec::new();
        for &id in &self.store_order {
            if let Some(stored) = self.store.get_mut(&id) {
                if stored.remaining_reps > 0 {
                    entries.push(DigestEntry {
                        id,
                        hops: stored.hops,
                    });
                    stored.remaining_reps -= 1;
                }
            }
        }

        let subs = self.membership.outgoing_subs(self.id);
        let targets = self
            .membership
            .select_targets(&mut self.rng, self.config.fanout);
        let mut out = PbcastOutput::default();
        if targets.is_empty() {
            return out;
        }
        self.stats.digests_sent += 1;
        // §3.2-style compaction: per-origin sequence runs fold into
        // ranges. One allocation for the digest body; fanout copies share
        // it.
        let digest = PbcastMessage::digest(GossipDigest::new(self.id, &entries, subs));
        for to in targets {
            out.send(to, digest.clone());
        }
        out
    }

    /// Processes an incoming message.
    pub fn handle_message(&mut self, from: ProcessId, message: PbcastMessage) -> PbcastOutput {
        match message {
            PbcastMessage::Multicast { event, hops } => self.receive_event(event, hops),
            PbcastMessage::GossipDigest(digest) => self.receive_digest(&digest),
            PbcastMessage::Solicit { ids } => self.serve_solicit(from, &ids),
        }
    }

    fn store_copy(&mut self, id: EventId, event: Option<Event>, hops: u32) {
        let remaining_reps = if hops < self.config.max_hops {
            self.config.max_repetitions
        } else {
            0 // hop budget exhausted: deliver but do not spread further
        };
        if self.store.contains_key(&id) {
            return;
        }
        self.store.insert(
            id,
            Stored {
                event,
                hops,
                remaining_reps,
            },
        );
        self.store_order.push_back(id);
        while self.store_order.len() > self.config.store_max {
            if let Some(evict) = self.store_order.pop_front() {
                self.store.remove(&evict);
            }
        }
    }

    fn receive_event(&mut self, event: Event, hops: u32) -> PbcastOutput {
        let mut out = PbcastOutput::default();
        let id = event.id();
        self.pending_pulls.remove(&id);
        if self.history.insert(id) {
            self.history.truncate_oldest();
            self.store_copy(id, Some(event.clone()), hops);
            self.stats.delivered += 1;
            out.delivered.push(event);
        } else {
            self.stats.duplicates += 1;
        }
        out
    }

    fn receive_digest(&mut self, digest: &GossipDigest) -> PbcastOutput {
        self.stats.digests_received += 1;
        let mut out = PbcastOutput::default();

        // §6.2 membership layer: piggybacked subscriptions update the
        // view. Admissions are view rotation, not membership changes —
        // pbcast has no explicit join/leave signals, so it reports no
        // MembershipEvents (exactly the gap the lpbcast comparison
        // measures).
        self.membership.apply_subs(&mut self.rng, &digest.subs);

        // Missing-scan: expand each range to the seqs it advertises.
        if self.config.pull {
            let ids: Vec<EventId> = digest
                .entries()
                .map(|e| e.id)
                .filter(|id| !self.history.contains(id) && !self.pending_pulls.contains(id))
                .collect();
            if !ids.is_empty() {
                self.pending_pulls.extend(ids.iter().copied());
                self.stats.solicits_sent += 1;
                out.send(digest.sender, PbcastMessage::Solicit { ids });
            }
        } else if self.config.deliver_on_digest {
            // §5.2 convention: the id counts as received, and keeps
            // spreading (hop-incremented) through our own digests.
            for entry in digest.entries() {
                if self.history.insert(entry.id) {
                    self.store_copy(entry.id, None, entry.hops + 1);
                    self.stats.ids_learned += 1;
                    out.learned_ids.push(entry.id);
                }
            }
            self.history.truncate_oldest();
        }
        out
    }

    fn serve_solicit(&mut self, from: ProcessId, ids: &[EventId]) -> PbcastOutput {
        let mut out = PbcastOutput::default();
        for &id in ids {
            match self
                .store
                .get(&id)
                .and_then(|s| s.event.clone().map(|e| (e, s.hops)))
            {
                Some((event, hops)) => {
                    self.stats.served += 1;
                    out.send(
                        from,
                        PbcastMessage::Multicast {
                            event,
                            hops: hops + 1,
                        },
                    );
                }
                None => self.stats.solicit_misses += 1,
            }
        }
        out
    }
}

/// The workspace-wide sans-IO lifecycle ([`lpbcast_types::Protocol`]):
/// generic drivers run pbcast through this impl exactly as they run
/// lpbcast. `broadcast` surfaces the best-effort first phase as the
/// returned output's `outgoing` batch.
impl Protocol for Pbcast {
    type Msg = PbcastMessage;

    fn id(&self) -> ProcessId {
        Pbcast::id(self)
    }

    fn tick(&mut self) -> PbcastOutput {
        Pbcast::tick(self)
    }

    fn handle_message(&mut self, from: ProcessId, msg: PbcastMessage) -> PbcastOutput {
        Pbcast::handle_message(self, from, msg)
    }

    fn broadcast(&mut self, payload: Payload) -> (EventId, PbcastOutput) {
        self.publish(payload)
    }

    fn view_members(&self) -> Vec<ProcessId> {
        self.membership.members()
    }

    fn evict(&mut self, process: ProcessId) {
        self.membership.remove(process);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::OriginRange;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn total_pair(config: &PbcastConfig) -> (Pbcast, Pbcast) {
        let a = Pbcast::new(
            pid(0),
            config.clone(),
            1,
            Membership::total(pid(0), [pid(1)]),
        );
        let b = Pbcast::new(
            pid(1),
            config.clone(),
            2,
            Membership::total(pid(1), [pid(0)]),
        );
        (a, b)
    }

    #[test]
    fn first_phase_multicasts_to_all_members() {
        let config = PbcastConfig::builder().first_phase(true).build();
        let mut a = Pbcast::new(
            pid(0),
            config,
            1,
            Membership::total(pid(0), (1..=4).map(pid)),
        );
        let (_, out) = a.publish(b"m".as_ref());
        assert_eq!(out.outgoing.len(), 4, "one copy per member");
        assert!(out
            .outgoing
            .iter()
            .all(|(_, m)| matches!(m, PbcastMessage::Multicast { hops: 1, .. })));
    }

    #[test]
    fn digest_pull_roundtrip_delivers() {
        let config = PbcastConfig::builder().fanout(1).first_phase(false).build();
        let (mut a, mut b) = total_pair(&config);
        let (id, publish) = a.publish(b"m".as_ref());
        assert!(publish.outgoing.is_empty(), "first phase disabled");

        let digests = a.tick().outgoing;
        assert_eq!(digests.len(), 1);
        let out = b.handle_message(pid(0), digests[0].1.clone());
        assert!(out.delivered.is_empty(), "digest alone delivers nothing");
        let (to, solicit) = out.outgoing.into_iter().next().expect("solicitation");
        assert_eq!(to, pid(0));

        let served = a.handle_message(pid(1), solicit);
        let (to, payload) = served.outgoing.into_iter().next().expect("payload");
        assert_eq!(to, pid(1));
        let got = b.handle_message(pid(0), payload);
        assert_eq!(got.delivered.len(), 1);
        assert_eq!(got.delivered[0].id(), id);
        assert!(b.has_seen(id));
        assert_eq!(b.stats().solicits_sent, 1);
        assert_eq!(a.stats().served, 1);
    }

    #[test]
    fn repetition_limit_stops_advertising() {
        let config = PbcastConfig::builder()
            .fanout(1)
            .first_phase(false)
            .max_repetitions(2)
            .build();
        let mut a = Pbcast::new(pid(0), config, 1, Membership::total(pid(0), [pid(1)]));
        a.publish(b"m".as_ref());
        let count_entries = |cmds: &[(ProcessId, PbcastMessage)]| match &cmds[0].1 {
            PbcastMessage::GossipDigest(d) => d.entries().count(),
            _ => panic!("expected digest"),
        };
        assert_eq!(count_entries(&a.tick().outgoing), 1, "repetition 1");
        assert_eq!(count_entries(&a.tick().outgoing), 1, "repetition 2");
        assert_eq!(
            count_entries(&a.tick().outgoing),
            0,
            "repetition budget exhausted"
        );
    }

    #[test]
    fn hop_limit_delivers_but_does_not_respread() {
        let config = PbcastConfig::builder()
            .fanout(1)
            .first_phase(false)
            .max_hops(2)
            .build();
        let mut b = Pbcast::new(pid(1), config, 2, Membership::total(pid(1), [pid(0)]));
        // A copy arriving at the hop limit.
        let event = Event::new(EventId::new(pid(0), 0), b"m".as_ref());
        let out = b.handle_message(pid(0), PbcastMessage::Multicast { event, hops: 2 });
        assert_eq!(out.delivered.len(), 1, "delivery unaffected by hop limit");
        let digests = b.tick().outgoing;
        match &digests[0].1 {
            PbcastMessage::GossipDigest(d) => {
                assert!(d.ranges.is_empty(), "hop-exhausted copy is not advertised")
            }
            _ => panic!("expected digest"),
        }
    }

    #[test]
    fn served_copies_carry_incremented_hops() {
        let config = PbcastConfig::builder().fanout(1).first_phase(false).build();
        let (mut a, mut b) = total_pair(&config);
        let (id, _) = a.publish(b"m".as_ref());
        let digests = a.tick().outgoing;
        let out = b.handle_message(pid(0), digests[0].1.clone());
        let solicit = out.outgoing.into_iter().next().unwrap().1;
        let served = a.handle_message(pid(1), solicit);
        match &served.outgoing[0].1 {
            PbcastMessage::Multicast { event, hops } => {
                assert_eq!(event.id(), id);
                assert_eq!(*hops, 1, "origin copy has hops 0; serving adds 1");
            }
            _ => panic!("expected multicast"),
        }
    }

    #[test]
    fn duplicate_copies_counted_not_redelivered() {
        let config = PbcastConfig::default();
        let (mut a, mut b) = total_pair(&config);
        let (_, publish) = a.publish(b"m".as_ref());
        let (_, multicast) = publish.outgoing.into_iter().next().unwrap();
        assert_eq!(
            b.handle_message(pid(0), multicast.clone()).delivered.len(),
            1
        );
        assert!(b.handle_message(pid(0), multicast).delivered.is_empty());
        assert_eq!(b.stats().duplicates, 1);
    }

    #[test]
    fn deliver_on_digest_absorbs_and_respreads_ids() {
        let config = PbcastConfig::builder()
            .fanout(1)
            .first_phase(false)
            .pull(false)
            .deliver_on_digest(true)
            .build();
        let mut b = Pbcast::new(pid(1), config, 2, Membership::total(pid(1), [pid(0)]));
        let id = EventId::new(pid(0), 7);
        let out = b.handle_message(
            pid(0),
            PbcastMessage::digest(GossipDigest::new(
                pid(0),
                &[DigestEntry { id, hops: 0 }],
                vec![],
            )),
        );
        assert_eq!(out.learned_ids, vec![id]);
        assert!(b.has_seen(id));
        // The absorbed id is advertised onward with hops + 1.
        let digests = b.tick().outgoing;
        match &digests[0].1 {
            PbcastMessage::GossipDigest(d) => {
                let entries: Vec<DigestEntry> = d.entries().collect();
                assert_eq!(entries, vec![DigestEntry { id, hops: 1 }]);
            }
            _ => panic!("expected digest"),
        }
        // But it cannot be served (no payload).
        let out = b.handle_message(pid(0), PbcastMessage::Solicit { ids: vec![id] });
        assert!(out.outgoing.is_empty());
        assert_eq!(b.stats().solicit_misses, 1);
    }

    #[test]
    fn digest_folds_sequence_runs() {
        let config = PbcastConfig::builder()
            .fanout(1)
            .first_phase(false)
            .max_repetitions(4)
            .build();
        let mut a = Pbcast::new(pid(0), config, 1, Membership::total(pid(0), [pid(1)]));
        for _ in 0..6 {
            a.publish(b"m".as_ref());
        }
        let digests = a.tick().outgoing;
        match &digests[0].1 {
            PbcastMessage::GossipDigest(d) => {
                assert_eq!(d.ranges.len(), 1, "one publisher, one range");
                assert_eq!((d.ranges[0].min_seq, d.ranges[0].max_seq), (0, 5));
                assert_eq!(d.entries().count(), 6);
            }
            _ => panic!("expected digest"),
        }
    }

    #[test]
    fn digest_absorbs_range_ids_with_incremented_hops() {
        let config = PbcastConfig::builder()
            .fanout(1)
            .first_phase(false)
            .pull(false)
            .deliver_on_digest(true)
            .build();
        let mut b = Pbcast::new(pid(1), config, 2, Membership::total(pid(1), [pid(0)]));
        let range = |min_seq, max_seq| OriginRange {
            origin: pid(0),
            min_seq,
            max_seq,
            hops: 1,
        };
        let out = b.handle_message(
            pid(0),
            PbcastMessage::digest(GossipDigest {
                sender: pid(0),
                ranges: vec![range(0, 1), range(3, 3)],
                subs: vec![],
            }),
        );
        let learned: Vec<u64> = out.learned_ids.iter().map(|id| id.seq()).collect();
        assert_eq!(learned, vec![0, 1, 3], "unadvertised seq 2 not absorbed");
        assert!(!b.has_seen(EventId::new(pid(0), 2)));
        // Absorbed copies carry the range's hops + 1.
        let digests = b.tick().outgoing;
        match &digests[0].1 {
            PbcastMessage::GossipDigest(d) => {
                let hops: Vec<u32> = d.entries().map(|e| e.hops).collect();
                assert_eq!(hops, vec![2; 3]);
            }
            _ => panic!("expected digest"),
        }
    }

    #[test]
    fn digest_solicits_only_missing_range_ids() {
        let config = PbcastConfig::builder().fanout(1).first_phase(false).build();
        let (mut _a, mut b) = total_pair(&config);
        // b already has (0, 1).
        let e = Event::new(EventId::new(pid(0), 1), b"have".as_ref());
        b.handle_message(pid(0), PbcastMessage::Multicast { event: e, hops: 1 });
        let out = b.handle_message(
            pid(0),
            PbcastMessage::digest(GossipDigest {
                sender: pid(0),
                ranges: vec![OriginRange {
                    origin: pid(0),
                    min_seq: 0,
                    max_seq: 2,
                    hops: 0,
                }],
                subs: vec![],
            }),
        );
        match &out.outgoing[0].1 {
            PbcastMessage::Solicit { ids } => {
                let seqs: Vec<u64> = ids.iter().map(|id| id.seq()).collect();
                assert_eq!(seqs, vec![0, 2], "only the truly missing ids pulled");
            }
            other => panic!("expected solicit, got {other:?}"),
        }
    }

    #[test]
    fn pending_pulls_deduplicate_within_round_and_reset() {
        let config = PbcastConfig::builder().fanout(1).first_phase(false).build();
        let (mut a, mut b) = total_pair(&config);
        a.publish(b"m".as_ref());
        let digest = a.tick().outgoing.into_iter().next().unwrap().1;
        let first = b.handle_message(pid(0), digest.clone());
        assert_eq!(first.outgoing.len(), 1);
        // Same digest again in the same round: no duplicate solicit.
        let second = b.handle_message(pid(0), digest.clone());
        assert!(second.outgoing.is_empty());
        // Next round: retry allowed (reply may have been lost).
        b.tick();
        let third = b.handle_message(pid(0), digest);
        assert_eq!(third.outgoing.len(), 1);
    }

    #[test]
    fn partial_membership_spreads_through_digests() {
        let config = PbcastConfig::builder().fanout(1).first_phase(false).build();
        let mut a = Pbcast::new(
            pid(0),
            config.clone(),
            1,
            Membership::partial(pid(0), 5, 5, [pid(1)]),
        );
        let mut b = Pbcast::new(
            pid(1),
            config,
            2,
            Membership::partial(pid(1), 5, 5, [pid(2)]),
        );
        // a's digest piggybacks its subscription; b learns about a.
        let digests = a.tick().outgoing;
        assert!(!b.membership().contains(pid(0)));
        b.handle_message(pid(0), digests[0].1.clone());
        assert!(b.membership().contains(pid(0)), "view updated from subs");
    }

    #[test]
    fn bounded_history_forgets_and_redelivers() {
        let config = PbcastConfig::builder()
            .first_phase(false)
            .history_max(1)
            .build();
        let (mut _a, mut b) = total_pair(&config);
        let e1 = Event::new(EventId::new(pid(0), 0), b"1".as_ref());
        let e2 = Event::new(EventId::new(pid(0), 1), b"2".as_ref());
        let mk = |e: &Event| PbcastMessage::Multicast {
            event: e.clone(),
            hops: 1,
        };
        assert_eq!(b.handle_message(pid(0), mk(&e1)).delivered.len(), 1);
        assert_eq!(b.handle_message(pid(0), mk(&e2)).delivered.len(), 1);
        // e1's id has been purged (history_max = 1): late copy re-delivers.
        assert_eq!(b.handle_message(pid(0), mk(&e1)).delivered.len(), 1);
    }

    #[test]
    fn store_eviction_bounds_memory() {
        let config = PbcastConfig::builder()
            .first_phase(false)
            .store_max(2)
            .build();
        let mut b = Pbcast::new(pid(1), config, 2, Membership::total(pid(1), [pid(0)]));
        for s in 0..5 {
            let e = Event::new(EventId::new(pid(0), s), b"x".as_ref());
            b.handle_message(pid(0), PbcastMessage::Multicast { event: e, hops: 1 });
        }
        // Only the two newest are servable.
        let old = EventId::new(pid(0), 0);
        let new = EventId::new(pid(0), 4);
        let out = b.handle_message(
            pid(9),
            PbcastMessage::Solicit {
                ids: vec![old, new],
            },
        );
        assert_eq!(out.outgoing.len(), 1);
        assert_eq!(b.stats().solicit_misses, 1);
    }

    #[test]
    fn digest_fanout_copies_share_one_allocation() {
        use std::sync::Arc;
        let config = PbcastConfig::builder().fanout(3).first_phase(false).build();
        let mut a = Pbcast::new(
            pid(0),
            config,
            1,
            Membership::total(pid(0), (1..=6).map(pid)),
        );
        a.publish(b"m".as_ref());
        let cmds = a.tick().outgoing;
        let arcs: Vec<&Arc<GossipDigest>> = cmds
            .iter()
            .filter_map(|(_, m)| match m {
                PbcastMessage::GossipDigest(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(arcs.len(), 3, "one digest per fanout target");
        assert!(arcs.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])));
        assert_eq!(Arc::strong_count(arcs[0]), 3);
    }

    #[test]
    fn empty_membership_emits_nothing() {
        let config = PbcastConfig::builder().first_phase(false).build();
        let mut lonely = Pbcast::new(pid(0), config, 1, Membership::total(pid(0), []));
        assert!(lonely.tick().is_empty());
        assert_eq!(lonely.stats().digests_sent, 0);
    }
}
