//! Differential test of Figure 1(a) phases 1–2 and of `unsubscribe`:
//! `Lpbcast`, whose gossip handler skips scans on a may-contain filter's
//! "absent" answer and whose `unSubs` buffer finds records through a
//! process-id set, against a model that admits `subs` and applies
//! `unSubs` with plain scans and a plain `BoundedSet` (hash-indexed past
//! 128 records).
//!
//! Both are speed-ups and nothing else, so the two must agree on
//! everything observable: the view's id order and weights, the ids
//! evicted from it, `subs` and `unSubs` order (read off the next gossip),
//! every `ProcessStats` counter, `unsubscribe`'s answers, and the RNG
//! (read off the next gossip's targets). `unSubs` bounds reach 300 and
//! gossips carry up to 250 records, dense ids and ids near `u64::MAX`,
//! so the buffer crosses 128 records both ways. CI runs this in release,
//! where the `debug_assert!`s behind `push_absent` are compiled out, with
//! `PROPTEST_CASES=4096`.

use std::collections::BTreeSet;

use lpbcast_core::{
    Config, Digest, Gossip, LogicalTime, Lpbcast, Message, ProcessStats, UnsubDigest,
    UnsubscribeRefused, Unsubscription,
};
use lpbcast_membership::{PartialView, TruncationStrategy, View as _};
use lpbcast_types::{BoundedSet, ProcessId};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A process id: mostly from a pool small enough that gossips repeat
/// ids, name the receiver, and overlap its view and `subs`; now and then
/// one from the top of the `u64` range.
fn id() -> impl Strategy<Value = ProcessId> {
    (0u64..128).prop_map(|x| ProcessId::new(if x < 120 { x } else { u64::MAX - (x - 120) }))
}

/// A leaver's id for an `unSubs` record: from a pool of 320, more than
/// the 128 records past which the model's buffer builds its hash index.
/// 280 are dense (the receiver's view and `subs` among them, and the ids
/// on both sides of the first four 64-bit word boundaries), 40 near the
/// top of the range.
fn leaver() -> impl Strategy<Value = ProcessId> {
    (0u64..320).prop_map(|x| ProcessId::new(if x < 280 { x } else { u64::MAX - (x - 280) }))
}

/// One step of the run: a membership-only gossip, a tick (which emits
/// the gossip the comparison reads `subs`, `unSubs` and targets from), or
/// the process's own `unsubscribe`.
#[derive(Debug, Clone)]
enum Step {
    Gossip {
        subs: Vec<ProcessId>,
        /// `(process, issued_at)`; the clock advances one per tick, so
        /// early stamps turn obsolete.
        unsubs: Vec<(ProcessId, u64)>,
    },
    Tick,
    Unsubscribe,
}

fn step() -> impl Strategy<Value = Step> {
    let unsubs = prop_oneof![
        vec((leaver(), 0u64..12), 0..6),
        vec((leaver(), 0u64..12), 0..250),
    ];
    (0u32..20, vec(id(), 0..64), unsubs).prop_map(|(kind, subs, unsubs)| match kind {
        0..=4 => Step::Tick,
        5 => Step::Unsubscribe,
        _ => Step::Gossip { subs, unsubs },
    })
}

/// Phases 1–2 and the membership half of `tick`, written with the
/// scanning `insert`/`remove` only.
struct Model {
    me: ProcessId,
    config: Config,
    now: LogicalTime,
    view: PartialView,
    subs: BoundedSet<ProcessId>,
    unsubs: BoundedSet<Unsubscription>,
    leaving: bool,
    rng: SmallRng,
    stats: ProcessStats,
}

impl Model {
    /// `Lpbcast::with_initial_view`.
    fn new(me: ProcessId, config: Config, seed: u64, members: &[ProcessId]) -> Self {
        // `Lpbcast::new` derives the process's RNG seed this way.
        let rng = SmallRng::seed_from_u64(seed ^ me.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut model = Model {
            me,
            now: LogicalTime::ZERO,
            view: PartialView::new(me, config.view_size, config.strategy),
            subs: BoundedSet::new(config.subs_max),
            unsubs: BoundedSet::new(config.unsubs_max),
            leaving: false,
            rng,
            stats: ProcessStats::default(),
            config,
        };
        for &m in members {
            model.view.insert(m);
        }
        for e in model.view.truncate(&mut model.rng) {
            model.subs.insert(e);
        }
        model.subs.truncate_random(&mut model.rng);
        model
    }

    /// Phases 1–2 of a gossip reception; returns the ids evicted from the
    /// view, in eviction order.
    fn receive(&mut self, gossip: &Gossip) -> Vec<ProcessId> {
        self.stats.gossips_received += 1;
        for unsub in gossip.unsubs.iter() {
            if unsub.is_obsolete(self.now, self.config.unsub_obsolescence) {
                continue;
            }
            if self.view.remove(unsub.process()) {
                self.stats.unsubs_applied += 1;
            }
            self.unsubs.insert(unsub);
        }
        self.unsubs.truncate_random_count(&mut self.rng);
        for &new_sub in &gossip.subs {
            if new_sub != self.me && self.view.insert(new_sub) {
                self.subs.insert(new_sub);
                self.stats.subs_added += 1;
            }
        }
        let evicted = self.view.truncate(&mut self.rng);
        for &e in &evicted {
            self.subs.insert(e);
        }
        self.subs.truncate_random_count(&mut self.rng);
        evicted
    }

    /// `Lpbcast::unsubscribe`: refused while `unSubs` holds more records
    /// than the threshold, otherwise the own record joins it.
    fn unsubscribe(&mut self) -> Result<(), UnsubscribeRefused> {
        let threshold = self.config.unsub_refusal_threshold;
        if self.unsubs.len() > threshold {
            return Err(UnsubscribeRefused {
                buffered: self.unsubs.len(),
                threshold,
            });
        }
        self.unsubs.insert(Unsubscription::new(self.me, self.now));
        self.leaving = true;
        Ok(())
    }

    /// The gossip a tick emits: `(subs, unSubs, targets)`, targets empty
    /// when the view is.
    fn tick(&mut self) -> (Vec<ProcessId>, Vec<Unsubscription>, Vec<ProcessId>) {
        self.now = self.now.next();
        let mut subs = self.subs.to_vec();
        if !self.leaving && !subs.contains(&self.me) {
            subs.push(self.me);
        }
        if self.config.strategy == TruncationStrategy::Weighted {
            let room = self.config.subs_max.saturating_sub(subs.len());
            for p in self.view.select_advertised(&mut self.rng, room) {
                if !subs.contains(&p) {
                    subs.push(p);
                }
            }
        }
        let (now, window) = (self.now, self.config.unsub_obsolescence);
        self.unsubs.retain(|u| !u.is_obsolete(now, window));
        let targets = self.view.select_targets(&mut self.rng, self.config.fanout);
        if !targets.is_empty() {
            self.stats.gossips_sent += 1;
        }
        (subs, self.unsubs.to_vec(), targets)
    }
}

fn gossip(subs: &[ProcessId], unsubs: &[(ProcessId, u64)]) -> Gossip {
    Gossip {
        sender: ProcessId::new(7),
        subs: subs.to_vec(),
        unsubs: UnsubDigest::from_records(
            unsubs
                .iter()
                .map(|&(p, t)| Unsubscription::new(p, LogicalTime::new(t))),
        ),
        events: Vec::new(),
        event_ids: Digest::empty(),
    }
}

/// `(id, weight)` in storage order.
fn entries(view: &PartialView) -> Vec<(ProcessId, u32)> {
    view.entries().map(|e| (e.id, e.weight)).collect()
}

proptest! {
    #[test]
    fn filtered_admission_matches_the_scan_model(
        sizes in (1usize..=48, 1usize..=64, prop_oneof![1usize..=16, 1usize..=300]),
        knobs in (any::<bool>(), 1usize..=4, 0u64..6),
        refusal_threshold in prop_oneof![0usize..=8, 0usize..=300],
        me in id(),
        seed in any::<u64>(),
        members in vec(id(), 0..96),
        steps in vec(step(), 1..40),
    ) {
        let (l, subs_max, unsubs_max) = sizes;
        let (weighted, fanout, window) = knobs;
        let config = Config::builder()
            .view_size(l)
            .fanout(fanout.min(l))
            .subs_max(subs_max)
            .unsubs_max(unsubs_max)
            .unsub_obsolescence(window)
            .unsub_refusal_threshold(refusal_threshold)
            .strategy(if weighted { TruncationStrategy::Weighted } else { TruncationStrategy::Uniform })
            .build();
        let mut model = Model::new(me, config.clone(), seed, &members);
        let mut real = Lpbcast::with_initial_view(me, config, seed, members.iter().copied());
        prop_assert_eq!(entries(real.view()), entries(&model.view));

        // Ends on a tick: its targets are the next RNG draws.
        for step in steps.iter().chain([&Step::Tick]) {
            match step {
                Step::Gossip { subs, unsubs } => {
                    let g = gossip(subs, unsubs);
                    let before: BTreeSet<ProcessId> = real.view().members().into_iter().collect();
                    let evicted = model.receive(&g);
                    let out = real.handle_message(ProcessId::new(7), Message::gossip(g.clone()));
                    prop_assert!(out.delivered.is_empty() && out.outgoing.is_empty());

                    prop_assert_eq!(entries(real.view()), entries(&model.view));
                    let members = real.view().members();
                    let distinct: BTreeSet<ProcessId> = members.iter().copied().collect();
                    prop_assert_eq!(distinct.len(), members.len(), "duplicate in the view");
                    prop_assert!(members.len() <= l && !distinct.contains(&me));

                    // Evicted = (view − applied unsubs) ∪ admitted subs − view after.
                    let applied: BTreeSet<ProcessId> = g
                        .unsubs
                        .iter()
                        .filter(|u| !u.is_obsolete(real.now(), window))
                        .map(|u| u.process())
                        .collect();
                    let candidates: BTreeSet<ProcessId> = before
                        .difference(&applied)
                        .copied()
                        .chain(subs.iter().copied().filter(|&p| p != me))
                        .collect();
                    let real_evicted: BTreeSet<ProcessId> =
                        candidates.difference(&distinct).copied().collect();
                    let model_evicted: BTreeSet<ProcessId> = evicted.iter().copied().collect();
                    prop_assert_eq!(model_evicted.len(), evicted.len(), "evicted twice");
                    prop_assert_eq!(real_evicted, model_evicted);
                }
                Step::Unsubscribe => {
                    prop_assert_eq!(real.unsubscribe(), model.unsubscribe());
                    prop_assert_eq!(real.is_leaving(), model.leaving);
                }
                Step::Tick => {
                    let (subs, unsubs, targets) = model.tick();
                    let out = real.tick();
                    let sent: Vec<ProcessId> = out.outgoing.iter().map(|(to, _)| *to).collect();
                    prop_assert_eq!(&sent, &targets, "targets (the RNG) diverged");
                    if let Some((_, Message::Gossip(body))) = out.outgoing.first() {
                        prop_assert_eq!(&body.subs, &subs, "subs order diverged");
                        let records: Vec<(ProcessId, LogicalTime)> =
                            body.unsubs.iter().map(|u| (u.process(), u.issued_at())).collect();
                        let expected: Vec<(ProcessId, LogicalTime)> =
                            unsubs.iter().map(|u| (u.process(), u.issued_at())).collect();
                        prop_assert_eq!(records, expected, "unSubs order diverged");
                    }
                }
            }
            prop_assert_eq!(real.stats(), &model.stats);
        }
    }
}
