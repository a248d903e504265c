//! Property-based tests: protocol invariants under arbitrary message
//! sequences.

use lpbcast_core::{Config, Digest, Gossip, Lpbcast, Message, UnsubDigest, Unsubscription};
use lpbcast_core::{HistoryMode, LogicalTime};
use lpbcast_membership::View as _;
use lpbcast_types::{Event, EventId, ProcessId};
use proptest::collection::vec;
use proptest::prelude::*;

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

fn eid(p: u64, s: u64) -> EventId {
    EventId::new(pid(p), s)
}

/// A compact recipe for one synthetic gossip message.
#[derive(Debug, Clone)]
struct GossipRecipe {
    sender: u64,
    subs: Vec<u64>,
    unsub: Option<u64>,
    events: Vec<(u64, u64)>,
    digest: Vec<(u64, u64)>,
}

fn gossip_recipe() -> impl Strategy<Value = GossipRecipe> {
    (
        1u64..20,
        vec(1u64..20, 0..6),
        proptest::option::of(1u64..20),
        vec((1u64..8, 0u64..30), 0..5),
        vec((1u64..8, 0u64..30), 0..5),
    )
        .prop_map(|(sender, subs, unsub, events, digest)| GossipRecipe {
            sender,
            subs,
            unsub,
            events,
            digest,
        })
}

fn build_gossip(r: &GossipRecipe) -> Gossip {
    Gossip {
        sender: pid(r.sender),
        subs: r.subs.iter().map(|&p| pid(p)).collect(),
        unsubs: UnsubDigest::from_records(
            r.unsub
                .iter()
                .map(|&p| Unsubscription::new(pid(p), LogicalTime::ZERO)),
        ),
        events: r
            .events
            .iter()
            .map(|&(p, s)| Event::new(eid(p, s), b"payload".as_ref()))
            .collect(),
        event_ids: Digest::Ids(r.digest.iter().map(|&(p, s)| eid(p, s)).collect()),
    }
}

proptest! {
    /// Under any interleaving of gossips and ticks:
    /// the view never exceeds `l`, never contains the owner, and the
    /// process never delivers the same id twice while it is remembered.
    #[test]
    fn protocol_invariants_hold(
        recipes in vec(gossip_recipe(), 1..40),
        view_size in 1usize..8,
        seed in any::<u64>(),
        digest_mode in any::<bool>(),
        compact in any::<bool>(),
    ) {
        let config = Config::builder()
            .view_size(view_size)
            .fanout(1)
            .subs_max(4)
            .unsubs_max(4)
            .events_max(6)
            .event_ids_max(8)
            .deliver_on_digest(digest_mode)
            .history_mode(if compact { HistoryMode::Compact } else { HistoryMode::Bounded })
            .build();
        let me = pid(0);
        let mut p = Lpbcast::with_initial_view(me, config, seed, [pid(1)]);
        let mut delivered_log: Vec<EventId> = Vec::new();

        for (i, recipe) in recipes.iter().enumerate() {
            let gossip = build_gossip(recipe);
            let out = p.handle_message(pid(recipe.sender), Message::gossip(gossip));
            for e in &out.delivered {
                delivered_log.push(e.id());
            }
            prop_assert!(p.view().len() <= view_size, "view exceeded l");
            prop_assert!(!p.view().contains(me), "owner in own view");
            if i % 3 == 0 {
                let out = p.tick();
                // Outgoing gossip targets view members only.
                for (to, m) in &out.outgoing {
                    if matches!(m, Message::Gossip(_)) {
                        prop_assert!(*to != me, "gossip to self");
                    }
                }
            }
        }

        if compact {
            // Exact dedup: no id delivered twice, ever.
            let mut uniq = delivered_log.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), delivered_log.len(), "duplicate delivery in compact mode");
        }

        // Conservation: deliveries + duplicates == total event copies fed.
        let copies: u64 = recipes.iter().map(|r| r.events.len() as u64).sum();
        let s = p.stats();
        prop_assert_eq!(s.events_delivered + s.duplicate_events, copies);
    }

    /// Same seed + same inputs ⇒ identical outputs (full determinism).
    #[test]
    fn runs_are_reproducible(
        recipes in vec(gossip_recipe(), 1..20),
        seed in any::<u64>(),
    ) {
        let run = || {
            let config = Config::builder().view_size(5).fanout(2).build();
            let mut p = Lpbcast::with_initial_view(pid(0), config, seed, (1..=9).map(pid));
            let mut trace: Vec<String> = Vec::new();
            for recipe in &recipes {
                let out = p.handle_message(pid(recipe.sender), Message::gossip(build_gossip(recipe)));
                trace.push(format!("{:?}", out.delivered.iter().map(Event::id).collect::<Vec<_>>()));
                let out = p.tick();
                trace.push(format!("{:?}", out.outgoing.iter().map(|(to, _)| *to).collect::<Vec<_>>()));
            }
            let mut members = p.view().members();
            members.sort();
            trace.push(format!("{members:?}"));
            trace
        };
        prop_assert_eq!(run(), run());
    }

    /// Whatever happens, a process that unsubscribed keeps its own record
    /// in its unSubs buffer (the refusal rule protects it) and stops
    /// advertising itself.
    #[test]
    fn leaving_process_never_advertises_itself(
        recipes in vec(gossip_recipe(), 0..15),
        seed in any::<u64>(),
    ) {
        let config = Config::builder()
            .view_size(5)
            .fanout(2)
            .unsubs_max(64)
            .unsub_refusal_threshold(64)
            .build();
        let me = pid(0);
        let mut p = Lpbcast::with_initial_view(me, config, seed, [pid(1), pid(2)]);
        p.unsubscribe().expect("buffer below threshold");
        for recipe in &recipes {
            p.handle_message(pid(recipe.sender), Message::gossip(build_gossip(recipe)));
            let out = p.tick();
            for (_, m) in &out.outgoing {
                if let Message::Gossip(g) = m {
                    prop_assert!(!g.subs.contains(&me), "leaving process advertised itself");
                }
            }
        }
    }
}
