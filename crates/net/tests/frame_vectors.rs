//! One hand-written frame-v3 byte vector per frame kind. Each vector is
//! written from the layout tables in `crates/net/src/wire.rs`, not from
//! the encoder, and each one must be what the encoder writes for its
//! message, decode back to a message that re-encodes to it, and be as
//! long as `encoded_len` says.
//!
//! A codec change that moves bytes shows here as a reviewable diff of
//! these vectors; one that should move none leaves this file alone.

use lpbcast_core::{Digest, Gossip, LogicalTime, Message, UnsubDigest, Unsubscription};
use lpbcast_membership::{SwimMsg, Update, UpdateState};
use lpbcast_net::wire;
use lpbcast_net::WireMessage;
use lpbcast_pbcast::{GossipDigest, OriginRange, PbcastMessage};
use lpbcast_types::{CompactDigest, Event, EventId, ProcessId};

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

fn eid(p: u64, s: u64) -> EventId {
    EventId::new(pid(p), s)
}

/// Each vector is the whole frame of its message: what it encodes to,
/// what `encoded_len` counts, and what decodes back to the same frame.
/// Returns the kind bytes.
fn check<M: WireMessage>(vectors: &[(M, &[u8])]) -> Vec<u8> {
    let mut kinds = Vec::new();
    for (message, bytes) in vectors {
        assert_eq!(wire::encode(message).as_ref(), *bytes, "{message:?}");
        assert_eq!(message.encoded_len(), bytes.len(), "{message:?}");
        let decoded: M = wire::decode(bytes).expect("a vector decodes");
        assert_eq!(wire::encode(&decoded).as_ref(), *bytes, "{message:?}");
        assert_eq!(bytes[..2], [wire::MAGIC, wire::VERSION]);
        kinds.push(bytes[2]);
    }
    kinds
}

fn gossip(subs: &[u64], unsubs: UnsubDigest, events: Vec<Event>, ids: Digest) -> Message {
    Message::gossip(Gossip {
        sender: pid(3),
        subs: subs.iter().copied().map(pid).collect(),
        unsubs,
        events,
        event_ids: ids,
    })
}

fn lpbcast_vectors() -> Vec<u8> {
    let leaver = UnsubDigest::from_records([Unsubscription::new(pid(9), LogicalTime::new(42))]);
    let event = Event::new(eid(1, 300), b"ab".as_ref());
    let mut compact = CompactDigest::new();
    compact.extend([eid(1, 0), eid(1, 1), eid(1, 5), eid(4, 2)]);
    check(&[
        (
            gossip(
                &[3, 7],
                leaver,
                vec![event],
                Digest::Ids(vec![eid(1, 0), eid(2, 5)]),
            ),
            &[
                0x6C, 3, 0, // header, kind
                3, 2, 3, 7, // sender 3, subs 3 and 7
                1, 42, 1, 9, // one unSubs group: issued at 42, leaver 9
                1, 1, 0xAC, 0x02, 2, b'a', b'b', // one event (1, 300), "ab"
                0, 2, 1, 0, 2, 5, // id list (1, 0), (2, 5)
            ],
        ),
        (
            gossip(&[], UnsubDigest::new(), vec![], Digest::Compact(compact)),
            &[
                0x6C, 3, 0, // header, kind
                3, 0, 0, 0, // sender 3, no subs, no unSubs groups, no events
                1, 2, // compact digest of two origins
                1, 2, 1, 3, // origin Δ1, next_seq 2, one out-of-order seq 5 (Δ3)
                3, 0, 1, 2, // origin 4 (Δ3), next_seq 0, one out-of-order seq 2 (Δ2)
            ],
        ),
        (
            Message::Subscribe {
                subscriber: pid(300),
            },
            &[0x6C, 3, 1, 0xAC, 0x02],
        ),
        (
            Message::RetransmitRequest {
                ids: vec![eid(1, 2), eid(300, 1)],
            },
            &[0x6C, 3, 2, 2, 1, 2, 0xAC, 0x02, 1],
        ),
        (
            Message::RetransmitResponse {
                events: vec![Event::new(eid(5, 1), b"ok".as_ref())],
            },
            &[0x6C, 3, 3, 1, 5, 1, 2, b'o', b'k'],
        ),
    ])
}

fn pbcast_vectors() -> Vec<u8> {
    let range = |origin, min_seq, max_seq, hops| OriginRange {
        origin: pid(origin),
        min_seq,
        max_seq,
        hops,
    };
    let digest = GossipDigest {
        sender: pid(4),
        ranges: vec![range(1, 0, 0, 2), range(2, 9, 300, 0), range(2, 7, 8, 64)],
        subs: vec![pid(4), pid(7)],
    };
    check(&[
        (
            PbcastMessage::Multicast {
                event: Event::new(eid(3, 1), b"p".as_ref()),
                hops: 5,
            },
            &[0x6C, 3, 16, 3, 1, 1, b'p', 5],
        ),
        (
            PbcastMessage::Solicit {
                ids: vec![eid(1, 0), eid(1, 1)],
            },
            &[0x6C, 3, 18, 2, 1, 0, 1, 1],
        ),
        (
            PbcastMessage::digest(digest),
            &[
                0x6C, 3, 19, // header, kind
                4, 3, // sender 4, three ranges
                1, 0, 4, // (1, 0) alone at hops 2: 2 << 1, no span
                2, 9, 1, 0xA3, 0x02, // (2, 9..=300) at hops 0: run bit, span 291
                2, 7, 0x81, 0x01, 1, // (2, 7..=8) at hops 64: 64 << 1 | 1, span 1
                2, 4, 7, // subs 4 and 7
            ],
        ),
    ])
}

fn swim_vectors() -> Vec<u8> {
    let update = |subject, incarnation, state| {
        vec![Update {
            subject: pid(subject),
            incarnation,
            state,
        }]
    };
    let inner = Message::Subscribe { subscriber: pid(1) };
    let updates = update(7, 3, UpdateState::Suspect);
    check::<SwimMsg<Message>>(&[
        (
            SwimMsg::Wrapped {
                inner,
                updates: updates.clone(),
            },
            // Update (7, incarnation 3, Suspect), then Subscribe 1.
            &[0x6C, 3, 40, 1, 7, 3, 1, 1, 1],
        ),
        (SwimMsg::Ping { updates: vec![] }, &[0x6C, 3, 41, 0]),
        (
            SwimMsg::Ack {
                updates: update(9, 200, UpdateState::Confirm),
            },
            &[0x6C, 3, 42, 1, 9, 0xC8, 0x01, 2],
        ),
        (
            SwimMsg::PingReq {
                target: pid(3),
                updates: vec![],
            },
            &[0x6C, 3, 43, 3, 0],
        ),
        (
            SwimMsg::ProxyPing {
                origin: pid(1),
                updates: vec![],
            },
            &[0x6C, 3, 44, 1, 0],
        ),
        (
            SwimMsg::ProxyAck {
                origin: pid(1),
                updates,
            },
            &[0x6C, 3, 45, 1, 1, 7, 3, 1],
        ),
        (
            SwimMsg::IndirectAck {
                target: pid(3),
                updates: vec![],
            },
            &[0x6C, 3, 46, 3, 0],
        ),
    ])
}

/// Every kind in the `//! kind N — …` table of `wire.rs` has a vector
/// here, and every vector's kind is in the table.
#[test]
fn every_kind_has_a_hand_written_v3_vector() {
    let mut covered = [lpbcast_vectors(), pbcast_vectors(), swim_vectors()].concat();
    covered.dedup();
    let documented: Vec<u8> = include_str!("../src/wire.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//! kind ")?.split_once(' '))
        .map(|(byte, _)| byte.parse().expect("`//! kind N — …`"))
        .collect();
    assert_eq!(covered, documented);
}
