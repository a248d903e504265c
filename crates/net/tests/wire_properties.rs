//! Property tests for the wire codec: arbitrary messages survive a
//! round-trip, and arbitrary byte soup never panics the decoder.

use std::collections::{BTreeMap, BTreeSet};

use lpbcast_core::{Digest, Gossip, LogicalTime, Message, UnsubDigest, Unsubscription};
use lpbcast_net::wire;
use lpbcast_net::WireMessage;
use lpbcast_pbcast::{DigestEntries, DigestEntry, GossipDigest, OriginRange, PbcastMessage};
use lpbcast_pubsub::{PubSubMessage, TopicId};
use lpbcast_types::{CompactDigest, Event, EventId, ProcessId};
use proptest::collection::vec;
use proptest::prelude::*;

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

fn eid((p, s): (u64, u64)) -> EventId {
    EventId::new(pid(p), s)
}

prop_compose! {
    fn arb_event()(
        id in (any::<u64>(), any::<u64>()),
        payload in vec(any::<u8>(), 0..200),
    ) -> Event {
        Event::new(eid(id), payload)
    }
}

prop_compose! {
    fn arb_ids_digest()(ids in vec((any::<u64>(), any::<u64>()), 0..40)) -> Digest {
        Digest::Ids(ids.into_iter().map(eid).collect())
    }
}

prop_compose! {
    fn arb_compact_digest()(
        raw in vec((0u64..6, 0u64..64), 0..80),
    ) -> Digest {
        let mut d = CompactDigest::new();
        d.extend(raw.into_iter().map(eid));
        Digest::Compact(d)
    }
}

fn arb_digest() -> impl Strategy<Value = Digest> {
    prop_oneof![arb_ids_digest(), arb_compact_digest()]
}

prop_compose! {
    fn arb_gossip()(
        sender in any::<u64>(),
        subs in vec(any::<u64>(), 0..20),
        // Few distinct ids and timestamps, so records repeat and share
        // timestamps, drawn in no order; plus the u64 extremes.
        unsubs in vec(
            (
                prop_oneof![0u64..4, Just(u64::MAX), any::<u64>()],
                prop_oneof![0u64..6, Just(u64::MAX)],
            ),
            0..10,
        ),
        events in vec(arb_event(), 0..10),
        event_ids in arb_digest(),
    ) -> Gossip {
        Gossip {
            sender: pid(sender),
            subs: subs.into_iter().map(pid).collect(),
            unsubs: UnsubDigest::from_records(
                unsubs
                    .into_iter()
                    .map(|(p, t)| Unsubscription::new(pid(p), LogicalTime::new(t))),
            ),
            events,
            event_ids,
        }
    }
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_gossip().prop_map(Message::gossip),
        any::<u64>().prop_map(|p| Message::Subscribe { subscriber: pid(p) }),
        vec((any::<u64>(), any::<u64>()), 0..30).prop_map(|ids| Message::RetransmitRequest {
            ids: ids.into_iter().map(eid).collect()
        }),
        vec(arb_event(), 0..10).prop_map(|events| Message::RetransmitResponse { events }),
    ]
}

/// Structural equality witness: re-encode and compare bytes, plus check
/// the semantic fields that byte equality alone would already imply.
fn roundtrip_equal(message: &Message) -> bool {
    let bytes = wire::encode(message);
    match wire::decode::<Message>(&bytes) {
        Ok(decoded) => wire::encode(&decoded) == bytes,
        Err(_) => false,
    }
}

proptest! {
    #[test]
    fn arbitrary_messages_roundtrip(message in arb_message()) {
        prop_assert!(roundtrip_equal(&message));
    }

    #[test]
    fn event_payloads_survive_byte_for_byte(event in arb_event()) {
        let message = Message::RetransmitResponse { events: vec![event.clone()] };
        let decoded = wire::decode(&wire::encode(&message)).expect("valid");
        match decoded {
            Message::RetransmitResponse { events } => {
                prop_assert_eq!(events.len(), 1);
                prop_assert_eq!(events[0].id(), event.id());
                prop_assert_eq!(events[0].payload().as_ref(), event.payload().as_ref());
            }
            _ => prop_assert!(false, "kind changed"),
        }
    }

    #[test]
    fn compact_digest_membership_preserved(
        raw in vec((0u64..4, 0u64..48), 0..60),
    ) {
        let mut digest = CompactDigest::new();
        digest.extend(raw.iter().map(|&x| eid(x)));
        let message = Message::gossip(Gossip {
            sender: pid(0),
            subs: vec![],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::Compact(digest.clone()),
        });
        let decoded = wire::decode(&wire::encode(&message)).expect("valid");
        let Message::Gossip(g) = decoded else {
            return Err(TestCaseError::fail("kind changed"));
        };
        for p in 0..4u64 {
            for s in 0..49u64 {
                prop_assert_eq!(
                    g.event_ids.contains(eid((p, s))),
                    digest.contains(eid((p, s))),
                    "membership diverged at ({}, {})", p, s
                );
            }
        }
    }

    /// Fuzz: the decoder must never panic, whatever the bytes.
    #[test]
    fn random_bytes_never_panic(data in vec(any::<u8>(), 0..600)) {
        let _ = wire::decode::<Message>(&data);
    }

    /// Fuzz: corrupting any single byte of a valid datagram must never
    /// panic (it may still decode to a different valid message).
    #[test]
    fn single_byte_corruption_never_panics(
        message in arb_message(),
        pos_seed in any::<usize>(),
        new_byte in any::<u8>(),
    ) {
        let mut bytes = wire::encode(&message).to_vec();
        if !bytes.is_empty() {
            let pos = pos_seed % bytes.len();
            bytes[pos] = new_byte;
            let _ = wire::decode::<Message>(&bytes);
        }
    }

    /// Fuzz: truncation at any point must never panic.
    #[test]
    fn truncation_never_panics(message in arb_message(), cut_seed in any::<usize>()) {
        let bytes = wire::encode(&message);
        let cut = cut_seed % (bytes.len() + 1);
        let _ = wire::decode::<Message>(&bytes[..cut]);
    }
}

/// A from-the-spec reference encoder for gossip datagrams, implemented
/// independently of `wire::encode` against the layout documented at the
/// top of `crates/net/src/wire.rs`. The event payloads are written
/// inline, so byte equality below proves the shared-`Arc` payload
/// representation leaves the wire bytes untouched. The `unSubs` section
/// is grouped here from the records alone: representation byte 1, then
/// one group per distinct timestamp, ascending, each with its distinct
/// leavers ascending.
fn reference_encode_gossip(g: &Gossip) -> Vec<u8> {
    let mut out = vec![wire::MAGIC, wire::VERSION, 0u8];
    out.extend_from_slice(&g.sender.as_u64().to_le_bytes());
    out.extend_from_slice(&(g.subs.len() as u16).to_le_bytes());
    for p in &g.subs {
        out.extend_from_slice(&p.as_u64().to_le_bytes());
    }
    let mut groups: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for u in g.unsubs.iter() {
        groups
            .entry(u.issued_at().as_u64())
            .or_default()
            .insert(u.process().as_u64());
    }
    out.push(1);
    out.extend_from_slice(&(groups.len() as u16).to_le_bytes());
    for (issued_at, leavers) in &groups {
        out.extend_from_slice(&issued_at.to_le_bytes());
        out.extend_from_slice(&(leavers.len() as u16).to_le_bytes());
        for p in leavers {
            out.extend_from_slice(&p.to_le_bytes());
        }
    }
    out.extend_from_slice(&(g.events.len() as u16).to_le_bytes());
    for e in &g.events {
        out.extend_from_slice(&e.id().origin().as_u64().to_le_bytes());
        out.extend_from_slice(&e.id().seq().to_le_bytes());
        out.extend_from_slice(&(e.payload().len() as u32).to_le_bytes());
        out.extend_from_slice(e.payload());
    }
    match &g.event_ids {
        Digest::Ids(ids) => {
            out.push(0);
            out.extend_from_slice(&(ids.len() as u16).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.origin().as_u64().to_le_bytes());
                out.extend_from_slice(&id.seq().to_le_bytes());
            }
        }
        Digest::Compact(d) => {
            out.push(1);
            out.extend_from_slice(&(d.origin_count() as u16).to_le_bytes());
            for (origin, od) in d.iter() {
                out.extend_from_slice(&origin.as_u64().to_le_bytes());
                out.extend_from_slice(&od.next_seq().to_le_bytes());
                let ooo: Vec<u64> = od.out_of_order().collect();
                out.extend_from_slice(&(ooo.len() as u16).to_le_bytes());
                for s in ooo {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
        }
    }
    out
}

/// An otherwise empty gossip frame whose compact digest lists `origins`
/// verbatim — in the order, and with the repetitions, given.
fn compact_digest_frame(origins: &[(u64, u64, Vec<u64>)]) -> Vec<u8> {
    let mut out = vec![wire::MAGIC, wire::VERSION, 0u8];
    out.extend_from_slice(&7u64.to_le_bytes()); // sender
    out.extend_from_slice(&0u16.to_le_bytes()); // subs
    out.push(1); // grouped unSubs …
    out.extend_from_slice(&0u16.to_le_bytes()); // … none
    out.extend_from_slice(&0u16.to_le_bytes()); // events
    out.push(1); // compact digest
    out.extend_from_slice(&u16::try_from(origins.len()).unwrap().to_le_bytes());
    for (origin, next_seq, ooo) in origins {
        out.extend_from_slice(&origin.to_le_bytes());
        out.extend_from_slice(&next_seq.to_le_bytes());
        out.extend_from_slice(&u16::try_from(ooo.len()).unwrap().to_le_bytes());
        for s in ooo {
            out.extend_from_slice(&s.to_le_bytes());
        }
    }
    out
}

/// The compact digest is stored sorted, and a sorted `Vec` filled by
/// repeated insertion is quadratic on descending input where the B-tree
/// it replaced was not. The largest frame the codec admits — `u16::MAX`
/// origins, one of them with `u16::MAX` out-of-order entries, everything
/// descending and repeated — must decode (in bulk: the test takes a
/// fraction of a second unoptimised) to what its ascending, de-duplicated
/// twin decodes to, and re-encode to the twin's bytes.
#[test]
fn hostile_compact_digest_decodes_like_its_sorted_twin() {
    const MAX: u64 = u16::MAX as u64;
    let n_origins = MAX.div_ceil(2);
    // Every origin twice, descending; the two copies overlap, and their
    // union closes the gap above the watermark: {<5, 5, 6, 7, 9} → 8 + {9}.
    let mut hostile: Vec<(u64, u64, Vec<u64>)> = (0..MAX)
        .rev()
        .map(|k| match k % 2 {
            0 => (100 + k / 2, 3, vec![9, 7]),
            _ => (100 + k / 2, 5, vec![7, 6, 5]),
        })
        .collect();
    let mut twin: Vec<(u64, u64, Vec<u64>)> =
        (0..n_origins).map(|k| (100 + k, 8, vec![9])).collect();
    // The first-listed (highest) origin has no second copy; it carries
    // the longest out-of-order run there can be instead: the even
    // sequence numbers descending, each twice; 0 and 2 fall below the
    // watermark and 4 on it.
    assert_eq!(hostile[0].0, twin.last().unwrap().0);
    hostile[0] = (
        hostile[0].0,
        4,
        (0..MAX).rev().map(|k| 2 * (k / 2)).collect(),
    );
    *twin.last_mut().unwrap() = (hostile[0].0, 5, (3..n_origins).map(|k| 2 * k).collect());

    let hostile = compact_digest_frame(&hostile);
    let twin = compact_digest_frame(&twin);
    let decoded = wire::decode::<Message>(&hostile).expect("hostile frame is well-formed");
    let expected = wire::decode::<Message>(&twin).expect("twin frame is well-formed");
    let (Message::Gossip(decoded_gossip), Message::Gossip(expected_gossip)) = (&decoded, &expected)
    else {
        panic!("kind changed");
    };
    assert_eq!(decoded_gossip.event_ids, expected_gossip.event_ids);
    assert_eq!(wire::encode(&decoded).as_ref(), twin.as_slice());
    assert_eq!(decoded.encoded_len(), twin.len());
}

proptest! {
    /// Reference-encoder witness: encoding an `Arc`-shared gossip is
    /// byte-identical to the independent from-the-spec encoder, for
    /// arbitrary gossip bodies, and still round-trips.
    #[test]
    fn shared_payload_encoding_matches_reference(gossip in arb_gossip()) {
        let shared = Message::gossip(gossip.clone());
        let encoded = wire::encode(&shared);
        let reference = reference_encode_gossip(&gossip);
        prop_assert_eq!(
            encoded.as_ref(),
            reference.as_slice(),
            "Arc-shared payload changed the wire bytes"
        );
        prop_assert!(roundtrip_equal(&shared));
    }
}

// ───────────────── pbcast + pub/sub message properties ────────────────

prop_compose! {
    fn arb_origin_range()(
        origin in any::<u64>(),
        min_seq in 0u64..1000,
        advertised in vec(any::<bool>(), 1..40),
        hops in 0u32..20,
    ) -> OriginRange {
        // Build from a presence bitmap so gaps are consistent by
        // construction (ascending, inside the span, endpoints advertised).
        let mut seqs: Vec<u64> = advertised
            .iter()
            .enumerate()
            .filter_map(|(i, &yes)| yes.then_some(min_seq + i as u64))
            .collect();
        if seqs.is_empty() {
            seqs.push(min_seq);
        }
        let (lo, hi) = (seqs[0], *seqs.last().unwrap());
        let gaps: Vec<u64> = (lo..=hi).filter(|s| !seqs.contains(s)).collect();
        OriginRange { origin: pid(origin), min_seq: lo, max_seq: hi, gaps, hops }
    }
}

fn arb_digest_entries() -> impl Strategy<Value = DigestEntries> {
    prop_oneof![
        vec(((any::<u64>(), any::<u64>()), 0u32..20), 0..30).prop_map(|raw| {
            DigestEntries::Flat(
                raw.into_iter()
                    .map(|(id, hops)| DigestEntry { id: eid(id), hops })
                    .collect(),
            )
        }),
        vec(arb_origin_range(), 0..10).prop_map(DigestEntries::Compact),
    ]
}

fn arb_pbcast_message() -> impl Strategy<Value = PbcastMessage> {
    prop_oneof![
        (arb_event(), 0u32..30).prop_map(|(event, hops)| PbcastMessage::Multicast { event, hops }),
        (any::<u64>(), arb_digest_entries(), vec(any::<u64>(), 0..15)).prop_map(
            |(sender, entries, subs)| {
                PbcastMessage::digest(GossipDigest {
                    sender: pid(sender),
                    entries,
                    subs: subs.into_iter().map(pid).collect(),
                })
            }
        ),
        vec((any::<u64>(), any::<u64>()), 0..30).prop_map(|ids| PbcastMessage::Solicit {
            ids: ids.into_iter().map(eid).collect()
        }),
    ]
}

prop_compose! {
    fn arb_pubsub_message()(
        topic in 0u64..1000,
        inner in arb_message(),
    ) -> PubSubMessage {
        PubSubMessage { topic: TopicId::new(format!("topic-{topic}")), inner }
    }
}

fn roundtrip_equal_generic<M: WireMessage>(message: &M) -> bool {
    let bytes = wire::encode(message);
    match wire::decode::<M>(&bytes) {
        Ok(decoded) => wire::encode(&decoded) == bytes,
        Err(_) => false,
    }
}

proptest! {
    /// Both digest forms (and every other pbcast kind) round-trip.
    #[test]
    fn pbcast_messages_roundtrip(message in arb_pbcast_message()) {
        prop_assert!(roundtrip_equal_generic(&message));
    }

    /// Topic-tagged pub/sub frames round-trip, topic included.
    #[test]
    fn pubsub_messages_roundtrip(message in arb_pubsub_message()) {
        let bytes = wire::encode(&message);
        let decoded: PubSubMessage = wire::decode(&bytes).expect("own frames decode");
        prop_assert_eq!(&decoded.topic, &message.topic);
        let re_encoded = wire::encode(&decoded);
        prop_assert_eq!(re_encoded.as_ref(), bytes.as_ref());
    }

    /// The arithmetic `encoded_len` is exactly what the encoder writes —
    /// this is what lets the simulator meter bytes without serializing.
    #[test]
    fn encoded_len_matches_encoder_lpbcast(message in arb_message()) {
        prop_assert_eq!(message.encoded_len(), wire::encode(&message).len());
    }

    #[test]
    fn encoded_len_matches_encoder_pbcast(message in arb_pbcast_message()) {
        prop_assert_eq!(message.encoded_len(), wire::encode(&message).len());
    }

    #[test]
    fn encoded_len_matches_encoder_pubsub(message in arb_pubsub_message()) {
        prop_assert_eq!(message.encoded_len(), wire::encode(&message).len());
    }

    /// Fuzz: the pbcast and pub/sub decoders never panic on byte soup.
    #[test]
    fn random_bytes_never_panic_other_kinds(data in vec(any::<u8>(), 0..600)) {
        let _ = wire::decode::<PbcastMessage>(&data);
        let _ = wire::decode::<PubSubMessage>(&data);
    }

    /// Fuzz: corrupting one byte of a valid pbcast datagram never panics
    /// (compact-range validation must reject, not overflow).
    #[test]
    fn pbcast_single_byte_corruption_never_panics(
        message in arb_pbcast_message(),
        pos_seed in any::<usize>(),
        new_byte in any::<u8>(),
    ) {
        let mut bytes = wire::encode(&message).to_vec();
        if !bytes.is_empty() {
            let pos = pos_seed % bytes.len();
            bytes[pos] = new_byte;
            if let Ok(decoded) = wire::decode::<PbcastMessage>(&bytes) {
                // Whatever decoded must be safely re-encodable and
                // walkable (ranges bounded by MAX_RANGE_SPAN).
                if let PbcastMessage::GossipDigest(d) = &decoded {
                    let _ = d.entries.advertised_count();
                }
                let _ = wire::encode(&decoded);
            }
        }
    }
}

/// Re-encodes a decoded sequence so sequences can be compared by bytes
/// (the codec is canonical: equal bytes ⇔ equal messages).
fn stream_of(messages: &[Message]) -> Vec<u8> {
    messages
        .iter()
        .flat_map(|m| wire::encode(m).to_vec())
        .collect()
}

proptest! {
    /// The cluster runtime batches frames into datagrams and splits
    /// batches at MAX_DATAGRAM: however a frame stream is partitioned
    /// *at frame boundaries* into datagrams, the concatenation of the
    /// per-datagram decodes is the original message sequence.
    #[test]
    fn frame_split_boundaries_never_change_the_sequence(
        messages in vec(arb_message(), 1..8),
        split_seeds in vec(any::<usize>(), 0..4),
    ) {
        let frames: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| wire::encode(m).to_vec())
            .collect();
        let stream: Vec<u8> = frames.concat();

        // Interior frame boundaries (cumulative frame ends, minus EOF).
        let mut boundaries = Vec::new();
        let mut off = 0;
        for f in &frames[..frames.len() - 1] {
            off += f.len();
            boundaries.push(off);
        }

        // Pick a sorted, deduplicated subset of boundaries as cuts.
        let mut cuts: Vec<usize> = split_seeds
            .iter()
            .filter(|_| !boundaries.is_empty())
            .map(|s| boundaries[s % boundaries.len()])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut decoded: Vec<Message> = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([stream.len()]) {
            decoded.extend(
                wire::decode_frames::<Message>(&stream[start..cut])
                    .expect("datagram of whole frames decodes"),
            );
            start = cut;
        }
        prop_assert_eq!(decoded.len(), messages.len());
        prop_assert_eq!(stream_of(&decoded), stream);
    }

    /// A datagram truncated anywhere that is *not* a frame boundary is
    /// rejected whole (the caller treats it as loss); truncation exactly
    /// at a boundary yields the leading frames.
    #[test]
    fn truncated_batches_reject_or_prefix_decode(
        messages in vec(arb_message(), 1..6),
        cut_seed in any::<usize>(),
    ) {
        let frames: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| wire::encode(m).to_vec())
            .collect();
        let stream: Vec<u8> = frames.concat();
        let cut = 1 + cut_seed % (stream.len() - 1);

        let mut boundary_frames = None;
        let mut off = 0;
        for (i, f) in frames.iter().enumerate() {
            off += f.len();
            if off == cut {
                boundary_frames = Some(i + 1);
            }
        }

        match (boundary_frames, wire::decode_frames::<Message>(&stream[..cut])) {
            (Some(n), Ok(decoded)) => {
                prop_assert_eq!(decoded.len(), n);
                prop_assert_eq!(stream_of(&decoded), stream[..cut].to_vec());
            }
            (Some(n), Err(e)) => {
                return Err(TestCaseError::fail(format!(
                    "boundary cut after {n} frames failed to decode: {e:?}"
                )));
            }
            (None, Ok(_)) => {
                return Err(TestCaseError::fail(
                    "mid-frame truncation decoded successfully",
                ));
            }
            (None, Err(_)) => {} // rejected whole, as required
        }
    }

    /// Cluster datagrams: whole sections come back in order; arbitrary,
    /// bit-flipped and truncated bytes through the section decoder never
    /// panic, and every section it yields lies inside the datagram.
    #[test]
    fn section_decoder_stays_inside_the_datagram(
        sections in vec((any::<u64>(), any::<u64>(), vec(arb_message(), 1..3)), 0..5),
        flips in vec((any::<usize>(), any::<u8>()), 1..4),
        cut_seed in any::<usize>(),
        soup in vec(any::<u8>(), 0..256),
    ) {
        let mut datagram = bytes::BytesMut::new();
        wire::encode_datagram_header(&mut datagram);
        let mut expected = Vec::new();
        for (from, dest, messages) in &sections {
            let frames: Vec<u8> = stream_of(messages);
            wire::encode_section(&mut datagram, pid(*from), pid(*dest), &frames)
                .expect("small sections fit");
            expected.push((pid(*from), pid(*dest), frames));
        }
        let whole = datagram.to_vec();
        let decoded: Vec<_> = wire::decode_sections(&whole)
            .expect("header is valid")
            .map(|s| (s.from, s.dest, s.frames.to_vec()))
            .collect();
        prop_assert_eq!(decoded, expected);

        let mut flipped = whole.clone();
        for (at, bits) in &flips {
            let len = flipped.len();
            flipped[at % len] ^= bits;
        }
        let cut = cut_seed % (whole.len() + 1);
        // Hostile bytes behind a valid header reach the section walk.
        let behind_header = [&whole[..wire::CLUSTER_HEADER_LEN], &soup[..]].concat();
        for data in [&soup[..], &flipped[..], &whole[..cut], &behind_header[..]] {
            let Ok(walk) = wire::decode_sections(data) else {
                continue;
            };
            let inside = data.as_ptr_range();
            for section in walk {
                let range = section.frames.as_ptr_range();
                prop_assert!(inside.start <= range.start && range.end <= inside.end);
                let _ = wire::decode_frames::<Message>(section.frames);
            }
        }
    }
}
