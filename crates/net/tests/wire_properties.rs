//! Property tests for the wire codec: arbitrary messages survive a
//! round-trip, and arbitrary byte soup never panics the decoder; plus the
//! frame-v3 varint rules (shortest form only, nothing past `u64::MAX`)
//! and the per-element floors that bound what a hostile count allocates.

use std::collections::{BTreeMap, BTreeSet};

use lpbcast_core::{Digest, Gossip, LogicalTime, Message, UnsubDigest, Unsubscription};
use lpbcast_membership::{SwimMsg, Update, UpdateState};
use lpbcast_net::wire::{self, WireError};
use lpbcast_net::WireMessage;
use lpbcast_pbcast::{DigestEntry, GossipDigest, OriginRange, PbcastMessage};
use lpbcast_types::{varint, CompactDigest, Event, EventId, ProcessId};
use proptest::collection::vec;
use proptest::prelude::*;

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

fn eid((p, s): (u64, u64)) -> EventId {
    EventId::new(pid(p), s)
}

/// The varint length boundaries, one byte per 7 bits: 0, 127 | 128, 2⁵⁶ -
/// 1 | 2⁵⁶, `u64::MAX`.
const EDGES: [u64; 6] = [0, 127, 128, (1 << 56) - 1, 1 << 56, u64::MAX];

/// Small ids and seqs, as the engine assigns them, the varint length
/// boundaries, and anything at all.
fn arb_int() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..300,
        (0..EDGES.len()).prop_map(|i| EDGES[i]),
        any::<u64>()
    ]
}

prop_compose! {
    fn arb_event()(
        id in (arb_int(), arb_int()),
        payload in vec(any::<u8>(), 0..200),
    ) -> Event {
        Event::new(eid(id), payload)
    }
}

prop_compose! {
    fn arb_ids_digest()(ids in vec((arb_int(), arb_int()), 0..40)) -> Digest {
        Digest::Ids(ids.into_iter().map(eid).collect())
    }
}

prop_compose! {
    fn arb_compact_digest()(
        raw in vec((0u64..6, 0u64..64), 0..80),
        far in vec((arb_int(), arb_int()), 0..4),
    ) -> Digest {
        let mut d = CompactDigest::new();
        d.extend(raw.into_iter().chain(far).map(eid));
        Digest::Compact(d)
    }
}

fn arb_digest() -> impl Strategy<Value = Digest> {
    prop_oneof![arb_ids_digest(), arb_compact_digest()]
}

prop_compose! {
    fn arb_gossip()(
        sender in arb_int(),
        subs in vec(arb_int(), 0..20),
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
        arb_int().prop_map(|p| Message::Subscribe { subscriber: pid(p) }),
        vec((arb_int(), arb_int()), 0..30).prop_map(|ids| Message::RetransmitRequest {
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

/// Appends `value` as an unsigned LEB128 varint — written from the
/// spec, independently of the codec.
fn leb(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let low = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(low);
            return;
        }
        out.push(low | 0x80);
    }
}

/// A from-the-spec reference encoder for gossip frames, implemented
/// independently of `wire::encode` against the frame-v3 layout documented
/// at the top of `crates/net/src/wire.rs`. The event payloads are written
/// inline, so byte equality below proves the shared-`Arc` payload
/// representation leaves the wire bytes untouched. The `unSubs` section
/// is grouped here from the records alone: one group per distinct
/// timestamp, ascending, each with its distinct
/// leavers ascending. The compact digest's origins, and each origin's
/// out-of-order seqs, are delta-coded.
fn reference_encode_gossip(g: &Gossip) -> Vec<u8> {
    let mut out = vec![wire::MAGIC, wire::VERSION, 0u8];
    leb(&mut out, g.sender.as_u64());
    leb(&mut out, g.subs.len() as u64);
    for p in &g.subs {
        leb(&mut out, p.as_u64());
    }
    let mut groups: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for u in g.unsubs.iter() {
        groups
            .entry(u.issued_at().as_u64())
            .or_default()
            .insert(u.process().as_u64());
    }
    leb(&mut out, groups.len() as u64);
    for (issued_at, leavers) in &groups {
        leb(&mut out, *issued_at);
        leb(&mut out, leavers.len() as u64);
        for p in leavers {
            leb(&mut out, *p);
        }
    }
    leb(&mut out, g.events.len() as u64);
    for e in &g.events {
        leb(&mut out, e.id().origin().as_u64());
        leb(&mut out, e.id().seq());
        leb(&mut out, e.payload().len() as u64);
        out.extend_from_slice(e.payload());
    }
    match &g.event_ids {
        Digest::Ids(ids) => {
            out.push(0);
            leb(&mut out, ids.len() as u64);
            for id in ids {
                leb(&mut out, id.origin().as_u64());
                leb(&mut out, id.seq());
            }
        }
        Digest::Compact(d) => {
            out.push(1);
            let origins: Vec<(u64, u64, Vec<u64>)> = d
                .iter()
                .map(|(origin, od)| (origin.as_u64(), od.next_seq(), od.out_of_order().collect()))
                .collect();
            out.extend_from_slice(&compact_digest_section(&origins));
        }
    }
    out
}

/// A compact digest section (count, then per origin its delta, watermark
/// and delta-coded out-of-order run) listing `origins` verbatim: the
/// origins must not descend, and each run must not descend below its
/// watermark, but repetitions are written as given (zero deltas).
fn compact_digest_section(origins: &[(u64, u64, Vec<u64>)]) -> Vec<u8> {
    let mut out = Vec::new();
    leb(&mut out, origins.len() as u64);
    let mut prev_origin = 0;
    for (origin, next_seq, ooo) in origins {
        leb(&mut out, origin - prev_origin);
        prev_origin = *origin;
        leb(&mut out, *next_seq);
        leb(&mut out, ooo.len() as u64);
        let mut prev_seq = *next_seq;
        for s in ooo {
            leb(&mut out, s - prev_seq);
            prev_seq = *s;
        }
    }
    out
}

/// An otherwise empty gossip frame whose compact digest lists `origins`
/// verbatim ([`compact_digest_section`]).
fn compact_digest_frame(origins: &[(u64, u64, Vec<u64>)]) -> Vec<u8> {
    // Sender 7, no subs, no unSubs groups, no events, then the compact
    // digest kind.
    let mut out = vec![wire::MAGIC, wire::VERSION, 0u8, 7, 0, 0, 0, 1];
    out.extend_from_slice(&compact_digest_section(origins));
    out
}

/// The compact digest is stored sorted, and repeated origins and
/// sequence numbers (zero deltas) must be merged in bulk: per-entry
/// insertion into the sorted storage would shift once per repeat. A frame
/// of `u16::MAX` origin entries, each origin listed twice with
/// overlapping runs, one of them with `u16::MAX` out-of-order entries each
/// listed twice, must decode (in bulk: the test takes a fraction of a
/// second unoptimised) to what its de-duplicated twin decodes to, and
/// re-encode to the twin's bytes.
#[test]
fn hostile_compact_digest_decodes_like_its_sorted_twin() {
    const MAX: u64 = u16::MAX as u64;
    let n_origins = MAX.div_ceil(2);
    // Every origin twice; the two copies overlap, and their union closes
    // the gap above the watermark: {<3, 5, 7, 7, 9} ∪ {<5, 5, 6, 7} →
    // 8 + {9}.
    let mut hostile: Vec<(u64, u64, Vec<u64>)> = (0..MAX)
        .map(|k| match k % 2 {
            0 => (100 + k / 2, 3, vec![5, 7, 7, 9]),
            _ => (100 + k / 2, 5, vec![5, 6, 7]),
        })
        .collect();
    let mut twin: Vec<(u64, u64, Vec<u64>)> =
        (0..n_origins).map(|k| (100 + k, 8, vec![9])).collect();
    // The last-listed (highest) origin has no second copy; it carries
    // the longest out-of-order run there can be instead: the even
    // sequence numbers from the watermark up, each twice. The first, on
    // the watermark, is absorbed into it.
    let last = hostile.last_mut().unwrap();
    assert_eq!(last.0, twin.last().unwrap().0);
    *last = (last.0, 4, (0..MAX).map(|k| 4 + 2 * (k / 2)).collect());
    *twin.last_mut().unwrap() = (last.0, 5, (3..=n_origins + 1).map(|k| 2 * k).collect());

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

// ───────────────────── pbcast message properties ───────────────────────

prop_compose! {
    /// A range as a well-formed digest carries it: any origin, a span
    /// up to 40, and hop counts on both sides of the run bit's one-byte
    /// limit (64) and at the `u32` top.
    fn arb_origin_range()(
        origin in arb_int(),
        min_seq in arb_int(),
        span in prop_oneof![Just(0u64), 0u64..40],
        hops in prop_oneof![0u32..70, Just(u32::MAX)],
    ) -> OriginRange {
        let min_seq = min_seq.min(u64::MAX - span);
        OriginRange { origin: pid(origin), min_seq, max_seq: min_seq + span, hops }
    }
}

/// Digest entries as a store walk yields them: few origins, dense seqs
/// and few hop counts, so runs and repeats are common, plus ids and hop
/// counts anywhere below 64.
fn arb_digest_entries() -> impl Strategy<Value = Vec<DigestEntry>> {
    let id = prop_oneof![(0u64..4, 0u64..48), (arb_int(), arb_int())];
    let hops = prop_oneof![0u32..3, 0u32..64];
    vec((id, hops), 0..60).prop_map(|raw| {
        raw.into_iter()
            .map(|(id, hops)| DigestEntry { id: eid(id), hops })
            .collect()
    })
}

fn arb_gossip_digest() -> impl Strategy<Value = GossipDigest> {
    let subs = || vec(arb_int(), 0..15).prop_map(|s| s.into_iter().map(pid).collect());
    prop_oneof![
        (arb_int(), vec(arb_origin_range(), 0..10), subs()).prop_map(|(sender, ranges, subs)| {
            GossipDigest {
                sender: pid(sender),
                ranges,
                subs,
            }
        }),
        (arb_int(), arb_digest_entries(), subs())
            .prop_map(|(sender, entries, subs)| GossipDigest::new(pid(sender), &entries, subs)),
    ]
}

fn arb_pbcast_message() -> impl Strategy<Value = PbcastMessage> {
    prop_oneof![
        (arb_event(), 0u32..30).prop_map(|(event, hops)| PbcastMessage::Multicast { event, hops }),
        arb_gossip_digest().prop_map(PbcastMessage::digest),
        vec((any::<u64>(), any::<u64>()), 0..30).prop_map(|ids| PbcastMessage::Solicit {
            ids: ids.into_iter().map(eid).collect()
        }),
    ]
}

fn roundtrip_equal_generic<M: WireMessage>(message: &M) -> bool {
    let bytes = wire::encode(message);
    match wire::decode::<M>(&bytes) {
        Ok(decoded) => wire::encode(&decoded) == bytes,
        Err(_) => false,
    }
}

proptest! {
    /// Every pbcast kind round-trips.
    #[test]
    fn pbcast_messages_roundtrip(message in arb_pbcast_message()) {
        prop_assert!(roundtrip_equal_generic(&message));
    }

    /// `encoded_len`, the encoder's walk on a byte counter, is exactly
    /// what the encoder writes — this is what lets the simulator meter
    /// bytes without serializing.
    #[test]
    fn encoded_len_matches_encoder_lpbcast(message in arb_message()) {
        prop_assert_eq!(message.encoded_len(), wire::encode(&message).len());
    }

    #[test]
    fn encoded_len_matches_encoder_pbcast(message in arb_pbcast_message()) {
        prop_assert_eq!(message.encoded_len(), wire::encode(&message).len());
    }

    /// Fuzz: the pbcast decoder never panics on byte soup.
    #[test]
    fn random_bytes_never_panic_other_kinds(data in vec(any::<u8>(), 0..600)) {
        let _ = wire::decode::<PbcastMessage>(&data);
    }

    /// Fuzz: corrupting one byte of a valid pbcast datagram never panics
    /// (range validation must reject, not overflow).
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
                // walkable (ranges bounded by MAX_SPAN).
                if let PbcastMessage::GossipDigest(d) = &decoded {
                    let _ = d.entries().count();
                }
                let _ = wire::encode(&decoded);
            }
        }
    }
}

/// A from-the-spec reference encoder for the pbcast digest (kind 19),
/// written against the frame-v3 layout in `crates/net/src/wire.rs`:
/// per range its origin, first seq and `hops << 1 | run`, then the span
/// only when the run bit is set.
fn reference_encode_pbcast_digest(d: &GossipDigest) -> Vec<u8> {
    let mut out = vec![wire::MAGIC, wire::VERSION, 19];
    leb(&mut out, d.sender.as_u64());
    leb(&mut out, d.ranges.len() as u64);
    for r in &d.ranges {
        let span = r.max_seq - r.min_seq;
        leb(&mut out, r.origin.as_u64());
        leb(&mut out, r.min_seq);
        leb(&mut out, (u64::from(r.hops) << 1) | u64::from(span > 0));
        if span > 0 {
            leb(&mut out, span);
        }
    }
    leb(&mut out, d.subs.len() as u64);
    for p in &d.subs {
        leb(&mut out, p.as_u64());
    }
    out
}

proptest! {
    /// Any digest, built or hand-made, encodes to the reference bytes.
    #[test]
    fn pbcast_digest_encoding_matches_reference(digest in arb_gossip_digest()) {
        let reference = reference_encode_pbcast_digest(&digest);
        let message = PbcastMessage::digest(digest);
        let bytes = wire::encode(&message);
        prop_assert_eq!(bytes.as_ref(), reference.as_slice());
    }

    /// A digest built from any `(id, hops < 64)` list advertises exactly
    /// the distinct entries, and is never longer than the same frame
    /// listing one `(origin, seq, hops)` triple per distinct entry — so no
    /// chooser between forms is needed.
    #[test]
    fn built_digest_is_never_longer_than_its_triples(
        sender in arb_int(),
        entries in arb_digest_entries(),
    ) {
        let bytes = wire::encode(&PbcastMessage::digest(GossipDigest::new(pid(sender), &entries, vec![])));
        let distinct: BTreeSet<(u64, u64, u32)> = entries
            .iter()
            .map(|e| (e.id.origin().as_u64(), e.id.seq(), e.hops))
            .collect();
        let Ok(PbcastMessage::GossipDigest(decoded)) = wire::decode::<PbcastMessage>(&bytes) else {
            return Err(TestCaseError::fail("kind changed"));
        };
        let mut advertised: Vec<(u64, u64, u32)> = decoded
            .entries()
            .map(|e| (e.id.origin().as_u64(), e.id.seq(), e.hops))
            .collect();
        advertised.sort_unstable();
        prop_assert_eq!(&advertised, &distinct.iter().copied().collect::<Vec<_>>());

        let triples: usize = distinct
            .iter()
            .map(|&(origin, seq, hops)| varint::len(origin) + varint::len(seq) + varint::len(hops.into()))
            .sum();
        // Header and kind, sender, entry count, triples, empty subs.
        let flat = 3 + varint::len(sender) + varint::len(distinct.len() as u64) + triples + 1;
        prop_assert!(bytes.len() <= flat, "{} > {} bytes", bytes.len(), flat);
    }
}

/// Tag 17 was frame v2's flat pbcast digest; no kind has it now.
#[test]
fn the_retired_flat_digest_kind_is_a_bad_tag() {
    let flat = [wire::MAGIC, wire::VERSION, 17, 7, 0, 0];
    assert_eq!(
        wire::decode::<PbcastMessage>(&flat).err(),
        Some(WireError::BadTag(17))
    );
}

/// A frame-v2 frame, valid in its own layout (an lpbcast gossip with the
/// `unSubs` representation byte), is refused by its version byte before
/// any of its body is read.
#[test]
fn a_v2_frame_is_a_bad_version() {
    let v2_gossip = [wire::MAGIC, 2, 0, 7, 0, 1, 0, 0, 0, 0];
    assert_eq!(
        wire::decode::<Message>(&v2_gossip).err(),
        Some(WireError::BadVersion(2))
    );
}

/// A digest range whose run bit is set must carry a span of at least 1:
/// a written span of 0 would be a second spelling of the singleton.
#[test]
fn a_run_bit_with_span_zero_is_refused() {
    // Sender 7, one range: origin 1, seq 5, hops 2 with the run bit, span
    // 0; no subs.
    let frame = [wire::MAGIC, wire::VERSION, 19, 7, 1, 1, 5, 2 << 1 | 1, 0, 0];
    assert_eq!(
        wire::decode::<PbcastMessage>(&frame).err(),
        Some(WireError::BadVarint)
    );
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

// ───────────────────── frame v3: varints and floors ────────────────────

prop_compose! {
    fn arb_update()(subject in arb_int(), incarnation in arb_int(), state in 0u8..3) -> Update {
        let state = match state {
            0 => UpdateState::Alive,
            1 => UpdateState::Suspect,
            _ => UpdateState::Confirm,
        };
        Update { subject: pid(subject), incarnation, state }
    }
}

fn arb_swim_message() -> impl Strategy<Value = SwimMsg<Message>> {
    let updates = || vec(arb_update(), 0..12);
    prop_oneof![
        (arb_message(), updates()).prop_map(|(inner, updates)| SwimMsg::Wrapped { inner, updates }),
        updates().prop_map(|updates| SwimMsg::Ping { updates }),
        updates().prop_map(|updates| SwimMsg::Ack { updates }),
        (arb_int(), updates()).prop_map(|(p, updates)| SwimMsg::PingReq {
            target: pid(p),
            updates
        }),
        (arb_int(), updates()).prop_map(|(p, updates)| SwimMsg::ProxyPing {
            origin: pid(p),
            updates
        }),
        (arb_int(), updates()).prop_map(|(p, updates)| SwimMsg::ProxyAck {
            origin: pid(p),
            updates
        }),
        (arb_int(), updates()).prop_map(|(p, updates)| SwimMsg::IndirectAck {
            target: pid(p),
            updates
        }),
    ]
}

/// Every frame kind of every family, as one encoded frame.
fn arb_any_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_message().prop_map(|m| wire::encode(&m).to_vec()),
        arb_pbcast_message().prop_map(|m| wire::encode(&m).to_vec()),
        arb_swim_message().prop_map(|m| wire::encode(&m).to_vec()),
    ]
}

/// Decodes `frame` as the family its kind byte names.
fn decode_any(frame: &[u8]) -> Result<(), WireError> {
    match frame.get(2) {
        Some(0..=3) => wire::decode::<Message>(frame).map(drop),
        Some(16..=19) => wire::decode::<PbcastMessage>(frame).map(drop),
        _ => wire::decode::<SwimMsg<Message>>(frame).map(drop),
    }
}

proptest! {
    #[test]
    fn swim_messages_roundtrip(message in arb_swim_message()) {
        let bytes = wire::encode(&message);
        let decoded: SwimMsg<Message> = wire::decode(&bytes).expect("own frames decode");
        prop_assert_eq!(decoded.updates(), message.updates());
        prop_assert_eq!(wire::encode(&decoded), bytes);
    }

    #[test]
    fn encoded_len_matches_encoder_swim(message in arb_swim_message()) {
        prop_assert_eq!(message.encoded_len(), wire::encode(&message).len());
    }

    /// The envelope's length: a datagram header plus sections is
    /// `CLUSTER_HEADER_LEN` plus, per section, `section_header_len` and
    /// the frames — what `Cluster` packs datagrams by.
    #[test]
    fn encoded_len_matches_encoder_envelope(
        sections in vec((arb_int(), arb_int(), vec(any::<u8>(), 0..300)), 0..6),
    ) {
        let mut datagram = bytes::BytesMut::new();
        wire::encode_datagram_header(&mut datagram);
        let mut expected = wire::CLUSTER_HEADER_LEN;
        for (from, dest, frames) in &sections {
            wire::encode_section(&mut datagram, pid(*from), pid(*dest), frames).expect("fits");
            expected += wire::section_header_len(pid(*from), pid(*dest), frames.len()) + frames.len();
        }
        prop_assert_eq!(datagram.len(), expected);
    }

    /// A frame of any kind, cut at every byte offset, is refused as
    /// truncated (or as a count the rest cannot hold), never decoded and
    /// never a panic.
    #[test]
    fn frames_truncated_anywhere_are_refused(frame in arb_any_frame()) {
        prop_assert_eq!(decode_any(&frame), Ok(()));
        for cut in 0..frame.len() {
            let err = decode_any(&frame[..cut]).expect_err("a truncated frame must fail");
            prop_assert!(
                matches!(err, WireError::UnexpectedEof | WireError::LengthOverflow(_)),
                "cut at {} of {}: {:?}", cut, frame.len(), err
            );
        }
    }
}

/// Ids, seqs and incarnations at every varint length boundary survive a
/// round trip exactly, and cost exactly their varint lengths.
#[test]
fn integers_at_the_varint_boundaries_roundtrip() {
    for &v in &EDGES {
        let message = Message::RetransmitRequest {
            ids: vec![eid((v, v)), eid((v, 0)), eid((0, v))],
        };
        let bytes = wire::encode(&message);
        assert_eq!(bytes.len(), message.encoded_len());
        let Ok(Message::RetransmitRequest { ids }) = wire::decode(&bytes) else {
            panic!("{v}: kind changed");
        };
        assert_eq!(ids, vec![eid((v, v)), eid((v, 0)), eid((0, v))]);

        let updates = vec![Update {
            subject: pid(v),
            incarnation: v,
            state: UpdateState::Suspect,
        }];
        let ping = SwimMsg::<Message>::Ping {
            updates: updates.clone(),
        };
        let bytes = wire::encode(&ping);
        assert_eq!(bytes.len(), ping.encoded_len());
        let decoded: SwimMsg<Message> = wire::decode(&bytes).expect("decodes");
        assert_eq!(decoded.updates(), updates.as_slice());

        let mut digest = CompactDigest::new();
        digest.extend([eid((v, v)), eid((0, v))]);
        let gossip = Message::gossip(Gossip {
            sender: pid(v),
            subs: vec![pid(v)],
            unsubs: UnsubDigest::from_records([Unsubscription::new(pid(v), LogicalTime::new(v))]),
            events: vec![Event::new(eid((v, v)), b"edge".as_ref())],
            event_ids: Digest::Compact(digest),
        });
        let bytes = wire::encode(&gossip);
        assert_eq!(bytes.len(), gossip.encoded_len());
        assert!(roundtrip_equal(&gossip), "{v}");
    }
    // One byte up to 127, two from 128, nine below 2⁶³, ten at the top.
    let subscribe = |v: u64| Message::Subscribe { subscriber: pid(v) }.encoded_len() - 3;
    assert_eq!(
        EDGES.map(subscribe),
        [1, 1, 2, 8, 9, 10],
        "varint lengths at {EDGES:?}"
    );
}

/// A Subscribe frame whose subscriber is written as `varint`.
fn subscribe_frame(varint: &[u8]) -> Vec<u8> {
    [&[wire::MAGIC, wire::VERSION, 1][..], varint].concat()
}

#[test]
fn overlong_and_oversized_varints_are_refused() {
    let nine = [0xFF; 9];
    for bad in [
        vec![0x80, 0x00],                    // 0 in two bytes
        vec![0x81, 0x80, 0x00],              // 1 in three bytes
        [&nine[..], &[0x02]].concat(),       // a tenth byte above 1
        [&nine[..], &[0x81, 0x00]].concat(), // an eleventh byte
        [&nine[..], &[0x80, 0x80, 0x01]].concat(),
    ] {
        assert_eq!(
            wire::decode::<Message>(&subscribe_frame(&bad)).err(),
            Some(WireError::BadVarint),
            "{bad:x?}"
        );
    }
    // The largest value, in its ten bytes, is fine.
    let max = wire::decode::<Message>(&subscribe_frame(&[&nine[..], &[0x01]].concat()));
    assert!(matches!(max, Ok(Message::Subscribe { subscriber }) if subscriber == pid(u64::MAX)));
    // An overlong incarnation inside a SWIM update (subject 7).
    let ping = [wire::MAGIC, wire::VERSION, 41, 1, 7, 0x85, 0x00, 0];
    assert_eq!(
        wire::decode::<SwimMsg<Message>>(&ping).err(),
        Some(WireError::BadVarint)
    );
    // A hop count past u32.
    let multicast = [
        &[wire::MAGIC, wire::VERSION, 16, 0, 0, 0][..],
        &[0x80, 0x80, 0x80, 0x80, 0x10],
    ]
    .concat();
    assert_eq!(
        wire::decode::<PbcastMessage>(&multicast).err(),
        Some(WireError::BadVarint)
    );
}

#[test]
fn delta_runs_past_u64_max_are_refused() {
    // Two origins whose deltas sum past u64::MAX.
    let mut origins = vec![wire::MAGIC, wire::VERSION, 0, 7, 0, 0, 0, 1, 2];
    for _ in 0..2 {
        leb(&mut origins, u64::MAX / 2 + 1);
        origins.extend_from_slice(&[0, 0]);
    }
    assert_eq!(
        wire::decode::<Message>(&origins).err(),
        Some(WireError::BadVarint)
    );
    // An out-of-order seq past u64::MAX from a high watermark.
    let mut seqs = vec![wire::MAGIC, wire::VERSION, 0, 7, 0, 0, 0, 1, 1, 3];
    leb(&mut seqs, u64::MAX - 1);
    seqs.push(1);
    leb(&mut seqs, 2);
    assert_eq!(
        wire::decode::<Message>(&seqs).err(),
        Some(WireError::BadVarint)
    );
}

/// Each section's element count is checked against the bytes left at
/// one-byte-per-varint floors: a count one past `remaining / floor` is
/// refused before anything is allocated, and `remaining / floor` elements
/// of all-zero varints — the smallest elements there are — decode, so
/// every floor is tight.
#[test]
fn hostile_counts_stop_at_the_one_byte_floors() {
    /// `last`: the section ends the frame, so the elements that fit
    /// decode whole; otherwise the frame ends where the next section
    /// should start.
    fn check<M: WireMessage>(what: &str, prefix: &[u8], floor: usize, last: bool) {
        let head = [&[wire::MAGIC, wire::VERSION][..], prefix].concat();
        for fits in [0, 1, 7, 30, 300] {
            let remaining = fits * floor;
            let frame = |count: usize| {
                let mut frame = head.clone();
                leb(&mut frame, count as u64);
                frame.extend(std::iter::repeat_n(0, remaining));
                frame
            };
            assert_eq!(
                wire::decode::<M>(&frame(fits + 1)).err(),
                Some(WireError::LengthOverflow(fits + 1)),
                "{what}: {} in {remaining} bytes",
                fits + 1
            );
            assert_eq!(
                wire::decode::<M>(&frame(fits)).err(),
                (!last).then_some(WireError::UnexpectedEof),
                "{what}: {fits} in {remaining} bytes"
            );
        }
    }
    // Gossip sections, each after the (minimal) sections before it.
    check::<Message>("subs", &[0, 7], 1, false);
    check::<Message>("unSubs groups", &[0, 7, 0], 2, false);
    check::<Message>("events", &[0, 7, 0, 0], 3, false);
    check::<Message>("digest ids", &[0, 7, 0, 0, 0, 0], 2, true);
    check::<Message>("digest origins", &[0, 7, 0, 0, 0, 1], 3, true);
    check::<Message>("pull ids", &[2], 2, true);
    check::<Message>("pulled events", &[3], 3, true);
    check::<PbcastMessage>("digest ranges", &[19, 7], 3, false);
    check::<SwimMsg<Message>>("updates", &[41], 3, true);
}
