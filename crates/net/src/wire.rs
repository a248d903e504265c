//! Binary wire format for every
//! [`Protocol::Msg`](lpbcast_types::Protocol::Msg) the UDP runtime can
//! carry, behind the [`WireMessage`] trait.
//!
//! A datagram is a sequence of one or more *frames*; each frame is
//! `[u8 MAGIC = 0x6C] [u8 version = 3] [u8 kind] body…`. [`encode`] /
//! [`decode`] handle exactly one frame; [`decode_frames`] walks a run of
//! concatenated frames, which is what one section of a cluster datagram
//! carries (below).
//!
//! Frame version 3 writes every count, length, process id, sequence
//! number, incarnation, timestamp and hop count as an unsigned LEB128
//! varint (`v` below): seven bits a byte, least significant group first,
//! the high bit set on every byte but the last, so 0–127 take one byte
//! and `u64::MAX` ten. Only the shortest encoding is valid: an overlong
//! one, or one past `u64::MAX`, is [`WireError::BadVarint`]. Fixed bytes
//! (`u8`) are left only for tags and SWIM states. A run that is
//! ascending in memory is delta-coded (`Δ` below): each value is written
//! as its difference from the one before. Everything else goes out in the
//! sender's order, and decoding restores that order exactly.
//!
//! Compatibility note: version 1 wrote every integer at a fixed width,
//! little-endian. Version 2 had the same varints as version 3, but its
//! lpbcast gossip carried an `unSubs` representation byte before the
//! groups, and pbcast had a flat digest (kind 17) beside a compact one
//! whose ranges listed gaps. A decoder accepts only the current frame and
//! envelope versions (a v1 or v2 frame, or a v2 envelope, is
//! [`WireError::BadVersion`]), so to a node of another version every
//! datagram looks like message loss. Mixed-version clusters are
//! therefore unsupported; upgrade all peers together.
//!
//! lpbcast [`Message`] kinds. The gossip's `unSubs` section groups its
//! records per issue timestamp. The compact digest lists its origins
//! ascending, and each origin's out-of-order sequence numbers ascending,
//! so both runs are delta-coded: the first origin from 0 and the first
//! out-of-order seq from the origin's `next_seq`.
//!
//! ```text
//! kind 0 — Gossip:
//!   v sender
//!   v |subs|    then |subs| × v
//!   v |groups|  then per group, ascending by timestamp:
//!     v issued_at, v |leavers| then |leavers| × v (ascending)
//!   v |events|  then |events| × (v origin, v seq, v len, bytes)
//!   u8 digest kind (0 = id list, 1 = compact)
//!     0: v |ids| then |ids| × (v origin, v seq)
//!     1: v |origins| then per origin:
//!        Δ origin, v next_seq, v |ooo| then |ooo| × Δ seq
//!
//! kind 1 — Subscribe:           v subscriber
//! kind 2 — RetransmitRequest:   v |ids| then |ids| × (v origin, v seq)
//! kind 3 — RetransmitResponse:  v |events| then events as above
//! ```
//!
//! pbcast [`PbcastMessage`] kinds live in a disjoint tag space (16+), so
//! a datagram from a cluster running the other protocol fails fast with
//! [`WireError::BadTag`] instead of half-decoding. The digest has one
//! form (§3.2 ranges): each range is a run of consecutive sequence
//! numbers of one origin at one hop count. Its third varint packs the
//! hop count with a *run* bit, and the span follows only when that bit
//! is set, so a one-id range costs exactly what an `(origin, seq, hops)`
//! triple would, and a longer run costs less than its triples while
//! hops < 64. Tag 17, a flat digest in frame v2, is free (a
//! [`WireError::BadTag`]):
//!
//! ```text
//! kind 16 — Multicast:    event (v origin, v seq, v len, bytes), v hops
//! kind 18 — Solicit:      v |ids| then |ids| × (v origin, v seq)
//! kind 19 — GossipDigest: v sender,
//!                         v |ranges| then |ranges| ×
//!                           (v origin, v min_seq, v (hops << 1 | run),
//!                            then v span if run = 1),
//!                         v |subs| then |subs| × v
//!                         (span = max_seq - min_seq, 1 ≤ span ≤ 65 535
//!                         when written — a run bit with span 0 is
//!                         WireError::BadVarint; the spans of one digest
//!                         sum to at most 2¹⁶ ids)
//! ```
//!
//! SWIM failure-detector [`SwimMsg`] frames live at tags 40–46. Every
//! variant carries a piggybacked *updates* section — `v |updates| then
//! |updates| × (v subject, v incarnation, u8 state)` where state is
//! 0 = Alive, 1 = Suspect, 2 = Confirm — and the `Wrapped` variant then
//! embeds the inner protocol's kind + body:
//!
//! ```text
//! kind 40 — Wrapped:      updates, inner kind + body
//! kind 41 — Ping:         updates
//! kind 42 — Ack:          updates
//! kind 43 — PingReq:      v target, updates
//! kind 44 — ProxyPing:    v origin, updates
//! kind 45 — ProxyAck:     v origin, updates
//! kind 46 — IndirectAck:  v target, updates
//! ```
//!
//! The [`Cluster`](crate::Cluster) runtime multiplexes many protocol
//! instances over one socket and coalesces everything its instances send
//! to one remote socket in one loop phase into one datagram, so its
//! datagrams carry an *envelope* (version 3):
//!
//! ```text
//! datagram: [u8 CLUSTER_MAGIC = 0x6D] [u8 envelope version = 3]
//!           then one or more sections
//! section:  [v from] [v dest] [v len ≤ 65 535] then len bytes of frames
//! ```
//!
//! Each section names the sending and the receiving instance of its
//! frames (the socket address alone identifies neither). The receiver
//! walks the sections in order ([`decode_sections`]): a section for an
//! instance it does not host, or whose frames fail to decode, is skipped
//! alone; a section header or length that runs past the end of the
//! datagram drops the rest of the datagram. A datagram without the
//! envelope, or with any other envelope version (version 1 carried one
//! `from`/`dest` pair per datagram, version 2 fixed-width section
//! headers), is dropped whole.
//!
//! Every frame body and section header is written by one walk, generic
//! over a private sink with two impls: the [`BytesMut`] that writes the
//! bytes, and a counter that adds 1 for a fixed byte, `varint::len(v)`
//! for a varint and the length of a raw slice. `encode_body` runs the
//! walk on the buffer; [`WireMessage::encoded_len`] and
//! [`section_header_len`] run it on the counter, so a length cannot
//! drift from its encoder. The counter parts from the writer in two
//! places: it takes the gossip's `unSubs` group sizes from the digest
//! instead of sorting the records (no allocation), and it counts
//! an opaque inner message (SWIM's `Wrapped`) by that message's own
//! `encoded_len`. Decoding is written separately: it validates as it
//! reads.
//!
//! Every count is validated against the remaining buffer before any
//! allocation (each element takes at least one byte), so a hostile
//! datagram cannot trigger huge allocations.

use bytes::{Buf, Bytes, BytesMut};
use core::fmt;

use lpbcast_core::{Digest, Gossip, LogicalTime, Message, UnsubDigest, Unsubscription};
use lpbcast_membership::{SwimMsg, Update, UpdateState};
use lpbcast_pbcast::{GossipDigest, OriginRange, PbcastMessage};
use lpbcast_types::{
    hashing::FastHasher, varint, CompactDigest, Event, EventId, OriginDigest, ProcessId,
};

/// First byte of every datagram.
pub const MAGIC: u8 = 0x6C; // 'l' for lpbcast
/// Wire format version.
pub const VERSION: u8 = 3;
/// Hard cap on a single event payload accepted from the wire (64 KiB — a
/// UDP datagram cannot exceed this anyway).
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Declares [`Kind`] and its `TryFrom<u8>` from one list, so a kind's
/// byte is written exactly once and a duplicate is a compile error.
macro_rules! kinds {
    ($($(#[$doc:meta])* $name:ident = $byte:literal,)+) => {
        /// Frame-kind registry: one variant per frame type a first-party
        /// codec can emit, grouped by protocol — the machine-readable twin
        /// of the doc-header table above (D3, LINTS.md). Codecs write
        /// `Kind::X as u8` and match on `Kind`, never on an integer; the
        /// tests pin the table to this enum
        /// (`kind_registry_matches_the_doc_header`) and every variant to
        /// a message family that decodes it (`rejects_unknown_kind`).
        #[repr(u8)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Kind {
            $($(#[$doc])* $name = $byte,)+
        }

        impl TryFrom<u8> for Kind {
            type Error = WireError;

            fn try_from(byte: u8) -> Result<Self, WireError> {
                match byte {
                    $($byte => Ok(Kind::$name),)+
                    unknown => Err(WireError::BadTag(unknown)),
                }
            }
        }
    };
}

kinds! {
    /// lpbcast gossip (subs/unsubs/events/digest sections).
    Gossip = 0,
    /// lpbcast §3.4 join request.
    Subscribe = 1,
    /// lpbcast retransmission pull.
    RetransmitRequest = 2,
    /// lpbcast retransmission payload reply.
    RetransmitResponse = 3,
    /// pbcast unreliable multicast payload.
    PbcastMulticast = 16,
    /// pbcast solicitation (pull of missing events).
    PbcastSolicit = 18,
    /// pbcast anti-entropy digest, §3.2 per-origin ranges.
    PbcastDigest = 19,
    /// SWIM piggyback wrapper around an inner protocol frame.
    SwimWrapped = 40,
    /// SWIM direct ping.
    SwimPing = 41,
    /// SWIM direct ack.
    SwimAck = 42,
    /// SWIM k-proxy indirect ping request.
    SwimPingReq = 43,
    /// SWIM proxied ping (proxy → target).
    SwimProxyPing = 44,
    /// SWIM proxied ack (target → proxy).
    SwimProxyAck = 45,
    /// SWIM indirect ack (proxy → requester).
    SwimIndirectAck = 46,
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Datagram shorter than the header or a declared length.
    UnexpectedEof,
    /// First byte is not [`MAGIC`].
    BadMagic(u8),
    /// Unsupported version byte.
    BadVersion(u8),
    /// Unknown message or digest kind tag.
    BadTag(u8),
    /// A declared length exceeds the remaining buffer or [`MAX_PAYLOAD`].
    LengthOverflow(usize),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// A varint is overlong, passes `u64::MAX` (alone or as the sum of a
    /// delta-coded run), passes the range of its field, or is a
    /// non-canonical field (a digest range's run bit set with span 0).
    BadVarint,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "datagram truncated"),
            WireError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::LengthOverflow(l) => write!(f, "declared length {l} exceeds buffer"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadVarint => write!(f, "overlong or out-of-range varint"),
        }
    }
}

impl std::error::Error for WireError {}

/// A protocol message the UDP runtime can frame onto the wire: the codec
/// half of the sans-IO [`Protocol`](lpbcast_types::Protocol) redesign.
/// Implemented for the lpbcast [`Message`], the pbcast [`PbcastMessage`]
/// and the SWIM [`SwimMsg<M>`] around any inner `M: WireMessage`;
/// `Cluster<P>` requires `P::Msg: WireMessage`.
pub trait WireMessage: Sized + Clone + core::fmt::Debug {
    /// Appends the kind byte and body of this message (header excluded).
    fn encode_body(&self, buf: &mut BytesMut);

    /// Decodes a kind byte + body from `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// Structural problems yield a [`WireError`]; no panic is reachable
    /// from untrusted input.
    fn decode_body(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Stable identity of a shared (`Arc`'d) message body, if this
    /// message has one. Fanout copies of the same gossip return the same
    /// key, letting the sender encode the frame once and reuse the bytes
    /// for every destination.
    fn body_key(&self) -> Option<usize> {
        None
    }

    /// Exact number of bytes [`encode`] produces for this message (frame
    /// header included). The first-party impls run the same walk as
    /// [`encode_body`](Self::encode_body) on a counter instead of a
    /// buffer: no byte is written and nothing is allocated or sorted, so
    /// byte accounting on simulator hot paths costs a sum of varint
    /// lengths per message instead of a full serialization.
    fn encoded_len(&self) -> usize;
}

/// A per-message byte meter for simulation drivers: returns the exact
/// encoded frame length of each message offered. A shared (`Arc`'d) body
/// is measured once per run of back-to-back copies, via
/// [`WireMessage::body_key`] — the same discipline as the UDP runtime's
/// one-entry frame cache, matching its one-encode-per-body cost model.
///
/// The engine meters a message when a node offers it, so one body's
/// fanout copies arrive together, and one remembered body catches them
/// all. A body that comes back after another is measured again; the
/// lengths stay exact either way.
pub fn wire_meter<M: WireMessage>() -> impl FnMut(&M) -> usize {
    // (body key, frame len, keep-alive clone). The clone pins the
    // remembered body's allocation: `body_key` is an `Arc` address, and
    // without the pin a *freed* body's address could be recycled by a
    // later allocation, turning the memo into an allocator-dependent
    // (hence nondeterministic) false hit.
    let mut last: Option<(usize, usize, M)> = None;
    move |message: &M| {
        let Some(key) = message.body_key() else {
            return message.encoded_len();
        };
        match &last {
            Some((k, len, _)) if *k == key => *len,
            _ => {
                let len = message.encoded_len();
                last = Some((key, len, message.clone()));
                len
            }
        }
    }
}

/// Appends one full frame (header + kind + body) for `message`.
pub fn encode_frame<M: WireMessage>(message: &M, buf: &mut BytesMut) {
    buf.put_u8(MAGIC);
    buf.put_u8(VERSION);
    message.encode_body(buf);
}

/// Encodes a single-message datagram (one frame) into a fresh buffer.
pub fn encode<M: WireMessage>(message: &M) -> Bytes {
    let mut buf = BytesMut::with_capacity(128);
    encode_frame(message, &mut buf);
    buf.freeze()
}

/// Byte length of a frame's header: magic, version.
const FRAME_HEADER_LEN: usize = 1 + 1;

/// Where a walk over a frame body or a section header goes: a
/// [`BytesMut`] writes the bytes, a [`Len`] only counts them.
trait Sink {
    /// One fixed byte: a tag or a SWIM state.
    fn put_u8(&mut self, byte: u8);

    /// `value` as an unsigned LEB128 varint.
    fn put_varint(&mut self, value: u64);

    /// Raw bytes: a payload or a run of frames.
    fn put_slice(&mut self, bytes: &[u8]);

    /// A gossip's `unSubs` groups, their count first. Writing them sorts
    /// the records into one scratch `Vec` of pairs; counting them reads
    /// the sizes the digest keeps.
    fn put_unsub_groups(&mut self, unsubs: &UnsubDigest);

    /// An opaque inner message's kind + body. Writing it encodes the
    /// body; counting it asks the message's own `encoded_len`, less the
    /// frame header.
    fn put_inner<M: WireMessage>(&mut self, inner: &M);
}

impl Sink for BytesMut {
    fn put_u8(&mut self, byte: u8) {
        bytes::BufMut::put_u8(self, byte);
    }

    fn put_varint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.put_u8(value as u8 | 0x80);
            value >>= 7;
        }
        self.put_u8(value as u8);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        bytes::BufMut::put_slice(self, bytes);
    }

    fn put_unsub_groups(&mut self, unsubs: &UnsubDigest) {
        put_count(self, unsubs.group_count());
        for group in unsubs.sorted_pairs().chunk_by(|a, b| a.0 == b.0) {
            // `chunk_by` yields no empty run.
            let Some(&(issued_at, _)) = group.first() else {
                continue;
            };
            self.put_varint(issued_at.as_u64());
            put_count(self, group.len());
            for &(_, leaver) in group {
                put_pid(self, leaver);
            }
        }
    }

    fn put_inner<M: WireMessage>(&mut self, inner: &M) {
        inner.encode_body(self);
    }
}

/// A sink that writes nothing and adds up the bytes a walk would write.
struct Len(usize);

impl Sink for Len {
    fn put_u8(&mut self, _byte: u8) {
        self.0 += 1;
    }

    fn put_varint(&mut self, value: u64) {
        self.0 += varint::len(value);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_unsub_groups(&mut self, unsubs: &UnsubDigest) {
        self.0 += varint::len(unsubs.group_count() as u64) + unsubs.groups_encoded_len();
    }

    fn put_inner<M: WireMessage>(&mut self, inner: &M) {
        self.0 += inner.encoded_len() - FRAME_HEADER_LEN;
    }
}

/// Exact length of the frame whose kind + body `walk` writes: the
/// header plus a counter pass over the walk.
fn frame_len(walk: impl FnOnce(&mut Len)) -> usize {
    let mut len = Len(FRAME_HEADER_LEN);
    walk(&mut len);
    len.0
}

/// First byte of a cluster datagram (see the module docs; distinct from
/// the per-frame [`MAGIC`], so the two datagram shapes are told apart by
/// their first byte).
pub const CLUSTER_MAGIC: u8 = 0x6D; // 'm' for multiplexed
/// Version of the cluster envelope: a sequence of addressed sections with
/// varint headers.
pub const ENVELOPE_VERSION: u8 = 3;
/// Byte length of a cluster datagram's header: magic, envelope version.
pub const CLUSTER_HEADER_LEN: usize = 1 + 1;
/// Longest run of frames one section carries: more than any UDP datagram
/// holds.
pub const MAX_SECTION: usize = u16::MAX as usize;

/// Byte length of the header [`encode_section`] writes for a section of
/// `frames_len` bytes from `from` to `dest`.
pub fn section_header_len(from: ProcessId, dest: ProcessId, frames_len: usize) -> usize {
    let mut len = Len(0);
    put_section_header(&mut len, from, dest, frames_len);
    len.0
}

fn put_section_header<S: Sink>(out: &mut S, from: ProcessId, dest: ProcessId, frames_len: usize) {
    put_pid(out, from);
    put_pid(out, dest);
    put_count(out, frames_len);
}

/// Appends a cluster datagram's header; sections follow
/// ([`encode_section`]).
pub fn encode_datagram_header(buf: &mut BytesMut) {
    buf.put_u8(CLUSTER_MAGIC);
    buf.put_u8(ENVELOPE_VERSION);
}

/// Appends one section carrying `frames` (whole encoded frames) from
/// instance `from` to instance `dest`.
///
/// # Errors
///
/// [`WireError::LengthOverflow`] when `frames` is longer than
/// [`MAX_SECTION`]; nothing is appended then.
pub fn encode_section(
    buf: &mut BytesMut,
    from: ProcessId,
    dest: ProcessId,
    frames: &[u8],
) -> Result<(), WireError> {
    if frames.len() > MAX_SECTION {
        return Err(WireError::LengthOverflow(frames.len()));
    }
    put_section_header(buf, from, dest, frames.len());
    buf.put_slice(frames);
    Ok(())
}

/// One section of a cluster datagram: frames from instance `from` for
/// instance `dest`, still encoded ([`decode_frames`] reads them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section<'a> {
    /// Sending instance.
    pub from: ProcessId,
    /// Receiving instance.
    pub dest: ProcessId,
    /// The section's frame bytes — a subslice of the datagram.
    pub frames: &'a [u8],
}

/// The sections of a cluster datagram in order, from
/// [`decode_sections`]. Iteration stops at the end of the datagram or at
/// the first section header or length that runs past it.
#[derive(Debug)]
pub struct Sections<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Sections<'a> {
    type Item = Section<'a>;

    fn next(&mut self) -> Option<Section<'a>> {
        if self.rest.is_empty() {
            return None;
        }
        let section = take_section(&mut self.rest);
        if section.is_err() {
            self.rest = &[]; // a torn section drops the rest of the datagram
        }
        section.ok()
    }
}

fn take_section<'a>(buf: &mut &'a [u8]) -> Result<Section<'a>, WireError> {
    let from = take_pid(buf)?;
    let dest = take_pid(buf)?;
    let len = take_len(buf)?;
    let (frames, rest) = buf
        .split_at_checked(len)
        .ok_or(WireError::LengthOverflow(len))?;
    *buf = rest;
    Ok(Section { from, dest, frames })
}

/// Checks a cluster datagram's header and returns its sections.
///
/// # Errors
///
/// [`WireError::BadMagic`] when the datagram is not a cluster datagram,
/// [`WireError::BadVersion`] for any envelope version but
/// [`ENVELOPE_VERSION`], [`WireError::UnexpectedEof`] when it is shorter
/// than the header.
pub fn decode_sections(mut data: &[u8]) -> Result<Sections<'_>, WireError> {
    let magic = take_u8(&mut data)?;
    if magic != CLUSTER_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = take_u8(&mut data)?;
    if version != ENVELOPE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    Ok(Sections { rest: data })
}

impl WireMessage for Message {
    fn encode_body(&self, buf: &mut BytesMut) {
        put_message(buf, self);
    }

    fn decode_body(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match take_kind(buf)? {
            Kind::Gossip => Message::gossip(decode_gossip(buf)?),
            Kind::Subscribe => Message::Subscribe {
                subscriber: take_pid(buf)?,
            },
            Kind::RetransmitRequest => Message::RetransmitRequest {
                ids: decode_ids(buf)?,
            },
            Kind::RetransmitResponse => Message::RetransmitResponse {
                events: decode_events(buf)?,
            },
            foreign => return Err(WireError::BadTag(foreign as u8)),
        })
    }

    fn body_key(&self) -> Option<usize> {
        match self {
            Message::Gossip(g) => Some(std::sync::Arc::as_ptr(g) as usize),
            _ => None,
        }
    }

    fn encoded_len(&self) -> usize {
        frame_len(|len| put_message(len, self))
    }
}

fn put_message<S: Sink>(out: &mut S, message: &Message) {
    match message {
        Message::Gossip(g) => {
            out.put_u8(Kind::Gossip as u8);
            put_gossip(out, g);
        }
        Message::Subscribe { subscriber } => {
            out.put_u8(Kind::Subscribe as u8);
            put_pid(out, *subscriber);
        }
        Message::RetransmitRequest { ids } => {
            out.put_u8(Kind::RetransmitRequest as u8);
            put_ids(out, ids);
        }
        Message::RetransmitResponse { events } => {
            out.put_u8(Kind::RetransmitResponse as u8);
            put_events(out, events);
        }
    }
}

impl WireMessage for PbcastMessage {
    fn encode_body(&self, buf: &mut BytesMut) {
        put_pbcast(buf, self);
    }

    fn decode_body(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match take_kind(buf)? {
            Kind::PbcastMulticast => {
                let event = decode_event(buf)?;
                let hops = take_hops(buf)?;
                PbcastMessage::Multicast { event, hops }
            }
            Kind::PbcastSolicit => PbcastMessage::Solicit {
                ids: decode_ids(buf)?,
            },
            Kind::PbcastDigest => PbcastMessage::digest(decode_pbcast_digest(buf)?),
            foreign => return Err(WireError::BadTag(foreign as u8)),
        })
    }

    fn body_key(&self) -> Option<usize> {
        match self {
            PbcastMessage::GossipDigest(d) => Some(std::sync::Arc::as_ptr(d) as usize),
            _ => None,
        }
    }

    fn encoded_len(&self) -> usize {
        frame_len(|len| put_pbcast(len, self))
    }
}

fn put_pbcast<S: Sink>(out: &mut S, message: &PbcastMessage) {
    match message {
        PbcastMessage::Multicast { event, hops } => {
            out.put_u8(Kind::PbcastMulticast as u8);
            put_event(out, event);
            out.put_varint((*hops).into());
        }
        PbcastMessage::GossipDigest(d) => {
            out.put_u8(Kind::PbcastDigest as u8);
            put_pid(out, d.sender);
            put_count(out, d.ranges.len());
            for r in &d.ranges {
                let span = r.max_seq - r.min_seq;
                debug_assert!(span <= OriginRange::MAX_SPAN);
                put_pid(out, r.origin);
                out.put_varint(r.min_seq);
                out.put_varint(u64::from(r.hops) << 1 | u64::from(span > 0));
                if span > 0 {
                    out.put_varint(span);
                }
            }
            put_pids(out, &d.subs);
        }
        PbcastMessage::Solicit { ids } => {
            out.put_u8(Kind::PbcastSolicit as u8);
            put_ids(out, ids);
        }
    }
}

fn put_updates<S: Sink>(out: &mut S, updates: &[Update]) {
    put_count(out, updates.len());
    for u in updates {
        put_pid(out, u.subject);
        out.put_varint(u.incarnation);
        out.put_u8(match u.state {
            UpdateState::Alive => 0,
            UpdateState::Suspect => 1,
            UpdateState::Confirm => 2,
        });
    }
}

fn decode_updates(buf: &mut &[u8]) -> Result<Vec<Update>, WireError> {
    // subject, incarnation, state.
    let n = take_count(buf, 3)?;
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        let subject = take_pid(buf)?;
        let incarnation = take_varint(buf)?;
        let state = match take_u8(buf)? {
            0 => UpdateState::Alive,
            1 => UpdateState::Suspect,
            2 => UpdateState::Confirm,
            t => return Err(WireError::BadTag(t)),
        };
        updates.push(Update {
            subject,
            incarnation,
            state,
        });
    }
    Ok(updates)
}

impl<M: WireMessage> WireMessage for SwimMsg<M> {
    fn encode_body(&self, buf: &mut BytesMut) {
        put_swim(buf, self);
    }

    fn decode_body(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match take_kind(buf)? {
            Kind::SwimWrapped => {
                let updates = decode_updates(buf)?;
                let inner = M::decode_body(buf)?;
                SwimMsg::Wrapped { inner, updates }
            }
            Kind::SwimPing => SwimMsg::Ping {
                updates: decode_updates(buf)?,
            },
            Kind::SwimAck => SwimMsg::Ack {
                updates: decode_updates(buf)?,
            },
            Kind::SwimPingReq => {
                let target = take_pid(buf)?;
                SwimMsg::PingReq {
                    target,
                    updates: decode_updates(buf)?,
                }
            }
            Kind::SwimProxyPing => {
                let origin = take_pid(buf)?;
                SwimMsg::ProxyPing {
                    origin,
                    updates: decode_updates(buf)?,
                }
            }
            Kind::SwimProxyAck => {
                let origin = take_pid(buf)?;
                SwimMsg::ProxyAck {
                    origin,
                    updates: decode_updates(buf)?,
                }
            }
            Kind::SwimIndirectAck => {
                let target = take_pid(buf)?;
                SwimMsg::IndirectAck {
                    target,
                    updates: decode_updates(buf)?,
                }
            }
            foreign => return Err(WireError::BadTag(foreign as u8)),
        })
    }

    fn body_key(&self) -> Option<usize> {
        // The frame embeds the piggybacked updates, so two wrapped copies
        // of the same Arc'd gossip carrying *different* updates must not
        // share a cached frame: mix the updates into the key.
        use core::hash::{Hash, Hasher};
        match self {
            SwimMsg::Wrapped { inner, updates } => inner.body_key().map(|k| {
                let mut hasher = FastHasher::default();
                for u in updates {
                    u.subject.as_u64().hash(&mut hasher);
                    u.incarnation.hash(&mut hasher);
                    (u.state as u8).hash(&mut hasher);
                }
                k ^ hasher.finish() as usize
            }),
            _ => None,
        }
    }

    fn encoded_len(&self) -> usize {
        frame_len(|len| put_swim(len, self))
    }
}

fn put_swim<S: Sink, M: WireMessage>(out: &mut S, message: &SwimMsg<M>) {
    let (kind, peer, updates) = match message {
        SwimMsg::Wrapped { updates, .. } => (Kind::SwimWrapped, None, updates),
        SwimMsg::Ping { updates } => (Kind::SwimPing, None, updates),
        SwimMsg::Ack { updates } => (Kind::SwimAck, None, updates),
        SwimMsg::PingReq { target, updates } => (Kind::SwimPingReq, Some(target), updates),
        SwimMsg::ProxyPing { origin, updates } => (Kind::SwimProxyPing, Some(origin), updates),
        SwimMsg::ProxyAck { origin, updates } => (Kind::SwimProxyAck, Some(origin), updates),
        SwimMsg::IndirectAck { target, updates } => (Kind::SwimIndirectAck, Some(target), updates),
    };
    out.put_u8(kind as u8);
    if let Some(&peer) = peer {
        put_pid(out, peer);
    }
    put_updates(out, updates);
    if let SwimMsg::Wrapped { inner, .. } = message {
        out.put_inner(inner);
    }
}

fn put_gossip<S: Sink>(out: &mut S, g: &Gossip) {
    put_pid(out, g.sender);
    put_pids(out, &g.subs);
    out.put_unsub_groups(&g.unsubs);
    put_events(out, &g.events);
    match &g.event_ids {
        Digest::Ids(ids) => {
            out.put_u8(0);
            put_ids(out, ids);
        }
        Digest::Compact(d) => {
            out.put_u8(1);
            put_count(out, d.origin_count());
            let mut prev_origin = 0;
            for (origin, od) in d.iter() {
                put_delta(out, &mut prev_origin, origin.as_u64());
                out.put_varint(od.next_seq());
                put_count(out, od.out_of_order().len());
                let mut prev_seq = od.next_seq();
                for seq in od.out_of_order() {
                    put_delta(out, &mut prev_seq, seq);
                }
            }
        }
    }
}

fn put_pids<S: Sink>(out: &mut S, pids: &[ProcessId]) {
    put_count(out, pids.len());
    for &p in pids {
        put_pid(out, p);
    }
}

fn put_ids<S: Sink>(out: &mut S, ids: &[EventId]) {
    put_count(out, ids.len());
    for &id in ids {
        put_id(out, id);
    }
}

fn put_events<S: Sink>(out: &mut S, events: &[Event]) {
    put_count(out, events.len());
    for e in events {
        put_event(out, e);
    }
}

fn put_event<S: Sink>(out: &mut S, e: &Event) {
    put_id(out, e.id());
    put_count(out, e.payload().len());
    out.put_slice(e.payload());
}

fn put_count<S: Sink>(out: &mut S, n: usize) {
    out.put_varint(n as u64);
}

fn put_pid<S: Sink>(out: &mut S, p: ProcessId) {
    out.put_varint(p.as_u64());
}

fn put_id<S: Sink>(out: &mut S, id: EventId) {
    put_pid(out, id.origin());
    out.put_varint(id.seq());
}

/// Puts `value` as its difference from `*prev` (an ascending run), and
/// makes it the new `*prev`.
fn put_delta<S: Sink>(out: &mut S, prev: &mut u64, value: u64) {
    out.put_varint(value - core::mem::replace(prev, value));
}

/// Decodes one frame (header + kind + body) from `buf`, advancing it.
///
/// # Errors
///
/// Any structural problem yields a [`WireError`]; no panic is reachable
/// from untrusted input.
pub fn decode_frame<M: WireMessage>(buf: &mut &[u8]) -> Result<M, WireError> {
    let magic = take_u8(buf)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = take_u8(buf)?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    M::decode_body(buf)
}

/// Decodes a single-message datagram: exactly one frame, trailing bytes
/// rejected.
///
/// # Errors
///
/// Any structural problem yields a [`WireError`]; no panic is reachable
/// from untrusted input.
pub fn decode<M: WireMessage>(mut data: &[u8]) -> Result<M, WireError> {
    let buf = &mut data;
    let message = decode_frame(buf)?;
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes(buf.len()));
    }
    Ok(message)
}

/// Decodes one or more concatenated frames (a cluster section's bytes).
/// An empty run is an error (`UnexpectedEof`), as is any malformed frame
/// — the caller drops the whole run, indistinguishable from loss.
///
/// # Errors
///
/// Any structural problem yields a [`WireError`]; no panic is reachable
/// from untrusted input.
pub fn decode_frames<M: WireMessage>(mut data: &[u8]) -> Result<Vec<M>, WireError> {
    if data.is_empty() {
        return Err(WireError::UnexpectedEof);
    }
    let buf = &mut data;
    let mut messages = Vec::new();
    while !buf.is_empty() {
        messages.push(decode_frame(buf)?);
    }
    Ok(messages)
}

fn decode_pids(buf: &mut &[u8]) -> Result<Vec<ProcessId>, WireError> {
    let n = take_count(buf, 1)?;
    let mut pids = Vec::with_capacity(n);
    for _ in 0..n {
        pids.push(take_pid(buf)?);
    }
    Ok(pids)
}

fn decode_gossip(buf: &mut &[u8]) -> Result<Gossip, WireError> {
    let sender = take_pid(buf)?;
    let subs = decode_pids(buf)?;
    // issued_at, leaver count.
    let n_groups = take_count(buf, 2)?;
    // Records materialise in group order, each group's leavers sorted
    // and distinct: over the wire the sender's buffer order is not
    // carried.
    let mut records = Vec::new();
    for _ in 0..n_groups {
        let issued_at = LogicalTime::new(take_varint(buf)?);
        let mut leavers = decode_pids(buf)?;
        leavers.sort_unstable();
        leavers.dedup();
        records.extend(
            leavers
                .into_iter()
                .map(|p| Unsubscription::new(p, issued_at)),
        );
    }
    let unsubs = UnsubDigest::from_records(records);
    let events = decode_events(buf)?;
    let digest_kind = take_u8(buf)?;
    let event_ids = match digest_kind {
        0 => Digest::Ids(decode_ids(buf)?),
        1 => {
            // origin delta, next_seq, out-of-order count.
            let n_origins = take_count(buf, 3)?;
            // Deltas make both runs ascending, but a hostile frame may
            // still repeat an origin or a sequence number (a zero delta)
            // or list an out-of-order seq on the watermark; the bulk
            // builders merge and normalise those in one sort per array.
            let mut origins = Vec::with_capacity(n_origins);
            let mut origin = 0;
            for _ in 0..n_origins {
                origin = take_delta(buf, origin)?;
                let next_seq = take_varint(buf)?;
                let n_ooo = take_count(buf, 1)?;
                let mut ooo = Vec::with_capacity(n_ooo);
                let mut seq = next_seq;
                for _ in 0..n_ooo {
                    seq = take_delta(buf, seq)?;
                    ooo.push(seq);
                }
                origins.push((
                    ProcessId::new(origin),
                    OriginDigest::from_parts(next_seq, ooo),
                ));
            }
            Digest::Compact(CompactDigest::from_origins(origins))
        }
        t => return Err(WireError::BadTag(t)),
    };
    Ok(Gossip {
        sender,
        subs,
        unsubs,
        events,
        event_ids,
    })
}

fn decode_pbcast_digest(buf: &mut &[u8]) -> Result<GossipDigest, WireError> {
    let sender = take_pid(buf)?;
    // origin, min_seq, hops and run bit.
    let n_ranges = take_count(buf, 3)?;
    let mut ranges = Vec::with_capacity(n_ranges);
    // One range advertises at most 2¹⁶ ids (its span is capped at
    // `MAX_SPAN`); the digest must honour the same ceiling *summed across
    // ranges*, or a 64 KiB datagram of full-span ranges would make the
    // receiver's missing-scan materialise ~2¹³ × 2¹⁶ ids — exactly the
    // huge-allocation class this module promises hostile datagrams cannot
    // trigger.
    let mut total_advertised: u64 = 0;
    for _ in 0..n_ranges {
        let origin = take_pid(buf)?;
        let min_seq = take_varint(buf)?;
        let hops_run = take_varint(buf)?;
        let hops = u32::try_from(hops_run >> 1).map_err(|_| WireError::BadVarint)?;
        let span = if hops_run & 1 == 1 {
            match take_varint(buf)? {
                0 => return Err(WireError::BadVarint),
                span if span > OriginRange::MAX_SPAN => {
                    return Err(WireError::LengthOverflow(span as usize))
                }
                span => span,
            }
        } else {
            0
        };
        let max_seq = min_seq
            .checked_add(span)
            .ok_or(WireError::LengthOverflow(span as usize))?;
        total_advertised += span + 1;
        if total_advertised > 1 << 16 {
            return Err(WireError::LengthOverflow(total_advertised as usize));
        }
        ranges.push(OriginRange {
            origin,
            min_seq,
            max_seq,
            hops,
        });
    }
    Ok(GossipDigest {
        sender,
        ranges,
        subs: decode_pids(buf)?,
    })
}

fn decode_ids(buf: &mut &[u8]) -> Result<Vec<EventId>, WireError> {
    // origin, seq.
    let n = take_count(buf, 2)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(take_id(buf)?);
    }
    Ok(ids)
}

fn decode_events(buf: &mut &[u8]) -> Result<Vec<Event>, WireError> {
    // origin, seq, payload length.
    let n = take_count(buf, 3)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(decode_event(buf)?);
    }
    Ok(events)
}

fn decode_event(buf: &mut &[u8]) -> Result<Event, WireError> {
    let id = take_id(buf)?;
    let len = take_len(buf)?;
    if len > MAX_PAYLOAD || len > buf.remaining() {
        return Err(WireError::LengthOverflow(len));
    }
    let head = buf.get(..len).ok_or(WireError::LengthOverflow(len))?;
    let payload = Bytes::copy_from_slice(head);
    buf.advance(len);
    Ok(Event::new(id, payload))
}

/// Rejects declared element counts that cannot possibly fit the remaining
/// bytes (each element needs at least `min_size` bytes).
fn check_capacity(buf: &[u8], count: usize, min_size: usize) -> Result<(), WireError> {
    if count.saturating_mul(min_size) > buf.len() {
        return Err(WireError::LengthOverflow(count));
    }
    Ok(())
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::UnexpectedEof);
    }
    Ok(buf.get_u8())
}

/// A frame's kind byte: a byte no [`Kind`] names is [`WireError::BadTag`].
fn take_kind(buf: &mut &[u8]) -> Result<Kind, WireError> {
    Kind::try_from(take_u8(buf)?)
}

/// Reads one unsigned LEB128 varint, refusing every form but the
/// shortest: a last byte of zero after the first is overlong, and a tenth
/// byte can hold only bit 63.
fn take_varint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut value = 0;
    for shift in (0..64).step_by(7) {
        let byte = take_u8(buf)?;
        if shift == 63 && byte > 1 {
            return Err(WireError::BadVarint);
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(WireError::BadVarint);
            }
            return Ok(value);
        }
    }
    Err(WireError::BadVarint)
}

/// A hop count: a varint that must fit a `u32`.
fn take_hops(buf: &mut &[u8]) -> Result<u32, WireError> {
    u32::try_from(take_varint(buf)?).map_err(|_| WireError::BadVarint)
}

/// A varint length or count as a `usize`.
fn take_len(buf: &mut &[u8]) -> Result<usize, WireError> {
    usize::try_from(take_varint(buf)?).map_err(|_| WireError::BadVarint)
}

/// An element count, checked against the remaining bytes when every
/// element takes at least `min_size` of them: a hostile count cannot
/// allocate past `remaining / min_size` elements.
fn take_count(buf: &mut &[u8], min_size: usize) -> Result<usize, WireError> {
    let count = take_len(buf)?;
    check_capacity(buf, count, min_size)?;
    Ok(count)
}

fn take_pid(buf: &mut &[u8]) -> Result<ProcessId, WireError> {
    take_varint(buf).map(ProcessId::new)
}

fn take_id(buf: &mut &[u8]) -> Result<EventId, WireError> {
    let origin = take_pid(buf)?;
    Ok(EventId::new(origin, take_varint(buf)?))
}

/// The next value of a delta-coded run after `prev`.
fn take_delta(buf: &mut &[u8], prev: u64) -> Result<u64, WireError> {
    prev.checked_add(take_varint(buf)?)
        .ok_or(WireError::BadVarint)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn eid(p: u64, s: u64) -> EventId {
        EventId::new(pid(p), s)
    }

    fn sample_gossip() -> Message {
        Message::gossip(Gossip {
            sender: pid(3),
            subs: vec![pid(3), pid(7)],
            unsubs: UnsubDigest::from_records([Unsubscription::new(pid(9), LogicalTime::new(42))]),
            events: vec![
                Event::new(eid(1, 0), b"alpha".as_ref()),
                Event::new(eid(2, 5), Bytes::new()),
            ],
            event_ids: Digest::Ids(vec![eid(1, 0), eid(2, 5), eid(3, 1)]),
        })
    }

    fn assert_roundtrip<M: WireMessage>(message: M) {
        let bytes = encode(&message);
        let decoded: M = decode(&bytes).expect("decodes");
        // Compare via re-encoding (the message enums lack PartialEq by
        // design — events compare by id only, which would hide payload
        // bugs).
        assert_eq!(encode(&decoded), bytes);
    }

    #[test]
    fn gossip_roundtrip() {
        assert_roundtrip(sample_gossip());
    }

    #[test]
    fn gossip_roundtrip_compact_digest() {
        let mut d = CompactDigest::new();
        d.extend([eid(1, 0), eid(1, 1), eid(1, 5), eid(4, 2)]);
        assert_roundtrip(Message::gossip(Gossip {
            sender: pid(0),
            subs: vec![],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::Compact(d),
        }));
    }

    #[test]
    fn compact_digest_semantics_survive_roundtrip() {
        let mut d = CompactDigest::new();
        d.extend([eid(1, 0), eid(1, 1), eid(1, 5)]);
        let msg = Message::gossip(Gossip {
            sender: pid(0),
            subs: vec![],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::Compact(d.clone()),
        });
        let decoded: Message = decode(&encode(&msg)).unwrap();
        match decoded {
            Message::Gossip(g) => match &g.event_ids {
                Digest::Compact(d2) => assert_eq!(d2, &d),
                _ => panic!("digest kind changed"),
            },
            _ => panic!("kind changed"),
        }
    }

    #[test]
    fn other_kinds_roundtrip() {
        assert_roundtrip(Message::Subscribe {
            subscriber: pid(12),
        });
        assert_roundtrip(Message::RetransmitRequest {
            ids: vec![eid(5, 1), eid(5, 2)],
        });
        assert_roundtrip(Message::RetransmitResponse {
            events: vec![Event::new(eid(5, 1), b"recovered".as_ref())],
        });
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode(&sample_gossip()).to_vec();
        bytes[0] = 0xFF;
        assert!(matches!(
            decode::<Message>(&bytes),
            Err(WireError::BadMagic(0xFF))
        ));
        let mut bytes = encode(&sample_gossip()).to_vec();
        bytes[1] = 9;
        assert!(matches!(
            decode::<Message>(&bytes),
            Err(WireError::BadVersion(9))
        ));
    }

    /// All 256 kind bytes on an empty body: a byte outside `family` is
    /// `BadTag(byte)`; a byte inside gets past the dispatch (and then runs
    /// out of body).
    fn sweep_kind_bytes<M: WireMessage>(family: &[Kind]) {
        for byte in 0..=u8::MAX {
            let inside = Kind::try_from(byte).is_ok_and(|kind| family.contains(&kind));
            match decode::<M>(&[MAGIC, VERSION, byte]) {
                Err(WireError::BadTag(tag)) => {
                    assert!(!inside && tag == byte, "kind byte {byte}: BadTag({tag})")
                }
                other => assert!(inside, "foreign kind byte {byte} got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_unknown_kind() {
        let lpbcast = [
            Kind::Gossip,
            Kind::Subscribe,
            Kind::RetransmitRequest,
            Kind::RetransmitResponse,
        ];
        // pbcast kinds live at 16+; an lpbcast gossip tag is foreign to it.
        let pbcast = [
            Kind::PbcastMulticast,
            Kind::PbcastSolicit,
            Kind::PbcastDigest,
        ];
        let swim = [
            Kind::SwimWrapped,
            Kind::SwimPing,
            Kind::SwimAck,
            Kind::SwimPingReq,
            Kind::SwimProxyPing,
            Kind::SwimProxyAck,
            Kind::SwimIndirectAck,
        ];
        sweep_kind_bytes::<Message>(&lpbcast);
        sweep_kind_bytes::<PbcastMessage>(&pbcast);
        sweep_kind_bytes::<SwimMsg<Message>>(&swim);
        // No orphans: every registered kind is one some codec decodes.
        let dispatched = [&lpbcast[..], &pbcast, &swim].concat();
        for kind in (0..=u8::MAX).filter_map(|byte| Kind::try_from(byte).ok()) {
            assert!(
                dispatched.contains(&kind),
                "{kind:?} is registered but no codec dispatches on it"
            );
        }
    }

    /// D3: the `//! kind N — …` table at the top of this file and the
    /// [`Kind`] enum name the same bytes.
    #[test]
    fn kind_registry_matches_the_doc_header() {
        let documented: Vec<u8> = include_str!("wire.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! kind ")?.split_once(' '))
            .map(|(byte, _)| byte.parse().expect("`//! kind N — …`"))
            .collect();
        let declared: Vec<u8> = (0..=u8::MAX)
            .filter(|&byte| Kind::try_from(byte).is_ok())
            .collect();
        assert_eq!(documented, declared);
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode(&sample_gossip());
        for cut in 0..bytes.len() {
            let err = decode::<Message>(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, WireError::UnexpectedEof | WireError::LengthOverflow(_)),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample_gossip()).to_vec();
        bytes.push(0);
        assert!(matches!(
            decode::<Message>(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    /// A frame header and kind byte, then `varints` in LEB128.
    fn raw_frame(kind: Kind, varints: &[u64]) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(kind as u8);
        for &v in varints {
            buf.put_varint(v);
        }
        buf
    }

    #[test]
    fn rejects_hostile_length_claims() {
        // A gossip claiming 65535 subs with 8 bytes left: past the
        // one-byte-per-id floor, so nothing is allocated.
        let mut buf = raw_frame(Kind::Gossip, &[1, u16::MAX.into()]);
        buf.put_slice(&[0; 8]);
        let err = decode::<Message>(&buf).expect_err("must reject");
        assert!(matches!(err, WireError::LengthOverflow(_)), "{err:?}");
        // A count past `usize` is out of range before any check.
        let buf = raw_frame(Kind::Gossip, &[1, u64::MAX]);
        assert_eq!(
            decode::<Message>(&buf).err(),
            Some(WireError::LengthOverflow(usize::MAX))
        );
    }

    #[test]
    fn rejects_oversized_payload_claim() {
        // One event (origin 0, seq 0) with an absurd payload length.
        let buf = raw_frame(Kind::RetransmitResponse, &[1, 0, 0, u32::MAX.into()]);
        let err = decode::<Message>(&buf).expect_err("must reject");
        assert!(matches!(err, WireError::LengthOverflow(_)), "{err:?}");
    }

    #[test]
    fn empty_gossip_is_tiny() {
        let msg = Message::gossip(Gossip {
            sender: pid(1),
            subs: vec![pid(1)],
            unsubs: UnsubDigest::new(),
            events: vec![],
            event_ids: Digest::Ids(vec![]),
        });
        let bytes = encode(&msg);
        assert!(bytes.len() < 40, "empty gossip is {} bytes", bytes.len());
    }

    fn sample_pbcast_digest() -> PbcastMessage {
        let range = |origin, min_seq, max_seq, hops| OriginRange {
            origin: pid(origin),
            min_seq,
            max_seq,
            hops,
        };
        PbcastMessage::digest(GossipDigest {
            sender: pid(4),
            ranges: vec![range(1, 0, 0, 2), range(2, 9, 300, 0)],
            subs: vec![pid(4), pid(7)],
        })
    }

    #[test]
    fn pbcast_kinds_roundtrip() {
        assert_roundtrip(PbcastMessage::Multicast {
            event: Event::new(eid(3, 1), b"payload".as_ref()),
            hops: 5,
        });
        assert_roundtrip(sample_pbcast_digest());
        assert_roundtrip(PbcastMessage::Solicit {
            ids: vec![eid(1, 0), eid(1, 1)],
        });
    }

    #[test]
    fn pbcast_truncation_rejected_at_every_length() {
        let bytes = encode(&sample_pbcast_digest());
        for cut in 0..bytes.len() {
            let err = decode::<PbcastMessage>(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, WireError::UnexpectedEof | WireError::LengthOverflow(_)),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn batched_datagram_roundtrips_every_frame() {
        let messages = vec![
            sample_gossip(),
            Message::Subscribe { subscriber: pid(9) },
            Message::RetransmitRequest {
                ids: vec![eid(1, 0)],
            },
        ];
        let mut buf = BytesMut::new();
        for m in &messages {
            encode_frame(m, &mut buf);
        }
        let decoded: Vec<Message> = decode_frames(&buf).expect("batch decodes");
        assert_eq!(decoded.len(), messages.len());
        for (d, m) in decoded.iter().zip(&messages) {
            assert_eq!(encode(d), encode(m), "frame survived batching");
        }
    }

    #[test]
    fn batched_datagram_with_torn_frame_is_rejected_whole() {
        let mut buf = BytesMut::new();
        encode_frame(&sample_gossip(), &mut buf);
        encode_frame(&Message::Subscribe { subscriber: pid(1) }, &mut buf);
        let torn = &buf[..buf.len() - 3];
        assert!(
            decode_frames::<Message>(torn).is_err(),
            "torn tail rejected"
        );
        assert!(
            decode_frames::<Message>(&[]).is_err(),
            "empty datagram rejected"
        );
    }

    #[test]
    fn digest_total_span_is_capped() {
        // One full-span range decodes; several of them would let a tiny
        // datagram amplify into a gigascan, so the decoder must reject
        // the digest once the summed span passes 2¹⁶ ids, what one
        // full-span range advertises.
        let range = |origin: u64| OriginRange {
            origin: pid(origin),
            min_seq: 0,
            max_seq: u16::MAX as u64,
            hops: 1,
        };
        let mk = |ranges: Vec<OriginRange>| {
            PbcastMessage::digest(GossipDigest {
                sender: pid(0),
                ranges,
                subs: vec![],
            })
        };
        let single = encode(&mk(vec![range(1)]));
        assert!(decode::<PbcastMessage>(&single).is_ok(), "one span is fine");
        let double = encode(&mk(vec![range(1), range(2)]));
        assert!(
            matches!(
                decode::<PbcastMessage>(&double),
                Err(WireError::LengthOverflow(_))
            ),
            "summed spans past u16::MAX must be rejected"
        );
    }

    /// An lpbcast gossip with no subs, no events, an empty id digest and
    /// the given unSubs section.
    fn unsubs_gossip(unsubs: UnsubDigest) -> Message {
        Message::gossip(Gossip {
            sender: pid(0),
            subs: vec![],
            unsubs,
            events: vec![],
            event_ids: Digest::Ids(vec![]),
        })
    }

    /// Offset of the unSubs group count in an `unsubs_gossip` frame:
    /// header + kind (3), sender (1), empty subs (1).
    const UNSUBS_AT: usize = 3 + 1 + 1;

    #[test]
    fn empty_unsubs_section_is_one_byte() {
        let bytes = encode(&unsubs_gossip(UnsubDigest::new()));
        assert_eq!(bytes.get(UNSUBS_AT), Some(&0));
        // The rest: events (1), digest kind + empty id list (2).
        assert_eq!(bytes.len(), UNSUBS_AT + 1 + 1 + 2);
    }

    #[test]
    fn unsubs_section_costs_a_varint_a_leaver_and_two_a_timestamp() {
        // 40 leavers on 2 timestamps — one churn round's departures and
        // the one before — then the same with ids and timestamps past 2¹⁴
        // (three-byte varints).
        for base in [0, 1 << 14] {
            let records = (0..40u64)
                .map(|i| Unsubscription::new(pid(base + i), LogicalTime::new(base + i % 2)));
            let digest = UnsubDigest::from_records(records);
            let empty = encode(&unsubs_gossip(UnsubDigest::new())).len();
            let full = encode(&unsubs_gossip(digest.clone()));
            let width = varint::len(base);
            assert_eq!(full.len() - empty + 1, 1 + 2 * (width + 1) + 40 * width);
            assert_eq!(full.len(), unsubs_gossip(digest).encoded_len());
        }
    }

    fn sample_updates() -> Vec<Update> {
        vec![
            Update {
                subject: pid(7),
                incarnation: 3,
                state: UpdateState::Suspect,
            },
            Update {
                subject: pid(8),
                incarnation: 0,
                state: UpdateState::Alive,
            },
            Update {
                subject: pid(9),
                incarnation: 12,
                state: UpdateState::Confirm,
            },
        ]
    }

    #[test]
    fn swim_kinds_roundtrip() {
        let updates = sample_updates();
        assert_roundtrip(SwimMsg::Wrapped {
            inner: sample_gossip(),
            updates: updates.clone(),
        });
        assert_roundtrip(SwimMsg::<Message>::Ping {
            updates: updates.clone(),
        });
        assert_roundtrip(SwimMsg::<Message>::Ack { updates: vec![] });
        assert_roundtrip(SwimMsg::<Message>::PingReq {
            target: pid(3),
            updates: updates.clone(),
        });
        assert_roundtrip(SwimMsg::<Message>::ProxyPing {
            origin: pid(1),
            updates: vec![],
        });
        assert_roundtrip(SwimMsg::<Message>::ProxyAck {
            origin: pid(1),
            updates: updates.clone(),
        });
        assert_roundtrip(SwimMsg::<Message>::IndirectAck {
            target: pid(3),
            updates,
        });
    }

    #[test]
    fn swim_update_semantics_survive_roundtrip() {
        let msg = SwimMsg::<Message>::Ping {
            updates: sample_updates(),
        };
        let decoded: SwimMsg<Message> = decode(&encode(&msg)).unwrap();
        assert_eq!(decoded.updates(), sample_updates().as_slice());
    }

    #[test]
    fn swim_encoded_len_is_exact() {
        let msgs = vec![
            SwimMsg::Wrapped {
                inner: sample_gossip(),
                updates: sample_updates(),
            },
            SwimMsg::<Message>::Ping {
                updates: sample_updates(),
            },
            SwimMsg::<Message>::PingReq {
                target: pid(3),
                updates: vec![],
            },
        ];
        for m in msgs {
            assert_eq!(m.encoded_len(), encode(&m).len(), "{m:?}");
        }
    }

    #[test]
    fn swim_truncation_rejected_at_every_length() {
        let bytes = encode(&SwimMsg::Wrapped {
            inner: sample_gossip(),
            updates: sample_updates(),
        });
        for cut in 0..bytes.len() {
            let err = decode::<SwimMsg<Message>>(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, WireError::UnexpectedEof | WireError::LengthOverflow(_)),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn swim_rejects_hostile_input() {
        // Unknown update state byte after one (subject 7, incarnation 0).
        let mut buf = raw_frame(Kind::SwimPing, &[1, 7, 0]);
        buf.put_u8(9); // no such UpdateState
        assert!(matches!(
            decode::<SwimMsg<Message>>(&buf),
            Err(WireError::BadTag(9))
        ));
        // An update count that cannot fit the remaining bytes.
        let mut buf = raw_frame(Kind::SwimAck, &[u16::MAX.into()]);
        buf.put_slice(&[0; 8]);
        assert!(matches!(
            decode::<SwimMsg<Message>>(&buf),
            Err(WireError::LengthOverflow(_))
        ));
        // A foreign (lpbcast) tag is rejected, not half-decoded.
        let bytes = vec![MAGIC, VERSION, 0, 0];
        assert!(matches!(
            decode::<SwimMsg<Message>>(&bytes),
            Err(WireError::BadTag(0))
        ));
    }

    #[test]
    fn swim_body_key_distinguishes_piggyback() {
        let inner = sample_gossip();
        let a = SwimMsg::Wrapped {
            inner: inner.clone(),
            updates: vec![],
        };
        let b = SwimMsg::Wrapped {
            inner: inner.clone(),
            updates: sample_updates(),
        };
        assert!(a.body_key().is_some());
        assert_eq!(
            a.body_key(),
            a.clone().body_key(),
            "same body + same updates share the key"
        );
        assert_ne!(
            a.body_key(),
            b.body_key(),
            "different piggyback must not reuse a cached frame"
        );
        assert_eq!(
            SwimMsg::<Message>::Ping { updates: vec![] }.body_key(),
            None,
            "control messages are never shared"
        );
    }

    #[test]
    fn body_key_tracks_shared_bodies() {
        let g = sample_gossip();
        let g2 = g.clone();
        assert_eq!(g.body_key(), g2.body_key(), "Arc clones share the key");
        assert!(g.body_key().is_some());
        assert_ne!(
            g.body_key(),
            sample_gossip().body_key(),
            "distinct bodies, distinct keys"
        );
        assert_eq!(
            Message::Subscribe { subscriber: pid(1) }.body_key(),
            None,
            "unshared messages have no key"
        );
        let d = sample_pbcast_digest();
        assert_eq!(d.body_key(), d.clone().body_key());
    }

    /// A probe message whose body measurement is observable: fanout
    /// copies of the same "body" share a key, and every `encoded_len`
    /// call bumps a shared counter.
    #[derive(Clone, Debug)]
    struct CountedMsg {
        key: usize,
        len: usize,
        measured: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    #[expect(
        clippy::unreachable,
        reason = "the meter probe stubs the codec half no meter test runs"
    )]
    impl WireMessage for CountedMsg {
        fn encode_body(&self, _buf: &mut BytesMut) {
            unreachable!("meter tests never serialize")
        }

        fn decode_body(_buf: &mut &[u8]) -> Result<Self, WireError> {
            unreachable!("meter tests never deserialize")
        }

        fn body_key(&self) -> Option<usize> {
            Some(self.key)
        }

        fn encoded_len(&self) -> usize {
            self.measured
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.len
        }
    }

    #[test]
    fn wire_meter_measures_back_to_back_copies_once() {
        let measured = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let bodies: Vec<CountedMsg> = (0..8)
            .map(|k| CountedMsg {
                key: k + 1,
                len: 100 + k,
                measured: measured.clone(),
            })
            .collect();
        let mut meter = wire_meter::<CountedMsg>();
        // Each body's fanout of 3 copies, offered together — the pattern
        // the engine produces by metering at offer time.
        for (i, body) in bodies.iter().enumerate() {
            for _ in 0..3 {
                assert_eq!(meter(body), 100 + i);
            }
        }
        let count = || measured.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(count(), 8);
        // Interleaved copies are measured again, and stay exact.
        for _ in 0..2 {
            for (i, body) in bodies.iter().enumerate() {
                assert_eq!(meter(body), 100 + i);
            }
        }
        assert_eq!(count(), 8 + 16);
    }
}
