//! `WireMessage::encoded_len` allocates nothing. The simulator meters
//! every message it sends through `encoded_len`, so the trait promises a
//! counter pass over the frame walk: no buffer, no sort, no allocation.
//! A counting allocator holds each first-party family to that, on the
//! shapes where the writer does allocate: a gossip's multi-group
//! `unSubs` (the writer sorts the records) and an opaque inner message
//! (SWIM's `Wrapped`). The writer itself is held to one allocation for
//! the `unSubs` sort when its buffer is large enough: the cluster runtime
//! pays it on every lpbcast gossip body it encodes.
//!
//! An integration test is its own crate, so the `#![expect]` below
//! waives D4 for the counting allocator only, not for the libraries.
//! The counter is per thread: other harness threads cannot disturb it.

#![expect(
    unsafe_code,
    reason = "D4 waiver: a counting #[global_allocator] needs an `unsafe impl GlobalAlloc`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lpbcast_core::{Digest, Gossip, LogicalTime, Message, UnsubDigest, Unsubscription};
use lpbcast_membership::{SwimMsg, Update, UpdateState};
use lpbcast_net::wire;
use lpbcast_net::WireMessage;
use lpbcast_pbcast::{GossipDigest, OriginRange, PbcastMessage};
use lpbcast_types::{CompactDigest, Event, EventId, ProcessId};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System`; the rest is the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many times it asked the allocator for memory
/// (`alloc` + `realloc`), with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

fn eid(p: u64, s: u64) -> EventId {
    EventId::new(pid(p), s)
}

/// Asserts `message`'s `encoded_len` allocates nothing and is exact.
fn assert_counts_without_allocating<M: WireMessage>(name: &str, message: &M) {
    let (allocs, len) = allocations(|| message.encoded_len());
    assert_eq!(allocs, 0, "{name}: encoded_len allocated");
    let (encode_allocs, bytes) = allocations(|| wire::encode(message));
    assert!(encode_allocs > 0, "{name}: the allocator counts nothing");
    assert_eq!(len, bytes.len(), "{name}: encoded_len is not the frame");
}

/// Six leavers over three issue timestamps, offered out of order, so the
/// writer must sort them into groups.
fn multi_group_unsubs() -> UnsubDigest {
    let records = [(9, 7), (2, 3), (5, 7), (4, 300), (1, 3), (8, 300)]
        .into_iter()
        .map(|(p, t)| Unsubscription::new(pid(p), LogicalTime::new(t)));
    let unsubs = UnsubDigest::from_records(records.collect::<Vec<_>>());
    assert_eq!(unsubs.group_count(), 3);
    unsubs
}

fn gossip(event_ids: Digest) -> Gossip {
    Gossip {
        sender: pid(1),
        subs: vec![pid(2), pid(300), pid(4)],
        unsubs: multi_group_unsubs(),
        events: vec![
            Event::new(eid(1, 0), b"tick".as_ref()),
            Event::new(eid(200, 1 << 40), vec![7u8; 300]),
        ],
        event_ids,
    }
}

fn ids_gossip() -> Message {
    Message::gossip(gossip(Digest::Ids(vec![eid(1, 0), eid(3, 9), eid(900, 5)])))
}

fn compact_gossip() -> Message {
    let mut digest = CompactDigest::new();
    digest.extend([eid(1, 0), eid(1, 1), eid(1, 5), eid(7, 0), eid(400, 3)]);
    Message::gossip(gossip(Digest::Compact(digest)))
}

fn updates() -> Vec<Update> {
    vec![
        Update {
            subject: pid(3),
            incarnation: 1,
            state: UpdateState::Suspect,
        },
        Update {
            subject: pid(500),
            incarnation: 0,
            state: UpdateState::Confirm,
        },
    ]
}

#[test]
fn lpbcast_encoded_len_allocates_nothing() {
    assert_counts_without_allocating("gossip, id-list digest", &ids_gossip());
    assert_counts_without_allocating("gossip, compact digest", &compact_gossip());
    let request = Message::RetransmitRequest {
        ids: vec![eid(1, 2), eid(300, 1 << 20)],
    };
    assert_counts_without_allocating("retransmit request", &request);
    let response = Message::RetransmitResponse {
        events: vec![Event::new(eid(1, 2), b"again".as_ref())],
    };
    assert_counts_without_allocating("retransmit response", &response);
}

#[test]
fn pbcast_digest_encoded_len_allocates_nothing() {
    let digest = PbcastMessage::digest(GossipDigest {
        sender: pid(4),
        ranges: vec![
            OriginRange {
                origin: pid(1),
                min_seq: 10,
                max_seq: 400,
                hops: 3,
            },
            OriginRange {
                origin: pid(900),
                min_seq: 0,
                max_seq: 0,
                hops: 1,
            },
        ],
        subs: vec![pid(5)],
    });
    assert_counts_without_allocating("pbcast digest", &digest);
}

#[test]
fn swim_wrapped_encoded_len_allocates_nothing() {
    let wrapped = SwimMsg::Wrapped {
        inner: ids_gossip(),
        updates: updates(),
    };
    assert_counts_without_allocating("SWIM-wrapped gossip", &wrapped);
}

/// Encoding a multi-group `unSubs` gossip into a buffer that already
/// holds it allocates at most once: the scratch `Vec` the records are
/// sorted in.
#[test]
fn multi_group_unsubs_encode_allocates_once() {
    for (name, message) in [("id-list", ids_gossip()), ("compact", compact_gossip())] {
        let len = message.encoded_len();
        let mut buf = bytes::BytesMut::with_capacity(len);
        let (allocs, ()) = allocations(|| wire::encode_frame(&message, &mut buf));
        assert!(
            allocs <= 1,
            "{name} gossip: encoding into a large enough buffer allocated {allocs} times"
        );
        assert_eq!(
            buf.len(),
            len,
            "{name} gossip: encoded_len is not the frame"
        );
    }
}
