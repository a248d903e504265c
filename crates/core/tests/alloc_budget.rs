//! A deterministic work counter for the gossip handler: the exact number
//! of heap allocations `tick()` and `handle_message` make on fixed
//! exchanges, one event-and-digest heavy and one membership-only, and of
//! a tick that gossips a full `unSubs` buffer. Wall
//! clock swings ±40 % in a shared container; this count repeats exactly
//! on any box, so it gates the digest representation and the membership
//! buffers without reading a clock. The same counter bounds the bytes a
//! retransmission pull may allocate for a digest whose watermark came off
//! the wire.
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

use lpbcast_core::{
    Config, Digest, Gossip, HistoryMode, LogicalTime, Lpbcast, Message, UnsubDigest, Unsubscription,
};
use lpbcast_types::{CompactDigest, Event, EventId, OriginDigest, ProcessId};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size as u64));
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

/// Runs `f` and returns how many bytes it asked the allocator for (every
/// `alloc` size and `realloc` new size, summed), with its result.
fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

fn origins() -> std::ops::Range<u64> {
    100..116
}

/// The §3.2 digest of a process that has seen, from each of the 16
/// origins, everything below `next_seq` plus `out_of_order`.
fn digest(next_seq: u64, out_of_order: &[u64]) -> Digest {
    let mut d = CompactDigest::new();
    for origin in origins() {
        d.extend((0..next_seq).map(|seq| EventId::new(pid(origin), seq)));
        d.extend(
            out_of_order
                .iter()
                .map(|&seq| EventId::new(pid(origin), seq)),
        );
    }
    Digest::Compact(d)
}

fn gossip(events: Vec<Event>, event_ids: Digest) -> Message {
    Message::gossip(Gossip {
        sender: pid(1),
        subs: vec![pid(1)],
        unsubs: UnsubDigest::new(),
        events,
        event_ids,
    })
}

/// One exchange on sequence numbers `base..base + 10`, returning the
/// heap allocations of its `tick()` and of its `handle_message`.
fn exchange(node: &mut Lpbcast, base: u64) -> (u64, u64) {
    // Every origin holds out-of-order ids: everything below `base + 2` in
    // sequence; `base + 3` and `base + 5` not.
    let primed = node.handle_message(
        pid(1),
        gossip(Vec::new(), digest(base + 2, &[base + 3, base + 5])),
    );
    assert!(origins().all(|origin| primed
        .learned_ids
        .contains(&EventId::new(pid(origin), base + 5))));

    // One emission: the digest is cloned into the gossip body.
    let (tick_allocations, out) = allocations(|| node.tick());
    assert_eq!(out.outgoing.len(), 3, "fanout copies of one body");
    drop(out);

    // One reception: 40 events (16 close the gap at `base + 2` and absorb
    // the out-of-order `base + 3`; 24 land beyond the watermark) and a
    // digest that advertises `base + 4`, `+ 7` and `+ 9` on top of them.
    let events: Vec<Event> = origins()
        .map(|origin| (origin, base + 2))
        .chain(origins().map(|origin| (origin, base + 6)))
        .chain(origins().take(8).map(|origin| (origin, base + 8)))
        .map(|(origin, seq)| Event::new(EventId::new(pid(origin), seq), b"payload".as_ref()))
        .collect();
    assert_eq!(events.len(), 40);
    let message = gossip(events, digest(base + 8, &[base + 9]));
    let (handle_allocations, out) = allocations(|| node.handle_message(pid(1), message));
    assert_eq!(out.delivered.len(), 40);
    assert_eq!(out.learned_ids.len(), 16 * 3);
    assert!(origins().all(|origin| node.has_seen(EventId::new(pid(origin), base + 9))));
    (tick_allocations, handle_allocations)
}

#[test]
fn gossip_exchange_allocation_budget() {
    // `(tick, handle_message)`: the digest clone is one allocation per
    // non-empty vector, and the digest phase of the handler allocates
    // nothing but `learned_ids` — on the first exchange and, the vectors
    // being reused, on every later one. The tree-backed digest this one
    // replaced (missing-list + per-id insert) made (24, 20) on both. The
    // `events` bound does not move the count: 170 (`sim_loaded_1k`'s) is
    // above the 128 elements past which `BoundedSet` keeps a hash index,
    // but the 40 events held are not, so no index is built (one sized by
    // the bound made (22, 20) on the first exchange).
    for events_max in [60, 170] {
        let config = Config::builder()
            .history_mode(HistoryMode::Compact)
            .deliver_on_digest(true)
            .events_max(events_max)
            .build();
        let mut node = Lpbcast::with_initial_view(pid(0), config, 7, (1..=15).map(pid));
        for base in [0, 10] {
            let counts = exchange(&mut node, base);
            assert_eq!(counts, (22, 15), "events_max {events_max}, base {base}");
        }
    }
}

/// Membership only: a paper-sized view (l = 29) receives a gossip whose
/// 16 subscriptions neither `view` nor `subs` holds, and no events. Phases
/// 1–2 run their admission filters on the stack, so every allocation here
/// is a buffer growing.
#[test]
fn membership_exchange_allocation_budget() {
    let config = Config::builder().view_size(29).subs_max(16).build();
    let mut node = Lpbcast::with_initial_view(pid(0), config, 7, (1..=29).map(pid));
    let mut counts = Vec::new();
    for base in [1_000, 2_000, 3_000] {
        node.tick();
        let subs: Vec<ProcessId> = (base..base + 16).map(pid).collect();
        let message = Message::gossip(Gossip {
            sender: pid(1),
            subs,
            unsubs: UnsubDigest::new(),
            events: Vec::new(),
            event_ids: Digest::empty(),
        });
        let (n, out) = allocations(|| node.handle_message(pid(1), message));
        assert!(out.is_empty());
        assert_eq!(node.stats().subs_added, base / 1_000 * 16);
        counts.push(n);
    }
    // First reception: the view's id array grows 32 → 64 (1) and `subs`
    // 0 → 4 → 8 → 16 → 32 (4). Second: `subs` holds 16 + 16 admitted +
    // the evicted, 32 → 64. Then nothing. Evicted ids go straight into
    // `subs`, and a `Uniform` view keeps no weight array: a buffer for
    // the former (0 → 4 → 8 → 16) and the latter's own 32 → 64 would
    // make the first count 9.
    assert_eq!(counts, [5, 1, 0]);
}

/// A node holding 60 `unSubs` records issued at `stamps` distinct logical
/// times; returns the heap allocations of the tick that gossips them.
fn unsubs_tick_allocations(stamps: u64) -> u64 {
    let config = Config::builder()
        .unsubs_max(64)
        .unsub_obsolescence(100)
        .build();
    let mut node = Lpbcast::with_initial_view(pid(0), config, 7, (1..=15).map(pid));
    let records =
        (0..60).map(|k| Unsubscription::new(pid(1_000 + k), LogicalTime::new(k % stamps)));
    let message = Message::gossip(Gossip {
        sender: pid(1),
        subs: Vec::new(),
        unsubs: UnsubDigest::from_records(records),
        events: Vec::new(),
        event_ids: Digest::empty(),
    });
    node.handle_message(pid(1), message);
    let (n, out) = allocations(|| node.tick());
    let Some((_, Message::Gossip(body))) = out.outgoing.first() else {
        panic!("the tick gossips");
    };
    assert_eq!(body.unsubs.record_count(), 60);
    assert_eq!(body.unsubs.group_count() as u64, stamps);
    n
}

/// The tick's `unSubs` section costs the same allocations however many
/// timestamps its records span: the wire groups are the codec's to build.
/// Built per tick, as a sorted copy plus one growing id vector per group,
/// they made the counts here 14, 33 and 71.
#[test]
fn unsubs_tick_allocation_budget() {
    let counts: Vec<u64> = [1, 6, 30]
        .into_iter()
        .map(unsubs_tick_allocations)
        .collect();
    assert_eq!(counts, [6, 6, 6]);
}

/// A pull-enabled node handles a gossip (a 47-byte frame on the wire)
/// whose digest advertises an unseen origin at watermark `next_seq`, and
/// returns the bytes the handler allocated with the one request it sends.
fn pull_against_watermark(history: HistoryMode, next_seq: u64) -> (u64, Vec<EventId>) {
    let config = Config::builder()
        .history_mode(history)
        .retransmit_request_max(16)
        .build();
    let mut node = Lpbcast::with_initial_view(pid(0), config, 7, (1..=15).map(pid));
    let mut advertised = CompactDigest::new();
    advertised.set_origin(pid(500), OriginDigest::from_parts(next_seq, []));
    let message = gossip(Vec::new(), Digest::Compact(advertised));
    let (bytes, out) = allocated_bytes(|| node.handle_message(pid(1), message));
    let [(to, Message::RetransmitRequest { ids })] = &out.outgoing[..] else {
        panic!(
            "expected one retransmission request, got {:?}",
            out.outgoing
        );
    };
    assert_eq!(*to, pid(1), "the pull goes to the advertiser");
    (bytes, ids.clone())
}

/// The pull walks the digest only as far as its budget: 16 ids out of an
/// advertised 2^20, in a few KiB. Enumerating every advertised id first
/// would build ~16 MiB.
#[test]
fn pull_walk_stops_at_the_request_budget() {
    for history in [HistoryMode::Compact, HistoryMode::Bounded] {
        let (bytes, ids) = pull_against_watermark(history, 1 << 20);
        let expected: Vec<EventId> = (0..16).map(|seq| EventId::new(pid(500), seq)).collect();
        assert_eq!(
            ids, expected,
            "{history:?}: the first 16 missing ids, in order"
        );
        assert!(bytes < 16 << 10, "{history:?}: {bytes} bytes allocated");
    }
}

/// The walk ends even when the watermark is the largest the wire can carry.
#[test]
fn pull_walk_returns_at_the_largest_watermark() {
    for history in [HistoryMode::Compact, HistoryMode::Bounded] {
        let (_, ids) = pull_against_watermark(history, u64::MAX);
        assert_eq!(ids.len(), 16, "{history:?}");
    }
}
