//! Foundational types shared by every crate in the lpbcast reproduction.
//!
//! The lpbcast paper (Eugster et al., *Lightweight Probabilistic Broadcast*,
//! DSN 2001) builds its whole protocol state out of a small family of data
//! structures with common semantics — §3.2: *"none of the outlined data
//! structures contains duplicates \[...\] every list has a maximum size"* —
//! plus identifiers for processes and event notifications. This crate
//! provides exactly those building blocks:
//!
//! * [`ProcessId`] / [`EventId`] — ordered, unique identifiers (§3.1 assumes
//!   ordered distinct identifiers; event ids embed their originator).
//! * [`Event`] — an application notification with opaque payload.
//! * [`BoundedSet`] — a no-duplicate list truncated by *random* removal, the
//!   eviction rule used by `view`, `subs`, `unSubs` and `events`.
//! * [`OldestFirstBuffer`] — a no-duplicate list truncated by removing the
//!   *oldest* element, the eviction rule used by `eventIds`.
//! * [`CompactDigest`] — the per-origin optimisation of §3.2: *"the buffer
//!   can be optimized by only retaining for each sender the identifiers of
//!   notifications delivered since the last one delivered in sequence"*.
//! * [`Protocol`] / [`Output`] — the workspace-wide sans-IO protocol
//!   lifecycle and its unified output envelope: one trait drives lpbcast,
//!   pbcast and the SWIM wrapper across the simulator, the scenario suite
//!   and the UDP runtime (see [`protocol`]).
//!
//! # Example
//!
//! ```
//! use lpbcast_types::{BoundedSet, Event, EventId, ProcessId};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let origin = ProcessId::new(3);
//! let event = Event::new(EventId::new(origin, 0), b"hello".as_ref());
//!
//! let mut buf: BoundedSet<Event> = BoundedSet::new(2);
//! buf.insert(event.clone());
//! buf.insert(event.clone()); // duplicate: ignored
//! assert_eq!(buf.len(), 1);
//! buf.truncate_random(&mut rng);
//! assert!(buf.len() <= 2);
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod buffer;
mod digest;
mod event;
pub mod hashing;
mod id;
pub mod protocol;
pub mod scan;
pub mod varint;

pub use buffer::{BoundedSet, OldestFirstBuffer};
pub use digest::{CompactDigest, OriginDigest};
pub use event::{Event, Payload};
pub use hashing::{FastMap, FastSet};
pub use id::{EventId, ProcessId, Round};
pub use protocol::{MembershipEvent, Output, Protocol};
