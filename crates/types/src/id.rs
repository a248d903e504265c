//! Process and event identifiers.
//!
//! §3.1 of the paper: *"We consider a system of processes Π = {p1, p2, ...}.
//! Processes join and leave the system dynamically and have ordered distinct
//! identifiers."* §3.2: *"We suppose that these identifiers are unique, and
//! include the identifier of the originator."*

use core::fmt;

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// Identifier of a process in the system Π.
///
/// Identifiers are ordered and distinct (§3.1). In the simulator they are
/// dense indices `0..n`; in the UDP runtime they are assigned by the
/// operator and mapped to socket addresses by the transport.
///
/// # Example
///
/// ```
/// use lpbcast_types::ProcessId;
///
/// let a = ProcessId::new(1);
/// let b = ProcessId::new(2);
/// assert!(a < b);
/// assert_eq!(a.as_u64(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct ProcessId(u64);

impl ProcessId {
    /// Creates a process identifier from its raw ordinal.
    pub const fn new(raw: u64) -> Self {
        ProcessId(raw)
    }

    /// Returns the raw ordinal backing this identifier.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw ordinal as a `usize` index (for dense simulator
    /// tables).
    ///
    /// # Panics
    ///
    /// Panics if the ordinal does not fit a `usize` (only conceivable on
    /// 16-bit targets).
    pub fn as_index(self) -> usize {
        usize::try_from(self.0).expect("process ordinal exceeds usize")
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u64> for ProcessId {
    fn from(raw: u64) -> Self {
        ProcessId(raw)
    }
}

impl From<ProcessId> for u64 {
    fn from(id: ProcessId) -> Self {
        id.0
    }
}

/// Identifier of an event notification.
///
/// Globally unique: the pair of the originator's [`ProcessId`] and a
/// per-originator sequence number (§3.2). The sequence numbering is what
/// enables the compact per-origin digest ([`crate::CompactDigest`]).
///
/// # Example
///
/// ```
/// use lpbcast_types::{EventId, ProcessId};
///
/// let id = EventId::new(ProcessId::new(4), 17);
/// assert_eq!(id.origin(), ProcessId::new(4));
/// assert_eq!(id.seq(), 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct EventId {
    origin: ProcessId,
    seq: u64,
}

impl EventId {
    /// Creates the identifier of the `seq`-th event published by `origin`.
    pub const fn new(origin: ProcessId, seq: u64) -> Self {
        EventId { origin, seq }
    }

    /// The process that published the event.
    pub const fn origin(self) -> ProcessId {
        self.origin
    }

    /// The per-origin sequence number of the event.
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// A gossip round number.
///
/// The analysis (§4.1) assumes synchronous rounds; the simulator numbers
/// them from 0 (the round in which the event is injected, where s₀ = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Round(u64);

impl Round {
    /// The injection round r = 0.
    pub const ZERO: Round = Round(0);

    /// Creates a round number.
    pub const fn new(r: u64) -> Self {
        Round(r)
    }

    /// Returns the raw round number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next round (r + 1).
    #[must_use]
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for Round {
    fn from(raw: u64) -> Self {
        Round(raw)
    }
}

impl From<Round> for u64 {
    fn from(r: Round) -> Self {
        r.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn process_ids_are_ordered_and_distinct() {
        let ids: Vec<ProcessId> = (0..10).map(ProcessId::new).collect();
        let set: BTreeSet<ProcessId> = ids.iter().copied().collect();
        assert_eq!(set.len(), 10);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn process_id_roundtrips_through_u64() {
        let id = ProcessId::new(42);
        assert_eq!(ProcessId::from(u64::from(id)), id);
        assert_eq!(id.as_index(), 42);
    }

    #[test]
    fn event_id_embeds_originator() {
        let origin = ProcessId::new(9);
        let id = EventId::new(origin, 3);
        assert_eq!(id.origin(), origin);
        assert_eq!(id.seq(), 3);
    }

    #[test]
    fn event_ids_order_by_origin_then_seq() {
        let a = EventId::new(ProcessId::new(1), 10);
        let b = EventId::new(ProcessId::new(2), 0);
        let c = EventId::new(ProcessId::new(2), 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn round_advances() {
        let r = Round::ZERO;
        assert_eq!(r.next().as_u64(), 1);
        assert_eq!(Round::new(5).next(), Round::from(6));
    }

    #[test]
    fn display_formats_are_compact() {
        assert_eq!(ProcessId::new(3).to_string(), "p3");
        assert_eq!(EventId::new(ProcessId::new(3), 7).to_string(), "p3#7");
        assert_eq!(Round::new(2).to_string(), "r2");
    }
}
