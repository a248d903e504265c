//! The workspace-wide sans-IO protocol abstraction.
//!
//! Every broadcast stack in this repository — lpbcast, the pbcast
//! baseline, and the SWIM failure detector wrapped around either — is a
//! deterministic state machine with the same lifecycle: drivers feed it
//! incoming messages and clock ticks, and it answers with one uniform
//! [`Output`] envelope (messages to send, notifications delivered,
//! membership changes observed). The [`Protocol`] trait captures exactly
//! that lifecycle, so a single generic driver — the synchronous-round
//! simulation engine, the scenario suite, or the UDP runtime — runs any
//! of the protocols unchanged.
//!
//! The envelope is allocation-conscious by construction: outbound
//! messages are `(destination, message)` pairs whose message values are
//! expected to share their bodies (the gossip enums carry their per-round
//! bodies behind an `Arc`, so a fanout of `F` is one body allocation plus
//! `F` pointer clones), and an [`Output`] holding only empty vectors
//! allocates nothing.
//!
//! # Example: one generic driver, two protocols
//!
//! ```
//! use lpbcast_types::{Output, Payload, ProcessId, Protocol};
//!
//! /// Delivers `a`'s broadcast to `b` through any protocol.
//! fn relay<P: Protocol>(a: &mut P, b: &mut P) -> usize {
//!     let (_id, publish) = a.broadcast(Payload::from_static(b"hi"));
//!     let mut outputs = vec![publish, a.tick()];
//!     let mut delivered = 0;
//!     while let Some(out) = outputs.pop() {
//!         for (to, msg) in out.outgoing {
//!             if to == b.id() {
//!                 let reply = b.handle_message(a.id(), msg);
//!                 delivered += reply.delivered.len();
//!                 // Chase the reply chain (solicit → serve → absorb).
//!                 for (to, msg) in reply.outgoing {
//!                     if to == a.id() {
//!                         outputs.push(a.handle_message(b.id(), msg));
//!                     }
//!                 }
//!             }
//!         }
//!     }
//!     delivered
//! }
//! # let _ = relay::<DummyProtocol>;
//! # struct DummyProtocol;
//! # impl Protocol for DummyProtocol {
//! #     type Msg = ();
//! #     fn id(&self) -> ProcessId { ProcessId::new(0) }
//! #     fn tick(&mut self) -> Output<()> { Output::new() }
//! #     fn handle_message(&mut self, _: ProcessId, _: ()) -> Output<()> { Output::new() }
//! #     fn broadcast(&mut self, _: Payload) -> (lpbcast_types::EventId, Output<()>) {
//! #         (lpbcast_types::EventId::new(ProcessId::new(0), 0), Output::new())
//! #     }
//! #     fn view_members(&self) -> Vec<ProcessId> { Vec::new() }
//! # }
//! ```

use core::fmt;

use crate::event::{Event, Payload};
use crate::id::{EventId, ProcessId};

/// An *explicit* membership change the protocol observed: a process
/// definitively joined or left the system.
///
/// These are notifications *to the driver* (the paper's application-level
/// membership feedback), not protocol traffic — membership information
/// travels inside the protocol's own messages. Only definitive signals
/// qualify (lpbcast: a §3.4 `Subscribe` adoption, an applied timestamped
/// unsubscription record); ordinary partial-view turnover is *view
/// rotation* — the bounded random view constantly cycles entries for
/// long-standing members — and is deliberately not reported, which also
/// keeps the envelope allocation-free on the gossip hot path. Protocols
/// without explicit join/leave signals (pbcast) report nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// `process` joined the system (an explicit subscription request was
    /// adopted).
    Joined(ProcessId),
    /// `process` left the system (its unsubscription record was applied).
    Left(ProcessId),
}

impl MembershipEvent {
    /// The process the event is about.
    pub fn process(&self) -> ProcessId {
        match *self {
            MembershipEvent::Joined(p) | MembershipEvent::Left(p) => p,
        }
    }
}

/// Everything one protocol step produced — the unified envelope stream
/// shared by every protocol in the workspace.
///
/// A default-constructed `Output` holds four empty vectors and performs
/// no heap allocation; steps that produce nothing are free.
#[derive(Debug, Clone)]
pub struct Output<M> {
    /// Notifications delivered to the application, in delivery order.
    pub delivered: Vec<Event>,
    /// Ids newly *learnt* from a digest without payload (the §5.2
    /// measurement convention: *"once a gossip receiver has received the
    /// identifier of a notification, the notification itself is assumed
    /// to have been received"*). Non-empty only when the protocol runs in
    /// a deliver-on-digest configuration.
    pub learned_ids: Vec<EventId>,
    /// Messages to transmit: `(destination, message)` batches. Fanout
    /// copies of the same gossip share one `Arc`'d body.
    pub outgoing: Vec<(ProcessId, M)>,
    /// Explicit membership changes observed during this step (see
    /// [`MembershipEvent`] for what qualifies).
    pub membership: Vec<MembershipEvent>,
}

// Manual impl: `#[derive(Default)]` would needlessly require `M: Default`.
impl<M> Default for Output<M> {
    fn default() -> Self {
        Output::new()
    }
}

impl<M> Output<M> {
    /// An empty output (no allocation).
    pub fn new() -> Self {
        Output {
            delivered: Vec::new(),
            learned_ids: Vec::new(),
            outgoing: Vec::new(),
            membership: Vec::new(),
        }
    }

    /// Queues `msg` for transmission to `to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outgoing.push((to, msg));
    }

    /// Whether the step produced nothing at all.
    pub fn is_empty(&self) -> bool {
        self.delivered.is_empty()
            && self.learned_ids.is_empty()
            && self.outgoing.is_empty()
            && self.membership.is_empty()
    }
}

/// A sans-IO broadcast protocol: a deterministic state machine drivable
/// by any transport.
///
/// Implementations must be pure functions of their construction
/// arguments and input sequence — all randomness flows from an internal
/// seeded RNG, and no observable behaviour may depend on unordered
/// (hash-map) iteration. That contract is what lets the simulator prove
/// parallel sweeps bit-identical to serial ones and lets CI compare runs
/// across machines; it is enforced for the in-tree protocols by the
/// cross-protocol conformance suite (`crates/net/tests/protocol_conformance.rs`).
pub trait Protocol {
    /// The protocol's wire message type. Cloning must be cheap for fanout
    /// copies (share bodies behind `Arc`s, don't deep-copy).
    type Msg: Clone + fmt::Debug;

    /// This process's identifier.
    fn id(&self) -> ProcessId;

    /// Advances the gossip clock by one period `T` and emits the periodic
    /// traffic. Called even when nothing happened — gossip protocols tick
    /// unconditionally (§3.3).
    fn tick(&mut self) -> Output<Self::Msg>;

    /// Whether this process has tick work it must not skip. A hook for a
    /// sparse (event-driven) tick schedule that no in-tree driver runs any
    /// more: every driver ticks unconditionally (§3.3) and none consults
    /// this. It survives only because `lpbench/`'s tracing wrappers
    /// forward it, and leaves with the PR allowed to edit `lpbench/`
    /// (ROADMAP 3(d)).
    fn wants_tick(&self) -> bool {
        true
    }

    /// Processes one incoming message from `from`.
    fn handle_message(&mut self, from: ProcessId, msg: Self::Msg) -> Output<Self::Msg>;

    /// Publishes an application notification. Returns its id plus any
    /// immediate sends (pbcast's best-effort first phase; empty for
    /// protocols that buffer until the next tick).
    fn broadcast(&mut self, payload: Payload) -> (EventId, Output<Self::Msg>);

    /// The current membership view (for view-graph analytics and gossip
    /// target accounting).
    fn view_members(&self) -> Vec<ProcessId>;

    /// Purges `process` from the protocol's membership state *immediately*
    /// — the hook a failure detector (e.g. the SWIM wrapper in
    /// `lpbcast-membership`) uses to act on a confirmed failure instead of
    /// waiting for the dead entry to fade out of bounded views.
    ///
    /// The default is a no-op: protocols without removable membership
    /// state (or ones that prefer passive fade-out) need not implement
    /// it. Implementations must stay deterministic — eviction may not
    /// consult any RNG outside the protocol's own seeded one.
    fn evict(&mut self, _process: ProcessId) {}
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

    #[test]
    fn default_output_is_empty_and_allocation_free() {
        let mut out: Output<u32> = Output::default();
        assert!(out.is_empty());
        assert_eq!(out.outgoing.capacity(), 0);
        assert_eq!(out.delivered.capacity(), 0);
        // Any one non-empty section makes the output non-empty.
        out.delivered.push(Event::new(eid(1, 0), b"".as_ref()));
        assert!(!out.is_empty());
        let mut learned: Output<u32> = Output::new();
        learned.learned_ids.push(eid(2, 0));
        let mut sent: Output<u32> = Output::new();
        sent.send(pid(5), 9);
        let mut joined: Output<u32> = Output::new();
        joined.membership.push(MembershipEvent::Joined(pid(7)));
        for output in [learned, sent, joined] {
            assert!(!output.is_empty());
        }
    }

    #[test]
    fn membership_event_process() {
        assert_eq!(MembershipEvent::Joined(pid(3)).process(), pid(3));
        assert_eq!(MembershipEvent::Left(pid(4)).process(), pid(4));
    }
}
