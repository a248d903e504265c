//! Lightweight Probabilistic Broadcast (lpbcast) — the protocol of
//! Eugster, Guerraoui, Handurukande, Kermarrec & Kouznetsov (DSN 2001).
//!
//! lpbcast is a gossip-based broadcast algorithm in which *membership
//! management is itself gossip-based*: every process maintains only a
//! fixed-size random partial view of the system, and every gossip message
//! simultaneously carries (§3.2)
//!
//! 1. **notifications** — application events received since the last
//!    outgoing gossip,
//! 2. **notification identifiers** — a digest of everything delivered,
//! 3. **unsubscriptions** — processes leaving, gradually removed from views,
//! 4. **subscriptions** — processes joining or circulating, used to update
//!    views.
//!
//! This crate is the *sans-IO* core: [`Lpbcast`] is a deterministic state
//! machine that consumes [`Message`]s and clock ticks, and produces
//! [`Output`]s (the workspace-wide unified envelope: messages to send,
//! delivered events, membership notifications). Drivers live
//! elsewhere: `lpbcast-sim` runs thousands of these state machines in
//! synchronous rounds (the paper's §5.1 simulation), `lpbcast-net` runs one
//! per UDP socket (the paper's §5.2 measurements).
//!
//! # Quick start
//!
//! ```
//! use lpbcast_core::{Config, Lpbcast, Message};
//! use lpbcast_types::ProcessId;
//!
//! let config = Config::builder().view_size(4).fanout(2).build();
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//!
//! let mut a = Lpbcast::with_initial_view(p0, config.clone(), 7, [p1]);
//! let mut b = Lpbcast::with_initial_view(p1, config, 8, [p0]);
//!
//! // p0 broadcasts; its next gossip carries the notification.
//! a.broadcast(b"hello".as_ref());
//! let out = a.tick();
//! let (_, gossip) = out
//!     .outgoing
//!     .iter()
//!     .find(|(to, _)| *to == p1)
//!     .expect("p1 is p0's only view member")
//!     .clone();
//!
//! // p1 receives the gossip and delivers the event (phase 3).
//! let received = b.handle_message(p0, gossip);
//! assert_eq!(received.delivered.len(), 1);
//! assert_eq!(received.delivered[0].payload().as_ref(), b"hello");
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod archive;
mod config;
mod history;
mod join;
mod message;
mod process;
mod stats;
mod time;
mod unsub;

pub use archive::EventArchive;
pub use config::{Config, ConfigBuilder, HistoryMode};
pub use history::EventHistory;
pub use join::JoinState;
pub use lpbcast_types::{MembershipEvent, Protocol};
pub use message::{Digest, Gossip, Message, Output};
pub use process::Lpbcast;
pub use stats::ProcessStats;
pub use time::LogicalTime;
pub use unsub::{UnsubDigest, UnsubscribeRefused, Unsubscription};
