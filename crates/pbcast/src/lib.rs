//! Bimodal Multicast (*pbcast*, Birman et al. 1999) — the baseline the
//! lpbcast paper compares against in §6.2 / Figure 7.
//!
//! pbcast works in two phases (§2.3 of the lpbcast paper):
//!
//! 1. an optional **best-effort multicast** (e.g. IP multicast) roughly
//!    disseminates the message;
//! 2. an **anti-entropy** phase repairs: every process periodically gossips
//!    a *digest* of the messages it has received to `F` random targets, and
//!    receivers *solicit* (gossip pull) messages they are missing.
//!
//! The differences from lpbcast that §6.2 emphasises — and that this
//! implementation makes explicit — are that pbcast **limits hops** and
//! **limits repetitions** of each message, and keeps dissemination
//! (payload) separate from digests.
//!
//! Membership is pluggable ([`Membership`]): either the traditional
//! **total view**, or the lpbcast **partial-view membership layer**
//! (§6.2: *"It could thus be encapsulated as a membership layer, on top of
//! which many gossip-based algorithms, like pbcast, could be deployed. It
//! would act by adding membership information to gossip messages"*) — when
//! partial, every digest gossip piggybacks subscriptions exactly like an
//! lpbcast gossip does.
//!
//! # Example
//!
//! ```
//! use lpbcast_pbcast::{Membership, Pbcast, PbcastConfig, PbcastMessage};
//! use lpbcast_types::ProcessId;
//!
//! let config = PbcastConfig::builder().fanout(2).first_phase(false).build();
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//! let mut a = Pbcast::new(p0, config.clone(), 1, Membership::total(p0, [p1]));
//! let mut b = Pbcast::new(p1, config, 2, Membership::total(p1, [p0]));
//!
//! // a publishes; its digest offers the id; b solicits; a serves.
//! let (_id, _publish) = a.publish(b"tick".as_ref());
//! let digests = a.tick().outgoing;
//! let out = b.handle_message(p0, digests[0].1.clone());
//! let solicit = out.outgoing.into_iter().next().expect("pull");
//! let served = a.handle_message(p1, solicit.1);
//! let payload = served.outgoing.into_iter().next().expect("payload");
//! let got = b.handle_message(p0, payload.1);
//! assert_eq!(got.delivered.len(), 1);
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod membership;
mod message;
mod process;

pub use config::{PbcastConfig, PbcastConfigBuilder};
pub use lpbcast_types::{MembershipEvent, Protocol};
pub use membership::Membership;
pub use message::{DigestEntry, GossipDigest, OriginRange, PbcastMessage, PbcastOutput};
pub use process::{Pbcast, PbcastStats};
