//! Networked lpbcast: the paper's deployment model (§5.2 ran 125
//! processes across two LANs), reproduced as one UDP socket per process on
//! any set of hosts.
//!
//! The crate adds exactly two things on top of the sans-IO
//! [`Protocol`](lpbcast_types::Protocol) state machines:
//!
//! * a compact hand-rolled binary **wire codec** ([`wire`]) behind the
//!   [`WireMessage`] trait (lpbcast, pbcast and SWIM messages in-tree)
//!   — length-checked, fuzz/property tested, no serialization framework;
//! * one **UDP runtime** ([`Cluster<P>`](Cluster)), generic over any
//!   `Protocol` whose messages implement [`WireMessage`]: one to
//!   thousands of protocol instances multiplexed over a handful of
//!   nonblocking sockets in one caller-driven loop — a
//!   [`TimerWheel`](timer::TimerWheel) fires each instance's gossip
//!   every `T` (non-synchronized, exactly as §3.2 prescribes),
//!   readiness polling ([`poll::UdpPoller`], epoll with a portable
//!   `poll(2)` fallback via the vendored `polling` crate) drains the
//!   sockets into the state machines, and egress leaves as one datagram
//!   per remote socket per loop phase — one `send_to` for every frame
//!   any hosted instance sends there, with `Arc`-shared gossip bodies
//!   encoded once. The paper's
//!   one-process-per-machine layout is a cluster with one instance on
//!   one socket (`examples/udp_cluster.rs`); the multi-process
//!   deployment harness (`scripts/cluster_harness.py` + the
//!   `net_harness` bin) hosts hundreds per process and drives partitions
//!   and link faults through the ingress drop filter and the egress
//!   [`LinkFate`] hook.
//!
//! UDP is a faithful transport here: gossip protocols *assume* lossy
//! fire-and-forget messaging (the ε of the analysis), so no reliability
//! layer is wanted.
//!
//! # Example
//!
//! ```no_run
//! use lpbcast_core::{Config, Lpbcast};
//! use lpbcast_net::{Cluster, ClusterBuilder};
//! use lpbcast_types::ProcessId;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), lpbcast_net::NetError> {
//! let config = Config::builder().view_size(4).fanout(2).build();
//! let (me, peer) = (ProcessId::new(0), ProcessId::new(1));
//! let mut node: Cluster<Lpbcast> = ClusterBuilder::new(Duration::from_millis(50)).build()?;
//! node.add_instance(Lpbcast::with_initial_view(me, config, 7, vec![peer]))?;
//! // The testbed configuration says where every other process listens.
//! node.register_peer(peer, "10.0.0.2:7000".parse().expect("address"));
//! node.broadcast(me, b"hello".as_ref());
//! loop {
//!     node.step(Duration::from_millis(10))?;
//!     for (at, event) in node.take_deliveries() {
//!         println!("{at} delivered {event}");
//!     }
//! }
//! # }
//! ```

#![warn(missing_docs, missing_debug_implementations)]
// D5 (LINTS.md): a panic in the receive loop silently kills a node
// mid-experiment; the runtime path degrades (drops the datagram, returns
// the error) instead. Test code is exempt through `clippy.toml`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod book;
mod cluster;
mod error;
pub mod poll;
pub mod timer;
pub mod wire;

pub use book::AddressBook;
pub use cluster::{Cluster, ClusterBuilder, ClusterStats, LinkFate};
pub use error::NetError;
pub use timer::TimerWheel;
pub use wire::{wire_meter, WireMessage};
