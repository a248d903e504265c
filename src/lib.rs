//! # lpbcast — Lightweight Probabilistic Broadcast
//!
//! A complete Rust reproduction of *Lightweight Probabilistic Broadcast*
//! (Eugster, Guerraoui, Handurukande, Kermarrec, Kouznetsov — IEEE DSN
//! 2001): a gossip-based broadcast algorithm whose membership management
//! is itself gossip-based, fully decentralized, and bounded to a
//! fixed-size partial view per process.
//!
//! The workspace is organized around one abstraction: the sans-IO
//! [`Protocol`](types::Protocol) trait. Every broadcast stack — lpbcast,
//! the Bimodal Multicast baseline, either one under the SWIM failure
//! detector — is a deterministic state machine consuming messages and clock ticks and
//! producing one unified [`Output`](types::Output) envelope (outbound
//! `(destination, message)` batches sharing `Arc`'d gossip bodies,
//! delivered events, membership notifications). All drivers are generic
//! over it:
//!
//! | driver | generic form | runs |
//! |--------|--------------|------|
//! | simulation engine | [`sim::Engine<P>`](sim::Engine) | synchronous §5.1 rounds for any protocol |
//! | scenario driver | [`sim::scenario`] (`ScenarioProtocol`) | eight generators (churn, catastrophe, partition, …, the SWIM detector A/B) as timelines, every stack side by side |
//! | UDP runtime | [`net::Cluster<P>`](net::Cluster) | one to thousands of instances per process over nonblocking sockets, one datagram per remote socket per loop phase |
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`types`] | `lpbcast-types` | ids, events, bounded buffers, digests, the [`Protocol`](types::Protocol) trait |
//! | [`core`] | `lpbcast-core` | the lpbcast state machine (Figure 1), sans-IO |
//! | [`membership`] | `lpbcast-membership` | partial views, weighted views, view-graph analytics |
//! | [`analysis`] | `lpbcast-analysis` | the paper's Markov-chain & partition models |
//! | [`pbcast`] | `lpbcast-pbcast` | the Bimodal Multicast baseline |
//! | [`sim`] | `lpbcast-sim` | the synchronous-round simulator |
//! | [`net`] | `lpbcast-net` | the UDP runtime + wire codec |
//!
//! ## Quick start: one generic driver, two protocols
//!
//! The same function disseminates a broadcast through lpbcast *and*
//! pbcast — protocols differ in construction, never in driving:
//!
//! ```
//! use lpbcast::core::{Config, Lpbcast};
//! use lpbcast::pbcast::{Membership, Pbcast, PbcastConfig};
//! use lpbcast::types::{Payload, ProcessId, Protocol};
//!
//! /// Publishes from `a` and pushes one gossip round into `b`.
//! fn one_round<P: Protocol>(a: &mut P, b: &mut P) -> usize {
//!     let (_id, publish) = a.broadcast(Payload::from_static(b"hi"));
//!     let mut delivered = 0;
//!     for (to, msg) in publish.outgoing.into_iter().chain(a.tick().outgoing) {
//!         if to == b.id() {
//!             delivered += b.handle_message(a.id(), msg).delivered.len();
//!         }
//!     }
//!     delivered
//! }
//!
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//!
//! let config = Config::builder().view_size(4).fanout(2).build();
//! let mut a = Lpbcast::with_initial_view(p0, config.clone(), 7, [p1]);
//! let mut b = Lpbcast::with_initial_view(p1, config, 8, [p0]);
//! assert_eq!(one_round(&mut a, &mut b), 1, "lpbcast delivers");
//!
//! let config = PbcastConfig::builder().fanout(1).build();
//! let mut a = Pbcast::new(p0, config.clone(), 1, Membership::total(p0, [p1]));
//! let mut b = Pbcast::new(p1, config, 2, Membership::total(p1, [p0]));
//! assert_eq!(one_round(&mut a, &mut b), 1, "pbcast delivers through the same driver");
//! ```
//!
//! ## Quick start (simulated cluster)
//!
//! ```
//! use lpbcast::sim::experiment::{
//!     infection_curve, LpbcastSimParams, PbcastMembershipKind, PbcastSimParams, SimParams,
//!     Sweep,
//! };
//! use lpbcast::types::ProcessId;
//!
//! let params = LpbcastSimParams::paper_defaults(64).rounds(10);
//! let mut engine = params.build_engine(42);
//! let id = engine.publish_from(ProcessId::new(0), "hello".into());
//! engine.run(10);
//! assert!(engine.tracker().infected_count(id) > 60);
//!
//! // The paper's side-by-side measurements: one generic sweep, handed
//! // either stack's parameters, over the same seeds.
//! let pbcast = PbcastSimParams::figure7_defaults(64, PbcastMembershipKind::Total).rounds(10);
//! let lp_curve = infection_curve(Sweep::Pool, &params, &[1, 2, 3]);
//! let pb_curve = infection_curve(Sweep::Pool, &pbcast, &[1, 2, 3]);
//! assert!(lp_curve[10] > 60.0 && pb_curve[10] > 55.0);
//! ```
//!
//! `pbcast.build_engine(42)` yields the same `Engine` driving `Pbcast`,
//! booted through the same `sim::Bootstrap` (same views, loss stream and
//! crash plan for a seed); the scenario matrix (`sim::run_scenario_spec`, `proto=pbcast;…`) and the UDP
//! example (`LPBCAST_UDP_PROTOCOL=pbcast cargo run --example
//! udp_cluster`) select protocols the same way.
//!
//! ## Quick start (real UDP sockets)
//!
//! See `examples/udp_cluster.rs` — the same state machines behind
//! [`net::Cluster<P>`](net::Cluster), here one single-instance cluster
//! (one socket) per process, non-synchronized gossip timers,
//! one datagram per peer per loop phase. `scripts/cluster_harness.py` runs
//! the same runtime with hundreds of instances per OS process.

#![warn(missing_docs)]

pub use lpbcast_analysis as analysis;
pub use lpbcast_core as core;
pub use lpbcast_membership as membership;
pub use lpbcast_net as net;
pub use lpbcast_pbcast as pbcast;
pub use lpbcast_sim as sim;
pub use lpbcast_types as types;
