//! Topic-based publish/subscribe over lpbcast.
//!
//! The paper was written as the broadcast substrate of a topic-based
//! publish/subscribe system (§1, §3.1: *"Though our algorithm has been
//! implemented in the context of topic-based publish/subscribe, we
//! present it with respect to a single topic \[...\] Π can be considered
//! as a single topic or group, and joining/leaving Π can be viewed as
//! subscribing/unsubscribing from the topic"*).
//!
//! This crate implements exactly that model: **one lpbcast group per
//! topic**. A [`PubSubNode`] runs one protocol instance per subscribed
//! topic; every wire message is tagged with its [`TopicId`] and routed to
//! the right instance. Subscribing to a new topic uses the §3.4 join
//! handshake against a contact already in the topic; unsubscribing uses
//! the timestamped-unsubscription mechanism.
//!
//! # Example
//!
//! ```
//! use lpbcast_core::Config;
//! use lpbcast_pubsub::{PubSubNode, TopicId};
//! use lpbcast_types::ProcessId;
//!
//! let config = Config::builder().view_size(4).fanout(2).build();
//! let prices = TopicId::new("prices");
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//!
//! let mut a = PubSubNode::new(p0, config.clone(), 1);
//! let mut b = PubSubNode::new(p1, config, 2);
//! a.subscribe_bootstrap(&prices, [p1]);
//! b.subscribe_bootstrap(&prices, [p0]);
//!
//! a.publish(&prices, b"AAPL 191.20".as_ref()).expect("subscribed");
//! let out = a.tick();
//! let (to, message) = out.commands.into_iter().next().expect("gossip");
//! assert_eq!(to, p1);
//! let received = b.handle_message(p0, message);
//! assert_eq!(received.deliveries.len(), 1);
//! assert_eq!(received.deliveries[0].0, prices);
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod node;
mod topic;

pub use cluster::PubSubCluster;
pub use node::{PubSubMessage, PubSubNode, PubSubOutput};
pub use topic::TopicId;
