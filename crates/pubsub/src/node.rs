//! A multi-topic participant: one lpbcast instance per subscribed topic.

use std::collections::BTreeMap;

use lpbcast_core::{Config, Lpbcast, Message, Output, UnsubscribeRefused};
use lpbcast_types::{Event, EventId, MembershipEvent, Payload, ProcessId, Protocol};

use crate::topic::TopicId;

/// A wire message tagged with its topic, so one transport can carry many
/// groups.
#[derive(Debug, Clone)]
pub struct PubSubMessage {
    /// The topic (gossip group) this message belongs to.
    pub topic: TopicId,
    /// The lpbcast protocol message.
    pub inner: Message,
}

/// Result of one pub/sub step: the topic-tagged view of the unified
/// envelope (the [`Protocol`] impl speaks the untagged
/// [`lpbcast_types::Output`] instead; this richer shape keeps the topic
/// attribution the multiplexer alone can provide).
#[derive(Debug, Clone, Default)]
pub struct PubSubOutput {
    /// Delivered notifications with their topic.
    pub deliveries: Vec<(TopicId, Event)>,
    /// Ids learnt from digests (§5.2 convention), with their topic.
    pub learned: Vec<(TopicId, EventId)>,
    /// Messages to send: `(destination, message)`.
    pub commands: Vec<(ProcessId, PubSubMessage)>,
    /// Per-topic membership changes applied during the step.
    pub membership: Vec<(TopicId, MembershipEvent)>,
}

impl PubSubOutput {
    fn absorb(&mut self, topic: &TopicId, output: Output) {
        for event in output.delivered {
            self.deliveries.push((topic.clone(), event));
        }
        for id in output.learned_ids {
            self.learned.push((topic.clone(), id));
        }
        for (to, message) in output.outgoing {
            self.commands.push((
                to,
                PubSubMessage {
                    topic: topic.clone(),
                    inner: message,
                },
            ));
        }
        for event in output.membership {
            self.membership.push((topic.clone(), event));
        }
    }

    /// Drops the topic tags, yielding the unified envelope.
    fn into_untagged(self) -> lpbcast_types::Output<PubSubMessage> {
        lpbcast_types::Output {
            delivered: self.deliveries.into_iter().map(|(_, e)| e).collect(),
            learned_ids: self.learned.into_iter().map(|(_, id)| id).collect(),
            outgoing: self.commands,
            membership: self.membership.into_iter().map(|(_, m)| m).collect(),
        }
    }
}

/// A process participating in any number of topics.
///
/// Each subscribed topic runs an independent [`Lpbcast`] state machine
/// (the paper's one-group-per-topic model, §3.1); this wrapper multiplexes
/// ticks and messages across them.
#[derive(Debug)]
pub struct PubSubNode {
    id: ProcessId,
    config: Config,
    seed: u64,
    groups: BTreeMap<TopicId, Lpbcast>,
}

impl PubSubNode {
    /// Creates a node subscribed to nothing yet.
    pub fn new(id: ProcessId, config: Config, seed: u64) -> Self {
        PubSubNode {
            id,
            config,
            seed,
            groups: BTreeMap::new(),
        }
    }

    /// This node's process id (shared across all topics).
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Topics currently subscribed (including pending §3.4 joins).
    pub fn topics(&self) -> impl Iterator<Item = &TopicId> {
        self.groups.keys()
    }

    /// Whether the node participates in `topic`.
    pub fn is_subscribed(&self, topic: &TopicId) -> bool {
        self.groups.contains_key(topic)
    }

    /// The protocol instance for `topic`, if subscribed (for inspection).
    pub fn group(&self, topic: &TopicId) -> Option<&Lpbcast> {
        self.groups.get(topic)
    }

    /// Per-topic deterministic seed: distinct topics must not share
    /// randomness.
    fn topic_seed(&self, topic: &TopicId) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = lpbcast_types::hashing::FastHasher::default();
        topic.name().hash(&mut hasher);
        self.seed ^ hasher.finish()
    }

    /// Subscribes as a bootstrap member whose view starts as
    /// `initial_view` (deployment-time topics). Re-subscribing to an
    /// existing topic is a no-op.
    pub fn subscribe_bootstrap(
        &mut self,
        topic: &TopicId,
        initial_view: impl IntoIterator<Item = ProcessId>,
    ) {
        if self.groups.contains_key(topic) {
            return;
        }
        let machine = Lpbcast::with_initial_view(
            self.id,
            self.config.clone(),
            self.topic_seed(topic),
            initial_view,
        );
        self.groups.insert(topic.clone(), machine);
    }

    /// Subscribes through the §3.4 handshake: `contacts` must already be
    /// in the topic. The join request rides the next [`tick`].
    ///
    /// [`tick`]: PubSubNode::tick
    pub fn subscribe_via(&mut self, topic: &TopicId, contacts: Vec<ProcessId>) {
        if self.groups.contains_key(topic) {
            return;
        }
        let machine = Lpbcast::joining(
            self.id,
            self.config.clone(),
            self.topic_seed(topic),
            contacts,
        );
        self.groups.insert(topic.clone(), machine);
    }

    /// Starts leaving `topic` (§3.4 timestamped unsubscription). The node
    /// keeps gossiping the topic until [`complete_unsubscribe`] so the
    /// record spreads ("lame duck" phase).
    ///
    /// # Errors
    ///
    /// [`UnsubscribeRefused`] while the topic's `unSubs` buffer is too
    /// full; `Ok(false)` if not subscribed at all.
    ///
    /// [`complete_unsubscribe`]: PubSubNode::complete_unsubscribe
    pub fn unsubscribe(&mut self, topic: &TopicId) -> Result<bool, UnsubscribeRefused> {
        match self.groups.get_mut(topic) {
            None => Ok(false),
            Some(group) => {
                group.unsubscribe()?;
                Ok(true)
            }
        }
    }

    /// Drops a topic the node has been lame-ducking since
    /// [`unsubscribe`](PubSubNode::unsubscribe). Returns whether it was
    /// present.
    pub fn complete_unsubscribe(&mut self, topic: &TopicId) -> bool {
        match self.groups.get(topic) {
            Some(group) if group.is_leaving() => {
                self.groups.remove(topic);
                true
            }
            _ => false,
        }
    }

    /// Publishes on a subscribed topic; `None` if not subscribed (a
    /// pub/sub node cannot publish into a group it is not a member of).
    pub fn publish(&mut self, topic: &TopicId, payload: impl Into<Payload>) -> Option<EventId> {
        self.groups.get_mut(topic).map(|g| g.broadcast(payload))
    }

    /// One gossip period across all subscribed topics.
    pub fn tick(&mut self) -> PubSubOutput {
        let mut out = PubSubOutput::default();
        for (topic, group) in &mut self.groups {
            let output = group.tick();
            out.absorb(topic, output);
        }
        out
    }

    /// Routes an incoming message to its topic's instance. Messages for
    /// unsubscribed topics are dropped (stale traffic after leaving).
    pub fn handle_message(&mut self, from: ProcessId, message: PubSubMessage) -> PubSubOutput {
        let mut out = PubSubOutput::default();
        if let Some(group) = self.groups.get_mut(&message.topic) {
            let output = group.handle_message(from, message.inner);
            out.absorb(&message.topic, output);
        }
        out
    }
}

/// The workspace-wide sans-IO lifecycle ([`Protocol`]) over the topic
/// multiplexer: one tick drives every subscribed topic's group, incoming
/// messages are routed by their topic tag, and `broadcast` publishes on
/// the node's first subscribed topic (topics iterate in [`TopicId`]
/// order, so the choice is deterministic).
///
/// # The mapping is lossy — on the envelope, not the wire
///
/// Outgoing messages keep their topic (each `(dest, PubSubMessage)` pair
/// carries its [`TopicId`], and the wire codec frames it — nothing a
/// transport needs is lost). What the untagged envelope *does* drop is
/// the topic attribution of `delivered` / `learned_ids` / `membership`
/// entries: events from different topics arrive interleaved in one flat
/// sequence (same events, same order — exactly the inherent API's output
/// minus the tags, pinned by `protocol_envelope_drops_only_the_topic_tags`).
/// Multi-topic applications that need per-topic delivery streams must
/// drive the inherent [`tick`](PubSubNode::tick) /
/// [`handle_message`](PubSubNode::handle_message), which return the
/// topic-tagged [`PubSubOutput`]; the `Protocol` impl exists for generic
/// drivers (engine, conformance suite, UDP runtime) where the tag either
/// rides the message or does not matter.
///
/// # Panics
///
/// [`Protocol::broadcast`] panics if the node is subscribed to no topic
/// (a pub/sub process cannot publish into a group it is not a member
/// of).
impl Protocol for PubSubNode {
    type Msg = PubSubMessage;

    fn id(&self) -> ProcessId {
        PubSubNode::id(self)
    }

    fn tick(&mut self) -> lpbcast_types::Output<PubSubMessage> {
        PubSubNode::tick(self).into_untagged()
    }

    fn handle_message(
        &mut self,
        from: ProcessId,
        msg: PubSubMessage,
    ) -> lpbcast_types::Output<PubSubMessage> {
        PubSubNode::handle_message(self, from, msg).into_untagged()
    }

    fn broadcast(&mut self, payload: Payload) -> (EventId, lpbcast_types::Output<PubSubMessage>) {
        let topic = self
            .groups
            .keys()
            .next()
            .cloned()
            .expect("Protocol::broadcast requires at least one subscribed topic");
        let id = self
            .publish(&topic, payload)
            .expect("topic taken from the subscription map");
        (id, lpbcast_types::Output::new())
    }

    fn view_members(&self) -> Vec<ProcessId> {
        use lpbcast_membership::View as _;
        let mut members: Vec<ProcessId> = self
            .groups
            .values()
            .flat_map(|g| g.view().members())
            .collect();
        members.sort_unstable();
        members.dedup();
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn config() -> Config {
        Config::builder().view_size(4).fanout(2).build()
    }

    fn topic(name: &str) -> TopicId {
        TopicId::new(name)
    }

    #[test]
    fn publish_requires_subscription() {
        let mut node = PubSubNode::new(pid(0), config(), 1);
        assert!(node.publish(&topic("t"), b"x".as_ref()).is_none());
        node.subscribe_bootstrap(&topic("t"), [pid(1)]);
        assert!(node.publish(&topic("t"), b"x".as_ref()).is_some());
    }

    #[test]
    fn topics_are_isolated_groups() {
        let ta = topic("a");
        let tb = topic("b");
        let mut x = PubSubNode::new(pid(0), config(), 1);
        let mut y = PubSubNode::new(pid(1), config(), 2);
        // Both in topic a; only x in topic b.
        x.subscribe_bootstrap(&ta, [pid(1)]);
        y.subscribe_bootstrap(&ta, [pid(0)]);
        x.subscribe_bootstrap(&tb, [pid(1)]);

        x.publish(&ta, b"on-a".as_ref()).unwrap();
        x.publish(&tb, b"on-b".as_ref()).unwrap();
        let out = x.tick();
        let mut deliveries = Vec::new();
        for (to, message) in out.commands {
            if to == pid(1) {
                deliveries.extend(y.handle_message(pid(0), message).deliveries);
            }
        }
        // y is not in topic b: only the topic-a event arrives.
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, ta);
        assert_eq!(deliveries[0].1.payload().as_ref(), b"on-a");
    }

    #[test]
    fn distinct_topics_use_distinct_randomness() {
        let node = PubSubNode::new(pid(0), config(), 7);
        assert_ne!(
            node.topic_seed(&topic("a")),
            node.topic_seed(&topic("b")),
            "topic seeds must differ"
        );
    }

    #[test]
    fn subscribe_via_emits_join_request() {
        let mut node = PubSubNode::new(pid(5), config(), 3);
        node.subscribe_via(&topic("t"), vec![pid(1)]);
        assert!(node.is_subscribed(&topic("t")));
        let out = node.tick();
        let join = out
            .commands
            .iter()
            .find(|(_, m)| matches!(m.inner, Message::Subscribe { .. }))
            .expect("join request emitted");
        assert_eq!(join.0, pid(1));
        assert_eq!(join.1.topic, topic("t"));
    }

    #[test]
    fn unsubscribe_lifecycle() {
        let t = topic("t");
        let mut node = PubSubNode::new(pid(0), config(), 1);
        assert_eq!(node.unsubscribe(&t), Ok(false), "not subscribed yet");
        node.subscribe_bootstrap(&t, [pid(1)]);
        assert_eq!(node.unsubscribe(&t), Ok(true));
        assert!(node.is_subscribed(&t), "lame duck keeps the group");
        // The lame-duck gossip carries the unsubscription record.
        let out = node.tick();
        let carries_unsub = out.commands.iter().any(|(_, m)| match &m.inner {
            Message::Gossip(g) => g.unsubs.iter().any(|u| u.process() == pid(0)),
            _ => false,
        });
        assert!(carries_unsub);
        assert!(node.complete_unsubscribe(&t));
        assert!(!node.is_subscribed(&t));
        assert!(!node.complete_unsubscribe(&t), "already gone");
    }

    #[test]
    fn complete_unsubscribe_requires_prior_unsubscribe() {
        let t = topic("t");
        let mut node = PubSubNode::new(pid(0), config(), 1);
        node.subscribe_bootstrap(&t, [pid(1)]);
        assert!(
            !node.complete_unsubscribe(&t),
            "cannot drop a topic that is not leaving"
        );
        assert!(node.is_subscribed(&t));
    }

    #[test]
    fn messages_for_unknown_topics_are_dropped() {
        let mut node = PubSubNode::new(pid(0), config(), 1);
        let message = PubSubMessage {
            topic: topic("ghost"),
            inner: Message::Subscribe { subscriber: pid(9) },
        };
        let out = node.handle_message(pid(9), message);
        assert!(out.deliveries.is_empty() && out.commands.is_empty());
    }

    #[test]
    fn pubsub_fanout_shares_gossip_allocation() {
        use std::sync::Arc;
        let t = topic("t");
        let mut node = PubSubNode::new(pid(0), Config::builder().view_size(8).fanout(3).build(), 1);
        node.subscribe_bootstrap(&t, (1..=6).map(pid));
        let out = node.tick();
        let arcs: Vec<_> = out
            .commands
            .iter()
            .filter_map(|(_, m)| match &m.inner {
                Message::Gossip(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(arcs.len(), 3, "one copy per fanout target");
        assert!(
            arcs.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])),
            "the topic's fanout copies share one gossip body"
        );
    }

    /// The documented contract of the `Protocol` impl: the untagged
    /// envelope carries exactly the inherent API's events in exactly its
    /// order — the ONLY loss is the topic attribution of deliveries —
    /// while outgoing messages keep their topic tags end to end.
    #[test]
    fn protocol_envelope_drops_only_the_topic_tags() {
        let ta = topic("a");
        let tb = topic("b");
        let mk_receiver = || {
            let mut y = PubSubNode::new(pid(1), config(), 2);
            y.subscribe_bootstrap(&ta, [pid(0)]);
            y.subscribe_bootstrap(&tb, [pid(0)]);
            y
        };
        let mut x = PubSubNode::new(pid(0), config(), 1);
        x.subscribe_bootstrap(&ta, [pid(1)]);
        x.subscribe_bootstrap(&tb, [pid(1)]);
        x.publish(&ta, b"on-a".as_ref()).unwrap();
        x.publish(&tb, b"on-b".as_ref()).unwrap();
        let out = x.tick();

        // Same-seed receivers, one driven through each API.
        let mut tagged_node = mk_receiver();
        let mut untagged_node = mk_receiver();
        let mut tagged = Vec::new();
        let mut untagged = Vec::new();
        for (to, message) in &out.commands {
            if *to == pid(1) {
                tagged.extend(
                    tagged_node
                        .handle_message(pid(0), message.clone())
                        .deliveries,
                );
                untagged.extend(
                    Protocol::handle_message(&mut untagged_node, pid(0), message.clone()).delivered,
                );
            }
        }
        assert_eq!(tagged.len(), 2, "one delivery per topic");
        assert_eq!(
            tagged.iter().map(|(_, e)| e.id()).collect::<Vec<_>>(),
            untagged.iter().map(|e| e.id()).collect::<Vec<_>>(),
            "same events, same order — only the TopicId tag is dropped"
        );
        assert!(
            tagged.iter().any(|(t, _)| *t == ta) && tagged.iter().any(|(t, _)| *t == tb),
            "the inherent API alone retains the attribution"
        );
        // Outgoing traffic through the Protocol impl still carries its
        // topic on every message — the wire loses nothing.
        let proto_out = Protocol::tick(&mut untagged_node);
        assert!(!proto_out.outgoing.is_empty());
        assert!(proto_out
            .outgoing
            .iter()
            .all(|(_, m)| m.topic == ta || m.topic == tb));
    }

    #[test]
    fn resubscribing_is_a_noop() {
        let t = topic("t");
        let mut node = PubSubNode::new(pid(0), config(), 1);
        node.subscribe_bootstrap(&t, [pid(1)]);
        node.publish(&t, b"x".as_ref()).unwrap();
        // A second subscribe must not reset the group state.
        node.subscribe_bootstrap(&t, [pid(2)]);
        node.subscribe_via(&t, vec![pid(3)]);
        assert_eq!(node.group(&t).unwrap().stats().events_published, 1);
    }
}
