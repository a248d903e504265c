//! End-to-end tests of the UDP runtime on localhost: real sockets, real
//! (non-synchronized) gossip timers, the same state machine as the
//! simulator. Every process is a single-instance [`Cluster`] on its own
//! socket — the paper's §5.2 layout — so each message crosses a socket,
//! and one thread steps them all round-robin.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use lpbcast_core::{Config, Lpbcast, Message};
use lpbcast_net::{wire, Cluster, ClusterBuilder, WireMessage};
use lpbcast_types::{EventId, ProcessId, Protocol};

type Node = Cluster<Lpbcast>;

const PERIOD: Duration = Duration::from_millis(15);

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

fn config() -> Config {
    Config::builder()
        .view_size(8)
        .fanout(3)
        .event_ids_max(256)
        .events_max(256)
        .build()
}

/// One process: a cluster hosting just `machine`, on one socket.
fn node(machine: Lpbcast, period: Duration) -> Node {
    let mut node = ClusterBuilder::new(period).build().expect("bind");
    node.add_instance(machine).expect("add instance");
    node
}

fn id_of(node: &Node) -> ProcessId {
    node.instance_ids()[0]
}

fn state<R>(node: &Node, f: impl FnOnce(&Lpbcast) -> R) -> R {
    node.with_instance(id_of(node), f).expect("hosted")
}

/// Tells every node where every other node listens.
fn introduce(nodes: &[Node]) {
    for there in nodes {
        let id = id_of(there);
        let addr = there.address_book().lookup(id).expect("self-registered");
        for here in nodes {
            here.register_peer(id, addr);
        }
    }
}

/// An all-knowing mesh of `n` nodes.
fn mesh(n: u64) -> Vec<Node> {
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            let members: Vec<ProcessId> = (0..n).filter(|&j| j != i).map(pid).collect();
            let machine = Lpbcast::with_initial_view(pid(i), config(), 1000 + i, members);
            node(machine, PERIOD)
        })
        .collect();
    introduce(&nodes);
    nodes
}

/// Steps every node round-robin until `done` holds or `timeout` passes.
#[expect(
    clippy::disallowed_methods,
    reason = "D2 waiver: loopback tests bound their waits by the wall clock"
)]
fn run_until(
    nodes: &mut [Node],
    timeout: Duration,
    mut done: impl FnMut(&mut [Node]) -> bool,
) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        for node in nodes.iter_mut() {
            node.step(Duration::ZERO).expect("step");
        }
        if done(nodes) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn run_for(nodes: &mut [Node], span: Duration) {
    run_until(nodes, span, |_| false);
}

#[test]
fn broadcast_reaches_every_node() {
    let mut nodes = mesh(6);
    let id = nodes[0]
        .broadcast(pid(0), b"hello cluster".as_ref())
        .expect("hosted");

    // Every *other* node must deliver exactly that event.
    let mut received: Vec<Option<EventId>> = vec![None; nodes.len()];
    received[0] = Some(id); // publisher delivers at publish time
    let ok = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        for (i, node) in nodes.iter_mut().enumerate().skip(1) {
            for (_, event) in node.take_deliveries() {
                if event.payload().as_ref() == b"hello cluster" {
                    received[i] = Some(event.id());
                }
            }
        }
        received.iter().all(Option::is_some)
    });
    assert!(ok, "delivery status: {received:?}");
    assert!(received.iter().all(|r| *r == Some(id)));
}

#[test]
fn join_handshake_over_udp() {
    let mut nodes = mesh(4);
    // A newcomer joins through node 0.
    const NEWCOMER: usize = 4;
    nodes.push(node(
        Lpbcast::joining(pid(99), config(), 7, vec![pid(0)]),
        PERIOD,
    ));
    introduce(&nodes);
    assert!(state(&nodes[NEWCOMER], Lpbcast::is_joining));

    // The join completes once gossip starts flowing to the newcomer.
    let ok = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        !state(&nodes[NEWCOMER], Lpbcast::is_joining)
    });
    assert!(ok, "newcomer never received gossip");

    // And the newcomer then receives broadcasts.
    nodes[1]
        .broadcast(pid(1), b"post-join".as_ref())
        .expect("hosted");
    let ok = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        nodes[NEWCOMER]
            .take_deliveries()
            .iter()
            .any(|(_, e)| e.payload().as_ref() == b"post-join")
    });
    assert!(ok, "newcomer missed the broadcast");

    // The newcomer has spread into some views.
    let ok = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        nodes[..NEWCOMER]
            .iter()
            .any(|n| state(n, |m| m.view_members().contains(&pid(99))))
    });
    assert!(ok, "newcomer never entered any view");
}

#[test]
fn retransmission_recovers_lost_payload_over_udp() {
    // Two nodes with pull-based retransmission: B learns the id from A's
    // digest and pulls the payload, even though it missed the original
    // gossip (we simulate the miss by publishing before A knows B's
    // address — sends to an unregistered peer are dropped as loss).
    let config = Config::builder()
        .view_size(4)
        .fanout(2)
        .retransmit_request_max(8)
        .archive_capacity(64)
        .build();
    let a = Lpbcast::with_initial_view(pid(0), config.clone(), 5, vec![pid(1)]);
    let mut nodes = vec![node(a, PERIOD)];
    let id = nodes[0]
        .broadcast(pid(0), b"missed you".as_ref())
        .expect("hosted");
    // Give A time to gossip into the void: the payload leaves A's
    // `events` buffer but stays in its archive.
    run_for(&mut nodes, Duration::from_millis(120));
    assert!(state(&nodes[0], |m| m.stats().gossips_sent) > 0);

    let b = Lpbcast::with_initial_view(pid(1), config, 5, vec![pid(0)]);
    nodes.push(node(b, PERIOD));
    introduce(&nodes);
    let ok = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        nodes[1].take_deliveries().iter().any(|(_, e)| e.id() == id)
    });
    assert!(ok, "payload not recovered via gossip pull");
    let stats = state(&nodes[1], |m| *m.stats());
    assert!(stats.retransmit_requests_sent > 0, "pull actually used");
}

#[test]
fn unsubscribed_node_disappears_from_views() {
    let mut nodes = mesh(5);
    nodes[4]
        .with_instance_mut(pid(4), Lpbcast::unsubscribe)
        .expect("hosted")
        .expect("buffer below threshold");
    assert!(state(&nodes[4], Lpbcast::is_leaving));

    // Let the unsubscription circulate, then stop the leaver.
    run_for(&mut nodes, Duration::from_millis(200));
    nodes.pop();

    let ok = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        nodes
            .iter()
            .all(|n| !state(n, |m| m.view_members().contains(&pid(4))))
    });
    assert!(
        ok,
        "views still contain the leaver: {:?}",
        nodes
            .iter()
            .map(|n| state(n, Protocol::view_members))
            .collect::<Vec<_>>()
    );
}

#[test]
fn nodes_keep_gossiping_when_idle() {
    let mut nodes = mesh(3);
    run_for(&mut nodes, Duration::from_millis(300));
    // §3.3: gossip flows even with no notifications.
    for node in &nodes {
        let stats = state(node, |m| *m.stats());
        assert!(stats.gossips_sent > 3, "node too quiet: {stats:?}");
        assert!(stats.gossips_received > 3, "node heard nothing: {stats:?}");
    }
}

/// A gossip frame past UDP's 65 507-byte payload limit makes `send_to`
/// fail: the failure is counted, and smaller events still flow after it.
#[test]
fn oversized_gossip_counts_a_send_error_and_traffic_goes_on() {
    // Node 0's first gossip, replayed on an identical machine, sizes the
    // payload: the frame fits a section (`wire::MAX_SECTION`), the
    // datagram around it does not fit UDP.
    let mut probe = Lpbcast::with_initial_view(pid(0), config(), 1000, vec![pid(1)]);
    probe.broadcast(vec![0u8; 1]);
    let (_, gossip) = probe
        .tick()
        .outgoing
        .pop()
        .expect("a gossip to the only view member");
    // The payload's varint length grows from one byte to three.
    let frame_len = 65_510 + 2;
    let payload = vec![0u8; frame_len + 1 - gossip.encoded_len()];
    assert!(frame_len <= wire::MAX_SECTION);
    assert!(
        wire::CLUSTER_HEADER_LEN + wire::section_header_len(pid(0), pid(1), frame_len) + frame_len
            > 65_507
    );

    let mut nodes = mesh(2);
    nodes[0].broadcast(pid(0), payload).expect("hosted");
    let refused = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        nodes[0].stats().send_errors > 0
    });
    assert!(refused, "the oversized gossip was not counted");

    let id = nodes[0]
        .broadcast(pid(0), b"small".as_ref())
        .expect("hosted");
    let ok = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        nodes[1].take_deliveries().iter().any(|(_, e)| e.id() == id)
    });
    assert!(ok, "small events stopped flowing after the send error");
}

/// Hostile, truncated, misaddressed, envelope-less and foreign-version
/// datagrams at the socket of a single-instance cluster are counted and
/// dropped: no delivery, no protocol-state change, no reply, and the
/// instance still handles a valid datagram afterwards.
#[test]
fn hostile_ingress_is_counted_and_dropped() {
    const TARGET: usize = 0;
    // The target's period lies far beyond the test, so no tick moves its
    // protocol counters while the hostile datagrams are judged.
    let target = Lpbcast::with_initial_view(pid(0), config(), 1, vec![pid(1)]);
    let peer = Lpbcast::with_initial_view(pid(1), config(), 2, vec![pid(0)]);
    let mut nodes = vec![node(target, Duration::from_secs(600)), node(peer, PERIOD)];
    introduce(&nodes);
    let target_addr = nodes[TARGET].local_addrs()[0];

    // A gossip frame that *would* deliver an event if it were accepted,
    // produced by a throwaway state machine.
    let mut stranger = Lpbcast::with_initial_view(pid(7), config(), 3, vec![pid(0)]);
    stranger.broadcast(b"forged".as_ref());
    let (_, gossip): (_, Message) = stranger
        .tick()
        .outgoing
        .pop()
        .expect("a gossip to the only view member");
    let mut frame = BytesMut::new();
    wire::encode_frame(&gossip, &mut frame);
    // A cluster datagram of (dest, frames) sections from the stranger.
    let coalesced = |sections: &[(u64, &[u8])]| {
        let mut datagram = BytesMut::new();
        wire::encode_datagram_header(&mut datagram);
        for (dest, frames) in sections {
            wire::encode_section(&mut datagram, pid(7), pid(*dest), frames).expect("fits");
        }
        datagram.to_vec()
    };
    let whole = coalesced(&[(0, &frame)]);
    let torn = [&frame[..], &frame[..frame.len() / 2]].concat();
    // The section's length, one byte after the one-byte `from` and
    // `dest` varints, claims five bytes more than follow it.
    let header_len = wire::section_header_len(pid(7), pid(0), frame.len());
    assert_eq!(header_len, 3, "one-byte ids and length");
    let mut overlong = whole.clone();
    overlong[wire::CLUSTER_HEADER_LEN + 2] += 5;

    let mut hostile: Vec<(&str, Vec<u8>)> = vec![
        (
            "random bytes",
            (0..97u32).map(|i| (i * 151 + 13) as u8).collect(),
        ),
        ("empty datagram", Vec::new()),
        // The single-envelope datagram the runtime sent before
        // coalescing: magic, version 1, from, dest, frames.
        (
            "version-1 envelope",
            [
                &[wire::CLUSTER_MAGIC, 1][..],
                &7u64.to_le_bytes(),
                &0u64.to_le_bytes(),
                &frame,
            ]
            .concat(),
        ),
        // The coalescing envelope before varint section headers: magic,
        // version 2, then from, dest and a u16 length at fixed width.
        (
            "version-2 envelope",
            [
                &[wire::CLUSTER_MAGIC, 2][..],
                &7u64.to_le_bytes(),
                &0u64.to_le_bytes(),
                &(frame.len() as u16).to_le_bytes(),
                &frame,
            ]
            .concat(),
        ),
        ("section length past the datagram end", overlong),
        ("un-hosted-destination section", coalesced(&[(42, &frame)])),
        ("torn frame inside a section", coalesced(&[(0, &torn)])),
        // What a sole-instance socket accepted before the envelope
        // became mandatory.
        (
            "legacy plain frame batch",
            [&frame[..], &frame[..]].concat(),
        ),
    ];
    for len in 1..wire::CLUSTER_HEADER_LEN + header_len {
        hostile.push(("header cut short", whole[..len].to_vec()));
    }

    let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
    let before = state(&nodes[TARGET], |m| *m.stats());
    for (seen, (what, datagram)) in hostile.iter().enumerate() {
        sender.send_to(datagram, target_addr).expect("send");
        let counted = run_until(&mut nodes[..1], Duration::from_secs(5), |nodes| {
            nodes[TARGET].stats().datagrams_rx == seen as u64 + 1
        });
        assert!(counted, "{what} ({} B) not counted", datagram.len());
        assert!(nodes[TARGET].take_deliveries().is_empty(), "{what}");
        assert_eq!(state(&nodes[TARGET], |m| *m.stats()), before, "{what}");
    }
    assert_eq!(nodes[TARGET].stats().datagrams_tx, 0, "nothing answered");
    assert_eq!(nodes[TARGET].stats().ticks, 0, "the target never ticked");

    // Bad sections are skipped alone: the whole one behind them delivers.
    let mixed = coalesced(&[(42, &frame), (0, &torn), (0, &frame)]);
    sender.send_to(&mixed, target_addr).expect("send");
    let ok = run_until(&mut nodes[..1], Duration::from_secs(5), |nodes| {
        nodes[TARGET]
            .take_deliveries()
            .iter()
            .any(|(_, e)| e.payload().as_ref() == b"forged")
    });
    assert!(ok, "the whole section after two bad ones was not delivered");

    // Not wedged: a real broadcast from the peer still gets through.
    let id = nodes[1]
        .broadcast(pid(1), b"still here".as_ref())
        .expect("hosted");
    let ok = run_until(&mut nodes, Duration::from_secs(10), |nodes| {
        nodes[TARGET]
            .take_deliveries()
            .iter()
            .any(|(_, e)| e.id() == id)
    });
    assert!(ok, "target wedged after hostile ingress");
}
