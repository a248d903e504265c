//! A real gossip cluster over UDP on localhost: one socket per process,
//! non-synchronized gossip timers, the paper's deployment model (§5.2) in
//! miniature — for **either** protocol stack behind the same generic
//! `Cluster<P>` runtime. Every process is a single-instance cluster, so
//! every message really crosses a socket (co-hosted instances would
//! short-circuit in memory), and `main` steps them all round-robin: no
//! threads, no channels, no locks.
//!
//! ```sh
//! cargo run --example udp_cluster
//! LPBCAST_UDP_PROTOCOL=pbcast cargo run --example udp_cluster
//! ```
//!
//! Environment knobs (CI smoke-runs both protocols over loopback with
//! small parameters and `LPBCAST_UDP_REQUIRE_FULL=1`, so rot in the UDP
//! runtime fails the build instead of passing silently):
//!
//! * `LPBCAST_UDP_N` — cluster size (default 10);
//! * `LPBCAST_UDP_PERIOD_MS` — gossip period `T` (default 25);
//! * `LPBCAST_UDP_DEADLINE_SECS` — full-delivery deadline (default 15);
//! * `LPBCAST_UDP_LOSS` — injected message loss ε (default 0.05;
//!   loopback UDP is effectively lossless, so ε is a seeded Bernoulli
//!   draw per message at the sender's socket boundary);
//! * `LPBCAST_UDP_BIND` — base bind address threaded through
//!   `ClusterBuilder::bind_addrs`. Unset (the default) binds
//!   `127.0.0.1:0`: OS-assigned ephemeral ports that cannot collide with
//!   another listener on a busy runner. `10.0.0.7:0` keeps ephemeral
//!   assignment on a chosen interface; a non-zero port such as
//!   `127.0.0.1:9000` gives node *i* the fixed port `9000 + i` (useful
//!   when an external firewall or packet capture needs predictable
//!   ports);
//! * `LPBCAST_UDP_REQUIRE_FULL` — when set to `1`, exit non-zero unless
//!   every node delivered every event before the deadline.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lpbcast::core::{Config, Lpbcast};
use lpbcast::net::{Cluster, ClusterBuilder, LinkFate, WireMessage};
use lpbcast::pbcast::{Membership, Pbcast, PbcastConfig};
use lpbcast::types::{EventId, FastSet, ProcessId, Protocol};

/// The environment knobs shared by every process of the example.
struct Knobs {
    period: Duration,
    loss: f64,
    bind_base: Option<SocketAddr>,
    deadline: Duration,
}

/// Gives each machine its own socket and drives them to full delivery:
/// everyone publishes once, then every node is stepped in turn until
/// each has delivered everyone's event. The whole loop is
/// protocol-agnostic — this is the generic driver the sans-IO `Protocol`
/// redesign buys.
#[expect(
    clippy::disallowed_methods,
    reason = "D2 waiver: the UDP example bounds its wait by the wall clock"
)]
fn drive<P>(machines: Vec<P>, knobs: &Knobs) -> Result<(), Box<dyn std::error::Error>>
where
    P: Protocol,
    P::Msg: WireMessage,
{
    let n = machines.len();
    let ids: Vec<ProcessId> = machines.iter().map(Protocol::id).collect();
    let mut nodes: Vec<Cluster<P>> = Vec::with_capacity(n);
    for (i, machine) in machines.into_iter().enumerate() {
        let mut builder = ClusterBuilder::new(knobs.period);
        // No base address: an OS-assigned ephemeral port on loopback. A
        // base with port 0 keeps that on the chosen interface; a non-zero
        // base port fans out to `port + i` (ephemeral again if the range
        // would wrap past 65535).
        if let Some(base) = knobs.bind_base {
            let port = match base.port() {
                0 => 0,
                p => u16::try_from(i)
                    .ok()
                    .and_then(|i| p.checked_add(i))
                    .unwrap_or(0),
            };
            builder = builder.bind_addrs(vec![SocketAddr::new(base.ip(), port)]);
        }
        let mut node = builder.build()?;
        node.add_instance(machine)?;
        if knobs.loss > 0.0 {
            let loss = knobs.loss;
            let mut rng = SmallRng::seed_from_u64(500 + i as u64);
            node.set_link_fault(move |_, _| match rng.gen_bool(loss) {
                true => LinkFate::Drop,
                false => LinkFate::Deliver,
            });
        }
        nodes.push(node);
    }

    // The testbed configuration (here: this loop) tells every process
    // where every other one listens.
    let addrs: Vec<SocketAddr> = nodes.iter().flat_map(Cluster::local_addrs).collect();
    println!("spawned {n} UDP nodes:");
    for (id, addr) in ids.iter().zip(&addrs) {
        println!("  {id} @ {addr}");
        for node in &nodes {
            node.register_peer(*id, *addr);
        }
    }

    // Everyone publishes one event (and delivers it to itself).
    let mut published: FastSet<EventId> = FastSet::default();
    let mut delivered: Vec<FastSet<EventId>> = vec![FastSet::default(); n];
    for (i, node) in nodes.iter_mut().enumerate() {
        let event = node
            .broadcast(ids[i], format!("event from node {i}"))
            .ok_or("publisher not hosted")?;
        published.insert(event);
        delivered[i].insert(event);
    }

    // Step until every node holds every published id. Distinct ids are
    // what counts: a re-delivered duplicate must not stand in for an
    // event that never arrived.
    let missing = |delivered: &[FastSet<EventId>]| -> usize {
        delivered.iter().map(|seen| n - seen.len()).sum()
    };
    let deadline = Instant::now() + knobs.deadline;
    while missing(&delivered) > 0 && Instant::now() < deadline {
        for (node, seen) in nodes.iter_mut().zip(&mut delivered) {
            node.step(Duration::ZERO)?;
            let arrived = node.take_deliveries().into_iter().map(|(_, e)| e.id());
            seen.extend(arrived.filter(|id| published.contains(id)));
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    println!("\ndistinct events delivered per node (target {n}):");
    for (id, seen) in ids.iter().zip(&delivered) {
        println!("  {id}: {}", seen.len());
    }
    println!("\nmembership views:");
    for (id, node) in ids.iter().zip(&nodes) {
        let view = node.with_instance(*id, Protocol::view_members);
        let view: Vec<u64> = view.iter().flatten().map(|m| m.as_u64()).collect();
        println!("  {id}: view {view:?}");
    }

    let missing = missing(&delivered);
    if missing == 0 {
        println!("\nevery node delivered every event ✓");
    } else {
        let secs = knobs.deadline.as_secs();
        println!("\ntimed out after {secs}s: {missing} (node, event) deliveries missing");
    }
    let strict = std::env::var("LPBCAST_UDP_REQUIRE_FULL").is_ok_and(|v| v == "1");
    if strict && missing > 0 {
        return Err("LPBCAST_UDP_REQUIRE_FULL=1: full delivery not reached".into());
    }
    Ok(())
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = env_u64("LPBCAST_UDP_N", 10).max(4);
    let knobs = Knobs {
        period: Duration::from_millis(env_u64("LPBCAST_UDP_PERIOD_MS", 25)),
        // The paper's ε = 0.05 is injected at the sender's socket
        // boundary, since localhost UDP is effectively lossless.
        // `LPBCAST_UDP_LOSS=0` (any unparsable value falls back to the
        // default) makes CI smoke runs deterministic-ish.
        loss: std::env::var("LPBCAST_UDP_LOSS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|l| (0.0..1.0).contains(l))
            .unwrap_or(0.05),
        bind_base: std::env::var("LPBCAST_UDP_BIND")
            .ok()
            .and_then(|v| v.parse().ok()),
        deadline: Duration::from_secs(env_u64("LPBCAST_UDP_DEADLINE_SECS", 15)),
    };
    let p = ProcessId::new;
    let protocol = std::env::var("LPBCAST_UDP_PROTOCOL").unwrap_or_else(|_| "lpbcast".into());
    // Each node knows a handful of ring neighbours; gossip-based
    // membership does the rest.
    let ring_view = |i: u64| -> Vec<ProcessId> { (1..=3).map(|d| p((i + d) % n)).collect() };

    match protocol.as_str() {
        // Retransmission on: digests advertise delivered ids, and nodes
        // that missed a payload pull it from the gossip sender's archive
        // (§3.2 "older notifications ... satisfy retransmission
        // requests").
        "lpbcast" => {
            let config = Config::builder()
                .view_size(6)
                .fanout(3)
                .event_ids_max(512)
                .events_max(512)
                .retransmit_request_max(16)
                .retransmit_retry_ticks(4)
                .archive_capacity(1024)
                .build();
            let machine =
                |i| Lpbcast::with_initial_view(p(i), config.clone(), 500 + i, ring_view(i));
            drive((0..n).map(machine).collect(), &knobs)
        }
        // The pbcast baseline over the very same runtime: anti-entropy
        // digests with gossip-pull repair on the §6.2 partial-view
        // membership layer.
        "pbcast" => {
            let config = PbcastConfig::builder()
                .fanout(3)
                .first_phase(false)
                .max_repetitions(6)
                .max_hops(12)
                .history_max(512)
                .store_max(1024)
                .build();
            let machine = |i| {
                let membership = Membership::partial(p(i), 6, config.subs_max, ring_view(i));
                Pbcast::new(p(i), config.clone(), 500 + i, membership)
            };
            drive((0..n).map(machine).collect(), &knobs)
        }
        other => Err(format!("LPBCAST_UDP_PROTOCOL={other:?}: expected lpbcast or pbcast").into()),
    }
}
