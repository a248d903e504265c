//! Shared conformance suite for every [`Protocol`] implementation the
//! workspace ships: the same generic checks run against [`Lpbcast`] and
//! [`Pbcast`], so a protocol cannot drift from the contract the generic
//! drivers (`Engine<P>`, the scenario suite, `Cluster<P>`) rely on.
//!
//! What is enforced:
//!
//! * **tick/handle_message determinism** — two same-seed replicas fed the
//!   identical input schedule produce byte-identical wire transcripts.
//!   Each replica owns its own hash-map instances, and std's maps seed
//!   per instance, so any iteration-order leak (the Known-debt rule in
//!   ROADMAP.md) diverges the transcripts — this is the regression test
//!   for the pre-PR-1 `pbcast::tick` HashMap-order bug's whole class.
//! * **wire codec roundtrip** — every message the protocols emit in the
//!   scripted exchange survives encode → decode → re-encode with byte
//!   equality, for each `Protocol::Msg` (lpbcast kinds and pbcast
//!   kinds).
//! * **engine-level determinism** — two same-seed simulation runs agree
//!   on the infection outcome and the final membership views.

use lpbcast_core::{Config, Lpbcast};
use lpbcast_membership::{Swim, SwimConfig};
use lpbcast_net::wire;
use lpbcast_net::WireMessage;
use lpbcast_pbcast::{Membership, Pbcast, PbcastConfig};
use lpbcast_sim::scenario::ScenarioProtocol;
use lpbcast_sim::{Engine, EngineBuilder, FaultPlane, FaultSpec, NetworkModel};
use lpbcast_types::{Payload, ProcessId, Protocol};

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

/// Builds a fresh replica set for the scripted exchange: three nodes in
/// a triangle, plus knowledge of two processes that never speak (their
/// entries churn through the bounded views).
fn triangle<P: ScenarioProtocol>(seed: u64) -> Vec<P> {
    let cfg = P::scaled_cfg(16);
    (0..3u64)
        .map(|i| {
            let members: Vec<ProcessId> = (0..5u64).filter(|&j| j != i).map(pid).collect();
            P::bootstrap(pid(i), &cfg, seed.wrapping_add(i), members)
        })
        .collect()
}

/// Runs the scripted exchange on one replica set, appending every wire
/// byte produced to `transcript` and roundtripping every message.
fn scripted_exchange<P: Protocol>(nodes: &mut [P], rounds: usize, transcript: &mut Vec<u8>)
where
    P::Msg: WireMessage,
{
    let ids: Vec<ProcessId> = nodes.iter().map(Protocol::id).collect();
    for round in 0..rounds {
        // One publication per round from a rotating origin.
        let origin = round % nodes.len();
        let (_, publish) = nodes[origin].broadcast(Payload::from_static(b"conformance"));
        let mut inboxes: Vec<Vec<(ProcessId, P::Msg)>> = vec![Vec::new(); nodes.len()];
        let route = |from: ProcessId,
                     out: lpbcast_types::Output<P::Msg>,
                     inboxes: &mut Vec<Vec<(ProcessId, P::Msg)>>,
                     transcript: &mut Vec<u8>| {
            for event in &out.delivered {
                transcript.extend_from_slice(&event.id().origin().as_u64().to_le_bytes());
                transcript.extend_from_slice(&event.id().seq().to_le_bytes());
            }
            for id in &out.learned_ids {
                transcript.extend_from_slice(&id.origin().as_u64().to_le_bytes());
                transcript.extend_from_slice(&id.seq().to_le_bytes());
            }
            for m in &out.membership {
                transcript.extend_from_slice(&m.process().as_u64().to_le_bytes());
            }
            for (to, msg) in out.outgoing {
                // Codec roundtrip: encode → decode → re-encode, byte-equal.
                let bytes = wire::encode(&msg);
                let decoded: P::Msg = wire::decode(&bytes).expect("own messages decode");
                assert_eq!(
                    wire::encode(&decoded),
                    bytes,
                    "re-encoding a decoded message must be byte-identical"
                );
                transcript.extend_from_slice(&to.as_u64().to_le_bytes());
                transcript.extend_from_slice(&bytes);
                if let Some(slot) = ids.iter().position(|&i| i == to) {
                    inboxes[slot].push((from, msg));
                }
            }
        };
        route(ids[origin], publish, &mut inboxes, transcript);
        for i in 0..nodes.len() {
            let out = nodes[i].tick();
            route(ids[i], out, &mut inboxes, transcript);
        }
        // Deliver, chasing one generation of replies.
        for _generation in 0..3 {
            let mut next: Vec<Vec<(ProcessId, P::Msg)>> = vec![Vec::new(); nodes.len()];
            let mut any = false;
            for i in 0..nodes.len() {
                for (from, msg) in std::mem::take(&mut inboxes[i]) {
                    any = true;
                    let out = nodes[i].handle_message(from, msg);
                    route(ids[i], out, &mut next, transcript);
                }
            }
            inboxes = next;
            if !any {
                break;
            }
        }
    }
    // Final views are part of the observable state.
    for node in nodes.iter() {
        for m in node.view_members() {
            transcript.extend_from_slice(&m.as_u64().to_le_bytes());
        }
    }
}

/// Same seed + same schedule ⇒ byte-identical transcripts across
/// independently constructed replicas (hash-map iteration-order leaks
/// diverge here because each replica owns different map instances).
fn assert_deterministic<P: Protocol>(name: &str, mk: impl Fn(u64) -> Vec<P>)
where
    P::Msg: WireMessage,
{
    for seed in [1u64, 7, 42] {
        let mut a = mk(seed);
        let mut b = mk(seed);
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        scripted_exchange(&mut a, 12, &mut ta);
        scripted_exchange(&mut b, 12, &mut tb);
        assert!(!ta.is_empty(), "{name}: exchange produced traffic");
        assert_eq!(
            ta, tb,
            "{name}: same-seed replicas must produce byte-identical transcripts (seed {seed})"
        );
    }
}

/// Distinct seeds must diverge — otherwise the determinism check above
/// proves nothing.
fn assert_seed_sensitivity<P: Protocol>(name: &str, mk: impl Fn(u64) -> Vec<P>)
where
    P::Msg: WireMessage,
{
    let mut a = mk(1);
    let mut b = mk(2);
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    scripted_exchange(&mut a, 12, &mut ta);
    scripted_exchange(&mut b, 12, &mut tb);
    assert_ne!(ta, tb, "{name}: different seeds must diverge");
}

/// Two same-seed engine runs agree on infection counts and final views.
fn assert_engine_deterministic<P: Protocol>(name: &str, mk: impl Fn(u64) -> Engine<P>) {
    let run = |seed: u64| {
        let mut engine = mk(seed);
        let id = engine.publish_from(pid(0), Payload::from_static(b"probe"));
        let mut curve = Vec::new();
        for _ in 0..10 {
            engine.step();
            curve.push(engine.tracker().infected_count(id));
        }
        let views: Vec<Vec<ProcessId>> = engine.nodes().map(|(_, n)| n.view_members()).collect();
        (curve, views)
    };
    let first = run(5);
    assert_eq!(first, run(5), "{name}: engine runs must be reproducible");
    assert!(
        *first.0.last().unwrap() > 10,
        "{name}: the probe actually disseminated: {:?}",
        first.0
    );
}

fn lpbcast_engine(seed: u64) -> Engine<Lpbcast> {
    let config = Config::builder()
        .view_size(6)
        .fanout(3)
        .deliver_on_digest(true)
        .build();
    Engine::builder(NetworkModel::new(0.05, seed))
        .nodes((0..16u64).map(|i| {
            let members = (0..16u64).filter(|&j| j != i).map(pid);
            Lpbcast::with_initial_view(pid(i), config.clone(), seed.wrapping_add(i), members)
        }))
        .build()
}

fn pbcast_engine(seed: u64) -> Engine<Pbcast> {
    let config = PbcastConfig::builder()
        .fanout(3)
        .first_phase(false)
        .pull(false)
        .deliver_on_digest(true)
        .max_repetitions(6)
        .build();
    Engine::builder(NetworkModel::new(0.05, seed))
        .nodes((0..16u64).map(|i| {
            let members = (0..16u64).filter(|&j| j != i).map(pid);
            Pbcast::new(
                pid(i),
                config.clone(),
                seed.wrapping_add(i),
                Membership::partial(pid(i), 6, config.subs_max, members),
            )
        }))
        .build()
}

fn swim_engine_builder(seed: u64) -> EngineBuilder<Swim<Lpbcast>> {
    let config = Config::builder()
        .view_size(6)
        .fanout(3)
        .deliver_on_digest(true)
        .build();
    Engine::builder(NetworkModel::new(0.05, seed)).nodes((0..16u64).map(|i| {
        let members = (0..16u64).filter(|&j| j != i).map(pid);
        Swim::new(
            Lpbcast::with_initial_view(pid(i), config.clone(), seed.wrapping_add(i), members),
            SwimConfig::default(),
            seed.wrapping_add(i),
        )
    }))
}

fn swim_engine(seed: u64) -> Engine<Swim<Lpbcast>> {
    swim_engine_builder(seed).build()
}

#[test]
fn lpbcast_exchange_is_deterministic_and_roundtrips() {
    assert_deterministic("lpbcast", triangle::<Lpbcast>);
}

#[test]
fn pbcast_exchange_is_deterministic_and_roundtrips() {
    assert_deterministic("pbcast", triangle::<Pbcast>);
}

#[test]
fn lpbcast_seeds_diverge() {
    assert_seed_sensitivity("lpbcast", triangle::<Lpbcast>);
}

#[test]
fn pbcast_seeds_diverge() {
    assert_seed_sensitivity("pbcast", triangle::<Pbcast>);
}

#[test]
fn lpbcast_engine_runs_are_reproducible() {
    assert_engine_deterministic("lpbcast", lpbcast_engine);
}

#[test]
fn pbcast_engine_runs_are_reproducible() {
    assert_engine_deterministic("pbcast", pbcast_engine);
}

#[test]
fn swim_exchange_is_deterministic_and_roundtrips() {
    assert_deterministic("swim+lpbcast", triangle::<Swim<Lpbcast>>);
}

#[test]
fn swim_seeds_diverge() {
    assert_seed_sensitivity("swim+lpbcast", triangle::<Swim<Lpbcast>>);
}

#[test]
fn swim_engine_runs_are_reproducible() {
    assert_engine_deterministic("swim+lpbcast", swim_engine);
}

#[test]
fn swim_engine_with_fault_plane_is_reproducible() {
    assert_engine_deterministic("swim+lpbcast+faults", |seed| {
        swim_engine_builder(seed)
            .fault_plane(FaultPlane::new(FaultSpec::noisy_links(seed), seed))
            .build()
    });
}
