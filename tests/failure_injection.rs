//! Integration: fault injection beyond the paper's ε/τ envelope — crash
//! storms, heavy loss, and recovery via retransmission.

use lpbcast::core::Config;
use lpbcast::core::Lpbcast;
use lpbcast::sim::experiment::{InitialTopology, LpbcastSimParams, SimParams};
use lpbcast::sim::{CrashPlan, Engine, NetworkModel};
use lpbcast::types::ProcessId;

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn dissemination_survives_a_mid_run_crash_storm() {
    // A third of the system crashes at round 3, right as the epidemic
    // takes off.
    let n = 45u64;
    let config = Config::builder()
        .view_size(10)
        .fanout(3)
        .event_ids_max(128)
        .events_max(128)
        .deliver_on_digest(true)
        .build();
    let mut plan = CrashPlan::none();
    for i in 30..45u64 {
        plan.schedule(3, p(i));
    }
    let mut engine: Engine<Lpbcast> = Engine::builder(NetworkModel::new(0.05, 9))
        .crash_plan(plan)
        .build();
    for i in 0..n {
        let members: Vec<ProcessId> = (0..n).filter(|&j| j != i).map(p).collect();
        engine.add_node(Lpbcast::with_initial_view(
            p(i),
            config.clone(),
            i,
            members.into_iter().take(10).collect::<Vec<_>>(),
        ));
    }
    let id = engine.publish_from(p(0), "storm".into());
    engine.run(15);
    let survivors = engine.alive_count();
    assert_eq!(survivors, 30);
    let infected_survivors = (0..30u64)
        .filter(|&i| engine.tracker().has_seen(id, p(i)))
        .count();
    assert!(
        infected_survivors >= 28,
        "only {infected_survivors}/30 survivors infected"
    );
}

#[test]
fn extreme_loss_degrades_gracefully() {
    let mk = |loss: f64| {
        let params = LpbcastSimParams {
            n: 40,
            config: Config::builder()
                .view_size(10)
                .fanout(3)
                .event_ids_max(128)
                .events_max(128)
                .deliver_on_digest(true)
                .build(),
            loss_rate: loss,
            tau: 0.0,
            rounds: 20,
            topology: InitialTopology::UniformRandom,
        };
        let mut engine = params.build_engine(5);
        let id = engine.publish_from(p(0), "x".into());
        engine.run(20);
        engine.tracker().infected_count(id)
    };
    let at_5 = mk(0.05);
    let at_50 = mk(0.50);
    let at_80 = mk(0.80);
    assert!(
        at_5 >= at_50,
        "more loss, fewer infected ({at_5} vs {at_50})"
    );
    assert!(
        at_50 >= at_80,
        "more loss, fewer infected ({at_50} vs {at_80})"
    );
    // Even at 50% loss, effective fanout ≈ 1.5 > 1: the epidemic still
    // percolates.
    assert!(
        at_50 > 30,
        "50% loss should still mostly percolate: {at_50}"
    );
}

#[test]
fn retransmission_repairs_what_push_missed() {
    // Strict payload semantics (no digest absorption). Without pulls some
    // processes permanently miss events; with pulls the digests let them
    // recover.
    let build = |pull: bool, seed: u64| {
        let mut config = Config::builder()
            .view_size(10)
            .fanout(3)
            .event_ids_max(256)
            .events_max(256)
            .archive_capacity(256);
        if pull {
            config = config.retransmit_request_max(8);
        }
        let params = LpbcastSimParams {
            n: 40,
            config: config.build(),
            loss_rate: 0.15,
            tau: 0.0,
            rounds: 20,
            topology: InitialTopology::UniformRandom,
        };
        let mut engine = params.build_engine(seed);
        let id = engine.publish_from(p(0), "fragile".into());
        engine.run(20);
        engine.tracker().infected_count(id)
    };
    let mut push_total = 0usize;
    let mut pull_total = 0usize;
    for seed in 0..6 {
        push_total += build(false, seed);
        pull_total += build(true, seed);
    }
    assert!(
        pull_total >= push_total,
        "retransmission must not hurt: push {push_total}, pull {pull_total}"
    );
    assert!(
        pull_total >= 6 * 39,
        "with pulls, essentially everyone recovers: {pull_total}/240"
    );
}

#[test]
fn crashed_contact_does_not_deadlock_joiner() {
    let config = Config::builder()
        .view_size(6)
        .fanout(2)
        .join_timeout(2)
        .build();
    let mut engine: Engine<Lpbcast> = Engine::builder(NetworkModel::perfect(3)).build();
    for i in 0..6u64 {
        let members: Vec<ProcessId> = (0..6).filter(|&j| j != i).map(p).collect();
        engine.add_node(Lpbcast::with_initial_view(p(i), config.clone(), i, members));
    }
    engine.crash(p(0));
    // The joiner only knows the dead contact and one alive one.
    engine.add_node(Lpbcast::joining(p(50), config, 777, vec![p(0), p(1)]));
    engine.run(10);
    let node = engine.node(p(50)).unwrap();
    assert!(!node.is_joining(), "joiner stuck on dead contact");
    assert!(
        node.stats().join_requests_sent >= 2,
        "retry must have happened"
    );
}

#[test]
fn paper_fault_envelope_certifies_99_percent() {
    // ε = 0.05, τ = 0.01 (§4.1) at n = 125 — the paper's own envelope;
    // runs conditional on the publisher surviving.
    let params = LpbcastSimParams::paper_defaults(125).rounds(10);
    let mut total = 0usize;
    let runs = 5;
    for seed in 0..runs {
        let mut engine = params.build_engine(seed);
        let id = engine.publish_from(p(0), "envelope".into());
        engine.run(10);
        total += engine.tracker().infected_count(id);
    }
    let mean = total as f64 / runs as f64;
    assert!(
        mean > 0.985 * 125.0,
        "paper envelope should infect ~everyone alive: mean {mean:.1}/125"
    );
}
