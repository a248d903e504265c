//! Property tests for the shard-partitioned round: for every `(n, S,
//! seed)` — and with an active fault plane layered on top — the sharded
//! engine is **bit-identical** to the serial reference. The partition is
//! an execution strategy, never a semantics knob.
//!
//! The digest compared is deliberately wide: per-round infected counts,
//! network delivered/dropped counters (the shared loss-RNG stream),
//! wire-meter byte accounting (per-envelope side-effect order), final
//! per-node views and the sorted alive-id list. Any reordering of the
//! serial round's side effects shows up in at least one of these.

use lpbcast_core::{Config, Lpbcast};
use lpbcast_sim::fault::{FaultPlane, FaultSpec};
use lpbcast_sim::{Engine, NetworkModel};
use lpbcast_types::{Payload, ProcessId, Protocol};
use proptest::prelude::*;

fn config() -> Config {
    Config::builder()
        .view_size(5)
        .fanout(3)
        .deliver_on_digest(true)
        .build()
}

/// Builds an n-node lpbcast cluster with `shards` shards and an optional
/// fault plane, runs a small eventful schedule (publishes from rotating
/// origins, one mid-run crash), and digests everything observable.
#[expect(
    clippy::type_complexity,
    reason = "the digest is a one-use tuple of everything observable"
)]
fn run_digest(
    n: usize,
    seed: u64,
    shards: usize,
    faults: bool,
) -> (
    Vec<(usize, u64, u64, u64)>,
    Vec<Vec<ProcessId>>,
    Vec<ProcessId>,
) {
    let cfg = config();
    let mut builder = Engine::builder(NetworkModel::new(0.08, seed))
        .shards(shards)
        .nodes((0..n as u64).map(|i| {
            let members = (0..n as u64).filter(|&j| j != i).map(ProcessId::new);
            Lpbcast::with_initial_view(
                ProcessId::new(i),
                cfg.clone(),
                seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i),
                members,
            )
        }));
    if faults {
        builder = builder.fault_plane(FaultPlane::new(FaultSpec::noisy_links(seed), seed));
    }
    let mut engine = builder.wire_meter(lpbcast_net::wire_meter()).build();

    let probe = engine.publish_from(ProcessId::new(0), Payload::from_static(b"probe"));
    let mut per_round = Vec::new();
    for round in 0..10u64 {
        if round == 3 {
            engine.publish_from(ProcessId::new(1 % n as u64), Payload::from_static(b"mid"));
        }
        if round == 5 && n > 4 {
            engine.crash(ProcessId::new(n as u64 - 1));
        }
        engine.step();
        let wire = engine.wire_accounting().unwrap_or_default();
        per_round.push((
            engine.tracker().infected_count(probe),
            engine.network().delivered_count(),
            engine.network().dropped_count(),
            wire.bytes,
        ));
    }
    let views: Vec<Vec<ProcessId>> = engine
        .nodes()
        .map(|(_, node)| node.view_members())
        .collect();
    (per_round, views, engine.alive_ids().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded rounds are bit-identical to the serial reference for any
    /// shard count, with the loss-only network model.
    #[test]
    fn sharded_rounds_match_serial(
        n in 4usize..48,
        shards in 2usize..17,
        seed in any::<u64>(),
    ) {
        let serial = run_digest(n, seed, 1, false);
        let sharded = run_digest(n, seed, shards, false);
        prop_assert_eq!(serial, sharded, "n={} S={} seed={}", n, shards, seed);
    }

    /// The invariance holds under an active [`FaultPlane`] — the fate
    /// stream (drops, duplicates, delays) consumes shared engine state,
    /// which the serial fate pass must keep in canonical order no matter
    /// how handling is partitioned.
    #[test]
    fn sharded_rounds_match_serial_under_faults(
        n in 4usize..40,
        shards in 2usize..13,
        seed in any::<u64>(),
    ) {
        let serial = run_digest(n, seed, 1, true);
        let sharded = run_digest(n, seed, shards, true);
        prop_assert_eq!(serial, sharded, "n={} S={} seed={}", n, shards, seed);
    }
}
