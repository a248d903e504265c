//! Criterion: simulator scalability — one synchronous round at the
//! paper's parameters and beyond.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lpbcast_sim::experiment::{LpbcastSimParams, SimParams};
use lpbcast_types::ProcessId;

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_round");
    group.sample_size(20);
    for &n in &[125usize, 500, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let params = LpbcastSimParams::paper_defaults(n).rounds(1_000_000);
            let mut engine = params.build_engine(1);
            engine.publish_from(ProcessId::new(0), "warm".into());
            engine.run(5); // steady state
            b.iter(|| {
                engine.step();
                black_box(engine.round())
            });
        });
    }
    group.finish();
}

fn bench_full_dissemination(c: &mut Criterion) {
    c.bench_function("sim_dissemination_n125_10rounds", |b| {
        b.iter(|| {
            let params = LpbcastSimParams::paper_defaults(125).rounds(10);
            let mut engine = params.build_engine(1);
            let id = engine.publish_from(ProcessId::new(0), "probe".into());
            engine.run(10);
            black_box(engine.tracker().infected_count(id))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_round, bench_full_dissemination
}
criterion_main!(benches);
