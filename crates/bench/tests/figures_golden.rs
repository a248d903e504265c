//! Pins the figure harness to the bits it produced before the
//! lpbcast/pbcast sweep twins and the three engine bootstraps were
//! merged: the fixtures were written by the pre-merge figure binaries
//! at `LPBCAST_BENCH_SEEDS=2`. `fig2` is analysis only; `fig5b`
//! sweeps the lpbcast stack; `fig7a` sweeps lpbcast, pbcast on partial
//! views and pbcast on total views over the same seeds — so both arms of
//! the generic sweep body and both engine builders are held. `fig7b`
//! (deliver-on-digest pbcast on partial views) joined when pbcast got
//! its one digest form; its fixture is that commit's rendering, also at
//! two seeds.

use std::path::Path;

use lpbcast_bench::figures::select;

/// One test, so nothing else in this process reads the environment while
/// the seed count is being set.
#[test]
fn two_seed_figures_match_the_pre_merge_rendering() {
    std::env::set_var("LPBCAST_BENCH_SEEDS", "2");
    // On a mismatch the fresh rendering stays here for diffing.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_golden");
    let golden = [
        include_str!("fixtures/fig2.tsv"),
        include_str!("fixtures/fig5b.tsv"),
        include_str!("fixtures/fig7a.tsv"),
        include_str!("fixtures/fig7b.tsv"),
    ];
    let names = ["fig2", "fig5b", "fig7a", "fig7b"].map(String::from);
    let figures = select(&names).expect("known figures");
    for ((name, make), golden) in figures.into_iter().zip(golden) {
        let path = make().write_tsv(&dir).expect("writable target tmpdir");
        let fresh = std::fs::read_to_string(&path).expect("just written");
        assert!(
            fresh == golden,
            "{name} drifted from its fixture; compare {} against tests/fixtures/{name}.tsv",
            path.display()
        );
    }
}
