//! Golden pin of the SWIM detector A/B: `detector_tsv` of the study at
//! three `(n, seed)` points must match `fixtures/detector_golden.tsv`
//! byte for byte.
//!
//! The fixture was rendered by the hand-written A/B driver the spec
//! cells replaced (the commit before the `detection` / `noise_window`
//! generators existed), so it is the proof
//! that folding the study into the scenario timeline — and redefining a
//! false eviction as "the evicted process is still alive" — changed no
//! bit of it.

use lpbcast_sim::{detector_study, detector_tsv};

#[test]
fn the_study_matches_the_golden_fixture() {
    let mut actual = String::new();
    for (n, seed) in [(120, 1), (120, 3), (300, 2)] {
        actual.push_str(&format!("## n={n} seed={seed}\n"));
        actual.push_str(&detector_tsv(&detector_study(n, seed)));
    }
    let golden = include_str!("fixtures/detector_golden.tsv");
    if actual != golden {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("detector_golden.tsv");
        std::fs::write(&dump, &actual).expect("dump the actual rendering");
        let line = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
        panic!(
            "detector study diverged from the golden fixture at line {:?}; \
             full rendering written to {}",
            line.map(|l| l + 1),
            dump.display()
        );
    }
}
