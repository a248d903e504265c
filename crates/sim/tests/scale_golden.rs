//! Golden pin of the scaling study: every deterministic column of
//! `run_scale_point` at seed 1 must match `fixtures/scale_golden.tsv`
//! bit for bit (floats in their shortest round-trip form, not rounded
//! to the TSV figure's decimals).
//!
//! The fixture was rendered while `scale.rs` still timed engine builds
//! and steps beside the probe run (the commit before the study became
//! clock-free), so it is the proof that dropping the timing engines
//! moved no number — and it holds `wire_bytes_per_round` exactly, plus
//! the latency and reliability columns nothing compared before.
//!
//! The `#[ignore]`d test pins the n = 10⁴ row (the committed
//! `BENCH_sim.json` reference point). Debug builds take a while there:
//!
//! ```text
//! cargo test --release -p lpbcast-sim --test scale_golden -- --ignored
//! ```

use lpbcast_sim::run_scale_point;

const GOLDEN: &str = include_str!("fixtures/scale_golden.tsv");
const HEADER: &str = "n\tview_size\tbuffer_bound\tmean_latency_rounds\tmodel_latency_rounds\treliability\twire_bytes_per_round\trounds";

fn render(n: usize) -> String {
    let p = run_scale_point(n, 1);
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        p.n,
        p.view_size,
        p.buffer_bound,
        p.mean_latency_rounds,
        p.model_latency_rounds,
        p.reliability,
        p.wire_bytes_per_round,
        p.rounds
    )
}

fn assert_matches_golden(n: usize) {
    assert_eq!(GOLDEN.lines().next(), Some(HEADER), "fixture header");
    let key = format!("{n}\t");
    let golden = GOLDEN
        .lines()
        .find(|l| l.starts_with(&key))
        .unwrap_or_else(|| panic!("no golden row for n={n}"));
    assert_eq!(
        render(n),
        golden,
        "scaling row n={n} diverged from the fixture"
    );
}

#[test]
fn paper_and_thousand_node_rows_match_the_golden_fixture() {
    assert_matches_golden(125);
    assert_matches_golden(1000);
}

#[test]
#[ignore = "full-scale n=10^4 run; execute with --release -- --ignored"]
fn ten_thousand_node_row_matches_the_golden_fixture() {
    assert_matches_golden(10_000);
}
