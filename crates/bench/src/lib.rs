//! Figure harness for the lpbcast reproduction.
//!
//! Each of the paper's ten evaluation figures (plus three ablations and
//! a diagnostic) is regenerated by one function in [`figures`]; the
//! `figures` binary selects them by name (`figures fig5b fig7a`,
//! `figures all`, `figures --list`). The harness prints the series as a
//! table and writes a TSV to `results/` at the workspace root, so
//! `EXPERIMENTS.md` can quote the numbers.
//!
//! Environment knobs:
//!
//! * `LPBCAST_BENCH_SEEDS` — overrides the number of random seeds averaged
//!   per stochastic experiment (default varies per figure; lower = faster,
//!   noisier).

#![warn(missing_docs, missing_debug_implementations)]

pub mod figures;
pub mod output;

/// Number of seeds to average, honouring `LPBCAST_BENCH_SEEDS`.
pub fn seed_count(default: usize) -> usize {
    std::env::var("LPBCAST_BENCH_SEEDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// The seed list `[base, base+1, …]` of the configured length.
pub fn seeds(default: usize, base: u64) -> Vec<u64> {
    (0..seed_count(default) as u64).map(|i| base + i).collect()
}
