//! Calibration of the box's speed while a measurement runs.
//!
//! The sandbox this benchmark runs in is a small shared VM whose speed
//! swings by ±20 % on every time scale from tens of milliseconds to
//! minutes (neighbours on the same host): the same segment of the same
//! seed was seen to take 3.7 s and 4.8 s a few minutes apart, and ten runs
//! spread over a quarter of an hour had quartiles 25 to 33 % apart on
//! every CPU-paced metric — more than any bound the contract allows. No
//! statistic taken inside a 20-second run removes a drift that slow.
//!
//! So the timed window is interleaved with *slices* of a fixed piece of
//! work that belongs to the benchmark alone (no product code, so a product
//! change cannot move it), about 3 ms every few rounds and excluded from
//! the timed wall and CPU time. CPU-paced times are then reported in
//! *reference seconds*: measured seconds divided by
//! `speed factor = mean slice time / REFERENCE_SLICE_S`. On a box running
//! at the reference speed the factor is 1 and nothing changes; on a slowed
//! box the product and the slices between its rounds take longer alike,
//! and the factor takes the slowdown out. What two commits are compared on
//! is how much product work fits in a unit of calibration work, within the
//! same seconds on the same box. In recorded series (README,
//! "Steadiness") this cut the quartile spread of one segment's time from
//! 13-22 % to 5-8 %; bracketing a segment with one long calibration before
//! and after it, tried first, only reached 9-12 %.
//!
//! Metrics paced by the wall clock (the socket workload's rates and
//! latencies, which follow its 10 ms timer) are not touched.

use std::time::Instant;

/// Slice time on the reference box (2 vCPU, README "Reference box"):
/// the median of 18 000 recorded slices. Frozen: changing it rescales
/// every CPU-paced metric.
pub const REFERENCE_SLICE_S: f64 = 0.003;

/// A working set beyond the private caches (32 MB) for the memory-bound
/// part, a small one (64 KB) for the compute-bound part: the product is a
/// mix of hash-map probes and inserts over large maps and tight loops over
/// small buffers. The memory-bound part *writes*: what slows this box down
/// is contention for memory bandwidth, which a read-only latency chase
/// (tried first) does not feel — the product ran twice as fast in a quiet
/// phase while such a chase gained 7 %.
const TABLE_WORDS: usize = 1 << 22;
const TABLE_STEPS: usize = 12_000;
const MIX_WORDS: usize = 1 << 13;
const MIX_STEPS: usize = 190_000;

#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    mix: Vec<u64>,
    x: u64,
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Calibrator {
    pub fn new() -> Self {
        // Random contents from the start: the walk below depends on them,
        // and must be as scattered in the first slice as in the last.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Calibrator {
            table,
            mix: vec![0; MIX_WORDS],
            x,
        }
    }

    /// Runs one slice of the fixed work; returns the seconds it took.
    pub fn slice(&mut self) -> f64 {
        let started = Instant::now();
        let mut x = self.x;
        // A dependent random read, then a random read-modify-write: a
        // cache miss and a dirty line per step.
        for _ in 0..TABLE_STEPS {
            x = xorshift(x ^ self.table[(x as usize) & (TABLE_WORDS - 1)]);
            let slot = (x >> 20) as usize & (TABLE_WORDS - 1);
            self.table[slot] = self.table[slot].wrapping_add(x);
        }
        // In-cache multiply-xor mixing: compute-bound.
        for _ in 0..MIX_STEPS {
            let word = (x as usize) & (MIX_WORDS - 1);
            x = (x.rotate_left(5) ^ self.mix[word]).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
            self.mix[word] = x;
        }
        self.x = x | 1;
        started.elapsed().as_secs_f64()
    }

    /// Mean time of `n` slices run back to back.
    pub fn mean_slice(&mut self, n: usize) -> f64 {
        (0..n).map(|_| self.slice()).sum::<f64>() / n as f64
    }
}

/// How much slower than the reference the box ran, given the mean time
/// of the slices taken inside or around a measurement.
pub fn speed_factor(mean_slice_s: f64) -> f64 {
    mean_slice_s / REFERENCE_SLICE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_repeat_within_a_factor_of_two() {
        let mut c = Calibrator::new();
        let _warm = c.mean_slice(4);
        let (a, b) = (c.mean_slice(8), c.mean_slice(8));
        assert!(a > 0.0 && b > 0.0);
        assert!(a / b < 2.0 && b / a < 2.0, "{a} vs {b}");
        assert!(speed_factor(REFERENCE_SLICE_S) == 1.0);
    }
}
