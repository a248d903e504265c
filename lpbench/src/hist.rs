//! Mergeable fixed-width histogram with interpolated quantiles.
//!
//! Simulated latencies are whole rounds, so a plain percentile would move
//! in steps of one round and hide every change smaller than that. The
//! quantile here interpolates linearly inside the bucket the rank falls
//! in, so it moves continuously as mass shifts between neighbouring
//! buckets, and stays a pure function of the counts (deterministic per
//! seed in the simulator).

#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    total: u64,
    max: f64,
}

impl Histogram {
    /// Buckets are `[i·width, (i+1)·width)`.
    pub fn new(width: f64) -> Self {
        assert!(width > 0.0, "bucket width must be positive");
        Histogram {
            width,
            counts: Vec::new(),
            total: 0,
            max: 0.0,
        }
    }

    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let value = value.max(0.0);
        let bucket = (value / self.width) as usize;
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += n;
        self.total += n;
        self.max = self.max.max(value);
    }

    /// Adds `other`'s samples; both must use the same bucket width.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            (self.width - other.width).abs() < f64::EPSILON,
            "merging histograms of different bucket widths"
        );
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// The value below which a share `q` of the samples lies, taking the
    /// samples of a bucket as spread evenly over it. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= rank {
                let inside = (rank - below as f64) / count as f64;
                return (i as f64 + inside) * self.width;
            }
            below += count;
        }
        self.counts.len() as f64 * self.width
    }
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inside_the_bucket() {
        let mut h = Histogram::new(1.0);
        h.record_n(3.5, 100); // bucket [3, 4)
        assert!((h.quantile(0.5) - 3.5).abs() < 1e-12);
        assert!((h.quantile(0.25) - 3.25).abs() < 1e-12);
        assert!((h.quantile(1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_moves_continuously_as_mass_shifts() {
        // Moving one sample from bucket 4 to bucket 5 must nudge the
        // median, not leave it stuck on a whole round.
        let mut a = Histogram::new(1.0);
        a.record_n(4.5, 60);
        a.record_n(5.5, 40);
        let mut b = Histogram::new(1.0);
        b.record_n(4.5, 59);
        b.record_n(5.5, 41);
        let (qa, qb) = (a.quantile(0.5), b.quantile(0.5));
        assert!(qb > qa && qb - qa < 0.05, "{qa} -> {qb}");
    }

    #[test]
    fn quantile_crosses_buckets() {
        let mut h = Histogram::new(0.5);
        h.record_n(0.1, 10);
        h.record_n(0.6, 10);
        h.record_n(1.2, 80);
        assert!((h.quantile(0.1) - 0.5).abs() < 1e-12);
        assert!((h.quantile(0.6) - 1.25).abs() < 1e-12);
        assert_eq!(h.count(), 100);
        assert!((h.max() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let samples_a = [0.2, 1.7, 3.3, 3.4, 9.9];
        let samples_b = [0.1, 3.9, 12.5];
        let (mut a, mut b, mut all) = (
            Histogram::new(1.0),
            Histogram::new(1.0),
            Histogram::new(1.0),
        );
        for v in samples_a {
            a.record(v);
            all.record(v);
        }
        for v in samples_b {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.quantile(0.99), all.quantile(0.99));
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new(1.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
