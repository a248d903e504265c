//! The benchmark's own input generator: workload inputs (topologies,
//! contacts, leavers, crash blocks) depend on `--seed` alone, and not on
//! the product's vendored `rand`, which a later change may touch.

use lpbcast_types::ProcessId;

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// `l` distinct members of `0..n` other than `me`, uniformly at random.
pub fn sample_view(rng: &mut Rng, me: u64, n: u64, l: usize) -> Vec<ProcessId> {
    let mut view: Vec<u64> = Vec::with_capacity(l);
    while view.len() < l.min(n as usize - 1) {
        let candidate = rng.below(n);
        if candidate != me && !view.contains(&candidate) {
            view.push(candidate);
        }
    }
    view.into_iter().map(ProcessId::new).collect()
}

pub fn node_seed(seed: u64, id: u64) -> u64 {
    seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&v| v < 1000));
    }

    #[test]
    fn sampled_views_are_distinct_and_exclude_the_owner() {
        let mut rng = Rng::new(1);
        for me in 0..20 {
            let view = sample_view(&mut rng, me, 20, 15);
            assert_eq!(view.len(), 15);
            assert!(!view.contains(&ProcessId::new(me)));
            let mut sorted = view.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 15);
        }
    }
}
