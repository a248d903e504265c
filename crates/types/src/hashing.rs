//! A fast, deterministic hasher for the protocol's hot-path maps.
//!
//! Every gossip reception probes id-keyed maps dozens of times
//! (a retransmission pull probes once per missing id), and std's default SipHash
//! dominates that cost. Keys here are trusted 8/16-byte process and event
//! ids, so a multiply-xor fold (the FxHash construction) is sufficient
//! and ~5× cheaper. It is also seed-free: map iteration order becomes a
//! pure function of the insertion sequence, which keeps simulations
//! reproducible across processes.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher state.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]-backed collections.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with the fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "D1 definition site: the std name appears only here, pinned to the seed-free FastHasher"
)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuild>;

/// A `HashSet` keyed with the fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "D1 definition site: the std name appears only here, pinned to the seed-free FastHasher"
)]
pub type FastSet<T> = std::collections::HashSet<T, FastBuild>;

#[cfg(test)]
mod tests {
    use super::{FastMap, FastSet};

    #[test]
    fn map_and_set_behave() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        let mut s: FastSet<(u64, u64)> = FastSet::default();
        for i in 0..1000u64 {
            m.insert(i, i as u32);
            s.insert((i, i * 2));
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&500));
        assert!(s.contains(&(10, 20)));
        assert!(!s.contains(&(10, 21)));
    }

    #[test]
    fn iteration_order_is_deterministic_across_maps() {
        let build = |items: &[u64]| -> Vec<u64> {
            let mut m: FastMap<u64, ()> = FastMap::default();
            for &i in items {
                m.insert(i, ());
            }
            m.keys().copied().collect()
        };
        let items: Vec<u64> = (0..500).map(|i| i * 7919).collect();
        assert_eq!(build(&items), build(&items), "seed-free iteration order");
    }
}
