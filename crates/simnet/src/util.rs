//! Small utilities: packed message-matching keys and a fast integer
//! hash map.
//!
//! The engine matches messages on `(source_rank, tag)` pairs packed into
//! one `u64` ([`match_key`]), so a match test is one integer compare.
//! [`IntMap`] serves maps whose keys are already well-mixed or dense
//! integers (the makespan memo's schedule fingerprints); SipHash is
//! needlessly slow for them, and this SplitMix64-style finalizer is the
//! standard fast choice.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for small integer keys.
#[derive(Default)]
pub struct IntHasher {
    state: u64,
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rarely used): fold bytes into the state.
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        // SplitMix64-style finalizer: full-avalanche, one multiply chain.
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `HashMap` keyed by packed integers with the fast hasher.
pub type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;

/// Pack a `(rank, tag)` matching key.
#[inline]
pub fn match_key(src: u32, tag: u32) -> u64 {
    ((src as u64) << 32) | tag as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_key_is_injective_on_halves() {
        assert_ne!(match_key(1, 2), match_key(2, 1));
        assert_eq!(match_key(7, 9) >> 32, 7);
        assert_eq!(match_key(7, 9) & 0xFFFF_FFFF, 9);
    }

    #[test]
    fn intmap_works() {
        let mut m: IntMap<u32> = IntMap::default();
        for i in 0..1000u32 {
            m.insert(match_key(i, i * 3), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&match_key(i, i * 3)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hasher_spreads_sequential_keys() {
        // Sequential keys must not collide in low bits (HashMap uses them).
        use std::collections::HashSet;
        let mut low_bits = HashSet::new();
        for i in 0..64u64 {
            let mut h = IntHasher::default();
            h.write_u64(i);
            low_bits.insert(h.finish() & 0xFF);
        }
        // With 64 keys into 256 buckets, expect a healthy spread.
        assert!(low_bits.len() > 40, "only {} distinct low bytes", low_bits.len());
    }
}
