//! Small utilities: packed message-matching keys and a fast
//! non-cryptographic hasher.
//!
//! The engine matches messages on `(source_rank, tag)` pairs packed into
//! one `u64` ([`match_key`]), so a match test is one integer compare.
//! [`IntHasher`] serves keys that need no protection from adversarial
//! input: the makespan memo's schedule fingerprints (a `Hash` walk over
//! whole rank programs) and the [`IntMap`] it files them in. SipHash is
//! needlessly slow for both.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fast hasher for integer keys and streams of integer words.
///
/// Each word is folded into the state with one rotate, xor and multiply
/// (the FxHash step), so a multi-word input depends on every word and
/// on their order; [`Hasher::finish`] then applies the SplitMix64
/// finalizer, so even a single word avalanches into every output bit.
#[derive(Default)]
pub struct IntHasher {
    state: u64,
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // SplitMix64 finalizer: full avalanche.
        let mut z = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rarely used): one word per byte.
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(0x517C_C1B7_2722_0A95);
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

    fn hash_words(words: &[u64]) -> u64 {
        let mut h = IntHasher::default();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    #[test]
    fn every_word_of_a_multi_word_input_counts() {
        // Changing any one word, or the order of two, changes the hash.
        let base = [3u64, 1 << 40, 7, 0, u64::MAX];
        let h = hash_words(&base);
        for i in 0..base.len() {
            let mut w = base;
            w[i] ^= 1;
            assert_ne!(hash_words(&w), h, "word {i} is ignored");
        }
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
        // Hashing a program list goes through the same word stream.
        use crate::program::{Instr, Program};
        use std::hash::Hash;
        let fp = |bytes: u64| {
            let mut h = IntHasher::default();
            vec![Program::from_instrs(vec![Instr::send(1, bytes, 0)]), Program::empty()].hash(&mut h);
            h.finish()
        };
        assert_ne!(fp(16), fp(32));
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
