//! A fast, deterministic hasher for the workspace's hot hash maps.
//!
//! `std`'s default `SipHash` is keyed per-process for HashDoS
//! resistance; the store's interner and the chase's row index hash
//! trusted, in-process integers on the bulk-load and chase hot paths, where
//! SipHash's per-write cost dominates. This is the Fx multiply-rotate
//! mix (as used by rustc): a few arithmetic ops per word, fixed seed, so
//! hashing is both fast and identical across runs and hosts.
//!
//! Determinism note: a fixed seed makes *hash values* reproducible, but
//! map iteration order is still insertion-dependent — the workspace
//! lint (`ca-lint` L007) keeps map iteration off deterministic-output
//! paths regardless of hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher. Not HashDoS-resistant — use only on
/// trusted in-process keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
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
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // chunks_exact yields exactly 8 bytes; the conversion cannot
            // fail, and the empty-default keeps this panic-free.
            self.add(u64::from_le_bytes(c.try_into().unwrap_or_default()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of<T: std::hash::Hash>(x: &T) -> u64 {
        let mut h = FxHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42i64), hash_of(&42i64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
    }

    #[test]
    fn distinguishes_close_keys() {
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&[1u8, 0]), hash_of(&[1u8]));
        assert_ne!(hash_of(&(-1i64)), hash_of(&1i64));
    }

    #[test]
    fn maps_work_with_integer_and_vec_keys() {
        let mut m: FxHashMap<i64, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&999));
        let mut s: FxHashSet<Vec<u32>> = FxHashSet::default();
        s.insert(vec![1, 2]);
        assert!(s.contains(&vec![1, 2][..]));
        assert!(!s.contains(&vec![2, 1][..]));
    }
}
