//! An open-addressing index of row numbers, shared by every set of
//! flat rows in the workspace: the query engine's `Distinct` buffers,
//! the chase's fact set over its column pages, and the certificate
//! checker's replayed relations.
//!
//! The index stores row numbers only; the keys stay in the caller's
//! storage, which the caller consults while probing. So a set of flat
//! rows costs one `u32` slot per row on top of the rows themselves, and
//! a probe with a key built in a reused buffer allocates nothing.

use std::hash::{Hash, Hasher};

use crate::fxhash::FxHasher;
use crate::store::dense_count;

/// An open-addressing index of row numbers whose keys live in the
/// caller's storage. The caller hashes each key with [`hash_key`] and,
/// while probing, says whether a row holds the key, so no key is stored
/// twice.
/// A row may occupy several slots (the chase re-places a row it
/// overwrites and leaves the old slot stale); the caller's test skips
/// stale rows, and [`RowIndex::reserve`] drops them when it resizes.
#[derive(Default)]
pub struct RowIndex {
    /// Row number + 1 per slot (0 = empty), linear probing. Its length is
    /// 0 or a power of two, at least twice `used`.
    slots: Vec<u32>,
    /// Occupied slots.
    used: usize,
}

impl RowIndex {
    /// Make room for one more placement. A full index (half its slots
    /// used) is cleared and resized to the least power of two that is at
    /// least 16 and at least three times `rows + 1`; then `true` tells
    /// the caller to re-place its `rows` current rows. Stale slots go
    /// with the clear, so a resize may also keep the size.
    pub fn reserve(&mut self, rows: usize) -> bool {
        if 2 * (self.used + 1) <= self.slots.len() {
            return false;
        }
        self.slots = vec![0; (3 * (rows + 1)).next_power_of_two().max(16)];
        self.used = 0;
        true
    }

    /// Empty every slot, keeping the capacity.
    pub fn clear(&mut self) {
        self.slots.fill(0);
        self.used = 0;
    }

    /// The first row on `hash`'s probe path that `is_key` accepts.
    pub fn find(&self, hash: u64, is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, is_key).ok()
    }

    /// [`RowIndex::find`], and when no row on the probe path is accepted,
    /// put `row` in the empty slot that ends it (the caller
    /// [reserved](RowIndex::reserve) room first). `|_| false` places
    /// unconditionally.
    pub fn place(&mut self, hash: u64, row: u32, is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let slot = match self.probe(hash, is_key) {
            Ok(j) => return Some(j),
            Err(slot) => slot,
        };
        self.slots[slot] = dense_count(row as usize + 1);
        self.used += 1;
        None
    }

    /// Walk `hash`'s probe path to the first accepted row, or to the
    /// empty slot that ends the path. Fx's multiply leaves the mixed bits
    /// high, so they are rotated down before masking.
    fn probe(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash.rotate_left(32) as usize & mask;
        while let Some(j) = self.slots[slot].checked_sub(1) {
            if is_key(j) {
                return Ok(j);
            }
            slot = (slot + 1) & mask;
        }
        Err(slot)
    }
}

/// The Fx hash of a key, as [`RowIndex`] probes take it.
pub fn hash_key<T: Hash>(key: &[T]) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_index_finds_places_and_reserves_across_growth() {
        // The keys live outside the index: row j holds `keys[j]`.
        let mut keys: Vec<[u32; 2]> = (0..100).map(|i| [i % 7, i]).collect();
        let at = |keys: &[[u32; 2]], j: u32| keys[j as usize];
        let mut index = RowIndex::default();
        assert_eq!(index.find(hash_key(&keys[0]), |_| true), None);
        let mut grown_at = Vec::new();
        for i in 0..100u32 {
            if index.reserve(i as usize) {
                grown_at.push(i);
                for j in 0..i {
                    index.place(hash_key(&at(&keys, j)), j, |_| false);
                }
            }
            let key = at(&keys, i);
            let is_key = |j| at(&keys, j) == key;
            assert_eq!(index.place(hash_key(&key), i, is_key), None);
            // Placing the key again finds the row that holds it.
            assert_eq!(index.place(hash_key(&key), 0, is_key), Some(i));
        }
        // 16 slots, then doubling whenever half are used.
        assert_eq!(grown_at, vec![0, 8, 16, 32, 64]);
        let find = |index: &RowIndex, keys: &[[u32; 2]], key: [u32; 2]| {
            index.find(hash_key(&key), |j| at(keys, j) == key)
        };
        for i in 0..100u32 {
            assert_eq!(find(&index, &keys, at(&keys, i)), Some(i));
        }
        assert_eq!(find(&index, &keys, [9, 9]), None);
        // Row 3 takes a new key: placed again, its old slot goes stale.
        let (old, new) = (keys[3], [500, 500]);
        keys[3] = new;
        assert_eq!(
            index.place(hash_key(&new), 3, |j| at(&keys, j) == new),
            None
        );
        assert_eq!(find(&index, &keys, old), None);
        assert_eq!(find(&index, &keys, new), Some(3));
        // A full index with few current rows resizes for those rows.
        let mut full = RowIndex::default();
        full.reserve(0);
        for j in 0..8u32 {
            full.place(hash_key(&[j]), 0, |_| false);
        }
        assert!(full.reserve(1), "8 of 16 slots used");
        assert!(!full.reserve(1), "cleared for one row");
        full.clear();
        assert_eq!(full.find(hash_key(&[0]), |_| true), None);
    }

    #[test]
    fn row_index_holds_one_stride_zero_key() {
        let empty: [u32; 0] = [];
        let mut index = RowIndex::default();
        assert!(index.reserve(0));
        assert_eq!(index.place(hash_key(&empty), 0, |_| true), None);
        assert_eq!(index.place(hash_key(&empty), 1, |_| true), Some(0));
        assert_eq!(index.find(hash_key(&empty), |_| true), Some(0));
    }
}
