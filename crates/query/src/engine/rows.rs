//! Flat, fixed-stride row buffers shared by the chase and the query
//! engine.
//!
//! Both engines produce many short rows of interned
//! [`ValueId`](ca_core::store::ValueId)s — the chase's triggers,
//! witnesses and satisfied valuations, the query engine's answer rows —
//! and most of those rows are duplicates. [`Rows`] keeps them in one flat
//! buffer with an explicit row count (the stride may be 0: a Boolean
//! answer or an empty frontier), so a round or an evaluation allocates a
//! handful of vectors instead of one per row. [`Distinct`] collapses
//! duplicate keys as rows arrive, through a [`RowIndex`]: an
//! open-addressing index of row numbers whose keys stay in the caller's
//! storage. The chase's fact set uses the same index over its relations'
//! column pages.

use std::hash::{Hash, Hasher};

use ca_core::fxhash::FxHasher;
use ca_core::store::dense_count;

/// Fixed-stride rows in one flat buffer. The row count is explicit,
/// since the stride may be 0.
pub struct Rows<T> {
    stride: usize,
    len: usize,
    vals: Vec<T>,
}

impl<T: Copy + Ord> Rows<T> {
    /// No rows of width `stride`.
    pub fn new(stride: usize) -> Rows<T> {
        Rows {
            stride,
            len: 0,
            vals: Vec::new(),
        }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.vals[i * self.stride..(i + 1) * self.stride]
    }

    /// The rows in buffer order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Append a row of width `stride`.
    fn push(&mut self, row: &[T]) {
        debug_assert_eq!(row.len(), self.stride);
        self.vals.extend_from_slice(row);
        self.len += 1;
    }

    /// Sort the rows and drop duplicates.
    fn sort_dedup(&mut self) {
        if self.stride == 0 {
            self.len = self.len.min(1);
            return;
        }
        let mut rows: Vec<&[T]> = self.vals.chunks_exact(self.stride).collect();
        rows.sort_unstable();
        rows.dedup();
        self.len = rows.len();
        self.vals = rows.concat();
    }

    /// Whether this sorted, unique run holds `key`, moving the cursor `at`
    /// past every smaller row: ascending probes walk the run once.
    pub fn seek(&self, at: &mut usize, key: &[T]) -> bool {
        while *at < self.len && self.row(*at) < key {
            *at += 1;
        }
        *at < self.len && self.row(*at) == key
    }

    /// Merge the key prefixes of `keyed` (sorted, unique by key) into this
    /// sorted, unique run of keys.
    pub fn merge_keys(&mut self, keyed: &Rows<T>) {
        if keyed.len == 0 {
            return;
        }
        let k = self.stride;
        let mut out = Rows::new(k);
        out.vals.reserve(self.vals.len() + keyed.len * k);
        let mut mine = self.iter().peekable();
        for key in keyed.iter().map(|entry| &entry[..k]) {
            while let Some(row) = mine.next_if(|row| *row < key) {
                out.push(row);
            }
            mine.next_if(|row| *row == key);
            out.push(key);
        }
        mine.for_each(|row| out.push(row));
        *self = out;
    }

    /// Map every value through `f`, then restore sorted, unique order.
    pub fn resolve(&mut self, f: impl Fn(T) -> T) {
        for v in &mut self.vals {
            *v = f(*v);
        }
        self.sort_dedup();
    }

    /// Keep the rows whose index `keep` accepts, in their order.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let stride = self.stride;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(i) {
                self.vals
                    .copy_within(i * stride..(i + 1) * stride, kept * stride);
                kept += 1;
            }
        }
        self.len = kept;
        self.vals.truncate(kept * stride);
    }
}

/// Rows unique by their leading `key` values, each key keeping its least
/// row. A row whose key is already held replaces the held row only when
/// it is smaller, so the buffer never holds more rows than there are
/// distinct keys, however many duplicates arrive. With `key == stride`
/// this is a set of rows. Keys are found through a [`RowIndex`] over the
/// flat rows; the index is probed, never iterated, and a sorted order
/// comes from one sort ([`Distinct::into_sorted`]).
pub struct Distinct<T> {
    key: usize,
    rows: Rows<T>,
    index: RowIndex,
}

impl<T: Copy + Ord + Hash> Distinct<T> {
    /// No rows of width `stride`, unique by their first `key` values.
    pub fn new(stride: usize, key: usize) -> Distinct<T> {
        debug_assert!(key <= stride);
        Distinct {
            key,
            rows: Rows::new(stride),
            index: RowIndex::default(),
        }
    }

    /// A set of rows of width `stride`: the whole row is the key.
    pub fn set(stride: usize) -> Distinct<T> {
        Distinct::new(stride, stride)
    }

    /// The number of distinct keys held.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// Whether no row is held.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// The held rows, in first-arrival order of their keys.
    pub fn rows(&self) -> &Rows<T> {
        &self.rows
    }

    /// Add the one row that `fill` appends to the buffer.
    pub fn insert(&mut self, fill: impl FnOnce(&mut Vec<T>)) {
        if self.index.reserve(self.rows.len) {
            self.place_all();
        }
        let start = self.rows.vals.len();
        fill(&mut self.rows.vals);
        let (stride, key) = (self.rows.stride, self.key);
        let (held, new) = self.rows.vals.split_at_mut(start);
        debug_assert_eq!(new.len(), stride);
        let is_key = |j: u32| held[j as usize * stride..][..key] == new[..key];
        let row = dense_count(self.rows.len);
        match self.index.place(hash_key(&new[..key]), row, is_key) {
            None => self.rows.len += 1,
            Some(j) => {
                let j = j as usize;
                let old = &mut held[j * stride..(j + 1) * stride];
                if *new < *old {
                    old.copy_from_slice(new);
                }
                self.rows.vals.truncate(start);
            }
        }
    }

    /// Add `row` (of width `stride`).
    pub fn insert_row(&mut self, row: &[T]) {
        self.insert(|vals| vals.extend_from_slice(row));
    }

    /// The index of the held row whose key is `key`, if any.
    pub fn find(&self, key: &[T]) -> Option<usize> {
        let is_key = |j: u32| self.rows.row(j as usize)[..self.key] == *key;
        self.index.find(hash_key(key), is_key).map(|j| j as usize)
    }

    /// Keep the rows whose index `keep` accepts, in their order.
    pub fn retain(&mut self, keep: impl FnMut(usize) -> bool) {
        self.rows.retain(keep);
        self.index.clear();
        self.place_all();
    }

    /// Place every row in the cleared index.
    fn place_all(&mut self) {
        for i in 0..self.rows.len {
            let hash = hash_key(&self.rows.row(i)[..self.key]);
            self.index.place(hash, dense_count(i), |_| false);
        }
    }

    /// The held rows, sorted.
    pub fn into_sorted(self) -> Rows<T> {
        let mut rows = self.rows;
        rows.sort_dedup();
        rows
    }

    /// The held rows, in first-arrival order of their keys.
    pub fn into_rows(self) -> Rows<T> {
        self.rows
    }
}

/// An open-addressing index of row numbers whose keys live in the
/// caller's storage: a [`Distinct`]'s flat rows, or a chased relation's
/// column pages. The caller hashes each key with [`hash_key`] and, while
/// probing, says whether a row holds the key, so no key is stored twice.
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
    fn keyed_rows_keep_the_least_row_per_key() {
        let mut d: Distinct<u32> = Distinct::new(2, 1);
        for row in [[5, 9], [5, 3], [1, 4], [5, 7], [1, 2]] {
            d.insert_row(&row);
        }
        let sorted = d.into_sorted();
        let rows: Vec<&[u32]> = sorted.iter().collect();
        assert_eq!(rows, vec![&[1, 2][..], &[5, 3][..]]);
    }

    #[test]
    fn retain_keeps_the_index_consistent() {
        let mut set: Distinct<u32> = Distinct::set(2);
        for i in 0..100u32 {
            set.insert_row(&[i, i * 2]);
        }
        set.retain(|i| i % 3 == 0);
        assert_eq!(set.len(), 34);
        assert_eq!(set.find(&[3, 6]), Some(1));
        assert_eq!(set.find(&[4, 8]), None);
        set.insert_row(&[3, 6]);
        assert_eq!(set.len(), 34);
        set.retain(|_| false);
        assert!(set.is_empty() && set.find(&[0, 0]).is_none());
        // Stride 0: the one empty row.
        let mut unit: Distinct<u32> = Distinct::set(0);
        assert_eq!(unit.find(&[]), None);
        unit.insert_row(&[]);
        unit.insert_row(&[]);
        assert_eq!((unit.len(), unit.find(&[])), (1, Some(0)));
    }

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

    #[test]
    fn sorted_runs_seek_and_merge() {
        let mut fired: Rows<u32> = Rows::new(1);
        for k in [4, 1] {
            fired.push(&[k]);
        }
        fired.sort_dedup();
        let mut keyed: Rows<u32> = Rows::new(2);
        for row in [[1, 9], [2, 8], [6, 0]] {
            keyed.push(&row);
        }
        let mut at = 0;
        assert!(!fired.seek(&mut at, &[0]));
        assert!(fired.seek(&mut at, &[1]));
        assert!(!fired.seek(&mut at, &[2]));
        assert!(fired.seek(&mut at, &[4]));
        fired.merge_keys(&keyed);
        let keys: Vec<&[u32]> = fired.iter().collect();
        assert_eq!(keys, vec![&[1][..], &[2], &[4], &[6]]);
        fired.resolve(|v| v.min(2));
        let keys: Vec<&[u32]> = fired.iter().collect();
        assert_eq!(keys, vec![&[1][..], &[2]]);
    }
}
