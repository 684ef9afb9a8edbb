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
//! duplicate keys as rows arrive, through a [`RowIndex`]: the
//! workspace's one open-addressing index of row numbers whose keys stay
//! in the caller's storage ([`ca_core::rows`], which the chase's fact set
//! and the certificate checker probe too).

use std::hash::Hash;

use ca_core::rows::{hash_key, RowIndex};
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
