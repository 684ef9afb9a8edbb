//! Sweeps over completion spaces.
//!
//! Brute-force certain answers intersect (or conjoin) a query's result
//! over every completion of a naïve database into an adequate constant
//! pool. That space is a `|pool|^#nulls` grid, where for a UCQ the
//! database, its nulls and the pool are those of the part the query
//! reads (the facts of the relations it names; see
//! [`crate::certain`]). This module addresses it
//! by linear index and sweeps it in index order with early exit: once
//! the running intersection is empty (or a completion falsifies a
//! Boolean query — callers use `Iterator::all` over the index range)
//! the answer is determined. The grids are coNP-hard to
//! decide in general (Thm 7), so a fixed-width fan-out would only shave
//! a constant factor; the sweep runs on the calling thread.

use std::collections::BTreeSet;

use ca_core::store::{null_index, FactStore, ValueId};
use ca_core::value::{Null, Value};
use ca_relational::database::{NaiveDatabase, Valuation};
use ca_relational::store_bridge::to_store;

/// The space of completions of `db` into a constant pool, addressable by
/// linear index: completion `i` grounds null `j` (in sorted null order)
/// to `pool[d_j]` where `d_0 d_1 …` are the base-`|pool|` digits of `i`.
pub struct CompletionSpace<'a> {
    db: &'a NaiveDatabase,
    nulls: Vec<Null>,
    pool: &'a [i64],
    /// The database loaded once into the columnar store; completions are
    /// stamped out of it by [`FactStore::clone_remapped`] without
    /// re-interning or re-hashing anything per completion.
    base: FactStore,
    /// Pool constants pre-interned in `base` (parallel to `pool`).
    pool_ids: Vec<ValueId>,
    /// Dense null index in `base` → position in the sorted `nulls` list
    /// (the digit position in the linear completion index).
    digit_of_dense: Vec<usize>,
}

impl<'a> CompletionSpace<'a> {
    /// Set up the space. The pool may be empty only if the database has
    /// no nulls (otherwise the space is empty — see [`Self::len`]).
    pub fn new(db: &'a NaiveDatabase, pool: &'a [i64]) -> Self {
        let nulls: Vec<Null> = db.nulls().into_iter().collect();
        let mut base = to_store(db);
        let pool_ids = pool
            .iter()
            .map(|&k| base.intern_value(Value::Const(k)))
            .collect();
        // Every null in `nulls` occurs in some fact, so it is already
        // interned; map its dense store index back to its digit position.
        let mut digit_of_dense = vec![0usize; nulls.len()];
        for (pos, &n) in nulls.iter().enumerate() {
            if let Some(id) = base.lookup_value(Value::Null(n)) {
                digit_of_dense[null_index(id) as usize] = pos;
            } else {
                debug_assert!(false, "database nulls are interned by to_store");
            }
        }
        CompletionSpace {
            nulls,
            db,
            pool,
            base,
            pool_ids,
            digit_of_dense,
        }
    }

    /// Number of completions: `|pool|^#nulls` (1 when there are no nulls
    /// — the database is its own sole completion — and 0 when there are
    /// nulls but nothing to ground them to).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u128`; such a sweep could never
    /// finish anyway.
    pub fn len(&self) -> u128 {
        // A null count past u32 saturates the exponent; checked_pow then
        // overflows (pool ≥ 2 in that regime) and the documented panic
        // below fires, same as any other hopeless sweep.
        let exp = u32::try_from(self.nulls.len()).unwrap_or(u32::MAX);
        (self.pool.len() as u128)
            .checked_pow(exp)
            // ca-lint: allow(L002, reason = "deliberate documented panic (see # Panics): a sweep past u128 completions can never terminate, so failing fast beats a wrong answer")
            .expect("completion space exceeds u128 — brute force is hopeless here")
    }

    /// Is the space empty (nulls present but an empty pool)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize completion `i`.
    pub fn completion(&self, i: u128) -> NaiveDatabase {
        let mut h = Valuation::new();
        let mut rest = i;
        let base = self.pool.len() as u128;
        for &n in &self.nulls {
            h.bind(n, Value::Const(self.pool[(rest % base) as usize]));
            rest /= base;
        }
        self.db.apply(&h)
    }

    /// Materialize completion `i` directly in the columnar store: clone
    /// the base column pages with each null's id overwritten by its pool
    /// constant's id. Same digit convention as [`Self::completion`], no
    /// per-completion interning or hashing.
    pub fn completion_store(&self, i: u128) -> FactStore {
        let base = self.pool.len() as u128;
        let mut digits: Vec<ValueId> = Vec::with_capacity(self.nulls.len());
        let mut rest = i;
        for _ in &self.nulls {
            digits.push(self.pool_ids[(rest % base) as usize]);
            rest /= base;
        }
        self.base
            .clone_remapped(|dense| digits[self.digit_of_dense[dense as usize]])
    }
}

/// Intersect `eval(i)` over every `i` in `0..count`, in index order
/// with early exit once the intersection is empty. Returns `None` for
/// `count == 0` — the intersection over no sets is "everything", which
/// has no finite representation; callers choose their semantics
/// (brute-force certain answers return the empty table, documented at
/// the call site).
pub fn intersect(
    count: u128,
    eval: impl Fn(u128) -> BTreeSet<Vec<Value>>,
) -> Option<BTreeSet<Vec<Value>>> {
    if count == 0 {
        return None;
    }
    let mut acc = eval(0);
    for i in 1..count {
        if acc.is_empty() {
            break;
        }
        let next = eval(i);
        acc.retain(|row| next.contains(row));
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_relational::database::build::{c, n, table};

    #[test]
    fn completion_space_counts() {
        let db = table("R", 2, &[&[c(0), n(1)], &[n(2), c(0)]]);
        let pool = [0, 1];
        let space = CompletionSpace::new(&db, &pool);
        assert_eq!(space.len(), 4);
        for i in 0..4 {
            assert!(space.completion(i).is_complete());
        }
        // No nulls: exactly one completion, the database itself.
        let complete = table("R", 1, &[&[c(7)]]);
        let space = CompletionSpace::new(&complete, &[]);
        assert_eq!(space.len(), 1);
        assert_eq!(space.completion(0), complete);
        // Nulls but empty pool: the space is empty.
        let stuck = table("R", 1, &[&[n(1)]]);
        let space = CompletionSpace::new(&stuck, &[]);
        assert!(space.is_empty());
    }

    #[test]
    fn completion_space_matches_completions_over() {
        let db = table("R", 2, &[&[c(0), n(1)], &[n(2), n(1)]]);
        let pool = [0, 1, 2];
        let space = CompletionSpace::new(&db, &pool);
        let mut by_index: Vec<NaiveDatabase> =
            (0..space.len()).map(|i| space.completion(i)).collect();
        let mut legacy = db.completions_over(&pool);
        assert_eq!(by_index.len(), legacy.len());
        by_index.sort_by(|a, b| a.facts().cmp(b.facts()));
        legacy.sort_by(|a, b| a.facts().cmp(b.facts()));
        assert_eq!(by_index, legacy);
    }

    /// The columnar completion path grounds every null exactly as the
    /// legacy `Valuation`-based one, at every linear index — including
    /// when grounding collapses distinct facts into duplicates.
    #[test]
    fn completion_store_matches_completion() {
        use ca_relational::store_bridge::from_store;
        let db = table("R", 2, &[&[c(0), n(1)], &[n(2), n(1)], &[n(2), c(0)]]);
        let pool = [0, 1, 5];
        let space = CompletionSpace::new(&db, &pool);
        assert_eq!(space.len(), 9);
        for i in 0..space.len() {
            let store = space.completion_store(i);
            assert_eq!(from_store(&store), space.completion(i), "index {i}");
        }
        // No nulls: the sole completion is the database itself.
        let complete = table("R", 1, &[&[c(7)]]);
        let space = CompletionSpace::new(&complete, &[]);
        assert_eq!(from_store(&space.completion_store(0)), complete);
    }

    #[test]
    fn intersect_folds_in_index_order_and_exits_early() {
        // Completion i keeps rows >= i/8: over 0..20 that leaves 2..8.
        let eval = |i: u128| -> BTreeSet<Vec<Value>> {
            (0..8u8)
                .filter(|&j| u128::from(j) >= i / 8)
                .map(|j| vec![c(i64::from(j))])
                .collect()
        };
        let expected: BTreeSet<Vec<Value>> = (2..8).map(|j| vec![c(j)]).collect();
        assert_eq!(intersect(20, eval), Some(expected));
        assert!(intersect(0, eval).is_none());
        // A family that empties early stops being evaluated.
        let calls = std::cell::Cell::new(0u128);
        let empty = intersect(64, |i| {
            calls.set(calls.get() + 1);
            if i == 5 {
                BTreeSet::new()
            } else {
                BTreeSet::from([vec![c(1)]])
            }
        });
        assert_eq!(empty, Some(BTreeSet::new()));
        assert_eq!(calls.get(), 6);
    }
}
