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

use ca_core::store::{FactStore, ValueId};
use ca_core::symbol::Symbol;
use ca_core::value::{Null, Value};
use ca_relational::database::{NaiveDatabase, Valuation};
use ca_relational::store_bridge::to_store;

use super::rows::{Distinct, Rows};

/// The space of completions of `db` into a constant pool, addressable by
/// linear index: completion `i` grounds null `j` (in sorted null order)
/// to `pool[d_j]` where `d_0 d_1 …` are the base-`|pool|` digits of `i`.
pub struct CompletionSpace<'a> {
    db: &'a NaiveDatabase,
    nulls: Vec<Null>,
    pool: &'a [i64],
    /// The database bridged once into the columnar store;
    /// [`Self::ground`] overwrites its null cells in place, so no
    /// completion re-interns, re-hashes or clones anything.
    store: FactStore,
    /// Pool constants pre-interned in `store` (parallel to `pool`).
    pool_ids: Vec<ValueId>,
    /// Every cell of `store` that holds a null of `db`, recorded once.
    cells: Vec<NullCell>,
}

/// A cell of the bridged store that holds a null, and the digit of the
/// linear completion index (the null's position in sorted null order)
/// that grounds it.
struct NullCell {
    rel: Symbol,
    col: usize,
    row: u32,
    digit: usize,
}

impl<'a> CompletionSpace<'a> {
    /// Set up the space. The pool may be empty only if the database has
    /// no nulls (otherwise the space is empty — see [`Self::len`]).
    pub fn new(db: &'a NaiveDatabase, pool: &'a [i64]) -> Self {
        let nulls: Vec<Null> = db.nulls().into_iter().collect();
        let mut store = to_store(db);
        let pool_ids = pool
            .iter()
            .map(|&k| store.intern_value(Value::Const(k)))
            .collect();
        let mut cells = Vec::new();
        for rel in store.relations() {
            for (col, ids) in store.table(rel).cols().iter().enumerate() {
                for (row, &id) in (0u32..).zip(ids) {
                    // Every null of the store is a null of `db`, so the
                    // search hits exactly for the null cells.
                    let digit = store.value(id).as_null().map(|n| nulls.binary_search(&n));
                    if let Some(Ok(digit)) = digit {
                        cells.push(NullCell {
                            rel,
                            col,
                            row,
                            digit,
                        });
                    }
                }
            }
        }
        CompletionSpace {
            db,
            nulls,
            pool,
            store,
            pool_ids,
            cells,
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

    /// The pool positions completion `i` picks, one per null in sorted
    /// null order (digit `j` is `(i / |pool|^j) % |pool|`).
    fn digits(&self, i: u128) -> impl Iterator<Item = usize> + '_ {
        let base = self.pool.len() as u128;
        let mut rest = i;
        self.nulls.iter().map(move |_| {
            let digit = (rest % base) as usize;
            rest /= base;
            digit
        })
    }

    /// The valuation of completion `i`: each null, in sorted order, with
    /// the pool constant it is grounded to.
    pub fn valuation(&self, i: u128) -> Vec<(Null, i64)> {
        self.nulls
            .iter()
            .zip(self.digits(i))
            .map(|(&n, d)| (n, self.pool[d]))
            .collect()
    }

    /// Materialize completion `i`.
    pub fn completion(&self, i: u128) -> NaiveDatabase {
        let mut h = Valuation::new();
        for (n, k) in self.valuation(i) {
            h.bind(n, Value::Const(k));
        }
        self.db.apply(&h)
    }

    /// Ground completion `i` in the store, in place, and return the
    /// store: every recorded null cell is overwritten with the id of its
    /// pool constant (digits as in [`Self::valuation`]). Each call writes
    /// exactly the cells the previous one wrote, so nothing of an earlier
    /// grounding survives.
    ///
    /// The store keeps one row per fact of `db`, so a grounding that
    /// makes two facts equal holds that fact twice where
    /// [`Self::completion`] holds it once. Answers stay right: every
    /// consumer collects answers into deduplicating id sets.
    pub fn ground(&mut self, i: u128) -> &FactStore {
        let ids: Vec<ValueId> = self.digits(i).map(|d| self.pool_ids[d]).collect();
        for cell in &self.cells {
            self.store
                .ground_cell(cell.rel, cell.col, cell.row, ids[cell.digit]);
        }
        &self.store
    }

    /// The store every grounding is written into. Grounding never
    /// touches its interner, so it decodes any completion's value ids.
    pub(crate) fn store(&self) -> &FactStore {
        &self.store
    }
}

/// Intersect the row sets of every completion `i` in `0..count`, in
/// index order with early exit once the intersection is empty. `eval(i,
/// emit)` feeds completion `i`'s rows (interned ids, width `stride`,
/// duplicates allowed) to `emit` and must stop when `emit` returns
/// `false`. The first completion's rows seed the running intersection;
/// every later completion only marks the held rows it produces, and
/// stops as soon as all of them are marked. Ids compare across
/// completions because every grounding is written into one store with
/// one interner ([`CompletionSpace::ground`]).
///
/// Returns `None` for `count == 0` — the intersection over no sets is
/// "everything", which has no finite representation; callers choose
/// their semantics (brute-force certain answers return the empty table,
/// documented at the call site).
pub fn intersect(
    count: u128,
    stride: usize,
    mut eval: impl FnMut(u128, &mut dyn FnMut(&[ValueId]) -> bool),
) -> Option<Rows<ValueId>> {
    if count == 0 {
        return None;
    }
    let mut acc: Distinct<ValueId> = Distinct::set(stride);
    eval(0, &mut |row| {
        acc.insert_row(row);
        true
    });
    let mut seen: Vec<bool> = Vec::new();
    for i in 1..count {
        if acc.is_empty() {
            break;
        }
        seen.clear();
        seen.resize(acc.len(), false);
        let mut missing = acc.len();
        eval(i, &mut |row| {
            if let Some(j) = acc.find(row) {
                if !seen[j] {
                    seen[j] = true;
                    missing -= 1;
                }
            }
            missing > 0
        });
        if missing > 0 {
            acc.retain(|j| seen[j]);
        }
    }
    Some(acc.into_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::store::dense_count;
    use ca_relational::database::build::{c, n, table};
    use ca_relational::store_bridge::from_store;

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

    /// Grounding in place writes every null exactly as the
    /// `Valuation`-based completion does, at every linear index —
    /// including when grounding collapses distinct facts into duplicates.
    #[test]
    fn ground_matches_completion() {
        let db = table("R", 2, &[&[c(0), n(1)], &[n(2), n(1)], &[n(2), c(0)]]);
        let pool = [0, 1, 5];
        let mut space = CompletionSpace::new(&db, &pool);
        assert_eq!(space.len(), 9);
        for i in 0..space.len() {
            let want = space.completion(i);
            assert_eq!(from_store(space.ground(i)), want, "index {i}");
        }
        // No nulls: the sole completion is the database itself.
        let complete = table("R", 1, &[&[c(7)]]);
        let mut space = CompletionSpace::new(&complete, &[]);
        assert_eq!(from_store(space.ground(0)), complete);
    }

    /// `ground` overwrites the null cells with the pool ids of the
    /// chosen digits and leaves every other cell alone.
    #[test]
    fn ground_writes_pool_ids_into_null_cells() {
        let db = table("R", 2, &[&[c(1), n(1)], &[n(2), n(1)]]);
        let pool = [100, 200];
        let mut space = CompletionSpace::new(&db, &pool);
        // Index 2 = digits (0, 1): ⊥1 ↦ 100, ⊥2 ↦ 200.
        let g = space.ground(2);
        assert_eq!(g.fact_values(0), vec![c(1), c(100)]);
        assert_eq!(g.fact_values(1), vec![c(200), c(100)]);
        assert_eq!(space.valuation(2), vec![(Null(1), 100), (Null(2), 200)]);
    }

    /// Every ordered pair of groundings `ground(i)` then `ground(j)`
    /// leaves exactly completion `j`: nothing of `i` leaks through, also
    /// where `i` collapsed two facts into one.
    #[test]
    fn grounding_in_place_leaks_nothing_between_completions() {
        // ⊥1 = ⊥2 = 0 collapses R(⊥1, 0) and R(⊥2, 0); ⊥3 = 0 collapses
        // R(0, ⊥3) with R(0, 0).
        let db = table(
            "R",
            2,
            &[&[n(1), c(0)], &[n(2), c(0)], &[c(0), n(3)], &[c(0), c(0)]],
        );
        let pool = [0, 1, 2];
        let mut space = CompletionSpace::new(&db, &pool);
        assert_eq!(space.len(), 27);
        let mut collapsed = false;
        for i in 0..space.len() {
            collapsed |= space.ground(i).n_live() > dense_count(space.completion(i).facts().len());
            for j in 0..space.len() {
                space.ground(i);
                let want = space.completion(j);
                assert_eq!(from_store(space.ground(j)), want, "{i} then {j}");
            }
        }
        assert!(collapsed, "some grounding repeats a fact");
    }

    /// The ids of `rows`, sorted.
    fn ids(rows: &Rows<ValueId>) -> Vec<Vec<ValueId>> {
        let mut out: Vec<Vec<ValueId>> = rows.iter().map(<[ValueId]>::to_vec).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn intersect_folds_in_index_order_and_exits_early() {
        // Completion i emits rows j >= i/8 (each twice): over 0..20 that
        // leaves 2..8.
        let eval = |i: u128, emit: &mut dyn FnMut(&[ValueId]) -> bool| {
            for j in (0..8u32).filter(|&j| u128::from(j) >= i / 8) {
                if !emit(&[j]) || !emit(&[j]) {
                    return;
                }
            }
        };
        let expected: Vec<Vec<ValueId>> = (2..8).map(|j| vec![j]).collect();
        assert_eq!(intersect(20, 1, eval).as_ref().map(ids), Some(expected));
        assert!(intersect(0, 1, eval).is_none());
        // A family that empties early stops being evaluated.
        let mut calls = 0u128;
        let empty = intersect(64, 1, |i, emit| {
            calls += 1;
            if i != 5 {
                emit(&[1]);
            }
        });
        assert_eq!(empty.map(|rows| rows.len()), Some(0));
        assert_eq!(calls, 6);
        // Once every held row is seen, a completion stops emitting.
        let mut emitted = 0;
        let full = intersect(3, 1, |_, emit| {
            for j in 0..100u32 {
                emitted += 1;
                if !emit(&[j % 4]) {
                    return;
                }
            }
        });
        assert_eq!(full.map(|rows| rows.len()), Some(4));
        assert_eq!(emitted, 100 + 4 + 4);
        // Stride 0: the Boolean `()` survives only if every completion
        // emits it.
        let unit = intersect(4, 0, |i, emit| {
            if i != 2 {
                emit(&[]);
            }
        });
        assert_eq!(unit.map(|rows| rows.len()), Some(0));
    }
}
