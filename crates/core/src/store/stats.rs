//! Per-relation / per-column store statistics for cost-based planning.
//!
//! The query engine's join orderer prices join orders with cheap
//! summaries of a [`FactStore`]:
//!
//! * per relation: the **live row count** (read off [`RelTable::n_live`]);
//! * per column: a **distinct-value count** and the **min/max constant**.
//!
//! Nothing is kept up to date as the store mutates: [`compute_exact`]
//! derives the summaries on demand, in one column-at-a-time pass over
//! the live rows, as a deterministic pure function of what the columns
//! hold right now. Its callers are the planner's cost model (once per
//! priced store) and the snapshot loader, which validates the statistics
//! section of version-2 buffers against it.

use super::{id_is_null, null_index, FactStore, RelTable, ValueId, ValueInterner};

/// Summary of one column of one relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColStats {
    /// Number of distinct values (constants and nulls) in the column's
    /// live rows.
    pub distinct: u32,
    /// Smallest constant in the column; [`i64::MAX`] when the column
    /// holds no constant.
    pub min_const: i64,
    /// Largest constant in the column; [`i64::MIN`] when the column
    /// holds no constant.
    pub max_const: i64,
}

impl Default for ColStats {
    fn default() -> Self {
        ColStats {
            distinct: 0,
            min_const: i64::MAX,
            max_const: i64::MIN,
        }
    }
}

/// Summary of one relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelStats {
    /// Live rows of the relation.
    pub n_live: u64,
    /// Per-column summaries, one per position.
    pub cols: Vec<ColStats>,
}

/// Set bit `i` of a bitmap sized to cover it; returns whether the bit
/// was previously clear.
fn test_set(bits: &mut [u64], i: u32) -> bool {
    let mask = 1u64 << (i % 64);
    match bits.get_mut((i / 64) as usize) {
        Some(w) => {
            let fresh = *w & mask == 0;
            *w |= mask;
            fresh
        }
        None => unreachable!("seen-bitmap sized to the interned universe"),
    }
}

/// Exact statistics of the store's **live** contents, indexed by
/// `Symbol::index()`: a deterministic pure function of what the columns
/// hold right now, independent of how they got there. Dead rows
/// contribute nothing.
pub fn compute_exact(store: &FactStore) -> Vec<RelStats> {
    let values = store.values();
    // One seen-bitmap per id space, reused (cleared) for every column:
    // constants and nulls are numbered independently, so they cannot
    // share one.
    let mut const_seen = vec![0u64; values.n_consts().div_ceil(64) as usize];
    let mut null_seen = vec![0u64; values.n_nulls().div_ceil(64) as usize];
    store
        .tables
        .iter()
        .map(|table| RelStats {
            n_live: u64::from(table.n_live()),
            cols: table
                .cols()
                .iter()
                .map(|col| {
                    const_seen.fill(0);
                    null_seen.fill(0);
                    col_stats(table, col, values, &mut const_seen, &mut null_seen)
                })
                .collect(),
        })
        .collect()
}

/// One column's summary over the live rows of `table`, walking the live
/// bitmap a word at a time.
fn col_stats(
    table: &RelTable,
    col: &[ValueId],
    values: &ValueInterner,
    const_seen: &mut [u64],
    null_seen: &mut [u64],
) -> ColStats {
    let mut out = ColStats::default();
    for (word, ids) in table.live_words().iter().zip(col.chunks(64)) {
        let mut bits = *word;
        while bits != 0 {
            let Some(&id) = ids.get(bits.trailing_zeros() as usize) else {
                unreachable!("live bit past the end of its column");
            };
            bits &= bits - 1;
            if id_is_null(id) {
                if test_set(null_seen, null_index(id)) {
                    out.distinct += 1;
                }
            } else if test_set(const_seen, id) {
                out.distinct += 1;
                let c = values.const_at(id);
                out.min_const = out.min_const.min(c);
                out.max_const = out.max_const.max(c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    #[test]
    fn exact_stats_cover_appends() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        s.append(r, &[c(10), c(5)]);
        s.append(r, &[c(10), n(1)]);
        s.append(r, &[c(-3), c(5)]);
        let rs = &compute_exact(&s)[r.index()];
        assert_eq!(rs.n_live, 3);
        assert_eq!(rs.cols[0].distinct, 2, "10 and -3");
        assert_eq!((rs.cols[0].min_const, rs.cols[0].max_const), (-3, 10));
        assert_eq!(rs.cols[1].distinct, 2, "5 and one null");
        assert_eq!((rs.cols[1].min_const, rs.cols[1].max_const), (5, 5));
    }

    #[test]
    fn bulk_extend_counts_like_per_fact_appends() {
        let mut bulk = FactStore::new();
        let mut serial = FactStore::new();
        let r = bulk.add_relation("R", 2);
        serial.add_relation("R", 2);
        // 100 rows cross a live-bitmap word boundary.
        let mut flat = Vec::new();
        for i in 0..100i64 {
            let row = [c(i % 7), n((i % 3) as u32)];
            serial.append(r, &row);
            flat.extend(row.map(|v| bulk.intern_value(v)));
        }
        bulk.extend_ids(r, 100, &flat);
        let stats = compute_exact(&bulk);
        let rs = &stats[r.index()];
        assert_eq!(rs.n_live, 100);
        assert_eq!(rs.cols[0].distinct, 7);
        assert_eq!(rs.cols[1].distinct, 3);
        assert_eq!(stats, compute_exact(&serial));
    }

    #[test]
    fn rewrites_are_exact_over_the_live_rows() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        let collapsed = s.append(r, &[c(1), n(9)]);
        s.append(r, &[c(1), c(5)]);
        // ⊥9 ↦ 5 collapses the first fact onto the second: the dead row
        // and its null no longer count.
        s.set_dead(collapsed);
        let rs = &compute_exact(&s)[r.index()];
        assert_eq!(rs.n_live, 1);
        assert_eq!(rs.cols[1].distinct, 1);
        assert_eq!((rs.cols[1].min_const, rs.cols[1].max_const), (5, 5));
        // An in-place rewrite (no collapse) replaces the null by 77.
        let mut t = FactStore::new();
        let r = t.add_relation("R", 1);
        t.append(r, &[n(4)]);
        let seventy_seven = t.intern_value(c(77));
        t.set_cell(r, 0, 0, seventy_seven);
        let ts = &compute_exact(&t)[r.index()];
        assert_eq!(ts.cols[0].distinct, 1, "only 77 is live");
        assert_eq!((ts.cols[0].min_const, ts.cols[0].max_const), (77, 77));
    }

    #[test]
    fn empty_relations_and_nullary_columns() {
        let mut s = FactStore::new();
        let e = s.add_relation("E", 2);
        let z = s.add_relation("Z", 0);
        s.append(z, &[]);
        let stats = compute_exact(&s);
        assert_eq!(stats[e.index()].n_live, 0);
        assert_eq!(stats[e.index()].cols, vec![ColStats::default(); 2]);
        assert_eq!(stats[z.index()].n_live, 1);
        assert!(stats[z.index()].cols.is_empty());
    }
}
