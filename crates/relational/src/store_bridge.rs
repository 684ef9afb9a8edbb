//! Bridge between the `Vec<Value>`-based [`NaiveDatabase`] API surface
//! and the workspace columnar store ([`ca_core::store::FactStore`]).
//!
//! The naïve-database types stay the interface for tests, the parser,
//! and the differential oracles; the engines evaluate over the columnar
//! store. [`to_store`] is the O(facts) bulk ingest (each relation's rows
//! are already deduplicated and sorted, so it appends them whole on the
//! store's unchecked path); [`from_store`] resolves the live facts back
//! to values and builds the database with one sort per relation
//! ([`NaiveDatabase::from_facts`]).
//!
//! Relation symbols are registered in schema declaration order, so a
//! bridged store's symbols are *identical* (same indices) to the
//! schema's — engines can use one symbol space for both.

use ca_core::store::{dense_count, FactStore, ValueId};

use crate::database::{Fact, NaiveDatabase};
use crate::schema::Schema;

/// Load a naïve database into a fresh columnar store.
pub fn to_store(db: &NaiveDatabase) -> FactStore {
    let mut s = FactStore::new();
    for sym in db.schema.symbols() {
        let reg = s.add_relation(db.schema.name(sym), db.schema.arity(sym));
        debug_assert_eq!(reg, sym, "store symbols mirror schema symbols");
    }
    // Each relation's rows are one flat value buffer: intern it into one
    // flat id buffer and bulk-append it with `extend_ids` (columns
    // reserve once per relation instead of growing per fact). This is the
    // bulk path behind every `DbIndex::new`, so per-fact overhead
    // matters; relation-by-relation appends assign the same fact ids as
    // a per-fact path in fact order would.
    let mut ids: Vec<ValueId> = Vec::new();
    for sym in db.schema.symbols() {
        let rows = db.relation(sym);
        ids.clear();
        ids.extend(rows.values().iter().map(|&v| s.intern_value(v)));
        s.extend_ids(sym, dense_count(rows.len()), &ids);
    }
    s
}

/// Materialize the live facts of a store as a naïve database.
pub fn from_store(s: &FactStore) -> NaiveDatabase {
    let mut schema = Schema::new();
    for rel in s.relations() {
        schema.add_relation(s.rel_name(rel), s.arity(rel));
    }
    let rows: Vec<_> = s
        .iter_live()
        .map(|f| (s.fact_rel(f), s.fact_values(f)))
        .collect();
    NaiveDatabase::from_facts(
        schema,
        rows.iter().map(|(rel, args)| Fact { rel: *rel, args }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::build::{c, n};

    fn sample() -> NaiveDatabase {
        let schema = Schema::from_relations(&[("R", 2), ("S", 1)]);
        let mut db = NaiveDatabase::new(schema);
        db.add("R", vec![c(1), n(1)]);
        db.add("R", vec![n(1), c(2)]);
        db.add("R", vec![c(1), c(2)]);
        db.add("S", vec![n(2)]);
        db.add("S", vec![c(3)]);
        db
    }

    #[test]
    fn roundtrip_is_identity() {
        let db = sample();
        let s = to_store(&db);
        assert_eq!(s.n_live(), db.len() as u32);
        assert_eq!(from_store(&s), db);
    }

    #[test]
    fn store_symbols_mirror_schema_symbols() {
        let db = sample();
        let s = to_store(&db);
        for sym in db.schema.symbols() {
            assert_eq!(s.relation(db.schema.name(sym)), Some(sym));
            assert_eq!(s.arity(sym), db.schema.arity(sym));
        }
    }

    #[test]
    fn snapshot_roundtrip_through_bytes_preserves_database() {
        let db = sample();
        let bytes = to_store(&db).to_bytes();
        let loaded = FactStore::from_bytes(&bytes).expect("snapshot loads");
        assert_eq!(from_store(&loaded), db);
    }
}
