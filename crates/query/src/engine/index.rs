//! Signature-keyed secondary indices over the columnar fact store.
//!
//! A [`DbIndex`] is built against one [`FactStore`] — owned (bridged
//! from a [`NaiveDatabase`]) or borrowed (the chase's live store, or a
//! completion the sweep grounded in place) — and cached across all the
//! disjuncts of a UCQ (and across repeated evaluations on the same
//! store). Live rows are grouped per relation once at construction;
//! postings keyed by *bound-position signatures* (the sorted positions a
//! compiled atom knows values for before matching — see
//! [`crate::engine::plan`]) are built lazily, on the first atom that
//! probes with that signature.
//! Nulls index as ordinary values (their ids carry the null tag bit),
//! which is exactly the nulls-as-values semantics of naïve evaluation.
//!
//! Two posting layouts, chosen per table deterministically from the
//! store's contents:
//!
//! * **CSR** for single-column signatures over a dense value universe:
//!   one `offsets` array indexed by value slot (constants first, then
//!   nulls) into one flat `rows` array — probe is two array reads, no
//!   hashing at all;
//! * **hash** for multi-column signatures (or when the value universe is
//!   much larger than the relation, where CSR offsets would waste
//!   memory): `Vec<ValueId> → Vec<row>`, hashing dense `u32`s instead of
//!   the old `Vec<Value>` keys.
//!
//! `DbIndex::ensure_cq` resolves a compiled CQ's signatures to table
//! handles and its plan constants to interned value ids once per
//! (plan, store) pair, so the execution inner loop probes by handle and
//! compares `u32`s with no hashing of signatures and no allocation.

use std::cell::OnceCell;
use std::collections::HashMap;

use ca_core::store::{self, FactStore, ValueId, INVALID_ID};
use ca_core::symbol::Symbol;
use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;
use ca_relational::store_bridge::to_store;

use super::cost::CostModel;
use super::plan::{CompiledCq, KeyPart};

/// Handle of an atom's index table; [`SCAN`] means "scan the whole
/// relation" — either because the atom has no bound positions, or because
/// the relation is too small for an index to pay for itself (the
/// executor then checks the bound positions per candidate instead).
pub(crate) const SCAN: usize = usize::MAX;

/// Relations smaller than this are scanned rather than indexed: building
/// postings over a handful of facts costs more than the comparisons it
/// saves, and the brute-force certain-answer sweep evaluates thousands of
/// such tiny completions.
pub(crate) const INDEX_THRESHOLD: usize = 16;

/// A CSR table wastes memory when the value universe dwarfs the
/// relation; build one only while `slots ≤ CSR_MAX_SLOT_FACTOR × rows`
/// (or the universe is trivially small). Deterministic in the store's
/// contents, so layout choice can never leak into results.
const CSR_MAX_SLOT_FACTOR: usize = 8;
const CSR_MIN_SLOTS: usize = 1024;

/// One atom's resolved access path: a posting-table handle (or [`SCAN`])
/// plus its key parts with plan constants pre-interned to value ids.
/// A constant absent from the store resolves to [`INVALID_ID`], which
/// matches no stored id — probes and scans find nothing, no special case.
pub(crate) struct AtomAccess {
    pub(crate) handle: usize,
    pub(crate) key: Vec<IdKey>,
}

/// A key part at the id level: an interned constant or a variable slot.
#[derive(Clone, Copy)]
pub(crate) enum IdKey {
    Const(ValueId),
    Slot(usize),
}

/// One lazily built posting table.
enum Table {
    /// Single-column signature over a dense universe: `offsets[slot] ..
    /// offsets[slot + 1]` indexes `rows`. Slots enumerate constants then
    /// nulls (`n_consts + null index`).
    Csr {
        n_consts: u32,
        offsets: Vec<u32>,
        rows: Vec<u32>,
    },
    /// General signature: id tuple → rows.
    Hash(HashMap<Vec<ValueId>, Vec<u32>>),
}

/// The store backing an index: owned (bridged databases) or borrowed
/// (the chase's live store, grounded completions).
enum Backing<'a> {
    Owned(Box<FactStore>),
    Borrowed(&'a FactStore),
}

/// Lazily-built secondary indices over one columnar store.
pub struct DbIndex<'a> {
    backing: Backing<'a>,
    /// Live row ids grouped per relation (indexed by `Symbol::index()`).
    by_rel: Vec<Vec<u32>>,
    /// The posting tables, addressed by handle.
    tables: Vec<Table>,
    /// `(relation, signature) → handle` — consulted only when ensuring.
    dir: HashMap<(Symbol, Vec<usize>), usize>,
    /// The cost model priced off the backing store, built on first use
    /// and shared immutably afterwards.
    model: OnceCell<CostModel>,
}

fn live_rows_by_rel(store: &FactStore) -> Vec<Vec<u32>> {
    store
        .relations()
        .map(|rel| {
            let t = store.table(rel);
            (0..t.n_rows()).filter(|&r| t.is_live(r)).collect()
        })
        .collect()
}

impl<'a> DbIndex<'a> {
    /// Bridge a naïve database into an owned store and index it. The
    /// store's relation symbols mirror the schema's, so plans compiled
    /// against the schema run unchanged.
    pub fn new(db: &'a NaiveDatabase) -> Self {
        let store = to_store(db);
        let by_rel = live_rows_by_rel(&store);
        DbIndex {
            backing: Backing::Owned(Box::new(store)),
            by_rel,
            tables: Vec::new(),
            dir: HashMap::new(),
            model: OnceCell::new(),
        }
    }

    /// Index a borrowed store — the chase borrows its live store per
    /// round, the completion sweep each grounding. Row lists snapshot
    /// the live rows at construction; facts inserted afterwards are
    /// *not* visible through this index.
    pub fn over(store: &'a FactStore) -> Self {
        let by_rel = live_rows_by_rel(store);
        DbIndex {
            backing: Backing::Borrowed(store),
            by_rel,
            tables: Vec::new(),
            dir: HashMap::new(),
            model: OnceCell::new(),
        }
    }

    /// The store behind this index.
    pub fn store(&self) -> &FactStore {
        match &self.backing {
            Backing::Owned(s) => s,
            Backing::Borrowed(s) => s,
        }
    }

    /// The cost model priced off the backing store. Built on the first
    /// call, from statistics computed then in one pass over the live
    /// rows; later store mutations do not flow in, matching the index's
    /// own row-list snapshot semantics.
    pub fn model(&self) -> &CostModel {
        self.model
            .get_or_init(|| CostModel::from_store(self.store()))
    }

    /// Live row ids of a relation (in row order).
    pub(crate) fn rows(&self, rel: Symbol) -> &[u32] {
        &self.by_rel[rel.index()]
    }

    /// The column pages of a relation.
    pub(crate) fn cols(&self, rel: Symbol) -> &[Vec<ValueId>] {
        self.store().table(rel).cols()
    }

    /// The value behind an id (for head-row translation).
    pub(crate) fn value(&self, id: ValueId) -> Value {
        self.store().value(id)
    }

    /// Resolve an atom's key parts to the id level without touching the
    /// posting tables (used by scan paths).
    pub(crate) fn resolve_key(&self, key: &[KeyPart]) -> Vec<IdKey> {
        let values = self.store().values();
        key.iter()
            .map(|kp| match kp {
                KeyPart::Const(v) => IdKey::Const(values.lookup(*v).unwrap_or(INVALID_ID)),
                KeyPart::Slot(s) => IdKey::Slot(*s),
            })
            .collect()
    }

    /// The CSR slot of a value id: constants first, then nulls.
    /// [`INVALID_ID`] maps past every slot, so probes find nothing.
    fn csr_slot(n_consts: u32, id: ValueId) -> usize {
        if id == INVALID_ID {
            usize::MAX
        } else if store::id_is_null(id) {
            (n_consts + store::null_index(id)) as usize
        } else {
            id as usize
        }
    }

    /// Make sure every posting table the plan probes with exists,
    /// returning one access path per atom ([`SCAN`] handles for scan
    /// atoms). Called once per (plan, store) pair before execution, so
    /// the execution loop can borrow the index immutably and probe by
    /// handle.
    pub(crate) fn ensure_cq(&mut self, cq: &CompiledCq) -> Vec<AtomAccess> {
        cq.atoms
            .iter()
            .map(|atom| {
                let key = self.resolve_key(&atom.key);
                if atom.sig.is_empty() || self.by_rel[atom.rel.index()].len() < INDEX_THRESHOLD {
                    return AtomAccess { handle: SCAN, key };
                }
                if let Some(&h) = self.dir.get(&(atom.rel, atom.sig.clone())) {
                    return AtomAccess { handle: h, key };
                }
                let h = self.build_table(atom.rel, &atom.sig);
                self.dir.insert((atom.rel, atom.sig.clone()), h);
                AtomAccess { handle: h, key }
            })
            .collect()
    }

    /// Build the posting table for `(rel, sig)`, returning its handle.
    fn build_table(&mut self, rel: Symbol, sig: &[usize]) -> usize {
        let store = match &self.backing {
            Backing::Owned(s) => &**s,
            Backing::Borrowed(s) => *s,
        };
        let rows = &self.by_rel[rel.index()];
        let cols = store.table(rel).cols();
        let values = store.values();
        let n_consts = values.n_consts();
        let n_slots = (n_consts + values.n_nulls()) as usize;
        let table = match sig {
            &[pos] if n_slots <= CSR_MIN_SLOTS.max(CSR_MAX_SLOT_FACTOR * rows.len()) => {
                // Two-pass CSR: count per slot, prefix-sum, then place.
                let col = &cols[pos];
                let mut offsets = vec![0u32; n_slots + 1];
                for &row in rows {
                    offsets[Self::csr_slot(n_consts, col[row as usize]) + 1] += 1;
                }
                for s in 1..offsets.len() {
                    offsets[s] += offsets[s - 1];
                }
                let mut cursor = offsets.clone();
                let mut out = vec![0u32; rows.len()];
                for &row in rows {
                    let slot = Self::csr_slot(n_consts, col[row as usize]);
                    out[cursor[slot] as usize] = row;
                    cursor[slot] += 1;
                }
                Table::Csr {
                    n_consts,
                    offsets,
                    rows: out,
                }
            }
            _ => {
                let mut map: HashMap<Vec<ValueId>, Vec<u32>> = HashMap::new();
                for &row in rows {
                    let key: Vec<ValueId> = sig.iter().map(|&p| cols[p][row as usize]).collect();
                    map.entry(key).or_default().push(row);
                }
                Table::Hash(map)
            }
        };
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// Row ids matching `key` on the table behind `handle`.
    pub(crate) fn probe(&self, handle: usize, key: &[ValueId]) -> &[u32] {
        match &self.tables[handle] {
            Table::Csr {
                n_consts,
                offsets,
                rows,
            } => {
                let &[id] = key else { return &[] };
                let slot = Self::csr_slot(*n_consts, id);
                let hi_slot = slot.checked_add(1).and_then(|s| offsets.get(s));
                let (Some(&lo), Some(&hi)) = (offsets.get(slot), hi_slot) else {
                    return &[];
                };
                rows.get(lo as usize..hi as usize).unwrap_or(&[])
            }
            Table::Hash(map) => map.get(key).map_or(&[], Vec::as_slice),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_relational::database::build::{c, n, table};

    #[test]
    fn rows_group_by_relation() {
        let db = table("R", 2, &[&[c(1), c(2)], &[c(2), c(3)]]);
        let idx = DbIndex::new(&db);
        let rel = db.schema.relation("R").unwrap();
        assert_eq!(idx.rows(rel).len(), 2);
    }

    #[test]
    fn small_relations_are_scanned_not_indexed() {
        use crate::ast::{Atom, ConjunctiveQuery, Term};
        let db = table("R", 2, &[&[n(1), c(2)], &[n(2), c(2)], &[c(5), c(9)]]);
        let mut idx = DbIndex::new(&db);
        let q = ConjunctiveQuery::with_head(
            vec![0],
            vec![Atom::new("R", vec![Term::Var(0), Term::Const(2)])],
        );
        let plan = CompiledCq::compile(&q, &db.schema).unwrap();
        // Three facts < INDEX_THRESHOLD: no table is built.
        let access = idx.ensure_cq(&plan);
        assert_eq!(access.len(), 1);
        assert_eq!(access[0].handle, SCAN);
        assert!(idx.tables.is_empty());
    }

    #[test]
    fn nulls_index_as_values_and_handles_are_shared() {
        use crate::ast::{Atom, ConjunctiveQuery, Term};
        // INDEX_THRESHOLD facts, so the posting table is actually built.
        let rows: Vec<Vec<Value>> = (0..INDEX_THRESHOLD as i64 - 2)
            .map(|i| vec![c(100 + i), c(9)])
            .chain([vec![n(1), c(2)], vec![n(2), c(2)]])
            .collect();
        let refs: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
        let db = table("R", 2, &refs);
        let mut idx = DbIndex::new(&db);
        // Q(x) ← R(x, 2): signature {1}.
        let q = ConjunctiveQuery::with_head(
            vec![0],
            vec![Atom::new("R", vec![Term::Var(0), Term::Const(2)])],
        );
        let plan = CompiledCq::compile(&q, &db.schema).unwrap();
        let access = idx.ensure_cq(&plan);
        assert_eq!(access.len(), 1);
        let handle = access[0].handle;
        assert_ne!(handle, SCAN);
        // Nulls are grouped as ordinary values; probe keys are ids.
        let id2 = idx.store().lookup_value(c(2)).unwrap();
        let id9 = idx.store().lookup_value(c(9)).unwrap();
        assert_eq!(idx.probe(handle, &[id2]).len(), 2);
        assert_eq!(idx.probe(handle, &[id9]).len(), INDEX_THRESHOLD - 2);
        assert!(idx.probe(handle, &[INVALID_ID]).is_empty());
        // Re-ensuring the same signature reuses the table.
        let again = idx.ensure_cq(&plan);
        assert_eq!(handle, again[0].handle);
        assert_eq!(idx.tables.len(), 1);
        // Single-column signature over a small universe: the CSR layout.
        assert!(matches!(idx.tables[handle], Table::Csr { .. }));
    }

    #[test]
    fn absent_plan_constants_resolve_to_invalid_and_match_nothing() {
        use crate::ast::{Atom, ConjunctiveQuery, Term};
        let rows: Vec<Vec<Value>> = (0..INDEX_THRESHOLD as i64)
            .map(|i| vec![c(i), c(i + 1)])
            .collect();
        let refs: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
        let db = table("R", 2, &refs);
        let mut idx = DbIndex::new(&db);
        // Q(x) ← R(x, 999): 999 is not in the store.
        let q = ConjunctiveQuery::with_head(
            vec![0],
            vec![Atom::new("R", vec![Term::Var(0), Term::Const(999)])],
        );
        let plan = CompiledCq::compile(&q, &db.schema).unwrap();
        let access = idx.ensure_cq(&plan);
        let [IdKey::Const(id)] = access[0].key.as_slice() else {
            panic!("one const key part expected");
        };
        assert_eq!(*id, INVALID_ID);
        assert!(idx.probe(access[0].handle, &[*id]).is_empty());
    }

    #[test]
    fn borrowed_store_indexes_only_live_rows() {
        use ca_core::store::FactStore;
        use ca_core::value::Null;
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        s.insert(r, &[c(1), n(7)]);
        s.insert(r, &[c(1), c(3)]);
        // Collapse the null fact onto the ground one: one live row left.
        s.rewrite(&[Null(7)], |v| if v == n(7) { c(3) } else { v });
        let idx = DbIndex::over(&s);
        assert_eq!(idx.rows(r).len(), 1);
    }
}
