//! The workspace-wide columnar interned fact store.
//!
//! Every engine in this workspace (the compiled join engine, the
//! semi-naive chase, the CSP translation, the completion sweep) used to
//! re-intern values and re-group facts at its own crate boundary. This
//! module is the shared substrate they now build on:
//!
//! * a **global value interner** ([`ValueInterner`]) mapping
//!   [`Value::Const`]/[`Value::Null`] to dense `u32` [`ValueId`]s. The
//!   constant/null distinction is recoverable from the id alone via the
//!   [`NULL_TAG`] bit, so engines branch on the sort of a value without
//!   any table lookup;
//! * **per-relation column-major fact arrays** ([`RelTable`]): `arity`
//!   parallel `Vec<ValueId>` columns plus a live-flag bitmap, with stable
//!   dense [`FactId`]s and O(1) append;
//! * a **null-occurrence index** (null → facts mentioning it), the
//!   store-level secondary index the chase's egd phase rewrites through;
//! * a versioned little-endian binary **snapshot format**
//!   ([`snapshot`]): header + interner table + column pages, read back in
//!   one validating forward pass ([`FactStore::from_bytes`]).
//!
//! Secondary *join* indices (value → row postings keyed by bound-position
//! signatures) are built lazily by `ca_query::engine::index` over a
//! borrowed store; they are per-(plan, store) artifacts and live with the
//! evaluation, not with the data.
//!
//! The `Vec<Value>`-based `NaiveDatabase`/`GenDb` types remain the API
//! surface for tests and the differential oracles; `ca-relational`
//! provides the `to_store`/`from_store` bridge.

pub mod ingest;
pub mod snapshot;
pub mod stats;

use crate::fxhash::FxHashMap;
use std::collections::hash_map::Entry;

use crate::symbol::{Interner, Symbol};
use crate::value::{Null, Value};

pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use stats::{ColStats, RelStats};

/// A dense interned value id. Constant ids are `0..n_consts` in interning
/// order; null ids carry the [`NULL_TAG`] bit over a dense index
/// `0..n_nulls`. Ids are only meaningful relative to the
/// [`ValueInterner`] that produced them.
pub type ValueId = u32;

/// The tag bit distinguishing null ids from constant ids. An id with this
/// bit set denotes the null at dense index [`null_index`]; an id without
/// it denotes the constant at that index.
pub const NULL_TAG: ValueId = 1 << 31;

/// A sentinel id matching no stored value (all bits set: a "null" at an
/// index the interner can never allocate). Plan constants absent from a
/// store resolve to this, so equality probes against it simply find
/// nothing — no special-casing on the hot path.
pub const INVALID_ID: ValueId = u32::MAX;

/// Does this id denote a null?
#[inline]
pub const fn id_is_null(id: ValueId) -> bool {
    id & NULL_TAG != 0
}

/// The dense null index behind a null id.
#[inline]
pub const fn null_index(id: ValueId) -> u32 {
    id & !NULL_TAG
}

/// The most columns one store may declare: the summed arity of its
/// relations. A snapshot spends no bytes on the columns of a zero-row
/// relation, so no byte count bounds arity; this budget does, for the
/// snapshot reader, the CSV loader and [`FactStore::add_relation`] alike.
pub const MAX_COLUMNS: usize = 1 << 16;

/// A stable dense fact id, global across relations, assigned in insertion
/// order and never reused (dead facts keep their id).
pub type FactId = u32;

/// Checked narrowing of a count into the dense `u32` id space shared by
/// [`ValueId`], [`FactId`], row numbers and [`Symbol`] indices. A
/// truncating `as` cast here would wrap and silently alias an unrelated
/// value or fact, so overflow aborts instead.
#[inline]
#[track_caller]
pub fn dense_count(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(v) => v,
        // ca-lint: allow(L002, reason = "deliberate documented panic: overflowing the dense u32 id space must abort, a wrapped id aliases unrelated values or facts")
        Err(_) => panic!("dense id space overflow: {n} does not fit in u32"),
    }
}

/// Checked `+ 1` on a dense `u32` counter; see [`dense_count`].
#[inline]
#[track_caller]
fn dense_inc(n: u32) -> u32 {
    match n.checked_add(1) {
        Some(v) => v,
        // ca-lint: allow(L002, reason = "deliberate documented panic: overflowing the dense u32 id space must abort, a wrapped id aliases unrelated values or facts")
        None => panic!("dense id space overflow: counter past u32::MAX"),
    }
}

/// Checked addition on dense `u32` counters; see [`dense_count`].
#[inline]
#[track_caller]
fn dense_add(a: u32, b: u32) -> u32 {
    match a.checked_add(b) {
        Some(v) => v,
        // ca-lint: allow(L002, reason = "deliberate documented panic: overflowing the dense u32 id space must abort, a wrapped id aliases unrelated values or facts")
        None => panic!("dense id space overflow: {a} + {b} past u32::MAX"),
    }
}

/// The global value interner: constants and nulls each get dense ids, in
/// first-interning order.
#[derive(Clone, Debug, Default)]
pub struct ValueInterner {
    consts: Vec<i64>,
    nulls: Vec<u32>,
    by_const: FxHashMap<i64, ValueId>,
    by_null: FxHashMap<u32, ValueId>,
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a value, returning its id (existing or fresh).
    pub fn intern(&mut self, v: Value) -> ValueId {
        match v {
            Value::Const(c) => match self.by_const.entry(c) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = dense_count(self.consts.len());
                    debug_assert!(id < NULL_TAG, "constant universe exceeds 2^31");
                    self.consts.push(c);
                    *e.insert(id)
                }
            },
            Value::Null(Null(n)) => match self.by_null.entry(n) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let idx = dense_count(self.nulls.len());
                    debug_assert!(idx < !NULL_TAG, "null universe exceeds 2^31 - 1");
                    self.nulls.push(n);
                    *e.insert(NULL_TAG | idx)
                }
            },
        }
    }

    /// Look up a value's id without interning. Absent values resolve to
    /// `None`; callers that want a never-matching probe id use
    /// [`INVALID_ID`].
    pub fn lookup(&self, v: Value) -> Option<ValueId> {
        match v {
            Value::Const(c) => self.by_const.get(&c).copied(),
            Value::Null(Null(n)) => self.by_null.get(&n).copied(),
        }
    }

    /// The value behind an id produced by this interner.
    ///
    /// Indexing invariant: `id` must come from this interner (ids are
    /// dense, so a foreign id either aliases another value or is out of
    /// range).
    pub fn value(&self, id: ValueId) -> Value {
        if id_is_null(id) {
            Value::Null(Null(self.nulls[null_index(id) as usize]))
        } else {
            Value::Const(self.consts[id as usize])
        }
    }

    /// Number of interned constants.
    pub fn n_consts(&self) -> u32 {
        dense_count(self.consts.len())
    }

    /// Number of interned nulls.
    pub fn n_nulls(&self) -> u32 {
        dense_count(self.nulls.len())
    }

    /// Total interned values.
    pub fn len(&self) -> usize {
        self.consts.len().saturating_add(self.nulls.len())
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.consts.is_empty() && self.nulls.is_empty()
    }

    /// The constant at dense index `i` (interning order).
    pub fn const_at(&self, i: u32) -> i64 {
        match self.consts.get(i as usize) {
            Some(&c) => c,
            // Same indexing invariant as [`Self::value`]: dense indices
            // come from this interner.
            None => unreachable!("constant index {i} out of range"),
        }
    }

    /// The null label at dense index `i` (interning order).
    pub fn null_at(&self, i: u32) -> u32 {
        match self.nulls.get(i as usize) {
            Some(&n) => n,
            None => unreachable!("null index {i} out of range"),
        }
    }
}

/// One relation's column-major fact pages: `arity` parallel id columns
/// plus a live bitmap. Rows are appended, never removed; a dead row keeps
/// its slot (and its global [`FactId`]) but is skipped by scans.
#[derive(Clone, Debug)]
pub struct RelTable {
    arity: usize,
    n_rows: u32,
    n_live: u32,
    cols: Vec<Vec<ValueId>>,
    live: Vec<u64>,
}

impl RelTable {
    fn new(arity: usize) -> Self {
        RelTable {
            arity,
            n_rows: 0,
            n_live: 0,
            cols: vec![Vec::new(); arity],
            live: Vec::new(),
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total rows (live and dead).
    pub fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Live rows.
    pub fn n_live(&self) -> u32 {
        self.n_live
    }

    /// The parallel id columns (each of length [`Self::n_rows`]).
    pub fn cols(&self) -> &[Vec<ValueId>] {
        &self.cols
    }

    /// One column.
    pub fn col(&self, c: usize) -> &[ValueId] {
        &self.cols[c]
    }

    /// Is the row live?
    pub fn is_live(&self, row: u32) -> bool {
        self.live
            .get((row / 64) as usize)
            .is_some_and(|w| (w >> (row % 64)) & 1 == 1)
    }

    /// Append a row (O(1) amortized), returning its row index.
    fn push_row(&mut self, ids: &[ValueId]) -> u32 {
        debug_assert_eq!(ids.len(), self.arity, "row arity mismatch");
        let row = self.n_rows;
        for (col, &id) in self.cols.iter_mut().zip(ids) {
            col.push(id);
        }
        let word = (row / 64) as usize;
        let bit = 1u64 << (row % 64);
        match self.live.get_mut(word) {
            Some(w) => *w |= bit,
            // Rows fill the bitmap densely, so the next word is at most
            // one past the end.
            None => self.live.push(bit),
        }
        self.n_rows = dense_inc(self.n_rows);
        self.n_live = dense_inc(self.n_live);
        row
    }

    /// Bulk append `n` rows given row-major in `flat` (`n × arity` ids):
    /// each column is reserved **once** and filled in a single stride
    /// pass, and the live bitmap grows word-at-a-time — the per-fact
    /// [`Self::push_row`] bookkeeping (per-column push, per-bit bitmap
    /// update, two checked increments) collapses into one pass per
    /// column. Returns the first new row index.
    fn extend_rows(&mut self, n: u32, flat: &[ValueId]) -> u32 {
        debug_assert_eq!(flat.len(), self.arity * n as usize, "flat buffer shape");
        let first = self.n_rows;
        let new_rows = dense_add(self.n_rows, n);
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.reserve(n as usize);
            col.extend(flat.iter().skip(c).step_by(self.arity).copied());
        }
        // Set bits [first, first + n): fill the partial head word, then
        // whole words, then the partial tail word.
        let mut row = first;
        while row < new_rows {
            let word = (row / 64) as usize;
            let lo = row % 64;
            let span = (64 - lo).min(new_rows - row);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << lo
            };
            match self.live.get_mut(word) {
                Some(w) => *w |= mask,
                // Rows fill the bitmap densely, so the next word is at
                // most one past the end.
                None => self.live.push(mask),
            }
            row += span;
        }
        self.n_rows = new_rows;
        self.n_live = dense_add(self.n_live, n);
        first
    }

    fn set_dead(&mut self, row: u32) {
        let word = (row / 64) as usize;
        let bit = 1u64 << (row % 64);
        if let Some(w) = self.live.get_mut(word) {
            if *w & bit != 0 {
                *w &= !bit;
                self.n_live -= 1;
            }
        }
    }

    /// The raw live-bitmap words (exactly ⌈n_rows/64⌉ of them; bits at
    /// or beyond `n_rows` are always zero).
    pub fn live_words(&self) -> &[u64] {
        &self.live
    }

    /// Reassemble a table from validated snapshot parts.
    fn from_parts(
        arity: usize,
        n_rows: u32,
        n_live: u32,
        cols: Vec<Vec<ValueId>>,
        live: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(cols.len(), arity);
        RelTable {
            arity,
            n_rows,
            n_live,
            cols,
            live,
        }
    }

    /// Write new ids into an existing row (egd rewrites mutate in place).
    fn overwrite_row(&mut self, row: u32, ids: &[ValueId]) {
        debug_assert_eq!(ids.len(), self.arity, "row arity mismatch");
        for (col, &id) in self.cols.iter_mut().zip(ids) {
            col[row as usize] = id;
        }
    }
}

/// The columnar interned fact store. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct FactStore {
    rel_names: Interner,
    arities: Vec<usize>,
    tables: Vec<RelTable>,
    values: ValueInterner,
    /// Global fact directory: fact id → relation / row-in-relation.
    fact_rel: Vec<Symbol>,
    fact_row: Vec<u32>,
    /// `(relation, id tuple) → fact id`; keys always describe the live
    /// tuple of their id, so lookups never resurrect a collapsed fact.
    intern: FxHashMap<(Symbol, Vec<ValueId>), FactId>,
    /// Dense null index → facts whose tuple has (or once had) that null.
    /// Tolerates stale entries; rewrites re-check liveness.
    occ: Vec<Vec<FactId>>,
    /// The dedup/occurrence maps mirror the columns. Bulk appends clear
    /// this; the next deduplicating operation rebuilds both maps in one
    /// deterministic pass over the columns.
    maps_built: bool,
}

impl Default for FactStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FactStore {
    /// An empty store with no relations.
    pub fn new() -> Self {
        FactStore {
            rel_names: Interner::new(),
            arities: Vec::new(),
            tables: Vec::new(),
            values: ValueInterner::new(),
            fact_rel: Vec::new(),
            fact_row: Vec::new(),
            intern: FxHashMap::default(),
            occ: Vec::new(),
            maps_built: true,
        }
    }

    // ------------------------------------------------------ relations

    /// Add a relation; returns its symbol. Re-adding with the same arity
    /// is a no-op; re-adding with a different arity, or going past
    /// [`MAX_COLUMNS`] columns in all, is a construction bug (asserted).
    pub fn add_relation(&mut self, name: &str, arity: usize) -> Symbol {
        if let Some(sym) = self.rel_names.get(name) {
            assert_eq!(
                self.arities[sym.index()],
                arity,
                "relation {name} redeclared with different arity"
            );
            return sym;
        }
        assert!(
            self.n_columns().saturating_add(arity) <= MAX_COLUMNS,
            "relation {name} of arity {arity} takes the store past MAX_COLUMNS columns"
        );
        let sym = self.rel_names.intern(name);
        self.arities.push(arity);
        self.tables.push(RelTable::new(arity));
        sym
    }

    /// The summed arity of this store's relations (see [`MAX_COLUMNS`]).
    fn n_columns(&self) -> usize {
        self.arities.iter().sum()
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Option<Symbol> {
        self.rel_names.get(name)
    }

    /// The name of a relation of this store (empty for foreign symbols).
    pub fn rel_name(&self, rel: Symbol) -> &str {
        debug_assert!(rel.index() < self.arities.len(), "foreign relation symbol");
        self.rel_names.resolve(rel).unwrap_or("")
    }

    /// The arity of a relation.
    pub fn arity(&self, rel: Symbol) -> usize {
        self.arities[rel.index()]
    }

    /// Number of relations.
    pub fn n_relations(&self) -> usize {
        self.arities.len()
    }

    /// Iterate over all relation symbols in declaration order.
    pub fn relations(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..dense_count(self.arities.len())).map(Symbol)
    }

    /// The column table of a relation.
    pub fn table(&self, rel: Symbol) -> &RelTable {
        &self.tables[rel.index()]
    }

    // --------------------------------------------------------- values

    /// The value interner.
    pub fn values(&self) -> &ValueInterner {
        &self.values
    }

    /// Intern a value into the store's universe.
    pub fn intern_value(&mut self, v: Value) -> ValueId {
        self.values.intern(v)
    }

    /// Look up a value's id without interning.
    pub fn lookup_value(&self, v: Value) -> Option<ValueId> {
        self.values.lookup(v)
    }

    /// The value behind an id of this store.
    pub fn value(&self, id: ValueId) -> Value {
        self.values.value(id)
    }

    // ---------------------------------------------------------- facts

    /// Total facts ever inserted (live and dead).
    pub fn n_facts(&self) -> u32 {
        dense_count(self.fact_rel.len())
    }

    /// Live facts.
    pub fn n_live(&self) -> u32 {
        self.tables.iter().map(RelTable::n_live).sum()
    }

    /// The relation of a fact.
    pub fn fact_rel(&self, f: FactId) -> Symbol {
        self.fact_rel[f as usize]
    }

    /// The row of a fact within its relation's table.
    pub fn fact_row(&self, f: FactId) -> u32 {
        self.fact_row[f as usize]
    }

    /// Is the fact live? A fact id this store never issued is not live.
    pub fn is_live(&self, f: FactId) -> bool {
        let (Some(rel), Some(&row)) =
            (self.fact_rel.get(f as usize), self.fact_row.get(f as usize))
        else {
            return false;
        };
        self.tables.get(rel.index()).is_some_and(|t| t.is_live(row))
    }

    /// Iterate over the live fact ids, in fact-id (= creation) order.
    pub fn iter_live(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.n_facts()).filter(move |&f| self.is_live(f))
    }

    /// Append a fact's value ids to `buf` (columns gathered into a row).
    ///
    /// Directory invariant: `f` was issued by this store, so its relation
    /// and row exist and every column covers the row.
    pub fn fact_ids_into(&self, f: FactId, buf: &mut Vec<ValueId>) {
        let (rel, row) = match (self.fact_rel.get(f as usize), self.fact_row.get(f as usize)) {
            (Some(rel), Some(&row)) => (rel, row as usize),
            _ => unreachable!("foreign fact id {f}"),
        };
        let table = match self.tables.get(rel.index()) {
            Some(t) => t,
            None => unreachable!("fact {f} names an undeclared relation"),
        };
        buf.extend(table.cols().iter().map(|col| match col.get(row) {
            Some(&id) => id,
            None => unreachable!("fact {f} row {row} past its column"),
        }));
    }

    /// A fact's tuple, resolved back to [`Value`]s.
    pub fn fact_values(&self, f: FactId) -> Vec<Value> {
        let table = &self.tables[self.fact_rel[f as usize].index()];
        let row = self.fact_row[f as usize] as usize;
        table
            .cols()
            .iter()
            .map(|col| self.values.value(col[row]))
            .collect()
    }

    /// Append a fact **without** duplicate checking — O(1), for bulk
    /// ingest of already-deduplicated data (the `NaiveDatabase` bridge).
    /// Invalidates the dedup/occurrence maps; the next deduplicating
    /// operation rebuilds them in one pass.
    pub fn append(&mut self, rel: Symbol, tuple: &[Value]) -> FactId {
        let ids: Vec<ValueId> = tuple.iter().map(|&v| self.values.intern(v)).collect();
        self.append_ids(rel, &ids)
    }

    /// Id-level [`Self::append`].
    pub fn append_ids(&mut self, rel: Symbol, ids: &[ValueId]) -> FactId {
        let f = dense_count(self.fact_rel.len());
        let row = self.tables[rel.index()].push_row(ids);
        self.fact_rel.push(rel);
        self.fact_row.push(row);
        self.maps_built = false;
        f
    }

    /// Bulk [`Self::append_ids`]: append `n` facts of one relation from a
    /// row-major id buffer (`n × arity` ids, row after row). Columns are
    /// reserved once and filled in one stride pass each instead of
    /// per-fact pushes — the fast path behind the `NaiveDatabase` bridge
    /// and the streaming bulk loader ([`ingest`]). Fact ids are issued
    /// contiguously in row order; returns the first one (meaningless when
    /// `n == 0` — nothing was appended). Like [`Self::append_ids`] this
    /// skips duplicate checking and invalidates the dedup/occurrence
    /// maps.
    pub fn extend_ids(&mut self, rel: Symbol, n: u32, flat: &[ValueId]) -> FactId {
        let f = dense_count(self.fact_rel.len());
        if n == 0 {
            return f;
        }
        let table = match self.tables.get_mut(rel.index()) {
            Some(t) => t,
            None => unreachable!("extend into undeclared relation {rel:?}"),
        };
        let first_row = table.extend_rows(n, flat);
        dense_count(self.fact_rel.len().saturating_add(n as usize)); // overflow aborts before the pushes
        self.fact_rel.extend(std::iter::repeat_n(rel, n as usize));
        self.fact_row.extend(first_row..dense_add(first_row, n));
        self.maps_built = false;
        f
    }

    /// Intern a fact: `Some(id)` iff it is new (callers delta-track it),
    /// `None` when an identical live fact already exists.
    pub fn insert(&mut self, rel: Symbol, tuple: &[Value]) -> Option<FactId> {
        let ids: Vec<ValueId> = tuple.iter().map(|&v| self.values.intern(v)).collect();
        self.insert_ids(rel, ids)
    }

    /// Id-level [`Self::insert`].
    pub fn insert_ids(&mut self, rel: Symbol, ids: Vec<ValueId>) -> Option<FactId> {
        self.ensure_maps();
        self.grow_occ();
        let FactStore {
            tables,
            fact_rel,
            fact_row,
            intern,
            occ,
            ..
        } = self;
        match intern.entry((rel, ids)) {
            Entry::Occupied(_) => None,
            Entry::Vacant(v) => {
                let f = dense_count(fact_rel.len());
                let key_ids = &v.key().1;
                let row = match tables.get_mut(rel.index()) {
                    Some(t) => t.push_row(key_ids),
                    None => unreachable!("insert into undeclared relation {rel:?}"),
                };
                for &id in key_ids {
                    if id_is_null(id) {
                        match occ.get_mut(null_index(id) as usize) {
                            Some(facts) => facts.push(f),
                            // grow_occ above sized `occ` to the interned
                            // null universe.
                            None => unreachable!("occurrence index not grown for {id}"),
                        }
                    }
                }
                v.insert(f);
                fact_rel.push(rel);
                fact_row.push(row);
                Some(f)
            }
        }
    }

    /// Facts whose tuple mentions (or once mentioned) the null — the
    /// store-level null-occurrence index the chase rewrites through.
    /// Entries may be stale (the fact may since have been rewritten or
    /// collapsed); consumers re-check liveness and current contents.
    pub fn occurrences(&mut self, n: Null) -> &[FactId] {
        self.ensure_maps();
        match self.values.lookup(Value::Null(n)) {
            Some(id) => self
                .occ
                .get(null_index(id) as usize)
                .map_or(&[], Vec::as_slice),
            None => &[],
        }
    }

    /// Rewrite every live fact mentioning one of the `merged` nulls
    /// through `subst`, returning the ids whose tuple changed in place.
    /// A fact whose rewritten tuple collides with an existing fact
    /// *collapses* (goes dead) instead and is not reported — the
    /// surviving fact's tuple did not change, so every match through it
    /// was already found when *it* was delta.
    pub fn rewrite(&mut self, merged: &[Null], subst: impl Fn(Value) -> Value) -> Vec<FactId> {
        self.ensure_maps();
        let mut ids: Vec<FactId> = Vec::new();
        for &n in merged {
            if let Some(id) = self.values.lookup(Value::Null(n)) {
                if let Some(v) = self.occ.get(null_index(id) as usize) {
                    ids.extend_from_slice(v);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        let mut changed = Vec::new();
        let mut old_ids: Vec<ValueId> = Vec::new();
        let mut new_ids: Vec<ValueId> = Vec::new();
        for f in ids {
            if !self.is_live(f) {
                continue;
            }
            let rel = self.fact_rel[f as usize];
            let row = self.fact_row[f as usize];
            old_ids.clear();
            self.fact_ids_into(f, &mut old_ids);
            new_ids.clear();
            for &id in &old_ids {
                let nv = subst(self.values.value(id));
                new_ids.push(self.values.intern(nv));
            }
            if new_ids == old_ids {
                continue;
            }
            self.grow_occ();
            self.intern.remove(&(rel, old_ids.clone()));
            match self.intern.entry((rel, new_ids.clone())) {
                Entry::Occupied(_) => {
                    self.tables[rel.index()].set_dead(row);
                }
                Entry::Vacant(v) => {
                    v.insert(f);
                    self.tables[rel.index()].overwrite_row(row, &new_ids);
                    for &id in &new_ids {
                        if id_is_null(id) {
                            self.occ[null_index(id) as usize].push(f);
                        }
                    }
                    changed.push(f);
                }
            }
        }
        changed
    }

    /// Overwrite one cell — column `col` of row `row` of `rel` — with
    /// `id`, in place: how the completion sweep grounds a null to a pool
    /// constant without copying the store. Liveness and the fact
    /// directory are unchanged, so two live rows may now hold the same
    /// tuple; the dedup/occurrence maps go stale and rebuild on the next
    /// deduplicating operation.
    pub fn ground_cell(&mut self, rel: Symbol, col: usize, row: u32, id: ValueId) {
        let cell = self
            .tables
            .get_mut(rel.index())
            .and_then(|t| t.cols.get_mut(col))
            .and_then(|c| c.get_mut(row as usize));
        match cell {
            Some(cell) => *cell = id,
            None => unreachable!("cell ({rel:?}, {col}, {row}) outside the store"),
        }
        self.maps_built = false;
    }

    /// Reassemble a store from validated snapshot parts. The
    /// dedup/occurrence maps are not serialized; they rebuild lazily on
    /// the first deduplicating operation.
    fn from_loaded_parts(
        rel_names: Interner,
        arities: Vec<usize>,
        tables: Vec<RelTable>,
        values: ValueInterner,
        fact_rel: Vec<Symbol>,
        fact_row: Vec<u32>,
    ) -> Self {
        let maps_built = fact_rel.is_empty();
        FactStore {
            rel_names,
            arities,
            tables,
            values,
            fact_rel,
            fact_row,
            intern: FxHashMap::default(),
            occ: Vec::new(),
            maps_built,
        }
    }

    /// Keep `occ` parallel to the interned nulls.
    fn grow_occ(&mut self) {
        let n = self.values.n_nulls() as usize;
        if self.occ.len() < n {
            self.occ.resize_with(n, Vec::new);
        }
    }

    /// Rebuild the dedup/occurrence maps from the columns (one
    /// deterministic pass in fact-id order). Only live facts claim their
    /// intern key; the first of several identical live facts wins.
    fn ensure_maps(&mut self) {
        if self.maps_built {
            return;
        }
        self.intern.clear();
        self.occ.clear();
        self.occ
            .resize_with(self.values.n_nulls() as usize, Vec::new);
        let mut ids: Vec<ValueId> = Vec::new();
        for f in 0..self.n_facts() {
            ids.clear();
            self.fact_ids_into(f, &mut ids);
            for &id in &ids {
                if id_is_null(id) {
                    match self.occ.get_mut(null_index(id) as usize) {
                        Some(facts) => facts.push(f),
                        // `occ` was resized to the interned null universe
                        // just above, and columns only hold interned ids.
                        None => unreachable!("occurrence index not grown for {id}"),
                    }
                }
            }
            if self.is_live(f) {
                let rel = match self.fact_rel.get(f as usize) {
                    Some(&rel) => rel,
                    None => unreachable!("foreign fact id {f}"),
                };
                self.intern.entry((rel, ids.clone())).or_insert(f);
            }
        }
        self.maps_built = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    #[test]
    fn interner_ids_are_dense_and_tagged() {
        let mut vi = ValueInterner::new();
        let a = vi.intern(c(10));
        let b = vi.intern(c(-3));
        let x = vi.intern(n(7));
        let y = vi.intern(n(0));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(x, NULL_TAG);
        assert_eq!(y, NULL_TAG | 1);
        // Idempotent.
        assert_eq!(vi.intern(c(10)), a);
        assert_eq!(vi.intern(n(7)), x);
        // Tag bit distinguishes without a lookup.
        assert!(!id_is_null(a) && id_is_null(x));
        // Round trips.
        assert_eq!(vi.value(a), c(10));
        assert_eq!(vi.value(b), c(-3));
        assert_eq!(vi.value(x), n(7));
        assert_eq!(vi.value(y), n(0));
        assert_eq!(vi.lookup(c(-3)), Some(b));
        assert_eq!(vi.lookup(c(99)), None);
        assert_eq!(vi.lookup(n(1)), None);
        assert_eq!((vi.n_consts(), vi.n_nulls()), (2, 2));
    }

    #[test]
    fn insert_dedups_and_append_is_bulk() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        let f0 = s.insert(r, &[c(1), n(1)]).unwrap();
        assert_eq!(s.insert(r, &[c(1), n(1)]), None);
        let f1 = s.insert(r, &[c(1), c(2)]).unwrap();
        assert_eq!((f0, f1), (0, 1));
        assert_eq!(s.n_facts(), 2);
        assert_eq!(s.n_live(), 2);
        assert_eq!(s.fact_values(f0), vec![c(1), n(1)]);
        // Bulk append skips dedup but the maps rebuild on demand.
        let f2 = s.append(r, &[c(5), c(6)]);
        assert_eq!(s.insert(r, &[c(5), c(6)]), None, "maps rebuilt lazily");
        assert_eq!(s.fact_values(f2), vec![c(5), c(6)]);
        assert_eq!(s.table(r).n_rows(), 3);
        let one = s.lookup_value(c(1)).unwrap();
        let five = s.lookup_value(c(5)).unwrap();
        assert_eq!(s.table(r).col(0), &[one, one, five]);
    }

    #[test]
    fn extend_ids_matches_per_fact_appends() {
        // The bulk path must be observationally identical to a loop of
        // `append_ids` — same fact ids, rows, bitmap, and snapshot bytes.
        let rows = 150i64; // crosses two bitmap word boundaries
        let mut bulk = FactStore::new();
        let mut serial = FactStore::new();
        for s in [&mut bulk, &mut serial] {
            s.add_relation("R", 2);
            s.add_relation("S", 1);
        }
        let r = bulk.relation("R").unwrap();
        let sx = bulk.relation("S").unwrap();
        let mut flat = Vec::new();
        for i in 0..rows {
            flat.push(bulk.intern_value(c(i)));
            flat.push(bulk.intern_value(if i % 7 == 0 {
                n(dense_count(i as usize))
            } else {
                c(i + 1)
            }));
        }
        let first = bulk.extend_ids(r, dense_count(rows as usize), &flat);
        assert_eq!(first, 0);
        bulk.extend_ids(sx, 0, &[]); // no-op
        let nine = bulk.intern_value(c(9999));
        assert_eq!(bulk.extend_ids(sx, 1, &[nine]), dense_count(rows as usize));
        for i in 0..rows {
            let mut ids = Vec::new();
            serial.intern_value(c(i));
            serial.intern_value(if i % 7 == 0 {
                n(dense_count(i as usize))
            } else {
                c(i + 1)
            });
            ids.push(serial.lookup_value(c(i)).unwrap());
            ids.push(
                serial
                    .lookup_value(if i % 7 == 0 {
                        n(dense_count(i as usize))
                    } else {
                        c(i + 1)
                    })
                    .unwrap(),
            );
            serial.append_ids(r, &ids);
        }
        let sid = serial.intern_value(c(9999));
        serial.append_ids(sx, &[sid]);
        assert_eq!(bulk.n_facts(), serial.n_facts());
        assert_eq!(bulk.n_live(), serial.n_live());
        assert_eq!(
            bulk.to_bytes(),
            serial.to_bytes(),
            "bulk == serial, byte-identical"
        );
        // Dedup maps rebuild lazily and see the bulk rows.
        assert_eq!(bulk.insert(r, &[c(0), n(0)]), None);
    }

    #[test]
    fn occurrence_index_tracks_nulls() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        let f0 = s.insert(r, &[c(1), n(9)]).unwrap();
        let f1 = s.insert(r, &[n(9), n(3)]).unwrap();
        s.insert(r, &[c(1), c(2)]).unwrap();
        assert_eq!(s.occurrences(Null(9)), &[f0, f1]);
        assert_eq!(s.occurrences(Null(3)), &[f1]);
        assert_eq!(s.occurrences(Null(77)), &[] as &[FactId]);
    }

    #[test]
    fn rewrite_touches_only_affected_facts_and_collapses_duplicates() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        let a = s.insert(r, &[c(1), n(9)]).unwrap();
        let b = s.insert(r, &[c(1), c(5)]).unwrap();
        let other = s.insert(r, &[c(2), c(2)]).unwrap();
        // ⊥9 ↦ 5 rewrites `a` into `b`'s tuple: it collapses (goes dead)
        // rather than duplicating, and nothing is reported as changed.
        let changed = s.rewrite(&[Null(9)], |v| if v == n(9) { c(5) } else { v });
        assert!(changed.is_empty());
        assert!(!s.is_live(a));
        assert!(s.is_live(b) && s.is_live(other));
        assert_eq!(s.n_live(), 2);
        assert_eq!(s.fact_values(other), vec![c(2), c(2)]);
        assert_eq!(s.iter_live().collect::<Vec<_>>(), vec![b, other]);
    }

    #[test]
    fn rewrite_in_place_reports_changed_facts() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        let a = s.insert(r, &[n(4), c(1)]).unwrap();
        let changed = s.rewrite(&[Null(4)], |v| if v == n(4) { n(2) } else { v });
        assert_eq!(changed, vec![a]);
        assert!(s.is_live(a));
        assert_eq!(s.fact_values(a), vec![n(2), c(1)]);
        // The new null is occurrence-indexed; the rewritten fact dedups.
        assert_eq!(s.occurrences(Null(2)), &[a]);
        assert_eq!(s.insert(r, &[n(2), c(1)]), None);
        // Re-inserting the *old* tuple is new again (the key moved).
        assert!(s.insert(r, &[n(4), c(1)]).is_some());
    }

    #[test]
    #[should_panic(expected = "past MAX_COLUMNS columns")]
    fn add_relation_past_the_column_budget_panics() {
        let mut s = FactStore::new();
        s.add_relation("A", MAX_COLUMNS - 1);
        s.add_relation("B", 1);
        assert_eq!(s.n_columns(), MAX_COLUMNS);
        s.add_relation("C", 1);
    }

    #[test]
    fn ground_cell_overwrites_in_place_and_stales_the_maps() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        let a = s.insert(r, &[c(1), n(1)]).unwrap();
        let b = s.insert(r, &[c(1), c(2)]).unwrap();
        let two = s.lookup_value(c(2)).unwrap();
        s.ground_cell(r, 1, s.fact_row(a), two);
        // Both rows stay live and now hold the same tuple.
        assert_eq!(s.fact_values(a), vec![c(1), c(2)]);
        assert_eq!(s.fact_values(b), vec![c(1), c(2)]);
        assert_eq!(s.n_live(), 2);
        // The dedup map rebuilds from the columns: the old tuple is new
        // again, the grounded one is not.
        assert_eq!(s.insert(r, &[c(1), c(2)]), None);
        assert!(s.insert(r, &[c(1), n(1)]).is_some());
    }

    #[test]
    fn live_bitmap_and_directory_stay_consistent() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 1);
        let t = s.add_relation("S", 2);
        let f0 = s.insert(r, &[c(1)]).unwrap();
        let f1 = s.insert(t, &[c(1), c(2)]).unwrap();
        let f2 = s.insert(r, &[c(2)]).unwrap();
        assert_eq!(s.fact_rel(f1), t);
        assert_eq!(s.fact_row(f2), 1, "rows are per-relation");
        assert_eq!(s.table(r).n_rows(), 2);
        assert_eq!(s.table(t).n_rows(), 1);
        assert!(s.is_live(f0) && s.is_live(f1) && s.is_live(f2));
        // 70 rows cross a bitmap word boundary.
        for i in 0..70 {
            s.insert(r, &[c(100 + i)]);
        }
        assert_eq!(s.table(r).n_live(), 72);
        assert!(s.table(r).is_live(69));
        assert!(!s.table(r).is_live(100), "out of range is dead");
    }
}
