//! The compiled CQ/UCQ evaluation engine.
//!
//! Naïve evaluation is the paper's central positive result (for UCQs it
//! computes certain answers), so it is this repo's hottest query path.
//! The engine replaces the reference evaluator's nested-loop rescans
//! with three layers:
//!
//! 1. **plan compilation** ([`plan`]) — each CQ compiles once into a
//!    join plan: greedy bound-variable atom ordering, constants and
//!    repeated variables pushed into per-atom matchers, variables
//!    resolved to dense slots, schema errors rejected with a typed
//!    [`PlanError`];
//! 2. **columnar indexed execution** ([`index`]) — plans execute over
//!    the workspace columnar store (`ca_core::store`): the inner join
//!    loop reads interned `u32` ids straight from column pages (no tuple
//!    cloning, no `Value` hashing), with per-relation posting tables
//!    (CSR or hash) keyed by each atom's bound-position signature, built
//!    lazily on first probe and cached across the disjuncts of a UCQ and
//!    across repeated evaluations on the same store. Answer rows stay
//!    interned-id tuples too: every disjunct of a UCQ inserts its head
//!    id rows into one flat, deduplicating id set, and each distinct row
//!    is decoded to [`Value`]s once, at the `BTreeSet` API edge (late
//!    materialization — the join may emit each answer many times);
//! 3. **completion sweep** ([`sweep`]) — brute-force certain answers
//!    sweep the `|pool|^#nulls` completion grid in index order,
//!    grounding each completion by remapping null ids over shared column
//!    pages and intersecting id rows (decoding only the survivors), with
//!    early exit once the intersection empties.
//!
//! The old evaluator survives unchanged as [`crate::reference`] and
//! serves as the differential-testing oracle (`tests/eval_differential.rs`),
//! mirroring the `ca_hom::csp` / `ca_hom::reference` kernel pattern.

pub mod cost;
pub mod index;
pub mod plan;
pub mod rows;
pub mod sweep;

use std::collections::BTreeSet;

use ca_core::store::{FactStore, ValueId};
use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;

use crate::ast::{ConjunctiveQuery, UnionQuery};

pub use cost::CostModel;
pub use index::DbIndex;
pub use plan::{CompiledCq, CompiledUcq, PlanError};
use rows::{Distinct, Rows};
pub use sweep::CompletionSpace;

/// Compile a CQ against a schema.
pub fn compile_cq(q: &ConjunctiveQuery, schema: &Schema) -> Result<CompiledCq, PlanError> {
    CompiledCq::compile(q, schema)
}

/// Compile a UCQ against a schema.
pub fn compile_ucq(q: &UnionQuery, schema: &Schema) -> Result<CompiledUcq, PlanError> {
    CompiledUcq::compile(q, schema)
}

/// Reusable per-evaluation buffers threaded through [`exec`]: the
/// variable-slot assignment (interned value ids), one probe-key scratch
/// buffer per join depth, and the head-row buffer handed to `emit`, which
/// holds interned ids too — answers are decoded to [`Value`]s only at the
/// API edge, once per distinct row (see [`decode`]).
struct ExecBufs {
    slots: Vec<ValueId>,
    scratch: Vec<Vec<ValueId>>,
    head_buf: Vec<ValueId>,
}

impl ExecBufs {
    fn new(cq: &CompiledCq) -> ExecBufs {
        ExecBufs {
            slots: vec![0; cq.n_slots],
            scratch: vec![Vec::new(); cq.atoms.len()],
            head_buf: Vec::with_capacity(cq.head_slots.len()),
        }
    }
}

/// Execute the plan suffix from `depth`, with `access` naming each
/// atom's posting table and id-resolved key. The join loop compares
/// interned `u32` ids read straight from the store's column pages, and
/// `emit` sees each head row as ids. Generic over the emitter, so an
/// id-set insert inlines into the loop's leaf. Returns `false` iff `emit`
/// requested a stop.
fn exec<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    cq: &CompiledCq,
    access: &[index::AtomAccess],
    idx: &DbIndex<'_>,
    depth: usize,
    bufs: &mut ExecBufs,
    emit: &mut E,
) -> bool {
    if depth == cq.atoms.len() {
        // One reused buffer for every head row: `emit` sees a borrow, so
        // no per-row allocation on the hot path.
        bufs.head_buf.clear();
        bufs.head_buf
            .extend(cq.head_slots.iter().map(|&s| bufs.slots[s]));
        return emit(&bufs.head_buf);
    }
    let atom = &cq.atoms[depth];
    let acc = &access[depth];
    let cols = idx.cols(atom.rel);
    let scanning = acc.handle == index::SCAN;
    // Borrow this depth's scratch buffer by taking it out of the slice
    // (and restoring it below), so the recursive call can borrow the rest.
    let mut key_buf = std::mem::take(&mut bufs.scratch[depth]);
    let candidates: &[u32] = if scanning {
        // Full scan: bound positions (if any) are verified per candidate.
        idx.rows(atom.rel)
    } else {
        // Reuse this depth's scratch buffer for the probe key.
        key_buf.clear();
        key_buf.extend(acc.key.iter().map(|kp| match kp {
            index::IdKey::Const(id) => *id,
            index::IdKey::Slot(s) => bufs.slots[*s],
        }));
        idx.probe(acc.handle, &key_buf)
    };
    let mut keep_going = true;
    'cand: for &row in candidates {
        let r = row as usize;
        if scanning {
            // The index did not filter on the signature; do it here.
            for (&pos, kp) in atom.sig.iter().zip(&acc.key) {
                let expected = match kp {
                    index::IdKey::Const(id) => *id,
                    index::IdKey::Slot(s) => bufs.slots[*s],
                };
                if cols[pos][r] != expected {
                    continue 'cand;
                }
            }
        }
        for &(pos, slot) in &atom.binds {
            bufs.slots[slot] = cols[pos][r];
        }
        for &(pos, slot) in &atom.checks {
            if cols[pos][r] != bufs.slots[slot] {
                continue 'cand;
            }
        }
        if !exec(cq, access, idx, depth + 1, bufs, emit) {
            keep_going = false;
            break;
        }
    }
    bufs.scratch[depth] = key_buf;
    keep_going
}

/// The access paths [`exec`] runs a plan with. A single-atom plan scans:
/// with one atom there is no join to accelerate, so building (or even
/// resolving) a posting table can never amortize against the single scan
/// that replaces it — measurably so on small relations (`e02_ucq_edge`).
/// The scan verifies the bound-position signature per candidate.
fn access_paths(cq: &CompiledCq, idx: &mut DbIndex<'_>) -> Vec<index::AtomAccess> {
    match cq.atoms.as_slice() {
        [atom] => vec![index::AtomAccess {
            handle: index::SCAN,
            key: idx.resolve_key(&atom.key),
        }],
        _ => idx.ensure_cq(cq),
    }
}

/// Run a whole plan over `access`, emitting head id rows. Returns
/// `false` iff `emit` requested a stop.
fn run_ids<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    cq: &CompiledCq,
    access: &[index::AtomAccess],
    idx: &DbIndex<'_>,
    emit: &mut E,
) -> bool {
    exec(cq, access, idx, 0, &mut ExecBufs::new(cq), emit)
}

/// Adapt a [`Value`]-row consumer to an id emitter: each head row is
/// decoded into one reused buffer.
fn decoding<'e>(
    idx: &'e DbIndex<'_>,
    emit: &'e mut dyn FnMut(&[Value]) -> bool,
) -> impl FnMut(&[ValueId]) -> bool + 'e {
    let mut buf = Vec::new();
    move |ids| {
        buf.clear();
        buf.extend(ids.iter().map(|&id| idx.value(id)));
        emit(&buf)
    }
}

/// Evaluate a compiled CQ, calling `emit` on every head row (with
/// duplicates; `emit` returning `false` stops the enumeration early).
pub fn eval_cq_into(
    cq: &CompiledCq,
    idx: &mut DbIndex<'_>,
    emit: &mut dyn FnMut(&[Value]) -> bool,
) {
    let access = access_paths(cq, idx);
    let idx = &*idx;
    run_ids(cq, &access, idx, &mut decoding(idx, emit));
}

/// Evaluate a compiled CQ, emitting every head id row; returns `false`
/// iff `emit` requested a stop.
fn cq_ids_into<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    cq: &CompiledCq,
    idx: &mut DbIndex<'_>,
    emit: &mut E,
) -> bool {
    let access = access_paths(cq, idx);
    run_ids(cq, &access, idx, emit)
}

/// [`cq_ids_into`] over every disjunct, in order, until `emit` stops.
/// `UnionQuery::new` and the parser enforce a shared head arity; a
/// disjunct of a hand-built union that breaks it is skipped, so every
/// emitted row has the union's head arity.
fn ucq_ids_into<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    ucq: &CompiledUcq,
    idx: &mut DbIndex<'_>,
    emit: &mut E,
) -> bool {
    ucq.disjuncts
        .iter()
        .filter(|d| d.head_slots.len() == ucq.head_arity)
        .all(|d| cq_ids_into(d, idx, emit))
}

/// The resolved access paths of one compiled CQ on one [`DbIndex`],
/// resolved once by [`prepare_cq`]: per atom, a posting-table handle and
/// the key with plan constants interned to value ids. Keeping them
/// outside the index lets many evaluations share one immutably borrowed
/// index afterwards — the access pattern of the semi-naive chase, which
/// prepares every rule plan of a round up front and then runs its match
/// phase.
pub struct PreparedCq {
    access: Vec<index::AtomAccess>,
}

/// Resolve a compiled CQ's posting tables on `idx` (building any missing
/// ones). The returned access paths are only meaningful for this (plan,
/// index) pair.
pub fn prepare_cq(cq: &CompiledCq, idx: &mut DbIndex<'_>) -> PreparedCq {
    PreparedCq {
        access: idx.ensure_cq(cq),
    }
}

/// Evaluate a prepared CQ against an immutably borrowed index, calling
/// `emit` on every head row (with duplicates; returning `false` stops
/// early). `prep` must come from [`prepare_cq`] for the same plan and
/// index.
pub fn eval_prepared_into(
    cq: &CompiledCq,
    prep: &PreparedCq,
    idx: &DbIndex<'_>,
    emit: &mut dyn FnMut(&[Value]) -> bool,
) {
    debug_assert_eq!(prep.access.len(), cq.atoms.len());
    run_ids(cq, &prep.access, idx, &mut decoding(idx, emit));
}

/// Semi-naive evaluation of a prepared CQ: the **first** atom of the
/// plan ranges over `seed` — an explicit list of live *row ids of its
/// relation* (a fact id translates via `FactStore::fact_row`), typically
/// a delta set — instead of the whole relation, and the remaining atoms
/// join as usual. Compile the plan with [`CompiledCq::compile_pinned`]
/// so the atom to be seeded leads the join order; nothing precedes it,
/// so its key parts are all constants, verified inline per candidate
/// here (a `Slot` part is treated as unmatched rather than trusted). A
/// plan with no atoms emits nothing: there is no atom to seed.
pub fn eval_seeded_into(
    cq: &CompiledCq,
    prep: &PreparedCq,
    idx: &DbIndex<'_>,
    seed: &[u32],
    emit: &mut dyn FnMut(&[Value]) -> bool,
) {
    debug_assert_eq!(prep.access.len(), cq.atoms.len());
    seeded_ids(cq, &prep.access, idx, seed, &mut decoding(idx, emit));
}

/// [`eval_seeded_into`] at the id level: the lead atom ranges over
/// `seed`, [`exec`] joins the rest. Returns `false` iff `emit` requested
/// a stop.
fn seeded_ids<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    cq: &CompiledCq,
    access: &[index::AtomAccess],
    idx: &DbIndex<'_>,
    seed: &[u32],
    emit: &mut E,
) -> bool {
    let (Some(atom), Some(acc)) = (cq.atoms.first(), access.first()) else {
        return true;
    };
    let cols = idx.cols(atom.rel);
    let mut bufs = ExecBufs::new(cq);
    'cand: for &row in seed {
        let r = row as usize;
        for (&pos, kp) in atom.sig.iter().zip(&acc.key) {
            let expected = match kp {
                index::IdKey::Const(id) => *id,
                index::IdKey::Slot(_) => continue 'cand,
            };
            if cols[pos][r] != expected {
                continue 'cand;
            }
        }
        for &(pos, slot) in &atom.binds {
            bufs.slots[slot] = cols[pos][r];
        }
        for &(pos, slot) in &atom.checks {
            if cols[pos][r] != bufs.slots[slot] {
                continue 'cand;
            }
        }
        if !exec(cq, access, idx, 1, &mut bufs, emit) {
            return false;
        }
    }
    true
}

/// A set of answer rows as interned ids: one flat, fixed-stride buffer
/// deduplicated through an open-addressing index (stride 0 holds at most
/// the Boolean `()`).
type IdSet = Distinct<ValueId>;

/// Decode each held id row to [`Value`]s once and build the answer set
/// in one bulk `collect`.
fn decode(rows: &Rows<ValueId>, store: &FactStore) -> BTreeSet<Vec<Value>> {
    rows.iter()
        .map(|row| row.iter().map(|&id| store.value(id)).collect())
        .collect()
}

/// Evaluate a compiled UCQ on a prepared index: the union of the
/// disjuncts' answer sets, deduplicated as interned id rows in one set
/// shared by the disjuncts and decoded once per distinct row.
pub fn eval_ucq_on(ucq: &CompiledUcq, idx: &mut DbIndex<'_>) -> BTreeSet<Vec<Value>> {
    let mut set = IdSet::set(ucq.head_arity);
    ucq_ids_into(ucq, idx, &mut |row| {
        set.insert_row(row);
        true
    });
    decode(set.rows(), idx.store())
}

/// Does some disjunct of `ucq` emit the head row `row` (nulls as
/// values)? Stops at the first equal head row. A value of `row` that is
/// not interned in the store cannot occur in any answer.
pub(crate) fn ucq_has_row(ucq: &CompiledUcq, idx: &mut DbIndex<'_>, row: &[Value]) -> bool {
    let Some(ids) = row
        .iter()
        .map(|&v| idx.store().lookup_value(v))
        .collect::<Option<Vec<ValueId>>>()
    else {
        return false;
    };
    !ucq_ids_into(ucq, idx, &mut |head| head != ids.as_slice())
}

/// Boolean evaluation of a compiled UCQ on a prepared index, with early
/// exit on the first witness.
pub fn eval_ucq_bool_on(ucq: &CompiledUcq, idx: &mut DbIndex<'_>) -> bool {
    ucq.disjuncts.iter().any(|d| {
        let access = access_paths(d, idx);
        !run_ids(d, &access, idx, &mut |_| false)
    })
}

/// Compile and evaluate a UCQ over a database (nulls as values). The
/// plan is cost-based: ordered by the index's statistics model (falling
/// back to the greedy order out of the DP's reach) — plan choice, never
/// answers, depends on the statistics.
pub fn eval_ucq(q: &UnionQuery, db: &NaiveDatabase) -> Result<BTreeSet<Vec<Value>>, PlanError> {
    let mut idx = DbIndex::new(db);
    let plan = CompiledUcq::compile_costed(q, &db.schema, idx.model())?;
    Ok(eval_ucq_on(&plan, &mut idx))
}

/// Compile (cost-based) and evaluate a CQ over a database (nulls as
/// values), by the same route as [`eval_ucq_on`].
pub fn eval_cq(
    q: &ConjunctiveQuery,
    db: &NaiveDatabase,
) -> Result<BTreeSet<Vec<Value>>, PlanError> {
    let mut idx = DbIndex::new(db);
    let plan = CompiledCq::compile_costed(q, &db.schema, idx.model())?;
    Ok(cq_answers(&plan, &mut idx))
}

/// The answer set of a compiled CQ, by the route of [`eval_ucq_on`].
pub(crate) fn cq_answers(plan: &CompiledCq, idx: &mut DbIndex<'_>) -> BTreeSet<Vec<Value>> {
    let mut out = IdSet::set(plan.head_slots.len());
    cq_ids_into(plan, idx, &mut |row| {
        out.insert_row(row);
        true
    });
    decode(out.rows(), idx.store())
}

/// Compile (cost-based) and evaluate a Boolean UCQ over a database.
pub fn eval_ucq_bool(q: &UnionQuery, db: &NaiveDatabase) -> Result<bool, PlanError> {
    let mut idx = DbIndex::new(db);
    let plan = CompiledUcq::compile_costed(q, &db.schema, idx.model())?;
    Ok(eval_ucq_bool_on(&plan, &mut idx))
}

/// Brute-force certain answers of a compiled UCQ: intersect the answer
/// tables over every completion of `db` into `pool`, sweeping the
/// completion grid with early exit.
///
/// Every completion is grounded in place into one store with one
/// interner ([`CompletionSpace::ground`]), so the intersection runs over
/// interned id rows and only the surviving rows are decoded.
///
/// Semantics at the corners (unit-tested below): when the completion
/// space is **empty** (nulls present but an empty pool) the intersection
/// over no completions is vacuous — the table form returns the **empty
/// table** (there is no finite "all rows"), while the Boolean form
/// returns **true**. With no nulls the sole completion is `db` itself.
pub fn certain_table_over(
    plan: &CompiledUcq,
    db: &NaiveDatabase,
    pool: &[i64],
) -> BTreeSet<Vec<Value>> {
    let mut space = CompletionSpace::new(db, pool);
    let survivors = sweep::intersect(space.len(), plan.head_arity, |i, emit| {
        ucq_ids_into(plan, &mut DbIndex::over(space.ground(i)), emit);
    });
    survivors.map_or_else(BTreeSet::new, |rows| decode(&rows, space.store()))
}

/// Brute-force Boolean certain answer of a compiled UCQ over a pool:
/// true iff every completion satisfies the query. Vacuously true when
/// the completion space is empty.
pub fn certain_bool_over(plan: &CompiledUcq, db: &NaiveDatabase, pool: &[i64]) -> bool {
    let mut space = CompletionSpace::new(db, pool);
    (0..space.len()).all(|i| eval_ucq_bool_on(plan, &mut DbIndex::over(space.ground(i))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Term};
    use crate::reference;
    use ca_relational::database::build::{c, n, table};
    use Term::{Const as C, Var as V};

    #[test]
    fn engine_matches_reference_on_basic_joins() {
        let q = UnionQuery::new(vec![
            ConjunctiveQuery::with_head(
                vec![0, 2],
                vec![
                    Atom::new("R", vec![V(0), V(1)]),
                    Atom::new("R", vec![V(1), V(2)]),
                ],
            ),
            ConjunctiveQuery::with_head(vec![0, 0], vec![Atom::new("R", vec![C(1), V(0)])]),
        ]);
        let db = table(
            "R",
            2,
            &[&[c(1), n(1)], &[n(1), c(2)], &[c(3), c(9)], &[n(2), c(9)]],
        );
        assert_eq!(eval_ucq(&q, &db).unwrap(), reference::eval_ucq(&q, &db));
    }

    #[test]
    fn repeated_head_and_within_atom_vars() {
        // Q(x, x) ← R(x, x): both the check path and head repetition.
        let q = ConjunctiveQuery::with_head(vec![0, 0], vec![Atom::new("R", vec![V(0), V(0)])]);
        let db = table("R", 2, &[&[n(1), n(1)], &[n(1), n(2)], &[c(4), c(4)]]);
        let ans = eval_cq(&q, &db).unwrap();
        assert_eq!(ans, reference::eval_cq(&q, &db));
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&vec![n(1), n(1)]));
        assert!(ans.contains(&vec![c(4), c(4)]));
    }

    // ----- satellite: unknown relation / arity mismatch regression -----

    #[test]
    fn unknown_relation_engine_errors_reference_is_empty() {
        let q = ConjunctiveQuery::boolean(vec![Atom::new("S", vec![V(0)])]);
        let db = table("R", 1, &[&[c(1)]]);
        // Engine: typed error at plan-compile time.
        assert_eq!(
            eval_cq(&q, &db).unwrap_err(),
            PlanError::UnknownRelation { rel: "S".into() }
        );
        // Reference oracle: silently no matches (pinned legacy quirk).
        assert!(reference::eval_cq(&q, &db).is_empty());
        // Legacy eval entry point routes through the engine leniently and
        // keeps the old observable behaviour.
        assert!(crate::eval::eval_cq(&q, &db).is_empty());
    }

    #[test]
    fn arity_mismatch_engine_errors_reference_is_empty() {
        let q = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(1), V(2)])]);
        let db = table("R", 2, &[&[c(1), c(2)]]);
        assert_eq!(
            eval_cq(&q, &db).unwrap_err(),
            PlanError::ArityMismatch {
                rel: "R".into(),
                declared: 2,
                used: 3
            }
        );
        assert!(reference::eval_cq(&q, &db).is_empty());
        assert!(crate::eval::eval_cq(&q, &db).is_empty());
    }

    // ----- satellite: empty-query / empty-database corners -----

    #[test]
    fn boolean_cq_with_zero_atoms_is_true() {
        // The empty conjunction holds vacuously: {()} — on any database,
        // including the empty one. Engine and reference agree.
        let q = ConjunctiveQuery::boolean(vec![]);
        let db = table("R", 1, &[]);
        assert_eq!(eval_cq(&q, &db).unwrap(), BTreeSet::from([vec![]]));
        assert_eq!(reference::eval_cq(&q, &db), BTreeSet::from([vec![]]));
        let nonempty = table("R", 1, &[&[c(1)]]);
        assert_eq!(eval_cq(&q, &nonempty).unwrap(), BTreeSet::from([vec![]]));
    }

    #[test]
    fn ucq_with_no_disjuncts_is_false() {
        // The empty disjunction is false: no rows, Boolean false.
        let q = UnionQuery::new(vec![]);
        let db = table("R", 1, &[&[c(1)]]);
        assert!(eval_ucq(&q, &db).unwrap().is_empty());
        assert!(!eval_ucq_bool(&q, &db).unwrap());
        assert!(reference::eval_ucq(&q, &db).is_empty());
    }

    #[test]
    fn empty_completion_space_semantics() {
        // D = {R(⊥1)} with an empty pool: completions_over would have
        // nothing to enumerate. The chosen semantics, documented here:
        // the Boolean certain answer is vacuously TRUE (a conjunction
        // over no completions), while the table form returns the EMPTY
        // table (the vacuous intersection "all rows" has no finite
        // representation). This asymmetry mirrors the legacy
        // `certain_table`, which returned an empty accumulator.
        let db = table("R", 1, &[&[n(1)]]);
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0],
            vec![Atom::new("R", vec![V(0)])],
        ));
        let plan = compile_ucq(&q, &db.schema).unwrap();
        assert!(certain_table_over(&plan, &db, &[]).is_empty());
        assert!(certain_bool_over(&plan, &db, &[]));
    }

    #[test]
    fn seeded_eval_finds_exactly_the_delta_joins() {
        // R(x,y) ∧ R(y,z) with the first atom seeded by the last fact
        // only: answers must use that fact in position one.
        let q = ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
            ],
        );
        let db = table("R", 2, &[&[c(1), c(2)], &[c(2), c(3)], &[c(3), c(4)]]);
        let plan = CompiledCq::compile_pinned(&q, &db.schema, 0).unwrap();
        let mut idx = DbIndex::new(&db);
        let prep = prepare_cq(&plan, &mut idx);
        let seed_id = db
            .facts()
            .iter()
            .position(|f| f.args == vec![c(2), c(3)])
            .unwrap() as u32;
        let mut rows = BTreeSet::new();
        eval_seeded_into(&plan, &prep, &idx, &[seed_id], &mut |row| {
            rows.insert(row.to_vec());
            true
        });
        assert_eq!(rows, BTreeSet::from([vec![c(2), c(4)]]));
        // Seeding with every fact recovers the full answer set.
        let all: Vec<u32> = (0..db.facts().len() as u32).collect();
        let mut full = BTreeSet::new();
        eval_seeded_into(&plan, &prep, &idx, &all, &mut |row| {
            full.insert(row.to_vec());
            true
        });
        assert_eq!(full, eval_cq(&q, &db).unwrap());
    }

    /// A three-atom chain over a 1100-row lead relation, of which the
    /// second atom covers only 40 join keys: the plain join's answers
    /// equal the reference oracle's.
    #[test]
    fn three_atom_chain_matches_reference() {
        let schema = ca_relational::schema::Schema::from_relations(&[("R", 2), ("S", 2), ("T", 1)]);
        let mut db = NaiveDatabase::new(schema);
        for i in 0..1100i64 {
            db.add("R", vec![c(i % 97), c((i * 31) % 211)]);
        }
        // S covers only 40 of R's 211 join keys.
        for j in 0..40i64 {
            db.add("S", vec![c(j * 5), n((j % 13) as u32)]);
        }
        for k in 0..7u32 {
            db.add("T", vec![n(k)]);
        }
        let q = ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("S", vec![V(1), V(2)]),
                Atom::new("T", vec![V(2)]),
            ],
        );
        let plan = CompiledCq::compile_pinned(&q, &db.schema, 0).unwrap();
        let out = cq_answers(&plan, &mut DbIndex::new(&db));
        let expected = reference::eval_cq(&q, &db);
        assert!(!expected.is_empty());
        assert_eq!(out, expected);
    }

    #[test]
    fn store_backed_index_matches_database_index() {
        let db = table("R", 2, &[&[c(1), c(2)], &[c(2), c(3)], &[c(2), c(4)]]);
        let store = ca_relational::to_store(&db);
        let mut idx = DbIndex::over(&store);
        let q = ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
            ],
        );
        let plan = CompiledCq::compile(&q, &db.schema).unwrap();
        let mut out = BTreeSet::new();
        eval_cq_into(&plan, &mut idx, &mut |row| {
            out.insert(row.to_vec());
            true
        });
        assert_eq!(out, eval_cq(&q, &db).unwrap());
    }

    #[test]
    fn certain_sweep_matches_legacy_bruteforce() {
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
            ],
        ));
        let db = table("R", 2, &[&[c(1), n(1)], &[n(1), c(2)], &[n(2), c(5)]]);
        let pool = [1, 2, 5, 6, 7];
        let plan = compile_ucq(&q, &db.schema).unwrap();
        // Legacy: materialize all completions, intersect reference answers.
        let mut legacy: Option<BTreeSet<Vec<Value>>> = None;
        for r in db.completions_over(&pool) {
            let ans = reference::eval_ucq(&q, &r);
            legacy = Some(match legacy {
                None => ans,
                Some(acc) => acc.intersection(&ans).cloned().collect(),
            });
        }
        let legacy = legacy.unwrap();
        assert_eq!(certain_table_over(&plan, &db, &pool), legacy);
    }

    /// Answer id sets grow through many rehashes at strides 0, 1 and 3 —
    /// 3000 distinct rows, or one row arriving 3000 times — and decode
    /// to the reference answers, through the single-atom scan and
    /// through the indexed join.
    #[test]
    fn id_sets_grow_across_rehashes_at_strides_0_1_3() {
        let schema = Schema::from_relations(&[("R", 3), ("S", 1)]);
        let mut db = NaiveDatabase::new(schema);
        for k in 0..3000i64 {
            let a = if k % 7 == 0 { n(1) } else { c(k % 3) };
            db.add("R", vec![a, c(k % 5), c(1000 + k)]);
        }
        for b in 0..4 {
            db.add("S", vec![c(b)]);
        }
        let r = || Atom::new("R", vec![V(0), V(1), V(2)]);
        for head in [vec![], vec![2], vec![0, 1, 2], vec![0, 1, 0]] {
            for atoms in [vec![r()], vec![r(), Atom::new("S", vec![V(1)])]] {
                let q = UnionQuery::single(ConjunctiveQuery::with_head(head.clone(), atoms));
                let got = eval_ucq(&q, &db).unwrap();
                assert_eq!(got, reference::eval_ucq(&q, &db), "head {head:?}");
                // Stride 0 holds the one `()`; a head keeping `k` holds
                // thousands of rows (2400 of them join `S`).
                let min = if head.contains(&2) { 2400 } else { 1 };
                assert!(got.len() >= min, "head {head:?}");
                assert!(!head.is_empty() || got.len() == 1);
            }
        }
    }

    /// Disjuncts share one deduplicated id set: overlapping disjuncts
    /// yield their union once, and repeating a disjunct changes nothing.
    #[test]
    fn disjuncts_deduplicate_into_one_set() {
        let rows: Vec<Vec<Value>> = (0..40i64)
            .map(|i| vec![c(i % 6), c((i * 5) % 6)])
            .chain([vec![n(1), c(2)], vec![c(2), n(1)]])
            .collect();
        let refs: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
        let db = table("R", 2, &refs);
        let fwd = ConjunctiveQuery::with_head(vec![0], vec![Atom::new("R", vec![V(0), V(1)])]);
        let back = ConjunctiveQuery::with_head(vec![1], vec![Atom::new("R", vec![V(0), V(1)])]);
        let both = UnionQuery::new(vec![fwd.clone(), back.clone()]);
        let got = eval_ucq(&both, &db).unwrap();
        assert_eq!(got, reference::eval_ucq(&both, &db));
        let mut union = eval_cq(&fwd, &db).unwrap();
        union.extend(eval_cq(&back, &db).unwrap());
        assert_eq!(got, union);
        let twice = UnionQuery::new(vec![fwd.clone(), back, fwd]);
        assert_eq!(eval_ucq(&twice, &db).unwrap(), got);
    }

    /// The id-level sweep equals the old one: the `BTreeSet` intersection
    /// of each completion's decoded answer table, in index order with
    /// early exit — at head arities 0, 1 and 2, with two disjuncts.
    #[test]
    fn sweep_id_intersection_matches_btreeset_intersection() {
        let db = table(
            "R",
            2,
            &[
                &[c(1), n(1)],
                &[n(1), c(2)],
                &[n(2), c(5)],
                &[c(5), n(3)],
                &[c(2), c(2)],
            ],
        );
        let pool = [1, 2, 5, 6];
        let heads: [&[u32]; 3] = [&[], &[0], &[0, 2]];
        for head in heads {
            let q = UnionQuery::new(vec![
                ConjunctiveQuery::with_head(
                    head.to_vec(),
                    vec![
                        Atom::new("R", vec![V(0), V(1)]),
                        Atom::new("R", vec![V(1), V(2)]),
                    ],
                ),
                ConjunctiveQuery::with_head(
                    head.iter().map(|&v| v.min(1)).collect(),
                    vec![
                        Atom::new("R", vec![V(0), V(1)]),
                        Atom::new("R", vec![V(1), V(1)]),
                    ],
                ),
            ]);
            let plan = compile_ucq(&q, &db.schema).unwrap();
            let mut space = CompletionSpace::new(&db, &pool);
            let mut old: Option<BTreeSet<Vec<Value>>> = None;
            for i in 0..space.len() {
                if old.as_ref().is_some_and(BTreeSet::is_empty) {
                    break;
                }
                let next = eval_ucq_on(&plan, &mut DbIndex::over(space.ground(i)));
                old = Some(match old {
                    None => next,
                    Some(acc) => acc.intersection(&next).cloned().collect(),
                });
            }
            let old = old.unwrap_or_default();
            assert_eq!(certain_table_over(&plan, &db, &pool), old, "head {head:?}");
        }
    }
}
