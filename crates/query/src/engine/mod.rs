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
//!    (CSR or grouped) keyed by each atom's bound-position signature, built
//!    lazily on first probe and cached across the disjuncts of a UCQ and
//!    across repeated evaluations on the same store. Answer rows stay
//!    interned-id tuples too: every disjunct of a UCQ inserts its head
//!    id rows into one flat, deduplicating id set, and each distinct row
//!    is decoded to [`Value`]s once, at the `BTreeSet` API edge (late
//!    materialization — the join may emit an answer more than once,
//!    though a plan skips the rest of its work wherever the variables
//!    still live repeat: a projection point, see [`plan`]).
//!    `exec` is the one join loop, and three runners resolve their
//!    access paths and drive it, handing out id rows (the join engine
//!    never emits a `Value` row): [`eval_cq_ids`] runs a whole plan,
//!    [`eval_seeded_ids`] ranges the lead atom over a [`Delta`] (the
//!    semi-naive step: the atoms before it in the body skip the delta), and
//!    [`eval_bound_ids`] asks "does this pattern match with these
//!    variables fixed?" for a batch of parameter rows — the chase's head
//!    check of a rule with existentials and [`RowProbe`]'s row tests;
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

use ca_core::store::{dense_count, FactId, FactStore, ValueId, INVALID_ID};
use ca_core::symbol::Symbol;
use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;

use crate::ast::{ConjunctiveQuery, UnionQuery};

pub use cost::CostModel;
pub use index::DbIndex;
pub use plan::{CompiledCq, CompiledUcq, PlanError};
use rows::{Distinct, Rows};
pub use sweep::CompletionSpace;

/// Reusable per-evaluation buffers threaded through [`exec`]: the
/// variable-slot assignment (interned value ids), one probe-key scratch
/// buffer per join depth, the live projections seen at each depth
/// (unused where the depth is no projection point; a plan without one
/// allocates none, as the sweep runs a plan once per completion), and the
/// head-row buffer handed to `emit`, which holds interned ids too —
/// answers are decoded to [`Value`]s only at the API edge, once per
/// distinct row (see [`decode`]).
struct ExecBufs {
    slots: Vec<ValueId>,
    scratch: Vec<Vec<ValueId>>,
    seen: Vec<Seen>,
    head_buf: Vec<ValueId>,
}

/// The distinct projections a projection point holds before it may stop
/// checking ([`Seen::repeated`]).
const PROBATION: usize = 1024;

/// The live projections one projection point has seen in a run, and how
/// many arrivals repeated one of them.
struct Seen {
    rows: Distinct<ValueId>,
    repeats: usize,
}

impl Seen {
    /// Whether the arriving live projection `proj` repeats one seen in
    /// this run; a new one is kept. The point stops checking, and answers
    /// `false`, once it holds [`PROBATION`] projections and has seen
    /// fewer repeats than an eighth of that: a miss costs an insert, and
    /// repeats that rare do not pay for them. In `query_bench`, the
    /// points of `e02_ucq_chain3` and of the greedy `e02_ucq_skew` and
    /// `e02_ucq_mates` plans repeat on 0–3% of arrivals and took up to
    /// twice the plan's time, while the costed `MATES` point repeats on
    /// 95%. A point that stops only loses skips; every answer is still
    /// emitted.
    fn repeated(&mut self, proj: impl Iterator<Item = ValueId>) -> bool {
        let held = self.rows.len();
        if held >= PROBATION && 8 * self.repeats < held {
            return false;
        }
        let repeat = self.rows.insert(|vals| vals.extend(proj)) < held;
        self.repeats += usize::from(repeat);
        repeat
    }

    /// Forget every projection seen, for a new run.
    fn clear(&mut self) {
        self.rows.clear();
        self.repeats = 0;
    }
}

impl ExecBufs {
    fn new(cq: &CompiledCq) -> ExecBufs {
        ExecBufs {
            slots: vec![0; cq.n_slots],
            scratch: vec![Vec::new(); cq.atoms.len()],
            seen: if cq.atoms.iter().any(|a| a.proj.is_some()) {
                let seen = |a: &plan::AtomPlan| Seen {
                    rows: Distinct::set(a.proj.as_ref().map_or(0, Vec::len)),
                    repeats: 0,
                };
                cq.atoms.iter().map(seen).collect()
            } else {
                Vec::new()
            },
            head_buf: Vec::with_capacity(cq.head_slots.len()),
        }
    }

    /// One set of buffers per disjunct of `ucq`, in order.
    fn per_disjunct(ucq: &CompiledUcq) -> Vec<ExecBufs> {
        ucq.disjuncts.iter().map(ExecBufs::new).collect()
    }

    /// Forget every live projection seen, so a new run over the same
    /// plan skips nothing the last run saw.
    fn start_run(&mut self) {
        for seen in self.seen.iter_mut().filter(|s| !s.rows.is_empty()) {
            seen.clear();
        }
    }
}

/// Execute the plan suffix from `depth`, with `access` naming each
/// atom's posting table and id-resolved key. The join loop compares
/// interned `u32` ids read straight from the store's column pages, and
/// `emit` sees each head row as ids. `delta`, when given, replaces the
/// scan of the lead atom with the delta rows of its relation (checked
/// against the atom's key like any scan), and every later atom whose body
/// index precedes the lead's skips the delta rows (see
/// [`eval_seeded_ids`]). At a projection point, a live projection seen
/// before in this run returns at once ([`Seen::repeated`]): its subtree
/// emitted, or will emit, the same rows already. Generic over the
/// emitter, so an id-set insert inlines into the loop's leaf. Returns
/// `false` iff `emit` requested a stop.
fn exec<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    cq: &CompiledCq,
    access: &[index::AtomAccess],
    idx: &DbIndex<'_>,
    delta: Option<&Delta>,
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
    if let Some(proj) = &atom.proj {
        let slots = &bufs.slots;
        if bufs.seen[depth].repeated(proj.iter().map(|&s| slots[s])) {
            return true;
        }
    }
    let acc = &access[depth];
    let cols = idx.cols(atom.rel);
    let scanning = acc.handle == index::SCAN;
    // The delta rows this atom must skip: none for the lead, or for an
    // atom after the lead in the body.
    let skip = delta
        .filter(|_| cq.atoms.first().is_some_and(|lead| atom.body < lead.body))
        .map_or(&[][..], |d| d.bits(atom.rel));
    // Borrow this depth's scratch buffer by taking it out of the slice
    // (and restoring it below), so the recursive call can borrow the rest.
    let mut key_buf = std::mem::take(&mut bufs.scratch[depth]);
    let candidates: &[u32] = if scanning {
        // Full scan (or the lead's delta rows): bound positions, if any,
        // are verified per candidate.
        match delta {
            Some(d) if depth == 0 => d.rows(atom.rel),
            _ => idx.rows(atom.rel),
        }
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
        if bit(skip, row) {
            continue;
        }
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
        if !exec(cq, access, idx, delta, depth + 1, bufs, emit) {
            keep_going = false;
            break;
        }
    }
    bufs.scratch[depth] = key_buf;
    keep_going
}

/// Evaluate a compiled CQ, calling `emit` on head rows as interned ids
/// (`emit` returning `false` stops the enumeration early). Every answer
/// is emitted at least once, and may come again. A plan whose head drops
/// a body variable skips most repeats: at a projection point, a subtree
/// whose live projection the run has seen before (see [`plan`] and
/// `Seen::repeated`). A plan whose head lists every body variable emits
/// each body assignment exactly once. Returns `false` iff `emit`
/// requested a stop.
pub fn eval_cq_ids<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    cq: &CompiledCq,
    idx: &mut DbIndex<'_>,
    emit: &mut E,
) -> bool {
    let access = idx.ensure_cq(cq, false);
    exec(cq, &access, idx, None, 0, &mut ExecBufs::new(cq), emit)
}

/// [`eval_cq_ids`] over every disjunct, in order, until `emit` stops,
/// each disjunct running in its own buffers of `bufs`
/// ([`ExecBufs::per_disjunct`]) as a new run. `UnionQuery::new` and the
/// parser enforce a shared head arity; a disjunct of a hand-built union
/// that breaks it is skipped, so every emitted row has the union's head
/// arity.
fn ucq_ids_into<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    ucq: &CompiledUcq,
    idx: &mut DbIndex<'_>,
    bufs: &mut [ExecBufs],
    emit: &mut E,
) -> bool {
    ucq.disjuncts
        .iter()
        .zip(bufs)
        .filter(|(d, _)| d.head_slots.len() == ucq.head_arity)
        .all(|(d, bufs)| {
            bufs.start_run();
            let access = idx.ensure_cq(d, false);
            exec(d, &access, idx, None, 0, bufs, emit)
        })
}

/// Run a plan compiled with bound variables
/// ([`CompiledCq::compile_bound`]) once per parameter row, each filling
/// the bound slots: `emit(i, head)` sees every head id row of parameter
/// row `i`, and returning `false` ends row `i`'s enumeration (the next
/// row starts afresh, with no live projection seen). One set of access
/// paths and execution buffers serves the whole batch; a batch of two or
/// more rows probes the lead atom more than once, so only then does it
/// get a posting table. A parameter row whose width is not the plan's
/// bound count matches nothing.
pub fn eval_bound_ids<'p, E: FnMut(usize, &[ValueId]) -> bool>(
    cq: &CompiledCq,
    idx: &mut DbIndex<'_>,
    params: impl ExactSizeIterator<Item = &'p [ValueId]>,
    emit: &mut E,
) {
    let access = idx.ensure_cq(cq, params.len() > 1);
    let mut bufs = ExecBufs::new(cq);
    for (i, param) in params.enumerate() {
        if param.len() == cq.n_bound {
            bufs.slots[..cq.n_bound].copy_from_slice(param);
            bufs.start_run();
            exec(cq, &access, idx, None, 0, &mut bufs, &mut |head| {
                emit(i, head)
            });
        }
    }
}

/// A semi-naive delta over one store: the facts added or rewritten since
/// a fixpoint pass last looked, as row ids of their relations. Per
/// relation it holds the delta rows in row order (the candidates of a
/// seeded lead atom) and a bitmap over the relation's rows (the test by
/// which the atoms before the lead skip them). Built once per pass and
/// shared by every plan the pass runs.
pub struct Delta {
    rows: Vec<Vec<u32>>,
    bits: Vec<Vec<u64>>,
}

impl Delta {
    /// The live facts among `facts`, duplicates collapsed: a fact can die
    /// between being recorded and the pass that reads it.
    pub fn new(store: &FactStore, facts: impl IntoIterator<Item = FactId>) -> Delta {
        let mut bits: Vec<Vec<u64>> = vec![Vec::new(); store.n_relations()];
        for f in facts.into_iter().filter(|&f| store.is_live(f)) {
            let (rel, row) = (store.fact_rel(f), store.fact_row(f) as usize);
            let words = &mut bits[rel.index()];
            if words.is_empty() {
                words.resize((store.table(rel).n_rows() as usize).div_ceil(64), 0);
            }
            words[row / 64] |= 1 << (row % 64);
        }
        let rows = bits
            .iter()
            .map(|words| {
                let mut rows = Vec::new();
                for (w, &word) in words.iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        rows.push(dense_count(w * 64) + rest.trailing_zeros());
                        rest &= rest - 1;
                    }
                }
                rows
            })
            .collect();
        Delta { rows, bits }
    }

    /// Whether the delta holds no live fact.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(Vec::is_empty)
    }

    /// The delta rows of `rel`, in row order.
    pub fn rows(&self, rel: Symbol) -> &[u32] {
        &self.rows[rel.index()]
    }

    /// The bitmap of `rel`'s delta rows; empty when it has none.
    fn bits(&self, rel: Symbol) -> &[u64] {
        &self.bits[rel.index()]
    }
}

/// Whether `row` is set in `bits`.
fn bit(bits: &[u64], row: u32) -> bool {
    bits.get(row as usize / 64)
        .is_some_and(|&word| word >> (row % 64) & 1 != 0)
}

/// Semi-naive evaluation of a CQ over a [`Delta`], with each match that
/// uses at least one delta fact emitted by exactly one pinned plan. The
/// plan comes from [`CompiledCq::compile_pinned`] at some body atom *i*,
/// which leads its join order: atom *i* ranges over the delta rows of its
/// relation, every atom *j < i* of the body skips the delta rows, and
/// every atom *j > i* ranges over all live rows. So running the plans
/// pinned at every body atom over one delta emits each such match once,
/// from the plan pinned at its first delta position. Nothing precedes the
/// lead atom, so its key parts are all constants, verified per delta row.
/// A plan with no atoms emits nothing: there is no atom to seed. Returns
/// `false` iff `emit` requested a stop.
pub fn eval_seeded_ids<E: FnMut(&[ValueId]) -> bool + ?Sized>(
    cq: &CompiledCq,
    idx: &mut DbIndex<'_>,
    delta: &Delta,
    emit: &mut E,
) -> bool {
    let (access, bufs) = (idx.ensure_cq(cq, false), &mut ExecBufs::new(cq));
    cq.atoms.is_empty() || exec(cq, &access, idx, Some(delta), 0, bufs, emit)
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

/// Evaluate a compiled UCQ on an index: the union of the
/// disjuncts' answer sets, deduplicated as interned id rows in one set
/// shared by the disjuncts and decoded once per distinct row.
pub fn eval_ucq_on(ucq: &CompiledUcq, idx: &mut DbIndex<'_>) -> BTreeSet<Vec<Value>> {
    let mut set = IdSet::set(ucq.head_arity);
    ucq_ids_into(ucq, idx, &mut ExecBufs::per_disjunct(ucq), &mut |row| {
        set.insert_row(row);
        true
    });
    decode(set.rows(), idx.store())
}

/// A UCQ compiled for row tests: is a row an answer (nulls as values),
/// and by which body assignment? Each disjunct compiles once with its
/// distinct head variables bound on entry and its sorted body variables
/// as its head, so a probe with the head bound to a row enumerates the
/// full body assignments that project to it.
pub struct RowProbe {
    /// Per disjunct that compiles: its index in the UCQ, its plan, and per
    /// head position the bound slot it reads (repeated head variables
    /// share one).
    disjuncts: Vec<(usize, CompiledCq, Vec<usize>)>,
}

impl RowProbe {
    /// Compile every disjunct, dropping those that do not fit the schema
    /// or whose head mentions a variable the body does not: they match no
    /// row, as under [`CompiledUcq::compile_lenient`].
    pub fn compile_lenient(q: &UnionQuery, schema: &Schema) -> RowProbe {
        let compile = |(i, d): (usize, &ConjunctiveQuery)| {
            let mut bound: Vec<u32> = Vec::new();
            let mut slot = |v: &u32| {
                bound.iter().position(|b| b == v).unwrap_or_else(|| {
                    bound.push(*v);
                    bound.len() - 1
                })
            };
            let slots = d.head.iter().map(&mut slot).collect();
            let q = ConjunctiveQuery::with_head(d.body_vars(), d.atoms.clone());
            Some((
                i,
                CompiledCq::compile_bound(&q, schema, &bound).ok()?,
                slots,
            ))
        };
        RowProbe {
            disjuncts: q.disjuncts.iter().enumerate().filter_map(compile).collect(),
        }
    }

    /// For each of `rows`, the first disjunct that emits it, with a body
    /// assignment projecting to it (values in sorted body-variable order):
    /// with `least`, its least one compared as values — the first answer
    /// row of the disjunct with every body variable in its head — and
    /// otherwise the first found. Each disjunct runs once, one batch over
    /// the rows no earlier disjunct emitted. A value that is not interned
    /// in `idx`'s store occurs in no answer.
    fn find(
        &self,
        idx: &mut DbIndex<'_>,
        rows: &[&[Value]],
        least: bool,
    ) -> Vec<Option<(usize, Vec<Value>)>> {
        let mut out = vec![None; rows.len()];
        for (i, plan, slots) in &self.disjuncts {
            let (mut open, mut params) = (Vec::new(), Rows::new(plan.n_bound));
            for (r, row) in rows.iter().enumerate().filter(|&(r, _)| out[r].is_none()) {
                if let Some(param) = bind(idx.store(), slots, plan.n_bound, row) {
                    open.push(r);
                    params.push(param);
                }
            }
            // The run holds the index, so the matches are decoded after it,
            // and the least is taken by value: ids on a bridged store do not
            // follow value order.
            let (mut of, mut found) = (Vec::new(), Rows::new(plan.head_slots.len()));
            eval_bound_ids(plan, idx, params.iter(), &mut |p, ids| {
                of.push(open[p]);
                found.push(ids.iter().copied());
                least
            });
            for (r, ids) in of.into_iter().zip(found.iter()) {
                let values: Vec<Value> = ids.iter().map(|&id| idx.store().value(id)).collect();
                if out[r].as_ref().is_none_or(|(_, held)| values < *held) {
                    out[r] = Some((*i, values));
                }
            }
        }
        out
    }

    /// Does some disjunct emit the head row `row`? Each disjunct probes
    /// once and stops at its first match.
    pub fn has_row(&self, idx: &mut DbIndex<'_>, row: &[Value]) -> bool {
        self.find(idx, &[row], false).pop().flatten().is_some()
    }

    /// For each of `rows`, the first disjunct that emits it, with its
    /// least body assignment projecting to it (see [`RowProbe`]).
    pub fn least_matches(
        &self,
        idx: &mut DbIndex<'_>,
        rows: &[&[Value]],
    ) -> Vec<Option<(usize, Vec<Value>)>> {
        self.find(idx, rows, true)
    }
}

/// The parameter row that binds a disjunct's head `slots` to `row`'s ids:
/// `None` if a value is not interned, or a repeated head variable would
/// take two values.
fn bind(store: &FactStore, slots: &[usize], n_bound: usize, row: &[Value]) -> Option<Vec<ValueId>> {
    if slots.len() != row.len() {
        return None;
    }
    let mut param = vec![INVALID_ID; n_bound];
    for (&s, &v) in slots.iter().zip(row) {
        let id = store.lookup_value(v)?;
        if ![INVALID_ID, id].contains(&std::mem::replace(&mut param[s], id)) {
            return None;
        }
    }
    Some(param)
}

/// Boolean evaluation of a compiled UCQ on an index, with early
/// exit on the first witness.
pub fn eval_ucq_bool_on(ucq: &CompiledUcq, idx: &mut DbIndex<'_>) -> bool {
    ucq.disjuncts
        .iter()
        .any(|d| !eval_cq_ids(d, idx, &mut |_| false))
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
/// values): [`eval_ucq`] of the one-disjunct union.
pub fn eval_cq(
    q: &ConjunctiveQuery,
    db: &NaiveDatabase,
) -> Result<BTreeSet<Vec<Value>>, PlanError> {
    eval_ucq(&UnionQuery::single(q.clone()), db)
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
/// interned id rows and only the surviving rows are decoded. One set of
/// execution buffers per disjunct serves every completion; each run
/// starts with no live projection seen, since a projection the last
/// completion emitted must still be emitted in this one.
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
    let mut bufs = ExecBufs::per_disjunct(plan);
    let survivors = sweep::intersect(space.len(), plan.head_arity, |i, emit| {
        ucq_ids_into(plan, &mut DbIndex::over(space.ground(i)), &mut bufs, emit);
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
        let plan = CompiledUcq::compile(&q, &db.schema).unwrap();
        assert!(certain_table_over(&plan, &db, &[]).is_empty());
        assert!(certain_bool_over(&plan, &db, &[]));
    }

    /// The delta of the facts at `rows` of `rel`.
    fn delta_of(store: &FactStore, rel: Symbol, rows: &[u32]) -> Delta {
        let at = |&f: &FactId| store.fact_rel(f) == rel && rows.contains(&store.fact_row(f));
        Delta::new(store, store.iter_live().filter(at))
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
        let seed_id = db.facts().position(|f| f.args == vec![c(2), c(3)]).unwrap() as u32;
        let r = db.schema.relation("R").unwrap();
        let mut seeded = |seed: &[u32]| {
            let mut rows = Rows::new(2);
            let delta = delta_of(idx.store(), r, seed);
            assert!(eval_seeded_ids(&plan, &mut idx, &delta, &mut |row| {
                rows.push(row.iter().copied());
                true
            }));
            decode(&rows, idx.store())
        };
        assert_eq!(seeded(&[seed_id]), BTreeSet::from([vec![c(2), c(4)]]));
        // Seeding with every fact recovers the full answer set.
        let all: Vec<u32> = (0..db.len() as u32).collect();
        assert_eq!(seeded(&all), eval_cq(&q, &db).unwrap());
    }

    /// Over one delta, the plans pinned at every body atom emit each body
    /// assignment that uses a delta row exactly once, through a scanned
    /// lead atom and indexed later ones (CSR and grouped): for
    /// `R(x,y), R(y,z)` and `R(x,y), R(y,z), R(x,z)` over random `R`s of
    /// 16 to 40 rows and random delta subsets, the multiset of emitted
    /// rows is the brute-force set of such assignments.
    #[test]
    fn seeded_runs_find_each_delta_match_once() {
        use index::{INDEX_THRESHOLD, SCAN};
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let r = |x, y| Atom::new("R", vec![V(x), V(y)]);
        let bodies = [vec![r(0, 1), r(1, 2)], vec![r(0, 1), r(1, 2), r(0, 2)]];
        for trial in 0..16 {
            let n = INDEX_THRESHOLD + next(25) as usize;
            let mut tuples = BTreeSet::new();
            while tuples.len() < n {
                tuples.insert(vec![c(next(7) as i64), c(next(7) as i64)]);
            }
            let refs: Vec<&[Value]> = tuples.iter().map(Vec::as_slice).collect();
            let db = table("R", 2, &refs);
            let rel = db.schema.relation("R").unwrap();
            let in_delta: Vec<bool> = (0..n).map(|_| next(3) == 0).collect();
            for atoms in &bodies {
                let q = ConjunctiveQuery::with_head(vec![0, 1, 2], atoms.clone());
                let mut idx = DbIndex::new(&db);
                let store = idx.store();
                let delta = Delta::new(
                    store,
                    store
                        .iter_live()
                        .filter(|&f| in_delta[store.fact_row(f) as usize]),
                );
                let mut got: Vec<Vec<ValueId>> = Vec::new();
                for pin in 0..atoms.len() {
                    let plan = CompiledCq::compile_pinned(&q, &db.schema, pin).unwrap();
                    let access = idx.ensure_cq(&plan, false);
                    assert!(access[1..].iter().all(|a| a.handle != SCAN));
                    eval_seeded_ids(&plan, &mut idx, &delta, &mut |row| {
                        got.push(row.to_vec());
                        true
                    });
                }
                // Every choice of one row per atom that agrees on the
                // variables and uses a delta row.
                let (rows, cols) = (idx.rows(rel), idx.cols(rel));
                let mut want: Vec<Vec<ValueId>> = Vec::new();
                let mut pick = vec![0usize; atoms.len()];
                'pick: loop {
                    let mut slots = [None; 3];
                    let agree = atoms.iter().zip(&pick).all(|(atom, &p)| {
                        atom.args.iter().enumerate().all(|(pos, t)| {
                            let (V(x), id) = (t, cols[pos][rows[p] as usize]) else {
                                return false;
                            };
                            *slots[*x as usize].get_or_insert(id) == id
                        })
                    });
                    if agree && pick.iter().any(|&p| in_delta[rows[p] as usize]) {
                        want.push(slots.iter().map(|s| s.unwrap()).collect());
                    }
                    for p in pick.iter_mut() {
                        *p += 1;
                        if *p < rows.len() {
                            continue 'pick;
                        }
                        *p = 0;
                    }
                    break;
                }
                got.sort();
                want.sort();
                assert!(want.windows(2).all(|w| w[0] != w[1]));
                assert!(!want.is_empty(), "trial {trial}");
                assert_eq!(got, want, "trial {trial}, {} atoms", atoms.len());
            }
        }
    }

    /// A seeded lead atom with a constant checks it on every seed row:
    /// seeding `(x, y) :- R(x, 5), S(x, y)` with every `R` row gives the
    /// reference answers, and a row whose second column is not 5 emits
    /// nothing.
    #[test]
    fn seeded_lead_atom_checks_its_constants() {
        let schema = Schema::from_relations(&[("R", 2), ("S", 2)]);
        let mut db = NaiveDatabase::new(schema);
        for i in 0..40i64 {
            db.add("R", vec![c(i % 7), c(i % 3 + 4)]);
            db.add("S", vec![c(i % 5), n((i % 4) as u32)]);
        }
        let q = ConjunctiveQuery::with_head(
            vec![0, 1],
            vec![
                Atom::new("R", vec![V(0), C(5)]),
                Atom::new("S", vec![V(0), V(1)]),
            ],
        );
        let plan = CompiledCq::compile_pinned(&q, &db.schema, 0).unwrap();
        let mut idx = DbIndex::new(&db);
        // R's row 0 is R(0, 4).
        let (r, c4) = (
            db.schema.relation("R").unwrap(),
            idx.store().lookup_value(c(4)),
        );
        assert_eq!(Some(idx.store().table(r).cols()[1][0]), c4);
        let mut seeded = |seed: &[u32]| {
            let mut rows = Rows::new(2);
            let delta = delta_of(idx.store(), r, seed);
            eval_seeded_ids(&plan, &mut idx, &delta, &mut |row| {
                rows.push(row.iter().copied());
                true
            });
            decode(&rows, idx.store())
        };
        let all: Vec<u32> = (0..db.relation(r).len() as u32).collect();
        let expected = reference::eval_cq(&q, &db);
        assert!(!expected.is_empty());
        assert_eq!(seeded(&all), expected);
        assert!(seeded(&[0]).is_empty());
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
        let plan = CompiledUcq {
            disjuncts: vec![CompiledCq::compile_pinned(&q, &db.schema, 0).unwrap()],
            head_arity: 2,
        };
        let out = eval_ucq_on(&plan, &mut DbIndex::new(&db));
        let expected = reference::eval_cq(&q, &db);
        assert!(!expected.is_empty());
        assert_eq!(out, expected);
    }

    /// `MATES`, `(e, m) :- Works(e, d), Works(f, d), Reports(f, m)`, over
    /// eight departments of 20, where everyone reports to the
    /// department's first boss and every other employee to its second
    /// too.
    fn mates() -> (NaiveDatabase, ConjunctiveQuery) {
        let schema = Schema::from_relations(&[("Works", 2), ("Reports", 2)]);
        let mut db = NaiveDatabase::new(schema);
        for d in 0..8i64 {
            for i in 0..20 {
                let e = 100 * d + i;
                db.add("Works", vec![c(e), c(10_000 + d)]);
                db.add("Reports", vec![c(e), c(20_000 + 2 * d)]);
                if i % 2 == 0 {
                    db.add("Reports", vec![c(e), c(20_001 + 2 * d)]);
                }
            }
        }
        let q = ConjunctiveQuery::with_head(
            vec![0, 3],
            vec![
                Atom::new("Works", vec![V(0), V(1)]),
                Atom::new("Works", vec![V(2), V(1)]),
                Atom::new("Reports", vec![V(2), V(3)]),
            ],
        );
        (db, q)
    }

    /// [`mates`] through its costed plan, which joins `Works(f, d)` with
    /// `Reports(f, m)`, then skips each repeated `(d, m)` before
    /// `Works(e, d)`: the join emits each answer once, where a plan
    /// without the skip emits 15 rows per answer.
    #[test]
    fn mates_emits_each_answer_once() {
        let (db, q) = mates();
        let mut idx = DbIndex::new(&db);
        let plan = CompiledCq::compile_costed(&q, &db.schema, idx.model()).unwrap();
        let order: Vec<usize> = plan.atoms.iter().map(|a| a.body).collect();
        assert_eq!(
            order,
            vec![1, 2, 0],
            "Works(f, d), Reports(f, m), Works(e, d)"
        );
        let projs: Vec<Option<usize>> = plan
            .atoms
            .iter()
            .map(|a| a.proj.as_ref().map(Vec::len))
            .collect();
        assert_eq!(projs, vec![None, None, Some(2)], "one skip, on (d, m)");
        let (mut emitted, mut answers) = (0usize, IdSet::set(2));
        assert!(eval_cq_ids(&plan, &mut idx, &mut |row| {
            emitted += 1;
            answers.insert_row(row);
            true
        }));
        let answers = decode(answers.rows(), idx.store());
        assert_eq!(answers, reference::eval_cq(&q, &db));
        assert_eq!((emitted, answers.len()), (320, 320));
    }

    /// The greedy `MATES` plan, `Works(e, d)`, `Works(f, d)`,
    /// `Reports(f, m)`, has a projection point on `(e, f)`, which never
    /// repeats: it stops checking after [`PROBATION`] of the 3,200
    /// arrivals, and the run still emits every answer.
    #[test]
    fn a_point_that_never_repeats_stops_checking() {
        let (db, q) = mates();
        let plan = CompiledCq::compile(&q, &db.schema).unwrap();
        assert_eq!(plan.atoms[2].proj.as_ref().map(Vec::len), Some(2));
        let mut idx = DbIndex::new(&db);
        let access = idx.ensure_cq(&plan, false);
        let (mut bufs, mut answers) = (ExecBufs::new(&plan), IdSet::set(2));
        exec(&plan, &access, &idx, None, 0, &mut bufs, &mut |row| {
            answers.insert_row(row);
            true
        });
        let seen = &bufs.seen[2];
        assert_eq!((seen.rows.len(), seen.repeats), (PROBATION, 0));
        let answers = decode(answers.rows(), idx.store());
        assert_eq!(answers, reference::eval_cq(&q, &db));
    }

    /// A bound batch where `x`'s last use comes before a projection
    /// point: `(z) :- R(x, y), S(y, z), T(z)` with `x` bound drops `y`
    /// before `T(z)`, and distinct `x` reach the same `z`. Each parameter
    /// row, repeated ones too, sees exactly the rows of its own
    /// single-row run.
    #[test]
    fn bound_batch_rows_each_see_their_own_matches() {
        let schema = Schema::from_relations(&[("R", 2), ("S", 2), ("T", 1)]);
        let mut db = NaiveDatabase::new(schema);
        for i in 0..40i64 {
            db.add("R", vec![c(i % 6), c(10 + i % 5)]);
            db.add("S", vec![c(10 + i % 7), c(20 + i % 4)]);
        }
        for z in [20, 21, 23] {
            db.add("T", vec![c(z)]);
        }
        let q = ConjunctiveQuery::with_head(
            vec![2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("S", vec![V(1), V(2)]),
                Atom::new("T", vec![V(2)]),
            ],
        );
        let plan = CompiledCq::compile_bound(&q, &db.schema, &[0]).unwrap();
        let projs: Vec<Option<&[usize]>> = plan.atoms.iter().map(|a| a.proj.as_deref()).collect();
        assert_eq!(projs, vec![None, None, Some(&[0, 2][..])]);
        let mut idx = DbIndex::new(&db);
        let xs: Vec<ValueId> = [0, 3, 0, 5, 3, 9]
            .map(|x| idx.store().lookup_value(c(x)).unwrap_or(INVALID_ID))
            .to_vec();
        let mut batch = vec![Vec::new(); xs.len()];
        eval_bound_ids(&plan, &mut idx, xs.chunks(1), &mut |i, row| {
            batch[i].push(row.to_vec());
            true
        });
        for (x, got) in xs.chunks(1).zip(&batch) {
            let mut alone = Vec::new();
            eval_bound_ids(&plan, &mut idx, [x].into_iter(), &mut |_, row| {
                alone.push(row.to_vec());
                true
            });
            assert_eq!(got, &alone, "x = {x:?}");
        }
        assert!(batch[0].len() > 1 && batch[0] == batch[2]);
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
        assert!(eval_cq_ids(&plan, &mut idx, &mut |row| {
            out.insert(row.iter().map(|&id| store.value(id)).collect());
            true
        }));
        assert_eq!(out, eval_cq(&q, &db).unwrap());
    }

    /// The sweep runs every completion in one set of execution buffers
    /// per disjunct. Here the greedy `MATES` plan's projection point on
    /// `(e, f)` sees the same projections in every completion (the
    /// complete facts give each completion the same matches), so buffers
    /// that kept one completion's projections would skip them all in the
    /// next, and the intersection would lose every certain row.
    #[test]
    fn the_sweep_forgets_projections_between_completions() {
        let schema = Schema::from_relations(&[("Works", 2), ("Reports", 2)]);
        let mut db = NaiveDatabase::new(schema);
        for e in 0..6i64 {
            db.add("Works", vec![c(e), c(10 + e % 2)]);
            db.add("Reports", vec![c(e), c(20 + e % 3)]);
        }
        db.add("Works", vec![n(1), c(10)]);
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0, 3],
            vec![
                Atom::new("Works", vec![V(0), V(1)]),
                Atom::new("Works", vec![V(2), V(1)]),
                Atom::new("Reports", vec![V(2), V(3)]),
            ],
        ));
        let plan = CompiledUcq::compile(&q, &db.schema).unwrap();
        let projs: Vec<_> = plan.disjuncts[0]
            .atoms
            .iter()
            .map(|a| a.proj.is_some())
            .collect();
        assert_eq!(projs, vec![false, false, true], "a point on (e, f)");
        let pool = [0, 6, 7];
        let mut want: Option<BTreeSet<Vec<Value>>> = None;
        for r in db.completions_over(&pool) {
            let ans = reference::eval_ucq(&q, &r);
            want = Some(want.map_or(ans.clone(), |acc| &acc & &ans));
        }
        let want = want.unwrap();
        assert_eq!(want.len(), 18, "every complete employee's mates");
        assert_eq!(certain_table_over(&plan, &db, &pool), want);
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
        let plan = CompiledUcq::compile(&q, &db.schema).unwrap();
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
            let plan = CompiledUcq::compile(&q, &db.schema).unwrap();
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
