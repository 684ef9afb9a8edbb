//! The semi-naive, delta-driven chase engine.
//!
//! Purely relational inputs (`σ = ∅` — every data-exchange target in
//! this crate) chase on the compiled join machinery of
//! [`ca_query::engine`] instead of re-running the reference loop's CSP
//! matcher over the whole instance after every single firing; any other
//! input is refused ([`try_chase`]):
//!
//! * every rule and egd body compiles once, when the rule is compiled,
//!   into one pinned join plan per body atom ([`BodyPlans`]), with every
//!   body variable in the plan's head. Each egd pass and each tgd phase
//!   builds its **delta** once — the facts added or rewritten since the
//!   previous pass, as per-relation rows and a row bitmap ([`Delta`]) —
//!   and evaluates the plan pinned at each atom *i* with atom *i* ranging
//!   over the delta, every atom before *i* in the body skipping it, and
//!   every atom after *i* ranging over all live rows. So a match that uses
//!   at least one new fact is found exactly once, through the plan pinned
//!   at its first delta position, and quiet regions are never re-derived
//!   (semi-naive evaluation). Each answer row is a complete body
//!   assignment, as interned ids. With its match key (the trigger, or the
//!   equality pair for egds) in front it goes into one flat, fixed-stride
//!   id buffer per rule ([`Distinct`]) that keeps the least row per key,
//!   and one sort of the distinct rows yields the round's triggers in key
//!   order, each with its least witness. This is the one match phase of
//!   both modes: a certified run ([`ChaseConfig::certify`]) records the
//!   witness as its step's values, decoded straight into the
//!   certificate's flat value buffer;
//! * a *trigger* is a valuation of the rule's frontier (sorted body∩head
//!   nulls). The facts live in the **workspace columnar fact store**
//!   ([`ca_core::store::FactStore`] — interned values, column-major
//!   tuples, a live bitmap), which never deduplicates; the chase owns
//!   the set semantics ([`Facts`]): one [`RowIndex`] per relation over
//!   the relation's own column pages, and a null-occurrence list per
//!   null. Head satisfaction is tested per round-start trigger, before
//!   any firing. A full rule (no existentials) is satisfied iff each of
//!   its instantiated head facts is live, one [`Facts::holds`] lookup per
//!   head atom. A rule with existentials compiles its head pattern once
//!   with the frontier bound on entry ([`CompiledCq::compile_bound`]),
//!   and each trigger runs it with its valuation as the parameter row,
//!   stopping at the first extension. The unsatisfied triggers fire. No
//!   trigger fires twice, with no memory of past firings: a fired
//!   trigger's head facts stay in the instance, and egd merges rewrite
//!   them like every other fact (a homomorphism), so at every later round
//!   start its head is satisfied;
//! * egd equalities accumulate in a **union-find** over null ids
//!   (constant roots win; two distinct constant roots fail the chase) and
//!   rewrite, id for id, only the facts that mention a merged null, found
//!   through the occurrence lists — never the whole instance. A rewritten
//!   fact whose tuple is already live dies; any other is overwritten in
//!   place;
//! * values appear only where the chase reports (step values, merge
//!   records, [`canonical_rows`]); everything else compares ids, whose
//!   order on the chase's store is value order (see [`run`]);
//! * the match phase evaluates the round's (rule, pinned plan) pairs
//!   in (rule index, pin) order, and firing applies the collected
//!   triggers in (rule index, frontier valuation) order — lowest trigger
//!   wins — with fresh existential nulls drawn in that same order, so
//!   the chased instance is deterministic. A rule's round is over budget
//!   as soon as it has more than [`ChaseConfig::match_limit`] *distinct*
//!   triggers (or an egd pass more distinct equality pairs); duplicates
//!   collapse as they arrive, so a buffer never holds more than
//!   `match_limit + 1` rows. Satisfied triggers count like any other:
//!   the head test spends no budget;
//! * every exit cuts the store once ([`canonical_rows`]: per relation,
//!   flat resolved id rows, sorted and deduplicated, which is value order
//!   here, then decoded once into flat value rows), and the chased
//!   instance of [`ChaseOutcome::Done`] / `Overflow` and the
//!   certificate's claimed facts both read that decoded cut: nodes come
//!   out in canonical `(relation, data)` order with no duplicates. The
//!   certificate's initial facts are the same cut, taken at load.
//!
//! Differences from the reference loop, all benign up to
//! hom-equivalence (the differential suite compares with `gdm_equiv`):
//! facts are interned, so duplicate nodes collapse; triggers fire per
//! distinct frontier valuation rather than per body match (the extra
//! matches the reference enumerates are satisfied the moment the first
//! one fires); and rounds fire every round-start-active trigger where
//! the reference restarts after each firing, so step budgets are spent
//! in a different order — outcome agreement on terminating inputs is
//! unaffected, since chase failure and success are order-independent.

use std::ops::Range;

use ca_cert::{CertAtom, CertEgd, CertRule, ChaseCert, ChaseCertOutcome, ChaseStep, FactGroups};

use ca_core::rows::{hash_key, RowIndex};
use ca_core::store::{
    dense_count, id_is_null, null_index, FactId, FactStore, RelTable, ValueId, INVALID_ID,
};
use ca_core::symbol::Symbol;
use ca_core::value::{Null, NullGen, Value};
use ca_gdm::database::GenDb;
use ca_query::ast::{Atom, ConjunctiveQuery, Term};
use ca_query::certify::cert_atom;
use ca_query::engine::{eval_bound_ids, eval_seeded_ids, rows, CompiledCq, DbIndex, Delta};
use ca_relational::schema::Schema;

use super::{ChaseConfig, ChaseInput, ChaseOutcome, ChaseRefusal, Egd, PlanError, RefusalReason};
use crate::mapping::Rule;

/// The atoms of a purely relational pattern: one atom per node, the
/// node's label as the relation, nulls as variables (by null id),
/// constants as constants. Shared with the mapping layer's compiled
/// body-match fast path.
pub(crate) fn pattern_atoms(d: &GenDb) -> Vec<Atom> {
    d.nodes()
        .map(|(label, row)| {
            let args = row
                .iter()
                .map(|v| match v {
                    Value::Null(nl) => Term::Var(nl.0),
                    Value::Const(c) => Term::Const(*c),
                })
                .collect();
            Atom::new(d.schema.label_name(label), args)
        })
        .collect()
}

/// One position of a head-fact template, resolved at firing time.
enum HeadTerm {
    /// A constant from the rule head, as its id in the chase's store.
    Const(ValueId),
    /// The id in the trigger row at this frontier index.
    Frontier(usize),
    /// An existential null, fresh per firing and shared across the head
    /// instantiation: its dense index, in first-occurrence order over the
    /// head templates.
    Existential(usize),
}

/// A head fact to instantiate when a trigger fires.
struct HeadFact {
    rel: Symbol,
    template: Vec<HeadTerm>,
}

impl HeadFact {
    /// The fact's tuple under the trigger `key` and a firing's `fresh`
    /// nulls (none for a full rule), written into `out`.
    fn instantiate(&self, key: &[ValueId], fresh: &[ValueId], out: &mut Vec<ValueId>) {
        out.clear();
        out.extend(self.template.iter().map(|t| match *t {
            HeadTerm::Const(id) => id,
            HeadTerm::Frontier(i) => key[i],
            HeadTerm::Existential(x) => fresh[x],
        }));
    }
}

/// The match plans of one pattern body, compiled once: one plan per
/// body atom, pinned at that atom (so it can range over the delta), with
/// **every** sorted body variable in the head, so each answer row *is*
/// a complete body assignment (the witness a [`ChaseStep`] records, in
/// the same sorted variable order that the certificate vocabulary
/// derives from the rule).
struct BodyPlans {
    /// `(pinned relation, pinned plan)` per body atom; head = `body_vars`.
    plans: Vec<(Symbol, CompiledCq)>,
    /// All body variables, sorted (the answer rows' column order).
    body_vars: Vec<u32>,
    /// Positions in `body_vars` of the match key (a rule's frontier, or
    /// an egd's equated pair).
    proj: Vec<usize>,
}

impl BodyPlans {
    /// Fails when an atom does not fit the schema (plan errors do not
    /// depend on the pin) or the body does not bind a key variable.
    fn compile(atoms: Vec<Atom>, keys: &[u32], schema: &Schema) -> Result<Self, RefusalReason> {
        let mut vars: Vec<u32> = atoms.iter().flat_map(Atom::vars).collect();
        vars.sort_unstable();
        vars.dedup();
        let q = ConjunctiveQuery::with_head(vars, atoms);
        let mut plans = Vec::with_capacity(q.atoms.len());
        for (pin, atom) in q.atoms.iter().enumerate() {
            let plan = CompiledCq::compile_pinned(&q, schema, pin).map_err(RefusalReason::Plan)?;
            plans.push((relation(schema, &atom.rel, atom.args.len())?, plan));
        }
        let mut proj = Vec::with_capacity(keys.len());
        for &v in keys {
            let unbound = RefusalReason::UnboundNull(Null(v));
            proj.push(q.head.binary_search(&v).or(Err(unbound))?);
        }
        Ok(BodyPlans {
            plans,
            body_vars: q.head,
            proj,
        })
    }
}

/// One tgd compiled against the instance schema.
struct CompiledRule {
    body: BodyPlans,
    /// For a rule with existentials, the head pattern with the sorted
    /// frontier bound on entry: it matches a trigger's valuation iff that
    /// trigger is satisfied. A full rule has none: its trigger is
    /// satisfied iff every instantiated head fact is live.
    head: Option<CompiledCq>,
    /// The head facts to instantiate on firing.
    head_facts: Vec<HeadFact>,
    /// The dense index of each existential, in ascending null-id order:
    /// the order of a step's fresh-null ledger. A firing draws one fresh
    /// null per entry, in dense-index order.
    ledger: Vec<usize>,
}

impl CompiledRule {
    /// The frontier arity: the stride of the rule's trigger keys.
    fn key_len(&self) -> usize {
        self.body.proj.len()
    }
}

/// The relation of an atom over `name` with `arity` arguments, or the
/// plan error a query with that atom gets.
fn relation(schema: &Schema, name: &str, arity: usize) -> Result<Symbol, RefusalReason> {
    let unfit = |e| Err(RefusalReason::Plan(e));
    let Some(rel) = schema.relation(name) else {
        return unfit(PlanError::UnknownRelation { rel: name.into() });
    };
    let declared = schema.arity(rel);
    if declared != arity {
        return unfit(PlanError::ArityMismatch {
            rel: name.into(),
            declared,
            used: arity,
        });
    }
    Ok(rel)
}

/// Fails when the rule has structural tuples or a pattern does not fit
/// `schema`. Every head constant is in `store` already: [`Facts::load`]
/// interned it in value order, so interning it here only reads its id.
fn compile_rule(
    rule: &Rule,
    schema: &Schema,
    store: &mut FactStore,
) -> Result<CompiledRule, RefusalReason> {
    if !rule.body.tuples.is_empty() || !rule.head.tuples.is_empty() {
        return Err(RefusalReason::Structural);
    }
    let frontier: Vec<Null> = rule.frontier().into_iter().collect();
    let head_vars: Vec<u32> = frontier.iter().map(|nl| nl.0).collect();
    let body = BodyPlans::compile(pattern_atoms(&rule.body), &head_vars, schema)?;
    let mut head_facts = Vec::with_capacity(rule.head.n_nodes());
    let mut existentials: Vec<Null> = Vec::new();
    for (label, row) in rule.head.nodes() {
        // A full rule compiles no head plan to catch a head atom that
        // does not fit.
        let rel = relation(schema, rule.head.schema.label_name(label), row.len())?;
        let template = row
            .iter()
            .map(|v| match v {
                Value::Const(_) => HeadTerm::Const(store.intern_value(*v)),
                // `frontier` is sorted (`Rule::frontier` is an ordered set).
                Value::Null(nl) => match frontier.binary_search(nl) {
                    Ok(i) => HeadTerm::Frontier(i),
                    Err(_) => {
                        let seen = existentials.iter().position(|x| x == nl);
                        HeadTerm::Existential(seen.unwrap_or_else(|| {
                            existentials.push(*nl);
                            existentials.len() - 1
                        }))
                    }
                },
            })
            .collect();
        head_facts.push(HeadFact { rel, template });
    }
    let head = if existentials.is_empty() {
        None
    } else {
        let head_q = ConjunctiveQuery::boolean(pattern_atoms(&rule.head));
        let plan = CompiledCq::compile_bound(&head_q, schema, &head_vars);
        Some(plan.map_err(RefusalReason::Plan)?)
    };
    let mut ledger: Vec<usize> = (0..existentials.len()).collect();
    ledger.sort_unstable_by_key(|&x| existentials[x]);
    Ok(CompiledRule {
        body,
        head,
        head_facts,
        ledger,
    })
}

/// One egd's body plans, keyed by its two equated nulls. Fails when the
/// egd has structural tuples, its body does not fit `schema`, or it
/// equates a null the body does not bind (an empty body binds none).
fn compile_egd(egd: &Egd, schema: &Schema) -> Result<BodyPlans, RefusalReason> {
    if !egd.body.tuples.is_empty() {
        return Err(RefusalReason::Structural);
    }
    let pair = [egd.equal.0 .0, egd.equal.1 .0];
    BodyPlans::compile(pattern_atoms(&egd.body), &pair, schema)
}

/// Union-find over value ids: per dense null index, the null's parent,
/// or [`INVALID_ID`] at a root. Constants are always roots; between two
/// null roots the smaller id wins, so the representative choice is
/// deterministic. Constant ids sit below every null id, so in both cases
/// the root is the smaller id.
#[derive(Default)]
struct UnionFind {
    parent: Vec<ValueId>,
}

impl UnionFind {
    fn find(&self, id: ValueId) -> ValueId {
        let mut cur = id;
        while id_is_null(cur) {
            match self.parent.get(null_index(cur) as usize) {
                Some(&p) if p != INVALID_ID => cur = p,
                _ => break,
            }
        }
        cur
    }

    /// Union the classes of `a` and `b`. `Err(())` on a constant clash,
    /// `Ok(Some(n))` when null id `n` was merged away, `Ok(None)` when the
    /// classes already coincided.
    fn union(&mut self, a: ValueId, b: ValueId) -> Result<Option<ValueId>, ()> {
        let (ra, rb) = (self.find(a), self.find(b));
        let (root, loser) = (ra.min(rb), ra.max(rb));
        if root == loser {
            return Ok(None);
        }
        if !id_is_null(loser) {
            return Err(());
        }
        let i = null_index(loser) as usize;
        if self.parent.len() <= i {
            self.parent.resize(i + 1, INVALID_ID);
        }
        self.parent[i] = root;
        Ok(Some(loser))
    }
}

/// The chase's fact set: its store, made a *set* by one [`RowIndex`] per
/// relation over that relation's own column pages, the facts each null
/// occurs in, for egd merges, and the source of fresh nulls. A rewritten
/// row keeps its old slot and its old occurrences: probes and rewrites
/// check a row's liveness and current contents, so stale entries never
/// match.
#[derive(Default)]
struct Facts {
    store: FactStore,
    index: Vec<RowIndex>,
    /// Dense null index → facts whose tuple has (or once had) that null.
    occ: Vec<Vec<FactId>>,
    /// Fresh existentials, past every null of the instance and the rules.
    gen: NullGen,
}

impl Facts {
    /// An empty fact set over `schema`'s relations, in schema order, so
    /// store symbols are the symbols the plans were compiled against.
    fn new(schema: &Schema) -> Facts {
        let mut facts = Facts::default();
        for sym in schema.symbols() {
            let reg = facts
                .store
                .add_relation(schema.name(sym), schema.arity(sym));
            debug_assert_eq!(reg, sym, "store symbols mirror schema symbols");
            facts.index.push(RowIndex::default());
        }
        facts
    }

    /// The fact set of `instance`'s nodes (duplicate nodes intern to one
    /// fact) for a chase under `tgds`. Before it loads a node, it interns
    /// every instance value and every head-template constant of `tgds`,
    /// in ascending [`Value`] order, so ids compare like their values
    /// (see [`run`]).
    fn load(schema: &Schema, instance: &GenDb, tgds: &[Rule]) -> Facts {
        let mut facts = Facts::new(schema);
        let heads = tgds.iter().flat_map(|r| r.head.values());
        let mut values = instance.values().to_vec();
        values.extend(heads.filter(|v| v.as_null().is_none()));
        values.sort_unstable();
        values.dedup();
        for &v in &values {
            facts.store.intern_value(v);
        }
        // Fresh existentials avoid every null in sight, as in the reference.
        let rule_nulls = tgds
            .iter()
            .flat_map(|r| r.body.nulls().into_iter().chain(r.head.nulls()));
        facts.gen = NullGen::avoiding(values.iter().filter_map(|v| v.as_null()).chain(rule_nulls));
        let mut ids: Vec<ValueId> = Vec::new();
        for (label, row) in instance.nodes() {
            ids.clear();
            ids.extend(row.iter().map(|&v| facts.store.intern_value(v)));
            facts.insert(label, &ids);
        }
        facts
    }

    /// Draw a fresh null and intern it: fresh nulls ascend, and so do
    /// their ids.
    fn fresh(&mut self) -> ValueId {
        self.store.intern_value(self.gen.fresh_value())
    }

    /// The null behind the null id `id`.
    fn null(&self, id: ValueId) -> Null {
        Null(self.store.values().null_at(null_index(id)))
    }

    /// Add a fact: `Some(id)` iff no identical live fact exists (callers
    /// delta-track it).
    fn insert(&mut self, rel: Symbol, ids: &[ValueId]) -> Option<FactId> {
        let row = self.store.table(rel).n_rows();
        if self.place(rel, row, ids).is_some() {
            return None;
        }
        let f = self.store.append_ids(rel, ids);
        self.occur(f, ids);
        Some(f)
    }

    /// Whether a live fact of `rel` holds the tuple `ids`.
    fn holds(&self, rel: Symbol, ids: &[ValueId]) -> bool {
        let table = self.store.table(rel);
        let index = &self.index[rel.index()];
        index.find(hash_key(ids), holding(table, ids)).is_some()
    }

    /// Index `row` of `rel` under the tuple `ids`, unless a live row
    /// already holds `ids`: then that row, and nothing is indexed.
    fn place(&mut self, rel: Symbol, row: u32, ids: &[ValueId]) -> Option<u32> {
        let table = self.store.table(rel);
        let index = &mut self.index[rel.index()];
        if index.reserve(table.n_live() as usize) {
            let mut held: Vec<ValueId> = Vec::with_capacity(table.arity());
            for r in (0..table.n_rows()).filter(|&r| table.is_live(r)) {
                held.clear();
                held.extend(table.cols().iter().map(|col| col[r as usize]));
                index.place(hash_key(&held), r, |_| false);
            }
        }
        index.place(hash_key(ids), row, holding(table, ids))
    }

    /// List fact `f` under every null of `ids`.
    fn occur(&mut self, f: FactId, ids: &[ValueId]) {
        for &id in ids.iter().filter(|&&id| id_is_null(id)) {
            let i = null_index(id) as usize;
            if self.occ.len() <= i {
                self.occ.resize_with(i + 1, Vec::new);
            }
            self.occ[i].push(f);
        }
    }

    /// Rewrite every live fact mentioning one of the `merged` null ids
    /// through `subst`, returning the ids whose tuple changed in place,
    /// in id order. A fact whose rewritten tuple is already live
    /// *collapses* (goes dead) instead and is not reported — the
    /// surviving fact's tuple did not change, so every match through it
    /// was already found when *it* was delta.
    fn rewrite(&mut self, merged: &[ValueId], subst: impl Fn(ValueId) -> ValueId) -> Vec<FactId> {
        let mut facts: Vec<FactId> = Vec::new();
        for &n in merged {
            facts.extend(self.occ.get(null_index(n) as usize).into_iter().flatten());
        }
        facts.sort_unstable();
        facts.dedup();
        let mut changed = Vec::new();
        let (mut old, mut new): (Vec<ValueId>, Vec<ValueId>) = (Vec::new(), Vec::new());
        for f in facts {
            if !self.store.is_live(f) {
                continue;
            }
            old.clear();
            self.store.fact_ids_into(f, &mut old);
            new.clear();
            new.extend(old.iter().map(|&id| subst(id)));
            if new == old {
                continue;
            }
            // The fact's own row still holds its old tuple, so it cannot
            // match itself.
            let (rel, row) = (self.store.fact_rel(f), self.store.fact_row(f));
            if self.place(rel, row, &new).is_some() {
                self.store.set_dead(f);
                continue;
            }
            for (col, &id) in new.iter().enumerate().filter(|&(c, &id)| old[c] != id) {
                self.store.set_cell(rel, col, row, id);
            }
            self.occur(f, &new);
            changed.push(f);
        }
        changed
    }
}

/// Whether row `r` of `table` is live and holds `ids` now: the test that
/// lets stale index slots (rows since rewritten or dead) never match.
fn holding<'a>(table: &'a RelTable, ids: &'a [ValueId]) -> impl Fn(u32) -> bool + 'a {
    move |r| {
        let cells = table.cols().iter().map(|col| col[r as usize]);
        table.is_live(r) && cells.eq(ids.iter().copied())
    }
}

/// The constraint-set half of a chase certificate, built up front;
/// [`run`] adds the initial instance, the derivation and the outcome.
struct CertSkeleton {
    rules: Vec<CertRule>,
    egds: Vec<CertEgd>,
}

fn cert_skeleton(tgds: &[Rule], egds: &[Egd]) -> CertSkeleton {
    let atoms = |d: &GenDb| -> Vec<CertAtom> { pattern_atoms(d).iter().map(cert_atom).collect() };
    CertSkeleton {
        rules: tgds
            .iter()
            .map(|r| CertRule {
                body: atoms(&r.body),
                head: atoms(&r.head),
            })
            .collect(),
        egds: egds
            .iter()
            .map(|e| CertEgd {
                body: atoms(&e.body),
                equal: (e.equal.0 .0, e.equal.1 .0),
            })
            .collect(),
    }
}

/// Run the chase, or refuse the first input it does not cover: an
/// instance with structural tuples, then the first tgd, then the first
/// egd, that does not compile against the instance schema. The second
/// component is the derivation log, present exactly when
/// [`ChaseConfig::certify`] is set and the input is not refused.
pub(super) fn try_chase(
    instance: &GenDb,
    tgds: &[Rule],
    egds: &[Egd],
    cfg: &ChaseConfig,
) -> (ChaseOutcome, Option<ChaseCert>) {
    let refused = |input, reason| (ChaseOutcome::Refused(ChaseRefusal { input, reason }), None);
    if !instance.tuples.is_empty() {
        return refused(ChaseInput::Instance, RefusalReason::Structural);
    }
    // The instance schema's labels as a relational schema, registered in
    // label order, so relation symbols coincide with label symbols.
    // Pattern labels resolve against it by *name*, since each pattern
    // carries its own interner.
    let mut schema = Schema::new();
    for sym in instance.schema.label_symbols() {
        let rel = schema.add_relation(
            instance.schema.label_name(sym),
            instance.schema.label_arity(sym),
        );
        debug_assert_eq!(rel, sym, "schema symbols mirror label symbols");
    }
    let mut facts = Facts::load(&schema, instance, tgds);
    let mut rules = Vec::with_capacity(tgds.len());
    for (i, r) in tgds.iter().enumerate() {
        match compile_rule(r, &schema, &mut facts.store) {
            Ok(rule) => rules.push(rule),
            Err(reason) => return refused(ChaseInput::Tgd(i), reason),
        }
    }
    let mut cegds = Vec::with_capacity(egds.len());
    for (i, e) in egds.iter().enumerate() {
        match compile_egd(e, &schema) {
            Ok(body) => cegds.push(body),
            Err(reason) => return refused(ChaseInput::Egd(i), reason),
        }
    }
    let skeleton = cfg.certify.then(|| cert_skeleton(tgds, egds));
    run(&schema, &rules, &cegds, instance, facts, cfg, skeleton)
}

/// Fixed-stride id rows: per-rule keyed witnesses.
type Rows = rows::Rows<ValueId>;

/// Id rows unique by a leading key, each keeping its least row.
type Distinct = rows::Distinct<ValueId>;

/// Fixed-stride value rows: one relation of the decoded canonical cut.
type ValueRows = rows::Rows<Value>;

/// The in-flight derivation log of a certified run: its steps and the
/// two flat buffers they range over.
struct Recorder {
    skeleton: CertSkeleton,
    /// The loaded instance, in the claimed facts' canonical form.
    initial: FactGroups,
    steps: Vec<ChaseStep>,
    values: Vec<Value>,
    ledger: Vec<Null>,
}

/// Append `items` to `buf`: the range they fill.
fn append<T>(buf: &mut Vec<T>, items: impl Iterator<Item = T>) -> Range<u32> {
    let start = dense_count(buf.len());
    buf.extend(items);
    start..dense_count(buf.len())
}

impl Recorder {
    /// Decode a keyed witness's body row (the match key comes first) into
    /// the value buffer.
    fn values(&mut self, body: &BodyPlans, witness: &[ValueId], store: &FactStore) -> Range<u32> {
        let row = witness[body.proj.len()..].iter();
        append(&mut self.values, row.map(|&id| store.value(id)))
    }

    fn finish(self, outcome: ChaseCertOutcome) -> ChaseCert {
        ChaseCert {
            rules: self.skeleton.rules,
            egds: self.skeleton.egds,
            initial: self.initial,
            steps: self.steps,
            values: self.values,
            ledger: self.ledger,
            outcome,
        }
    }
}

/// The live store facts per relation symbol, resolved through the
/// union-find (`rewrite` lags it mid-merge-batch), sorted and
/// deduplicated as flat id rows, so store insertion order never leaks
/// into an outcome or certificate, and then decoded once into flat value
/// rows, which both the chased instance and the certificate read. Id
/// order is value order (see [`run`]), so the rows are in value order.
fn canonical_rows(store: &FactStore, uf: &UnionFind) -> Vec<ValueRows> {
    store
        .relations()
        .map(|rel| {
            let table = store.table(rel);
            let mut ids = Rows::new(table.arity());
            for row in (0..table.n_rows()).filter(|&row| table.is_live(row)) {
                ids.push(table.cols().iter().map(|col| uf.find(col[row as usize])));
            }
            ids.sort_dedup();
            ids.map(|&id| store.value(id))
        })
        .collect()
}

/// The relations in name order: the order of every fact list of a chase
/// certificate (the `(name, args)` order without comparing names).
fn by_name(schema: &Schema) -> Vec<Symbol> {
    let mut rels: Vec<Symbol> = schema.symbols().collect();
    rels.sort_by_key(|&rel| schema.name(rel));
    rels
}

/// The canonical rows in checker vocabulary, one group per relation: the
/// claimed facts of a certificate.
fn cert_facts(schema: &Schema, rows: &[ValueRows]) -> FactGroups {
    let mut facts = FactGroups::new();
    for rel in by_name(schema) {
        for row in rows[rel.index()].iter() {
            facts.push(schema.name(rel), row);
        }
    }
    facts
}

/// The canonical rows as the chased instance, relations in symbol order
/// (store, schema and label symbols coincide): `relational_view` reads it
/// as facts already in `Fact` order. Each row is copied into the node
/// arena; no row gets an allocation of its own.
fn chased_db(instance: &GenDb, rows: &[ValueRows]) -> GenDb {
    let mut out = GenDb::new(instance.schema.clone());
    for (label, run) in instance.schema.label_symbols().zip(rows) {
        for row in run.iter() {
            out.push_node(label, row);
        }
    }
    out
}

/// The step budget ran out: no chased instance, and a certified run
/// claims the facts derived so far.
fn aborted(
    schema: &Schema,
    store: &FactStore,
    uf: &UnionFind,
    rec: Option<Recorder>,
) -> (ChaseOutcome, Option<ChaseCert>) {
    let cert = rec.map(|r| {
        r.finish(ChaseCertOutcome::Aborted {
            partial: cert_facts(schema, &canonical_rows(store, uf)),
        })
    });
    (ChaseOutcome::Aborted, cert)
}

/// A match phase went over budget: the instance derived so far, claimed
/// as the certificate's partial facts too.
fn overflow(
    schema: &Schema,
    store: &FactStore,
    instance: &GenDb,
    uf: &UnionFind,
    rec: Option<Recorder>,
) -> (ChaseOutcome, Option<ChaseCert>) {
    let rows = canonical_rows(store, uf);
    let cert = rec.map(|r| {
        r.finish(ChaseCertOutcome::Overflow {
            partial: cert_facts(schema, &rows),
        })
    });
    (
        ChaseOutcome::Overflow(Box::new(chased_db(instance, &rows))),
        cert,
    )
}

/// Chase `facts`, fresh from [`Facts::load`], under `rules` and `egds`.
///
/// **On the chase's store, id order is value order.** The chase matches,
/// deduplicates, sorts and merges [`ValueId`]s, so it reproduces the
/// chase over values only because ids compare like their values here:
/// [`Facts::load`] interns every instance value and head-template
/// constant in ascending `Value` order before it loads a fact, and no
/// constant is interned later; fresh nulls come from `NullGen::avoiding`,
/// above every null in sight, and are interned as drawn
/// ([`Facts::fresh`]), so they ascend too; constant ids sit below the null
/// tag bit, as `Const < Null`. So sorted runs, least witnesses, firing
/// order, fresh nulls and certificate bytes are the value-level chase's.
fn run(
    schema: &Schema,
    rules: &[CompiledRule],
    egds: &[BodyPlans],
    instance: &GenDb,
    mut facts: Facts,
    cfg: &ChaseConfig,
    skeleton: Option<CertSkeleton>,
) -> (ChaseOutcome, Option<ChaseCert>) {
    let mut uf = UnionFind::default();
    let mut steps = 0usize;
    // The loaded facts are the first round's delta. Firing writes every
    // head tuple into the one `ids` buffer.
    let mut delta: Vec<FactId> = facts.store.iter_live().collect();
    let mut ids: Vec<ValueId> = Vec::new();
    // The certificate's initial instance is the loaded store's canonical
    // cut, so its bytes do not depend on the caller's node insertion order.
    let mut rec: Option<Recorder> = skeleton.map(|skeleton| Recorder {
        skeleton,
        initial: cert_facts(schema, &canonical_rows(&facts.store, &uf)),
        steps: Vec::new(),
        values: Vec::new(),
        ledger: Vec::new(),
    });
    loop {
        // Budget semantics mirror the reference's `for _ in 0..max_steps`
        // loop: the pass that *observes* the fixpoint needs a step too,
        // so a round may only begin while budget remains (in particular,
        // `max_steps == 0` aborts immediately).
        if steps >= cfg.max_steps {
            return aborted(schema, &facts.store, &uf, rec);
        }
        let round_start_steps = steps;

        // ---- egd phase: fixpoint over this round's delta ----
        let mut rewritten_all: Vec<FactId> = Vec::new();
        if !egds.is_empty() {
            let mut pass = Delta::new(&facts.store, delta.iter().copied());
            while !pass.is_empty() {
                let matched = {
                    let mut idx = DbIndex::over(&facts.store);
                    egd_matches(egds, &pass, cfg.match_limit, &mut idx)
                };
                let Ok((witnesses, pairs)) = matched else {
                    return overflow(schema, &facts.store, instance, &uf, rec);
                };
                let mut merged: Vec<ValueId> = Vec::new();
                for &(a, b, e, w) in &pairs {
                    if uf.find(a) == uf.find(b) {
                        continue;
                    }
                    if steps >= cfg.max_steps {
                        return aborted(schema, &facts.store, &uf, rec);
                    }
                    // `None` is a constant clash. Distinct roots make
                    // `Ok(None)` unreachable here.
                    let merged_entry = match uf.union(a, b) {
                        Err(()) => None,
                        Ok(Some(loser)) => Some(loser),
                        Ok(None) => continue,
                    };
                    if let Some(recd) = rec.as_mut() {
                        let record = |loser| (facts.null(loser), facts.store.value(uf.find(loser)));
                        let values = recd.values(&egds[e], witnesses[e].row(w), &facts.store);
                        recd.steps.push(ChaseStep::Merge {
                            egd: e,
                            values,
                            merged: merged_entry.map(record),
                        });
                    }
                    let Some(loser) = merged_entry else {
                        let cert = rec.map(|r| r.finish(ChaseCertOutcome::Failed));
                        return (ChaseOutcome::Failed, cert);
                    };
                    steps += 1;
                    merged.push(loser);
                }
                if merged.is_empty() {
                    break;
                }
                let changed = facts.rewrite(&merged, |v| uf.find(v));
                pass = Delta::new(&facts.store, changed.iter().copied());
                rewritten_all.extend(changed);
            }
        }

        // ---- tgd phase: collect round-start triggers, then fire ----
        let matched = {
            let mut idx = DbIndex::over(&facts.store);
            let added = delta.iter().chain(&rewritten_all).copied();
            let pass = Delta::new(&facts.store, added);
            tgd_matches(rules, &facts, &pass, cfg.match_limit, &mut idx)
        };
        let Ok(triggers) = matched else {
            return overflow(schema, &facts.store, instance, &uf, rec);
        };
        let mut inserted: Vec<u32> = Vec::new();
        let mut fresh: Vec<ValueId> = Vec::new();
        for (r, rule) in rules.iter().enumerate() {
            for witness in triggers[r].iter() {
                let key = &witness[..rule.key_len()];
                if steps >= cfg.max_steps {
                    return aborted(schema, &facts.store, &uf, rec);
                }
                steps += 1;
                fresh.clear();
                fresh.extend(rule.ledger.iter().map(|_| facts.fresh()));
                for hf in &rule.head_facts {
                    hf.instantiate(key, &fresh, &mut ids);
                    if let Some(id) = facts.insert(hf.rel, &ids) {
                        inserted.push(id);
                    }
                }
                if let Some(recd) = rec.as_mut() {
                    let values = recd.values(&rule.body, witness, &facts.store);
                    let drawn = rule.ledger.iter().map(|&x| facts.null(fresh[x]));
                    let fresh = append(&mut recd.ledger, drawn);
                    recd.steps.push(ChaseStep::Fire {
                        rule: r,
                        values,
                        fresh,
                    });
                }
            }
        }

        delta = inserted;
        if steps == round_start_steps {
            // No merge and no firing: every trigger is satisfied, the
            // instance is a fixpoint.
            let rows = canonical_rows(&facts.store, &uf);
            let cert = rec.map(|r| {
                r.finish(ChaseCertOutcome::Done {
                    final_facts: cert_facts(schema, &rows),
                })
            });
            return (
                ChaseOutcome::Done(Box::new(chased_db(instance, &rows))),
                cert,
            );
        }
    }
}

/// One egd pass's matches: per egd, its keyed witnesses (`(a, b)`, then
/// the body row), the least row per pair; and the pass's equality pairs
/// in `(a, b)` order, each with the least `(egd index, witness index)`
/// deriving it.
type EgdPass = (Vec<Rows>, Vec<(ValueId, ValueId, usize, usize)>);

/// Evaluate `body`'s plans over the pass's delta, adding every match as a
/// keyed witness to `out`: each match that uses a delta fact arrives
/// once, from the plan pinned at its first delta position. `false` as
/// soon as `out` holds more than `limit` distinct keys.
fn collect_witnesses(
    body: &BodyPlans,
    pass: &Delta,
    limit: usize,
    idx: &mut DbIndex,
    out: &mut Distinct,
) -> bool {
    for (rel, plan) in &body.plans {
        if pass.rows(*rel).is_empty() {
            continue;
        }
        let mut within = true;
        eval_seeded_ids(plan, idx, pass, &mut |row| {
            out.insert(|vals| {
                vals.extend(body.proj.iter().map(|&p| row[p]));
                vals.extend_from_slice(row);
            });
            within = out.len() <= limit;
            within
        });
        if !within {
            return false;
        }
    }
    true
}

/// The egd match phase: evaluate every egd's body plans over the pass's
/// delta, keeping for every equality pair its least witness. `Err(())`
/// as soon as there are more than `limit` distinct pairs.
fn egd_matches(
    egds: &[BodyPlans],
    pass: &Delta,
    limit: usize,
    idx: &mut DbIndex,
) -> Result<EgdPass, ()> {
    let mut witnesses = Vec::with_capacity(egds.len());
    let mut pairs = Vec::new();
    for (e, body) in egds.iter().enumerate() {
        let key = body.proj.len();
        let mut found = Distinct::new(key + body.body_vars.len(), key);
        if !collect_witnesses(body, pass, limit, idx, &mut found) {
            return Err(());
        }
        for (w, witness) in found.rows().iter().enumerate() {
            if let [a, b, ..] = *witness {
                pairs.push((a, b, e, w));
            }
        }
        witnesses.push(found.into_rows());
    }
    pairs.sort_unstable();
    pairs.dedup_by_key(|&mut (a, b, ..)| (a, b));
    if pairs.len() > limit {
        return Err(());
    }
    Ok((witnesses, pairs))
}

/// The tgd match phase: evaluate every rule's body plans over the
/// round's delta, keeping per rule every frontier valuation with its
/// least full body row, then keep the valuations whose head is not
/// satisfied: a full rule's iff some instantiated head fact is not live
/// in `facts`, an existential rule's iff its head plan, run with the
/// valuation bound, finds no extension. Returns per rule the keyed
/// witnesses of those triggers, sorted. `Err(())` as soon as a rule has
/// more than `limit` distinct triggers.
fn tgd_matches(
    rules: &[CompiledRule],
    facts: &Facts,
    pass: &Delta,
    limit: usize,
    idx: &mut DbIndex,
) -> Result<Vec<Rows>, ()> {
    let mut triggers = Vec::with_capacity(rules.len());
    let mut ids: Vec<ValueId> = Vec::new();
    for rule in rules {
        let k = rule.key_len();
        let mut found = Distinct::new(k + rule.body.body_vars.len(), k);
        // A rule with an empty body has no atom to seed: its single
        // trigger, the empty valuation, is there every round.
        if rule.body.plans.is_empty() {
            found.insert(|_| {});
        }
        if !collect_witnesses(&rule.body, pass, limit, idx, &mut found) {
            return Err(());
        }
        let mut witnesses = found.into_rows();
        if !witnesses.is_empty() {
            let mut satisfied = vec![false; witnesses.len()];
            let keys = witnesses.iter().map(|w| &w[..k]);
            match &rule.head {
                Some(head) => eval_bound_ids(head, idx, keys, &mut |i, _| {
                    satisfied[i] = true;
                    false
                }),
                None => {
                    for (held, key) in satisfied.iter_mut().zip(keys) {
                        *held = rule.head_facts.iter().all(|hf| {
                            hf.instantiate(key, &[], &mut ids);
                            facts.holds(hf.rel, &ids)
                        });
                    }
                }
            }
            witnesses.retain(|i| !satisfied[i]);
            witnesses.sort_dedup();
        }
        triggers.push(witnesses);
    }
    Ok(triggers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }

    /// The id of a value already interned in `store`.
    fn id_of(store: &FactStore, v: Value) -> ValueId {
        store.lookup_value(v).unwrap()
    }

    #[test]
    fn union_find_merges_deterministically() {
        // Interned in value order, as the chase's store is.
        let mut vals = ca_core::store::ValueInterner::new();
        let [c5, c6, n3, n7] = [c(5), c(6), Value::null(3), Value::null(7)].map(|v| vals.intern(v));
        let mut uf = UnionFind::default();
        // Null-null: the smaller id becomes the root.
        assert_eq!(uf.union(n7, n3), Ok(Some(n7)));
        assert_eq!(uf.find(n7), n3);
        // Null-const: the constant wins.
        assert_eq!(uf.union(n3, c5), Ok(Some(n3)));
        assert_eq!(uf.find(n7), c5);
        // Same class: no-op.
        assert_eq!(uf.union(n7, c5), Ok(None));
        // Const-const through the classes: clash.
        assert_eq!(uf.union(c6, n7), Err(()));
    }

    /// A one-relation fact set over `R/arity`.
    fn one_rel(arity: usize) -> (Facts, Symbol) {
        let mut schema = Schema::new();
        let rel = schema.add_relation("R", arity);
        (Facts::new(&schema), rel)
    }

    fn ins(facts: &mut Facts, rel: Symbol, tuple: &[Value]) -> Option<FactId> {
        let ids: Vec<ValueId> = tuple.iter().map(|&v| id(facts, v)).collect();
        facts.insert(rel, &ids)
    }

    /// The id of `v` in the fact set's store, interned on first use.
    fn id(facts: &mut Facts, v: Value) -> ValueId {
        facts.store.intern_value(v)
    }

    /// The facts listed under a null, live or not, in list order.
    fn occ(facts: &Facts, n: u32) -> Vec<FactId> {
        let id = facts.store.lookup_value(Value::null(n));
        id.and_then(|id| facts.occ.get(null_index(id) as usize))
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn insert_dedups_live_tuples() {
        let (mut facts, r) = one_rel(2);
        let f0 = ins(&mut facts, r, &[c(1), Value::null(1)]).unwrap();
        assert_eq!(ins(&mut facts, r, &[c(1), Value::null(1)]), None);
        let f1 = ins(&mut facts, r, &[c(1), c(2)]).unwrap();
        assert_eq!((f0, f1), (0, 1));
        assert_eq!((facts.store.n_facts(), facts.store.n_live()), (2, 2));
        assert_eq!(facts.store.fact_values(f0), vec![c(1), Value::null(1)]);
        // Enough rows to grow the index several times: the early rows
        // are re-placed, so they still dedup.
        for i in 0..200 {
            assert!(ins(&mut facts, r, &[c(i), c(i + 1)]).is_some() || i == 1);
        }
        assert_eq!(ins(&mut facts, r, &[c(1), Value::null(1)]), None);
        assert_eq!(ins(&mut facts, r, &[c(150), c(151)]), None);
        assert_eq!(facts.store.n_live(), 201);
    }

    #[test]
    fn occurrences_track_nulls() {
        let (mut facts, r) = one_rel(2);
        let f0 = ins(&mut facts, r, &[c(1), Value::null(9)]).unwrap();
        let f1 = ins(&mut facts, r, &[Value::null(9), Value::null(3)]).unwrap();
        ins(&mut facts, r, &[c(1), c(2)]).unwrap();
        assert_eq!(occ(&facts, 9), vec![f0, f1]);
        assert_eq!(occ(&facts, 3), vec![f1]);
        assert_eq!(occ(&facts, 77), Vec::<FactId>::new());
    }

    /// Union-find substitutions applied via `rewrite` collapse duplicates
    /// silently and leave unrelated facts untouched.
    #[test]
    fn rewrite_touches_only_affected_facts_and_collapses_duplicates() {
        let (mut facts, r) = one_rel(2);
        let a = ins(&mut facts, r, &[c(1), Value::null(9)]).unwrap();
        let b = ins(&mut facts, r, &[c(1), c(5)]).unwrap();
        let other = ins(&mut facts, r, &[c(2), c(2)]).unwrap();
        let (n9, c5) = (id(&mut facts, Value::null(9)), id(&mut facts, c(5)));
        let mut uf = UnionFind::default();
        assert_eq!(uf.union(n9, c5), Ok(Some(n9)));
        let changed = facts.rewrite(&[n9], |v| uf.find(v));
        // Fact `a` rewrote into `b`'s tuple: it collapses (goes dead)
        // rather than duplicating, and nothing is reported as changed.
        assert!(changed.is_empty());
        assert!(!facts.store.is_live(a));
        assert!(facts.store.is_live(b) && facts.store.is_live(other));
        assert_eq!(facts.store.n_live(), 2);
        assert_eq!(facts.store.fact_values(other), vec![c(2), c(2)]);
        assert_eq!(facts.store.iter_live().collect::<Vec<_>>(), vec![b, other]);
        // The survivor still dedups; the collapsed tuple is new again.
        assert_eq!(ins(&mut facts, r, &[c(1), c(5)]), None);
        assert!(ins(&mut facts, r, &[c(1), Value::null(9)]).is_some());
    }

    #[test]
    fn rewrite_in_place_reports_changed_facts() {
        let (mut facts, r) = one_rel(2);
        let a = ins(&mut facts, r, &[Value::null(4), c(1)]).unwrap();
        let (n4, n2) = (
            id(&mut facts, Value::null(4)),
            id(&mut facts, Value::null(2)),
        );
        let changed = facts.rewrite(&[n4], |v| if v == n4 { n2 } else { v });
        assert_eq!(changed, vec![a]);
        assert!(facts.store.is_live(a));
        assert_eq!(facts.store.fact_values(a), vec![Value::null(2), c(1)]);
        // The new null lists the fact; the rewritten fact dedups.
        assert_eq!(occ(&facts, 2), vec![a]);
        assert_eq!(ins(&mut facts, r, &[Value::null(2), c(1)]), None);
        // Re-inserting the *old* tuple is new again: the row's old slot
        // is stale, and probes compare current contents.
        assert!(ins(&mut facts, r, &[Value::null(4), c(1)]).is_some());
    }

    /// The stale-slot path against a set model: rows rewritten in place
    /// keep their old slots, collapsed rows die, and the index grows past
    /// both. After every step, each live tuple re-inserts as `None`, each
    /// retired (dead or pre-rewrite) tuple as `Some`, and the live count
    /// is the model's size.
    #[test]
    fn rewrites_and_rebuilds_agree_with_a_set_model() {
        use std::collections::BTreeSet;
        let (mut facts, r) = one_rel(2);
        // Intern every value the test draws in value order, as the
        // chase's store does, so the smaller null id is the smaller null.
        for v in (0..200).map(c).chain((0..8).map(Value::null)) {
            id(&mut facts, v);
        }
        let mut model: BTreeSet<Vec<Value>> = BTreeSet::new();
        let mut retired: BTreeSet<Vec<Value>> = BTreeSet::new();
        let mut uf = UnionFind::default();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        type Set = BTreeSet<Vec<Value>>;
        let check = |facts: &mut Facts, model: &mut Set, retired: &mut Set| {
            for t in model.iter() {
                assert_eq!(ins(facts, r, t), None, "live {t:?} re-inserts");
            }
            for t in std::mem::take(retired) {
                if !model.contains(&t) {
                    assert!(ins(facts, r, &t).is_some(), "retired {t:?} is new");
                    model.insert(t);
                }
            }
            assert_eq!(facts.store.n_live() as usize, model.len());
        };
        // Merge batches: (loser, winner) pairs, null-null and null-const.
        let batches: [&[(u32, Value)]; 4] = [
            &[(1, Value::null(0)), (3, c(2))],
            &[(5, Value::null(4)), (6, c(7))],
            &[(4, c(3)), (7, Value::null(2))],
            &[(2, Value::null(0)), (0, c(11))],
        ];
        for batch in batches {
            for i in 0..250 {
                let mut value = || {
                    if next(3) == 0 {
                        Value::null(next(8) as u32)
                    } else {
                        c(next(200) as i64)
                    }
                };
                let t = vec![value(), value()];
                let fresh = !model.contains(&t);
                assert_eq!(ins(&mut facts, r, &t).is_some(), fresh, "insert {t:?}");
                model.insert(t);
                assert_eq!(facts.store.n_live() as usize, model.len());
                if i % 50 == 49 {
                    check(&mut facts, &mut model, &mut retired);
                }
            }
            let mut merged = Vec::new();
            for &(loser, winner) in batch {
                let (loser, winner) = (id(&mut facts, Value::null(loser)), id(&mut facts, winner));
                assert_eq!(uf.union(loser, winner), Ok(Some(loser)));
                merged.push(loser);
            }
            facts.rewrite(&merged, |v| uf.find(v));
            let store = &facts.store;
            let mentions = |t: &Vec<Value>| t.iter().any(|&v| merged.contains(&id_of(store, v)));
            let (moved, kept): (Vec<_>, Vec<_>) =
                std::mem::take(&mut model).into_iter().partition(mentions);
            model = kept.into_iter().collect();
            for t in moved {
                model.insert(
                    t.iter()
                        .map(|&v| store.value(uf.find(id_of(store, v))))
                        .collect(),
                );
                retired.insert(t);
            }
            // Membership agrees with the model before anything is
            // re-inserted: every live tuple holds, no retired one does.
            let holds = |t: &Vec<Value>| {
                let ids: Vec<ValueId> = t.iter().map(|&v| id_of(&facts.store, v)).collect();
                facts.holds(r, &ids)
            };
            for t in &model {
                assert!(holds(t), "live {t:?} holds");
            }
            for t in retired.iter().filter(|&t| !model.contains(t)) {
                assert!(!holds(t), "retired {t:?} does not hold");
            }
            check(&mut facts, &mut model, &mut retired);
        }
        assert!(facts.store.n_facts() > 1000);
    }

    /// Full rules test their heads by fact-set membership: a head
    /// constant and a repeated frontier variable (`R(x,y) → S(x,x,1)`)
    /// must match exactly, and a two-atom head (`R(x,y) → T(x) ∧ U(y)`)
    /// is satisfied only when both facts hold, so a trigger with one of
    /// them already live still fires.
    #[test]
    fn full_rule_heads_are_satisfied_by_live_facts_only() {
        use ca_cert::check_chase;
        use ca_gdm::schema::GenSchema;
        let schema = GenSchema::from_parts(&[("R", 2), ("S", 3), ("T", 1), ("U", 1)], &[]);
        let db = |nodes: &[(&str, Vec<Value>)]| {
            let mut d = GenDb::new(schema.clone());
            for (rel, args) in nodes {
                d.add_node(rel, args.clone());
            }
            d
        };
        let v = Value::null;
        let instance = db(&[
            ("R", vec![c(1), c(2)]),
            ("R", vec![c(3), c(4)]),
            ("R", vec![c(5), c(6)]),
            // Satisfies x = 3 only: S(1,2,1) repeats no variable, S(5,5,2)
            // has the wrong constant.
            ("S", vec![c(3), c(3), c(1)]),
            ("S", vec![c(1), c(2), c(1)]),
            ("S", vec![c(5), c(5), c(2)]),
            // x = 3 has both head facts, x = 1 only T(1).
            ("T", vec![c(1)]),
            ("T", vec![c(3)]),
            ("U", vec![c(4)]),
        ]);
        let rules = vec![
            Rule {
                body: db(&[("R", vec![v(1), v(2)])]),
                head: db(&[("S", vec![v(1), v(1), c(1)])]),
            },
            Rule {
                body: db(&[("R", vec![v(1), v(2)])]),
                head: db(&[("T", vec![v(1)]), ("U", vec![v(2)])]),
            },
        ];
        let cfg = ChaseConfig {
            certify: true,
            ..ChaseConfig::new(1000)
        };
        let (outcome, cert) = try_chase(&instance, &rules, &[], &cfg);
        let cert = cert.unwrap();
        assert_eq!(check_chase(&cert), Ok(()));
        let fired: Vec<(usize, &[Value])> = cert
            .steps
            .iter()
            .filter_map(|step| match step {
                ChaseStep::Fire { rule, values, .. } => Some((
                    *rule,
                    &cert.values[values.start as usize..values.end as usize],
                )),
                ChaseStep::Merge { .. } => None,
            })
            .collect();
        let (one, five) = ([c(1), c(2)], [c(5), c(6)]);
        let want: [(usize, &[Value]); 4] = [(0, &one), (0, &five), (1, &one), (1, &five)];
        assert_eq!(fired, want);
        let ChaseOutcome::Done(chased) = outcome else {
            panic!("expected Done, got {outcome:?}");
        };
        let reference = crate::reference::chase_with(&instance, &rules, &[], 1000, 1000);
        let ChaseOutcome::Done(reference) = reference else {
            panic!("reference: {reference:?}");
        };
        assert!(ca_gdm::hom::gdm_equiv(&chased, &reference));
        assert_eq!(chased.n_nodes(), instance.n_nodes() + 5);
    }

    /// The value-order fixture over `E/2`, `K/1` and `F/2`. The `E` nodes
    /// arrive with constants and nulls descending (or, `reversed`,
    /// ascending). Rule 0 copies `E`'s first column into `K` and writes
    /// the constant 1, below every instance constant; rule 1 draws a
    /// fresh null per `K` value, so the firing order decides which
    /// trigger gets which null. The egd makes `E` functional, which
    /// merges ⊥9 into ⊥8 and ⊥7 into ⊥6 in one pass.
    fn value_order_fixture(reversed: bool) -> (GenDb, Vec<Rule>, Vec<Egd>) {
        use ca_gdm::schema::GenSchema;
        let schema = GenSchema::from_parts(&[("E", 2), ("K", 1), ("F", 2)], &[]);
        let db = |nodes: &[(&str, Vec<Value>)]| {
            let mut d = GenDb::new(schema.clone());
            for (rel, args) in nodes {
                d.add_node(rel, args.clone());
            }
            d
        };
        let v = Value::null;
        let mut nodes = vec![
            ("E", vec![c(30), v(9)]),
            ("E", vec![c(30), v(8)]),
            ("E", vec![c(20), v(7)]),
            ("E", vec![c(20), v(6)]),
            ("E", vec![c(10), v(5)]),
        ];
        if reversed {
            nodes.reverse();
        }
        let rules = vec![
            Rule {
                body: db(&[("E", vec![v(1), v(2)])]),
                head: db(&[("K", vec![v(1)]), ("K", vec![c(1)])]),
            },
            Rule {
                body: db(&[("K", vec![v(1)])]),
                head: db(&[("F", vec![v(1), v(3)])]),
            },
        ];
        let egds = vec![Egd {
            body: db(&[("E", vec![v(1), v(2)]), ("E", vec![v(1), v(3)])]),
            equal: (Null(2), Null(3)),
        }];
        (db(&nodes), rules, egds)
    }

    /// Loading interns in value order whatever the node order, so the
    /// id-level chase certifies exactly what the value-level chase did.
    #[test]
    fn ids_follow_value_order_and_certificates_keep_their_bytes() {
        use ca_cert::check_chase;
        use ca_core::store::NULL_TAG;
        let (instance, tgds, _) = value_order_fixture(false);
        let schema = Schema::from_relations(&[("E", 2), ("K", 1), ("F", 2)]);
        let facts = Facts::load(&schema, &instance, &tgds);
        let values = facts.store.values();
        let ids: Vec<ValueId> = (0..values.n_consts())
            .chain((0..values.n_nulls()).map(|i| NULL_TAG | i))
            .collect();
        // Constants 1, 10, 20, 30 and nulls ⊥5–⊥9.
        assert_eq!(ids.len(), 9);
        for &a in &ids {
            for &b in &ids {
                assert_eq!(a.cmp(&b), values.value(a).cmp(&values.value(b)));
            }
        }
        let cfg = ChaseConfig {
            certify: true,
            ..ChaseConfig::new(1000)
        };
        let chase = |reversed: bool| {
            let (instance, tgds, egds) = value_order_fixture(reversed);
            try_chase(&instance, &tgds, &egds, &cfg)
        };
        let (outcome, cert) = chase(false);
        let cert = cert.unwrap();
        assert!(matches!(outcome, ChaseOutcome::Done(_)), "{outcome:?}");
        let merges = cert
            .steps
            .iter()
            .filter(|s| matches!(s, ChaseStep::Merge { .. }));
        assert_eq!(merges.count(), 2);
        assert_eq!(check_chase(&cert), Ok(()));
        let bytes = cert.to_bytes();
        assert_eq!(chase(true).1.unwrap().to_bytes(), bytes);
        // Recorded from the value-level chase this engine replaced, whose
        // triggers, witnesses and union-find compared `Value`s.
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (867, 871_643_935_701_141_129));
    }
}
