//! The semi-naive, delta-driven chase engine.
//!
//! Purely relational inputs (`σ = ∅` — every data-exchange target in
//! this crate) chase on the compiled join machinery of
//! [`ca_query::engine`] instead of re-running the reference loop's CSP
//! matcher over the whole instance after every single firing:
//!
//! * each rule body is validated once up front and then planned through
//!   a revision-keyed [`PlanCache`]: a round evaluates one *pinned*
//!   cost-based join plan per body atom
//!   ([`CompiledCq::compile_costed_pinned`] under the store's live
//!   statistics), with the pinned atom ranging over the **delta** — the
//!   facts added or rewritten since the previous round — so any match
//!   using at least one new fact is found exactly through the plan
//!   pinned at that fact's position, and quiet regions are never
//!   re-derived (semi-naive evaluation). Plans are re-costed only when
//!   the store's revision counter moves; quiet fixpoint passes and the
//!   per-round satisfaction evaluations hit the cache. A certified run
//!   ([`ChaseConfig::certify`]) evaluates each body once per round too,
//!   through fixed full-assignment plans whose least row per trigger is
//!   the firing's recorded witness;
//! * a *trigger* is a valuation of the rule's frontier (sorted body∩head
//!   nulls). Fired triggers are remembered per rule in a hash set over
//!   the **workspace columnar fact store** ([`ca_core::store::FactStore`]
//!   — interned values, column-major tuples, a live bitmap, and a
//!   store-level null-occurrence index), so no trigger ever fires twice;
//!   head
//!   satisfaction is decided set-at-a-time by evaluating the head
//!   pattern as a query whose answers are precisely the satisfied
//!   frontier valuations, instead of one satisfiability probe per match;
//! * egd equalities accumulate in a **union-find** over values (constant
//!   roots win; two distinct constant roots fail the chase) and rewrite
//!   only the facts that mention a merged null, via a null-occurrence
//!   index — never the whole instance;
//! * the match phase evaluates the round's (rule, pinned plan) pairs
//!   in (rule index, pin) order, and firing applies the collected
//!   triggers in (rule index, frontier valuation) order — lowest trigger
//!   wins — with fresh existential nulls drawn in that same order, so
//!   the chased instance is deterministic.
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

use std::collections::{BTreeMap, BTreeSet};

use ca_cert::{
    CertAtom, CertEgd, CertFact, CertRule, CertTerm, ChaseCert, ChaseCertOutcome, ChaseStep,
};
use ca_core::fxhash::{FxHashMap, FxHashSet};
use ca_core::store::{FactId, FactStore};
use ca_core::symbol::Symbol;
use ca_core::value::{Null, NullGen, Value};
use ca_gdm::database::GenDb;
use ca_query::ast::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_query::engine::{
    eval_prepared_into, eval_seeded_into, prepare_cq, CompiledCq, CompiledUcq, DbIndex, PlanCache,
};
use ca_relational::schema::Schema;

use super::{ChaseConfig, ChaseOutcome, Egd};
use crate::mapping::Rule;

/// The atoms of a purely relational pattern: one atom per node, the
/// node's label as the relation, nulls as variables (by null id),
/// constants as constants. Shared with the mapping layer's compiled
/// body-match fast path.
pub(crate) fn pattern_atoms(d: &GenDb) -> Vec<Atom> {
    d.labels
        .iter()
        .zip(&d.data)
        .map(|(&label, row)| {
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
    /// A constant from the rule head.
    Const(Value),
    /// The value of the trigger row at this frontier index.
    Frontier(usize),
    /// An existential null: fresh per firing, shared across the head
    /// instantiation by its rule-local null id.
    Existential(Null),
}

/// A head fact to instantiate when a trigger fires.
struct HeadFact {
    rel: Symbol,
    template: Vec<HeadTerm>,
}

/// Full-assignment provenance plans for one pattern body, compiled only
/// under [`ChaseConfig::certify`]: the same pinned body plans, but with
/// **every** sorted body variable in the head, so each answer row *is* a
/// complete body assignment (the witness a [`ChaseStep`] records).
struct CertPlans {
    /// `(pinned relation, pinned plan)` per body atom; head = `body_vars`.
    plans: Vec<(Symbol, CompiledCq)>,
    /// All body variables, sorted (the provenance rows' column order).
    body_vars: Vec<u32>,
    /// Positions in `body_vars` of the normal plan's head projection
    /// (a rule's frontier, or an egd's equated pair).
    proj: Vec<usize>,
}

impl CertPlans {
    fn compile(atoms: &[Atom], proj_vars: &[u32], schema: &Schema) -> Option<CertPlans> {
        let q = ConjunctiveQuery::with_head(
            {
                let mut vars: Vec<u32> = atoms.iter().flat_map(Atom::vars).collect();
                vars.sort_unstable();
                vars.dedup();
                vars
            },
            atoms.to_vec(),
        );
        let mut plans = Vec::with_capacity(q.atoms.len());
        for pin in 0..q.atoms.len() {
            let plan = CompiledCq::compile_pinned(&q, schema, pin).ok()?;
            let rel = schema.relation(&q.atoms[pin].rel)?;
            plans.push((rel, plan));
        }
        let proj = proj_vars
            .iter()
            .map(|v| q.head.binary_search(v).ok())
            .collect::<Option<Vec<usize>>>()?;
        Some(CertPlans {
            plans,
            body_vars: q.head,
            proj,
        })
    }

    /// A provenance row as a step's body assignment.
    fn assignment(&self, row: &[Value]) -> Assignment {
        self.body_vars
            .iter()
            .copied()
            .zip(row.iter().copied())
            .collect()
    }
}

/// One tgd compiled against the instance schema. The body and head are
/// kept as queries (validated once up front): the round loop resolves
/// them into cost-based plans through the run's [`PlanCache`], so the
/// join orders track the store's live statistics while compile errors
/// stay impossible after construction (plan errors are independent of
/// join order and pin — they depend only on the query and the schema).
struct CompiledRule {
    /// The body with the sorted frontier as head, as a single-disjunct
    /// union (the plan cache's key type).
    body_u: UnionQuery,
    /// The pinned relation of each body atom, in atom order.
    rels: Vec<Symbol>,
    /// The head pattern as a query over the same frontier head: its
    /// answer set is exactly the set of satisfied frontier valuations.
    head_u: UnionQuery,
    /// The head facts to instantiate on firing.
    head_facts: Vec<HeadFact>,
    /// Provenance plans (certify mode only).
    cert: Option<CertPlans>,
}

/// One egd compiled against the instance schema: the body projecting
/// onto the two equated nulls, plus its atoms' relations.
struct CompiledEgd {
    body_u: UnionQuery,
    rels: Vec<Symbol>,
    /// Provenance plans (certify mode only).
    cert: Option<CertPlans>,
}

fn compile_rule(rule: &Rule, schema: &Schema, certify: bool) -> Option<CompiledRule> {
    let frontier: Vec<Null> = rule.frontier().into_iter().collect();
    let head_vars: Vec<u32> = frontier.iter().map(|nl| nl.0).collect();
    let body_q = ConjunctiveQuery::with_head(head_vars.clone(), pattern_atoms(&rule.body));
    // Validate once: a body that compiles unpinned compiles under every
    // pin and every join order.
    CompiledCq::compile(&body_q, schema).ok()?;
    let rels = body_q
        .atoms
        .iter()
        .map(|a| schema.relation(&a.rel))
        .collect::<Option<Vec<_>>>()?;
    let cert = if certify {
        Some(CertPlans::compile(&body_q.atoms, &head_vars, schema)?)
    } else {
        None
    };
    let head_q = ConjunctiveQuery::with_head(head_vars, pattern_atoms(&rule.head));
    CompiledCq::compile(&head_q, schema).ok()?;
    let mut head_facts = Vec::with_capacity(rule.head.n_nodes());
    for (label, row) in rule.head.labels.iter().zip(&rule.head.data) {
        let rel = schema.relation(rule.head.schema.label_name(*label))?;
        let template = row
            .iter()
            .map(|v| match v {
                Value::Const(_) => HeadTerm::Const(*v),
                // `frontier` is sorted (built from a BTreeSet).
                Value::Null(nl) => match frontier.binary_search(nl) {
                    Ok(i) => HeadTerm::Frontier(i),
                    Err(_) => HeadTerm::Existential(*nl),
                },
            })
            .collect();
        head_facts.push(HeadFact { rel, template });
    }
    Some(CompiledRule {
        body_u: UnionQuery::single(body_q),
        rels,
        head_u: UnionQuery::single(head_q),
        head_facts,
        cert,
    })
}

fn compile_egd(egd: &Egd, schema: &Schema, certify: bool) -> Option<CompiledEgd> {
    let pair = [egd.equal.0 .0, egd.equal.1 .0];
    let q = ConjunctiveQuery::with_head(pair.to_vec(), pattern_atoms(&egd.body));
    // Validate once unpinned: an equated null not bound by the body (or
    // an empty body) is an UnboundHeadVar — fall back to the reference,
    // which owns the semantics of such malformed egds.
    CompiledCq::compile(&q, schema).ok()?;
    let rels = q
        .atoms
        .iter()
        .map(|a| schema.relation(&a.rel))
        .collect::<Option<Vec<_>>>()?;
    let cert = if certify {
        Some(CertPlans::compile(&q.atoms, &pair, schema)?)
    } else {
        None
    };
    Some(CompiledEgd {
        body_u: UnionQuery::single(q),
        rels,
        cert,
    })
}

/// Union-find over values. Constants are always roots; between two null
/// roots the smaller null id wins, so the representative choice is
/// deterministic.
#[derive(Default)]
struct UnionFind {
    parent: FxHashMap<Null, Value>,
}

impl UnionFind {
    fn find(&self, v: Value) -> Value {
        let mut cur = v;
        while let Value::Null(nl) = cur {
            match self.parent.get(&nl) {
                Some(&p) => cur = p,
                None => break,
            }
        }
        cur
    }

    /// Union the classes of `a` and `b`. `Err(())` on a constant clash,
    /// `Ok(Some(n))` when null `n` was merged away, `Ok(None)` when the
    /// classes already coincided.
    fn union(&mut self, a: Value, b: Value) -> Result<Option<Null>, ()> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(None);
        }
        match (ra, rb) {
            (Value::Const(_), Value::Const(_)) => Err(()),
            (Value::Null(nl), root @ Value::Const(_))
            | (root @ Value::Const(_), Value::Null(nl)) => {
                self.parent.insert(nl, root);
                Ok(Some(nl))
            }
            (Value::Null(x), Value::Null(y)) => {
                let (loser, root) = if x.0 < y.0 { (y, x) } else { (x, y) };
                self.parent.insert(loser, Value::Null(root));
                Ok(Some(loser))
            }
        }
    }
}

/// A pattern body/head in checker vocabulary: the exact mirror of
/// [`pattern_atoms`] (nulls as variables by id, constants literal).
fn cert_atoms(d: &GenDb) -> Vec<CertAtom> {
    d.labels
        .iter()
        .zip(&d.data)
        .map(|(&label, row)| CertAtom {
            rel: d.schema.label_name(label).to_owned(),
            args: row
                .iter()
                .map(|v| match v {
                    Value::Null(nl) => CertTerm::Var(nl.0),
                    Value::Const(c) => CertTerm::Const(*c),
                })
                .collect(),
        })
        .collect()
}

/// The constraint-set and initial-instance half of a chase certificate,
/// built up front; [`run`] appends the derivation and outcome.
struct CertSkeleton {
    rules: Vec<CertRule>,
    egds: Vec<CertEgd>,
    initial: Vec<CertFact>,
}

fn cert_skeleton(instance: &GenDb, tgds: &[Rule], egds: &[Egd]) -> CertSkeleton {
    CertSkeleton {
        rules: tgds
            .iter()
            .map(|r| CertRule {
                body: cert_atoms(&r.body),
                head: cert_atoms(&r.head),
            })
            .collect(),
        egds: egds
            .iter()
            .map(|e| CertEgd {
                body: cert_atoms(&e.body),
                equal: (e.equal.0 .0, e.equal.1 .0),
            })
            .collect(),
        // Canonicalized (sorted, deduplicated): the certificate's bytes
        // must not depend on the caller's node insertion order.
        initial: {
            let mut facts: Vec<CertFact> = instance
                .labels
                .iter()
                .zip(&instance.data)
                .map(|(&label, row)| (instance.schema.label_name(label).to_owned(), row.clone()))
                .collect();
            facts.sort();
            facts.dedup();
            facts
        },
    }
}

/// Try to run the engine. `None` (caller falls back to the reference
/// chase) when any structural tuples are present or a pattern does not
/// compile against the instance schema. The second component is the
/// derivation log, present exactly when [`ChaseConfig::certify`] is set.
pub(super) fn try_chase(
    instance: &GenDb,
    tgds: &[Rule],
    egds: &[Egd],
    cfg: &ChaseConfig,
) -> Option<(ChaseOutcome, Option<ChaseCert>)> {
    if !instance.tuples.is_empty()
        || tgds
            .iter()
            .any(|r| !r.body.tuples.is_empty() || !r.head.tuples.is_empty())
        || egds.iter().any(|e| !e.body.tuples.is_empty())
    {
        return None;
    }
    // The instance schema's labels as a relational schema. Pattern labels
    // resolve against it by *name*, since each pattern carries its own
    // interner.
    let mut schema = Schema::new();
    let mut rel_of_label: Vec<Symbol> = Vec::new();
    for sym in instance.schema.label_symbols() {
        let rel = schema.add_relation(
            instance.schema.label_name(sym),
            instance.schema.label_arity(sym),
        );
        rel_of_label.push(rel);
    }
    let rules: Vec<CompiledRule> = tgds
        .iter()
        .map(|r| compile_rule(r, &schema, cfg.certify))
        .collect::<Option<_>>()?;
    let cegds: Vec<CompiledEgd> = egds
        .iter()
        .map(|e| compile_egd(e, &schema, cfg.certify))
        .collect::<Option<_>>()?;
    // Fresh existentials avoid every null in sight, as in the reference.
    let gen = NullGen::avoiding(
        instance.nulls().into_iter().chain(
            tgds.iter()
                .flat_map(|r| r.body.nulls().into_iter().chain(r.head.nulls())),
        ),
    );
    let skeleton = cfg.certify.then(|| cert_skeleton(instance, tgds, egds));
    Some(run(
        &schema,
        &rules,
        &cegds,
        instance,
        &rel_of_label,
        gen,
        cfg,
        skeleton,
    ))
}

/// A round's trigger (or satisfied) set for one rule: frontier
/// valuations, kept sorted so firing order is deterministic.
type TriggerSet = BTreeSet<Vec<Value>>;

/// A body assignment in step vocabulary: sorted `(variable, value)` pairs.
type Assignment = Vec<(u32, Value)>;

/// The in-flight derivation log of a certified run.
struct Recorder {
    skeleton: CertSkeleton,
    steps: Vec<ChaseStep>,
    /// Set when a step found no provenance witness. This is unreachable
    /// by construction (a certified run's trigger and pair sets are the
    /// key sets of its provenance maps); if it ever trips, the run stays
    /// correct and the certificate is withheld rather than emitted
    /// broken.
    poisoned: bool,
}

impl Recorder {
    fn finish(self, outcome: ChaseCertOutcome) -> Option<ChaseCert> {
        if self.poisoned {
            return None;
        }
        Some(ChaseCert {
            rules: self.skeleton.rules,
            egds: self.skeleton.egds,
            initial: self.skeleton.initial,
            steps: self.steps,
            outcome,
        })
    }
}

/// The live store facts, union-find-resolved, in checker vocabulary:
/// the claimed facts of every `Done`, `Overflow` and `Aborted`
/// certificate. (`rewrite` lags the union-find mid-merge-batch, so
/// resolution is applied here rather than trusting the store to be
/// current.) Sorted and deduplicated one relation at a time, in name
/// order, which is the `(name, args)` order without comparing names;
/// store row order follows insertion and must not leak into
/// certificate bytes.
fn cert_facts(schema: &Schema, store: &FactStore, uf: &UnionFind) -> Vec<CertFact> {
    let mut rels: Vec<Symbol> = store.relations().collect();
    rels.sort_by_key(|&rel| schema.name(rel));
    let mut facts = Vec::new();
    for rel in rels {
        let table = store.table(rel);
        let mut rows: Vec<Vec<Value>> = (0..table.n_rows())
            .filter(|&row| table.is_live(row))
            .map(|row| {
                let resolve = |col: &Vec<_>| uf.find(store.value(col[row as usize]));
                table.cols().iter().map(resolve).collect()
            })
            .collect();
        rows.sort();
        rows.dedup();
        let name = schema.name(rel);
        facts.extend(rows.into_iter().map(|row| (name.to_owned(), row)));
    }
    facts
}

#[allow(clippy::too_many_arguments)]
fn run(
    schema: &Schema,
    rules: &[CompiledRule],
    egds: &[CompiledEgd],
    instance: &GenDb,
    rel_of_label: &[Symbol],
    mut gen: NullGen,
    cfg: &ChaseConfig,
    skeleton: Option<CertSkeleton>,
) -> (ChaseOutcome, Option<ChaseCert>) {
    // The chase state lives in the workspace columnar store; relations
    // are registered in schema order, so store symbols coincide with the
    // schema symbols the plans were compiled against.
    let mut store = FactStore::new();
    for sym in schema.symbols() {
        let reg = store.add_relation(schema.name(sym), schema.arity(sym));
        debug_assert_eq!(reg, sym, "store symbols mirror schema symbols");
    }
    let mut uf = UnionFind::default();
    // Cost-based plans keyed by (query, pin, store revision): quiet
    // fixpoint passes and repeated head checks reuse plans; any store
    // mutation re-costs them against fresh statistics.
    let mut cache = PlanCache::new();
    let mut rec: Option<Recorder> = skeleton.map(|skeleton| Recorder {
        skeleton,
        steps: Vec::new(),
        poisoned: false,
    });
    let mut fired: Vec<FxHashSet<Vec<Value>>> =
        rules.iter().map(|_| FxHashSet::default()).collect();
    let mut steps = 0usize;
    // Load the instance; duplicate nodes intern to one fact.
    let mut delta: Vec<FactId> = Vec::new();
    for (label, row) in instance.labels.iter().zip(&instance.data) {
        let rel = rel_of_label.get(label.index()).copied().unwrap_or(*label); // unreachable: every instance label is in its schema
        if let Some(id) = store.insert(rel, row) {
            delta.push(id);
        }
    }
    let mut first_round = true;
    loop {
        // Budget semantics mirror the reference's `for _ in 0..max_steps`
        // loop: the pass that *observes* the fixpoint needs a step too,
        // so a round may only begin while budget remains (in particular,
        // `max_steps == 0` aborts immediately).
        if steps >= cfg.max_steps {
            let cert = rec.take().and_then(|r| {
                let partial = cert_facts(schema, &store, &uf);
                r.finish(ChaseCertOutcome::Aborted { partial })
            });
            return (ChaseOutcome::Aborted, cert);
        }
        let round_start_steps = steps;

        // ---- egd phase: fixpoint over this round's delta ----
        let mut rewritten_all: Vec<u32> = Vec::new();
        if !egds.is_empty() {
            let mut egd_delta: Vec<u32> = delta.clone();
            while !egd_delta.is_empty() {
                // One body evaluation per pass: a certified run's
                // provenance pass *is* its match phase (the pairs are
                // exactly the provenance keys), a plain run matches on
                // the cost-based plans.
                let matched = {
                    let mut idx = DbIndex::over(&store);
                    let seeds = seeds_by_rel(schema, &store, &egd_delta);
                    if rec.is_some() {
                        egd_provenance(egds, &seeds, cfg.match_limit, &mut idx)
                            .map(|prov| (prov.keys().copied().collect(), Some(prov)))
                    } else {
                        egd_matches(schema, &store, egds, &seeds, cfg, &mut cache, &mut idx)
                            .map(|pairs| (pairs, None))
                    }
                };
                let (pairs, prov) = match matched {
                    Ok(x) => x,
                    Err(()) => {
                        let partial = Box::new(rebuild(schema, &store, instance, &uf));
                        let cert = rec.take().and_then(|r| {
                            let partial = cert_facts(schema, &store, &uf);
                            r.finish(ChaseCertOutcome::Overflow { partial })
                        });
                        return (ChaseOutcome::Overflow(partial), cert);
                    }
                };
                let mut merged: Vec<Null> = Vec::new();
                for (a, b) in pairs {
                    if uf.find(a) == uf.find(b) {
                        continue;
                    }
                    if steps >= cfg.max_steps {
                        let cert = rec.take().and_then(|r| {
                            let partial = cert_facts(schema, &store, &uf);
                            r.finish(ChaseCertOutcome::Aborted { partial })
                        });
                        return (ChaseOutcome::Aborted, cert);
                    }
                    let union = uf.union(a, b);
                    if let Some(recd) = rec.as_mut() {
                        // Distinct roots make `Ok(None)` unreachable here,
                        // so every taken branch is a recordable step.
                        let merged_entry = match union {
                            Err(()) => Some(None),
                            Ok(Some(loser)) => Some(Some((loser, uf.find(Value::Null(loser))))),
                            Ok(None) => None,
                        };
                        if let Some(merged_entry) = merged_entry {
                            let witness =
                                prov.as_ref()
                                    .and_then(|p| p.get(&(a, b)))
                                    .and_then(|(e, row)| {
                                        let cert = egds.get(*e)?.cert.as_ref()?;
                                        Some((*e, cert.assignment(row)))
                                    });
                            match witness {
                                Some((egd, assignment)) => recd.steps.push(ChaseStep::Merge {
                                    egd,
                                    assignment,
                                    merged: merged_entry,
                                }),
                                None => recd.poisoned = true,
                            }
                        }
                    }
                    match union {
                        Err(()) => {
                            let cert = rec.take().and_then(|r| r.finish(ChaseCertOutcome::Failed));
                            return (ChaseOutcome::Failed, cert);
                        }
                        Ok(Some(loser)) => {
                            steps += 1;
                            merged.push(loser);
                        }
                        Ok(None) => {}
                    }
                }
                if merged.is_empty() {
                    break;
                }
                let changed = store.rewrite(&merged, |v| uf.find(v));
                // Keep the dedup keys aligned with the rewritten
                // instance: fired valuations go through the same merge
                // substitution as the facts (order-independent — the set
                // is rebuilt, not iterated into anything ordered).
                for set in fired.iter_mut() {
                    *set = set
                        .drain()
                        .map(|row| row.iter().map(|&v| uf.find(v)).collect())
                        .collect();
                }
                egd_delta = changed.clone();
                rewritten_all.extend(changed);
            }
        }

        // ---- tgd phase: collect round-start triggers, then fire ----
        let mut tgd_seed: Vec<u32> = delta
            .iter()
            .chain(rewritten_all.iter())
            .copied()
            .filter(|&id| store.is_live(id))
            .collect();
        tgd_seed.sort_unstable();
        tgd_seed.dedup();
        // As in the egd phase: one index and one seed partition for the
        // trigger match and the satisfaction check. A certified run's
        // triggers are exactly its provenance keys, so each rule body is
        // evaluated once per round in either mode.
        let matched = {
            let mut idx = DbIndex::over(&store);
            let seeds = seeds_by_rel(schema, &store, &tgd_seed);
            let prov = if rec.is_some() {
                tgd_provenance(rules, &seeds, first_round, cfg.match_limit, &mut idx).map(Some)
            } else {
                Ok(None)
            };
            prov.and_then(|prov| {
                let x = tgd_matches(
                    schema,
                    &store,
                    rules,
                    &fired,
                    &seeds,
                    prov.as_deref(),
                    first_round,
                    cfg,
                    &mut cache,
                    &mut idx,
                )?;
                Ok((x, prov))
            })
        };
        let ((triggers, satisfied), prov) = match matched {
            Ok(x) => x,
            Err(()) => {
                let partial = Box::new(rebuild(schema, &store, instance, &uf));
                let cert = rec.take().and_then(|r| {
                    let partial = cert_facts(schema, &store, &uf);
                    r.finish(ChaseCertOutcome::Overflow { partial })
                });
                return (ChaseOutcome::Overflow(partial), cert);
            }
        };
        let mut inserted: Vec<u32> = Vec::new();
        for (r, rule) in rules.iter().enumerate() {
            for row in &triggers[r] {
                if fired[r].contains(row) {
                    continue;
                }
                // Mark fired even when already satisfied: satisfaction is
                // monotone under fact addition, and egd merges rewrite
                // the fired rows together with the facts, so a satisfied
                // trigger can never need firing later.
                fired[r].insert(row.clone());
                if satisfied[r].contains(row) {
                    continue;
                }
                if steps >= cfg.max_steps {
                    let cert = rec.take().and_then(|rr| {
                        let partial = cert_facts(schema, &store, &uf);
                        rr.finish(ChaseCertOutcome::Aborted { partial })
                    });
                    return (ChaseOutcome::Aborted, cert);
                }
                steps += 1;
                let mut fresh: FxHashMap<Null, Value> = FxHashMap::default();
                for hf in &rule.head_facts {
                    let tuple: Vec<Value> = hf
                        .template
                        .iter()
                        .map(|t| match t {
                            HeadTerm::Const(v) => *v,
                            HeadTerm::Frontier(i) => row[*i],
                            HeadTerm::Existential(nl) => {
                                *fresh.entry(*nl).or_insert_with(|| Value::Null(gen.fresh()))
                            }
                        })
                        .collect();
                    if let Some(id) = store.insert(hf.rel, &tuple) {
                        inserted.push(id);
                    }
                }
                if let Some(recd) = rec.as_mut() {
                    let witness = prov
                        .as_ref()
                        .and_then(|p| p.get(r))
                        .and_then(|m| m.get(row))
                        .zip(rule.cert.as_ref())
                        .map(|(best, cert)| cert.assignment(best));
                    match witness {
                        Some(assignment) => {
                            let mut ledger: Vec<(u32, Null)> = fresh
                                .iter()
                                .filter_map(|(k, v)| v.as_null().map(|n| (k.0, n)))
                                .collect();
                            ledger.sort_unstable();
                            recd.steps.push(ChaseStep::Fire {
                                rule: r,
                                assignment,
                                fresh: ledger,
                            });
                        }
                        None => recd.poisoned = true,
                    }
                }
            }
        }

        delta = inserted;
        first_round = false;
        if steps == round_start_steps {
            // No merge and no firing: every trigger is satisfied or
            // fired, the instance is a fixpoint.
            let done = Box::new(rebuild(schema, &store, instance, &uf));
            let cert = rec.take().and_then(|r| {
                let final_facts = cert_facts(schema, &store, &uf);
                r.finish(ChaseCertOutcome::Done { final_facts })
            });
            return (ChaseOutcome::Done(done), cert);
        }
    }
}

/// Per rule: every frontier valuation matched this round, mapped to the
/// least full body row (in `body_vars` order) projecting to it.
type Witnesses = BTreeMap<Vec<Value>, Vec<Value>>;

/// Per equality pair: the least `(egd index, full body row)` deriving it.
type EgdWitnesses = BTreeMap<(Value, Value), (usize, Vec<Value>)>;

/// A certified run's egd match phase: evaluate the egds' full-assignment
/// provenance plans over the pass's seeds (sequential), keeping for every
/// equality pair its least witness. The key set is the pass's pair set.
/// `Err(())` as soon as there are more than `limit` distinct pairs — the
/// point where the plain match phase overflows too.
fn egd_provenance(
    egds: &[CompiledEgd],
    seeds: &[Vec<u32>],
    limit: usize,
    idx: &mut DbIndex,
) -> Result<EgdWitnesses, ()> {
    let mut out = EgdWitnesses::new();
    for (e, egd) in egds.iter().enumerate() {
        let Some(cert) = &egd.cert else { continue };
        let (Some(&pa), Some(&pb)) = (cert.proj.first(), cert.proj.get(1)) else {
            continue;
        };
        let mut over = false;
        for (rel, plan) in &cert.plans {
            let prepared = prepare_cq(plan, idx);
            let rows = &seeds[rel.index()];
            eval_seeded_into(plan, &prepared, idx, rows, &mut |row| {
                let (Some(&a), Some(&b)) = (row.get(pa), row.get(pb)) else {
                    return true;
                };
                let full = out.len() == limit;
                match out.get_mut(&(a, b)) {
                    Some(best) => {
                        if (e, row) < (best.0, best.1.as_slice()) {
                            *best = (e, row.to_vec());
                        }
                    }
                    None if full => {
                        over = true;
                        return false;
                    }
                    None => {
                        out.insert((a, b), (e, row.to_vec()));
                    }
                }
                true
            });
            if over {
                return Err(());
            }
        }
    }
    Ok(out)
}

/// A certified run's tgd match phase: evaluate the rules' full-assignment
/// provenance plans over the round's seeds (sequential), keeping per rule
/// every frontier valuation with its least full body row. The key sets
/// are the round's trigger sets. `Err(())` as soon as a rule has more
/// than `limit` distinct frontier valuations — the point where the plain
/// match phase overflows too.
fn tgd_provenance(
    rules: &[CompiledRule],
    seeds: &[Vec<u32>],
    first_round: bool,
    limit: usize,
    idx: &mut DbIndex,
) -> Result<Vec<Witnesses>, ()> {
    let mut out = Vec::with_capacity(rules.len());
    let mut key: Vec<Value> = Vec::new();
    for rule in rules {
        let mut map = Witnesses::new();
        if let Some(cert) = &rule.cert {
            // An empty-body rule has the empty trigger from round one.
            if cert.plans.is_empty() && first_round {
                map.insert(Vec::new(), Vec::new());
            }
            let mut over = false;
            for (rel, plan) in &cert.plans {
                let prepared = prepare_cq(plan, idx);
                let rows = &seeds[rel.index()];
                eval_seeded_into(plan, &prepared, idx, rows, &mut |row| {
                    key.clear();
                    for &p in &cert.proj {
                        match row.get(p) {
                            Some(&v) => key.push(v),
                            None => return true,
                        }
                    }
                    let full = map.len() == limit;
                    match map.get_mut(key.as_slice()) {
                        Some(best) => {
                            if row < best.as_slice() {
                                best.clear();
                                best.extend_from_slice(row);
                            }
                        }
                        None if full => {
                            over = true;
                            return false;
                        }
                        None => {
                            map.insert(key.clone(), row.to_vec());
                        }
                    }
                    true
                });
                if over {
                    return Err(());
                }
            }
        }
        out.push(map);
    }
    Ok(out)
}

/// Partition delta fact ids into per-relation row-id seed lists (the
/// seeded evaluator pins plans on rows of the pinned relation's column
/// pages). Dead facts are skipped — a fact can die between the delta
/// being recorded and the match phase that consumes it.
fn seeds_by_rel(schema: &Schema, store: &FactStore, seed: &[FactId]) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); schema.len()];
    for &id in seed {
        if store.is_live(id) {
            out[store.fact_rel(id).index()].push(store.fact_row(id));
        }
    }
    out
}

/// The sole disjunct of a rule-body/head plan. Compiled rule queries
/// are built with `UnionQuery::single` (see `compile_rule`), so the
/// compiled plan has exactly one disjunct by construction.
fn sole(plan: &CompiledUcq) -> &CompiledCq {
    // ca-lint: allow(L002, reason = "single-disjunct by construction: every chase rule query is wrapped via UnionQuery::single at compile_rule time")
    plan.disjuncts().first().expect("UnionQuery::single")
}

/// Evaluate every egd's pinned plans over the per-relation seeds,
/// returning the sorted set of equality pairs. `Err(())` = match budget
/// exceeded.
fn egd_matches(
    schema: &Schema,
    store: &FactStore,
    egds: &[CompiledEgd],
    seeds: &[Vec<u32>],
    cfg: &ChaseConfig,
    cache: &mut PlanCache,
    idx: &mut DbIndex,
) -> Result<BTreeSet<(Value, Value)>, ()> {
    let limit = cfg.match_limit;
    let mut pairs: BTreeSet<(Value, Value)> = BTreeSet::new();
    for egd in egds {
        for (p, &rel) in egd.rels.iter().enumerate() {
            let rows = &seeds[rel.index()];
            if rows.is_empty() {
                continue;
            }
            let plan = cache
                .get_or_compile_pinned(&egd.body_u, p, schema, store)
                // ca-lint: allow(L002, reason = "compile_egd validated this body against the schema; plan errors are independent of pin and statistics")
                .expect("egd bodies are validated at compile time");
            let cq = sole(&plan);
            let prepared = prepare_cq(cq, idx);
            let mut over = false;
            eval_seeded_into(cq, &prepared, idx, rows, &mut |row| {
                if let [a, b] = row {
                    // Insert straight away (dedup is free for Copy
                    // pairs); only a full set needs the existence check
                    // to tell "duplicate" from "over budget".
                    if pairs.len() == limit {
                        if pairs.contains(&(*a, *b)) {
                            return true;
                        }
                        over = true;
                        return false;
                    }
                    pairs.insert((*a, *b));
                }
                true
            });
            if over {
                return Err(());
            }
        }
    }
    Ok(pairs)
}

/// Evaluate every rule's pinned plans over the per-relation seeds, and
/// the head plans of rules with unfired candidates. Returns per-rule
/// `(triggers, satisfied)` frontier-valuation sets. A certified run
/// passes its provenance maps as `prov`: their key sets are the trigger
/// sets, so no body is matched a second time. `Err(())` = match budget
/// exceeded.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn tgd_matches(
    schema: &Schema,
    store: &FactStore,
    rules: &[CompiledRule],
    fired: &[FxHashSet<Vec<Value>>],
    seeds: &[Vec<u32>],
    prov: Option<&[Witnesses]>,
    first_round: bool,
    cfg: &ChaseConfig,
    cache: &mut PlanCache,
    idx: &mut DbIndex,
) -> Result<(Vec<TriggerSet>, Vec<TriggerSet>), ()> {
    let n_rules = rules.len();
    let mut triggers: Vec<TriggerSet> = match prov {
        Some(prov) => prov.iter().map(|m| m.keys().cloned().collect()).collect(),
        None => vec![BTreeSet::new(); n_rules],
    };
    let mut satisfied: Vec<TriggerSet> = vec![BTreeSet::new(); n_rules];
    let limit = cfg.match_limit;
    // Certified triggers come from the provenance pass: seed no body.
    let seeded: &[CompiledRule] = if prov.is_some() { &[] } else { rules };
    for (rule, set) in seeded.iter().zip(triggers.iter_mut()) {
        for (p, &rel) in rule.rels.iter().enumerate() {
            let rows = &seeds[rel.index()];
            if rows.is_empty() {
                continue;
            }
            let plan = cache
                .get_or_compile_pinned(&rule.body_u, p, schema, store)
                // ca-lint: allow(L002, reason = "compile_rule validated this body against the schema; plan errors are independent of pin and statistics")
                .expect("rule bodies are validated at compile time");
            let cq = sole(&plan);
            let prepared = prepare_cq(cq, idx);
            let mut over = false;
            eval_seeded_into(cq, &prepared, idx, rows, &mut |row| {
                if set.contains(row) {
                    return true;
                }
                if set.len() == limit {
                    over = true;
                    return false;
                }
                set.insert(row.to_vec());
                true
            });
            if over {
                return Err(());
            }
        }
    }
    // A rule with an empty body has no atom to seed: its single trigger
    // (the empty valuation) exists from round one.
    if first_round {
        for (r, rule) in rules.iter().enumerate() {
            if rule.rels.is_empty() {
                triggers[r].insert(Vec::new());
            }
        }
    }
    // Head satisfaction, set-at-a-time, for rules with unfired
    // candidates. Head plans go through the cache too: a quiet store
    // serves them for free, a mutated one re-costs them.
    for (r, rule) in rules.iter().enumerate() {
        if triggers[r].iter().all(|row| fired[r].contains(row)) {
            continue;
        }
        let plan = cache
            .get_or_compile(&rule.head_u, schema, store)
            // ca-lint: allow(L002, reason = "compile_rule validated this head against the schema; plan errors are independent of statistics")
            .expect("rule heads are validated at compile time");
        let cq = sole(&plan);
        let prepared = prepare_cq(cq, idx);
        let set = &mut satisfied[r];
        let mut over = false;
        eval_prepared_into(cq, &prepared, idx, &mut |row| {
            if set.len() == limit {
                over = true;
                return false;
            }
            set.insert(row.to_vec());
            true
        });
        if over {
            return Err(());
        }
    }
    Ok((triggers, satisfied))
}

/// The chased (or partially chased) instance: one node per live fact, in
/// store-id (= creation) order, over the original generalized schema.
/// Values go through the union-find — a no-op after a completed rewrite,
/// load-bearing on the partial-progress paths where `rewrite` may lag the
/// merges already recorded.
fn rebuild(schema: &Schema, store: &FactStore, instance: &GenDb, uf: &UnionFind) -> GenDb {
    let mut out = GenDb::new(instance.schema.clone());
    for id in store.iter_live() {
        let row: Vec<Value> = store.fact_values(id).iter().map(|&v| uf.find(v)).collect();
        out.add_node(schema.name(store.fact_rel(id)), row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn nl(id: u32) -> Null {
        Null(id)
    }

    #[test]
    fn union_find_merges_deterministically() {
        let mut uf = UnionFind::default();
        // Null-null: the smaller id becomes the root.
        assert_eq!(uf.union(Value::null(7), Value::null(3)), Ok(Some(nl(7))));
        assert_eq!(uf.find(Value::null(7)), Value::null(3));
        // Null-const: the constant wins.
        assert_eq!(uf.union(Value::null(3), c(5)), Ok(Some(nl(3))));
        assert_eq!(uf.find(Value::null(7)), c(5));
        // Same class: no-op.
        assert_eq!(uf.union(Value::null(7), c(5)), Ok(None));
        // Const-const through the classes: clash.
        assert_eq!(uf.union(c(6), Value::null(7)), Err(()));
    }

    /// The engine's usage contract with the workspace columnar store:
    /// union-find substitutions applied via `rewrite` collapse duplicates
    /// silently and leave unrelated facts untouched.
    #[test]
    fn store_rewrite_touches_only_affected_facts_and_collapses_duplicates() {
        let mut store = FactStore::new();
        let rel = store.add_relation("R", 2);
        let a = store.insert(rel, &[c(1), Value::null(9)]).unwrap();
        let b = store.insert(rel, &[c(1), c(5)]).unwrap();
        let other = store.insert(rel, &[c(2), c(2)]).unwrap();
        // Duplicate insert interns to the existing fact.
        assert_eq!(store.insert(rel, &[c(1), c(5)]), None);
        let mut uf = UnionFind::default();
        assert_eq!(uf.union(Value::null(9), c(5)), Ok(Some(nl(9))));
        let changed = store.rewrite(&[nl(9)], |v| uf.find(v));
        // Fact `a` rewrote into `b`'s tuple: it collapses (goes dead)
        // rather than duplicating, and nothing is reported as changed.
        assert!(changed.is_empty());
        assert!(!store.is_live(a));
        assert!(store.is_live(b) && store.is_live(other));
        assert_eq!(store.fact_values(other), vec![c(2), c(2)]);
    }
}
