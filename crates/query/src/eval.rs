//! Query evaluation.
//!
//! Two evaluators:
//!
//! * CQs/UCQs over naïve databases, **treating nulls as ordinary values**
//!   (`⊥₁ = ⊥₁`, `⊥₁ ≠ ⊥₂`, `⊥₁ ≠ c`) — the first phase of naïve
//!   evaluation. These entry points delegate to the compiled
//!   [`crate::engine`] (plan once, probe lazily-built hash indices) via
//!   *lenient* compilation, which exactly reproduces the historical
//!   semantics: an atom over an unknown relation, or at the wrong arity,
//!   silently matches nothing (the CLI depends on this — a query over a
//!   relation absent from the database prints nothing and exits 0).
//!   Callers that want schema errors surfaced should use the engine's
//!   strict API ([`crate::engine::eval_ucq`] and friends) instead. The
//!   original nested-loop evaluator survives as [`crate::reference`].
//! * Full FO over databases under active-domain semantics, likewise
//!   treating any nulls present as distinct fresh values (evaluating FO
//!   "as if nulls were values" is exactly what Proposition 1 analyzes).

use std::collections::BTreeSet;

use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;

use crate::ast::{ConjunctiveQuery, Fo, Term, UnionQuery};
use crate::engine::{self, DbIndex};

/// Evaluate a CQ over a database treating nulls as values. Returns the set
/// of head-variable bindings (each a tuple of values, possibly containing
/// nulls). A Boolean query returns `{[]}` for true, `{}` for false. This is
/// [`eval_ucq`] of the one-disjunct union, so a CQ that does not compile
/// matches nothing.
pub fn eval_cq(q: &ConjunctiveQuery, db: &NaiveDatabase) -> BTreeSet<Vec<Value>> {
    eval_ucq(&UnionQuery::single(q.clone()), db)
}

/// Evaluate a UCQ (union of the disjuncts' answers).
pub fn eval_ucq(q: &UnionQuery, db: &NaiveDatabase) -> BTreeSet<Vec<Value>> {
    let plan = engine::CompiledUcq::compile_lenient(q, &db.schema);
    engine::eval_ucq_on(&plan, &mut DbIndex::new(db))
}

/// Boolean CQ evaluation (nulls as values): [`eval_ucq_bool`] of the
/// one-disjunct union, so a CQ that does not compile answers false.
pub fn eval_cq_bool(q: &ConjunctiveQuery, db: &NaiveDatabase) -> bool {
    assert!(q.is_boolean());
    eval_ucq_bool(&UnionQuery::single(q.clone()), db)
}

/// Boolean UCQ evaluation (nulls as values).
pub fn eval_ucq_bool(q: &UnionQuery, db: &NaiveDatabase) -> bool {
    let plan = engine::CompiledUcq::compile_lenient(q, &db.schema);
    engine::eval_ucq_bool_on(&plan, &mut DbIndex::new(db))
}

/// Evaluate an FO sentence over a database under active-domain semantics,
/// treating nulls as distinct values. `φ` must be a sentence (no free
/// variables beyond those bound by quantifiers along the way).
pub fn eval_fo(phi: &Fo, db: &NaiveDatabase) -> bool {
    let domain: Vec<Value> = active_domain(db);
    eval_fo_rec(phi, db, &domain, &mut Vec::new())
}

/// The active domain: every value occurring in the database.
pub fn active_domain(db: &NaiveDatabase) -> Vec<Value> {
    let mut d: Vec<Value> = db.values().collect();
    d.sort_unstable();
    d.dedup();
    d
}

fn lookup(env: &[(u32, Value)], t: Term) -> Value {
    match t {
        Term::Const(c) => Value::Const(c),
        Term::Var(v) => match env.iter().rev().find(|(u, _)| *u == v) {
            Some(&(_, val)) => val,
            // Queries are sentences: every variable is bound by the
            // quantifier that pushed it onto `env` before its atoms are
            // evaluated.
            None => unreachable!("FO evaluation: unbound variable {v} (not a sentence?)"),
        },
    }
}

fn eval_fo_rec(
    phi: &Fo,
    db: &NaiveDatabase,
    domain: &[Value],
    env: &mut Vec<(u32, Value)>,
) -> bool {
    match phi {
        Fo::Atom(a) => {
            let Some(rel) = db.schema.relation(&a.rel) else {
                return false;
            };
            let args: Vec<Value> = a.args.iter().map(|&t| lookup(env, t)).collect();
            db.contains(rel, &args)
        }
        Fo::Eq(s, t) => lookup(env, *s) == lookup(env, *t),
        Fo::Not(f) => !eval_fo_rec(f, db, domain, env),
        Fo::And(fs) => fs.iter().all(|f| eval_fo_rec(f, db, domain, env)),
        Fo::Or(fs) => fs.iter().any(|f| eval_fo_rec(f, db, domain, env)),
        Fo::Exists(v, f) => domain.iter().any(|&val| {
            env.push((*v, val));
            let r = eval_fo_rec(f, db, domain, env);
            env.pop();
            r
        }),
        Fo::Forall(v, f) => domain.iter().all(|&val| {
            env.push((*v, val));
            let r = eval_fo_rec(f, db, domain, env);
            env.pop();
            r
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use ca_relational::database::build::{c, n, table};
    use Term::{Const as C, Var as V};

    #[test]
    fn cq_join_over_complete_db() {
        // Q() ← R(x, y) ∧ R(y, z): paths of length 2.
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("R", vec![V(1), V(2)]),
        ]);
        let yes = table("R", 2, &[&[c(1), c(2)], &[c(2), c(3)]]);
        let no = table("R", 2, &[&[c(1), c(2)], &[c(3), c(4)]]);
        assert!(eval_cq_bool(&q, &yes));
        assert!(!eval_cq_bool(&q, &no));
    }

    #[test]
    fn nulls_are_values_in_naive_phase() {
        // R(⊥1, ⊥1) matches R(x, x); R(⊥1, ⊥2) does not.
        let q = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(0)])]);
        assert!(eval_cq_bool(&q, &table("R", 2, &[&[n(1), n(1)]])));
        assert!(!eval_cq_bool(&q, &table("R", 2, &[&[n(1), n(2)]])));
    }

    #[test]
    fn head_projection_and_null_rows() {
        // Q(x) ← R(x, y): project first column.
        let q = ConjunctiveQuery::with_head(vec![0], vec![Atom::new("R", vec![V(0), V(1)])]);
        let db = table("R", 2, &[&[c(1), c(2)], &[n(1), c(3)]]);
        let ans = eval_cq(&q, &db);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&vec![c(1)]));
        assert!(ans.contains(&vec![n(1)]));
    }

    #[test]
    fn constants_in_atoms_filter() {
        let q = ConjunctiveQuery::with_head(vec![0], vec![Atom::new("R", vec![C(1), V(0)])]);
        let db = table("R", 2, &[&[c(1), c(2)], &[c(3), c(4)]]);
        let ans = eval_cq(&q, &db);
        assert_eq!(ans, BTreeSet::from([vec![c(2)]]));
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let q = UnionQuery::new(vec![
            ConjunctiveQuery::with_head(vec![0], vec![Atom::new("R", vec![V(0), C(2)])]),
            ConjunctiveQuery::with_head(vec![0], vec![Atom::new("R", vec![C(1), V(0)])]),
        ]);
        let db = table("R", 2, &[&[c(1), c(2)]]);
        let ans = eval_ucq(&q, &db);
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn lenient_semantics_for_unknown_relations() {
        // The legacy entry points keep the pre-engine behaviour: a query
        // over a relation absent from the schema answers empty/false, and
        // a mixed UCQ still answers through its well-formed disjuncts.
        let db = table("R", 1, &[&[c(1)]]);
        let broken = ConjunctiveQuery::boolean(vec![Atom::new("S", vec![V(0)])]);
        assert!(eval_cq(&broken, &db).is_empty());
        assert!(!eval_cq_bool(&broken, &db));
        let mixed = UnionQuery::new(vec![
            broken.clone(),
            ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0)])]),
        ]);
        assert!(eval_ucq_bool(&mixed, &db));
        assert_eq!(eval_ucq(&mixed, &db), BTreeSet::from([vec![]]));
    }

    #[test]
    fn fo_universal_and_negation() {
        // ∀x R(x, x) over active domain.
        let phi = Fo::forall(0, Fo::Atom(Atom::new("R", vec![V(0), V(0)])));
        let all_loops = table("R", 2, &[&[c(1), c(1)], &[c(2), c(2)]]);
        assert!(eval_fo(&phi, &all_loops));
        let not_all = table("R", 2, &[&[c(1), c(1)], &[c(1), c(2)]]);
        assert!(!eval_fo(&phi, &not_all));
        // ¬∃x R(x, x).
        let no_loop = Fo::exists(0, Fo::Atom(Atom::new("R", vec![V(0), V(0)]))).not();
        assert!(!eval_fo(&no_loop, &all_loops));
        assert!(eval_fo(&no_loop, &table("R", 2, &[&[c(1), c(2)]])));
    }

    #[test]
    fn fo_agrees_with_cq_on_ucq_fragment() {
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("R", vec![V(1), V(0)]),
        ]);
        let phi = Fo::from_cq(&q);
        let dbs = [
            table("R", 2, &[&[c(1), c(2)], &[c(2), c(1)]]),
            table("R", 2, &[&[c(1), c(2)]]),
            table("R", 2, &[&[c(1), c(1)]]),
            table("R", 2, &[&[n(1), n(2)], &[n(2), n(1)]]),
        ];
        for db in &dbs {
            assert_eq!(eval_cq_bool(&q, db), eval_fo(&phi, db), "on {db:?}");
        }
    }

    #[test]
    fn fo_equality() {
        // ∃x∃y (R(x,y) ∧ x = y).
        let phi = Fo::exists(
            0,
            Fo::exists(
                1,
                Fo::And(vec![
                    Fo::Atom(Atom::new("R", vec![V(0), V(1)])),
                    Fo::Eq(V(0), V(1)),
                ]),
            ),
        );
        assert!(eval_fo(&phi, &table("R", 2, &[&[c(3), c(3)]])));
        assert!(!eval_fo(&phi, &table("R", 2, &[&[c(3), c(4)]])));
    }

    #[test]
    fn empty_database_semantics() {
        let db = table("R", 1, &[]);
        // ∃x R(x) is false; ∀x R(x) is vacuously true (empty domain).
        let ex = Fo::exists(0, Fo::Atom(Atom::new("R", vec![V(0)])));
        let fa = Fo::forall(0, Fo::Atom(Atom::new("R", vec![V(0)])));
        assert!(!eval_fo(&ex, &db));
        assert!(eval_fo(&fa, &db));
    }
}
