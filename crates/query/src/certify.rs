//! Certificate emission for the certain-answer drivers.
//!
//! The fast paths in [`crate::certain`] and [`crate::engine`] stay
//! allocation-lean; this module wraps them with entry points
//! that additionally produce [`ca_cert`] certificates an engine-blind
//! checker can replay:
//!
//! * **certain = true** — a [`MatchCert`]: one naïve match of one
//!   disjunct, null-free in the projected row. By the classical theorem
//!   (naïve evaluation computes UCQ certain answers) such a match always
//!   exists when the sweep says "certain", so emission never needs the
//!   sweep's verdict on faith.
//! * **certain = false** — a [`NonCertainCert`]: one completion valuation
//!   into the adequate pool under which no disjunct matches (or, for
//!   tables, under which the claimed row is not an answer). This is the
//!   checker's one documented search carve-out: verifying it naïvely
//!   evaluates the single named completion, polynomial in the data.
//!
//! Witness assignments are extracted with the *augmented-head* trick:
//! re-evaluate the disjunct with every body variable in the head, so each
//! result row **is** a full body assignment; the first row in `BTreeSet`
//! order makes emission deterministic across rebuilt stores.

use std::collections::{BTreeMap, BTreeSet};

use ca_cert::{
    CertAtom, CertCq, CertFact, CertQuery, CertTerm, CertainVerdictCert, MatchCert, NonCertainCert,
};
use ca_core::value::{Null, Value};
use ca_relational::database::NaiveDatabase;

use crate::ast::{Atom, ConjunctiveQuery, Term, UnionQuery};
use crate::certain::{adequate_pool, certain_answer_bool, certain_table, ucq_constants};
use crate::engine::{self, CompiledUcq, CompletionSpace, DbIndex};

/// Translate a UCQ into the checker's engine-free vocabulary.
pub fn cert_query(q: &UnionQuery) -> CertQuery {
    CertQuery {
        head_arity: q.head_arity(),
        disjuncts: q.disjuncts.iter().map(cert_cq).collect(),
    }
}

fn cert_cq(cq: &ConjunctiveQuery) -> CertCq {
    CertCq {
        head: cq.head.clone(),
        atoms: cq.atoms.iter().map(cert_atom).collect(),
    }
}

/// A query atom in checker vocabulary: variables by id, constants literal.
pub fn cert_atom(a: &Atom) -> CertAtom {
    CertAtom {
        rel: a.rel.clone(),
        args: a
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => CertTerm::Var(*v),
                Term::Const(c) => CertTerm::Const(*c),
            })
            .collect(),
    }
}

/// The database's fact set in checker vocabulary (nulls as values).
pub fn db_facts(db: &NaiveDatabase) -> BTreeSet<CertFact> {
    db.facts()
        .iter()
        .map(|f| (db.schema.name(f.rel).to_owned(), f.args.clone()))
        .collect()
}

/// Find a naïve match of disjunct `d` (nulls as values) whose projected
/// head row equals `row`, as a full body assignment. Deterministic: the
/// augmented query's first answer row in `BTreeSet` order wins.
fn naive_match(q: &UnionQuery, db: &NaiveDatabase, row: &[Value]) -> Option<MatchCert> {
    for (d, cq) in q.disjuncts.iter().enumerate() {
        let vars = cq.body_vars();
        let aug = ConjunctiveQuery::with_head(vars.clone(), cq.atoms.clone());
        let Ok(answers) = engine::eval_cq(&aug, db) else {
            continue;
        };
        for assignment_row in answers {
            let binding: BTreeMap<u32, Value> = vars.iter().copied().zip(assignment_row).collect();
            let projected: Option<Vec<Value>> =
                cq.head.iter().map(|h| binding.get(h).copied()).collect();
            if projected.as_deref() == Some(row) {
                return Some(MatchCert {
                    disjunct: d,
                    assignment: binding.into_iter().collect(),
                    row: row.to_vec(),
                });
            }
        }
    }
    None
}

/// Scan the completion grid in index order for one completion falsifying
/// `test`, returning its valuation (lowest falsifying index wins). Runs
/// only after the sweep has already said "not certain".
fn falsifying_valuation(
    db: &NaiveDatabase,
    pool: &[i64],
    test: impl Fn(&mut DbIndex<'_>) -> bool,
) -> Option<Vec<(Null, i64)>> {
    let mut space = CompletionSpace::new(db, pool);
    (0..space.len())
        .find(|&i| !test(&mut DbIndex::over(space.ground(i))))
        .map(|i| space.valuation(i))
}

/// Boolean certain answer with a replayable verdict certificate.
///
/// Returns the same Boolean as
/// [`certain_answer_bool`]
/// plus, when one exists, a certificate for that verdict against the
/// *heads-dropped* (Boolean) form of `q` — check it with
/// [`ca_cert::check_certain_row`] / [`ca_cert::check_non_certain`] against
/// [`cert_query`]`(&boolean form)` and [`db_facts`]. `None` arises only in
/// the vacuous corner (nulls present, empty pool — never with the
/// adequate pool).
pub fn certain_bool_certified(
    q: &UnionQuery,
    db: &NaiveDatabase,
) -> (bool, Option<CertainVerdictCert>) {
    let verdict = certain_answer_bool(q, db);
    let bq = boolean_form(q);
    if verdict {
        let cert = naive_match(&bq, db, &[]).map(CertainVerdictCert::Certain);
        return (true, cert);
    }
    let pool = adequate_pool(db, &ucq_constants(q));
    let plan = CompiledUcq::compile_lenient(&bq, &db.schema);
    let cert = falsifying_valuation(db, &pool, |idx| engine::eval_ucq_bool_on(&plan, idx)).map(
        |valuation| {
            CertainVerdictCert::NonCertain(NonCertainCert {
                valuation,
                row: vec![],
            })
        },
    );
    (false, cert)
}

/// The heads-dropped Boolean form of a UCQ: the query whose certain
/// answer is "does some disjunct match in every completion".
pub fn boolean_form(q: &UnionQuery) -> UnionQuery {
    UnionQuery {
        disjuncts: q
            .disjuncts
            .iter()
            .map(|d| ConjunctiveQuery::boolean(d.atoms.clone()))
            .collect(),
    }
}

/// A certified certain-answer table: the table itself plus one checkable
/// [`MatchCert`] per row.
pub type CertifiedTable = (BTreeSet<Vec<Value>>, Vec<(Vec<Value>, MatchCert)>);

/// Certain answers of a non-Boolean UCQ with one [`MatchCert`] per row.
///
/// Returns the same table as
/// [`certain_table`] plus, for
/// every certain row, a naïve-match certificate (null-free row — check
/// with [`ca_cert::check_certain_row`]). The classical theorem guarantees
/// a witness for every certain row, so the second component covers the
/// whole table.
pub fn certain_table_certified(q: &UnionQuery, db: &NaiveDatabase) -> CertifiedTable {
    let table = certain_table(q, db);
    let certs = table
        .iter()
        .filter_map(|row| naive_match(q, db, row).map(|c| (row.clone(), c)))
        .collect();
    (table, certs)
}

/// Certify that `row` is **not** a certain answer of `q` over `db`: find
/// a completion into the adequate pool whose answer table omits `row`.
/// `None` when `row` is in fact certain (or the space is vacuous). Each
/// completion is tested without building its answer table: `row` is
/// resolved to interned ids and the join stops at the first equal head
/// row.
pub fn refute_row(q: &UnionQuery, db: &NaiveDatabase, row: &[Value]) -> Option<NonCertainCert> {
    let pool = adequate_pool(db, &ucq_constants(q));
    let plan = CompiledUcq::compile_lenient(q, &db.schema);
    falsifying_valuation(db, &pool, |idx| engine::ucq_has_row(&plan, idx, row)).map(|valuation| {
        NonCertainCert {
            valuation,
            row: row.to_vec(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_cert::{check_certain_row, check_non_certain, Reject};
    use ca_relational::parse::parse_database;

    use crate::parse::parse_ucq;

    fn setup(db: &str, q: &str) -> (NaiveDatabase, UnionQuery) {
        let db = parse_database(db).expect("test database parses");
        let q = parse_ucq(q).expect("test query parses");
        (db, q)
    }

    #[test]
    fn certain_bool_emits_checkable_match() {
        let (db, q) = setup("R(1, ?x); R(?x, 2)", "R(1, y), R(y, 2)");
        let (verdict, cert) = certain_bool_certified(&q, &db);
        assert!(verdict);
        let Some(CertainVerdictCert::Certain(m)) = cert else {
            panic!("expected a match certificate, got {cert:?}");
        };
        let bq = cert_query(&boolean_form(&q));
        assert_eq!(check_certain_row(&bq, &db_facts(&db), &m), Ok(()));
    }

    #[test]
    fn non_certain_bool_emits_checkable_valuation() {
        // R(⊥1) with Q = ∃x R(x), S(x): S is empty, never certain.
        let (db, q) = setup("R(?x); S(3)", "R(y), S(y)");
        let (verdict, cert) = certain_bool_certified(&q, &db);
        assert!(!verdict);
        let Some(CertainVerdictCert::NonCertain(nc)) = cert else {
            panic!("expected a non-certainty certificate, got {cert:?}");
        };
        let bq = cert_query(&boolean_form(&q));
        assert_eq!(check_non_certain(&bq, &db_facts(&db), &nc), Ok(()));
        // Tampering: point the valuation at a constant that *does* match.
        let mut forged = nc;
        forged.valuation = vec![(ca_core::value::Null(0), 3)];
        assert_eq!(
            check_non_certain(&bq, &db_facts(&db), &forged),
            Err(Reject::MatchExists { disjunct: 0 })
        );
    }

    #[test]
    fn certain_table_certifies_every_row() {
        let (db, q) = setup("R(1, 2); R(2, 3); R(4, ?x)", "(x, y) :- R(x, y)");
        let (table, certs) = certain_table_certified(&q, &db);
        assert_eq!(certs.len(), table.len(), "every certain row needs a cert");
        let cq = cert_query(&q);
        let facts = db_facts(&db);
        for (row, m) in &certs {
            assert!(table.contains(row));
            assert_eq!(check_certain_row(&cq, &facts, m), Ok(()));
        }
        // A non-answer row is refutable with a checkable completion.
        let bad = vec![Value::Const(4), Value::Const(1)];
        assert!(!table.contains(&bad));
        let nc = refute_row(&q, &db, &bad).expect("refutation exists");
        assert_eq!(check_non_certain(&cq, &facts, &nc), Ok(()));
    }
}
