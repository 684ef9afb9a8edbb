//! Certain answers over constrained targets, via the chase.
//!
//! For unconstrained targets the canonical solution is universal and
//! naive evaluation + null-dropping computes UCQ certain answers (the
//! paper's Theorem 2 route, implemented in `ca_gdm::certain` /
//! `ca_query::certain`). With target tgds/egds the canonical solution
//! need not satisfy the constraints; this module chases it first:
//!
//! * a **successful** chase yields a universal solution for the
//!   constrained target class, so the null-free rows of a naive UCQ
//!   evaluation over it are exactly the certain answers;
//! * a **failed** chase (egd constant clash) proves no solution exists —
//!   every answer is vacuously certain, reported as
//!   [`CertainAnswers::NoSolution`];
//! * an aborted, overflowed or refused chase yields no verdict, and says
//!   so in its type rather than returning a wrong table.

use std::collections::BTreeSet;

use ca_core::value::Value;
use ca_gdm::database::GenDb;
use ca_gdm::schema::GenSchema;
use ca_query::ast::UnionQuery;

use crate::chase::{chase_with, ChaseConfig, ChaseOutcome, Egd};
use crate::mapping::{Mapping, Rule};
use crate::solution::canonical_solution;

/// The verdict of a chase-based certain-answer computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertainAnswers {
    /// The certain answers, as a sorted table.
    Table(BTreeSet<Vec<Value>>),
    /// The chase failed: no solution satisfies the target constraints,
    /// so every answer is vacuously certain.
    NoSolution,
    /// The chase ran out of its step budget; no verdict.
    Aborted,
    /// The chase ran out of its match budget; no verdict.
    Overflow,
    /// The chase refused its input ([`crate::chase::ChaseRefusal`]):
    /// structural tuples, or a constraint that does not fit the target
    /// schema. No verdict.
    Unsupported,
}

/// Certain answers of `q` for source `d` under `mapping` with target
/// constraints `tgds`/`egds`: chase the canonical solution, evaluate
/// naively, keep the null-free rows.
pub fn certain_answers_via_chase(
    mapping: &Mapping,
    d: &GenDb,
    target_schema: &GenSchema,
    tgds: &[Rule],
    egds: &[Egd],
    q: &UnionQuery,
    cfg: &ChaseConfig,
) -> CertainAnswers {
    let canonical = canonical_solution(mapping, d, target_schema);
    let universal = match chase_with(&canonical, tgds, egds, cfg) {
        ChaseOutcome::Done(db) => db,
        ChaseOutcome::Failed => return CertainAnswers::NoSolution,
        ChaseOutcome::Aborted => return CertainAnswers::Aborted,
        ChaseOutcome::Overflow(_) => return CertainAnswers::Overflow,
        ChaseOutcome::Refused(_) => return CertainAnswers::Unsupported,
    };
    let Some(rel) = ca_gdm::encode::relational_view(&universal) else {
        return CertainAnswers::Unsupported;
    };
    let naive = ca_query::eval::eval_ucq(q, &rel);
    CertainAnswers::Table(
        naive
            .into_iter()
            .filter(|row| row.iter().all(|v| !v.is_null()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::value::Null;
    use ca_query::ast::{Atom, Term};

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn schema() -> GenSchema {
        GenSchema::from_parts(&[("S", 2), ("T", 2)], &[])
    }

    /// The copy mapping S(x,y) → T(x,y).
    fn copy_mapping() -> Mapping {
        let mut body = GenDb::new(schema());
        body.add_node("S", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(1), n(2)]);
        Mapping {
            rules: vec![Rule { body, head }],
        }
    }

    fn source(rows: &[[Value; 2]]) -> GenDb {
        let mut d = GenDb::new(schema());
        for r in rows {
            d.add_node("S", r.to_vec());
        }
        d
    }

    fn q_t() -> UnionQuery {
        UnionQuery {
            disjuncts: vec![ca_query::ast::ConjunctiveQuery::with_head(
                vec![0, 1],
                vec![Atom::new("T", vec![Term::Var(0), Term::Var(1)])],
            )],
        }
    }

    /// Transitivity on T as a target constraint: the chase closes the
    /// copied relation, and the certain answers include derived edges.
    #[test]
    fn target_tgds_enlarge_certain_answers() {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        body.add_node("T", vec![n(2), n(3)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(1), n(3)]);
        let trans = Rule { body, head };
        let out = certain_answers_via_chase(
            &copy_mapping(),
            &source(&[[c(1), c(2)], [c(2), c(3)]]),
            &schema(),
            &[trans],
            &[],
            &q_t(),
            &ChaseConfig::new(100),
        );
        let CertainAnswers::Table(t) = out else {
            panic!("expected a table: {out:?}");
        };
        assert!(t.contains(&vec![c(1), c(3)]));
        assert_eq!(t.len(), 3);
    }

    /// A functionality egd clashing on constants: no solution exists.
    #[test]
    fn egd_clash_reports_no_solution() {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        body.add_node("T", vec![n(1), n(3)]);
        let func = Egd {
            body,
            equal: (Null(2), Null(3)),
        };
        let out = certain_answers_via_chase(
            &copy_mapping(),
            &source(&[[c(1), c(5)], [c(1), c(6)]]),
            &schema(),
            &[],
            &[func],
            &q_t(),
            &ChaseConfig::new(100),
        );
        assert_eq!(out, CertainAnswers::NoSolution);
    }

    /// Nulls introduced by the chase are dropped from the answer table.
    #[test]
    fn null_rows_are_not_certain() {
        // T(x,y) → ∃z T(y,z): every endpoint grows a null successor.
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(2), n(3)]);
        let succ = Rule { body, head };
        let out = certain_answers_via_chase(
            &copy_mapping(),
            &source(&[[c(1), c(1)]]),
            &schema(),
            &[succ],
            &[],
            &q_t(),
            &ChaseConfig::new(100),
        );
        let CertainAnswers::Table(t) = out else {
            panic!("expected a table: {out:?}");
        };
        // The loop (1,1) satisfies the successor tgd by itself.
        assert_eq!(t, BTreeSet::from([vec![c(1), c(1)]]));
    }

    /// An exhausted step budget is a typed verdictless outcome.
    #[test]
    fn aborted_chase_is_typed() {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(2), n(3)]);
        let succ = Rule { body, head };
        let out = certain_answers_via_chase(
            &copy_mapping(),
            &source(&[[c(1), c(2)]]),
            &schema(),
            &[succ],
            &[],
            &q_t(),
            &ChaseConfig::new(10),
        );
        assert_eq!(out, CertainAnswers::Aborted);
    }

    /// A target tgd whose head uses `T` at arity 3, where the target
    /// schema declares 2, is refused by the chase: no verdict.
    #[test]
    fn wrong_arity_target_tgd_is_unsupported() {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(GenSchema::from_parts(&[("T", 3)], &[]));
        head.add_node("T", vec![n(1), n(2), n(3)]);
        let out = certain_answers_via_chase(
            &copy_mapping(),
            &source(&[[c(1), c(2)]]),
            &schema(),
            &[Rule { body, head }],
            &[],
            &q_t(),
            &ChaseConfig::new(100),
        );
        assert_eq!(out, CertainAnswers::Unsupported);
    }
}
