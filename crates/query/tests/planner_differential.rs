//! Differential tests for the cost-based planner: on random schemas,
//! databases, and (U)CQs, the reference evaluator, the greedy-planned
//! engine and the cost-planned engine must produce identical answers —
//! plan choice moves wall time only, never contents. Plan choice itself
//! is pinned deterministic.

use ca_query::engine::{eval_ucq_on, CompiledUcq, CostModel, DbIndex};
use ca_query::generate::{random_ucq_over, QueryParams};
use ca_query::reference;
use ca_relational::database::NaiveDatabase;
use ca_relational::generate::{random_naive_db_over, DbParams, Rng};
use ca_relational::schema::Schema;
use ca_relational::to_store;

/// A modest multi-relation schema: mixed arities so random queries get
/// real join shapes and the planner has asymmetry to exploit.
fn test_schema() -> Schema {
    Schema::from_relations(&[("R", 2), ("S", 3), ("T", 1)])
}

fn db_params(seed: u64) -> DbParams {
    DbParams {
        n_facts: 40 + (seed as usize % 60),
        arity: 2, // ignored by `random_naive_db_over`
        n_constants: 8,
        n_nulls: 4,
        null_pct: 15,
    }
}

fn query_params(seed: u64) -> QueryParams {
    QueryParams {
        n_disjuncts: 1 + (seed as usize % 3),
        n_atoms: 1 + (seed as usize % 4),
        n_vars: 5,
        arity: 2, // ignored by `random_ucq_over`
        n_constants: 8,
        const_pct: 25,
    }
}

fn random_instance(seed: u64) -> (NaiveDatabase, ca_query::UnionQuery) {
    let schema = test_schema();
    let mut rng = Rng::new(seed);
    let db = random_naive_db_over(&mut rng, &schema, db_params(seed));
    let q = random_ucq_over(&mut rng, &schema, (seed % 3) as usize, query_params(seed));
    (db, q)
}

/// Reference, greedy plan and cost-based plan all agree on random
/// instances.
#[test]
fn cost_greedy_reference_agree_on_random_ucqs() {
    for seed in 0..60u64 {
        let (db, q) = random_instance(seed);
        let expected = reference::eval_ucq(&q, &db);

        let greedy = CompiledUcq::compile(&q, &db.schema).unwrap();
        assert_eq!(
            expected,
            eval_ucq_on(&greedy, &mut DbIndex::new(&db)),
            "greedy plan diverges from reference (seed {seed})"
        );

        let st = to_store(&db);
        let model = CostModel::from_store(&st);
        let costed = CompiledUcq::compile_costed(&q, &db.schema, &model).unwrap();
        assert_eq!(
            expected,
            eval_ucq_on(&costed, &mut DbIndex::new(&db)),
            "cost-based plan diverges from reference (seed {seed})"
        );
    }
}

/// Plan choice is a pure function of (query, statistics): compiling
/// twice yields structurally identical plans.
#[test]
fn plan_choice_is_deterministic() {
    for seed in 0..20u64 {
        let (db, q) = random_instance(seed);
        let st = to_store(&db);
        let model = CostModel::from_store(&st);
        let a = CompiledUcq::compile_costed(&q, &db.schema, &model).unwrap();
        let b = CompiledUcq::compile_costed(&q, &db.schema, &CostModel::from_store(&st)).unwrap();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "plan choice not deterministic (seed {seed})"
        );
    }
}
