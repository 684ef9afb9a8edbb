//! Metamorphic tests: the paper's laws as invariants of the new engine.
//!
//! * **Theorem 5 / the classical UCQ theorem**: naïve evaluation computes
//!   certain answers for UCQs — `naive_eval_table(Q, D)` must equal the
//!   brute-force `certain_table(Q, D)` on every instance, now with both
//!   sides routed through the compiled engine.
//! * **Proposition 2**: for a Boolean CQ the three legs — brute-force
//!   certain answer, tableau homomorphism `D_Q ⊑ D`, and containment
//!   `Q_D ⊆ Q` — agree (each computed independently; containment itself
//!   now runs Chandra–Merlin through the engine).
//! * **Symmetry laws**: answers are invariant under permuting a CQ's
//!   atoms and a UCQ's disjuncts (the planner picks different join
//!   orders; the answers must not change).
//!
//! Plus hand-built edge cases for head projection and constants in
//! atoms/heads, where the engine's key/bind/check classification is
//! easiest to get wrong.

use proptest::prelude::*;

use ca_query::certain::{
    certain_answer_bool, certain_table, naive_eval_bool, naive_eval_table, proposition2_checks,
};
use ca_query::certify::boolean_form;
use ca_query::engine;
use ca_query::generate::{random_bool_cq, random_ucq_over, QueryParams};
use ca_query::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_relational::database::build::{c, n, table};
use ca_relational::database::NaiveDatabase;
use ca_relational::generate::{
    random_naive_db, random_naive_db_over, random_schema, DbParams, Rng,
};

use Term::{Const as C, Var as V};

/// A small instance: ≤ 2 nulls keeps the |pool|^#nulls sweep tiny.
fn small_instance(seed: u64) -> (NaiveDatabase, UnionQuery) {
    instance_with(seed, 3, 35, 25)
}

/// A constant-free instance: every database position is a null and every
/// query term a variable, so `C(D) ∪ C(Q)` is empty and the adequate pool
/// is all fresh constants — including the one-null corner where a single
/// fresh constant would not be enough.
fn constant_free_instance(seed: u64) -> (NaiveDatabase, UnionQuery) {
    instance_with(seed, 0, 100, 0)
}

fn instance_with(
    seed: u64,
    n_constants: i64,
    null_pct: u64,
    const_pct: u64,
) -> (NaiveDatabase, UnionQuery) {
    let mut rng = Rng::new(seed);
    let schema = random_schema(&mut rng, 2, 2);
    let db = random_naive_db_over(
        &mut rng,
        &schema,
        DbParams {
            n_facts: 5,
            arity: 0,
            n_constants,
            n_nulls: 2,
            null_pct,
        },
    );
    let head_arity = rng.below(3) as usize;
    let params = QueryParams {
        n_disjuncts: 1 + rng.below(2) as usize,
        n_atoms: 1 + rng.below(2) as usize,
        n_vars: 3,
        arity: 0,
        n_constants,
        const_pct,
    };
    let q = random_ucq_over(&mut rng, &schema, head_arity, params);
    (db, q)
}

proptest! {
    /// Theorem 5 (the classical UCQ theorem) under the new engine: naïve
    /// evaluation equals brute-force certain answers, as full tables.
    #[test]
    fn naive_eval_computes_certain_answers(seed in any::<u64>()) {
        let (db, q) = small_instance(seed);
        prop_assert_eq!(
            naive_eval_table(&q, &db),
            certain_table(&q, &db),
            "Theorem 5 violated on {:?} over {:?}", &q, &db
        );
    }

    /// The Boolean version of the same law.
    #[test]
    fn naive_eval_bool_computes_certain_answers(seed in any::<u64>()) {
        let (db, q) = small_instance(seed);
        let bq = boolean_form(&q);
        prop_assert_eq!(naive_eval_bool(&bq, &db), certain_answer_bool(&bq, &db));
    }

    /// Theorem 5 on constant-free instances, where the adequate pool is
    /// made of fresh constants only, as tables and as Booleans.
    #[test]
    fn naive_eval_computes_certain_answers_without_constants(seed in any::<u64>()) {
        let (db, q) = constant_free_instance(seed);
        prop_assert_eq!(
            naive_eval_table(&q, &db),
            certain_table(&q, &db),
            "Theorem 5 violated on {:?} over {:?}", &q, &db
        );
        let bq = boolean_form(&q);
        prop_assert_eq!(naive_eval_bool(&bq, &db), certain_answer_bool(&bq, &db));
    }

    /// Proposition 2: the three independently-computed legs agree on
    /// random Boolean CQs over the single-relation generator.
    #[test]
    fn proposition2_legs_agree(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let db = random_naive_db(
            &mut rng,
            DbParams { n_facts: 4, arity: 2, n_constants: 2, n_nulls: 2, null_pct: 40 },
        );
        let q = random_bool_cq(
            &mut rng,
            QueryParams {
                n_disjuncts: 1,
                n_atoms: 2,
                n_vars: 3,
                arity: 2,
                n_constants: 2,
                const_pct: 30,
            },
        );
        let (certain, ordering, containment) = proposition2_checks(&q, &db);
        prop_assert_eq!(certain, ordering, "certain vs D_Q ⊑ D on {:?} / {:?}", &q, &db);
        prop_assert_eq!(ordering, containment, "D_Q ⊑ D vs Q_D ⊆ Q on {:?} / {:?}", &q, &db);
    }

    /// Permuting a CQ's atoms never changes its answers — the planner's
    /// join order may differ wildly, the result must not.
    #[test]
    fn atom_permutation_invariance(seed in any::<u64>()) {
        let (db, q) = small_instance(seed);
        for d in &q.disjuncts {
            let baseline = engine::eval_cq(d, &db).unwrap();
            let mut atoms = d.atoms.clone();
            atoms.reverse();
            let reversed = ConjunctiveQuery::with_head(d.head.clone(), atoms);
            prop_assert_eq!(engine::eval_cq(&reversed, &db).unwrap(), baseline);
        }
    }

    /// Permuting a UCQ's disjuncts never changes its answers.
    #[test]
    fn disjunct_permutation_invariance(seed in any::<u64>()) {
        let (db, q) = small_instance(seed);
        let baseline = engine::eval_ucq(&q, &db).unwrap();
        let mut disjuncts = q.disjuncts.clone();
        disjuncts.reverse();
        let reversed = UnionQuery::new(disjuncts);
        prop_assert_eq!(engine::eval_ucq(&reversed, &db).unwrap(), baseline);
    }
}

/// Head projection: Theorem 5 on a query that projects away join columns,
/// where the naïve answer contains null rows that must be filtered.
#[test]
fn theorem5_with_head_projection() {
    // Q(x) ← R(x, y) ∧ R(y, z): 2-path sources.
    let q = UnionQuery::single(ConjunctiveQuery::with_head(
        vec![0],
        vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("R", vec![V(1), V(2)]),
        ],
    ));
    let db = table(
        "R",
        2,
        &[&[c(1), n(1)], &[n(1), c(2)], &[n(2), c(7)], &[c(7), n(2)]],
    );
    let naive = naive_eval_table(&q, &db);
    assert_eq!(naive, certain_table(&q, &db));
    assert!(naive.contains(&vec![c(1)]), "1 → ⊥1 → 2 is certain");
    assert!(naive.contains(&vec![c(7)]), "7 → ⊥2 → 7 is certain");
    assert!(!naive.contains(&vec![c(2)]));
}

/// Constants in the head (via a repeated-variable trick) and in atoms:
/// Q(x, y) ← R(1, x) ∧ R(x, y) pins the first column with a constant and
/// chains through it.
#[test]
fn theorem5_with_constants_in_atoms() {
    let q = UnionQuery::single(ConjunctiveQuery::with_head(
        vec![0, 1],
        vec![
            Atom::new("R", vec![C(1), V(0)]),
            Atom::new("R", vec![V(0), V(1)]),
        ],
    ));
    let db = table("R", 2, &[&[c(1), c(3)], &[c(3), n(1)], &[c(3), c(4)]]);
    let naive = naive_eval_table(&q, &db);
    assert_eq!(naive, certain_table(&q, &db));
    assert_eq!(naive, std::collections::BTreeSet::from([vec![c(3), c(4)]]));
}

/// A repeated head variable: Q(x, x) ← R(x, x). The engine's head
/// projection duplicates a slot; certain answers must agree.
#[test]
fn theorem5_with_repeated_head_variable() {
    let q = UnionQuery::single(ConjunctiveQuery::with_head(
        vec![0, 0],
        vec![Atom::new("R", vec![V(0), V(0)])],
    ));
    let db = table("R", 2, &[&[c(4), c(4)], &[n(1), n(1)], &[n(2), c(5)]]);
    let naive = naive_eval_table(&q, &db);
    assert_eq!(naive, certain_table(&q, &db));
    // R(⊥1, ⊥1) matches naïvely but its row is null — filtered; R(⊥2, 5)
    // can complete to R(5, 5) or not — not certain.
    assert_eq!(naive, std::collections::BTreeSet::from([vec![c(4), c(4)]]));
}

/// Proposition 2 on queries with constants in atoms (the tableau then
/// contains constants; the containment leg must treat them rigidly).
#[test]
fn proposition2_with_constants() {
    let cases = [
        (
            ConjunctiveQuery::boolean(vec![Atom::new("R", vec![C(1), V(0)])]),
            table("R", 2, &[&[c(1), n(1)]]),
        ),
        (
            ConjunctiveQuery::boolean(vec![Atom::new("R", vec![C(1), C(2)])]),
            table("R", 2, &[&[c(1), n(1)]]),
        ),
        (
            ConjunctiveQuery::boolean(vec![Atom::new("R", vec![C(1), V(0)]), {
                Atom::new("R", vec![V(0), C(1)])
            }]),
            table("R", 2, &[&[c(1), n(1)], &[n(1), c(1)]]),
        ),
    ];
    for (q, db) in &cases {
        let (a, b, c3) = proposition2_checks(q, db);
        assert_eq!(a, b, "certain vs ordering on {q:?}");
        assert_eq!(b, c3, "ordering vs containment on {q:?}");
    }
}
