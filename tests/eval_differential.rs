//! Differential tests: the compiled query engine (`ca_query::engine`)
//! against the retained nested-loop evaluator (`ca_query::reference`) on
//! random multi-relation schemas, naïve databases, and UCQs.
//!
//! The reference evaluator is the exact pre-engine code, so any
//! disagreement here is a regression in the engine. Agreement is asserted
//! on full answer *tables* (ordered sets of rows), not just Booleans, and
//! the certain-answer sweep must equal a brute-force intersection of
//! reference answers over materialized completions.

use std::collections::BTreeSet;

use proptest::prelude::*;

use ca_cert::MatchCert;
use ca_core::value::Value;
use ca_query::certain::{adequate_pool, certain_answer_bool, certain_table, ucq_constants};
use ca_query::certify;
use ca_query::engine::{self, CompiledUcq};
use ca_query::generate::{random_ucq_over, QueryParams};
use ca_query::reference;
use ca_query::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_relational::database::NaiveDatabase;
use ca_relational::generate::{random_naive_db_over, random_schema, DbParams, Rng};
use ca_relational::schema::Schema;

/// The reference evaluator's naïve match for `row`: the first disjunct
/// with a body assignment projecting to it, and its least such assignment
/// in sorted body-variable order (the first answer of the disjunct with
/// every body variable in its head).
fn reference_match(q: &UnionQuery, db: &NaiveDatabase, row: &[Value]) -> Option<MatchCert> {
    q.disjuncts.iter().enumerate().find_map(|(disjunct, cq)| {
        let vars = cq.body_vars();
        let aug = ConjunctiveQuery::with_head(vars.clone(), cq.atoms.clone());
        reference::eval_cq(&aug, db).into_iter().find_map(|values| {
            let assignment: Vec<(u32, Value)> = vars.iter().copied().zip(values).collect();
            let value_of = |h: &u32| assignment.iter().find(|(v, _)| v == h).map(|&(_, x)| x);
            let projected: Option<Vec<Value>> = cq.head.iter().map(value_of).collect();
            (projected.as_deref() == Some(row)).then(|| MatchCert {
                disjunct,
                assignment,
                row: row.to_vec(),
            })
        })
    })
}

/// One random instance: a schema of 1–3 relations (arity ≤ 3), a naïve
/// database over it, and a UCQ with a random head arity.
fn instance(seed: u64) -> (Schema, NaiveDatabase, UnionQuery) {
    let mut rng = Rng::new(seed);
    let schema = random_schema(&mut rng, 1 + (seed % 3) as usize, 3);
    let db = random_naive_db_over(
        &mut rng,
        &schema,
        DbParams {
            n_facts: 6,
            arity: 0, // ignored: arities come from the schema
            n_constants: 3,
            n_nulls: 3,
            null_pct: 35,
        },
    );
    let head_arity = rng.below(3) as usize;
    let params = QueryParams {
        n_disjuncts: 1 + rng.below(2) as usize,
        n_atoms: 1 + rng.below(3) as usize,
        n_vars: 4,
        arity: 0,
        n_constants: 3,
        const_pct: 25,
    };
    let q = random_ucq_over(&mut rng, &schema, head_arity, params);
    (schema, db, q)
}

proptest! {
    /// The headline invariant: the engine's UCQ answer table equals the
    /// reference evaluator's, row for row (both are BTreeSets, so equality
    /// is order-insensitive but content-exact, nulls included).
    #[test]
    fn engine_tables_agree_with_reference(seed in any::<u64>()) {
        let (_, db, q) = instance(seed);
        prop_assert_eq!(
            engine::eval_ucq(&q, &db).expect("generated over the schema"),
            reference::eval_ucq(&q, &db),
            "on {:?} over {:?}", &q, &db
        );
    }

    /// Boolean evaluation (early-exit path) agrees with the reference.
    #[test]
    fn engine_bools_agree_with_reference(seed in any::<u64>()) {
        let (_, db, q) = instance(seed);
        // Rebuild as a Boolean query: drop the heads.
        let bq = UnionQuery::new(
            q.disjuncts
                .iter()
                .map(|d| ConjunctiveQuery::boolean(d.atoms.clone()))
                .collect(),
        );
        prop_assert_eq!(
            engine::eval_ucq_bool(&bq, &db).expect("generated over the schema"),
            reference::eval_ucq_bool(&bq, &db)
        );
    }

    /// Per-disjunct agreement too (exercises the CQ entry point and the
    /// head-projection machinery disjunct by disjunct).
    ///
    /// The bound-head probe agrees too: over every row of the active
    /// domain at the head's arity, it finds exactly the reference answer
    /// rows, and it rejects a row of a value the database never holds.
    #[test]
    fn engine_cqs_agree_with_reference(seed in any::<u64>()) {
        let (_, db, q) = instance(seed);
        let mut idx = engine::DbIndex::new(&db);
        let adom: BTreeSet<Value> = db.values().collect();
        for d in &q.disjuncts {
            let answers = reference::eval_cq(d, &db);
            prop_assert_eq!(
                &engine::eval_cq(d, &db).expect("generated over the schema"),
                &answers
            );
            let probe = engine::RowProbe::compile_lenient(&UnionQuery::single(d.clone()), &db.schema);
            let mut rows: Vec<Vec<Value>> = vec![vec![]];
            for _ in &d.head {
                rows = rows
                    .iter()
                    .flat_map(|r| adom.iter().map(move |&v| [r.as_slice(), &[v]].concat()))
                    .collect();
            }
            for row in &rows {
                prop_assert_eq!(probe.has_row(&mut idx, row), answers.contains(row), "{:?}", row);
            }
            if !d.head.is_empty() {
                let absent = vec![Value::Const(987_654); d.head.len()];
                prop_assert!(!probe.has_row(&mut idx, &absent));
            }
        }
    }

    /// The certain-answer sweep agrees with the reference oracle: its
    /// table is the intersection of reference answers over every
    /// materialized completion into the adequate pool, and the Boolean
    /// driver agrees with the table for Boolean queries. (Kept to modest
    /// null counts so the |pool|^#nulls sweep stays small.)
    #[test]
    fn sweep_is_thread_count_invariant(seed in any::<u64>()) {
        let mut rng = Rng::new(seed ^ 0x5eed);
        let schema = random_schema(&mut rng, 2, 2);
        let db = random_naive_db_over(
            &mut rng,
            &schema,
            DbParams { n_facts: 4, arity: 0, n_constants: 2, n_nulls: 2, null_pct: 40 },
        );
        let head_arity = rng.below(2) as usize;
        let q = random_ucq_over(
            &mut rng,
            &schema,
            head_arity,
            QueryParams {
                n_disjuncts: 2,
                n_atoms: 2,
                n_vars: 3,
                arity: 0,
                n_constants: 2,
                const_pct: 25,
            },
        );
        let pool = adequate_pool(&db, &ucq_constants(&q));
        let oracle = db
            .completions_over(&pool)
            .iter()
            .map(|r| reference::eval_ucq(&q, r))
            .reduce(|acc, ans| acc.intersection(&ans).cloned().collect())
            .unwrap_or_default();
        prop_assert_eq!(certain_table(&q, &db), oracle, "certain_table disagrees with the oracle");
        // Boolean driver: consistent with the table of the Boolean form.
        let bq = UnionQuery::new(
            q.disjuncts.iter().map(|d| ConjunctiveQuery::boolean(d.atoms.clone())).collect(),
        );
        prop_assert_eq!(certain_answer_bool(&bq, &db), !certain_table(&bq, &db).is_empty());
    }

    /// The sweeps restrict `D` to the relations the query names. On
    /// databases padded with facts (and nulls) over relations the query
    /// never names, the restricted drivers must equal the unrestricted
    /// sweep over the whole database's adequate pool, and the table must
    /// also equal the materialized-completion oracle.
    #[test]
    fn restricted_sweep_matches_the_whole_database(seed in any::<u64>()) {
        let mut rng = Rng::new(seed ^ 0x9add);
        // R0, R1 may appear in the query; R2, R3 are padding only.
        let full = random_schema(&mut rng, 4, 2);
        let named: Vec<(&str, usize)> = full
            .symbols()
            .take(2)
            .map(|r| (full.name(r), full.arity(r)))
            .collect();
        let query_schema = Schema::from_relations(&named);
        let db = random_naive_db_over(
            &mut rng,
            &full,
            DbParams { n_facts: 6, arity: 0, n_constants: 2, n_nulls: 3, null_pct: 40 },
        );
        let head_arity = rng.below(2) as usize;
        let q = random_ucq_over(
            &mut rng,
            &query_schema,
            head_arity,
            QueryParams {
                n_disjuncts: 2,
                n_atoms: 2,
                n_vars: 3,
                arity: 0,
                n_constants: 2,
                const_pct: 25,
            },
        );
        let pool = adequate_pool(&db, &ucq_constants(&q));
        let plan = CompiledUcq::compile_lenient(&q, &db.schema);
        let table = certain_table(&q, &db);
        prop_assert_eq!(
            &table,
            &engine::certain_table_over(&plan, &db, &pool),
            "restricted table differs from the whole-database sweep on {:?} over {:?}", &q, &db
        );
        let oracle = db
            .completions_over(&pool)
            .iter()
            .map(|r| reference::eval_ucq(&q, r))
            .reduce(|acc, ans| acc.intersection(&ans).cloned().collect())
            .unwrap_or_default();
        prop_assert_eq!(&table, &oracle, "restricted table disagrees with the oracle");
        let bq = certify::boolean_form(&q);
        let bplan = CompiledUcq::compile_lenient(&bq, &db.schema);
        prop_assert_eq!(
            certain_answer_bool(&bq, &db),
            engine::certain_bool_over(&bplan, &db, &pool),
            "restricted Boolean differs from the whole-database sweep on {:?} over {:?}", &bq, &db
        );
    }

    /// Certificate round-trip: every verdict the certified drivers emit
    /// must replay through the engine-blind checker — engine, reference,
    /// and certificate all agree. Every match certificate is the
    /// reference's least body assignment for its row, so its bytes do not
    /// depend on how the engine finds matches, and every null-holding row
    /// of the naïve table is refuted. (Same small instances as the sweep
    /// invariant so the |pool|^#nulls grid stays cheap.)
    #[test]
    fn certified_verdicts_round_trip(seed in any::<u64>()) {
        use ca_cert::{check_certain_row, check_non_certain, CertainVerdictCert};

        let mut rng = Rng::new(seed ^ 0xce47);
        let schema = random_schema(&mut rng, 2, 2);
        let db = random_naive_db_over(
            &mut rng,
            &schema,
            DbParams { n_facts: 4, arity: 0, n_constants: 2, n_nulls: 2, null_pct: 40 },
        );
        let head_arity = rng.below(2) as usize;
        let q = random_ucq_over(
            &mut rng,
            &schema,
            head_arity,
            QueryParams {
                n_disjuncts: 2,
                n_atoms: 2,
                n_vars: 3,
                arity: 0,
                n_constants: 2,
                const_pct: 25,
            },
        );
        let facts = certify::db_facts(&db);

        // Boolean verdict: agrees with the uncertified driver, and the
        // certificate (either polarity) passes the checker.
        let (verdict, cert) = certify::certain_bool_certified(&q, &db);
        prop_assert_eq!(verdict, certain_answer_bool(&q, &db));
        let bq = certify::cert_query(&certify::boolean_form(&q));
        match cert {
            Some(CertainVerdictCert::Certain(m)) => {
                prop_assert!(verdict, "certain cert on a non-certain verdict");
                prop_assert_eq!(check_certain_row(&bq, &facts, &m), Ok(()));
                prop_assert_eq!(Some(m), reference_match(&certify::boolean_form(&q), &db, &[]));
            }
            Some(CertainVerdictCert::NonCertain(nc)) => {
                prop_assert!(!verdict, "non-certain cert on a certain verdict");
                prop_assert_eq!(check_non_certain(&bq, &facts, &nc), Ok(()));
            }
            None => prop_assert!(
                db.nulls().is_empty() || !verdict,
                "cert withheld outside the vacuous corner"
            ),
        }

        // Table: agrees with the uncertified driver, every row carries a
        // checkable naïve match, and a fabricated non-row is refutable
        // with a checkable completion.
        let (table, certs) = certify::certain_table_certified(&q, &db);
        prop_assert_eq!(&table, &certain_table(&q, &db));
        prop_assert_eq!(certs.len(), table.len(), "uncertified certain row");
        let cq = certify::cert_query(&q);
        for (row, m) in &certs {
            prop_assert!(table.contains(row));
            prop_assert_eq!(check_certain_row(&cq, &facts, m), Ok(()));
            prop_assert_eq!(Some(m), reference_match(&q, &db, row).as_ref());
        }
        let naive = engine::eval_ucq(&q, &db).expect("generated over the schema");
        for row in naive.iter().filter(|row| row.iter().any(|v| v.is_null())) {
            let nc = certify::refute_row(&q, &db, row)
                .expect("a row holding a null is not certain");
            prop_assert_eq!(check_non_certain(&cq, &facts, &nc), Ok(()));
        }
        let bogus = vec![Value::Const(987_654); q.head_arity()];
        if !table.contains(&bogus) && !db.nulls().is_empty() {
            let nc = certify::refute_row(&q, &db, &bogus)
                .expect("a non-certain row must have a falsifying completion");
            prop_assert_eq!(check_non_certain(&cq, &facts, &nc), Ok(()));
        }
    }

    /// Lenient compilation matches the reference evaluator even when the
    /// query mentions relations outside the schema: the broken disjunct
    /// contributes nothing, the others still answer.
    #[test]
    fn lenient_path_agrees_on_broken_queries(seed in any::<u64>()) {
        let (schema, db, q) = instance(seed);
        // Inject a disjunct over an unknown relation, same head arity.
        let head_arity = q.head_arity();
        let broken = ConjunctiveQuery::with_head(
            vec![0; head_arity],
            vec![Atom::new("NO_SUCH_REL", vec![Term::Var(0)])],
        );
        let mut disjuncts = q.disjuncts.clone();
        disjuncts.push(broken);
        let mixed = UnionQuery::new(disjuncts);
        // Strict compilation refuses...
        prop_assert!(CompiledUcq::compile(&mixed, &schema).is_err());
        // ...while the legacy entry point (lenient) matches the reference.
        prop_assert_eq!(
            ca_query::eval::eval_ucq(&mixed, &db),
            reference::eval_ucq(&mixed, &db)
        );
    }
}

/// A duplicate-heavy instance. The lead relation `L(a, b, k)` has 1100–
/// 1299 rows, far past the posting-table threshold, so joins into it
/// probe built postings; its key column `k` is unique, while `a` and `b` draw from four
/// constants and two nulls, so a head that drops `k` sees each distinct
/// row many times. Small relations `S(b, c)` and `T(c)` join on; one
/// template self-joins `S` on a variable the head drops before it reaches
/// `L`, so the engine skips whole repeated subtrees. The UCQ has 2–3
/// distinct disjuncts over `L`, whose answers overlap (every one projects
/// `L`'s columns), and a head arity of 0–3.
fn duplicate_heavy(seed: u64) -> (NaiveDatabase, UnionQuery) {
    use ca_relational::database::build::{c, n};
    use Term::Var as V;
    let mut rng = Rng::new(seed ^ 0xd0b1);
    let schema = Schema::from_relations(&[("L", 3), ("S", 2), ("T", 1)]);
    let mut db = NaiveDatabase::new(schema);
    let few = |rng: &mut Rng| match rng.below(6) {
        v @ 0..=3 => c(v as i64),
        v => n(v as u32),
    };
    for k in 0..1100 + rng.below(200) as i64 {
        let (a, b) = (few(&mut rng), few(&mut rng));
        db.add("L", vec![a, b, c(100 + k)]);
    }
    for _ in 0..12 {
        let (b, cc) = (few(&mut rng), few(&mut rng));
        db.add("S", vec![b, cc]);
    }
    for _ in 0..3 {
        let cc = few(&mut rng);
        db.add("T", vec![cc]);
    }
    // Variables: 0 = a, 1 = b, 2 = k, 3 = c, 4 = a2. Each template lists
    // the variables a head may use.
    let (a, b, k, cv, a2) = (V(0), V(1), V(2), V(3), V(4));
    let templates: [(Vec<Atom>, &[u32]); 6] = [
        (
            vec![
                Atom::new("L", vec![a, b, k]),
                Atom::new("S", vec![b, cv]),
                Atom::new("T", vec![cv]),
            ],
            &[0, 1, 3],
        ),
        (
            vec![Atom::new("L", vec![a, b, k]), Atom::new("S", vec![b, cv])],
            &[0, 1, 3],
        ),
        (
            vec![Atom::new("L", vec![a, b, k]), Atom::new("T", vec![b])],
            &[0, 1],
        ),
        (vec![Atom::new("L", vec![a, a, k])], &[0]),
        (
            vec![Atom::new("L", vec![a, b, k]), Atom::new("S", vec![a, cv])],
            &[0, 1, 3],
        ),
        // `MATES`-shaped: a self-join on `b` that the head drops, then
        // the lead relation, so each `(a, a2)` reached through several
        // `b` repeats a subtree of about 200 `L` rows. The self-join is
        // over `S`: the reference evaluator rescans a relation per
        // partial match, and over `L` it would rescan 1100+ rows some
        // 1100 times per case.
        (
            vec![
                Atom::new("S", vec![a, b]),
                Atom::new("S", vec![a2, b]),
                Atom::new("L", vec![a2, cv, k]),
            ],
            &[0, 3],
        ),
    ];
    let head_arity = rng.below(4) as usize;
    let mut picked: Vec<usize> = (0..templates.len()).collect();
    let n_disjuncts = 2 + rng.below(2) as usize;
    let mut disjuncts = Vec::with_capacity(n_disjuncts);
    for _ in 0..n_disjuncts {
        let (atoms, vars) = &templates[picked.swap_remove(rng.below(picked.len() as u64) as usize)];
        let head = (0..head_arity)
            .map(|_| vars[rng.below(vars.len() as u64) as usize])
            .collect();
        disjuncts.push(ConjunctiveQuery::with_head(head, atoms.clone()));
    }
    (db, UnionQuery::new(disjuncts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On duplicate-heavy instances the engine's deduplicated answer
    /// sets — through the cost-based and the greedy plans, the UCQ and
    /// the per-disjunct entry points — equal the reference evaluator's.
    #[test]
    fn duplicate_heavy_tables_agree_with_reference(seed in any::<u64>()) {
        let (db, q) = duplicate_heavy(seed);
        let oracle = reference::eval_ucq(&q, &db);
        prop_assert_eq!(&engine::eval_ucq(&q, &db).expect("fits the schema"), &oracle);
        let greedy = CompiledUcq::compile(&q, &db.schema).expect("fits the schema");
        prop_assert_eq!(
            &engine::eval_ucq_on(&greedy, &mut engine::DbIndex::new(&db)),
            &oracle
        );
        for d in &q.disjuncts {
            prop_assert_eq!(
                engine::eval_cq(d, &db).expect("fits the schema"),
                reference::eval_cq(d, &db)
            );
        }
        prop_assert_eq!(
            engine::eval_ucq_bool(&certify::boolean_form(&q), &db).expect("fits the schema"),
            !oracle.is_empty()
        );
    }
}
