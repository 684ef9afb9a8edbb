//! Property-based tests inside the relational crate: homomorphism
//! verification, glb laws with the fresh-null discipline, parsing
//! round-trips, and the Codd/CWA algorithms.

use proptest::prelude::*;

use std::collections::BTreeSet;

use ca_core::preorder::Preorder;
use ca_core::symbol::Symbol;
use ca_core::value::{Null, Value};
use ca_relational::database::{Fact, NaiveDatabase, Valuation};
use ca_relational::generate::{random_codd_db, random_naive_db, DbParams, Rng};
use ca_relational::glb::glb_databases;
use ca_relational::hom::{find_hom, is_hom};
use ca_relational::ordering::InfoOrder;
use ca_relational::parse::parse_database;
use ca_relational::schema::Schema;
use ca_relational::tuplewise::{cwa_leq_codd, hoare_leq};

fn arb_db() -> impl Strategy<Value = NaiveDatabase> {
    any::<u64>().prop_map(|seed| {
        random_naive_db(
            &mut Rng::new(seed),
            DbParams {
                n_facts: 4,
                arity: 2,
                n_constants: 3,
                n_nulls: 2,
                null_pct: 40,
            },
        )
    })
}

fn arb_codd() -> impl Strategy<Value = NaiveDatabase> {
    any::<u64>().prop_map(|seed| random_codd_db(&mut Rng::new(seed), 3, 2, 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn found_homs_verify(a in arb_db(), b in arb_db()) {
        if let Some(h) = find_hom(&a, &b) {
            prop_assert!(is_hom(&a, &b, &h));
        }
    }

    /// The glb's projection homomorphisms exist in both directions of the
    /// construction (lower bound), and the glb of `a` with itself is
    /// equivalent to `a`.
    #[test]
    fn glb_self_is_identity_up_to_equivalence(a in arb_db()) {
        let meet = glb_databases(&a, &a);
        prop_assert!(InfoOrder.leq(&meet, &a));
        prop_assert!(InfoOrder.leq(&a, &meet));
    }

    /// Monotonicity of glb: if a ⊑ a′ then a ∧ b ⊑ a′ ∧ b.
    #[test]
    fn glb_is_monotone(a in arb_db(), b in arb_db()) {
        let (a_grounded, _) = a.freeze(&BTreeSet::new());
        let m1 = glb_databases(&a, &b);
        let m2 = glb_databases(&a_grounded, &b);
        prop_assert!(InfoOrder.leq(&m1, &m2));
    }

    /// Proposition 4 and Proposition 8 as properties (Codd pairs).
    #[test]
    fn codd_orderings(a in arb_codd(), b in arb_codd()) {
        prop_assert_eq!(InfoOrder.leq(&a, &b), hoare_leq(&a, &b));
        // Prop 8 implies ⊑_cwa ⇒ ⊑ (an onto hom is a hom).
        if cwa_leq_codd(&a, &b) {
            prop_assert!(InfoOrder.leq(&a, &b));
        }
    }

    /// Print-and-reparse round trip: rendering a database in the text
    /// syntax and parsing it back yields an isomorphic instance (equal up
    /// to null renaming — we check hom-equivalence plus size).
    #[test]
    fn parse_roundtrip(a in arb_db()) {
        let mut text = String::new();
        for f in a.facts() {
            text.push_str(a.schema.name(f.rel));
            text.push('(');
            for (i, v) in f.args.iter().enumerate() {
                if i > 0 {
                    text.push(',');
                }
                match v {
                    Value::Const(c) => text.push_str(&c.to_string()),
                    Value::Null(n) => text.push_str(&format!("?n{}", n.0)),
                }
            }
            text.push_str(")\n");
        }
        if a.is_empty() {
            return Ok(()); // the empty text parses to an empty schema
        }
        let parsed = parse_database(&text).unwrap();
        prop_assert_eq!(parsed.len(), a.len());
        prop_assert!(find_hom(&a, &parsed).is_some());
        prop_assert!(find_hom(&parsed, &a).is_some());
    }

    /// Completions are models: every completion over a pool is in [[D]].
    #[test]
    fn completions_are_members(a in arb_codd()) {
        for r in a.completions_over(&[0, 1]) {
            prop_assert!(ca_relational::hom::in_semantics(&r, &a));
        }
    }
}

/// The set model of a database: its facts as owned `(relation, tuple)`
/// pairs, in fact order.
type Model = BTreeSet<(Symbol, Vec<Value>)>;

fn model_of(db: &NaiveDatabase) -> Model {
    db.facts().map(|f| (f.rel, f.args.to_vec())).collect()
}

/// Owned rows as borrowed facts, for [`NaiveDatabase::from_facts`].
fn as_facts(rows: &[(Symbol, Vec<Value>)]) -> impl Iterator<Item = Fact<'_>> + Clone {
    rows.iter().map(|(rel, args)| Fact { rel: *rel, args })
}

/// `R/2, S/1, T/0`: a 0-ary relation's one possible row takes no values.
fn schema() -> Schema {
    Schema::from_relations(&[("R", 2), ("S", 1), ("T", 0)])
}

/// Rows over [`schema`] with small constants and nulls, half of them
/// repeated, in shuffled order.
fn arb_rows() -> impl Strategy<Value = Vec<(Symbol, Vec<Value>)>> {
    let value = prop_oneof![
        (0i64..3).prop_map(Value::Const),
        (1u32..3).prop_map(Value::null)
    ];
    let row = (0u32..3, prop::collection::vec(value, 2..=2));
    (prop::collection::vec(row, 0..24), any::<u64>()).prop_map(|(rows, seed)| {
        let schema = schema();
        let mut rows: Vec<(Symbol, Vec<Value>)> = rows
            .into_iter()
            .map(|(rel, mut args)| {
                let rel = Symbol(rel);
                args.truncate(schema.arity(rel));
                (rel, args)
            })
            .collect();
        rows.extend(rows[..rows.len() / 2].to_vec());
        let mut rng = Rng::new(seed);
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.below(i as u64 + 1) as usize);
        }
        rows
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bulk construction (one sort, one dedup per relation) builds the
    /// same database as folding `add_fact` over the same facts, whatever
    /// their order and duplicates; `relation` returns exactly each
    /// relation's facts.
    #[test]
    fn from_facts_matches_add_fact_fold(rows in arb_rows()) {
        let schema = schema();
        let mut folded = NaiveDatabase::new(schema.clone());
        for f in as_facts(&rows) {
            folded.add_fact(f.rel, f.args);
        }
        let bulk = NaiveDatabase::from_facts(schema.clone(), as_facts(&rows));
        prop_assert!(bulk.facts().eq(folded.facts()));
        prop_assert_eq!(&bulk, &folded);
        for rel in schema.symbols() {
            let filtered: Vec<Fact> = bulk.facts().filter(|f| f.rel == rel).collect();
            prop_assert_eq!(bulk.relation(rel).collect::<Vec<_>>(), filtered);
        }
    }

    /// The flat database behaves as its set model under every operation:
    /// `add` and `add_fact`, bulk construction from shuffled input with
    /// duplicates, `contains`, `relation`, `facts()` order, `apply`,
    /// `union` (from a schema declaring its relations in another order)
    /// and `==`.
    #[test]
    fn flat_database_matches_the_set_model(xs in arb_rows(), ys in arb_rows(), pick in any::<u64>()) {
        let schema = schema();
        let mut a = NaiveDatabase::new(schema.clone());
        let mut model = Model::new();
        for (i, (rel, args)) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.add(schema.name(*rel), args.clone());
            } else {
                a.add_fact(*rel, args);
            }
            model.insert((*rel, args.clone()));
            prop_assert_eq!(a.len(), model.len());
        }
        prop_assert_eq!(model_of(&a), model.clone());
        prop_assert!(a.facts().map(|f| (f.rel, f.args.to_vec())).eq(model.iter().cloned()));
        for rel in schema.symbols() {
            let rows = a.relation(rel);
            prop_assert_eq!(rows.len(), model.iter().filter(|(r, _)| *r == rel).count());
            prop_assert!(rows
                .map(|f| (f.rel, f.args.to_vec()))
                .eq(model.iter().filter(|(r, _)| *r == rel).cloned()));
        }
        for (rel, args) in xs.iter().chain(&ys) {
            prop_assert_eq!(a.contains(*rel, args), model.contains(&(*rel, args.clone())));
        }

        // Bulk construction from the shuffled, duplicated rows.
        let b = NaiveDatabase::from_facts(schema.clone(), as_facts(&ys));
        let b_model: Model = ys.iter().cloned().collect();
        prop_assert_eq!(model_of(&b), b_model.clone());
        prop_assert_eq!(a == b, model == b_model);
        prop_assert_eq!(&NaiveDatabase::from_facts(schema.clone(), as_facts(&xs)), &a);

        // A valuation sends ⊥1 to a constant and ⊥2 to ⊥1 or to a
        // constant, so rows may merge.
        let h = Valuation::from_pairs([
            (Null(1), Value::Const((pick % 3) as i64)),
            (Null(2), if pick & 4 == 0 { Value::null(1) } else { Value::Const(0) }),
        ]);
        let applied: Model = model
            .iter()
            .map(|(rel, args)| (*rel, h.apply_tuple(args)))
            .collect();
        prop_assert_eq!(model_of(&a.apply(&h)), applied);

        // Union with a database over the same relations declared in
        // another order: facts are matched by relation name.
        let other_schema = Schema::from_relations(&[("T", 0), ("S", 1), ("R", 2)]);
        let to_other = |rel: Symbol| other_schema.relation(schema.name(rel)).unwrap();
        let theirs: Vec<(Symbol, Vec<Value>)> =
            ys.iter().map(|(rel, args)| (to_other(*rel), args.clone())).collect();
        let c = NaiveDatabase::from_facts(other_schema.clone(), as_facts(&theirs));
        let mut union = model.clone();
        union.extend(b_model);
        prop_assert_eq!(model_of(&a.union(&c)), union);
    }
}

/// Deterministic regression: schema compatibility is reflexive/symmetric
/// on generated schemas.
#[test]
fn schema_compat_laws() {
    let schemas = [
        Schema::from_relations(&[("R", 2)]),
        Schema::from_relations(&[("R", 2), ("S", 1)]),
        Schema::from_relations(&[("S", 1), ("R", 2)]),
    ];
    for a in &schemas {
        assert!(a.compatible_with(a));
    }
    assert!(schemas[1].compatible_with(&schemas[2]));
    assert!(schemas[2].compatible_with(&schemas[1]));
    assert!(!schemas[0].compatible_with(&schemas[1]));
}
