//! Property-based tests inside the relational crate: homomorphism
//! verification, glb laws with the fresh-null discipline, parsing
//! round-trips, and the Codd/CWA algorithms.

use proptest::prelude::*;

use ca_core::preorder::Preorder;
use ca_core::value::Value;
use ca_relational::database::{Fact, NaiveDatabase};
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
        let (a_grounded, _) = a.freeze(&std::collections::BTreeSet::new());
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

/// A fact list over `R/2, S/1` with small constants and nulls, half of it
/// repeated, in shuffled order.
fn arb_fact_list() -> impl Strategy<Value = (Schema, Vec<Fact>)> {
    let value = prop_oneof![
        (0i64..3).prop_map(Value::Const),
        (1u32..3).prop_map(Value::null)
    ];
    let row = (any::<bool>(), prop::collection::vec(value, 2..=2));
    (prop::collection::vec(row, 0..24), any::<u64>()).prop_map(|(rows, seed)| {
        let schema = Schema::from_relations(&[("R", 2), ("S", 1)]);
        let (r, s) = (schema.relation("R").unwrap(), schema.relation("S").unwrap());
        let mut facts: Vec<Fact> = rows
            .into_iter()
            .map(|(is_r, mut args)| {
                let rel = if is_r { r } else { s };
                args.truncate(schema.arity(rel));
                Fact { rel, args }
            })
            .collect();
        facts.extend(facts[..facts.len() / 2].to_vec());
        let mut rng = Rng::new(seed);
        for i in (1..facts.len()).rev() {
            facts.swap(i, rng.below(i as u64 + 1) as usize);
        }
        (schema, facts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bulk construction (one sort, one dedup) builds the same database
    /// as folding `add_fact` over the same facts, whatever their order
    /// and duplicates; `relation` returns exactly each relation's facts.
    #[test]
    fn from_facts_matches_add_fact_fold(case in arb_fact_list()) {
        let (schema, facts) = case;
        let mut folded = NaiveDatabase::new(schema.clone());
        for f in &facts {
            folded.add_fact(f.rel, f.args.clone());
        }
        let bulk = NaiveDatabase::from_facts(schema.clone(), facts);
        prop_assert_eq!(bulk.facts(), folded.facts());
        prop_assert_eq!(&bulk, &folded);
        for rel in schema.symbols() {
            let filtered: Vec<&Fact> = bulk.facts().iter().filter(|f| f.rel == rel).collect();
            prop_assert_eq!(bulk.relation(rel).iter().collect::<Vec<_>>(), filtered);
        }
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
