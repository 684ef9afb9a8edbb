//! Property-based tests for the generalized data model: ordering laws,
//! glb laws, Theorem 6 agreement, and evaluation-path agreement.

use proptest::prelude::*;

use ca_gdm::database::GenDb;
use ca_gdm::deq::eval_via_deq;
use ca_gdm::encode::{encode_relational, relational_view};
use ca_gdm::generate::{random_tree_gendb, tree_schema, TreeGenParams};
use ca_gdm::glb::glb_sigma;
use ca_gdm::hom::{find_gdm_hom, gdm_leq, is_gdm_hom};
use ca_gdm::logic::{eval_gfo, GFo};
use ca_gdm::membership::leq_codd_treewidth;
use ca_relational::database::NaiveDatabase;
use ca_relational::generate::{random_naive_db_over, DbParams, Rng};
use ca_relational::schema::Schema;

fn tree_params(codd: bool) -> TreeGenParams {
    TreeGenParams {
        n_nodes: 5,
        n_labels: 2,
        max_data_arity: 1,
        n_constants: 2,
        null_pct: 50,
        codd,
    }
}

fn arb_tree_db(codd: bool) -> impl Strategy<Value = GenDb> {
    any::<u64>().prop_map(move |seed| random_tree_gendb(&mut Rng::new(seed), tree_params(codd)))
}

/// A random multi-relation naïve database and a shuffled node order over
/// its facts that repeats half of them.
fn arb_db_and_node_order() -> impl Strategy<Value = (NaiveDatabase, Vec<usize>)> {
    any::<u64>().prop_map(|seed| {
        let mut rng = Rng::new(seed);
        let schema = Schema::from_relations(&[("R", 2), ("S", 1), ("T", 3)]);
        let params = DbParams {
            n_facts: 12,
            arity: 0,
            n_constants: 3,
            n_nulls: 3,
            null_pct: 40,
        };
        let db = random_naive_db_over(&mut rng, &schema, params);
        let n = db.len();
        let mut order: Vec<usize> = (0..n).chain(0..n / 2).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        (db, order)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ordering_reflexive(d in arb_tree_db(false)) {
        prop_assert!(gdm_leq(&d, &d));
    }

    #[test]
    fn found_homs_verify(a in arb_tree_db(false), b in arb_tree_db(false)) {
        if let Some(h) = find_gdm_hom(&a, &b) {
            prop_assert!(is_gdm_hom(&a, &b, &h));
        }
    }

    #[test]
    fn glb_sigma_is_lower_bound(a in arb_tree_db(false), b in arb_tree_db(false)) {
        let meet = glb_sigma(&a, &b);
        prop_assert!(gdm_leq(&meet, &a));
        prop_assert!(gdm_leq(&meet, &b));
    }

    /// Theorem 6 (the DP) and the general CSP agree on Codd trees.
    #[test]
    fn theorem6_agreement(a in arb_tree_db(true), seed in any::<u64>()) {
        let doc = random_tree_gendb(&mut Rng::new(seed), TreeGenParams {
            n_nodes: 7,
            null_pct: 0,
            ..tree_params(true)
        });
        let (fast, width) = leq_codd_treewidth(&a, &doc).expect("Codd instance");
        prop_assert!(width <= 1);
        prop_assert_eq!(fast, gdm_leq(&a, &doc));
    }

    /// The direct FO(S,∼) evaluator and the materialized D_EQ path agree
    /// on a fixed battery of sentences over random instances.
    #[test]
    fn evaluation_paths_agree(d in arb_tree_db(false)) {
        let phis = [
            GFo::exists(0, GFo::exists(1, GFo::Rel("child".into(), vec![0, 1]))),
            GFo::forall(0, GFo::Label("l0".into(), 0)),
            GFo::exists(0, GFo::exists(1, GFo::And(vec![
                GFo::NodeEq(0, 1).not(),
                GFo::AttrEq { i: 0, j: 0, x: 0, y: 1 },
            ]))),
            GFo::exists(0, GFo::Rel("child".into(), vec![0, 0])),
        ];
        for phi in &phis {
            prop_assert_eq!(eval_gfo(phi, &d), eval_via_deq(phi, &d));
        }
    }

    /// Grounding nulls moves a generalized database up the ordering.
    #[test]
    fn grounding_increases_information(d in arb_tree_db(false)) {
        let grounded = d.map_values(|v| match v {
            ca_core::value::Value::Null(n) => ca_core::value::Value::Const(500 + n.0 as i64),
            c => c,
        });
        prop_assert!(gdm_leq(&d, &grounded));
        prop_assert!(grounded.is_complete());
    }

    /// The single-root instance is a lower bound of every tree instance.
    #[test]
    fn bare_root_is_bottom(d in arb_tree_db(false)) {
        let schema = tree_schema(&tree_params(false));
        let mut bottom = GenDb::new(schema);
        bottom.add_node("l0", vec![ca_core::value::Value::null(999)]);
        prop_assert!(gdm_leq(&bottom, &d));
    }

    /// The relational view of a `σ = ∅` database does not depend on the
    /// order of its nodes (nor on repeated nodes): it is the fact set.
    #[test]
    fn relational_view_ignores_node_order(case in arb_db_and_node_order()) {
        let (db, order) = case;
        let enc = encode_relational(&db);
        let mut shuffled = GenDb::new(enc.schema.clone());
        for &i in &order {
            shuffled.push_node(enc.labels()[i], enc.node(i));
        }
        prop_assert_eq!(relational_view(&shuffled), Some(db));
    }
}
