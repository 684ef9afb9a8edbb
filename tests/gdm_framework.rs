//! The Section 3 framework instantiated on *generalized databases* — the
//! abstract theory holds uniformly across data models, which is the
//! paper's point. We enumerate a small closed fragment of XML-like
//! generalized databases and run the same exhaustive checks that
//! `ca-core` runs for naive tables.

use ca_core::complete::{CompleteFiniteDomain, CompleteObjects};
use ca_core::domain::FiniteDomain;
use ca_core::preorder::Preorder;
use ca_core::value::Value;
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_leq;
use ca_gdm::schema::GenSchema;

/// The information ordering on generalized databases as a `ca-core`
/// preorder with complete objects.
#[derive(Clone, Copy)]
struct GdmOrder;

impl Preorder for GdmOrder {
    type Object = GenDb;
    fn leq(&self, x: &GenDb, y: &GenDb) -> bool {
        gdm_leq(x, y)
    }
}

impl CompleteObjects for GdmOrder {
    fn is_complete(&self, x: &GenDb) -> bool {
        x.is_complete()
    }
    fn pi_cpl(&self, x: &GenDb) -> GenDb {
        // The greatest complete object below an XML-like instance: ground
        // every null? No — that *changes* information. For the node-set
        // model used here (no structural tuples), dropping null-carrying
        // nodes is the exact analog of dropping null rows.
        let mut out = GenDb::new(x.schema.clone());
        for (label, data) in x.nodes() {
            if data.iter().all(|v| v.is_const()) {
                out.push_node(label, data);
            }
        }
        out
    }
}

fn schema() -> GenSchema {
    GenSchema::from_parts(&[("item", 1)], &[])
}

/// All subsets of {item(1), item(2), item(⊥1), item(⊥2)} — the σ = ∅
/// (relational-like) fragment of the generalized model.
fn universe() -> Vec<GenDb> {
    let atoms = [
        Value::Const(1),
        Value::Const(2),
        Value::null(1),
        Value::null(2),
    ];
    (0u32..16)
        .map(|mask| {
            let mut db = GenDb::new(schema());
            for (i, &a) in atoms.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    db.add_node("item", vec![a]);
                }
            }
            db
        })
        .collect()
}

#[test]
fn preorder_axioms_hold() {
    let dom = FiniteDomain::new(GdmOrder, universe());
    assert!(dom.check_reflexive());
    assert!(dom.check_transitive());
}

#[test]
fn complete_object_axioms_hold() {
    let dom = CompleteFiniteDomain::new(FiniteDomain::new(GdmOrder, universe()));
    assert_eq!(dom.check_axioms(), Vec::<u8>::new());
    assert!(dom.check_lemma2());
}

#[test]
fn theorem1_on_generalized_databases() {
    let dom = FiniteDomain::new(GdmOrder, universe());
    let objects = universe();
    // Exhaustive over a sample of 2-element subsets.
    for i in (0..objects.len()).step_by(3) {
        for j in (i..objects.len()).step_by(5) {
            let xs = vec![objects[i].clone(), objects[j].clone()];
            let glb = dom.glb_class(&xs);
            for (k, m) in dom.objects.iter().enumerate() {
                assert_eq!(
                    dom.is_max_description(m, &xs),
                    glb.contains(&k),
                    "Theorem 1 fails on generalized databases at ({i},{j},{k})"
                );
            }
        }
    }
}

#[test]
fn corollary1_on_generalized_databases() {
    let dom = FiniteDomain::new(GdmOrder, universe());
    // Monotone query within the fragment: add the complete node item(1).
    let q = |x: &GenDb| {
        let mut out = x.clone();
        if !out.nodes().any(|(_, t)| t == [Value::Const(1)]) {
            out.add_node("item", vec![Value::Const(1)]);
        }
        out
    };
    assert!(dom.is_monotone(q));
    for x in &dom.objects {
        let up: Vec<GenDb> = dom
            .up(x)
            .into_iter()
            .map(|i| dom.objects[i].clone())
            .collect();
        let class = dom.certain_answer_class(q, &up);
        assert!(
            class.iter().any(|m| gdm_leq(m, &q(x)) && gdm_leq(&q(x), m)),
            "Corollary 1 fails at {x:?}"
        );
    }
}

#[test]
fn naive_evaluation_for_monotone_complete_valued_queries() {
    let dom = CompleteFiniteDomain::new(FiniteDomain::new(GdmOrder, universe()));
    // π_cpl composed with "add item(2)": monotone, complete-valued.
    let q = |x: &GenDb| {
        let mut out = GdmOrder.pi_cpl(x);
        if !out.nodes().any(|(_, t)| t == [Value::Const(2)]) {
            out.add_node("item", vec![Value::Const(2)]);
        }
        out
    };
    assert!(dom.domain.is_monotone(q));
    if dom.has_complete_saturation(&q) {
        for x in &dom.domain.objects {
            assert!(dom.naive_evaluation_correct_at(&q, x));
        }
    }
}
