//! Data exchange: materializing a target instance under a schema mapping,
//! and why universal solutions are least upper bounds (Theorem 5).
//!
//! Scenario: migrate an HR source `emp(name, dept, salary)` into a target
//! with `works_in(name, dept_id)` and `dept(dept_id, dept_name)` — the
//! department id is *invented* (an existential null), the classic
//! data-exchange situation.
//!
//! Run with `cargo run --example data_exchange`.

use ca_core::value::Value;
use ca_exchange::solution::{canonical_solution, core_solution, is_universal_solution};
use ca_exchange::tgd::{st_mapping, TgdAtom};
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_leq;
use ca_gdm::schema::GenSchema;

fn c(x: i64) -> Value {
    Value::Const(x)
}
fn n(id: u32) -> Value {
    Value::null(id)
}

fn atom(rel: &str, args: Vec<Value>) -> TgdAtom {
    TgdAtom {
        rel: rel.into(),
        args,
    }
}

fn main() {
    let source = GenSchema::from_parts(&[("emp", 3)], &[]);
    let target = GenSchema::from_parts(&[("works_in", 2), ("dept", 2)], &[]);

    // The mapping: emp(name, dname, sal) → ∃id works_in(name, id) ∧
    // dept(id, dname). Variables are nulls: 1 = name, 2 = dname, 3 = sal,
    // 4 = the invented department id.
    let mapping = st_mapping(
        &source,
        &target,
        &[(
            &[atom("emp", vec![n(1), n(2), n(3)])],
            &[
                atom("works_in", vec![n(1), n(4)]),
                atom("dept", vec![n(4), n(2)]),
            ],
        )],
    );

    // Source data (names/departments as interned integers):
    // ada and grace both in dept 100; linus in dept 200.
    let (ada, grace, linus) = (1, 2, 3);
    let (eng, kernels) = (100, 200);
    let mut src = GenDb::new(source);
    src.add_node("emp", vec![c(ada), c(eng), c(90)]);
    src.add_node("emp", vec![c(grace), c(eng), c(95)]);
    src.add_node("emp", vec![c(linus), c(kernels), c(80)]);

    // The canonical universal solution ⊔M(D): one invented id per rule
    // firing.
    let canonical = canonical_solution(&mapping, &src, &target);
    println!(
        "canonical universal solution ({} facts):",
        canonical.n_nodes()
    );
    for (label, data) in canonical.nodes() {
        println!("  {}{:?}", canonical.schema.label_name(label), data);
    }
    assert!(mapping.is_solution(&src, &canonical));

    // The core solution folds the two parallel 'eng' chains: ada and
    // grace can share one invented department id? No — their names
    // differ, so both chains stay; but repeated firings with identical
    // frontier values *would* fold. Demonstrate with a duplicate row:
    let mut src_dup = src.clone();
    src_dup.add_node("emp", vec![c(ada), c(eng), c(91)]); // salary differs only
    let canon_dup = canonical_solution(&mapping, &src_dup, &target);
    let core_dup = core_solution(&mapping, &src_dup, &target);
    println!(
        "\nwith a duplicate (ada, eng) row: canonical = {} facts, core = {} facts",
        canon_dup.n_nodes(),
        core_dup.n_nodes()
    );
    assert!(core_dup.n_nodes() < canon_dup.n_nodes());
    assert!(gdm_leq(&core_dup, &canon_dup) && gdm_leq(&canon_dup, &core_dup));

    // Theorem 5: the canonical solution is universal — it maps into every
    // other solution. Here is a fully materialized alternative using
    // concrete ids 500/600:
    let mut concrete = GenDb::new(target.clone());
    concrete.add_node("works_in", vec![c(ada), c(500)]);
    concrete.add_node("works_in", vec![c(grace), c(500)]);
    concrete.add_node("works_in", vec![c(linus), c(600)]);
    concrete.add_node("dept", vec![c(500), c(eng)]);
    concrete.add_node("dept", vec![c(600), c(kernels)]);
    assert!(mapping.is_solution(&src, &concrete));
    assert!(is_universal_solution(
        &mapping,
        &src,
        &canonical,
        &[concrete.clone()]
    ));
    println!("\ncanonical solution maps into the concrete solution (universality ✓)");

    // The concrete solution is NOT universal: it committed to ids.
    let mut other = GenDb::new(target);
    other.add_node("works_in", vec![c(ada), c(700)]);
    other.add_node("works_in", vec![c(grace), c(700)]);
    other.add_node("works_in", vec![c(linus), c(800)]);
    other.add_node("dept", vec![c(700), c(eng)]);
    other.add_node("dept", vec![c(800), c(kernels)]);
    assert!(!is_universal_solution(&mapping, &src, &concrete, &[other]));
    println!("the id-committed solution is not universal (over-specified) ✓");
}
