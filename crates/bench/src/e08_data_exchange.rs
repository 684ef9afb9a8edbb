//! E8 — Theorem 5 and Proposition 10: universal solutions are least upper
//! bounds of `M(D)`; for relations they always exist (canonical solution =
//! `⊔M(D)`, most compact representative = the core solution); for trees
//! lubs can fail to exist.
//!
//! Workload: the paper's chain tgd `S(x,y,u) → T(x,z), T(z,y)` plus a
//! copy tgd over random sources of growing size. We verify the solution
//! and universality properties and record the canonical-vs-core size
//! ratio, then run the Proposition 10 exhaustive refutation.

use ca_core::value::Value;
use ca_exchange::mapping::{Mapping, Rule};
use ca_exchange::solution::{canonical_solution, core_solution, is_universal_solution};
use ca_exchange::trees::verify_proposition10;
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_leq;
use ca_gdm::schema::GenSchema;
use ca_relational::generate::Rng;

use crate::report::{timed, Report};

fn paper_mapping() -> (Mapping, GenSchema, GenSchema) {
    let n = Value::null;
    let src = GenSchema::from_parts(&[("S", 3)], &[]);
    let tgt = GenSchema::from_parts(&[("T", 2)], &[]);
    let mut body = GenDb::new(src.clone());
    body.add_node("S", vec![n(1), n(2), n(3)]);
    let mut head = GenDb::new(tgt.clone());
    head.add_node("T", vec![n(1), n(4)]);
    head.add_node("T", vec![n(4), n(2)]);
    (Mapping::new(vec![Rule { body, head }]), src, tgt)
}

/// Run E8.
pub fn run() -> Report {
    let mut report = Report::new(
        "E8: data exchange as lubs (Theorem 5) + tree failure (Prop 10)",
        &[
            "source_facts",
            "canonical",
            "core",
            "solution",
            "universal",
            "us",
        ],
    );
    let (mapping, src_schema, tgt_schema) = paper_mapping();
    let mut rng = Rng::new(808);
    for &facts in &[1usize, 2, 4, 6] {
        // Random source with some repeated (x, y) pairs to give the core
        // something to fold.
        let mut d = GenDb::new(src_schema.clone());
        for _ in 0..facts {
            let x = rng.below(2) as i64;
            let y = rng.below(2) as i64;
            let u = rng.below(4) as i64;
            d.add_node("S", vec![Value::Const(x), Value::Const(y), Value::Const(u)]);
        }
        let ((canon, core), us) = timed(|| {
            (
                canonical_solution(&mapping, &d, &tgt_schema),
                core_solution(&mapping, &d, &tgt_schema),
            )
        });
        let is_sol = mapping.is_solution(&d, &canon) && mapping.is_solution(&d, &core);
        // Universality against sampled complete solutions.
        let mut s1 = GenDb::new(tgt_schema.clone());
        for node in 0..d.n_nodes() {
            let (x, y) = (d.node(node)[0], d.node(node)[1]);
            let mid = Value::Const(100 + node as i64);
            s1.add_node("T", vec![x, mid]);
            s1.add_node("T", vec![mid, y]);
        }
        let universal = is_universal_solution(&mapping, &d, &canon, &[s1.clone()])
            && is_universal_solution(&mapping, &d, &core, &[s1])
            && gdm_leq(&canon, &core)
            && gdm_leq(&core, &canon);
        report.row(vec![
            d.n_nodes().to_string(),
            canon.n_nodes().to_string(),
            core.n_nodes().to_string(),
            is_sol.to_string(),
            universal.to_string(),
            us.to_string(),
        ]);
    }
    // Proposition 10.
    let (count, us) = timed(|| verify_proposition10(4));
    report.note(format!(
        "Proposition 10: no lub for the tree pair among {count} candidates ≤ 4 nodes ({us} µs)"
    ));
    report.note("paper: canonical and core are hom-equivalent universal solutions; core ≤ canonical in size (strictly when sources repeat (x,y) pairs)");
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e08_solutions_are_universal() {
        let r = super::run();
        for row in &r.rows {
            assert_eq!(row[3], "true", "not a solution: {row:?}");
            assert_eq!(row[4], "true", "not universal: {row:?}");
            let canon: usize = row[1].parse().unwrap();
            let core: usize = row[2].parse().unwrap();
            assert!(core <= canon);
        }
    }
}
