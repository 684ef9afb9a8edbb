//! Homomorphisms of generalized databases and the information ordering
//! (Proposition 9).
//!
//! `h = (h₁, h₂) : D → D′` where `h₁` is a homomorphism of the colored
//! structures `M_λ → M′_λ′` and `ρ′(h₁(ν)) = h₂(ρ(ν))` for every node.
//! As always `h₂` is the identity on constants. `[[D]]` is the set of
//! complete generalized databases with a homomorphism from `D`, and
//! `D ⊑ D′ ⇔ [[D′]] ⊆ [[D]] ⇔` a homomorphism `D → D′` exists.

use std::collections::BTreeMap;

use ca_core::value::{Null, Value};
use ca_hom::csp::Csp;

use crate::database::GenDb;

/// A generalized-database homomorphism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GdmHom {
    /// `h₁`: image of each node.
    pub node_map: Vec<u32>,
    /// `h₂`: image of each null.
    pub null_map: BTreeMap<Null, Value>,
}

impl GdmHom {
    /// Apply `h₂` to a value.
    pub fn apply_value(&self, v: Value) -> Value {
        match v {
            Value::Const(_) => v,
            Value::Null(n) => self.null_map.get(&n).copied().unwrap_or(v),
        }
    }
}

fn value_universe(d: &GenDb) -> Vec<Value> {
    let mut vals = d.values().to_vec();
    vals.sort_unstable();
    vals.dedup();
    vals
}

/// Build the homomorphism CSP `src → dst`: node variables `0..n`, null
/// variables after them. Exposed for callers needing extra constraints.
pub fn gdm_hom_csp(src: &GenDb, dst: &GenDb) -> (Csp, Vec<Null>, Vec<Value>) {
    assert_eq!(src.schema, dst.schema, "same generalized schema required");
    let n = src.n_nodes();
    let nulls: Vec<Null> = src.nulls().into_iter().collect();
    let null_var = |nl: Null| -> u32 {
        match nulls.binary_search(&nl) {
            Ok(i) => (n + i) as u32,
            // `nulls` enumerates every null of `src`, so any null met
            // while compiling src's tuples is present.
            Err(_) => unreachable!("null not in src's null set"),
        }
    };
    let universe = value_universe(dst);
    let val_id = |v: Value| -> Option<u32> { universe.binary_search(&v).ok().map(|i| i as u32) };

    let mut csp = Csp {
        domains: Vec::with_capacity(n + nulls.len()),
        constraints: Vec::new(),
    };
    // Node domains: same label; constants in data must match position-wise.
    for (label, data) in src.nodes() {
        let candidates: Vec<u32> = (0..dst.n_nodes() as u32)
            .filter(|&d| {
                dst.labels()[d as usize] == label
                    && data.iter().zip(dst.node(d as usize)).all(|(a, b)| match a {
                        Value::Const(_) => a == b,
                        Value::Null(_) => true,
                    })
            })
            .collect();
        csp.domains.push(candidates);
    }
    for _ in &nulls {
        csp.domains.push((0..universe.len() as u32).collect());
    }
    // Structural tuples: map into same-relation tuples of dst.
    for (rel, nodes) in &src.tuples {
        let allowed: Vec<Vec<u32>> = dst
            .tuples
            .iter()
            .filter(|(r, _)| r == rel)
            .map(|(_, t)| t.clone())
            .collect();
        csp.add_constraint(nodes.clone(), allowed);
    }
    // Data constraints binding node and null variables.
    for (node, (label, data)) in src.nodes().enumerate() {
        for (i, v) in data.iter().enumerate() {
            if let Value::Null(nl) = v {
                let allowed: Vec<Vec<u32>> = (0..dst.n_nodes() as u32)
                    .filter(|&d| dst.labels()[d as usize] == label)
                    .filter_map(|d| val_id(dst.node(d as usize)[i]).map(|vid| vec![d, vid]))
                    .collect();
                csp.add_constraint(vec![node as u32, null_var(*nl)], allowed);
            }
        }
    }
    (csp, nulls, universe)
}

/// Find a homomorphism `src → dst`, if any.
pub fn find_gdm_hom(src: &GenDb, dst: &GenDb) -> Option<GdmHom> {
    let (csp, nulls, universe) = gdm_hom_csp(src, dst);
    let sol = csp.solve()?;
    let n = src.n_nodes();
    Some(GdmHom {
        node_map: sol[..n].to_vec(),
        null_map: nulls
            .iter()
            .enumerate()
            .map(|(i, &nl)| (nl, universe[sol[n + i] as usize]))
            .collect(),
    })
}

/// Is `h` a valid homomorphism `src → dst`?
pub fn is_gdm_hom(src: &GenDb, dst: &GenDb, h: &GdmHom) -> bool {
    if h.node_map.len() != src.n_nodes() {
        return false;
    }
    for (node, &img) in h.node_map.iter().enumerate() {
        if dst.labels()[img as usize] != src.labels()[node] {
            return false;
        }
        let mapped = src.node(node).iter().map(|&v| h.apply_value(v));
        if !mapped.eq(dst.node(img as usize).iter().copied()) {
            return false;
        }
    }
    for (rel, nodes) in &src.tuples {
        let image: Vec<u32> = nodes.iter().map(|&v| h.node_map[v as usize]).collect();
        if !dst.tuples.iter().any(|(r, t)| r == rel && *t == image) {
            return false;
        }
    }
    true
}

/// The information ordering `D ⊑ D′` (Proposition 9: homomorphism
/// existence). Decision-only, so it skips witness reconstruction and asks
/// the solver for bare satisfiability.
pub fn gdm_leq(a: &GenDb, b: &GenDb) -> bool {
    let (csp, _, _) = gdm_hom_csp(a, b);
    csp.satisfiable()
}

/// Hom-equivalence.
pub fn gdm_equiv(a: &GenDb, b: &GenDb) -> bool {
    gdm_leq(a, b) && gdm_leq(b, a)
}

/// Membership: is the complete database `d2` in `[[d]]`?
pub fn in_gdm_semantics(d2: &GenDb, d: &GenDb) -> bool {
    d2.is_complete() && gdm_leq(d, d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::GenSchema;
    use ca_core::value::Value;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn rel_schema() -> GenSchema {
        GenSchema::from_parts(&[("R", 2)], &[])
    }

    fn xml_schema() -> GenSchema {
        GenSchema::from_parts(&[("r", 0), ("a", 1), ("b", 1)], &[("child", 2)])
    }

    #[test]
    fn relational_case_homs() {
        // {R(1,⊥1)} ⊑ {R(1,2)}.
        let mut d = GenDb::new(rel_schema());
        d.add_node("R", vec![c(1), n(1)]);
        let mut d2 = GenDb::new(rel_schema());
        d2.add_node("R", vec![c(1), c(2)]);
        let h = find_gdm_hom(&d, &d2).unwrap();
        assert!(is_gdm_hom(&d, &d2, &h));
        assert_eq!(h.null_map[&Null(1)], c(2));
        assert!(!gdm_leq(&d2, &d));
    }

    #[test]
    fn null_reuse_across_nodes() {
        // {R(⊥1,1), R(2,⊥1)}: ⊥1 must resolve consistently.
        let mut d = GenDb::new(rel_schema());
        d.add_node("R", vec![n(1), c(1)]);
        d.add_node("R", vec![c(2), n(1)]);
        let mut good = GenDb::new(rel_schema());
        good.add_node("R", vec![c(5), c(1)]);
        good.add_node("R", vec![c(2), c(5)]);
        assert!(gdm_leq(&d, &good));
        let mut bad = GenDb::new(rel_schema());
        bad.add_node("R", vec![c(5), c(1)]);
        bad.add_node("R", vec![c(2), c(6)]);
        assert!(!gdm_leq(&d, &bad));
    }

    #[test]
    fn structural_tuples_constrain() {
        // r → a(⊥) must map preserving the child edge.
        let mut d = GenDb::new(xml_schema());
        let root = d.add_node("r", vec![]);
        let a = d.add_node("a", vec![n(1)]);
        d.add_tuple("child", vec![root, a]);
        // Target 1: r → a(7): works.
        let mut t1 = GenDb::new(xml_schema());
        let r1 = t1.add_node("r", vec![]);
        let a1 = t1.add_node("a", vec![c(7)]);
        t1.add_tuple("child", vec![r1, a1]);
        assert!(gdm_leq(&d, &t1));
        // Target 2: r and a(7) disconnected: no hom.
        let mut t2 = GenDb::new(xml_schema());
        t2.add_node("r", vec![]);
        t2.add_node("a", vec![c(7)]);
        assert!(!gdm_leq(&d, &t2));
    }

    #[test]
    fn labels_must_be_preserved() {
        let mut d = GenDb::new(xml_schema());
        d.add_node("a", vec![n(1)]);
        let mut t = GenDb::new(xml_schema());
        t.add_node("b", vec![c(1)]);
        assert!(!gdm_leq(&d, &t));
    }

    #[test]
    fn equiv_via_null_renaming() {
        let mut a = GenDb::new(rel_schema());
        a.add_node("R", vec![n(1), n(2)]);
        let mut b = GenDb::new(rel_schema());
        b.add_node("R", vec![n(8), n(9)]);
        assert!(gdm_equiv(&a, &b));
    }

    #[test]
    fn membership_requires_completeness() {
        let mut d = GenDb::new(rel_schema());
        d.add_node("R", vec![n(1), n(2)]);
        let mut incomplete = GenDb::new(rel_schema());
        incomplete.add_node("R", vec![n(5), c(1)]);
        assert!(gdm_leq(&d, &incomplete));
        assert!(!in_gdm_semantics(&incomplete, &d));
        let mut complete = GenDb::new(rel_schema());
        complete.add_node("R", vec![c(0), c(1)]);
        assert!(in_gdm_semantics(&complete, &d));
    }
}

#[cfg(test)]
mod proposition9 {
    use super::*;
    use crate::generate::{random_tree_gendb, TreeGenParams};
    use ca_relational::generate::Rng;

    /// Proposition 9's proof mechanism, checked on random instances:
    /// `D ⊑ D′` iff there is a homomorphism into the *fresh grounding* of
    /// `D′` (the complete instance where every null of `D′` becomes a
    /// distinct fresh constant). The forward direction is composition;
    /// the backward direction is the proof's `f⁻¹ ∘ g` argument.
    #[test]
    fn leq_iff_hom_to_fresh_grounding() {
        let mut rng = Rng::new(314);
        for trial in 0..30 {
            let p = TreeGenParams {
                n_nodes: 4,
                n_labels: 2,
                max_data_arity: 1,
                n_constants: 2,
                null_pct: 50,
                codd: false,
            };
            let a = random_tree_gendb(&mut rng, p);
            let b = random_tree_gendb(&mut rng, p);
            // Fresh grounding of b: nulls to distinct constants far above
            // every constant in sight.
            let grounded = b.map_values(|v| match v {
                ca_core::value::Value::Null(n) => ca_core::value::Value::Const(10_000 + n.0 as i64),
                c => c,
            });
            assert_eq!(
                gdm_leq(&a, &b),
                gdm_leq(&a, &grounded),
                "Proposition 9 grounding argument failed on trial {trial}"
            );
        }
    }
}
