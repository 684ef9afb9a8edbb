//! The membership problem and Theorem 6.
//!
//! Membership asks whether a complete database `D′` is a possible world of
//! an incomplete one (`D′ ∈ [[D]]`), and more generally whether `D ⊑ D′`.
//! In general this is the constraint-satisfaction problem — NP-complete —
//! but **Theorem 6** gives a polynomial algorithm when `ρ` has the Codd
//! interpretation and the structural part has treewidth ≤ k:
//!
//! 1. *Lemma 3*: under Codd, `D ⊑ D′` iff there is a homomorphism of the
//!    structural parts whose graph lies inside the compatibility relation
//!    `R(D, D′) = {(ν, ν′) | λ(ν) = λ′(ν′) and ρ(ν) ⊴ ρ′(ν′)}`;
//! 2. *Lemmas 4–5*: `R`-compatible homomorphisms are decidable in PTIME
//!    for bounded-treewidth sources — our DP over a tree decomposition
//!    ([`ca_hom::dp`]).
//!
//! Both the relational (k = 1, trivially) and XML (k = 1, trees) PTIME
//! algorithms recalled in Section 6 are special cases.

use ca_core::value::Value;
use ca_hom::dp::r_compatible_hom_dp;
use ca_hom::treewidth::{decompose_exact_low_width, decompose_min_fill};

use crate::database::GenDb;
use crate::hom::gdm_leq;

/// General membership `d2 ∈ [[d]]`: NP search via the CSP engine.
pub fn membership_general(d2: &GenDb, d: &GenDb) -> bool {
    d2.is_complete() && gdm_leq(d, d2)
}

/// The tuple-dominance `ρ(ν) ⊴ ρ′(ν′)` of Lemma 3: constants must match,
/// nulls are free (soundness of the per-node check relies on Codd).
fn tuple_dominates(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(&x, &y)| x.tuplewise_leq(y))
}

/// The compatibility relation `R(D, D′)` as per-node candidate lists.
pub fn compatibility(d: &GenDb, d2: &GenDb) -> Vec<Vec<u32>> {
    (0..d.n_nodes())
        .map(|v| {
            (0..d2.n_nodes() as u32)
                .filter(|&w| {
                    d2.labels()[w as usize] == d.labels()[v]
                        && tuple_dominates(d.node(v), d2.node(w as usize))
                })
                .collect()
        })
        .collect()
}

/// Theorem 6: decide `d ⊑ d2` in polynomial time for Codd `d` of bounded
/// treewidth. Returns `None` if `d` is not Codd (the algorithm would be
/// unsound); otherwise `Some((answer, width))` where `width` is the width
/// of the tree decomposition used (exact for ≤ 2, min-fill bound beyond).
pub fn leq_codd_treewidth(d: &GenDb, d2: &GenDb) -> Option<(bool, usize)> {
    if !d.is_codd() {
        return None;
    }
    let src = d.bare_structure();
    let dst = d2.bare_structure();
    let adj = src.primal_graph();
    let td = decompose_exact_low_width(&adj, 1)
        .or_else(|| decompose_exact_low_width(&adj, 2))
        .unwrap_or_else(|| decompose_min_fill(&adj));
    let width = td.width();
    let allowed = compatibility(d, d2);
    let result = r_compatible_hom_dp(&src, &dst, &allowed, &td).is_some();
    Some((result, width))
}

/// The membership decision of Theorem 6 (complete `d2`).
pub fn membership_codd_treewidth(d2: &GenDb, d: &GenDb) -> Option<(bool, usize)> {
    if !d2.is_complete() {
        return Some((false, 0));
    }
    leq_codd_treewidth(d, d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_tree_gendb, TreeGenParams};
    use crate::schema::GenSchema;
    use ca_relational::generate::Rng;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn xml_schema() -> GenSchema {
        GenSchema::from_parts(&[("r", 0), ("a", 1), ("b", 1)], &[("child", 2)])
    }

    #[test]
    fn codd_tree_membership_positive() {
        // Pattern r → a(⊥1) against document r → a(7).
        let mut d = GenDb::new(xml_schema());
        let root = d.add_node("r", vec![]);
        let a = d.add_node("a", vec![n(1)]);
        d.add_tuple("child", vec![root, a]);
        let mut doc = GenDb::new(xml_schema());
        let r2 = doc.add_node("r", vec![]);
        let a2 = doc.add_node("a", vec![c(7)]);
        doc.add_tuple("child", vec![r2, a2]);
        let (ans, width) = membership_codd_treewidth(&doc, &d).unwrap();
        assert!(ans);
        assert!(width <= 1);
        assert!(membership_general(&doc, &d));
    }

    #[test]
    fn codd_tree_membership_negative() {
        let mut d = GenDb::new(xml_schema());
        let root = d.add_node("r", vec![]);
        let a = d.add_node("a", vec![c(5)]);
        d.add_tuple("child", vec![root, a]);
        let mut doc = GenDb::new(xml_schema());
        let r2 = doc.add_node("r", vec![]);
        let a2 = doc.add_node("a", vec![c(7)]);
        doc.add_tuple("child", vec![r2, a2]);
        let (ans, _) = membership_codd_treewidth(&doc, &d).unwrap();
        assert!(!ans);
        assert!(!membership_general(&doc, &d));
    }

    #[test]
    fn non_codd_is_rejected() {
        // The per-node compatibility check is unsound with repeated nulls:
        // D = two a-nodes sharing ⊥1; target gives them different values.
        let mut d = GenDb::new(xml_schema());
        let root = d.add_node("r", vec![]);
        let a1 = d.add_node("a", vec![n(1)]);
        let b1 = d.add_node("b", vec![n(1)]);
        d.add_tuple("child", vec![root, a1]);
        d.add_tuple("child", vec![root, b1]);
        assert!(!d.is_codd());
        assert!(leq_codd_treewidth(&d, &d).is_none());
        // And indeed the naive per-node check would wrongly accept:
        let mut doc = GenDb::new(xml_schema());
        let r2 = doc.add_node("r", vec![]);
        let a2 = doc.add_node("a", vec![c(1)]);
        let b2 = doc.add_node("b", vec![c(2)]);
        doc.add_tuple("child", vec![r2, a2]);
        doc.add_tuple("child", vec![r2, b2]);
        // Per-node compatibility holds everywhere…
        let compat = compatibility(&d, &doc);
        assert!(compat.iter().all(|cands| !cands.is_empty()));
        // …but the true answer is no (⊥1 cannot be both 1 and 2).
        assert!(!membership_general(&doc, &d));
    }

    /// Theorem 6 agrees with the general NP algorithm on random Codd
    /// tree-shaped instances.
    #[test]
    fn theorem6_agrees_with_general_on_random_trees() {
        let mut rng = Rng::new(909);
        let mut positives = 0;
        for trial in 0..30 {
            let d = random_tree_gendb(
                &mut rng,
                TreeGenParams {
                    n_nodes: 5,
                    n_labels: 2,
                    max_data_arity: 1,
                    n_constants: 2,
                    null_pct: 60,
                    codd: true,
                },
            );
            let doc = random_tree_gendb(
                &mut rng,
                TreeGenParams {
                    n_nodes: 6,
                    n_labels: 2,
                    max_data_arity: 1,
                    n_constants: 2,
                    null_pct: 0,
                    codd: true,
                },
            );
            let (fast, width) = leq_codd_treewidth(&d, &doc).expect("Codd instance");
            let slow = gdm_leq(&d, &doc);
            assert_eq!(fast, slow, "Theorem 6 disagrees on trial {trial}");
            assert!(width <= 1, "trees have treewidth 1");
            positives += usize::from(fast);
        }
        assert!(positives > 0, "no positive instances exercised");
    }

    #[test]
    fn incomplete_targets_are_not_members() {
        let mut d = GenDb::new(xml_schema());
        d.add_node("a", vec![n(1)]);
        let mut t = GenDb::new(xml_schema());
        t.add_node("a", vec![n(2)]);
        assert_eq!(membership_codd_treewidth(&t, &d), Some((false, 0)));
        assert!(!membership_general(&t, &d));
    }
}

#[cfg(test)]
mod timing_probe {
    use super::*;
    use crate::generate::{random_tree_gendb, TreeGenParams};
    use ca_relational::generate::Rng;

    /// Timing probe (ignored by default): how do the DP and the CSP scale?
    #[test]
    #[ignore]
    fn probe_scaling() {
        let mut rng = Rng::new(909);
        for &(p, d) in &[(8usize, 16usize), (16, 32), (24, 48), (32, 64)] {
            let pat = random_tree_gendb(
                &mut rng,
                TreeGenParams {
                    n_nodes: p,
                    n_labels: 2,
                    max_data_arity: 1,
                    n_constants: 2,
                    null_pct: 70,
                    codd: true,
                },
            );
            let doc = random_tree_gendb(
                &mut rng,
                TreeGenParams {
                    n_nodes: d,
                    n_labels: 2,
                    max_data_arity: 1,
                    n_constants: 2,
                    null_pct: 0,
                    codd: true,
                },
            );
            let t0 = std::time::Instant::now();
            let (fast, _) = leq_codd_treewidth(&pat, &doc).unwrap();
            let dp_t = t0.elapsed();
            let t1 = std::time::Instant::now();
            let slow = gdm_leq(&pat, &doc);
            let csp_t = t1.elapsed();
            eprintln!(
                "p={p} d={d} dp={dp_t:?} csp={csp_t:?} agree={}",
                fast == slow
            );
        }
    }
}
