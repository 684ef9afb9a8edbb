//! Greatest lower bounds of generalized databases (Theorem 4).
//!
//! The construction is the one the paper calls "the only one that
//! typechecks": first compute a glb of the *structural* parts in the class
//! `K` at hand — coming with homomorphisms `ι, ι′` into the two factors —
//! then attach data by the `⊗` merge: `ρ⊗ρ′(ν) = ρ(ι(ν)) ⊗ ρ′(ι′(ν))`
//! (equation (2) of the paper). Theorem 4: the result is a glb of the
//! `K`-generalized databases.
//!
//! Two instantiations are provided:
//!
//! * `K` = all Σ-colored structures ([`glb_sigma`]): the structural glb is
//!   the label-respecting direct product `M_λ ⊓_Σ M′_λ′`. With `σ = ∅`
//!   this specializes to Proposition 5 for relations.
//! * `K` = unranked trees ([`glb_trees_gdm`]): the structural glb is the
//!   dominant component of the label-respecting product forest — \[16\]'s
//!   max-description construction, matching [`ca_xml::glb`].

use ca_core::symbol::Symbol;
use ca_relational::glb::{merge_tuples, PairNulls};

use crate::database::GenDb;
use crate::hom::gdm_leq;

/// A structural glb `M_λ ⊓_K M′_λ′` together with the homomorphisms
/// `ι, ι′` into the factors: node `i` of the glb projects to
/// `iota[i].0` in the left factor and `iota[i].1` in the right.
#[derive(Clone, Debug)]
pub struct StructGlb {
    /// Projections of each glb node into the two factors.
    pub iota: Vec<(u32, u32)>,
    /// Structural tuples over glb nodes.
    pub tuples: Vec<(Symbol, Vec<u32>)>,
}

/// The Σ-colored structural glb: all label-respecting node pairs, with a
/// relation tuple whenever both factors have one component-wise.
pub fn sigma_structural_glb(a: &GenDb, b: &GenDb) -> StructGlb {
    assert_eq!(a.schema, b.schema, "same generalized schema required");
    let mut iota = Vec::new();
    let mut index = std::collections::BTreeMap::new();
    for u in 0..a.n_nodes() as u32 {
        for v in 0..b.n_nodes() as u32 {
            if a.labels[u as usize] == b.labels[v as usize] {
                index.insert((u, v), iota.len() as u32);
                iota.push((u, v));
            }
        }
    }
    let mut tuples = Vec::new();
    for (rel, ta) in &a.tuples {
        for (rel_b, tb) in &b.tuples {
            if rel != rel_b {
                continue;
            }
            let combined: Option<Vec<u32>> = ta
                .iter()
                .zip(tb.iter())
                .map(|(&u, &v)| index.get(&(u, v)).copied())
                .collect();
            if let Some(t) = combined {
                if !tuples.contains(&(*rel, t.clone())) {
                    tuples.push((*rel, t));
                }
            }
        }
    }
    StructGlb { iota, tuples }
}

/// Equation (2): attach `⊗`-merged data to a structural glb, yielding
/// `D ∧_K D′`.
pub fn glb_with_structure(a: &GenDb, b: &GenDb, s: &StructGlb) -> GenDb {
    let mut nulls = PairNulls::avoiding(a.nulls().into_iter().chain(b.nulls()));
    let mut out = GenDb::new(a.schema.clone());
    for &(u, v) in &s.iota {
        let label = a.schema.label_name(a.labels[u as usize]);
        let data = merge_tuples(&a.data[u as usize], &b.data[v as usize], &mut nulls);
        out.add_node(label, data);
    }
    for (rel, t) in &s.tuples {
        out.add_tuple(a.schema.relation_name(*rel), t.clone());
    }
    out
}

/// `D ∧_Σ D′`: the glb in the class of *all* generalized databases of the
/// schema (no structural restriction). For `σ = ∅` this is exactly
/// Proposition 5's relational glb.
pub fn glb_sigma(a: &GenDb, b: &GenDb) -> GenDb {
    glb_with_structure(a, b, &sigma_structural_glb(a, b))
}

/// `D ∧_K D′` for `K` = unranked trees: both inputs must have tree-shaped
/// structural parts over a single binary relation. The product forest's
/// components are computed with data attached; the glb exists iff one
/// component dominates all others.
pub fn glb_trees_gdm(a: &GenDb, b: &GenDb) -> Option<GenDb> {
    assert_eq!(a.schema, b.schema);
    assert_eq!(
        a.schema.n_relations(),
        1,
        "tree glb expects a single (child) relation"
    );
    let full = sigma_structural_glb(a, b);
    // Split the product into weakly-connected components; with tree
    // factors each component is a tree.
    let n = full.iota.len();
    let mut comp = vec![usize::MAX; n];
    let mut n_comp = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = n_comp;
        n_comp += 1;
        let mut stack = vec![start];
        comp[start] = id;
        while let Some(x) = stack.pop() {
            for (_, t) in &full.tuples {
                for w in t.windows(2) {
                    let (p, c) = (w[0] as usize, w[1] as usize);
                    for (from, to) in [(p, c), (c, p)] {
                        if from == x && comp[to] == usize::MAX {
                            comp[to] = id;
                            stack.push(to);
                        }
                    }
                }
            }
        }
    }
    // Build one GenDb per component (sharing pair nulls is unnecessary
    // across components since only one is returned; but sharing keeps the
    // construction uniform).
    let mut nulls = PairNulls::avoiding(a.nulls().into_iter().chain(b.nulls()));
    let mut components: Vec<GenDb> = Vec::with_capacity(n_comp);
    let mut node_of: Vec<u32> = vec![0; n];
    for cid in 0..n_comp {
        let mut db = GenDb::new(a.schema.clone());
        for (i, &(u, v)) in full.iota.iter().enumerate() {
            if comp[i] == cid {
                let label = a.schema.label_name(a.labels[u as usize]);
                let data = merge_tuples(&a.data[u as usize], &b.data[v as usize], &mut nulls);
                node_of[i] = db.add_node(label, data);
            }
        }
        for (rel, t) in &full.tuples {
            if comp[t[0] as usize] == cid {
                db.add_tuple(
                    a.schema.relation_name(*rel),
                    t.iter().map(|&x| node_of[x as usize]).collect(),
                );
            }
        }
        components.push(db);
    }
    let dominant = components
        .iter()
        .position(|c| components.iter().all(|other| gdm_leq(other, c)))?;
    Some(components.swap_remove(dominant))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_relational, encode_xml};
    use crate::hom::{gdm_equiv, gdm_leq};
    use ca_relational::database::build::{c, n, table};

    #[test]
    fn sigma_glb_matches_relational_glb() {
        let a = table("R", 2, &[&[c(1), c(2)], &[c(3), n(1)]]);
        let b = table("R", 2, &[&[c(1), c(5)], &[n(2), c(2)]]);
        let rel = ca_relational::glb::glb_databases(&a, &b);
        let gdm = glb_sigma(&encode_relational(&a), &encode_relational(&b));
        assert!(gdm_equiv(&gdm, &encode_relational(&rel)));
    }

    #[test]
    fn sigma_glb_is_a_lower_bound() {
        let a = encode_relational(&table("R", 1, &[&[c(1)], &[c(2)]]));
        let b = encode_relational(&table("R", 1, &[&[c(2)], &[c(3)]]));
        let meet = glb_sigma(&a, &b);
        assert!(gdm_leq(&meet, &a));
        assert!(gdm_leq(&meet, &b));
        // R(2) is in both, so it embeds in the glb.
        let two = encode_relational(&table("R", 1, &[&[c(2)]]));
        assert!(gdm_leq(&two, &meet));
    }

    #[test]
    fn tree_glb_matches_xml_construction() {
        use ca_core::value::Value;
        let alpha = ca_xml::tree::example_alphabet();
        let cv = |x: i64| Value::Const(x);
        let mut t1 = ca_xml::tree::XmlTree::new(alpha.clone(), "r", vec![]);
        t1.add_child(0, "a", vec![cv(1), cv(2)]);
        let mut t2 = ca_xml::tree::XmlTree::new(alpha, "r", vec![]);
        t2.add_child(0, "a", vec![cv(1), cv(3)]);
        let xml_meet = ca_xml::glb::glb_trees(&t1, &t2).unwrap();
        let gdm_meet = glb_trees_gdm(&encode_xml(&t1), &encode_xml(&t2)).unwrap();
        assert!(gdm_equiv(&gdm_meet, &encode_xml(&xml_meet)));
    }

    #[test]
    fn tree_glb_can_fail() {
        // p[q] vs q[p]: no dominant component (cf. ca-xml).
        use ca_xml::tree::{Alphabet, XmlTree};
        let alpha = Alphabet::from_labels(&[("p", 0), ("q", 0)]);
        let mut t1 = XmlTree::new(alpha.clone(), "p", vec![]);
        t1.add_child(0, "q", vec![]);
        let mut t2 = XmlTree::new(alpha, "q", vec![]);
        t2.add_child(0, "p", vec![]);
        assert!(glb_trees_gdm(&encode_xml(&t1), &encode_xml(&t2)).is_none());
    }

    #[test]
    fn glb_laws_on_random_relational_instances() {
        use ca_relational::generate::{random_naive_db, DbParams, Rng};
        let mut rng = Rng::new(13);
        let p = DbParams {
            n_facts: 3,
            arity: 2,
            n_constants: 3,
            n_nulls: 2,
            null_pct: 30,
        };
        for _ in 0..10 {
            let a = random_naive_db(&mut rng, p);
            let b = random_naive_db(&mut rng, p);
            let (ga, gb) = (encode_relational(&a), encode_relational(&b));
            let meet = glb_sigma(&ga, &gb);
            assert!(gdm_leq(&meet, &ga) && gdm_leq(&meet, &gb));
            // A couple of candidate lower bounds.
            let lows = [
                encode_relational(&table("R", 2, &[&[n(50), n(51)]])),
                encode_relational(&table("R", 2, &[])),
            ];
            for l in &lows {
                if gdm_leq(l, &ga) && gdm_leq(l, &gb) {
                    assert!(gdm_leq(l, &meet));
                }
            }
        }
    }

    #[test]
    fn sigma_glb_respects_structural_tuples() {
        // Two one-edge trees with different data: glb keeps the edge.
        use ca_core::value::Value;
        let schema = crate::schema::GenSchema::from_parts(&[("r", 0), ("a", 1)], &[("child", 2)]);
        let mk = |x: i64| {
            let mut d = GenDb::new(schema.clone());
            let root = d.add_node("r", vec![]);
            let a = d.add_node("a", vec![Value::Const(x)]);
            d.add_tuple("child", vec![root, a]);
            d
        };
        let meet = glb_sigma(&mk(1), &mk(2));
        // The (r,r) → (a,a) edge survives with merged (null) data.
        assert_eq!(meet.tuples.len(), 1);
        assert!(gdm_leq(&meet, &mk(1)));
    }
}
