//! Tree homomorphisms.
//!
//! `h : T → T′` is a pair `(h₁, h₂)`: `h₁` maps nodes to nodes preserving
//! the child relation and labels; `h₂` maps nulls to values of `T′`
//! (identity on constants) with `ρ′(h₁(x)) = h₂(ρ(x))`. The semantics
//! `[[T]]` and the information ordering on trees are defined from these
//! exactly as in the relational case, and Proposition 3 again characterizes
//! `T ⊑ T′` as homomorphism existence.

use std::collections::BTreeMap;

use ca_core::value::{Null, Value};
use ca_hom::csp::Csp;

use crate::tree::{NodeId, XmlTree};

/// A tree homomorphism: the node map `h₁` and null map `h₂`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeHom {
    /// `h₁`: image of each source node.
    pub node_map: Vec<NodeId>,
    /// `h₂`: image of each source null.
    pub null_map: BTreeMap<Null, Value>,
}

impl TreeHom {
    /// Apply `h₂` to a value (identity on constants and unmapped nulls).
    pub fn apply_value(&self, v: Value) -> Value {
        match v {
            Value::Const(_) => v,
            Value::Null(n) => self.null_map.get(&n).copied().unwrap_or(v),
        }
    }
}

/// All data values occurring in a tree, sorted (the target universe for
/// `h₂`).
fn value_universe(t: &XmlTree) -> Vec<Value> {
    let mut vals: Vec<Value> = t
        .node_ids()
        .flat_map(|id| t.node(id).data.iter().copied())
        .collect();
    vals.sort_unstable();
    vals.dedup();
    vals
}

/// Find a homomorphism `src → dst`, if any.
pub fn find_tree_hom(src: &XmlTree, dst: &XmlTree) -> Option<TreeHom> {
    assert!(
        src.alphabet.compatible_with(&dst.alphabet),
        "incompatible alphabets"
    );
    let n = src.len();
    let nulls: Vec<Null> = src.nulls().into_iter().collect();
    let null_var = |nl: Null| -> u32 {
        match nulls.binary_search(&nl) {
            Ok(i) => (n + i) as u32,
            // Only nulls of `src` are looked up, and `nulls` is all of
            // them, sorted.
            Err(_) => unreachable!("null {nl:?} not in the source tree"),
        }
    };
    let universe = value_universe(dst);
    let val_id = |v: Value| -> Option<u32> { universe.binary_search(&v).ok().map(|i| i as u32) };

    let mut csp = Csp {
        domains: Vec::with_capacity(n + nulls.len()),
        constraints: Vec::new(),
    };
    // Node domains: same label, and constants in the source data tuple must
    // match the target's tuple position-wise.
    for id in src.node_ids() {
        let sn = src.node(id);
        let candidates: Vec<u32> = dst
            .node_ids()
            .filter(|&d| {
                let dn = dst.node(d);
                dn.label == sn.label
                    && sn.data.iter().zip(dn.data.iter()).all(|(a, b)| match a {
                        Value::Const(_) => a == b,
                        Value::Null(_) => true,
                    })
            })
            .map(|d| d as u32)
            .collect();
        csp.domains.push(candidates);
    }
    // Null domains: any value of the target.
    for _ in &nulls {
        csp.domains.push((0..universe.len() as u32).collect());
    }
    // Edge constraints.
    let dst_edges: Vec<Vec<u32>> = dst.edges().map(|(p, c)| vec![p as u32, c as u32]).collect();
    for (p, c) in src.edges() {
        csp.add_constraint(vec![p as u32, c as u32], dst_edges.clone());
    }
    // Data constraints: for each source node x with a null at position i,
    // (h₁(x), h₂(⊥)) must agree with the target's tuple.
    for id in src.node_ids() {
        let sn = src.node(id);
        for (i, v) in sn.data.iter().enumerate() {
            if let Value::Null(nl) = v {
                let allowed: Vec<Vec<u32>> = dst
                    .node_ids()
                    .filter(|&d| dst.node(d).label == sn.label)
                    .filter_map(|d| val_id(dst.node(d).data[i]).map(|vid| vec![d as u32, vid]))
                    .collect();
                csp.add_constraint(vec![id as u32, null_var(*nl)], allowed);
            }
        }
    }

    let sol = csp.solve()?;
    let node_map: Vec<NodeId> = sol[..n].iter().map(|&v| v as NodeId).collect();
    let null_map: BTreeMap<Null, Value> = nulls
        .iter()
        .enumerate()
        .map(|(i, &nl)| (nl, universe[sol[n + i] as usize]))
        .collect();
    Some(TreeHom { node_map, null_map })
}

/// Is `h` a valid homomorphism `src → dst`?
pub fn is_tree_hom(src: &XmlTree, dst: &XmlTree, h: &TreeHom) -> bool {
    if h.node_map.len() != src.len() {
        return false;
    }
    // Edges and labels.
    for (p, c) in src.edges() {
        let (hp, hc) = (h.node_map[p], h.node_map[c]);
        if !dst.node(hp).children.contains(&hc) {
            return false;
        }
    }
    for id in src.node_ids() {
        let sn = src.node(id);
        let dn = dst.node(h.node_map[id]);
        if sn.label != dn.label {
            return false;
        }
        // Data: ρ′(h₁(x)) = h₂(ρ(x)).
        let image: Vec<Value> = sn.data.iter().map(|&v| h.apply_value(v)).collect();
        if image != dn.data {
            return false;
        }
    }
    true
}

/// The information ordering `T ⊑ T′` (Proposition 3 for trees).
///
/// ```
/// use ca_core::value::Value;
/// use ca_xml::tree::{Alphabet, XmlTree};
/// use ca_xml::hom::tree_leq;
///
/// let alpha = Alphabet::from_labels(&[("a", 1)]);
/// let pattern = XmlTree::new(alpha.clone(), "a", vec![Value::null(0)]);
/// let document = XmlTree::new(alpha, "a", vec![Value::Const(5)]);
/// assert!(tree_leq(&pattern, &document));
/// assert!(!tree_leq(&document, &pattern));
/// ```
pub fn tree_leq(a: &XmlTree, b: &XmlTree) -> bool {
    find_tree_hom(a, b).is_some()
}

/// Hom-equivalence `T ∼ T′`.
pub fn tree_equiv(a: &XmlTree, b: &XmlTree) -> bool {
    tree_leq(a, b) && tree_leq(b, a)
}

/// Membership for trees: is the complete tree `t` in `[[pattern]]`?
pub fn in_tree_semantics(t: &XmlTree, pattern: &XmlTree) -> bool {
    t.is_complete() && tree_leq(pattern, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{example_alphabet, example_tree, XmlTree};
    use ca_core::value::Value;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// A complete instance of the Section 2.2 example tree.
    fn grounded_example() -> XmlTree {
        let mut t = XmlTree::new(example_alphabet(), "r", vec![]);
        let a1 = t.add_child(0, "a", vec![c(1), c(7)]);
        t.add_child(a1, "b", vec![c(7)]);
        let a2 = t.add_child(0, "a", vec![c(8), c(2)]);
        t.add_child(a2, "c", vec![c(9)]);
        t.add_child(a2, "c", vec![c(8)]);
        t
    }

    #[test]
    fn example_tree_maps_into_grounding() {
        let pat = example_tree();
        let doc = grounded_example();
        let h = find_tree_hom(&pat, &doc).expect("grounding is a model");
        assert!(is_tree_hom(&pat, &doc, &h));
        assert!(in_tree_semantics(&doc, &pat));
        // ⊥1 ↦ 7 is forced by the shared null between a(1,⊥1) and b(⊥1).
        assert_eq!(h.null_map[&ca_core::value::Null(1)], c(7));
    }

    #[test]
    fn shared_null_must_be_consistent() {
        // Pattern: a(⊥1,⊥1); target with no equal pair fails.
        let alpha = example_alphabet();
        let mut pat = XmlTree::new(alpha.clone(), "a", vec![n(1), n(1)]);
        let _ = &mut pat;
        let ok = XmlTree::new(alpha.clone(), "a", vec![c(4), c(4)]);
        let bad = XmlTree::new(alpha, "a", vec![c(4), c(5)]);
        assert!(tree_leq(&pat, &ok));
        assert!(!tree_leq(&pat, &bad));
    }

    #[test]
    fn labels_must_match() {
        let alpha = example_alphabet();
        let b_tree = XmlTree::new(alpha.clone(), "b", vec![c(1)]);
        let c_tree = XmlTree::new(alpha, "c", vec![c(1)]);
        assert!(!tree_leq(&b_tree, &c_tree));
        assert!(tree_leq(&b_tree, &b_tree));
    }

    #[test]
    fn homs_need_not_preserve_roots() {
        // b(1) maps into r[a(1,2)[b(1)]] at depth 2.
        let alpha = example_alphabet();
        let pat = XmlTree::new(alpha.clone(), "b", vec![c(1)]);
        let mut doc = XmlTree::new(alpha, "r", vec![]);
        let a = doc.add_child(0, "a", vec![c(1), c(2)]);
        doc.add_child(a, "b", vec![c(1)]);
        let h = find_tree_hom(&pat, &doc).unwrap();
        assert_eq!(h.node_map[0], 2); // the b node
    }

    #[test]
    fn edge_structure_is_preserved() {
        // Pattern a→b (as labels with data) cannot map into b→a.
        let alpha = example_alphabet();
        let mut pat = XmlTree::new(alpha.clone(), "b", vec![n(1)]);
        pat.add_child(0, "c", vec![n(2)]);
        let mut doc = XmlTree::new(alpha.clone(), "c", vec![c(1)]);
        doc.add_child(0, "b", vec![c(2)]);
        assert!(!tree_leq(&pat, &doc));
        // But it maps into b→c.
        let mut doc2 = XmlTree::new(alpha, "b", vec![c(1)]);
        doc2.add_child(0, "c", vec![c(2)]);
        assert!(tree_leq(&pat, &doc2));
    }

    #[test]
    fn sibling_collapse_is_allowed_unordered() {
        // r[a(⊥1,⊥2) a(⊥3,⊥4)] maps into r[a(5,6)] by collapsing.
        let alpha = example_alphabet();
        let mut pat = XmlTree::new(alpha.clone(), "r", vec![]);
        pat.add_child(0, "a", vec![n(1), n(2)]);
        pat.add_child(0, "a", vec![n(3), n(4)]);
        let mut doc = XmlTree::new(alpha, "r", vec![]);
        doc.add_child(0, "a", vec![c(5), c(6)]);
        assert!(tree_leq(&pat, &doc));
    }

    #[test]
    fn constants_pin_data_positions() {
        let alpha = example_alphabet();
        let pat = XmlTree::new(alpha.clone(), "a", vec![c(1), n(1)]);
        let ok = XmlTree::new(alpha.clone(), "a", vec![c(1), c(9)]);
        let bad = XmlTree::new(alpha, "a", vec![c(2), c(9)]);
        assert!(tree_leq(&pat, &ok));
        assert!(!tree_leq(&pat, &bad));
    }

    #[test]
    fn equivalence_via_null_renaming() {
        let alpha = example_alphabet();
        let t1 = XmlTree::new(alpha.clone(), "a", vec![n(1), n(2)]);
        let t2 = XmlTree::new(alpha, "a", vec![n(5), n(6)]);
        assert!(tree_equiv(&t1, &t2));
        assert_ne!(t1, t2);
    }

    #[test]
    fn ordering_is_transitive_spot_check() {
        let alpha = example_alphabet();
        let bottom = XmlTree::new(alpha.clone(), "a", vec![n(1), n(2)]);
        let mid = XmlTree::new(alpha.clone(), "a", vec![c(1), n(3)]);
        let top = XmlTree::new(alpha, "a", vec![c(1), c(2)]);
        assert!(tree_leq(&bottom, &mid));
        assert!(tree_leq(&mid, &top));
        assert!(tree_leq(&bottom, &top));
    }
}
