//! Greatest lower bounds of unordered trees — the max-descriptions of \[16\].
//!
//! The structural part is the same-label product: node tuples
//! `(v₁, …, vₖ)` with equal labels, a child edge when every component has
//! one. For trees this product is a *forest* (each tuple has at most one
//! parent tuple), and a connected lower bound maps into a single component,
//! so:
//!
//! > `⋀{T₁…Tₖ}` exists iff some component of the product forest dominates
//! > every other component, and then that component (with `⊗`-merged data)
//! > is the glb.
//!
//! The root-pair component of same-root documents is the "level by level,
//! pairing nodes with the same labels" construction the paper describes in
//! Section 5.2, and in the rooted-match setting of \[16\] it *is* the
//! max-description. Under the paper's unrooted homomorphisms existence is
//! subtler: a same-label pair at mismatched depths forms its own component,
//! and if the `⊗`-merged data of the root component does not absorb it
//! (e.g. a stray constant against a merged null), no component dominates
//! and the glb genuinely does not exist — the dominant-component check
//! decides this exactly. Restricting labels to unique depths (as DTD-style
//! vertical schemas do) restores guaranteed existence.

use std::collections::BTreeMap;

use ca_core::value::{NullGen, Value};

use crate::hom::tree_leq;
use crate::tree::{NodeId, XmlTree};

/// `⊗` over `k` values: keep a constant shared by all coordinates,
/// otherwise a fresh null indexed by the value tuple (shared across the
/// construction, as in Proposition 5).
struct TupleNulls {
    map: BTreeMap<Vec<Value>, Value>,
    gen: NullGen,
}

impl TupleNulls {
    fn for_trees(trees: &[&XmlTree]) -> Self {
        let gen = NullGen::avoiding(trees.iter().flat_map(|t| t.nulls()));
        TupleNulls {
            map: BTreeMap::new(),
            gen,
        }
    }

    fn merge(&mut self, vals: &[Value]) -> Value {
        if let Value::Const(c) = vals[0] {
            if vals.iter().all(|v| *v == Value::Const(c)) {
                return vals[0];
            }
        }
        let gen = &mut self.gen;
        *self
            .map
            .entry(vals.to_vec())
            .or_insert_with(|| gen.fresh_value())
    }
}

/// The components of the same-label product forest, each returned as a
/// tree with `⊗`-merged data. Public for experiments that want to inspect
/// the forest itself.
pub fn product_forest(trees: &[&XmlTree]) -> Vec<XmlTree> {
    assert!(!trees.is_empty());
    for t in trees {
        assert!(
            t.alphabet.compatible_with(&trees[0].alphabet),
            "incompatible alphabets"
        );
    }
    // Enumerate all same-label node tuples.
    let mut tuples: Vec<Vec<NodeId>> = vec![vec![]];
    for t in trees {
        let mut next = Vec::new();
        for partial in &tuples {
            for id in t.node_ids() {
                if partial.is_empty() || trees[0].node(partial[0]).label == t.node(id).label {
                    let mut ext = partial.clone();
                    ext.push(id);
                    next.push(ext);
                }
            }
        }
        tuples = next;
    }
    let index: BTreeMap<Vec<NodeId>, usize> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| (t.clone(), i))
        .collect();
    // Parent tuple of each tuple, when valid.
    let parent: Vec<Option<usize>> = tuples
        .iter()
        .map(|tuple| {
            let parents: Option<Vec<NodeId>> = tuple
                .iter()
                .zip(trees.iter())
                .map(|(&v, t)| t.node(v).parent)
                .collect();
            parents.and_then(|p| index.get(&p).copied())
        })
        .collect();
    // Children lists.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); tuples.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(i);
        }
    }
    // Build one XmlTree per forest root.
    let mut nulls = TupleNulls::for_trees(trees);
    let mut out = Vec::new();
    for root in (0..tuples.len()).filter(|&i| parent[i].is_none()) {
        let mut tree = new_from_tuple(trees, &tuples[root], &mut nulls);
        // BFS attach.
        let mut stack: Vec<(usize, NodeId)> = vec![(root, 0)];
        while let Some((ti, node_in_tree)) = stack.pop() {
            for &child in &children[ti] {
                let label = trees[0]
                    .alphabet
                    .name(trees[0].node(tuples[child][0]).label);
                let data = merged_data(trees, &tuples[child], &mut nulls);
                let cid = tree.add_child(node_in_tree, label, data);
                stack.push((child, cid));
            }
        }
        out.push(tree);
    }
    out
}

fn merged_data(trees: &[&XmlTree], tuple: &[NodeId], nulls: &mut TupleNulls) -> Vec<Value> {
    let arity = trees[0].node(tuple[0]).data.len();
    (0..arity)
        .map(|i| {
            let vals: Vec<Value> = tuple
                .iter()
                .zip(trees.iter())
                .map(|(&v, t)| t.node(v).data[i])
                .collect();
            nulls.merge(&vals)
        })
        .collect()
}

fn new_from_tuple(trees: &[&XmlTree], tuple: &[NodeId], nulls: &mut TupleNulls) -> XmlTree {
    let label = trees[0].alphabet.name(trees[0].node(tuple[0]).label);
    let data = merged_data(trees, tuple, nulls);
    XmlTree::new(trees[0].alphabet.clone(), label, data)
}

/// The glb `⋀ {trees}` of finitely many unordered trees, if it exists:
/// the dominant component of the product forest.
pub fn glb_many(trees: &[&XmlTree]) -> Option<XmlTree> {
    if trees.is_empty() {
        return None;
    }
    if trees.len() == 1 {
        return Some((*trees[0]).clone());
    }
    let components = product_forest(trees);
    let dominant = components
        .iter()
        .position(|c| components.iter().all(|other| tree_leq(other, c)))?;
    Some(components[dominant].clone())
}

/// Binary glb `T ∧ T′`.
pub fn glb_trees(a: &XmlTree, b: &XmlTree) -> Option<XmlTree> {
    glb_many(&[a, b])
}

/// The max-description of a finite set of trees — by Theorem 1 this is
/// exactly the glb, so this is an alias with the \[16\] terminology.
pub fn max_description(trees: &[&XmlTree]) -> Option<XmlTree> {
    glb_many(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::{tree_equiv, tree_leq};
    use crate::tree::{example_alphabet, Alphabet, XmlTree};
    use ca_core::value::Value;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    #[test]
    fn glb_of_two_groundings_recovers_shared_shape() {
        // T1 = r[a(1,2)], T2 = r[a(1,3)] ⇒ glb ∼ r[a(1,⊥)].
        let alpha = example_alphabet();
        let mut t1 = XmlTree::new(alpha.clone(), "r", vec![]);
        t1.add_child(0, "a", vec![c(1), c(2)]);
        let mut t2 = XmlTree::new(alpha.clone(), "r", vec![]);
        t2.add_child(0, "a", vec![c(1), c(3)]);
        let meet = glb_trees(&t1, &t2).expect("documents share the root label");
        let mut expected = XmlTree::new(alpha, "r", vec![]);
        expected.add_child(0, "a", vec![c(1), n(99)]);
        assert!(tree_equiv(&meet, &expected), "got {meet}");
    }

    #[test]
    fn glb_is_a_lower_bound_dominating_others() {
        let alpha = example_alphabet();
        let mut t1 = XmlTree::new(alpha.clone(), "r", vec![]);
        let a1 = t1.add_child(0, "a", vec![c(1), c(2)]);
        t1.add_child(a1, "b", vec![c(5)]);
        let mut t2 = XmlTree::new(alpha.clone(), "r", vec![]);
        let a2 = t2.add_child(0, "a", vec![c(1), c(9)]);
        t2.add_child(a2, "b", vec![c(5)]);
        t2.add_child(0, "c", vec![c(7)]);
        let meet = glb_trees(&t1, &t2).unwrap();
        assert!(tree_leq(&meet, &t1));
        assert!(tree_leq(&meet, &t2));
        // Sampled lower bounds all map into the glb.
        let mut lb1 = XmlTree::new(alpha.clone(), "r", vec![]);
        lb1.add_child(0, "a", vec![c(1), n(1)]);
        let lb2 = XmlTree::new(alpha.clone(), "b", vec![c(5)]);
        let mut lb3 = XmlTree::new(alpha, "r", vec![]);
        let a3 = lb3.add_child(0, "a", vec![n(1), n(2)]);
        lb3.add_child(a3, "b", vec![n(3)]);
        for lb in [&lb1, &lb2, &lb3] {
            assert!(tree_leq(lb, &t1) && tree_leq(lb, &t2));
            assert!(tree_leq(lb, &meet), "lower bound {lb} must map into glb");
        }
    }

    #[test]
    fn glb_fails_without_root_discipline() {
        // T1 = p[q], T2 = q[p]: components are the single-node trees p and
        // q, incomparable ⇒ no glb.
        let alpha = Alphabet::from_labels(&[("p", 0), ("q", 0)]);
        let mut t1 = XmlTree::new(alpha.clone(), "p", vec![]);
        t1.add_child(0, "q", vec![]);
        let mut t2 = XmlTree::new(alpha, "q", vec![]);
        t2.add_child(0, "p", vec![]);
        assert!(glb_trees(&t1, &t2).is_none());
        let forest = product_forest(&[&t1, &t2]);
        assert_eq!(forest.len(), 2);
    }

    #[test]
    fn glb_with_shared_nulls_keeps_equalities() {
        // T1 = r[a(⊥1,⊥1)], T2 = r[a(2,2)] ⇒ glb has equal data values.
        let alpha = example_alphabet();
        let mut t1 = XmlTree::new(alpha.clone(), "r", vec![]);
        t1.add_child(0, "a", vec![n(1), n(1)]);
        let mut t2 = XmlTree::new(alpha, "r", vec![]);
        t2.add_child(0, "a", vec![c(2), c(2)]);
        let meet = glb_trees(&t1, &t2).unwrap();
        let a_node = meet.node(meet.node(0).children[0]);
        assert_eq!(a_node.data[0], a_node.data[1], "⊗ shares the pair null");
    }

    #[test]
    fn glb_of_three_documents() {
        let alpha = example_alphabet();
        let make = |second: i64| {
            let mut t = XmlTree::new(alpha.clone(), "r", vec![]);
            t.add_child(0, "a", vec![c(1), c(second)]);
            t.add_child(0, "b", vec![c(second)]);
            t
        };
        let (t1, t2, t3) = (make(2), make(3), make(2));
        let meet = max_description(&[&t1, &t2, &t3]).unwrap();
        for t in [&t1, &t2, &t3] {
            assert!(tree_leq(&meet, t));
        }
        // The a-child with first attribute 1 is certain.
        let mut lb = XmlTree::new(alpha, "r", vec![]);
        lb.add_child(0, "a", vec![c(1), n(1)]);
        assert!(tree_leq(&lb, &meet));
    }

    #[test]
    fn glb_of_equivalent_trees_is_equivalent() {
        let alpha = example_alphabet();
        let t1 = XmlTree::new(alpha.clone(), "a", vec![n(1), n(2)]);
        let t2 = XmlTree::new(alpha, "a", vec![n(7), n(8)]);
        let meet = glb_trees(&t1, &t2).unwrap();
        assert!(tree_equiv(&meet, &t1));
    }

    #[test]
    fn singleton_glb_is_identity() {
        let t = crate::tree::example_tree();
        let meet = glb_many(&[&t]).unwrap();
        assert_eq!(meet, t);
    }

    #[test]
    fn product_forest_respects_depth_alignment() {
        // With the document discipline (unique root label), nodes pair up
        // only at equal depths from the respective roots.
        let alpha = example_alphabet();
        let mut t1 = XmlTree::new(alpha.clone(), "r", vec![]);
        let a1 = t1.add_child(0, "a", vec![c(1), c(1)]);
        t1.add_child(a1, "b", vec![c(2)]);
        let mut t2 = XmlTree::new(alpha, "r", vec![]);
        let a2 = t2.add_child(0, "a", vec![c(1), c(1)]);
        t2.add_child(a2, "b", vec![c(2)]);
        let forest = product_forest(&[&t1, &t2]);
        // Components: the aligned (r,r)-(a,a)-(b,b) tree dominates;
        // stray same-label pairs at different depths form their own
        // (dominated) components.
        let meet = glb_trees(&t1, &t2).unwrap();
        assert!(tree_equiv(&meet, &t1));
        assert!(!forest.is_empty());
    }
}
