//! Generalized databases `D = ⟨M, λ, ρ⟩`.

use std::collections::BTreeSet;

use ca_core::symbol::Symbol;
use ca_core::value::{Null, Value};
use ca_hom::structure::RelStructure;

use crate::schema::GenSchema;

/// A generalized database: nodes with labels and data tuples, plus
/// structural relation tuples over the nodes. The nodes live in one
/// arena (the labels, every data tuple back to back, per-node end
/// offsets), so a node costs no allocation of its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenDb {
    /// The schema.
    pub schema: GenSchema,
    /// Per-node label.
    labels: Vec<Symbol>,
    /// Every node's data tuple (length = `ar(label)`), in node order.
    values: Vec<Value>,
    /// Per node, the end of its data tuple in `values`.
    ends: Vec<usize>,
    /// Structural tuples `(relation, nodes)`.
    pub tuples: Vec<(Symbol, Vec<u32>)>,
}

impl GenDb {
    /// An empty database over a schema.
    pub fn new(schema: GenSchema) -> Self {
        GenDb {
            schema,
            labels: Vec::new(),
            values: Vec::new(),
            ends: Vec::new(),
            tuples: Vec::new(),
        }
    }

    /// Add a node with the given label and data tuple; returns its id.
    pub fn add_node(&mut self, label: &str, data: Vec<Value>) -> u32 {
        let sym = self
            .schema
            .label(label)
            .unwrap_or_else(|| panic!("unknown label {label}"));
        self.push_node(sym, &data)
    }

    /// Add a node with a label symbol of the schema and a data tuple;
    /// returns its id.
    pub fn push_node(&mut self, label: Symbol, data: &[Value]) -> u32 {
        assert_eq!(
            data.len(),
            self.schema.label_arity(label),
            "data arity for label {}",
            self.schema.label_name(label)
        );
        self.labels.push(label);
        self.values.extend_from_slice(data);
        self.ends.push(self.values.len());
        (self.labels.len() - 1) as u32
    }

    /// Add a structural tuple.
    pub fn add_tuple(&mut self, rel: &str, nodes: Vec<u32>) {
        let sym = self
            .schema
            .relation(rel)
            .unwrap_or_else(|| panic!("unknown relation {rel}"));
        assert_eq!(
            nodes.len(),
            self.schema.relation_arity(sym),
            "tuple arity for relation {rel}"
        );
        assert!(nodes.iter().all(|&n| (n as usize) < self.labels.len()));
        let t = (sym, nodes);
        if !self.tuples.contains(&t) {
            self.tuples.push(t);
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.labels.len()
    }

    /// `λ`: the label of every node, in node order.
    pub fn labels(&self) -> &[Symbol] {
        &self.labels
    }

    /// `ρ(i)`: the data tuple of node `i`.
    pub fn node(&self, i: usize) -> &[Value] {
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
        &self.values[start..self.ends[i]]
    }

    /// Every node's label and data tuple, in node order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (Symbol, &[Value])> + Clone {
        (0..self.n_nodes()).map(|i| (self.labels[i], self.node(i)))
    }

    /// Every value of every data tuple, in node order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// `N(D)`: nulls occurring in data tuples.
    pub fn nulls(&self) -> BTreeSet<Null> {
        self.values.iter().filter_map(|v| v.as_null()).collect()
    }

    /// `C(D)`: constants occurring in data tuples.
    pub fn constants(&self) -> BTreeSet<i64> {
        self.values.iter().filter_map(|v| v.as_const()).collect()
    }

    /// Is the database complete (null-free)?
    pub fn is_complete(&self) -> bool {
        self.values.iter().all(|v| v.is_const())
    }

    /// Does `ρ` have the Codd interpretation: each null occurs at most
    /// once across all data tuples?
    pub fn is_codd(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.values
            .iter()
            .filter_map(|v| v.as_null())
            .all(|n| seen.insert(n))
    }

    /// Apply a null valuation to all data tuples.
    pub fn map_values<F: Fn(Value) -> Value>(&self, f: F) -> GenDb {
        let mut out = self.clone();
        out.values.iter_mut().for_each(|v| *v = f(*v));
        out
    }

    /// The colored structural part `M_λ` as a [`RelStructure`]: the σ
    /// relations (symbol ids offset by the number of labels) plus one
    /// unary relation per label `a` (symbol id = the label's index),
    /// exactly the paper's `P_a` encoding.
    pub fn colored_structure(&self) -> RelStructure {
        let n_labels = self.schema.n_labels() as u32;
        let mut s = RelStructure::new(self.n_nodes());
        for (node, label) in self.labels.iter().enumerate() {
            s.add_tuple(label.0, vec![node as u32]);
        }
        for (rel, nodes) in &self.tuples {
            s.add_tuple(n_labels + rel.0, nodes.clone());
        }
        s
    }

    /// The structural part *without* labels (σ relations only; relation
    /// symbol ids are the raw σ indices). Used by the Theorem 6 algorithm,
    /// where labels are folded into the compatibility relation instead.
    pub fn bare_structure(&self) -> RelStructure {
        let mut s = RelStructure::new(self.n_nodes());
        for (rel, nodes) in &self.tuples {
            s.add_tuple(rel.0, nodes.clone());
        }
        s
    }

    /// The disjoint union `D ⊔ D′` (same schema; nulls are *not* renamed).
    pub fn disjoint_union(&self, other: &GenDb) -> GenDb {
        assert_eq!(self.schema, other.schema, "same schema required");
        let shift = self.n_nodes() as u32;
        let base = self.values.len();
        let mut out = self.clone();
        out.labels.extend_from_slice(&other.labels);
        out.values.extend_from_slice(&other.values);
        out.ends.extend(other.ends.iter().map(|&end| base + end));
        for (rel, nodes) in &other.tuples {
            out.tuples
                .push((*rel, nodes.iter().map(|&n| n + shift).collect()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::GenSchema;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// The paper's Section 5.1 example:
    /// `{R(1,⊥1), S(⊥1,⊥2,2)}` as a generalized database.
    pub(crate) fn paper_example() -> GenDb {
        let schema = GenSchema::from_parts(&[("R", 2), ("S", 3)], &[]);
        let mut d = GenDb::new(schema);
        d.add_node("R", vec![c(1), n(1)]);
        d.add_node("S", vec![n(1), n(2), c(2)]);
        d
    }

    #[test]
    fn paper_example_shape() {
        let d = paper_example();
        assert_eq!(d.n_nodes(), 2);
        assert_eq!(d.nulls().len(), 2);
        assert_eq!(d.constants(), BTreeSet::from([1, 2]));
        assert!(!d.is_complete());
        assert!(!d.is_codd()); // ⊥1 occurs twice (across nodes)
        assert!(d.tuples.is_empty()); // σ = ∅
    }

    #[test]
    fn xml_like_database() {
        let schema = GenSchema::from_parts(&[("r", 0), ("a", 2)], &[("child", 2)]);
        let mut d = GenDb::new(schema);
        let root = d.add_node("r", vec![]);
        let a = d.add_node("a", vec![c(1), n(1)]);
        d.add_tuple("child", vec![root, a]);
        assert_eq!(d.n_nodes(), 2);
        assert_eq!(d.tuples.len(), 1);
        assert!(d.is_codd());
    }

    #[test]
    fn colored_structure_encoding() {
        let schema = GenSchema::from_parts(&[("r", 0), ("a", 1)], &[("child", 2)]);
        let mut d = GenDb::new(schema);
        let root = d.add_node("r", vec![]);
        let a = d.add_node("a", vec![n(1)]);
        d.add_tuple("child", vec![root, a]);
        let s = d.colored_structure();
        // Two unary label tuples + one binary child tuple.
        assert_eq!(s.tuples.len(), 3);
        assert_eq!(s.relation(0).count(), 1); // P_r
        assert_eq!(s.relation(1).count(), 1); // P_a
        assert_eq!(s.relation(2).count(), 1); // child (offset by 2 labels)
    }

    /// An XML-like database: the root `r/0` and `b/0` carry no data,
    /// `a/2` and `c/1` do.
    fn mixed_arities() -> GenDb {
        let schema = GenSchema::from_parts(&[("r", 0), ("a", 2), ("b", 0), ("c", 1)], &[("e", 2)]);
        let mut d = GenDb::new(schema);
        let root = d.add_node("r", vec![]);
        let a = d.add_node("a", vec![c(1), n(1)]);
        let b = d.add_node("b", vec![]);
        let c3 = d.add_node("c", vec![n(2)]);
        d.add_tuple("e", vec![root, a]);
        d.add_tuple("e", vec![b, c3]);
        d
    }

    #[test]
    fn zero_arity_nodes_sit_beside_wider_ones() {
        let d = mixed_arities();
        let empty: &[Value] = &[];
        assert_eq!(d.n_nodes(), 4);
        assert_eq!(d.node(0), empty);
        assert_eq!(d.node(1), [c(1), n(1)]);
        assert_eq!(d.node(2), empty);
        assert_eq!(d.node(3), [n(2)]);
        assert_eq!(d.values(), [c(1), n(1), n(2)]);
        let labels: Vec<&str> = d.labels().iter().map(|&l| d.schema.label_name(l)).collect();
        assert_eq!(labels, ["r", "a", "b", "c"]);
        assert_eq!(d.nodes().len(), 4);
        for (i, (label, data)) in d.nodes().enumerate() {
            assert_eq!((label, data), (d.labels()[i], d.node(i)));
        }
        // A database of only nullary nodes has no values at all.
        let mut bare = GenDb::new(d.schema.clone());
        bare.add_node("r", vec![]);
        bare.add_node("b", vec![]);
        assert_eq!(
            (bare.node(0), bare.node(1), bare.values()),
            (empty, empty, empty)
        );
    }

    #[test]
    fn node_returns_what_add_node_was_given() {
        let schema = GenSchema::from_parts(&[("R", 2), ("S", 3), ("T", 0)], &[]);
        let given: Vec<(&str, Vec<Value>)> = (0..40)
            .map(|i| match i % 3 {
                0 => ("R", vec![c(i), n(i as u32)]),
                1 => ("S", vec![n(i as u32), c(i), c(-i)]),
                _ => ("T", vec![]),
            })
            .collect();
        let mut d = GenDb::new(schema);
        for (i, (label, data)) in given.iter().enumerate() {
            assert_eq!(d.add_node(label, data.clone()), i as u32);
        }
        for (i, (label, data)) in given.iter().enumerate() {
            assert_eq!(d.schema.label_name(d.labels()[i]), *label);
            assert_eq!(d.node(i), data.as_slice());
        }
        let flat: Vec<Value> = given.iter().flat_map(|(_, t)| t.iter().copied()).collect();
        assert_eq!(d.values(), flat.as_slice());
    }

    #[test]
    fn add_node_and_push_node_build_equal_databases() {
        let d = mixed_arities();
        let mut pushed = GenDb::new(d.schema.clone());
        for (label, data) in d.nodes() {
            pushed.push_node(label, data);
        }
        pushed.tuples = d.tuples.clone();
        assert_eq!(pushed, d);
    }

    #[test]
    #[should_panic(expected = "data arity for label a")]
    fn push_node_checks_the_arity() {
        let mut d = mixed_arities();
        let a = d.schema.label("a").unwrap();
        d.push_node(a, &[c(1)]);
    }

    #[test]
    fn map_values_rewrites_every_value() {
        let d = mixed_arities();
        let shifted = d.map_values(|v| match v {
            Value::Const(x) => c(x + 10),
            Value::Null(nl) => n(nl.0 + 10),
        });
        assert_eq!(shifted.values(), [c(11), n(11), n(12)]);
        assert_eq!(shifted.labels(), d.labels());
        assert_eq!(shifted.node(1), [c(11), n(11)]);
        assert_eq!(shifted.node(2), d.node(2));
        assert_eq!(shifted.node(3), [n(12)]);
        assert_eq!(shifted.tuples, d.tuples);
        let ground = d.map_values(|_| c(0));
        assert!(ground.is_complete());
        assert_eq!(ground.constants(), BTreeSet::from([0]));
    }

    #[test]
    fn disjoint_union_shifts_tuples() {
        let schema = GenSchema::from_parts(&[("a", 0)], &[("e", 2)]);
        let mut d1 = GenDb::new(schema.clone());
        let x = d1.add_node("a", vec![]);
        let y = d1.add_node("a", vec![]);
        d1.add_tuple("e", vec![x, y]);
        let u = d1.disjoint_union(&d1.clone());
        assert_eq!(u.n_nodes(), 4);
        assert_eq!(u.tuples.len(), 2);
        assert_eq!(u.tuples[1].1, vec![2, 3]);
    }

    #[test]
    fn disjoint_union_keeps_each_node_slice() {
        let d = mixed_arities();
        let other = right_operand(&d.schema);
        let u = d.disjoint_union(&other);
        assert_eq!(u.n_nodes(), d.n_nodes() + other.n_nodes());
        for i in 0..d.n_nodes() {
            assert_eq!((u.labels()[i], u.node(i)), (d.labels()[i], d.node(i)));
        }
        for i in 0..other.n_nodes() {
            let j = d.n_nodes() + i;
            assert_eq!(
                (u.labels()[j], u.node(j)),
                (other.labels()[i], other.node(i))
            );
        }
        assert_eq!(u.values(), [d.values(), other.values()].concat().as_slice());
        // Tuples of the right operand move past the left operand's nodes.
        assert_eq!(&u.tuples[..2], d.tuples.as_slice());
        assert_eq!(u.tuples[2].1, vec![4, 6]);
        // Union with an empty database keeps every slice as it was.
        assert_eq!(d.disjoint_union(&GenDb::new(d.schema.clone())), d);
        let after_empty = GenDb::new(d.schema.clone()).disjoint_union(&d);
        assert_eq!(after_empty, d);
    }

    /// `a(2, ⊥3)`, `r`, `c(3)` with an `e` edge from the first to the
    /// third node, over `schema`'s labels.
    fn right_operand(schema: &GenSchema) -> GenDb {
        let mut d = GenDb::new(schema.clone());
        let a = d.add_node("a", vec![c(2), n(3)]);
        d.add_node("r", vec![]);
        let c3 = d.add_node("c", vec![c(3)]);
        d.add_tuple("e", vec![a, c3]);
        d
    }

    #[test]
    fn codd_within_one_tuple() {
        let schema = GenSchema::from_parts(&[("R", 2)], &[]);
        let mut d = GenDb::new(schema);
        d.add_node("R", vec![n(1), n(1)]);
        assert!(!d.is_codd());
    }
}
