//! Schemas for documents and the consistency problem for tree patterns.
//!
//! Section 6 of the paper notes that the consistency problem — does an
//! incomplete description have a completion satisfying the schema? — "is
//! commonly considered in the XML context, where schemas are usually more
//! complex", and that it "tends to be NP-complete, and in PTIME with
//! suitable restrictions \[7\]". This module implements a simple edge-based
//! schema class (which parent labels may have which child labels, plus a
//! designated root) where consistency of *tree-shaped* child/descendant
//! patterns is polynomial: a pattern has a conforming completion iff its
//! root label is schema-reachable and each pattern edge is realizable
//! (allowed pair for `child`, nonempty allowed path for `descendant`).
//! Data never obstructs consistency — nulls can always be completed with
//! fresh constants, consistently across shared nulls.

use std::collections::BTreeSet;

use ca_core::symbol::Symbol;

use crate::axes::{Axis, AxisPattern};
use crate::tree::{Alphabet, XmlTree};

/// A simple DTD-like schema: a designated root label and the set of
/// allowed parent→child label pairs.
#[derive(Clone, Debug)]
pub struct EdgeSchema {
    /// The required root label.
    pub root: Symbol,
    /// Allowed `(parent label, child label)` pairs.
    pub allowed: BTreeSet<(Symbol, Symbol)>,
}

impl EdgeSchema {
    /// Build from names against an alphabet.
    pub fn new(alphabet: &Alphabet, root: &str, pairs: &[(&str, &str)]) -> Self {
        let resolve = |name: &str| {
            alphabet
                .label(name)
                .unwrap_or_else(|| panic!("unknown label {name}"))
        };
        EdgeSchema {
            root: resolve(root),
            allowed: pairs
                .iter()
                .map(|&(p, c)| (resolve(p), resolve(c)))
                .collect(),
        }
    }

    /// Does a document conform: root label matches and every edge is an
    /// allowed pair?
    pub fn conforms(&self, doc: &XmlTree) -> bool {
        doc.node(doc.root()).label == self.root
            && doc.edges().all(|(p, c)| {
                self.allowed
                    .contains(&(doc.node(p).label, doc.node(c).label))
            })
    }

    /// Labels reachable from the root through allowed pairs (including the
    /// root itself).
    pub fn reachable(&self) -> BTreeSet<Symbol> {
        let mut seen = BTreeSet::from([self.root]);
        let mut frontier = vec![self.root];
        while let Some(l) = frontier.pop() {
            for &(p, c) in &self.allowed {
                if p == l && seen.insert(c) {
                    frontier.push(c);
                }
            }
        }
        seen
    }

    /// Is there an allowed path of length ≥ 1 from label `from` to label
    /// `to`?
    pub fn path_exists(&self, from: Symbol, to: Symbol) -> bool {
        let mut seen = BTreeSet::new();
        let mut frontier: Vec<Symbol> = self
            .allowed
            .iter()
            .filter(|&&(p, _)| p == from)
            .map(|&(_, c)| c)
            .collect();
        while let Some(l) = frontier.pop() {
            if !seen.insert(l) {
                continue;
            }
            if l == to {
                return true;
            }
            for &(p, c) in &self.allowed {
                if p == l {
                    frontier.push(c);
                }
            }
        }
        false
    }
}

/// Polynomial consistency for *tree-shaped* child/descendant patterns:
/// is there a schema-conforming complete document in which the pattern
/// matches?
///
/// The pattern's edges must form a tree rooted at node 0 (each node ≠ 0
/// the target of exactly one edge, node 0 of none); `NextSibling` edges
/// are not supported by this tractable fragment.
///
/// # Panics
///
/// Panics if the pattern is not tree-shaped or uses `NextSibling`.
pub fn pattern_consistent(pattern: &AxisPattern, schema: &EdgeSchema) -> bool {
    let n = pattern.nodes.len();
    // Validate tree shape.
    let mut indeg = vec![0usize; n];
    for &(axis, _, to) in &pattern.edges {
        assert!(
            axis != Axis::NextSibling,
            "the tractable fragment excludes sibling order"
        );
        indeg[to] += 1;
    }
    assert!(
        indeg[0] == 0 && indeg[1..].iter().all(|&d| d == 1),
        "pattern must be a tree rooted at node 0"
    );

    // The pattern root must be able to sit somewhere in a conforming
    // document: its label must be the schema root or schema-reachable.
    let reachable = schema.reachable();
    if !reachable.contains(&pattern.nodes.node(0).label) {
        return false;
    }
    // Each edge must be realizable label-wise.
    pattern.edges.iter().all(|&(axis, from, to)| {
        let lf = pattern.nodes.node(from).label;
        let lt = pattern.nodes.node(to).label;
        match axis {
            Axis::Child => schema.allowed.contains(&(lf, lt)),
            Axis::Descendant => schema.path_exists(lf, lt),
            Axis::NextSibling => unreachable!("rejected above"),
        }
    })
}

/// Construct a conforming witness document for a consistent pattern:
/// start from a chain `root → … → pattern-root`, then realize each
/// pattern edge (expanding descendant edges into allowed label paths),
/// grounding nulls to fresh constants. Returns `None` when the pattern is
/// inconsistent.
pub fn witness_document(pattern: &AxisPattern, schema: &EdgeSchema) -> Option<XmlTree> {
    if !pattern_consistent(pattern, schema) {
        return None;
    }
    let alpha = &pattern.nodes.alphabet;
    // Shortest allowed chain from schema root to a given label.
    let chain_to = |target: Symbol| -> Vec<Symbol> {
        // BFS over labels.
        let mut prev: std::collections::BTreeMap<Symbol, Symbol> = Default::default();
        let mut queue = std::collections::VecDeque::from([schema.root]);
        let mut seen = BTreeSet::from([schema.root]);
        while let Some(l) = queue.pop_front() {
            if l == target {
                break;
            }
            for &(p, c) in &schema.allowed {
                if p == l && seen.insert(c) {
                    prev.insert(c, p);
                    queue.push_back(c);
                }
            }
        }
        let mut chain = vec![target];
        let mut cur = target;
        while cur != schema.root {
            cur = *prev.get(&cur).expect("target reachable");
            chain.push(cur);
        }
        chain.reverse();
        chain
    };
    // Fresh grounding of the pattern's data.
    let mut next_const = pattern
        .nodes
        .constants()
        .iter()
        .max()
        .map_or(1000, |m| m + 1000);
    let mut grounding: std::collections::BTreeMap<ca_core::value::Null, i64> = Default::default();
    let mut ground = |data: &[ca_core::value::Value]| -> Vec<ca_core::value::Value> {
        data.iter()
            .map(|v| match v {
                ca_core::value::Value::Null(nl) => {
                    let c = *grounding.entry(*nl).or_insert_with(|| {
                        next_const += 1;
                        next_const
                    });
                    ca_core::value::Value::Const(c)
                }
                c => *c,
            })
            .collect()
    };
    let zero_data = |label: Symbol| vec![ca_core::value::Value::Const(0); alpha.arity(label)];

    // Build: chain from schema root down to the pattern root.
    let chain = chain_to(pattern.nodes.node(0).label);
    let mut doc = XmlTree::new(alpha.clone(), alpha.name(chain[0]), {
        if chain.len() == 1 {
            ground(&pattern.nodes.node(0).data)
        } else {
            zero_data(chain[0])
        }
    });
    let mut cursor = doc.root();
    for (idx, &label) in chain.iter().enumerate().skip(1) {
        let data = if idx == chain.len() - 1 {
            ground(&pattern.nodes.node(0).data)
        } else {
            zero_data(label)
        };
        cursor = doc.add_child(cursor, alpha.name(label), data);
    }
    let mut placed = vec![usize::MAX; pattern.nodes.len()];
    placed[0] = cursor;
    // Realize edges in BFS order from the pattern root.
    let mut queue: Vec<usize> = vec![0];
    while let Some(p) = queue.pop() {
        for &(axis, from, to) in &pattern.edges {
            if from != p {
                continue;
            }
            let target_label = pattern.nodes.node(to).label;
            let data = ground(&pattern.nodes.node(to).data);
            let attach = match axis {
                Axis::Child => doc.add_child(placed[p], alpha.name(target_label), data),
                Axis::Descendant => {
                    // Shortest allowed path from label(from) to label(to).
                    // BFS over labels starting at label(from).
                    let lf = pattern.nodes.node(from).label;
                    let mut prev: std::collections::BTreeMap<Symbol, Symbol> = Default::default();
                    let mut seen = BTreeSet::new();
                    let mut q = std::collections::VecDeque::new();
                    for &(a, b) in &schema.allowed {
                        if a == lf && seen.insert(b) {
                            prev.insert(b, lf);
                            q.push_back(b);
                        }
                    }
                    while let Some(l) = q.pop_front() {
                        if l == target_label {
                            break;
                        }
                        for &(a, b) in &schema.allowed {
                            if a == l && seen.insert(b) {
                                prev.insert(b, l);
                                q.push_back(b);
                            }
                        }
                    }
                    let mut labels = vec![target_label];
                    let mut cur = target_label;
                    while cur != lf {
                        cur = *prev.get(&cur).expect("path exists");
                        if cur != lf {
                            labels.push(cur);
                        }
                    }
                    labels.reverse();
                    let mut at = placed[p];
                    for (k, &l) in labels.iter().enumerate() {
                        let d = if k == labels.len() - 1 {
                            data.clone()
                        } else {
                            zero_data(l)
                        };
                        at = doc.add_child(at, alpha.name(l), d);
                    }
                    at
                }
                Axis::NextSibling => unreachable!(),
            };
            placed[to] = attach;
            queue.push(to);
        }
    }
    debug_assert!(schema.conforms(&doc));
    Some(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::match_pattern;
    use ca_core::value::Value;

    fn alpha() -> Alphabet {
        Alphabet::from_labels(&[("r", 0), ("sec", 0), ("item", 1), ("note", 1)])
    }

    fn schema() -> EdgeSchema {
        // r → sec → item → note, and sec → sec (nesting).
        EdgeSchema::new(
            &alpha(),
            "r",
            &[
                ("r", "sec"),
                ("sec", "sec"),
                ("sec", "item"),
                ("item", "note"),
            ],
        )
    }

    fn pattern(
        nodes: Vec<(&'static str, Vec<Value>)>,
        edges: Vec<(Axis, usize, usize)>,
    ) -> AxisPattern {
        let a = alpha();
        let mut t = XmlTree::new(a, nodes[0].0, nodes[0].1.clone());
        for (label, data) in &nodes[1..] {
            t.add_child(0, label, data.clone());
        }
        AxisPattern { nodes: t, edges }
    }

    #[test]
    fn conformance() {
        let a = alpha();
        let mut good = XmlTree::new(a.clone(), "r", vec![]);
        let s = good.add_child(0, "sec", vec![]);
        good.add_child(s, "item", vec![Value::Const(1)]);
        assert!(schema().conforms(&good));
        let mut bad = XmlTree::new(a, "r", vec![]);
        bad.add_child(0, "item", vec![Value::Const(1)]); // r → item not allowed
        assert!(!schema().conforms(&bad));
    }

    #[test]
    fn consistent_child_pattern() {
        // sec[item(⊥)] is consistent (sec is reachable).
        let p = pattern(
            vec![("sec", vec![]), ("item", vec![Value::null(1)])],
            vec![(Axis::Child, 0, 1)],
        );
        assert!(pattern_consistent(&p, &schema()));
        let doc = witness_document(&p, &schema()).unwrap();
        assert!(schema().conforms(&doc));
        assert!(doc.is_complete());
        assert!(
            match_pattern(&p, &doc).is_some(),
            "witness realizes the pattern"
        );
    }

    #[test]
    fn inconsistent_child_pattern() {
        // item[sec]: items may not contain sections.
        let p = pattern(
            vec![("item", vec![Value::null(1)]), ("sec", vec![])],
            vec![(Axis::Child, 0, 1)],
        );
        assert!(!pattern_consistent(&p, &schema()));
        assert!(witness_document(&p, &schema()).is_none());
    }

    #[test]
    fn descendant_uses_paths() {
        // r // note: consistent via r → sec → item → note.
        let p = pattern(
            vec![("r", vec![]), ("note", vec![Value::null(1)])],
            vec![(Axis::Descendant, 0, 1)],
        );
        assert!(pattern_consistent(&p, &schema()));
        let doc = witness_document(&p, &schema()).unwrap();
        assert!(schema().conforms(&doc));
        assert!(match_pattern(&p, &doc).is_some());
        // note // r: no allowed path upward.
        let p_rev = pattern(
            vec![("note", vec![Value::null(1)]), ("r", vec![])],
            vec![(Axis::Descendant, 0, 1)],
        );
        assert!(!pattern_consistent(&p_rev, &schema()));
    }

    #[test]
    fn unreachable_root_label_is_inconsistent() {
        // A schema without notes: pattern rooted at note is inconsistent.
        let small = EdgeSchema::new(&alpha(), "r", &[("r", "sec"), ("sec", "item")]);
        let p = pattern(vec![("note", vec![Value::null(1)])], vec![]);
        assert!(!pattern_consistent(&p, &small));
    }

    #[test]
    fn shared_nulls_ground_consistently() {
        // sec[item(x) item(x)]: both items share the null; the witness
        // grounds them to the same constant.
        let a = alpha();
        let mut t = XmlTree::new(a, "sec", vec![]);
        t.add_child(0, "item", vec![Value::null(7)]);
        t.add_child(0, "item", vec![Value::null(7)]);
        let p = AxisPattern {
            nodes: t,
            edges: vec![(Axis::Child, 0, 1), (Axis::Child, 0, 2)],
        };
        let doc = witness_document(&p, &schema()).unwrap();
        assert!(match_pattern(&p, &doc).is_some());
    }
}
