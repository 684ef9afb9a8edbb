//! The consistency problem (Proposition 11).
//!
//! `Cons(ϕ)`: given a generalized database `D`, is there a completion
//! `D′ ∈ [[D]]` whose *structural part* satisfies the (fixed) sentence
//! `ϕ`? Proposition 11 classifies the complexity by the quantifier prefix
//! of `ϕ` in the Bernays–Schönfinkel class:
//!
//! * ∃\* — **PTIME** (in fact constant for fixed `ϕ`): consistency is just
//!   satisfiability of `ϕ`, because a model can be disjointly unioned onto
//!   any completion of `D` and existential sentences survive extensions
//!   ([`cons_existential`]);
//! * ∃\*∀\* — **NP**: a model of size `|D| + #∃-quantifiers` exists iff any
//!   does; we search homomorphic images of `D`'s structure extended by
//!   that many fresh nodes ([`cons_exists_forall`], exhaustive and
//!   exponential — it is an NP problem — intended for small instances);
//! * already ∃\*∀ is **NP-complete**: "is there a homomorphism into the
//!   fixed structure `M′`" is expressible (e.g. `M′ = K₃` gives
//!   3-colorability); [`cons_hom_to_fixed`] implements that family
//!   directly.

use ca_core::value::Value;
use ca_hom::structure::RelStructure;

use crate::database::GenDb;
use crate::logic::{eval_gfo, GFo};

/// Check that a formula speaks only about the structural part (σ
/// relations, labels, node equality — no attribute comparisons).
pub fn is_structural(phi: &GFo) -> bool {
    match phi {
        GFo::Rel(..) | GFo::Label(..) | GFo::NodeEq(..) => true,
        GFo::AttrEq { .. } => false,
        GFo::Not(f) | GFo::Exists(_, f) | GFo::Forall(_, f) => is_structural(f),
        GFo::And(fs) | GFo::Or(fs) => fs.iter().all(is_structural),
    }
}

/// Count the leading existential quantifiers (the `k` of the size bound).
pub fn count_existentials(phi: &GFo) -> usize {
    match phi {
        GFo::Exists(_, f) => 1 + count_existentials(f),
        _ => 0,
    }
}

/// Enumerate all colored structures (as data-free [`GenDb`]s over `d`'s
/// schema) with exactly `size` nodes, bounded enumeration of labelings
/// and relation tuples. Exponential: `size` must stay tiny.
fn for_each_structure<F: FnMut(&GenDb) -> bool>(
    template: &GenDb,
    size: usize,
    visit: &mut F,
) -> bool {
    let schema = &template.schema;
    let n_labels = schema.n_labels();
    assert!(size <= 4, "structure enumeration limited to 4 nodes");
    // Enumerate labelings.
    let mut labeling = vec![0usize; size];
    loop {
        // For this labeling, enumerate relation tuple sets.
        let mut all_tuples: Vec<(String, Vec<u32>)> = Vec::new();
        for rel in schema.relation_symbols() {
            let ar = schema.relation_arity(rel);
            let mut tuple = vec![0u32; ar];
            loop {
                all_tuples.push((schema.relation_name(rel).to_owned(), tuple.clone()));
                let mut pos = 0;
                loop {
                    if pos == ar {
                        break;
                    }
                    tuple[pos] += 1;
                    if (tuple[pos] as usize) < size {
                        break;
                    }
                    tuple[pos] = 0;
                    pos += 1;
                }
                if pos == ar {
                    break;
                }
            }
        }
        assert!(
            all_tuples.len() <= 20,
            "tuple-set enumeration limited to 2^20 subsets"
        );
        for mask in 0u64..(1 << all_tuples.len()) {
            let mut db = GenDb::new(schema.clone());
            for &l in &labeling {
                let sym = ca_core::symbol::Symbol(l as u32);
                let arity = schema.label_arity(sym);
                db.add_node(schema.label_name(sym), vec![Value::Const(0); arity]);
            }
            for (i, (rel, t)) in all_tuples.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    db.add_tuple(rel, t.clone());
                }
            }
            if !visit(&db) {
                return false;
            }
        }
        // Next labeling.
        let mut pos = 0;
        loop {
            if pos == size {
                return true;
            }
            labeling[pos] += 1;
            if labeling[pos] < n_labels {
                break;
            }
            labeling[pos] = 0;
            pos += 1;
        }
    }
}

/// `Cons(ϕ)` for existential structural `ϕ`: equals satisfiability of
/// `ϕ`, checked by small-model enumeration (models of size ≤ #∃-vars
/// suffice for ∃\* sentences).
///
/// # Panics
///
/// Panics if `ϕ` is not structural or not existential.
pub fn cons_existential(d: &GenDb, phi: &GFo) -> bool {
    assert!(is_structural(phi), "consistency conditions are structural");
    assert!(phi.is_existential(), "∃* fragment required");
    let k = count_existentials(phi).max(1);
    let mut sat = false;
    for size in 1..=k {
        for_each_structure(d, size, &mut |m: &GenDb| {
            if eval_gfo(phi, m) {
                sat = true;
                false
            } else {
                true
            }
        });
        if sat {
            break;
        }
    }
    sat
}

/// `Cons(ϕ)` for ∃\*∀\* structural `ϕ`, decided exactly by bounded model
/// search: enumerate candidate complete structures `M′` of size up to
/// `|D| + #∃(ϕ)`, require `M′ ⊨ ϕ` together with a label-preserving
/// structural homomorphism `M → M′` whose induced node merges are
/// *data-consistent* (mergeable nodes must have unifiable data tuples —
/// checked by union-find over the values). Exponential; small instances
/// only (this is the NP algorithm of Proposition 11, run exhaustively).
pub fn cons_exists_forall(d: &GenDb, phi: &GFo) -> bool {
    assert!(is_structural(phi), "consistency conditions are structural");
    let bound = d.n_nodes() + count_existentials(phi);
    let mut found = false;
    for size in 1..=bound.min(4) {
        for_each_structure(d, size, &mut |m: &GenDb| {
            if eval_gfo(phi, m) && hom_with_data_consistency(d, m) {
                found = true;
                false
            } else {
                true
            }
        });
        if found {
            return true;
        }
    }
    found
}

/// Is there a label-preserving structural homomorphism `d → m` whose node
/// merges admit a consistent grounding of the data (no two distinct
/// constants forced equal)?
fn hom_with_data_consistency(d: &GenDb, m: &GenDb) -> bool {
    let src = d.colored_structure();
    let dst = m.colored_structure();
    let csp = src.hom_csp(&dst);
    // Enumerate structural homomorphisms, checking data unification for
    // each: union ρ(ν)[i] with ρ(ν′)[i] whenever h merges ν and ν′, and
    // reject if two distinct constants land in one class. (Bounded
    // enumeration: small instances only.)
    let homs = csp.solve_all(10_000);
    homs.solutions.iter().any(|h| {
        let mut uf = UnionFind::new();
        for v in 0..d.n_nodes() {
            for w in (v + 1)..d.n_nodes() {
                if h[v] == h[w] {
                    for (a, b) in d.node(v).iter().zip(d.node(w)) {
                        uf.union(*a, *b);
                    }
                }
            }
        }
        uf.consistent()
    })
}

/// A tiny union-find over [`Value`]s tracking constant clashes.
struct UnionFind {
    parent: std::collections::BTreeMap<Value, Value>,
    clash: bool,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind {
            parent: std::collections::BTreeMap::new(),
            clash: false,
        }
    }

    fn find(&mut self, v: Value) -> Value {
        let p = *self.parent.get(&v).unwrap_or(&v);
        if p == v {
            return v;
        }
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    fn union(&mut self, a: Value, b: Value) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        match (ra, rb) {
            (Value::Const(x), Value::Const(y)) if x != y => {
                self.clash = true;
            }
            // Point nulls at constants so constants stay roots.
            (Value::Const(_), _) => {
                self.parent.insert(rb, ra);
            }
            _ => {
                self.parent.insert(ra, rb);
            }
        }
    }

    fn consistent(&self) -> bool {
        !self.clash
    }
}

/// The NP-hard ∃\*∀ family from the Proposition 11 proof: consistency
/// with "the structure maps homomorphically into the fixed structure
/// `target`". With `target = K₃` this is 3-colorability. All labels must
/// be data-free (`ar = 0`), as in the proof.
pub fn cons_hom_to_fixed(d: &GenDb, target: &RelStructure) -> bool {
    assert!(
        d.schema
            .label_symbols()
            .all(|s| d.schema.label_arity(s) == 0),
        "the hardness family uses data-free labels"
    );
    d.colored_structure().hom_to(target).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::GenSchema;

    fn graph_schema() -> GenSchema {
        GenSchema::from_parts(&[("v", 0)], &[("E", 2)])
    }

    fn graph_db(n: usize, edges: &[(u32, u32)]) -> GenDb {
        let mut d = GenDb::new(graph_schema());
        for _ in 0..n {
            d.add_node("v", vec![]);
        }
        for &(u, v) in edges {
            d.add_tuple("E", vec![u, v]);
        }
        d
    }

    #[test]
    fn existential_consistency_is_satisfiability() {
        let d = graph_db(2, &[(0, 1)]);
        // ∃x E(x,x): satisfiable (a loop exists somewhere) ⇒ consistent.
        let loop_exists = GFo::exists(0, GFo::Rel("E".into(), vec![0, 0]));
        assert!(cons_existential(&d, &loop_exists));
        // ∃x (E(x,x) ∧ ¬E(x,x)): unsatisfiable.
        let contradiction = GFo::exists(
            0,
            GFo::And(vec![
                GFo::Rel("E".into(), vec![0, 0]),
                GFo::Rel("E".into(), vec![0, 0]).not(),
            ]),
        );
        assert!(!cons_existential(&d, &contradiction));
    }

    #[test]
    fn exists_forall_consistency() {
        // ϕ = ∀x∀y ¬E(x,y) ("no edges"). D with an edge: inconsistent —
        // every completion contains the edge's image.
        let no_edges = GFo::forall(0, GFo::forall(1, GFo::Rel("E".into(), vec![0, 1]).not()));
        let with_edge = graph_db(2, &[(0, 1)]);
        assert!(!cons_exists_forall(&with_edge, &no_edges));
        let without_edge = graph_db(2, &[]);
        assert!(cons_exists_forall(&without_edge, &no_edges));
    }

    #[test]
    fn exists_forall_with_merging() {
        // ϕ = ∀x∀y (x = y) ("one node"). D with two v-nodes and no data:
        // they can merge ⇒ consistent.
        let singleton = GFo::forall(0, GFo::forall(1, GFo::NodeEq(0, 1)));
        let two = graph_db(2, &[]);
        assert!(cons_exists_forall(&two, &singleton));
        // With distinct constant data merging is impossible.
        let schema = GenSchema::from_parts(&[("v", 1)], &[("E", 2)]);
        let mut d = GenDb::new(schema);
        d.add_node("v", vec![Value::Const(1)]);
        d.add_node("v", vec![Value::Const(2)]);
        assert!(!cons_exists_forall(&d, &singleton));
    }

    #[test]
    fn hardness_family_is_three_colorability() {
        let k3 = {
            let mut s = RelStructure::new(3);
            // Labels: P_v = symbol 0 (unary); edges at symbol offset 1.
            for v in 0..3u32 {
                s.add_tuple(0, vec![v]);
            }
            for u in 0..3u32 {
                for v in 0..3u32 {
                    if u != v {
                        s.add_tuple(1, vec![u, v]);
                    }
                }
            }
            s
        };
        // Triangle is 3-colorable.
        let tri = graph_db(3, &[(0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0)]);
        assert!(cons_hom_to_fixed(&tri, &k3));
        // K4 (symmetric) is not.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let k4 = graph_db(4, &edges);
        assert!(!cons_hom_to_fixed(&k4, &k3));
    }

    #[test]
    fn structural_check() {
        assert!(is_structural(&GFo::Rel("E".into(), vec![0, 1])));
        assert!(!is_structural(&GFo::AttrEq {
            i: 0,
            j: 0,
            x: 0,
            y: 1
        }));
    }
}
