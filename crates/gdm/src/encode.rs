//! Encoding relational databases and XML trees as generalized databases.
//!
//! Exactly the paper's Section 5.1 codings:
//!
//! * relational: `σ = ∅`, one node per fact labeled by its relation name,
//!   carrying the fact's tuple as data;
//! * XML: `σ = {child}`, one node per tree node with its label and data.
//!
//! Both encodings are faithful for homomorphisms (and hence for the
//! information ordering), which is what lets Section 5 derive the
//! relational and XML results as corollaries.

use ca_core::value::Value;
use ca_hom::structure::RelStructure;
use ca_relational::database::{Fact, NaiveDatabase};
use ca_xml::tree::XmlTree;

use crate::database::GenDb;
use crate::schema::GenSchema;

/// Encode a naïve relational database (`σ = ∅`).
pub fn encode_relational(db: &NaiveDatabase) -> GenDb {
    let mut schema = GenSchema::new();
    for sym in db.schema.symbols() {
        let label = schema.add_label(db.schema.name(sym), db.schema.arity(sym));
        debug_assert_eq!(label, sym, "label symbols mirror relation symbols");
    }
    let mut out = GenDb::new(schema);
    for fact in db.facts() {
        out.push_node(fact.rel, fact.args);
    }
    out
}

/// Decode a purely relational generalized database (`σ = ∅`) back into a
/// naïve relational database: one fact per node, the node's label read
/// as the relation name. The inverse of [`encode_relational`] up to
/// duplicate nodes (a [`NaiveDatabase`] is a fact *set*, so nodes with
/// equal label and data collapse into one fact). Returns `None` when the
/// database carries structural tuples — those have no relational
/// reading. This is the bridge that lets the data-exchange chase and
/// certain-answer paths run on the compiled join engine of `ca_query`.
///
/// Relations are registered in label order, so each node's label symbol
/// is its relation symbol. Each node's data is copied once, into its
/// relation's row buffer; a node list in canonical `(label, data)` order
/// — what the chase engine returns — is already in [`Fact`] order, so
/// [`NaiveDatabase::from_facts`] checks each relation's order in one
/// pass and sorts nothing. Any other node order is accepted and sorted.
pub fn relational_view(d: &GenDb) -> Option<NaiveDatabase> {
    if !d.tuples.is_empty() {
        return None;
    }
    let mut schema = ca_relational::schema::Schema::new();
    for sym in d.schema.label_symbols() {
        let rel = schema.add_relation(d.schema.label_name(sym), d.schema.label_arity(sym));
        debug_assert_eq!(rel, sym, "relation symbols mirror label symbols");
    }
    let facts = d.nodes().map(|(rel, args)| Fact { rel, args });
    Some(NaiveDatabase::from_facts(schema, facts))
}

/// The name of the child relation used by XML encodings.
pub const CHILD: &str = "child";

/// Encode an XML tree (`σ = {child}`).
pub fn encode_xml(t: &XmlTree) -> GenDb {
    let mut schema = GenSchema::new();
    for (_, name, arity) in t.alphabet.labels() {
        schema.add_label(name, arity);
    }
    schema.add_relation(CHILD, 2);
    let mut out = GenDb::new(schema);
    for id in t.node_ids() {
        let node = t.node(id);
        let added = out.add_node(t.alphabet.name(node.label), node.data.clone());
        debug_assert_eq!(added as usize, id);
    }
    for (p, c) in t.edges() {
        out.add_tuple(CHILD, vec![p as u32, c as u32]);
    }
    out
}

/// Encode a generalized database as a single relational structure whose
/// self-homomorphisms are exactly the [`GdmHom`](crate::hom::GdmHom)
/// endomorphisms of `d`. This is what lets the incremental retraction
/// engine (`ca_hom::retract`) serve generalized-database cores with the
/// same one-compile shrink loop it uses for digraphs.
///
/// Elements: the `n` nodes (ids `0..n`), then one element per distinct
/// data value, in sorted `Value` order (ids `n..n + universe.len()`;
/// the returned vector maps offsets back to values). Relations:
///
/// * one unary per label `a` (id = the label symbol) — forces node
///   elements onto node elements with the same label;
/// * the structural σ relations (id = `n_labels + rel`);
/// * one binary `Dᵢ` per data position `i` (id = `n_labels + n_rels +
///   i`) holding `(ν, ρ(ν)[i])` for every node — since each node has
///   exactly one `Dᵢ` tuple, preserving them forces `ρ(h₁(ν)) =
///   h₂(ρ(ν))` position-wise, with `h₂` read off the value elements;
/// * one singleton unary per *constant* value element (id past the
///   `Dᵢ` block, offset by the value's universe index) — pins `h₂` to
///   the identity on constants. Null elements stay free, so `h₂` may
///   send a null to any value of the universe, exactly the
///   [`gdm_hom_csp`](crate::hom::gdm_hom_csp) semantics.
///
/// Faithfulness in both directions is checked on random instances by
/// the `self_hom_structure_is_faithful` test below.
pub fn self_hom_structure(d: &GenDb) -> (RelStructure, Vec<Value>) {
    let n = d.n_nodes();
    let mut universe = d.values().to_vec();
    universe.sort_unstable();
    universe.dedup();
    let n_labels = d.schema.n_labels() as u32;
    let n_rels = d.schema.n_relations() as u32;
    let max_arity = d.nodes().map(|(_, t)| t.len()).max().unwrap_or(0) as u32;

    let mut s = RelStructure::new(n + universe.len());
    for (node, label) in d.labels().iter().enumerate() {
        s.add_tuple(label.0, vec![node as u32]);
    }
    for (rel, nodes) in &d.tuples {
        s.add_tuple(n_labels + rel.0, nodes.clone());
    }
    for (node, (_, data)) in d.nodes().enumerate() {
        for (i, v) in data.iter().enumerate() {
            // The universe contains every data value by construction, so
            // the search cannot fail; skip defensively rather than panic.
            let Ok(vi) = universe.binary_search(v) else {
                continue;
            };
            s.add_tuple(
                n_labels + n_rels + i as u32,
                vec![node as u32, (n + vi) as u32],
            );
        }
    }
    for (vi, v) in universe.iter().enumerate() {
        if v.is_const() {
            s.add_tuple(
                n_labels + n_rels + max_arity + vi as u32,
                vec![(n + vi) as u32],
            );
        }
    }
    (s, universe)
}

/// Encode a *purely relational* generalized database (`σ = ∅`, the
/// Section 5.1 relational coding) as a structure over its **values
/// only**: self-homomorphisms are exactly the valuations `h₂` of GdmHom
/// endomorphisms, with the node map read off fact tuples.
///
/// Elements: one per distinct data value in sorted `Value` order (the
/// returned vector maps element ids back to values). Relations:
///
/// * one per label `a` (id = the label symbol) holding `ρ(ν)` — as
///   value elements — for every `a`-labeled node `ν`: a valuation is a
///   self-homomorphism iff it maps every fact tuple onto an existing
///   fact tuple of the same label, which is precisely the GdmHom
///   condition when `σ = ∅` (the node map `h₁` is then "any node
///   carrying the image tuple");
/// * one singleton unary per constant element (id = `n_labels` +
///   universe index) — pins `h₂` to the identity on constants.
///
/// Why a second encoding next to [`self_hom_structure`]: dropping the
/// node elements halves the CSP **and** un-welds nodes from their data,
/// so the retraction engine's PTIME fold prepass fires on redundant
/// facts (a pendant null `⊥` in `T(⊥, y)` folds onto any `x` with
/// `T(x, y)` present — impossible in the node encoding, where the
/// node–value pair would have to move in one step). The node encoding
/// remains the faithful general coding for `σ ≠ ∅` (XML trees).
///
/// # Panics
///
/// Panics if `d` has structural tuples — callers dispatch on
/// `d.tuples.is_empty()`.
pub fn value_self_hom_structure(d: &GenDb) -> (RelStructure, Vec<Value>) {
    assert!(
        d.tuples.is_empty(),
        "value encoding requires σ = ∅ (use self_hom_structure)"
    );
    let mut universe = d.values().to_vec();
    universe.sort_unstable();
    universe.dedup();
    let n_labels = d.schema.n_labels() as u32;

    let mut s = RelStructure::new(universe.len());
    for (label, data) in d.nodes() {
        if data.is_empty() {
            // Nullary facts constrain no values; their nodes are kept by
            // the extraction in `core_of_gendb` unconditionally.
            continue;
        }
        let tuple: Vec<u32> = data
            .iter()
            .filter_map(|v| universe.binary_search(v).ok().map(|i| i as u32))
            .collect();
        if tuple.len() == data.len() {
            s.add_tuple(label.0, tuple);
        }
    }
    for (vi, v) in universe.iter().enumerate() {
        if v.is_const() {
            s.add_tuple(n_labels + vi as u32, vec![vi as u32]);
        }
    }
    (s, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::gdm_leq;
    use ca_core::preorder::Preorder;
    use ca_relational::database::build::{c, n, table};
    use ca_relational::generate::{random_naive_db, DbParams, Rng};
    use ca_relational::ordering::InfoOrder;
    use ca_xml::hom::tree_leq;
    use ca_xml::tree::example_tree;

    #[test]
    fn paper_relational_coding() {
        // {R(1,⊥1), S(⊥1,⊥2,2)}: two nodes ν1, ν2 with labels R, S.
        let mut schema = ca_relational::schema::Schema::new();
        schema.add_relation("R", 2);
        schema.add_relation("S", 3);
        let mut db = ca_relational::database::NaiveDatabase::new(schema);
        db.add("R", vec![c(1), n(1)]);
        db.add("S", vec![n(1), n(2), c(2)]);
        let g = encode_relational(&db);
        assert_eq!(g.n_nodes(), 2);
        assert_eq!(g.schema.n_relations(), 0);
        assert_eq!(g.node(0), [c(1), n(1)]);
        assert_eq!(g.node(1), [n(1), n(2), c(2)]);
    }

    #[test]
    fn relational_view_inverts_encoding() {
        let mut schema = ca_relational::schema::Schema::new();
        schema.add_relation("R", 2);
        schema.add_relation("S", 3);
        let mut db = ca_relational::database::NaiveDatabase::new(schema);
        db.add("R", vec![c(1), n(1)]);
        db.add("S", vec![n(1), n(2), c(2)]);
        let g = encode_relational(&db);
        assert_eq!(relational_view(&g), Some(db));
        // Structural tuples have no relational reading.
        let xml = encode_xml(&example_tree());
        assert_eq!(relational_view(&xml), None);
    }

    /// Faithfulness of the relational encoding: `D ⊑ D′ ⇔ enc(D) ⊑
    /// enc(D′)` on random instances.
    #[test]
    fn relational_encoding_is_faithful() {
        let mut rng = Rng::new(616);
        for trial in 0..40 {
            let p = DbParams {
                n_facts: 3,
                arity: 2,
                n_constants: 2,
                n_nulls: 2,
                null_pct: 50,
            };
            let a = random_naive_db(&mut rng, p);
            let b = random_naive_db(&mut rng, p);
            assert_eq!(
                InfoOrder.leq(&a, &b),
                gdm_leq(&encode_relational(&a), &encode_relational(&b)),
                "trial {trial}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn xml_encoding_preserves_shape() {
        let t = example_tree();
        let g = encode_xml(&t);
        assert_eq!(g.n_nodes(), t.len());
        assert_eq!(g.tuples.len(), t.len() - 1); // child edges
        assert_eq!(g.nulls(), t.nulls());
    }

    /// Faithfulness of the XML encoding on hand-picked pairs.
    #[test]
    fn xml_encoding_is_faithful() {
        use ca_core::value::Value;
        let alpha = ca_xml::tree::example_alphabet();
        let cv = |x: i64| Value::Const(x);
        let nv = |id: u32| Value::null(id);
        let mut pat = XmlTree::new(alpha.clone(), "r", vec![]);
        pat.add_child(0, "a", vec![cv(1), nv(1)]);
        let mut doc = XmlTree::new(alpha.clone(), "r", vec![]);
        let a = doc.add_child(0, "a", vec![cv(1), cv(5)]);
        doc.add_child(a, "b", vec![cv(2)]);
        let mut other = XmlTree::new(alpha, "r", vec![]);
        other.add_child(0, "a", vec![cv(2), cv(5)]);
        let cases = [(&pat, &doc), (&doc, &pat), (&pat, &other), (&doc, &doc)];
        for (x, y) in cases {
            assert_eq!(
                tree_leq(x, y),
                gdm_leq(&encode_xml(x), &encode_xml(y)),
                "faithfulness failed for {x} vs {y}"
            );
        }
    }

    #[test]
    fn encodings_detect_codd() {
        let codd = table("R", 2, &[&[c(1), n(1)], &[n(2), c(2)]]);
        assert!(encode_relational(&codd).is_codd());
        let naive = table("R", 2, &[&[c(1), n(1)], &[n(1), c(2)]]);
        assert!(!encode_relational(&naive).is_codd());
    }

    /// Faithfulness of the self-homomorphism encoding: for every node
    /// `v`, the encoded structure has a self-homomorphism whose node
    /// elements avoid `v` **iff** the generalized database has a GdmHom
    /// endomorphism whose node map avoids `v` — the property the
    /// retraction engine relies on.
    #[test]
    fn self_hom_structure_is_faithful() {
        use crate::generate::{random_tree_gendb, TreeGenParams};
        use crate::hom::gdm_hom_csp;
        let mut rng = Rng::new(2718);
        for trial in 0..25 {
            let p = TreeGenParams {
                n_nodes: 5,
                n_labels: 2,
                max_data_arity: 2,
                n_constants: 2,
                null_pct: 50,
                codd: false,
            };
            let d = random_tree_gendb(&mut rng, p);
            let nn = d.n_nodes();
            let (s, universe) = self_hom_structure(&d);
            assert_eq!(s.n_elements, nn + universe.len());
            let (gdm_csp, _, _) = gdm_hom_csp(&d, &d);
            let struct_csp = s.hom_csp(&s);
            for v in 0..nn as u32 {
                let mut a = gdm_csp.clone();
                for dom in a.domains.iter_mut().take(nn) {
                    dom.retain(|&x| x != v);
                }
                let mut b = struct_csp.clone();
                for dom in b.domains.iter_mut().take(nn) {
                    dom.retain(|&x| x != v);
                }
                assert_eq!(
                    a.satisfiable(),
                    b.satisfiable(),
                    "trial {trial}: avoidance of node {v} disagrees on {d:?}"
                );
            }
        }
    }

    /// Faithfulness of the value-only encoding on purely relational
    /// gendbs: for every null `⊥`, the encoded structure has a
    /// self-homomorphism moving `⊥` off itself **iff** the generalized
    /// database has a GdmHom endomorphism with `h₂(⊥) ≠ ⊥` — the
    /// valuations coincide, which is what lets the retraction engine
    /// work on values alone when `σ = ∅`.
    #[test]
    fn value_self_hom_structure_is_faithful() {
        use crate::hom::gdm_hom_csp;
        let mut rng = Rng::new(31_415);
        for trial in 0..30 {
            let p = DbParams {
                n_facts: 5,
                arity: 2,
                n_constants: 2,
                n_nulls: 3,
                null_pct: 60,
            };
            let d = encode_relational(&random_naive_db(&mut rng, p));
            let (s, universe) = value_self_hom_structure(&d);
            assert_eq!(s.n_elements, universe.len());
            let (gdm_csp, nulls, gdm_universe) = gdm_hom_csp(&d, &d);
            assert_eq!(universe, gdm_universe, "both sort the same universe");
            let nn = d.n_nodes();
            let struct_csp = s.hom_csp(&s);
            for &nl in &nulls {
                let Ok(vi) = universe.binary_search(&ca_core::value::Value::Null(nl)) else {
                    continue;
                };
                let Ok(ni) = nulls.binary_search(&nl) else {
                    continue;
                };
                let mut a = gdm_csp.clone();
                a.domains[nn + ni].retain(|&x| x != vi as u32);
                let mut b = struct_csp.clone();
                b.domains[vi].retain(|&x| x != vi as u32);
                assert_eq!(
                    a.satisfiable(),
                    b.satisfiable(),
                    "trial {trial}: moving null {nl:?} disagrees on {d:?}"
                );
            }
        }
    }
}
