//! Encoding naïve databases as depth-2 XML documents (Corollary 2).
//!
//! Each fact becomes a child of the root whose label is the relation name
//! and whose attribute tuple is the fact's arguments. The encoding is
//! faithful: database homomorphisms correspond exactly to tree
//! homomorphisms between encodings. Via Theorem 3, this transfers the
//! existence of recursive collections without glbs to XML documents of
//! depth 2 — the paper's Corollary 2.

use ca_relational::database::NaiveDatabase;

use crate::tree::{Alphabet, XmlTree};

/// The reserved root label of encodings.
pub const ROOT_LABEL: &str = "__db__";

/// Encode a naïve database as a depth-2 XML tree: the root (labeled
/// [`ROOT_LABEL`], no attributes) has one child per fact, labeled by the
/// relation name and carrying the fact's tuple as attributes.
pub fn encode_database(db: &NaiveDatabase) -> XmlTree {
    let mut labels: Vec<(&str, usize)> = vec![(ROOT_LABEL, 0)];
    let names: Vec<(String, usize)> = db
        .schema
        .symbols()
        .map(|s| (db.schema.name(s).to_owned(), db.schema.arity(s)))
        .collect();
    for (name, arity) in &names {
        labels.push((name.as_str(), *arity));
    }
    let alphabet = Alphabet::from_labels(&labels);
    let mut tree = XmlTree::new(alphabet, ROOT_LABEL, vec![]);
    for fact in db.facts() {
        tree.add_child(0, db.schema.name(fact.rel), fact.args.to_vec());
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::{tree_equiv, tree_leq};
    use ca_core::preorder::Preorder;
    use ca_relational::database::build::{c, n, table};
    use ca_relational::generate::{random_naive_db, DbParams, Rng};
    use ca_relational::ordering::InfoOrder;

    #[test]
    fn encoding_shape() {
        let db = table("R", 2, &[&[c(1), n(1)], &[n(1), c(2)]]);
        let t = encode_database(&db);
        assert_eq!(t.len(), 3);
        assert_eq!(t.node(0).children.len(), 2);
        assert_eq!(t.nulls(), db.nulls());
        assert_eq!(t.constants(), db.constants());
    }

    /// Faithfulness: `D ⊑ D′` iff `enc(D) ⊑ enc(D′)`, on hand-picked and
    /// random instances. This is what makes Corollary 2 a corollary of
    /// Theorem 3.
    #[test]
    fn encoding_is_faithful() {
        let mut rng = Rng::new(808);
        for trial in 0..40 {
            let a = random_naive_db(
                &mut rng,
                DbParams {
                    n_facts: 3,
                    arity: 2,
                    n_constants: 2,
                    n_nulls: 2,
                    null_pct: 50,
                },
            );
            let b = random_naive_db(
                &mut rng,
                DbParams {
                    n_facts: 3,
                    arity: 2,
                    n_constants: 2,
                    n_nulls: 2,
                    null_pct: 50,
                },
            );
            assert_eq!(
                InfoOrder.leq(&a, &b),
                tree_leq(&encode_database(&a), &encode_database(&b)),
                "faithfulness failed on trial {trial}: {a:?} vs {b:?}"
            );
        }
    }

    /// The directed-cycle databases of Theorem 3 keep their ordering
    /// structure after encoding: enc(C₄) ⊑ enc(C₂) but not conversely.
    #[test]
    fn corollary2_cycles_as_documents() {
        let cycle_db = |len: u32| {
            let rows: Vec<Vec<ca_core::value::Value>> = (0..len)
                .map(|i| {
                    vec![
                        ca_core::value::Value::null(i),
                        ca_core::value::Value::null((i + 1) % len),
                    ]
                })
                .collect();
            let refs: Vec<&[ca_core::value::Value]> = rows.iter().map(|r| r.as_slice()).collect();
            table("E", 2, &refs)
        };
        let c2 = encode_database(&cycle_db(2));
        let c4 = encode_database(&cycle_db(4));
        let c8 = encode_database(&cycle_db(8));
        assert!(tree_leq(&c4, &c2));
        assert!(!tree_leq(&c2, &c4));
        assert!(tree_leq(&c8, &c4));
        assert!(!tree_leq(&c4, &c8));
        // Depth is 2 (root + fact children).
        assert!(c8.node_ids().all(|id| c8.depth(id) <= 1));
    }

    /// Tree glbs of encodings agree with relational glbs (the encoding
    /// commutes with ⋀ up to equivalence).
    #[test]
    fn glb_commutes_with_encoding() {
        let a = table("R", 2, &[&[c(1), c(2)]]);
        let b = table("R", 2, &[&[c(1), c(3)]]);
        let rel_glb = ca_relational::glb::glb_databases(&a, &b);
        let tree_glb = crate::glb::glb_trees(&encode_database(&a), &encode_database(&b))
            .expect("encodings share the root label");
        assert!(tree_equiv(&tree_glb, &encode_database(&rel_glb)));
    }
}
