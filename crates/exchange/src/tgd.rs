//! Relational source-to-target tgds, as a convenience layer.
//!
//! An st-tgd `∀x̄ (φ(x̄) → ∃ȳ ψ(x̄, ȳ))` with conjunctive `φ, ψ` is the
//! rule `I_φ → I_ψ` whose generalized databases have one node per atom and
//! rule variables as nulls — exactly the paper's reading of
//! `S(x, y, u) → T(x, z), T(z, y)`.

use ca_core::value::Value;
use ca_gdm::database::GenDb;
use ca_gdm::schema::GenSchema;

use crate::mapping::{Mapping, Rule};

/// An atom of a tgd: relation name and arguments, where a [`Value::Null`]
/// is a rule variable and a [`Value::Const`] a constant.
#[derive(Clone, Debug)]
pub struct TgdAtom {
    /// Relation name.
    pub rel: String,
    /// Arguments (nulls = variables).
    pub args: Vec<Value>,
}

/// Build a source-to-target tgd rule from body and head atom lists.
pub fn st_tgd(source: &GenSchema, target: &GenSchema, body: &[TgdAtom], head: &[TgdAtom]) -> Rule {
    let mut b = GenDb::new(source.clone());
    for atom in body {
        b.add_node(&atom.rel, atom.args.clone());
    }
    let mut h = GenDb::new(target.clone());
    for atom in head {
        h.add_node(&atom.rel, atom.args.clone());
    }
    Rule { body: b, head: h }
}

/// Convenience constructor for a mapping from several tgds.
pub fn st_mapping(
    source: &GenSchema,
    target: &GenSchema,
    tgds: &[(&[TgdAtom], &[TgdAtom])],
) -> Mapping {
    Mapping::new(
        tgds.iter()
            .map(|(b, h)| st_tgd(source, target, b, h))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::{canonical_solution, core_solution};
    use ca_gdm::hom::gdm_leq;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn atom(rel: &str, args: Vec<Value>) -> TgdAtom {
        TgdAtom {
            rel: rel.into(),
            args,
        }
    }

    /// A classic copy-and-project exchange: `E(x,y) → F(x,y)` plus
    /// `E(x,y) → G(y)`.
    #[test]
    fn copy_and_project() {
        let src = GenSchema::from_parts(&[("E", 2)], &[]);
        let tgt = GenSchema::from_parts(&[("F", 2), ("G", 1)], &[]);
        let mapping = st_mapping(
            &src,
            &tgt,
            &[
                (
                    &[atom("E", vec![n(1), n(2)])],
                    &[atom("F", vec![n(1), n(2)])],
                ),
                (&[atom("E", vec![n(1), n(2)])], &[atom("G", vec![n(2)])]),
            ],
        );
        let mut d = GenDb::new(src);
        d.add_node("E", vec![c(1), c(2)]);
        d.add_node("E", vec![c(2), c(3)]);
        let canon = canonical_solution(&mapping, &d, &tgt);
        assert!(mapping.is_solution(&d, &canon));
        assert_eq!(canon.n_nodes(), 4); // 2 F-facts + 2 G-facts
                                        // Everything is complete (no existentials), so the core equals the
                                        // canonical solution up to duplicate removal.
        let core = core_solution(&mapping, &d, &tgt);
        assert!(gdm_leq(&core, &canon) && gdm_leq(&canon, &core));
    }

    /// Join-inventing exchange: two body atoms, an existential bridging
    /// value, as in `E(x,y) ∧ E(y,z) → P(x, w), P(w, z)`.
    #[test]
    fn join_with_existential() {
        let src = GenSchema::from_parts(&[("E", 2)], &[]);
        let tgt = GenSchema::from_parts(&[("P", 2)], &[]);
        let mapping = st_mapping(
            &src,
            &tgt,
            &[(
                &[atom("E", vec![n(1), n(2)]), atom("E", vec![n(2), n(3)])],
                &[atom("P", vec![n(1), n(9)]), atom("P", vec![n(9), n(3)])],
            )],
        );
        let mut d = GenDb::new(src);
        d.add_node("E", vec![c(1), c(2)]);
        d.add_node("E", vec![c(2), c(3)]);
        let canon = canonical_solution(&mapping, &d, &tgt);
        // One body match (x=1, y=2, z=3) ⇒ two P-facts sharing a null.
        assert!(mapping.is_solution(&d, &canon));
        assert_eq!(canon.n_nodes(), 2);
        assert_eq!(canon.node(0)[1], canon.node(1)[0]);
        assert!(canon.node(0)[1].is_null());
    }

    /// Constants in tgds are matched literally.
    #[test]
    fn constants_in_rules() {
        let src = GenSchema::from_parts(&[("E", 2)], &[]);
        let tgt = GenSchema::from_parts(&[("F", 1)], &[]);
        // E(7, y) → F(y): only facts with first component 7 fire.
        let mapping = st_mapping(
            &src,
            &tgt,
            &[(&[atom("E", vec![c(7), n(1)])], &[atom("F", vec![n(1)])])],
        );
        let mut d = GenDb::new(src);
        d.add_node("E", vec![c(7), c(1)]);
        d.add_node("E", vec![c(8), c(2)]);
        let canon = canonical_solution(&mapping, &d, &tgt);
        assert_eq!(canon.n_nodes(), 1);
        assert_eq!(canon.node(0), [c(1)]);
    }
}
