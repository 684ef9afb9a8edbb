//! The explicit `D_EQ` encoding of Section 6.
//!
//! The paper defines `D |= ϕ` for `ϕ ∈ FO(S, ∼)` by turning the
//! generalized database into an ordinary relational structure `D_EQ` over
//! the vocabulary `τ_S`: the σ relations, a unary `P_a` per label, and
//! binary relations `EQ_ij` holding of `(ν, ν′)` when attribute `i` of
//! `ν` equals attribute `j` of `ν′`. The direct evaluator in
//! [`crate::logic`] computes the same thing on the fly; this module
//! *materializes* `D_EQ` as a naïve database and translates FO(S, ∼)
//! formulas into the [`ca_query`] FO syntax, so the two evaluation paths
//! can be cross-checked — and so downstream code can hand `D_EQ` to any
//! relational tooling.

use ca_core::value::Value;
use ca_query::ast::{Atom, Fo, Term};
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;

use crate::database::GenDb;
use crate::logic::GFo;

/// Relation names used in the materialized `D_EQ`.
fn sigma_rel(name: &str) -> String {
    format!("sigma_{name}")
}
fn label_rel(name: &str) -> String {
    format!("label_{name}")
}
fn eq_rel(i: usize, j: usize) -> String {
    format!("eq_{i}_{j}")
}

/// Materialize `D_EQ`: universe = node ids (as constants), σ tuples, label
/// predicates, and all attribute-equality pairs. Also includes a unary
/// `node` relation holding the whole universe (for clean active-domain
/// quantification).
pub fn build_deq(d: &GenDb) -> NaiveDatabase {
    let max_ar = d.schema.max_label_arity();
    let mut rels: Vec<(String, usize)> = vec![("node".into(), 1)];
    for r in d.schema.relation_symbols() {
        rels.push((
            sigma_rel(d.schema.relation_name(r)),
            d.schema.relation_arity(r),
        ));
    }
    for l in d.schema.label_symbols() {
        rels.push((label_rel(d.schema.label_name(l)), 1));
    }
    for i in 0..max_ar {
        for j in 0..max_ar {
            rels.push((eq_rel(i, j), 2));
        }
    }
    let rel_refs: Vec<(&str, usize)> = rels.iter().map(|(n, a)| (n.as_str(), *a)).collect();
    let schema = Schema::from_relations(&rel_refs);
    let mut db = NaiveDatabase::new(schema);
    let node = |v: u32| Value::Const(v as i64);
    for v in 0..d.n_nodes() as u32 {
        db.add("node", vec![node(v)]);
        db.add(
            &label_rel(d.schema.label_name(d.labels()[v as usize])),
            vec![node(v)],
        );
    }
    for (rel, t) in &d.tuples {
        db.add(
            &sigma_rel(d.schema.relation_name(*rel)),
            t.iter().map(|&v| node(v)).collect(),
        );
    }
    for x in 0..d.n_nodes() as u32 {
        for y in 0..d.n_nodes() as u32 {
            for (i, a) in d.node(x as usize).iter().enumerate() {
                for (j, b) in d.node(y as usize).iter().enumerate() {
                    if a == b {
                        db.add(&eq_rel(i, j), vec![node(x), node(y)]);
                    }
                }
            }
        }
    }
    db
}

/// Translate an FO(S, ∼) sentence into ordinary FO over the `D_EQ`
/// vocabulary. Quantifiers are relativized to the `node` relation so that
/// active-domain evaluation over the materialized database coincides with
/// node quantification.
pub fn translate_to_fo(phi: &GFo) -> Fo {
    match phi {
        GFo::Rel(name, vars) => Fo::Atom(Atom::new(
            &sigma_rel(name),
            vars.iter().map(|&v| Term::Var(v)).collect(),
        )),
        GFo::Label(name, v) => Fo::Atom(Atom::new(&label_rel(name), vec![Term::Var(*v)])),
        GFo::AttrEq { i, j, x, y } => Fo::Atom(Atom::new(
            &eq_rel(*i, *j),
            vec![Term::Var(*x), Term::Var(*y)],
        )),
        GFo::NodeEq(x, y) => Fo::Eq(Term::Var(*x), Term::Var(*y)),
        GFo::Not(f) => translate_to_fo(f).not(),
        GFo::And(fs) => Fo::And(fs.iter().map(translate_to_fo).collect()),
        GFo::Or(fs) => Fo::Or(fs.iter().map(translate_to_fo).collect()),
        GFo::Exists(v, f) => Fo::exists(
            *v,
            Fo::And(vec![
                Fo::Atom(Atom::new("node", vec![Term::Var(*v)])),
                translate_to_fo(f),
            ]),
        ),
        GFo::Forall(v, f) => Fo::forall(
            *v,
            Fo::Atom(Atom::new("node", vec![Term::Var(*v)])).implies(translate_to_fo(f)),
        ),
    }
}

/// Evaluate via the materialized `D_EQ` (the paper's official definition
/// of `D |= ϕ`). Must agree with [`crate::logic::eval_gfo`].
pub fn eval_via_deq(phi: &GFo, d: &GenDb) -> bool {
    let deq = build_deq(d);
    ca_query::eval::eval_fo(&translate_to_fo(phi), &deq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::eval_gfo;
    use crate::schema::GenSchema;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn sample_db() -> GenDb {
        let schema = GenSchema::from_parts(&[("a", 1), ("b", 2)], &[("E", 2)]);
        let mut d = GenDb::new(schema);
        let x = d.add_node("a", vec![n(1)]);
        let y = d.add_node("a", vec![n(1)]);
        let z = d.add_node("b", vec![c(1), c(2)]);
        d.add_tuple("E", vec![x, y]);
        d.add_tuple("E", vec![y, z]);
        d
    }

    #[test]
    fn deq_shape() {
        let d = sample_db();
        let deq = build_deq(&d);
        // node facts: 3; labels: 3; sigma E: 2; eq pairs: reflexive pairs
        // at least.
        assert_eq!(deq.relation_by_name("node").count(), 3);
        assert_eq!(deq.relation_by_name("sigma_E").count(), 2);
        assert_eq!(deq.relation_by_name("label_a").count(), 2);
        // Attribute 0 of nodes 0 and 1 share ⊥1: eq_0_0 contains (0,1).
        let eq00: Vec<_> = deq.relation_by_name("eq_0_0").collect();
        assert!(eq00.iter().any(|f| f.args == vec![c(0), c(1)]));
    }

    /// The two evaluation paths agree on a formula battery.
    #[test]
    fn direct_and_deq_evaluation_agree() {
        let d = sample_db();
        let formulas = vec![
            GFo::exists(0, GFo::Rel("E".into(), vec![0, 0])),
            GFo::exists(0, GFo::exists(1, GFo::Rel("E".into(), vec![0, 1]))),
            GFo::forall(0, GFo::Label("a".into(), 0)),
            GFo::exists(
                0,
                GFo::exists(
                    1,
                    GFo::And(vec![
                        GFo::NodeEq(0, 1).not(),
                        GFo::AttrEq {
                            i: 0,
                            j: 0,
                            x: 0,
                            y: 1,
                        },
                    ]),
                ),
            ),
            GFo::exists(
                0,
                GFo::And(vec![
                    GFo::Label("b".into(), 0),
                    GFo::AttrEq {
                        i: 0,
                        j: 1,
                        x: 0,
                        y: 0,
                    },
                ]),
            ),
            GFo::forall(
                0,
                GFo::forall(
                    1,
                    GFo::Rel("E".into(), vec![0, 1]).implies(GFo::NodeEq(0, 1)),
                ),
            ),
        ];
        for phi in &formulas {
            assert_eq!(
                eval_gfo(phi, &d),
                eval_via_deq(phi, &d),
                "evaluation paths disagree on {phi:?}"
            );
        }
    }

    /// Homomorphisms of generalized databases are homomorphisms of the
    /// `D_EQ` structures (the observation opening the Theorem 7 proof):
    /// positive sentences true in `D_EQ` stay true in images.
    #[test]
    fn deq_preserves_positive_sentences_along_homs() {
        let d = sample_db();
        // Ground ⊥1 to 9 — a homomorphic image.
        let image = d.map_values(|v| if v == n(1) { c(9) } else { v });
        let positive = GFo::exists(
            0,
            GFo::exists(
                1,
                GFo::And(vec![
                    GFo::Rel("E".into(), vec![0, 1]),
                    GFo::AttrEq {
                        i: 0,
                        j: 0,
                        x: 0,
                        y: 1,
                    },
                ]),
            ),
        );
        if eval_via_deq(&positive, &d) {
            assert!(eval_via_deq(&positive, &image));
        }
    }
}
