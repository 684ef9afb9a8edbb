//! The tableau correspondence between Boolean CQs and naïve databases.
//!
//! Every naïve database `D` is a Boolean CQ `Q_D` (replace each null by an
//! existentially quantified variable) and every Boolean CQ `Q` is a naïve
//! database `D_Q` (its tableau: replace each variable by a null). The paper
//! leans on this duality throughout — `R ∈ [[D]]` iff `R ⊨ Q_D`, and
//! Proposition 2 ties certain answers, the information ordering, and query
//! containment together through it.

use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;

use crate::ast::{Atom, ConjunctiveQuery, Term};

/// The tableau `D_Q` of a Boolean CQ: each variable becomes the null with
/// the same index.
///
/// # Panics
///
/// Panics if the query is not Boolean or mentions a relation absent from
/// `schema`.
pub fn tableau(q: &ConjunctiveQuery, schema: &Schema) -> NaiveDatabase {
    assert!(q.is_boolean(), "tableaux are defined for Boolean CQs");
    let mut db = NaiveDatabase::new(schema.clone());
    for atom in &q.atoms {
        let args: Vec<Value> = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => Value::null(*v),
                Term::Const(c) => Value::Const(*c),
            })
            .collect();
        db.add(&atom.rel, args);
    }
    db
}

/// The canonical Boolean CQ `Q_D` of a naïve database: each null `⊥ᵢ`
/// becomes the variable `xᵢ`.
pub fn canonical_query(d: &NaiveDatabase) -> ConjunctiveQuery {
    let atoms: Vec<Atom> = d
        .facts()
        .map(|f| {
            let args: Vec<Term> = f
                .args
                .iter()
                .map(|v| match v {
                    Value::Const(c) => Term::Const(*c),
                    Value::Null(n) => Term::Var(n.0),
                })
                .collect();
            Atom::new(d.schema.name(f.rel), args)
        })
        .collect();
    ConjunctiveQuery::boolean(atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_cq_bool;
    use ca_relational::database::build::{c, n, table};
    use ca_relational::hom::in_semantics;
    use Term::{Const as C, Var as V};

    #[test]
    fn tableau_round_trip() {
        let d = table("D", 3, &[&[c(1), c(2), n(1)], &[n(2), n(1), c(3)]]);
        let q = canonical_query(&d);
        let d2 = tableau(&q, &d.schema);
        assert_eq!(d, d2);
    }

    #[test]
    fn paper_canonical_query_shape() {
        // The Section 2.1 example: D becomes
        // ∃x1,x2,x3 D(1,2,x1) ∧ D(x2,x1,3) ∧ D(x3,5,1).
        let d = table(
            "D",
            3,
            &[
                &[c(1), c(2), n(1)],
                &[n(2), n(1), c(3)],
                &[n(3), c(5), c(1)],
            ],
        );
        let q = canonical_query(&d);
        assert!(q.is_boolean());
        assert_eq!(q.atoms.len(), 3);
        assert!(q.atoms.contains(&Atom::new("D", vec![C(1), C(2), V(1)])));
        assert!(q.atoms.contains(&Atom::new("D", vec![V(2), V(1), C(3)])));
        assert!(q.atoms.contains(&Atom::new("D", vec![V(3), C(5), C(1)])));
    }

    /// `R ∈ [[D]]` iff `R ⊨ Q_D`: membership is satisfaction of the
    /// canonical query.
    #[test]
    fn membership_is_satisfaction() {
        let d = table("R", 2, &[&[c(1), n(1)], &[n(1), c(2)]]);
        let q = canonical_query(&d);
        let yes = table("R", 2, &[&[c(1), c(7)], &[c(7), c(2)]]);
        let no = table("R", 2, &[&[c(1), c(7)], &[c(8), c(2)]]);
        assert!(in_semantics(&yes, &d));
        assert!(eval_cq_bool(&q, &yes));
        assert!(!in_semantics(&no, &d));
        assert!(!eval_cq_bool(&q, &no));
    }

    #[test]
    fn tableau_of_query_with_constants() {
        let q = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![C(5), V(0)])]);
        let schema = Schema::from_relations(&[("R", 2)]);
        let d = tableau(&q, &schema);
        assert_eq!(d.facts().next().unwrap().args, vec![c(5), n(0)]);
    }

    #[test]
    #[should_panic(expected = "Boolean")]
    fn tableau_rejects_non_boolean() {
        let q = ConjunctiveQuery::with_head(vec![0], vec![Atom::new("R", vec![V(0)])]);
        let schema = Schema::from_relations(&[("R", 1)]);
        tableau(&q, &schema);
    }
}
