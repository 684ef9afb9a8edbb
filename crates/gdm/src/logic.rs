//! The query logic FO(S, ∼) of Section 6.
//!
//! Generalized databases are two-sorted; the paper avoids multi-sorted
//! logic by working over the vocabulary `τ_S`: the σ relations, a unary
//! label predicate `P_a` per `a ∈ Σ`, and binary predicates `=_{ij}(x, y)`
//! ("the i-th attribute of `x` equals the j-th attribute of `y`"),
//! interpreted through the `D_EQ` encoding. We evaluate directly on the
//! generalized database with exactly the `D_EQ` semantics: `=_{ij}(x, y)`
//! holds iff both attributes exist and their values are equal — nulls
//! compared *as values*, which is what makes evaluation on an incomplete
//! database the naïve evaluation of Theorem 7(a).
//!
//! Attribute indices are 0-based in code (the paper's `=_{11}` is
//! `attr_eq(0, 0)`).

use crate::database::GenDb;

/// A formula of FO(S, ∼). Variables range over nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GFo {
    /// A σ-relation atom over node variables.
    Rel(String, Vec<u32>),
    /// The label predicate `P_a(x)`.
    Label(String, u32),
    /// `=_{ij}(x, y)`: attribute `i` of `x` equals attribute `j` of `y`.
    AttrEq {
        /// 0-based attribute index on `x`.
        i: usize,
        /// 0-based attribute index on `y`.
        j: usize,
        /// First node variable.
        x: u32,
        /// Second node variable.
        y: u32,
    },
    /// First-order equality of node variables.
    NodeEq(u32, u32),
    /// Negation.
    Not(Box<GFo>),
    /// Conjunction (empty = true).
    And(Vec<GFo>),
    /// Disjunction (empty = false).
    Or(Vec<GFo>),
    /// Existential node quantification.
    Exists(u32, Box<GFo>),
    /// Universal node quantification.
    Forall(u32, Box<GFo>),
}

impl GFo {
    /// `¬φ`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> GFo {
        GFo::Not(Box::new(self))
    }

    /// `∃v φ`.
    pub fn exists(v: u32, body: GFo) -> GFo {
        GFo::Exists(v, Box::new(body))
    }

    /// `∀v φ`.
    pub fn forall(v: u32, body: GFo) -> GFo {
        GFo::Forall(v, Box::new(body))
    }

    /// `φ → ψ`.
    pub fn implies(self, then: GFo) -> GFo {
        GFo::Or(vec![self.not(), then])
    }

    /// Existential-positive fragment: atoms, ∧, ∨, ∃ only (Theorem 7(a)).
    pub fn is_existential_positive(&self) -> bool {
        match self {
            GFo::Rel(..) | GFo::Label(..) | GFo::AttrEq { .. } | GFo::NodeEq(..) => true,
            GFo::Not(_) | GFo::Forall(..) => false,
            GFo::And(fs) | GFo::Or(fs) => fs.iter().all(GFo::is_existential_positive),
            GFo::Exists(_, f) => f.is_existential_positive(),
        }
    }

    /// Existential fragment: no ∀, and no quantifier inside a negation
    /// (equivalently, ∃\* over a quantifier-free matrix; Theorem 7(b)).
    pub fn is_existential(&self) -> bool {
        fn quantifier_free(f: &GFo) -> bool {
            match f {
                GFo::Rel(..) | GFo::Label(..) | GFo::AttrEq { .. } | GFo::NodeEq(..) => true,
                GFo::Not(g) => quantifier_free(g),
                GFo::And(fs) | GFo::Or(fs) => fs.iter().all(quantifier_free),
                GFo::Exists(..) | GFo::Forall(..) => false,
            }
        }
        match self {
            GFo::Exists(_, f) => f.is_existential(),
            GFo::And(fs) | GFo::Or(fs) => fs.iter().all(GFo::is_existential),
            other => quantifier_free(other),
        }
    }
}

/// Evaluate a sentence on a generalized database under the `D_EQ`
/// semantics (active domain = the nodes; nulls compared as values).
pub fn eval_gfo(phi: &GFo, db: &GenDb) -> bool {
    let mut env: Vec<(u32, u32)> = Vec::new();
    eval_rec(phi, db, &mut env)
}

fn get(env: &[(u32, u32)], v: u32) -> u32 {
    env.iter()
        .rev()
        .find(|(u, _)| *u == v)
        .map(|&(_, n)| n)
        .expect("unbound node variable (formula is not a sentence?)")
}

fn eval_rec(phi: &GFo, db: &GenDb, env: &mut Vec<(u32, u32)>) -> bool {
    match phi {
        GFo::Rel(name, vars) => {
            let Some(rel) = db.schema.relation(name) else {
                return false;
            };
            let nodes: Vec<u32> = vars.iter().map(|&v| get(env, v)).collect();
            db.tuples.iter().any(|(r, t)| *r == rel && *t == nodes)
        }
        GFo::Label(name, v) => {
            let Some(sym) = db.schema.label(name) else {
                return false;
            };
            db.labels()[get(env, *v) as usize] == sym
        }
        GFo::AttrEq { i, j, x, y } => {
            let a = db.node(get(env, *x) as usize).get(*i);
            a.is_some() && a == db.node(get(env, *y) as usize).get(*j)
        }
        GFo::NodeEq(x, y) => get(env, *x) == get(env, *y),
        GFo::Not(f) => !eval_rec(f, db, env),
        GFo::And(fs) => fs.iter().all(|f| eval_rec(f, db, env)),
        GFo::Or(fs) => fs.iter().any(|f| eval_rec(f, db, env)),
        GFo::Exists(v, f) => (0..db.n_nodes() as u32).any(|n| {
            env.push((*v, n));
            let r = eval_rec(f, db, env);
            env.pop();
            r
        }),
        GFo::Forall(v, f) => (0..db.n_nodes() as u32).all(|n| {
            env.push((*v, n));
            let r = eval_rec(f, db, env);
            env.pop();
            r
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::GenDb;
    use crate::schema::GenSchema;
    use ca_core::value::Value;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn schema() -> GenSchema {
        GenSchema::from_parts(&[("a", 1), ("b", 3)], &[("E", 2)])
    }

    #[test]
    fn label_and_relation_atoms() {
        let mut d = GenDb::new(schema());
        let x = d.add_node("a", vec![c(1)]);
        let y = d.add_node("a", vec![c(2)]);
        d.add_tuple("E", vec![x, y]);
        let phi = GFo::exists(
            0,
            GFo::exists(
                1,
                GFo::And(vec![
                    GFo::Label("a".into(), 0),
                    GFo::Label("a".into(), 1),
                    GFo::Rel("E".into(), vec![0, 1]),
                ]),
            ),
        );
        assert!(eval_gfo(&phi, &d));
        // No edge back.
        let rev = GFo::exists(
            0,
            GFo::exists(
                1,
                GFo::And(vec![
                    GFo::Rel("E".into(), vec![0, 1]),
                    GFo::Rel("E".into(), vec![1, 0]),
                ]),
            ),
        );
        assert!(!eval_gfo(&rev, &d));
    }

    #[test]
    fn attr_eq_nulls_as_values() {
        let mut d = GenDb::new(schema());
        d.add_node("a", vec![n(1)]);
        d.add_node("a", vec![n(1)]);
        d.add_node("a", vec![n(2)]);
        // ∃x∃y (x ≠ y ∧ =00(x,y)): nodes 0,1 share ⊥1.
        let phi = GFo::exists(
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
        );
        assert!(eval_gfo(&phi, &d));
        // ⊥1 = ⊥2 is false as values.
        let mut d2 = GenDb::new(schema());
        d2.add_node("a", vec![n(1)]);
        d2.add_node("a", vec![n(2)]);
        assert!(!eval_gfo(&phi, &d2));
    }

    #[test]
    fn attr_eq_across_arities() {
        // =02 between an a-node (1 attribute) and b-node (3 attributes).
        let mut d = GenDb::new(schema());
        d.add_node("a", vec![c(5)]);
        d.add_node("b", vec![c(1), c(2), c(5)]);
        let phi = GFo::exists(
            0,
            GFo::exists(
                1,
                GFo::And(vec![
                    GFo::Label("a".into(), 0),
                    GFo::Label("b".into(), 1),
                    GFo::AttrEq {
                        i: 0,
                        j: 2,
                        x: 0,
                        y: 1,
                    },
                ]),
            ),
        );
        assert!(eval_gfo(&phi, &d));
        // Out-of-range attribute is simply false.
        let oob = GFo::exists(
            0,
            GFo::AttrEq {
                i: 1,
                j: 1,
                x: 0,
                y: 0,
            },
        );
        assert!(!eval_gfo(&oob, &d) || d.nodes().any(|(_, t)| t.len() > 1));
    }

    #[test]
    fn fragments() {
        let ep = GFo::exists(0, GFo::Label("a".into(), 0));
        assert!(ep.is_existential_positive());
        assert!(ep.is_existential());
        let e = GFo::exists(0, GFo::Label("a".into(), 0).not());
        assert!(!e.is_existential_positive());
        assert!(e.is_existential());
        let fa = GFo::forall(0, GFo::Label("a".into(), 0));
        assert!(!fa.is_existential());
        // ¬∃ is not existential (quantifier under negation).
        let ne = GFo::exists(0, GFo::Label("a".into(), 0)).not();
        assert!(!ne.is_existential());
    }

    #[test]
    fn forall_over_nodes() {
        let mut d = GenDb::new(schema());
        d.add_node("a", vec![c(1)]);
        d.add_node("a", vec![c(1)]);
        let phi = GFo::forall(0, GFo::Label("a".into(), 0));
        assert!(eval_gfo(&phi, &d));
        d.add_node("b", vec![c(1), c(2), c(3)]);
        assert!(!eval_gfo(&phi, &d));
    }
}
