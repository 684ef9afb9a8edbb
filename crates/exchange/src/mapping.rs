//! Schema mappings and rule application.
//!
//! A rule is a pair `I → I′` of generalized databases — `I` over the
//! source schema, `I′` over the target schema — whose shared nulls are the
//! frontier variables. Given a complete source `D`, a target `D′` is a
//! *solution* if for every rule and every homomorphism `(h₁, h₂) : I → D`
//! there is a homomorphism `(g₁, g₂) : I′ → D′` with `g₂` agreeing with
//! `h₂` on the shared nulls.
//!
//! `M(D)` — the set of single-rule applications `h₂(I′)` — is the raw
//! material of Theorem 5: its least upper bounds are the universal
//! solutions.

use std::collections::BTreeSet;

use ca_core::value::{Null, NullGen, Value};
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_hom_csp;

/// A single exchange rule `I → I′`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The body, over the source schema.
    pub body: GenDb,
    /// The head, over the target schema. Nulls shared with the body are
    /// frontier variables; head-only nulls are existential.
    pub head: GenDb,
}

impl Rule {
    /// The frontier: nulls occurring in both body and head.
    pub fn frontier(&self) -> BTreeSet<Null> {
        self.body
            .nulls()
            .intersection(&self.head.nulls())
            .copied()
            .collect()
    }
}

/// The compiled-engine body matcher: `None` when either side has
/// structural tuples or the body does not compile against `d`'s labels
/// (the CSP path owns those cases).
fn compiled_body_matches(rule: &Rule, d: &GenDb, limit: usize) -> Option<Vec<Vec<(Null, Value)>>> {
    if !rule.body.tuples.is_empty() || !d.tuples.is_empty() {
        return None;
    }
    let db = ca_gdm::encode::relational_view(d)?;
    let nulls: Vec<Null> = rule.body.nulls().into_iter().collect();
    let q = ca_query::ast::ConjunctiveQuery::with_head(
        nulls.iter().map(|nl| nl.0).collect(),
        crate::chase::engine::pattern_atoms(&rule.body),
    );
    let plan = ca_query::engine::CompiledCq::compile(&q, &db.schema).ok()?;
    let store = ca_relational::to_store(&db);
    let mut idx = ca_query::engine::DbIndex::over(&store);
    let mut out: Vec<Vec<(Null, Value)>> = Vec::new();
    ca_query::engine::eval_cq_ids(&plan, &mut idx, &mut |row| {
        // Truncate at `limit` exactly as `Csp::solve_all(limit)` does.
        if out.len() >= limit {
            return false;
        }
        let values = row.iter().map(|&id| store.value(id));
        out.push(nulls.iter().copied().zip(values).collect());
        true
    });
    Some(out)
}

/// A schema mapping: a finite set of rules.
#[derive(Clone, Debug, Default)]
pub struct Mapping {
    /// The rules.
    pub rules: Vec<Rule>,
}

impl Mapping {
    /// A mapping from rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        Mapping { rules }
    }

    /// All homomorphisms from `body` into the source `d` (as null
    /// valuations), up to `limit`.
    ///
    /// Purely relational bodies match through the compiled join engine
    /// (one join plan, indexed lookups); anything with structural tuples
    /// falls back to the CSP matcher. Both paths enumerate the same
    /// multiset of valuations — one per assignment of body nodes to
    /// instance nodes.
    fn body_matches(&self, rule: &Rule, d: &GenDb, limit: usize) -> Vec<Vec<(Null, Value)>> {
        if let Some(fast) = compiled_body_matches(rule, d, limit) {
            return fast;
        }
        let (csp, nulls, universe) = gdm_hom_csp(&rule.body, d);
        csp.solve_all(limit)
            .solutions
            .into_iter()
            .map(|sol| {
                let n = rule.body.n_nodes();
                nulls
                    .iter()
                    .enumerate()
                    .map(|(i, &nl)| (nl, universe[sol[n + i] as usize]))
                    .collect()
            })
            .collect()
    }

    /// `M(D)`: all single-rule applications `h₂(I′)`, with head-only
    /// nulls renamed fresh per application (so the disjoint union is
    /// well-formed), as the paper's canonical-solution construction
    /// requires.
    pub fn applications(&self, d: &GenDb) -> Vec<GenDb> {
        let mut gen = NullGen::avoiding(
            d.nulls().into_iter().chain(
                self.rules
                    .iter()
                    .flat_map(|r| r.body.nulls().into_iter().chain(r.head.nulls())),
            ),
        );
        let mut out = Vec::new();
        for rule in &self.rules {
            let frontier = rule.frontier();
            for h2 in self.body_matches(rule, d, 100_000) {
                // Build the substitution: frontier nulls from h2,
                // head-only nulls fresh.
                let mut subst: Vec<(Null, Value)> = Vec::new();
                for nl in rule.head.nulls() {
                    if frontier.contains(&nl) {
                        // A frontier null is a body null, so every body
                        // match binds it; the identity fallback keeps
                        // the unreachable branch total.
                        let v = h2
                            .iter()
                            .find(|(m, _)| *m == nl)
                            .map(|&(_, v)| v)
                            .unwrap_or(Value::Null(nl));
                        subst.push((nl, v));
                    } else {
                        subst.push((nl, Value::Null(gen.fresh())));
                    }
                }
                let image = rule.head.map_values(|v| match v {
                    Value::Null(nl) => subst
                        .iter()
                        .find(|(m, _)| *m == nl)
                        .map(|&(_, v)| v)
                        .unwrap_or(v),
                    c => c,
                });
                out.push(image);
            }
        }
        out
    }

    /// Is `d2` a solution for source `d`? Every body match must extend to
    /// a head match agreeing on the frontier.
    pub fn is_solution(&self, d: &GenDb, d2: &GenDb) -> bool {
        for rule in &self.rules {
            let frontier = rule.frontier();
            for h2 in self.body_matches(rule, d, 100_000) {
                // Head hom with frontier nulls pinned.
                let (mut csp, nulls, universe) = gdm_hom_csp(&rule.head, d2);
                let n = rule.head.n_nodes();
                let mut impossible = false;
                for (i, nl) in nulls.iter().enumerate() {
                    if frontier.contains(nl) {
                        // Every body match binds the frontier (see
                        // `applications`); identity fallback for totality.
                        let target = h2
                            .iter()
                            .find(|(m, _)| m == nl)
                            .map(|&(_, v)| v)
                            .unwrap_or(Value::Null(*nl));
                        match universe.binary_search(&target) {
                            Ok(pos) => csp.restrict_domain((n + i) as u32, vec![pos as u32]),
                            Err(_) => {
                                impossible = true;
                                break;
                            }
                        }
                    }
                }
                if impossible || !csp.satisfiable() {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_gdm::schema::GenSchema;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// The paper's st-tgd `S(x, y, u) → T(x, z), T(z, y)` as a rule over
    /// generalized databases.
    pub(crate) fn paper_rule() -> (Rule, GenSchema, GenSchema) {
        let src = GenSchema::from_parts(&[("S", 3)], &[]);
        let tgt = GenSchema::from_parts(&[("T", 2)], &[]);
        let mut body = GenDb::new(src.clone());
        body.add_node("S", vec![n(1), n(2), n(3)]); // x, y, u
        let mut head = GenDb::new(tgt.clone());
        head.add_node("T", vec![n(1), n(4)]); // x, z
        head.add_node("T", vec![n(4), n(2)]); // z, y
        (Rule { body, head }, src, tgt)
    }

    #[test]
    fn frontier_is_shared_nulls() {
        let (rule, _, _) = paper_rule();
        let f: Vec<u32> = rule.frontier().into_iter().map(|x| x.0).collect();
        assert_eq!(f, vec![1, 2]); // x and y; u and z are not shared
    }

    #[test]
    fn applications_instantiate_the_head() {
        let (rule, src, _) = paper_rule();
        let mapping = Mapping::new(vec![rule]);
        let mut d = GenDb::new(src);
        d.add_node("S", vec![c(1), c(2), c(9)]);
        let apps = mapping.applications(&d);
        assert_eq!(apps.len(), 1);
        let app = &apps[0];
        assert_eq!(app.n_nodes(), 2);
        // T(1, ⊥z), T(⊥z, 2) with a fresh shared z.
        assert_eq!(app.node(0)[0], c(1));
        assert_eq!(app.node(1)[1], c(2));
        assert_eq!(app.node(0)[1], app.node(1)[0]);
        assert!(app.node(0)[1].is_null());
    }

    #[test]
    fn two_facts_two_applications_with_distinct_existentials() {
        let (rule, src, _) = paper_rule();
        let mapping = Mapping::new(vec![rule]);
        let mut d = GenDb::new(src);
        d.add_node("S", vec![c(1), c(2), c(9)]);
        d.add_node("S", vec![c(3), c(4), c(9)]);
        let apps = mapping.applications(&d);
        assert_eq!(apps.len(), 2);
        let z0 = apps[0].node(0)[1];
        let z1 = apps[1].node(0)[1];
        assert_ne!(z0, z1, "existential nulls must be fresh per application");
    }

    #[test]
    fn solution_checking() {
        let (rule, src, tgt) = paper_rule();
        let mapping = Mapping::new(vec![rule]);
        let mut d = GenDb::new(src);
        d.add_node("S", vec![c(1), c(2), c(9)]);
        // T(1, 5), T(5, 2) is a solution.
        let mut good = GenDb::new(tgt.clone());
        good.add_node("T", vec![c(1), c(5)]);
        good.add_node("T", vec![c(5), c(2)]);
        assert!(mapping.is_solution(&d, &good));
        // T(1, 5), T(6, 2): the middle value doesn't chain — not a
        // solution.
        let mut bad = GenDb::new(tgt.clone());
        bad.add_node("T", vec![c(1), c(5)]);
        bad.add_node("T", vec![c(6), c(2)]);
        assert!(!mapping.is_solution(&d, &bad));
        // The empty target is not a solution.
        let empty = GenDb::new(tgt);
        assert!(!mapping.is_solution(&d, &empty));
    }

    #[test]
    fn empty_source_makes_everything_a_solution() {
        let (rule, src, tgt) = paper_rule();
        let mapping = Mapping::new(vec![rule]);
        let d = GenDb::new(src);
        let empty = GenDb::new(tgt);
        assert!(mapping.is_solution(&d, &empty));
        assert!(mapping.applications(&d).is_empty());
    }
}
