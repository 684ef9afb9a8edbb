//! Query answering: Theorem 7.
//!
//! * **(a)** For existential-positive sentences of FO(S, ∼), certain
//!   answers are computed by naïve evaluation — just evaluate on the
//!   incomplete database with nulls as values ([`certain_expos`]).
//! * **(b)** For existential sentences, `certain(φ, D) = false` iff some
//!   *homomorphic image* of `D` (nulls grounded to constants, nodes
//!   possibly merged) satisfies `¬φ` — a coNP procedure implemented by
//!   exhaustive image enumeration ([`certain_existential`]). The matching
//!   coNP-hardness construction (the sentence `ϕ₀` whose certain answer
//!   over an encoded graph `G` is "G is not 3-colorable") is provided as
//!   [`phi0`] / [`encode_graph_for_phi0`].
//! * **(c)** For full FO(S, ∼) the problem is undecidable (by
//!   Trakhtenbrot, as in the paper) — there is nothing to implement, only
//!   to avoid: the public API restricts to the decidable fragments.

use std::collections::BTreeSet;

use ca_core::value::{Null, Value};

use crate::database::GenDb;
use crate::logic::{eval_gfo, GFo};

/// Theorem 7(a): certain answers for existential-positive sentences by
/// naïve evaluation.
///
/// # Panics
///
/// Panics if `phi` is not existential-positive.
pub fn certain_expos(phi: &GFo, db: &GenDb) -> bool {
    assert!(
        phi.is_existential_positive(),
        "certain_expos requires an existential-positive sentence"
    );
    eval_gfo(phi, db)
}

/// The adequate grounding pool: constants of `D` plus one fresh constant
/// per null (FO(S, ∼) has no constant symbols, so no query constants).
fn grounding_pool(db: &GenDb) -> Vec<i64> {
    let mut pool: BTreeSet<i64> = db.constants();
    let start = pool.iter().max().map_or(0, |m| m + 1);
    for offset in 0..db.nulls().len() as i64 {
        pool.insert(start + offset);
    }
    pool.into_iter().collect()
}

/// The grid of null groundings of `db` into its adequate pool,
/// addressable by linear index (the same base-`|pool|` addressing as
/// `ca_query`'s completion sweeps).
struct GroundingSpace<'a> {
    db: &'a GenDb,
    nulls: Vec<Null>,
    pool: Vec<i64>,
}

impl<'a> GroundingSpace<'a> {
    fn new(db: &'a GenDb) -> Self {
        GroundingSpace {
            nulls: db.nulls().into_iter().collect(),
            pool: grounding_pool(db),
            db,
        }
    }

    /// `|pool|^#nulls` (1 when the database has no nulls).
    fn len(&self) -> u128 {
        (self.pool.len().max(usize::from(self.nulls.is_empty())) as u128)
            .checked_pow(self.nulls.len() as u32)
            // ca-lint: allow(L002, reason = "deliberate documented panic: an image sweep past u128 groundings can never terminate, so failing fast beats a wrong answer")
            .expect("grounding space exceeds u128")
    }

    /// Ground every null according to the base-`|pool|` digits of `i`.
    fn grounding(&self, i: u128) -> GenDb {
        let base = self.pool.len().max(1) as u128;
        self.db.map_values(|v| match v {
            Value::Null(n) => {
                // ca-lint: allow(L002, reason = "invariant: nulls is the sorted contents of db.nulls(), so every null the closure sees is present")
                let pos = self.nulls.binary_search(&n).expect("null of db");
                let digit = (i / base.pow(pos as u32)) % base;
                Value::Const(self.pool[digit as usize])
            }
            c => c,
        })
    }
}

/// Enumerate the homomorphic images of `db` with all nulls grounded:
/// every grounding of the nulls into the adequate pool, combined with
/// every node partition compatible with labels and grounded data. Calls
/// `visit` on each image; stops early when `visit` returns `false`.
///
/// Exponential (`pool^#nulls · Bell(#nodes)`); intended for the small
/// instances where the coNP procedure is run exactly.
pub fn for_each_grounded_image<F: FnMut(&GenDb) -> bool>(db: &GenDb, mut visit: F) {
    let space = GroundingSpace::new(db);
    for i in 0..space.len() {
        if !for_each_quotient(&space.grounding(i), &mut visit) {
            return;
        }
    }
}

/// Enumerate all quotients of a complete database by node partitions whose
/// classes share label and data. Returns `false` if `visit` stopped.
fn for_each_quotient<F: FnMut(&GenDb) -> bool>(db: &GenDb, visit: &mut F) -> bool {
    let n = db.n_nodes();
    // Restricted growth strings: assign[i] ∈ 0..=max(assign[..i])+1.
    let mut assign = vec![0u32; n];
    fn rec<F: FnMut(&GenDb) -> bool>(
        i: usize,
        n_classes: u32,
        assign: &mut Vec<u32>,
        db: &GenDb,
        visit: &mut F,
    ) -> bool {
        let n = db.n_nodes();
        if i == n {
            // Build the quotient.
            let mut q = GenDb::new(db.schema.clone());
            for cls in 0..n_classes {
                // ca-lint: allow(L002, reason = "invariant: restricted-growth strings never skip a class id, so class cls has a member")
                let rep = (0..n).find(|&x| assign[x] == cls).expect("class nonempty");
                q.push_node(db.labels()[rep], db.node(rep));
            }
            for (rel, t) in &db.tuples {
                q.add_tuple(
                    db.schema.relation_name(*rel),
                    t.iter().map(|&x| assign[x as usize]).collect(),
                );
            }
            return visit(&q);
        }
        for cls in 0..=n_classes {
            // Compatibility: same label and same (grounded) data as the
            // existing members of the class.
            let compatible = (0..i).all(|x| {
                assign[x] != cls || (db.labels()[x] == db.labels()[i] && db.node(x) == db.node(i))
            });
            if !compatible {
                continue;
            }
            assign[i] = cls;
            let next_classes = n_classes.max(cls + 1);
            if !rec(i + 1, next_classes, assign, db, visit) {
                return false;
            }
        }
        true
    }
    rec(0, 0, &mut assign, db, visit)
}

/// Theorem 7(b): certain answers for existential sentences, decided
/// exactly by image enumeration. `certain(φ, D) = true` iff *every*
/// grounded homomorphic image of `D` satisfies `φ`.
///
/// The grounding grid is swept in index order, with early exit on the
/// first counterexample image; each grounding's node quotients are
/// enumerated in turn.
///
/// # Panics
///
/// Panics if `phi` is not existential.
pub fn certain_existential(phi: &GFo, db: &GenDb) -> bool {
    assert!(
        phi.is_existential(),
        "certain_existential requires an existential sentence"
    );
    let space = GroundingSpace::new(db);
    (0..space.len()).all(|i| {
        let grounded = space.grounding(i);
        let mut holds_everywhere = true;
        for_each_quotient(&grounded, &mut |image: &GenDb| {
            if eval_gfo(phi, image) {
                true
            } else {
                holds_everywhere = false;
                false
            }
        });
        holds_everywhere
    })
}

/// The generalized schema of the coNP-hardness construction: one binary
/// structural relation `E`, labels `a` (one attribute — a vertex's color
/// slot) and `b` (three attributes — the palette).
pub fn phi0_schema() -> crate::schema::GenSchema {
    crate::schema::GenSchema::from_parts(&[("a", 1), ("b", 3)], &[("E", 2)])
}

/// Encode an undirected graph (given as vertex count + edges) as the
/// generalized database `D_G` of Theorem 7(b): one `a`-node per vertex
/// with a fresh null, edges in both directions, plus an isolated `b`-node
/// with palette `(1, 2, 3)`.
pub fn encode_graph_for_phi0(n_vertices: usize, edges: &[(u32, u32)]) -> GenDb {
    let mut d = GenDb::new(phi0_schema());
    for v in 0..n_vertices as u32 {
        d.add_node("a", vec![Value::null(v)]);
    }
    let b = d.add_node("b", vec![Value::Const(1), Value::Const(2), Value::Const(3)]);
    let _ = b;
    for &(u, v) in edges {
        d.add_tuple("E", vec![u, v]);
        d.add_tuple("E", vec![v, u]);
    }
    d
}

/// The sentence `ϕ₀ = ψ → ∃x∃y (P_a(x) ∧ P_a(y) ∧ E(x,y) ∧ =₁₁(x,y))`
/// where `ψ` says every `a`-attribute appears among the attributes of
/// every `b`-node. `certain(ϕ₀, D_G) = true` iff `G` is **not**
/// 3-colorable. Note `ϕ₀` is existential: `¬ψ` is an ∃∃ sentence.
pub fn phi0() -> GFo {
    let psi_body = GFo::And(vec![GFo::Label("a".into(), 0), GFo::Label("b".into(), 1)]).implies(
        GFo::Or(vec![
            GFo::AttrEq {
                i: 0,
                j: 0,
                x: 0,
                y: 1,
            },
            GFo::AttrEq {
                i: 0,
                j: 1,
                x: 0,
                y: 1,
            },
            GFo::AttrEq {
                i: 0,
                j: 2,
                x: 0,
                y: 1,
            },
        ]),
    );
    // ¬ψ = ∃x∃y ¬body; ϕ0 = ¬ψ ∨ χ.
    let not_psi = GFo::exists(0, GFo::exists(1, psi_body.not()));
    let chi = GFo::exists(
        0,
        GFo::exists(
            1,
            GFo::And(vec![
                GFo::Label("a".into(), 0),
                GFo::Label("a".into(), 1),
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
    GFo::Or(vec![not_psi, chi])
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

    fn rel_schema() -> GenSchema {
        GenSchema::from_parts(&[("R", 2)], &[])
    }

    #[test]
    fn expos_naive_evaluation() {
        // ∃x (P_R(x) ∧ =01(x,x)): some fact with equal attributes.
        let phi = GFo::exists(
            0,
            GFo::And(vec![
                GFo::Label("R".into(), 0),
                GFo::AttrEq {
                    i: 0,
                    j: 1,
                    x: 0,
                    y: 0,
                },
            ]),
        );
        let mut yes = GenDb::new(rel_schema());
        yes.add_node("R", vec![n(1), n(1)]);
        assert!(certain_expos(&phi, &yes));
        let mut no = GenDb::new(rel_schema());
        no.add_node("R", vec![n(1), n(2)]);
        assert!(!certain_expos(&phi, &no));
    }

    /// Cross-check Theorem 7(a) against the exact image-based procedure on
    /// existential-positive sentences (which are in particular
    /// existential).
    #[test]
    fn expos_agrees_with_image_enumeration() {
        let phis = [
            GFo::exists(
                0,
                GFo::And(vec![
                    GFo::Label("R".into(), 0),
                    GFo::AttrEq {
                        i: 0,
                        j: 1,
                        x: 0,
                        y: 0,
                    },
                ]),
            ),
            GFo::exists(
                0,
                GFo::exists(
                    1,
                    GFo::AttrEq {
                        i: 0,
                        j: 0,
                        x: 0,
                        y: 1,
                    },
                ),
            ),
        ];
        let mut dbs = Vec::new();
        let mut d1 = GenDb::new(rel_schema());
        d1.add_node("R", vec![n(1), n(1)]);
        dbs.push(d1);
        let mut d2 = GenDb::new(rel_schema());
        d2.add_node("R", vec![n(1), n(2)]);
        dbs.push(d2);
        let mut d3 = GenDb::new(rel_schema());
        d3.add_node("R", vec![c(1), n(1)]);
        d3.add_node("R", vec![n(1), c(1)]);
        dbs.push(d3);
        for phi in &phis {
            for db in &dbs {
                assert_eq!(
                    certain_expos(phi, db),
                    certain_existential(phi, db),
                    "7(a) vs 7(b) disagree on {phi:?} over {db:?}"
                );
            }
        }
    }

    /// Negation changes the picture: node merging matters. `∃x∃y x≠y` is
    /// naïvely true on two equal-label nodes but certainly false (they may
    /// denote the same completed node).
    #[test]
    fn merging_defeats_naive_evaluation_for_existential() {
        let phi = GFo::exists(0, GFo::exists(1, GFo::NodeEq(0, 1).not()));
        let mut d = GenDb::new(rel_schema());
        d.add_node("R", vec![n(1), n(2)]);
        d.add_node("R", vec![n(3), n(4)]);
        assert!(eval_gfo(&phi, &d)); // naïve evaluation says true
        assert!(!certain_existential(&phi, &d)); // but it is not certain
                                                 // With distinct constants pinning the nodes apart, it is certain.
        let mut d2 = GenDb::new(rel_schema());
        d2.add_node("R", vec![c(1), c(1)]);
        d2.add_node("R", vec![c(2), c(2)]);
        assert!(certain_existential(&phi, &d2));
    }

    /// Theorem 7(b) hardness construction, validated exhaustively on small
    /// graphs: `certain(ϕ₀, D_G) = true` iff `G` is not 3-colorable.
    #[test]
    fn phi0_is_non_three_colorability() {
        let phi = phi0();
        assert!(phi.is_existential());
        // K3: 3-colorable ⇒ certain answer false.
        let k3 = encode_graph_for_phi0(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(!certain_existential(&phi, &k3));
        // K4: not 3-colorable ⇒ certain answer true.
        let k4 = encode_graph_for_phi0(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!(certain_existential(&phi, &k4));
        // A 4-cycle: 2-colorable ⇒ false.
        let c4 = encode_graph_for_phi0(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(!certain_existential(&phi, &c4));
    }

    #[test]
    fn image_enumeration_counts() {
        // One node, one null: pool = {fresh}, partitions = 1 ⇒ 1 image.
        let mut d = GenDb::new(rel_schema());
        d.add_node("R", vec![n(1), c(5)]);
        let mut count = 0;
        for_each_grounded_image(&d, |_| {
            count += 1;
            true
        });
        // Pool = {5, fresh}: two groundings × 1 partition.
        assert_eq!(count, 2);
    }

    #[test]
    fn quotients_merge_only_identical_nodes() {
        let mut d = GenDb::new(rel_schema());
        d.add_node("R", vec![c(1), c(1)]);
        d.add_node("R", vec![c(1), c(1)]);
        d.add_node("R", vec![c(2), c(2)]);
        let mut sizes = Vec::new();
        for_each_quotient(&d, &mut |q: &GenDb| {
            sizes.push(q.n_nodes());
            true
        });
        sizes.sort_unstable();
        // Nodes 0,1 may merge; node 2 never merges with them.
        assert_eq!(sizes, vec![2, 3]);
    }
}
