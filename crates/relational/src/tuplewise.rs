//! The 1990s orderings and the closed world (Propositions 4 and 8).
//!
//! Before the semantics-based ordering `⊑`, the literature ordered
//! incomplete relations tuple-wise: `(a₁…aₘ) ⊴ (b₁…bₘ)` iff each `aᵢ` is a
//! null or equals `bᵢ`, lifted to sets by
//!
//! * **Hoare**: `X ⊴ Y ⇔ ∀x∈X ∃y∈Y: x ⊴ y`;
//! * **Plotkin**: Hoare plus `∀y∈Y ∃x∈X: x ⊴ y`.
//!
//! Proposition 4: on *Codd* databases `⊑` coincides with the Hoare lifting
//! (so the old orderings were adequate exactly for SQL's primitive view of
//! nulls); on naïve databases they differ. Proposition 8: the closed-world
//! ordering `⊑_cwa` (existence of an *onto* homomorphism) coincides, on
//! Codd databases, with `⊴` plus Hall's condition on `⊴⁻¹`.

use ca_hom::matching::{hall_condition, Bipartite};

use crate::database::{Fact, NaiveDatabase};

/// Tuple-wise dominance `t ⊴ t′` on facts: same relation, and position-wise
/// each value is a null or the matching constant.
pub fn fact_leq(a: &Fact, b: &Fact, a_db: &NaiveDatabase, b_db: &NaiveDatabase) -> bool {
    a_db.schema.name(a.rel) == b_db.schema.name(b.rel)
        && a.args.len() == b.args.len()
        && a.args
            .iter()
            .zip(b.args.iter())
            .all(|(&x, &y)| x.tuplewise_leq(y))
}

/// The Hoare lifting `D ⊴ D′`: every fact of `D` is dominated by some fact
/// of `D′`.
pub fn hoare_leq(a: &NaiveDatabase, b: &NaiveDatabase) -> bool {
    a.facts()
        .iter()
        .all(|fa| b.facts().iter().any(|fb| fact_leq(fa, fb, a, b)))
}

/// The Plotkin lifting: Hoare in both directions
/// (`∀x∃y: x ⊴ y` and `∀y∃x: x ⊴ y`).
pub fn plotkin_leq(a: &NaiveDatabase, b: &NaiveDatabase) -> bool {
    hoare_leq(a, b)
        && b.facts()
            .iter()
            .all(|fb| a.facts().iter().any(|fa| fact_leq(fa, fb, a, b)))
}

/// Does `⊴⁻¹ ⊆ D′ × D` satisfy Hall's condition: for every set `U` of
/// facts of `D′`, at least `|U|` facts of `D` are dominated by members of
/// `U`? Checked via maximum matching (marriage theorem), in polynomial
/// time.
pub fn hall_on_dominance(a: &NaiveDatabase, b: &NaiveDatabase) -> bool {
    // Left vertices: facts of b (= D′); right: facts of a (= D);
    // edge (t′, t) iff t ⊴ t′.
    let mut g = Bipartite::new(b.len(), a.len());
    for (i, fb) in b.facts().iter().enumerate() {
        for (j, fa) in a.facts().iter().enumerate() {
            if fact_leq(fa, fb, a, b) {
                g.add_edge(i as u32, j as u32);
            }
        }
    }
    hall_condition(&g)
}

/// The Proposition 8 decision procedure for `D ⊑_cwa D′` on **Codd**
/// databases: `D ⊴ D′` (Hoare) together with Hall's condition on `⊴⁻¹`.
/// Polynomial time, in contrast to the onto-homomorphism search.
///
/// # Panics
///
/// Panics if `a` is not a Codd database (the characterization is only
/// proved under the Codd interpretation).
pub fn cwa_leq_codd(a: &NaiveDatabase, b: &NaiveDatabase) -> bool {
    assert!(a.is_codd(), "Proposition 8 requires a Codd left argument");
    hoare_leq(a, b) && hall_on_dominance(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::preorder::Preorder;

    use crate::database::build::{c, n, table};
    use crate::generate::{random_codd_db, Rng};
    use crate::hom::find_onto_hom;
    use crate::ordering::InfoOrder;

    #[test]
    fn fact_dominance() {
        let a = table("R", 2, &[&[n(1), c(2)]]);
        let b = table("R", 2, &[&[c(1), c(2)]]);
        assert!(fact_leq(&a.facts()[0], &b.facts()[0], &a, &b));
        assert!(!fact_leq(&b.facts()[0], &a.facts()[0], &b, &a));
    }

    #[test]
    fn hoare_and_plotkin_differ() {
        // A null dominates nothing but is dominated by everything, so
        // {⊥1} ⊴ {1, 2} holds in both liftings (⊥1 witnesses ∀y∃x).
        let small = table("R", 1, &[&[n(1)]]);
        let big = table("R", 1, &[&[c(1)], &[c(2)]]);
        assert!(hoare_leq(&small, &big));
        assert!(plotkin_leq(&small, &big));
        // With constants the liftings separate: 4 is not dominated by 3.
        let a = table("R", 1, &[&[c(3)]]);
        let b = table("R", 1, &[&[c(3)], &[c(4)]]);
        assert!(hoare_leq(&a, &b));
        assert!(!plotkin_leq(&a, &b)); // 4 is not dominated by 3
    }

    /// Proposition 4 on hand-picked Codd databases plus the classical
    /// counterexample showing it fails for naïve (null-repeating) ones.
    #[test]
    fn proposition4_codd_orderings_coincide() {
        let codd_pairs = [
            (
                table("R", 2, &[&[n(1), c(2)]]),
                table("R", 2, &[&[c(1), c(2)]]),
                true,
            ),
            (
                table("R", 2, &[&[c(1), n(1)]]),
                table("R", 2, &[&[c(2), c(2)]]),
                false,
            ),
            (
                table("R", 2, &[&[n(1), n(2)], &[c(1), c(2)]]),
                table("R", 2, &[&[c(1), c(2)]]),
                true,
            ),
        ];
        for (a, b, expect) in &codd_pairs {
            assert!(a.is_codd() && b.is_codd());
            assert_eq!(hoare_leq(a, b), *expect);
            assert_eq!(InfoOrder.leq(a, b), *expect, "⊑ vs ⊴ on {a:?} vs {b:?}");
        }
        // Naïve counterexample: repeated null. ⊴ ignores the repetition.
        let naive = table("R", 2, &[&[n(1), n(1)]]);
        let target = table("R", 2, &[&[c(1), c(2)]]);
        assert!(hoare_leq(&naive, &target));
        assert!(!InfoOrder.leq(&naive, &target));
    }

    /// Proposition 4 on random Codd databases: ⊑ = ⊴ (Hoare).
    #[test]
    fn proposition4_random_codd() {
        let mut rng = Rng::new(2024);
        for trial in 0..60 {
            let a = random_codd_db(&mut rng, 4, 2, 3);
            let b = random_codd_db(&mut rng, 4, 2, 3);
            assert_eq!(
                InfoOrder.leq(&a, &b),
                hoare_leq(&a, &b),
                "Proposition 4 violated on trial {trial}: {a:?} vs {b:?}"
            );
        }
    }

    /// Proposition 8 on random Codd databases: `⊑_cwa` (onto homomorphism,
    /// by enumeration) coincides with ⊴ + Hall.
    #[test]
    fn proposition8_random_codd() {
        let mut rng = Rng::new(4711);
        let mut positives = 0;
        for trial in 0..60 {
            let a = random_codd_db(&mut rng, 3, 2, 2);
            let b = random_codd_db(&mut rng, 3, 2, 2);
            let by_onto = find_onto_hom(&a, &b, 100_000).found();
            let by_prop8 = cwa_leq_codd(&a, &b);
            assert_eq!(
                by_onto, by_prop8,
                "Proposition 8 violated on trial {trial}: {a:?} vs {b:?}"
            );
            positives += usize::from(by_onto);
        }
        assert!(positives > 0, "test never exercised the positive case");
    }

    #[test]
    fn proposition8_hall_failure_case() {
        // D = {R(⊥1)}, D′ = {R(1), R(2)}: ⊴ holds but Hall fails
        // (two D′ facts dominated by one D fact).
        let a = table("R", 1, &[&[n(1)]]);
        let b = table("R", 1, &[&[c(1)], &[c(2)]]);
        assert!(hoare_leq(&a, &b));
        assert!(!hall_on_dominance(&a, &b));
        assert!(!cwa_leq_codd(&a, &b));
        assert!(find_onto_hom(&a, &b, 100_000).definitely_absent());
    }

    #[test]
    fn cwa_positive_case() {
        let a = table("R", 1, &[&[n(1)], &[n(2)]]);
        let b = table("R", 1, &[&[c(1)], &[c(2)]]);
        assert!(cwa_leq_codd(&a, &b));
        assert!(find_onto_hom(&a, &b, 100_000).found());
    }
}

/// The *Codd weakening* of a naïve database: replace every null
/// *occurrence* by a globally fresh null, forgetting all equalities
/// between unknowns. This is the best Codd-interpretable approximation
/// from below: `codd_weakening(D) ⊑ D`, with equality exactly when `D`
/// was already (equivalent to) a Codd database — the quantitative content
/// of the paper's remark that the 1990s orderings fit "SQL's primitive
/// view of nulls".
pub fn codd_weakening(d: &crate::database::NaiveDatabase) -> crate::database::NaiveDatabase {
    use ca_core::value::{NullGen, Value};
    let mut gen = NullGen::avoiding(d.nulls());
    let facts = d
        .facts()
        .iter()
        .map(|f| crate::database::Fact {
            rel: f.rel,
            args: f
                .args
                .iter()
                .map(|v| match v {
                    Value::Null(_) => gen.fresh_value(),
                    c => *c,
                })
                .collect(),
        })
        .collect();
    crate::database::NaiveDatabase::from_facts(d.schema.clone(), facts)
}

#[cfg(test)]
mod weakening_tests {
    use super::codd_weakening;
    use crate::database::build::{c, n, table};
    use crate::ordering::InfoOrder;
    use ca_core::preorder::{Preorder, PreorderExt};

    #[test]
    fn weakening_is_below_and_codd() {
        let d = table("R", 2, &[&[n(1), n(1)], &[n(1), c(2)]]);
        let w = codd_weakening(&d);
        assert!(w.is_codd());
        assert!(InfoOrder.leq(&w, &d));
        // Strictly below: the repeated-null equality is lost.
        assert!(InfoOrder.lt(&w, &d));
    }

    #[test]
    fn weakening_fixes_codd_databases() {
        let d = table("R", 2, &[&[n(1), c(1)], &[n(2), c(2)]]);
        assert!(d.is_codd());
        let w = codd_weakening(&d);
        assert!(InfoOrder.equiv(&w, &d));
    }

    #[test]
    fn weakening_is_the_greatest_codd_lower_bound_spot_check() {
        // Any Codd database below D is below the weakening.
        let d = table("R", 2, &[&[n(1), n(1)]]);
        let w = codd_weakening(&d);
        let candidates = [table("R", 2, &[&[n(5), n(6)]]), table("R", 2, &[])];
        for cand in &candidates {
            assert!(cand.is_codd());
            if InfoOrder.leq(cand, &d) {
                assert!(InfoOrder.leq(cand, &w));
            }
        }
    }
}
