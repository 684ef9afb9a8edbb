//! The information ordering on naïve databases.
//!
//! `D ⊑ D′` iff `[[D′]] ⊆ [[D]]` — more informative objects denote fewer
//! completions. Proposition 3 characterizes this semantically defined
//! preorder as homomorphism existence, which is how [`InfoOrder`]
//! implements it. The module also plugs naïve databases into the abstract
//! framework of [`ca_core`]: [`InfoOrder`] is a
//! [`Preorder`] with
//! [complete objects](ca_core::complete::CompleteObjects), so all the
//! Section 3 notions (glbs, max-descriptions, `certain_cpl`, naïve
//! evaluation) apply verbatim.

use ca_core::complete::CompleteObjects;
use ca_core::preorder::Preorder;

use crate::database::NaiveDatabase;
use crate::hom::find_hom;

/// The homomorphism-based information ordering of Proposition 3.
#[derive(Clone, Copy, Debug, Default)]
pub struct InfoOrder;

impl Preorder for InfoOrder {
    type Object = NaiveDatabase;

    fn leq(&self, x: &NaiveDatabase, y: &NaiveDatabase) -> bool {
        find_hom(x, y).is_some()
    }
}

impl CompleteObjects for InfoOrder {
    fn is_complete(&self, x: &NaiveDatabase) -> bool {
        x.is_complete()
    }

    fn pi_cpl(&self, x: &NaiveDatabase) -> NaiveDatabase {
        x.complete_part()
    }
}

/// Brute-force semantic comparison for cross-validation of Proposition 3:
/// `[[y]] ⊆ [[x]]` checked over all completions of `y` into `pool`
/// (exponential; test-sized instances only). For the inclusion to be
/// meaningful the pool must be large enough to exercise the fresh-constant
/// argument of the proposition (≥ #nulls of `y` fresh constants).
pub fn semantic_leq_over_pool(x: &NaiveDatabase, y: &NaiveDatabase, pool: &[i64]) -> bool {
    y.completions_over(pool)
        .iter()
        .all(|r| crate::hom::in_semantics(r, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::complete::CompleteFiniteDomain;
    use ca_core::domain::FiniteDomain;
    use ca_core::preorder::PreorderExt;

    use crate::database::build::{c, n, table};

    #[test]
    fn leq_is_hom_existence() {
        let less = table("R", 2, &[&[n(1), n(2)]]);
        let more = table("R", 2, &[&[c(1), c(2)]]);
        assert!(InfoOrder.leq(&less, &more));
        assert!(!InfoOrder.leq(&more, &less));
        assert!(InfoOrder.lt(&less, &more));
    }

    #[test]
    fn equivalent_but_unequal_databases() {
        // R(⊥1, ⊥2) and R(⊥3, ⊥4) are ∼-equivalent, not equal.
        let a = table("R", 2, &[&[n(1), n(2)]]);
        let b = table("R", 2, &[&[n(3), n(4)]]);
        assert!(InfoOrder.equiv(&a, &b));
        assert_ne!(a, b);
    }

    /// Proposition 3, cross-validated by brute force: on a small universe,
    /// hom existence agrees with semantic inclusion over a sufficiently
    /// large constant pool.
    #[test]
    fn proposition3_hom_iff_semantic_inclusion() {
        let candidates = vec![
            table("R", 2, &[&[n(1), n(2)]]),
            table("R", 2, &[&[n(1), n(1)]]),
            table("R", 2, &[&[c(1), n(1)]]),
            table("R", 2, &[&[c(1), c(2)]]),
            table("R", 2, &[&[c(1), c(1)]]),
            table("R", 2, &[&[n(1), n(2)], &[n(2), n(3)]]),
            table("R", 2, &[]),
        ];
        // Pool: constants of the instances plus enough fresh ones.
        let pool: Vec<i64> = vec![1, 2, 10, 11, 12];
        for x in &candidates {
            for y in &candidates {
                let by_hom = InfoOrder.leq(x, y);
                let by_semantics = semantic_leq_over_pool(x, y, &pool);
                assert_eq!(
                    by_hom, by_semantics,
                    "Proposition 3 violated for x={x:?}, y={y:?}"
                );
            }
        }
    }

    #[test]
    fn complete_objects_axioms_on_enumerated_fragment() {
        // A small closed fragment: all subsets of {R(1), R(⊥1)} plus a few
        // richer objects.
        let objects = vec![
            table("R", 1, &[]),
            table("R", 1, &[&[c(1)]]),
            table("R", 1, &[&[n(1)]]),
            table("R", 1, &[&[c(1)], &[n(1)]]),
            table("R", 1, &[&[c(2)]]),
            table("R", 1, &[&[c(1)], &[c(2)]]),
        ];
        let dom = CompleteFiniteDomain::new(FiniteDomain::new(InfoOrder, objects));
        assert!(dom.domain.check_reflexive());
        assert!(dom.domain.check_transitive());
        // Axiom 1 and monotone retraction hold; axiom 3 needs "enough"
        // complete objects, which this fragment has (every null pattern
        // has complete instances above it inside the fragment).
        assert_eq!(dom.check_axioms(), Vec::<u8>::new());
        assert!(dom.check_lemma2());
    }

    #[test]
    fn empty_database_is_bottom() {
        let empty = table("R", 2, &[]);
        let others = [
            table("R", 2, &[&[c(1), c(2)]]),
            table("R", 2, &[&[n(1), n(1)]]),
        ];
        for o in &others {
            assert!(InfoOrder.leq(&empty, o));
            assert!(!InfoOrder.leq(o, &empty));
        }
    }

    #[test]
    fn null_reuse_is_more_informative() {
        // R(⊥1, ⊥1) is strictly above R(⊥1, ⊥2): the repeated null says
        // "these two are equal".
        let reuse = table("R", 2, &[&[n(1), n(1)]]);
        let fresh = table("R", 2, &[&[n(1), n(2)]]);
        assert!(InfoOrder.lt(&fresh, &reuse));
    }
}
