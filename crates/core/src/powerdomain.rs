//! Powerdomain orderings (Hoare, Smyth, Plotkin).
//!
//! The 1990s ordering-based treatments of incompleteness ([9, 10, 34, 39]
//! in the paper) lifted a base order on tuples to sets via the classical
//! powerdomain constructions from programming-language semantics. The
//! paper's Section 4 shows where those liftings sit relative to the
//! semantic ordering `⊑`: the Hoare lifting of the tuple order matches
//! `⊑` exactly on Codd databases (Proposition 4), and the Plotkin lifting
//! underlies the closed-world comparison (Proposition 8). This module
//! provides the three liftings generically over any base
//! [`Preorder`], with their standard laws
//! tested; `ca-relational` instantiates them at tuples.

use crate::preorder::Preorder;

/// `X ⊑_H Y` (Hoare / lower powerdomain): every element of `X` is below
/// some element of `Y` — "Y knows everything X does, possibly more
/// precisely".
pub fn hoare_lift<P: Preorder>(p: &P, xs: &[P::Object], ys: &[P::Object]) -> bool {
    xs.iter().all(|x| ys.iter().any(|y| p.leq(x, y)))
}

/// `X ⊑_S Y` (Smyth / upper powerdomain): every element of `Y` is above
/// some element of `X`.
pub fn smyth_lift<P: Preorder>(p: &P, xs: &[P::Object], ys: &[P::Object]) -> bool {
    ys.iter().all(|y| xs.iter().any(|x| p.leq(x, y)))
}

/// `X ⊑_P Y` (Plotkin / convex powerdomain): both Hoare and Smyth — the
/// lifting used to model closed-world incompleteness in [9, 34].
pub fn plotkin_lift<P: Preorder>(p: &P, xs: &[P::Object], ys: &[P::Object]) -> bool {
    hoare_lift(p, xs, ys) && smyth_lift(p, xs, ys)
}

/// A wrapper turning a base preorder into the Hoare-ordered domain of
/// finite sets (represented as vectors).
pub struct HoareOrder<P>(pub P);

impl<P: Preorder> Preorder for HoareOrder<P> {
    type Object = Vec<P::Object>;
    fn leq(&self, x: &Self::Object, y: &Self::Object) -> bool {
        hoare_lift(&self.0, x, y)
    }
}

/// The Smyth-ordered domain of finite sets.
pub struct SmythOrder<P>(pub P);

impl<P: Preorder> Preorder for SmythOrder<P> {
    type Object = Vec<P::Object>;
    fn leq(&self, x: &Self::Object, y: &Self::Object) -> bool {
        smyth_lift(&self.0, x, y)
    }
}

/// The Plotkin-ordered domain of finite sets.
pub struct PlotkinOrder<P>(pub P);

impl<P: Preorder> Preorder for PlotkinOrder<P> {
    type Object = Vec<P::Object>;
    fn leq(&self, x: &Self::Object, y: &Self::Object) -> bool {
        plotkin_lift(&self.0, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::FiniteDomain;
    use crate::preorder::FnPreorder;

    fn base() -> FnPreorder<u32, fn(&u32, &u32) -> bool> {
        // Flat order with a bottom: 0 ⊑ everything; otherwise equality.
        let leq: fn(&u32, &u32) -> bool = |x, y| *x == 0 || x == y;
        FnPreorder::new(leq)
    }

    #[test]
    fn hoare_basics() {
        let p = base();
        // {0} ⊑_H {1, 2}: the bottom maps under anything.
        assert!(hoare_lift(&p, &[0], &[1, 2]));
        // {1} ⋢_H {2}.
        assert!(!hoare_lift(&p, &[1], &[2]));
        // ∅ ⊑_H anything; nothing nonempty ⊑_H ∅.
        assert!(hoare_lift(&p, &[], &[1]));
        assert!(!hoare_lift(&p, &[1], &[]));
    }

    #[test]
    fn smyth_basics() {
        let p = base();
        // {0} ⊑_S {1, 2}: every y has 0 below it.
        assert!(smyth_lift(&p, &[0], &[1, 2]));
        // {1, 2} ⊑_S {1}: the 1 is covered… and nothing else is demanded.
        assert!(smyth_lift(&p, &[1, 2], &[1]));
        // anything ⊑_S ∅ vacuously; ∅ ⊑_S {1} fails.
        assert!(smyth_lift(&p, &[1], &[]));
        assert!(!smyth_lift(&p, &[], &[1]));
    }

    #[test]
    fn plotkin_is_the_meet_of_the_two() {
        let p = base();
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![0], vec![1, 2]),
            (vec![1], vec![1, 2]),
            (vec![1, 2], vec![1]),
            (vec![0, 1], vec![1]),
            (vec![], vec![]),
        ];
        for (xs, ys) in cases {
            assert_eq!(
                plotkin_lift(&p, &xs, &ys),
                hoare_lift(&p, &xs, &ys) && smyth_lift(&p, &xs, &ys),
                "on {xs:?} vs {ys:?}"
            );
        }
    }

    #[test]
    fn liftings_are_preorders() {
        // Exhaustive check on all subsets of {0, 1, 2}.
        let subsets: Vec<Vec<u32>> = (0u32..8)
            .map(|mask| (0..3).filter(|i| mask & (1 << i) != 0).collect())
            .collect();
        let hoare = FiniteDomain::new(HoareOrder(base()), subsets.clone());
        assert!(hoare.check_reflexive());
        assert!(hoare.check_transitive());
        let smyth = FiniteDomain::new(SmythOrder(base()), subsets.clone());
        assert!(smyth.check_reflexive());
        assert!(smyth.check_transitive());
        let plotkin = FiniteDomain::new(PlotkinOrder(base()), subsets);
        assert!(plotkin.check_reflexive());
        assert!(plotkin.check_transitive());
    }

    #[test]
    fn hoare_glbs_exist_on_the_subset_domain() {
        // In the Hoare lifting over the flat order, glb of {{1},{2}} is
        // (up to ∼) any set whose elements are below both — e.g. {0} or ∅…
        // {0} and ∅: hoare({0},∅)? every elt of {0} below some elt of ∅ —
        // false. So ∅ ⊑ {0} but not conversely: {0} is the glb.
        let subsets: Vec<Vec<u32>> = (0u32..8)
            .map(|mask| (0..3).filter(|i| mask & (1 << i) != 0).collect())
            .collect();
        let dom = FiniteDomain::new(HoareOrder(base()), subsets.clone());
        let glb = dom.glb_class(&[vec![1], vec![2]]);
        // The class contains {0} (bottom element sets).
        assert!(glb.iter().any(|&i| subsets[i] == vec![0]));
    }
}
