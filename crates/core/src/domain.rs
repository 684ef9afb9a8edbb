//! Finite database domains: exhaustive checking of the Section 3 results.
//!
//! The paper's Section 3 works over an arbitrary preordered universe. To
//! *test* those results mechanically we enumerate a finite fragment of the
//! universe and compute everything — `Mod`/`Th`, lower bounds, glbs,
//! max-descriptions, bases — by brute force. Theorem 1 ("max-descriptions
//! are exactly glbs") and Lemma 1 ("a basis suffices for certain answers")
//! then become executable assertions.

use crate::preorder::{Preorder, PreorderExt};

/// A finite, explicitly enumerated fragment of a database domain `⟨D, ⊑⟩`.
///
/// All Section 3 notions are computed relative to the enumerated `objects`;
/// when `objects` is the whole (finite) domain these are the paper's notions
/// verbatim.
pub struct FiniteDomain<P: Preorder> {
    /// The ordering.
    pub preorder: P,
    /// The enumerated universe.
    pub objects: Vec<P::Object>,
}

impl<P: Preorder> FiniteDomain<P> {
    /// Build a finite domain from an ordering and its universe.
    pub fn new(preorder: P, objects: Vec<P::Object>) -> Self {
        FiniteDomain { preorder, objects }
    }

    /// Number of enumerated objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Verify that `⊑` really is reflexive on the enumerated universe.
    pub fn check_reflexive(&self) -> bool {
        self.objects.iter().all(|x| self.preorder.leq(x, x))
    }

    /// Verify that `⊑` really is transitive on the enumerated universe.
    /// Cubic in the universe size; intended for test-sized domains.
    pub fn check_transitive(&self) -> bool {
        let n = self.objects.len();
        for i in 0..n {
            for j in 0..n {
                if !self.preorder.leq(&self.objects[i], &self.objects[j]) {
                    continue;
                }
                for k in 0..n {
                    if self.preorder.leq(&self.objects[j], &self.objects[k])
                        && !self.preorder.leq(&self.objects[i], &self.objects[k])
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// `↑x = Mod(x)`: indices of enumerated objects `⊒ x`. Viewing objects as
    /// partial descriptions, these are the models of `x`.
    pub fn up(&self, x: &P::Object) -> Vec<usize> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, y)| self.preorder.leq(x, y))
            .map(|(i, _)| i)
            .collect()
    }

    /// `↓x = Th(x)`: indices of enumerated objects `⊑ x` — the descriptions
    /// `x` satisfies.
    pub fn down(&self, x: &P::Object) -> Vec<usize> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, y)| self.preorder.leq(y, x))
            .map(|(i, _)| i)
            .collect()
    }

    /// `Mod(X) = ⋂_{x∈X} ↑x`: indices of objects above every element of `xs`.
    pub fn models(&self, xs: &[P::Object]) -> Vec<usize> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, y)| self.preorder.is_upper_bound(y, xs))
            .map(|(i, _)| i)
            .collect()
    }

    /// `Th(X) = ⋂_{x∈X} ↓x`: indices of objects below every element of `xs`
    /// — the lower bounds of `X`, a.k.a. its certain knowledge.
    pub fn theory(&self, xs: &[P::Object]) -> Vec<usize> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, y)| self.preorder.is_lower_bound(y, xs))
            .map(|(i, _)| i)
            .collect()
    }

    /// The glb equivalence class `⋀ xs` within the enumerated universe:
    /// indices of lower bounds of `xs` dominating every other lower bound.
    /// Empty iff no glb exists in the fragment.
    pub fn glb_class(&self, xs: &[P::Object]) -> Vec<usize> {
        let lbs = self.theory(xs);
        lbs.iter()
            .copied()
            .filter(|&i| {
                lbs.iter()
                    .all(|&j| self.preorder.leq(&self.objects[j], &self.objects[i]))
            })
            .collect()
    }

    /// Dual of [`FiniteDomain::glb_class`]: the lub equivalence class `⋁ xs`.
    pub fn lub_class(&self, xs: &[P::Object]) -> Vec<usize> {
        let ubs = self.models(xs);
        ubs.iter()
            .copied()
            .filter(|&i| {
                ubs.iter()
                    .all(|&j| self.preorder.leq(&self.objects[i], &self.objects[j]))
            })
            .collect()
    }

    /// Is `m` a *max-description* of `xs` in the sense of \[16\] / Section 3:
    /// `Mod(m) = Mod(Th(xs))`, all computed within the enumerated universe?
    ///
    /// By Theorem 1 this holds iff `m ∈ ⋀ xs`; see the tests.
    pub fn is_max_description(&self, m: &P::Object, xs: &[P::Object]) -> bool {
        // Mod(Th(X)): objects above every lower bound of X.
        let th: Vec<&P::Object> = self
            .theory(xs)
            .into_iter()
            .map(|i| &self.objects[i])
            .collect();
        let mod_th: Vec<usize> = self
            .objects
            .iter()
            .enumerate()
            .filter(|(_, y)| th.iter().all(|t| self.preorder.leq(t, y)))
            .map(|(i, _)| i)
            .collect();
        self.up(m) == mod_th
    }

    /// Is `basis` a basis of `xs`: `↑basis = ↑xs` within the universe?
    pub fn is_basis(&self, basis: &[P::Object], xs: &[P::Object]) -> bool {
        // ↑B = ⋃_{b∈B} ↑b, and likewise for X.
        let up_set = |set: &[P::Object]| -> Vec<bool> {
            self.objects
                .iter()
                .map(|y| set.iter().any(|x| self.preorder.leq(x, y)))
                .collect()
        };
        up_set(basis) == up_set(xs)
    }

    /// Compute `certain(Q, xs) = ⋀ Q(xs)` for a query given as a function,
    /// returning the glb equivalence class (as objects) of the query images.
    /// This is the paper's definition of certain answers in an ordered set.
    pub fn certain_answer_class<Q>(&self, query: Q, xs: &[P::Object]) -> Vec<&P::Object>
    where
        Q: Fn(&P::Object) -> P::Object,
    {
        let images: Vec<P::Object> = xs.iter().map(&query).collect();
        self.glb_class(&images)
            .into_iter()
            .map(|i| &self.objects[i])
            .collect()
    }

    /// Check monotonicity of a query on the enumerated fragment:
    /// `x ⊑ y ⇒ Q(x) ⊑ Q(y)`.
    pub fn is_monotone<Q>(&self, query: Q) -> bool
    where
        Q: Fn(&P::Object) -> P::Object,
    {
        for x in &self.objects {
            for y in &self.objects {
                if self.preorder.leq(x, y) && !self.preorder.leq(&query(x), &query(y)) {
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
    use crate::preorder::FnPreorder;

    type DivDomain = FiniteDomain<FnPreorder<u64, fn(&u64, &u64) -> bool>>;

    fn divisibility_domain(max: u64) -> DivDomain {
        let leq: fn(&u64, &u64) -> bool = |x, y| y % x == 0;
        FiniteDomain::new(FnPreorder::new(leq), (1..=max).collect())
    }

    #[test]
    fn axioms_hold_for_divisibility() {
        let d = divisibility_domain(24);
        assert!(d.check_reflexive());
        assert!(d.check_transitive());
    }

    #[test]
    fn glb_is_gcd_lub_is_lcm() {
        let d = divisibility_domain(40);
        let glb = d.glb_class(&[12, 18]);
        assert_eq!(glb, vec![5]); // index 5 = the number 6
        let lub = d.lub_class(&[4, 6]);
        assert_eq!(lub, vec![11]); // index 11 = the number 12
    }

    #[test]
    fn glb_may_fail_in_a_fragment() {
        // Universe {4, 6, 12}: the set {4, 6} has no lower bound at all in
        // the fragment (gcd 2 is missing), so no glb.
        let leq: fn(&u64, &u64) -> bool = |x, y| y % x == 0;
        let d = FiniteDomain::new(FnPreorder::new(leq), vec![4, 6, 12]);
        assert!(d.glb_class(&[4, 6]).is_empty());
    }

    /// Theorem 1, checked exhaustively: on a finite domain, `m` is a
    /// max-description of `X` iff `m` is in the glb class of `X`.
    #[test]
    fn theorem1_max_descriptions_are_glbs() {
        let d = divisibility_domain(12);
        let subsets: Vec<Vec<u64>> = vec![
            vec![4, 6],
            vec![8, 12],
            vec![3],
            vec![2, 3, 5],
            vec![6, 10],
            vec![7, 11],
        ];
        for xs in &subsets {
            let glb = d.glb_class(xs);
            for (i, m) in d.objects.iter().enumerate() {
                let is_md = d.is_max_description(m, xs);
                let in_glb = glb.contains(&i);
                assert_eq!(
                    is_md, in_glb,
                    "Theorem 1 violated at m={m}, X={xs:?}: max-desc={is_md}, glb={in_glb}"
                );
            }
        }
    }

    /// Lemma 1: if B is a basis of X and Q is monotone, then
    /// ⋀Q(X) = ⋀Q(B).
    #[test]
    fn lemma1_basis_certain_answers() {
        let d = divisibility_domain(36);
        // X = all multiples of 6 up to 36; B = {6} is a basis (everything in
        // X is above 6, and 6 ∈ X).
        let xs: Vec<u64> = (1..=6).map(|k| 6 * k).collect();
        let basis = vec![6u64];
        assert!(d.is_basis(&basis, &xs));
        // Monotone query: multiply by 2 (preserves divisibility).
        let q = |x: &u64| x * 2;
        assert!(d.is_monotone(q));
        let ca_x: Vec<u64> = d
            .certain_answer_class(q, &xs)
            .into_iter()
            .copied()
            .collect();
        let ca_b: Vec<u64> = d
            .certain_answer_class(q, &basis)
            .into_iter()
            .copied()
            .collect();
        assert_eq!(ca_x, ca_b);
        assert_eq!(ca_x, vec![12]);
    }

    /// Corollary 1: certain(Q, ↑x) = Q(x) for monotone Q.
    #[test]
    fn corollary1_certain_over_up_set() {
        let d = divisibility_domain(18);
        let x = 3u64;
        let up_x: Vec<u64> = d.up(&x).into_iter().map(|i| d.objects[i]).collect();
        let q = |v: &u64| *v; // identity is monotone
        let ca: Vec<u64> = d
            .certain_answer_class(q, &up_x)
            .into_iter()
            .copied()
            .collect();
        assert_eq!(ca, vec![3]);
    }

    #[test]
    fn models_and_theory_are_galois_dual() {
        let d = divisibility_domain(20);
        let xs = vec![4u64, 10];
        // X ⊆ Mod(Th(X)) — one inclusion of the Galois connection.
        let th: Vec<u64> = d.theory(&xs).into_iter().map(|i| d.objects[i]).collect();
        let mod_th = d.models(&th);
        for x in &xs {
            let idx = d.objects.iter().position(|o| o == x).unwrap();
            assert!(mod_th.contains(&idx));
        }
    }
}
