//! Differential tests: the incremental retraction engine behind
//! `ca_graph::core` against the retained seed-era loop in
//! `ca_graph::reference` on random digraphs.
//!
//! Cores are unique only up to isomorphism, so the engines need not keep
//! the *same* vertices; what must agree exactly is the core size, the
//! `is_core` verdict, and hom-equivalence (of the two cores with each
//! other and with the original graph). Any disagreement is a regression
//! in the new engine (or, historically, a bug in the old one).

use proptest::prelude::*;

use ca_graph::digraph::random_digraph;
use ca_graph::{core_of, is_core, reference};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant: same core size, mutually hom-equivalent,
    /// both hom-equivalent to the original.
    #[test]
    fn core_agrees_with_reference(n in 1usize..8, num in 1u64..4, seed in 0u64..10_000) {
        let g = random_digraph(n, num, 5, seed);
        let (new_core, new_kept) = core_of(&g);
        let (old_core, old_kept) = reference::core_of(&g);
        prop_assert_eq!(new_core.n, old_core.n, "core sizes diverged on {:?}", &g);
        prop_assert_eq!(new_kept.len(), new_core.n);
        prop_assert_eq!(old_kept.len(), old_core.n);
        prop_assert!(new_core.hom_equiv(&old_core));
        prop_assert!(new_core.hom_equiv(&g));
    }

    /// `is_core` verdicts agree, and the computed core really is one by
    /// the reference's own definition.
    #[test]
    fn is_core_agrees_with_reference(n in 1usize..7, num in 1u64..4, seed in 0u64..10_000) {
        let g = random_digraph(n, num, 5, seed);
        prop_assert_eq!(is_core(&g), reference::is_core(&g));
        let (core, _) = core_of(&g);
        prop_assert!(reference::is_core(&core), "engine returned a non-core on {:?}", &g);
    }
}
