//! Differential tests: the incremental retraction engine behind
//! `ca_exchange::solution::core_of_gendb` (via the
//! `ca_gdm::encode::self_hom_structure` encoding) against the retained
//! seed-era loop in `ca_exchange::reference` on random generalized
//! databases.
//!
//! Cores are unique only up to isomorphism, so the engines need not keep
//! the same nodes; what must agree exactly is the core size and
//! hom-equivalence (with each other and with the original). Any
//! disagreement is a regression in the new engine.

use proptest::prelude::*;

use ca_exchange::reference;
use ca_exchange::solution::core_of_gendb;
use ca_gdm::encode::encode_relational;
use ca_gdm::generate::{random_tree_gendb, TreeGenParams};
use ca_gdm::hom::gdm_equiv;
use ca_relational::generate::{random_naive_db, DbParams, Rng};

fn gen_db(seed: u64, n_nodes: usize, codd: bool) -> ca_gdm::database::GenDb {
    let mut rng = Rng::new(seed);
    random_tree_gendb(
        &mut rng,
        TreeGenParams {
            n_nodes,
            n_labels: 2,
            max_data_arity: 2,
            n_constants: 2,
            null_pct: 50,
            codd,
        },
    )
}

/// A purely relational gendb (`σ = ∅`): exercises the value-only
/// encoding path of `core_of_gendb` (tree gendbs above carry `child`
/// tuples and exercise the node encoding).
fn gen_relational_db(seed: u64, n_facts: usize) -> ca_gdm::database::GenDb {
    let mut rng = Rng::new(seed);
    encode_relational(&random_naive_db(
        &mut rng,
        DbParams {
            n_facts,
            arity: 2,
            n_constants: 2,
            n_nulls: 3,
            null_pct: 60,
        },
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline invariant: same core size, mutually hom-equivalent,
    /// both hom-equivalent to the original.
    #[test]
    fn gendb_core_agrees_with_reference(seed in 0u64..10_000, n in 1usize..6, codd_bit in 0u8..2) {
        let d = gen_db(seed, n, codd_bit == 1);
        let new_core = core_of_gendb(&d);
        let old_core = reference::core_of_gendb(&d);
        prop_assert_eq!(new_core.n_nodes(), old_core.n_nodes(), "core sizes diverged on {:?}", &d);
        prop_assert!(gdm_equiv(&new_core, &old_core));
        prop_assert!(gdm_equiv(&new_core, &d));
    }

    /// The computed core is a fixpoint: the reference loop cannot shrink
    /// it further.
    #[test]
    fn gendb_core_is_a_core(seed in 0u64..10_000, n in 1usize..6) {
        let d = gen_db(seed, n, false);
        let core = core_of_gendb(&d);
        prop_assert_eq!(
            reference::core_of_gendb(&core).n_nodes(),
            core.n_nodes(),
            "engine returned a non-core on {:?}", &d
        );
    }

    /// The value-encoding path (`σ = ∅`): same invariants against the
    /// reference, which always runs the node-level loop.
    #[test]
    fn relational_gendb_core_agrees_with_reference(seed in 0u64..10_000, n in 1usize..7) {
        let d = gen_relational_db(seed, n);
        let new_core = core_of_gendb(&d);
        let old_core = reference::core_of_gendb(&d);
        prop_assert_eq!(new_core.n_nodes(), old_core.n_nodes(), "core sizes diverged on {:?}", &d);
        prop_assert!(gdm_equiv(&new_core, &old_core));
        prop_assert!(gdm_equiv(&new_core, &d));
        prop_assert_eq!(
            reference::core_of_gendb(&new_core).n_nodes(),
            new_core.n_nodes(),
            "value path returned a non-core on {:?}", &d
        );
    }
}
