//! Differential tests: the bitset kernel in `ca_hom::csp` against the
//! retained naive solver in `ca_hom::reference` on random instances.
//!
//! The reference solver is the exact pre-rewrite kernel, so any
//! disagreement here is a regression in the new kernel (or, historically,
//! a bug in the old one). The new kernel must agree *exactly*: same
//! solution count, same satisfiability, and the
//! same solution set (compared as sorted sets — the kernels may enumerate
//! in different orders because their variable-ordering tie-breaks differ).

use proptest::prelude::*;

use ca_hom::csp::Csp;
use ca_hom::reference;

/// A random scope of the given arity over `n_vars` variables; repeated
/// variables are allowed (R(x, x)-style constraints).
fn arb_scope(n_vars: usize, arity: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..(n_vars as u32), arity..=arity)
}

/// A random CSP mixing unary, binary and ternary table constraints over
/// restricted, possibly unsorted domains. Domains are duplicate-free (the
/// naive kernel enumerates duplicated domain values twice, which no real
/// caller relies on).
fn arb_csp() -> impl Strategy<Value = Csp> {
    let n_values = 6u32;
    let domain = prop::collection::vec(0u32..n_values, 1..5).prop_map(|mut d| {
        // Deduplicate without sorting, to exercise unsorted domains.
        let mut seen = Vec::new();
        d.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(*v);
                true
            }
        });
        d
    });
    let binary = (
        arb_scope(4, 2),
        prop::collection::vec((0u32..n_values, 0u32..n_values), 0..8),
    )
        .prop_map(|(scope, tuples)| {
            (
                scope,
                tuples
                    .into_iter()
                    .map(|(a, b)| vec![a, b])
                    .collect::<Vec<_>>(),
            )
        });
    let ternary = (
        arb_scope(4, 3),
        prop::collection::vec((0u32..n_values, 0u32..n_values, 0u32..n_values), 0..10),
    )
        .prop_map(|(scope, tuples)| {
            (
                scope,
                tuples
                    .into_iter()
                    .map(|(a, b, c)| vec![a, b, c])
                    .collect::<Vec<_>>(),
            )
        });
    let constraint = prop_oneof![binary, ternary];
    (
        prop::collection::vec(domain, 1..=4),
        prop::collection::vec(constraint, 0..4),
    )
        .prop_map(|(domains, cons)| {
            let n_vars = domains.len();
            let mut csp = Csp {
                domains,
                constraints: Vec::new(),
            };
            for (scope, allowed) in cons {
                let scope: Vec<u32> = scope.into_iter().map(|v| v % n_vars as u32).collect();
                csp.add_constraint(scope, allowed);
            }
            csp
        })
}

/// Sort a solution list for set comparison.
fn sorted(mut sols: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    sols.sort_unstable();
    sols
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline invariant: sequential counts are identical.
    #[test]
    fn counts_agree_with_reference(csp in arb_csp()) {
        prop_assert_eq!(
            csp.count_solutions(),
            reference::count_solutions(&csp)
        );
    }

    /// Satisfiability agrees, and any witness the new kernel produces
    /// satisfies every constraint (checked against the raw tables, not the
    /// kernel's own compiled form).
    #[test]
    fn satisfiability_agrees_with_reference(csp in arb_csp()) {
        let new = csp.solve();
        let old = reference::solve(&csp);
        prop_assert_eq!(new.is_some(), old.is_some());
        if let Some(sol) = new {
            for con in &csp.constraints {
                let tuple: Vec<u32> = con.scope.iter().map(|&v| sol[v as usize]).collect();
                prop_assert!(con.allowed.contains(&tuple), "witness violates a constraint");
            }
            for (v, dom) in csp.domains.iter().enumerate() {
                prop_assert!(dom.contains(&sol[v]), "witness leaves its domain");
            }
        }
    }

    /// Full enumerations produce the same solution *set*.
    #[test]
    fn full_enumerations_agree_with_reference(csp in arb_csp()) {
        let new = csp.solve_all(usize::MAX);
        let old = reference::solve_all(&csp, usize::MAX);
        prop_assert!(!new.truncated);
        prop_assert!(!old.truncated);
        prop_assert_eq!(sorted(new.solutions), sorted(old.solutions));
    }

    /// Truncated enumerations agree on length and on the truncation flag
    /// (the prefixes themselves may differ: the kernels order variables
    /// differently).
    #[test]
    fn truncated_enumerations_agree_with_reference(csp in arb_csp(), limit in 1usize..6) {
        let new = csp.solve_all(limit);
        let old = reference::solve_all(&csp, limit);
        prop_assert_eq!(new.solutions.len(), old.solutions.len());
        prop_assert_eq!(new.truncated, old.truncated);
    }

    /// Nullary constraints: an empty-scope constraint allowing nothing is
    /// false, allowing the empty tuple is true — in both kernels.
    #[test]
    fn nullary_constraints_agree(csp in arb_csp(), tautology in any::<bool>()) {
        let mut csp = csp;
        let allowed = if tautology { vec![vec![]] } else { vec![] };
        csp.add_constraint(vec![], allowed);
        prop_assert_eq!(
            csp.count_solutions(),
            reference::count_solutions(&csp)
        );
    }

    /// Steps are search-effort counters, and the solve outcome attached to
    /// them matches the reference kernel's.
    #[test]
    fn counting_steps_matches_solvability(csp in arb_csp()) {
        let (sol, steps) = csp.solve_counting_steps();
        prop_assert_eq!(sol.is_some(), reference::solve(&csp).is_some());
        if sol.is_some() {
            prop_assert!(steps >= 1 || csp.n_vars() == 0);
        }
    }
}

/// A targeted non-random case: empty domains kill both kernels identically.
#[test]
fn empty_domain_agrees() {
    let mut csp = Csp::with_uniform_domains(3, 4);
    csp.restrict_domain(1, vec![]);
    assert_eq!(csp.count_solutions(), reference::count_solutions(&csp));
    assert_eq!(csp.solve().is_some(), reference::solve(&csp).is_some());
}

/// Values beyond one bitset word (≥ 64) round-trip identically.
#[test]
fn multiword_values_agree() {
    let mut csp = Csp {
        domains: vec![vec![3, 70, 129], vec![70, 200, 3]],
        constraints: Vec::new(),
    };
    csp.add_constraint(
        vec![0, 1],
        vec![vec![70, 200], vec![129, 70], vec![3, 3], vec![4, 4]],
    );
    assert_eq!(csp.count_solutions(), reference::count_solutions(&csp));
    let new = csp.solve_all(usize::MAX);
    let old = reference::solve_all(&csp, usize::MAX);
    assert_eq!(sorted(new.solutions), sorted(old.solutions));
}
