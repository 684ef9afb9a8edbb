//! # ca-hom — the homomorphism engine
//!
//! Almost every computational task in Libkin's PODS 2011 paper reduces to
//! deciding (or constructing) homomorphisms: the information ordering `⊑` is
//! homomorphism existence (Propositions 3 and 9), membership is a
//! constraint-satisfaction problem (Section 6), containment of conjunctive
//! queries is a homomorphism between tableaux (Proposition 2), cores and the
//! lattice operations of Section 4 are built from endomorphism searches.
//!
//! This crate is the single engine behind all of them:
//!
//! * [`csp`] — a generic constraint-satisfaction solver (bitset domains,
//!   precomputed tuple supports, trail-based backtracking with
//!   minimum-remaining-values ordering and forward checking), with
//!   find-one / find-all / count /
//!   surjective-image modes.
//! * [`reference`](mod@reference) — the original naive solver, kept as a differential
//!   testing oracle and benchmark baseline for [`csp`].
//! * [`matching`] — Hopcroft–Karp bipartite matching, Hall's condition, and
//!   systems of distinct representatives (used by the Codd-interpretation
//!   algorithms and Proposition 8).
//! * [`propagate`] — generalized arc consistency preprocessing for the
//!   solver.
//! * [`structure`] — finite relational structures (the structural part
//!   `M_λ` of generalized databases) and homomorphism problems between
//!   them, compiled to CSPs.
//! * [`retract`] — the incremental retraction engine behind every core
//!   computation (digraph cores, generalized-database cores, the §4
//!   lattice): compile the self-homomorphism CSP once, shrink by in-place
//!   domain restriction, fold dominated elements without search.
//! * [`treewidth`] — tree decompositions: validation, exact recognition
//!   for width ≤ 2, and a min-fill heuristic for general graphs.
//! * [`dp`] — the polynomial-time *R-compatible homomorphism* algorithm of
//!   Theorem 6 (Lemmas 3–5): dynamic programming over a tree decomposition
//!   of the source structure.

pub mod csp;
pub mod dp;
pub mod matching;
pub mod propagate;
pub mod reference;
pub mod retract;
pub mod structure;
pub mod treewidth;

pub use csp::{Constraint, Csp, Enumeration, SolverStats};
pub use dp::r_compatible_hom_dp;
pub use matching::{hall_condition, max_bipartite_matching};
pub use structure::RelStructure;
pub use treewidth::TreeDecomposition;
