//! # ca-exchange — data exchange as least upper bounds (Section 5.3)
//!
//! The paper recasts data exchange in the ordered framework: a schema
//! mapping `M` is a set of rules `I → I′` (generalized databases over the
//! source and target schemas, sharing nulls as rule variables); a target
//! instance `D′` is a *solution* for a source `D` when every match of a
//! rule body in `D` extends to a match of the rule head in `D′`; and
//! **Theorem 5**: the universal solutions are exactly the least upper
//! bounds `∨_K M(D)` of the single-rule applications. For unrestricted
//! targets lubs are disjoint unions, giving the canonical universal
//! solution `⊔M(D)`, whose core is the core solution. For trees, lubs may
//! not exist at all (**Proposition 10**), which is the order-theoretic
//! explanation of the ad-hoc solution choices in XML data exchange.
//!
//! * [`mapping`] — mappings, rule application `M(D)`, solution checking.
//! * [`chase`](mod@chase) — the chase with target tgds/egds (the paper's future-work
//!   pointer for when constrained targets still admit universal
//!   solutions), run by a semi-naive, delta-driven engine on the compiled
//!   join machinery of `ca_query::engine`.
//! * [`certain`] — certain answers on constrained targets: chase the
//!   canonical solution, evaluate naively, keep null-free rows.
//! * [`solution`] — canonical universal solutions, cores of generalized
//!   databases (via the incremental retraction engine of
//!   `ca_hom::retract`), core solutions, universality checking.
//! * [`reference`](mod@reference) — the seed-era core loop and chase loop, kept verbatim
//!   as the differential oracles and benchmark baselines for [`solution`]
//!   and [`chase`](mod@chase).
//! * [`tgd`] — the relational st-tgd convenience layer.
//! * [`trees`] — Proposition 10: the two trees with no least upper bound.

pub mod certain;
pub mod chase;
pub mod mapping;
pub mod reference;
pub mod solution;
pub mod tgd;
pub mod trees;

pub use certain::{certain_answers_via_chase, CertainAnswers};
pub use chase::{chase, chase_with, ChaseConfig, ChaseOutcome, Egd, DEFAULT_MATCH_LIMIT};
pub use mapping::{Mapping, Rule};
pub use solution::{canonical_solution, core_of_gendb, core_solution, is_universal_solution};
