//! # ca-query — queries over incomplete databases (Sections 2.1 & 4)
//!
//! Conjunctive queries, unions of conjunctive queries, and full first-order
//! queries over relational schemas, together with everything the paper does
//! with them:
//!
//! * [`ast`] — terms, atoms, CQs (with free head variables), UCQs, and a
//!   full FO syntax with negation and universal quantification.
//! * [`engine`] — the compiled evaluation engine: CQs compile once into
//!   join plans (greedy bound-variable ordering, constants and repeated
//!   variables pushed into atom matchers), execute against lazily-built
//!   per-relation hash indices, and batch drivers sweep completion grids
//!   with early exit for brute-force certain answers.
//! * [`eval`] — the legacy evaluation entry points: CQs/UCQs over naïve
//!   databases *treating nulls as ordinary values* (the first phase of
//!   naïve evaluation; now routed through [`engine`] leniently), and FO
//!   sentences over complete databases under active-domain semantics.
//! * [`reference`](mod@reference) — the original nested-loop evaluator, kept as the
//!   differential-testing oracle and benchmark baseline for [`engine`].
//! * [`tableau`](mod@tableau) — the CQ ↔ naïve-database correspondence: the tableau
//!   `D_Q` of a Boolean CQ and the canonical query `Q_D` of a database.
//! * [`containment`] — CQ containment via tableau homomorphisms
//!   (Chandra–Merlin, used by Proposition 2).
//! * [`certain`] — certain answers: the brute-force intersection
//!   `⋂{Q(R) | R ∈ [[D]]}` over a constant pool, naïve evaluation
//!   `Q_naïve(D)`, and the Proposition 2 three-way equivalence.
//! * [`generate`] — random CQs/UCQs for the experiments.
//!
//! The headline results exercised here: naïve evaluation computes certain
//! answers for unions of conjunctive queries (classical; re-proved via
//! Theorem 2 + Proposition 7 in the paper), and *only* for them among FO
//! queries (Proposition 1).

pub mod ast;
pub mod certain;
pub mod certify;
pub mod containment;
pub mod engine;
pub mod eval;
pub mod generate;
pub mod minimize;
pub mod parse;
pub mod preservation;
pub mod reference;
pub mod tableau;

pub use ast::{Atom, ConjunctiveQuery, Fo, Term, UnionQuery};
pub use certain::{certain_answer_bool, naive_eval_bool, naive_eval_table};
pub use containment::cq_contained_in;
pub use engine::{CompiledCq, CompiledUcq, DbIndex, PlanError};
pub use minimize::{cq_equivalent, minimize_cq};
pub use parse::{parse_cq, parse_ucq};
pub use tableau::{canonical_query, tableau};
