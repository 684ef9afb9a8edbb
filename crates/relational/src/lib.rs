//! # ca-relational — incomplete relational databases (Sections 2.1 & 4)
//!
//! Naïve tables and databases over constants `C` and nulls `N`, exactly as
//! in the paper:
//!
//! * [`schema`] — relational schemas: relation names with arities.
//! * [`database`] — naïve databases (nulls may repeat) and Codd databases
//!   (each null occurs at most once); valuations and completions; the
//!   semantics `[[D]]` = homomorphic images over constants.
//! * [`hom`] — database homomorphisms: maps on nulls (identity on
//!   constants) preserving all facts, compiled to the [`ca_hom`] CSP
//!   engine. Includes onto-homomorphisms for the closed-world ordering.
//! * [`ordering`] — the information ordering `D ⊑ D′ ⇔ [[D′]] ⊆ [[D]]`,
//!   characterized by homomorphism existence (Proposition 3), as an
//!   implementation of the [`ca_core`] preorder framework with complete
//!   objects.
//! * [`glb`] — greatest lower bounds of naïve tables and databases via the
//!   `⊗` tuple-merge product (Proposition 5), with the
//!   `|⋀X| ≤ (‖X‖/n)^n` size bound.
//! * [`tuplewise`] — the 1990s orderings: tuple-wise `⊴`, its Hoare/Plotkin
//!   set liftings, Proposition 4 (`⊑ = ⊴` on Codd databases), the CWA
//!   ordering `⊑_cwa`, and Proposition 8 (Hall's condition).
//! * [`store_bridge`] — `to_store`/`from_store` between naïve databases
//!   and the workspace columnar fact store (`ca_core::store`), keeping
//!   the `Vec<Value>` types as the API surface while engines evaluate
//!   over columns.
//! * [`parse`] — a text syntax for naïve databases (`R(1, ?x, _)`).
//! * [`generate`] — deterministic random-instance generators for the
//!   experiments.

pub mod database;
pub mod generate;
pub mod glb;
pub mod hom;
pub mod ordering;
pub mod parse;
pub mod schema;
pub mod store_bridge;
pub mod tuplewise;

pub use database::{Fact, NaiveDatabase, Rows, Valuation};
pub use glb::{glb_databases, glb_many, merge_tuples};
pub use hom::{
    find_hom, find_hom_certified, find_onto_hom, find_onto_hom_certified, is_hom, OntoOutcome,
    ValueIndex,
};
pub use ordering::InfoOrder;
pub use parse::parse_database;
pub use schema::Schema;
pub use store_bridge::{from_store, to_store};
