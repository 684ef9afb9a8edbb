//! # ca-graph — digraphs, cores, and the lattice of cores (Section 4)
//!
//! The homomorphism-based information ordering of the paper is, on the
//! purely structural side, the classical homomorphism preorder on directed
//! graphs studied in graph theory (Hell–Nešetřil). This crate implements:
//!
//! * [`digraph`] — directed graphs, homomorphism search (via the
//!   [`ca_hom`] engine), generators for the families the paper uses
//!   (directed paths `P_n`, directed cycles `C_n`, complete graphs `K_n`,
//!   random digraphs), and rigidity checks.
//! * [`core`] — graph cores: the smallest retract, unique up to
//!   isomorphism, computed by the incremental retraction engine
//!   (`ca_hom::retract`).
//! * [`reference`](mod@reference) — the seed-era naive retract search, kept verbatim as
//!   the differential oracle and benchmark baseline for [`core`].
//! * [`bridge`] — graphs as null-only naïve tables (the identification
//!   Theorem 3's proof uses).
//! * [`families`] — antichains and chains inside the homomorphism order
//!   (prime cycles, power-of-two cycles, paths).
//! * [`lattice`] — the lattice of cores: `G ∧ G′ = core(G × G′)` and
//!   `G ∨ G′ = core(G ⊔ G′)`, plus the machinery for Theorem 3's
//!   counterexample — the chain
//!   `P_1 ≺ P_2 ≺ … ≺ C_{2^m} ≺ … ≺ C_4 ≺ C_2` and the proof that
//!   `{C_{2^m} | m > 0}` has no greatest lower bound.

pub mod bridge;
pub mod core;
pub mod digraph;
pub mod families;
pub mod lattice;
pub mod reference;

pub use crate::core::{core_of, is_core};
pub use digraph::Digraph;
pub use lattice::{glb, lub};
