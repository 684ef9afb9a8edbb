//! # ca-core — values and the abstract theory of incompleteness
//!
//! This crate implements the *data-model-independent* layer of
//! Libkin, “Incomplete Information and Certain Answers in General Data
//! Models” (PODS 2011):
//!
//! * [`value`] — the two disjoint sorts of data values: constants `C` and
//!   nulls `N`, plus fresh-null generation.
//! * [`symbol`] — cheap interned names for relation symbols and node labels.
//! * [`preorder`] — preorders (Section 3): the information ordering `⊑`, the
//!   associated equivalence `∼`, lower/upper bounds, and greatest lower
//!   bounds, all as a trait any concrete data model implements.
//! * [`powerdomain`] — the Hoare/Smyth/Plotkin set liftings used by the
//!   1990s ordering-based treatments the paper compares against (§4).
//! * [`domain`] — *database domains*: finite enumerated fragments of a
//!   preordered universe on which the paper's Section 3 results (Theorem 1 on
//!   max-descriptions, Lemma 1 on bases, Corollary 1) can be checked
//!   exhaustively.
//! * [`complete`] — database domains *with complete objects* `⟨D, ⊑, C⟩`:
//!   the retraction `π_cpl`, certain answers over complete objects, the
//!   complete-saturation property, and the Theorem 2 criterion for when
//!   certain answers are computed by naïve evaluation.
//! * [`config`] — the one `CA_*` environment knob (the bulk loader's
//!   worker count), parsed with a saturating policy.
//! * [`fxhash`] — the fixed-seed Fx hasher backing the store's hot maps
//!   (trusted in-process keys; deterministic across runs and hosts).
//! * [`rows`] — the open-addressing row index every set of flat rows
//!   probes: the query engine's distinct buffers, the chase's fact set
//!   and the certificate checker's replay.
//! * [`store`] — the workspace-wide columnar interned fact store all
//!   engines evaluate over: a global value interner with dense tagged
//!   ids, per-relation column pages with a live bitmap, and the
//!   versioned binary snapshot format.
//!
//! Everything downstream (naïve tables, XML trees, generalized databases)
//! instantiates these abstractions; the theory-level results are tested here
//! once and inherited everywhere.

pub mod complete;
pub mod config;
pub mod domain;
pub mod fxhash;
pub mod powerdomain;
pub mod preorder;
pub mod rows;
pub mod store;
pub mod symbol;
pub mod value;

pub use complete::{CompleteFiniteDomain, CompleteObjects};
pub use domain::FiniteDomain;
pub use preorder::{Preorder, PreorderExt};
pub use symbol::{Interner, Symbol};
pub use value::{Null, NullGen, Value};
