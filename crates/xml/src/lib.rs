//! # ca-xml — incomplete XML trees (Section 2.2, Proposition 6, Corollary 2)
//!
//! The paper's XML model: unranked trees with nodes labeled from a finite
//! alphabet `Σ`, each `a`-labeled node carrying an `ar(a)`-tuple of data
//! values from `C ∪ N`. Homomorphisms are pairs `(h₁, h₂)` — `h₁` on nodes
//! (preserving the child relation and labels), `h₂` on nulls — with
//! `ρ′(h₁(x)) = h₂(ρ(x))`.
//!
//! Note that homomorphisms are **not** required to map roots to roots: the
//! definition only preserves edges, labels and data. Proposition 10's
//! counterexample (a tree whose root is labeled `d` absorbing trees rooted
//! at `a`) depends on this, so we implement it faithfully. The usual
//! rooted behaviour is recovered by giving documents a designated root
//! label used nowhere else, exactly as the paper's *complete trees* do.
//!
//! * [`tree`] — the data model and builders.
//! * [`hom`] — tree homomorphisms via the [`ca_hom`] CSP engine.
//! * [`glb`] — greatest lower bounds of finitely many unordered trees
//!   (= the max-descriptions of \[16\]): the same-label product forest plus
//!   the `⊗` data merge, with a dominant-component check.
//! * [`ordered`] — sibling-ordered trees and the Proposition 6 refutation
//!   that even two ordered trees can lack a glb.
//! * [`axes`] — richer pattern axes (descendant, next-sibling), the σ
//!   variations Section 5.1 mentions.
//! * [`schema`] — edge-based document schemas and the (tractable fragment
//!   of the) consistency problem for tree patterns (§6).
//! * [`encode`] — the depth-2 encoding of naïve databases as XML documents
//!   behind Corollary 2.

pub mod axes;
pub mod encode;
pub mod glb;
pub mod hom;
pub mod ordered;
pub mod schema;
pub mod tree;

pub use glb::{glb_trees, max_description};
pub use hom::{find_tree_hom, tree_leq, TreeHom};
pub use tree::{Alphabet, NodeId, XmlTree};
