//! Proof-carrying answers: typed certificates and a small, engine-independent
//! checker.
//!
//! Every verdict the fast engines produce already computes a small witness
//! and throws it away — a homomorphism, a chase derivation sequence, a
//! core-retraction endomorphism chain, or a counterexample valuation. This
//! crate turns those witnesses into **typed certificates** and verifies
//! them with a checker that is deliberately tiny and depends on no engine
//! crate (only [`ca_core`] value and store types), so the engines become
//! *untrusted*: a certificate mismatch is a bug report with a repro
//! attached.
//!
//! # The no-search rule
//!
//! The checker never solves anything. Each `check_*` function replays a
//! claimed witness step by step and runs in time polynomial in the size of
//! the certificate plus the instance it is checked against:
//!
//! * [`check_hom`] — substitute the mapping into every source fact, test
//!   membership in the target ([`HomCert`]).
//! * [`check_chase`] — replay an ordered firing sequence with a
//!   fresh-null ledger and an EGD merge log ([`ChaseCert`]); every body
//!   match is *given*, never searched for.
//! * [`check_core`] — compose a recorded chain of folds and
//!   endomorphisms, checking after every step that the structure's tuples
//!   are preserved ([`CoreCert`]).
//! * [`check_match`] / [`check_certain_row`] — substitute a given
//!   assignment into a disjunct's atoms ([`MatchCert`]); for UCQs a
//!   null-free naive match certifies a *certain* row (the classical
//!   naive-evaluation theorem), so a positive certainty verdict needs no
//!   sweep to verify.
//! * [`check_non_certain`] — the one documented carve-out: a negative
//!   certainty verdict names a completion ([`NonCertainCert`]); verifying
//!   that the claimed row is *absent* from that single complete database
//!   is a naive evaluation — data-polynomial, but exhaustive over the
//!   query's (fixed, small) variable assignments rather than a pure
//!   replay.
//!
//! Every rejection is a typed [`Reject`] reason, so a failing suite says
//! *which* claim broke, not just "mismatch". Certificates also have a
//! canonical little-endian byte form ([`bytes`]) pinned by the
//! determinism suite: byte-identical across layouts and independently
//! rebuilt stores.
//!
//! What a certificate does **not** claim: completeness-style facts whose
//! verification would require search (that a chase `Done` state is a
//! fixpoint, that a retraction is a *minimal* core, that no homomorphism
//! exists). Those remain engine claims, cross-checked by the differential
//! suites; the certificates pin the witnessed half — every derived fact,
//! every merge, every mapping, every counterexample is independently
//! validated.

pub mod bytes;
pub mod check;
pub mod types;

pub use check::{
    check_certain_row, check_chase, check_core, check_hom, check_match, check_non_certain, Reject,
};
pub use types::{
    CertAtom, CertCq, CertEgd, CertFact, CertQuery, CertRule, CertTerm, CertainVerdictCert,
    ChaseCert, ChaseCertOutcome, ChaseStep, CoreCert, CoreStep, FactGroups, HomCert, MatchCert,
    NonCertainCert,
};
