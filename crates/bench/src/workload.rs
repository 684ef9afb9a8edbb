//! Seeded workloads and chase fixtures shared by the bench bins.
//!
//! Every stream here is a pure function of its arguments, so every run on
//! every host benches (and `store_snapshot gen` writes) the identical
//! data.

use std::fmt::Write as _;

use ca_core::value::{Null, Value};
use ca_exchange::chase::Egd;
use ca_exchange::mapping::Rule;
use ca_gdm::database::GenDb;
use ca_gdm::schema::GenSchema;

/// Deterministic 64-bit LCG (Knuth's MMIX constants, high bits out).
pub struct Lcg(pub u64);

impl Lcg {
    /// The next 48-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    /// A value drawn from a domain of `domain`: a labelled null for about
    /// one draw in 8, a constant otherwise.
    pub fn value(&mut self, domain: u64) -> Value {
        let x = self.next_u64();
        if x.is_multiple_of(8) {
            Value::null((x / 8 % domain.max(1)) as u32)
        } else {
            Value::Const((x % domain.max(1)) as i64)
        }
    }
}

/// The synthetic ingest workload as loader-dialect CSV: `n` arity-3 `F`
/// rows (`F,1,?2,3`), ~1/8 labelled nulls, constants from a domain of
/// `n/2` (fresh and repeated values both hit the interner).
pub fn facts_csv(n: u64, seed: u64) -> String {
    let mut rng = Lcg(seed);
    let domain = (n / 2).max(16);
    // ~16 bytes/row for the common all-constant case.
    let mut text = String::with_capacity((n as usize).saturating_mul(16));
    for _ in 0..n {
        text.push('F');
        for _ in 0..3 {
            let x = rng.next_u64();
            if x.is_multiple_of(8) {
                let _ = write!(text, ",?{}", x / 8 % domain);
            } else {
                let _ = write!(text, ",{}", x % domain);
            }
        }
        text.push('\n');
    }
    text
}

/// The labelled null `⊥id`.
pub fn nv(id: u32) -> Value {
    Value::null(id)
}

/// The constant `x`.
pub fn cv(x: i64) -> Value {
    Value::Const(x)
}

/// The one-relation chase schema `T/2`.
pub fn t_schema() -> GenSchema {
    GenSchema::from_parts(&[("T", 2)], &[])
}

/// Transitivity: `T(x,y) ∧ T(y,z) → T(x,z)`.
pub fn transitivity() -> Rule {
    let mut body = GenDb::new(t_schema());
    body.add_node("T", vec![nv(1), nv(2)]);
    body.add_node("T", vec![nv(2), nv(3)]);
    let mut head = GenDb::new(t_schema());
    head.add_node("T", vec![nv(1), nv(3)]);
    Rule { body, head }
}

/// A path `0 → 1 → … → len` as T-facts.
pub fn path_instance(len: usize) -> GenDb {
    let mut d = GenDb::new(t_schema());
    for i in 0..len {
        d.add_node("T", vec![cv(i as i64), cv(i as i64 + 1)]);
    }
    d
}

/// Functionality: `T(x,y) ∧ T(x,z) → y = z`.
pub fn functionality() -> Egd {
    let mut body = GenDb::new(t_schema());
    body.add_node("T", vec![nv(1), nv(2)]);
    body.add_node("T", vec![nv(1), nv(3)]);
    Egd {
        body,
        equal: (Null(2), Null(3)),
    }
}

/// `k` groups, each with `m` null-valued T-facts plus one constant
/// anchor: functionality collapses every group onto its constant.
pub fn egd_instance(k: usize, m: usize) -> GenDb {
    let mut d = GenDb::new(t_schema());
    for g in 0..k {
        for i in 0..m {
            d.add_node("T", vec![cv(g as i64), nv(1000 + (g * m + i) as u32)]);
        }
        d.add_node("T", vec![cv(g as i64), cv(100 + g as i64)]);
    }
    d
}
