//! Database homomorphisms.
//!
//! A homomorphism `h : D → D′` is a map `h : N(D) → C(D′) ∪ N(D′)`,
//! extended as the identity on constants, such that the `h`-image of every
//! fact of `D` is a fact of `D′`. Homomorphism existence characterizes the
//! information ordering (Proposition 3) and, when `D′` is complete,
//! membership `D′ ∈ [[D]]`.
//!
//! The search is compiled to the [`ca_hom`] CSP engine: variables are the
//! nulls of `D`, candidate values are the values of `D′`, and each fact of
//! `D` contributes a table constraint listing the compatible facts of `D′`.

use ca_cert::HomCert;
use ca_core::store::{self, ValueInterner};
use ca_core::value::Value;
use ca_hom::csp::Csp;

use crate::database::{NaiveDatabase, Valuation};

/// The target-side value universe of a homomorphism problem: all values
/// occurring in the target, indexed for the CSP. Returned by [`hom_csp`]
/// so callers can translate CSP solutions back to [`Value`]s without
/// rebuilding the index.
///
/// Backed by the workspace value interner (`ca_core::store`): values are
/// interned in sorted order, so the dense CSP ids `0..len` enumerate the
/// constants first (ascending), then the nulls (ascending) — exactly the
/// order the pre-store `Vec<Value>` table produced.
pub struct ValueIndex {
    interner: ValueInterner,
    n_consts: u32,
}

impl ValueIndex {
    /// Index the values of `db` (sorted, deduplicated).
    pub fn of(db: &NaiveDatabase) -> Self {
        let mut values: Vec<Value> = db.values().collect();
        values.sort_unstable();
        values.dedup();
        let mut interner = ValueInterner::new();
        for v in values {
            interner.intern(v);
        }
        let n_consts = interner.n_consts();
        ValueIndex { interner, n_consts }
    }

    /// The CSP id of a value, if it occurs in the target. Constants map
    /// to their interned id, nulls to `n_consts + dense null index` —
    /// the CSP wants one contiguous id space.
    pub fn id(&self, v: Value) -> Option<u32> {
        self.interner.lookup(v).map(|id| {
            if store::id_is_null(id) {
                self.n_consts + store::null_index(id)
            } else {
                id
            }
        })
    }

    /// The value behind a CSP id.
    pub fn value(&self, id: u32) -> Value {
        if id < self.n_consts {
            Value::Const(self.interner.const_at(id))
        } else {
            Value::null(self.interner.null_at(id - self.n_consts))
        }
    }

    /// Number of indexed values.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// True if the target has no values at all.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }
}

/// Build the homomorphism CSP from `src` to `dst`. Exposed so callers can
/// add extra restrictions (e.g. forbidden values) before solving; the
/// returned [`ValueIndex`] translates solution ids back to values.
pub fn hom_csp(
    src: &NaiveDatabase,
    dst: &NaiveDatabase,
) -> (Csp, Vec<ca_core::value::Null>, ValueIndex) {
    let nulls: Vec<ca_core::value::Null> = src.nulls().into_iter().collect();
    let var_of = |n: ca_core::value::Null| -> u32 {
        match nulls.binary_search(&n) {
            Ok(i) => i as u32,
            // `nulls` enumerates every null of `src`, so any null found
            // in src's facts below is present.
            Err(_) => unreachable!("null not in src's null set"),
        }
    };
    let idx = ValueIndex::of(dst);
    let mut csp = Csp::with_uniform_domains(nulls.len(), idx.len() as u32);
    for fact in src.facts() {
        // Scope: one CSP variable per null position (repeats allowed).
        let scope: Vec<u32> = fact
            .args
            .iter()
            .filter_map(|v| v.as_null())
            .map(var_of)
            .collect();
        // Allowed tuples: for each matching fact of dst, the values at the
        // null positions — constants must match exactly.
        let mut allowed = Vec::new();
        'facts: for g in dst.relation_by_name(src.schema.name(fact.rel)) {
            let mut tuple = Vec::with_capacity(scope.len());
            for (a, b) in fact.args.iter().zip(g.args.iter()) {
                match a {
                    Value::Const(_) => {
                        if a != b {
                            continue 'facts;
                        }
                    }
                    Value::Null(_) => {
                        let Some(id) = idx.id(*b) else {
                            continue 'facts;
                        };
                        tuple.push(id);
                    }
                }
            }
            allowed.push(tuple);
        }
        csp.add_constraint(scope, allowed);
    }
    (csp, nulls, idx)
}

impl NaiveDatabase {
    /// Facts of the relation with the given name (empty if absent).
    pub fn relation_by_name(&self, name: &str) -> crate::database::Rows<'_> {
        match self.schema.relation(name) {
            Some(sym) => self.relation(sym),
            None => crate::database::Rows::default(),
        }
    }
}

/// Find a homomorphism `src → dst`, if one exists.
///
/// ```
/// use ca_relational::database::build::{c, n, table};
/// use ca_relational::hom::find_hom;
///
/// let d = table("R", 2, &[&[c(1), n(1)]]);
/// let r = table("R", 2, &[&[c(1), c(7)]]);
/// let h = find_hom(&d, &r).unwrap();
/// assert_eq!(h.apply(n(1)), c(7));
/// assert!(find_hom(&r, &d).is_none());
/// ```
pub fn find_hom(src: &NaiveDatabase, dst: &NaiveDatabase) -> Option<Valuation> {
    assert!(
        src.schema.compatible_with(&dst.schema),
        "incompatible schemas"
    );
    let (csp, nulls, idx) = hom_csp(src, dst);
    let sol = csp.solve()?;
    Some(Valuation::from_pairs(
        nulls
            .iter()
            .zip(sol.iter())
            .map(|(&n, &v)| (n, idx.value(v))),
    ))
}

/// Is `h` a homomorphism from `src` to `dst`?
pub fn is_hom(src: &NaiveDatabase, dst: &NaiveDatabase, h: &Valuation) -> bool {
    src.facts().all(|f| {
        let image = h.apply_tuple(f.args);
        dst.relation_by_name(src.schema.name(f.rel))
            .any(|g| g.args == image)
    })
}

/// Outcome of an [`find_onto_hom`] search. The enumeration is capped, so
/// a negative answer comes in two flavours: a *definite* absence (the
/// enumeration was exhaustive) and an *inconclusive* one (the cap was hit
/// before the enumeration finished). Earlier versions of this API
/// collapsed both into `None`, silently turning "don't know" into "no".
#[derive(Clone, Debug, PartialEq)]
pub enum OntoOutcome {
    /// An onto homomorphism, witnessing `src ⊑_cwa dst`.
    Found(Valuation),
    /// All homomorphisms were enumerated; none is onto.
    NotFound,
    /// The enumeration limit was exhausted without finding an onto
    /// homomorphism; absence is *not* established. Carries the partial
    /// progress — how many candidate homomorphisms were enumerated and
    /// individually refuted before the cap — so callers (and tests) can
    /// see *why* the search gave up instead of a bare "don't know".
    Inconclusive {
        /// Candidates enumerated and refuted (equals the limit).
        examined: usize,
    },
}

impl OntoOutcome {
    /// True iff an onto homomorphism was found.
    pub fn found(&self) -> bool {
        matches!(self, OntoOutcome::Found(_))
    }

    /// True iff absence was definitely established (exhaustive search).
    pub fn definitely_absent(&self) -> bool {
        matches!(self, OntoOutcome::NotFound)
    }

    /// The witness, if one was found.
    pub fn into_hom(self) -> Option<Valuation> {
        match self {
            OntoOutcome::Found(h) => Some(h),
            _ => None,
        }
    }
}

/// Find an *onto* homomorphism `src → dst`: one whose image `h(src)`
/// contains every fact of `dst`. This is the closed-world ordering
/// `⊑_cwa`. Enumeration-based (exponential in the worst case); `limit`
/// caps the number of homomorphisms examined, and the returned
/// [`OntoOutcome`] distinguishes a definite "no" (exhaustive enumeration)
/// from an exhausted limit.
pub fn find_onto_hom(src: &NaiveDatabase, dst: &NaiveDatabase, limit: usize) -> OntoOutcome {
    assert!(
        src.schema.compatible_with(&dst.schema),
        "incompatible schemas"
    );
    let (csp, nulls, idx) = hom_csp(src, dst);
    let e = csp.solve_all(limit);
    for sol in &e.solutions {
        let h = Valuation::from_pairs(
            nulls
                .iter()
                .zip(sol.iter())
                .map(|(&n, &v)| (n, idx.value(v))),
        );
        let image = src.apply(&h);
        let covers = dst.facts().all(|g| {
            image
                .relation_by_name(dst.schema.name(g.rel))
                .any(|f| f.args == g.args)
        });
        if covers {
            return OntoOutcome::Found(h);
        }
    }
    if e.truncated {
        OntoOutcome::Inconclusive {
            examined: e.solutions.len(),
        }
    } else {
        OntoOutcome::NotFound
    }
}

/// Build a [`HomCert`] for `h` as a homomorphism of `src`: the mapping on
/// the source's nulls, in ascending null order (the certificate's
/// canonical form).
fn hom_cert_of(src: &NaiveDatabase, h: &Valuation, onto: bool) -> HomCert {
    HomCert {
        mapping: src
            .nulls()
            .into_iter()
            .filter_map(|n| h.get(n).map(|v| (n, v)))
            .collect(),
        onto,
    }
}

/// [`find_hom`], emitting a typed certificate alongside the witness. The
/// certificate verifies against store snapshots of the two databases
/// ([`crate::store_bridge::to_store`]) via [`ca_cert::check_hom`];
/// [`find_hom`] itself stays the thin wrapper that discards it.
pub fn find_hom_certified(
    src: &NaiveDatabase,
    dst: &NaiveDatabase,
) -> Option<(Valuation, HomCert)> {
    let h = find_hom(src, dst)?;
    let cert = hom_cert_of(src, &h, false);
    Some((h, cert))
}

/// [`find_onto_hom`], emitting a typed certificate for a positive
/// outcome (`onto` set, so the checker also verifies coverage of every
/// target fact). Negative outcomes carry no certificate: absence is not
/// replayable, and the inconclusive case's partial progress lives in
/// [`OntoOutcome::Inconclusive`] itself.
pub fn find_onto_hom_certified(
    src: &NaiveDatabase,
    dst: &NaiveDatabase,
    limit: usize,
) -> (OntoOutcome, Option<HomCert>) {
    let outcome = find_onto_hom(src, dst, limit);
    let cert = match &outcome {
        OntoOutcome::Found(h) => Some(hom_cert_of(src, h, true)),
        _ => None,
    };
    (outcome, cert)
}

/// Membership: is the complete database `r` in `[[d]]`?
/// (`r` must be complete; then `r ∈ [[d]]` iff some homomorphism
/// `d → r` exists.)
pub fn in_semantics(r: &NaiveDatabase, d: &NaiveDatabase) -> bool {
    r.is_complete() && find_hom(d, r).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::build::{c, n, table};

    #[test]
    fn paper_example_hom_exists() {
        let d = table(
            "D",
            3,
            &[
                &[c(1), c(2), n(1)],
                &[n(2), n(1), c(3)],
                &[n(3), c(5), c(1)],
            ],
        );
        let r = table(
            "D",
            3,
            &[
                &[c(1), c(2), c(4)],
                &[c(3), c(4), c(3)],
                &[c(5), c(5), c(1)],
                &[c(3), c(7), c(8)],
            ],
        );
        let h = find_hom(&d, &r).expect("the paper's homomorphism exists");
        assert!(is_hom(&d, &r, &h));
        assert!(in_semantics(&r, &d));
        // The witness is forced: ⊥1=4, ⊥2=3, ⊥3=5.
        assert_eq!(h.get(ca_core::value::Null(1)), Some(c(4)));
        assert_eq!(h.get(ca_core::value::Null(2)), Some(c(3)));
        assert_eq!(h.get(ca_core::value::Null(3)), Some(c(5)));
    }

    #[test]
    fn no_hom_when_constants_clash() {
        let d = table("R", 1, &[&[c(1)]]);
        let r = table("R", 1, &[&[c(2)]]);
        assert!(find_hom(&d, &r).is_none());
        assert!(!in_semantics(&r, &d));
    }

    #[test]
    fn repeated_nulls_must_map_consistently() {
        // R(⊥1, ⊥1) needs a "diagonal" fact in the target.
        let d = table("R", 2, &[&[n(1), n(1)]]);
        let no_diag = table("R", 2, &[&[c(1), c(2)], &[c(2), c(3)]]);
        assert!(find_hom(&d, &no_diag).is_none());
        let diag = table("R", 2, &[&[c(1), c(2)], &[c(3), c(3)]]);
        let h = find_hom(&d, &diag).unwrap();
        assert_eq!(h.apply(n(1)), c(3));
    }

    #[test]
    fn hom_into_incomplete_target_maps_nulls_to_nulls() {
        // R(⊥1, ⊥2) → R(⊥9, c): nulls may map to nulls.
        let d = table("R", 2, &[&[n(1), n(2)]]);
        let t = table("R", 2, &[&[n(9), c(5)]]);
        let h = find_hom(&d, &t).unwrap();
        assert!(is_hom(&d, &t, &h));
        assert_eq!(h.apply(n(1)), n(9));
        assert_eq!(h.apply(n(2)), c(5));
    }

    #[test]
    fn empty_source_always_maps() {
        let d = table("R", 1, &[]);
        let r = table("R", 1, &[&[c(1)]]);
        assert!(find_hom(&d, &r).is_some());
        // …and an empty complete target too.
        let empty = table("R", 1, &[]);
        assert!(find_hom(&d, &empty).is_some());
    }

    #[test]
    fn ground_fact_must_be_present() {
        let d = table("R", 2, &[&[c(1), c(2)], &[n(1), c(2)]]);
        let missing = table("R", 2, &[&[c(5), c(2)]]);
        assert!(find_hom(&d, &missing).is_none());
        let present = table("R", 2, &[&[c(1), c(2)]]);
        let h = find_hom(&d, &present).unwrap();
        assert_eq!(h.apply(n(1)), c(1));
    }

    #[test]
    fn onto_hom_distinguishes_cwa() {
        // D = {R(⊥1), R(⊥2)}, D′ = {R(1), R(2)}: onto hom exists (⊥i ↦ i).
        let d = table("R", 1, &[&[n(1)], &[n(2)]]);
        let d2 = table("R", 1, &[&[c(1)], &[c(2)]]);
        assert!(find_onto_hom(&d, &d2, 1000).found());
        // D = {R(⊥1)} cannot cover two facts.
        let small = table("R", 1, &[&[n(1)]]);
        assert!(find_hom(&small, &d2).is_some());
        assert!(find_onto_hom(&small, &d2, 1000).definitely_absent());
    }

    /// satellite: an exhausted enumeration cap carries its partial
    /// progress — the number of candidates examined and refuted — rather
    /// than a bare "don't know".
    #[test]
    fn inconclusive_carries_refuted_candidate_count() {
        // One null over three target facts: three homomorphisms, none
        // onto (a single-fact image cannot cover three facts).
        let d = table("R", 1, &[&[n(1)]]);
        let r = table("R", 1, &[&[c(1)], &[c(2)], &[c(3)]]);
        assert_eq!(
            find_onto_hom(&d, &r, 2),
            OntoOutcome::Inconclusive { examined: 2 }
        );
        // An exhaustive enumeration is a definite no, not inconclusive.
        assert!(find_onto_hom(&d, &r, 1000).definitely_absent());
    }

    /// satellite: certified wrappers emit certificates the independent
    /// checker accepts, and the plain APIs agree with them.
    #[test]
    fn certified_wrappers_roundtrip_through_checker() {
        use crate::store_bridge::to_store;
        let d = table("R", 2, &[&[c(1), n(1)], &[n(2), n(1)]]);
        let r = table("R", 2, &[&[c(1), c(4)], &[c(3), c(4)]]);
        let (h, cert) = find_hom_certified(&d, &r).expect("hom exists");
        assert!(is_hom(&d, &r, &h));
        assert_eq!(
            ca_cert::check_hom(&cert, &to_store(&d), &to_store(&r)),
            Ok(())
        );
        // Onto: the certificate additionally certifies coverage.
        let src = table("R", 1, &[&[n(1)], &[n(2)]]);
        let dst = table("R", 1, &[&[c(1)], &[c(2)]]);
        let (outcome, onto_cert) = find_onto_hom_certified(&src, &dst, 1000);
        assert!(outcome.found());
        let cert = onto_cert.expect("positive outcomes carry a certificate");
        assert!(cert.onto);
        assert_eq!(
            ca_cert::check_hom(&cert, &to_store(&src), &to_store(&dst)),
            Ok(())
        );
    }

    #[test]
    fn hom_composition_closure() {
        // d ⊑ e ⊑ f implies d ⊑ f (spot check of transitivity).
        let d = table("R", 2, &[&[n(1), n(2)]]);
        let e = table("R", 2, &[&[n(3), c(1)]]);
        let f = table("R", 2, &[&[c(2), c(1)]]);
        assert!(find_hom(&d, &e).is_some());
        assert!(find_hom(&e, &f).is_some());
        assert!(find_hom(&d, &f).is_some());
    }

    #[test]
    fn multi_relation_homs() {
        let mut schema = crate::schema::Schema::new();
        schema.add_relation("R", 2);
        schema.add_relation("S", 1);
        let mut d = NaiveDatabase::new(schema.clone());
        d.add("R", vec![c(1), n(1)]);
        d.add("S", vec![n(1)]);
        // Target: R(1,2), S(2): ⊥1 must be 2 in both relations.
        let mut t = NaiveDatabase::new(schema.clone());
        t.add("R", vec![c(1), c(2)]);
        t.add("S", vec![c(2)]);
        let h = find_hom(&d, &t).unwrap();
        assert_eq!(h.apply(n(1)), c(2));
        // Target with S(3) instead: no hom.
        let mut t2 = NaiveDatabase::new(schema);
        t2.add("R", vec![c(1), c(2)]);
        t2.add("S", vec![c(3)]);
        assert!(find_hom(&d, &t2).is_none());
    }
}
