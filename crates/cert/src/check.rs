//! The certificate checker.
//!
//! Every function here verifies a claimed witness by *replay* — no
//! solving, no enumeration of anything the certificate does not name —
//! in time polynomial in the certificate plus the instance it is checked
//! against, and rejects with a typed [`Reject`] reason naming the first
//! claim that broke. The single documented exception is
//! [`check_non_certain`], which must establish the *absence* of a match
//! in one named completion: that is a naive evaluation of a fixed small
//! query over a complete database (data-polynomial), not a replay.

use std::collections::{BTreeMap, BTreeSet};

use ca_core::store::FactStore;
use ca_core::value::{Null, Value};

use crate::types::{
    CertAtom, CertCq, CertFact, CertQuery, ChaseCert, ChaseCertOutcome, ChaseStep, CoreCert,
    CoreStep, HomCert, MatchCert, NonCertainCert,
};

/// A typed rejection: the first claim of the certificate that failed to
/// verify. Indexes (`step`, `atom`, `tuple`, …) point into the
/// certificate so a failing test is a repro, not a shrug.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reject {
    /// A mapping or ledger is not strictly ascending by key.
    MalformedMapping,
    /// A source null has no image in the mapping.
    UnmappedNull {
        /// The unmapped null.
        null: Null,
    },
    /// The image of a source fact is not a target fact.
    FactNotPreserved {
        /// Index of the offending source fact (live-scan order).
        index: usize,
    },
    /// The mapping claims `onto` but some target fact is not covered.
    NotOnto,
    /// A step names a rule, egd, or disjunct that does not exist.
    UnknownRule {
        /// The offending step index.
        step: usize,
    },
    /// A body variable used by a step is not bound by its assignment.
    UnboundBodyVar {
        /// The offending step index.
        step: usize,
        /// The unbound variable.
        var: u32,
    },
    /// A step's body atom image is not present in the current fact set.
    BodyAtomUnmatched {
        /// The offending step index.
        step: usize,
        /// The offending atom index within the body.
        atom: usize,
    },
    /// A merge step's equated pair already shares a representative.
    TrivialMerge {
        /// The offending step index.
        step: usize,
    },
    /// A merge step records a loser/representative pair that contradicts
    /// the deterministic merge rule (constants win; between nulls the
    /// smaller id wins).
    MergeRootMismatch {
        /// The offending step index.
        step: usize,
    },
    /// A constant–constant clash was recorded but the derivation does
    /// not end there with outcome `Failed`.
    ClashNotFailed,
    /// Outcome `Failed` without a final clash step.
    FailedWithoutClash,
    /// A clash step is followed by further steps.
    StepsAfterFailure {
        /// Index of the clash step.
        step: usize,
    },
    /// A head existential has no fresh-null ledger entry.
    MissingFreshNull {
        /// The offending step index.
        step: usize,
        /// The unresolved existential variable.
        var: u32,
    },
    /// A ledger entry reuses a null that is not globally fresh.
    StaleFreshNull {
        /// The offending step index.
        step: usize,
        /// The reused null.
        null: Null,
    },
    /// The replayed fact set does not equal the outcome's claimed facts.
    FinalFactsMismatch,
    /// An element, tuple entry, or map is out of the structure's range.
    BadElement,
    /// A fold/endomorphism step breaks a tuple of the structure.
    StepBreaksTuple {
        /// The offending step index.
        step: usize,
        /// The first broken tuple's index.
        tuple: usize,
    },
    /// The composed steps do not equal the claimed witness map.
    WitnessMismatch,
    /// The probe image under the witness does not equal the claimed kept
    /// set (or the kept set escapes the probe universe).
    KeptMismatch,
    /// A match certificate names a disjunct that does not exist.
    UnknownDisjunct,
    /// A query variable used by a match is not bound by its assignment.
    UnboundQueryVar {
        /// The unbound variable.
        var: u32,
    },
    /// A match certificate's atom image is not a database fact.
    MatchAtomUnmatched {
        /// The offending atom index.
        atom: usize,
    },
    /// The assignment's head projection is not the claimed row.
    WrongRow,
    /// A certain-row certificate's row contains a null.
    RowNotGround,
    /// A completion valuation leaves an instance null unground.
    ValuationNotGrounding {
        /// The unground null.
        null: Null,
    },
    /// The named completion *does* produce the claimed-non-certain row.
    MatchExists {
        /// The disjunct that matched.
        disjunct: usize,
    },
}

/// The live facts of a store snapshot, in checker vocabulary.
pub fn store_facts(s: &FactStore) -> BTreeSet<CertFact> {
    s.iter_live()
        .map(|f| (s.rel_name(s.fact_rel(f)).to_string(), s.fact_values(f)))
        .collect()
}

/// A fact set from `(name, args)` pairs (deduplicating).
pub fn fact_set(facts: &[CertFact]) -> BTreeSet<CertFact> {
    facts.iter().cloned().collect()
}

fn lookup(assignment: &[(u32, Value)], var: u32) -> Option<Value> {
    assignment
        .iter()
        .find(|&&(v, _)| v == var)
        .map(|&(_, val)| val)
}

/// Resolve a value through the merge substitution (follow parent chains;
/// bounded by the substitution size, which the applier keeps acyclic).
fn resolve(subst: &BTreeMap<Null, Value>, v: Value) -> Value {
    let mut cur = v;
    let mut fuel = subst.len();
    while let Value::Null(n) = cur {
        match subst.get(&n) {
            Some(&p) if fuel > 0 => {
                cur = p;
                fuel -= 1;
            }
            _ => break,
        }
    }
    cur
}

/// The image of `atom` under `assignment` then `subst`; `Err` carries the
/// first unbound variable.
fn atom_image(
    atom: &CertAtom,
    assignment: &[(u32, Value)],
    subst: &BTreeMap<Null, Value>,
) -> Result<CertFact, u32> {
    let mut args = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        let v = match *t {
            crate::types::CertTerm::Const(c) => Value::Const(c),
            crate::types::CertTerm::Var(x) => lookup(assignment, x).ok_or(x)?,
        };
        args.push(resolve(subst, v));
    }
    Ok((atom.rel.clone(), args))
}

// ---------------------------------------------------------------------------
// Homomorphisms
// ---------------------------------------------------------------------------

/// Verify a homomorphism certificate from `src` to `dst`: the mapping is
/// canonical (strictly ascending), total on the source's nulls, maps
/// every live source fact onto a live target fact, and — when `onto` —
/// covers every live target fact.
pub fn check_hom(cert: &HomCert, src: &FactStore, dst: &FactStore) -> Result<(), Reject> {
    for w in cert.mapping.windows(2) {
        if let [(a, _), (b, _)] = w {
            if a.0 >= b.0 {
                return Err(Reject::MalformedMapping);
            }
        }
    }
    let apply = |v: Value| -> Result<Value, Reject> {
        match v {
            Value::Const(_) => Ok(v),
            Value::Null(n) => cert
                .mapping
                .binary_search_by_key(&n, |&(k, _)| k)
                .ok()
                .and_then(|i| cert.mapping.get(i))
                .map(|&(_, val)| val)
                .ok_or(Reject::UnmappedNull { null: n }),
        }
    };
    let dst_facts = store_facts(dst);
    let mut image: BTreeSet<CertFact> = BTreeSet::new();
    for (index, f) in src.iter_live().enumerate() {
        let rel = src.rel_name(src.fact_rel(f)).to_string();
        let mut args = Vec::new();
        for v in src.fact_values(f) {
            args.push(apply(v)?);
        }
        let fact = (rel, args);
        if !dst_facts.contains(&fact) {
            return Err(Reject::FactNotPreserved { index });
        }
        image.insert(fact);
    }
    if cert.onto && !dst_facts.iter().all(|g| image.contains(g)) {
        return Err(Reject::NotOnto);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Chase derivations
// ---------------------------------------------------------------------------

/// Verify a chase certificate by replaying its derivation: every firing's
/// body must be present when it fires, fresh nulls must be globally new,
/// merges must follow the deterministic representative rule, a clash must
/// be final, and the resulting fact set must equal the outcome's claim.
pub fn check_chase(cert: &ChaseCert) -> Result<(), Reject> {
    let mut subst: BTreeMap<Null, Value> = BTreeMap::new();
    let mut facts: BTreeSet<CertFact> = fact_set(&cert.initial);
    let mut used: BTreeSet<Null> = BTreeSet::new();
    for (_, args) in &facts {
        used.extend(args.iter().filter_map(|v| v.as_null()));
    }
    let mut clash_at: Option<usize> = None;

    for (step, s) in cert.steps.iter().enumerate() {
        if let Some(at) = clash_at {
            return Err(Reject::StepsAfterFailure { step: at });
        }
        match s {
            ChaseStep::Merge {
                egd,
                assignment,
                merged,
            } => {
                let def = cert.egds.get(*egd).ok_or(Reject::UnknownRule { step })?;
                for (atom, a) in def.body.iter().enumerate() {
                    let img = atom_image(a, assignment, &subst)
                        .map_err(|var| Reject::UnboundBodyVar { step, var })?;
                    if !facts.contains(&img) {
                        return Err(Reject::BodyAtomUnmatched { step, atom });
                    }
                }
                let get = |var: u32| {
                    lookup(assignment, var)
                        .map(|v| resolve(&subst, v))
                        .ok_or(Reject::UnboundBodyVar { step, var })
                };
                let (x, y) = (get(def.equal.0)?, get(def.equal.1)?);
                if x == y {
                    return Err(Reject::TrivialMerge { step });
                }
                match (x, y) {
                    (Value::Const(_), Value::Const(_)) => {
                        if merged.is_some() {
                            return Err(Reject::MergeRootMismatch { step });
                        }
                        clash_at = Some(step);
                    }
                    (Value::Null(n), root @ Value::Const(_))
                    | (root @ Value::Const(_), Value::Null(n)) => {
                        if *merged != Some((n, root)) {
                            return Err(Reject::MergeRootMismatch { step });
                        }
                        apply_merge(&mut subst, &mut facts, &mut used, n, root);
                    }
                    (Value::Null(a), Value::Null(b)) => {
                        let (loser, root) = if a.0 < b.0 { (b, a) } else { (a, b) };
                        if *merged != Some((loser, Value::Null(root))) {
                            return Err(Reject::MergeRootMismatch { step });
                        }
                        apply_merge(&mut subst, &mut facts, &mut used, loser, Value::Null(root));
                    }
                }
            }
            ChaseStep::Fire {
                rule,
                assignment,
                fresh,
            } => {
                let def = cert.rules.get(*rule).ok_or(Reject::UnknownRule { step })?;
                for (atom, a) in def.body.iter().enumerate() {
                    let img = atom_image(a, assignment, &subst)
                        .map_err(|var| Reject::UnboundBodyVar { step, var })?;
                    if !facts.contains(&img) {
                        return Err(Reject::BodyAtomUnmatched { step, atom });
                    }
                }
                for w in fresh.windows(2) {
                    if let [(a, _), (b, _)] = w {
                        if a >= b {
                            return Err(Reject::MalformedMapping);
                        }
                    }
                }
                for &(_, n) in fresh {
                    if !used.insert(n) {
                        return Err(Reject::StaleFreshNull { step, null: n });
                    }
                }
                for a in &def.head {
                    let mut args = Vec::with_capacity(a.args.len());
                    for t in &a.args {
                        let v = match *t {
                            crate::types::CertTerm::Const(c) => Value::Const(c),
                            crate::types::CertTerm::Var(x) => match lookup(assignment, x) {
                                Some(v) => resolve(&subst, v),
                                None => fresh
                                    .iter()
                                    .find(|&&(fx, _)| fx == x)
                                    .map(|&(_, n)| Value::Null(n))
                                    .ok_or(Reject::MissingFreshNull { step, var: x })?,
                            },
                        };
                        args.push(v);
                    }
                    used.extend(args.iter().filter_map(|v| v.as_null()));
                    facts.insert((a.rel.clone(), args));
                }
            }
        }
    }

    match &cert.outcome {
        ChaseCertOutcome::Failed => match clash_at {
            Some(_) => Ok(()),
            None => Err(Reject::FailedWithoutClash),
        },
        ChaseCertOutcome::Done { final_facts } if clash_at.is_none() => {
            if facts == fact_set(final_facts) {
                Ok(())
            } else {
                Err(Reject::FinalFactsMismatch)
            }
        }
        ChaseCertOutcome::Aborted { partial } | ChaseCertOutcome::Overflow { partial }
            if clash_at.is_none() =>
        {
            if facts == fact_set(partial) {
                Ok(())
            } else {
                Err(Reject::FinalFactsMismatch)
            }
        }
        _ => Err(Reject::ClashNotFailed),
    }
}

/// Apply one merge: record the parent, then re-resolve the facts that
/// mention the merged null (and mark both endpoints used). The fact set
/// holds only representatives — initial facts start unmerged, fired
/// facts are resolved on insertion, and fresh nulls are never merged
/// ones — so `loser` is the only value whose resolution changes.
fn apply_merge(
    subst: &mut BTreeMap<Null, Value>,
    facts: &mut BTreeSet<CertFact>,
    used: &mut BTreeSet<Null>,
    loser: Null,
    root: Value,
) {
    subst.insert(loser, root);
    used.insert(loser);
    if let Value::Null(r) = root {
        used.insert(r);
    }
    let mut moved: Vec<CertFact> = Vec::new();
    facts.retain(|(rel, args)| {
        if !args.contains(&Value::Null(loser)) {
            return true;
        }
        moved.push((
            rel.clone(),
            args.iter().map(|&v| resolve(subst, v)).collect(),
        ));
        false
    });
    facts.extend(moved);
}

// ---------------------------------------------------------------------------
// Core retractions
// ---------------------------------------------------------------------------

/// Verify a core-retraction certificate: replay the fold/endomorphism
/// chain from the identity, checking after every step that each tuple of
/// the structure still maps to a tuple of the structure, then compare the
/// composition against the claimed witness and the probe image against
/// the claimed kept set.
pub fn check_core(cert: &CoreCert) -> Result<(), Reject> {
    let n = cert.n_elements as usize;
    if cert.map.len() != n
        || cert.map.iter().any(|&x| (x as usize) >= n)
        || cert.probe.iter().any(|&x| (x as usize) >= n)
        || cert.kept.iter().any(|&x| (x as usize) >= n)
        || cert
            .tuples
            .iter()
            .any(|(_, t)| t.iter().any(|&x| (x as usize) >= n))
    {
        return Err(Reject::BadElement);
    }
    let tuple_set: BTreeSet<&(u32, Vec<u32>)> = cert.tuples.iter().collect();
    let mut cur: Vec<u32> = (0..n as u32).collect();
    for (step, s) in cert.steps.iter().enumerate() {
        match s {
            CoreStep::Fold { u, w } => {
                if (*u as usize) >= n || (*w as usize) >= n {
                    return Err(Reject::BadElement);
                }
                for x in cur.iter_mut() {
                    if *x == *u {
                        *x = *w;
                    }
                }
            }
            CoreStep::Endo { g } => {
                if g.len() != n || g.iter().any(|&x| (x as usize) >= n) {
                    return Err(Reject::BadElement);
                }
                for x in cur.iter_mut() {
                    *x = g.get(*x as usize).copied().unwrap_or(*x);
                }
            }
        }
        for (tuple, (r, t)) in cert.tuples.iter().enumerate() {
            let image: (u32, Vec<u32>) = (
                *r,
                t.iter()
                    .map(|&x| cur.get(x as usize).copied().unwrap_or(x))
                    .collect(),
            );
            if !tuple_set.contains(&image) {
                return Err(Reject::StepBreaksTuple { step, tuple });
            }
        }
    }
    if cur != cert.map {
        return Err(Reject::WitnessMismatch);
    }
    let mut image: Vec<u32> = cert
        .probe
        .iter()
        .map(|&p| cur.get(p as usize).copied().unwrap_or(p))
        .collect();
    image.sort_unstable();
    image.dedup();
    if image != cert.kept || !cert.kept.iter().all(|k| cert.probe.contains(k)) {
        return Err(Reject::KeptMismatch);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Query matches and certainty
// ---------------------------------------------------------------------------

/// Verify a naive-match certificate against a fact set: the named
/// disjunct's atoms, under the given assignment, are all facts, and the
/// head projects to the claimed row.
pub fn check_match(
    q: &CertQuery,
    facts: &BTreeSet<CertFact>,
    cert: &MatchCert,
) -> Result<(), Reject> {
    let cq = q
        .disjuncts
        .get(cert.disjunct)
        .ok_or(Reject::UnknownDisjunct)?;
    if cert.row.len() != q.head_arity {
        return Err(Reject::WrongRow);
    }
    let empty = BTreeMap::new();
    for (atom, a) in cq.atoms.iter().enumerate() {
        let img = atom_image(a, &cert.assignment, &empty)
            .map_err(|var| Reject::UnboundQueryVar { var })?;
        if !facts.contains(&img) {
            return Err(Reject::MatchAtomUnmatched { atom });
        }
    }
    let mut projected = Vec::with_capacity(cq.head.len());
    for &h in &cq.head {
        projected.push(lookup(&cert.assignment, h).ok_or(Reject::UnboundQueryVar { var: h })?);
    }
    if projected != cert.row {
        return Err(Reject::WrongRow);
    }
    Ok(())
}

/// Verify a *certain-row* certificate: a valid naive match whose row is
/// null-free. By the classical theorem (naive evaluation computes UCQ
/// certain answers) this certifies certainty without any completion
/// sweep.
pub fn check_certain_row(
    q: &CertQuery,
    facts: &BTreeSet<CertFact>,
    cert: &MatchCert,
) -> Result<(), Reject> {
    check_match(q, facts, cert)?;
    if cert.row.iter().any(|v| v.is_null()) {
        return Err(Reject::RowNotGround);
    }
    Ok(())
}

/// Verify a non-certainty certificate: the valuation grounds every null
/// of the instance, and in the resulting completion no disjunct produces
/// the claimed row (for Boolean queries: no disjunct matches at all).
///
/// This is the checker's documented carve-out from the no-search rule:
/// absence in one complete database requires one naive evaluation —
/// polynomial in the completion for a fixed query.
pub fn check_non_certain(
    q: &CertQuery,
    facts: &BTreeSet<CertFact>,
    cert: &NonCertainCert,
) -> Result<(), Reject> {
    let ground_null = |n: Null| -> Result<Value, Reject> {
        cert.valuation
            .iter()
            .find(|&&(k, _)| k == n)
            .map(|&(_, c)| Value::Const(c))
            .ok_or(Reject::ValuationNotGrounding { null: n })
    };
    let mut completion: BTreeSet<CertFact> = BTreeSet::new();
    for (rel, args) in facts {
        let mut ground = Vec::with_capacity(args.len());
        for &v in args {
            ground.push(match v {
                Value::Const(_) => v,
                Value::Null(n) => ground_null(n)?,
            });
        }
        completion.insert((rel.clone(), ground));
    }
    if cert.row.len() != q.head_arity {
        return Err(Reject::WrongRow);
    }
    for (disjunct, cq) in q.disjuncts.iter().enumerate() {
        if cq_has_row(cq, &completion, &cert.row) {
            return Err(Reject::MatchExists { disjunct });
        }
    }
    Ok(())
}

/// Does `cq` produce `row` over the (complete) fact set? Backtracking
/// over body atoms with head variables pre-bound from the row.
fn cq_has_row(cq: &CertCq, facts: &BTreeSet<CertFact>, row: &[Value]) -> bool {
    if cq.head.len() != row.len() {
        return false;
    }
    let mut bound: BTreeMap<u32, Value> = BTreeMap::new();
    for (&h, &v) in cq.head.iter().zip(row.iter()) {
        match bound.get(&h) {
            Some(&prev) if prev != v => return false,
            _ => {
                bound.insert(h, v);
            }
        }
    }
    // Per-relation fact lists for candidate enumeration.
    let mut by_rel: BTreeMap<&str, Vec<&Vec<Value>>> = BTreeMap::new();
    for (rel, args) in facts {
        by_rel.entry(rel.as_str()).or_default().push(args);
    }
    fn go(
        atoms: &[CertAtom],
        by_rel: &BTreeMap<&str, Vec<&Vec<Value>>>,
        bound: &mut BTreeMap<u32, Value>,
    ) -> bool {
        let Some((atom, rest)) = atoms.split_first() else {
            return true;
        };
        let Some(candidates) = by_rel.get(atom.rel.as_str()) else {
            return false;
        };
        'facts: for args in candidates {
            if args.len() != atom.args.len() {
                continue;
            }
            let mut added: Vec<u32> = Vec::new();
            for (t, &v) in atom.args.iter().zip(args.iter()) {
                let ok = match *t {
                    crate::types::CertTerm::Const(c) => v == Value::Const(c),
                    crate::types::CertTerm::Var(x) => match bound.get(&x) {
                        Some(&prev) => prev == v,
                        None => {
                            bound.insert(x, v);
                            added.push(x);
                            true
                        }
                    },
                };
                if !ok {
                    for x in added {
                        bound.remove(&x);
                    }
                    continue 'facts;
                }
            }
            if go(rest, by_rel, bound) {
                return true;
            }
            for x in added {
                bound.remove(&x);
            }
        }
        false
    }
    go(&cq.atoms, &by_rel, &mut bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CertTerm::{Const as C, Var as V};

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn nv(id: u32) -> Value {
        Value::null(id)
    }

    #[test]
    fn hom_cert_roundtrip_and_rejections() {
        let mut src = FactStore::new();
        let r = src.add_relation("R", 2);
        src.insert(r, &[c(1), nv(1)]);
        src.insert(r, &[nv(1), nv(2)]);
        let mut dst = FactStore::new();
        let r2 = dst.add_relation("R", 2);
        dst.insert(r2, &[c(1), c(2)]);
        dst.insert(r2, &[c(2), c(3)]);
        let good = HomCert {
            mapping: vec![(Null(1), c(2)), (Null(2), c(3))],
            onto: true,
        };
        assert_eq!(check_hom(&good, &src, &dst), Ok(()));
        // Wrong image: fact not preserved.
        let bad = HomCert {
            mapping: vec![(Null(1), c(2)), (Null(2), c(2))],
            onto: false,
        };
        assert_eq!(
            check_hom(&bad, &src, &dst),
            Err(Reject::FactNotPreserved { index: 1 })
        );
        // Missing entry.
        let partial = HomCert {
            mapping: vec![(Null(1), c(2))],
            onto: false,
        };
        assert_eq!(
            check_hom(&partial, &src, &dst),
            Err(Reject::UnmappedNull { null: Null(2) })
        );
        // Unsorted mapping.
        let unsorted = HomCert {
            mapping: vec![(Null(2), c(3)), (Null(1), c(2))],
            onto: false,
        };
        assert_eq!(
            check_hom(&unsorted, &src, &dst),
            Err(Reject::MalformedMapping)
        );
        // Onto against a larger target.
        dst.insert(r2, &[c(9), c(9)]);
        assert_eq!(check_hom(&good, &src, &dst), Err(Reject::NotOnto));
    }

    #[test]
    fn match_and_non_certain_certs() {
        let q = CertQuery {
            head_arity: 1,
            disjuncts: vec![CertCq {
                head: vec![0],
                atoms: vec![CertAtom {
                    rel: "R".into(),
                    args: vec![C(1), V(0)],
                }],
            }],
        };
        let facts: BTreeSet<CertFact> = [
            ("R".to_string(), vec![c(1), c(5)]),
            ("R".to_string(), vec![c(1), nv(3)]),
        ]
        .into_iter()
        .collect();
        let m = MatchCert {
            disjunct: 0,
            assignment: vec![(0, c(5))],
            row: vec![c(5)],
        };
        assert_eq!(check_certain_row(&q, &facts, &m), Ok(()));
        let null_row = MatchCert {
            disjunct: 0,
            assignment: vec![(0, nv(3))],
            row: vec![nv(3)],
        };
        assert_eq!(check_match(&q, &facts, &null_row), Ok(()));
        assert_eq!(
            check_certain_row(&q, &facts, &null_row),
            Err(Reject::RowNotGround)
        );
        // Row 7 is not certain: the completion ⊥3 ↦ 9 omits it.
        let nc = NonCertainCert {
            valuation: vec![(Null(3), 9)],
            row: vec![c(7)],
        };
        assert_eq!(check_non_certain(&q, &facts, &nc), Ok(()));
        // But row 5 is certain — every completion has it.
        let bad = NonCertainCert {
            valuation: vec![(Null(3), 9)],
            row: vec![c(5)],
        };
        assert_eq!(
            check_non_certain(&q, &facts, &bad),
            Err(Reject::MatchExists { disjunct: 0 })
        );
        // Unground valuation.
        let unground = NonCertainCert {
            valuation: vec![],
            row: vec![c(7)],
        };
        assert_eq!(
            check_non_certain(&q, &facts, &unground),
            Err(Reject::ValuationNotGrounding { null: Null(3) })
        );
    }

    #[test]
    fn core_cert_replay() {
        // Path 0 → 1 → 2 with a loop at 2: fold 0 onto 1? No — fold
        // validity is what the checker decides; use the pendant chain
        // where 0 folds onto 2 via the endomorphism sending everything
        // to the loop.
        let cert = CoreCert {
            n_elements: 2,
            tuples: vec![(0, vec![0, 1]), (0, vec![1, 1])],
            probe: vec![0, 1],
            steps: vec![CoreStep::Fold { u: 0, w: 1 }],
            kept: vec![1],
            map: vec![1, 1],
        };
        assert_eq!(check_core(&cert), Ok(()));
        let broken = CoreCert {
            steps: vec![CoreStep::Fold { u: 1, w: 0 }],
            ..cert.clone()
        };
        // Folding 1 onto 0 maps (1,1) to (0,0), which is no tuple.
        assert_eq!(
            check_core(&broken),
            Err(Reject::StepBreaksTuple { step: 0, tuple: 0 })
        );
        let wrong_map = CoreCert {
            map: vec![0, 1],
            ..cert.clone()
        };
        assert_eq!(check_core(&wrong_map), Err(Reject::WitnessMismatch));
        let wrong_kept = CoreCert {
            kept: vec![0],
            map: vec![1, 1],
            ..cert
        };
        assert_eq!(check_core(&wrong_kept), Err(Reject::KeptMismatch));
    }
}
