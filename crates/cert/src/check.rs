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

use std::collections::BTreeSet;
use std::iter::zip;
use std::ops::Range;

use ca_core::fxhash::{FxHashMap, FxHashSet};
use ca_core::rows::{hash_key, RowIndex};
use ca_core::store::{dense_count, FactStore};
use ca_core::value::{Null, Value};

use crate::types::{
    CertAtom, CertCq, CertFact, CertQuery, CertTerm, ChaseCert, ChaseCertOutcome, ChaseStep,
    CoreCert, CoreStep, FactGroups, HomCert, MatchCert, NonCertainCert,
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
    /// A body variable has no value: the step's value run is shorter
    /// than its rule's body variables, or an egd equates a variable its
    /// body does not bind.
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
    /// A step's value or fresh-null range lies outside its buffer, or is
    /// longer than the variables it binds.
    MalformedStep {
        /// The offending step index.
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

/// The replay representation: relations keyed by `(name, arity)`, so one
/// name at two arities is two relations, interned to dense ids at check
/// entry. Probes take `&[Value]`, so testing an atom image built in a
/// reused buffer allocates nothing. No set's iteration order reaches a
/// [`Reject`]: rejections follow certificate order.
#[derive(Default)]
struct Facts<'a> {
    ids: FxHashMap<(&'a str, usize), usize>,
    rels: Vec<Rel>,
}

/// One replayed relation: distinct rows of `arity` values, flat, found
/// through a [`RowIndex`], with one mark per row (so `marks.len()` is the
/// row count) for the equality and onto checks.
#[derive(Default)]
struct Rel {
    arity: usize,
    vals: Vec<Value>,
    index: RowIndex,
    marks: Vec<bool>,
}

/// Row `i` of flat rows of width `arity`.
fn row(vals: &[Value], arity: usize, i: usize) -> &[Value] {
    &vals[i * arity..(i + 1) * arity]
}

impl Rel {
    fn find(&self, args: &[Value]) -> Option<usize> {
        let n = self.marks.len();
        let holds = |i: u32| (i as usize) < n && row(&self.vals, self.arity, i as usize) == args;
        self.index.find(hash_key(args), holds).map(|i| i as usize)
    }

    /// The row other than `i` that holds `args`, or else index row `i`
    /// under `args`. Slots past the last row are stale: a rewrite dropped
    /// their rows.
    fn place(&mut self, args: &[Value], i: usize) -> Option<usize> {
        let (vals, arity, n) = (&self.vals, self.arity, self.marks.len());
        if self.index.reserve(n) {
            let held = |j: usize| hash_key(row(vals, arity, j));
            (0..n).for_each(|j| _ = self.index.place(held(j), dense_count(j), |_| false));
        }
        let holds =
            |j: u32| (j as usize) < n && j as usize != i && row(vals, arity, j as usize) == args;
        let held = self.index.place(hash_key(args), dense_count(i), holds);
        held.map(|j| j as usize)
    }

    /// Add `args` (of width `arity`) unless a row holds it.
    fn insert(&mut self, args: &[Value]) {
        if self.place(args, self.marks.len()).is_none() {
            self.vals.extend_from_slice(args);
            self.marks.push(false);
        }
    }

    /// Replace `from` by `to` in place, and index each changed row under
    /// its new content. A changed row that another row holds already is
    /// dropped, and the last row moves into its place.
    fn rewrite(&mut self, from: Value, to: Value, key: &mut Vec<Value>) {
        let (arity, mut i) = (self.arity, 0);
        while i < self.marks.len() {
            let cells = &mut self.vals[i * arity..(i + 1) * arity];
            if !cells.contains(&from) {
                i += 1;
                continue;
            }
            cells
                .iter_mut()
                .filter(|v| **v == from)
                .for_each(|v| *v = to);
            key.clear();
            key.extend_from_slice(cells);
            if self.place(key, i).is_none() {
                i += 1;
                continue;
            }
            let last = self.marks.len() - 1;
            self.vals.copy_within(last * arity.., i * arity);
            self.vals.truncate(last * arity);
            self.marks.pop();
            if i < last {
                // The moved row is indexed under its old number only.
                key.clear();
                key.extend_from_slice(row(&self.vals, arity, i));
                self.place(key, i);
            }
        }
    }
}

/// An atom compiled against a rule's variable lists: its relation id, and
/// per argument a constant (`Err`) or a position (`Ok`) in the step's
/// values followed by its fresh nulls.
type Pattern = (usize, Vec<Result<usize, Value>>);

/// A rule or egd compiled once: its body variables and its existentials
/// (an egd has none), ascending, then its body and head atoms.
type Compiled = (Vec<u32>, Vec<u32>, Vec<Pattern>, Vec<Pattern>);

impl<'a> Facts<'a> {
    /// The id of `rel` at `arity`, registered with no facts if it is new.
    fn intern(&mut self, rel: &'a str, arity: usize) -> usize {
        *self.ids.entry((rel, arity)).or_insert_with(|| {
            let rel = Rel::default();
            self.rels.push(Rel { arity, ..rel });
            self.rels.len() - 1
        })
    }

    fn insert(&mut self, rel: &'a str, args: &[Value]) {
        let rel = self.intern(rel, args.len());
        self.rels[rel].insert(args);
    }

    /// Compile a rule's (or egd's) body and head atoms against the
    /// ascending variables of a step's values (`vars`) and of its fresh
    /// nulls (`fresh`, the rest).
    fn compile(&mut self, atoms: [&'a [CertAtom]; 2], vars: Vec<u32>, fresh: Vec<u32>) -> Compiled {
        let pos = |x| {
            vars.binary_search(&x)
                .unwrap_or_else(|_| vars.len() + fresh.partition_point(|&v| v < x))
        };
        let arg = |t: &CertTerm| match *t {
            CertTerm::Var(x) => Ok(pos(x)),
            CertTerm::Const(c) => Err(Value::Const(c)),
        };
        let [body, head] = atoms.map(|atoms| -> Vec<Pattern> {
            let atom = |a: &'a CertAtom| (self.intern(&a.rel, a.args.len()), a.args.iter());
            atoms
                .iter()
                .map(atom)
                .map(|(rel, args)| (rel, args.map(arg).collect()))
                .collect()
        });
        (vars, fresh, body, head)
    }

    /// Mark the row of `rel` holding `args`; `false` if there is none.
    fn mark(&mut self, rel: usize, args: &[Value]) -> bool {
        let found = self.rels[rel].find(args);
        found.map(|i| self.rels[rel].marks[i] = true).is_some()
    }

    /// Is the set exactly the facts of `claim`, repeats allowed? Every
    /// claimed fact must find its row, which it marks (one interning per
    /// group), and every row must be marked.
    fn equals(&mut self, claim: &'a FactGroups) -> bool {
        claim.groups().all(|(rel, arity, rows, vals)| {
            let rel = self.ids.get(&(rel, arity)).copied();
            rel.is_some_and(|rel| (0..rows).all(|i| self.mark(rel, row(vals, arity, i))))
        }) && self.covered()
    }

    fn covered(&self) -> bool {
        self.rels.iter().all(|r| r.marks.iter().all(|&m| m))
    }
}

/// The value `pairs` binds `key` to (assignments, valuations, bindings).
fn lookup<K: PartialEq, V: Copy>(pairs: &[(K, V)], key: K) -> Option<V> {
    pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Resolve a value through the merge substitution, following parent
/// chains. They end: the checker maps only a resolved value to another
/// resolved value, so no chain closes a cycle.
fn resolve(subst: &FxHashMap<Null, Value>, mut v: Value) -> Value {
    while let Some(&p) = v.as_null().and_then(|n| subst.get(&n)) {
        v = p;
    }
    v
}

// ---------------------------------------------------------------------------
// Homomorphisms
// ---------------------------------------------------------------------------

/// Verify a homomorphism certificate from `src` to `dst`: the mapping is
/// canonical (strictly ascending), total on the source's nulls, maps
/// every live source fact onto a live target fact, and — when `onto` —
/// covers every live target fact.
pub fn check_hom(cert: &HomCert, src: &FactStore, dst: &FactStore) -> Result<(), Reject> {
    let ascending = |w: &[_]| matches!(w, [(a, _), (b, _)] if a < b);
    if !cert.mapping.windows(2).all(ascending) {
        return Err(Reject::MalformedMapping);
    }
    let apply = |v: Value| match v {
        Value::Const(_) => Ok(v),
        Value::Null(n) => (cert.mapping.binary_search_by_key(&n, |&(k, _)| k))
            .map(|i| cert.mapping[i].1)
            .map_err(|_| Reject::UnmappedNull { null: n }),
    };
    let mut target = Facts::default();
    for f in dst.iter_live() {
        target.insert(dst.rel_name(dst.fact_rel(f)), &dst.fact_values(f));
    }
    for (index, f) in src.iter_live().enumerate() {
        let rel = target.intern(src.rel_name(src.fact_rel(f)), src.arity(src.fact_rel(f)));
        let args = src.fact_values(f).into_iter().map(apply);
        if !target.mark(rel, &args.collect::<Result<Vec<_>, _>>()?) {
            return Err(Reject::FactNotPreserved { index });
        }
    }
    if cert.onto && !target.covered() {
        return Err(Reject::NotOnto);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Chase derivations
// ---------------------------------------------------------------------------

/// The run `range` of `buf` for a step that binds `vars`: `MalformedStep`
/// if it lies outside `buf` or is longer than `vars`, and `short` of the
/// first variable without a value if it is shorter.
fn step_run<'b, T>(
    buf: &'b [T],
    range: &Range<u32>,
    vars: &[u32],
    step: usize,
    short: impl Fn(u32) -> Reject,
) -> Result<&'b [T], Reject> {
    let run = (buf.get(range.start as usize..range.end as usize))
        .filter(|run| run.len() <= vars.len())
        .ok_or(Reject::MalformedStep { step })?;
    vars.get(run.len()).map_or(Ok(run), |&var| Err(short(var)))
}

/// Write the image of a compiled atom under a step's resolved values
/// and fresh nulls into `buf`.
fn image(args: &[Result<usize, Value>], vals: &[Value], buf: &mut Vec<Value>) {
    buf.clear();
    buf.extend(args.iter().map(|&a| a.map_or_else(|c| c, |i| vals[i])));
}

/// Verify a chase certificate by replaying its derivation: every firing's
/// body must be present when it fires, fresh nulls must be globally new,
/// merges must follow the deterministic representative rule, a clash must
/// be final, and the resulting fact set must equal the outcome's claim.
pub fn check_chase(cert: &ChaseCert) -> Result<(), Reject> {
    let mut facts = Facts::default();
    let rules: Vec<_> = (cert.rules.iter())
        .map(|r| facts.compile([&r.body, &r.head], r.body_vars(), r.existentials()))
        .collect();
    let egds: Vec<_> = (cert.egds.iter())
        .map(|e| facts.compile([&e.body, &[]], e.body_vars(), Vec::new()))
        .collect();
    // Every null of a current fact is used: initial nulls from here on,
    // fresh nulls once drawn, and any other value a fired or merged fact
    // holds is a body value, which the body check found in a current fact.
    let mut used: FxHashSet<Null> = FxHashSet::default();
    for (rel, arity, rows, vals) in cert.initial.groups() {
        used.extend(vals.iter().filter_map(|v| v.as_null()));
        let rel = facts.intern(rel, arity);
        (0..rows).for_each(|i| facts.rels[rel].insert(row(vals, arity, i)));
    }
    let mut subst: FxHashMap<Null, Value> = FxHashMap::default();
    let (mut vals, mut buf): (Vec<Value>, Vec<Value>) = (Vec::new(), Vec::new());
    let mut clash_at: Option<usize> = None;

    for (step, s) in cert.steps.iter().enumerate() {
        if let Some(at) = clash_at {
            return Err(Reject::StepsAfterFailure { step: at });
        }
        // The body must hold now: every atom's image under the step's
        // values, resolved through the merges so far, is a current fact.
        let (rule, values) = match s {
            ChaseStep::Fire { rule, values, .. } => (rules.get(*rule), values),
            ChaseStep::Merge { egd, values, .. } => (egds.get(*egd), values),
        };
        let (vars, existentials, body, head) = rule.ok_or(Reject::UnknownRule { step })?;
        let unbound = |var| Reject::UnboundBodyVar { step, var };
        let run = step_run(&cert.values, values, vars, step, unbound)?;
        vals.clear();
        vals.extend(run.iter().map(|&v| resolve(&subst, v)));
        for (atom, (rel, args)) in body.iter().enumerate() {
            image(args, &vals, &mut buf);
            if facts.rels[*rel].find(&buf).is_none() {
                return Err(Reject::BodyAtomUnmatched { step, atom });
            }
        }
        match s {
            ChaseStep::Merge { egd, merged, .. } => {
                let get = |var| vars.binary_search(&var).map(|i| vals[i]);
                let get = |var| get(var).map_err(|_| unbound(var));
                let (x, y) = (get(cert.egds[*egd].equal.0)?, get(cert.egds[*egd].equal.1)?);
                if x == y {
                    return Err(Reject::TrivialMerge { step });
                }
                // Constants win; between nulls the smaller id does.
                let (loser, root) = match (x, y) {
                    (Value::Const(_), Value::Const(_)) => {
                        if merged.is_some() {
                            return Err(Reject::MergeRootMismatch { step });
                        }
                        clash_at = Some(step);
                        continue;
                    }
                    (Value::Null(n), root @ Value::Const(_))
                    | (root @ Value::Const(_), Value::Null(n)) => (n, root),
                    (Value::Null(a), Value::Null(b)) if a.0 < b.0 => (b, x),
                    (Value::Null(a), Value::Null(_)) => (a, y),
                };
                if *merged != Some((loser, root)) {
                    return Err(Reject::MergeRootMismatch { step });
                }
                // Rewrite the loser in every relation. The set holds only
                // representatives, so no other value's resolution moves.
                subst.insert(loser, root);
                for rel in &mut facts.rels {
                    rel.rewrite(Value::Null(loser), root, &mut buf);
                }
            }
            ChaseStep::Fire { fresh, .. } => {
                let missing = |var| Reject::MissingFreshNull { step, var };
                let fresh = step_run(&cert.ledger, fresh, existentials, step, missing)?;
                for &n in fresh {
                    if !used.insert(n) {
                        return Err(Reject::StaleFreshNull { step, null: n });
                    }
                }
                // Fresh nulls passed the staleness check, so no merge
                // touched them and resolving them is the identity.
                vals.extend(fresh.iter().map(|&n| Value::Null(n)));
                for (rel, args) in head {
                    image(args, &vals, &mut buf);
                    facts.rels[*rel].insert(&buf);
                }
            }
        }
    }

    match &cert.outcome {
        ChaseCertOutcome::Failed => clash_at.map(|_| ()).ok_or(Reject::FailedWithoutClash),
        ChaseCertOutcome::Done { final_facts: claim }
        | ChaseCertOutcome::Aborted { partial: claim }
        | ChaseCertOutcome::Overflow { partial: claim }
            if clash_at.is_none() =>
        {
            (facts.equals(claim).then_some(())).ok_or(Reject::FinalFactsMismatch)
        }
        _ => Err(Reject::ClashNotFailed),
    }
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
    // One reused probe key: a match names a handful of atoms, so probing
    // the caller's set costs less than re-keying all of it.
    let mut key: CertFact = Default::default();
    for (atom, a) in cq.atoms.iter().enumerate() {
        key.0.clone_from(&a.rel);
        key.1.clear();
        for t in &a.args {
            key.1.push(match *t {
                CertTerm::Const(c) => Value::Const(c),
                CertTerm::Var(var) => {
                    lookup(&cert.assignment, var).ok_or(Reject::UnboundQueryVar { var })?
                }
            });
        }
        if !facts.contains(&key) {
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
    let ground = |v: Value| match v {
        Value::Const(_) => Ok(v),
        Value::Null(n) => lookup(&cert.valuation, n)
            .map(Value::Const)
            .ok_or(Reject::ValuationNotGrounding { null: n }),
    };
    let (mut completion, mut buf) = (Facts::default(), Vec::new());
    for (rel, args) in facts {
        buf.clear();
        for &v in args {
            buf.push(ground(v)?);
        }
        completion.insert(rel, &buf);
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

/// Does `cq` produce `answer` over the (complete) fact set? Backtracking
/// over body atoms with head variables pre-bound from the answer; `bound`
/// is a stack of bindings, cut back to its mark when a candidate fails.
/// An atom's candidates come in insertion order, which decides only
/// which match is found first, never whether one exists.
fn cq_has_row(cq: &CertCq, facts: &Facts, answer: &[Value]) -> bool {
    fn bind(bound: &mut Vec<(u32, Value)>, x: u32, v: Value) -> bool {
        match lookup(bound, x) {
            Some(prev) => prev == v,
            None => {
                bound.push((x, v));
                true
            }
        }
    }
    fn go(atoms: &[CertAtom], facts: &Facts, bound: &mut Vec<(u32, Value)>) -> bool {
        let Some((atom, rest)) = atoms.split_first() else {
            return true;
        };
        let Some(&rel) = facts.ids.get(&(atom.rel.as_str(), atom.args.len())) else {
            return false;
        };
        let (rel, mark) = (&facts.rels[rel], bound.len());
        for i in 0..rel.marks.len() {
            let fits = zip(&atom.args, row(&rel.vals, rel.arity, i)).all(|(t, &v)| match *t {
                CertTerm::Const(c) => v == Value::Const(c),
                CertTerm::Var(x) => bind(bound, x, v),
            });
            if fits && go(rest, facts, bound) {
                return true;
            }
            bound.truncate(mark);
        }
        false
    }
    let mut bound = Vec::new();
    cq.head.len() == answer.len()
        && zip(&cq.head, answer).all(|(&h, &v)| bind(&mut bound, h, v))
        && go(&cq.atoms, facts, &mut bound)
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
        src.append(r, &[c(1), nv(1)]);
        src.append(r, &[nv(1), nv(2)]);
        let mut dst = FactStore::new();
        let r2 = dst.add_relation("R", 2);
        dst.append(r2, &[c(1), c(2)]);
        dst.append(r2, &[c(2), c(3)]);
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
        dst.append(r2, &[c(9), c(9)]);
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
