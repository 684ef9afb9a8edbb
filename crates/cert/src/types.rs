//! The certificate catalog.
//!
//! Certificates are self-describing: they speak a tiny shared vocabulary
//! of facts, atoms and queries over [`ca_core::value`] types and relation
//! *names* (strings), so the checker needs no engine crate's schema,
//! plan, or solver types. Emitters (the engine crates) translate their
//! internal representations into this vocabulary; the checker replays
//! them against plain fact sets or [`ca_core::store::FactStore`]
//! snapshots.
//!
//! A chase certificate is columnar, so that recording, checking and
//! dropping it costs no heap allocation per step or per fact: its fact
//! lists are [`FactGroups`] (a relation name once per run of facts, the
//! rows flat), and its steps are plain ranges into two flat buffers on
//! [`ChaseCert`]. The variables those buffers bind are not stored at
//! all; they follow from the rule or egd a step names (see
//! [`ChaseStep`]).

use std::ops::Range;

use ca_core::value::{Null, Value};

/// A fact in checker vocabulary: relation name plus argument values.
pub type CertFact = (String, Vec<Value>);

/// One run of facts of a [`FactGroups`]: `rows` rows of `arity` values.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FactGroup {
    rel: String,
    arity: usize,
    rows: usize,
}

/// A fact list in checker vocabulary, grouped by relation: each group
/// names its relation once and holds its rows flat, with the arity as
/// stride and an explicit row count, since the arity may be 0. Any list
/// can be expressed, repeats and out-of-order facts included: a group
/// ends wherever the next fact names another relation or arity. The
/// fields are private, so every group's rows fill exactly its share of
/// the flat buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FactGroups {
    groups: Vec<FactGroup>,
    values: Vec<Value>,
}

impl FactGroups {
    /// No facts.
    pub fn new() -> FactGroups {
        FactGroups::default()
    }

    /// Append the fact `rel(args)`: to the last group when it has the same
    /// relation and arity, else as a new group.
    pub fn push(&mut self, rel: &str, args: &[Value]) {
        match self.groups.last_mut() {
            Some(g) if g.arity == args.len() && g.rel == rel => g.rows += 1,
            _ => self.groups.push(FactGroup {
                rel: rel.to_owned(),
                arity: args.len(),
                rows: 1,
            }),
        }
        self.values.extend_from_slice(args);
    }

    /// The number of facts.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.rows).sum()
    }

    /// Whether there are no facts.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The groups in order: relation name, arity, row count, and the
    /// rows flat.
    pub fn groups(&self) -> impl Iterator<Item = (&str, usize, usize, &[Value])> {
        let mut at = 0;
        self.groups.iter().map(move |g| {
            let n = g.arity * g.rows;
            at += n;
            (g.rel.as_str(), g.arity, g.rows, &self.values[at - n..at])
        })
    }

    /// The facts in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Value])> {
        self.groups().flat_map(|(rel, arity, rows, vals)| {
            (0..rows).map(move |i| (rel, &vals[i * arity..(i + 1) * arity]))
        })
    }
}

/// A term of a pattern atom: a variable (by dense id — engines use null
/// ids for rule patterns and query variable ids for queries) or a
/// constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CertTerm {
    /// A variable, bound by an assignment at check time.
    Var(u32),
    /// A constant, matched literally.
    Const(i64),
}

/// One atom of a pattern or query body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertAtom {
    /// Relation name.
    pub rel: String,
    /// Argument terms.
    pub args: Vec<CertTerm>,
}

/// A conjunctive query in checker vocabulary: head variables plus body
/// atoms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertCq {
    /// Head variables (projection), repeats allowed.
    pub head: Vec<u32>,
    /// Body atoms.
    pub atoms: Vec<CertAtom>,
}

/// A union of conjunctive queries in checker vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertQuery {
    /// Shared head arity of every disjunct.
    pub head_arity: usize,
    /// The disjuncts.
    pub disjuncts: Vec<CertCq>,
}

/// A tgd in checker vocabulary: body and head atom lists over shared
/// variable ids. Head variables not bound by the body are existentials,
/// resolved through a firing step's fresh-null ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertRule {
    /// Body atoms.
    pub body: Vec<CertAtom>,
    /// Head atoms.
    pub head: Vec<CertAtom>,
}

/// An egd in checker vocabulary: body atoms plus the two equated body
/// variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertEgd {
    /// Body atoms.
    pub body: Vec<CertAtom>,
    /// The two variables forced equal.
    pub equal: (u32, u32),
}

/// The distinct variables of `atoms`, ascending.
fn vars(atoms: &[CertAtom]) -> Vec<u32> {
    let mut vars: Vec<u32> = (atoms.iter().flat_map(|a| &a.args))
        .filter_map(|t| match *t {
            CertTerm::Var(x) => Some(x),
            CertTerm::Const(_) => None,
        })
        .collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

impl CertRule {
    /// The body's variables, ascending: the order of a firing's values.
    pub fn body_vars(&self) -> Vec<u32> {
        vars(&self.body)
    }

    /// The head variables the body does not bind, ascending: the order of
    /// a firing's fresh nulls.
    pub fn existentials(&self) -> Vec<u32> {
        let body = self.body_vars();
        let mut head = vars(&self.head);
        head.retain(|x| body.binary_search(x).is_err());
        head
    }
}

impl CertEgd {
    /// The body's variables, ascending: the order of a merge's values.
    pub fn body_vars(&self) -> Vec<u32> {
        vars(&self.body)
    }
}

/// A homomorphism certificate: the explicit mapping on nulls (identity on
/// constants), strictly ascending by null id. With `onto` set it claims
/// the image covers every target fact (the closed-world ordering
/// `⊑_cwa`), not just preservation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HomCert {
    /// `null ↦ value` pairs, strictly ascending by null id.
    pub mapping: Vec<(Null, Value)>,
    /// Claim that the image contains every target fact.
    pub onto: bool,
}

/// One step of a chase derivation. Its values are a range into
/// [`ChaseCert::values`], one value per variable of the rule's (or
/// egd's) body in ascending, distinct variable order: the body
/// assignment that witnesses the step. A firing's fresh nulls are a range
/// into [`ChaseCert::ledger`], one null per existential of the rule (a
/// head variable its body does not bind) in ascending variable order.
/// Both variable lists follow from the named rule or egd, so no step
/// stores them, and an out-of-order or mislabelled variable cannot be
/// claimed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseStep {
    /// A tgd firing: the body assignment that triggered it and the
    /// fresh-null ledger for its existentials.
    Fire {
        /// Index into [`ChaseCert::rules`].
        rule: usize,
        /// The body assignment's values, witnessing the trigger.
        values: Range<u32>,
        /// The globally fresh nulls drawn for the existentials.
        fresh: Range<u32>,
    },
    /// An egd merge: the body assignment whose equated pair had distinct
    /// representatives. `merged` names the null merged away and its new
    /// representative; `None` records a constant–constant clash (which
    /// must be the final step of a `Failed` derivation).
    Merge {
        /// Index into [`ChaseCert::egds`].
        egd: usize,
        /// The body assignment's values, witnessing the violated equality.
        values: Range<u32>,
        /// `Some((loser, representative))`, or `None` on a clash.
        merged: Option<(Null, Value)>,
    },
}

/// The claimed end state of a chase derivation. `Done`, `Aborted` and
/// `Overflow` carry the full fact set the replay must reproduce —
/// `Aborted`/`Overflow` are the *partial progress* certificates for runs
/// that gave up (step or match budget).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseCertOutcome {
    /// The chase reached a fixpoint with exactly these facts.
    Done {
        /// The chased instance's facts.
        final_facts: FactGroups,
    },
    /// An egd clashed two constants; the final step records it.
    Failed,
    /// The step budget ran out after deriving exactly these facts.
    Aborted {
        /// Facts derived before giving up.
        partial: FactGroups,
    },
    /// The match budget ran out after deriving exactly these facts.
    Overflow {
        /// Facts derived before giving up.
        partial: FactGroups,
    },
}

/// A chase certificate: the constraint set, the initial instance, an
/// ordered derivation and the claimed outcome. [`crate::check_chase`]
/// replays the derivation and compares the resulting fact set against
/// the outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaseCert {
    /// The tgds, indexed by [`ChaseStep::Fire`].
    pub rules: Vec<CertRule>,
    /// The egds, indexed by [`ChaseStep::Merge`].
    pub egds: Vec<CertEgd>,
    /// The initial instance's facts.
    pub initial: FactGroups,
    /// The derivation, in firing order.
    pub steps: Vec<ChaseStep>,
    /// Every step's body values, in step order.
    pub values: Vec<Value>,
    /// Every firing's fresh nulls, in step order.
    pub ledger: Vec<Null>,
    /// The claimed end state.
    pub outcome: ChaseCertOutcome,
}

/// One step of a retraction: either a fold (substitute `u ↦ w` in the
/// accumulated witness) or a whole endomorphism composed onto it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreStep {
    /// Replace every image `u` by `w`.
    Fold {
        /// The element folded away.
        u: u32,
        /// Its replacement.
        w: u32,
    },
    /// Compose the endomorphism `g` onto the accumulated witness.
    Endo {
        /// `g[x]` is the image of element `x`.
        g: Vec<u32>,
    },
}

/// A core-retraction certificate: the structure (self-contained — the
/// checker needs no solver-side encoding), the probe set, the recorded
/// fold/endomorphism chain, and the claimed witness. Certifies that
/// `map` is an endomorphism built exactly from the recorded steps and
/// that it retracts the probe set onto `kept`; *minimality* of `kept`
/// (the "is a core" half) is not a replayable claim and stays with the
/// differential suites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreCert {
    /// Universe size; elements are `0..n_elements`.
    pub n_elements: u32,
    /// The structure's tuples, sorted and deduplicated.
    pub tuples: Vec<(u32, Vec<u32>)>,
    /// The probe elements (candidates for removal), sorted.
    pub probe: Vec<u32>,
    /// The recorded shrink chain.
    pub steps: Vec<CoreStep>,
    /// The claimed kept element set (ascending).
    pub kept: Vec<u32>,
    /// The claimed witness endomorphism (indexed by element).
    pub map: Vec<u32>,
}

/// A naive-match certificate: one disjunct, one body assignment, and the
/// head row it projects to. A null-free row certifies a *certain* answer
/// (naive evaluation is sound and complete for UCQ certain answers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchCert {
    /// Index into [`CertQuery::disjuncts`].
    pub disjunct: usize,
    /// Query variable ↦ value.
    pub assignment: Vec<(u32, Value)>,
    /// The projected head row.
    pub row: Vec<Value>,
}

/// A non-certainty certificate: a completion valuation (nulls to pool
/// constants) under which the claimed `row` is *not* an answer. For
/// Boolean queries `row` is empty and the claim is that no disjunct
/// matches at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonCertainCert {
    /// Null ↦ grounding constant, one entry per instance null.
    pub valuation: Vec<(Null, i64)>,
    /// The row claimed non-certain (empty for Boolean queries).
    pub row: Vec<Value>,
}

/// A certainty verdict's certificate: either a positive naive-match
/// witness or a negative completion counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertainVerdictCert {
    /// The query is certain; here is a naive match.
    Certain(MatchCert),
    /// The query is not certain; here is a falsifying completion.
    NonCertain(NonCertainCert),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_own_no_heap_memory() {
        assert!(!std::mem::needs_drop::<ChaseStep>());
    }

    #[test]
    fn fact_groups_keep_every_list() {
        let (c, n) = (Value::Const, Value::null);
        let list: [(&str, &[Value]); 6] = [
            ("E", &[c(1), n(2)]),
            ("E", &[c(1), n(2)]),
            ("E", &[c(3)]),
            ("U", &[]),
            ("U", &[]),
            ("E", &[c(0), c(0)]),
        ];
        let mut facts = FactGroups::new();
        assert!(facts.is_empty());
        for (rel, args) in list {
            facts.push(rel, args);
        }
        assert_eq!(facts.iter().collect::<Vec<_>>(), list);
        assert_eq!(facts.len(), 6);
        let runs: Vec<_> = facts.groups().map(|(r, a, n, _)| (r, a, n)).collect();
        assert_eq!(runs, [("E", 2, 2), ("E", 1, 1), ("U", 0, 2), ("E", 2, 1)]);
    }
}
