//! Plan compilation: a CQ becomes a sequence of indexed atom matchers.
//!
//! Compilation resolves relation names against a schema (rejecting
//! unknown names and arity mismatches with a typed [`PlanError`] instead
//! of the reference evaluator's silent empty answer), picks a greedy join
//! order (most-bound atom first), and classifies every atom position into
//! one of three roles:
//!
//! * part of the **probe key** — a constant, or a variable bound by an
//!   earlier atom in the plan or on entry: these positions form the
//!   atom's *index signature*, the set of positions a posting table on
//!   the relation must be keyed by;
//! * a **bind** — the first occurrence of a variable: matching a fact
//!   writes the value into the variable's slot;
//! * a **check** — a repeated occurrence of a variable first bound
//!   *within the same atom* (e.g. the second `x` of `R(x, x)`): checked
//!   against the just-bound slot after the probe.
//!
//! A fourth role belongs to the gaps between atoms: a **projection
//! point** is the entry to an atom before which some slot *dies* — it
//! is bound, but no later key part, no head position and no entry
//! binding reads it. The point carries the *live* slots bound before it
//! (the bound-on-entry slots, the head slots and the key parts of this
//! and later atoms), and evaluation keeps the live values it has seen
//! there: the rest of the plan reads only those slots, so a repeat would
//! emit only rows already emitted, and is skipped (while the point's
//! repeats are frequent enough to pay for the check). This is Yannakakis'
//! projection push-down, memoised; it is exact because answers are sets.
//! A plan whose head lists every body variable has no dead slot, hence
//! no projection point, and enumerates every body assignment.
//!
//! Variables compile to dense slot numbers, so evaluation never searches
//! an association list the way the reference evaluator does. Variables
//! bound on entry ([`CompiledCq::compile_bound`]) own the first slots.

use std::collections::BTreeMap;
use std::fmt;

use ca_core::symbol::Symbol;
use ca_core::value::Value;
use ca_relational::schema::Schema;

use crate::ast::{ConjunctiveQuery, Term, UnionQuery};

use super::cost::CostModel;

/// A typed plan-compilation failure. The reference evaluator silently
/// returns no matches in all of these situations; the engine surfaces
/// them so callers can distinguish "no certain answers" from "the query
/// does not fit the schema".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// An atom names a relation absent from the schema.
    UnknownRelation {
        /// The offending relation name.
        rel: String,
    },
    /// An atom uses a relation at the wrong arity.
    ArityMismatch {
        /// The relation name.
        rel: String,
        /// The arity declared by the schema.
        declared: usize,
        /// The arity the atom used.
        used: usize,
    },
    /// A head variable does not occur in the body (the query is unsafe).
    UnboundHeadVar {
        /// The offending head variable.
        var: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownRelation { rel } => {
                write!(f, "unknown relation {rel} (not in the schema)")
            }
            PlanError::ArityMismatch {
                rel,
                declared,
                used,
            } => write!(
                f,
                "relation {rel} has arity {declared} but the atom uses {used} arguments"
            ),
            PlanError::UnboundHeadVar { var } => {
                write!(f, "head variable x{var} does not occur in the body")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// One component of an atom's probe key.
#[derive(Clone, Copy, Debug)]
pub(crate) enum KeyPart {
    /// A constant from the query.
    Const(Value),
    /// The value of an already-bound variable slot.
    Slot(usize),
}

/// One atom of a compiled plan.
#[derive(Clone, Debug)]
pub(crate) struct AtomPlan {
    /// The atom's index in the query body (plans reorder atoms).
    pub body: usize,
    /// The relation to match.
    pub rel: Symbol,
    /// Sorted positions whose values are known before matching — the
    /// index signature. Empty signature = full relation scan.
    pub sig: Vec<usize>,
    /// Key components aligned with `sig`.
    pub key: Vec<KeyPart>,
    /// `(position, slot)` pairs: first occurrences of variables, bound
    /// from the matched fact.
    pub binds: Vec<(usize, usize)>,
    /// `(position, slot)` pairs: repeated occurrences of variables first
    /// bound within this same atom, checked after binding.
    pub checks: Vec<(usize, usize)>,
    /// At a projection point (see the module docs), the ascending live
    /// slots bound before this atom.
    pub proj: Option<Vec<usize>>,
}

/// A compiled conjunctive query: atoms in join order plus the head
/// projection.
#[derive(Clone, Debug)]
pub struct CompiledCq {
    pub(crate) atoms: Vec<AtomPlan>,
    pub(crate) head_slots: Vec<usize>,
    pub(crate) n_slots: usize,
    /// Variables bound on entry: slots `0..n_bound`.
    pub(crate) n_bound: usize,
}

impl CompiledCq {
    /// Compile a CQ against a schema.
    pub fn compile(q: &ConjunctiveQuery, schema: &Schema) -> Result<CompiledCq, PlanError> {
        Self::compile_with(q, schema, None, &[])
    }

    /// Compile with atom `pin` forced to the front of the join order (the
    /// remaining atoms are ordered greedily as usual). Because nothing
    /// precedes the pinned atom, its key parts are all constants, which
    /// is what lets [`crate::engine::eval_seeded_ids`] range it over the
    /// rows of a semi-naive [`Delta`](crate::engine::Delta) instead of the
    /// whole relation, checking the constants per row as a scan does.
    /// Every atom keeps its body index, so a seeded run knows which atoms
    /// precede the pin in the body: those skip the delta rows. A `pin`
    /// out of range is ignored (plain compilation).
    pub fn compile_pinned(
        q: &ConjunctiveQuery,
        schema: &Schema,
        pin: usize,
    ) -> Result<CompiledCq, PlanError> {
        Self::compile_with(q, schema, Some(pin), &[])
    }

    /// Compile with the variables `bound` known on entry: they take the
    /// first slots in first-occurrence order (a repeat takes none), and
    /// the greedy join order starts from them, so each run of a batch
    /// ([`crate::engine::eval_bound_ids`]) asks whether the pattern
    /// matches with those slots fixed to one parameter row. A bound
    /// variable the body does not mention is a
    /// [`PlanError::UnboundHeadVar`]: nothing would constrain it.
    pub fn compile_bound(
        q: &ConjunctiveQuery,
        schema: &Schema,
        bound: &[u32],
    ) -> Result<CompiledCq, PlanError> {
        let body = q.body_vars();
        if let Some(&var) = bound.iter().find(|v| body.binary_search(v).is_err()) {
            return Err(PlanError::UnboundHeadVar { var });
        }
        Self::compile_with(q, schema, None, bound)
    }

    /// Compile with the join order picked by a [`CostModel`]: the DP
    /// searches all orders where that is affordable and falls back to
    /// the greedy order beyond its width limit. Plan *choice* changes
    /// with the model; plan *answers* never do.
    pub fn compile_costed(
        q: &ConjunctiveQuery,
        schema: &Schema,
        model: &CostModel,
    ) -> Result<CompiledCq, PlanError> {
        let rels = resolve_rels(q, schema)?;
        let greedy = join_order(q, None, &[]);
        match model.order(q, &rels) {
            // Hysteresis: take the DP's order only for a predicted win
            // past [`cost::DP_WIN_MARGIN`]. On near-ties the greedy
            // baseline is kept, so plan choice is stable under
            // statistics jitter and genuinely equivalent plans stay
            // identical to the greedy compilation.
            Some(dp)
                if dp != greedy
                    && model.order_cost(q, &rels, &dp)
                        < super::cost::DP_WIN_MARGIN * model.order_cost(q, &rels, &greedy) =>
            {
                build(q, &rels, &dp, &[])
            }
            _ => build(q, &rels, &greedy, &[]),
        }
    }

    fn compile_with(
        q: &ConjunctiveQuery,
        schema: &Schema,
        pin: Option<usize>,
        bound: &[u32],
    ) -> Result<CompiledCq, PlanError> {
        let rels = resolve_rels(q, schema)?;
        let order = join_order(q, pin, bound);
        build(q, &rels, &order, bound)
    }
}

/// Resolve every atom's relation against the schema, validating arities.
fn resolve_rels(q: &ConjunctiveQuery, schema: &Schema) -> Result<Vec<Symbol>, PlanError> {
    let mut rels = Vec::with_capacity(q.atoms.len());
    for atom in &q.atoms {
        let rel = schema
            .relation(&atom.rel)
            .ok_or_else(|| PlanError::UnknownRelation {
                rel: atom.rel.clone(),
            })?;
        let declared = schema.arity(rel);
        if declared != atom.args.len() {
            return Err(PlanError::ArityMismatch {
                rel: atom.rel.clone(),
                declared,
                used: atom.args.len(),
            });
        }
        rels.push(rel);
    }
    Ok(rels)
}

/// Classify every atom position along the given join `order` (see the
/// module docs) and wire the head projection, with the `bound` variables
/// in the first slots. The ordering policy — greedy or cost-based — is
/// fully decided by here; classification is policy-independent.
fn build(
    q: &ConjunctiveQuery,
    rels: &[Symbol],
    order: &[usize],
    bound: &[u32],
) -> Result<CompiledCq, PlanError> {
    let mut slots: BTreeMap<u32, usize> = BTreeMap::new();
    for &v in bound {
        let next = slots.len();
        slots.entry(v).or_insert(next);
    }
    let n_bound = slots.len();
    let mut atoms = Vec::with_capacity(order.len());
    for &i in order {
        let atom = &q.atoms[i];
        let mut plan = AtomPlan {
            body: i,
            rel: rels[i],
            sig: Vec::new(),
            key: Vec::new(),
            binds: Vec::new(),
            checks: Vec::new(),
            proj: None,
        };
        for (pos, term) in atom.args.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    plan.sig.push(pos);
                    plan.key.push(KeyPart::Const(Value::Const(*c)));
                }
                Term::Var(v) => {
                    if let Some(&slot) = slots.get(v) {
                        if plan.binds.iter().any(|&(_, s)| s == slot) {
                            // Bound earlier in this very atom: the value
                            // is only known after the probe.
                            plan.checks.push((pos, slot));
                        } else {
                            plan.sig.push(pos);
                            plan.key.push(KeyPart::Slot(slot));
                        }
                    } else {
                        let slot = slots.len();
                        slots.insert(*v, slot);
                        plan.binds.push((pos, slot));
                    }
                }
            }
        }
        atoms.push(plan);
    }

    let head_slots = q
        .head
        .iter()
        .map(|v| {
            slots
                .get(v)
                .copied()
                .ok_or(PlanError::UnboundHeadVar { var: *v })
        })
        .collect::<Result<Vec<_>, _>>()?;

    // The depth from which each slot is dead: one past the atom that
    // binds it or last keys on it. Bound-on-entry and head slots live to
    // the end. Slots are numbered in binding order, so the slots bound
    // before atom k are `0..bound_end`.
    let n = atoms.len();
    let mut dies = vec![n; slots.len()];
    for (k, atom) in atoms.iter().enumerate() {
        let keyed = atom.key.iter().filter_map(|kp| match kp {
            KeyPart::Slot(s) => Some(*s),
            KeyPart::Const(_) => None,
        });
        for s in atom.binds.iter().map(|&(_, s)| s).chain(keyed) {
            dies[s] = k + 1;
        }
    }
    for s in head_slots.iter().copied().chain(0..n_bound) {
        dies[s] = n;
    }
    let mut bound_end = n_bound;
    for (k, atom) in atoms.iter_mut().enumerate() {
        if (0..bound_end).any(|s| dies[s] == k) {
            atom.proj = Some((0..bound_end).filter(|&s| dies[s] > k).collect());
        }
        bound_end += atom.binds.len();
    }

    Ok(CompiledCq {
        atoms,
        head_slots,
        n_slots: slots.len(),
        n_bound,
    })
}

/// Greedy bound-variable join ordering: repeatedly pick the atom with the
/// most positions already known (constants + variables bound by earlier
/// picks), tie-breaking on fewer fresh variables, then original order.
/// Deterministic by construction. The variables `known` count as bound
/// from the start. When `pin` names an atom, that atom is forced to the
/// front and the greedy order continues from its variable bindings.
fn join_order(q: &ConjunctiveQuery, pin: Option<usize>, known: &[u32]) -> Vec<usize> {
    let n = q.atoms.len();
    let mut bound: Vec<u32> = known.to_vec();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    if let Some(p) = pin.filter(|&p| p < n) {
        remaining.retain(|&i| i != p);
        for v in q.atoms[p].vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        order.push(p);
    }
    loop {
        let best = remaining
            .iter()
            .map(|&i| {
                let atom = &q.atoms[i];
                let mut known = 0usize;
                let mut fresh: Vec<u32> = Vec::new();
                for t in &atom.args {
                    match t {
                        Term::Const(_) => known += 1,
                        Term::Var(v) => {
                            if bound.contains(v) {
                                known += 1;
                            } else if !fresh.contains(v) {
                                fresh.push(*v);
                            }
                        }
                    }
                }
                // Max known, then min fresh, then min index.
                (usize::MAX - known, fresh.len(), i)
            })
            .min()
            .map(|(_, _, i)| i);
        // `min()` is `None` exactly when no atoms remain: we are done.
        let Some(best) = best else {
            break;
        };
        remaining.retain(|&i| i != best);
        for v in q.atoms[best].vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        order.push(best);
    }
    order
}

/// A compiled union of conjunctive queries.
#[derive(Clone, Debug)]
pub struct CompiledUcq {
    pub(crate) disjuncts: Vec<CompiledCq>,
    pub(crate) head_arity: usize,
}

impl CompiledUcq {
    /// Compile every disjunct; fails on the first disjunct that does not
    /// fit the schema.
    pub fn compile(q: &UnionQuery, schema: &Schema) -> Result<CompiledUcq, PlanError> {
        let disjuncts = q
            .disjuncts
            .iter()
            .map(|d| CompiledCq::compile(d, schema))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompiledUcq {
            disjuncts,
            head_arity: q.head_arity(),
        })
    }

    /// Compile every disjunct with cost-based ordering; fails on the
    /// first disjunct that does not fit the schema.
    pub fn compile_costed(
        q: &UnionQuery,
        schema: &Schema,
        model: &CostModel,
    ) -> Result<CompiledUcq, PlanError> {
        let disjuncts = q
            .disjuncts
            .iter()
            .map(|d| CompiledCq::compile_costed(d, schema, model))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompiledUcq {
            disjuncts,
            head_arity: q.head_arity(),
        })
    }

    /// Compile leniently, **dropping** disjuncts that do not fit the
    /// schema. This reproduces the reference evaluator's semantics, where
    /// an atom over an unknown relation (or at the wrong arity) silently
    /// matches nothing, so the whole disjunct contributes no answers.
    /// Used by the legacy [`crate::eval`] entry points.
    pub fn compile_lenient(q: &UnionQuery, schema: &Schema) -> CompiledUcq {
        CompiledUcq {
            disjuncts: q
                .disjuncts
                .iter()
                .filter_map(|d| CompiledCq::compile(d, schema).ok())
                .collect(),
            head_arity: q.head_arity(),
        }
    }

    /// The shared head arity (0 for Boolean queries).
    pub fn head_arity(&self) -> usize {
        self.head_arity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use Term::{Const as C, Var as V};

    fn schema() -> Schema {
        Schema::from_relations(&[("R", 2), ("S", 1)])
    }

    #[test]
    fn constants_and_bound_vars_come_first() {
        // R(x, y) ∧ S(x) ∧ R(y, 3): the constant-bearing atom leads, then
        // atoms join on bound variables.
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("S", vec![V(0)]),
            Atom::new("R", vec![V(1), C(3)]),
        ]);
        let order = join_order(&q, None, &[]);
        assert_eq!(order[0], 2, "constant atom should lead: {order:?}");
        // Whatever follows, every later atom shares a variable with the
        // prefix (the query is connected), so no cartesian products.
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn pinned_atom_leads_and_its_key_is_constant_only() {
        // Same query: pinning atom 0 overrides the greedy leader, and the
        // pinned atom's probe key carries no Slot parts (nothing is bound
        // before it), the invariant seeded evaluation relies on.
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("S", vec![V(0)]),
            Atom::new("R", vec![V(1), C(3)]),
        ]);
        assert_eq!(join_order(&q, Some(0), &[])[0], 0);
        let plan = CompiledCq::compile_pinned(&q, &schema(), 0).unwrap();
        assert!(plan.atoms[0]
            .key
            .iter()
            .all(|k| matches!(k, KeyPart::Const(_))));
        // Out-of-range pin falls back to the plain greedy order.
        assert_eq!(join_order(&q, Some(17), &[]), join_order(&q, None, &[]));
    }

    #[test]
    fn bound_variables_take_the_first_slots_and_key_their_atoms() {
        // R(x, y) ∧ S(y) with y bound on entry: S(y) is fully known, so it
        // leads, keyed by slot 0; R follows, keyed on y and binding x.
        let q = ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("S", vec![V(1)]),
        ]);
        let plan = CompiledCq::compile_bound(&q, &schema(), &[1]).unwrap();
        assert_eq!((plan.n_bound, plan.n_slots), (1, 2));
        let (s, r) = (&plan.atoms[0], &plan.atoms[1]);
        assert_eq!((s.sig.as_slice(), r.sig.as_slice()), (&[0][..], &[1][..]));
        for atom in [s, r] {
            assert!(matches!(atom.key.as_slice(), [KeyPart::Slot(0)]));
        }
        assert_eq!(r.binds, vec![(0, 1)]);
        // A repeated bound variable takes one slot.
        let twice = CompiledCq::compile_bound(&q, &schema(), &[1, 0, 1]).unwrap();
        assert_eq!((twice.n_bound, twice.n_slots), (2, 2));
        // A bound variable the body never mentions is unconstrained.
        assert_eq!(
            CompiledCq::compile_bound(&q, &schema(), &[1, 7]).unwrap_err(),
            PlanError::UnboundHeadVar { var: 7 }
        );
    }

    /// A head listing every body variable keeps every slot live, so the
    /// chase's pinned body plans (the least witness of each match) and
    /// `RowProbe`'s bound plans (its certificates) get no projection
    /// point, though a narrower head over the same body does.
    #[test]
    fn full_heads_have_no_projection_point() {
        let atoms = vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("R", vec![V(1), V(2)]),
            Atom::new("R", vec![V(2), V(3)]),
            Atom::new("S", vec![V(3)]),
        ];
        let points = |plan: &CompiledCq| plan.atoms.iter().filter(|a| a.proj.is_some()).count();
        let full = ConjunctiveQuery::with_head(vec![0, 1, 2, 3], atoms.clone());
        for pin in 0..atoms.len() {
            let chase = CompiledCq::compile_pinned(&full, &schema(), pin).unwrap();
            assert_eq!(points(&chase), 0, "pin {pin}");
        }
        let probe = CompiledCq::compile_bound(&full, &schema(), &[3, 0]).unwrap();
        assert_eq!(points(&probe), 0);
        let ends = ConjunctiveQuery::with_head(vec![0, 3], atoms);
        let plan = CompiledCq::compile(&ends, &schema()).unwrap();
        assert!(points(&plan) > 0);
    }

    #[test]
    fn repeated_var_within_atom_becomes_check() {
        let q = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(0)])]);
        let plan = CompiledCq::compile(&q, &schema()).unwrap();
        assert_eq!(plan.atoms[0].binds.len(), 1);
        assert_eq!(plan.atoms[0].checks.len(), 1);
        assert!(plan.atoms[0].sig.is_empty());
    }

    #[test]
    fn unknown_relation_is_a_typed_error() {
        let q = ConjunctiveQuery::boolean(vec![Atom::new("T", vec![V(0)])]);
        assert_eq!(
            CompiledCq::compile(&q, &schema()).unwrap_err(),
            PlanError::UnknownRelation { rel: "T".into() }
        );
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let q = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0)])]);
        assert_eq!(
            CompiledCq::compile(&q, &schema()).unwrap_err(),
            PlanError::ArityMismatch {
                rel: "R".into(),
                declared: 2,
                used: 1
            }
        );
    }

    #[test]
    fn unsafe_head_is_a_typed_error() {
        let q = ConjunctiveQuery {
            head: vec![7],
            atoms: vec![Atom::new("S", vec![V(0)])],
        };
        assert_eq!(
            CompiledCq::compile(&q, &schema()).unwrap_err(),
            PlanError::UnboundHeadVar { var: 7 }
        );
    }

    #[test]
    fn lenient_compilation_drops_broken_disjuncts() {
        let q = UnionQuery::new(vec![
            ConjunctiveQuery::boolean(vec![Atom::new("S", vec![V(0)])]),
            ConjunctiveQuery::boolean(vec![Atom::new("T", vec![V(0)])]),
        ]);
        assert!(CompiledUcq::compile(&q, &schema()).is_err());
        let lenient = CompiledUcq::compile_lenient(&q, &schema());
        assert_eq!(lenient.disjuncts.len(), 1);
    }
}
