//! The chase with target constraints.
//!
//! The paper's future-work section points at target constraints as the
//! obstacle to canonical solutions: "one can attempt to extract such
//! structural conditions from cases when the chase procedure is known to
//! work (e.g. [19, 17])". This module implements the standard chase over
//! generalized databases:
//!
//! * **tgds** `I → I′` fire when a body match has no head extension,
//!   adding the head with fresh existential nulls;
//! * **egds** `I → n₁ = n₂` fire when a body match sends the two frontier
//!   nulls to different values: two distinct constants make the chase
//!   **fail**, otherwise the null is merged into the other value.
//!
//! The chase may diverge in general; a step budget makes that observable
//! ([`ChaseOutcome::Aborted`]), and weakly-acyclic inputs terminate
//! within it. A successful chase of the canonical pre-solution yields a
//! universal solution *for the constrained target class* — exactly where
//! the paper says lubs survive.
//!
//! Two implementations share this interface:
//!
//! * `engine` — the semi-naive, delta-driven engine: rule bodies
//!   compile once into pinned join plans (`ca_query::engine`), rounds
//!   only evaluate against delta-seeded join orders, fired triggers are
//!   deduped over an interned fact store, and egd equalities go through
//!   a union-find over nulls with incremental rewrite. Handles every
//!   purely relational input (`σ = ∅` instance and patterns — all
//!   data-exchange targets in this crate).
//! * [`crate::reference::chase`] — the seed-era loop, kept verbatim as
//!   the differential oracle; also the fallback for inputs with
//!   structural tuples, which the compiled planner does not cover.
//!
//! Both report a match-budget overrun as the typed
//! [`ChaseOutcome::Overflow`] instead of silently truncating the match
//! set the way the seed's hard-coded `matches_of(…, 10_000)` cap did, so
//! a capped run can never be mistaken for saturation.

pub(crate) mod engine;

use ca_cert::ChaseCert;
use ca_core::value::Null;
use ca_gdm::database::GenDb;

use crate::mapping::Rule;

/// An equality-generating dependency: when `body` matches, the images of
/// the two nulls must be equal.
#[derive(Clone, Debug)]
pub struct Egd {
    /// The body pattern (over the target schema).
    pub body: GenDb,
    /// The two body nulls forced equal.
    pub equal: (Null, Null),
}

/// The result of a chase run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// All constraints satisfied; the chased instance is returned. From
    /// the compiled engine, its nodes are in canonical `(label, data)` order
    /// with no duplicates, independent of the input's node order.
    Done(Box<GenDb>),
    /// An egd tried to equate two distinct constants: no solution exists.
    Failed,
    /// The step budget ran out (possibly non-terminating chase).
    Aborted,
    /// A rule exceeded the per-round match budget
    /// ([`ChaseConfig::match_limit`]): the trigger set is too large to
    /// enumerate, so no sound fixpoint claim can be made. Carries the
    /// facts derived before giving up — partial progress is reported, not
    /// silently dropped (the instance is *not* a fixpoint). From the
    /// compiled engine, in the same canonical node order as `Done`.
    Overflow(Box<GenDb>),
}

/// The default per-rule-per-round match budget (matches the mapping
/// layer's body-match cap).
pub const DEFAULT_MATCH_LIMIT: usize = 100_000;

/// Knobs for a chase run.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// The step budget: each tgd firing and each egd merge consumes one
    /// step; running out yields [`ChaseOutcome::Aborted`].
    pub max_steps: usize,
    /// Per-rule-per-round match budget: a rule whose round trigger set
    /// exceeds this yields [`ChaseOutcome::Overflow`].
    pub match_limit: usize,
    /// Record a replayable derivation log ([`ca_cert::ChaseCert`]) while
    /// chasing. Off by default. The match phase is shared by both modes:
    /// every run evaluates each rule and egd body once per round through
    /// the same full-assignment plans and keeps the least body assignment
    /// found for each trigger. This flag only turns the recorder on — the
    /// constraint set, the initial facts, one step per firing or merge
    /// (with that assignment as its witness) and the claimed facts — so
    /// the outcome never depends on it.
    pub certify: bool,
}

impl ChaseConfig {
    /// Defaults: the given step budget, [`DEFAULT_MATCH_LIMIT`], and no
    /// certification.
    pub fn new(max_steps: usize) -> Self {
        ChaseConfig {
            max_steps,
            match_limit: DEFAULT_MATCH_LIMIT,
            certify: false,
        }
    }
}

/// Run the standard chase: apply violated tgds (adding head facts with
/// fresh existentials) and egds (merging values) until a fixpoint, a
/// failure, or the step budget runs out. Default configuration; see
/// [`chase_with`].
pub fn chase(instance: &GenDb, tgds: &[Rule], egds: &[Egd], max_steps: usize) -> ChaseOutcome {
    chase_with(instance, tgds, egds, &ChaseConfig::new(max_steps))
}

/// [`chase`] with explicit configuration. Purely relational inputs (no
/// structural tuples in the instance or any rule pattern, every pattern
/// label resolving in the instance schema) run on the semi-naive
/// `engine`; anything else falls back to the reference chase, which
/// handles the full generalized-database semantics.
pub fn chase_with(
    instance: &GenDb,
    tgds: &[Rule],
    egds: &[Egd],
    cfg: &ChaseConfig,
) -> ChaseOutcome {
    match engine::try_chase(instance, tgds, egds, cfg) {
        Some((outcome, _)) => outcome,
        None => crate::reference::chase_with(instance, tgds, egds, cfg.max_steps, cfg.match_limit),
    }
}

/// [`chase_with`] with certification forced on: returns the outcome plus
/// a replayable derivation log ([`ca_cert::check_chase`] verifies it with
/// no search). The certificate is `None` only on the reference fallback
/// (structural tuples / non-compiling patterns), which predates the
/// derivation log.
pub fn chase_certified(
    instance: &GenDb,
    tgds: &[Rule],
    egds: &[Egd],
    cfg: &ChaseConfig,
) -> (ChaseOutcome, Option<ChaseCert>) {
    let cfg = ChaseConfig {
        certify: true,
        ..cfg.clone()
    };
    match engine::try_chase(instance, tgds, egds, &cfg) {
        Some(x) => x,
        None => (
            crate::reference::chase_with(instance, tgds, egds, cfg.max_steps, cfg.match_limit),
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::value::Value;
    use ca_gdm::hom::gdm_equiv;
    use ca_gdm::schema::GenSchema;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    fn schema() -> GenSchema {
        GenSchema::from_parts(&[("T", 2)], &[])
    }

    fn tdb(rows: &[[Value; 2]]) -> GenDb {
        let mut d = GenDb::new(schema());
        for r in rows {
            d.add_node("T", r.to_vec());
        }
        d
    }

    fn transitivity() -> Rule {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        body.add_node("T", vec![n(2), n(3)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(1), n(3)]);
        Rule { body, head }
    }

    fn functionality() -> Egd {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        body.add_node("T", vec![n(1), n(3)]);
        Egd {
            body,
            equal: (Null(2), Null(3)),
        }
    }

    /// Transitivity tgd: T(x,y) ∧ T(y,z) → T(x,z). Weakly acyclic (no
    /// existentials): the chase computes the transitive closure.
    #[test]
    fn chase_computes_transitive_closure() {
        let start = tdb(&[[c(1), c(2)], [c(2), c(3)], [c(3), c(4)]]);
        match chase(&start, &[transitivity()], &[], 100) {
            ChaseOutcome::Done(result) => {
                // Closure adds (1,3), (2,4), (1,4).
                assert_eq!(result.n_nodes(), 6);
            }
            other => panic!("chase should finish: {other:?}"),
        }
    }

    /// An egd merging nulls: T(x,y) ∧ T(x,z) → y = z (functionality).
    #[test]
    fn egd_merges_nulls() {
        // T(1, ⊥9), T(1, 5): the null must become 5.
        let start = tdb(&[[c(1), n(9)], [c(1), c(5)]]);
        match chase(&start, &[], &[functionality()], 50) {
            ChaseOutcome::Done(result) => {
                assert!(result.is_complete());
                // All values are 5-grounded.
                assert!(result.data.iter().all(|t| t == &vec![c(1), c(5)]));
            }
            other => panic!("chase should finish: {other:?}"),
        }
    }

    /// An egd clash on constants fails the chase.
    #[test]
    fn egd_constant_clash_fails() {
        let start = tdb(&[[c(1), c(5)], [c(1), c(6)]]);
        assert_eq!(
            chase(&start, &[], &[functionality()], 50),
            ChaseOutcome::Failed
        );
        // Also with a tgd in the mix: the clash still surfaces.
        let start = tdb(&[[c(1), c(2)], [c(2), c(3)], [c(1), c(9)]]);
        assert_eq!(
            chase(&start, &[transitivity()], &[functionality()], 50),
            ChaseOutcome::Failed
        );
    }

    /// A non-terminating chase is aborted: T(x,y) → ∃z T(y,z) on a cycle-
    /// free start grows forever.
    #[test]
    fn divergent_chase_is_aborted() {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(2), n(3)]); // fresh z each firing
        let tgd = Rule { body, head };
        let start = tdb(&[[c(1), c(2)]]);
        assert_eq!(chase(&start, &[tgd], &[], 30), ChaseOutcome::Aborted);
    }

    /// Satisfied constraints fire nothing.
    #[test]
    fn fixpoint_is_immediate_when_satisfied() {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(2), n(1)]);
        let symmetry = Rule { body, head };
        let start = tdb(&[[c(1), c(2)], [c(2), c(1)]]);
        match chase(&start, &[symmetry], &[], 10) {
            ChaseOutcome::Done(result) => assert_eq!(result.n_nodes(), 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    // ----- satellite: edge cases -----

    /// Empty instance and/or empty rule set: an immediate fixpoint.
    #[test]
    fn empty_instance_and_empty_rules_are_immediate_fixpoints() {
        let empty = GenDb::new(schema());
        match chase(&empty, &[], &[], 10) {
            ChaseOutcome::Done(result) => assert_eq!(result.n_nodes(), 0),
            other => panic!("unexpected: {other:?}"),
        }
        match chase(&empty, &[transitivity()], &[functionality()], 10) {
            ChaseOutcome::Done(result) => assert_eq!(result.n_nodes(), 0),
            other => panic!("unexpected: {other:?}"),
        }
        let start = tdb(&[[c(1), c(2)]]);
        match chase(&start, &[], &[], 10) {
            ChaseOutcome::Done(result) => assert!(gdm_equiv(&result, &start)),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// A zero step budget aborts before any work, mirroring the seed
    /// loop (`for _ in 0..max_steps`), even on an already-satisfied
    /// instance.
    #[test]
    fn zero_budget_aborts() {
        let start = tdb(&[[c(1), c(2)]]);
        assert_eq!(chase(&start, &[], &[], 0), ChaseOutcome::Aborted);
    }

    /// satellite: the match budget surfaces as the typed `Overflow`
    /// outcome — in the engine and in the reference wrapper — instead of
    /// the seed's silent truncation, and it carries the partial progress
    /// (at least the seed facts) instead of dropping it.
    #[test]
    fn match_budget_overrun_is_typed_overflow() {
        let start = tdb(&[[c(1), c(2)], [c(2), c(3)], [c(3), c(4)]]);
        let cfg = ChaseConfig {
            match_limit: 1,
            ..ChaseConfig::new(100)
        };
        // The transitivity body has 2 matches in round one: over budget.
        let engine_partial = match chase_with(&start, &[transitivity()], &[], &cfg) {
            ChaseOutcome::Overflow(partial) => partial,
            other => panic!("expected overflow, got {other:?}"),
        };
        let reference_partial =
            match crate::reference::chase_with(&start, &[transitivity()], &[], 100, 1) {
                ChaseOutcome::Overflow(partial) => partial,
                other => panic!("expected overflow, got {other:?}"),
            };
        // Both partial instances contain every starting fact.
        for partial in [&engine_partial, &reference_partial] {
            for row in &start.data {
                assert!(
                    partial.data.contains(row),
                    "partial progress lost seed fact {row:?}"
                );
            }
        }
    }

    /// An overflow after real progress keeps the derived facts: the first
    /// round of transitivity fires within budget, the second overflows.
    #[test]
    fn overflow_partial_progress_keeps_derived_facts() {
        // Chain of 5: round one derives 3 new edges (closure needs 6 new
        // edges), round two's trigger set exceeds the budget of 4.
        let start = tdb(&[[c(1), c(2)], [c(2), c(3)], [c(3), c(4)], [c(4), c(5)]]);
        let cfg = ChaseConfig {
            match_limit: 4,
            ..ChaseConfig::new(100)
        };
        match chase_with(&start, &[transitivity()], &[], &cfg) {
            ChaseOutcome::Overflow(partial) => {
                assert!(
                    partial.n_nodes() > start.n_nodes(),
                    "first-round derivations must survive the overflow"
                );
                assert!(partial.data.contains(&vec![c(1), c(3)]));
            }
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    /// The match budget counts *distinct* keys, and duplicates collapse
    /// before the cap however many arrive: 4000 body matches of
    /// `T(x,y) → ∃z U(x,z)` project onto the 2 triggers `x ∈ {1, 2}`, and
    /// 4000 head matches onto the 2 satisfied keys `x ∈ {1, 3}`. Limit 2
    /// finishes (firing the one unsatisfied trigger), limit 1 overflows.
    #[test]
    fn duplicate_matches_collapse_before_the_budget() {
        let schema = GenSchema::from_parts(&[("T", 2), ("U", 2)], &[]);
        let mut start = GenDb::new(schema.clone());
        for i in 0..2000 {
            start.add_node("T", vec![c(1), c(i)]);
            start.add_node("T", vec![c(2), c(i)]);
            start.add_node("U", vec![c(1), c(i)]);
            start.add_node("U", vec![c(3), c(i)]);
        }
        let mut body = GenDb::new(schema.clone());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema);
        head.add_node("U", vec![n(1), n(3)]);
        let tgds = [Rule { body, head }];
        let cfg = |match_limit| ChaseConfig {
            match_limit,
            ..ChaseConfig::new(100)
        };
        let (outcome, cert) = chase_certified(&start, &tgds, &[], &cfg(2));
        match &outcome {
            ChaseOutcome::Done(d) => assert_eq!(d.n_nodes(), start.n_nodes() + 1),
            other => panic!("expected Done, got {other:?}"),
        }
        let cert = cert.expect("engine path certifies");
        assert_eq!(cert.steps.len(), 1);
        assert_eq!(ca_cert::check_chase(&cert), Ok(()));
        assert!(matches!(
            chase_with(&start, &tgds, &[], &cfg(1)),
            ChaseOutcome::Overflow(_)
        ));
    }

    /// The egd pair set collapses duplicates the same way: functionality
    /// on `T(i,5), T(i,⊥9)` for 1000 keys `i` has 4000 matches but only
    /// the 4 distinct `(y, z)` pairs over `{5, ⊥9}`. Limit 4 merges ⊥9
    /// into 5, limit 3 overflows.
    #[test]
    fn duplicate_egd_matches_collapse_before_the_budget() {
        let mut start = GenDb::new(schema());
        for i in 0..1000 {
            start.add_node("T", vec![c(i), c(5)]);
            start.add_node("T", vec![c(i), n(9)]);
        }
        let cfg = |match_limit| ChaseConfig {
            match_limit,
            ..ChaseConfig::new(100)
        };
        let (outcome, cert) = chase_certified(&start, &[], &[functionality()], &cfg(4));
        match &outcome {
            ChaseOutcome::Done(d) => {
                assert_eq!(d.n_nodes(), 1000);
                assert!(d.is_complete());
            }
            other => panic!("expected Done, got {other:?}"),
        }
        let cert = cert.expect("engine path certifies");
        assert_eq!(ca_cert::check_chase(&cert), Ok(()));
        assert!(matches!(
            chase_with(&start, &[], &[functionality()], &cfg(3)),
            ChaseOutcome::Overflow(_)
        ));
    }

    /// An empty-body rule `∅ → ∃z T(z,1)` has one trigger, the empty
    /// valuation (stride 0): it fires exactly once when no `T(_,1)` fact
    /// exists and never when one does, and both runs replay.
    #[test]
    fn empty_body_rule_fires_at_most_once() {
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(1), c(1)]);
        let tgds = [Rule {
            body: GenDb::new(schema()),
            head,
        }];
        let cfg = ChaseConfig::new(100);
        for (start, fires) in [(tdb(&[[c(1), c(2)]]), 1), (tdb(&[[c(5), c(1)]]), 0)] {
            let (outcome, cert) = chase_certified(&start, &tgds, &[], &cfg);
            match &outcome {
                ChaseOutcome::Done(d) => assert_eq!(d.n_nodes(), start.n_nodes() + fires),
                other => panic!("expected Done, got {other:?}"),
            }
            let cert = cert.expect("engine path certifies");
            assert_eq!(cert.steps.len(), fires);
            assert_eq!(ca_cert::check_chase(&cert), Ok(()));
        }
    }

    /// Fresh nulls are drawn in the existentials' first-occurrence order
    /// over the head, and the ledger lists them by rule-local id: for the
    /// head `U(x,⊥5), U(⊥5,⊥3)`, ⊥5 takes the earlier-drawn null and the
    /// ledger of existentials `[3, 5]` reads `[later, earlier]`.
    #[test]
    fn fresh_nulls_follow_head_order_and_ledger_follows_ids() {
        use ca_cert::ChaseStep;

        let schema = GenSchema::from_parts(&[("T", 2), ("U", 2)], &[]);
        let mut start = GenDb::new(schema.clone());
        start.add_node("T", vec![c(1), c(2)]);
        let mut body = GenDb::new(schema.clone());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema);
        head.add_node("U", vec![n(1), n(5)]);
        head.add_node("U", vec![n(5), n(3)]);
        let tgds = [Rule { body, head }];
        let (outcome, cert) = chase_certified(&start, &tgds, &[], &ChaseConfig::new(100));
        let cert = cert.expect("engine path certifies");
        assert_eq!(ca_cert::check_chase(&cert), Ok(()));
        let [ChaseStep::Fire { fresh, .. }] = cert.steps.as_slice() else {
            panic!("expected one firing: {:?}", cert.steps);
        };
        assert_eq!(cert.rules[0].existentials(), [3, 5]);
        let &[later, earlier] = &cert.ledger[fresh.start as usize..fresh.end as usize] else {
            panic!("one fresh null per existential: {fresh:?}");
        };
        assert!(earlier < later, "{:?}", cert.ledger);
        let ChaseOutcome::Done(d) = outcome else {
            panic!("expected Done, got {outcome:?}");
        };
        for row in [
            vec![c(1), Value::Null(earlier)],
            vec![Value::Null(earlier), Value::Null(later)],
        ] {
            assert!(d.data.contains(&row), "{row:?} missing from {d:?}");
        }
    }

    /// Certified runs replay through the engine-blind checker for every
    /// outcome kind, and certification does not change the outcome.
    #[test]
    fn certified_chase_roundtrips_through_checker() {
        let cfg = ChaseConfig::new(1000);
        // Done: mixed tgd+egd chase with merges and firings. Symmetry
        // keeps functionality satisfiable: ⊥7 merges into 2, then the
        // reversed edge closes the instance.
        let start = tdb(&[[c(1), c(2)], [c(1), n(7)]]);
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(2), n(1)]);
        let symmetry = Rule { body, head };
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(2), n(3)]);
        let grow = Rule { body, head }; // T(x,y) → ∃z T(y,z): draws fresh nulls
        let bounded = ChaseConfig::new(6);
        let (outcome, cert) = chase_certified(
            &start,
            std::slice::from_ref(&symmetry),
            &[functionality()],
            &cfg,
        );
        let cert = cert.expect("engine path certifies");
        assert_eq!(ca_cert::check_chase(&cert), Ok(()));
        match (&outcome, &cert.outcome) {
            (ChaseOutcome::Done(d), ca_cert::ChaseCertOutcome::Done { final_facts }) => {
                assert_eq!(final_facts.len(), d.n_nodes());
            }
            other => panic!("expected certified Done, got {other:?}"),
        }
        assert_eq!(
            outcome,
            chase_with(&start, &[symmetry], &[functionality()], &cfg),
            "certification must not change the outcome"
        );
        // Failed: constant clash, recorded as a final clash merge.
        let clash = tdb(&[[c(1), c(5)], [c(1), c(6)]]);
        let (outcome, cert) = chase_certified(&clash, &[], &[functionality()], &cfg);
        assert_eq!(outcome, ChaseOutcome::Failed);
        let cert = cert.expect("engine path certifies");
        assert_eq!(cert.outcome, ca_cert::ChaseCertOutcome::Failed);
        assert_eq!(ca_cert::check_chase(&cert), Ok(()));
        // Aborted: divergent chase, partial progress certified.
        let (outcome, cert) = chase_certified(&tdb(&[[c(1), c(2)]]), &[grow], &[], &bounded);
        assert_eq!(outcome, ChaseOutcome::Aborted);
        let cert = cert.expect("engine path certifies");
        assert!(matches!(
            &cert.outcome,
            ca_cert::ChaseCertOutcome::Aborted { partial } if partial.len() > 1
        ));
        assert_eq!(ca_cert::check_chase(&cert), Ok(()));
        // Overflow: match budget overrun, partial progress certified and
        // equal to the outcome's payload.
        let chain = tdb(&[[c(1), c(2)], [c(2), c(3)], [c(3), c(4)]]);
        let tight = ChaseConfig {
            match_limit: 1,
            ..ChaseConfig::new(100)
        };
        let (outcome, cert) = chase_certified(&chain, &[transitivity()], &[], &tight);
        let partial = match outcome {
            ChaseOutcome::Overflow(p) => p,
            other => panic!("expected overflow, got {other:?}"),
        };
        let cert = cert.expect("engine path certifies");
        match &cert.outcome {
            ca_cert::ChaseCertOutcome::Overflow { partial: facts } => {
                assert_eq!(facts.len(), partial.n_nodes());
            }
            other => panic!("expected certified overflow, got {other:?}"),
        }
        assert_eq!(ca_cert::check_chase(&cert), Ok(()));
    }

    /// In-module differential sanity: engine and reference agree (up to
    /// hom-equivalence) on a mixed tgd+egd chase.
    #[test]
    fn engine_agrees_with_reference_on_mixed_chase() {
        // Symmetry keeps functionality satisfiable: ⊥7 merges into 2,
        // then the reversed edge T(2,1) closes the instance.
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(2), n(1)]);
        let symmetry = Rule { body, head };
        let start = tdb(&[[c(1), c(2)], [c(1), n(7)]]);
        let cfg = ChaseConfig::new(1000);
        let fast = chase_with(
            &start,
            std::slice::from_ref(&symmetry),
            &[functionality()],
            &cfg,
        );
        let slow =
            crate::reference::chase_with(&start, &[symmetry], &[functionality()], 1000, 100_000);
        match (fast, slow) {
            (ChaseOutcome::Done(a), ChaseOutcome::Done(b)) => {
                assert!(a.is_complete());
                assert!(gdm_equiv(&a, &b));
            }
            other => panic!("both should finish: {other:?}"),
        }
        // Transitive closure of a chain clashes with functionality (the
        // closure makes 1 point at both 2 and 3): both sides must agree
        // on the failure, too.
        let chain = tdb(&[[c(1), c(2)], [c(2), c(3)]]);
        assert_eq!(
            chase_with(&chain, &[transitivity()], &[functionality()], &cfg),
            ChaseOutcome::Failed
        );
        assert_eq!(
            crate::reference::chase_with(
                &chain,
                &[transitivity()],
                &[functionality()],
                1000,
                100_000
            ),
            ChaseOutcome::Failed
        );
    }
}
