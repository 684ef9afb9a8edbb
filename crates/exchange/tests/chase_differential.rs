//! Differential tests: the semi-naive chase engine behind
//! `ca_exchange::chase::chase` against the retained seed-era loop in
//! `ca_exchange::reference` on random relational instances.
//!
//! Rule pools are chosen terminating (full tgds — no existentials — plus
//! a functionality egd), so with a generous budget neither side may
//! abort and both must agree on the *outcome variant*: `Done` results
//! are compared up to hom-equivalence (the engine interns facts and
//! fires per frontier valuation, so node counts may differ), `Failed`
//! must match exactly. A separate pin requires the engine to be
//! byte-identical across thread widths.

use proptest::prelude::*;

use ca_core::value::{Null, Value};
use ca_exchange::chase::{chase_with, ChaseConfig, ChaseOutcome, Egd};
use ca_exchange::mapping::Rule;
use ca_exchange::reference;
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_equiv;
use ca_gdm::schema::GenSchema;
use ca_relational::generate::{random_naive_db, DbParams, Rng};

fn n(id: u32) -> Value {
    Value::null(id)
}

fn schema() -> GenSchema {
    GenSchema::from_parts(&[("R", 2)], &[])
}

fn gen_instance(seed: u64, n_facts: usize) -> GenDb {
    let mut rng = Rng::new(seed);
    let db = random_naive_db(
        &mut rng,
        DbParams {
            n_facts,
            arity: 2,
            n_constants: 3,
            n_nulls: 3,
            null_pct: 40,
        },
    );
    // Re-encode over the shared two-column schema so rule patterns (over
    // `schema()`) resolve by label name.
    let mut out = GenDb::new(schema());
    for fact in db.facts() {
        out.add_node("R", fact.args.clone());
    }
    out
}

/// Transitivity: R(x,y) ∧ R(y,z) → R(x,z). Full tgd — terminating.
fn transitivity() -> Rule {
    let mut body = GenDb::new(schema());
    body.add_node("R", vec![n(1), n(2)]);
    body.add_node("R", vec![n(2), n(3)]);
    let mut head = GenDb::new(schema());
    head.add_node("R", vec![n(1), n(3)]);
    Rule { body, head }
}

/// Symmetry: R(x,y) → R(y,x). Full tgd — terminating.
fn symmetry() -> Rule {
    let mut body = GenDb::new(schema());
    body.add_node("R", vec![n(1), n(2)]);
    let mut head = GenDb::new(schema());
    head.add_node("R", vec![n(2), n(1)]);
    Rule { body, head }
}

/// Functionality: R(x,y) ∧ R(x,z) → y = z.
fn functionality() -> Egd {
    let mut body = GenDb::new(schema());
    body.add_node("R", vec![n(1), n(2)]);
    body.add_node("R", vec![n(1), n(3)]);
    Egd {
        body,
        equal: (Null(2), Null(3)),
    }
}

fn rule_pool(bits: u8) -> (Vec<Rule>, Vec<Egd>) {
    let mut tgds = Vec::new();
    if bits & 1 != 0 {
        tgds.push(transitivity());
    }
    if bits & 2 != 0 {
        tgds.push(symmetry());
    }
    let egds = if bits & 4 != 0 {
        vec![functionality()]
    } else {
        Vec::new()
    };
    (tgds, egds)
}

const BUDGET: usize = 100_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline invariant: on terminating rule pools, engine and
    /// reference agree on the outcome; `Done` results are
    /// hom-equivalent.
    #[test]
    fn chase_agrees_with_reference(seed in 0u64..10_000, facts in 0usize..7, bits in 1u8..8) {
        let d = gen_instance(seed, facts);
        let (tgds, egds) = rule_pool(bits);
        let fast = chase_with(&d, &tgds, &egds, &ChaseConfig::with_threads(BUDGET, 1));
        let slow = reference::chase_with(&d, &tgds, &egds, BUDGET, BUDGET);
        match (fast, slow) {
            (ChaseOutcome::Done(a), ChaseOutcome::Done(b)) => {
                prop_assert!(gdm_equiv(&a, &b), "chased instances diverged on {:?}", &d);
            }
            (ChaseOutcome::Failed, ChaseOutcome::Failed) => {}
            other => prop_assert!(false, "outcomes diverged on {:?}: {:?}", &d, other),
        }
    }

    /// A successful chase result is a fixpoint of the reference loop.
    #[test]
    fn chased_instance_is_a_fixpoint(seed in 0u64..10_000, facts in 0usize..7, bits in 1u8..8) {
        let d = gen_instance(seed, facts);
        let (tgds, egds) = rule_pool(bits);
        if let ChaseOutcome::Done(a) = chase_with(&d, &tgds, &egds, &ChaseConfig::with_threads(BUDGET, 1)) {
            match reference::chase_with(&a, &tgds, &egds, BUDGET, BUDGET) {
                ChaseOutcome::Done(again) => {
                    prop_assert!(gdm_equiv(&a, &again), "reference still derives on {:?}", &d);
                }
                other => prop_assert!(false, "re-chase did not finish on {:?}: {:?}", &d, other),
            }
        }
    }

    /// Thread width is invisible: byte-identical outcomes (including the
    /// exact chased database, node for node) at 1 vs 4 threads.
    #[test]
    fn chase_is_thread_width_independent(seed in 0u64..10_000, facts in 0usize..7, bits in 1u8..8) {
        let d = gen_instance(seed, facts);
        let (tgds, egds) = rule_pool(bits);
        let one = chase_with(&d, &tgds, &egds, &ChaseConfig::with_threads(BUDGET, 1));
        let four = chase_with(&d, &tgds, &egds, &ChaseConfig::with_threads(BUDGET, 4));
        prop_assert_eq!(one, four, "thread width changed the chase on {:?}", &d);
    }

    /// Certificate round-trip: the certified chase reaches the same
    /// outcome as the plain entry point, and its derivation log replays
    /// through the engine-blind checker — engine, reference (via
    /// `chase_agrees_with_reference`), and certificate all agree. Beside
    /// the generous budget, tight match budgets (1..=8) make rounds
    /// overflow mid-chase: a certified run's provenance pass enforces the
    /// budget itself, so it must give up exactly where the plain match
    /// phase does, with the same partial payload, at every width.
    #[test]
    fn certified_chase_agrees_and_replays(seed in 0u64..10_000, facts in 0usize..7, bits in 1u8..8) {
        use ca_cert::ChaseCertOutcome;
        use ca_exchange::chase::chase_certified;

        let d = gen_instance(seed, facts);
        let (tgds, egds) = rule_pool(bits);
        for limit in std::iter::once(BUDGET).chain(1..=8) {
            for threads in [1, 4] {
                let cfg = ChaseConfig {
                    match_limit: limit,
                    ..ChaseConfig::with_threads(BUDGET, threads)
                };
                let plain = chase_with(&d, &tgds, &egds, &cfg);
                let (certified, cert) = chase_certified(&d, &tgds, &egds, &cfg);
                prop_assert_eq!(
                    &plain,
                    &certified,
                    "certify flag changed the outcome at limit {} width {} on {:?}",
                    limit,
                    threads,
                    &d
                );
                let cert = cert.expect("the compiled engine must certify terminating pools");
                prop_assert_eq!(
                    ca_cert::check_chase(&cert),
                    Ok(()),
                    "checker rejected a live derivation log at limit {} width {} on {:?}",
                    limit,
                    threads,
                    &d
                );
                // The certified outcome variant matches the engine's.
                match (&certified, &cert.outcome) {
                    (ChaseOutcome::Done(db), ChaseCertOutcome::Done { final_facts }) => {
                        prop_assert_eq!(db.n_nodes(), final_facts.len());
                    }
                    (ChaseOutcome::Overflow(db), ChaseCertOutcome::Overflow { partial }) => {
                        prop_assert_eq!(db.n_nodes(), partial.len());
                    }
                    (ChaseOutcome::Failed, ChaseCertOutcome::Failed) => {}
                    other => prop_assert!(false, "cert outcome diverged on {:?}: {:?}", &d, other),
                }
            }
        }
    }
}

/// Tight budgets on a hub (three edges into one null, three out of it):
/// transitivity has nine round-one triggers while its head relation has
/// six facts, so at limits 6..=8 the trigger budget — not the head
/// satisfaction check — is what overflows. The certified run, whose
/// provenance pass enforces that budget, must give up at the same limits
/// with the same partial instance, and replay.
#[test]
fn certified_trigger_budget_matches_plain_on_a_hub() {
    use ca_exchange::chase::chase_certified;

    let mut d = GenDb::new(schema());
    for i in 0..3 {
        d.add_node("R", vec![Value::Const(i), n(0)]);
        d.add_node("R", vec![n(0), Value::Const(10 + i)]);
    }
    let tgds = vec![transitivity()];
    for limit in 1..=10 {
        for threads in [1, 4] {
            let cfg = ChaseConfig {
                match_limit: limit,
                ..ChaseConfig::with_threads(BUDGET, threads)
            };
            let plain = chase_with(&d, &tgds, &[], &cfg);
            assert_eq!(
                matches!(plain, ChaseOutcome::Overflow(_)),
                limit < 9,
                "limit {limit}"
            );
            let (certified, cert) = chase_certified(&d, &tgds, &[], &cfg);
            assert_eq!(plain, certified, "limit {limit} width {threads}");
            let cert = cert.expect("the compiled engine certifies");
            assert_eq!(ca_cert::check_chase(&cert), Ok(()), "limit {limit}");
        }
    }
}
