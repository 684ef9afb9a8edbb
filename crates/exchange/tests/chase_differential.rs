//! Differential tests: the semi-naive chase engine behind
//! `ca_exchange::chase::chase` against the retained seed-era loop in
//! `ca_exchange::reference` on random relational instances.
//!
//! Rule pools are chosen terminating (full tgds, a functionality egd, and
//! existential tgds whose head relation no body reads), so with a
//! generous budget neither side may abort and both must agree on the
//! *outcome variant*: `Done` results
//! are compared up to hom-equivalence (the engine interns facts and
//! fires per frontier valuation, so node counts may differ), `Failed`
//! must match exactly. One malformed constraint added to a pool makes
//! the engine refuse it, by index, where the reference would panic.

use std::collections::BTreeSet;

use proptest::prelude::*;

use ca_core::value::{Null, Value};
use ca_exchange::chase::{
    chase_with, ChaseConfig, ChaseInput, ChaseOutcome, ChaseRefusal, Egd, RefusalReason,
};
use ca_exchange::mapping::Rule;
use ca_exchange::reference;
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_equiv;
use ca_gdm::schema::GenSchema;
use ca_query::engine::PlanError;
use ca_relational::generate::{random_naive_db, DbParams, Rng};

fn n(id: u32) -> Value {
    Value::null(id)
}

fn schema() -> GenSchema {
    GenSchema::from_parts(&[("R", 2), ("S", 2)], &[])
}

fn gen_instance(seed: u64, n_facts: usize) -> GenDb {
    gen_instance_over(seed, n_facts, 3, 3)
}

/// `n_facts` random `R` facts over `n_constants` constants and
/// `n_nulls` nulls, 40% of the positions null.
fn gen_instance_over(seed: u64, n_facts: usize, n_constants: i64, n_nulls: u32) -> GenDb {
    let mut rng = Rng::new(seed);
    let db = random_naive_db(
        &mut rng,
        DbParams {
            n_facts,
            arity: 2,
            n_constants,
            n_nulls,
            null_pct: 40,
        },
    );
    // Re-encode over the shared two-column schema so rule patterns (over
    // `schema()`) resolve by label name.
    let mut out = GenDb::new(schema());
    for fact in db.facts() {
        out.add_node("R", fact.args.to_vec());
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

/// Three-step paths get a two-step detour: R(x,y) ∧ R(y,z) ∧ R(z,u) →
/// ∃w S(x,w) ∧ S(w,u). Terminating, since no body reads S. The body's
/// three atoms leave each pinned plan a choice of join order, and the
/// head's two atoms make satisfaction a join.
fn detour() -> Rule {
    let mut body = GenDb::new(schema());
    body.add_node("R", vec![n(1), n(2)]);
    body.add_node("R", vec![n(2), n(3)]);
    body.add_node("R", vec![n(3), n(4)]);
    let mut head = GenDb::new(schema());
    head.add_node("S", vec![n(1), n(5)]);
    head.add_node("S", vec![n(5), n(4)]);
    Rule { body, head }
}

/// Mutual edges get a shared loop: R(x,y) ∧ R(y,x) → ∃w S(w,w).
/// Terminating, since no body reads S. Its frontier is empty, so its
/// trigger, fired and satisfied keys are all the empty row.
fn mutual_loop() -> Rule {
    let mut body = GenDb::new(schema());
    body.add_node("R", vec![n(1), n(2)]);
    body.add_node("R", vec![n(2), n(1)]);
    let mut head = GenDb::new(schema());
    head.add_node("S", vec![n(3), n(3)]);
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
    if bits & 8 != 0 {
        tgds.push(detour());
    }
    if bits & 16 != 0 {
        tgds.push(mutual_loop());
    }
    let egds = if bits & 4 != 0 {
        vec![functionality()]
    } else {
        Vec::new()
    };
    (tgds, egds)
}

const BUDGET: usize = 100_000;

/// Put malformed constraint number `kind % 6` into the pool, at index
/// `at` modulo one past its list's length: a head or body atom at the
/// wrong arity, a body atom over a relation the instance lacks, a tgd
/// with a structural tuple, an egd equating a null its body does not
/// bind, or an egd with an empty body. Returns the input it now is and
/// the reason the chase must refuse it for.
fn insert_malformed(
    kind: u8,
    at: usize,
    tgds: &mut Vec<Rule>,
    egds: &mut Vec<Egd>,
) -> (ChaseInput, RefusalReason) {
    let wide = GenSchema::from_parts(&[("R", 3), ("U", 2)], &[]);
    let structural = GenSchema::from_parts(&[("R", 2)], &[("E", 2)]);
    let pattern = |schema: &GenSchema, nodes: &[(&str, &[u32])]| {
        let mut d = GenDb::new(schema.clone());
        for &(rel, vars) in nodes {
            d.add_node(rel, vars.iter().map(|&v| n(v)).collect());
        }
        d
    };
    let arity = |used| {
        RefusalReason::Plan(PlanError::ArityMismatch {
            rel: "R".into(),
            declared: 2,
            used,
        })
    };
    let mut tgd = |rule: Rule, reason| {
        let i = at % (tgds.len() + 1);
        tgds.insert(i, rule);
        (ChaseInput::Tgd(i), reason)
    };
    let mut egd = |egd: Egd, unbound| {
        let i = at % (egds.len() + 1);
        egds.insert(i, egd);
        (ChaseInput::Egd(i), RefusalReason::UnboundNull(unbound))
    };
    match kind % 6 {
        0 => tgd(
            Rule {
                body: pattern(&schema(), &[("R", &[1, 2])]),
                head: pattern(&wide, &[("R", &[2, 1, 1])]),
            },
            arity(3),
        ),
        1 => tgd(
            Rule {
                body: pattern(&wide, &[("R", &[1, 2, 3])]),
                head: pattern(&schema(), &[("R", &[1, 3])]),
            },
            arity(3),
        ),
        2 => tgd(
            Rule {
                body: pattern(&wide, &[("U", &[1, 2])]),
                head: pattern(&schema(), &[("R", &[1, 2])]),
            },
            RefusalReason::Plan(PlanError::UnknownRelation { rel: "U".into() }),
        ),
        3 => {
            let mut body = pattern(&structural, &[("R", &[1, 2]), ("R", &[2, 3])]);
            body.add_tuple("E", vec![0, 1]);
            let head = pattern(&structural, &[("R", &[1, 3])]);
            tgd(Rule { body, head }, RefusalReason::Structural)
        }
        4 => {
            let equal = (Null(2), Null(9));
            egd(
                Egd {
                    equal,
                    ..functionality()
                },
                Null(9),
            )
        }
        _ => {
            let (body, equal) = (GenDb::new(schema()), (Null(1), Null(2)));
            egd(Egd { body, equal }, Null(1))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline invariant: on terminating rule pools, engine and
    /// reference agree on the outcome; `Done` results are
    /// hom-equivalent.
    #[test]
    fn chase_agrees_with_reference(seed in 0u64..10_000, facts in 0usize..7, bits in 1u8..32) {
        let d = gen_instance(seed, facts);
        let (tgds, egds) = rule_pool(bits);
        let fast = chase_with(&d, &tgds, &egds, &ChaseConfig::new(BUDGET));
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
    fn chased_instance_is_a_fixpoint(seed in 0u64..10_000, facts in 0usize..7, bits in 1u8..32) {
        let d = gen_instance(seed, facts);
        let (tgds, egds) = rule_pool(bits);
        if let ChaseOutcome::Done(a) = chase_with(&d, &tgds, &egds, &ChaseConfig::new(BUDGET)) {
            match reference::chase_with(&a, &tgds, &egds, BUDGET, BUDGET) {
                ChaseOutcome::Done(again) => {
                    prop_assert!(gdm_equiv(&a, &again), "reference still derives on {:?}", &d);
                }
                other => prop_assert!(false, "re-chase did not finish on {:?}: {:?}", &d, other),
            }
        }
    }

    /// Certificate round-trip: the certified chase reaches the same
    /// outcome as the plain entry point, and its derivation log replays
    /// through the engine-blind checker — engine, reference (via
    /// `chase_agrees_with_reference`), and certificate all agree. Beside
    /// the generous budget, tight match budgets (1..=8) make rounds
    /// overflow mid-chase: a certified run's provenance pass enforces the
    /// budget itself, so it must give up exactly where the plain match
    /// phase does, with the same partial payload. A `Done` or `Overflow`
    /// payload is exactly the certificate's claimed fact set, with its
    /// nodes strictly increasing in `(label, data)` order.
    #[test]
    fn certified_chase_agrees_and_replays(seed in 0u64..10_000, facts in 0usize..7, bits in 1u8..32) {
        use ca_cert::ChaseCertOutcome;
        use ca_exchange::chase::chase_certified;

        let d = gen_instance(seed, facts);
        let (tgds, egds) = rule_pool(bits);
        for limit in std::iter::once(BUDGET).chain(1..=8) {
            let cfg = ChaseConfig {
                match_limit: limit,
                ..ChaseConfig::new(BUDGET)
            };
            let plain = chase_with(&d, &tgds, &egds, &cfg);
            let (certified, cert) = chase_certified(&d, &tgds, &egds, &cfg);
            prop_assert_eq!(
                &plain,
                &certified,
                "certify flag changed the outcome at limit {} on {:?}",
                limit,
                &d
            );
            let cert = cert.expect("the compiled engine must certify terminating pools");
            prop_assert_eq!(
                ca_cert::check_chase(&cert),
                Ok(()),
                "checker rejected a live derivation log at limit {} on {:?}",
                limit,
                &d
            );
            // The certified outcome variant matches the engine's, and a
            // carried instance is the claimed fact set in canonical order.
            let (db, claimed) = match (&certified, &cert.outcome) {
                (ChaseOutcome::Done(db), ChaseCertOutcome::Done { final_facts: facts })
                | (ChaseOutcome::Overflow(db), ChaseCertOutcome::Overflow { partial: facts }) => {
                    (db, facts)
                }
                (ChaseOutcome::Failed, ChaseCertOutcome::Failed) => continue,
                other => panic!("cert outcome diverged on {:?}: {:?}", &d, other),
            };
            prop_assert!(db.nodes().is_sorted_by(|a, b| a < b), "limit {}: {:?}", limit, db);
            let mut payload: Vec<_> =
                db.nodes().map(|(l, row)| (db.schema.label_name(l), row)).collect();
            payload.sort();
            let claimed: Vec<_> = claimed.iter().collect();
            prop_assert_eq!(&payload, &claimed, "payload is not the claimed facts at limit {}", limit);
        }
    }

    /// One malformed constraint, put into a terminating pool at any
    /// index, makes the chase refuse that constraint by its index and
    /// reason, certified or not, without a certificate and without
    /// panicking.
    #[test]
    fn a_malformed_constraint_is_refused_by_index(seed in 0u64..10_000, facts in 0usize..7, bits in 1u8..32, kind in 0u8..6, at in 0usize..8) {
        use ca_exchange::chase::chase_certified;

        let d = gen_instance(seed, facts);
        let (mut tgds, mut egds) = rule_pool(bits);
        let (input, reason) = insert_malformed(kind, at, &mut tgds, &mut egds);
        let want = ChaseOutcome::Refused(ChaseRefusal { input, reason });
        let cfg = ChaseConfig::new(BUDGET);
        prop_assert_eq!(&chase_with(&d, &tgds, &egds, &cfg), &want, "on {:?}", &d);
        let (certified, cert) = chase_certified(&d, &tgds, &egds, &cfg);
        prop_assert_eq!(&certified, &want, "on {:?}", &d);
        prop_assert!(cert.is_none(), "a refused chase carries a certificate on {:?}", &d);
    }

    /// Instances of 16 to 40 facts give the body atoms after a pinned
    /// atom posting tables to probe (smaller relations are scanned), so
    /// the semi-naive skip of delta rows is exercised on indexed atoms as
    /// well as on scans. Under transitivity, symmetry or both, the chase
    /// is `Done` with exactly the naive closure, without duplicate nodes,
    /// and its certificate replays.
    #[test]
    fn full_rules_reach_the_closure_at_indexed_sizes(seed in 0u64..10_000, facts in 16usize..41, bits in 1u8..4) {
        use ca_exchange::chase::chase_certified;

        let d = gen_instance_over(seed, facts, 8, 4);
        let (tgds, _) = rule_pool(bits);
        let cfg = ChaseConfig {
            certify: true,
            ..ChaseConfig::new(BUDGET)
        };
        let (outcome, cert) = chase_certified(&d, &tgds, &[], &cfg);
        let chased = match outcome {
            ChaseOutcome::Done(chased) => chased,
            other => {
                prop_assert!(false, "not Done on {:?}: {:?}", &d, other);
                unreachable!()
            }
        };
        let got: BTreeSet<(Value, Value)> = chased.nodes().map(|(_, row)| (row[0], row[1])).collect();
        prop_assert_eq!(got.len(), chased.n_nodes(), "duplicate nodes on {:?}", &d);
        prop_assert_eq!(got, closure_oracle(&d, bits), "closure diverged on {:?}", &d);
        let cert = cert.expect("the compiled engine certifies full rules");
        prop_assert_eq!(ca_cert::check_chase(&cert), Ok(()), "checker rejected the log on {:?}", &d);
    }
}

/// The closure of `R`'s rows under the full rules of `bits` (transitivity
/// for bit 1, symmetry for bit 2), computed naively over values: add
/// every derived row until none is new.
fn closure_oracle(d: &GenDb, bits: u8) -> BTreeSet<(Value, Value)> {
    let mut rows: BTreeSet<(Value, Value)> = d.nodes().map(|(_, row)| (row[0], row[1])).collect();
    loop {
        let mut derived = Vec::new();
        for &(a, b) in &rows {
            if bits & 2 != 0 {
                derived.push((b, a));
            }
            if bits & 1 != 0 {
                derived.extend(
                    rows.range((b, Value::Const(i64::MIN))..)
                        .take_while(|r| r.0 == b)
                        .map(|&(_, c)| (a, c)),
                );
            }
        }
        let before = rows.len();
        rows.extend(derived);
        if rows.len() == before {
            return rows;
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
        let cfg = ChaseConfig {
            match_limit: limit,
            ..ChaseConfig::new(BUDGET)
        };
        let plain = chase_with(&d, &tgds, &[], &cfg);
        assert_eq!(
            matches!(plain, ChaseOutcome::Overflow(_)),
            limit < 9,
            "limit {limit}"
        );
        let (certified, cert) = chase_certified(&d, &tgds, &[], &cfg);
        assert_eq!(plain, certified, "limit {limit}");
        let cert = cert.expect("the compiled engine certifies");
        assert_eq!(ca_cert::check_chase(&cert), Ok(()), "limit {limit}");
    }
}

/// One unsatisfied trigger fits a match budget of 1 whatever the head
/// relation holds: under `S(x) → ∃z T(x,z)`, the trigger `S(1)` fires
/// although `T` already holds two rows of another key, `T(2,7)` and
/// `T(2,8)`. The plain and certified runs agree, and the certificate
/// replays.
#[test]
fn one_unsatisfied_trigger_fits_a_budget_of_one() {
    use ca_exchange::chase::chase_certified;

    let schema = GenSchema::from_parts(&[("S", 1), ("T", 2)], &[]);
    let c = Value::Const;
    let mut d = GenDb::new(schema.clone());
    d.add_node("S", vec![c(1)]);
    d.add_node("T", vec![c(2), c(7)]);
    d.add_node("T", vec![c(2), c(8)]);
    let mut body = GenDb::new(schema.clone());
    body.add_node("S", vec![n(1)]);
    let mut head = GenDb::new(schema);
    head.add_node("T", vec![n(1), n(2)]);
    let tgds = vec![Rule { body, head }];
    let cfg = ChaseConfig {
        match_limit: 1,
        ..ChaseConfig::new(BUDGET)
    };
    let plain = chase_with(&d, &tgds, &[], &cfg);
    match &plain {
        ChaseOutcome::Done(db) => {
            let derived = db
                .nodes()
                .any(|(_, row)| matches!(row, [v, Value::Null(_)] if *v == c(1)));
            assert!(derived, "no T(1, ⊥) fact in {db:?}");
        }
        other => panic!("expected Done, got {other:?}"),
    }
    let (certified, cert) = chase_certified(&d, &tgds, &[], &cfg);
    assert_eq!(plain, certified);
    let cert = cert.expect("the compiled engine certifies");
    assert_eq!(ca_cert::check_chase(&cert), Ok(()));
}
