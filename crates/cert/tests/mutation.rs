//! Adversarial checker tests: start from a *valid* certificate family
//! (parameterized by a random seed so ids, sizes, and constants vary),
//! verify it passes, then apply each targeted mutation — swap a mapping
//! entry, drop or reorder a derivation step, point a merge at the wrong
//! null, truncate the fresh ledger, forge the witness — and demand the
//! checker reject with exactly the right typed [`Reject`] reason. A
//! checker that merely says "no" is half a checker; these pins keep every
//! rejection a repro.

use proptest::prelude::*;

use ca_cert::{
    check_certain_row, check_chase, check_core, check_hom, check_match, check_non_certain,
    CertAtom, CertCq, CertEgd, CertFact, CertQuery, CertRule, CertTerm, ChaseCert,
    ChaseCertOutcome, ChaseStep, CoreCert, CoreStep, HomCert, MatchCert, NonCertainCert, Reject,
};
use ca_core::store::FactStore;
use ca_core::value::{Null, Value};

fn c(x: i64) -> Value {
    Value::Const(x)
}
fn nv(id: u32) -> Value {
    Value::null(id)
}

// ---------------------------------------------------------------------------
// Homomorphism certificates
// ---------------------------------------------------------------------------

/// src = { E(a, ⊥x), E(⊥x, ⊥y) }, dst = { E(a, b), E(b, d) }: the unique
/// hom is ⊥x ↦ b, ⊥y ↦ d, and it is onto.
fn hom_family(seed: u64) -> (HomCert, FactStore, FactStore) {
    let a = (seed % 17) as i64;
    let b = a + 1 + (seed % 5) as i64;
    let d = b + 1 + (seed % 7) as i64;
    let x = (seed % 90) as u32;
    let y = x + 1 + (seed % 40) as u32;
    let mut src = FactStore::new();
    let e = src.add_relation("E", 2);
    src.append(e, &[c(a), nv(x)]);
    src.append(e, &[nv(x), nv(y)]);
    let mut dst = FactStore::new();
    let e2 = dst.add_relation("E", 2);
    dst.append(e2, &[c(a), c(b)]);
    dst.append(e2, &[c(b), c(d)]);
    let cert = HomCert {
        mapping: vec![(Null(x), c(b)), (Null(y), c(d))],
        onto: true,
    };
    (cert, src, dst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hom_mutations_are_rejected_with_typed_reasons(seed in 0u64..5_000) {
        let (good, src, dst) = hom_family(seed);
        let y = good.mapping[1].0;
        prop_assert_eq!(check_hom(&good, &src, &dst), Ok(()));

        // Swap the two mapping entries: no longer strictly ascending.
        let mut swapped = good.clone();
        swapped.mapping.swap(0, 1);
        prop_assert_eq!(check_hom(&swapped, &src, &dst), Err(Reject::MalformedMapping));

        // Swap the two *images*: the first source fact maps outside dst.
        let mut crossed = good.clone();
        let (i, j) = (crossed.mapping[0].1, crossed.mapping[1].1);
        crossed.mapping[0].1 = j;
        crossed.mapping[1].1 = i;
        prop_assert_eq!(
            check_hom(&crossed, &src, &dst),
            Err(Reject::FactNotPreserved { index: 0 })
        );

        // Drop an entry: a source null goes unmapped.
        let mut partial = good.clone();
        partial.mapping.pop();
        prop_assert_eq!(
            check_hom(&partial, &src, &dst),
            Err(Reject::UnmappedNull { null: y })
        );

        // Map both nulls to the same image: the chain fact is lost.
        let mut collapsed = good.clone();
        collapsed.mapping[1].1 = collapsed.mapping[0].1;
        prop_assert_eq!(
            check_hom(&collapsed, &src, &dst),
            Err(Reject::FactNotPreserved { index: 1 })
        );

        // Grow the target past the image: still a homomorphism, no
        // longer onto.
        let mut bigger = dst.clone();
        let e = bigger.relation("E").expect("family declares E");
        bigger.append(e, &[c(999_000), c(999_000)]);
        let into = HomCert { onto: false, ..good.clone() };
        prop_assert_eq!(check_hom(&into, &src, &bigger), Ok(()));
        prop_assert_eq!(check_hom(&good, &src, &bigger), Err(Reject::NotOnto));
    }
}

// ---------------------------------------------------------------------------
// Chase certificates
// ---------------------------------------------------------------------------

/// Rule R0: E(v1, v1) → ∃v3 E(v1, v3); egd G0: E(v1, v2) → v1 = v2.
/// Initial { E(⊥x, ⊥y) }: the egd merges ⊥y into ⊥x (smaller id wins),
/// creating the self-loop the tgd needs, which then fires a fresh ⊥f.
/// The Fire step is only replayable *after* the Merge — exactly the
/// dependency the reorder/drop mutations must break.
fn chase_family(seed: u64) -> ChaseCert {
    let x = (seed % 90) as u32;
    let y = x + 1 + (seed % 40) as u32;
    let f = y + 1 + (seed % 40) as u32;
    let atom = |a: CertTerm, b: CertTerm| CertAtom {
        rel: "E".into(),
        args: vec![a, b],
    };
    let v = CertTerm::Var;
    ChaseCert {
        rules: vec![CertRule {
            body: vec![atom(v(1), v(1))],
            head: vec![atom(v(1), v(3))],
        }],
        egds: vec![CertEgd {
            body: vec![atom(v(1), v(2))],
            equal: (1, 2),
        }],
        initial: vec![("E".into(), vec![nv(x), nv(y)])],
        steps: vec![
            ChaseStep::Merge {
                egd: 0,
                assignment: vec![(1, nv(x)), (2, nv(y))],
                merged: Some((Null(y), nv(x))),
            },
            ChaseStep::Fire {
                rule: 0,
                assignment: vec![(1, nv(x))],
                fresh: vec![(3, Null(f))],
            },
        ],
        outcome: ChaseCertOutcome::Done {
            final_facts: vec![
                ("E".into(), vec![nv(x), nv(x)]),
                ("E".into(), vec![nv(x), nv(f)]),
            ],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chase_mutations_are_rejected_with_typed_reasons(seed in 0u64..5_000) {
        let good = chase_family(seed);
        let (Some(Value::Null(Null(x))), Some(Value::Null(Null(y)))) = (
            good.initial[0].1.first().copied(),
            good.initial[0].1.get(1).copied(),
        ) else {
            panic!("family starts from two nulls");
        };
        prop_assert_eq!(check_chase(&good), Ok(()));

        // Reorder: firing before the merge finds no self-loop yet.
        let mut reordered = good.clone();
        reordered.steps.swap(0, 1);
        prop_assert_eq!(
            check_chase(&reordered),
            Err(Reject::BodyAtomUnmatched { step: 0, atom: 0 })
        );

        // Drop the merge: same missing-body failure, now at the Fire.
        let mut dropped = good.clone();
        dropped.steps.remove(0);
        prop_assert_eq!(
            check_chase(&dropped),
            Err(Reject::BodyAtomUnmatched { step: 0, atom: 0 })
        );

        // Drop the firing but keep the claimed outcome: replay falls short.
        let mut short = good.clone();
        short.steps.pop();
        prop_assert_eq!(check_chase(&short), Err(Reject::FinalFactsMismatch));

        // Point the merge at the wrong null: the deterministic rule says
        // the *larger* id loses, so (⊥x ↦ ⊥y) is a forgery.
        let mut wrong_loser = good.clone();
        wrong_loser.steps[0] = ChaseStep::Merge {
            egd: 0,
            assignment: vec![(1, nv(x)), (2, nv(y))],
            merged: Some((Null(x), nv(y))),
        };
        prop_assert_eq!(
            check_chase(&wrong_loser),
            Err(Reject::MergeRootMismatch { step: 0 })
        );

        // Truncate the fresh ledger: the head existential is unresolved.
        let mut truncated = good.clone();
        truncated.steps[1] = ChaseStep::Fire {
            rule: 0,
            assignment: vec![(1, nv(x))],
            fresh: vec![],
        };
        prop_assert_eq!(
            check_chase(&truncated),
            Err(Reject::MissingFreshNull { step: 1, var: 3 })
        );

        // Recycle a used null as "fresh": globally stale.
        let mut stale = good.clone();
        stale.steps[1] = ChaseStep::Fire {
            rule: 0,
            assignment: vec![(1, nv(x))],
            fresh: vec![(3, Null(y))],
        };
        prop_assert_eq!(
            check_chase(&stale),
            Err(Reject::StaleFreshNull { step: 1, null: Null(y) })
        );

        // Forge the final fact set.
        let mut forged = good.clone();
        forged.outcome = ChaseCertOutcome::Done {
            final_facts: vec![("E".into(), vec![nv(x), nv(x)])],
        };
        prop_assert_eq!(check_chase(&forged), Err(Reject::FinalFactsMismatch));

        // Claim Failed without any clash on record.
        let mut sad = good.clone();
        sad.outcome = ChaseCertOutcome::Failed;
        prop_assert_eq!(check_chase(&sad), Err(Reject::FailedWithoutClash));

        // Name a rule that does not exist.
        let mut phantom = good;
        phantom.steps[1] = ChaseStep::Fire {
            rule: 7,
            assignment: vec![(1, nv(x))],
            fresh: vec![(3, Null(y + 100))],
        };
        prop_assert_eq!(check_chase(&phantom), Err(Reject::UnknownRule { step: 1 }));
    }
}

/// Three relations and a merge whose loser occurs in two of them. Rule
/// R0: E(v1, v1), P(v1) → ∃v3 F(v1, v3); egd G0: E(v1, v2) → v1 = v2.
/// Initial { E(⊥x, ⊥y), P(⊥y) }: merging ⊥y into ⊥x must rewrite the
/// facts of both E and P before the firing can match its body.
fn multi_relation_family(seed: u64) -> ChaseCert {
    let x = (seed % 90) as u32;
    let y = x + 1 + (seed % 40) as u32;
    let f = y + 1 + (seed % 40) as u32;
    let atom = |rel: &str, args: &[u32]| CertAtom {
        rel: rel.into(),
        args: args.iter().map(|&v| CertTerm::Var(v)).collect(),
    };
    ChaseCert {
        rules: vec![CertRule {
            body: vec![atom("E", &[1, 1]), atom("P", &[1])],
            head: vec![atom("F", &[1, 3])],
        }],
        egds: vec![CertEgd {
            body: vec![atom("E", &[1, 2])],
            equal: (1, 2),
        }],
        initial: vec![("E".into(), vec![nv(x), nv(y)]), ("P".into(), vec![nv(y)])],
        steps: vec![
            ChaseStep::Merge {
                egd: 0,
                assignment: vec![(1, nv(x)), (2, nv(y))],
                merged: Some((Null(y), nv(x))),
            },
            ChaseStep::Fire {
                rule: 0,
                assignment: vec![(1, nv(x))],
                fresh: vec![(3, Null(f))],
            },
        ],
        outcome: ChaseCertOutcome::Done {
            final_facts: vec![
                ("E".into(), vec![nv(x), nv(x)]),
                ("F".into(), vec![nv(x), nv(f)]),
                ("P".into(), vec![nv(x)]),
            ],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multi_relation_chase_mutations_are_rejected_with_typed_reasons(seed in 0u64..5_000) {
        let good = multi_relation_family(seed);
        prop_assert_eq!(check_chase(&good), Ok(()));
        let ChaseCertOutcome::Done { final_facts } = good.outcome.clone() else {
            panic!("family claims a fixpoint");
        };
        let (x, y) = (good.initial[0].1[0], good.initial[0].1[1]);
        let claiming = |outcome: ChaseCertOutcome, steps: usize| {
            let mut cert = good.clone();
            cert.steps.truncate(steps);
            cert.outcome = outcome;
            check_chase(&cert)
        };
        let done = |final_facts: Vec<CertFact>| {
            claiming(ChaseCertOutcome::Done { final_facts }, 2)
        };

        // Relabel F(⊥x, ⊥f) to another relation with the same args.
        let mut relabelled = final_facts.clone();
        relabelled[1].0 = "E".into();
        prop_assert_eq!(done(relabelled), Err(Reject::FinalFactsMismatch));

        // Name a relation no rule, egd or fact mentions: in place of a
        // real fact, and on top of all of them.
        let mut ghost = final_facts.clone();
        ghost[1].0 = "Ghost".into();
        prop_assert_eq!(done(ghost), Err(Reject::FinalFactsMismatch));
        let mut extra = final_facts.clone();
        extra.push(("Ghost".into(), vec![x]));
        prop_assert_eq!(done(extra), Err(Reject::FinalFactsMismatch));

        // The claim is a set: a repeated fact is accepted, wherever it
        // sits — but a repeat cannot stand in for a missing fact.
        let mut repeated = final_facts.clone();
        repeated.insert(0, final_facts[2].clone());
        repeated.push(final_facts[0].clone());
        prop_assert_eq!(done(repeated), Ok(()));
        let mut stand_in = final_facts.clone();
        stand_in[1] = final_facts[0].clone();
        prop_assert_eq!(done(stand_in), Err(Reject::FinalFactsMismatch));

        // A body atom over a relation that has no facts.
        let mut empty = good.clone();
        empty.rules[0].body[1].rel = "Z".into();
        prop_assert_eq!(
            check_chase(&empty),
            Err(Reject::BodyAtomUnmatched { step: 1, atom: 1 })
        );

        // The merge's loser ⊥y occurs in E and P. Before the merge the
        // replay holds the initial facts; after it, both relations hold
        // only the rewritten ones.
        let partial = |partial: Vec<CertFact>| ChaseCertOutcome::Aborted { partial };
        prop_assert_eq!(claiming(partial(good.initial.clone()), 0), Ok(()));
        let merged = vec![("E".to_string(), vec![x, x]), ("P".to_string(), vec![x])];
        prop_assert_eq!(claiming(partial(merged.clone()), 1), Ok(()));
        let mut stale = merged.clone();
        stale[1].1 = vec![y];
        prop_assert_eq!(claiming(partial(stale), 1), Err(Reject::FinalFactsMismatch));
        let mut both = merged;
        both.push(("P".into(), vec![y]));
        prop_assert_eq!(claiming(partial(both), 1), Err(Reject::FinalFactsMismatch));
        // A firing that names the loser resolves it to ⊥x, and finds
        // both rewritten facts — after the merge, not before it.
        let mut via_loser = good.clone();
        if let ChaseStep::Fire { assignment, .. } = &mut via_loser.steps[1] {
            *assignment = vec![(1, y)];
        }
        prop_assert_eq!(check_chase(&via_loser), Ok(()));
        via_loser.steps.swap(0, 1);
        prop_assert_eq!(
            check_chase(&via_loser),
            Err(Reject::BodyAtomUnmatched { step: 0, atom: 0 })
        );
    }
}

// ---------------------------------------------------------------------------
// Core-retraction certificates
// ---------------------------------------------------------------------------

/// A chain 0 → 1 → … → k feeding a self-loop at k: everything retracts
/// onto {k} via the constant endomorphism.
fn core_family(seed: u64) -> CoreCert {
    // k ≥ 2, so a bent endomorphism fixing 0 maps the chain edge (0, 1)
    // to the non-edge (0, k) instead of accidentally hitting an edge.
    let k = 2 + (seed % 5) as u32;
    let mut tuples: Vec<(u32, Vec<u32>)> = (0..k).map(|i| (0, vec![i, i + 1])).collect();
    tuples.push((0, vec![k, k]));
    tuples.sort();
    let g: Vec<u32> = (0..=k).map(|_| k).collect();
    CoreCert {
        n_elements: k + 1,
        tuples,
        probe: (0..=k).collect(),
        steps: vec![CoreStep::Endo { g: g.clone() }],
        kept: vec![k],
        map: g,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn core_mutations_are_rejected_with_typed_reasons(seed in 0u64..5_000) {
        let good = core_family(seed);
        let k = good.n_elements - 1;
        prop_assert_eq!(check_core(&good), Ok(()));

        // Tamper the endomorphism: fixing 0 leaves the chain edge (0, 1)
        // mapped to (0, k), which is no tuple (k ≥ 1).
        let mut bent = good.clone();
        let mut g = vec![k; good.n_elements as usize];
        g[0] = 0;
        bent.steps = vec![CoreStep::Endo { g }];
        let Err(Reject::StepBreaksTuple { step: 0, .. }) = check_core(&bent) else {
            panic!("bent endomorphism must break a tuple");
        };

        // Drop the step chain: identity ≠ claimed witness.
        let mut lazy = good.clone();
        lazy.steps.clear();
        prop_assert_eq!(check_core(&lazy), Err(Reject::WitnessMismatch));

        // Forge the kept set.
        let mut greedy = good.clone();
        greedy.kept = vec![0];
        prop_assert_eq!(check_core(&greedy), Err(Reject::KeptMismatch));

        // Out-of-universe element.
        let mut wild = good;
        wild.map[0] = wild.n_elements + 3;
        prop_assert_eq!(check_core(&wild), Err(Reject::BadElement));
    }
}

// ---------------------------------------------------------------------------
// Match / certainty certificates
// ---------------------------------------------------------------------------

/// Q(w) ← E(a, w) over { E(a, b), E(a, ⊥n) }: row (b) has a ground naive
/// match; the assignment ⊥n is a match whose row is not ground.
fn match_family(seed: u64) -> (CertQuery, Vec<CertFact>, MatchCert) {
    let a = (seed % 17) as i64;
    let b = a + 1 + (seed % 9) as i64;
    let n = (seed % 90) as u32;
    let q = CertQuery {
        head_arity: 1,
        disjuncts: vec![CertCq {
            head: vec![0],
            atoms: vec![CertAtom {
                rel: "E".into(),
                args: vec![CertTerm::Const(a), CertTerm::Var(0)],
            }],
        }],
    };
    let facts = vec![
        ("E".to_string(), vec![c(a), c(b)]),
        ("E".to_string(), vec![c(a), nv(n)]),
    ];
    let cert = MatchCert {
        disjunct: 0,
        assignment: vec![(0, c(b))],
        row: vec![c(b)],
    };
    (q, facts, cert)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn match_mutations_are_rejected_with_typed_reasons(seed in 0u64..5_000) {
        let (q, fact_list, good) = match_family(seed);
        let facts = fact_list.iter().cloned().collect();
        let null_arg = fact_list[1].1[1];
        prop_assert_eq!(check_certain_row(&q, &facts, &good), Ok(()));

        // Swap the assignment entry to a value outside the database.
        let mut astray = good.clone();
        astray.assignment = vec![(0, c(999_000))];
        astray.row = vec![c(999_000)];
        prop_assert_eq!(
            check_match(&q, &facts, &astray),
            Err(Reject::MatchAtomUnmatched { atom: 0 })
        );

        // Claim a row the assignment does not project to.
        let mut liar = good.clone();
        liar.assignment = vec![(0, null_arg)];
        prop_assert_eq!(check_match(&q, &facts, &liar), Err(Reject::WrongRow));

        // A real match on a null row is fine — but never *certain*.
        let soft = MatchCert {
            disjunct: 0,
            assignment: vec![(0, null_arg)],
            row: vec![null_arg],
        };
        prop_assert_eq!(check_match(&q, &facts, &soft), Ok(()));
        prop_assert_eq!(check_certain_row(&q, &facts, &soft), Err(Reject::RowNotGround));

        // Empty the assignment: the head variable goes unbound.
        let mut mute = good.clone();
        mute.assignment.clear();
        prop_assert_eq!(
            check_match(&q, &facts, &mute),
            Err(Reject::UnboundQueryVar { var: 0 })
        );

        // Point at a disjunct that does not exist.
        let mut lost = good;
        lost.disjunct = 4;
        prop_assert_eq!(check_match(&q, &facts, &lost), Err(Reject::UnknownDisjunct));

        // Refutations: grounding ⊥n to b leaves the completion { E(a, b) },
        // which omits every row but (b).
        let (Value::Const(b), Value::Null(n)) = (fact_list[0].1[1], null_arg) else {
            panic!("family has one ground and one null row");
        };
        let refute = |ground: &[(Null, i64)], row: Value| {
            let nc = NonCertainCert { valuation: ground.to_vec(), row: vec![row] };
            check_non_certain(&q, &facts, &nc)
        };
        prop_assert_eq!(refute(&[(n, b)], c(b + 1)), Ok(()));
        prop_assert_eq!(refute(&[(n, b)], c(b)), Err(Reject::MatchExists { disjunct: 0 }));
        // Grounding ⊥n to the claimed row produces it after all.
        prop_assert_eq!(
            refute(&[(n, b + 1)], c(b + 1)),
            Err(Reject::MatchExists { disjunct: 0 })
        );
        prop_assert_eq!(
            refute(&[], c(b + 1)),
            Err(Reject::ValuationNotGrounding { null: n })
        );
        let wide = NonCertainCert { valuation: vec![(n, b)], row: vec![c(b + 1), c(b + 1)] };
        prop_assert_eq!(check_non_certain(&q, &facts, &wide), Err(Reject::WrongRow));
    }
}
