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
    ChaseCertOutcome, ChaseStep, CoreCert, CoreStep, FactGroups, HomCert, MatchCert,
    NonCertainCert, Reject,
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

/// A fact list from `(relation, args)` pairs, in order.
fn facts<R: AsRef<str>, A: AsRef<[Value]>>(list: &[(R, A)]) -> FactGroups {
    let mut out = FactGroups::new();
    for (rel, args) in list {
        out.push(rel.as_ref(), args.as_ref());
    }
    out
}

/// Rule R0: E(v1, v1) → ∃v3 E(v1, v3); egd G0: E(v1, v2) → v1 = v2.
/// Initial { E(⊥x, ⊥y) }: the egd merges ⊥y into ⊥x (smaller id wins),
/// creating the self-loop the tgd needs, which then fires a fresh ⊥f.
/// The Fire step is only replayable *after* the Merge — exactly the
/// dependency the reorder/drop mutations must break. The merge's values
/// bind the egd's body variables [1, 2], the firing's value binds the
/// rule's [1] and its fresh null the existential [3].
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
        initial: facts(&[("E", [nv(x), nv(y)])]),
        steps: vec![
            ChaseStep::Merge {
                egd: 0,
                values: 0..2,
                merged: Some((Null(y), nv(x))),
            },
            ChaseStep::Fire {
                rule: 0,
                values: 2..3,
                fresh: 0..1,
            },
        ],
        values: vec![nv(x), nv(y), nv(x)],
        ledger: vec![Null(f)],
        outcome: ChaseCertOutcome::Done {
            final_facts: facts(&[("E", [nv(x), nv(x)]), ("E", [nv(x), nv(f)])]),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chase_mutations_are_rejected_with_typed_reasons(seed in 0u64..5_000) {
        let good = chase_family(seed);
        let [Value::Null(Null(x)), Value::Null(Null(y)), ..] = good.values[..] else {
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
            values: 0..2,
            merged: Some((Null(x), nv(y))),
        };
        prop_assert_eq!(
            check_chase(&wrong_loser),
            Err(Reject::MergeRootMismatch { step: 0 })
        );

        // Truncate the fresh ledger: the head existential is unresolved.
        let mut truncated = good.clone();
        truncated.steps[1] = ChaseStep::Fire { rule: 0, values: 2..3, fresh: 0..0 };
        prop_assert_eq!(
            check_chase(&truncated),
            Err(Reject::MissingFreshNull { step: 1, var: 3 })
        );

        // Recycle a used null as "fresh": globally stale.
        let mut stale = good.clone();
        stale.ledger = vec![Null(y)];
        prop_assert_eq!(
            check_chase(&stale),
            Err(Reject::StaleFreshNull { step: 1, null: Null(y) })
        );

        // Forge the final fact set.
        let mut forged = good.clone();
        forged.outcome = ChaseCertOutcome::Done {
            final_facts: facts(&[("E", [nv(x), nv(x)])]),
        };
        prop_assert_eq!(check_chase(&forged), Err(Reject::FinalFactsMismatch));

        // Claim Failed without any clash on record.
        let mut sad = good.clone();
        sad.outcome = ChaseCertOutcome::Failed;
        prop_assert_eq!(check_chase(&sad), Err(Reject::FailedWithoutClash));

        // Name a rule that does not exist.
        let mut phantom = good.clone();
        phantom.steps[1] = ChaseStep::Fire { rule: 7, values: 2..3, fresh: 0..1 };
        phantom.ledger = vec![Null(y + 100)];
        prop_assert_eq!(check_chase(&phantom), Err(Reject::UnknownRule { step: 1 }));

        // A value run shorter than the body's variables [1, 2]: the first
        // variable without a value is unbound.
        let mut bare = good.clone();
        bare.steps[0] = ChaseStep::Merge { egd: 0, values: 0..1, merged: Some((Null(y), nv(x))) };
        prop_assert_eq!(
            check_chase(&bare),
            Err(Reject::UnboundBodyVar { step: 0, var: 2 })
        );
        bare.steps[0] = ChaseStep::Merge { egd: 0, values: 1..1, merged: Some((Null(y), nv(x))) };
        prop_assert_eq!(
            check_chase(&bare),
            Err(Reject::UnboundBodyVar { step: 0, var: 1 })
        );

        // A range outside its buffer, reversed, or longer than the
        // variables it binds is malformed.
        let fire = |values: std::ops::Range<u32>, fresh: std::ops::Range<u32>| {
            let mut cert = good.clone();
            cert.steps[1] = ChaseStep::Fire { rule: 0, values, fresh };
            check_chase(&cert)
        };
        let malformed = Err(Reject::MalformedStep { step: 1 });
        prop_assert_eq!(fire(2..4, 0..1), malformed.clone());
        // A reversed range, spelled out: it is what a forged step can say.
        let reversed = |start: u32| std::ops::Range { start, end: start - 1 };
        prop_assert_eq!(fire(reversed(3), 0..1), malformed.clone());
        prop_assert_eq!(fire(u32::MAX - 1..u32::MAX, 0..1), malformed.clone());
        prop_assert_eq!(fire(1..3, 0..1), malformed.clone());
        prop_assert_eq!(fire(2..3, 0..2), malformed.clone());
        prop_assert_eq!(fire(2..3, reversed(1)), malformed.clone());
        prop_assert_eq!(fire(2..3, 1..1), Err(Reject::MissingFreshNull { step: 1, var: 3 }));
        let mut long = good.clone();
        long.ledger.push(Null(y + 100));
        long.steps[1] = ChaseStep::Fire { rule: 0, values: 2..3, fresh: 0..2 };
        prop_assert_eq!(check_chase(&long), malformed);
        let mut wide = good.clone();
        wide.steps[0] = ChaseStep::Merge { egd: 0, values: 0..3, merged: Some((Null(y), nv(x))) };
        prop_assert_eq!(check_chase(&wide), Err(Reject::MalformedStep { step: 0 }));

        // Two existentials, [3, 4]: the ledger binds them in that order,
        // and one null short names the second.
        let mut two = good.clone();
        two.rules[0].head.push(CertAtom { rel: "E".into(), args: vec![CertTerm::Var(4), CertTerm::Var(3)] });
        prop_assert_eq!(
            check_chase(&two),
            Err(Reject::MissingFreshNull { step: 1, var: 4 })
        );
        let g = y + 500;
        two.ledger.push(Null(g));
        two.steps[1] = ChaseStep::Fire { rule: 0, values: 2..3, fresh: 0..2 };
        let f = two.ledger[0];
        let grown = [("E", [nv(x), nv(x)]), ("E", [nv(x), Value::Null(f)]), ("E", [nv(g), Value::Null(f)])];
        two.outcome = ChaseCertOutcome::Done { final_facts: facts(&grown) };
        prop_assert_eq!(check_chase(&two), Ok(()));
        two.ledger.swap(0, 1);
        prop_assert_eq!(check_chase(&two), Err(Reject::FinalFactsMismatch));
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
        initial: facts(&[("E", &[nv(x), nv(y)][..]), ("P", &[nv(y)])]),
        steps: vec![
            ChaseStep::Merge {
                egd: 0,
                values: 0..2,
                merged: Some((Null(y), nv(x))),
            },
            ChaseStep::Fire {
                rule: 0,
                values: 2..3,
                fresh: 0..1,
            },
        ],
        values: vec![nv(x), nv(y), nv(x)],
        ledger: vec![Null(f)],
        outcome: ChaseCertOutcome::Done {
            final_facts: facts(&[
                ("E", &[nv(x), nv(x)][..]),
                ("F", &[nv(x), nv(f)]),
                ("P", &[nv(x)]),
            ]),
        },
    }
}

/// A fact list as owned `(relation, args)` pairs, for editing.
fn owned(list: &FactGroups) -> Vec<(String, Vec<Value>)> {
    list.iter()
        .map(|(rel, args)| (rel.to_owned(), args.to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multi_relation_chase_mutations_are_rejected_with_typed_reasons(seed in 0u64..5_000) {
        let good = multi_relation_family(seed);
        prop_assert_eq!(check_chase(&good), Ok(()));
        let ChaseCertOutcome::Done { final_facts } = &good.outcome else {
            panic!("family claims a fixpoint");
        };
        let final_facts = owned(final_facts);
        let (x, y) = (good.values[0], good.values[1]);
        let claiming = |outcome: ChaseCertOutcome, steps: usize| {
            let mut cert = good.clone();
            cert.steps.truncate(steps);
            cert.outcome = outcome;
            check_chase(&cert)
        };
        let done = |list: Vec<(String, Vec<Value>)>| {
            claiming(ChaseCertOutcome::Done { final_facts: facts(&list) }, 2)
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

        // A relation claimed at two arities: E(⊥x) is not E(⊥x, ⊥x).
        let mut two_arities = final_facts.clone();
        two_arities.push(("E".into(), vec![x]));
        prop_assert_eq!(done(two_arities.clone()), Err(Reject::FinalFactsMismatch));
        // Where the initial facts hold E at both arities, so must the claim.
        let mut mixed = good.clone();
        mixed.initial.push("E", &[x]);
        mixed.outcome = ChaseCertOutcome::Done { final_facts: facts(&two_arities) };
        prop_assert_eq!(check_chase(&mixed), Ok(()));
        mixed.outcome = ChaseCertOutcome::Done { final_facts: facts(&final_facts) };
        prop_assert_eq!(check_chase(&mixed), Err(Reject::FinalFactsMismatch));

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
        let partial = |list: &[(String, Vec<Value>)]| ChaseCertOutcome::Aborted { partial: facts(list) };
        prop_assert_eq!(claiming(partial(&owned(&good.initial)), 0), Ok(()));
        let merged = vec![("E".to_string(), vec![x, x]), ("P".to_string(), vec![x])];
        prop_assert_eq!(claiming(partial(&merged), 1), Ok(()));
        let mut stale = merged.clone();
        stale[1].1 = vec![y];
        prop_assert_eq!(claiming(partial(&stale), 1), Err(Reject::FinalFactsMismatch));
        let mut both = merged;
        both.push(("P".into(), vec![y]));
        prop_assert_eq!(claiming(partial(&both), 1), Err(Reject::FinalFactsMismatch));
        // A firing that names the loser resolves it to ⊥x, and finds
        // both rewritten facts — after the merge, not before it.
        let mut via_loser = good.clone();
        via_loser.values[2] = y;
        prop_assert_eq!(check_chase(&via_loser), Ok(()));
        via_loser.steps.swap(0, 1);
        prop_assert_eq!(
            check_chase(&via_loser),
            Err(Reject::BodyAtomUnmatched { step: 0, atom: 0 })
        );
    }
}

/// A merge that makes rows equal collapses them. Egd G0: A(v1, v2),
/// A(v1, v3) → v2 = v3 over { A(1, ⊥2), A(1, ⊥1), A(7, ⊥2), B(⊥2),
/// B(⊥1), B(5) }: merging ⊥2 into ⊥1 makes A(1, ⊥2) and B(⊥2) copies of
/// other rows, and every other row must still be found afterwards.
#[test]
fn merges_collapse_the_rows_they_make_equal() {
    let var = |rel: &str, args: &[u32]| CertAtom {
        rel: rel.into(),
        args: args.iter().map(|&v| CertTerm::Var(v)).collect(),
    };
    let initial = [
        ("A", &[c(1), nv(2)][..]),
        ("A", &[c(1), nv(1)]),
        ("A", &[c(7), nv(2)]),
        ("B", &[nv(2)]),
        ("B", &[nv(1)]),
        ("B", &[c(5)]),
    ];
    let merged = [
        ("A", &[c(1), nv(1)][..]),
        ("A", &[c(7), nv(1)]),
        ("B", &[nv(1)]),
        ("B", &[c(5)]),
    ];
    let mut cert = ChaseCert {
        rules: vec![],
        egds: vec![CertEgd {
            body: vec![var("A", &[1, 2]), var("A", &[1, 3])],
            equal: (2, 3),
        }],
        initial: facts(&initial),
        steps: vec![ChaseStep::Merge {
            egd: 0,
            values: 0..3,
            merged: Some((Null(2), nv(1))),
        }],
        values: vec![c(1), nv(1), nv(2)],
        ledger: vec![],
        outcome: ChaseCertOutcome::Done {
            final_facts: facts(&merged),
        },
    };
    assert_eq!(check_chase(&cert), Ok(()));
    // The merged-away rows are gone, not kept beside their copies.
    for extra in [("A", &[c(1), nv(2)][..]), ("B", &[nv(2)])] {
        let mut claim = merged.to_vec();
        claim.push(extra);
        cert.outcome = ChaseCertOutcome::Done {
            final_facts: facts(&claim),
        };
        assert_eq!(check_chase(&cert), Err(Reject::FinalFactsMismatch));
    }
    // And each surviving row is still one the claim must name.
    for missing in 0..merged.len() {
        let mut claim = merged.to_vec();
        claim.remove(missing);
        cert.outcome = ChaseCertOutcome::Done {
            final_facts: facts(&claim),
        };
        assert_eq!(check_chase(&cert), Err(Reject::FinalFactsMismatch));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Certificate offsets, rule indexes and fact-group arities are
    /// untrusted input: whatever they say, checking and encoding a
    /// certificate return instead of panicking.
    #[test]
    fn malformed_chase_certificates_never_panic(
        seed in 0u64..5_000,
        bounds in proptest::collection::vec(prop_oneof![0u32..6, any::<u32>()], 6),
        picks in proptest::collection::vec(prop_oneof![0usize..3, any::<usize>()], 2),
        groups in proptest::collection::vec((0usize..4, 0usize..4), 0..6),
    ) {
        let mut cert = multi_relation_family(seed);
        let range = |i: usize| bounds[i]..bounds[i + 1];
        cert.steps = vec![
            ChaseStep::Merge { egd: picks[0], values: range(0), merged: Some((Null(1), nv(0))) },
            ChaseStep::Fire { rule: picks[1], values: range(2), fresh: range(4) },
        ];
        let rels = ["E", "P", "F", "Ghost"];
        for &(rel, arity) in &groups {
            let args: Vec<Value> = (0..arity).map(|i| cert.values[i % 3]).collect();
            cert.initial.push(rels[rel], &args);
            if let ChaseCertOutcome::Done { final_facts } = &mut cert.outcome {
                final_facts.push(rels[(rel + arity) % 4], &args);
            }
        }
        // Returning at all is what is checked: the verdict may go either way.
        let _ = check_chase(&cert);
        prop_assert!(cert.to_bytes().starts_with(b"CACHASE"));
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
