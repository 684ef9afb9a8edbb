//! Seed-era chase loop vs the semi-naive, delta-driven chase engine.
//!
//! The chase is the paper's future-work pointer for data exchange with
//! target constraints (E8): a successful chase of the canonical
//! pre-solution is a universal solution for the constrained target
//! class. This harness times the retained reference loop
//! (`ca_exchange::reference::chase_with` — one firing per pass, every
//! pass re-matching every rule body against the whole instance through
//! the CSP matcher) against the engine (`ca_exchange::chase` — bodies
//! compiled once into pinned join plans, rounds seeded by delta facts,
//! interned store, union-find egds) on four workload shapes:
//!
//! * `chase_chain` — transitive closure of a path: quadratically many
//!   derived facts, the canonical full-tgd stress;
//! * `chase_chain_scale` — the same family at sizes the reference
//!   cannot reach (engine-only; the closure size is asserted instead);
//! * `chase_star` — an existential tgd `S(x,y) → ∃z T(x,z), T(z,y)`
//!   over star sources: one firing and two fresh-null facts per source
//!   fact;
//! * `chase_egd` — egd-heavy: functionality over groups of nulls that
//!   all collapse into one constant per group.
//!
//! Every reference-timed case asserts outcome agreement (engine vs
//! reference up to hom-equivalence) before timing. Results go to stdout
//! as a table and to `BENCH_chase.json` (`target/bench/` for `--quick`).

use ca_bench::report::{time_trials, trials, write_json, Report, Timing};
use ca_bench::workload::{cv, egd_instance, functionality, nv, path_instance, transitivity};
use ca_exchange::chase::{chase_with, ChaseConfig, ChaseOutcome, Egd};
use ca_exchange::mapping::Rule;
use ca_exchange::reference;
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_equiv;
use ca_gdm::schema::GenSchema;

fn st_schema() -> GenSchema {
    GenSchema::from_parts(&[("S", 2), ("T", 2)], &[])
}

/// The existential chain tgd S(x,y) → ∃z T(x,z), T(z,y).
fn star_rule() -> Rule {
    let mut body = GenDb::new(st_schema());
    body.add_node("S", vec![nv(1), nv(2)]);
    let mut head = GenDb::new(st_schema());
    head.add_node("T", vec![nv(1), nv(4)]);
    head.add_node("T", vec![nv(4), nv(2)]);
    Rule { body, head }
}

/// A star source: S(0, 1), …, S(0, m).
fn star_instance(m: usize) -> GenDb {
    let mut d = GenDb::new(st_schema());
    for i in 1..=m {
        d.add_node("S", vec![cv(0), cv(i as i64)]);
    }
    d
}

const BUDGET: usize = 1_000_000;
const MATCH_LIMIT: usize = 10_000_000;

fn engine_cfg() -> ChaseConfig {
    ChaseConfig {
        match_limit: MATCH_LIMIT,
        ..ChaseConfig::new(BUDGET)
    }
}

struct Row {
    family: &'static str,
    case: String,
    ref_us: Option<Timing>,
    seq_us: Timing,
    chased_size: usize,
}

fn done(outcome: ChaseOutcome, what: &str) -> GenDb {
    match outcome {
        ChaseOutcome::Done(db) => *db,
        other => panic!("{what}: chase did not finish: {other:?}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    rows: &mut Vec<Row>,
    family: &'static str,
    case: String,
    instance: &GenDb,
    tgds: &[Rule],
    egds: &[Egd],
    trials: usize,
    reps: u32,
    with_reference: bool,
) {
    let seq = done(
        chase_with(instance, tgds, egds, &engine_cfg()),
        &format!("{family} {case} seq"),
    );
    let ref_us = if with_reference {
        let slow = done(
            reference::chase_with(instance, tgds, egds, BUDGET, MATCH_LIMIT),
            &format!("{family} {case} ref"),
        );
        assert!(
            gdm_equiv(&seq, &slow),
            "{family} {case}: engine and reference chased instances diverged"
        );
        Some(
            time_trials(trials, reps, || {
                std::hint::black_box(reference::chase_with(
                    instance,
                    tgds,
                    egds,
                    BUDGET,
                    MATCH_LIMIT,
                ));
            })
            .us(),
        )
    } else {
        None
    };
    // The engine is orders of magnitude cheaper than the reference, so
    // it affords more samples than the reference-timing `reps`.
    let seq_us = time_trials(trials, reps.max(9), || {
        std::hint::black_box(chase_with(instance, tgds, egds, &engine_cfg()));
    })
    .us();
    let new_us = seq_us.median;
    match ref_us {
        Some(r) => eprintln!(
            "[chase_bench] {family} {case}: ref {}us, new {new_us}us ({:.1}x)",
            r.median,
            r.median as f64 / new_us as f64
        ),
        None => {
            eprintln!("[chase_bench] {family} {case}: new {new_us}us (engine-only)")
        }
    }
    rows.push(Row {
        family,
        case,
        ref_us,
        seq_us,
        chased_size: seq.n_nodes(),
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trials = trials(quick);
    let mut rows: Vec<Row> = Vec::new();

    // --- chase_chain: transitive closure of a path (reference-timed) ---
    let chain_sizes: &[usize] = if quick { &[8] } else { &[8, 12, 16, 24] };
    for &n in chain_sizes {
        let d = path_instance(n);
        let reps = if n >= 16 { 1 } else { 3 };
        run_case(
            &mut rows,
            "chase_chain",
            format!("path n={n}"),
            &d,
            &[transitivity()],
            &[],
            trials,
            reps,
            true,
        );
        // Sanity on the family: closure of a path has n(n+1)/2 edges.
        let got = rows.last().map(|r| r.chased_size).unwrap_or(0);
        assert_eq!(got, n * (n + 1) / 2, "chain n={n} closure size");
    }

    // --- chase_chain_scale: sizes beyond the reference (engine-only) ---
    let scale_sizes: &[usize] = if quick { &[64] } else { &[128, 192] };
    for &n in scale_sizes {
        let d = path_instance(n);
        run_case(
            &mut rows,
            "chase_chain_scale",
            format!("path n={n}"),
            &d,
            &[transitivity()],
            &[],
            trials,
            5,
            false,
        );
        let got = rows.last().map(|r| r.chased_size).unwrap_or(0);
        assert_eq!(got, n * (n + 1) / 2, "chain_scale n={n} closure size");
    }

    // --- chase_star: existential tgd over star sources ---
    let star_sizes: &[usize] = if quick { &[16] } else { &[32, 64, 128] };
    for &m in star_sizes {
        let d = star_instance(m);
        let reps = if m >= 64 { 1 } else { 3 };
        run_case(
            &mut rows,
            "chase_star",
            format!("S-facts m={m}"),
            &d,
            &[star_rule()],
            &[],
            trials,
            reps,
            true,
        );
        // One firing per source fact: m S-facts + 2m fresh T-facts.
        let got = rows.last().map(|r| r.chased_size).unwrap_or(0);
        assert_eq!(got, 3 * m, "star m={m} chased size");
    }

    // --- chase_egd: functionality collapsing null groups ---
    let egd_sizes: &[usize] = if quick { &[8] } else { &[8, 16, 32] };
    for &m in egd_sizes {
        let k = 6;
        let d = egd_instance(k, m);
        let reps = if m >= 16 { 1 } else { 3 };
        run_case(
            &mut rows,
            "chase_egd",
            format!("groups k={k} nulls m={m}"),
            &d,
            &[],
            &[functionality()],
            trials,
            reps,
            true,
        );
        // Every group collapses onto its constant anchor.
        let got = rows.last().map(|r| r.chased_size).unwrap_or(0);
        assert_eq!(got, k, "egd m={m} collapsed size");
    }

    let mut report = Report::new(
        "chase_bench: seed chase loop vs semi-naive delta-driven engine",
        &[
            "family",
            "case",
            "ref_us",
            "seq_us",
            "speedup",
            "chased_size",
        ],
    );
    let mut json_rows: Vec<String> = Vec::new();
    for r in &rows {
        let seq = r.seq_us.median;
        let (ref_cell, speedup_cell, ref_json, speedup_json) = match r.ref_us {
            Some(ru) => {
                let s = ru.median as f64 / seq as f64;
                (
                    ru.median.to_string(),
                    format!("{s:.1}x"),
                    ru.json("ref_wall_us"),
                    format!("{s:.2}"),
                )
            }
            None => (
                "-".into(),
                "-".into(),
                "\"ref_wall_us\": null, \"ref_wall_us_q1_q3\": null".into(),
                "null".into(),
            ),
        };
        report.row(vec![
            r.family.into(),
            r.case.clone(),
            ref_cell,
            seq.to_string(),
            speedup_cell,
            r.chased_size.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"family\": \"{}\", \"case\": \"{}\", {ref_json}, {}, \
             \"speedup_seq\": {speedup_json}, \"chased_size\": {}}}",
            r.family,
            r.case,
            r.seq_us.json("new_seq_wall_us"),
            r.chased_size
        ));
    }
    report.note("ref = seed chase loop (one firing per pass, full re-match through the CSP matcher); seq = engine");
    report.note(format!(
        "times are medians of {trials} trial(s), µs per call"
    ));
    report.note("every reference-timed case asserts engine-vs-reference agreement (outcome + hom-equivalence) before timing; engine-only cases assert the closed-form chased size instead");
    println!("{report}");

    write_json("chase", !quick, 1, trials, &[], &json_rows);
}
