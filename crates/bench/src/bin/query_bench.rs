//! Reference evaluator vs compiled query engine microbenchmark.
//!
//! Compares the retained nested-loop evaluator (`ca_query::reference`,
//! the exact pre-engine code) against the compiled engine
//! (`ca_query::engine`: cost-based join plans + lazy hash indices +
//! early-exit completion sweeps) on the workload shapes behind
//! experiments E1, E2 and E11:
//!
//! * `e02_ucq_edge` — a single-atom projection `Q(x) ← R(x, y)`: one
//!   relation scan for both evaluators, so this family deliberately
//!   measures fixed costs (plan compilation, index bookkeeping) and
//!   near-parity is the expected, honest result;
//! * `e02_ucq_chain2` / `e02_ucq_chain3` — 2- and 3-atom chain joins
//!   `R(x,y) ∧ R(y,z) (∧ R(z,w))` over growing sparse edge relations:
//!   the reference evaluator rescans the full relation per atom
//!   (`O(n^2)`-ish), the engine probes a hash index keyed on the join
//!   column — this is where the naive-eval-limits sizes stop being
//!   reachable for the old code;
//! * `e02_ucq_skew` — a three-relation chain `Big ⋈ Mid ⋈ Tiny` with
//!   cardinalities 8192 / n/4 / 32: the stats-blind greedy orderer sees
//!   three indistinguishable unbound atoms and leads with `Big`; the
//!   cost model leads with `Tiny` and probes inward. This family is
//!   where cost-based planning pays, not just matches;
//! * `e02_ucq_mates` — the duplicate-heavy shape of the pipeline
//!   benchmark's `MATES` query, `Q(e, m) ← W(e, d) ∧ W(f, d) ∧ R(f, m)`
//!   over departments of 40: every employee reaches each of its
//!   department's two bosses through about 20 colleagues, so the join
//!   emits ~20 rows per distinct answer. This family measures the
//!   engine's id-level deduplication of answer rows;
//! * `certain_sweep` — brute-force certain answers as the null count
//!   grows (the `|pool|^#nulls` grid of E1): the reference side
//!   materializes every completion up front and intersects reference
//!   answers; the engine compiles the query once and sweeps the grid;
//! * `e11_gdm_images` — the Theorem 7(b) image-enumeration procedure on
//!   ϕ₀ instances: plain grounded-image enumeration vs the early-exit
//!   grounding sweep in `ca_gdm::certain`.
//!
//! Each case runs the reference path, the engine with the **greedy**
//! plan, and the engine with the **cost-based** plan (`seq`).
//! Identical greedy and cost plans share one
//! measurement — re-timing byte-identical plans only adds noise. The
//! `plan_cold_ns` column times plan *acquisition*: a statistics read
//! plus a cost-based compile. All answers are asserted equal across
//! paths before anything is timed. A full run times each path as the
//! median of seven trials and records the quartiles next to it;
//! `--quick` runs one trial. Results go to stdout as a table and
//! to `BENCH_query.json` (`target/bench/` for `--quick`); `--quick`
//! additionally gates on the optimizer invariant (cost ≥ greedy on the
//! chains).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use ca_bench::report::Report;
use ca_core::store::FactStore;
use ca_core::value::Value;
use ca_gdm::certain as gdm_certain;
use ca_query::certain::{adequate_pool, ucq_constants};
use ca_query::engine::{self, CompiledUcq, CostModel, DbIndex};
use ca_query::reference;
use ca_query::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_relational::database::NaiveDatabase;
use ca_relational::generate::Rng;
use ca_relational::schema::Schema;
use ca_relational::to_store;
use Term::Var as V;

/// A sparse random edge relation: `n` facts `R(a, b)` with endpoints
/// drawn from `0..n/4` (average out-degree ≈ 4, so chain joins have
/// work to do without blowing up) and a handful of shared nulls.
fn edge_db(rng: &mut Rng, n: usize) -> NaiveDatabase {
    let schema = Schema::from_relations(&[("R", 2)]);
    let mut db = NaiveDatabase::new(schema);
    let universe = (n / 4).max(4) as u64;
    for _ in 0..n {
        let endpoint = |rng: &mut Rng| {
            if rng.chance(5, 100) {
                Value::null(rng.below(16) as u32)
            } else {
                Value::Const(rng.below(universe) as i64)
            }
        };
        let a = endpoint(rng);
        let b = endpoint(rng);
        db.add("R", vec![a, b]);
    }
    db
}

/// `Q(x_0) ← R(x_0, x_1) ∧ … ∧ R(x_{k-1}, x_k)`: a k-atom chain.
fn chain_query(k: u32) -> UnionQuery {
    let atoms = (0..k)
        .map(|i| Atom::new("R", vec![V(i), V(i + 1)]))
        .collect();
    UnionQuery::single(ConjunctiveQuery::with_head(vec![0], atoms))
}

/// The skew-join instance: `Big(x, y)` with `n` rows, `Mid(y, z)` with
/// `n/4`, `Tiny(z, w)` with 32, domains wired so the chain
/// `Big ⋈y Mid ⋈z Tiny` narrows sharply from the `Tiny` end. All
/// constants: the point is join ordering, not null semantics.
fn skew_db(rng: &mut Rng, n: usize) -> NaiveDatabase {
    let schema = Schema::from_relations(&[("Big", 2), ("Mid", 2), ("Tiny", 2)]);
    let mut db = NaiveDatabase::new(schema);
    let x_dom = (n / 4).max(4) as u64;
    let y_dom = (n / 8).max(4) as u64;
    let z_dom = (n / 16).max(4) as u64;
    for _ in 0..n {
        let x = rng.below(x_dom) as i64;
        let y = rng.below(y_dom) as i64;
        db.add("Big", vec![Value::Const(x), Value::Const(y)]);
    }
    for _ in 0..n / 4 {
        let y = rng.below(y_dom) as i64;
        let z = rng.below(z_dom) as i64;
        db.add("Mid", vec![Value::Const(y), Value::Const(z)]);
    }
    for _ in 0..32 {
        let z = rng.below(z_dom) as i64;
        let w = rng.below(16) as i64;
        db.add("Tiny", vec![Value::Const(z), Value::Const(w)]);
    }
    db
}

/// `Q(x) ← Big(x, y) ∧ Mid(y, z) ∧ Tiny(z, w)`.
fn skew_query() -> UnionQuery {
    UnionQuery::single(ConjunctiveQuery::with_head(
        vec![0],
        vec![
            Atom::new("Big", vec![V(0), V(1)]),
            Atom::new("Mid", vec![V(1), V(2)]),
            Atom::new("Tiny", vec![V(2), V(3)]),
        ],
    ))
}

/// The `MATES` instance: `n` employees in departments of 40, `W(e, d)`
/// placing each, and `R(f, m)` naming one of the two bosses of `f`'s
/// department (a boss id outside the employee range).
fn mates_db(rng: &mut Rng, n: usize) -> NaiveDatabase {
    let schema = Schema::from_relations(&[("W", 2), ("R", 2)]);
    let mut db = NaiveDatabase::new(schema);
    for e in 0..n as i64 {
        let d = e / 40;
        let boss = 1_000_000 + 2 * d + rng.below(2) as i64;
        db.add("W", vec![Value::Const(e), Value::Const(d)]);
        db.add("R", vec![Value::Const(e), Value::Const(boss)]);
    }
    db
}

/// `Q(e, m) ← W(e, d) ∧ W(f, d) ∧ R(f, m)`.
fn mates_query() -> UnionQuery {
    UnionQuery::single(ConjunctiveQuery::with_head(
        vec![0, 3],
        vec![
            Atom::new("W", vec![V(0), V(1)]),
            Atom::new("W", vec![V(2), V(1)]),
            Atom::new("R", vec![V(2), V(3)]),
        ],
    ))
}

/// A small database with `k` shared nulls for the completion sweep.
fn sweep_db(rng: &mut Rng, k: u32) -> NaiveDatabase {
    let schema = Schema::from_relations(&[("R", 2)]);
    let mut db = NaiveDatabase::new(schema);
    for i in 0..5u32 {
        let a = if i % 2 == 0 {
            Value::null(i % k)
        } else {
            Value::Const(rng.below(3) as i64)
        };
        let b = if i % 3 == 0 {
            Value::Const(rng.below(3) as i64)
        } else {
            Value::null((i + 1) % k)
        };
        db.add("R", vec![a, b]);
    }
    db
}

/// Trials per timed quantity in a full run. Scheduler interference on a
/// small shared host can distort a single sample by 30%+, so a full run
/// reports the median of this many trials with its quartiles, and a
/// change is resolved when it moves the median by more than the
/// interquartile spread. `--quick` runs one trial.
const TRIALS: usize = 7;

/// One timed quantity over its trials, in µs per call.
#[derive(Clone, Copy)]
struct Timing {
    q1: u128,
    median: u128,
    q3: u128,
}

/// Time `trials` trials of `reps` calls of `f` each: the median and the
/// quartiles of the per-call average.
fn time_reps(trials: usize, reps: u32, mut f: impl FnMut()) -> Timing {
    let mut us: Vec<u128> = (0..trials.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            (start.elapsed().as_micros() / u128::from(reps)).max(1)
        })
        .collect();
    us.sort_unstable();
    let quarter = us.len() / 4;
    Timing {
        q1: us[quarter],
        median: us[us.len() / 2],
        q3: us[us.len() - 1 - quarter],
    }
}

/// Nanosecond-resolution timing for the plan-acquisition column — a
/// compile is far below the microsecond floor of [`time_reps`].
fn time_reps_ns(reps: u32, mut f: impl FnMut()) -> u128 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    (start.elapsed().as_nanos() / u128::from(reps)).max(1)
}

/// The optimizer-facing measurements of one join-family case.
struct OptCols {
    /// Engine wall time with the stats-blind greedy plan.
    greedy_us: Timing,
    /// Plan acquisition: read statistics, compile cost-based.
    plan_cold_ns: u128,
}

/// Time plan acquisition for `q` over `st`: a statistics read plus a
/// cost-based compile.
fn time_plan_ns(q: &UnionQuery, schema: &Schema, st: &FactStore) -> u128 {
    time_reps_ns(2000, || {
        let model = CostModel::from_store(st);
        std::hint::black_box(CompiledUcq::compile_costed(q, schema, &model).unwrap());
    })
}

/// The legacy brute-force certain table: materialize all completions up
/// front (as `certain_table` did before the engine) and intersect
/// reference answers.
fn legacy_certain_table(q: &UnionQuery, db: &NaiveDatabase) -> BTreeSet<Vec<Value>> {
    let pool = adequate_pool(db, &ucq_constants(q));
    let mut completions = db.completions_over(&pool).into_iter();
    let Some(first) = completions.next() else {
        return BTreeSet::new();
    };
    let mut acc = reference::eval_ucq(q, &first);
    for r in completions {
        let ans = reference::eval_ucq(q, &r);
        acc = acc.intersection(&ans).cloned().collect();
        if acc.is_empty() {
            break;
        }
    }
    acc
}

struct Row {
    family: &'static str,
    case: String,
    mode: &'static str,
    ref_us: Timing,
    seq_us: Timing,
    answers: usize,
    opt: Option<OptCols>,
}

/// One join-family case: assert agreement, then time reference, greedy
/// plan and cost-based plan. When greedy and
/// cost-based compilation produce the same plan, the sequential
/// measurement is shared — identical plans execute identically, and
/// re-timing them would only report noise as a planner effect.
#[allow(clippy::too_many_arguments)]
fn join_case(
    family: &'static str,
    case: String,
    q: &UnionQuery,
    db: &NaiveDatabase,
    reps: u32,
    trials: usize,
    quick: bool,
    assert_cost_wins: bool,
    rows: &mut Vec<Row>,
) {
    let st = to_store(db);
    let model = CostModel::from_store(&st);
    let plan_greedy = CompiledUcq::compile(q, &db.schema).unwrap();
    let plan_cost = CompiledUcq::compile_costed(q, &db.schema, &model).unwrap();
    let same_plan = format!("{plan_greedy:?}") == format!("{plan_cost:?}");

    let expected = reference::eval_ucq(q, db);
    let got = engine::eval_ucq_on(&plan_cost, &mut DbIndex::new(db));
    assert_eq!(expected, got, "{family} cost-plan disagreement");
    assert_eq!(
        expected,
        engine::eval_ucq_on(&plan_greedy, &mut DbIndex::new(db)),
        "{family} greedy-plan disagreement"
    );

    let ref_us = time_reps(trials, reps, || {
        std::hint::black_box(reference::eval_ucq(q, db));
    });
    let seq_us = time_reps(trials, reps, || {
        std::hint::black_box(engine::eval_ucq_on(&plan_cost, &mut DbIndex::new(db)));
    });
    let greedy_us = if same_plan {
        seq_us
    } else {
        time_reps(trials, reps, || {
            std::hint::black_box(engine::eval_ucq_on(&plan_greedy, &mut DbIndex::new(db)));
        })
    };
    let plan_cold_ns = time_plan_ns(q, &db.schema, &st);
    let (seq, greedy) = (seq_us.median, greedy_us.median);
    if quick && assert_cost_wins {
        assert!(
            seq <= greedy,
            "{family} {case}: cost-based plan slower than greedy ({seq}us > {greedy}us)"
        );
    }
    eprintln!(
        "[query_bench] {family} {case}: ref {}us, greedy {greedy}us, \
         cost {seq}us, plan {plan_cold_ns}ns",
        ref_us.median
    );
    rows.push(Row {
        family,
        case,
        mode: "table",
        ref_us,
        seq_us,
        answers: got.len(),
        opt: Some(OptCols {
            greedy_us,
            plan_cold_ns,
        }),
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trials = if quick { 1 } else { TRIALS };
    let mut rng = Rng::new(0xca11ab1e);
    let mut rows: Vec<Row> = Vec::new();

    // --- e02_ucq_edge: single-atom scan, near-parity expected ---
    let edge_sizes: &[usize] = if quick { &[1024] } else { &[1024, 8192] };
    for &n in edge_sizes {
        let db = edge_db(&mut rng, n);
        join_case(
            "e02_ucq_edge",
            format!("n={n}"),
            &chain_query(1),
            &db,
            30,
            trials,
            quick,
            false,
            &mut rows,
        );
    }

    // --- e02_ucq_chain2 / chain3: indexed joins vs nested rescans ---
    for &(k, family) in &[(2u32, "e02_ucq_chain2"), (3u32, "e02_ucq_chain3")] {
        let sizes: &[usize] = if quick { &[512] } else { &[1024, 4096, 8192] };
        for &n in sizes {
            let db = edge_db(&mut rng, n);
            let reps = if n >= 4096 { 1 } else { 3 };
            join_case(
                family,
                format!("n={n}"),
                &chain_query(k),
                &db,
                reps,
                trials,
                quick,
                true,
                &mut rows,
            );
        }
    }

    // --- e02_ucq_skew: where the cost model beats greedy ordering ---
    let skew_sizes: &[usize] = if quick { &[1024] } else { &[4096, 8192] };
    for &n in skew_sizes {
        let db = skew_db(&mut rng, n);
        let reps = if n >= 4096 { 1 } else { 3 };
        join_case(
            "e02_ucq_skew",
            format!("n={n}"),
            &skew_query(),
            &db,
            reps,
            trials,
            quick,
            false,
            &mut rows,
        );
    }

    // --- certain_sweep: the |pool|^#nulls completion grid of E1 ---
    let null_counts: &[u32] = if quick { &[4] } else { &[4, 5] };
    for &k in null_counts {
        let db = sweep_db(&mut rng, k);
        let q = chain_query(2);
        let st = to_store(&db);
        let model = CostModel::from_store(&st);
        let plan_greedy = CompiledUcq::compile(&q, &db.schema).unwrap();
        let plan = CompiledUcq::compile_costed(&q, &db.schema, &model).unwrap();
        let same_plan = format!("{plan_greedy:?}") == format!("{plan:?}");
        let pool = adequate_pool(&db, &ucq_constants(&q));
        let expected = legacy_certain_table(&q, &db);
        let got = engine::certain_table_over(&plan, &db, &pool);
        assert_eq!(expected, got, "certain sweep disagreement");
        let reps = if k >= 5 { 1 } else { 3 };
        let ref_us = time_reps(trials, reps, || {
            std::hint::black_box(legacy_certain_table(&q, &db));
        });
        let seq_us = time_reps(trials, reps, || {
            std::hint::black_box(engine::certain_table_over(&plan, &db, &pool));
        });
        let greedy_us = if same_plan {
            seq_us
        } else {
            time_reps(trials, reps, || {
                std::hint::black_box(engine::certain_table_over(&plan_greedy, &db, &pool));
            })
        };
        let plan_cold_ns = time_plan_ns(&q, &db.schema, &st);
        rows.push(Row {
            family: "certain_sweep",
            case: format!("nulls={k},pool={}", pool.len()),
            mode: "table",
            ref_us,
            seq_us,
            answers: got.len(),
            opt: Some(OptCols {
                greedy_us,
                plan_cold_ns,
            }),
        });
        eprintln!(
            "[query_bench] certain_sweep k={k}: ref {}us, seq {}us",
            ref_us.median, seq_us.median
        );
    }

    // --- e02_ucq_mates: duplicate-heavy projection of a join ---
    let mates_sizes: &[usize] = if quick { &[512] } else { &[512, 2048] };
    for &n in mates_sizes {
        let db = mates_db(&mut rng, n);
        let reps = if n >= 2048 { 1 } else { 3 };
        join_case(
            "e02_ucq_mates",
            format!("n={n}"),
            &mates_query(),
            &db,
            reps,
            trials,
            quick,
            false,
            &mut rows,
        );
    }

    // --- e11_gdm_images: Theorem 7(b) grounded-image enumeration ---
    type Graph = (&'static str, usize, &'static [(u32, u32)]);
    let graphs: &[Graph] = if quick {
        &[("K3", 3, &[(0, 1), (1, 2), (0, 2)])]
    } else {
        &[
            ("K3", 3, &[(0, 1), (1, 2), (0, 2)]),
            ("C4", 4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
        ]
    };
    let phi = gdm_certain::phi0();
    for &(name, n_vertices, edges) in graphs {
        let d = gdm_certain::encode_graph_for_phi0(n_vertices, edges);
        // Reference path: sequential image enumeration with early exit —
        // exactly what certain_existential did before the sweep.
        let sequential = || {
            let mut certain = true;
            gdm_certain::for_each_grounded_image(&d, |image| {
                if ca_gdm::logic::eval_gfo(&phi, image) {
                    true
                } else {
                    certain = false;
                    false
                }
            });
            certain
        };
        let expected = sequential();
        assert_eq!(expected, gdm_certain::certain_existential(&phi, &d));
        // Both paths run a few hundred microseconds here, so single-shot
        // timing is dominated by scheduler noise; average enough reps
        // that the reported ratio reflects the code, not the machine.
        let reps = if quick {
            1
        } else if n_vertices >= 4 {
            20
        } else {
            50
        };
        let ref_us = time_reps(trials, reps, || {
            std::hint::black_box(sequential());
        });
        let seq_us = time_reps(trials, reps, || {
            std::hint::black_box(gdm_certain::certain_existential(&phi, &d));
        });
        rows.push(Row {
            family: "e11_gdm_images",
            case: format!("phi0_{name}"),
            mode: "bool",
            ref_us,
            seq_us,
            answers: usize::from(expected),
            opt: None,
        });
        eprintln!(
            "[query_bench] e11_gdm_images {name}: ref {}us, seq {}us",
            ref_us.median, seq_us.median
        );
    }

    let mut report = Report::new(
        "query_bench: reference evaluator vs compiled engine",
        &[
            "family",
            "case",
            "mode",
            "ref_us",
            "greedy_us",
            "seq_us",
            "seq_q1-q3",
            "speedup",
            "cost_vs_greedy",
            "plan_cold_ns",
            "answers",
        ],
    );
    let mut json_rows: Vec<String> = Vec::new();
    for r in &rows {
        let (ref_us, seq_us) = (r.ref_us.median, r.seq_us.median);
        let speedup = ref_us as f64 / seq_us as f64;
        report.row(vec![
            r.family.into(),
            r.case.clone(),
            r.mode.into(),
            ref_us.to_string(),
            r.opt
                .as_ref()
                .map_or("-".into(), |o| o.greedy_us.median.to_string()),
            seq_us.to_string(),
            format!("{}-{}", r.seq_us.q1, r.seq_us.q3),
            format!("{speedup:.1}x"),
            r.opt.as_ref().map_or("-".into(), |o| {
                format!("{:.1}x", o.greedy_us.median as f64 / seq_us as f64)
            }),
            r.opt
                .as_ref()
                .map_or("-".into(), |o| o.plan_cold_ns.to_string()),
            r.answers.to_string(),
        ]);
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"family\": \"{}\", \"case\": \"{}\", \"mode\": \"{}\", \
             \"ref_wall_us\": {}, \"ref_wall_us_q1_q3\": [{}, {}], \
             \"new_seq_wall_us\": {}, \"new_seq_wall_us_q1_q3\": [{}, {}], \
             \"speedup_seq\": {:.2}, \"answers\": {}",
            r.family,
            r.case,
            r.mode,
            ref_us,
            r.ref_us.q1,
            r.ref_us.q3,
            seq_us,
            r.seq_us.q1,
            r.seq_us.q3,
            speedup,
            r.answers
        );
        if let Some(o) = &r.opt {
            let g = o.greedy_us;
            let _ = write!(
                row,
                ", \"greedy_wall_us\": {}, \"greedy_wall_us_q1_q3\": [{}, {}], \
                 \"speedup_cost_vs_greedy\": {:.2}, \"plan_cold_ns\": {}",
                g.median,
                g.q1,
                g.q3,
                g.median as f64 / seq_us as f64,
                o.plan_cold_ns
            );
        }
        row.push('}');
        json_rows.push(row);
    }
    report.note("ref = pre-engine nested-loop evaluator (ca_query::reference), or plain image enumeration (e11); greedy = engine with the stats-blind greedy plan; seq = engine with the cost-based plan");
    report.note("cost_vs_greedy = greedy_us/seq_us; identical plans share one measurement, so 1.0x there is exact, not noise");
    report.note(format!(
        "times are medians of {trials} trials, µs per call; seq_q1-q3 = quartiles of seq_us"
    ));
    report.note("plan_cold_ns = statistics read + cost-based compile");
    report.note("e02_ucq_edge measures fixed costs (single scan both sides) — near-parity is the honest expectation; the chain joins are where indexing pays and e02_ucq_skew is where cost-based ordering pays");
    report.note("answers = result rows (table mode) / certainty bit (bool mode); every case asserts reference and engine agree before timing");
    println!("{report}");

    let json = format!(
        "{{\n  \"bench\": \"query_bench\",\n  \"git_rev\": \"{}\",\n  \"host_cores\": {},\n  \"width\": 1,\n  \"trials\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        ca_bench::report::git_rev(),
        ca_bench::report::host_cores(),
        trials,
        json_rows.join(",\n")
    );
    ca_bench::report::write_json("query", !quick, &json);
}
