//! Bulk-ingest scaling and large-join benchmark.
//!
//! Two families, emitted to `BENCH_ingest.json`:
//!
//! * `ingest_csv` — the streaming CSV loader (`ca_core::store::ingest`)
//!   at 10⁵/10⁶/10⁷ facts and parse widths 1/2/4/8, reported as facts/s.
//!   Before any width is timed, its loaded store is asserted
//!   **byte-identical** to the width-1 store (the pipeline's determinism
//!   contract), so a wrong parallel load cannot post a fast number.
//!   `ingest_snapshot` rows time the validating snapshot parser on the
//!   same data for comparison.
//! * `join_chain2` — a 2-atom chain join `Q(x) ← E(x,y) ∧ E(y,z)` over a
//!   10⁶-edge random relation, reported as answers/s (the `seq` width
//!   row). The reference nested-loop oracle is asserted on a prefix of
//!   the data (it is `O(n²)` per atom and infeasible at 10⁶ facts — the
//!   prefix size is reported, not hidden).
//!
//! `--quick` shrinks the sweep to 10⁵ ingest facts and a 10⁴-edge join —
//! small enough to gate CI — but still exercises every width and every
//! differential assert, and writes under `target/bench/`. The JSON
//! header records `git_rev`, `host_cores`, the loader's default `width`
//! and the swept widths: on a 1-core host the speedup columns are honest
//! parity rows, and the header says why.

use std::fmt::Write as _;

use ca_bench::report::{host_cores, time_trials, trials, write_json, Report, Timing};
use ca_bench::workload::{facts_csv, Lcg};
use ca_core::store::{ingest, FactStore};
use ca_query::engine::{self, CompiledUcq, DbIndex};
use ca_query::reference;
use ca_query::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_relational::from_store;
use Term::Var as V;

/// The parse widths the ingest family sweeps.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Join workload: `n` random constant edges `E(a, b)` over `n/2` nodes
/// (average out-degree 2, so the chain join has real work per probe).
fn edges_csv(n: u64, seed: u64) -> String {
    let mut rng = Lcg(seed);
    let domain = (n / 2).max(16);
    let mut text = String::with_capacity((n as usize).saturating_mul(16));
    for _ in 0..n {
        let a = rng.next_u64() % domain;
        let b = rng.next_u64() % domain;
        let _ = writeln!(text, "E,{a},{b}");
    }
    text
}

/// `Q(x0) ← E(x0, x1) ∧ E(x1, x2)`.
fn chain2() -> UnionQuery {
    UnionQuery::single(ConjunctiveQuery::with_head(
        vec![0],
        vec![
            Atom::new("E", vec![V(0), V(1)]),
            Atom::new("E", vec![V(1), V(2)]),
        ],
    ))
}

struct Row {
    family: &'static str,
    case: String,
    width: usize,
    wall_us: Timing,
    /// facts/s for ingest rows, answers/s for join rows.
    rate_per_s: f64,
    /// width-1 wall / this wall within the same case.
    speedup_par: f64,
    /// facts loaded / answer rows.
    count: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trials = trials(quick);
    let mut rows: Vec<Row> = Vec::new();

    // --- ingest_csv: streaming loader at widths 1/2/4/8 ---
    let ingest_sizes: &[u64] = if quick {
        &[100_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };
    for &n in ingest_sizes {
        let csv = facts_csv(n, 0x5eed_cafe);
        let reps = if n >= 10_000_000 {
            1
        } else if n >= 1_000_000 {
            2
        } else {
            5
        };

        // Width-1 reference load: the differential baseline for every
        // other width, and the snapshot-family input.
        let mut ref_store = FactStore::new();
        let loaded = ingest::load_csv_bytes(csv.as_bytes(), &mut ref_store, 1)
            .expect("reference load succeeds");
        assert_eq!(loaded, n, "loader ingests every row");
        let ref_bytes = ref_store.to_bytes();

        let mut base_wall = 0u128;
        for &w in &WIDTHS {
            // Differential BEFORE timing: the width-w store must be
            // byte-identical to the width-1 store.
            let mut s = FactStore::new();
            ingest::load_csv_bytes(csv.as_bytes(), &mut s, w).expect("parallel load succeeds");
            assert_eq!(
                s.to_bytes(),
                ref_bytes,
                "width-{w} load is byte-identical to width-1"
            );
            drop(s);

            let wall = time_trials(trials, reps, || {
                let mut s = FactStore::new();
                let got =
                    ingest::load_csv_bytes(csv.as_bytes(), &mut s, w).expect("timed load succeeds");
                assert_eq!(got, n, "timed load ingests every row");
                std::hint::black_box(s.n_live());
            })
            .us();
            if w == 1 {
                base_wall = wall.median;
            }
            let rate = n as f64 / wall.median as f64 * 1e6;
            let speedup = base_wall as f64 / wall.median as f64;
            eprintln!(
                "[ingest_bench] ingest_csv n={n} width={w}: {}us ({rate:.0} facts/s, {speedup:.2}x)",
                wall.median
            );
            rows.push(Row {
                family: "ingest_csv",
                case: format!("n={n}"),
                width: w,
                wall_us: wall,
                rate_per_s: rate,
                speedup_par: speedup,
                count: n as usize,
            });
        }

        // --- ingest_snapshot: the validating binary parser on the same
        // data (format comparison, sequential by construction).
        let reload = FactStore::from_bytes(&ref_bytes).expect("snapshot loads");
        assert_eq!(reload.to_bytes(), ref_bytes, "snapshot roundtrip");
        let wall = time_trials(trials, reps, || {
            let s = FactStore::from_bytes(&ref_bytes).expect("snapshot loads");
            assert_eq!(u64::from(s.n_facts()), n, "snapshot preserves facts");
            std::hint::black_box(s.n_live());
        })
        .us();
        let rate = n as f64 / wall.median as f64 * 1e6;
        eprintln!(
            "[ingest_bench] ingest_snapshot n={n}: {}us ({rate:.0} facts/s)",
            wall.median
        );
        rows.push(Row {
            family: "ingest_snapshot",
            case: format!("n={n}"),
            width: 1,
            wall_us: wall,
            rate_per_s: rate,
            speedup_par: 1.0,
            count: n as usize,
        });
    }

    // --- join_chain2: one large chain join at 10⁶ facts ---
    let join_n: u64 = if quick { 10_000 } else { 1_000_000 };
    {
        let csv = edges_csv(join_n, 0xca11_ab1e);
        let mut store = FactStore::new();
        let loaded =
            ingest::load_csv_bytes(csv.as_bytes(), &mut store, 1).expect("edge load succeeds");
        assert_eq!(loaded, join_n, "edge loader ingests every row");
        drop(csv);

        let q = chain2();
        let db = from_store(&store);
        let plan = CompiledUcq::compile(&q, &db.schema).expect("chain2 compiles");

        // Reference oracle on a prefix: the nested-loop evaluator
        // rescans the relation per atom, so it is infeasible at the full
        // size; a 2000-edge prefix still differentially pins the plan.
        let oracle_n = (join_n as usize).min(2000);
        let mut oracle_store = FactStore::new();
        ingest::load_csv_bytes(
            edges_csv(oracle_n as u64, 0xca11_ab1e).as_bytes(),
            &mut oracle_store,
            1,
        )
        .expect("oracle load succeeds");
        let oracle_db = from_store(&oracle_store);
        assert_eq!(
            reference::eval_ucq(&q, &oracle_db),
            engine::eval_ucq_on(&plan, &mut DbIndex::over(&oracle_store)),
            "engine disagrees with the reference oracle on the {oracle_n}-edge prefix"
        );
        eprintln!("[ingest_bench] join_chain2: oracle agreement pinned on {oracle_n}-edge prefix");

        let expected = engine::eval_ucq_on(&plan, &mut DbIndex::over(&store));
        let reps = if quick { 5 } else { 2 };
        let seq_wall = time_trials(trials, reps, || {
            std::hint::black_box(engine::eval_ucq_on(&plan, &mut DbIndex::over(&store)));
        })
        .us();
        eprintln!(
            "[ingest_bench] join_chain2 n={join_n} seq: {}us ({} answers)",
            seq_wall.median,
            expected.len()
        );

        rows.push(Row {
            family: "join_chain2",
            case: format!("n={join_n}"),
            width: 0, // width 0 = the sequential engine row
            wall_us: seq_wall,
            rate_per_s: expected.len() as f64 / seq_wall.median as f64 * 1e6,
            speedup_par: 1.0,
            count: expected.len(),
        });
    }

    let mut report = Report::new(
        "ingest_bench: bulk ingest scaling & a large join",
        &[
            "family",
            "case",
            "width",
            "wall_us",
            "rate_per_s",
            "speedup_par",
            "count",
        ],
    );
    let mut json_rows: Vec<String> = Vec::new();
    for r in &rows {
        report.row(vec![
            r.family.into(),
            r.case.clone(),
            if r.width == 0 {
                "seq".into()
            } else {
                r.width.to_string()
            },
            r.wall_us.median.to_string(),
            format!("{:.0}", r.rate_per_s),
            format!("{:.2}x", r.speedup_par),
            r.count.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"family\": \"{}\", \"case\": \"{}\", \"width\": {}, {}, \
             \"rate_per_s\": {:.1}, \"speedup_par\": {:.3}, \"count\": {}}}",
            r.family,
            r.case,
            r.width,
            r.wall_us.json("wall_us"),
            r.rate_per_s,
            r.speedup_par,
            r.count
        ));
    }
    report.note("ingest_csv rate = facts/s through the streaming loader at the given parse width; every width's store asserted byte-identical to width-1 before timing");
    report.note(format!("wall_us = median of {trials} trial(s), µs per load or query; rates and speedups use the medians"));
    report.note("join_chain2 rate = answers/s of the engine; reference oracle asserted on a prefix (O(n²) beyond it)");
    let cores = host_cores();
    if cores <= 1 {
        report.note("single-core host: width>1 ingest rows time the loader's coordination overhead on one core — speedup_par ≈ 1.0 is parity, not regression (host_cores is in the JSON header)");
    }
    println!("{report}");

    // The loader spawns exactly the requested width (no host clamp), so
    // requested == effective; host_cores says how many can make progress.
    let widths_json = format!("[{}]", WIDTHS.map(|w| w.to_string()).join(","));
    let default_width = ca_core::config::part_threads();
    write_json(
        "ingest",
        !quick,
        default_width,
        trials,
        &[
            ("threads_default", default_width.to_string()),
            ("threads_requested", widths_json.clone()),
            ("threads_effective", widths_json),
        ],
        &json_rows,
    );
}
