//! Microbenchmarks for the workspace columnar fact store
//! (`ca_core::store`): the shared substrate the query engine, the chase,
//! and the hom solver's value indexing all sit on after the columnar
//! migration. Four families, each swept over 10⁴–10⁶ facts:
//!
//! * `intern` — value interning throughput: distinct constants and
//!   nulls into dense `u32` ids (the hot path of every bulk load);
//! * `append` — fact ingest via the unchecked columnar append (what
//!   `to_store` uses for already-deduplicated databases);
//! * `scan` — full live scan over the column pages (the engine's
//!   fallback access path and the shape of every seeded delta pass);
//! * `snapshot_roundtrip` — serialize to the versioned little-endian
//!   snapshot and load back, asserting the reload re-serializes
//!   byte-identically.
//!
//! Every family asserts a correctness invariant on its result before
//! timing (checksums, live counts, byte-identical re-serialization), so
//! a wrong store can't post a fast number. Results go to stdout as a
//! table and to `BENCH_store.json` (`target/bench/` for `--quick`).

use ca_bench::report::{time_trials, trials, write_json, Report, Timing};
use ca_bench::workload::Lcg;
use ca_core::store::FactStore;
use ca_core::value::Value;

const ARITY: usize = 3;

/// The bench workload: `n` arity-3 tuples over a `n/2`-sized domain from
/// a fixed-seed LCG, roughly 1 null per 8 values, so interning sees both
/// fresh and repeated values.
fn tuples(n: usize) -> Vec<[Value; ARITY]> {
    let mut rng = Lcg(0x5eed_cafe);
    let domain = (n as u64 / 2).max(16);
    (0..n)
        .map(|_| [rng.value(domain), rng.value(domain), rng.value(domain)])
        .collect()
}

/// Build the store once (outside timing) for the scan/snapshot families.
fn build_store(data: &[[Value; ARITY]]) -> FactStore {
    let mut s = FactStore::new();
    let rel = s.add_relation("R", ARITY);
    for row in data {
        s.append(rel, row);
    }
    s
}

struct Row {
    family: &'static str,
    n: usize,
    wall_us: Timing,
    mfacts_per_s: f64,
}

fn push(rows: &mut Vec<Row>, family: &'static str, n: usize, wall_us: Timing) {
    let mfacts_per_s = n as f64 / wall_us.median as f64; // 1 fact/us = 1 Mfact/s
    eprintln!(
        "[store_bench] {family} n={n}: {}us ({mfacts_per_s:.2} Mfacts/s)",
        wall_us.median
    );
    rows.push(Row {
        family,
        n,
        wall_us,
        mfacts_per_s,
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trials = trials(quick);
    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut rows: Vec<Row> = Vec::new();

    for &n in sizes {
        let data = tuples(n);
        let reps = if n >= 1_000_000 { 3 } else { 7 };

        // --- intern: values into dense ids ---
        let wall = time_trials(trials, reps, || {
            let mut s = FactStore::new();
            let mut acc = 0u64;
            for row in &data {
                for &v in row {
                    acc = acc.wrapping_add(u64::from(s.intern_value(v)));
                }
            }
            assert!(!s.values().is_empty(), "interner saw values");
            std::hint::black_box(acc);
        })
        .us();
        push(&mut rows, "intern", n, wall);

        // --- append: columnar fact ingest, one append per fact ---
        let append_wall = time_trials(trials, reps, || {
            let s = build_store(&data);
            assert_eq!(s.n_facts() as usize, n, "append ingests every tuple");
            std::hint::black_box(s.n_live());
        })
        .us();
        push(&mut rows, "append", n, append_wall);

        // --- append_bulk: same ingest through `extend_ids` (the run-
        // grouped bulk path `to_store` and the CSV loader now use).
        // Correctness: bulk and per-fact stores serialize byte-identically.
        {
            let serial = build_store(&data).to_bytes();
            let mut s = FactStore::new();
            let rel = s.add_relation("R", ARITY);
            let mut ids = Vec::with_capacity(n * ARITY);
            for row in &data {
                for &v in row {
                    ids.push(s.intern_value(v));
                }
            }
            s.extend_ids(rel, n as u32, &ids);
            assert_eq!(s.to_bytes(), serial, "bulk append is byte-identical");
        }
        let bulk_wall = time_trials(trials, reps, || {
            let mut s = FactStore::new();
            let rel = s.add_relation("R", ARITY);
            let mut ids = Vec::with_capacity(n * ARITY);
            for row in &data {
                for &v in row {
                    ids.push(s.intern_value(v));
                }
            }
            s.extend_ids(rel, n as u32, &ids);
            assert_eq!(s.n_facts() as usize, n, "bulk append ingests every tuple");
            std::hint::black_box(s.n_live());
        })
        .us();
        push(&mut rows, "append_bulk", n, bulk_wall);
        // The bulk path must improve on (or hold against) per-fact
        // appends — a regression here means `to_store`/ingest got slower.
        // 1.15x headroom absorbs timer noise on sub-millisecond cases.
        let (bulk, append) = (bulk_wall.median, append_wall.median);
        assert!(
            bulk as f64 <= append as f64 * 1.15,
            "append_bulk regressed vs append at n={n}: {bulk}us vs {append}us"
        );

        // --- scan: full pass over the column pages ---
        let store = build_store(&data);
        let expected: u64 = {
            let rel = store.relation("R").expect("R registered");
            let t = store.table(rel);
            t.cols().iter().flatten().map(|&id| u64::from(id)).sum()
        };
        assert!(expected > 0, "scan checksum is nontrivial");
        let wall = time_trials(trials, reps, || {
            let rel = store.relation("R").expect("R registered");
            let t = store.table(rel);
            let mut acc = 0u64;
            for col in t.cols() {
                for &id in col {
                    acc = acc.wrapping_add(u64::from(id));
                }
            }
            assert_eq!(acc, expected, "scan checksum");
            std::hint::black_box(acc);
        })
        .us();
        push(&mut rows, "scan", n, wall);

        // --- snapshot_roundtrip: serialize + load, byte-identical ---
        let bytes = store.to_bytes();
        let reload = FactStore::from_bytes(&bytes).expect("snapshot loads");
        assert_eq!(reload.to_bytes(), bytes, "roundtrip is byte-identical");
        let wall = time_trials(trials, reps, || {
            let b = store.to_bytes();
            let s = FactStore::from_bytes(&b).expect("snapshot loads");
            assert_eq!(s.n_facts() as usize, n, "roundtrip preserves facts");
            std::hint::black_box(s.n_live());
        })
        .us();
        push(&mut rows, "snapshot_roundtrip", n, wall);
    }

    let mut report = Report::new(
        "store_bench: columnar fact store microbenchmarks",
        &["family", "n_facts", "wall_us", "Mfacts_per_s"],
    );
    let mut json_rows: Vec<String> = Vec::new();
    for r in &rows {
        report.row(vec![
            r.family.into(),
            r.n.to_string(),
            r.wall_us.median.to_string(),
            format!("{:.2}", r.mfacts_per_s),
        ]);
        json_rows.push(format!(
            "{{\"family\": \"{}\", \"case\": \"n={}\", \"n_facts\": {}, {}, \
             \"mfacts_per_s\": {:.3}}}",
            r.family,
            r.n,
            r.n,
            r.wall_us.json("wall_us"),
            r.mfacts_per_s
        ));
    }
    report.note("intern = distinct values to dense u32 ids; append = unchecked columnar ingest, one call per fact; append_bulk = run-grouped extend_ids ingest (asserted byte-identical and no slower than append); scan = full column-page pass with checksum; snapshot_roundtrip = to_bytes + from_bytes with byte-identity asserted");
    report.note(format!(
        "times are medians of {trials} trial(s), µs per call"
    ));
    report.note("workload: arity-3 tuples from a fixed-seed LCG, ~1/8 nulls, domain = n/2");
    println!("{report}");

    write_json("store", !quick, 1, trials, &[], &json_rows);
}
