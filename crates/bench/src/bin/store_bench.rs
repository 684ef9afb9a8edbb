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

use std::fmt::Write as _;

use ca_bench::report::{git_rev, min_time_us, Report};
use ca_core::store::FactStore;
use ca_core::value::Value;

/// Deterministic value stream: a fixed-seed LCG so every run (and every
/// host) benches the identical workload. Roughly 1 null per 8 values,
/// constants drawn from a domain of `n/2` so interning sees both fresh
/// and repeated values.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn value(&mut self, domain: u64) -> Value {
        let x = self.next();
        if x.is_multiple_of(8) {
            Value::null((x / 8 % domain.max(1)) as u32)
        } else {
            Value::Const((x % domain.max(1)) as i64)
        }
    }
}

const ARITY: usize = 3;

/// The bench workload: `n` arity-3 tuples over a `n/2`-sized domain.
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
    wall_us: u128,
    mfacts_per_s: f64,
}

fn push(rows: &mut Vec<Row>, family: &'static str, n: usize, wall_us: u128) {
    let mfacts_per_s = n as f64 / wall_us as f64; // 1 fact/us = 1 Mfact/s
    eprintln!("[store_bench] {family} n={n}: {wall_us}us ({mfacts_per_s:.2} Mfacts/s)");
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
        let wall = min_time_us(reps, || {
            let mut s = FactStore::new();
            let mut acc = 0u64;
            for row in &data {
                for &v in row {
                    acc = acc.wrapping_add(u64::from(s.intern_value(v)));
                }
            }
            assert!(!s.values().is_empty(), "interner saw values");
            std::hint::black_box(acc);
        });
        push(&mut rows, "intern", n, wall);

        // --- append: columnar fact ingest, one append per fact ---
        let append_wall = min_time_us(reps, || {
            let s = build_store(&data);
            assert_eq!(s.n_facts() as usize, n, "append ingests every tuple");
            std::hint::black_box(s.n_live());
        });
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
        let bulk_wall = min_time_us(reps, || {
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
        });
        push(&mut rows, "append_bulk", n, bulk_wall);
        // The bulk path must improve on (or hold against) per-fact
        // appends — a regression here means `to_store`/ingest got slower.
        // 1.15x headroom absorbs timer noise on sub-millisecond cases.
        assert!(
            bulk_wall as f64 <= append_wall as f64 * 1.15,
            "append_bulk regressed vs append at n={n}: {bulk_wall}us vs {append_wall}us"
        );

        // --- scan: full pass over the column pages ---
        let store = build_store(&data);
        let expected: u64 = {
            let rel = store.relation("R").expect("R registered");
            let t = store.table(rel);
            t.cols().iter().flatten().map(|&id| u64::from(id)).sum()
        };
        assert!(expected > 0, "scan checksum is nontrivial");
        let wall = min_time_us(reps, || {
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
        });
        push(&mut rows, "scan", n, wall);

        // --- snapshot_roundtrip: serialize + load, byte-identical ---
        let bytes = store.to_bytes();
        let reload = FactStore::from_bytes(&bytes).expect("snapshot loads");
        assert_eq!(reload.to_bytes(), bytes, "roundtrip is byte-identical");
        let wall = min_time_us(reps, || {
            let b = store.to_bytes();
            let s = FactStore::from_bytes(&b).expect("snapshot loads");
            assert_eq!(s.n_facts() as usize, n, "roundtrip preserves facts");
            std::hint::black_box(s.n_live());
        });
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
            r.wall_us.to_string(),
            format!("{:.2}", r.mfacts_per_s),
        ]);
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"family\": \"{}\", \"case\": \"n={}\", \"n_facts\": {}, \
             \"wall_us\": {}, \"mfacts_per_s\": {:.3}}}",
            r.family, r.n, r.n, r.wall_us, r.mfacts_per_s
        );
        json_rows.push(row);
    }
    report.note("intern = distinct values to dense u32 ids; append = unchecked columnar ingest, one call per fact; append_bulk = run-grouped extend_ids ingest (asserted byte-identical and no slower than append); scan = full column-page pass with checksum; snapshot_roundtrip = to_bytes + from_bytes with byte-identity asserted");
    report.note("workload: arity-3 tuples from a fixed-seed LCG, ~1/8 nulls, domain = n/2");
    println!("{report}");

    // Every store_bench family is sequential; the thread fields say so
    // next to the host's core count.
    let json = format!(
        "{{\n  \"bench\": \"store_bench\",\n  \"git_rev\": \"{}\",\n  \"host_cores\": {},\n  \"threads_default\": 1,\n  \"threads_requested\": 1,\n  \"threads_effective\": 1,\n  \"results\": [\n{}\n  ]\n}}\n",
        git_rev(),
        ca_bench::report::host_cores(),
        json_rows.join(",\n")
    );
    ca_bench::report::write_json("store", !quick, &json);
}
