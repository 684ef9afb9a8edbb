//! `store_snapshot` — pack, inspect, and dump columnar-store snapshots.
//!
//! The workspace fact store (`ca_core::store`) serializes to a
//! versioned little-endian snapshot; this CLI is the operational
//! surface around it:
//!
//! ```text
//! store_snapshot pack <db.txt> <out.snapshot>   # text database → snapshot
//! store_snapshot info <snapshot>                # header + per-relation stats
//! store_snapshot dump <snapshot>                # snapshot → text database on stdout
//! store_snapshot gen <n_facts> <out> [--seed <u64>] [--csv]
//!                                               # seeded synthetic data at any size
//! ```
//!
//! `pack` parses the `R(1, ?x, _)` text syntax (`ca_relational::parse`),
//! bulk-loads it through `to_store`, and writes `FactStore::to_bytes`.
//! `info` loads the store (validating every section) and prints the
//! format version, the header counts, and per-column statistics computed
//! from the live rows by `stats::compute_exact`. `dump` round-trips
//! through `FactStore` and prints one fact per line in the same text
//! syntax `pack` accepts, so `pack` ∘ `dump` is the identity on
//! normalized databases.
//!
//! `gen` writes a deterministic synthetic workload at the requested fact
//! count — the same fixed-seed LCG shape the store/ingest benches use
//! (arity-3 relation `F`, ~1/8 labelled nulls, constant domain `n/2`) —
//! as a CASTORE snapshot by default or as ingest-dialect CSV
//! (`F,1,?2,3` lines) with `--csv`. The same `(n, seed)` always yields
//! byte-identical output, so fixtures for the 10⁵–10⁷ ingest scaling
//! family never need to be checked in.

use std::process::ExitCode;

use ca_core::store::stats::compute_exact;
use ca_core::store::{FactStore, SNAPSHOT_VERSION};
use ca_core::value::Value;
use ca_relational::{from_store, parse_database, to_store};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  store_snapshot pack <db.txt> <out.snapshot>\n  \
         store_snapshot info <snapshot>\n  store_snapshot dump <snapshot>\n  \
         store_snapshot gen <n_facts> <out> [--seed <u64>] [--csv]"
    );
    ExitCode::FAILURE
}

fn fail(what: &str, err: impl std::fmt::Display) -> ExitCode {
    eprintln!("store_snapshot: {what}: {err}");
    ExitCode::FAILURE
}

fn pack(db_path: &str, out_path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(db_path) {
        Ok(t) => t,
        Err(e) => return fail(db_path, e),
    };
    let db = match parse_database(&text) {
        Ok(db) => db,
        Err(e) => return fail(db_path, e),
    };
    let bytes = to_store(&db).to_bytes();
    if let Err(e) = std::fs::write(out_path, &bytes) {
        return fail(out_path, e);
    }
    eprintln!(
        "store_snapshot: packed {} fact(s) into {} ({} bytes)",
        db.len(),
        out_path,
        bytes.len()
    );
    ExitCode::SUCCESS
}

fn info(path: &str) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(path, e),
    };
    let store = match FactStore::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => return fail(path, e),
    };
    println!("snapshot: {path}");
    println!("  bytes:     {}", bytes.len());
    println!("  version:   {SNAPSHOT_VERSION}");
    println!("  constants: {}", store.values().n_consts());
    println!("  nulls:     {}", store.values().n_nulls());
    println!("  facts:     {}", store.n_facts());
    println!("  relations: {}", store.n_relations());
    for (rel, rs) in store.relations().zip(compute_exact(&store)) {
        let table = store.table(rel);
        println!(
            "    {}/{}: {} row(s), {} live",
            store.rel_name(rel),
            table.arity(),
            table.n_rows(),
            rs.n_live
        );
        for (c, cs) in rs.cols.iter().enumerate() {
            println!(
                "      col {c}: {} distinct, consts in [{}, {}]",
                cs.distinct, cs.min_const, cs.max_const
            );
        }
    }
    ExitCode::SUCCESS
}

fn dump(path: &str) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(path, e),
    };
    let store = match FactStore::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => return fail(path, e),
    };
    let db = from_store(&store);
    for f in db.facts() {
        let args: Vec<String> = f
            .args
            .iter()
            .map(|v| match v {
                Value::Const(c) => c.to_string(),
                Value::Null(n) => format!("?x{}", n.0),
            })
            .collect();
        println!("{}({})", db.schema.name(f.rel), args.join(", "));
    }
    ExitCode::SUCCESS
}

/// Deterministic 64-bit LCG (same constants as the store/ingest benches)
/// so `gen` output is a pure function of `(n, seed)`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// The synthetic workload as ingest-dialect CSV: `n` arity-3 `F` rows,
/// ~1/8 labelled nulls, constants from a domain of `n/2`.
fn gen_csv(n: u64, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut rng = Lcg(seed);
    let domain = (n / 2).max(16);
    // ~16 bytes/row for the common all-constant case.
    let mut text = String::with_capacity((n as usize).saturating_mul(16));
    for _ in 0..n {
        text.push('F');
        for _ in 0..3 {
            let x = rng.next();
            if x.is_multiple_of(8) {
                let _ = write!(text, ",?{}", x / 8 % domain);
            } else {
                let _ = write!(text, ",{}", x % domain);
            }
        }
        text.push('\n');
    }
    text
}

fn gen(n_str: &str, out_path: &str, rest: &[String]) -> ExitCode {
    let n: u64 = match n_str.replace('_', "").parse() {
        Ok(n) => n,
        Err(e) => return fail(n_str, e),
    };
    let mut seed: u64 = 0x5eed_cafe;
    let mut csv = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--csv" => csv = true,
            "--seed" => match it.next().map(|s| s.parse()) {
                Some(Ok(s)) => seed = s,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let text = gen_csv(n, seed);
    if csv {
        if let Err(e) = std::fs::write(out_path, text.as_bytes()) {
            return fail(out_path, e);
        }
        eprintln!("store_snapshot: generated {n} fact(s) into {out_path} (csv, seed {seed:#x})");
        return ExitCode::SUCCESS;
    }
    let threads = ca_core::config::part_threads();
    let store = match ca_core::store::ingest::load_bytes(text.as_bytes(), threads) {
        Ok(s) => s,
        Err(e) => return fail("generated csv", e),
    };
    let bytes = store.to_bytes();
    if let Err(e) = std::fs::write(out_path, &bytes) {
        return fail(out_path, e);
    }
    eprintln!(
        "store_snapshot: generated {n} fact(s) into {out_path} ({} bytes, seed {seed:#x})",
        bytes.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("pack") => match (args.get(2), args.get(3)) {
            (Some(db), Some(out)) => pack(db, out),
            _ => usage(),
        },
        Some("info") => match args.get(2) {
            Some(p) => info(p),
            None => usage(),
        },
        Some("dump") => match args.get(2) {
            Some(p) => dump(p),
            None => usage(),
        },
        Some("gen") => match (args.get(2), args.get(3)) {
            (Some(n), Some(out)) => gen(n, out, &args[4..]),
            _ => usage(),
        },
        _ => usage(),
    }
}
