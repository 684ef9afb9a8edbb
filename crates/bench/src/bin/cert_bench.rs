//! Certificate overhead: what does proof-carrying output cost?
//!
//! Three certified pipelines, each timed three ways — the plain engine
//! run (`certify` off, the default hot path), the certified run (same
//! engine plus derivation recording / witness extraction), and the
//! engine-blind checker replaying the emitted certificate:
//!
//! * `cert_chase` — transitive-closure chains and egd collapse through
//!   `chase_certified` vs `chase_with`, checked by `check_chase`;
//! * `cert_query` — the brute-force certain-answer sweep through
//!   `certain_table_certified` vs `certain_table`, every row's
//!   naive match checked by `check_certain_row`;
//! * `cert_core` — retraction through `retract_core_certified` vs
//!   `retract_core`, checked by `check_core`.
//!
//! Every case verifies the certificate (checker says `Ok`) and asserts
//! the certified run reproduces the plain result *before* timing, so
//! the overhead column reports the cost of certification, not of a
//! different computation. The overhead is reported honestly: the
//! certified chase shares the plain run's match phase and adds the
//! derivation recording, and the certified query sweep re-evaluates
//! witnesses naïvely — these are real multiples, not rounding noise. Results go to stdout as a
//! table and to `BENCH_cert.json` (`target/bench/` for `--quick`).

use std::fmt::Write as _;
use std::time::Instant;

use ca_bench::report::Report;
use ca_cert::{check_certain_row, check_chase, check_core};
use ca_core::value::{Null, Value};
use ca_exchange::chase::{chase_certified, chase_with, ChaseConfig, ChaseOutcome, Egd};
use ca_exchange::mapping::Rule;
use ca_gdm::database::GenDb;
use ca_gdm::schema::GenSchema;
use ca_hom::retract::{retract_core, retract_core_certified};
use ca_hom::structure::RelStructure;
use ca_query::certain::certain_table;
use ca_query::certify;
use ca_query::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_relational::database::build::{c, n};
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;

/// Minimum wall time over `reps` runs (damps scheduler noise better
/// than the mean for sub-millisecond cases).
fn min_time_us(reps: u32, mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_micros());
    }
    best.max(1)
}

fn nv(id: u32) -> Value {
    Value::null(id)
}
fn cv(x: i64) -> Value {
    Value::Const(x)
}

struct Row {
    family: &'static str,
    case: String,
    plain_us: u128,
    certified_us: u128,
    check_us: u128,
    cert_bytes: usize,
}

fn push(rows: &mut Vec<Row>, r: Row) {
    eprintln!(
        "[cert_bench] {} {}: plain {}us, certified {}us ({:.2}x), check {}us, {} cert bytes",
        r.family,
        r.case,
        r.plain_us,
        r.certified_us,
        r.certified_us as f64 / r.plain_us as f64,
        r.check_us,
        r.cert_bytes
    );
    rows.push(r);
}

// ---------------------------------------------------------------------------
// cert_chase
// ---------------------------------------------------------------------------

fn t_schema() -> GenSchema {
    GenSchema::from_parts(&[("T", 2)], &[])
}

fn transitivity() -> Rule {
    let mut body = GenDb::new(t_schema());
    body.add_node("T", vec![nv(1), nv(2)]);
    body.add_node("T", vec![nv(2), nv(3)]);
    let mut head = GenDb::new(t_schema());
    head.add_node("T", vec![nv(1), nv(3)]);
    Rule { body, head }
}

fn path_instance(len: usize) -> GenDb {
    let mut d = GenDb::new(t_schema());
    for i in 0..len {
        d.add_node("T", vec![cv(i as i64), cv(i as i64 + 1)]);
    }
    d
}

fn functionality() -> Egd {
    let mut body = GenDb::new(t_schema());
    body.add_node("T", vec![nv(1), nv(2)]);
    body.add_node("T", vec![nv(1), nv(3)]);
    Egd {
        body,
        equal: (Null(2), Null(3)),
    }
}

fn egd_instance(k: usize, m: usize) -> GenDb {
    let mut d = GenDb::new(t_schema());
    for g in 0..k {
        for i in 0..m {
            d.add_node("T", vec![cv(g as i64), nv(1000 + (g * m + i) as u32)]);
        }
        d.add_node("T", vec![cv(g as i64), cv(100 + g as i64)]);
    }
    d
}

fn chase_case(
    rows: &mut Vec<Row>,
    case: String,
    instance: &GenDb,
    tgds: &[Rule],
    egds: &[Egd],
    reps: u32,
) {
    let cfg = ChaseConfig::new(1_000_000);
    let plain = chase_with(instance, tgds, egds, &cfg);
    let (certified, cert) = chase_certified(instance, tgds, egds, &cfg);
    assert_eq!(
        plain, certified,
        "cert_chase {case}: certify changed the outcome"
    );
    let cert = cert.expect("engine certifies these fixtures");
    assert_eq!(
        check_chase(&cert),
        Ok(()),
        "cert_chase {case}: checker rejected"
    );
    if let ChaseOutcome::Done(db) = &plain {
        assert!(db.n_nodes() > 0);
    }
    let plain_us = min_time_us(reps, || {
        std::hint::black_box(chase_with(instance, tgds, egds, &cfg));
    });
    let certified_us = min_time_us(reps, || {
        std::hint::black_box(chase_certified(instance, tgds, egds, &cfg));
    });
    let check_us = min_time_us(reps.max(5), || {
        std::hint::black_box(check_chase(&cert)).ok();
    });
    push(
        rows,
        Row {
            family: "cert_chase",
            case,
            plain_us,
            certified_us,
            check_us,
            cert_bytes: cert.to_bytes().len(),
        },
    );
}

// ---------------------------------------------------------------------------
// cert_query
// ---------------------------------------------------------------------------

/// The determinism fixture shape: a chain + S-membership join with a
/// couple of nulls, big enough that the engine builds hash indices.
fn query_db(size: usize) -> NaiveDatabase {
    let schema = Schema::from_relations(&[("R", 2), ("S", 1)]);
    let mut db = NaiveDatabase::new(schema);
    for i in 0..size as i64 {
        db.add("R", vec![c(i), c(i + 1)]);
        db.add("S", vec![c(i)]);
    }
    db.add("R", vec![c(1), n(1)]);
    db.add("R", vec![n(1), c(3)]);
    db.add("S", vec![n(2)]);
    db
}

fn query() -> UnionQuery {
    use Term::{Const as C, Var as V};
    UnionQuery::new(vec![
        ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
                Atom::new("S", vec![V(0)]),
            ],
        ),
        ConjunctiveQuery::with_head(vec![0, 0], vec![Atom::new("R", vec![C(1), V(0)])]),
    ])
}

fn query_case(rows: &mut Vec<Row>, size: usize, reps: u32) {
    let db = query_db(size);
    let q = query();
    let plain = certain_table(&q, &db);
    let (table, certs) = certify::certain_table_certified(&q, &db);
    assert_eq!(plain, table, "cert_query: certify changed the table");
    assert_eq!(certs.len(), table.len(), "cert_query: uncertified row");
    let cq = certify::cert_query(&q);
    let facts = certify::db_facts(&db);
    for (_, m) in &certs {
        assert_eq!(
            check_certain_row(&cq, &facts, m),
            Ok(()),
            "cert_query: checker rejected"
        );
    }
    let plain_us = min_time_us(reps, || {
        std::hint::black_box(certain_table(&q, &db));
    });
    let certified_us = min_time_us(reps, || {
        std::hint::black_box(certify::certain_table_certified(&q, &db));
    });
    let check_us = min_time_us(reps.max(5), || {
        for (_, m) in &certs {
            std::hint::black_box(check_certain_row(&cq, &facts, m)).ok();
        }
    });
    push(
        rows,
        Row {
            family: "cert_query",
            case: format!("chain size={size} rows={}", table.len()),
            plain_us,
            certified_us,
            check_us,
            cert_bytes: certs.iter().map(|(_, m)| m.to_bytes().len()).sum(),
        },
    );
}

// ---------------------------------------------------------------------------
// cert_core
// ---------------------------------------------------------------------------

/// Disjoint cycles C_{k}, C_2 and a pendant path: retracts onto the
/// short cycles, with several probes racing.
fn core_structure(k: usize) -> RelStructure {
    let total = k + 2 + 3;
    let mut s = RelStructure::new(total);
    for i in 0..k as u32 {
        s.add_tuple(0, vec![i, (i + 1) % k as u32]);
    }
    let b = k as u32;
    s.add_tuple(0, vec![b, b + 1]);
    s.add_tuple(0, vec![b + 1, b]);
    s.add_tuple(0, vec![b + 2, b + 3]);
    s.add_tuple(0, vec![b + 3, b + 4]);
    s.add_tuple(0, vec![b + 4, b + 2]);
    s
}

fn core_case(rows: &mut Vec<Row>, k: usize, reps: u32) {
    let s = core_structure(k);
    let probe: Vec<u32> = (0..s.n_elements as u32).collect();
    let plain = retract_core(&s, &probe);
    let (certified, cert) = retract_core_certified(&s, &probe);
    assert_eq!(
        plain.kept, certified.kept,
        "cert_core: certify changed the retraction"
    );
    assert_eq!(plain.map, certified.map);
    assert_eq!(check_core(&cert), Ok(()), "cert_core: checker rejected");
    let plain_us = min_time_us(reps, || {
        std::hint::black_box(retract_core(&s, &probe));
    });
    let certified_us = min_time_us(reps, || {
        std::hint::black_box(retract_core_certified(&s, &probe));
    });
    let check_us = min_time_us(reps.max(5), || {
        std::hint::black_box(check_core(&cert)).ok();
    });
    push(
        rows,
        Row {
            family: "cert_core",
            case: format!("C{k} ⊔ C2 ⊔ P3, kept={}", certified.kept.len()),
            plain_us,
            certified_us,
            check_us,
            cert_bytes: cert.to_bytes().len(),
        },
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut rows: Vec<Row> = Vec::new();

    let chain_sizes: &[usize] = if quick { &[12] } else { &[12, 24, 48] };
    for &len in chain_sizes {
        chase_case(
            &mut rows,
            format!("chain len={len}"),
            &path_instance(len),
            &[transitivity()],
            &[],
            if quick { 3 } else { 5 },
        );
    }
    let egd_sizes: &[usize] = if quick { &[8] } else { &[8, 24] };
    for &m in egd_sizes {
        chase_case(
            &mut rows,
            format!("egd groups k=4 nulls m={m}"),
            &egd_instance(4, m),
            &[],
            &[functionality()],
            if quick { 3 } else { 5 },
        );
    }
    let query_sizes: &[usize] = if quick { &[18] } else { &[18, 40] };
    for &size in query_sizes {
        query_case(&mut rows, size, if quick { 2 } else { 3 });
    }
    let core_sizes: &[usize] = if quick { &[12] } else { &[12, 48] };
    for &k in core_sizes {
        core_case(&mut rows, k, if quick { 3 } else { 5 });
    }

    let mut report = Report::new(
        "cert_bench: certificate emission and checking overhead",
        &[
            "family",
            "case",
            "plain_us",
            "certified_us",
            "overhead",
            "check_us",
            "cert_bytes",
        ],
    );
    let mut json_rows: Vec<String> = Vec::new();
    for r in &rows {
        let overhead = r.certified_us as f64 / r.plain_us as f64;
        report.row(vec![
            r.family.into(),
            r.case.clone(),
            r.plain_us.to_string(),
            r.certified_us.to_string(),
            format!("{overhead:.2}x"),
            r.check_us.to_string(),
            r.cert_bytes.to_string(),
        ]);
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"family\": \"{}\", \"case\": \"{}\", \
             \"plain_wall_us\": {}, \"certified_wall_us\": {}, \"overhead\": {:.2}, \
             \"check_wall_us\": {}, \"cert_bytes\": {}}}",
            r.family, r.case, r.plain_us, r.certified_us, overhead, r.check_us, r.cert_bytes
        );
        json_rows.push(row);
    }
    report.note("plain = certify off (the default hot path); certified = same engine + derivation recording / witness extraction; check = the engine-blind checker replaying the certificate");
    report.note("every case asserts plain == certified result and checker Ok before timing; the overhead multiple is the honest price of derivation recording (chase) and naive witness re-evaluation (query)");
    println!("{report}");

    let json = format!(
        "{{\n  \"bench\": \"cert_bench\",\n  \"git_rev\": \"{}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        ca_bench::report::git_rev(),
        json_rows.join(",\n")
    );
    ca_bench::report::write_json("cert", !quick, &json);
}
