//! Determinism regression suite: certain-answer *tuple order* must be a
//! pure function of the logical database, never of physical layout.
//!
//! Rust seeds each `HashMap`'s hasher independently (`RandomState::new`
//! draws fresh keys per instance), so two runs of the same binary lay
//! hash tables out differently (`RUST_HASHMAP_SEED`-style variation,
//! which std does not expose). The in-process proxy with the same
//! failure power: *rebuild* the database and its indices several times,
//! inserting facts in different orders. Every rebuild allocates fresh
//! hash tables with fresh per-instance seeds (the engine's lazy indices
//! hash `Vec<Value>` keys), so any place where map iteration order leaks
//! into a result boundary produces different tuple orders across
//! rebuilds — exactly what the `ca-lint` L007 rule guards statically,
//! checked here dynamically. The paper's
//! semantics require this (certain answers are an intersection over
//! completions — Libkin, PODS 2011, Thm 5): evaluation order is an
//! implementation detail and must never be observable.

use ca_core::value::Value;
use ca_query::engine;
use ca_query::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_relational::database::build::{c, n};
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;
use Term::{Const as C, Var as V};

/// The fixed logical content: a two-relation database with enough facts
/// (> INDEX_THRESHOLD = 16 per relation) that the engine actually builds
/// hash indices instead of scanning.
fn facts() -> (Schema, Vec<(&'static str, Vec<Value>)>) {
    let schema = Schema::from_relations(&[("R", 2), ("S", 1)]);
    let mut facts: Vec<(&'static str, Vec<Value>)> = Vec::new();
    for i in 0..18 {
        facts.push(("R", vec![c(i), c(i + 1)]));
        facts.push(("S", vec![c(i)]));
    }
    facts.push(("R", vec![c(1), n(1)]));
    facts.push(("R", vec![n(1), c(3)]));
    facts.push(("R", vec![n(2), c(5)]));
    facts.push(("S", vec![n(1)]));
    (schema, facts)
}

/// Build the database with facts inserted in a permuted order. The
/// store canonicalizes (facts stay sorted), so the logical database is
/// identical; what varies per rebuild is every hash table the engine
/// derives from it — each gets a fresh per-instance `RandomState` seed.
fn build_permuted(rotation: usize) -> NaiveDatabase {
    let (schema, mut fs) = facts();
    let mid = rotation % fs.len();
    fs.rotate_left(mid);
    if rotation % 2 == 1 {
        fs.reverse();
    }
    let mut db = NaiveDatabase::new(schema);
    for (rel, args) in fs {
        db.add(rel, args);
    }
    db
}

fn query() -> UnionQuery {
    UnionQuery::new(vec![
        // Q(x, z) ← R(x, y) ∧ R(y, z) ∧ S(x)
        ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
                Atom::new("S", vec![V(0)]),
            ],
        ),
        // Q(x, x) ← R(1, x)
        ConjunctiveQuery::with_head(vec![0, 0], vec![Atom::new("R", vec![C(1), V(0)])]),
    ])
}

/// Naïve evaluation: identical ordered tuple sequences across rebuilds.
#[test]
fn naive_eval_order_is_layout_independent() {
    let baseline: Vec<Vec<Value>> = engine::eval_ucq(&query(), &build_permuted(0))
        .expect("query fits schema")
        .into_iter()
        .collect();
    assert!(!baseline.is_empty(), "fixture query must have answers");
    for rotation in 1..6 {
        let run: Vec<Vec<Value>> = engine::eval_ucq(&query(), &build_permuted(rotation))
            .expect("query fits schema")
            .into_iter()
            .collect();
        assert_eq!(
            baseline, run,
            "answer tuple order diverged on rebuild #{rotation}: map layout leaked"
        );
    }
}

/// The brute-force certain-answer sweep: identical ordered tuple
/// sequences across rebuilds — physical evaluation order may never vary
/// the result.
#[test]
fn certain_sweep_order_is_layout_and_thread_independent() {
    let pool = [1, 2, 3, 5];
    let plan = |db: &NaiveDatabase| {
        engine::CompiledUcq::compile(&query(), &db.schema).expect("query fits schema")
    };
    let db0 = build_permuted(0);
    let baseline: Vec<Vec<Value>> = engine::certain_table_over(&plan(&db0), &db0, &pool)
        .into_iter()
        .collect();
    for rotation in 0..4 {
        let db = build_permuted(rotation);
        let run: Vec<Vec<Value>> = engine::certain_table_over(&plan(&db), &db, &pool)
            .into_iter()
            .collect();
        assert_eq!(
            baseline, run,
            "certain-answer order diverged (rebuild #{rotation})"
        );
    }
}

/// The incremental retraction engine: the kept vertex set, the induced
/// core, and the witness-derived numbering must be identical across
/// runs, and agree in size with the seed-era reference loop. Pinned on a
/// graph where several probes compete: C12 ⊔ C2 ⊔ C6 ⊔ P3 retracts
/// nontrivially.
#[test]
fn retraction_is_thread_width_independent() {
    use ca_graph::{core_of, reference, Digraph};
    let g = Digraph::cycle(12)
        .disjoint_union(&Digraph::cycle(2))
        .disjoint_union(&Digraph::cycle(6))
        .disjoint_union(&Digraph::path(3));
    let (base_core, base_kept) = core_of(&g);
    let (core, kept) = core_of(&g);
    assert_eq!(base_kept, kept, "kept set diverged between runs");
    assert_eq!(base_core.edges, core.edges);
    assert_eq!(base_core.n, core.n);
    assert_eq!(
        base_core.n,
        reference::core_of(&g).0.n,
        "core size vs oracle"
    );
}

/// Same pin for generalized-database cores: node-for-node identical
/// output across runs, hom-equivalent to the reference loop's core.
#[test]
fn gendb_core_is_thread_width_independent() {
    use ca_exchange::solution::core_of_gendb;
    use ca_gdm::database::GenDb;
    use ca_gdm::schema::GenSchema;
    let schema = GenSchema::from_parts(&[("T", 2)], &[]);
    let mut d = GenDb::new(schema);
    // Three parallel chains x →⊥ᵢ→ y plus one grounded chain: the core
    // keeps a single chain, so several nodes compete for removal.
    for i in 1..=3u32 {
        d.add_node("T", vec![c(1), n(i)]);
        d.add_node("T", vec![n(i), c(2)]);
    }
    d.add_node("T", vec![c(1), c(7)]);
    d.add_node("T", vec![c(7), c(2)]);
    let base = core_of_gendb(&d);
    assert_eq!(base, core_of_gendb(&d), "gendb core diverged between runs");
    let oracle = ca_exchange::reference::core_of_gendb(&d);
    assert_eq!(base.n_nodes(), oracle.n_nodes(), "core size vs oracle");
    assert!(ca_gdm::hom::gdm_equiv(&base, &oracle));
}

/// The columnar store: two *independently built* stores over the same
/// logical database must agree on everything order-sensitive — the fact
/// scan sequence (`iter_live` + `fact_values`), the interner's constant
/// and null tables, and the serialized snapshot, which is byte-identical
/// exactly when every column, bitmap, and directory entry matches.
#[test]
fn store_scan_order_is_build_independent() {
    use ca_relational::store_bridge::to_store;
    let scan = |s: &ca_core::store::FactStore| -> Vec<(String, Vec<Value>)> {
        s.iter_live()
            .map(|f| (s.rel_name(s.fact_rel(f)).to_string(), s.fact_values(f)))
            .collect()
    };
    let base = to_store(&build_permuted(0));
    let base_scan = scan(&base);
    assert!(!base_scan.is_empty(), "fixture store must have facts");
    let base_bytes = base.to_bytes();
    for rotation in 1..6 {
        let other = to_store(&build_permuted(rotation));
        assert_eq!(
            base_scan,
            scan(&other),
            "fact scan order diverged on rebuild #{rotation}"
        );
        assert_eq!(
            base.values().n_consts(),
            other.values().n_consts(),
            "interner constant table diverged on rebuild #{rotation}"
        );
        assert_eq!(
            base_bytes,
            other.to_bytes(),
            "snapshot bytes diverged on rebuild #{rotation}: column or bitmap layout leaked"
        );
    }
}

/// Store-backed evaluation: the lazily built posting tables (CSR or
/// hash) are the only order-sensitive index structure left; answers
/// drawn through them must be identical across independently built
/// stores, for plain evaluation and for the certain-answer sweep. The
/// fixture exceeds `INDEX_THRESHOLD`, so postings are genuinely probed.
#[test]
fn store_backed_postings_are_layout_and_thread_independent() {
    use ca_query::engine::DbIndex;
    use ca_relational::store_bridge::to_store;
    let pool = [1, 2, 3, 5];
    let db0 = build_permuted(0);
    let plan = engine::CompiledUcq::compile(&query(), &db0.schema).expect("query fits schema");
    let store0 = to_store(&db0);
    let mut idx0 = DbIndex::over(&store0);
    let baseline: Vec<Vec<Value>> = engine::eval_ucq_on(&plan, &mut idx0).into_iter().collect();
    assert!(!baseline.is_empty(), "fixture query must have answers");
    let certain_base: Vec<Vec<Value>> = engine::certain_table_over(&plan, &db0, &pool)
        .into_iter()
        .collect();
    for rotation in 1..4 {
        let db = build_permuted(rotation);
        let store = to_store(&db);
        let mut idx = DbIndex::over(&store);
        let run: Vec<Vec<Value>> = engine::eval_ucq_on(&plan, &mut idx).into_iter().collect();
        assert_eq!(
            baseline, run,
            "store-backed answers diverged on rebuild #{rotation}: posting order leaked"
        );
        let certain: Vec<Vec<Value>> = engine::certain_table_over(&plan, &db, &pool)
            .into_iter()
            .collect();
        assert_eq!(
            certain_base, certain,
            "certain answers diverged (rebuild #{rotation})"
        );
    }
}

/// Certificates are part of the result boundary, so the same pin
/// discipline applies to their canonical bytes: the certified
/// certain-answer drivers must emit byte-identical certificates across
/// independently rebuilt databases (fresh hash-table seeds everywhere).
#[test]
fn query_certificates_are_layout_and_thread_independent() {
    use ca_query::certify;
    let q = query();
    let baseline = {
        let db = build_permuted(0);
        let (verdict, cert) = certify::certain_bool_certified(&q, &db);
        let (table, certs) = certify::certain_table_certified(&q, &db);
        assert!(!table.is_empty(), "fixture query must have certain rows");
        assert_eq!(certs.len(), table.len(), "every certain row certifies");
        (
            verdict,
            cert.map(|c| c.to_bytes()),
            certs
                .iter()
                .flat_map(|(_, m)| m.to_bytes())
                .collect::<Vec<u8>>(),
        )
    };
    for rotation in 0..4 {
        let db = build_permuted(rotation);
        let (verdict, cert) = certify::certain_bool_certified(&q, &db);
        let (_, certs) = certify::certain_table_certified(&q, &db);
        let run = (
            verdict,
            cert.map(|c| c.to_bytes()),
            certs
                .iter()
                .flat_map(|(_, m)| m.to_bytes())
                .collect::<Vec<u8>>(),
        );
        assert_eq!(
            baseline, run,
            "certificate bytes diverged (rebuild #{rotation})"
        );
    }
}

/// Refutation certificates are pinned byte for byte: for every naive
/// answer row of the fixture (null rows among them) and a few rows that
/// are never answers (one holding a constant absent from the database),
/// `refute_row` finds the lowest falsifying completion, or none for a
/// certain row. Golden `(length, FNV-1a-64 digest)` of the concatenated
/// bytes, one tag byte per row; the checker accepts every refutation.
#[test]
fn refutation_certificates_are_pinned() {
    use ca_query::certify::{cert_query, db_facts, refute_row};
    let q = query();
    let db = build_permuted(0);
    let mut rows: Vec<Vec<Value>> = engine::eval_ucq(&q, &db)
        .expect("fixture query compiles")
        .into_iter()
        .collect();
    rows.extend([
        vec![c(987_654), c(1)],
        vec![c(3), c(3)],
        vec![c(5), c(5)],
        vec![n(2), c(5)],
    ]);
    let (cq, facts) = (cert_query(&q), db_facts(&db));
    let mut bytes = Vec::new();
    let mut refuted = 0;
    for row in &rows {
        match refute_row(&q, &db, row) {
            Some(nc) => {
                assert_eq!(ca_cert::check_non_certain(&cq, &facts, &nc), Ok(()));
                bytes.push(1);
                bytes.extend(nc.to_bytes());
                refuted += 1;
            }
            None => bytes.push(0),
        }
    }
    assert!(
        refuted > 0 && refuted < rows.len(),
        "fixture mixes both verdicts"
    );
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (418, 10_321_425_107_586_468_254),
        "refutation bytes moved"
    );
}

/// Chase derivation logs: byte-identical certificates and equal chased
/// instances (node order included) across independently rebuilt
/// instances, and certificates accepted by the checker. Two
/// fixtures: egd-free transitivity over one relation, and the pipeline
/// benchmark's shape — copy rules, an existential rule, a transitive
/// rule and an egd merge, over seven relations.
#[test]
fn chase_certificates_are_layout_and_thread_independent() {
    use ca_cert::ChaseStep;
    use ca_core::value::Null;
    use ca_exchange::chase::{chase_certified, ChaseConfig, ChaseOutcome, Egd};
    use ca_exchange::mapping::Rule;
    use ca_gdm::database::GenDb;
    use ca_gdm::schema::GenSchema;

    type Facts = Vec<(&'static str, Vec<Value>)>;
    let schema = GenSchema::from_parts(
        &[
            ("T", 2),
            ("Emp", 2),
            ("Lead", 2),
            ("Dept", 2),
            ("Works", 2),
            ("Boss", 2),
            ("Site", 2),
            ("Reports", 2),
        ],
        &[],
    );
    // Variable `k` of a pattern is the null `k`.
    let pattern = |atoms: &[(&str, [u32; 2])]| {
        let mut d = GenDb::new(schema.clone());
        for (rel, [a, b]) in atoms {
            d.add_node(rel, vec![n(*a), n(*b)]);
        }
        d
    };
    let rule = |body: &[(&str, [u32; 2])], head: &[(&str, [u32; 2])]| Rule {
        body: pattern(body),
        head: pattern(head),
    };
    // Transitivity keeps the chase multi-round without diverging.
    let chain: Facts = vec![
        ("T", vec![c(1), c(2)]),
        ("T", vec![c(2), n(4)]),
        ("T", vec![n(4), c(3)]),
        ("T", vec![c(3), n(5)]),
    ];
    let transitivity = vec![rule(&[("T", [1, 2]), ("T", [2, 3])], &[("T", [1, 3])])];
    // Departments 1–4 with staff 10–14. Department 3's lead is known
    // (13) and unknown (⊥5), so the egd merges ⊥5 into 13; department 4
    // has no lead, so the existential rule draws it a fresh boss.
    let org: Facts = vec![
        ("Emp", vec![c(10), c(1)]),
        ("Emp", vec![c(11), c(2)]),
        ("Emp", vec![c(12), c(3)]),
        ("Emp", vec![c(14), c(4)]),
        ("Lead", vec![c(1), c(11)]),
        ("Lead", vec![c(2), c(12)]),
        ("Lead", vec![c(3), n(5)]),
        ("Lead", vec![c(3), c(13)]),
        ("Dept", vec![c(1), c(2)]),
        ("Dept", vec![c(2), c(3)]),
        ("Dept", vec![c(3), c(4)]),
        ("Dept", vec![c(4), c(4)]),
    ];
    let org_tgds = vec![
        rule(&[("Emp", [1, 2])], &[("Works", [1, 2])]),
        rule(&[("Dept", [1, 2])], &[("Site", [1, 2])]),
        rule(&[("Lead", [1, 2])], &[("Boss", [1, 2])]),
        rule(&[("Site", [1, 2])], &[("Boss", [1, 3])]),
        rule(
            &[("Works", [1, 2]), ("Boss", [2, 3])],
            &[("Reports", [1, 3])],
        ),
        rule(
            &[("Reports", [1, 2]), ("Reports", [2, 3])],
            &[("Reports", [1, 3])],
        ),
    ];
    let org_egds = vec![Egd {
        body: pattern(&[("Boss", [1, 2]), ("Boss", [1, 3])]),
        equal: (Null(2), Null(3)),
    }];
    let cfg = ChaseConfig::new(10_000);
    // Golden `(to_bytes() length, FNV-1a-64 digest)` per fixture. Layout
    // independence alone cannot catch a change of witness choice or
    // fresh-null order that every rebuild shares; these pin the bytes.
    let golden: [(usize, u64); 2] = [
        (711, 5_836_385_281_055_889_866),
        (2647, 12_412_491_918_764_777_015),
    ];
    let fixtures: [(Facts, Vec<Rule>, Vec<Egd>); 2] =
        [(chain, transitivity, Vec::new()), (org, org_tgds, org_egds)];
    for ((facts, tgds, egds), golden) in fixtures.iter().zip(golden) {
        // Permuted insertion order: the logical instance is identical,
        // the interner and every derived hash table is rebuilt from
        // scratch.
        let run = |rotation: usize| {
            let mut facts = facts.clone();
            let mid = rotation % facts.len();
            facts.rotate_left(mid);
            let mut d = GenDb::new(schema.clone());
            for (rel, args) in facts {
                d.add_node(rel, args);
            }
            let (outcome, cert) = chase_certified(&d, tgds, egds, &cfg);
            (outcome, cert.expect("engine certifies the fixture chase"))
        };
        let (chased, baseline) = run(0);
        assert!(matches!(chased, ChaseOutcome::Done(_)), "{chased:?}");
        assert_eq!(ca_cert::check_chase(&baseline), Ok(()));
        if !egds.is_empty() {
            let steps = &baseline.steps;
            assert!(steps.iter().any(|s| matches!(s, ChaseStep::Merge { .. })));
            assert!(steps
                .iter()
                .any(|s| matches!(s, ChaseStep::Fire { fresh, .. } if !fresh.is_empty())));
        }
        let baseline = baseline.to_bytes();
        assert_eq!(
            (baseline.len(), fnv1a64(&baseline)),
            golden,
            "chase certificate bytes moved"
        );
        for rotation in 0..facts.len() {
            let (outcome, cert) = run(rotation);
            // The chased instance itself, node order included, is
            // canonical: not just equal up to a permutation of nodes.
            assert_eq!(
                chased, outcome,
                "chased instance diverged (rebuild #{rotation})"
            );
            assert_eq!(
                baseline,
                cert.to_bytes(),
                "chase certificate bytes diverged (rebuild #{rotation})"
            );
        }
    }
}

/// FNV-1a, 64-bit: a digest that, unlike `DefaultHasher`, is fixed
/// across Rust releases, so it can be pinned.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Core-retraction certificates: byte-identical fold/endomorphism chains
/// across runs, accepted by the checker.
#[test]
fn core_certificates_are_thread_width_independent() {
    use ca_hom::retract::retract_core_certified;
    use ca_hom::structure::RelStructure;

    // C6 ⊔ C2 ⊔ a pendant path: several probes race for removal.
    let mut s = RelStructure::new(11);
    for i in 0..6u32 {
        s.add_tuple(0, vec![i, (i + 1) % 6]);
    }
    s.add_tuple(0, vec![6, 7]);
    s.add_tuple(0, vec![7, 6]);
    s.add_tuple(0, vec![8, 9]);
    s.add_tuple(0, vec![9, 10]);
    s.add_tuple(0, vec![10, 8]);
    let probe: Vec<u32> = (0..11).collect();
    let (base_r, base_cert) = retract_core_certified(&s, &probe);
    assert_eq!(ca_cert::check_core(&base_cert), Ok(()));
    let (r, cert) = retract_core_certified(&s, &probe);
    assert_eq!(base_r.kept, r.kept, "kept set diverged between runs");
    assert_eq!(
        base_cert.to_bytes(),
        cert.to_bytes(),
        "core certificate bytes diverged between runs"
    );
}

/// The streaming CSV loader: loaded stores byte-identical at every parse
/// width, and malformed input surfaces the *same typed error at the same
/// line* at every width — the reorder buffer applies batches in sequence
/// order, so neither data nor diagnostics may depend on worker racing.
#[test]
fn csv_ingest_is_width_independent_and_errors_are_typed() {
    use ca_core::store::ingest::{load_csv_bytes, IngestError};
    use ca_core::store::FactStore;

    let mut csv = String::from("# edge list\n");
    for i in 0..40 {
        csv.push_str(&format!("E,{},{}\nL,{},?{}\n", i, i + 1, i, i % 5));
    }
    let mut base = FactStore::new();
    let loaded = load_csv_bytes(csv.as_bytes(), &mut base, 1).expect("clean csv loads");
    assert_eq!(loaded, 80, "loader ingests every row");
    let base_bytes = base.to_bytes();
    for width in [2usize, 4, 7] {
        let mut s = FactStore::new();
        load_csv_bytes(csv.as_bytes(), &mut s, width).expect("clean csv loads");
        assert_eq!(
            s.to_bytes(),
            base_bytes,
            "loaded store diverged at parse width {width}"
        );
    }

    // Truncated row: arity declared 2 by line 2, line 3 has 1 field.
    let truncated = "# header\nE,1,2\nE,3\nE,4,5\n";
    // Unparseable field on line 2.
    let bad_value = "E,1,2\nE,x7,3\n";
    // Line 2 is not UTF-8 (lone 0xFF inside the row).
    let non_utf8: &[u8] = b"E,1,2\nE,\xff,3\n";
    for width in [1usize, 2, 4, 7] {
        let err = |bytes: &[u8]| {
            let mut s = FactStore::new();
            load_csv_bytes(bytes, &mut s, width).expect_err("malformed csv must not load")
        };
        assert_eq!(
            err(truncated.as_bytes()),
            IngestError::BadArity {
                line: 3,
                rel: "E".into(),
                declared: 2,
                got: 1
            },
            "truncated-row error diverged at width {width}"
        );
        assert_eq!(
            err(bad_value.as_bytes()),
            IngestError::BadValue {
                line: 2,
                token: "x7".into()
            },
            "bad-value error diverged at width {width}"
        );
        assert_eq!(
            err(non_utf8),
            IngestError::NonUtf8 { line: 2 },
            "non-utf8 error diverged at width {width}"
        );
    }
}

/// Sanity for the proxy itself: permuted insertion is canonicalized
/// away by the sorted fact store, so every rebuild is the *same*
/// logical database — any divergence the tests above could observe
/// would therefore be pure layout leakage, never a data difference.
#[test]
fn rebuilds_agree_logically() {
    let a = build_permuted(0);
    for rotation in 1..6 {
        let b = build_permuted(rotation);
        assert!(
            a.facts().eq(b.facts()),
            "rebuild #{rotation} changed the data"
        );
        assert_eq!(a.nulls(), b.nulls());
        assert_eq!(a.constants(), b.constants());
    }
}
