//! Fixture self-tests: one positive and one negative snippet per rule.
//!
//! Every positive fixture is asserted twice — the rule fires when
//! enabled, and the finding *disappears when the rule is disabled* — so
//! each rule is provably load-bearing (a rule that never fires, or a
//! harness that ignores `enabled`, fails here).

use ca_lint::rules::CATALOG;
use ca_lint::{lint_source, lint_sources, LintConfig};

/// A path inside a result-producing module for L004 fixtures.
const RESULT_PATH: &str = "crates/query/src/engine/fixture.rs";
/// An ordinary library path for L002/L003/L005/L010 fixtures.
const LIB_PATH: &str = "crates/gdm/src/fixture.rs";
/// The L007 determinism-taint seed location (certificate bytes).
const CERT_BYTES_PATH: &str = "crates/cert/src/bytes.rs";
/// The L008 untrusted-input seed location (snapshot parsing).
const SNAPSHOT_PATH: &str = "crates/core/src/store/snapshot.rs";

fn codes(path: &str, src: &str, cfg: &LintConfig) -> Vec<&'static str> {
    lint_source(path, src, cfg)
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

/// Assert `src` at `path` trips `rule` — and stops tripping it when the
/// rule is disabled.
fn assert_fires(rule: &'static str, path: &str, src: &str) {
    let design = "documented: CA_PART_THREADS".to_string();
    let with = codes(path, src, &LintConfig::all(design.clone()));
    assert!(
        with.contains(&rule),
        "{rule} should fire on the positive fixture at {path}; got {with:?}"
    );
    let without = codes(path, src, &LintConfig::all_except(rule, design));
    assert!(
        !without.contains(&rule),
        "{rule} must vanish when disabled; got {without:?}"
    );
}

/// Assert `src` at `path` is clean for `rule` with every rule enabled.
fn assert_clean(rule: &'static str, path: &str, src: &str) {
    let design = "documented: CA_PART_THREADS".to_string();
    let got = codes(path, src, &LintConfig::all(design));
    assert!(
        !got.contains(&rule),
        "{rule} must not fire on the negative fixture at {path}; got {got:?}"
    );
}

// ------------------------------------------------------------------ L002

#[test]
fn l002_fires_on_unwrap_expect_panic_and_literal_index() {
    assert_fires(
        "L002",
        LIB_PATH,
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
    );
    assert_fires(
        "L002",
        LIB_PATH,
        "fn f(x: Option<u32>) -> u32 { x.expect(\"always\") }",
    );
    assert_fires("L002", LIB_PATH, "fn f() { panic!(\"boom\") }");
    assert_fires("L002", LIB_PATH, "fn f(v: &[u32]) -> u32 { v[0] }");
}

#[test]
fn l002_ignores_tests_benches_and_array_literals() {
    // In a #[cfg(test)] module: fine.
    assert_clean(
        "L002",
        LIB_PATH,
        "#[cfg(test)]\nmod tests {\n fn t(x: Option<u32>) { x.unwrap(); }\n}",
    );
    // In the bench crate: fine.
    assert_clean(
        "L002",
        "crates/bench/src/report.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
    );
    // Array literals and unwrap_or are not flagged.
    assert_clean(
        "L002",
        LIB_PATH,
        "fn f(x: Option<u32>) -> u32 { let _a = [0]; let _b = [0; 4]; x.unwrap_or(1) }",
    );
    // A commented-out unwrap is not code.
    assert_clean("L002", LIB_PATH, "fn f() {} // x.unwrap() would panic");
}

// ------------------------------------------------------------------ L003

#[test]
fn l003_fires_on_stray_threads_and_env_reads() {
    assert_fires("L003", LIB_PATH, "fn f() { std::thread::spawn(|| {}); }");
    assert_fires(
        "L003",
        LIB_PATH,
        "fn f() -> usize { std::env::var(\"CA_SECRET_KNOB\").map_or(1, |v| v.len()) }",
    );
}

#[test]
fn l003_fires_in_the_sweep_and_the_csp() {
    // The completion sweep and the CSP search run on the calling thread:
    // a fan-out there is not sanctioned.
    assert_fires(
        "L003",
        "crates/query/src/engine/sweep.rs",
        "fn f() { std::thread::scope(|_| {}); }",
    );
    assert_fires(
        "L003",
        "crates/hom/src/csp.rs",
        "fn f() { std::thread::scope(|_| {}); }",
    );
}

#[test]
fn l003_sanctions_the_loader_and_config() {
    assert_clean(
        "L003",
        "crates/core/src/store/ingest.rs",
        "fn f() { std::thread::scope(|_| {}); }",
    );
    assert_clean(
        "L003",
        "crates/core/src/config.rs",
        "fn f() -> bool { std::env::var(\"CA_PART_THREADS\").is_ok() }",
    );
    // Non-CA_ env reads are out of scope for L003.
    assert_clean(
        "L003",
        LIB_PATH,
        "fn f() -> bool { std::env::var(\"PROPTEST_CASES\").is_ok() }",
    );
}

// ------------------------------------------------------------------ L004

#[test]
fn l004_fires_on_wall_clock_in_result_modules() {
    assert_fires(
        "L004",
        RESULT_PATH,
        "fn f() -> std::time::Instant { std::time::Instant::now() }",
    );
    assert_fires(
        "L004",
        RESULT_PATH,
        "fn f() { let _ = std::time::SystemTime::now(); }",
    );
}

#[test]
fn l004_allows_timing_in_benches_and_tests() {
    // Outside result modules: fine.
    assert_clean(
        "L004",
        "crates/bench/src/report.rs",
        "fn f() -> std::time::Instant { std::time::Instant::now() }",
    );
    // In a test module of a result module: fine.
    assert_clean(
        "L004",
        RESULT_PATH,
        "#[cfg(test)]\nmod tests {\n fn t() { let _ = std::time::Instant::now(); }\n}",
    );
}

// ------------------------------------------------------------------ L005

#[test]
fn l005_fires_on_undocumented_env_var() {
    assert_fires(
        "L005",
        LIB_PATH,
        "const KNOB: &str = \"CA_UNDOCUMENTED_KNOB\";",
    );
}

#[test]
fn l005_accepts_documented_vars_and_non_var_strings() {
    // CA_PART_THREADS is in the fixture design doc.
    assert_clean("L005", LIB_PATH, "const KNOB: &str = \"CA_PART_THREADS\";");
    // Lowercase / prefix-only strings are not env-var names.
    assert_clean(
        "L005",
        LIB_PATH,
        "const A: &str = \"CA_\"; const B: &str = \"ca_lower\"; const C: &str = \"CApital\";",
    );
}

// ------------------------------------------------------------------ L006

#[test]
fn l006_fires_on_a_use_of_a_higher_layer() {
    // ca-core sits at the bottom of the layering table: it may depend on
    // nothing, so naming ca_query is a violation.
    assert_fires(
        "L006",
        "crates/core/src/fixture.rs",
        "use ca_query::engine::Plan;\nfn f() {}",
    );
}

#[test]
fn l006_fires_on_an_inline_qualified_path() {
    assert_fires(
        "L006",
        "crates/core/src/fixture.rs",
        "fn f() -> u32 { ca_xml::tree::root_count() }",
    );
}

#[test]
fn l006_fires_on_an_undeclared_manifest_dependency() {
    let files = [(
        "crates/core/src/fixture.rs".to_string(),
        "fn f() {}".to_string(),
    )];
    let manifests = [(
        "crates/core/Cargo.toml".to_string(),
        "[package]\nname = \"ca-core\"\n\n[dependencies]\nca-query = { path = \"../query\" }\n"
            .to_string(),
    )];
    let design = "documented: CA_PART_THREADS".to_string();
    let got = lint_sources(&files, &manifests, &LintConfig::all(design.clone()));
    assert!(
        got.iter()
            .any(|v| v.rule == "L006" && v.path == "crates/core/Cargo.toml"),
        "manifest dep above ca-core's layer must fire at the manifest; got {got:?}"
    );
    let without = lint_sources(&files, &manifests, &LintConfig::all_except("L006", design));
    assert!(
        !without.iter().any(|v| v.rule == "L006"),
        "L006 must vanish when disabled; got {without:?}"
    );
}

#[test]
fn l006_accepts_declared_layers_std_and_tests() {
    // ca-query may use ca-core (declared), and std/core are never crates
    // in the layering sense.
    assert_clean(
        "L006",
        "crates/query/src/fixture.rs",
        "use ca_core::store::FactStore;\nuse std::collections::BTreeMap;\nfn f() {}",
    );
    // Test code may reach across layers (differential oracles do).
    assert_clean(
        "L006",
        "crates/core/src/fixture.rs",
        "#[cfg(test)]\nmod tests {\n    use ca_query::engine::Plan;\n    fn t() {}\n}",
    );
}

// ------------------------------------------------------------------ L007

#[test]
fn l007_fires_on_hash_iteration_reachable_from_a_seed() {
    // to_bytes at the certificate-bytes path is a seed; helper() is in
    // its call cone and iterates a HashMap.
    let src = r#"
use std::collections::HashMap;
pub fn to_bytes() -> Vec<u8> { helper() }
fn helper() -> Vec<u8> {
    let m: HashMap<u32, u32> = HashMap::new();
    let mut out = Vec::new();
    for k in m.iter() { out.push(0u8); let _ = k; }
    out
}
"#;
    assert_fires("L007", CERT_BYTES_PATH, src);
}

#[test]
fn l007_fires_on_a_borrowed_hash_parameter() {
    // The hash collection arrives as `&HashMap` / `&'a mut HashMap`
    // parameters — the binding walk must see through the reference
    // prefix, not just `let`-bound locals.
    let src = r#"
use std::collections::HashMap;
pub fn to_bytes(m: &HashMap<u32, u32>) -> Vec<u8> { emit(m) }
fn emit(m: &HashMap<u32, u32>) -> Vec<u8> {
    let mut out = Vec::new();
    for k in m.iter() { out.push(0u8); let _ = k; }
    out
}
"#;
    assert_fires("L007", CERT_BYTES_PATH, src);
}

#[test]
fn l007_fires_on_randomstate_in_a_seed_itself() {
    let src = "pub fn to_bytes() -> Vec<u8> { let _s = std::collections::hash_map::RandomState::new(); Vec::new() }";
    assert_fires("L007", CERT_BYTES_PATH, src);
}

#[test]
fn l007_ignores_unreachable_and_btree_iteration() {
    // Same tainted body, but nothing connects it to a seed.
    let src = r#"
use std::collections::HashMap;
fn helper() -> Vec<u8> {
    let m: HashMap<u32, u32> = HashMap::new();
    let mut out = Vec::new();
    for k in m.iter() { out.push(0u8); let _ = k; }
    out
}
"#;
    assert_clean("L007", CERT_BYTES_PATH, src);
    // BTreeMap iteration in a seed's cone is deterministic and fine.
    let src = r#"
use std::collections::BTreeMap;
pub fn to_bytes() -> Vec<u8> {
    let m: BTreeMap<u32, u32> = BTreeMap::new();
    m.keys().map(|_| 0u8).collect()
}
"#;
    assert_clean("L007", CERT_BYTES_PATH, src);
}

// ------------------------------------------------------------------ L008

#[test]
fn l008_fires_on_panicky_ops_reachable_from_byte_parsing() {
    // `parse` at the snapshot path seeds the untrusted cone.
    assert_fires(
        "L008",
        SNAPSHOT_PATH,
        "pub fn parse(buf: &[u8]) -> u8 { helper(buf) }\nfn helper(buf: &[u8]) -> u8 { buf.first().copied().unwrap() }",
    );
    assert_fires(
        "L008",
        SNAPSHOT_PATH,
        "pub fn from_bytes(buf: &[u8]) -> u8 { buf[3] }",
    );
    assert_fires(
        "L008",
        SNAPSHOT_PATH,
        "pub fn parse(off: usize, len: usize) -> usize { off + len }",
    );
}

#[test]
fn l008_ignores_unreachable_code_and_compound_assignment() {
    // The same panicky body with no seed calling it is out of the cone.
    assert_clean(
        "L008",
        SNAPSHOT_PATH,
        "fn helper(buf: &[u8]) -> u8 { buf.first().copied().unwrap() }",
    );
    // `+=` on a counter is not offset arithmetic into the buffer.
    assert_clean(
        "L008",
        SNAPSHOT_PATH,
        "pub fn parse(buf: &[u8]) -> usize { let mut n_total = 0usize; n_total += buf.len(); n_total }",
    );
}

// ------------------------------------------------------------------ L009

#[test]
fn l009_fires_on_truncating_casts_in_store_code() {
    assert_fires(
        "L009",
        "crates/core/src/store/fixture.rs",
        "pub fn count(n: usize) -> u32 { n as u32 }",
    );
    // Outside crates/core, mentioning ValueId opts the file in.
    assert_fires(
        "L009",
        "crates/query/src/fixture.rs",
        "use ca_core::store::ValueId;\npub fn shrink(id: ValueId) -> u16 { id as u16 }",
    );
}

#[test]
fn l009_ignores_tests_widening_casts_and_unscoped_files() {
    assert_clean(
        "L009",
        "crates/core/src/store/fixture.rs",
        "#[cfg(test)]\nmod tests {\n    fn t(n: usize) -> u32 { n as u32 }\n}",
    );
    assert_clean(
        "L009",
        "crates/core/src/store/fixture.rs",
        "pub fn widen(n: u32) -> u64 { n as u64 }",
    );
    // No ValueId/FactId mention and not under crates/core: out of scope.
    assert_clean(
        "L009",
        "crates/gdm/src/fixture.rs",
        "pub fn count(n: usize) -> u32 { n as u32 }",
    );
}

// ------------------------------------------------------------------ L010

#[test]
fn l010_fires_on_threads_without_a_deterministic_merge() {
    assert_fires(
        "L010",
        LIB_PATH,
        "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
    );
    // Only the config module is merge-exempt; the sweep is scanned.
    assert_fires(
        "L010",
        "crates/query/src/engine/sweep.rs",
        "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
    );
}

#[test]
fn l010_accepts_merged_results_and_sanctioned_files() {
    // A sort after the scope is a deterministic merge.
    assert_clean(
        "L010",
        LIB_PATH,
        "fn f() { let mut out: Vec<u32> = Vec::new(); std::thread::scope(|s| { s.spawn(|| {}); }); out.sort_unstable(); }",
    );
    // The config module only reads `available_parallelism`.
    assert_clean(
        "L010",
        "crates/core/src/config.rs",
        "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
    );
}

// ------------------------------------------- suppression, end to end

#[test]
fn inline_allow_suppresses_with_reason() {
    let design = String::new();
    let src = "fn f(x: Option<u32>) -> u32 {\n    // ca-lint: allow(L002, reason = \"fixture invariant\")\n    x.unwrap()\n}";
    let got = codes(LIB_PATH, src, &LintConfig::all(design));
    assert!(
        got.is_empty(),
        "allowed violation must be suppressed; got {got:?}"
    );
}

#[test]
fn inline_allow_without_reason_is_itself_a_violation() {
    let design = String::new();
    let src = "fn f(x: Option<u32>) -> u32 {\n    // ca-lint: allow(L002)\n    x.unwrap()\n}";
    let got = codes(LIB_PATH, src, &LintConfig::all(design));
    assert!(got.contains(&"L002"), "reason-less allow must not suppress");
    assert!(got.contains(&"L000"), "reason-less allow is reported");
}

#[test]
fn inline_allow_only_covers_its_own_lines() {
    let design = String::new();
    let src = "fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n    // ca-lint: allow(L002, reason = \"first only\")\n    let a = x.unwrap();\n    let b = y.unwrap();\n    a + b\n}";
    let got = codes(LIB_PATH, src, &LintConfig::all(design));
    assert_eq!(
        got,
        vec!["L002"],
        "second unwrap (two lines below) still fires"
    );
}

// ------------------------------------------------- catalog sanity

#[test]
fn every_catalog_rule_has_a_fixture() {
    // Guards against adding a rule without extending this corpus: the
    // list here must mention every catalog code.
    let covered = [
        "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009", "L010",
    ];
    for (code, _, _) in CATALOG {
        assert!(covered.contains(&code), "no fixture coverage for {code}");
    }
}
