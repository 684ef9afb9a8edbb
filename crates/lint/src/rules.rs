//! The rule engine: four per-file lexical rules and five graph-powered
//! workspace rules.
//!
//! Per-file rules match short token patterns produced by
//! [`crate::lexer`], scoped by file path and by `#[cfg(test)]` /
//! `#[test]` regions. Graph rules additionally see the workspace item
//! graph ([`crate::graph`]): function bodies, a conservative name-based
//! call graph, and the crate dependency DAG. The catalog (kept in sync
//! with DESIGN.md §Static analysis):
//!
//! | code | name | guards |
//! |------|------|--------|
//! | L002 | panic-in-library | `unwrap`/`expect`/`panic!`/indexing-by-literal in library code |
//! | L003 | thread-hygiene | `std::thread` / `CA_*` env reads outside sanctioned modules |
//! | L004 | wall-clock-in-results | `Instant`/`SystemTime` in result-producing modules |
//! | L005 | undocumented-env-var | every `CA_*` variable literal must appear in DESIGN.md |
//! | L006 | crate-layering | manifest deps and cross-crate `use` obey [`LAYERING`] |
//! | L007 | determinism-taint | hash iteration reachable from a deterministic-output seed |
//! | L008 | untrusted-input | unchecked parsing reachable from snapshot byte parsing (`FactStore::from_bytes`) |
//! | L009 | truncating-id-cast | `as u8/u16/u32` in `ValueId`/`FactId`-adjacent code |
//! | L010 | thread-merge | `std::thread` outside the config module needs a deterministic merge |
//!
//! `L000` is reserved for malformed suppression comments (see
//! [`crate::allow`]): a suppression that cannot be parsed, or that lacks a
//! reason, is itself a violation — silence must always carry a why.
//!
//! L001 (nondeterministic-iteration, a per-file module-name heuristic)
//! is retired: L007 subsumes it with interprocedural reach from the
//! actual deterministic-output emitters instead of a path pattern.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{norm_crate, FileRecord, WorkspaceGraph};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::parser::FnItem;

/// Reported code of the malformed-suppression pseudo-rule.
pub const BAD_SUPPRESSION: &str = "L000";

/// The rule catalog: `(code, name, summary)` for every real rule.
pub const CATALOG: [(&str, &str, &str); 9] = [
    (
        "L002",
        "panic-in-library",
        "unwrap/expect/panic!/indexing-by-literal in library code; use typed errors or a documented-invariant match",
    ),
    (
        "L003",
        "thread-hygiene",
        "std::thread and CA_* env reads are confined to the bulk loader and the config module",
    ),
    (
        "L004",
        "wall-clock-in-results",
        "Instant/SystemTime must not influence result-producing modules",
    ),
    (
        "L005",
        "undocumented-env-var",
        "every CA_* environment variable must be documented in DESIGN.md",
    ),
    (
        "L006",
        "crate-layering",
        "manifest dependencies and cross-crate uses must respect the declared layering table (rules::LAYERING)",
    ),
    (
        "L007",
        "determinism-taint",
        "HashMap/HashSet iteration or RandomState reachable from a deterministic-output seed (certificate/snapshot/bench emitters); sort at the boundary or use a BTree collection",
    ),
    (
        "L008",
        "untrusted-input",
        "unchecked indexing, unwrap/expect, or unvalidated length arithmetic reachable from snapshot byte parsing; untrusted bytes must flow through checked reads",
    ),
    (
        "L009",
        "truncating-id-cast",
        "truncating `as` casts in ValueId/FactId-adjacent code; use u32::try_from or the checked id helpers",
    ),
    (
        "L010",
        "thread-merge",
        "std::thread outside the config module must merge per-thread results deterministically (sort / reduce in index order)",
    ),
];

/// Files allowed to touch `std::thread`: the one parallel kernel (the
/// bulk loader) plus the config module (for `available_parallelism`).
const THREAD_SANCTIONED: [&str; 2] = [
    "crates/core/src/config.rs",
    "crates/core/src/store/ingest.rs",
];

/// Files L010 does not scan for a deterministic merge: the config
/// module, which only reads `available_parallelism` and spawns nothing.
/// The bulk loader is deliberately *not* exempt — its thread-using
/// function must carry an in-function merge marker, so the rule actively
/// covers it instead of allowlisting.
const THREAD_MERGE_EXEMPT: [&str; 1] = ["crates/core/src/config.rs"];

/// Files allowed to read `CA_*` environment variables: only the config
/// module — the bulk loader takes its width through it.
const ENV_SANCTIONED: [&str; 1] = ["crates/core/src/config.rs"];

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule code (`L002`…`L010`, or [`BAD_SUPPRESSION`]).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub msg: String,
}

/// Engine configuration: which rules run, and the documentation corpus
/// that L005 checks env-var names against.
pub struct LintConfig {
    /// Enabled rule codes; rules not listed do not run.
    pub enabled: BTreeSet<&'static str>,
    /// Contents of `DESIGN.md` (empty ⇒ every `CA_*` literal is flagged).
    pub design_doc: String,
}

impl LintConfig {
    /// All five rules enabled against the given DESIGN.md contents.
    pub fn all(design_doc: String) -> Self {
        LintConfig {
            enabled: CATALOG.iter().map(|&(code, _, _)| code).collect(),
            design_doc,
        }
    }

    /// All rules except `code` — used by the fixture self-tests to assert
    /// each rule is load-bearing.
    pub fn all_except(code: &str, design_doc: String) -> Self {
        let mut cfg = LintConfig::all(design_doc);
        cfg.enabled.retain(|&c| c != code);
        cfg
    }
}

// ---------------------------------------------------------------- scopes

/// Vendored dependency stand-ins: not our code, never linted.
pub fn is_vendored(path: &str) -> bool {
    path.contains("proptest-shim") || path.contains("criterion-shim")
}

/// Result-producing modules (L004 scope): the query engine, the
/// certain-answer modules, and the CSP kernel — anywhere an internal
/// ordering or timing choice could reach a caller-visible answer.
fn is_result_module(path: &str) -> bool {
    path.contains("/engine/") || path.ends_with("certain.rs") || path.ends_with("csp.rs")
}

/// Library code for L002: excludes binaries, benches, the bench crate
/// (CLI tooling), and example/test trees.
fn is_library_code(path: &str) -> bool {
    !path.contains("/bin/")
        && !path.ends_with("main.rs")
        && !path.contains("crates/bench/")
        && !path.contains("/tests/")
        && !path.contains("/benches/")
        && !path.contains("/examples/")
}

fn in_list(path: &str, list: &[&str]) -> bool {
    list.contains(&path)
}

// ------------------------------------------------------- test-region mask

/// Mark every token covered by a `#[cfg(test)]` or `#[test]` item as
/// test code. The scan is lexical: an attribute whose tokens include the
/// ident `test` (and not `not`, to spare `#[cfg(not(test))]`) opens a
/// region at the next `{`, closed by its matching `}`.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "#" || !matches!(toks.get(i + 1), Some(t) if t.text == "[") {
            i += 1;
            continue;
        }
        // Scan the attribute body to its closing ']'.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if toks[j].kind == TokKind::Ident => saw_test = true,
                "not" if toks[j].kind == TokKind::Ident => saw_not = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Find the item's body: the first '{' before any ';'.
        let mut k = j;
        while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
            k += 1;
        }
        if k >= toks.len() || toks[k].text == ";" {
            i = k;
            continue;
        }
        let mut braces = 1usize;
        let mut end = k + 1;
        while end < toks.len() && braces > 0 {
            match toks[end].text.as_str() {
                "{" => braces += 1,
                "}" => braces -= 1,
                _ => {}
            }
            end += 1;
        }
        for m in mask.iter_mut().take(end).skip(i) {
            *m = true;
        }
        i = end;
    }
    mask
}

// ------------------------------------------------------------- the rules

struct Ctx<'a> {
    path: &'a str,
    toks: &'a [Tok],
    test: &'a [bool],
    out: Vec<Violation>,
}

impl Ctx<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn kind(&self, i: usize) -> Option<TokKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.kind(i) == Some(TokKind::Ident) && self.text(i) == name
    }

    fn emit(&mut self, rule: &'static str, i: usize, msg: String) {
        self.out.push(Violation {
            rule,
            path: self.path.to_string(),
            line: self.toks[i].line,
            msg,
        });
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file
/// (whole-file, so struct fields cover `self.field` consumption inside
/// methods). Patterns (walking back over `std :: collections ::`-style
/// path prefixes from the type name):
///   `let [mut] NAME : [path::]Hash{Map,Set} …`
///   `let [mut] NAME = [path::]Hash{Map,Set} :: …`
///   `NAME : Hash{Map,Set} <`       (struct field / parameter)
fn hash_bound_names(toks: &[Tok], test: &[bool]) -> BTreeSet<String> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let kind = |i: usize| toks.get(i).map(|t| t.kind);
    let mut names: BTreeSet<String> = BTreeSet::new();
    for (i, &in_test) in test.iter().enumerate().take(toks.len()) {
        if in_test || kind(i) != Some(TokKind::Ident) || !matches!(text(i), "HashMap" | "HashSet") {
            continue;
        }
        // Walk back over a `seg ::` path prefix.
        let mut j = i;
        while j >= 2 && text(j - 1) == ":" && text(j - 2) == ":" {
            j -= 2;
            if j >= 1 && kind(j - 1) == Some(TokKind::Ident) {
                j -= 1;
            }
        }
        // Walk back over reference/lifetime/mut prefixes so borrowed
        // parameters (`m: &HashMap<…>`, `m: &'a mut HashMap<…>`) bind too.
        while j >= 1 && (matches!(text(j - 1), "&" | "mut") || text(j - 1).starts_with('\'')) {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let name_idx = match text(j - 1) {
            // `NAME : HashMap` — but not `:: HashMap` (path, handled above)
            // and not `< … : …` generics: require an ident before the `:`.
            ":" if j >= 2 && text(j - 2) != ":" && kind(j - 2) == Some(TokKind::Ident) => {
                Some(j - 2)
            }
            // `NAME = HashMap::…`
            "=" if j >= 2 && kind(j - 2) == Some(TokKind::Ident) => Some(j - 2),
            _ => None,
        };
        if let Some(n) = name_idx {
            let name = text(n);
            if name != "let" && name != "mut" {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// Hash-collection methods whose call order reaches the consumer.
const ORDERED_CONSUMPTION: [&str; 5] = ["iter", "keys", "values", "into_iter", "drain"];

/// L002: panics in library code.
fn rule_l002(ctx: &mut Ctx<'_>) {
    if !is_library_code(ctx.path) {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.test[i] {
            continue;
        }
        // `. unwrap (` / `. expect (`.
        if ctx.text(i) == "."
            && matches!(ctx.text(i + 1), "unwrap" | "expect")
            && ctx.kind(i + 1) == Some(TokKind::Ident)
            && ctx.text(i + 2) == "("
        {
            let call = ctx.text(i + 1).to_string();
            ctx.emit(
                "L002",
                i,
                format!(
                    "`.{call}()` in library code can panic; return a typed error or use a \
                     documented-invariant match"
                ),
            );
        }
        // `panic !`.
        if ctx.is_ident(i, "panic") && ctx.text(i + 1) == "!" {
            ctx.emit(
                "L002",
                i,
                "`panic!` in library code; return a typed error instead".to_string(),
            );
        }
        // Indexing by integer literal: `expr [ 0 ]` where expr ends in an
        // identifier or a closing bracket (array literals `[0; 8]` and
        // attribute brackets do not match).
        if ctx.text(i) == "["
            && ctx.kind(i + 1) == Some(TokKind::Num)
            && ctx.text(i + 2) == "]"
            && i > 0
            && (ctx.kind(i - 1) == Some(TokKind::Ident) || matches!(ctx.text(i - 1), ")" | "]"))
            && !matches!(ctx.text(i.wrapping_sub(1)), "if" | "in" | "return" | "else")
        {
            let n = ctx.text(i + 1).to_string();
            ctx.emit(
                "L002",
                i,
                format!(
                    "indexing by literal `[{n}]` in library code can panic; prefer \
                     `.get({n})` or a slice pattern"
                ),
            );
        }
    }
}

/// L003: thread and `CA_*` env hygiene.
fn rule_l003(ctx: &mut Ctx<'_>) {
    for i in 0..ctx.toks.len() {
        if ctx.test[i] {
            continue;
        }
        // `std :: thread` (any use: spawn, scope, available_parallelism).
        if ctx.is_ident(i, "std")
            && ctx.text(i + 1) == ":"
            && ctx.text(i + 2) == ":"
            && ctx.is_ident(i + 3, "thread")
            && !in_list(ctx.path, &THREAD_SANCTIONED)
        {
            ctx.emit(
                "L003",
                i,
                format!(
                    "`std::thread` outside the sanctioned modules ({}); keep evaluation on \
                     the calling thread so determinism stays provable",
                    THREAD_SANCTIONED.join(", ")
                ),
            );
        }
        // `env :: var ( "CA_…" )` (also var_os).
        if ctx.is_ident(i, "env")
            && ctx.text(i + 1) == ":"
            && ctx.text(i + 2) == ":"
            && matches!(ctx.text(i + 3), "var" | "var_os")
            && ctx.text(i + 4) == "("
            && ctx.kind(i + 5) == Some(TokKind::Str)
            && is_ca_var(ctx.text(i + 5))
            && !in_list(ctx.path, &ENV_SANCTIONED)
        {
            let var = ctx.text(i + 5).to_string();
            ctx.emit(
                "L003",
                i,
                format!(
                    "`{var}` read outside {}; all CA_* knobs go through ca_core::config",
                    ENV_SANCTIONED.join(", ")
                ),
            );
        }
    }
}

/// L004: wall-clock reads in result-producing modules.
fn rule_l004(ctx: &mut Ctx<'_>) {
    if !is_result_module(ctx.path) {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.test[i] {
            continue;
        }
        if ctx.kind(i) == Some(TokKind::Ident) && matches!(ctx.text(i), "Instant" | "SystemTime") {
            let what = ctx.text(i).to_string();
            ctx.emit(
                "L004",
                i,
                format!(
                    "`{what}` in a result-producing module; wall-clock time must never \
                     influence certain-answer output (benchmarks live in crates/bench)"
                ),
            );
        }
    }
}

/// Is `lit` a `CA_*` environment-variable name (`CA_` + at least one
/// `[A-Z0-9_]` character, nothing else)?
fn is_ca_var(lit: &str) -> bool {
    lit.len() > 3
        && lit.starts_with("CA_")
        && lit
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// L005: every `CA_*` string literal in non-test code must be documented.
fn rule_l005(ctx: &mut Ctx<'_>, design_doc: &str) {
    for i in 0..ctx.toks.len() {
        if ctx.test[i] || ctx.kind(i) != Some(TokKind::Str) {
            continue;
        }
        let lit = ctx.text(i);
        if is_ca_var(lit) && !design_doc.contains(lit) {
            let lit = lit.to_string();
            ctx.emit(
                "L005",
                i,
                format!("environment variable `{lit}` is not documented in DESIGN.md"),
            );
        }
    }
}

/// Run every enabled rule over one lexed file. `path` must be
/// repo-relative with forward slashes. Suppressions are *not* applied
/// here — see [`crate::lint_source`].
pub fn run_rules(path: &str, lexed: &Lexed, cfg: &LintConfig) -> Vec<Violation> {
    if is_vendored(path) {
        return Vec::new();
    }
    let test = test_mask(&lexed.toks);
    let mut ctx = Ctx {
        path,
        toks: &lexed.toks,
        test: &test,
        out: Vec::new(),
    };
    if cfg.enabled.contains("L002") {
        rule_l002(&mut ctx);
    }
    if cfg.enabled.contains("L003") {
        rule_l003(&mut ctx);
    }
    if cfg.enabled.contains("L004") {
        rule_l004(&mut ctx);
    }
    if cfg.enabled.contains("L005") {
        rule_l005(&mut ctx, &cfg.design_doc);
    }
    let mut out = ctx.out;
    out.sort_by(|a, b| (a.line, a.rule, &a.msg).cmp(&(b.line, b.rule, &b.msg)));
    out
}

// ------------------------------------------------- graph-powered rules

/// L006 layering table: for every workspace package, the complete set
/// of workspace crates it may depend on — by manifest `[dependencies]`
/// or by `use`/qualified path in non-test source. A crate absent from
/// this table is itself a violation: new crates must be placed in the
/// hierarchy deliberately. Kept in sync with DESIGN.md §Static analysis.
pub const LAYERING: &[(&str, &[&str])] = &[
    ("ca-core", &[]),
    ("ca-lint", &[]),
    ("ca-cert", &["ca-core"]),
    ("ca-hom", &["ca-core", "ca-cert"]),
    ("ca-relational", &["ca-core", "ca-cert", "ca-hom"]),
    (
        "ca-query",
        &["ca-core", "ca-cert", "ca-hom", "ca-relational"],
    ),
    ("ca-xml", &["ca-core", "ca-hom", "ca-relational"]),
    ("ca-graph", &["ca-core", "ca-hom", "ca-relational"]),
    (
        "ca-gdm",
        &[
            "ca-core",
            "ca-hom",
            "ca-relational",
            "ca-xml",
            "ca-graph",
            "ca-query",
        ],
    ),
    (
        "ca-exchange",
        &[
            "ca-core",
            "ca-cert",
            "ca-hom",
            "ca-relational",
            "ca-gdm",
            "ca-query",
            "ca-graph",
            "ca-xml",
        ],
    ),
    (
        "ca-bench",
        &[
            "ca-core",
            "ca-cert",
            "ca-hom",
            "ca-relational",
            "ca-query",
            "ca-xml",
            "ca-graph",
            "ca-gdm",
            "ca-exchange",
        ],
    ),
    (
        "certain-answers",
        &[
            "ca-core",
            "ca-cert",
            "ca-hom",
            "ca-relational",
            "ca-query",
            "ca-xml",
            "ca-graph",
            "ca-gdm",
            "ca-exchange",
            "ca-bench",
        ],
    ),
];

/// L007 taint seeds: functions whose output is promised byte-identical
/// across thread widths and store rebuilds — certificate byte emitters,
/// the snapshot writer, and every bench binary (they write BENCH json
/// and result tables that the paper-reproduction diffing compares).
pub fn is_determinism_seed(path: &str, name: &str) -> bool {
    let byte_emitter =
        path == "crates/cert/src/bytes.rs" || path == "crates/core/src/store/snapshot.rs";
    // Plan choice is pinned deterministic (the planner differential
    // tests compare compiled plans structurally across runs), so the
    // statistics collector and the cost-based orderer are
    // determinism-sensitive roots alongside the byte emitters.
    let stats = path == "crates/core/src/store/stats.rs" && name == "compute_exact";
    let planner = path == "crates/query/src/engine/cost.rs" && name == "order";
    (byte_emitter && name == "to_bytes")
        || stats
        || planner
        || (path.starts_with("crates/bench/src/bin/") && name == "main")
}

/// Frozen differential oracles: deliberately naive code whose outputs
/// are compared order-insensitively, exempt from L007.
fn is_determinism_exempt(path: &str) -> bool {
    path.ends_with("/reference.rs")
}

/// L008 taint seeds: the snapshot byte-parsing entry points. Everything
/// they reach handles attacker-controllable bytes.
pub fn is_untrusted_seed(path: &str, name: &str) -> bool {
    path == "crates/core/src/store/snapshot.rs" && (name == "parse" || name == "from_bytes")
}

/// L010 deterministic-merge markers: a thread-using function must fold
/// its per-thread results through one of these (sort family, ordered
/// reduce/fold, or an order-insensitive aggregate) before they escape.
pub const MERGE_MARKERS: [&str; 15] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "reduce",
    "fold",
    "min",
    "min_by",
    "min_by_key",
    "max",
    "max_by",
    "max_by_key",
    "sum",
];

fn push(out: &mut Vec<Violation>, rule: &'static str, path: &str, line: u32, msg: String) {
    out.push(Violation {
        rule,
        path: path.to_string(),
        line,
        msg,
    });
}

fn layering_of(pkg: &str) -> Option<&'static [&'static str]> {
    LAYERING
        .iter()
        .find(|&&(p, _)| p == pkg)
        .map(|&(_, allowed)| allowed)
}

/// L006: crate layering, checked both in the manifests and at every
/// cross-crate `use`/qualified path in non-test source.
fn rule_l006(files: &[FileRecord], g: &WorkspaceGraph, out: &mut Vec<Violation>) {
    for m in &g.manifests {
        if m.package.is_empty() || is_vendored(&m.path) {
            continue;
        }
        let Some(allowed) = layering_of(&m.package) else {
            push(
                out,
                "L006",
                &m.path,
                1,
                format!(
                    "crate `{}` is not in the layering table (rules::LAYERING); \
                     place new crates in the hierarchy deliberately",
                    m.package
                ),
            );
            continue;
        };
        for (dep, line) in &m.deps {
            if dep.starts_with("ca-") && !allowed.contains(&dep.as_str()) {
                push(
                    out,
                    "L006",
                    &m.path,
                    *line,
                    format!(
                        "`{}` may not depend on `{dep}`; the layering table allows only [{}]",
                        m.package,
                        allowed.join(", ")
                    ),
                );
            }
        }
    }
    for (fi, f) in files.iter().enumerate() {
        let me = &g.file_crate[fi];
        let Some(allowed) = layering_of(me) else {
            continue; // the manifest check already reported the crate
        };
        let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
        let refs = f
            .items
            .uses
            .iter()
            .filter(|u| !u.is_test)
            .map(|u| (u.line, u.root.as_str()))
            .chain(
                f.items
                    .path_heads
                    .iter()
                    .filter(|p| !p.is_test)
                    .map(|p| (p.line, p.name.as_str())),
            );
        for (line, name) in refs {
            let pkg = norm_crate(name);
            if !pkg.starts_with("ca-") || pkg == *me || allowed.contains(&pkg.as_str()) {
                continue;
            }
            if seen.insert((line, pkg.clone())) {
                push(
                    out,
                    "L006",
                    &f.path,
                    line,
                    format!(
                        "`{me}` may not use `{pkg}`; the layering table allows only [{}]",
                        allowed.join(", ")
                    ),
                );
            }
        }
    }
}

/// Token indices a function body owns directly (its own code, excluding
/// nested fns and test regions).
fn owned_tokens(f: &FileRecord, local: usize, item: &FnItem) -> Vec<usize> {
    if !item.has_body {
        return Vec::new();
    }
    let local = u32::try_from(local).unwrap_or(u32::MAX);
    (item.body.0..=item.body.1.min(f.lexed.toks.len().saturating_sub(1)))
        .filter(|&i| {
            f.items.owner.get(i).copied() == Some(local) && !f.test.get(i).copied().unwrap_or(true)
        })
        .collect()
}

/// L007: interprocedural determinism taint. BFS forward from the seed
/// emitters over the call graph; in every reached function, flag hash
/// iteration (via [`hash_bound_names`] collected file-wide, so struct
/// fields count) and `RandomState` construction.
fn rule_l007(files: &[FileRecord], g: &WorkspaceGraph, out: &mut Vec<Violation>) {
    let seeds: Vec<u32> = g
        .fns
        .iter()
        .enumerate()
        .filter(|&(_, f)| is_determinism_seed(&files[f.file].path, &f.name))
        .map(|(id, _)| u32::try_from(id).unwrap_or(u32::MAX))
        .collect();
    let origin = g.reachable_from(&seeds);
    let mut names_cache: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (id, node) in g.fns.iter().enumerate() {
        let Some(seed) = origin[id] else {
            continue;
        };
        let f = &files[node.file];
        if is_determinism_exempt(&f.path) {
            continue;
        }
        let Some(item) = f.items.fns.get(node.local) else {
            continue;
        };
        let seed_node = &g.fns[seed as usize];
        let seed_label = format!("{}::{}", files[seed_node.file].path, seed_node.name);
        let names = names_cache
            .entry(node.file)
            .or_insert_with(|| hash_bound_names(&f.lexed.toks, &f.test));
        let toks = &f.lexed.toks;
        let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
        for i in owned_tokens(f, node.local, item) {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = text(i);
            if name == "RandomState" {
                push(
                    out,
                    "L007",
                    &f.path,
                    toks[i].line,
                    format!(
                        "`RandomState` in `{}`, reachable from deterministic-output seed \
                         `{seed_label}`; seeded hashing breaks byte-identical replay",
                        item.name
                    ),
                );
                continue;
            }
            if !names.contains(name) {
                continue;
            }
            // `NAME . iter ( ` and friends.
            if text(i + 1) == "."
                && ORDERED_CONSUMPTION.contains(&text(i + 2))
                && text(i + 3) == "("
            {
                let method = text(i + 2);
                push(
                    out,
                    "L007",
                    &f.path,
                    toks[i].line,
                    format!(
                        "`{name}.{method}()` iterates a hash collection in `{}`, reachable \
                         from deterministic-output seed `{seed_label}`; hash order is \
                         nondeterministic — sort at the boundary or use a BTree collection",
                        item.name
                    ),
                );
                continue;
            }
            // `for PAT in [&] [mut] NAME {` — direct loop.
            if text(i + 1) == "{" {
                let mut j = i;
                while j > 0 && matches!(text(j - 1), "&" | "mut") {
                    j -= 1;
                }
                if j > 0
                    && toks.get(j - 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && text(j - 1) == "in"
                {
                    push(
                        out,
                        "L007",
                        &f.path,
                        toks[i].line,
                        format!(
                            "`for … in {name}` iterates a hash collection in `{}`, reachable \
                             from deterministic-output seed `{seed_label}`; hash order is \
                             nondeterministic — sort at the boundary or use a BTree collection",
                            item.name
                        ),
                    );
                }
            }
        }
    }
}

/// An identifier that names a length/offset quantity — the operands
/// whose unchecked arithmetic L008 flags.
fn is_lenish(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && (matches!(t.text.as_str(), "len" | "off" | "offset" | "page")
            || t.text.ends_with("_len")
            || t.text.ends_with("_off")
            || t.text.ends_with("_offset")
            || t.text.starts_with("n_"))
}

/// L008: untrusted-input hygiene in everything reachable from snapshot
/// byte parsing: no unwrap/expect, no unchecked indexing, no raw `+`/`*`
/// on length-ish operands (use `checked_add`/`checked_mul` or the
/// snapshot `advance` helper, which reject overflow as `Corrupt`).
fn rule_l008(files: &[FileRecord], g: &WorkspaceGraph, out: &mut Vec<Violation>) {
    let seeds: Vec<u32> = g
        .fns
        .iter()
        .enumerate()
        .filter(|&(_, f)| is_untrusted_seed(&files[f.file].path, &f.name))
        .map(|(id, _)| u32::try_from(id).unwrap_or(u32::MAX))
        .collect();
    let origin = g.reachable_from(&seeds);
    for (id, node) in g.fns.iter().enumerate() {
        if origin[id].is_none() {
            continue;
        }
        let f = &files[node.file];
        let Some(item) = f.items.fns.get(node.local) else {
            continue;
        };
        let toks = &f.lexed.toks;
        let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
        let kind = |i: usize| toks.get(i).map(|t| t.kind);
        for i in owned_tokens(f, node.local, item) {
            // `. unwrap (` / `. expect (`.
            if text(i) == "."
                && matches!(text(i + 1), "unwrap" | "expect")
                && kind(i + 1) == Some(TokKind::Ident)
                && text(i + 2) == "("
            {
                push(
                    out,
                    "L008",
                    &f.path,
                    toks[i].line,
                    format!(
                        "`.{}()` in `{}`, reachable from snapshot byte parsing; untrusted \
                         bytes must surface as a typed SnapshotError, never a panic",
                        text(i + 1),
                        item.name
                    ),
                );
            }
            // Unchecked indexing/slicing: `expr [ … ]` where expr ends in
            // an identifier or closing bracket. Array literals, types and
            // attributes do not match.
            if text(i) == "["
                && i > 0
                && (matches!(text(i - 1), ")" | "]")
                    || (kind(i - 1) == Some(TokKind::Ident)
                        && !matches!(
                            text(i - 1),
                            "if" | "in" | "return" | "else" | "match" | "loop" | "break"
                        )))
            {
                push(
                    out,
                    "L008",
                    &f.path,
                    toks[i].line,
                    format!(
                        "unchecked indexing in `{}`, reachable from snapshot byte parsing; \
                         use `.get(..)` and map a miss to SnapshotError::Corrupt",
                        item.name
                    ),
                );
            }
            // Unvalidated length arithmetic: binary `+`/`*` with a
            // length-ish identifier within three tokens either side.
            // Compound assignments (`+=`, `*=`) are counter updates, not
            // offset computation into the byte buffer, and are skipped.
            if matches!(text(i), "+" | "*")
                && kind(i) == Some(TokKind::Punct)
                && text(i + 1) != "="
                && i > 0
                && (matches!(kind(i - 1), Some(TokKind::Ident) | Some(TokKind::Num))
                    || matches!(text(i - 1), ")" | "]"))
            {
                let window = (i.saturating_sub(3)..=(i + 3).min(toks.len().saturating_sub(1)))
                    .filter(|&j| j != i);
                let mut lenish = false;
                for j in window {
                    if toks.get(j).is_some_and(is_lenish) {
                        lenish = true;
                    }
                }
                if lenish {
                    push(
                        out,
                        "L008",
                        &f.path,
                        toks[i].line,
                        format!(
                            "unvalidated length arithmetic (`{}`) in `{}`, reachable from \
                             snapshot byte parsing; overflow on attacker-sized lengths must \
                             go through checked_add/checked_mul (or the advance helper)",
                            text(i),
                            item.name
                        ),
                    );
                }
            }
        }
    }
}

/// L009: truncating `as` casts in id-typed store code. Scope: library
/// files under `crates/core/src/` plus any library file whose tokens
/// mention `ValueId`/`FactId` (store-adjacent engine code).
fn rule_l009(files: &[FileRecord], out: &mut Vec<Violation>) {
    for f in files {
        if !is_library_code(&f.path) {
            continue;
        }
        let toks = &f.lexed.toks;
        let in_scope = f.path.starts_with("crates/core/src/")
            || toks.iter().any(|t| {
                t.kind == TokKind::Ident && matches!(t.text.as_str(), "ValueId" | "FactId")
            });
        if !in_scope {
            continue;
        }
        let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
        for i in 0..toks.len() {
            if f.test.get(i).copied().unwrap_or(true) {
                continue;
            }
            if toks[i].kind == TokKind::Ident
                && text(i) == "as"
                && matches!(text(i + 1), "u8" | "u16" | "u32")
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                push(
                    out,
                    "L009",
                    &f.path,
                    toks[i].line,
                    format!(
                        "truncating cast `as {}` in id-typed store code; a silently wrapped \
                         id aliases unrelated values — use u32::try_from or \
                         ca_core::store::dense_count",
                        text(i + 1)
                    ),
                );
            }
        }
    }
}

/// L010: thread-scope hygiene. Any function outside the merge-exempt
/// files ([`THREAD_MERGE_EXEMPT`]) that touches `std::thread` must
/// contain a deterministic merge of the per-thread results
/// ([`MERGE_MARKERS`]) — including the sanctioned bulk loader
/// (`store/ingest.rs`).
fn rule_l010(files: &[FileRecord], out: &mut Vec<Violation>) {
    for f in files {
        if in_list(&f.path, &THREAD_MERGE_EXEMPT) {
            continue;
        }
        let toks = &f.lexed.toks;
        let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
        for (local, item) in f.items.fns.iter().enumerate() {
            if item.is_test {
                continue;
            }
            let owned = owned_tokens(f, local, item);
            let thread_at = owned.iter().copied().find(|&i| {
                toks[i].kind == TokKind::Ident
                    && text(i) == "std"
                    && text(i + 1) == ":"
                    && text(i + 2) == ":"
                    && text(i + 3) == "thread"
            });
            let Some(at) = thread_at else {
                continue;
            };
            let merged = owned.iter().copied().any(|i| {
                toks[i].kind == TokKind::Ident
                    && MERGE_MARKERS.contains(&text(i))
                    && text(i + 1) == "("
            });
            if !merged {
                push(
                    out,
                    "L010",
                    &f.path,
                    toks[at].line,
                    format!(
                        "`std::thread` in `{}` without a deterministic merge: fold the \
                         per-thread results in index order (sort/reduce/fold/min/max/sum) \
                         before they escape the function",
                        item.name
                    ),
                );
            }
        }
    }
}

/// Run the graph-powered rules (L006–L010) over a parsed workspace.
/// `files` must already exclude vendored code; suppressions are applied
/// by the caller ([`crate::lint_sources`]).
pub fn run_graph_rules(
    files: &[FileRecord],
    g: &WorkspaceGraph,
    cfg: &LintConfig,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if cfg.enabled.contains("L006") {
        rule_l006(files, g, &mut out);
    }
    if cfg.enabled.contains("L007") {
        rule_l007(files, g, &mut out);
    }
    if cfg.enabled.contains("L008") {
        rule_l008(files, g, &mut out);
    }
    if cfg.enabled.contains("L009") {
        rule_l009(files, &mut out);
    }
    if cfg.enabled.contains("L010") {
        rule_l010(files, &mut out);
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule, &a.msg).cmp(&(&b.path, b.line, b.rule, &b.msg)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn after() {}";
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let unwrap_idx = lexed
            .toks
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("unwrap token");
        assert!(mask[unwrap_idx]);
        let after_idx = lexed
            .toks
            .iter()
            .position(|t| t.text == "after")
            .expect("after token");
        assert!(!mask[after_idx]);
    }

    #[test]
    fn test_mask_ignores_cfg_not_test() {
        let src = "#[cfg(not(test))]\nfn shipped() { x.unwrap(); }";
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        assert!(mask.iter().all(|&m| !m), "cfg(not(test)) is live code");
    }

    #[test]
    fn test_mask_handles_test_attribute_on_fn() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.unwrap(); }";
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let ups: Vec<usize> = lexed
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ups.len(), 2);
        assert!(mask[ups[0]] && !mask[ups[1]]);
    }
}
