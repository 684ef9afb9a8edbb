//! # ca-lint — in-tree static analysis for the certain-answers workspace
//!
//! The paper's semantics make a hard promise: certain answers are an
//! intersection over completions, so *evaluation order must never leak
//! into output* (Libkin, PODS 2011, Theorems 5/7). The engines run on
//! the calling thread and the one parallel kernel (the bulk loader) is
//! byte-identical at any width; this crate guards that property
//! mechanically instead of only by differential tests. It is dependency-free (the build is offline): a
//! hand-rolled lexer ([`lexer`]), an item-level parser ([`parser`]), a
//! workspace item graph with a conservative call-edge approximation and
//! the crate dependency DAG ([`graph`]), the rule engine ([`rules`]) —
//! per-file token rules plus graph-powered interprocedural rules — and a
//! suppression layer ([`allow`]): inline `// ca-lint: allow(…)` comments
//! plus the expiring `lint-allow.toml` backlog.
//!
//! Run it with `cargo run -p ca-lint` (`-- --deny-all` to gate, `--json`
//! for diffable output). The rule catalog lives in [`rules::CATALOG`] and
//! in DESIGN.md §Static analysis.

pub mod allow;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use graph::{FileRecord, WorkspaceGraph};

pub use rules::{LintConfig, Violation};

/// Lint a set of sources plus manifests as one workspace: per-file
/// rules, then the graph rules over the item graph, then inline
/// suppressions per file. Malformed suppressions are appended as `L000`
/// violations. Vendored shims are skipped entirely. The file-level
/// allowlist is *not* applied here — see [`allow::apply_allowlist`].
///
/// `files` are `(repo-relative path, source)` pairs; `manifests` are
/// `(repo-relative path, Cargo.toml text)` pairs.
pub fn lint_sources(
    files: &[(String, String)],
    manifests: &[(String, String)],
    cfg: &LintConfig,
) -> Vec<Violation> {
    let records: Vec<FileRecord> = files
        .iter()
        .filter(|(path, _)| !rules::is_vendored(path))
        .map(|(path, src)| {
            let lexed = lexer::lex(src);
            let test = rules::test_mask(&lexed.toks);
            let items = parser::parse_items(&lexed, &test);
            FileRecord {
                path: path.clone(),
                lexed,
                test,
                items,
            }
        })
        .collect();
    let parsed_manifests = manifests
        .iter()
        .map(|(path, text)| graph::parse_manifest(path, text))
        .collect();
    let g = WorkspaceGraph::build(&records, parsed_manifests);

    let mut by_path: BTreeMap<&str, Vec<Violation>> = BTreeMap::new();
    let mut out: Vec<Violation> = Vec::new(); // violations with no source file (manifests)
    for r in &records {
        by_path.entry(r.path.as_str()).or_default();
    }
    let mut all = Vec::new();
    for r in &records {
        all.extend(rules::run_rules(&r.path, &r.lexed, cfg));
    }
    all.extend(rules::run_graph_rules(&records, &g, cfg));
    for v in all {
        match by_path.get_mut(v.path.as_str()) {
            Some(bucket) => bucket.push(v),
            None => out.push(v),
        }
    }
    for r in &records {
        let violations = by_path.remove(r.path.as_str()).unwrap_or_default();
        let (allows, mut bad) = allow::inline_allows(&r.path, &r.lexed.comments);
        let (kept, _suppressed) = allow::apply_inline(violations, &allows);
        out.extend(kept);
        out.append(&mut bad);
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule, &a.msg).cmp(&(&b.path, b.line, b.rule, &b.msg)));
    out
}

/// Lint one source string as a single-file workspace (no manifests:
/// crate identity falls back to the `crates/<dir>/` path prefix, and
/// only same-crate call edges exist).
pub fn lint_source(path: &str, src: &str, cfg: &LintConfig) -> Vec<Violation> {
    lint_sources(&[(path.to_string(), src.to_string())], &[], cfg)
}

/// Render violations as the pinned machine-readable report.
///
/// Schema (`ca-lint/2`): one JSON object, `violations` sorted by
/// `(path, rule, line, message)`, two-space indent, `\n` line endings —
/// byte-identical across runs and file-discovery orders for the same
/// findings.
pub fn render_json(violations: &[Violation]) -> String {
    let mut sorted: Vec<&Violation> = violations.iter().collect();
    sorted
        .sort_by(|a, b| (&a.path, a.rule, a.line, &a.msg).cmp(&(&b.path, b.rule, b.line, &b.msg)));
    let mut out = String::from("{\n  \"schema\": \"ca-lint/2\",\n  \"violations\": [\n");
    for (i, v) in sorted.iter().enumerate() {
        let sep = if i + 1 == sorted.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"rule\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{sep}\n",
            json_escape(&v.path),
            v.rule,
            v.line,
            json_escape(&v.msg)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal JSON string escaping for [`render_json`].
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Collect every `.rs` file the linter walks: `crates/*/src/**` plus the
/// root package's `src/**`, sorted for deterministic output.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

/// Collect the manifests the item graph reads: the root `Cargo.toml`
/// plus every `crates/*/Cargo.toml`, as `(repo-relative path, text)`
/// pairs, sorted by path.
pub fn workspace_manifests(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if let Ok(text) = std::fs::read_to_string(&root_manifest) {
        out.push(("Cargo.toml".to_string(), text));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let path = entry?.path().join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&path) {
                out.push((rel_path(root, &path), text));
            }
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A path relative to `root`, with forward slashes — the form rule scopes
/// and allowlist entries match against.
pub fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
