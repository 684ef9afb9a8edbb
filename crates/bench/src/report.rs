//! Plain-text experiment reports: a title, column headers, and rows.

use std::fmt;
use std::time::Instant;

/// A tabular experiment report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (stringified cells).
    pub rows: Vec<Vec<String>>,
    /// Free-form conclusions appended under the table.
    pub notes: Vec<String>,
}

impl Report {
    /// A new report with the given title and columns.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Report {
            title: title.to_owned(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        // Column widths.
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:width$}  ", cell, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.columns)?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            line(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

/// Time a closure, returning its result and the elapsed microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_micros())
}

/// Minimum wall time over `reps` runs, in microseconds (at least 1).
/// Damps scheduler noise better than the mean for sub-millisecond
/// cases.
pub fn min_time_us(reps: u32, mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_micros());
    }
    best.max(1)
}

/// Mean wall time of `reps` back-to-back runs, in microseconds (at
/// least 1).
pub fn time_reps(reps: u32, mut f: impl FnMut()) -> u128 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    (start.elapsed().as_micros() / u128::from(reps)).max(1)
}

/// The current git revision, for stamping `BENCH_*.json` emissions so a
/// recorded run is attributable to the exact tree that produced it:
/// `-dirty` is appended when a tracked file differs from that revision
/// (see `rev_stamp`). `"unknown"` when git (or the repository) is
/// unavailable — bench output must not depend on the host's tooling.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let status = git(&["status", "--porcelain", "--untracked-files=no"]);
    rev_stamp(rev.as_deref(), status.as_deref())
}

/// The stamp of revision `rev` (`git rev-parse HEAD`'s output) given the
/// tracked changes `status` (`git status --porcelain
/// --untracked-files=no`'s output): the revision, with `-dirty` appended
/// when a tracked file differs from it. `"unknown"` without a revision;
/// an unreadable status leaves the revision unmarked.
fn rev_stamp(rev: Option<&str>, status: Option<&str>) -> String {
    let Some(rev) = rev.map(str::trim).filter(|r| !r.is_empty()) else {
        return "unknown".to_string();
    };
    if status.is_some_and(|s| !s.trim().is_empty()) {
        format!("{rev}-dirty")
    } else {
        rev.to_string()
    }
}

/// The machine's available parallelism, for stamping `BENCH_*.json`
/// emissions so a recorded row is attributable to the host that ran it.
pub fn host_cores() -> usize {
    ca_core::config::available_parallelism_or(1)
}

/// Write a bench's JSON report `BENCH_<name>.json`. A full run writes the
/// canonical file in the working directory (the repo root under `cargo
/// run`); a `--quick` or `--only` run writes under `target/bench/`
/// instead, so a smoke run never overwrites a recorded result.
pub fn write_json(name: &str, full: bool, json: &str) {
    let file = format!("BENCH_{name}.json");
    let path = if full {
        std::path::PathBuf::from(file)
    } else {
        std::path::Path::new("target/bench").join(file)
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the bench output directory");
    }
    std::fs::write(&path, json).expect("write the bench report");
    eprintln!("[{name}_bench] wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders() {
        let mut r = Report::new("demo", &["a", "bb"]);
        r.row(vec!["1".into(), "2".into()]);
        r.note("a note");
        let s = r.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    fn dirty_trees_are_marked() {
        let rev = Some("98cd691b\n");
        assert_eq!(rev_stamp(rev, Some("")), "98cd691b");
        assert_eq!(rev_stamp(rev, Some(" M src/lib.rs\n")), "98cd691b-dirty");
        assert_eq!(rev_stamp(rev, None), "98cd691b");
        assert_eq!(rev_stamp(None, Some(" M src/lib.rs\n")), "unknown");
        assert_eq!(rev_stamp(Some("  \n"), Some("")), "unknown");
    }

    #[test]
    fn timing_returns_result() {
        let (x, us) = timed(|| 21 * 2);
        assert_eq!(x, 42);
        let _ = us;
    }
}
