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

/// Trials per timed quantity in a full run. Scheduler interference on a
/// small shared host can distort a single sample by 30%+, so a full run
/// reports the median of this many trials with its quartiles, and a
/// change is resolved when it moves the median by more than the
/// interquartile spread.
pub const TRIALS: usize = 7;

/// The trial count of a run: [`TRIALS`], or one for a `--quick` run.
pub fn trials(quick: bool) -> usize {
    if quick {
        1
    } else {
        TRIALS
    }
}

/// One timed quantity over its trials: the median per-call time with the
/// quartiles around it. [`time_trials`] measures in nanoseconds; [`us`]
/// converts for the `*_us` columns.
///
/// [`us`]: Timing::us
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Lower quartile.
    pub q1: u128,
    /// Median.
    pub median: u128,
    /// Upper quartile.
    pub q3: u128,
}

impl Timing {
    /// The median and quartiles of `samples` (one per trial, at least
    /// one): the order statistics at `len/4`, `len/2` and `len-1-len/4`,
    /// i.e. the 2nd, 4th and 6th of seven.
    fn of(mut samples: Vec<u128>) -> Timing {
        samples.sort_unstable();
        let quarter = samples.len() / 4;
        Timing {
            q1: samples[quarter],
            median: samples[samples.len() / 2],
            q3: samples[samples.len() - 1 - quarter],
        }
    }

    /// The same timing in microseconds, each figure at least 1.
    pub fn us(self) -> Timing {
        let us = |ns: u128| (ns / 1000).max(1);
        Timing {
            q1: us(self.q1),
            median: us(self.median),
            q3: us(self.q3),
        }
    }

    /// The JSON fields of this timing under `key`: the median, and the
    /// quartiles as `<key>_q1_q3`.
    pub fn json(self, key: &str) -> String {
        format!(
            "\"{key}\": {}, \"{key}_q1_q3\": [{}, {}]",
            self.median, self.q1, self.q3
        )
    }
}

/// Time `trials` trials (at least one) of `reps` back-to-back calls of
/// `f`. Each trial contributes its per-call average in nanoseconds (at
/// least 1); the result is their median and quartiles.
pub fn time_trials(trials: usize, reps: u32, mut f: impl FnMut()) -> Timing {
    let reps = reps.max(1);
    Timing::of(
        (0..trials.max(1))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..reps {
                    f();
                }
                (start.elapsed().as_nanos() / u128::from(reps)).max(1)
            })
            .collect(),
    )
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

/// The text of the JSON report [`write_json`] writes.
fn json_report(
    name: &str,
    width: usize,
    trials: usize,
    extra: &[(&str, String)],
    rows: &[String],
) -> String {
    let mut fields = vec![
        ("bench", format!("\"{name}_bench\"")),
        ("git_rev", format!("\"{}\"", git_rev())),
        ("host_cores", host_cores().to_string()),
        ("width", width.to_string()),
        ("trials", trials.to_string()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let mut json = String::from("{\n");
    for (k, v) in fields {
        json.push_str(&format!("  \"{k}\": {v},\n"));
    }
    let rows: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
    json.push_str(&format!(
        "  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ));
    json
}

/// Write a bench's JSON report `BENCH_<name>.json`: the common header
/// (`bench`, `git_rev`, `host_cores`, `width`, `trials`), then the bin's
/// own `extra` fields (name and JSON value), then `rows` (one JSON object
/// each) as `results`. `width` is the thread width the timed code runs
/// at; a bin that sweeps widths also records each row's own.
///
/// A full run writes the canonical file in the working directory (the
/// repo root under `cargo run`); a `--quick` or `--only` run writes under
/// `target/bench/` instead, so a smoke run never overwrites a recorded
/// result.
pub fn write_json(
    name: &str,
    full: bool,
    width: usize,
    trials: usize,
    extra: &[(&str, String)],
    rows: &[String],
) {
    let file = format!("BENCH_{name}.json");
    let path = if full {
        std::path::PathBuf::from(file)
    } else {
        std::path::Path::new("target/bench").join(file)
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the bench output directory");
    }
    std::fs::write(&path, json_report(name, width, trials, extra, rows))
        .expect("write the bench report");
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
    fn one_trial_is_its_own_median_and_quartiles() {
        let t = time_trials(1, 3, || {});
        assert_eq!(t.q1, t.median);
        assert_eq!(t.median, t.q3);
        assert!(t.median > 0);
        assert_eq!(
            t.us(),
            Timing {
                q1: 1,
                median: 1,
                q3: 1
            }
        );
    }

    #[test]
    fn seven_trials_give_the_2nd_4th_and_6th_order_statistics() {
        let t = Timing::of(vec![70, 10, 50, 30, 20, 60, 40]);
        assert_eq!(
            t,
            Timing {
                q1: 20,
                median: 40,
                q3: 60
            }
        );
        assert_eq!(t.json("x_ns"), "\"x_ns\": 40, \"x_ns_q1_q3\": [20, 60]");
    }

    #[test]
    fn json_header_holds_the_common_fields() {
        let json = json_report(
            "demo",
            2,
            7,
            &[("threads_requested", "[1,2]".into())],
            &["{\"case\": \"a\"}".into()],
        );
        assert!(json.starts_with("{\n  \"bench\": \"demo_bench\",\n  \"git_rev\": \""));
        for field in ["\"host_cores\": ", "\"width\": 2,", "\"trials\": 7,"] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        assert!(json.contains("\"threads_requested\": [1,2],"));
        assert!(json.ends_with("\"results\": [\n    {\"case\": \"a\"}\n  ]\n}\n"));
    }

    #[test]
    fn timing_returns_result() {
        let (x, us) = timed(|| 21 * 2);
        assert_eq!(x, 42);
        let _ = us;
    }
}
