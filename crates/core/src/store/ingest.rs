//! Streaming bulk ingest: CSV and snapshot loading through a bounded
//! multi-worker pipeline.
//!
//! The serial load path interned and appended one fact at a time; at
//! 10⁶–10⁷ facts the per-fact bookkeeping dominates. This module feeds
//! the columnar store through the parallel-copy shape of elefant-tools:
//!
//! ```text
//! reader ──raw batches──▶ parse workers ──parsed batches──▶ appender
//!   (1)      bounded           (W)            bounded          (1)
//! ```
//!
//! * the **reader** packs input lines into fixed-size batches, each
//!   stamped with a sequence number and its first line number;
//! * **parse workers** (width from the caller, typically
//!   [`crate::config::part_threads`]) turn each batch into relation
//!   *runs* — maximal stretches of consecutive same-relation rows with
//!   the values decoded — in any order, racing freely;
//! * the single **appender** applies parsed batches **strictly in
//!   sequence order** (a reorder buffer holds early arrivals), interning
//!   values and bulk-appending each run via
//!   [`FactStore::extend_ids`].
//!
//! Interning and fact-id assignment happen only in the appender, so the
//! loaded store — fact ids, interner order, snapshot bytes — is
//! **byte-identical at every worker count**, including the sequential
//! fallback (`threads <= 1`), which runs the same batch/parse/apply code
//! without spawning anything.
//!
//! Malformed input surfaces as a typed [`IngestError`] — never a panic
//! (the same untrusted-input discipline ca-lint L008 enforces on the
//! snapshot parser). The error reported is the one on the **earliest
//! line**, regardless of which worker hit it first.
//!
//! ## CSV dialect
//!
//! One fact per line: `Rel,field,…` — a relation name, then one field
//! per column. Fields are integer constants (`-7`, `42`) or labelled
//! nulls (`?3`). Blank lines and `#`-comments are skipped. A relation is
//! declared by its first row (arity = that row's field count) unless the
//! target store already declares it; later rows of different width are
//! [`IngestError::BadArity`] — a truncated row cannot slip in silently.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;

use crate::config::PART_THREADS_MAX;
use crate::value::Value;

use super::{dense_count, FactStore, SnapshotError, ValueId, MAX_COLUMNS, SNAPSHOT_MAGIC};

/// Lines per pipeline batch: large enough to amortize channel traffic,
/// small enough that the reorder buffer stays a few MB at width 8.
const BATCH_LINES: usize = 8192;

/// Why an input stream is not loadable. Every variant carries the
/// 1-based line of the offending row where one exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The reader failed mid-stream (the io error, rendered).
    Io(String),
    /// A line is not UTF-8.
    NonUtf8 { line: u64 },
    /// A data line has no relation name before its first comma.
    MissingRelation { line: u64 },
    /// A row's field count disagrees with the relation's arity (declared
    /// by the store or by the relation's first row). Truncated rows
    /// surface here.
    BadArity {
        line: u64,
        rel: String,
        declared: usize,
        got: usize,
    },
    /// A field is neither an integer constant nor a `?N` null.
    BadValue { line: u64, token: String },
    /// The row's relation is new and its arity takes the store past
    /// [`MAX_COLUMNS`] columns in all.
    TooManyColumns { line: u64, rel: String },
    /// The buffer carried the snapshot magic but failed snapshot
    /// validation.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest read failed: {e}"),
            IngestError::NonUtf8 { line } => write!(f, "line {line}: not utf-8"),
            IngestError::MissingRelation { line } => {
                write!(f, "line {line}: missing relation name")
            }
            IngestError::BadArity {
                line,
                rel,
                declared,
                got,
            } => write!(
                f,
                "line {line}: relation {rel} declared with arity {declared}, row has {got} fields"
            ),
            IngestError::BadValue { line, token } => {
                write!(
                    f,
                    "line {line}: `{token}` is neither an integer nor a ?N null"
                )
            }
            IngestError::TooManyColumns { line, rel } => write!(
                f,
                "line {line}: relation {rel} takes the store past {MAX_COLUMNS} columns"
            ),
            IngestError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// A raw batch: contiguous line bytes plus their spans, stamped with the
/// batch sequence number and the 1-based line number of its first line.
struct RawBatch {
    seq: u64,
    first_line: u64,
    buf: Vec<u8>,
    /// `(start, end)` byte spans of each line within `buf` (no `\n`).
    spans: Vec<(usize, usize)>,
}

/// One maximal stretch of consecutive same-relation rows of a batch,
/// values decoded, row-major.
struct Run {
    rel: String,
    arity: usize,
    n: u32,
    flat: Vec<Value>,
    /// 1-based line of the run's first row (error attribution).
    first_line: u64,
}

/// Decode one field: integer constant or `?N` null.
fn parse_field(tok: &str) -> Option<Value> {
    let t = tok.trim();
    if let Some(label) = t.strip_prefix('?') {
        label.parse::<u32>().ok().map(Value::null)
    } else {
        t.parse::<i64>().ok().map(Value::Const)
    }
}

/// Parse a raw batch into relation runs. Pure: no interning, no store
/// access — safe to race across workers.
fn parse_batch(raw: &RawBatch) -> Result<Vec<Run>, IngestError> {
    let mut runs: Vec<Run> = Vec::new();
    for (i, &(start, end)) in raw.spans.iter().enumerate() {
        let line_no = raw.first_line + i as u64;
        let bytes = raw.buf.get(start..end).unwrap_or(&[]);
        let line = match std::str::from_utf8(bytes) {
            Ok(s) => s.trim(),
            Err(_) => return Err(IngestError::NonUtf8 { line: line_no }),
        };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let rel = fields.next().unwrap_or("").trim();
        if rel.is_empty() {
            return Err(IngestError::MissingRelation { line: line_no });
        }
        let mut row: Vec<Value> = Vec::new();
        for tok in fields {
            match parse_field(tok) {
                Some(v) => row.push(v),
                None => {
                    return Err(IngestError::BadValue {
                        line: line_no,
                        token: tok.trim().to_string(),
                    })
                }
            }
        }
        match runs.last_mut() {
            Some(run) if run.rel == rel && run.arity == row.len() => {
                run.flat.append(&mut row);
                run.n = dense_count((run.n as usize).saturating_add(1));
            }
            _ => runs.push(Run {
                rel: rel.to_string(),
                arity: row.len(),
                n: 1,
                flat: row,
                first_line: line_no,
            }),
        }
    }
    Ok(runs)
}

/// Apply one batch's runs to the store, in order: the single
/// deterministic intern/append stage. Returns the facts appended.
fn apply_runs(
    store: &mut FactStore,
    runs: &[Run],
    ids_scratch: &mut Vec<ValueId>,
) -> Result<u64, IngestError> {
    let mut appended = 0u64;
    for run in runs {
        let rel = match store.relation(&run.rel) {
            Some(sym) => {
                let declared = store.arity(sym);
                if declared != run.arity {
                    return Err(IngestError::BadArity {
                        line: run.first_line,
                        rel: run.rel.clone(),
                        declared,
                        got: run.arity,
                    });
                }
                sym
            }
            None if store.n_columns().saturating_add(run.arity) > MAX_COLUMNS => {
                return Err(IngestError::TooManyColumns {
                    line: run.first_line,
                    rel: run.rel.clone(),
                })
            }
            None => store.add_relation(&run.rel, run.arity),
        };
        ids_scratch.clear();
        ids_scratch.extend(run.flat.iter().map(|&v| store.intern_value(v)));
        store.extend_ids(rel, run.n, ids_scratch);
        appended += u64::from(run.n);
    }
    Ok(appended)
}

/// Read the next batch of lines. `Ok(None)` at end of input.
fn read_batch(
    reader: &mut impl BufRead,
    seq: u64,
    next_line: &mut u64,
) -> Result<Option<RawBatch>, IngestError> {
    let mut buf: Vec<u8> = Vec::with_capacity(BATCH_LINES * 16);
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(BATCH_LINES);
    let first_line = *next_line;
    while spans.len() < BATCH_LINES {
        let start = buf.len();
        let n = reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| IngestError::Io(e.to_string()))?;
        if n == 0 {
            break;
        }
        let mut end = buf.len();
        while end > start && matches!(buf.get(end - 1), Some(b'\n') | Some(b'\r')) {
            end -= 1;
        }
        spans.push((start, end));
        *next_line += 1;
    }
    if spans.is_empty() {
        return Ok(None);
    }
    Ok(Some(RawBatch {
        seq,
        first_line,
        buf,
        spans,
    }))
}

/// Load CSV facts from `input` into `store` with `threads` parse
/// workers, returning the number of facts appended. Byte-identical
/// output at every width; `threads <= 1` runs the same code without
/// spawning, and widths above [`PART_THREADS_MAX`] are clamped to it
/// (each worker is a thread and sizes the bounded channels). On error
/// the store may hold a prefix of the input (every line before the
/// earliest offending one).
pub fn load_csv(
    input: impl Read + Send,
    store: &mut FactStore,
    threads: usize,
) -> Result<u64, IngestError> {
    let threads = threads.min(PART_THREADS_MAX);
    let mut reader = BufReader::new(input);
    let mut ids_scratch: Vec<ValueId> = Vec::new();
    if threads <= 1 {
        let mut appended = 0u64;
        let mut next_line = 1u64;
        let mut seq = 0u64;
        while let Some(raw) = read_batch(&mut reader, seq, &mut next_line)? {
            seq += 1;
            appended += apply_runs(store, &parse_batch(&raw)?, &mut ids_scratch)?;
        }
        return Ok(appended);
    }
    type Parsed = (u64, Result<Vec<Run>, IngestError>);
    let depth = threads.saturating_mul(2);
    let (raw_tx, raw_rx) = sync_channel::<Result<RawBatch, IngestError>>(depth);
    let (parsed_tx, parsed_rx): (SyncSender<Parsed>, Receiver<Parsed>) = sync_channel(depth);
    let raw_rx = Mutex::new(raw_rx);
    let abort = std::sync::atomic::AtomicBool::new(false);
    let per_batch: Result<Vec<u64>, IngestError> = std::thread::scope(|scope| {
        // Reader: pack lines into sequence-stamped batches. The closure
        // must *own* `raw_tx` (hence `move` + reborrowed references for
        // everything shared): the workers run until the raw channel
        // closes, and the channel closes only when this thread returns
        // and drops its sender — a borrowed sender would live to the end
        // of the scope and deadlock the join.
        let reader = &mut reader;
        let abort_flag = &abort;
        scope.spawn(move || {
            let mut next_line = 1u64;
            let mut seq = 0u64;
            loop {
                if abort_flag.load(std::sync::atomic::Ordering::Relaxed) {
                    return;
                }
                match read_batch(reader, seq, &mut next_line) {
                    Ok(Some(raw)) => {
                        if raw_tx.send(Ok(raw)).is_err() {
                            return;
                        }
                        seq += 1;
                    }
                    Ok(None) => return, // dropping raw_tx ends the workers
                    Err(e) => {
                        let _ = raw_tx.send(Err(e));
                        return;
                    }
                }
            }
        });
        // Parse workers: race over raw batches, forward results.
        for _ in 0..threads {
            let parsed_tx = parsed_tx.clone();
            let raw_rx = &raw_rx;
            scope.spawn(move || loop {
                let msg = {
                    let Ok(guard) = raw_rx.lock() else { return };
                    guard.recv()
                };
                let Ok(raw) = msg else { return };
                let (seq, parsed) = match raw {
                    Ok(raw) => (raw.seq, parse_batch(&raw)),
                    Err(e) => (u64::MAX, Err(e)),
                };
                if parsed_tx.send((seq, parsed)).is_err() {
                    return;
                }
            });
        }
        drop(parsed_tx);
        // Appender (this thread): strict sequence order via a reorder
        // buffer; count per batch, summed below — the deterministic
        // merge of the per-worker results.
        let mut pending: BTreeMap<u64, Result<Vec<Run>, IngestError>> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut counts: Vec<u64> = Vec::new();
        let mut failure: Option<IngestError> = None;
        while let Ok((seq, parsed)) = parsed_rx.recv() {
            pending.insert(seq, parsed);
            while let Some(parsed) = pending.remove(&next_seq) {
                next_seq += 1;
                if failure.is_some() {
                    // An earlier batch already failed: later in-order
                    // batches are drained but never applied (the store
                    // holds exactly the prefix before the error) and
                    // never overwrite the earliest-line error.
                    continue;
                }
                match parsed.and_then(|runs| apply_runs(store, &runs, &mut ids_scratch)) {
                    Ok(n) => counts.push(n),
                    Err(e) => {
                        failure = Some(e);
                        abort.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }
            if failure.is_some() {
                // Keep draining so the workers' bounded sends unblock,
                // but apply nothing further.
                pending.clear();
            }
        }
        // An Io error is stamped u64::MAX and would wait in `pending`
        // forever; surface it once every in-order batch is applied.
        if failure.is_none() {
            if let Some(e) = pending.remove(&u64::MAX).and_then(Result::err) {
                failure = Some(e);
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(counts),
        }
    });
    let appended: u64 = per_batch?.iter().sum();
    Ok(appended)
}

/// Load CSV from an in-memory buffer. See [`load_csv`].
pub fn load_csv_bytes(
    bytes: &[u8],
    store: &mut FactStore,
    threads: usize,
) -> Result<u64, IngestError> {
    load_csv(bytes, store, threads)
}

/// Load a whole store from bytes, sniffing the format: buffers opening
/// with the `CASTORE` magic go through the validating snapshot parser,
/// anything else is CSV through the parallel pipeline.
pub fn load_bytes(bytes: &[u8], threads: usize) -> Result<FactStore, IngestError> {
    if bytes.len() >= SNAPSHOT_MAGIC.len() && bytes.get(..8) == Some(&SNAPSHOT_MAGIC[..]) {
        return FactStore::from_bytes(bytes).map_err(IngestError::Snapshot);
    }
    let mut store = FactStore::new();
    load_csv_bytes(bytes, &mut store, threads)?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment, then a blank line

R,1,?1
R,?1,2
S,10
R,3,4
S,?2
";

    #[test]
    fn csv_loads_and_is_byte_identical_at_every_width() {
        let mut baseline: Option<Vec<u8>> = None;
        for threads in [1, 2, 4, 7] {
            let mut store = FactStore::new();
            let n = load_csv_bytes(SAMPLE.as_bytes(), &mut store, threads).expect("loads");
            assert_eq!(n, 5);
            assert_eq!(store.n_facts(), 5);
            let r = store.relation("R").expect("R declared");
            assert_eq!(store.arity(r), 2);
            assert_eq!(store.fact_values(0), vec![Value::Const(1), Value::null(1)]);
            let bytes = store.to_bytes();
            match &baseline {
                None => baseline = Some(bytes),
                Some(b) => assert_eq!(&bytes, b, "width {threads} differs"),
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns PART_THREADS_MAX interpreted threads")]
    fn huge_width_is_clamped_not_fatal() {
        // An explicit width far past any host is clamped before it sizes
        // the bounded channels, so the load neither aborts nor changes.
        let mut one = FactStore::new();
        load_csv_bytes(b"R,1\nR,2\n", &mut one, 1).expect("loads");
        let mut wide = FactStore::new();
        assert_eq!(load_csv_bytes(b"R,1\nR,2\n", &mut wide, usize::MAX), Ok(2));
        assert_eq!(wide.to_bytes(), one.to_bytes());
    }

    #[test]
    fn big_input_is_width_independent() {
        // Enough lines for several batches and genuine reordering.
        let mut csv = String::new();
        for i in 0..3 * BATCH_LINES as i64 {
            csv.push_str(&format!("E,{},{}\n", i % 997, (i * 7) % 997));
            if i % 5 == 0 {
                csv.push_str(&format!("L,{}\n", i % 31));
            }
        }
        let mut baseline: Option<Vec<u8>> = None;
        for threads in [1, 3] {
            let mut store = FactStore::new();
            load_csv_bytes(csv.as_bytes(), &mut store, threads).expect("loads");
            let bytes = store.to_bytes();
            match &baseline {
                None => baseline = Some(bytes),
                Some(b) => assert_eq!(&bytes, b),
            }
        }
    }

    #[test]
    fn truncated_row_is_a_typed_arity_error() {
        for threads in [1, 4] {
            let mut store = FactStore::new();
            let err = load_csv_bytes(b"R,1,2\nR,3\nR,4,5\n", &mut store, threads)
                .expect_err("truncated row");
            assert_eq!(
                err,
                IngestError::BadArity {
                    line: 2,
                    rel: "R".into(),
                    declared: 2,
                    got: 1
                }
            );
        }
    }

    #[test]
    fn arity_is_checked_against_a_predeclared_store() {
        let mut store = FactStore::new();
        store.add_relation("R", 3);
        let err = load_csv_bytes(b"R,1,2\n", &mut store, 1).expect_err("wrong arity");
        assert_eq!(
            err,
            IngestError::BadArity {
                line: 1,
                rel: "R".into(),
                declared: 3,
                got: 2
            }
        );
    }

    #[test]
    fn non_utf8_is_a_typed_error_not_a_panic() {
        for threads in [1, 4] {
            let mut store = FactStore::new();
            let err = load_csv_bytes(b"R,1,2\nS,\xff\xfe,3\n", &mut store, threads)
                .expect_err("non-utf8");
            assert_eq!(err, IngestError::NonUtf8 { line: 2 });
        }
    }

    #[test]
    fn bad_values_and_missing_relation_are_typed() {
        let mut store = FactStore::new();
        assert_eq!(
            load_csv_bytes(b"R,x\n", &mut store, 1).expect_err("bad value"),
            IngestError::BadValue {
                line: 1,
                token: "x".into()
            }
        );
        assert_eq!(
            load_csv_bytes(b"R,?-1\n", &mut store, 1).expect_err("bad null"),
            IngestError::BadValue {
                line: 1,
                token: "?-1".into()
            }
        );
        assert_eq!(
            load_csv_bytes(b",1,2\n", &mut store, 1).expect_err("no relation"),
            IngestError::MissingRelation { line: 1 }
        );
    }

    #[test]
    fn earliest_error_wins_across_batches() {
        // Two errors in different batches: the one on the earlier line is
        // reported at every width (the appender applies in order).
        let mut csv = String::new();
        for i in 0..BATCH_LINES as i64 {
            csv.push_str(&format!("E,{i},{i}\n"));
        }
        csv.push_str("E,oops,1\n"); // line BATCH_LINES + 1
        for i in 0..BATCH_LINES as i64 {
            csv.push_str(&format!("E,{i},{i}\n"));
        }
        csv.push_str("E,later\n");
        for threads in [1, 4] {
            let mut store = FactStore::new();
            let err = load_csv_bytes(csv.as_bytes(), &mut store, threads).expect_err("bad value");
            assert_eq!(
                err,
                IngestError::BadValue {
                    line: BATCH_LINES as u64 + 1,
                    token: "oops".into()
                }
            );
        }
    }

    #[test]
    fn error_in_first_batch_wins_and_freezes_the_prefix() {
        // The adversarial schedule for the appender: batch 0 fails on its
        // very first line, while batches 1 and 2 (batch 2 also malformed,
        // on a later line) are already parsed and waiting in order. The
        // appender must report line 1, not a later batch's error, and
        // must not append any facts past the failure point — regardless
        // of worker scheduling.
        let mut csv = String::from("E,oops,1\n"); // line 1, batch 0
        for i in 1..2 * BATCH_LINES as i64 {
            csv.push_str(&format!("E,{i},{i}\n"));
        }
        csv.push_str("E,later\n"); // last line, also malformed
        for threads in [1, 2, 4] {
            let mut store = FactStore::new();
            let err = load_csv_bytes(csv.as_bytes(), &mut store, threads).expect_err("bad value");
            assert_eq!(
                err,
                IngestError::BadValue {
                    line: 1,
                    token: "oops".into()
                }
            );
            assert_eq!(
                store.n_facts(),
                0,
                "no batch at or after the failing one may be applied"
            );
        }
    }

    #[test]
    fn load_bytes_sniffs_snapshots_and_csv() {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 1);
        s.insert(r, &[Value::Const(7)]);
        let snap = s.to_bytes();
        let loaded = load_bytes(&snap, 2).expect("snapshot path");
        assert_eq!(loaded.to_bytes(), snap);
        let csv = load_bytes(b"R,7\n", 2).expect("csv path");
        assert_eq!(csv.n_facts(), 1);
        // A corrupt snapshot is a typed snapshot error.
        let mut bad = snap.clone();
        bad.push(0);
        assert_eq!(
            load_bytes(&bad, 1).expect_err("corrupt"),
            IngestError::Snapshot(SnapshotError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn lying_snapshot_headers_are_typed_errors() {
        // 48 bytes claiming u32::MAX relations, and 64 bytes naming one
        // zero-row relation of arity u32::MAX.
        let mut many_rels = FactStore::new().to_bytes();
        many_rels[32..40].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        assert_eq!(
            load_bytes(&many_rels, 1).expect_err("directory missing"),
            IngestError::Snapshot(SnapshotError::Truncated)
        );
        let mut wide = FactStore::new().to_bytes();
        wide[32..40].copy_from_slice(&1u64.to_le_bytes());
        wide.extend_from_slice(&0u32.to_le_bytes());
        wide.extend_from_slice(&u32::MAX.to_le_bytes());
        wide.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(wide.len(), 64);
        assert!(matches!(
            load_bytes(&wide, 1).expect_err("arity past the column budget"),
            IngestError::Snapshot(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn csv_past_the_column_budget_is_a_typed_error() {
        let wide_row = |rel: &str, arity: usize| format!("{rel}{}\n", ",0".repeat(arity));
        // Exactly at the budget loads; one column more is refused on the
        // row that crosses it.
        let at_budget = format!("A,1\n{}", wide_row("B", MAX_COLUMNS - 1));
        let past_budget = format!("A,1\n{}A,2\n", wide_row("B", MAX_COLUMNS));
        for threads in [1, 4] {
            let mut store = FactStore::new();
            load_csv_bytes(at_budget.as_bytes(), &mut store, threads).expect("at the budget");
            assert_eq!(store.n_columns(), MAX_COLUMNS);
            let mut store = FactStore::new();
            let err = load_csv_bytes(past_budget.as_bytes(), &mut store, threads)
                .expect_err("past the budget");
            assert_eq!(
                err,
                IngestError::TooManyColumns {
                    line: 2,
                    rel: "B".into()
                }
            );
        }
    }

    #[test]
    fn crlf_and_missing_final_newline_load() {
        let mut store = FactStore::new();
        let n = load_csv_bytes(b"R,1,2\r\nR,3,4", &mut store, 1).expect("loads");
        assert_eq!(n, 2);
        assert_eq!(store.fact_values(1), vec![Value::Const(3), Value::Const(4)]);
    }
}
