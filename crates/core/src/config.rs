//! Runtime configuration: the one `CA_*` environment knob, parsed in one
//! place.
//!
//! The only parallel kernel is the streaming bulk loader
//! (`ca_core::store::ingest`); its worker count comes from
//! `CA_PART_THREADS` through [`part_threads`]. Every other engine (the
//! completion sweep, the chase match phase, joins, the CSP search and
//! core retraction) runs on the calling thread. The parse policy:
//!
//! * **set and numeric** — saturating parse: `"0"` is clamped up to 1 (a
//!   zero-worker loader cannot run), values too large for `usize` clamp
//!   to `usize::MAX` instead of being treated as typos (and then to
//!   [`PART_THREADS_MAX`]);
//! * **set but malformed** (empty, signs, non-digits) — the *explicit
//!   fallback* (available parallelism) is used, never a silent `1`;
//! * **unset** — the fallback.
//!
//! Every `CA_*` variable read through this module must be documented in
//! `DESIGN.md`; the in-tree linter (`ca-lint`, rules L003/L005) enforces
//! both the documentation and that no other module reads `CA_*` variables
//! or spawns threads outside the loader.

/// The bulk-ingest worker count variable.
const PART_THREADS_VAR: &str = "CA_PART_THREADS";

/// Saturating thread-count parse: `Some(n.max(1))` for all-digit input
/// (clamping overflow to `usize::MAX`), `None` for anything else.
fn parse_threads(raw: &str) -> Option<usize> {
    let digits = raw.trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    // All-digit input can only fail to parse by overflow: saturate.
    Some(digits.parse::<usize>().unwrap_or(usize::MAX).max(1))
}

/// Thread count from the environment variable `var`, falling back to
/// `fallback()` when the variable is unset *or malformed*. Always ≥ 1.
fn threads_from(var: &str, fallback: impl FnOnce() -> usize) -> usize {
    std::env::var(var)
        .ok()
        .as_deref()
        .and_then(parse_threads)
        .unwrap_or_else(|| fallback().max(1))
}

/// The machine's available parallelism, or `default` when unknown.
///
/// `std::thread::available_parallelism` is a syscall on every call and
/// is not cached by std. The width cannot change within a process, so
/// it is read once. (`CA_PART_THREADS` is deliberately *not* cached —
/// the documented semantics is that it is re-read per call.)
pub fn available_parallelism_or(default: usize) -> usize {
    use std::sync::OnceLock;
    static WIDTH: OnceLock<Option<usize>> = OnceLock::new();
    WIDTH
        .get_or_init(|| std::thread::available_parallelism().ok().map(usize::from))
        .unwrap_or(default)
}

/// Upper bound on the bulk-loader width. The width is honored
/// *verbatim* — one spawned parse worker each — so a typo'd huge width
/// would otherwise abort on allocation or thread-spawn failure instead
/// of degrading. The cap is far above any host width (determinism
/// tests deliberately run wider than the machine) while keeping the
/// loader's state bounded. `ingest::load_csv` applies it to explicit
/// widths too.
pub const PART_THREADS_MAX: usize = 4096;

/// Bulk-ingest worker count: `CA_PART_THREADS`, else available
/// parallelism, clamped to [`PART_THREADS_MAX`]. Consumed by the
/// streaming bulk loader (`ca_core::store::ingest`), which is
/// byte-identical at every width, so this knob only moves wall time.
pub fn part_threads() -> usize {
    threads_from(PART_THREADS_VAR, || available_parallelism_or(1)).min(PART_THREADS_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_saturating() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 8 "), Some(8));
        assert_eq!(parse_threads("0"), Some(1), "zero saturates up to one");
        assert_eq!(
            parse_threads("999999999999999999999999999999"),
            Some(usize::MAX),
            "overflow saturates instead of falling back"
        );
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("3.5"), None);
    }

    // Each test uses its own variable name: tests run concurrently in one
    // process and share the environment.
    #[test]
    fn unset_uses_fallback() {
        assert_eq!(threads_from("CA_TEST_CFG_UNSET", || 7), 7);
    }

    #[test]
    fn zero_saturates_to_one() {
        std::env::set_var("CA_TEST_CFG_ZERO", "0");
        assert_eq!(threads_from("CA_TEST_CFG_ZERO", || 7), 1);
    }

    #[test]
    fn malformed_uses_fallback_not_one() {
        std::env::set_var("CA_TEST_CFG_BAD", "abc");
        assert_eq!(threads_from("CA_TEST_CFG_BAD", || 7), 7);
    }

    #[test]
    fn set_value_wins_over_fallback() {
        std::env::set_var("CA_TEST_CFG_SET", "3");
        assert_eq!(threads_from("CA_TEST_CFG_SET", || 7), 3);
    }

    #[test]
    fn fallback_is_clamped_to_one() {
        assert_eq!(threads_from("CA_TEST_CFG_CLAMP", || 0), 1);
    }

    #[test]
    fn part_width_is_capped_not_verbatim() {
        // A typo'd huge width degrades to the cap instead of aborting on
        // per-worker allocation; widths under the cap pass through.
        std::env::set_var(PART_THREADS_VAR, "999999999999999999999999999999");
        assert_eq!(part_threads(), PART_THREADS_MAX);
        std::env::set_var(PART_THREADS_VAR, "7");
        assert_eq!(part_threads(), 7);
        std::env::remove_var(PART_THREADS_VAR);
    }
}
