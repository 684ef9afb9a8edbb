//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared, and the speed they give one
//! core drifts: the same job on the same input can take two thirds more
//! wall time in one minute than in the next, while the process's CPU time
//! follows the wall time, so the drift is the core running slower, not the
//! job waiting. Left in, that drift is wider than any regression bound.
//!
//! So every timed call (a job or a set-up) is followed by a fixed kernel
//! doing the same kind of work as the pipeline (formatting and parsing CSV
//! text, hash-map and ordered-set inserts), and each time the benchmark
//! reports is scaled by `REF_MS / k`, where `k` is the mean of the kernel
//! runs on either side of the call: it reads as milliseconds on a host
//! where the kernel takes `REF_MS`. One kernel run is too short to be
//! steady on its own; the medians the benchmark reports are taken over
//! many scaled calls. The kernel is the benchmark's own code, so no change
//! to the program moves it; the raw wall and kernel times go to standard
//! error.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// The kernel's typical wall time, in milliseconds, on a 2.1 GHz Xeon
/// core.
pub const REF_MS: f64 = 4.0;

/// Times calls, each scaled by the kernel runs on either side of it.
pub struct Clock {
    /// The kernel time before the next call.
    before: f64,
    runs: u64,
}

/// One timed call.
pub struct Timed<T> {
    pub out: T,
    pub wall_ms: f64,
    /// `REF_MS / k`, `k` the mean kernel time on either side of the call.
    pub scale: f64,
    /// The kernel time after the call.
    pub kernel_ms: f64,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            before: kernel_ms(0),
            runs: 1,
        }
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> Timed<T> {
        let start = Instant::now();
        let out = f();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = kernel_ms(self.runs);
        self.runs += 1;
        let scale = REF_MS / ((self.before + after) / 2.0);
        self.before = after;
        Timed {
            out,
            wall_ms,
            scale,
            kernel_ms: after,
        }
    }
}

/// Run the kernel once; returns its wall time in milliseconds.
pub fn kernel_ms(seed: u64) -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(seed)));
    start.elapsed().as_secs_f64() * 1e3
}

/// A self-join of 6000 random edges, read from CSV text.
fn kernel(seed: u64) -> usize {
    let mut x = seed | 1;
    let mut text = String::new();
    for _ in 0..6000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let _ = writeln!(text, "R,{},{}", x % 3000, (x >> 20) % 3000);
    }
    let mut by_src: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut fields = line
            .split(',')
            .skip(1)
            .map(|f| f.parse::<u32>().unwrap_or(0));
        let (a, b) = (fields.next().unwrap_or(0), fields.next().unwrap_or(0));
        by_src.entry(a).or_default().push(b);
        rows.push((a, b));
    }
    let mut paths: BTreeSet<Vec<u32>> = BTreeSet::new();
    for (a, b) in rows {
        for &c in by_src.get(&b).into_iter().flatten() {
            paths.insert(vec![a, c]);
        }
    }
    paths.len()
}
