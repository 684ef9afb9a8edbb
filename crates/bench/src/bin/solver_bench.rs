//! Old-kernel vs new-kernel solver microbenchmark.
//!
//! Compares the retained reference solver (`ca_hom::reference`, the exact
//! pre-rewrite kernel) against the bitset/support kernel in `ca_hom::csp`
//! on the reduction families the paper's experiments lean on:
//!
//! * `k3_cycle_sq` — 3-coloring of squared cycles `C_n²` (the K3-coloring
//!   reduction behind Section 6 membership hardness; unsatisfiable when
//!   `3 ∤ n`, so the solver must refute exhaustively),
//! * `k3_random` — 3-coloring of sparse random graphs (the satisfiable
//!   side of the same reduction; measures find-one throughput),
//! * `cycle_hom` — graph homomorphism between odd cycles around `2^m`
//!   (`C_{2^m+1} → C_{2^m-1}` exists, `C_{2^m-1} → C_{2^m+1}` does not:
//!   the classical hard family for arc-consistency-based search),
//! * `pigeonhole` — refuting k-colorability of `K_{k+1}`: fully
//!   symmetric, so both kernels search isomorphic trees and the case
//!   isolates per-node throughput,
//! * `cycle_count` — counting all 3-colorings of the even cycle `C_{2^m}`
//!   (`2^n + 2` solutions: stresses enumeration throughput),
//! * `membership` — homomorphism of a random source structure into a
//!   dense complete target (the e09/e11 workload shape: membership
//!   `R ∈ [[D]]` and certain-answer checks compile to exactly this).
//!   Tables here are large (hundreds of tuples), so these cases are
//!   compile-dominated: they measure interning and root-propagation
//!   overhead rather than search speed.
//!
//! Each case runs the reference kernel and the new kernel, and reports
//! wall time, search nodes, and nodes/second. Results go to stdout as a
//! table and to `BENCH_solver.json` (`target/bench/` for `--quick` and
//! `--only` runs).

use std::fmt::Write as _;
use std::time::Instant;

use ca_bench::report::Report;
use ca_hom::csp::Csp;
use ca_hom::reference;

/// Deterministic splitmix64 — the bench must be reproducible run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The "different colors" table for `k` colors.
fn neq_table(k: u32) -> Vec<Vec<u32>> {
    (0..k)
        .flat_map(|a| (0..k).filter(move |&b| b != a).map(move |b| vec![a, b]))
        .collect()
}

/// 3-coloring CSP of an undirected graph given as an edge list.
fn coloring_csp(n: usize, edges: &[(u32, u32)]) -> Csp {
    let mut csp = Csp::with_uniform_domains(n, 3);
    let diff = neq_table(3);
    for &(u, v) in edges {
        csp.add_constraint(vec![u, v], diff.clone());
    }
    csp
}

/// The squared cycle `C_n²`: edges `(i, i+1)` and `(i, i+2)` mod `n`.
/// 4-chromatic whenever `3 ∤ n`, so its 3-coloring CSP is unsatisfiable.
fn cycle_squared(n: usize) -> Csp {
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|i| {
            let n = n as u32;
            [(i, (i + 1) % n), (i, (i + 2) % n)]
        })
        .collect();
    coloring_csp(n, &edges)
}

/// A random graph with `n` vertices and `m` distinct edges.
fn random_graph(rng: &mut Rng, n: usize, m: usize) -> Csp {
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.below(n as u64) as u32;
        let v = rng.below(n as u64) as u32;
        if u != v && !edges.contains(&(u, v)) && !edges.contains(&(v, u)) {
            edges.push((u, v));
        }
    }
    coloring_csp(n, &edges)
}

/// Homomorphism CSP between undirected cycles `C_a → C_b`: variables are
/// the vertices of `C_a`, values the vertices of `C_b`, and each edge of
/// `C_a` must land on an edge of `C_b`.
fn cycle_hom_csp(a: usize, b: usize) -> Csp {
    let mut csp = Csp::with_uniform_domains(a, b as u32);
    let b = b as u32;
    let adj: Vec<Vec<u32>> = (0..b)
        .flat_map(|i| [vec![i, (i + 1) % b], vec![(i + 1) % b, i]])
        .collect();
    for i in 0..a as u32 {
        csp.add_constraint(vec![i, (i + 1) % a as u32], adj.clone());
    }
    csp
}

/// The e09/e11 workload shape: map a random binary source structure with
/// `n` variables (2n random binary constraints) into a random dense
/// digraph on `d` vertices. Each constraint's table is the target's edge
/// list — a few hundred tuples.
fn membership_csp(rng: &mut Rng, n: usize, d: u32, density_pct: u64) -> Csp {
    let mut edges: Vec<Vec<u32>> = Vec::new();
    for u in 0..d {
        for v in 0..d {
            if rng.below(100) < density_pct {
                edges.push(vec![u, v]);
            }
        }
    }
    let mut csp = Csp::with_uniform_domains(n, d);
    for _ in 0..2 * n {
        let u = rng.below(n as u64) as u32;
        let mut v = rng.below(n as u64) as u32;
        if u == v {
            v = (v + 1) % n as u32;
        }
        csp.add_constraint(vec![u, v], edges.clone());
    }
    csp
}

/// What each benched case asks of the solver.
#[derive(Clone, Copy)]
enum Mode {
    /// Decide satisfiability (find one solution or refute).
    Solve,
    /// Count all solutions.
    Count,
}

struct Case {
    family: &'static str,
    /// The family's size parameter, for the report.
    size: String,
    csp: Csp,
    mode: Mode,
    /// Repetitions per measurement (fast cases need several for a stable
    /// wall-time reading).
    reps: u32,
}

struct Measurement {
    wall_us: u128,
    /// Search nodes per repetition (`None` where the kernel can't report
    /// them, i.e. the reference kernel's counting mode).
    nodes: Option<u64>,
}

fn time_reps(reps: u32, mut f: impl FnMut()) -> u128 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    (start.elapsed().as_micros() / u128::from(reps)).max(1)
}

fn run_reference(case: &Case) -> Measurement {
    let mut nodes = None;
    let wall_us = match case.mode {
        Mode::Solve => time_reps(case.reps, || {
            let (_, steps) = reference::solve_counting_steps(&case.csp);
            nodes = Some(steps);
        }),
        Mode::Count => time_reps(case.reps, || {
            std::hint::black_box(reference::count_solutions(&case.csp));
        }),
    };
    Measurement { wall_us, nodes }
}

fn run_new(case: &Case) -> Measurement {
    let mut nodes = 0u64;
    let wall_us = match case.mode {
        Mode::Solve => time_reps(case.reps, || {
            let (_, stats) = case.csp.solve_stats();
            nodes = stats.nodes;
        }),
        Mode::Count => time_reps(case.reps, || {
            let (_, stats) = case.csp.count_solutions_stats();
            nodes = stats.nodes;
        }),
    };
    Measurement {
        wall_us,
        nodes: Some(nodes),
    }
}

fn per_sec(nodes: Option<u64>, wall_us: u128) -> String {
    match nodes {
        Some(n) => format!("{:.0}", n as f64 / (wall_us as f64 / 1e6)),
        None => "-".into(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `--only <substr>` runs just the families whose name contains substr.
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    let mut rng = Rng(0xca11ab1e);

    let mut cases: Vec<Case> = Vec::new();
    // K3-coloring refutation on squared cycles (3 ∤ n ⇒ unsatisfiable).
    let sq_sizes: &[usize] = if quick { &[23, 47] } else { &[23, 47, 95, 191] };
    for &n in sq_sizes {
        cases.push(Case {
            family: "k3_cycle_sq",
            size: format!("n={n}"),
            csp: cycle_squared(n),
            mode: Mode::Solve,
            reps: 3,
        });
    }
    // K3-coloring search on sparse random graphs (satisfiable regime).
    let rnd_sizes: &[usize] = if quick { &[100] } else { &[100, 200, 400] };
    for &n in rnd_sizes {
        cases.push(Case {
            family: "k3_random",
            size: format!("n={n},m={}", 2 * n),
            csp: random_graph(&mut rng, n, 2 * n),
            mode: Mode::Solve,
            reps: 10,
        });
    }
    // Odd-cycle homomorphisms around 2^m: sat and unsat directions.
    // (m = 5 would show a bigger gap still — measured 5.6x on C33 -> C31 —
    // but a single case costs the reference kernel minutes, so the bench
    // stops at m = 4.)
    let ms: &[usize] = if quick { &[3] } else { &[3, 4] };
    for &m in ms {
        let lo = (1 << m) - 1;
        let hi = (1 << m) + 1;
        cases.push(Case {
            family: "cycle_hom",
            size: format!("C{hi}->C{lo}"),
            csp: cycle_hom_csp(hi, lo),
            mode: Mode::Solve,
            reps: 10,
        });
        cases.push(Case {
            family: "cycle_hom",
            size: format!("C{lo}->C{hi}"),
            csp: cycle_hom_csp(lo, hi),
            mode: Mode::Solve,
            reps: 3,
        });
    }
    // Pigeonhole refutations: K_{k+1} is not k-colorable. The instance is
    // completely symmetric, so variable/value-ordering luck cannot help
    // either kernel — both must grind through isomorphic factorial-size
    // refutation trees, making this a pure per-node throughput comparison.
    let ph_sizes: &[usize] = if quick { &[6] } else { &[6, 7, 8, 9, 10] };
    for &k in ph_sizes {
        let edges: Vec<(u32, u32)> = (0..=k as u32)
            .flat_map(|i| (0..i).map(move |j| (j, i)))
            .collect();
        let mut csp = Csp::with_uniform_domains(k + 1, k as u32);
        let diff = neq_table(k as u32);
        for &(u, v) in &edges {
            csp.add_constraint(vec![u, v], diff.clone());
        }
        cases.push(Case {
            family: "pigeonhole",
            size: format!("K{}/{k}col", k + 1),
            csp,
            mode: Mode::Solve,
            reps: if k >= 10 { 1 } else { 3 },
        });
    }
    // Membership-style homomorphism instances. Dense targets are solved
    // nearly greedily by both kernels, so this family deliberately
    // measures the fixed costs — compile time, interning, root
    // propagation — rather than search speed; near-parity is the expected
    // (and honest) result here.
    let mem_sizes: &[(usize, u64)] = if quick {
        &[(40, 40)]
    } else {
        &[(40, 40), (80, 40), (160, 40)]
    };
    for &(n, density) in mem_sizes {
        cases.push(Case {
            family: "membership",
            size: format!("n={n},d=32,p={density}%"),
            csp: membership_csp(&mut rng, n, 32, density),
            mode: Mode::Solve,
            reps: 5,
        });
    }
    // Counting all 3-colorings of the even cycle C_{2^m}: 2^n + 2 each.
    let count_ms: &[usize] = if quick { &[3] } else { &[3, 4] };
    for &m in count_ms {
        let n = 1usize << m;
        cases.push(Case {
            family: "cycle_count",
            size: format!("C{n}"),
            csp: coloring_csp(
                n,
                &(0..n as u32)
                    .map(|i| (i, (i + 1) % n as u32))
                    .collect::<Vec<_>>(),
            ),
            mode: Mode::Count,
            reps: 3,
        });
    }

    if let Some(f) = &only {
        cases.retain(|c| c.family.contains(f.as_str()));
    }

    let mut report = Report::new(
        "solver_bench: reference kernel vs bitset/support kernel",
        &[
            "family",
            "case",
            "mode",
            "ref_us",
            "new_us",
            "speedup",
            "new_nodes",
            "new_nodes/s",
        ],
    );
    let mut json_rows: Vec<String> = Vec::new();

    for case in &cases {
        let mode = match case.mode {
            Mode::Solve => "solve",
            Mode::Count => "count",
        };
        eprintln!("[solver_bench] {} {} ...", case.family, case.size);
        let old = run_reference(case);
        eprintln!("[solver_bench]   ref done ({}us)", old.wall_us);
        let new_seq = run_new(case);
        let speedup = old.wall_us as f64 / new_seq.wall_us as f64;
        report.row(vec![
            case.family.into(),
            case.size.clone(),
            mode.into(),
            old.wall_us.to_string(),
            new_seq.wall_us.to_string(),
            format!("{speedup:.1}x"),
            new_seq.nodes.unwrap_or(0).to_string(),
            per_sec(new_seq.nodes, new_seq.wall_us),
        ]);
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"family\": \"{}\", \"case\": \"{}\", \"mode\": \"{}\", \
             \"ref_wall_us\": {}, \"new_seq_wall_us\": {}, \"speedup_seq\": {:.2}, \
             \"ref_nodes\": {}, \"new_nodes\": {}, \
             \"ref_nodes_per_sec\": {}, \"new_nodes_per_sec\": {}}}",
            case.family,
            case.size,
            mode,
            old.wall_us,
            new_seq.wall_us,
            speedup,
            old.nodes.map_or("null".into(), |n| n.to_string()),
            new_seq.nodes.unwrap_or(0),
            old.nodes
                .map_or("null".into(), |n| per_sec(Some(n), old.wall_us)),
            per_sec(new_seq.nodes, new_seq.wall_us),
        );
        json_rows.push(row);
        // Stream progress: the biggest reference cases take a while.
        eprintln!(
            "[solver_bench] {} {} done: ref {}us, new {}us ({speedup:.1}x)",
            case.family, case.size, old.wall_us, new_seq.wall_us
        );
    }

    report.note("ref = pre-rewrite kernel (ca_hom::reference); new = bitset/support kernel");
    report.note("wall times are per repetition; node counts differ between kernels (the new kernel adds root propagation and degree tie-breaking)");
    println!("{report}");

    let json = format!(
        "{{\n  \"bench\": \"solver_bench\",\n  \"git_rev\": \"{}\",\n  \"host_cores\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        ca_bench::report::git_rev(),
        ca_bench::report::host_cores(),
        json_rows.join(",\n")
    );
    ca_bench::report::write_json("solver", !quick && only.is_none(), &json);
}
