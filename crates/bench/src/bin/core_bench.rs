//! Seed-era retract search vs the incremental retraction engine.
//!
//! Cores sit under three of the paper's experiment pillars: the lattice
//! of cores `G ∧ G′ = core(G × G′)` (E13), Proposition 5's exponential
//! `core(∧X)` (E3), and Theorem 5's core solutions in data exchange
//! (E8). This harness times the retained reference implementations
//! (`ca_graph::reference`, `ca_exchange::reference` — one fresh CSP
//! compile per candidate per shrink round) against the shared engine
//! (`ca_hom::retract` — one compile, in-place bitset restriction, PTIME
//! folds, greedy endomorphism composition) on the three workload shapes:
//!
//! * `core_product` — cycle products `core(C_a × C_b) = C_lcm(a,b)`:
//!   the E13/E3 shape, where the fold prepass and image composition do
//!   most of the shrinking;
//! * `core_cycle_union` — `C_{2n} ⊔ C_2` retracting onto `C_2`: no
//!   vertex folds in a bare cycle, so this isolates greedy composition
//!   (iterating one found endomorphism collapses the even cycle);
//! * `core_solution` — the E8 chain-tgd mapping `S(x,y,u) → T(x,z),
//!   T(z,y)` over sources with growing redundancy: canonical solutions
//!   with `2k` nodes whose core keeps one two-node chain per distinct
//!   `(x, y)` pair;
//! * `core_solution_pendant` — the E8 shape where the engine's design
//!   pays off asymptotically: a tgd whose head is an all-null edge set
//!   forming incomparable odd cycles `C3 ⊔ C5 ⊔ C7` with `m` pendant
//!   nulls hung off them. Refuting an endomorphism that avoids a cycle
//!   fact is exponential in the number of *unrestricted* pendant
//!   variables, and the reference pays that refutation for every
//!   low-numbered candidate in every round; the engine folds the
//!   pendants away in the PTIME prepass, so its refutations run with
//!   domains already restricted to the live cycle values.
//!
//! Every timed case asserts the new engine agrees with the reference
//! oracle (same core size, hom-equivalent results). Results go to
//! stdout as a table and to `BENCH_core.json` (`target/bench/` for
//! `--quick`).

use ca_bench::report::{time_trials, trials, write_json, Report, Timing};
use ca_core::value::Value;
use ca_exchange::mapping::{Mapping, Rule};
use ca_exchange::solution::{canonical_solution, core_of_gendb};
use ca_gdm::database::GenDb;
use ca_gdm::hom::gdm_equiv;
use ca_gdm::schema::GenSchema;
use ca_graph::{core_of, reference, Digraph};

/// The E8 chain-tgd setting: `S(x, y, u) → T(x, z), T(z, y)`.
fn chain_mapping() -> (Mapping, GenSchema, GenSchema) {
    let nv = |id: u32| Value::null(id);
    let src = GenSchema::from_parts(&[("S", 3)], &[]);
    let tgt = GenSchema::from_parts(&[("T", 2)], &[]);
    let mut body = GenDb::new(src.clone());
    body.add_node("S", vec![nv(1), nv(2), nv(3)]);
    let mut head = GenDb::new(tgt.clone());
    head.add_node("T", vec![nv(1), nv(4)]);
    head.add_node("T", vec![nv(4), nv(2)]);
    (Mapping::new(vec![Rule { body, head }]), src, tgt)
}

/// A source with `k` S-facts over `k / 4 + 1` distinct `(x, y)` pairs:
/// the canonical solution has `2k` nodes; its core keeps one chain per
/// distinct pair.
fn chain_source(src: &GenSchema, k: usize) -> GenDb {
    let cv = |x: i64| Value::Const(x);
    let mut d = GenDb::new(src.clone());
    for i in 0..k {
        let pair = (i / 4) as i64;
        d.add_node("S", vec![cv(pair), cv(pair + 100), cv(i as i64 + 200)]);
    }
    d
}

/// Incomparable odd cycles (`C3 ⊔ C5 ⊔ C7` for `ps = [3, 5, 7]`) with
/// `pendants` extra vertices, each carrying one edge into the cycles.
fn pendant_cycles(ps: &[usize], pendants: usize) -> Digraph {
    let mut g = Digraph::new(0);
    for &p in ps {
        g = g.disjoint_union(&Digraph::cycle(p));
    }
    let base = g.n;
    for i in 0..pendants {
        let target = (i * 7) % base;
        let mut g2 = Digraph::new(g.n + 1);
        for &(a, b) in &g.edges {
            g2.add_edge(a, b);
        }
        g2.add_edge(g.n as u32, target as u32);
        g = g2;
    }
    g
}

/// The mapping for `core_solution_pendant`: one tgd `R(x) → T(⊥ᵢ, ⊥ⱼ)
/// for every edge (i, j) of pendant_cycles([3,5,7], m)`, all head nulls
/// existential. One source fact fires it once, so the canonical solution
/// is exactly that graph over fresh nulls.
fn pendant_mapping(m: usize) -> (Mapping, GenSchema, GenSchema) {
    let nv = |id: u32| Value::null(id);
    let src = GenSchema::from_parts(&[("R", 1)], &[]);
    let tgt = GenSchema::from_parts(&[("T", 2)], &[]);
    let graph = pendant_cycles(&[3, 5, 7], m);
    let mut body = GenDb::new(src.clone());
    body.add_node("R", vec![nv(1)]);
    let mut head = GenDb::new(tgt.clone());
    for &(a, b) in &graph.edges {
        head.add_node("T", vec![nv(100 + a), nv(100 + b)]);
    }
    (Mapping::new(vec![Rule { body, head }]), src, tgt)
}

struct Row {
    family: &'static str,
    case: String,
    ref_us: Timing,
    seq_us: Timing,
    core_size: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trials = trials(quick);
    let mut rows: Vec<Row> = Vec::new();

    // --- core_product: core(C_a × C_b) = C_lcm(a,b) (E13 / E3 shape) ---
    let cycle_pairs: &[(usize, usize)] = if quick {
        &[(2, 3)]
    } else {
        &[(2, 3), (4, 6), (6, 8), (8, 12)]
    };
    for &(a, b) in cycle_pairs {
        let g = Digraph::cycle(a).product(&Digraph::cycle(b));
        let (new_core, _) = core_of(&g);
        let (ref_core, _) = reference::core_of(&g);
        assert_eq!(new_core.n, ref_core.n, "core_product C{a}xC{b} size");
        assert!(
            new_core.hom_equiv(&ref_core),
            "core_product C{a}xC{b} equiv"
        );
        let reps = if g.n >= 40 { 1 } else { 3 };
        let ref_us = time_trials(trials, reps, || {
            std::hint::black_box(reference::core_of(&g));
        })
        .us();
        let seq_us = time_trials(trials, reps, || {
            std::hint::black_box(core_of(&g));
        })
        .us();
        rows.push(Row {
            family: "core_product",
            case: format!("C{a}xC{b} (n={})", g.n),
            ref_us,
            seq_us,
            core_size: new_core.n,
        });
        eprintln!(
            "[core_bench] core_product C{a}xC{b}: ref {}us, new {}us ({:.1}x)",
            ref_us.median,
            seq_us.median,
            ref_us.median as f64 / seq_us.median as f64
        );
    }

    // --- core_cycle_union: C_{2n} ⊔ C_2 → C_2 (greedy composition) ---
    let union_sizes: &[usize] = if quick { &[16] } else { &[16, 32, 64] };
    for &n in union_sizes {
        let g = Digraph::cycle(2 * n).disjoint_union(&Digraph::cycle(2));
        let (new_core, _) = core_of(&g);
        let (ref_core, _) = reference::core_of(&g);
        assert_eq!(new_core.n, ref_core.n, "core_cycle_union n={n} size");
        assert!(new_core.hom_equiv(&ref_core));
        let reps = if n >= 32 { 1 } else { 3 };
        let ref_us = time_trials(trials, reps, || {
            std::hint::black_box(reference::core_of(&g));
        })
        .us();
        let seq_us = time_trials(trials, reps, || {
            std::hint::black_box(core_of(&g));
        })
        .us();
        rows.push(Row {
            family: "core_cycle_union",
            case: format!("C{}+C2 (n={})", 2 * n, g.n),
            ref_us,
            seq_us,
            core_size: new_core.n,
        });
        eprintln!(
            "[core_bench] core_cycle_union C{}+C2: ref {}us, new {}us ({:.1}x)",
            2 * n,
            ref_us.median,
            seq_us.median,
            ref_us.median as f64 / seq_us.median as f64
        );
    }

    // --- core_solution: core(⊔M(D)) vs source size (E8 shape) ---
    let (mapping, src, tgt) = chain_mapping();
    let fact_counts: &[usize] = if quick { &[4] } else { &[4, 8, 16, 24] };
    for &k in fact_counts {
        let d = chain_source(&src, k);
        let canon = canonical_solution(&mapping, &d, &tgt);
        let new_core = core_of_gendb(&canon);
        let ref_core = ca_exchange::reference::core_of_gendb(&canon);
        assert_eq!(
            new_core.n_nodes(),
            ref_core.n_nodes(),
            "core_solution k={k} size"
        );
        assert!(gdm_equiv(&new_core, &ref_core), "core_solution k={k} equiv");
        assert!(mapping.is_solution(&d, &new_core));
        let reps = if k >= 16 { 1 } else { 3 };
        let ref_us = time_trials(trials, reps, || {
            std::hint::black_box(ca_exchange::reference::core_of_gendb(&canon));
        })
        .us();
        let seq_us = time_trials(trials, reps, || {
            std::hint::black_box(core_of_gendb(&canon));
        })
        .us();
        rows.push(Row {
            family: "core_solution",
            case: format!("facts={k} (canon={})", canon.n_nodes()),
            ref_us,
            seq_us,
            core_size: new_core.n_nodes(),
        });
        eprintln!(
            "[core_bench] core_solution facts={k}: ref {}us, new {}us ({:.1}x)",
            ref_us.median,
            seq_us.median,
            ref_us.median as f64 / seq_us.median as f64
        );
    }

    // --- core_solution_pendant: all-null pendant-cycle heads (E8) ---
    let pendant_counts: &[usize] = if quick { &[4] } else { &[4, 8, 12, 16] };
    for &m in pendant_counts {
        let (mapping, src2, tgt2) = pendant_mapping(m);
        let mut d = GenDb::new(src2);
        d.add_node("R", vec![Value::Const(1)]);
        let canon = canonical_solution(&mapping, &d, &tgt2);
        // The reference refutation cost is seconds at the largest size,
        // so each trial is one run, and the last timed run of each engine
        // is the differential-assertion witness.
        let mut ref_core = None;
        let ref_us = time_trials(trials, 1, || {
            ref_core = Some(ca_exchange::reference::core_of_gendb(&canon));
        })
        .us();
        let mut new_core = None;
        let seq_us = time_trials(trials, 1, || {
            new_core = Some(core_of_gendb(&canon));
        })
        .us();
        let ref_core = ref_core.expect("a timed reference run");
        let new_core = new_core.expect("a timed engine run");
        assert_eq!(
            new_core.n_nodes(),
            ref_core.n_nodes(),
            "core_solution_pendant m={m} size"
        );
        assert!(
            gdm_equiv(&new_core, &ref_core),
            "core_solution_pendant m={m} equiv"
        );
        assert!(mapping.is_solution(&d, &new_core));
        rows.push(Row {
            family: "core_solution_pendant",
            case: format!("pendants={m} (canon={})", canon.n_nodes()),
            ref_us,
            seq_us,
            core_size: new_core.n_nodes(),
        });
        eprintln!(
            "[core_bench] core_solution_pendant m={m}: ref {}us, new {}us ({:.1}x)",
            ref_us.median,
            seq_us.median,
            ref_us.median as f64 / seq_us.median as f64
        );
    }

    let mut report = Report::new(
        "core_bench: seed retract search vs incremental retraction engine",
        &["family", "case", "ref_us", "seq_us", "speedup", "core_size"],
    );
    let mut json_rows: Vec<String> = Vec::new();
    for r in &rows {
        let speedup = r.ref_us.median as f64 / r.seq_us.median as f64;
        report.row(vec![
            r.family.into(),
            r.case.clone(),
            r.ref_us.median.to_string(),
            r.seq_us.median.to_string(),
            format!("{speedup:.1}x"),
            r.core_size.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"family\": \"{}\", \"case\": \"{}\", {}, {}, \
             \"speedup_seq\": {:.2}, \"core_size\": {}}}",
            r.family,
            r.case,
            r.ref_us.json("ref_wall_us"),
            r.seq_us.json("new_seq_wall_us"),
            speedup,
            r.core_size
        ));
    }
    report.note(
        "ref = seed retract loop (one CSP compile per candidate per round); seq = ca_hom::retract",
    );
    report.note(format!(
        "times are medians of {trials} trial(s), µs per call"
    ));
    report.note(
        "every case asserts new-vs-reference agreement (core size + hom-equivalence); \
         core_solution_pendant asserts it on the last timed run of each engine",
    );
    println!("{report}");

    write_json("core", !quick, 1, trials, &[], &json_rows);
}
