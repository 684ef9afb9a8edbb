//! # ca-bench — the experiment harness
//!
//! The paper is a theory paper: its "evaluation" is a set of propositions
//! and theorems. Each module here reproduces one of them empirically —
//! exhaustive checks on the paper's own constructions, agreement checks
//! between fast algorithms and brute-force ground truth, and scaling
//! measurements exhibiting the claimed complexity separations. The
//! `harness` binary prints every experiment's rows (recorded in
//! `EXPERIMENTS.md`). The microbench bins under `src/bin/` time the
//! engines against their reference oracles through [`report`]'s one
//! timing primitive and write the `BENCH_*.json` records; [`workload`]
//! holds the seeded generators and chase fixtures they share.
//!
//! | Module | Paper result |
//! |---|---|
//! | [`e01_naive_eval`] | classical naïve-evaluation theorem (§2.1, Prop 7, Thm 2) |
//! | [`e02_naive_eval_limits`] | Proposition 1 |
//! | [`e03_glb_product`] | Proposition 5 + size bounds |
//! | [`e04_codd_orderings`] | Proposition 4 |
//! | [`e05_no_glb_cycles`] | Theorem 3 |
//! | [`e06_ordered_trees`] | Proposition 6 |
//! | [`e07_general_glb`] | Theorem 4 / §5.2 |
//! | [`e08_data_exchange`] | Theorem 5 + Proposition 10 |
//! | [`e09_membership`] | Theorem 6 |
//! | [`e10_consistency`] | Proposition 11 |
//! | [`e11_query_answering`] | Theorem 7 |
//! | [`e12_cwa`] | Proposition 8 |
//! | [`e13_core_lattice`] | §4 lattice of cores |
//! | [`e14_framework`] | Theorem 1, Lemma 1, Corollary 1, Lemma 2 |

pub mod e01_naive_eval;
pub mod e02_naive_eval_limits;
pub mod e03_glb_product;
pub mod e04_codd_orderings;
pub mod e05_no_glb_cycles;
pub mod e06_ordered_trees;
pub mod e07_general_glb;
pub mod e08_data_exchange;
pub mod e09_membership;
pub mod e10_consistency;
pub mod e11_query_answering;
pub mod e12_cwa;
pub mod e13_core_lattice;
pub mod e14_framework;
pub mod report;
pub mod workload;

pub use report::Report;

/// An experiment entry: id, title, and runner.
pub type Experiment = (&'static str, &'static str, fn() -> Report);

/// All experiments, as `(id, title, runner)`.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        (
            "e01",
            "Naive evaluation = certain answers for UCQs",
            e01_naive_eval::run,
        ),
        (
            "e02",
            "Proposition 1: naive evaluation fails beyond UCQs",
            e02_naive_eval_limits::run,
        ),
        (
            "e03",
            "Proposition 5: glb via tuple-merge product",
            e03_glb_product::run,
        ),
        (
            "e04",
            "Proposition 4: Codd orderings coincide",
            e04_codd_orderings::run,
        ),
        (
            "e05",
            "Theorem 3: power-of-two cycles have no glb",
            e05_no_glb_cycles::run,
        ),
        (
            "e06",
            "Proposition 6: ordered trees lack glbs",
            e06_ordered_trees::run,
        ),
        ("e07", "Theorem 4: generalized glbs", e07_general_glb::run),
        (
            "e08",
            "Theorem 5 & Proposition 10: data exchange",
            e08_data_exchange::run,
        ),
        (
            "e09",
            "Theorem 6: membership under Codd + bounded treewidth",
            e09_membership::run,
        ),
        ("e10", "Proposition 11: consistency", e10_consistency::run),
        (
            "e11",
            "Theorem 7: query answering",
            e11_query_answering::run,
        ),
        (
            "e12",
            "Proposition 8: closed world via Hall's condition",
            e12_cwa::run,
        ),
        ("e13", "Lattice of cores", e13_core_lattice::run),
        (
            "e14",
            "Section 3 framework on finite domains",
            e14_framework::run,
        ),
    ]
}
