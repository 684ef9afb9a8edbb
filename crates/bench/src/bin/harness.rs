//! The experiment harness: prints the reproduction tables for every
//! result of the paper (recorded in `EXPERIMENTS.md`).
//!
//! Usage:
//!
//! ```text
//! harness            # run everything
//! harness e05 e09    # run selected experiments
//! harness --list     # list experiment ids
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = ca_bench::all_experiments();
    if args.iter().any(|a| a == "--list") {
        for (id, title, _) in &experiments {
            println!("{id}  {title}");
        }
        return;
    }
    let selected: Vec<_> = if args.is_empty() {
        experiments
    } else {
        experiments
            .into_iter()
            .filter(|(id, _, _)| args.iter().any(|a| a == id))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no matching experiments; try --list");
        std::process::exit(1);
    }
    for (id, title, runner) in selected {
        println!("### {id}: {title}\n");
        let (report, us) = ca_bench::report::timed(runner);
        println!("{report}");
        println!("total: {:.2}s\n", us as f64 / 1e6);
    }
}
