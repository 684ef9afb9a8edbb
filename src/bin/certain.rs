//! `certain` — a command-line front end for the library.
//!
//! Databases use the `ca-relational` text syntax (`R(1, ?x, _)`, facts
//! separated by `;` or newlines); queries use the `ca-query` syntax
//! (`(x) :- R(x, 1), S(x)`, disjuncts separated by `|`). Arguments
//! starting with `@` are read from files.
//!
//! ```text
//! certain eval   '<db>' '<ucq>'     # certain answers (naïve evaluation)
//! certain check  '<db>' '<ucq>'     # naïve vs brute-force cross-check
//! certain order  '<db1>' '<db2>'    # compare in the information ordering
//! certain glb    '<db1>' '<db2>'    # greatest lower bound (Prop 5)
//! certain minimize '<boolean cq>'   # minimize a conjunctive query
//! ```

use std::io::{self, Write};
use std::process::exit;

use certain_answers::core::preorder::Preorder;
use certain_answers::query::ast::UnionQuery;
use certain_answers::query::certain::{certain_answer_bool, naive_eval_table};
use certain_answers::query::minimize::minimize_cq;
use certain_answers::query::parse::{parse_cq, parse_ucq};
use certain_answers::relational::database::NaiveDatabase;
use certain_answers::relational::glb::glb_databases;
use certain_answers::relational::ordering::InfoOrder;
use certain_answers::relational::parse::parse_database;

fn load(arg: &str) -> String {
    if let Some(path) = arg.strip_prefix('@') {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(2);
        })
    } else {
        arg.to_owned()
    }
}

fn db(arg: &str) -> NaiveDatabase {
    parse_database(&load(arg)).unwrap_or_else(|e| {
        eprintln!("database: {e}");
        exit(2);
    })
}

fn ucq(arg: &str) -> UnionQuery {
    parse_ucq(&load(arg)).unwrap_or_else(|e| {
        eprintln!("query: {e}");
        exit(2);
    })
}

fn print_db(d: &NaiveDatabase, out: &mut dyn Write) -> io::Result<()> {
    for fact in d.facts() {
        let args: Vec<String> = fact.args.iter().map(|v| v.to_string()).collect();
        writeln!(out, "{}({})", d.schema.name(fact.rel), args.join(", "))?;
    }
    Ok(())
}

/// Run `print` over one locked stdout. A reader that closes the pipe
/// early (`| head`) ends the output quietly with success; any other
/// write error exits 1.
fn print_stdout(print: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
    let mut out = io::stdout().lock();
    match print(&mut out).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("stdout: {e}");
            exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: certain <eval|check|order|glb|minimize> <args…>   (see --help in source docs)"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("eval") if args.len() == 3 => {
            let d = db(&args[1]);
            let q = ucq(&args[2]);
            if q.head_arity() == 0 {
                let ans = certain_answers::query::certain::naive_eval_bool(&q, &d);
                print_stdout(|out| writeln!(out, "{ans}"));
            } else {
                let table = naive_eval_table(&q, &d);
                print_stdout(|out| {
                    for row in table {
                        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                        writeln!(out, "({})", cells.join(", "))?;
                    }
                    Ok(())
                });
            }
        }
        Some("check") if args.len() == 3 => {
            let d = db(&args[1]);
            let q = ucq(&args[2]);
            if q.head_arity() != 0 {
                eprintln!("check works on Boolean queries");
                exit(2);
            }
            let naive = certain_answers::query::certain::naive_eval_bool(&q, &d);
            let brute = certain_answer_bool(&q, &d);
            print_stdout(|out| {
                writeln!(out, "naive evaluation: {naive}")?;
                writeln!(out, "brute force:      {brute}")?;
                if naive != brute {
                    writeln!(out, "DISAGREEMENT (query is outside UCQ semantics?)")?;
                }
                Ok(())
            });
            if naive != brute {
                exit(1);
            }
        }
        Some("order") if args.len() == 3 => {
            let a = db(&args[1]);
            let b = db(&args[2]);
            let le = InfoOrder.leq(&a, &b);
            let ge = InfoOrder.leq(&b, &a);
            let verdict = match (le, ge) {
                (true, true) => "equivalent (A ∼ B)",
                (true, false) => "A ⊑ B strictly (A is less informative)",
                (false, true) => "B ⊑ A strictly (B is less informative)",
                (false, false) => "incomparable",
            };
            print_stdout(|out| writeln!(out, "{verdict}"));
        }
        Some("glb") if args.len() == 3 => {
            let a = db(&args[1]);
            let b = db(&args[2]);
            let glb = glb_databases(&a, &b);
            print_stdout(|out| print_db(&glb, out));
        }
        Some("minimize") if args.len() == 2 => {
            let q = parse_cq(&load(&args[1])).unwrap_or_else(|e| {
                eprintln!("query: {e}");
                exit(2);
            });
            if !q.is_boolean() {
                eprintln!("minimize works on Boolean queries");
                exit(2);
            }
            // Infer a schema from the query atoms.
            let mut schema = certain_answers::relational::schema::Schema::new();
            for atom in &q.atoms {
                let used = atom.args.len();
                match schema.relation(&atom.rel).map(|rel| schema.arity(rel)) {
                    None => {
                        schema.add_relation(&atom.rel, used);
                    }
                    Some(arity) if arity != used => {
                        eprintln!(
                            "query: relation {} used with arity {arity} and {used}",
                            atom.rel
                        );
                        exit(2);
                    }
                    Some(_) => {}
                }
            }
            let minimal = minimize_cq(&q, &schema);
            print_stdout(|out| writeln!(out, "{minimal}"));
        }
        _ => usage(),
    }
}
