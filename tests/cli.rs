//! End-to-end checks of the `certain` binary: exit statuses and stderr
//! prefixes on bad input and on stdout write errors.

use std::process::{Command, Output};

/// Run `certain` with `args`, stdout captured.
fn certain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_certain"))
        .args(args)
        .output()
        .expect("run the certain binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn minimize_rejects_a_relation_used_at_two_arities() {
    let out = certain(&["minimize", "() :- R(x), R(x, y)"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).starts_with("query:"), "{}", stderr(&out));
    assert!(stderr(&out).contains("relation R used with arity 1 and 2"));
}

#[test]
fn eval_rejects_a_database_relation_at_two_arities() {
    let out = certain(&["eval", "R(1); R(1, 2)", "(x) :- R(x)"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).starts_with("database:"), "{}", stderr(&out));
}

/// Every printing subcommand, with stdout on `/dev/full` (every write
/// fails with "no space left"), reports the error and exits 1 instead
/// of panicking.
#[cfg(target_os = "linux")]
#[test]
fn write_errors_exit_1_without_panicking() {
    let cases: [&[&str]; 5] = [
        &["eval", "R(1, ?x)", "(y) :- R(y, z)"],
        &["check", "R(1)", "() :- R(x)"],
        &["order", "R(1)", "R(?x)"],
        &["glb", "R(1, 2)", "R(1, 3)"],
        &["minimize", "() :- R(x, y), R(x, z)"],
    ];
    for args in cases {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = Command::new(env!("CARGO_BIN_EXE_certain"))
            .args(args)
            .stdout(full)
            .output()
            .expect("run the certain binary");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("stdout:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}
