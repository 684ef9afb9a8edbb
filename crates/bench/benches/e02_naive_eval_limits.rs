//! Criterion bench for E2: exact FO certain answers (brute force over the
//! adequate pool) vs naïve FO evaluation.
//!
//! `certain_answer_fo` sweeps completions by linear index with early
//! exit, so this also exercises the completion-space addressing layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ca_query::ast::{Atom, Fo, Term::Var as V};
use ca_query::certain::{certain_answer_fo, naive_eval_fo_bool};
use ca_relational::generate::{random_naive_db, DbParams, Rng};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e02_fo_certain");
    let phi = Fo::exists(
        0,
        Fo::exists(
            1,
            Fo::And(vec![
                Fo::Atom(Atom::new("R", vec![V(0), V(0)])),
                Fo::Atom(Atom::new("R", vec![V(1), V(1)])),
                Fo::Eq(V(0), V(1)).not(),
            ]),
        ),
    );
    for &n_nulls in &[1u32, 2, 3] {
        let mut rng = Rng::new(7);
        let db = random_naive_db(
            &mut rng,
            DbParams {
                n_facts: 4,
                arity: 2,
                n_constants: 2,
                n_nulls,
                null_pct: 50,
            },
        );
        group.bench_with_input(BenchmarkId::new("naive_fo", n_nulls), &n_nulls, |b, _| {
            b.iter(|| naive_eval_fo_bool(black_box(&phi), black_box(&db)))
        });
        group.bench_with_input(BenchmarkId::new("exact_fo", n_nulls), &n_nulls, |b, _| {
            b.iter(|| certain_answer_fo(black_box(&phi), black_box(&db)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
