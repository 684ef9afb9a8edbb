//! Criterion bench for E11: Theorem 7 — naïve ∃⁺ evaluation vs the coNP
//! image-enumeration procedure, and the ϕ₀ reduction.
//!
//! `certain_existential` addresses the grounding grid by linear index,
//! like the query engine's completion sweep, so this bench also covers
//! that addressing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ca_gdm::certain::{certain_existential, certain_expos, encode_graph_for_phi0, phi0};
use ca_gdm::database::GenDb;
use ca_gdm::logic::GFo;
use ca_gdm::schema::GenSchema;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_query_answering");
    let schema = GenSchema::from_parts(&[("R", 2)], &[]);
    let phi = GFo::exists(
        0,
        GFo::And(vec![
            GFo::Label("R".into(), 0),
            GFo::AttrEq {
                i: 0,
                j: 1,
                x: 0,
                y: 0,
            },
        ]),
    );
    for &facts in &[2usize, 3, 4] {
        let mut d = GenDb::new(schema.clone());
        for i in 0..facts {
            d.add_node(
                "R",
                vec![
                    ca_core::value::Value::null(i as u32),
                    ca_core::value::Value::Const(1),
                ],
            );
        }
        group.bench_with_input(BenchmarkId::new("expos_naive", facts), &facts, |b, _| {
            b.iter(|| certain_expos(black_box(&phi), black_box(&d)))
        });
        group.bench_with_input(BenchmarkId::new("conp_images", facts), &facts, |b, _| {
            b.iter(|| certain_existential(black_box(&phi), black_box(&d)))
        });
    }
    // ϕ₀ on the triangle.
    let phi0 = phi0();
    let k3 = encode_graph_for_phi0(3, &[(0, 1), (1, 2), (0, 2)]);
    group.bench_function("phi0_on_K3", |b| {
        b.iter(|| certain_existential(black_box(&phi0), black_box(&k3)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
