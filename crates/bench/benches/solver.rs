//! Solver-layer benches: the governed solver vs the raw internal
//! bit-blasting CDCL backend on small QF_BV formulas, plus term construction and S-expression codec
//! throughput.

use bf4_smt::{Solver, Sort, Term};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn sample_formula(width: u32) -> Term {
    let x = Term::var("x", Sort::Bv(width));
    let y = Term::var("y", Sort::Bv(width));
    x.bvmul(&Term::bv(width, 3))
        .bvadd(&y)
        .eq_term(&Term::bv(width, 41))
        .and(&x.bvult(&y))
        .and(&y.bvand(&Term::bv(width, 0x0f)).eq_term(&Term::bv(width, 0x0a)))
}

fn bench_backends(c: &mut Criterion) {
    let f = sample_formula(12);
    let mut g = c.benchmark_group("solver-backends");
    g.bench_function("governed-default", |b| {
        b.iter(|| {
            let mut s = bf4_smt::default_solver();
            s.solve(black_box(&f)).result
        })
    });
    g.bench_function("internal-cdcl", |b| {
        b.iter(|| {
            let mut s = bf4_smt::bitblast::BitBlastSolver::new();
            s.solve(black_box(&f)).result
        })
    });
    g.finish();
}

fn bench_term_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("terms");
    g.bench_function("build-chain-1k", |b| {
        b.iter(|| {
            let mut t = Term::var("v", Sort::Bv(32));
            for i in 0..1000u32 {
                t = t.bvadd(&Term::bv(32, i as u128)).bvxor(&Term::bv(32, 7));
            }
            black_box(t.width())
        })
    });
    let f = sample_formula(32);
    g.bench_function("sexpr-roundtrip", |b| {
        b.iter(|| {
            let s = bf4_smt::to_sexpr(black_box(&f));
            bf4_smt::parse_sexpr(&s).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_backends, bench_term_ops);
criterion_main!(benches);
