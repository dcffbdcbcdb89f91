//! Criterion benches for the crossbar-physics kernels: the analytic IR-drop
//! estimator, full table generation, and the exact MNA solver.

use criterion::{criterion_group, criterion_main, Criterion};
use ladder_xbar::{
    analytic, solve_reset, CrossbarParams, PatternSpec, ResetOp, SolverKind, TableConfig,
    TimingTable,
};
use std::hint::black_box;

fn bench_analytic(c: &mut Criterion) {
    let params = CrossbarParams::default();
    let op = analytic::OperatingPoint {
        target_wl: 400,
        target_bls: (504..512).collect(),
        wl_ones: 256,
        bl_ones: 512,
    };
    c.bench_function("analytic_estimate_vd_512x512", |b| {
        b.iter(|| analytic::estimate_vd(black_box(&params), black_box(&op)))
    });
}

#[expect(
    clippy::expect_used,
    reason = "the default table config generates infallibly"
)]
fn bench_table_generation(c: &mut Criterion) {
    let cfg = TableConfig::ladder_default();
    c.bench_function("timing_table_generate_8x8x8", |b| {
        b.iter(|| TimingTable::generate(black_box(&cfg)).expect("table"))
    });
}

#[expect(clippy::expect_used, reason = "the fixed 64x64 reset always solves")]
fn bench_mna(c: &mut Criterion) {
    let params = CrossbarParams::with_size(64, 64);
    let grid = PatternSpec::WorstCaseWl { wl_ones: 32 }.materialize(64, 64, 63, &[56, 63]);
    let op = ResetOp::new(63, vec![56, 63]);
    c.bench_function("mna_line_relaxation_64x64", |b| {
        b.iter(|| {
            solve_reset(
                black_box(&params),
                black_box(&grid),
                black_box(&op),
                SolverKind::LineRelaxation,
            )
            .expect("solve")
        })
    });
}

criterion_group!(benches, bench_analytic, bench_table_generation, bench_mna);
criterion_main!(benches);
