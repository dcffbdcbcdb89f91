//! The tentpole guarantee of the parallel runner: executing the main
//! evaluation with several workers produces figures bit-identical to a
//! sequential run — parallelism buys throughput, never changes results.

use ladder::sim::experiments::{ExperimentConfig, FigureSeries, MainEval, Workload};
use ladder::sim::Scheme;
use ladder::Runner;

fn assert_series_identical(a: &FigureSeries, b: &FigureSeries) {
    // Byte-identical renderings...
    assert_eq!(a.to_csv(), b.to_csv(), "CSV for {} diverged", a.metric);
    // ...backed by bit-exact numerics, not just equal printed forms.
    assert_eq!(a.rows.len(), b.rows.len());
    for ((la, va), (lb, vb)) in a.rows.iter().zip(&b.rows) {
        assert_eq!(la, lb);
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{}/{la}: {x} != {y}", a.metric);
        }
    }
    for (x, y) in a.average.iter().zip(&b.average) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn parallel_main_eval_is_bit_identical_to_sequential() {
    let cfg = ExperimentConfig::quick();
    let schemes = [
        Scheme::Baseline,
        Scheme::Blp,
        Scheme::Oracle,
        Scheme::LadderHybrid,
    ];
    let seq = MainEval::builder(&cfg)
        .schemes(&schemes)
        .run(&Runner::with_jobs(1));
    let par = MainEval::builder(&cfg)
        .schemes(&schemes)
        .run(&Runner::with_jobs(4));
    eprintln!("jobs=1: {}", seq.stats.summary());
    eprintln!("jobs=4: {}", par.stats.summary());

    assert_eq!(seq.stats.jobs, par.stats.jobs, "same batch either way");
    assert_eq!(par.stats.workers, 4);
    // The event kernel itself is deterministic: the same batch dispatches
    // exactly the same number of each event kind at any worker count, and
    // simulates the same total time.
    assert_eq!(
        seq.stats.events, par.stats.events,
        "kernel dispatch counts diverged"
    );
    assert!(
        seq.stats.events.total() > 0,
        "kernel counters were never absorbed"
    );
    assert_eq!(seq.stats.sim_time, par.stats.sim_time);
    assert_series_identical(&seq.fig16_speedup(), &par.fig16_speedup());
    assert_series_identical(&seq.fig12_write_service(), &par.fig12_write_service());
    assert_series_identical(&seq.fig13_read_latency(), &par.fig13_read_latency());
    for (a, b) in seq.workloads.iter().zip(&par.workloads) {
        assert_eq!(a.workload, b.workload);
        for (x, y) in a.speedups.iter().zip(&b.speedups) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{:?} speedups diverged",
                a.workload
            );
        }
    }
}

#[test]
fn parallel_sweep_helpers_are_deterministic() {
    let cfg = ExperimentConfig {
        instructions_per_core: 30_000,
        ..ExperimentConfig::default()
    };
    let w = Workload::Single("astar");
    let seq = ladder::sim::ablations::shifting_ablation(&cfg, w, &Runner::with_jobs(1));
    let par = ladder::sim::ablations::shifting_ablation(&cfg, w, &Runner::with_jobs(3));
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
        assert_eq!(a.extra_reads.to_bits(), b.extra_reads.to_bits());
    }
}
