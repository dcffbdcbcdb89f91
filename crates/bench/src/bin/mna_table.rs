//! Compares the analytic timing tables with the exact MNA solver at full
//! crossbar size: generates a coarse (4×4×4) table with both sources and
//! reports per-entry ratios, and whether the analytic source is
//! conservative (never faster than MNA). The gap between the two is a
//! known divergence (DESIGN.md §9), so this is a comparison, not a
//! validation.
//!
//! This is the expensive end-to-end comparison behind DESIGN.md §2's
//! substitution argument; expect ~0.5–2 minutes of solver time.

use ladder_bench::BenchArgs;
use ladder_sim::experiments::ExperimentConfig;
use ladder_sim::wallclock::Stopwatch;
use ladder_xbar::{SolverKind, TableConfig, TableSource, TimingTable};

fn main() {
    // Table generation parallelizes internally; `--jobs` is accepted (by
    // BenchArgs) for interface uniformity.
    let args = BenchArgs::parse();
    let mut cfg = TableConfig::ladder_default();
    // `--quick` drops to a 2x2x2 table (8 exact solves) for CI smoke runs;
    // the full comparison uses 4x4x4.
    let bands = if args.quick { 2 } else { 4 };
    cfg.bands = bands;
    eprintln!("generating {bands}x{bands}x{bands} analytic table ...");
    let ana = TimingTable::generate(&cfg).expect("analytic table");
    eprintln!(
        "generating {bands}x{bands}x{bands} MNA table ({} exact 512x512 solves) ...",
        bands * bands * bands
    );
    cfg.source = TableSource::Mna(SolverKind::LineRelaxation);
    let t0 = Stopwatch::start();
    let mna = TimingTable::generate(&cfg).expect("mna table");
    eprintln!("MNA generation took {:?}", t0.elapsed());

    println!("entry (c,w,b): analytic ns / MNA ns (ratio)");
    let mut worst_ratio: f64 = 0.0;
    let mut conservative = true;
    for c in 0..bands {
        for w in 0..bands {
            for b in 0..bands {
                let a = ana.entry(c, w, b) as f64 / 1000.0;
                let m = mna.entry(c, w, b) as f64 / 1000.0;
                let ratio = a / m;
                worst_ratio = worst_ratio.max(ratio);
                if a < m * 0.98 {
                    conservative = false;
                }
                println!("({c},{w},{b}): {a:>7.1} / {m:>7.1}  ({ratio:.2}x)");
            }
        }
    }
    println!("\nworst analytic/MNA ratio: {worst_ratio:.2}x");
    println!(
        "analytic conservative everywhere: {}",
        if conservative {
            "yes"
        } else {
            "NO — check the estimator"
        }
    );
    // This binary has no simulation of its own; a requested trace runs at
    // smoke scale.
    args.emit_trace_if_requested(&ExperimentConfig::quick());
}
