//! The figure registry: one [`Figure`] per table, figure or extension
//! study the `figures` binary regenerates, listed once in [`ALL`].
//!
//! A figure's `run` returns its stdout as a `String`; the binary prints
//! it and then does what every figure shares (the runner statistics and
//! the optional `--trace` run), so no entry can skip a shared flag.

use std::fmt::{self, Write as _};
use std::path::Path;

use ladder_memctrl::MemCtrlConfig;
use ladder_reram::{DeviceTiming, Geometry, Instant};
use ladder_sim::ablations::{
    cache_size_sweep, drain_watermark_sweep, fnw_ablation, low_rows_sweep, render,
    shifting_ablation, table_granularity_sweep, vwl_comparison,
};
use ladder_sim::experiments::{
    crash_recovery, error_rate_sweep, hot_remap_extension, lifetime, lifetime_campaign,
    variability, CampaignRow, CampaignSpec, MainEval, Workload,
};
use ladder_sim::wallclock::Stopwatch;
use ladder_sim::{
    run_sharded, ArrivalKind, Interleave, Runner, Scheme, ServiceConfig, SimConfig, Topology,
};
use ladder_trace::SloReport;
use ladder_workloads::{profile_of, MIXES, SINGLE_BENCHMARKS};
use ladder_xbar::{
    calibrate_device_law, latency_vs_wl_content, CrossbarParams, SolverKind, TableConfig,
    TableSource, TimingTable,
};

use crate::BenchArgs;

/// One regenerable output of the paper's evaluation (or of an extension
/// study).
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name the `figures` binary takes as its first argument.
    pub name: &'static str,
    /// What the figure reproduces, in one line.
    pub summary: &'static str,
    /// The arguments behind the committed [`Figure::results_path`] file,
    /// or `None` for a figure with no committed output.
    pub documented: Option<&'static [&'static str]>,
    /// Runs the figure and returns what it prints on stdout.
    pub run: fn(&BenchArgs, &Runner) -> Result<String, FigureError>,
}

impl Figure {
    /// Where the figure's output at its documented scale is committed.
    pub fn results_path(&self) -> String {
        format!("results/{}.txt", self.name)
    }
}

/// Why a figure could not be produced.
#[derive(Debug)]
pub enum FigureError {
    /// A command line the figure cannot run, such as a `--tenants` count
    /// that overflows the page window (exit status 2).
    Usage(String),
    /// A failed table generation or output write (exit status 1).
    Failed(String),
}

impl From<fmt::Error> for FigureError {
    fn from(_: fmt::Error) -> Self {
        FigureError::Failed("cannot format the figure output".to_string())
    }
}

/// Every figure, in the paper's order, then the extension studies.
#[rustfmt::skip]
pub const ALL: &[Figure] = &[
    Figure { name: "tables", summary: "Tables 1-4: crossbar and architecture parameters, workloads, overheads", documented: Some(&[]), run: tables },
    Figure { name: "fig2", summary: "Fig. 2: motivation, location vs data/location awareness", documented: Some(&["--instructions", "1000000"]), run: fig2 },
    Figure { name: "fig4b", summary: "Fig. 4b: RESET latency vs WL LRS % for a near and a far cell", documented: Some(&[]), run: fig4b },
    Figure { name: "fig11", summary: "Fig. 11: latency surface over (WL, BL) at the content extremes", documented: Some(&[]), run: fig11 },
    Figure { name: "main_eval", summary: "Figs. 12-14, 16, 17: the 16-workload x 7-scheme matrix", documented: Some(&["--instructions", "1000000", "--csv", "results/csv"]), run: main_eval },
    Figure { name: "fig15", summary: "Fig. 15: estimation accuracy with and without bit shifting", documented: Some(&["--instructions", "1000000"]), run: fig15 },
    Figure { name: "lifetime", summary: "Section 6.4: wear-leveling integration and relative lifetime", documented: Some(&["--instructions", "500000"]), run: lifetime_fig },
    Figure { name: "variability", summary: "Section 7: 2x-shrunk latency dynamic range", documented: Some(&["--instructions", "500000"]), run: variability_fig },
    Figure { name: "crash", summary: "Section 7: write-latency decay after lazy crash correction", documented: Some(&[]), run: crash },
    Figure { name: "ablations", summary: "Sections 3-6 prose: cache, shifting, FNW, low rows, granularity, drain, VWL", documented: Some(&["--instructions", "200000"]), run: ablations },
    Figure { name: "extension", summary: "Section 8: LADDER plus hot-page remapping to bottom rows", documented: Some(&["--instructions", "400000"]), run: extension },
    Figure { name: "mna_table", summary: "Section 5: analytic timing tables against the exact MNA solver", documented: Some(&[]), run: mna_table },
    Figure { name: "interleave", summary: "scale-out: channel/bank/page striping over a sharded topology", documented: None, run: interleave },
    Figure { name: "faults", summary: "extension: raw-BER sweep of P&V retries, ECC, data loss", documented: None, run: faults },
    Figure { name: "service", summary: "extension: open-loop per-tenant tail-latency SLO sweep", documented: None, run: service },
    Figure { name: "lifetime_campaign", summary: "extension: device-lifetime CSV over skew x BER x remap x code scheme", documented: None, run: campaign },
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    ALL.iter().find(|f| f.name == name)
}

/// Tables 1-4. The first positional argument (`table1`..`table4`)
/// selects one; `--quick` skips Table 4, whose overheads regenerate a
/// timing table.
fn tables(args: &BenchArgs, _: &Runner) -> Result<String, FigureError> {
    let which = args.positional.first().map_or("all", String::as_str);
    let mut out = String::new();
    if matches!(which, "all" | "table1") {
        let p = CrossbarParams::default();
        writeln!(out, "Table 1 — ReRAM crossbar parameters")?;
        writeln!(out, "  dimensions: {}x{}", p.rows, p.cols)?;
        writeln!(out, "  selected cells: {}", p.selected_cells)?;
        writeln!(
            out,
            "  LRS/HRS resistance: {:.0} / {:.0} ohm",
            p.r_lrs, p.r_hrs
        )?;
        writeln!(
            out,
            "  input/output/wire resistance: {} / {} / {} ohm",
            p.r_input, p.r_output, p.r_wire
        )?;
        writeln!(out, "  selector non-linearity: {}", p.selector_nonlinearity)?;
        writeln!(
            out,
            "  write/bias voltage: {} / {} V\n",
            p.write_voltage, p.bias_voltage
        )?;
    }
    if matches!(which, "all" | "table2") {
        let g = Geometry::default();
        let t = DeviceTiming::default();
        let m = MemCtrlConfig::default();
        writeln!(out, "Table 2 — architecture parameters")?;
        writeln!(
            out,
            "  memory: {} channels, {} ranks/channel, {} banks/rank, {} mats/bank, {}x{} mats",
            g.channels,
            g.ranks_per_channel,
            g.banks_per_rank,
            g.mats_per_bank,
            g.mat_rows,
            g.mat_cols
        )?;
        writeln!(
            out,
            "  capacity: {} GiB",
            g.capacity_bytes() as f64 / (1u64 << 30) as f64
        )?;
        writeln!(
            out,
            "  controller: {}-entry RDQ, {}-entry WRQ, drain at {}/{}",
            m.rdq_capacity, m.wrq_capacity, m.drain_high, m.wrq_capacity
        )?;
        writeln!(
            out,
            "  timing: tCL {} tRCD {} tBURST {}, tWR 29-658 ns (variable)\n",
            t.t_cl, t.t_rcd, t.t_burst
        )?;
    }
    if matches!(which, "all" | "table3") {
        writeln!(out, "Table 3 — workloads")?;
        for b in SINGLE_BENCHMARKS {
            let p = profile_of(b);
            writeln!(
                out,
                "  {:<8} rpki {:>5.1}  wpki {:>4.1}  ws {:>6} pages",
                b, p.rpki, p.wpki, p.working_set_pages
            )?;
        }
        for (m, members) in MIXES {
            writeln!(out, "  {:<8} {}", m, members.join("-"))?;
        }
        writeln!(out)?;
    }
    if matches!(which, "all" | "table4") {
        if args.quick {
            writeln!(
                out,
                "Table 4 — skipped under --quick (run without it for overheads)"
            )?;
        } else {
            out.push_str(&ladder_sim::overhead::report());
        }
    }
    Ok(out)
}

fn fig2(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let mut out = String::new();
    writeln!(out, "Figure 2 — normalized IPC (worst-case = 1.0)")?;
    writeln!(
        out,
        "{:<8}{:>16}{:>22}",
        "bench", "Location-aware", "Data/Location-aware"
    )?;
    let rows = ladder_sim::experiments::fig2(&args.cfg, runner);
    let (mut sl, mut sd) = (0.0, 0.0);
    for r in &rows {
        writeln!(
            out,
            "{:<8}{:>16.3}{:>22.3}",
            r.bench, r.location_aware, r.data_location_aware
        )?;
        sl += r.location_aware;
        sd += r.data_location_aware;
    }
    let n = rows.len() as f64;
    writeln!(out, "{:<8}{:>16.3}{:>22.3}", "AVG", sl / n, sd / n)?;
    Ok(out)
}

/// Fig. 4b: RESET latency against the selected wordline's LRS share, for
/// a far cell (1) and a near cell (2). `--quick` halves the resolution.
fn fig4b(args: &BenchArgs, _: &Runner) -> Result<String, FigureError> {
    let points = if args.quick { 10 } else { 20 };
    let params = CrossbarParams::default();
    let law = calibrate_device_law(&params, 29.0, 658.0);
    let far = latency_vs_wl_content(&params, law, 480, 480, points);
    let near = latency_vs_wl_content(&params, law, 32, 32, points);
    let mut out = String::new();
    writeln!(out, "Figure 4b — RESET latency vs WL LRS percentage")?;
    writeln!(
        out,
        "{:>8}{:>16}{:>16}",
        "LRS %", "cell 1 (ns)", "cell 2 (ns)"
    )?;
    for (f, n) in far.iter().zip(&near) {
        writeln!(out, "{:>8.0}{:>16.1}{:>16.1}", f.0, f.1, n.1)?;
    }
    Ok(out)
}

/// Fig. 11: the RESET latency surface over (WL, BL) for the lowest and
/// highest content bands. `--quick` coarsens it to a 4-band table.
fn fig11(args: &BenchArgs, _: &Runner) -> Result<String, FigureError> {
    let mut cfg = TableConfig::ladder_default();
    if args.quick {
        cfg.bands = 4;
    }
    let table = TimingTable::generate(&cfg)
        .map_err(|e| FigureError::Failed(format!("cannot generate timing table: {e}")))?;
    let mut out = String::new();
    for (c_band, label) in [
        (0usize, "(a) WL pattern all '0's"),
        (table.bands() - 1, "(b) WL pattern all '1's"),
    ] {
        writeln!(
            out,
            "Figure 11{label} — RESET latency (ns), rows = WL band, cols = BL band"
        )?;
        write!(out, "{:>10}", "WL\\BL")?;
        for b in 0..table.bands() {
            write!(out, "{:>9}", format!("b{b}"))?;
        }
        writeln!(out)?;
        for w in 0..table.bands() {
            write!(out, "{:>10}", format!("w{w}"))?;
            for b in 0..table.bands() {
                write!(out, "{:>9.1}", table.entry(c_band, w, b) as f64 / 1000.0)?;
            }
            writeln!(out)?;
        }
        writeln!(out)?;
    }
    Ok(out)
}

/// `--csv DIR` also writes Figs. 12-16 as one CSV each into `DIR`.
fn main_eval(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let failed = |what: &str, path: &Path, e: std::io::Error| {
        FigureError::Failed(format!("cannot {what} `{}`: {e}", path.display()))
    };
    let csv_dir = args.csv.as_deref().map(Path::new);
    // Fail on an uncreatable directory before the matrix runs, not after.
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| failed("create CSV directory", dir, e))?;
    }
    eprintln!(
        "running 16 workloads x 7 schemes at {} instructions/core on {} worker(s) ...",
        args.cfg.instructions_per_core,
        runner.jobs()
    );
    let eval = MainEval::builder(&args.cfg).run(runner);
    let mut out = String::new();
    for (title, csv, series) in [
        (
            "Figure 12 — normalized write service time",
            "fig12_write_service.csv",
            eval.fig12_write_service(),
        ),
        (
            "Figure 13 — normalized read latency",
            "fig13_read_latency.csv",
            eval.fig13_read_latency(),
        ),
        (
            "Figure 14a — additional reads (fraction of demand reads)",
            "fig14a_additional_reads.csv",
            eval.fig14a_additional_reads(),
        ),
        (
            "Figure 14b — additional writes (fraction of data writes)",
            "fig14b_additional_writes.csv",
            eval.fig14b_additional_writes(),
        ),
        (
            "Figure 16 — speedup over baseline",
            "fig16_speedup.csv",
            eval.fig16_speedup(),
        ),
    ] {
        writeln!(out, "{title}\n{}", series.to_table())?;
        if let Some(dir) = csv_dir {
            let path = dir.join(csv);
            std::fs::write(&path, series.to_csv()).map_err(|e| failed("write CSV", &path, e))?;
        }
    }
    writeln!(
        out,
        "Figure 17 — normalized dynamic energy (read + write = total)"
    )?;
    for (wl, cols) in eval.fig17_energy() {
        write!(out, "{wl:<9}")?;
        for (scheme, rd, wr) in cols {
            write!(out, "  {}={rd:.2}+{wr:.2}", scheme.name())?;
        }
        writeln!(out)?;
    }
    writeln!(out)?;
    for s in Scheme::MAIN_EVAL {
        let avg = eval.avg_energy_of(s);
        writeln!(out, "avg normalized energy, {s}: {avg:.3}")?;
    }
    if let Some(dir) = csv_dir {
        eprintln!("CSV written to {}", dir.display());
    }
    Ok(out)
}

fn fig15(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let mut out = String::new();
    writeln!(out, "Figure 15 — mean C^w_lrs difference (Est − accurate)")?;
    writeln!(
        out,
        "{:<9}{:>20}{:>18}",
        "workload", "(a) no shifting", "(b) shifting"
    )?;
    for r in ladder_sim::experiments::fig15(&args.cfg, runner) {
        writeln!(
            out,
            "{:<9}{:>20.1}{:>18.1}",
            r.workload, r.diff_without_shift, r.diff_with_shift
        )?;
    }
    Ok(out)
}

/// Segment-based vertical wear-leveling plus horizontal byte rotation.
fn lifetime_fig(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let mut out = String::new();
    writeln!(
        out,
        "Section 6.4 — wear-leveling integration (workload: mix-1)"
    )?;
    writeln!(
        out,
        "{:<16}{:>14}{:>12}{:>18}{:>20}",
        "scheme", "write traffic", "lifetime", "speedup w/ WL", "speedup w/o WL"
    )?;
    for r in lifetime(&args.cfg, Workload::Mix("mix-1"), runner) {
        writeln!(
            out,
            "{:<16}{:>13.3}x{:>11.3}x{:>18.3}{:>20.3}",
            r.scheme.name(),
            r.write_traffic_ratio,
            r.lifetime_ratio,
            r.speedup_with_wl,
            r.speedup_without_wl
        )?;
    }
    Ok(out)
}

fn variability_fig(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let mut out = String::new();
    for w in [
        Workload::Single("astar"),
        Workload::Single("mcf"),
        Workload::Mix("mix-1"),
    ] {
        let v = variability(&args.cfg, w, runner);
        writeln!(
            out,
            "{:<8} speedup full-range {:.3}, shrunk-2x {:.3} -> retains {:.0}% of the gain",
            w.label(),
            v.speedup_full,
            v.speedup_shrunk,
            v.retention * 100.0
        )?;
    }
    Ok(out)
}

/// One sequential crash-recovery run per benchmark.
fn crash(args: &BenchArgs, _: &Runner) -> Result<String, FigureError> {
    let mut out = String::new();
    for bench in ["astar", "libq"] {
        let r = crash_recovery(&args.cfg, bench);
        writeln!(
            out,
            "{bench}: steady-state mean tWR = {:.1} ns",
            r.steady_twr_ns
        )?;
        for (i, w) in r.post_crash_windows_ns.iter().enumerate() {
            writeln!(out, "  window {:>2} after crash: {:>7.1} ns", i + 1, w)?;
        }
        let last = *r
            .post_crash_windows_ns
            .last()
            // lint: allow(panic-policy) — invariant: crash_recovery always measures 24 post-crash windows
            .expect("crash_recovery measures post-crash windows");
        writeln!(
            out,
            "  -> recovered to {:.0}% of steady state\n",
            100.0 * r.steady_twr_ns / last.max(1e-9)
        )?;
    }
    Ok(out)
}

fn ablations(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let cfg = &args.cfg;
    let w = Workload::Single("astar");
    let mut out = String::new();
    writeln!(out, "== metadata cache size (LADDER-Est, astar) ==")?;
    writeln!(out, "{}", render(&cache_size_sweep(cfg, w, runner)))?;
    writeln!(out, "== intra-line bit shifting (LADDER-Est, astar) ==")?;
    writeln!(out, "{}", render(&shifting_ablation(cfg, w, runner)))?;
    writeln!(out, "== FNW policy (LADDER-Est, astar) ==")?;
    let (pts, cancelled) = fnw_ablation(cfg, w, runner);
    writeln!(out, "{}", render(&pts))?;
    if let Some(c) = cancelled {
        writeln!(
            out,
            "flips cancelled by the counting constraint: {:.2}%\n",
            c * 100.0
        )?;
    }
    writeln!(out, "== low-precision rows (LADDER-Hybrid, astar) ==")?;
    writeln!(out, "{}", render(&low_rows_sweep(cfg, w, runner)))?;
    writeln!(out, "== timing-table granularity (LADDER-Est, astar) ==")?;
    writeln!(out, "{}", render(&table_granularity_sweep(cfg, w, runner)))?;
    writeln!(
        out,
        "== drain watermarks (LADDER-Est vs baseline, mix-1) =="
    )?;
    let mix = Workload::Mix("mix-1");
    writeln!(out, "{}", render(&drain_watermark_sweep(cfg, mix, runner)))?;
    writeln!(
        out,
        "== vertical wear-leveling granularity (LADDER-Est, astar) =="
    )?;
    writeln!(out, "{}", render(&vwl_comparison(cfg, w, runner)))?;
    Ok(out)
}

fn extension(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let mut out = String::new();
    writeln!(
        out,
        "Extension — LADDER-Hybrid + hot-page remapping to bottom rows"
    )?;
    writeln!(
        out,
        "{:<9}{:>16}{:>16}{:>14}{:>14}",
        "workload", "LADDER speedup", "+remap speedup", "tWR (ns)", "+remap tWR"
    )?;
    for w in [
        Workload::Single("astar"),
        Workload::Single("mcf"),
        Workload::Single("lbm"),
        Workload::Mix("mix-1"),
    ] {
        let r = hot_remap_extension(&args.cfg, w, runner);
        writeln!(
            out,
            "{:<9}{:>16.3}{:>16.3}{:>14.1}{:>14.1}",
            w.label(),
            r.ladder_speedup,
            r.ladder_remap_speedup,
            r.twr_ladder_ns,
            r.twr_remap_ns
        )?;
    }
    Ok(out)
}

/// A 4x4x4 table (2x2x2 under `--quick`) from both sources; the gap is a
/// known divergence (DESIGN.md §9), so this compares rather than validates.
fn mna_table(args: &BenchArgs, _: &Runner) -> Result<String, FigureError> {
    let bands = if args.quick { 2 } else { 4 };
    let mut cfg = TableConfig::ladder_default();
    cfg.bands = bands;
    let generate = |cfg: &TableConfig, what: &str| {
        TimingTable::generate(cfg)
            .map_err(|e| FigureError::Failed(format!("cannot generate the {what} table: {e}")))
    };
    eprintln!("generating {bands}x{bands}x{bands} analytic table ...");
    let ana = generate(&cfg, "analytic")?;
    eprintln!(
        "generating {bands}x{bands}x{bands} MNA table ({} exact 512x512 solves) ...",
        bands * bands * bands
    );
    cfg.source = TableSource::Mna(SolverKind::LineRelaxation);
    let t0 = Stopwatch::start();
    let mna = generate(&cfg, "MNA")?;
    eprintln!("MNA generation took {:?}", t0.elapsed());

    let mut out = String::new();
    writeln!(out, "entry (c,w,b): analytic ns / MNA ns (ratio)")?;
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
                writeln!(out, "({c},{w},{b}): {a:>7.1} / {m:>7.1}  ({ratio:.2}x)")?;
            }
        }
    }
    let verdict = if conservative {
        "yes"
    } else {
        "NO — check the estimator"
    };
    writeln!(out, "\nworst analytic/MNA ratio: {worst_ratio:.2}x")?;
    writeln!(out, "analytic conservative everywhere: {verdict}")?;
    Ok(out)
}

/// Sharded over `--topology` (default 4x2); every run traces, so each cell
/// prints its merged digest, bit-identical at any `--jobs`.
fn interleave(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let cfg = &args.cfg;
    let topology = args.topology_or(
        Topology::new(4, 2)
            // lint: allow(panic-policy) — invariant: both dimensions of the 4x2 default are nonzero
            .expect("static topology"),
    );
    let tables = cfg.tables();
    let workload = Workload::Single("astar");
    let mut out = String::new();
    writeln!(
        out,
        "Interleave sweep — topology {topology} ({} shards), workload {}",
        topology.shards(),
        workload.label()
    )?;
    writeln!(
        out,
        "{:<9}{:<13}{:>12}{:>10}{:>10}{:>12}  merged digest",
        "policy", "scheme", "retired", "writes", "end (us)", "energy (nJ)"
    )?;
    for policy in Interleave::ALL {
        let mut baseline_end = None;
        for scheme in [Scheme::Baseline, Scheme::LadderEst] {
            let sim_cfg = SimConfig::builder()
                .scheme(scheme)
                .workload(workload)
                .topology(topology)
                .interleave(policy)
                .trace(true)
                .build();
            let run = run_sharded(&sim_cfg, cfg, &tables, runner).merged();
            let end_us = run.end.as_ps() as f64 / 1e6;
            writeln!(
                out,
                "{:<9}{:<13}{:>12}{:>10}{:>10.1}{:>12.1}  {}",
                policy.name(),
                scheme.name(),
                run.cores.iter().map(|c| c.retired).sum::<u64>(),
                run.mem.data_writes,
                end_us,
                run.energy.total_pj() / 1000.0,
                run.trace
                    .map(|t| t.digest.to_string())
                    .unwrap_or_else(|| "-".to_string())
            )?;
            match scheme {
                Scheme::Baseline => baseline_end = Some(end_us),
                _ => {
                    if let Some(b) = baseline_end {
                        writeln!(out, "{:<9}  -> LADDER-Est speedup: {:.3}x", "", b / end_us)?;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Every scheme faces the same raw fault pressure; they differ in what a
/// verify read and a retry pulse cost them.
fn faults(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let bers = [1e-4, 1e-3, 5e-3, 2e-2];
    let mut out = String::new();
    writeln!(out, "Extension — device fault injection (workload: mix-1)")?;
    writeln!(
        out,
        "{:<16}{:>9}{:>10}{:>12}{:>13}{:>11}{:>13}{:>9}{:>10}",
        "scheme",
        "raw BER",
        "IPC",
        "vs no-fault",
        "retries/kW",
        "retry/sim",
        "ECC bits",
        "lost",
        "retired"
    )?;
    for r in error_rate_sweep(&args.cfg, Workload::Mix("mix-1"), &bers, runner) {
        writeln!(
            out,
            "{:<16}{:>9.0e}{:>10.3}{:>11.1}%{:>13.2}{:>10.2}%{:>13}{:>9}{:>10}",
            r.scheme.name(),
            r.ber,
            r.ipc,
            r.ipc_vs_fault_free * 100.0,
            r.retries_per_kilowrite,
            r.retry_time_frac * 100.0,
            r.faults.corrected_bits,
            r.faults.uncorrectable_lines,
            r.faults.retired_pages
        )?;
    }
    Ok(out)
}

/// Offered load x arrival process x scheme. Read latency is
/// arrival-to-completion, and load beyond capacity shows up as deferred
/// arrivals; under `--topology` each channel gets its own stream.
fn service(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    // Reject a tenant count no run's page window can host before the
    // sweep starts, rather than panicking inside the first run.
    let tenants = args.service_tenants().map_err(FigureError::Usage)?;
    let cfg = &args.cfg;
    let tables = cfg.tables();
    let loads: &[f64] = if args.load.is_empty() {
        &[2.0, 6.0]
    } else {
        &args.load
    };
    let arrivals: Vec<ArrivalKind> = match args.arrival {
        Some(kind) => vec![kind],
        None => ArrivalKind::ALL.to_vec(),
    };
    let zipf = args.zipf.unwrap_or(0.99);
    let requests: u64 = if args.quick { 4_000 } else { 50_000 };

    let mut out = String::new();
    writeln!(
        out,
        "Open-loop service sweep — {tenants} tenants, zipf {zipf}, {requests} requests per run{}",
        args.topology
            .map(|t| format!(" per shard (topology {t})"))
            .unwrap_or_default()
    )?;
    for arrival in &arrivals {
        for &load in loads {
            for scheme in [Scheme::Baseline, Scheme::LadderEst] {
                let service = ServiceConfig::builder()
                    .arrival(*arrival)
                    .load(load)
                    .tenants(tenants)
                    .zipf_theta(zipf)
                    .requests(requests)
                    .build();
                let sim = SimConfig::builder()
                    .scheme(scheme)
                    .workload(Workload::Single("astar"))
                    .topology(args.topology)
                    .interleave(args.interleave.unwrap_or_default())
                    .service(service)
                    .build();
                let r = run_sharded(&sim, cfg, &tables, runner).merged();
                let stats = r
                    .service
                    // lint: allow(panic-policy) — invariant: a run built with .service(..) always returns service stats
                    .expect("service mode always returns stats");
                let report = SloReport::build(&stats.tenants, r.end.duration_since(Instant::ZERO));
                writeln!(
                    out,
                    "  {} / offered {:.1} req/us / {}: achieved {:.3} req/us, {} arrivals, {} deferred",
                    arrival.name(),
                    load,
                    scheme.name(),
                    report.throughput,
                    stats.arrivals,
                    stats.deferred
                )?;
                out.push_str(&report.render());
            }
        }
    }
    Ok(out)
}

/// One CSV row per cell. `--zipf` picks one skew, `--load` sets the
/// offered load, `--topology` the shard fan-out.
fn campaign(args: &BenchArgs, runner: &Runner) -> Result<String, FigureError> {
    let mut spec = CampaignSpec::standard(args.quick);
    if let Some(t) = args.topology {
        spec.topology = t;
    }
    if let Some(z) = args.zipf {
        spec.skews = vec![z];
    }
    if let Some(&load) = args.load.first() {
        spec.load = load;
    }
    eprintln!(
        "Lifetime campaign — {} cells ({} skews x {} BERs x {} remaps x {} schemes), \
         topology {}, {} requests/shard/cell",
        spec.cells(),
        spec.skews.len(),
        spec.bers.len(),
        spec.remaps.len(),
        spec.codings.len(),
        spec.topology,
        spec.requests
    );
    let mut out = String::new();
    writeln!(out, "{}", CampaignRow::CSV_HEADER)?;
    for row in lifetime_campaign(&args.cfg, &spec, runner) {
        writeln!(out, "{}", row.csv_line())?;
    }
    Ok(out)
}
