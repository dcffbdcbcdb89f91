//! One entry point per paper table and figure (the per-experiment index of
//! DESIGN.md §5).
//!
//! Every experiment is deterministic given its [`ExperimentConfig`]. The
//! `figures` binary of `ladder-bench` calls these functions, one entry of
//! its registry (`ladder_bench::figures::ALL`) per figure, and prints the
//! same rows and series the paper reports.

use crate::config::{builder_for, SimConfig};
use crate::runner::{AloneIpcCache, Runner, RunnerStats};
use crate::scheme::Scheme;
use crate::service::ServiceConfig;
use crate::shard::{run_sharded, run_sim};
use crate::streams::{StreamKey, StreamPool};
use crate::system::RunResult;
use ladder_coding::{CodingKind, CodingStats};
use ladder_cpu::TraceSource;
use ladder_faults::{FaultConfig, FaultStats};
use ladder_memctrl::{standard_tables, Tables};
use ladder_reram::{Geometry, Instant, Topology, LINES_PER_WLG};
use ladder_wear::RemapKind;
use ladder_workloads::{profile_of, WorkloadGen, MIXES, SINGLE_BENCHMARKS};
use ladder_xbar::TableConfig;
use std::sync::Arc;

/// Global experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Instructions each active core executes (the paper detail-simulates
    /// 500 M; the default here is scaled down for tractability — scheme
    /// *ratios* stabilize within a few million instructions).
    pub instructions_per_core: u64,
    /// Master seed for workload generation.
    pub seed: u64,
    /// Timing-table configuration shared by every scheme.
    pub table_cfg: TableConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            instructions_per_core: 1_000_000,
            seed: 2021,
            table_cfg: TableConfig::ladder_default(),
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            instructions_per_core: 120_000,
            ..Self::default()
        }
    }

    /// Generates the shared [`Tables`] timing-table bundle.
    pub fn tables(&self) -> Tables {
        standard_tables(&self.table_cfg)
    }
}

/// A workload from Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One benchmark on core 0.
    Single(&'static str),
    /// A four-benchmark mix, one per core.
    Mix(&'static str),
}

impl Workload {
    /// All 16 workloads in the paper's figure order.
    pub fn all() -> Vec<Workload> {
        let mut v: Vec<Workload> = SINGLE_BENCHMARKS
            .iter()
            .map(|&b| Workload::Single(b))
            .collect();
        v.extend(MIXES.iter().map(|&(m, _)| Workload::Mix(m)));
        v
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Single(b) => b,
            Workload::Mix(m) => m,
        }
    }

    /// Benchmarks this workload runs, one per core.
    ///
    /// # Panics
    ///
    /// Panics for an unknown mix name.
    pub fn members(&self) -> Vec<&'static str> {
        match self {
            Workload::Single(b) => vec![b],
            Workload::Mix(m) => MIXES
                .iter()
                .find(|(name, _)| name == m)
                .map(|(_, members)| members.to_vec())
                // lint: allow(panic-policy) — caller contract: mix names come from the fixed MIXES catalog, documented under # Panics
                .unwrap_or_else(|| panic!("unknown mix {m}")),
        }
    }

    /// Whether this is a multi-programmed workload.
    pub fn is_mix(&self) -> bool {
        matches!(self, Workload::Mix(_))
    }
}

/// Page window of one core within `geometry`: every scheme reserves less
/// than 1/16 of the module for metadata, so data windows start at 1/16 of
/// the page space and are identical across schemes (fair comparison).
pub(crate) fn core_window(core: usize, geometry: &Geometry) -> (u64, u64) {
    let total = geometry.pages() as u64;
    let base = total / 16;
    let per_core = (total - base) / 4;
    (base + core as u64 * per_core, per_core)
}

/// The workload trace and MLP of `bench` on core `core`: the generator
/// every run assembles its cores from.
pub fn trace_for(
    bench: &'static str,
    core: usize,
    cfg: &ExperimentConfig,
) -> (Box<dyn TraceSource>, usize) {
    shard_trace_for(bench, core, cfg, &Geometry::default(), None)
}

/// [`trace_for`] over an explicit geometry and shard identity. Each shard
/// of a sharded run salts the workload seed with its index, so shards
/// simulate distinct (but per-shard deterministic) request streams over
/// their own one-channel slice.
pub(crate) fn shard_trace_for(
    bench: &'static str,
    core: usize,
    cfg: &ExperimentConfig,
    geometry: &Geometry,
    shard: Option<u32>,
) -> (Box<dyn TraceSource>, usize) {
    let key = StreamKey::new(bench, core, cfg, geometry, shard);
    (Box::new(key.generator()), key.mlp())
}

// ---------------------------------------------------------------------------
// Figure 2 — motivation: worst-case vs location-aware vs data/location-aware.
// ---------------------------------------------------------------------------

/// One benchmark's bars in Fig. 2 (IPC normalized to the worst-case
/// baseline).
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Location-aware normalized IPC.
    pub location_aware: f64,
    /// Data/location-aware (oracle) normalized IPC.
    pub data_location_aware: f64,
}

/// Reproduces Fig. 2 over the eight single-programmed benchmarks.
pub fn fig2(cfg: &ExperimentConfig, runner: &Runner) -> Vec<Fig2Row> {
    const SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::LocationAware, Scheme::Oracle];
    let tables = Arc::new(cfg.tables());
    let configs: Vec<SimConfig> = SINGLE_BENCHMARKS
        .iter()
        .flat_map(|&bench| {
            SCHEMES
                .iter()
                .map(move |&s| SimConfig::new(s, Workload::Single(bench)))
        })
        .collect();
    let (results, _) = runner.run_configs(cfg, &tables, &configs);
    SINGLE_BENCHMARKS
        .iter()
        .zip(results.chunks_exact(SCHEMES.len()))
        .map(|(&bench, runs)| Fig2Row {
            bench,
            location_aware: runs[1].ipc0() / runs[0].ipc0(),
            data_location_aware: runs[2].ipc0() / runs[0].ipc0(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Main evaluation — Figs. 12, 13, 14, 16, 17 share one run matrix.
// ---------------------------------------------------------------------------

/// Results of every scheme on one workload.
#[derive(Debug)]
pub struct WorkloadEval {
    /// The workload.
    pub workload: Workload,
    /// One result per evaluated scheme.
    pub runs: Vec<RunResult>,
    /// Speedup of each scheme vs. the baseline (IPC for singles, weighted
    /// IPC for mixes), aligned with `runs`.
    pub speedups: Vec<f64>,
}

impl WorkloadEval {
    /// Result of a specific scheme.
    ///
    /// # Panics
    ///
    /// Panics if the scheme was not part of the evaluation.
    pub fn run(&self, scheme: Scheme) -> &RunResult {
        self.runs
            .iter()
            .find(|r| r.scheme == scheme)
            // lint: allow(panic-policy) — caller contract: scheme must be part of the evaluation, documented under # Panics
            .unwrap_or_else(|| panic!("scheme {scheme} not evaluated"))
    }

    /// Speedup of a specific scheme.
    ///
    /// # Panics
    ///
    /// Panics if the scheme was not part of the evaluation.
    pub fn speedup(&self, scheme: Scheme) -> f64 {
        let idx = self
            .runs
            .iter()
            .position(|r| r.scheme == scheme)
            // lint: allow(panic-policy) — caller contract: scheme must be part of the evaluation, documented under # Panics
            .unwrap_or_else(|| panic!("scheme {scheme} not evaluated"));
        self.speedups[idx]
    }
}

/// The full evaluation matrix: 16 workloads × the requested schemes.
#[derive(Debug)]
pub struct MainEval {
    /// Per-workload evaluations, in the paper's order.
    pub workloads: Vec<WorkloadEval>,
    /// Timing observability for the batch that produced this matrix.
    pub stats: RunnerStats,
}

/// Configures and launches the main evaluation (the data behind
/// Figs. 12, 13, 14, 16, 17). Obtained from [`MainEval::builder`].
///
/// ```no_run
/// use ladder_sim::experiments::{ExperimentConfig, MainEval};
/// use ladder_sim::{Runner, Scheme};
///
/// let cfg = ExperimentConfig::quick();
/// let eval = MainEval::builder(&cfg)
///     .schemes(&[Scheme::Baseline, Scheme::LadderHybrid])
///     .run(&Runner::new());
/// println!("{}", eval.fig16_speedup().to_table());
/// ```
#[derive(Debug, Clone)]
pub struct MainEvalBuilder<'a> {
    cfg: &'a ExperimentConfig,
    schemes: Vec<Scheme>,
    workloads: Vec<Workload>,
}

impl<'a> MainEvalBuilder<'a> {
    /// Restricts the evaluation to `schemes` (default: all of
    /// [`Scheme::MAIN_EVAL`]). Must include [`Scheme::Baseline`], the
    /// normalization target.
    pub fn schemes(mut self, schemes: &[Scheme]) -> Self {
        self.schemes = schemes.to_vec();
        self
    }

    /// Restricts the evaluation to `workloads` (default: all 16 of
    /// [`Workload::all`]).
    pub fn workloads(mut self, workloads: &[Workload]) -> Self {
        self.workloads = workloads.to_vec();
        self
    }

    /// Executes the whole matrix on `runner` as one parallel batch.
    ///
    /// Alone-run baseline IPCs for mix metrics are memoized in an
    /// [`AloneIpcCache`]: the matrix's own `Baseline × Single` cells are
    /// harvested, and only mix members outside the evaluated singles are
    /// simulated additionally (appended to the same batch).
    ///
    /// # Panics
    ///
    /// Panics if the scheme list does not contain [`Scheme::Baseline`].
    pub fn run(self, runner: &Runner) -> MainEval {
        let MainEvalBuilder {
            cfg,
            schemes,
            workloads,
        } = self;
        assert!(
            schemes.contains(&Scheme::Baseline),
            "main evaluation requires Scheme::Baseline (normalization target)"
        );
        let ns = schemes.len();
        let tables = Arc::new(cfg.tables());
        let (specs, extra) = matrix_batch(&workloads, &schemes);

        let (mut results, stats) = runner.run_configs(cfg, &tables, &specs);

        // Populate the alone-run cache: extras from the batch tail, singles
        // from the matrix's baseline column.
        let mut alone = AloneIpcCache::new();
        let extra_results = results.split_off(workloads.len() * ns);
        for (&b, r) in extra.iter().zip(&extra_results) {
            alone.insert(b, r.ipc0());
        }
        let base_idx = schemes
            .iter()
            .position(|&s| s == Scheme::Baseline)
            // lint: allow(panic-policy) — invariant: position() cannot fail, Baseline membership was checked above
            .expect("checked above");
        let mut per_workload: Vec<(Workload, Vec<RunResult>)> = Vec::with_capacity(workloads.len());
        let mut it = results.into_iter();
        for &w in &workloads {
            let runs: Vec<RunResult> = it.by_ref().take(ns).collect();
            if let Workload::Single(b) = w {
                alone.insert(b, runs[base_idx].ipc0());
            }
            per_workload.push((w, runs));
        }

        // Weighted IPC (mixes) or plain IPC (singles) per scheme.
        let metric = |w: Workload, r: &RunResult| -> f64 {
            if w.is_mix() {
                r.cores
                    .iter()
                    .zip(w.members())
                    .map(|(c, bench)| c.ipc / alone.ipc(bench))
                    .sum()
            } else {
                r.ipc0()
            }
        };
        let evals = per_workload
            .into_iter()
            .map(|(w, runs)| {
                let base_metric = metric(w, &runs[base_idx]);
                let speedups = runs.iter().map(|r| metric(w, r) / base_metric).collect();
                WorkloadEval {
                    workload: w,
                    runs,
                    speedups,
                }
            })
            .collect();
        MainEval {
            workloads: evals,
            stats,
        }
    }
}

/// The main evaluation's one batch: the matrix row-major (workload-major,
/// scheme-minor), then one baseline alone-run per mix member the matrix
/// does not evaluate as a single — those members, in batch order.
pub(crate) fn matrix_batch(
    workloads: &[Workload],
    schemes: &[Scheme],
) -> (Vec<SimConfig>, Vec<&'static str>) {
    let mut specs: Vec<SimConfig> = Vec::with_capacity(workloads.len() * schemes.len() + 2);
    for &w in workloads {
        for &s in schemes {
            specs.push(SimConfig::new(s, w));
        }
    }
    let singles: Vec<&'static str> = workloads
        .iter()
        .filter_map(|w| match w {
            Workload::Single(b) => Some(*b),
            Workload::Mix(_) => None,
        })
        .collect();
    let mut extra: Vec<&'static str> = Vec::new();
    for w in workloads {
        if w.is_mix() {
            for b in w.members() {
                if !singles.contains(&b) && !extra.contains(&b) {
                    extra.push(b);
                }
            }
        }
    }
    specs.extend(
        extra
            .iter()
            .map(|&b| SimConfig::new(Scheme::Baseline, Workload::Single(b))),
    );
    (specs, extra)
}

impl MainEval {
    /// Starts building a main-evaluation matrix over `cfg`; by default all
    /// 16 workloads × the seven [`Scheme::MAIN_EVAL`] schemes.
    pub fn builder(cfg: &ExperimentConfig) -> MainEvalBuilder<'_> {
        MainEvalBuilder {
            cfg,
            schemes: Scheme::MAIN_EVAL.to_vec(),
            workloads: Workload::all(),
        }
    }

    /// Fig. 12: average write service time normalized to baseline.
    pub fn fig12_write_service(&self) -> FigureSeries {
        self.normalized_series("write service time", |r| r.avg_write_service().as_ns())
    }

    /// Fig. 13: average demand read latency normalized to baseline.
    pub fn fig13_read_latency(&self) -> FigureSeries {
        self.normalized_series("read latency", |r| r.avg_read_latency().as_ns())
    }

    /// Fig. 14a: additional reads from metadata maintenance (fraction of
    /// demand reads).
    pub fn fig14a_additional_reads(&self) -> FigureSeries {
        self.raw_series("additional reads", |r| r.mem.additional_read_fraction())
    }

    /// Fig. 14b: additional writes (fraction of data writes).
    pub fn fig14b_additional_writes(&self) -> FigureSeries {
        self.raw_series("additional writes", |r| r.mem.additional_write_fraction())
    }

    /// Fig. 16: speedup normalized to baseline.
    pub fn fig16_speedup(&self) -> FigureSeries {
        let schemes: Vec<Scheme> = self.schemes();
        let rows: Vec<(String, Vec<f64>)> = self
            .workloads
            .iter()
            .map(|w| (w.workload.label().to_string(), w.speedups.clone()))
            .collect();
        let average = column_means(&rows);
        FigureSeries {
            metric: "speedup".into(),
            schemes,
            rows,
            average,
        }
    }

    /// Fig. 17: dynamic energy normalized to baseline, split read/write:
    /// per workload, `(scheme, read_fraction, write_fraction)` columns.
    pub fn fig17_energy(&self) -> Vec<(String, Vec<EnergyColumn>)> {
        self.workloads
            .iter()
            .map(|w| {
                let base = &w.run(Scheme::Baseline).energy;
                let cols = w
                    .runs
                    .iter()
                    .map(|r| {
                        let (rd, wr) = r.energy.normalized_to(base);
                        (r.scheme, rd, wr)
                    })
                    .collect();
                (w.workload.label().to_string(), cols)
            })
            .collect()
    }

    /// Average normalized total energy of one scheme (the Fig. 17 summary
    /// numbers quoted in the abstract).
    pub fn avg_energy_of(&self, scheme: Scheme) -> f64 {
        let per: Vec<f64> = self
            .workloads
            .iter()
            .map(|w| {
                let base = &w.run(Scheme::Baseline).energy;
                let (rd, wr) = w.run(scheme).energy.normalized_to(base);
                rd + wr
            })
            .collect();
        per.iter().sum::<f64>() / per.len() as f64
    }

    fn schemes(&self) -> Vec<Scheme> {
        self.workloads
            .first()
            .map(|w| w.runs.iter().map(|r| r.scheme).collect())
            .unwrap_or_default()
    }

    fn normalized_series(&self, metric: &str, f: impl Fn(&RunResult) -> f64) -> FigureSeries {
        let schemes = self.schemes();
        let rows: Vec<(String, Vec<f64>)> = self
            .workloads
            .iter()
            .map(|w| {
                let base = f(w.run(Scheme::Baseline));
                let cols = w.runs.iter().map(|r| f(r) / base).collect();
                (w.workload.label().to_string(), cols)
            })
            .collect();
        let average = column_means(&rows);
        FigureSeries {
            metric: metric.into(),
            schemes,
            rows,
            average,
        }
    }

    fn raw_series(&self, metric: &str, f: impl Fn(&RunResult) -> f64) -> FigureSeries {
        let schemes = self.schemes();
        let rows: Vec<(String, Vec<f64>)> = self
            .workloads
            .iter()
            .map(|w| {
                let cols = w.runs.iter().map(&f).collect();
                (w.workload.label().to_string(), cols)
            })
            .collect();
        let average = column_means(&rows);
        FigureSeries {
            metric: metric.into(),
            schemes,
            rows,
            average,
        }
    }
}

fn column_means(rows: &[(String, Vec<f64>)]) -> Vec<f64> {
    if rows.is_empty() {
        return Vec::new();
    }
    let cols = rows[0].1.len();
    (0..cols)
        .map(|c| rows.iter().map(|(_, v)| v[c]).sum::<f64>() / rows.len() as f64)
        .collect()
}

/// One scheme's Fig. 17 bar: `(scheme, read fraction, write fraction)`,
/// both normalized to the baseline total.
pub type EnergyColumn = (Scheme, f64, f64);

/// A figure's data: one row per workload, one column per scheme, plus the
/// cross-workload average the paper's AVG bar reports.
#[derive(Debug, Clone)]
pub struct FigureSeries {
    /// What the numbers measure.
    pub metric: String,
    /// Column schemes.
    pub schemes: Vec<Scheme>,
    /// `(workload, values)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Per-scheme average over workloads.
    pub average: Vec<f64>,
}

impl FigureSeries {
    /// The average value of one scheme.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not a column.
    pub fn avg_of(&self, scheme: Scheme) -> f64 {
        let idx = self
            .schemes
            .iter()
            .position(|&s| s == scheme)
            // lint: allow(panic-policy) — caller contract: scheme must be part of the series, documented under # Panics
            .unwrap_or_else(|| panic!("scheme {scheme} not in series"));
        self.average[idx]
    }

    /// Renders the series as CSV (header row, one row per workload, AVG
    /// last) for downstream plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("workload");
        for s in &self.schemes {
            out.push(',');
            out.push_str(s.name());
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            out.push_str(label);
            for v in vals {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out.push_str("AVG");
        for v in &self.average {
            out.push_str(&format!(",{v:.6}"));
        }
        out.push('\n');
        out
    }

    /// Renders the series as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<9}", "workload"));
        for s in &self.schemes {
            out.push_str(&format!("{:>15}", s.name()));
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            out.push_str(&format!("{label:<9}"));
            for v in vals {
                out.push_str(&format!("{v:>15.3}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<9}", "AVG"));
        for v in &self.average {
            out.push_str(&format!("{v:>15.3}"));
        }
        out.push('\n');
        out
    }
}

// ---------------------------------------------------------------------------
// Figure 15 — estimation accuracy.
// ---------------------------------------------------------------------------

/// Fig. 15: mean `C^w_lrs` difference (Est − accurate) per workload, with
/// and without intra-line bit shifting.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Workload label.
    pub workload: String,
    /// Mean counter difference without shifting (Fig. 15a).
    pub diff_without_shift: f64,
    /// Mean counter difference with shifting (Fig. 15b).
    pub diff_with_shift: f64,
}

/// Reproduces Fig. 15 over all 16 workloads.
///
/// The paper samples counters in steady state (500 M instructions, pages
/// fully written); to reach that state quickly the experiment drives each
/// benchmark's write stream over a densely-revisited working-set window,
/// so wordline groups accumulate their full 64 lines before most samples
/// are taken.
pub fn fig15(cfg: &ExperimentConfig, runner: &Runner) -> Vec<Fig15Row> {
    let tables = cfg.tables();
    let all = Workload::all();
    // Each workload is an independent pair of controller feeds; fan the
    // 16 of them out as one batch.
    let (diffs, _) = runner.run_jobs(all.len(), |i| fig15_cell(cfg, &tables, all[i]));
    all.iter()
        .zip(diffs)
        .map(|(w, [without, with])| Fig15Row {
            workload: w.label().to_string(),
            diff_without_shift: without,
            diff_with_shift: with,
        })
        .collect()
}

/// One Fig. 15 row: mean `C^w_lrs` difference for `workload` with
/// shifting off and on. Counter values depend only on the write stream, so
/// the row feeds writes straight into two controllers (one per shifting
/// setting, each on its own clock) without simulating core timing; the
/// two share one generated stream.
fn fig15_cell(cfg: &ExperimentConfig, tables: &Tables, w: Workload) -> [f64; 2] {
    use ladder_core::{LadderConfig, LadderVariant};
    use ladder_memctrl::{LadderPolicy, MemCtrlConfig, MemoryController};
    use ladder_reram::AddressMap;

    // Dense revisiting: a compact page window and an event budget that
    // rewrites each page tens of times.
    let window_pages = 768u64;
    let events_per_member = (cfg.instructions_per_core / 2).clamp(50_000, 400_000);
    let map = AddressMap::new(Geometry::default());
    let mut feeds = [false, true].map(|shifting| {
        let mut lcfg = LadderConfig::for_variant(LadderVariant::Est);
        lcfg.shifting = shifting;
        lcfg.track_exact = true;
        let policy = Box::new(LadderPolicy::new(lcfg, tables.ladder.clone(), map.clone()));
        (
            MemoryController::new(MemCtrlConfig::default(), map.clone(), policy),
            Instant::ZERO,
        )
    });
    for (core, bench) in w.members().into_iter().enumerate() {
        let (base, _) = core_window(core, &Geometry::default());
        let seed = cfg
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(core as u64 + 1);
        let mut trace = WorkloadGen::new(
            profile_of(bench),
            seed,
            base,
            window_pages,
            events_per_member,
        );
        while let Some(ev) = trace.next_event() {
            if let ladder_cpu::TraceOp::Write { addr, data } = ev.op {
                for (mc, now) in &mut feeds {
                    while !mc.enqueue_write(addr, *data, *now) {
                        // lint: allow(panic-policy) — invariant: an unfinished controller always schedules a next wake (kernel progress invariant, DESIGN §3)
                        *now = mc.next_wake(*now).expect("controller progress");
                        mc.process(*now);
                    }
                    mc.process(*now);
                }
            }
        }
    }
    feeds.map(|(mut mc, now)| {
        mc.finish(now);
        mc.policy().cw_trace().map(|t| t.mean_diff()).unwrap_or(0.0)
    })
}

// ---------------------------------------------------------------------------
// Section 6.4 — wear-leveling integration and lifetime.
// ---------------------------------------------------------------------------

/// Lifetime and performance of a scheme under wear-leveling.
#[derive(Debug, Clone)]
pub struct LifetimeRow {
    /// Scheme evaluated.
    pub scheme: Scheme,
    /// Write traffic relative to the baseline scheme.
    pub write_traffic_ratio: f64,
    /// Lifetime relative to the baseline scheme: inverse of the write
    /// traffic needed for the same work, under identical wear-leveling
    /// (Section 6.4's analysis).
    pub lifetime_ratio: f64,
    /// Speedup vs. baseline, both under wear-leveling.
    pub speedup_with_wl: f64,
    /// Speedup vs. baseline, both without wear-leveling.
    pub speedup_without_wl: f64,
}

/// Reproduces the Section 6.4 analysis on one workload.
pub fn lifetime(cfg: &ExperimentConfig, workload: Workload, runner: &Runner) -> Vec<LifetimeRow> {
    let tables = Arc::new(cfg.tables());
    let schemes = [
        Scheme::Baseline,
        Scheme::LadderBasic,
        Scheme::LadderEst,
        Scheme::LadderHybrid,
    ];
    let leveled = |s: Scheme| {
        SimConfig::builder()
            .scheme(s)
            .workload(workload)
            .track_wear(true)
            .wear_leveling(true)
            .build()
    };
    let mut specs: Vec<SimConfig> = schemes.iter().map(|&s| leveled(s)).collect();
    specs.extend(schemes.iter().map(|&s| SimConfig::new(s, workload)));
    let (mut results, _) = runner.run_configs(cfg, &tables, &specs);
    let without_wl = results.split_off(schemes.len());
    let with_wl = results;
    let base_writes = total_writes(&with_wl[0]);
    schemes
        .iter()
        .enumerate()
        .map(|(i, &scheme)| LifetimeRow {
            scheme,
            write_traffic_ratio: total_writes(&with_wl[i]) / base_writes,
            // Wear-leveling spreads all traffic evenly, so lifetime (in
            // units of *work the device performs before wearing out*) is
            // inversely proportional to the writes each scheme issues for
            // the same program execution — Section 6.4's analysis.
            lifetime_ratio: base_writes / total_writes(&with_wl[i]),
            speedup_with_wl: with_wl[i].ipc0() / with_wl[0].ipc0(),
            speedup_without_wl: without_wl[i].ipc0() / without_wl[0].ipc0(),
        })
        .collect()
}

fn total_writes(r: &RunResult) -> f64 {
    (r.mem.data_writes + r.mem.metadata_writes) as f64
}

// ---------------------------------------------------------------------------
// Extension — raw bit-error-rate sweep: P&V retries, ECC, and data loss.
// ---------------------------------------------------------------------------

/// One `(scheme, raw BER)` cell of the error-rate sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// Scheme evaluated.
    pub scheme: Scheme,
    /// Raw transient bit-error rate at the worst IR-drop corner.
    pub ber: f64,
    /// IPC of core 0 under faults.
    pub ipc: f64,
    /// IPC relative to the same scheme's fault-free run (the P&V
    /// degradation).
    pub ipc_vs_fault_free: f64,
    /// Retry pulses per thousand data writes.
    pub retries_per_kilowrite: f64,
    /// Fraction of simulated time spent in verify reads and retry pulses.
    pub retry_time_frac: f64,
    /// Estimated device lifetime in seconds at the sweep's endurance
    /// budget, from the run's worst-line write rate.
    pub lifetime_s: f64,
    /// Lifetime relative to the same scheme's fault-free run.
    pub lifetime_vs_fault_free: f64,
    /// The fault model's full counters (stuck cells, ECC corrections,
    /// uncorrectable data loss, page retirements).
    pub faults: FaultStats,
}

/// Sweeps the raw bit-error rate for baseline vs. LADDER-Est/Hybrid,
/// measuring IPC degradation, retry overhead, ECC/data-loss counts, and
/// lifetime. All schemes face identical raw fault pressure (the model
/// samples against the physical LADDER table); they differ in how much a
/// retry pulse costs them.
pub fn error_rate_sweep(
    cfg: &ExperimentConfig,
    workload: Workload,
    bers: &[f64],
    runner: &Runner,
) -> Vec<FaultSweepRow> {
    let tables = Arc::new(cfg.tables());
    let schemes = [Scheme::Baseline, Scheme::LadderEst, Scheme::LadderHybrid];
    let worn = |s: Scheme| {
        SimConfig::builder()
            .scheme(s)
            .workload(workload)
            .track_wear(true)
    };
    // Fault-free controls first, then one run per (BER, scheme).
    let mut specs: Vec<SimConfig> = schemes.iter().map(|&s| worn(s).build()).collect();
    for &ber in bers {
        for &s in &schemes {
            specs.push(worn(s).faults(FaultConfig::with_ber(cfg.seed, ber)).build());
        }
    }
    let (results, _) = runner.run_configs(cfg, &tables, &specs);
    let endurance = FaultConfig::with_ber(cfg.seed, 0.0).endurance;
    let lifetime_of = |r: &RunResult| {
        r.wear
            .as_ref()
            // lint: allow(panic-policy) — invariant: fault sweeps enable wear tracking in every RunSpec they build
            .expect("wear tracking enabled")
            .with(|w| w.lifetime_seconds(endurance, r.end.duration_since(Instant::ZERO)))
    };
    let controls = &results[..schemes.len()];
    let mut rows = Vec::new();
    for (bi, &ber) in bers.iter().enumerate() {
        for (si, &scheme) in schemes.iter().enumerate() {
            let r = &results[schemes.len() + bi * schemes.len() + si];
            let control = &controls[si];
            let lifetime_s = lifetime_of(r);
            rows.push(FaultSweepRow {
                scheme,
                ber,
                ipc: r.ipc0(),
                ipc_vs_fault_free: r.ipc0() / control.ipc0(),
                retries_per_kilowrite: r.mem.retries_issued as f64 * 1000.0
                    / r.mem.data_writes.max(1) as f64,
                retry_time_frac: r.mem.retry_time.as_ps() as f64 / r.end.as_ps().max(1) as f64,
                lifetime_s,
                lifetime_vs_fault_free: lifetime_s / lifetime_of(control),
                // lint: allow(panic-policy) — invariant: fault sweeps run with the fault model installed two lines up
                faults: r.faults.expect("fault model installed"),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Section 7 — process-variability sensitivity.
// ---------------------------------------------------------------------------

/// Outcome of the shrunk-dynamic-range study.
#[derive(Debug, Clone)]
pub struct VariabilityResult {
    /// LADDER-Hybrid speedup with the full latency range.
    pub speedup_full: f64,
    /// LADDER-Hybrid speedup with the range shrunk 2×.
    pub speedup_shrunk: f64,
    /// Fraction of the performance advantage retained.
    pub retention: f64,
}

/// Reproduces the Section 7 experiment on one workload.
pub fn variability(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> VariabilityResult {
    let tables = cfg.tables();
    let shrunk = tables.shrink_dynamic_range(2.0);
    let sets = [&tables, &shrunk];
    let schemes = [Scheme::Baseline, Scheme::LadderHybrid];
    // Four independent runs: (full, shrunk) × (baseline, hybrid).
    let (runs, _) = runner.run_jobs(4, |i| {
        run_sim(&SimConfig::new(schemes[i % 2], workload), cfg, sets[i / 2])
    });
    let full = runs[1].ipc0() / runs[0].ipc0();
    let small = runs[3].ipc0() / runs[2].ipc0();
    VariabilityResult {
        speedup_full: full,
        speedup_shrunk: small,
        retention: if full > 1.0 {
            (small - 1.0) / (full - 1.0)
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            instructions_per_core: 40_000,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn workload_enumeration_matches_table3() {
        let all = Workload::all();
        assert_eq!(all.len(), 16);
        assert_eq!(all[0].label(), "astar");
        assert_eq!(all[8].label(), "mix-1");
        assert_eq!(all[8].members().len(), 4);
        assert!(all[8].is_mix() && !all[0].is_mix());
    }

    #[test]
    fn core_windows_are_disjoint_and_above_metadata() {
        let g = Geometry::default();
        let mut prev_end = g.pages() as u64 / 16;
        for c in 0..4 {
            let (base, len) = core_window(c, &g);
            assert!(base >= prev_end);
            prev_end = base + len;
        }
        assert!(prev_end <= g.pages() as u64);
    }

    #[test]
    fn shard_seed_salt_changes_the_request_stream() {
        let cfg = tiny_cfg();
        let g = Geometry::default();
        let (mut plain, _) = shard_trace_for("astar", 0, &cfg, &g, None);
        let (mut s0, _) = shard_trace_for("astar", 0, &cfg, &g, Some(0));
        let (mut s1, _) = shard_trace_for("astar", 0, &cfg, &g, Some(1));
        let sig = |t: &mut Box<dyn TraceSource>| -> Vec<u64> {
            (0..32)
                .map_while(|_| t.next_event())
                .map(|e| match e.op {
                    ladder_cpu::TraceOp::Read { addr, .. } => addr.0,
                    ladder_cpu::TraceOp::Write { addr, .. } => addr.0,
                })
                .collect()
        };
        let (p, a, b) = (sig(&mut plain), sig(&mut s0), sig(&mut s1));
        assert_ne!(p, a, "shard 0 must not replay the monolithic stream");
        assert_ne!(a, b, "distinct shards must see distinct streams");
    }

    #[test]
    fn scheme_ordering_on_one_workload() {
        let cfg = tiny_cfg();
        let tables = cfg.tables();
        let w = Workload::Single("astar");
        let base = run_sim(&SimConfig::new(Scheme::Baseline, w), &cfg, &tables);
        let hybrid = run_sim(&SimConfig::new(Scheme::LadderHybrid, w), &cfg, &tables);
        let oracle = run_sim(&SimConfig::new(Scheme::Oracle, w), &cfg, &tables);
        // Oracle ≤ Hybrid < baseline on write service time.
        assert!(oracle.avg_write_service() <= hybrid.avg_write_service());
        assert!(hybrid.avg_write_service() < base.avg_write_service());
        // And the IPC ordering follows.
        assert!(hybrid.ipc0() > base.ipc0());
        assert!(oracle.ipc0() >= hybrid.ipc0() * 0.98);
    }

    #[test]
    fn fig2_normalizes_to_baseline() {
        let mut cfg = tiny_cfg();
        cfg.instructions_per_core = 25_000;
        let rows = fig2(&cfg, &Runner::with_jobs(2));
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.location_aware >= 0.9, "{}: {}", r.bench, r.location_aware);
            assert!(
                r.data_location_aware >= r.location_aware * 0.98,
                "{}: content-awareness must not lose to location-only",
                r.bench
            );
        }
    }

    #[test]
    fn main_eval_builder_restricts_schemes_and_workloads() {
        let mut cfg = tiny_cfg();
        cfg.instructions_per_core = 25_000;
        let eval = MainEval::builder(&cfg)
            .schemes(&[Scheme::Baseline, Scheme::LadderHybrid])
            .workloads(&[Workload::Single("astar"), Workload::Mix("mix-1")])
            .run(&Runner::with_jobs(2));
        assert_eq!(eval.workloads.len(), 2);
        assert_eq!(eval.workloads[0].runs.len(), 2);
        // Matrix (2×2) plus alone-run baselines for mix-1's members that
        // are not evaluated as singles.
        assert!(eval.stats.jobs > 4, "stats cover the whole batch");
        let base = eval.workloads[0].speedup(Scheme::Baseline);
        assert!((base - 1.0).abs() < 1e-12, "baseline normalizes to 1.0");
        assert!(eval.workloads[1].speedup(Scheme::LadderHybrid) > 1.0);
    }

    #[test]
    #[should_panic(expected = "requires Scheme::Baseline")]
    fn main_eval_builder_requires_baseline() {
        let cfg = tiny_cfg();
        MainEval::builder(&cfg)
            .schemes(&[Scheme::LadderHybrid])
            .run(&Runner::sequential());
    }

    #[test]
    fn figure_series_table_renders() {
        let s = FigureSeries {
            metric: "x".into(),
            schemes: vec![Scheme::Baseline, Scheme::Oracle],
            rows: vec![("w1".into(), vec![1.0, 0.5])],
            average: vec![1.0, 0.5],
        };
        let t = s.to_table();
        assert!(t.contains("baseline"));
        assert!(t.contains("AVG"));
        assert!((s.avg_of(Scheme::Oracle) - 0.5).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Section 7 — crash consistency: lazy LRS-metadata correction.
// ---------------------------------------------------------------------------

/// Outcome of the crash-recovery timing study.
#[derive(Debug, Clone)]
pub struct CrashRecoveryResult {
    /// Mean `tWR` (ns) over write windows before the crash.
    pub steady_twr_ns: f64,
    /// Mean `tWR` (ns) per window of writes after the crash, in order.
    pub post_crash_windows_ns: Vec<f64>,
}

/// Measures how write latencies recover after a power failure wipes the
/// metadata cache and lazy correction saturates the metadata region
/// (paper Section 7): the first post-crash writes pay worst-case-content
/// timings, then estimates re-tighten as lines are rewritten.
pub fn crash_recovery(cfg: &ExperimentConfig, bench: &'static str) -> CrashRecoveryResult {
    use ladder_core::{LadderConfig, LadderVariant};
    use ladder_memctrl::{LadderPolicy, MemCtrlConfig, MemoryController};
    use ladder_reram::AddressMap;

    let tables = cfg.tables();
    let map = AddressMap::new(Geometry::default());
    let policy = Box::new(LadderPolicy::new(
        LadderConfig::for_variant(LadderVariant::Est),
        tables.ladder.clone(),
        map.clone(),
    ));
    let mut mc = MemoryController::new(MemCtrlConfig::default(), map, policy);
    let (base, _) = core_window(0, &Geometry::default());
    // A compact, heavily revisited window so post-crash rewrites actually
    // re-tighten the same pages being measured.
    let mut gen = WorkloadGen::new(profile_of(bench), cfg.seed, base, 384, 800_000);
    let mut now = Instant::ZERO;
    let window = 500u64;
    let mut feed = |mc: &mut MemoryController, now: &mut Instant, n_writes: u64| -> f64 {
        let before = (mc.stats().t_wr_data, mc.stats().data_writes);
        let mut fed = 0;
        while fed < n_writes {
            let Some(ev) = gen.next_event() else { break };
            if let ladder_cpu::TraceOp::Write { addr, data } = ev.op {
                while !mc.enqueue_write(addr, *data, *now) {
                    // lint: allow(panic-policy) — invariant: an unfinished controller always schedules a next wake (kernel progress invariant, DESIGN §3)
                    *now = mc.next_wake(*now).expect("controller progress");
                    mc.process(*now);
                }
                mc.process(*now);
                fed += 1;
            }
        }
        *now = mc.finish(*now);
        let dt = (mc.stats().t_wr_data - before.0).as_ns();
        let dn = mc.stats().data_writes - before.1;
        if dn == 0 {
            0.0
        } else {
            dt / dn as f64
        }
    };
    // Steady state: enough warm windows to fill the working set; use the
    // last as the reference.
    let mut steady = 0.0;
    for _ in 0..40 {
        steady = feed(&mut mc, &mut now, window);
    }
    // Power failure + lazy correction. Full convergence needs every line
    // of a page rewritten (~64 writes/page), so post windows are wider.
    mc.crash_recover();
    let post: Vec<f64> = (0..24)
        .map(|_| feed(&mut mc, &mut now, window * 4))
        .collect();
    CrashRecoveryResult {
        steady_twr_ns: steady,
        post_crash_windows_ns: post,
    }
}

// ---------------------------------------------------------------------------
// Extension (paper Section 8): hot-page remapping to low-latency rows.
// ---------------------------------------------------------------------------

/// Result of the hot-page remapping extension study.
#[derive(Debug, Clone)]
pub struct HotRemapResult {
    /// LADDER-Hybrid speedup over baseline, no remapping.
    pub ladder_speedup: f64,
    /// LADDER-Hybrid + hot-page remapping speedup over the same baseline.
    pub ladder_remap_speedup: f64,
    /// Mean write-recovery time without remapping (ns).
    pub twr_ladder_ns: f64,
    /// Mean write-recovery time with remapping (ns).
    pub twr_remap_ns: f64,
}

/// Evaluates the paper's future-work idea of combining LADDER with
/// adaptive remapping of write-hot pages into bottom (fast) rows
/// (Leader/Aliens style, the paper's references 62 and 51).
pub fn hot_remap_extension(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> HotRemapResult {
    use ladder_wear::HotPageRemapper;

    let tables = cfg.tables();
    // Frames: data pages in the lowest 32 wordlines, outside the cores'
    // windows so no workload data is displaced.
    let geometry = Geometry::default();
    let wl_div = geometry.total_banks() as u64;
    let window_base = geometry.pages() as u64 / 16;
    let frames: Vec<u64> = (0..geometry.pages() as u64)
        .filter(|&p| (p / wl_div) % (geometry.mat_rows as u64) < 32 && p < window_base)
        .take(4096)
        .collect();
    let (runs, _) = runner.run_jobs(3, |i| match i {
        0 => run_sim(&SimConfig::new(Scheme::Baseline, workload), cfg, &tables),
        1 => run_sim(
            &SimConfig::new(Scheme::LadderHybrid, workload),
            cfg,
            &tables,
        ),
        _ => {
            let mut b = builder_for(
                &SimConfig::new(Scheme::LadderHybrid, workload),
                cfg,
                &tables,
                Geometry::default(),
                None,
                &StreamPool::default(),
            );
            b.leveler(Box::new(HotPageRemapper::new(frames.clone(), 400)));
            b.run()
        }
    });
    let (base, plain, remapped) = (&runs[0], &runs[1], &runs[2]);
    let twr = |r: &RunResult| {
        if r.mem.data_writes == 0 {
            0.0
        } else {
            r.mem.t_wr_data.as_ns() / r.mem.data_writes as f64
        }
    };
    HotRemapResult {
        ladder_speedup: plain.ipc0() / base.ipc0(),
        ladder_remap_speedup: remapped.ipc0() / base.ipc0(),
        twr_ladder_ns: twr(plain),
        twr_remap_ns: twr(remapped),
    }
}

// ---------------------------------------------------------------------------
// Extension — multi-year lifetime campaign: skew × BER × remap × coding.
// ---------------------------------------------------------------------------

/// Mean-tropical-year seconds, for converting extrapolated device
/// lifetimes into the figure's device-years unit.
const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Sweep axes and scale of the multi-year lifetime campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Zipfian key-skew values (`theta` in (0,1), 0 = uniform) driving the
    /// open-loop tenant streams — the campaign's write-skew axis.
    pub skews: Vec<f64>,
    /// Raw worst-corner transient bit-error rates to sweep.
    pub bers: Vec<f64>,
    /// Remap backends to sweep.
    pub remaps: Vec<RemapKind>,
    /// Code schemes to sweep.
    pub codings: Vec<CodingKind>,
    /// Open-loop requests per shard per cell.
    pub requests: u64,
    /// Offered load in requests/µs per shard.
    pub load: f64,
    /// Sharded topology every cell runs over.
    pub topology: Topology,
    /// Write scheme under test (fixed across the sweep; the campaign's
    /// axes are the reliability knobs, not the write path).
    pub scheme: Scheme,
}

impl CampaignSpec {
    /// The shipped figure: 2 skews × 3 BERs × both remap backends × all
    /// three code schemes over a 2×2 topology. `quick` scales the
    /// per-cell request count down to smoke-run size.
    pub fn standard(quick: bool) -> Self {
        Self {
            skews: vec![0.2, 0.99],
            bers: vec![1e-4, 1e-3, 5e-3],
            remaps: RemapKind::ALL.to_vec(),
            codings: CodingKind::ALL.to_vec(),
            requests: if quick { 600 } else { 8_000 },
            load: 4.0,
            // lint: allow(panic-policy) — static 2x2 literal is always a valid topology
            topology: Topology::new(2, 2).expect("static 2x2 topology"),
            scheme: Scheme::LadderEst,
        }
    }

    /// Number of sweep cells this spec describes.
    pub fn cells(&self) -> usize {
        self.skews.len() * self.bers.len() * self.remaps.len() * self.codings.len()
    }
}

/// One `(skew, BER, remap, coding)` cell of the lifetime campaign.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Zipfian key skew of the request stream.
    pub skew: f64,
    /// Raw worst-corner transient bit-error rate.
    pub ber: f64,
    /// Remap backend the cell ran with.
    pub remap: RemapKind,
    /// Code scheme the cell ran with.
    pub coding: CodingKind,
    /// Projected device lifetime in years under deployed wear-leveling:
    /// the perfectly-leveled bound (endurance × data lines ÷ write rate)
    /// derated by the measured wear unevenness (worst line over mean —
    /// the concentration a leveler must fight) and by the code scheme's
    /// parity write amplification.
    pub device_years: f64,
    /// The worst shard's measured wear unevenness (worst-line writes over
    /// the mean; 1.0 = perfectly level).
    pub unevenness: f64,
    /// Median demand-read latency (ns) — the scheme's latency overhead
    /// floor.
    pub p50_read_ns: f64,
    /// Tail demand-read latency (ns) — what retry escalation costs.
    pub p99_read_ns: f64,
    /// Folded coding-layer counters for the cell.
    pub coding_stats: CodingStats,
    /// Folded fault-model counters for the cell.
    pub faults: FaultStats,
}

impl CampaignRow {
    /// Column header matching [`Self::csv_line`].
    pub const CSV_HEADER: &'static str = "skew,ber,remap,coding,device_years,unevenness,\
p50_read_ns,p99_read_ns,corrected_bits,uncorrectable_lines,remaps,write_amplification";

    /// The row as one CSV line (stable column order, no trailing newline).
    pub fn csv_line(&self) -> String {
        format!(
            "{},{:e},{},{},{:.3},{:.2},{:.1},{:.1},{},{},{},{:.6}",
            self.skew,
            self.ber,
            self.remap.name(),
            self.coding.name(),
            self.device_years,
            self.unevenness,
            self.p50_read_ns,
            self.p99_read_ns,
            self.coding_stats.total_corrected_bits(),
            self.coding_stats.total_uncorrectable(),
            self.coding_stats.remaps,
            self.coding_stats.write_amplification(),
        )
    }
}

/// Runs the multi-year lifetime campaign: every `(skew, BER, remap,
/// coding)` cell is one sharded open-loop run over `spec.topology` with
/// wear tracking and the fault model installed, folded bit-reproducibly
/// at any `--jobs`.
///
/// Device lifetime is projected for a deployed module: the
/// perfectly-leveled bound `endurance × data lines ÷ device write rate`
/// (endurance at the nominal [`FaultConfig::new`] budget, not the sweep's
/// accelerated one), divided by the worst shard's measured wear
/// *unevenness* (worst-line writes over the mean — the concentration a
/// deployed leveler has to fight, which grows with skew) and by
/// `1 + WA` for the code scheme's parity traffic (parity writes wear
/// cells exactly like data writes).
pub fn lifetime_campaign(
    cfg: &ExperimentConfig,
    spec: &CampaignSpec,
    runner: &Runner,
) -> Vec<CampaignRow> {
    let tables = cfg.tables();
    // Nominal per-cell endurance for the projection; the fault model
    // itself runs at `with_ber`'s accelerated budget so wear-out events
    // are observable inside the window.
    let nominal_endurance = FaultConfig::new(cfg.seed).endurance;
    let shard_geometry = spec.topology.shard_geometry(&Geometry::default());
    // Writable data region: everything above the 1/16 metadata reserve.
    let data_pages = shard_geometry.pages() as u64 * spec.topology.shards() as u64 * 15 / 16;
    let data_lines = data_pages * LINES_PER_WLG as u64;
    let mut rows = Vec::with_capacity(spec.cells());
    for &skew in &spec.skews {
        for &ber in &spec.bers {
            for &remap in &spec.remaps {
                for &coding in &spec.codings {
                    let service = ServiceConfig::builder()
                        .load(spec.load)
                        .zipf_theta(skew)
                        .requests(spec.requests)
                        .build();
                    let fcfg = FaultConfig::with_ber(cfg.seed, ber);
                    let sim = SimConfig::builder()
                        .scheme(spec.scheme)
                        .service(service)
                        .topology(spec.topology)
                        .track_wear(true)
                        .faults(fcfg)
                        .coding(coding)
                        .remap(remap)
                        .build();
                    let run = run_sharded(&sim, cfg, &tables, runner);
                    // Device write rate over the run, and the worst
                    // shard's wear concentration (the device dies at its
                    // most uneven spot).
                    let total_writes: u64 = run
                        .shards
                        .iter()
                        .map(|r| {
                            r.wear
                                .as_ref()
                                // lint: allow(panic-policy) — invariant: the campaign enables wear tracking in every config it builds
                                .expect("campaign enables wear tracking")
                                .with(|w| w.total_writes())
                        })
                        .sum();
                    let unevenness = run
                        .shards
                        .iter()
                        .map(|r| {
                            r.wear
                                .as_ref()
                                // lint: allow(panic-policy) — invariant: the campaign enables wear tracking in every config it builds
                                .expect("campaign enables wear tracking")
                                .with(|w| w.unevenness())
                        })
                        .fold(1.0_f64, f64::max);
                    let merged = run.merged();
                    let elapsed_s = merged.end.duration_since(Instant::ZERO).as_ps() as f64 * 1e-12;
                    let rate = total_writes as f64 / elapsed_s;
                    let leveled_secs = nominal_endurance as f64 * data_lines as f64 / rate;
                    let coding_stats = merged.coding.unwrap_or_default();
                    let wa = coding_stats.write_amplification();
                    rows.push(CampaignRow {
                        skew,
                        ber,
                        remap,
                        coding,
                        device_years: leveled_secs / unevenness / (1.0 + wa) / SECONDS_PER_YEAR,
                        unevenness,
                        p50_read_ns: merged.read_histogram.percentile(0.50).as_ns(),
                        p99_read_ns: merged.read_histogram.percentile(0.99).as_ns(),
                        coding_stats,
                        faults: merged.faults.unwrap_or_default(),
                    });
                }
            }
        }
    }
    rows
}
