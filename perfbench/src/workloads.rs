//! The benchmark's five workloads: what each one runs, one run of it, and
//! the checks and fingerprint a run is judged by.

use crate::stats::Fnv;
use ladder_faults::{FaultConfig, FaultStats};
use ladder_memctrl::{LatencyHistogram, MemStats, Tables};
use ladder_reram::Picos;
use ladder_sim::experiments::{self, ExperimentConfig, MainEval};
use ladder_sim::wallclock::time;
use ladder_sim::{
    run_sharded, ArrivalKind, CodingKind, CodingStats, EventCounts, RemapKind, RunResult, Runner,
    Scheme, ServiceConfig, ServiceStats, SimConfig, Topology,
};
use ladder_trace::{Mergeable, SloReport};
use std::sync::Arc;
use std::time::Duration;

/// The seed the committed fingerprints were recorded at (the bench
/// default).
pub const REFERENCE_SEED: u64 = 2021;

/// `--quick` runs every workload at this fraction of its budget.
pub const QUICK_DIV: u64 = 20;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 4 cores, LADDER-Hybrid on `mix-1`.
    ClosedLadder,
    /// Closed loop, 4 cores, the worst-case baseline on `mix-1`.
    ClosedBaseline,
    /// Open loop in simulated time: bursty multi-tenant reads above
    /// LADDER-Est's service capacity.
    ServiceBursty,
    /// Closed loop over a 4x2 sharded topology with faults, tiered BCH
    /// coding, PAD remapping and wear tracking.
    ShardedFaults,
    /// The main evaluation matrix (16 workloads x 7 schemes), short runs.
    MatrixQuick,
}

impl Workload {
    /// Every workload, in the order rounds run them.
    pub const ALL: [Workload; 5] = [
        Workload::ClosedLadder,
        Workload::ClosedBaseline,
        Workload::ServiceBursty,
        Workload::ShardedFaults,
        Workload::MatrixQuick,
    ];

    /// The name flags and reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedLadder => "closed_ladder",
            Workload::ClosedBaseline => "closed_baseline",
            Workload::ServiceBursty => "service_bursty",
            Workload::ShardedFaults => "sharded_faults",
            Workload::MatrixQuick => "matrix_quick",
        }
    }

    /// Why the benchmark runs this workload: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ClosedLadder => "heaviest per-write path: LADDER-Hybrid counters, metadata cache, shifting and FNW under a write-heavy 4-core mix (mix-1, 15 M instructions per core)",
            Workload::ClosedBaseline => "control: the same mix-1 streams and kernel work without the LADDER engine, so an engine change must leave it flat",
            Workload::ServiceBursty => "open loop above capacity (bursty, 192 req/us offered, 1 M requests): deep event, controller and admission queues, no cores",
            Workload::ShardedFaults => "the only run through run_sharded (4x2) and the faults, tiered-BCH coding, PAD remap and wear layers",
            Workload::MatrixQuick => "figure regeneration: 16 workloads x 7 schemes at 250 k instructions per core, so table generation and per-run set-up matter",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// The stats fingerprint of a run at [`REFERENCE_SEED`], full budget
    /// or `--quick`. Regenerate with `--reps 1` / `--quick` after a change
    /// that is meant to move simulated results, and say why in the change.
    pub fn expected_fingerprint(self, quick: bool) -> u64 {
        let (full, quick_fp) = match self {
            Workload::ClosedLadder => (0xdcbe_1260_fcc7_c28e, 0xd5b9_86e1_71b1_010a),
            Workload::ClosedBaseline => (0x16c4_6de0_7747_f190, 0xf0d9_ef62_e8f6_0849),
            Workload::ServiceBursty => (0xaf5c_5b12_420a_b6d0, 0xdc39_5033_2b3f_67b1),
            Workload::ShardedFaults => (0x7519_8e3c_6142_0009, 0xca7b_f4ad_ee0c_be98),
            Workload::MatrixQuick => (0x662b_fa5d_f5c5_844d, 0x1409_a5d9_6ee5_665d),
        };
        if quick {
            quick_fp
        } else {
            full
        }
    }

    /// Whether the workload drives cores from per-core instruction
    /// streams, one controller per run (the streams can be replayed).
    pub fn is_closed_monolithic(self) -> bool {
        matches!(self, Workload::ClosedLadder | Workload::ClosedBaseline)
    }

    /// Experiment parameters of one run: `seed` plus this workload's
    /// fixed per-core instruction budget divided by `div`. The budgets
    /// put a full run at about 1.3–1.8 s on a 2-CPU host.
    fn experiment(self, seed: u64, div: u64) -> ExperimentConfig {
        let per_core = match self {
            Workload::ClosedLadder | Workload::ClosedBaseline => 15_000_000,
            // Open loop: the budget is the request count below.
            Workload::ServiceBursty => 0,
            Workload::ShardedFaults => 2_000_000,
            Workload::MatrixQuick => 250_000,
        };
        ExperimentConfig {
            instructions_per_core: per_core / div,
            seed,
            ..ExperimentConfig::default()
        }
    }

    /// Everything a run needs before it starts: the experiment config,
    /// the simulation configs and the timing tables. Building it is what
    /// `setup_s` measures.
    pub fn setup(self, seed: u64, div: u64) -> Setup {
        let ecfg = self.experiment(seed, div);
        let (tables, tables_time) = time(|| Arc::new(ecfg.tables()));
        Setup {
            workload: self,
            configs: self.configs(&ecfg, div),
            tables,
            tables_time,
            ecfg,
        }
    }

    /// The simulations one run executes, in result order: a single config
    /// for every workload but the matrix, whose cells are
    /// workload-major, scheme-minor as [`MainEval`] runs them.
    pub fn configs(self, ecfg: &ExperimentConfig, div: u64) -> Vec<SimConfig> {
        let mix1 = experiments::Workload::Mix("mix-1");
        match self {
            Workload::ClosedLadder => vec![SimConfig::new(Scheme::LadderHybrid, mix1)],
            Workload::ClosedBaseline => vec![SimConfig::new(Scheme::Baseline, mix1)],
            Workload::ServiceBursty => vec![SimConfig::builder()
                .scheme(Scheme::LadderEst)
                .service(
                    ServiceConfig::builder()
                        .arrival(ArrivalKind::Bursty)
                        .load(192.0)
                        .tenants(3)
                        .zipf_theta(0.99)
                        .read_fraction(0.9)
                        .requests(1_000_000 / div)
                        .build(),
                )
                .build()],
            Workload::ShardedFaults => vec![SimConfig::builder()
                .scheme(Scheme::LadderEst)
                .workload(mix1)
                .topology(Topology {
                    channels: 4,
                    ranks: 2,
                })
                .faults(FaultConfig::with_ber(ecfg.seed, 5e-3))
                .coding(CodingKind::TieredBch)
                .remap(RemapKind::Pad)
                .track_wear(true)
                .build()],
            Workload::MatrixQuick => experiments::Workload::all()
                .into_iter()
                .flat_map(|w| Scheme::MAIN_EVAL.map(|s| SimConfig::new(s, w)))
                .collect(),
        }
    }
}

/// A workload ready to run; see [`Workload::setup`].
#[derive(Debug)]
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// Seed and per-core budget.
    pub ecfg: ExperimentConfig,
    /// The simulations one run executes (see [`Workload::configs`]).
    pub configs: Vec<SimConfig>,
    /// Timing tables shared by every simulation of the run.
    pub tables: Arc<Tables>,
    /// Host time `ExperimentConfig::tables()` took.
    pub tables_time: Duration,
}

impl Setup {
    /// One run, tracing off. The matrix runs through [`MainEval`], which
    /// builds its own timing tables as the figure binaries do; every
    /// other workload runs its config against the set-up tables.
    pub fn run(&self, runner: &Runner) -> Outcome {
        if self.workload != Workload::MatrixQuick {
            return Outcome::of(self.execute(&self.configs, runner));
        }
        let eval = MainEval::builder(&self.ecfg).run(runner);
        let fig16 = eval.fig16_speedup();
        let ladder_speedup = fig16.avg_of(Scheme::LadderEst);
        let series: Vec<f64> = fig16
            .rows
            .iter()
            .flat_map(|(_, v)| v)
            .chain(&fig16.average)
            .copied()
            .collect();
        Outcome {
            runs: eval.workloads.into_iter().flat_map(|w| w.runs).collect(),
            fig16: series,
            ladder_speedup: Some(ladder_speedup),
        }
    }

    /// Runs `configs` against the set-up tables: a sharded config through
    /// [`run_sharded`] (its shards in channel order), anything else as
    /// one batch on `runner`.
    pub fn execute(&self, configs: &[SimConfig], runner: &Runner) -> Vec<RunResult> {
        match configs {
            [one] if one.topology.is_some() => {
                run_sharded(one, &self.ecfg, &self.tables, runner).shards
            }
            _ => runner.run_configs(&self.ecfg, &self.tables, configs).0,
        }
    }
}

/// What one run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every simulated controller's result: one per run, one per shard,
    /// or one per matrix cell.
    pub runs: Vec<RunResult>,
    /// The matrix's Fig. 16 speedup series, rows then averages (empty
    /// for the other workloads).
    pub fig16: Vec<f64>,
    /// Fig. 16 average speedup of LADDER-Est over the baseline (the
    /// matrix only).
    pub ladder_speedup: Option<f64>,
}

impl Outcome {
    /// An outcome made of plain run results.
    pub fn of(runs: Vec<RunResult>) -> Outcome {
        Outcome {
            runs,
            fig16: Vec::new(),
            ladder_speedup: None,
        }
    }

    /// FNV-1a over every public statistic of every run, in order — not
    /// the trace (tracing must not perturb the stats, so traced and
    /// untraced runs hash alike) and never a host measurement.
    pub fn cells_fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for r in &self.runs {
            hash_run(&mut h, r);
        }
        h.finish()
    }

    /// [`Outcome::cells_fingerprint`] plus the Fig. 16 series: the value
    /// committed per workload and checked on every run.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.cells_fingerprint());
        for v in &self.fig16 {
            h.word(v.to_bits());
        }
        h.finish()
    }

    /// Every run's statistics folded into one set.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for r in &self.runs {
            t.events.merge_from(&r.events);
            t.mem.merge_from(&r.mem);
            t.reads.merge(&r.read_histogram);
            t.end_ps = t.end_ps.max(r.end.as_ps());
            t.sim_ps = t.sim_ps.saturating_add(r.end.as_ps());
            for c in &r.cores {
                t.cores += 1;
                t.retired += c.retired;
                t.ipc_sum += c.ipc;
                t.stall_ps += c.stall.as_ps();
                t.core_ps += c.finish.as_ps();
            }
            if let Some(hit) = r.cache_hit {
                t.cache_hit_sum += hit;
                t.cache_hit_runs += 1;
            }
            if let Some((cancelled, opportunities)) = r.fnw {
                t.fnw_cancelled += cancelled;
                t.fnw_opportunities += opportunities;
            }
            if let Some(f) = &r.faults {
                t.faults.merge(f);
            }
            if let Some(c) = &r.coding {
                t.coding.merge_from(c);
            }
            if let Some(s) = &r.service {
                t.service.merge_from(s);
            }
            if let Some(tr) = &r.trace {
                t.trace_records += tr.records;
                t.trace_dropped += tr.dropped;
            }
        }
        t
    }

    /// The simulated (modelled-design) metrics of the run. They are exact
    /// for a given seed and describe the model, which has not been
    /// validated against hardware.
    pub fn sim(&self) -> SimMetrics {
        let t = self.totals();
        let p99_read = if t.service.arrivals > 0 {
            // Open loop: the worst tenant's p99, measured from each
            // request's scheduled arrival.
            SloReport::build(&t.service.tenants, Picos::from_ps(t.end_ps))
                .rows
                .iter()
                .map(|r| r.p99)
                .max()
                .unwrap_or_default()
        } else {
            t.reads.percentile(0.99)
        };
        SimMetrics {
            ipc: if t.cores == 0 {
                0.0
            } else {
                t.ipc_sum / t.cores as f64
            },
            write_service_ns: t.mem.avg_write_service().as_ns(),
            p99_read_ns: p99_read.as_ns(),
            ladder_speedup: self.ladder_speedup.unwrap_or(0.0),
            instructions: t.retired,
            requests: t.service.arrivals,
        }
    }

    /// Invariants every run of `setup` must satisfy, whatever the seed.
    pub fn check(&self, setup: &Setup) -> Result<(), String> {
        let w = setup.workload;
        let t = self.totals();
        let expect_runs: usize = setup.configs.iter().map(SimConfig::shards).sum();
        let mut errors = Vec::new();
        if self.runs.len() != expect_runs {
            errors.push(format!("{} runs, expected {expect_runs}", self.runs.len()));
        }
        if t.events.total() == 0 || t.mem.data_writes == 0 {
            errors.push("no events or no data writes".to_string());
        }
        if w == Workload::ServiceBursty {
            let s = &t.service;
            let requests: u64 = setup
                .configs
                .iter()
                .filter_map(|c| c.service.map(|s| s.requests))
                .sum();
            if s.arrivals != requests || s.reads_completed + s.writes_accepted != s.arrivals {
                errors.push(format!(
                    "service conservation: {} arrivals of {requests}, {} reads + {} writes",
                    s.arrivals, s.reads_completed, s.writes_accepted
                ));
            }
        } else if self
            .runs
            .iter()
            .any(|r| r.cores.iter().any(|c| c.retired == 0))
        {
            errors.push("a core retired no instructions".to_string());
        }
        if w == Workload::ShardedFaults && self.runs.iter().any(|r| r.coding.is_none()) {
            errors.push("fault model missing from a shard".to_string());
        }
        if self.fig16.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            errors.push("non-positive Fig. 16 speedup".to_string());
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

/// Statistics folded over every run of an [`Outcome`].
#[derive(Debug, Default)]
pub struct Totals {
    /// Kernel dispatches per event kind.
    pub events: EventCounts,
    /// Memory-controller counters.
    pub mem: MemStats,
    /// Demand-read latency distribution.
    pub reads: LatencyHistogram,
    /// Fault-model counters (zero without a fault model).
    pub faults: FaultStats,
    /// Coding-layer counters (zero without a fault model).
    pub coding: CodingStats,
    /// Open-loop service counters (zero in closed loop).
    pub service: ServiceStats,
    /// Latest simulated end time over the runs, ps.
    pub end_ps: u64,
    /// Simulated time summed over the runs, ps.
    pub sim_ps: u64,
    /// Cores over all runs.
    pub cores: usize,
    /// Instructions retired over all cores.
    pub retired: u64,
    /// Sum of per-core IPC.
    pub ipc_sum: f64,
    /// Core time stalled on memory, ps.
    pub stall_ps: u64,
    /// Core execution windows summed, ps.
    pub core_ps: u64,
    /// Sum of metadata-cache hit ratios over the runs that have a cache.
    pub cache_hit_sum: f64,
    /// Runs that reported a metadata-cache hit ratio.
    pub cache_hit_runs: usize,
    /// FNW flips cancelled by the counting constraint.
    pub fnw_cancelled: u64,
    /// FNW flip opportunities.
    pub fnw_opportunities: u64,
    /// Trace records kept (traced runs only).
    pub trace_records: u64,
    /// Trace records dropped from the ring (traced runs only).
    pub trace_dropped: u64,
}

/// Simulated results of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Mean per-core IPC (0 without cores).
    pub ipc: f64,
    /// Mean data-write service time, ns.
    pub write_service_ns: f64,
    /// p99 demand-read latency, ns: the worst tenant's in open loop.
    pub p99_read_ns: f64,
    /// Fig. 16 average LADDER-Est speedup (0 but for the matrix).
    pub ladder_speedup: f64,
    /// Instructions retired over all cores.
    pub instructions: u64,
    /// Open-loop requests that arrived.
    pub requests: u64,
}

/// Mixes every public statistic of `r` into `h`.
fn hash_run(h: &mut Fnv, r: &RunResult) {
    let e = &r.events;
    h.words(&[
        e.core_wake,
        e.read_complete,
        e.ctrl_work_arrived,
        e.ctrl_bank_free,
        e.ctrl_queue_slot_free,
        e.ctrl_dep_ready,
        e.ctrl_mode_switch,
        e.ctrl_retry_pulse,
        e.request_arrival,
    ]);
    let m = &r.mem;
    h.words(&[
        m.demand_reads,
        m.demand_read_latency.as_ps(),
        m.smb_reads,
        m.metadata_reads,
        m.data_writes,
        m.metadata_writes,
        m.write_service_time.as_ps(),
        m.t_wr_data.as_ps(),
        m.t_wr_metadata.as_ps(),
        m.bits_set,
        m.bits_reset,
        m.drain_switches,
        m.wrq_peak as u64,
        m.spill_peak as u64,
        m.failed_verifies,
        m.retries_issued,
        m.retry_time.as_ps(),
        m.ecc_corrected_bits,
        m.uncorrectable_writes,
    ]);
    h.word(r.end.as_ps());
    for c in &r.cores {
        h.words(&[c.retired, c.finish.as_ps(), c.stall.as_ps()]);
    }
    if let Some(s) = &r.service {
        h.words(&[s.arrivals, s.reads_completed, s.writes_accepted, s.deferred]);
        for (_, g) in s.tenants.iter() {
            h.words(&[
                g.reads.count(),
                g.reads.mean().as_ps(),
                g.reads.max().as_ps(),
                g.writes,
            ]);
        }
    }
    if let Some(f) = &r.faults {
        h.words(&[
            f.data_writes,
            f.transient_bit_errors,
            f.stuck_cells,
            f.corrected_bits,
            f.uncorrectable_lines,
            f.data_loss_bits,
            f.retired_pages,
            f.retire_exhausted,
        ]);
    }
    if let Some(c) = &r.coding {
        h.words(&c.resolves)
            .words(&c.corrected_bits)
            .words(&c.uncorrectable)
            .words(&[c.remaps, c.wa_millionths]);
    }
}
