//! `--profile`: where host time goes, layer by layer.
//!
//! Every span is timed from the harness around calls into a layer's
//! public functions, so the program carries no instrumentation:
//!
//! * `xbar` — `ExperimentConfig::tables()`;
//! * `workloads` — draining each run's input streams (`trace_for` per
//!   core into `VecTrace` events, or a `ServiceGen` request stream);
//! * `core` — the run's write stream replayed through
//!   `LadderEngine::prepare_write` + `service_write`;
//! * `sim` — the live run, and what is left of it once generation and the
//!   engine are taken out (kernel, `cpu`, `memctrl`, non-engine policy);
//! * `trace` / `faults` — the same configs with tracing on, or with the
//!   fault model removed.
//!
//! Counts come from public result fields of the live run and are exact.

use crate::workloads::{Outcome, Setup, Workload, QUICK_DIV, REFERENCE_SEED};
use ladder_core::{LadderConfig, LadderEngine, LadderVariant};
use ladder_cpu::{MemEvent, TraceOp, VecTrace};
use ladder_reram::{AddressMap, Geometry, LineAddr, LineData, LineStore};
use ladder_sim::experiments::{trace_for, ExperimentConfig};
use ladder_sim::wallclock::{time, Stopwatch};
use ladder_sim::{run_sim, ArrivalKind, RunResult, Runner, Scheme, SimConfig, SystemBuilder};
use ladder_workloads::{ArrivalProcess, BurstyArrivals, PoissonArrivals, ServiceGen, TenantMix};
use std::hint::black_box;
use std::time::Duration;

/// One per-layer metric: name, unit, which direction is better, value.
pub type Metric = (&'static str, &'static str, &'static str, f64);

/// Instructions per core of the `sim.per_run_ms` construction probe.
const PER_RUN_INSTRUCTIONS: u64 = 1_000;

/// What one profile pass measured.
pub struct Pass {
    /// Host time of [`Workload::setup`].
    pub setup_time: Duration,
    /// Host time of the live (untraced) run.
    pub run_time: Duration,
    /// The live run.
    pub live: Outcome,
    /// Per-layer metrics, in a fixed order.
    pub metrics: Vec<Metric>,
    /// Checks that failed, empty when all passed.
    pub failures: Vec<String>,
}

/// One profile pass over `w`: every span once, every check once.
pub fn pass(w: Workload, seed: u64, div: u64, runner: &Runner) -> Pass {
    let (setup, setup_time) = time(|| w.setup(seed, div));
    let tables_t = setup.tables_time;
    let mut failures = Vec::new();

    let (live, run_t) = time(|| setup.run(runner));
    if let Err(e) = live.check(&setup) {
        failures.push(format!("live run: {e}"));
    }
    if seed == REFERENCE_SEED {
        let want = w.expected_fingerprint(div == QUICK_DIV);
        if live.fingerprint() != want {
            failures.push(format!(
                "fingerprint {:#018x} != committed {want:#018x}",
                live.fingerprint()
            ));
        }
    }

    // Generation, engine and (closed loop) replay, one config at a time
    // so only one run's streams are held at once.
    let mut gen = Span::default();
    let mut engine = Span::default();
    let mut engine_in_run = Duration::ZERO;
    let mut replayed = Vec::new();
    for cfg in &setup.configs {
        for streams in drain(cfg, &setup.ecfg, &mut gen) {
            let (variant, in_run) = engine_variant(cfg.scheme);
            let t = replay_engine(variant, &streams, &mut engine);
            if in_run {
                engine_in_run += t;
            }
            if w.is_closed_monolithic() {
                replayed.push(replay_run(cfg.scheme, &setup, streams));
            }
        }
    }
    if w.is_closed_monolithic()
        && Outcome::of(replayed).cells_fingerprint() != live.cells_fingerprint()
    {
        failures.push("replay over drained streams != live run".to_string());
    }

    let mut traced_cfgs = setup.configs.clone();
    for c in &mut traced_cfgs {
        c.trace = true;
    }
    let (traced, traced_t) = time(|| Outcome::of(setup.execute(&traced_cfgs, runner)));
    if traced.cells_fingerprint() != live.cells_fingerprint() {
        failures.push("traced run stats != untraced run stats".to_string());
    }
    // The matrix's live run rebuilds the tables inside `MainEval`; the
    // traced batch reuses the set-up ones.
    let tables_in_run = if w == Workload::MatrixQuick {
        tables_t
    } else {
        Duration::ZERO
    };
    let trace_overhead = ratio(traced_t, run_t.saturating_sub(tables_in_run)) - 1.0;

    let fault_overhead = if setup.configs.iter().any(|c| c.faults.is_some()) {
        let mut off = setup.configs.clone();
        for c in &mut off {
            c.faults = None;
        }
        let (_, off_t) = time(|| setup.execute(&off, runner));
        ratio(run_t, off_t) - 1.0
    } else {
        0.0
    };

    let per_run_ms = per_run_ms(&setup);

    let t = live.totals();
    let tr = traced.totals();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let other = run_t
        .saturating_sub(gen.time)
        .saturating_sub(engine_in_run)
        .saturating_sub(tables_in_run);
    let e = &t.events;
    let m = &t.mem;
    let metrics = vec![
        lower("xbar.tables_ms", "ms", ms(tables_t)),
        lower("sim.run_ms", "ms", ms(run_t)),
        lower("workloads.gen_ms", "ms", ms(gen.time)),
        count("workloads.ops", gen.ops),
        lower("workloads.gen_ns_per_op", "ns", gen.ns_per_op()),
        lower("workloads.gen_share", "frac", ratio(gen.time, run_t)),
        lower("core.engine_ms", "ms", ms(engine.time)),
        lower("core.engine_ns_per_write", "ns", engine.ns_per_op()),
        lower("core.engine_share", "frac", ratio(engine_in_run, run_t)),
        (
            "core.cache_hit_ratio",
            "frac",
            "higher",
            frac(t.cache_hit_sum, t.cache_hit_runs as f64),
        ),
        lower(
            "core.fnw_cancel_ratio",
            "frac",
            frac(t.fnw_cancelled as f64, t.fnw_opportunities as f64),
        ),
        lower("sim.other_ms", "ms", ms(other)),
        lower(
            "sim.other_ns_per_event",
            "ns",
            frac(other.as_secs_f64() * 1e9, e.total() as f64),
        ),
        lower("sim.per_run_ms", "ms", per_run_ms),
        count("sim.events", e.total()),
        count("sim.events.core_wake", e.core_wake),
        count("sim.events.read_complete", e.read_complete),
        count("sim.events.ctrl_work_arrived", e.ctrl_work_arrived),
        count("sim.events.ctrl_bank_free", e.ctrl_bank_free),
        count("sim.events.ctrl_queue_slot_free", e.ctrl_queue_slot_free),
        count("sim.events.ctrl_dep_ready", e.ctrl_dep_ready),
        count("sim.events.ctrl_mode_switch", e.ctrl_mode_switch),
        count("sim.events.ctrl_retry_pulse", e.ctrl_retry_pulse),
        count("sim.events.request_arrival", e.request_arrival),
        lower("sim.sim_time_us", "us", t.sim_ps as f64 / 1e6),
        count("memctrl.data_writes", m.data_writes),
        count("memctrl.demand_reads", m.demand_reads),
        count("memctrl.metadata_reads", m.metadata_reads),
        count("memctrl.smb_reads", m.smb_reads),
        count("memctrl.metadata_writes", m.metadata_writes),
        count("memctrl.drain_switches", m.drain_switches),
        count("memctrl.wrq_peak", m.wrq_peak as u64),
        count("memctrl.spill_peak", m.spill_peak as u64),
        lower(
            "memctrl.metadata_traffic_ratio",
            "frac",
            frac(
                (m.metadata_reads + m.metadata_writes + m.smb_reads) as f64,
                (m.demand_reads + m.data_writes) as f64,
            ),
        ),
        (
            "service.arrivals",
            "count",
            "higher",
            t.service.arrivals as f64,
        ),
        lower(
            "service.deferred_frac",
            "frac",
            frac(t.service.deferred as f64, t.service.arrivals as f64),
        ),
        lower(
            "cpu.stall_frac",
            "frac",
            frac(t.stall_ps as f64, t.core_ps as f64),
        ),
        lower("faults.overhead_frac", "frac", fault_overhead),
        count("faults.failed_verifies", m.failed_verifies),
        count("faults.retries_issued", m.retries_issued),
        lower(
            "faults.retry_time_frac",
            "frac",
            frac(m.retry_time.as_ps() as f64, t.sim_ps as f64),
        ),
        count("faults.corrected_bits", t.faults.corrected_bits),
        count("faults.uncorrectable_lines", t.faults.uncorrectable_lines),
        lower(
            "coding.write_amplification",
            "frac",
            t.coding.write_amplification(),
        ),
        count("coding.uncorrectable", t.coding.total_uncorrectable()),
        count("coding.remaps", t.coding.remaps),
        lower("trace.overhead_frac", "frac", trace_overhead),
        count("trace.records", tr.trace_records),
        count("trace.dropped", tr.trace_dropped),
    ];
    Pass {
        setup_time,
        run_time: run_t,
        live,
        metrics,
        failures,
    }
}

/// Accumulated host time and operation count of one layer.
#[derive(Debug, Default)]
struct Span {
    time: Duration,
    ops: u64,
}

impl Span {
    fn ns_per_op(&self) -> f64 {
        frac(self.time.as_secs_f64() * 1e9, self.ops as f64)
    }
}

/// A metric where lower is better.
fn lower(name: &'static str, unit: &'static str, value: f64) -> Metric {
    (name, unit, "lower", value)
}

/// A count of work, where less is better.
fn count(name: &'static str, n: u64) -> Metric {
    (name, "count", "lower", n as f64)
}

/// `a / b`, or 0 when there is nothing to divide by.
fn frac(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ratio(a: Duration, b: Duration) -> f64 {
    frac(a.as_secs_f64(), b.as_secs_f64())
}

/// The input streams of one simulated controller: one per core, or the
/// open-loop request stream.
enum Streams {
    Cores(Vec<CoreStream>),
    Requests(Vec<ladder_workloads::ServiceRequest>),
}

struct CoreStream {
    label: String,
    mlp: usize,
    events: Vec<MemEvent>,
}

impl Streams {
    fn writes(&self) -> Vec<(LineAddr, &LineData)> {
        let ops: Vec<Vec<&TraceOp>> = match self {
            Streams::Cores(cores) => cores
                .iter()
                .map(|c| c.events.iter().map(|e| &e.op).collect())
                .collect(),
            Streams::Requests(reqs) => vec![reqs.iter().map(|r| &r.op).collect()],
        };
        // Interleave the cores round-robin, roughly as they reach the
        // controller.
        let longest = ops.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| ops.iter().filter_map(move |core| core.get(i)))
            .filter_map(|op| match op {
                TraceOp::Write { addr, data } => Some((*addr, &**data)),
                TraceOp::Read { .. } => None,
            })
            .collect()
    }
}

/// Drains the input streams `cfg` consumes, timing only the draining.
///
/// A sharded run's shards salt their workload seeds internally; the
/// harness drains one stream set per shard from the same generators with
/// per-shard harness seeds, which costs the same. The service stream is
/// built from the public `ladder_workloads::service` API with the run's
/// config and a harness seed.
fn drain(cfg: &SimConfig, ecfg: &ExperimentConfig, gen: &mut Span) -> Vec<Streams> {
    (0..cfg.shards() as u64)
        .map(|shard| {
            let seed = ecfg.seed.wrapping_add(shard);
            if let Some(s) = cfg.service {
                let pages = Geometry::default().pages() as u64;
                let mix = TenantMix::standard(
                    s.tenants,
                    pages / 16,
                    pages - pages / 16,
                    s.zipf_theta,
                    s.read_fraction,
                );
                let arrivals: Box<dyn ArrivalProcess> = match s.arrival {
                    ArrivalKind::Poisson => Box::new(PoissonArrivals::with_load(s.load)),
                    ArrivalKind::Bursty => Box::new(BurstyArrivals::with_load(s.load)),
                };
                let sw = Stopwatch::start();
                let mut g = ServiceGen::new(arrivals, mix, seed, s.requests);
                let reqs: Vec<_> = std::iter::from_fn(|| g.next_request()).collect();
                gen.time += sw.elapsed();
                gen.ops += reqs.len() as u64;
                return Streams::Requests(reqs);
            }
            let shard_ecfg = ExperimentConfig {
                seed,
                ..ecfg.clone()
            };
            let cores = cfg
                .workload
                .members()
                .into_iter()
                .enumerate()
                .map(|(core, bench)| {
                    let sw = Stopwatch::start();
                    let (mut t, mlp) = trace_for(bench, core, &shard_ecfg);
                    let events: Vec<MemEvent> = std::iter::from_fn(|| t.next_event()).collect();
                    gen.time += sw.elapsed();
                    gen.ops += events.len() as u64;
                    CoreStream {
                        label: t.label().to_string(),
                        mlp,
                        events,
                    }
                })
                .collect();
            Streams::Cores(cores)
        })
        .collect()
}

/// The engine variant a scheme runs, and whether the engine is part of
/// the run at all. Schemes without one replay through LADDER-Hybrid as a
/// control: that time is reported but is not a share of their run.
fn engine_variant(scheme: Scheme) -> (LadderVariant, bool) {
    match scheme {
        Scheme::LadderBasic => (LadderVariant::Basic, true),
        Scheme::LadderEst => (LadderVariant::Est, true),
        Scheme::LadderHybrid => (LadderVariant::Hybrid, true),
        _ => (LadderVariant::Hybrid, false),
    }
}

/// Replays the write stream of `streams` through a fresh engine, timing
/// only the engine calls. Returns the time this replay took.
fn replay_engine(variant: LadderVariant, streams: &Streams, span: &mut Span) -> Duration {
    let writes = streams.writes();
    let mut engine = LadderEngine::new(
        LadderConfig::for_variant(variant),
        AddressMap::new(Geometry::default()),
    );
    let mut store = LineStore::new();
    let sw = Stopwatch::start();
    for &(addr, data) in &writes {
        // Each write is serviced before the next is prepared, so the
        // metadata set never fills with pinned lines and nothing spills.
        if !engine.prepare_write(addr).spilled {
            black_box(engine.service_write(addr, *data, &mut store).cw_lrs);
        }
    }
    let t = sw.elapsed();
    span.time += t;
    span.ops += writes.len() as u64;
    t
}

/// Runs a closed-loop config over pre-drained per-core streams through
/// the public `SystemBuilder` (monolithic, default options).
fn replay_run(scheme: Scheme, setup: &Setup, streams: Streams) -> RunResult {
    let mut b = SystemBuilder::with_tables(scheme, &setup.tables);
    if let Streams::Cores(cores) = streams {
        for c in cores {
            b.core(Box::new(VecTrace::new(c.label, c.events)), c.mlp);
        }
    }
    b.run()
}

/// Mean `run_sim` time of the matrix's cells at a tiny budget: almost
/// all construction and teardown.
fn per_run_ms(setup: &Setup) -> f64 {
    let ecfg = ExperimentConfig {
        instructions_per_core: PER_RUN_INSTRUCTIONS,
        ..setup.ecfg.clone()
    };
    let configs = Workload::MatrixQuick.configs(&ecfg, 1);
    let sw = Stopwatch::start();
    for cfg in &configs {
        black_box(run_sim(cfg, &ecfg, &setup.tables).end);
    }
    sw.elapsed_secs() * 1e3 / configs.len().max(1) as f64
}
