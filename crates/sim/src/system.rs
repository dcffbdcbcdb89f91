//! The full-system simulator: cores, memory controller, optional
//! wear-leveling, and the discrete-event kernel connecting them.
//!
//! Simulated time advances only by popping the next scheduled event from a
//! single [`EventQueue`] — there is no polling loop, no fixed time step and
//! no fallback "nudge". Every component registers the precise instants at
//! which it can next make progress: cores post the end of their compute
//! phases, the controller registers bank frees, queue-slot frees, mode
//! switches and dependency completions ([`CtrlWake`]), and demand-read
//! data bursts are delivered to their cores at their exact completion
//! times.

use crate::scheme::Scheme;
use crate::service::ServiceStats;
use ladder_coding::{CodingKind, CodingStats};
use ladder_core::LadderConfig;
use ladder_cpu::{Core, CoreAction, CoreConfig, TraceOp, TraceSource};
use ladder_energy::{EnergyBreakdown, EnergyMeter, EnergyParams};
use ladder_faults::{CellFaultModel, FaultConfig, FaultStats, SharedCellFaultModel};
use ladder_memctrl::{
    CtrlWake, LatencyHistogram, MemCtrlConfig, MemStats, MemoryController, ReqId, Tables,
};
use ladder_reram::{
    AddressMap, EventQueue, Geometry, Instant, Interleave, LineAddr, LineData, Picos,
};
use ladder_trace::{DispatchKind, Mergeable, TenantGroup, Trace, TraceRecord, TraceRecorder};
use ladder_wear::{
    RemapBackend, RemapKind, RotateHwl, SharedPadRemapper, SharedRetirePool, SharedWearMap,
    WearLeveler,
};
use ladder_workloads::service::ServiceGen;
use ladder_xbar::{CrossbarParams, TimingTable};
use std::collections::VecDeque;

/// Per-core outcome of a run.
#[derive(Debug, Clone)]
pub struct CoreResult {
    /// Workload label.
    pub label: String,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions per cycle over the core's own execution window.
    pub ipc: f64,
    /// When the core finished.
    pub finish: Instant,
    /// Time the core spent stalled on memory.
    pub stall: Picos,
}

/// Outcome of one system run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme that was active.
    pub scheme: Scheme,
    /// Per-core results (inactive cores omitted).
    pub cores: Vec<CoreResult>,
    /// Memory-controller statistics.
    pub mem: MemStats,
    /// Dynamic energy breakdown.
    pub energy: EnergyBreakdown,
    /// Final simulated time (after the closing drain).
    pub end: Instant,
    /// Metadata-cache hit ratio (LADDER schemes).
    pub cache_hit: Option<f64>,
    /// `(flips cancelled, flip opportunities)` under constrained FNW
    /// (LADDER schemes).
    pub fnw: Option<(u64, u64)>,
    /// Distribution of demand-read latencies.
    pub read_histogram: LatencyHistogram,
    /// Wear map, when wear tracking was requested.
    pub wear: Option<SharedWearMap>,
    /// Fault-model counters, when fault injection was requested.
    pub faults: Option<FaultStats>,
    /// Coding-layer counters (per-tier resolves, remaps, parity write
    /// amplification), when fault injection was requested.
    pub coding: Option<CodingStats>,
    /// Per-[`EventKind`](EventCounts) dispatch counters of the event
    /// kernel that drove this run.
    pub events: EventCounts,
    /// The assembled structured trace, when tracing was requested
    /// ([`SystemBuilder::tracing`]).
    pub trace: Option<Trace>,
    /// Open-loop service statistics, when a service stream drove the run
    /// ([`SystemBuilder::service`]).
    pub service: Option<ServiceStats>,
}

impl RunResult {
    /// IPC of core 0 (the single-programmed metric).
    pub fn ipc0(&self) -> f64 {
        self.cores.first().map(|c| c.ipc).unwrap_or(0.0)
    }

    /// Kernel events dispatched per simulated second — the event kernel's
    /// efficiency metric (a polled loop revisits every component at every
    /// instant; the kernel touches only what is scheduled).
    pub fn events_per_sim_second(&self) -> f64 {
        let secs = self.end.as_ps() as f64 * 1e-12;
        if secs == 0.0 {
            0.0
        } else {
            self.events.total() as f64 / secs
        }
    }

    /// Renders a human-readable report of everything this run measured.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scheme: {}", self.scheme.name());
        for (i, c) in self.cores.iter().enumerate() {
            let _ = writeln!(
                out,
                "  core {i} ({}): {} instructions, IPC {:.3}, stalled {:.1} us",
                c.label,
                c.retired,
                c.ipc,
                c.stall.as_ns() / 1000.0
            );
        }
        let m = &self.mem;
        let _ = writeln!(
            out,
            "  reads: {} demand (avg {:.1} ns, P95 {:.1}, P99 {:.1}), {} SMB, {} metadata",
            m.demand_reads,
            m.avg_read_latency().as_ns(),
            self.read_histogram.percentile(0.95).as_ns(),
            self.read_histogram.percentile(0.99).as_ns(),
            m.smb_reads,
            m.metadata_reads
        );
        let _ = writeln!(
            out,
            "  writes: {} data (avg service {:.1} ns), {} metadata, {} drain switches",
            m.data_writes,
            m.avg_write_service().as_ns(),
            m.metadata_writes,
            m.drain_switches
        );
        let _ = writeln!(
            out,
            "  cells switched: {} set, {} reset",
            m.bits_set, m.bits_reset
        );
        let _ = writeln!(
            out,
            "  energy: {:.1} nJ read + {:.1} nJ write",
            self.energy.read_pj / 1000.0,
            self.energy.write_pj / 1000.0
        );
        if let Some(hit) = self.cache_hit {
            let _ = writeln!(out, "  metadata cache hit ratio: {hit:.3}");
        }
        if let Some((cancelled, opportunities)) = self.fnw {
            if opportunities > 0 {
                let _ = writeln!(
                    out,
                    "  FNW: {cancelled}/{opportunities} flips cancelled by the constraint"
                );
            }
        }
        if let Some(f) = self.faults {
            // Only report when the model actually did something, so an
            // inert (rate-0) run renders identically to a no-fault run.
            if f.transient_bit_errors + f.stuck_cells + f.corrected_bits + f.uncorrectable_lines > 0
            {
                let _ = writeln!(out, "  {}", f.summary());
                let _ = writeln!(
                    out,
                    "  P&V: {} failed verifies, {} retries ({:.1} us of retry pulses)",
                    m.failed_verifies,
                    m.retries_issued,
                    m.retry_time.as_ns() / 1000.0
                );
            }
        }
        if let Some(c) = self.coding {
            // Tiered resolves only happen under a non-default scheme, so
            // legacy (flat-ECC) fault runs render identically to before.
            if c.resolves[1..].iter().sum::<u64>() > 0 {
                let _ = writeln!(out, "  {}", c.summary());
            }
        }
        let _ = writeln!(
            out,
            "  simulated time: {:.1} us",
            self.end.as_ps() as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  kernel: {} events dispatched ({:.0} per simulated second)",
            self.events.total(),
            self.events_per_sim_second()
        );
        out
    }

    /// Mean write service time.
    pub fn avg_write_service(&self) -> Picos {
        self.mem.avg_write_service()
    }

    /// Mean demand read latency.
    pub fn avg_read_latency(&self) -> Picos {
        self.mem.avg_read_latency()
    }
}

/// Everything needed to run one configuration.
pub struct SystemBuilder {
    geometry: Geometry,
    interleave: Interleave,
    shard: Option<u32>,
    mem_cfg: MemCtrlConfig,
    ladder_table: TimingTable,
    blp_table: TimingTable,
    scheme: Scheme,
    traces: Vec<Box<dyn TraceSource>>,
    core_mlps: Vec<usize>,
    track_wear: bool,
    leveler: Option<Box<dyn WearLeveler>>,
    hwl: Option<RotateHwl>,
    ladder_override: Option<LadderConfig>,
    fault_cfg: Option<FaultConfig>,
    coding: CodingKind,
    remap_kind: RemapKind,
    tracing: bool,
    service: Option<ServiceGen>,
}

impl SystemBuilder {
    /// Starts a builder for `scheme`, cloning both tables out of a shared
    /// [`Tables`] bundle.
    pub fn with_tables(scheme: Scheme, tables: &Tables) -> Self {
        Self::new(scheme, tables.ladder.clone(), tables.blp.clone())
    }

    /// Starts a builder for `scheme` over shared timing tables.
    pub fn new(scheme: Scheme, ladder_table: TimingTable, blp_table: TimingTable) -> Self {
        Self {
            geometry: Geometry::default(),
            interleave: Interleave::Channel,
            shard: None,
            mem_cfg: MemCtrlConfig::default(),
            ladder_table,
            blp_table,
            scheme,
            traces: Vec::new(),
            core_mlps: Vec::new(),
            track_wear: false,
            leveler: None,
            hwl: None,
            ladder_override: None,
            fault_cfg: None,
            coding: CodingKind::Flat,
            remap_kind: RemapKind::Retire,
            tracing: false,
            service: None,
        }
    }

    /// Overrides the module geometry (default: [`Geometry::default`]).
    /// The sharded runner uses this to hand each shard its one-channel
    /// slice of the topology.
    pub fn geometry(&mut self, g: Geometry) -> &mut Self {
        self.geometry = g;
        self
    }

    /// Sets the address striping policy (default: the legacy
    /// channel-fastest order, which golden traces depend on).
    pub fn interleave(&mut self, interleave: Interleave) -> &mut Self {
        self.interleave = interleave;
        self
    }

    /// Stamps this run as shard `index` of a sharded topology: when
    /// tracing, the kernel emits a [`TraceRecord::ShardTag`] at `t = 0`
    /// so each shard's digest is bound to its identity.
    pub fn shard(&mut self, index: u32) -> &mut Self {
        self.shard = Some(index);
        self
    }

    /// Enables structured tracing: the kernel and the controller each get
    /// an enabled [`TraceRecorder`], and the run's [`RunResult::trace`]
    /// carries the assembled [`Trace`]. Off by default (the disabled
    /// recorders cost one branch per record site).
    pub fn tracing(&mut self, on: bool) -> &mut Self {
        self.tracing = on;
        self
    }

    /// Adds a core running `trace` with the given MLP.
    pub fn core(&mut self, trace: Box<dyn TraceSource>, mlp: usize) -> &mut Self {
        self.traces.push(trace);
        self.core_mlps.push(mlp);
        self
    }

    /// Installs an open-loop service stream: the kernel pumps timestamped
    /// `RequestArrival` events from `gen` instead of (or alongside)
    /// back-pressure-driven cores, and the run's
    /// [`RunResult::service`] carries per-tenant latency statistics.
    pub fn service(&mut self, gen: ServiceGen) -> &mut Self {
        self.service = Some(gen);
        self
    }

    /// Overrides the LADDER engine configuration (cache geometry,
    /// shifting, FNW policy, low-precision rows) for ablation studies;
    /// ignored by non-LADDER schemes.
    pub fn ladder_config(&mut self, cfg: LadderConfig) -> &mut Self {
        self.ladder_override = Some(cfg);
        self
    }

    /// Overrides the memory-controller configuration (queue depths, drain
    /// watermarks).
    pub fn mem_config(&mut self, cfg: MemCtrlConfig) -> &mut Self {
        self.mem_cfg = cfg;
        self
    }

    /// Enables wear tracking.
    pub fn track_wear(&mut self, on: bool) -> &mut Self {
        self.track_wear = on;
        self
    }

    /// Installs a vertical wear-leveler (applied before LADDER).
    pub fn leveler(&mut self, l: Box<dyn WearLeveler>) -> &mut Self {
        self.leveler = Some(l);
        self
    }

    /// Installs horizontal wear-leveling (intra-line byte rotation).
    pub fn horizontal_leveling(&mut self, on: bool) -> &mut Self {
        self.hwl = if on { Some(RotateHwl::new()) } else { None };
        self
    }

    /// Installs the device fault model: stuck-at and transient write
    /// failures, program-and-verify retries in the controller, and
    /// ECC/retire recovery. An inert (all-zero-rate) config leaves the run
    /// bit-identical to one without this call.
    pub fn faults(&mut self, cfg: FaultConfig) -> &mut Self {
        self.fault_cfg = Some(cfg);
        self
    }

    /// Selects the code scheme the fault model resolves residues with.
    /// The default, [`CodingKind::Flat`], reproduces the legacy flat
    /// SEC-DED budget bit-for-bit. No effect without [`Self::faults`].
    pub fn coding(&mut self, kind: CodingKind) -> &mut Self {
        self.coding = kind;
        self
    }

    /// Selects the remap backend absorbing faulty pages. The default,
    /// [`RemapKind::Retire`], reproduces the legacy one-way retirement
    /// pool bit-for-bit. No effect without [`Self::faults`].
    pub fn remap(&mut self, kind: RemapKind) -> &mut Self {
        self.remap_kind = kind;
        self
    }

    /// Spare frames for fault-driven page retirement: a slice of the
    /// reserved low-page region (below the workload windows at
    /// `pages/16`, above the metadata pages at the bottom).
    fn spare_frames(geometry: &Geometry) -> Vec<u64> {
        let reserve_base = geometry.pages() as u64 / 32;
        (reserve_base..reserve_base + 2048).collect()
    }

    /// Runs the configured system to completion.
    ///
    /// # Panics
    ///
    /// Panics if neither cores nor a service stream were added.
    pub fn run(self) -> RunResult {
        assert!(
            !self.traces.is_empty() || self.service.is_some(),
            "at least one core or a service stream required"
        );
        let map = AddressMap::with_interleave(self.geometry.clone(), self.interleave);
        let policy = self.scheme.build_policy(
            &CrossbarParams::default(),
            &self.ladder_table,
            &self.blp_table,
            &map,
            self.ladder_override,
        );
        let mut mc = MemoryController::new(self.mem_cfg, map, policy);
        let wear = if self.track_wear {
            let shared = SharedWearMap::new();
            mc.set_observer(shared.clone());
            Some(shared)
        } else {
            None
        };
        // The fault model always samples against the physical LADDER table
        // (it describes the device, not the active policy), so every scheme
        // faces identical raw fault pressure.
        let coding_kind = self.coding;
        let remap_kind = self.remap_kind;
        let fault_model = self.fault_cfg.map(|fcfg| {
            let frames = Self::spare_frames(&self.geometry);
            let backend = match remap_kind {
                RemapKind::Retire => RemapBackend::Retire(SharedRetirePool::with_spares(frames)),
                // Same wear-rotation cadence as the segment VWL leveler.
                RemapKind::Pad => RemapBackend::Pad(SharedPadRemapper::new(frames, 100_000)),
            };
            let model = CellFaultModel::new(
                fcfg,
                self.ladder_table.clone(),
                AddressMap::with_interleave(self.geometry.clone(), self.interleave),
            )
            .with_coding(coding_kind)
            .with_remap_backend(backend.clone());
            let shared = SharedCellFaultModel::new(model);
            mc.set_fault_injector(shared.clone());
            (shared, backend)
        });
        let mut cores: Vec<Core> = self
            .traces
            .into_iter()
            .zip(&self.core_mlps)
            .map(|(t, &mlp)| {
                let cfg = CoreConfig {
                    mlp,
                    ..CoreConfig::default()
                };
                Core::new(cfg, t)
            })
            .collect();

        let service = self.service.map(|gen| {
            // Every tenant gets a group up front, so idle tenants still
            // appear in the folded report.
            let tenants = gen
                .mix()
                .tenants()
                .iter()
                .map(|t| TenantGroup {
                    weight_ppm: (t.weight * 1e6) as u64,
                    qos_code: t.qos.code(),
                    ..TenantGroup::default()
                })
                .collect();
            Box::new(ServiceState {
                gen,
                next: None,
                pending: VecDeque::new(),
                inflight: Vec::new(),
                tenants,
                stats: ServiceStats::default(),
            })
        });
        let mut sim = EventKernel {
            mc,
            leveler: self.leveler,
            remap: fault_model.as_ref().map(|(_, backend)| backend.clone()),
            hwl: self.hwl,
            pending_reads: Vec::new(),
            pending_migrations: VecDeque::new(),
            core_finish: vec![None; cores.len()],
            events: EventQueue::new(),
            core_wake: vec![None; cores.len()],
            waiting: vec![false; cores.len()],
            last_process: None,
            ctrl_dirty: false,
            counts: EventCounts::default(),
            recorder: if self.tracing {
                TraceRecorder::enabled()
            } else {
                TraceRecorder::disabled()
            },
            service,
        };
        if self.tracing {
            sim.mc.set_trace_recorder(TraceRecorder::enabled());
        }
        if let Some(shard) = self.shard {
            // Bind the shard identity into the trace stream (and hence
            // the digest) before any kernel event fires. A no-op unless
            // tracing is on.
            sim.recorder
                .record(Instant::ZERO, TraceRecord::ShardTag { shard });
        }
        let end = sim.run(&mut cores);

        let core_results: Vec<CoreResult> = cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let finish = sim.core_finish[i].unwrap_or(end);
                CoreResult {
                    label: c.label().to_string(),
                    retired: c.retired_instructions(),
                    ipc: c.ipc(finish),
                    finish,
                    stall: c.stall_time(),
                }
            })
            .collect();

        let trace = if self.tracing {
            let kernel_rec = std::mem::replace(&mut sim.recorder, TraceRecorder::disabled());
            let mc_rec = sim.mc.take_trace_recorder();
            Some(Trace::assemble(vec![
                ("kernel", kernel_rec),
                ("memctrl", mc_rec),
            ]))
        } else {
            None
        };

        let mem = sim.mc.stats();
        let mut meter = EnergyMeter::new(EnergyParams::default());
        meter.record_reads(mem.demand_reads + mem.smb_reads + mem.metadata_reads);
        meter.record_write_aggregate(
            mem.t_wr_data + mem.t_wr_metadata,
            mem.bits_set + mem.bits_reset,
            mem.data_writes + mem.metadata_writes,
        );
        RunResult {
            scheme: self.scheme,
            cores: core_results,
            mem,
            energy: meter.breakdown(),
            end,
            cache_hit: sim.mc.policy().cache_hit_ratio(),
            fnw: sim.mc.policy().fnw_stats(),
            read_histogram: sim.mc.read_histogram().clone(),
            wear,
            coding: fault_model
                .as_ref()
                .map(|(shared, _)| shared.coding_stats()),
            faults: fault_model.map(|(shared, _)| shared.stats()),
            events: sim.counts,
            trace,
            service: sim.service.map(|svc| svc.into_stats()),
        }
    }
}

/// What a scheduled kernel event means when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A core's compute phase ends and its next memory op is due.
    CoreWake(usize),
    /// A demand read's data burst finishes; deliver it to its core.
    ReadComplete(ReqId),
    /// A controller-registered wake (see [`CtrlWake`]).
    Ctrl(CtrlWake),
    /// The open-loop service stream's next request arrives. Exactly one
    /// is in flight at a time; dispatching it pumps the next.
    Arrival,
}

/// Per-event-kind dispatch counters for one run of the event kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Core compute phases ending.
    pub core_wake: u64,
    /// Demand-read completions delivered to cores.
    pub read_complete: u64,
    /// Controller wakes: new work arrived in a queue.
    pub ctrl_work_arrived: u64,
    /// Controller wakes: a bank finished its operation.
    pub ctrl_bank_free: u64,
    /// Controller wakes: a write-queue slot freed.
    pub ctrl_queue_slot_free: u64,
    /// Controller wakes: a queued write's last dependency read completed.
    pub ctrl_dep_ready: u64,
    /// Controller wakes: a channel switched read/write-drain mode.
    pub ctrl_mode_switch: u64,
    /// Controller wakes: a program-and-verify retry pulse fired.
    pub ctrl_retry_pulse: u64,
    /// Open-loop service requests arriving (service mode only; always
    /// zero on the closed-loop path).
    pub request_arrival: u64,
}

impl EventCounts {
    /// Total events dispatched.
    pub fn total(&self) -> u64 {
        self.core_wake
            + self.read_complete
            + self.ctrl_work_arrived
            + self.ctrl_bank_free
            + self.ctrl_queue_slot_free
            + self.ctrl_dep_ready
            + self.ctrl_mode_switch
            + self.ctrl_retry_pulse
            + self.request_arrival
    }

    fn count(&mut self, ev: EventKind) {
        match ev {
            EventKind::CoreWake(_) => self.core_wake += 1,
            EventKind::ReadComplete(_) => self.read_complete += 1,
            EventKind::Ctrl(CtrlWake::WorkArrived) => self.ctrl_work_arrived += 1,
            EventKind::Ctrl(CtrlWake::BankFree) => self.ctrl_bank_free += 1,
            EventKind::Ctrl(CtrlWake::QueueSlotFree) => self.ctrl_queue_slot_free += 1,
            EventKind::Ctrl(CtrlWake::DepReady) => self.ctrl_dep_ready += 1,
            EventKind::Ctrl(CtrlWake::ModeSwitch) => self.ctrl_mode_switch += 1,
            EventKind::Ctrl(CtrlWake::RetryPulse) => self.ctrl_retry_pulse += 1,
            EventKind::Arrival => self.request_arrival += 1,
        }
    }
}

/// Accumulates another run's counters into this one. No `..` in the
/// pattern, so a new counter fails to compile until it is folded here.
impl Mergeable for EventCounts {
    fn merge_from(&mut self, other: &Self) {
        let EventCounts {
            core_wake,
            read_complete,
            ctrl_work_arrived,
            ctrl_bank_free,
            ctrl_queue_slot_free,
            ctrl_dep_ready,
            ctrl_mode_switch,
            ctrl_retry_pulse,
            request_arrival,
        } = other;
        self.core_wake.merge_from(core_wake);
        self.read_complete.merge_from(read_complete);
        self.ctrl_work_arrived.merge_from(ctrl_work_arrived);
        self.ctrl_bank_free.merge_from(ctrl_bank_free);
        self.ctrl_queue_slot_free.merge_from(ctrl_queue_slot_free);
        self.ctrl_dep_ready.merge_from(ctrl_dep_ready);
        self.ctrl_mode_switch.merge_from(ctrl_mode_switch);
        self.ctrl_retry_pulse.merge_from(ctrl_retry_pulse);
        self.request_arrival.merge_from(request_arrival);
    }
}

/// The trace-record dispatch kind for a kernel event.
fn dispatch_kind(ev: EventKind) -> DispatchKind {
    match ev {
        EventKind::CoreWake(_) => DispatchKind::CoreWake,
        EventKind::ReadComplete(_) => DispatchKind::ReadComplete,
        EventKind::Ctrl(CtrlWake::WorkArrived) => DispatchKind::CtrlWorkArrived,
        EventKind::Ctrl(CtrlWake::BankFree) => DispatchKind::CtrlBankFree,
        EventKind::Ctrl(CtrlWake::QueueSlotFree) => DispatchKind::CtrlQueueSlotFree,
        EventKind::Ctrl(CtrlWake::DepReady) => DispatchKind::CtrlDepReady,
        EventKind::Ctrl(CtrlWake::ModeSwitch) => DispatchKind::CtrlModeSwitch,
        EventKind::Ctrl(CtrlWake::RetryPulse) => DispatchKind::CtrlRetryPulse,
        EventKind::Arrival => DispatchKind::RequestArrival,
    }
}

/// The discrete-event kernel tying cores, controller and wear-leveling
/// together.
///
/// Time advances only from event to event: the pump pops the earliest
/// scheduled `(Instant, EventKind)` (FIFO among ties, so runs are
/// deterministic), dispatches it, absorbs any wakes the dispatch
/// registered, and repeats until the queue is empty — at which point every
/// core must have finished. There is no time nudge and no iteration guard:
/// a component that cannot make progress without an external state change
/// simply has no event scheduled, and the state change that unblocks it
/// schedules one.
struct EventKernel {
    mc: MemoryController,
    leveler: Option<Box<dyn WearLeveler>>,
    /// Fault-driven page remapping (retirement chains or PAD decoder
    /// swaps), applied after the primary leveler (both remap physical
    /// pages; the fault backend wins last).
    remap: Option<RemapBackend>,
    hwl: Option<RotateHwl>,
    /// Outstanding core reads, `(request id, core index)`: at most the
    /// sum of the cores' MLP, so a linear scan beats any map.
    pending_reads: Vec<(u64, usize)>,
    pending_migrations: VecDeque<LineAddr>,
    core_finish: Vec<Option<Instant>>,
    events: EventQueue<EventKind>,
    /// Earliest pending [`EventKind::CoreWake`] per core, for dedup.
    core_wake: Vec<Option<Instant>>,
    /// Cores whose last drive ended blocked on the controller (rejected
    /// request, full MSHRs or a critical read); re-driven after each
    /// controller dispatch.
    waiting: Vec<bool>,
    /// Instant of the most recent `MemoryController::process` call, for
    /// coalescing same-instant controller wakes into one dispatch.
    last_process: Option<Instant>,
    /// Whether kernel-side enqueues happened since `last_process`.
    ctrl_dirty: bool,
    counts: EventCounts,
    recorder: TraceRecorder,
    /// Open-loop service mode, when a service stream drives the run.
    /// Boxed so `drain_service` can take it out of the kernel and put it
    /// back by moving a pointer.
    service: Option<Box<ServiceState>>,
}

/// Kernel-side state of the open-loop service stream.
///
/// Arrivals are pumped one at a time: the next request is drawn from the
/// generator, held in `next`, and scheduled as an [`EventKind::Arrival`]
/// at its timestamp. Requests the controller cannot accept yet wait in
/// `pending` — that queue is the open-loop difference: it keeps filling
/// at arrival rate while the banks are busy, and each read's latency runs
/// from its *arrival*, not from controller acceptance.
struct ServiceState {
    gen: ServiceGen,
    /// The drawn-but-not-yet-dispatched next arrival.
    next: Option<ladder_workloads::service::ServiceRequest>,
    /// Arrived requests the controller has not accepted yet, FIFO, as
    /// `(arrival instant, tenant index, operation)`.
    pending: VecDeque<(Instant, usize, TraceOp)>,
    /// Accepted reads awaiting completion, `(request id, (tenant index,
    /// arrival instant))`: only those queued in or issued by the
    /// controller, so a linear scan stays short.
    inflight: Vec<(u64, (usize, Instant))>,
    /// Per-tenant latency groups, by tenant index; folded into
    /// `stats.tenants` by name when the run ends.
    tenants: Vec<TenantGroup>,
    stats: ServiceStats,
}

impl ServiceState {
    /// The run's statistics, with the per-tenant groups folded in under
    /// their tenant names.
    fn into_stats(mut self) -> ServiceStats {
        for (t, group) in self.gen.mix().tenants().iter().zip(&self.tenants) {
            self.stats.tenants.merge_group(&t.name, group);
        }
        self.stats
    }
}

/// Removes and returns the entry of `list` whose first field is `id`.
fn take_by_id<T: Copy>(list: &mut Vec<(u64, T)>, id: u64) -> Option<T> {
    let i = list.iter().position(|e| e.0 == id)?;
    Some(list.swap_remove(i).1)
}

impl EventKernel {
    fn map_addr(&self, logical: LineAddr) -> LineAddr {
        let leveled = match &self.leveler {
            Some(l) => l.map(logical),
            None => logical,
        };
        match &self.remap {
            Some(backend) => backend.map(leveled),
            None => leveled,
        }
    }

    /// Offers a demand read of logical `addr` to the controller, mapped
    /// through the leveling and remap layers.
    fn admit_read(&mut self, addr: LineAddr, now: Instant) -> Option<ReqId> {
        let phys = self.map_addr(addr);
        let id = self.mc.enqueue_read(phys, now)?;
        self.ctrl_dirty = true;
        Some(id)
    }

    /// Offers a write of logical `addr` to the controller: rotates the
    /// data (horizontal leveling), notes the write with the leveler and
    /// the remap backend, maps the address and enqueues it. On acceptance
    /// the migrations the write triggered queue behind it.
    ///
    /// The rotation and wear notes happen before the offer, so a rejected
    /// write that is retried is rotated and noted again and the
    /// migrations its first offer triggered are dropped.
    fn admit_write(&mut self, addr: LineAddr, data: &LineData, now: Instant) -> bool {
        let stored = match &mut self.hwl {
            Some(h) => h.rotate_for_write(addr, data),
            None => *data,
        };
        let mut migrations = match &mut self.leveler {
            Some(l) => l.note_write(addr),
            None => Vec::new(),
        };
        if let Some(backend) = &mut self.remap {
            migrations.extend(backend.note_write(addr));
        }
        let phys = self.map_addr(addr);
        if !self.mc.enqueue_write(phys, stored, now) {
            return false;
        }
        self.ctrl_dirty = true;
        self.pending_migrations.extend(migrations);
        true
    }

    fn run(&mut self, cores: &mut [Core]) -> Instant {
        let mut now = Instant::ZERO;
        for i in 0..cores.len() {
            self.drive_core(cores, i, now);
        }
        self.pump_service_arrival();
        self.absorb();
        while let Some((t, ev)) = self.events.pop() {
            assert!(
                t >= now,
                "event kernel time went backwards: {t} after {now}"
            );
            now = t;
            self.counts.count(ev);
            self.recorder.record(
                now,
                TraceRecord::KernelDispatch {
                    kind: dispatch_kind(ev),
                },
            );
            match ev {
                EventKind::CoreWake(i) => {
                    if self.core_wake[i] == Some(t) {
                        self.core_wake[i] = None;
                    }
                    self.drive_core(cores, i, now);
                }
                EventKind::ReadComplete(id) => {
                    if let Some(core_idx) = take_by_id(&mut self.pending_reads, id.0) {
                        cores[core_idx].on_read_completed(id.0, now);
                        self.drive_core(cores, core_idx, now);
                    } else if let Some(svc) = &mut self.service {
                        if let Some((tenant, arrived)) = take_by_id(&mut svc.inflight, id.0) {
                            svc.stats.reads_completed += 1;
                            // Open-loop latency runs from *arrival*, not
                            // from controller acceptance: queueing ahead
                            // of the controller counts against the SLO.
                            let latency = now.duration_since(arrived);
                            svc.tenants[tenant].reads.record(latency);
                        }
                    }
                }
                EventKind::Ctrl(_) => {
                    // Several controller wakes can land on one instant (a
                    // burst of enqueues, a bank free plus a dep ready);
                    // one process() serves them all.
                    if self.ctrl_dirty || self.last_process != Some(now) {
                        self.process_ctrl(cores, now);
                    }
                }
                EventKind::Arrival => {
                    if let Some(svc) = &mut self.service {
                        if let Some(req) = svc.next.take() {
                            svc.stats.arrivals += 1;
                            svc.pending.push_back((
                                Instant::from_ps(req.at_ps),
                                req.tenant,
                                req.op,
                            ));
                        }
                    }
                    self.pump_service_arrival();
                    self.drain_service(now);
                    if let Some(svc) = &mut self.service {
                        if !svc.pending.is_empty() {
                            // The controller is saturated; this arrival
                            // queues kernel-side — the open-loop signal a
                            // closed-loop run can never produce.
                            svc.stats.deferred += 1;
                        }
                    }
                }
            }
            self.absorb();
        }
        assert!(
            cores.iter().all(|c| c.is_finished()),
            "event queue drained with unfinished cores (scheduling bug)"
        );
        if let Some(svc) = &self.service {
            assert!(
                svc.next.is_none() && svc.pending.is_empty() && svc.inflight.is_empty(),
                "event queue drained with undelivered service requests (scheduling bug)"
            );
        }
        self.mc.finish(now)
    }

    /// Draws the service stream's next request (when none is in flight)
    /// and schedules its arrival.
    fn pump_service_arrival(&mut self) {
        let Some(svc) = &mut self.service else { return };
        if svc.next.is_some() {
            return;
        }
        let Some(req) = svc.gen.next_request() else {
            return;
        };
        let at = Instant::from_ps(req.at_ps);
        svc.next = Some(req);
        self.events.schedule(at, EventKind::Arrival);
    }

    /// Offers pending service requests to the controller in arrival
    /// order, stopping at the first the controller cannot accept (FIFO —
    /// later requests must not overtake a blocked head-of-line request).
    fn drain_service(&mut self, now: Instant) {
        let Some(mut svc) = self.service.take() else {
            return;
        };
        while let Some((arrived, tenant, op)) = svc.pending.front() {
            let accepted = match op {
                TraceOp::Read { addr, .. } => match self.admit_read(*addr, now) {
                    Some(id) => {
                        svc.inflight.push((id.0, (*tenant, *arrived)));
                        true
                    }
                    None => false,
                },
                // Same admission as the core write path: a rejected write
                // stays at the head and its retry recomputes everything,
                // like a re-driven core does.
                TraceOp::Write { addr, data } => {
                    let accepted = self.admit_write(*addr, data, now);
                    if accepted {
                        svc.stats.writes_accepted += 1;
                        svc.tenants[*tenant].writes += 1;
                    }
                    accepted
                }
            };
            if !accepted {
                break;
            }
            svc.pending.pop_front();
        }
        self.service = Some(svc);
    }

    /// Runs the controller at `now`, then retries everything a freed queue
    /// slot or completed operation may have unblocked: deferred migration
    /// writes and cores waiting on the controller.
    fn process_ctrl(&mut self, cores: &mut [Core], now: Instant) {
        self.mc.process(now);
        self.last_process = Some(now);
        self.ctrl_dirty = false;
        while let Some(&m) = self.pending_migrations.front() {
            if !self.mc.can_enqueue_write(m) {
                break;
            }
            let data = self.mc.store().read(m);
            let ok = self.mc.enqueue_write(m, data, now);
            debug_assert!(ok);
            self.ctrl_dirty = true;
            self.pending_migrations.pop_front();
        }
        // Freed queue slots pull queued open-loop requests before waiting
        // cores are re-driven (arrivals precede core retries in time).
        self.drain_service(now);
        for i in 0..cores.len() {
            if self.waiting[i] {
                self.waiting[i] = false;
                self.drive_core(cores, i, now);
            }
        }
    }

    /// Transfers wakes and read completions the controller registered
    /// during the last dispatch into the kernel's event queue, in
    /// registration order.
    fn absorb(&mut self) {
        for (at, wake) in self.mc.drain_wakes() {
            self.events.schedule(at, EventKind::Ctrl(wake));
        }
        for (id, at) in self.mc.drain_completed_reads() {
            self.events.schedule(at, EventKind::ReadComplete(id));
        }
    }

    fn schedule_core_wake(&mut self, i: usize, t: Instant) {
        // A core's compute cursor only moves forward, so an already
        // scheduled wake at or before `t` covers this request.
        if self.core_wake[i].is_none_or(|s| t < s) {
            self.core_wake[i] = Some(t);
            self.events.schedule(t, EventKind::CoreWake(i));
        }
    }

    /// Advances core `i` through every action it can take at `now`,
    /// scheduling its next wake or marking it as waiting on the
    /// controller.
    fn drive_core(&mut self, cores: &mut [Core], i: usize, now: Instant) {
        loop {
            match cores[i].next_action(now) {
                CoreAction::Finished => {
                    if self.core_finish[i].is_none() {
                        self.core_finish[i] = Some(now);
                    }
                    return;
                }
                CoreAction::Idle { until } => {
                    match until {
                        Some(t) => self.schedule_core_wake(i, t),
                        // Waiting on an external completion or queue
                        // space; a ReadComplete or controller dispatch
                        // re-drives this core.
                        None => self.waiting[i] = true,
                    }
                    return;
                }
                CoreAction::IssueRead { addr } => match self.admit_read(addr, now) {
                    Some(id) => {
                        self.pending_reads.push((id.0, i));
                        cores[i].on_read_issued(id.0, now);
                    }
                    None => {
                        cores[i].on_read_rejected(now);
                        self.waiting[i] = true;
                        return;
                    }
                },
                CoreAction::IssueWrite { addr, data } => {
                    if self.admit_write(addr, &data, now) {
                        cores[i].on_write_accepted(now);
                    } else {
                        cores[i].on_write_rejected(now);
                        self.waiting[i] = true;
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_cpu::{MemEvent, TraceOp, VecTrace};
    use ladder_memctrl::standard_tables;
    use ladder_xbar::TableConfig;

    fn tables() -> (TimingTable, TimingTable) {
        let t = standard_tables(&TableConfig::ladder_default());
        (t.ladder, t.blp)
    }

    fn simple_trace(n: u64, base_page: u64) -> VecTrace {
        let events = (0..n)
            .map(|i| MemEvent {
                gap_instructions: 200,
                op: if i % 3 == 0 {
                    TraceOp::Write {
                        addr: LineAddr::new(base_page * 64 + i % 640),
                        data: Box::new([(i % 256) as u8; 64]),
                    }
                } else {
                    TraceOp::Read {
                        addr: LineAddr::new(base_page * 64 + (i * 7) % 640),
                        critical: i % 2 == 0,
                    }
                },
            })
            .collect();
        VecTrace::new("simple", events)
    }

    #[test]
    fn single_core_run_completes() {
        let (lt, bt) = tables();
        let mut b = SystemBuilder::new(Scheme::Baseline, lt, bt);
        b.core(Box::new(simple_trace(300, 40_000)), 8);
        let r = b.run();
        assert_eq!(r.cores.len(), 1);
        assert!(r.cores[0].retired > 0);
        assert!(r.cores[0].ipc > 0.0);
        assert_eq!(r.mem.data_writes, 100);
        assert_eq!(r.mem.demand_reads, 200);
        assert!(r.energy.total_pj() > 0.0);
        // The event kernel accounts every dispatch.
        assert!(r.events.core_wake > 0);
        assert_eq!(r.events.read_complete, 200);
        assert!(r.events.ctrl_work_arrived > 0);
        assert!(r.events.ctrl_bank_free > 0);
        assert!(r.events_per_sim_second() > 0.0);
    }

    #[test]
    fn drain_mode_switch_progresses_without_nudge() {
        // Regression for the scenario the old polled loop papered over
        // with a 1 ns time nudge: every core is blocked on a full write
        // queue, and no queue slot can free until the controller switches
        // into write-drain mode. Nothing external is scheduled at that
        // point — the polled loop found no candidate instant and had to
        // invent one. The event kernel must drain purely from registered
        // wakes (WorkArrived → ModeSwitch → QueueSlotFree), with no nudge
        // and no iteration guard.
        let (lt, bt) = tables();
        let mut b = SystemBuilder::new(Scheme::Baseline, lt, bt);
        b.mem_config(MemCtrlConfig {
            rdq_capacity: 4,
            wrq_capacity: 4,
            drain_high: 4,
            drain_low: 1,
            ..MemCtrlConfig::default()
        });
        for c in 0..2u64 {
            let events = (0..40u64)
                .map(|i| MemEvent {
                    // Zero compute gap: the core re-offers its write the
                    // moment the previous one is accepted.
                    gap_instructions: 0,
                    op: TraceOp::Write {
                        addr: LineAddr::new((40_000 + c * 5_000) * 64 + i),
                        data: Box::new([(i % 251) as u8; 64]),
                    },
                })
                .collect();
            b.core(Box::new(VecTrace::new("writes", events)), 4);
        }
        let r = b.run();
        assert_eq!(r.mem.data_writes, 80, "every write must be serviced");
        assert!(r.mem.drain_switches > 0, "scenario must exercise the drain");
        assert!(r.events.ctrl_mode_switch > 0);
        assert!(r.events.ctrl_queue_slot_free > 0);
        for c in &r.cores {
            assert!(c.retired > 0);
        }
    }

    #[test]
    fn ladder_beats_baseline_on_write_service() {
        let (lt, bt) = tables();
        let run = |scheme| {
            let mut b = SystemBuilder::new(scheme, lt.clone(), bt.clone());
            b.core(Box::new(simple_trace(600, 40_000)), 8);
            b.run()
        };
        let base = run(Scheme::Baseline);
        let ladder = run(Scheme::LadderHybrid);
        assert!(
            ladder.avg_write_service() < base.avg_write_service(),
            "LADDER {} vs baseline {}",
            ladder.avg_write_service(),
            base.avg_write_service()
        );
        assert!(ladder.cache_hit.expect("ladder cache") > 0.0);
    }

    #[test]
    fn four_core_run_isolates_windows() {
        let (lt, bt) = tables();
        let mut b = SystemBuilder::new(Scheme::LadderEst, lt, bt);
        for c in 0..4u64 {
            b.core(Box::new(simple_trace(200, 40_000 + c * 5_000)), 8);
        }
        let r = b.run();
        assert_eq!(r.cores.len(), 4);
        for c in &r.cores {
            assert!(c.retired > 0);
        }
        assert_eq!(r.mem.data_writes, 4 * 67); // 67 writes per core trace
    }

    #[test]
    fn service_mode_runs_without_cores_and_records_tenant_tails() {
        use crate::experiments::ExperimentConfig;
        use crate::service::{feed_for, ServiceConfig};

        let (lt, bt) = tables();
        let scfg = ServiceConfig::builder().load(6.0).requests(2_000).build();
        let ecfg = ExperimentConfig::default();
        let run = |scheme| {
            let mut b = SystemBuilder::new(scheme, lt.clone(), bt.clone());
            b.service(feed_for(&scfg, &ecfg, &Geometry::default(), None));
            b.run()
        };
        let r = run(Scheme::Baseline);
        assert!(r.cores.is_empty());
        let svc = r.service.as_ref().expect("service mode");
        assert_eq!(svc.arrivals, 2_000);
        assert_eq!(
            svc.reads_completed + svc.writes_accepted,
            2_000,
            "every request must be serviced"
        );
        assert_eq!(r.events.request_arrival, 2_000);
        assert_eq!(svc.tenants.total_reads(), svc.reads_completed);
        assert_eq!(svc.tenants.total_writes(), svc.writes_accepted);
        // All three tenants are registered, with their QoS codes.
        let groups: Vec<_> = svc.tenants.iter().collect();
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|(_, g)| g.qos_code > 0));
        // Open-loop latency (arrival→completion) includes kernel-side
        // queueing, so it can only exceed the controller's own
        // acceptance→completion histogram at the tail.
        let t0 = svc.tenants.group("t0").expect("t0 registered");
        assert!(t0.reads.count() > 0);
        assert!(t0.reads.percentile(0.99) >= r.read_histogram.percentile(0.5));

        // Deterministic: identical feeds give identical stats.
        let r2 = run(Scheme::Baseline);
        assert_eq!(r.service, r2.service);
        assert_eq!(r.end, r2.end);
    }

    #[test]
    fn service_mode_is_open_loop_under_overload() {
        use crate::experiments::ExperimentConfig;
        use crate::service::{feed_for, ServiceConfig};

        let (lt, bt) = tables();
        // Writes are slow; an all-write stream at absurd offered load must
        // queue kernel-side (deferred arrivals) yet still fully drain.
        let scfg = ServiceConfig::builder()
            .load(500.0)
            .read_fraction(0.0)
            .requests(500)
            .build();
        let ecfg = ExperimentConfig::default();
        let mut b = SystemBuilder::new(Scheme::Baseline, lt, bt);
        b.service(feed_for(&scfg, &ecfg, &Geometry::default(), None));
        let r = b.run();
        let svc = r.service.expect("service mode");
        assert_eq!(svc.writes_accepted, 500);
        assert!(
            svc.deferred > 0,
            "overload must leave arrivals queued at the controller"
        );
    }

    #[test]
    fn wear_tracking_collects_counts() {
        let (lt, bt) = tables();
        let mut b = SystemBuilder::new(Scheme::Baseline, lt, bt);
        b.core(Box::new(simple_trace(90, 40_000)), 8);
        b.track_wear(true);
        let r = b.run();
        let wear = r.wear.expect("tracking enabled");
        assert_eq!(wear.with(|w| w.total_writes()), r.mem.data_writes);
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::experiments::{ExperimentConfig, Workload};
    use crate::shard::run_sim;

    #[test]
    fn summary_mentions_every_section() {
        let cfg = ExperimentConfig {
            instructions_per_core: 20_000,
            ..ExperimentConfig::default()
        };
        let tables = cfg.tables();
        let r = run_sim(
            &SimConfig::new(Scheme::LadderHybrid, Workload::Single("astar")),
            &cfg,
            &tables,
        );
        let s = r.summary();
        for needle in [
            "scheme: LADDER-Hybrid",
            "core 0 (astar)",
            "reads:",
            "writes:",
            "cells switched:",
            "energy:",
            "metadata cache hit ratio:",
            "simulated time:",
        ] {
            assert!(s.contains(needle), "summary missing {needle:?}:\n{s}");
        }
    }
}
