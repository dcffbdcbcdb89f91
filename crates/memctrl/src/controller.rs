//! Cycle-level memory controller: read/write queues, bank and bus timing,
//! write-drain scheduling and the dependency plumbing LADDER needs.
//!
//! The controller follows the paper's setup (Table 2): a 32-entry read
//! queue and 64-entry write queue per channel, switching into write-drain
//! mode at 85 % write-queue occupancy. Reads are blocked while a channel
//! drains writes — the coupling that makes long RESETs hurt read latency
//! and IPC. Dependency reads (stale blocks, metadata fills) are issued in
//! both modes so queued writes can become ready; writes whose metadata and
//! stale block are ready are prioritized, and writes whose metadata could
//! not be pinned stay unprepared in the write queue and retry on
//! write→read switches, as Section 3.3 describes. The spill buffer itself
//! is only counted, for its peak occupancy.

use crate::policy::WritePolicy;
use ladder_core::ReadKind;
use ladder_reram::{
    AddressMap, DeviceTiming, Instant, LineAddr, LineData, LineStore, Picos, WlgId,
    MAX_BANKS_PER_CHANNEL,
};
use ladder_trace::{
    LatencyHistogram, Mergeable, PulseKind, ReadClass, TraceRecord, TraceRecorder, C_LRS_UNTRACKED,
};
use std::collections::VecDeque;

/// Spill-buffer entries (paper Table 2). Only caps the reported
/// [`MemStats::spill_peak`]: a full buffer stalls nothing, since a spilled
/// write waits in the write queue for its retry either way.
const SPILL_CAPACITY: usize = 16;

/// A bank-free time no bank ever reaches.
const NEVER: Instant = Instant::from_ps(u64::MAX);

/// Controller configuration (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCtrlConfig {
    /// Read-queue entries per channel.
    pub rdq_capacity: usize,
    /// Write-queue entries per channel.
    pub wrq_capacity: usize,
    /// Enter write-drain mode at this occupancy.
    pub drain_high: usize,
    /// Leave write-drain mode at (or below) this occupancy.
    pub drain_low: usize,
    /// Device access timings.
    pub timing: DeviceTiming,
}

impl Default for MemCtrlConfig {
    fn default() -> Self {
        Self {
            rdq_capacity: 32,
            wrq_capacity: 64,
            drain_high: 55, // ceil(0.85 × 64)
            drain_low: 32,
            timing: DeviceTiming::default(),
        }
    }
}

/// Identifier of an enqueued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Observer notified on every serviced write (wear models hook in here).
pub trait AccessObserver: Send {
    /// A write switched `bits_set` cells 0→1 and `bits_reset` cells 1→0 at
    /// `addr`.
    fn on_write(&mut self, addr: LineAddr, bits_set: u32, bits_reset: u32);
}

/// Device fault model driving program-and-verify (`ladder-faults`
/// implements this; the trait lives here so the controller stays free of a
/// dependency cycle, like [`AccessObserver`]).
///
/// Semantics of one serviced data write: the controller fires the initial
/// RESET pulse (attempt 0) and asks the injector how many bits failed to
/// program. Every failed verify is followed by exactly one escalated retry
/// pulse while the bounded budget lasts — so `retries_issued ==
/// failed_verifies` is a controller invariant. Bits still failing after
/// the final pulse are handed to [`FaultInjector::resolve`] (the ECC /
/// retire-and-remap layer); no further verify is charged for them, since
/// no retry could act on it.
///
/// The verify read after a *successful* pulse is not charged separately:
/// RESET termination sensing is part of the modeled pulse, so a fault-free
/// injector adds zero latency and a rate-0.0 run is bit-identical to the
/// no-injector path.
pub trait FaultInjector: Send {
    /// Retry-pulse budget per write (0 disables retries).
    fn max_retries(&self) -> u32;

    /// Pulse width of retry `attempt` (1-based), given the scheme's base
    /// `tWR`. Escalated pulses are longer — the overdrive that makes the
    /// retry more likely to stick.
    fn retry_t_wr(&self, base: Picos, attempt: u32) -> Picos;

    /// Location-aware variant of [`Self::retry_t_wr`]: a coding layer may
    /// escalate harder at margin-poor positions. The default ignores the
    /// address, so flat injectors keep their legacy pulse widths.
    fn retry_t_wr_at(&self, addr: LineAddr, base: Picos, attempt: u32) -> Picos {
        let _ = addr;
        self.retry_t_wr(base, attempt)
    }

    /// Simulates program attempt `attempt` (0 = the initial pulse) of the
    /// data most recently stored at `addr`, returning how many bits failed
    /// to switch. May install permanent faults into the store's masks.
    fn program(&mut self, addr: LineAddr, store: &mut LineStore, attempt: u32, t_wr: Picos) -> u32;

    /// Final disposition of `residual_bits` still failing after the retry
    /// budget (the ECC / remap layer); see [`Resolution`].
    fn resolve(&mut self, addr: LineAddr, residual_bits: u32, store: &mut LineStore) -> Resolution;
}

/// What [`FaultInjector::resolve`] did with a line's residual failed bits.
///
/// `corrected` carries the legacy contract (`true` = the correction budget
/// covered the residue, `false` = data loss). The optional fields describe
/// *how*, for trace records: `tier` is set when a tiered code resolved the
/// line, `remapped` is `(page, frame)` when the resolve moved the page to a
/// new physical frame. Flat-ECC + retire-backend injectors leave both
/// `None`, keeping default-mode traces byte-identical to the boolean era.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Whether the correction budget covered the residual bits.
    pub corrected: bool,
    /// Protection tier that resolved the line, when the scheme is tiered.
    pub tier: Option<u32>,
    /// `(page, frame)`: the faulty page and the physical frame now serving
    /// it, when the resolve triggered a decoder remap worth tracing.
    pub remapped: Option<(u64, u64)>,
}

impl Resolution {
    /// A plain corrected/uncorrectable outcome with no tier or remap
    /// detail — the legacy boolean, lifted.
    pub fn plain(corrected: bool) -> Self {
        Self {
            corrected,
            tier: None,
            remapped: None,
        }
    }
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand (CPU) reads completed.
    pub demand_reads: u64,
    /// Total demand read latency (enqueue → data burst done).
    pub demand_read_latency: Picos,
    /// Stale-memory-block reads issued.
    pub smb_reads: u64,
    /// Metadata fill reads issued.
    pub metadata_reads: u64,
    /// Data writes serviced.
    pub data_writes: u64,
    /// Metadata write-backs serviced.
    pub metadata_writes: u64,
    /// Total service time of data writes (dispatch → completion).
    pub write_service_time: Picos,
    /// Total write-recovery time across data writes.
    pub t_wr_data: Picos,
    /// Total write-recovery time across metadata writes.
    pub t_wr_metadata: Picos,
    /// Cells switched 0→1 (all writes).
    pub bits_set: u64,
    /// Cells switched 1→0 (all writes).
    pub bits_reset: u64,
    /// Read→write drain transitions.
    pub drain_switches: u64,
    /// Highest write-queue occupancy seen.
    pub wrq_peak: usize,
    /// Highest spill-buffer occupancy seen.
    pub spill_peak: usize,
    /// Verify reads that found failed bits (program-and-verify).
    pub failed_verifies: u64,
    /// Escalated retry pulses issued. Equals `failed_verifies` by
    /// construction: every failed verify triggers exactly one retry.
    pub retries_issued: u64,
    /// Total extra service time spent on verify reads and retry pulses.
    pub retry_time: Picos,
    /// Residual failed bits absorbed by the per-line correction budget.
    pub ecc_corrected_bits: u64,
    /// Data writes whose residual failed bits exceeded the correction
    /// budget (data loss).
    pub uncorrectable_writes: u64,
}

impl MemStats {
    /// Mean demand read latency.
    pub fn avg_read_latency(&self) -> Picos {
        if self.demand_reads == 0 {
            Picos::ZERO
        } else {
            self.demand_read_latency / self.demand_reads
        }
    }

    /// Mean data-write service time.
    pub fn avg_write_service(&self) -> Picos {
        if self.data_writes == 0 {
            Picos::ZERO
        } else {
            self.write_service_time / self.data_writes
        }
    }

    /// Reads beyond demand reads, as a fraction of demand reads
    /// (paper Fig. 14a).
    pub fn additional_read_fraction(&self) -> f64 {
        if self.demand_reads == 0 {
            0.0
        } else {
            (self.smb_reads + self.metadata_reads) as f64 / self.demand_reads as f64
        }
    }

    /// Writes beyond data writes, as a fraction of data writes
    /// (paper Fig. 14b).
    pub fn additional_write_fraction(&self) -> f64 {
        if self.data_writes == 0 {
            0.0
        } else {
            self.metadata_writes as f64 / self.data_writes as f64
        }
    }
}

/// Folds another controller's statistics into this one: peaks take the
/// maximum, everything else adds. No `..` in the pattern, so a new field
/// fails to compile until it is folded here.
#[deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
impl Mergeable for MemStats {
    fn merge_from(&mut self, other: &Self) {
        let MemStats {
            demand_reads,
            demand_read_latency,
            smb_reads,
            metadata_reads,
            data_writes,
            metadata_writes,
            write_service_time,
            t_wr_data,
            t_wr_metadata,
            bits_set,
            bits_reset,
            drain_switches,
            wrq_peak,
            spill_peak,
            failed_verifies,
            retries_issued,
            retry_time,
            ecc_corrected_bits,
            uncorrectable_writes,
        } = other;
        self.demand_reads.merge_from(demand_reads);
        self.demand_read_latency.merge_from(demand_read_latency);
        self.smb_reads.merge_from(smb_reads);
        self.metadata_reads.merge_from(metadata_reads);
        self.data_writes.merge_from(data_writes);
        self.metadata_writes.merge_from(metadata_writes);
        self.write_service_time.merge_from(write_service_time);
        self.t_wr_data.merge_from(t_wr_data);
        self.t_wr_metadata.merge_from(t_wr_metadata);
        self.bits_set.merge_from(bits_set);
        self.bits_reset.merge_from(bits_reset);
        self.drain_switches.merge_from(drain_switches);
        self.wrq_peak = self.wrq_peak.max(*wrq_peak);
        self.spill_peak = self.spill_peak.max(*spill_peak);
        self.failed_verifies.merge_from(failed_verifies);
        self.retries_issued.merge_from(retries_issued);
        self.retry_time.merge_from(retry_time);
        self.ecc_corrected_bits.merge_from(ecc_corrected_bits);
        self.uncorrectable_writes.merge_from(uncorrectable_writes);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    WriteDrain,
}

/// Why the controller registered a wake-up.
///
/// Every state change that could make new progress possible registers one
/// of these in the controller's wake outbox at the precise instant the
/// opportunity opens. An external event pump absorbs them through
/// [`MemoryController::drain_wakes`]; standalone drivers step time with
/// [`MemoryController::next_wake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtrlWake {
    /// New work entered a queue: a demand read or write, a dependency
    /// read, or a metadata write-back.
    WorkArrived,
    /// A bank finishes its current operation and can accept the next.
    BankFree,
    /// A write left the write queue, freeing a slot a rejected writer can
    /// claim.
    QueueSlotFree,
    /// The last outstanding dependency read for a queued write completes,
    /// making that write dispatchable.
    DepReady,
    /// A channel switched between read mode and write-drain mode.
    ModeSwitch,
    /// A program-and-verify retry pulse begins on a bank (the bank stays
    /// occupied until the last pulse's data burst completes).
    RetryPulse,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RKind {
    Demand,
    Smb,
    Metadata,
}

#[derive(Debug, Clone)]
struct ReadEntry {
    id: ReqId,
    /// The target's flat bank, decoded once at enqueue: the issue
    /// scheduler tests every queued entry's bank against the busy table
    /// on every pick, and re-decoding per test dominated the hot loop.
    /// The address itself is not needed after enqueue.
    bank: usize,
    kind: RKind,
    enqueued_at: Instant,
    for_write: Option<ReqId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WKind {
    Data,
    MetadataWriteback,
}

#[derive(Debug, Clone)]
struct WriteEntry {
    id: ReqId,
    addr: LineAddr,
    /// `addr`'s flat bank, decoded once at enqueue (see [`ReadEntry::bank`]).
    bank: usize,
    data: LineData,
    kind: WKind,
    prepared: bool,
    /// Dependency reads (metadata fill, stale block) not yet issued.
    outstanding: u32,
    /// When the write's dependency data is in: the latest completion
    /// among its issued dependency reads (`ZERO` when it has none).
    ready_at: Instant,
    enqueued_at: Instant,
}

/// Future data-burst reservations on one channel's bus, kept sorted.
///
/// Bursts are short (tBURST = 5 ns) relative to bank occupancy, so a read
/// issued while a long write occupies another bank must be able to claim an
/// earlier bus slot than the write's — a single free-after watermark would
/// serialize bursts in issue order and fabricate enormous queueing delays.
#[derive(Debug, Default)]
struct BusSchedule {
    /// Sorted, non-overlapping `(start, end)` reservations in ps.
    slots: VecDeque<(u64, u64)>,
}

impl BusSchedule {
    /// Reserves the earliest `dur`-long slot starting at or after
    /// `nominal`, returning the slot's start.
    fn reserve(&mut self, nominal: Instant, dur: Picos, now: Instant) -> Instant {
        while let Some(&(_, end)) = self.slots.front() {
            if end <= now.as_ps() {
                self.slots.pop_front();
            } else {
                break;
            }
        }
        let dur = dur.as_ps();
        let mut start = nominal.as_ps();
        let mut insert_at = self.slots.len();
        for (i, &(s, e)) in self.slots.iter().enumerate() {
            if start + dur <= s {
                insert_at = i;
                break;
            }
            if start < e {
                start = e;
            }
        }
        self.slots.insert(insert_at, (start, start + dur));
        Instant::from_ps(start)
    }
}

/// Queued entries per bank of one channel, and the mask of the banks
/// holding any (bit = bank within the channel; [`Geometry::validate`]
/// bounds a channel to [`MAX_BANKS_PER_CHANNEL`] = 64 banks).
///
/// [`Geometry::validate`]: ladder_reram::Geometry::validate
#[derive(Debug, Clone, PartialEq, Eq)]
struct BankSet {
    counts: [u32; MAX_BANKS_PER_CHANNEL],
    mask: u64,
}

impl BankSet {
    const EMPTY: BankSet = BankSet {
        counts: [0; MAX_BANKS_PER_CHANNEL],
        mask: 0,
    };

    fn add(&mut self, bit: usize) {
        self.counts[bit] += 1;
        self.mask |= 1 << bit;
    }

    fn remove(&mut self, bit: usize) {
        self.counts[bit] -= 1;
        if self.counts[bit] == 0 {
            self.mask &= !(1 << bit);
        }
    }

    fn clear(&mut self) {
        self.counts.fill(0);
        self.mask = 0;
    }
}

#[derive(Debug)]
struct Channel {
    rdq: VecDeque<ReadEntry>,
    dep_overflow: VecDeque<ReadEntry>,
    wrq: Vec<WriteEntry>,
    write_overflow: VecDeque<WriteEntry>,
    mode: Mode,
    bus: BusSchedule,
    /// Flat index of the channel's first bank.
    first_bank: usize,
    /// Banks in the channel.
    bank_count: usize,
    /// Banks of `rdq` entries, of its dependency (Smb/Metadata) entries
    /// and of `wrq` entries. The overflow queues cannot issue and are not
    /// counted.
    reads: BankSet,
    dep_reads: BankSet,
    writes: BankSet,
    /// Idle-bank mask as of `folded_at`, with every issue since applied;
    /// it stays exact until `next_free`, the earliest time a bank busy
    /// at the fold (or since) frees.
    idle: u64,
    folded_at: Instant,
    next_free: Instant,
}

impl Channel {
    fn new(first_bank: usize, bank_count: usize) -> Self {
        Self {
            rdq: VecDeque::new(),
            dep_overflow: VecDeque::new(),
            wrq: Vec::new(),
            write_overflow: VecDeque::new(),
            mode: Mode::Read,
            bus: BusSchedule::default(),
            first_bank,
            bank_count,
            reads: BankSet::EMPTY,
            dep_reads: BankSet::EMPTY,
            writes: BankSet::EMPTY,
            idle: 0,
            folded_at: NEVER,
            next_free: Instant::ZERO,
        }
    }

    fn has_work(&self) -> bool {
        !self.rdq.is_empty()
            || !self.wrq.is_empty()
            || !self.dep_overflow.is_empty()
            || !self.write_overflow.is_empty()
    }

    /// Bit of flat bank `bank` in this channel's masks.
    fn bit(&self, bank: usize) -> usize {
        bank - self.first_bank
    }

    fn push_read(&mut self, e: ReadEntry) {
        let bit = self.bit(e.bank);
        self.reads.add(bit);
        if e.kind != RKind::Demand {
            self.dep_reads.add(bit);
        }
        self.rdq.push_back(e);
    }

    fn remove_read(&mut self, idx: usize) -> ReadEntry {
        #[expect(
            clippy::expect_used,
            reason = "idx comes from position() over this queue"
        )]
        let e = self.rdq.remove(idx).expect("index valid");
        let bit = self.bit(e.bank);
        self.reads.remove(bit);
        if e.kind != RKind::Demand {
            self.dep_reads.remove(bit);
        }
        e
    }

    fn push_write(&mut self, e: WriteEntry) {
        self.writes.add(self.bit(e.bank));
        self.wrq.push(e);
    }

    fn remove_write(&mut self, idx: usize) -> WriteEntry {
        let e = self.wrq.remove(idx);
        self.writes.remove(self.bit(e.bank));
        e
    }

    /// Banks of this channel idle at `now`: the cached mask, refolded
    /// from the bank times only once a busy bank may have freed.
    fn free_banks(&mut self, banks: &[Instant], now: Instant) -> u64 {
        if now < self.folded_at || now >= self.next_free {
            let own = &banks[self.first_bank..self.first_bank + self.bank_count];
            self.idle = Self::fold_free_banks(own, now);
            self.folded_at = now;
            self.next_free = own
                .iter()
                .copied()
                .filter(|&b| b > now)
                .min()
                .unwrap_or(NEVER);
        }
        self.idle
    }

    /// Banks of `banks` (one channel's) idle at `now` (branch-free: which
    /// banks are idle changes from visit to visit).
    fn fold_free_banks(banks: &[Instant], now: Instant) -> u64 {
        banks
            .iter()
            .enumerate()
            .fold(0, |m, (bit, &b)| m | u64::from(b <= now) << bit)
    }

    /// Keeps the cached idle mask exact when flat bank `bank` turns busy
    /// until `until`.
    fn occupy(&mut self, bank: usize, until: Instant) {
        self.idle &= !(1 << self.bit(bank));
        self.next_free = self.next_free.min(until);
    }

    /// Whether the bank sets match a recount of the queues.
    fn bank_sets_consistent(&self) -> bool {
        let (mut reads, mut dep_reads, mut writes) =
            (BankSet::EMPTY, BankSet::EMPTY, BankSet::EMPTY);
        for r in &self.rdq {
            reads.add(self.bit(r.bank));
            if r.kind != RKind::Demand {
                dep_reads.add(self.bit(r.bank));
            }
        }
        for w in &self.wrq {
            writes.add(self.bit(w.bank));
        }
        reads == self.reads && dep_reads == self.dep_reads && writes == self.writes
    }
}

/// The memory controller.
///
/// Drive it with [`MemoryController::process`] at event times. The
/// controller is schedule-based: every enqueue and issue registers the
/// precise instant at which new progress becomes possible (a
/// [`CtrlWake`]). Standalone drivers step time with
/// [`MemoryController::next_wake`]; an event pump drains the registered
/// wakes with [`MemoryController::drain_wakes`] and dispatches them from
/// its own queue. Completed demand reads are collected through
/// [`MemoryController::drain_completed_reads`].
#[derive(Debug)]
pub struct MemoryController {
    cfg: MemCtrlConfig,
    map: AddressMap,
    policy: Box<dyn WritePolicy>,
    store: LineStore,
    channels: Vec<Channel>,
    banks: Vec<Instant>,
    /// Spilled writes parked since the last retry, capped at
    /// [`SPILL_CAPACITY`].
    spilled: usize,
    completed_reads: Vec<(ReqId, Instant)>,
    next_id: u64,
    stats: MemStats,
    read_histogram: LatencyHistogram,
    observer: Option<Box<dyn ObserverDebug>>,
    fault_injector: Option<Box<dyn InjectorDebug>>,
    /// Wake outbox, in registration order: drained by an event pump or
    /// pruned and scanned by [`MemoryController::next_wake`].
    wakes: Vec<(Instant, CtrlWake)>,
    recorder: TraceRecorder,
}

/// Internal marker combining the observer trait with Debug for derive.
trait ObserverDebug: AccessObserver {
    fn as_observer(&mut self) -> &mut dyn AccessObserver;
}

impl std::fmt::Debug for dyn ObserverDebug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AccessObserver")
    }
}

impl<T: AccessObserver> ObserverDebug for T {
    fn as_observer(&mut self) -> &mut dyn AccessObserver {
        self
    }
}

/// Internal marker combining the fault-injector trait with Debug for
/// derive.
trait InjectorDebug: FaultInjector {}

impl std::fmt::Debug for dyn InjectorDebug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultInjector")
    }
}

impl<T: FaultInjector> InjectorDebug for T {}

impl MemoryController {
    /// Creates a controller over a fresh (all-zero) memory image.
    pub fn new(cfg: MemCtrlConfig, map: AddressMap, policy: Box<dyn WritePolicy>) -> Self {
        let g = map.geometry();
        let per_channel = g.ranks_per_channel * g.banks_per_rank;
        let channels = (0..g.channels)
            .map(|ch| Channel::new(ch * per_channel, per_channel))
            .collect();
        let banks = vec![Instant::ZERO; map.geometry().total_banks()];
        Self {
            spilled: 0,
            cfg,
            map,
            policy,
            store: LineStore::new(),
            channels,
            banks,
            completed_reads: Vec::new(),
            next_id: 0,
            stats: MemStats::default(),
            read_histogram: LatencyHistogram::new(),
            observer: None,
            fault_injector: None,
            wakes: Vec::new(),
            recorder: TraceRecorder::disabled(),
        }
    }

    /// Installs a trace recorder (pass [`TraceRecorder::enabled`] to start
    /// capturing; the default is the free disabled recorder).
    pub fn set_trace_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = recorder;
    }

    /// The controller's trace recorder.
    pub fn trace_recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// Takes the trace recorder out (for trace assembly), leaving a
    /// disabled one behind.
    pub fn take_trace_recorder(&mut self) -> TraceRecorder {
        std::mem::replace(&mut self.recorder, TraceRecorder::disabled())
    }

    /// Installs a write observer (e.g. a wear model).
    pub fn set_observer<O: AccessObserver + 'static>(&mut self, obs: O) {
        self.observer = Some(Box::new(obs));
    }

    /// Installs a device fault model, enabling program-and-verify on data
    /// writes (see [`FaultInjector`]).
    pub fn set_fault_injector<F: FaultInjector + 'static>(&mut self, inj: F) {
        self.fault_injector = Some(Box::new(inj));
    }

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Distribution of demand-read latencies (tail-latency reporting).
    pub fn read_histogram(&self) -> &LatencyHistogram {
        &self.read_histogram
    }

    /// The active write policy.
    pub fn policy(&self) -> &dyn WritePolicy {
        self.policy.as_ref()
    }

    /// The memory image (for functional inspection).
    pub fn store(&self) -> &LineStore {
        &self.store
    }

    /// Address map in use.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The wordline group of an address (helper for experiments).
    pub fn wlg_of(&self, addr: LineAddr) -> WlgId {
        self.map.wlg_of(addr)
    }

    /// Simulates a power failure and the scheme's recovery procedure
    /// (paper Section 7). Queued requests are dropped (they were volatile),
    /// and the policy's recovery runs against the persistent memory image.
    pub fn crash_recover(&mut self) {
        for c in &mut self.channels {
            c.rdq.clear();
            c.dep_overflow.clear();
            c.wrq.clear();
            c.write_overflow.clear();
            c.reads.clear();
            c.dep_reads.clear();
            c.writes.clear();
            c.mode = Mode::Read;
        }
        self.spilled = 0;
        self.policy.crash_recover(&mut self.store);
    }

    fn fresh_id(&mut self) -> ReqId {
        self.next_id += 1;
        ReqId(self.next_id)
    }

    fn channel_of(&self, addr: LineAddr) -> usize {
        self.map.decode(addr).channel
    }

    /// `addr`'s channel and flat bank, from one decode.
    fn locate(&self, addr: LineAddr) -> (usize, usize) {
        let d = self.map.decode(addr);
        (d.channel, d.flat_bank(self.map.geometry()))
    }

    /// Whether the read queue of `addr`'s channel can take a demand read.
    pub fn can_enqueue_read(&self, addr: LineAddr) -> bool {
        self.channels[self.channel_of(addr)].rdq.len() < self.cfg.rdq_capacity
    }

    /// Enqueues a demand read; `None` when the queue is full (retry later).
    pub fn enqueue_read(&mut self, addr: LineAddr, now: Instant) -> Option<ReqId> {
        let (ch, bank) = self.locate(addr);
        if self.channels[ch].rdq.len() >= self.cfg.rdq_capacity {
            return None;
        }
        let id = self.fresh_id();
        self.channels[ch].push_read(ReadEntry {
            id,
            bank,
            kind: RKind::Demand,
            enqueued_at: now,
            for_write: None,
        });
        self.wakes.push((now, CtrlWake::WorkArrived));
        Some(id)
    }

    /// Whether the write queue of `addr`'s channel can take a data write.
    pub fn can_enqueue_write(&self, addr: LineAddr) -> bool {
        self.channels[self.channel_of(addr)].wrq.len() < self.cfg.wrq_capacity
    }

    /// Enqueues a data write (an LLC write-back). Returns `false` when the
    /// write queue is full; re-writes to an already-queued line coalesce.
    pub fn enqueue_write(&mut self, addr: LineAddr, data: LineData, now: Instant) -> bool {
        let (ch, bank) = self.locate(addr);
        if let Some(e) = self.channels[ch]
            .wrq
            .iter_mut()
            .find(|e| e.addr == addr && e.kind == WKind::Data)
        {
            e.data = data;
            return true;
        }
        if self.channels[ch].wrq.len() >= self.cfg.wrq_capacity {
            return false;
        }
        let id = self.fresh_id();
        let entry = WriteEntry {
            id,
            addr,
            bank,
            data,
            kind: WKind::Data,
            prepared: false,
            outstanding: 0,
            ready_at: Instant::ZERO,
            enqueued_at: now,
        };
        // Push first, then prepare: metadata write-backs evicted by the
        // prepare go through the bounded overflow path instead of pushing
        // the write queue past its capacity.
        let c = &mut self.channels[ch];
        let idx = c.wrq.len();
        c.push_write(entry);
        self.stats.wrq_peak = self.stats.wrq_peak.max(self.channels[ch].wrq.len());
        self.wakes.push((now, CtrlWake::WorkArrived));
        self.prepare_entry(ch, idx, now);
        true
    }

    /// Runs the policy's prepare step for the data write at `wrq[idx]` of
    /// channel `ch`, wiring dependency reads and metadata write-backs into
    /// the queues. Write-backs only append to write queues, so `idx`
    /// stays valid throughout.
    fn prepare_entry(&mut self, ch: usize, idx: usize, now: Instant) {
        let (write_id, addr) = {
            let e = &self.channels[ch].wrq[idx];
            debug_assert_eq!(e.kind, WKind::Data);
            (e.id, e.addr)
        };
        let cache_before = if self.recorder.is_enabled() {
            self.policy.cache_counters()
        } else {
            None
        };
        let prep = self.policy.prepare(addr, &self.store);
        self.trace_cache_delta(now, cache_before, prep.writebacks.len() as u32);
        for wb in &prep.writebacks {
            self.enqueue_metadata_writeback(*wb, now);
        }
        let entry = &mut self.channels[ch].wrq[idx];
        entry.prepared = !prep.spilled;
        if prep.spilled {
            if self.spilled < SPILL_CAPACITY {
                self.spilled += 1;
                self.stats.spill_peak = self.stats.spill_peak.max(self.spilled);
            }
            return;
        }
        if prep.reads.is_empty() {
            return;
        }
        entry.outstanding = prep.reads.len() as u32;
        entry.ready_at = now;
        for r in prep.reads {
            let kind = match r.kind {
                ReadKind::Smb => {
                    self.stats.smb_reads += 1;
                    RKind::Smb
                }
                ReadKind::Metadata => {
                    self.stats.metadata_reads += 1;
                    RKind::Metadata
                }
            };
            let id = self.fresh_id();
            let (rch, bank) = self.locate(r.addr);
            let rentry = ReadEntry {
                id,
                bank,
                kind,
                enqueued_at: now,
                for_write: Some(write_id),
            };
            let c = &mut self.channels[rch];
            if c.rdq.len() < self.cfg.rdq_capacity {
                c.push_read(rentry);
            } else {
                c.dep_overflow.push_back(rentry);
            }
        }
    }

    /// Emits a [`TraceRecord::CacheAccess`] for the hit/miss delta a
    /// policy call produced, so trace totals reconcile exactly with the
    /// metadata cache's own counters. All-zero deltas are skipped.
    fn trace_cache_delta(&mut self, now: Instant, before: Option<(u64, u64)>, writebacks: u32) {
        let Some((h0, m0)) = before else {
            if writebacks > 0 && self.recorder.is_enabled() {
                self.recorder.record(
                    now,
                    TraceRecord::CacheAccess {
                        hits: 0,
                        misses: 0,
                        writebacks,
                    },
                );
            }
            return;
        };
        let (h1, m1) = self.policy.cache_counters().unwrap_or((h0, m0));
        let hits = (h1 - h0) as u32;
        let misses = (m1 - m0) as u32;
        if hits > 0 || misses > 0 || writebacks > 0 {
            self.recorder.record(
                now,
                TraceRecord::CacheAccess {
                    hits,
                    misses,
                    writebacks,
                },
            );
        }
    }

    fn enqueue_metadata_writeback(&mut self, addr: LineAddr, now: Instant) {
        let id = self.fresh_id();
        let (ch, bank) = self.locate(addr);
        let entry = WriteEntry {
            id,
            addr,
            bank,
            data: self.store.read(addr),
            kind: WKind::MetadataWriteback,
            prepared: true,
            outstanding: 0,
            ready_at: Instant::ZERO,
            enqueued_at: now,
        };
        let c = &mut self.channels[ch];
        if c.wrq.len() < self.cfg.wrq_capacity {
            c.push_write(entry);
            self.stats.wrq_peak = self.stats.wrq_peak.max(c.wrq.len());
        } else {
            c.write_overflow.push_back(entry);
        }
        self.wakes.push((now, CtrlWake::WorkArrived));
    }

    /// Demand-read completions since the last call, `(id, completion)`,
    /// drained in completion-registration order.
    pub fn drain_completed_reads(&mut self) -> std::vec::Drain<'_, (ReqId, Instant)> {
        self.completed_reads.drain(..)
    }

    /// Earliest registered wake strictly after `now`, or `None` when every
    /// queue is empty. Wakes at or before `now` are discarded (their
    /// opportunity is served by the `process(now)` the caller is about to
    /// run, or already was).
    pub fn next_wake(&mut self, now: Instant) -> Option<Instant> {
        if !self.channels.iter().any(Channel::has_work) {
            return None;
        }
        self.wakes.retain(|&(t, _)| t > now);
        self.wakes.iter().map(|&(t, _)| t).min()
    }

    /// Drains every registered wake, in registration order, for an
    /// external event pump to absorb into its own queue. Unlike
    /// [`MemoryController::next_wake`] this does not filter stale or
    /// duplicate entries — the pump coalesces same-instant dispatches, and
    /// its `(instant, sequence)` order keeps equal-instant wakes in the
    /// order they were registered.
    pub fn drain_wakes(&mut self) -> std::vec::Drain<'_, (Instant, CtrlWake)> {
        self.wakes.drain(..)
    }

    /// Whether every queue is empty.
    pub fn is_idle(&self) -> bool {
        !self.channels.iter().any(Channel::has_work)
    }

    /// Issues every operation that can start at `now`.
    ///
    /// Each channel visit reads the bank times once, into a mask of the
    /// channel's idle banks; an issue clears its bank's bit. A pick is
    /// only searched for when a queue holds an entry on an idle bank.
    pub fn process(&mut self, now: Instant) {
        for ch in 0..self.channels.len() {
            self.refill_from_overflow(ch);
            self.update_mode(ch, now);
            let mut free = self.channels[ch].free_banks(&self.banks, now);
            loop {
                let issued = match self.channels[ch].mode {
                    Mode::Read => {
                        self.issue_read(ch, now, true, &mut free)
                            || self.issue_write_opportunistic(ch, now, &mut free)
                    }
                    Mode::WriteDrain => {
                        // Dependency reads keep flowing during a drain; and
                        // if dependency reads are stuck in overflow behind a
                        // read queue full of demand reads, let one demand
                        // read through — otherwise drain (blocked on deps),
                        // rdq (blocked on drain) and deps (blocked on rdq)
                        // deadlock in a cycle.
                        self.issue_write(ch, now, &mut free)
                            || self.issue_read(ch, now, false, &mut free)
                            || (!self.channels[ch].dep_overflow.is_empty()
                                && self.issue_read(ch, now, true, &mut free))
                    }
                };
                if !issued {
                    break;
                }
                self.refill_from_overflow(ch);
                self.update_mode(ch, now);
            }
            let c = &self.channels[ch];
            debug_assert!(
                c.bank_sets_consistent()
                    && free == c.idle
                    && free
                        == Channel::fold_free_banks(
                            &self.banks[c.first_bank..c.first_bank + c.bank_count],
                            now
                        ),
                "channel {ch}'s bank masks disagree with its queues or bank times at {now}"
            );
        }
    }

    fn refill_from_overflow(&mut self, ch: usize) {
        let cfg = self.cfg;
        let c = &mut self.channels[ch];
        while c.rdq.len() < cfg.rdq_capacity {
            match c.dep_overflow.pop_front() {
                Some(e) => c.push_read(e),
                None => break,
            }
        }
        while c.wrq.len() < cfg.wrq_capacity {
            match c.write_overflow.pop_front() {
                Some(e) => c.push_write(e),
                None => break,
            }
        }
    }

    /// In read mode, service writes only when no read is waiting on this
    /// channel, and never on more than a few banks at once: a started write
    /// occupies its bank for up to `tRCD + tWR + tBURST`, so flooding every
    /// bank with opportunistic writes would ambush the next read burst.
    fn issue_write_opportunistic(&mut self, ch: usize, now: Instant, free: &mut u64) -> bool {
        const MAX_OPPORTUNISTIC_BANKS: usize = 4;
        let c = &self.channels[ch];
        if !c.rdq.is_empty() || c.wrq.is_empty() {
            return false;
        }
        let busy = c.bank_count - free.count_ones() as usize;
        if busy >= MAX_OPPORTUNISTIC_BANKS {
            return false;
        }
        self.issue_write(ch, now, free)
    }

    fn update_mode(&mut self, ch: usize, now: Instant) {
        let len = self.channels[ch].wrq.len();
        match self.channels[ch].mode {
            Mode::Read => {
                if len >= self.cfg.drain_high {
                    self.channels[ch].mode = Mode::WriteDrain;
                    self.stats.drain_switches += 1;
                    self.wakes.push((now, CtrlWake::ModeSwitch));
                }
            }
            Mode::WriteDrain => {
                // Exit at the low watermark, or when no queued write can
                // ever become dispatchable without a spill retry.
                let any_viable = self.channels[ch].wrq.iter().any(|w| w.prepared);
                if len <= self.cfg.drain_low || !any_viable {
                    self.channels[ch].mode = Mode::Read;
                    self.wakes.push((now, CtrlWake::ModeSwitch));
                    self.retry_spilled(now);
                }
            }
        }
    }

    /// Re-prepares every unprepared (spilled) write, oldest first — invoked
    /// on write→read mode switches per the paper.
    fn retry_spilled(&mut self, now: Instant) {
        self.spilled = 0;
        let mut targets: Vec<(usize, usize, ReqId)> = Vec::new();
        for (ci, c) in self.channels.iter().enumerate() {
            for (wi, w) in c.wrq.iter().enumerate() {
                if !w.prepared && w.kind == WKind::Data {
                    targets.push((ci, wi, w.id));
                }
            }
        }
        targets.sort_by_key(|&(_, _, id)| id);
        if !targets.is_empty() {
            // Re-prepared writes (and any dependency reads they wire in)
            // become actionable at `now`.
            self.wakes.push((now, CtrlWake::WorkArrived));
        }
        // Prepare only appends to write queues, so the indices hold.
        for (ci, wi, _) in targets {
            self.prepare_entry(ci, wi, now);
        }
    }

    /// Issues the oldest read on an idle bank (`free`), demand reads only
    /// when `demand_allowed`.
    fn issue_read(
        &mut self,
        ch: usize,
        now: Instant,
        demand_allowed: bool,
        free: &mut u64,
    ) -> bool {
        let timing = self.cfg.timing;
        let lat = timing.read_latency();
        let c = &mut self.channels[ch];
        let candidates = if demand_allowed {
            c.reads.mask
        } else {
            c.dep_reads.mask
        };
        if candidates & *free == 0 {
            return false;
        }
        let idx = c.rdq.iter().position(|r| {
            (demand_allowed || r.kind != RKind::Demand) && *free & 1 << c.bit(r.bank) != 0
        });
        let Some(idx) = idx else { return false };
        let entry = c.remove_read(idx);
        let bank = entry.bank;
        *free &= !(1 << c.bit(bank));
        let nominal_burst = Instant::from_ps((now + lat).as_ps() - timing.t_burst.as_ps());
        let burst_start = self.channels[ch]
            .bus
            .reserve(nominal_burst, timing.t_burst, now);
        let completion = burst_start + timing.t_burst;
        self.banks[bank] = completion;
        self.channels[ch].occupy(bank, completion);
        self.wakes.push((completion, CtrlWake::BankFree));
        if self.recorder.is_enabled() {
            let class = match entry.kind {
                RKind::Demand => ReadClass::Demand,
                RKind::Smb => ReadClass::Smb,
                RKind::Metadata => ReadClass::Metadata,
            };
            self.recorder.record(
                completion,
                TraceRecord::ReadComplete {
                    class,
                    latency: completion.duration_since(entry.enqueued_at),
                },
            );
        }
        match entry.kind {
            RKind::Demand => {
                self.stats.demand_reads += 1;
                let latency = completion.duration_since(entry.enqueued_at);
                self.stats.demand_read_latency += latency;
                self.read_histogram.record(latency);
                self.completed_reads.push((entry.id, completion));
            }
            RKind::Smb | RKind::Metadata => {
                // The write may sit on another channel than its read (data
                // writes never overflow, so the write queues hold it).
                let write = self
                    .channels
                    .iter_mut()
                    .flat_map(|c| c.wrq.iter_mut())
                    .find(|w| Some(w.id) == entry.for_write);
                if let Some(w) = write {
                    w.outstanding -= 1;
                    w.ready_at = w.ready_at.max(completion);
                    if w.outstanding == 0 {
                        self.wakes.push((w.ready_at, CtrlWake::DepReady));
                    }
                }
            }
        }
        true
    }

    /// Issues the oldest dispatchable write on an idle bank (`free`).
    fn issue_write(&mut self, ch: usize, now: Instant, free: &mut u64) -> bool {
        let timing = self.cfg.timing;
        let c = &mut self.channels[ch];
        if c.writes.mask & *free == 0 {
            return false;
        }
        let idx = c.wrq.iter().position(|w| {
            w.prepared && w.outstanding == 0 && w.ready_at <= now && *free & 1 << c.bit(w.bank) != 0
        });
        let Some(idx) = idx else { return false };
        let entry = c.remove_write(idx);
        let bank = entry.bank;
        *free &= !(1 << c.bit(bank));
        let (t_wr, bits_set, bits_reset, cw_lrs) = match entry.kind {
            WKind::Data => {
                let cache_before = if self.recorder.is_enabled() {
                    self.policy.cache_counters()
                } else {
                    None
                };
                let r = self.policy.service(entry.addr, entry.data, &mut self.store);
                self.trace_cache_delta(now, cache_before, 0);
                (r.t_wr, r.bits_set, r.bits_reset, r.cw_lrs)
            }
            WKind::MetadataWriteback => {
                let t = self.policy.metadata_write_latency(entry.addr);
                let (s, r) = self.policy.metadata_writeback_bits(entry.addr, &self.store);
                (t, s, r, None)
            }
        };
        let mut lat = timing.write_latency(t_wr);
        let mut write_retry_time = Picos::ZERO;
        // Program-and-verify: each failed verify triggers exactly one
        // escalated retry pulse (verify read + longer RESET), extending
        // this write's bank occupancy so read blocking is modeled
        // honestly. A RetryPulse wake marks the start of every retry.
        if entry.kind == WKind::Data {
            if let Some(inj) = &mut self.fault_injector {
                let mut residual = inj.program(entry.addr, &mut self.store, 0, t_wr);
                let max_retries = inj.max_retries();
                let mut attempt = 0u32;
                let mut retry_time = Picos::ZERO;
                while residual > 0 && attempt < max_retries {
                    attempt += 1;
                    self.stats.failed_verifies += 1;
                    self.stats.retries_issued += 1;
                    // The verify read precedes the retry pulse.
                    let pulse = timing.write_latency(inj.retry_t_wr_at(entry.addr, t_wr, attempt));
                    let pulse_start = now + lat + retry_time + timing.read_latency();
                    self.wakes.push((pulse_start, CtrlWake::RetryPulse));
                    self.recorder.record(
                        pulse_start,
                        TraceRecord::VerifyRetry {
                            attempt,
                            failed_bits: residual,
                            pulse,
                        },
                    );
                    retry_time += timing.read_latency() + pulse;
                    residual = inj.program(entry.addr, &mut self.store, attempt, t_wr);
                }
                if residual > 0 {
                    // Budget exhausted with bits still failing: hand the
                    // residue to ECC / retire-and-remap. No verify is
                    // charged after the final pulse — nothing could act
                    // on it.
                    let resolved_at = now + lat + retry_time;
                    let resolution = inj.resolve(entry.addr, residual, &mut self.store);
                    if resolution.corrected {
                        self.stats.ecc_corrected_bits += residual as u64;
                        self.recorder
                            .record(resolved_at, TraceRecord::EccCorrection { bits: residual });
                    } else {
                        self.stats.uncorrectable_writes += 1;
                        self.recorder
                            .record(resolved_at, TraceRecord::Uncorrectable);
                    }
                    // Detail records only exist in non-default modes, so
                    // default-mode digests stay byte-identical.
                    if let Some(tier) = resolution.tier {
                        self.recorder.record(
                            resolved_at,
                            TraceRecord::TierEcc {
                                tier,
                                bits: residual,
                            },
                        );
                    }
                    if let Some((page, frame)) = resolution.remapped {
                        self.recorder
                            .record(resolved_at, TraceRecord::PadRemap { page, frame });
                    }
                }
                self.stats.retry_time += retry_time;
                write_retry_time = retry_time;
                lat += retry_time;
            }
        }
        let nominal_burst = Instant::from_ps((now + lat).as_ps() - timing.t_burst.as_ps());
        let burst_start = self.channels[ch]
            .bus
            .reserve(nominal_burst, timing.t_burst, now);
        let completion = burst_start + timing.t_burst;
        self.banks[bank] = completion;
        self.channels[ch].occupy(bank, completion);
        self.wakes.push((completion, CtrlWake::BankFree));
        // The write-queue slot frees the moment the write dispatches, so
        // writers rejected on a full queue can retry at `now`.
        self.wakes.push((now, CtrlWake::QueueSlotFree));
        if self.recorder.is_enabled() {
            let (wl, bl) = self.map.write_location(entry.addr);
            let (kind, t_worst, t_loc) = match entry.kind {
                WKind::Data => {
                    let bounds = self.policy.pulse_bounds(entry.addr);
                    let (w, l) = bounds
                        .map(|b| (b.worst, b.location))
                        .unwrap_or((t_wr, t_wr));
                    (PulseKind::Data, w, l)
                }
                WKind::MetadataWriteback => (PulseKind::Metadata, t_wr, t_wr),
            };
            self.recorder.record(
                now,
                TraceRecord::ResetPulse {
                    kind,
                    wl: wl as u32,
                    bl: bl as u32,
                    c_lrs: cw_lrs.map(u32::from).unwrap_or(C_LRS_UNTRACKED),
                    t_wr,
                    queue_wait: now.duration_since(entry.enqueued_at),
                    retry_time: write_retry_time,
                    service: completion.duration_since(now),
                    t_worst,
                    t_loc,
                },
            );
        }
        match entry.kind {
            WKind::Data => {
                self.stats.data_writes += 1;
                self.stats.write_service_time += completion.duration_since(now);
                self.stats.t_wr_data += t_wr;
            }
            WKind::MetadataWriteback => {
                self.stats.metadata_writes += 1;
                self.stats.t_wr_metadata += t_wr;
            }
        }
        self.stats.bits_set += bits_set as u64;
        self.stats.bits_reset += bits_reset as u64;
        if let Some(obs) = &mut self.observer {
            obs.as_observer().on_write(entry.addr, bits_set, bits_reset);
        }
        true
    }

    /// Drains every queue and returns the final completion time.
    ///
    /// Dirty metadata still resident in the LRS-metadata cache is *not*
    /// force-flushed: the paper measures steady state, where counters live
    /// in the cache indefinitely (power-loss durability is the Section 7
    /// crash-consistency discussion, exercised via
    /// [`WritePolicy::flush`]/lazy correction, not part of the
    /// measurement). Use [`MemoryController::flush_metadata`] to persist
    /// explicitly.
    ///
    /// # Panics
    ///
    /// Panics if the controller wedges (a scheduling bug) instead of
    /// silently reporting a truncated simulation.
    pub fn finish(&mut self, now: Instant) -> Instant {
        let now = self.drain_all(now);
        let busiest = self.banks.iter().copied().fold(Instant::ZERO, Instant::max);
        busiest.max(now)
    }

    /// Explicitly writes back all dirty metadata (an eADR-style flush) and
    /// drains, returning the completion time.
    pub fn flush_metadata(&mut self, mut now: Instant) -> Instant {
        loop {
            let dirty = self.policy.flush();
            if dirty.is_empty() {
                break;
            }
            for addr in dirty {
                self.enqueue_metadata_writeback(addr, now);
            }
            now = self.drain_all(now);
        }
        now
    }

    /// Event-driven drain: force write-drain mode, process, and hop from
    /// registered wake to registered wake until every queue empties.
    ///
    /// Invariant: after `process(now)`, a non-idle controller either has a
    /// registered future wake (an in-flight operation's bank frees, making
    /// the next head-of-queue entry issuable), or its only remaining work
    /// is spilled writes whose metadata could not be pinned — which
    /// `retry_spilled` re-prepares once their conflicting pins released.
    /// A second consecutive stall at the same instant means the retry
    /// changed nothing and no event can ever arrive: a scheduling bug,
    /// reported by panicking rather than silently truncating the
    /// simulation. (This replaces the old `stall_guard < 4` counter, which
    /// tolerated — and hid — repeated no-progress retries.)
    fn drain_all(&mut self, mut now: Instant) -> Instant {
        loop {
            for c in &mut self.channels {
                if !c.wrq.is_empty() || !c.write_overflow.is_empty() {
                    c.mode = Mode::WriteDrain;
                }
            }
            self.process(now);
            if self.is_idle() {
                break;
            }
            match self.next_wake(now) {
                Some(t) => now = t,
                None => {
                    self.retry_spilled(now);
                    self.process(now);
                    assert!(
                        self.is_idle() || self.next_wake(now).is_some(),
                        "controller wedged during finish: work queued at {now} \
                         with no future wake and nothing re-preparable"
                    );
                }
            }
        }
        now
    }
}

#[cfg(test)]
mod bus_tests {
    use super::*;

    fn ps(v: u64) -> Instant {
        Instant::from_ps(v)
    }

    #[test]
    fn reserves_nominal_slot_when_free() {
        let mut bus = BusSchedule::default();
        let start = bus.reserve(ps(100), Picos::from_ps(5), ps(0));
        assert_eq!(start, ps(100));
    }

    #[test]
    fn earlier_burst_fits_before_a_later_reservation() {
        let mut bus = BusSchedule::default();
        // A long-write burst far in the future.
        assert_eq!(bus.reserve(ps(700), Picos::from_ps(5), ps(0)), ps(700));
        // A read's burst at t=40 must NOT wait for it.
        assert_eq!(bus.reserve(ps(40), Picos::from_ps(5), ps(0)), ps(40));
    }

    #[test]
    fn overlapping_requests_serialize() {
        let mut bus = BusSchedule::default();
        assert_eq!(bus.reserve(ps(100), Picos::from_ps(5), ps(0)), ps(100));
        assert_eq!(bus.reserve(ps(102), Picos::from_ps(5), ps(0)), ps(105));
        assert_eq!(bus.reserve(ps(104), Picos::from_ps(5), ps(0)), ps(110));
    }

    #[test]
    fn gap_between_reservations_is_used() {
        let mut bus = BusSchedule::default();
        bus.reserve(ps(100), Picos::from_ps(5), ps(0));
        bus.reserve(ps(120), Picos::from_ps(5), ps(0));
        // A 5-ps burst wanted at 106 fits in the 105..120 gap.
        assert_eq!(bus.reserve(ps(106), Picos::from_ps(5), ps(0)), ps(106));
        // But a burst wanted at 117 collides with 120..125 and goes after.
        assert_eq!(bus.reserve(ps(117), Picos::from_ps(5), ps(0)), ps(125));
    }

    #[test]
    fn past_reservations_are_pruned() {
        let mut bus = BusSchedule::default();
        for i in 0..100u64 {
            bus.reserve(ps(i * 10), Picos::from_ps(5), ps(0));
        }
        // Advancing `now` prunes everything that ended.
        bus.reserve(ps(5000), Picos::from_ps(5), ps(2000));
        assert!(bus.slots.len() < 100, "prune must discard finished bursts");
    }

    #[test]
    fn reservations_never_overlap() {
        let mut bus = BusSchedule::default();
        let mut x = 9u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let nominal = x % 2_000;
            bus.reserve(ps(nominal), Picos::from_ps(5), ps(0));
        }
        let mut prev_end = 0;
        for &(s, e) in &bus.slots {
            assert!(s >= prev_end, "slots overlap: {s} < {prev_end}");
            assert!(e > s);
            prev_end = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{standard_tables, FixedWorstPolicy, LadderPolicy};
    use ladder_core::LadderVariant;
    use ladder_reram::Geometry;
    use ladder_xbar::{TableConfig, TimingTable};

    /// The standard LADDER timing table, built once per test binary.
    pub(super) fn table() -> TimingTable {
        static TABLE: std::sync::OnceLock<TimingTable> = std::sync::OnceLock::new();
        TABLE
            .get_or_init(|| standard_tables(&TableConfig::ladder_default()).ladder)
            .clone()
    }

    fn baseline_mc() -> MemoryController {
        let map = AddressMap::new(Geometry::default());
        let t = table();
        MemoryController::new(
            MemCtrlConfig::default(),
            map,
            Box::new(FixedWorstPolicy::new(&t)),
        )
    }

    fn ladder_mc(variant: LadderVariant) -> MemoryController {
        let map = AddressMap::new(Geometry::default());
        let policy = LadderPolicy::for_variant(variant, table(), map.clone());
        MemoryController::new(MemCtrlConfig::default(), map, Box::new(policy))
    }

    #[test]
    fn single_read_completes_with_device_latency() {
        let mut mc = baseline_mc();
        let t0 = Instant::ZERO;
        let id = mc.enqueue_read(LineAddr::new(1000), t0).expect("queued");
        mc.process(t0);
        let done: Vec<_> = mc.drain_completed_reads().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
        let lat = done[0].1.duration_since(t0);
        assert_eq!(lat, DeviceTiming::default().read_latency());
    }

    #[test]
    fn next_wake_prunes_stale_wakes_and_drain_keeps_registration_order() {
        use CtrlWake::*;
        let t = Instant::from_ps;
        let mut mc = baseline_mc();
        // Queued work keeps `next_wake` live (the enqueue registers a
        // WorkArrived at t = 0, which is stale below).
        assert!(mc.enqueue_write(LineAddr::new(5), [1; 64], t(0)));
        mc.wakes.extend([
            (t(30), BankFree),
            (t(10), DepReady),
            (t(20), QueueSlotFree),
            (t(40), ModeSwitch),
        ]);
        assert_eq!(mc.next_wake(t(10)), Some(t(20)));
        assert_eq!(
            mc.wakes,
            [
                (t(30), BankFree),
                (t(20), QueueSlotFree),
                (t(40), ModeSwitch)
            ]
        );
        assert_eq!(mc.next_wake(t(40)), None);
        assert!(mc.wakes.is_empty());

        // An event pump scheduling the drained outbox pops equal-instant
        // wakes in the order the controller registered them.
        mc.wakes.extend([
            (t(50), RetryPulse),
            (t(50), BankFree),
            (t(45), DepReady),
            (t(50), WorkArrived),
        ]);
        let mut pump = ladder_reram::EventQueue::new();
        for (at, wake) in mc.drain_wakes() {
            pump.schedule(at, wake);
        }
        assert!(mc.wakes.is_empty());
        let popped: Vec<_> = std::iter::from_fn(|| pump.pop()).collect();
        assert_eq!(
            popped,
            [
                (t(45), DepReady),
                (t(50), RetryPulse),
                (t(50), BankFree),
                (t(50), WorkArrived),
            ]
        );
    }

    #[test]
    fn write_coalescing_merges_same_address() {
        let mut mc = baseline_mc();
        let t0 = Instant::ZERO;
        assert!(mc.enqueue_write(LineAddr::new(5), [1; 64], t0));
        assert!(mc.enqueue_write(LineAddr::new(5), [2; 64], t0));
        mc.finish(t0);
        assert_eq!(mc.stats().data_writes, 1);
        assert_eq!(mc.store().read(LineAddr::new(5))[0], 2);
    }

    #[test]
    fn drain_blocks_demand_reads() {
        let mut mc = baseline_mc();
        let mut now = Instant::ZERO;
        // Fill one channel's write queue past the high watermark. Channel
        // of a page = page % 2, so pages 0, 2, 4, … share channel 0.
        let mut queued = 0u64;
        let mut page = 0u64;
        while queued < 55 {
            let addr = LineAddr::new(page * 128 * 64 / 64 * 64); // page*2 pages → channel 0
            let a = LineAddr::new((page * 2) * 64);
            let _ = addr;
            if mc.enqueue_write(a, [0xFF; 64], now) {
                queued += 1;
            }
            page += 1;
        }
        mc.process(now);
        // A demand read on channel 0 now sits behind the drain.
        let rid = mc.enqueue_read(LineAddr::new(0), now).expect("queued");
        mc.process(now);
        assert!(
            mc.drain_completed_reads().next().is_none(),
            "read must wait out the drain"
        );
        // Let the drain run its course.
        for _ in 0..100000 {
            match mc.next_wake(now) {
                Some(t) => now = t,
                None => break,
            }
            mc.process(now);
            if mc.drain_completed_reads().any(|(id, _)| id == rid) {
                // The read waited at least one worst-case write.
                assert!(now.duration_since(Instant::ZERO) >= Picos::from_ns(658.0));
                return;
            }
        }
        panic!("demand read never completed");
    }

    #[test]
    fn ladder_write_waits_for_metadata_fill() {
        let mut mc = ladder_mc(LadderVariant::Est);
        let t0 = Instant::ZERO;
        let first_data = {
            // Probe the policy for its layout through a temporary engine.
            let map = AddressMap::new(Geometry::default());
            let layout = ladder_core::MetadataLayout::new(
                map.geometry(),
                ladder_core::MetadataFormat::Partial,
            );
            layout.first_data_page() * 64
        };
        let addr = LineAddr::new(first_data);
        assert!(mc.enqueue_write(addr, [0x55; 64], t0));
        let end = mc.finish(t0);
        assert_eq!(mc.stats().data_writes, 1);
        assert_eq!(mc.stats().metadata_reads, 1);
        // Steady-state finish leaves the dirty counter cached; an explicit
        // eADR-style flush persists it.
        assert_eq!(mc.stats().metadata_writes, 0);
        let end = mc.flush_metadata(end);
        let stats = mc.stats();
        assert_eq!(stats.metadata_writes, 1);
        // The write could not start before its metadata fill returned.
        assert!(end.duration_since(t0) >= DeviceTiming::default().read_latency());
    }

    /// Event-pumps `mc` from `t0` until idle, the way the simulation
    /// kernel does, and returns every wake it registered on the way.
    fn pump_until_idle(mc: &mut MemoryController, t0: Instant) -> Vec<(Instant, CtrlWake)> {
        let mut pump = ladder_reram::EventQueue::new();
        let mut log = Vec::new();
        let mut now = t0;
        loop {
            mc.process(now);
            for (at, wake) in mc.drain_wakes() {
                log.push((at, wake));
                pump.schedule(at, wake);
            }
            if mc.is_idle() {
                return log;
            }
            let (at, _) = pump.pop().expect("a busy controller has a wake pending");
            now = now.max(at);
        }
    }

    /// Issue instants of the data writes in `mc`'s trace, oldest first.
    fn data_write_issues(mc: &MemoryController) -> Vec<Instant> {
        mc.trace_recorder()
            .events()
            .into_iter()
            .filter_map(|e| match e.record {
                TraceRecord::ResetPulse {
                    kind: PulseKind::Data,
                    ..
                } => Some(e.at),
                _ => None,
            })
            .collect()
    }

    /// Completion instants of the dependency reads in `mc`'s trace.
    fn dep_read_completions(mc: &MemoryController) -> Vec<Instant> {
        mc.trace_recorder()
            .events()
            .into_iter()
            .filter_map(|e| match e.record {
                TraceRecord::ReadComplete {
                    class: ReadClass::Smb | ReadClass::Metadata,
                    ..
                } => Some(e.at),
                _ => None,
            })
            .collect()
    }

    fn dep_ready_wakes(log: &[(Instant, CtrlWake)]) -> Vec<Instant> {
        log.iter()
            .filter(|&&(_, w)| w == CtrlWake::DepReady)
            .map(|&(at, _)| at)
            .collect()
    }

    /// The first line of the first data page whose (partial-format)
    /// metadata line decodes to the other channel, and that metadata
    /// line. The fill and the write occupy different banks.
    fn line_with_remote_metadata() -> (LineAddr, LineAddr) {
        let map = AddressMap::new(Geometry::default());
        let layout =
            ladder_core::MetadataLayout::new(map.geometry(), ladder_core::MetadataFormat::Partial);
        let first = layout.first_data_page();
        (first..first + 64)
            .map(|page| {
                let line = LineAddr::new(page * 64);
                (line, layout.metadata_for(map.wlg_of(line)).primary_line())
            })
            .find(|&(line, meta)| map.decode(meta).channel != map.decode(line).channel)
            .expect("some page's metadata line sits on the other channel")
    }

    #[test]
    fn est_write_waits_for_a_fill_on_the_other_channel() {
        let mut mc = ladder_mc(LadderVariant::Est);
        mc.set_trace_recorder(TraceRecorder::enabled());
        let (addr, meta) = line_with_remote_metadata();
        let t0 = Instant::ZERO;
        // A demand read holds the fill's bank first, so both channels are
        // scanned while the fill still waits in its read queue: only the
        // outstanding-read count holds the write back then.
        assert!(mc.enqueue_read(meta, t0).is_some());
        assert!(mc.enqueue_write(addr, [0x5A; 64], t0));
        let log = pump_until_idle(&mut mc, t0);
        assert_eq!(mc.stats().metadata_reads, 1);
        let fills = dep_read_completions(&mc);
        let read_latency = DeviceTiming::default().read_latency();
        assert_eq!(fills, [t0 + read_latency + read_latency]);
        assert_eq!(
            dep_ready_wakes(&log),
            fills,
            "DepReady at the fill's completion"
        );
        // The write's own bank is idle, so it issues exactly when the fill
        // returns.
        assert_eq!(data_write_issues(&mc), fills);
    }

    /// Holds `bank` busy until `until`, registering the BankFree wake an
    /// issued operation would have.
    fn occupy_bank(mc: &mut MemoryController, bank: usize, until: Instant) {
        mc.banks[bank] = until;
        for c in &mut mc.channels {
            if (c.first_bank..c.first_bank + c.bank_count).contains(&bank) {
                c.occupy(bank, until);
            }
        }
        mc.wakes.push((until, CtrlWake::BankFree));
    }

    /// The first line of each page in `pages` that decodes to channel
    /// `ch`, paired with its flat bank.
    fn lines_on_channel(
        mc: &MemoryController,
        ch: usize,
        pages: std::ops::Range<u64>,
    ) -> Vec<(LineAddr, usize)> {
        let map = mc.map();
        pages
            .map(|page| LineAddr::new(page * 64))
            .filter(|&line| map.decode(line).channel == ch)
            .map(|line| (line, map.decode(line).flat_bank(map.geometry())))
            .collect()
    }

    #[test]
    fn full_read_queue_issues_its_only_free_bank_entry_at_the_tail() {
        let mut mc = baseline_mc();
        let t0 = Instant::ZERO;
        let lines = lines_on_channel(&mc, 0, 0..4_096);
        let free_bank = lines[0].1;
        let busy_until = t0 + Picos::from_ns(1_000.0);
        let mut busy: Vec<_> = lines.iter().filter(|&&(_, b)| b != free_bank).collect();
        busy.truncate(mc.cfg.rdq_capacity - 1);
        assert_eq!(busy.len(), mc.cfg.rdq_capacity - 1);
        for &&(line, bank) in &busy {
            if mc.banks[bank] == t0 {
                occupy_bank(&mut mc, bank, busy_until);
            }
            assert!(mc.enqueue_read(line, t0).is_some());
        }
        let tail = mc.enqueue_read(lines[0].0, t0).expect("the last slot");
        assert!(!mc.can_enqueue_read(lines[0].0), "the read queue is full");
        mc.process(t0);
        let done: Vec<_> = mc.drain_completed_reads().collect();
        assert_eq!(
            done,
            [(tail, t0 + DeviceTiming::default().read_latency())],
            "only the tail entry's bank is free"
        );
        assert_eq!(mc.channels[0].rdq.len(), mc.cfg.rdq_capacity - 1);
        // The other reads all issue once their banks free.
        let end = mc.finish(t0);
        assert!(end > busy_until);
        assert_eq!(mc.stats().demand_reads, mc.cfg.rdq_capacity as u64);
    }

    #[test]
    fn write_drain_holds_demand_reads_on_free_banks_behind_a_blocked_dependency_read() {
        let mut mc = ladder_mc(LadderVariant::Est);
        mc.set_trace_recorder(TraceRecorder::enabled());
        let map = AddressMap::new(Geometry::default());
        let g = map.geometry().clone();
        let layout = ladder_core::MetadataLayout::new(&g, ladder_core::MetadataFormat::Partial);
        let first = layout.first_data_page();
        // A data page whose metadata line sits on another bank of the
        // page's own channel, so the fill and the drain share a read queue.
        let (page, meta) = (first..first + 256)
            .map(|page| {
                let line = LineAddr::new(page * 64);
                (line, layout.metadata_for(map.wlg_of(line)).primary_line())
            })
            .find(|&(line, meta)| {
                let (l, m) = (map.decode(line), map.decode(meta));
                l.channel == m.channel && l.flat_bank(&g) != m.flat_bank(&g)
            })
            .expect("some page's metadata line shares its channel");
        let ch = map.decode(page).channel;
        let write_bank = map.decode(page).flat_bank(&g);
        let fill_bank = map.decode(meta).flat_bank(&g);
        let t0 = Instant::ZERO;
        let busy_until = t0 + Picos::from_ns(2_000.0);
        occupy_bank(&mut mc, write_bank, busy_until);
        occupy_bank(&mut mc, fill_bank, busy_until);
        // The demand read queues first, on an idle bank.
        let (demand_line, _) = *lines_on_channel(&mc, ch, first..first + 256)
            .iter()
            .find(|&&(_, b)| b != write_bank && b != fill_bank)
            .expect("a free bank on the channel");
        let demand = mc.enqueue_read(demand_line, t0).expect("queued");
        // 60 writes to one page: the first misses the metadata cache and
        // queues the fill; the rest hit. The queue is past the drain mark.
        for i in 0..60u64 {
            assert!(mc.enqueue_write(LineAddr::new(page.raw() + i), [7; 64], t0));
        }
        mc.process(t0);
        assert_eq!(mc.channels[ch].mode, Mode::WriteDrain);
        assert!(mc.channels[ch].dep_overflow.is_empty());
        assert_eq!(mc.stats().metadata_reads, 1);
        assert!(
            mc.drain_completed_reads().next().is_none(),
            "a demand read must not issue during a drain"
        );
        assert_eq!(
            mc.channels[ch].rdq.len(),
            2,
            "the fill and the demand read wait"
        );
        pump_until_idle(&mut mc, t0);
        let fill = dep_read_completions(&mc);
        assert_eq!(fill.len(), 1);
        let done: Vec<_> = mc.drain_completed_reads().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, demand);
        // Once its bank frees, the fill overtakes the older demand read.
        let read_latency = DeviceTiming::default().read_latency();
        assert_eq!(fill, [busy_until + read_latency]);
        assert!(done[0].1 > fill[0], "the dependency read goes first");
        assert_eq!(mc.stats().data_writes, 60);
    }

    #[test]
    fn basic_write_waits_for_the_later_of_its_dependency_reads() {
        let mut mc = ladder_mc(LadderVariant::Basic);
        mc.set_trace_recorder(TraceRecorder::enabled());
        let first_data = ladder_core::MetadataLayout::new(
            AddressMap::new(Geometry::default()).geometry(),
            ladder_core::MetadataFormat::Exact,
        )
        .first_data_page()
            * 64;
        let t0 = Instant::ZERO;
        assert!(mc.enqueue_write(LineAddr::new(first_data), [0x33; 64], t0));
        let log = pump_until_idle(&mut mc, t0);
        let stats = mc.stats();
        assert_eq!(stats.smb_reads, 1);
        assert!(stats.metadata_reads >= 1);
        let deps = dep_read_completions(&mc);
        assert_eq!(deps.len() as u64, stats.smb_reads + stats.metadata_reads);
        let earliest = *deps.iter().min().expect("dependency reads");
        let latest = *deps.iter().max().expect("dependency reads");
        assert!(earliest < latest, "the reads complete at distinct instants");
        assert_eq!(
            dep_ready_wakes(&log),
            [latest],
            "one DepReady, at the later read"
        );
        let issued = data_write_issues(&mc);
        assert_eq!(issued.len(), 1);
        assert!(issued[0] >= latest, "issued {} before {latest}", issued[0]);
    }

    #[test]
    fn dependency_free_write_overtakes_a_blocked_one() {
        let mut mc = ladder_mc(LadderVariant::Est);
        mc.set_trace_recorder(TraceRecorder::enabled());
        let (first, _) = line_with_remote_metadata();
        let second = LineAddr::new(first.raw() + 1);
        let t0 = Instant::ZERO;
        // The first write misses the metadata cache and waits for its
        // fill; the second shares its page, hits the just-installed line
        // and has no dependency read.
        assert!(mc.enqueue_write(first, [1; 64], t0));
        assert!(mc.enqueue_write(second, [2; 64], t0));
        pump_until_idle(&mut mc, t0);
        assert_eq!(mc.stats().metadata_reads, 1);
        let fill = dep_read_completions(&mc);
        assert_eq!(fill.len(), 1);
        let issued = data_write_issues(&mc);
        assert_eq!(issued.len(), 2);
        assert_eq!(issued[0], t0, "the dependency-free write issues at once");
        assert!(issued[1] >= fill[0], "the blocked write waits for its fill");
    }

    #[test]
    fn crash_with_outstanding_dependencies_still_drains_later_writes() {
        let mut mc = ladder_mc(LadderVariant::Basic);
        let first_data = ladder_core::MetadataLayout::new(
            AddressMap::new(Geometry::default()).geometry(),
            ladder_core::MetadataFormat::Exact,
        )
        .first_data_page()
            * 64;
        let t0 = Instant::ZERO;
        for i in 0..8u64 {
            assert!(mc.enqueue_write(LineAddr::new(first_data + i * 64), [9; 64], t0));
        }
        // Nothing has been processed: every write's dependency reads are
        // still queued when power fails.
        mc.crash_recover();
        assert!(mc.is_idle());
        assert_eq!(mc.stats().data_writes, 0);
        for i in 0..8u64 {
            assert!(mc.enqueue_write(LineAddr::new(first_data + i * 64 + 1), [4; 64], t0));
        }
        mc.finish(t0);
        assert!(mc.is_idle());
        assert_eq!(mc.stats().data_writes, 8);
        assert_eq!(mc.store().read(LineAddr::new(first_data + 1))[0], 4);
    }

    #[test]
    fn basic_issues_smb_reads_per_write() {
        let mut mc = ladder_mc(LadderVariant::Basic);
        let t0 = Instant::ZERO;
        let first_data = {
            let map = AddressMap::new(Geometry::default());
            ladder_core::MetadataLayout::new(map.geometry(), ladder_core::MetadataFormat::Exact)
                .first_data_page()
                * 64
        };
        for i in 0..10u64 {
            assert!(mc.enqueue_write(LineAddr::new(first_data + i), [i as u8; 64], t0));
        }
        mc.finish(t0);
        let stats = mc.stats();
        assert_eq!(stats.data_writes, 10);
        assert_eq!(stats.smb_reads, 10);
        // One metadata fill (two lines) serves the whole page.
        assert_eq!(stats.metadata_reads, 2);
    }

    #[test]
    fn stats_additional_fractions() {
        let mut mc = ladder_mc(LadderVariant::Hybrid);
        let mut now = Instant::ZERO;
        let first_data = {
            let map = AddressMap::new(Geometry::default());
            ladder_core::MetadataLayout::new(
                map.geometry(),
                ladder_core::MetadataFormat::MultiGranularity {
                    low_precision_rows: 128,
                },
            )
            .first_data_page()
                * 64
        };
        // Interleave reads and writes across several pages.
        for i in 0..200u64 {
            let addr = LineAddr::new(first_data + (i * 17) % (8 * 64));
            if i % 3 == 0 {
                while mc.enqueue_read(addr, now).is_none() {
                    now = mc.next_wake(now).expect("progress");
                    mc.process(now);
                }
            } else {
                while !mc.enqueue_write(addr, [(i % 251) as u8; 64], now) {
                    now = mc.next_wake(now).expect("progress");
                    mc.process(now);
                }
            }
            mc.process(now);
        }
        mc.finish(now);
        let s = mc.stats();
        assert!(s.demand_reads > 0 && s.data_writes > 0);
        // Hybrid keeps metadata traffic small relative to demand traffic.
        assert!(s.additional_read_fraction() < 0.5);
        assert!(s.additional_write_fraction() < 0.5);
        assert!(mc.policy().cache_hit_ratio().expect("ladder has a cache") > 0.5);
    }

    #[test]
    fn observer_sees_every_write() {
        struct CountObs(std::sync::Arc<std::sync::atomic::AtomicU64>);
        impl AccessObserver for CountObs {
            fn on_write(&mut self, _addr: LineAddr, _s: u32, _r: u32) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut mc = baseline_mc();
        mc.set_observer(CountObs(counter.clone()));
        let t0 = Instant::ZERO;
        for i in 0..5u64 {
            assert!(mc.enqueue_write(LineAddr::new(i * 64), [3; 64], t0));
        }
        mc.finish(t0);
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 5);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::policy::LadderPolicy;
    use ladder_core::{LadderConfig, LadderVariant, MetadataCacheConfig};
    use ladder_reram::Geometry;

    /// Builds an Est controller with a deliberately tiny metadata cache so
    /// conflict sets fill up with pinned (shared) lines.
    fn tiny_cache_mc() -> MemoryController {
        let map = AddressMap::new(Geometry::default());
        let mut cfg = LadderConfig::for_variant(LadderVariant::Est);
        cfg.cache = MetadataCacheConfig {
            capacity_bytes: 4 * 64, // 4 lines, 4 ways → ONE set
            ways: 4,
            access_cycles: 2,
            spill_entries: 4,
        };
        let policy = LadderPolicy::new(cfg, tests::table(), map.clone());
        MemoryController::new(MemCtrlConfig::default(), map, Box::new(policy))
    }

    #[test]
    fn spill_path_eventually_services_every_write() {
        let mut mc = tiny_cache_mc();
        let mut now = Instant::ZERO;
        // Writes to many distinct pages: each pins a different metadata
        // line in the single cache set, forcing spills.
        let first_data = 40_000u64;
        let mut accepted = 0u64;
        for i in 0..200u64 {
            let addr = LineAddr::new((first_data + i * 7) * 64 + i % 64);
            while !mc.enqueue_write(addr, [(i % 251) as u8; 64], now) {
                now = mc.next_wake(now).expect("progress");
                mc.process(now);
            }
            accepted += 1;
            mc.process(now);
        }
        mc.finish(now);
        assert_eq!(mc.stats().data_writes, accepted);
        assert!(mc.is_idle());
    }

    #[test]
    fn dependency_read_overflow_drains() {
        let mut mc = tiny_cache_mc();
        let mut now = Instant::ZERO;
        // Saturate the read queue with demand reads, then enqueue writes
        // whose metadata fills must take the dep-overflow path.
        let first_data = 50_000u64;
        for i in 0..64u64 {
            let _ = mc.enqueue_read(LineAddr::new((first_data + i) * 64), now);
        }
        for i in 0..40u64 {
            let addr = LineAddr::new((first_data + 100 + i * 3) * 64);
            while !mc.enqueue_write(addr, [7; 64], now) {
                now = mc.next_wake(now).expect("progress");
                mc.process(now);
            }
        }
        let end = mc.finish(now);
        assert!(mc.is_idle());
        assert!(end > Instant::ZERO);
        assert_eq!(mc.stats().data_writes, 40);
    }

    #[test]
    fn interleaved_traffic_conserves_requests() {
        let mut mc = tiny_cache_mc();
        let mut now = Instant::ZERO;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut x = 42u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = LineAddr::new(40_000 * 64 + x % 100_000);
            if x.is_multiple_of(5) {
                if mc.enqueue_write(addr, [(x % 256) as u8; 64], now) {
                    writes += 1;
                }
            } else if mc.enqueue_read(addr, now).is_some() {
                reads += 1;
            }
            mc.process(now);
            if x.is_multiple_of(7) {
                if let Some(t) = mc.next_wake(now) {
                    now = t;
                    mc.process(now);
                }
            }
        }
        mc.finish(now);
        let s = mc.stats();
        assert_eq!(s.demand_reads, reads);
        // Coalescing can merge same-address writes; serviced ≤ accepted.
        assert!(s.data_writes <= writes);
        assert!(s.data_writes > 0);
    }
}
