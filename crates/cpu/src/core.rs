//! A bounded-MLP core model.
//!
//! Each core retires cache-resident instructions at its base IPC and
//! interacts with memory only at LLC-miss granularity. Reads occupy one of
//! `mlp` miss-status registers; when all are busy — or when a *critical*
//! (dependent) read is outstanding — the core stalls. Write-backs stall the
//! core only when the memory controller's write queue pushes back. This is
//! deliberately simpler than an out-of-order pipeline model, but it exposes
//! exactly the sensitivities the paper measures: read latency (queueing
//! behind write drains) and write-queue backpressure.
//!
//! # Event-kernel contract
//!
//! Cores are driven by a discrete-event kernel, not polled on a time
//! step. [`Core::next_action`] *posts* the core's next-ready instant:
//! `Idle { until: Some(t) }` promises the core has nothing to do strictly
//! before `t` (the kernel schedules exactly one wake there), while
//! `Idle { until: None }` means the core waits on an external event — a
//! read completion or controller queue space — and the kernel re-drives
//! it when one occurs. Calling `next_action` again at an instant where
//! the core is idle or blocked is harmless and changes no state, which is
//! what lets the kernel safely retry blocked cores after every controller
//! dispatch.

use crate::trace::{MemEvent, TraceOp, TraceSource};
use ladder_reram::{Instant, LineAddr, LineData, Picos};

/// Core model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Core cycle time (default 400 ps = 2.5 GHz).
    pub cycle: Picos,
    /// Instructions retired per cycle when no memory stall is pending
    /// (folds cache-hierarchy hit latencies into an effective rate).
    pub base_ipc: f64,
    /// Maximum outstanding LLC-miss reads (MSHRs).
    pub mlp: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            cycle: Picos::from_ps(400),
            // Effective IPC over the cache-resident instructions between
            // LLC misses. The trace abstracts the L1/L2/L3 hierarchy away,
            // so hit latencies are folded into this number: a 4-wide
            // out-of-order core sustains ~0.9 IPC on memory-intensive SPEC
            // code even when every access hits on-chip caches.
            base_ipc: 0.9,
            mlp: 8,
        }
    }
}

/// What the core asks of the simulator next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreAction {
    /// Issue this demand read (call [`Core::on_read_issued`] on success).
    IssueRead {
        /// Line to read.
        addr: LineAddr,
    },
    /// Enqueue this write-back (call [`Core::on_write_accepted`] on
    /// success; on failure retry when the controller drains).
    IssueWrite {
        /// Line to write.
        addr: LineAddr,
        /// New contents.
        data: Box<LineData>,
    },
    /// Nothing to do before `until` (compute phase or stall).
    Idle {
        /// When the core can act again; `None` means it waits on an
        /// external completion (read return or queue space).
        until: Option<Instant>,
    },
    /// Trace exhausted and all outstanding reads returned.
    Finished,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Blocked {
    None,
    /// All MSHRs busy; wake on any read completion.
    Mlp,
    /// A critical read is outstanding; wake when that id completes.
    Critical(u64),
    /// The write queue rejected the write; retry it.
    WriteQueue(Box<(LineAddr, LineData)>),
}

/// The core state machine.
///
/// # Examples
///
/// ```
/// use ladder_cpu::{Core, CoreAction, CoreConfig, MemEvent, TraceOp, VecTrace};
/// use ladder_reram::{Instant, LineAddr};
///
/// let trace = VecTrace::new(
///     "demo",
///     vec![MemEvent {
///         gap_instructions: 400,
///         op: TraceOp::Read { addr: LineAddr::new(7), critical: false },
///     }],
/// );
/// let cfg = CoreConfig { base_ipc: 4.0, ..CoreConfig::default() };
/// let mut core = Core::new(cfg, Box::new(trace));
/// // 400 instructions at IPC 4 and 400 ps/cycle → ready at 40 ns.
/// match core.next_action(Instant::ZERO) {
///     CoreAction::Idle { until: Some(t) } => assert_eq!(t.as_ps(), 40_000),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Core {
    config: CoreConfig,
    trace: Box<dyn TraceSource>,
    /// Core-local time up to which computation is already accounted.
    cursor: Instant,
    retired: u64,
    pending: Option<MemEvent>,
    /// Ids of issued, not yet completed reads: at most `mlp` of them, so
    /// a linear scan beats hashing.
    outstanding: Vec<u64>,
    blocked: Blocked,
    trace_done: bool,
    stall_time: Picos,
    last_stall_start: Option<Instant>,
}

impl std::fmt::Debug for Box<dyn TraceSource> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceSource({})", self.label())
    }
}

impl Core {
    /// Creates a core running `trace`.
    pub fn new(config: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        Self {
            config,
            trace,
            cursor: Instant::ZERO,
            retired: 0,
            pending: None,
            outstanding: Vec::with_capacity(config.mlp),
            blocked: Blocked::None,
            trace_done: false,
            stall_time: Picos::ZERO,
            last_stall_start: None,
        }
    }

    /// Instructions retired so far.
    pub fn retired_instructions(&self) -> u64 {
        self.retired
    }

    /// Total time spent stalled on memory.
    pub fn stall_time(&self) -> Picos {
        self.stall_time
    }

    /// Workload label.
    pub fn label(&self) -> &str {
        self.trace.label()
    }

    /// Instructions per cycle achieved up to `now`.
    pub fn ipc(&self, now: Instant) -> f64 {
        let cycles = now.as_ps() as f64 / self.config.cycle.as_ps() as f64;
        if cycles == 0.0 {
            0.0
        } else {
            self.retired as f64 / cycles
        }
    }

    fn gap_time(&self, instructions: u64) -> Picos {
        let cycles = instructions as f64 / self.config.base_ipc;
        Picos::from_ps((cycles * self.config.cycle.as_ps() as f64).ceil() as u64)
    }

    fn begin_stall(&mut self, now: Instant) {
        if self.last_stall_start.is_none() {
            self.last_stall_start = Some(now);
        }
    }

    fn end_stall(&mut self, now: Instant) {
        if let Some(start) = self.last_stall_start.take() {
            if now > start {
                self.stall_time += now.duration_since(start);
            }
        }
    }

    /// Decides the core's next step at time `now`.
    pub fn next_action(&mut self, now: Instant) -> CoreAction {
        match &self.blocked {
            Blocked::None => {}
            Blocked::Mlp | Blocked::Critical(_) => {
                self.begin_stall(now);
                return CoreAction::Idle { until: None };
            }
            Blocked::WriteQueue(boxed) => {
                let (addr, data) = (boxed.0, boxed.1);
                self.begin_stall(now);
                return CoreAction::IssueWrite {
                    addr,
                    data: Box::new(data),
                };
            }
        }
        if self.pending.is_none() {
            match self.trace.next_event() {
                Some(ev) => {
                    // Account the compute gap into the local time cursor.
                    let gap = self.gap_time(ev.gap_instructions);
                    self.retired += ev.gap_instructions;
                    self.cursor = self.cursor.max(now) + gap;
                    self.pending = Some(ev);
                }
                None => self.trace_done = true,
            }
        }
        if self.trace_done && self.pending.is_none() {
            return if self.outstanding.is_empty() {
                CoreAction::Finished
            } else {
                CoreAction::Idle { until: None }
            };
        }
        if self.cursor > now {
            return CoreAction::Idle {
                until: Some(self.cursor),
            };
        }
        // The memory op is due now.
        #[expect(clippy::expect_used, reason = "step() set pending on this same path")]
        let ev = self.pending.as_ref().expect("pending op");
        match &ev.op {
            TraceOp::Read { addr, .. } => {
                if self.outstanding.len() >= self.config.mlp {
                    self.blocked = Blocked::Mlp;
                    self.begin_stall(now);
                    CoreAction::Idle { until: None }
                } else {
                    CoreAction::IssueRead { addr: *addr }
                }
            }
            TraceOp::Write { addr, data } => CoreAction::IssueWrite {
                addr: *addr,
                data: data.clone(),
            },
        }
    }

    /// The pending read was accepted by the controller under `id`.
    ///
    /// # Panics
    ///
    /// Panics if no read was pending.
    pub fn on_read_issued(&mut self, id: u64, now: Instant) {
        #[expect(clippy::expect_used, reason = "# Panics contract: a read is pending")]
        let ev = self.pending.take().expect("a read must be pending");
        let critical = match ev.op {
            TraceOp::Read { critical, .. } => critical,
            #[expect(clippy::panic, reason = "# Panics contract: only reads are issued")]
            TraceOp::Write { .. } => panic!("pending op is a write"),
        };
        self.retired += 1;
        self.outstanding.push(id);
        if critical {
            self.blocked = Blocked::Critical(id);
            self.begin_stall(now);
        }
    }

    /// The pending read was rejected (read queue full); the core stalls
    /// until the simulator retries.
    pub fn on_read_rejected(&mut self, now: Instant) {
        self.begin_stall(now);
    }

    /// A previously issued read completed.
    pub fn on_read_completed(&mut self, id: u64, at: Instant) {
        if let Some(i) = self.outstanding.iter().position(|&o| o == id) {
            self.outstanding.swap_remove(i);
        }
        match self.blocked {
            Blocked::Critical(waiting) if waiting == id => {
                self.blocked = Blocked::None;
                self.end_stall(at);
                self.cursor = self.cursor.max(at);
            }
            Blocked::Mlp => {
                self.blocked = Blocked::None;
                self.end_stall(at);
                self.cursor = self.cursor.max(at);
            }
            _ => {}
        }
    }

    /// The pending (or retried) write was accepted.
    ///
    /// # Panics
    ///
    /// Panics if no write was pending.
    pub fn on_write_accepted(&mut self, now: Instant) {
        match std::mem::replace(&mut self.blocked, Blocked::None) {
            Blocked::WriteQueue(_) => {
                self.end_stall(now);
                self.cursor = self.cursor.max(now);
                self.retired += 1;
            }
            Blocked::None => {
                #[expect(clippy::expect_used, reason = "# Panics contract: a write is pending")]
                let ev = self.pending.take().expect("a write must be pending");
                debug_assert!(matches!(ev.op, TraceOp::Write { .. }));
                self.retired += 1;
            }
            #[expect(
                clippy::panic,
                reason = "the simulator never accepts a write to a read-blocked core"
            )]
            other => {
                self.blocked = other;
                panic!("write accepted while blocked on a read");
            }
        }
    }

    /// The pending write was rejected (write queue full); the core blocks
    /// until the simulator retries successfully.
    ///
    /// # Panics
    ///
    /// Panics if no write was pending.
    pub fn on_write_rejected(&mut self, now: Instant) {
        if matches!(self.blocked, Blocked::WriteQueue(_)) {
            self.begin_stall(now);
            return;
        }
        #[expect(clippy::expect_used, reason = "# Panics contract: a write is pending")]
        let ev = self.pending.take().expect("a write must be pending");
        match ev.op {
            TraceOp::Write { addr, data } => {
                self.blocked = Blocked::WriteQueue(Box::new((addr, *data)));
                self.begin_stall(now);
            }
            #[expect(clippy::panic, reason = "# Panics contract: a write is pending")]
            TraceOp::Read { .. } => panic!("pending op is a read"),
        }
    }

    /// Whether the core has consumed its whole trace and drained its reads.
    pub fn is_finished(&self) -> bool {
        self.trace_done && self.pending.is_none() && self.outstanding.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;

    fn read_ev(gap: u64, addr: u64, critical: bool) -> MemEvent {
        MemEvent {
            gap_instructions: gap,
            op: TraceOp::Read {
                addr: LineAddr::new(addr),
                critical,
            },
        }
    }

    fn write_ev(gap: u64, addr: u64) -> MemEvent {
        MemEvent {
            gap_instructions: gap,
            op: TraceOp::Write {
                addr: LineAddr::new(addr),
                data: Box::new([1; 64]),
            },
        }
    }

    fn core_with(events: Vec<MemEvent>) -> Core {
        // Tests pin base_ipc to 4 for round numbers.
        let cfg = CoreConfig {
            base_ipc: 4.0,
            ..CoreConfig::default()
        };
        Core::new(cfg, Box::new(VecTrace::new("test", events)))
    }

    #[test]
    fn compute_gap_advances_cursor() {
        let mut c = core_with(vec![read_ev(4000, 1, false)]);
        match c.next_action(Instant::ZERO) {
            CoreAction::Idle { until: Some(t) } => {
                // 4000 instr / 4 IPC = 1000 cycles = 400 000 ps.
                assert_eq!(t.as_ps(), 400_000);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.retired_instructions(), 4000);
        // At the due time the read is offered.
        match c.next_action(Instant::from_ps(400_000)) {
            CoreAction::IssueRead { addr } => assert_eq!(addr, LineAddr::new(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn critical_read_blocks_until_completion() {
        let mut c = core_with(vec![read_ev(0, 1, true), read_ev(0, 2, false)]);
        let t0 = Instant::ZERO;
        assert!(matches!(c.next_action(t0), CoreAction::IssueRead { .. }));
        c.on_read_issued(77, t0);
        // Blocked: no further actions.
        assert!(matches!(
            c.next_action(t0),
            CoreAction::Idle { until: None }
        ));
        let t1 = Instant::from_ps(50_000);
        c.on_read_completed(77, t1);
        // Second read becomes available, not before t1.
        match c.next_action(t1) {
            CoreAction::IssueRead { addr } => assert_eq!(addr, LineAddr::new(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stall_time(), Picos::from_ps(50_000));
    }

    #[test]
    fn mlp_limit_blocks_nth_read() {
        let cfg = CoreConfig {
            mlp: 2,
            base_ipc: 4.0,
            ..CoreConfig::default()
        };
        let mut c = Core::new(
            cfg,
            Box::new(VecTrace::new(
                "t",
                vec![
                    read_ev(0, 1, false),
                    read_ev(0, 2, false),
                    read_ev(0, 3, false),
                ],
            )),
        );
        let t0 = Instant::ZERO;
        for id in 0..2 {
            assert!(matches!(c.next_action(t0), CoreAction::IssueRead { .. }));
            c.on_read_issued(id, t0);
        }
        // Third read hits the MLP wall.
        assert!(matches!(
            c.next_action(t0),
            CoreAction::Idle { until: None }
        ));
        c.on_read_completed(0, Instant::from_ps(10_000));
        assert!(matches!(
            c.next_action(Instant::from_ps(10_000)),
            CoreAction::IssueRead { .. }
        ));
    }

    #[test]
    fn write_rejection_blocks_and_retries() {
        let mut c = core_with(vec![write_ev(0, 9), read_ev(0, 1, false)]);
        let t0 = Instant::ZERO;
        match c.next_action(t0) {
            CoreAction::IssueWrite { addr, .. } => assert_eq!(addr, LineAddr::new(9)),
            other => panic!("unexpected {other:?}"),
        }
        c.on_write_rejected(t0);
        // Retry presents the same write.
        let t1 = Instant::from_ps(5_000);
        match c.next_action(t1) {
            CoreAction::IssueWrite { addr, .. } => assert_eq!(addr, LineAddr::new(9)),
            other => panic!("unexpected {other:?}"),
        }
        c.on_write_accepted(t1);
        assert_eq!(c.stall_time(), Picos::from_ps(5_000));
        assert!(matches!(c.next_action(t1), CoreAction::IssueRead { .. }));
    }

    #[test]
    fn finishes_after_trace_and_outstanding_drain() {
        let mut c = core_with(vec![read_ev(0, 1, false)]);
        let t0 = Instant::ZERO;
        assert!(matches!(c.next_action(t0), CoreAction::IssueRead { .. }));
        c.on_read_issued(1, t0);
        assert!(matches!(
            c.next_action(t0),
            CoreAction::Idle { until: None }
        ));
        assert!(!c.is_finished());
        c.on_read_completed(1, Instant::from_ps(100));
        assert!(matches!(
            c.next_action(Instant::from_ps(100)),
            CoreAction::Finished
        ));
        assert!(c.is_finished());
    }

    #[test]
    fn ipc_reflects_retirement() {
        let mut c = core_with(vec![read_ev(8000, 1, false)]);
        let _ = c.next_action(Instant::ZERO);
        // 8000 instructions accounted; at their due time IPC = 4.
        let due = Instant::from_ps(800_000);
        assert!((c.ipc(due) - 4.0).abs() < 1e-9);
    }
}
