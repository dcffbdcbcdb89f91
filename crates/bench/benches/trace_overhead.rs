//! Criterion bench gating the tracing subsystem's disabled-path cost
//! contract: with tracing off (the default), the controller's write hot
//! path must not allocate at all in steady state — neither driven
//! standalone nor handing its wakes and read completions to an event
//! queue the way the system kernel does — and a disabled
//! [`TraceRecorder`] must never allocate, nor may per-tenant latency
//! recording for a registered tenant. Run by `cargo test --benches`
//! (one checked iteration) and by `cargo bench` (measured).

// The counting allocator must implement `GlobalAlloc`, which is an unsafe
// trait; this is the one sanctioned unsafe block in the workspace
// (`unsafe_code` is denied everywhere else via `[workspace.lints]`).
#![allow(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use ladder_memctrl::{standard_tables, FixedWorstPolicy, MemCtrlConfig, MemoryController, ReqId};
use ladder_reram::{AddressMap, EventQueue, Geometry, Instant, LineAddr, Picos};
use ladder_trace::{DispatchKind, TenantLatencies, TraceRecord, TraceRecorder};
use ladder_xbar::{TableConfig, TimingTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter, so the benches can
/// assert "zero allocations" over a region of code.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A disabled recorder's `record` is a branch and nothing else: no ring,
/// no digest, no totals, and — gated here — no allocation, ever (not even
/// a first lazy one).
fn bench_disabled_recorder(c: &mut Criterion) {
    c.bench_function("trace_recorder_disabled_100k_records", |b| {
        b.iter(|| {
            let mut rec = TraceRecorder::disabled();
            let before = allocations();
            for i in 0..100_000u64 {
                rec.record(
                    Instant::from_ps(i),
                    TraceRecord::KernelDispatch {
                        kind: DispatchKind::CoreWake,
                    },
                );
            }
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "disabled TraceRecorder::record allocated"
            );
            black_box(rec.records())
        })
    });
}

/// Recording a read latency or a write for a tenant that `ensure`
/// registered is a lookup and an add: it must not allocate (a service run
/// records once per completed read and accepted write).
fn bench_tenant_recording(c: &mut Criterion) {
    const TENANTS: [&str; 3] = ["t0", "t1", "t2"];
    c.bench_function("tenant_latency_recording_10k", |b| {
        b.iter(|| {
            let mut tenants = TenantLatencies::default();
            for (i, name) in TENANTS.iter().enumerate() {
                tenants.ensure(name, 1_000 * (i as u64 + 1), i as u64 + 1);
            }
            let before = allocations();
            for i in 0..10_000u64 {
                let name = TENANTS[(i % 3) as usize];
                tenants.record_read(name, Picos::from_ps(1_000 + i * 37));
                tenants.note_write(name);
            }
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "recording for a registered tenant allocated"
            );
            assert_eq!(tenants.total_reads(), 10_000);
            black_box(tenants.total_writes())
        })
    });
}

/// Drives `writes` line writes through a controller, letting it drain
/// whenever the queue is full, and returns the finish time.
fn drive_writes(mc: &mut MemoryController, mut now: Instant, writes: u64) -> Instant {
    for i in 0..writes {
        let addr = LineAddr::new(40_000 * 64 + (i * 17 % 8192) * 64);
        while !mc.enqueue_write(addr, [i as u8; 64], now) {
            now = mc.next_wake(now).expect("progress");
            mc.process(now);
        }
        mc.process(now);
    }
    now
}

/// Hands the controller's registered wakes (`None`) and read completions
/// (`Some(id)`) to `events`, as the system kernel does after every
/// dispatch, and returns how many landed at `now`, the instant last
/// popped (those take the queue's same-instant lane).
fn absorb(mc: &mut MemoryController, events: &mut EventQueue<Option<ReqId>>, now: Instant) -> u64 {
    let mut at_now = 0;
    for (at, _) in mc.drain_wakes() {
        at_now += u64::from(at == now);
        events.schedule(at, None);
    }
    for (id, at) in mc.drain_completed_reads() {
        at_now += u64::from(at == now);
        events.schedule(at, Some(id));
    }
    at_now
}

/// Kernel-style driver: offers `ops` requests (every fourth a demand
/// read, the rest line writes), absorbing the controller's outbox into
/// `events` after every `process` and stepping time from that queue's
/// pops — never from `next_wake` — whenever the controller rejects.
/// Returns the last instant popped and how many events were scheduled
/// at the instant just popped.
fn pump_ops(
    mc: &mut MemoryController,
    events: &mut EventQueue<Option<ReqId>>,
    mut now: Instant,
    ops: u64,
) -> (Instant, u64) {
    let mut at_now = 0;
    for i in 0..ops {
        let addr = LineAddr::new(40_000 * 64 + (i * 17 % 8192) * 64);
        loop {
            let accepted = if i % 4 == 3 {
                mc.enqueue_read(addr, now).is_some()
            } else {
                mc.enqueue_write(addr, [i as u8; 64], now)
            };
            mc.process(now);
            at_now += absorb(mc, events, now);
            if accepted {
                break;
            }
            let (t, _) = events
                .pop()
                .expect("a rejecting controller has work pending");
            now = t;
        }
    }
    (now, at_now)
}

fn fresh_controller(table: &TimingTable) -> MemoryController {
    let map = AddressMap::new(Geometry::default());
    let policy = Box::new(FixedWorstPolicy::new(table));
    MemoryController::new(MemCtrlConfig::default(), map, policy)
}

/// With tracing disabled (the default controller state), the steady-state
/// write hot path — enqueue, drain scheduling, pulse issue, completion —
/// must be allocation-free: queues and event heaps keep their warmed
/// capacity, and the disabled recorder adds nothing. This is the gate that
/// the tracing subsystem costs nothing when off.
fn bench_write_hotpath_disabled(c: &mut Criterion) {
    let table = standard_tables(&TableConfig::ladder_default()).ladder;
    c.bench_function("controller_write_hotpath_tracing_disabled", |b| {
        b.iter(|| {
            let mut mc = fresh_controller(&table);
            // Warm-up: let every queue, heap and map reach capacity.
            let now = drive_writes(&mut mc, Instant::ZERO, 2_000);
            let before = allocations();
            let now = drive_writes(&mut mc, now, 2_000);
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "write hot path allocated with tracing disabled"
            );
            black_box(mc.finish(now))
        })
    });
}

/// The kernel's handoff — draining the controller's wake outbox and read
/// completions into the one event queue after every dispatch — must not
/// allocate either: both drains reuse the controller's buffers, and the
/// event heap and its same-instant lane keep their warmed capacity. The
/// measured ops must schedule wakes at the instant just popped, so the
/// lane is on the gated path.
fn bench_kernel_handoff_disabled(c: &mut Criterion) {
    let table = standard_tables(&TableConfig::ladder_default()).ladder;
    c.bench_function("controller_kernel_handoff_tracing_disabled", |b| {
        b.iter(|| {
            let mut mc = fresh_controller(&table);
            let mut events = EventQueue::new();
            let (now, _) = pump_ops(&mut mc, &mut events, Instant::ZERO, 4_000);
            let before = allocations();
            let (now, lane_events) = pump_ops(&mut mc, &mut events, now, 4_000);
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "kernel-style wake and completion handoff allocated"
            );
            assert!(lane_events > 0, "no event took the same-instant lane");
            // The drained wakes live in `events` now, so dispatch them
            // all before `finish`, as the kernel does.
            let mut now = now;
            while let Some((t, _)) = events.pop() {
                now = t;
                mc.process(now);
                absorb(&mut mc, &mut events, now);
            }
            let end = mc.finish(now);
            assert!(mc.stats().demand_reads > 0, "no read completion handed off");
            black_box(end)
        })
    });
}

/// The same hot path with an enabled recorder, for comparison in bench
/// output. Not allocation-gated: the ring buffer grows to its bounded
/// capacity on first use, which is the documented enabled-mode cost.
fn bench_write_hotpath_traced(c: &mut Criterion) {
    let table = standard_tables(&TableConfig::ladder_default()).ladder;
    c.bench_function("controller_write_hotpath_tracing_enabled", |b| {
        b.iter(|| {
            let mut mc = fresh_controller(&table);
            mc.set_trace_recorder(TraceRecorder::enabled());
            let now = drive_writes(&mut mc, Instant::ZERO, 4_000);
            let end = mc.finish(now);
            let rec = mc.take_trace_recorder();
            assert!(rec.records() > 0, "enabled recorder captured nothing");
            assert!(rec.totals().pulse_time > Picos::ZERO);
            black_box((end, rec.digest()))
        })
    });
}

criterion_group!(
    benches,
    bench_disabled_recorder,
    bench_tenant_recording,
    bench_write_hotpath_disabled,
    bench_kernel_handoff_disabled,
    bench_write_hotpath_traced
);
criterion_main!(benches);
