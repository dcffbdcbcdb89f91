//! Structured tracing and mergeable metrics for the LADDER simulator.
//!
//! Three layers, each usable on its own:
//!
//! * **Records** ([`TraceRecord`]) — typed, sim-time-stamped events at the
//!   granularity the paper reasons about: kernel event dispatches, RESET
//!   pulses with their ⟨WL, BL, C^w_lrs⟩ coordinates, metadata-cache
//!   activity, program-and-verify retries, ECC resolutions.
//! * **Recording** ([`TraceRecorder`]) — a per-worker ring buffer that is
//!   free when disabled: one branch per call site, no allocation, no
//!   atomics (each simulation worker owns its recorder outright, which is
//!   what makes it lock-free). While recording it also folds every record
//!   into a running [`TraceDigest`] and a [`TraceTotals`] aggregate, so
//!   bounded ring capacity never loses accounting — only raw events.
//! * **Merging & export** ([`Mergeable`], [`chrome_trace_json`],
//!   [`time_attribution`]) — per-worker results fold deterministically at
//!   any `--jobs`, and an assembled [`Trace`] renders to chrome://tracing
//!   JSON or a per-phase write-latency attribution summary.
//!
//! # Examples
//!
//! ```
//! use ladder_reram::{Instant, Picos};
//! use ladder_trace::{DispatchKind, Trace, TraceRecord, TraceRecorder};
//!
//! let mut rec = TraceRecorder::with_capacity(16);
//! rec.record(
//!     Instant::from_ps(100),
//!     TraceRecord::KernelDispatch { kind: DispatchKind::CoreWake },
//! );
//! let trace = Trace::assemble(vec![("kernel", rec)]);
//! assert_eq!(trace.totals.dispatch(DispatchKind::CoreWake), 1);
//! assert_eq!(trace.records, 1);
//!
//! // A disabled recorder costs one branch and records nothing.
//! let mut off = TraceRecorder::disabled();
//! off.record(Instant::ZERO, TraceRecord::Uncorrectable);
//! assert_eq!(off.records(), 0);
//! ```

// Accounting code: a narrowing `as` cast must be justified where it is
// written (`#[expect(clippy::<lint>, reason = ..)]`).
#![deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

mod export;
mod histogram;
mod metrics;
mod record;
mod recorder;
mod slo;

pub use export::{chrome_trace_json, time_attribution};
pub use histogram::LatencyHistogram;
pub use metrics::{fold, Mergeable, TraceTotals};
pub use record::{DispatchKind, PulseKind, ReadClass, TraceEvent, TraceRecord, C_LRS_UNTRACKED};
pub use recorder::{merge_digests, Trace, TraceDigest, TracePart, TraceRecorder};
pub use slo::{qos_name, SloReport, SloRow, TenantGroup, TenantLatencies};
