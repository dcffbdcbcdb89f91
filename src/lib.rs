#![warn(missing_docs)]

//! LADDER — content- and location-aware writes for crossbar ReRAM.
//!
//! This facade crate re-exports the whole reproduction workspace:
//!
//! * [`xbar`] — crossbar circuit model and timing tables
//! * [`reram`] — memory geometry, addressing, time base
//! * [`core`] — the LADDER engine (counters, metadata, cache, FNW, shifting)
//! * [`baselines`] — Split-reset, BLP, compression
//! * [`memctrl`] — the cycle-level memory controller and write policies
//! * [`cpu`] — the trace-driven core model
//! * [`workloads`] — synthetic SPEC/PARSEC stand-ins
//! * [`energy`] — dynamic energy model
//! * [`wear`] — wear-leveling, lifetime, and remapping backends
//! * [`coding`] — location-dependent error channel and code schemes
//! * [`faults`] — device fault injection, program-and-verify, ECC/remap
//! * [`trace`] — structured tracing, mergeable metrics, chrome exporter
//! * [`sim`] — the system simulator and paper experiments
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.
//!
//! # Examples
//!
//! ```
//! use ladder::sim::{Scheme, SystemBuilder};
//! use ladder::cpu::{MemEvent, TraceOp, VecTrace};
//! use ladder::memctrl::standard_tables;
//! use ladder::reram::LineAddr;
//! use ladder::xbar::TableConfig;
//!
//! let tables = standard_tables(&TableConfig::ladder_default());
//! let trace = VecTrace::new(
//!     "demo",
//!     vec![MemEvent {
//!         gap_instructions: 100,
//!         op: TraceOp::Write { addr: LineAddr::new(40_000 * 64), data: Box::new([1; 64]) },
//!     }],
//! );
//! let mut b = SystemBuilder::with_tables(Scheme::LadderHybrid, &tables);
//! b.core(Box::new(trace), 8);
//! let result = b.run();
//! assert_eq!(result.mem.data_writes, 1);
//! ```
//!
//! The experiment entry points in [`sim::experiments`] run through the
//! work-stealing [`sim::Runner`], which executes independent
//! [`sim::SimConfig`] jobs across threads while keeping output
//! byte-identical to a sequential run. A multi-channel [`sim::Topology`]
//! (`--topology CxR`) shards a run into one controller and event stream
//! per channel; [`sim::run_sim`] and [`sim::run_sharded`] accept every
//! config and fold the shards bit-reproducibly at any worker count.

/// The shared `(ladder, blp)` timing-table bundle, re-exported at the top
/// level because nearly every entry point takes one.
pub use ladder_memctrl::Tables;
/// Per-event-kind dispatch counters of the discrete-event kernel.
pub use ladder_sim::EventCounts;
/// The topology-aware run API: builder-constructed configs, the folded
/// run and the per-shard run.
pub use ladder_sim::{run_sharded, run_sim, Interleave, ShardedRun, SimConfig, Topology};
/// The parallel experiment runner and its job/statistics types.
pub use ladder_sim::{AloneIpcCache, Runner, RunnerStats};

pub use ladder_baselines as baselines;
pub use ladder_coding as coding;
pub use ladder_core as core;
pub use ladder_cpu as cpu;
pub use ladder_energy as energy;
pub use ladder_faults as faults;
pub use ladder_memctrl as memctrl;
pub use ladder_reram as reram;
pub use ladder_sim as sim;
pub use ladder_trace as trace;
pub use ladder_wear as wear;
pub use ladder_workloads as workloads;
pub use ladder_xbar as xbar;
