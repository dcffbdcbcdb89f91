//! Full-system simulation and the paper's experiments.
//!
//! This crate assembles the substrates — crossbar timing tables
//! (`ladder-xbar`), the memory controller and scheme policies
//! (`ladder-memctrl`), cores (`ladder-cpu`), synthetic workloads
//! (`ladder-workloads`), energy (`ladder-energy`) and wear (`ladder-wear`)
//! — into runnable systems, and exposes one function per paper table or
//! figure in [`experiments`].
//!
//! The front door is the topology-aware [`SimConfig`] builder. Every
//! config — monolithic (one controller) or a sharded `channels × ranks`
//! [`Topology`] — runs through one simulate step and one shard fold:
//! [`run_sim`] returns the folded result, and [`run_sharded`] fans the
//! shards out on a [`Runner`] and keeps them, folding on demand with
//! [`ShardedRun::merged`] bit-reproducibly at any `--jobs`.

pub mod ablations;
pub mod config;
pub mod experiments;
pub mod overhead;
pub mod runner;
mod scheme;
pub mod service;
pub mod shard;
mod streams;
mod system;
pub mod wallclock;

pub use config::{SimConfig, SimConfigBuilder};
pub use runner::{default_jobs, AloneIpcCache, Runner, RunnerStats};
pub use scheme::Scheme;
pub use service::{tenant_window, ArrivalKind, ServiceConfig, ServiceConfigBuilder, ServiceStats};
pub use shard::{run_sharded, run_sim, ShardedRun};
pub use system::{CoreResult, EventCounts, RunResult, SystemBuilder};

// Re-exported so bench binaries can parse and build topologies without
// depending on ladder-reram directly.
pub use ladder_reram::{Interleave, Topology};

// Re-exported so bench binaries can sweep coding schemes and remap
// backends without depending on ladder-coding / ladder-wear directly.
pub use ladder_coding::{CodingKind, CodingStats};
pub use ladder_wear::RemapKind;
