//! LADDER: content- and location-aware writes for crossbar ReRAM — the
//! paper's primary contribution.
//!
//! The memory controller cannot see what a crossbar stores, yet RESET
//! latency depends on it. LADDER closes that gap *from the processor side*:
//! it maintains **LRS-metadata** — per-wordline-group counts of `1` bits —
//! in a reserved slice of main memory, caches the hot lines on-chip, and
//! feeds `⟨WL, BL, C^w_lrs⟩` into a precomputed timing table on every
//! write. Three variants trade accuracy for maintenance traffic:
//!
//! * [`LadderVariant::Basic`] — exact 10-bit counters, needs a stale-block
//!   read per write;
//! * [`LadderVariant::Est`] — 2-bit partial counters bounding the worst
//!   byte per sub-group (no stale reads) plus intra-line bit shifting;
//! * [`LadderVariant::Hybrid`] — Est with 1-bit counters for bottom rows,
//!   whose latency barely depends on content.
//!
//! The crate is pure control logic: queueing and timing live in
//! `ladder-memctrl`, the latency physics in `ladder-xbar`.
//!
//! # Examples
//!
//! ```
//! use ladder_core::{LadderConfig, LadderEngine, LadderVariant};
//! use ladder_reram::{AddressMap, Geometry, LineAddr, LineStore};
//!
//! let map = AddressMap::new(Geometry::default());
//! let mut engine = LadderEngine::new(LadderConfig::for_variant(LadderVariant::Hybrid), map);
//! let mut store = LineStore::new();
//!
//! // A write: prepare when queued (metadata fill), service at dispatch.
//! let addr = LineAddr::new(engine.layout().first_data_page() * 64);
//! let prep = engine.prepare_write(addr);
//! assert!(!prep.spilled);
//! let out = engine.service_write(addr, [0b1111_0000; 64], &mut store);
//! assert!(out.cw_lrs <= 512);
//! ```

pub use ladder_reram::bits;

mod cache;
mod counters;
mod engine;
mod fnw;
mod metadata;
mod partial;
mod shift;

pub use cache::{CacheStats, InsertOutcome, MetadataCache, MetadataCacheConfig};
pub use counters::{ExactCwCounts, LrsCounterGroup, COUNTER_MAX, LINES_PER_GROUP, PACKED_BYTES};
pub use engine::{
    DependencyRead, EngineStats, LadderConfig, LadderEngine, LadderVariant, PrepareOutcome,
    ReadKind, ServiceOutcome,
};
pub use fnw::{apply_fnw, undo_fnw, FnwOutcome, FnwPolicy, WORDS_PER_LINE, WORD_BYTES};
pub use metadata::{MetadataFormat, MetadataLayout, MetadataRef};
pub use partial::{
    estimate_cw_lrs, estimate_cw_lrs_low, exact_cw_lrs, LowPrecisionCounters, PartialCounters,
    BYTES_PER_SUBGROUP, SUBGROUPS,
};
pub use shift::{shift_line, unshift_line};
