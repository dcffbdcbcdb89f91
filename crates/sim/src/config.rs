//! The topology-aware simulation configuration: [`SimConfig`] and its
//! builder — the single front door for launching simulations.
//!
//! A [`SimConfig`] names the scheme and workload of a run plus everything
//! that modifies it: an optional sharded [`Topology`], the address
//! [`Interleave`] policy, wear/fault/tracing options. Every config runs
//! through [`crate::run_sim`] (the folded result) or
//! [`crate::run_sharded`] (the per-shard results); `builder_for`
//! assembles each of its simulations.
//!
//! Construction goes through [`SimConfig::builder`]: the struct carries a
//! private unit field, so outside this module — elsewhere in ladder-sim
//! included — the compiler rejects a struct literal or a `..base` update,
//! and new knobs can be added without breaking callers.

use crate::experiments::{ExperimentConfig, Workload};
use crate::scheme::Scheme;
use crate::service::{feed_for, ServiceConfig};
use crate::streams::{StreamKey, StreamPool};
use crate::system::SystemBuilder;
use ladder_coding::CodingKind;
use ladder_faults::FaultConfig;
use ladder_memctrl::Tables;
use ladder_reram::{Geometry, Interleave, Topology};
use ladder_wear::{RemapKind, SegmentVwl};

/// Full description of one simulation: scheme, workload, topology and
/// every run-modifying option.
///
/// Build with [`SimConfig::builder`] (or [`SimConfig::new`] for a plain
/// `(scheme, workload)` cell):
///
/// ```
/// use ladder_sim::{Scheme, SimConfig, Topology};
/// use ladder_sim::experiments::Workload;
///
/// let cfg = SimConfig::builder()
///     .scheme(Scheme::LadderEst)
///     .workload(Workload::Single("astar"))
///     .topology("4x2".parse::<Topology>().unwrap())
///     .trace(true)
///     .build();
/// assert_eq!(cfg.topology.unwrap().channels, 4);
/// ```
///
/// A struct literal does not compile outside this module (the compiler
/// cannot construct it "due to private fields"):
///
/// ```compile_fail
/// use ladder_sim::{Scheme, SimConfig, Topology};
/// use ladder_sim::experiments::Workload;
/// use ladder_sim::{CodingKind, Interleave, RemapKind};
///
/// let cfg = SimConfig {
///     scheme: Scheme::Baseline,
///     workload: Workload::Single("astar"),
///     topology: None::<Topology>,
///     interleave: Interleave::Channel,
///     track_wear: false,
///     wear_leveling: false,
///     faults: None,
///     coding: CodingKind::Flat,
///     remap: RemapKind::Retire,
///     trace: false,
///     service: None,
/// };
/// ```
///
/// nor does a `..base` update of a built config:
///
/// ```compile_fail,E0451
/// use ladder_sim::{Scheme, SimConfig};
///
/// let base = SimConfig::builder().build();
/// let cfg = SimConfig { scheme: Scheme::LadderEst, ..base };
/// ```
#[derive(Debug, Clone, Copy)]
#[expect(
    clippy::manual_non_exhaustive,
    reason = "`#[non_exhaustive]` binds only other crates; the private field also rejects literals in ladder-sim's other modules"
)]
pub struct SimConfig {
    /// The write scheme under test.
    pub scheme: Scheme,
    /// The workload driving the cores.
    pub workload: Workload,
    /// Sharded topology: `Some(CxR)` runs one controller per channel;
    /// `None` is the paper's monolithic single-controller configuration.
    pub topology: Option<Topology>,
    /// Address striping policy (default: the legacy channel-fastest
    /// order).
    pub interleave: Interleave,
    /// Track per-line wear (Section 6.4).
    pub track_wear: bool,
    /// Wrap addresses with segment-based vertical wear-leveling and
    /// horizontal byte rotation (Section 6.4).
    pub wear_leveling: bool,
    /// Install the device fault model (stuck-at + transient write
    /// failures, P&V retries, ECC/remap recovery).
    pub faults: Option<FaultConfig>,
    /// Code scheme consulted by the fault model's resolve path. The
    /// default, [`CodingKind::Flat`], is the legacy flat-ECC budget —
    /// byte-identical to runs predating this knob. Only meaningful when
    /// `faults` is set.
    pub coding: CodingKind,
    /// Remap backend absorbing faulty pages. The default,
    /// [`RemapKind::Retire`], is the legacy one-way retirement pool —
    /// byte-identical to runs predating this knob. Only meaningful when
    /// `faults` is set.
    pub remap: RemapKind,
    /// Capture a structured trace ([`crate::RunResult::trace`]).
    pub trace: bool,
    /// Open-loop service mode: `Some` replaces the closed-loop cores with
    /// a timestamped multi-tenant request stream
    /// ([`crate::service::ServiceConfig`]); the `workload` field is then
    /// unused. `None` is the legacy closed-loop path, byte-compatible
    /// with the golden digests.
    pub service: Option<ServiceConfig>,
    /// Keeps construction in this module (see the type docs).
    _seal: (),
}

impl SimConfig {
    /// Starts a builder with the defaults: baseline scheme, `astar`
    /// single workload, monolithic topology, channel interleave, no
    /// tracking, no faults, no trace.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig {
                scheme: Scheme::Baseline,
                workload: Workload::Single("astar"),
                topology: None,
                interleave: Interleave::Channel,
                track_wear: false,
                wear_leveling: false,
                faults: None,
                coding: CodingKind::Flat,
                remap: RemapKind::Retire,
                trace: false,
                service: None,
                _seal: (),
            },
        }
    }

    /// A plain `(scheme, workload)` cell with every option at its
    /// default — the common case of evaluation matrices.
    pub fn new(scheme: Scheme, workload: Workload) -> Self {
        Self::builder().scheme(scheme).workload(workload).build()
    }

    /// Number of independent simulations this config describes: the shard
    /// count of its topology, or 1 for a monolithic run.
    pub fn shards(&self) -> usize {
        self.topology.map(|t| t.shards()).unwrap_or(1)
    }
}

/// Builder for [`SimConfig`] — see [`SimConfig::builder`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the write scheme under test.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the workload driving the cores.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.cfg.workload = workload;
        self
    }

    /// Requests a sharded `channels × ranks` run (one controller and
    /// event stream per channel); `None` keeps the monolithic default.
    pub fn topology(mut self, topology: impl Into<Option<Topology>>) -> Self {
        self.cfg.topology = topology.into();
        self
    }

    /// Sets the address striping policy.
    pub fn interleave(mut self, interleave: Interleave) -> Self {
        self.cfg.interleave = interleave;
        self
    }

    /// Tracks per-line wear (Section 6.4).
    pub fn track_wear(mut self, on: bool) -> Self {
        self.cfg.track_wear = on;
        self
    }

    /// Enables segment-based vertical wear-leveling plus horizontal byte
    /// rotation (Section 6.4).
    pub fn wear_leveling(mut self, on: bool) -> Self {
        self.cfg.wear_leveling = on;
        self
    }

    /// Installs the device fault model.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.faults = Some(faults);
        self
    }

    /// Selects the code scheme the fault model resolves residues with
    /// (default: the legacy flat-ECC budget).
    pub fn coding(mut self, kind: CodingKind) -> Self {
        self.cfg.coding = kind;
        self
    }

    /// Selects the remap backend absorbing faulty pages (default: the
    /// legacy one-way retirement pool).
    pub fn remap(mut self, kind: RemapKind) -> Self {
        self.cfg.remap = kind;
        self
    }

    /// Captures a structured trace ([`crate::RunResult::trace`]).
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Selects open-loop service mode: the run is driven by `service`'s
    /// timestamped multi-tenant request stream instead of closed-loop
    /// cores, and the result carries per-tenant latency statistics.
    pub fn service(mut self, service: ServiceConfig) -> Self {
        self.cfg.service = Some(service);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> SimConfig {
        self.cfg
    }
}

/// Assembles the [`SystemBuilder`] for one simulation of `cfg` over
/// `geometry` — the setup of every run: the simulate step's monolithic
/// run and shards, and the figure runs that override one builder knob
/// on top. `shard` stamps a shard identity into the run (workload seeds
/// and, when tracing, the trace record stream). The closed-loop core
/// streams come from `streams`: replays of a batch's shared recordings,
/// or live generators.
pub(crate) fn builder_for(
    cfg: &SimConfig,
    ecfg: &ExperimentConfig,
    tables: &Tables,
    geometry: Geometry,
    shard: Option<u32>,
    streams: &StreamPool,
) -> SystemBuilder {
    let mut b = SystemBuilder::with_tables(cfg.scheme, tables);
    b.geometry(geometry.clone());
    b.interleave(cfg.interleave);
    if let Some(s) = shard {
        b.shard(s);
    }
    if let Some(scfg) = &cfg.service {
        b.service(feed_for(scfg, ecfg, &geometry, shard));
    } else {
        for (core, bench) in cfg.workload.members().into_iter().enumerate() {
            let key = StreamKey::new(bench, core, ecfg, &geometry, shard);
            b.core(streams.take(&key), key.mlp());
        }
    }
    b.track_wear(cfg.track_wear);
    if cfg.wear_leveling {
        b.leveler(make_leveler(ecfg, &geometry));
        b.horizontal_leveling(true);
    }
    if let Some(fcfg) = cfg.faults {
        b.faults(fcfg);
        b.coding(cfg.coding);
        b.remap(cfg.remap);
    }
    b.tracing(cfg.trace);
    b
}

/// [`builder_for`] of one monolithic run of `scheme` on `workload` over
/// the default module, with live core streams: the base of the figure
/// runs that override one builder knob on top.
pub(crate) fn monolithic_builder(
    scheme: Scheme,
    workload: Workload,
    ecfg: &ExperimentConfig,
    tables: &Tables,
) -> SystemBuilder {
    builder_for(
        &SimConfig::new(scheme, workload),
        ecfg,
        tables,
        Geometry::default(),
        None,
        &StreamPool::default(),
    )
}

/// Segment-based VWL over the data region of `geometry`: 16 MB segments
/// (4096 pages), swapping every 100k writes.
fn make_leveler(ecfg: &ExperimentConfig, geometry: &Geometry) -> Box<SegmentVwl> {
    let total = geometry.pages() as u64;
    let base = total / 16;
    let pages_per_segment = 4096;
    let segments = (total - base) / pages_per_segment;
    Box::new(SegmentVwl::new(
        base,
        segments,
        pages_per_segment,
        100_000,
        ecfg.seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rustdoc does not check a `compile_fail` doctest's error, so the
    /// struct-literal example would keep "failing" with a stale field
    /// name. Its fields must be exactly the public fields of `SimConfig`.
    #[test]
    fn the_struct_literal_doctest_names_every_public_field() {
        let src = include_str!("config.rs");
        // The code lines between `open` and `close`, unindented.
        let block = |open: &str, close: &str| -> Vec<&str> {
            let start = src.find(open).expect("block opener") + open.len();
            let len = src[start..].find(close).expect("block closer");
            src[start..start + len].lines().map(str::trim).collect()
        };
        let field = |line: &str| {
            line.split_once(':')
                .map(|(name, _)| name.trim().to_string())
        };
        let doctest: Vec<String> = block("/// let cfg = SimConfig {\n", "/// };")
            .into_iter()
            .filter_map(|l| l.strip_prefix("///").and_then(field))
            .collect();
        let public: Vec<String> = block("pub struct SimConfig {\n", "\n}")
            .into_iter()
            .filter_map(|l| l.strip_prefix("pub ").and_then(field))
            .collect();
        assert!(public.len() >= 10, "parsed {public:?}");
        assert_eq!(doctest, public);
    }

    #[test]
    fn builder_defaults_are_the_monolithic_baseline() {
        let cfg = SimConfig::builder().build();
        assert_eq!(cfg.scheme, Scheme::Baseline);
        assert_eq!(cfg.workload, Workload::Single("astar"));
        assert!(cfg.topology.is_none());
        assert_eq!(cfg.interleave, Interleave::Channel);
        assert!(!cfg.track_wear && !cfg.wear_leveling);
        assert!(cfg.faults.is_none() && !cfg.trace);
        assert_eq!(cfg.coding, CodingKind::Flat);
        assert_eq!(cfg.remap, RemapKind::Retire);
        assert!(cfg.service.is_none());
        assert_eq!(cfg.shards(), 1);
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = SimConfig::builder()
            .scheme(Scheme::LadderHybrid)
            .workload(Workload::Mix("mix-1"))
            .topology(Topology::new(4, 2).unwrap())
            .interleave(Interleave::Page)
            .track_wear(true)
            .wear_leveling(true)
            .faults(FaultConfig::with_ber(7, 1e-5))
            .coding(CodingKind::TieredBch)
            .remap(RemapKind::Pad)
            .trace(true)
            .service(ServiceConfig::builder().load(6.0).build())
            .build();
        assert_eq!(cfg.scheme, Scheme::LadderHybrid);
        assert_eq!(cfg.shards(), 4);
        assert_eq!(cfg.interleave, Interleave::Page);
        assert!(cfg.track_wear && cfg.wear_leveling && cfg.trace);
        assert!(cfg.faults.is_some());
        assert_eq!(cfg.coding, CodingKind::TieredBch);
        assert_eq!(cfg.remap, RemapKind::Pad);
        assert_eq!(cfg.service.unwrap().load, 6.0);
    }
}
