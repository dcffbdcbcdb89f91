//! The run path: every [`SimConfig`] goes through one simulate step and
//! one shard fold.
//!
//! A monolithic config (no topology) is one controller over
//! `Geometry::default()` with unsalted workload seeds. A topology
//! `C x R` splits the module into `C` shards, each a one-channel slice
//! ([`Topology::shard_geometry`]) driven by its own
//! [`crate::system::SystemBuilder`]-built event kernel with a
//! shard-salted workload stream. Shards are fully independent
//! simulations, so they fan out on the work-stealing [`Runner`] — and
//! because the runner returns results in submission order, the fold and
//! its merged golden-trace digest are bit-identical at any `--jobs`.
//!
//! [`run_sim`] returns the folded result; [`run_sharded`] keeps the
//! per-shard results and folds them on demand ([`ShardedRun::merged`]).
//! Both accept every config.

use std::borrow::Cow;

use crate::config::{builder_for, SimConfig};
use crate::experiments::ExperimentConfig;
use crate::runner::{Runner, RunnerStats};
use crate::scheme::Scheme;
use crate::service::ServiceStats;
use crate::streams::StreamPool;
use crate::system::{EventCounts, RunResult};
use ladder_coding::CodingStats;
use ladder_energy::EnergyBreakdown;
use ladder_faults::FaultStats;
use ladder_memctrl::{LatencyHistogram, MemStats, Tables};
use ladder_reram::{Geometry, Instant, Interleave, Topology};
use ladder_trace::{merge_digests, Mergeable, Trace, TraceTotals};

/// Outcome of [`run_sharded`]: the per-shard results and the batch
/// timings. [`ShardedRun::merged`] folds the shards into one result.
#[derive(Debug)]
pub struct ShardedRun {
    /// The topology that was simulated; `None` for a monolithic run.
    pub topology: Option<Topology>,
    /// The address striping policy the shards decoded with.
    pub interleave: Interleave,
    /// Per-shard results, in shard-index (= channel) order. A monolithic
    /// run has exactly one.
    pub shards: Vec<RunResult>,
    /// Timing observability for the shard batch. Empty for a monolithic
    /// run, which runs inline on the caller's thread.
    pub stats: RunnerStats,
}

impl ShardedRun {
    /// The shards folded into one result, exactly as [`run_sim`] returns
    /// it for the same config.
    pub fn merged(&self) -> RunResult {
        fold_shards(self.topology, Cow::Borrowed(&self.shards))
    }

    /// Renders a human-readable report of the per-shard and merged run.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let shape = self
            .topology
            .map_or_else(|| "monolithic".to_string(), |t| format!("topology {t}"));
        let _ = writeln!(
            out,
            "{shape} ({} interleave), {} shards",
            self.interleave,
            self.shards.len()
        );
        for (i, r) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i}: {} retired, {} writes, {} reads, end {:.1} us",
                retired(r),
                r.mem.data_writes,
                r.mem.demand_reads,
                r.end.as_ps() as f64 / 1e6
            );
        }
        let m = self.merged();
        let _ = writeln!(
            out,
            "  merged: {} writes, {} reads, {:.1} nJ, end {:.1} us, {} kernel events",
            m.mem.data_writes,
            m.mem.demand_reads,
            m.energy.total_pj() / 1000.0,
            m.end.as_ps() as f64 / 1e6,
            m.events.total()
        );
        if let Some(t) = &m.trace {
            let _ = writeln!(
                out,
                "  merged trace digest: {} ({} records)",
                t.digest, t.records
            );
        }
        out
    }
}

/// Instructions retired over every core of `r`.
fn retired(r: &RunResult) -> u64 {
    r.cores.iter().map(|c| c.retired).sum()
}

/// The geometry and shard id of each simulation `cfg` describes, in shard
/// order — the only place that picks them. A monolithic config is one run
/// over `Geometry::default()` with unsalted seeds and no `ShardTag`; a
/// topology is `t.shards()` salted one-channel slices.
pub(crate) fn shard_runs(cfg: &SimConfig) -> Vec<(Geometry, Option<u32>)> {
    match cfg.topology {
        None => vec![(Geometry::default(), None)],
        Some(topology) => {
            let shard_geometry = topology.shard_geometry(&Geometry::default());
            (0..topology.shards())
                .map(|s| (shard_geometry.clone(), Some(s as u32)))
                .collect()
        }
    }
}

/// The one simulate step. A monolithic config runs inline on the caller's
/// thread; a topology fans its shards ([`shard_runs`]) out on `runner`,
/// returned in shard order. Core streams come from `streams`.
fn simulate(
    cfg: &SimConfig,
    ecfg: &ExperimentConfig,
    tables: &Tables,
    runner: &Runner,
    streams: &StreamPool,
) -> (Vec<RunResult>, RunnerStats) {
    let runs = shard_runs(cfg);
    let run = |(geometry, shard): &(Geometry, Option<u32>)| {
        builder_for(cfg, ecfg, tables, geometry.clone(), *shard, streams).run()
    };
    if cfg.topology.is_none() {
        return (runs.iter().map(run).collect(), RunnerStats::default());
    }
    runner.run_jobs(runs.len(), |s| run(&runs[s]))
}

/// The one shard fold, shared by [`run_sim`] and [`ShardedRun::merged`].
///
/// A monolithic run is its own fold: the lone result comes back
/// unchanged. Otherwise the shards fold in shard order:
///
/// * `cores` concatenate; `mem`, `events`, `read_histogram`, `faults`,
///   `coding` and `service` merge through their [`Mergeable`] impls;
///   `energy` sums and `end` is the slowest shard's;
/// * the trace, when every shard traced, carries `merge_digests` over
///   the shard digests plus the summed record counts and merged totals;
///   its per-component parts stay on the shards;
/// * `cache_hit`, `fnw` and `wear` describe one controller and do not
///   fold, so they are `None`: read them per shard.
fn fold_shards(topology: Option<Topology>, shards: Cow<'_, [RunResult]>) -> RunResult {
    if topology.is_none() && shards.len() == 1 {
        return shards.into_owned().swap_remove(0);
    }
    let mut cores = Vec::new();
    let mut mem = MemStats::default();
    let mut events = EventCounts::default();
    let mut energy = EnergyBreakdown::default();
    let mut end = Instant::ZERO;
    let mut read_histogram = LatencyHistogram::default();
    let mut faults: Option<FaultStats> = None;
    let mut coding: Option<CodingStats> = None;
    let mut service: Option<ServiceStats> = None;
    let mut totals = TraceTotals::default();
    let (mut records, mut dropped) = (0u64, 0u64);
    let mut shard_digests = Vec::with_capacity(shards.len());
    for r in shards.iter() {
        // No `..`: a new `RunResult` field fails to compile until this
        // fold either merges it or names it as per-shard only.
        let RunResult {
            scheme: _,
            cores: shard_cores,
            mem: shard_mem,
            energy: EnergyBreakdown { read_pj, write_pj },
            end: shard_end,
            cache_hit: _,
            fnw: _,
            read_histogram: shard_histogram,
            wear: _,
            faults: shard_faults,
            coding: shard_coding,
            events: shard_events,
            trace: shard_trace,
            service: shard_service,
        } = r;
        cores.extend_from_slice(shard_cores);
        mem.merge_from(shard_mem);
        events.merge_from(shard_events);
        energy.read_pj += read_pj;
        energy.write_pj += write_pj;
        end = end.max(*shard_end);
        read_histogram.merge_from(shard_histogram);
        if let Some(f) = shard_faults {
            faults.get_or_insert_with(FaultStats::default).merge_from(f);
        }
        if let Some(c) = shard_coding {
            coding
                .get_or_insert_with(CodingStats::default)
                .merge_from(c);
        }
        if let Some(s) = shard_service {
            service
                .get_or_insert_with(ServiceStats::default)
                .merge_from(s);
        }
        if let Some(Trace {
            parts: _,
            totals: shard_totals,
            records: shard_records,
            dropped: shard_dropped,
            digest,
        }) = shard_trace
        {
            totals.merge_from(shard_totals);
            records.merge_from(shard_records);
            dropped.merge_from(shard_dropped);
            shard_digests.push(*digest);
        }
    }
    // All shards share one tracing flag, so either every shard traced or
    // none did.
    let trace = (shard_digests.len() == shards.len()).then(|| Trace {
        parts: Vec::new(),
        totals,
        records,
        dropped,
        digest: merge_digests(shard_digests),
    });
    RunResult {
        // Every shard ran the config's scheme (a topology has at least one).
        scheme: shards.first().map_or(Scheme::Baseline, |r| r.scheme),
        cores,
        mem,
        energy,
        end,
        cache_hit: None,
        fnw: None,
        read_histogram,
        wear: None,
        faults,
        coding,
        events,
        trace,
        service,
    }
}

/// Runs the simulation described by `cfg` and returns its folded result.
///
/// A monolithic config returns its lone run; a topology config runs its
/// shards sequentially and returns their fold ([`ShardedRun::merged`]
/// at any `--jobs`). Use [`run_sharded`] to fan shards out on a runner or
/// to read per-shard results.
pub fn run_sim(cfg: &SimConfig, ecfg: &ExperimentConfig, tables: &Tables) -> RunResult {
    run_pooled(cfg, ecfg, tables, &StreamPool::default())
}

/// [`run_sim`] with its core streams taken from a batch's `streams`.
pub(crate) fn run_pooled(
    cfg: &SimConfig,
    ecfg: &ExperimentConfig,
    tables: &Tables,
    streams: &StreamPool,
) -> RunResult {
    let (shards, _) = simulate(cfg, ecfg, tables, &Runner::sequential(), streams);
    fold_shards(cfg.topology, Cow::Owned(shards))
}

/// Runs the simulation described by `cfg` and keeps its per-shard
/// results: one per channel of a topology, fanned out on `runner`, or
/// the lone run of a monolithic config.
pub fn run_sharded(
    cfg: &SimConfig,
    ecfg: &ExperimentConfig,
    tables: &Tables,
    runner: &Runner,
) -> ShardedRun {
    let (shards, stats) = simulate(cfg, ecfg, tables, runner, &StreamPool::default());
    ShardedRun {
        topology: cfg.topology,
        interleave: cfg.interleave,
        shards,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Workload;
    use std::sync::Arc;

    fn sharded_cfg(channels: usize) -> SimConfig {
        SimConfig::builder()
            .scheme(Scheme::LadderEst)
            .workload(Workload::Single("astar"))
            .topology(Topology::new(channels, 2).expect("valid topology"))
            .trace(true)
            .build()
    }

    fn tiny_ecfg() -> ExperimentConfig {
        ExperimentConfig {
            instructions_per_core: 15_000,
            ..ExperimentConfig::default()
        }
    }

    /// Everything a folded result carries, rendered for equality checks.
    fn fingerprint(r: &RunResult) -> String {
        let t = r
            .trace
            .as_ref()
            .map(|t| (t.digest, t.records, t.dropped, t.totals));
        format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{t:?}",
            r.summary(),
            r.mem,
            r.events,
            r.end,
            r.read_histogram,
            r.faults,
            r.coding,
            r.service
        )
    }

    #[test]
    fn a_monolithic_config_runs_as_one_unsalted_shard() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let cfg = SimConfig::builder()
            .scheme(Scheme::LadderEst)
            .workload(Workload::Single("astar"))
            .trace(true)
            .build();
        let lone = run_sim(&cfg, &ecfg, &tables);
        let run = run_sharded(&cfg, &ecfg, &tables, &Runner::with_jobs(4));
        assert_eq!(run.topology, None);
        assert_eq!(run.shards.len(), 1);
        assert_eq!(fingerprint(&run.shards[0]), fingerprint(&lone));
        assert_eq!(fingerprint(&run.merged()), fingerprint(&lone));
        // Unsalted and untagged: no ShardTag record opens the stream.
        let t = lone.trace.as_ref().expect("tracing on");
        assert_eq!(t.totals.shard_tags, 0);
        assert!(!t.parts.is_empty());
        assert!(run.summary().starts_with("monolithic"));
    }

    #[test]
    fn run_sim_of_a_topology_is_the_merged_sharded_run_at_any_jobs() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let cfg = sharded_cfg(2);
        let folded = fingerprint(&run_sim(&cfg, &ecfg, &tables));
        for jobs in [1, 4] {
            let run = run_sharded(&cfg, &ecfg, &tables, &Runner::with_jobs(jobs));
            assert_eq!(fingerprint(&run.merged()), folded, "--jobs {jobs}");
        }
    }

    #[test]
    fn run_configs_mixing_shapes_is_jobs_invariant() {
        let ecfg = tiny_ecfg();
        let tables = Arc::new(ecfg.tables());
        let configs = [
            SimConfig::new(Scheme::Baseline, Workload::Single("astar")),
            sharded_cfg(2),
            SimConfig::builder()
                .scheme(Scheme::LadderEst)
                .trace(true)
                .build(),
            sharded_cfg(1),
        ];
        let render = |jobs| {
            let (results, _) = Runner::with_jobs(jobs).run_configs(&ecfg, &tables, &configs);
            results.iter().map(fingerprint).collect::<Vec<_>>()
        };
        let seq = render(1);
        assert_eq!(seq.len(), configs.len());
        assert_eq!(seq, render(4));
        // A 1x2 topology is a salted shard, not the monolithic run.
        assert_ne!(seq[2], seq[3]);
    }

    #[test]
    fn shards_are_distinct_and_folds_cover_them() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let run = run_sharded(&sharded_cfg(2), &ecfg, &tables, &Runner::sequential());
        assert_eq!(run.shards.len(), 2);
        // Shard-salted seeds: the two channels simulate different streams.
        assert_ne!(
            run.shards[0].trace.as_ref().map(|t| t.digest),
            run.shards[1].trace.as_ref().map(|t| t.digest)
        );
        // The folds cover every shard.
        let merged = run.merged();
        let writes: u64 = run.shards.iter().map(|r| r.mem.data_writes).sum();
        assert_eq!(merged.mem.data_writes, writes);
        assert_eq!(
            merged.end,
            run.shards.iter().map(|r| r.end).max().expect("two shards")
        );
        assert_eq!(
            retired(&merged),
            run.shards.iter().map(retired).sum::<u64>()
        );
        assert!(merged.trace.as_ref().is_some_and(|t| t.records > 0));
        // Per-controller quantities do not fold.
        assert!(merged.cache_hit.is_none() && merged.fnw.is_none());
        let s = run.summary();
        assert!(s.contains("topology 2x2"), "{s}");
        assert!(s.contains("merged trace digest"), "{s}");
    }

    #[test]
    fn sharded_service_runs_fold_tenant_stats_jobs_invariantly() {
        use crate::service::ServiceConfig;

        let cfg = SimConfig::builder()
            .scheme(Scheme::LadderEst)
            .workload(Workload::Single("astar"))
            .topology(Topology::new(4, 2).expect("valid topology"))
            .service(ServiceConfig::builder().load(6.0).requests(800).build())
            .build();
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let seq = run_sharded(&cfg, &ecfg, &tables, &Runner::sequential()).merged();
        let par = run_sharded(&cfg, &ecfg, &tables, &Runner::with_jobs(4)).merged();
        let svc = seq.service.as_ref().expect("service mode");
        // 4 shards × 800 requests, all serviced.
        assert_eq!(svc.arrivals, 4 * 800);
        assert_eq!(svc.reads_completed + svc.writes_accepted, 4 * 800);
        // Per-shard streams are salted differently but tenant names align,
        // so the fold groups by tenant across shards.
        assert_eq!(svc.tenants.iter().count(), 3);
        // The fold is bit-reproducible at any --jobs.
        assert_eq!(seq.service, par.service);
        assert_eq!(seq.end, par.end);
    }

    #[test]
    fn merged_digest_is_jobs_invariant() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let seq = run_sharded(&sharded_cfg(4), &ecfg, &tables, &Runner::sequential()).merged();
        let par = run_sharded(&sharded_cfg(4), &ecfg, &tables, &Runner::with_jobs(4)).merged();
        assert_eq!(fingerprint(&seq), fingerprint(&par));
    }

    #[test]
    fn each_shard_is_stamped_with_its_index() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let run = run_sharded(&sharded_cfg(2), &ecfg, &tables, &Runner::sequential());
        for (i, r) in run.shards.iter().enumerate() {
            let t = r.trace.as_ref().expect("tracing on");
            assert_eq!(
                t.totals.shard_tags, 1,
                "shard {i} must carry exactly one ShardTag"
            );
        }
    }
}
