//! Work-stealing parallel experiment runner.
//!
//! Every experiment in this crate is a matrix of fully independent,
//! deterministic simulations — the paper runs them as separate gem5
//! instances, and nothing here shares mutable state between cells. The
//! [`Runner`] exploits that: it takes a list of [`SimConfig`] jobs, fans
//! them out over `jobs` worker threads with an atomic work-stealing
//! cursor, and returns results **in submission order**, so the output of
//! a parallel run is byte-identical to the sequential path.
//!
//! ```no_run
//! use ladder_sim::experiments::ExperimentConfig;
//! use ladder_sim::{Runner, Scheme, SimConfig};
//! use ladder_sim::experiments::Workload;
//! use std::sync::Arc;
//!
//! let cfg = ExperimentConfig::quick();
//! let tables = Arc::new(cfg.tables());
//! let runner = Runner::new();
//! let configs = vec![
//!     SimConfig::new(Scheme::Baseline, Workload::Single("astar")),
//!     SimConfig::new(Scheme::LadderHybrid, Workload::Single("astar")),
//! ];
//! let (results, stats) = runner.run_configs(&cfg, &tables, &configs);
//! assert_eq!(results.len(), 2);
//! eprintln!("{}", stats.summary());
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use ladder_memctrl::Tables;
use ladder_reram::Picos;
use ladder_trace::Mergeable;

use crate::config::SimConfig;
use crate::experiments::{ExperimentConfig, Workload};
use crate::scheme::Scheme;
use crate::shard::run_pooled;
use crate::streams::StreamPool;
use crate::system::{EventCounts, RunResult};

/// Timing observability for one batch of jobs.
#[derive(Debug, Clone)]
pub struct RunnerStats {
    /// Number of jobs executed in the batch.
    pub jobs: usize,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Sum of per-job wall-clock times — the sequential-time estimate.
    pub total_job_time: Duration,
    /// Per-job wall-clock times, in submission order.
    pub job_times: Vec<Duration>,
    /// Event-kernel dispatch counters aggregated over the batch's
    /// simulations (populated by [`Runner::run_configs`]; generic
    /// [`Runner::run_jobs`] batches cannot see into their jobs and leave
    /// this zero).
    pub events: EventCounts,
    /// Total simulated time across the batch's simulations.
    pub sim_time: Picos,
}

impl RunnerStats {
    /// Estimated speedup over a sequential run of the same batch
    /// (`total_job_time / wall`).
    pub fn speedup_estimate(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.total_job_time.as_secs_f64() / wall
    }

    /// Kernel events dispatched per simulated second, aggregated over the
    /// batch — the discrete-event kernel's efficiency metric. Zero when
    /// the batch simulated nothing (or ran through the generic job path).
    pub fn events_per_sim_second(&self) -> f64 {
        let secs = self.sim_time.as_ps() as f64 * 1e-12;
        if secs == 0.0 {
            0.0
        } else {
            self.events.total() as f64 / secs
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "runner: {} job{} on {} worker{}, wall {:.2}s, cpu-time {:.2}s, est. speedup {:.2}x",
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.wall.as_secs_f64(),
            self.total_job_time.as_secs_f64(),
            self.speedup_estimate()
        );
        if self.events.total() > 0 {
            s.push_str(&format!(
                ", {} kernel events ({:.2e}/sim-s)",
                self.events.total(),
                self.events_per_sim_second()
            ));
        }
        s
    }
}

/// Folds another batch's stats into this one (used by experiments that
/// issue several batches). No `..` in the pattern, so a new field fails
/// to compile until it is folded here.
impl Mergeable for RunnerStats {
    fn merge_from(&mut self, other: &Self) {
        let RunnerStats {
            jobs,
            workers,
            wall,
            total_job_time,
            job_times,
            events,
            sim_time,
        } = other;
        self.jobs = self.jobs.saturating_add(*jobs);
        self.workers = self.workers.max(*workers);
        self.wall += *wall;
        self.total_job_time += *total_job_time;
        self.job_times.extend_from_slice(job_times);
        self.events.merge_from(events);
        self.sim_time.merge_from(sim_time);
    }
}

impl Default for RunnerStats {
    fn default() -> Self {
        RunnerStats {
            jobs: 0,
            workers: 0,
            wall: Duration::ZERO,
            total_job_time: Duration::ZERO,
            job_times: Vec::new(),
            events: EventCounts::default(),
            sim_time: Picos::ZERO,
        }
    }
}

/// Work-stealing executor for independent simulation jobs.
///
/// Jobs are claimed with an atomic cursor (`fetch_add`), so an idle
/// worker always takes the next unstarted job regardless of how unequal
/// the job durations are. Results land in per-slot cells indexed by
/// submission position; the batch result vector is therefore identical
/// to what a sequential loop would produce.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    /// Stats accumulated over every batch this runner has executed, so a
    /// caller can report one summary after several experiment calls.
    accum: Mutex<RunnerStats>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A runner with the default worker count: the `LADDER_JOBS`
    /// environment variable if set and positive, otherwise
    /// [`std::thread::available_parallelism`].
    pub fn new() -> Self {
        Self::with_jobs(default_jobs())
    }

    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            accum: Mutex::new(RunnerStats::default()),
        }
    }

    /// A strictly sequential runner (`jobs = 1`).
    pub fn sequential() -> Self {
        Self::with_jobs(1)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `n` independent jobs produced by `f(index)` and returns the
    /// results in index order plus batch statistics.
    ///
    /// With one worker the jobs run inline on the caller's thread; with
    /// more, `std::thread::scope` workers steal indices from an atomic
    /// cursor. A panic in any job propagates to the caller either way.
    pub fn run_jobs<T, F>(&self, n: usize, f: F) -> (Vec<T>, RunnerStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(n.max(1));
        let start = crate::wallclock::Stopwatch::start();
        let mut results: Vec<T> = Vec::with_capacity(n);
        let mut job_times: Vec<Duration> = Vec::with_capacity(n);

        if workers <= 1 {
            for i in 0..n {
                let t0 = crate::wallclock::Stopwatch::start();
                results.push(f(i));
                job_times.push(t0.elapsed());
            }
        } else {
            let slots: Vec<Mutex<Option<(T, Duration)>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = crate::wallclock::Stopwatch::start();
                        let out = f(i);
                        let elapsed = t0.elapsed();
                        // A poisoned slot means another worker panicked;
                        // the panic is already propagating via the scope,
                        // so storing into the recovered guard is sound.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
                            Some((out, elapsed));
                    });
                }
            });
            for slot in slots {
                let (out, elapsed) = slot
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // lint: allow(panic-policy) — invariant: the scope joined, so every slot was filled exactly once
                    .expect("runner: every job slot is filled after the scope joins");
                results.push(out);
                job_times.push(elapsed);
            }
        }

        let wall = start.elapsed();
        let total_job_time = job_times.iter().sum();
        let stats = RunnerStats {
            jobs: n,
            workers,
            wall,
            total_job_time,
            job_times,
            events: EventCounts::default(),
            sim_time: Picos::default(),
        };
        self.accum
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge_from(&stats);
        (results, stats)
    }

    /// Stats accumulated over every batch this runner has executed so far.
    pub fn cumulative(&self) -> RunnerStats {
        self.accum
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Runs a batch of [`SimConfig`] simulation jobs against one shared
    /// [`Tables`] bundle, returning results in submission order.
    ///
    /// Each job is one [`crate::run_sim`]: a topology config runs its
    /// shards sequentially inside its job and yields their fold. A
    /// closed-loop stream that consecutive jobs consume (a matrix row's
    /// cells) is generated once and replayed to each of them, bit-identical
    /// to live generation at any worker count (DESIGN §3). Besides
    /// timings, the returned stats carry the batch's aggregate
    /// event-kernel dispatch counters and total simulated time, so
    /// events-per-sim-second is reported alongside wall-clock speedup.
    pub fn run_configs(
        &self,
        cfg: &ExperimentConfig,
        tables: &Arc<Tables>,
        configs: &[SimConfig],
    ) -> (Vec<RunResult>, RunnerStats) {
        let streams = StreamPool::for_batch(configs, cfg);
        let (results, mut stats) = self.run_jobs(configs.len(), |i| {
            run_pooled(&configs[i], cfg, tables, &streams[i])
        });
        for r in &results {
            stats.events.merge_from(&r.events);
            stats.sim_time += Picos::from_ps(r.end.as_ps());
        }
        {
            let mut acc = self.accum.lock().unwrap_or_else(PoisonError::into_inner);
            acc.events.merge_from(&stats.events);
            acc.sim_time += stats.sim_time;
        }
        (results, stats)
    }
}

/// Resolves the default worker count: `LADDER_JOBS` (if set to a
/// positive integer), else `available_parallelism()`, else 1.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("LADDER_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Memoized alone-run baseline IPCs, keyed by benchmark name.
///
/// Mix metrics (weighted speedup, fair slowdown) normalize each member's
/// IPC by the IPC of the same benchmark running alone under the
/// baseline scheme. The evaluation matrix already produces most of those
/// runs (every `Workload::Single` × `Scheme::Baseline` cell), so the
/// cache is populated from matrix results first and only the leftover
/// benchmarks (mix members that are not in the single-programmed set)
/// are simulated on demand.
#[derive(Debug, Clone, Default)]
pub struct AloneIpcCache {
    ipc: BTreeMap<&'static str, f64>,
}

impl AloneIpcCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the alone-run baseline IPC for `bench`.
    pub fn insert(&mut self, bench: &'static str, ipc: f64) {
        self.ipc.insert(bench, ipc);
    }

    /// The cached IPC for `bench`, if present.
    pub fn get(&self, bench: &str) -> Option<f64> {
        self.ipc.get(bench).copied()
    }

    /// The cached IPC for `bench`; panics if the cache was not populated
    /// for it (a bug in the caller's populate step).
    pub fn ipc(&self, bench: &str) -> f64 {
        self.get(bench)
            // lint: allow(panic-policy) — populate() precedes every mix-metric read; a miss is a caller bug worth aborting on
            .unwrap_or_else(|| panic!("alone-run IPC for '{bench}' was never populated"))
    }

    /// Number of cached benchmarks.
    pub fn len(&self) -> usize {
        self.ipc.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.ipc.is_empty()
    }

    /// The benchmarks from `benches` that are not cached yet, deduplicated
    /// and in first-appearance order.
    pub fn missing(&self, benches: &[&'static str]) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for &b in benches {
            if self.get(b).is_none() && !out.contains(&b) {
                out.push(b);
            }
        }
        out
    }

    /// Simulates (in parallel) and caches the alone-run baseline IPC for
    /// every benchmark in `benches` that is still missing. Returns the
    /// batch statistics if anything had to run.
    pub fn ensure(
        &mut self,
        benches: &[&'static str],
        runner: &Runner,
        cfg: &ExperimentConfig,
        tables: &Arc<Tables>,
    ) -> Option<RunnerStats> {
        let missing = self.missing(benches);
        if missing.is_empty() {
            return None;
        }
        let configs: Vec<SimConfig> = missing
            .iter()
            .map(|&b| SimConfig::new(Scheme::Baseline, Workload::Single(b)))
            .collect();
        let (results, stats) = runner.run_configs(cfg, tables, &configs);
        for (&b, r) in missing.iter().zip(&results) {
            self.insert(b, r.ipc0());
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let runner = Runner::with_jobs(4);
        // Later jobs finish first: ordering must still follow submission.
        let (results, stats) = runner.run_jobs(16, |i| {
            std::thread::sleep(Duration::from_millis((16 - i) as u64));
            i * 10
        });
        assert_eq!(results, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(stats.jobs, 16);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.job_times.len(), 16);
    }

    #[test]
    fn sequential_runner_matches_parallel() {
        let f = |i: usize| i * i + 7;
        let (seq, seq_stats) = Runner::sequential().run_jobs(10, f);
        let (par, _) = Runner::with_jobs(3).run_jobs(10, f);
        assert_eq!(seq, par);
        assert_eq!(seq_stats.workers, 1);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Runner::with_jobs(0).jobs(), 1);
    }

    #[test]
    fn worker_count_never_exceeds_job_count() {
        let (_, stats) = Runner::with_jobs(8).run_jobs(2, |i| i);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (results, stats) = Runner::new().run_jobs(0, |i| i);
        assert!(results.is_empty());
        assert_eq!(stats.jobs, 0);
        assert!(stats.speedup_estimate() >= 0.0);
    }

    #[test]
    fn cumulative_stats_span_batches() {
        let runner = Runner::with_jobs(2);
        runner.run_jobs(3, |i| i);
        runner.run_jobs(4, |i| i);
        let total = runner.cumulative();
        assert_eq!(total.jobs, 7);
        assert_eq!(total.job_times.len(), 7);
    }

    #[test]
    fn stats_merge_accumulates() {
        let (_, mut a) = Runner::sequential().run_jobs(3, |i| i);
        let (_, b) = Runner::sequential().run_jobs(2, |i| i);
        a.merge_from(&b);
        assert_eq!(a.jobs, 5);
        assert_eq!(a.job_times.len(), 5);
    }

    #[test]
    fn merge_accumulates_kernel_counters() {
        let mut a = RunnerStats::default();
        let mut b = RunnerStats::default();
        b.events.core_wake = 5;
        b.events.ctrl_bank_free = 3;
        b.sim_time = Picos::from_ps(2_000_000);
        a.merge_from(&b);
        a.merge_from(&b);
        assert_eq!(a.events.core_wake, 10);
        assert_eq!(a.events.total(), 16);
        assert!(a.events_per_sim_second() > 0.0);
        assert!(a.summary().contains("kernel events"), "{}", a.summary());
    }

    #[test]
    fn summary_mentions_jobs_and_workers() {
        let (_, stats) = Runner::with_jobs(2).run_jobs(4, |i| i);
        let s = stats.summary();
        assert!(s.contains("4 jobs"), "{s}");
        assert!(s.contains("2 workers"), "{s}");
    }

    #[test]
    fn alone_cache_dedups_and_memoizes() {
        let mut cache = AloneIpcCache::new();
        cache.insert("astar", 1.5);
        assert_eq!(cache.get("astar"), Some(1.5));
        assert_eq!(cache.ipc("astar"), 1.5);
        assert_eq!(
            cache.missing(&["astar", "mcf", "mcf", "lbm"]),
            vec!["mcf", "lbm"]
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[should_panic(expected = "never populated")]
    fn alone_cache_panics_on_missing_bench() {
        AloneIpcCache::new().ipc("nonesuch");
    }
}
