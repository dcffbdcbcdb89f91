//! Sharded-runner regression gate: the merged golden-trace digest of a
//! topology-aware run must be bit-identical at any `--jobs`, for any
//! channel count, and stable run after run.
//!
//! Each channel shard is an independent event-kernel simulation with a
//! shard-salted workload stream; the merged digest folds the per-shard
//! digests in shard order, so it moves whenever any shard's event
//! sequence moves. Like `golden_trace`, an intentional change regenerates
//! the golden file (`GOLDEN_REGEN=1 cargo test --test shard_determinism`)
//! and shows up in review as a one-line diff.

use ladder::sim::experiments::{ExperimentConfig, Workload};
use ladder::sim::{run_sharded, Runner, Scheme, SimConfig, Topology};
use std::path::PathBuf;

/// Channel counts exercised by the gate: monolithic-equivalent, the
/// default module, and a wide module.
const CHANNELS: [usize; 3] = [1, 2, 8];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/shard_trace.digest")
}

fn shard_cfg() -> ExperimentConfig {
    ExperimentConfig {
        instructions_per_core: 40_000,
        ..ExperimentConfig::quick()
    }
}

#[expect(
    clippy::expect_used,
    reason = "1, 2 and 4 channels are valid topologies"
)]
fn sim_config(channels: usize) -> SimConfig {
    SimConfig::builder()
        .scheme(Scheme::LadderEst)
        .workload(Workload::Single("astar"))
        .topology(Topology::new(channels, 2).expect("static topology"))
        .trace(true)
        .build()
}

/// One line per channel count: merged digest plus headline fold totals.
fn sharded_digest(jobs: usize) -> String {
    let cfg = shard_cfg();
    let tables = cfg.tables();
    let mut out = String::new();
    for channels in CHANNELS {
        let run = run_sharded(
            &sim_config(channels),
            &cfg,
            &tables,
            &Runner::with_jobs(jobs),
        )
        .merged();
        #[expect(clippy::expect_used, reason = "every shard traces")]
        let trace = run.trace.expect("tracing was requested on every shard");
        out.push_str(&format!(
            "{}x2 digest={} records={} writes={} reads={} events={} end={}\n",
            channels,
            trace.digest,
            trace.records,
            run.mem.data_writes,
            run.mem.demand_reads,
            run.events.total(),
            run.end.as_ps(),
        ));
    }
    out
}

#[test]
fn merged_shard_digest_is_bit_identical_at_any_jobs() {
    let seq = sharded_digest(1);
    let par = sharded_digest(4);
    assert_eq!(
        seq, par,
        "sharded digests diverged between --jobs 1 and --jobs 4"
    );

    let path = golden_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &seq).unwrap();
        eprintln!("regenerated {}:\n{seq}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `just regen-golden`",
            path.display()
        )
    });
    assert_eq!(
        seq,
        golden,
        "sharded --quick trace diverged from {}; if the simulator change \
         is intentional, run `just regen-golden` and commit the diff",
        path.display()
    );
}

#[test]
fn shards_differ_but_totals_fold_exactly() {
    let cfg = shard_cfg();
    let tables = cfg.tables();
    let run = run_sharded(&sim_config(2), &cfg, &tables, &Runner::sequential());
    // Shard-salted seeds: distinct per-channel streams.
    let digests: Vec<_> = run
        .shards
        .iter()
        .map(|r| r.trace.as_ref().expect("traced").digest)
        .collect();
    assert_ne!(digests[0], digests[1], "shards simulated identical streams");
    // The merged fold covers every shard exactly once.
    let merged = run.merged();
    assert_eq!(
        merged.trace.expect("traced").records,
        run.shards
            .iter()
            .map(|r| r.trace.as_ref().expect("traced").records)
            .sum::<u64>()
    );
    assert_eq!(
        merged.events.total(),
        run.shards.iter().map(|r| r.events.total()).sum::<u64>()
    );
}
