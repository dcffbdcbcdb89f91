//! Lifetime-campaign regression gate: fault-injected, wear-tracked runs
//! under every coding scheme × remap backend must be bit-identical at any
//! `--jobs`, and stable run after run.
//!
//! This gate freezes the coding/remap pipeline (location channel → code
//! scheme → remap backend) that `golden_trace`/`service_determinism` do
//! not exercise: every cell runs with fault injection, wear tracking and
//! a non-default scheme or backend, in both the monolithic and the 2x2
//! sharded shape. An intentional simulator change regenerates the golden
//! file (`GOLDEN_REGEN=1 cargo test --test lifetime_determinism`) and
//! shows up in review as a one-line diff.

use ladder::faults::FaultConfig;
use ladder::sim::experiments::{lifetime_campaign, CampaignSpec, ExperimentConfig, Workload};
use ladder::sim::{
    run_sharded, CodingKind, RemapKind, Runner, Scheme, ServiceConfig, SimConfig, Topology,
};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lifetime_trace.digest")
}

fn lifetime_ecfg() -> ExperimentConfig {
    ExperimentConfig::quick()
}

#[expect(clippy::expect_used, reason = "2x2 is a valid topology")]
fn sim_config(coding: CodingKind, remap: RemapKind, sharded: bool) -> SimConfig {
    let service = ServiceConfig::builder()
        .load(4.0)
        .zipf_theta(0.99)
        .requests(600)
        .build();
    SimConfig::builder()
        .scheme(Scheme::LadderEst)
        .workload(Workload::Single("astar"))
        .topology(sharded.then(|| Topology::new(2, 2).expect("static topology")))
        .service(service)
        .faults(FaultConfig::with_ber(lifetime_ecfg().seed, 1e-3))
        .coding(coding)
        .remap(remap)
        .track_wear(true)
        .trace(true)
        .build()
}

/// One line per sweep cell: merged digest plus the wear, fault and
/// coding counters a lifetime figure is built from.
fn lifetime_digest(jobs: usize) -> String {
    let ecfg = lifetime_ecfg();
    let tables = ecfg.tables();
    let runner = Runner::with_jobs(jobs);
    let mut out = String::new();
    for coding in CodingKind::ALL {
        for remap in RemapKind::ALL {
            for sharded in [false, true] {
                let run = run_sharded(&sim_config(coding, remap, sharded), &ecfg, &tables, &runner);
                #[expect(clippy::expect_used, reason = "every campaign cell tracks wear")]
                let wear = run
                    .shards
                    .iter()
                    .map(|r| {
                        r.wear
                            .as_ref()
                            .expect("wear tracking on")
                            .with(|w| (w.total_writes(), w.worst_line_writes()))
                    })
                    .fold((0, 0), |(t, w), (st, sw)| (t + st, w.max(sw)));
                let r = run.merged();
                #[expect(clippy::expect_used, reason = "every campaign cell traces")]
                let digest = r.trace.expect("tracing was requested").digest;
                #[expect(
                    clippy::expect_used,
                    reason = "fault injection always returns coding stats"
                )]
                let c = r.coding.expect("fault injection returns coding stats");
                #[expect(
                    clippy::expect_used,
                    reason = "fault injection always returns fault stats"
                )]
                let f = r.faults.expect("fault injection returns fault stats");
                out.push_str(&format!(
                    "{}/{}/{} digest={} writes={} worst={} corrected={} \
                     uncorrectable={} remaps={} wa={} transient={} end={}\n",
                    coding.name(),
                    remap.name(),
                    if sharded { "2x2" } else { "mono" },
                    digest,
                    wear.0,
                    wear.1,
                    c.total_corrected_bits(),
                    c.total_uncorrectable(),
                    c.remaps,
                    c.wa_millionths,
                    f.transient_bit_errors,
                    r.end.as_ps(),
                ));
            }
        }
    }
    out
}

#[test]
fn lifetime_sweep_is_bit_identical_at_any_jobs() {
    let seq = lifetime_digest(1);
    let par = lifetime_digest(4);
    assert_eq!(
        seq, par,
        "lifetime sweep diverged between --jobs 1 and --jobs 4"
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
        "lifetime sweep diverged from {}; if the simulator change is \
         intentional, run `just regen-golden` and commit the diff",
        path.display()
    );
}

#[test]
fn campaign_rows_are_jobs_invariant() {
    let ecfg = lifetime_ecfg();
    let runner1 = Runner::with_jobs(1);
    let runner4 = Runner::with_jobs(4);
    let spec = CampaignSpec {
        skews: vec![0.99],
        bers: vec![1e-3],
        requests: 300,
        ..CampaignSpec::standard(true)
    };
    let rows1: Vec<String> = lifetime_campaign(&ecfg, &spec, &runner1)
        .iter()
        .map(|r| r.csv_line())
        .collect();
    let rows4: Vec<String> = lifetime_campaign(&ecfg, &spec, &runner4)
        .iter()
        .map(|r| r.csv_line())
        .collect();
    assert_eq!(rows1.len(), spec.cells());
    assert_eq!(rows1, rows4, "campaign CSV diverged between --jobs 1 and 4");
}

#[test]
fn campaign_projects_multi_year_lifetimes() {
    let ecfg = lifetime_ecfg();
    let runner = Runner::with_jobs(4);
    let spec = CampaignSpec {
        skews: vec![0.2],
        bers: vec![1e-4],
        remaps: vec![RemapKind::Retire],
        codings: vec![CodingKind::Flat, CodingKind::LocalRewrite],
        requests: 300,
        ..CampaignSpec::standard(true)
    };
    let rows = lifetime_campaign(&ecfg, &spec, &runner);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert!(
            row.device_years > 1.0,
            "expected a multi-year projection, got {} years",
            row.device_years
        );
        assert!(row.unevenness >= 1.0);
    }
    // Local-rewrite carries more parity writes than flat ECC, so its
    // projected lifetime must come out strictly shorter.
    assert!(
        rows[1].coding_stats.write_amplification() > rows[0].coding_stats.write_amplification()
    );
    assert!(rows[1].device_years < rows[0].device_years);
}
