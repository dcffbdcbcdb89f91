//! Open-loop service-mode regression gate: the per-tenant SLO statistics
//! and the merged golden-trace digest of a service sweep must be
//! bit-identical at any `--jobs`, and stable run after run.
//!
//! Service mode replaces the closed-loop cores with timestamped
//! `RequestArrival` events, so this gate freezes a different event
//! stream than `golden_trace`/`shard_determinism` (which cover the
//! legacy closed-loop path). Like those gates, an intentional simulator
//! change regenerates the golden file
//! (`GOLDEN_REGEN=1 cargo test --test service_determinism`) and shows up
//! in review as a one-line diff.

use ladder::reram::Instant;
use ladder::sim::experiments::{ExperimentConfig, Workload};
use ladder::sim::{
    run_sharded, run_sim, ArrivalKind, Runner, Scheme, ServiceConfig, SimConfig, Topology,
};
use ladder::trace::SloReport;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/service_trace.digest")
}

fn service_ecfg() -> ExperimentConfig {
    ExperimentConfig::quick()
}

#[expect(clippy::expect_used, reason = "2x2 is a valid topology")]
fn sim_config(arrival: ArrivalKind, sharded: bool) -> SimConfig {
    let service = ServiceConfig::builder()
        .arrival(arrival)
        .load(6.0)
        .requests(3_000)
        .build();
    SimConfig::builder()
        .scheme(Scheme::LadderEst)
        .workload(Workload::Single("astar"))
        .topology(sharded.then(|| Topology::new(2, 2).expect("static topology")))
        .service(service)
        .trace(true)
        .build()
}

/// One line per sweep cell: merged digest, headline service counters,
/// and the per-tenant p99 tail — everything an SLO report is built from.
fn service_digest(jobs: usize) -> String {
    let ecfg = service_ecfg();
    let tables = ecfg.tables();
    let runner = Runner::with_jobs(jobs);
    let mut out = String::new();
    for arrival in ArrivalKind::ALL {
        for sharded in [false, true] {
            let r = run_sharded(&sim_config(arrival, sharded), &ecfg, &tables, &runner).merged();
            #[expect(
                clippy::expect_used,
                reason = "a .service(..) run returns service stats"
            )]
            let svc = r.service.expect("service mode returns stats");
            #[expect(clippy::expect_used, reason = "every run traces")]
            let digest = r.trace.expect("tracing was requested").digest;
            let report = SloReport::build(&svc.tenants, r.end.duration_since(Instant::ZERO));
            let tails: Vec<String> = report
                .rows
                .iter()
                .map(|r| format!("{}:p99={}", r.tenant, r.p99.as_ps()))
                .collect();
            out.push_str(&format!(
                "{}/{} digest={} arrivals={} reads={} writes={} deferred={} end={} {}\n",
                arrival.name(),
                if sharded { "2x2" } else { "mono" },
                digest,
                svc.arrivals,
                svc.reads_completed,
                svc.writes_accepted,
                svc.deferred,
                r.end.as_ps(),
                tails.join(" "),
            ));
        }
    }
    out
}

#[test]
fn service_sweep_is_bit_identical_at_any_jobs() {
    let seq = service_digest(1);
    let par = service_digest(4);
    assert_eq!(
        seq, par,
        "service sweep diverged between --jobs 1 and --jobs 4"
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
        "service sweep diverged from {}; if the simulator change is \
         intentional, run `just regen-golden` and commit the diff",
        path.display()
    );
}

#[test]
fn service_mode_services_every_request() {
    let ecfg = service_ecfg();
    let tables = ecfg.tables();
    let r = run_sim(&sim_config(ArrivalKind::Poisson, false), &ecfg, &tables);
    let svc = r.service.expect("service mode returns stats");
    assert_eq!(svc.arrivals, 3_000);
    assert_eq!(svc.reads_completed + svc.writes_accepted, 3_000);
    // Three tenants in the standard mix, each with service recorded.
    assert_eq!(svc.tenants.iter().count(), 3);
    for (name, g) in svc.tenants.iter() {
        assert!(
            g.reads.count() + g.writes > 0,
            "tenant {name} was never served"
        );
    }
}
