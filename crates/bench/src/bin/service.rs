//! Extension — open-loop tail-latency sweep: offered load × arrival
//! process × scheme, with a per-tenant SLO report for every cell.
//!
//! Each cell drives the simulator from a timestamped multi-tenant
//! request stream (`--arrival`, `--load`, `--tenants`, `--zipf`) instead
//! of closed-loop cores, so read latency is arrival→completion — the
//! quantity a tail-latency SLO is written against — and offered load
//! beyond capacity shows up as saturation throughput plus deferred
//! arrivals rather than implicit back-pressure.
//!
//! With `--topology CxR` every cell shards over the topology (one
//! independent stream per channel, folded bit-reproducibly at any
//! `--jobs`).

use ladder_bench::{report_runner, usage_exit, BenchArgs};
use ladder_reram::Instant;
use ladder_sim::experiments::Workload;
use ladder_sim::{run_sharded, ArrivalKind, Scheme, ServiceConfig, SimConfig};
use ladder_trace::SloReport;

fn main() {
    let args = BenchArgs::parse();
    let cfg = args.cfg.clone();
    let runner = args.runner();
    let tables = cfg.tables();

    let loads: Vec<f64> = if args.load.is_empty() {
        vec![2.0, 6.0]
    } else {
        args.load.clone()
    };
    let arrivals: Vec<ArrivalKind> = match args.arrival {
        Some(kind) => vec![kind],
        None => ArrivalKind::ALL.to_vec(),
    };
    // Reject a tenant count no run's page window can host before the
    // sweep starts, rather than panicking inside the first run.
    let tenants = args.service_tenants().unwrap_or_else(|e| usage_exit(&e));
    let zipf = args.zipf.unwrap_or(0.99);
    let requests: u64 = if args.quick { 4_000 } else { 50_000 };

    println!(
        "Open-loop service sweep — {tenants} tenants, zipf {zipf}, {requests} requests per run{}",
        args.topology
            .map(|t| format!(" per shard (topology {t})"))
            .unwrap_or_default()
    );
    for arrival in &arrivals {
        for &load in &loads {
            for scheme in [Scheme::Baseline, Scheme::LadderEst] {
                let service = ServiceConfig::builder()
                    .arrival(*arrival)
                    .load(load)
                    .tenants(tenants)
                    .zipf_theta(zipf)
                    .requests(requests)
                    .build();
                let sim = SimConfig::builder()
                    .scheme(scheme)
                    .workload(Workload::Single("astar"))
                    .topology(args.topology)
                    .interleave(args.interleave.unwrap_or_default())
                    .service(service)
                    .build();
                let r = run_sharded(&sim, &cfg, &tables, &runner).merged();
                let stats = r.service.expect("service mode always returns stats");
                let report = SloReport::build(&stats.tenants, r.end.duration_since(Instant::ZERO));
                println!(
                    "  {} / offered {:.1} req/us / {}: achieved {:.3} req/us, {} arrivals, {} deferred",
                    arrival.name(),
                    load,
                    scheme.name(),
                    report.throughput,
                    stats.arrivals,
                    stats.deferred
                );
                print!("{}", report.render());
            }
        }
    }
    report_runner(&runner);
    args.emit_trace_if_requested(&cfg);
}
