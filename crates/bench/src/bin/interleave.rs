//! Extension — address-interleaving sweep over a sharded topology:
//! channel, bank and page striping compared for the baseline and
//! LADDER-Est schemes, each run through the sharded multi-channel runner.
//!
//! Every run traces, so the merged golden-trace digest is printed per
//! (policy, scheme) cell — bit-identical at any `--jobs`, which is what
//! the CI shard smoke stage checks.

use ladder_bench::{report_runner, BenchArgs};
use ladder_sim::experiments::Workload;
use ladder_sim::{run_sharded, Interleave, Scheme, SimConfig, Topology};

fn main() {
    let args = BenchArgs::parse();
    let cfg = args.cfg.clone();
    let topology = args.topology_or(Topology::new(4, 2).expect("static topology"));
    let runner = args.runner();
    let tables = cfg.tables();
    let workload = Workload::Single("astar");

    println!(
        "Interleave sweep — topology {topology} ({} shards), workload {}",
        topology.shards(),
        workload.label()
    );
    println!(
        "{:<9}{:<13}{:>12}{:>10}{:>10}{:>12}  merged digest",
        "policy", "scheme", "retired", "writes", "end (us)", "energy (nJ)"
    );
    for policy in Interleave::ALL {
        let mut baseline_end = None;
        for scheme in [Scheme::Baseline, Scheme::LadderEst] {
            let sim_cfg = SimConfig::builder()
                .scheme(scheme)
                .workload(workload)
                .topology(topology)
                .interleave(policy)
                .trace(true)
                .build();
            let run = run_sharded(&sim_cfg, &cfg, &tables, &runner).merged();
            let end_us = run.end.as_ps() as f64 / 1e6;
            println!(
                "{:<9}{:<13}{:>12}{:>10}{:>10.1}{:>12.1}  {}",
                policy.name(),
                scheme.name(),
                run.cores.iter().map(|c| c.retired).sum::<u64>(),
                run.mem.data_writes,
                end_us,
                run.energy.total_pj() / 1000.0,
                run.trace
                    .map(|t| t.digest.to_string())
                    .unwrap_or_else(|| "-".to_string())
            );
            match scheme {
                Scheme::Baseline => baseline_end = Some(end_us),
                _ => {
                    if let Some(b) = baseline_end {
                        println!("{:<9}  -> LADDER-Est speedup: {:.3}x", "", b / end_us);
                    }
                }
            }
        }
    }
    report_runner(&runner);
    args.emit_trace_if_requested(&cfg);
}
