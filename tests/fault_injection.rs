//! The fault subsystem's two contracts at the whole-system level: an
//! inert (rate-0) fault model is bit-identical to the no-fault path, and a
//! nonzero rate degrades runs deterministically at any worker count.

use ladder::faults::FaultConfig;
use ladder::sim::experiments::{error_rate_sweep, ExperimentConfig, Workload};
use ladder::sim::{run_sim, RunResult, Scheme, SimConfig};
use ladder::Runner;
use proptest::prelude::*;

fn tiny_cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        instructions_per_core: 30_000,
        seed,
        ..ExperimentConfig::default()
    }
}

fn assert_bit_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.mem, b.mem, "controller stats diverged");
    assert_eq!(a.end, b.end, "final simulated time diverged");
    assert_eq!(a.events, b.events, "event kernel dispatch counts diverged");
    assert_eq!(a.cores.len(), b.cores.len());
    for (x, y) in a.cores.iter().zip(&b.cores) {
        assert_eq!(x.retired, y.retired);
        assert_eq!(x.finish, y.finish);
        assert_eq!(x.ipc.to_bits(), y.ipc.to_bits());
    }
    assert_eq!(a.summary(), b.summary(), "human-readable reports diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property: installing the fault model with every rate at zero leaves
    /// the run bit-identical to not installing it, for any seed and
    /// fault-model seed — no extra latency, no extra events, identical
    /// summary.
    #[test]
    fn rate_zero_is_bit_identical_to_no_faults(
        seed in 1u64..1000,
        fault_seed in 0u64..1000,
        scheme_idx in 0usize..3,
    ) {
        let scheme = [Scheme::Baseline, Scheme::LadderEst, Scheme::LadderHybrid][scheme_idx];
        let cfg = tiny_cfg(seed);
        let tables = cfg.tables();
        let w = Workload::Single("astar");
        let plain = run_sim(&SimConfig::new(scheme, w), &cfg, &tables);
        let inert = run_sim(
            &SimConfig::builder()
                .scheme(scheme)
                .workload(w)
                .faults(FaultConfig::new(fault_seed))
                .build(),
            &cfg,
            &tables,
        );
        assert_bit_identical(&plain, &inert);
        let f = inert.faults.expect("model installed");
        prop_assert_eq!(f.data_writes, inert.mem.data_writes);
        prop_assert_eq!(f.transient_bit_errors, 0);
        prop_assert_eq!(f.stuck_cells, 0);
        prop_assert_eq!(inert.mem.failed_verifies, 0);
        prop_assert_eq!(inert.events.ctrl_retry_pulse, 0);
    }
}

#[test]
fn nonzero_rate_degrades_and_accounts() {
    let cfg = tiny_cfg(2021);
    let tables = cfg.tables();
    let w = Workload::Single("lbm");
    let plain = run_sim(&SimConfig::new(Scheme::LadderHybrid, w), &cfg, &tables);
    let faulty = run_sim(
        &SimConfig::builder()
            .scheme(Scheme::LadderHybrid)
            .workload(w)
            .faults(FaultConfig::with_ber(2021, 5e-3))
            .build(),
        &cfg,
        &tables,
    );
    assert!(
        faulty.mem.failed_verifies > 0,
        "5e-3 BER must trip verifies"
    );
    assert_eq!(faulty.mem.retries_issued, faulty.mem.failed_verifies);
    assert_eq!(faulty.events.ctrl_retry_pulse, faulty.mem.retries_issued);
    assert!(
        faulty.end > plain.end,
        "retry pulses must lengthen the run: {} vs {}",
        faulty.end,
        plain.end
    );
    assert!(faulty.ipc0() < plain.ipc0());
    let f = faulty.faults.expect("model installed");
    assert!(f.transient_bit_errors > 0);
    assert!(faulty.summary().contains("transient bit errors"));
    assert!(
        plain.summary()
            == run_sim(&SimConfig::new(Scheme::LadderHybrid, w), &cfg, &tables).summary()
    );
}

#[test]
fn error_rate_sweep_is_identical_at_any_job_count() {
    let cfg = tiny_cfg(7);
    let bers = [1e-3, 5e-3];
    let w = Workload::Single("mcf");
    let seq = error_rate_sweep(&cfg, w, &bers, &Runner::with_jobs(1));
    let par = error_rate_sweep(&cfg, w, &bers, &Runner::with_jobs(4));
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.ber.to_bits(), b.ber.to_bits());
        assert_eq!(
            a.ipc.to_bits(),
            b.ipc.to_bits(),
            "{}: IPC diverged",
            a.scheme
        );
        assert_eq!(a.ipc_vs_fault_free.to_bits(), b.ipc_vs_fault_free.to_bits());
        assert_eq!(
            a.retries_per_kilowrite.to_bits(),
            b.retries_per_kilowrite.to_bits()
        );
        assert_eq!(a.lifetime_s.to_bits(), b.lifetime_s.to_bits());
        assert_eq!(a.faults, b.faults, "{}: fault counters diverged", a.scheme);
    }
    // Degradation is monotone in BER for every scheme.
    let ipc_at = |ber: f64, scheme: Scheme| {
        seq.iter()
            .find(|r| r.ber == ber && r.scheme == scheme)
            .expect("row present")
            .ipc
    };
    for scheme in [Scheme::Baseline, Scheme::LadderEst, Scheme::LadderHybrid] {
        assert!(
            ipc_at(5e-3, scheme) < ipc_at(1e-3, scheme),
            "{scheme}: higher BER must cost IPC"
        );
    }
}

#[test]
fn fault_sweep_output_is_byte_stable_across_runs() {
    // The dynamic side of the `disallowed_types` ban on `HashMap`/`HashSet`
    // (root clippy.toml): two fully independent sweeps (fresh fault models, wear maps and retire pools)
    // must render byte-for-byte identical output. Before the
    // BTreeMap conversion of the fold/export paths this held only by
    // hasher-seed luck.
    let cfg = tiny_cfg(11);
    let bers = [1e-3, 5e-3];
    let w = Workload::Single("astar");
    let render = |rows: &[ladder::sim::experiments::FaultSweepRow]| {
        rows.iter()
            .map(|r| {
                format!(
                    "{} ber={:e} ipc={} rel={} rpk={} rtf={} life={} vs={} faults={:?}\n",
                    r.scheme,
                    r.ber,
                    r.ipc.to_bits(),
                    r.ipc_vs_fault_free.to_bits(),
                    r.retries_per_kilowrite.to_bits(),
                    r.retry_time_frac.to_bits(),
                    r.lifetime_s.to_bits(),
                    r.lifetime_vs_fault_free.to_bits(),
                    r.faults,
                )
            })
            .collect::<String>()
    };
    let first = render(&error_rate_sweep(&cfg, w, &bers, &Runner::with_jobs(2)));
    let second = render(&error_rate_sweep(&cfg, w, &bers, &Runner::with_jobs(2)));
    assert!(!first.is_empty());
    assert_eq!(first, second, "fault-sweep output is not byte-stable");
}
