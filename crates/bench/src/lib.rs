//! Benchmark harness for the LADDER reproduction.
//!
//! One binary, `figures`, regenerates every table and figure of the
//! paper's evaluation plus the extension studies: `figures <name>` runs
//! one entry of the registry [`figures::ALL`] (each entry's `summary`
//! says what it reproduces), `figures all` runs them all and
//! `figures regen` rewrites the committed `results/<name>.txt` files at
//! their documented scale.
//!
//! Every figure reads the same command line, [`BenchArgs`]: strict
//! (unknown flags exit with the usage message, and a flag given twice is
//! rejected rather than silently last-wins), with
//! `--quick/--instructions/--seed/--jobs/--trace`, the topology surface
//! `--topology CxR` / `--interleave P` and the service-sweep knobs
//! `--arrival/--zipf/--tenants/--load`.
//!
//! Criterion micro-benchmarks for the hot kernels live under `benches/`.

pub mod figures;

use ladder_reram::Geometry;
use ladder_sim::experiments::{ExperimentConfig, Workload};
use ladder_sim::{
    run_sharded, tenant_window, ArrivalKind, Interleave, Runner, Scheme, SimConfig, Topology,
};

/// The flags every figure accepts, printed when parsing fails.
pub const USAGE: &str = "flags: [--quick] [--instructions N] [--seed S] [--jobs N] [--topology CxR]
       [--interleave P] [--csv DIR] [--trace PATH]
       [--arrival A] [--zipf T] [--tenants N] [--load L1,L2,..]
  --quick           smoke-test scale (120 k instructions per core)
  --instructions N  instructions per core (overrides --quick)
  --seed S          master workload seed (default 2021)
  --jobs N          worker threads (default: LADDER_JOBS or all cores)
  --topology CxR    shard runs over C channels x R ranks (e.g. 4x2; R <= 8);
                    traced runs fold per-shard digests bit-reproducibly
  --interleave P    address striping policy: channel | bank | page
  --csv DIR         also write CSV output into DIR (main_eval only)
  --trace PATH      additionally run one traced LADDER-Est simulation and
                    write chrome://tracing JSON to PATH (summary on stderr)
  --arrival A       open-loop arrival process: poisson | bursty
                    (service only; default: sweep both)
  --zipf T          Zipfian key skew in [0,1), 0 = uniform (service only)
  --tenants N       tenant count in the service mix (service only; default 3,
                    at most one tenant per page of each run's window)
  --load L1,L2,..   offered loads in requests/us to sweep (service only)

Every flag may appear at most once; duplicates are rejected.";

/// The parsed bench command line, shared by every figure.
///
/// Parse it from an argument slice with [`BenchArgs::parse_from`].
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Experiment scale and seed: `--quick` starts from
    /// [`ExperimentConfig::quick`], then `--instructions` and `--seed`
    /// override individual fields.
    pub cfg: ExperimentConfig,
    /// `--jobs N`: worker threads. `None` falls back to `LADDER_JOBS` /
    /// `available_parallelism()` inside [`BenchArgs::runner`].
    pub jobs: Option<usize>,
    /// Whether `--quick` was passed. Figures whose workload is not
    /// derived from [`ExperimentConfig`] (e.g. `mna_table`, `fig11`) use
    /// this to scale their own inputs down to smoke-run size.
    pub quick: bool,
    /// `--trace PATH`: run one additional traced simulation and write
    /// chrome://tracing JSON there (see
    /// [`BenchArgs::emit_trace_if_requested`]).
    pub trace: Option<String>,
    /// `--topology CxR`: shard topology-aware runs (the traced run and
    /// the `interleave` sweep) over `C` channel shards of `R` ranks.
    pub topology: Option<Topology>,
    /// `--interleave P`: address striping policy for topology-aware runs.
    pub interleave: Option<Interleave>,
    /// `--csv DIR`: CSV output directory (consumed by `main_eval`).
    pub csv: Option<String>,
    /// `--arrival A`: restrict the `service` sweep to one arrival
    /// process. `None` sweeps every [`ArrivalKind`].
    pub arrival: Option<ArrivalKind>,
    /// `--zipf T`: Zipfian key skew for the `service` tenant mix.
    pub zipf: Option<f64>,
    /// `--tenants N`: tenant count for the `service` mix.
    pub tenants: Option<usize>,
    /// `--load L1,L2,..`: offered loads (requests/µs) the `service`
    /// figure sweeps. Empty when the flag was absent.
    pub load: Vec<f64>,
    /// Non-flag arguments in order (e.g. the figure name and `tables`'
    /// table selector).
    pub positional: Vec<String>,
}

impl BenchArgs {
    /// Parses an argument list (defaults: 1 M instructions, seed 2021,
    /// channel interleave, no topology).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument on an unknown
    /// flag, a duplicate flag, a flag missing its value, an unparsable
    /// value, a `--topology` whose shards exceed 64 banks, or a `--zipf`,
    /// `--tenants` or `--load` value out of range.
    pub fn parse_from(argv: &[String]) -> Result<BenchArgs, String> {
        let mut quick = false;
        let mut instructions: Option<u64> = None;
        let mut seed: Option<u64> = None;
        let mut jobs = None;
        let mut trace = None;
        let mut topology = None;
        let mut interleave = None;
        let mut csv = None;
        let mut arrival = None;
        let mut zipf = None;
        let mut tenants = None;
        let mut load: Option<Vec<f64>> = None;
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            match flag {
                "--quick" if quick => return Err("duplicate flag `--quick`".to_string()),
                "--quick" => quick = true,
                "--instructions" => set_once(&mut instructions, argv, i, Ok)?,
                "--seed" => set_once(&mut seed, argv, i, Ok)?,
                "--jobs" => set_once(&mut jobs, argv, i, Ok)?,
                "--trace" => set_once(&mut trace, argv, i, Ok)?,
                "--topology" => set_once(&mut topology, argv, i, |t: Topology| {
                    // Every shard is a one-channel slice of the default
                    // module; its geometry must be one a controller runs.
                    match t.shard_geometry(&Geometry::default()).validate() {
                        Ok(()) => Ok(t),
                        Err(e) => Err(format!("`--topology` value `{t}`: {e}")),
                    }
                })?,
                "--interleave" => set_once(&mut interleave, argv, i, Ok)?,
                "--csv" => set_once(&mut csv, argv, i, Ok)?,
                "--arrival" => set_once(&mut arrival, argv, i, Ok)?,
                "--zipf" => set_once(&mut zipf, argv, i, |theta: f64| {
                    // NaN is outside every range, so it is rejected too.
                    if (0.0..1.0).contains(&theta) {
                        Ok(theta)
                    } else {
                        Err(format!("`--zipf` value `{theta}` is not in [0, 1)"))
                    }
                })?,
                "--tenants" => set_once(&mut tenants, argv, i, |n: usize| match n {
                    0 => Err("`--tenants` must be at least 1".to_string()),
                    n => Ok(n),
                })?,
                "--load" => set_once(&mut load, argv, i, load_list)?,
                other if other.starts_with('-') => {
                    return Err(format!("unknown argument `{other}`"))
                }
                other => positional.push(other.to_string()),
            }
            // Every flag but `--quick` consumed its value too.
            i += 1 + usize::from(flag.starts_with('-') && flag != "--quick");
        }
        let mut cfg = if quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::default()
        };
        if let Some(n) = instructions {
            cfg.instructions_per_core = n;
        }
        if let Some(s) = seed {
            cfg.seed = s;
        }
        Ok(BenchArgs {
            cfg,
            jobs,
            quick,
            trace,
            topology,
            interleave,
            csv,
            arrival,
            zipf,
            tenants,
            load: load.unwrap_or_default(),
            positional,
        })
    }

    /// The `service` sweep's tenant count: `--tenants`, or 3.
    ///
    /// # Errors
    ///
    /// Returns a message naming `--tenants` when the count exceeds the
    /// page window each run partitions among its tenants
    /// ([`tenant_window`]): one shard's window under `--topology`, the
    /// whole default module's otherwise.
    pub fn service_tenants(&self) -> Result<usize, String> {
        let tenants = self.tenants.unwrap_or(3);
        let geometry = match self.topology {
            Some(t) => t.shard_geometry(&Geometry::default()),
            None => Geometry::default(),
        };
        let (_, span) = tenant_window(&geometry);
        if tenants as u64 > span {
            return Err(format!(
                "`--tenants` value {tenants} exceeds the {span}-page window of each run"
            ));
        }
        Ok(tenants)
    }

    /// Builds the experiment [`Runner`]: `--jobs N` wins, then the
    /// `LADDER_JOBS` environment variable, then `available_parallelism()`.
    /// Parallel execution is byte-identical to `--jobs 1` — results always
    /// come back in submission order.
    pub fn runner(&self) -> Runner {
        match self.jobs {
            Some(n) => Runner::with_jobs(n),
            None => Runner::new(),
        }
    }

    /// The topology to shard over, defaulting to `default` when
    /// `--topology` was absent.
    pub fn topology_or(&self, default: Topology) -> Topology {
        self.topology.unwrap_or(default)
    }

    /// If `--trace PATH` was passed, runs one traced LADDER-Est simulation
    /// of `astar` at the command line's scale, writes chrome://tracing JSON to
    /// `PATH`, and prints the merged run's per-phase time-attribution
    /// summary, a stats-reconciliation line and the per-shard report to
    /// stderr. Does nothing when the flag is absent. An unwritable path
    /// exits with status 1.
    ///
    /// With `--topology CxR` the traced run shards over the topology: the
    /// chrome JSON holds shard 0's stream, and the merged digest is
    /// bit-identical at any `--jobs`.
    ///
    /// The `figures` binary calls this after every figure's output, so any
    /// of them can produce a trace without disturbing the figure pipeline
    /// (the traced run is a separate, additional simulation).
    pub fn emit_trace_if_requested(&self) {
        let Some(path) = &self.trace else { return };
        let cfg = &self.cfg;
        let tables = cfg.tables();
        let sim = SimConfig::builder()
            .scheme(Scheme::LadderEst)
            .workload(Workload::Single("astar"))
            .topology(self.topology)
            .interleave(self.interleave.unwrap_or_default())
            .trace(true)
            .build();
        let run = run_sharded(&sim, cfg, &tables, &self.runner());
        let r = run.merged();
        let (Some(shard0), Some(trace)) = (
            run.shards.first().and_then(|s| s.trace.as_ref()),
            r.trace.as_ref(),
        ) else {
            // SimConfig.trace was set above, so this is unreachable in
            // practice; fail loudly rather than panicking in library code.
            eprintln!("error: traced run returned no trace buffer");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(path, ladder_trace::chrome_trace_json(shard0)) {
            eprintln!("error: cannot write trace to `{path}`: {e}");
            std::process::exit(1);
        }
        let shard_note = self
            .topology
            .map(|t| format!(" (topology {t}, shard 0 of {})", run.shards.len()))
            .unwrap_or_default();
        eprintln!(
            "trace: LADDER-Est/astar -> {path}{shard_note} ({} records, {} dropped from ring, digest {})",
            trace.records, trace.dropped, trace.digest
        );
        eprintln!(
            "trace: reconciliation — pulses {}+{} vs writes {}+{}, reads {} vs {}, dispatches {} vs {}",
            trace.totals.data_pulses,
            trace.totals.metadata_pulses,
            r.mem.data_writes,
            r.mem.metadata_writes,
            trace.totals.demand_reads + trace.totals.smb_reads + trace.totals.metadata_reads,
            r.mem.demand_reads + r.mem.smb_reads + r.mem.metadata_reads,
            trace.totals.dispatch_total(),
            r.events.total()
        );
        eprint!("{}", ladder_trace::time_attribution(&trace.totals));
        eprint!("{}", run.summary());
    }
}

/// Parses the value following flag `argv[i]`, passes it through `check`
/// and stores it, rejecting a second occurrence — flags are single-shot,
/// so a silent last-wins would hide operator typos in long sweep
/// invocations. Errors name the flag instead of indexing out of bounds.
fn set_once<T: std::str::FromStr, U>(
    slot: &mut Option<U>,
    argv: &[String],
    i: usize,
    check: impl FnOnce(T) -> Result<U, String>,
) -> Result<(), String> {
    let flag = &argv[i];
    let raw = argv
        .get(i + 1)
        .ok_or_else(|| format!("`{flag}` is missing its value"))?;
    let value = raw
        .parse()
        .map_err(|_| format!("`{flag}` value `{raw}` is not valid"))?;
    let value = check(value)?;
    if slot.is_some() {
        return Err(format!("duplicate flag `{flag}`"));
    }
    *slot = Some(value);
    Ok(())
}

/// Parses `--load`'s comma-separated list of offered loads; every entry
/// must be a positive finite requests/µs figure.
fn load_list(raw: String) -> Result<Vec<f64>, String> {
    let invalid = || format!("`--load` value `{raw}` is not valid");
    let mut loads = Vec::new();
    for part in raw.split(',') {
        let v: f64 = part.trim().parse().map_err(|_| invalid())?;
        if !v.is_finite() || v <= 0.0 {
            return Err(invalid());
        }
        loads.push(v);
    }
    Ok(loads)
}

/// Prints the runner's cumulative batch statistics to stderr (so figure
/// data on stdout stays clean).
pub fn report_runner(runner: &Runner) {
    let stats = runner.cumulative();
    if stats.jobs > 0 {
        eprintln!("{}", stats.summary());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(list: &[&str]) -> Result<BenchArgs, String> {
        let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        BenchArgs::parse_from(&argv)
    }

    #[test]
    fn defaults_without_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.cfg.instructions_per_core, 1_000_000);
        assert_eq!(a.cfg.seed, 2021);
        assert_eq!(a.jobs, None);
        assert!(!a.quick);
        assert_eq!(a.trace, None);
        assert_eq!(a.topology, None);
        assert_eq!(a.interleave, None);
        assert_eq!(a.csv, None);
        assert_eq!(a.arrival, None);
        assert_eq!(a.zipf, None);
        assert_eq!(a.tenants, None);
        assert!(a.load.is_empty());
        assert!(a.positional.is_empty());
    }

    #[test]
    fn quick_scales_down_but_instructions_override() {
        let a = parse(&["--quick"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.cfg.instructions_per_core, 120_000);
        let a = parse(&["--quick", "--instructions", "777"]).unwrap();
        assert_eq!(a.cfg.instructions_per_core, 777);
    }

    #[test]
    fn all_flags_parse_together() {
        let a = parse(&[
            "--seed",
            "7",
            "--jobs",
            "3",
            "--instructions",
            "42",
            "--topology",
            "4x2",
            "--interleave",
            "bank",
            "--csv",
            "/tmp/csv",
            "--trace",
            "/tmp/t.json",
            "--arrival",
            "bursty",
            "--zipf",
            "0.7",
            "--tenants",
            "5",
            "--load",
            "2.0,6.5",
        ])
        .unwrap();
        assert_eq!((a.cfg.seed, a.cfg.instructions_per_core), (7, 42));
        assert_eq!(a.jobs, Some(3));
        assert_eq!(a.topology, Some(Topology::new(4, 2).unwrap()));
        assert_eq!(a.interleave, Some(Interleave::Bank));
        assert_eq!(a.csv.as_deref(), Some("/tmp/csv"));
        assert_eq!(a.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(a.arrival, Some(ArrivalKind::Bursty));
        assert_eq!(a.zipf, Some(0.7));
        assert_eq!(a.tenants, Some(5));
        assert_eq!(a.load, vec![2.0, 6.5]);
    }

    #[test]
    fn duplicate_flags_are_rejected_not_last_wins() {
        let err = parse(&["--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.contains("duplicate flag `--seed`"), "{err}");
        let err = parse(&["--quick", "--quick"]).unwrap_err();
        assert!(err.contains("duplicate flag `--quick`"), "{err}");
        let err = parse(&["--load", "1", "--load", "2"]).unwrap_err();
        assert!(err.contains("duplicate flag `--load`"), "{err}");
        // A single occurrence of each still parses.
        assert!(parse(&["--quick", "--seed", "1"]).is_ok());
    }

    #[test]
    fn load_list_rejects_garbage_entries() {
        let err = parse(&["--load", "2.0,zebra"]).unwrap_err();
        assert!(err.contains("--load"), "{err}");
        let err = parse(&["--load", "0"]).unwrap_err();
        assert!(err.contains("--load"), "{err}");
        let err = parse(&["--load", "-3"]).unwrap_err();
        assert!(err.contains("--load"), "{err}");
        let err = parse(&["--arrival", "diagonal"]).unwrap_err();
        assert!(err.contains("--arrival"), "{err}");
        assert_eq!(parse(&["--load", " 4.0 "]).unwrap().load, vec![4.0]);
    }

    #[test]
    fn zipf_and_tenants_reject_out_of_range_values() {
        for bad in ["1.5", "1", "nan", "-0.5", "inf"] {
            let err = parse(&["--zipf", bad]).unwrap_err();
            assert!(err.contains("--zipf"), "{bad}: {err}");
        }
        let err = parse(&["--tenants", "0"]).unwrap_err();
        assert!(err.contains("--tenants"), "{err}");
        assert_eq!(parse(&["--zipf", "0"]).unwrap().zipf, Some(0.0));
        assert_eq!(parse(&["--zipf", "0.99"]).unwrap().zipf, Some(0.99));
        assert_eq!(parse(&["--tenants", "1"]).unwrap().tenants, Some(1));
    }

    #[test]
    fn service_tenants_must_fit_each_runs_page_window() {
        assert_eq!(parse(&[]).unwrap().service_tenants(), Ok(3));
        let (_, span) = tenant_window(&Geometry::default());
        let fits = span.to_string();
        assert_eq!(
            parse(&["--tenants", &fits]).unwrap().service_tenants(),
            Ok(span as usize)
        );
        let err = parse(&["--tenants", "100000000"])
            .unwrap()
            .service_tenants()
            .unwrap_err();
        assert!(err.contains("--tenants"), "{err}");
        // Under a topology each shard's run gets a one-channel slice, so
        // the whole module's window no longer fits.
        let err = parse(&["--tenants", &fits, "--topology", "4x1"])
            .unwrap()
            .service_tenants()
            .unwrap_err();
        assert!(err.contains("--tenants"), "{err}");
    }

    #[test]
    fn positional_arguments_ride_along() {
        let a = parse(&["table2", "--quick"]).unwrap();
        assert_eq!(a.positional, vec!["table2".to_string()]);
        assert!(a.quick);
    }

    #[test]
    fn topology_and_interleave_reject_garbage() {
        let err = parse(&["--topology", "4"]).unwrap_err();
        assert!(err.contains("--topology") && err.contains('4'), "{err}");
        let err = parse(&["--interleave", "diagonal"]).unwrap_err();
        assert!(err.contains("--interleave"), "{err}");
        // 9 ranks of 8 banks overflow a channel's 64-bank masks.
        let err = parse(&["--topology", "1x9"]).unwrap_err();
        assert!(
            err.contains("--topology") && err.contains("72 banks"),
            "{err}"
        );
        assert!(parse(&["--topology", "1x8"]).is_ok());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn trailing_flag_reports_missing_value() {
        for trailing in [
            "--seed",
            "--instructions",
            "--jobs",
            "--trace",
            "--topology",
            "--arrival",
            "--zipf",
            "--tenants",
            "--load",
        ] {
            let err = parse(&[trailing]).unwrap_err();
            assert!(err.contains("missing its value"), "{err}");
            assert!(err.contains(trailing), "{err}");
        }
    }

    #[test]
    fn unparsable_value_names_flag_and_value() {
        let err = parse(&["--seed", "xyz"]).unwrap_err();
        assert!(err.contains("--seed") && err.contains("xyz"), "{err}");
        let err = parse(&["--jobs", "-1"]).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }

    /// Every flag, an unknown one and a lone dash.
    const FLAGS: [&str; 14] = [
        "--quick",
        "--instructions",
        "--seed",
        "--jobs",
        "--trace",
        "--topology",
        "--interleave",
        "--csv",
        "--arrival",
        "--zipf",
        "--tenants",
        "--load",
        "--bogus",
        "-",
    ];

    /// Flag values: valid ones, and negative, overflowing, non-finite,
    /// NaN, out-of-range, malformed-list, empty and multibyte ones.
    const VALUES: [&str; 26] = [
        "0",
        "1",
        "-1",
        "-0.0",
        "0.5",
        "0.9999999999999999",
        "1.0",
        "18446744073709551616",
        "1e309",
        "-inf",
        "NaN",
        "nan",
        "2,6.5",
        "1,,2",
        "3,NaN",
        "4,-2",
        "4x2",
        "1x9",
        "2x18446744073709551615",
        "poisson",
        "bank",
        "",
        " ",
        "\u{e9}",
        "\u{65e5}\u{672c}",
        "\u{0}",
    ];

    /// One or two arguments: a flag with a value (possibly a duplicate
    /// or another flag), a lone flag or value (so values go missing),
    /// or arbitrary text.
    fn arb_args() -> impl Strategy<Value = Vec<String>> {
        let text = |i: usize| {
            if i < FLAGS.len() {
                FLAGS[i].to_string()
            } else {
                VALUES[i - FLAGS.len()].to_string()
            }
        };
        prop_oneof![
            (0..FLAGS.len(), 0..VALUES.len())
                .prop_map(|(f, v)| vec![FLAGS[f].to_string(), VALUES[v].to_string()]),
            (0..FLAGS.len() + VALUES.len()).prop_map(move |i| vec![text(i)]),
            prop::collection::vec(0u32..0x11_0000, 0..6)
                .prop_map(|cs| vec![cs.into_iter().filter_map(char::from_u32).collect()]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        // Any argument soup parses to `Ok` or `Err`, never a panic, and
        // whatever is accepted holds the documented ranges.
        #[test]
        fn parse_from_never_panics(soup in prop::collection::vec(arb_args(), 0..4)) {
            let argv: Vec<String> = soup.concat();
            if let Ok(a) = BenchArgs::parse_from(&argv) {
                prop_assert!(a.zipf.is_none_or(|z| (0.0..1.0).contains(&z)), "{argv:?}");
                prop_assert!(a.tenants.is_none_or(|n| n >= 1), "{argv:?}");
                prop_assert!(a.load.iter().all(|l| l.is_finite() && *l > 0.0), "{argv:?}");
                prop_assert!(!a.quick || argv.iter().any(|t| t == "--quick"));
                if let Some(t) = a.topology {
                    prop_assert!(t.shard_geometry(&Geometry::default()).validate().is_ok());
                }
                let _ = a.service_tenants();
            }
        }
    }

    #[test]
    fn topology_or_prefers_the_flag() {
        let dflt = Topology::new(4, 2).unwrap();
        assert_eq!(parse(&[]).unwrap().topology_or(dflt), dflt);
        assert_eq!(
            parse(&["--topology", "8x1"]).unwrap().topology_or(dflt),
            Topology::new(8, 1).unwrap()
        );
    }
}
