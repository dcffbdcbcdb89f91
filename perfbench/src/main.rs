//! Benchmark harness of the LADDER simulator.
//!
//! * **End to end** (default, `--trace 0`): every selected workload runs
//!   as a fresh child process of this binary, in interleaved rounds: round
//!   *r* runs each workload once before round *r + 1* starts, and round 0
//!   is a discarded warm-up. Host metrics are medians over the timed
//!   rounds; simulated metrics are exact. Every run's stats fingerprint is
//!   checked against the committed one (seed 2021) or the warm-up's.
//! * **Profile** (`--trace 1` or `--profile`): per-layer host time timed
//!   from outside each layer's public calls, plus exact counts (see
//!   `profile.rs`).
//! * **Smoke** (`--quick`): each workload once, in-process, at 1/20 of its
//!   budget, with every check on.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in this
//! directory for the workloads, the metrics and how to read them.

mod profile;
mod stats;
mod workloads;

use ladder_bench::BenchArgs;
use ladder_sim::wallclock::{time, Stopwatch};
use ladder_sim::Runner;
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::Duration;
use workloads::{Outcome, SimMetrics, Workload, QUICK_DIV, REFERENCE_SEED};

const USAGE: &str = "usage: perfbench [--workload a,b] [--seconds S] [--reps N] [--trace 0|1]
                 [--profile] [--out PATH] [--rev REV] [--seed S] [--jobs N] [--quick]
  --workload a,b  workloads to run (default: all): closed_ladder, closed_baseline,
                  service_bursty, sharded_faults, matrix_quick
  --seconds S     keep starting timed rounds (or profile passes) for S seconds
                  (default 10; at least 3 rounds, 1 pass)
  --reps N        exactly N timed rounds instead of --seconds
  --trace 0|1     0: end-to-end metrics (default); 1: the per-layer profile
  --profile       same as --trace 1
  --out PATH      also write the full JSON report to PATH
  --rev REV       revision recorded in the report (letters, digits, . _ -)
  --seed S        workload seed (default 2021, the seed fingerprints are committed for)
  --jobs N        runner workers inside each run (default 1)
  --quick         each workload once, in-process, at 1/20 budget, all checks on
Every flag may appear at most once.";

/// A metric's name, unit, better direction and value (or samples).
type Row<T> = (&'static str, &'static str, &'static str, T);

/// Version of the `--out` report layout.
const SCHEMA: u32 = 1;

/// Timed rounds run even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 3;

/// A child still running after this long is killed and counted failed
/// (a full-budget run takes under 5 s on a 2-CPU host).
const CHILD_DEADLINE_S: f64 = 30.0;

/// A run slower than this multiple of its workload's median wall time
/// counts as failed.
const SLOW_RUN_FACTOR: f64 = 3.0;

/// The end-to-end metrics every workload reports (`BENCHMARK.json`'s
/// `end_to_end`): name, unit, which direction is better.
const E2E: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("events_per_s", "events/s", "higher"),
    ("writes_per_s", "writes/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_write_service_ns", "ns", "lower"),
];

/// Host rates reported only where the work unit exists.
const RATES: [(&str, &str, &str); 2] = [
    ("minstr_per_s", "Minstr/s", "higher"),
    ("requests_per_s", "requests/s", "higher"),
];

/// Simulated metrics beyond `sim_write_service_ns`, reported where they
/// exist: exact for a seed, and a property of the unvalidated model.
const SIM: [(&str, &str, &str); 3] = [
    ("sim_ipc", "IPC", "higher"),
    ("sim_p99_read_ns", "ns", "lower"),
    ("sim_ladder_speedup", "x", "higher"),
];

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workloads: Vec<Workload>,
    seconds: f64,
    reps: Option<usize>,
    profile: bool,
    out: Option<String>,
    rev: String,
    child: Option<Workload>,
    seed: u64,
    jobs: usize,
    quick: bool,
}

/// Splits the harness's own flags off `argv` and hands the rest to
/// [`BenchArgs::parse_from`], so the shared flags (`--seed`, `--jobs`,
/// `--quick`) parse exactly as in every bench binary.
fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workloads: Option<Vec<Workload>> = None;
    let mut seconds: Option<f64> = None;
    let mut reps: Option<usize> = None;
    let mut trace: Option<bool> = None;
    let mut profile = false;
    let mut out: Option<String> = None;
    let mut rev: Option<String> = None;
    let mut child: Option<Workload> = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--profile" {
            if profile {
                return Err("duplicate flag `--profile`".to_string());
            }
            profile = true;
            i += 1;
            continue;
        }
        let takes_value = [
            "--workload",
            "--seconds",
            "--reps",
            "--trace",
            "--out",
            "--rev",
            "--child",
        ];
        if !takes_value.contains(&flag) {
            rest.push(argv[i].clone());
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("`{flag}` is missing its value"))?;
        let bad = || format!("`{flag}` value `{value}` is not valid");
        match flag {
            "--workload" => {
                let list = value
                    .split(',')
                    .map(Workload::parse)
                    .collect::<Result<Vec<_>, _>>()?;
                set_once(&mut workloads, list, flag)?;
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                set_once(&mut seconds, s, flag)?;
            }
            "--reps" => {
                let n: usize = value.parse().map_err(|_| bad())?;
                if n == 0 {
                    return Err(bad());
                }
                set_once(&mut reps, n, flag)?;
            }
            "--trace" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                set_once(&mut trace, on, flag)?;
            }
            "--out" => set_once(&mut out, value.clone(), flag)?,
            "--rev" => {
                let ok = value
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c));
                if !ok || value.is_empty() {
                    return Err(bad());
                }
                set_once(&mut rev, value.clone(), flag)?;
            }
            _ => set_once(&mut child, Workload::parse(value)?, flag)?,
        }
        i += 2;
    }
    let args = BenchArgs::parse_from(&rest)?;
    if let Some(unused) = rest
        .iter()
        .find(|a| a.starts_with("--") && !["--seed", "--jobs", "--quick"].contains(&a.as_str()))
    {
        return Err(format!("`{unused}` is not used by the benchmark"));
    }
    if let Some(p) = args.positional.first() {
        return Err(format!("unexpected argument `{p}`"));
    }
    Ok(Cli {
        workloads: workloads.unwrap_or_else(|| Workload::ALL.to_vec()),
        seconds: seconds.unwrap_or(10.0),
        reps,
        profile: profile || trace == Some(true),
        out,
        rev: rev.unwrap_or_else(|| "unknown".to_string()),
        child,
        seed: args.cfg.seed,
        jobs: args.jobs.unwrap_or(1),
        quick: args.quick,
    })
}

fn set_once<T>(slot: &mut Option<T>, value: T, flag: &str) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("duplicate flag `{flag}`"));
    }
    *slot = Some(value);
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if let Some(w) = cli.child {
        std::process::exit(child(w, &cli));
    } else if cli.quick {
        quick(&cli)
    } else if cli.profile {
        profile_mode(&cli)
    } else {
        e2e(&cli)
    };
    print!("{}", report.render_table());
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, report.render_json(&cli)) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", report.result_line());
    if report.failed() > 0 {
        std::process::exit(1);
    }
}

/// Everything one invocation measured, per workload.
struct Report {
    mode: &'static str,
    rounds: usize,
    workloads: Vec<WorkloadReport>,
}

/// One workload's measurements.
struct WorkloadReport {
    workload: Workload,
    attempted: usize,
    failures: Vec<String>,
    fingerprint: Option<u64>,
    /// Host metrics (and, in profile mode, every per-layer metric), one
    /// sample per run or pass.
    host: Vec<Row<Vec<f64>>>,
    /// Exact simulated metrics.
    exact: Vec<Row<f64>>,
}

impl WorkloadReport {
    fn new(workload: Workload) -> WorkloadReport {
        WorkloadReport {
            workload,
            attempted: 0,
            failures: Vec::new(),
            fingerprint: None,
            host: Vec::new(),
            exact: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("perfbench: {}: {why}", self.workload.name());
        self.failures.push(why);
    }

    /// `(name, unit, value)` of every metric: host medians, then exact
    /// values.
    fn values(&self) -> Vec<(&'static str, &'static str, f64)> {
        let host = self
            .host
            .iter()
            .filter_map(|h| Summary::of(&h.3).map(|s| (h.0, h.1, s.median)));
        host.chain(self.exact.iter().map(|e| (e.0, e.1, e.3)))
            .collect()
    }
}

impl Report {
    fn failed(&self) -> usize {
        self.workloads.iter().map(|w| w.failures.len()).sum()
    }

    /// The contract's last line: the end-to-end metrics, or in profile
    /// mode every per-layer metric. With several workloads each name is
    /// prefixed by its workload (`closed_ladder.wall_s`).
    fn result_line(&self) -> String {
        let attempted: usize = self.workloads.iter().map(|w| w.attempted).sum();
        let failed = self.failed();
        let prefix = self.workloads.len() > 1;
        let mut metrics = Vec::new();
        for w in &self.workloads {
            for (name, unit, v) in w.values() {
                if self.mode != "profile" && !E2E.iter().any(|e| e.0 == name) {
                    continue;
                }
                let key = if prefix {
                    format!("{}.{name}", w.workload.name())
                } else {
                    name.to_string()
                };
                metrics.push(format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            metrics.join(", ")
        )
    }

    /// Human-readable table of every metric.
    fn render_table(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {} ({} mode, {} of {} runs failed{})",
                w.workload.name(),
                self.mode,
                w.failures.len(),
                w.attempted,
                w.fingerprint
                    .map(|f| format!(", fingerprint {f:#018x}"))
                    .unwrap_or_default()
            );
            let _ = writeln!(
                out,
                "  {:<34}{:>14}{:>14}{:>14}{:>14}{:>14}{:>4}  unit",
                "metric", "median", "q1", "q3", "min", "max", "n"
            );
            for (name, unit, _, samples) in &w.host {
                if let Some(s) = Summary::of(samples) {
                    let _ = writeln!(
                        out,
                        "  {name:<34}{:>14}{:>14}{:>14}{:>14}{:>14}{:>4}  {unit}",
                        short(s.median),
                        short(s.q1),
                        short(s.q3),
                        short(s.min),
                        short(s.max),
                        s.n
                    );
                }
            }
            for (name, unit, _, v) in &w.exact {
                let _ = writeln!(
                    out,
                    "  {name:<34}{:>14}{:>60}  {unit}, exact",
                    short(*v),
                    ""
                );
            }
            if let Some(s) = w.exact.iter().find(|e| e.0 == "sim_ladder_speedup") {
                let _ = writeln!(
                    out,
                    "  paper averages: LADDER-Est +27% on singles and +55% on mixes, \
                     LADDER +46% overall; here {:.2}x (the model is unvalidated)",
                    s.3
                );
            }
        }
        out
    }

    /// The `--out` report: host numbers with their order statistics and
    /// exact simulated numbers in separate objects; only the latter are
    /// fingerprinted.
    fn render_json(&self, cli: &Cli) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": {SCHEMA},\n  \"mode\": \"{}\",\n  \"rev\": \"{}\",\n  \
             \"seed\": {},\n  \"jobs\": {},\n  \"nproc\": {nproc},\n  \"rounds\": {},\n  \
             \"workloads\": [",
            self.mode, cli.rev, cli.seed, cli.jobs, self.rounds
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let fp = |f: Option<u64>| f.map_or("null".to_string(), |f| format!("\"{f:#018x}\""));
            let expected =
                (cli.seed == REFERENCE_SEED).then(|| w.workload.expected_fingerprint(cli.quick));
            let failures: Vec<String> = w.failures.iter().map(|f| format!("{f:?}")).collect();
            let _ = write!(
                out,
                "{}\n    {{\n      \"name\": \"{}\",\n      \"why\": \"{}\",\n      \
                 \"attempted\": {},\n      \"failed\": {},\n      \"failed_run_frac\": {},\n      \
                 \"failures\": [{}],\n      \"fingerprint\": {},\n      \
                 \"expected_fingerprint\": {},\n      \"host\": {{",
                if i == 0 { "" } else { "," },
                w.workload.name(),
                w.workload.why(),
                w.attempted,
                w.failures.len(),
                num(w.failures.len() as f64 / w.attempted.max(1) as f64),
                failures.join(", "),
                fp(w.fingerprint),
                fp(expected)
            );
            let host: Vec<String> = w
                .host
                .iter()
                .filter_map(|(name, unit, better, samples)| {
                    let s = Summary::of(samples)?;
                    Some(format!(
                        "\n        \"{name}\": {{\"unit\": \"{unit}\", \"better\": \"{better}\", \
                         \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \
                         \"n\": {}, \"spread\": {}}}",
                        num(s.median),
                        num(s.q1),
                        num(s.q3),
                        num(s.min),
                        num(s.max),
                        s.n,
                        num(s.spread())
                    ))
                })
                .collect();
            let exact: Vec<String> = w
                .exact
                .iter()
                .map(|(name, unit, better, v)| {
                    format!(
                        "\n        \"{name}\": {{\"unit\": \"{unit}\", \"better\": \"{better}\", \
                         \"value\": {}}}",
                        num(*v)
                    )
                })
                .collect();
            let _ = write!(
                out,
                "{}\n      }},\n      \"sim\": {{{}\n      }}\n    }}",
                host.join(","),
                exact.join(",")
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// About seven significant digits, for the table.
fn short(x: f64) -> String {
    let digits = if x == 0.0 {
        1
    } else {
        x.abs().log10().floor() as i32 + 1
    };
    let decimals = (7 - digits).clamp(0, 6) as usize;
    format!("{x:.decimals$}")
}

/// A JSON number, or `null` for a non-finite value.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------------
// End-to-end mode: interleaved rounds of child processes.
// ---------------------------------------------------------------------------

/// What one run measured: host numbers plus its exact results.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Measured {
    setup_s: f64,
    wall_s: f64,
    events: u64,
    writes: u64,
    peak_rss_mb: f64,
    sim: SimMetrics,
    fingerprint: u64,
    checks_ok: bool,
}

impl Measured {
    fn of(setup: Duration, run: Duration, outcome: &Outcome, checks_ok: bool) -> Measured {
        let t = outcome.totals();
        Measured {
            setup_s: setup.as_secs_f64(),
            wall_s: run.as_secs_f64(),
            events: t.events.total(),
            writes: t.mem.data_writes,
            peak_rss_mb: peak_rss_mb(),
            sim: outcome.sim(),
            fingerprint: outcome.fingerprint(),
            checks_ok,
        }
    }

    /// The `key=value` line a child prints for its parent.
    fn line(&self) -> String {
        let s = &self.sim;
        format!(
            "perfbench-child setup_s={} wall_s={} events={} writes={} peak_rss_mb={} \
             fingerprint={} checks_ok={} ipc={} write_service_ns={} p99_read_ns={} \
             ladder_speedup={} instructions={} requests={}",
            self.setup_s,
            self.wall_s,
            self.events,
            self.writes,
            self.peak_rss_mb,
            self.fingerprint,
            self.checks_ok,
            s.ipc,
            s.write_service_ns,
            s.p99_read_ns,
            s.ladder_speedup,
            s.instructions,
            s.requests
        )
    }

    /// Parses the line [`Measured::line`] printed, from anywhere in a
    /// child's output.
    fn parse(stdout: &str) -> Result<Measured, String> {
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("perfbench-child "))
            .ok_or("child printed no measurement line")?;
        let fields: BTreeMap<&str, &str> = line
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .collect();
        fn get<T: std::str::FromStr>(f: &BTreeMap<&str, &str>, k: &str) -> Result<T, String> {
            f.get(k)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("child output lacks a valid `{k}`"))
        }
        Ok(Measured {
            setup_s: get(&fields, "setup_s")?,
            wall_s: get(&fields, "wall_s")?,
            events: get(&fields, "events")?,
            writes: get(&fields, "writes")?,
            peak_rss_mb: get(&fields, "peak_rss_mb")?,
            sim: SimMetrics {
                ipc: get(&fields, "ipc")?,
                write_service_ns: get(&fields, "write_service_ns")?,
                p99_read_ns: get(&fields, "p99_read_ns")?,
                ladder_speedup: get(&fields, "ladder_speedup")?,
                instructions: get(&fields, "instructions")?,
                requests: get(&fields, "requests")?,
            },
            fingerprint: get(&fields, "fingerprint")?,
            checks_ok: get(&fields, "checks_ok")?,
        })
    }
}

/// `--child W`: set up and run `W` once, then print one measurement line
/// for the parent.
fn child(w: Workload, cli: &Cli) -> i32 {
    let runner = Runner::with_jobs(cli.jobs);
    let (setup, setup_t) = time(|| w.setup(cli.seed, 1));
    let (outcome, run_t) = time(|| setup.run(&runner));
    let checks_ok = match outcome.check(&setup) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            false
        }
    };
    println!(
        "{}",
        Measured::of(setup_t, run_t, &outcome, checks_ok).line()
    );
    0
}

/// Peak resident set size of this process (`VmHWM`), MB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `w` once in a fresh child process of this binary.
fn spawn_child(w: Workload, cli: &Cli) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", w.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--jobs", &cli.jobs.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let started = Stopwatch::start();
    // The child prints one short line, far below the pipe's capacity, so
    // it never blocks on a full pipe while the parent polls.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed_secs() > CHILD_DEADLINE_S => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("killed after {CHILD_DEADLINE_S} s"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(format!("cannot wait for child: {e}")),
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| format!("cannot read child output: {e}"))?;
    }
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    Measured::parse(&stdout)
}

/// The host metrics of one run: the end-to-end set, then the rate of the
/// workload's own work unit.
fn host_metrics(w: Workload, m: &Measured) -> Vec<Row<f64>> {
    let wall = m.wall_s.max(1e-9);
    let values = [
        m.setup_s,
        wall,
        m.events as f64 / wall,
        m.writes as f64 / wall,
        m.peak_rss_mb,
    ];
    let mut v: Vec<Row<f64>> = E2E
        .iter()
        .zip(values)
        .map(|(&(n, u, b), x)| (n, u, b, x))
        .collect();
    let (n, u, b) = if w == Workload::ServiceBursty {
        RATES[1]
    } else {
        RATES[0]
    };
    let work = if w == Workload::ServiceBursty {
        m.sim.requests as f64
    } else {
        m.sim.instructions as f64 / 1e6
    };
    v.push((n, u, b, work / wall));
    v
}

/// The exact metrics that exist for `w`.
fn exact_metrics(w: Workload, s: &SimMetrics) -> Vec<Row<f64>> {
    let (n, u, b) = E2E[5];
    let mut v = vec![(n, u, b, s.write_service_ns)];
    for (name, unit, better) in SIM {
        let value = match name {
            "sim_ipc" if w != Workload::ServiceBursty => s.ipc,
            "sim_p99_read_ns" if w != Workload::MatrixQuick => s.p99_read_ns,
            "sim_ladder_speedup" if w == Workload::MatrixQuick => s.ladder_speedup,
            _ => continue,
        };
        v.push((name, unit, better, value));
    }
    v
}

/// Appends one run's values to `host`'s sample lists, in order.
fn add_samples(host: &mut Vec<Row<Vec<f64>>>, values: Vec<Row<f64>>) {
    for (k, (name, unit, better, x)) in values.into_iter().enumerate() {
        match host.get_mut(k) {
            Some(slot) => slot.3.push(x),
            None => host.push((name, unit, better, vec![x])),
        }
    }
}

/// Counts one attempted run against `rep`. It fails if it did not finish,
/// if its fingerprint differs from `reference` (which the first run sets
/// when no committed value exists), or if its invariants broke; the run
/// is returned only when it passed.
fn judge(
    rep: &mut WorkloadReport,
    reference: &mut Option<u64>,
    round: usize,
    run: Result<Measured, String>,
) -> Option<Measured> {
    rep.attempted += 1;
    let why = match run {
        Err(e) => e,
        Ok(run) => {
            let want = *reference.get_or_insert(run.fingerprint);
            if run.fingerprint != want {
                format!("fingerprint {:#018x} != {want:#018x}", run.fingerprint)
            } else if !run.checks_ok {
                "run checks failed".to_string()
            } else {
                return Some(run);
            }
        }
    };
    rep.fail(format!("round {round}: {why}"));
    None
}

/// End-to-end mode: interleaved rounds of fresh child processes.
fn e2e(cli: &Cli) -> Report {
    let mut reports: Vec<WorkloadReport> = cli
        .workloads
        .iter()
        .map(|&w| WorkloadReport::new(w))
        .collect();
    let mut runs: Vec<Vec<Measured>> = vec![Vec::new(); reports.len()];
    // Seeds without a committed fingerprint take the warm-up's.
    let mut reference: Vec<Option<u64>> = cli
        .workloads
        .iter()
        .map(|w| (cli.seed == REFERENCE_SEED).then(|| w.expected_fingerprint(false)))
        .collect();
    let mut round = 0;
    let mut clock = Stopwatch::start();
    loop {
        if round == 1 {
            // The measured window starts after the warm-up round.
            clock = Stopwatch::start();
        }
        let done = round > 0
            && match cli.reps {
                Some(n) => round > n,
                None => round > MIN_ROUNDS && clock.elapsed_secs() >= cli.seconds,
            };
        if done {
            break;
        }
        for (i, &w) in cli.workloads.iter().enumerate() {
            let run = judge(
                &mut reports[i],
                &mut reference[i],
                round,
                spawn_child(w, cli),
            );
            match run {
                Some(run) if round == 0 => {
                    reports[i].fingerprint = Some(run.fingerprint);
                    reports[i].exact = exact_metrics(w, &run.sim);
                }
                Some(run) => runs[i].push(run),
                None => {}
            }
        }
        round += 1;
    }
    for ((rep, runs), &w) in reports.iter_mut().zip(&runs).zip(&cli.workloads) {
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let limit = Summary::of(&walls).map_or(f64::INFINITY, |s| s.median * SLOW_RUN_FACTOR);
        for r in runs {
            if r.wall_s > limit {
                rep.fail(format!(
                    "a run took {:.3} s, over {SLOW_RUN_FACTOR}x the median",
                    r.wall_s
                ));
            } else {
                add_samples(&mut rep.host, host_metrics(w, r));
            }
        }
        if let (true, Some(r)) = (rep.exact.is_empty(), runs.first()) {
            // The warm-up failed but a timed run passed.
            rep.fingerprint = Some(r.fingerprint);
            rep.exact = exact_metrics(w, &r.sim);
        }
    }
    Report {
        mode: "e2e",
        rounds: round - 1,
        workloads: reports,
    }
}

// ---------------------------------------------------------------------------
// Profile and smoke modes: in-process.
// ---------------------------------------------------------------------------

/// Profile mode: per-layer passes over each workload until `--seconds`
/// (or `--reps` passes) are spent; medians across passes.
fn profile_mode(cli: &Cli) -> Report {
    let runner = Runner::with_jobs(cli.jobs);
    let mut reports = Vec::new();
    for &w in &cli.workloads {
        let mut rep = WorkloadReport::new(w);
        let clock = Stopwatch::start();
        while match cli.reps {
            Some(n) => rep.attempted < n,
            None => rep.attempted == 0 || clock.elapsed_secs() < cli.seconds,
        } {
            rep.attempted += 1;
            let pass = profile::pass(w, cli.seed, 1, &runner);
            if !pass.failures.is_empty() {
                rep.fail(pass.failures.join("; "));
            }
            rep.fingerprint = Some(pass.live.fingerprint());
            add_samples(&mut rep.host, pass.metrics);
        }
        reports.push(rep);
    }
    Report {
        mode: "profile",
        rounds: reports.iter().map(|r| r.attempted).max().unwrap_or(0),
        workloads: reports,
    }
}

/// Smoke mode: every workload once, in-process, at 1/20 of its budget,
/// through one profile pass, so every check of both modes runs
/// (committed fingerprint, invariants, replay == live, traced ==
/// untraced); reports the end-to-end metrics of that pass's live run.
fn quick(cli: &Cli) -> Report {
    let runner = Runner::with_jobs(cli.jobs);
    let mut reports = Vec::new();
    for &w in &cli.workloads {
        let mut rep = WorkloadReport::new(w);
        rep.attempted = 1;
        let pass = profile::pass(w, cli.seed, QUICK_DIV, &runner);
        if !pass.failures.is_empty() {
            rep.fail(pass.failures.join("; "));
        }
        let m = Measured::of(pass.setup_time, pass.run_time, &pass.live, true);
        rep.fingerprint = Some(m.fingerprint);
        add_samples(&mut rep.host, host_metrics(w, &m));
        rep.exact = exact_metrics(w, &m.sim);
        reports.push(rep);
    }
    Report {
        mode: "quick",
        rounds: 1,
        workloads: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_list(list: &[&str]) -> Result<Cli, String> {
        let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse(&argv)
    }

    /// A run measured in-process at a tiny budget: 15 M / 3000 = 5000
    /// instructions per core for the closed-loop workloads.
    fn tiny_pass(w: Workload) -> profile::Pass {
        profile::pass(w, 7, 3000, &Runner::sequential())
    }

    #[test]
    fn flags_split_between_harness_and_bench_args() {
        let cli = parse_list(&[
            "--workload",
            "closed_ladder,matrix_quick",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
            "--jobs",
            "2",
            "--rev",
            "3bf3c2d.x-1",
            "--out",
            "r.json",
        ])
        .unwrap();
        assert_eq!(
            cli.workloads,
            vec![Workload::ClosedLadder, Workload::MatrixQuick]
        );
        assert_eq!((cli.seed, cli.jobs, cli.seconds), (7, 2, 2.5));
        assert!(cli.profile && !cli.quick);
        assert_eq!(cli.rev, "3bf3c2d.x-1");
        assert_eq!(cli.out.as_deref(), Some("r.json"));

        let d = parse_list(&[]).unwrap();
        assert_eq!(d.workloads, Workload::ALL.to_vec());
        assert_eq!((d.seed, d.jobs, d.seconds, d.reps), (2021, 1, 10.0, None));
        assert!(!d.profile && !d.quick && d.child.is_none());
        assert!(parse_list(&["--profile"]).unwrap().profile);
        assert!(!parse_list(&["--trace", "0"]).unwrap().profile);
        assert!(parse_list(&["--quick"]).unwrap().quick);
        assert_eq!(
            parse_list(&["--child", "service_bursty"]).unwrap().child,
            Some(Workload::ServiceBursty)
        );
    }

    #[test]
    fn bad_flags_are_rejected() {
        for (argv, needle) in [
            (&["--bogus"][..], "--bogus"),
            (&["--seed", "1", "--seed", "2"], "duplicate flag `--seed`"),
            (&["--reps", "2", "--reps", "3"], "duplicate flag `--reps`"),
            (&["--profile", "--profile"], "duplicate flag `--profile`"),
            (&["--instructions", "5"], "not used by the benchmark"),
            (&["--trace", "2"], "--trace"),
            (&["--workload", "nope"], "unknown workload `nope`"),
            (&["--rev", "a b"], "--rev"),
            (&["--seconds"], "missing its value"),
            (&["--seconds", "0"], "--seconds"),
            (&["--reps", "0"], "--reps"),
            (&["extra"], "unexpected argument"),
        ] {
            let err = parse_list(argv).unwrap_err();
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
    }

    #[test]
    fn tiny_closed_ladder_replays_and_traces_identically() {
        let pass = tiny_pass(Workload::ClosedLadder);
        // Seed 7 has no committed fingerprint, so every failure here is a
        // broken invariant, replay != live, or traced != untraced.
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        let names: Vec<&str> = pass.metrics.iter().map(|m| m.0).collect();
        for want in ["xbar.tables_ms", "workloads.gen_share", "core.engine_share"] {
            assert!(names.contains(&want), "{want} missing");
        }
        let get = |n: &str| pass.metrics.iter().find(|m| m.0 == n).unwrap().3;
        assert!(get("sim.events") > 0.0 && get("trace.records") > 0.0);
        assert!(get("workloads.gen_share") + get("core.engine_share") < 1.0);
    }

    #[test]
    fn fingerprint_moves_with_any_counter() {
        let mut live = tiny_pass(Workload::ClosedLadder).live;
        let base = live.fingerprint();
        live.runs[0].mem.data_writes += 1;
        assert_ne!(live.fingerprint(), base);
        live.runs[0].mem.data_writes -= 1;
        assert_eq!(live.fingerprint(), base);
        live.runs[0].events.ctrl_bank_free += 1;
        assert_ne!(live.fingerprint(), base);
        live.runs[0].events.ctrl_bank_free -= 1;
        live.runs[0].cores[3].retired += 1;
        assert_ne!(live.fingerprint(), base);
        live.runs[0].cores[3].retired -= 1;
        // The Fig. 16 series is part of the committed value, not of the
        // per-run (traced vs untraced) comparison.
        let cells = live.cells_fingerprint();
        live.fig16.push(1.5);
        assert_ne!(live.fingerprint(), base);
        assert_eq!(live.cells_fingerprint(), cells);
    }

    #[test]
    fn wrong_expected_fingerprint_fails_the_run() {
        let m = Measured::of(
            Duration::from_millis(90),
            Duration::from_millis(1500),
            &tiny_pass(Workload::ClosedBaseline).live,
            true,
        );
        // The measurement line round-trips through the child protocol.
        assert_eq!(Measured::parse(&format!("noise\n{}\n", m.line())), Ok(m));

        let mut rep = WorkloadReport::new(Workload::ClosedBaseline);
        let mut wrong = Some(m.fingerprint ^ 1);
        assert!(judge(&mut rep, &mut wrong, 1, Ok(m)).is_none());
        assert!(judge(&mut rep, &mut wrong, 2, Err("killed".into())).is_none());
        let mut unset = None;
        assert_eq!(judge(&mut rep, &mut unset, 3, Ok(m)), Some(m));
        assert_eq!(unset, Some(m.fingerprint));
        let report = Report {
            mode: "e2e",
            rounds: 3,
            workloads: vec![rep],
        };
        assert_eq!(report.failed(), 2);
        let cli = parse_list(&["--seed", "7"]).unwrap();
        assert!(report
            .render_json(&cli)
            .contains("\"failed_run_frac\": 0.6666666666666666"));
        assert!(report
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 3"));
    }

    #[test]
    fn every_metric_has_a_unit_and_a_direction() {
        let pass = tiny_pass(Workload::ClosedLadder);
        let m = Measured::of(pass.setup_time, pass.run_time, &pass.live, true);
        let w = Workload::ClosedLadder;
        let mut e2e = WorkloadReport::new(w);
        e2e.attempted = 1;
        add_samples(&mut e2e.host, host_metrics(w, &m));
        e2e.exact = exact_metrics(w, &m.sim);
        let mut prof = WorkloadReport::new(w);
        prof.attempted = 1;
        add_samples(&mut prof.host, pass.metrics);
        let cli = parse_list(&["--seed", "7"]).unwrap();
        for (mode, rep) in [("e2e", e2e), ("profile", prof)] {
            for (name, unit, better, _) in rep
                .host
                .iter()
                .map(|h| (h.0, h.1, h.2, 0.0))
                .chain(rep.exact.clone())
            {
                assert!(!unit.is_empty(), "{name} has no unit");
                assert!(["lower", "higher"].contains(&better), "{name}: `{better}`");
            }
            let report = Report {
                mode,
                rounds: 1,
                workloads: vec![rep],
            };
            let json = report.render_json(&cli);
            for (name, unit, better, _) in &report.workloads[0].host {
                let entry = format!("\"{name}\": {{\"unit\": \"{unit}\", \"better\": \"{better}\"");
                assert!(json.contains(&entry), "{entry} missing from the report");
            }
            let line = report.result_line();
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"
            ));
            let keys = line.matches("\"value\"").count();
            let want = if mode == "e2e" {
                E2E.len()
            } else {
                report.workloads[0].host.len()
            };
            assert_eq!(keys, want, "{line}");
        }
    }
}
