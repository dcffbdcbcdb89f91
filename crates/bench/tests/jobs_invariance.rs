//! `--jobs` invariance of the bench binaries whose runs fan out on the
//! runner: the sharded interleave sweep, the sharded open-loop service
//! sweep and the lifetime campaign must print byte-identical stdout at
//! one and at four workers. Each binary runs at `--quick` scale, under a
//! second per run in a debug build.

use std::process::Command;

/// The stdout of `bin args`, which must exit successfully.
fn stdout_of(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Runs `bin args` at `--jobs 1` and `--jobs 4` and asserts equal stdout
/// that contains `needle`.
fn assert_jobs_invariant(bin: &str, args: &[&str], needle: &str) {
    let run = |jobs: &str| {
        let mut argv = args.to_vec();
        argv.extend(["--jobs", jobs]);
        stdout_of(bin, &argv)
    };
    let seq = run("1");
    assert_eq!(
        seq,
        run("4"),
        "{bin} {args:?} diverged between --jobs 1 and 4"
    );
    assert!(
        seq.contains(needle),
        "{bin} {args:?} printed no {needle:?}:\n{seq}"
    );
}

#[test]
fn sharded_interleave_sweep_is_jobs_invariant() {
    assert_jobs_invariant(
        env!("CARGO_BIN_EXE_interleave"),
        &["--quick", "--topology", "4x2"],
        "digest",
    );
}

#[test]
fn sharded_service_sweep_is_jobs_invariant() {
    assert_jobs_invariant(
        env!("CARGO_BIN_EXE_service"),
        &["--quick", "--topology", "2x2"],
        "p99/ns",
    );
}

#[test]
fn lifetime_campaign_is_jobs_invariant() {
    assert_jobs_invariant(
        env!("CARGO_BIN_EXE_lifetime_campaign"),
        &["--quick"],
        "device_years",
    );
}

#[test]
fn service_sweep_honours_interleave() {
    let bin = env!("CARGO_BIN_EXE_service");
    let args = [
        "--quick",
        "--jobs",
        "1",
        "--arrival",
        "poisson",
        "--load",
        "6",
    ];
    let sweep = |interleave: &[&str]| {
        let mut argv = args.to_vec();
        argv.extend(interleave);
        stdout_of(bin, &argv)
    };
    let default = sweep(&[]);
    assert_eq!(default, sweep(&["--interleave", "channel"]));
    assert_ne!(default, sweep(&["--interleave", "page"]));
}
