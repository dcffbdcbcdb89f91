//! Exit codes of the `figures` binary: 2 for a command line it cannot
//! run, 1 for an output it cannot write. Every case fails before any
//! simulation starts.

use std::process::{Command, Output};

#[expect(
    clippy::expect_used,
    reason = "test helper: a binary that cannot start is a test failure"
)]
fn figures(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_figures");
    Command::new(bin).args(args).output().expect("run figures")
}

fn assert_exit(out: &Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr:\n{stderr}");
    assert!(stderr.contains(needle), "no {needle:?} in:\n{stderr}");
}

#[test]
fn bad_command_lines_exit_2() {
    let unknown = figures(&["fig3", "--quick"]);
    assert_exit(&unknown, 2, "unknown figure `fig3`");
    for f in ladder_bench::figures::ALL {
        assert_exit(&unknown, 2, f.name);
    }
    assert_exit(&figures(&[]), 2, "missing the figure name");
    assert_exit(&figures(&["fig2", "--bogus"]), 2, "--bogus");
    assert_exit(
        &figures(&["service", "--tenants", "100000000"]),
        2,
        "--tenants",
    );
    assert_exit(&figures(&["regen", "--quick"]), 2, "regen");
}

#[test]
fn uncreatable_csv_directory_exits_1_naming_the_path() {
    let file = std::env::temp_dir().join(format!("ladder-figures-csv-{}", std::process::id()));
    std::fs::write(&file, "a regular file").expect("create the blocking file");
    let dir = file.join("csv");
    let dir = dir.to_str().expect("UTF-8 temp path");
    let out = figures(&["main_eval", "--instructions", "1000", "--csv", dir]);
    std::fs::remove_file(&file).expect("remove the blocking file");
    assert_exit(&out, 1, dir);
    assert!(out.stdout.is_empty());
}
