//! End-to-end CLI contract: the documented exit codes (0 clean,
//! 1 findings, 2 usage/IO error) and the machine-readable JSON output.
//! `just lint` and CI shell scripts branch on these codes, so
//! they are asserted here rather than left as documentation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ladder-lint")
}

fn fixtures_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn ladder-lint")
}

fn scratch_root(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .join(format!("pid{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch root");
    }
    for (rel, contents) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, contents).expect("write scratch file");
    }
    dir
}

#[test]
fn exit_zero_on_a_clean_tree() {
    let root = scratch_root(
        "clean",
        &[(
            "crates/x/src/lib.rs",
            "pub fn double(v: u64) -> u64 { v * 2 }\n",
        )],
    );
    let out = run(&["--root", root.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("clean"));
}

#[test]
fn exit_one_when_findings_are_reported() {
    let root = scratch_root(
        "dirty",
        &[(
            "crates/sim/src/lib.rs",
            "use std::collections::HashMap;\npub fn f(m: &HashMap<u64, u64>) -> u64 { m.len() as u64 }\n",
        )],
    );
    let out = run(&["--root", root.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("hash-iter"));
}

#[test]
fn exit_two_on_usage_and_io_errors() {
    assert_eq!(run(&["--no-such-flag"]).status.code(), Some(2));
    assert_eq!(run(&["--root"]).status.code(), Some(2));
    assert_eq!(
        run(&["--root", "/nonexistent/lint/root"]).status.code(),
        Some(2)
    );
    assert_eq!(
        run(&["--fixtures", "/nonexistent/fixture/dir"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn fixture_corpus_self_check_exit_codes() {
    // The bad corpus reports findings (that is its job): exit 1.
    let bad = fixtures_dir("bad");
    let out = run(&["--fixtures", bad.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // The clean corpus reports nothing: exit 0.
    let clean = fixtures_dir("clean");
    let out = run(&["--fixtures", clean.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn json_and_text_render_the_same_findings() {
    let bad = fixtures_dir("bad");
    let bad = bad.to_str().expect("utf8 path");
    let json = run(&["--json", "--fixtures", bad]);
    let text = run(&["--fixtures", bad]);
    assert_eq!(json.status.code(), Some(1));
    assert_eq!(
        json.stdout,
        run(&["--json", "--fixtures", bad]).stdout,
        "JSON output is not byte-stable"
    );
    let json = String::from_utf8(json.stdout).expect("utf8 json");
    let text = String::from_utf8(text.stdout).expect("utf8 text");
    for rule in ladder_lint::RULES {
        assert_eq!(
            json.matches(&format!("\"rule\":\"{}\"", rule.name)).count(),
            text.matches(&format!(": deny({}): ", rule.name)).count(),
            "finding count for `{}` differs between --json and text",
            rule.name
        );
    }
}
