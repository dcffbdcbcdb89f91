//! End-to-end CLI contract: the documented exit codes (0 clean,
//! 1 findings, 2 usage/IO error) and the machine-readable output modes.
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
    assert_eq!(run(&["--json", "--sarif"]).status.code(), Some(2));
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
fn sarif_output_is_schema_shaped_and_byte_stable() {
    let bad = fixtures_dir("bad");
    let args = ["--sarif", "--fixtures", bad.to_str().expect("utf8 path")];
    let first = run(&args);
    let second = run(&args);
    assert_eq!(first.status.code(), Some(1));
    assert_eq!(
        first.stdout, second.stdout,
        "SARIF output is not byte-stable"
    );

    let sarif = String::from_utf8(first.stdout).expect("utf8 sarif");
    // Minimal SARIF 2.1.0 shape: schema pointer, version, driver, and one
    // result per finding with a physical location.
    assert!(sarif.contains("\"$schema\""));
    assert!(sarif.contains("sarif-schema-2.1.0.json"));
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"name\": \"ladder-lint\""));
    assert!(sarif.contains("\"ruleId\": \"hash-iter\""));
    assert!(sarif.contains("\"ruleId\": \"counter-overflow-policy\""));
    assert!(sarif.contains("\"startLine\""));
    assert!(sarif.contains("\"startColumn\""));
    // Balanced braces/brackets — cheap structural sanity without a JSON
    // parser (the workspace is dependency-free by design).
    let balance = |open: char, close: char| {
        sarif.chars().filter(|&c| c == open).count()
            == sarif.chars().filter(|&c| c == close).count()
    };
    assert!(balance('{', '}'));
    assert!(balance('[', ']'));
}

#[test]
fn json_and_sarif_render_the_same_findings() {
    let bad = fixtures_dir("bad");
    let json = run(&["--json", "--fixtures", bad.to_str().expect("utf8 path")]);
    let sarif = run(&["--sarif", "--fixtures", bad.to_str().expect("utf8 path")]);
    let json = String::from_utf8(json.stdout).expect("utf8 json");
    let sarif = String::from_utf8(sarif.stdout).expect("utf8 sarif");
    let rule_count = |hay: &str, needle: &str| hay.matches(needle).count();
    for rule in ladder_lint::RULES {
        assert_eq!(
            rule_count(&json, &format!("\"rule\":\"{}\"", rule.name)),
            rule_count(&sarif, &format!("\"ruleId\": \"{}\"", rule.name)),
            "finding count for `{}` differs between --json and --sarif",
            rule.name
        );
    }
}
