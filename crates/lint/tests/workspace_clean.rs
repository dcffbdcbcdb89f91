//! The live workspace must be lint-clean: zero findings across every
//! source file and every rule, dead pragmas included. This test is the
//! lint gate: the root manifest's default members put it in plain
//! `cargo test`, which `scripts/verify.sh` runs.

use std::path::Path;

use ladder_lint::workspace::discover;
use ladder_lint::{run_workspace, to_json, RULES};

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root");
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

#[test]
fn live_workspace_has_zero_findings() {
    let report = run_workspace(workspace_root()).expect("walk workspace");
    // Zero findings only means something if the walk found the tree.
    assert!(report.files > 50, "only {} files discovered", report.files);
    assert!(
        report.findings.is_empty(),
        "workspace is not lint-clean:\n{}",
        to_json(&report.findings)
    );
}

/// Whether `rule` applies to the file at `path` with contents `src`, or
/// `None` for a rule with no scope here. Mirrors the `RuleInfo::scope`
/// lines, coarsely: a file that matches must be one the rule looks at.
fn in_scope(rule: &str, path: &str, src: &str) -> Option<bool> {
    let library = path.starts_with("crates/") && path.contains("/src/");
    Some(match rule {
        "hash-iter" => ["sim", "trace", "faults", "wear", "coding"]
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/src/"))),
        "wall-clock" | "ambient-rng" => library,
        "lossy-cast" => path.starts_with("crates/trace/src/") || src.contains("impl Mergeable for"),
        "panic-policy" => library && !path.contains("/src/bin/"),
        "dead-pragma" => src.contains("// lint: allow("),
        _ => return None,
    })
}

/// Zero findings say nothing about a rule whose scope the walk never
/// reached, so every cataloged rule must see at least one file it
/// applies to. Adding a rule to `RULES` without a scope arm above fails.
#[test]
fn workspace_run_reports_stats_for_every_rule() {
    let report = run_workspace(workspace_root()).expect("walk workspace");
    assert!(report.files > 50, "only {} files discovered", report.files);
    let files: Vec<(String, String)> = discover(workspace_root())
        .expect("walk workspace")
        .into_iter()
        .map(|f| {
            let src = std::fs::read_to_string(&f.abs_path).expect("read source");
            (f.rel_path, src)
        })
        .collect();
    assert_eq!(files.len(), report.files, "run and walk disagree");
    for rule in RULES {
        let hits = files
            .iter()
            .filter(|(path, src)| {
                in_scope(rule.name, path, src)
                    .unwrap_or_else(|| panic!("no scope arm for rule `{}`", rule.name))
            })
            .count();
        assert!(
            hits > 0,
            "rule `{}` applies to no discovered file",
            rule.name
        );
    }
}
