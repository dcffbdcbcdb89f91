//! The live workspace must be lint-clean: zero findings across every
//! source file and every rule — including the cross-crate semantic pass
//! (fast/reference twins, Mergeable coverage, unit mixing, counter
//! overflow policy, dead pragmas). This test is the lint gate: the
//! root manifest's default members put it in plain `cargo test`, which
//! `scripts/verify.sh` runs.

use std::path::Path;

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
    assert!(
        report.findings.is_empty(),
        "workspace is not lint-clean:\n{}",
        to_json(&report.findings)
    );
}

#[test]
fn workspace_run_reports_stats_for_every_rule() {
    let report = run_workspace(workspace_root()).expect("walk workspace");
    assert!(report.files > 50, "only {} files discovered", report.files);
    // Index row + one per cataloged rule + the pragma-error row.
    assert_eq!(report.stats.len(), RULES.len() + 2);
    assert_eq!(report.stats[0].rule, "symbol-index");
    assert!(
        report.stats[0].nanos > 0,
        "symbol index build took zero time?"
    );
    for rule in RULES {
        assert!(
            report.stats.iter().any(|s| s.rule == rule.name),
            "no stat row for rule `{}`",
            rule.name
        );
    }
}
