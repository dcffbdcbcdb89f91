//! `ladder-lint`: the workspace's determinism & accounting conformance
//! analyzer.
//!
//! The reproduction's headline guarantees — bit-identical results at any
//! `--jobs`, golden-trace digests, exact trace↔stats reconciliation — are
//! structural properties: they hold because no code in the simulation,
//! fold, or export paths consults iteration-order-unstable containers, the
//! host clock, or ambient randomness, and because accounting arithmetic
//! never silently truncates. This crate enforces those invariants as
//! deny-by-default lint rules over a hand-rolled, string/char/comment-aware
//! Rust lexer (no `syn` — the workspace builds `--offline` with path-local
//! dependencies only).
//!
//! Analysis is one pass per file ([`rules::analyze`]): the rules run
//! over the file's tokens, then every allow-pragma in it is audited for
//! liveness (`dead-pragma`). Invariants the type system can hold are not
//! lint rules: run configs are sealed against struct literals, every
//! statistics fold destructures its input exhaustively, reference
//! kernels are `#[cfg(test)]` with `dead_code` denied (a reference
//! without an equivalence test fails the test build), and the one
//! ns→ps conversion returns `Picos`.
//!
//! See DESIGN.md §11 for the rule catalog and the pragma grammar, and
//! [`rules::RULES`] for the machine-readable version.

pub(crate) mod lexer;
pub(crate) mod pragma;
pub mod rules;
pub mod workspace;

pub use rules::{analyze, Finding, RuleInfo, RULES};

use std::io;
use std::path::Path;

/// The result of linting a workspace.
#[derive(Debug)]
pub struct AnalysisReport {
    /// All findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files: usize,
}

/// Lints every source file under `root` and returns the full report.
pub fn run_workspace(root: &Path) -> io::Result<AnalysisReport> {
    let files = workspace::discover(root)?;
    let mut findings = Vec::new();
    // `discover` sorts by path and `analyze` sorts each file's findings by
    // position, so the concatenation is in (path, line, col, rule) order.
    for file in &files {
        findings.extend(analyze(
            &file.rel_path,
            &std::fs::read_to_string(&file.abs_path)?,
        ));
    }
    Ok(AnalysisReport {
        findings,
        files: files.len(),
    })
}

/// A fixture's declared expectation (`// expect:` header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// Rule the fixture must fire.
    pub rule: String,
    /// Exact `line:col` the finding must anchor at, if declared.
    pub pos: Option<(usize, usize)>,
}

/// One fixture file's outcome.
#[derive(Debug)]
pub struct FixtureReport {
    /// Fixture path relative to the fixture directory.
    pub fixture: String,
    /// Virtual workspace path of the fixture (`// path:` header, or the
    /// fixture path itself).
    pub virtual_path: String,
    /// Rule (and optionally position) the fixture expects to fire
    /// (`// expect:` header), if any.
    pub expected: Option<Expectation>,
    /// What actually fired.
    pub findings: Vec<Finding>,
}

impl FixtureReport {
    /// Whether the outcome matches the fixture's declared expectation:
    /// exactly one finding of the expected rule (at the expected position,
    /// when one is declared), or zero findings for a clean fixture.
    pub fn conforms(&self) -> bool {
        match &self.expected {
            Some(e) => {
                self.findings.len() == 1
                    && self.findings[0].rule == e.rule
                    && e.pos.is_none_or(|(l, c)| {
                        self.findings[0].line == l && self.findings[0].col == c
                    })
            }
            None => self.findings.is_empty(),
        }
    }
}

/// Lints a fixture corpus. Each `.rs` file may carry header comments:
///
/// ```text
/// // path: crates/sim/src/example.rs
/// // expect: hash-iter @ 5:23
/// ```
///
/// `path:` sets the virtual workspace path the path-scoped rules see;
/// `expect:` declares the single rule the snippet must fire, optionally
/// pinned to an exact `line:col` (absent for clean fixtures).
pub fn run_fixtures(dir: &Path) -> io::Result<Vec<FixtureReport>> {
    let mut reports = Vec::new();
    let mut files = Vec::new();
    collect_fixture_files(dir, dir, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    for (fixture, abs) in files {
        let source = std::fs::read_to_string(&abs)?;
        reports.push(run_fixture_source(&fixture, &source));
    }
    Ok(reports)
}

/// Lints one fixture from its raw contents.
fn run_fixture_source(fixture: &str, source: &str) -> FixtureReport {
    let virtual_path = header(source, "path:").unwrap_or_else(|| fixture.to_string());
    let expected = header(source, "expect:").map(|raw| parse_expectation(&raw));
    let findings = analyze(&virtual_path, source);
    FixtureReport {
        fixture: fixture.to_string(),
        virtual_path,
        expected,
        findings,
    }
}

/// Parses `<rule>` or `<rule> @ <line>:<col>`.
fn parse_expectation(raw: &str) -> Expectation {
    if let Some((rule, pos)) = raw.split_once('@') {
        if let Some((l, c)) = pos.trim().split_once(':') {
            if let (Ok(l), Ok(c)) = (l.trim().parse(), c.trim().parse()) {
                return Expectation {
                    rule: rule.trim().to_string(),
                    pos: Some((l, c)),
                };
            }
        }
    }
    Expectation {
        rule: raw.trim().to_string(),
        pos: None,
    }
}

fn collect_fixture_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, std::path::PathBuf)>,
) -> io::Result<()> {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_fixture_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Reads a `// <key> <value>` header from the leading comment lines.
fn header(source: &str, key: &str) -> Option<String> {
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Some(comment) = trimmed.strip_prefix("//") else {
            break; // headers only live above the first code line
        };
        if let Some(value) = comment.trim().strip_prefix(key) {
            return Some(value.trim().to_string());
        }
    }
    None
}

/// Renders findings as a JSON array (stable field order, no dependencies).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_well_formed() {
        let findings = vec![Finding {
            rule: "panic-policy",
            path: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col: 9,
            message: "a \"quoted\" message".to_string(),
        }];
        let json = to_json(&findings);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn header_parsing_stops_at_first_code_line() {
        let src = "// path: crates/sim/src/x.rs\n// expect: hash-iter\nfn main() {}\n// path: not/this.rs\n";
        assert_eq!(header(src, "path:").as_deref(), Some("crates/sim/src/x.rs"));
        assert_eq!(header(src, "expect:").as_deref(), Some("hash-iter"));
        assert_eq!(header("fn main() {}\n// path: x\n", "path:"), None);
    }

    #[test]
    fn expectation_grammar_accepts_rule_and_position() {
        assert_eq!(
            parse_expectation("hash-iter @ 5:23"),
            Expectation {
                rule: "hash-iter".to_string(),
                pos: Some((5, 23)),
            }
        );
        assert_eq!(
            parse_expectation("dead-pragma"),
            Expectation {
                rule: "dead-pragma".to_string(),
                pos: None,
            }
        );
    }

    #[test]
    fn fixture_conformance_checks_position_when_declared() {
        let src = "// path: crates/sim/src/x.rs\n// expect: hash-iter @ 3:23\nuse std::collections::HashMap;\n";
        let report = run_fixture_source("f.rs", src);
        assert!(report.conforms(), "{:?}", report.findings);
        let wrong = "// path: crates/sim/src/x.rs\n// expect: hash-iter @ 9:9\nuse std::collections::HashMap;\n";
        assert!(!run_fixture_source("f.rs", wrong).conforms());
    }
}
