//! CLI for `ladder-lint`.
//!
//! ```text
//! ladder-lint [--root DIR] [--json] [--list-rules] [--fixtures DIR]
//! ```
//!
//! Exit codes (stable, asserted by the test suite):
//!   0 — analysis ran and found nothing
//!   1 — analysis ran and reported findings
//!   2 — usage or I/O error (bad flag, unreadable root/fixtures
//!       directory)

use std::path::PathBuf;
use std::process::ExitCode;

use ladder_lint::{run_fixtures, run_workspace, to_json, Finding, RULES};

const USAGE: &str = "\
ladder-lint — workspace determinism & accounting conformance analyzer

USAGE:
    ladder-lint [OPTIONS]

OPTIONS:
    --root DIR        workspace root to lint (default: .)
    --json            emit findings as a JSON array
    --fixtures DIR    lint a fixture corpus (virtual `// path:` headers)
                      instead of the workspace
    --list-rules      print the rule catalog and exit
    -h, --help        show this help

EXIT CODES:
    0    clean (no findings)
    1    findings reported
    2    usage or I/O error
";

struct Options {
    root: PathBuf,
    json: bool,
    fixtures: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: false,
        fixtures: None,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let value = args.next().ok_or("--root needs a directory")?;
                opts.root = PathBuf::from(value);
            }
            "--json" => opts.json = true,
            "--fixtures" => {
                let value = args.next().ok_or("--fixtures needs a directory")?;
                opts.fixtures = Some(PathBuf::from(value));
            }
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in RULES {
            println!("{:<24} {}", rule.name, rule.summary);
            println!("{:<24}   scope: {}", "", rule.scope);
        }
        return ExitCode::SUCCESS;
    }

    let findings: Vec<Finding> = if let Some(dir) = &opts.fixtures {
        match run_fixtures(dir) {
            Ok(reports) => reports.into_iter().flat_map(|r| r.findings).collect(),
            Err(e) => {
                eprintln!("error: cannot lint fixtures {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    } else {
        match run_workspace(&opts.root) {
            Ok(report) => report.findings,
            Err(e) => {
                eprintln!("error: cannot lint {}: {e}", opts.root.display());
                return ExitCode::from(2);
            }
        }
    };

    if opts.json {
        println!("{}", to_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        if findings.is_empty() {
            eprintln!("ladder-lint: clean");
        } else {
            eprintln!(
                "ladder-lint: {} finding{} (suppress with `// lint: allow(<rule>) — <why>`)",
                findings.len(),
                if findings.len() == 1 { "" } else { "s" }
            );
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
