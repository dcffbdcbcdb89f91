//! The fixture corpus is the analyzer's regression suite: every bad
//! snippet fires exactly its one declared finding (at its declared
//! position, when pinned), every clean snippet fires none. A rule change
//! that widens or narrows coverage shows up here before it ever gates the
//! real workspace.

use std::path::{Path, PathBuf};

use ladder_lint::run_fixtures;

fn fixtures_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
}

#[test]
fn every_bad_fixture_fires_exactly_its_expected_finding() {
    let reports = run_fixtures(&fixtures_dir("bad")).expect("read bad fixtures");
    assert!(
        reports.len() >= 15,
        "bad corpus shrank to {} fixtures",
        reports.len()
    );
    for r in &reports {
        let expected = r.expected.as_ref().unwrap_or_else(|| {
            panic!(
                "bad fixture {} is missing its `// expect:` header",
                r.fixture
            )
        });
        assert!(
            r.conforms(),
            "{} (as {}): expected exactly one `{}` finding at {:?}, got {:?}",
            r.fixture,
            r.virtual_path,
            expected.rule,
            expected.pos,
            r.findings
        );
    }
}

#[test]
fn bad_corpus_covers_every_rule() {
    let reports = run_fixtures(&fixtures_dir("bad")).expect("read bad fixtures");
    let fired: Vec<&str> = reports
        .iter()
        .flat_map(|r| &r.findings)
        .map(|f| f.rule)
        .collect();
    for rule in ladder_lint::RULES {
        assert!(
            fired.contains(&rule.name),
            "no bad fixture exercises rule `{}`",
            rule.name
        );
    }
    // The internal pragma-error rule is exercised too.
    assert!(fired.contains(&"pragma"));
}

#[test]
fn clean_corpus_fires_nothing() {
    let reports = run_fixtures(&fixtures_dir("clean")).expect("read clean fixtures");
    assert!(
        reports.len() >= 11,
        "clean corpus shrank to {} fixtures",
        reports.len()
    );
    for r in &reports {
        assert!(
            r.expected.is_none(),
            "clean fixture {} declares an `// expect:` header",
            r.fixture
        );
        assert!(
            r.findings.is_empty(),
            "{} (as {}): expected no findings, got {:?}",
            r.fixture,
            r.virtual_path,
            r.findings
        );
    }
}
