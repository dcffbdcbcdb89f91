//! The figure registry is the one list of figures. README's
//! "Reproducing the paper" table names every figure, DESIGN.md §5 and
//! EXPERIMENTS.md's reproduce block run only registered figures (the
//! latter each figure with a committed output, at that output's scale),
//! `results/` holds a file for exactly those figures, and no doc or
//! script still calls a per-figure binary. CHANGES.md and ROADMAP.md are
//! history and are not checked.

use std::path::{Path, PathBuf};

use ladder_bench::figures::{find, ALL};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The lines from the first one starting with `start` up to the next one
/// starting with `end`.
fn lines_between<'a>(doc: &'a str, start: &str, end: &str) -> Vec<&'a str> {
    let mut lines = doc.lines().skip_while(|l| !l.starts_with(start));
    let first = lines.next().unwrap_or_else(|| panic!("no `{start}`"));
    std::iter::once(first)
        .chain(lines.take_while(|l| !l.starts_with(end)))
        .collect()
}

/// Every `` `figures name args..`` `` or `/figures name args..`
/// invocation in `lines`: the name and the arguments.
fn invocations<'a>(lines: &[&'a str]) -> Vec<(&'a str, Vec<&'a str>)> {
    let mut found = Vec::new();
    for line in lines {
        for (i, _) in line.match_indices("figures ") {
            if matches!(line[..i].chars().last(), Some('`' | '/')) {
                let command = line[i + "figures ".len()..].split(['`', '#']).next();
                let mut words = command.unwrap_or_default().split_whitespace();
                found.extend(words.next().map(|name| (name, words.collect())));
            }
        }
    }
    found
}

#[test]
fn readme_table_names_every_figure() {
    let readme = read("README.md");
    let table = lines_between(&readme, "## Reproducing the paper", "## ").join("\n");
    for f in ALL {
        let row = format!("| `{}` |", f.name);
        assert!(table.contains(&row), "README's table lacks `{}`", f.name);
    }
}

#[test]
fn design_and_experiments_run_registered_figures() {
    let design = read("DESIGN.md");
    let index = invocations(&lines_between(&design, "## 5. Experiment index", "## "));
    let experiments = read("EXPERIMENTS.md");
    let block = invocations(&lines_between(&experiments, "```bash", "```"));
    assert!(
        index.len() >= 12,
        "DESIGN §5 runs only {} figures",
        index.len()
    );
    for (name, _) in index.iter().chain(&block) {
        assert!(find(name).is_some(), "`figures {name}` is not registered");
    }
    for f in ALL.iter().filter(|f| f.documented.is_some()) {
        let run = block.iter().find(|(name, _)| *name == f.name);
        let args = run.map(|(_, args)| args.as_slice());
        assert_eq!(args, f.documented, "EXPERIMENTS' `figures {}`", f.name);
        assert!(root().join(f.results_path()).is_file(), "{}", f.name);
    }
    for f in ALL.iter().filter(|f| f.documented.is_none()) {
        assert!(!root().join(f.results_path()).exists(), "{}", f.name);
    }
}

#[test]
fn no_doc_or_script_calls_a_per_figure_binary() {
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "perfbench/README.md",
        "scripts/verify.sh",
        "justfile",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = read(doc);
        for f in ALL {
            for old in [format!("--bin {}", f.name), format!("release/{}", f.name)] {
                let ends_there = |(i, _): (usize, &str)| {
                    !text[i + old.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
                };
                let stale = text.match_indices(&old).any(ends_there);
                assert!(!stale, "{doc} runs `{old}`");
            }
        }
    }
}
