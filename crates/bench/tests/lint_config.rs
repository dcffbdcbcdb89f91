//! The project's static rules live in toolchain configuration and run in
//! `scripts/verify.sh`'s clippy step, not in `cargo test`. This pins that
//! configuration so a rule cannot quietly drop out: the root `clippy.toml`
//! still disallows the hash-ordered collections, ambient randomness and
//! the host clock, `[workspace.lints.clippy]` still denies the panic and
//! suppression lints, every member crate still inherits those levels, no
//! inner `#![allow]` slips past the `#[expect]` audit, and
//! the lossy-cast deny still covers ladder-trace and every
//! `impl Mergeable` block (DESIGN.md §11).

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[expect(
    clippy::panic,
    reason = "test helper: an unreadable file is a test failure"
)]
fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The body of TOML table `[header]`: its lines up to the next header.
fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file of the workspace's packages.
fn workspace_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    files
}

/// The workspace members: the facade package and every `crates/*`.
fn member_dirs() -> Vec<PathBuf> {
    let crates = std::fs::read_dir(root().join("crates"))
        .into_iter()
        .flatten();
    let mut dirs: Vec<PathBuf> = crates.flatten().map(|e| e.path()).collect();
    dirs.retain(|d| d.join("Cargo.toml").is_file());
    dirs.push(root());
    dirs
}

#[test]
fn clippy_toml_disallows_the_nondeterministic_types_and_methods() {
    let config = read(&root().join("clippy.toml"));
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ] {
        assert!(
            config.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer disallows `{path}`"
        );
    }
    for exemption in ["unwrap", "expect", "panic"] {
        let line = format!("allow-{exemption}-in-tests = true");
        assert!(config.contains(&line), "clippy.toml lacks `{line}`");
    }
}

#[test]
fn workspace_denies_the_panic_and_suppression_lints() {
    let manifest = read(&root().join("Cargo.toml"));
    let clippy = table(&manifest, "[workspace.lints.clippy]");
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "disallowed_types",
        "disallowed_methods",
        "allow_attributes",
        "allow_attributes_without_reason",
    ] {
        let line = format!("{lint} = \"deny\"");
        assert!(
            clippy.contains(&line.as_str()),
            "[workspace.lints.clippy] lacks `{line}`"
        );
    }
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let dirs = member_dirs();
    assert!(dirs.len() >= 15, "found only {} members", dirs.len());
    for dir in dirs {
        let manifest = read(&dir.join("Cargo.toml"));
        assert!(
            table(&manifest, "[lints]").contains(&"workspace = true"),
            "{} does not inherit [workspace.lints]",
            dir.display()
        );
    }
}

#[test]
fn lossy_casts_are_denied_in_trace_and_every_mergeable_impl() {
    const DENY: &str = "deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]";
    let trace_root = read(&root().join("crates/trace/src/lib.rs"));
    assert!(
        trace_root.lines().any(|l| l == format!("#![{DENY}")),
        "ladder-trace's crate root no longer denies the lossy casts"
    );
    let trace_src = root().join("crates/trace/src");
    let mut impls = 0;
    for file in workspace_sources()
        .iter()
        .filter(|f| !f.starts_with(&trace_src))
    {
        let text = read(file);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim_start().starts_with("impl Mergeable for") {
                impls += 1;
                let attrs = lines[..i].iter().rev().map(|l| l.trim());
                let mut attrs = attrs.take_while(|l| l.starts_with("#["));
                assert!(
                    attrs.any(|a| a == format!("#[{DENY}")),
                    "{}:{}: `impl Mergeable` without #[{DENY}",
                    file.display(),
                    i + 1
                );
            }
        }
    }
    assert!(impls >= 6, "found only {impls} `impl Mergeable` blocks");
}

/// `allow_attributes` sees only outer `#[allow]`s, so an inner one would
/// suppress a lint without the unfulfilled-expectation audit.
#[test]
fn no_inner_allow_attributes() {
    for file in workspace_sources() {
        let text = read(&file);
        let inner = text
            .lines()
            .position(|l| l.trim_start().starts_with("#![allow"));
        assert!(
            inner.is_none(),
            "{}:{}: inner #![allow]; use #![expect(.., reason = ..)]",
            file.display(),
            inner.unwrap_or_default() + 1
        );
    }
}
