//! Pass 2 of the two-pass analyzer: cross-crate semantic rules.
//!
//! These rules run over the whole corpus at once (fast-ref-twin through
//! the [`SymbolIndex`](crate::index::SymbolIndex)), so they can enforce
//! disciplines no single-file scan can see:
//!
//! * **fast-ref-twin** — every reference kernel (a `pub fn` in a
//!   `reference` module or a `*_reference`-suffixed `pub fn`) must have a
//!   same-signature fast twin *and* be exercised by an equivalence test
//!   (`tests/*equivalence*.rs`). A fast kernel whose reference twin or
//!   proof vanishes is a finding (DESIGN §15).
//! * **unit-mixing** — arithmetic that mixes `_ps`- and `_ns`-suffixed
//!   identifiers in one statement without an explicit conversion call is
//!   a finding; the ps-domain timing tables depend on callers never
//!   adding nanoseconds to picoseconds bare.
//!
//! The third semantic rule, **dead-pragma**, lives in the pipeline
//! ([`crate::rules::analyze_units`]) because it needs the pragma usage
//! record produced while filtering every other rule's findings.

use crate::index::{FnItem, SymbolIndex};
use crate::lexer::{Token, TokenKind};
use crate::rules::{in_spans, FileUnit, Finding};

/// Calls that make a `_ps`/`_ns` co-occurrence an explicit, intentional
/// conversion rather than a unit mix.
const CONVERSIONS: &[&str] = &[
    "as_ps", "as_ns", "from_ps", "from_ns", "to_ps", "to_ns", "ns_to_ps", "ps_to_ns",
];

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("benches/")
        || path.contains("/benches/")
}

fn is_equivalence_test_path(path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    (path.starts_with("tests/") || path.contains("/tests/")) && file.contains("equivalence")
}

/// Whether this indexed fn is itself a reference implementation.
fn is_reference_fn(f: &FnItem) -> bool {
    f.modules.iter().any(|m| m == "reference") || f.name.ends_with("_reference")
}

// ---------------------------------------------------------------------------
// fast-ref-twin
// ---------------------------------------------------------------------------

/// Every reference kernel needs a same-signature fast twin and an
/// equivalence test that mentions it. At most one finding per kernel:
/// the missing twin is reported first (without a twin the test question
/// is moot).
pub(crate) fn check_fast_ref_twin(index: &SymbolIndex, findings: &mut Vec<Finding>) {
    let equivalence_mentions = |name: &str| {
        index
            .file_idents
            .iter()
            .any(|(path, idents)| is_equivalence_test_path(path) && idents.contains(name))
    };

    for f in &index.fns {
        if is_test_path(&f.file) || !f.is_pub || !is_reference_fn(f) {
            continue;
        }
        let base = f.name.strip_suffix("_reference").unwrap_or(&f.name);
        let has_twin = index.fns.iter().any(|g| {
            !std::ptr::eq(f, g)
                && !is_reference_fn(g)
                && !is_test_path(&g.file)
                && g.name == base
                && g.sig == f.sig
        });
        if !has_twin {
            findings.push(Finding {
                rule: "fast-ref-twin",
                path: f.file.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "reference kernel `{}` has no same-signature fast twin \
                     `{base}`; every reference implementation pairs with a \
                     fast path (DESIGN §15)",
                    f.name
                ),
            });
        } else if !equivalence_mentions(&f.name) {
            findings.push(Finding {
                rule: "fast-ref-twin",
                path: f.file.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "reference kernel `{}` is not referenced from any \
                     equivalence test (tests/*equivalence*.rs); the fast \
                     twin `{base}` is unproven without it",
                    f.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// unit-mixing
// ---------------------------------------------------------------------------

/// The unit a suffixed identifier carries.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Unit {
    Ps,
    Ns,
}

fn unit_of(name: &str) -> Option<Unit> {
    if CONVERSIONS.contains(&name) {
        return None;
    }
    if name.ends_with("_ps") {
        Some(Unit::Ps)
    } else if name.ends_with("_ns") {
        Some(Unit::Ns)
    } else {
        None
    }
}

/// Arithmetic mixing `_ps` and `_ns` identifiers in one statement
/// without a conversion call. Statements are token runs between
/// `;`/`{`/`}`/`,` — commas split so separate call arguments never mix.
pub(crate) fn check_unit_mixing(files: &[FileUnit], findings: &mut Vec<Finding>) {
    for file in files {
        if !file.rel_path.starts_with("crates/")
            || !file.rel_path.contains("/src/")
            || is_test_path(&file.rel_path)
        {
            continue;
        }
        let tokens = &file.lexed.tokens;
        let mut seg = Segment::default();
        for (i, t) in tokens.iter().enumerate() {
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') {
                seg.flush(file, findings);
                continue;
            }
            match &t.kind {
                TokenKind::Ident(name) => {
                    if CONVERSIONS.contains(&name.as_str()) {
                        seg.has_conversion = true;
                    } else if let Some(u) = unit_of(name) {
                        seg.note_unit(u, t);
                    }
                    seg.prev_operand = true;
                }
                TokenKind::Number => seg.prev_operand = true,
                TokenKind::Punct(c) => {
                    let binary = matches!(c, '+' | '-' | '*' | '/' | '%')
                        && seg.prev_operand
                        && !(*c == '-' && tokens.get(i + 1).is_some_and(|n| n.is_punct('>')));
                    if binary {
                        seg.has_arith = true;
                    }
                    seg.prev_operand = matches!(c, ')' | ']');
                }
                _ => seg.prev_operand = false,
            }
        }
        seg.flush(file, findings);
    }
}

/// Per-statement accumulator for `unit-mixing`.
#[derive(Default)]
struct Segment {
    first: Option<(Unit, usize, usize)>,
    mixed_at: Option<(usize, usize)>,
    has_arith: bool,
    has_conversion: bool,
    /// Whether the previous token can end an operand (so the next
    /// `+`/`-`/`*`/`/` is a binary operator, not a unary sign or deref).
    prev_operand: bool,
}

impl Segment {
    fn note_unit(&mut self, u: Unit, t: &Token) {
        match self.first {
            None => self.first = Some((u, t.line, t.col)),
            Some((fu, _, _)) if fu != u && self.mixed_at.is_none() => {
                self.mixed_at = Some((t.line, t.col));
            }
            _ => {}
        }
    }

    fn flush(&mut self, file: &FileUnit, findings: &mut Vec<Finding>) {
        if let Some((line, col)) = self.mixed_at {
            if self.has_arith && !self.has_conversion && !in_spans(&file.tests, line) {
                findings.push(Finding {
                    rule: "unit-mixing",
                    path: file.rel_path.clone(),
                    line,
                    col,
                    message: "statement mixes `_ps` and `_ns` identifiers in \
                              arithmetic without an explicit conversion call \
                              (`Picos::from_ns`, `as_ns`, ...); pick one time \
                              domain per expression"
                        .to_string(),
                });
            }
        }
        *self = Segment::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SymbolIndex;
    use crate::rules::{analyze_units, SourceUnit};

    fn unit(path: &str, src: &str) -> SourceUnit {
        SourceUnit {
            rel_path: path.to_string(),
            source: src.to_string(),
        }
    }

    fn rules_fired(units: &[SourceUnit]) -> Vec<&'static str> {
        analyze_units(units)
            .findings
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    const KERNEL: &str = "pub fn frob(x: u64) -> u64 { x }\n\
                          pub mod reference {\n    pub fn frob(x: u64) -> u64 { x }\n}\n";

    #[test]
    fn fast_ref_twin_wants_twin_and_equivalence_proof() {
        // Twin + proof: clean.
        let proof = unit(
            "tests/kernels_equivalence.rs",
            "#[test]\nfn agree() { assert_eq!(frob(1), reference::frob(1)); }\n",
        );
        let clean = [unit("crates/reram/src/kern.rs", KERNEL), proof.clone()];
        assert!(rules_fired(&clean).is_empty());

        // No proof: one finding.
        let unproven = [unit("crates/reram/src/kern.rs", KERNEL)];
        assert_eq!(rules_fired(&unproven), vec!["fast-ref-twin"]);

        // No twin (signature drifted): one finding, even with the proof.
        let drifted = "pub fn frob(x: u32) -> u32 { x }\n\
                       pub mod reference {\n    pub fn frob(x: u64) -> u64 { x }\n}\n";
        let bad = [unit("crates/reram/src/kern.rs", drifted), proof];
        assert_eq!(rules_fired(&bad), vec!["fast-ref-twin"]);
    }

    #[test]
    fn suffixed_reference_fn_twins_by_base_name() {
        let src = "impl T {\n\
                   pub fn lookup_ps(&self, wl: usize) -> u64 { 0 }\n\
                   pub fn lookup_ps_reference(&self, wl: usize) -> u64 { 0 }\n\
                   }\n";
        let proof = unit(
            "tests/hotloop_equivalence.rs",
            "#[test]\nfn t() { lookup_ps_reference(); }\n",
        );
        assert!(rules_fired(&[unit("crates/xbar/src/table.rs", src), proof]).is_empty());
        assert_eq!(
            rules_fired(&[unit("crates/xbar/src/table.rs", src)]),
            vec!["fast-ref-twin"]
        );
    }

    #[test]
    fn unit_mixing_catches_bare_arithmetic_only() {
        let bad = "pub fn f(t_ps: u64, extra_ns: u64) -> u64 { t_ps + extra_ns }\n";
        assert_eq!(
            rules_fired(&[unit("crates/sim/src/x.rs", bad)]),
            vec!["unit-mixing"]
        );
        let converted = "pub fn f(t_ps: u64, extra_ns: u64) -> u64 { t_ps + ns_to_ps(extra_ns) }\n";
        assert!(rules_fired(&[unit("crates/sim/src/x.rs", converted)]).is_empty());
        // Same unit: fine. Separate call arguments: fine.
        let same = "pub fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns + b_ns }\n";
        assert!(rules_fired(&[unit("crates/sim/src/x.rs", same)]).is_empty());
        let args = "pub fn f(a_ps: u64, b_ns: u64) { g(a_ps, b_ns); }\n";
        assert!(rules_fired(&[unit("crates/sim/src/x.rs", args)]).is_empty());
        // No arithmetic: fine.
        let cmp = "pub fn f(a_ps: u64, b_ns: u64) -> bool { a_ps == b_ns }\n";
        assert!(rules_fired(&[unit("crates/sim/src/x.rs", cmp)]).is_empty());
    }

    #[test]
    fn non_counter_fields_do_not_fire() {
        let src = "pub struct SpanStats { pub wall: Duration, pub peak: u64 }\n\
                   impl Mergeable for SpanStats {\n\
                   fn merge_from(&mut self, o: &Self) {\n\
                   self.wall += o.wall;\n\
                   self.peak = self.peak.max(o.peak as u64);\n\
                   }\n}\n";
        // A merge body's arithmetic and widening casts are clean; only a
        // narrowing cast would fire (lossy-cast covers `impl Mergeable`).
        assert!(rules_fired(&[unit("crates/memctrl/src/span.rs", src)]).is_empty());
    }

    #[test]
    fn index_twin_lookup_sees_across_files() {
        let index = SymbolIndex::from_units(&[
            unit(
                "crates/a/src/lib.rs",
                "pub mod reference { pub fn ham(x: u8) -> u8 { x } }",
            ),
            unit("crates/b/src/lib.rs", "pub fn ham(x: u8) -> u8 { x }"),
        ]);
        let mut findings = Vec::new();
        check_fast_ref_twin(&index, &mut findings);
        // Twin found across crates; only the missing equivalence proof fires.
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("equivalence"));
    }
}
