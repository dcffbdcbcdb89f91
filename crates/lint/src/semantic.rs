//! Pass 2 of the two-pass analyzer: cross-crate semantic rules.
//!
//! These rules consult the [`SymbolIndex`](crate::index::SymbolIndex)
//! built over the whole corpus, so they can enforce disciplines no
//! single-file scan can see:
//!
//! * **fast-ref-twin** — every reference kernel (a `pub fn` in a
//!   `reference` module or a `*_reference`-suffixed `pub fn`) must have a
//!   same-signature fast twin *and* be exercised by an equivalence test
//!   (`tests/*equivalence*.rs`). A fast kernel whose reference twin or
//!   proof vanishes is a finding (DESIGN §15).
//! * **mergeable-coverage** — every `*Stats`/`*Counts` struct in the
//!   fold-scope crates must `impl Mergeable` and be folded into
//!   `RunResult` or a shard-fold path, so no counter silently drops out
//!   of the sharded accounting.
//! * **unit-mixing** — arithmetic that mixes `_ps`- and `_ns`-suffixed
//!   identifiers in one statement without an explicit conversion call is
//!   a finding; the ps-domain timing tables depend on callers never
//!   adding nanoseconds to picoseconds bare.
//! * **counter-overflow-policy** — in `merge`/`merge_from`/`fold*`
//!   bodies of counter structs, `+=` and `wrapping_add` on integer
//!   counter fields are findings: fold paths accumulate across shards
//!   and must saturate (or check) rather than wrap.
//!
//! The fifth semantic rule, **dead-pragma**, lives in the pipeline
//! ([`crate::rules::analyze_units`]) because it needs the pragma usage
//! record produced while filtering every other rule's findings.

use crate::index::{FnItem, SymbolIndex};
use crate::lexer::{Token, TokenKind};
use crate::rules::{in_spans, FileUnit, Finding};

/// Crates whose `*Stats`/`*Counts` structs must participate in the
/// Mergeable fold (the `mergeable-coverage` scope).
const FOLD_SCOPE: &[&str] = &[
    "crates/sim/src/",
    "crates/trace/src/",
    "crates/faults/src/",
    "crates/coding/src/",
    "crates/wear/src/",
];

/// Crates whose merge/fold paths are held to the counter overflow policy.
const COUNTER_SCOPE: &[&str] = &[
    "crates/sim/src/",
    "crates/trace/src/",
    "crates/faults/src/",
    "crates/coding/src/",
    "crates/wear/src/",
    "crates/memctrl/src/",
];

/// Calls that make a `_ps`/`_ns` co-occurrence an explicit, intentional
/// conversion rather than a unit mix.
const CONVERSIONS: &[&str] = &[
    "as_ps", "as_ns", "from_ps", "from_ns", "to_ps", "to_ns", "ns_to_ps", "ps_to_ns",
];

/// Integer type names whose struct fields count as overflowable counters.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
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
// mergeable-coverage
// ---------------------------------------------------------------------------

/// Every `*Stats`/`*Counts` struct in the fold-scope crates must impl
/// `Mergeable` and appear in a fold path (a file that also mentions
/// `RunResult` or `merge_digests`). One finding per struct, first
/// failure only.
pub(crate) fn check_mergeable_coverage(index: &SymbolIndex, findings: &mut Vec<Finding>) {
    for s in &index.structs {
        if !FOLD_SCOPE.iter().any(|p| s.file.starts_with(p)) {
            continue;
        }
        if !(s.name.ends_with("Stats") || s.name.ends_with("Counts")) {
            continue;
        }
        if !index.has_trait_impl("Mergeable", &s.name) {
            findings.push(Finding {
                rule: "mergeable-coverage",
                path: s.file.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "counter struct `{}` does not `impl Mergeable`; every \
                     *Stats/*Counts struct in the fold scope must merge \
                     deterministically across shards",
                    s.name
                ),
            });
            continue;
        }
        let folded = index.file_idents.iter().any(|(_, idents)| {
            idents.contains(&s.name)
                && (idents.contains("RunResult") || idents.contains("merge_digests"))
        });
        if !folded {
            findings.push(Finding {
                rule: "mergeable-coverage",
                path: s.file.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "counter struct `{}` is never folded into `RunResult` \
                     or a shard-fold path (`merge_digests`); its counters \
                     would drop out of sharded accounting",
                    s.name
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

// ---------------------------------------------------------------------------
// counter-overflow-policy
// ---------------------------------------------------------------------------

/// `+=` / `wrapping_add` on integer counter fields inside the
/// merge/fold methods of `*Stats`/`*Counts` impls. Record-path
/// increments stay `+=` (hot loop); only the cross-shard fold must
/// saturate or check.
pub(crate) fn check_counter_overflow(
    files: &[FileUnit],
    index: &SymbolIndex,
    findings: &mut Vec<Finding>,
) {
    for f in &index.fns {
        if !COUNTER_SCOPE.iter().any(|p| f.file.starts_with(p)) {
            continue;
        }
        if !(f.name == "merge" || f.name == "merge_from" || f.name.starts_with("fold")) {
            continue;
        }
        let Some(ty) = f.impl_type.as_deref() else {
            continue;
        };
        if !(ty.ends_with("Stats") || ty.ends_with("Counts")) {
            continue;
        }
        let Some(st) = index.struct_named(ty) else {
            continue;
        };
        let counters: Vec<&str> = st
            .fields
            .iter()
            .filter(|(_, ty)| ty.split(' ').any(|w| INT_TYPES.contains(&w)))
            .map(|(name, _)| name.as_str())
            .collect();
        if counters.is_empty() {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let Some(unit) = files.iter().find(|u| u.rel_path == f.file) else {
            continue;
        };
        let tokens = &unit.lexed.tokens;
        for k in open..=close.min(tokens.len().saturating_sub(1)) {
            let t = &tokens[k];
            // `field += ...`: `+` directly followed by `=` in the source.
            let compound = t.is_punct('+')
                && tokens
                    .get(k + 1)
                    .is_some_and(|n| n.is_punct('=') && n.line == t.line && n.col == t.col + 1);
            if compound {
                if let Some(field) = self_field_before(tokens, k, &counters) {
                    findings.push(Finding {
                        rule: "counter-overflow-policy",
                        path: f.file.clone(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "counter `{ty}.{field}` merges with `+=`; fold \
                             paths accumulate across shards and must use \
                             `saturating_add`/`checked_add` (DESIGN §16)"
                        ),
                    });
                }
            }
            // `field.wrapping_add(...)` / `field = field.wrapping_add(..)`.
            if t.is_ident("wrapping_add") && k > 0 && tokens[k - 1].is_punct('.') {
                if let Some(field) = self_field_before(tokens, k - 1, &counters) {
                    findings.push(Finding {
                        rule: "counter-overflow-policy",
                        path: f.file.clone(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "counter `{ty}.{field}` merges with \
                             `wrapping_add`; fold paths must use \
                             `saturating_add`/`checked_add` (DESIGN §16)"
                        ),
                    });
                }
            }
        }
    }
}

/// If the tokens ending just before `op` spell `self.<field>` (with an
/// optional trailing `[...]` index), and `<field>` is one of `counters`,
/// returns the field name.
fn self_field_before<'a>(tokens: &[Token], op: usize, counters: &[&'a str]) -> Option<&'a str> {
    let mut k = op;
    // Skip a `[...]` index group backwards.
    if k > 0 && tokens[k - 1].is_punct(']') {
        let mut depth = 0i32;
        while k > 0 {
            k -= 1;
            if tokens[k].is_punct(']') {
                depth += 1;
            } else if tokens[k].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    if k < 3 {
        return None;
    }
    let field = tokens[k - 1].ident()?;
    if !tokens[k - 2].is_punct('.') || !tokens[k - 3].is_ident("self") {
        return None;
    }
    counters.iter().find(|c| **c == field).copied()
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
    fn mergeable_coverage_requires_impl_and_fold() {
        let bare = "pub struct TallyStats { pub hits: u64 }\n";
        assert_eq!(
            rules_fired(&[unit("crates/coding/src/tally.rs", bare)]),
            vec!["mergeable-coverage"]
        );
        // Out-of-scope crate: silent.
        assert!(rules_fired(&[unit("crates/xbar/src/tally.rs", bare)]).is_empty());

        let with_impl = "pub struct TallyStats { pub hits: u64 }\n\
             impl Mergeable for TallyStats {\n    fn merge_from(&mut self, o: &Self) {\n        self.hits = self.hits.saturating_add(o.hits);\n    }\n}\n";
        // Impl but never folded: still a finding.
        assert_eq!(
            rules_fired(&[unit("crates/coding/src/tally.rs", with_impl)]),
            vec!["mergeable-coverage"]
        );
        // Folded into RunResult elsewhere: clean.
        let fold = unit(
            "crates/sim/src/system.rs",
            "pub struct RunResult { pub tally: TallyStats }\n",
        );
        assert!(rules_fired(&[unit("crates/coding/src/tally.rs", with_impl), fold]).is_empty());
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
    fn counter_overflow_flags_merge_but_not_record_paths() {
        let src = "pub struct TallyStats { pub hits: u64, pub label: String }\n\
                   impl TallyStats {\n\
                   pub fn count(&mut self) { self.hits += 1; }\n\
                   pub fn merge(&mut self, o: &Self) { self.hits += o.hits; }\n\
                   }\n";
        let fired = rules_fired(&[unit("crates/memctrl/src/tally.rs", src)]);
        assert_eq!(fired, vec!["counter-overflow-policy"]);

        let saturating = "pub struct TallyStats { pub hits: u64 }\n\
                          impl TallyStats {\n\
                          pub fn merge(&mut self, o: &Self) { self.hits = self.hits.saturating_add(o.hits); }\n\
                          }\n";
        assert!(rules_fired(&[unit("crates/memctrl/src/tally.rs", saturating)]).is_empty());

        let wrapping = "pub struct TallyStats { pub hits: u64 }\n\
                        impl TallyStats {\n\
                        pub fn merge(&mut self, o: &Self) { self.hits = self.hits.wrapping_add(o.hits); }\n\
                        }\n";
        assert_eq!(
            rules_fired(&[unit("crates/memctrl/src/tally.rs", wrapping)]),
            vec!["counter-overflow-policy"]
        );
    }

    #[test]
    fn counter_overflow_handles_array_counters_and_scope() {
        let arrays = "pub struct BinCounts { pub bins: [u64; 4] }\n\
                      impl BinCounts {\n\
                      pub fn merge_from(&mut self, o: &Self) { self.bins[0] += o.bins[0]; }\n\
                      }\n";
        assert_eq!(
            rules_fired(&[unit("crates/memctrl/src/bins.rs", arrays)]),
            vec!["counter-overflow-policy"]
        );
        // Out of scope (crates/core): silent.
        assert!(rules_fired(&[unit("crates/core/src/bins.rs", arrays)]).is_empty());
    }

    #[test]
    fn non_counter_fields_do_not_fire() {
        let src = "pub struct SpanStats { pub wall: Duration, pub peak: u64 }\n\
                   impl SpanStats {\n\
                   pub fn merge(&mut self, o: &Self) {\n\
                   self.wall += o.wall;\n\
                   self.peak = self.peak.max(o.peak);\n\
                   }\n}\n";
        // `wall: Duration` is not an integer counter; `max` is fine.
        // (mergeable-coverage is quiet: memctrl is outside its scope.)
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
