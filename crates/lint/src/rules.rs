//! The rule catalog and the two-pass analysis engine.
//!
//! Every rule is deny-by-default: a violation is an error unless it sits
//! under a justified `// lint: allow(<rule>) — <why>` pragma
//! ([`crate::pragma`]). Rules are scoped by workspace-relative path (see
//! each rule's `scope` string, also printed by `--list-rules`), and all of
//! them skip `#[cfg(test)]` / `#[test]` item spans — test code may panic
//! and hash freely; the invariants protect what ships in the simulation
//! and accounting paths.
//!
//! Analysis runs in two passes over a corpus of [`SourceUnit`]s
//! ([`analyze_units`]): pass 1 runs the per-file rules and builds the
//! [`SymbolIndex`](crate::index::SymbolIndex); pass 2 runs the
//! cross-crate semantic rules ([`crate::semantic`]) against the index.
//! Pragma filtering happens once at the end so the `dead-pragma` rule
//! can see which pragmas suppressed anything at all.

use crate::index::SymbolIndex;
use crate::lexer::{lex, Lexed, Token};
use crate::pragma::{self, Pragmas};
use crate::semantic;
use std::collections::BTreeMap;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired (`pragma` for malformed pragmas).
    pub rule: &'static str,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// Renders the finding in the `file:line:col: rule: message` form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: deny({}): {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// One source file handed to the analyzer (path + contents; nothing is
/// read from disk inside the engine, so fixtures can fabricate corpora).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceUnit {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Full file contents.
    pub source: String,
}

/// Per-rule outcome of one analysis run, for `--stats`.
#[derive(Debug, Clone, Copy)]
pub struct RuleStat {
    /// Rule name (`symbol-index` for the pass-1 index build).
    pub rule: &'static str,
    /// Findings that survived pragma filtering.
    pub findings: usize,
    /// Wall-clock nanoseconds spent in the rule across the corpus.
    pub nanos: u128,
}

/// The result of analyzing a corpus.
#[derive(Debug)]
pub struct AnalysisReport {
    /// All findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Per-rule summary in catalog order (index row first).
    pub stats: Vec<RuleStat>,
    /// Number of files analyzed.
    pub files: usize,
}

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name as used in pragmas.
    pub name: &'static str,
    /// One-line summary of what it enforces.
    pub summary: &'static str,
    /// Where it applies.
    pub scope: &'static str,
}

/// The rule catalog (kept in sync with DESIGN.md §11). Run-config
/// construction and counter folds are not here: the compiler holds them
/// (a private seal field on `SimConfig`/`ServiceConfig`, exhaustive
/// destructuring in every `Mergeable` fold and in the shard fold).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-iter",
        summary: "no HashMap/HashSet in determinism-critical code; \
                  use BTreeMap/BTreeSet or sorted iteration",
        scope: "crates/{sim,trace,faults,wear,coding}/src (non-test spans)",
    },
    RuleInfo {
        name: "wall-clock",
        summary: "no Instant::now()/SystemTime outside the sanctioned \
                  wall-clock module",
        scope: "everywhere except crates/sim/src/wallclock.rs and the \
                criterion shim; tests/ and benches/ are exempt",
    },
    RuleInfo {
        name: "ambient-rng",
        summary: "no thread_rng/OsRng/RandomState or other ambient \
                  randomness; use the seeded generators",
        scope: "everywhere except crates/workloads/src/rng.rs and \
                crates/wear/src/rng_util.rs (including test code)",
    },
    RuleInfo {
        name: "lossy-cast",
        summary: "no lossy `as` casts to narrow numeric types in \
                  accounting code; use try_into or checked helpers",
        scope: "crates/trace/src plus every `impl Mergeable` block \
                (non-test spans)",
    },
    RuleInfo {
        name: "panic-policy",
        summary: "no unwrap()/expect()/panic! in non-test library code",
        scope: "crates/*/src except bin targets and the proptest/criterion \
                test-harness shims (non-test spans)",
    },
    RuleInfo {
        name: "bench-flags",
        summary: "every ladder-bench binary must parse the shared CLI \
                  (BenchArgs: --quick/--jobs/--topology) and wire --trace",
        scope: "crates/bench/src/bin",
    },
    RuleInfo {
        name: "fast-ref-twin",
        summary: "every reference kernel (pub fn in a `reference` module, \
                  `*_reference` fn, or designated reference variant) needs \
                  a same-signature fast twin and an equivalence test",
        scope: "crates/*/src (cross-crate, via the symbol index); \
                equivalence proofs live in tests/*equivalence*.rs",
    },
    RuleInfo {
        name: "unit-mixing",
        summary: "no arithmetic mixing `_ps` and `_ns` identifiers in one \
                  statement without an explicit conversion call",
        scope: "crates/*/src (non-test spans); tests/ and benches/ exempt",
    },
    RuleInfo {
        name: "dead-pragma",
        summary: "a `// lint: allow(...)` pragma that suppresses nothing \
                  is itself a finding — pragmas are re-audited on every run",
        scope: "everywhere a pragma appears",
    },
];

/// Whether `name` is a real, pragma-allowable rule.
pub fn rule_exists(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Path prefixes whose code feeds figures, traces or folded statistics —
/// the determinism-critical scope of `hash-iter`.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/sim/src/",
    "crates/trace/src/",
    "crates/faults/src/",
    "crates/wear/src/",
    "crates/coding/src/",
];

/// The only files allowed to touch the host wall clock.
const WALL_CLOCK_ALLOW: &[&str] = &["crates/sim/src/wallclock.rs", "crates/criterion/src/lib.rs"];

/// The only modules allowed to construct randomness.
const RNG_ALLOW: &[&str] = &["crates/workloads/src/rng.rs", "crates/wear/src/rng_util.rs"];

/// Identifiers that mean ambient (non-seeded) randomness.
const RNG_BANNED: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// Cast targets that lose information from the workspace's `u64`/`f64`
/// accounting domain.
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Test-harness shims whose API is panicking by design.
const PANIC_EXEMPT: &[&str] = &["crates/proptest/", "crates/criterion/"];

/// Where the bench-binary conformance rule applies.
const BENCH_BIN_SCOPE: &str = "crates/bench/src/bin/";

/// Path-derived context for one file.
struct FileContext<'a> {
    path: &'a str,
    in_tests_dir: bool,
    in_benches_dir: bool,
    is_bin: bool,
}

impl<'a> FileContext<'a> {
    fn new(path: &'a str) -> Self {
        let in_tests_dir = path.starts_with("tests/") || path.contains("/tests/");
        let in_benches_dir = path.starts_with("benches/") || path.contains("/benches/");
        let is_bin = path.contains("/src/bin/") || path.ends_with("src/main.rs");
        FileContext {
            path,
            in_tests_dir,
            in_benches_dir,
            is_bin,
        }
    }

    fn is_library_src(&self) -> bool {
        !self.in_tests_dir
            && !self.in_benches_dir
            && !self.is_bin
            && (self.path.contains("/src/") || self.path.starts_with("src/"))
    }
}

/// An inclusive line range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Span {
    fn contains(&self, line: usize) -> bool {
        (self.start..=self.end).contains(&line)
    }
}

pub(crate) fn in_spans(spans: &[Span], line: usize) -> bool {
    spans.iter().any(|s| s.contains(line))
}

/// One lexed file inside the analysis pipeline.
pub(crate) struct FileUnit {
    pub(crate) rel_path: String,
    pub(crate) lexed: Lexed,
    pub(crate) tests: Vec<Span>,
    pub(crate) pragmas: Pragmas,
}

/// Wall-clock read for the analyzer's own per-rule `--stats`; the one
/// sanctioned self-timing site in this crate.
fn stat_clock() -> std::time::Instant {
    std::time::Instant::now() // lint: allow(wall-clock) — analyzer self-timing for --stats; no simulated result depends on it
}

/// Per-rule wall-clock accumulator.
#[derive(Default)]
struct Timer {
    nanos: BTreeMap<&'static str, u128>,
}

impl Timer {
    fn add(&mut self, rule: &'static str, since: std::time::Instant) {
        *self.nanos.entry(rule).or_insert(0) += since.elapsed().as_nanos();
    }

    fn get(&self, rule: &str) -> u128 {
        self.nanos.get(rule).copied().unwrap_or(0)
    }
}

/// Analyzes a corpus of source units with both passes and returns the
/// pragma-filtered findings plus per-rule stats.
pub fn analyze_units(units: &[SourceUnit]) -> AnalysisReport {
    let mut timer = Timer::default();

    let mut files: Vec<FileUnit> = units
        .iter()
        .map(|u| {
            let lexed = lex(&u.source);
            let tests = test_spans(&lexed.tokens);
            let pragmas = pragma::collect(&lexed.comments);
            FileUnit {
                rel_path: u.rel_path.clone(),
                lexed,
                tests,
                pragmas,
            }
        })
        .collect();
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

    // Pass 1a: per-file rules.
    let mut raw: Vec<Finding> = Vec::new();
    for file in &files {
        let ctx = FileContext::new(&file.rel_path);
        let tokens = &file.lexed.tokens;
        let tests = &file.tests;
        let mergeable = mergeable_impl_spans(tokens);

        let t0 = stat_clock();
        check_hash_iter(&ctx, tokens, tests, &mut raw);
        timer.add("hash-iter", t0);
        let t0 = stat_clock();
        check_wall_clock(&ctx, tokens, tests, &mut raw);
        timer.add("wall-clock", t0);
        let t0 = stat_clock();
        check_ambient_rng(&ctx, tokens, &mut raw);
        timer.add("ambient-rng", t0);
        let t0 = stat_clock();
        check_lossy_cast(&ctx, tokens, tests, &mergeable, &mut raw);
        timer.add("lossy-cast", t0);
        let t0 = stat_clock();
        check_panic_policy(&ctx, tokens, tests, &mut raw);
        timer.add("panic-policy", t0);
        let t0 = stat_clock();
        check_bench_flags(&ctx, tokens, &mut raw);
        timer.add("bench-flags", t0);
    }

    // Pass 1b: the symbol index.
    let t0 = stat_clock();
    let refs: Vec<(&str, &Lexed)> = files
        .iter()
        .map(|f| (f.rel_path.as_str(), &f.lexed))
        .collect();
    let index = SymbolIndex::build(&refs);
    timer.add("symbol-index", t0);

    // Pass 2: cross-crate semantic rules.
    let t0 = stat_clock();
    semantic::check_fast_ref_twin(&index, &mut raw);
    timer.add("fast-ref-twin", t0);
    let t0 = stat_clock();
    semantic::check_unit_mixing(&files, &mut raw);
    timer.add("unit-mixing", t0);

    // Pragma filtering with usage tracking, then the dead-pragma audit.
    let t0 = stat_clock();
    let by_path: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel_path.as_str(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = files
        .iter()
        .map(|f| vec![false; f.pragmas.pragmas.len()])
        .collect();
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        if let Some(&fi) = by_path.get(f.path.as_str()) {
            if let Some(pi) = files[fi].pragmas.covering(f.rule, f.line) {
                used[fi][pi] = true;
                continue;
            }
        }
        out.push(f);
    }
    // A well-formed pragma that suppressed nothing is dead. Dead-pragma
    // findings are themselves suppressible (one level — an unused
    // `allow(dead-pragma)` is reported unconditionally, so the audit
    // cannot regress into a fixpoint).
    for (fi, file) in files.iter().enumerate() {
        for pi in 0..file.pragmas.pragmas.len() {
            let p = &file.pragmas.pragmas[pi];
            if used[fi][pi] || p.rule == "dead-pragma" {
                continue;
            }
            if let Some(pj) = file.pragmas.covering("dead-pragma", p.line) {
                used[fi][pj] = true;
                continue;
            }
            out.push(Finding {
                rule: "dead-pragma",
                path: file.rel_path.clone(),
                line: p.line,
                col: p.col,
                message: format!(
                    "pragma `allow({})` suppresses nothing; the violation it \
                     justified is gone — delete the pragma or restore its \
                     purpose",
                    p.rule
                ),
            });
        }
    }
    for (fi, file) in files.iter().enumerate() {
        for (pi, p) in file.pragmas.pragmas.iter().enumerate() {
            if !used[fi][pi] && p.rule == "dead-pragma" {
                out.push(Finding {
                    rule: "dead-pragma",
                    path: file.rel_path.clone(),
                    line: p.line,
                    col: p.col,
                    message: "pragma `allow(dead-pragma)` suppresses nothing; \
                              delete it"
                        .to_string(),
                });
            }
        }
    }
    timer.add("dead-pragma", t0);

    // Malformed pragmas are findings themselves and cannot be allowed.
    for file in &files {
        for e in &file.pragmas.errors {
            out.push(Finding {
                rule: "pragma",
                path: file.rel_path.clone(),
                line: e.line,
                col: 1,
                message: e.message.clone(),
            });
        }
    }

    out.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    let count = |rule: &str| out.iter().filter(|f| f.rule == rule).count();
    let mut stats = vec![RuleStat {
        rule: "symbol-index",
        findings: 0,
        nanos: timer.get("symbol-index"),
    }];
    for r in RULES {
        stats.push(RuleStat {
            rule: r.name,
            findings: count(r.name),
            nanos: timer.get(r.name),
        });
    }
    stats.push(RuleStat {
        rule: "pragma",
        findings: count("pragma"),
        nanos: 0,
    });

    AnalysisReport {
        findings: out,
        stats,
        files: files.len(),
    }
}

/// Analyzes one file in isolation (single-unit corpus) and returns its
/// findings, pragma-filtered and sorted.
pub fn analyze(rel_path: &str, source: &str) -> Vec<Finding> {
    analyze_units(&[SourceUnit {
        rel_path: rel_path.to_string(),
        source: source.to_string(),
    }])
    .findings
}

// ---------------------------------------------------------------------------
// Span computation.
// ---------------------------------------------------------------------------

/// Index just past an attribute starting at `i` (which must be `#`).
pub(crate) fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return i + 1;
    }
    let mut depth = 0usize;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Whether the tokens at `i` start a `#[cfg(test)]` or `#[test]` attribute.
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    let ident = |k: usize, s: &str| tokens.get(k).is_some_and(|t| t.is_ident(s));
    let punct = |k: usize, c: char| tokens.get(k).is_some_and(|t| t.is_punct(c));
    if !punct(i, '#') || !punct(i + 1, '[') {
        return false;
    }
    // #[test]
    if ident(i + 2, "test") && punct(i + 3, ']') {
        return true;
    }
    // #[cfg(test)]
    ident(i + 2, "cfg")
        && punct(i + 3, '(')
        && ident(i + 4, "test")
        && punct(i + 5, ')')
        && punct(i + 6, ']')
}

/// Index of the matching `}` for the `{` at `open`, if any.
pub(crate) fn brace_match(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the token ending the item starting at `j` (its closing `}` or
/// terminating `;`).
pub(crate) fn item_end(tokens: &[Token], j: usize) -> usize {
    let mut k = j;
    while let Some(t) = tokens.get(k) {
        if t.is_punct('{') {
            return brace_match(tokens, k).unwrap_or(tokens.len().saturating_sub(1));
        }
        if t.is_punct(';') {
            return k;
        }
        k += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Line spans of `#[cfg(test)]` / `#[test]` items.
pub(crate) fn test_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            let start = tokens[i].line;
            // Skip this attribute plus any stacked ones on the same item.
            let mut j = skip_attr(tokens, i);
            while tokens.get(j).is_some_and(|t| t.is_punct('#'))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
            {
                j = skip_attr(tokens, j);
            }
            let end_idx = item_end(tokens, j);
            let end = tokens.get(end_idx).map_or(usize::MAX, |t| t.line);
            spans.push(Span { start, end });
            i = end_idx + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// Line spans of `impl ... Mergeable ... { ... }` blocks.
fn mergeable_impl_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("impl") {
            let mut j = i + 1;
            let mut has_mergeable = false;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('{') || t.is_punct(';') {
                    break;
                }
                if t.is_ident("Mergeable") {
                    has_mergeable = true;
                }
                j += 1;
            }
            if has_mergeable && tokens.get(j).is_some_and(|t| t.is_punct('{')) {
                if let Some(close) = brace_match(tokens, j) {
                    spans.push(Span {
                        start: tokens[i].line,
                        end: tokens[close].line,
                    });
                    i = close + 1;
                    continue;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// Rule checks.
// ---------------------------------------------------------------------------

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    ctx: &FileContext<'_>,
    t: &Token,
    message: String,
) {
    findings.push(Finding {
        rule,
        path: ctx.path.to_string(),
        line: t.line,
        col: t.col,
        message,
    });
}

fn check_hash_iter(
    ctx: &FileContext<'_>,
    tokens: &[Token],
    tests: &[Span],
    findings: &mut Vec<Finding>,
) {
    if !DETERMINISM_SCOPE.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for t in tokens {
        let Some(name) = t.ident() else { continue };
        if (name == "HashMap" || name == "HashSet") && !in_spans(tests, t.line) {
            push(
                findings,
                "hash-iter",
                ctx,
                t,
                format!(
                    "`{name}` iteration order is nondeterministic; use \
                     `BTree{}` or sorted iteration in determinism-critical code",
                    &name[4..]
                ),
            );
        }
    }
}

fn check_wall_clock(
    ctx: &FileContext<'_>,
    tokens: &[Token],
    tests: &[Span],
    findings: &mut Vec<Finding>,
) {
    if WALL_CLOCK_ALLOW.contains(&ctx.path) || ctx.in_tests_dir || ctx.in_benches_dir {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_spans(tests, t.line) {
            continue;
        }
        if t.is_ident("SystemTime") {
            push(
                findings,
                "wall-clock",
                ctx,
                t,
                "`SystemTime` is wall-clock state; simulated logic must be \
                 time-host-independent (sanctioned: `ladder_sim::wallclock`)"
                    .to_string(),
            );
        }
        if t.is_ident("Instant")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            push(
                findings,
                "wall-clock",
                ctx,
                t,
                "`Instant::now()` outside the sanctioned wall-clock module; \
                 use `ladder_sim::wallclock::Stopwatch`"
                    .to_string(),
            );
        }
    }
}

fn check_ambient_rng(ctx: &FileContext<'_>, tokens: &[Token], findings: &mut Vec<Finding>) {
    if RNG_ALLOW.contains(&ctx.path) {
        return;
    }
    for t in tokens {
        let Some(name) = t.ident() else { continue };
        if RNG_BANNED.contains(&name) {
            push(
                findings,
                "ambient-rng",
                ctx,
                t,
                format!(
                    "`{name}` is ambient randomness; every random decision \
                     must come from the seeded generators in \
                     `ladder_workloads::rng` / `ladder_wear::rng_util`"
                ),
            );
        }
    }
}

fn check_lossy_cast(
    ctx: &FileContext<'_>,
    tokens: &[Token],
    tests: &[Span],
    mergeable: &[Span],
    findings: &mut Vec<Finding>,
) {
    let whole_file = ctx.path.starts_with("crates/trace/src/");
    if !whole_file && mergeable.is_empty() {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("as") || in_spans(tests, t.line) {
            continue;
        }
        if !whole_file && !in_spans(mergeable, t.line) {
            continue;
        }
        let Some(target) = tokens.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if NARROW_CASTS.contains(&target) {
            push(
                findings,
                "lossy-cast",
                ctx,
                t,
                format!(
                    "lossy `as {target}` cast in accounting code; counters \
                     fold in u64/f64 — use `try_into` or a checked helper"
                ),
            );
        }
    }
}

fn check_panic_policy(
    ctx: &FileContext<'_>,
    tokens: &[Token],
    tests: &[Span],
    findings: &mut Vec<Finding>,
) {
    if !ctx.is_library_src() || PANIC_EXEMPT.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_spans(tests, t.line) {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
        let next_open = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        let next_bang = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let hit = match name {
            "unwrap" | "expect" => prev_dot && next_open,
            "panic" => next_bang,
            _ => false,
        };
        if hit {
            let display = match name {
                "panic" => "panic!".to_string(),
                other => format!(".{other}()"),
            };
            push(
                findings,
                "panic-policy",
                ctx,
                t,
                format!(
                    "`{display}` in non-test library code; return an error, \
                     or document the invariant and allow with a pragma"
                ),
            );
        }
    }
}

fn check_bench_flags(ctx: &FileContext<'_>, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !ctx.path.starts_with(BENCH_BIN_SCOPE) {
        return;
    }
    let has = |names: &[&str]| {
        tokens
            .iter()
            .any(|t| t.ident().is_some_and(|id| names.contains(&id)))
    };
    let requirements: [(&str, &[&str]); 4] = [
        ("--quick", &["BenchArgs"]),
        ("--jobs", &["BenchArgs"]),
        ("--topology", &["BenchArgs"]),
        ("--trace", &["emit_trace_if_requested"]),
    ];
    for (flag, helpers) in requirements {
        if !has(helpers) {
            findings.push(Finding {
                rule: "bench-flags",
                path: ctx.path.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "bench binary does not wire `{flag}` (call one of {})",
                    helpers.join(" / ")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        analyze(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hash_map_fires_only_in_determinism_scope() {
        let src = "use std::collections::HashMap;";
        assert_eq!(rules_fired("crates/sim/src/x.rs", src), vec!["hash-iter"]);
        assert_eq!(rules_fired("crates/wear/src/x.rs", src), vec!["hash-iter"]);
        assert!(rules_fired("crates/xbar/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn g() { None::<u8>.unwrap(); }\n}\n";
        assert!(rules_fired("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_fn_attr_is_exempt() {
        let src = "#[test]\nfn t() { None::<u8>.unwrap(); }\npub fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_fired("crates/sim/src/x.rs", src),
            vec!["panic-policy"]
        );
    }

    #[test]
    fn wall_clock_allows_the_sanctioned_module() {
        let src = "pub fn now() { let _ = std::time::Instant::now(); }";
        assert_eq!(
            rules_fired("crates/sim/src/runner.rs", src),
            vec!["wall-clock"]
        );
        assert!(rules_fired("crates/sim/src/wallclock.rs", src).is_empty());
        assert!(rules_fired("crates/criterion/src/lib.rs", src).is_empty());
    }

    #[test]
    fn sim_time_instant_is_not_wall_clock() {
        // ladder_reram::Instant (simulated time) is fine; only ::now() is
        // the host clock.
        let src = "pub fn f(t: Instant) -> Instant { t }";
        assert!(rules_fired("crates/sim/src/system.rs", src).is_empty());
    }

    #[test]
    fn lossy_cast_in_trace_scope_and_mergeable_impls() {
        let narrow = "pub fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(
            rules_fired("crates/trace/src/metrics.rs", narrow),
            vec!["lossy-cast"]
        );
        assert!(rules_fired("crates/core/src/engine.rs", narrow).is_empty());
        let merge = "impl Mergeable for S {\n    fn merge_from(&mut self, o: &Self) { self.a = o.b as u16; }\n}\n";
        assert_eq!(
            rules_fired("crates/core/src/engine.rs", merge),
            vec!["lossy-cast"]
        );
        let widening = "pub fn f(x: u32) -> u64 { x as u64 }";
        assert!(rules_fired("crates/trace/src/metrics.rs", widening).is_empty());
    }

    #[test]
    fn panic_policy_skips_bins_tests_and_shims() {
        let src = "fn main() { x.unwrap(); panic!(\"boom\"); }";
        assert!(rules_fired("crates/sim/src/bin/tool.rs", src).is_empty());
        assert!(rules_fired("crates/sim/tests/t.rs", src).is_empty());
        assert!(rules_fired("crates/bench/benches/b.rs", src).is_empty());
        assert!(rules_fired("crates/proptest/src/lib.rs", src).is_empty());
        assert_eq!(
            rules_fired("crates/sim/src/lib.rs", "pub fn f() { x.expect(\"y\"); }"),
            vec!["panic-policy"]
        );
    }

    #[test]
    fn pragma_suppresses_and_malformed_pragma_reports() {
        let ok = "pub fn f() {\n    // lint: allow(panic-policy) — invariant: x is Some\n    x.unwrap();\n}\n";
        assert!(rules_fired("crates/sim/src/lib.rs", ok).is_empty());
        let unknown = "pub fn f() {\n    // lint: allow(panik) — typo\n    x.unwrap();\n}\n";
        // The malformed pragma (line 2) is itself a finding and does not
        // suppress the unwrap (line 3); findings sort by line.
        assert_eq!(
            rules_fired("crates/sim/src/lib.rs", unknown),
            vec!["pragma", "panic-policy"]
        );
    }

    #[test]
    fn dead_pragma_reports_and_can_be_suppressed() {
        // The pragma suppresses nothing: dead.
        let stale = "pub fn f() -> u64 {\n    // lint: allow(panic-policy) — was needed before the refactor\n    42\n}\n";
        let findings = analyze("crates/sim/src/lib.rs", stale);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "dead-pragma");
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].col, 5);

        // A live pragma is not dead.
        let live =
            "pub fn f() {\n    // lint: allow(panic-policy) — invariant\n    x.unwrap();\n}\n";
        assert!(rules_fired("crates/sim/src/lib.rs", live).is_empty());

        // Dead-pragma findings are themselves suppressible (one level).
        let waived = "pub fn f() -> u64 {\n    // lint: allow(dead-pragma) — kept while the refactor lands\n    // lint: allow(panic-policy) — to be re-justified\n    42\n}\n";
        assert!(rules_fired("crates/sim/src/lib.rs", waived).is_empty());

        // An unused allow(dead-pragma) is itself reported.
        let useless =
            "pub fn f() -> u64 {\n    // lint: allow(dead-pragma) — nothing here\n    42\n}\n";
        assert_eq!(
            rules_fired("crates/sim/src/lib.rs", useless),
            vec!["dead-pragma"]
        );
    }

    #[test]
    fn bench_flags_requires_the_shared_parser_and_trace() {
        let full = "use ladder_bench::BenchArgs;\nfn main() { let args = BenchArgs::parse(); args.emit_trace_if_requested(&args.cfg); }\n";
        assert!(rules_fired("crates/bench/src/bin/x.rs", full).is_empty());
        let missing_trace =
            "use ladder_bench::BenchArgs;\nfn main() { let _ = BenchArgs::parse(); }\n";
        let fired = analyze("crates/bench/src/bin/x.rs", missing_trace);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].message.contains("--trace"), "{}", fired[0].message);
        let no_parser = "fn main() { emit_trace_if_requested(); }\n";
        let fired = analyze("crates/bench/src/bin/x.rs", no_parser);
        assert_eq!(fired.len(), 3, "{fired:?}");
        assert!(fired.iter().all(|f| f.message.contains("BenchArgs")));
    }

    #[test]
    fn ambient_rng_fires_everywhere_but_the_sanctioned_modules() {
        let src = "pub fn f() { let r = thread_rng(); }";
        assert_eq!(
            rules_fired("crates/sim/tests/t.rs", src),
            vec!["ambient-rng"]
        );
        assert!(rules_fired("crates/workloads/src/rng.rs", src).is_empty());
        assert!(rules_fired("crates/wear/src/rng_util.rs", src).is_empty());
    }

    #[test]
    fn findings_carry_position() {
        let f = analyze("crates/sim/src/x.rs", "\n\nuse std::collections::HashMap;");
        assert_eq!((f[0].line, f[0].col), (3, 23));
        assert!(f[0].render().contains("crates/sim/src/x.rs:3:23"));
    }

    #[test]
    fn stats_cover_every_rule_and_count_findings() {
        let report = analyze_units(&[SourceUnit {
            rel_path: "crates/sim/src/x.rs".to_string(),
            source: "use std::collections::HashMap;".to_string(),
        }]);
        assert_eq!(report.files, 1);
        assert_eq!(report.stats.len(), RULES.len() + 2); // + index + pragma
        assert_eq!(report.stats[0].rule, "symbol-index");
        let hash = report
            .stats
            .iter()
            .find(|s| s.rule == "hash-iter")
            .expect("hash-iter stat");
        assert_eq!(hash.findings, 1);
    }
}
