//! The rule catalog and the analysis engine.
//!
//! Every rule is deny-by-default: a violation is an error unless it sits
//! under a justified `// lint: allow(<rule>) — <why>` pragma
//! (`pragma.rs`). Rules are scoped by workspace-relative path (see
//! each rule's `scope` string, also printed by `--list-rules`), and all of
//! them skip `#[cfg(test)]` / `#[test]` item spans — test code may panic
//! and hash freely; the invariants protect what ships in the simulation
//! and accounting paths.
//!
//! Analysis is one pass per file ([`analyze`]): every rule sees one
//! file at a time. Pragma filtering follows the rules
//! so the `dead-pragma` audit can see which pragmas suppressed anything at
//! all. Disciplines that span files are held by the compiler instead: a
//! reference kernel is `#[cfg(test)]` with `dead_code` denied, so it
//! cannot outlive its equivalence test, and the ns→ps boundary is typed
//! (`LatencyLaw::latency_ps` returns `Picos`).

use crate::lexer::{lex, Token};
use crate::pragma;

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

/// The rule catalog (kept in sync with DESIGN.md §11). Invariants the
/// compiler holds are not here: run-config construction (a private seal
/// field on `SimConfig`/`ServiceConfig`), counter folds (exhaustive
/// destructuring in every `Mergeable` fold and in the shard fold),
/// reference kernels (`#[cfg(test)]` with `dead_code` denied) and the
/// ns→ps boundary (`LatencyLaw::latency_ps` returns `Picos`).
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
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn contains(&self, line: usize) -> bool {
        (self.start..=self.end).contains(&line)
    }
}

fn in_spans(spans: &[Span], line: usize) -> bool {
    spans.iter().any(|s| s.contains(line))
}

/// Analyzes one file: runs every rule, filters the findings through the
/// file's pragmas, audits those pragmas, and returns the findings sorted
/// by position. Nothing is read from disk here, so fixtures can fabricate
/// a file under any virtual path.
pub fn analyze(rel_path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let ctx = FileContext::new(rel_path);
    let tokens = &lexed.tokens;
    let tests = test_spans(tokens);
    let mergeable = mergeable_impl_spans(tokens);

    let mut raw: Vec<Finding> = Vec::new();
    check_hash_iter(&ctx, tokens, &tests, &mut raw);
    check_wall_clock(&ctx, tokens, &tests, &mut raw);
    check_ambient_rng(&ctx, tokens, &mut raw);
    check_lossy_cast(&ctx, tokens, &tests, &mergeable, &mut raw);
    check_panic_policy(&ctx, tokens, &tests, &mut raw);

    // Pragma filtering with usage tracking, then the dead-pragma audit.
    let pragmas = pragma::collect(&lexed.comments);
    let mut used = vec![false; pragmas.pragmas.len()];
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        match pragmas.covering(f.rule, f.line) {
            Some(pi) => used[pi] = true,
            None => out.push(f),
        }
    }
    let dead = |p: &pragma::Pragma, message: String| Finding {
        rule: "dead-pragma",
        path: rel_path.to_string(),
        line: p.line,
        col: p.col,
        message,
    };
    // A well-formed pragma that suppressed nothing is dead. Dead-pragma
    // findings are themselves suppressible (one level — an unused
    // `allow(dead-pragma)` is reported unconditionally, so the audit
    // cannot regress into a fixpoint).
    for (pi, p) in pragmas.pragmas.iter().enumerate() {
        if used[pi] || p.rule == "dead-pragma" {
            continue;
        }
        if let Some(pj) = pragmas.covering("dead-pragma", p.line) {
            used[pj] = true;
            continue;
        }
        out.push(dead(
            p,
            format!(
                "pragma `allow({})` suppresses nothing; the violation it \
                 justified is gone — delete the pragma or restore its \
                 purpose",
                p.rule
            ),
        ));
    }
    for (pi, p) in pragmas.pragmas.iter().enumerate() {
        if !used[pi] && p.rule == "dead-pragma" {
            out.push(dead(
                p,
                "pragma `allow(dead-pragma)` suppresses nothing; delete it".to_string(),
            ));
        }
    }

    // Malformed pragmas are findings themselves and cannot be allowed.
    for e in &pragmas.errors {
        out.push(Finding {
            rule: "pragma",
            path: rel_path.to_string(),
            line: e.line,
            col: 1,
            message: e.message.clone(),
        });
    }

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Span computation.
// ---------------------------------------------------------------------------

/// Index just past an attribute starting at `i` (which must be `#`).
fn skip_attr(tokens: &[Token], i: usize) -> usize {
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
fn brace_match(tokens: &[Token], open: usize) -> Option<usize> {
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
fn item_end(tokens: &[Token], j: usize) -> usize {
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
fn test_spans(tokens: &[Token]) -> Vec<Span> {
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
    fn non_counter_fields_do_not_fire() {
        let src = "pub struct SpanStats { pub wall: Duration, pub peak: u64 }\n\
                   impl Mergeable for SpanStats {\n\
                   fn merge_from(&mut self, o: &Self) {\n\
                   self.wall += o.wall;\n\
                   self.peak = self.peak.max(o.peak as u64);\n\
                   }\n}\n";
        // A merge body's arithmetic and widening casts are clean; only a
        // narrowing cast would fire (lossy-cast covers `impl Mergeable`).
        assert!(rules_fired("crates/memctrl/src/span.rs", src).is_empty());
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
}
