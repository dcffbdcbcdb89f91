//! The inline allow-pragma grammar, with a full lifecycle.
//!
//! A finding is suppressed by a justified pragma comment:
//!
//! ```text
//! // lint: allow(<rule>) — <justification>
//! ```
//!
//! A trailing pragma covers findings on its own line; an own-line pragma
//! covers its own line and the next line (the idiom for chained-method
//! sites). The justification is mandatory and the rule name must exist —
//! a malformed pragma is itself reported (rule `pragma`), so a typo can
//! never silently disable anything. The separator before the
//! justification may be `—`, `–`, `-` or just whitespace.
//!
//! Pragmas are audited, not just consulted: the analysis of each file
//! ([`crate::rules::analyze`]) records which pragma suppressed
//! which finding, and a well-formed pragma that suppresses nothing is
//! reported under the `dead-pragma` rule — stale escape hatches cannot
//! outlive the violation they once justified.

use crate::lexer::Comment;
use crate::rules::rule_exists;

/// One parsed, well-formed `lint: allow(...)` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// Line the pragma comment starts on.
    pub line: usize,
    /// Column of the `//` marker.
    pub col: usize,
    /// Rule it allows.
    pub rule: String,
    /// Justification text (may be empty — reported as malformed).
    pub justification: String,
    /// Whether the comment stood on its own line.
    pub own_line: bool,
}

impl Pragma {
    /// Whether this pragma covers findings of `rule` on `line`.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        self.rule == rule && (line == self.line || (self.own_line && line == self.line + 1))
    }
}

/// A malformed pragma, reported as a finding under the `pragma` rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// Line of the offending comment.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Pragmas extracted from a file's comments, plus any parse errors.
#[derive(Debug, Default)]
pub struct Pragmas {
    /// Well-formed pragmas, in source order (indexable for usage
    /// tracking).
    pub pragmas: Vec<Pragma>,
    /// Malformed pragmas.
    pub errors: Vec<PragmaError>,
}

impl Pragmas {
    /// Index of the first pragma covering `rule` at `line`, if any.
    pub fn covering(&self, rule: &str, line: usize) -> Option<usize> {
        self.pragmas.iter().position(|p| p.covers(rule, line))
    }
}

/// Extracts every pragma from a file's line comments.
pub fn collect(comments: &[Comment]) -> Pragmas {
    let mut out = Pragmas::default();
    for c in comments {
        let Some(parsed) = parse_comment(c) else {
            continue;
        };
        match parsed {
            Ok(p) => {
                if !rule_exists(&p.rule) {
                    out.errors.push(PragmaError {
                        line: p.line,
                        message: format!(
                            "pragma allows unknown rule `{}` (see --list-rules)",
                            p.rule
                        ),
                    });
                    continue;
                }
                if p.justification.is_empty() {
                    out.errors.push(PragmaError {
                        line: p.line,
                        message: format!(
                            "pragma for `{}` is missing its justification \
                             (`// lint: allow({}) — <why>`)",
                            p.rule, p.rule
                        ),
                    });
                }
                // A justification-less pragma still suppresses (the error
                // above forces it to be fixed either way).
                out.pragmas.push(p);
            }
            Err(e) => out.errors.push(e),
        }
    }
    out
}

/// Parses one comment. `None` means "not a pragma at all"; `Some(Err)`
/// means it tried to be one and failed.
fn parse_comment(c: &Comment) -> Option<Result<Pragma, PragmaError>> {
    let text = c.text.trim();
    let rest = text.strip_prefix("lint:")?;
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Err(PragmaError {
            line: c.line,
            message: "malformed pragma: expected `lint: allow(<rule>) — <why>`".to_string(),
        }));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err(PragmaError {
            line: c.line,
            message: "malformed pragma: missing `)` after the rule name".to_string(),
        }));
    };
    let rule = rest[..close].trim().to_string();
    let justification = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '–', '-'])
        .trim()
        .to_string();
    Some(Ok(Pragma {
        line: c.line,
        col: c.col,
        rule,
        justification,
        own_line: c.own_line,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: usize, own_line: bool, text: &str) -> Comment {
        Comment {
            line,
            col: if own_line { 5 } else { 40 },
            own_line,
            text: text.to_string(),
        }
    }

    #[test]
    fn trailing_pragma_covers_its_own_line_only() {
        let p = collect(&[comment(7, false, " lint: allow(panic-policy) — invariant")]);
        assert!(p.covering("panic-policy", 7).is_some());
        assert!(p.covering("panic-policy", 8).is_none());
        assert!(p.covering("hash-iter", 7).is_none());
        assert!(p.errors.is_empty());
        assert_eq!(p.pragmas[0].col, 40);
    }

    #[test]
    fn own_line_pragma_also_covers_the_next_line() {
        let p = collect(&[comment(3, true, " lint: allow(wall-clock) -- progress bar")]);
        assert!(p.covering("wall-clock", 3).is_some());
        assert!(p.covering("wall-clock", 4).is_some());
        assert!(p.covering("wall-clock", 5).is_none());
    }

    #[test]
    fn covering_returns_the_pragma_index() {
        let p = collect(&[
            comment(1, true, " lint: allow(hash-iter) — sorted at export"),
            comment(9, true, " lint: allow(wall-clock) — progress bar"),
        ]);
        assert_eq!(p.covering("wall-clock", 10), Some(1));
        assert_eq!(p.covering("hash-iter", 1), Some(0));
        assert_eq!(p.covering("hash-iter", 10), None);
    }

    #[test]
    fn unknown_rule_is_an_error_and_does_not_suppress() {
        let p = collect(&[comment(1, true, " lint: allow(no-such-rule) — whatever")]);
        assert_eq!(p.errors.len(), 1);
        assert!(p.errors[0].message.contains("no-such-rule"));
        assert!(p.covering("no-such-rule", 1).is_none());
        assert!(p.pragmas.is_empty());
    }

    #[test]
    fn missing_justification_is_an_error() {
        let p = collect(&[comment(1, true, " lint: allow(hash-iter)")]);
        assert_eq!(p.errors.len(), 1);
        assert!(p.errors[0].message.contains("justification"));
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        let p = collect(&[
            comment(1, true, " just a note about lint: things"),
            comment(2, true, "! module docs"),
        ]);
        assert!(p.errors.is_empty());
        assert!(p.pragmas.is_empty());
    }

    #[test]
    fn ascii_and_em_dash_separators_both_work() {
        for sep in ["—", "-", "--", ""] {
            let text = format!(" lint: allow(ambient-rng) {sep} seeded elsewhere");
            let p = collect(&[comment(1, true, &text)]);
            assert!(p.errors.is_empty(), "sep {sep:?}: {:?}", p.errors);
            assert!(p.covering("ambient-rng", 1).is_some());
        }
    }
}
