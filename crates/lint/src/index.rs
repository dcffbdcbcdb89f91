//! Pass 1 of the two-pass analyzer: a lightweight workspace symbol index.
//!
//! The `fast-ref-twin` rule ([`crate::semantic`]) needs to see *across*
//! files — does a reference kernel have a fast twin somewhere, does an
//! equivalence test mention it — so this module walks every file's token
//! stream once and records just enough structure for those questions:
//! functions (with a normalized signature and module path, including
//! those inside `impl` blocks) and the set of identifiers each file
//! mentions. It is *not* a parser: it recognizes item heads by keyword
//! and matches braces, which is sound for the workspace's rustfmt'd,
//! compiling code and keeps the analyzer dependency-free (no `syn`).
//!
//! Determinism: the index is a pure function of the *set* of files —
//! inputs are sorted by path before the walk, so a shuffled file list
//! produces a bit-identical index (property-tested in
//! `tests/index_stability.rs`).

use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::rules::{in_spans, test_spans, SourceUnit, Span};
use std::collections::{BTreeMap, BTreeSet};

/// One indexed `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the function's name token.
    pub line: usize,
    /// 1-based column of the function's name token.
    pub col: usize,
    /// The function's name.
    pub name: String,
    /// Normalized signature: the parameter list and return type as a
    /// space-joined token string with literals collapsed (`N`/`S`/`C`),
    /// so twins compare equal regardless of formatting.
    pub sig: String,
    /// Enclosing `mod` names, outermost first (file-relative).
    pub modules: Vec<String>,
    /// Whether the item is `pub` (any visibility qualifier counts).
    pub is_pub: bool,
}

/// The cross-file symbol index (pass 1 output).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SymbolIndex {
    /// Every non-test `fn`, in (file, position) order.
    pub fns: Vec<FnItem>,
    /// All identifiers each file mentions anywhere (including test spans —
    /// equivalence tests are the point), keyed by path.
    pub file_idents: BTreeMap<String, BTreeSet<String>>,
}

impl SymbolIndex {
    /// Builds the index over already-lexed files. Input order is
    /// irrelevant: files are visited in sorted path order.
    pub fn build(files: &[(&str, &Lexed)]) -> SymbolIndex {
        let mut sorted: Vec<&(&str, &Lexed)> = files.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        let mut index = SymbolIndex::default();
        for (path, lexed) in sorted {
            let tests = test_spans(&lexed.tokens);
            let mut walker = Walker {
                file: path,
                tokens: &lexed.tokens,
                tests: &tests,
                index: &mut index,
            };
            walker.walk(0, lexed.tokens.len(), &mut Vec::new());
            let idents = lexed
                .tokens
                .iter()
                .filter_map(|t| t.ident().map(str::to_string))
                .collect();
            index.file_idents.insert(path.to_string(), idents);
        }
        index
    }

    /// Convenience: lexes `units` and builds the index (used by tests and
    /// the fixture pipeline).
    pub fn from_units(units: &[SourceUnit]) -> SymbolIndex {
        let lexed: Vec<(String, Lexed)> = units
            .iter()
            .map(|u| (u.rel_path.clone(), lex(&u.source)))
            .collect();
        let refs: Vec<(&str, &Lexed)> = lexed.iter().map(|(p, l)| (p.as_str(), l)).collect();
        SymbolIndex::build(&refs)
    }
}

struct Walker<'a> {
    file: &'a str,
    tokens: &'a [Token],
    tests: &'a [Span],
    index: &'a mut SymbolIndex,
}

impl Walker<'_> {
    /// Walks `tokens[start..end]` recording items, recursing into `mod`
    /// bodies and `impl` blocks. `mods` is the enclosing module stack.
    fn walk(&mut self, start: usize, end: usize, mods: &mut Vec<String>) {
        let mut i = start;
        while i < end {
            let t = &self.tokens[i];
            if t.is_punct('#') && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                i = crate::rules::skip_attr(self.tokens, i);
                continue;
            }
            match t.ident() {
                Some("mod") => i = self.scan_mod(i, end, mods),
                Some("impl") => i = self.scan_impl(i, end, mods),
                Some("fn") => i = self.scan_fn(i, end, mods),
                Some("enum") => i = self.skip_enum(i, end),
                _ => i += 1,
            }
        }
    }

    fn in_test(&self, line: usize) -> bool {
        in_spans(self.tests, line)
    }

    /// `mod name { ... }` — recurses with the module pushed; `mod name;`
    /// declarations are skipped.
    fn scan_mod(&mut self, i: usize, end: usize, mods: &mut Vec<String>) -> usize {
        let Some(name) = self.tokens.get(i + 1).and_then(|t| t.ident()) else {
            return i + 1;
        };
        let Some(open) = self.find_block_open(i + 2, end) else {
            return i + 2;
        };
        let Some(close) = crate::rules::brace_match(self.tokens, open) else {
            return open + 1;
        };
        mods.push(name.to_string());
        self.walk(open + 1, close, mods);
        mods.pop();
        close + 1
    }

    /// `impl<G> [Trait for] Type [where ...] { ... }`: walks the body.
    fn scan_impl(&mut self, i: usize, end: usize, mods: &mut Vec<String>) -> usize {
        // The body opens at the first `{` outside the header's generics.
        let mut j = i + 1;
        let mut angle = 0usize;
        while j < end {
            let t = &self.tokens[j];
            if t.is_punct('-') && self.tokens.get(j + 1).is_some_and(|t| t.is_punct('>')) {
                j += 2; // `->` inside an fn-trait bound
                continue;
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && angle > 0 {
                angle -= 1;
            } else if angle == 0 && t.is_punct('{') {
                break;
            } else if angle == 0 && t.is_punct(';') {
                return j + 1;
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        let Some(close) = crate::rules::brace_match(self.tokens, j) else {
            return j + 1;
        };
        self.walk(j + 1, close, mods);
        close + 1
    }

    /// `fn name<G>(params) -> Ret [where ...] { body }`.
    fn scan_fn(&mut self, i: usize, end: usize, mods: &[String]) -> usize {
        let Some(name_tok) = self.tokens.get(i + 1) else {
            return i + 1;
        };
        let Some(name) = name_tok.ident() else {
            return i + 1;
        };
        let mut j = i + 2;
        if self.tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j, end);
        }
        if !self.tokens.get(j).is_some_and(|t| t.is_punct('(')) {
            return i + 2;
        }
        // Parameter list: match parens.
        let params_open = j;
        let mut depth = 0usize;
        let mut params_close = None;
        while j < end {
            let t = &self.tokens[j];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    params_close = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(params_close) = params_close else {
            return j;
        };
        // Return type runs to the body `{`, a `;`, or a `where` clause.
        let mut k = params_close + 1;
        let mut ret_end = k;
        let mut item_after = end;
        while k < end {
            let t = &self.tokens[k];
            if t.is_punct('<') {
                k = self.skip_angles(k, end);
                ret_end = k;
                continue;
            }
            if t.is_ident("where") {
                while k < end && !self.tokens[k].is_punct('{') && !self.tokens[k].is_punct(';') {
                    k += 1;
                }
                continue;
            }
            if t.is_punct('{') {
                item_after = crate::rules::brace_match(self.tokens, k).map_or(end, |c| c + 1);
                break;
            }
            if t.is_punct(';') {
                item_after = k + 1;
                break;
            }
            k += 1;
            ret_end = k;
        }
        if !self.in_test(name_tok.line) {
            let sig = self.normalize(params_open, params_close + 1)
                + &self.normalize(params_close + 1, ret_end);
            self.index.fns.push(FnItem {
                file: self.file.to_string(),
                line: name_tok.line,
                col: name_tok.col,
                name: name.to_string(),
                sig: sig.trim().to_string(),
                modules: mods.to_vec(),
                is_pub: self.is_pub_before(i),
            });
        }
        item_after
    }

    /// `enum Name<G> { .. }`: no rule reads variants, so the body is
    /// skipped whole (struct-variant fields are not struct fields).
    fn skip_enum(&self, i: usize, end: usize) -> usize {
        let mut j = i + 2;
        if self.tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j, end);
        }
        let Some(open) = self.find_block_open(j, end) else {
            return j;
        };
        crate::rules::brace_match(self.tokens, open).unwrap_or(end - 1) + 1
    }

    /// First `{` at or after `i` (for `mod`/`enum` heads that may carry
    /// attributes or generics in between).
    fn find_block_open(&self, i: usize, end: usize) -> Option<usize> {
        (i..end).find(|&k| self.tokens[k].is_punct('{'))
    }

    /// Index just past the `>` matching the `<` at `i`. Skips `->` arrows
    /// so `Fn() -> T` bounds do not unbalance the count.
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            let t = &self.tokens[j];
            if t.is_punct('-') && self.tokens.get(j + 1).is_some_and(|t| t.is_punct('>')) {
                j += 2;
                continue;
            }
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Whether a visibility qualifier precedes the keyword at `i`,
    /// scanning back over `pub(crate)`-style groups and fn qualifiers.
    fn is_pub_before(&self, i: usize) -> bool {
        let mut k = i;
        while k > 0 {
            k -= 1;
            let t = &self.tokens[k];
            match t.ident() {
                Some("pub") => return true,
                Some(
                    "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "self" | "in",
                ) => continue,
                Some(_) => return false,
                None => {
                    if t.is_punct('(') || t.is_punct(')') || matches!(t.kind, TokenKind::Str) {
                        continue; // `pub(in path)`, `extern "C"`
                    }
                    return false;
                }
            }
        }
        false
    }

    /// Space-joined normalized token text for `tokens[start..end)`.
    fn normalize(&self, start: usize, end: usize) -> String {
        let mut out = String::new();
        for t in &self.tokens[start..end.min(self.tokens.len())] {
            if !out.is_empty() {
                out.push(' ');
            }
            match &t.kind {
                TokenKind::Ident(s) => out.push_str(s),
                TokenKind::Number => out.push('N'),
                TokenKind::Str => out.push('S'),
                TokenKind::Char => out.push('C'),
                TokenKind::Lifetime => out.push_str("'_"),
                TokenKind::Punct(c) => out.push(*c),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(path: &str, src: &str) -> SourceUnit {
        SourceUnit {
            rel_path: path.to_string(),
            source: src.to_string(),
        }
    }

    #[test]
    fn indexes_fns_with_modules_and_signatures() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "pub fn ones(bytes: &[u8]) -> u32 { 0 }\n\
             pub mod reference {\n    pub fn ones(bytes: &[u8]) -> u32 { 0 }\n}\n",
        )]);
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].modules, Vec::<String>::new());
        assert_eq!(idx.fns[1].modules, vec!["reference".to_string()]);
        assert_eq!(idx.fns[0].sig, idx.fns[1].sig);
        assert!(idx.fns[0].is_pub && idx.fns[1].is_pub);
    }

    #[test]
    fn signature_normalization_collapses_literals_and_whitespace() {
        let a = SymbolIndex::from_units(&[unit(
            "a.rs",
            "fn f(x: u64, y: &str) -> Option<u64> { None }",
        )]);
        let b = SymbolIndex::from_units(&[unit(
            "b.rs",
            "fn f(\n    x: u64,\n    y: &str,\n) -> Option<u64> {\n    None\n}",
        )]);
        // Trailing comma differs, so compare through the parameter names.
        assert!(a.fns[0].sig.starts_with("( x : u64 , y : & str"));
        assert!(b.fns[0].sig.starts_with("( x : u64 , y : & str"));
    }

    #[test]
    fn indexes_impl_trait_for_type_with_path_qualification() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "impl<F: Fn() -> u64> ladder_trace::Mergeable for Tally<F> where F: Copy {\n    fn merge_from(&mut self, o: &Self) {}\n}\n\
             impl Tally {\n    pub fn new() -> Self { Self }\n}\npub fn after() {}\n",
        )]);
        // Both impl bodies are walked, and the walk resumes after them.
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["merge_from", "new", "after"]);
        assert!(!idx.fns[0].is_pub && idx.fns[1].is_pub);
        assert_eq!(idx.fns[0].sig, "( & mut self , o : & Self )");
    }

    #[test]
    fn struct_fields_are_not_indexed_as_fns() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "pub struct Hooks {\n    pub on_write: fn(u64) -> u64,\n    #[allow(dead_code)]\n    pub label: String,\n}\npub fn after() {}\n",
        )]);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["after"]);
    }

    #[test]
    fn enum_bodies_are_skipped() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "pub enum E {\n    A = { fn inner() -> isize { 1 } inner() },\n    B,\n}\n\
             pub enum F<T> {\n    C(T, String),\n    D { x: u64 },\n}\npub fn after() {}\n",
        )]);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["after"]);
    }

    #[test]
    fn test_spans_are_excluded_but_their_idents_still_index() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    struct FakeStats { a: u64 }\n}\n",
        )]);
        assert_eq!(idx.fns.len(), 1);
        let idents = &idx.file_idents["crates/x/src/lib.rs"];
        assert!(idents.contains("helper") && idents.contains("FakeStats"));
    }

    #[test]
    fn build_is_order_independent() {
        let units = vec![
            unit("b.rs", "pub fn two() -> u64 { 2 }"),
            unit("a.rs", "pub fn one() -> u64 { 1 }"),
        ];
        let fwd = SymbolIndex::from_units(&units);
        let rev: Vec<SourceUnit> = units.into_iter().rev().collect();
        assert_eq!(fwd, SymbolIndex::from_units(&rev));
        assert_eq!(fwd.fns[0].name, "one");
    }
}
