//! A lightweight item parser on top of [`crate::lexer`]: modules, `fn`
//! items, `impl`/`trait` blocks, and intra-workspace `use` declarations.
//!
//! This is deliberately *not* `syn`. The semantic rules (R8–R10) only
//! need to know **which function a token belongs to**, which type an
//! `impl` block targets, and what a local name probably resolves to —
//! all of which a brace-depth walk over the token stream recovers. The
//! parser is approximate by design: macro bodies are walked as ordinary
//! token soup, generics are skipped, and unresolvable names simply
//! produce no call edges. Over-approximation is acceptable (a spurious
//! edge inflates reachability, never hides a panic site); silent
//! under-approximation is what the fixtures guard against.

use crate::lexer::{Lexed, Tok, TokKind};

/// One `fn` item (free function, inherent/trait method, or trait default
/// method) with its position and body token range.
#[derive(Debug, Clone)]
pub struct Item {
    /// Bare function name (`serve`, `place`, ...).
    pub name: String,
    /// The `impl`/`trait` type the fn hangs off, if any (`Server`).
    pub self_ty: Option<String>,
    /// Fully qualified display name
    /// (`mmp_serve::daemon::Server::serve`). Approximate but stable: the
    /// crate segment comes from the directory name, the module segments
    /// from the file path plus inline `mod` nesting.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range `[start, end)` of the body, `None` for
    /// body-less trait method declarations.
    pub body: Option<(usize, usize)>,
    /// `true` when the item lives inside a `tests` module (unit-test
    /// code is exempt from the semantic rules).
    pub in_tests: bool,
}

/// One file after item parsing.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path (`/`-separated), as passed to `parse`.
    pub path: String,
    /// The owning crate's library name (`mmp_serve` for
    /// `crates/serve/...`); `file` when the path has no `crates/<dir>/`
    /// prefix (single-file fixtures).
    pub crate_name: String,
    /// `true` for binary roots (`main.rs`, anything under `src/bin/`):
    /// CLI edges are allowed to panic on broken invariants, so R8 skips
    /// them.
    pub is_bin: bool,
    pub items: Vec<Item>,
    /// `use` resolution: local alias → full path segments
    /// (`fingerprint` → `["mmp_core", "fingerprint"]`).
    pub uses: Vec<(String, Vec<String>)>,
    /// Token-index ranges `[start, end)` of `tests` module bodies.
    pub test_ranges: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Index of the innermost item whose body contains token `tok_idx`.
    pub fn enclosing_item(&self, tok_idx: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, item) in self.items.iter().enumerate() {
            if let Some((s, e)) = item.body {
                if s <= tok_idx && tok_idx < e {
                    let tighter = match best {
                        None => true,
                        Some(b) => {
                            let (bs, be) = self.items[b].body.unwrap_or((0, usize::MAX));
                            e - s < be - bs
                        }
                    };
                    if tighter {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// `true` when token `tok_idx` sits inside a `tests` module.
    pub fn in_tests(&self, tok_idx: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| s <= tok_idx && tok_idx < e)
    }

    /// The full path a local alias resolves to, if a `use` imported it.
    pub fn resolve_use(&self, alias: &str) -> Option<&[String]> {
        self.uses
            .iter()
            .find(|(a, _)| a == alias)
            .map(|(_, p)| p.as_slice())
    }
}

/// What opened the brace scope we are inside.
#[derive(Debug)]
enum Scope {
    Mod { name: String, tests: bool },
    Impl { ty: String },
    Fn { item_idx: usize },
    Other,
}

/// Keywords that can directly precede `[`/`(` without forming an index
/// or a call (statement/expression keywords the lexer reports as plain
/// identifiers).
pub fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// Derives the crate library name from a workspace-relative path:
/// `crates/serve/src/daemon.rs` → `mmp_serve`.
fn crate_name_of(path_rel: &str) -> String {
    let mut parts = path_rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(dir) = parts.next() {
            return format!("mmp_{}", dir.replace('-', "_"));
        }
    }
    "file".to_owned()
}

/// Module segments the file path itself contributes:
/// `crates/serve/src/daemon.rs` → `["daemon"]`, `lib.rs` → `[]`.
fn file_modules(path_rel: &str) -> Vec<String> {
    let after_src = match path_rel.find("/src/") {
        Some(i) => &path_rel[i + 5..],
        None => path_rel,
    };
    after_src
        .split('/')
        .map(|s| s.trim_end_matches(".rs"))
        .filter(|s| !s.is_empty() && *s != "lib" && *s != "main" && *s != "mod")
        .map(str::to_owned)
        .collect()
}

/// Parses one lexed file into its item table.
pub fn parse(path_rel: &str, lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.tokens;
    let crate_name = crate_name_of(path_rel);
    let is_bin = path_rel.ends_with("/main.rs")
        || path_rel.ends_with("main.rs") && !path_rel.contains('/')
        || path_rel.contains("/bin/");

    let mut out = ParsedFile {
        path: path_rel.to_owned(),
        crate_name: crate_name.clone(),
        is_bin,
        ..ParsedFile::default()
    };

    let mut scopes: Vec<Scope> = Vec::new();
    // (scope stack depth when the tests module opened, token index).
    let mut tests_open: Vec<(usize, usize)> = Vec::new();
    let base_mods = file_modules(path_rel);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "mod" => {
                    // `mod name { ... }` or `mod name;`. Anything else
                    // (`mod` as a path segment?) falls through harmlessly.
                    if let Some(name_tok) = toks.get(i + 1) {
                        if name_tok.kind == TokKind::Ident {
                            let name = name_tok.text.clone();
                            match next_significant(toks, i + 2) {
                                Some(j) if toks[j].is_punct('{') => {
                                    let parent_tests = in_tests_now(&scopes);
                                    let tests = parent_tests || name == "tests";
                                    if tests && !parent_tests {
                                        tests_open.push((scopes.len(), j + 1));
                                    }
                                    scopes.push(Scope::Mod { name, tests });
                                    i = j + 1;
                                    continue;
                                }
                                _ => {
                                    i += 2;
                                    continue;
                                }
                            }
                        }
                    }
                    i += 1;
                }
                "impl" | "trait" => {
                    // Scan the header to its `{` (headers never contain
                    // braces) and extract the subject type name.
                    let mut j = i + 1;
                    let mut angle = 0i32;
                    let mut after_for = false;
                    let mut ty: Option<String> = None;
                    let mut ty_after_for: Option<String> = None;
                    while let Some(h) = toks.get(j) {
                        match h.kind {
                            TokKind::Punct('{') => break,
                            TokKind::Punct(';') => break,
                            TokKind::Punct('<') => angle += 1,
                            TokKind::Punct('>') => angle -= 1,
                            TokKind::Ident if angle == 0 => {
                                if h.text == "for" {
                                    after_for = true;
                                } else if h.text == "where" {
                                    // Bounds in where clauses are not the
                                    // subject type.
                                } else if after_for {
                                    if ty_after_for.is_none() && h.text != "dyn" {
                                        ty_after_for = Some(h.text.clone());
                                    }
                                } else if ty.is_none() && h.text != "dyn" {
                                    ty = Some(h.text.clone());
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if toks.get(j).is_some_and(|h| h.is_punct('{')) {
                        let ty = ty_after_for.or(ty).unwrap_or_else(|| "_".to_owned());
                        scopes.push(Scope::Impl { ty });
                        i = j + 1;
                    } else {
                        i = j + 1; // `impl Foo;`-ish degenerate — skip.
                    }
                }
                "fn" => {
                    // `fn name(...)` — `fn(` is a function-pointer type.
                    let Some(name_tok) = toks.get(i + 1) else {
                        i += 1;
                        continue;
                    };
                    if name_tok.kind != TokKind::Ident {
                        i += 1;
                        continue;
                    }
                    let name = name_tok.text.clone();
                    // Signature runs to the body `{` or a trait-decl `;`.
                    // Headers carry no braces, and the only `;` a header
                    // can hold sits inside an array type (`&[[f32; 4]]`),
                    // so tracking bracket depth suffices.
                    let mut j = i + 2;
                    let mut brackets = 0usize;
                    while let Some(h) = toks.get(j) {
                        if h.is_punct('[') {
                            brackets += 1;
                        } else if h.is_punct(']') {
                            brackets = brackets.saturating_sub(1);
                        } else if h.is_punct('{') || (h.is_punct(';') && brackets == 0) {
                            break;
                        }
                        j += 1;
                    }
                    let self_ty = scopes.iter().rev().find_map(|s| match s {
                        Scope::Impl { ty } => Some(ty.clone()),
                        _ => None,
                    });
                    let mut segs: Vec<String> = Vec::new();
                    segs.push(crate_name.clone());
                    segs.extend(base_mods.iter().cloned());
                    for s in &scopes {
                        if let Scope::Mod { name, .. } = s {
                            segs.push(name.clone());
                        }
                    }
                    if let Some(ty) = &self_ty {
                        segs.push(ty.clone());
                    }
                    segs.push(name.clone());
                    let item = Item {
                        name,
                        self_ty,
                        qual: segs.join("::"),
                        line: t.line,
                        body: None,
                        in_tests: in_tests_now(&scopes),
                    };
                    let item_idx = out.items.len();
                    out.items.push(item);
                    if toks.get(j).is_some_and(|h| h.is_punct('{')) {
                        out.items[item_idx].body = Some((j + 1, j + 1));
                        scopes.push(Scope::Fn { item_idx });
                        i = j + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "use" => {
                    // `use a::b::{c, d as e};` — record alias → full path.
                    let mut j = i + 1;
                    while let Some(h) = toks.get(j) {
                        if h.is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                    parse_use_tree(&toks[i + 1..j], &mut Vec::new(), &mut out.uses);
                    i = j + 1;
                }
                _ => i += 1,
            },
            TokKind::Punct('{') => {
                scopes.push(Scope::Other);
                i += 1;
            }
            TokKind::Punct('}') => {
                match scopes.pop() {
                    Some(Scope::Fn { item_idx }) => {
                        if let Some((s, _)) = out.items[item_idx].body {
                            out.items[item_idx].body = Some((s, i));
                        }
                    }
                    Some(Scope::Mod { tests: true, .. }) => {
                        if let Some(&(depth, start)) = tests_open.last() {
                            if depth == scopes.len() {
                                tests_open.pop();
                                out.test_ranges.push((start, i));
                            }
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    // Unterminated scopes (truncated input): close at end of stream so
    // ranges stay well-formed.
    while let Some(s) = scopes.pop() {
        match s {
            Scope::Fn { item_idx } => {
                if let Some((start, _)) = out.items[item_idx].body {
                    out.items[item_idx].body = Some((start, toks.len()));
                }
            }
            Scope::Mod { tests: true, .. } => {
                if let Some((_, start)) = tests_open.pop() {
                    out.test_ranges.push((start, toks.len()));
                }
            }
            _ => {}
        }
    }
    out
}

fn in_tests_now(scopes: &[Scope]) -> bool {
    scopes
        .iter()
        .any(|s| matches!(s, Scope::Mod { tests: true, .. }))
}

fn next_significant(toks: &[Tok], from: usize) -> Option<usize> {
    (from < toks.len()).then_some(from)
}

/// Recursive descent over one `use` tree (the tokens between `use` and
/// `;`). `prefix` carries the segments accumulated so far.
fn parse_use_tree(toks: &[Tok], prefix: &mut Vec<String>, out: &mut Vec<(String, Vec<String>)>) {
    let mut i = 0usize;
    let start_len = prefix.len();
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident if t.text == "as" => {
                // `path as alias` — the alias is the local name.
                if let Some(a) = toks.get(i + 1) {
                    if a.kind == TokKind::Ident && !prefix.is_empty() {
                        out.push((a.text.clone(), prefix.clone()));
                        prefix.truncate(start_len);
                        // Consume up to the next `,` at this level.
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
            TokKind::Ident => {
                prefix.push(t.text.clone());
                i += 1;
            }
            TokKind::Punct(':') => i += 1,
            TokKind::Punct('*') => {
                // Glob imports resolve nothing by name; drop them.
                prefix.truncate(start_len);
                i += 1;
            }
            TokKind::Punct('{') => {
                // Group: recurse over each comma-separated subtree.
                let mut depth = 1usize;
                let mut j = i + 1;
                let group_start = j;
                while j < toks.len() && depth > 0 {
                    match toks[j].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                let group = &toks[group_start..j.saturating_sub(1)];
                for sub in split_top_level_commas(group) {
                    let mut p = prefix.clone();
                    parse_use_tree(sub, &mut p, out);
                }
                prefix.truncate(start_len);
                i = j;
            }
            TokKind::Punct(',') => {
                flush_leaf(prefix, start_len, out);
                i += 1;
            }
            _ => i += 1,
        }
    }
    flush_leaf(prefix, start_len, out);
}

/// Emits `prefix` as a leaf import (alias = last segment) if it grew.
fn flush_leaf(prefix: &mut Vec<String>, start_len: usize, out: &mut Vec<(String, Vec<String>)>) {
    if prefix.len() > start_len {
        if let Some(last) = prefix.last() {
            if last != "self" {
                out.push((last.clone(), prefix.clone()));
            } else {
                // `use a::b::{self}` imports `b` itself.
                let trimmed: Vec<String> = prefix[..prefix.len() - 1].to_vec();
                if let Some(name) = trimmed.last() {
                    out.push((name.clone(), trimmed.clone()));
                }
            }
        }
    }
    prefix.truncate(start_len);
}

fn split_top_level_commas(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth = depth.saturating_sub(1),
            TokKind::Punct(',') if depth == 0 => {
                parts.push(&toks[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        parts.push(&toks[start..]);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse("crates/serve/src/daemon.rs", &lex(src))
    }

    #[test]
    fn free_and_impl_fns_get_quals() {
        let p = parsed(
            "fn helper() {}\n\
             impl Server {\n    pub fn serve(&self) { helper(); }\n}\n\
             impl Default for ServeConfig {\n    fn default() -> Self { todo!() }\n}\n",
        );
        let quals: Vec<&str> = p.items.iter().map(|i| i.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "mmp_serve::daemon::helper",
                "mmp_serve::daemon::Server::serve",
                "mmp_serve::daemon::ServeConfig::default",
            ]
        );
        assert_eq!(p.items[1].self_ty.as_deref(), Some("Server"));
    }

    #[test]
    fn generics_do_not_confuse_impl_subjects() {
        let p = parsed("impl<'a, T: Clone> Wrapper<'a, T> {\n    fn get(&self) {}\n}\n");
        assert_eq!(p.items[0].self_ty.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn bodies_cover_their_tokens_and_nest() {
        let src = "fn outer() {\n    let x = inner();\n    fn inner() -> u32 { 7 }\n}\n";
        let p = parsed(src);
        let lexed = lex(src);
        let outer = &p.items[0];
        let inner = &p.items[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.name, "inner");
        let seven = lexed
            .tokens
            .iter()
            .position(|t| t.kind == TokKind::Num)
            .unwrap();
        // `7` is in both bodies; the innermost wins.
        assert_eq!(p.enclosing_item(seven), Some(1));
    }

    #[test]
    fn tests_modules_are_ranged() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lib(); }\n}\n";
        let p = parsed(src);
        assert!(!p.items[0].in_tests);
        assert!(p.items[1].in_tests);
        assert_eq!(p.test_ranges.len(), 1);
    }

    #[test]
    fn use_trees_resolve_aliases() {
        let p = parsed(
            "use mmp_core::{fingerprint, MacroPlacer as Placer};\n\
             use crate::journal::Journal;\nuse std::io::Write as _;\n",
        );
        assert_eq!(
            p.resolve_use("fingerprint"),
            Some(&["mmp_core".to_owned(), "fingerprint".to_owned()][..])
        );
        assert_eq!(
            p.resolve_use("Placer"),
            Some(&["mmp_core".to_owned(), "MacroPlacer".to_owned()][..])
        );
        assert_eq!(
            p.resolve_use("Journal"),
            Some(
                &[
                    "crate".to_owned(),
                    "journal".to_owned(),
                    "Journal".to_owned()
                ][..]
            )
        );
    }

    #[test]
    fn trait_default_methods_and_decls() {
        let p = parsed(
            "trait Sink {\n    fn flush(&self);\n    fn write_all(&self) { self.flush(); }\n}\n",
        );
        assert_eq!(p.items.len(), 2);
        assert!(p.items[0].body.is_none());
        assert!(p.items[1].body.is_some());
        assert_eq!(p.items[1].qual, "mmp_serve::daemon::Sink::write_all");
    }

    #[test]
    fn array_types_in_signatures_do_not_end_the_header() {
        let p = parsed(
            "fn pack(bp: &mut [[f32; 16]], n: usize) -> [f32; 4] { [0.0; 4] }\n\
             trait T {\n    fn decl(x: [u8; 2]);\n}\n",
        );
        assert_eq!(p.items.len(), 2);
        assert_eq!(p.items[0].qual, "mmp_serve::daemon::pack");
        assert!(p.items[0].body.is_some());
        assert!(p.items[1].body.is_none());
    }

    #[test]
    fn bin_paths_are_marked() {
        assert!(parse("crates/serve/src/bin/mmpd.rs", &lex("fn main() {}")).is_bin);
        assert!(parse("crates/core/src/main.rs", &lex("fn main() {}")).is_bin);
        assert!(!parsed("fn f() {}").is_bin);
    }
}
