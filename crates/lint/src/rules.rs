//! The project lint rules clippy cannot express (R1–R11).
//!
//! R1–R7 and R11 work on the token stream of [`crate::lexer`] alone, so string
//! literals and comments never produce false positives. R8–R10
//! additionally consult the item table of [`crate::items`] (and, for
//! R8's call chains, the graph of [`crate::graph`], attached by the
//! engine in `lib.rs`). Rules are heuristic by design: they match the
//! conventions this workspace actually uses (`HashMap` by that name,
//! `Instant::now` spelled out) — aliasing a banned item through
//! `use ... as` would evade them, and code review owns that residue.

use crate::items::{is_expr_keyword, ParsedFile};
use crate::lexer::{Comment, Lexed, Tok, TokKind};
use crate::LintConfig;

/// Rule R1: hashed-collection order must not reach placement decisions.
pub const HASH_ORDER: &str = "hash-order";
/// Rule R2: `partial_cmp` on floats panics or lies on NaN; use `total_cmp`.
pub const PARTIAL_CMP: &str = "partial-cmp";
/// Rule R3: wall-clock reads only in the sanctioned budget/obs modules.
pub const WALLCLOCK: &str = "wallclock";
/// Rule R4: randomness only from the vendored seeded RNG.
pub const RNG_SOURCE: &str = "rng-source";
/// Rule R5: every `#[allow(..)]` of a denied lint carries a `why:`.
pub const ALLOW_WHY: &str = "allow-why";
/// Rule R6: machine-derived thread counts never size compute partitions.
pub const PARALLELISM: &str = "parallelism";
/// Rule R7: durable-state crates mutate the filesystem only through the
/// `mmp-vfs` chokepoint, never via bare `std::fs`.
pub const FS_ROUTE: &str = "fs-route";
/// Rule R8: panic sites in library crates, reported with their shortest
/// call chain from the serving/flow entrypoints.
pub const PANIC_PATH: &str = "panic-path";
/// Rule R9: float accumulation whose order is not pinned (`.sum::<f64>`,
/// `fold`/`reduce` with `+`) outside the pool's fixed-chunk reductions.
pub const FLOAT_REDUCTION: &str = "float-reduction";
/// Rule R10: lossy `as` casts in index/coordinate arithmetic.
pub const CAST_TRUNCATION: &str = "cast-truncation";
/// Rule R11: `unsafe` and ISA detection only in the SIMD kernel file,
/// every `unsafe` under a `// SAFETY:` comment.
pub const UNSAFE_SCOPE: &str = "unsafe-scope";
/// Meta rule: malformed or unused `mmp-lint:` suppression comments.
/// Not suppressible — a broken suppression must never silence itself.
pub const SUPPRESSION: &str = "suppression";

/// Static rule descriptions, used by `mmp-lint rules` and the docs test.
pub const RULES: &[(&str, &str)] = &[
    (
        HASH_ORDER,
        "decision crates must not use HashMap/HashSet (iteration order is \
         seed-dependent); use BTreeMap/BTreeSet or sorted keys, or suppress \
         with a why: proving the collection is never iterated",
    ),
    (
        PARTIAL_CMP,
        "partial_cmp on floats panics or mis-sorts on NaN; use f64::total_cmp",
    ),
    (
        WALLCLOCK,
        "Instant::now/SystemTime::now outside the sanctioned budget/obs \
         timing modules lets wall-clock leak into placement decisions",
    ),
    (
        RNG_SOURCE,
        "thread_rng/rand::random/RandomState are seeded from the OS; all \
         randomness must flow from the vendored seeded RNG",
    ),
    (
        ALLOW_WHY,
        "an #[allow(..)] of a denied lint needs an adjacent comment with a \
         why: justification",
    ),
    (
        PARALLELISM,
        "available_parallelism outside the pool/bench edges derives work \
         partitions from the machine; worker counts must come from explicit \
         configuration (mmp_pool::ThreadPool)",
    ),
    (
        FS_ROUTE,
        "checkpoint/journal crates must not mutate the filesystem through \
         bare std::fs (write/rename/remove/create_dir/...); every durable \
         write routes through the mmp-vfs chokepoint so fault injection \
         and the crash-consistency torture harness see it",
    ),
    (
        PANIC_PATH,
        "panic sites (unwrap/expect/panic!/assert!/slice indexing) in \
         library crates can take the daemon or the flow down; sites are \
         reported with their shortest call chain from the entrypoints \
         (Daemon::serve, MacroPlacer::place, Trainer::train) so the most \
         reachable ones get converted to typed errors first",
    ),
    (
        FLOAT_REDUCTION,
        "float accumulation without a pinned order (.sum::<f32/f64>(), \
         fold/reduce with +) breaks the bitwise worker-invariance contract \
         the moment it is parallelized; route through mmp_pool's \
         fixed-chunk reductions or why-note why the site must stay \
         sequential",
    ),
    (
        CAST_TRUNCATION,
        "`as` casts to narrower integer types (or f32) in geometry/netlist \
         index arithmetic silently truncate or wrap out-of-range values; \
         use try_from/checked conversions or why-note the proven range",
    ),
    (
        UNSAFE_SCOPE,
        "unsafe code and is_x86_feature_detected! belong only in the SIMD \
         kernel file (crates/nn/src/matmul/avx.rs), and every unsafe there \
         needs a // SAFETY: comment (an unsafe fn: a # Safety doc section) \
         directly above it stating why it holds",
    ),
    (
        SUPPRESSION,
        "mmp-lint suppression comments must parse, carry a non-empty why:, \
         name known rules, and actually suppress something",
    ),
];

/// `true` when `id` names a real (suppressible or meta) rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// One rule hit before suppression matching.
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub rule: &'static str,
    pub line: usize,
    pub col: usize,
    pub message: String,
    /// The site kind within the rule — the matched token for R1–R7
    /// (`HashMap`, `partial_cmp`, ...), `unwrap`/`expect`/`panic`/
    /// `assert`/`index` for R8, `sum`/`fold`/`reduce` for R9, the cast
    /// target type for R10. Part of the baseline key, so it must be
    /// stable under unrelated edits to the same file.
    pub kind: String,
    /// Index of the triggering token (the engine uses it to attribute
    /// the finding to its enclosing `fn` item).
    pub tok: usize,
}

/// Runs every rule over one lexed file. `path_rel` is the
/// workspace-relative path with `/` separators (used for crate scoping).
pub fn scan(path_rel: &str, lexed: &Lexed, cfg: &LintConfig) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;
    let decision = cfg.is_decision_crate(path_rel);
    let sanctioned_clock = cfg.is_wallclock_sanctioned(path_rel);
    let sanctioned_parallelism = cfg.is_parallelism_sanctioned(path_rel);
    let fs_routed = cfg.is_fs_route_scoped(path_rel);

    // R7 stops at the unit-test module: tests legitimately tamper with
    // files (torn writes, orphaned temps) to exercise the recovery paths,
    // and the workspace convention keeps `mod tests` last in the file.
    let mut in_tests = false;

    // R1 needs to skip `use` declarations: importing a hashed collection
    // is inert, only construction/annotation sites matter (and they keep
    // the import alive). Track `use ... ;` spans in token order.
    let mut in_use = false;
    // One R1 finding per line, not per token, so a multi-token type like
    // `HashMap<GridIndex, Vec<MacroId>>` reads as one violation.
    let mut last_hash_line = 0usize;

    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("use") {
            in_use = true;
        } else if in_use && t.is_punct(';') {
            in_use = false;
        }

        // R1 — hashed collections in decision crates.
        if decision
            && !in_use
            && (t.is_ident("HashMap") || t.is_ident("HashSet"))
            && t.line != last_hash_line
        {
            last_hash_line = t.line;
            out.push(RawFinding {
                rule: HASH_ORDER,
                line: t.line,
                col: t.col,
                kind: t.text.clone(),
                tok: i,
                message: format!(
                    "{} in a decision crate: iteration order is seed-dependent; \
                     use BTreeMap/BTreeSet or sorted keys (or suppress with a \
                     why: proving it is never iterated)",
                    t.text
                ),
            });
        }

        // R2 — partial_cmp anywhere.
        if t.is_ident("partial_cmp") {
            out.push(RawFinding {
                rule: PARTIAL_CMP,
                line: t.line,
                col: t.col,
                kind: "partial_cmp".to_owned(),
                tok: i,
                message: "partial_cmp on floats panics or mis-sorts on NaN; \
                          use f64::total_cmp"
                    .to_owned(),
            });
        }

        // R3 — `Instant::now` / `SystemTime::now` outside sanctioned modules.
        if !sanctioned_clock
            && (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && path_sep(toks, i)
            && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            out.push(RawFinding {
                rule: WALLCLOCK,
                line: t.line,
                col: t.col,
                kind: t.text.clone(),
                tok: i,
                message: format!(
                    "{}::now outside the sanctioned timing modules: wall-clock \
                     must flow through the budget/obs layers, never into \
                     placement decisions",
                    t.text
                ),
            });
        }

        // R6 — machine-derived parallelism outside the pool/bench edges.
        if !sanctioned_parallelism && t.is_ident("available_parallelism") {
            out.push(RawFinding {
                rule: PARALLELISM,
                line: t.line,
                col: t.col,
                kind: "available_parallelism".to_owned(),
                tok: i,
                message: "available_parallelism derives a work partition from \
                          the machine, which breaks run-to-run determinism \
                          across hosts; take the worker count from explicit \
                          configuration (mmp_pool::ThreadPool)"
                    .to_owned(),
            });
        }

        // R7 — bare std::fs mutations in the durable-state crates. The
        // `use` skip does not apply: importing `std::fs::write` into a
        // routed file is the same evasion as calling it qualified.
        if t.is_ident("mod") && toks.get(i + 1).is_some_and(|n| n.is_ident("tests")) {
            in_tests = true;
        }
        if fs_routed && !in_tests {
            if t.is_ident("fs")
                && path_sep(toks, i)
                && toks.get(i + 3).is_some_and(|n| is_fs_mutation(&n.text))
            {
                let name = &toks[i + 3].text;
                out.push(RawFinding {
                    rule: FS_ROUTE,
                    line: t.line,
                    col: t.col,
                    kind: format!("fs::{name}"),
                    tok: i,
                    message: format!(
                        "fs::{name} bypasses the mmp-vfs chokepoint: durable \
                         mutations here are invisible to fault injection and \
                         the torture harness; route through Vfs instead"
                    ),
                });
            }
            if (t.is_ident("File") || t.is_ident("OpenOptions"))
                && path_sep(toks, i)
                && toks
                    .get(i + 3)
                    .is_some_and(|n| n.is_ident("create") || n.is_ident("new"))
            {
                out.push(RawFinding {
                    rule: FS_ROUTE,
                    line: t.line,
                    col: t.col,
                    kind: format!("{}::{}", t.text, toks[i + 3].text),
                    tok: i,
                    message: format!(
                        "{}::{} opens a writable handle outside the mmp-vfs \
                         chokepoint; route durable writes through Vfs instead",
                        t.text,
                        toks[i + 3].text
                    ),
                });
            }
        }

        // R4 — OS-seeded randomness.
        if t.is_ident("thread_rng") || t.is_ident("RandomState") {
            out.push(RawFinding {
                rule: RNG_SOURCE,
                line: t.line,
                col: t.col,
                kind: t.text.clone(),
                tok: i,
                message: format!(
                    "{} is seeded from the OS; use the vendored seeded RNG",
                    t.text
                ),
            });
        }
        if t.is_ident("rand")
            && path_sep(toks, i)
            && toks.get(i + 3).is_some_and(|n| n.is_ident("random"))
        {
            out.push(RawFinding {
                rule: RNG_SOURCE,
                line: t.line,
                col: t.col,
                kind: "rand::random".to_owned(),
                tok: i,
                message: "rand::random is seeded from the OS; use the vendored \
                          seeded RNG"
                    .to_owned(),
            });
        }
    }

    scan_unsafe(path_rel, lexed, cfg, &mut out);
    scan_allow_attrs(lexed, cfg, &mut out);
    out
}

/// R11 — `unsafe` and `is_x86_feature_detected!` outside the sanctioned
/// kernel file, and any `unsafe` without a safety note (see
/// [`has_safety_note`]).
fn scan_unsafe(path_rel: &str, lexed: &Lexed, cfg: &LintConfig, out: &mut Vec<RawFinding>) {
    let sanctioned = cfg.is_unsafe_sanctioned(path_rel);
    for (i, t) in lexed.tokens.iter().enumerate() {
        let detect = t.is_ident("is_x86_feature_detected")
            && lexed.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let message = if !sanctioned && (t.is_ident("unsafe") || detect) {
            format!(
                "{} outside the SIMD kernel file: keep unsafe code and ISA \
                 detection in crates/nn/src/matmul/avx.rs behind safe wrappers",
                t.text
            )
        } else if t.is_ident("unsafe") && !has_safety_note(lexed, t.line) {
            "unsafe without a `// SAFETY:` comment (or, on an unsafe fn, a \
             `# Safety` doc section) directly above it: state why every \
             invariant it relies on holds"
                .to_owned()
        } else {
            continue;
        };
        out.push(RawFinding {
            rule: UNSAFE_SCOPE,
            line: t.line,
            col: t.col,
            kind: t.text.clone(),
            tok: i,
            message,
        });
    }
}

/// Runs the semantic rules (R8–R10) over one lexed + item-parsed file.
/// Chains for R8 are attached later by the engine, which owns the
/// workspace-wide call graph; this pass only locates the sites.
///
/// All three rules skip unit-test ranges: tests assert and unwrap by
/// design, and the determinism/robustness contracts only bind library
/// code.
pub fn scan_semantic(
    path_rel: &str,
    lexed: &Lexed,
    pf: &ParsedFile,
    cfg: &LintConfig,
) -> Vec<RawFinding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let panic_scope = cfg.is_panic_path_scoped(path_rel) && !pf.is_bin;
    let float_scope = !cfg.is_float_sanctioned(path_rel);
    let cast_scope = cfg.is_cast_scoped(path_rel);
    if !panic_scope && !float_scope && !cast_scope {
        return out;
    }
    // One `index` finding per line: `grid[x][y]` or `a[i] + b[i]` is one
    // site to fix, not two.
    let mut last_index_line = 0usize;

    for (i, t) in toks.iter().enumerate() {
        if pf.in_tests(i) {
            continue;
        }
        let prev_dot = i >= 1 && toks[i - 1].is_punct('.');

        // R8 — panic sites in library code.
        if panic_scope {
            if prev_dot
                && (t.is_ident("unwrap") || t.is_ident("expect"))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                out.push(RawFinding {
                    rule: PANIC_PATH,
                    line: t.line,
                    col: t.col,
                    kind: t.text.clone(),
                    tok: i,
                    message: format!(
                        ".{}() panics on the failure case; in library code \
                         return a typed error instead",
                        t.text
                    ),
                });
            }
            if !prev_dot
                && (t.is_ident("panic")
                    || t.is_ident("unreachable")
                    || t.is_ident("todo")
                    || t.is_ident("unimplemented"))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(RawFinding {
                    rule: PANIC_PATH,
                    line: t.line,
                    col: t.col,
                    kind: "panic".to_owned(),
                    tok: i,
                    message: format!(
                        "{}! aborts the thread; in library code return a \
                         typed error instead",
                        t.text
                    ),
                });
            }
            if (t.is_ident("assert") || t.is_ident("assert_eq") || t.is_ident("assert_ne"))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(RawFinding {
                    rule: PANIC_PATH,
                    line: t.line,
                    col: t.col,
                    kind: "assert".to_owned(),
                    tok: i,
                    message: format!(
                        "{}! in library code panics on violation; use \
                         debug_assert! for invariants or return a typed error \
                         for input validation",
                        t.text
                    ),
                });
            }
            // Slice/array indexing: `expr[...]` where the `[` follows a
            // value (ident, `)`, or `]`). Attribute brackets (`#[`),
            // macro brackets (`vec![`), and type/slice-pattern brackets
            // never follow a value token.
            if t.is_punct('[') && t.line != last_index_line && i >= 1 {
                let p = &toks[i - 1];
                let after_value = (p.kind == TokKind::Ident && !is_expr_keyword(&p.text))
                    || p.is_punct(')')
                    || p.is_punct(']');
                if after_value {
                    last_index_line = t.line;
                    out.push(RawFinding {
                        rule: PANIC_PATH,
                        line: t.line,
                        col: t.col,
                        kind: "index".to_owned(),
                        tok: i,
                        message: "slice indexing panics when out of bounds; \
                                  use .get()/.get_mut() or why-note the \
                                  proven bound"
                            .to_owned(),
                    });
                }
            }
        }

        // R9 — unpinned-order float accumulation.
        if float_scope && prev_dot {
            if t.is_ident("sum")
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_punct('<'))
                && toks
                    .get(i + 4)
                    .is_some_and(|n| n.is_ident("f32") || n.is_ident("f64"))
            {
                out.push(RawFinding {
                    rule: FLOAT_REDUCTION,
                    line: t.line,
                    col: t.col,
                    kind: "sum".to_owned(),
                    tok: i,
                    message: format!(
                        ".sum::<{}>() accumulates in iterator order, which the \
                         worker-invariance contract does not pin; route \
                         through mmp_pool's fixed-chunk reductions or why-note \
                         why this stays sequential",
                        toks[i + 4].text
                    ),
                });
            }
            // `fold` shows its init literal, so float evidence is
            // required; `reduce` closures show nothing, so any `+` in
            // the span fires (over-approximation by design).
            let is_fold = t.is_ident("fold");
            let is_reduce = t.is_ident("reduce");
            if (is_fold || is_reduce)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && span_accumulates(toks, i + 1, is_fold)
            {
                out.push(RawFinding {
                    rule: FLOAT_REDUCTION,
                    line: t.line,
                    col: t.col,
                    kind: t.text.clone(),
                    tok: i,
                    message: format!(
                        ".{}(..) with a float `+` accumulates in iterator \
                         order, which the worker-invariance contract does not \
                         pin; route through mmp_pool's fixed-chunk reductions \
                         or why-note why this stays sequential",
                        t.text
                    ),
                });
            }
        }

        // R10 — narrowing `as` casts in index/coordinate arithmetic.
        if cast_scope
            && t.is_ident("as")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && is_narrowing_cast_target(&n.text))
            // A literal cast (`7 as u32`) has its value in plain sight.
            && !(i >= 1 && toks[i - 1].kind == TokKind::Num)
        {
            let ty = &toks[i + 1].text;
            out.push(RawFinding {
                rule: CAST_TRUNCATION,
                line: t.line,
                col: t.col,
                kind: ty.clone(),
                tok: i,
                message: format!(
                    "`as {ty}` silently truncates/wraps out-of-range values; \
                     use try_from/a checked helper, or why-note the proven \
                     range (widening casts included: prove the source type)"
                ),
            });
        }
    }
    out
}

/// `true` when the balanced-paren span opening at `toks[open]` contains
/// a `+` — and, when `need_float_evidence`, also a float literal or an
/// `f32`/`f64` mention (the shape of `fold(0.0, |a, b| a + b)`; integer
/// folds with `+` are order-insensitive and deliberately not flagged).
fn span_accumulates(toks: &[Tok], open: usize, need_float_evidence: bool) -> bool {
    let mut depth = 0usize;
    let mut has_plus = false;
    let mut has_float = false;
    for t in &toks[open..] {
        match t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct('+') => has_plus = true,
            TokKind::Ident if t.text == "f32" || t.text == "f64" => has_float = true,
            TokKind::Num => {
                let s = &t.text;
                let float_literal = s.contains('.')
                    || s.ends_with("f32")
                    || s.ends_with("f64")
                    || (!s.starts_with("0x") && (s.contains('e') || s.contains('E')));
                if float_literal {
                    has_float = true;
                }
            }
            _ => {}
        }
    }
    has_plus && (has_float || !need_float_evidence)
}

/// Cast targets R10 treats as truncation-prone in coordinate/index math.
/// `u64`/`i64` are included even though most casts *to* them widen: the
/// rule cannot see the source type, and a why-note naming it is cheap.
fn is_narrowing_cast_target(ty: &str) -> bool {
    matches!(
        ty,
        "u8" | "u16" | "u32" | "u64" | "usize" | "i8" | "i16" | "i32" | "i64" | "isize" | "f32"
    )
}

/// Mutating entry points of `std::fs` (R7). Reads (`read`, `read_dir`,
/// `metadata`, `File::open`) are deliberately absent: only mutations
/// need the chokepoint, and reads through `Vfs` stay optional.
fn is_fs_mutation(name: &str) -> bool {
    matches!(
        name,
        "write"
            | "rename"
            | "remove_file"
            | "remove_dir"
            | "remove_dir_all"
            | "create_dir"
            | "create_dir_all"
            | "copy"
            | "hard_link"
            | "set_permissions"
    )
}

/// `toks[i+1..=i+2]` is `::`.
fn path_sep(toks: &[Tok], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
        && toks.get(i + 2).is_some_and(|b| b.is_punct(':'))
}

/// R5 — walks `#[allow(...)]` / `#![allow(...)]` attributes; any denied
/// lint inside needs a `why:` in an adjacent comment (trailing on the
/// attribute's line, or in the contiguous comment block directly above).
fn scan_allow_attrs(lexed: &Lexed, cfg: &LintConfig, out: &mut Vec<RawFinding>) {
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let attr_col = toks[i].col;
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        if !toks.get(j + 1).is_some_and(|t| t.is_ident("allow"))
            || !toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            i += 1;
            continue;
        }
        // Collect `::`-joined paths between the matching parentheses.
        let mut depth = 0usize;
        let mut k = j + 2;
        let mut paths: Vec<String> = Vec::new();
        let mut current = String::new();
        while let Some(t) = toks.get(k) {
            match t.kind {
                crate::lexer::TokKind::Punct('(') => depth += 1,
                crate::lexer::TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                crate::lexer::TokKind::Punct(':') => current.push(':'),
                crate::lexer::TokKind::Punct(',') if !current.is_empty() => {
                    paths.push(std::mem::take(&mut current));
                }
                crate::lexer::TokKind::Ident => current.push_str(&t.text),
                _ => {}
            }
            k += 1;
        }
        if !current.is_empty() {
            paths.push(current);
        }
        for p in &paths {
            if cfg.denied_lints.iter().any(|d| d == p)
                && !has_adjacent_why(&lexed.comments, attr_line)
            {
                out.push(RawFinding {
                    rule: ALLOW_WHY,
                    line: attr_line,
                    col: attr_col,
                    kind: p.clone(),
                    tok: i,
                    message: format!(
                        "#[allow({p})] relaxes a denied lint without a why: \
                         justification; add `// why: ...` on or directly \
                         above the attribute"
                    ),
                });
            }
        }
        i = k.max(i + 1);
    }
}

/// A `// SAFETY:` comment or a `# Safety` doc section on `line`, or in
/// the run of comment and attribute lines directly above it (so an
/// `unsafe fn`'s doc may sit above its `#[target_feature]`).
fn has_safety_note(lexed: &Lexed, line: usize) -> bool {
    let note = |l: usize| {
        lexed
            .comments
            .iter()
            .any(|c| c.line == l && (c.text.contains("SAFETY:") || c.text.contains("# Safety")))
    };
    let skippable = |l: usize| {
        lexed.comments.iter().any(|c| c.line == l)
            || lexed
                .tokens
                .iter()
                .find(|t| t.line == l)
                .is_some_and(|t| t.is_punct('#'))
    };
    let mut l = line;
    loop {
        if note(l) {
            return true;
        }
        if l <= 1 || !skippable(l - 1) {
            return false;
        }
        l -= 1;
    }
}

/// A comment containing `why:` on `attr_line`, or in the contiguous run
/// of comment-bearing lines immediately above it.
fn has_adjacent_why(comments: &[Comment], attr_line: usize) -> bool {
    let has = |line: usize| comments.iter().any(|c| c.line == line);
    let why = |line: usize| {
        comments
            .iter()
            .any(|c| c.line == line && c.text.contains("why:"))
    };
    if why(attr_line) {
        return true;
    }
    let mut line = attr_line;
    while line > 1 && has(line - 1) {
        line -= 1;
        if why(line) {
            return true;
        }
    }
    false
}
