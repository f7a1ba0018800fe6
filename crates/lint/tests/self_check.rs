//! The workspace must lint clean against its own conventions:
//!
//! * R1–R7 and R11 (token rules) — every finding fixed or suppressed
//!   with a `why:` justification, as before; `unsafe` code exists only
//!   in the SIMD kernel file, each block under a `// SAFETY:` comment.
//! * R8–R10 (semantic rules) — zero findings *newer than the committed
//!   `lint.baseline.json`*: pre-existing sites are grandfathered and
//!   ratchet down, anything fresh fails. This is the same gate CI runs
//!   via `cargo run -p mmp-lint -- check --deny-new`.

use mmp_lint::{
    baseline, lint_source, lint_workspace, render_text, LintConfig, CAST_TRUNCATION,
    FLOAT_REDUCTION, PANIC_PATH, UNSAFE_SCOPE,
};
use std::path::Path;

const SEMANTIC: &[&str] = &[PANIC_PATH, FLOAT_REDUCTION, CAST_TRUNCATION];

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_baseline() -> baseline::Baseline {
    let src = std::fs::read_to_string(workspace_root().join("lint.baseline.json"))
        .expect("lint.baseline.json is committed at the workspace root");
    baseline::parse(&src).expect("committed baseline parses")
}

#[test]
fn token_rules_have_zero_unsuppressed_findings() {
    let findings =
        lint_workspace(&workspace_root(), &LintConfig::default()).expect("workspace walk succeeds");
    let live: Vec<_> = findings
        .iter()
        .filter(|f| !f.suppressed && !SEMANTIC.contains(&f.rule.as_str()))
        .cloned()
        .collect();
    assert!(
        live.is_empty(),
        "unsuppressed R1-R7 lint findings in the workspace:\n{}",
        render_text(&live, true)
    );
    // The walk must actually have covered the tree — a silent empty walk
    // would make this test vacuous.
    assert!(
        findings.iter().any(|f| f.suppressed && f.why.is_some()),
        "expected the workspace's justified suppressions to be reported"
    );
}

#[test]
fn unsafe_code_lives_only_in_the_kernel_file_with_safety_comments() {
    let cfg = LintConfig::default();
    let findings = lint_workspace(&workspace_root(), &cfg).expect("workspace walk succeeds");
    let live: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == UNSAFE_SCOPE)
        .cloned()
        .collect();
    assert!(
        live.is_empty(),
        "unsafe-scope findings in the workspace:\n{}",
        render_text(&live, true)
    );
    // Not vacuous: unsanctioning the kernel file makes its unsafe fire.
    let strict = LintConfig {
        unsafe_sanctioned: Vec::new(),
        ..LintConfig::default()
    };
    let findings = lint_workspace(&workspace_root(), &strict).expect("workspace walk succeeds");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == UNSAFE_SCOPE && f.path == cfg.unsafe_sanctioned[0]),
        "expected the kernel file to hold unsafe code"
    );
}

#[test]
fn workspace_has_zero_findings_newer_than_the_baseline() {
    let mut findings =
        lint_workspace(&workspace_root(), &LintConfig::default()).expect("workspace walk succeeds");
    baseline::mark(&mut findings, &committed_baseline());
    let new: Vec<_> = findings
        .iter()
        .filter(|f| !f.suppressed && !f.baselined)
        .cloned()
        .collect();
    assert!(
        new.is_empty(),
        "findings not covered by lint.baseline.json (fix them, why-note \
         them, or — only when a PR deliberately introduces a rule — \
         regenerate with `mmp-lint check --update-baseline`):\n{}",
        render_text(&new, true)
    );
}

#[test]
fn the_baseline_is_not_inflated() {
    // Every baseline slot must be consumed by a real finding: a stale
    // entry for fixed code would let a regression of the same key slip
    // back in unnoticed.
    let findings =
        lint_workspace(&workspace_root(), &LintConfig::default()).expect("workspace walk succeeds");
    let current = baseline::compute(&findings);
    let committed = committed_baseline();
    let stale: Vec<String> = committed
        .entries
        .iter()
        .filter(|(key, committed_n)| {
            current.entries.get(*key).copied().unwrap_or(0) < **committed_n
        })
        .map(|((rule, path, item, kind), n)| format!("{rule} {path} {item} {kind} x{n}"))
        .collect();
    assert!(
        stale.is_empty(),
        "lint.baseline.json grandfathers more findings than exist — \
         regenerate with `mmp-lint check --update-baseline`:\n{}",
        stale.join("\n")
    );
}

#[test]
fn injected_violations_are_new_against_the_committed_baseline() {
    // Acceptance check for the ratchet: a fresh unwrap in crates/serve
    // and a fresh .sum::<f64>() in crates/analytic must come out as NEW
    // even with the committed baseline applied.
    let base = committed_baseline();

    let unwrap_src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let mut serve = lint_source(
        "crates/serve/src/injected.rs",
        unwrap_src,
        &LintConfig::default(),
    );
    baseline::mark(&mut serve, &base);
    assert!(
        serve
            .iter()
            .any(|f| f.rule == PANIC_PATH && !f.suppressed && !f.baselined),
        "injected unwrap in crates/serve not reported as new"
    );

    let sum_src = "pub fn total(v: &[f64]) -> f64 {\n    v.iter().sum::<f64>()\n}\n";
    let mut analytic = lint_source(
        "crates/analytic/src/injected.rs",
        sum_src,
        &LintConfig::default(),
    );
    baseline::mark(&mut analytic, &base);
    assert!(
        analytic
            .iter()
            .any(|f| f.rule == FLOAT_REDUCTION && !f.suppressed && !f.baselined),
        "injected .sum::<f64>() in crates/analytic not reported as new"
    );
}

#[test]
fn introducing_a_violation_is_caught() {
    // Acceptance check for the gate itself: the same engine that passes the
    // real tree flags a freshly introduced violation in a decision crate.
    let bad = "fn order(groups: &HashMap<u32, f64>) -> Vec<u32> {\n    let mut ids: Vec<u32> = groups.keys().copied().collect();\n    ids.sort_by(|a, b| groups[a].partial_cmp(&groups[b]).unwrap());\n    ids\n}\n";
    let findings = lint_source("crates/mcts/src/injected.rs", bad, &LintConfig::default());
    let live: Vec<_> = findings.iter().filter(|f| !f.suppressed).collect();
    assert!(
        live.iter().any(|f| f.rule == "hash-order"),
        "injected HashMap not flagged"
    );
    assert!(
        live.iter().any(|f| f.rule == "partial-cmp"),
        "injected partial_cmp not flagged"
    );
    // The same snippet also trips the semantic layer: unwrap and
    // indexing are panic sites in a library crate.
    assert!(
        live.iter()
            .any(|f| f.rule == PANIC_PATH && f.kind == "unwrap"),
        "injected unwrap not flagged as a panic site"
    );
    assert!(
        live.iter()
            .any(|f| f.rule == PANIC_PATH && f.kind == "index"),
        "injected indexing not flagged as a panic site"
    );
}
