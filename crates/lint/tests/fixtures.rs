//! Fixture tests: for every rule R1–R11, one snippet that fires, one
//! that is clean, and one that is suppressed with a `why:` justification
//! (plus, for the semantic rules, baseline-grandfathering coverage).

use mmp_lint::{
    baseline, lint_source, Finding, LintConfig, ALLOW_WHY, CAST_TRUNCATION, FLOAT_REDUCTION,
    FS_ROUTE, HASH_ORDER, PANIC_PATH, PARALLELISM, PARTIAL_CMP, RNG_SOURCE, UNSAFE_SCOPE,
    WALLCLOCK,
};

const DECISION: &str = "crates/mcts/src/fixture.rs";
const NON_DECISION: &str = "crates/geom/src/fixture.rs";

/// The rules that arrived with the item-graph engine; the R1–R7 helpers
/// below filter them out so a `.unwrap()` inside an R7 fixture doesn't
/// perturb that fixture's expected findings.
const SEMANTIC: &[&str] = &[PANIC_PATH, FLOAT_REDUCTION, CAST_TRUNCATION];

fn unsuppressed(path: &str, src: &str) -> Vec<(String, usize)> {
    lint_source(path, src, &LintConfig::default())
        .into_iter()
        .filter(|f| !f.suppressed && !SEMANTIC.contains(&f.rule.as_str()))
        .map(|f| (f.rule, f.line))
        .collect()
}

fn suppressed(path: &str, src: &str) -> Vec<(String, String)> {
    lint_source(path, src, &LintConfig::default())
        .into_iter()
        .filter(|f| f.suppressed && !SEMANTIC.contains(&f.rule.as_str()))
        .map(|f| (f.rule, f.why.unwrap_or_default()))
        .collect()
}

/// All findings of one semantic rule, suppressed or not.
fn rule_findings(path: &str, src: &str, rule: &str) -> Vec<Finding> {
    lint_source(path, src, &LintConfig::default())
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

/// `(kind, line)` of the unsuppressed findings of one semantic rule.
fn fired(path: &str, src: &str, rule: &str) -> Vec<(String, usize)> {
    rule_findings(path, src, rule)
        .into_iter()
        .filter(|f| !f.suppressed)
        .map(|f| (f.kind, f.line))
        .collect()
}

// --- R1: hash-order ------------------------------------------------------

#[test]
fn hash_order_fires_in_decision_crates() {
    let src = "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
    assert_eq!(unsuppressed(DECISION, src), vec![(HASH_ORDER.into(), 2)]);
    let set = "fn f() {\n    let s: HashSet<u32> = HashSet::new();\n}\n";
    assert_eq!(unsuppressed(DECISION, set), vec![(HASH_ORDER.into(), 2)]);
}

#[test]
fn hash_order_is_clean_for_btree_and_non_decision_crates() {
    let btree = "fn f() {\n    let m: BTreeMap<u32, u32> = BTreeMap::new();\n}\n";
    assert!(unsuppressed(DECISION, btree).is_empty());
    // The same HashMap is fine outside decision crates...
    let hash = "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
    assert!(unsuppressed(NON_DECISION, hash).is_empty());
    // ... and `use` declarations alone never fire.
    let use_only = "use std::collections::HashMap;\n";
    assert!(unsuppressed(DECISION, use_only).is_empty());
    // String literals and comments are not code.
    let quoted = "fn f() {\n    let s = \"HashMap\"; // HashMap in prose\n}\n";
    assert!(unsuppressed(DECISION, quoted).is_empty());
}

#[test]
fn hash_order_suppression_with_why_is_honoured() {
    let src = "fn f() {\n    // mmp-lint: allow(hash-order) why: lookup only, never iterated\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
    assert!(unsuppressed(DECISION, src).is_empty());
    assert_eq!(
        suppressed(DECISION, src),
        vec![(HASH_ORDER.into(), "lookup only, never iterated".into())]
    );
}

// --- R2: partial-cmp -----------------------------------------------------

#[test]
fn partial_cmp_fires_everywhere() {
    let src = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    assert_eq!(
        unsuppressed(NON_DECISION, src),
        vec![(PARTIAL_CMP.into(), 2)]
    );
}

#[test]
fn total_cmp_is_clean() {
    let src = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n";
    assert!(unsuppressed(NON_DECISION, src).is_empty());
}

#[test]
fn partial_cmp_suppression_with_why_is_honoured() {
    let src = "fn f(v: &mut [f64]) {\n    // mmp-lint: allow(partial-cmp) why: inputs are integers widened to f64, NaN impossible\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    assert!(unsuppressed(NON_DECISION, src).is_empty());
}

// --- R3: wallclock -------------------------------------------------------

#[test]
fn wallclock_fires_outside_sanctioned_modules() {
    let src =
        "fn f() {\n    let t = Instant::now();\n    let s = std::time::SystemTime::now();\n}\n";
    assert_eq!(
        unsuppressed(DECISION, src),
        vec![(WALLCLOCK.into(), 2), (WALLCLOCK.into(), 3)]
    );
}

#[test]
fn wallclock_is_clean_in_sanctioned_modules() {
    let src = "fn f() {\n    let t = Instant::now();\n}\n";
    assert!(unsuppressed("crates/obs/src/lib.rs", src).is_empty());
    assert!(unsuppressed("crates/core/src/budget.rs", src).is_empty());
    assert!(unsuppressed("crates/bench/src/bin/ablations.rs", src).is_empty());
    // `Instant` in a type position is fine anywhere.
    let ty = "fn f(deadline: Option<Instant>) -> bool {\n    deadline.is_some()\n}\n";
    assert!(unsuppressed(DECISION, ty).is_empty());
}

#[test]
fn wallclock_suppression_with_why_is_honoured() {
    let src = "fn f() {\n    // mmp-lint: allow(wallclock) why: budget-deadline probe, degrades deterministically\n    let t = Instant::now();\n}\n";
    assert!(unsuppressed(DECISION, src).is_empty());
}

// --- R4: rng-source ------------------------------------------------------

#[test]
fn rng_source_fires_on_os_seeded_randomness() {
    let src = "fn f() {\n    let mut rng = thread_rng();\n    let x: f64 = rand::random();\n    let s = RandomState::new();\n}\n";
    assert_eq!(
        unsuppressed(NON_DECISION, src),
        vec![
            (RNG_SOURCE.into(), 2),
            (RNG_SOURCE.into(), 3),
            (RNG_SOURCE.into(), 4)
        ]
    );
}

#[test]
fn seeded_rng_is_clean() {
    let src =
        "fn f() {\n    let mut rng = SmallRng::seed_from_u64(7);\n    let x: f64 = rng.gen();\n}\n";
    assert!(unsuppressed(NON_DECISION, src).is_empty());
}

#[test]
fn rng_source_suppression_with_why_is_honoured() {
    let src = "fn f() {\n    // mmp-lint: allow(rng-source) why: fixture exercising the OS entropy path itself\n    let mut rng = thread_rng();\n}\n";
    assert!(unsuppressed(NON_DECISION, src).is_empty());
}

// --- R5: allow-why -------------------------------------------------------

#[test]
fn allow_of_denied_lint_without_why_fires() {
    let src = "#[allow(clippy::unwrap_used)]\nfn f() {}\n";
    assert_eq!(unsuppressed(NON_DECISION, src), vec![(ALLOW_WHY.into(), 1)]);
    // Inner attributes are covered too.
    let inner = "#![allow(clippy::print_stdout)]\nfn f() {}\n";
    assert_eq!(
        unsuppressed(NON_DECISION, inner),
        vec![(ALLOW_WHY.into(), 1)]
    );
}

#[test]
fn allow_with_adjacent_why_is_clean() {
    // Trailing on the attribute line.
    let trailing = "#[allow(clippy::unwrap_used)] // why: invariant, not input\nfn f() {}\n";
    assert!(unsuppressed(NON_DECISION, trailing).is_empty());
    // In the contiguous comment block directly above.
    let above = "// why: invariant, not input: the slice is non-empty by construction\n#[allow(clippy::expect_used)]\nfn f() {}\n";
    assert!(unsuppressed(NON_DECISION, above).is_empty());
    // Allows of lints that are not denied need no justification.
    let benign = "#[allow(clippy::too_many_arguments)]\nfn f() {}\n";
    assert!(unsuppressed(NON_DECISION, benign).is_empty());
}

#[test]
fn allow_why_directive_is_self_satisfying() {
    // A directive targeting allow-why is self-defeating by design: its own
    // `why:` text sits adjacent to the attribute, which already satisfies
    // R5, so the rule never fires and the directive is flagged as unused.
    // The justification requirement is met either way — there is no path
    // to an unjustified denied-lint allow.
    let src = "// mmp-lint: allow(allow-why) why: justification lives in the module docs\n#[allow(clippy::unwrap_used)]\nfn f() {}\n";
    let rules = unsuppressed(NON_DECISION, src);
    assert_eq!(rules, vec![("suppression".into(), 1)]);
}

// --- suppression meta rule -----------------------------------------------

#[test]
fn malformed_and_unused_suppressions_are_findings() {
    let missing_why = "// mmp-lint: allow(hash-order)\nfn f() {}\n";
    assert_eq!(
        unsuppressed(NON_DECISION, missing_why),
        vec![("suppression".into(), 1)]
    );
    let unknown_rule = "// mmp-lint: allow(made-up) why: x\nfn f() {}\n";
    assert_eq!(
        unsuppressed(NON_DECISION, unknown_rule),
        vec![("suppression".into(), 1)]
    );
    let unused = "// mmp-lint: allow(wallclock) why: nothing here uses the clock\nfn f() {}\n";
    assert_eq!(
        unsuppressed(NON_DECISION, unused),
        vec![("suppression".into(), 1)]
    );
}

#[test]
fn suppressions_only_reach_their_own_and_next_line() {
    let too_far = "fn f() {\n    // mmp-lint: allow(wallclock) why: too far away\n\n    let t = Instant::now();\n}\n";
    let rules: Vec<_> = unsuppressed(DECISION, too_far);
    // The finding stays unsuppressed and the directive is flagged unused.
    assert!(rules.iter().any(|(r, _)| r == WALLCLOCK));
    assert!(rules.iter().any(|(r, _)| r == "suppression"));
}

// --- R6: parallelism -----------------------------------------------------

#[test]
fn available_parallelism_fires_outside_sanctioned_paths() {
    let src =
        "fn f() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
    assert_eq!(unsuppressed(DECISION, src), vec![(PARALLELISM.into(), 2)]);
    assert_eq!(
        unsuppressed(NON_DECISION, src),
        vec![(PARALLELISM.into(), 2)]
    );
}

#[test]
fn available_parallelism_is_clean_in_pool_and_bench() {
    let src =
        "fn f() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
    assert!(unsuppressed("crates/pool/src/lib.rs", src).is_empty());
    assert!(unsuppressed("crates/bench/src/bin/compute.rs", src).is_empty());
    // Prose mentions are not code.
    let quoted =
        "fn f() {\n    let s = \"available_parallelism\"; // available_parallelism in prose\n}\n";
    assert!(unsuppressed(DECISION, quoted).is_empty());
}

// --- R7: fs-route --------------------------------------------------------

const ROUTED: &str = "crates/ckpt/src/fixture.rs";

#[test]
fn fs_mutations_fire_in_routed_crates() {
    let src = "fn f(p: &Path) {\n    std::fs::write(p, b\"x\").unwrap();\n    fs::rename(p, p).unwrap();\n}\n";
    assert_eq!(
        unsuppressed(ROUTED, src),
        vec![(FS_ROUTE.into(), 2), (FS_ROUTE.into(), 3)]
    );
    // Writable handles opened around the chokepoint count too.
    let handle = "fn f(p: &Path) {\n    let _ = File::create(p);\n    let _ = OpenOptions::new().write(true).open(p);\n}\n";
    assert_eq!(
        unsuppressed("crates/serve/src/fixture.rs", handle),
        vec![(FS_ROUTE.into(), 2), (FS_ROUTE.into(), 3)]
    );
    // Importing a mutation helper is the same evasion as calling it.
    let import = "use std::fs::write;\n";
    assert_eq!(unsuppressed(ROUTED, import), vec![(FS_ROUTE.into(), 1)]);
}

#[test]
fn fs_reads_tests_and_unrouted_crates_are_clean() {
    // Reads never need the chokepoint.
    let reads =
        "fn f(p: &Path) -> Vec<u8> {\n    let _ = fs::metadata(p);\n    fs::read(p).unwrap()\n}\n";
    assert!(unsuppressed(ROUTED, reads).is_empty());
    // The same mutation is fine outside the routed crates...
    let write = "fn f(p: &Path) {\n    std::fs::write(p, b\"x\").unwrap();\n}\n";
    assert!(unsuppressed(NON_DECISION, write).is_empty());
    // ... and inside the trailing unit-test module, where tests tamper
    // with files on purpose to exercise recovery.
    let in_tests =
        "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(p: &Path) {\n        std::fs::write(p, b\"torn\").unwrap();\n    }\n}\n";
    assert!(unsuppressed(ROUTED, in_tests).is_empty());
}

#[test]
fn fs_route_suppression_with_why_is_honoured() {
    let src = "fn f(p: &Path) {\n    // mmp-lint: allow(fs-route) why: test-only tamper helper behind cfg(test)\n    std::fs::write(p, b\"x\").unwrap();\n}\n";
    assert!(unsuppressed(ROUTED, src).is_empty());
    assert_eq!(
        suppressed(ROUTED, src),
        vec![(
            FS_ROUTE.into(),
            "test-only tamper helper behind cfg(test)".into()
        )]
    );
}

#[test]
fn parallelism_suppression_with_why_is_honoured() {
    let src = "fn f() -> usize {\n    // mmp-lint: allow(parallelism) why: report-only, never partitions work\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
    assert!(unsuppressed(DECISION, src).is_empty());
    assert_eq!(
        suppressed(DECISION, src),
        vec![(
            PARALLELISM.into(),
            "report-only, never partitions work".into()
        )]
    );
}

// --- R8: panic-path ------------------------------------------------------

const SERVE: &str = "crates/serve/src/fixture.rs";

#[test]
fn panic_sites_fire_with_their_kinds() {
    let src = "fn f(v: &[u32], o: Option<u32>) -> u32 {\n\
               \x20   let a = o.unwrap();\n\
               \x20   let b = o.expect(\"set\");\n\
               \x20   assert!(a < 10);\n\
               \x20   if a > b { panic!(\"bad\") }\n\
               \x20   v[0]\n\
               }\n";
    assert_eq!(
        fired(SERVE, src, PANIC_PATH),
        vec![
            ("unwrap".into(), 2),
            ("expect".into(), 3),
            ("assert".into(), 4),
            ("panic".into(), 5),
            ("index".into(), 6),
        ]
    );
}

#[test]
fn panic_path_skips_tests_bins_and_unscoped_code() {
    let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    // Binary roots may panic: a CLI's broken invariant should abort.
    assert!(fired("crates/serve/src/bin/mmpd.rs", src, PANIC_PATH).is_empty());
    assert!(fired("crates/serve/src/main.rs", src, PANIC_PATH).is_empty());
    // Crates outside the library scope (the lint tool itself, bench).
    assert!(fired("crates/bench/src/report.rs", src, PANIC_PATH).is_empty());
    // Unit tests unwrap by design.
    let in_tests = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(o: Option<u32>) {\n        o.unwrap();\n        assert_eq!(1, 1);\n    }\n}\n";
    assert!(fired(SERVE, in_tests, PANIC_PATH).is_empty());
    // debug_assert! is compiled out of release builds; attribute and
    // macro brackets are not slice indexing; unwrap_or is total.
    let clean = "fn f(v: &[u32], o: Option<u32>) -> u32 {\n\
                 \x20   debug_assert!(!v.is_empty());\n\
                 \x20   let x = vec![1, 2];\n\
                 \x20   o.unwrap_or(0) + v.first().copied().unwrap_or_default() + x.len() as u32\n\
                 }\n#[derive(Clone)]\nstruct S;\n";
    assert!(fired(SERVE, clean, PANIC_PATH).is_empty());
}

#[test]
fn panic_path_reports_the_chain_from_daemon_serve() {
    // A pre-sweep shape of the daemon: serve -> handle_request -> a
    // helper that unwraps a malformed-input Option. The chain names
    // every hop so the report is actionable without opening the file.
    let src = "impl Daemon {\n\
               \x20   pub fn serve(&self) {\n\
               \x20       self.handle_request();\n\
               \x20   }\n\
               \x20   fn handle_request(&self) {\n\
               \x20       decode_header(b\"x\");\n\
               \x20   }\n\
               }\n\
               fn decode_header(b: &[u8]) -> u8 {\n\
               \x20   let first = b.first().copied();\n\
               \x20   first.unwrap()\n\
               }\n";
    let hits = rule_findings(SERVE, src, PANIC_PATH);
    let unwrap_site = hits
        .iter()
        .find(|f| f.kind == "unwrap")
        .expect("unwrap site found");
    assert_eq!(
        unwrap_site.call_chain,
        vec![
            "mmp_serve::fixture::Daemon::serve",
            "mmp_serve::fixture::Daemon::handle_request",
            "mmp_serve::fixture::decode_header",
        ],
        "shortest chain from the entrypoint, entrypoint first"
    );
    assert_eq!(unwrap_site.item, "mmp_serve::fixture::decode_header");
}

#[test]
fn unreachable_panic_sites_have_empty_chains() {
    let src = "fn helper(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let hits = rule_findings(SERVE, src, PANIC_PATH);
    assert_eq!(hits.len(), 1);
    assert!(hits[0].call_chain.is_empty());
}

#[test]
fn panic_path_suppression_with_why_is_honoured() {
    let src = "fn f(v: &[u32]) -> u32 {\n    // mmp-lint: allow(panic-path) why: index bounded by the loop above\n    v[0]\n}\n";
    assert!(fired(SERVE, src, PANIC_PATH).is_empty());
    let hits = rule_findings(SERVE, src, PANIC_PATH);
    assert_eq!(hits.len(), 1);
    assert!(hits[0].suppressed);
}

// --- R9: float-reduction -------------------------------------------------

#[test]
fn float_reductions_fire() {
    let src = "fn f(v: &[f64], w: &[f32]) -> f64 {\n\
               \x20   let a: f64 = v.iter().sum::<f64>();\n\
               \x20   let b = w.iter().copied().sum::<f32>();\n\
               \x20   let c = v.iter().fold(0.0, |acc, x| acc + x);\n\
               \x20   let d = v.iter().copied().reduce(|acc, x| acc + x);\n\
               \x20   a + f64::from(b) + c + d.unwrap_or(0.0)\n\
               }\n";
    assert_eq!(
        fired(DECISION, src, FLOAT_REDUCTION),
        vec![
            ("sum".into(), 2),
            ("sum".into(), 3),
            ("fold".into(), 4),
            ("reduce".into(), 5),
        ]
    );
}

#[test]
fn integer_and_order_insensitive_reductions_are_clean() {
    let src = "fn f(v: &[u64]) -> u64 {\n\
               \x20   let a: u64 = v.iter().sum::<u64>();\n\
               \x20   let b = v.iter().fold(0u64, |acc, x| acc + x);\n\
               \x20   let m = v.iter().fold(0u64, |acc, x| acc.max(*x));\n\
               \x20   a + b + m\n\
               }\n";
    assert!(fired(DECISION, src, FLOAT_REDUCTION).is_empty());
}

#[test]
fn pool_and_tests_are_sanctioned_for_float_reduction() {
    let src = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
    // The pool implements the fixed-chunk reductions themselves.
    assert!(fired("crates/pool/src/lib.rs", src, FLOAT_REDUCTION).is_empty());
    let in_tests = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(v: &[f64]) -> f64 {\n        v.iter().sum::<f64>()\n    }\n}\n";
    assert!(fired(DECISION, in_tests, FLOAT_REDUCTION).is_empty());
}

#[test]
fn float_reduction_suppression_with_why_is_honoured() {
    let src = "fn f(v: &[f64]) -> f64 {\n    // mmp-lint: allow(float-reduction) why: sequential by contract, feeds the solver\n    v.iter().sum::<f64>()\n}\n";
    assert!(fired(DECISION, src, FLOAT_REDUCTION).is_empty());
    let hits = rule_findings(DECISION, src, FLOAT_REDUCTION);
    assert_eq!(hits.len(), 1);
    assert!(hits[0].suppressed);
}

// --- R10: cast-truncation ------------------------------------------------

#[test]
fn narrowing_casts_fire_in_scoped_crates() {
    let src = "fn f(x: usize, y: f64) -> u32 {\n\
               \x20   let a = x as u32;\n\
               \x20   let b = y as usize;\n\
               \x20   a + b as u32\n\
               }\n";
    assert_eq!(
        fired(NON_DECISION, src, CAST_TRUNCATION),
        vec![("u32".into(), 2), ("usize".into(), 3), ("u32".into(), 4),]
    );
    assert!(!fired("crates/netlist/src/fixture.rs", src, CAST_TRUNCATION).is_empty());
    assert!(!fired("crates/legal/src/fixture.rs", src, CAST_TRUNCATION).is_empty());
}

#[test]
fn benign_casts_and_unscoped_crates_are_clean() {
    // Widening to f64 never truncates an index; literal casts show
    // their value; unscoped crates are not the rule's business.
    let src = "fn f(x: u32) -> f64 {\n    let k = 7 as u32;\n    f64::from(x) + x as f64 + f64::from(k)\n}\n";
    assert!(fired(NON_DECISION, src, CAST_TRUNCATION).is_empty());
    let narrowing = "fn f(x: usize) -> u32 { x as u32 }\n";
    assert!(fired(DECISION, narrowing, CAST_TRUNCATION).is_empty());
}

#[test]
fn cast_truncation_suppression_with_why_is_honoured() {
    let src = "fn f(x: usize) -> u32 {\n    // mmp-lint: allow(cast-truncation) why: grid dims are u16-bounded at parse\n    x as u32\n}\n";
    assert!(fired(NON_DECISION, src, CAST_TRUNCATION).is_empty());
    let hits = rule_findings(NON_DECISION, src, CAST_TRUNCATION);
    assert_eq!(hits.len(), 1);
    assert!(hits[0].suppressed);
}

// --- baseline grandfathering over real findings --------------------------

// --- R11: unsafe-scope ---------------------------------------------------

const KERNEL: &str = "crates/nn/src/matmul/avx.rs";

#[test]
fn unsafe_scope_fires_outside_the_kernel_file_and_without_safety() {
    // Anywhere else, `unsafe` and ISA detection fire — SAFETY comment or not.
    let src = "fn f(p: *const f32) -> f32 {\n    // SAFETY: p is valid\n    unsafe { *p }\n}\n\
               fn g() -> bool {\n    is_x86_feature_detected!(\"avx\")\n}\n";
    assert_eq!(
        unsuppressed("crates/nn/src/matmul.rs", src),
        vec![(UNSAFE_SCOPE.into(), 3), (UNSAFE_SCOPE.into(), 6)]
    );
    // In the kernel file, an `unsafe` needs a SAFETY comment above it.
    let bare = "fn f(p: *const f32) -> f32 {\n    // reads p\n    unsafe { *p }\n}\n";
    assert_eq!(unsuppressed(KERNEL, bare), vec![(UNSAFE_SCOPE.into(), 3)]);
}

#[test]
fn unsafe_scope_is_clean_for_justified_kernel_code() {
    let src = "fn f(p: *const f32) -> f32 {\n    // SAFETY: the caller checked p's bounds;\n    // the load is in range.\n    unsafe { *p }\n}\n\
               fn g() -> bool {\n    is_x86_feature_detected!(\"avx\")\n}\n";
    assert!(unsuppressed(KERNEL, src).is_empty());
    // An unsafe fn documents its contract in a `# Safety` section, which
    // may sit above its attributes.
    let decl = "/// Reads p.\n///\n/// # Safety\n///\n/// p must be valid.\n#[inline]\nunsafe fn f(p: *const f32) -> f32 {\n    // SAFETY: the caller keeps p valid.\n    unsafe { *p }\n}\n";
    assert!(unsuppressed(KERNEL, decl).is_empty());
    // Prose and identifiers that merely contain the word are not code.
    let prose =
        "// unsafe in a comment\nfn f() {\n    let s = \"unsafe\";\n    let unsafe_code = 1;\n}\n";
    assert!(unsuppressed("crates/core/src/fixture.rs", prose).is_empty());
}

#[test]
fn unsafe_scope_suppression_with_why_is_honoured() {
    let src = "fn f(p: *const f32) -> f32 {\n    // mmp-lint: allow(unsafe-scope) why: FFI shim audited separately\n    unsafe { *p }\n}\n";
    assert!(unsuppressed("crates/core/src/fixture.rs", src).is_empty());
    assert_eq!(
        suppressed("crates/core/src/fixture.rs", src),
        vec![(
            UNSAFE_SCOPE.into(),
            "FFI shim audited separately".to_owned()
        )]
    );
}

#[test]
fn baseline_grandfathers_old_sites_but_not_new_ones() {
    let old = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let base = baseline::compute(&lint_source(SERVE, old, &LintConfig::default()));

    // Same file later: the old site moved (different line) and a second
    // unwrap appeared in another fn. Only the second is new.
    let grown = "\nfn f(o: Option<u32>) -> u32 { o.unwrap() }\n\
                 fn g(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let mut findings = lint_source(SERVE, grown, &LintConfig::default());
    baseline::mark(&mut findings, &base);
    let news: Vec<_> = findings
        .iter()
        .filter(|f| !f.suppressed && !f.baselined)
        .collect();
    assert_eq!(news.len(), 1);
    assert_eq!(news[0].item, "mmp_serve::fixture::g");

    // Fixing the extra site makes --deny-new clean again even though
    // the surviving site sits on a different line than when baselined.
    let mut shrunk = lint_source(
        SERVE,
        "\n\nfn f(o: Option<u32>) -> u32 { o.unwrap() }\n",
        &LintConfig::default(),
    );
    baseline::mark(&mut shrunk, &base);
    assert!(shrunk.iter().all(|f| f.suppressed || f.baselined));
}
