//! `mmp-perfbench`: the repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload place-ref --seed 1 --seconds 25 --trace 0
//! bash perfbench/run.sh --workload all --seed 1 --seconds 25 --trace 0
//! mmp-perfbench spec > BENCHMARK.json
//! ```
//!
//! Workloads: `place-ref`, `place-large` (one process calling
//! `MacroPlacer::place` back to back) and `serve-mix` (a real `mmpd` driven
//! over loopback TCP by a seeded open-loop load generator); `BENCHMARK.json`
//! holds the first two (see [`report::SERVE_MIX`] for why). With
//! `--trace 0` a run prints every end-to-end metric; with `--trace 1` it
//! prints every per-layer metric, timed from outside the library. The last
//! line of standard output is the result JSON; the line before it records
//! the run's provenance. A failed output check makes the run exit 1, an
//! invalid run (say, the load generator fell behind its schedule) exits 3
//! without a result, a usage error exits 2.

mod layers;
mod place;
mod report;
mod schedule;
mod serve;
mod stats;
mod sys;

use report::{Metrics, RunResult, DAEMON_LAYERS, END_TO_END, PER_LAYER, SERVE_MIX, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// The workload's parameters, for the provenance record.
    pub params: Vec<(&'static str, String)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mmpd: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: report::RUN_SECONDS,
        trace: false,
        mmpd: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag}: {v}"));
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = number(&value)?,
            "--seconds" => out.seconds = number(&value)?.max(1),
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace: {value}")),
                }
            }
            "--mmpd" => out.mmpd = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload_names().contains(&out.workload.as_str()) && out.workload != "all" {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// The contract workloads, then `serve-mix`.
fn workload_names() -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain([SERVE_MIX])
        .collect()
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds as f64;
    let mmpd = || {
        args.mmpd
            .as_deref()
            .ok_or("needs --mmpd PATH (run through perfbench/run.sh)")
    };
    let mut outcome = match name {
        "place-ref" => place::run(&place::PLACE_REF, seconds, args.trace),
        "place-large" => place::run(&place::PLACE_LARGE, seconds, args.trace),
        "serve-mix" => return serve::run(mmpd()?, args.seed, seconds, args.trace),
        _ => return Err(format!("unknown workload {name}")),
    };
    if args.trace {
        // The daemon layers are measured once, in place-large's traced run,
        // on the serve-mix load; place-ref does not run them.
        let daemon = if name == "place-large" {
            Some(serve::run(mmpd()?, args.seed, seconds, true)?)
        } else {
            None
        };
        for spec in PER_LAYER
            .iter()
            .filter(|s| DAEMON_LAYERS.iter().any(|p| s.name.starts_with(p)))
        {
            let value = daemon.as_ref().and_then(|d| d.metrics.get(spec.name));
            outcome.metrics.set(spec.name, value.unwrap_or(0.0));
        }
        if let Some(d) = daemon {
            outcome.attempted += d.attempted;
            outcome.failed += d.failed;
            outcome.violations.extend(d.violations);
        }
    }
    Ok(outcome)
}

/// Runs one workload and prints its table, provenance and result lines.
/// On failure returns the exit code: 1 when an output check failed, 3 when
/// the run was invalid.
fn report_workload(name: &str, args: &Args) -> Result<RunResult, u8> {
    let outcome = run_workload(name, args).map_err(|e| {
        eprintln!("{name}: run invalid: {e}");
        3
    })?;
    for v in &outcome.violations {
        eprintln!("{name}: output check failed: {v}");
    }
    let specs: &[report::MetricSpec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = RunResult::build(
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        specs,
        &outcome.metrics,
    )
    .map_err(|e| {
        eprintln!("{name}: no result: {e}");
        if outcome.violations.is_empty() {
            3
        } else {
            1
        }
    })?;
    for (k, m) in &result.metrics {
        eprintln!("{name:>12}  {k:<32} {:>16.6} {}", m.value, m.unit);
    }
    println!(
        "{}",
        sys::provenance(name, args.seed, args.seconds, &outcome.params)
    );
    Ok(result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spec") {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmp-perfbench: {e}");
            eprintln!(
                "usage: mmp-perfbench --workload <place-ref|place-large|serve-mix|all> \
                 [--seed N] [--seconds N] [--trace 0|1] [--mmpd PATH]\n       \
                 mmp-perfbench spec"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload != "all" {
        return match report_workload(&args.workload, &args) {
            Err(code) => ExitCode::from(code),
            Ok(r) => finish(&r),
        };
    }
    // All workloads in one process: one combined result whose metric names
    // carry the workload as a prefix.
    let mut combined = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Default::default(),
    };
    for name in workload_names() {
        let r = match report_workload(name, &args) {
            Ok(r) => r,
            Err(code) => return ExitCode::from(code),
        };
        combined.correct &= r.correct;
        combined.attempted += r.attempted;
        combined.failed += r.failed;
        for (k, v) in r.metrics {
            combined.metrics.insert(format!("{name}.{k}"), v);
        }
    }
    finish(&combined)
}

/// Prints the result line, after checking that it parses back to the
/// same result, and maps correctness to the exit code.
fn finish(r: &RunResult) -> ExitCode {
    let line = r.to_json();
    if RunResult::parse(&line).as_ref() != Ok(r) {
        eprintln!("mmp-perfbench: result line does not round-trip: {line}");
        return ExitCode::from(3);
    }
    println!("{line}");
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
