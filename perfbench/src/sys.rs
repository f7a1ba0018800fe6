//! Process accounting from `/proc` and the provenance of a run.

use crate::report::render;
use serde::Value;
use std::process::Command;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of process `pid` (`"self"` for this one),
/// including threads that have already exited.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of stat(5); `rest` starts at 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One JSON object describing where and on what a run was taken: core
/// counts, toolchain, revision, seed and the workload's parameters.
pub fn provenance(workload: &str, seed: u64, seconds: u64, params: &[(&str, String)]) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let fields = vec![
        ("workload", Value::Str(workload.to_owned())),
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("nproc", Value::Str(command_line("nproc", &[]))),
        ("available_parallelism", Value::U64(parallelism as u64)),
        (
            "git_revision",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "params",
            Value::Map(
                params
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
    ];
    render(&Value::Map(vec![(
        "provenance".to_owned(),
        Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()),
    )]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_accounting_is_readable() {
        assert!(cpu_s("self").is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib("self").is_some_and(|m| m > 0.0));
    }
}
