//! End-to-end CLI checks for `mmp place --checkpoint-dir DIR [--resume]`:
//! the stage ladder persists across processes, resumes are reported, and
//! malformed flag combinations are usage errors (exit code 2).

use mmp_core::RunReport;
use std::path::PathBuf;
use std::process::Command;

fn mmp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mmp"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmp_cli_ckpt_{}_{name}", std::process::id()))
}

fn generate(path: &PathBuf) {
    let out = mmp()
        .args(["generate", "--spec", "5,0,8,40,70", "--seed", "3", "--out"])
        .arg(path)
        .output()
        .expect("spawn mmp generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn place(design: &PathBuf, extra: &dyn Fn(&mut Command)) -> std::process::Output {
    let mut cmd = mmp();
    cmd.args([
        "place",
        "--zeta",
        "4",
        "--episodes",
        "3",
        "--explorations",
        "4",
    ])
    .arg("--in")
    .arg(design);
    extra(&mut cmd);
    cmd.output().expect("spawn mmp place")
}

#[test]
fn checkpointed_place_then_resume_skips_completed_stages() {
    let design = tmp("resume.bks");
    let dir = tmp("resume.ckpt.d");
    let report = tmp("resume.report.json");
    let _ = std::fs::remove_dir_all(&dir);
    generate(&design);

    // First process: runs to completion, leaving done-markers behind.
    let first = place(&design, &|c| {
        c.arg("--checkpoint-dir").arg(&dir);
    });
    assert!(
        first.status.success(),
        "checkpointed place failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(dir.join("train-done.ckpt").exists());
    assert!(dir.join("search-done.ckpt").exists());
    let first_stdout = String::from_utf8_lossy(&first.stdout).to_string();
    assert!(!first_stdout.contains("resumed from checkpoint"));

    // Second process: resumes past both stages and says so.
    let second = place(&design, &|c| {
        c.arg("--checkpoint-dir").arg(&dir).arg("--resume");
        c.arg("--report-json").arg(&report);
    });
    assert!(
        second.status.success(),
        "resumed place failed: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(
        stdout.contains("resumed from checkpoint: train-done, search-done"),
        "stdout: {stdout}"
    );

    // Both processes print the same final HPWL value (timings differ, so
    // compare only up to the first comma of the `HPWL = …` line).
    let hpwl = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("HPWL = "))
            .and_then(|l| l.split(',').next())
            .map(str::to_owned)
            .expect("HPWL line")
    };
    assert_eq!(hpwl(&stdout), hpwl(&first_stdout));

    // The resume is recorded in the machine-readable run report.
    let parsed = RunReport::from_json(&std::fs::read_to_string(&report).expect("report file"))
        .expect("report parses");
    assert!(parsed.checkpoint.enabled);
    assert_eq!(parsed.checkpoint.resumes, vec!["train-done", "search-done"]);
    assert_eq!(parsed.checkpoint.writes, 0);

    std::fs::remove_file(&design).ok();
    std::fs::remove_file(&report).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_a_checkpoint_dir_is_a_usage_error() {
    let design = tmp("orphan_resume.bks");
    generate(&design);
    let out = place(&design, &|c| {
        c.arg("--resume");
    });
    assert_eq!(out.status.code(), Some(2), "expected usage exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume needs --checkpoint-dir"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(&design).ok();
}

#[test]
fn bare_checkpoint_dir_flag_is_a_usage_error() {
    let design = tmp("bare_ckpt.bks");
    generate(&design);
    // `--checkpoint-dir` immediately followed by another flag parses as a
    // bare toggle, which the CLI rejects (it wants a directory path).
    let out = place(&design, &|c| {
        c.args(["--checkpoint-dir", "--seed", "5"]);
    });
    assert_eq!(out.status.code(), Some(2), "expected usage exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--checkpoint-dir wants a directory path"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(&design).ok();
}

#[test]
fn zero_zeta_is_a_usage_error() {
    let design = tmp("zeta0.bks");
    generate(&design);
    let out = place(&design, &|c| {
        c.args(["--zeta", "0"]);
    });
    assert_eq!(out.status.code(), Some(2), "expected usage exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--zeta must be at least 1"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(&design).ok();
}
