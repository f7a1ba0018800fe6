//! `serve-mix`: a real `mmpd --workers 2` process driven over loopback TCP
//! by a seeded open loop. One connection submits on schedule; another
//! polls `result` for every outstanding job.
//!
//! `job_p50_s`/`job_p90_s` time each job from its scheduled send to the
//! completion the poller observes; `place_s` is the median service time
//! the daemon reports (`report.timings.total_ms`), `place_cpu_s` the
//! daemon's CPU seconds per completed job, `hpwl` the geometric mean HPWL
//! of every shipped placement, `goodput_jobs_s` the jobs done within
//! [`LIMIT_S`] per second of schedule, and `setup_s` the median of three
//! set-ups (spawn, ready on `status`, hot-set warm-up).
//!
//! Jobs are small and the load light on purpose: with larger jobs or a
//! busier daemon, queueing amplified machine noise on a two-core box into
//! 40% swings of the latency percentiles between identical runs.

use crate::layers::{self, ms_since, time_median};
use crate::place;
use crate::report::{render, Metrics};
use crate::schedule::{Schedule, HOT_SET};
use crate::stats::{geomean, median, p90_or_median};
use crate::sys;
use crate::Outcome;
use mmp_core::{CheckpointPlan, MacroPlacer, PlacerConfig};
use mmp_netlist::{Design, MacroId, Placement};
use mmp_obs::Obs;
use mmp_serve::{DesignSpec, JobDefaults, JobRequest};
use serde::{map_get, Value};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Jobs: `ibm01` at scale 0.002, ζ = 8, 40 episodes, γ = 30.
const CIRCUIT: &str = "ibm01";
const SCALE: f64 = 0.002;
const ZETA: usize = 8;
const EPISODES: usize = 10;
const EXPLORATIONS: usize = 8;
/// Daemon worker threads.
const DAEMON_WORKERS: usize = 2;
/// A job slower than this (from its scheduled send) misses goodput.
pub const LIMIT_S: f64 = 5.0;
/// Above this p90 send lag the schedule was not kept and the run is invalid.
pub const LAG_LIMIT_MS: f64 = 50.0;
/// Pause between polling rounds.
const POLL_SLEEP: Duration = Duration::from_millis(10);
/// How long after the schedule ends outstanding jobs may still finish.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn design_value(seed: u64) -> String {
    format!("{{\"circuit\":\"{CIRCUIT}\",\"scale\":{SCALE},\"seed\":{seed}}}")
}

fn submit_line(id: &str, seed: u64) -> String {
    format!(
        "{{\"op\":\"submit\",\"id\":\"{id}\",\"design\":{},\"zeta\":{ZETA},\
         \"episodes\":{EPISODES},\"explorations\":{EXPLORATIONS}}}",
        design_value(seed)
    )
}

/// The design and flow configuration the daemon derives from a job's
/// request — through the daemon's own request parser, so the in-process
/// replay runs exactly what `mmpd` runs.
fn job_input(seed: u64) -> Result<(Design, PlacerConfig), String> {
    let req = JobRequest::parse(&submit_line("replay", seed)).map_err(|e| e.to_string())?;
    let design = req
        .design
        .as_ref()
        .ok_or("request without a design")?
        .materialize()
        .map_err(|e| e.to_string())?;
    Ok((design, req.placer_config(&JobDefaults::default())))
}

fn design_of(seed: u64) -> Result<Design, String> {
    DesignSpec::Circuit {
        name: CIRCUIT.to_owned(),
        scale: SCALE,
        seed,
    }
    .materialize()
    .map_err(|e| e.to_string())
}

/// One line-oriented connection to the daemon.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    fn call(&mut self, line: &str) -> Result<Value, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        if resp.is_empty() {
            return Err("daemon closed the connection".into());
        }
        serde_json::parse_value(resp.trim()).map_err(|e| format!("bad response: {e}"))
    }
}

fn is_ok(v: &Value) -> bool {
    matches!(map_get(v, "ok"), Some(Value::Bool(true)))
}

fn str_at<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match map_get(v, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn f64_at(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for k in path {
        cur = map_get(cur, k)?;
    }
    cur.as_f64()
}

/// A running `mmpd` with its own state directory.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
    pid: String,
}

impl Daemon {
    fn spawn(mmpd: &Path, state_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(mmpd)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &DAEMON_WORKERS.to_string(),
            ])
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mmpd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no daemon stdout")?);
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        let Some(addr) = banner.trim().strip_prefix("mmpd listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected daemon banner {banner:?}"));
        };
        let pid = child.id().to_string();
        Ok(Daemon {
            addr: addr.to_owned(),
            child,
            _stdout: stdout,
            pid,
        })
    }

    /// Drains and stops the daemon, killing it if it does not exit in time.
    fn stop(mut self) {
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.call("{\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A completed job as the client saw it.
#[derive(Clone, Debug)]
struct Done {
    hpwl: f64,
    total_ms: f64,
    queue_wait_ms: f64,
    policy_reused: bool,
    macro_bits: Vec<(u64, u64)>,
}

fn parse_done(v: &Value) -> Result<Done, String> {
    let hpwl = f64_at(v, &["report", "hpwl"]).ok_or("response without report.hpwl")?;
    let total_ms =
        f64_at(v, &["report", "timings", "total_ms"]).ok_or("response without timings")?;
    let queue_wait_ms =
        f64_at(v, &["summary", "queue_wait_ms"]).ok_or("response without queue_wait_ms")?;
    let policy_reused = matches!(
        map_get(v, "summary").and_then(|s| map_get(s, "policy_reused")),
        Some(Value::Bool(true))
    );
    let Some(Value::Seq(macros)) = map_get(v, "macros") else {
        return Err("response without macros".into());
    };
    let macro_bits = macros
        .iter()
        .map(|m| {
            let bits = |k: &str| map_get(m, k).and_then(Value::as_u64);
            bits("x_bits").zip(bits("y_bits"))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("macro without coordinate bits")?;
    Ok(Done {
        hpwl,
        total_ms,
        queue_wait_ms,
        policy_reused,
        macro_bits,
    })
}

/// Legality of the returned macro coordinates against a local copy of the
/// job's design: no overlap, every macro inside the region, finite HPWL.
fn check_done(design: &Design, d: &Done) -> Vec<String> {
    let mut bad = Vec::new();
    if d.macro_bits.len() != design.macros().len() {
        bad.push(format!(
            "{} macro coordinates for {} macros",
            d.macro_bits.len(),
            design.macros().len()
        ));
        return bad;
    }
    let mut pl = Placement::initial(design);
    for (i, &(x, y)) in d.macro_bits.iter().enumerate() {
        pl.set_macro_center(
            MacroId::from_index(i),
            mmp_geom::Point::new(f64::from_bits(x), f64::from_bits(y)),
        );
    }
    let overlap = pl.macro_overlap_area(design);
    if overlap > 1e-6 {
        bad.push(format!("macro overlap area {overlap}"));
    }
    if !pl.macros_inside_region(design) {
        bad.push("a macro lies outside the region".into());
    }
    if !(d.hpwl.is_finite() && d.hpwl > 0.0) {
        bad.push(format!("HPWL {} is not a positive number", d.hpwl));
    }
    bad
}

/// Polls `result` for `id` until done or failed.
fn wait_done(conn: &mut Conn, id: &str, timeout: Duration) -> Result<Done, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let v = conn.call(&format!("{{\"op\":\"result\",\"id\":\"{id}\"}}"))?;
        if !is_ok(&v) {
            return Err(format!("job {id} failed: {}", render(&v)));
        }
        if str_at(&v, "state") == Some("done") {
            return parse_done(&v);
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} timed out"));
        }
        std::thread::sleep(POLL_SLEEP);
    }
}

/// Set-up: spawn, wait for `status`, place the hot set.
fn set_up(mmpd: &Path, dir: &Path, hot_set: &[u64]) -> Result<(Daemon, Vec<Done>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let daemon = Daemon::spawn(mmpd, &dir.join("state"))?;
    let mut conn = Conn::open(&daemon.addr)?;
    let status = conn.call("{\"op\":\"status\"}")?;
    if !is_ok(&status) {
        return Err(format!("daemon not ready: {}", render(&status)));
    }
    for (k, seed) in hot_set.iter().enumerate() {
        let v = conn.call(&submit_line(&format!("warm{k}"), *seed))?;
        if !is_ok(&v) {
            return Err(format!("warm-up job rejected: {}", render(&v)));
        }
    }
    let warm = (0..hot_set.len())
        .map(|k| wait_done(&mut conn, &format!("warm{k}"), DRAIN_TIMEOUT))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, warm))
}

/// Per-job record of one load run.
#[derive(Default, Clone)]
struct JobRecord {
    sent_s: Option<f64>,
    rejected: Option<String>,
    done_s: Option<f64>,
    failed: Option<String>,
    done: Option<Done>,
    polls: Vec<f64>,
}

/// Shared between the submitting and the polling connection.
#[derive(Default)]
struct Board {
    records: Vec<JobRecord>,
    /// Jobs accepted and not yet resolved.
    outstanding: Vec<usize>,
    submitted_all: bool,
    backlog_end: u64,
}

fn lock(board: &Mutex<Board>) -> MutexGuard<'_, Board> {
    board.lock().unwrap_or_else(|p| p.into_inner())
}

fn job_id(i: usize) -> String {
    format!("job{i}")
}

/// Drives the schedule against `addr`; returns the per-job records and the
/// backlog (queued + running) when the schedule ended.
fn drive(addr: &str, schedule: &Schedule) -> Result<(Vec<JobRecord>, u64), String> {
    let board = Arc::new(Mutex::new(Board {
        records: vec![JobRecord::default(); schedule.jobs.len()],
        ..Board::default()
    }));
    let start = Instant::now();
    let submitter = {
        let board = Arc::clone(&board);
        let mut conn = Conn::open(addr)?;
        let jobs = schedule.jobs.clone();
        std::thread::spawn(move || -> Result<(), String> {
            for (i, job) in jobs.iter().enumerate() {
                let due = Duration::from_secs_f64(job.at_s);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed().as_secs_f64();
                let v = conn.call(&submit_line(&job_id(i), job.design_seed))?;
                let mut g = lock(&board);
                g.records[i].sent_s = Some(sent);
                if is_ok(&v) {
                    g.outstanding.push(i);
                } else {
                    g.records[i].rejected = Some(render(&v));
                }
            }
            let status = conn.call("{\"op\":\"status\"}")?;
            let depth = |k: &str| map_get(&status, k).and_then(Value::as_u64).unwrap_or(0);
            let mut g = lock(&board);
            g.backlog_end = depth("queued") + depth("in_flight");
            g.submitted_all = true;
            Ok(())
        })
    };

    let mut poller = Conn::open(addr)?;
    let give_up = Duration::from_secs_f64(schedule.length_s) + DRAIN_TIMEOUT;
    let mut error = None;
    loop {
        let (pending, finished) = {
            let g = lock(&board);
            (
                g.outstanding.clone(),
                g.submitted_all && g.outstanding.is_empty(),
            )
        };
        if finished || submitter.is_finished() && pending.is_empty() {
            break;
        }
        if start.elapsed() > give_up {
            let mut g = lock(&board);
            for i in std::mem::take(&mut g.outstanding) {
                g.records[i].failed = Some("timed out".into());
            }
            break;
        }
        for i in pending {
            let polled = start.elapsed().as_secs_f64();
            let v = match poller.call(&format!("{{\"op\":\"result\",\"id\":\"{}\"}}", job_id(i))) {
                Ok(v) => v,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            };
            let seen = start.elapsed().as_secs_f64();
            let mut g = lock(&board);
            g.records[i].polls.push(polled);
            let resolved = if !is_ok(&v) {
                g.records[i].failed = Some(render(&v));
                true
            } else if str_at(&v, "state") == Some("done") {
                match parse_done(&v) {
                    Ok(d) => g.records[i].done = Some(d),
                    Err(e) => g.records[i].failed = Some(e),
                }
                g.records[i].done_s = Some(seen);
                true
            } else {
                false
            };
            if resolved {
                g.outstanding.retain(|&j| j != i);
            }
        }
        if error.is_some() {
            break;
        }
        std::thread::sleep(POLL_SLEEP);
    }
    let submitted = submitter
        .join()
        .map_err(|_| "submitter thread panicked".to_string())?;
    if let Some(e) = error {
        return Err(e);
    }
    submitted?;
    let g = lock(&board);
    Ok((g.records.clone(), g.backlog_end))
}

/// The checkpoint cost of one job, replayed in process: `MacroPlacer::place`
/// with and without `with_checkpoints`, alternating. Returns the median
/// overhead in ms and the bytes the checkpoint directory holds afterwards.
fn checkpoint_cost(design: &Design, cfg: &PlacerConfig, dir: &Path) -> Result<(f64, f64), String> {
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let mut bytes = 0.0;
    for rep in 0..3 {
        let ck = dir.join(format!("ckpt{rep}"));
        let _ = std::fs::remove_dir_all(&ck);
        let t = Instant::now();
        MacroPlacer::new(cfg.clone())
            .place(design)
            .map_err(|e| e.to_string())?;
        without.push(ms_since(t));
        let t = Instant::now();
        MacroPlacer::new(cfg.clone())
            .with_checkpoints(CheckpointPlan::new(&ck))
            .place(design)
            .map_err(|e| e.to_string())?;
        with.push(ms_since(t));
        bytes = std::fs::read_dir(&ck)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len() as f64)
            .sum();
    }
    Ok((median(&with) - median(&without), bytes))
}

fn run_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()))
}

/// Runs `serve-mix` for about `seconds` of schedule.
pub fn run(mmpd: &Path, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let schedule = Schedule::new(seed, seconds);
    let root = run_dir("serve-mix");
    let result = run_in(mmpd, &schedule, &root, trace);
    let _ = std::fs::remove_dir_all(&root);
    let mut outcome = result?;
    outcome.params = vec![
        ("circuit", CIRCUIT.to_owned()),
        ("scale", SCALE.to_string()),
        ("zeta", ZETA.to_string()),
        ("episodes", EPISODES.to_string()),
        ("explorations", EXPLORATIONS.to_string()),
        ("daemon_workers", DAEMON_WORKERS.to_string()),
        ("rate_jobs_s", crate::schedule::RATE.to_string()),
        ("jobs", schedule.jobs.len().to_string()),
        ("schedule_s", schedule.length_s.to_string()),
        ("hot_set", format!("{HOT_SET:?}")),
        ("limit_s", LIMIT_S.to_string()),
        ("lag_limit_ms", LAG_LIMIT_MS.to_string()),
    ];
    let _ = std::fs::remove_dir(".bench_run");
    Ok(outcome)
}

fn run_in(mmpd: &Path, schedule: &Schedule, root: &Path, trace: bool) -> Result<Outcome, String> {
    // Set-up, repeated; the last daemon serves the load.
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let (daemon, warm) = set_up(mmpd, &root.join(format!("setup{k}")), &HOT_SET)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = live.replace((daemon, warm)) {
            Daemon::stop(old);
        }
    }
    let (daemon, warm) = live.ok_or("no set-up ran")?;
    let mut violations = Vec::new();
    let mut designs: BTreeMap<u64, Design> = BTreeMap::new();
    for (k, w) in warm.iter().enumerate() {
        let seed = HOT_SET[k];
        let design = design_of(seed)?;
        violations.extend(
            check_done(&design, w)
                .into_iter()
                .map(|v| format!("warm{k}: {v}")),
        );
        designs.insert(seed, design);
    }

    let cpu0 = sys::cpu_s(&daemon.pid);
    let (records, backlog_end) = drive(&daemon.addr, schedule)?;
    let cpu1 = sys::cpu_s(&daemon.pid);
    let peak_rss = sys::peak_rss_mib(&daemon.pid);
    let status = Conn::open(&daemon.addr)?.call("{\"op\":\"status\"}")?;
    daemon.stop();

    // --- output checks and per-job numbers --------------------------------
    let mut failed = 0u64;
    let (mut latency, mut lag, mut hpwl) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queue_wait, mut service, mut overhead, mut poll_gaps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut within) = (0usize, 0usize);
    for (i, (job, r)) in schedule.jobs.iter().zip(&records).enumerate() {
        if let Some(sent) = r.sent_s {
            lag.push((sent - job.at_s) * 1e3);
        }
        poll_gaps.extend(r.polls.windows(2).map(|w| (w[1] - w[0]) * 1e3));
        // A rejected, errored or timed-out job is a failed operation; a
        // completed job that fails a check is also an output error.
        if r.rejected.is_some() || r.failed.is_some() {
            failed += 1;
            continue;
        }
        let (Some(d), Some(done_s)) = (&r.done, r.done_s) else {
            failed += 1;
            continue;
        };
        let design = match designs.entry(job.design_seed) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(design_of(job.design_seed)?),
        };
        let mut bad = check_done(design, d);
        if let Some(k) = job.repeat_of {
            let donor = &warm[k];
            if d.hpwl.to_bits() != donor.hpwl.to_bits() || d.macro_bits != donor.macro_bits {
                bad.push(format!("repeat of warm{k} differs from its donor"));
            }
        }
        if !bad.is_empty() {
            failed += 1;
            violations.push(format!("{}: {}", job_id(i), bad.join("; ")));
            continue;
        }
        hpwl.push(d.hpwl);
        let l = done_s - job.at_s;
        latency.push(l);
        within += usize::from(l <= LIMIT_S);
        hits += usize::from(d.policy_reused);
        queue_wait.push(d.queue_wait_ms);
        service.push(d.total_ms);
        overhead.push(l * 1e3 - d.queue_wait_ms - d.total_ms);
    }
    let lag_p90 = p90_or_median(&lag);
    if lag_p90 > LAG_LIMIT_MS {
        return Err(format!(
            "load generator lagged its schedule: p90 send lag {lag_p90:.1} ms > {LAG_LIMIT_MS} ms"
        ));
    }
    let attempted = schedule.jobs.len() as u64;
    let completed = latency.len();
    let mut m = Metrics::default();
    if trace {
        let counter = |k: &str| {
            map_get(&status, "counters")
                .and_then(|c| map_get(c, k))
                .and_then(Value::as_u64)
                .unwrap_or(0) as f64
        };
        m.set("serve.queue_wait_p50_ms", median(&queue_wait));
        m.set("serve.queue_wait_p90_ms", p90_or_median(&queue_wait));
        m.set("serve.service_p50_ms", median(&service));
        m.set("serve.overhead_p50_ms", median(&overhead));
        m.set(
            "serve.policy_hit_share",
            hits as f64 / completed.max(1) as f64,
        );
        m.set("serve.rejected", counter("serve.rejected"));
        m.set("serve.retried", counter("serve.retried"));
        m.set(
            "serve.journal_bytes",
            map_get(&status, "journal_bytes")
                .and_then(Value::as_u64)
                .unwrap_or(0) as f64,
        );
        m.set("serve.backlog_end", backlog_end as f64);
        m.set("loadgen.lag_p90_ms", lag_p90);
        m.set("loadgen.poll_interval_ms", median(&poll_gaps));

        // In-process replay of the first unique job: checkpoint cost, the
        // tracing overhead and every library layer.
        let seed = schedule
            .jobs
            .iter()
            .find(|j| j.repeat_of.is_none())
            .map_or(HOT_SET[0], |j| j.design_seed);
        let (design, cfg) = job_input(seed)?;
        let (ckpt_ms, ckpt_bytes) = checkpoint_cost(&design, &cfg, root)?;
        m.set("ckpt.overhead_ms", ckpt_ms);
        m.set("ckpt.bytes_per_job", ckpt_bytes);
        let (plain_ms, plain) = time_median(3, || MacroPlacer::new(cfg.clone()).place(&design));
        let obs = Obs::metrics_only();
        let t = Instant::now();
        let traced = MacroPlacer::new(cfg.clone())
            .with_obs(obs.clone())
            .place(&design)
            .map_err(|e| e.to_string())?;
        m.set(
            "trace.overhead_pct",
            (ms_since(t) - plain_ms) / plain_ms * 100.0,
        );
        let plain = plain.map_err(|e| e.to_string())?;
        violations.extend(place::check(&design, &plain));
        if plain.hpwl.to_bits() != traced.hpwl.to_bits() {
            violations.push("metrics-only replay changed the HPWL".into());
        }
        layers::measure(&design, &cfg, &traced, &obs.snapshot(), plain_ms, &mut m)?;
    } else {
        m.set("setup_s", median(&setups));
        m.set("place_s", median(&service) / 1e3);
        m.set(
            "place_cpu_s",
            cpu1.zip(cpu0).map_or(f64::NAN, |(b, a)| b - a) / completed.max(1) as f64,
        );
        m.set("hpwl", geomean(&hpwl));
        m.set("peak_rss_mb", peak_rss.unwrap_or(f64::NAN));
        m.set("ok_share", (attempted - failed) as f64 / attempted as f64);
        m.set("job_p50_s", median(&latency));
        m.set("job_p90_s", p90_or_median(&latency));
        m.set("goodput_jobs_s", within as f64 / schedule.length_s);
    }
    Ok(Outcome {
        attempted,
        failed,
        violations,
        metrics: m,
        params: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_input_matches_the_daemon_request() {
        let (design, cfg) = job_input(5).unwrap();
        assert_eq!(design, design_of(5).unwrap());
        assert_eq!(cfg.trainer.episodes, EPISODES);
        assert_eq!(cfg.mcts.explorations, EXPLORATIONS);
        assert_eq!(cfg.trainer.zeta, ZETA);
        assert_eq!(cfg.workers, 1);
    }

    #[test]
    fn returned_macros_are_checked_for_overlap() {
        let (design, cfg) = job_input(5).unwrap();
        let result = MacroPlacer::new(cfg).place(&design).unwrap();
        let mut done = Done {
            hpwl: result.hpwl,
            total_ms: 1.0,
            queue_wait_ms: 0.0,
            policy_reused: false,
            macro_bits: (0..design.macros().len())
                .map(|i| {
                    let c = result.placement.macro_center(MacroId::from_index(i));
                    (c.x.to_bits(), c.y.to_bits())
                })
                .collect(),
        };
        assert_eq!(check_done(&design, &done), Vec::<String>::new());
        done.macro_bits[1] = done.macro_bits[0];
        assert!(check_done(&design, &done)[0].contains("overlap"));
    }
}
