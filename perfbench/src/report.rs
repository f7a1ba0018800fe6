//! The benchmark's definition (workloads and metric table, rendered as
//! `BENCHMARK.json`) and its result line.

use serde::{map_get, Serialize, Value};
use std::collections::BTreeMap;

/// The command the benchmark runs under (arguments are appended).
pub const COMMAND: [&str; 2] = ["bash", "perfbench/run.sh"];
/// Directories holding the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];
/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 40;

/// A workload: name and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads of the benchmark contract, in run order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "place-ref",
        why: "ibm10 at scale 0.01 through MacroPlacer::place, 2 pool workers: the nn layer (A2C updates, \
              sampling and MCTS leaf forwards) is most of the time; pinned instance, limit 60 s",
    },
    Workload {
        name: "place-large",
        why: "ibm10 at scale 0.05, 1 worker, swap refine: episode scoring (legalize + place_cells) is most \
              of the time, nn under a tenth; traced run also drives mmpd; limit 20 s; holdout seed 1009",
    },
];

/// Runs on request (`--workload serve-mix` or `all`) but is not in the
/// contract: its latencies follow the fsync latency of the machine's disk,
/// which swung them by 25-40% between identical runs on a shared two-core
/// box, beyond any bound the contract allows. Its per-layer numbers are
/// part of `place-large`'s traced run.
pub const SERVE_MIX: &str = "serve-mix";

/// Per-layer metric prefixes measured on a running daemon.
pub const DAEMON_LAYERS: [&str; 3] = ["ckpt.", "serve.", "loadgen."];

/// Direction in which a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One row of the metric table.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics (`--trace 0`), printed by every workload.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("place_s", "s", Lower, 0.25),
    e2e("place_cpu_s", "s", Lower, 0.25),
    e2e("hpwl", "dbu", Lower, 0.02),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
    e2e("ok_share", "ratio", Higher, 0.02),
    e2e("job_p50_s", "s", Lower, 0.25),
    e2e("job_p90_s", "s", Lower, 0.25),
    e2e("goodput_jobs_s", "jobs/s", Higher, 0.25),
];

/// Per-layer metrics (`--trace 1`), printed by every workload; a layer
/// that is not on a workload's path reports 0.
pub const PER_LAYER: [MetricSpec; 55] = [
    layer("core.preprocess_ms", "ms", Lower),
    layer("core.train_ms", "ms", Lower),
    layer("core.search_ms", "ms", Lower),
    layer("core.finalize_ms", "ms", Lower),
    layer("core.refine_ms", "ms", Lower),
    layer("core.degradations", "count", Lower),
    layer("core.replay_exact", "bool", Higher),
    layer("nn.forward_ms", "ms", Lower),
    layer("nn.forward_calls", "count", Lower),
    layer("nn.train_chunk_ms", "ms", Lower),
    layer("nn.train_chunks", "count", Lower),
    layer("nn.optim_step_ms", "ms", Lower),
    layer("nn.forward_gflops", "GFLOP/s", Higher),
    layer("nn.busy_share", "ratio", Lower),
    layer("rl.episode_score_ms", "ms", Lower),
    layer("rl.scored_episodes", "count", Lower),
    layer("rl.env_step_us", "us", Lower),
    layer("rl.env_steps", "count", Lower),
    layer("rl.score_busy_share", "ratio", Lower),
    layer("legal.legalize_ms", "ms", Lower),
    layer("legal.global_rounds", "count", Lower),
    layer("legal.global_fallback", "count", Lower),
    layer("legal.fallback_cells", "count", Lower),
    layer("legal.refine_ms", "ms", Lower),
    layer("legal.refine_accept_ratio", "ratio", Higher),
    layer("analytic.place_mixed_ms", "ms", Lower),
    layer("analytic.place_cells_fast_ms", "ms", Lower),
    layer("analytic.place_cells_final_ms", "ms", Lower),
    layer("analytic.cg_iters", "count", Lower),
    layer("analytic.qp_solves", "count", Lower),
    layer("analytic.spread_iters", "count", Lower),
    layer("cluster.coarsen_ms", "ms", Lower),
    layer("mcts.explorations", "count", Lower),
    layer("mcts.value_evaluations", "count", Lower),
    layer("mcts.terminal_evaluations", "count", Lower),
    layer("mcts.nodes", "count", Lower),
    layer("mcts.useful_eval_ratio", "ratio", Higher),
    layer("mcts.self_ms", "ms", Lower),
    layer("pool.place_cells_final_ms_w1", "ms", Lower),
    layer("pool.place_cells_final_ms_w2", "ms", Lower),
    layer("pool.speedup_w2", "x", Higher),
    layer("ckpt.overhead_ms", "ms", Lower),
    layer("ckpt.bytes_per_job", "bytes", Lower),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p90_ms", "ms", Lower),
    layer("serve.service_p50_ms", "ms", Lower),
    layer("serve.overhead_p50_ms", "ms", Lower),
    layer("serve.policy_hit_share", "ratio", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.retried", "count", Lower),
    layer("serve.journal_bytes", "bytes", Lower),
    layer("serve.backlog_end", "count", Lower),
    layer("loadgen.lag_p90_ms", "ms", Lower),
    layer("loadgen.poll_interval_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// `true` for names made of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit, at most 64 bytes.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// A measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Measured>,
}

/// Metric values collected by a workload, by name; units come from the
/// metric table so a workload cannot report a unit the table does not
/// promise.
#[derive(Default, Debug)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

impl RunResult {
    /// Builds the result for the metric set `specs` from `values`.
    ///
    /// # Errors
    ///
    /// A description of the first invalid name, missing metric, unknown
    /// metric, or non-finite value.
    pub fn build(
        correct: bool,
        attempted: u64,
        failed: u64,
        specs: &[MetricSpec],
        values: &Metrics,
    ) -> Result<RunResult, String> {
        let mut metrics = BTreeMap::new();
        for (name, value) in &values.0 {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            if !specs.iter().any(|s| s.name == *name) {
                return Err(format!("metric {name} is not in this run's table"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let unit = unit_of(name).unwrap_or("");
            metrics.insert(
                (*name).to_owned(),
                Measured {
                    value: *value,
                    unit: unit.to_owned(),
                },
            );
        }
        if let Some(missing) = specs.iter().find(|s| !metrics.contains_key(s.name)) {
            return Err(format!("metric {} was not measured", missing.name));
        }
        Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    /// The one-line JSON form.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    Value::Map(vec![
                        ("value".to_owned(), Value::F64(m.value)),
                        ("unit".to_owned(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        render(&Value::Map(vec![
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::U64(self.attempted)),
            ("failed".to_owned(), Value::U64(self.failed)),
            ("metrics".to_owned(), Value::Map(metrics)),
        ]))
    }

    /// Parses the one-line JSON form.
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing field.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v = serde_json::parse_value(line).map_err(|e| e.to_string())?;
        let Value::Map(top) = &v else {
            return Err("result must be an object".into());
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let correct = matches!(map_get(&v, "correct"), Some(Value::Bool(true)));
        let count = |k: &str| {
            map_get(&v, k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{k} must be a whole number"))
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let Some(Value::Map(entries)) = map_get(&v, "metrics") else {
            return Err("metrics must be an object".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in entries {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let value = map_get(m, "value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: value must be a number"))?;
            let Some(Value::Str(unit)) = map_get(m, "unit") else {
                return Err(format!("{name}: unit must be a string"));
            };
            metrics.insert(
                name.clone(),
                Measured {
                    value,
                    unit: unit.clone(),
                },
            );
        }
        Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// Renders a raw [`Value`] as compact JSON.
pub fn render(v: &Value) -> String {
    struct Raw<'a>(&'a Value);
    impl Serialize for Raw<'_> {
        fn serialize(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Raw(v)).unwrap_or_else(|_| "null".to_owned())
}

fn quoted(s: &str) -> String {
    render(&Value::Str(s.to_owned()))
}

fn metric_line(m: &MetricSpec) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": \"{}\"",
        quoted(m.name),
        quoted(m.unit),
        m.better.as_str()
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b:?}"));
    }
    s.push('}');
    s
}

fn list(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strs = |xs: &[&str]| {
        let q: Vec<String> = xs.iter().map(|x| quoted(x)).collect();
        format!("[{}]", q.join(", "))
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \
         \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strs(&COMMAND),
        strs(&PATHS),
        RUN_SECONDS,
        list(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))
        ),
        list(END_TO_END.iter().map(metric_line)),
        list(PER_LAYER.iter().map(metric_line)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "nn.forward_ms", "place-ref", "a", "9.x-y_z"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn table_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    #[test]
    fn build_rejects_bad_names_missing_metrics_and_non_finite_values() {
        let specs = [e2e("a_s", "s", Lower, 0.1), e2e("b_s", "s", Lower, 0.1)];
        let mut m = Metrics::default();
        m.set("a_s", 1.0);
        assert!(
            RunResult::build(true, 1, 0, &specs, &m).is_err(),
            "missing b_s"
        );
        m.set("b_s", f64::NAN);
        assert!(RunResult::build(true, 1, 0, &specs, &m).is_err(), "NaN");
        m.set("b_s", 2.0);
        m.set("c s", 2.0);
        assert!(
            RunResult::build(true, 1, 0, &specs, &m).is_err(),
            "bad name"
        );
    }

    #[test]
    fn result_json_round_trips() {
        let mut m = Metrics::default();
        for (i, spec) in END_TO_END.iter().enumerate() {
            m.set(spec.name, 0.1 + i as f64 / 3.0);
        }
        let r = RunResult::build(true, 110, 1, &END_TO_END, &m).unwrap();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":110,\"failed\":1,\"metrics\":{"));
        let back = RunResult::parse(&line).unwrap();
        assert_eq!(back, r);
        for (k, v) in &back.metrics {
            assert_eq!(v.value.to_bits(), r.metrics[k].value.to_bits(), "{k}");
        }
        assert_eq!(back.metrics["place_s"].unit, "s");
        assert!(RunResult::parse("{\"correct\":true}").is_err());
    }

    #[test]
    fn committed_benchmark_json_matches_the_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json());
        serde_json::parse_value(committed).unwrap();
    }
}
