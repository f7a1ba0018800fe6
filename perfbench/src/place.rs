//! `place-ref` and `place-large`: one process calling
//! `MacroPlacer::place` back to back (a closed loop with one caller) on a
//! pinned instance.
//!
//! A job is one call. `place_s` and `job_p50_s` are the median call,
//! `place_cpu_s` its median process CPU time, `goodput_jobs_s` the calls
//! within the workload's limit per second of calling, `setup_s` the median
//! design generation. A run makes too few calls for a measurable tail, so
//! `job_p90_s` reports the median as well.
//!
//! The instance is pinned (the workload seed does not change it): across
//! design or flow seeds one call's time and HPWL vary by 10–20%, more than
//! any useful regression bound at one or two calls per run.

use crate::layers;
use crate::report::Metrics;
use crate::stats::{median, p90_or_median};
use crate::sys;
use crate::Outcome;
use mmp_core::{MacroPlacer, PlacementResult, PlacerConfig, SwapRefineConfig, SyntheticSpec};
use mmp_netlist::{CellId, Design};
use mmp_obs::Obs;
use std::time::Instant;

/// A pinned placement instance and the flow configuration it runs under.
pub struct PlaceWorkload {
    pub circuit: &'static str,
    pub scale: f64,
    /// Generator seed of the pinned design.
    pub design_seed: u64,
    pub zeta: usize,
    pub episodes: usize,
    pub explorations: usize,
    pub workers: usize,
    pub refine: bool,
    /// A call slower than this misses the goodput limit.
    pub limit_s: f64,
}

/// `ibm10` at scale 0.01 with ζ = 16 and 2 pool workers — the reference
/// run of the roadmap (design seed 1, flow seed 0).
pub const PLACE_REF: PlaceWorkload = PlaceWorkload {
    circuit: "ibm10",
    scale: 0.01,
    design_seed: 1,
    zeta: 16,
    episodes: 60,
    explorations: 64,
    workers: 2,
    refine: false,
    limit_s: 60.0,
};

/// `ibm10` at scale 0.05 with ζ = 8, one worker and swap refinement.
pub const PLACE_LARGE: PlaceWorkload = PlaceWorkload {
    circuit: "ibm10",
    scale: 0.05,
    design_seed: 1,
    zeta: 8,
    episodes: 20,
    explorations: 16,
    workers: 1,
    refine: true,
    limit_s: 20.0,
};

impl PlaceWorkload {
    pub fn spec(&self) -> SyntheticSpec {
        let mut spec = mmp_core::industrial_suite()
            .into_iter()
            .chain(mmp_core::iccad04_suite())
            .find(|s| s.name == self.circuit)
            .unwrap_or_else(|| panic!("unknown circuit {}", self.circuit));
        spec.seed = self.design_seed;
        spec.scaled(self.scale)
    }

    pub fn config(&self) -> PlacerConfig {
        let mut cfg = PlacerConfig::bench(self.zeta);
        cfg.trainer.episodes = self.episodes;
        cfg.mcts.explorations = self.explorations;
        cfg.trainer.seed = 0;
        cfg.workers = self.workers;
        cfg.refine = self.refine.then(SwapRefineConfig::default);
        cfg
    }

    pub fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("circuit", self.circuit.to_owned()),
            ("scale", self.scale.to_string()),
            ("design_seed", self.design_seed.to_string()),
            ("flow_seed", "0".to_owned()),
            ("zeta", self.zeta.to_string()),
            ("episodes", self.episodes.to_string()),
            ("explorations", self.explorations.to_string()),
            ("workers", self.workers.to_string()),
            ("refine", self.refine.to_string()),
            ("limit_s", self.limit_s.to_string()),
        ]
    }
}

/// Output checks on a shipped placement: no macro overlap, every macro and
/// cell outline inside the region, and the reported HPWL equal bit for bit
/// to a recomputation from the returned placement.
pub fn check(design: &Design, r: &PlacementResult) -> Vec<String> {
    let mut bad = Vec::new();
    let overlap = r.placement.macro_overlap_area(design);
    if overlap > 1e-6 {
        bad.push(format!("macro overlap area {overlap}"));
    }
    if !r.placement.macros_inside_region(design) {
        bad.push("a macro lies outside the region".to_owned());
    }
    let region = design.region();
    let eps = 1e-6 * (region.width + region.height);
    let outside = design
        .cells()
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            let p = r.placement.cell_center(CellId::from_index(*i));
            p.x - c.width / 2.0 < region.x - eps
                || p.x + c.width / 2.0 > region.right() + eps
                || p.y - c.height / 2.0 < region.y - eps
                || p.y + c.height / 2.0 > region.top() + eps
        })
        .count();
    if outside > 0 {
        bad.push(format!("{outside} cell(s) outside the region"));
    }
    let recomputed = r.placement.hpwl(design);
    if recomputed.to_bits() != r.hpwl.to_bits() {
        bad.push(format!(
            "reported HPWL {} != recomputed {recomputed}",
            r.hpwl
        ));
    }
    bad
}

/// One placement call with its wall and CPU time.
struct Call {
    result: Result<PlacementResult, String>,
    wall_s: f64,
    cpu_s: f64,
}

fn place_once(placer: &MacroPlacer, design: &Design) -> Call {
    let cpu0 = sys::cpu_s("self").unwrap_or(0.0);
    let t = Instant::now();
    let result = placer.place(design).map_err(|e| e.to_string());
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_s("self").unwrap_or(0.0) - cpu0;
    Call {
        result,
        wall_s,
        cpu_s,
    }
}

/// Tracks attempted/failed operations and output-check violations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    hpwl_bits: Option<u64>,
}

impl Tally {
    /// Counts one call and checks its output; returns the result on success.
    fn record<'a>(&mut self, design: &Design, call: &'a Call) -> Option<&'a PlacementResult> {
        self.attempted += 1;
        match &call.result {
            Err(e) => {
                self.failed += 1;
                self.violations.push(format!("place failed: {e}"));
                None
            }
            Ok(r) => {
                let mut bad = check(design, r);
                match self.hpwl_bits {
                    Some(bits) if bits != r.hpwl.to_bits() => {
                        bad.push("HPWL differs between calls on the same input".to_owned())
                    }
                    _ => self.hpwl_bits = Some(r.hpwl.to_bits()),
                }
                if bad.is_empty() {
                    Some(r)
                } else {
                    self.failed += 1;
                    self.violations.extend(bad);
                    None
                }
            }
        }
    }
}

/// Runs a place workload for about `seconds` (at least two calls).
pub fn run(w: &PlaceWorkload, seconds: f64, trace: bool) -> Outcome {
    // Set-up: design generation, repeated for a stable median.
    let spec = w.spec();
    let setups: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(spec.generate());
            t.elapsed().as_secs_f64()
        })
        .collect();
    let design = spec.generate();
    let cfg = w.config();
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    if trace {
        // Untraced and metrics-only calls alternate so that both see the
        // same machine; the last metrics-only call is the replay reference.
        let start = Instant::now();
        let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
        let mut reference = None;
        loop {
            let plain = place_once(&MacroPlacer::new(cfg.clone()), &design);
            let obs = Obs::metrics_only();
            let traced = place_once(
                &MacroPlacer::new(cfg.clone()).with_obs(obs.clone()),
                &design,
            );
            let ok = tally.record(&design, &plain).is_some();
            if !(tally.record(&design, &traced).is_some() && ok) {
                break;
            }
            plain_s.push(plain.wall_s);
            traced_s.push(traced.wall_s);
            reference = Some((traced, obs));
            if start.elapsed().as_secs_f64() + median(&plain_s) + median(&traced_s) > seconds {
                break;
            }
        }
        if let Some((Call { result: Ok(r), .. }, obs)) = &reference {
            let plain_ms = median(&plain_s) * 1e3;
            m.set(
                "trace.overhead_pct",
                (median(&traced_s) * 1e3 - plain_ms) / plain_ms * 100.0,
            );
            if let Err(e) = layers::measure(&design, &cfg, r, &obs.snapshot(), plain_ms, &mut m) {
                tally.failed += 1;
                tally.violations.push(format!("layer replay: {e}"));
            }
        }
    } else {
        let placer = MacroPlacer::new(cfg);
        let start = Instant::now();
        let mut walls = Vec::new();
        let mut cpus = Vec::new();
        // At least two calls; then another only while it is expected to
        // finish within the run.
        loop {
            let call = place_once(&placer, &design);
            if tally.record(&design, &call).is_none() {
                break;
            }
            eprintln!(
                "place call {}: {:.3} s wall, {:.2} s cpu",
                walls.len() + 1,
                call.wall_s,
                call.cpu_s
            );
            walls.push(call.wall_s);
            cpus.push(call.cpu_s);
            if walls.len() >= 2 && start.elapsed().as_secs_f64() + median(&walls) > seconds {
                break;
            }
        }
        let busy: f64 = walls.iter().sum();
        let within = walls.iter().filter(|&&s| s <= w.limit_s).count();
        m.set("setup_s", median(&setups));
        m.set("place_s", median(&walls));
        m.set("place_cpu_s", median(&cpus));
        m.set("hpwl", tally.hpwl_bits.map_or(f64::NAN, f64::from_bits));
        m.set("peak_rss_mb", sys::peak_rss_mib("self").unwrap_or(f64::NAN));
        m.set(
            "ok_share",
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        );
        m.set("job_p50_s", median(&walls));
        m.set("job_p90_s", p90_or_median(&walls));
        m.set("goodput_jobs_s", within as f64 / busy);
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations,
        metrics: m,
        params: w.params(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_geom::Point;
    use mmp_netlist::MacroId;

    fn small_result() -> (Design, PlacementResult) {
        let design = SyntheticSpec::small("chk", 5, 0, 8, 40, 70, false, 2).generate();
        let mut cfg = PlacerConfig::fast(4);
        cfg.trainer.episodes = 4;
        cfg.mcts.explorations = 6;
        let result = MacroPlacer::new(cfg).place(&design).unwrap();
        (design, result)
    }

    #[test]
    fn a_shipped_placement_passes_the_checks() {
        let (design, result) = small_result();
        assert_eq!(check(&design, &result), Vec::<String>::new());
    }

    #[test]
    fn checks_catch_overlap_escape_and_a_wrong_hpwl() {
        let (design, result) = small_result();

        let mut overlapping = result.clone();
        let c = overlapping.placement.macro_center(MacroId::from_index(0));
        overlapping
            .placement
            .set_macro_center(MacroId::from_index(1), c);
        overlapping.hpwl = overlapping.placement.hpwl(&design);
        assert!(check(&design, &overlapping)[0].contains("overlap"));

        let mut escaped = result.clone();
        let far = Point::new(design.region().right() * 10.0, 0.0);
        escaped
            .placement
            .set_cell_center(CellId::from_index(0), far);
        escaped.hpwl = escaped.placement.hpwl(&design);
        assert!(check(&design, &escaped)[0].contains("outside the region"));

        let mut misreported = result;
        misreported.hpwl = f64::from_bits(misreported.hpwl.to_bits() + 1);
        assert!(check(&design, &misreported)[0].contains("recomputed"));
    }
}
