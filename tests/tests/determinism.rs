//! Two-run bitwise determinism regression: the invariant `mmp-lint`'s
//! rules exist to protect. The full flow, run twice in one process on the
//! same design and config, must produce bit-identical placements, HPWL,
//! and run-report counters/gauges — any drift means unordered iteration,
//! OS-seeded randomness, or wall-clock leakage reached a decision.

use mmp_core::{
    MacroPlacer, PlacementResult, PlacerConfig, RunReport, SwapRefineConfig, SyntheticSpec,
};
use mmp_netlist::MacroId;
use mmp_obs::Obs;

fn small_config() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast(6);
    cfg.trainer.episodes = 8;
    cfg.trainer.calibration_episodes = 4;
    cfg.mcts.explorations = 12;
    cfg
}

fn run_config(design: &mmp_netlist::Design, cfg: PlacerConfig) -> (PlacementResult, RunReport) {
    // A fresh Obs per run: shared metrics would hide per-run drift.
    let obs = Obs::metrics_only();
    let result = MacroPlacer::new(cfg)
        .with_obs(obs.clone())
        .place(design)
        .unwrap();
    let report = RunReport::new(design.name(), &result, &obs.snapshot());
    (result, report)
}

fn run_once(design: &mmp_netlist::Design) -> (PlacementResult, RunReport) {
    run_config(design, small_config())
}

#[test]
fn full_flow_is_bitwise_deterministic_across_two_runs() {
    let design = SyntheticSpec::small("det_reg", 10, 2, 14, 120, 200, true, 21).generate();
    let (ra, pa) = run_once(&design);
    let (rb, pb) = run_once(&design);

    // HPWL to the last bit — not an epsilon comparison.
    assert_eq!(ra.hpwl.to_bits(), rb.hpwl.to_bits(), "HPWL drifted");

    // The grid assignment (the MCTS/RL decision output) must be identical.
    assert_eq!(ra.assignment, rb.assignment, "grid assignment drifted");

    // Every macro coordinate, bit for bit.
    for i in 0..design.macros().len() {
        let ca = ra.placement.macro_center(MacroId::from_index(i));
        let cb = rb.placement.macro_center(MacroId::from_index(i));
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cb.x.to_bits(), cb.y.to_bits()),
            "macro {i} moved between runs"
        );
    }

    // Run-report counters and gauges capture per-stage work (solver
    // iterations, search visits, legalization rounds). Wall-clock fields
    // (`timings`, `span_ms`) are excluded: they legitimately vary.
    assert_eq!(pa.counters, pb.counters, "observability counters drifted");
    assert_eq!(
        pa.gauges.keys().collect::<Vec<_>>(),
        pb.gauges.keys().collect::<Vec<_>>(),
        "gauge set drifted"
    );
    for (k, va) in &pa.gauges {
        let vb = pb.gauges[k];
        assert_eq!(va.to_bits(), vb.to_bits(), "gauge {k} drifted");
    }

    // Deterministic report sections beyond the metrics registry.
    assert_eq!(pa.training, pb.training, "training summary drifted");
    assert_eq!(pa.search, pb.search, "search stats drifted");
}

#[test]
fn refine_enabled_flow_is_bitwise_deterministic_across_two_runs() {
    // Same regression with the post-MCTS swap-refinement stage on: the
    // seeded proposal stream and incremental-HPWL accept decisions must
    // replay exactly, including the refine counters in the report.
    let design = SyntheticSpec::small("det_ref", 10, 2, 14, 120, 200, true, 21).generate();
    let cfg = || {
        let mut c = small_config();
        c.refine = Some(SwapRefineConfig {
            moves: 200,
            seed: 11,
        });
        c
    };
    let (ra, pa) = run_config(&design, cfg());
    let (rb, pb) = run_config(&design, cfg());

    assert_eq!(ra.hpwl.to_bits(), rb.hpwl.to_bits(), "HPWL drifted");
    for i in 0..design.macros().len() {
        let ca = ra.placement.macro_center(MacroId::from_index(i));
        let cb = rb.placement.macro_center(MacroId::from_index(i));
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cb.x.to_bits(), cb.y.to_bits()),
            "macro {i} moved between runs"
        );
    }
    let sa = ra.refine.unwrap();
    let sb = rb.refine.unwrap();
    assert_eq!(sa, sb, "refine summary drifted");
    assert!(sa.hpwl_after <= sa.hpwl_before, "refine raised HPWL");
    assert_eq!(
        pa.counters.get("refine.moves"),
        pb.counters.get("refine.moves")
    );
    assert_eq!(pa.counters, pb.counters, "observability counters drifted");
}

#[test]
fn pooled_flow_is_bitwise_deterministic_across_two_runs_and_worker_counts() {
    // The compute pool must be bitwise-neutral: with a fixed summation
    // order in every kernel and reduction, a multi-worker run replays
    // exactly against itself AND against the single-worker flow.
    let design = SyntheticSpec::small("det_pool", 10, 2, 14, 120, 200, true, 21).generate();
    let cfg = |workers: usize| {
        let mut c = small_config();
        c.workers = workers;
        c
    };
    let (ra, pa) = run_config(&design, cfg(4));
    let (rb, pb) = run_config(&design, cfg(4));
    let (rc, _) = run_config(&design, cfg(1));

    assert_eq!(ra.hpwl.to_bits(), rb.hpwl.to_bits(), "HPWL drifted");
    assert_eq!(
        ra.hpwl.to_bits(),
        rc.hpwl.to_bits(),
        "worker count changed the HPWL bits"
    );
    assert_eq!(ra.assignment, rb.assignment, "grid assignment drifted");
    assert_eq!(
        ra.assignment, rc.assignment,
        "worker count changed the assignment"
    );
    for i in 0..design.macros().len() {
        let ca = ra.placement.macro_center(MacroId::from_index(i));
        let cb = rb.placement.macro_center(MacroId::from_index(i));
        let cc = rc.placement.macro_center(MacroId::from_index(i));
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cb.x.to_bits(), cb.y.to_bits()),
            "macro {i} moved between pooled runs"
        );
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cc.x.to_bits(), cc.y.to_bits()),
            "macro {i} moved with the worker count"
        );
    }
    // HPWL and the assignment can hide weight drift that happens not to
    // flip a decision: the trained agent and its curves must match too.
    assert_eq!(ra.training, rb.training, "training history drifted");
    assert_eq!(
        ra.training, rc.training,
        "worker count changed the training history"
    );
    assert_eq!(agent_bits(&ra), agent_bits(&rb), "agent weights drifted");
    assert_eq!(
        agent_bits(&ra),
        agent_bits(&rc),
        "worker count changed the agent weights"
    );
    assert_eq!(pa.counters, pb.counters, "observability counters drifted");
}

/// Bit patterns of every trainable parameter of the shipped agent.
fn agent_bits(result: &PlacementResult) -> Vec<u32> {
    let mut agent = result.agent.clone();
    let mut bits = Vec::new();
    agent
        .net_mut()
        .visit_params(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
    bits
}
