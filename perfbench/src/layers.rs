//! Per-layer numbers, timed from outside the library.
//!
//! The flow is replayed stage by stage through the public calls that
//! `MacroPlacer::place` makes, with a span around each call; then each
//! layer's public entry point is timed on inputs captured from the replay.
//! A layer's busy time is its per-call median times the number of calls
//! the placement made, taken from `TrainingHistory`, `SearchStats`, the
//! group count and the metrics snapshot. Nothing inside the library is
//! instrumented for this.

use crate::report::Metrics;
use crate::stats::median;
use mmp_analytic::{GlobalPlacer, GlobalPlacerConfig};
use mmp_core::{PlacementResult, PlacerConfig};
use mmp_legal::{MacroLegalizer, SwapRefiner};
use mmp_mcts::MctsPlacer;
use mmp_netlist::Design;
use mmp_nn::{Adam, Optimizer};
use mmp_obs::MetricsSnapshot;
use mmp_pool::ThreadPool;
use mmp_rl::{AgentConfig, InferenceCtx, PlacementEnv, StateRef, Trainer};
use std::time::Instant;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time in ms of `reps` calls of `f`, plus the last output.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f();
        times.push(ms_since(t));
        out = Some(v);
    }
    // why: reps.max(1) runs the closure at least once.
    #[allow(clippy::unwrap_used)]
    (median(&times), out.unwrap())
}

/// Floating-point operations of one batch-1 forward pass, computed from the
/// architecture (convolutions and linear layers, two FLOPs per
/// multiply-add; normalisation and activations are not counted).
pub fn forward_flops(c: &AgentConfig) -> f64 {
    let z2 = (c.zeta * c.zeta) as f64;
    let f = c.channels as f64;
    let conv = |cin: f64, cout: f64, k: f64| 2.0 * cin * cout * k * k * z2;
    let lin = |i: f64, o: f64| 2.0 * i * o;
    conv(1.0, f, 3.0)
        + c.res_blocks as f64 * 2.0 * conv(f, f, 3.0)
        + conv(f, 2.0, 1.0)
        + lin(2.0 * z2, z2)
        + conv(f + 2.0, 1.0, 1.0)
        + lin(z2, c.zeta as f64)
        + lin(c.zeta as f64, z2)
        + lin(z2, 1.0)
}

/// Optimizer updates and 64-transition chunks an A2C run of `episodes`
/// episodes of `groups` steps makes with the trainer's update schedule.
pub fn update_schedule(episodes: usize, update_every: usize, groups: usize) -> (usize, usize) {
    const MAX_UPDATE_BATCH: usize = 64;
    let (mut updates, mut chunks, mut buffered) = (0, 0, 0);
    for episode in 0..episodes {
        buffered += groups;
        if (episode + 1) % update_every.max(1) == 0 || episode + 1 == episodes {
            updates += 1;
            chunks += buffered.div_ceil(MAX_UPDATE_BATCH);
            buffered = 0;
        }
    }
    (updates, chunks)
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

/// Replays `reference` (a `MacroPlacer::place` result for `design` under
/// `cfg`) stage by stage and times every layer. `place_ms` is the untraced
/// wall time the busy shares are taken against; `snapshot` holds the
/// counters of a metrics-only run of the same placement.
///
/// # Errors
///
/// A description of the first stage that failed in the replay.
pub fn measure(
    design: &Design,
    cfg: &PlacerConfig,
    reference: &PlacementResult,
    snapshot: &MetricsSnapshot,
    place_ms: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let pool = ThreadPool::try_new(cfg.workers).map_err(|e| e.to_string())?;

    // --- stage-by-stage replay -------------------------------------------
    let t = Instant::now();
    let trainer = Trainer::try_new(design, cfg.trainer.clone()).map_err(|e| e.to_string())?;
    let preprocess_ms = ms_since(t);
    let t = Instant::now();
    let outcome = trainer
        .train_with_deadline(None)
        .map_err(|e| e.to_string())?;
    let train_ms = ms_since(t);
    let t = Instant::now();
    let mut ctx = InferenceCtx::new().with_exec(pool);
    let search = MctsPlacer::new(cfg.mcts.clone()).place_with_ctx_deadline(
        &trainer,
        &outcome.agent,
        &outcome.scale,
        &mut ctx,
        None,
    );
    let search_ms = ms_since(t);
    let t = Instant::now();
    let legal = MacroLegalizer::new()
        .legalize_with_deadline(
            design,
            trainer.coarse(),
            &search.assignment,
            trainer.grid(),
            None,
        )
        .map_err(|e| e.to_string())?;
    let final_legalize_ms = ms_since(t);
    let final_placer = GlobalPlacer::new(cfg.final_placer.clone());
    let t = Instant::now();
    let out = final_placer
        .clone()
        .with_pool(pool)
        .place_cells(design, &legal.placement);
    let final_cells_ms = ms_since(t);
    let (mut hpwl, mut refine_ms, mut accept_ratio) = (out.hpwl, 0.0, 0.0);
    if let Some(rcfg) = cfg.refine {
        let t = Instant::now();
        let refined = SwapRefiner::new(rcfg).refine(design, &out.placement, None);
        refine_ms = ms_since(t);
        hpwl = refined.hpwl_after;
        accept_ratio = refined.accepted as f64 / refined.proposed.max(1) as f64;
    }
    let exact = hpwl.to_bits() == reference.hpwl.to_bits()
        && search.assignment == reference.assignment
        && search.stats == reference.mcts_stats;

    // --- per-layer timing on the replay's inputs --------------------------
    // Preprocessing is the prototype placement plus clustering; the two are
    // timed alternately so both medians see the same machine.
    let (mut prep, mut mixed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        prep.push(time_median(1, || Trainer::try_new(design, cfg.trainer.clone())).0);
        mixed.push(
            time_median(1, || {
                GlobalPlacer::new(GlobalPlacerConfig::fast()).place_mixed(design)
            })
            .0,
        );
    }
    let place_mixed_ms = median(&mixed);
    let grid = trainer.grid().clone();
    let actions: Vec<usize> = search
        .assignment
        .iter()
        .map(|g| grid.flat_index(*g))
        .collect();
    let mut env = PlacementEnv::new(design, trainer.coarse(), grid);
    let groups = env.episode_len();
    let mut states = Vec::with_capacity(groups);
    for &a in &actions {
        states.push(env.state());
        env.step(a);
    }
    // One training step: observe (the Eq. 4 availability rebuild) and act.
    let (episode_ms, _) = time_median(5, || {
        env.reset();
        for &a in &actions {
            let _ = env.state();
            env.step(a);
        }
    });
    let (score_ms, _) = time_median(3, || trainer.wirelength_of(&env));
    let (legalize_ms, legal_fast) = time_median(3, || {
        MacroLegalizer::new().legalize(design, trainer.coarse(), &search.assignment, trainer.grid())
    });
    let legal_fast = legal_fast.map_err(|e| e.to_string())?;
    let (cells_fast_ms, _) = time_median(3, || {
        GlobalPlacer::new(GlobalPlacerConfig::fast()).place_cells(design, &legal_fast.placement)
    });
    let mut finals = Vec::new();
    for workers in [1, 2] {
        let placer = final_placer
            .clone()
            .with_pool(ThreadPool::try_new(workers).map_err(|e| e.to_string())?);
        finals.push(time_median(3, || {
            placer.place_cells(design, &legal.placement)
        }));
    }
    if finals[0].1 != finals[1].1 || finals[0].1.hpwl.to_bits() != finals[1].1.hpwl.to_bits() {
        return Err("place_cells output differs between 1 and 2 pool workers".into());
    }
    let final_ms = if cfg.workers >= 2 {
        finals[1].0
    } else {
        finals[0].0
    };

    let agent = &outcome.agent;
    let probe = &states[groups / 2];
    let mut fctx = InferenceCtx::new();
    let (forward_ms, _) = time_median(30, || agent.policy_value(probe, &mut fctx));
    let mut trained = agent.clone();
    let refs: Vec<StateRef<'_>> = states
        .iter()
        .cycle()
        .take(64)
        .map(|s| StateRef {
            s_p: &s.s_p,
            s_a: &s.s_a,
            t: s.t,
            total: s.total,
        })
        .collect();
    let targets: Vec<(usize, f32)> = actions.iter().cycle().take(64).map(|&a| (a, 0.5)).collect();
    let beta = cfg.trainer.entropy_beta;
    let (chunk_ms, _) = time_median(3, || {
        let net = trained.net_mut();
        let _ = net.forward_train_batch(&refs);
        net.backward_batch(&targets, beta);
    });
    let mut opt = Adam::new(cfg.trainer.lr);
    let (optim_ms, _) = time_median(5, || {
        opt.begin_step();
        trained.net_mut().visit_params(&mut |p| opt.update(p));
    });

    // --- call counts -------------------------------------------------------
    let stats = reference.mcts_stats;
    let episodes = reference.training.episode_rewards.len();
    let calibration = cfg.trainer.calibration_episodes.max(1);
    let (updates, chunks) = update_schedule(episodes, cfg.trainer.update_every, groups);
    let forward_calls = episodes * groups + stats.batched_calls + stats.policy_greedy_groups;
    let scored = calibration + episodes + stats.terminal_evaluations;
    let nn_busy_ms =
        forward_calls as f64 * forward_ms + chunks as f64 * chunk_ms + updates as f64 * optim_ms;

    m.set("core.preprocess_ms", preprocess_ms);
    m.set("core.train_ms", train_ms);
    m.set("core.search_ms", search_ms);
    m.set("core.finalize_ms", final_legalize_ms + final_cells_ms);
    m.set("core.refine_ms", refine_ms);
    m.set(
        "core.degradations",
        reference.degradation.events.len() as f64,
    );
    m.set("core.replay_exact", if exact { 1.0 } else { 0.0 });
    m.set("nn.forward_ms", forward_ms);
    m.set("nn.forward_calls", forward_calls as f64);
    m.set("nn.train_chunk_ms", chunk_ms);
    m.set("nn.train_chunks", chunks as f64);
    m.set("nn.optim_step_ms", optim_ms);
    m.set(
        "nn.forward_gflops",
        forward_flops(agent.config()) / (forward_ms * 1e6),
    );
    m.set("nn.busy_share", nn_busy_ms / place_ms);
    m.set("rl.episode_score_ms", score_ms);
    m.set("rl.scored_episodes", scored as f64);
    m.set("rl.env_step_us", episode_ms * 1e3 / groups.max(1) as f64);
    m.set("rl.env_steps", ((calibration + episodes) * groups) as f64);
    m.set("rl.score_busy_share", scored as f64 * score_ms / place_ms);
    m.set("legal.legalize_ms", legalize_ms);
    m.set(
        "legal.global_rounds",
        counter(snapshot, "legal.global_rounds"),
    );
    m.set(
        "legal.global_fallback",
        counter(snapshot, "legal.global_fallback"),
    );
    m.set(
        "legal.fallback_cells",
        counter(snapshot, "legal.fallback_cells"),
    );
    m.set("legal.refine_ms", refine_ms);
    m.set("legal.refine_accept_ratio", accept_ratio);
    m.set("analytic.place_mixed_ms", place_mixed_ms);
    m.set("analytic.place_cells_fast_ms", cells_fast_ms);
    m.set("analytic.place_cells_final_ms", final_ms);
    m.set("analytic.cg_iters", counter(snapshot, "analytic.cg_iters"));
    m.set(
        "analytic.qp_solves",
        counter(snapshot, "analytic.qp_solves"),
    );
    m.set(
        "analytic.spread_iters",
        counter(snapshot, "analytic.spread_iters"),
    );
    m.set("cluster.coarsen_ms", median(&prep) - place_mixed_ms);
    m.set("mcts.explorations", stats.explorations as f64);
    m.set("mcts.value_evaluations", stats.value_evaluations as f64);
    m.set(
        "mcts.terminal_evaluations",
        stats.terminal_evaluations as f64,
    );
    m.set("mcts.nodes", stats.nodes as f64);
    m.set(
        "mcts.useful_eval_ratio",
        stats.value_evaluations as f64
            / (stats.value_evaluations + stats.wasted_evaluations).max(1) as f64,
    );
    m.set(
        "mcts.self_ms",
        search_ms
            - stats.batched_calls as f64 * forward_ms
            - stats.terminal_evaluations as f64 * score_ms,
    );
    m.set("pool.place_cells_final_ms_w1", finals[0].0);
    m.set("pool.place_cells_final_ms_w2", finals[1].0);
    m.set("pool.speedup_w2", finals[0].0 / finals[1].0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_schedule_matches_the_trainer_cadence() {
        // 60 episodes, update every 10, 10 groups: 6 updates of 100
        // transitions, 2 chunks each.
        assert_eq!(update_schedule(60, 10, 10), (6, 12));
        // A trailing partial window still updates.
        assert_eq!(update_schedule(25, 10, 7), (3, 2 + 2 + 1));
        assert_eq!(update_schedule(0, 10, 7), (0, 0));
    }

    #[test]
    fn forward_flops_grow_with_the_network() {
        let tiny = forward_flops(&AgentConfig::tiny(8));
        let paper = forward_flops(&AgentConfig::paper());
        assert!(tiny > 0.0 && paper > 100.0 * tiny);
    }
}
