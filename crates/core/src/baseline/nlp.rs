//! NLP-style iterative stretching optimizer.
//!
//! Reference algorithm 2 replaces the heuristic stretching stage with a
//! non-linear program: minimize expected energy
//!
//! `Σ_τ prob(τ) · E(τ) · (wcet_τ / (wcet_τ + x_τ))²`
//!
//! over task extensions `x_τ ≥ 0`, subject to every scheduled-graph path
//! meeting the deadline. The objective is convex in `x` and the constraints
//! are linear, so a projected-gradient scheme with feasibility repair
//! converges; we implement it from scratch (the paper notes the original NLP
//! solver is so slow it cannot be applied at runtime — our reproduction
//! preserves that asymmetry, see the Criterion benches).

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::sgraph::ScheduledGraph;
use crate::speed::SpeedAssignment;
use ctg_model::{BranchProbs, TaskId};

/// Parameters of the iterative optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct NlpConfig {
    /// Gradient iterations.
    pub iterations: usize,
    /// Initial step size (scaled by the deadline).
    pub step: f64,
    /// Lower bound on speed ratios.
    pub min_speed: f64,
    /// Path enumeration cap (shared with the heuristic).
    pub path_cap: usize,
}

impl Default for NlpConfig {
    fn default() -> Self {
        NlpConfig {
            iterations: 30_000,
            step: 0.05,
            min_speed: 0.05,
            path_cap: crate::sgraph::DEFAULT_PATH_CAP,
        }
    }
}

/// Solves the stretching NLP for a committed schedule.
///
/// # Errors
///
/// Returns [`SchedError::InvalidParameter`] for a degenerate configuration.
pub fn nlp_stretch(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &NlpConfig,
) -> Result<SpeedAssignment, SchedError> {
    if cfg.iterations == 0 {
        return Err(SchedError::InvalidParameter("iterations must be positive"));
    }
    if !(cfg.min_speed > 0.0 && cfg.min_speed <= 1.0) {
        return Err(SchedError::InvalidParameter("min_speed must lie in (0, 1]"));
    }
    let graph = match ScheduledGraph::build(ctx, schedule, probs, cfg.path_cap) {
        Some(g) => g,
        None => {
            // Pathological path count: defer to the heuristic's fallback.
            return crate::stretch::stretch_schedule(
                ctx,
                probs,
                schedule,
                &crate::stretch::StretchConfig {
                    min_speed: cfg.min_speed,
                    path_cap: cfg.path_cap,
                    ..Default::default()
                },
            );
        }
    };

    let ctg = ctx.ctg();
    let n = ctg.num_tasks();
    let deadline = ctg.deadline();
    let profile = ctx.platform().profile();
    let wcet: Vec<f64> = (0..n)
        .map(|t| profile.wcet(t, schedule.pe_of(TaskId::new(t))))
        .collect();
    let coeff: Vec<f64> = (0..n)
        .map(|t| {
            let tid = TaskId::new(t);
            ctx.task_prob(tid, probs) * profile.energy(t, schedule.pe_of(tid)) * wcet[t] * wcet[t]
        })
        .collect();
    // Fixed (communication) part of each path's delay.
    let base_delay: Vec<f64> = graph
        .paths()
        .map(|p| p.delay() - p.tasks().iter().map(|&t| wcet[t.index()]).sum::<f64>())
        .collect();
    let path_tasks: Vec<&[TaskId]> = graph.paths().map(|p| p.tasks()).collect();

    let mut x = vec![0.0_f64; n];
    let x_max: Vec<f64> = wcet
        .iter()
        .map(|&w| w * (1.0 / cfg.min_speed - 1.0))
        .collect();

    let path_delay = |x: &[f64], pi: usize| -> f64 {
        base_delay[pi]
            + path_tasks[pi]
                .iter()
                .map(|&t| wcet[t.index()] + x[t.index()])
                .sum::<f64>()
    };

    let mut step = cfg.step * deadline;
    for iter in 0..cfg.iterations {
        // Gradient of the objective: dE/dx_τ = −2·coeff_τ/(w+x)³ (< 0), so
        // ascent in −gradient direction increases x.
        for t in 0..n {
            let tw = wcet[t] + x[t];
            let g = 2.0 * coeff[t] / (tw * tw * tw);
            x[t] = (x[t] + step * g).clamp(0.0, x_max[t]);
        }
        // Feasibility repair: shrink the extensions on violated paths.
        for _ in 0..50 {
            let mut violated = false;
            for (pi, tasks) in path_tasks.iter().enumerate() {
                let d = path_delay(&x, pi);
                if d > deadline + 1e-9 {
                    violated = true;
                    let stretchable: f64 = tasks.iter().map(|&t| x[t.index()]).sum();
                    if stretchable <= 0.0 {
                        continue;
                    }
                    let excess = d - deadline;
                    let scale = ((stretchable - excess) / stretchable).max(0.0);
                    for &t in tasks.iter() {
                        x[t.index()] *= scale;
                    }
                }
            }
            if !violated {
                break;
            }
        }
        // Diminishing steps for convergence.
        if iter % 500 == 499 {
            step *= 0.9;
        }
    }

    let mut speeds = SpeedAssignment::nominal(n);
    for t in 0..n {
        if x[t] > 0.0 {
            speeds.set(TaskId::new(t), wcet[t] / (wcet[t] + x[t]));
        }
    }
    Ok(speeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dls::dls_schedule;
    use crate::speed::expected_energy;
    use crate::stretch::{stretch_schedule, StretchConfig};
    use crate::test_util::{chain_context, example1_context};

    #[test]
    fn nlp_is_deadline_safe() {
        let (ctx, probs, _) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let speeds = nlp_stretch(&ctx, &probs, &sched, &NlpConfig::default()).unwrap();
        let graph = ScheduledGraph::build(&ctx, &sched, &probs, 100_000).unwrap();
        let profile = ctx.platform().profile();
        for p in graph.paths() {
            let d: f64 = p.delay()
                + p.tasks()
                    .iter()
                    .map(|&t| {
                        let w = profile.wcet(t.index(), sched.pe_of(t));
                        w / speeds.speed(t) - w
                    })
                    .sum::<f64>();
            assert!(
                d <= ctx.ctg().deadline() + 1e-6,
                "path delay {d} over deadline"
            );
        }
    }

    #[test]
    fn nlp_beats_or_matches_heuristic() {
        let (ctx, probs, _) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let heuristic = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        let nlp = nlp_stretch(&ctx, &probs, &sched, &NlpConfig::default()).unwrap();
        let e_h = expected_energy(&ctx, &probs, &sched, &heuristic);
        let e_n = expected_energy(&ctx, &probs, &sched, &nlp);
        // The optimizer should be at least competitive (small tolerance for
        // early stopping).
        assert!(e_n <= e_h * 1.02, "nlp {e_n} vs heuristic {e_h}");
    }

    #[test]
    fn nlp_near_optimal_on_chain() {
        // Single path, equal tasks: the optimum stretches every task by the
        // same factor deadline/Σwcet.
        let (ctx, probs, _) = chain_context(18.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let speeds = nlp_stretch(&ctx, &probs, &sched, &NlpConfig::default()).unwrap();
        // Optimal speed = 6/18 = 1/3 per task.
        for t in ctx.ctg().tasks() {
            assert!(
                (speeds.speed(t) - 1.0 / 3.0).abs() < 0.05,
                "speed {} far from optimum 1/3",
                speeds.speed(t)
            );
        }
    }

    #[test]
    fn rejects_bad_config() {
        let (ctx, probs, _) = chain_context(18.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let bad = NlpConfig {
            iterations: 0,
            ..Default::default()
        };
        assert!(nlp_stretch(&ctx, &probs, &sched, &bad).is_err());
    }
}
