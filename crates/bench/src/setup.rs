//! Shared experiment setup: deadline calibration, biased profiles and
//! prepared workloads.

use ctg_model::{BranchProbs, Ctg, DecisionVector};
use ctg_sched::{dls_schedule, SchedContext};
use ctg_workloads::{cruise, mpeg};
use mpsoc_platform::Platform;
use tgff_gen::TgffConfig;

/// Builds a context whose deadline is `factor ×` the nominal DLS makespan
/// under `probs` — the calibration the paper uses (e.g. "the deadline we
/// used was double of the optimum schedule length").
///
/// # Panics
///
/// Panics when the graph cannot be scheduled on the platform.
pub fn context_with_scaled_deadline(
    ctg: Ctg,
    platform: Platform,
    probs: &BranchProbs,
    factor: f64,
) -> SchedContext {
    let ctx = SchedContext::new(ctg, platform).expect("graph and platform agree");
    let sched = dls_schedule(&ctx, probs).expect("schedulable workload");
    ctx.with_deadline(sched.makespan() * factor)
}

/// A generated random test case ready for experiments.
pub struct PreparedCase {
    /// Scheduling context with calibrated deadline.
    pub ctx: SchedContext,
    /// The generator's "true" average branch probabilities.
    pub probs: BranchProbs,
    /// Short label `a/b/c` as used by the paper's tables.
    pub label: String,
}

/// Generates and calibrates one TGFF case (deadline = `factor ×` makespan).
pub fn prepare_case(cfg: &TgffConfig, num_pes: usize, factor: f64) -> PreparedCase {
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, num_pes);
    let label = format!("{}/{}/{}", cfg.num_tasks, num_pes, cfg.num_branches);
    let ctx = context_with_scaled_deadline(generated.ctg, platform, &generated.probs, factor);
    PreparedCase {
        ctx,
        probs: generated.probs,
        label,
    }
}

/// Prepares the MPEG decoder on its 3-PE platform.
pub fn prepare_mpeg(factor: f64) -> SchedContext {
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let probs = BranchProbs::uniform(&ctg);
    context_with_scaled_deadline(ctg, platform, &probs, factor)
}

/// Prepares the cruise controller on its 5-PE platform
/// (paper: deadline = 2× the optimal schedule length).
pub fn prepare_cruise(factor: f64) -> SchedContext {
    let ctg = cruise::cruise_ctg();
    let platform = cruise::cruise_platform(&ctg);
    let probs = BranchProbs::uniform(&ctg);
    context_with_scaled_deadline(ctg, platform, &probs, factor)
}

/// Mapping-free energy estimate of one scenario: the sum of the average
/// nominal energies of its activated tasks. Used to rank minterms by energy
/// for the biased-profile experiments of Tables 4 and 5.
fn scenario_energy(ctx: &SchedContext, scenario: &ctg_model::Scenario) -> f64 {
    let profile = ctx.platform().profile();
    let n = ctx.ctg().num_tasks();
    (0..n)
        .filter(|&t| scenario.active_tasks()[t])
        .map(|t| {
            let pes = ctx.platform().num_pes();
            (0..pes)
                .map(|p| profile.energy(t, mpsoc_platform::PeId::new(p)))
                .sum::<f64>()
                / pes as f64
        })
        .sum()
}

/// Returns, per fork node, the alternative leading toward the lowest-energy
/// (`lowest = true`) or highest-energy minterm. Forks undecided in the
/// extreme scenario keep alternative 0.
pub fn extreme_minterm_alts(ctx: &SchedContext, lowest: bool) -> Vec<u8> {
    let scenarios = ctx.scenarios().scenarios();
    let pick = scenarios
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let (ea, eb) = (scenario_energy(ctx, a), scenario_energy(ctx, b));
            let ord = ea.partial_cmp(&eb).expect("finite energies");
            if lowest {
                ord
            } else {
                ord.reverse()
            }
        })
        .map(|(i, _)| i)
        .expect("at least one scenario");
    let cube = scenarios[pick].cube();
    ctx.ctg()
        .branch_nodes()
        .iter()
        .map(|&b| cube.alt_of(b).unwrap_or(0))
        .collect()
}

/// Empirical per-fork probabilities of a trace, counting executed forks only
/// (re-exported convenience wrapper over the context's activation
/// analysis).
pub fn profile_trace(ctx: &SchedContext, trace: &[DecisionVector]) -> BranchProbs {
    ctg_workloads::traces::empirical_probs(ctx.ctg(), ctx.activation(), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgff_gen::Category;

    #[test]
    fn deadline_scaling_is_applied() {
        let cfg = TgffConfig::new(11, 20, 2, Category::ForkJoin);
        let case = prepare_case(&cfg, 3, 2.0);
        let sched = dls_schedule(&case.ctx, &case.probs).unwrap();
        let d = case.ctx.ctg().deadline();
        // Deadline ≈ 2× the makespan under the same probabilities (the
        // calibration run uses the identical schedule).
        assert!((d - 2.0 * sched.makespan()).abs() / d < 1e-9);
        assert_eq!(case.label, "20/3/2");
    }

    #[test]
    fn extreme_minterms_differ_when_arms_are_asymmetric() {
        let cfg = TgffConfig::new(12, 25, 3, Category::ForkJoin);
        let case = prepare_case(&cfg, 3, 2.0);
        let low = extreme_minterm_alts(&case.ctx, true);
        let high = extreme_minterm_alts(&case.ctx, false);
        assert_eq!(low.len(), case.ctx.ctg().num_branches());
        // Low- and high-energy minterms disagree on at least one fork for a
        // graph with meaningfully different arms.
        assert_ne!(low, high);
    }

    #[test]
    fn mpeg_and_cruise_prepare() {
        let mpeg_ctx = prepare_mpeg(2.0);
        assert_eq!(mpeg_ctx.ctg().num_tasks(), 40);
        let cruise_ctx = prepare_cruise(2.0);
        assert_eq!(cruise_ctx.ctg().num_tasks(), 32);
        assert!(cruise_ctx.ctg().deadline() > 0.0);
    }
}
