//! The complete online algorithm: modified DLS + stretching heuristic.

use crate::context::SchedContext;
use crate::dls::dls_schedule;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::speed::{expected_energy, SpeedAssignment};
use crate::stretch::{stretch_schedule, StretchConfig};
use ctg_model::BranchProbs;

/// A complete scheduling/DVFS solution: mapping + order + per-task speeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The committed mapping and ordering.
    pub schedule: Schedule,
    /// The locked per-task speed ratios.
    pub speeds: SpeedAssignment,
}

impl Solution {
    /// Expected energy of this solution under `probs`.
    pub fn expected_energy(&self, ctx: &SchedContext, probs: &BranchProbs) -> f64 {
        expected_energy(ctx, probs, &self.schedule, &self.speeds)
    }

    /// Worst-case makespan of this solution: the longest scheduled-graph
    /// chain at the stretched speeds, maximised over all scenarios.
    ///
    /// Computed by an `O(scenarios · (V+E))` longest-path dynamic program —
    /// exact (no path cap, no fallback estimate) and cheap enough to run on
    /// every adoption comparison, unlike the full path enumeration it
    /// replaced.
    pub fn worst_case_makespan(&self, ctx: &SchedContext) -> f64 {
        crate::sgraph::worst_case_makespan_dp(ctx, &self.schedule, &self.speeds)
    }
}

/// The paper's online scheduling and DVFS algorithm.
///
/// Low-complexity by construction (list scheduling plus one stretching pass),
/// it is fast enough to be re-invoked at runtime by the
/// [adaptive manager](crate::AdaptiveScheduler).
///
/// # Example
///
/// ```
/// use ctg_sched::{OnlineScheduler, SchedContext};
/// use ctg_model::{BranchProbs, CtgBuilder};
/// use mpsoc_platform::PlatformBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CtgBuilder::new("g");
/// let a = b.add_task("a");
/// let c = b.add_task("c");
/// b.add_edge(a, c, 1.0)?;
/// let ctg = b.deadline(30.0).build()?;
///
/// let mut pb = PlatformBuilder::new(2);
/// pb.add_pe("p0");
/// pb.set_wcet_row(0, vec![2.0])?;
/// pb.set_wcet_row(1, vec![3.0])?;
/// pb.set_energy_row(0, vec![2.0])?;
/// pb.set_energy_row(1, vec![3.0])?;
/// let platform = pb.build()?;
///
/// let ctx = SchedContext::new(ctg, platform)?;
/// let probs = BranchProbs::uniform(ctx.ctg());
/// let solution = OnlineScheduler::new().solve(&ctx, &probs)?;
/// assert!(solution.expected_energy(&ctx, &probs) < 5.0); // stretched < nominal
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineScheduler {
    cfg: StretchConfig,
}

impl OnlineScheduler {
    /// Creates a scheduler with default stretching configuration.
    pub fn new() -> Self {
        OnlineScheduler::default()
    }

    /// Creates a scheduler with a custom stretching configuration.
    pub fn with_config(cfg: StretchConfig) -> Self {
        OnlineScheduler { cfg }
    }

    /// The stretching configuration in use.
    pub fn config(&self) -> &StretchConfig {
        &self.cfg
    }

    /// Maps, orders and stretches the context's CTG under `probs`.
    ///
    /// # Errors
    ///
    /// Propagates mapping infeasibility and configuration errors, and
    /// returns [`SchedError::DeadlineUnreachable`] when even the nominal
    /// (full-speed) schedule's worst-case makespan misses the deadline —
    /// stretching cannot repair an infeasible mapping.
    pub fn solve(&self, ctx: &SchedContext, probs: &BranchProbs) -> Result<Solution, SchedError> {
        let schedule = dls_schedule(ctx, probs)?;
        check_deadline(ctx, &schedule)?;
        let speeds = stretch_schedule(ctx, probs, &schedule, &self.cfg)?;
        Ok(Solution { schedule, speeds })
    }

    /// Like [`OnlineScheduler::solve`], but with warm-start state carried
    /// in `workspace` across calls — bit-for-bit the same solutions and
    /// errors, structurally incremental when only the probabilities moved
    /// since the previous solve (see
    /// [`SolverWorkspace`](crate::SolverWorkspace)).
    ///
    /// # Errors
    ///
    /// Same as [`OnlineScheduler::solve`].
    pub fn solve_with_workspace(
        &self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        workspace: &mut crate::workspace::SolverWorkspace,
    ) -> Result<Solution, SchedError> {
        workspace.solve(&self.cfg, ctx, probs)
    }
}

/// The pipeline's check between mapping and stretching: stretching only
/// slows tasks down, so it cannot repair a schedule whose nominal makespan
/// already misses the deadline.
pub(crate) fn check_deadline(ctx: &SchedContext, schedule: &Schedule) -> Result<(), SchedError> {
    let makespan = schedule.makespan();
    let deadline = ctx.ctg().deadline();
    if makespan > deadline + 1e-9 {
        return Err(SchedError::DeadlineUnreachable { makespan, deadline });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::example1_context;

    #[test]
    fn solve_produces_consistent_solution() {
        let (ctx, probs, _) = example1_context();
        let sol = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        assert_eq!(sol.schedule.num_tasks(), ctx.ctg().num_tasks());
        for t in ctx.ctg().tasks() {
            let s = sol.speeds.speed(t);
            assert!(s > 0.0 && s <= 1.0);
        }
        let nominal = Solution {
            schedule: sol.schedule.clone(),
            speeds: crate::SpeedAssignment::nominal(ctx.ctg().num_tasks()),
        };
        assert!(sol.expected_energy(&ctx, &probs) <= nominal.expected_energy(&ctx, &probs));
    }

    #[test]
    fn probability_shift_changes_solution_energy() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, t3, ..] = ids;
        let sol_uniform = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let mut skew = probs.clone();
        skew.set(t3, vec![0.95, 0.05]).unwrap();
        let sol_skew = OnlineScheduler::new().solve(&ctx, &skew).unwrap();
        // A solution optimized for the skewed distribution must evaluate at
        // least as well under that distribution as the uniform solution.
        let e_skew = sol_skew.expected_energy(&ctx, &skew);
        let e_cross = sol_uniform.expected_energy(&ctx, &skew);
        assert!(e_skew <= e_cross + 1e-9);
    }
}
