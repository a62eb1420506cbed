//! Criticality analysis of committed solutions.
//!
//! After mapping and stretching, the remaining slack structure tells a
//! designer where the schedule is brittle: which tasks sit on
//! deadline-saturated paths (no further stretching possible, sensitive to
//! any overhead) and how much float each task still has. Used by the
//! examples and the overhead ablation to explain *why* transition costs
//! break specific instances.

use crate::context::SchedContext;
use crate::schedule::Schedule;
use crate::sgraph::ScheduledGraph;
use crate::speed::SpeedAssignment;
use ctg_model::{BranchProbs, TaskId};

/// Per-task criticality information.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskCriticality {
    /// The task.
    pub task: TaskId,
    /// Smallest slack (deadline − stretched delay) over the paths spanning
    /// the task; `f64::INFINITY` when no valid path spans it.
    pub float: f64,
    /// Largest activation probability among the minterms of the spanning
    /// path that realizes `float`.
    pub critical_prob: f64,
    /// Whether the task lies on a saturated path (float ≈ 0).
    pub on_critical_path: bool,
}

/// A solution-level criticality report.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalityReport {
    /// Per-task entries, indexed by task id.
    pub tasks: Vec<TaskCriticality>,
    /// Smallest float over all paths (≥ 0 for a deadline-feasible solution).
    pub min_float: f64,
    /// Number of saturated (float ≈ 0) paths.
    pub saturated_paths: usize,
}

impl CriticalityReport {
    /// Tasks on saturated paths, most critical first.
    pub fn critical_tasks(&self) -> Vec<TaskId> {
        let mut v: Vec<&TaskCriticality> =
            self.tasks.iter().filter(|t| t.on_critical_path).collect();
        v.sort_by(|a, b| a.float.partial_cmp(&b.float).expect("finite floats"));
        v.into_iter().map(|t| t.task).collect()
    }
}

/// Tolerance under which a path counts as saturated.
pub const SATURATION_EPS: f64 = 1e-6;

/// Computes the criticality report of a stretched solution.
///
/// Returns `None` when path enumeration exceeds `path_cap` (fall back to
/// coarser reasoning in that case).
/// # Example
///
/// ```
/// use ctg_sched::{critical, OnlineScheduler};
/// # use ctg_model::{BranchProbs, CtgBuilder};
/// # use mpsoc_platform::PlatformBuilder;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut b = CtgBuilder::new("g");
/// # let f = b.add_task("fork");
/// # let x = b.add_task("x");
/// # let y = b.add_task("y");
/// # b.add_cond_edge(f, x, 0, 0.5)?;
/// # b.add_cond_edge(f, y, 1, 0.5)?;
/// # let ctg = b.deadline(30.0).build()?;
/// # let mut pb = PlatformBuilder::new(3);
/// # pb.add_pe("p0");
/// # pb.add_pe("p1");
/// # for t in 0..3 { pb.set_wcet_row(t, vec![2.0, 2.5])?; pb.set_energy_row(t, vec![2.0, 1.8])?; }
/// # pb.uniform_links(4.0, 0.1)?;
/// # let ctx = ctg_sched::SchedContext::new(ctg, pb.build()?)?;
/// # let probs = BranchProbs::uniform(ctx.ctg());
/// let sol = OnlineScheduler::new().solve(&ctx, &probs)?;
/// let report = critical::criticality_report(&ctx, &sol.schedule, &sol.speeds, &probs, 10_000)
///     .expect("small graph enumerates fully");
/// assert!(report.min_float >= -1e-6); // feasible solution
/// # Ok(())
/// # }
/// ```
pub fn criticality_report(
    ctx: &SchedContext,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
    probs: &BranchProbs,
    path_cap: usize,
) -> Option<CriticalityReport> {
    let graph = ScheduledGraph::build(ctx, schedule, probs, path_cap)?;
    let deadline = ctx.ctg().deadline();
    let n = ctx.ctg().num_tasks();
    let mut float = vec![f64::INFINITY; n];
    let mut critical_prob = vec![0.0_f64; n];
    let mut min_float = f64::INFINITY;
    let mut saturated = 0usize;

    for p in graph.paths() {
        let slack = deadline - p.stretched_delay(ctx, schedule, speeds);
        min_float = min_float.min(slack);
        if slack <= SATURATION_EPS {
            saturated += 1;
        }
        for &t in p.tasks() {
            if slack < float[t.index()] - 1e-12 {
                float[t.index()] = slack;
                critical_prob[t.index()] = p.prob();
            } else if (slack - float[t.index()]).abs() <= 1e-12 {
                critical_prob[t.index()] = critical_prob[t.index()].max(p.prob());
            }
        }
    }

    let tasks = (0..n)
        .map(|i| TaskCriticality {
            task: TaskId::new(i),
            float: float[i],
            critical_prob: critical_prob[i],
            on_critical_path: float[i] <= SATURATION_EPS,
        })
        .collect();
    Some(CriticalityReport {
        tasks,
        min_float: if min_float.is_finite() {
            min_float
        } else {
            0.0
        },
        saturated_paths: saturated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineScheduler;
    use crate::speed::SpeedAssignment;
    use crate::test_util::{chain_context, example1_context};

    #[test]
    fn stretched_chain_is_saturated() {
        let (ctx, probs, _) = chain_context(30.0);
        // Exhaustive sweeps drive the single path to saturation.
        let sol = OnlineScheduler::with_config(crate::StretchConfig::exhaustive())
            .solve(&ctx, &probs)
            .unwrap();
        let report = criticality_report(&ctx, &sol.schedule, &sol.speeds, &probs, 10_000).unwrap();
        // The multi-sweep heuristic fills the single chain path (near) full.
        assert!(report.min_float >= 0.0);
        assert!(report.min_float < 1.0, "chain should be nearly saturated");
        // All three chain tasks share the same critical path.
        let criticals = report.critical_tasks();
        if report.saturated_paths > 0 {
            assert_eq!(criticals.len(), 3);
        }
    }

    #[test]
    fn nominal_speeds_leave_float() {
        let (ctx, probs, _) = example1_context();
        let sol = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let nominal = SpeedAssignment::nominal(ctx.ctg().num_tasks());
        let report = criticality_report(&ctx, &sol.schedule, &nominal, &probs, 10_000).unwrap();
        // At nominal speed with a loose deadline nothing is saturated.
        assert_eq!(report.saturated_paths, 0);
        assert!(report.min_float > 0.0);
        assert!(report.critical_tasks().is_empty());
    }

    #[test]
    fn stretched_solution_remains_feasible() {
        let (ctx, probs, _) = example1_context();
        let sol = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let report = criticality_report(&ctx, &sol.schedule, &sol.speeds, &probs, 10_000).unwrap();
        assert!(report.min_float >= -1e-6, "no path may exceed the deadline");
        for t in &report.tasks {
            assert!(t.critical_prob >= 0.0 && t.critical_prob <= 1.0 + 1e-12);
        }
    }
}
