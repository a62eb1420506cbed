//! Schedule and solution validation.
//!
//! Checks the structural invariants the rest of the system relies on:
//! precedence, same-PE serialization among non-exclusive tasks, runnability,
//! and per-scenario deadline feasibility of a stretched solution. Intended
//! for tests, debugging and as a safety net around custom schedulers.

use crate::context::SchedContext;
use crate::schedule::Schedule;
use crate::sgraph::{worst_case_makespan_dp, ScheduledGraph};
use crate::speed::SpeedAssignment;
use ctg_model::TaskId;
use std::error::Error;
use std::fmt;

/// A violated schedule invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleViolation {
    /// A precedence edge is violated (successor starts before the
    /// predecessor finishes plus communication).
    Precedence {
        /// Predecessor task.
        src: TaskId,
        /// Successor task.
        dst: TaskId,
    },
    /// Two non-exclusive tasks overlap on one PE.
    Overlap {
        /// First task.
        a: TaskId,
        /// Second task.
        b: TaskId,
    },
    /// A task is mapped to a PE it cannot run on.
    Unrunnable(TaskId),
    /// Task placed on no PE or on several (inconsistent `pe_order`).
    Placement(TaskId),
    /// A worst-case path of the stretched solution exceeds the deadline.
    DeadlineExceeded {
        /// The path's delay with stretched execution times.
        delay: f64,
        /// The graph deadline.
        deadline: f64,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::Precedence { src, dst } => {
                write!(f, "precedence violated on edge {src} -> {dst}")
            }
            ScheduleViolation::Overlap { a, b } => {
                write!(f, "non-exclusive tasks {a} and {b} overlap on one PE")
            }
            ScheduleViolation::Unrunnable(t) => {
                write!(f, "task {t} mapped to a PE it cannot run on")
            }
            ScheduleViolation::Placement(t) => {
                write!(f, "task {t} has an inconsistent placement")
            }
            ScheduleViolation::DeadlineExceeded { delay, deadline } => {
                write!(
                    f,
                    "worst-case path delay {delay} exceeds deadline {deadline}"
                )
            }
        }
    }
}

impl Error for ScheduleViolation {}

/// Validates the structural invariants of a committed schedule.
///
/// # Errors
///
/// Returns the first violation found.
/// # Example
///
/// ```
/// use ctg_sched::{dls_schedule, validate_schedule};
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
/// let schedule = dls_schedule(&ctx, &probs)?;
/// assert!(validate_schedule(&ctx, &schedule).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn validate_schedule(ctx: &SchedContext, schedule: &Schedule) -> Result<(), ScheduleViolation> {
    let ctg = ctx.ctg();
    let profile = ctx.platform().profile();
    let comm = ctx.platform().comm();

    // Placement: every task appears exactly once across pe_order, on its PE.
    let mut seen = vec![0usize; ctg.num_tasks()];
    for pe in ctx.platform().pes() {
        for &t in schedule.pe_order(pe) {
            seen[t.index()] += 1;
            if schedule.pe_of(t) != pe {
                return Err(ScheduleViolation::Placement(t));
            }
        }
    }
    for t in ctg.tasks() {
        if seen[t.index()] != 1 {
            return Err(ScheduleViolation::Placement(t));
        }
        if !profile.can_run(t.index(), schedule.pe_of(t)) {
            return Err(ScheduleViolation::Unrunnable(t));
        }
    }

    // Precedence including communication delays and implied or-deps.
    for (_, e) in ctg.edges() {
        let arrival = schedule.finish(e.src())
            + comm.delay(
                schedule.pe_of(e.src()),
                schedule.pe_of(e.dst()),
                e.comm_kbytes(),
            );
        if schedule.start(e.dst()) + 1e-9 < arrival {
            return Err(ScheduleViolation::Precedence {
                src: e.src(),
                dst: e.dst(),
            });
        }
    }
    for &(fork, or_node) in ctx.activation().implied_or_deps() {
        if schedule.start(or_node) + 1e-9 < schedule.finish(fork) {
            return Err(ScheduleViolation::Precedence {
                src: fork,
                dst: or_node,
            });
        }
    }

    // No overlap among non-exclusive same-PE pairs.
    for pe in ctx.platform().pes() {
        let order = schedule.pe_order(pe);
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                let (a, b) = (order[i], order[j]);
                if ctx.mutually_exclusive(a, b) {
                    continue;
                }
                let overlap = schedule.start(a) < schedule.finish(b) - 1e-9
                    && schedule.start(b) < schedule.finish(a) - 1e-9;
                if overlap {
                    return Err(ScheduleViolation::Overlap { a, b });
                }
            }
        }
    }
    Ok(())
}

/// Validates a full solution: schedule invariants plus worst-case deadline
/// feasibility of every scheduled-graph path at the assigned speeds. Over
/// the path cap, where the paths are not enumerated, the exact
/// per-scenario worst-case makespan stands in for them.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_solution(
    ctx: &SchedContext,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
) -> Result<(), ScheduleViolation> {
    validate_schedule(ctx, schedule)?;
    let probs = ctg_model::BranchProbs::uniform(ctx.ctg());
    let deadline = ctx.ctg().deadline();
    let exceeded = |delay: &f64| *delay > deadline + 1e-6;
    let violation = match ScheduledGraph::build(ctx, schedule, &probs, crate::DEFAULT_PATH_CAP) {
        Some(graph) => graph.stretched_delays(ctx, schedule, speeds).find(exceeded),
        None => Some(worst_case_makespan_dp(ctx, schedule, speeds)).filter(exceeded),
    };
    match violation {
        Some(delay) => Err(ScheduleViolation::DeadlineExceeded { delay, deadline }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dls::dls_schedule;
    use crate::online::OnlineScheduler;
    use crate::test_util::example1_context;
    use mpsoc_platform::PeId;

    #[test]
    fn dls_output_validates() {
        let (ctx, probs, _) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        assert_eq!(validate_schedule(&ctx, &s), Ok(()));
    }

    #[test]
    fn online_solution_validates() {
        let (ctx, probs, _) = example1_context();
        let sol = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        assert_eq!(validate_solution(&ctx, &sol.schedule, &sol.speeds), Ok(()));
    }

    #[test]
    fn corrupted_start_time_is_caught() {
        let (ctx, probs, ids) = example1_context();
        let mut s = dls_schedule(&ctx, &probs).unwrap();
        // Pull τ2 before its predecessor finishes.
        s.start[ids[1].index()] = 0.0;
        s.finish[ids[1].index()] = 1.0;
        assert!(matches!(
            validate_schedule(&ctx, &s),
            Err(ScheduleViolation::Precedence { .. }) | Err(ScheduleViolation::Overlap { .. })
        ));
    }

    #[test]
    fn misplaced_task_is_caught() {
        let (ctx, probs, ids) = example1_context();
        let mut s = dls_schedule(&ctx, &probs).unwrap();
        // Claim τ1 runs on the other PE without updating pe_order.
        let old = s.assignment[ids[0].index()];
        s.assignment[ids[0].index()] = PeId::new(1 - old.index());
        assert!(matches!(
            validate_schedule(&ctx, &s),
            Err(ScheduleViolation::Placement(_))
        ));
    }

    /// Regression: over the path cap the paths are not enumerated, and the
    /// check used to pass any speeds. A source, nine fully connected layers
    /// of four tasks and a sink have 4^9 paths.
    #[test]
    fn overstretched_solution_over_the_path_cap_is_caught() {
        let mut b = ctg_model::CtgBuilder::new("layers");
        let source = b.add_task("source");
        let mut prev = vec![source];
        for layer in 0..9 {
            let cur: Vec<TaskId> = (0..4)
                .map(|i| b.add_task(format!("l{layer}t{i}")))
                .collect();
            for &u in &prev {
                for &v in &cur {
                    b.add_edge(u, v, 0.0).unwrap();
                }
            }
            prev = cur;
        }
        let sink = b.add_task("sink");
        for &u in &prev {
            b.add_edge(u, sink, 0.0).unwrap();
        }
        let ctg = b.deadline(1000.0).build().unwrap();
        let n = ctg.num_tasks();
        assert_eq!(n, 38);
        let ctx =
            SchedContext::new(ctg, crate::test_util::uniform_platform(n, 2, 1.0, 1.0)).unwrap();
        let probs = ctg_model::BranchProbs::uniform(ctx.ctg());
        let s = dls_schedule(&ctx, &probs).unwrap();
        assert!(ScheduledGraph::build(&ctx, &s, &probs, crate::DEFAULT_PATH_CAP).is_none());

        let mut slow = SpeedAssignment::nominal(n);
        for t in ctx.ctg().tasks() {
            slow.set(t, 0.01);
        }
        let wcm = worst_case_makespan_dp(&ctx, &s, &slow);
        assert_eq!(
            validate_solution(&ctx, &s, &slow),
            Err(ScheduleViolation::DeadlineExceeded {
                delay: wcm,
                deadline: 1000.0
            })
        );
        let nominal = SpeedAssignment::nominal(n);
        assert_eq!(validate_solution(&ctx, &s, &nominal), Ok(()));
    }

    #[test]
    fn overstretched_solution_is_caught() {
        let (ctx, probs, _) = example1_context();
        let sol = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let mut slow = sol.speeds.clone();
        for t in ctx.ctg().tasks() {
            slow.set(t, 0.05);
        }
        assert!(matches!(
            validate_solution(&ctx, &sol.schedule, &slow),
            Err(ScheduleViolation::DeadlineExceeded { .. })
        ));
    }
}
