//! Runtime slack reclamation (extension).
//!
//! The paper's framework locks one speed per task before execution. At
//! runtime, however, extra slack materialises whenever a branch deactivates
//! tasks: downstream tasks become ready earlier than the worst case assumed.
//! A *reclaiming* dispatcher exploits this greedily — when task `τ` is
//! dispatched at time `s`, it may run as slowly as
//!
//! `speed(τ) = WCET(τ) / (L(τ) − s)`
//!
//! where `L(τ) = deadline − rem(τ)` and `rem(τ)` is the worst-case remaining
//! work after `τ`: the longest constraint-graph path from `τ`'s completion
//! to any sink, with every downstream task at its *floor duration* (locked
//! or nominal — see below). Finishing at `L(τ)` still lets every successor
//! complete at its floor duration by the deadline, so the guarantee is
//! inductive.
//!
//! This quantifies how much of the adaptive manager's benefit a purely
//! reactive, per-instance mechanism can recover (and it composes with it).

use crate::instance::{InstanceResult, SimWorkspace};
use ctg_model::{DecisionVector, TaskId};
use ctg_sched::{SchedContext, SchedError, Solution};

/// Executes one instance with greedy runtime slack reclamation.
///
/// With `use_locked = true`, `rem(τ)` assumes downstream tasks run at their
/// *locked* speeds; the induction above then guarantees every dispatched
/// task receives a budget at least as large as its locked duration, so the
/// reclaimed speed is never faster than the locked one — reclamation can
/// only save energy. With `use_locked = false` the dispatcher is purely
/// reactive: `rem(τ)` assumes nominal downstream speeds, budgets are
/// smaller, and the locked speeds are ignored entirely.
///
/// # Errors
///
/// Returns [`SchedError::VectorArity`] on a wrong-size vector and
/// [`SchedError::InvalidParameter`] for a non-positive `min_speed`.
/// # Example
///
/// ```
/// use ctg_sim::{simulate_instance, simulate_instance_reclaiming};
/// # use ctg_model::{BranchProbs, CtgBuilder, DecisionVector};
/// # use mpsoc_platform::PlatformBuilder;
/// # use ctg_sched::{OnlineScheduler, SchedContext};
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
/// # for t in 0..3 { pb.set_wcet_row(t, vec![2.0])?; pb.set_energy_row(t, vec![2.0])?; }
/// # let ctx = SchedContext::new(ctg, pb.build()?)?;
/// # let probs = BranchProbs::uniform(ctx.ctg());
/// # let solution = OnlineScheduler::new().solve(&ctx, &probs)?;
/// let v = DecisionVector::new(vec![0]);
/// let locked = simulate_instance(&ctx, &solution, &v)?;
/// let reclaimed = simulate_instance_reclaiming(&ctx, &solution, &v, 0.05, true)?;
/// assert!(reclaimed.deadline_met);
/// assert!(reclaimed.energy <= locked.energy + 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn simulate_instance_reclaiming(
    ctx: &SchedContext,
    solution: &Solution,
    vector: &DecisionVector,
    min_speed: f64,
    use_locked: bool,
) -> Result<InstanceResult, SchedError> {
    let ctg = ctx.ctg();
    if vector.len() != ctg.num_branches() {
        return Err(SchedError::VectorArity {
            expected: ctg.num_branches(),
            got: vector.len(),
        });
    }
    if !(min_speed > 0.0 && min_speed <= 1.0) {
        return Err(SchedError::InvalidParameter("min_speed must lie in (0, 1]"));
    }
    let platform = ctx.platform();
    let comm = platform.comm();
    let schedule = &solution.schedule;
    let profile = platform.profile();
    let active = vector.active_tasks(ctg, ctx.activation());
    let n = ctg.num_tasks();

    // The plain simulator's constraint graph and processing order.
    let ws = SimWorkspace::new(ctx, solution);

    // rem(τ): worst-case remaining time after τ finishes over the
    // constraint graph (condition-blind, therefore safe), pulled from the
    // successors in reverse processing order.
    let mut succs: Vec<Vec<(TaskId, f64)>> = vec![Vec::new(); n];
    for (d, ps) in ws.preds.iter().enumerate() {
        for &(p, kb, _) in ps {
            succs[p.index()].push((TaskId::new(d), kb));
        }
    }
    // The per-task duration floor the induction assumes downstream: locked
    // durations when improving on the locked solution, nominal otherwise.
    let floor_duration = |t: TaskId| -> f64 {
        let wcet = profile.wcet(t.index(), schedule.pe_of(t));
        if use_locked {
            wcet / solution.speeds.speed(t)
        } else {
            wcet
        }
    };
    let mut rem = vec![0.0_f64; n];
    for &t in ws.order.iter().rev() {
        let mut worst: f64 = 0.0;
        for &(s, kb) in &succs[t.index()] {
            let delay = comm.delay(schedule.pe_of(t), schedule.pe_of(s), kb);
            worst = worst.max(delay + floor_duration(s) + rem[s.index()]);
        }
        rem[t.index()] = worst;
    }

    let deadline = ctg.deadline();
    let mut task_times: Vec<Option<(f64, f64)>> = vec![None; n];
    let mut exec_energy = 0.0;
    let mut makespan: f64 = 0.0;
    for &t in &ws.order {
        if !active[t.index()] {
            continue;
        }
        let pe = schedule.pe_of(t);
        let mut start: f64 = 0.0;
        for &(p, kbytes, _) in &ws.preds[t.index()] {
            if !active[p.index()] {
                continue;
            }
            let (_, p_finish) =
                task_times[p.index()].expect("constraint order processes predecessors first");
            start = start.max(p_finish + comm.delay(schedule.pe_of(p), pe, kbytes));
        }
        let wcet = profile.wcet(t.index(), pe);
        let latest_finish = deadline - rem[t.index()];
        // By induction the budget is at least the duration floor; clamp for
        // numeric robustness anyway.
        let budget = (latest_finish - start).max(floor_duration(t));
        let speed = (wcet / budget).clamp(min_speed, 1.0);
        let duration = platform.exec_time(t.index(), pe, speed);
        let finish = start + duration;
        task_times[t.index()] = Some((start, finish));
        exec_energy += platform.exec_energy(t.index(), pe, speed);
        makespan = makespan.max(finish);
    }
    let mut comm_energy = 0.0;
    for (_, e) in ctg.edges() {
        if active[e.src().index()] && active[e.dst().index()] {
            comm_energy += comm.energy(
                schedule.pe_of(e.src()),
                schedule.pe_of(e.dst()),
                e.comm_kbytes(),
            );
        }
    }
    Ok(InstanceResult {
        energy: exec_energy + comm_energy,
        exec_energy,
        comm_energy,
        makespan,
        deadline_met: makespan <= deadline + 1e-9,
        task_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::simulate_instance;
    use ctg_model::BranchProbs;
    use ctg_sched::test_util::{example1_ctg, uniform_platform};
    use ctg_sched::{dls_schedule, OnlineScheduler};

    fn setup(factor: f64) -> (SchedContext, BranchProbs, Solution) {
        let (ctg, _) = example1_ctg(1_000.0);
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let makespan = dls_schedule(&ctx, &probs).unwrap().makespan();
        let ctx = SchedContext::new(
            ctx.ctg().with_deadline(factor * makespan),
            ctx.platform().clone(),
        )
        .unwrap();
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        (ctx, probs, solution)
    }

    #[test]
    fn reclamation_is_deadline_safe_in_every_scenario() {
        let (ctx, _, solution) = setup(1.4);
        for a in 0..2u8 {
            for b in 0..2u8 {
                let v = DecisionVector::new(vec![a, b]);
                for use_locked in [true, false] {
                    let r = simulate_instance_reclaiming(&ctx, &solution, &v, 0.05, use_locked)
                        .unwrap();
                    assert!(
                        r.deadline_met,
                        "({a},{b}) use_locked={use_locked}: {} > {}",
                        r.makespan,
                        ctx.ctg().deadline()
                    );
                }
            }
        }
    }

    #[test]
    fn reclamation_never_costs_energy_vs_locked_speeds() {
        let (ctx, _, solution) = setup(1.6);
        for a in 0..2u8 {
            for b in 0..2u8 {
                let v = DecisionVector::new(vec![a, b]);
                let plain = simulate_instance(&ctx, &solution, &v).unwrap();
                let reclaimed =
                    simulate_instance_reclaiming(&ctx, &solution, &v, 0.05, true).unwrap();
                assert!(
                    reclaimed.energy <= plain.energy + 1e-9,
                    "({a},{b}): reclaimed {} > locked {}",
                    reclaimed.energy,
                    plain.energy
                );
            }
        }
    }

    #[test]
    fn reclamation_saves_when_branches_skip_work() {
        // The a1 scenario skips τ5..τ7; the reclaiming dispatcher should let
        // τ8 (and friends) run slower than their locked worst-case speeds.
        let (ctx, _, solution) = setup(1.3);
        let v = DecisionVector::new(vec![0, 0]);
        let plain = simulate_instance(&ctx, &solution, &v).unwrap();
        let reclaimed = simulate_instance_reclaiming(&ctx, &solution, &v, 0.05, true).unwrap();
        assert!(
            reclaimed.energy < plain.energy - 1e-9,
            "reclaimed {} should beat locked {}",
            reclaimed.energy,
            plain.energy
        );
    }

    #[test]
    fn locked_floor_bounds_every_task_speed_and_energy() {
        // The documented safety invariant of `use_locked = true`: by the
        // remaining-work induction, every dispatched task's budget is at
        // least its locked duration, so reclamation may only slow tasks
        // down — per task, reclaimed speed ≤ locked speed and reclaimed
        // energy ≤ locked energy, in every scenario.
        let (ctx, _, solution) = setup(1.5);
        let platform = ctx.platform();
        let profile = platform.profile();
        for a in 0..2u8 {
            for b in 0..2u8 {
                let v = DecisionVector::new(vec![a, b]);
                let r = simulate_instance_reclaiming(&ctx, &solution, &v, 0.05, true).unwrap();
                for t in ctx.ctg().tasks() {
                    let Some((start, finish)) = r.task_times[t.index()] else {
                        continue;
                    };
                    let pe = solution.schedule.pe_of(t);
                    let locked = solution.speeds.speed(t);
                    let locked_duration = platform.exec_time(t.index(), pe, locked);
                    let duration = finish - start;
                    assert!(
                        duration + 1e-9 >= locked_duration,
                        "({a},{b}) {t}: reclaimed duration {duration} < locked {locked_duration}"
                    );
                    let speed = profile.wcet(t.index(), pe) / duration;
                    assert!(
                        speed <= locked + 1e-9,
                        "({a},{b}) {t}: reclaimed speed {speed} > locked {locked}"
                    );
                    assert!(
                        platform.exec_energy(t.index(), pe, speed)
                            <= platform.exec_energy(t.index(), pe, locked) + 1e-9,
                        "({a},{b}) {t}: reclaimed energy exceeds locked energy"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_parameters_rejected() {
        let (ctx, _, solution) = setup(1.5);
        let v = DecisionVector::new(vec![0]);
        assert!(simulate_instance_reclaiming(&ctx, &solution, &v, 0.05, true).is_err());
        let v = DecisionVector::new(vec![0, 0]);
        assert!(simulate_instance_reclaiming(&ctx, &solution, &v, 0.0, true).is_err());
    }
}
