//! Modified dynamic-level scheduling (paper §III.A).
//!
//! A list scheduler that maps and orders tasks jointly with communication
//! awareness. For every (ready task, PE) pair the dynamic level
//!
//! `DL(τ, p) = SL(τ) − AT(τ, p) + δ(τ, p)`
//!
//! is evaluated and the best pair committed. `AT` is the earliest start of
//! `τ` on `p`, accounting for (a) the arrival of predecessor data over the
//! communication links, (b) the implied wait of or-nodes on the branch fork
//! nodes deciding their predecessors, and (c) processor availability —
//! where, unlike classical DLS, **mutually exclusive tasks may overlap on
//! the same PE** because at most one of them executes in any run.

use crate::budget::WorkMeter;
use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::static_level::{delta, static_levels};
use ctg_model::{BranchProbs, TaskId};
use mpsoc_platform::PeId;

/// Runs the modified DLS algorithm with probability-aware static levels.
///
/// # Errors
///
/// Returns [`SchedError::NoFeasiblePe`] when some ready task cannot start on
/// any PE (unrunnable everywhere or missing communication links).
/// # Example
///
/// ```
/// use ctg_sched::dls_schedule;
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
/// assert!(schedule.makespan() > 0.0);
/// assert_eq!(schedule.num_tasks(), 3);
/// # Ok(())
/// # }
/// ```
pub fn dls_schedule(ctx: &SchedContext, probs: &BranchProbs) -> Result<Schedule, SchedError> {
    let sl = static_levels(ctx, probs);
    dls_with_levels(ctx, &sl, true)
}

/// Runs DLS with caller-supplied static levels.
///
/// `exploit_mutex` controls whether mutually exclusive tasks may overlap on
/// one PE (the paper's modification); reference algorithm 1 disables it.
///
/// # Errors
///
/// Same as [`dls_schedule`].
pub fn dls_with_levels(
    ctx: &SchedContext,
    sl: &[f64],
    exploit_mutex: bool,
) -> Result<Schedule, SchedError> {
    dls_with_levels_metered(ctx, sl, exploit_mutex, &mut WorkMeter::unlimited())
}

/// Whether `(dl, at, t, pe)` beats the current `best`: higher dynamic
/// level, then earlier start, then the total (task, PE) order — each level
/// with the historical `1e-12` epsilon. The epsilon makes the relation
/// non-transitive, so the winner depends on the scan order too.
#[inline]
fn beats(best: Option<(f64, f64, TaskId, PeId)>, dl: f64, at: f64, t: TaskId, pe: PeId) -> bool {
    match best {
        None => true,
        Some((bdl, bat, bt, bpe)) => {
            dl > bdl + 1e-12
                || ((dl - bdl).abs() <= 1e-12
                    && (at < bat - 1e-12 || ((at - bat).abs() <= 1e-12 && (t, pe) < (bt, bpe))))
        }
    }
}

/// [`dls_with_levels`] with a work budget: every runnable (ready task, PE)
/// candidate evaluated charges one unit to `meter`.
///
/// The candidate count is a pure function of the scheduling problem — the
/// ready-set evolution depends only on the compiled precedence graph and
/// the committed decisions, which are deterministic — so a budget verdict
/// is reproducible regardless of where or when the solve runs. With an
/// unlimited meter this is exactly `dls_with_levels`.
///
/// # Errors
///
/// [`SchedError::SolveBudgetExceeded`] when the meter's budget is crossed,
/// plus everything [`dls_schedule`] can return.
pub fn dls_with_levels_metered(
    ctx: &SchedContext,
    sl: &[f64],
    exploit_mutex: bool,
    meter: &mut WorkMeter,
) -> Result<Schedule, SchedError> {
    let ctg = ctx.ctg();
    let platform = ctx.platform();
    let profile = platform.profile();
    let n = ctg.num_tasks();

    // Combined precedence (CTG edges plus implied or-node dependencies),
    // compiled once per context.
    let cg = ctx.compiled();
    let mut remaining: Vec<usize> = ctg.tasks().map(|t| cg.num_preds(t)).collect();

    let mut ready: Vec<TaskId> = (0..n)
        .filter(|&t| remaining[t] == 0)
        .map(TaskId::new)
        .collect();
    let mut scheduled = vec![false; n];
    let mut assignment = vec![PeId::new(0); n];
    let mut start = vec![0.0_f64; n];
    let mut finish = vec![0.0_f64; n];
    let mut pe_order: Vec<Vec<TaskId>> = vec![Vec::new(); platform.num_pes()];
    let mut task_order = Vec::with_capacity(n);

    while !ready.is_empty() {
        let mut best: Option<(f64, f64, TaskId, PeId)> = None; // (dl, at, task, pe)
        for &t in &ready {
            for pe in platform.pes() {
                if !profile.can_run(t.index(), pe) {
                    continue;
                }
                meter.charge(1)?;
                let at = earliest_start(
                    ctx,
                    cg.preds(t),
                    t,
                    pe,
                    &scheduled,
                    &assignment,
                    &finish,
                    &pe_order,
                    exploit_mutex,
                );
                if !at.is_finite() {
                    continue; // missing link to a predecessor's PE
                }
                let dl = sl[t.index()] - at + delta(ctx, t, pe);
                if beats(best, dl, at, t, pe) {
                    best = Some((dl, at, t, pe));
                }
            }
        }
        let (_, at, t, pe) = best.ok_or_else(|| SchedError::NoFeasiblePe(ready[0]))?;

        let wcet = profile.wcet(t.index(), pe);
        scheduled[t.index()] = true;
        assignment[t.index()] = pe;
        start[t.index()] = at;
        finish[t.index()] = at + wcet;
        let pos = pe_order[pe.index()]
            .binary_search_by(|&x| {
                start[x.index()]
                    .partial_cmp(&at)
                    .expect("start times are finite")
            })
            .unwrap_or_else(|p| p);
        pe_order[pe.index()].insert(pos, t);
        task_order.push(t);

        ready.retain(|&x| x != t);
        for &s in cg.succs(t) {
            remaining[s.index()] -= 1;
            if remaining[s.index()] == 0 {
                ready.push(s);
            }
        }
    }

    debug_assert_eq!(task_order.len(), n, "all tasks must be scheduled");
    Ok(Schedule {
        assignment,
        start,
        finish,
        pe_order,
        task_order,
    })
}

/// List-schedules tasks onto a *fixed* mapping: at every step the ready task
/// with the highest static level is placed on its pre-assigned PE at the
/// earliest feasible time.
///
/// Used by reference algorithm 1, which (like Shin & Kim's scheduler) takes
/// the mapping as an input instead of optimizing it jointly.
///
/// # Errors
///
/// Returns [`SchedError::NoFeasiblePe`] when a task cannot run on its
/// assigned PE or a required communication link is missing.
pub fn list_schedule_fixed(
    ctx: &SchedContext,
    assignment: &[PeId],
    sl: &[f64],
    exploit_mutex: bool,
) -> Result<Schedule, SchedError> {
    let ctg = ctx.ctg();
    let platform = ctx.platform();
    let profile = platform.profile();
    let n = ctg.num_tasks();

    let cg = ctx.compiled();
    let mut remaining: Vec<usize> = ctg.tasks().map(|t| cg.num_preds(t)).collect();

    let mut ready: Vec<TaskId> = (0..n)
        .filter(|&t| remaining[t] == 0)
        .map(TaskId::new)
        .collect();
    let mut scheduled = vec![false; n];
    let mut start = vec![0.0_f64; n];
    let mut finish = vec![0.0_f64; n];
    let mut pe_order: Vec<Vec<TaskId>> = vec![Vec::new(); platform.num_pes()];
    let mut task_order = Vec::with_capacity(n);

    while !ready.is_empty() {
        // Highest static level first; ties break on task id.
        let &t = ready
            .iter()
            .max_by(|&&a, &&b| {
                sl[a.index()]
                    .partial_cmp(&sl[b.index()])
                    .expect("finite levels")
                    .then(b.cmp(&a))
            })
            .expect("ready list non-empty");
        let pe = assignment[t.index()];
        if !profile.can_run(t.index(), pe) {
            return Err(SchedError::NoFeasiblePe(t));
        }
        let at = earliest_start(
            ctx,
            cg.preds(t),
            t,
            pe,
            &scheduled,
            assignment,
            &finish,
            &pe_order,
            exploit_mutex,
        );
        if !at.is_finite() {
            return Err(SchedError::NoFeasiblePe(t));
        }
        let wcet = profile.wcet(t.index(), pe);
        scheduled[t.index()] = true;
        start[t.index()] = at;
        finish[t.index()] = at + wcet;
        let pos = pe_order[pe.index()]
            .binary_search_by(|&x| {
                start[x.index()]
                    .partial_cmp(&at)
                    .expect("finite start times")
            })
            .unwrap_or_else(|p| p);
        pe_order[pe.index()].insert(pos, t);
        task_order.push(t);
        ready.retain(|&x| x != t);
        for &s in cg.succs(t) {
            remaining[s.index()] -= 1;
            if remaining[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    Ok(Schedule {
        assignment: assignment.to_vec(),
        start,
        finish,
        pe_order,
        task_order,
    })
}

/// Earliest time `task` can start on `pe` given current decisions.
/// Shared with the HEFT-family schedulers in [`crate::scheduler`] so every
/// portfolio entry honours the same arrival and mutex-overlap rules.
#[allow(clippy::too_many_arguments)]
pub(crate) fn earliest_start(
    ctx: &SchedContext,
    preds: &[(TaskId, f64)],
    task: TaskId,
    pe: PeId,
    scheduled: &[bool],
    assignment: &[PeId],
    finish: &[f64],
    pe_order: &[Vec<TaskId>],
    exploit_mutex: bool,
) -> f64 {
    let comm = ctx.platform().comm();
    let mut at: f64 = 0.0;
    for &(p, kbytes) in preds {
        debug_assert!(
            scheduled[p.index()],
            "ready task with unscheduled predecessor"
        );
        let arrival = finish[p.index()] + comm.delay(assignment[p.index()], pe, kbytes);
        at = at.max(arrival);
    }
    for &other in &pe_order[pe.index()] {
        if exploit_mutex && ctx.mutually_exclusive(task, other) {
            continue;
        }
        at = at.max(finish[other.index()]);
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{chain_context, example1_context, example1_ctg, uniform_platform};
    use ctg_model::CtgBuilder;
    use mpsoc_platform::PlatformBuilder;

    #[test]
    fn chain_schedules_serially() {
        let (ctx, probs, [a, c, d]) = chain_context(60.0);
        let s = dls_schedule(&ctx, &probs).unwrap();
        assert!(s.finish(a) <= s.start(c) + 1e-9);
        assert!(s.finish(c) <= s.start(d) + 1e-9);
        assert_eq!(s.makespan(), s.finish(d));
        // With zero-gain parallelism and comm costs, a chain stays on one PE.
        assert_eq!(s.pe_of(a), s.pe_of(c));
        assert_eq!(s.pe_of(c), s.pe_of(d));
    }

    #[test]
    fn parallel_tasks_spread_across_pes() {
        let mut b = CtgBuilder::new("par");
        let s0 = b.add_task("s0");
        let s1 = b.add_task("s1");
        let ctg = b.deadline(10.0).build().unwrap();
        let probs = ctg_model::BranchProbs::uniform(&ctg);
        let platform = uniform_platform(2, 2, 4.0, 1.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let s = dls_schedule(&ctx, &probs).unwrap();
        assert_ne!(s.pe_of(s0), s.pe_of(s1));
        assert!((s.makespan() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mutually_exclusive_tasks_may_overlap_on_one_pe() {
        // Single-PE platform: τ4 and τ5 are exclusive and may overlap.
        let (ctg, ids) = example1_ctg(100.0);
        let probs = ctg_model::BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 1, 2.0, 1.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let [_, _, _, t4, t5, t6, t7, _] = ids;
        let overlap = |a: TaskId, b: TaskId| {
            s.start(a) < s.finish(b) - 1e-9 && s.start(b) < s.finish(a) - 1e-9
        };
        // At least one exclusive pair overlaps on the single PE.
        assert!(overlap(t4, t5) || overlap(t6, t7) || overlap(t4, t6));
    }

    #[test]
    fn disabling_mutex_serializes_everything() {
        let (ctg, _) = example1_ctg(100.0);
        let probs = ctg_model::BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 1, 2.0, 1.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let sl = crate::static_level::static_levels(&ctx, &probs);
        let s = dls_with_levels(&ctx, &sl, false).unwrap();
        // No overlap at all on the single PE.
        let order = s.pe_order(PeId::new(0));
        for w in order.windows(2) {
            assert!(s.finish(w[0]) <= s.start(w[1]) + 1e-9);
        }
        // Serial makespan = sum of all WCETs.
        assert!((s.makespan() - 2.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn or_node_waits_for_fork() {
        let (ctx, probs, ids) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let [_, t2, t3, t4, _, _, _, t8] = ids;
        // τ8 must wait for τ2, τ4 and (implied) τ3.
        assert!(s.start(t8) + 1e-9 >= s.finish(t3));
        assert!(s.start(t8) + 1e-9 >= s.finish(t2));
        assert!(s.start(t8) + 1e-9 >= s.finish(t4));
    }

    #[test]
    fn respects_unrunnable_pes() {
        let mut b = CtgBuilder::new("g");
        let a = b.add_task("a");
        let ctg = b.deadline(10.0).build().unwrap();
        let probs = ctg_model::BranchProbs::uniform(&ctg);
        let mut pb = PlatformBuilder::new(1);
        pb.add_pe("p0");
        pb.add_pe("p1");
        pb.set_wcet_row(0, vec![f64::INFINITY, 3.0]).unwrap();
        pb.set_energy_row(0, vec![0.0, 1.0]).unwrap();
        pb.uniform_links(1.0, 0.1).unwrap();
        let ctx = SchedContext::new(ctg, pb.build().unwrap()).unwrap();
        let s = dls_schedule(&ctx, &probs).unwrap();
        assert_eq!(s.pe_of(a), PeId::new(1));
    }

    #[test]
    fn missing_links_fail_cleanly() {
        // Two chained tasks pinned to different PEs with no link between them.
        let mut b = CtgBuilder::new("g");
        let a = b.add_task("a");
        let c = b.add_task("c");
        b.add_edge(a, c, 1.0).unwrap();
        let ctg = b.deadline(10.0).build().unwrap();
        let probs = ctg_model::BranchProbs::uniform(&ctg);
        let mut pb = PlatformBuilder::new(2);
        pb.add_pe("p0");
        pb.add_pe("p1");
        pb.set_wcet_row(0, vec![1.0, f64::INFINITY]).unwrap();
        pb.set_energy_row(0, vec![1.0, 0.0]).unwrap();
        pb.set_wcet_row(1, vec![f64::INFINITY, 1.0]).unwrap();
        pb.set_energy_row(1, vec![0.0, 1.0]).unwrap();
        // No links at all.
        let ctx = SchedContext::new(ctg, pb.build().unwrap()).unwrap();
        assert_eq!(dls_schedule(&ctx, &probs), Err(SchedError::NoFeasiblePe(c)));
    }

    #[test]
    fn comm_cost_discourages_remote_mapping() {
        // Heavy data between a and c, slow links: c should co-locate with a
        // even though another PE is idle.
        let mut b = CtgBuilder::new("g");
        let a = b.add_task("a");
        let c = b.add_task("c");
        b.add_edge(a, c, 100.0).unwrap();
        let ctg = b.deadline(100.0).build().unwrap();
        let probs = ctg_model::BranchProbs::uniform(&ctg);
        let mut pb = PlatformBuilder::new(2);
        pb.add_pe("p0");
        pb.add_pe("p1");
        pb.set_wcet_row(0, vec![1.0, 1.0]).unwrap();
        pb.set_energy_row(0, vec![1.0, 1.0]).unwrap();
        pb.set_wcet_row(1, vec![1.0, 1.0]).unwrap();
        pb.set_energy_row(1, vec![1.0, 1.0]).unwrap();
        pb.uniform_links(0.5, 0.1).unwrap(); // 200 time units for 100 KB
        let ctx = SchedContext::new(ctg, pb.build().unwrap()).unwrap();
        let s = dls_schedule(&ctx, &probs).unwrap();
        assert_eq!(s.pe_of(a), s.pe_of(c));
    }
}
