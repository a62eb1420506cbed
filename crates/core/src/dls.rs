//! List scheduling (paper §III.A): one ready-list loop and its pick rules.
//!
//! `list_schedule` keeps a ready list, asks a pick rule for the next
//! (task, PE, start), commits it and releases the task's successors. Each
//! mapper is one pick rule over that loop:
//!
//! * **modified DLS**, the paper's mapper ([`dls_with_levels`]), scans
//!   every (ready task, PE) pair for the highest dynamic level
//!
//!   `DL(τ, p) = SL(τ) − AT(τ, p) + δ(τ, p)`,
//!
//!   reading `AT` from the starts it keeps current across commits;
//! * **rank-then-EFT**, the HEFT and lookahead kinds' mapper, takes the
//!   ready task with the highest level to the PE with the earliest finish,
//!   plus the lookahead penalty when asked;
//! * **fixed** ([`list_schedule_fixed`]) takes the ready task with the
//!   highest level to its pre-assigned PE.
//!
//! `AT` is the earliest start of `τ` on `p`, accounting for (a) the arrival
//! of predecessor data over the communication links, (b) the implied wait
//! of or-nodes on the branch fork nodes deciding their predecessors, and
//! (c) processor availability — where, unlike classical DLS, **mutually
//! exclusive tasks may overlap on the same PE** because at most one of them
//! executes in any run.
//!
//! Scan order is part of the algorithm. The rules fold their candidates
//! with the historical `1e-12` epsilon (`dl_beats`, `eft_beats`,
//! `rank_beats`), which is not transitive, so the winner depends on the
//! order the candidates come in. The loop keeps that order: the initial
//! ready list is ascending, a commit removes the task in place and appends
//! its released successors in compiled-successor order, and each PE's
//! tasks stay sorted by start through a binary search and an insert.

use crate::budget::WorkMeter;
use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::static_level::static_levels;
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
/// Same as [`dls_schedule`], plus [`SchedError::InvalidParameter`] when
/// `sl` does not hold one level per task or holds a NaN.
pub fn dls_with_levels(
    ctx: &SchedContext,
    sl: &[f64],
    exploit_mutex: bool,
) -> Result<Schedule, SchedError> {
    dls_with_levels_metered(ctx, sl, exploit_mutex, &mut WorkMeter::unlimited())
}

/// [`dls_with_levels`] with a work budget. The DLS pick rule scans every
/// runnable (ready task, PE) pair in ready-list and PE order, charges it
/// one unit to `meter` before reading its start from the rule's
/// [`ReadyStarts`], skips it when no link reaches it and folds the rest by
/// [`dl_beats`]; with no candidate left it names the head of the ready
/// list.
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
/// plus everything [`dls_with_levels`] can return.
pub(crate) fn dls_with_levels_metered(
    ctx: &SchedContext,
    sl: &[f64],
    exploit_mutex: bool,
    meter: &mut WorkMeter,
) -> Result<Schedule, SchedError> {
    let mut starts = ReadyStarts::new(ctx, exploit_mutex);
    list_schedule(ctx, sl, |st| {
        starts.update(st);
        dls_pick(st, &starts, meter)
    })
}

/// The DLS pick over `starts`, brought up to `st`: the (task, PE, start)
/// with the best dynamic level by [`dl_beats`], or the error.
fn dls_pick(
    st: &ListState<'_>,
    starts: &ReadyStarts,
    meter: &mut WorkMeter,
) -> Result<(TaskId, PeId, f64), SchedError> {
    let ctx = st.ctx;
    let profile = ctx.platform().profile();
    let mut best: Option<(f64, f64, TaskId, PeId)> = None; // (dl, at, task, pe)
    for &t in &st.ready {
        let (row, level) = (starts.row(t), st.levels[t.index()]);
        for pe in ctx.platform().pes() {
            // One read of the WCET serves both the runnable check
            // (`can_run`) and δ (`static_level::delta`, term for term).
            let wcet = profile.wcet(t.index(), pe);
            if !wcet.is_finite() {
                continue; // `pe` cannot run `t`
            }
            meter.charge(1)?;
            let at = row[pe.index()];
            if !at.is_finite() {
                continue; // missing link to a predecessor's PE
            }
            let delta = ctx.compiled().wcet_avg(t) - wcet;
            let cand = (level - at + delta, at, t, pe);
            if best.is_none_or(|b| dl_beats(cand, b)) {
                best = Some(cand);
            }
        }
    }
    let (_, at, t, pe) = best.ok_or(SchedError::NoFeasiblePe(st.ready[0]))?;
    Ok((t, pe, at))
}

/// Each ready task's earliest start on each PE that can run it, kept
/// current across commits for the DLS rule: the one rule that reads the
/// starts of tasks it does not pick, and so reads each start again at
/// every step until its task commits.
///
/// A ready task's start on `p` is a `max` over its predecessors' arrivals,
/// all committed, and the finishes of `p`'s tasks. A commit of `c` on `q`
/// adds one term, `finish[c]`, to column `q` and changes nothing else. So
/// a released task's row is computed once, by
/// [`ListState::earliest_start`], and each later commit raises the
/// committed PE's entry of the other ready rows, except in rows whose
/// task is mutually exclusive with `c` when they may overlap. `f64::max`
/// is exact and order-free, so every entry equals a from-scratch
/// `earliest_start` bit for bit.
struct ReadyStarts {
    /// Task `t`'s start on PE `p` at `t * pes + p`.
    at: Vec<f64>,
    pes: usize,
    exploit_mutex: bool,
    /// The ready list's length at the last update.
    ready_len: usize,
}

impl ReadyStarts {
    fn new(ctx: &SchedContext, exploit_mutex: bool) -> Self {
        let pes = ctx.platform().num_pes();
        ReadyStarts {
            at: vec![0.0; ctx.ctg().num_tasks() * pes],
            pes,
            exploit_mutex,
            ready_len: 0,
        }
    }

    /// Task `t`'s starts, one per PE; an entry is current only for a ready
    /// task and a PE that can run it.
    fn row(&self, t: TaskId) -> &[f64] {
        &self.at[t.index() * self.pes..][..self.pes]
    }

    /// Brings the rows up to `st`, which is one commit past the last
    /// update, or the first step. The commit removed its task from the
    /// ready list and appended the tasks it released, so the list's first
    /// `ready_len - 1` tasks were ready before it.
    fn update(&mut self, st: &ListState<'_>) {
        let ctx = st.ctx;
        let fresh = match st.task_order.last() {
            None => 0,
            Some(&c) => {
                let kept = self.ready_len - 1;
                let (q, f) = (st.assignment[c.index()].index(), st.finish[c.index()]);
                for &t in &st.ready[..kept] {
                    if !(self.exploit_mutex && ctx.mutually_exclusive(t, c)) {
                        let e = &mut self.at[t.index() * self.pes + q];
                        *e = e.max(f);
                    }
                }
                kept
            }
        };
        let profile = ctx.platform().profile();
        for &t in &st.ready[fresh..] {
            for pe in ctx.platform().pes() {
                if profile.can_run(t.index(), pe) {
                    self.at[t.index() * self.pes + pe.index()] =
                        st.earliest_start(t, pe, self.exploit_mutex);
                }
            }
        }
        self.ready_len = st.ready.len();
    }
}

/// The EFT mapper of the HEFT and lookahead scheduler kinds.
///
/// The pick rule takes the ready task with the highest rank, `ranks` being
/// the probability-weighted static levels, to the feasible PE with the
/// lowest score: its earliest finish time, plus (with `lookahead`) the
/// estimated finish of the task's most critical successor under that
/// placement, folded by [`eft_beats`] in PE order. Mutually exclusive
/// tasks may always overlap on a PE. With no feasible PE it names the task.
pub(crate) fn eft_list_schedule(
    ctx: &SchedContext,
    ranks: &[f64],
    lookahead: bool,
) -> Result<Schedule, SchedError> {
    let profile = ctx.platform().profile();
    list_schedule(ctx, ranks, |st| {
        let t = st.highest();
        let mut best: Option<(f64, f64, PeId)> = None; // (score, at, pe)
        for pe in ctx.platform().pes() {
            if !profile.can_run(t.index(), pe) {
                continue;
            }
            let at = st.earliest_start(t, pe, true);
            if !at.is_finite() {
                continue; // missing link to a predecessor's PE
            }
            let eft = at + profile.wcet(t.index(), pe);
            let score = if lookahead {
                eft + lookahead_penalty(ctx, ranks, t, pe, eft)
            } else {
                eft
            };
            if best.is_none_or(|b| eft_beats((score, at, pe), b)) {
                best = Some((score, at, pe));
            }
        }
        let (_, at, pe) = best.ok_or(SchedError::NoFeasiblePe(t))?;
        Ok((t, pe, at))
    })
}

/// The lookahead term: the increase over `eft` of the estimated earliest
/// finish of `t`'s most critical successor (by [`rank_beats`]) when `t`
/// finishes on `pe` at `eft`. The estimate optimistically places the child
/// on its best PE, charging only the `t → child` communication — a
/// one-step probe, not a recursive schedule. `0.0` for exit tasks or
/// children with no feasible placement (the real scheduling of the child
/// will surface that).
fn lookahead_penalty(ctx: &SchedContext, ranks: &[f64], t: TaskId, pe: PeId, eft: f64) -> f64 {
    let profile = ctx.platform().profile();
    let comm = ctx.platform().comm();
    let mut crit: Option<(f64, TaskId, f64)> = None; // (rank, child, kbytes)
    for (_, e) in ctx.ctg().out_edges(t) {
        let c = e.dst();
        let r = ranks[c.index()];
        if crit.is_none_or(|(br, bc, _)| rank_beats((r, c), (br, bc))) {
            crit = Some((r, c, e.comm_kbytes()));
        }
    }
    let Some((_, child, kbytes)) = crit else {
        return 0.0;
    };
    let mut best: Option<f64> = None;
    for q in ctx.platform().pes() {
        if !profile.can_run(child.index(), q) {
            continue;
        }
        let arrival = eft + comm.delay(pe, q, kbytes);
        if !arrival.is_finite() {
            continue;
        }
        let fin = arrival + profile.wcet(child.index(), q);
        best = Some(best.map_or(fin, |b| b.min(fin)));
    }
    best.map_or(0.0, |b| (b - eft).max(0.0))
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
/// assigned PE or a required communication link is missing, and
/// [`SchedError::InvalidParameter`] when `assignment` or `sl` does not hold
/// one entry per task, `sl` holds a NaN or `assignment` names a PE the
/// platform lacks.
pub fn list_schedule_fixed(
    ctx: &SchedContext,
    assignment: &[PeId],
    sl: &[f64],
    exploit_mutex: bool,
) -> Result<Schedule, SchedError> {
    let (profile, pes) = (ctx.platform().profile(), ctx.platform().num_pes());
    if assignment.len() != ctx.ctg().num_tasks() || assignment.iter().any(|p| p.index() >= pes) {
        return Err(SchedError::InvalidParameter(
            "the assignment must name one platform PE per task",
        ));
    }
    list_schedule(ctx, sl, |st| {
        let t = st.highest();
        let pe = assignment[t.index()];
        let at = st.earliest_start(t, pe, exploit_mutex);
        if !profile.can_run(t.index(), pe) || !at.is_finite() {
            return Err(SchedError::NoFeasiblePe(t));
        }
        Ok((t, pe, at))
    })
}

/// The state of [`list_schedule`]: the ready list, the committed decisions
/// and each PE's tasks in start order.
struct ListState<'a> {
    ctx: &'a SchedContext,
    /// The levels the ranked pick rules order the ready list by.
    levels: &'a [f64],
    /// Each task's predecessors not yet committed.
    remaining: Vec<usize>,
    ready: Vec<TaskId>,
    assignment: Vec<PeId>,
    start: Vec<f64>,
    finish: Vec<f64>,
    pe_order: Vec<Vec<TaskId>>,
    task_order: Vec<TaskId>,
}

impl ListState<'_> {
    /// Earliest time `task` can start on `pe` after its predecessors' data
    /// arrives (infinite over a missing link) and after every task on `pe`
    /// finishes, except the mutually exclusive ones when `exploit_mutex`.
    /// The ranked rules call it for the task they pick, and DLS once per
    /// runnable PE for each task as it becomes ready ([`ReadyStarts`]).
    /// Kept out of line: inlined into the pick rules, when DLS still
    /// called it for every pair at every step, the three mappers ran 3–10%
    /// slower per call on MPEG (2-vCPU x86-64 guest); since DLS keeps its
    /// starts, inlining it measures the same as not, within the host's
    /// noise, for every rule.
    #[inline(never)]
    fn earliest_start(&self, task: TaskId, pe: PeId, exploit_mutex: bool) -> f64 {
        let (ctx, finish, assignment) = (self.ctx, &self.finish[..], &self.assignment[..]);
        let comm = ctx.platform().comm();
        let mut at: f64 = 0.0;
        for &(p, kbytes) in ctx.compiled().preds(task) {
            at = at.max(finish[p.index()] + comm.delay(assignment[p.index()], pe, kbytes));
        }
        for &other in &self.pe_order[pe.index()] {
            if exploit_mutex && ctx.mutually_exclusive(task, other) {
                continue;
            }
            at = at.max(finish[other.index()]);
        }
        at
    }

    /// The ready task with the highest level; ties go to the lower id.
    fn highest(&self) -> TaskId {
        let levels = self.levels;
        let best = self.ready.iter().max_by(|&&a, &&b| {
            levels[a.index()]
                .partial_cmp(&levels[b.index()])
                .expect("no NaN levels: the loop's entry check rejects them")
                .then(b.cmp(&a))
        });
        *best.expect("ready list non-empty")
    }

    /// Commits `task` on `pe` at `at` and releases its successors.
    fn commit(&mut self, task: TaskId, pe: PeId, at: f64) {
        let t = task.index();
        debug_assert!(
            self.remaining[t] == 0 && self.ready.contains(&task),
            "the picked task must be ready"
        );
        self.assignment[t] = pe;
        self.start[t] = at;
        self.finish[t] = at + self.ctx.platform().profile().wcet(t, pe);
        let start = &self.start;
        let order = &mut self.pe_order[pe.index()];
        let pos = order
            .binary_search_by(|&x| {
                start[x.index()]
                    .partial_cmp(&at)
                    .expect("finite start times")
            })
            .unwrap_or_else(|p| p);
        order.insert(pos, task);
        self.task_order.push(task);
        self.ready.retain(|&x| x != task);
        for &s in self.ctx.compiled().succs(task) {
            self.remaining[s.index()] -= 1;
            if self.remaining[s.index()] == 0 {
                self.ready.push(s);
            }
        }
    }
}

/// The one list-scheduling loop: while tasks are ready, `pick` names the
/// next (task, PE, start) from the state, or the error that ends the
/// schedule, and the loop commits it.
///
/// # Errors
///
/// [`SchedError::InvalidParameter`] when `levels` does not hold one level
/// per task or holds a NaN, else the first error `pick` returns.
fn list_schedule<'a>(
    ctx: &'a SchedContext,
    levels: &'a [f64],
    mut pick: impl FnMut(&ListState<'a>) -> Result<(TaskId, PeId, f64), SchedError>,
) -> Result<Schedule, SchedError> {
    let n = ctx.ctg().num_tasks();
    if levels.len() != n || levels.iter().any(|l| l.is_nan()) {
        return Err(SchedError::InvalidParameter(
            "the levels must hold one number per task",
        ));
    }
    let cg = ctx.compiled();
    let remaining: Vec<usize> = ctx.ctg().tasks().map(|t| cg.num_preds(t)).collect();
    let ready = (0..n)
        .filter(|&t| remaining[t] == 0)
        .map(TaskId::new)
        .collect();
    let mut st = ListState {
        ctx,
        levels,
        remaining,
        ready,
        assignment: vec![PeId::new(0); n],
        start: vec![0.0; n],
        finish: vec![0.0; n],
        pe_order: vec![Vec::new(); ctx.platform().num_pes()],
        task_order: Vec::with_capacity(n),
    };
    while !st.ready.is_empty() {
        let (t, pe, at) = pick(&st)?;
        st.commit(t, pe, at);
    }
    debug_assert_eq!(st.task_order.len(), n, "all tasks must be scheduled");
    Ok(Schedule {
        assignment: st.assignment,
        start: st.start,
        finish: st.finish,
        pe_order: st.pe_order,
        task_order: st.task_order,
    })
}

/// The historical tie epsilon of every candidate fold.
const EPS: f64 = 1e-12;

/// `a` exceeds `b` by more than [`EPS`], or lies within it and `tie` holds.
fn above(a: f64, b: f64, tie: impl FnOnce() -> bool) -> bool {
    a > b + EPS || ((a - b).abs() <= EPS && tie())
}

/// `a` falls short of `b` by more than [`EPS`], or lies within it and `tie`
/// holds.
fn below(a: f64, b: f64, tie: impl FnOnce() -> bool) -> bool {
    a < b - EPS || ((a - b).abs() <= EPS && tie())
}

/// Whether a DLS candidate `(dl, at, task, pe)` beats the best so far:
/// a higher dynamic level, then an earlier start, then the lower
/// (task, PE). The epsilon makes the relation non-transitive, so the
/// winner depends on the scan order too.
fn dl_beats(
    (dl, at, t, pe): (f64, f64, TaskId, PeId),
    (bdl, bat, bt, bpe): (f64, f64, TaskId, PeId),
) -> bool {
    above(dl, bdl, || below(at, bat, || (t, pe) < (bt, bpe)))
}

/// Whether an EFT candidate `(score, at, pe)` beats the best so far: a
/// lower score, then an earlier start, then the lower PE.
fn eft_beats((score, at, pe): (f64, f64, PeId), (bs, bat, bpe): (f64, f64, PeId)) -> bool {
    below(score, bs, || below(at, bat, || pe < bpe))
}

/// Whether a child `(rank, id)` is more critical than the best so far: a
/// higher rank, then the lower id.
fn rank_beats((r, c): (f64, TaskId), (br, bc): (f64, TaskId)) -> bool {
    above(r, br, || c < bc)
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

    /// Two chained tasks pinned to different PEs with no link between
    /// them: every rule names the successor.
    #[test]
    fn missing_links_fail_cleanly() {
        let (ctx, sl) = two_pes(&[[1.0, NO], [NO, 1.0]], &[(0, 1)], false);
        let pes = [PeId::new(0), PeId::new(1)];
        assert_eq!(every_rule(&ctx, &sl, &pes), [1, 1, 1, 1].map(no_pe));
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

    /// The EFT entry of the pins below, part of their call helper with
    /// [`call`].
    fn eft(ctx: &SchedContext, ranks: &[f64], lookahead: bool) -> Result<Schedule, SchedError> {
        eft_list_schedule(ctx, ranks, lookahead)
    }

    /// Two PEs and no links unless `linked`: `rows[t]` is task `t`'s WCET
    /// on each PE, infinite where it cannot run; `edges` are plain edges.
    /// Returns the context and its uniform-table static levels.
    fn two_pes(
        rows: &[[f64; 2]],
        edges: &[(usize, usize)],
        linked: bool,
    ) -> (SchedContext, Vec<f64>) {
        let mut b = CtgBuilder::new("g");
        let ids: Vec<TaskId> = (0..rows.len())
            .map(|t| b.add_task(format!("t{t}")))
            .collect();
        for &(a, c) in edges {
            b.add_edge(ids[a], ids[c], 1.0).unwrap();
        }
        let ctg = b.deadline(100.0).build().unwrap();
        let probs = ctg_model::BranchProbs::uniform(&ctg);
        let mut pb = PlatformBuilder::new(rows.len());
        pb.add_pe("p0");
        pb.add_pe("p1");
        for (t, row) in rows.iter().enumerate() {
            pb.set_wcet_row(t, row.to_vec()).unwrap();
            let energy = row.iter().map(|w| if w.is_finite() { 1.0 } else { 0.0 });
            pb.set_energy_row(t, energy.collect()).unwrap();
        }
        if linked {
            pb.uniform_links(1.0, 0.1).unwrap();
        }
        let ctx = SchedContext::new(ctg, pb.build().unwrap()).unwrap();
        let sl = crate::static_level::static_levels(&ctx, &probs);
        (ctx, sl)
    }

    /// The error of DLS, HEFT, lookahead and the fixed rule on
    /// `assignment`, in that order (`None` for a schedule).
    fn every_rule(ctx: &SchedContext, sl: &[f64], assignment: &[PeId]) -> [Option<SchedError>; 4] {
        [
            dls_with_levels(ctx, sl, true).err(),
            eft(ctx, sl, false).err(),
            eft(ctx, sl, true).err(),
            list_schedule_fixed(ctx, assignment, sl, true).err(),
        ]
    }

    const NO: f64 = f64::INFINITY;

    fn no_pe(t: usize) -> Option<SchedError> {
        Some(SchedError::NoFeasiblePe(TaskId::new(t)))
    }

    /// The fixed rule names a task whose assigned PE cannot run it; the
    /// rules that choose the PE place it where it runs.
    #[test]
    fn the_fixed_rule_names_a_task_on_an_unrunnable_pe() {
        let (ctx, sl) = two_pes(&[[1.0, NO], [1.0, 1.0]], &[(0, 1)], true);
        let pes = [PeId::new(1), PeId::new(0)];
        assert_eq!(every_rule(&ctx, &sl, &pes), [None, None, None, no_pe(0)]);
    }

    /// A ready list of one runnable task (`r`) and one that no linked PE
    /// can run (`u`): every rule places `r` and then names `u`.
    #[test]
    fn a_ready_list_with_one_unrunnable_task_names_it() {
        let (ctx, sl) = two_pes(
            &[[1.0, NO], [NO, 1.0], [1.0, 1.0]],
            &[(0, 1), (0, 2)],
            false,
        );
        let pes = [PeId::new(0), PeId::new(1), PeId::new(0)];
        assert_eq!(every_rule(&ctx, &sl, &pes), [1, 1, 1, 1].map(no_pe));
    }

    /// Two ready tasks that no linked PE can run: DLS names the first of
    /// the ready list, and EFT and the fixed rule the task they picked,
    /// the one with the higher level.
    #[test]
    fn dls_names_the_ready_head_and_the_ranked_rules_their_pick() {
        let (ctx, sl) = two_pes(&[[1.0, NO], [NO, 1.0], [NO, 5.0]], &[(0, 1), (0, 2)], false);
        assert!(sl[2] > sl[1]);
        let pes = [PeId::new(0), PeId::new(1), PeId::new(1)];
        assert_eq!(every_rule(&ctx, &sl, &pes), [1, 2, 2, 2].map(no_pe));
    }

    /// Malformed inputs are errors, not panics: an assignment or levels
    /// one task short, a NaN level and an assignment naming a PE the
    /// platform lacks.
    #[test]
    fn malformed_inputs_are_invalid_parameters() {
        let (ctx, sl) = two_pes(&[[1.0, 1.0], [1.0, 1.0]], &[(0, 1)], true);
        let invalid = |r: Result<Schedule, SchedError>| {
            assert!(matches!(r, Err(SchedError::InvalidParameter(_))), "{r:?}");
        };
        let pes = [PeId::new(0), PeId::new(1)];
        invalid(list_schedule_fixed(&ctx, &pes[..1], &sl, true));
        invalid(list_schedule_fixed(
            &ctx,
            &[pes[0], PeId::new(2)],
            &sl,
            true,
        ));
        invalid(list_schedule_fixed(&ctx, &pes, &sl[..1], true));
        invalid(dls_with_levels(&ctx, &sl[..1], true));
        invalid(eft(&ctx, &sl[..1], false));
        assert!(list_schedule_fixed(&ctx, &pes, &sl, true).is_ok());
        // Two ready tasks, so the fixed rule would compare the NaN.
        let (roots, _) = two_pes(&[[1.0, 1.0], [1.0, 1.0]], &[], true);
        invalid(list_schedule_fixed(&roots, &pes, &[1.0, f64::NAN], true));
    }

    /// One list-scheduler run of the golden pin.
    #[derive(Debug, Clone, Copy)]
    enum Run<'a> {
        /// DLS, metered.
        Dls { mutex: bool },
        /// Rank-then-EFT, with or without the lookahead penalty.
        Eft { lookahead: bool },
        /// The fixed rule on `assignment`.
        Fixed { assignment: &'a [PeId], mutex: bool },
    }

    /// Runs `run` on `levels`: the result and the meter's charge (0 for
    /// the unmetered rules).
    fn call(
        ctx: &SchedContext,
        levels: &[f64],
        run: Run<'_>,
    ) -> (Result<Schedule, SchedError>, u64) {
        match run {
            Run::Dls { mutex } => {
                let mut meter = WorkMeter::unlimited();
                let s = dls_with_levels_metered(ctx, levels, mutex, &mut meter);
                (s, meter.spent())
            }
            Run::Eft { lookahead } => (eft(ctx, levels, lookahead), 0),
            Run::Fixed { assignment, mutex } => {
                (list_schedule_fixed(ctx, assignment, levels, mutex), 0)
            }
        }
    }

    /// A table whose `bi`-th branch weighs alternative `j` by
    /// `(1 + (j + bi + shift) % k)^(shift + 1)`.
    fn skewed(ctg: &ctg_model::Ctg, shift: usize) -> ctg_model::BranchProbs {
        let mut probs = ctg_model::BranchProbs::new();
        for (bi, &b) in ctg.branch_nodes().iter().enumerate() {
            let k = ctg.node(b).alternatives() as usize;
            let w: Vec<f64> = (0..k)
                .map(|j| ((1 + (j + bi + shift) % k) as f64).powi(shift as i32 + 1))
                .collect();
            let total: f64 = w.iter().sum();
            probs.set(b, w.iter().map(|x| x / total).collect()).unwrap();
        }
        probs
    }

    /// Every graph case's context (MPEG once) with the pins' five tables:
    /// the case's own, the uniform one and three skewed ones.
    fn pinned_cases() -> impl Iterator<Item = (String, SchedContext, Vec<ctg_model::BranchProbs>)> {
        crate::sgraph::tests::graph_cases()
            .into_iter()
            .filter(|(name, ..)| !name.starts_with("mpeg ") || name == "mpeg dls")
            .map(|(name, ctx, own, _)| {
                let mut tables = vec![own, ctg_model::BranchProbs::uniform(ctx.ctg())];
                tables.extend((0..3).map(|shift| skewed(ctx.ctg(), shift)));
                (name, ctx, tables)
            })
    }

    /// FNV-1a over every list-scheduler run on every graph case (MPEG
    /// once): per table (the case's own, uniform and three skewed ones)
    /// DLS with and without mutex overlap, HEFT, lookahead, the fixed
    /// rule on the DLS mapping and on that mapping rotated by one PE
    /// (with and without overlap); per context ref. 1's mapping and DLS,
    /// both on worst-case levels without overlap. Each run hashes its
    /// charge and every `Schedule` field, or its error; every schedule
    /// must pass [`validate_schedule`](crate::validate_schedule).
    fn list_schedule_digest() -> u64 {
        use crate::baseline::reference1_mapping;
        use crate::sgraph::Fnv;
        use crate::static_level::{static_levels, worst_case_levels};
        use std::hash::Hasher;
        let mut h = Fnv::default();
        for (name, ctx, tables) in pinned_cases() {
            let mut record = |levels: &[f64], run: Run<'_>| {
                let (result, charge) = call(&ctx, levels, run);
                h.write_u64(charge);
                let s = match result {
                    Ok(s) => s,
                    Err(e) => {
                        h.write(format!("{e:?}").as_bytes());
                        return None;
                    }
                };
                crate::validate_schedule(&ctx, &s)
                    .unwrap_or_else(|v| panic!("{name} {run:?}: {v:?}"));
                h.write_usize(s.assignment.len());
                for (p, (a, b)) in s.assignment.iter().zip(s.start.iter().zip(&s.finish)) {
                    h.write_usize(p.index());
                    h.write_u64(a.to_bits());
                    h.write_u64(b.to_bits());
                }
                for order in s.pe_order.iter().chain([&s.task_order]) {
                    h.write_usize(order.len());
                    for t in order {
                        h.write_usize(t.index());
                    }
                }
                Some(s)
            };
            let num_pes = ctx.platform().num_pes();
            for probs in &tables {
                let sl = static_levels(&ctx, probs);
                let dls = record(&sl, Run::Dls { mutex: true }).expect("DLS maps every case");
                record(&sl, Run::Dls { mutex: false });
                record(&sl, Run::Eft { lookahead: false });
                record(&sl, Run::Eft { lookahead: true });
                let mapping: Vec<PeId> = ctx.ctg().tasks().map(|t| dls.pe_of(t)).collect();
                let rotated: Vec<PeId> = mapping
                    .iter()
                    .map(|p| PeId::new((p.index() + 1) % num_pes))
                    .collect();
                for (assignment, mutex) in [(&mapping, true), (&rotated, true), (&rotated, false)] {
                    record(&sl, Run::Fixed { assignment, mutex });
                }
            }
            let wc = worst_case_levels(&ctx);
            let ref1 = reference1_mapping(&ctx).unwrap();
            record(
                &wc,
                Run::Fixed {
                    assignment: &ref1,
                    mutex: false,
                },
            );
            record(&wc, Run::Dls { mutex: false });
        }
        h.finish()
    }

    /// The golden pin of the list scheduler: every run of
    /// [`list_schedule_digest`] hashes to the digest the three loop
    /// copies gave before they became pick rules over one loop. Any
    /// change to a mapping, a start or finish bit, a per-PE order, the
    /// commit order, a DLS charge or an error payload moves it.
    #[test]
    fn list_schedules_match_the_golden_digest() {
        assert_eq!(list_schedule_digest(), 0x03d5_1cdb_0190_eb55);
    }

    /// At every DLS pick, each ready task's kept start on each PE that can
    /// run it equals [`ListState::earliest_start`] from scratch, bit for
    /// bit: every case and table of the golden pin with and without
    /// overlap, and worst-case levels without it. The digest sees a stale
    /// entry only when it changes a winner; this test sees every one.
    #[test]
    fn kept_starts_match_fresh_ones_at_every_pick() {
        use crate::static_level::{static_levels, worst_case_levels};
        let mut checked = 0;
        for (name, ctx, tables) in pinned_cases() {
            let profile = ctx.platform().profile();
            let mut runs: Vec<(Vec<f64>, bool)> = Vec::new();
            for probs in &tables {
                let sl = static_levels(&ctx, probs);
                runs.extend([(sl.clone(), true), (sl, false)]);
            }
            runs.push((worst_case_levels(&ctx), false));
            for (sl, mutex) in &runs {
                let mut starts = ReadyStarts::new(&ctx, *mutex);
                let mut meter = WorkMeter::unlimited();
                let schedule = list_schedule(&ctx, sl, |st| {
                    starts.update(st);
                    for &t in &st.ready {
                        for pe in ctx.platform().pes() {
                            if !profile.can_run(t.index(), pe) {
                                continue;
                            }
                            let kept = starts.row(t)[pe.index()];
                            let fresh = st.earliest_start(t, pe, *mutex);
                            assert_eq!(
                                kept.to_bits(),
                                fresh.to_bits(),
                                "{name}, overlap {mutex}, step {}: {t:?} on {pe:?}",
                                st.task_order.len()
                            );
                            checked += 1;
                        }
                    }
                    dls_pick(st, &starts, &mut meter)
                });
                assert_eq!(schedule, dls_with_levels(&ctx, sl, *mutex), "{name}");
            }
        }
        assert!(checked > 0);
    }
}
