//! The online task-stretching heuristic (paper §III.A, Figure 2).
//!
//! After DLS fixes mapping and order, the tasks are stretched in
//! scheduling order, over [`StretchConfig::sweeps`] sweeps (two by
//! default, one in the paper):
//!
//! 1. the scheduled graph's paths are enumerated depth-first with their
//!    delay and per-path condition (see [`ScheduledGraph`]);
//! 2. for each task `τ`, `CalculateSlack(τ)` finds, per minterm group of the
//!    paths spanning `τ`, the critical path with the lowest distributable
//!    slack ratio `slk(p)/delay(p)`; the slack granted to `τ` is a
//!    probability-weighted combination, additionally weighted by the
//!    activation probability `prob(τ)` — *tasks that are more likely to run
//!    receive more slack*;
//! 3. the grant is capped so that every spanning path still meets the
//!    deadline, which keeps the worst case schedulable; the task is
//!    stretched by it and the delay and slack of every spanning path
//!    updated before the next task is processed. A later sweep grants
//!    each task a share of the slack the earlier ones left, and the sweeps
//!    stop early once one grants almost nothing.
//!
//! Two shortcuts keep a call cheap without moving a bit:
//!
//! * **The saturation skip.** A path whose remaining slack `D − delay` is
//!   at most the grant threshold is *saturated*: the deadline cap of every
//!   task on it is then at most the threshold, so the grant is discarded.
//!   Delays only grow within a call, so a path stays saturated; the sweeps
//!   flag its tasks when it first saturates and never scan them again.
//! * **One price per guard sequence.** `prob(p, τ)` is the product of the
//!   literals of the guards decided at or after `τ` on `p`, a suffix of
//!   the path's guard-literal sequence. The graph interns those sequences
//!   (an MPEG graph has about a thousand paths but a few dozen distinct
//!   sequences), and every suffix is priced once per call.
//!
//! Every pass over a task's spanning paths — seeding, `CalculateSlack` and
//! slack propagation — scans the task's node ranges from the path walk
//! ([`ScheduledGraph`] keeps them per task), in ascending path order.
//! `CalculateSlack` folds each minterm group's candidates into per-group
//! accumulators as it meets the group's members, and sums over the groups
//! in the order the scan first meets them.

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::sgraph::{ScheduledGraph, DEFAULT_PATH_CAP};
use crate::speed::SpeedAssignment;
use ctg_model::{BranchProbs, TaskId};
use std::ops::Range;

/// Tuning knobs for the stretching heuristic.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchConfig {
    /// Lower bound on assigned speed ratios (guards against degenerate
    /// stretching when a path has huge slack).
    pub min_speed: f64,
    /// Maximum number of scheduled-graph paths to enumerate before falling
    /// back to critical-path-based stretching.
    pub path_cap: usize,
    /// Number of stretching sweeps over the task order.
    ///
    /// The paper's Figure-2 heuristic makes a single probability-weighted
    /// pass, which leaves slack unused but makes the solution *sensitive to
    /// the probability estimates* — the property the adaptive manager
    /// exploits. More sweeps approach full slack utilisation (closer to the
    /// NLP optimum) at the cost of that sensitivity. The default of 2 is the
    /// empirical balance that reproduces both Table 1 and Figure 5 shapes.
    pub sweeps: usize,
}

impl Default for StretchConfig {
    fn default() -> Self {
        StretchConfig {
            min_speed: 0.05,
            path_cap: DEFAULT_PATH_CAP,
            sweeps: 2,
        }
    }
}

impl StretchConfig {
    /// A configuration that iterates stretching to (near) full slack
    /// utilisation — probability-insensitive but closest to the NLP optimum.
    pub fn exhaustive() -> Self {
        StretchConfig {
            sweeps: MAX_SWEEPS,
            ..Default::default()
        }
    }

    /// The paper-faithful single-pass configuration (maximum probability
    /// sensitivity, lowest slack utilisation).
    pub fn single_pass() -> Self {
        StretchConfig {
            sweeps: 1,
            ..Default::default()
        }
    }
}

const PROB_ONE_EPS: f64 = 1e-9;

/// The sweeps discard a grant at or below this, and a path whose
/// remaining slack `D − delay` is at or below it is saturated: the
/// deadline cap of every task on it is then at most this, so none of them
/// can be granted anything. One constant for both tests — a looser
/// saturation threshold would skip real grants.
const GRANT_EPS: f64 = 1e-12;

/// Runs the stretching heuristic on a committed schedule.
///
/// # Errors
///
/// Returns [`SchedError::InvalidParameter`] for a non-positive `min_speed`
/// or zero `path_cap`.
/// # Example
///
/// ```
/// use ctg_sched::{dls_schedule, stretch_schedule, StretchConfig};
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
/// let speeds = stretch_schedule(&ctx, &probs, &schedule, &StretchConfig::default())?;
/// // With a loose deadline every task slows down.
/// assert!(ctx.ctg().tasks().all(|t| speeds.speed(t) < 1.0));
/// # Ok(())
/// # }
/// ```
pub fn stretch_schedule(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
) -> Result<SpeedAssignment, SchedError> {
    validate_config(cfg)?;
    Ok(stretch_with_seed(ctx, probs, schedule, cfg, None))
}

/// [`stretch_schedule`] warm-started from a previous speed assignment.
///
/// The seed's stretch is pre-applied (each task's accumulated extension and
/// every spanning path's delay start from the seeded speeds) before the
/// sweeps run, so a seed near the solution leaves the sweeps almost nothing
/// to grant. Each seeded call therefore *continues* the slack-consuming
/// iteration where the seed stopped (a cold exhaustive run may hit its
/// sweep cap first); iterating the seeding converges to a fixed point that
/// re-seeds to itself — see `tests/solver_equivalence.rs`.
///
/// # Errors
///
/// Same as [`stretch_schedule`].
pub fn stretch_schedule_seeded(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
    seed: &SpeedAssignment,
) -> Result<SpeedAssignment, SchedError> {
    validate_config(cfg)?;
    Ok(stretch_with_seed(ctx, probs, schedule, cfg, Some(seed)))
}

/// Builds the scheduled graph and stretches on it, or falls back to
/// critical-path stretching over the path cap.
fn stretch_with_seed(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
    seed: Option<&SpeedAssignment>,
) -> SpeedAssignment {
    match ScheduledGraph::build(ctx, schedule, probs, cfg.path_cap) {
        Some(graph) => {
            let mut scratch = StretchScratch::default();
            stretch_on_graph(ctx, probs, schedule, cfg, &graph, seed, &mut scratch).0
        }
        None => critical_path_fallback(ctx, probs, schedule, cfg),
    }
}

/// Rejects configurations [`stretch_schedule`] cannot run with.
pub(crate) fn validate_config(cfg: &StretchConfig) -> Result<(), SchedError> {
    if !(cfg.min_speed > 0.0 && cfg.min_speed <= 1.0) {
        return Err(SchedError::InvalidParameter("min_speed must lie in (0, 1]"));
    }
    if cfg.path_cap == 0 {
        return Err(SchedError::InvalidParameter("path_cap must be positive"));
    }
    if cfg.sweeps == 0 {
        return Err(SchedError::InvalidParameter("sweeps must be positive"));
    }
    Ok(())
}

/// Hard upper bound on stretching sweeps (used by
/// [`StretchConfig::exhaustive`]).
pub(crate) const MAX_SWEEPS: usize = 64;

/// Reusable buffers for [`stretch_on_graph`]: every field is cleared and
/// refilled per call, so a long-lived scratch makes repeated stretching
/// allocation-free after warm-up.
#[derive(Debug, Clone, Default)]
pub(crate) struct StretchScratch {
    extra: Vec<f64>,
    delays: Vec<f64>,
    task_probs: Vec<f64>,
    /// `prob(p, τ)` per suffix slot of the graph's distinct guard-literal
    /// sequences, indexed by a path's first slot plus its node range's
    /// `k` (see [`NodeRange`](crate::sgraph::NodeRange)). The
    /// guards decided at or after `τ`'s position form a suffix of the
    /// path's guards, and paths with equal literal sequences share their
    /// suffixes, so each is priced once per call, before the sweeps: the
    /// same left-to-right product from 1.0 over the same literals that
    /// [`SPath::prob_after`](crate::SPath::prob_after) takes, so the same
    /// bits.
    prob_after: Vec<f64>,
    /// The context's flat literal table under the current table: the
    /// exact f64s `BranchProbs::prob` returns (see
    /// [`SchedContext::literal_probs_into`]).
    lit_probs: Vec<f64>,
    /// Per-scenario probabilities under the current table, in enumeration
    /// order.
    scenario_probs: Vec<f64>,
    /// Per task: whether a saturated path spans it, so the sweeps skip it.
    blocked: Vec<bool>,
    groups: GroupScans,
    /// Task visits the last call skipped as blocked.
    #[cfg(test)]
    blocked_visits: usize,
}

/// One minterm group's state in a [`calculate_slack`] scan: the
/// `(slack ratio, prob(p, τ))` of the critical member overall and of the
/// critical member still undecided at `τ`, stamped with the scan that
/// wrote them.
#[derive(Debug, Clone, Copy, Default)]
struct GroupScan {
    epoch: u32,
    critical: (f64, f64),
    undecided: Option<(f64, f64)>,
}

/// [`calculate_slack`]'s per-group accumulators, indexed by group id and
/// stamped with the scan that last wrote them instead of being cleared,
/// and the groups the current scan has met, in the order it met them.
#[derive(Debug, Clone, Default)]
struct GroupScans {
    acc: Vec<GroupScan>,
    met: Vec<u32>,
    epoch: u32,
}

impl StretchScratch {
    /// Prices `probs` into the scratch's literal and per-scenario tables,
    /// which [`stretch_priced`] reads: the per-scenario table holds the
    /// bits [`SchedContext::scenario_probs`] returns.
    pub(crate) fn price(&mut self, ctx: &SchedContext, probs: &BranchProbs) {
        ctx.literal_probs_into(probs, &mut self.lit_probs);
        ctx.scenario_probs_into(&self.lit_probs, &mut self.scenario_probs);
    }

    /// The per-scenario table the last [`StretchScratch::price`] filled.
    pub(crate) fn scenario_probs(&self) -> &[f64] {
        &self.scenario_probs
    }
}

impl GroupScans {
    /// Room for a graph of `groups` minterm groups.
    fn fit(&mut self, groups: usize) {
        if self.acc.len() < groups {
            self.acc.resize(groups, GroupScan::default());
        }
    }

    /// Starts a scan: a fresh stamp no accumulator holds, and no group met.
    fn start(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.acc.fill(GroupScan::default());
            self.epoch = 1;
        }
        self.met.clear();
        self.epoch
    }
}

/// The stretching sweeps against an already-built scheduled graph.
///
/// The graph is **not mutated**: current path delays live in
/// `scratch.delays` (initialized from the graph's nominal delays), so an
/// incumbent graph stays reusable. With `seed = None` this is
/// bit-for-bit the historical `stretch_with_paths` — the same operations on
/// the same values in the same order, with the delay updates applied to the
/// scratch buffer instead of the paths. A seed pre-applies a previous
/// assignment's stretch before the sweeps run (see
/// [`stretch_schedule_seeded`]). Tasks on a saturated path are skipped
/// without a scan, which the grant they skip could not change (see the
/// module doc).
///
/// Returns the speeds and the number of members the slack scans read, the
/// summed lengths of the scanned tasks' node ranges (the
/// [`Stage::Stretch`](ctg_obs::Stage::Stretch) span's arg).
pub(crate) fn stretch_on_graph(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
    graph: &ScheduledGraph,
    seed: Option<&SpeedAssignment>,
    scratch: &mut StretchScratch,
) -> (SpeedAssignment, u64) {
    scratch.price(ctx, probs);
    stretch_priced(ctx, schedule, cfg, graph, seed, scratch)
}

/// [`stretch_on_graph`] under the table `scratch` was last priced with
/// ([`StretchScratch::price`]): a pool hit prices once, re-weights its
/// graph from the scratch's per-scenario table and stretches.
pub(crate) fn stretch_priced(
    ctx: &SchedContext,
    schedule: &Schedule,
    cfg: &StretchConfig,
    graph: &ScheduledGraph,
    seed: Option<&SpeedAssignment>,
    scratch: &mut StretchScratch,
) -> (SpeedAssignment, u64) {
    let deadline = ctx.ctg().deadline();
    let profile = ctx.platform().profile();
    let n = ctx.ctg().num_tasks();

    scratch.extra.clear();
    scratch.extra.resize(n, 0.0);
    // Per-task activation probabilities from the priced tables (the
    // context's flat literal table and the per-scenario one derived
    // through it): every product and sum below walks the same values in
    // the same order as the `BranchProbs`/`ScenarioSet` originals, so the
    // results are bit-identical. `prob(τ)` sums the task mask's scenarios
    // in ascending order, as `ScenarioSet::task_prob` does over the active
    // ones.
    scratch.task_probs.clear();
    scratch.task_probs.extend(
        ctx.ctg()
            .tasks()
            .map(|t| ctx.mask_prob(ctx.task_mask(t), &scratch.scenario_probs)),
    );
    scratch.delays.clear();
    scratch.delays.extend(graph.paths().map(|p| p.delay()));
    scratch.prob_after.clear();
    scratch.prob_after.resize(graph.suffix_slots(), 0.0);
    for (first, lits) in graph.guard_suffixes() {
        for k in 0..=lits.len() {
            scratch.prob_after[first + k] = lits[k..]
                .iter()
                .map(|&lit| ctx.literal_prob(&scratch.lit_probs, lit))
                .product();
        }
    }

    if let Some(seed) = seed {
        for t in ctx.ctg().tasks() {
            let s = seed.speed(t);
            if s < 1.0 {
                let wcet = profile.wcet(t.index(), schedule.pe_of(t));
                let extra = wcet * (1.0 / s - 1.0);
                scratch.extra[t.index()] = extra;
                for r in graph.span_ranges(t) {
                    for d in &mut scratch.delays[r.paths()] {
                        *d += extra;
                    }
                }
            }
        }
    }
    // Delays only grow within a call and `D − d` is monotone in `d`, so a
    // saturated path stays saturated. Each path is flagged when it first
    // saturates — here, or below in the grant that saturates it (its tasks
    // are never granted again, so its delay never changes again).
    scratch.blocked.clear();
    scratch.blocked.resize(n, false);
    block_saturated(
        graph,
        0..scratch.delays.len(),
        &scratch.delays,
        deadline,
        &mut scratch.blocked,
    );
    scratch.groups.fit(graph.groups());
    let mut members_read = 0;
    #[cfg(test)]
    {
        scratch.blocked_visits = 0;
    }

    for _sweep in 0..cfg.sweeps.clamp(1, MAX_SWEEPS) {
        let mut granted_total = 0.0;
        for &t in schedule.task_order() {
            let wcet = profile.wcet(t.index(), schedule.pe_of(t));
            if wcet <= 0.0 || graph.span_ranges(t).is_empty() {
                continue;
            }
            let task_prob = scratch.task_probs[t.index()];
            if task_prob <= 0.0 {
                // A task that can never activate costs no expected energy
                // either way; leave it at nominal speed.
                continue;
            }
            if scratch.blocked[t.index()] {
                // Its deadline cap is at most `GRANT_EPS`, so the grant
                // below would be discarded: skipping the scan changes no
                // state.
                #[cfg(test)]
                {
                    scratch.blocked_visits += 1;
                }
                continue;
            }
            let (slack, read) = calculate_slack(
                graph,
                t,
                wcet,
                task_prob,
                deadline,
                &scratch.delays,
                &scratch.prob_after,
                &mut scratch.groups,
            );
            members_read += read;
            // Respect the speed floor over the *accumulated* extension.
            let max_total = wcet * (1.0 / cfg.min_speed - 1.0);
            let slack = slack.min(max_total - scratch.extra[t.index()]).max(0.0);
            if slack <= GRANT_EPS {
                continue;
            }
            scratch.extra[t.index()] += slack;
            granted_total += slack;
            // Lock and propagate: every spanning path now takes `slack`
            // longer. Each path's update reads only its own delay, so the
            // order over the paths is free; nothing here reads the flags,
            // so a range flags its newly saturated paths after its sums,
            // and only a range that saturated looks for them.
            for r in graph.span_ranges(t) {
                let mut saturated = false;
                for d in &mut scratch.delays[r.paths()] {
                    *d += slack;
                    saturated |= deadline - *d <= GRANT_EPS;
                }
                if saturated {
                    block_saturated(
                        graph,
                        r.paths(),
                        &scratch.delays,
                        deadline,
                        &mut scratch.blocked,
                    );
                }
            }
        }
        if granted_total <= 1e-9 * deadline {
            break;
        }
    }

    let mut speeds = SpeedAssignment::nominal(n);
    for t in ctx.ctg().tasks() {
        if scratch.extra[t.index()] > 0.0 {
            let wcet = profile.wcet(t.index(), schedule.pe_of(t));
            speeds.set(t, wcet / (wcet + scratch.extra[t.index()]));
        }
    }
    (speeds, members_read)
}

/// Flags every task on each saturated path among `paths` as blocked,
/// walking the path's frame chain up from its last task.
fn block_saturated(
    graph: &ScheduledGraph,
    paths: Range<usize>,
    delays: &[f64],
    deadline: f64,
    blocked: &mut [bool],
) {
    for i in paths {
        if deadline - delays[i] <= GRANT_EPS {
            for t in graph.chain(i) {
                blocked[t.index()] = true;
            }
        }
    }
}

/// A path's distributable slack ratio `slk(p)/delay(p)` at delay `delay`.
fn slack_ratio(deadline: f64, delay: f64) -> f64 {
    if delay <= 0.0 {
        0.0
    } else {
        (deadline - delay) / delay
    }
}

/// The paper's `CalculateSlack(τ)` routine. Returns the slack and the
/// number of members it read.
///
/// Scans `τ`'s node ranges, which ascend, are disjoint and cover exactly
/// its spanning paths, so the scan meets every spanning path once, in
/// ascending path order. A member's minterm group and suffix slot come
/// from the graph's path keys and the range's `k`; `delays` holds the
/// current (stretched-so-far) delay of every path, from which the scan
/// computes each member's slack ratio, and `prob_after` holds `prob(p, τ)`
/// per suffix slot, priced once per call.
///
/// The scan folds the largest delay, for the deadline cap, and, per group,
/// two candidates: the critical member overall and the critical member
/// still undecided at `τ`. Both replace on `<=` in path order, so the last
/// of equal minima wins, exactly as a scan over only the eligible members
/// would pick.
/// The current group's accumulator stays in locals while consecutive
/// members share the group (most do). `slk1` then sums over the groups in
/// the order the scan first met them: first occurrence over the ascending
/// spanning paths. `tests/stretch_reference.rs` pins that order and the
/// tie rule against a plain per-group reference, the rule on a graph
/// built to tie.
#[allow(clippy::too_many_arguments)]
fn calculate_slack(
    graph: &ScheduledGraph,
    task: TaskId,
    wcet: f64,
    task_prob: f64,
    deadline: f64,
    delays: &[f64],
    prob_after: &[f64],
    groups: &mut GroupScans,
) -> (f64, u64) {
    let keys = graph.path_keys();
    let epoch = groups.start();
    // Steps 9–10 (fused): never push any spanning path past the deadline.
    // The cap is the smallest `D − d` over the spanning paths, and since
    // `fl(D − d)` never increases as `d` grows, that is `D − max d` bit for
    // bit; an empty scan leaves `D − (−∞) = +∞`, the empty minimum.
    let mut max_delay = f64::NEG_INFINITY;
    let mut read = 0;
    // The group of the previous member and its accumulator.
    let mut current = u32::MAX;
    let mut acc = GroupScan::default();
    for range in graph.span_ranges(task) {
        let paths = range.paths();
        read += paths.len() as u64;
        // A member's price sits at its path's first slot plus the range's `k`.
        let prob_after = &prob_after[range.k as usize..];
        for (key, &d) in keys[paths.clone()].iter().zip(&delays[paths]) {
            max_delay = max_delay.max(d);
            let r = slack_ratio(deadline, d);
            let pa = prob_after[key.slot as usize];
            if key.group != current {
                if current != u32::MAX {
                    groups.acc[current as usize] = acc;
                }
                current = key.group;
                acc = groups.acc[current as usize];
                if acc.epoch != epoch {
                    // The group's first member in this scan.
                    groups.met.push(current);
                    acc = GroupScan {
                        epoch,
                        critical: (r, pa),
                        undecided: (pa < 1.0 - PROB_ONE_EPS).then_some((r, pa)),
                    };
                    continue;
                }
            }
            if r <= acc.critical.0 {
                acc.critical = (r, pa);
            }
            if pa < 1.0 - PROB_ONE_EPS && acc.undecided.is_none_or(|(best, _)| r <= best) {
                acc.undecided = Some((r, pa));
            }
        }
    }
    if current != u32::MAX {
        groups.acc[current as usize] = acc;
    }

    let mut slk1 = 0.0;
    let mut any1 = false;
    let mut slk2 = f64::INFINITY;
    let mut any2 = false;
    for &g in &groups.met {
        let acc = groups.acc[g as usize];
        let group_prob = graph.group_prob(g);
        if group_prob <= PROB_ONE_EPS {
            // A minterm the current estimates consider impossible: it must
            // not throttle the slack of live tasks. (It still participates
            // in the deadline cap above, so the worst case stays safe even
            // when the estimate is wrong.)
            continue;
        }
        if group_prob + PROB_ONE_EPS >= 1.0 {
            // Step 5–7: minterms with probability 1 contribute via slk2.
            slk2 = slk2.min(wcet * acc.critical.0 * task_prob);
            any2 = true;
        } else {
            // Step 3–4: pick the critical path with prob(p, τ) ≠ 1 and the
            // lowest distributable slack ratio; fall back to the whole group
            // when every spanning path is already decided at τ.
            let (worst_ratio, p_after) = acc.undecided.unwrap_or(acc.critical);
            slk1 += p_after * wcet * worst_ratio * task_prob;
            any1 = true;
        }
    }

    let slack = match (any1, any2) {
        (true, true) => slk1.min(slk2),
        (true, false) => slk1,
        (false, true) => slk2,
        (false, false) => 0.0,
    };
    (slack.min(deadline - max_delay), read)
}

/// Fallback when path enumeration exceeds the cap: distribute slack along
/// per-task worst-case critical paths computed by dynamic programming
/// (condition-blind, therefore conservative), weighted by `prob(τ)` —
/// priced once from the task masks, bit-identical to `ctx.task_prob`.
pub(crate) fn critical_path_fallback(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
) -> SpeedAssignment {
    let scenario_probs = ctx.scenario_probs(probs);
    let task_probs: Vec<f64> = ctx
        .ctg()
        .tasks()
        .map(|t| ctx.mask_prob(ctx.task_mask(t), &scenario_probs))
        .collect();
    proportional_stretch(ctx, schedule, cfg, &|t| task_probs[t.index()], true)
}

/// Critical-path proportional slack distribution.
///
/// Shared by the fallback path of the online heuristic (`weight` = activation
/// probability) and by the probability-blind reference algorithm 1
/// (`weight` ≡ 1, no mutual-exclusion overlap in the constraint graph).
pub(crate) fn proportional_stretch(
    ctx: &SchedContext,
    schedule: &Schedule,
    cfg: &StretchConfig,
    weight: &dyn Fn(TaskId) -> f64,
    exploit_mutex: bool,
) -> SpeedAssignment {
    let ctg = ctx.ctg();
    let n = ctg.num_tasks();
    let profile = ctx.platform().profile();
    let comm = ctx.platform().comm();
    let deadline = ctg.deadline();

    // Constraint edges: CTG + implied + same-PE serialization.
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut radj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let push = |s: usize,
                d: usize,
                delay: f64,
                adj: &mut Vec<Vec<(usize, f64)>>,
                radj: &mut Vec<Vec<(usize, f64)>>| {
        adj[s].push((d, delay));
        radj[d].push((s, delay));
    };
    for (_, e) in ctg.edges() {
        let d = comm.delay(
            schedule.pe_of(e.src()),
            schedule.pe_of(e.dst()),
            e.comm_kbytes(),
        );
        push(e.src().index(), e.dst().index(), d, &mut adj, &mut radj);
    }
    for &(f, o) in ctx.activation().implied_or_deps() {
        push(f.index(), o.index(), 0.0, &mut adj, &mut radj);
    }
    for pe in ctx.platform().pes() {
        let order = schedule.pe_order(pe);
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                if exploit_mutex && ctx.mutually_exclusive(order[i], order[j]) {
                    continue;
                }
                push(order[i].index(), order[j].index(), 0.0, &mut adj, &mut radj);
            }
        }
    }

    let mut exec: Vec<f64> = (0..n)
        .map(|t| profile.wcet(t, schedule.pe_of(TaskId::new(t))))
        .collect();
    // A topological order of the *constraint* graph: pseudo edges always go
    // from earlier to strictly later start times, so start order works (the
    // CTG's own topological order does not account for pseudo edges).
    let mut topo: Vec<TaskId> = ctg.tasks().collect();
    topo.sort_by(|&a, &b| {
        schedule
            .start(a)
            .partial_cmp(&schedule.start(b))
            .expect("start times are finite")
            .then(a.cmp(&b))
    });
    let topo = &topo;
    let base_exec = exec.clone();
    // Longest-chain scratch, reused across tasks and sweeps: every slot is
    // fully overwritten by the propagation passes below, so hoisting the
    // buffers out of the loop changes nothing but the allocation count.
    let mut to = vec![0.0_f64; n];
    let mut from = vec![0.0_f64; n];
    for _sweep in 0..cfg.sweeps.clamp(1, MAX_SWEEPS) {
        let mut granted_total = 0.0;
        for &t in schedule.task_order() {
            // Longest in/out chains with current (already stretched)
            // durations.
            for &u in topo {
                let mut best: f64 = 0.0;
                for &(p, d) in &radj[u.index()] {
                    best = best.max(to[p] + exec[p] + d);
                }
                to[u.index()] = best;
            }
            for &u in topo.iter().rev() {
                let mut best: f64 = 0.0;
                for &(s, d) in &adj[u.index()] {
                    best = best.max(from[s] + exec[s] + d);
                }
                from[u.index()] = best;
            }
            let path_delay = to[t.index()] + exec[t.index()] + from[t.index()];
            if path_delay >= deadline {
                continue;
            }
            let ratio = (deadline - path_delay) / path_delay;
            let wcet = base_exec[t.index()];
            let max_total = wcet * (1.0 / cfg.min_speed - 1.0);
            let already = exec[t.index()] - wcet;
            let slack = (wcet * ratio * weight(t))
                .min(deadline - path_delay)
                .min(max_total - already)
                .max(0.0);
            if slack > 1e-12 {
                exec[t.index()] += slack;
                granted_total += slack;
            }
        }
        if granted_total <= 1e-9 * deadline {
            break;
        }
    }
    let mut speeds = SpeedAssignment::nominal(n);
    for t in 0..n {
        if exec[t] > base_exec[t] {
            speeds.set(TaskId::new(t), base_exec[t] / exec[t]);
        }
    }
    speeds
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dls::dls_schedule;
    use crate::speed::expected_energy;
    use crate::test_util::{chain_context, example1_context, example1_ctg, uniform_platform};
    use ctg_model::Literal;

    #[test]
    fn chain_stretch_fills_deadline() {
        // Chain of 3 tasks (wcet 2 each) with deadline 60: lots of slack.
        let (ctx, probs, _) = chain_context(60.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let speeds = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        // Every task slowed down.
        for t in ctx.ctg().tasks() {
            assert!(speeds.speed(t) < 1.0, "{t} should be stretched");
        }
        // Total stretched delay still within the deadline.
        let total: f64 = ctx.ctg().tasks().map(|t| 2.0 / speeds.speed(t)).sum();
        assert!(total <= 60.0 + 1e-6);
    }

    #[test]
    fn no_slack_means_nominal_speeds() {
        // Deadline equal to the makespan: nothing can stretch.
        let (ctx, probs, _) = chain_context(60.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let tight = ctx.ctg().with_deadline(sched.makespan());
        let ctx2 = SchedContext::new(tight, ctx.platform().clone()).unwrap();
        let sched2 = dls_schedule(&ctx2, &probs).unwrap();
        let speeds = stretch_schedule(&ctx2, &probs, &sched2, &StretchConfig::default()).unwrap();
        for t in ctx2.ctg().tasks() {
            assert!((speeds.speed(t) - 1.0).abs() < 1e-9);
        }
    }

    use crate::context::SchedContext;

    #[test]
    fn stretching_reduces_expected_energy() {
        let (ctx, probs, _) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let nominal = SpeedAssignment::nominal(ctx.ctg().num_tasks());
        let stretched = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        let e0 = expected_energy(&ctx, &probs, &sched, &nominal);
        let e1 = expected_energy(&ctx, &probs, &sched, &stretched);
        assert!(e1 < e0, "stretching must save energy ({e1} !< {e0})");
    }

    #[test]
    fn deadline_respected_after_stretching() {
        let (ctx, probs, _) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let speeds = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        // Re-run the path analysis with stretched execution times: every
        // path must still meet the deadline.
        let graph = ScheduledGraph::build(&ctx, &sched, &probs, 100_000).unwrap();
        let profile = ctx.platform().profile();
        for p in graph.paths() {
            let stretched_delay: f64 = p.delay()
                + p.tasks()
                    .iter()
                    .map(|&t| {
                        let w = profile.wcet(t.index(), sched.pe_of(t));
                        w / speeds.speed(t) - w
                    })
                    .sum::<f64>();
            assert!(
                stretched_delay <= ctx.ctg().deadline() + 1e-6,
                "path exceeds deadline: {stretched_delay}"
            );
        }
    }

    #[test]
    fn likely_tasks_get_more_slack() {
        // Two independent chains after a fork: the likely arm should end up
        // slower (more stretched) than the unlikely one.
        let (ctg, ids) = example1_ctg(100.0);
        let [_, _, t3, t4, t5, ..] = ids;
        let mut probs = ctg_model::BranchProbs::uniform(&ctg);
        probs.set(t3, vec![0.9, 0.1]).unwrap();
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let speeds = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        // τ4 (prob 0.9) should run no faster than τ5 (prob 0.1) would
        // suggest symmetric treatment; with probability weighting τ4 gets
        // more slack.
        assert!(
            speeds.speed(t4) <= speeds.speed(t5) + 1e-9,
            "likely task should be at least as stretched: s4={} s5={}",
            speeds.speed(t4),
            speeds.speed(t5)
        );
    }

    #[test]
    fn min_speed_floor_enforced() {
        let (ctx, probs, _) = chain_context(10_000.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let cfg = StretchConfig {
            min_speed: 0.25,
            ..Default::default()
        };
        let speeds = stretch_schedule(&ctx, &probs, &sched, &cfg).unwrap();
        for t in ctx.ctg().tasks() {
            assert!(speeds.speed(t) + 1e-12 >= 0.25);
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let (ctx, probs, _) = chain_context(60.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let bad = StretchConfig {
            min_speed: 0.0,
            ..Default::default()
        };
        assert!(stretch_schedule(&ctx, &probs, &sched, &bad).is_err());
        let bad = StretchConfig {
            path_cap: 0,
            ..Default::default()
        };
        assert!(stretch_schedule(&ctx, &probs, &sched, &bad).is_err());
    }

    /// A table favouring a different alternative at each branch, so the
    /// guard products are not all powers of one half.
    pub(crate) fn skewed_probs(ctg: &ctg_model::Ctg) -> BranchProbs {
        let mut probs = BranchProbs::new();
        for (bi, &b) in ctg.branch_nodes().iter().enumerate() {
            let k = ctg.node(b).alternatives() as usize;
            let weights: Vec<f64> = (0..k).map(|j| (1 + (j + bi) % k) as f64).collect();
            let total: f64 = weights.iter().sum();
            probs
                .set(b, weights.iter().map(|w| w / total).collect())
                .unwrap();
        }
        probs
    }

    /// Every spanning path's priced suffix at every task (its first slot
    /// plus its node range's `k`) is the `prob(p, τ)` the public path
    /// view computes, bit for bit — the reference stretcher only sees
    /// these values through the final speeds — and each distinct guard
    /// sequence is priced once: the priced sequences are pairwise
    /// distinct, and MPEG's table has fewer slots than paths.
    #[test]
    fn priced_suffixes_match_prob_after() {
        let (ex_ctx, _, _) = example1_context();
        let (mpeg_ctx, _) = crate::test_util::mpeg_context();
        let tgff = tgff_gen::TgffConfig::new(11, 24, 3, tgff_gen::Category::ForkJoin);
        let generated = tgff.generate();
        let platform = tgff.generate_platform(&generated.ctg, 3);
        let tgff_ctx = SchedContext::new(generated.ctg, platform).unwrap();
        for (name, ctx) in [
            ("example1", &ex_ctx),
            ("mpeg", &mpeg_ctx),
            ("tgff", &tgff_ctx),
        ] {
            let probs = skewed_probs(ctx.ctg());
            let sched = dls_schedule(ctx, &probs).unwrap();
            let graph = ScheduledGraph::build(ctx, &sched, &probs, DEFAULT_PATH_CAP).unwrap();
            let mut scratch = StretchScratch::default();
            let cfg = StretchConfig::default();
            stretch_on_graph(ctx, &probs, &sched, &cfg, &graph, None, &mut scratch);
            let mut pending = 0;
            for t in ctx.ctg().tasks() {
                for r in graph.span_ranges(t) {
                    for i in r.paths() {
                        let slot = graph.path_keys()[i].slot + r.k;
                        let want = graph.path(i).prob_after(t, &probs);
                        let got = scratch.prob_after[slot as usize];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name}: prob(p, τ) of path {i} at {t}: {got} vs {want}"
                        );
                        pending += usize::from(want < 1.0);
                    }
                }
            }
            assert!(pending > 0, "{name}: some member must have pending guards");
            let seqs: Vec<(usize, &[Literal])> = graph.guard_suffixes().collect();
            let mut next = 0;
            for (j, &(first, lits)) in seqs.iter().enumerate() {
                assert_eq!(first, next, "{name}: slots of sequence {j}");
                next += lits.len() + 1;
                assert!(
                    seqs[..j].iter().all(|&(_, other)| other != lits),
                    "{name}: sequence {j} is priced twice"
                );
            }
            assert_eq!(next, graph.suffix_slots(), "{name}: slot count");
            if name == "mpeg" {
                assert!(
                    graph.suffix_slots() < graph.paths().len(),
                    "mpeg: {} slots for {} paths",
                    graph.suffix_slots(),
                    graph.paths().len()
                );
            }
        }
    }

    /// `CalculateSlack` as the stretcher once ran it: one fold per minterm
    /// group run of the eager two-pass layout, in run order, each run's
    /// members in order, replacing on `<=`.
    #[allow(clippy::too_many_arguments)]
    fn run_by_run_slack(
        graph: &ScheduledGraph,
        runs: &[crate::sgraph::tests::Run],
        wcet: f64,
        task_prob: f64,
        deadline: f64,
        delays: &[f64],
        ratios: &[f64],
        prob_after: &[f64],
    ) -> f64 {
        let (mut slk1, mut any1) = (0.0, false);
        let (mut slk2, mut any2) = (f64::INFINITY, false);
        let mut deadline_cap = f64::INFINITY;
        for run in runs {
            let mut critical = (f64::INFINITY, 1.0);
            let mut critical_undecided: Option<(f64, f64)> = None;
            for (m, &(i, slot)) in run.iter().enumerate() {
                let i = i as usize;
                deadline_cap = deadline_cap.min(deadline - delays[i]);
                let (r, pa) = (ratios[i], prob_after[slot as usize]);
                if m == 0 || r <= critical.0 {
                    critical = (r, pa);
                }
                if pa < 1.0 - PROB_ONE_EPS && critical_undecided.is_none_or(|(b, _)| r <= b) {
                    critical_undecided = Some((r, pa));
                }
            }
            let group_prob = graph.path(run[0].0 as usize).prob();
            if group_prob <= PROB_ONE_EPS {
                continue;
            }
            if group_prob + PROB_ONE_EPS >= 1.0 {
                slk2 = slk2.min(wcet * critical.0 * task_prob);
                any2 = true;
            } else {
                let (worst_ratio, p_after) = critical_undecided.unwrap_or(critical);
                slk1 += p_after * wcet * worst_ratio * task_prob;
                any1 = true;
            }
        }
        let slack = match (any1, any2) {
            (true, true) => slk1.min(slk2),
            (true, false) => slk1,
            (false, true) => slk2,
            (false, false) => 0.0,
        };
        slack.min(deadline_cap)
    }

    /// The library's range-scan `calculate_slack`, run through a stretch
    /// scratch, returns for every task the bits the run-by-run fold over
    /// the eager two-pass layout returns, and reads as many members: on
    /// every graph case, under its own table and a skewed one, at the
    /// nominal delays and at the delays one sweep left.
    #[test]
    fn calculate_slack_matches_the_two_pass_reference() {
        use crate::sgraph::tests::{graph_cases, reference_layout};
        let mut scanned = 0;
        for (name, ctx, own, s) in &graph_cases() {
            for probs in [own.clone(), skewed_probs(ctx.ctg())] {
                let g = ScheduledGraph::build(ctx, s, &probs, DEFAULT_PATH_CAP).unwrap();
                let reference = reference_layout(&g);
                let deadline = ctx.ctg().deadline();
                let mut scratch = StretchScratch::default();
                let cfg = StretchConfig::single_pass();
                stretch_on_graph(ctx, &probs, s, &cfg, &g, None, &mut scratch);
                let swept = scratch.delays.clone();
                let nominal: Vec<f64> = g.paths().map(|p| p.delay()).collect();
                let ratio = |d: f64| if d <= 0.0 { 0.0 } else { (deadline - d) / d };
                for (state, delays) in [("nominal", nominal), ("swept", swept)] {
                    let ratios: Vec<f64> = delays.iter().map(|&d| ratio(d)).collect();
                    scratch.delays = delays;
                    for t in ctx.ctg().tasks() {
                        let runs = &reference[t.index()];
                        if runs.is_empty() {
                            continue;
                        }
                        let wcet = ctx.platform().profile().wcet(t.index(), s.pe_of(t));
                        let task_prob = scratch.task_probs[t.index()];
                        let (got, read) = calculate_slack(
                            &g,
                            t,
                            wcet,
                            task_prob,
                            deadline,
                            &scratch.delays,
                            &scratch.prob_after,
                            &mut scratch.groups,
                        );
                        let want = run_by_run_slack(
                            &g,
                            runs,
                            wcet,
                            task_prob,
                            deadline,
                            &scratch.delays,
                            &ratios,
                            &scratch.prob_after,
                        );
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} {state}: slack of {t}: {got} vs {want}"
                        );
                        let members: usize = runs.iter().map(Vec::len).sum();
                        assert_eq!(read, members as u64, "{name} {state}: members of {t}");
                        scanned += usize::from(got > 0.0 && runs.len() > 1);
                    }
                }
            }
        }
        assert!(
            scanned > 0,
            "no task summed over two groups to a positive slack"
        );
    }

    /// The sweeps skip tasks behind a saturated path on MPEG: the skip is
    /// exercised, so `tests/stretch_reference.rs` pins it rather than the
    /// scan it replaces. After each stretch the blocked set is exactly the
    /// tasks of the paths whose final delay lies within `GRANT_EPS` of the
    /// deadline: delays only grow, so a path saturated on the way is
    /// saturated at the end, and every path is flagged when it saturates.
    #[test]
    fn saturated_paths_block_tasks_on_mpeg() {
        let (ctx, uniform) = crate::test_util::mpeg_context();
        let deadline = ctx.ctg().deadline();
        let mut blocked = 0;
        for probs in [uniform, skewed_probs(ctx.ctg())] {
            let sched = dls_schedule(&ctx, &probs).unwrap();
            let graph = ScheduledGraph::build(&ctx, &sched, &probs, DEFAULT_PATH_CAP).unwrap();
            let mut scratch = StretchScratch::default();
            let cfg = StretchConfig::default();
            let (_, read) =
                stretch_on_graph(&ctx, &probs, &sched, &cfg, &graph, None, &mut scratch);
            assert!(read > 0);
            blocked += scratch.blocked_visits;
            let mut want = vec![false; ctx.ctg().num_tasks()];
            for (i, &d) in scratch.delays.iter().enumerate() {
                if deadline - d <= GRANT_EPS {
                    for t in graph.path(i).tasks() {
                        want[t.index()] = true;
                    }
                }
            }
            assert!(want.contains(&true), "no MPEG path saturated");
            assert_eq!(scratch.blocked, want, "blocked tasks");
        }
        assert!(blocked > 0, "no MPEG stretch skipped a blocked task");
    }

    #[test]
    fn fallback_matches_deadline_too() {
        // Force the fallback with a tiny path cap.
        let (ctx, probs, _) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let cfg = StretchConfig {
            path_cap: 1,
            ..Default::default()
        };
        let speeds = stretch_schedule(&ctx, &probs, &sched, &cfg).unwrap();
        let graph = ScheduledGraph::build(&ctx, &sched, &probs, 100_000).unwrap();
        let profile = ctx.platform().profile();
        for p in graph.paths() {
            let stretched_delay: f64 = p.delay()
                + p.tasks()
                    .iter()
                    .map(|&t| {
                        let w = profile.wcet(t.index(), sched.pe_of(t));
                        w / speeds.speed(t) - w
                    })
                    .sum::<f64>();
            assert!(stretched_delay <= ctx.ctg().deadline() + 1e-6);
        }
    }
}
