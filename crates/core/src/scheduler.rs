//! The scheduler kinds and the drift-event race.
//!
//! The paper's online algorithm maps with modified DLS, then picks speeds
//! with the Fig. 2 stretch. A [`SchedulerKind`] names one such (mapper,
//! speed policy) pair, and every kind solves through the one warm
//! [`SolverWorkspace`]:
//!
//! | kind | mapper | speed policy |
//! |---|---|---|
//! | [`Dls`](SchedulerKind::Dls) | modified DLS on the workspace's dirty-set levels | Fig. 2 stretch |
//! | [`Heft`](SchedulerKind::Heft) | HEFT ranking on the workspace's dirty-set levels | Fig. 2 stretch |
//! | [`Lookahead`](SchedulerKind::Lookahead) | HEFT with a one-step lookahead | Fig. 2 stretch |
//! | [`FrameDvfs`](SchedulerKind::FrameDvfs) | modified DLS on the workspace's dirty-set levels | one uniform frame speed |
//!
//! HEFT ranks ready tasks by the probability-weighted static levels (the
//! expected critical path below each task) and places each on the PE
//! minimising its earliest finish time; the lookahead variant also charges
//! the estimated finish of the task's most critical successor. The frame
//! speed policy is a Berten-&-Goossens-style frame-based DVFS baseline:
//! every task runs at the lowest of [`FRAME_SPEED_LEVELS`] discrete
//! levels whose exact worst-case makespan still meets the deadline. Every
//! Fig. 2 stretch goes through the workspace's graph pool, which is keyed
//! on the mapping alone, so one workspace serves every kind.
//!
//! [`race_portfolio`] runs a configured set of kinds over one table, in
//! entry order, and crowns the winner as each entry solves: schedulable
//! candidates (worst-case makespan within the deadline, the adaptive
//! manager's existing judge) are ranked by expected energy with strict
//! `<` — ties keep the earliest entry — so a portfolio listing DLS first
//! can never adopt a plan with higher expected energy than DLS alone
//! would.
//!
//! Determinism: every kind is a pure function of `(ctx, probs)`. The race
//! replays winners through plan caches keyed on the exact probability
//! bits, which is only sound because re-solving the same inputs cannot
//! produce different bits, and each warm layer of the workspace returns
//! what a cold solve would (pinned in `tests/solver_equivalence.rs` and
//! `tests/scheduler_portfolio.rs`).
//!
//! Cost: a race costs about the sum of its entries' solves. The list
//! schedulers are cheap; an entry whose mapping the pool holds skips the
//! graph build and only re-weights and stretches, and each distinct
//! mapping is built once, whichever entry meets it first. An entry whose
//! schedule and speed policy an earlier entry produced stops after its
//! mapping. The verdict adds one worst-case-makespan check per distinct
//! plan (a longest-path dynamic program over per-edge scenario masks, on
//! the pooled graph's reduced edges) and prices each schedulable
//! candidate once with [`crate::expected_energy`], which reads the
//! context's scenario masks and costs tens of microseconds. DESIGN.md
//! §18.3 has the measured breakdown.

use crate::budget::WorkMeter;
use crate::context::SchedContext;
use crate::dls::eft_list_schedule;
use crate::error::SchedError;
use crate::online::{check_deadline, Solution};
use crate::schedule::Schedule;
use crate::speed::SpeedAssignment;
use crate::stretch::StretchConfig;
use crate::workspace::SolverWorkspace;
use ctg_model::BranchProbs;
use ctg_obs::{Counter, Stage};

/// A scheduler: one (mapper, speed policy) pair solving through a
/// [`SolverWorkspace`] at the default stretch configuration. A plain
/// `Copy` enum keeps every carrier — managers, configs, campaign cells —
/// `Clone` and comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Modified DLS + probability-weighted stretching: the paper's online
    /// algorithm, [`SolverWorkspace::solve`], bit-identical to
    /// [`OnlineScheduler::solve`](crate::OnlineScheduler::solve).
    Dls,
    /// HEFT with probability-weighted upward ranks, then the Fig. 2
    /// stretch.
    Heft,
    /// One-step lookahead list scheduler, then the Fig. 2 stretch.
    Lookahead,
    /// Frame-based DVFS baseline: the DLS mapping at one uniform frame
    /// speed.
    FrameDvfs,
}

impl SchedulerKind {
    /// Every kind, in the canonical (win-counter) order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Dls,
        SchedulerKind::Heft,
        SchedulerKind::Lookahead,
        SchedulerKind::FrameDvfs,
    ];

    /// Number of kinds — the length of per-kind win-counter arrays.
    pub const COUNT: usize = Self::ALL.len();

    /// The stable identifier used in bench columns, win counters and
    /// campaign axis labels.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Dls => "dls",
            SchedulerKind::Heft => "heft",
            SchedulerKind::Lookahead => "lookahead",
            SchedulerKind::FrameDvfs => "frame",
        }
    }

    /// Index into [`SchedulerKind::ALL`]-ordered win-counter arrays (the
    /// variants are declared in that order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a kind from its [`SchedulerKind::name`] (ASCII
    /// case-insensitive, surrounding whitespace ignored).
    pub fn parse(raw: &str) -> Option<SchedulerKind> {
        let t = raw.trim();
        Self::ALL
            .into_iter()
            .find(|k| t.eq_ignore_ascii_case(k.name()))
    }

    /// Solves through a fresh workspace — by the warm == cold contract,
    /// identical to [`SchedulerKind::solve_with_workspace`].
    ///
    /// # Errors
    ///
    /// Same as [`SchedulerKind::solve_with_workspace`].
    pub fn solve(self, ctx: &SchedContext, probs: &BranchProbs) -> Result<Solution, SchedError> {
        let mut ws = SolverWorkspace::new();
        self.solve_with_workspace(ctx, probs, &mut ws)
    }

    /// Maps `ctx`'s CTG under `probs` with the kind's mapper, then picks
    /// its speeds with the kind's speed policy, through `workspace`.
    ///
    /// Only [`SchedulerKind::Dls`] is a [`SolverWorkspace::solve`]: it is
    /// metered against the workspace's budget, opens a `solve` span and
    /// counts in [`WorkspaceStats::solves`](crate::WorkspaceStats::solves).
    /// The other kinds are unmetered and record only their stages: HEFT
    /// and lookahead their static-level update (their ranks), graph-pool
    /// lookups and stretches, the frame kind its static-level update and
    /// `dls_map` span.
    ///
    /// # Errors
    ///
    /// Mapping infeasibility ([`SchedError::NoFeasiblePe`]), unreachable
    /// deadlines ([`SchedError::DeadlineUnreachable`]), and budget aborts
    /// of [`SchedulerKind::Dls`] on a budgeted workspace.
    pub fn solve_with_workspace(
        self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        workspace: &mut SolverWorkspace,
    ) -> Result<Solution, SchedError> {
        let solution = self.solve_unless(ctx, probs, workspace, |_| false)?;
        Ok(solution.expect("a solve that skips no schedule picks speeds"))
    }

    /// The kind's speed policy.
    pub(crate) fn policy(self) -> SpeedPolicy {
        match self {
            SchedulerKind::Dls | SchedulerKind::Heft | SchedulerKind::Lookahead => {
                SpeedPolicy::Stretch
            }
            SchedulerKind::FrameDvfs => SpeedPolicy::Frame,
        }
    }

    /// [`SchedulerKind::solve_with_workspace`], except that it returns
    /// `Ok(None)` after the mapping, before any speed is picked, when
    /// `skip` accepts the schedule. The DLS kind is the workspace's
    /// metered solve, which checks the deadline before it asks.
    pub(crate) fn solve_unless(
        self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        workspace: &mut SolverWorkspace,
        skip: impl FnOnce(&Schedule) -> bool,
    ) -> Result<Option<Solution>, SchedError> {
        let cfg = StretchConfig::default();
        let schedule = match self {
            SchedulerKind::Dls => return workspace.solve_unless(&cfg, ctx, probs, skip),
            SchedulerKind::Heft | SchedulerKind::Lookahead => {
                let ranks = workspace.levels(ctx, probs);
                eft_list_schedule(ctx, ranks, self == SchedulerKind::Lookahead)?
            }
            SchedulerKind::FrameDvfs => {
                workspace.dls_map(ctx, probs, &mut WorkMeter::unlimited())?
            }
        };
        if skip(&schedule) {
            return Ok(None);
        }
        match self.policy() {
            SpeedPolicy::Stretch => {
                check_deadline(ctx, &schedule)?;
                let speeds = workspace.stretch_mapping(&cfg, ctx, probs, &schedule)?;
                Ok(Some(Solution { schedule, speeds }))
            }
            SpeedPolicy::Frame => frame_speed(ctx, schedule, workspace).map(Some),
        }
    }
}

/// How a kind picks the speeds of its mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpeedPolicy {
    /// The deadline check, then the Fig. 2 stretch through the
    /// workspace's graph pool.
    Stretch,
    /// The lowest uniform frame level that meets the deadline
    /// ([`FRAME_SPEED_LEVELS`]).
    Frame,
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of discrete speed levels the frame speed policy chooses from
/// (`k / FRAME_SPEED_LEVELS` for `k = 1..=FRAME_SPEED_LEVELS`) —
/// frame-based schemes assume a small set of processor frequencies, not a
/// continuous range.
pub const FRAME_SPEED_LEVELS: usize = 20;

/// The frame speed policy: every task of `schedule` at the lowest of
/// [`FRAME_SPEED_LEVELS`] levels whose exact worst-case makespan
/// (communication is never scaled) meets the deadline. The gap between
/// this policy and the per-task stretch is what the Table-1 scheduler
/// columns measure. The DP is laid out once for the mapping (through
/// `workspace`'s graph pool when it holds the mapping's graph) and only
/// its loop runs per level.
fn frame_speed(
    ctx: &SchedContext,
    schedule: Schedule,
    workspace: &mut SolverWorkspace,
) -> Result<Solution, SchedError> {
    let n = ctx.ctg().num_tasks();
    let deadline = ctx.ctg().deadline();
    let dp = workspace.makespan_dp(ctx, &schedule);
    // Lowest level first: the worst-case makespan is monotone
    // non-increasing in the frame speed, so the first feasible level is
    // the energy-minimal one.
    for k in 1..=FRAME_SPEED_LEVELS {
        let s = k as f64 / FRAME_SPEED_LEVELS as f64;
        let speeds = SpeedAssignment::new(vec![s; n]);
        if dp.worst_case(ctx, &schedule, &speeds) <= deadline + 1e-9 {
            return Ok(Solution { schedule, speeds });
        }
    }
    let makespan = dp.worst_case(ctx, &schedule, &SpeedAssignment::nominal(n));
    Err(SchedError::DeadlineUnreachable { makespan, deadline })
}

/// The default racing portfolio: the paper's DLS first (so a tie can never
/// adopt anything but the historic plan), then the HEFT-family variants.
/// The frame-based baseline is excluded by default — it exists for bench
/// columns, and its uniform speed almost never beats per-task stretching.
pub const DEFAULT_PORTFOLIO: [SchedulerKind; 3] = [
    SchedulerKind::Dls,
    SchedulerKind::Heft,
    SchedulerKind::Lookahead,
];

/// Parses a scheduler selection string: a single kind name
/// (`"dls"`, `"heft"`, …), the literal `"portfolio"` (the
/// [`DEFAULT_PORTFOLIO`]), or a comma-separated kind list
/// (`"dls,heft,frame"`). Returns `None` for anything unparsable.
pub fn parse_scheduler_selection(raw: &str) -> Option<Vec<SchedulerKind>> {
    let t = raw.trim();
    if t.is_empty() {
        return None;
    }
    if t.eq_ignore_ascii_case("portfolio") {
        return Some(DEFAULT_PORTFOLIO.to_vec());
    }
    t.split(',').map(SchedulerKind::parse).collect()
}

/// Win/loss bookkeeping for portfolio races. `wins` is a fixed per-kind
/// array (indexed by [`SchedulerKind::index`]) rather than a map so the
/// carriers — manager stats, serve summaries — stay `Copy`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Races run (one per drift-event solve while portfolio mode is on —
    /// cache hits replay a past winner without racing).
    pub races: usize,
    /// Races won per scheduler kind, indexed by [`SchedulerKind::index`].
    pub wins: [usize; SchedulerKind::COUNT],
}

/// Outcome of one portfolio race: the adopted entry and its plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceOutcome {
    /// Index into the racing kind slice of the adopted entry.
    pub winner: usize,
    /// The adopted solution.
    pub solution: Solution,
    /// The adopted plan's expected energy under the raced table.
    pub energy: f64,
}

/// Races `kinds` over one probability table and crowns the winner.
///
/// Entries solve in entry order through one shared `workspace`, and each
/// verdict folds in as soon as its entry solves:
///
/// 1. among candidates whose worst-case makespan is within the deadline
///    (`wcm <= deadline + 1e-6`, the adaptive manager's judge), the
///    strictly lowest expected energy wins — ties keep the earliest entry;
/// 2. if no candidate is schedulable, the strictly lowest worst-case
///    makespan wins (degrade like a failed resilient solve would, with
///    the least-bad plan);
/// 3. if every entry failed, the first error in entry order propagates.
///
/// Each distinct plan is judged once. An entry whose schedule and speed
/// policy an earlier entry of the race already produced (HEFT and
/// lookahead often map alike) would produce that entry's plan again, so
/// it stops after its mapping: its energy and makespan would tie, and
/// ties keep the earlier entry, so the verdict cannot change. A plan's
/// worst-case makespan is the exact DP of
/// [`Solution::worst_case_makespan`], run on the constraint layout of the
/// graph the workspace pooled for the plan's mapping (laid out once per
/// graph), or on a cold layout when the pool holds no graph; both give
/// the same bits.
///
/// Sharing the workspace is sound because every warm layer is keyed on
/// its inputs alone: the static levels on the table (every entry brings
/// them to its own table first), and the graph pool on the mapping, which
/// every Fig. 2 stretch goes through — a graph pooled from HEFT's mapping
/// is the graph DLS would build for it. So a race through a long-lived
/// workspace returns what a race of cold entries would, and each distinct
/// mapping is built once, whichever entry meets it first. The
/// workspace's budget constrains the DLS entry only; the other entries
/// are unmetered.
///
/// A `portfolio_race` span, recorded on the workspace's telemetry handle
/// and track, carries the winner index (`-1` when every entry failed).
/// `stats` counts the race, failed or not, and the winning kind.
///
/// # Errors
///
/// [`SchedError::InvalidParameter`] when `kinds` is empty; otherwise the
/// first entry's error, in entry order, when all entries fail.
pub fn race_portfolio(
    kinds: &[SchedulerKind],
    ctx: &SchedContext,
    probs: &BranchProbs,
    workspace: &mut SolverWorkspace,
    stats: &mut PortfolioStats,
) -> Result<RaceOutcome, SchedError> {
    if kinds.is_empty() {
        return Err(SchedError::InvalidParameter(
            "portfolio needs at least one scheduler",
        ));
    }
    let (obs, track) = workspace.obs();
    let span = obs.span(track, Stage::PortfolioRace);
    obs.count(Counter::PortfolioRaces, 1);
    stats.races += 1;

    let deadline = ctx.ctg().deadline();
    // The (entry, plan) pairs produced so far, in entry order; the best
    // schedulable plan as (index into `plans`, energy), and the least-bad
    // one as (index, wcm) while none is schedulable.
    let mut plans: Vec<(usize, Solution)> = Vec::with_capacity(kinds.len());
    let mut best: Option<(usize, f64)> = None;
    let mut fallback: Option<(usize, f64)> = None;
    let mut first_err: Option<SchedError> = None;
    for (i, &kind) in kinds.iter().enumerate() {
        let policy = kind.policy();
        let produced = |schedule: &Schedule| {
            plans
                .iter()
                .any(|(j, p)| kinds[*j].policy() == policy && p.schedule == *schedule)
        };
        let sol = match kind.solve_unless(ctx, probs, workspace, produced) {
            Ok(Some(sol)) => sol,
            Ok(None) => continue,
            Err(e) => {
                first_err.get_or_insert(e);
                continue;
            }
        };
        let wcm = workspace.worst_case_makespan(ctx, &sol);
        let at = plans.len();
        if wcm <= deadline + 1e-6 {
            let e = sol.expected_energy(ctx, probs);
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((at, e));
            }
        } else if best.is_none() && fallback.is_none_or(|(_, bw)| wcm < bw) {
            fallback = Some((at, wcm));
        }
        plans.push((i, sol));
    }
    // A schedulable winner was priced by the fold; only the degraded
    // fallback (ranked by makespan) still needs its energy.
    let (at, energy) = match (best, fallback) {
        (Some(b), _) => b,
        (None, Some((at, _))) => (at, plans[at].1.expected_energy(ctx, probs)),
        (None, None) => {
            span.end(-1);
            return Err(first_err.expect("no winner means every entry errored"));
        }
    };
    let (winner, solution) = plans.swap_remove(at);
    span.end(winner as i64);
    stats.wins[kinds[winner].index()] += 1;
    Ok(RaceOutcome {
        winner,
        solution,
        energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineScheduler;
    use crate::sgraph::worst_case_makespan_dp;
    use crate::test_util::example1_context;
    use ctg_model::TaskId;

    #[test]
    fn all_kinds_produce_valid_schedulable_solutions() {
        let (ctx, probs, _) = example1_context();
        for kind in SchedulerKind::ALL {
            let mut ws = SolverWorkspace::new();
            let sol = kind
                .solve_with_workspace(&ctx, &probs, &mut ws)
                .unwrap_or_else(|e| panic!("{kind} failed: {e:?}"));
            crate::validate::validate_solution(&ctx, &sol.schedule, &sol.speeds)
                .unwrap_or_else(|v| panic!("{kind} invalid: {v:?}"));
            assert!(
                sol.worst_case_makespan(&ctx) <= ctx.ctg().deadline() + 1e-6,
                "{kind} must be schedulable on the loose example deadline"
            );
        }
    }

    #[test]
    fn frame_speed_is_uniform_and_feasible() {
        let (ctx, probs, _) = example1_context();
        let sol = SchedulerKind::FrameDvfs.solve(&ctx, &probs).unwrap();
        let s0 = sol.speeds.speed(TaskId::new(0));
        for t in ctx.ctg().tasks() {
            assert_eq!(sol.speeds.speed(t).to_bits(), s0.to_bits());
        }
        // The next lower level must be infeasible (lowest feasible wins).
        if s0 > 1.0 / FRAME_SPEED_LEVELS as f64 + 1e-12 {
            let lower = s0 - 1.0 / FRAME_SPEED_LEVELS as f64;
            let speeds = SpeedAssignment::new(vec![lower; ctx.ctg().num_tasks()]);
            let wcm = worst_case_makespan_dp(&ctx, &sol.schedule, &speeds);
            assert!(wcm > ctx.ctg().deadline() + 1e-9);
        }
    }

    /// Only the DLS kind is a metered workspace solve; the other kinds
    /// rank or map on the same dirty-set levels without counting as one.
    #[test]
    fn only_the_dls_kind_counts_as_a_workspace_solve() {
        let (ctx, probs, _) = example1_context();
        let mut ws = SolverWorkspace::new();
        for kind in SchedulerKind::ALL {
            kind.solve_with_workspace(&ctx, &probs, &mut ws).unwrap();
        }
        let stats = ws.stats();
        assert_eq!(stats.solves, 1, "{stats:?}");
        assert_eq!(stats.full_level_rebuilds, 1, "{stats:?}");
        assert_eq!(
            stats.dirty_level_updates, 3,
            "the HEFT, lookahead and frame kinds' updates"
        );
        assert_eq!(stats.levels_recomputed, 0, "one table throughout");
    }

    #[test]
    fn race_prefers_the_lowest_energy_schedulable_plan() {
        let (ctx, probs, _) = example1_context();
        let kinds = DEFAULT_PORTFOLIO;
        let mut ws = SolverWorkspace::new();
        let mut stats = PortfolioStats::default();
        let out = race_portfolio(&kinds, &ctx, &probs, &mut ws, &mut stats).unwrap();
        // The winner can never be worse than the DLS entry (entry 0).
        let dls = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        assert!(out.energy <= dls.expected_energy(&ctx, &probs) + 1e-9);
        assert_eq!(
            out.solution,
            kinds[out.winner].solve(&ctx, &probs).unwrap(),
            "the adopted plan is exactly the winner's solve"
        );
        let mut wins = [0; SchedulerKind::COUNT];
        wins[kinds[out.winner].index()] = 1;
        assert_eq!(stats, PortfolioStats { races: 1, wins });
    }

    #[test]
    fn race_ties_keep_the_earliest_entry() {
        // Racing DLS against itself: the repeat maps to entry 0's schedule,
        // so it stops before stretching, and entry 0 wins.
        let (ctx, probs, _) = example1_context();
        let kinds = [SchedulerKind::Dls, SchedulerKind::Dls];
        let mut ws = SolverWorkspace::new();
        let out = race_portfolio(
            &kinds,
            &ctx,
            &probs,
            &mut ws,
            &mut PortfolioStats::default(),
        )
        .unwrap();
        assert_eq!(out.winner, 0);
        let stats = ws.stats();
        assert_eq!(stats.solves, 2, "the repeat still maps: {stats:?}");
        assert_eq!(
            stats.graph_reuses + stats.graph_rebuilds,
            1,
            "only entry 0 stretches: {stats:?}"
        );
    }

    #[test]
    fn race_rejects_an_empty_portfolio() {
        let (ctx, probs, _) = example1_context();
        let mut stats = PortfolioStats::default();
        let err =
            race_portfolio(&[], &ctx, &probs, &mut SolverWorkspace::new(), &mut stats).unwrap_err();
        assert!(matches!(err, SchedError::InvalidParameter(_)));
        assert_eq!(stats, PortfolioStats::default(), "no race ran");
    }

    #[test]
    fn race_propagates_the_first_error_when_all_fail() {
        // A deadline below every schedule's makespan: every entry fails.
        let (ctg, _) = crate::test_util::example1_ctg(1e-3);
        let probs = BranchProbs::uniform(&ctg);
        let platform = crate::test_util::uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let tight = SchedContext::new(ctg, platform).unwrap();
        let kinds = DEFAULT_PORTFOLIO;
        let mut ws = SolverWorkspace::new();
        let mut stats = PortfolioStats::default();
        let err = race_portfolio(&kinds, &tight, &probs, &mut ws, &mut stats).unwrap_err();
        let dls_err = OnlineScheduler::new().solve(&tight, &probs).unwrap_err();
        assert_eq!(err, dls_err, "first entry's error propagates");
        let races = PortfolioStats {
            races: 1,
            ..PortfolioStats::default()
        };
        assert_eq!(stats, races, "a failed race counts, with no winner");
    }

    #[test]
    fn selection_parsing() {
        assert_eq!(SchedulerKind::parse(" HEFT "), Some(SchedulerKind::Heft));
        assert_eq!(SchedulerKind::parse("nope"), None);
        assert_eq!(
            parse_scheduler_selection("portfolio"),
            Some(DEFAULT_PORTFOLIO.to_vec())
        );
        assert_eq!(
            parse_scheduler_selection("dls,frame"),
            Some(vec![SchedulerKind::Dls, SchedulerKind::FrameDvfs])
        );
        assert_eq!(parse_scheduler_selection("dls,bogus"), None);
        assert_eq!(parse_scheduler_selection(""), None);
        for k in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(k.name()), Some(k));
            assert_eq!(SchedulerKind::ALL[k.index()], k);
        }
    }
}
