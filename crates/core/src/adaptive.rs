//! The window-based adaptive scheduling and DVFS manager (paper §III.B).
//!
//! For each branch fork node a fixed-length buffer stores the most recent
//! branch decisions of the executed instances. After every instance the
//! windowed probability estimates are recomputed; when any estimate drifts
//! from the probabilities underlying the current schedule by more than a
//! threshold, the probabilities are re-latched and the online scheduling +
//! DVFS algorithm is re-run ("a call"). The behaviour is that of a low-pass
//! filter over the branch probability signal (the paper's *filtered Prob*
//! series in Figure 4).

use crate::cache::{LruCache, ScheduleKey};
use crate::context::SchedContext;
use crate::error::SchedError;
use crate::online::{OnlineScheduler, Solution};
use crate::scheduler::{race_portfolio, PortfolioStats, SchedulerKind};
use crate::speed::SpeedAssignment;
use crate::workspace::{SolverWorkspace, WorkspaceStats};
use ctg_model::{BranchProbs, Ctg, DecisionVector, TaskId};
use ctg_obs::{Counter, Obs, Stage};
use std::collections::VecDeque;

/// How the manager estimates branch probabilities from observed decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Fixed-length sliding window (the paper's approach).
    Window(usize),
    /// Exponentially weighted moving average with smoothing factor
    /// `alpha ∈ (0, 1]` (extension): heavier `alpha` reacts faster. An EWMA
    /// needs no per-decision buffer and forgets smoothly instead of
    /// abruptly.
    Ewma(f64),
}

/// A per-branch probability estimator.
#[derive(Debug, Clone)]
enum Estimator {
    Window(SlidingWindow),
    Ewma(EwmaEstimator),
}

impl Estimator {
    fn new(kind: EstimatorKind, alts: u8) -> Result<Self, SchedError> {
        match kind {
            EstimatorKind::Window(len) => {
                if len == 0 {
                    return Err(SchedError::InvalidParameter(
                        "window length must be positive",
                    ));
                }
                Ok(Estimator::Window(SlidingWindow::new(alts, len)))
            }
            EstimatorKind::Ewma(alpha) => {
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return Err(SchedError::InvalidParameter(
                        "EWMA alpha must lie in (0, 1]",
                    ));
                }
                Ok(Estimator::Ewma(EwmaEstimator::new(alts, alpha)))
            }
        }
    }

    fn push(&mut self, alt: u8) {
        match self {
            Estimator::Window(w) => w.push(alt),
            Estimator::Ewma(e) => e.push(alt),
        }
    }

    fn estimate(&self) -> Option<Vec<f64>> {
        match self {
            Estimator::Window(w) => w.estimate(),
            Estimator::Ewma(e) => e.estimate(),
        }
    }

    /// `drift` raised to every `|p − q|` of the estimate against
    /// `current`, pairing them as `zip` does, without building the
    /// estimate: each `p` comes from the estimator's `probs()`, the
    /// iterator its `estimate()` collects. Before the first observation,
    /// `drift`.
    fn max_drift(&self, current: &[f64], drift: f64) -> f64 {
        fn fold(probs: Option<impl Iterator<Item = f64>>, current: &[f64], drift: f64) -> f64 {
            probs.map_or(drift, |probs| {
                probs
                    .zip(current)
                    .fold(drift, |d, (p, q)| d.max((p - q).abs()))
            })
        }
        match self {
            Estimator::Window(w) => fold(w.probs(), current, drift),
            Estimator::Ewma(e) => fold(e.probs(), current, drift),
        }
    }
}

/// Exponentially weighted moving average over branch decisions.
#[derive(Debug, Clone)]
pub struct EwmaEstimator {
    weights: Vec<f64>,
    alpha: f64,
    observed: bool,
}

impl EwmaEstimator {
    /// Creates an estimator for a fork with `alts` alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `alts < 2`.
    pub fn new(alts: u8, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0, 1]");
        assert!(alts >= 2, "a branch has at least two alternatives");
        EwmaEstimator {
            weights: vec![0.0; alts as usize],
            alpha,
            observed: false,
        }
    }

    /// Folds one decision into the average.
    pub fn push(&mut self, alt: u8) {
        debug_assert!((alt as usize) < self.weights.len());
        if !self.observed {
            // First observation: start from the one-hot distribution, like a
            // window of length one.
            self.weights[alt as usize] = 1.0;
            self.observed = true;
            return;
        }
        for w in &mut self.weights {
            *w *= 1.0 - self.alpha;
        }
        self.weights[alt as usize] += self.alpha;
    }

    /// The current estimate, or `None` before the first observation.
    pub fn estimate(&self) -> Option<Vec<f64>> {
        self.probs().map(Iterator::collect)
    }

    /// The estimate's probabilities, `w / total` per alternative, or
    /// `None` before the first observation.
    fn probs(&self) -> Option<impl Iterator<Item = f64> + '_> {
        self.observed.then(|| {
            let total: f64 = self.weights.iter().sum();
            self.weights.iter().map(move |w| w / total)
        })
    }
}

/// Sliding window of recent decisions for one branch fork node.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    window: VecDeque<u8>,
    capacity: usize,
    /// Per alternative, its decisions in the window, kept across push and
    /// evict.
    counts: Vec<usize>,
}

impl SlidingWindow {
    /// Creates an empty window of length `capacity` for a fork with `alts`
    /// alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `alts < 2`.
    pub fn new(alts: u8, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(alts >= 2, "a branch has at least two alternatives");
        SlidingWindow {
            window: VecDeque::with_capacity(capacity),
            capacity,
            counts: vec![0; alts as usize],
        }
    }

    /// Shifts a new decision into the window, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics, leaving the window as it was, if `alt` is not one of the
    /// fork's alternatives.
    pub fn push(&mut self, alt: u8) {
        self.counts[alt as usize] += 1;
        if self.window.len() == self.capacity {
            let evicted = self.window.pop_front().expect("a full window is not empty");
            self.counts[evicted as usize] -= 1;
        }
        self.window.push_back(alt);
    }

    /// Number of recorded decisions (≤ capacity).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no decision has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The current windowed estimate, or `None` while the window is empty.
    pub fn estimate(&self) -> Option<Vec<f64>> {
        self.probs().map(Iterator::collect)
    }

    /// The estimate's probabilities, `count / len` per alternative, or
    /// `None` while the window is empty.
    fn probs(&self) -> Option<impl Iterator<Item = f64> + '_> {
        let n = self.window.len() as f64;
        (!self.window.is_empty()).then(|| self.counts.iter().map(move |&c| c as f64 / n))
    }
}

/// Statistics of an adaptive run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveStats {
    /// Instances observed so far.
    pub instances: usize,
    /// Number of times the online scheduling + DVFS was (re-)invoked *and
    /// its candidate adopted*, excluding the initial solve. A schedule-cache
    /// hit is not a call: the whole point of the cache is saving them.
    pub calls: usize,
    /// Adopted re-schedule events: solver calls plus adopted cache hits.
    /// Equals [`AdaptiveStats::calls`] while the cache is disabled.
    pub reschedules: usize,
    /// Schedule-cache lookups answered from the cache (0 while disabled).
    pub cache_hits: usize,
    /// Schedule-cache lookups that fell through to the solver (0 while
    /// disabled). Counts rejected/failed candidates too — it tallies solve
    /// attempts, not adoptions.
    pub cache_misses: usize,
}

/// The guard-banded context of the last guard-banded solve, derived from
/// a base context (recognised by content, as the workspaces recognise
/// theirs) under a guard factor, and kept so repeated guarded solves
/// reuse its analyses.
#[derive(Debug, Clone)]
struct GuardedContext {
    guard: f64,
    base: Ctg,
    ctx: SchedContext,
}

/// The manager's warm-start solver state: two workspaces, each allocated
/// on first use, and the context guard-banded solves run against.
#[derive(Debug, Clone, Default)]
struct Workspaces {
    /// Warm-start solver state for unguarded solves, portfolio races
    /// included (every entry shares it) — bit-for-bit equivalent to
    /// calling the scheduler from scratch, but structurally incremental
    /// across re-schedules. Boxed and allocated on first use:
    /// a serving engine holds one manager per stream but solves through a
    /// per-*worker* workspace, so at fleet scale (100k+ streams) an
    /// eagerly built inline workspace is pure resident dead weight. The
    /// workspace's warm==cold contract makes the deferral invisible in
    /// results.
    unguarded: Option<Box<SolverWorkspace>>,
    /// Separate warm-start state for guard-banded solves: those run
    /// against a deadline-scaled context, and the two streams must not
    /// thrash each other's incumbents (the workspace re-binds by context
    /// content, so interleaving them would discard the warm state every
    /// call). Lazily allocated like `unguarded` — most managers never
    /// solve with a guard band at all.
    guard: Option<Box<SolverWorkspace>>,
    /// The context guard-banded solves run against, kept per guard factor
    /// and base context.
    guarded: Option<Box<GuardedContext>>,
}

impl Workspaces {
    /// The workspace a solve under `guard` runs through and the context
    /// it runs against: below 1, the guard workspace and the guard-banded
    /// context, re-derived ([`SchedContext::with_deadline`]) only when the
    /// guard or the base context changed; otherwise the unguarded
    /// workspace and `ctx`. Solves, portfolio races and the worst-case
    /// checks on their plans all pick here, so a check runs on the
    /// workspace that solved the plan, bound as the solve left it. A
    /// workspace is created on its first pick with the manager's replayed
    /// settings (telemetry, budget).
    fn pick<'a>(
        &'a mut self,
        ctx: &'a SchedContext,
        guard: f64,
        obs: &Obs,
        obs_track: u32,
        budget: Option<u64>,
    ) -> (&'a mut SolverWorkspace, &'a SchedContext) {
        let (slot, ctx) = if guard >= 1.0 {
            (&mut self.unguarded, ctx)
        } else {
            let kept = self.guarded.as_deref().is_some_and(|g| {
                g.guard == guard && g.base == *ctx.ctg() && g.ctx.platform() == ctx.platform()
            });
            if !kept {
                self.guarded = Some(Box::new(GuardedContext {
                    guard,
                    base: ctx.ctg().clone(),
                    ctx: ctx.with_deadline(guard * ctx.ctg().deadline()),
                }));
            }
            let guarded = &self.guarded.as_deref().expect("filled above").ctx;
            (&mut self.guard, guarded)
        };
        let ws = slot.get_or_insert_with(|| {
            let mut ws = SolverWorkspace::new();
            ws.set_obs(obs.clone(), obs_track);
            ws.set_budget(budget);
            Box::new(ws)
        });
        (ws, ctx)
    }

    /// The workspaces created so far.
    fn created(&mut self) -> impl Iterator<Item = &mut SolverWorkspace> {
        [&mut self.unguarded, &mut self.guard]
            .into_iter()
            .filter_map(|slot| slot.as_deref_mut())
    }
}

/// Outcome of a resilient (re-)scheduling attempt.
///
/// Returned by [`AdaptiveScheduler::observe_resilient`] and
/// [`AdaptiveScheduler::resolve_now`]: instead of propagating solver
/// failures, the attempt keeps the last-known-good solution and reports
/// what happened so the caller can account for it.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserveOutcome {
    /// No drift beyond the threshold; the solution in force is unchanged.
    NoDrift,
    /// A new solution was solved and adopted.
    Rescheduled,
    /// The candidate solved, but its worst-case makespan was worse than
    /// both the deadline and the incumbent solution's; kept last-known-good.
    RejectedWorse {
        /// The rejected candidate's worst-case makespan.
        worst_case: f64,
    },
    /// The solver failed; kept last-known-good.
    SolveFailed(SchedError),
}

/// The adaptive scheduler: wraps the online algorithm with per-branch
/// sliding-window profiling and threshold-triggered re-scheduling.
///
/// # Example
///
/// ```
/// use ctg_sched::{AdaptiveScheduler, SchedContext};
/// use ctg_model::{BranchProbs, CtgBuilder, DecisionVector};
/// use mpsoc_platform::PlatformBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CtgBuilder::new("g");
/// let f = b.add_task("fork");
/// let x = b.add_task("x");
/// let y = b.add_task("y");
/// b.add_cond_edge(f, x, 0, 0.0)?;
/// b.add_cond_edge(f, y, 1, 0.0)?;
/// let ctg = b.deadline(30.0).build()?;
///
/// let mut pb = PlatformBuilder::new(3);
/// pb.add_pe("p0");
/// for t in 0..3 {
///     pb.set_wcet_row(t, vec![2.0])?;
///     pb.set_energy_row(t, vec![2.0])?;
/// }
/// let ctx = SchedContext::new(ctg, pb.build()?)?;
///
/// let probs = BranchProbs::uniform(ctx.ctg());
/// let mut adaptive = AdaptiveScheduler::new(&ctx, probs, 8, 0.3)?;
/// // Feed a run of all-alternative-0 decisions: the estimate drifts to 1.0
/// // and re-scheduling triggers.
/// for _ in 0..10 {
///     adaptive.observe(&ctx, &DecisionVector::new(vec![0]))?;
/// }
/// assert!(adaptive.stats().calls >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveScheduler {
    scheduler: OnlineScheduler,
    estimators: Vec<Estimator>,
    current_probs: BranchProbs,
    threshold: f64,
    solution: Solution,
    stats: AdaptiveStats,
    /// Deadline multiplier in `(0, 1]` applied to resilient re-solves
    /// (guard-band rung of the degradation ladder); 1.0 = paper behaviour.
    deadline_guard: f64,
    /// Plans the solve path in force returned, keyed on the exact table,
    /// guard and deadline; `None` means caching is disabled (the default,
    /// which reproduces the paper's re-solve-on-every-drift behaviour
    /// exactly).
    cache: Option<LruCache<ScheduleKey, Solution>>,
    /// The solver workspaces and the guard-banded context.
    workspaces: Workspaces,
    /// Replayed onto lazily created workspaces: the per-solve work budget
    /// in force (`None` = unbudgeted).
    ws_budget: Option<u64>,
    /// Scheduler-portfolio racing state; `None` (the default) keeps the
    /// manager solving through the paper's DLS pipeline alone, bit-for-bit
    /// as before the portfolio existed.
    portfolio: Option<PortfolioState>,
    /// Telemetry handle (disabled by default); drift/adopt/cache events are
    /// recorded against `obs_track`.
    obs: Obs,
    obs_track: u32,
    /// Which forks the last observed instance executed, in branch-node
    /// order (kept to reuse its buffer).
    executed: Vec<bool>,
}

/// Racing state for portfolio mode: the configured entries and the win
/// counters. The entries race through the manager's unguarded workspace.
#[derive(Debug, Clone)]
struct PortfolioState {
    kinds: Vec<SchedulerKind>,
    stats: PortfolioStats,
}

impl AdaptiveScheduler {
    /// Creates the manager, solving once with the initial (profiled)
    /// probabilities.
    ///
    /// # Errors
    ///
    /// Rejects invalid window length / threshold, probability tables not
    /// matching the graph, and scheduling failures.
    pub fn new(
        ctx: &SchedContext,
        initial_probs: BranchProbs,
        window: usize,
        threshold: f64,
    ) -> Result<Self, SchedError> {
        Self::with_scheduler(
            ctx,
            initial_probs,
            window,
            threshold,
            OnlineScheduler::new(),
        )
    }

    /// Like [`AdaptiveScheduler::new`] with a custom online scheduler.
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveScheduler::new`].
    pub fn with_scheduler(
        ctx: &SchedContext,
        initial_probs: BranchProbs,
        window: usize,
        threshold: f64,
        scheduler: OnlineScheduler,
    ) -> Result<Self, SchedError> {
        Self::with_estimator(
            ctx,
            initial_probs,
            EstimatorKind::Window(window),
            threshold,
            scheduler,
        )
    }

    /// Builds the manager with an explicit probability estimator (sliding
    /// window or EWMA).
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveScheduler::new`], plus estimator-parameter errors.
    pub fn with_estimator(
        ctx: &SchedContext,
        initial_probs: BranchProbs,
        kind: EstimatorKind,
        threshold: f64,
        scheduler: OnlineScheduler,
    ) -> Result<Self, SchedError> {
        let estimators = Self::build_estimators(ctx, &initial_probs, kind, threshold)?;
        let mut workspace = SolverWorkspace::new();
        let solution = workspace.solve(scheduler.config(), ctx, &initial_probs)?;
        Ok(Self::assemble(
            scheduler,
            estimators,
            initial_probs,
            threshold,
            solution,
            Some(Box::new(workspace)),
        ))
    }

    /// Builds the manager around an *externally supplied* initial solution,
    /// skipping the construction-time solve.
    ///
    /// `solution` **must** be exactly what `scheduler` would produce for
    /// `(ctx, initial_probs)` — the caller vouches for that. The serving
    /// engine uses this to solve one initial table once and fan it out to
    /// every stream that starts from it; since the solver is deterministic,
    /// the fanned-out manager is indistinguishable from one built with
    /// [`AdaptiveScheduler::with_estimator`].
    ///
    /// # Errors
    ///
    /// Rejects invalid estimator parameters / thresholds and probability
    /// tables not matching the graph (everything except scheduling
    /// failures, which cannot occur because nothing is solved).
    pub fn with_initial_solution(
        ctx: &SchedContext,
        initial_probs: BranchProbs,
        kind: EstimatorKind,
        threshold: f64,
        scheduler: OnlineScheduler,
        solution: Solution,
    ) -> Result<Self, SchedError> {
        let estimators = Self::build_estimators(ctx, &initial_probs, kind, threshold)?;
        // No workspace yet: a fanned-out manager often never solves on its
        // own (external engines solve through shared per-worker state), so
        // deferring the allocation keeps per-stream resident state small.
        Ok(Self::assemble(
            scheduler,
            estimators,
            initial_probs,
            threshold,
            solution,
            None,
        ))
    }

    /// Shared parameter validation and estimator construction.
    fn build_estimators(
        ctx: &SchedContext,
        initial_probs: &BranchProbs,
        kind: EstimatorKind,
        threshold: f64,
    ) -> Result<Vec<Estimator>, SchedError> {
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(SchedError::InvalidParameter("threshold must lie in (0, 1]"));
        }
        initial_probs.validate(ctx.ctg())?;
        ctx.ctg()
            .branch_nodes()
            .iter()
            .map(|&b| Estimator::new(kind, ctx.ctg().node(b).alternatives()))
            .collect()
    }

    fn assemble(
        scheduler: OnlineScheduler,
        estimators: Vec<Estimator>,
        current_probs: BranchProbs,
        threshold: f64,
        solution: Solution,
        workspace: Option<Box<SolverWorkspace>>,
    ) -> Self {
        AdaptiveScheduler {
            scheduler,
            estimators,
            current_probs,
            threshold,
            solution,
            stats: AdaptiveStats::default(),
            deadline_guard: 1.0,
            cache: None,
            workspaces: Workspaces {
                unguarded: workspace,
                ..Workspaces::default()
            },
            ws_budget: None,
            portfolio: None,
            obs: Obs::disabled(),
            obs_track: 0,
            executed: Vec::new(),
        }
    }

    /// Attaches a telemetry handle recording against `track`; forwarded to
    /// both solver workspaces so solve-stage spans land on the same track.
    /// Recording never changes observations, adoptions or solutions.
    pub fn set_obs(&mut self, obs: Obs, track: u32) {
        for ws in self.workspaces.created() {
            ws.set_obs(obs.clone(), track);
        }
        self.obs = obs;
        self.obs_track = track;
    }

    /// Sets (or clears) the deterministic per-solve work budget, forwarded
    /// to both solver workspaces (normal and guard-banded solves share the
    /// limit). A budgeted re-solve that crosses the limit surfaces as
    /// [`ObserveOutcome::SolveFailed`] with
    /// [`SchedError::SolveBudgetExceeded`]; the manager keeps the last
    /// adopted solution, so callers degrade instead of crashing. See
    /// [`SolverWorkspace::set_budget`] for the determinism argument.
    ///
    /// A changed budget drops the cached plans: a race whose DLS entry
    /// aborts crowns another entry, so under a different budget the same
    /// table can race to a different plan.
    pub fn set_solve_budget(&mut self, budget: Option<u64>) {
        if budget != self.ws_budget {
            self.drop_cached_plans();
        }
        self.ws_budget = budget;
        for ws in self.workspaces.created() {
            ws.set_budget(budget);
        }
    }

    /// The configured per-solve work budget, if any.
    pub fn solve_budget(&self) -> Option<u64> {
        self.ws_budget
    }

    /// Does nothing: every solve runs on the calling thread. Kept so
    /// existing callers compile.
    pub fn set_intra_solve_workers(&mut self, _workers: usize) {}

    /// Switches the manager into portfolio mode: every subsequent
    /// unguarded re-solve races `kinds` and adopts the lowest
    /// expected-energy schedulable plan (see [`race_portfolio`] for the
    /// full verdict). List the paper's DLS first so a race can never
    /// adopt a plan with higher expected energy than DLS alone. Guard-banded
    /// resilient solves (`deadline_guard < 1.0`) intentionally stay
    /// DLS-only — the degradation ladder's contract predates the portfolio
    /// — and a solve budget only constrains the DLS entry: the entries
    /// share the manager's unguarded workspace, and the other kinds solve
    /// through it unmetered. A race costs
    /// about the sum of its entries' solves, and an entry whose mapping
    /// the shared pool already holds skips the graph build (see the
    /// `scheduler` module). The construction solve already happened, so
    /// the incumbent plan is unchanged until the next drift event. Cached
    /// plans came from the previous solve path and are dropped.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if `kinds` is empty.
    pub fn enable_portfolio(&mut self, kinds: &[SchedulerKind]) -> Result<(), SchedError> {
        if kinds.is_empty() {
            return Err(SchedError::InvalidParameter(
                "portfolio needs at least one scheduler",
            ));
        }
        self.portfolio = Some(PortfolioState {
            kinds: kinds.to_vec(),
            stats: PortfolioStats::default(),
        });
        self.drop_cached_plans();
        Ok(())
    }

    /// Leaves portfolio mode; subsequent re-solves go through the DLS
    /// pipeline alone, exactly as before [`Self::enable_portfolio`].
    /// Cached plans came from races and are dropped.
    pub fn disable_portfolio(&mut self) {
        self.portfolio = None;
        self.drop_cached_plans();
    }

    /// Whether portfolio racing is enabled.
    pub fn portfolio_enabled(&self) -> bool {
        self.portfolio.is_some()
    }

    /// The racing entries, in race order, when portfolio mode is on.
    pub fn portfolio_kinds(&self) -> Option<&[SchedulerKind]> {
        self.portfolio.as_ref().map(|p| p.kinds.as_slice())
    }

    /// Race and per-kind win counters (all zero when portfolio mode is or
    /// was never on).
    pub fn portfolio_stats(&self) -> PortfolioStats {
        self.portfolio.as_ref().map(|p| p.stats).unwrap_or_default()
    }

    /// The solution currently in force.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// The probability table the current solution was computed with.
    pub fn current_probs(&self) -> &BranchProbs {
        &self.current_probs
    }

    /// Run statistics.
    pub fn stats(&self) -> AdaptiveStats {
        self.stats
    }

    /// The configured adaptation threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Current estimate for `branch`, if any decision was recorded.
    pub fn window_estimate(&self, ctx: &SchedContext, branch: TaskId) -> Option<Vec<f64>> {
        let idx = ctx.ctg().branch_index(branch)?;
        self.estimators[idx].estimate()
    }

    /// Observes one executed instance: shifts the decisions of the *executed*
    /// fork nodes into their windows, then re-schedules when the windowed
    /// estimate drifts beyond the threshold.
    ///
    /// Returns `true` when a re-scheduling call happened.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] for a wrong-size vector,
    /// [`SchedError::InvalidParameter`] when an executed fork's decision
    /// is not one of its alternatives (neither changes any estimator, see
    /// [`AdaptiveScheduler::record_observation`]), and propagates
    /// scheduling failures.
    pub fn observe(
        &mut self,
        ctx: &SchedContext,
        vector: &DecisionVector,
    ) -> Result<bool, SchedError> {
        self.record_observation(ctx, vector)?;
        if let Some(estimated) = self.drifted_probs(ctx) {
            self.record_drift();
            let (solution, hit) = self.solve_probs(ctx, &estimated, 1.0)?;
            self.current_probs = estimated;
            self.solution = solution;
            if !hit {
                self.stats.calls += 1;
            }
            self.stats.reschedules += 1;
            self.record_adopt(!hit);
            return Ok(true);
        }
        Ok(false)
    }

    /// Telemetry: a drift beyond the threshold was detected.
    fn record_drift(&self) {
        self.obs.instant(self.obs_track, Stage::DriftDetect, 1);
        self.obs.count(Counter::DriftEvents, 1);
    }

    /// Telemetry: a candidate was adopted (`solver_call` false = served from
    /// a cache).
    fn record_adopt(&self, solver_call: bool) {
        self.obs
            .instant(self.obs_track, Stage::Adopt, i64::from(solver_call));
        self.obs.count(Counter::Adoptions, 1);
    }

    /// Records one executed instance's branch decisions *without* any
    /// re-scheduling: the estimators keep profiling while the solution in
    /// force stays pinned (used by the degradation ladder's safe mode).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] for a wrong-size vector and
    /// [`SchedError::InvalidParameter`] when an executed fork's decision
    /// is not one of its alternatives; either way no estimator changes.
    pub fn record_observation(
        &mut self,
        ctx: &SchedContext,
        vector: &DecisionVector,
    ) -> Result<(), SchedError> {
        let ctg = ctx.ctg();
        if vector.len() != ctg.num_branches() {
            return Err(SchedError::VectorArity {
                expected: ctg.num_branches(),
                got: vector.len(),
            });
        }
        // Only executed branch fork tasks record a decision (paper: "each
        // time after a branch fork task is executed, a new branch decision is
        // shifted into the buffer").
        vector.executed_forks_into(ctg, ctx.activation(), &mut self.executed);
        let forks = ctg.branch_nodes();
        if forks
            .iter()
            .enumerate()
            .any(|(i, &b)| self.executed[i] && vector.alt(i) >= ctg.node(b).alternatives())
        {
            return Err(SchedError::InvalidParameter(
                "an executed fork's decision is not one of its alternatives",
            ));
        }
        self.stats.instances += 1;
        for (i, &ran) in self.executed.iter().enumerate() {
            if ran {
                self.estimators[i].push(vector.alt(i));
            }
        }
        Ok(())
    }

    /// The drift of the windowed estimates from the probabilities in
    /// force: the largest `|p − q|` over every alternative of every branch
    /// with an estimate, folded in place.
    fn drift(&self, ctx: &SchedContext) -> f64 {
        ctx.ctg()
            .branch_nodes()
            .iter()
            .zip(&self.estimators)
            .fold(0.0, |drift, (&b, e)| {
                let current = self
                    .current_probs
                    .distribution(b)
                    .expect("validated table has every branch");
                e.max_drift(current, drift)
            })
    }

    /// Drift check against the probabilities in force: the estimated table
    /// when any branch's estimate drifted beyond the threshold. Only a
    /// crossing builds the table; most observed instances do not cross.
    fn drifted_probs(&self, ctx: &SchedContext) -> Option<BranchProbs> {
        (self.drift(ctx) > self.threshold).then(|| {
            let mut estimated = self.current_probs.clone();
            for (&b, e) in ctx.ctg().branch_nodes().iter().zip(&self.estimators) {
                if let Some(est) = e.estimate() {
                    estimated
                        .set(b, est)
                        .expect("estimates form a distribution");
                }
            }
            estimated
        })
    }

    /// The estimated probability table, when any branch's windowed estimate
    /// has drifted beyond the threshold from the table in force — i.e. the
    /// table [`AdaptiveScheduler::observe`] would re-schedule on right now.
    ///
    /// Splitting drift detection from solving lets an external engine
    /// route the solve through its own caches and workspaces, then hand
    /// the plan back through [`AdaptiveScheduler::adopt_candidate`].
    pub fn drift_candidate(&self, ctx: &SchedContext) -> Option<BranchProbs> {
        let candidate = self.drifted_probs(ctx);
        if candidate.is_some() {
            self.record_drift();
        }
        candidate
    }

    /// Adopts an *externally solved* candidate for `probs`, mirroring the
    /// adoption arm of [`AdaptiveScheduler::observe`]: the probabilities are
    /// re-latched, the solution replaces the incumbent, and the statistics
    /// are updated (`calls` only when `solver_call` is set — a plan served
    /// from a cache is not a call).
    ///
    /// `candidate` **must** be exactly the solution this manager's solver
    /// would produce for `(ctx, probs)`; callers that share plans across
    /// streams guarantee this by keying them on the exact
    /// [`ScheduleKey`], so adoption order and cache hits can never change
    /// a single adopted bit.
    pub fn adopt_candidate(&mut self, probs: BranchProbs, candidate: Solution, solver_call: bool) {
        self.current_probs = probs;
        self.solution = candidate;
        if solver_call {
            self.stats.calls += 1;
        }
        self.stats.reschedules += 1;
        self.record_adopt(solver_call);
    }

    /// Like [`AdaptiveScheduler::observe`], but with retry-with-fallback
    /// semantics: a failed or worse re-schedule keeps the last-known-good
    /// solution and is *reported*, not propagated. The probabilities in
    /// force are only re-latched when a candidate is adopted, so a failed
    /// attempt is naturally retried on the next drifting observation.
    ///
    /// When a deadline guard is set (see
    /// [`AdaptiveScheduler::set_deadline_guard`]), candidates are solved
    /// against the guard-banded deadline but judged against the real one.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] for a wrong-size vector and
    /// [`SchedError::InvalidParameter`] when an executed fork's decision
    /// is not one of its alternatives (neither changes any estimator, see
    /// [`AdaptiveScheduler::record_observation`]); solver failures
    /// surface as [`ObserveOutcome::SolveFailed`] instead.
    pub fn observe_resilient(
        &mut self,
        ctx: &SchedContext,
        vector: &DecisionVector,
    ) -> Result<ObserveOutcome, SchedError> {
        self.record_observation(ctx, vector)?;
        match self.drifted_probs(ctx) {
            None => Ok(ObserveOutcome::NoDrift),
            Some(estimated) => {
                self.record_drift();
                Ok(self.try_adopt(ctx, estimated))
            }
        }
    }

    /// Forces a re-schedule with the probabilities currently in force,
    /// with the same retry-with-fallback semantics as
    /// [`AdaptiveScheduler::observe_resilient`] (used when the degradation
    /// ladder changes rung).
    pub fn resolve_now(&mut self, ctx: &SchedContext) -> ObserveOutcome {
        let probs = self.current_probs.clone();
        self.try_adopt(ctx, probs)
    }

    /// Solves for `probs` (honouring the deadline guard) and adopts the
    /// candidate unless it fails or its worst-case makespan is worse than
    /// both the deadline and the incumbent's. Cached candidates are judged
    /// against the bar like freshly solved ones.
    ///
    /// Both worst cases are [`SolverWorkspace::worst_case_makespan`]s on
    /// the workspace and context [`Workspaces::pick`] gives the solve path
    /// in force, so a plan whose graph that workspace pools is judged on
    /// the graph's kept DP layout; either way the bits are
    /// [`Solution::worst_case_makespan`]'s. A guard-banded solve's
    /// workspace judges against the guard-banded context: the DP reads no
    /// deadline, and the workspace stays bound.
    fn try_adopt(&mut self, ctx: &SchedContext, probs: BranchProbs) -> ObserveOutcome {
        match self.solve_probs(ctx, &probs, self.deadline_guard) {
            Err(e) => ObserveOutcome::SolveFailed(e),
            Ok((candidate, hit)) => {
                let (ws, judged_in) = self.workspaces.pick(
                    ctx,
                    self.deadline_guard,
                    &self.obs,
                    self.obs_track,
                    self.ws_budget,
                );
                let candidate_wcm = ws.worst_case_makespan(judged_in, &candidate);
                let bar = ctx
                    .ctg()
                    .deadline()
                    .max(ws.worst_case_makespan(judged_in, &self.solution))
                    + 1e-6;
                if candidate_wcm > bar {
                    ObserveOutcome::RejectedWorse {
                        worst_case: candidate_wcm,
                    }
                } else {
                    self.current_probs = probs;
                    self.solution = candidate;
                    if !hit {
                        self.stats.calls += 1;
                    }
                    self.stats.reschedules += 1;
                    self.record_adopt(!hit);
                    ObserveOutcome::Rescheduled
                }
            }
        }
    }

    /// Solves for `probs`, honouring a guard-banded deadline when
    /// `guard < 1.0`, without consulting or filling the cache. Runs through
    /// the owned [`SolverWorkspace`] — identical results to a from-scratch
    /// solve, warm-started when only the probabilities moved.
    fn raw_solve(
        &mut self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        guard: f64,
    ) -> Result<Solution, SchedError> {
        if guard >= 1.0 && self.portfolio.is_some() {
            return self.portfolio_solve(ctx, probs);
        }
        // The guarded context is kept per guard factor and base context,
        // so the guard workspace stays bound and warm across calls.
        let (ws, ctx) = self
            .workspaces
            .pick(ctx, guard, &self.obs, self.obs_track, self.ws_budget);
        ws.solve(self.scheduler.config(), ctx, probs)
    }

    /// One portfolio race: every configured entry solves `probs` through
    /// the unguarded workspace, and the verdict fold adopts the lowest
    /// expected-energy schedulable plan (see [`race_portfolio`]).
    fn portfolio_solve(
        &mut self,
        ctx: &SchedContext,
        probs: &BranchProbs,
    ) -> Result<Solution, SchedError> {
        let (ws, ctx) = self
            .workspaces
            .pick(ctx, 1.0, &self.obs, self.obs_track, self.ws_budget);
        let p = self.portfolio.as_mut().expect("portfolio mode enabled");
        Ok(race_portfolio(&p.kinds, ctx, probs, ws, &mut p.stats)?.solution)
    }

    /// Work counters of the unguarded warm-start solver workspace
    /// (all-zero while the workspace has not been created yet — the
    /// manager has never solved on its own). In portfolio mode the races
    /// run through it, so its graph counters include the HEFT-family
    /// entries' pool lookups.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspaces
            .unguarded
            .as_deref()
            .map(SolverWorkspace::stats)
            .unwrap_or_default()
    }

    /// Solves for `probs` through the schedule cache when enabled.
    ///
    /// Returns the solution and whether it came from the cache. Every
    /// entry is a plan [`AdaptiveScheduler::raw_solve`] returned under the
    /// solve path in force, keyed on the exact table, guard and deadline,
    /// so a hit is always identical to what a solve would produce. Solver
    /// failures are propagated and never cached.
    fn solve_probs(
        &mut self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        guard: f64,
    ) -> Result<(Solution, bool), SchedError> {
        if self.cache.is_none() {
            return Ok((self.raw_solve(ctx, probs, guard)?, false));
        }
        let key = ScheduleKey::new(ctx, probs, guard);
        if let Some(solution) = self.cache.as_mut().and_then(|c| c.get(&key)) {
            let solution = solution.clone();
            self.stats.cache_hits += 1;
            self.obs.instant(self.obs_track, Stage::CacheHit, 1);
            self.obs.count(Counter::CacheHits, 1);
            return Ok((solution, true));
        }
        self.stats.cache_misses += 1;
        self.obs.instant(self.obs_track, Stage::CacheMiss, 1);
        self.obs.count(Counter::CacheMisses, 1);
        let solution = self.raw_solve(ctx, probs, guard)?;
        if let Some(cache) = self.cache.as_mut() {
            cache.insert(key, solution.clone());
        }
        Ok((solution, false))
    }

    /// Enables schedule memoisation with room for `capacity` solutions. A
    /// capacity of 0 keeps caching effectively off (every lookup misses)
    /// but still counts hits/misses. Re-enabling resets the cache contents.
    ///
    /// The cache starts empty and only ever holds plans the solve path in
    /// force returned — not the plan in force, which may come from an
    /// earlier solve path, a guard band or safe mode. Caching therefore
    /// never changes decisions: a hit returns a clone of a plan solved
    /// earlier *for the exact same probability table, guard and deadline*,
    /// so runs with the cache on and off adopt identical solutions (only
    /// [`AdaptiveStats::calls`] shrinks).
    pub fn enable_cache(&mut self, capacity: usize) {
        self.cache = Some(LruCache::new(capacity));
    }

    /// Empties the schedule cache, if enabled, keeping its capacity.
    fn drop_cached_plans(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
    }

    /// Whether schedule memoisation is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Sets the deadline guard-band factor used by resilient re-solves.
    ///
    /// # Errors
    ///
    /// Rejects factors outside `(0, 1]`.
    pub fn set_deadline_guard(&mut self, factor: f64) -> Result<(), SchedError> {
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(SchedError::InvalidParameter(
                "deadline guard must lie in (0, 1]",
            ));
        }
        self.deadline_guard = factor;
        Ok(())
    }

    /// The deadline guard-band factor in force (1.0 = none).
    pub fn deadline_guard(&self) -> f64 {
        self.deadline_guard
    }

    /// Pins every task to full speed while keeping the committed mapping
    /// and order — the all-max-speed safe solution of the degradation
    /// ladder. Cannot fail: no solver is involved.
    pub fn enter_safe_mode(&mut self) {
        self.solution.speeds = SpeedAssignment::nominal(self.solution.schedule.num_tasks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::example1_context;

    #[test]
    fn window_estimates() {
        let mut w = SlidingWindow::new(2, 4);
        assert!(w.estimate().is_none());
        w.push(0);
        w.push(0);
        w.push(1);
        assert_eq!(w.estimate().unwrap(), vec![2.0 / 3.0, 1.0 / 3.0]);
        w.push(1);
        w.push(1); // evicts the first 0
        assert_eq!(w.len(), 4);
        assert_eq!(w.estimate().unwrap(), vec![0.25, 0.75]);
    }

    #[test]
    fn rejects_bad_parameters() {
        let (ctx, probs, _) = example1_context();
        assert!(AdaptiveScheduler::new(&ctx, probs.clone(), 0, 0.1).is_err());
        assert!(AdaptiveScheduler::new(&ctx, probs.clone(), 10, 0.0).is_err());
        assert!(AdaptiveScheduler::new(&ctx, probs, 10, 1.5).is_err());
    }

    #[test]
    fn drift_triggers_rescheduling() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        // Uniform start (0.5/0.5); feeding constant a1 drifts to 1.0.
        let mut called = false;
        for _ in 0..6 {
            called |= mgr
                .observe(&ctx, &ctg_model::DecisionVector::new(vec![0, 0]))
                .unwrap();
        }
        assert!(called);
        assert!(mgr.stats().calls >= 1);
        assert_eq!(mgr.stats().instances, 6);
    }

    #[test]
    fn high_threshold_suppresses_calls() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 1.0).unwrap();
        for step in 0..20 {
            let alt = (step % 2) as u8;
            mgr.observe(&ctx, &ctg_model::DecisionVector::new(vec![alt, alt]))
                .unwrap();
        }
        assert_eq!(mgr.stats().calls, 0);
    }

    #[test]
    fn inactive_fork_records_no_decision() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, _, _, t5, ..] = ids;
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 8, 0.9).unwrap();
        // Always select a1: fork τ5 never executes, its window stays empty.
        for _ in 0..5 {
            mgr.observe(&ctx, &ctg_model::DecisionVector::new(vec![0, 1]))
                .unwrap();
        }
        assert!(mgr.window_estimate(&ctx, t5).is_none());
    }

    #[test]
    fn wrong_vector_arity_rejected() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 8, 0.5).unwrap();
        assert!(matches!(
            mgr.observe(&ctx, &ctg_model::DecisionVector::new(vec![0])),
            Err(SchedError::VectorArity {
                expected: 2,
                got: 1
            })
        ));
    }
}

#[cfg(test)]
mod resilient_tests {
    use super::*;
    use crate::test_util::example1_context;
    use ctg_model::DecisionVector;

    #[test]
    fn resilient_matches_observe_when_solves_succeed() {
        let (ctx, probs, _) = example1_context();
        let mut plain = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        let mut resilient = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        for step in 0..12 {
            let alt = u8::from(step % 3 == 0);
            let v = DecisionVector::new(vec![alt, alt]);
            let called = plain.observe(&ctx, &v).unwrap();
            let outcome = resilient.observe_resilient(&ctx, &v).unwrap();
            assert_eq!(
                called,
                outcome == ObserveOutcome::Rescheduled,
                "step {step}"
            );
        }
        assert_eq!(plain.stats(), resilient.stats());
        assert_eq!(plain.solution(), resilient.solution());
        assert_eq!(
            plain.current_probs().clone(),
            resilient.current_probs().clone()
        );
    }

    #[test]
    fn guard_band_tightens_worst_case() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        let relaxed_wcm = mgr.solution().worst_case_makespan(&ctx);
        mgr.set_deadline_guard(0.8).unwrap();
        match mgr.resolve_now(&ctx) {
            ObserveOutcome::Rescheduled => {
                let guarded_wcm = mgr.solution().worst_case_makespan(&ctx);
                assert!(
                    guarded_wcm <= 0.8 * ctx.ctg().deadline() + 1e-6,
                    "guarded solution must meet the shortened deadline: {guarded_wcm}"
                );
                assert!(guarded_wcm <= relaxed_wcm + 1e-9);
            }
            // A very tight guard may make the solve fail; that is the
            // fallback path and must keep the old solution.
            ObserveOutcome::SolveFailed(_) => {
                assert!((mgr.solution().worst_case_makespan(&ctx) - relaxed_wcm).abs() < 1e-9);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn failed_guarded_solve_keeps_last_known_good() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        let before = mgr.solution().clone();
        let calls_before = mgr.stats().calls;
        // Guard so tight no solution exists: solve must fail, solution must
        // survive.
        mgr.set_deadline_guard(1e-6).unwrap();
        match mgr.resolve_now(&ctx) {
            ObserveOutcome::SolveFailed(_) => {}
            other => panic!("expected a solver failure, got {other:?}"),
        }
        assert_eq!(mgr.solution(), &before);
        assert_eq!(mgr.stats().calls, calls_before);
    }

    #[test]
    fn safe_mode_pins_full_speed() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        let schedule_before = mgr.solution().schedule.clone();
        mgr.enter_safe_mode();
        assert_eq!(mgr.solution().schedule, schedule_before);
        for t in ctx.ctg().tasks() {
            assert_eq!(mgr.solution().speeds.speed(t), 1.0);
        }
        // Full speed minimizes the worst case the committed schedule admits.
        assert!(mgr.solution().worst_case_makespan(&ctx) <= ctx.ctg().deadline() + 1e-6);
    }

    #[test]
    fn record_observation_never_reschedules() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.1).unwrap();
        for _ in 0..20 {
            mgr.record_observation(&ctx, &DecisionVector::new(vec![0, 0]))
                .unwrap();
        }
        assert_eq!(mgr.stats().calls, 0);
        assert_eq!(mgr.stats().instances, 20);
        // The recorded history still feeds the next resilient observation.
        let outcome = mgr
            .observe_resilient(&ctx, &DecisionVector::new(vec![0, 0]))
            .unwrap();
        assert_eq!(outcome, ObserveOutcome::Rescheduled);
    }

    #[test]
    fn invalid_guard_rejected() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        assert!(mgr.set_deadline_guard(0.0).is_err());
        assert!(mgr.set_deadline_guard(1.5).is_err());
        assert!(mgr.set_deadline_guard(1.0).is_ok());
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::test_util::example1_context;
    use ctg_model::DecisionVector;

    /// Alternating decision regimes (8 instances each) make the windowed
    /// estimates recur exactly, so a cached manager can replay earlier
    /// plans instead of re-solving.
    fn regime_trace(len: usize) -> Vec<DecisionVector> {
        (0..len)
            .map(|i| {
                let alt = u8::from((i / 8) % 2 == 1);
                DecisionVector::new(vec![alt, alt])
            })
            .collect()
    }

    #[test]
    fn cached_runs_adopt_identical_plans() {
        let (ctx, probs, _) = example1_context();
        let mut plain = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        let mut cached = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        cached.enable_cache(16);
        for v in regime_trace(64) {
            let a = plain.observe(&ctx, &v).unwrap();
            let b = cached.observe(&ctx, &v).unwrap();
            assert_eq!(a, b);
            assert_eq!(plain.solution(), cached.solution());
            assert_eq!(plain.current_probs(), cached.current_probs());
        }
        assert_eq!(plain.stats().reschedules, cached.stats().reschedules);
        assert!(
            cached.stats().cache_hits > 0,
            "recurring regimes must hit the cache"
        );
        assert!(
            cached.stats().calls < plain.stats().calls,
            "hits must save solver calls"
        );
    }

    #[test]
    fn resilient_cached_matches_uncached() {
        let (ctx, probs, _) = example1_context();
        let mut plain = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        let mut cached = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        cached.enable_cache(16);
        for v in regime_trace(48) {
            let a = plain.observe_resilient(&ctx, &v).unwrap();
            let b = cached.observe_resilient(&ctx, &v).unwrap();
            assert_eq!(a, b);
            assert_eq!(plain.solution(), cached.solution());
        }
        assert!(cached.stats().cache_hits > 0);
    }

    #[test]
    fn exact_repeat_hits_and_matches_raw_solver() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        mgr.enable_cache(8);
        let fork = ctx.ctg().branch_nodes()[0];
        let mut skewed = probs.clone();
        skewed.set(fork, vec![0.8, 0.2]).unwrap();
        let (first, hit1) = mgr.solve_probs(&ctx, &skewed, 1.0).unwrap();
        assert!(!hit1);
        let (second, hit2) = mgr.solve_probs(&ctx, &skewed, 1.0).unwrap();
        assert!(hit2);
        assert_eq!(first, second);
        assert_eq!(second, mgr.raw_solve(&ctx, &skewed, 1.0).unwrap());
    }

    #[test]
    fn one_ulp_apart_tables_miss_and_bit_equal_tables_hit() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        mgr.enable_cache(8);
        let fork = ctx.ctg().branch_nodes()[0];
        let mut a = probs.clone();
        a.set(fork, vec![0.6, 0.4]).unwrap();
        // `a`'s first alternative one ulp up: a different exact table, and
        // so a different key.
        let mut b = probs.clone();
        b.set(fork, vec![f64::from_bits(0.6f64.to_bits() + 1), 0.4])
            .unwrap();
        assert_ne!(
            ScheduleKey::new(&ctx, &a, 1.0),
            ScheduleKey::new(&ctx, &b, 1.0)
        );

        let (sol_a, hit_a) = mgr.solve_probs(&ctx, &a, 1.0).unwrap();
        assert!(!hit_a);
        let (sol_b, hit_b) = mgr.solve_probs(&ctx, &b, 1.0).unwrap();
        assert!(!hit_b, "a table one ulp away must miss");
        assert_eq!(sol_b, mgr.raw_solve(&ctx, &b, 1.0).unwrap());
        // A bit-equal copy of `a`, built separately, hits `a`'s entry.
        let mut a_again = probs.clone();
        a_again.set(fork, vec![0.6, 0.4]).unwrap();
        let (sol_a2, hit_a2) = mgr.solve_probs(&ctx, &a_again, 1.0).unwrap();
        assert!(hit_a2);
        assert_eq!(sol_a, sol_a2);
        assert_eq!(mgr.stats().cache_hits, 1);
        assert_eq!(mgr.stats().cache_misses, 2);
    }

    #[test]
    fn guard_factor_is_part_of_the_key() {
        let (ctx, probs, _) = example1_context();
        assert_ne!(
            ScheduleKey::new(&ctx, &probs, 1.0),
            ScheduleKey::new(&ctx, &probs, 0.9)
        );
    }

    #[test]
    fn changing_the_solve_path_drops_cached_plans() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        mgr.enable_cache(8);
        let hit = |mgr: &mut AdaptiveScheduler| mgr.solve_probs(&ctx, &probs, 1.0).unwrap().1;
        assert!(!hit(&mut mgr));
        assert!(hit(&mut mgr));
        mgr.enable_portfolio(&[SchedulerKind::Dls, SchedulerKind::Heft])
            .unwrap();
        assert!(!hit(&mut mgr), "a DLS plan must not answer for a race");
        assert!(hit(&mut mgr));
        mgr.set_solve_budget(Some(u64::MAX));
        assert!(!hit(&mut mgr), "a new budget drops the plans");
        mgr.set_solve_budget(Some(u64::MAX));
        assert!(hit(&mut mgr), "re-setting the same budget keeps them");
        mgr.disable_portfolio();
        assert!(!hit(&mut mgr), "a raced plan must not answer for DLS");
    }

    #[test]
    fn disabled_cache_keeps_counters_zero() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        assert!(!mgr.cache_enabled());
        for v in regime_trace(32) {
            mgr.observe(&ctx, &v).unwrap();
        }
        let s = mgr.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
        assert_eq!(s.reschedules, s.calls);
        assert!(s.reschedules > 0);
    }
}

#[cfg(test)]
mod ewma_tests {
    use super::*;
    use crate::test_util::example1_context;

    #[test]
    fn ewma_estimates_converge() {
        let mut e = EwmaEstimator::new(2, 0.2);
        assert!(e.estimate().is_none());
        e.push(0);
        assert_eq!(e.estimate().unwrap(), vec![1.0, 0.0]);
        for _ in 0..50 {
            e.push(1);
        }
        let est = e.estimate().unwrap();
        assert!(
            est[1] > 0.99,
            "EWMA should converge to the new regime: {est:?}"
        );
        let total: f64 = est.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_reacts_faster_with_larger_alpha() {
        let mut slow = EwmaEstimator::new(2, 0.05);
        let mut fast = EwmaEstimator::new(2, 0.5);
        for _ in 0..20 {
            slow.push(0);
            fast.push(0);
        }
        for _ in 0..3 {
            slow.push(1);
            fast.push(1);
        }
        assert!(fast.estimate().unwrap()[1] > slow.estimate().unwrap()[1]);
    }

    #[test]
    fn manager_with_ewma_adapts() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::with_estimator(
            &ctx,
            probs,
            EstimatorKind::Ewma(0.2),
            0.3,
            OnlineScheduler::new(),
        )
        .unwrap();
        let mut called = false;
        for _ in 0..10 {
            called |= mgr
                .observe(&ctx, &ctg_model::DecisionVector::new(vec![0, 0]))
                .unwrap();
        }
        assert!(called, "EWMA drift should trigger re-scheduling");
    }

    #[test]
    fn invalid_estimator_parameters_rejected() {
        let (ctx, probs, _) = example1_context();
        assert!(AdaptiveScheduler::with_estimator(
            &ctx,
            probs.clone(),
            EstimatorKind::Ewma(0.0),
            0.3,
            OnlineScheduler::new()
        )
        .is_err());
        assert!(AdaptiveScheduler::with_estimator(
            &ctx,
            probs,
            EstimatorKind::Window(0),
            0.3,
            OnlineScheduler::new()
        )
        .is_err());
    }
}

#[cfg(test)]
mod observation_tests {
    use super::*;

    /// An executed fork's decision outside its alternatives is malformed
    /// input: every observing entry rejects it before any estimator or
    /// counter moves, for both estimator kinds. (The window's counts are
    /// kept on push, so a push would index out of range.)
    #[test]
    fn out_of_range_decisions_are_rejected_before_any_estimator_moves() {
        let (ctx, probs) = crate::test_util::mpeg_context();
        let forks = ctx.ctg().branch_nodes();
        let mut bad = vec![0u8; forks.len()];
        bad[0] = 7;
        let bad = DecisionVector::new(bad);
        for kind in [EstimatorKind::Window(8), EstimatorKind::Ewma(0.3)] {
            let mut mgr = AdaptiveScheduler::with_estimator(
                &ctx,
                probs.clone(),
                kind,
                0.1,
                OnlineScheduler::new(),
            )
            .unwrap();
            let invalid = |r: Result<(), SchedError>| {
                assert!(
                    matches!(r, Err(SchedError::InvalidParameter(_))),
                    "{kind:?}: {r:?}"
                );
            };
            invalid(mgr.record_observation(&ctx, &bad));
            invalid(mgr.observe(&ctx, &bad).map(drop));
            invalid(mgr.observe_resilient(&ctx, &bad).map(drop));
            assert_eq!(mgr.stats(), AdaptiveStats::default(), "{kind:?}");
            for &b in forks {
                assert!(mgr.window_estimate(&ctx, b).is_none(), "{kind:?}");
            }
            // A decision at a fork the instance did not execute is ignored,
            // as before: alternative 1 at the first fork skips the second.
            let mut skipped = vec![0u8; forks.len()];
            skipped[0] = 1;
            skipped[1] = 7;
            let skipped = DecisionVector::new(skipped);
            let mut active = Vec::new();
            skipped.active_tasks_into(ctx.ctg(), ctx.activation(), &mut active);
            assert!(!active[forks[1].index()], "the second fork is not executed");
            mgr.record_observation(&ctx, &skipped).unwrap();
            assert_eq!(mgr.stats().instances, 1);
        }
    }

    /// Every decision vector over `limits` (position `i` takes `0..limits[i]`).
    fn every_vector(limits: &[u8]) -> Vec<DecisionVector> {
        let mut out = Vec::new();
        let mut cur = vec![0u8; limits.len()];
        loop {
            out.push(DecisionVector::new(cur.clone()));
            let mut i = 0;
            loop {
                if i == cur.len() {
                    return out;
                }
                cur[i] += 1;
                if cur[i] < limits[i] {
                    break;
                }
                cur[i] = 0;
                i += 1;
            }
        }
    }

    /// The decision vectors a graph's masks are checked under: the full
    /// product of alternatives, each fork also taking its first
    /// out-of-range alternative (the one that would alias into the next
    /// fork's first slot) while that product stays small, plus seeded
    /// vectors whose alternatives fall out of range one time in four,
    /// half of those at 255. `full` demands the in-range product.
    fn decision_vectors(
        ctg: &ctg_model::Ctg,
        full: bool,
        rng: &mut ctg_rng::Rng64,
    ) -> Vec<DecisionVector> {
        const CAP: usize = 20_000;
        let alts: Vec<u8> = ctg
            .branch_nodes()
            .iter()
            .map(|&b| ctg.node(b).alternatives())
            .collect();
        let product = |extra: u8| {
            alts.iter()
                .try_fold(1usize, |n, &a| n.checked_mul(usize::from(a + extra)))
                .filter(|&n| n <= CAP)
        };
        let mut vectors = if product(1).is_some() {
            every_vector(&alts.iter().map(|a| a + 1).collect::<Vec<_>>())
        } else if product(0).is_some() {
            every_vector(&alts)
        } else {
            assert!(!full, "{}: the full product is too large", ctg.name());
            Vec::new()
        };
        vectors.extend((0..500).map(|_| {
            DecisionVector::new(
                alts.iter()
                    .map(|&a| match rng.gen_range(0..8usize) {
                        0 => a,
                        1 => 255,
                        _ => rng.gen_range(0..usize::from(a)) as u8,
                    })
                    .collect(),
            )
        }));
        vectors
    }

    /// A scenario's cube and active set.
    type CubeAndActive = (ctg_model::Cube, Vec<bool>);

    /// The scenario enumeration as `ScenarioSet::enumerate` ran it on the
    /// DNFs, in enumeration order.
    fn dnf_scenarios(ctg: &ctg_model::Ctg, act: &ctg_model::Activation) -> Vec<CubeAndActive> {
        use ctg_model::{Cube, Literal};
        let forks = ctg.branch_nodes();
        let mut out = Vec::new();
        let mut stack = vec![(0, Cube::top())];
        while let Some((i, cube)) = stack.pop() {
            let holds = |t: TaskId| act.is_active(t, |b: TaskId| cube.alt_of(b));
            if i == forks.len() {
                let active = ctg.tasks().map(holds).collect();
                out.push((cube, active));
            } else if !holds(forks[i]) {
                stack.push((i + 1, cube));
            } else {
                for alt in (0..ctg.node(forks[i]).alternatives()).rev() {
                    stack.push((i + 1, cube.with(Literal::new(forks[i], alt)).unwrap()));
                }
            }
        }
        out
    }

    /// The pin of the compiled activation masks and of the in-place drift
    /// fold, each against the reference it replaced:
    ///
    /// * every decision vector's active set (`active_tasks_into`) against
    ///   `Activation::is_active` per task, and its executed forks
    ///   (`executed_forks_into`) against that set's fork entries, over the
    ///   full product of alternatives with out-of-range ones (see
    ///   [`decision_vectors`]) on Example 1, MPEG, cruise, WLAN and TGFF
    ///   fork-join (binary and 3-ary) and layered graphs at several
    ///   seeds, and over seeded vectors on two layered graphs with 72 and
    ///   140 literal slots (two and three mask words, so a literal mask on
    ///   the heap, no enumeration);
    /// * `Dnf::disjoint` against `and(..).is_false()` for every task pair;
    /// * `ScenarioSet::enumerate`, the context's task and literal masks and
    ///   its mutual-exclusion matrix against the DNF enumeration;
    /// * the manager's in-place drift and the table it builds on a
    ///   crossing against the fold over `estimate()`s (the window's
    ///   recounted from its decisions), bit for bit, for a window and an
    ///   EWMA over seeded decision streams on MPEG and a 3-ary graph.
    #[test]
    fn compiled_masks_and_the_drift_fold_match_their_references() {
        use crate::context::ScenarioMask;
        use ctg_model::{ScenarioSet, TaskId};
        use ctg_workloads::{cruise, mpeg, traces, wlan};
        use tgff_gen::{Category, TgffConfig};

        let mut rng = ctg_rng::Rng64::seed_from_u64(0x3A5C);
        let tgff = |seed, tasks, forks, category, alts: u8| {
            let mut cfg = TgffConfig::new(seed, tasks, forks, category);
            cfg.branch_alternatives = alts;
            let g = cfg.generate();
            let platform = cfg.generate_platform(&g.ctg, 3);
            (g.ctg, platform)
        };
        let (example1, _) = crate::test_util::example1_ctg(60.0);
        let mut graphs = vec![(
            example1.clone(),
            crate::test_util::uniform_platform(example1.num_tasks(), 2, 2.0, 2.0),
        )];
        let ctg = mpeg::mpeg_ctg();
        graphs.push((ctg.clone(), mpeg::mpeg_platform(&ctg)));
        let ctg = cruise::cruise_ctg();
        graphs.push((ctg.clone(), cruise::cruise_platform(&ctg)));
        let ctg = wlan::wlan_ctg();
        graphs.push((ctg.clone(), wlan::wlan_platform(&ctg)));
        for seed in [11, 12, 13] {
            graphs.push(tgff(seed, 24, 3, Category::ForkJoin, 2));
            graphs.push(tgff(seed + 10, 20, 2, Category::Layered, 2));
        }
        graphs.push(tgff(79, 72, 6, Category::ForkJoin, 2));
        graphs.push(tgff(31, 30, 3, Category::ForkJoin, 3));

        let check_queries = |ctg: &ctg_model::Ctg, full: bool, rng: &mut ctg_rng::Rng64| {
            let act = ctg.activation();
            let name = ctg.name();
            let (mut active, mut executed) = (Vec::new(), Vec::new());
            for v in decision_vectors(ctg, full, rng) {
                v.active_tasks_into(ctg, &act, &mut active);
                let assign = v.assignment(ctg);
                let reference: Vec<bool> = ctg.tasks().map(|t| act.is_active(t, assign)).collect();
                assert_eq!(active, reference, "{name}: active set under {v}");
                v.executed_forks_into(ctg, &act, &mut executed);
                let forks: Vec<bool> = ctg
                    .branch_nodes()
                    .iter()
                    .map(|b| active[b.index()])
                    .collect();
                assert_eq!(executed, forks, "{name}: executed forks under {v}");
            }
            for a in ctg.tasks() {
                for b in ctg.tasks() {
                    let (x, y) = (act.condition(a), act.condition(b));
                    assert_eq!(x.disjoint(y), x.and(y).is_false(), "{name}: {a} and {b}");
                }
            }
            act
        };

        for (ctg, platform) in graphs {
            let act = check_queries(&ctg, true, &mut rng);
            let name = ctg.name().to_string();
            let reference = dnf_scenarios(&ctg, &act);
            let enumerated = ScenarioSet::enumerate(&ctg, &act);
            let ctx = SchedContext::new(ctg, platform).unwrap();
            let ctg = ctx.ctg();
            for set in [enumerated.scenarios(), ctx.scenarios().scenarios()] {
                assert_eq!(set.len(), reference.len(), "{name}");
                for (s, (cube, active)) in set.iter().zip(&reference) {
                    assert_eq!(s.cube(), cube, "{name}");
                    assert_eq!(s.active_tasks(), active, "{name}: {cube}");
                }
            }
            let mask_of = |holds: &dyn Fn(&CubeAndActive) -> bool| {
                let mut m = ScenarioMask::empty(reference.len());
                for (i, _) in reference.iter().enumerate().filter(|(_, s)| holds(s)) {
                    m.set(i);
                }
                m
            };
            for t in ctg.tasks() {
                let m = mask_of(&|(_, active)| active[t.index()]);
                assert_eq!(ctx.task_mask(t), &m, "{name}: task mask of {t}");
                for u in ctg.tasks().filter(|&u| u != t) {
                    let (x, y) = (act.condition(t), act.condition(u));
                    assert_eq!(
                        ctx.mutually_exclusive(t, u),
                        x.and(y).is_false(),
                        "{name}: mutex of {t} and {u}"
                    );
                }
            }
            for &b in ctg.branch_nodes() {
                for alt in 0..ctg.node(b).alternatives() {
                    let m = mask_of(&|(cube, _)| cube.alt_of(b) == Some(alt));
                    assert_eq!(ctx.literal_mask(b, alt), m, "{name}: literal {b}={alt}");
                }
            }
        }

        // Wider than one and than two mask words, so the literal masks
        // live on the heap; too many scenarios to enumerate.
        for (seed, tasks, forks, words) in [(5, 150, 36, 2), (6, 290, 70, 3)] {
            let (ctg, _) = tgff(seed, tasks, forks, Category::Layered, 2);
            let slots = ctg
                .branch_nodes()
                .iter()
                .map(|&b| usize::from(ctg.node(b).alternatives()));
            assert_eq!(slots.sum::<usize>().div_ceil(64), words);
            check_queries(&ctg, false, &mut rng);
        }

        // The drift fold, over seeded streams that cross the threshold
        // and fall back below it as the table in force is re-latched.
        let (mpeg_ctx, mpeg_probs) = crate::test_util::mpeg_context();
        let (kary, platform) = tgff(31, 30, 3, Category::ForkJoin, 3);
        let kary_probs = ctg_model::BranchProbs::uniform(&kary);
        let kary_ctx = SchedContext::new(kary, platform).unwrap();
        for (ctx, probs) in [(&mpeg_ctx, mpeg_probs), (&kary_ctx, kary_probs)] {
            let ctg = ctx.ctg();
            let profile = traces::DriftProfile::new(0xD21F);
            let stream = traces::generate_trace(ctg, &profile, 1500);
            for kind in [EstimatorKind::Window(8), EstimatorKind::Ewma(0.25)] {
                let mut mgr = AdaptiveScheduler::with_estimator(
                    ctx,
                    probs.clone(),
                    kind,
                    0.1,
                    OnlineScheduler::new(),
                )
                .unwrap();
                let (mut crossings, mut quiet) = (0, 0);
                for v in &stream {
                    mgr.record_observation(ctx, v).unwrap();
                    let estimates: Vec<(TaskId, Vec<f64>)> = ctg
                        .branch_nodes()
                        .iter()
                        .zip(&mgr.estimators)
                        .filter_map(|(&b, e)| {
                            let est = match e {
                                Estimator::Window(w) => {
                                    let n = w.window.len() as f64;
                                    (!w.window.is_empty()).then(|| {
                                        (0..w.counts.len())
                                            .map(|a| {
                                                w.window
                                                    .iter()
                                                    .filter(|&&d| usize::from(d) == a)
                                                    .count()
                                                    as f64
                                                    / n
                                            })
                                            .collect()
                                    })
                                }
                                Estimator::Ewma(e) => e.estimate(),
                            };
                            Some((b, est?))
                        })
                        .collect();
                    let mut drift = 0.0_f64;
                    for (b, est) in &estimates {
                        let current = mgr.current_probs.distribution(*b).unwrap();
                        for (p, q) in est.iter().zip(current) {
                            drift = drift.max((p - q).abs());
                        }
                    }
                    assert_eq!(mgr.drift(ctx).to_bits(), drift.to_bits(), "{kind:?}");
                    let Some(table) = mgr.drifted_probs(ctx) else {
                        assert!(drift <= mgr.threshold, "{kind:?}");
                        quiet += 1;
                        continue;
                    };
                    assert!(drift > mgr.threshold, "{kind:?}");
                    let mut expected = mgr.current_probs.clone();
                    for (b, est) in estimates {
                        expected.set(b, est).unwrap();
                    }
                    for &b in ctg.branch_nodes() {
                        let bits = |p: &ctg_model::BranchProbs| -> Vec<u64> {
                            p.distribution(b)
                                .unwrap()
                                .iter()
                                .map(|x| x.to_bits())
                                .collect()
                        };
                        assert_eq!(bits(&table), bits(&expected), "{kind:?}: {b}");
                    }
                    crossings += 1;
                    if crossings % 2 == 0 {
                        mgr.current_probs = table;
                    }
                }
                assert!(
                    crossings > 10 && quiet > 10,
                    "{kind:?}: {crossings} / {quiet}"
                );
            }
        }
    }
}
