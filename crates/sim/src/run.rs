//! The unified run API: [`RunConfig`] + [`Runner`].
//!
//! The simulator grew eight `run_*` free functions, each threading its own
//! subset of knobs (worker count, fault plan, ladder config, serve shards)
//! and each reading its own environment variables at its own call depth.
//! [`RunConfig`] is the one place all of those knobs live — explicit fields
//! with builder setters, environment fallbacks (`CTG_WORKERS`,
//! `CTG_POOL_MIN_BATCH`, `CTG_SERVE_SHARDS`) resolved in exactly one
//! function ([`RunConfig::from_env`]) — and [`Runner`] dispatches to the
//! right engine from the configuration alone:
//!
//! * [`Runner::run_static`] — sequential / parallel / fault-injected,
//!   chosen by `workers` and `fault_plan`;
//! * [`Runner::run_adaptive`] — plain, or resilient under a fault plan and
//!   degradation ladder;
//! * [`Runner::run_periodic`] — periodically released instances;
//! * [`Runner::serve`] — the sharded multi-stream engine.
//!
//! Every configuration also carries a telemetry handle ([`RunConfig::obs`],
//! default disabled): wire a [`BufferedSink`](ctg_obs::BufferedSink) in to
//! collect span-level traces and counters; leave it disabled and the
//! engines pay one branch per would-be event. Simulated outputs are
//! bit-identical either way (`tests/obs_equivalence.rs`).
//!
//! The legacy free functions survive as thin wrappers over this type, so
//! existing call sites keep compiling and keep their exact behavior.
//!
//! # Example
//!
//! ```
//! use ctg_sim::{RunConfig, Runner};
//! use ctg_sched::{OnlineScheduler, SchedContext};
//! use ctg_sched::test_util::{example1_ctg, uniform_platform};
//! use ctg_model::{BranchProbs, DecisionVector};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (ctg, _) = example1_ctg(60.0);
//! let probs = BranchProbs::uniform(&ctg);
//! let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
//! let ctx = SchedContext::new(ctg, platform)?;
//! let solution = OnlineScheduler::new().solve(&ctx, &probs)?;
//! let trace: Vec<DecisionVector> =
//!     (0..32).map(|_| DecisionVector::new(vec![0, 0])).collect();
//!
//! let runner = Runner::new(RunConfig::new().workers(2));
//! let summary = runner.run_static(&ctx, &solution, &trace)?;
//! assert_eq!(summary.exec.instances, 32);
//! # Ok(())
//! # }
//! ```

use crate::degrade::DegradeConfig;
use crate::fault::FaultPlan;
use crate::pool;
use crate::runner::{self, PeriodicSummary, RunSummary};
use crate::serve::{
    self, AdmissionConfig, ArrivalConfig, CacheMode, EngineKind, QuarantineConfig, ServeConfig,
    ServeReport, StreamSpec,
};
use ctg_model::DecisionVector;
use ctg_obs::Obs;
use ctg_sched::{
    parse_scheduler_selection, AdaptiveScheduler, SchedContext, SchedError, SchedulerKind, Solution,
};

/// Environment override for the scheduler selection, read **only** by
/// [`RunConfig::from_env`]: a kind name (`dls`, `heft`, `lookahead`,
/// `frame`), the literal `portfolio`
/// ([`ctg_sched::DEFAULT_PORTFOLIO`]), or a comma-separated racing list.
/// Unset, empty, plain `dls`, or unparsable values keep the default
/// DLS-only pipeline.
pub const SCHEDULER_ENV: &str = "CTG_SCHEDULER";

/// Folds a parsed selection to the `RunConfig` representation: a bare
/// `[Dls]` is the historic pipeline, not a one-entry race.
pub(crate) fn normalize_scheduler_selection(
    kinds: Vec<SchedulerKind>,
) -> Option<Vec<SchedulerKind>> {
    if kinds == [SchedulerKind::Dls] {
        None
    } else {
        Some(kinds)
    }
}

fn scheduler_from_env() -> Option<Vec<SchedulerKind>> {
    let raw = std::env::var(SCHEDULER_ENV).ok()?;
    normalize_scheduler_selection(parse_scheduler_selection(&raw)?)
}

/// Every knob of every runner, in one place.
///
/// Construct with [`RunConfig::new`] (fixed, environment-independent
/// defaults: sequential, no faults, telemetry disabled) or
/// [`RunConfig::from_env`] (the environment-variable fallbacks the legacy
/// entry points used), then chain the builder setters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads for the parallel static runners and the serve
    /// engine. `1` means sequential (no threads spawned).
    pub workers: usize,
    /// Batch size below which the parallel static runners degrade to
    /// sequential (thread spawn/join overhead dominates; see
    /// [`pool::min_batch`]). Only wall-clock time depends on it.
    pub min_batch: usize,
    /// Stream shards for [`Runner::serve`] (load balance only).
    pub shards: usize,
    /// Schedule-cache mode for [`Runner::serve`].
    pub cache: CacheMode,
    /// Inject faults from this plan ([`Runner::run_static`] and
    /// [`Runner::run_adaptive`] switch to their fault-injected engines when
    /// set).
    pub fault_plan: Option<FaultPlan>,
    /// Protect adaptive runs with the graceful-degradation ladder
    /// ([`Runner::run_adaptive`] uses the resilient engine when set).
    pub degrade: Option<DegradeConfig>,
    /// Per-solve work budget in solver work units, applied to
    /// [`Runner::serve`] workers and [`Runner::run_adaptive`] managers.
    /// `None` (the default) never aborts a solve.
    pub solve_budget: Option<u64>,
    /// Arrival process, latency SLO and replay traces for
    /// [`Runner::serve`]'s discrete-event engine (closed loop by default).
    pub arrival: ArrivalConfig,
    /// Admission control for [`Runner::serve`]: shed a stream's drift
    /// re-solve while its queue is deeper than the high-water mark
    /// (needs open-loop arrivals).
    pub admission: Option<AdmissionConfig>,
    /// Per-stream quarantine circuit breaker for [`Runner::serve`].
    pub quarantine: Option<QuarantineConfig>,
    /// Scheduler-portfolio selection for [`Runner::run_adaptive`] managers
    /// and [`Runner::serve`] workers: race these entries on every drift
    /// event and adopt the lowest expected-energy schedulable plan. `None`
    /// (the default) is the paper's DLS pipeline alone, bit-for-bit.
    pub portfolio: Option<Vec<SchedulerKind>>,
    /// Telemetry handle. [`Obs::disabled`] (the default) costs one branch
    /// per would-be event; an enabled handle records spans, instants and
    /// metrics without changing a single simulated bit.
    pub obs: Obs,
}

impl RunConfig {
    /// Fixed defaults, independent of the process environment: sequential
    /// (`workers = 1`), the compiled-in
    /// [`pool::DEFAULT_MIN_BATCH`] threshold, one shard, the serve
    /// engine's default shared cache, no faults, no ladder, telemetry
    /// disabled.
    pub fn new() -> Self {
        RunConfig {
            workers: 1,
            min_batch: pool::DEFAULT_MIN_BATCH,
            shards: 1,
            cache: CacheMode::Shared {
                capacity: 4096,
                stripes: 16,
            },
            fault_plan: None,
            degrade: None,
            solve_budget: None,
            arrival: ArrivalConfig::default(),
            admission: None,
            quarantine: None,
            portfolio: None,
            obs: Obs::disabled(),
        }
    }

    /// [`RunConfig::new`] with the environment fallbacks resolved — the
    /// *only* place the run layer reads the environment:
    ///
    /// * `workers` ← `CTG_WORKERS`, else available parallelism
    ///   ([`pool::worker_count`]);
    /// * `min_batch` ← `CTG_POOL_MIN_BATCH`, else
    ///   [`pool::DEFAULT_MIN_BATCH`] ([`pool::min_batch`]);
    /// * `shards` ← `CTG_SERVE_SHARDS`, else the worker count
    ///   ([`serve::default_shards`]);
    /// * `arrival.kind` ← `CTG_SERVE_ARRIVAL`, else closed loop
    ///   ([`serve::default_arrival`]);
    /// * `portfolio` ← `CTG_SCHEDULER` ([`SCHEDULER_ENV`]), else DLS only.
    pub fn from_env() -> Self {
        RunConfig {
            workers: pool::worker_count(),
            min_batch: pool::min_batch(),
            shards: serve::default_shards(),
            arrival: ArrivalConfig {
                kind: serve::default_arrival(),
                ..ArrivalConfig::default()
            },
            portfolio: scheduler_from_env(),
            ..RunConfig::new()
        }
    }

    /// Sets the worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the sequential-fallback batch threshold (`0` disables the
    /// fallback).
    #[must_use]
    pub fn min_batch(mut self, min_batch: usize) -> Self {
        self.min_batch = min_batch;
        self
    }

    /// Sets the serve-engine shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the serve-engine cache mode.
    #[must_use]
    pub fn cache(mut self, cache: CacheMode) -> Self {
        self.cache = cache;
        self
    }

    /// Returns the configuration unchanged: every serve request is its own
    /// solve job and the shared cache does the amortizing. Kept so
    /// existing callers compile.
    #[must_use]
    pub fn coalesce(self, _coalesce: bool) -> Self {
        self
    }

    /// Returns the configuration unchanged: the shared cache is keyed on
    /// the exact probability bits, so there is no quantum to set. Kept so
    /// existing callers compile.
    #[must_use]
    pub fn quantum(self, _quantum: f64) -> Self {
        self
    }

    /// Injects faults from `plan`.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Protects adaptive runs with the degradation ladder `cfg`.
    #[must_use]
    pub fn degrade(mut self, cfg: DegradeConfig) -> Self {
        self.degrade = Some(cfg);
        self
    }

    /// Caps every solve at `budget` work units.
    #[must_use]
    pub fn solve_budget(mut self, budget: u64) -> Self {
        self.solve_budget = Some(budget);
        self
    }

    /// Returns the configuration unchanged: every solve runs on the
    /// calling thread. Kept so existing callers compile.
    #[must_use]
    pub fn intra_solve_workers(self, _workers: usize) -> Self {
        self
    }

    /// Sets the serve-engine arrival process (and SLO / replay traces).
    #[must_use]
    pub fn arrival(mut self, arrival: ArrivalConfig) -> Self {
        self.arrival = arrival;
        self
    }

    /// Returns the configuration unchanged: there is one serve engine.
    /// Kept so existing callers compile.
    #[must_use]
    pub fn engine(self, _engine: EngineKind) -> Self {
        self
    }

    /// Enables serve-engine admission control.
    #[must_use]
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(cfg);
        self
    }

    /// Enables the serve engine's per-stream quarantine breaker.
    #[must_use]
    pub fn quarantine(mut self, cfg: QuarantineConfig) -> Self {
        self.quarantine = Some(cfg);
        self
    }

    /// Selects a single scheduler: [`SchedulerKind::Dls`] is the historic
    /// pipeline (no racing), any other kind races it alone — every drift
    /// event adopts that scheduler's plan when schedulable, its least-bad
    /// plan otherwise.
    #[must_use]
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.portfolio = normalize_scheduler_selection(vec![kind]);
        self
    }

    /// Races `kinds` (in order — list [`SchedulerKind::Dls`] first so ties
    /// keep the paper's plan) on every drift event. An empty slice resets
    /// to the DLS-only default.
    #[must_use]
    pub fn portfolio(mut self, kinds: &[SchedulerKind]) -> Self {
        self.portfolio = if kinds.is_empty() {
            None
        } else {
            Some(kinds.to_vec())
        };
        self
    }

    /// Attaches a telemetry handle.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The serve-engine slice of this configuration.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            workers: self.workers,
            shards: self.shards,
            cache: self.cache,
            solve_budget: self.solve_budget,
            arrival: self.arrival.clone(),
            admission: self.admission,
            quarantine: self.quarantine,
            portfolio: self.portfolio.clone(),
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::new()
    }
}

/// Drives traces and stream sets through the engines selected by a
/// [`RunConfig`].
///
/// The runner is stateless beyond its configuration — construct one per
/// configuration and reuse it across runs (it only borrows the context and
/// inputs).
#[derive(Debug, Clone, Default)]
pub struct Runner {
    cfg: RunConfig,
}

impl Runner {
    /// A runner for `cfg`.
    pub fn new(cfg: RunConfig) -> Self {
        Runner { cfg }
    }

    /// A runner with the environment-fallback defaults
    /// ([`RunConfig::from_env`]).
    pub fn from_env() -> Self {
        Runner::new(RunConfig::from_env())
    }

    /// The configuration this runner dispatches on.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Runs a fixed solution over a trace (the paper's non-adaptive online
    /// policy).
    ///
    /// Dispatch: `fault_plan` selects fault injection; `workers > 1`
    /// selects the pooled engine (whose summary is bit-for-bit equal to the
    /// sequential one — only the ignored wall-clock fields differ).
    ///
    /// # Errors
    ///
    /// Propagates vector-arity mismatches and invalid fault plans.
    pub fn run_static(
        &self,
        ctx: &SchedContext,
        solution: &Solution,
        vectors: &[DecisionVector],
    ) -> Result<RunSummary, SchedError> {
        let obs = &self.cfg.obs;
        match (&self.cfg.fault_plan, self.cfg.workers > 1) {
            (None, false) => runner::static_seq(ctx, solution, vectors, obs),
            (None, true) => runner::static_parallel(
                ctx,
                solution,
                vectors,
                self.cfg.workers,
                self.cfg.min_batch,
                obs,
            ),
            (Some(plan), false) => runner::static_faulty_seq(ctx, solution, vectors, plan, obs),
            (Some(plan), true) => runner::static_faulty_parallel(
                ctx,
                solution,
                vectors,
                plan,
                self.cfg.workers,
                self.cfg.min_batch,
                obs,
            ),
        }
    }

    /// Runs the adaptive policy over a trace.
    ///
    /// Dispatch: with neither `fault_plan` nor `degrade` set this is the
    /// plain adaptive engine; setting either selects the resilient engine
    /// (a missing plan defaults to [`FaultPlan::none`], a missing ladder
    /// config to [`DegradeConfig::default`]).
    ///
    /// A configured [`solve_budget`](RunConfig::solve_budget) is installed
    /// on the manager: the resilient engine absorbs budget aborts (keeping
    /// the last plan and escalating the ladder), the plain engine
    /// propagates them like any other solve failure.
    ///
    /// # Errors
    ///
    /// Propagates vector-arity mismatches; the plain engine additionally
    /// propagates re-scheduling failures (the resilient engine absorbs
    /// them into [`DegradeStats`](crate::DegradeStats)).
    pub fn run_adaptive(
        &self,
        ctx: &SchedContext,
        manager: AdaptiveScheduler,
        vectors: &[DecisionVector],
    ) -> Result<(RunSummary, AdaptiveScheduler), SchedError> {
        let obs = &self.cfg.obs;
        let mut manager = manager;
        manager.set_solve_budget(self.cfg.solve_budget);
        if let Some(kinds) = &self.cfg.portfolio {
            manager.enable_portfolio(kinds)?;
        }
        if self.cfg.fault_plan.is_none() && self.cfg.degrade.is_none() {
            return runner::adaptive_run(ctx, manager, vectors, obs);
        }
        let plan = self
            .cfg
            .fault_plan
            .clone()
            .unwrap_or_else(|| FaultPlan::none(0));
        let dcfg = self.cfg.degrade.unwrap_or_default();
        runner::adaptive_resilient_run(ctx, manager, vectors, &plan, &dcfg, obs)
    }

    /// Runs `vectors` as periodically released instances (period as a call
    /// parameter: it is a property of the experiment, not of the engine).
    ///
    /// # Errors
    ///
    /// Rejects non-positive periods and propagates vector-arity
    /// mismatches.
    pub fn run_periodic(
        &self,
        ctx: &SchedContext,
        solution: &Solution,
        vectors: &[DecisionVector],
        period: f64,
    ) -> Result<PeriodicSummary, SchedError> {
        runner::run_periodic(ctx, solution, vectors, period)
    }

    /// Drives a set of streams through the sharded serving engine
    /// ([`serve_config`](RunConfig::serve_config) carves the engine's
    /// slice out of this configuration).
    ///
    /// # Errors
    ///
    /// Propagates trace/plan validation errors and the first solver
    /// failure.
    pub fn serve(
        &self,
        ctx: &SchedContext,
        specs: &[StreamSpec],
    ) -> Result<ServeReport, SchedError> {
        serve::serve_engine(ctx, specs, &self.cfg.serve_config(), &self.cfg.obs, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_static, run_static_parallel};
    use ctg_model::BranchProbs;
    use ctg_sched::test_util::{example1_ctg, uniform_platform};
    use ctg_sched::OnlineScheduler;

    fn setup() -> (SchedContext, BranchProbs) {
        let (ctg, _) = example1_ctg(60.0);
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        (SchedContext::new(ctg, platform).unwrap(), probs)
    }

    fn trace(len: usize) -> Vec<DecisionVector> {
        (0..len)
            .map(|i| DecisionVector::new(vec![(i % 2) as u8, ((i / 3) % 2) as u8]))
            .collect()
    }

    #[test]
    fn builder_round_trips() {
        let arrival = ArrivalConfig {
            kind: crate::serve::ArrivalKind::Poisson { rate: 0.5 },
            slo: Some(40.0),
            ..ArrivalConfig::default()
        };
        let cfg = RunConfig::new()
            .workers(4)
            .min_batch(0)
            .shards(7)
            .cache(CacheMode::Off)
            .coalesce(false)
            .quantum(0.25)
            .fault_plan(FaultPlan::none(3))
            .degrade(DegradeConfig::default())
            .solve_budget(5000)
            .arrival(arrival.clone())
            .engine(EngineKind::Events)
            .admission(AdmissionConfig { high_water: 3 })
            .quarantine(QuarantineConfig::default())
            .portfolio(&[SchedulerKind::Dls, SchedulerKind::Heft]);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.min_batch, 0);
        assert_eq!(cfg.shards, 7);
        assert_eq!(cfg.cache, CacheMode::Off);
        assert!(cfg.fault_plan.is_some());
        assert!(cfg.degrade.is_some());
        assert_eq!(cfg.solve_budget, Some(5000));
        assert_eq!(cfg.arrival, arrival);
        let sc = cfg.serve_config();
        assert_eq!(sc.workers, 4);
        assert_eq!(sc.shards, 7);
        assert_eq!(sc.solve_budget, Some(5000));
        assert_eq!(sc.arrival, arrival);
        assert_eq!(sc.admission, Some(AdmissionConfig { high_water: 3 }));
        assert_eq!(sc.quarantine, Some(QuarantineConfig::default()));
        assert_eq!(
            sc.portfolio,
            Some(vec![SchedulerKind::Dls, SchedulerKind::Heft])
        );
        assert!(!cfg.obs.enabled());
    }

    #[test]
    fn scheduler_selection_normalizes() {
        // A bare DLS selection *is* the default pipeline, not a race.
        assert!(RunConfig::new()
            .scheduler(SchedulerKind::Dls)
            .portfolio
            .is_none());
        assert_eq!(
            RunConfig::new().scheduler(SchedulerKind::Heft).portfolio,
            Some(vec![SchedulerKind::Heft])
        );
        assert!(RunConfig::new()
            .portfolio(&[SchedulerKind::Heft])
            .portfolio(&[])
            .portfolio
            .is_none());
        assert_eq!(
            normalize_scheduler_selection(vec![SchedulerKind::Dls]),
            None
        );
    }

    #[test]
    fn from_env_matches_single_sourced_fallbacks() {
        // Whatever the environment holds, from_env must agree with the
        // pool/serve helpers — they are the single source of truth.
        let cfg = RunConfig::from_env();
        assert_eq!(cfg.workers, pool::worker_count());
        assert_eq!(cfg.min_batch, pool::min_batch());
        assert_eq!(cfg.shards, serve::default_shards());
        assert_eq!(cfg.arrival.kind, serve::default_arrival());
        assert_eq!(cfg.portfolio, scheduler_from_env());
    }

    #[test]
    fn dispatch_matches_legacy_entry_points() {
        let (ctx, probs) = setup();
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let vs = trace(64);
        let legacy_seq = run_static(&ctx, &solution, &vs).unwrap();
        let legacy_par = run_static_parallel(&ctx, &solution, &vs, 3).unwrap();
        // min_batch 0: force the pool even for this tiny trace.
        let unified_par = Runner::new(RunConfig::new().workers(3).min_batch(0))
            .run_static(&ctx, &solution, &vs)
            .unwrap();
        assert_eq!(legacy_seq, legacy_par);
        assert_eq!(legacy_seq, unified_par);
    }

    #[test]
    fn faulty_dispatch_selects_injection_engines() {
        let (ctx, probs) = setup();
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let vs = trace(48);
        let plan = FaultPlan::uniform(0xFEED, 0.2);
        let seq = Runner::new(RunConfig::new().fault_plan(plan.clone()))
            .run_static(&ctx, &solution, &vs)
            .unwrap();
        let par = Runner::new(RunConfig::new().workers(4).min_batch(0).fault_plan(plan))
            .run_static(&ctx, &solution, &vs)
            .unwrap();
        assert_eq!(seq, par);
        let total =
            seq.faults.overruns + seq.faults.stalls + seq.faults.denials + seq.faults.retransmits;
        assert!(total > 0, "p=0.2 over 48 instances must inject something");
    }

    #[test]
    fn adaptive_dispatch_covers_plain_and_resilient() {
        let (ctx, probs) = setup();
        let vs = trace(80);
        let mgr = || AdaptiveScheduler::new(&ctx, probs.clone(), 8, 0.2).unwrap();
        let (plain, _) = Runner::new(RunConfig::new())
            .run_adaptive(&ctx, mgr(), &vs)
            .unwrap();
        let (legacy, _) = crate::runner::run_adaptive(&ctx, mgr(), &vs).unwrap();
        assert_eq!(plain, legacy);
        // Ladder-only config routes to the resilient engine with a no-op
        // plan: same energies, degrade counters present.
        let (resilient, _) = Runner::new(RunConfig::new().degrade(DegradeConfig::default()))
            .run_adaptive(&ctx, mgr(), &vs)
            .unwrap();
        assert_eq!(resilient.exec, plain.exec);
    }
}
