//! Trace runners: drive the non-adaptive and adaptive policies over a
//! sequence of decision vectors.
//!
//! The eight historical `run_*` entry points survive as thin wrappers over
//! the unified [`Runner`] / [`RunConfig`] API (see [`crate::run`]); the
//! engine implementations live here and all take an [`Obs`] telemetry
//! handle — free when disabled, and never affecting a single simulated bit
//! when enabled.

use crate::degrade::{DegradeConfig, DegradeStats, Rung, Watchdog, WatchdogVerdict};
use crate::fault::{FaultInjector, FaultLog, FaultPlan, FaultStats};
use crate::instance::{InstanceOutcome, SimWorkspace};
use crate::pool;
use crate::run::{RunConfig, Runner};
use crate::summary::{fmt_f64, ExecStats};
use ctg_model::DecisionVector;
use ctg_obs::{Counter, Hist, Obs, Stage};
use ctg_sched::{AdaptiveScheduler, ObserveOutcome, SchedContext, SchedError, Solution};
use std::time::Instant;

/// Aggregate outcome of a trace run.
///
/// The simulated core (instances, energy, misses, makespan) lives in the
/// shared [`ExecStats`] under [`RunSummary::exec`]; the serving engine's
/// [`StreamSummary`](crate::StreamSummary) embeds the same core.
///
/// Equality (`==`) compares the *simulated* quantities only: the wall-clock
/// fields [`RunSummary::wall_s`] and [`RunSummary::resched_wall_s`] are
/// measured, vary run to run, and are ignored — so the determinism checks
/// "parallel summary == sequential summary" hold bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// The simulated execution core: instances, energy, misses, makespan.
    pub exec: ExecStats,
    /// Adopted re-schedules that invoked the solver (0 for the static
    /// policy; excludes cache hits).
    pub calls: usize,
    /// Adopted re-schedule events, whether served by the solver or by the
    /// schedule cache (`calls + adopted cache hits`; equals `calls` when the
    /// cache is disabled; 0 for the static policy).
    pub reschedules: usize,
    /// Schedule-cache hits (0 unless the manager's cache is enabled).
    pub cache_hits: usize,
    /// Schedule-cache misses (0 unless the manager's cache is enabled).
    pub cache_misses: usize,
    /// Injected-fault accounting (all-zero for fault-free runners).
    pub faults: FaultStats,
    /// Degradation-ladder accounting (all-zero for fault-free runners).
    pub degrade: DegradeStats,
    /// Wall-clock seconds of the whole run (measured; ignored by `==`).
    pub wall_s: f64,
    /// Wall-clock seconds spent inside the adaptive manager — drift checks
    /// and re-schedules (measured; ignored by `==`; 0 for static runs).
    pub resched_wall_s: f64,
}

impl PartialEq for RunSummary {
    fn eq(&self, other: &Self) -> bool {
        // Everything except the measured wall-clock fields.
        self.exec == other.exec
            && self.calls == other.calls
            && self.reschedules == other.reschedules
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.faults == other.faults
            && self.degrade == other.degrade
    }
}

impl RunSummary {
    /// Mean per-instance energy (see [`ExecStats::avg_energy`]).
    pub fn avg_energy(&self) -> f64 {
        self.exec.avg_energy()
    }

    /// Fraction of instances that missed the deadline, in `[0, 1]` (see
    /// [`ExecStats::miss_rate`]).
    pub fn miss_rate(&self) -> f64 {
        self.exec.miss_rate()
    }

    /// Simulated instances per wall-clock second.
    ///
    /// Returns `0.0` when `instances == 0` or no wall time was recorded
    /// (same convention as [`ExecStats::avg_energy`]).
    pub fn throughput(&self) -> f64 {
        if self.exec.instances == 0 || self.wall_s <= 0.0 {
            0.0
        } else {
            self.exec.instances as f64 / self.wall_s
        }
    }

    /// Renders the summary as one JSON object (hand-rolled: the workspace
    /// carries no serde). Wall-clock fields are included for reporting even
    /// though `==` ignores them.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"exec\":{},\"calls\":{},\"reschedules\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"wall_s\":{},\"resched_wall_s\":{}}}",
            self.exec.to_json(),
            self.calls,
            self.reschedules,
            self.cache_hits,
            self.cache_misses,
            fmt_f64(self.wall_s),
            fmt_f64(self.resched_wall_s)
        )
    }

    fn absorb_outcome(&mut self, r: &InstanceOutcome) {
        self.exec.absorb_outcome(r);
    }

    fn absorb_manager(&mut self, manager: &AdaptiveScheduler) {
        let stats = manager.stats();
        self.calls = stats.calls;
        self.reschedules = stats.reschedules;
        self.cache_hits = stats.cache_hits;
        self.cache_misses = stats.cache_misses;
    }
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}; {} calls, {} reschedules",
            self.exec, self.calls, self.reschedules
        )
    }
}

/// Telemetry for one simulated instance: instance/miss counters plus the
/// slack histogram. One `enabled` check guards the arithmetic so disabled
/// runs pay a single branch.
pub(crate) fn note_instance(obs: &Obs, ctx: &SchedContext, r: &InstanceOutcome) {
    if !obs.enabled() {
        return;
    }
    obs.count(Counter::Instances, 1);
    if !r.deadline_met {
        obs.count(Counter::DeadlineMisses, 1);
    }
    let deadline = ctx.ctg().deadline();
    if deadline > 0.0 {
        obs.observe(Hist::SlackPct, 100.0 * (deadline - r.makespan) / deadline);
    }
}

/// Telemetry for one faulty instance: a fault-injection instant (arg =
/// events this instance) plus the injected-fault counter.
pub(crate) fn note_faults(obs: &Obs, track: u32, stats: &FaultStats) {
    if !obs.enabled() {
        return;
    }
    let events = (stats.overruns + stats.stalls + stats.denials + stats.retransmits) as u64;
    if events > 0 {
        obs.instant(track, Stage::FaultInject, events as i64);
        obs.count(Counter::FaultsInjected, events);
    }
}

/// Telemetry for one SLO violation in the event-driven serving engine: a
/// per-worker instant (arg = stream id) plus the violation counter.
pub(crate) fn note_slo_miss(obs: &Obs, track: u32, stream_id: usize) {
    if !obs.enabled() {
        return;
    }
    obs.instant(track, Stage::SloMiss, stream_id as i64);
    obs.count(Counter::SloMisses, 1);
}

/// Runs a fixed solution over a trace (the paper's *non-adaptive online*
/// policy: schedule once from profiled probabilities, never revisit).
///
/// Thin wrapper over [`Runner::run_static`] with the sequential
/// [`RunConfig::new`] defaults.
///
/// # Errors
///
/// Propagates vector-arity mismatches.
pub fn run_static(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
) -> Result<RunSummary, SchedError> {
    Runner::new(RunConfig::new()).run_static(ctx, solution, vectors)
}

/// Sequential static engine.
pub(crate) fn static_seq(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
    obs: &Obs,
) -> Result<RunSummary, SchedError> {
    let start = Instant::now();
    let run_span = obs.span(0, Stage::Run);
    let mut ws = SimWorkspace::new(ctx, solution);
    let mut summary = RunSummary::default();
    for v in vectors {
        let r = ws.simulate(ctx, solution, v)?;
        summary.absorb_outcome(&r);
        note_instance(obs, ctx, &r);
    }
    run_span.end(summary.exec.instances as i64);
    summary.wall_s = start.elapsed().as_secs_f64();
    Ok(summary)
}

/// Picks the per-worker chunk length for a trace of `len` instances: small
/// enough that every worker gets several chunks (load balance), large enough
/// to amortize the channel round-trip. Chunking only affects wall time —
/// results are merged in submission order either way.
fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.max(1) * 8).max(1)
}

/// [`run_static`] fanned out over a worker pool (see [`pool`]).
///
/// The trace is split into chunks, simulated on up to `workers` threads
/// (each with its own [`SimWorkspace`]), and the per-instance outcomes are
/// folded into the summary **in trace order** — so the returned summary is
/// bit-for-bit equal to [`run_static`]'s for every worker count (the
/// wall-clock fields differ; they are ignored by `==`).
///
/// Use [`pool::worker_count`] for a `CTG_WORKERS`-aware default. Traces
/// shorter than [`pool::min_batch`] run sequentially regardless of
/// `workers` — spawn/join overhead dominates there — which changes only
/// the wall-clock fields.
///
/// Thin wrapper over [`Runner::run_static`] with [`RunConfig::from_env`]
/// (preserving the `CTG_POOL_MIN_BATCH` fallback) and an explicit worker
/// count.
///
/// # Errors
///
/// Propagates vector-arity mismatches.
pub fn run_static_parallel(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
    workers: usize,
) -> Result<RunSummary, SchedError> {
    Runner::new(RunConfig::from_env().workers(workers)).run_static(ctx, solution, vectors)
}

/// Parallel static engine: telemetry (counters, histograms) is recorded on
/// the merging thread in trace order, so enabling it cannot perturb the
/// worker pool or the merged bits.
pub(crate) fn static_parallel(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
    workers: usize,
    min_batch: usize,
    obs: &Obs,
) -> Result<RunSummary, SchedError> {
    let start = Instant::now();
    let run_span = obs.span(0, Stage::Run);
    let workers = pool::effective_workers_with(vectors.len(), workers, min_batch, 1.0);
    let chunks: Vec<&[DecisionVector]> =
        vectors.chunks(chunk_len(vectors.len(), workers)).collect();
    let results = pool::map_ordered_with(
        &chunks,
        workers,
        || SimWorkspace::new(ctx, solution),
        |ws, _, chunk| -> Result<Vec<InstanceOutcome>, SchedError> {
            chunk
                .iter()
                .map(|v| ws.simulate(ctx, solution, v))
                .collect()
        },
    );
    let mut summary = RunSummary::default();
    for chunk in results {
        for r in chunk? {
            summary.absorb_outcome(&r);
            note_instance(obs, ctx, &r);
        }
    }
    run_span.end(summary.exec.instances as i64);
    summary.wall_s = start.elapsed().as_secs_f64();
    Ok(summary)
}

/// Runs a fixed solution over a trace under a fault plan (the static policy
/// of [`run_static`] with the fault semantics of
/// [`simulate_instance_faulty`](crate::simulate_instance_faulty); instance
/// `i` draws its faults from the sub-stream `mix(plan.seed, i)`).
///
/// Thin wrapper over [`Runner::run_static`] with a fault plan configured.
///
/// # Errors
///
/// Propagates vector-arity mismatches and invalid plans.
pub fn run_static_faulty(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
    plan: &FaultPlan,
) -> Result<RunSummary, SchedError> {
    Runner::new(RunConfig::new().fault_plan(plan.clone())).run_static(ctx, solution, vectors)
}

/// Sequential faulty static engine.
pub(crate) fn static_faulty_seq(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
    plan: &FaultPlan,
    obs: &Obs,
) -> Result<RunSummary, SchedError> {
    let start = Instant::now();
    let run_span = obs.span(0, Stage::Run);
    let mut ws = SimWorkspace::new(ctx, solution);
    let mut injector = FaultInjector::empty(ctx);
    let mut log = FaultLog::default();
    let mut summary = RunSummary::default();
    for (i, v) in vectors.iter().enumerate() {
        injector.resample(plan, ctx, i as u64)?;
        let r = ws.simulate_faulty(ctx, solution, v, plan, &injector, &mut log)?;
        summary.absorb_outcome(&r);
        summary.faults.absorb(&log.stats);
        note_instance(obs, ctx, &r);
        note_faults(obs, 0, &log.stats);
    }
    run_span.end(summary.exec.instances as i64);
    summary.wall_s = start.elapsed().as_secs_f64();
    Ok(summary)
}

/// Relative per-instance cost of a faulty simulation vs a plain one, used
/// to weight the small-batch sequential fallback: a faulty instance
/// resamples its fault stream and re-plans around injected overruns,
/// stalls and retransmits, costing roughly twice a plain instance (the
/// `throughput` bench measures ~1.5–2×), so the pool breaks even at about
/// half as many instances.
pub const FAULTY_INSTANCE_COST: f64 = 2.0;

/// [`run_static_faulty`] fanned out over a worker pool.
///
/// Fault decisions are keyed by `(plan.seed, global instance index)`, so
/// instances are independent and the partition into chunks cannot change
/// them; outcomes are folded in trace order, making the summary bit-for-bit
/// equal to [`run_static_faulty`]'s at every worker count. The small-batch
/// sequential fallback is weighted by [`FAULTY_INSTANCE_COST`]: faulty
/// instances are heavier than plain ones, so the pool pays off at
/// proportionally shorter traces than [`run_static_parallel`]'s
/// [`pool::min_batch`] floor.
///
/// Thin wrapper over [`Runner::run_static`] with [`RunConfig::from_env`]
/// plus a fault plan and an explicit worker count.
///
/// # Errors
///
/// Propagates vector-arity mismatches and invalid plans.
pub fn run_static_faulty_parallel(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
    plan: &FaultPlan,
    workers: usize,
) -> Result<RunSummary, SchedError> {
    Runner::new(
        RunConfig::from_env()
            .workers(workers)
            .fault_plan(plan.clone()),
    )
    .run_static(ctx, solution, vectors)
}

/// Parallel faulty static engine (telemetry merged in trace order, like
/// [`static_parallel`]).
pub(crate) fn static_faulty_parallel(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
    plan: &FaultPlan,
    workers: usize,
    min_batch: usize,
    obs: &Obs,
) -> Result<RunSummary, SchedError> {
    let start = Instant::now();
    let run_span = obs.span(0, Stage::Run);
    let workers =
        pool::effective_workers_with(vectors.len(), workers, min_batch, FAULTY_INSTANCE_COST);
    let clen = chunk_len(vectors.len(), workers);
    let chunks: Vec<(usize, &[DecisionVector])> = vectors
        .chunks(clen)
        .enumerate()
        .map(|(c, chunk)| (c * clen, chunk))
        .collect();
    let results = pool::map_ordered_with(
        &chunks,
        workers,
        || {
            (
                SimWorkspace::new(ctx, solution),
                FaultInjector::empty(ctx),
                FaultLog::default(),
            )
        },
        |(ws, injector, log),
         _,
         &(base, chunk)|
         -> Result<Vec<(InstanceOutcome, FaultStats)>, SchedError> {
            chunk
                .iter()
                .enumerate()
                .map(|(j, v)| {
                    injector.resample(plan, ctx, (base + j) as u64)?;
                    let r = ws.simulate_faulty(ctx, solution, v, plan, injector, log)?;
                    Ok((r, log.stats))
                })
                .collect()
        },
    );
    let mut summary = RunSummary::default();
    for chunk in results {
        for (r, stats) in chunk? {
            summary.absorb_outcome(&r);
            summary.faults.absorb(&stats);
            note_instance(obs, ctx, &r);
            note_faults(obs, 0, &stats);
        }
    }
    run_span.end(summary.exec.instances as i64);
    summary.wall_s = start.elapsed().as_secs_f64();
    Ok(summary)
}

/// Runs the adaptive policy over a trace: each instance executes under the
/// solution currently in force, then its branch decisions are fed to the
/// manager, possibly triggering a re-schedule that takes effect from the
/// next instance (paper §III.B).
///
/// The manager is taken by value and mutated; pass a freshly constructed
/// [`AdaptiveScheduler`] for reproducible runs.
///
/// Thin wrapper over [`Runner::run_adaptive`] with the fault-free
/// [`RunConfig::new`] defaults.
///
/// # Errors
///
/// Propagates vector-arity mismatches and re-scheduling failures.
pub fn run_adaptive(
    ctx: &SchedContext,
    manager: AdaptiveScheduler,
    vectors: &[DecisionVector],
) -> Result<(RunSummary, AdaptiveScheduler), SchedError> {
    Runner::new(RunConfig::new()).run_adaptive(ctx, manager, vectors)
}

/// Adaptive engine: the manager records drift/adopt/solve telemetry on
/// track 0.
pub(crate) fn adaptive_run(
    ctx: &SchedContext,
    mut manager: AdaptiveScheduler,
    vectors: &[DecisionVector],
    obs: &Obs,
) -> Result<(RunSummary, AdaptiveScheduler), SchedError> {
    let start = Instant::now();
    let run_span = obs.span(0, Stage::Run);
    manager.set_obs(obs.clone(), 0);
    let mut summary = RunSummary::default();
    let mut ws = SimWorkspace::new(ctx, manager.solution());
    let mut last_reschedules = manager.stats().reschedules;
    for v in vectors {
        let r = ws.simulate(ctx, manager.solution(), v)?;
        summary.absorb_outcome(&r);
        note_instance(obs, ctx, &r);
        let t0 = Instant::now();
        manager.observe(ctx, v)?;
        summary.resched_wall_s += t0.elapsed().as_secs_f64();
        // An adoption may change the committed schedule; re-derive the
        // workspace's constraint structure (speeds alone need no rebuild).
        if manager.stats().reschedules != last_reschedules {
            last_reschedules = manager.stats().reschedules;
            ws.rebuild(ctx, manager.solution());
        }
    }
    summary.absorb_manager(&manager);
    run_span.end(summary.exec.instances as i64);
    summary.wall_s = start.elapsed().as_secs_f64();
    Ok((summary, manager))
}

fn note_outcome(summary: &mut RunSummary, outcome: ObserveOutcome) {
    match outcome {
        ObserveOutcome::RejectedWorse { .. } => summary.degrade.rejected_reschedules += 1,
        ObserveOutcome::SolveFailed(_) => summary.degrade.failed_reschedules += 1,
        ObserveOutcome::NoDrift | ObserveOutcome::Rescheduled => {}
    }
}

/// Telemetry for a degradation-ladder transition onto `rung`.
fn note_ladder(obs: &Obs, rung: Rung) {
    obs.instant(0, Stage::Ladder, rung as i64);
    obs.count(Counter::LadderTransitions, 1);
}

/// Runs the adaptive policy over a trace under a fault plan, protected by
/// the graceful-degradation ladder (see [`crate::degrade`]).
///
/// Each instance executes under [`simulate_instance_faulty`]; the watchdog
/// absorbs its deadline verdict and may escalate the ladder (guard-banded
/// re-stretch → all-max-speed safe mode → recorded unschedulability).
/// Drift-triggered re-schedules use the manager's resilient path: a
/// `SchedError` or a worse worst-case makespan keeps the last-known-good
/// solution and bumps the corresponding [`DegradeStats`] counter. On the
/// safe-mode and unschedulable rungs the estimators keep profiling but the
/// pinned full-speed solution is not overwritten until the ladder relaxes.
///
/// With a no-op plan ([`FaultPlan::is_none`]) and a trace that never
/// misses, the summary's energies and call counts equal [`run_adaptive`]'s
/// exactly.
///
/// Thin wrapper over [`Runner::run_adaptive`] with the plan and ladder
/// configured.
///
/// [`simulate_instance_faulty`]: crate::simulate_instance_faulty
///
/// # Errors
///
/// Returns `Err` only for non-recoverable misuse: wrong-arity vectors and
/// invalid plan/ladder configuration. Solver failures and deadline misses
/// during the run are absorbed and accounted, never propagated.
pub fn run_adaptive_resilient(
    ctx: &SchedContext,
    manager: AdaptiveScheduler,
    vectors: &[DecisionVector],
    plan: &FaultPlan,
    cfg: &DegradeConfig,
) -> Result<(RunSummary, AdaptiveScheduler), SchedError> {
    Runner::new(RunConfig::new().fault_plan(plan.clone()).degrade(*cfg))
        .run_adaptive(ctx, manager, vectors)
}

/// Resilient adaptive engine: ladder transitions and fault injections are
/// recorded alongside the manager's drift/adopt telemetry (track 0).
pub(crate) fn adaptive_resilient_run(
    ctx: &SchedContext,
    mut manager: AdaptiveScheduler,
    vectors: &[DecisionVector],
    plan: &FaultPlan,
    cfg: &DegradeConfig,
    obs: &Obs,
) -> Result<(RunSummary, AdaptiveScheduler), SchedError> {
    let start = Instant::now();
    let run_span = obs.span(0, Stage::Run);
    manager.set_obs(obs.clone(), 0);
    let mut watchdog = Watchdog::new(*cfg)?;
    let mut summary = RunSummary::default();
    let mut ws = SimWorkspace::new(ctx, manager.solution());
    let mut injector = FaultInjector::empty(ctx);
    let mut log = FaultLog::default();
    let mut last_reschedules = manager.stats().reschedules;
    for (i, v) in vectors.iter().enumerate() {
        injector.resample(plan, ctx, i as u64)?;
        let r = ws.simulate_faulty(ctx, manager.solution(), v, plan, &injector, &mut log)?;
        summary.absorb_outcome(&r);
        summary.faults.absorb(&log.stats);
        note_instance(obs, ctx, &r);
        note_faults(obs, 0, &log.stats);
        let manage_t0 = Instant::now();
        match watchdog.record(r.deadline_met) {
            WatchdogVerdict::Hold => {}
            WatchdogVerdict::Escalate(rung) => match rung {
                Rung::GuardBand => {
                    summary.degrade.guard_band_escalations += 1;
                    note_ladder(obs, rung);
                    manager.set_deadline_guard(cfg.guard_band)?;
                    note_outcome(&mut summary, manager.resolve_now(ctx));
                }
                Rung::SafeMode => {
                    summary.degrade.safe_mode_escalations += 1;
                    note_ladder(obs, rung);
                    manager.enter_safe_mode();
                }
                Rung::Unschedulable => {
                    // Recorded, not raised: stay at full speed and keep going.
                    summary.degrade.unschedulable_events += 1;
                    note_ladder(obs, rung);
                }
                Rung::Normal => unreachable!("escalation never lands on Normal"),
            },
            WatchdogVerdict::Relax(rung) => {
                summary.degrade.recoveries += 1;
                note_ladder(obs, rung);
                match rung {
                    Rung::Normal => {
                        manager.set_deadline_guard(1.0)?;
                        note_outcome(&mut summary, manager.resolve_now(ctx));
                    }
                    Rung::GuardBand => {
                        manager.set_deadline_guard(cfg.guard_band)?;
                        note_outcome(&mut summary, manager.resolve_now(ctx));
                    }
                    Rung::SafeMode => manager.enter_safe_mode(),
                    Rung::Unschedulable => unreachable!("relaxation always climbs"),
                }
            }
        }
        if watchdog.rung() <= Rung::GuardBand {
            let outcome = manager.observe_resilient(ctx, v)?;
            let budget_hit = matches!(
                &outcome,
                ObserveOutcome::SolveFailed(SchedError::SolveBudgetExceeded { .. })
            );
            note_outcome(&mut summary, outcome);
            if budget_hit {
                // A blown solve budget is overload evidence on its own:
                // escalate straight onto the guard band (from Normal) so
                // the cheaper guard-banded solves take over, rather than
                // waiting for deadline misses to accumulate.
                summary.degrade.budget_exceeded += 1;
                if let WatchdogVerdict::Escalate(rung) = watchdog.record_budget_exceeded() {
                    summary.degrade.guard_band_escalations += 1;
                    note_ladder(obs, rung);
                    manager.set_deadline_guard(cfg.guard_band)?;
                    note_outcome(&mut summary, manager.resolve_now(ctx));
                }
            }
        } else {
            // Safe mode / unschedulable: profile only, keep speeds pinned.
            manager.record_observation(ctx, v)?;
        }
        summary.resched_wall_s += manage_t0.elapsed().as_secs_f64();
        if manager.stats().reschedules != last_reschedules {
            last_reschedules = manager.stats().reschedules;
            ws.rebuild(ctx, manager.solution());
        }
    }
    summary.absorb_manager(&manager);
    run_span.end(summary.exec.instances as i64);
    summary.wall_s = start.elapsed().as_secs_f64();
    Ok((summary, manager))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctg_model::BranchProbs;
    use ctg_sched::test_util::{example1_ctg, uniform_platform};
    use ctg_sched::OnlineScheduler;

    fn setup() -> (SchedContext, BranchProbs) {
        let (ctg, _) = example1_ctg(60.0);
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        (SchedContext::new(ctg, platform).unwrap(), probs)
    }

    fn constant_trace(alt: u8, len: usize) -> Vec<DecisionVector> {
        (0..len)
            .map(|_| DecisionVector::new(vec![alt, alt]))
            .collect()
    }

    #[test]
    fn static_run_aggregates() {
        let (ctx, probs) = setup();
        let sol = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let trace = constant_trace(0, 10);
        let s = run_static(&ctx, &sol, &trace).unwrap();
        assert_eq!(s.exec.instances, 10);
        assert_eq!(s.exec.deadline_misses, 0);
        assert_eq!(s.calls, 0);
        assert!(s.avg_energy() > 0.0);
        assert!((s.exec.total_energy - 10.0 * s.avg_energy()).abs() < 1e-9);
    }

    #[test]
    fn adaptive_beats_static_under_mismatched_profile() {
        let (ctx, _) = setup();
        // Profile says a2 almost always; the trace is constant a1.
        let mut wrong = BranchProbs::uniform(ctx.ctg());
        let forks: Vec<_> = ctx.ctg().branch_nodes().to_vec();
        wrong.set(forks[0], vec![0.05, 0.95]).unwrap();
        let static_sol = OnlineScheduler::new().solve(&ctx, &wrong).unwrap();
        let trace = constant_trace(0, 60);
        let s_static = run_static(&ctx, &static_sol, &trace).unwrap();

        let manager = AdaptiveScheduler::new(&ctx, wrong, 10, 0.2).unwrap();
        let (s_adaptive, _) = run_adaptive(&ctx, manager, &trace).unwrap();
        assert!(s_adaptive.calls >= 1);
        assert!(
            s_adaptive.exec.total_energy < s_static.exec.total_energy,
            "adaptive {} !< static {}",
            s_adaptive.exec.total_energy,
            s_static.exec.total_energy
        );
        assert_eq!(s_adaptive.exec.deadline_misses, 0);
    }

    #[test]
    fn adaptive_with_huge_threshold_equals_static() {
        let (ctx, probs) = setup();
        let sol = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let trace = constant_trace(1, 20);
        let s_static = run_static(&ctx, &sol, &trace).unwrap();
        let manager = AdaptiveScheduler::new(&ctx, probs, 10, 1.0).unwrap();
        let (s_adaptive, _) = run_adaptive(&ctx, manager, &trace).unwrap();
        assert_eq!(s_adaptive.calls, 0);
        assert!((s_adaptive.exec.total_energy - s_static.exec.total_energy).abs() < 1e-9);
    }

    #[test]
    fn lower_threshold_means_more_calls() {
        let (ctx, probs) = setup();
        // Alternating trace keeps the windowed estimate moving.
        let trace: Vec<DecisionVector> = (0..100)
            .map(|i| DecisionVector::new(vec![(i / 7 % 2) as u8, (i / 11 % 2) as u8]))
            .collect();
        let m_low = AdaptiveScheduler::new(&ctx, probs.clone(), 10, 0.1).unwrap();
        let m_high = AdaptiveScheduler::new(&ctx, probs, 10, 0.5).unwrap();
        let (s_low, _) = run_adaptive(&ctx, m_low, &trace).unwrap();
        let (s_high, _) = run_adaptive(&ctx, m_high, &trace).unwrap();
        assert!(
            s_low.calls >= s_high.calls,
            "T=0.1 calls {} < T=0.5 calls {}",
            s_low.calls,
            s_high.calls
        );
        assert!(s_low.calls > 0);
    }

    #[test]
    fn summary_json_renders() {
        let (ctx, probs) = setup();
        let sol = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let s = run_static(&ctx, &sol, &constant_trace(0, 4)).unwrap();
        let json = s.to_json();
        assert!(json.contains("\"exec\":{\"instances\":4"));
        assert!(json.contains("\"calls\":0"));
        assert!(format!("{s}").contains("4 instances"));
    }
}

/// Outcome of a periodic run (extension).
///
/// The paper assumes a periodic graph whose period equals its deadline. This
/// runner releases one instance every `period` time units and lets instances
/// queue on the PEs: tasks of instance *i+1* wait for the release time, for
/// their predecessors, and for instance *i*'s tasks on the same PE.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicSummary {
    /// Instances executed.
    pub instances: usize,
    /// Instances finishing after `release + deadline`.
    pub overruns: usize,
    /// Largest lateness (finish − absolute deadline) observed; ≤ 0 when all
    /// instances met their deadlines.
    pub max_lateness: f64,
    /// Total energy over the run.
    pub total_energy: f64,
    /// Completion time of the last instance.
    pub horizon: f64,
}

impl PeriodicSummary {
    /// Mean per-instance energy.
    pub fn avg_energy(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.total_energy / self.instances as f64
        }
    }
}

/// Runs `vectors` as periodically released instances with carry-over PE
/// contention.
///
/// With `period ≥` the worst-case makespan the result matches
/// [`run_static`] instance by instance; shorter periods make instances
/// interfere and eventually overrun.
///
/// Also reachable through [`Runner::run_periodic`].
///
/// # Errors
///
/// Returns [`SchedError::InvalidParameter`] for a non-positive period and
/// propagates vector-arity mismatches.
pub fn run_periodic(
    ctx: &SchedContext,
    solution: &Solution,
    vectors: &[DecisionVector],
    period: f64,
) -> Result<PeriodicSummary, SchedError> {
    if !(period.is_finite() && period > 0.0) {
        return Err(SchedError::InvalidParameter("period must be positive"));
    }
    let ctg = ctx.ctg();
    let platform = ctx.platform();
    let comm = platform.comm();
    let schedule = &solution.schedule;
    let n = ctg.num_tasks();

    // Static constraint structure (same as the instance simulator).
    let mut preds: Vec<Vec<(ctg_model::TaskId, f64)>> = vec![Vec::new(); n];
    for (_, e) in ctg.edges() {
        preds[e.dst().index()].push((e.src(), e.comm_kbytes()));
    }
    for &(fork, or_node) in ctx.activation().implied_or_deps() {
        preds[or_node.index()].push((fork, 0.0));
    }
    for pe in platform.pes() {
        let order = schedule.pe_order(pe);
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                preds[order[j].index()].push((order[i], 0.0));
            }
        }
    }
    let mut order: Vec<ctg_model::TaskId> = ctg.tasks().collect();
    order.sort_by(|&a, &b| {
        schedule
            .start(a)
            .partial_cmp(&schedule.start(b))
            .expect("finite start times")
            .then(a.cmp(&b))
    });

    let mut pe_carry = vec![0.0_f64; platform.num_pes()];
    let mut summary = PeriodicSummary {
        instances: 0,
        overruns: 0,
        max_lateness: f64::NEG_INFINITY,
        total_energy: 0.0,
        horizon: 0.0,
    };
    for (i, v) in vectors.iter().enumerate() {
        if v.len() != ctg.num_branches() {
            return Err(SchedError::VectorArity {
                expected: ctg.num_branches(),
                got: v.len(),
            });
        }
        let release = i as f64 * period;
        let active = v.active_tasks(ctg, ctx.activation());
        let mut finish_at: Vec<Option<f64>> = vec![None; n];
        let mut instance_end: f64 = release;
        let mut next_carry = pe_carry.clone();
        for &t in &order {
            if !active[t.index()] {
                continue;
            }
            let pe = schedule.pe_of(t);
            let mut start = release.max(pe_carry[pe.index()]);
            for &(p, kbytes) in &preds[t.index()] {
                if !active[p.index()] {
                    continue;
                }
                let pf = finish_at[p.index()].expect("topological processing");
                start = start.max(pf + comm.delay(schedule.pe_of(p), pe, kbytes));
            }
            let speed = solution.speeds.speed(t);
            let finish = start + platform.exec_time(t.index(), pe, speed);
            finish_at[t.index()] = Some(finish);
            next_carry[pe.index()] = next_carry[pe.index()].max(finish);
            summary.total_energy += platform.exec_energy(t.index(), pe, speed);
            instance_end = instance_end.max(finish);
        }
        for (_, e) in ctg.edges() {
            if active[e.src().index()] && active[e.dst().index()] {
                summary.total_energy += comm.energy(
                    schedule.pe_of(e.src()),
                    schedule.pe_of(e.dst()),
                    e.comm_kbytes(),
                );
            }
        }
        pe_carry = next_carry;
        let lateness = instance_end - (release + ctg.deadline());
        summary.max_lateness = summary.max_lateness.max(lateness);
        summary.overruns += usize::from(lateness > 1e-9);
        summary.instances += 1;
        summary.horizon = summary.horizon.max(instance_end);
    }
    if summary.instances == 0 {
        summary.max_lateness = 0.0;
    }
    Ok(summary)
}

#[cfg(test)]
mod periodic_tests {
    use super::*;
    use ctg_model::BranchProbs;
    use ctg_sched::test_util::{example1_ctg, uniform_platform};
    use ctg_sched::OnlineScheduler;

    fn setup() -> (SchedContext, Solution) {
        let (ctg, _) = example1_ctg(60.0);
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        (ctx, solution)
    }

    fn trace(len: usize) -> Vec<DecisionVector> {
        (0..len)
            .map(|i| DecisionVector::new(vec![(i % 2) as u8, ((i / 2) % 2) as u8]))
            .collect()
    }

    #[test]
    fn long_period_matches_isolated_instances() {
        let (ctx, solution) = setup();
        let vs = trace(12);
        let periodic = run_periodic(&ctx, &solution, &vs, ctx.ctg().deadline()).unwrap();
        let isolated = run_static(&ctx, &solution, &vs).unwrap();
        assert_eq!(periodic.overruns, 0);
        assert!((periodic.total_energy - isolated.exec.total_energy).abs() < 1e-9);
        assert!(periodic.max_lateness <= 0.0);
    }

    #[test]
    fn short_period_overruns_and_backlogs() {
        let (ctx, solution) = setup();
        let vs = trace(20);
        // Period far below the stretched makespan: backlog accumulates.
        let periodic = run_periodic(&ctx, &solution, &vs, 5.0).unwrap();
        assert!(periodic.overruns > 0);
        assert!(periodic.max_lateness > 0.0);
        // Energy is speed-determined, not contention-determined.
        let isolated = run_static(&ctx, &solution, &vs).unwrap();
        assert!((periodic.total_energy - isolated.exec.total_energy).abs() < 1e-9);
    }

    #[test]
    fn lateness_monotone_in_period() {
        let (ctx, solution) = setup();
        let vs = trace(16);
        let tight = run_periodic(&ctx, &solution, &vs, 10.0).unwrap();
        let loose = run_periodic(&ctx, &solution, &vs, 40.0).unwrap();
        assert!(tight.max_lateness >= loose.max_lateness);
    }

    #[test]
    fn bad_period_rejected() {
        let (ctx, solution) = setup();
        assert!(run_periodic(&ctx, &solution, &trace(2), 0.0).is_err());
        assert!(run_periodic(&ctx, &solution, &trace(2), f64::NAN).is_err());
    }
}
