//! Incremental warm-start solver core.
//!
//! [`SolverWorkspace`] makes *repeated* online solves cheap while staying
//! **bit-for-bit equivalent** to a from-scratch
//! [`OnlineScheduler::solve`](crate::OnlineScheduler::solve). Between
//! adaptive re-schedules the CTG, the platform and usually the mapping are
//! unchanged — only the branch-probability estimates drift — so almost all
//! of the solver's work can be amortized:
//!
//! 1. **Compiled context** (in [`SchedContext`]): CSR adjacency and cached
//!    per-task average WCETs are built once per context, so neither DLS nor
//!    the level computation rebuilds `Vec<Vec<…>>` structures per call.
//! 2. **Dirty-set static levels**: the probability-weighted static levels
//!    are recomputed only for tasks that reach a fork whose distribution
//!    actually changed (bitwise comparison), falling back to a full
//!    recompute on the first call. Untouched levels have bit-identical
//!    inputs, so the updated array equals a full recompute bit for bit.
//! 3. **Scheduled-graph reuse**: a bounded pool keeps the
//!    [`ScheduledGraph`] of recently seen PE mappings, keyed on what the
//!    graph is built from: the task assignment, each PE's execution order
//!    and the path cap. Start times and the global commit order are not
//!    part of the key — the build reads starts only to prune a
//!    reachability search whose outcome they cannot change, and never
//!    reads the commit order — so schedules that differ only there share
//!    one graph. When DLS returns a mapping already in the pool (drift
//!    typically oscillates among a handful of distinct mappings), the
//!    stored graph — whose topology, delays and path conditions do not
//!    depend on the probabilities — is reused and only its minterm-group
//!    probabilities are re-weighted, skipping the transitive reduction,
//!    the worst-case-exponential path enumeration and the stretcher's
//!    per-task layout. The stretch itself still reads the commit order,
//!    the PEs and the starts from the schedule being solved.
//!
//! Every solve runs DLS and the stretch sweeps. Replaying a whole plan for
//! a table solved before is the plan cache's job (an
//! [`LruCache`](crate::LruCache) keyed on the exact
//! [`ScheduleKey`](crate::ScheduleKey), in the adaptive manager and in the
//! serving engine), not the workspace's.
//!
//! The stretching sweeps themselves intentionally run *cold* (not seeded
//! from the incumbent speeds): seeding changes the sweep arithmetic and
//! therefore the bits. Warm-started stretching is available separately as
//! [`stretch_schedule_seeded`](crate::stretch_schedule_seeded), whose fixed
//! point matches the cold result to tolerance (see
//! `tests/solver_equivalence.rs`).

use crate::budget::WorkMeter;
use crate::context::SchedContext;
use crate::dls::dls_with_levels_metered;
use crate::error::SchedError;
use crate::online::Solution;
use crate::schedule::Schedule;
use crate::sgraph::ScheduledGraph;
use crate::static_level::{static_levels_into, update_static_levels};
use crate::stretch::{
    critical_path_fallback, stretch_on_graph, validate_config, StretchConfig, StretchScratch,
};
use ctg_model::{BranchProbs, Ctg, TaskId};
use ctg_obs::{Counter, Hist, Obs, Stage};
use mpsoc_platform::{PeId, Platform};

/// Counters describing how much work repeated solves actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Total solve calls (including failed solves).
    pub solves: usize,
    /// Full static-level recomputes (first call and after each rebind).
    pub full_level_rebuilds: usize,
    /// Incremental static-level updates.
    pub dirty_level_updates: usize,
    /// Individual levels recomputed across all incremental updates.
    pub levels_recomputed: usize,
    /// Solves that reused a pooled scheduled graph (including reusing the
    /// knowledge that the path enumeration exceeds the cap).
    pub graph_reuses: usize,
    /// Solves that rebuilt the scheduled graph from scratch.
    pub graph_rebuilds: usize,
    /// Times the workspace was re-bound to a different context.
    pub rebinds: usize,
    /// Solves aborted because they crossed the configured work budget.
    pub budget_exceeded: usize,
}

/// The (context) inputs the cached state is valid for. Compared by content,
/// so rebuilding an equal context (as the adaptive manager's guard-band
/// path does) keeps the warm state.
#[derive(Debug, Clone)]
struct Bound {
    ctg: Ctg,
    platform: Platform,
}

/// One pooled scheduled graph, keyed by the (assignment, per-PE order, path
/// cap) it was built from — everything
/// [`ScheduledGraph::build_metered`] reads from a schedule apart from the
/// start times, which cannot change its result.
#[derive(Debug, Clone)]
struct GraphEntry {
    /// Fingerprint of the key: a u64 prefilter so pool scans compare one
    /// word per entry instead of the key's vectors. Equality is still
    /// decided by comparing `assignment`, `pe_order` and `path_cap`.
    fp: u64,
    /// Recency stamp (higher = more recently used); the eviction victim is
    /// the minimum. Stamps replace a move-to-back `Vec` discipline whose
    /// `remove`/`push` shuffled these fat entries on every hit.
    stamp: u64,
    assignment: Vec<PeId>,
    pe_order: Vec<Vec<TaskId>>,
    path_cap: usize,
    /// `None` when the path enumeration exceeded the cap — a property of
    /// the key alone, so it is reusable knowledge too.
    graph: Option<ScheduledGraph>,
    /// The probability table the stored graph's path probabilities
    /// currently reflect.
    probs: BranchProbs,
    /// Work units the path enumeration cost when the entry was built — a
    /// pure function of the key (the enumeration repeats step for step),
    /// re-charged on pool hits so warm and cold solves reach the same
    /// budget verdict.
    enum_units: u64,
}

/// Bounded size of the mapping→graph pool. Under drifting estimates DLS
/// oscillates among a small set of distinct mappings (revisiting earlier
/// ones as scenes recur), so keeping the recent graphs — not just the last
/// one — multiplies reuse; each entry holds one enumerated path set, so the
/// pool stays tens of MB at worst. Sized above the ~55-schedule working
/// set of a feature-length MPEG drift run: an LRU scanned by a working set
/// just over its capacity thrashes to ~0 hits.
const GRAPH_POOL_CAP: usize = 64;

/// Pool-scan prefilter: hashes the pool key — the path cap, the assignment
/// and each PE's order. Neither the start times nor the global commit
/// order enter it: schedules that differ only there build the same graph.
/// The full key compare still has the final say on a fingerprint match.
fn graph_fp(schedule: &Schedule, path_cap: usize) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    path_cap.hash(&mut h);
    schedule.assignment.hash(&mut h);
    schedule.pe_order.hash(&mut h);
    h.finish()
}

/// Reusable state for repeated online solves over one (CTG, platform)
/// context: dirty-set static levels and a pool of scheduled graphs keyed
/// on the PE mapping, over the context's compiled adjacency. Every solve
/// returns exactly what a cold solve of the same table would.
///
/// Obtain solutions through
/// [`OnlineScheduler::solve_with_workspace`](crate::OnlineScheduler::solve_with_workspace);
/// the [`AdaptiveScheduler`](crate::AdaptiveScheduler) owns one internally.
/// A workspace may be reused across contexts — it detects the change and
/// starts cold again (counted in [`WorkspaceStats::rebinds`]).
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    bound: Option<Bound>,
    /// Static levels under `sl_probs`, maintained incrementally.
    sl: Vec<f64>,
    sl_probs: Option<BranchProbs>,
    /// Work units the last successful solve cost.
    last_cost: Option<u64>,
    /// Pooled scheduled graphs, recency carried by each entry's stamp.
    graphs: Vec<GraphEntry>,
    /// Monotonic use counter stamping pool entries (unique, so the
    /// minimum-stamp eviction victim is unambiguous).
    graph_clock: u64,
    scratch: StretchScratch,
    stats: WorkspaceStats,
    /// Telemetry handle (disabled by default — recording is then free).
    obs: Obs,
    /// The telemetry track solve-stage events are recorded against.
    obs_track: u32,
    /// Optional per-solve work budget, in solver work units (DLS candidate
    /// evaluations + path-enumeration steps). `None` = unlimited.
    budget: Option<u64>,
}

impl SolverWorkspace {
    /// Creates an empty (cold) workspace.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Work counters accumulated since creation (rebinds do not reset
    /// them).
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Attaches a telemetry handle; solve stages record spans/instants
    /// against `track`. Recording never changes what `solve` returns —
    /// `tests/obs_equivalence.rs` pins the bit-equivalence.
    pub fn set_obs(&mut self, obs: Obs, track: u32) {
        self.obs = obs;
        self.obs_track = track;
    }

    /// Sets (or clears) the per-solve work budget.
    ///
    /// A budgeted solve counts DLS candidate evaluations and
    /// path-enumeration steps; crossing the budget aborts with
    /// [`SchedError::SolveBudgetExceeded`], leaving the warm state intact
    /// (the caller keeps its last adopted solution). Because the charge is
    /// a pure function of `(ctx, probs, cfg)` — warm paths re-charge the
    /// stored cost of the work they skip — the verdict is identical no
    /// matter which warm-start layer answers, and `None` (the default) is
    /// bit-identical to a workspace without budget support.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// The configured per-solve work budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Work units the last successful solve cost, if any — the cost is a
    /// pure function of the problem, so this is useful for calibrating
    /// budgets against a representative solve.
    pub fn last_solve_cost(&self) -> Option<u64> {
        self.last_cost
    }

    /// Records a budget abort in the stats and telemetry, passing the
    /// error through; non-budget errors pass through untouched.
    fn note_budget_abort(&mut self, obs: &Obs, track: u32, e: SchedError) -> SchedError {
        if let SchedError::SolveBudgetExceeded { spent, .. } = e {
            self.stats.budget_exceeded += 1;
            obs.instant(track, Stage::BudgetAbort, spent as i64);
            obs.count(Counter::BudgetExceededSolves, 1);
        }
        e
    }

    /// Solves `ctx` under `probs` with warm-start state, producing the
    /// exact solution (and the exact error, if any) a fresh
    /// [`OnlineScheduler::solve`](crate::OnlineScheduler::solve) with the
    /// same configuration would.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineScheduler::solve`](crate::OnlineScheduler::solve):
    /// mapping infeasibility, unreachable deadlines, invalid
    /// configurations.
    pub fn solve(
        &mut self,
        cfg: &StretchConfig,
        ctx: &SchedContext,
        probs: &BranchProbs,
    ) -> Result<Solution, SchedError> {
        // A clone of the handle (an `Option<Arc>`) so spans can stay open
        // across the `&mut self` body below.
        let obs = self.obs.clone();
        let track = self.obs_track;
        let solve_span = obs.span(track, Stage::Solve);
        obs.count(Counter::SolverCalls, 1);
        self.stats.solves += 1;
        let bound_matches = self
            .bound
            .as_ref()
            .is_some_and(|b| b.ctg == *ctx.ctg() && b.platform == *ctx.platform());
        if !bound_matches {
            if self.bound.is_some() {
                self.stats.rebinds += 1;
            }
            self.bound = Some(Bound {
                ctg: ctx.ctg().clone(),
                platform: ctx.platform().clone(),
            });
            self.sl_probs = None;
            self.last_cost = None;
            self.graphs.clear();
        }

        let mut meter = WorkMeter::from_limit(self.budget);

        // Layer 2: dirty-set static levels (full recompute when cold).
        match self.sl_probs.take() {
            None => {
                static_levels_into(ctx, probs, &mut self.sl);
                self.stats.full_level_rebuilds += 1;
            }
            Some(old) => {
                self.stats.levels_recomputed +=
                    update_static_levels(ctx, &old, probs, &mut self.sl);
                self.stats.dirty_level_updates += 1;
            }
        }
        self.sl_probs = Some(probs.clone());

        // Same pipeline — and the same error order — as the cold solver:
        // DLS, deadline check, config validation, stretch.
        let dls_span = obs.span(track, Stage::DlsMap);
        let schedule = match dls_with_levels_metered(ctx, &self.sl, true, &mut meter) {
            Ok(s) => s,
            Err(e) => return Err(self.note_budget_abort(&obs, track, e)),
        };
        dls_span.end(ctx.ctg().num_tasks() as i64);
        let makespan = schedule.makespan();
        let deadline = ctx.ctg().deadline();
        if makespan > deadline + 1e-9 {
            return Err(SchedError::DeadlineUnreachable { makespan, deadline });
        }
        validate_config(cfg)?;

        // Layer 3: reuse a pooled scheduled graph when DLS returned a
        // mapping (assignment and per-PE order) the pool has seen, whatever
        // its start times and commit order. Topology, delays, conditions
        // and guards are probability-independent; only the path
        // probabilities need re-weighting. A `None` graph is equally
        // reusable: whether the enumeration exceeds the cap depends on
        // (mapping, cap) alone. Entries are unique per (mapping, cap); a
        // hit restamps its entry as the most recently used.
        let fp = graph_fp(&schedule, cfg.path_cap);
        let hit = self.graphs.iter().position(|e| {
            e.fp == fp
                && e.path_cap == cfg.path_cap
                && e.assignment == schedule.assignment
                && e.pe_order == schedule.pe_order
        });
        let via = if hit.is_some() {
            SOLVE_VIA_POOL
        } else {
            SOLVE_VIA_REBUILD
        };
        let speeds = match hit {
            Some(i) => {
                // Re-charge the stored enumeration cost *before* touching
                // the entry: a budget abort must leave the pool intact and
                // land on the same verdict a cold enumeration would (the
                // cost is a pure function of (mapping, cap)).
                if let Err(e) = meter.charge(self.graphs[i].enum_units) {
                    return Err(self.note_budget_abort(&obs, track, e));
                }
                self.stats.graph_reuses += 1;
                obs.instant(track, Stage::PoolHit, 1);
                self.graph_clock += 1;
                let stretch_span = obs.span(track, Stage::Stretch);
                let entry = &mut self.graphs[i];
                entry.stamp = self.graph_clock;
                let speeds = match entry.graph.as_mut() {
                    Some(g) => {
                        if entry.probs != *probs {
                            g.reweight(ctx, probs);
                            entry.probs = probs.clone();
                        }
                        stretch_on_graph(ctx, probs, &schedule, cfg, g, None, &mut self.scratch)
                    }
                    None => critical_path_fallback(ctx, probs, &schedule, cfg),
                };
                stretch_span.end(1);
                speeds
            }
            None => {
                self.stats.graph_rebuilds += 1;
                let enum_span = obs.span(track, Stage::PathEnum);
                let enum_start = meter.spent();
                let built = match ScheduledGraph::build_metered(
                    ctx,
                    &schedule,
                    probs,
                    cfg.path_cap,
                    &mut meter,
                ) {
                    Ok(b) => b,
                    Err(e) => return Err(self.note_budget_abort(&obs, track, e)),
                };
                let enum_units = meter.spent() - enum_start;
                // arg: 1 when the enumeration fit the cap, 0 when it
                // overflowed (and the critical-path fallback runs).
                enum_span.end(i64::from(built.is_some()));
                let stretch_span = obs.span(track, Stage::Stretch);
                let speeds = match &built {
                    Some(g) => {
                        stretch_on_graph(ctx, probs, &schedule, cfg, g, None, &mut self.scratch)
                    }
                    None => critical_path_fallback(ctx, probs, &schedule, cfg),
                };
                stretch_span.end(0);
                if self.graphs.len() == GRAPH_POOL_CAP {
                    let victim = self
                        .graphs
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(i, _)| i)
                        .expect("a full pool has a least-recently-used entry");
                    self.graphs.swap_remove(victim);
                }
                self.graph_clock += 1;
                self.graphs.push(GraphEntry {
                    fp,
                    stamp: self.graph_clock,
                    assignment: schedule.assignment.clone(),
                    pe_order: schedule.pe_order.clone(),
                    path_cap: cfg.path_cap,
                    graph: built,
                    probs: probs.clone(),
                    enum_units,
                });
                speeds
            }
        };

        self.last_cost = Some(meter.spent());
        let dur_ns = solve_span.end(via);
        obs.observe(Hist::SolveUs, dur_ns as f64 / 1e3);
        Ok(Solution { schedule, speeds })
    }
}

/// [`Stage::Solve`] span args: whether the solve rebuilt its scheduled
/// graph or reused a pooled one.
const SOLVE_VIA_REBUILD: i64 = 0;
const SOLVE_VIA_POOL: i64 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineScheduler;
    use crate::test_util::example1_context;

    fn assert_bit_identical(a: &Solution, b: &Solution, ctx: &SchedContext) {
        assert_eq!(a.schedule, b.schedule);
        for t in ctx.ctg().tasks() {
            assert_eq!(
                a.speeds.speed(t).to_bits(),
                b.speeds.speed(t).to_bits(),
                "speed of {t} diverged"
            );
        }
    }

    #[test]
    fn warm_solves_match_cold_over_a_drift_sequence() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, t3, _, _, t5, ..] = ids;
        let scheduler = OnlineScheduler::new();
        let mut ws = SolverWorkspace::new();
        let tables: Vec<BranchProbs> = [
            vec![0.5, 0.5],
            vec![0.6, 0.4],
            vec![0.6, 0.4], // exact repeat → pool hit
            vec![0.62, 0.38],
            vec![0.2, 0.8],
            vec![0.5, 0.5],
        ]
        .into_iter()
        .map(|d| {
            let mut p = probs.clone();
            p.set(t3, d.clone()).unwrap();
            p.set(t5, d).unwrap();
            p
        })
        .collect();
        for p in &tables {
            let cold = scheduler.solve(&ctx, p).unwrap();
            let warm = scheduler.solve_with_workspace(&ctx, p, &mut ws).unwrap();
            assert_bit_identical(&cold, &warm, &ctx);
        }
        let stats = ws.stats();
        assert_eq!(stats.solves, tables.len());
        assert_eq!(stats.full_level_rebuilds, 1);
        assert_eq!(stats.graph_reuses + stats.graph_rebuilds, stats.solves);
        assert!(stats.graph_reuses >= 1, "{stats:?}");
    }

    #[test]
    fn rebind_to_a_different_context_starts_cold() {
        let (ctx, probs, _) = example1_context();
        let scheduler = OnlineScheduler::new();
        let mut ws = SolverWorkspace::new();
        scheduler
            .solve_with_workspace(&ctx, &probs, &mut ws)
            .unwrap();
        // Same structure, different deadline → different context.
        let ctx2 = SchedContext::new(
            ctx.ctg().with_deadline(ctx.ctg().deadline() * 2.0),
            ctx.platform().clone(),
        )
        .unwrap();
        let warm = scheduler
            .solve_with_workspace(&ctx2, &probs, &mut ws)
            .unwrap();
        let cold = scheduler.solve(&ctx2, &probs).unwrap();
        assert_bit_identical(&cold, &warm, &ctx2);
        assert_eq!(ws.stats().rebinds, 1);
        assert_eq!(ws.stats().full_level_rebuilds, 2);
        // A content-equal rebuild of the same context keeps the warm state.
        let ctx2_again = SchedContext::new(ctx2.ctg().clone(), ctx2.platform().clone()).unwrap();
        scheduler
            .solve_with_workspace(&ctx2_again, &probs, &mut ws)
            .unwrap();
        assert_eq!(ws.stats().rebinds, 1);
        assert_eq!(ws.stats().full_level_rebuilds, 2);
        assert_eq!(ws.stats().graph_reuses, 1);
    }

    #[test]
    fn budget_aborts_match_cold_verdicts_and_keep_warm_state() {
        let (ctx, probs, _) = example1_context();
        let scheduler = OnlineScheduler::new();
        let mut ws = SolverWorkspace::new();
        let sol = scheduler
            .solve_with_workspace(&ctx, &probs, &mut ws)
            .unwrap();
        let cost = ws.last_solve_cost().unwrap();
        assert!(cost > 0);

        // An exactly-affordable budget succeeds, bit-identically.
        let mut exact = SolverWorkspace::new();
        exact.set_budget(Some(cost));
        let cold_ok = scheduler
            .solve_with_workspace(&ctx, &probs, &mut exact)
            .unwrap();
        assert_bit_identical(&sol, &cold_ok, &ctx);
        assert_eq!(exact.stats().budget_exceeded, 0);

        // One unit short: a cold solve and a warm repeat abort with the
        // identical error (cold crosses on a 1-unit charge at
        // spent == cost; the repeat's graph-pool re-charge lands on the
        // same total).
        let mut short = SolverWorkspace::new();
        short.set_budget(Some(cost - 1));
        let cold_err = scheduler.solve_with_workspace(&ctx, &probs, &mut short);
        ws.set_budget(Some(cost - 1));
        let warm_err = scheduler.solve_with_workspace(&ctx, &probs, &mut ws);
        assert_eq!(cold_err, warm_err);
        assert!(matches!(
            cold_err,
            Err(SchedError::SolveBudgetExceeded { .. })
        ));
        assert_eq!(ws.stats().budget_exceeded, 1);

        // The abort left the warm state intact: lifting the budget
        // re-solves the same table bit-identically.
        ws.set_budget(None);
        let after = scheduler
            .solve_with_workspace(&ctx, &probs, &mut ws)
            .unwrap();
        assert_bit_identical(&sol, &after, &ctx);
    }

    #[test]
    fn pool_hits_recharge_enumeration_cost() {
        // Solve a, then b, then a again: the third solve answers from the
        // graph pool. Its budget verdict must match a cold solve of a at
        // the same budget, because the pooled enumeration cost is
        // re-charged.
        let (ctx, probs, ids) = example1_context();
        let [_, _, t3, _, _, t5, ..] = ids;
        let scheduler = OnlineScheduler::new();
        let table = |d: Vec<f64>| {
            let mut p = probs.clone();
            p.set(t3, d.clone()).unwrap();
            p.set(t5, d).unwrap();
            p
        };
        let a = table(vec![0.7, 0.3]);
        let b = table(vec![0.3, 0.7]);

        let mut probe = SolverWorkspace::new();
        scheduler
            .solve_with_workspace(&ctx, &a, &mut probe)
            .unwrap();
        let cost_a = probe.last_solve_cost().unwrap();

        let mut ws = SolverWorkspace::new();
        scheduler.solve_with_workspace(&ctx, &a, &mut ws).unwrap();
        scheduler.solve_with_workspace(&ctx, &b, &mut ws).unwrap();
        ws.set_budget(Some(cost_a - 1));
        let reuses_before = ws.stats().graph_reuses;
        let warm = scheduler.solve_with_workspace(&ctx, &a, &mut ws);

        let mut cold_ws = SolverWorkspace::new();
        cold_ws.set_budget(Some(cost_a - 1));
        let cold = scheduler.solve_with_workspace(&ctx, &a, &mut cold_ws);
        assert_eq!(warm, cold);
        assert!(matches!(warm, Err(SchedError::SolveBudgetExceeded { .. })));
        // The abort must not have consumed (or evicted) the pool entry.
        assert_eq!(ws.stats().graph_reuses, reuses_before);
        ws.set_budget(Some(cost_a));
        let ok = scheduler.solve_with_workspace(&ctx, &a, &mut ws).unwrap();
        assert_eq!(ws.stats().graph_reuses, reuses_before + 1);
        let cold_ok = scheduler.solve(&ctx, &a).unwrap();
        assert_bit_identical(&cold_ok, &ok, &ctx);
    }

    #[test]
    fn errors_match_the_cold_solver() {
        let (ctx, probs, _) = example1_context();
        // A deadline below the best makespan: both paths must return the
        // same DeadlineUnreachable.
        let tight =
            SchedContext::new(ctx.ctg().with_deadline(1e-3), ctx.platform().clone()).unwrap();
        let scheduler = OnlineScheduler::new();
        let mut ws = SolverWorkspace::new();
        let cold = scheduler.solve(&tight, &probs);
        let warm = scheduler.solve_with_workspace(&tight, &probs, &mut ws);
        assert_eq!(cold, warm);
        assert!(cold.is_err());
    }
}
