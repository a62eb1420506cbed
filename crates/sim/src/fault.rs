//! Deterministic runtime fault injection (robustness extension).
//!
//! The paper's execution model is fault-free: every activated task finishes
//! exactly at its scaled WCET, every DVFS request is honoured, and every
//! inter-PE transfer takes exactly `volume / bandwidth`. A production
//! scheduler meets none of these guarantees, so this module injects the four
//! deviations that break DVFS deadline reasoning in practice:
//!
//! * **execution-time overruns** — an activated task takes longer than its
//!   scaled WCET by a factor (mis-profiled WCET, cache interference);
//! * **transient PE stalls** — a PE refuses to dispatch during a time window
//!   (DMA contention, thermal throttling, interrupt storms);
//! * **DVFS switch denials** — a requested speed ratio is unavailable and
//!   the governor snaps to the nearest legal ratio of a coarser legal set;
//! * **message retransmits** — an inter-PE transfer is retransmitted,
//!   multiplying its communication delay.
//!
//! Everything is driven by a [`FaultPlan`]: a seed plus per-kind rates and
//! severities. Fault decisions for instance *i* come from an [`FaultInjector`]
//! whose stream is derived as `SplitMix64::mix(plan.seed, i)`, so runs are
//! **fully deterministic** given the plan — two simulations of the same
//! instance under the same plan produce bit-identical results — and instances
//! are statistically independent of each other.
//!
//! Faults in real systems cluster (thermal events, interference storms), so
//! a plan can additionally carry a [`BurstModel`]: a two-state
//! Gilbert–Elliott modulator whose *bad* state multiplies every rate. The
//! burst chain draws from its own salted seed stream — one transition draw
//! per instance index, independent of the per-instance fault draws — so the
//! state of instance *i* is a pure function of `(plan.seed, i)` and burst
//! plans stay exactly as deterministic as plain ones.
//!
//! With every rate at zero, [`simulate_instance_faulty`] reproduces
//! [`simulate_instance`](crate::simulate_instance) **bit-for-bit**: the
//! fault-free arithmetic path is byte-identical, faults only ever add terms.

use crate::instance::{InstanceOutcome, InstanceResult, SimWorkspace};
use ctg_model::{DecisionVector, TaskId};
use ctg_rng::{Rng64, SplitMix64};
use ctg_sched::{SchedContext, SchedError, Solution};
use mpsoc_platform::PeId;

/// Seed-driven fault model: rates (per opportunity) and severities.
///
/// A *rate* is the probability that the fault fires at each opportunity:
/// per activated task for overruns and denials, per PE per instance for
/// stalls, per executed cross-PE transfer for retransmits. The default plan
/// injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed; instance `i` draws from the sub-stream `mix(seed, i)`.
    pub seed: u64,
    /// Probability that an activated task overruns its scaled WCET.
    pub overrun_rate: f64,
    /// Overrun severity: actual duration = scaled duration × this (≥ 1).
    pub overrun_factor: f64,
    /// Probability that a PE stalls once during the instance.
    pub stall_rate: f64,
    /// Length of a stall window (dispatch blocked; running tasks finish).
    pub stall_time: f64,
    /// Probability that a task's DVFS request is denied.
    pub dvfs_denial_rate: f64,
    /// Legal ratios the governor falls back to on denial (nearest wins).
    /// Must be non-empty, sorted ascending, within `(0, 1]`.
    pub dvfs_levels: Vec<f64>,
    /// Probability that an executed cross-PE transfer is retransmitted.
    pub retransmit_rate: f64,
    /// Retransmit severity: communication delay × this (≥ 1).
    pub retransmit_factor: f64,
    /// Optional Gilbert–Elliott burst modulator over all four rates.
    /// `None` leaves the plan bit-identical to a plan without burst
    /// support.
    pub burst: Option<BurstModel>,
}

/// Two-state Gilbert–Elliott burst modulator.
///
/// The chain starts in the *good* state at instance 0 and makes one
/// transition draw per instance: from good it turns bad with probability
/// `p_enter`, from bad it recovers with probability `p_exit`. While bad,
/// every fault rate of the plan is multiplied by `rate_multiplier`
/// (clamped to 1), producing correlated fault bursts whose expected length
/// is `1 / p_exit` instances.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstModel {
    /// Per-instance probability of entering the bursty state.
    pub p_enter: f64,
    /// Per-instance probability of leaving the bursty state.
    pub p_exit: f64,
    /// Multiplier applied to every fault rate while bursty (≥ 1; the
    /// boosted rates are clamped to 1).
    pub rate_multiplier: f64,
}

/// Salt separating the burst chain's seed stream from the per-instance
/// fault streams, so adding a burst model never perturbs the non-burst
/// draws of the same plan seed.
const BURST_SALT: u64 = 0x6269_7473_7572_6221;

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none(0)
    }
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            overrun_rate: 0.0,
            overrun_factor: 1.5,
            stall_rate: 0.0,
            stall_time: 1.0,
            dvfs_denial_rate: 0.0,
            dvfs_levels: vec![0.25, 0.5, 0.75, 1.0],
            retransmit_rate: 0.0,
            retransmit_factor: 2.0,
            burst: None,
        }
    }

    /// A plan firing every fault kind at `rate` with moderate severities.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            overrun_rate: rate,
            stall_rate: rate,
            dvfs_denial_rate: rate,
            retransmit_rate: rate,
            ..FaultPlan::none(seed)
        }
    }

    /// Whether the plan can ever fire a fault.
    pub fn is_none(&self) -> bool {
        self.overrun_rate == 0.0
            && self.stall_rate == 0.0
            && self.dvfs_denial_rate == 0.0
            && self.retransmit_rate == 0.0
    }

    fn validate(&self) -> Result<(), SchedError> {
        let rate_ok = |r: f64| (0.0..=1.0).contains(&r);
        if !(rate_ok(self.overrun_rate)
            && rate_ok(self.stall_rate)
            && rate_ok(self.dvfs_denial_rate)
            && rate_ok(self.retransmit_rate))
        {
            return Err(SchedError::InvalidParameter(
                "fault rates must lie in [0, 1]",
            ));
        }
        if !(self.overrun_factor >= 1.0 && self.overrun_factor.is_finite()) {
            return Err(SchedError::InvalidParameter("overrun factor must be ≥ 1"));
        }
        if !(self.retransmit_factor >= 1.0 && self.retransmit_factor.is_finite()) {
            return Err(SchedError::InvalidParameter(
                "retransmit factor must be ≥ 1",
            ));
        }
        if !(self.stall_time >= 0.0 && self.stall_time.is_finite()) {
            return Err(SchedError::InvalidParameter("stall time must be ≥ 0"));
        }
        if self.dvfs_denial_rate > 0.0
            && (self.dvfs_levels.is_empty()
                || self.dvfs_levels.iter().any(|&l| !(l > 0.0 && l <= 1.0)))
        {
            return Err(SchedError::InvalidParameter(
                "denial levels must be non-empty ratios in (0, 1]",
            ));
        }
        if let Some(b) = &self.burst {
            if !(rate_ok(b.p_enter) && rate_ok(b.p_exit)) {
                return Err(SchedError::InvalidParameter(
                    "burst transition probabilities must lie in [0, 1]",
                ));
            }
            if !(b.rate_multiplier >= 1.0 && b.rate_multiplier.is_finite()) {
                return Err(SchedError::InvalidParameter(
                    "burst rate multiplier must be ≥ 1",
                ));
            }
        }
        Ok(())
    }
}

/// One fault that actually fired during an instance.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A task ran `factor`× longer than its scaled WCET.
    Overrun {
        /// The overrunning task.
        task: TaskId,
        /// Applied duration multiplier.
        factor: f64,
    },
    /// A PE refused to dispatch during `[from, until)`.
    Stall {
        /// The stalled PE.
        pe: PeId,
        /// Window start.
        from: f64,
        /// Window end.
        until: f64,
    },
    /// A DVFS request was denied and snapped to a legal ratio.
    DvfsDenial {
        /// The affected task.
        task: TaskId,
        /// The ratio the solution asked for.
        requested: f64,
        /// The ratio the governor granted.
        granted: f64,
    },
    /// A cross-PE transfer was retransmitted.
    Retransmit {
        /// Transfer source task.
        src: TaskId,
        /// Transfer destination task.
        dst: TaskId,
        /// Applied delay multiplier.
        factor: f64,
    },
}

/// Aggregate fault counters, embeddable in run summaries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Execution-time overruns that fired.
    pub overruns: usize,
    /// PE stall windows that delayed at least one task.
    pub stalls: usize,
    /// DVFS denials applied to executed tasks.
    pub denials: usize,
    /// Transfers that were retransmitted.
    pub retransmits: usize,
    /// Total extra delay induced on task start/finish times.
    pub extra_time: f64,
    /// Total extra energy charged relative to the fault-free execution.
    pub extra_energy: f64,
}

impl FaultStats {
    /// Folds another accumulator into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.overruns += other.overruns;
        self.stalls += other.stalls;
        self.denials += other.denials;
        self.retransmits += other.retransmits;
        self.extra_time += other.extra_time;
        self.extra_energy += other.extra_energy;
    }

    /// Faults of any kind that fired.
    pub fn total(&self) -> usize {
        self.overruns + self.stalls + self.denials + self.retransmits
    }
}

/// Record of the faults that fired during one instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultLog {
    /// Aggregate counters.
    pub stats: FaultStats,
    /// Every fault that affected the execution, in dispatch order.
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Resets the log for reuse, keeping the event buffer's allocation.
    pub fn clear(&mut self) {
        self.stats = FaultStats::default();
        self.events.clear();
    }

    fn record(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Overrun { .. } => self.stats.overruns += 1,
            FaultEvent::Stall { .. } => self.stats.stalls += 1,
            FaultEvent::DvfsDenial { .. } => self.stats.denials += 1,
            FaultEvent::Retransmit { .. } => self.stats.retransmits += 1,
        }
        self.events.push(event);
    }
}

/// Pre-sampled fault decisions for one instance.
///
/// All randomness is drawn up-front in a fixed order (tasks, PEs, tasks,
/// edges), so the decisions depend only on `(plan.seed, instance)` — never
/// on the decision vector or the traversal order of the simulator.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Duration multiplier per task (1.0 = no overrun).
    overrun: Vec<f64>,
    /// Stall window per PE.
    stall: Vec<Option<(f64, f64)>>,
    /// Whether each task's DVFS request is denied (snapped at dispatch).
    denial: Vec<bool>,
    /// The legal ratios a denied request snaps to: the sampled plan's
    /// [`FaultPlan::dvfs_levels`].
    levels: Vec<f64>,
    /// Delay multiplier per CTG edge index (1.0 = no retransmit).
    retransmit: Vec<f64>,
    /// Burst-chain cursor: `burst_bad` is the chain state of instance
    /// `burst_pos`. Purely a walk cache — the state of any instance is a
    /// pure function of `(plan.seed, instance)`, the cursor just makes
    /// sequential resampling O(1) per instance.
    burst_pos: u64,
    burst_bad: bool,
}

impl FaultInjector {
    /// An injector with no decisions yet, with buffers right-sized for
    /// `ctx`. Call [`FaultInjector::resample`] before simulating.
    pub fn empty(ctx: &SchedContext) -> Self {
        FaultInjector {
            overrun: Vec::with_capacity(ctx.ctg().num_tasks()),
            stall: Vec::with_capacity(ctx.platform().num_pes()),
            denial: Vec::with_capacity(ctx.ctg().num_tasks()),
            levels: Vec::new(),
            retransmit: Vec::with_capacity(ctx.ctg().num_edges()),
            burst_pos: 0,
            burst_bad: false,
        }
    }

    /// Walks the Gilbert–Elliott chain to `instance` and returns its state.
    ///
    /// Each step draws from its own salted sub-stream
    /// (`mix(seed ^ BURST_SALT, step)`), so the state of instance `i` is a
    /// pure function of `(seed, i)`: out-of-order access restarts the walk
    /// from instance 0 and lands on the identical state.
    fn burst_state(&mut self, seed: u64, model: &BurstModel, instance: u64) -> bool {
        if instance < self.burst_pos {
            self.burst_pos = 0;
            self.burst_bad = false;
        }
        while self.burst_pos < instance {
            let mut rng = Rng64::seed_from_u64(SplitMix64::mix(seed ^ BURST_SALT, self.burst_pos));
            let flip = if self.burst_bad {
                model.p_exit
            } else {
                model.p_enter
            };
            if rng.gen_bool(flip) {
                self.burst_bad = !self.burst_bad;
            }
            self.burst_pos += 1;
        }
        self.burst_bad
    }

    /// Samples the fault decisions for `instance` under `plan`.
    ///
    /// # Errors
    ///
    /// Rejects plans with out-of-range rates or severities.
    pub fn for_instance(
        plan: &FaultPlan,
        ctx: &SchedContext,
        instance: u64,
    ) -> Result<Self, SchedError> {
        let mut injector = FaultInjector::empty(ctx);
        injector.resample(plan, ctx, instance)?;
        Ok(injector)
    }

    /// Re-draws the decisions for `instance` under `plan` in place, reusing
    /// the buffers. The draw order is fixed (tasks, PEs, tasks, edges), so
    /// the decisions equal [`FaultInjector::for_instance`]'s exactly.
    ///
    /// # Errors
    ///
    /// Rejects plans with out-of-range rates or severities.
    pub fn resample(
        &mut self,
        plan: &FaultPlan,
        ctx: &SchedContext,
        instance: u64,
    ) -> Result<(), SchedError> {
        plan.validate()?;
        // Gilbert–Elliott burst modulation: the bad state multiplies every
        // rate (clamped to 1). A `None` model or the good state leaves each
        // rate bit-untouched, so non-burst plans draw exactly as before.
        let multiplier = match &plan.burst {
            Some(m) if self.burst_state(plan.seed, m, instance) => m.rate_multiplier,
            _ => 1.0,
        };
        let rate = |r: f64| {
            if multiplier == 1.0 {
                r
            } else {
                (r * multiplier).min(1.0)
            }
        };
        let mut rng = Rng64::seed_from_u64(SplitMix64::mix(plan.seed, instance));
        let n = ctx.ctg().num_tasks();
        let horizon = ctx.ctg().deadline().max(0.0);

        self.overrun.clear();
        self.overrun.extend((0..n).map(|_| {
            if rng.gen_bool(rate(plan.overrun_rate)) {
                plan.overrun_factor
            } else {
                1.0
            }
        }));
        self.stall.clear();
        self.stall.extend((0..ctx.platform().num_pes()).map(|_| {
            if rng.gen_bool(rate(plan.stall_rate)) {
                let from = if horizon > 0.0 {
                    rng.gen_range(0.0..horizon)
                } else {
                    0.0
                };
                Some((from, from + plan.stall_time))
            } else {
                None
            }
        }));
        self.denial.clear();
        self.denial
            .extend((0..n).map(|_| rng.gen_bool(rate(plan.dvfs_denial_rate))));
        self.levels.clear();
        self.levels.extend_from_slice(&plan.dvfs_levels);
        self.retransmit.clear();
        self.retransmit.extend((0..ctx.ctg().num_edges()).map(|_| {
            if rng.gen_bool(rate(plan.retransmit_rate)) {
                plan.retransmit_factor
            } else {
                1.0
            }
        }));
        Ok(())
    }

    /// Nearest legal ratio to `requested` from `levels`.
    fn snap(levels: &[f64], requested: f64) -> f64 {
        let mut best = levels[0];
        for &l in levels {
            if (l - requested).abs() < (best - requested).abs() {
                best = l;
            }
        }
        best
    }
}

/// Executes one instance under a fault plan.
///
/// Semantics are those of [`simulate_instance`](crate::simulate_instance)
/// with four deviations, applied in dispatch order:
///
/// * a task whose DVFS request is denied runs at the nearest ratio from
///   `plan.dvfs_levels` instead of its (quantized) locked speed, paying that
///   ratio's time and energy;
/// * a task that overruns takes `overrun_factor`× its (possibly denied)
///   duration and consumes proportionally more energy (same speed, more
///   cycles);
/// * a task whose start falls inside its PE's stall window is deferred to
///   the window's end (already-running tasks are unaffected);
/// * a retransmitted transfer's communication delay is multiplied (the
///   transfer energy is charged per retransmission as well).
///
/// With all rates zero the result equals `simulate_instance` bit-for-bit.
///
/// # Errors
///
/// Returns [`SchedError::VectorArity`] on a wrong-size vector and
/// [`SchedError::InvalidParameter`] for an invalid plan.
pub fn simulate_instance_faulty(
    ctx: &SchedContext,
    solution: &Solution,
    vector: &DecisionVector,
    plan: &FaultPlan,
    instance: u64,
) -> Result<(InstanceResult, FaultLog), SchedError> {
    let injector = FaultInjector::for_instance(plan, ctx, instance)?;
    let mut ws = SimWorkspace::new(ctx, solution);
    let mut log = FaultLog::default();
    let out = ws.simulate_faulty(ctx, solution, vector, &injector, &mut log)?;
    Ok((ws.result_from(out), log))
}

impl SimWorkspace {
    /// Executes one instance under pre-sampled fault decisions, reusing the
    /// workspace buffers; `log` is cleared first and refilled (its event
    /// buffer's allocation is kept across calls).
    ///
    /// Semantics and arithmetic equal
    /// [`simulate_instance_faulty`]'s bit-for-bit under the plan the
    /// injector was last (re-)sampled with: the injector carries every
    /// decision, including the plan's DVFS denial levels.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] on a wrong-size vector.
    pub fn simulate_faulty(
        &mut self,
        ctx: &SchedContext,
        solution: &Solution,
        vector: &DecisionVector,
        injector: &FaultInjector,
        log: &mut FaultLog,
    ) -> Result<InstanceOutcome, SchedError> {
        let ctg = ctx.ctg();
        if vector.len() != ctg.num_branches() {
            return Err(SchedError::VectorArity {
                expected: ctg.num_branches(),
                got: vector.len(),
            });
        }
        let platform = ctx.platform();
        let profile = platform.profile();
        let comm = platform.comm();
        let schedule = &solution.schedule;
        let speeds = &solution.speeds;
        let n = ctg.num_tasks();
        log.clear();

        vector.active_tasks_into(ctg, ctx.activation(), &mut self.active);
        self.task_times.clear();
        self.task_times.resize(n, None);
        self.stall_hit.clear();
        self.stall_hit.resize(platform.num_pes(), false);

        let mut exec_energy = 0.0;
        let mut makespan: f64 = 0.0;
        for &t in &self.order {
            if !self.active[t.index()] {
                continue;
            }
            let pe = schedule.pe_of(t);
            let mut start: f64 = 0.0;
            for &(p, kbytes, edge_idx) in &self.preds[t.index()] {
                if !self.active[p.index()] {
                    continue;
                }
                let (_, p_finish) = self.task_times[p.index()]
                    .expect("constraint order processes predecessors first");
                let mut delay = comm.delay(schedule.pe_of(p), pe, kbytes);
                if let Some(idx) = edge_idx {
                    let factor = injector.retransmit[idx];
                    if factor != 1.0 && delay > 0.0 {
                        log.record(FaultEvent::Retransmit {
                            src: p,
                            dst: t,
                            factor,
                        });
                        log.stats.extra_time += delay * (factor - 1.0);
                        // Each retransmission re-pays the transfer energy.
                        log.stats.extra_energy +=
                            comm.energy(schedule.pe_of(p), pe, kbytes) * (factor - 1.0);
                        delay *= factor;
                    }
                }
                start = start.max(p_finish + delay);
            }
            // Transient PE stall: dispatch inside the window is deferred.
            if let Some((from, until)) = injector.stall[pe.index()] {
                if start >= from && start < until {
                    if !self.stall_hit[pe.index()] {
                        self.stall_hit[pe.index()] = true;
                        log.record(FaultEvent::Stall { pe, from, until });
                    }
                    log.stats.extra_time += until - start;
                    start = until;
                }
            }
            // Fault-free duration/energy, exactly as `simulate_instance`.
            let mut duration = platform.exec_time(t.index(), pe, speeds.speed(t));
            let mut energy = platform.exec_energy(t.index(), pe, speeds.speed(t));
            // DVFS denial: governor snaps to the nearest coarse legal ratio,
            // bypassing the platform's own quantization.
            if injector.denial[t.index()] {
                let requested = speeds.speed(t);
                let granted = FaultInjector::snap(&injector.levels, requested);
                if (granted - requested).abs() > 1e-12 {
                    let d2 = profile.wcet(t.index(), pe) / granted;
                    let e2 = profile.energy(t.index(), pe) * granted * granted;
                    log.record(FaultEvent::DvfsDenial {
                        task: t,
                        requested,
                        granted,
                    });
                    log.stats.extra_time += d2 - duration;
                    log.stats.extra_energy += e2 - energy;
                    duration = d2;
                    energy = e2;
                }
            }
            // Execution-time overrun: same speed, more cycles — time and
            // energy scale together.
            let factor = injector.overrun[t.index()];
            if factor != 1.0 {
                log.record(FaultEvent::Overrun { task: t, factor });
                log.stats.extra_time += duration * (factor - 1.0);
                log.stats.extra_energy += energy * (factor - 1.0);
                duration *= factor;
                energy *= factor;
            }
            let finish = start + duration;
            self.task_times[t.index()] = Some((start, finish));
            exec_energy += energy;
            makespan = makespan.max(finish);
        }
        // Communication energy of transfers that actually happened, each
        // charged once per (re-)transmission.
        let mut comm_energy = 0.0;
        for (idx, (_, e)) in ctg.edges().enumerate() {
            if self.active[e.src().index()] && self.active[e.dst().index()] {
                let base = comm.energy(
                    schedule.pe_of(e.src()),
                    schedule.pe_of(e.dst()),
                    e.comm_kbytes(),
                );
                comm_energy += base;
                let factor = injector.retransmit[idx];
                let delay = comm.delay(
                    schedule.pe_of(e.src()),
                    schedule.pe_of(e.dst()),
                    e.comm_kbytes(),
                );
                if factor != 1.0 && delay > 0.0 {
                    comm_energy += base * (factor - 1.0);
                }
            }
        }

        Ok(InstanceOutcome {
            energy: exec_energy + comm_energy,
            exec_energy,
            comm_energy,
            makespan,
            deadline_met: makespan <= ctg.deadline() + 1e-9,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::simulate_instance;
    use ctg_model::BranchProbs;
    use ctg_sched::test_util::{example1_ctg, uniform_platform};
    use ctg_sched::{OnlineScheduler, SchedContext};

    fn setup(deadline: f64) -> (SchedContext, Solution) {
        let (ctg, _) = example1_ctg(deadline);
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        (ctx, solution)
    }

    fn all_vectors() -> Vec<DecisionVector> {
        (0..2u8)
            .flat_map(|a| (0..2u8).map(move |b| DecisionVector::new(vec![a, b])))
            .collect()
    }

    #[test]
    fn zero_rates_reproduce_plain_simulation_bitwise() {
        let (ctx, solution) = setup(60.0);
        let plan = FaultPlan::none(42);
        for (i, v) in all_vectors().iter().enumerate() {
            let plain = simulate_instance(&ctx, &solution, v).unwrap();
            let (faulty, log) =
                simulate_instance_faulty(&ctx, &solution, v, &plan, i as u64).unwrap();
            assert_eq!(plain.energy.to_bits(), faulty.energy.to_bits());
            assert_eq!(plain.makespan.to_bits(), faulty.makespan.to_bits());
            assert_eq!(plain.task_times, faulty.task_times);
            assert_eq!(plain, faulty);
            assert!(log.events.is_empty());
            assert_eq!(log.stats.total(), 0);
        }
    }

    #[test]
    fn same_seed_same_instance_is_deterministic() {
        let (ctx, solution) = setup(60.0);
        let plan = FaultPlan::uniform(7, 0.5);
        let v = DecisionVector::new(vec![0, 1]);
        let (r1, l1) = simulate_instance_faulty(&ctx, &solution, &v, &plan, 3).unwrap();
        let (r2, l2) = simulate_instance_faulty(&ctx, &solution, &v, &plan, 3).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn different_instances_draw_different_faults() {
        let (ctx, solution) = setup(60.0);
        let plan = FaultPlan::uniform(7, 0.5);
        let v = DecisionVector::new(vec![0, 1]);
        let logs: Vec<FaultLog> = (0..16)
            .map(|i| {
                simulate_instance_faulty(&ctx, &solution, &v, &plan, i)
                    .unwrap()
                    .1
            })
            .collect();
        assert!(
            logs.iter().any(|l| l != &logs[0]),
            "16 instances at 50% rates should not all fault identically"
        );
    }

    #[test]
    fn overruns_extend_makespan_and_energy() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![0, 0]);
        let plain = simulate_instance(&ctx, &solution, &v).unwrap();
        let plan = FaultPlan {
            overrun_rate: 1.0,
            overrun_factor: 2.0,
            ..FaultPlan::none(1)
        };
        let (faulty, log) = simulate_instance_faulty(&ctx, &solution, &v, &plan, 0).unwrap();
        assert_eq!(log.stats.overruns, faulty.active_count());
        assert!(faulty.makespan > plain.makespan);
        assert!(faulty.energy > plain.energy);
        assert!((faulty.energy - plain.energy - log.stats.extra_energy).abs() < 1e-9);
    }

    #[test]
    fn stall_defers_dispatch() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![0, 0]);
        let plain = simulate_instance(&ctx, &solution, &v).unwrap();
        let plan = FaultPlan {
            stall_rate: 1.0,
            stall_time: 5.0,
            ..FaultPlan::none(9)
        };
        let (faulty, log) = simulate_instance_faulty(&ctx, &solution, &v, &plan, 0).unwrap();
        // Stall windows land inside [0, deadline); with rate 1 on every PE
        // at least one dispatch is usually deferred. The makespan never
        // shrinks in any case.
        assert!(faulty.makespan + 1e-9 >= plain.makespan);
        if log.stats.stalls > 0 {
            assert!(log.stats.extra_time > 0.0);
        }
    }

    #[test]
    fn denial_snaps_to_plan_levels() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![1, 1]);
        let plan = FaultPlan {
            dvfs_denial_rate: 1.0,
            dvfs_levels: vec![1.0], // governor stuck at max speed
            ..FaultPlan::none(5)
        };
        let (faulty, log) = simulate_instance_faulty(&ctx, &solution, &v, &plan, 0).unwrap();
        // All-max-speed can only shorten the makespan but raises energy for
        // every task that had been slowed down.
        let plain = simulate_instance(&ctx, &solution, &v).unwrap();
        assert!(faulty.makespan <= plain.makespan + 1e-9);
        assert!(log.stats.denials > 0);
        assert!(faulty.energy > plain.energy);
        for e in &log.events {
            if let FaultEvent::DvfsDenial { granted, .. } = e {
                assert_eq!(*granted, 1.0);
            }
        }
    }

    #[test]
    fn workspace_denials_snap_to_the_resampled_plans_levels() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![1, 1]);
        let mut ws = SimWorkspace::new(&ctx, &solution);
        let mut injector = FaultInjector::empty(&ctx);
        let mut log = FaultLog::default();
        for levels in [vec![1.0], vec![0.5], vec![0.3, 0.9]] {
            let plan = FaultPlan {
                dvfs_denial_rate: 1.0,
                dvfs_levels: levels.clone(),
                ..FaultPlan::none(5)
            };
            injector.resample(&plan, &ctx, 0).unwrap();
            ws.simulate_faulty(&ctx, &solution, &v, &injector, &mut log)
                .unwrap();
            assert!(log.stats.denials > 0, "levels {levels:?}");
            for e in &log.events {
                if let FaultEvent::DvfsDenial { granted, .. } = e {
                    assert!(levels.contains(granted), "{granted} not in {levels:?}");
                }
            }
            let (_, one_shot) = simulate_instance_faulty(&ctx, &solution, &v, &plan, 0).unwrap();
            assert_eq!(one_shot, log);
        }
    }

    #[test]
    fn retransmits_charge_delay_and_energy() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![0, 0]);
        let plain = simulate_instance(&ctx, &solution, &v).unwrap();
        let plan = FaultPlan {
            retransmit_rate: 1.0,
            retransmit_factor: 3.0,
            ..FaultPlan::none(11)
        };
        let (faulty, log) = simulate_instance_faulty(&ctx, &solution, &v, &plan, 0).unwrap();
        if log.stats.retransmits > 0 {
            assert!(faulty.makespan >= plain.makespan);
            assert!(faulty.comm_energy > plain.comm_energy);
        } else {
            // All transfers were intra-PE; nothing to retransmit.
            assert_eq!(plain, faulty);
        }
    }

    #[test]
    fn invalid_plans_rejected() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![0, 0]);
        let bad_rate = FaultPlan {
            overrun_rate: 1.5,
            ..FaultPlan::none(0)
        };
        assert!(simulate_instance_faulty(&ctx, &solution, &v, &bad_rate, 0).is_err());
        let bad_factor = FaultPlan {
            overrun_rate: 0.5,
            overrun_factor: 0.5,
            ..FaultPlan::none(0)
        };
        assert!(simulate_instance_faulty(&ctx, &solution, &v, &bad_factor, 0).is_err());
        let bad_levels = FaultPlan {
            dvfs_denial_rate: 0.5,
            dvfs_levels: vec![],
            ..FaultPlan::none(0)
        };
        assert!(simulate_instance_faulty(&ctx, &solution, &v, &bad_levels, 0).is_err());
    }

    #[test]
    fn burst_that_never_enters_is_bit_identical_to_no_burst() {
        let (ctx, solution) = setup(60.0);
        let base = FaultPlan::uniform(7, 0.3);
        let dormant = FaultPlan {
            burst: Some(BurstModel {
                p_enter: 0.0,
                p_exit: 0.5,
                rate_multiplier: 8.0,
            }),
            ..base.clone()
        };
        let v = DecisionVector::new(vec![0, 1]);
        for i in 0..16u64 {
            let (a, la) = simulate_instance_faulty(&ctx, &solution, &v, &base, i).unwrap();
            let (b, lb) = simulate_instance_faulty(&ctx, &solution, &v, &dormant, i).unwrap();
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn burst_raises_fault_pressure_deterministically() {
        let (ctx, solution) = setup(60.0);
        let base = FaultPlan::uniform(7, 0.02);
        let bursty = FaultPlan {
            burst: Some(BurstModel {
                p_enter: 0.3,
                p_exit: 0.2,
                rate_multiplier: 25.0,
            }),
            ..base.clone()
        };
        let v = DecisionVector::new(vec![0, 1]);
        let total = |plan: &FaultPlan| -> usize {
            (0..64u64)
                .map(|i| {
                    simulate_instance_faulty(&ctx, &solution, &v, plan, i)
                        .unwrap()
                        .1
                        .stats
                        .total()
                })
                .sum()
        };
        let calm = total(&base);
        let stormy = total(&bursty);
        assert!(
            stormy > calm,
            "a 25× burst multiplier must inject more faults ({stormy} vs {calm})"
        );
        // Re-running the bursty sweep reproduces it exactly.
        assert_eq!(total(&bursty), stormy);
    }

    #[test]
    fn burst_state_is_pure_under_out_of_order_resampling() {
        let (ctx, solution) = setup(60.0);
        let plan = FaultPlan {
            burst: Some(BurstModel {
                p_enter: 0.4,
                p_exit: 0.3,
                rate_multiplier: 10.0,
            }),
            ..FaultPlan::uniform(21, 0.1)
        };
        // One injector visiting instances out of order must draw exactly
        // what fresh injectors draw for each instance.
        let mut walker = FaultInjector::empty(&ctx);
        for &i in &[5u64, 2, 9, 9, 0, 63] {
            walker.resample(&plan, &ctx, i).unwrap();
            let fresh = FaultInjector::for_instance(&plan, &ctx, i).unwrap();
            assert_eq!(walker.overrun, fresh.overrun, "instance {i}: overrun");
            assert_eq!(walker.stall, fresh.stall, "instance {i}: stall");
            assert_eq!(walker.denial, fresh.denial, "instance {i}: denial");
            assert_eq!(
                walker.retransmit, fresh.retransmit,
                "instance {i}: retransmit"
            );
        }
        let _ = solution;
    }

    #[test]
    fn invalid_burst_models_rejected() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![0, 0]);
        let bad_prob = FaultPlan {
            burst: Some(BurstModel {
                p_enter: 1.5,
                p_exit: 0.5,
                rate_multiplier: 2.0,
            }),
            ..FaultPlan::uniform(0, 0.1)
        };
        assert!(simulate_instance_faulty(&ctx, &solution, &v, &bad_prob, 0).is_err());
        let bad_mult = FaultPlan {
            burst: Some(BurstModel {
                p_enter: 0.5,
                p_exit: 0.5,
                rate_multiplier: 0.5,
            }),
            ..FaultPlan::uniform(0, 0.1)
        };
        assert!(simulate_instance_faulty(&ctx, &solution, &v, &bad_mult, 0).is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        let (ctx, solution) = setup(60.0);
        assert!(matches!(
            simulate_instance_faulty(
                &ctx,
                &solution,
                &DecisionVector::new(vec![0]),
                &FaultPlan::none(0),
                0
            ),
            Err(SchedError::VectorArity { .. })
        ));
    }
}
