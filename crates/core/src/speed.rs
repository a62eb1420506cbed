//! Per-task speed assignments and energy evaluation.

use crate::context::{ScenarioMask, SchedContext};
use crate::schedule::Schedule;
use ctg_model::{BranchProbs, TaskId};

/// A speed ratio in `(0, 1]` for every task — the output of the stretching
/// (DVFS) stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedAssignment {
    speeds: Vec<f64>,
}

impl SpeedAssignment {
    /// All tasks at nominal speed.
    pub fn nominal(num_tasks: usize) -> Self {
        SpeedAssignment {
            speeds: vec![1.0; num_tasks],
        }
    }

    /// Creates an assignment from raw speed ratios.
    ///
    /// # Panics
    ///
    /// Panics if any speed is outside `(0, 1]`.
    pub fn new(speeds: Vec<f64>) -> Self {
        assert!(
            speeds.iter().all(|&s| s > 0.0 && s <= 1.0),
            "speed ratios must lie in (0, 1]"
        );
        SpeedAssignment { speeds }
    }

    /// The speed ratio of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn speed(&self, task: TaskId) -> f64 {
        self.speeds[task.index()]
    }

    /// All speed ratios, indexed by task id.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// Sets the speed of one task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range or `speed` outside `(0, 1]`.
    pub fn set(&mut self, task: TaskId, speed: f64) {
        assert!(
            speed > 0.0 && speed <= 1.0,
            "speed ratio must lie in (0, 1]"
        );
        self.speeds[task.index()] = speed;
    }
}

/// Expected energy of a (schedule, speeds) solution under the current branch
/// probabilities:
///
/// `Σ_τ prob(τ) · E(τ, pe(τ)) · s_τ²  +  Σ_(i,j) prob(τi ∧ τj) · E_tr(comm)`
///
/// Communication is never voltage-scaled; intra-PE transfers are free.
///
/// Priced from the context's compiled scenario masks: the scenario
/// probabilities are computed once, `prob(τ)` is the mask sum over
/// `X(τ)`'s scenarios and `prob(τi ∧ τj)` the sum over the intersection of
/// both endpoint masks (exactly `1.0` when both endpoints are always
/// active). Each sum adds the same values in the same ascending scenario
/// order as [`SchedContext::task_prob`] and [`SchedContext::edge_prob`], so
/// the result is bit-identical to pricing through them
/// (`tests/energy_equivalence.rs` pins it).
pub fn expected_energy(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
) -> f64 {
    let platform = ctx.platform();
    let act = ctx.activation();
    let scenario_probs = ctx.scenario_probs(probs);
    let mut total = 0.0;
    for t in ctx.ctg().tasks() {
        let p = ctx.mask_prob(ctx.task_mask(t), &scenario_probs);
        total += p * platform.exec_energy(t.index(), schedule.pe_of(t), speeds.speed(t));
    }
    let mut both = ScenarioMask::empty(scenario_probs.len());
    for (_, e) in ctx.ctg().edges() {
        let (src, dst) = (e.src(), e.dst());
        let energy =
            platform
                .comm()
                .energy(schedule.pe_of(src), schedule.pe_of(dst), e.comm_kbytes());
        if energy > 0.0 {
            let p = if act.always_active(src) && act.always_active(dst) {
                1.0
            } else {
                both.assign_and(ctx.task_mask(src), ctx.task_mask(dst));
                ctx.mask_prob(&both, &scenario_probs)
            };
            total += p * energy;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dls::dls_schedule;
    use crate::test_util::{chain_context, example1_context};

    #[test]
    fn nominal_assignment_is_all_ones() {
        let s = SpeedAssignment::nominal(3);
        assert_eq!(s.speeds(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_speed() {
        let _ = SpeedAssignment::new(vec![0.0]);
    }

    #[test]
    fn set_and_get() {
        let mut s = SpeedAssignment::nominal(2);
        s.set(TaskId::new(1), 0.5);
        assert_eq!(s.speed(TaskId::new(1)), 0.5);
        assert_eq!(s.speed(TaskId::new(0)), 1.0);
    }

    #[test]
    fn expected_energy_scales_quadratically() {
        let (ctx, probs, _) = chain_context(60.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let nominal = expected_energy(&ctx, &probs, &sched, &SpeedAssignment::nominal(3));
        let mut half = SpeedAssignment::nominal(3);
        for t in ctx.ctg().tasks() {
            half.set(t, 0.5);
        }
        let scaled = expected_energy(&ctx, &probs, &sched, &half);
        // Chain mapped to one PE ⇒ no comm energy; pure s² scaling.
        assert!((scaled - nominal * 0.25).abs() < 1e-9);
    }

    #[test]
    fn expected_energy_weights_by_activation_probability() {
        let (ctx, probs, ids) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let nominal = expected_energy(&ctx, &probs, &sched, &SpeedAssignment::nominal(8));
        // Unit energies of 2.0 per task: the three always-active tasks plus
        // or-node τ8 contribute fully, τ4/τ5 half, τ6/τ7 a quarter.
        let exec_part = 2.0 * (4.0 + 0.5 + 0.5 + 0.25 + 0.25);
        assert!(nominal >= exec_part - 1e-9, "comm energy only adds");
        let _ = ids;
    }
}
