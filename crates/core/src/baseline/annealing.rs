//! Simulated-annealing task mapping (offline co-synthesis baseline).
//!
//! The paper's comparison family maps tasks either greedily (reference 1) or
//! with the modified DLS (online / reference 2). Hardware/software
//! co-synthesis work on CTGs (e.g. Xie & Wolf, the paper's reference 8)
//! instead searches the mapping space globally. This module provides such a
//! search: simulated annealing over task→PE assignments, each candidate
//! evaluated by list-scheduling on the fixed mapping followed by the
//! stretching heuristic. Slow but mapping-optimal-ish — an upper baseline
//! for how much better than DLS a mapping could be.

use crate::context::SchedContext;
use crate::dls::list_schedule_fixed;
use crate::error::SchedError;
use crate::online::Solution;
use crate::speed::expected_energy;
use crate::static_level::static_levels;
use crate::stretch::{stretch_schedule, StretchConfig};
use ctg_model::BranchProbs;
use ctg_rng::Rng64;
use mpsoc_platform::PeId;

/// Parameters of the annealing search.
#[derive(Debug, Clone, PartialEq)]
pub struct SaConfig {
    /// RNG seed (the search is fully deterministic given the seed).
    pub seed: u64,
    /// Number of candidate moves.
    pub iterations: usize,
    /// Initial temperature, as a fraction of the initial energy.
    pub t0: f64,
    /// Multiplicative cooling factor applied every `iterations / 20` moves.
    pub cooling: f64,
    /// Stretching configuration used to evaluate candidates.
    pub stretch: StretchConfig,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            seed: 0xDA7E,
            iterations: 600,
            t0: 0.05,
            cooling: 0.85,
            stretch: StretchConfig::default(),
        }
    }
}

/// Runs the annealing mapper and returns the best solution found.
///
/// The search starts from the modified-DLS mapping, so the result is never
/// worse than the online algorithm under the same stretching configuration.
///
/// # Errors
///
/// Returns [`SchedError::InvalidParameter`] for zero iterations and
/// propagates the errors of the initial mapping's schedule and stretch (an
/// invalid stretch configuration included).
pub fn simulated_annealing(
    ctx: &SchedContext,
    probs: &BranchProbs,
    cfg: &SaConfig,
) -> Result<Solution, SchedError> {
    if cfg.iterations == 0 {
        return Err(SchedError::InvalidParameter("iterations must be positive"));
    }
    let n = ctx.ctg().num_tasks();
    let profile = ctx.platform().profile();
    let sl = static_levels(ctx, probs);

    let evaluate = |mapping: &[PeId]| -> Result<(Solution, f64), SchedError> {
        let schedule = list_schedule_fixed(ctx, mapping, &sl, true)?;
        let speeds = stretch_schedule(ctx, probs, &schedule, &cfg.stretch)?;
        let energy = expected_energy(ctx, probs, &schedule, &speeds);
        Ok((Solution { schedule, speeds }, energy))
    };

    // Seed the search with the DLS mapping; its evaluation's error is the
    // search's.
    let initial = crate::dls::dls_schedule(ctx, probs)?;
    let mut mapping: Vec<PeId> = ctx.ctg().tasks().map(|t| initial.pe_of(t)).collect();
    let (mut best_solution, mut best_energy) = evaluate(&mapping)?;
    let mut current_energy = best_energy;

    let mut rng = Rng64::seed_from_u64(cfg.seed);
    let mut temperature = cfg.t0 * best_energy;
    let cool_every = (cfg.iterations / 20).max(1);

    for iter in 0..cfg.iterations {
        // Neighbor: move one task to another PE it can run on.
        let t = rng.gen_range(0..n);
        let candidates: Vec<PeId> = ctx
            .platform()
            .pes()
            .filter(|&p| p != mapping[t] && profile.can_run(t, p))
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let new_pe = candidates[rng.gen_range(0..candidates.len())];
        let old_pe = std::mem::replace(&mut mapping[t], new_pe);

        match evaluate(&mapping) {
            Ok((solution, energy)) => {
                let accept = energy <= current_energy
                    || rng.gen_range(0.0..1.0)
                        < (-(energy - current_energy) / temperature.max(1e-12)).exp();
                if accept {
                    current_energy = energy;
                    if energy < best_energy {
                        best_energy = energy;
                        best_solution = solution;
                    }
                } else {
                    mapping[t] = old_pe;
                }
            }
            Err(_) => {
                mapping[t] = old_pe; // infeasible neighbour
            }
        }
        if iter % cool_every == cool_every - 1 {
            temperature *= cfg.cooling;
        }
    }
    Ok(best_solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineScheduler;
    use crate::test_util::example1_context;
    use crate::validate::validate_solution;

    #[test]
    fn never_worse_than_online_with_same_stretching() {
        let (ctx, probs, _) = example1_context();
        let online = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let sa = simulated_annealing(&ctx, &probs, &SaConfig::default()).unwrap();
        assert!(sa.expected_energy(&ctx, &probs) <= online.expected_energy(&ctx, &probs) + 1e-9);
    }

    #[test]
    fn result_is_valid_and_deadline_safe() {
        let (ctx, probs, _) = example1_context();
        let sa = simulated_annealing(&ctx, &probs, &SaConfig::default()).unwrap();
        assert_eq!(validate_solution(&ctx, &sa.schedule, &sa.speeds), Ok(()));
    }

    #[test]
    fn deterministic_per_seed() {
        let (ctx, probs, _) = example1_context();
        let a = simulated_annealing(&ctx, &probs, &SaConfig::default()).unwrap();
        let b = simulated_annealing(&ctx, &probs, &SaConfig::default()).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.speeds, b.speeds);
    }

    #[test]
    fn zero_iterations_rejected() {
        let (ctx, probs, _) = example1_context();
        let bad = SaConfig {
            iterations: 0,
            ..Default::default()
        };
        assert!(simulated_annealing(&ctx, &probs, &bad).is_err());
    }

    /// The initial evaluation's own error comes back, not a made-up
    /// `NoFeasiblePe`.
    #[test]
    fn initial_evaluation_error_propagates() {
        let (ctx, probs, _) = example1_context();
        let bad = SaConfig {
            stretch: StretchConfig {
                sweeps: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(
            simulated_annealing(&ctx, &probs, &bad).unwrap_err(),
            SchedError::InvalidParameter("sweeps must be positive")
        );
    }
}
