//! Probability-blind slack distribution on the probability-aware schedule,
//! in the spirit of Wu, Al-Hashimi & Eles (IEE CDT 2003, the paper's reference 9).
//!
//! The paper criticizes this class of algorithm because "it does not
//! differentiate tasks with high activation probability from the tasks with
//! low activation probability during slack distribution" — so it keeps the
//! modified-DLS mapping (communication- and exclusion-aware) but stretches
//! every task as if it were always activated. Used by the ablation bench to
//! isolate the value of probability-weighted stretching.

use crate::context::SchedContext;
use crate::dls::dls_schedule;
use crate::error::SchedError;
use crate::online::Solution;
use crate::stretch::{proportional_stretch, StretchConfig};
use ctg_model::BranchProbs;

/// Runs the slack-distribution baseline: probability-aware DLS mapping, then
/// probability-blind proportional stretching (weight ≡ 1 for every task).
///
/// # Errors
///
/// Propagates mapping infeasibility.
pub fn slack_distribution(
    ctx: &SchedContext,
    probs: &BranchProbs,
    cfg: &StretchConfig,
) -> Result<Solution, SchedError> {
    let schedule = dls_schedule(ctx, probs)?;
    let speeds = proportional_stretch(ctx, &schedule, cfg, &|_| 1.0, true);
    Ok(Solution { schedule, speeds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineScheduler;
    use crate::test_util::example1_context;

    #[test]
    fn slack_distribution_is_deadline_safe() {
        let (ctx, probs, _) = example1_context();
        let sol = slack_distribution(&ctx, &probs, &StretchConfig::default()).unwrap();
        // Verify against the path analysis with stretched times.
        let graph =
            crate::sgraph::ScheduledGraph::build(&ctx, &sol.schedule, &probs, 100_000).unwrap();
        let profile = ctx.platform().profile();
        for p in graph.paths() {
            let d: f64 = p.delay()
                + p.tasks()
                    .iter()
                    .map(|&t| {
                        let w = profile.wcet(t.index(), sol.schedule.pe_of(t));
                        w / sol.speeds.speed(t) - w
                    })
                    .sum::<f64>();
            assert!(d <= ctx.ctg().deadline() + 1e-6, "path delay {d}");
        }
    }

    #[test]
    fn shares_mapping_with_online() {
        let (ctx, probs, _) = example1_context();
        let sd = slack_distribution(&ctx, &probs, &StretchConfig::default()).unwrap();
        let online = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        assert_eq!(sd.schedule, online.schedule, "same DLS mapping stage");
    }

    #[test]
    fn ignores_probability_changes() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, t3, ..] = ids;
        let a = slack_distribution(&ctx, &probs, &StretchConfig::default()).unwrap();
        let mut skew = probs.clone();
        skew.set(t3, vec![0.99, 0.01]).unwrap();
        let b = slack_distribution(&ctx, &skew, &StretchConfig::default()).unwrap();
        // The stretching stage is probability-blind; only the mapping stage
        // sees probabilities (and on this symmetric graph it is unchanged).
        if a.schedule == b.schedule {
            assert_eq!(a.speeds, b.speeds);
        }
    }
}
