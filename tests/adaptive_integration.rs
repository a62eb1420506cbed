//! Integration tests of the adaptive manager over realistic workloads.

use adaptive_dvfs::ctg::BranchProbs;
use adaptive_dvfs::sched::{dls_schedule, AdaptiveScheduler, OnlineScheduler, SchedContext};
use adaptive_dvfs::sim::Runner;
use adaptive_dvfs::workloads::{cruise, mpeg, traces};

fn mpeg_context(factor: f64) -> SchedContext {
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let probs = BranchProbs::uniform(ctx.ctg());
    let makespan = dls_schedule(&ctx, &probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(factor * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

#[test]
fn mpeg_adaptive_run_is_deadline_safe_and_counts_calls() {
    let ctx = mpeg_context(2.0);
    let movie = &traces::movie_presets()[2];
    let trace = traces::generate_trace(ctx.ctg(), &movie.profile, 600);
    let probs = BranchProbs::uniform(ctx.ctg());
    let mgr = AdaptiveScheduler::new(&ctx, probs, 20, 0.1).unwrap();
    let (summary, mgr) = Runner::default().run_adaptive(&ctx, mgr, &trace).unwrap();
    assert_eq!(summary.exec.instances, 600);
    assert_eq!(summary.exec.deadline_misses, 0);
    assert!(
        summary.calls > 0,
        "a drifting movie must trigger re-scheduling"
    );
    assert_eq!(mgr.stats().instances, 600);
    assert_eq!(mgr.stats().calls, summary.calls);
}

#[test]
fn threshold_orders_call_counts_on_mpeg() {
    let ctx = mpeg_context(2.0);
    let movie = &traces::movie_presets()[5]; // Shuttle, the most dynamic
    let trace = traces::generate_trace(ctx.ctg(), &movie.profile, 500);
    let probs = BranchProbs::uniform(ctx.ctg());
    let mut calls = Vec::new();
    for threshold in [0.5, 0.25, 0.1] {
        let mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 20, threshold).unwrap();
        let (summary, _) = Runner::default().run_adaptive(&ctx, mgr, &trace).unwrap();
        calls.push(summary.calls);
    }
    assert!(
        calls[0] <= calls[1] && calls[1] <= calls[2],
        "lower thresholds must trigger at least as often: {calls:?}"
    );
}

#[test]
fn adaptive_beats_stale_profile_on_mpeg() {
    let ctx = mpeg_context(2.0);
    let movie = &traces::movie_presets()[1];
    let trace = traces::generate_trace(ctx.ctg(), &movie.profile, 1600);
    let (train, test) = traces::split_train_test(&trace);
    let profiled = traces::empirical_probs(ctx.ctg(), ctx.activation(), train);
    let online = OnlineScheduler::new().solve(&ctx, &profiled).unwrap();
    let s_static = Runner::default().run_static(&ctx, &online, test).unwrap();
    let mgr = AdaptiveScheduler::new(&ctx, profiled, 20, 0.1).unwrap();
    let (s_adaptive, _) = Runner::default().run_adaptive(&ctx, mgr, test).unwrap();
    assert!(
        s_adaptive.exec.total_energy < s_static.exec.total_energy,
        "adaptive {} should beat stale online {}",
        s_adaptive.exec.total_energy,
        s_static.exec.total_energy
    );
}

#[test]
fn cruise_controller_full_run() {
    let ctg = cruise::cruise_ctg();
    let platform = cruise::cruise_platform(&ctg);
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let probs = BranchProbs::uniform(ctx.ctg());
    let makespan = dls_schedule(&ctx, &probs).unwrap().makespan();
    let ctx = SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )
    .unwrap();

    for road in traces::road_presets() {
        let trace = traces::generate_trace(ctx.ctg(), &road.profile, 400);
        let mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 20, 0.1).unwrap();
        let (summary, _) = Runner::default().run_adaptive(&ctx, mgr, &trace).unwrap();
        assert_eq!(
            summary.exec.deadline_misses, 0,
            "{} missed deadlines",
            road.name
        );
        assert!(summary.exec.total_energy > 0.0);
    }
}

#[test]
fn window_estimates_converge_to_trace_statistics() {
    let ctx = mpeg_context(2.0);
    // Constant trace: every fork picks alternative 0 whenever it executes.
    let trace: Vec<_> = (0..200)
        .map(|_| adaptive_dvfs::ctg::DecisionVector::new(vec![0; ctx.ctg().num_branches()]))
        .collect();
    let probs = BranchProbs::uniform(ctx.ctg());
    let mgr = AdaptiveScheduler::new(&ctx, probs, 16, 0.2).unwrap();
    let (_, mgr) = Runner::default().run_adaptive(&ctx, mgr, &trace).unwrap();
    // The skipped fork executes every instance; its window must be all-0.
    let skipped = ctx.ctg().branch_nodes()[mpeg::BRANCH_SKIPPED];
    let est = mgr.window_estimate(&ctx, skipped).unwrap();
    assert!(est[0] > 0.99, "window should have converged: {est:?}");
    // The latched probabilities follow.
    assert!(mgr.current_probs().prob(skipped, 0) > 0.9);
}
