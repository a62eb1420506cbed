//! End-to-end integration of the three reference workloads: every scenario
//! of every workload schedules, simulates and meets its deadline.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, DecisionVector};
use adaptive_dvfs::platform::Platform;
use adaptive_dvfs::sched::{dls_schedule, validate_solution, OnlineScheduler, SchedContext};
use adaptive_dvfs::sim::{simulate_instance, trace_metrics};
use adaptive_dvfs::workloads::{cruise, mpeg, traces, wlan};

fn calibrated(ctg: Ctg, platform: Platform, factor: f64) -> SchedContext {
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let probs = BranchProbs::uniform(ctx.ctg());
    let makespan = dls_schedule(&ctx, &probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(factor * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

fn exhaustive_vectors(ctx: &SchedContext) -> Vec<DecisionVector> {
    // Cartesian product over per-fork alternatives.
    let arities: Vec<u8> = ctx
        .ctg()
        .branch_nodes()
        .iter()
        .map(|&b| ctx.ctg().node(b).alternatives())
        .collect();
    let mut out = vec![Vec::new()];
    for &k in &arities {
        let mut next = Vec::new();
        for prefix in &out {
            for alt in 0..k {
                let mut v = prefix.clone();
                v.push(alt);
                next.push(v);
            }
        }
        out = next;
    }
    out.into_iter().map(DecisionVector::new).collect()
}

fn check_workload(ctx: &SchedContext, expected_scenarios: usize) {
    assert_eq!(ctx.scenarios().len(), expected_scenarios);
    let probs = BranchProbs::uniform(ctx.ctg());
    let solution = OnlineScheduler::new().solve(ctx, &probs).unwrap();
    assert_eq!(
        validate_solution(ctx, &solution.schedule, &solution.speeds),
        Ok(())
    );
    let vectors = exhaustive_vectors(ctx);
    for v in &vectors {
        let run = simulate_instance(ctx, &solution, v).unwrap();
        assert!(
            run.deadline_met,
            "{} vector {v}: {} > {}",
            ctx.ctg().name(),
            run.makespan,
            ctx.ctg().deadline()
        );
    }
    // Trace metrics stay sane across an exhaustive sweep.
    let m = trace_metrics(ctx, &solution, &vectors).unwrap();
    assert!(m.energy_mean > 0.0);
    assert!(m.pe_utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
}

#[test]
fn mpeg_all_branch_combinations_meet_deadline() {
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let ctx = calibrated(ctg, platform, 1.5);
    // 1 (skipped) + 1 (intra) + 2 mc × 2^6 blocks = 130 scenarios.
    check_workload(&ctx, 130);
}

#[test]
fn cruise_all_branch_combinations_meet_deadline() {
    let ctg = cruise::cruise_ctg();
    let platform = cruise::cruise_platform(&ctg);
    let ctx = calibrated(ctg, platform, 2.0);
    check_workload(&ctx, 3);
}

#[test]
fn wlan_all_branch_combinations_meet_deadline() {
    let ctg = wlan::wlan_ctg();
    let platform = wlan::wlan_platform(&ctg);
    let ctx = calibrated(ctg, platform, 1.4);
    check_workload(&ctx, 8);
}

#[test]
fn workload_text_roundtrips() {
    use adaptive_dvfs::ctg::text;
    for ctg in [mpeg::mpeg_ctg(), cruise::cruise_ctg(), wlan::wlan_ctg()] {
        let rendered = text::to_text(&ctg);
        let back = text::from_text(&rendered).unwrap();
        assert_eq!(ctg, back, "{} does not roundtrip", ctg.name());
    }
}

#[test]
fn movie_traces_have_equal_long_run_averages_per_alternative() {
    // The bimodal scene distribution is symmetric: over a long horizon each
    // binary fork's average probability approaches 0.5 (the paper's setup
    // for the random-CTG test vectors).
    let ctg = mpeg::mpeg_ctg();
    let movie = &traces::movie_presets()[0];
    let trace = traces::generate_trace(&ctg, &movie.profile, 30_000);
    let probs = traces::empirical_probs(&ctg, &ctg.activation(), &trace);
    let skipped = ctg.branch_nodes()[mpeg::BRANCH_SKIPPED];
    let p = probs.prob(skipped, 0);
    assert!((0.3..=0.7).contains(&p), "long-run average drifted: {p}");
}
