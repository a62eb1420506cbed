//! End-to-end checks of the fault-injection and graceful-degradation layer:
//! zero-fault equivalence with the plain adaptive runner, per-seed
//! determinism, and survival (no `Err`) under heavy fault pressure.

use adaptive_dvfs::ctg::BranchProbs;
use adaptive_dvfs::sched::{dls_schedule, AdaptiveScheduler, SchedContext};
use adaptive_dvfs::sim::{DegradeConfig, FaultPlan, RunConfig, RunSummary, Runner};
use adaptive_dvfs::tgff::{Category, TgffConfig};
use adaptive_dvfs::workloads::traces::{generate_trace, DriftProfile};

const WINDOW: usize = 20;
const THRESHOLD: f64 = 0.2;
const LEN: usize = 300;

fn setup() -> (SchedContext, Vec<adaptive_dvfs::ctg::DecisionVector>) {
    let cfg = TgffConfig::new(42, 20, 2, Category::ForkJoin);
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, 3);
    let ctx = SchedContext::new(generated.ctg, platform).unwrap();
    let makespan = dls_schedule(&ctx, &generated.probs).unwrap().makespan();
    let ctx = SchedContext::new(
        ctx.ctg().with_deadline(1.6 * makespan),
        ctx.platform().clone(),
    )
    .unwrap();
    let trace = generate_trace(ctx.ctg(), &DriftProfile::new(0xFA57), LEN);
    (ctx, trace)
}

fn manager(ctx: &SchedContext) -> AdaptiveScheduler {
    let probs = BranchProbs::uniform(ctx.ctg());
    AdaptiveScheduler::new(ctx, probs, WINDOW, THRESHOLD).unwrap()
}

fn resilient(
    ctx: &SchedContext,
    trace: &[adaptive_dvfs::ctg::DecisionVector],
    plan: &FaultPlan,
) -> RunSummary {
    let cfg = RunConfig::new()
        .fault_plan(plan.clone())
        .degrade(DegradeConfig::default());
    let (summary, _) = Runner::new(cfg)
        .run_adaptive(ctx, manager(ctx), trace)
        .expect("resilient runner absorbs recoverable conditions");
    summary
}

/// With all fault rates zero the resilient runner is the adaptive runner:
/// same energies (to the bit), same call counts, no fault or ladder
/// activity.
#[test]
fn zero_fault_plan_matches_run_adaptive_bitwise() {
    let (ctx, trace) = setup();
    let (plain, _) = Runner::default()
        .run_adaptive(&ctx, manager(&ctx), &trace)
        .unwrap();
    let shielded = resilient(&ctx, &trace, &FaultPlan::none(99));

    assert_eq!(plain.exec.instances, shielded.exec.instances);
    assert_eq!(
        plain.exec.total_energy.to_bits(),
        shielded.exec.total_energy.to_bits()
    );
    assert_eq!(
        plain.exec.max_makespan.to_bits(),
        shielded.exec.max_makespan.to_bits()
    );
    assert_eq!(plain.exec.deadline_misses, shielded.exec.deadline_misses);
    assert_eq!(plain.calls, shielded.calls);
    assert_eq!(shielded.faults.total(), 0);
    assert_eq!(shielded.degrade.guard_band_escalations, 0);
    assert_eq!(shielded.degrade.safe_mode_escalations, 0);
    assert_eq!(shielded.degrade.rejected_reschedules, 0);
    assert_eq!(shielded.degrade.failed_reschedules, 0);
}

/// Two runs with the same plan produce identical summaries, field by field.
#[test]
fn chaos_runs_are_deterministic() {
    let (ctx, trace) = setup();
    let plan = FaultPlan::uniform(0xBAD_CAFE, 0.08);
    let first = resilient(&ctx, &trace, &plan);
    let second = resilient(&ctx, &trace, &plan);
    assert_eq!(first, second);
    assert!(first.faults.total() > 0, "an 8% plan should fire something");
}

/// A different seed draws a different fault pattern (the plan seed, not
/// global state, is the source of randomness).
#[test]
fn fault_pattern_follows_plan_seed() {
    let (ctx, trace) = setup();
    let a = resilient(&ctx, &trace, &FaultPlan::uniform(1, 0.08));
    let b = resilient(&ctx, &trace, &FaultPlan::uniform(2, 0.08));
    assert_ne!(
        a.exec.total_energy.to_bits(),
        b.exec.total_energy.to_bits(),
        "independent seeds should perturb the run differently"
    );
}

/// Under heavy fault pressure the runner still returns `Ok`: misses are
/// counted, the ladder escalates, and nothing propagates as an error.
#[test]
fn heavy_faults_are_absorbed_not_raised() {
    let (ctx, trace) = setup();
    let mut plan = FaultPlan::uniform(7, 0.5);
    plan.overrun_factor = 3.0;
    plan.stall_time = 10.0;
    let s = resilient(&ctx, &trace, &plan);

    assert_eq!(s.exec.instances, LEN);
    assert!(
        s.exec.deadline_misses > 0,
        "a 50% plan at 3x severity must miss"
    );
    assert!(
        s.degrade.guard_band_escalations > 0,
        "watchdog should have escalated at least to the guard band"
    );
    assert!(s.faults.overruns > 0 && s.faults.retransmits > 0);
}

/// Miss rate degrades (weakly) as the fault rate grows from zero to severe.
#[test]
fn miss_rate_grows_with_fault_rate() {
    let (ctx, trace) = setup();
    let clean = resilient(&ctx, &trace, &FaultPlan::uniform(3, 0.0));
    let mild = resilient(&ctx, &trace, &FaultPlan::uniform(3, 0.05));
    let severe = {
        let mut plan = FaultPlan::uniform(3, 0.4);
        plan.overrun_factor = 2.5;
        resilient(&ctx, &trace, &plan)
    };
    assert_eq!(clean.miss_rate(), 0.0);
    assert!(mild.miss_rate() >= clean.miss_rate());
    assert!(
        severe.miss_rate() >= mild.miss_rate(),
        "severe {} < mild {}",
        severe.miss_rate(),
        mild.miss_rate()
    );
    assert!(severe.miss_rate() > 0.0);
}
