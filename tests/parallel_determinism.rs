//! Determinism matrix for the parallel evaluation engine: `Runner::run_static`
//! at 1, 2 and N workers must return a summary **bit-for-bit identical** to
//! the sequential engine's (one worker) — fault-free and faulty, on both
//! the MPEG decoder and the cruise-controller workloads.
//!
//! The pool merges per-instance outcomes in submission order, so the exact
//! floating-point fold of the sequential runner is reproduced; these tests
//! compare the accumulated f64 fields by bit pattern, not by epsilon.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, DecisionVector};
use adaptive_dvfs::platform::Platform;
use adaptive_dvfs::sched::{dls_schedule, OnlineScheduler, SchedContext, Solution};
use adaptive_dvfs::sim::{FaultPlan, RunConfig, RunSummary, Runner};
use adaptive_dvfs::workloads::traces::{self, DriftProfile};
use adaptive_dvfs::workloads::{cruise, mpeg};

const WORKER_MATRIX: [usize; 3] = [1, 2, 4];
/// Above the pool's default batch threshold (`pool::DEFAULT_MIN_BATCH`,
/// 1024), so the matrix exercises genuinely parallel runs, not the
/// small-batch fallback.
const LEN: usize = 2048;
/// Below the threshold: these traces take the sequential fallback.
const SHORT_LEN: usize = 64;

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

fn workloads_of_len(
    len: usize,
) -> Vec<(&'static str, SchedContext, Solution, Vec<DecisionVector>)> {
    let mut out = Vec::new();
    for (name, ctx, seed) in [
        (
            "mpeg",
            calibrated(
                mpeg::mpeg_ctg(),
                mpeg::mpeg_platform(&mpeg::mpeg_ctg()),
                2.0,
            ),
            41,
        ),
        (
            "cruise",
            calibrated(
                cruise::cruise_ctg(),
                cruise::cruise_platform(&cruise::cruise_ctg()),
                2.0,
            ),
            42,
        ),
    ] {
        let trace = traces::generate_trace(ctx.ctg(), &DriftProfile::new(seed), len);
        let probs = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace);
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        out.push((name, ctx, solution, trace));
    }
    out
}

fn workloads() -> Vec<(&'static str, SchedContext, Solution, Vec<DecisionVector>)> {
    workloads_of_len(LEN)
}

/// Bitwise equality of every accumulated field (PartialEq already skips the
/// wall-clock fields, but compares f64 with `==`; this pins the bits).
fn assert_bit_identical(a: &RunSummary, b: &RunSummary, label: &str) {
    assert_eq!(a, b, "{label}: summaries differ");
    assert_eq!(
        a.exec.total_energy.to_bits(),
        b.exec.total_energy.to_bits(),
        "{label}: total_energy bits differ"
    );
    assert_eq!(
        a.exec.max_makespan.to_bits(),
        b.exec.max_makespan.to_bits(),
        "{label}: max_makespan bits differ"
    );
}

/// Runs `solution` over `trace` at `workers` workers (one worker is the
/// sequential engine), under `plan` when one is given.
fn run(
    ctx: &SchedContext,
    solution: &Solution,
    trace: &[DecisionVector],
    workers: usize,
    plan: Option<&FaultPlan>,
) -> RunSummary {
    let cfg = RunConfig::new().workers(workers);
    let cfg = match plan {
        Some(plan) => cfg.fault_plan(plan.clone()),
        None => cfg,
    };
    Runner::new(cfg).run_static(ctx, solution, trace).unwrap()
}

#[test]
fn static_parallel_matches_sequential_at_every_worker_count() {
    for (name, ctx, solution, trace) in workloads() {
        let seq = run(&ctx, &solution, &trace, 1, None);
        assert!(seq.exec.instances == LEN && seq.exec.total_energy > 0.0);
        for workers in WORKER_MATRIX {
            let par = run(&ctx, &solution, &trace, workers, None);
            assert_bit_identical(&seq, &par, &format!("{name}@{workers}w"));
        }
    }
}

#[test]
fn faulty_parallel_matches_sequential_at_every_worker_count() {
    let plan = FaultPlan::uniform(0xD15EA5E, 0.08);
    for (name, ctx, solution, trace) in workloads() {
        let seq = run(&ctx, &solution, &trace, 1, Some(&plan));
        // The run must actually inject faults for the check to mean much.
        let total_faults =
            seq.faults.overruns + seq.faults.stalls + seq.faults.denials + seq.faults.retransmits;
        assert!(total_faults > 0, "{name}: fault plan injected nothing");
        for workers in WORKER_MATRIX {
            let par = run(&ctx, &solution, &trace, workers, Some(&plan));
            assert_bit_identical(&seq, &par, &format!("{name}-faulty@{workers}w"));
            assert_eq!(seq.faults, par.faults, "{name}@{workers}w: fault stats");
        }
    }
}

#[test]
fn small_batch_fallback_stays_bit_identical() {
    // Traces below the batch threshold degrade to one worker inside the
    // pooled engines. The fallback is a pure wall-clock optimisation: the
    // summaries must still match the sequential engines bit-for-bit.
    let plan = FaultPlan::uniform(0xD15EA5E, 0.08);
    for (name, ctx, solution, trace) in workloads_of_len(SHORT_LEN) {
        let seq = run(&ctx, &solution, &trace, 1, None);
        assert_eq!(seq.exec.instances, SHORT_LEN);
        let seq_faulty = run(&ctx, &solution, &trace, 1, Some(&plan));
        for workers in WORKER_MATRIX {
            let par = run(&ctx, &solution, &trace, workers, None);
            assert_bit_identical(&seq, &par, &format!("{name}-short@{workers}w"));
            let par_faulty = run(&ctx, &solution, &trace, workers, Some(&plan));
            assert_bit_identical(
                &seq_faulty,
                &par_faulty,
                &format!("{name}-short-faulty@{workers}w"),
            );
            assert_eq!(
                seq_faulty.faults, par_faulty.faults,
                "{name}-short@{workers}w: fault stats"
            );
        }
    }
}

#[test]
fn parallel_summary_is_invariant_in_the_worker_count() {
    // Transitivity check the other way around: all parallel runs agree with
    // each other, not only with the sequential reference.
    let (_, ctx, solution, trace) = workloads().remove(0);
    let runs: Vec<RunSummary> = WORKER_MATRIX
        .iter()
        .map(|&w| run(&ctx, &solution, &trace, w, None))
        .collect();
    for pair in runs.windows(2) {
        assert_bit_identical(&pair[0], &pair[1], "worker-count pair");
    }
}
