//! Chaos sweep — fault-injection rates × severities over TGFF and MPEG
//! workloads, driven through the resilient adaptive runner (extension; not
//! a paper table).
//!
//! For every workload the harness sweeps a grid of fault rates (applied
//! uniformly to overruns, stalls, DVFS denials and retransmits) and overrun
//! severities, printing one CSV row per cell: average energy, miss rate and
//! the degradation-ladder counters. The whole sweep is then repeated with
//! the same seeds and both passes are compared field by field — any
//! difference aborts the run, making the determinism guarantee of
//! [`ctg_sim::FaultPlan`] an executable check rather than a comment.
//!
//! Expected shape: miss rate grows (weakly) with the fault rate, the ladder
//! escalates under heavy faults instead of erroring out, and the zero-rate
//! column reproduces the fault-free adaptive numbers.

use ctg_bench::setup::{prepare_case, prepare_mpeg};
use ctg_model::DecisionVector;
use ctg_sched::{AdaptiveScheduler, SchedContext};
use ctg_sim::{map_ordered, BurstModel, DegradeConfig, FaultPlan, RunConfig, RunSummary, Runner};
use ctg_workloads::traces::{self, DriftProfile};

const LEN: usize = 400;
const WINDOW: usize = 20;
const THRESHOLD: f64 = 0.2;
const RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
const SEVERITIES: [f64; 3] = [1.2, 1.5, 2.0];
const FAULT_SEED: u64 = 0xC4A0_5EED;

struct Workload {
    name: &'static str,
    ctx: SchedContext,
    trace: Vec<DecisionVector>,
}

fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for (i, (cfg, pes)) in tgff_gen::table1_cases().iter().take(2).enumerate() {
        let case = prepare_case(cfg, *pes, 1.6);
        let profile = DriftProfile::new(9100 + i as u64);
        let trace = traces::generate_trace(case.ctx.ctg(), &profile, LEN);
        out.push(Workload {
            name: if i == 0 {
                "tgff-forkjoin"
            } else {
                "tgff-layered"
            },
            ctx: case.ctx,
            trace,
        });
    }
    let ctx = prepare_mpeg(2.0);
    let trace = traces::generate_trace(ctx.ctg(), &DriftProfile::new(9200), LEN);
    out.push(Workload {
        name: "mpeg",
        ctx,
        trace,
    });
    out
}

fn plan_for(rate: f64, severity: f64) -> FaultPlan {
    let mut plan = FaultPlan::uniform(FAULT_SEED, rate);
    plan.overrun_factor = severity;
    plan
}

/// Burst scenario probabilities: `0.0` is the uniform-rate control, the
/// others enter the Gilbert–Elliott bad state ever more eagerly.
const BURST_P_ENTER: [f64; 3] = [0.0, 0.05, 0.2];
const BURST_BASE_RATE: f64 = 0.02;
const BURST_MULTIPLIER: f64 = 8.0;

fn burst_plan(p_enter: f64) -> FaultPlan {
    let mut plan = FaultPlan::uniform(FAULT_SEED ^ 0xB135, BURST_BASE_RATE);
    plan.overrun_factor = 1.5;
    if p_enter > 0.0 {
        plan.burst = Some(BurstModel {
            p_enter,
            p_exit: 0.25,
            rate_multiplier: BURST_MULTIPLIER,
        });
    }
    plan
}

/// Runs the resilient adaptive engine over `w` under `plan`.
fn run_resilient(w: &Workload, plan: FaultPlan) -> RunSummary {
    let probs = ctg_model::BranchProbs::uniform(w.ctx.ctg());
    let manager = AdaptiveScheduler::new(&w.ctx, probs, WINDOW, THRESHOLD).expect("manager builds");
    let cfg = RunConfig::new()
        .fault_plan(plan)
        .degrade(DegradeConfig::default());
    let (summary, _) = Runner::new(cfg)
        .run_adaptive(&w.ctx, manager, &w.trace)
        .expect("resilient runner never fails on recoverable faults");
    summary
}

fn sweep(workloads: &[Workload], workers: usize) -> Vec<(String, RunSummary)> {
    // Enumerate the grid first, then fan the independent cells out over the
    // pool; submission-ordered merging keeps the output identical to the
    // old sequential nested loops.
    let mut cells = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for &severity in &SEVERITIES {
            for &rate in &RATES {
                let key = format!("{},{rate:.2},{severity:.1}", w.name);
                cells.push((key, wi, rate, severity));
            }
        }
    }
    let summaries = map_ordered(&cells, workers, |_, &(_, wi, rate, severity)| {
        run_resilient(&workloads[wi], plan_for(rate, severity))
    });
    cells
        .into_iter()
        .zip(summaries)
        .map(|((key, _, _, _), s)| (key, s))
        .collect()
}

fn main() {
    let ws = workloads();
    let workers = RunConfig::from_env().workers;
    let first = sweep(&ws, workers);

    println!(
        "workload,rate,severity,avg_energy,miss_rate,overruns,stalls,denials,\
         retransmits,guard_band,safe_mode,unschedulable,recoveries,rejected,failed,calls"
    );
    for (key, s) in &first {
        println!(
            "{key},{:.4},{:.4},{},{},{},{},{},{},{},{},{},{},{}",
            s.avg_energy(),
            s.miss_rate(),
            s.faults.overruns,
            s.faults.stalls,
            s.faults.denials,
            s.faults.retransmits,
            s.degrade.guard_band_escalations,
            s.degrade.safe_mode_escalations,
            s.degrade.unschedulable_events,
            s.degrade.recoveries,
            s.degrade.rejected_reschedules,
            s.degrade.failed_reschedules,
            s.calls,
        );
    }

    // Determinism: re-running the sweep on a single worker must reproduce
    // every parallel cell bit-for-bit (the pool's ordered-merge guarantee
    // as an executable check, on top of the FaultPlan seed guarantee).
    let second = sweep(&ws, 1);
    assert_eq!(first.len(), second.len());
    for ((k1, s1), (k2, s2)) in first.iter().zip(&second) {
        assert_eq!(k1, k2);
        assert_eq!(s1, s2, "non-deterministic chaos cell {k1}");
    }
    println!(
        "\ndeterminism: PASS ({} cells reproduced bit-for-bit, {workers} workers vs 1)",
        first.len()
    );

    // Shape check: miss rate should not decrease as the fault rate grows
    // (weak monotonicity per workload × severity).
    let mut violations = 0;
    for chunk in first.chunks(RATES.len()) {
        for pair in chunk.windows(2) {
            if pair[1].1.miss_rate() + 1e-12 < pair[0].1.miss_rate() {
                violations += 1;
            }
        }
    }
    println!(
        "monotonicity: {violations} inversions across {} adjacent rate pairs",
        { first.len() / RATES.len() * (RATES.len() - 1) }
    );

    // Gilbert–Elliott burst scenario: the same base rate modulated by a
    // two-state burst chain. Correlated fault storms are what the serve
    // engine's overload layer is built for; here the resilient runner
    // shows the raw pressure curve (fault volume and miss rate vs burst
    // intensity) and that the burst chain is exactly reproducible.
    println!("\nburst scenario (base rate {BURST_BASE_RATE}, x{BURST_MULTIPLIER} in bad state):");
    println!("workload,p_enter,avg_energy,miss_rate,faults,guard_band,safe_mode");
    let mut burst_rows: Vec<(f64, RunSummary)> = Vec::new();
    for w in &ws {
        for &p_enter in &BURST_P_ENTER {
            let s = run_resilient(w, burst_plan(p_enter));
            println!(
                "{},{p_enter:.2},{:.4},{:.4},{},{},{}",
                w.name,
                s.avg_energy(),
                s.miss_rate(),
                s.faults.overruns + s.faults.stalls + s.faults.denials + s.faults.retransmits,
                s.degrade.guard_band_escalations,
                s.degrade.safe_mode_escalations,
            );
            burst_rows.push((p_enter, s));
        }
    }
    // Determinism: every burst cell must reproduce bit-for-bit.
    for (w, chunk) in ws.iter().zip(burst_rows.chunks(BURST_P_ENTER.len())) {
        for (p_enter, s) in chunk {
            let again = run_resilient(w, burst_plan(*p_enter));
            assert_eq!(
                &again, s,
                "non-deterministic burst cell {}/{p_enter}",
                w.name
            );
        }
        // Pressure check: the stormiest chain must inject at least as many
        // faults as the uniform control on every workload.
        let volume = |s: &RunSummary| {
            s.faults.overruns + s.faults.stalls + s.faults.denials + s.faults.retransmits
        };
        assert!(
            volume(&chunk[chunk.len() - 1].1) >= volume(&chunk[0].1),
            "{}: burst storms must not inject fewer faults than the control",
            w.name
        );
    }
    println!(
        "burst determinism: PASS ({} cells reproduced bit-for-bit)",
        burst_rows.len()
    );
}
