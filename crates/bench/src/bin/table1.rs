//! Table 1 — normalized energy of the online algorithm vs. reference
//! algorithms 1 and 2 on five random CTGs, plus per-algorithm runtimes
//! (the paper: ref. 1 ≈ +39% energy on average; online ≈ +8% vs. ref. 2;
//! online ≈ 120 000× faster than ref. 2).
//!
//! Grown past the paper: a scheduler column block compares the
//! [`CtgScheduler`](ctg_sched::CtgScheduler) implementors (HEFT, the lookahead list scheduler and
//! the frame-based DVFS baseline) and the racing portfolio on the same
//! cases, normalized the same way. The portfolio is asserted never worse
//! than the online (DLS) pipeline on every row — the race's DLS-first
//! tie-breaking makes that a structural guarantee, not a lucky sample.

use ctg_bench::report::{f1, Table};
use ctg_bench::setup::prepare_case;
use ctg_obs::Obs;
use ctg_sched::baseline::{reference1, reference2, NlpConfig};
use ctg_sched::{
    race_portfolio, OnlineScheduler, SchedulerKind, SolverWorkspace, StretchConfig,
    DEFAULT_PORTFOLIO,
};
use ctg_sim::{map_ordered, worker_count};
use std::time::{Duration, Instant};

struct CaseResult {
    label: String,
    n1: f64,
    n2: f64,
    n_heft: f64,
    n_look: f64,
    n_frame: f64,
    n_portfolio: f64,
    winner: &'static str,
    t_online: Duration,
    t_ref2: Duration,
}

fn run_case(cfg: &tgff_gen::TgffConfig, pes: usize) -> CaseResult {
    let case = prepare_case(cfg, pes, 1.6);
    let (ctx, probs) = (&case.ctx, &case.probs);

    let t0 = Instant::now();
    let online = OnlineScheduler::with_config(StretchConfig::default())
        .solve(ctx, probs)
        .expect("online solves");
    let t_online = t0.elapsed();

    let ref1 = reference1(ctx, &StretchConfig::default()).expect("ref1 solves");

    let t0 = Instant::now();
    let ref2 = reference2(ctx, probs, &NlpConfig::default()).expect("ref2 solves");
    let t_ref2 = t0.elapsed();

    let e_online = online.expected_energy(ctx, probs);
    let e_ref1 = ref1.expected_energy(ctx, probs);
    let e_ref2 = ref2.expected_energy(ctx, probs);

    // The trait implementors on the same case, same normalization.
    let norm = |kind: SchedulerKind| {
        let sol = kind.solve(ctx, probs).expect("scheduler solves");
        100.0 * sol.expected_energy(ctx, probs) / e_online
    };
    let n_heft = norm(SchedulerKind::Heft);
    let n_look = norm(SchedulerKind::Lookahead);
    let n_frame = norm(SchedulerKind::FrameDvfs);

    // The default racing portfolio; DLS races too, so the winner can never
    // be worse than the online pipeline.
    let mut wss: Vec<SolverWorkspace> = DEFAULT_PORTFOLIO
        .iter()
        .map(|_| SolverWorkspace::new())
        .collect();
    let outcome = race_portfolio(
        &DEFAULT_PORTFOLIO,
        ctx,
        probs,
        &mut wss,
        &Obs::disabled(),
        0,
    )
    .expect("portfolio race solves");
    let n_portfolio = 100.0 * outcome.energy / e_online;
    assert!(
        n_portfolio <= 100.0 + 1e-9,
        "portfolio must never lose to the online pipeline: {n_portfolio:.6} on {}",
        case.label
    );

    CaseResult {
        label: case.label,
        // Normalize: online = 100 (as in the paper).
        n1: 100.0 * e_ref1 / e_online,
        n2: 100.0 * e_ref2 / e_online,
        n_heft,
        n_look,
        n_frame,
        n_portfolio,
        winner: DEFAULT_PORTFOLIO[outcome.winner].name(),
        t_online,
        t_ref2,
    }
}

fn main() {
    let mut table = Table::new([
        "CTG",
        "a/b/c",
        "Ref. Alg. 1",
        "Ref. Alg. 2",
        "Online",
        "t_online",
        "t_ref2",
    ]);
    let mut sched_table = Table::new([
        "CTG",
        "Online",
        "HEFT",
        "Lookahead",
        "Frame",
        "Portfolio",
        "Winner",
    ]);
    let mut sum_ref1 = 0.0;
    let mut sum_ref2 = 0.0;
    let mut sum_portfolio = 0.0;
    let mut speedups = Vec::new();

    // The cases are independent; fan them out and merge in table order. The
    // energy columns are bit-identical to a sequential run; only the timing
    // columns feel scheduler contention.
    let cases = tgff_gen::table1_cases();
    let results = map_ordered(&cases, worker_count(), |_, (cfg, pes)| run_case(cfg, *pes));

    for (i, r) in results.into_iter().enumerate() {
        sum_ref1 += r.n1;
        sum_ref2 += r.n2;
        sum_portfolio += r.n_portfolio;
        speedups.push(r.t_ref2.as_secs_f64() / r.t_online.as_secs_f64());
        table.row([
            format!("{}", i + 1),
            r.label,
            f1(r.n1),
            f1(r.n2),
            "100.0".to_string(),
            format!("{:.2?}", r.t_online),
            format!("{:.2?}", r.t_ref2),
        ]);
        sched_table.row([
            format!("{}", i + 1),
            "100.0".to_string(),
            f1(r.n_heft),
            f1(r.n_look),
            f1(r.n_frame),
            f1(r.n_portfolio),
            r.winner.to_string(),
        ]);
    }
    table.print("Table 1: energy consumption of online algorithm (online = 100)");
    let n = tgff_gen::table1_cases().len() as f64;
    println!(
        "\navg ref1 = {:.1} (paper: online saves ~39% vs ref1)\navg ref2 = {:.1} (paper: online loses ~8% to ref2)",
        sum_ref1 / n,
        sum_ref2 / n
    );
    let avg_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!(
        "avg online-vs-ref2 speedup = {avg_speedup:.0}x (paper: ~120000x with a true NLP solver)"
    );
    sched_table.print("Table 1b: CtgScheduler implementors on the same cases (online = 100)");
    println!(
        "\navg portfolio = {:.1} (never above 100.0 by construction)",
        sum_portfolio / n
    );
}
