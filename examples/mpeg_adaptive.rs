//! The paper's headline scenario: decode a stream of MPEG macroblocks on a
//! 3-PE MPSoC while the adaptive manager tracks the branch statistics and
//! re-runs scheduling + DVFS when they drift.
//!
//! Run with `cargo run --release --example mpeg_adaptive`.

use adaptive_dvfs::prelude::*;
use adaptive_dvfs::sched::dls_schedule;
use adaptive_dvfs::workloads::{mpeg, traces};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // MPEG macroblock decoder: 40 tasks, 9 branch fork nodes, 3 PEs.
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);

    // Calibrate the deadline to 2x the nominal worst-case makespan.
    let ctx = SchedContext::new(ctg, platform)?;
    let probs = BranchProbs::uniform(ctx.ctg());
    let makespan = dls_schedule(&ctx, &probs)?.makespan();
    let ctx = SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )?;
    println!(
        "MPEG decoder: {} tasks, {} forks, deadline {:.1} (2x makespan {:.1})",
        ctx.ctg().num_tasks(),
        ctx.ctg().num_branches(),
        ctx.ctg().deadline(),
        makespan
    );

    // A movie: 1000 training + 1000 testing macroblocks.
    let movie = &traces::movie_presets()[1]; // "Bike"
    let trace = traces::generate_trace(ctx.ctg(), &movie.profile, 2000);
    let (train, test) = traces::split_train_test(&trace);

    // Non-adaptive online algorithm: profile once, schedule once.
    let profiled = traces::empirical_probs(ctx.ctg(), ctx.activation(), train);
    let online = OnlineScheduler::new().solve(&ctx, &profiled)?;
    let s_static = Runner::new(RunConfig::new()).run_static(&ctx, &online, test)?;

    // Adaptive: sliding window 20, threshold 0.1 — with telemetry on (the
    // simulated results are bit-identical to a telemetry-off run).
    let sink = Arc::new(BufferedSink::new(1));
    let obs = Obs::with_sink(sink.clone());
    let manager = AdaptiveScheduler::new(&ctx, profiled, 20, 0.1)?;
    let (s_adaptive, manager) =
        Runner::new(RunConfig::new().obs(obs.clone())).run_adaptive(&ctx, manager, test)?;

    println!(
        "movie {:8}: online avg energy {:.2}, adaptive avg energy {:.2} ({:.1}% saved)",
        movie.name,
        s_static.avg_energy(),
        s_adaptive.avg_energy(),
        100.0 * (1.0 - s_adaptive.avg_energy() / s_static.avg_energy()),
    );
    println!(
        "re-scheduling calls: {} over {} macroblocks; deadline misses: {} (must be 0)",
        s_adaptive.calls, s_adaptive.exec.instances, s_adaptive.exec.deadline_misses
    );
    println!("final tracked probabilities: {}", manager.current_probs());

    // Portfolio mode: race DLS against HEFT and the lookahead variant on
    // every drift event, adopting the lowest expected-energy schedulable
    // plan. Never worse than DLS alone on any drift event by construction.
    let manager = AdaptiveScheduler::new(
        &ctx,
        traces::empirical_probs(ctx.ctg(), ctx.activation(), train),
        20,
        0.1,
    )?;
    let (s_portfolio, manager) = Runner::new(RunConfig::new().portfolio(&DEFAULT_PORTFOLIO))
        .run_adaptive(&ctx, manager, test)?;
    let stats = manager.portfolio_stats();
    let wins: Vec<String> = DEFAULT_PORTFOLIO
        .iter()
        .map(|k| format!("{k}:{}", stats.wins[k.index()]))
        .collect();
    println!(
        "portfolio avg energy {:.2} over {} races (wins {})",
        s_portfolio.avg_energy(),
        stats.races,
        wins.join(" "),
    );
    if let Some(metrics) = obs.metrics_snapshot() {
        println!(
            "telemetry: {} span/instant events recorded; metrics {}",
            sink.snapshot_sorted().len(),
            metrics.to_json()
        );
    }
    Ok(())
}
