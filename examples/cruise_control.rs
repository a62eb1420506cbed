//! The vehicle cruise-controller case study: a 32-task, 2-fork CTG on five
//! ECUs, driven by synthetic road-condition sequences.
//!
//! Run with `cargo run --release --example cruise_control`.

use adaptive_dvfs::prelude::*;
use adaptive_dvfs::sched::dls_schedule;
use adaptive_dvfs::workloads::{cruise, traces};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let ctg = cruise::cruise_ctg();
    let platform = cruise::cruise_platform(&ctg);
    let ctx = SchedContext::new(ctg, platform)?;
    let probs = BranchProbs::uniform(ctx.ctg());
    // Paper: the deadline is twice the optimal schedule length.
    let makespan = dls_schedule(&ctx, &probs)?.makespan();
    let ctx = SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )?;
    println!(
        "cruise controller: {} tasks, {} forks, {} scenarios (paper: three minterms)",
        ctx.ctg().num_tasks(),
        ctx.ctg().num_branches(),
        ctx.scenarios().len()
    );

    // Train on road sequence 1, test on all three.
    let roads = traces::road_presets();
    let seqs: Vec<_> = roads
        .iter()
        .map(|r| traces::generate_trace(ctx.ctg(), &r.profile, 1000))
        .collect();
    let profiled = traces::empirical_probs(ctx.ctg(), ctx.activation(), &seqs[0]);
    let online = OnlineScheduler::new().solve(&ctx, &profiled)?;

    let runner = Runner::new(RunConfig::new());
    for (road, seq) in roads.iter().zip(&seqs) {
        let s_static = runner.run_static(&ctx, &online, seq)?;
        let manager = AdaptiveScheduler::new(&ctx, profiled.clone(), 20, 0.1)?;
        let (s_adaptive, _) = runner.run_adaptive(&ctx, manager, seq)?;
        println!(
            "{}: non-adaptive {:.2}, adaptive {:.2} ({:+.1}%), {} calls, {} misses",
            road.name,
            s_static.avg_energy(),
            s_adaptive.avg_energy(),
            100.0 * (s_adaptive.avg_energy() / s_static.avg_energy() - 1.0),
            s_adaptive.calls,
            s_adaptive.exec.deadline_misses,
        );
    }
    println!("(the paper reports ~5% savings — small because the CTG has only three minterms)");
    Ok(())
}
