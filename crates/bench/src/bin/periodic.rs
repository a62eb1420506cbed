//! Periodic execution study (extension).
//!
//! The paper assumes period = deadline. This bench sweeps the release period
//! of the MPEG decoder below the deadline and reports when back-to-back
//! instances begin to overrun — the sustainable throughput of the stretched
//! schedule — and how much throughput margin running at nominal speed keeps
//! in reserve.

use ctg_bench::report::{f1, Table};
use ctg_bench::setup::{prepare_mpeg, profile_trace};
use ctg_sched::{OnlineScheduler, Solution, SpeedAssignment};
use ctg_sim::Runner;
use ctg_workloads::traces;

const LEN: usize = 300;

fn main() {
    let ctx = prepare_mpeg(2.0);
    let movie = &traces::movie_presets()[0];
    let trace = traces::generate_trace(ctx.ctg(), &movie.profile, LEN);
    let profiled = profile_trace(&ctx, &trace);
    let stretched = OnlineScheduler::new()
        .solve(&ctx, &profiled)
        .expect("online solves");
    let nominal = Solution {
        schedule: stretched.schedule.clone(),
        speeds: SpeedAssignment::nominal(ctx.ctg().num_tasks()),
    };

    let deadline = ctx.ctg().deadline();
    let mut table = Table::new([
        "period (×deadline)",
        "stretched overruns",
        "stretched max lateness",
        "nominal overruns",
        "nominal max lateness",
    ]);
    let runner = Runner::default();
    for factor in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4] {
        let period = factor * deadline;
        let s = runner
            .run_periodic(&ctx, &stretched, &trace, period)
            .expect("periodic run");
        let n = runner
            .run_periodic(&ctx, &nominal, &trace, period)
            .expect("periodic run");
        table.row([
            format!("{factor}"),
            s.overruns.to_string(),
            f1(s.max_lateness),
            n.overruns.to_string(),
            f1(n.max_lateness),
        ]);
    }
    table.print("Periodic release sweep on MPEG (deadline-relative periods)");
    println!(
        "\nthe stretched schedule consumes its slack as energy savings, so its\n\
         sustainable period sits near the deadline; the nominal-speed schedule\n\
         tolerates much shorter periods — the classic energy/throughput trade."
    );
}
