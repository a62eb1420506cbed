//! Figure 5 + Table 2 — MPEG average energy for eight movie clips under the
//! non-adaptive online algorithm and the adaptive algorithm with thresholds
//! 0.5 and 0.1 (window 20), plus the re-scheduling call counts.
//!
//! Paper shape targets: adaptive saves ~21% (T = 0.5) and ~23% (T = 0.1)
//! over the online algorithm; call counts average ~9 (T = 0.5) and ~162
//! (T = 0.1).

use ctg_bench::report::{f1, pct, Table};
use ctg_bench::setup::{prepare_mpeg, profile_trace};
use ctg_sched::{AdaptiveScheduler, OnlineScheduler, DEFAULT_PORTFOLIO};
use ctg_sim::{map_ordered, RunConfig, RunSummary, Runner};
use ctg_workloads::traces;

const WINDOW: usize = 20;
const TRAIN: usize = 1000;
const TEST: usize = 1000;

fn main() {
    let ctx = prepare_mpeg(2.0);
    let mut energy_table = Table::new([
        "Movie",
        "Online",
        "Adaptive T=0.5",
        "Adaptive T=0.1",
        "Portfolio T=0.1",
        "Sav. 0.5",
        "Sav. 0.1",
        "Sav. pf",
    ]);
    let mut calls_table = Table::new(["Movie", "T=0.5", "T=0.1"]);
    let (mut sum05, mut sum01, mut sumpf, mut n) = (0.0, 0.0, 0.0, 0usize);
    let (mut csum05, mut csum01) = (0usize, 0usize);

    // One independent cell per movie clip, merged back in preset order.
    let movies = traces::movie_presets();
    let per_movie: Vec<(RunSummary, Vec<RunSummary>)> =
        map_ordered(&movies, RunConfig::from_env().workers, |_, movie| {
            let trace = traces::generate_trace(ctx.ctg(), &movie.profile, TRAIN + TEST);
            let (train, test) = trace.split_at(TRAIN);

            // Non-adaptive: profile the training half, schedule once.
            let profiled = profile_trace(&ctx, train);
            let online = OnlineScheduler::new()
                .solve(&ctx, &profiled)
                .expect("online solves");
            let s_online = Runner::default()
                .run_static(&ctx, &online, test)
                .expect("static run");

            // Adaptive: same initial (profiled) probabilities, window 20.
            let mut results = Vec::new();
            for threshold in [0.5, 0.1] {
                let mgr = AdaptiveScheduler::new(&ctx, profiled.clone(), WINDOW, threshold)
                    .expect("manager builds");
                let (summary, _) = Runner::default()
                    .run_adaptive(&ctx, mgr, test)
                    .expect("adaptive run");
                assert_eq!(summary.exec.deadline_misses, 0, "hard deadline violated");
                results.push(summary);
            }
            // Portfolio racing at the aggressive threshold: same manager
            // knobs, every drift event races DLS/HEFT/lookahead and adopts
            // the lowest expected-energy schedulable plan.
            let mgr = AdaptiveScheduler::new(&ctx, profiled.clone(), WINDOW, 0.1)
                .expect("manager builds");
            let (summary, _) = Runner::new(RunConfig::new().portfolio(&DEFAULT_PORTFOLIO))
                .run_adaptive(&ctx, mgr, test)
                .expect("portfolio run");
            assert_eq!(summary.exec.deadline_misses, 0, "hard deadline violated");
            results.push(summary);
            (s_online, results)
        });

    for (movie, (s_online, results)) in movies.iter().zip(&per_movie) {
        let (a05, a01, apf) = (&results[0], &results[1], &results[2]);
        let e_on = s_online.avg_energy();
        let sav05 = 1.0 - a05.avg_energy() / e_on;
        let sav01 = 1.0 - a01.avg_energy() / e_on;
        let savpf = 1.0 - apf.avg_energy() / e_on;
        sum05 += sav05;
        sum01 += sav01;
        sumpf += savpf;
        csum05 += a05.calls;
        csum01 += a01.calls;
        n += 1;
        assert!(
            apf.avg_energy() <= a01.avg_energy() + 1e-9,
            "portfolio must not regress DLS-only adaptation on {}: {} > {}",
            movie.name,
            apf.avg_energy(),
            a01.avg_energy(),
        );

        energy_table.row([
            movie.name.to_string(),
            f1(e_on),
            f1(a05.avg_energy()),
            f1(a01.avg_energy()),
            f1(apf.avg_energy()),
            pct(sav05),
            pct(sav01),
            pct(savpf),
        ]);
        calls_table.row([
            movie.name.to_string(),
            a05.calls.to_string(),
            a01.calls.to_string(),
        ]);
    }

    energy_table.print("Figure 5: MPEG energy consumption with varying thresholds");
    println!(
        "\navg savings: T=0.5 {} (paper ~21%), T=0.1 {} (paper ~23%), portfolio {}",
        pct(sum05 / n as f64),
        pct(sum01 / n as f64),
        pct(sumpf / n as f64)
    );
    calls_table.print("Table 2: algorithm call count for MPEG movies");
    println!(
        "\navg calls: T=0.5 {:.0} (paper ~9), T=0.1 {:.0} (paper ~162)",
        csum05 as f64 / n as f64,
        csum01 as f64 / n as f64
    );
}
