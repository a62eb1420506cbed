//! Table 3 — energy consumption of the vehicle cruise-controller system:
//! non-adaptive vs. adaptive over three road-condition vector sequences.
//!
//! Paper shape targets: savings hover around 5% (the CTG has only three
//! minterms and a 2× deadline, leaving little room); calls ≈ 150 at
//! T = 0.1 and ≈ 9 at T = 0.5.

use ctg_bench::report::{f1, pct, Table};
use ctg_bench::setup::{prepare_cruise, profile_trace};
use ctg_sched::{AdaptiveScheduler, OnlineScheduler};
use ctg_sim::Runner;
use ctg_workloads::traces;

const WINDOW: usize = 20;
const LEN: usize = 1000;

fn main() {
    // Paper: deadline = 2× the optimal schedule length, 5 PEs, 32 tasks.
    let ctx = prepare_cruise(2.0);
    let roads = traces::road_presets();
    // Sequence 1 is the training sequence for the non-adaptive profile.
    let seqs: Vec<Vec<ctg_model::DecisionVector>> = roads
        .iter()
        .map(|r| traces::generate_trace(ctx.ctg(), &r.profile, LEN))
        .collect();
    let profiled = profile_trace(&ctx, &seqs[0]);
    let online = OnlineScheduler::new()
        .solve(&ctx, &profiled)
        .expect("online solves");

    // Paper: threshold 0.1 for the first two sequences, 0.5 for the third.
    let thresholds = [0.1, 0.1, 0.5];
    let runner = Runner::default();

    let mut table = Table::new([
        "Vector sequence",
        "Non-adaptive",
        "Adaptive",
        "Savings",
        "Calls",
        "T",
    ]);
    for (i, seq) in seqs.iter().enumerate() {
        let s_static = runner.run_static(&ctx, &online, seq).expect("static run");
        let mgr = AdaptiveScheduler::new(&ctx, profiled.clone(), WINDOW, thresholds[i])
            .expect("manager builds");
        let (s_adaptive, _) = runner.run_adaptive(&ctx, mgr, seq).expect("adaptive run");
        assert_eq!(s_adaptive.exec.deadline_misses, 0, "hard deadline violated");
        assert_eq!(s_static.exec.deadline_misses, 0, "hard deadline violated");
        let savings = 1.0 - s_adaptive.avg_energy() / s_static.avg_energy();
        table.row([
            format!("{}", i + 1),
            f1(s_static.avg_energy()),
            f1(s_adaptive.avg_energy()),
            pct(savings),
            s_adaptive.calls.to_string(),
            format!("{}", thresholds[i]),
        ]);
    }
    table.print("Table 3: energy consumption of vehicle cruise controller system");
    println!(
        "\npaper: savings ~5% in all three cases (three-minterm CTG, 2x deadline); \
         calls ~150 @ T=0.1, ~9 @ T=0.5"
    );
}
