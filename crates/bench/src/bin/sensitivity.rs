//! Sensitivity of the adaptive algorithm to its two knobs — window length
//! and adaptation threshold (paper §III.B: "the window size and the
//! threshold determine how frequently the online scheduling and DVFS is
//! called and they also impact how well the algorithm adapts").
//!
//! Sweeps a grid on the MPEG workload and reports savings vs. the
//! non-adaptive online baseline together with the call counts, plus a
//! second sweep over DVFS level granularity (continuous vs. discrete).

use ctg_bench::report::{pct, Table};
use ctg_bench::setup::{prepare_mpeg, profile_trace};
use ctg_sched::{AdaptiveScheduler, EstimatorKind, OnlineScheduler, SchedContext};
use ctg_sim::{map_ordered, RunConfig, Runner};
use ctg_workloads::traces;
use mpsoc_platform::DvfsModel;

const LEN: usize = 1600;

fn main() {
    let ctx = prepare_mpeg(2.0);
    let movie = &traces::movie_presets()[1]; // Bike: strong scene drift
    let trace = traces::generate_trace(ctx.ctg(), &movie.profile, LEN);
    let (train, test) = trace.split_at(LEN / 2);
    let profiled = profile_trace(&ctx, train);
    let online = OnlineScheduler::new()
        .solve(&ctx, &profiled)
        .expect("online solves");
    let runner = Runner::default();
    let s_online = runner.run_static(&ctx, &online, test).expect("static run");

    let workers = RunConfig::from_env().workers;
    let windows = [8usize, 20, 50];
    let thresholds = [0.5, 0.25, 0.1, 0.05];
    // Flatten the window × threshold grid and fan the cells out; ordered
    // merging reassembles the rows exactly as the nested loops printed them.
    let grid: Vec<(usize, f64)> = windows
        .iter()
        .flat_map(|&w| thresholds.iter().map(move |&t| (w, t)))
        .collect();
    let grid_cells = map_ordered(&grid, workers, |_, &(w, t)| {
        let mgr = AdaptiveScheduler::new(&ctx, profiled.clone(), w, t).expect("manager builds");
        let (s, _) = runner.run_adaptive(&ctx, mgr, test).expect("adaptive run");
        assert_eq!(s.exec.deadline_misses, 0);
        let savings = 1.0 - s.avg_energy() / s_online.avg_energy();
        format!("{} ({} calls)", pct(savings), s.calls)
    });
    let mut table = Table::new(["window \\ T", "0.5", "0.25", "0.1", "0.05"]);
    for (wi, &w) in windows.iter().enumerate() {
        let mut row = vec![w.to_string()];
        row.extend_from_slice(&grid_cells[wi * thresholds.len()..(wi + 1) * thresholds.len()]);
        table.row(row);
    }
    table.print(&format!(
        "Adaptive sensitivity on MPEG/{} (savings vs online, {} test instances)",
        movie.name,
        test.len()
    ));

    // ---- Estimator comparison: sliding window vs EWMA. ----
    let estimators = [
        ("window 20", EstimatorKind::Window(20)),
        ("window 50", EstimatorKind::Window(50)),
        ("EWMA a=0.05", EstimatorKind::Ewma(0.05)),
        ("EWMA a=0.1", EstimatorKind::Ewma(0.1)),
        ("EWMA a=0.3", EstimatorKind::Ewma(0.3)),
    ];
    let est_rows = map_ordered(&estimators, workers, |_, &(label, kind)| {
        let mgr = AdaptiveScheduler::with_estimator(
            &ctx,
            profiled.clone(),
            kind,
            0.1,
            OnlineScheduler::new(),
        )
        .expect("manager builds");
        let (s, _) = runner.run_adaptive(&ctx, mgr, test).expect("adaptive run");
        assert_eq!(s.exec.deadline_misses, 0);
        [
            label.to_string(),
            pct(1.0 - s.avg_energy() / s_online.avg_energy()),
            s.calls.to_string(),
        ]
    });
    let mut est_table = Table::new(["estimator", "savings", "calls"]);
    for row in est_rows {
        est_table.row(row);
    }
    est_table.print("Estimator comparison at threshold 0.1 (extension: EWMA vs window)");

    // ---- DVFS granularity: continuous vs. discrete levels. ----
    let dvfs_models = [
        ("continuous", DvfsModel::Continuous),
        (
            "8 levels",
            DvfsModel::discrete((1..=8).map(|i| i as f64 / 8.0).collect()),
        ),
        ("4 levels", DvfsModel::discrete(vec![0.25, 0.5, 0.75, 1.0])),
        ("2 levels", DvfsModel::discrete(vec![0.5, 1.0])),
    ];
    let energies = map_ordered(&dvfs_models, workers, |_, (_, model)| {
        energy_with_dvfs(&ctx, &profiled, test, model.clone())
    });
    let base = energies[0]; // continuous is the first model
    let mut dvfs_table = Table::new(["DVFS model", "online energy", "vs continuous"]);
    for ((label, _), &e) in dvfs_models.iter().zip(&energies) {
        dvfs_table.row([
            label.to_string(),
            format!("{e:.2}"),
            format!("{:+.1}%", 100.0 * (e / base - 1.0)),
        ]);
    }
    dvfs_table.print("DVFS level granularity (speeds round UP to the next level — deadline-safe)");
    println!(
        "\ncoarser level sets waste the fractional slack between levels; the paper\n\
         assumes continuous scaling, the extension quantifies the gap."
    );
}

fn energy_with_dvfs(
    ctx: &SchedContext,
    probs: &ctg_model::BranchProbs,
    test: &[ctg_model::DecisionVector],
    model: DvfsModel,
) -> f64 {
    let platform = ctx.platform().with_dvfs(model);
    let ctx = SchedContext::new(ctx.ctg().clone(), platform).expect("rebuild context");
    let online = OnlineScheduler::new().solve(&ctx, probs).expect("solves");
    let s = Runner::default()
        .run_static(&ctx, &online, test)
        .expect("static run");
    assert_eq!(
        s.exec.deadline_misses, 0,
        "quantized speeds must stay deadline-safe"
    );
    s.avg_energy()
}
