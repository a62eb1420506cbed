//! End-to-end scheduling/simulation with a 3-way branch fork — the model
//! generalizes beyond the paper's binary branches and the whole pipeline
//! must follow.

use adaptive_dvfs::ctg::{BranchProbs, CtgBuilder, DecisionVector, NodeKind};
use adaptive_dvfs::platform::PlatformBuilder;
use adaptive_dvfs::sched::{AdaptiveScheduler, OnlineScheduler, SchedContext};
use adaptive_dvfs::sim::{simulate_instance, Runner};

fn three_way_context() -> SchedContext {
    let mut b = CtgBuilder::new("3way");
    let src = b.add_task("src");
    let sel = b.add_task("select");
    let h0 = b.add_task("h0");
    let h1 = b.add_task("h1");
    let h2 = b.add_task("h2");
    let join = b.add_task_with_kind("join", NodeKind::Or);
    b.add_edge(src, sel, 0.1).unwrap();
    b.add_cond_edge(sel, h0, 0, 1.0).unwrap();
    b.add_cond_edge(sel, h1, 1, 1.0).unwrap();
    b.add_cond_edge(sel, h2, 2, 1.0).unwrap();
    for h in [h0, h1, h2] {
        b.add_edge(h, join, 0.5).unwrap();
    }
    let ctg = b.deadline(40.0).build().unwrap();

    let mut pb = PlatformBuilder::new(6);
    pb.add_pe("p0");
    pb.add_pe("p1");
    for (t, w) in [(0, 1.0), (1, 1.0), (2, 6.0), (3, 4.0), (4, 2.0), (5, 1.0)] {
        pb.set_wcet_row(t, vec![w, w * 1.2]).unwrap();
        pb.set_energy_row(t, vec![w, w * 0.9]).unwrap();
    }
    pb.uniform_links(4.0, 0.1).unwrap();
    SchedContext::new(ctg, pb.build().unwrap()).unwrap()
}

#[test]
fn all_three_alternatives_schedule_and_meet_deadline() {
    let ctx = three_way_context();
    let mut probs = BranchProbs::uniform(ctx.ctg());
    let sel = ctx.ctg().branch_nodes()[0];
    probs.set(sel, vec![0.6, 0.3, 0.1]).unwrap();
    let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
    let mut energies = Vec::new();
    for alt in 0..3u8 {
        let run = simulate_instance(&ctx, &solution, &DecisionVector::new(vec![alt])).unwrap();
        assert!(run.deadline_met, "alternative {alt} missed the deadline");
        assert_eq!(run.active_count(), 4); // src, select, one handler, join
        energies.push(run.energy);
    }
    // The heavy handler (h0, wcet 6) costs more than the light one (h2).
    assert!(energies[0] > energies[2]);
}

#[test]
fn adaptive_tracks_three_way_distribution() {
    let ctx = three_way_context();
    let probs = BranchProbs::uniform(ctx.ctg());
    let mgr = AdaptiveScheduler::new(&ctx, probs, 10, 0.2).unwrap();
    // A trace that settles on alternative 2.
    let trace: Vec<DecisionVector> = (0..60).map(|_| DecisionVector::new(vec![2])).collect();
    let (summary, mgr) = Runner::default().run_adaptive(&ctx, mgr, &trace).unwrap();
    assert_eq!(summary.exec.deadline_misses, 0);
    assert!(summary.calls >= 1);
    let sel = ctx.ctg().branch_nodes()[0];
    assert!(mgr.current_probs().prob(sel, 2) > 0.9);
}
