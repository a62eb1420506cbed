//! Quickstart: build a small conditional task graph, schedule it with the
//! online algorithm, and compare nominal vs. stretched energy for both
//! branch outcomes.
//!
//! Run with `cargo run --example quickstart`.

use adaptive_dvfs::prelude::*;
use adaptive_dvfs::sched::SpeedAssignment;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // ---- Application: a sensor pipeline with one conditional branch. ----
    // sense → decide →(alt 0: heavy filter → fuse) | (alt 1: light filter)
    //                                 └──────────────→ actuate (or-join)
    let mut b = CtgBuilder::new("sensor-pipeline");
    let sense = b.add_task("sense");
    let decide = b.add_task("decide");
    let heavy = b.add_task("heavy_filter");
    let fuse = b.add_task("fuse");
    let light = b.add_task("light_filter");
    let actuate = b.add_task_with_kind("actuate", adaptive_dvfs::ctg::NodeKind::Or);
    b.add_edge(sense, decide, 0.5)?;
    b.add_cond_edge(decide, heavy, 0, 2.0)?;
    b.add_edge(heavy, fuse, 2.0)?;
    b.add_cond_edge(decide, light, 1, 0.5)?;
    b.add_edge(fuse, actuate, 1.0)?;
    b.add_edge(light, actuate, 0.5)?;
    let ctg = b.deadline(60.0).build()?;

    // ---- Platform: two PEs with a shared link. ----
    let mut pb = PlatformBuilder::new(ctg.num_tasks());
    let p0 = pb.add_pe("big-core");
    let p1 = pb.add_pe("little-core");
    for (t, w) in [(0, 2.0), (1, 1.0), (2, 8.0), (3, 3.0), (4, 2.0), (5, 1.5)] {
        pb.set_wcet_row(t, vec![w, w * 1.4])?;
        pb.set_energy_row(t, vec![w * 1.2, w * 0.8])?;
    }
    pb.set_link(p0, p1, 2.0, 0.2)?;
    let platform = pb.build()?;

    // ---- Schedule with branch probabilities. ----
    let ctx = SchedContext::new(ctg, platform)?;
    let mut probs = BranchProbs::uniform(ctx.ctg());
    probs.set(decide, vec![0.7, 0.3])?;

    // `SchedulerKind::Dls` is the paper's pipeline: DLS mapping, then
    // Fig. 2 stretching. The other kinds swap in a different mapper or
    // speed policy.
    let solution = SchedulerKind::Dls.solve(&ctx, &probs)?;
    for kind in [SchedulerKind::Heft, SchedulerKind::Lookahead] {
        let alt = kind.solve(&ctx, &probs)?;
        println!(
            "{kind:9} expected energy {:.2} (dls {:.2})",
            alt.expected_energy(&ctx, &probs),
            solution.expected_energy(&ctx, &probs),
        );
    }
    println!("schedule (worst case at nominal speed):");
    for t in ctx.ctg().tasks() {
        println!(
            "  {:14} on {} at t={:5.1}..{:5.1}  speed {:.2}",
            ctx.ctg().node(t).name(),
            ctx.platform().pe(solution.schedule.pe_of(t)).name(),
            solution.schedule.start(t),
            solution.schedule.finish(t),
            solution.speeds.speed(t),
        );
    }

    // ---- Execute both branch outcomes and compare with nominal speed. ----
    let nominal = Solution {
        schedule: solution.schedule.clone(),
        speeds: SpeedAssignment::nominal(ctx.ctg().num_tasks()),
    };
    for (label, alt) in [("heavy branch", 0u8), ("light branch", 1u8)] {
        let v = DecisionVector::new(vec![alt]);
        let run = simulate_instance(&ctx, &solution, &v)?;
        let base = simulate_instance(&ctx, &nominal, &v)?;
        println!(
            "\n{label}: energy {:.2} (nominal {:.2}, saved {:.0}%), makespan {:.1} / deadline {:.0}, met: {}",
            run.energy,
            base.energy,
            100.0 * (1.0 - run.energy / base.energy),
            run.makespan,
            ctx.ctg().deadline(),
            run.deadline_met,
        );
        print!(
            "{}",
            adaptive_dvfs::sim::gantt::render(&ctx, &solution, &run, 72)
        );
    }
    Ok(())
}
