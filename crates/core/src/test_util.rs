//! Shared fixtures for unit and integration tests.
//!
//! Public so downstream crates can reuse the fixtures in their own tests,
//! but hidden from documentation: nothing here is part of the stable API.

use crate::context::SchedContext;
use ctg_model::{BranchProbs, Ctg, CtgBuilder, NodeKind, TaskId};
use mpsoc_platform::{Platform, PlatformBuilder};

/// A fully connected platform where every task has identical WCET/energy on
/// every PE.
pub fn uniform_platform(num_tasks: usize, num_pes: usize, wcet: f64, energy: f64) -> Platform {
    let mut b = PlatformBuilder::new(num_tasks);
    for i in 0..num_pes {
        b.add_pe(format!("pe{i}"));
    }
    for t in 0..num_tasks {
        b.set_wcet_row(t, vec![wcet; num_pes]).unwrap();
        b.set_energy_row(t, vec![energy; num_pes]).unwrap();
    }
    b.uniform_links(10.0, 0.05).unwrap();
    b.build().unwrap()
}

/// The CTG of the paper's Example 1 (Figure 1): τ1…τ8 with fork τ3 (a1/a2),
/// fork τ5 (b1/b2) and or-node τ8.
pub fn example1_ctg(deadline: f64) -> (Ctg, [TaskId; 8]) {
    let mut b = CtgBuilder::new("example1");
    let t1 = b.add_task("t1");
    let t2 = b.add_task("t2");
    let t3 = b.add_task("t3");
    let t4 = b.add_task("t4");
    let t5 = b.add_task("t5");
    let t6 = b.add_task("t6");
    let t7 = b.add_task("t7");
    let t8 = b.add_task_with_kind("t8", NodeKind::Or);
    b.add_edge(t1, t2, 1.0).unwrap();
    b.add_edge(t1, t3, 1.0).unwrap();
    b.add_cond_edge(t3, t4, 0, 1.0).unwrap();
    b.add_cond_edge(t3, t5, 1, 1.0).unwrap();
    b.add_cond_edge(t5, t6, 0, 1.0).unwrap();
    b.add_cond_edge(t5, t7, 1, 1.0).unwrap();
    b.add_edge(t2, t8, 1.0).unwrap();
    b.add_edge(t4, t8, 1.0).unwrap();
    let g = b.deadline(deadline).build().unwrap();
    (g, [t1, t2, t3, t4, t5, t6, t7, t8])
}

/// Example 1 on a 2-PE uniform platform with uniform branch probabilities.
pub fn example1_context() -> (SchedContext, BranchProbs, [TaskId; 8]) {
    let (ctg, ids) = example1_ctg(60.0);
    let probs = BranchProbs::uniform(&ctg);
    let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
    let ctx = SchedContext::new(ctg, platform).unwrap();
    (ctx, probs, ids)
}

/// A linear three-task chain on a 2-PE platform (simplest schedulable case).
pub fn chain_context(deadline: f64) -> (SchedContext, BranchProbs, [TaskId; 3]) {
    let mut b = CtgBuilder::new("chain");
    let a = b.add_task("a");
    let c = b.add_task("c");
    let d = b.add_task("d");
    b.add_edge(a, c, 1.0).unwrap();
    b.add_edge(c, d, 1.0).unwrap();
    let ctg = b.deadline(deadline).build().unwrap();
    let probs = BranchProbs::uniform(&ctg);
    let platform = uniform_platform(3, 2, 2.0, 3.0);
    let ctx = SchedContext::new(ctg, platform).unwrap();
    (ctx, probs, [a, c, d])
}

/// The MPEG decoder on its 3-PE platform with uniform branch
/// probabilities, its deadline twice the DLS makespan.
#[cfg(test)]
pub(crate) fn mpeg_context() -> (SchedContext, BranchProbs) {
    use ctg_workloads::mpeg;
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let probs = BranchProbs::uniform(&ctg);
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let makespan = crate::dls::dls_schedule(&ctx, &probs).unwrap().makespan();
    let ctx = SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )
    .unwrap();
    (ctx, probs)
}
