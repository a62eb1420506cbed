//! Adaptive scheduling and voltage scaling for conditional task graphs on
//! multiprocessor platforms — the core algorithms of the DATE 2008 paper
//! *"Adaptive Scheduling and Voltage Scaling for Multiprocessor Real-time
//! Applications with Non-deterministic Workload"* (Malani, Mukre, Qiu, Wu).
//!
//! The crate provides the two-stage **online algorithm** and the **adaptive
//! manager** wrapped around it:
//!
//! 1. **Mapping/ordering** — a modified dynamic-level scheduler
//!    ([`dls_schedule`]) whose static levels fold in branch probabilities and
//!    which lets mutually exclusive tasks overlap on one PE;
//! 2. **Stretching/DVFS** — a low-complexity, probability-weighted path-slack
//!    heuristic ([`stretch_schedule`], Figure 2 of the paper) assigning one
//!    speed per task while keeping every worst-case path within the deadline;
//! 3. **Adaptation** — sliding-window branch profiling with
//!    threshold-triggered re-scheduling ([`AdaptiveScheduler`]).
//!
//! Baselines from the literature used in the paper's evaluation are provided
//! in [`baseline`]: reference algorithm 1 (probability-blind, in the spirit
//! of Shin & Kim) and reference algorithm 2 (probability-aware mapping with
//! an NLP-style iterative stretching optimizer, in the spirit of Malani et
//! al. ISCAS'07).
//!
//! # Quickstart
//!
//! ```
//! use ctg_sched::{OnlineScheduler, SchedContext};
//! use ctg_model::{BranchProbs, CtgBuilder};
//! use mpsoc_platform::PlatformBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-task pipeline on one PE with a loose deadline.
//! let mut b = CtgBuilder::new("pipeline");
//! let a = b.add_task("a");
//! let c = b.add_task("c");
//! b.add_edge(a, c, 1.0)?;
//! let ctg = b.deadline(20.0).build()?;
//!
//! let mut pb = PlatformBuilder::new(2);
//! pb.add_pe("p0");
//! pb.set_wcet_row(0, vec![2.0])?;
//! pb.set_wcet_row(1, vec![2.0])?;
//! pb.set_energy_row(0, vec![2.0])?;
//! pb.set_energy_row(1, vec![2.0])?;
//!
//! let ctx = SchedContext::new(ctg, pb.build()?)?;
//! let probs = BranchProbs::uniform(ctx.ctg());
//! let solution = OnlineScheduler::new().solve(&ctx, &probs)?;
//! // 16 time units of slack are spread over the two tasks.
//! assert!(solution.expected_energy(&ctx, &probs) < 4.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
pub mod baseline;
mod budget;
mod cache;
mod context;
pub mod critical;
mod dls;
mod error;
mod online;
mod schedule;
mod scheduler;
mod sgraph;
mod speed;
mod static_level;
mod stretch;
#[doc(hidden)]
pub mod test_util;
mod validate;
mod workspace;

pub use adaptive::{
    AdaptiveScheduler, AdaptiveStats, EstimatorKind, EwmaEstimator, ObserveOutcome, SlidingWindow,
};
pub use budget::WorkMeter;
pub use cache::{LruCache, ScheduleKey};
pub use context::CompiledGraph;
pub use context::{ScenarioMask, SchedContext};
pub use dls::{dls_schedule, dls_with_levels, list_schedule_fixed};
pub use error::SchedError;
pub use online::{OnlineScheduler, Solution};
pub use schedule::Schedule;
pub use scheduler::{
    parse_scheduler_selection, race_portfolio, PortfolioStats, RaceOutcome, SchedulerKind,
    DEFAULT_PORTFOLIO, FRAME_SPEED_LEVELS,
};
pub use sgraph::{SEdge, SEdgeKind, SPath, ScheduledGraph, DEFAULT_PATH_CAP};
pub use speed::{expected_energy, SpeedAssignment};
pub use static_level::{delta, static_levels, worst_case_levels};
pub use stretch::{stretch_schedule, stretch_schedule_seeded, StretchConfig};
pub use validate::{validate_schedule, validate_solution, ScheduleViolation};
pub use workspace::{SolverWorkspace, WorkspaceStats};
