//! # adaptive-dvfs
//!
//! A from-scratch Rust reproduction of *"Adaptive Scheduling and Voltage
//! Scaling for Multiprocessor Real-time Applications with Non-deterministic
//! Workload"* (Malani, Mukre, Qiu, Wu — DATE 2008).
//!
//! Real-time applications such as MPEG decoding vary their workload at
//! runtime because conditional branches activate or deactivate whole tasks.
//! This crate family models such applications as **conditional task graphs**
//! (CTGs), maps and orders them on a multiprocessor platform with a
//! probability-aware dynamic-level scheduler, selects per-task speeds with a
//! low-complexity slack-distribution heuristic, and wraps everything in an
//! **adaptive manager** that profiles branch probabilities in sliding
//! windows and re-schedules when the distribution drifts.
//!
//! This facade crate re-exports the member crates:
//!
//! * [`ctg`] — the CTG model (graphs, conditions, scenarios, probabilities);
//! * [`platform`] — the MPSoC model (PEs, WCET/energy tables, links, DVFS);
//! * [`sched`] — the schedulers: online algorithm, baselines, adaptive
//!   manager (the paper's contribution);
//! * [`sim`] — the instance-level execution simulator and trace runners;
//! * [`obs`] — the structured telemetry layer (spans, metrics, JSON-lines
//!   and Chrome-trace export), zero-overhead when disabled;
//! * [`tgff`] — random CTG generation in the spirit of TGFF;
//! * [`workloads`] — the MPEG decoder and cruise-controller CTGs plus the
//!   movie/road trace generators.
//!
//! [`prelude`] re-exports the ~15 types nearly every consumer touches —
//! `use adaptive_dvfs::prelude::*;` is how the `examples/` start.
//!
//! # Quickstart
//!
//! Schedule a small conditional application and execute one instance:
//!
//! ```
//! use adaptive_dvfs::ctg::{BranchProbs, CtgBuilder, DecisionVector};
//! use adaptive_dvfs::platform::PlatformBuilder;
//! use adaptive_dvfs::sched::{OnlineScheduler, SchedContext};
//! use adaptive_dvfs::sim::simulate_instance;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A fork: either a heavy or a light handler runs, never both.
//! let mut b = CtgBuilder::new("demo");
//! let sense = b.add_task("sense");
//! let decide = b.add_task("decide"); // branch fork node
//! let heavy = b.add_task("heavy");
//! let light = b.add_task("light");
//! b.add_edge(sense, decide, 0.5)?;
//! b.add_cond_edge(decide, heavy, 0, 2.0)?;
//! b.add_cond_edge(decide, light, 1, 0.5)?;
//! let ctg = b.deadline(40.0).build()?;
//!
//! // One PE; WCET/energy per task.
//! let mut pb = PlatformBuilder::new(4);
//! pb.add_pe("cpu");
//! for (t, w) in [(0, 2.0), (1, 1.0), (2, 8.0), (3, 2.0)] {
//!     pb.set_wcet_row(t, vec![w])?;
//!     pb.set_energy_row(t, vec![w])?;
//! }
//!
//! let ctx = SchedContext::new(ctg, pb.build()?)?;
//! let mut probs = BranchProbs::uniform(ctx.ctg());
//! probs.set(decide, vec![0.8, 0.2])?; // heavy handler 80% likely
//!
//! let solution = OnlineScheduler::new().solve(&ctx, &probs)?;
//! let run = simulate_instance(&ctx, &solution, &DecisionVector::new(vec![0]))?;
//! assert!(run.deadline_met);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for complete scenarios (MPEG with adaptive DVFS, the
//! cruise controller, random-CTG sweeps) and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]

pub use ctg_model as ctg;
pub use ctg_obs as obs;
pub use ctg_rng as rng;
pub use ctg_sched as sched;
pub use ctg_sim as sim;
pub use ctg_workloads as workloads;
pub use mpsoc_platform as platform;
pub use tgff_gen as tgff;

/// The common vocabulary of the crate family in one import.
///
/// Covers the modelling types (graphs, probabilities, decision vectors,
/// platforms), the scheduling entry points (context, online solver,
/// adaptive manager), the unified run API ([`Runner`](sim::Runner) /
/// [`RunConfig`](sim::RunConfig) and the serve types), and the telemetry
/// handle. Anything rarer stays behind its module path.
pub mod prelude {
    pub use crate::ctg::{BranchProbs, Ctg, CtgBuilder, DecisionVector, TaskId};
    pub use crate::obs::{BufferedSink, MetricsSnapshot, Obs};
    pub use crate::platform::{Platform, PlatformBuilder};
    pub use crate::sched::{
        parse_scheduler_selection, AdaptiveScheduler, EstimatorKind, OnlineScheduler,
        PortfolioStats, SchedContext, SchedError, SchedulerKind, Solution, DEFAULT_PORTFOLIO,
    };
    pub use crate::sim::{
        run_serve, simulate_instance, AdmissionConfig, ArrivalConfig, ArrivalKind, BurstModel,
        CacheMode, DegradeConfig, ExecStats, FaultPlan, InstanceOutcome, QuarantineConfig,
        RunConfig, RunSummary, Runner, ServeConfig, ServeReport, StreamSpec, StreamSummary,
    };
}
