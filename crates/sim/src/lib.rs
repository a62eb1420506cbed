//! Execution simulator for scheduled conditional task graphs.
//!
//! Given a committed [`Solution`](ctg_sched::Solution) (mapping, order and
//! per-task speeds) and a concrete [`DecisionVector`](ctg_model::DecisionVector),
//! the simulator executes one *instance* of the CTG: only activated tasks
//! run, each at its locked speed; data transfers between PEs take link time
//! and energy; tasks on one PE serialize in schedule order; or-nodes wait for
//! the branch fork nodes deciding their predecessors. The result is the
//! instance's actual energy, makespan and deadline verdict — the quantities
//! the paper's evaluation averages over 1000-instance traces.
//!
//! [`Runner`] is the only way to run a whole trace: it dispatches to the
//! static / adaptive / periodic / serving engines in [`runner`] and
//! [`serve`] from a [`RunConfig`] builder (workers, fault plan,
//! degradation ladder, serve knobs, telemetry; see [`run`]).
//! [`RunConfig::from_env`] is the one place the crate reads the
//! environment (`CTG_WORKERS`). [`serve`]
//! drives *many* independent adaptive streams at once through a
//! discrete-event engine, sharded over worker threads with a cross-stream
//! schedule cache. Every engine records structured telemetry through a
//! `ctg_obs::Obs` handle when one is configured — with the invariant that
//! simulated results are bit-identical with telemetry on or off.
//!
//! # Example
//!
//! ```
//! use ctg_sim::simulate_instance;
//! use ctg_sched::{OnlineScheduler, SchedContext};
//! use ctg_model::{BranchProbs, CtgBuilder, DecisionVector};
//! use mpsoc_platform::PlatformBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CtgBuilder::new("fork");
//! let f = b.add_task("f");
//! let x = b.add_task("x");
//! let y = b.add_task("y");
//! b.add_cond_edge(f, x, 0, 0.0)?;
//! b.add_cond_edge(f, y, 1, 0.0)?;
//! let ctg = b.deadline(30.0).build()?;
//! let mut pb = PlatformBuilder::new(3);
//! pb.add_pe("p0");
//! for t in 0..3 {
//!     pb.set_wcet_row(t, vec![2.0])?;
//!     pb.set_energy_row(t, vec![2.0])?;
//! }
//! let ctx = SchedContext::new(ctg, pb.build()?)?;
//! let probs = BranchProbs::uniform(ctx.ctg());
//! let solution = OnlineScheduler::new().solve(&ctx, &probs)?;
//!
//! let run = simulate_instance(&ctx, &solution, &DecisionVector::new(vec![0]))?;
//! assert!(run.deadline_met);
//! assert!(run.energy > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod degrade;
pub mod estimate;
pub mod fault;
pub mod gantt;
mod instance;
pub mod metrics;
pub mod pool;
pub mod reclaim;
pub mod run;
pub mod runner;
pub mod serve;
mod summary;

pub use campaign::{
    run_campaign, ArrivalSpec, Artifact, CampaignConfig, CampaignError, CampaignReport,
    CampaignRollup, CampaignSpec, Cell, CellCoord, CellDigest, KnobSpec,
};
pub use degrade::{DegradeConfig, DegradeStats, Rung, Watchdog, WatchdogVerdict};
pub use estimate::{monte_carlo_energy, McEstimate};
pub use fault::{
    simulate_instance_faulty, BurstModel, FaultEvent, FaultInjector, FaultLog, FaultPlan,
    FaultStats,
};
pub use instance::{
    simulate_instance, simulate_instance_with_overhead, DvfsOverhead, InstanceOutcome,
    InstanceResult, SimWorkspace,
};
pub use metrics::{trace_metrics, TraceMetrics};
pub use pool::{effective_workers_with, map_ordered, map_ordered_with};
pub use reclaim::simulate_instance_reclaiming;
pub use run::{RunConfig, Runner};
pub use runner::{PeriodicSummary, RunSummary, FAULTY_INSTANCE_COST};
pub use serve::{
    run_serve, run_serve_seeded, AdmissionConfig, ArrivalConfig, ArrivalKind, CacheMode,
    EngineKind, QuarantineConfig, ServeConfig, ServeReport, ServeStats, SharedScheduleCache,
    StreamSpec, StreamSummary,
};
pub use summary::{percentile_sorted, ExecStats, StreamLatency};
