//! Trace events: what happened, on which track, and when.
//!
//! An [`Event`] is a fixed-size record — no strings, no allocation — so
//! recording one is a handful of stores plus a stripe push. Human-readable
//! names live in static tables ([`Stage::name`]) and are only consulted at
//! export time.

/// The pipeline stage an event describes.
///
/// One variant per hot stage of the stack, from the solver's inner phases
/// (DLS mapping, path enumeration, stretching) through the adaptive
/// manager's decisions (drift, adoption, cache traffic) to the serving
/// engine's machinery (event queues, SLO misses, shedding) and the failure
/// plumbing (fault injection, degradation-ladder transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Stage {
    /// One warm/cold solver invocation end to end.
    Solve,
    /// Probability-aware dynamic-level mapping + ordering inside a solve.
    DlsMap,
    /// Scheduled-graph construction / path enumeration inside a solve.
    PathEnum,
    /// A solve served a pooled scheduled graph instead of enumerating
    /// (`arg` = pooled entries).
    PoolHit,
    /// Slack-distribution speed selection inside a solve.
    Stretch,
    /// The manager's windowed estimate crossed its drift threshold
    /// (`arg` = instances observed so far).
    DriftDetect,
    /// A candidate plan was adopted (`arg` = 1 when the adopting solve ran
    /// the solver, 0 when a cache served it).
    Adopt,
    /// A schedule-cache lookup hit (manager LRU or shared striped cache).
    CacheHit,
    /// A schedule-cache lookup missed and fell through to the solver.
    CacheMiss,
    /// Nothing records it: the serve engine has no ticks. Kept so existing
    /// callers compile.
    Tick,
    /// An instance arrival was pushed onto a worker's event queue
    /// (`arg` = queue depth after the push).
    Enqueue,
    /// A worker popped and serviced one event from its virtual-time queue
    /// (`arg` = stream id).
    Dequeue,
    /// An instance completed past its latency SLO (`arg` = stream id).
    SloMiss,
    /// Faults were injected into an instance (`arg` = events injected).
    FaultInject,
    /// The degradation ladder changed rung (`arg` = new rung, 0..=3).
    Ladder,
    /// Admission control shed a stream's drift re-solve
    /// (`arg` = requests shed).
    Shed,
    /// A stream's circuit breaker opened and the stream entered
    /// quarantine (`arg` = stream id).
    Quarantine,
    /// A budgeted solve crossed its work budget and aborted
    /// (`arg` = work units spent at the abort).
    BudgetAbort,
    /// A campaign artifact compile: TGFF/workload parsing, CTG
    /// construction and context compilation for one distinct
    /// (workload, platform) pair (`arg` = cells waiting on the pair).
    Compile,
    /// One campaign cell executed end to end (`arg` = simulated
    /// instances).
    CellRun,
    /// A campaign cell skipped because the checkpoint already holds its
    /// result (`arg` = cell index in the expanded grid).
    CellSkip,
    /// A whole trace/serve run (the root span of an export).
    Run,
    /// One scheduler-portfolio race over a drift event's probability
    /// table (`arg` = winning entry index, `-1` if every entry failed).
    PortfolioRace,
}

impl Stage {
    /// Stable human-readable name, used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Solve => "solve",
            Stage::DlsMap => "dls_map",
            Stage::PathEnum => "path_enum",
            Stage::PoolHit => "pool_hit",
            Stage::Stretch => "stretch",
            Stage::DriftDetect => "drift_detect",
            Stage::Adopt => "adopt",
            Stage::CacheHit => "cache_hit",
            Stage::CacheMiss => "cache_miss",
            Stage::Tick => "tick",
            Stage::Enqueue => "enqueue",
            Stage::Dequeue => "dequeue",
            Stage::SloMiss => "slo_miss",
            Stage::FaultInject => "fault_inject",
            Stage::Ladder => "ladder",
            Stage::Shed => "shed",
            Stage::Quarantine => "quarantine",
            Stage::BudgetAbort => "budget_abort",
            Stage::Compile => "compile",
            Stage::CellRun => "cell_run",
            Stage::CellSkip => "cell_skip",
            Stage::Run => "run",
            Stage::PortfolioRace => "portfolio_race",
        }
    }

    /// Coarse category for trace viewers (Perfetto groups by `cat`).
    pub fn category(self) -> &'static str {
        match self {
            Stage::Solve | Stage::DlsMap | Stage::PathEnum | Stage::Stretch => "solver",
            Stage::PoolHit | Stage::CacheHit | Stage::CacheMiss => "cache",
            Stage::DriftDetect | Stage::Adopt | Stage::PortfolioRace => "adapt",
            Stage::Tick | Stage::Enqueue | Stage::Dequeue | Stage::SloMiss => "serve",
            Stage::FaultInject
            | Stage::Ladder
            | Stage::Shed
            | Stage::Quarantine
            | Stage::BudgetAbort => "resilience",
            Stage::Compile | Stage::CellRun | Stage::CellSkip => "campaign",
            Stage::Run => "run",
        }
    }
}

/// Whether an event covers an interval or a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed interval of `dur_ns` nanoseconds starting at `ts_ns`.
    Span,
    /// A point event at `ts_ns` (`dur_ns` is 0).
    Instant,
}

/// One recorded telemetry event.
///
/// Timing lives *only* here: nothing in an [`Event`] ever feeds back into a
/// simulation result, which is how the stack keeps its "summaries are
/// bit-identical with telemetry on or off" invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Logical track (worker id, stream id, …) — the exporter's `tid`.
    pub track: u32,
    /// Stage this event belongs to.
    pub stage: Stage,
    /// Span or instant.
    pub kind: EventKind,
    /// Nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Stage-specific argument (group size, fault count, rung index, …).
    pub arg: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let all = [
            Stage::Solve,
            Stage::DlsMap,
            Stage::PathEnum,
            Stage::PoolHit,
            Stage::Stretch,
            Stage::DriftDetect,
            Stage::Adopt,
            Stage::CacheHit,
            Stage::CacheMiss,
            Stage::Tick,
            Stage::Enqueue,
            Stage::Dequeue,
            Stage::SloMiss,
            Stage::FaultInject,
            Stage::Ladder,
            Stage::Shed,
            Stage::Quarantine,
            Stage::BudgetAbort,
            Stage::Compile,
            Stage::CellRun,
            Stage::CellSkip,
            Stage::Run,
            Stage::PortfolioRace,
        ];
        let mut names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "stage names must be unique");
        for s in all {
            assert!(!s.category().is_empty());
        }
    }
}
