//! `ctg_serve` — the sharded multi-stream adaptive serving engine.
//!
//! PRs 2–3 made a *single* adaptive stream fast (deterministic worker
//! pool, schedule LRU, warm-start [`SolverWorkspace`]). This module serves
//! **many independent streams** — each a session with its own trace,
//! sliding-window profiler, fault plan and seed, all decoding the same
//! application on the same platform (e.g. thousands of MPEG sessions, each
//! playing its own movie) — and amortizes scheduling work *across* them:
//!
//! * **Sharding.** Streams are partitioned into shards
//!   ([`ServeConfig::shards`], default `CTG_SERVE_SHARDS` or the pool
//!   worker count) and shards are distributed over persistent worker
//!   threads. Workers advance their streams in lockstep ticks (one
//!   instance per stream per tick) separated by barriers, so scheduling
//!   work of one tick can be batched across streams.
//! * **Discrete-event core.** The default engine ([`EngineKind::Events`])
//!   replaces lockstep ticks with per-worker virtual-time event queues:
//!   each stream is an independent arrival process
//!   ([`ArrivalKind::ClosedLoop`] back-to-back, [`ArrivalKind::Poisson`],
//!   Gilbert–Elliott-modulated [`ArrivalKind::Bursty`], or
//!   [`ArrivalKind::Trace`]-replayed gaps), workers pop `(time, stream,
//!   seq)`-ordered events with no barriers, and per-stream deadlines
//!   become latency SLOs ([`ArrivalConfig::slo`], reported per stream as
//!   [`StreamLatency`]). DESIGN.md §16 documents the event queue,
//!   tie-breaking and SLO semantics.
//! * **Cross-stream schedule cache.** A lock-striped
//!   [`SharedScheduleCache`] keyed on the quantised-probability
//!   [`ScheduleKey`] of PR 2 lets a plan solved for one stream be adopted
//!   by any stream whose windowed estimate lands on the *same exact*
//!   probability table (the quantised key only selects the bucket; a hit
//!   additionally requires the entry's stored table to equal the requested
//!   one bit-for-bit — the exact-probability guard). Windowed estimates
//!   are ratios of small integer counts, so distinct streams genuinely
//!   collide on exact tables all the time.
//! * **Reschedule coalescing.** Within a tick, streams requesting the same
//!   exact table are grouped and solved **once**; the one warm solve fans
//!   out to every requester. (Grouping by quantised cell alone would break
//!   the exact-probability guard, so groups are formed per exact table —
//!   the cell is just the hash prelude.)
//!
//! # Determinism
//!
//! Per-stream results depend only on `(stream spec, arrival process,
//! context)` — never on shard count, worker count, cache mode or hit/miss
//! order. The argument reduces to two facts: (1) the solver is a pure
//! function of `(context, probs, config)` and both caches guard hits on
//! *exact* probability equality, so a served plan is always bit-identical
//! to the plan the stream's own solver would have produced; (2) each
//! stream is a self-contained state machine advanced in instance order by
//! exactly one owner (lockstep: tick order; events: the per-worker heap
//! pops a stream's events in `(time, stream, seq)` order and streams never
//! interact through the heap), and results are merged by stream id.
//! [`StreamSummary`] therefore compares bit-for-bit across every engine
//! configuration — including across the two engines for closed-loop
//! arrivals (`tests/serve_events.rs` pins the equivalence and the matrix).
//! Aggregate *cache counters* are the one exception: under eviction
//! pressure the shared LRU's recency order depends on stripe-lock
//! interleaving, so hit/miss tallies may wobble with the worker count —
//! adopted plans never do.
//!
//! # Overload resilience
//!
//! Three optional mechanisms bound scheduling work under saturation while
//! preserving the determinism contract (DESIGN.md §14):
//!
//! * **Solve budgets** ([`ServeConfig::solve_budget`]) — every worker
//!   solve runs under a [`ctg_sched::WorkMeter`]; a solve whose
//!   deterministic work-unit cost exceeds the budget aborts with
//!   [`SchedError::SolveBudgetExceeded`] and the requesting streams keep
//!   their last adopted plan. The abort verdict is a pure function of the
//!   requested table (warm paths re-charge stored costs), so it is
//!   identical across warm/cold workspaces and cache modes.
//! * **Admission control** ([`ServeConfig::admission`]) — each tick's
//!   drift requests are capped at a high-water mark; the excess is shed in
//!   a total order (lowest [`StreamSpec::criticality`] first, highest
//!   stream id first among equals) that is invariant across workers,
//!   shards and cache modes. Shed streams keep their plan and record the
//!   event in [`StreamSummary::shed`].
//! * **Quarantine** ([`ServeConfig::quarantine`]) — a per-stream circuit
//!   breaker counts budget strikes in a sliding window; too many strikes
//!   freeze the stream's plan for an exponentially backed-off number of
//!   ticks, after which one half-open probe solve decides between
//!   re-admission and a doubled backoff.

use crate::fault::{FaultInjector, FaultLog, FaultPlan, FaultStats};
use crate::instance::SimWorkspace;
use crate::pool;
use crate::runner::{note_faults, note_instance, note_slo_miss};
use crate::summary::{percentile_sorted, ExecStats, StreamLatency};
use ctg_model::{BranchProbs, DecisionVector};
use ctg_obs::{Counter, Obs, Stage};
use ctg_rng::{BurstyGaps, PoissonGaps};
use ctg_sched::{
    race_portfolio, AdaptiveScheduler, EstimatorKind, LruCache, OnlineScheduler, SchedContext,
    SchedError, ScheduleKey, SchedulerKind, Solution, SolverWorkspace,
};
use std::cmp::Reverse;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Environment variable overriding the default shard count.
pub const SERVE_SHARDS_ENV: &str = "CTG_SERVE_SHARDS";

/// Parses a `CTG_SERVE_SHARDS`-style override: a positive integer. Split
/// out of [`default_shards`] so the policy is testable without mutating
/// the process environment.
fn parse_shards(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The default shard count: `CTG_SERVE_SHARDS` when set to a positive
/// integer, else the pool's [`worker_count`](pool::worker_count).
pub fn default_shards() -> usize {
    parse_shards(std::env::var(SERVE_SHARDS_ENV).ok().as_deref()).unwrap_or_else(pool::worker_count)
}

/// Environment variable selecting the default arrival process.
pub const SERVE_ARRIVAL_ENV: &str = "CTG_SERVE_ARRIVAL";

/// Near-miss memo capacity of each event-engine worker workspace: the
/// per-manager cap (128, sized above one stream's ~100-table revisit
/// cycle) scaled for a workspace serving many interleaved streams.
const NEAR_MEMO_WORKER_CAP: usize = 1024;

/// Parses a `CTG_SERVE_ARRIVAL`-style override:
///
/// * `closed` — the closed loop (the default);
/// * `poisson:<rate>` — Poisson arrivals at `rate` per virtual-time unit;
/// * `bursty:<rate>:<mult>:<p_enter>:<p_exit>` — the two-state bursty
///   process.
///
/// Split out of [`default_arrival`] so the policy is testable without
/// mutating the process environment. Malformed or out-of-range values
/// parse to `None` (callers fall back to closed loop) — an env knob should
/// degrade, not abort.
fn parse_arrival(raw: Option<&str>) -> Option<ArrivalKind> {
    let raw = raw?.trim();
    let mut parts = raw.split(':');
    let kind = parts.next()?.trim().to_ascii_lowercase();
    let mut nums = Vec::new();
    for p in parts {
        nums.push(p.trim().parse::<f64>().ok().filter(|v| v.is_finite())?);
    }
    match (kind.as_str(), nums.as_slice()) {
        ("closed", []) => Some(ArrivalKind::ClosedLoop),
        ("poisson", &[rate]) if rate > 0.0 => Some(ArrivalKind::Poisson { rate }),
        ("bursty", &[rate, burst_mult, p_enter, p_exit])
            if rate > 0.0
                && burst_mult >= 1.0
                && (0.0..=1.0).contains(&p_enter)
                && (0.0..=1.0).contains(&p_exit) =>
        {
            Some(ArrivalKind::Bursty {
                rate,
                burst_mult,
                p_enter,
                p_exit,
            })
        }
        _ => None,
    }
}

/// The default arrival process: `CTG_SERVE_ARRIVAL` when set to a valid
/// spec ([`parse_arrival`]), else the closed loop.
pub fn default_arrival() -> ArrivalKind {
    parse_arrival(std::env::var(SERVE_ARRIVAL_ENV).ok().as_deref())
        .unwrap_or(ArrivalKind::ClosedLoop)
}

/// Which schedule cache the engine consults before solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No cache: every coalesced group is solved.
    Off,
    /// One isolated LRU per stream (the PR 2 manager cache, externalised):
    /// a stream can only replay plans it produced itself. The baseline the
    /// shared cache is measured against.
    PerStream {
        /// Per-stream entry capacity.
        capacity: usize,
    },
    /// One lock-striped cache shared by all streams: a plan solved for one
    /// stream is adopted by any stream landing on the same exact table.
    Shared {
        /// Total entry capacity, split evenly over the stripes.
        capacity: usize,
        /// Number of independently locked stripes.
        stripes: usize,
    },
}

/// Admission-control configuration: per-tick reschedule demand is capped
/// at a high-water mark and the excess is shed deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum solve requests admitted per tick. Requests beyond the mark
    /// are shed in ascending ([`StreamSpec::criticality`], reversed stream
    /// id) priority: the lowest-criticality requests go first, and among
    /// equals the highest stream id — a total order, so the shed set is a
    /// pure function of the tick's request set.
    pub high_water: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { high_water: 64 }
    }
}

impl AdmissionConfig {
    fn validate(&self) -> Result<(), SchedError> {
        if self.high_water == 0 {
            return Err(SchedError::InvalidParameter(
                "admission high-water mark must be positive",
            ));
        }
        Ok(())
    }
}

/// Per-stream circuit-breaker configuration driving quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Budget strikes within [`window`](Self::window) that trip the
    /// breaker.
    pub strikes: usize,
    /// Sliding window (in solve outcomes) the strikes are counted over.
    pub window: usize,
    /// Initial quarantine length in ticks; after it expires one half-open
    /// probe solve is allowed.
    pub backoff: usize,
    /// Backoff cap: a failed probe doubles the backoff up to this many
    /// ticks.
    pub backoff_max: usize,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            strikes: 3,
            window: 16,
            backoff: 8,
            backoff_max: 256,
        }
    }
}

impl QuarantineConfig {
    fn validate(&self) -> Result<(), SchedError> {
        if self.strikes == 0 {
            return Err(SchedError::InvalidParameter(
                "quarantine strike budget must be positive",
            ));
        }
        if self.window < self.strikes {
            return Err(SchedError::InvalidParameter(
                "quarantine window must hold at least the strike budget",
            ));
        }
        if self.backoff == 0 {
            return Err(SchedError::InvalidParameter(
                "quarantine backoff must be positive",
            ));
        }
        if self.backoff_max < self.backoff {
            return Err(SchedError::InvalidParameter(
                "quarantine backoff cap must be at least the initial backoff",
            ));
        }
        Ok(())
    }
}

/// Arrival-process family driving each stream of the event engine.
///
/// Every open-loop process is a pure function of
/// `(ArrivalConfig::seed, stream id)` via the [`ctg_rng::arrival`]
/// samplers, so arrival times can never depend on worker counts or event
/// interleaving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Back-to-back: instance `k + 1` arrives exactly when instance `k`
    /// completes (queue depth is always 0, latency equals makespan). This
    /// reproduces the lockstep engine's per-stream semantics bit-for-bit.
    ClosedLoop,
    /// Poisson arrivals: exponential inter-arrival gaps at `rate`
    /// (arrivals per virtual-time unit).
    Poisson {
        /// Mean arrival rate (gaps average `1 / rate`).
        rate: f64,
    },
    /// Gilbert–Elliott-modulated Poisson: a two-state calm/burst chain
    /// advanced once per gap, bursting at `rate * burst_mult` (the PR 6
    /// fault modulator's parameterisation, applied to arrivals).
    Bursty {
        /// Calm-state arrival rate.
        rate: f64,
        /// Burst-state rate multiplier (`> 1` compresses gaps).
        burst_mult: f64,
        /// Per-gap probability of entering the burst state.
        p_enter: f64,
        /// Per-gap probability of leaving the burst state.
        p_exit: f64,
    },
    /// Replay recorded inter-arrival gaps from [`ArrivalConfig::traces`]
    /// (one gap sequence per stream, each at least as long as the stream's
    /// decision trace).
    Trace,
}

/// Arrival-process and SLO configuration for the event engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// The process family.
    pub kind: ArrivalKind,
    /// Base seed; stream `i` draws from the decorrelated sub-stream
    /// `mix(seed, i)`.
    pub seed: u64,
    /// Per-instance latency SLO in virtual time: an instance whose
    /// arrival-to-completion latency exceeds this counts as an SLO
    /// violation in [`StreamLatency`]. `None` disables violation counting.
    pub slo: Option<f64>,
    /// Per-stream inter-arrival gap traces, used only by
    /// [`ArrivalKind::Trace`] (gap `k` separates arrivals `k − 1` and `k`;
    /// gap 0 is the first arrival's absolute time).
    pub traces: Vec<Vec<f64>>,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            kind: ArrivalKind::ClosedLoop,
            seed: 0x0A17_1BA5,
            slo: None,
            traces: Vec::new(),
        }
    }
}

impl ArrivalConfig {
    fn validate(&self, specs: &[StreamSpec]) -> Result<(), SchedError> {
        match self.kind {
            ArrivalKind::ClosedLoop => {}
            ArrivalKind::Poisson { rate } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(SchedError::InvalidParameter(
                        "poisson arrival rate must be finite and positive",
                    ));
                }
            }
            ArrivalKind::Bursty {
                rate,
                burst_mult,
                p_enter,
                p_exit,
            } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(SchedError::InvalidParameter(
                        "bursty arrival rate must be finite and positive",
                    ));
                }
                if !(burst_mult.is_finite() && burst_mult >= 1.0) {
                    return Err(SchedError::InvalidParameter(
                        "bursty burst multiplier must be finite and at least 1",
                    ));
                }
                if !((0.0..=1.0).contains(&p_enter) && (0.0..=1.0).contains(&p_exit)) {
                    return Err(SchedError::InvalidParameter(
                        "bursty transition probabilities must lie in [0, 1]",
                    ));
                }
            }
            ArrivalKind::Trace => {
                if self.traces.len() != specs.len() {
                    return Err(SchedError::InvalidParameter(
                        "arrival traces must match the stream count",
                    ));
                }
                for (gaps, spec) in self.traces.iter().zip(specs) {
                    if gaps.len() < spec.trace.len() {
                        return Err(SchedError::InvalidParameter(
                            "arrival trace shorter than the stream's decision trace",
                        ));
                    }
                    if gaps.iter().any(|g| !g.is_finite() || *g < 0.0) {
                        return Err(SchedError::InvalidParameter(
                            "arrival gaps must be finite and non-negative",
                        ));
                    }
                }
            }
        }
        if let Some(slo) = self.slo {
            if !(slo.is_finite() && slo > 0.0) {
                return Err(SchedError::InvalidParameter(
                    "latency SLO must be finite and positive",
                ));
            }
        }
        Ok(())
    }
}

/// Which serving engine drives the streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Pick automatically: the lockstep engine when per-tick admission
    /// control is configured with closed-loop arrivals (its shed order is
    /// defined over the tick's cross-stream request set, a lockstep
    /// concept), the event engine otherwise.
    Auto,
    /// The barrier-synchronised tick engine (PR 4–7 semantics). Requires
    /// [`ArrivalKind::ClosedLoop`].
    Lockstep,
    /// The discrete-event engine: per-worker virtual-time heaps, open-loop
    /// arrivals, latency SLOs, admission by per-stream queue depth.
    Events,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (clamped to the shard and stream counts).
    pub workers: usize,
    /// Stream shards; stream `i` lives in shard `i % shards` and shard `s`
    /// is owned by worker `s % workers`. Affects load balance only.
    pub shards: usize,
    /// Schedule cache mode.
    pub cache: CacheMode,
    /// Group identical same-tick requests into one solve. Off, every
    /// request is solved individually (ablation knob).
    pub coalesce: bool,
    /// Quantisation resolution of the shared cache's [`ScheduleKey`]
    /// (per-stream caches quantise at the stream's own drift threshold).
    /// Any positive value is *correct* — quantisation only buckets, the
    /// exact-probability guard decides — it just trades bucket collisions
    /// against map size.
    pub quantum: f64,
    /// Per-solve work budget in solver work units (DLS candidate
    /// evaluations + path-enumeration steps), applied to every worker
    /// solve. `None` disables budgeting; tick-0 setup solves are always
    /// exempt (there is no plan to fall back on yet).
    pub solve_budget: Option<u64>,
    /// Admission control; `None` admits every request (baseline
    /// behaviour, bit-exact with pre-overload engines). The lockstep
    /// engine caps each tick's cross-stream request set; the event engine
    /// sheds a stream's drift solve while more than
    /// [`AdmissionConfig::high_water`] arrivals sit queued behind its
    /// in-service instance.
    pub admission: Option<AdmissionConfig>,
    /// Per-stream quarantine circuit breaker; `None` never freezes a
    /// stream.
    pub quarantine: Option<QuarantineConfig>,
    /// Arrival process and latency SLO (event engine; the lockstep engine
    /// requires the closed-loop default).
    pub arrival: ArrivalConfig,
    /// Engine selection; [`EngineKind::Auto`] (the default) resolves via
    /// [`ServeConfig::resolved_engine`].
    pub engine: EngineKind,
    /// Scheduler-portfolio selection: race these entries on every
    /// solver-bound drift solve (list [`SchedulerKind::Dls`] first so ties
    /// keep the paper's plan) and adopt the lowest expected-energy
    /// schedulable plan. `None` (the default) solves through the DLS
    /// pipeline alone — bit-for-bit the pre-portfolio engine. Tick-0 setup
    /// solves always stay DLS: they seed the incumbent plan the same way
    /// construction does in [`AdaptiveScheduler`].
    pub portfolio: Option<Vec<SchedulerKind>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: pool::worker_count(),
            shards: default_shards(),
            cache: CacheMode::Shared {
                capacity: 4096,
                stripes: 16,
            },
            coalesce: true,
            quantum: 0.1,
            solve_budget: None,
            admission: None,
            quarantine: None,
            arrival: ArrivalConfig::default(),
            engine: EngineKind::Auto,
            portfolio: None,
        }
    }
}

impl ServeConfig {
    /// The engine this configuration actually runs on:
    /// [`EngineKind::Auto`] resolves to [`EngineKind::Lockstep`] when
    /// per-tick admission control is configured with closed-loop arrivals
    /// (preserving the PR 6 cross-stream shed order), and to
    /// [`EngineKind::Events`] otherwise.
    pub fn resolved_engine(&self) -> EngineKind {
        match self.engine {
            EngineKind::Auto => {
                if self.admission.is_some() && matches!(self.arrival.kind, ArrivalKind::ClosedLoop)
                {
                    EngineKind::Lockstep
                } else {
                    EngineKind::Events
                }
            }
            e => e,
        }
    }
}

/// One stream: a session's trace plus its profiling and fault parameters.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// The branch-decision trace driving this stream.
    pub trace: Vec<DecisionVector>,
    /// Probability table the stream's first solution is computed with.
    pub initial_probs: BranchProbs,
    /// Sliding-window length of the stream's profiler.
    pub window: usize,
    /// Drift threshold triggering re-scheduling.
    pub threshold: f64,
    /// Optional fault plan (instance `i` draws faults from the sub-stream
    /// `mix(plan.seed, i)`, so give each stream its own seed).
    pub fault_plan: Option<FaultPlan>,
    /// Admission-control priority: under overload, lower-criticality
    /// streams are shed first (ties broken by stream id). Ignored when
    /// [`ServeConfig::admission`] is `None`.
    pub criticality: u8,
}

impl StreamSpec {
    /// A stream with the bench's default profiler (window 20, threshold
    /// 0.1), no faults and criticality 0.
    pub fn new(trace: Vec<DecisionVector>, initial_probs: BranchProbs) -> Self {
        StreamSpec {
            trace,
            initial_probs,
            window: 20,
            threshold: 0.1,
            fault_plan: None,
            criticality: 0,
        }
    }
}

/// Per-stream outcome. Contains only *simulated* quantities — no wall
/// clock, no cache/solver accounting — so it is bit-identical across
/// worker counts, shard counts and cache modes (`PartialEq` compares
/// everything, f64s included).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamSummary {
    /// The simulated execution core: instances, energy, misses, makespan
    /// (shared with [`RunSummary`](crate::RunSummary)).
    pub exec: ExecStats,
    /// Adopted re-schedule events (however the plan was served).
    pub reschedules: usize,
    /// Injected-fault accounting (all-zero for fault-free streams).
    pub faults: FaultStats,
    /// Solve requests shed by admission control (the stream kept its last
    /// adopted plan).
    pub shed: usize,
    /// Solves for this stream aborted by the work budget (counted per
    /// requester, so coalescing does not change it).
    pub budget_exceeded: usize,
    /// Times the stream's circuit breaker tripped into quarantine.
    pub quarantines: usize,
    /// Ticks spent frozen in quarantine (drift checks suppressed).
    pub quarantined_ticks: usize,
}

impl std::fmt::Display for StreamSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}; {} reschedules", self.exec, self.reschedules)
    }
}

/// Engine-level accounting of one serve run.
///
/// The request/group/solve counters are deterministic (grouping is a pure
/// function of the tick's sorted requests); the shared-cache hit counters
/// can wobble under eviction pressure (see the module docs) and are
/// reported for observability, not asserted for equality.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Streams served.
    pub streams: usize,
    /// Total instances executed across streams.
    pub instances: usize,
    /// Lockstep ticks driven — the longest trace's length (the event
    /// engine reports the same value: its per-stream instance ceiling).
    pub ticks: usize,
    /// Events dequeued from the virtual-time heaps (event engine only;
    /// 0 under lockstep).
    pub events: usize,
    /// Largest per-stream queue depth observed (arrivals waiting behind an
    /// in-service instance; event engine only).
    pub max_queue_depth: usize,
    /// Drift events: a stream's windowed estimate crossed its threshold
    /// (every one ends in an adopted re-schedule).
    pub drift_events: usize,
    /// Drift events answered from a stream's own cache
    /// ([`CacheMode::PerStream`] only).
    pub per_stream_hits: usize,
    /// Drift events that reached the coalescing stage
    /// (`drift_events − per_stream_hits`).
    pub requests: usize,
    /// Distinct solve jobs formed from those requests.
    pub groups: usize,
    /// Requests folded into another stream's job (`requests − groups`).
    pub coalesced_requests: usize,
    /// Groups answered by the shared cache ([`CacheMode::Shared`] only).
    pub shared_hits: usize,
    /// Requests belonging to shared-cache-answered groups.
    pub shared_hit_requests: usize,
    /// Groups that ran the warm solver.
    pub solver_calls: usize,
    /// Requests shed by admission control (sum of [`StreamSummary::shed`]).
    pub shed_requests: usize,
    /// Budget-aborted solves counted per requester (sum of
    /// [`StreamSummary::budget_exceeded`]).
    pub budget_exceeded: usize,
    /// Circuit-breaker trips (sum of [`StreamSummary::quarantines`]).
    pub quarantines: usize,
    /// Frozen stream-ticks (sum of [`StreamSummary::quarantined_ticks`]).
    pub quarantined_ticks: usize,
    /// Pooled median arrival-to-completion latency across every instance
    /// of every stream (virtual time; event engine only).
    pub latency_p50: f64,
    /// Pooled 99th-percentile latency (event engine only).
    pub latency_p99: f64,
    /// Largest observed latency (event engine only).
    pub latency_max: f64,
    /// Instances past the latency SLO (sum of
    /// [`StreamLatency::slo_misses`]; 0 without an SLO).
    pub slo_misses: usize,
    /// Scheduler-portfolio races run (solver-bound drift solves while
    /// [`ServeConfig::portfolio`] is set; 0 otherwise).
    pub portfolio_races: usize,
    /// Portfolio races won per scheduler kind, indexed by
    /// [`SchedulerKind::index`] (all zero without a portfolio).
    pub portfolio_wins: [usize; SchedulerKind::COUNT],
    /// Wall-clock seconds of the whole run (measured).
    pub wall_s: f64,
}

impl ServeStats {
    /// Fraction of instances whose latency exceeded the SLO, in `[0, 1]`.
    pub fn slo_miss_rate(&self) -> f64 {
        ratio(self.slo_misses, self.instances)
    }

    /// Fraction of drift events answered from the stream's own cache.
    pub fn per_stream_hit_rate(&self) -> f64 {
        ratio(self.per_stream_hits, self.drift_events)
    }

    /// Fraction of drift events answered from the shared cache.
    pub fn shared_hit_rate(&self) -> f64 {
        ratio(self.shared_hit_requests, self.drift_events)
    }

    /// Mean requests folded into one solve job (≥ 1 when any request was
    /// made; 0 for a drift-free run).
    pub fn coalescing_factor(&self) -> f64 {
        ratio(self.requests, self.groups)
    }

    /// Fraction of solve requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed_requests, self.requests)
    }

    /// Adopted re-schedules per wall-clock second (aggregate).
    pub fn reschedules_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.drift_events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Simulated instances per wall-clock second (aggregate).
    pub fn instances_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.instances as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything a serve run produces: per-stream summaries in stream order
/// plus engine accounting.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One summary per stream, in [`StreamSpec`] order.
    pub streams: Vec<StreamSummary>,
    /// One latency distribution per stream, in [`StreamSpec`] order. Kept
    /// out of [`StreamSummary`] so summary equality across engines stays a
    /// plain `==`; the lockstep engine (no arrival times) reports
    /// all-default distributions.
    pub latencies: Vec<StreamLatency>,
    /// Engine-level counters.
    pub stats: ServeStats,
}

/// A memoised solver result: the exact table it was solved for plus the
/// plan (the exact-probability guard's evidence).
#[derive(Debug, Clone)]
struct CacheEntry {
    probs: BranchProbs,
    solution: Solution,
}

/// The lock-striped cross-stream schedule cache.
///
/// Entries are bucketed by [`ScheduleKey`] (quantised probabilities +
/// guard + deadline bits) and striped by the key's hash, so concurrent
/// lookups from different buckets rarely contend. A hit requires the
/// stored *exact* table to equal the requested one — the same guard the
/// per-manager cache of PR 2 uses — so sharing plans across streams can
/// never change an adopted bit.
#[derive(Debug)]
pub struct SharedScheduleCache {
    stripes: Vec<Mutex<LruCache<ScheduleKey, CacheEntry>>>,
}

impl SharedScheduleCache {
    /// Creates a cache holding at most `capacity` plans across
    /// `stripes.max(1)` independently locked stripes (capacity is split
    /// evenly, rounded up).
    pub fn new(capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let per_stripe = capacity.div_ceil(stripes);
        SharedScheduleCache {
            stripes: (0..stripes)
                .map(|_| Mutex::new(LruCache::new(per_stripe)))
                .collect(),
        }
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Total stored entries (momentary; takes every stripe lock).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe lock").len())
            .sum()
    }

    /// Whether no stripe holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn stripe_of(&self, key: &ScheduleKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.stripes.len()
    }

    /// Returns the cached plan for `key` iff the stored exact table equals
    /// `probs` (marking the entry most-recently-used).
    pub fn lookup(&self, key: &ScheduleKey, probs: &BranchProbs) -> Option<Solution> {
        let mut stripe = self.stripes[self.stripe_of(key)]
            .lock()
            .expect("stripe lock");
        stripe
            .get(key)
            .filter(|e| e.probs == *probs)
            .map(|e| e.solution.clone())
    }

    /// Stores `solution` as the plan for (`key`, exact `probs`).
    pub fn insert(&self, key: ScheduleKey, probs: BranchProbs, solution: Solution) {
        let mut stripe = self.stripes[self.stripe_of(&key)]
            .lock()
            .expect("stripe lock");
        stripe.insert(key, CacheEntry { probs, solution });
    }
}

/// Exact identity of a probability table: the bits of every alternative's
/// probability in branch-node order. Used to group same-tick requests and
/// to deduplicate initial solves.
fn probs_bits(ctx: &SchedContext, probs: &BranchProbs) -> Vec<u64> {
    ctx.ctg()
        .branch_nodes()
        .iter()
        .flat_map(|&b| {
            probs
                .distribution(b)
                .expect("validated table has every branch")
                .iter()
                .map(|p| p.to_bits())
        })
        .collect()
}

/// One coalesced solve job: the exact table and everyone who asked for it.
#[derive(Debug)]
struct Group {
    probs: BranchProbs,
    /// Requesting stream ids, ascending (grouping input is sorted).
    requesters: Vec<usize>,
    outcome: OnceLock<GroupOutcome>,
}

#[derive(Debug, Clone)]
struct GroupOutcome {
    result: Result<Solution, SchedError>,
    from_shared: bool,
}

/// Circuit-breaker phase (the quarantine state machine's node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation; strikes are counted in a sliding window.
    Closed,
    /// Quarantined: the plan is frozen for every tick `< until_tick`.
    Open { until_tick: usize },
    /// Quarantine expired: the next solve is a probe deciding between
    /// re-admission (success) and a doubled backoff (strike).
    HalfOpen,
}

/// Per-stream circuit breaker: repeated budget-exceeded solves quarantine
/// the stream into frozen-plan mode with deterministic exponential
/// backoff. Driven only by solve verdicts — which are pure functions of
/// the requested table — and the lockstep tick counter, so its evolution
/// is identical across workers, shards and cache modes.
#[derive(Debug)]
struct Breaker {
    cfg: QuarantineConfig,
    state: BreakerState,
    /// Last `cfg.window` solve outcomes (`true` = budget strike).
    window: VecDeque<bool>,
    strikes: usize,
    /// Current quarantine length; doubles on a failed probe, capped at
    /// `cfg.backoff_max`, reset on a successful one.
    backoff: usize,
}

impl Breaker {
    fn new(cfg: QuarantineConfig) -> Self {
        Breaker {
            state: BreakerState::Closed,
            window: VecDeque::with_capacity(cfg.window),
            strikes: 0,
            backoff: cfg.backoff,
            cfg,
        }
    }

    /// Whether the stream is frozen at `tick`. Flips an expired
    /// quarantine to the half-open probe state as a side effect.
    fn is_quarantined(&mut self, tick: usize) -> bool {
        if let BreakerState::Open { until_tick } = self.state {
            if tick < until_tick {
                return true;
            }
            self.state = BreakerState::HalfOpen;
        }
        false
    }

    fn push(&mut self, strike: bool) {
        if self.window.len() == self.cfg.window && self.window.pop_front() == Some(true) {
            self.strikes -= 1;
        }
        self.window.push_back(strike);
        if strike {
            self.strikes += 1;
        }
    }

    /// A solve for this stream succeeded — or a cache hit proved the
    /// table affordable (caches only ever store solutions that solved
    /// within budget, so a hit and a fresh solve reach the same verdict).
    fn note_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.push(false),
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.window.clear();
                self.strikes = 0;
                self.backoff = self.cfg.backoff;
            }
            // Frozen streams issue no solves; a shed request records
            // nothing, so nothing to do.
            BreakerState::Open { .. } => {}
        }
    }

    /// A solve for this stream blew its budget at `tick`; returns `true`
    /// when this trips the breaker into quarantine.
    fn note_strike(&mut self, tick: usize) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.push(true);
                if self.strikes >= self.cfg.strikes {
                    self.window.clear();
                    self.strikes = 0;
                    self.state = BreakerState::Open {
                        until_tick: tick + self.backoff + 1,
                    };
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                self.backoff = self.backoff.saturating_mul(2).min(self.cfg.backoff_max);
                self.state = BreakerState::Open {
                    until_tick: tick + self.backoff + 1,
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }
}

/// The live state of one stream.
struct StreamState<'a> {
    id: usize,
    trace: &'a [DecisionVector],
    pos: usize,
    mgr: AdaptiveScheduler,
    sim: SimWorkspace,
    plan: Option<&'a FaultPlan>,
    injector: FaultInjector,
    log: FaultLog,
    /// Own plan cache ([`CacheMode::PerStream`] only).
    cache: Option<LruCache<ScheduleKey, CacheEntry>>,
    /// Quarantine circuit breaker ([`ServeConfig::quarantine`] only).
    breaker: Option<Breaker>,
    summary: StreamSummary,
}

impl StreamSummary {
    fn absorb_outcome(&mut self, r: &crate::instance::InstanceOutcome) {
        self.exec.absorb_outcome(r);
    }

    /// Renders the summary as one JSON object (hand-rolled: the workspace
    /// carries no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"exec\":{},\"reschedules\":{},\"shed\":{},\"budget_exceeded\":{},\
             \"quarantines\":{},\"quarantined_ticks\":{}}}",
            self.exec.to_json(),
            self.reschedules,
            self.shed,
            self.budget_exceeded,
            self.quarantines,
            self.quarantined_ticks
        )
    }
}

/// Per-worker counter accumulator, summed into [`ServeStats`] at the end.
#[derive(Debug, Clone, Copy, Default)]
struct LocalCounters {
    drift_events: usize,
    per_stream_hits: usize,
    requests: usize,
    groups: usize,
    coalesced_requests: usize,
    shared_hits: usize,
    shared_hit_requests: usize,
    solver_calls: usize,
    /// Scheduler-portfolio races and per-kind wins (portfolio mode only).
    portfolio_races: usize,
    portfolio_wins: [usize; SchedulerKind::COUNT],
    /// Events dequeued (event engine only).
    events: usize,
    /// Largest per-stream queue depth seen (event engine only; merged by
    /// max, not sum).
    max_queue_depth: usize,
}

impl LocalCounters {
    fn absorb(&mut self, o: &LocalCounters) {
        self.drift_events += o.drift_events;
        self.per_stream_hits += o.per_stream_hits;
        self.requests += o.requests;
        self.groups += o.groups;
        self.coalesced_requests += o.coalesced_requests;
        self.shared_hits += o.shared_hits;
        self.shared_hit_requests += o.shared_hit_requests;
        self.solver_calls += o.solver_calls;
        self.portfolio_races += o.portfolio_races;
        for (w, ow) in self.portfolio_wins.iter_mut().zip(o.portfolio_wins) {
            *w += ow;
        }
        self.events += o.events;
        self.max_queue_depth = self.max_queue_depth.max(o.max_queue_depth);
    }
}

/// Drives `specs` to completion on the engine described by `cfg` and
/// returns per-stream summaries plus engine stats.
///
/// All streams share `ctx` (they are sessions of one application on one
/// platform) and the default stretch configuration. Per-stream summaries
/// are **bit-for-bit identical** for every `(workers, shards, cache,
/// coalesce)` choice; see the [module docs](self) for the argument.
///
/// # Errors
///
/// Returns [`SchedError::VectorArity`] for traces not matching the graph,
/// parameter errors for invalid windows/thresholds/fault plans, and
/// propagates the first solver failure (streams are driven with
/// [`AdaptiveScheduler::observe`]-style unconditional adoption, which
/// propagates solve errors rather than degrading).
pub fn run_serve(
    ctx: &SchedContext,
    specs: &[StreamSpec],
    cfg: &ServeConfig,
) -> Result<ServeReport, SchedError> {
    serve_engine(ctx, specs, cfg, &Obs::disabled(), None)
}

/// [`run_serve`] with a caller-owned setup workspace: the tick-0 initial
/// solves run through `setup_ws` instead of a fresh workspace, so a driver
/// executing many runs over the same context (the campaign engine runs one
/// per cell) keeps the setup solver warm across runs. By the workspace's
/// warm==cold contract the report is bit-identical to [`run_serve`]'s; the
/// workspace's telemetry handle is overwritten with this run's.
///
/// # Errors
///
/// Same as [`run_serve`].
pub fn run_serve_seeded(
    ctx: &SchedContext,
    specs: &[StreamSpec],
    cfg: &ServeConfig,
    setup_ws: &mut SolverWorkspace,
) -> Result<ServeReport, SchedError> {
    serve_engine(ctx, specs, cfg, &Obs::disabled(), Some(setup_ws))
}

/// The serving engine proper: [`run_serve`] with a telemetry handle.
///
/// Telemetry track assignment is *track = worker index*: worker `w` records
/// its tick spans, cache verdicts and fan-outs on track `w`, and every
/// stream's manager records drift/adoption instants on its owner worker's
/// track — so each track is written by exactly one thread at a time and a
/// [`BufferedSink`](ctg_obs::BufferedSink) drains per-track-monotone
/// events. Setup-phase solves (tick-0 initial solutions) land on track 0
/// before the workers spawn. None of it feeds back into scheduling:
/// summaries are bit-identical with telemetry on or off
/// (`tests/obs_equivalence.rs` pins this).
pub(crate) fn serve_engine(
    ctx: &SchedContext,
    specs: &[StreamSpec],
    cfg: &ServeConfig,
    obs: &Obs,
    seed_ws: Option<&mut SolverWorkspace>,
) -> Result<ServeReport, SchedError> {
    let start = Instant::now();
    let num_branches = ctx.ctg().num_branches();
    for spec in specs {
        for v in &spec.trace {
            if v.len() != num_branches {
                return Err(SchedError::VectorArity {
                    expected: num_branches,
                    got: v.len(),
                });
            }
        }
        if let Some(plan) = &spec.fault_plan {
            // Surface invalid plans at setup so workers cannot fail on them.
            FaultInjector::empty(ctx).resample(plan, ctx, 0)?;
        }
    }
    if let Some(adm) = &cfg.admission {
        adm.validate()?;
    }
    if let Some(q) = &cfg.quarantine {
        q.validate()?;
    }
    cfg.arrival.validate(specs)?;
    let engine = cfg.resolved_engine();
    if engine == EngineKind::Lockstep && !matches!(cfg.arrival.kind, ArrivalKind::ClosedLoop) {
        return Err(SchedError::InvalidParameter(
            "the lockstep engine requires closed-loop arrivals",
        ));
    }
    match engine {
        EngineKind::Lockstep => lockstep_engine(ctx, specs, cfg, obs, start, seed_ws),
        _ => events_engine(ctx, specs, cfg, obs, start, seed_ws),
    }
}

/// Setup shared by both engines: deduplicated initial solves (tick-0
/// coalescing, telemetry on track 0 — the workers have not spawned yet)
/// and the per-stream live states, with each stream's manager wired to its
/// owner worker's telemetry track.
fn setup_streams<'a>(
    ctx: &SchedContext,
    specs: &'a [StreamSpec],
    cfg: &ServeConfig,
    obs: &Obs,
    workers: usize,
    shards: usize,
    seed_ws: Option<&mut SolverWorkspace>,
) -> Result<Vec<StreamState<'a>>, SchedError> {
    let owner = |stream_id: usize| (stream_id % shards) % workers;
    let online = OnlineScheduler::new();
    // A caller-owned seed workspace (warm across runs over the same
    // context) or a run-local fresh one — bit-identical either way by the
    // workspace's warm==cold contract.
    let mut local_ws;
    let setup_ws = match seed_ws {
        Some(ws) => ws,
        None => {
            local_ws = SolverWorkspace::new();
            &mut local_ws
        }
    };
    setup_ws.set_obs(obs.clone(), 0);
    let mut initial: HashMap<Vec<u64>, Solution> = HashMap::new();
    for spec in specs {
        if let Entry::Vacant(e) = initial.entry(probs_bits(ctx, &spec.initial_probs)) {
            e.insert(online.solve_with_workspace(ctx, &spec.initial_probs, setup_ws)?);
        }
    }

    let per_stream_capacity = match cfg.cache {
        CacheMode::PerStream { capacity } => Some(capacity),
        _ => None,
    };
    let mut states: Vec<StreamState> = Vec::with_capacity(specs.len());
    for (id, spec) in specs.iter().enumerate() {
        let solution = initial[&probs_bits(ctx, &spec.initial_probs)].clone();
        let mut mgr = AdaptiveScheduler::with_initial_solution(
            ctx,
            spec.initial_probs.clone(),
            EstimatorKind::Window(spec.window),
            spec.threshold,
            OnlineScheduler::new(),
            solution,
        )?;
        // Drift/adoption instants go to the stream's owner-worker track:
        // that worker is the only thread ever advancing this stream.
        mgr.set_obs(obs.clone(), owner(id) as u32);
        let sim = SimWorkspace::new(ctx, mgr.solution());
        states.push(StreamState {
            id,
            trace: &spec.trace,
            pos: 0,
            mgr,
            sim,
            plan: spec.fault_plan.as_ref(),
            injector: FaultInjector::empty(ctx),
            log: FaultLog::default(),
            cache: per_stream_capacity.map(LruCache::new),
            breaker: cfg.quarantine.map(Breaker::new),
            summary: StreamSummary::default(),
        });
    }
    Ok(states)
}

/// The retired-but-kept barrier-tick engine (PR 4–7): exact per-tick
/// admission semantics and same-tick coalescing, at the price of a full
/// barrier round per tick.
fn lockstep_engine<'a>(
    ctx: &SchedContext,
    specs: &'a [StreamSpec],
    cfg: &ServeConfig,
    obs: &Obs,
    start: Instant,
    seed_ws: Option<&mut SolverWorkspace>,
) -> Result<ServeReport, SchedError> {
    let shards = cfg.shards.max(1);
    let workers = cfg.workers.max(1).min(shards).min(specs.len().max(1));
    let owner = |stream_id: usize| (stream_id % shards) % workers;
    let online = OnlineScheduler::new();
    let states = setup_streams(ctx, specs, cfg, obs, workers, shards, seed_ws)?;
    // Criticalities indexed by stream id, for worker 0's shedding pass.
    let crits: Vec<u8> = specs.iter().map(|s| s.criticality).collect();

    let mut per_worker: Vec<Vec<StreamState>> = (0..workers).map(|_| Vec::new()).collect();
    for st in states {
        per_worker[owner(st.id)].push(st);
    }

    let ticks = specs.iter().map(|s| s.trace.len()).max().unwrap_or(0);
    let shared_cache = match cfg.cache {
        CacheMode::Shared { capacity, stripes } => {
            Some(SharedScheduleCache::new(capacity, stripes))
        }
        _ => None,
    };
    let barrier = Barrier::new(workers);
    let request_slots: Vec<Mutex<Vec<(usize, BranchProbs)>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    let groups: RwLock<Vec<Group>> = RwLock::new(Vec::new());
    // Stream ids shed by admission control this tick, ascending; written
    // by worker 0 during grouping, read by owners in phase C.
    let shed_ids: RwLock<Vec<usize>> = RwLock::new(Vec::new());
    let requests_cum = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let first_error: Mutex<Option<SchedError>> = Mutex::new(None);

    let fail = |e: SchedError| {
        let mut slot = first_error.lock().expect("error slot lock");
        slot.get_or_insert(e);
        abort.store(true, Ordering::SeqCst);
    };

    let run_worker = |w: usize, mut my_streams: Vec<StreamState<'a>>| {
        let barrier = &barrier;
        let request_slots = &request_slots;
        let groups = &groups;
        let shed_ids = &shed_ids;
        let crits = &crits;
        let requests_cum = &requests_cum;
        let abort = &abort;
        let shared_cache = shared_cache.as_ref();
        let online = &online;
        let fail = &fail;
        {
            {
                let track = w as u32;
                let mut ws = SolverWorkspace::new();
                ws.set_obs(obs.clone(), track);
                ws.set_budget(cfg.solve_budget);
                let mut race = cfg
                    .portfolio
                    .as_deref()
                    .map(|kinds| RaceState::new(kinds, cfg, false, obs, track));
                let mut counters = LocalCounters::default();
                let mut last_seen = 0usize;
                let id_to_idx: HashMap<usize, usize> = my_streams
                    .iter()
                    .enumerate()
                    .map(|(i, st)| (st.id, i))
                    .collect();
                for tick in 0..ticks {
                    // All workers observe the same abort state here: it is
                    // only ever stored before a barrier they all crossed.
                    if abort.load(Ordering::SeqCst) {
                        break;
                    }
                    let tick_span = obs.span(track, Stage::Tick);
                    // Phase A: advance my streams by one instance each.
                    let mut local_requests: Vec<(usize, BranchProbs)> = Vec::new();
                    for st in &mut my_streams {
                        if let Err(e) = advance_stream(
                            ctx,
                            st,
                            tick,
                            cfg.admission.is_some(),
                            &mut counters,
                            &mut local_requests,
                            obs,
                            track,
                        ) {
                            fail(e);
                        }
                    }
                    if !local_requests.is_empty() {
                        requests_cum.fetch_add(local_requests.len(), Ordering::SeqCst);
                        request_slots[w]
                            .lock()
                            .expect("request slot lock")
                            .append(&mut local_requests);
                    }
                    barrier.wait();
                    // Every worker computes the same "any requests this
                    // tick" verdict from the cumulative counter (all adds
                    // happened before the barrier); no reset required.
                    let now = requests_cum.load(Ordering::SeqCst);
                    let any_requests = now != last_seen;
                    last_seen = now;
                    if any_requests {
                        if w == 0 {
                            group_requests(
                                ctx,
                                cfg,
                                crits,
                                request_slots,
                                groups,
                                shed_ids,
                                &mut counters,
                                obs,
                            );
                        }
                        barrier.wait();
                        // Phase B: resolve my share of the groups.
                        {
                            let gs = groups.read().expect("groups read");
                            for (gi, g) in gs.iter().enumerate() {
                                if gi % workers != w {
                                    continue;
                                }
                                let outcome = resolve_group(
                                    ctx,
                                    cfg,
                                    online,
                                    &mut ws,
                                    &mut race,
                                    shared_cache,
                                    g,
                                    &mut counters,
                                    obs,
                                    track,
                                );
                                g.outcome.set(outcome).expect("each group resolved once");
                            }
                        }
                        barrier.wait();
                        // Phase C: adopt for my requesting streams. Shed
                        // streams first: they keep their plan, record the
                        // event, and their breaker is untouched (a shed is
                        // not evidence about solve cost).
                        for &sid in shed_ids.read().expect("shed read").iter() {
                            if let Some(&idx) = id_to_idx.get(&sid) {
                                my_streams[idx].summary.shed += 1;
                            }
                        }
                        let gs = groups.read().expect("groups read");
                        for g in gs.iter() {
                            let out = g.outcome.get().expect("all groups resolved");
                            let mut my_adopters = 0_i64;
                            for (slot, &sid) in g.requesters.iter().enumerate() {
                                let Some(&idx) = id_to_idx.get(&sid) else {
                                    continue; // not my stream
                                };
                                let st = &mut my_streams[idx];
                                match &out.result {
                                    Ok(solution) => {
                                        adopt(ctx, st, g, slot, out.from_shared, solution);
                                        if let Some(b) = st.breaker.as_mut() {
                                            b.note_success();
                                        }
                                        my_adopters += 1;
                                        if out.from_shared {
                                            counters.shared_hit_requests += 1;
                                        }
                                    }
                                    Err(SchedError::SolveBudgetExceeded { .. }) => {
                                        // Overload, not failure: the stream
                                        // keeps its last adopted plan and the
                                        // breaker (if any) counts a strike.
                                        st.summary.budget_exceeded += 1;
                                        let tripped = st
                                            .breaker
                                            .as_mut()
                                            .is_some_and(|b| b.note_strike(tick));
                                        if tripped {
                                            st.summary.quarantines += 1;
                                            obs.instant(track, Stage::Quarantine, sid as i64);
                                            obs.count(Counter::QuarantineEvents, 1);
                                        }
                                    }
                                    Err(e) => fail(e.clone()),
                                }
                            }
                            if my_adopters > 0 {
                                obs.instant(track, Stage::FanOut, my_adopters);
                            }
                        }
                    }
                    // Re-sync so an abort stored in phase A or C is seen by
                    // every worker at the next tick's check.
                    barrier.wait();
                    tick_span.end(tick as i64);
                }
                for st in &mut my_streams {
                    st.summary.reschedules = st.mgr.stats().reschedules;
                }
                (my_streams, counters)
            }
        }
    };
    // A single worker runs inline on the calling thread: every barrier is
    // trivially satisfied, there is nothing to overlap, and a spawned
    // thread can be scheduled measurably worse than the caller on
    // constrained hosts. Results are bit-identical either way (the worker
    // closure is the same).
    let results: Vec<(Vec<StreamState>, LocalCounters)> = if workers == 1 {
        per_worker
            .into_iter()
            .enumerate()
            .map(|(w, s)| run_worker(w, s))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let handles: Vec<_> = per_worker
                .into_iter()
                .enumerate()
                .map(|(w, s)| scope.spawn(move || run_worker(w, s)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve worker panicked"))
                .collect()
        })
    };

    if let Some(e) = first_error.into_inner().expect("error slot lock") {
        return Err(e);
    }

    let mut finished: Vec<StreamState> = Vec::with_capacity(specs.len());
    let mut counters = LocalCounters::default();
    for (streams, c) in results {
        finished.extend(streams);
        counters.absorb(&c);
    }
    finished.sort_by_key(|st| st.id);
    // Release-mode invariant: every spec'd stream must come back from the
    // worker pool exactly once — a mismatch means the shard→worker
    // partition dropped or duplicated a stream, and silently returning a
    // truncated report would corrupt every downstream determinism check.
    assert_eq!(
        finished.len(),
        specs.len(),
        "serve engine stream accounting broken: {} streams returned from \
         {} workers for {} specs (shards={})",
        finished.len(),
        workers,
        specs.len(),
        shards
    );
    let streams: Vec<StreamSummary> = finished.into_iter().map(|st| st.summary).collect();
    let stats = ServeStats {
        streams: streams.len(),
        instances: streams.iter().map(|s| s.exec.instances).sum(),
        ticks,
        drift_events: counters.drift_events,
        per_stream_hits: counters.per_stream_hits,
        requests: counters.requests,
        groups: counters.groups,
        coalesced_requests: counters.coalesced_requests,
        shared_hits: counters.shared_hits,
        shared_hit_requests: counters.shared_hit_requests,
        solver_calls: counters.solver_calls,
        shed_requests: streams.iter().map(|s| s.shed).sum(),
        budget_exceeded: streams.iter().map(|s| s.budget_exceeded).sum(),
        quarantines: streams.iter().map(|s| s.quarantines).sum(),
        quarantined_ticks: streams.iter().map(|s| s.quarantined_ticks).sum(),
        events: 0,
        max_queue_depth: 0,
        latency_p50: 0.0,
        latency_p99: 0.0,
        latency_max: 0.0,
        slo_misses: 0,
        portfolio_races: counters.portfolio_races,
        portfolio_wins: counters.portfolio_wins,
        wall_s: start.elapsed().as_secs_f64(),
    };
    // Lockstep has no arrival process: every instance starts the moment its
    // predecessor completes, so there is no latency distribution to report.
    let latencies = streams.iter().map(|_| StreamLatency::default()).collect();
    Ok(ServeReport {
        streams,
        latencies,
        stats,
    })
}

/// One virtual-time event in the discrete-event engine.
///
/// The ordering is the engine's determinism contract: earliest time first,
/// ties broken by stream id, then by per-worker insertion sequence. Two
/// events never compare equal through `total_cmp` + distinct `(stream,
/// seq)`, so heap pops are a total order independent of insertion history.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ev {
    t: f64,
    stream: usize,
    seq: u64,
    kind: EvKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    /// An instance arrived and joined its stream's queue.
    Arrive,
    /// The instance in service on this stream finished executing.
    Complete,
}

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.stream.cmp(&other.stream))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Per-stream arrival generator for the event engine.
enum ArrivalGen {
    /// Closed loop: instance `k+1` arrives when instance `k` completes.
    Closed,
    Poisson(PoissonGaps),
    Bursty(BurstyGaps),
    Trace {
        gaps: Vec<f64>,
        next: usize,
    },
}

impl ArrivalGen {
    fn new(cfg: &ArrivalConfig, stream_id: usize) -> Self {
        match cfg.kind {
            ArrivalKind::ClosedLoop => ArrivalGen::Closed,
            ArrivalKind::Poisson { rate } => {
                ArrivalGen::Poisson(PoissonGaps::new(cfg.seed, stream_id as u64, rate))
            }
            ArrivalKind::Bursty {
                rate,
                burst_mult,
                p_enter,
                p_exit,
            } => ArrivalGen::Bursty(BurstyGaps::new(
                cfg.seed,
                stream_id as u64,
                rate,
                burst_mult,
                p_enter,
                p_exit,
            )),
            ArrivalKind::Trace => ArrivalGen::Trace {
                gaps: cfg.traces.get(stream_id).cloned().unwrap_or_default(),
                next: 0,
            },
        }
    }

    /// Next inter-arrival gap, or `None` for closed-loop mode (arrivals
    /// are completion-driven, not generator-driven).
    fn next_gap(&mut self) -> Option<f64> {
        match self {
            ArrivalGen::Closed => None,
            ArrivalGen::Poisson(p) => Some(p.next_gap()),
            ArrivalGen::Bursty(b) => Some(b.next_gap()),
            ArrivalGen::Trace { gaps, next } => {
                let g = gaps.get(*next).copied().unwrap_or(0.0);
                *next += 1;
                Some(g)
            }
        }
    }

    fn is_closed(&self) -> bool {
        matches!(self, ArrivalGen::Closed)
    }
}

/// Event-engine bookkeeping for one stream, parallel to its
/// [`StreamState`]. Kept separate so the scheduling state (`StreamState`)
/// stays byte-for-byte the lockstep engine's and the closed-loop
/// equivalence proof reads off the shared helpers.
struct EvStream {
    gen: ArrivalGen,
    /// Index of the next instance to *arrive* (arrivals issued so far).
    next_arrival: usize,
    /// Virtual time of the most recent arrival (open-loop gap anchor).
    last_arrival: f64,
    /// Arrival times of instances waiting for service, FIFO.
    queue: VecDeque<f64>,
    /// Arrival time of the instance currently executing, if any.
    in_service: Option<f64>,
    /// Arrival-to-completion latency of every finished instance.
    latencies: Vec<f64>,
    /// Deepest the queue ever got (including the arriving instance).
    max_depth: usize,
}

/// One event-engine worker's yield: its streams, each stream's latency
/// samples keyed by stream id, and the worker-local counters.
type WorkerYield<'a> = (Vec<StreamState<'a>>, Vec<(usize, Vec<f64>)>, LocalCounters);

/// The discrete-event serving engine: per-worker virtual-time event queues,
/// per-stream arrival processes, no barriers. Workers never synchronise
/// after spawn (streams are partitioned, caches are exact), so virtual
/// time advances independently per worker and every per-stream result is
/// bit-identical across worker and shard counts.
fn events_engine<'a>(
    ctx: &SchedContext,
    specs: &'a [StreamSpec],
    cfg: &ServeConfig,
    obs: &Obs,
    start: Instant,
    seed_ws: Option<&mut SolverWorkspace>,
) -> Result<ServeReport, SchedError> {
    let shards = cfg.shards.max(1);
    let workers = cfg.workers.max(1).min(shards).min(specs.len().max(1));
    let owner = |stream_id: usize| (stream_id % shards) % workers;
    let states = setup_streams(ctx, specs, cfg, obs, workers, shards, seed_ws)?;
    let ticks = specs.iter().map(|s| s.trace.len()).max().unwrap_or(0);

    let shared_cache = match cfg.cache {
        CacheMode::Shared { capacity, stripes } => {
            Some(SharedScheduleCache::new(capacity, stripes))
        }
        _ => None,
    };
    let mut per_worker: Vec<Vec<StreamState>> = (0..workers).map(|_| Vec::new()).collect();
    for st in states {
        per_worker[owner(st.id)].push(st);
    }
    let abort = AtomicBool::new(false);
    let first_error: Mutex<Option<SchedError>> = Mutex::new(None);
    let fail = |e: SchedError| {
        let mut slot = first_error.lock().expect("error slot lock");
        slot.get_or_insert(e);
        abort.store(true, Ordering::SeqCst);
    };

    let run_worker = |w: usize, mut my_streams: Vec<StreamState<'a>>| {
        let abort = &abort;
        let shared_cache = shared_cache.as_ref();
        let fail = &fail;
        {
            {
                let track = w as u32;
                // Drift solves run on one worker-shared warm-start
                // workspace, exactly like the lockstep engine: its memo and
                // incumbents amortize across every stream the worker owns,
                // and the warm == cold bit-identity contract (§11) keeps
                // summaries invariant across worker counts regardless of
                // which streams share a workspace.
                let online = OnlineScheduler::new();
                let mut ws = SolverWorkspace::new();
                ws.set_obs(obs.clone(), track);
                ws.set_budget(cfg.solve_budget);
                // The §15 near-miss memo, worker-wide: every stream's
                // regime revisits (and any cross-stream table collisions)
                // replay as sub-ms exact-guarded hits with the stored work
                // re-charged, so budget verdicts and solutions stay
                // bit-identical to a cold solve at any worker count.
                if cfg.quantum.is_finite() && cfg.quantum > 0.0 {
                    ws.set_near_memo(cfg.quantum, NEAR_MEMO_WORKER_CAP);
                }
                let mut race = cfg
                    .portfolio
                    .as_deref()
                    .map(|kinds| RaceState::new(kinds, cfg, true, obs, track));
                let mut counters = LocalCounters::default();
                let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
                let mut seq = 0u64;
                // Index into `my_streams`/`evs` by local position; events
                // carry the global stream id for deterministic ordering.
                let id_to_idx: HashMap<usize, usize> = my_streams
                    .iter()
                    .enumerate()
                    .map(|(i, st)| (st.id, i))
                    .collect();
                let mut evs: Vec<EvStream> = Vec::with_capacity(my_streams.len());
                for st in &my_streams {
                    evs.push(EvStream {
                        next_arrival: 0,
                        last_arrival: 0.0,
                        queue: VecDeque::new(),
                        in_service: None,
                        latencies: Vec::with_capacity(st.trace.len()),
                        max_depth: 0,
                        gen: ArrivalGen::new(&cfg.arrival, st.id),
                    });
                }
                let seed = |st: &StreamState,
                            es: &mut EvStream,
                            heap: &mut BinaryHeap<Reverse<Ev>>,
                            seq: &mut u64| {
                    if !st.trace.is_empty() {
                        let t0 = es.gen.next_gap().unwrap_or(0.0);
                        es.last_arrival = t0;
                        es.next_arrival = 1;
                        heap.push(Reverse(Ev {
                            t: t0,
                            stream: st.id,
                            seq: *seq,
                            kind: EvKind::Arrive,
                        }));
                        *seq += 1;
                    }
                };
                macro_rules! drain {
                    () => {
                        while let Some(Reverse(ev)) = heap.pop() {
                            if abort.load(Ordering::SeqCst) {
                                break;
                            }
                            counters.events += 1;
                            let span = obs.span(track, Stage::Dequeue);
                            let idx = id_to_idx[&ev.stream];
                            let st = &mut my_streams[idx];
                            let es = &mut evs[idx];
                            let r = match ev.kind {
                                EvKind::Arrive => {
                                    on_arrive(ctx, st, es, ev.t, &mut heap, &mut seq, obs, track)
                                }
                                EvKind::Complete => on_complete(
                                    ctx,
                                    cfg,
                                    st,
                                    es,
                                    ev.t,
                                    &mut heap,
                                    &mut seq,
                                    &online,
                                    &mut ws,
                                    &mut race,
                                    shared_cache,
                                    &mut counters,
                                    obs,
                                    track,
                                ),
                            };
                            if let Err(e) = r {
                                fail(e);
                            }
                            counters.max_queue_depth = counters.max_queue_depth.max(es.max_depth);
                            span.end(ev.stream as i64);
                        }
                    };
                }
                if matches!(cfg.arrival.kind, ArrivalKind::ClosedLoop) {
                    // Closed loop has no cross-stream timing coupling: a
                    // stream's next event is always its own, so the heap
                    // would round-robin the worker's streams instance by
                    // instance, evicting each stream's warm solver and
                    // simulation state between turns. Running streams to
                    // completion one at a time keeps that state hot and
                    // changes nothing a summary can observe (per-stream
                    // decisions are stream-local; shared-cache hit counters
                    // are documented as order-wobbly).
                    for idx in 0..my_streams.len() {
                        seed(&my_streams[idx], &mut evs[idx], &mut heap, &mut seq);
                        drain!();
                    }
                } else {
                    for idx in 0..my_streams.len() {
                        seed(&my_streams[idx], &mut evs[idx], &mut heap, &mut seq);
                    }
                    drain!();
                }
                for st in &mut my_streams {
                    st.summary.reschedules = st.mgr.stats().reschedules;
                }
                let lats: Vec<(usize, Vec<f64>)> = my_streams
                    .iter()
                    .zip(evs)
                    .map(|(st, es)| (st.id, es.latencies))
                    .collect();
                (my_streams, lats, counters)
            }
        }
    };
    // A single worker runs inline on the calling thread: there is nothing
    // to overlap, and a spawned thread can be scheduled measurably worse
    // than the caller on constrained hosts. Results are bit-identical
    // either way (the worker closure is the same).
    let results: Vec<WorkerYield> = if workers == 1 {
        per_worker
            .into_iter()
            .enumerate()
            .map(|(w, s)| run_worker(w, s))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let handles: Vec<_> = per_worker
                .into_iter()
                .enumerate()
                .map(|(w, s)| scope.spawn(move || run_worker(w, s)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve worker panicked"))
                .collect()
        })
    };
    let (finished, counters) = {
        let mut finished: Vec<(StreamState, Vec<f64>)> = Vec::with_capacity(specs.len());
        let mut counters = LocalCounters::default();
        for (streams, mut lats, c) in results {
            let by_id: HashMap<usize, usize> = lats
                .iter()
                .enumerate()
                .map(|(i, (id, _))| (*id, i))
                .collect();
            for st in streams {
                let lat = std::mem::take(&mut lats[by_id[&st.id]].1);
                finished.push((st, lat));
            }
            counters.absorb(&c);
        }
        (finished, counters)
    };

    if let Some(e) = first_error.into_inner().expect("error slot lock") {
        return Err(e);
    }

    let mut finished = finished;
    finished.sort_by_key(|(st, _)| st.id);
    assert_eq!(
        finished.len(),
        specs.len(),
        "serve engine stream accounting broken: {} streams returned from \
         {} workers for {} specs (shards={})",
        finished.len(),
        workers,
        specs.len(),
        shards
    );
    let mut streams: Vec<StreamSummary> = Vec::with_capacity(finished.len());
    let mut latencies: Vec<StreamLatency> = Vec::with_capacity(finished.len());
    let mut pooled: Vec<f64> = Vec::new();
    for (st, lats) in finished {
        pooled.extend_from_slice(&lats);
        latencies.push(StreamLatency::from_latencies(lats, cfg.arrival.slo));
        streams.push(st.summary);
    }
    pooled.sort_by(f64::total_cmp);
    let stats = ServeStats {
        streams: streams.len(),
        instances: streams.iter().map(|s| s.exec.instances).sum(),
        ticks,
        drift_events: counters.drift_events,
        per_stream_hits: counters.per_stream_hits,
        requests: counters.requests,
        groups: counters.groups,
        coalesced_requests: counters.coalesced_requests,
        shared_hits: counters.shared_hits,
        shared_hit_requests: counters.shared_hit_requests,
        solver_calls: counters.solver_calls,
        shed_requests: streams.iter().map(|s| s.shed).sum(),
        budget_exceeded: streams.iter().map(|s| s.budget_exceeded).sum(),
        quarantines: streams.iter().map(|s| s.quarantines).sum(),
        quarantined_ticks: streams.iter().map(|s| s.quarantined_ticks).sum(),
        events: counters.events,
        max_queue_depth: counters.max_queue_depth,
        latency_p50: percentile_sorted(&pooled, 50.0),
        latency_p99: percentile_sorted(&pooled, 99.0),
        latency_max: pooled.last().copied().unwrap_or(0.0),
        slo_misses: latencies.iter().map(|l| l.slo_misses).sum(),
        portfolio_races: counters.portfolio_races,
        portfolio_wins: counters.portfolio_wins,
        wall_s: start.elapsed().as_secs_f64(),
    };
    Ok(ServeReport {
        streams,
        latencies,
        stats,
    })
}

/// Arrive handler: queue the instance, schedule the successor arrival (open
/// loop only), and start service if the stream is idle.
#[allow(clippy::too_many_arguments)]
fn on_arrive(
    ctx: &SchedContext,
    st: &mut StreamState,
    es: &mut EvStream,
    now: f64,
    heap: &mut BinaryHeap<Reverse<Ev>>,
    seq: &mut u64,
    obs: &Obs,
    track: u32,
) -> Result<(), SchedError> {
    // Open loop: the next arrival is independent of service progress.
    if !es.gen.is_closed() && es.next_arrival < st.trace.len() {
        if let Some(g) = es.gen.next_gap() {
            es.last_arrival += g;
            es.next_arrival += 1;
            heap.push(Reverse(Ev {
                t: es.last_arrival,
                stream: st.id,
                seq: *seq,
                kind: EvKind::Arrive,
            }));
            *seq += 1;
        }
    }
    es.queue.push_back(now);
    obs.instant(track, Stage::Enqueue, es.queue.len() as i64);
    if es.in_service.is_none() {
        start_service(ctx, st, es, now, heap, seq, obs, track)?;
    }
    // Depth is measured *after* the idle-server fast path, so an arrival
    // that goes straight into service never counts as queued — closed-loop
    // runs report depth 0, as [`ArrivalKind::ClosedLoop`] promises.
    es.max_depth = es.max_depth.max(es.queue.len());
    Ok(())
}

/// Starts service on the head-of-queue instance: simulate it under the
/// plan in force (the identical code path to the lockstep engine's phase
/// A), record the observation, and schedule the completion event one
/// simulated makespan later.
#[allow(clippy::too_many_arguments)]
fn start_service(
    ctx: &SchedContext,
    st: &mut StreamState,
    es: &mut EvStream,
    now: f64,
    heap: &mut BinaryHeap<Reverse<Ev>>,
    seq: &mut u64,
    obs: &Obs,
    track: u32,
) -> Result<(), SchedError> {
    let arrival = es.queue.pop_front().expect("start_service on empty queue");
    let v = &st.trace[st.pos];
    let outcome = match st.plan {
        Some(plan) => {
            st.injector.resample(plan, ctx, st.pos as u64)?;
            let r = st.sim.simulate_faulty(
                ctx,
                st.mgr.solution(),
                v,
                plan,
                &st.injector,
                &mut st.log,
            )?;
            st.summary.faults.absorb(&st.log.stats);
            note_faults(obs, track, &st.log.stats);
            r
        }
        None => st.sim.simulate(ctx, st.mgr.solution(), v)?,
    };
    st.summary.absorb_outcome(&outcome);
    note_instance(obs, ctx, &outcome);
    st.pos += 1;
    st.mgr.record_observation(ctx, v)?;
    es.in_service = Some(arrival);
    heap.push(Reverse(Ev {
        t: now + outcome.makespan,
        stream: st.id,
        seq: *seq,
        kind: EvKind::Complete,
    }));
    *seq += 1;
    Ok(())
}

/// Complete handler: measure latency, run the post-instance adaptation
/// pipeline (drift check, admission, caches, solve), feed the closed loop,
/// and pull the next queued instance into service.
#[allow(clippy::too_many_arguments)]
fn on_complete(
    ctx: &SchedContext,
    cfg: &ServeConfig,
    st: &mut StreamState,
    es: &mut EvStream,
    now: f64,
    heap: &mut BinaryHeap<Reverse<Ev>>,
    seq: &mut u64,
    online: &OnlineScheduler,
    ws: &mut SolverWorkspace,
    race: &mut Option<RaceState>,
    shared: Option<&SharedScheduleCache>,
    counters: &mut LocalCounters,
    obs: &Obs,
    track: u32,
) -> Result<(), SchedError> {
    let arrival = es.in_service.take().expect("complete without service");
    let latency = now - arrival;
    es.latencies.push(latency);
    if cfg.arrival.slo.is_some_and(|s| latency > s) {
        note_slo_miss(obs, track, st.id);
    }
    post_instance(
        ctx,
        cfg,
        st,
        es.queue.len(),
        online,
        ws,
        race,
        shared,
        counters,
        obs,
        track,
    )?;
    // Closed loop: the next arrival is this completion.
    if es.gen.is_closed() && es.next_arrival < st.trace.len() {
        es.next_arrival += 1;
        heap.push(Reverse(Ev {
            t: now,
            stream: st.id,
            seq: *seq,
            kind: EvKind::Arrive,
        }));
        *seq += 1;
    } else if !es.queue.is_empty() {
        start_service(ctx, st, es, now, heap, seq, obs, track)?;
    }
    Ok(())
}

/// The adaptation pipeline after instance `st.pos - 1` completes: breaker
/// gate, drift check, queue-depth admission, per-stream cache fast path,
/// shared cache, and finally a solve on the worker-shared warm workspace
/// (the lockstep engine's routing). Mirrors that engine's decision order exactly so
/// closed-loop summaries stay bit-identical; only the *shed* trigger
/// differs (queue depth here, per-tick drift volume there), and in closed
/// loop the queue is always empty so no shed ever fires.
#[allow(clippy::too_many_arguments)]
fn post_instance(
    ctx: &SchedContext,
    cfg: &ServeConfig,
    st: &mut StreamState,
    queue_depth: usize,
    online: &OnlineScheduler,
    ws: &mut SolverWorkspace,
    race: &mut Option<RaceState>,
    shared: Option<&SharedScheduleCache>,
    counters: &mut LocalCounters,
    obs: &Obs,
    track: u32,
) -> Result<(), SchedError> {
    // The instance just executed was index `pos - 1`; in closed loop this
    // equals the lockstep tick, so breaker windows line up bit-for-bit.
    let k = st.pos - 1;
    if let Some(b) = st.breaker.as_mut() {
        if b.is_quarantined(k) {
            st.summary.quarantined_ticks += 1;
            return Ok(());
        }
    }
    let Some(estimated) = st.mgr.drift_candidate(ctx) else {
        return Ok(());
    };
    counters.drift_events += 1;
    // Queue-depth admission: under sustained overload the queue behind
    // this stream grows; shedding the *reschedule* (not the instance)
    // keeps serving under the last adopted plan. In closed loop the queue
    // is always empty at completion, so this never fires — which is what
    // keeps summaries bit-identical to the lockstep engine.
    if let Some(adm) = &cfg.admission {
        if queue_depth > adm.high_water {
            st.summary.shed += 1;
            obs.instant(track, Stage::Shed, 1);
            obs.count(Counter::ShedRequests, 1);
            return Ok(());
        }
    }
    if let Some(cache) = st.cache.as_mut() {
        let key = ScheduleKey::new(ctx, &estimated, st.mgr.threshold(), 1.0);
        let hit = cache
            .get(&key)
            .filter(|e| e.probs == estimated)
            .map(|e| e.solution.clone());
        if let Some(solution) = hit {
            counters.per_stream_hits += 1;
            obs.instant(track, Stage::CacheHit, 1);
            obs.count(Counter::CacheHits, 1);
            st.mgr.adopt_candidate(estimated, solution, false);
            st.sim.rebuild(ctx, st.mgr.solution());
            if let Some(b) = st.breaker.as_mut() {
                b.note_success();
            }
            return Ok(());
        }
    }
    // From here on this is one single-requester "group": same counters and
    // telemetry the lockstep engine's resolve/adopt phases would record.
    counters.requests += 1;
    counters.groups += 1;
    let key = shared.map(|_| ScheduleKey::new(ctx, &estimated, cfg.quantum, 1.0));
    if let (Some(cache), Some(key)) = (shared, key.as_ref()) {
        if let Some(solution) = cache.lookup(key, &estimated) {
            counters.shared_hits += 1;
            counters.shared_hit_requests += 1;
            obs.instant(track, Stage::CacheHit, 1);
            obs.count(Counter::CacheHits, 1);
            st.mgr.adopt_candidate(estimated, solution, false);
            st.sim.rebuild(ctx, st.mgr.solution());
            if let Some(b) = st.breaker.as_mut() {
                b.note_success();
            }
            return Ok(());
        }
        obs.instant(track, Stage::CacheMiss, 1);
        obs.count(Counter::CacheMisses, 1);
    }
    counters.solver_calls += 1;
    match serve_solve(ctx, online, ws, race, &estimated, counters, obs, track) {
        Ok(solution) => {
            if let (Some(cache), Some(key)) = (shared, key) {
                cache.insert(key, estimated.clone(), solution.clone());
            }
            if let Some(cache) = st.cache.as_mut() {
                let key = ScheduleKey::new(ctx, &estimated, st.mgr.threshold(), 1.0);
                cache.insert(
                    key,
                    CacheEntry {
                        probs: estimated.clone(),
                        solution: solution.clone(),
                    },
                );
            }
            st.mgr.adopt_candidate(estimated, solution, true);
            st.sim.rebuild(ctx, st.mgr.solution());
            if let Some(b) = st.breaker.as_mut() {
                b.note_success();
            }
            Ok(())
        }
        Err(SchedError::SolveBudgetExceeded { .. }) => {
            st.summary.budget_exceeded += 1;
            let tripped = st.breaker.as_mut().is_some_and(|b| b.note_strike(k));
            if tripped {
                st.summary.quarantines += 1;
                obs.instant(track, Stage::Quarantine, st.id as i64);
                obs.count(Counter::QuarantineEvents, 1);
            }
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// Phase A for one stream: simulate the next instance under the solution
/// in force, record the observation, and either satisfy a drift event from
/// the stream's own cache or queue a solve request.
///
/// With admission control on, the per-stream cache fast path is bypassed
/// and **every** drift candidate becomes a request: the shed decision must
/// see the tick's full drift set (which is per-stream deterministic) or it
/// would depend on the cache mode. Quarantined streams skip the drift
/// check entirely — their plan is frozen; the profiler keeps recording so
/// a re-admitted stream picks up with current estimates.
#[allow(clippy::too_many_arguments)]
fn advance_stream(
    ctx: &SchedContext,
    st: &mut StreamState,
    tick: usize,
    admission_on: bool,
    counters: &mut LocalCounters,
    requests: &mut Vec<(usize, BranchProbs)>,
    obs: &Obs,
    track: u32,
) -> Result<(), SchedError> {
    if st.pos >= st.trace.len() {
        return Ok(());
    }
    let v = &st.trace[st.pos];
    let outcome = match st.plan {
        Some(plan) => {
            st.injector.resample(plan, ctx, st.pos as u64)?;
            let r = st.sim.simulate_faulty(
                ctx,
                st.mgr.solution(),
                v,
                plan,
                &st.injector,
                &mut st.log,
            )?;
            st.summary.faults.absorb(&st.log.stats);
            note_faults(obs, track, &st.log.stats);
            r
        }
        None => st.sim.simulate(ctx, st.mgr.solution(), v)?,
    };
    st.summary.absorb_outcome(&outcome);
    note_instance(obs, ctx, &outcome);
    st.pos += 1;
    st.mgr.record_observation(ctx, v)?;
    if let Some(b) = st.breaker.as_mut() {
        if b.is_quarantined(tick) {
            st.summary.quarantined_ticks += 1;
            return Ok(());
        }
    }
    let Some(estimated) = st.mgr.drift_candidate(ctx) else {
        return Ok(());
    };
    counters.drift_events += 1;
    if !admission_on {
        if let Some(cache) = st.cache.as_mut() {
            let key = ScheduleKey::new(ctx, &estimated, st.mgr.threshold(), 1.0);
            let hit = cache
                .get(&key)
                .filter(|e| e.probs == estimated)
                .map(|e| e.solution.clone());
            if let Some(solution) = hit {
                // Exact-guard hit in the stream's own cache: adopt immediately,
                // no request. The plan is the solver's own earlier output for
                // this exact table, so adoption bits cannot differ.
                counters.per_stream_hits += 1;
                obs.instant(track, Stage::CacheHit, 1);
                obs.count(Counter::CacheHits, 1);
                st.mgr.adopt_candidate(estimated, solution, false);
                st.sim.rebuild(ctx, st.mgr.solution());
                // The cached plan solved within budget when it was adopted,
                // so the hit carries the same verdict a fresh solve would —
                // the breaker window must see it or its contents would
                // depend on the cache mode.
                if let Some(b) = st.breaker.as_mut() {
                    b.note_success();
                }
                return Ok(());
            }
        }
    }
    requests.push((st.id, estimated));
    Ok(())
}

/// Grouping (worker 0, between barriers): drain every worker's request
/// slot, apply admission control, sort by stream id, and fold identical
/// exact tables into one group (or one group per request with coalescing
/// off). Deterministic: a pure function of the tick's request set — the
/// shed order is the total order (criticality desc, stream id asc), so it
/// cannot depend on which worker queued a request first.
#[allow(clippy::too_many_arguments)]
fn group_requests(
    ctx: &SchedContext,
    cfg: &ServeConfig,
    crits: &[u8],
    request_slots: &[Mutex<Vec<(usize, BranchProbs)>>],
    groups: &RwLock<Vec<Group>>,
    shed_ids: &RwLock<Vec<usize>>,
    counters: &mut LocalCounters,
    obs: &Obs,
) {
    let mut all: Vec<(usize, BranchProbs)> = Vec::new();
    for slot in request_slots {
        all.append(&mut slot.lock().expect("request slot lock"));
    }
    let tick_requests = all.len();
    let mut shed: Vec<usize> = Vec::new();
    if let Some(adm) = &cfg.admission {
        if all.len() > adm.high_water {
            // Admit the `high_water` highest-priority requests: highest
            // criticality first, lowest stream id among equals.
            all.sort_by_key(|&(id, _)| (std::cmp::Reverse(crits[id]), id));
            shed = all
                .split_off(adm.high_water)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            shed.sort_unstable();
            // Grouping runs on worker 0 between barriers: track 0 is its
            // track.
            obs.instant(0, Stage::Shed, shed.len() as i64);
            obs.count(Counter::ShedRequests, shed.len() as u64);
        }
    }
    *shed_ids.write().expect("shed write") = shed;
    all.sort_by_key(|&(id, _)| id);
    let mut new_groups: Vec<Group> = Vec::new();
    if cfg.coalesce {
        let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
        for (id, probs) in all {
            match index.entry(probs_bits(ctx, &probs)) {
                Entry::Occupied(e) => new_groups[*e.get()].requesters.push(id),
                Entry::Vacant(e) => {
                    e.insert(new_groups.len());
                    new_groups.push(Group {
                        probs,
                        requesters: vec![id],
                        outcome: OnceLock::new(),
                    });
                }
            }
        }
    } else {
        new_groups.extend(all.into_iter().map(|(id, probs)| Group {
            probs,
            requesters: vec![id],
            outcome: OnceLock::new(),
        }));
    }
    counters.requests += tick_requests;
    counters.groups += new_groups.len();
    let coalesced = tick_requests - new_groups.len();
    counters.coalesced_requests += coalesced;
    if coalesced > 0 {
        // Grouping runs on worker 0 between barriers: track 0 is its track.
        obs.instant(0, Stage::Coalesce, coalesced as i64);
        obs.count(Counter::CoalescedRequests, coalesced as u64);
    }
    *groups.write().expect("groups write") = new_groups;
}

/// Phase B for one group: shared-cache lookup (exact guard), else one warm
/// solve, inserted back into the shared cache on success.
#[allow(clippy::too_many_arguments)]
/// Per-worker portfolio racing state: the configured entries and one
/// private workspace per entry, built exactly like the worker's own DLS
/// workspace (same obs track and budget; the near-miss memo mirrors the
/// owning engine's choice). Entry workspaces never mix across schedulers —
/// warm-layer keys carry no scheduler identity, so sharing one would
/// replay another entry's plans.
struct RaceState {
    kinds: Vec<SchedulerKind>,
    wss: Vec<SolverWorkspace>,
}

impl RaceState {
    fn new(
        kinds: &[SchedulerKind],
        cfg: &ServeConfig,
        near_memo: bool,
        obs: &Obs,
        track: u32,
    ) -> Self {
        let wss = kinds
            .iter()
            .map(|_| {
                let mut ws = SolverWorkspace::new();
                ws.set_obs(obs.clone(), track);
                ws.set_budget(cfg.solve_budget);
                if near_memo && cfg.quantum.is_finite() && cfg.quantum > 0.0 {
                    ws.set_near_memo(cfg.quantum, NEAR_MEMO_WORKER_CAP);
                }
                ws
            })
            .collect();
        RaceState {
            kinds: kinds.to_vec(),
            wss,
        }
    }
}

/// The one solver entry point of both engines: the DLS pipeline through
/// the worker's warm workspace, or — with [`ServeConfig::portfolio`] set —
/// a portfolio race (see [`race_portfolio`]). Shared/per-stream caches
/// store whatever comes
/// back; their exact-probability guards make replaying a raced winner just
/// as sound as replaying a DLS plan.
#[allow(clippy::too_many_arguments)]
fn serve_solve(
    ctx: &SchedContext,
    online: &OnlineScheduler,
    ws: &mut SolverWorkspace,
    race: &mut Option<RaceState>,
    probs: &BranchProbs,
    counters: &mut LocalCounters,
    obs: &Obs,
    track: u32,
) -> Result<Solution, SchedError> {
    match race.as_mut() {
        None => online.solve_with_workspace(ctx, probs, ws),
        Some(r) => {
            let raced = race_portfolio(&r.kinds, ctx, probs, &mut r.wss, obs, track);
            counters.portfolio_races += 1;
            let outcome = raced?;
            counters.portfolio_wins[r.kinds[outcome.winner].index()] += 1;
            Ok(outcome.solution)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve_group(
    ctx: &SchedContext,
    cfg: &ServeConfig,
    online: &OnlineScheduler,
    ws: &mut SolverWorkspace,
    race: &mut Option<RaceState>,
    shared: Option<&SharedScheduleCache>,
    g: &Group,
    counters: &mut LocalCounters,
    obs: &Obs,
    track: u32,
) -> GroupOutcome {
    let key = shared.map(|_| ScheduleKey::new(ctx, &g.probs, cfg.quantum, 1.0));
    if let (Some(cache), Some(key)) = (shared, key.as_ref()) {
        if let Some(solution) = cache.lookup(key, &g.probs) {
            counters.shared_hits += 1;
            obs.instant(track, Stage::CacheHit, g.requesters.len() as i64);
            obs.count(Counter::CacheHits, 1);
            return GroupOutcome {
                result: Ok(solution),
                from_shared: true,
            };
        }
        obs.instant(track, Stage::CacheMiss, g.requesters.len() as i64);
        obs.count(Counter::CacheMisses, 1);
    }
    counters.solver_calls += 1;
    // The stripe lock is NOT held during the solve: two same-cell groups
    // may solve concurrently and insert in either order — harmless, the
    // exact guard keeps every future hit bit-correct.
    let result = serve_solve(ctx, online, ws, race, &g.probs, counters, obs, track);
    if let (Ok(solution), Some(cache), Some(key)) = (&result, shared, key) {
        cache.insert(key, g.probs.clone(), solution.clone());
    }
    GroupOutcome {
        result,
        from_shared: false,
    }
}

/// Phase C for one requester: adopt the group's plan into the stream and
/// refresh its simulation workspace.
fn adopt(
    ctx: &SchedContext,
    st: &mut StreamState,
    g: &Group,
    requester_slot: usize,
    from_shared: bool,
    solution: &Solution,
) {
    // `calls` semantics: the group's solve is attributed to its first
    // requester (lowest stream id — grouping input is sorted, so this is
    // deterministic); coalesced followers and cache-served adopters record
    // a reschedule without a call.
    let solver_call = !from_shared && requester_slot == 0;
    if let Some(cache) = st.cache.as_mut() {
        let key = ScheduleKey::new(ctx, &g.probs, st.mgr.threshold(), 1.0);
        cache.insert(
            key,
            CacheEntry {
                probs: g.probs.clone(),
                solution: solution.clone(),
            },
        );
    }
    st.mgr
        .adopt_candidate(g.probs.clone(), solution.clone(), solver_call);
    st.sim.rebuild(ctx, st.mgr.solution());
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctg_model::BranchProbs;
    use ctg_sched::test_util::example1_context;

    fn setup() -> (SchedContext, BranchProbs) {
        let (ctx, probs, _) = example1_context();
        (ctx, probs)
    }

    fn drifty_trace(len: usize, phase: usize) -> Vec<DecisionVector> {
        (0..len)
            .map(|i| {
                let alt = u8::from(((i + phase) / 8) % 2 == 1);
                DecisionVector::new(vec![alt, alt])
            })
            .collect()
    }

    #[test]
    fn shards_env_parsing() {
        assert_eq!(parse_shards(None), None);
        assert_eq!(parse_shards(Some("8")), Some(8));
        assert_eq!(parse_shards(Some(" 3 ")), Some(3));
        assert_eq!(parse_shards(Some("0")), None);
        assert_eq!(parse_shards(Some("nope")), None);
        assert!(default_shards() >= 1);
    }

    #[test]
    fn arrival_env_parsing() {
        assert_eq!(parse_arrival(None), None);
        assert_eq!(parse_arrival(Some("closed")), Some(ArrivalKind::ClosedLoop));
        assert_eq!(
            parse_arrival(Some(" Poisson:0.5 ")),
            Some(ArrivalKind::Poisson { rate: 0.5 })
        );
        assert_eq!(
            parse_arrival(Some("bursty:1.0:8:0.1:0.25")),
            Some(ArrivalKind::Bursty {
                rate: 1.0,
                burst_mult: 8.0,
                p_enter: 0.1,
                p_exit: 0.25,
            })
        );
        // Malformed or out-of-range specs degrade to None, never panic.
        for bad in [
            "poisson",
            "poisson:0",
            "poisson:-1",
            "poisson:inf",
            "poisson:x",
            "bursty:1:0.5:0.1:0.25", // burst_mult < 1
            "bursty:1:8:1.5:0.25",   // p_enter out of range
            "bursty:1:8:0.1",        // missing field
            "trace",
            "",
        ] {
            assert_eq!(parse_arrival(Some(bad)), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn arrival_validation_rejects_bad_configs() {
        let (ctx, probs) = setup();
        let spec = StreamSpec {
            trace: drifty_trace(8, 0),
            initial_probs: probs,
            window: 4,
            threshold: 0.3,
            fault_plan: None,
            criticality: 0,
        };
        let run = |arrival: ArrivalConfig| {
            let cfg = ServeConfig {
                arrival,
                ..ServeConfig::default()
            };
            run_serve(&ctx, std::slice::from_ref(&spec), &cfg)
        };
        let bad = [
            ArrivalConfig {
                kind: ArrivalKind::Poisson { rate: 0.0 },
                ..ArrivalConfig::default()
            },
            ArrivalConfig {
                kind: ArrivalKind::Bursty {
                    rate: 1.0,
                    burst_mult: 0.5,
                    p_enter: 0.1,
                    p_exit: 0.25,
                },
                ..ArrivalConfig::default()
            },
            ArrivalConfig {
                kind: ArrivalKind::Trace,
                traces: vec![], // one stream, zero traces
                ..ArrivalConfig::default()
            },
            ArrivalConfig {
                kind: ArrivalKind::Trace,
                traces: vec![vec![1.0; 4]], // shorter than the 8-long trace
                ..ArrivalConfig::default()
            },
            ArrivalConfig {
                kind: ArrivalKind::Trace,
                traces: vec![vec![-1.0; 8]], // negative gap
                ..ArrivalConfig::default()
            },
            ArrivalConfig {
                slo: Some(0.0),
                ..ArrivalConfig::default()
            },
        ];
        for arrival in bad {
            assert!(
                matches!(run(arrival.clone()), Err(SchedError::InvalidParameter(_))),
                "{arrival:?} must be rejected"
            );
        }
        assert!(run(ArrivalConfig::default()).is_ok());
    }

    #[test]
    fn engine_resolution_routes_admission_to_lockstep() {
        let open = ArrivalConfig {
            kind: ArrivalKind::Poisson { rate: 1.0 },
            ..ArrivalConfig::default()
        };
        let auto = ServeConfig::default();
        assert_eq!(auto.resolved_engine(), EngineKind::Events);
        let admitted = ServeConfig {
            admission: Some(AdmissionConfig { high_water: 1 }),
            ..ServeConfig::default()
        };
        assert_eq!(admitted.resolved_engine(), EngineKind::Lockstep);
        let admitted_open = ServeConfig {
            admission: Some(AdmissionConfig { high_water: 1 }),
            arrival: open.clone(),
            ..ServeConfig::default()
        };
        assert_eq!(admitted_open.resolved_engine(), EngineKind::Events);
        let pinned = ServeConfig {
            engine: EngineKind::Lockstep,
            ..ServeConfig::default()
        };
        assert_eq!(pinned.resolved_engine(), EngineKind::Lockstep);

        // A pinned lockstep engine cannot serve open-loop arrivals.
        let (ctx, probs) = setup();
        let spec = StreamSpec {
            trace: drifty_trace(8, 0),
            initial_probs: probs,
            window: 4,
            threshold: 0.3,
            fault_plan: None,
            criticality: 0,
        };
        let bad = ServeConfig {
            engine: EngineKind::Lockstep,
            arrival: open,
            ..ServeConfig::default()
        };
        assert!(matches!(
            run_serve(&ctx, &[spec], &bad),
            Err(SchedError::InvalidParameter(_))
        ));
    }

    #[test]
    fn events_engine_matches_lockstep_bit_for_bit_in_closed_loop() {
        let (ctx, probs) = setup();
        let specs: Vec<StreamSpec> = (0..6)
            .map(|i| StreamSpec {
                trace: drifty_trace(40, i),
                initial_probs: probs.clone(),
                window: 4,
                threshold: 0.3,
                fault_plan: None,
                criticality: 0,
            })
            .collect();
        for cache in [
            CacheMode::Off,
            CacheMode::PerStream { capacity: 16 },
            CacheMode::Shared {
                capacity: 64,
                stripes: 4,
            },
        ] {
            let lockstep = run_serve(
                &ctx,
                &specs,
                &ServeConfig {
                    cache,
                    engine: EngineKind::Lockstep,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let events = run_serve(
                &ctx,
                &specs,
                &ServeConfig {
                    cache,
                    engine: EngineKind::Events,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                events.streams, lockstep.streams,
                "closed-loop equivalence broke under {cache:?}"
            );
            // Closed loop: latency is exactly the service time, so the
            // latency aggregate must reproduce the makespan aggregate.
            let max_makespan = lockstep
                .streams
                .iter()
                .map(|s| s.exec.max_makespan)
                .fold(0.0_f64, f64::max);
            assert_eq!(events.stats.latency_max, max_makespan);
            assert_eq!(events.stats.slo_misses, 0);
        }
    }

    #[test]
    fn open_loop_arrivals_keep_summaries_and_measure_queueing() {
        let (ctx, probs) = setup();
        let specs: Vec<StreamSpec> = (0..4)
            .map(|i| StreamSpec {
                trace: drifty_trace(32, i),
                initial_probs: probs.clone(),
                window: 4,
                threshold: 0.3,
                fault_plan: None,
                criticality: 0,
            })
            .collect();
        let closed = run_serve(&ctx, &specs, &ServeConfig::default()).unwrap();
        // A rate high enough to queue instances behind each other.
        let poisson = run_serve(
            &ctx,
            &specs,
            &ServeConfig {
                arrival: ArrivalConfig {
                    kind: ArrivalKind::Poisson { rate: 1.0 },
                    slo: Some(ctx.ctg().deadline()),
                    ..ArrivalConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // Scheduling decisions depend only on the decision-vector trace,
        // not on when instances arrive: summaries are arrival-invariant.
        assert_eq!(poisson.streams, closed.streams);
        assert_eq!(poisson.latencies.len(), specs.len());
        let measured: usize = poisson.latencies.iter().map(|l| l.count).sum();
        assert_eq!(measured, poisson.stats.instances);
        assert!(poisson.stats.latency_p99 >= poisson.stats.latency_p50);
        assert!(poisson.stats.max_queue_depth >= 1);
        assert!(poisson.stats.events >= 2 * poisson.stats.instances);
    }

    #[test]
    fn shared_cache_exact_guard_rejects_same_bucket_neighbours() {
        let (ctx, probs) = setup();
        let cache = SharedScheduleCache::new(8, 2);
        let fork = ctx.ctg().branch_nodes()[0];
        let mut a = probs.clone();
        a.set(fork, vec![0.6, 0.4]).unwrap();
        let mut b = probs.clone();
        b.set(fork, vec![0.59, 0.41]).unwrap();
        let quantum = 0.3;
        let key_a = ScheduleKey::new(&ctx, &a, quantum, 1.0);
        let key_b = ScheduleKey::new(&ctx, &b, quantum, 1.0);
        assert_eq!(key_a, key_b, "0.6 and 0.59 share a 0.3-quantum bucket");

        let sol = OnlineScheduler::new().solve(&ctx, &a).unwrap();
        cache.insert(key_a, a.clone(), sol.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key_b, &a), Some(sol));
        assert_eq!(
            cache.lookup(&key_b, &b),
            None,
            "same bucket, different exact table must miss"
        );
    }

    #[test]
    fn empty_and_trivial_runs() {
        let (ctx, probs) = setup();
        let report = run_serve(&ctx, &[], &ServeConfig::default()).unwrap();
        assert!(report.streams.is_empty());
        assert_eq!(report.stats.instances, 0);

        let spec = StreamSpec {
            trace: Vec::new(),
            initial_probs: probs,
            window: 4,
            threshold: 0.3,
            fault_plan: None,
            criticality: 0,
        };
        let report = run_serve(&ctx, &[spec], &ServeConfig::default()).unwrap();
        assert_eq!(report.streams.len(), 1);
        assert_eq!(report.streams[0].exec.instances, 0);
        assert_eq!(report.stats.ticks, 0);
    }

    #[test]
    fn wrong_arity_trace_rejected_up_front() {
        let (ctx, probs) = setup();
        let spec = StreamSpec {
            trace: vec![DecisionVector::new(vec![0])],
            initial_probs: probs,
            window: 4,
            threshold: 0.3,
            fault_plan: None,
            criticality: 0,
        };
        assert!(matches!(
            run_serve(&ctx, &[spec], &ServeConfig::default()),
            Err(SchedError::VectorArity {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn coalescing_groups_identical_tables() {
        let (ctx, probs) = setup();
        // Four streams on the *same* trace: their windowed estimates move in
        // lockstep, so every drift tick produces identical exact tables and
        // the engine should solve each table once.
        let specs: Vec<StreamSpec> = (0..4)
            .map(|_| StreamSpec {
                trace: drifty_trace(48, 0),
                initial_probs: probs.clone(),
                window: 4,
                threshold: 0.3,
                fault_plan: None,
                criticality: 0,
            })
            .collect();
        let cfg = ServeConfig {
            workers: 2,
            shards: 4,
            cache: CacheMode::Off,
            coalesce: true,
            quantum: 0.1,
            // Same-tick coalescing is a lockstep concept: the event engine
            // has no tick barrier to group across.
            engine: EngineKind::Lockstep,
            ..ServeConfig::default()
        };
        let report = run_serve(&ctx, &specs, &cfg).unwrap();
        assert!(report.stats.drift_events > 0, "{:?}", report.stats);
        assert_eq!(report.stats.requests, report.stats.drift_events);
        assert_eq!(
            report.stats.coalesced_requests,
            report.stats.requests - report.stats.groups
        );
        assert!(
            (report.stats.coalescing_factor() - 4.0).abs() < 1e-9,
            "identical streams must coalesce 4:1, got {}",
            report.stats.coalescing_factor()
        );
        assert_eq!(report.stats.solver_calls, report.stats.groups);
        for s in &report.streams[1..] {
            assert_eq!(*s, report.streams[0], "lockstep streams match");
        }

        // Coalescing off: one solve per request, same summaries.
        let uncoalesced = run_serve(
            &ctx,
            &specs,
            &ServeConfig {
                coalesce: false,
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(uncoalesced.stats.groups, uncoalesced.stats.requests);
        assert_eq!(uncoalesced.stats.coalesced_requests, 0);
        assert_eq!(uncoalesced.streams, report.streams);
    }

    #[test]
    fn shared_cache_and_modes_do_not_change_summaries() {
        let (ctx, probs) = setup();
        let specs: Vec<StreamSpec> = (0..6)
            .map(|i| StreamSpec {
                trace: drifty_trace(64, 3 * i),
                initial_probs: probs.clone(),
                window: 4,
                threshold: 0.3,
                fault_plan: (i % 2 == 1).then(|| FaultPlan::uniform(0xBEEF + i as u64, 0.05)),
                criticality: 0,
            })
            .collect();
        let base = ServeConfig {
            workers: 1,
            shards: 1,
            cache: CacheMode::Off,
            coalesce: true,
            quantum: 0.1,
            ..ServeConfig::default()
        };
        let reference = run_serve(&ctx, &specs, &base).unwrap();
        for cache in [
            CacheMode::Off,
            CacheMode::PerStream { capacity: 16 },
            CacheMode::Shared {
                capacity: 64,
                stripes: 4,
            },
        ] {
            for workers in [1, 3] {
                let cfg = ServeConfig {
                    workers,
                    shards: 5,
                    cache,
                    coalesce: true,
                    quantum: 0.1,
                    ..ServeConfig::default()
                };
                let report = run_serve(&ctx, &specs, &cfg).unwrap();
                assert_eq!(
                    report.streams, reference.streams,
                    "summaries diverged at {cache:?}/{workers}w"
                );
                assert_eq!(report.stats.drift_events, reference.stats.drift_events);
            }
        }
        // The shared run on recurring regimes must actually hit.
        let shared = run_serve(
            &ctx,
            &specs,
            &ServeConfig {
                workers: 2,
                shards: 6,
                cache: CacheMode::Shared {
                    capacity: 64,
                    stripes: 4,
                },
                coalesce: true,
                quantum: 0.1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert!(
            shared.stats.shared_hits > 0,
            "recurring regimes must hit the shared cache: {:?}",
            shared.stats
        );
    }

    #[test]
    fn invalid_overload_configs_rejected() {
        let (ctx, probs) = setup();
        let spec = StreamSpec::new(drifty_trace(8, 0), probs);
        let bad_admission = ServeConfig {
            admission: Some(AdmissionConfig { high_water: 0 }),
            ..ServeConfig::default()
        };
        assert!(run_serve(&ctx, std::slice::from_ref(&spec), &bad_admission).is_err());
        for q in [
            QuarantineConfig {
                strikes: 0,
                ..QuarantineConfig::default()
            },
            QuarantineConfig {
                strikes: 5,
                window: 4,
                ..QuarantineConfig::default()
            },
            QuarantineConfig {
                backoff: 0,
                ..QuarantineConfig::default()
            },
            QuarantineConfig {
                backoff: 8,
                backoff_max: 4,
                ..QuarantineConfig::default()
            },
        ] {
            let cfg = ServeConfig {
                quarantine: Some(q),
                ..ServeConfig::default()
            };
            assert!(
                run_serve(&ctx, std::slice::from_ref(&spec), &cfg).is_err(),
                "{q:?} must be rejected"
            );
        }
    }

    #[test]
    fn breaker_trips_backs_off_and_readmits() {
        let cfg = QuarantineConfig {
            strikes: 2,
            window: 4,
            backoff: 2,
            backoff_max: 5,
        };
        let mut b = Breaker::new(cfg);
        assert!(!b.is_quarantined(0));
        assert!(!b.note_strike(0), "one strike of two must not trip");
        assert!(b.note_strike(1), "second strike trips the breaker");
        // Open for `backoff` ticks after the strike tick, then half-open.
        assert!(b.is_quarantined(2));
        assert!(b.is_quarantined(3));
        assert!(!b.is_quarantined(4), "backoff expired: probe allowed");
        assert_eq!(b.state, BreakerState::HalfOpen);
        // Failed probe: backoff doubles (2 → 4) and the breaker re-opens.
        assert!(b.note_strike(4));
        assert!((5..=8).all(|t| {
            let mut c = Breaker {
                state: b.state,
                window: b.window.clone(),
                strikes: b.strikes,
                backoff: b.backoff,
                cfg: b.cfg,
            };
            c.is_quarantined(t)
        }));
        assert!(!b.is_quarantined(9));
        // Another failed probe: 4 → 8 capped at 5.
        assert!(b.note_strike(9));
        assert_eq!(b.backoff, 5);
        assert!(!b.is_quarantined(15));
        // Successful probe: closed, fresh window, backoff reset.
        b.note_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.backoff, cfg.backoff);
        assert!(!b.note_strike(16), "strike window restarted from empty");
    }

    #[test]
    fn breaker_strikes_age_out_of_the_window() {
        let mut b = Breaker::new(QuarantineConfig {
            strikes: 2,
            window: 3,
            backoff: 2,
            backoff_max: 8,
        });
        assert!(!b.note_strike(0));
        b.note_success();
        b.note_success();
        // The old strike fell out of the 3-outcome window: one more alone
        // must not trip.
        assert!(!b.note_strike(3));
        assert_eq!(b.state, BreakerState::Closed);
    }

    #[test]
    fn zero_budget_aborts_every_reschedule_and_quarantines() {
        let (ctx, probs) = setup();
        let specs: Vec<StreamSpec> = (0..4)
            .map(|_| StreamSpec {
                trace: drifty_trace(48, 0),
                initial_probs: probs.clone(),
                window: 4,
                threshold: 0.3,
                fault_plan: None,
                criticality: 0,
            })
            .collect();
        let cfg = ServeConfig {
            workers: 2,
            shards: 4,
            cache: CacheMode::Off,
            coalesce: true,
            quantum: 0.1,
            solve_budget: Some(0),
            arrival: ArrivalConfig::default(),
            engine: EngineKind::Auto,
            admission: None,
            quarantine: Some(QuarantineConfig {
                strikes: 2,
                window: 8,
                backoff: 4,
                backoff_max: 16,
            }),
            portfolio: None,
        };
        let report = run_serve(&ctx, &specs, &cfg).unwrap();
        // Setup solves are budget-exempt, so the run completes; every
        // drift-triggered solve aborts and no plan is ever re-adopted.
        assert!(report.stats.budget_exceeded > 0, "{:?}", report.stats);
        assert!(report.stats.quarantines > 0, "{:?}", report.stats);
        assert!(report.stats.quarantined_ticks > 0, "{:?}", report.stats);
        for s in &report.streams {
            assert_eq!(s.reschedules, 0, "budget 0 must block every adoption");
        }
        // Budget verdicts are per-stream deterministic: a 1-worker run
        // reaches the identical summaries (quarantine decisions included).
        let seq = run_serve(
            &ctx,
            &specs,
            &ServeConfig {
                workers: 1,
                shards: 1,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(seq.streams, report.streams);
    }

    #[test]
    fn admission_sheds_lowest_criticality_first() {
        let (ctx, probs) = setup();
        // Four lockstep streams, distinct criticalities: every drift tick
        // produces four identical requests and high_water 1 admits only
        // the most critical (id 3).
        let specs: Vec<StreamSpec> = (0..4)
            .map(|i| StreamSpec {
                trace: drifty_trace(48, 0),
                initial_probs: probs.clone(),
                window: 4,
                threshold: 0.3,
                fault_plan: None,
                criticality: i as u8,
            })
            .collect();
        let cfg = ServeConfig {
            workers: 2,
            shards: 4,
            cache: CacheMode::Off,
            coalesce: true,
            quantum: 0.1,
            solve_budget: None,
            arrival: ArrivalConfig::default(),
            engine: EngineKind::Auto,
            admission: Some(AdmissionConfig { high_water: 1 }),
            quarantine: None,
            portfolio: None,
        };
        let report = run_serve(&ctx, &specs, &cfg).unwrap();
        assert!(report.stats.shed_requests > 0, "{:?}", report.stats);
        assert_eq!(
            report.streams[3].shed, 0,
            "the most critical stream is never shed"
        );
        assert!(report.streams[3].reschedules > 0);
        for s in &report.streams[..3] {
            assert!(s.shed > 0, "low-criticality lockstep streams are shed");
        }
        assert_eq!(
            report.stats.shed_requests,
            report.streams.iter().map(|s| s.shed).sum::<usize>()
        );
        assert!(report.stats.shed_rate() > 0.0);
        // Shedding is a pure function of the drift set: worker/shard/cache
        // choices cannot move a single shed event.
        for (workers, shards, cache) in [
            (1, 1, CacheMode::Off),
            (4, 5, CacheMode::PerStream { capacity: 16 }),
            (
                3,
                4,
                CacheMode::Shared {
                    capacity: 64,
                    stripes: 4,
                },
            ),
        ] {
            let alt = run_serve(
                &ctx,
                &specs,
                &ServeConfig {
                    workers,
                    shards,
                    cache,
                    ..cfg.clone()
                },
            )
            .unwrap();
            assert_eq!(
                alt.streams, report.streams,
                "shed decisions diverged at {cache:?}/{workers}w/{shards}s"
            );
        }
    }
}
