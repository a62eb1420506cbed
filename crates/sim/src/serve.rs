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
//!   ([`ServeConfig::shards`]) and shards are distributed over persistent
//!   worker threads that never synchronise after spawn.
//! * **Discrete-event core.** Each worker runs a virtual-time event queue
//!   over its streams; each stream is an independent arrival process
//!   ([`ArrivalKind::ClosedLoop`] back-to-back, [`ArrivalKind::Poisson`],
//!   Gilbert–Elliott-modulated [`ArrivalKind::Bursty`], or
//!   [`ArrivalKind::Trace`]-replayed gaps), workers pop `(time, stream,
//!   seq)`-ordered events, and per-stream deadlines become latency SLOs
//!   ([`ArrivalConfig::slo`], reported per stream as [`StreamLatency`]).
//!   DESIGN.md §16 documents the event queue, tie-breaking and SLO
//!   semantics.
//! * **Cross-stream schedule cache.** A lock-striped
//!   [`SharedScheduleCache`] keyed on the exact [`ScheduleKey`] (the bits
//!   of every branch probability, plus the guard and deadline bits) lets
//!   a plan solved for one stream be adopted by any stream whose windowed
//!   estimate lands on the *same exact* probability table. Windowed
//!   estimates are ratios of small integer counts, so distinct streams
//!   genuinely collide on exact tables all the time.
//!
//! # Determinism
//!
//! Per-stream results depend only on `(stream spec, arrival process,
//! context)` — never on shard count, worker count, cache mode or hit/miss
//! order. The argument reduces to two facts: (1) the solver is a pure
//! function of `(context, probs, config)` and the shared cache keys plans
//! on the *exact* probability bits, so a served plan is always
//! bit-identical to the plan the stream's own solver would have produced;
//! (2) each stream is a self-contained state machine advanced in instance
//! order by exactly one owner (the per-worker heap pops a stream's events
//! in `(time, stream, seq)` order and streams never interact through the
//! heap), and results are merged by stream id. [`StreamSummary`] therefore
//! compares bit-for-bit across every configuration, and equals a plain
//! per-stream [`AdaptiveScheduler::observe`] loop
//! (`tests/serve_determinism.rs` pins both). Aggregate *cache counters*
//! are the one exception: under eviction pressure, or with several workers
//! missing on one table at once, the shared LRU's contents depend on
//! stripe-lock interleaving, so hit/miss tallies may wobble with the
//! worker count — adopted plans never do.
//!
//! # Overload resilience
//!
//! Three optional mechanisms bound scheduling work under saturation while
//! preserving the determinism contract (DESIGN.md §14):
//!
//! * **Solve budgets** ([`ServeConfig::solve_budget`]) — every worker
//!   solve runs under a [`ctg_sched::WorkMeter`]; a solve whose
//!   deterministic work-unit cost exceeds the budget aborts with
//!   [`SchedError::SolveBudgetExceeded`] and the requesting stream keeps
//!   its last adopted plan. The abort verdict is a pure function of the
//!   requested table (warm paths re-charge stored costs), so it is
//!   identical across warm/cold workspaces and cache modes.
//! * **Admission control** ([`ServeConfig::admission`]) — a stream's drift
//!   re-solve is shed while more than [`AdmissionConfig::high_water`]
//!   arrivals wait queued behind its in-service instance. The stream keeps
//!   its plan and records the event in [`StreamSummary::shed`]. Admission
//!   needs an open-loop arrival process: a closed-loop stream never
//!   queues, so the combination is rejected.
//! * **Quarantine** ([`ServeConfig::quarantine`]) — a per-stream circuit
//!   breaker counts budget strikes in a sliding window; too many strikes
//!   freeze the stream's plan for an exponentially backed-off number of
//!   instances, after which one half-open probe solve decides between
//!   re-admission and a doubled backoff.

use crate::fault::{FaultInjector, FaultLog, FaultPlan, FaultStats};
use crate::instance::SimWorkspace;
use crate::runner::{note_faults, note_instance, note_slo_miss};
use crate::summary::{percentile_sorted, ExecStats, StreamLatency};
use ctg_model::{BranchProbs, DecisionVector};
use ctg_obs::{Counter, Obs, Stage};
use ctg_rng::{BurstyGaps, PoissonGaps};
use ctg_sched::{
    race_portfolio, AdaptiveScheduler, EstimatorKind, LruCache, OnlineScheduler, PortfolioStats,
    SchedContext, SchedError, ScheduleKey, SchedulerKind, Solution, SolverWorkspace,
};
use std::cmp::Reverse;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which schedule cache the engine consults before solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No cache: every drift event that passes admission is solved.
    Off,
    /// One lock-striped cache shared by all streams: a plan solved for one
    /// stream is adopted by any stream landing on the same exact table.
    Shared {
        /// Total entry capacity, split evenly over the stripes.
        capacity: usize,
        /// Number of independently locked stripes.
        stripes: usize,
    },
}

/// Admission-control configuration: a stream's drift re-solve is shed
/// while its queue is deeper than a high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Deepest queue at which a drift re-solve is still admitted: when an
    /// instance completes with more than `high_water` arrivals waiting
    /// behind it, the stream keeps its plan instead of re-solving. The
    /// decision reads only the stream's own queue, so it never depends on
    /// other streams, workers or shards.
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
    /// Initial quarantine length in instances; after it expires one
    /// half-open probe solve is allowed.
    pub backoff: usize,
    /// Backoff cap: a failed probe doubles the backoff up to this many
    /// instances.
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

/// Arrival-process family driving each stream.
///
/// Every open-loop process is a pure function of
/// `(ArrivalConfig::seed, stream id)` via the [`ctg_rng::arrival`]
/// samplers, so arrival times can never depend on worker counts or event
/// interleaving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Back-to-back: instance `k + 1` arrives exactly when instance `k`
    /// completes (queue depth is always 0, latency equals makespan).
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

/// Arrival-process and SLO configuration.
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

/// The serving engine. There is one, so this names it only for callers
/// that pin it through [`RunConfig::engine`](crate::RunConfig::engine),
/// which accepts it and changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
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
    /// Per-solve work budget in solver work units (DLS candidate
    /// evaluations + path-enumeration steps), applied to every worker
    /// solve. `None` disables budgeting; the setup solves that seed each
    /// stream's first plan are always exempt (there is no plan to fall
    /// back on yet).
    pub solve_budget: Option<u64>,
    /// Admission control; `None` admits every drift re-solve (baseline
    /// behaviour). When set, a stream's drift re-solve is shed while more
    /// than [`AdmissionConfig::high_water`] arrivals sit queued behind its
    /// in-service instance. Requires an open-loop arrival process.
    pub admission: Option<AdmissionConfig>,
    /// Per-stream quarantine circuit breaker; `None` never freezes a
    /// stream.
    pub quarantine: Option<QuarantineConfig>,
    /// Arrival process and latency SLO.
    pub arrival: ArrivalConfig,
    /// Scheduler-portfolio selection: race these entries on every
    /// solver-bound drift solve (list [`SchedulerKind::Dls`] first so ties
    /// keep the paper's plan) and adopt the lowest expected-energy
    /// schedulable plan. `None` (the default) solves through the DLS
    /// pipeline alone — bit-for-bit the pre-portfolio engine; an empty
    /// list is rejected. Setup solves always stay DLS: they seed the
    /// incumbent plan the same way construction does in
    /// [`AdaptiveScheduler`].
    pub portfolio: Option<Vec<SchedulerKind>>,
}

impl Default for ServeConfig {
    /// The serve slice of [`RunConfig::new`](crate::RunConfig::new): one
    /// worker, one shard, the default shared cache, closed-loop arrivals.
    fn default() -> Self {
        crate::RunConfig::new().serve_config()
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
    /// Inert: admission sheds by the stream's own queue depth, so no
    /// stream is ranked against another. Kept so existing callers compile.
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
    /// Solves for this stream aborted by the work budget.
    pub budget_exceeded: usize,
    /// Times the stream's circuit breaker tripped into quarantine.
    pub quarantines: usize,
    /// Instances completed while frozen in quarantine (drift checks
    /// suppressed).
    pub quarantined_ticks: usize,
}

impl std::fmt::Display for StreamSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}; {} reschedules", self.exec, self.reschedules)
    }
}

/// Engine-level accounting of one serve run.
///
/// The drift, request and shed counters are deterministic (each is a
/// per-stream decision); the shared-cache hit and solver-call counters can
/// wobble with the worker count (see the module docs) and are reported
/// for observability, not asserted for equality.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Streams served.
    pub streams: usize,
    /// Total instances executed across streams.
    pub instances: usize,
    /// The longest trace's length: the per-stream instance ceiling.
    pub ticks: usize,
    /// Events dequeued from the virtual-time heaps.
    pub events: usize,
    /// Largest per-stream queue depth observed (arrivals waiting behind an
    /// in-service instance).
    pub max_queue_depth: usize,
    /// Drift events: a stream's windowed estimate crossed its threshold.
    /// Each one is shed, aborted by the budget, or adopted.
    pub drift_events: usize,
    /// Drift events admitted to the cache and solver
    /// (`drift_events − shed_requests`).
    pub requests: usize,
    /// Equals [`requests`](Self::requests): every request is its own solve
    /// job. Kept so existing callers compile.
    pub groups: usize,
    /// Requests answered by the shared cache ([`CacheMode::Shared`] only).
    pub shared_hit_requests: usize,
    /// Requests that ran the warm solver.
    pub solver_calls: usize,
    /// Requests shed by admission control (sum of [`StreamSummary::shed`]).
    pub shed_requests: usize,
    /// Budget-aborted solves (sum of [`StreamSummary::budget_exceeded`]).
    pub budget_exceeded: usize,
    /// Circuit-breaker trips (sum of [`StreamSummary::quarantines`]).
    pub quarantines: usize,
    /// Instances completed frozen (sum of
    /// [`StreamSummary::quarantined_ticks`]).
    pub quarantined_ticks: usize,
    /// Pooled median arrival-to-completion latency across every instance
    /// of every stream (virtual time).
    pub latency_p50: f64,
    /// Pooled 99th-percentile latency.
    pub latency_p99: f64,
    /// Largest observed latency.
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

    /// Fraction of drift events answered from the shared cache.
    pub fn shared_hit_rate(&self) -> f64 {
        ratio(self.shared_hit_requests, self.drift_events)
    }

    /// Requests per solve job: 1.0 whenever a request was made (every
    /// request is its own job), 0 for a drift-free run. Kept so existing
    /// callers compile.
    pub fn coalescing_factor(&self) -> f64 {
        ratio(self.requests, self.groups)
    }

    /// Fraction of drift events shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed_requests, self.drift_events)
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
    /// out of [`StreamSummary`] so summary equality across arrival
    /// processes stays a plain `==`.
    pub latencies: Vec<StreamLatency>,
    /// Engine-level counters.
    pub stats: ServeStats,
}

/// The lock-striped cross-stream schedule cache.
///
/// Plans are keyed on the exact [`ScheduleKey`] (probability, guard and
/// deadline bits) — the same key the per-manager cache uses — and striped
/// by the key's hash, so concurrent lookups of different tables rarely
/// contend. A hit is a plan solved for a bit-equal table, so sharing
/// plans across streams can never change an adopted bit.
#[derive(Debug)]
pub struct SharedScheduleCache {
    stripes: Vec<Mutex<LruCache<ScheduleKey, Solution>>>,
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

    /// Returns the cached plan for `key`, marking it most-recently-used.
    pub fn lookup(&self, key: &ScheduleKey) -> Option<Solution> {
        let mut stripe = self.stripes[self.stripe_of(key)]
            .lock()
            .expect("stripe lock");
        stripe.get(key).cloned()
    }

    /// Stores `solution` as the plan for `key`.
    pub fn insert(&self, key: ScheduleKey, solution: Solution) {
        let mut stripe = self.stripes[self.stripe_of(&key)]
            .lock()
            .expect("stripe lock");
        stripe.insert(key, solution);
    }
}

/// Circuit-breaker phase (the quarantine state machine's node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation; strikes are counted in a sliding window.
    Closed,
    /// Quarantined: the plan is frozen for every instance index
    /// `< until`.
    Open { until: usize },
    /// Quarantine expired: the next solve is a probe deciding between
    /// re-admission (success) and a doubled backoff (strike).
    HalfOpen,
}

/// Per-stream circuit breaker: repeated budget-exceeded solves quarantine
/// the stream into frozen-plan mode with deterministic exponential
/// backoff. Driven only by solve verdicts — which are pure functions of
/// the requested table — and the stream's instance index, so its evolution
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

    /// Whether the stream is frozen after instance `k`. Flips an expired
    /// quarantine to the half-open probe state as a side effect.
    fn is_quarantined(&mut self, k: usize) -> bool {
        if let BreakerState::Open { until } = self.state {
            if k < until {
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
    /// table affordable (the cache only ever stores solutions that solved
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

    /// A solve for this stream blew its budget after instance `k`; returns
    /// `true` when this trips the breaker into quarantine.
    fn note_strike(&mut self, k: usize) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.push(true);
                if self.strikes >= self.cfg.strikes {
                    self.window.clear();
                    self.strikes = 0;
                    self.state = BreakerState::Open {
                        until: k + self.backoff + 1,
                    };
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                self.backoff = self.backoff.saturating_mul(2).min(self.cfg.backoff_max);
                self.state = BreakerState::Open {
                    until: k + self.backoff + 1,
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
    /// Quarantine circuit breaker ([`ServeConfig::quarantine`] only).
    breaker: Option<Breaker>,
    summary: StreamSummary,
}

impl StreamState<'_> {
    /// Adopts `solution` as the plan for `probs`, whether the shared cache
    /// served it or the solver produced it, and refreshes the simulation
    /// workspace.
    fn adopt(
        &mut self,
        ctx: &SchedContext,
        probs: BranchProbs,
        solution: Solution,
        solver_call: bool,
    ) {
        self.mgr.adopt_candidate(probs, solution, solver_call);
        self.sim.rebuild(ctx, self.mgr.solution());
        if let Some(b) = self.breaker.as_mut() {
            b.note_success();
        }
    }
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
    requests: usize,
    shared_hit_requests: usize,
    solver_calls: usize,
    /// Scheduler-portfolio races and per-kind wins (portfolio mode only).
    portfolio: PortfolioStats,
    events: usize,
    /// Largest per-stream queue depth seen (merged by max, not sum).
    max_queue_depth: usize,
}

impl LocalCounters {
    fn absorb(&mut self, o: &LocalCounters) {
        self.drift_events += o.drift_events;
        self.requests += o.requests;
        self.shared_hit_requests += o.shared_hit_requests;
        self.solver_calls += o.solver_calls;
        self.portfolio.races += o.portfolio.races;
        for (w, ow) in self.portfolio.wins.iter_mut().zip(o.portfolio.wins) {
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
/// are **bit-for-bit identical** for every `(workers, shards, cache)`
/// choice; see the [module docs](self) for the argument.
///
/// # Errors
///
/// Returns [`SchedError::VectorArity`] for traces not matching the graph,
/// [`SchedError::InvalidParameter`] for invalid windows, thresholds, fault
/// plans, arrival processes, overload knobs — admission control with
/// closed-loop arrivals included — and an empty portfolio, and propagates
/// the first solver failure (streams are driven with
/// [`AdaptiveScheduler::observe`]-style unconditional adoption, which
/// propagates solve errors rather than degrading).
pub fn run_serve(
    ctx: &SchedContext,
    specs: &[StreamSpec],
    cfg: &ServeConfig,
) -> Result<ServeReport, SchedError> {
    serve_engine(ctx, specs, cfg, &Obs::disabled(), None)
}

/// [`run_serve`] with a caller-owned setup workspace: the initial solves
/// run through `setup_ws` instead of a fresh workspace, so a driver
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

/// Rejects inputs the engine cannot serve before any stream starts, so
/// workers never fail on them.
fn validate(ctx: &SchedContext, specs: &[StreamSpec], cfg: &ServeConfig) -> Result<(), SchedError> {
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
            FaultInjector::empty(ctx).resample(plan, ctx, 0)?;
        }
    }
    if let Some(adm) = &cfg.admission {
        adm.validate()?;
        if matches!(cfg.arrival.kind, ArrivalKind::ClosedLoop) {
            return Err(SchedError::InvalidParameter(
                "admission control needs open-loop arrivals: a closed-loop stream never queues",
            ));
        }
    }
    if let Some(q) = &cfg.quarantine {
        q.validate()?;
    }
    if cfg.portfolio.as_ref().is_some_and(Vec::is_empty) {
        return Err(SchedError::InvalidParameter(
            "portfolio needs at least one scheduler",
        ));
    }
    cfg.arrival.validate(specs)
}

/// Deduplicated initial solves (telemetry on track 0 — the workers have
/// not spawned yet) and the per-stream live states, with each stream's
/// manager wired to its owner worker's telemetry track. Without a seed
/// workspace the solves run through a run-local one, which is returned
/// for the first worker to continue on.
fn setup_streams<'a>(
    ctx: &SchedContext,
    specs: &'a [StreamSpec],
    cfg: &ServeConfig,
    obs: &Obs,
    owner: impl Fn(usize) -> usize,
    seed_ws: Option<&mut SolverWorkspace>,
) -> Result<(Vec<StreamState<'a>>, Option<SolverWorkspace>), SchedError> {
    let online = OnlineScheduler::new();
    // A caller-owned seed workspace (warm across runs over the same
    // context) or a run-local fresh one — bit-identical either way by the
    // workspace's warm==cold contract.
    let mut local_ws = None;
    let setup_ws = match seed_ws {
        Some(ws) => ws,
        None => local_ws.insert(SolverWorkspace::new()),
    };
    setup_ws.set_obs(obs.clone(), 0);
    let key = |spec: &StreamSpec| ScheduleKey::new(ctx, &spec.initial_probs, 1.0);
    let mut initial: HashMap<ScheduleKey, Solution> = HashMap::new();
    for spec in specs {
        if let Entry::Vacant(e) = initial.entry(key(spec)) {
            e.insert(online.solve_with_workspace(ctx, &spec.initial_probs, setup_ws)?);
        }
    }

    let mut states: Vec<StreamState> = Vec::with_capacity(specs.len());
    for (id, spec) in specs.iter().enumerate() {
        let solution = initial[&key(spec)].clone();
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
            breaker: cfg.quarantine.map(Breaker::new),
            summary: StreamSummary::default(),
        });
    }
    Ok((states, local_ws))
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

/// Per-stream arrival generator.
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

/// Arrival and queueing bookkeeping for one stream, parallel to its
/// [`StreamState`]. No scheduling decision reads it except admission,
/// which reads the queue depth.
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

/// One worker's yield: each of its streams with that stream's latency
/// samples, and the worker-local counters.
type WorkerYield<'a> = (Vec<(StreamState<'a>, Vec<f64>)>, LocalCounters);

/// A worker's solver workspace — `warm` (the setup solves' workspace, for
/// the first worker) or a fresh one — with this run's telemetry track and
/// budget. Warm solves stay bit-identical to a cold solve, budget verdicts
/// included, at any worker count.
fn worker_workspace(
    cfg: &ServeConfig,
    obs: &Obs,
    track: u32,
    warm: Option<SolverWorkspace>,
) -> SolverWorkspace {
    let mut ws = warm.unwrap_or_default();
    ws.set_obs(obs.clone(), track);
    ws.set_budget(cfg.solve_budget);
    ws
}

/// The serving engine proper: [`run_serve`] with a telemetry handle.
///
/// Per-worker virtual-time event queues, per-stream arrival processes, no
/// barriers. Workers never synchronise after spawn (streams are
/// partitioned, the cache is exact), so virtual time advances
/// independently per worker and every per-stream result is bit-identical
/// across worker and shard counts.
///
/// Telemetry track assignment is *track = worker index*: worker `w` records
/// its dequeue spans, cache verdicts and sheds on track `w`, and every
/// stream's manager records drift/adoption instants on its owner worker's
/// track — so each track is written by exactly one thread at a time and a
/// [`BufferedSink`](ctg_obs::BufferedSink) drains per-track-monotone
/// events. Setup-phase solves (each stream's initial plan) land on track 0
/// before the workers spawn. None of it feeds back into scheduling:
/// summaries are bit-identical with telemetry on or off
/// (`tests/obs_equivalence.rs` pins this).
pub(crate) fn serve_engine<'a>(
    ctx: &SchedContext,
    specs: &'a [StreamSpec],
    cfg: &ServeConfig,
    obs: &Obs,
    seed_ws: Option<&mut SolverWorkspace>,
) -> Result<ServeReport, SchedError> {
    let start = Instant::now();
    validate(ctx, specs, cfg)?;
    let shards = cfg.shards.max(1);
    let workers = cfg.workers.max(1).min(shards).min(specs.len().max(1));
    let owner = |stream_id: usize| (stream_id % shards) % workers;
    let (states, setup_ws) = setup_streams(ctx, specs, cfg, obs, owner, seed_ws)?;
    let ticks = specs.iter().map(|s| s.trace.len()).max().unwrap_or(0);

    let shared_cache = match cfg.cache {
        CacheMode::Shared { capacity, stripes } => {
            Some(SharedScheduleCache::new(capacity, stripes))
        }
        CacheMode::Off => None,
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

    let run_worker = |w: usize,
                      mut my_streams: Vec<StreamState<'a>>,
                      warm: Option<SolverWorkspace>|
     -> WorkerYield<'a> {
        let track = w as u32;
        // Drift solves run on one worker-shared warm-start workspace: its
        // levels and graph pool amortize across every stream the worker
        // owns (and, when racing, across every portfolio entry), and the
        // warm == cold bit-identity contract (§11) keeps summaries
        // invariant across worker counts regardless of which streams
        // share a workspace.
        let online = OnlineScheduler::new();
        let mut ws = worker_workspace(cfg, obs, track, warm);
        let mut counters = LocalCounters::default();
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut seq = 0u64;
        // Index into `my_streams`/`evs` by local position; events carry
        // the global stream id for deterministic ordering.
        let id_to_idx: HashMap<usize, usize> = my_streams
            .iter()
            .enumerate()
            .map(|(i, st)| (st.id, i))
            .collect();
        let mut evs: Vec<EvStream> = my_streams
            .iter()
            .map(|st| EvStream {
                next_arrival: 0,
                last_arrival: 0.0,
                queue: VecDeque::new(),
                in_service: None,
                latencies: Vec::with_capacity(st.trace.len()),
                max_depth: 0,
                gen: ArrivalGen::new(&cfg.arrival, st.id),
            })
            .collect();
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
                            shared_cache.as_ref(),
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
            // Closed loop has no cross-stream timing coupling: a stream's
            // next event is always its own, so the heap would round-robin
            // the worker's streams instance by instance, evicting each
            // stream's warm solver and simulation state between turns.
            // Running streams to completion one at a time keeps that state
            // hot and changes nothing a summary can observe (per-stream
            // decisions are stream-local; shared-cache hit counters are
            // documented as order-wobbly).
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
        let finished = my_streams
            .into_iter()
            .zip(evs)
            .map(|(mut st, es)| {
                st.summary.reschedules = st.mgr.stats().reschedules;
                (st, es.latencies)
            })
            .collect();
        (finished, counters)
    };
    // The first worker continues on the setup workspace, if the run made
    // one.
    let mut warm = setup_ws;
    // A single worker runs inline on the calling thread: there is nothing
    // to overlap, and a spawned thread can be scheduled measurably worse
    // than the caller on constrained hosts. Results are bit-identical
    // either way (the worker closure is the same).
    let results: Vec<WorkerYield> = if workers == 1 {
        per_worker
            .into_iter()
            .enumerate()
            .map(|(w, s)| run_worker(w, s, warm.take()))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let handles: Vec<_> = per_worker
                .into_iter()
                .enumerate()
                .map(|(w, s)| {
                    let warm = warm.take();
                    scope.spawn(move || run_worker(w, s, warm))
                })
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

    let mut finished: Vec<(StreamState, Vec<f64>)> = Vec::with_capacity(specs.len());
    let mut counters = LocalCounters::default();
    for (streams, c) in results {
        finished.extend(streams);
        counters.absorb(&c);
    }
    finished.sort_by_key(|(st, _)| st.id);
    // Release-mode invariant: every spec'd stream must come back from the
    // workers exactly once — a mismatch means the shard→worker partition
    // dropped or duplicated a stream, and silently returning a truncated
    // report would corrupt every downstream determinism check.
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
        requests: counters.requests,
        groups: counters.requests,
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
        portfolio_races: counters.portfolio.races,
        portfolio_wins: counters.portfolio.wins,
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
/// plan in force, record the observation, and schedule the completion
/// event one simulated makespan later.
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
            let r = st
                .sim
                .simulate_faulty(ctx, st.mgr.solution(), v, &st.injector, &mut st.log)?;
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
/// pipeline (drift check, admission, cache, solve), feed the closed loop,
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
/// gate, drift check, queue-depth admission, shared cache, and finally a
/// solve on the worker-shared warm workspace.
#[allow(clippy::too_many_arguments)]
fn post_instance(
    ctx: &SchedContext,
    cfg: &ServeConfig,
    st: &mut StreamState,
    queue_depth: usize,
    online: &OnlineScheduler,
    ws: &mut SolverWorkspace,
    shared: Option<&SharedScheduleCache>,
    counters: &mut LocalCounters,
    obs: &Obs,
    track: u32,
) -> Result<(), SchedError> {
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
    // keeps serving under the last adopted plan.
    if let Some(adm) = &cfg.admission {
        if queue_depth > adm.high_water {
            st.summary.shed += 1;
            obs.instant(track, Stage::Shed, 1);
            obs.count(Counter::ShedRequests, 1);
            return Ok(());
        }
    }
    counters.requests += 1;
    let key = shared.map(|_| ScheduleKey::new(ctx, &estimated, 1.0));
    if let (Some(cache), Some(key)) = (shared, key.as_ref()) {
        if let Some(solution) = cache.lookup(key) {
            counters.shared_hit_requests += 1;
            obs.instant(track, Stage::CacheHit, 1);
            obs.count(Counter::CacheHits, 1);
            st.adopt(ctx, estimated, solution, false);
            return Ok(());
        }
        obs.instant(track, Stage::CacheMiss, 1);
        obs.count(Counter::CacheMisses, 1);
    }
    counters.solver_calls += 1;
    // The stripe lock is not held during the solve: two workers missing on
    // the same table may both solve it and insert in either order —
    // harmless, both solves return the same plan.
    let portfolio = cfg.portfolio.as_deref();
    match serve_solve(
        ctx,
        online,
        ws,
        portfolio,
        &estimated,
        &mut counters.portfolio,
    ) {
        Ok(solution) => {
            if let (Some(cache), Some(key)) = (shared, key) {
                cache.insert(key, solution.clone());
            }
            st.adopt(ctx, estimated, solution, true);
            Ok(())
        }
        Err(SchedError::SolveBudgetExceeded { .. }) => {
            // Overload, not failure: the stream keeps its last adopted plan
            // and the breaker (if any) counts a strike.
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

/// The engine's one solver entry point: the DLS pipeline through the
/// worker's warm workspace, or — with a [`ServeConfig::portfolio`] — a
/// portfolio race through that same workspace (see [`race_portfolio`]).
/// The shared cache stores whatever comes back; the portfolio is fixed
/// for the run, so replaying a raced winner for the same exact table is
/// as sound as replaying a DLS plan.
fn serve_solve(
    ctx: &SchedContext,
    online: &OnlineScheduler,
    ws: &mut SolverWorkspace,
    portfolio: Option<&[SchedulerKind]>,
    probs: &BranchProbs,
    stats: &mut PortfolioStats,
) -> Result<Solution, SchedError> {
    match portfolio {
        None => online.solve_with_workspace(ctx, probs, ws),
        Some(kinds) => Ok(race_portfolio(kinds, ctx, probs, ws, stats)?.solution),
    }
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
        // Closed loop: latency is exactly the service time, so the latency
        // aggregate must reproduce the makespan aggregate.
        let max_makespan = closed
            .streams
            .iter()
            .map(|s| s.exec.max_makespan)
            .fold(0.0_f64, f64::max);
        assert_eq!(closed.stats.latency_max, max_makespan);
        assert_eq!(closed.stats.slo_misses, 0);
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
    fn shared_cache_misses_one_ulp_apart_and_hits_bit_equal_tables() {
        let (ctx, probs) = setup();
        let cache = SharedScheduleCache::new(8, 2);
        let fork = ctx.ctg().branch_nodes()[0];
        let mut a = probs.clone();
        a.set(fork, vec![0.6, 0.4]).unwrap();
        // `a`'s first alternative one ulp up.
        let mut b = probs.clone();
        b.set(fork, vec![f64::from_bits(0.6f64.to_bits() + 1), 0.4])
            .unwrap();
        let key_a = ScheduleKey::new(&ctx, &a, 1.0);
        let key_b = ScheduleKey::new(&ctx, &b, 1.0);
        assert_ne!(key_a, key_b);

        let sol = OnlineScheduler::new().solve(&ctx, &a).unwrap();
        cache.insert(key_a, sol.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key_b), None, "a table one ulp away must miss");
        // A bit-equal copy of `a`, built separately, hits.
        let mut a_again = probs.clone();
        a_again.set(fork, vec![0.6, 0.4]).unwrap();
        assert_eq!(
            cache.lookup(&ScheduleKey::new(&ctx, &a_again, 1.0)),
            Some(sol)
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
    fn out_of_range_decision_fails_the_run_instead_of_panicking() {
        // Alternative 2 at Example 1's first fork, which has two: the
        // simulator runs the instance (no branch of the fork is taken),
        // and the manager's observation rejects it.
        let (ctx, probs) = setup();
        let spec = StreamSpec {
            trace: vec![
                DecisionVector::new(vec![0, 0]),
                DecisionVector::new(vec![2, 0]),
            ],
            initial_probs: probs,
            window: 4,
            threshold: 0.3,
            fault_plan: None,
            criticality: 0,
        };
        assert!(matches!(
            run_serve(&ctx, &[spec], &ServeConfig::default()),
            Err(SchedError::InvalidParameter(_))
        ));
    }

    #[test]
    fn shared_cache_solves_identical_streams_once() {
        let (ctx, probs) = setup();
        // Identical streams drift onto identical exact tables, so the
        // shared cache answers every stream after the first: four streams
        // cost the solver exactly what one does. One worker only — two
        // workers can both miss on a table and solve it concurrently.
        let specs = |n: usize| -> Vec<StreamSpec> {
            (0..n)
                .map(|_| StreamSpec {
                    trace: drifty_trace(48, 0),
                    initial_probs: probs.clone(),
                    window: 4,
                    threshold: 0.3,
                    fault_plan: None,
                    criticality: 0,
                })
                .collect()
        };
        let cfg = ServeConfig {
            workers: 1,
            shards: 4,
            cache: CacheMode::Shared {
                capacity: 64,
                stripes: 4,
            },
            ..ServeConfig::default()
        };
        let one = run_serve(&ctx, &specs(1), &cfg).unwrap();
        let four = run_serve(&ctx, &specs(4), &cfg).unwrap();
        assert!(one.stats.drift_events > 0, "{:?}", one.stats);
        assert_eq!(four.stats.requests, 4 * one.stats.requests);
        assert_eq!(four.stats.requests, four.stats.drift_events);
        assert_eq!(four.stats.solver_calls, one.stats.solver_calls);
        assert_eq!(
            four.stats.shared_hit_requests,
            four.stats.requests - four.stats.solver_calls
        );
        assert_eq!(four.stats.groups, four.stats.requests);
        assert_eq!(four.stats.coalescing_factor(), 1.0);
        for s in &four.streams {
            assert_eq!(*s, one.streams[0], "identical streams match");
        }
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
            ..ServeConfig::default()
        };
        let reference = run_serve(&ctx, &specs, &base).unwrap();
        for cache in [
            CacheMode::Off,
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
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert!(
            shared.stats.shared_hit_requests > 0,
            "recurring regimes must hit the shared cache: {:?}",
            shared.stats
        );
    }

    #[test]
    fn invalid_overload_configs_rejected() {
        let (ctx, probs) = setup();
        let spec = StreamSpec::new(drifty_trace(8, 0), probs);
        let open = ArrivalConfig {
            kind: ArrivalKind::Poisson { rate: 1.0 },
            ..ArrivalConfig::default()
        };
        let bad_admission = ServeConfig {
            admission: Some(AdmissionConfig { high_water: 0 }),
            arrival: open.clone(),
            ..ServeConfig::default()
        };
        assert!(run_serve(&ctx, std::slice::from_ref(&spec), &bad_admission).is_err());
        // A closed-loop stream never queues, so queue-depth admission could
        // never fire: the combination is an error, not a silent no-op.
        let closed_admission = ServeConfig {
            admission: Some(AdmissionConfig::default()),
            ..ServeConfig::default()
        };
        assert!(matches!(
            run_serve(&ctx, std::slice::from_ref(&spec), &closed_admission),
            Err(SchedError::InvalidParameter(_))
        ));
        let open_admission = ServeConfig {
            admission: Some(AdmissionConfig::default()),
            arrival: open,
            ..ServeConfig::default()
        };
        assert!(run_serve(&ctx, std::slice::from_ref(&spec), &open_admission).is_ok());
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
        // An empty portfolio is rejected before any stream starts, even on
        // a stream that never drifts (no drift crosses a threshold of 1)
        // and so would never race.
        let steady = StreamSpec {
            threshold: 1.0,
            ..spec.clone()
        };
        let empty_portfolio = ServeConfig {
            portfolio: Some(Vec::new()),
            ..ServeConfig::default()
        };
        assert!(matches!(
            run_serve(&ctx, std::slice::from_ref(&steady), &empty_portfolio),
            Err(SchedError::InvalidParameter(_))
        ));
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
            solve_budget: Some(0),
            arrival: ArrivalConfig::default(),
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
    fn admission_sheds_by_queue_depth_on_a_zero_gap_replay() {
        let (ctx, probs) = setup();
        // Every instance arrives at t = 0, so when instance k completes
        // `len - 1 - k` arrivals wait behind it, whatever the service
        // times: drift events before instance `len - 1 - high_water` are
        // shed, later ones are admitted.
        let len = 48;
        let high_water = 16;
        let specs: Vec<StreamSpec> = (0..4)
            .map(|i| StreamSpec {
                trace: drifty_trace(len, i),
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
            solve_budget: None,
            arrival: ArrivalConfig {
                kind: ArrivalKind::Trace,
                traces: vec![vec![0.0; len]; specs.len()],
                ..ArrivalConfig::default()
            },
            admission: Some(AdmissionConfig { high_water }),
            quarantine: None,
            portfolio: None,
        };
        let report = run_serve(&ctx, &specs, &cfg).unwrap();
        assert_eq!(report.stats.max_queue_depth, len - 1);
        for s in &report.streams {
            assert!(s.shed > 0, "early drift events are shed: {s:?}");
            assert!(s.reschedules > 0, "late drift events are admitted: {s:?}");
        }
        assert_eq!(
            report.stats.shed_requests,
            report.streams.iter().map(|s| s.shed).sum::<usize>()
        );
        assert_eq!(
            report.stats.requests + report.stats.shed_requests,
            report.stats.drift_events
        );
        assert!(report.stats.shed_rate() > 0.0 && report.stats.shed_rate() < 1.0);
        // Shedding reads only the stream's own queue: worker, shard and
        // cache choices cannot move a single shed event.
        for (workers, shards, cache) in [
            (1, 1, CacheMode::Off),
            (4, 5, CacheMode::Off),
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
