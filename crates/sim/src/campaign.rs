//! Fleet-scale campaign engine: million-instance what-if sweeps.
//!
//! A [`CampaignSpec`] describes a grid of *cells* — the cartesian product
//! of workload × platform × fault rate × arrival process × adaptive knobs,
//! plus an optional explicit cell list — and [`run_campaign`] executes
//! every cell as one [`run_serve`](crate::serve::run_serve)-shaped serve
//! run. The engine is built for sweeps whose *total* instance count runs
//! into the millions:
//!
//! * **Shared artifact cache** — workload parsing, CTG construction and
//!   [`SchedContext`] compilation happen once per distinct
//!   (workload, platform) pair, not once per cell; cells borrow the
//!   compiled [`Artifact`] read-only (`SchedContext` is plain `Sync`
//!   data, asserted at compile time in `ctg_sched`).
//! * **Deterministic work stealing** — cells are claimed one at a time
//!   from a shared cursor ([`pool::map_ordered_with`]), so a long serve
//!   cell never head-of-line-blocks the short cells behind it. Each
//!   cell's result is a pure function of the spec, so claim order cannot
//!   change a single output bit.
//! * **Per-worker solver reuse** — each executor worker owns one
//!   [`SolverWorkspace`] threaded into every cell's setup solve
//!   ([`run_serve_seeded`]); consecutive same-context cells warm-start
//!   instead of re-deriving solver state.
//! * **Bounded-memory streaming** — each finished cell is appended to a
//!   JSON-lines file and *dropped*; only a fixed-size
//!   [`CampaignRollup`] (counters plus fixed-bucket histograms) stays in
//!   memory, so campaign RSS does not grow with the grid.
//! * **Checkpoint/resume** — the JSONL stream *is* the checkpoint: lines
//!   carry exact `f64` bit patterns, so a killed campaign re-run with
//!   [`CampaignConfig::resume`] skips completed cells and folds their
//!   recorded digests into a roll-up **bit-identical** to an
//!   uninterrupted run (`tests/campaign_determinism.rs` pins this).
//!
//! # Determinism
//!
//! Cell IDs are derived from the spec hash plus axis indices — stable
//! across runs, machines and worker counts. Per-cell seeds (arrivals,
//! faults) are derived from the cell ID, so a cell's digest never depends
//! on which worker ran it or when. The roll-up folds digests strictly in
//! grid order after the parallel section, which makes every `f64`
//! accumulation order-invariant by construction.

use crate::fault::FaultPlan;
use crate::pool;
use crate::serve::{
    run_serve_seeded, ArrivalConfig, ArrivalKind, CacheMode, ServeConfig, ServeReport, StreamSpec,
};
use ctg_model::{BranchProbs, DecisionVector};
use ctg_obs::json::{self, fmt_f64, quote, Value};
use ctg_obs::{Counter, Obs, Stage};
use ctg_rng::SplitMix64;
use ctg_sched::{parse_scheduler_selection, SchedContext, SchedError, SolverWorkspace};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

/// Arrival-process axis value (mirrors [`ArrivalKind`], minus trace
/// replay, which has no grid-expressible parameterisation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Back-to-back closed-loop arrivals.
    ClosedLoop,
    /// Poisson arrivals at `rate` (arrivals per virtual-time unit).
    Poisson {
        /// Mean arrival rate.
        rate: f64,
    },
    /// Gilbert–Elliott-modulated Poisson arrivals.
    Bursty {
        /// Calm-state arrival rate.
        rate: f64,
        /// Burst-state rate multiplier.
        burst_mult: f64,
        /// Per-gap probability of entering the burst state.
        p_enter: f64,
        /// Per-gap probability of leaving the burst state.
        p_exit: f64,
    },
}

impl ArrivalSpec {
    /// Stable label used in cell records and the spec hash.
    pub fn label(&self) -> String {
        match *self {
            ArrivalSpec::ClosedLoop => "closed".to_string(),
            ArrivalSpec::Poisson { rate } => format!("poisson:{rate}"),
            ArrivalSpec::Bursty {
                rate,
                burst_mult,
                p_enter,
                p_exit,
            } => format!("bursty:{rate}x{burst_mult}:{p_enter}/{p_exit}"),
        }
    }

    fn to_config(self, seed: u64) -> ArrivalConfig {
        let kind = match self {
            ArrivalSpec::ClosedLoop => ArrivalKind::ClosedLoop,
            ArrivalSpec::Poisson { rate } => ArrivalKind::Poisson { rate },
            ArrivalSpec::Bursty {
                rate,
                burst_mult,
                p_enter,
                p_exit,
            } => ArrivalKind::Bursty {
                rate,
                burst_mult,
                p_enter,
                p_exit,
            },
        };
        ArrivalConfig {
            kind,
            seed,
            slo: None,
            traces: Vec::new(),
        }
    }
}

/// Adaptive-knob axis value: the profiler window and drift threshold the
/// paper's sensitivity grids (fig. 5/6 style) sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobSpec {
    /// Sliding-window length of each stream's profiler.
    pub window: usize,
    /// Drift threshold triggering re-scheduling.
    pub threshold: f64,
}

/// Axis indices of one cell in the expanded grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellCoord {
    /// Index into [`CampaignSpec::workloads`].
    pub workload: usize,
    /// Index into [`CampaignSpec::platforms`].
    pub platform: usize,
    /// Index into [`CampaignSpec::fault_rates`].
    pub fault: usize,
    /// Index into [`CampaignSpec::arrivals`].
    pub arrival: usize,
    /// Index into [`CampaignSpec::knobs`].
    pub knob: usize,
    /// Index into [`CampaignSpec::schedulers`]. `0` on the default
    /// single-`"dls"` axis, where it folds into neither the spec hash nor
    /// the cell ID — pre-portfolio checkpoints stay valid.
    pub scheduler: usize,
}

/// One expanded cell: its position in the grid, its stable ID and its
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Position in the expanded cell list (the roll-up fold order).
    pub index: usize,
    /// Stable 64-bit ID derived from the spec hash and the coordinates.
    pub id: u64,
    /// Axis indices.
    pub coord: CellCoord,
}

/// A what-if sweep: cartesian axes plus an optional explicit cell list.
///
/// Workload and platform axis values are opaque labels resolved by the
/// caller's compile function (see [`run_campaign`]), so the engine stays
/// independent of where workloads come from (TGFF generators, the bundled
/// MPEG/cruise applications, files on disk, …).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (folded into the spec hash, so distinct campaigns
    /// over identical axes get distinct cell IDs).
    pub name: String,
    /// Workload labels (first compile-function argument).
    pub workloads: Vec<String>,
    /// Platform labels (second compile-function argument).
    pub platforms: Vec<String>,
    /// Per-category uniform fault rates; `0.0` disables fault injection
    /// for the cell.
    pub fault_rates: Vec<f64>,
    /// Arrival processes.
    pub arrivals: Vec<ArrivalSpec>,
    /// Adaptive knobs (window × threshold pairs).
    pub knobs: Vec<KnobSpec>,
    /// Scheduler-selection axis: each value is a label accepted by
    /// [`ctg_sched::parse_scheduler_selection`] — a kind name (`"dls"`,
    /// `"heft"`, …), `"portfolio"`, or a comma list (`"dls,heft"`). The
    /// default single-`"dls"` axis is hash-neutral: it changes no spec
    /// hash and no cell ID, so checkpoints written before the axis existed
    /// resume cleanly.
    pub schedulers: Vec<String>,
    /// Streams per cell; stream `s` replays the artifact trace rotated by
    /// `s·len/streams`, so streams drift through distinct phases.
    pub streams: usize,
    /// Base seed folded into the spec hash (and thus every per-cell
    /// seed).
    pub seed: u64,
    /// Extra cells appended after the cartesian grid (duplicates of grid
    /// cells are dropped). Excluded from the spec hash so appending cells
    /// to a campaign never invalidates an existing checkpoint.
    pub explicit: Vec<CellCoord>,
}

impl CampaignSpec {
    /// A single-axis-per-dimension spec with sensible defaults: no
    /// faults, closed-loop arrivals, the bench profiler knob (window 20,
    /// threshold 0.1), 4 streams per cell.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            workloads: Vec::new(),
            platforms: Vec::new(),
            fault_rates: vec![0.0],
            arrivals: vec![ArrivalSpec::ClosedLoop],
            knobs: vec![KnobSpec {
                window: 20,
                threshold: 0.1,
            }],
            schedulers: vec!["dls".to_string()],
            streams: 4,
            seed: 0x00CA_4A16,
            explicit: Vec::new(),
        }
    }

    /// Whether the scheduler axis is the hash-neutral pre-portfolio
    /// default (a single `"dls"` value).
    fn scheduler_axis_is_default(&self) -> bool {
        self.schedulers.len() == 1 && self.schedulers[0] == "dls"
    }

    /// Validates axis shapes and parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] describing the first violation.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.workloads.is_empty()
            || self.platforms.is_empty()
            || self.fault_rates.is_empty()
            || self.arrivals.is_empty()
            || self.knobs.is_empty()
            || self.schedulers.is_empty()
        {
            return Err(CampaignError::Spec("every campaign axis needs a value"));
        }
        if self
            .schedulers
            .iter()
            .any(|s| parse_scheduler_selection(s).is_none())
        {
            return Err(CampaignError::Spec(
                "scheduler axis values must be kind names, `portfolio`, or comma lists",
            ));
        }
        if self.streams == 0 {
            return Err(CampaignError::Spec("streams per cell must be positive"));
        }
        if self
            .fault_rates
            .iter()
            .any(|r| !r.is_finite() || !(0.0..=1.0).contains(r))
        {
            return Err(CampaignError::Spec("fault rates must lie in [0, 1]"));
        }
        for k in &self.knobs {
            if k.window == 0 {
                return Err(CampaignError::Spec("knob window must be positive"));
            }
            if !(k.threshold > 0.0 && k.threshold <= 1.0) {
                return Err(CampaignError::Spec("knob threshold must lie in (0, 1]"));
            }
        }
        for c in &self.explicit {
            if c.workload >= self.workloads.len()
                || c.platform >= self.platforms.len()
                || c.fault >= self.fault_rates.len()
                || c.arrival >= self.arrivals.len()
                || c.knob >= self.knobs.len()
                || c.scheduler >= self.schedulers.len()
            {
                return Err(CampaignError::Spec("explicit cell index out of range"));
            }
        }
        Ok(())
    }

    /// Hash of the spec's identity: name, axis values, streams and seed —
    /// everything a cell's result depends on except its own coordinates.
    /// The explicit list is deliberately excluded (see
    /// [`CampaignSpec::explicit`]).
    pub fn spec_hash(&self) -> u64 {
        let mut canon = String::new();
        canon.push_str(&self.name);
        canon.push('\u{1e}');
        for w in &self.workloads {
            canon.push_str(w);
            canon.push('\u{1f}');
        }
        canon.push('\u{1e}');
        for p in &self.platforms {
            canon.push_str(p);
            canon.push('\u{1f}');
        }
        canon.push('\u{1e}');
        for r in &self.fault_rates {
            canon.push_str(&format!("{:016x};", r.to_bits()));
        }
        canon.push('\u{1e}');
        for a in &self.arrivals {
            canon.push_str(&a.label());
            canon.push('\u{1f}');
        }
        canon.push('\u{1e}');
        for k in &self.knobs {
            canon.push_str(&format!("{}:{:016x};", k.window, k.threshold.to_bits()));
        }
        canon.push_str(&format!("\u{1e}{}\u{1e}{:016x}", self.streams, self.seed));
        // The scheduler axis folds in only when it deviates from the
        // pre-portfolio default, so every spec hash (and thus every cell
        // ID and checkpoint) minted before the axis existed stays valid.
        if !self.scheduler_axis_is_default() {
            canon.push('\u{1e}');
            for s in &self.schedulers {
                canon.push_str(s);
                canon.push('\u{1f}');
            }
        }
        SplitMix64::mix(fnv1a64(&canon), 0xCA4D_4A16)
    }

    /// The stable ID of the cell at `coord`.
    pub fn cell_id(&self, coord: CellCoord) -> u64 {
        let mut h = self.spec_hash();
        for (axis, idx) in [
            coord.workload,
            coord.platform,
            coord.fault,
            coord.arrival,
            coord.knob,
        ]
        .into_iter()
        .enumerate()
        {
            h = SplitMix64::mix(h, ((axis as u64 + 1) << 56) | idx as u64);
        }
        // Same compatibility discipline as `spec_hash`: scheduler index 0
        // (the first — on the default axis, only — value) folds nothing,
        // so pre-portfolio cell IDs are reproduced exactly.
        if coord.scheduler != 0 {
            h = SplitMix64::mix(h, (6u64 << 56) | coord.scheduler as u64);
        }
        h
    }

    /// Expands the grid: the cartesian product in lexicographic axis
    /// order (workload outermost, knob innermost), then explicit cells
    /// not already present, in list order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut seen: std::collections::BTreeSet<CellCoord> = std::collections::BTreeSet::new();
        let mut cells = Vec::new();
        let mut push = |cells: &mut Vec<Cell>, coord: CellCoord| {
            if seen.insert(coord) {
                cells.push(Cell {
                    index: cells.len(),
                    id: self.cell_id(coord),
                    coord,
                });
            }
        };
        for w in 0..self.workloads.len() {
            for p in 0..self.platforms.len() {
                for f in 0..self.fault_rates.len() {
                    for a in 0..self.arrivals.len() {
                        for k in 0..self.knobs.len() {
                            for s in 0..self.schedulers.len() {
                                push(
                                    &mut cells,
                                    CellCoord {
                                        workload: w,
                                        platform: p,
                                        fault: f,
                                        arrival: a,
                                        knob: k,
                                        scheduler: s,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
        for &coord in &self.explicit {
            push(&mut cells, coord);
        }
        cells
    }

    /// Total simulated instances the campaign will execute if every
    /// cell's artifact carries a trace of `trace_len` instances.
    pub fn planned_instances(&self, trace_len: usize) -> u64 {
        self.cells().len() as u64 * self.streams as u64 * trace_len as u64
    }
}

/// FNV-1a over a canonical spec encoding (vendored; the workspace has no
/// hashing dependency and `DefaultHasher` is not stable across releases).
fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A compiled (workload, platform) pair: everything cells of that pair
/// share read-only.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The compiled scheduling context (graph analyses + CSR).
    pub ctx: SchedContext,
    /// The probability table every stream's first solution is computed
    /// with (one deduplicated setup solve per cell).
    pub probs: BranchProbs,
    /// The decision trace streams replay (stream `s` rotates it by
    /// `s·len/streams`).
    pub trace: Vec<DecisionVector>,
}

/// Campaign failure: a solver error inside a cell, an I/O error on the
/// result stream, a checkpoint that does not match the spec, or an
/// invalid spec.
#[derive(Debug)]
pub enum CampaignError {
    /// Scheduling/simulation failure (compile or cell execution).
    Sched(SchedError),
    /// Filesystem failure on the JSON-lines stream.
    Io(std::io::Error),
    /// The resume file is corrupt or belongs to a different campaign.
    Checkpoint(String),
    /// The spec itself is invalid.
    Spec(&'static str),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sched(e) => write!(f, "campaign cell failed: {e}"),
            CampaignError::Io(e) => write!(f, "campaign stream I/O failed: {e}"),
            CampaignError::Checkpoint(what) => write!(f, "bad campaign checkpoint: {what}"),
            CampaignError::Spec(what) => write!(f, "invalid campaign spec: {what}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Sched(e) => Some(e),
            CampaignError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedError> for CampaignError {
    fn from(e: SchedError) -> Self {
        CampaignError::Sched(e)
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads claiming cells (default 1; bench binaries pass
    /// [`RunConfig::from_env`](crate::RunConfig::from_env)'s count).
    pub workers: usize,
    /// JSON-lines output path — also the checkpoint.
    pub output: PathBuf,
    /// Resume from `output` if it exists: completed cells are skipped and
    /// their recorded digests folded into the roll-up.
    pub resume: bool,
    /// Telemetry handle for campaign-level stages (compile spans, cell
    /// runs/skips) and counters.
    pub obs: Obs,
}

impl CampaignConfig {
    /// Default executor writing to `output`: one worker, no resume,
    /// telemetry off.
    pub fn new(output: impl Into<PathBuf>) -> Self {
        CampaignConfig {
            workers: 1,
            output: output.into(),
            resume: false,
            obs: Obs::disabled(),
        }
    }
}

/// Per-cell result digest: exactly the quantities the roll-up folds plus
/// the cell's labels. A digest is a pure function of the spec and the
/// cell coordinates — never of worker count, claim order or wall clock —
/// and its JSON-line rendering carries `f64` bit patterns so a digest
/// survives a checkpoint round-trip bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDigest {
    /// Stable cell ID.
    pub id: u64,
    /// Workload label.
    pub workload: String,
    /// Platform label.
    pub platform: String,
    /// Uniform fault rate.
    pub fault_rate: f64,
    /// Arrival-process label.
    pub arrival: String,
    /// Profiler window.
    pub window: usize,
    /// Drift threshold.
    pub threshold: f64,
    /// Scheduler-axis label (`"dls"` for digests from checkpoints that
    /// predate the axis).
    pub scheduler: String,
    /// Streams simulated.
    pub streams: usize,
    /// Instances simulated.
    pub instances: u64,
    /// Events dequeued by the serve engine.
    pub events: u64,
    /// Drift events across streams.
    pub drift_events: u64,
    /// Adopted re-schedules across streams.
    pub reschedules: u64,
    /// Deadline misses across streams.
    pub deadline_misses: u64,
    /// Injected faults that fired, across streams.
    pub faults: u64,
    /// Total energy across streams (folded in stream order).
    pub total_energy: f64,
    /// Largest per-instance makespan.
    pub max_makespan: f64,
    /// Pooled median arrival-to-completion latency.
    pub latency_p50: f64,
    /// Pooled 99th-percentile latency.
    pub latency_p99: f64,
    /// Largest observed latency.
    pub latency_max: f64,
}

impl CellDigest {
    fn from_report(spec: &CampaignSpec, cell: &Cell, report: &ServeReport) -> Self {
        let mut total_energy = 0.0;
        let mut max_makespan = 0.0_f64;
        let mut deadline_misses = 0u64;
        let mut reschedules = 0u64;
        let mut faults = 0u64;
        for s in &report.streams {
            total_energy += s.exec.total_energy;
            max_makespan = max_makespan.max(s.exec.max_makespan);
            deadline_misses += s.exec.deadline_misses as u64;
            reschedules += s.reschedules as u64;
            faults += s.faults.total() as u64;
        }
        CellDigest {
            id: cell.id,
            workload: spec.workloads[cell.coord.workload].clone(),
            platform: spec.platforms[cell.coord.platform].clone(),
            fault_rate: spec.fault_rates[cell.coord.fault],
            arrival: spec.arrivals[cell.coord.arrival].label(),
            window: spec.knobs[cell.coord.knob].window,
            threshold: spec.knobs[cell.coord.knob].threshold,
            scheduler: spec.schedulers[cell.coord.scheduler].clone(),
            streams: report.stats.streams,
            instances: report.stats.instances as u64,
            events: report.stats.events as u64,
            drift_events: report.stats.drift_events as u64,
            reschedules,
            deadline_misses,
            faults,
            total_energy,
            max_makespan,
            latency_p50: report.stats.latency_p50,
            latency_p99: report.stats.latency_p99,
            latency_max: report.stats.latency_max,
        }
    }

    /// Renders the digest as one JSON line (no trailing newline). The
    /// `*_bits` fields are the exact `f64` bit patterns as decimal
    /// strings — JSON numbers are doubles and cannot carry `u64` payloads
    /// exactly, strings can.
    pub fn to_line(&self) -> String {
        format!(
            concat!(
                "{{\"cell\":\"{:016x}\",\"workload\":{},\"platform\":{},",
                "\"fault_rate\":{},\"arrival\":{},\"window\":{},\"threshold\":{},",
                "\"scheduler\":{},",
                "\"streams\":{},\"instances\":{},\"events\":{},\"drift_events\":{},",
                "\"reschedules\":{},\"deadline_misses\":{},\"faults\":{},",
                "\"energy\":{},\"energy_bits\":\"{}\",",
                "\"makespan\":{},\"makespan_bits\":\"{}\",",
                "\"latency_p50_bits\":\"{}\",\"latency_p99_bits\":\"{}\",",
                "\"latency_max_bits\":\"{}\"}}"
            ),
            self.id,
            quote(&self.workload),
            quote(&self.platform),
            fmt_f64(self.fault_rate),
            quote(&self.arrival),
            self.window,
            fmt_f64(self.threshold),
            quote(&self.scheduler),
            self.streams,
            self.instances,
            self.events,
            self.drift_events,
            self.reschedules,
            self.deadline_misses,
            self.faults,
            fmt_f64(self.total_energy),
            self.total_energy.to_bits(),
            fmt_f64(self.max_makespan),
            self.max_makespan.to_bits(),
            self.latency_p50.to_bits(),
            self.latency_p99.to_bits(),
            self.latency_max.to_bits(),
        )
    }

    /// Rebuilds a digest from a parsed JSON line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{k}`"))
        };
        let num_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("missing numeric field `{k}`"))
        };
        let f64_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field `{k}`"))
        };
        let bits_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Value::as_str)
                .and_then(|s| s.parse::<u64>().ok())
                .map(f64::from_bits)
                .ok_or_else(|| format!("missing bit-pattern field `{k}`"))
        };
        let id = v
            .get("cell")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("missing cell id")?;
        Ok(CellDigest {
            id,
            workload: str_field("workload")?,
            platform: str_field("platform")?,
            fault_rate: f64_field("fault_rate")?,
            arrival: str_field("arrival")?,
            window: num_field("window")? as usize,
            threshold: f64_field("threshold")?,
            // Absent in checkpoints written before the scheduler axis
            // existed; those cells could only have run the DLS pipeline.
            scheduler: str_field("scheduler").unwrap_or_else(|_| "dls".to_string()),
            streams: num_field("streams")? as usize,
            instances: num_field("instances")?,
            events: num_field("events")?,
            drift_events: num_field("drift_events")?,
            reschedules: num_field("reschedules")?,
            deadline_misses: num_field("deadline_misses")?,
            faults: num_field("faults")?,
            total_energy: bits_field("energy_bits")?,
            max_makespan: bits_field("makespan_bits")?,
            latency_p50: bits_field("latency_p50_bits")?,
            latency_p99: bits_field("latency_p99_bits")?,
            latency_max: bits_field("latency_max_bits")?,
        })
    }
}

/// Upper bounds of the roll-up's per-cell deadline-miss-rate histogram.
pub const MISS_RATE_BOUNDS: &[f64] = &[0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5];
/// Upper bounds of the roll-up's per-cell reschedule-rate histogram
/// (adopted re-schedules per instance).
pub const RESCHED_RATE_BOUNDS: &[f64] = &[0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2];

/// A fixed-bucket histogram with explicit bounds (the roll-up's
/// constant-size distribution summary; last bucket is overflow).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHist {
    /// Upper bucket bounds (`value <= bound` selects the bucket).
    pub bounds: &'static [f64],
    /// `bounds.len() + 1` counts.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (folded in observation order).
    pub sum: f64,
}

impl FixedHist {
    fn new(bounds: &'static [f64]) -> Self {
        FixedHist {
            bounds,
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"bounds\":[{}],\"buckets\":[{}],\"count\":{},\"sum\":{}}}",
            self.bounds
                .iter()
                .map(|b| fmt_f64(*b))
                .collect::<Vec<_>>()
                .join(","),
            self.buckets
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.count,
            fmt_f64(self.sum),
        )
    }
}

/// The fixed-size in-memory aggregate of a campaign: counters plus two
/// fixed-bucket histograms. Folded strictly in grid order, so it is
/// bit-identical across worker counts and across kill/resume boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRollup {
    /// Cells folded.
    pub cells: u64,
    /// Streams simulated.
    pub streams: u64,
    /// Instances simulated.
    pub instances: u64,
    /// Events dequeued.
    pub events: u64,
    /// Drift events.
    pub drift_events: u64,
    /// Adopted re-schedules.
    pub reschedules: u64,
    /// Deadline misses.
    pub deadline_misses: u64,
    /// Injected faults that fired.
    pub faults: u64,
    /// Total energy (folded in grid order).
    pub total_energy: f64,
    /// Largest per-instance makespan seen by any cell.
    pub max_makespan: f64,
    /// Per-cell deadline-miss-rate distribution.
    pub miss_rate: FixedHist,
    /// Per-cell reschedule-rate distribution.
    pub resched_rate: FixedHist,
}

impl CampaignRollup {
    fn new() -> Self {
        CampaignRollup {
            cells: 0,
            streams: 0,
            instances: 0,
            events: 0,
            drift_events: 0,
            reschedules: 0,
            deadline_misses: 0,
            faults: 0,
            total_energy: 0.0,
            max_makespan: 0.0,
            miss_rate: FixedHist::new(MISS_RATE_BOUNDS),
            resched_rate: FixedHist::new(RESCHED_RATE_BOUNDS),
        }
    }

    fn absorb(&mut self, d: &CellDigest) {
        self.cells += 1;
        self.streams += d.streams as u64;
        self.instances += d.instances;
        self.events += d.events;
        self.drift_events += d.drift_events;
        self.reschedules += d.reschedules;
        self.deadline_misses += d.deadline_misses;
        self.faults += d.faults;
        self.total_energy += d.total_energy;
        self.max_makespan = self.max_makespan.max(d.max_makespan);
        let per_instance = |n: u64| {
            if d.instances == 0 {
                0.0
            } else {
                n as f64 / d.instances as f64
            }
        };
        self.miss_rate.observe(per_instance(d.deadline_misses));
        self.resched_rate.observe(per_instance(d.reschedules));
    }

    /// Serializes the roll-up as a JSON object (energy carries its exact
    /// bit pattern alongside the readable value).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"cells\":{},\"streams\":{},\"instances\":{},\"events\":{},",
                "\"drift_events\":{},\"reschedules\":{},\"deadline_misses\":{},",
                "\"faults\":{},\"total_energy\":{},\"total_energy_bits\":\"{}\",",
                "\"max_makespan\":{},\"max_makespan_bits\":\"{}\",",
                "\"miss_rate_hist\":{},\"resched_rate_hist\":{}}}"
            ),
            self.cells,
            self.streams,
            self.instances,
            self.events,
            self.drift_events,
            self.reschedules,
            self.deadline_misses,
            self.faults,
            fmt_f64(self.total_energy),
            self.total_energy.to_bits(),
            fmt_f64(self.max_makespan),
            self.max_makespan.to_bits(),
            self.miss_rate.to_json(),
            self.resched_rate.to_json(),
        )
    }
}

/// Everything a campaign run reports beyond the streamed cell lines.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Cells in the expanded grid.
    pub cells_total: usize,
    /// Cells executed by this run.
    pub cells_run: usize,
    /// Cells skipped because the checkpoint already held them.
    pub cells_resumed: usize,
    /// Distinct (workload, platform) artifacts compiled by this run.
    pub compiles: usize,
    /// Cells served by an already-compiled artifact.
    pub artifact_hits: usize,
    /// Wall-clock seconds spent compiling artifacts (summed across
    /// workers; the amortization baseline).
    pub compile_s: f64,
    /// The fixed-size aggregate over **all** cells, resumed included.
    pub rollup: CampaignRollup,
    /// Wall-clock seconds of the whole run.
    pub wall_s: f64,
}

/// Per-worker executor state: a warm setup workspace and a telemetry
/// track.
struct CellWorker {
    ws: SolverWorkspace,
    track: u32,
}

const ARRIVAL_SALT: u64 = 0x00A5_517E;
const FAULT_SALT: u64 = 0x00FA_017E;

/// Executes one cell: builds its stream specs from the artifact and the
/// cell's coordinates and drives them through the serve engine with the
/// worker's warm setup workspace. Pure given (spec, cell, artifact).
fn run_cell(
    spec: &CampaignSpec,
    cell: &Cell,
    art: &Artifact,
    setup_ws: &mut SolverWorkspace,
) -> Result<CellDigest, CampaignError> {
    if art.trace.is_empty() {
        return Err(CampaignError::Spec("artifact trace must not be empty"));
    }
    let knob = spec.knobs[cell.coord.knob];
    let rate = spec.fault_rates[cell.coord.fault];
    let len = art.trace.len();
    let specs: Vec<StreamSpec> = (0..spec.streams)
        .map(|s| {
            let mut trace = art.trace.clone();
            trace.rotate_left(s * len / spec.streams % len);
            StreamSpec {
                trace,
                initial_probs: art.probs.clone(),
                window: knob.window,
                threshold: knob.threshold,
                fault_plan: (rate > 0.0).then(|| {
                    FaultPlan::uniform(
                        SplitMix64::mix(SplitMix64::mix(cell.id, FAULT_SALT), s as u64),
                        rate,
                    )
                }),
                criticality: 0,
            }
        })
        .collect();
    let cfg = ServeConfig {
        // One worker inside the cell: campaign parallelism is *across*
        // cells, and a single-threaded cell keeps the per-cell footprint
        // flat no matter how many cells run at once.
        workers: 1,
        shards: 1,
        cache: CacheMode::Shared {
            capacity: 1024,
            stripes: 1,
        },
        solve_budget: None,
        admission: None,
        quarantine: None,
        arrival: spec.arrivals[cell.coord.arrival]
            .to_config(SplitMix64::mix(cell.id, ARRIVAL_SALT)),
        // Labels were validated with the spec; a bare `dls` selection is
        // the historic pipeline, not a one-entry race.
        portfolio: crate::run::normalize_scheduler_selection(
            parse_scheduler_selection(&spec.schedulers[cell.coord.scheduler])
                .expect("scheduler axis labels validated"),
        ),
    };
    let report = run_serve_seeded(&art.ctx, &specs, &cfg, setup_ws)?;
    Ok(CellDigest::from_report(spec, cell, &report))
}

/// Parses an existing JSON-lines checkpoint: fills `slots` with the
/// digests of completed cells and returns `(valid_byte_len, resumed)`.
/// A non-terminated, non-parsing trailing line — the partial write of a
/// killed run — is dropped (the file is truncated to `valid_byte_len`
/// before appending); corruption anywhere else is an error.
fn load_checkpoint(
    data: &str,
    index_of: &BTreeMap<u64, usize>,
    slots: &mut [Option<CellDigest>],
) -> Result<(u64, usize), CampaignError> {
    let mut valid_len = 0u64;
    let mut resumed = 0usize;
    let mut pos = 0usize;
    while pos < data.len() {
        let rest = &data[pos..];
        let (line, consumed, terminated) = match rest.find('\n') {
            Some(i) => (&rest[..i], i + 1, true),
            None => (rest, rest.len(), false),
        };
        pos += consumed;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            if terminated {
                valid_len = pos as u64;
            }
            continue;
        }
        match json::parse(trimmed) {
            Ok(v) => {
                let d = CellDigest::from_value(&v).map_err(CampaignError::Checkpoint)?;
                let idx = *index_of.get(&d.id).ok_or_else(|| {
                    CampaignError::Checkpoint(format!(
                        "cell {:016x} is not part of this campaign",
                        d.id
                    ))
                })?;
                if slots[idx].is_some() {
                    return Err(CampaignError::Checkpoint(format!(
                        "cell {:016x} recorded twice",
                        d.id
                    )));
                }
                slots[idx] = Some(d);
                resumed += 1;
                valid_len = pos as u64;
            }
            Err(_) if !terminated => break,
            Err(e) => {
                return Err(CampaignError::Checkpoint(format!(
                    "corrupt checkpoint line: {e}"
                )))
            }
        }
    }
    Ok((valid_len, resumed))
}

/// Runs a campaign: expands the grid, skips checkpointed cells, executes
/// the rest across worker threads, streams one JSON line per finished
/// cell to [`CampaignConfig::output`], and returns the fixed-size
/// roll-up.
///
/// `compile` maps a (workload, platform) label pair to a compiled
/// [`Artifact`]; it runs **once** per distinct pair actually touched
/// (concurrent cells of the same pair block on the single compile) and
/// must be deterministic — the artifact is part of every dependent
/// digest's definition.
///
/// # Errors
///
/// Propagates spec validation, compile, solver and I/O failures. Cells
/// finished before the failure are already streamed, so a failed campaign
/// resumes exactly like a killed one.
pub fn run_campaign(
    spec: &CampaignSpec,
    compile: &(dyn Fn(&str, &str) -> Result<Artifact, SchedError> + Sync),
    cfg: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    let start = Instant::now();
    spec.validate()?;
    let cells = spec.cells();
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    for c in &cells {
        if index_of.insert(c.id, c.index).is_some() {
            return Err(CampaignError::Spec("cell id collision in expanded grid"));
        }
    }

    let mut slots: Vec<Option<CellDigest>> = vec![None; cells.len()];
    let mut resumed = 0usize;
    let file = if cfg.resume && cfg.output.exists() {
        let data = std::fs::read_to_string(&cfg.output)?;
        let (valid_len, n) = load_checkpoint(&data, &index_of, &mut slots)?;
        resumed = n;
        let mut f = OpenOptions::new().write(true).open(&cfg.output)?;
        f.set_len(valid_len)?;
        f.seek(SeekFrom::End(0))?;
        f
    } else {
        File::create(&cfg.output)?
    };
    for c in &cells {
        if slots[c.index].is_some() {
            cfg.obs.instant(0, Stage::CellSkip, c.index as i64);
        }
    }
    cfg.obs.count(Counter::CellsResumed, resumed as u64);

    let pending: Vec<Cell> = cells
        .iter()
        .filter(|c| slots[c.index].is_none())
        .copied()
        .collect();

    // One lazily compiled artifact slot per (workload, platform) pair;
    // `OnceLock` gives exactly-once compilation with concurrent cells of
    // the same pair blocking on the winner.
    let num_platforms = spec.platforms.len();
    let artifacts: Vec<OnceLock<Result<std::sync::Arc<Artifact>, SchedError>>> =
        (0..spec.workloads.len() * num_platforms)
            .map(|_| OnceLock::new())
            .collect();
    let compiles = AtomicUsize::new(0);
    let compile_s = Mutex::new(0.0_f64);
    let writer = Mutex::new(BufWriter::new(file));
    let next_track = AtomicUsize::new(0);
    let workers = cfg.workers.max(1);

    let results: Vec<Result<CellDigest, CampaignError>> = pool::map_ordered_with(
        &pending,
        workers,
        || CellWorker {
            ws: SolverWorkspace::new(),
            track: next_track.fetch_add(1, Ordering::Relaxed) as u32,
        },
        |worker, _i, cell| {
            let slot = &artifacts[cell.coord.workload * num_platforms + cell.coord.platform];
            let art = slot
                .get_or_init(|| {
                    let span = cfg.obs.span(worker.track, Stage::Compile);
                    let t0 = Instant::now();
                    let built = compile(
                        &spec.workloads[cell.coord.workload],
                        &spec.platforms[cell.coord.platform],
                    )
                    .map(std::sync::Arc::new);
                    *compile_s.lock().unwrap() += t0.elapsed().as_secs_f64();
                    compiles.fetch_add(1, Ordering::Relaxed);
                    cfg.obs.count(Counter::ArtifactCompiles, 1);
                    span.end(1);
                    built
                })
                .clone()?;
            let span = cfg.obs.span(worker.track, Stage::CellRun);
            let digest = run_cell(spec, cell, &art, &mut worker.ws)?;
            span.end(digest.instances as i64);
            let mut line = digest.to_line();
            line.push('\n');
            {
                let mut w = writer.lock().unwrap();
                w.write_all(line.as_bytes())?;
                // Flush per cell: the line is the checkpoint record, and a
                // killed campaign may only lose the line being written.
                w.flush()?;
            }
            cfg.obs.count(Counter::CellsCompleted, 1);
            Ok(digest)
        },
    );
    writer.lock().unwrap().flush()?;

    let cells_run = pending.len();
    for (cell, result) in pending.iter().zip(results) {
        slots[cell.index] = Some(result?);
    }

    // Fold strictly in grid order — identical for any worker count and
    // for any resume split, which is the roll-up's bit-identity argument.
    let mut rollup = CampaignRollup::new();
    for slot in &slots {
        rollup.absorb(slot.as_ref().expect("every cell ran or was resumed"));
    }

    let compiles = compiles.load(Ordering::Relaxed);
    let artifact_hits = cells_run.saturating_sub(compiles);
    cfg.obs.count(Counter::ArtifactHits, artifact_hits as u64);
    let compile_s = *compile_s.lock().unwrap();
    Ok(CampaignReport {
        cells_total: cells.len(),
        cells_run,
        cells_resumed: resumed,
        compiles,
        artifact_hits,
        compile_s,
        rollup,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            workloads: vec!["w0".into(), "w1".into()],
            platforms: vec!["p0".into()],
            fault_rates: vec![0.0, 0.05],
            arrivals: vec![ArrivalSpec::ClosedLoop, ArrivalSpec::Poisson { rate: 0.5 }],
            knobs: vec![KnobSpec {
                window: 6,
                threshold: 0.25,
            }],
            schedulers: vec!["dls".into()],
            streams: 2,
            seed: 42,
            explicit: Vec::new(),
        }
    }

    #[test]
    fn cell_ids_are_stable_and_distinct() {
        let spec = small_spec();
        let cells = spec.cells();
        // 2 workloads x 1 platform x 2 fault rates x 2 arrivals x 1 knob.
        assert_eq!(cells.len(), 8);
        let again = spec.cells();
        assert_eq!(cells, again, "expansion must be deterministic");
        let mut ids: Vec<u64> = cells.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cells.len(), "ids must be unique");
        // Different seed (or name) → different id universe.
        let mut other = small_spec();
        other.seed = 43;
        assert_ne!(other.cells()[0].id, cells[0].id);
    }

    #[test]
    fn explicit_cells_extend_without_moving_ids() {
        let mut spec = small_spec();
        let base = spec.cells();
        spec.explicit.push(CellCoord {
            workload: 1,
            platform: 0,
            fault: 1,
            arrival: 1,
            knob: 0,
            scheduler: 0,
        });
        // Duplicate of a grid cell: dropped, nothing changes.
        assert_eq!(spec.cells(), base);
        // A disjoint explicit cell only appears when the grid shrinks.
        spec.workloads.truncate(1);
        spec.explicit = vec![CellCoord {
            workload: 0,
            platform: 0,
            fault: 1,
            arrival: 1,
            knob: 0,
            scheduler: 0,
        }];
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells.last().unwrap().index, 3);
    }

    #[test]
    fn spec_validation_rejects_bad_axes() {
        let mut spec = small_spec();
        spec.fault_rates = vec![1.5];
        assert!(matches!(spec.validate(), Err(CampaignError::Spec(_))));
        let mut spec = small_spec();
        spec.knobs[0].threshold = 0.0;
        assert!(spec.validate().is_err());
        let mut spec = small_spec();
        spec.explicit.push(CellCoord {
            workload: 9,
            platform: 0,
            fault: 0,
            arrival: 0,
            knob: 0,
            scheduler: 0,
        });
        assert!(spec.validate().is_err());
        assert!(small_spec().validate().is_ok());
    }

    #[test]
    fn digest_round_trips_through_its_json_line() {
        let digest = CellDigest {
            id: 0xDEAD_BEEF_0123_4567,
            workload: "mpeg \"drift\"".into(),
            platform: "pe3".into(),
            fault_rate: 0.05,
            arrival: "poisson:0.5".into(),
            window: 20,
            threshold: 0.1,
            scheduler: "portfolio".into(),
            streams: 8,
            instances: 3840,
            events: 7680,
            drift_events: 487,
            reschedules: 487,
            deadline_misses: 3,
            faults: 19,
            total_energy: 12345.678901234567,
            max_makespan: 98.76543210987654,
            latency_p50: 1.0 / 3.0,
            latency_p99: 2.0 / 7.0,
            latency_max: 1e-300,
        };
        let line = digest.to_line();
        let parsed = json::parse(&line).expect("digest line parses strictly");
        let back = CellDigest::from_value(&parsed).expect("digest rebuilds");
        assert_eq!(back, digest);
        assert_eq!(
            back.total_energy.to_bits(),
            digest.total_energy.to_bits(),
            "energy bits survive the round trip"
        );
        assert_eq!(back.to_line(), line, "re-rendering is byte-identical");
    }

    #[test]
    fn rollup_fold_is_a_pure_function_of_digest_order() {
        let mk = |id: u64, misses: u64| CellDigest {
            id,
            workload: "w".into(),
            platform: "p".into(),
            fault_rate: 0.0,
            arrival: "closed".into(),
            window: 4,
            threshold: 0.2,
            scheduler: "dls".into(),
            streams: 2,
            instances: 100,
            events: 200,
            drift_events: 10,
            reschedules: 10,
            deadline_misses: misses,
            faults: 0,
            total_energy: 0.1 + id as f64,
            max_makespan: id as f64,
            latency_p50: 1.0,
            latency_p99: 2.0,
            latency_max: 3.0,
        };
        let digests = [mk(1, 0), mk(2, 5), mk(3, 60)];
        let mut a = CampaignRollup::new();
        for d in &digests {
            a.absorb(d);
        }
        let mut b = CampaignRollup::new();
        for d in &digests {
            b.absorb(d);
        }
        assert_eq!(a, b);
        assert_eq!(a.cells, 3);
        assert_eq!(a.instances, 300);
        assert_eq!(a.deadline_misses, 65);
        assert_eq!(a.total_energy.to_bits(), b.total_energy.to_bits());
        // miss rates 0, 0.05, 0.6 → buckets <=0, <=0.05, overflow.
        assert_eq!(a.miss_rate.buckets[0], 1);
        assert_eq!(*a.miss_rate.buckets.last().unwrap(), 1);
        let parsed = json::parse(&a.to_json()).expect("rollup json parses");
        assert_eq!(parsed.get("instances").and_then(Value::as_f64), Some(300.0));
    }

    #[test]
    fn checkpoint_loader_drops_partial_tail_and_rejects_foreign_cells() {
        let spec = small_spec();
        let cells = spec.cells();
        let mut index_of = BTreeMap::new();
        for c in &cells {
            index_of.insert(c.id, c.index);
        }
        let digest = CellDigest {
            id: cells[0].id,
            workload: "w0".into(),
            platform: "p0".into(),
            fault_rate: 0.0,
            arrival: "closed".into(),
            window: 6,
            threshold: 0.25,
            scheduler: "dls".into(),
            streams: 2,
            instances: 10,
            events: 20,
            drift_events: 1,
            reschedules: 1,
            deadline_misses: 0,
            faults: 0,
            total_energy: 5.5,
            max_makespan: 2.0,
            latency_p50: 1.0,
            latency_p99: 1.5,
            latency_max: 2.0,
        };
        let good = digest.to_line();
        let data = format!("{good}\n{{\"cell\":\"partia");
        let mut slots = vec![None; cells.len()];
        let (valid, resumed) = load_checkpoint(&data, &index_of, &mut slots).expect("loads");
        assert_eq!(resumed, 1);
        assert_eq!(valid as usize, good.len() + 1);
        assert_eq!(slots[0].as_ref(), Some(&digest));

        // A cell of some other campaign is an error, not a silent skip.
        let mut foreign = digest.clone();
        foreign.id ^= 0x1;
        let mut slots = vec![None; cells.len()];
        assert!(matches!(
            load_checkpoint(&format!("{}\n", foreign.to_line()), &index_of, &mut slots),
            Err(CampaignError::Checkpoint(_))
        ));
    }
}
