//! Metrics: monotone counters and fixed-bucket histograms.
//!
//! Unlike trace events — which grow with the run — metrics are constant
//! size: a fixed set of atomic counters and histograms keyed by enum, so
//! per-instance hot paths can record into them without allocation or
//! locks. A [`MetricsSnapshot`] freezes the registry for reports (the
//! serve bench folds one into `BENCH_serve.json`).
//!
//! The workspace is dependency-free, so there is no `serde`; snapshots
//! serialize through the hand-rolled [`MetricsSnapshot::to_json`] and
//! `Display` instead.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone event counters, one per observable occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Counter {
    /// Simulated instances.
    Instances,
    /// Instances that missed their deadline.
    DeadlineMisses,
    /// Solver invocations that actually ran the pipeline.
    SolverCalls,
    /// Plan-cache lookups that hit (the manager's cache or the serving
    /// engine's shared one).
    CacheHits,
    /// Cache lookups that fell through to the solver.
    CacheMisses,
    /// Drift events (windowed estimate crossed its threshold).
    DriftEvents,
    /// Adopted re-schedules.
    Adoptions,
    /// Injected fault events.
    FaultsInjected,
    /// Degradation-ladder transitions.
    LadderTransitions,
    /// Reschedule requests shed by admission control.
    ShedRequests,
    /// Circuit-breaker openings (streams entering quarantine).
    QuarantineEvents,
    /// Solves aborted by the work-budget watchdog.
    BudgetExceededSolves,
    /// Instances whose arrival-to-completion latency exceeded the SLO.
    SloMisses,
    /// Campaign cells executed to completion.
    CellsCompleted,
    /// Campaign cells skipped because the checkpoint already held them.
    CellsResumed,
    /// Campaign artifact compiles (one per distinct workload × platform
    /// pair actually touched).
    ArtifactCompiles,
    /// Campaign cells served an already-compiled artifact.
    ArtifactHits,
    /// Scheduler-portfolio races run on drift events.
    PortfolioRaces,
}

/// All counters, in snapshot/export order.
pub const COUNTERS: [Counter; 18] = [
    Counter::Instances,
    Counter::DeadlineMisses,
    Counter::SolverCalls,
    Counter::CacheHits,
    Counter::CacheMisses,
    Counter::DriftEvents,
    Counter::Adoptions,
    Counter::FaultsInjected,
    Counter::LadderTransitions,
    Counter::ShedRequests,
    Counter::QuarantineEvents,
    Counter::BudgetExceededSolves,
    Counter::SloMisses,
    Counter::CellsCompleted,
    Counter::CellsResumed,
    Counter::ArtifactCompiles,
    Counter::ArtifactHits,
    Counter::PortfolioRaces,
];

impl Counter {
    fn index(self) -> usize {
        match self {
            Counter::Instances => 0,
            Counter::DeadlineMisses => 1,
            Counter::SolverCalls => 2,
            Counter::CacheHits => 3,
            Counter::CacheMisses => 4,
            Counter::DriftEvents => 5,
            Counter::Adoptions => 6,
            Counter::FaultsInjected => 7,
            Counter::LadderTransitions => 8,
            Counter::ShedRequests => 9,
            Counter::QuarantineEvents => 10,
            Counter::BudgetExceededSolves => 11,
            Counter::SloMisses => 12,
            Counter::CellsCompleted => 13,
            Counter::CellsResumed => 14,
            Counter::ArtifactCompiles => 15,
            Counter::ArtifactHits => 16,
            Counter::PortfolioRaces => 17,
        }
    }

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Instances => "instances",
            Counter::DeadlineMisses => "deadline_misses",
            Counter::SolverCalls => "solver_calls",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::DriftEvents => "drift_events",
            Counter::Adoptions => "adoptions",
            Counter::FaultsInjected => "faults_injected",
            Counter::LadderTransitions => "ladder_transitions",
            Counter::ShedRequests => "shed_requests",
            Counter::QuarantineEvents => "quarantine_events",
            Counter::BudgetExceededSolves => "budget_exceeded_solves",
            Counter::SloMisses => "slo_misses",
            Counter::CellsCompleted => "cells_completed",
            Counter::CellsResumed => "cells_resumed",
            Counter::ArtifactCompiles => "artifact_compiles",
            Counter::ArtifactHits => "artifact_hits",
            Counter::PortfolioRaces => "portfolio_races",
        }
    }
}

/// Fixed-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Hist {
    /// End-to-end solver latency in microseconds.
    SolveUs,
    /// Per-instance slack (deadline − makespan) as a fraction of the
    /// deadline, in percent; negative = a miss.
    SlackPct,
}

/// All histograms, in snapshot/export order.
pub const HISTS: [Hist; 2] = [Hist::SolveUs, Hist::SlackPct];

impl Hist {
    fn index(self) -> usize {
        match self {
            Hist::SolveUs => 0,
            Hist::SlackPct => 1,
        }
    }

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SolveUs => "solve_us",
            Hist::SlackPct => "slack_pct",
        }
    }

    /// Upper bucket bounds (a final implicit `+inf` bucket catches the
    /// rest). Bounds are fixed so snapshots from different runs line up
    /// column for column.
    pub fn bounds(self) -> &'static [f64] {
        match self {
            Hist::SolveUs => &[
                10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 10_000.0, 50_000.0,
            ],
            Hist::SlackPct => &[0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 75.0],
        }
    }
}

/// One atomic fixed-bucket histogram.
#[derive(Debug)]
struct AtomicHistogram {
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, as `f64` bits updated by CAS (recording is
    /// rare enough that contention is negligible).
    sum_bits: AtomicU64,
}

impl AtomicHistogram {
    fn new(bounds: &[f64]) -> Self {
        AtomicHistogram {
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }

    fn record(&self, bounds: &[f64], value: f64) {
        let idx = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// The registry: every counter and histogram, recordable concurrently.
#[derive(Debug)]
pub struct Metrics {
    counters: Vec<AtomicU64>,
    hists: Vec<AtomicHistogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: (0..COUNTERS.len()).map(|_| AtomicU64::new(0)).collect(),
            hists: HISTS
                .iter()
                .map(|h| AtomicHistogram::new(h.bounds()))
                .collect(),
        }
    }
}

impl Metrics {
    /// Creates an all-zero registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Records `value` into `hist`.
    pub fn observe(&self, hist: Hist, value: f64) {
        self.hists[hist.index()].record(hist.bounds(), value);
    }

    /// Freezes the registry into a plain-data snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: COUNTERS.iter().map(|&c| (c.name(), self.get(c))).collect(),
            hists: HISTS
                .iter()
                .map(|&h| {
                    let a = &self.hists[h.index()];
                    HistSnapshot {
                        name: h.name(),
                        bounds: h.bounds(),
                        buckets: a
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: a.count.load(Ordering::Relaxed),
                        sum: f64::from_bits(a.sum_bits.load(Ordering::Relaxed)),
                    }
                })
                .collect(),
        }
    }
}

/// A frozen histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Export name.
    pub name: &'static str,
    /// Upper bucket bounds (the final overflow bucket is implicit).
    pub bounds: &'static [f64],
    /// Per-bucket counts, `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
}

impl HistSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A frozen registry: plain data, cheap to clone and compare.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in [`COUNTERS`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// One frozen histogram per [`Hist`], in [`HISTS`] order.
    pub hists: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter by export name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Serializes the snapshot as a JSON object (hand-rolled; the
    /// workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"bounds\":[{}],\"buckets\":[{}],\"count\":{},\"sum\":{}}}",
                h.name,
                h.bounds
                    .iter()
                    .map(|b| format!("{b}"))
                    .collect::<Vec<_>>()
                    .join(","),
                h.buckets
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                h.count,
                crate::json::fmt_f64(h.sum),
            ));
        }
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "counters:")?;
        for (name, value) in &self.counters {
            writeln!(f, "  {name:<20} {value}")?;
        }
        for h in &self.hists {
            writeln!(
                f,
                "histogram {} (count {}, mean {:.2}):",
                h.name,
                h.count,
                h.mean()
            )?;
            for (i, &count) in h.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let label = if i < h.bounds.len() {
                    format!("<= {}", h.bounds[i])
                } else {
                    "> last".to_string()
                };
                writeln!(f, "  {label:<12} {count}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add(Counter::Instances, 3);
        m.add(Counter::Instances, 2);
        m.add(Counter::CacheHits, 1);
        assert_eq!(m.get(Counter::Instances), 5);
        assert_eq!(m.get(Counter::CacheHits), 1);
        assert_eq!(m.get(Counter::SolverCalls), 0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("instances"), 5);
        assert_eq!(snap.counter("no_such"), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let m = Metrics::new();
        m.observe(Hist::SolveUs, 5.0); // <= 10
        m.observe(Hist::SolveUs, 10.0); // <= 10 (inclusive)
        m.observe(Hist::SolveUs, 99.0); // <= 100
        m.observe(Hist::SolveUs, 1e9); // overflow
        let snap = m.snapshot();
        let h = &snap.hists[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(*h.buckets.last().unwrap(), 1);
        assert!((h.sum - (5.0 + 10.0 + 99.0 + 1e9)).abs() < 1e-6);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = &m;
                scope.spawn(move || {
                    for i in 0..1000 {
                        m.add(Counter::Instances, 1);
                        m.observe(Hist::SlackPct, (i % 100) as f64);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.counter("instances"), 4000);
        assert_eq!(snap.hists[1].count, 4000);
        let bucket_total: u64 = snap.hists[1].buckets.iter().sum();
        assert_eq!(bucket_total, 4000);
    }

    #[test]
    fn snapshot_json_is_valid() {
        let m = Metrics::new();
        m.add(Counter::DriftEvents, 7);
        m.observe(Hist::SolveUs, 42.0);
        let json = m.snapshot().to_json();
        let parsed = crate::json::parse(&json).expect("snapshot JSON parses");
        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(
            counters.get("drift_events").and_then(|v| v.as_f64()),
            Some(7.0)
        );
        let display = m.snapshot().to_string();
        assert!(display.contains("drift_events"));
    }
}
