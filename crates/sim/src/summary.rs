//! The shared execution-statistics core of every run summary.
//!
//! [`RunSummary`](crate::RunSummary) (trace runners) and
//! [`StreamSummary`](crate::StreamSummary) (serving engine) both measure
//! the same four simulated quantities; [`ExecStats`] is that common core,
//! embedded as the `exec` field of both. It carries only *simulated*
//! values — no wall clock, no cache accounting — so it is bit-identical
//! across worker counts, shard counts and cache modes, and `PartialEq`
//! compares everything (f64s by value).
//!
//! The workspace has no serde dependency (it is fully self-contained), so
//! serialization is a hand-rolled [`ExecStats::to_json`] with the same
//! float formatting the bench reports use, plus a human-oriented
//! [`Display`](std::fmt::Display).

use crate::instance::InstanceOutcome;

/// Simulated execution statistics common to every runner.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Instances executed.
    pub instances: usize,
    /// Sum of per-instance energies.
    pub total_energy: f64,
    /// Instances whose makespan exceeded the deadline.
    pub deadline_misses: usize,
    /// Largest observed makespan.
    pub max_makespan: f64,
}

impl ExecStats {
    /// Folds one instance outcome in.
    pub fn absorb_outcome(&mut self, r: &InstanceOutcome) {
        self.instances += 1;
        self.total_energy += r.energy;
        self.deadline_misses += usize::from(!r.deadline_met);
        self.max_makespan = self.max_makespan.max(r.makespan);
    }

    /// Mean per-instance energy.
    ///
    /// Returns `0.0` when `instances == 0` (an empty run consumed
    /// nothing), so callers can aggregate without guarding against
    /// division by zero.
    pub fn avg_energy(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.total_energy / self.instances as f64
        }
    }

    /// Fraction of instances that missed the deadline, in `[0, 1]`.
    ///
    /// Returns `0.0` when `instances == 0`, mirroring
    /// [`ExecStats::avg_energy`].
    pub fn miss_rate(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.instances as f64
        }
    }

    /// Renders the stats as one JSON object (hand-rolled: the workspace
    /// carries no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"instances\":{},\"total_energy\":{},\"deadline_misses\":{},\"max_makespan\":{}}}",
            self.instances,
            fmt_f64(self.total_energy),
            self.deadline_misses,
            fmt_f64(self.max_makespan)
        )
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} instances, avg energy {:.3}, {} misses ({:.2}%), max makespan {:.3}",
            self.instances,
            self.avg_energy(),
            self.deadline_misses,
            100.0 * self.miss_rate(),
            self.max_makespan
        )
    }
}

/// Per-stream arrival-to-completion latency distribution from the
/// event-driven serving engine.
///
/// Kept *separate* from [`StreamSummary`](crate::StreamSummary) so the
/// arrival-invariance contract — without admission control, summaries are
/// bit-equal under every arrival process — stays a plain `==` over
/// summaries: latencies move with arrivals, decisions do not. All quantities are virtual time (the same unit
/// as makespans and deadlines). Latency for instance *k* is
/// `completion_k − arrival_k`, which folds in any queueing delay behind
/// earlier instances of the same stream; in closed-loop mode it collapses
/// to the makespan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamLatency {
    /// Completed instances measured (equals the summary's instance count).
    pub count: usize,
    /// Latency sum, for pooled means.
    pub sum: f64,
    /// Largest observed latency.
    pub max: f64,
    /// Median latency (nearest-rank; 0 when empty).
    pub p50: f64,
    /// 99th-percentile latency (nearest-rank; 0 when empty).
    pub p99: f64,
    /// Instances whose latency exceeded the SLO (0 when no SLO is set).
    pub slo_misses: usize,
}

impl StreamLatency {
    /// Builds the distribution from raw per-instance latencies (consumed;
    /// sorting happens here). `slo` of `None` disables violation counting.
    pub fn from_latencies(mut latencies: Vec<f64>, slo: Option<f64>) -> Self {
        latencies.sort_by(f64::total_cmp);
        let count = latencies.len();
        let sum = latencies.iter().sum();
        let max = latencies.last().copied().unwrap_or(0.0);
        let slo_misses = match slo {
            Some(s) => latencies.iter().filter(|&&l| l > s).count(),
            None => 0,
        };
        StreamLatency {
            count,
            sum,
            max,
            p50: percentile_sorted(&latencies, 50.0),
            p99: percentile_sorted(&latencies, 99.0),
            slo_misses,
        }
    }

    /// Mean latency (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fraction of instances past the SLO, in `[0, 1]` (0 when empty).
    pub fn slo_miss_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.slo_misses as f64 / self.count as f64
        }
    }

    /// Renders the distribution as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"max\":{},\"p50\":{},\"p99\":{},\"slo_misses\":{}}}",
            self.count,
            fmt_f64(self.mean()),
            fmt_f64(self.max),
            fmt_f64(self.p50),
            fmt_f64(self.p99),
            self.slo_misses
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (`p` in
/// `[0, 100]`; 0 when empty). Deterministic: pure index arithmetic, no
/// interpolation, so pooled reports are bit-stable across runs.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// JSON-safe float formatting: finite values print exactly (shortest
/// round-trip `Display`), non-finite values become `null`.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(energy: f64, makespan: f64, met: bool) -> InstanceOutcome {
        InstanceOutcome {
            energy,
            exec_energy: energy,
            comm_energy: 0.0,
            makespan,
            deadline_met: met,
        }
    }

    #[test]
    fn absorbs_and_derives() {
        let mut s = ExecStats::default();
        assert_eq!(s.avg_energy(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        s.absorb_outcome(&outcome(2.0, 10.0, true));
        s.absorb_outcome(&outcome(4.0, 30.0, false));
        assert_eq!(s.instances, 2);
        assert_eq!(s.total_energy, 6.0);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.max_makespan, 30.0);
        assert!((s.avg_energy() - 3.0).abs() < 1e-12);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_and_display_render() {
        let mut s = ExecStats::default();
        s.absorb_outcome(&outcome(1.5, 12.0, true));
        let json = s.to_json();
        assert!(json.contains("\"instances\":1"));
        assert!(json.contains("\"total_energy\":1.5"));
        assert!(json.contains("\"deadline_misses\":0"));
        let shown = format!("{s}");
        assert!(shown.contains("1 instances"));
        assert!(shown.contains("max makespan 12.000"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn stream_latency_derives_and_counts_slo() {
        let lat = StreamLatency::from_latencies(vec![3.0, 1.0, 2.0, 10.0], Some(2.5));
        assert_eq!(lat.count, 4);
        assert_eq!(lat.max, 10.0);
        assert_eq!(lat.p50, 2.0);
        assert_eq!(lat.p99, 10.0);
        assert_eq!(lat.slo_misses, 2);
        assert!((lat.mean() - 4.0).abs() < 1e-12);
        assert!((lat.slo_miss_rate() - 0.5).abs() < 1e-12);
        let none = StreamLatency::from_latencies(vec![], None);
        assert_eq!(none, StreamLatency::default());
        assert!(none.to_json().contains("\"count\":0"));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let s = ExecStats {
            instances: 0,
            total_energy: f64::NAN,
            deadline_misses: 0,
            max_makespan: f64::INFINITY,
        };
        assert!(!s.to_json().contains("NaN"));
        assert!(!s.to_json().contains("inf"));
    }
}
