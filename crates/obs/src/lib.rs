//! `ctg_obs` — structured telemetry for the adaptive-dvfs stack.
//!
//! A zero-overhead-when-disabled tracing + metrics layer: the solver,
//! adaptive manager, fault plumbing and serving engine all carry an
//! [`Obs`] handle and record span/instant [`Event`]s for their hot stages
//! (DLS mapping, path enumeration, stretching, cache hits, drift
//! detection, event-queue work, fault injection, ladder transitions)
//! plus counters and fixed-bucket histograms into a [`Metrics`] registry.
//!
//! * **Disabled is free.** A disabled handle ([`Obs::disabled`], the
//!   default) is a `None` — every recording call is an inlined
//!   branch-and-return; no clock is read, no event is built, nothing
//!   allocates.
//! * **Enabled never changes results.** Recording only *reads* the
//!   simulation state; timing lives in events and histograms, never in
//!   summaries. `tests/obs_equivalence.rs` pins bit-identical summaries
//!   and adopted schedules with the sink off, no-op and buffered.
//! * **Deterministic merge.** The [`BufferedSink`] is lock-striped by
//!   track and ordered-merged at drain, the same discipline as
//!   `ctg_sim::pool` — the event sequence per track is a pure function of
//!   the run.
//!
//! Exporters: [`chrome`] renders `chrome://tracing` / Perfetto JSON,
//! [`jsonl`] renders JSON-lines, and [`json`] is a minimal parser used to
//! validate both in tests and CI.
//!
//! # Example
//!
//! ```
//! use ctg_obs::{chrome, BufferedSink, Counter, Obs, Stage};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(BufferedSink::new(4));
//! let obs = Obs::with_sink(sink.clone());
//!
//! let span = obs.span(0, Stage::Solve);
//! // ... do the work being traced ...
//! obs.count(Counter::SolverCalls, 1);
//! span.end(1);
//! obs.instant(0, Stage::CacheMiss, 0);
//!
//! let events = sink.drain_sorted();
//! assert_eq!(events.len(), 2);
//! let trace = chrome::render(&events);
//! ctg_obs::json::parse(&trace).expect("exported trace is valid JSON");
//! assert_eq!(obs.metrics_snapshot().unwrap().counter("solver_calls"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod event;
pub mod json;
pub mod jsonl;
mod metrics;
mod sink;

pub use event::{Event, EventKind, Stage};
pub use metrics::{Counter, Hist, HistSnapshot, Metrics, MetricsSnapshot, COUNTERS, HISTS};
pub use sink::{BufferedSink, NullSink, Sink};

use std::sync::Arc;
use std::time::Instant;

/// The shared state behind an enabled handle.
struct ObsInner {
    sink: Arc<dyn Sink>,
    metrics: Metrics,
    epoch: Instant,
}

impl std::fmt::Debug for ObsInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsInner")
            .field("retained_events", &self.sink.len())
            .finish()
    }
}

/// The telemetry handle threaded through the stack.
///
/// Cheap to clone (an `Option<Arc>`), cheap to store, and free when
/// disabled. Components receive one via their `set_obs`-style setters and
/// record against a caller-chosen *track* (worker id, stream id, …);
/// events from one track must be recorded by one thread at a time — the
/// merge discipline the buffered sink's determinism rests on.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The disabled handle: every recording call returns immediately.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled handle recording into `sink`, with a fresh metrics
    /// registry and the epoch set to now.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                sink,
                metrics: Metrics::new(),
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether recording is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn now_ns(inner: &ObsInner) -> u64 {
        inner.epoch.elapsed().as_nanos() as u64
    }

    /// Records a point event (free when disabled).
    #[inline]
    pub fn instant(&self, track: u32, stage: Stage, arg: i64) {
        let Some(inner) = &self.inner else { return };
        inner.sink.record(Event {
            track,
            stage,
            kind: EventKind::Instant,
            ts_ns: Self::now_ns(inner),
            dur_ns: 0,
            arg,
        });
    }

    /// Opens a span; the returned guard records a completed interval when
    /// [`SpanGuard::end`] is called (or on drop, with `arg` 0). Free when
    /// disabled — no clock is read.
    #[inline]
    pub fn span(&self, track: u32, stage: Stage) -> SpanGuard<'_> {
        let start_ns = match &self.inner {
            Some(inner) => Self::now_ns(inner),
            None => 0,
        };
        SpanGuard {
            obs: self,
            track,
            stage,
            start_ns,
            armed: self.inner.is_some(),
        }
    }

    /// Adds `n` to a metrics counter (free when disabled).
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(counter, n);
        }
    }

    /// Records `value` into a metrics histogram (free when disabled).
    #[inline]
    pub fn observe(&self, hist: Hist, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(hist, value);
        }
    }

    /// Freezes the metrics registry (`None` when disabled).
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }
}

/// An open span: holds the start timestamp until the work completes.
///
/// Dropping the guard records the span with `arg` 0; call
/// [`SpanGuard::end`] to attach a stage-specific argument and get the
/// measured duration back (for feeding a latency histogram).
#[must_use = "a span records when ended or dropped; binding to _ ends it immediately"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    track: u32,
    stage: Stage,
    start_ns: u64,
    armed: bool,
}

impl SpanGuard<'_> {
    /// Closes the span with `arg`, returning its duration in nanoseconds
    /// (0 when telemetry is disabled).
    pub fn end(mut self, arg: i64) -> u64 {
        self.finish(arg)
    }

    fn finish(&mut self, arg: i64) -> u64 {
        if !self.armed {
            return 0;
        }
        self.armed = false;
        let inner = self
            .obs
            .inner
            .as_ref()
            .expect("armed span implies enabled handle");
        let now = Obs::now_ns(inner);
        let dur_ns = now.saturating_sub(self.start_ns);
        inner.sink.record(Event {
            track: self.track,
            stage: self.stage,
            kind: EventKind::Span,
            ts_ns: self.start_ns,
            dur_ns,
            arg,
        });
        dur_ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.finish(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.instant(0, Stage::Tick, 1);
        obs.count(Counter::Instances, 5);
        obs.observe(Hist::SolveUs, 1.0);
        assert_eq!(obs.span(0, Stage::Solve).end(1), 0);
        assert!(obs.metrics_snapshot().is_none());
    }

    #[test]
    fn spans_and_instants_reach_the_sink() {
        let sink = Arc::new(BufferedSink::new(2));
        let obs = Obs::with_sink(sink.clone());
        let span = obs.span(3, Stage::Stretch);
        obs.instant(3, Stage::CacheHit, 7);
        span.end(2);
        let events = sink.drain_sorted();
        assert_eq!(events.len(), 2);
        let span_ev = events
            .iter()
            .find(|e| e.kind == EventKind::Span)
            .expect("span recorded");
        assert_eq!(span_ev.stage, Stage::Stretch);
        assert_eq!(span_ev.arg, 2);
        let instant_ev = events
            .iter()
            .find(|e| e.kind == EventKind::Instant)
            .expect("instant recorded");
        assert_eq!(instant_ev.arg, 7);
        // The span started before the instant fired.
        assert!(span_ev.ts_ns <= instant_ev.ts_ns);
    }

    #[test]
    fn dropped_span_records_with_zero_arg() {
        let sink = Arc::new(BufferedSink::new(1));
        let obs = Obs::with_sink(sink.clone());
        {
            let _span = obs.span(0, Stage::DlsMap);
        }
        let events = sink.drain_sorted();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].arg, 0);
        assert_eq!(events[0].kind, EventKind::Span);
    }

    #[test]
    fn clones_share_sink_and_metrics() {
        let sink = Arc::new(BufferedSink::new(1));
        let obs = Obs::with_sink(sink.clone());
        let clone = obs.clone();
        clone.count(Counter::DriftEvents, 2);
        obs.count(Counter::DriftEvents, 1);
        assert_eq!(obs.metrics_snapshot().unwrap().counter("drift_events"), 3);
        clone.instant(1, Stage::Adopt, 0);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn null_sink_keeps_metrics() {
        let obs = Obs::with_sink(Arc::new(NullSink));
        obs.instant(0, Stage::Tick, 0);
        obs.count(Counter::Instances, 1);
        let snap = obs.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("instances"), 1);
    }
}
