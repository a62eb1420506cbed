//! The traced run's span recorder and per-layer attribution.
//!
//! The benchmark wraps each call it makes into the library in a span of
//! its own (a *root*), named after the layer the call enters. While a
//! root is open the library's existing `ctg_obs` spans (solve, DLS
//! mapping, path enumeration, stretching, portfolio races, serve events)
//! record into an in-memory sink through the public `set_obs` /
//! `RunConfig::obs` handles; when the root closes they are drained and
//! nested under it by interval containment. Every span's self time (its
//! duration minus the time its child spans cover) is charged to its
//! layer, so the layers' self times add up to the roots' total, and the
//! rest of the traced wall time is reported as `unattributed_s`.
//!
//! Hot calls that touch no traced library span (an `observe` that only
//! profiles, an instance simulation) are kept as a count plus total time
//! rather than one span each.

use ctg_obs::{BufferedSink, Event, EventKind, Obs, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One of the benchmark's own spans.
struct Root {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Self time per layer of the library spans nested under this root.
    children: BTreeMap<&'static str, u64>,
}

/// Per-layer totals of one traced window.
#[derive(Default)]
pub struct Tracer {
    epoch: Option<Instant>,
    sink: Option<Arc<BufferedSink>>,
    obs: Obs,
    roots: Vec<Root>,
    /// Hot calls kept as (count, total ns) per span name.
    hot: BTreeMap<&'static str, (u64, u64)>,
    /// Self time per layer, in nanoseconds.
    busy: BTreeMap<&'static str, u64>,
    /// Library span counts per stage name and `arg` where the arg names
    /// an outcome (solve path, race winner).
    stage_counts: BTreeMap<String, u64>,
    /// Durations of portfolio races and of the DLS entry inside each.
    race_ns: Vec<u64>,
    race_dls_ns: Vec<u64>,
    /// Wall time covered by the traced sections.
    wall_ns: u64,
    /// Whether the latest hot call was kept as a root (it recorded
    /// library spans).
    last_hot_root: bool,
}

/// The layer a library span belongs to.
fn layer_of(stage: Stage) -> &'static str {
    match stage {
        Stage::Solve => "workspace",
        Stage::DlsMap => "dls",
        Stage::PathEnum => "sgraph",
        Stage::Stretch => "stretch",
        Stage::PortfolioRace => "scheduler",
        Stage::Dequeue | Stage::Tick => "serve",
        _ => "other",
    }
}

impl Tracer {
    /// An enabled tracer with a fresh in-memory sink.
    pub fn enabled() -> Self {
        let epoch = Instant::now();
        // One track is enough: every traced workload runs on one thread.
        let sink = Arc::new(BufferedSink::new(1));
        let obs = Obs::with_sink(sink.clone());
        Tracer {
            epoch: Some(epoch),
            sink: Some(sink),
            obs,
            ..Tracer::default()
        }
    }

    /// A tracer that records nothing (the untraced run).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// The telemetry handle to attach to the library (disabled when the
    /// tracer is).
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// Runs `f` as a section of traced wall time (a setup or a round).
    pub fn section<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = self.now_ns();
        let out = f(self);
        self.wall_ns += self.now_ns() - start;
        out
    }

    /// Runs `f` inside a root span named `name`; library spans recorded
    /// meanwhile nest under it.
    pub fn root<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.is_enabled() {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.close_root(name, start_ns, end_ns);
        out
    }

    /// Like [`Tracer::root`] for a hot call: kept as a count plus total
    /// time unless library spans were recorded during it.
    pub fn hot<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(sink) = self.sink.clone() else {
            return f();
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.last_hot_root = !ctg_obs::Sink::is_empty(&*sink);
        if !self.last_hot_root {
            let slot = self.hot.entry(name).or_default();
            slot.0 += 1;
            slot.1 += end_ns - start_ns;
            *self.busy.entry(layer_name(name)).or_default() += end_ns - start_ns;
        } else {
            self.close_root(name, start_ns, end_ns);
        }
        out
    }

    fn close_root(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let events = self
            .sink
            .as_ref()
            .map(|s| s.drain_sorted())
            .unwrap_or_default();
        let spans: Vec<Event> = events
            .into_iter()
            .filter(|e| e.kind == EventKind::Span)
            .collect();
        let (top_ns, children) = self.attribute(name, &spans);
        let own = (end_ns - start_ns).saturating_sub(top_ns);
        *self.busy.entry(layer_name(name)).or_default() += own;
        self.roots.push(Root {
            name,
            start_ns,
            end_ns,
            children,
        });
    }

    /// Nests `spans` (one thread, so properly nested intervals) by
    /// containment, charges each span's self time to its layer, and
    /// returns the time covered by the top-level spans plus the per-layer
    /// self times. Spans under a setup root stay with that root: the setup
    /// solve is reported whole, and the solver layers count the timed
    /// phase only.
    fn attribute(
        &mut self,
        root: &'static str,
        spans: &[Event],
    ) -> (u64, BTreeMap<&'static str, u64>) {
        let absorb = root.starts_with("setup.");
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].ts_ns, std::cmp::Reverse(spans[i].dur_ns)));
        let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &i in &order {
            let s = &spans[i];
            while let Some(&top) = stack.last() {
                let t = &spans[top];
                if s.ts_ns >= t.ts_ns && s.ts_ns + s.dur_ns <= t.ts_ns + t.dur_ns {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            stack.push(i);
        }
        let mut child_ns = vec![0u64; spans.len()];
        let mut top_ns = 0;
        for (i, p) in parent.iter().enumerate() {
            match p {
                Some(p) => child_ns[*p] += spans[i].dur_ns,
                None => top_ns += spans[i].dur_ns,
            }
        }
        let mut children: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = s.dur_ns.saturating_sub(child_ns[i]);
            let layer = if absorb {
                layer_name(root)
            } else {
                layer_of(s.stage)
            };
            *children.entry(layer).or_default() += own;
            *self.busy.entry(layer).or_default() += own;
            if absorb {
                continue;
            }
            *self
                .stage_counts
                .entry(s.stage.name().to_string())
                .or_default() += 1;
            if matches!(s.stage, Stage::Solve | Stage::PortfolioRace) {
                *self
                    .stage_counts
                    .entry(format!("{}.{}", s.stage.name(), s.arg))
                    .or_default() += 1;
            }
            if s.stage == Stage::PortfolioRace {
                self.race_ns.push(s.dur_ns);
            }
            if s.stage == Stage::Solve {
                if let Some(p) = parent[i] {
                    if spans[p].stage == Stage::PortfolioRace {
                        self.race_dls_ns.push(s.dur_ns);
                    }
                }
            }
        }
        (top_ns, children)
    }

    /// Whether the latest hot call recorded library spans of `layer`.
    pub fn last_root_has(&self, layer: &str) -> bool {
        self.last_hot_root
            && self
                .roots
                .last()
                .is_some_and(|r| r.children.contains_key(layer))
    }

    /// Library spans of `stage` (optionally with outcome `arg`) recorded
    /// outside setup.
    pub fn stage_count(&self, stage: Stage, arg: Option<i64>) -> u64 {
        let key = match arg {
            Some(a) => format!("{}.{a}", stage.name()),
            None => stage.name().to_string(),
        };
        self.stage_counts.get(&key).copied().unwrap_or(0)
    }

    /// Calls of a hot span name, whether kept as aggregate or as roots.
    pub fn calls(&self, name: &str) -> u64 {
        self.hot.get(name).map_or(0, |h| h.0)
            + self.roots.iter().filter(|r| r.name == name).count() as u64
    }

    /// Total time of the hot calls named `name` kept as aggregates.
    pub fn hot_s(&self, name: &str) -> f64 {
        self.hot.get(name).map_or(0.0, |h| h.1 as f64 / 1e9)
    }

    /// Self time charged to `layer`, in seconds.
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.busy.get(layer).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Self time summed over every layer, in seconds.
    pub fn attributed_s(&self) -> f64 {
        self.busy.values().sum::<u64>() as f64 / 1e9
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Mean portfolio race time over the mean time of its DLS entry.
    pub fn race_to_dls(&self) -> f64 {
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        let dls = mean(&self.race_dls_ns);
        if dls > 0.0 {
            mean(&self.race_ns) / dls
        } else {
            0.0
        }
    }

    /// The benchmark's own spans as JSON lines: roots with their start,
    /// end, parent (none: roots are top level) and the per-layer self
    /// times of the library spans under them, then the hot-call
    /// aggregates.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for r in &self.roots {
            let children: Vec<String> = r
                .children
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":null,\"child_self_ns\":{{{}}}}}",
                r.name,
                r.start_ns,
                r.end_ns,
                children.join(",")
            );
        }
        for (name, (count, ns)) in &self.hot {
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"name\":\"{name}\",\"count\":{count},\"total_ns\":{ns},\"parent\":null}}"
            );
        }
        out
    }
}

/// The layer a benchmark span name belongs to: its first dotted part,
/// except setup spans, which are layers of their own.
fn layer_name(name: &'static str) -> &'static str {
    if name.starts_with("setup.") {
        return name;
    }
    name.split('.').next().unwrap_or(name)
}
