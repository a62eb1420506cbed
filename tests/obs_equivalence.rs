//! Telemetry equivalence: enabling the obs layer must not change one
//! simulated bit.
//!
//! Every runner is exercised with the sink **off** (disabled handle),
//! **no-op** (enabled handle, events constructed and discarded — measures
//! that the act of recording does not perturb results) and **buffered**
//! (events retained), across worker counts, stream counts and fault
//! plans; summaries must be bit-for-bit identical in all three modes.
//! On top, the Chrome exporter's output is golden-checked: valid JSON
//! (via the crate's own strict parser), per-track monotone timestamps,
//! and the expected solve/cache/queue/fault span names present.

use adaptive_dvfs::obs::{chrome, json, BufferedSink, Event, NullSink, Obs};
use adaptive_dvfs::prelude::*;
use adaptive_dvfs::sched::test_util::example1_context;
use adaptive_dvfs::sim::FaultStats;
use adaptive_dvfs::workloads::traces::{self, DriftProfile};
use std::sync::Arc;

/// The three telemetry modes under test; the buffered sink is returned so
/// callers can inspect the trace.
fn modes() -> Vec<(&'static str, Obs, Option<Arc<BufferedSink>>)> {
    let buffered = Arc::new(BufferedSink::new(8));
    vec![
        ("off", Obs::disabled(), None),
        ("noop", Obs::with_sink(Arc::new(NullSink)), None),
        ("buffered", Obs::with_sink(buffered.clone()), Some(buffered)),
    ]
}

fn drift_trace(ctx: &SchedContext, seed: u64, len: usize) -> Vec<DecisionVector> {
    traces::generate_trace(ctx.ctg(), &DriftProfile::new(seed), len)
}

fn assert_run_bits_eq(a: &RunSummary, b: &RunSummary, what: &str) {
    assert_eq!(a, b, "{what}: summary diverged");
    assert_eq!(
        a.exec.total_energy.to_bits(),
        b.exec.total_energy.to_bits(),
        "{what}: energy bits"
    );
    assert_eq!(
        a.exec.max_makespan.to_bits(),
        b.exec.max_makespan.to_bits(),
        "{what}: makespan bits"
    );
}

#[test]
fn static_and_adaptive_runs_identical_across_sinks() {
    let (ctx, probs, _) = example1_context();
    let trace = drift_trace(&ctx, 0x0B5, 96);
    let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();

    for workers in [1usize, 4] {
        for plan in [None, Some(FaultPlan::uniform(0xFA11, 0.06))] {
            let mut reference: Option<RunSummary> = None;
            for (mode, obs, _) in modes() {
                let mut cfg = RunConfig::new().workers(workers).min_batch(0).obs(obs);
                if let Some(p) = &plan {
                    cfg = cfg.fault_plan(p.clone());
                }
                let s = Runner::new(cfg)
                    .run_static(&ctx, &solution, &trace)
                    .unwrap();
                let what = format!("static w={workers} faults={} {mode}", plan.is_some());
                match &reference {
                    None => reference = Some(s),
                    Some(r) => assert_run_bits_eq(&s, r, &what),
                }
            }
        }
    }

    // Adaptive (plain and resilient): the manager's schedule decisions must
    // not see the telemetry either — compare adopted-schedule-driven
    // energies bit for bit.
    for degrade in [None, Some(DegradeConfig::default())] {
        let mut reference: Option<RunSummary> = None;
        for (mode, obs, _) in modes() {
            let mut cfg = RunConfig::new().obs(obs);
            if let Some(d) = degrade {
                cfg = cfg
                    .degrade(d)
                    .fault_plan(FaultPlan::uniform(0xD15EA5E, 0.08));
            }
            let mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 8, 0.25).unwrap();
            let (s, mgr) = Runner::new(cfg).run_adaptive(&ctx, mgr, &trace).unwrap();
            let what = format!("adaptive resilient={} {mode}", degrade.is_some());
            match &reference {
                None => {
                    assert!(
                        s.reschedules > 0 || degrade.is_some(),
                        "{what}: drifting trace must reschedule"
                    );
                    reference = Some(s);
                }
                Some(r) => {
                    assert_run_bits_eq(&s, r, &what);
                    // The adopted schedule itself must match: probe one
                    // instance under the final solution.
                    let probe = simulate_instance(&ctx, mgr.solution(), &trace[0]).unwrap();
                    let probe_ref = {
                        let mgr2 = AdaptiveScheduler::new(&ctx, probs.clone(), 8, 0.25).unwrap();
                        let mut cfg2 = RunConfig::new();
                        if let Some(d) = degrade {
                            cfg2 = cfg2
                                .degrade(d)
                                .fault_plan(FaultPlan::uniform(0xD15EA5E, 0.08));
                        }
                        let (_, m) = Runner::new(cfg2).run_adaptive(&ctx, mgr2, &trace).unwrap();
                        simulate_instance(&ctx, m.solution(), &trace[0]).unwrap()
                    };
                    assert_eq!(
                        probe.energy.to_bits(),
                        probe_ref.energy.to_bits(),
                        "{what}: final adopted schedule diverged"
                    );
                }
            }
        }
    }
}

fn stream_specs(ctx: &SchedContext, streams: usize, len: usize, faults: bool) -> Vec<StreamSpec> {
    (0..streams)
        .map(|i| {
            let trace = drift_trace(ctx, 0x5EED + (i % 4) as u64, len);
            let initial =
                traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..len.min(16)]);
            StreamSpec {
                trace,
                initial_probs: initial,
                window: 6,
                threshold: 0.25,
                fault_plan: faults.then(|| FaultPlan::uniform(0xFA17 + i as u64, 0.05)),
                criticality: 0,
            }
        })
        .collect()
}

#[test]
fn serve_runs_identical_across_sinks_workers_streams_faults() {
    let (ctx, _, _) = example1_context();
    for &streams in &[1usize, 4, 16] {
        for &faults in &[false, true] {
            let specs = stream_specs(&ctx, streams, 40, faults);
            for &workers in &[1usize, 3] {
                let mut reference: Option<Vec<StreamSummary>> = None;
                for (mode, obs, _) in modes() {
                    let cfg = RunConfig::new()
                        .workers(workers)
                        .shards(streams.max(1))
                        .cache(CacheMode::Shared {
                            capacity: 64,
                            stripes: 4,
                        })
                        .obs(obs);
                    let report = Runner::new(cfg).serve(&ctx, &specs).unwrap();
                    let what =
                        format!("serve streams={streams} faults={faults} w={workers} {mode}");
                    match &reference {
                        None => reference = Some(report.streams),
                        Some(r) => {
                            assert_eq!(&report.streams, r, "{what}");
                            for (x, y) in report.streams.iter().zip(r) {
                                assert_eq!(
                                    x.exec.total_energy.to_bits(),
                                    y.exec.total_energy.to_bits(),
                                    "{what}: energy bits"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Collects a serve trace with telemetry on and golden-checks the Chrome
/// export plus the metrics snapshot.
#[test]
fn chrome_export_is_valid_and_tracks_are_monotone() {
    let (ctx, _, _) = example1_context();
    let specs = stream_specs(&ctx, 64, 48, true);
    let sink = Arc::new(BufferedSink::new(8));
    let obs = Obs::with_sink(sink.clone());
    let cfg = RunConfig::new()
        .workers(4)
        .shards(16)
        .cache(CacheMode::Shared {
            capacity: 64,
            stripes: 4,
        })
        .obs(obs.clone());
    let report = Runner::new(cfg).serve(&ctx, &specs).unwrap();
    assert!(report.stats.drift_events > 0, "{:?}", report.stats);

    let events: Vec<Event> = sink.drain_sorted();
    assert!(!events.is_empty(), "telemetry-on serve must record events");

    // Per-track timestamps are monotone in the drained order.
    for pair in events.windows(2) {
        if pair[0].track == pair[1].track {
            assert!(pair[0].ts_ns <= pair[1].ts_ns, "per-track monotonicity");
        }
    }

    let doc = chrome::render(&events);
    let parsed = json::parse(&doc).expect("chrome trace is valid JSON");
    let items = parsed
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    assert!(items.len() >= events.len(), "metadata + events");

    // The expected stages show up by name, and per-tid timestamps stay
    // monotone in the exported document too.
    let mut names: Vec<String> = Vec::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    for item in items {
        let ph = item.get("ph").and_then(json::Value::as_str).unwrap();
        if ph == "M" {
            continue;
        }
        names.push(
            item.get("name")
                .and_then(json::Value::as_str)
                .unwrap()
                .to_string(),
        );
        let tid = item.get("tid").and_then(json::Value::as_f64).unwrap() as u64;
        let ts = item.get("ts").and_then(json::Value::as_f64).unwrap();
        if let Some(prev) = last_ts.insert(tid, ts) {
            assert!(ts >= prev, "exported track {tid} timestamps regressed");
        }
    }
    // The engine is event-driven: every instance is enqueued and dequeued.
    for expected in ["solve", "enqueue", "dequeue", "fault_inject"] {
        assert!(
            names.iter().any(|n| n == expected),
            "trace must contain {expected:?} events; saw {:?}",
            {
                let mut u = names.clone();
                u.sort();
                u.dedup();
                u
            }
        );
    }
    // Cache verdicts fire on drifting same-seed streams.
    assert!(
        names.iter().any(|n| n == "cache_hit") || names.iter().any(|n| n == "cache_miss"),
        "trace must show cross-stream amortization events"
    );

    // Metrics agree with the report on the deterministic quantities.
    let snap = obs.metrics_snapshot().unwrap();
    assert_eq!(
        snap.counter("instances") as usize,
        report.stats.instances,
        "instance counter matches engine accounting"
    );
    assert_eq!(
        snap.counter("cache_hits") as usize,
        report.stats.shared_hit_requests
    );
    assert_eq!(
        snap.counter("cache_misses") as usize,
        report.stats.solver_calls
    );
    assert!(snap.counter("solver_calls") > 0);
    assert!(snap.counter("faults_injected") > 0);
}

/// A fault-free served stream still matches `Runner::run_adaptive` with
/// telemetry enabled on both sides.
#[test]
fn telemetry_on_serve_matches_telemetry_on_adaptive() {
    let (ctx, _, _) = example1_context();
    let trace = drift_trace(&ctx, 0xCAFE, 64);
    let initial = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..16]);

    let mgr = AdaptiveScheduler::new(&ctx, initial.clone(), 6, 0.25).unwrap();
    let obs_a = Obs::with_sink(Arc::new(BufferedSink::new(2)));
    let (baseline, _) = Runner::new(RunConfig::new().obs(obs_a))
        .run_adaptive(&ctx, mgr, &trace)
        .unwrap();

    let spec = StreamSpec {
        trace,
        initial_probs: initial,
        window: 6,
        threshold: 0.25,
        fault_plan: None,
        criticality: 0,
    };
    let obs_b = Obs::with_sink(Arc::new(BufferedSink::new(2)));
    let report = Runner::new(RunConfig::new().workers(2).shards(2).obs(obs_b))
        .serve(&ctx, std::slice::from_ref(&spec))
        .unwrap();
    let s = &report.streams[0];
    assert_eq!(s.exec.instances, baseline.exec.instances);
    assert_eq!(
        s.exec.total_energy.to_bits(),
        baseline.exec.total_energy.to_bits()
    );
    assert_eq!(s.reschedules, baseline.reschedules);
    assert_eq!(s.faults, FaultStats::default());
}
