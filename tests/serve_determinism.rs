//! Serving-engine determinism matrix: per-stream summaries must be
//! bit-for-bit identical for every (worker count, shard count, cache mode)
//! choice, with and without fault injection — and every served stream
//! must reproduce that stream run alone, through `Runner::run_adaptive` or
//! a plain `AdaptiveScheduler::observe` loop.
//!
//! The reference point of every matrix is the most sequential engine
//! (1 worker, 1 shard, no cache); everything else must merely be
//! *faster*, never *different*.

use adaptive_dvfs::ctg::{BranchProbs, DecisionVector};
use adaptive_dvfs::sched::test_util::example1_context;
use adaptive_dvfs::sched::{dls_schedule, AdaptiveScheduler, SchedContext};
use adaptive_dvfs::sim::serve::{
    run_serve, ArrivalConfig, ArrivalKind, CacheMode, ServeConfig, StreamSpec, StreamSummary,
};
use adaptive_dvfs::sim::{
    ExecStats, FaultInjector, FaultLog, FaultPlan, FaultStats, Runner, SimWorkspace,
};
use adaptive_dvfs::workloads::mpeg;
use adaptive_dvfs::workloads::traces::{self, DriftProfile};

/// Per-stream drifting traces: a handful of distinct drift seeds reused
/// across streams, so same-seed streams drift onto identical tables and
/// the shared cache has real cross-stream replay opportunities (the
/// serving scenario: many sessions playing the same few movies).
fn stream_specs(
    ctx: &SchedContext,
    streams: usize,
    len: usize,
    window: usize,
    threshold: f64,
    faults: bool,
) -> Vec<StreamSpec> {
    (0..streams)
        .map(|i| {
            let profile = DriftProfile::new(0xA5EED + (i % 8) as u64);
            let trace = traces::generate_trace(ctx.ctg(), &profile, len);
            let initial =
                traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..len.min(24)]);
            StreamSpec {
                trace,
                initial_probs: initial,
                window,
                threshold,
                // Faulty streams get stream-unique fault seeds: determinism
                // must come from the engine, not from identical inputs.
                fault_plan: faults.then(|| FaultPlan::uniform(0xFA17 + i as u64, 0.04)),
                criticality: 0,
            }
        })
        .collect()
}

fn assert_summaries_eq(a: &[StreamSummary], b: &[StreamSummary], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: stream count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what}: stream {i} summary diverged");
        // PartialEq on f64 fields compares values; pin the bits too.
        assert_eq!(
            x.exec.total_energy.to_bits(),
            y.exec.total_energy.to_bits(),
            "{what}: stream {i} energy bits"
        );
        assert_eq!(
            x.exec.max_makespan.to_bits(),
            y.exec.max_makespan.to_bits(),
            "{what}: stream {i} makespan bits"
        );
    }
}

/// The full matrix on the (fast) example graph:
/// (1, 2, 4) workers × (1, 4, 64) streams × faults on/off × cache
/// off/shared × shard counts — all against the sequential reference.
#[test]
fn summaries_invariant_across_workers_streams_faults_and_caches() {
    let (ctx, _, _) = example1_context();
    for &streams in &[1usize, 4, 64] {
        for &faults in &[false, true] {
            let specs = stream_specs(&ctx, streams, 48, 6, 0.25, faults);
            let reference = run_serve(
                &ctx,
                &specs,
                &ServeConfig {
                    workers: 1,
                    shards: 1,
                    cache: CacheMode::Off,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            assert_eq!(reference.streams.len(), streams);
            assert!(
                reference.streams.iter().all(|s| s.exec.instances == 48),
                "every stream must finish its trace"
            );
            for cache in [
                CacheMode::Off,
                CacheMode::Shared {
                    capacity: 128,
                    stripes: 4,
                },
            ] {
                for &workers in &[1usize, 2, 4] {
                    for &shards in &[1usize, 5, 64] {
                        let report = run_serve(
                            &ctx,
                            &specs,
                            &ServeConfig {
                                workers,
                                shards,
                                cache,
                                ..ServeConfig::default()
                            },
                        )
                        .unwrap();
                        assert_summaries_eq(
                            &report.streams,
                            &reference.streams,
                            &format!(
                                "streams={streams} faults={faults} \
                                 cache={cache:?} workers={workers} shards={shards}"
                            ),
                        );
                        // Drift detection is per-stream state, so the event
                        // count is engine-invariant too.
                        assert_eq!(report.stats.drift_events, reference.stats.drift_events);
                    }
                }
            }
        }
    }
}

fn mpeg_context() -> SchedContext {
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let probs = BranchProbs::uniform(ctx.ctg());
    let makespan = dls_schedule(&ctx, &probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

/// MPEG spot check: the engine behaves on the paper's real workload like it
/// does on the toy graph, and the shared cache actually fires there.
#[test]
fn mpeg_streams_invariant_and_shared_cache_fires() {
    let ctx = mpeg_context();
    let specs = stream_specs(&ctx, 8, 90, 10, 0.2, false);
    let reference = run_serve(
        &ctx,
        &specs,
        &ServeConfig {
            workers: 1,
            shards: 1,
            cache: CacheMode::Off,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert!(
        reference.stats.drift_events > 0,
        "the MPEG drift trace must trigger reschedules: {:?}",
        reference.stats
    );
    let shared = run_serve(
        &ctx,
        &specs,
        &ServeConfig {
            workers: 4,
            shards: 8,
            cache: CacheMode::Shared {
                capacity: 256,
                stripes: 8,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_summaries_eq(&shared.streams, &reference.streams, "mpeg shared 4w");
    assert!(
        shared.stats.shared_hit_requests > 0,
        "seed-sharing MPEG streams must amortize solves: {:?}",
        shared.stats
    );
    assert!(
        shared.stats.solver_calls < reference.stats.solver_calls,
        "sharing must save solver calls ({} vs {})",
        shared.stats.solver_calls,
        reference.stats.solver_calls
    );
}

/// A single fault-free served stream is the adaptive runner, field for
/// field: the engine only re-plumbs *where* solves happen, never *what* is
/// adopted.
#[test]
fn single_stream_serve_matches_run_adaptive() {
    let ctx = mpeg_context();
    let profile = DriftProfile::new(0xC0FFEE);
    let trace: Vec<DecisionVector> = traces::generate_trace(ctx.ctg(), &profile, 120);
    let initial = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..30]);

    let mgr = AdaptiveScheduler::new(&ctx, initial.clone(), 10, 0.2).unwrap();
    let (baseline, _) = Runner::default().run_adaptive(&ctx, mgr, &trace).unwrap();

    let spec = StreamSpec {
        trace,
        initial_probs: initial,
        window: 10,
        threshold: 0.2,
        fault_plan: None,
        criticality: 0,
    };
    for workers in [1usize, 3] {
        let report = run_serve(
            &ctx,
            std::slice::from_ref(&spec),
            &ServeConfig {
                workers,
                shards: 2,
                cache: CacheMode::Shared {
                    capacity: 64,
                    stripes: 2,
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let s = &report.streams[0];
        assert_eq!(s.exec.instances, baseline.exec.instances);
        assert_eq!(s.exec.deadline_misses, baseline.exec.deadline_misses);
        assert_eq!(s.reschedules, baseline.reschedules);
        assert_eq!(
            s.exec.total_energy.to_bits(),
            baseline.exec.total_energy.to_bits()
        );
        assert_eq!(
            s.exec.max_makespan.to_bits(),
            baseline.exec.max_makespan.to_bits()
        );
        assert_eq!(s.faults, adaptive_dvfs::sim::FaultStats::default());
    }
}

/// One stream run alone the plain way: an `AdaptiveScheduler::observe`
/// loop over its own simulation workspace and fault injector — no engine,
/// no cache, no queue. Returns the stream's execution totals, adopted
/// reschedules and injected faults.
fn plain_stream(ctx: &SchedContext, spec: &StreamSpec) -> (ExecStats, usize, usize) {
    let mut mgr =
        AdaptiveScheduler::new(ctx, spec.initial_probs.clone(), spec.window, spec.threshold)
            .unwrap();
    let mut sim = SimWorkspace::new(ctx, mgr.solution());
    let mut injector = FaultInjector::empty(ctx);
    let mut log = FaultLog::default();
    let mut exec = ExecStats::default();
    let mut faults = FaultStats::default();
    for (i, v) in spec.trace.iter().enumerate() {
        let outcome = match &spec.fault_plan {
            Some(plan) => {
                injector.resample(plan, ctx, i as u64).unwrap();
                let r = sim
                    .simulate_faulty(ctx, mgr.solution(), v, &injector, &mut log)
                    .unwrap();
                faults.absorb(&log.stats);
                r
            }
            None => sim.simulate(ctx, mgr.solution(), v).unwrap(),
        };
        exec.absorb_outcome(&outcome);
        if mgr.observe(ctx, v).unwrap() {
            sim.rebuild(ctx, mgr.solution());
        }
    }
    (exec, mgr.stats().reschedules, faults.total())
}

/// The per-stream reference pin: streams are independent copies of the
/// paper's adaptive manager, so every served stream — whatever the
/// arrival process, cache and worker count — equals the same stream run
/// alone through [`plain_stream`].
#[test]
fn every_served_stream_matches_a_plain_per_stream_loop() {
    let (ctx, _, _) = example1_context();
    let deadline = ctx.ctg().deadline();
    for faults in [false, true] {
        let specs = stream_specs(&ctx, 8, 48, 6, 0.25, faults);
        let plain: Vec<_> = specs.iter().map(|s| plain_stream(&ctx, s)).collect();
        assert!(plain.iter().any(|(_, r, _)| *r > 0), "fixture must drift");
        assert_eq!(plain.iter().any(|(_, _, f)| *f > 0), faults);
        for kind in [
            ArrivalKind::ClosedLoop,
            ArrivalKind::Poisson {
                rate: 2.0 / deadline,
            },
        ] {
            for cache in [
                CacheMode::Off,
                CacheMode::Shared {
                    capacity: 128,
                    stripes: 4,
                },
            ] {
                for workers in [1usize, 3] {
                    let report = run_serve(
                        &ctx,
                        &specs,
                        &ServeConfig {
                            workers,
                            shards: 8,
                            cache,
                            arrival: ArrivalConfig {
                                kind,
                                ..ArrivalConfig::default()
                            },
                            ..ServeConfig::default()
                        },
                    )
                    .unwrap();
                    for (i, (s, (exec, reschedules, fault_total))) in
                        report.streams.iter().zip(&plain).enumerate()
                    {
                        let what = format!(
                            "faults={faults} {kind:?} cache={cache:?} workers={workers} \
                             stream {i}"
                        );
                        assert_eq!(
                            s.exec.total_energy.to_bits(),
                            exec.total_energy.to_bits(),
                            "{what}: energy bits"
                        );
                        assert_eq!(
                            s.exec.max_makespan.to_bits(),
                            exec.max_makespan.to_bits(),
                            "{what}: makespan bits"
                        );
                        assert_eq!(
                            s.exec.deadline_misses, exec.deadline_misses,
                            "{what}: misses"
                        );
                        assert_eq!(s.reschedules, *reschedules, "{what}: reschedules");
                        assert_eq!(s.faults.total(), *fault_total, "{what}: faults");
                    }
                }
            }
        }
    }
}
