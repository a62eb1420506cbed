//! Overload-resilience pins for the serving engine.
//!
//! Three contracts from DESIGN.md §14:
//!
//! 1. **Dormant knobs are free**: an infinite budget, an unreachable
//!    high-water mark and an untripped breaker leave every per-stream
//!    summary bit-for-bit identical to the baseline engine.
//! 2. **Overload decisions are deterministic**: with budgets, admission
//!    control and quarantine all engaged, per-stream summaries — every
//!    shed, abort and quarantine decision included — are invariant across
//!    worker counts, shard counts and cache modes.
//! 3. **Summaries round-trip through the hand-rolled JSON layer**:
//!    `to_json` output re-parsed with `ctg_obs::json` reproduces every
//!    serialized field, new overload counters included.
//!
//! Admission sheds by queue depth, so the overload fixtures replay every
//! stream with all its instances arriving at t = 0 ([`zero_gap`]): the
//! depth at each completion is then fixed by the trace alone.

use adaptive_dvfs::ctg::BranchProbs;
use adaptive_dvfs::obs::json;
use adaptive_dvfs::sched::test_util::example1_context;
use adaptive_dvfs::sched::{AdaptiveScheduler, OnlineScheduler, SchedContext, SolverWorkspace};
use adaptive_dvfs::sim::serve::{
    run_serve, AdmissionConfig, ArrivalConfig, ArrivalKind, CacheMode, QuarantineConfig,
    ServeConfig, StreamSpec, StreamSummary,
};
use adaptive_dvfs::sim::{BurstModel, DegradeConfig, FaultPlan, RunConfig, RunSummary, Runner};
use adaptive_dvfs::workloads::traces::{self, DriftProfile};

/// Drifting streams over a small seed pool, so same-seed streams drift
/// onto identical tables.
fn stream_specs(ctx: &SchedContext, streams: usize, len: usize, faults: bool) -> Vec<StreamSpec> {
    (0..streams)
        .map(|i| {
            let profile = DriftProfile::new(0x10AD + (i % 2) as u64);
            let trace = traces::generate_trace(ctx.ctg(), &profile, len);
            let initial =
                traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..len.min(16)]);
            StreamSpec {
                trace,
                initial_probs: initial,
                window: 6,
                threshold: 0.25,
                fault_plan: faults.then(|| FaultPlan::uniform(0xFA17 + i as u64, 0.03)),
                criticality: 0,
            }
        })
        .collect()
}

/// Queued arrivals above which a drift re-solve is shed. On a 48-instance
/// [`zero_gap`] replay, drift events of the first 31 instances are shed.
const HIGH_WATER: usize = 16;

/// Every instance of every stream arrives at t = 0: when instance `k`
/// completes, `len - 1 - k` arrivals wait behind it whatever the service
/// times, so each shed is a pure function of the trace.
fn zero_gap(specs: &[StreamSpec]) -> ArrivalConfig {
    ArrivalConfig {
        kind: ArrivalKind::Trace,
        traces: specs.iter().map(|s| vec![0.0; s.trace.len()]).collect(),
        ..ArrivalConfig::default()
    }
}

fn base_cfg(workers: usize, shards: usize, cache: CacheMode) -> ServeConfig {
    ServeConfig {
        workers,
        shards,
        cache,
        solve_budget: None,
        admission: None,
        quarantine: None,
        ..ServeConfig::default()
    }
}

/// Deterministic work-unit cost of solving `probs` cold — the calibration
/// point for budgets that must (or must not) trip.
fn probe_cost(ctx: &SchedContext, probs: &BranchProbs) -> u64 {
    let mut ws = SolverWorkspace::new();
    OnlineScheduler::new()
        .solve_with_workspace(ctx, probs, &mut ws)
        .expect("probe solve");
    ws.last_solve_cost().expect("probe solve recorded its cost")
}

fn assert_streams_eq(a: &[StreamSummary], b: &[StreamSummary], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: stream count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what}: stream {i} summary diverged");
        assert_eq!(
            x.exec.total_energy.to_bits(),
            y.exec.total_energy.to_bits(),
            "{what}: stream {i} energy bits"
        );
    }
}

/// Contract 1: enabling the overload layer with thresholds no run can
/// reach changes nothing — summaries equal the all-`None` baseline
/// bit-for-bit, on every cache mode.
#[test]
fn dormant_overload_knobs_are_bit_exact_with_baseline() {
    let (ctx, _, _) = example1_context();
    let specs = stream_specs(&ctx, 8, 48, true);
    for cache in [
        CacheMode::Off,
        CacheMode::Shared {
            capacity: 64,
            stripes: 4,
        },
    ] {
        let replay = ServeConfig {
            arrival: zero_gap(&specs),
            ..base_cfg(2, 4, cache)
        };
        let baseline = run_serve(&ctx, &specs, &replay).unwrap();
        let dormant = run_serve(
            &ctx,
            &specs,
            &ServeConfig {
                solve_budget: Some(u64::MAX),
                admission: Some(AdmissionConfig {
                    high_water: usize::MAX,
                }),
                quarantine: Some(QuarantineConfig::default()),
                ..replay.clone()
            },
        )
        .unwrap();
        assert_streams_eq(
            &dormant.streams,
            &baseline.streams,
            &format!("dormant knobs on {cache:?}"),
        );
        assert_eq!(dormant.stats.shed_requests, 0);
        assert_eq!(dormant.stats.budget_exceeded, 0);
        assert_eq!(dormant.stats.quarantines, 0);
        for s in &dormant.streams {
            assert_eq!(
                (
                    s.shed,
                    s.budget_exceeded,
                    s.quarantines,
                    s.quarantined_ticks
                ),
                (0, 0, 0, 0)
            );
        }
    }
}

/// Contract 1b (the budget-off pin): `solve_budget: Some(huge)` keeps the
/// baseline fast path bit-identical — engine counters included, not just
/// summaries (admission stays off, so phase A is the pre-overload code).
#[test]
fn infinite_budget_is_equivalent_to_no_budget() {
    let (ctx, _, _) = example1_context();
    let specs = stream_specs(&ctx, 6, 48, false);
    // The shared cache runs on one worker: with two, concurrent misses on
    // one table make its counters order-dependent.
    let shared = CacheMode::Shared {
        capacity: 64,
        stripes: 4,
    };
    for (workers, cache) in [(2, CacheMode::Off), (1, shared)] {
        let off = run_serve(&ctx, &specs, &base_cfg(workers, 3, cache)).unwrap();
        let huge = run_serve(
            &ctx,
            &specs,
            &ServeConfig {
                solve_budget: Some(u64::MAX),
                ..base_cfg(workers, 3, cache)
            },
        )
        .unwrap();
        assert_streams_eq(&huge.streams, &off.streams, "budget=MAX vs None");
        assert_eq!(huge.stats.drift_events, off.stats.drift_events);
        assert_eq!(
            huge.stats.shared_hit_requests,
            off.stats.shared_hit_requests
        );
        assert_eq!(huge.stats.requests, off.stats.requests);
        assert_eq!(huge.stats.groups, off.stats.groups);
        assert_eq!(huge.stats.solver_calls, off.stats.solver_calls);
        assert_eq!(huge.stats.budget_exceeded, 0);
    }
}

/// Contract 2: the full overload matrix. A tight budget plus a low
/// high-water mark plus a touchy breaker produce real shedding, aborts and
/// quarantines — and every one of those decisions is invariant across
/// workers, shards and cache modes.
#[test]
fn overload_decisions_invariant_across_engine_configurations() {
    let (ctx, _, _) = example1_context();
    let specs = stream_specs(&ctx, 8, 48, false);
    // Below the cheapest re-solve in this workload most requests abort;
    // half the typical cold cost is tight enough to strike reliably.
    let budget = probe_cost(&ctx, &specs[0].initial_probs) / 2;
    let overload = |workers: usize, shards: usize, cache: CacheMode| ServeConfig {
        solve_budget: Some(budget),
        admission: Some(AdmissionConfig {
            high_water: HIGH_WATER,
        }),
        quarantine: Some(QuarantineConfig {
            strikes: 2,
            window: 8,
            backoff: 4,
            backoff_max: 32,
        }),
        arrival: zero_gap(&specs),
        ..base_cfg(workers, shards, cache)
    };
    let reference = run_serve(&ctx, &specs, &overload(1, 1, CacheMode::Off)).unwrap();
    assert!(
        reference.stats.shed_requests > 0,
        "queues deeper than the high-water mark must shed: {:?}",
        reference.stats
    );
    assert!(
        reference.stats.budget_exceeded > 0,
        "a half-cost budget must abort solves: {:?}",
        reference.stats
    );
    assert!(
        reference.stats.quarantines > 0 && reference.stats.quarantined_ticks > 0,
        "repeated strikes must quarantine: {:?}",
        reference.stats
    );
    for cache in [
        CacheMode::Off,
        CacheMode::Shared {
            capacity: 64,
            stripes: 4,
        },
    ] {
        for &workers in &[1usize, 2, 4] {
            for &shards in &[1usize, 5, 16] {
                let report = run_serve(&ctx, &specs, &overload(workers, shards, cache)).unwrap();
                assert_streams_eq(
                    &report.streams,
                    &reference.streams,
                    &format!("overload cache={cache:?} workers={workers} shards={shards}"),
                );
                assert_eq!(report.stats.shed_requests, reference.stats.shed_requests);
                assert_eq!(
                    report.stats.budget_exceeded,
                    reference.stats.budget_exceeded
                );
                assert_eq!(report.stats.quarantines, reference.stats.quarantines);
                assert_eq!(
                    report.stats.quarantined_ticks,
                    reference.stats.quarantined_ticks
                );
            }
        }
    }
}

/// DESIGN.md §14 pin: fault-burst intensity moves *fault* pressure, not
/// *load*, where queue depth does not depend on service time. Burst
/// modulation multiplies fault rates only; the decision traces driving
/// drift, re-solve demand and budget verdicts are fixed by the drift
/// profiles, and on the [`zero_gap`] replay so is every queue depth. So
/// every overload counter — sheds, budget aborts, quarantines, frozen
/// instances — is byte-identical at any `p_enter`, while fault totals rise
/// with it. Under Poisson arrivals fault-lengthened service can deepen
/// queues, and sheds may move with it.
#[test]
fn burst_rate_moves_fault_pressure_but_not_overload_decisions() {
    let (ctx, _, _) = example1_context();
    let budget = probe_cost(&ctx, &stream_specs(&ctx, 1, 48, false)[0].initial_probs) / 2;
    let overloaded = ServeConfig {
        solve_budget: Some(budget),
        admission: Some(AdmissionConfig {
            high_water: HIGH_WATER,
        }),
        quarantine: Some(QuarantineConfig {
            strikes: 2,
            window: 8,
            backoff: 4,
            backoff_max: 32,
        }),
        arrival: zero_gap(&stream_specs(&ctx, 8, 48, false)),
        ..base_cfg(2, 4, CacheMode::Off)
    };
    let reports: Vec<_> = [0.0, 0.05, 0.2]
        .iter()
        .map(|&p_enter| {
            let mut specs = stream_specs(&ctx, 8, 48, true);
            if p_enter > 0.0 {
                for spec in &mut specs {
                    spec.fault_plan.as_mut().expect("faulty specs").burst = Some(BurstModel {
                        p_enter,
                        p_exit: 0.25,
                        rate_multiplier: 8.0,
                    });
                }
            }
            run_serve(&ctx, &specs, &overloaded).unwrap()
        })
        .collect();
    let base = &reports[0];
    assert!(
        base.stats.shed_requests > 0 && base.stats.budget_exceeded > 0,
        "fixture must actually overload: {:?}",
        base.stats
    );
    for (r, p_enter) in reports[1..].iter().zip([0.05, 0.2]) {
        let what = format!("burst p_enter={p_enter}");
        assert_eq!(r.stats.shed_requests, base.stats.shed_requests, "{what}");
        assert_eq!(
            r.stats.budget_exceeded, base.stats.budget_exceeded,
            "{what}"
        );
        assert_eq!(r.stats.quarantines, base.stats.quarantines, "{what}");
        assert_eq!(
            r.stats.quarantined_ticks, base.stats.quarantined_ticks,
            "{what}"
        );
        assert_eq!(r.stats.drift_events, base.stats.drift_events, "{what}");
        assert_eq!(r.stats.requests, base.stats.requests, "{what}");
        for (i, (x, y)) in r.streams.iter().zip(&base.streams).enumerate() {
            assert_eq!(x.reschedules, y.reschedules, "{what}: stream {i}");
            assert_eq!(
                (
                    x.shed,
                    x.budget_exceeded,
                    x.quarantines,
                    x.quarantined_ticks
                ),
                (
                    y.shed,
                    y.budget_exceeded,
                    y.quarantines,
                    y.quarantined_ticks
                ),
                "{what}: stream {i} overload counters"
            );
        }
    }
    let fault_totals: Vec<usize> = reports
        .iter()
        .map(|r| r.streams.iter().map(|s| s.faults.total()).sum())
        .collect();
    assert!(
        fault_totals[2] > fault_totals[1] && fault_totals[1] > fault_totals[0],
        "fault pressure must rise with burst intensity: {fault_totals:?}"
    );
}

/// The resilient adaptive runner absorbs budget aborts: the run completes,
/// the aborts are counted, the ladder escalates onto the guard band, and
/// the whole thing reproduces bit-for-bit.
#[test]
fn resilient_runner_absorbs_budget_aborts() {
    let (ctx, _, _) = example1_context();
    let profile = DriftProfile::new(0xB1D9E7);
    let trace = traces::generate_trace(ctx.ctg(), &profile, 96);
    let initial = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..16]);
    let run = || {
        let mgr = AdaptiveScheduler::new(&ctx, initial.clone(), 6, 0.25).unwrap();
        let (summary, _) = Runner::new(
            RunConfig::new()
                .degrade(DegradeConfig::default())
                .solve_budget(1),
        )
        .run_adaptive(&ctx, mgr, &trace)
        .unwrap();
        summary
    };
    let summary = run();
    assert!(
        summary.degrade.budget_exceeded > 0,
        "a one-unit budget must abort every re-solve: {:?}",
        summary.degrade
    );
    assert!(
        summary.degrade.guard_band_escalations > 0,
        "budget aborts must escalate onto the guard band: {:?}",
        summary.degrade
    );
    assert_eq!(summary.exec.instances, 96, "the run must complete");
    assert_eq!(run(), summary, "resilient budget runs must reproduce");
}

/// Contract 3a: `StreamSummary::to_json` round-trips through the
/// hand-rolled parser field-for-field, overload counters included.
#[test]
fn stream_summary_json_round_trips() {
    let (ctx, _, _) = example1_context();
    let specs = stream_specs(&ctx, 8, 48, true);
    let budget = probe_cost(&ctx, &specs[0].initial_probs) / 2;
    let report = run_serve(
        &ctx,
        &specs,
        &ServeConfig {
            solve_budget: Some(budget),
            admission: Some(AdmissionConfig {
                high_water: HIGH_WATER,
            }),
            quarantine: Some(QuarantineConfig {
                strikes: 2,
                window: 8,
                backoff: 4,
                backoff_max: 32,
            }),
            arrival: zero_gap(&specs),
            ..base_cfg(2, 4, CacheMode::Off)
        },
    )
    .unwrap();
    assert!(
        report.streams.iter().any(|s| s.shed > 0)
            && report.streams.iter().any(|s| s.budget_exceeded > 0),
        "round-trip fixture must exercise the overload counters"
    );
    for (i, s) in report.streams.iter().enumerate() {
        let v =
            json::parse(&s.to_json()).unwrap_or_else(|e| panic!("stream {i} JSON must parse: {e}"));
        let field = |k: &str| {
            v.get(k)
                .and_then(json::Value::as_f64)
                .unwrap_or_else(|| panic!("stream {i}: missing numeric field {k}"))
        };
        let exec = v.get("exec").expect("exec object");
        let exec_field = |k: &str| {
            exec.get(k)
                .and_then(json::Value::as_f64)
                .unwrap_or_else(|| panic!("stream {i}: missing exec field {k}"))
        };
        assert_eq!(exec_field("instances") as usize, s.exec.instances);
        assert_eq!(
            exec_field("total_energy").to_bits(),
            s.exec.total_energy.to_bits()
        );
        assert_eq!(
            exec_field("deadline_misses") as usize,
            s.exec.deadline_misses
        );
        assert_eq!(
            exec_field("max_makespan").to_bits(),
            s.exec.max_makespan.to_bits()
        );
        assert_eq!(field("reschedules") as usize, s.reschedules);
        assert_eq!(field("shed") as usize, s.shed);
        assert_eq!(field("budget_exceeded") as usize, s.budget_exceeded);
        assert_eq!(field("quarantines") as usize, s.quarantines);
        assert_eq!(field("quarantined_ticks") as usize, s.quarantined_ticks);
    }
}

/// Contract 3b: `RunSummary::to_json` round-trips every serialized field
/// through the same parser (wall-clock floats via exact shortest-display
/// round-trip).
#[test]
fn run_summary_json_round_trips() {
    let (ctx, _, _) = example1_context();
    let profile = DriftProfile::new(0x7E57);
    let trace = traces::generate_trace(ctx.ctg(), &profile, 64);
    let initial = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..16]);
    let mgr = AdaptiveScheduler::new(&ctx, initial, 6, 0.25).unwrap();
    let (summary, _): (RunSummary, _) = Runner::new(
        RunConfig::new()
            .degrade(DegradeConfig::default())
            .solve_budget(1),
    )
    .run_adaptive(&ctx, mgr, &trace)
    .unwrap();
    let v = json::parse(&summary.to_json()).expect("RunSummary JSON must parse");
    let field = |k: &str| {
        v.get(k)
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| panic!("missing numeric field {k}"))
    };
    let exec = v.get("exec").expect("exec object");
    assert_eq!(
        exec.get("instances").and_then(json::Value::as_f64).unwrap() as usize,
        summary.exec.instances
    );
    assert_eq!(
        exec.get("total_energy")
            .and_then(json::Value::as_f64)
            .unwrap()
            .to_bits(),
        summary.exec.total_energy.to_bits()
    );
    assert_eq!(field("calls") as usize, summary.calls);
    assert_eq!(field("reschedules") as usize, summary.reschedules);
    assert_eq!(field("cache_hits") as usize, summary.cache_hits);
    assert_eq!(field("cache_misses") as usize, summary.cache_misses);
    assert_eq!(field("wall_s").to_bits(), summary.wall_s.to_bits());
    assert_eq!(
        field("resched_wall_s").to_bits(),
        summary.resched_wall_s.to_bits()
    );
}
