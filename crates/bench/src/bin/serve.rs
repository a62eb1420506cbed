//! Serving bench — the multi-stream engine (`ctg_sim::serve`) against
//! independent per-stream `AdaptiveScheduler`s on the MPEG drift workload,
//! at 1/8/64/256 streams (perf extension; not a paper table).
//!
//! The stream population models a decoder farm: a pool of 8 distinct
//! drift "movies", each watched by several sessions at different playback
//! offsets. Sessions that start a movie together drift onto identical
//! tables at the same instant; offset sessions revisit each other's
//! probability regimes a few hundred instances apart. The *cross-stream
//! shared cache* serves both (an isolated per-manager cache cannot serve
//! either — the regime is new to that session's own history).
//!
//! Reported per stream count: aggregate instances/s and reschedules/s,
//! isolated (the independent managers' own caches) vs shared cache hit
//! rates, and the speedup over the independent-manager baseline.
//! Determinism is asserted, not sampled: per-stream summaries must be
//! bit-identical across worker counts, shard counts and cache modes. Pass
//! `--smoke` for a seconds-scale run (CI); numbers land in
//! `BENCH_serve.json`, or in `target/BENCH_serve_smoke.json` for smoke
//! runs so CI never clobbers the full-run artifact.
//!
//! Three more rows ride along: a *scale* row drives 10k (smoke) / 100k
//! (full) short-trace streams under Poisson arrivals with a latency SLO,
//! reporting latency percentiles and the SLO-violation rate; an
//! *overload* sweep runs budgets, queue-depth admission and quarantine
//! under rising fault bursts; a *portfolio* row races schedulers on every
//! drift event.

use ctg_bench::setup::{prepare_mpeg, profile_trace};
use ctg_model::DecisionVector;
use ctg_obs::{chrome, json, BufferedSink, Event, EventKind, Obs};
use ctg_sched::{
    AdaptiveScheduler, OnlineScheduler, SchedulerKind, SolverWorkspace, DEFAULT_PORTFOLIO,
};
use ctg_sim::serve::{
    run_serve, AdmissionConfig, ArrivalConfig, ArrivalKind, CacheMode, QuarantineConfig,
    ServeConfig, ServeReport, StreamSpec,
};
use ctg_sim::{map_ordered, BurstModel, FaultPlan, RunConfig, Runner};
use ctg_workloads::traces::{self, DriftProfile};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const WINDOW: usize = 20;
const THRESHOLD: f64 = 0.1;
const SEED_POOL: usize = 8;
const BASE_SEED: u64 = 0x05EE_D00D;
const PER_STREAM_CAPACITY: usize = 64;
const SHARED_CAPACITY: usize = 4096;
const SHARED_STRIPES: usize = 16;

fn rotated(base: &[DecisionVector], offset: usize) -> Vec<DecisionVector> {
    let mut t = Vec::with_capacity(base.len());
    t.extend_from_slice(&base[offset..]);
    t.extend_from_slice(&base[..offset]);
    t
}

/// `streams` sessions over a pool of [`SEED_POOL`] drift movies; session
/// `i` plays movie `i % SEED_POOL` at one of two playback offsets. Beyond
/// 16 streams the population therefore contains *duplicate* sessions
/// (several viewers hit play on the same movie at the same moment) and
/// *lagged* sessions 37 instances apart. Either way the shared cache
/// answers the follower: the leader inserts each regime's plan, the
/// follower replays it.
fn stream_specs(
    ctx: &ctg_sched::SchedContext,
    streams: usize,
    trace_len: usize,
) -> Vec<StreamSpec> {
    let movies: Vec<Vec<DecisionVector>> = (0..SEED_POOL)
        .map(|m| {
            traces::generate_trace(
                ctx.ctg(),
                &DriftProfile::new(BASE_SEED + m as u64),
                trace_len,
            )
        })
        .collect();
    (0..streams)
        .map(|i| {
            let base = &movies[i % SEED_POOL];
            let offset = ((i / SEED_POOL) % 2) * 37 % trace_len;
            let trace = rotated(base, offset);
            let initial = profile_trace(ctx, &trace[..trace_len.min(40)]);
            StreamSpec {
                trace,
                initial_probs: initial,
                window: WINDOW,
                threshold: THRESHOLD,
                fault_plan: None,
                criticality: 0,
            }
        })
        .collect()
}

fn serve_cfg(workers: usize, shards: usize, cache: CacheMode) -> ServeConfig {
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

struct Baseline {
    reschedules: usize,
    /// Drift events answered by the managers' own caches.
    cache_hits: usize,
    wall_s: f64,
}

/// The pre-serve architecture: one independent `AdaptiveScheduler` (with
/// its own PR 2 schedule cache) per stream, run over the worker pool.
/// Nothing is shared.
fn run_independent(
    ctx: &ctg_sched::SchedContext,
    specs: &[StreamSpec],
    workers: usize,
) -> Baseline {
    let start = Instant::now();
    let summaries = map_ordered(specs, workers, |_, spec| {
        let mut mgr =
            AdaptiveScheduler::new(ctx, spec.initial_probs.clone(), spec.window, spec.threshold)
                .expect("manager builds");
        mgr.enable_cache(PER_STREAM_CAPACITY);
        let (summary, _) = Runner::default()
            .run_adaptive(ctx, mgr, &spec.trace)
            .expect("adaptive run");
        summary
    });
    Baseline {
        reschedules: summaries.iter().map(|s| s.reschedules).sum(),
        cache_hits: summaries.iter().map(|s| s.cache_hits).sum(),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn assert_same_streams(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_eq!(a.streams.len(), b.streams.len(), "{what}: stream count");
    for (i, (x, y)) in a.streams.iter().zip(&b.streams).enumerate() {
        assert_eq!(x, y, "{what}: stream {i} summary diverged");
        assert_eq!(
            x.exec.total_energy.to_bits(),
            y.exec.total_energy.to_bits(),
            "{what}: stream {i} energy bits"
        );
    }
}

/// Per-stage aggregate over one telemetry-on run: span count + total busy
/// time, plus instant count (stages like `cache_hit` are instants only).
#[derive(Default, Clone, Copy)]
struct StageAgg {
    spans: usize,
    span_us: f64,
    instants: usize,
}

fn aggregate_stages(events: &[Event]) -> BTreeMap<&'static str, StageAgg> {
    let mut agg: BTreeMap<&'static str, StageAgg> = BTreeMap::new();
    for e in events {
        let entry = agg.entry(e.stage.name()).or_default();
        match e.kind {
            EventKind::Span => {
                entry.spans += 1;
                entry.span_us += e.dur_ns as f64 / 1_000.0;
            }
            EventKind::Instant => entry.instants += 1,
        }
    }
    agg
}

fn stages_json(agg: &BTreeMap<&'static str, StageAgg>) -> String {
    let fields: Vec<String> = agg
        .iter()
        .map(|(name, a)| {
            format!(
                "{{\"stage\": \"{name}\", \"spans\": {}, \"span_us\": {:.1}, \
                 \"instants\": {}}}",
                a.spans, a.span_us, a.instants
            )
        })
        .collect();
    format!("[{}]", fields.join(", "))
}

/// One point of the overload sweep: the engine under a Gilbert–Elliott
/// fault storm with budgets, admission control and quarantine active.
struct OverloadRow {
    p_enter: f64,
    shed_requests: usize,
    shed_rate: f64,
    quarantines: usize,
    quarantined_ticks: usize,
    budget_exceeded: usize,
    miss_rate: f64,
}

/// The sweep population: the drift-movie sessions of [`stream_specs`] with
/// (for `p_enter > 0`) a burst-modulated fault plan driving correlated
/// miss storms.
fn overload_specs(
    ctx: &ctg_sched::SchedContext,
    streams: usize,
    trace_len: usize,
    p_enter: f64,
) -> Vec<StreamSpec> {
    let mut specs = stream_specs(ctx, streams, trace_len);
    for (i, spec) in specs.iter_mut().enumerate() {
        if p_enter > 0.0 {
            let mut plan = FaultPlan::uniform(0xB0057 + i as u64, 0.02);
            plan.burst = Some(BurstModel {
                p_enter,
                p_exit: 0.25,
                rate_multiplier: 8.0,
            });
            spec.fault_plan = Some(plan);
        }
    }
    specs
}

/// Deterministic work-unit cost of one representative cold solve, used to
/// pin the sweep's budget just below it so a realistic fraction of
/// re-solves abort.
fn typical_solve_cost(ctx: &ctg_sched::SchedContext, specs: &[StreamSpec]) -> u64 {
    let mut ws = SolverWorkspace::new();
    OnlineScheduler::new()
        .solve_with_workspace(ctx, &specs[0].initial_probs, &mut ws)
        .expect("budget probe solve");
    ws.last_solve_cost().expect("probe solve recorded its cost")
}

fn overload_sweep(
    ctx: &ctg_sched::SchedContext,
    trace_len: usize,
    smoke: bool,
    workers: usize,
) -> Vec<OverloadRow> {
    let streams = if smoke { 16 } else { 64 };
    // Every session is replayed with all its instances arriving at t = 0,
    // so when instance k completes `trace_len - 1 - k` arrivals wait
    // behind it whatever the service times: drift events in the first
    // half of each trace are shed, later ones admitted.
    let high_water = trace_len / 2;
    let budget = {
        let probe = overload_specs(ctx, streams, trace_len, 0.0);
        let cost = typical_solve_cost(ctx, &probe);
        cost - cost / 8
    };
    let cache = CacheMode::Shared {
        capacity: SHARED_CAPACITY,
        stripes: SHARED_STRIPES,
    };
    let overload_cfg = |workers: usize, shards: usize| ServeConfig {
        solve_budget: Some(budget),
        admission: Some(AdmissionConfig { high_water }),
        quarantine: Some(QuarantineConfig::default()),
        arrival: ArrivalConfig {
            kind: ArrivalKind::Trace,
            traces: vec![vec![0.0; trace_len]; streams],
            ..ArrivalConfig::default()
        },
        ..serve_cfg(workers, shards, cache)
    };
    println!(
        "\noverload sweep ({streams} streams replayed at t = 0, budget {budget} units, \
         high-water {high_water} queued):"
    );
    let mut rows = Vec::new();
    for &p_enter in &[0.0, 0.05, 0.2] {
        let specs = overload_specs(ctx, streams, trace_len, p_enter);
        let report =
            run_serve(ctx, &specs, &overload_cfg(workers, streams)).expect("overload serve run");
        // Every shed and quarantine decision must survive resharding.
        let resharded = run_serve(
            ctx,
            &specs,
            &overload_cfg(workers.div_ceil(2), (streams / 2).max(1)),
        )
        .expect("resharded overload run");
        assert_same_streams(
            &report,
            &resharded,
            &format!("overload p_enter={p_enter}: resharded"),
        );
        let misses: usize = report.streams.iter().map(|s| s.exec.deadline_misses).sum();
        let miss_rate = if report.stats.instances > 0 {
            misses as f64 / report.stats.instances as f64
        } else {
            0.0
        };
        println!(
            "  burst p_enter {p_enter:>4.2}: shed {:>5} ({:>5.1}%)  \
             quarantines {:>3} ({:>4} frozen ticks)  budget aborts {:>4}  \
             miss rate {:>5.2}%",
            report.stats.shed_requests,
            100.0 * report.stats.shed_rate(),
            report.stats.quarantines,
            report.stats.quarantined_ticks,
            report.stats.budget_exceeded,
            100.0 * miss_rate
        );
        rows.push(OverloadRow {
            p_enter,
            shed_requests: report.stats.shed_requests,
            shed_rate: report.stats.shed_rate(),
            quarantines: report.stats.quarantines,
            quarantined_ticks: report.stats.quarantined_ticks,
            budget_exceeded: report.stats.budget_exceeded,
            miss_rate,
        });
    }
    rows
}

struct Row {
    streams: usize,
    instances: usize,
    inst_per_s: f64,
    resched_per_s: f64,
    isolated_hit_rate: f64,
    shared_hit_rate: f64,
    solver_calls_shared: usize,
    solver_calls_independent: usize,
    baseline_resched_per_s: f64,
    speedup: f64,
    stages: BTreeMap<&'static str, StageAgg>,
    metrics_json: String,
}

/// The event-engine scale point: thousands of short-trace streams under
/// Poisson arrivals with a latency SLO — queueing (and therefore latency
/// percentiles and SLO violations) only exists in this open-loop regime.
struct ScaleRow {
    streams: usize,
    instances: usize,
    inst_per_s: f64,
    arrival_rate: f64,
    slo: f64,
    latency_p50: f64,
    latency_p99: f64,
    latency_max: f64,
    slo_violation_rate: f64,
    max_queue_depth: usize,
    events: usize,
    shared_hit_rate: f64,
    wall_s: f64,
    /// Peak-RSS growth of the serve run divided by the stream count — the
    /// per-stream resident state (0 when an earlier, larger row already
    /// owns the high-water mark).
    per_stream_bytes: f64,
    /// `size_of::<AdaptiveScheduler>()` — the inline footprint every
    /// stream pays before any solve runs.
    mgr_size_bytes: usize,
    /// The previous PR's committed numbers for this row, where recorded —
    /// the before side of the lazy-workspace change.
    prev: Option<(f64, f64)>,
}

/// VmHWM (peak RSS) of this process in bytes (0.0 where /proc is absent).
fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0)
        .unwrap_or(0.0)
}

/// `BENCH_serve.json`'s 100k row as committed before the adaptive manager
/// boxed its solver workspaces (PR 8): every stream carried two eagerly
/// built `SolverWorkspace`s it never solved through in the serve engine.
const PREV_100K: (f64, f64) = (23153.9, 51.83);

fn scale_run(ctx: &ctg_sched::SchedContext, streams: usize, workers: usize) -> ScaleRow {
    let trace_len = 12;
    let specs = stream_specs(ctx, streams, trace_len);
    let deadline = ctx.ctg().deadline();
    // Mean inter-arrival of half a deadline: a deliberately overloaded
    // open loop, so queues form and the SLO actually gets violated.
    let rate = 2.0 / deadline;
    let slo = 1.25 * deadline;
    let cfg = ServeConfig {
        arrival: ArrivalConfig {
            kind: ArrivalKind::Poisson { rate },
            slo: Some(slo),
            ..ArrivalConfig::default()
        },
        ..serve_cfg(
            workers,
            streams,
            CacheMode::Shared {
                capacity: SHARED_CAPACITY,
                stripes: SHARED_STRIPES,
            },
        )
    };
    let rss_before = peak_rss_bytes();
    let report = run_serve(ctx, &specs, &cfg).expect("scale serve run");
    let per_stream_bytes = ((peak_rss_bytes() - rss_before) / streams as f64).max(0.0);
    let slo_misses: usize = report.latencies.iter().map(|l| l.slo_misses).sum();
    let slo_violation_rate = if report.stats.instances > 0 {
        slo_misses as f64 / report.stats.instances as f64
    } else {
        0.0
    };
    println!(
        "\nscale ({streams} streams x {trace_len} instances, poisson rate {rate:.3}, \
         slo {slo:.1}): {:.0} inst/s  p50 {:.1}  p99 {:.1}  max {:.1}  \
         slo violations {:.2}%  max queue {}  ~{:.0} B/stream resident \
         (manager struct {} B)",
        report.stats.instances_per_s(),
        report.stats.latency_p50,
        report.stats.latency_p99,
        report.stats.latency_max,
        100.0 * slo_violation_rate,
        report.stats.max_queue_depth,
        per_stream_bytes,
        std::mem::size_of::<AdaptiveScheduler>(),
    );
    ScaleRow {
        streams,
        instances: report.stats.instances,
        inst_per_s: report.stats.instances_per_s(),
        arrival_rate: rate,
        slo,
        latency_p50: report.stats.latency_p50,
        latency_p99: report.stats.latency_p99,
        latency_max: report.stats.latency_max,
        slo_violation_rate,
        max_queue_depth: report.stats.max_queue_depth,
        events: report.stats.events,
        shared_hit_rate: report.stats.shared_hit_rate(),
        wall_s: report.stats.wall_s,
        per_stream_bytes,
        mgr_size_bytes: std::mem::size_of::<AdaptiveScheduler>(),
        prev: (streams == 100_000).then_some(PREV_100K),
    }
}

/// The portfolio point: the full shared-cache engine with scheduler
/// racing on every drift event, against the identical DLS-only run.
struct PortfolioRow {
    streams: usize,
    races: usize,
    wins: [usize; SchedulerKind::COUNT],
    total_energy: f64,
    dls_total_energy: f64,
    inst_per_s: f64,
}

fn portfolio_run(
    ctx: &ctg_sched::SchedContext,
    trace_len: usize,
    workers: usize,
    streams: usize,
) -> PortfolioRow {
    let specs = stream_specs(ctx, streams, trace_len);
    let shared_cache = CacheMode::Shared {
        capacity: SHARED_CAPACITY,
        stripes: SHARED_STRIPES,
    };
    let dls =
        run_serve(ctx, &specs, &serve_cfg(workers, streams, shared_cache)).expect("dls serve run");
    let cfg = ServeConfig {
        portfolio: Some(DEFAULT_PORTFOLIO.to_vec()),
        ..serve_cfg(workers, streams, shared_cache)
    };
    let report = run_serve(ctx, &specs, &cfg).expect("portfolio serve run");
    // Racing must not cost determinism: a resharded run (different worker
    // and shard split) reproduces every stream summary bit-for-bit.
    let resharded = run_serve(
        ctx,
        &specs,
        &ServeConfig {
            portfolio: Some(DEFAULT_PORTFOLIO.to_vec()),
            ..serve_cfg(workers.div_ceil(2), (streams / 2).max(1), shared_cache)
        },
    )
    .expect("resharded portfolio run");
    assert_same_streams(&resharded, &report, "portfolio: resharded");
    assert_eq!(
        resharded.stats.portfolio_wins, report.stats.portfolio_wins,
        "portfolio: win counters must survive resharding"
    );

    let energy = |r: &ServeReport| -> f64 { r.streams.iter().map(|s| s.exec.total_energy).sum() };
    let total_energy = energy(&report);
    let dls_total_energy = energy(&dls);
    assert!(
        total_energy <= dls_total_energy + 1e-6,
        "portfolio must not regress the DLS-only engine: {total_energy} > {dls_total_energy}"
    );
    let wins: Vec<String> = SchedulerKind::ALL
        .iter()
        .map(|k| format!("{k}:{}", report.stats.portfolio_wins[k.index()]))
        .collect();
    println!(
        "
portfolio ({streams} streams): {} races, wins {}, energy {:.1} vs dls {:.1} \
         ({:.2}% saved), {:.0} inst/s",
        report.stats.portfolio_races,
        wins.join(" "),
        total_energy,
        dls_total_energy,
        100.0 * (1.0 - total_energy / dls_total_energy),
        report.stats.instances_per_s(),
    );
    PortfolioRow {
        streams,
        races: report.stats.portfolio_races,
        wins: report.stats.portfolio_wins,
        total_energy,
        dls_total_energy,
        inst_per_s: report.stats.instances_per_s(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace_path: Option<&str> = args.iter().position(|a| a == "--trace").map(|i| {
        args.get(i + 1)
            .expect("--trace requires a file path")
            .as_str()
    });
    let trace_len = if smoke { 120 } else { 480 };
    let stream_counts: &[usize] = if smoke { &[1, 8, 64] } else { &[1, 8, 64, 256] };
    let workers = RunConfig::from_env().workers;

    let ctx = prepare_mpeg(2.0);
    println!(
        "serving bench on mpeg (pool of {SEED_POOL} drift movies, trace {trace_len}, \
         {workers} workers):\n"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut speedup_at_8 = 0.0_f64;
    let mut speedup_at_64 = 0.0_f64;
    let mut hit_split_at_64 = (0.0_f64, 0.0_f64);
    for &streams in stream_counts {
        let specs = stream_specs(&ctx, streams, trace_len);

        // Determinism reference: fully sequential, cache off.
        let reference =
            run_serve(&ctx, &specs, &serve_cfg(1, 1, CacheMode::Off)).expect("reference serve run");
        // The full engine: shared striped cache.
        let shared_cache = CacheMode::Shared {
            capacity: SHARED_CAPACITY,
            stripes: SHARED_STRIPES,
        };
        // The speedup column divides two wall-clock timings. Small rows
        // finish in well under a second, where host scheduler noise is a
        // ±10% effect, so full runs repeat the timing pair (this run and
        // the independent baseline below) and keep the fastest sample.
        // Large rows run long enough that one sample is stable, and smoke
        // runs skip the wall-clock asserts anyway.
        let timing_reps = if !smoke && streams <= 64 { 3 } else { 1 };
        let shared = (0..timing_reps)
            .map(|_| {
                run_serve(&ctx, &specs, &serve_cfg(workers, streams, shared_cache))
                    .expect("shared serve run")
            })
            .min_by(|a, b| a.stats.wall_s.total_cmp(&b.stats.wall_s))
            .expect("at least one timing rep");
        // Same engine, different sharding/worker split: must be invisible.
        let resharded = run_serve(
            &ctx,
            &specs,
            &serve_cfg(workers.div_ceil(2), (streams / 2).max(1), shared_cache),
        )
        .expect("resharded serve run");

        assert_same_streams(&shared, &reference, &format!("{streams}: shared vs ref"));
        assert_same_streams(
            &resharded,
            &shared,
            &format!("{streams}: resharded vs shared"),
        );
        assert_eq!(shared.stats.drift_events, reference.stats.drift_events);

        // Telemetry-on run through the unified `Runner` API: bit-identical
        // streams (asserted) plus a stage-level breakdown for the artifact.
        let sink = Arc::new(BufferedSink::new(workers.max(1)));
        let obs = Obs::with_sink(sink.clone());
        let traced = Runner::new(
            RunConfig::new()
                .workers(workers)
                .shards(streams)
                .cache(shared_cache)
                .obs(obs.clone()),
        )
        .serve(&ctx, &specs)
        .expect("telemetry-on serve run");
        assert_same_streams(&traced, &reference, &format!("{streams}: traced vs ref"));
        let events = sink.drain_sorted();
        let stages = aggregate_stages(&events);
        let metrics_json = obs
            .metrics_snapshot()
            .expect("enabled handle has metrics")
            .to_json();
        if let Some(path) = trace_path {
            if streams == *stream_counts.last().expect("non-empty counts") {
                let doc = chrome::render(&events);
                json::parse(&doc).expect("exported chrome trace must be valid JSON");
                std::fs::write(path, &doc).expect("write chrome trace");
                println!(
                    "      wrote chrome trace ({} events) to {path}",
                    events.len()
                );
            }
        }

        let baseline = (0..timing_reps)
            .map(|_| run_independent(&ctx, &specs, workers))
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("at least one timing rep");
        assert_eq!(
            baseline.reschedules, shared.stats.drift_events,
            "independent managers must adopt the same reschedules"
        );
        let isolated_hit_rate = if baseline.reschedules > 0 {
            baseline.cache_hits as f64 / baseline.reschedules as f64
        } else {
            0.0
        };

        let resched_per_s = shared.stats.reschedules_per_s();
        let baseline_resched_per_s = if baseline.wall_s > 0.0 {
            baseline.reschedules as f64 / baseline.wall_s
        } else {
            0.0
        };
        let speedup = if baseline_resched_per_s > 0.0 {
            resched_per_s / baseline_resched_per_s
        } else {
            0.0
        };
        if streams == 8 {
            speedup_at_8 = speedup;
        }
        if streams == 64 {
            speedup_at_64 = speedup;
            hit_split_at_64 = (isolated_hit_rate, shared.stats.shared_hit_rate());
        }
        println!(
            "{streams:>4} streams: {:>9.0} inst/s  {:>7.0} resched/s  \
             hit iso {:>5.1}% ({}/{}) / shared {:>5.1}%  speedup x{:.2}",
            shared.stats.instances_per_s(),
            resched_per_s,
            100.0 * isolated_hit_rate,
            baseline.cache_hits,
            baseline.reschedules,
            100.0 * shared.stats.shared_hit_rate(),
            speedup,
        );
        rows.push(Row {
            streams,
            instances: shared.stats.instances,
            inst_per_s: shared.stats.instances_per_s(),
            resched_per_s,
            isolated_hit_rate,
            shared_hit_rate: shared.stats.shared_hit_rate(),
            solver_calls_shared: shared.stats.solver_calls,
            solver_calls_independent: reference.stats.solver_calls,
            baseline_resched_per_s,
            speedup,
            stages,
            metrics_json,
        });
    }

    // Acceptance: cross-stream sharing must beat isolation where there are
    // streams to share across, and the engine must out-reschedule the
    // independent-manager architecture. (Wall-clock asserts are skipped in
    // smoke runs; the determinism asserts above always hold.)
    let (iso_rate, shared_rate) = hit_split_at_64;
    assert!(
        shared_rate > iso_rate,
        "shared cache hit rate ({shared_rate:.3}) must exceed the independent \
         managers' own rate ({iso_rate:.3}) at 64 streams"
    );
    if !smoke {
        assert!(
            speedup_at_64 >= 2.0,
            "aggregate reschedule throughput must be >= 2x the independent \
             baseline at 64 streams, got x{speedup_at_64:.2}"
        );
        // Small populations must not pay for the engine's machinery.
        assert!(
            speedup_at_8 >= 1.0,
            "the serve engine must at least match the independent baseline \
             at 8 streams, got x{speedup_at_8:.2}"
        );
    }
    // Scale rows: smoke stops at 10k streams (seconds-scale CI); the full
    // run records both the 10k and 100k points so the artifact shows how
    // latency percentiles and SLO violations move with population size.
    let scale_counts: &[usize] = if smoke { &[10_000] } else { &[10_000, 100_000] };
    let scale_rows: Vec<ScaleRow> = scale_counts
        .iter()
        .map(|&n| scale_run(&ctx, n, workers))
        .collect();
    let overload_rows = overload_sweep(&ctx, trace_len, smoke, workers);
    let portfolio_row = portfolio_run(&ctx, trace_len, workers, if smoke { 16 } else { 64 });
    // Budget aborts alone must not pass for a working sweep: every row has
    // to shed, or queue-depth admission is not being exercised at all.
    assert!(
        overload_rows.iter().all(|r| r.shed_requests > 0),
        "every overload sweep row must shed"
    );

    println!("\ndeterminism: PASS (summaries identical across workers/shards/cache modes)");

    // ---- Hand-rolled JSON artifact. ----
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"mpeg/drift-pool{SEED_POOL}\",\n  \"trace_len\": {trace_len},\n  \
         \"workers\": {workers},\n  \"smoke\": {smoke},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"streams\": {}, \"instances\": {}, \"inst_per_s\": {:.1}, \
             \"resched_per_s\": {:.1}, \
             \"isolated_hit_rate\": {:.4}, \"shared_hit_rate\": {:.4}, \
             \"solver_calls_shared\": {}, \"solver_calls_independent\": {}, \
             \"baseline_resched_per_s\": {:.1}, \"speedup_vs_independent\": {:.3}, \
             \"stages\": {}, \"metrics\": {}}}{}\n",
            r.streams,
            r.instances,
            r.inst_per_s,
            r.resched_per_s,
            r.isolated_hit_rate,
            r.shared_hit_rate,
            r.solver_calls_shared,
            r.solver_calls_independent,
            r.baseline_resched_per_s,
            r.speedup,
            stages_json(&r.stages),
            r.metrics_json,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scale\": [\n");
    for (i, scale) in scale_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"streams\": {}, \"instances\": {}, \"inst_per_s\": {:.1}, \
             \"arrival\": \"poisson\", \"arrival_rate\": {:.4}, \"slo\": {:.3}, \
             \"latency_p50\": {:.3}, \"latency_p99\": {:.3}, \"latency_max\": {:.3}, \
             \"slo_violation_rate\": {:.4}, \"max_queue_depth\": {}, \"events\": {}, \
             \"shared_hit_rate\": {:.4}, \"wall_s\": {:.2}, \
             \"per_stream_bytes\": {:.0}, \"mgr_size_bytes\": {}, \
             \"prev_inst_per_s\": {}, \"prev_wall_s\": {}}}{}\n",
            scale.streams,
            scale.instances,
            scale.inst_per_s,
            scale.arrival_rate,
            scale.slo,
            scale.latency_p50,
            scale.latency_p99,
            scale.latency_max,
            scale.slo_violation_rate,
            scale.max_queue_depth,
            scale.events,
            scale.shared_hit_rate,
            scale.wall_s,
            scale.per_stream_bytes,
            scale.mgr_size_bytes,
            scale
                .prev
                .map(|(p, _)| format!("{p:.1}"))
                .unwrap_or_else(|| "null".to_string()),
            scale
                .prev
                .map(|(_, w)| format!("{w:.2}"))
                .unwrap_or_else(|| "null".to_string()),
            if i + 1 == scale_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"overload\": [\n");
    for (i, r) in overload_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"burst_p_enter\": {:.3}, \"shed_requests\": {}, \
             \"shed_rate\": {:.4}, \"quarantines\": {}, \
             \"quarantined_ticks\": {}, \"budget_exceeded\": {}, \
             \"miss_rate\": {:.4}}}{}\n",
            r.p_enter,
            r.shed_requests,
            r.shed_rate,
            r.quarantines,
            r.quarantined_ticks,
            r.budget_exceeded,
            r.miss_rate,
            if i + 1 == overload_rows.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"portfolio\": {{\"streams\": {}, \"races\": {}, \"wins\": {{\"dls\": {}, \
         \"heft\": {}, \"lookahead\": {}, \"frame\": {}}}, \"total_energy\": {:.3}, \
         \"dls_total_energy\": {:.3}, \"inst_per_s\": {:.1}}},\n",
        portfolio_row.streams,
        portfolio_row.races,
        portfolio_row.wins[0],
        portfolio_row.wins[1],
        portfolio_row.wins[2],
        portfolio_row.wins[3],
        portfolio_row.total_energy,
        portfolio_row.dls_total_energy,
        portfolio_row.inst_per_s,
    ));
    json.push_str("  \"determinism\": \"pass\"\n}\n");
    let out = if smoke {
        std::fs::create_dir_all("target").expect("create target dir");
        "target/BENCH_serve_smoke.json"
    } else {
        "BENCH_serve.json"
    };
    std::fs::write(out, json).expect("write bench artifact");
    println!("wrote {out}");
}
