//! Solver-latency bench — cold (from-scratch [`OnlineScheduler::solve`])
//! vs warm ([`SolverWorkspace`]) re-solve latency, and the portfolio
//! race's, over the probability tables an adaptive MPEG run actually
//! re-schedules on (perf extension; not a paper table).
//!
//! The table sequence is harvested by replaying a drifting MPEG trace
//! through an [`AdaptiveScheduler`] and recording every adopted table, so
//! consecutive tables differ exactly as much as real drift makes them
//! differ. The trace tiles one segment, so later tiles revisit the tables
//! of the first. Each rep solves the whole sequence cold (a fresh solve
//! per table), warm (one plain workspace) and raced. The warm workspace
//! is **primed with one untimed pass first**: the column reports the
//! steady state a long-running manager sits in (every warm solve answered
//! by the graph pool) — the first-visit cost of a table is the cold
//! column, and the rebuild path's stage split is in the instrumented
//! breakdown below. Every warm solution is asserted **bit-for-bit
//! identical** to its cold counterpart before any number is reported.
//!
//! A final instrumented warm pass records per-stage spans (`dls_map`,
//! `path_enum`, `stretch`) through the telemetry layer for the stage
//! breakdown; the timed passes run with telemetry disabled. The `build`
//! row times one cold [`ScheduledGraph::build`] per distinct (assignment,
//! per-PE order) mapping among the DLS, HEFT and lookahead plans of the
//! harvested tables, the best of five passes each: the layer every pool
//! miss and every cold race entry pays.
//!
//! Pass `--smoke` for a seconds-scale run (CI) — numbers then land in
//! `target/BENCH_solver_smoke.json` instead of `BENCH_solver.json`. Pass
//! `--check-baseline <path>` to compare against a committed artifact: the
//! run fails if its warm p99 or its portfolio-race p99 regresses more than
//! 2x over the baseline's.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use ctg_bench::setup::{prepare_mpeg, profile_trace};
use ctg_model::BranchProbs;
use ctg_obs::{BufferedSink, EventKind, Obs, Stage};
use ctg_sched::{
    race_portfolio, AdaptiveScheduler, OnlineScheduler, SchedContext, Schedule, ScheduledGraph,
    SchedulerKind, Solution, SolverWorkspace, DEFAULT_PATH_CAP, DEFAULT_PORTFOLIO,
};
use ctg_workloads::traces;

const WINDOW: usize = 20;
const THRESHOLD: f64 = 0.1;
/// Passes over the distinct mappings in the `build` row; each mapping
/// keeps its fastest build, so a burst of host noise in one pass drops
/// out.
const BUILD_PASSES: usize = 5;

/// Latency summary of one pass, in microseconds.
struct Lat {
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    total_s: f64,
}

fn summarize(mut samples: Vec<f64>) -> Lat {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |q: f64| {
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[idx] * 1e6
    };
    let total: f64 = samples.iter().sum();
    Lat {
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        mean_us: total * 1e6 / samples.len() as f64,
        total_s: total,
    }
}

/// Mean duration and count of one solver stage across a recorded pass.
struct StageLat {
    mean_us: f64,
    count: usize,
}

fn assert_bit_identical(
    ctx: &ctg_sched::SchedContext,
    probs: &BranchProbs,
    cold: &Solution,
    sol: &Solution,
    label: &str,
) {
    assert_eq!(cold.schedule, sol.schedule, "{label}: schedule must match");
    for t in ctx.ctg().tasks() {
        assert_eq!(
            cold.speeds.speed(t).to_bits(),
            sol.speeds.speed(t).to_bits(),
            "{label}: speed bits must match for task {t}"
        );
    }
    assert_eq!(
        cold.expected_energy(ctx, probs).to_bits(),
        sol.expected_energy(ctx, probs).to_bits(),
        "{label}: energy bits must match"
    );
}

/// A schedule's (assignment, per-PE order) pair — the warm graph pool's
/// key, and everything a scheduled graph depends on.
type Mapping = (Vec<mpsoc_platform::PeId>, Vec<Vec<ctg_model::TaskId>>);

fn mapping(ctx: &SchedContext, s: &Schedule) -> Mapping {
    (
        ctx.ctg().tasks().map(|t| s.pe_of(t)).collect(),
        ctx.platform()
            .pes()
            .map(|pe| s.pe_order(pe).to_vec())
            .collect(),
    )
}

/// The number of distinct schedules among `solutions`, and of distinct
/// mappings. Without evictions a warm workspace rebuilds its graph once
/// per distinct mapping.
fn distinct_counts(ctx: &SchedContext, solutions: &[Solution]) -> (usize, usize) {
    let mut schedules: Vec<&Schedule> = Vec::new();
    let mut mappings = HashSet::new();
    for sol in solutions {
        let s = &sol.schedule;
        if !schedules.contains(&s) {
            schedules.push(s);
        }
        mappings.insert(mapping(ctx, s));
    }
    (schedules.len(), mappings.len())
}

/// Pulls `"p99_us"` out of the `row` object (`"warm"`, `"portfolio"`) of a
/// bench artifact without a JSON parser (the artifact is hand-rolled; the
/// layout is ours).
fn baseline_p99(json: &str, row: &str) -> Option<f64> {
    let obj = json.split(&format!("\"{row}\"")).nth(1)?;
    let after = obj.split("\"p99_us\":").nth(1)?;
    let num: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let baseline_path = args
        .iter()
        .position(|a| a == "--check-baseline")
        .map(|i| args.get(i + 1).expect("--check-baseline needs a path"));
    let (segment_len, tiles, reps) = if smoke { (200, 10, 1) } else { (500, 20, 3) };

    let ctx = prepare_mpeg(2.0);
    let movie = &traces::movie_presets()[1]; // Bike: strong scene drift
    let segment = traces::generate_trace(ctx.ctg(), &movie.profile, segment_len);
    let profiled = profile_trace(&ctx, &segment);

    // ---- Harvest the tables an adaptive run re-schedules on. ----
    let mut mgr =
        AdaptiveScheduler::new(&ctx, profiled.clone(), WINDOW, THRESHOLD).expect("manager builds");
    let mut tables: Vec<BranchProbs> = vec![profiled.clone()];
    for _ in 0..tiles {
        for v in &segment {
            if mgr.observe(&ctx, v).expect("observe succeeds") {
                tables.push(mgr.current_probs().clone());
            }
        }
    }
    assert!(
        tables.len() >= 10,
        "drift must trigger enough re-schedules to time ({} tables)",
        tables.len()
    );

    let online = OnlineScheduler::new();
    let mut cold_samples = Vec::with_capacity(tables.len() * reps);
    let mut warm_samples = Vec::with_capacity(tables.len() * reps);
    let mut race_samples = Vec::with_capacity(tables.len() * reps);
    let mut warm_stats = None;
    let mut distinct = (0, 0);
    let mut dls_solutions: Vec<Solution> = Vec::new();
    let mut race_wins = [0usize; SchedulerKind::COUNT];
    let mut race_energy_ratio_sum = 0.0;
    let mut race_energy_ratio_n = 0usize;
    for _ in 0..reps {
        // Cold: every table solved from scratch.
        let mut cold_solutions = Vec::with_capacity(tables.len());
        for probs in &tables {
            let t0 = Instant::now();
            let sol = online.solve(&ctx, probs).expect("cold solve");
            cold_samples.push(t0.elapsed().as_secs_f64());
            cold_solutions.push(sol);
        }
        distinct = distinct_counts(&ctx, &cold_solutions);

        // Warm: one plain workspace, primed with an untimed pass so the
        // timed pass measures the steady state (graph pool populated,
        // levels warm).
        let mut ws = SolverWorkspace::new();
        for probs in &tables {
            online
                .solve_with_workspace(&ctx, probs, &mut ws)
                .expect("warm priming solve");
        }
        for (probs, cold) in tables.iter().zip(&cold_solutions) {
            let t0 = Instant::now();
            let sol = online
                .solve_with_workspace(&ctx, probs, &mut ws)
                .expect("warm solve");
            warm_samples.push(t0.elapsed().as_secs_f64());
            assert_bit_identical(&ctx, probs, cold, &sol, "warm");
        }
        warm_stats = Some(ws.stats());

        // Portfolio: race DLS/HEFT/lookahead on every table, one workspace
        // per entry, primed like the warm pass. The winner is asserted
        // never worse than the cold (DLS) plan.
        let mut wss: Vec<SolverWorkspace> = DEFAULT_PORTFOLIO
            .iter()
            .map(|_| SolverWorkspace::new())
            .collect();
        for probs in &tables {
            race_portfolio(
                &DEFAULT_PORTFOLIO,
                &ctx,
                probs,
                &mut wss,
                &Obs::disabled(),
                0,
            )
            .expect("race priming solve");
        }
        for (probs, cold) in tables.iter().zip(&cold_solutions) {
            let t0 = Instant::now();
            let outcome = race_portfolio(
                &DEFAULT_PORTFOLIO,
                &ctx,
                probs,
                &mut wss,
                &Obs::disabled(),
                0,
            )
            .expect("race solve");
            race_samples.push(t0.elapsed().as_secs_f64());
            let e_cold = cold.expected_energy(&ctx, probs);
            assert!(
                outcome.energy <= e_cold + 1e-9,
                "portfolio must never lose to the DLS pipeline: {} > {}",
                outcome.energy,
                e_cold
            );
            race_wins[DEFAULT_PORTFOLIO[outcome.winner].index()] += 1;
            race_energy_ratio_sum += outcome.energy / e_cold;
            race_energy_ratio_n += 1;
        }
        dls_solutions = cold_solutions;
    }

    // ---- Cold graph builds: one per distinct mapping of the DLS, HEFT
    // and lookahead plans, each with the table it was solved for. ----
    let mut seen = HashSet::new();
    let mut builds: Vec<(Schedule, &BranchProbs)> = Vec::new();
    for (probs, dls) in tables.iter().zip(dls_solutions) {
        let mut plans = vec![dls.schedule];
        for kind in [SchedulerKind::Heft, SchedulerKind::Lookahead] {
            plans.push(kind.solve(&ctx, probs).expect("race entry solve").schedule);
        }
        for s in plans {
            if seen.insert(mapping(&ctx, &s)) {
                builds.push((s, probs));
            }
        }
    }
    let mut build_samples = vec![f64::INFINITY; builds.len()];
    for _ in 0..BUILD_PASSES {
        for ((s, probs), best) in builds.iter().zip(&mut build_samples) {
            let t0 = Instant::now();
            let graph = ScheduledGraph::build(&ctx, s, probs, DEFAULT_PATH_CAP);
            *best = best.min(t0.elapsed().as_secs_f64());
            assert!(graph.is_some(), "MPEG graphs fit the default path cap");
        }
    }
    let build = summarize(build_samples);

    let cold = summarize(cold_samples);
    let warm = summarize(warm_samples);
    let race = summarize(race_samples);
    let race_energy_ratio = race_energy_ratio_sum / race_energy_ratio_n as f64;
    let speedup_total = cold.total_s / warm.total_s;
    let warm_stats = warm_stats.expect("at least one rep ran");

    // ---- Instrumented warm pass: per-stage breakdown. ----
    let sink = Arc::new(BufferedSink::new(1));
    let obs = Obs::with_sink(sink.clone());
    let mut ws = SolverWorkspace::new();
    ws.set_obs(obs, 0);
    for probs in &tables {
        online
            .solve_with_workspace(&ctx, probs, &mut ws)
            .expect("instrumented solve");
    }
    let events = sink.drain_sorted();
    let stage_lat = |stage: Stage| {
        let durs: Vec<u64> = events
            .iter()
            .filter(|e| e.stage == stage && e.kind == EventKind::Span)
            .map(|e| e.dur_ns)
            .collect();
        let count = durs.len();
        let mean_us = if count == 0 {
            0.0
        } else {
            durs.iter().sum::<u64>() as f64 / count as f64 / 1e3
        };
        StageLat { mean_us, count }
    };
    let stage_dls = stage_lat(Stage::DlsMap);
    let stage_enum = stage_lat(Stage::PathEnum);
    let stage_stretch = stage_lat(Stage::Stretch);

    // ---- Report. ----
    println!(
        "solver latency on mpeg/{} ({} tables x {reps} reps, adaptive drift):\n",
        movie.name,
        tables.len()
    );
    let fmt = |label: &str, l: &Lat| {
        println!(
            "{label:<6} p50 {:>9.1} us   p99 {:>9.1} us   mean {:>9.1} us   total {:.4} s",
            l.p50_us, l.p99_us, l.mean_us, l.total_s
        );
    };
    fmt("cold", &cold);
    fmt("warm", &warm);
    fmt("race", &race);
    println!("\nwarm speedup (total cold / total warm): {speedup_total:.2}x");
    println!(
        "stages (instrumented warm pass): dls_map {:.1} us x{}, path_enum {:.1} us x{}, \
         stretch {:.1} us x{}",
        stage_dls.mean_us,
        stage_dls.count,
        stage_enum.mean_us,
        stage_enum.count,
        stage_stretch.mean_us,
        stage_stretch.count
    );
    println!(
        "warm workspace: {} solves, {} full level builds, {} dirty updates ({} levels \
         recomputed), {} graph reuses / {} rebuilds (the cold solutions hold {} distinct \
         schedules over {} distinct (assignment, per-PE order) pairs)",
        warm_stats.solves,
        warm_stats.full_level_rebuilds,
        warm_stats.dirty_level_updates,
        warm_stats.levels_recomputed,
        warm_stats.graph_reuses,
        warm_stats.graph_rebuilds,
        distinct.0,
        distinct.1
    );
    println!(
        "cold graph build ({} distinct mappings of the dls, heft and lookahead plans, best \
         of {BUILD_PASSES} passes): p50 {:.1} us   p99 {:.1} us   mean {:.1} us",
        builds.len(),
        build.p50_us,
        build.p99_us,
        build.mean_us
    );
    println!("equivalence: PASS (every warm solution bit-identical to cold)");
    let wins: Vec<String> = SchedulerKind::ALL
        .iter()
        .map(|k| format!("{k}:{}", race_wins[k.index()]))
        .collect();
    println!(
        "portfolio race (dls+heft+lookahead): wins {}, mean energy vs dls {:.4} (never above 1)",
        wins.join(" "),
        race_energy_ratio
    );

    // ---- Hand-rolled JSON artifact. ----
    let lat_json = |l: &Lat| {
        format!(
            "{{\"p50_us\": {:.3}, \"p99_us\": {:.3}, \"mean_us\": {:.3}, \"total_s\": {:.6}}}",
            l.p50_us, l.p99_us, l.mean_us, l.total_s
        )
    };
    let stage_json =
        |s: &StageLat| format!("{{\"mean_us\": {:.3}, \"count\": {}}}", s.mean_us, s.count);
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"mpeg/{}\",\n  \"tables\": {},\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n",
        movie.name,
        tables.len()
    ));
    json.push_str(&format!("  \"cold\": {},\n", lat_json(&cold)));
    json.push_str(&format!("  \"warm\": {},\n", lat_json(&warm)));
    json.push_str(&format!("  \"portfolio\": {},\n", lat_json(&race)));
    json.push_str(&format!(
        "  \"build\": {{\"p50_us\": {:.3}, \"p99_us\": {:.3}, \"mean_us\": {:.3}, \"count\": {}}},\n",
        build.p50_us,
        build.p99_us,
        build.mean_us,
        builds.len()
    ));
    json.push_str(&format!(
        "  \"portfolio_wins\": {{\"dls\": {}, \"heft\": {}, \"lookahead\": {}, \"frame\": {}}},\n",
        race_wins[0], race_wins[1], race_wins[2], race_wins[3]
    ));
    json.push_str(&format!(
        "  \"portfolio_energy_vs_dls\": {race_energy_ratio:.6},\n"
    ));
    json.push_str(&format!("  \"speedup_total\": {speedup_total:.4},\n"));
    json.push_str(&format!(
        "  \"stages\": {{\"dls_map\": {}, \"path_enum\": {}, \"stretch\": {}}},\n",
        stage_json(&stage_dls),
        stage_json(&stage_enum),
        stage_json(&stage_stretch)
    ));
    json.push_str(&format!(
        "  \"workspace\": {{\"solves\": {}, \"full_level_rebuilds\": {}, \
         \"dirty_level_updates\": {}, \"levels_recomputed\": {}, \"graph_reuses\": {}, \
         \"graph_rebuilds\": {}, \"rebinds\": {}, \"distinct_schedules\": {}, \
         \"distinct_mappings\": {}}},\n",
        warm_stats.solves,
        warm_stats.full_level_rebuilds,
        warm_stats.dirty_level_updates,
        warm_stats.levels_recomputed,
        warm_stats.graph_reuses,
        warm_stats.graph_rebuilds,
        warm_stats.rebinds,
        distinct.0,
        distinct.1
    ));
    json.push_str("  \"equivalence\": \"pass\"\n}\n");
    let out = if smoke {
        std::fs::create_dir_all("target").expect("create target dir");
        "target/BENCH_solver_smoke.json"
    } else {
        "BENCH_solver.json"
    };
    std::fs::write(out, json).expect("write bench artifact");
    println!("wrote {out}");

    // ---- Baseline gate. ----
    if let Some(path) = baseline_path {
        let baseline =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let mut failed = false;
        for (row, lat) in [("warm", &warm), ("portfolio", &race)] {
            let base_p99 = baseline_p99(&baseline, row)
                .unwrap_or_else(|| panic!("baseline {path} has no {row} p99"));
            println!(
                "baseline gate: {row} p99 {:.1} us vs baseline {:.1} us (limit {:.1} us)",
                lat.p99_us,
                base_p99,
                2.0 * base_p99
            );
            if lat.p99_us > 2.0 * base_p99 {
                eprintln!(
                    "FAIL: {row} p99 {:.1} us regressed more than 2x over baseline {:.1} us",
                    lat.p99_us, base_p99
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("baseline gate: PASS");
    }
}
