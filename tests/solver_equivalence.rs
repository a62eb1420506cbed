//! Warm-start equivalence property tests: [`SolverWorkspace`] must be a
//! pure performance optimisation. Over randomly generated CTGs (both TGFF
//! families) and deterministic drifting probability sequences, every warm
//! re-solve must be **bit-for-bit identical** to a from-scratch
//! [`OnlineScheduler::solve`] — same schedule, same speed bits, same
//! expected-energy bits on success, and the same error on failure.
//!
//! Also pins the seeded-stretch fixed point: iterating the exhaustive
//! stretch through its own seeding converges, and the settled speeds
//! re-seed to themselves (up to the stretcher's internal stopping
//! tolerance).

use adaptive_dvfs::ctg::{BranchProbs, Ctg};
use adaptive_dvfs::sched::{
    dls_schedule, stretch_schedule, stretch_schedule_seeded, OnlineScheduler, SchedContext,
    ScheduledGraph, SolverWorkspace, StretchConfig, DEFAULT_PATH_CAP,
};
use adaptive_dvfs::tgff::{Category, TgffConfig};

/// `(seed, num_tasks, num_branches, category, num_pes)` — task budgets all
/// satisfy the generator's `2 + 4 * num_branches` floor for binary branches.
const CASES: [(u64, usize, usize, Category, usize); 6] = [
    (11, 24, 3, Category::ForkJoin, 3),
    (12, 18, 2, Category::ForkJoin, 2),
    (13, 30, 4, Category::ForkJoin, 4),
    (21, 20, 2, Category::Layered, 3),
    (22, 26, 3, Category::Layered, 2),
    (23, 16, 1, Category::Layered, 4),
];

const DRIFT_STEPS: usize = 10;

/// Builds a case's scheduling context with the deadline calibrated to twice
/// the DLS makespan under the generated probabilities.
fn build_context(seed: u64, a: usize, c: usize, cat: Category, pes: usize) -> SchedContext {
    let cfg = TgffConfig::new(seed, a, c, cat);
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, pes);
    let ctx = SchedContext::new(generated.ctg, platform).unwrap();
    let makespan = dls_schedule(&ctx, &generated.probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

/// Deterministic drifting probability table: each branch favours a rotating
/// alternative with a weight that cycles through ten levels. Pure integer
/// arithmetic — no clock, no RNG — so the sequence is reproducible and
/// consecutive tables differ at every branch (like real observed drift).
fn drift_table(ctg: &Ctg, step: usize) -> BranchProbs {
    let mut probs = BranchProbs::new();
    for (bi, &b) in ctg.branch_nodes().iter().enumerate() {
        let k = ctg.node(b).alternatives() as usize;
        let favored = (step + bi) % k;
        let lead = 0.1 + 0.08 * ((step * 7 + bi * 3) % 10) as f64;
        let rest = (1.0 - lead) / (k - 1) as f64;
        let dist: Vec<f64> = (0..k)
            .map(|j| if j == favored { lead } else { rest })
            .collect();
        probs.set(b, dist).unwrap();
    }
    probs
}

/// Asserts that a warm solve result is bit-identical to the cold one.
fn assert_solutions_identical(
    ctx: &SchedContext,
    probs: &BranchProbs,
    cold: &Result<adaptive_dvfs::sched::Solution, adaptive_dvfs::sched::SchedError>,
    warm: &Result<adaptive_dvfs::sched::Solution, adaptive_dvfs::sched::SchedError>,
    label: &str,
) {
    match (cold, warm) {
        (Ok(c), Ok(w)) => {
            assert_eq!(c.schedule, w.schedule, "{label}: schedules differ");
            for t in ctx.ctg().tasks() {
                assert_eq!(
                    c.speeds.speed(t).to_bits(),
                    w.speeds.speed(t).to_bits(),
                    "{label}: speed bits differ for task {t}"
                );
            }
            assert_eq!(
                c.expected_energy(ctx, probs).to_bits(),
                w.expected_energy(ctx, probs).to_bits(),
                "{label}: expected-energy bits differ"
            );
        }
        (Err(ce), Err(we)) => assert_eq!(ce, we, "{label}: errors differ"),
        (c, w) => panic!("{label}: cold {c:?} but warm {w:?}"),
    }
}

/// Across both graph families and a drifting table sequence, every warm
/// solve is bit-identical to a from-scratch solve of the same table.
#[test]
fn warm_solves_are_bit_identical_to_cold_under_drift() {
    let online = OnlineScheduler::new();
    for (seed, a, c, cat, pes) in CASES {
        let ctx = build_context(seed, a, c, cat, pes);
        let mut ws = SolverWorkspace::new();
        for step in 0..DRIFT_STEPS {
            let table = drift_table(ctx.ctg(), step);
            let cold = online.solve(&ctx, &table);
            let warm = online.solve_with_workspace(&ctx, &table, &mut ws);
            assert_solutions_identical(
                &ctx,
                &table,
                &cold,
                &warm,
                &format!("seed {seed} step {step}"),
            );
        }
        let stats = ws.stats();
        assert_eq!(stats.solves, DRIFT_STEPS);
        assert_eq!(stats.full_level_rebuilds, 1, "one cold level build");
    }
}

/// Re-solving an unchanged table is answered from the memo and still
/// matches a fresh solve bit-for-bit.
#[test]
fn repeated_table_hits_the_memo() {
    let online = OnlineScheduler::new();
    let ctx = build_context(11, 24, 3, Category::ForkJoin, 3);
    let table = drift_table(ctx.ctg(), 4);
    let cold = online.solve(&ctx, &table);
    let mut ws = SolverWorkspace::new();
    for rep in 0..3 {
        let warm = online.solve_with_workspace(&ctx, &table, &mut ws);
        assert_solutions_identical(&ctx, &table, &cold, &warm, &format!("memo rep {rep}"));
    }
    assert_eq!(ws.stats().memo_hits, 2, "reps 2 and 3 are memo hits");
}

/// Regression for the "dead memo" finding of `BENCH_solver.json`
/// (`memo_hits: 0` across 1483 adopted drift tables): adopted tables
/// *genuinely never repeat consecutively* — the manager only adopts when
/// the estimate drifted beyond the threshold from the table in force, so
/// each adopted table differs from its predecessor by construction. The
/// depth-1 memo is therefore correctly silent on a drift replay, and a
/// sequence with each adopted table repeated back-to-back hits exactly once
/// per repeat.
#[test]
fn adopted_drift_tables_never_repeat_consecutively_but_unchanged_repeats_hit() {
    use adaptive_dvfs::sched::AdaptiveScheduler;
    use adaptive_dvfs::workloads::traces::{self, DriftProfile};

    let ctx = build_context(11, 24, 3, Category::ForkJoin, 3);
    let trace = traces::generate_trace(ctx.ctg(), &DriftProfile::new(0xD81F7), 400);
    let initial = traces::empirical_probs(ctx.ctg(), &trace);
    let mut mgr = AdaptiveScheduler::new(&ctx, initial.clone(), 12, 0.15).unwrap();
    let mut adopted: Vec<BranchProbs> = vec![initial];
    for v in &trace {
        if mgr.observe(&ctx, v).unwrap() {
            adopted.push(mgr.current_probs().clone());
        }
    }
    assert!(
        adopted.len() >= 8,
        "drift must trigger enough adoptions to be meaningful ({})",
        adopted.len()
    );
    for pair in adopted.windows(2) {
        assert_ne!(
            pair[0], pair[1],
            "consecutive adopted tables must differ (drift threshold)"
        );
    }

    let online = OnlineScheduler::new();
    // Plain replay: pins the bench's observed number — zero memo hits.
    let mut ws = SolverWorkspace::new();
    for table in &adopted {
        online.solve_with_workspace(&ctx, table, &mut ws).unwrap();
    }
    assert_eq!(
        ws.stats().memo_hits,
        0,
        "a pure drift sequence never hits the depth-1 memo"
    );
    // Doubled replay: every unchanged consecutive table must hit.
    let mut ws = SolverWorkspace::new();
    for table in &adopted {
        let first = online.solve_with_workspace(&ctx, table, &mut ws).unwrap();
        let again = online.solve_with_workspace(&ctx, table, &mut ws).unwrap();
        assert_eq!(first, again, "memoised solution must be identical");
    }
    assert_eq!(
        ws.stats().memo_hits,
        adopted.len(),
        "exactly one hit per unchanged consecutive repeat"
    );
}

/// Alternating between tables that map to the same schedule reuses the
/// pooled scheduled graph instead of re-enumerating paths.
#[test]
fn alternating_tables_reuse_pooled_graphs() {
    let online = OnlineScheduler::new();
    let ctx = build_context(12, 18, 2, Category::ForkJoin, 2);
    let mut ws = SolverWorkspace::new();
    let tables: Vec<BranchProbs> = (0..6).map(|s| drift_table(ctx.ctg(), s)).collect();
    // Two passes over the same table sequence: pass 2 finds every schedule's
    // graph already pooled.
    for pass in 0..2 {
        for (i, table) in tables.iter().enumerate() {
            let cold = online.solve(&ctx, table);
            let warm = online.solve_with_workspace(&ctx, table, &mut ws);
            assert_solutions_identical(
                &ctx,
                table,
                &cold,
                &warm,
                &format!("pass {pass} table {i}"),
            );
        }
    }
    let stats = ws.stats();
    assert!(
        stats.graph_reuses >= tables.len(),
        "second pass must reuse pooled graphs: {stats:?}"
    );
}

/// The graph pool is keyed on the PE mapping, not on the whole schedule.
/// Over the tables an adaptive manager adopts on a drifting MPEG movie, a
/// warm workspace rebuilds its scheduled graph exactly once per distinct
/// (assignment, per-PE order) pair among the cold schedules — fewer than
/// there are distinct schedules, so schedules differing only in start
/// times or commit order share a graph — and every warm solution stays
/// bit-identical to its cold counterpart.
#[test]
fn warm_pool_builds_once_per_distinct_mapping() {
    use adaptive_dvfs::sched::{AdaptiveScheduler, Schedule};
    use adaptive_dvfs::workloads::{mpeg, traces};

    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let uniform = BranchProbs::uniform(&ctg);
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let makespan = dls_schedule(&ctx, &uniform).unwrap().makespan();
    let ctx = SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )
    .unwrap();

    // Bike: 300 decisions adopt 49 tables with 32 distinct schedules over
    // 22 distinct mappings, well inside the pool, so nothing is evicted.
    let movie = &traces::movie_presets()[1];
    let trace = traces::generate_trace(ctx.ctg(), &movie.profile, 300);
    let initial = traces::empirical_probs(ctx.ctg(), &trace);
    let mut mgr = AdaptiveScheduler::new(&ctx, initial.clone(), 20, 0.1).unwrap();
    let mut adopted: Vec<BranchProbs> = vec![initial];
    for v in &trace {
        if mgr.observe(&ctx, v).unwrap() {
            adopted.push(mgr.current_probs().clone());
        }
    }

    let online = OnlineScheduler::new();
    let mut ws = SolverWorkspace::new();
    let mut schedules: Vec<Schedule> = Vec::new();
    let mut mappings = Vec::new();
    for (i, table) in adopted.iter().enumerate() {
        let cold = online.solve(&ctx, table);
        let warm = online.solve_with_workspace(&ctx, table, &mut ws);
        assert_solutions_identical(&ctx, table, &cold, &warm, &format!("table {i}"));
        let s = cold.unwrap().schedule;
        let mapping: (Vec<_>, Vec<Vec<_>>) = (
            ctx.ctg().tasks().map(|t| s.pe_of(t)).collect(),
            ctx.platform()
                .pes()
                .map(|pe| s.pe_order(pe).to_vec())
                .collect(),
        );
        if !mappings.contains(&mapping) {
            mappings.push(mapping);
        }
        if !schedules.contains(&s) {
            schedules.push(s);
        }
    }
    let stats = ws.stats();
    assert_eq!(stats.solves, adopted.len());
    assert_eq!(
        stats.memo_hits, 0,
        "adopted tables never repeat consecutively"
    );
    assert_eq!(
        stats.graph_rebuilds,
        mappings.len(),
        "one build per distinct mapping: {stats:?}"
    );
    assert!(
        mappings.len() < schedules.len(),
        "the drift must produce schedules that share a mapping ({} mappings, {} schedules)",
        mappings.len(),
        schedules.len()
    );
}

/// Rebinding the workspace to a different context starts cold (full level
/// rebuild) and still produces bit-identical solutions for both contexts.
#[test]
fn rebinding_contexts_stays_equivalent() {
    let online = OnlineScheduler::new();
    let ctx_a = build_context(13, 30, 4, Category::ForkJoin, 4);
    let ctx_b = build_context(21, 20, 2, Category::Layered, 3);
    let mut ws = SolverWorkspace::new();
    for (name, ctx) in [("a", &ctx_a), ("b", &ctx_b), ("a-again", &ctx_a)] {
        let table = drift_table(ctx.ctg(), 1);
        let cold = online.solve(ctx, &table);
        let warm = online.solve_with_workspace(ctx, &table, &mut ws);
        assert_solutions_identical(ctx, &table, &cold, &warm, &format!("context {name}"));
    }
    let stats = ws.stats();
    assert_eq!(stats.rebinds, 2, "two context switches: {stats:?}");
    assert_eq!(stats.full_level_rebuilds, 3, "each switch starts cold");
}

/// With the near-miss memo enabled, a second pass over a drift sequence is
/// answered entirely by exact replays (non-consecutive revisits the depth-1
/// memo cannot serve) — and every replay stays bit-identical to a cold
/// solve.
#[test]
fn near_miss_memo_replays_revisited_tables_bit_identically() {
    let online = OnlineScheduler::new();
    for (seed, a, c, cat, pes) in [CASES[0], CASES[3]] {
        let ctx = build_context(seed, a, c, cat, pes);
        let tables: Vec<BranchProbs> = (0..6).map(|s| drift_table(ctx.ctg(), s)).collect();
        let mut ws = SolverWorkspace::new();
        // A tiny quantum gives every distinct table its own bucket, so the
        // second pass finds each first-pass entry still resident.
        ws.set_near_memo(1e-6, 64);
        for pass in 0..2 {
            for (i, table) in tables.iter().enumerate() {
                let cold = online.solve(&ctx, table);
                let warm = online.solve_with_workspace(&ctx, table, &mut ws);
                assert_solutions_identical(
                    &ctx,
                    table,
                    &cold,
                    &warm,
                    &format!("seed {seed} pass {pass} table {i}"),
                );
            }
        }
        let stats = ws.stats();
        assert_eq!(
            stats.near_hits,
            tables.len(),
            "seed {seed}: every second-pass solve must replay from the near memo: {stats:?}"
        );
    }
}

/// Budget-verdict parity across every solve path: for a sweep of budgets
/// around the true solve cost, the cold solver, the depth-1 memo and the
/// near-miss memo all land on the identical verdict — success with the
/// same bits, or a budget abort against the same budget. (The abort's
/// `spent` payload is pinned only at the `cost - 1` boundary: the memo
/// paths re-charge the stored total in one step, so a deeply short budget
/// reports the full replayed cost where the cold path stops at its first
/// crossing charge — same verdict, same determinism, different progress
/// mark. The graph pool's enumeration re-charge has worked this way since
/// it landed.)
#[test]
fn budget_verdicts_agree_across_cold_memo_and_near_paths() {
    let online = OnlineScheduler::new();
    let ctx = build_context(11, 24, 3, Category::ForkJoin, 3);
    let a = drift_table(ctx.ctg(), 2);
    let b = drift_table(ctx.ctg(), 5);

    let mut probe = SolverWorkspace::new();
    online.solve_with_workspace(&ctx, &a, &mut probe).unwrap();
    let cost = probe.last_solve_cost().unwrap();
    assert!(cost > 2);

    for budget in [0, 1, cost / 2, cost - 1, cost, cost + 1] {
        let mut cold_ws = SolverWorkspace::new();
        cold_ws.set_budget(Some(budget));
        let cold = online.solve_with_workspace(&ctx, &a, &mut cold_ws);

        // Depth-1 memo path: solve `a` unbudgeted, then repeat budgeted.
        let mut memo_ws = SolverWorkspace::new();
        online.solve_with_workspace(&ctx, &a, &mut memo_ws).unwrap();
        memo_ws.set_budget(Some(budget));
        let memo = online.solve_with_workspace(&ctx, &a, &mut memo_ws);

        // Near-memo path: `a` then `b` unbudgeted, then `a` budgeted (a
        // non-consecutive revisit the depth-1 memo cannot serve).
        let mut near_ws = SolverWorkspace::new();
        near_ws.set_near_memo(1e-6, 16);
        online.solve_with_workspace(&ctx, &a, &mut near_ws).unwrap();
        online.solve_with_workspace(&ctx, &b, &mut near_ws).unwrap();
        near_ws.set_budget(Some(budget));
        let near = online.solve_with_workspace(&ctx, &a, &mut near_ws);

        if budget >= cost {
            assert!(cold.is_ok(), "budget {budget} covers cost {cost}");
            assert_solutions_identical(&ctx, &a, &cold, &memo, &format!("budget {budget} memo"));
            assert_solutions_identical(&ctx, &a, &cold, &near, &format!("budget {budget} near"));
            assert_eq!(near_ws.stats().near_hits, 1);
        } else {
            for (path, res) in [("cold", &cold), ("memo", &memo), ("near", &near)] {
                assert!(
                    matches!(
                        res,
                        Err(adaptive_dvfs::sched::SchedError::SolveBudgetExceeded {
                            budget: b, ..
                        }) if *b == budget
                    ),
                    "budget {budget} (cost {cost}) {path}: expected an abort, got {res:?}"
                );
            }
            assert_eq!(near_ws.stats().near_hits, 0, "aborted replays are not hits");
        }
        if budget == cost - 1 {
            // At the boundary every path crosses on its final charge, so
            // even the abort's `spent` payload agrees.
            assert_eq!(cold, memo, "boundary abort payloads (memo)");
            assert_eq!(cold, near, "boundary abort payloads (near)");
        }
    }
}

/// Budget-verdict parity when the path enumeration overflows its cap: the
/// cold solver, the depth-1 memo and a graph-pool hit, which re-charges
/// the pooled `None` entry's enumeration cost in one step, land on the
/// same verdict for a sweep of budgets around the over-cap solve cost,
/// with bit-identical successes.
#[test]
fn budget_verdicts_agree_over_the_path_cap() {
    let ctx = build_context(11, 24, 3, Category::ForkJoin, 3);
    let a = drift_table(ctx.ctg(), 2);
    let b = drift_table(ctx.ctg(), 5);
    let schedule = dls_schedule(&ctx, &a).unwrap();
    let paths = ScheduledGraph::build(&ctx, &schedule, &a, DEFAULT_PATH_CAP)
        .expect("under the default cap")
        .paths()
        .len();
    let path_cap = paths / 2;
    assert!(ScheduledGraph::build(&ctx, &schedule, &a, path_cap).is_none());
    let online = OnlineScheduler::with_config(StretchConfig {
        path_cap,
        ..StretchConfig::default()
    });

    let mut probe = SolverWorkspace::new();
    online.solve_with_workspace(&ctx, &a, &mut probe).unwrap();
    let cost = probe.last_solve_cost().unwrap();
    assert!(cost > 2);

    for budget in [0, 1, cost / 2, cost - 1, cost, cost + 1] {
        let mut cold_ws = SolverWorkspace::new();
        cold_ws.set_budget(Some(budget));
        let cold = online.solve_with_workspace(&ctx, &a, &mut cold_ws);

        // Depth-1 memo path: solve `a` unbudgeted, then repeat budgeted.
        let mut memo_ws = SolverWorkspace::new();
        online.solve_with_workspace(&ctx, &a, &mut memo_ws).unwrap();
        memo_ws.set_budget(Some(budget));
        let memo = online.solve_with_workspace(&ctx, &a, &mut memo_ws);

        // Graph-pool path: `a` then `b` unbudgeted, then `a` budgeted (a
        // non-consecutive revisit the depth-1 memo cannot serve).
        let mut pool_ws = SolverWorkspace::new();
        online.solve_with_workspace(&ctx, &a, &mut pool_ws).unwrap();
        online.solve_with_workspace(&ctx, &b, &mut pool_ws).unwrap();
        let reuses = pool_ws.stats().graph_reuses;
        pool_ws.set_budget(Some(budget));
        let pool = online.solve_with_workspace(&ctx, &a, &mut pool_ws);

        if budget >= cost {
            assert!(cold.is_ok(), "budget {budget} covers cost {cost}");
            assert_solutions_identical(&ctx, &a, &cold, &memo, &format!("budget {budget} memo"));
            assert_solutions_identical(&ctx, &a, &cold, &pool, &format!("budget {budget} pool"));
            assert_eq!(pool_ws.stats().graph_reuses, reuses + 1, "a pool hit");
            assert_eq!(pool_ws.stats().memo_hits, 0);
        } else {
            for (path, res) in [("cold", &cold), ("memo", &memo), ("pool", &pool)] {
                assert!(
                    matches!(
                        res,
                        Err(adaptive_dvfs::sched::SchedError::SolveBudgetExceeded {
                            budget: b, ..
                        }) if *b == budget
                    ),
                    "budget {budget} (cost {cost}) {path}: expected an abort, got {res:?}"
                );
            }
        }
        if budget == cost - 1 {
            // At the boundary every path crosses on its final charge, so
            // even the abort's `spent` payload agrees.
            assert_eq!(cold, memo, "boundary abort payloads (memo)");
            assert_eq!(cold, pool, "boundary abort payloads (pool)");
        }
    }
}

/// Iterated seeding of the exhaustive stretch converges to a fixed point:
/// each seeded call continues the slack-consuming iteration where the
/// previous one stopped (the cold run may exhaust its sweep cap first), the
/// sequence settles, and once settled, re-seeding with the fixed point
/// reproduces it.
///
/// Tolerance: the stretcher's own sweep loop breaks once a sweep grants
/// less than `1e-9 × deadline` of slack, so each call may legitimately move
/// speeds by a few 1e-9 forever — the fixed point is only defined up to
/// that internal stopping tolerance. `1e-7` sits safely above the floor
/// while still failing on any real non-convergence (deltas decay
/// geometrically by ~3× per round until they hit the floor).
const FIXED_POINT_TOL: f64 = 1e-7;

#[test]
fn exhaustive_stretch_seeding_converges_to_a_fixed_point() {
    let cfg = StretchConfig::exhaustive();
    let max_delta = |a: &adaptive_dvfs::sched::SpeedAssignment,
                     b: &adaptive_dvfs::sched::SpeedAssignment,
                     ctx: &SchedContext| {
        ctx.ctg()
            .tasks()
            .map(|t| (a.speed(t) - b.speed(t)).abs())
            .fold(0.0f64, f64::max)
    };
    for (seed, a, c, cat, pes) in CASES {
        let ctx = build_context(seed, a, c, cat, pes);
        let table = drift_table(ctx.ctg(), 0);
        let schedule = dls_schedule(&ctx, &table).unwrap();
        let mut cur = stretch_schedule(&ctx, &table, &schedule, &cfg).unwrap();
        let mut converged = false;
        for _round in 0..50 {
            let next = stretch_schedule_seeded(&ctx, &table, &schedule, &cfg, &cur).unwrap();
            let delta = max_delta(&next, &cur, &ctx);
            cur = next;
            if delta < FIXED_POINT_TOL {
                converged = true;
                break;
            }
        }
        assert!(converged, "seed {seed}: seeding never settled");
        // The settled point really is a fixed point of one more re-seed.
        let again = stretch_schedule_seeded(&ctx, &table, &schedule, &cfg, &cur).unwrap();
        let delta = max_delta(&again, &cur, &ctx);
        assert!(
            delta < FIXED_POINT_TOL,
            "seed {seed}: fixed point violated by {delta}"
        );
    }
}

/// Warm-starting the stretch from a near-miss neighbour's speeds reaches
/// the *same* fixed point as iterating from the cold solution: seeding from
/// [`SolverWorkspace::near_seed`] is a tolerance-level shortcut, not a
/// different answer. For each case, a table is solved (populating the near
/// memo), then a same-bucket perturbed table's stretch is iterated to its
/// fixed point twice — once seeded cold, once seeded from the cached
/// neighbour — and the two fixed points must agree.
#[test]
fn near_seeded_stretch_converges_to_the_cold_fixed_point() {
    let cfg = StretchConfig::exhaustive();
    let online = OnlineScheduler::new();
    let max_delta = |a: &adaptive_dvfs::sched::SpeedAssignment,
                     b: &adaptive_dvfs::sched::SpeedAssignment,
                     ctx: &SchedContext| {
        ctx.ctg()
            .tasks()
            .map(|t| (a.speed(t) - b.speed(t)).abs())
            .fold(0.0f64, f64::max)
    };
    let settle = |ctx: &SchedContext,
                  table: &BranchProbs,
                  schedule: &adaptive_dvfs::sched::Schedule,
                  start: adaptive_dvfs::sched::SpeedAssignment| {
        let mut cur = start;
        for _ in 0..50 {
            let next = stretch_schedule_seeded(ctx, table, schedule, &cfg, &cur).unwrap();
            let delta = max_delta(&next, &cur, ctx);
            cur = next;
            if delta < FIXED_POINT_TOL {
                return cur;
            }
        }
        panic!("seeded stretch never settled");
    };
    for (seed, a, c, cat, pes) in [CASES[1], CASES[4]] {
        let ctx = build_context(seed, a, c, cat, pes);
        let base = drift_table(ctx.ctg(), 3);

        // Solve the base table with the near memo on (quantum wide enough
        // that a small perturbation lands in the same bucket)…
        let mut ws = SolverWorkspace::new();
        ws.set_near_memo(0.15, 16);
        online.solve_with_workspace(&ctx, &base, &mut ws).unwrap();

        // …then perturb every branch by sub-quantum amounts.
        let mut near_table = BranchProbs::new();
        for &b in ctx.ctg().branch_nodes() {
            let dist = base.distribution(b).unwrap();
            let k = dist.len();
            let mut d: Vec<f64> = dist.to_vec();
            d[0] += 0.001 * (k - 1) as f64;
            for p in d.iter_mut().skip(1) {
                *p -= 0.001;
            }
            near_table.set(b, d).unwrap();
        }
        let stretch_cfg = online.config();
        let seed_speeds = ws
            .near_seed(&ctx, &near_table, stretch_cfg)
            .expect("perturbed table shares the bucket")
            .clone();

        let schedule = dls_schedule(&ctx, &near_table).unwrap();
        let cold_start = stretch_schedule(&ctx, &near_table, &schedule, &cfg).unwrap();
        let cold_fp = settle(&ctx, &near_table, &schedule, cold_start);
        let seeded_fp = settle(&ctx, &near_table, &schedule, seed_speeds);
        // The stretcher stops once a sweep grants less than 1e-9 × deadline
        // of slack, so iteration stalls on a small plateau around the true
        // fixed point rather than at a single point; different starting
        // speeds stall within ~1e-3 of each other. The property pinned here
        // is tolerance-level agreement (which is exactly what a caller of
        // `near_seed` + `stretch_schedule_seeded` signs up for), not
        // bitwise equality — the default solve path never takes this
        // shortcut.
        let delta = max_delta(&cold_fp, &seeded_fp, &ctx);
        assert!(
            delta < 5e-3,
            "seed {seed}: near-seeded fixed point diverges from cold by {delta}"
        );
    }
}
