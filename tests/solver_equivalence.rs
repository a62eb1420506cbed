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

/// Adopted drift tables *never repeat consecutively* — the manager only
/// adopts when the estimate drifted beyond the threshold from the table in
/// force — so a memo of the last solve would never answer on a drift run.
/// An unchanged consecutive repeat still costs no graph build: DLS returns
/// the same mapping and the pool answers, bit-identically.
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
    let mut plain = SolverWorkspace::new();
    for table in &adopted {
        online
            .solve_with_workspace(&ctx, table, &mut plain)
            .unwrap();
    }
    // Doubled replay: every unchanged consecutive repeat is a pool hit.
    let mut ws = SolverWorkspace::new();
    for table in &adopted {
        let first = online.solve_with_workspace(&ctx, table, &mut ws).unwrap();
        let again = online.solve_with_workspace(&ctx, table, &mut ws).unwrap();
        assert_eq!(first, again, "a repeated solve must be identical");
    }
    let (plain, doubled) = (plain.stats(), ws.stats());
    assert_eq!(doubled.graph_rebuilds, plain.graph_rebuilds);
    assert_eq!(
        doubled.graph_reuses,
        plain.graph_reuses + adopted.len(),
        "exactly one extra pool hit per unchanged consecutive repeat"
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

/// Budget-verdict parity between a cold solve of `a` and two graph-pool
/// hits on it — an unchanged repeat, and a revisit after `b` — for a
/// sweep of budgets around the cold solve's cost: success with the same
/// bits, or an abort against the same budget. A pool hit re-charges the
/// pooled enumeration cost in one step, so a deeply short budget can
/// report more `spent` than the cold path's first crossing charge; the
/// payload is pinned only at the `cost - 1` boundary, where every path
/// crosses on its final charge.
fn assert_budget_verdicts_agree(
    online: &OnlineScheduler,
    ctx: &SchedContext,
    a: &BranchProbs,
    b: &BranchProbs,
) {
    let mut probe = SolverWorkspace::new();
    online.solve_with_workspace(ctx, a, &mut probe).unwrap();
    let cost = probe.last_solve_cost().unwrap();
    assert!(cost > 2);

    for budget in [0, 1, cost / 2, cost - 1, cost, cost + 1] {
        let mut cold_ws = SolverWorkspace::new();
        cold_ws.set_budget(Some(budget));
        let mut results = vec![("cold", online.solve_with_workspace(ctx, a, &mut cold_ws))];
        for (path, before) in [("repeat", vec![a]), ("revisit", vec![a, b])] {
            let mut ws = SolverWorkspace::new();
            for t in before {
                online.solve_with_workspace(ctx, t, &mut ws).unwrap();
            }
            let reuses = ws.stats().graph_reuses;
            ws.set_budget(Some(budget));
            let res = online.solve_with_workspace(ctx, a, &mut ws);
            if res.is_ok() {
                assert_eq!(ws.stats().graph_reuses, reuses + 1, "{path}: a pool hit");
            }
            results.push((path, res));
        }

        let cold = &results[0].1;
        for (path, res) in &results {
            if budget >= cost {
                assert!(cold.is_ok(), "budget {budget} covers cost {cost}");
                assert_solutions_identical(ctx, a, cold, res, &format!("budget {budget} {path}"));
            } else {
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
            if budget == cost - 1 {
                assert_eq!(cold, res, "boundary abort payloads ({path})");
            }
        }
    }
}

#[test]
fn budget_verdicts_agree_across_cold_and_pool_paths() {
    let online = OnlineScheduler::new();
    let ctx = build_context(11, 24, 3, Category::ForkJoin, 3);
    let a = drift_table(ctx.ctg(), 2);
    let b = drift_table(ctx.ctg(), 5);
    assert_budget_verdicts_agree(&online, &ctx, &a, &b);
}

/// The same parity when the path enumeration overflows its cap, where the
/// pool hit re-charges a pooled `None` entry's enumeration cost.
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
    assert_budget_verdicts_agree(&online, &ctx, &a, &b);
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

/// Warm-starting the stretch from a neighbouring table's speeds reaches
/// the *same* fixed point as iterating from the cold solution: seeding
/// [`stretch_schedule_seeded`] with a nearby solve is a tolerance-level
/// shortcut, not a different answer. For each case, a table is solved,
/// then a slightly perturbed table's stretch is iterated to its fixed
/// point twice — once seeded cold, once seeded from the neighbour's
/// speeds — and the two fixed points must agree.
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

        // Solve the base table…
        let seed_speeds = online.solve(&ctx, &base).unwrap().speeds;

        // …then perturb every branch slightly.
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

        let schedule = dls_schedule(&ctx, &near_table).unwrap();
        let cold_start = stretch_schedule(&ctx, &near_table, &schedule, &cfg).unwrap();
        let cold_fp = settle(&ctx, &near_table, &schedule, cold_start);
        let seeded_fp = settle(&ctx, &near_table, &schedule, seed_speeds);
        // The stretcher stops once a sweep grants less than 1e-9 × deadline
        // of slack, so iteration stalls on a small plateau around the true
        // fixed point rather than at a single point; different starting
        // speeds stall within ~1e-3 of each other. The property pinned here
        // is tolerance-level agreement (which is exactly what a caller of
        // `stretch_schedule_seeded` signs up for), not bitwise equality —
        // the default solve path never takes this shortcut.
        let delta = max_delta(&cold_fp, &seeded_fp, &ctx);
        assert!(
            delta < 5e-3,
            "seed {seed}: near-seeded fixed point diverges from cold by {delta}"
        );
    }
}
