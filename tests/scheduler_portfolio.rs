//! Contract tests for the scheduler kinds and portfolio racing.
//!
//! * **Kind pin** — [`SchedulerKind::Dls`] must be bit-for-bit identical
//!   to the seed [`OnlineScheduler`] pipeline on both TGFF families, cold
//!   and through one warm workspace.
//! * **Frame pin** — [`SchedulerKind::FrameDvfs`], mapping through a
//!   workspace that other kinds solving other tables share, must equal a
//!   cold DLS mapping plus the frame level search, bit for bit, on both
//!   TGFF families and MPEG, errors included.
//! * **Race verdict** — a portfolio race adopts exactly its winner's own
//!   plan and never loses to the DLS entry, and the serve engine's stream
//!   summaries and win counters survive any (workers × shards) split.
//! * **Dormant knob** — a `RunConfig` without a portfolio (or with the
//!   explicit DLS-only selection, which normalizes to the same thing)
//!   reproduces the historic pipeline bit-for-bit.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, DecisionVector};
use adaptive_dvfs::platform::Platform;
use adaptive_dvfs::sched::{
    dls_schedule, race_portfolio, validate_solution, AdaptiveScheduler, OnlineScheduler,
    PortfolioStats, SchedContext, SchedError, SchedulerKind, Solution, SolverWorkspace,
    SpeedAssignment, DEFAULT_PORTFOLIO, FRAME_SPEED_LEVELS,
};
use adaptive_dvfs::sim::serve::{run_serve, CacheMode, ServeConfig, StreamSpec};
use adaptive_dvfs::sim::{RunConfig, Runner};
use adaptive_dvfs::tgff::{Category, TgffConfig};
use adaptive_dvfs::workloads::mpeg;
use adaptive_dvfs::workloads::traces::{self, DriftProfile};

/// `(seed, num_tasks, num_branches, category, num_pes)` spanning both
/// generator families.
const CASES: [(u64, usize, usize, Category, usize); 4] = [
    (31, 24, 3, Category::ForkJoin, 3),
    (32, 18, 2, Category::ForkJoin, 2),
    (41, 20, 2, Category::Layered, 3),
    (42, 26, 3, Category::Layered, 2),
];

/// `ctg` on `platform`, its deadline twice the DLS makespan under `probs`.
fn calibrated(ctg: Ctg, platform: Platform, probs: &BranchProbs) -> SchedContext {
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let makespan = dls_schedule(&ctx, probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

fn build_context(
    seed: u64,
    a: usize,
    c: usize,
    cat: Category,
    pes: usize,
) -> (SchedContext, BranchProbs) {
    let cfg = TgffConfig::new(seed, a, c, cat);
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, pes);
    let ctx = calibrated(generated.ctg, platform, &generated.probs);
    (ctx, generated.probs)
}

/// Deterministic drifting table sequence (pure integer arithmetic).
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

fn assert_bit_identical(
    ctx: &SchedContext,
    probs: &BranchProbs,
    a: &adaptive_dvfs::sched::Solution,
    b: &adaptive_dvfs::sched::Solution,
    label: &str,
) {
    assert_eq!(a.schedule, b.schedule, "{label}: schedules diverged");
    for t in ctx.ctg().tasks() {
        assert_eq!(
            a.speeds.speed(t).to_bits(),
            b.speeds.speed(t).to_bits(),
            "{label}: speed bits diverged for task {t}"
        );
    }
    assert_eq!(
        a.expected_energy(ctx, probs).to_bits(),
        b.expected_energy(ctx, probs).to_bits(),
        "{label}: energy bits diverged"
    );
}

/// The kind pin: the DLS kind is the seed pipeline, bit-for-bit, on both
/// TGFF families — cold and through one warm workspace.
#[test]
fn dls_kind_is_bit_identical_to_online_scheduler() {
    for &(seed, a, c, cat, pes) in &CASES {
        let (ctx, gen_probs) = build_context(seed, a, c, cat, pes);
        let tables =
            std::iter::once(gen_probs).chain((0..6).map(|step| drift_table(ctx.ctg(), step)));
        let mut ws = SolverWorkspace::new();
        for (i, probs) in tables.enumerate() {
            let label = format!("case {seed} table {i}");
            let online = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
            let cold = SchedulerKind::Dls.solve(&ctx, &probs).unwrap();
            assert_bit_identical(&ctx, &probs, &online, &cold, &label);
            let warm = SchedulerKind::Dls
                .solve_with_workspace(&ctx, &probs, &mut ws)
                .unwrap();
            assert_bit_identical(&ctx, &probs, &online, &warm, &format!("warm {label}"));
        }
    }
}

/// The frame kind's cold reference: the DLS schedule at the lowest of the
/// uniform frame levels whose worst-case makespan meets the deadline, else
/// the nominal-speed worst case as the error.
fn cold_frame(ctx: &SchedContext, probs: &BranchProbs) -> Result<Solution, SchedError> {
    let schedule = dls_schedule(ctx, probs)?;
    let n = ctx.ctg().num_tasks();
    let deadline = ctx.ctg().deadline();
    let at = |speeds: SpeedAssignment| Solution {
        schedule: schedule.clone(),
        speeds,
    };
    for k in 1..=FRAME_SPEED_LEVELS {
        let plan = at(SpeedAssignment::new(vec![
            k as f64
                / FRAME_SPEED_LEVELS as f64;
            n
        ]));
        if plan.worst_case_makespan(ctx) <= deadline + 1e-9 {
            return Ok(plan);
        }
    }
    let makespan = at(SpeedAssignment::nominal(n)).worst_case_makespan(ctx);
    Err(SchedError::DeadlineUnreachable { makespan, deadline })
}

/// Before each frame solve, DLS, HEFT and lookahead solve other drift
/// tables through `ws`, so the frame kind's mapping starts from levels
/// another table left behind.
fn frame_after_other_kinds(
    ctx: &SchedContext,
    step: usize,
    ws: &mut SolverWorkspace,
) -> Result<Solution, SchedError> {
    let others = [
        SchedulerKind::Dls,
        SchedulerKind::Heft,
        SchedulerKind::Lookahead,
    ];
    for (offset, kind) in (1..).zip(others) {
        // A too-tight deadline fails these too; the frame result is what
        // is pinned.
        let _ = kind.solve_with_workspace(ctx, &drift_table(ctx.ctg(), step + offset), ws);
    }
    SchedulerKind::FrameDvfs.solve_with_workspace(ctx, &drift_table(ctx.ctg(), step), ws)
}

/// The frame pin: the frame kind maps through one long-lived workspace
/// shared with DLS, HEFT and lookahead solves of other drift tables, and
/// still equals its cold reference bit for bit on both TGFF families and
/// MPEG. On a too-tight deadline it returns the reference's
/// `DeadlineUnreachable` payload.
#[test]
fn frame_kind_through_a_shared_workspace_matches_its_cold_reference() {
    let mut contexts: Vec<(String, SchedContext)> = CASES
        .iter()
        .map(|&(seed, a, c, cat, pes)| {
            (
                format!("case {seed}"),
                build_context(seed, a, c, cat, pes).0,
            )
        })
        .collect();
    let mpeg_ctg = mpeg::mpeg_ctg();
    let mpeg_platform = mpeg::mpeg_platform(&mpeg_ctg);
    let uniform = BranchProbs::uniform(&mpeg_ctg);
    contexts.push((
        "mpeg".to_string(),
        calibrated(mpeg_ctg, mpeg_platform, &uniform),
    ));
    for (name, ctx) in &contexts {
        let mut ws = SolverWorkspace::new();
        for step in 0..8 {
            let label = format!("{name} step {step}");
            let probs = drift_table(ctx.ctg(), step);
            let frame = frame_after_other_kinds(ctx, step, &mut ws)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let reference = cold_frame(ctx, &probs).unwrap();
            assert_bit_identical(ctx, &probs, &reference, &frame, &label);
        }

        let tight =
            SchedContext::new(ctx.ctg().with_deadline(1e-3), ctx.platform().clone()).unwrap();
        let mut ws = SolverWorkspace::new();
        for step in 0..2 {
            let err = frame_after_other_kinds(&tight, step, &mut ws).unwrap_err();
            let reference = cold_frame(&tight, &drift_table(ctx.ctg(), step)).unwrap_err();
            assert!(
                matches!(reference, SchedError::DeadlineUnreachable { .. }),
                "{name}: {reference}"
            );
            assert_eq!(err, reference, "{name} tight step {step}");
        }
    }
}

/// Every kind must return a valid, deadline-feasible plan on every case
/// of both families.
#[test]
fn every_scheduler_kind_solves_both_families() {
    for &(seed, a, c, cat, pes) in &CASES {
        let (ctx, probs) = build_context(seed, a, c, cat, pes);
        for kind in SchedulerKind::ALL {
            let sol = kind
                .solve(&ctx, &probs)
                .unwrap_or_else(|e| panic!("{kind} fails on case {seed}: {e}"));
            validate_solution(&ctx, &sol.schedule, &sol.speeds)
                .unwrap_or_else(|v| panic!("{kind} invalid on case {seed}: {v}"));
            assert!(
                sol.worst_case_makespan(&ctx) <= ctx.ctg().deadline() + 1e-6,
                "{kind} misses the deadline on case {seed}"
            );
        }
    }
}

/// The race verdict folds in entry order as each entry solves: the adopted
/// plan is bit for bit the winner's own solve, priced at that plan's
/// expected energy, and the winner never loses to the DLS entry.
#[test]
fn portfolio_race_adopts_the_winners_own_plan() {
    for &(seed, a, c, cat, pes) in &CASES[..2] {
        let (ctx, _) = build_context(seed, a, c, cat, pes);
        for step in 0..8 {
            let probs = drift_table(ctx.ctg(), step);
            let mut ws = SolverWorkspace::new();
            let mut stats = PortfolioStats::default();
            let out =
                race_portfolio(&DEFAULT_PORTFOLIO, &ctx, &probs, &mut ws, &mut stats).unwrap();
            let label = format!("race case {seed} step {step}");
            let dls = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
            assert!(
                out.energy <= dls.expected_energy(&ctx, &probs) + 1e-9,
                "{label}: race lost to DLS"
            );
            let own = DEFAULT_PORTFOLIO[out.winner].solve(&ctx, &probs).unwrap();
            assert_bit_identical(&ctx, &probs, &own, &out.solution, &label);
            assert_eq!(
                out.energy.to_bits(),
                own.expected_energy(&ctx, &probs).to_bits(),
                "{label}: adopted energy is not the winner's"
            );
        }
    }
}

/// The race verdict with every entry solving through a fresh workspace:
/// the lowest expected energy among schedulable plans (ties keep the
/// earliest entry), else the lowest worst-case makespan. Also returns the
/// entries whose schedule and speed policy no earlier entry produced.
fn cold_race(
    kinds: &[SchedulerKind],
    ctx: &SchedContext,
    probs: &BranchProbs,
) -> (usize, Solution, f64, usize) {
    let deadline = ctx.ctg().deadline();
    let plans: Vec<(usize, Solution)> = kinds
        .iter()
        .enumerate()
        .filter_map(|(i, kind)| kind.solve(ctx, probs).ok().map(|sol| (i, sol)))
        .collect();
    let frame = |i: usize| kinds[i] == SchedulerKind::FrameDvfs;
    let fresh = plans
        .iter()
        .enumerate()
        .filter(|&(at, (i, sol))| {
            !plans[..at]
                .iter()
                .any(|(j, p)| frame(*j) == frame(*i) && p.schedule == sol.schedule)
        })
        .count();
    let schedulable = plans
        .iter()
        .filter(|(_, sol)| sol.worst_case_makespan(ctx) <= deadline + 1e-6)
        .map(|(i, sol)| (*i, sol, sol.expected_energy(ctx, probs)))
        .fold(
            None,
            |best: Option<(usize, &Solution, f64)>, c| match best {
                Some(b) if c.2 >= b.2 => Some(b),
                _ => Some(c),
            },
        );
    let (i, sol, energy) = schedulable.unwrap_or_else(|| {
        let (i, sol) = plans
            .iter()
            .fold(None, |best: Option<&(usize, Solution)>, c| match best {
                Some(b) if c.1.worst_case_makespan(ctx) >= b.1.worst_case_makespan(ctx) => Some(b),
                _ => Some(c),
            })
            .expect("some entry solves");
        (*i, sol, sol.expected_energy(ctx, probs))
    });
    (i, sol.clone(), energy, fresh)
}

/// Two cases whose race entries produce mappings with one assignment and
/// different per-PE orders, so a graph pool keyed on the assignment alone
/// would hand some entry another mapping's graph and change the winner's
/// plan.
const SHARED_POOL_CASES: [(u64, usize, usize, Category, usize); 2] = [
    (66, 22, 2, Category::ForkJoin, 2),
    (73, 21, 3, Category::Layered, 3),
];

/// One long-lived workspace shared by every entry of every race returns
/// what races of cold entries do, over a drift sequence that revisits its
/// tables, and each distinct plan of a race is stretched and judged once:
/// the entries that stretch are exactly those whose schedule and speed
/// policy no earlier entry of the race produced. In the default
/// portfolio HEFT and lookahead sometimes map alike (on case 66), and its
/// graph pool serves mappings across entries and races: it builds fewer
/// graphs than the entries stretch. In `[heft, lookahead, heft]` and `[dls, dls]` the
/// repeat neither stretches nor wins.
#[test]
fn races_through_one_shared_workspace_match_races_of_cold_entries() {
    use SchedulerKind::{Dls, Heft, Lookahead};
    let portfolios: [&[SchedulerKind]; 3] =
        [&DEFAULT_PORTFOLIO, &[Heft, Lookahead, Heft], &[Dls, Dls]];
    let mut default_skips = 0;
    for &(seed, a, c, cat, pes) in &SHARED_POOL_CASES {
        let (ctx, _) = build_context(seed, a, c, cat, pes);
        for kinds in portfolios {
            let repeat = kinds != DEFAULT_PORTFOLIO;
            let mut ws = SolverWorkspace::new();
            let mut races = PortfolioStats::default();
            let mut wins = [0; SchedulerKind::COUNT];
            let mut fresh = 0;
            let steps = 20;
            for step in 0..steps {
                let probs = drift_table(ctx.ctg(), step);
                let label = format!("case {seed} {kinds:?} step {step}");
                let shared = race_portfolio(kinds, &ctx, &probs, &mut ws, &mut races).unwrap();
                let (winner, plan, energy, entries) = cold_race(kinds, &ctx, &probs);
                wins[kinds[winner].index()] += 1;
                fresh += entries;
                assert_eq!(shared.winner, winner, "{label}: winners differ");
                assert_bit_identical(&ctx, &probs, &plan, &shared.solution, &label);
                assert_eq!(
                    shared.energy.to_bits(),
                    energy.to_bits(),
                    "{label}: energy bits differ"
                );
                if repeat {
                    assert!(entries < kinds.len(), "{label}: the repeat is new");
                    assert_ne!(winner, kinds.len() - 1, "{label}: the repeat won");
                }
            }
            assert_eq!(races, PortfolioStats { races: steps, wins });
            let stats = ws.stats();
            let stretched = stats.graph_reuses + stats.graph_rebuilds;
            let label = format!("case {seed} {kinds:?}");
            assert_eq!(stretched, fresh, "{label}: {stats:?}");
            if !repeat {
                default_skips += kinds.len() * steps - fresh;
                assert!(
                    stats.graph_rebuilds < stretched,
                    "{label}: the shared pool must serve some entries: {stats:?}"
                );
            }
        }
    }
    assert!(default_skips > 0, "HEFT and lookahead never map alike");
}

fn drifty_streams(ctx: &SchedContext, n: usize, len: usize) -> Vec<StreamSpec> {
    (0..n)
        .map(|i| {
            let trace: Vec<DecisionVector> =
                traces::generate_trace(ctx.ctg(), &DriftProfile::new(0xCAFE + i as u64), len);
            let initial = {
                // Empirical profile of the head, like the serve benches.
                let mut mgr =
                    AdaptiveScheduler::new(ctx, BranchProbs::uniform(ctx.ctg()), 8, 0.3).unwrap();
                for v in &trace[..len.min(16)] {
                    mgr.observe(ctx, v).unwrap();
                }
                mgr.current_probs().clone()
            };
            StreamSpec {
                trace,
                initial_probs: initial,
                window: 6,
                threshold: 0.25,
                fault_plan: None,
                criticality: 0,
            }
        })
        .collect()
}

/// The serve engine's portfolio matrix: stream summaries, race counts and
/// per-scheduler win counters are bit-identical across every
/// (workers × shards) split.
#[test]
fn serve_portfolio_matrix_is_bit_identical() {
    let (ctx, _) = build_context(31, 24, 3, Category::ForkJoin, 3);
    let specs = drifty_streams(&ctx, 6, 48);
    let cfg = |workers: usize, shards: usize| ServeConfig {
        workers,
        shards,
        cache: CacheMode::Off,
        portfolio: Some(DEFAULT_PORTFOLIO.to_vec()),
        ..ServeConfig::default()
    };
    let reference = run_serve(&ctx, &specs, &cfg(1, 1)).unwrap();
    assert!(
        reference.stats.portfolio_races > 0,
        "the matrix must actually race: {:?}",
        reference.stats
    );
    for (workers, shards) in [(2, 3), (2, 6), (4, 6)] {
        let report = run_serve(&ctx, &specs, &cfg(workers, shards)).unwrap();
        assert_eq!(
            report.streams, reference.streams,
            "streams diverged at workers={workers} shards={shards}"
        );
        for (a, b) in report.streams.iter().zip(&reference.streams) {
            assert_eq!(
                a.exec.total_energy.to_bits(),
                b.exec.total_energy.to_bits(),
                "energy bits diverged at workers={workers} shards={shards}"
            );
        }
        assert_eq!(
            report.stats.portfolio_races,
            reference.stats.portfolio_races
        );
        assert_eq!(report.stats.portfolio_wins, reference.stats.portfolio_wins);
    }
}

/// The adaptive manager's portfolio mode never regresses the DLS-only
/// manager on a drifting trace, races on every adoption, and reproduces
/// its outputs bit for bit on a second, fresh manager.
#[test]
fn adaptive_portfolio_never_regresses_and_is_deterministic() {
    let (ctx, _) = build_context(41, 20, 2, Category::Layered, 3);
    let trace = traces::generate_trace(ctx.ctg(), &DriftProfile::new(0xD01F), 160);
    let initial = BranchProbs::uniform(ctx.ctg());

    let mgr = AdaptiveScheduler::new(&ctx, initial.clone(), 6, 0.25).unwrap();
    let (dls_only, _) = Runner::new(RunConfig::new())
        .run_adaptive(&ctx, mgr, &trace)
        .unwrap();

    let mut summaries = Vec::new();
    for _ in 0..2 {
        let mgr = AdaptiveScheduler::new(&ctx, initial.clone(), 6, 0.25).unwrap();
        let (summary, mgr) = Runner::new(RunConfig::new().portfolio(&DEFAULT_PORTFOLIO))
            .run_adaptive(&ctx, mgr, &trace)
            .unwrap();
        assert!(mgr.portfolio_enabled());
        let stats = mgr.portfolio_stats();
        assert_eq!(stats.races, summary.reschedules, "every adoption raced");
        summaries.push(summary);
    }
    for s in &summaries[1..] {
        assert_eq!(
            s.exec.total_energy.to_bits(),
            summaries[0].exec.total_energy.to_bits(),
            "portfolio energy must reproduce across managers"
        );
        assert_eq!(s.reschedules, summaries[0].reschedules);
    }
    assert!(
        summaries[0].avg_energy() <= dls_only.avg_energy() + 1e-9,
        "portfolio regressed the DLS-only manager: {} > {}",
        summaries[0].avg_energy(),
        dls_only.avg_energy()
    );
}

/// The dormant knob: no portfolio, the explicit DLS-only selection and a
/// cleared portfolio are all the same bits.
#[test]
fn dormant_portfolio_knob_is_bit_exact() {
    let (ctx, _) = build_context(32, 18, 2, Category::ForkJoin, 2);
    let trace = traces::generate_trace(ctx.ctg(), &DriftProfile::new(0xBEEF), 120);
    let initial = BranchProbs::uniform(ctx.ctg());

    let run = |cfg: RunConfig| {
        let mgr = AdaptiveScheduler::new(&ctx, initial.clone(), 6, 0.25).unwrap();
        Runner::new(cfg).run_adaptive(&ctx, mgr, &trace).unwrap().0
    };
    let plain = run(RunConfig::new());
    let dls_selected = run(RunConfig::new().scheduler(SchedulerKind::Dls));
    let cleared = run(RunConfig::new()
        .portfolio(&DEFAULT_PORTFOLIO)
        .portfolio(&[]));

    for (label, summary) in [
        ("scheduler(Dls)", &dls_selected),
        ("portfolio cleared", &cleared),
    ] {
        assert_eq!(
            summary.exec.total_energy.to_bits(),
            plain.exec.total_energy.to_bits(),
            "{label}: energy bits diverged from the plain pipeline"
        );
        assert_eq!(summary.reschedules, plain.reschedules, "{label}");
        assert_eq!(summary.exec.instances, plain.exec.instances, "{label}");
    }

    // The selection normalizer behind the builders: DLS-only is the
    // historic pipeline, not a one-entry race.
    assert_eq!(
        RunConfig::new().scheduler(SchedulerKind::Dls).portfolio,
        None
    );
    assert_eq!(
        RunConfig::new().scheduler(SchedulerKind::Heft).portfolio,
        Some(vec![SchedulerKind::Heft])
    );
}
