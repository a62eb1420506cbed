//! Pins the stretcher to the paper's Fig. 2 heuristic written plainly
//! against the public path view.
//!
//! The library stretches over the scheduled graph's flat path store: each
//! task's spanning paths scanned through the walk's node ranges, folded
//! per minterm group as the scan meets them, `prob(p, τ)` priced once per
//! suffix of each distinct guard-literal sequence (paths with the same
//! pending literals share the price), slack ratios cached per path, and
//! every task on a saturated path (one at most the grant threshold from
//! the deadline) skipped without a scan. The reference below derives the
//! same quantities the obvious way — spanning paths by [`SPath::spans`],
//! groups by [`SPath::cond`] equality in first-occurrence order,
//! [`SPath::prob_after`], [`SchedContext::task_prob`], the slack ratio
//! `(D − d) / d` and the last of equal minima — scans every task, and
//! every speed must match bit for bit: cold and seeded, under the default,
//! single-pass and exhaustive configurations, on DLS, HEFT and lookahead
//! plans, through a warm [`SolverWorkspace`], at the skip's edges
//! (deadlines a hair above the critical delay, and seeds that start at the
//! deadline), and on a graph built so that two paths of one group tie.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, CtgBuilder, TaskId};
use adaptive_dvfs::platform::{Platform, PlatformBuilder};
use adaptive_dvfs::rng::Rng64;
use adaptive_dvfs::sched::{
    dls_schedule, stretch_schedule, stretch_schedule_seeded, OnlineScheduler, SPath, SchedContext,
    Schedule, ScheduledGraph, SchedulerKind, SolverWorkspace, SpeedAssignment, StretchConfig,
};
use adaptive_dvfs::tgff::{table1_cases, table45_cases, Category, TgffConfig};
use adaptive_dvfs::workloads::{cruise, mpeg, wlan};

/// Probabilities this close to 0 or 1 count as impossible or certain.
const EPS: f64 = 1e-9;

/// Which member of a group a slack scan picks among paths with bit-equal
/// minimum slack ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tie {
    /// The last in path order: Fig. 2 as the library implements it.
    Last,
    /// The first in path order, the flipped rule.
    First,
}

/// Fig. 2: stretch every task in scheduling order by its probability-
/// weighted share of the slack of its critical spanning paths, capped so
/// no spanning path misses the deadline, for `cfg.sweeps` sweeps.
fn reference_speeds(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
    seed: Option<&SpeedAssignment>,
) -> SpeedAssignment {
    reference_speeds_with(ctx, probs, schedule, cfg, seed, Tie::Last)
}

/// [`reference_speeds`] with the critical member of a group chosen by
/// `tie` among equal minima.
fn reference_speeds_with(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
    seed: Option<&SpeedAssignment>,
    tie: Tie,
) -> SpeedAssignment {
    let graph = ScheduledGraph::build(ctx, schedule, probs, cfg.path_cap)
        .expect("reference inputs stay under the path cap");
    let paths: Vec<SPath> = graph.paths().collect();
    let deadline = ctx.ctg().deadline();
    let profile = ctx.platform().profile();
    let wcet = |t: TaskId| profile.wcet(t.index(), schedule.pe_of(t));
    let ratio = |d: f64| if d <= 0.0 { 0.0 } else { (deadline - d) / d };
    let n = ctx.ctg().num_tasks();

    // Per task: `prob(τ)`, its spanning paths, and those grouped by minterm
    // with each member's `prob(p, τ)` (all independent of the sweeps'
    // state).
    let task_prob: Vec<f64> = ctx.ctg().tasks().map(|t| ctx.task_prob(t, probs)).collect();
    let spanning: Vec<Vec<usize>> = ctx
        .ctg()
        .tasks()
        .map(|t| (0..paths.len()).filter(|&i| paths[i].spans(t)).collect())
        .collect();
    let groups: Vec<Vec<Vec<(usize, f64)>>> = ctx
        .ctg()
        .tasks()
        .map(|t| {
            let mut groups: Vec<Vec<(usize, f64)>> = Vec::new();
            for &i in &spanning[t.index()] {
                let member = (i, paths[i].prob_after(t, probs));
                match groups
                    .iter_mut()
                    .find(|g| paths[g[0].0].cond() == paths[i].cond())
                {
                    Some(g) => g.push(member),
                    None => groups.push(vec![member]),
                }
            }
            groups
        })
        .collect();

    let mut delay: Vec<f64> = paths.iter().map(|p| p.delay()).collect();
    let mut extra = vec![0.0_f64; n];
    if let Some(seed) = seed {
        for t in ctx.ctg().tasks() {
            let s = seed.speed(t);
            if s < 1.0 {
                extra[t.index()] = wcet(t) * (1.0 / s - 1.0);
                for &i in &spanning[t.index()] {
                    delay[i] += extra[t.index()];
                }
            }
        }
    }

    let max_sweeps = StretchConfig::exhaustive().sweeps;
    for _ in 0..cfg.sweeps.clamp(1, max_sweeps) {
        let mut granted = 0.0;
        for &t in schedule.task_order() {
            let w = wcet(t);
            let task_prob = task_prob[t.index()];
            if w <= 0.0 || spanning[t.index()].is_empty() || task_prob <= 0.0 {
                continue;
            }
            // The member with the minimum slack ratio (among equal minima
            // the one `tie` names) and that ratio.
            let last_min = |members: &[(usize, f64)]| {
                let mut best = (members[0], ratio(delay[members[0].0]));
                for &m in &members[1..] {
                    let r = ratio(delay[m.0]);
                    if r < best.1 || (tie == Tie::Last && r == best.1) {
                        best = (m, r);
                    }
                }
                best
            };
            let (mut slk1, mut any1) = (0.0, false);
            let (mut slk2, mut any2) = (f64::INFINITY, false);
            for g in &groups[t.index()] {
                let group_prob = paths[g[0].0].prob();
                if group_prob <= EPS {
                    continue;
                }
                if group_prob + EPS >= 1.0 {
                    slk2 = slk2.min(w * last_min(g).1 * task_prob);
                    any2 = true;
                } else {
                    // The critical path among those whose remaining forks
                    // are still undecided at τ (all of them when none is).
                    let undecided: Vec<(usize, f64)> =
                        g.iter().copied().filter(|m| m.1 < 1.0 - EPS).collect();
                    let ((_, prob_after), ratio) =
                        last_min(if undecided.is_empty() { g } else { &undecided });
                    slk1 += prob_after * w * ratio * task_prob;
                    any1 = true;
                }
            }
            let slack = match (any1, any2) {
                (true, true) => slk1.min(slk2),
                (true, false) => slk1,
                (false, true) => slk2,
                (false, false) => 0.0,
            };
            let deadline_cap = spanning[t.index()]
                .iter()
                .map(|&i| deadline - delay[i])
                .fold(f64::INFINITY, f64::min);
            let max_total = w * (1.0 / cfg.min_speed - 1.0);
            let slack = slack
                .min(deadline_cap)
                .min(max_total - extra[t.index()])
                .max(0.0);
            if slack <= 1e-12 {
                continue;
            }
            extra[t.index()] += slack;
            granted += slack;
            for &i in &spanning[t.index()] {
                delay[i] += slack;
            }
        }
        if granted <= 1e-9 * deadline {
            break;
        }
    }

    let mut speeds = SpeedAssignment::nominal(n);
    for t in ctx.ctg().tasks() {
        if extra[t.index()] > 0.0 {
            speeds.set(t, wcet(t) / (wcet(t) + extra[t.index()]));
        }
    }
    speeds
}

fn assert_same_bits(ctx: &SchedContext, want: &SpeedAssignment, got: &SpeedAssignment, at: &str) {
    for t in ctx.ctg().tasks() {
        assert_eq!(
            want.speed(t).to_bits(),
            got.speed(t).to_bits(),
            "{at}: speed of {t}: reference {} vs library {}",
            want.speed(t),
            got.speed(t)
        );
    }
}

/// A context whose deadline is twice the DLS makespan under uniform
/// probabilities.
fn calibrated(ctg: Ctg, platform: Platform) -> SchedContext {
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let makespan = dls_schedule(&ctx, &BranchProbs::uniform(ctx.ctg()))
        .unwrap()
        .makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

fn tgff_context((cfg, pes): (TgffConfig, usize)) -> SchedContext {
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, pes);
    calibrated(generated.ctg, platform)
}

/// Three independent sources, one of them a fork, joined at a sink: its
/// scheduled graph has more than one root, so the enumeration walks
/// several depth-first trees into one path store.
fn multi_root_context() -> SchedContext {
    let mut b = CtgBuilder::new("multi_root");
    let sources: Vec<TaskId> = (0..3).map(|i| b.add_task(format!("src{i}"))).collect();
    let x = b.add_task("x");
    let y = b.add_task("y");
    let z = b.add_task("z");
    let sink = b.add_task("sink");
    b.add_cond_edge(sources[0], x, 0, 1.0).unwrap();
    b.add_cond_edge(sources[0], y, 1, 2.0).unwrap();
    b.add_edge(sources[1], z, 1.0).unwrap();
    for &u in &[x, z, sources[2]] {
        b.add_edge(u, sink, 0.5).unwrap();
    }
    let ctg = b.deadline(1.0).build().unwrap();
    let cfg = TgffConfig::new(77, ctg.num_tasks(), 1, Category::ForkJoin);
    let platform = cfg.generate_platform(&ctg, 3);
    calibrated(ctg, platform)
}

/// The contexts, each with the number of random tables it is checked
/// under: one on MPEG, whose 700-odd paths dominate a debug build's run
/// time, two elsewhere.
fn contexts() -> Vec<(SchedContext, usize)> {
    let mpeg_ctg = mpeg::mpeg_ctg();
    let mpeg_platform = mpeg::mpeg_platform(&mpeg_ctg);
    let cruise_ctg = cruise::cruise_ctg();
    let cruise_platform = cruise::cruise_platform(&cruise_ctg);
    let wlan_ctg = wlan::wlan_ctg();
    let wlan_platform = wlan::wlan_platform(&wlan_ctg);
    let mut out = vec![
        (calibrated(mpeg_ctg, mpeg_platform), 1),
        (calibrated(cruise_ctg, cruise_platform), 2),
        (calibrated(wlan_ctg, wlan_platform), 2),
        (multi_root_context(), 2),
        // The widest input: 63 tasks against at most 25 in the Table-1/4/5
        // graphs, so stretching is also checked on a deep path tree.
        (
            tgff_context((TgffConfig::new(3, 63, 6, Category::ForkJoin), 4)),
            2,
        ),
    ];
    let tgff = table1_cases().into_iter().chain(table45_cases());
    out.extend(tgff.map(|case| (tgff_context(case), 2)));
    out
}

/// A seeded random table. Alternatives are occasionally starved to exactly
/// zero, so impossible minterms and never-active tasks occur too.
fn arb_table(ctg: &Ctg, rng: &mut Rng64) -> BranchProbs {
    let mut probs = BranchProbs::new();
    for &b in ctg.branch_nodes() {
        let k = ctg.node(b).alternatives() as usize;
        let mut weights: Vec<f64> = (0..k)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.gen_range(0.01..1.0)
                }
            })
            .collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[0] = 1.0;
        }
        let total: f64 = weights.iter().sum();
        probs
            .set(b, weights.into_iter().map(|w| w / total).collect())
            .unwrap();
    }
    probs
}

/// Roots of a scheduled graph: tasks no edge enters.
fn roots(ctx: &SchedContext, graph: &ScheduledGraph) -> usize {
    let mut entered = vec![false; ctx.ctg().num_tasks()];
    for e in graph.edges() {
        entered[e.dst.index()] = true;
    }
    entered.iter().filter(|&&e| !e).count()
}

#[test]
fn stretching_matches_the_plain_fig2_reference_bit_for_bit() {
    let configs = [
        ("default", StretchConfig::default()),
        ("single-pass", StretchConfig::single_pass()),
        ("exhaustive", StretchConfig::exhaustive()),
    ];
    let kinds = [
        SchedulerKind::Dls,
        SchedulerKind::Heft,
        SchedulerKind::Lookahead,
    ];
    let contexts = contexts();
    assert_eq!(contexts.len(), 20);
    let mut rng = Rng64::seed_from_u64(0x5EED_F162);
    let (mut checked, mut multi_root) = (0, false);
    for (ctx, tables) in &contexts {
        let name = ctx.ctg().name();
        let mut workspaces: Vec<SolverWorkspace> =
            configs.iter().map(|_| SolverWorkspace::new()).collect();
        for table in 0..*tables {
            let probs = arb_table(ctx.ctg(), &mut rng);
            for kind in kinds {
                let Ok(plan) = kind.solve(ctx, &probs) else {
                    continue;
                };
                let schedule = &plan.schedule;
                let graph = ScheduledGraph::build(ctx, schedule, &probs, usize::MAX)
                    .expect("an uncapped build always enumerates");
                multi_root |= roots(ctx, &graph) > 1;
                for (label, cfg) in &configs {
                    let at = format!("{name} table {table} {kind} {label}");
                    let want = reference_speeds(ctx, &probs, schedule, cfg, None);
                    let got = stretch_schedule(ctx, &probs, schedule, cfg).unwrap();
                    assert_same_bits(ctx, &want, &got, &at);
                    let want = reference_speeds(ctx, &probs, schedule, cfg, Some(&plan.speeds));
                    let got =
                        stretch_schedule_seeded(ctx, &probs, schedule, cfg, &plan.speeds).unwrap();
                    assert_same_bits(ctx, &want, &got, &format!("{at} seeded"));
                    checked += 2;
                }
            }
            for ((label, cfg), ws) in configs.iter().zip(&mut workspaces) {
                let at = format!("{name} table {table} warm {label}");
                let Ok(sol) =
                    OnlineScheduler::with_config(cfg.clone()).solve_with_workspace(ctx, &probs, ws)
                else {
                    continue;
                };
                let want = reference_speeds(ctx, &probs, &sol.schedule, cfg, None);
                assert_same_bits(ctx, &want, &sol.speeds, &at);
                checked += 1;
            }
        }
    }
    assert!(
        multi_root,
        "no plan had a scheduled graph with several roots"
    );
    assert!(checked > 600, "only {checked} assignments checked");
}

/// Each path's delay once `seed`'s extensions are applied, added in the
/// order [`reference_speeds`] adds them (ascending task).
fn seeded_delays(
    ctx: &SchedContext,
    schedule: &Schedule,
    graph: &ScheduledGraph,
    seed: &SpeedAssignment,
) -> Vec<f64> {
    let profile = ctx.platform().profile();
    let mut delay: Vec<f64> = graph.paths().map(|p| p.delay()).collect();
    for t in ctx.ctg().tasks() {
        let s = seed.speed(t);
        if s < 1.0 {
            let extra = profile.wcet(t.index(), schedule.pe_of(t)) * (1.0 / s - 1.0);
            for (i, p) in graph.paths().enumerate() {
                if p.spans(t) {
                    delay[i] += extra;
                }
            }
        }
    }
    delay
}

/// The stretcher skips every task on a saturated path, one whose
/// remaining slack `D − delay` is at most the sweeps' grant threshold of
/// 1e-12. The skip is checked at its edges on the DLS, HEFT and lookahead
/// plans of MPEG, cruise and a Table 1 graph:
///
/// - against a deadline of the plan's critical delay plus δ. At δ = 0 and
///   5e-13 the critical path starts saturated; at 5e-10 it does not, and
///   its first task still takes the last 5e-10 (a looser saturation
///   threshold such as 1e-9 would skip that grant). Rounding at the
///   deadline's magnitude can move the realised slack, so it is asserted;
/// - seeded with the plan's own exhaustive speeds, a fixed point whose
///   critical paths sit at the deadline before the sweeps start.
///
/// Every speed must match the reference bit for bit.
#[test]
fn the_saturation_skip_is_exact_at_the_deadline() {
    const GRANT_EPS: f64 = 1e-12;
    let configs = [
        ("default", StretchConfig::default()),
        ("single-pass", StretchConfig::single_pass()),
        ("exhaustive", StretchConfig::exhaustive()),
    ];
    let mpeg_ctg = mpeg::mpeg_ctg();
    let mpeg_platform = mpeg::mpeg_platform(&mpeg_ctg);
    let cruise_ctg = cruise::cruise_ctg();
    let cruise_platform = cruise::cruise_platform(&cruise_ctg);
    let table1 = table1_cases()
        .into_iter()
        .next()
        .expect("Table 1 has graphs");
    let contexts = [
        calibrated(mpeg_ctg, mpeg_platform),
        calibrated(cruise_ctg, cruise_platform),
        tgff_context(table1),
    ];
    let mut rng = Rng64::seed_from_u64(0x0B10_C4ED);
    let (mut checked, mut seeded_saturated) = (0, 0);
    for ctx in &contexts {
        let name = ctx.ctg().name();
        let probs = arb_table(ctx.ctg(), &mut rng);
        for kind in [
            SchedulerKind::Dls,
            SchedulerKind::Heft,
            SchedulerKind::Lookahead,
        ] {
            let plan = kind
                .solve(ctx, &probs)
                .expect("calibrated deadlines are met");
            let schedule = &plan.schedule;
            let graph = ScheduledGraph::build(ctx, schedule, &probs, usize::MAX)
                .expect("an uncapped build always enumerates");
            let critical = graph.critical_delay();
            for delta in [0.0, 5e-13, 5e-10] {
                let deadline = critical + delta;
                let slack = deadline - critical;
                if delta < GRANT_EPS {
                    assert!(
                        slack <= GRANT_EPS,
                        "{name} {kind}: δ {delta} leaves {slack}"
                    );
                } else {
                    assert!(
                        slack > GRANT_EPS && slack < 1e-9,
                        "{name} {kind}: δ {delta} leaves {slack}"
                    );
                }
                let tight =
                    SchedContext::new(ctx.ctg().with_deadline(deadline), ctx.platform().clone())
                        .unwrap();
                for (label, cfg) in &configs {
                    let at = format!("{name} {kind} δ {delta} {label}");
                    let want = reference_speeds(&tight, &probs, schedule, cfg, None);
                    let got = stretch_schedule(&tight, &probs, schedule, cfg).unwrap();
                    assert_same_bits(&tight, &want, &got, &at);
                    checked += 1;
                }
            }
            let fixed =
                stretch_schedule(ctx, &probs, schedule, &StretchConfig::exhaustive()).unwrap();
            let deadline = ctx.ctg().deadline();
            seeded_saturated += seeded_delays(ctx, schedule, &graph, &fixed)
                .iter()
                .filter(|&&d| deadline - d <= GRANT_EPS)
                .count();
            for (label, cfg) in &configs {
                let at = format!("{name} {kind} seeded with its exhaustive speeds {label}");
                let want = reference_speeds(ctx, &probs, schedule, cfg, Some(&fixed));
                let got = stretch_schedule_seeded(ctx, &probs, schedule, cfg, &fixed).unwrap();
                assert_same_bits(ctx, &want, &got, &at);
                checked += 1;
            }
        }
    }
    assert!(
        seeded_saturated > 0,
        "no exhaustive seed put a path at the deadline"
    );
    assert_eq!(checked, 3 * 3 * 4 * configs.len());
}

/// A root `r` ahead of two independent forks `g` and `h`, whose first
/// alternatives meet at an and-node `j`: `r → g → j` and `r → h → j` are
/// two paths of one minterm group, `g0 ∧ h0`, with bit-equal delays and so
/// bit-equal slack ratios, yet different `prob(p, r)`: `P(g0)` on the
/// first, `P(h0)` on the second. The platform pins `g` and `h` to
/// different PEs, so no pseudo edge joins them, and every transfer is
/// empty, so no communication delay breaks the tie. Returns the context,
/// its table and `(r, g, h, j)`.
fn tied_group_context() -> (SchedContext, BranchProbs, [TaskId; 4]) {
    let mut b = CtgBuilder::new("tied_group");
    let r = b.add_task("r");
    let g = b.add_task("g");
    let h = b.add_task("h");
    let j = b.add_task("j");
    let a = b.add_task("a");
    let c = b.add_task("c");
    b.add_edge(r, g, 0.0).unwrap();
    b.add_edge(r, h, 0.0).unwrap();
    b.add_cond_edge(g, j, 0, 0.0).unwrap();
    b.add_cond_edge(h, j, 0, 0.0).unwrap();
    b.add_cond_edge(g, a, 1, 0.0).unwrap();
    b.add_cond_edge(h, c, 1, 0.0).unwrap();
    let ctg = b.deadline(7.0).build().unwrap();
    let mut pb = PlatformBuilder::new(ctg.num_tasks());
    pb.add_pe("p0");
    pb.add_pe("p1");
    // `g` runs fast on p0 only and `h` on p1 only, equally fast; `r` is
    // short, so its probability-weighted grant stays under its deadline
    // and speed caps.
    let wcet = [
        [0.25, 0.25],
        [1.0, 9.0],
        [9.0, 1.0],
        [2.0, 2.0],
        [1.0, 1.0],
        [1.0, 1.0],
    ];
    for (t, row) in wcet.iter().enumerate() {
        pb.set_wcet_row(t, row.to_vec()).unwrap();
        pb.set_energy_row(t, row.to_vec()).unwrap();
    }
    pb.uniform_links(10.0, 0.05).unwrap();
    let ctx = SchedContext::new(ctg, pb.build().unwrap()).unwrap();
    let mut probs = BranchProbs::uniform(ctx.ctg());
    probs.set(g, vec![0.3, 0.7]).unwrap();
    probs.set(h, vec![0.6, 0.4]).unwrap();
    (ctx, probs, [r, g, h, j])
}

/// Two spanning paths of one minterm group reach bit-equal slack ratios
/// with different `prob(p, τ)`, so the "last of equal minima" rule decides
/// the grant: every speed matches the reference that keeps the rule, bit
/// for bit, cold, seeded and through a warm workspace, and the reference
/// that takes the first of equal minima differs. No other reference input
/// ties, so this case alone pins the rule.
#[test]
fn the_last_of_equal_minima_decides_a_tied_group() {
    let (ctx, probs, [r, g, h, j]) = tied_group_context();
    let schedule = dls_schedule(&ctx, &probs).unwrap();
    assert_ne!(schedule.pe_of(g), schedule.pe_of(h), "g and h share a PE");
    let graph = ScheduledGraph::build(&ctx, &schedule, &probs, usize::MAX).unwrap();
    let path = |tasks: [TaskId; 3]| {
        graph
            .paths()
            .find(|p| p.tasks() == tasks)
            .unwrap_or_else(|| panic!("no path {tasks:?}"))
    };
    let (via_g, via_h) = (path([r, g, j]), path([r, h, j]));
    assert_eq!(via_g.cond(), via_h.cond(), "one minterm group");
    assert_eq!(via_g.delay().to_bits(), via_h.delay().to_bits());
    let (pa_g, pa_h) = (via_g.prob_after(r, &probs), via_h.prob_after(r, &probs));
    assert!(pa_g < 1.0 - EPS && pa_h < 1.0 - EPS && pa_g != pa_h);

    let configs = [
        ("default", StretchConfig::default()),
        ("single-pass", StretchConfig::single_pass()),
        ("exhaustive", StretchConfig::exhaustive()),
    ];
    let mut flipped_differs = 0;
    for (label, cfg) in &configs {
        let got = stretch_schedule(&ctx, &probs, &schedule, cfg).unwrap();
        let want = reference_speeds(&ctx, &probs, &schedule, cfg, None);
        assert_same_bits(&ctx, &want, &got, label);
        let first = reference_speeds_with(&ctx, &probs, &schedule, cfg, None, Tie::First);
        flipped_differs += usize::from(
            ctx.ctg()
                .tasks()
                .any(|t| first.speed(t).to_bits() != got.speed(t).to_bits()),
        );

        let nominal = SpeedAssignment::nominal(ctx.ctg().num_tasks());
        let got = stretch_schedule_seeded(&ctx, &probs, &schedule, cfg, &nominal).unwrap();
        let want = reference_speeds(&ctx, &probs, &schedule, cfg, Some(&nominal));
        assert_same_bits(&ctx, &want, &got, &format!("{label} seeded"));

        let mut ws = SolverWorkspace::new();
        let sol = OnlineScheduler::with_config(cfg.clone())
            .solve_with_workspace(&ctx, &probs, &mut ws)
            .unwrap();
        assert_eq!(sol.schedule, schedule);
        assert_same_bits(&ctx, &want, &sol.speeds, &format!("{label} warm"));
    }
    assert_eq!(
        flipped_differs,
        configs.len(),
        "the first of equal minima must move a speed under every configuration"
    );
}
