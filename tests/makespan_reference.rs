//! Pins the worst-case-makespan check to the plain per-scenario dynamic
//! program it replaced.
//!
//! The library relaxes every scheduled-graph edge only in the scenarios
//! its precombined mask names (both endpoints active, the guard's
//! alternative taken), all scenarios side by side. The reference below
//! runs one scenario at a time and decides each edge by looking its
//! endpoints up in the scenario's active set and its guard up in the
//! scenario's cube. [`Solution::worst_case_makespan`], which lays out
//! the un-reduced edges, and [`ScheduledGraph::worst_case_makespan`],
//! which lays out a built graph's reduced edges as the race's pooled
//! graphs do, must both match it bit for bit on the DLS, HEFT, lookahead
//! and frame plans of every workload family, at every level of the frame
//! entry's search, on every mapping of a small graph whose or-node joins
//! both alternatives of a fork, and under seeded random speeds, some of
//! which miss the deadline.
//!
//! The reduction is pinned on every mapping of a graph whose or-node
//! joins one alternative of each of two forks: there the longest
//! enumerated path must be the exact worst case too, and no Fig. 2 plan
//! that `validate_solution` accepts may miss the deadline.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, CtgBuilder, Literal, NodeKind, TaskId};
use adaptive_dvfs::platform::{PeId, Platform, PlatformBuilder};
use adaptive_dvfs::rng::Rng64;
use adaptive_dvfs::sched::test_util::uniform_platform;
use adaptive_dvfs::sched::{
    dls_schedule, list_schedule_fixed, static_levels, stretch_schedule, validate_solution,
    SchedContext, Schedule, ScheduledGraph, SchedulerKind, Solution, SpeedAssignment,
    StretchConfig, DEFAULT_PATH_CAP, FRAME_SPEED_LEVELS,
};
use adaptive_dvfs::tgff::{table1_cases, table45_cases, TgffConfig};
use adaptive_dvfs::workloads::{cruise, mpeg, wlan};

/// One constraint edge of the un-reduced scheduled graph.
struct Edge {
    src: usize,
    dst: usize,
    delay: f64,
    guard: Option<Literal>,
}

/// CTG edges with their communication delays and guards, then implied
/// or-node waits and same-PE serialisations (earlier before later,
/// mutually exclusive pairs excluded), each added only where no edge
/// joins the pair yet.
fn constraint_edges(ctx: &SchedContext, schedule: &Schedule) -> Vec<Edge> {
    let comm = ctx.platform().comm();
    let mut edges: Vec<Edge> = Vec::new();
    let has = |edges: &[Edge], a: TaskId, b: TaskId| {
        edges
            .iter()
            .any(|e| e.src == a.index() && e.dst == b.index())
    };
    for (_, e) in ctx.ctg().edges() {
        edges.push(Edge {
            src: e.src().index(),
            dst: e.dst().index(),
            delay: comm.delay(
                schedule.pe_of(e.src()),
                schedule.pe_of(e.dst()),
                e.comm_kbytes(),
            ),
            guard: e.condition().map(|alt| Literal::new(e.src(), alt)),
        });
    }
    for &(fork, or_node) in ctx.activation().implied_or_deps() {
        if !has(&edges, fork, or_node) {
            edges.push(Edge {
                src: fork.index(),
                dst: or_node.index(),
                delay: 0.0,
                guard: None,
            });
        }
    }
    for pe in ctx.platform().pes() {
        let order = schedule.pe_order(pe);
        for (i, &a) in order.iter().enumerate() {
            for &b in &order[i + 1..] {
                if !ctx.mutually_exclusive(a, b) && !has(&edges, a, b) {
                    edges.push(Edge {
                        src: a.index(),
                        dst: b.index(),
                        delay: 0.0,
                        guard: None,
                    });
                }
            }
        }
    }
    edges
}

/// For each scenario in turn, the longest path through the edges it
/// activates, at the stretched execution times; the maximum over all
/// scenarios.
fn reference_makespan(ctx: &SchedContext, schedule: &Schedule, speeds: &SpeedAssignment) -> f64 {
    let n = ctx.ctg().num_tasks();
    let mut preds: Vec<Vec<&Edge>> = (0..n).map(|_| Vec::new()).collect();
    let edges = constraint_edges(ctx, schedule);
    for e in &edges {
        preds[e.dst].push(e);
    }
    let profile = ctx.platform().profile();
    let exec = |t: usize| {
        let t = TaskId::new(t);
        profile.wcet(t.index(), schedule.pe_of(t)) / speeds.speed(t)
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (
            schedule.start(TaskId::new(a)),
            schedule.start(TaskId::new(b)),
        );
        sa.partial_cmp(&sb).unwrap().then(a.cmp(&b))
    });
    let mut fin = vec![0.0_f64; n];
    let mut worst: f64 = 0.0;
    for s in ctx.scenarios().scenarios() {
        let active = s.active_tasks();
        for &t in &order {
            if !active[t] {
                continue;
            }
            let mut start: f64 = 0.0;
            for e in &preds[t] {
                if !active[e.src] {
                    continue;
                }
                if let Some(lit) = e.guard {
                    if s.cube().alt_of(lit.branch()) != Some(lit.alt()) {
                        continue;
                    }
                }
                start = start.max(fin[e.src] + e.delay);
            }
            fin[t] = start + exec(t);
            worst = worst.max(fin[t]);
        }
    }
    worst
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

fn contexts() -> Vec<SchedContext> {
    let mpeg_ctg = mpeg::mpeg_ctg();
    let mpeg_platform = mpeg::mpeg_platform(&mpeg_ctg);
    let cruise_ctg = cruise::cruise_ctg();
    let cruise_platform = cruise::cruise_platform(&cruise_ctg);
    let wlan_ctg = wlan::wlan_ctg();
    let wlan_platform = wlan::wlan_platform(&wlan_ctg);
    let mut out = vec![
        calibrated(mpeg_ctg, mpeg_platform),
        calibrated(cruise_ctg, cruise_platform),
        calibrated(wlan_ctg, wlan_platform),
    ];
    let tgff = table1_cases().into_iter().chain(table45_cases());
    out.extend(tgff.map(|(cfg, pes): (TgffConfig, usize)| {
        let generated = cfg.generate();
        let platform = cfg.generate_platform(&generated.ctg, pes);
        calibrated(generated.ctg, platform)
    }));
    out
}

/// A fork whose alternatives both reach an or-node: directly (guarded by
/// alternative 0) and through `y` (alternative 1), each over a heavy
/// transfer, and a four-task tail after the join that runs only under
/// alternative `tail_alt`. Across its mappings the join's start depends on
/// exactly which in-edges a scenario activates (the guarded edge only
/// under alternative 0, the edge from `y` only while `y` runs), and the
/// tail makes the scenario where an edge is off the worst case.
fn or_join_context(tail_alt: u8) -> SchedContext {
    let mut b = CtgBuilder::new(format!("or_join_{tail_alt}"));
    let src = b.add_task("src");
    let fork = b.add_task("fork");
    let x = b.add_task("x");
    let y = b.add_task("y");
    let join = b.add_task_with_kind("join", NodeKind::Or);
    b.add_edge(src, fork, 1.0).unwrap();
    b.add_cond_edge(fork, x, 0, 1.0).unwrap();
    b.add_cond_edge(fork, join, 0, 200.0).unwrap();
    b.add_cond_edge(fork, y, 1, 1.0).unwrap();
    b.add_edge(y, join, 200.0).unwrap();
    let mut prev = b.add_task("tail0");
    b.add_edge(join, prev, 1.0).unwrap();
    b.add_edge([x, y][tail_alt as usize], prev, 1.0).unwrap();
    for i in 1..4 {
        let next = b.add_task(format!("tail{i}"));
        b.add_edge(prev, next, 1.0).unwrap();
        prev = next;
    }
    let ctg = b.deadline(100.0).build().unwrap();
    let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
    SchedContext::new(ctg, platform).unwrap()
}

/// A seeded random table; alternatives are occasionally starved to zero.
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

/// The scheduled graph of `schedule`'s mapping, as the workspace pools
/// it; `None` over the path cap.
fn pooled_graph(ctx: &SchedContext, schedule: &Schedule) -> Option<ScheduledGraph> {
    ScheduledGraph::build(
        ctx,
        schedule,
        &BranchProbs::uniform(ctx.ctg()),
        DEFAULT_PATH_CAP,
    )
}

/// Checks the cold DP, and the DP on `graph` (the plan's mapping's graph)
/// when there is one, against the reference; returns the makespan.
fn assert_same_bits(
    ctx: &SchedContext,
    plan: &Solution,
    graph: Option<&mut ScheduledGraph>,
    at: &str,
) -> f64 {
    let want = reference_makespan(ctx, &plan.schedule, &plan.speeds);
    let got = plan.worst_case_makespan(ctx);
    assert_eq!(
        want.to_bits(),
        got.to_bits(),
        "{at}: reference {want} vs library {got}"
    );
    if let Some(graph) = graph {
        let pooled = graph.worst_case_makespan(ctx, &plan.schedule, &plan.speeds);
        assert_eq!(
            want.to_bits(),
            pooled.to_bits(),
            "{at}: reference {want} vs the DP on the graph's reduced edges {pooled}"
        );
    }
    got
}

#[test]
fn worst_case_makespan_matches_the_per_scenario_reference_bit_for_bit() {
    let contexts = contexts();
    assert_eq!(contexts.len(), 18);
    let mut rng = Rng64::seed_from_u64(0x3AC5_DEAD);
    let (mut checked, mut pooled, mut misses, mut meets) = (0, 0, 0, 0);
    for ctx in &contexts {
        let name = ctx.ctg().name();
        let n = ctx.ctg().num_tasks();
        let deadline = ctx.ctg().deadline();
        for table in 0..2 {
            let probs = arb_table(ctx.ctg(), &mut rng);
            for kind in SchedulerKind::ALL {
                let Ok(plan) = kind.solve(ctx, &probs) else {
                    continue;
                };
                let at = format!("{name} table {table} {kind}");
                let mut graph = pooled_graph(ctx, &plan.schedule);
                pooled += usize::from(graph.is_some());
                assert_same_bits(ctx, &plan, graph.as_mut(), &at);
                checked += 1;
                if kind == SchedulerKind::FrameDvfs {
                    // Every level the frame entry's search may evaluate,
                    // and the nominal speeds its error path reports.
                    for k in 1..=FRAME_SPEED_LEVELS {
                        let s = k as f64 / FRAME_SPEED_LEVELS as f64;
                        let level = Solution {
                            schedule: plan.schedule.clone(),
                            speeds: SpeedAssignment::new(vec![s; n]),
                        };
                        assert_same_bits(ctx, &level, graph.as_mut(), &format!("{at} level {k}"));
                        checked += 1;
                    }
                    let nominal = Solution {
                        schedule: plan.schedule.clone(),
                        speeds: SpeedAssignment::nominal(n),
                    };
                    assert_same_bits(ctx, &nominal, graph.as_mut(), &format!("{at} nominal"));
                    continue;
                }
                // Random speeds on the plan's schedule: low ones stretch
                // the worst case past the deadline.
                for v in 0..3 {
                    let floor = [0.05, 0.4, 0.8][v];
                    let speeds: Vec<f64> = (0..n).map(|_| rng.gen_range(floor..1.0)).collect();
                    let random = Solution {
                        schedule: plan.schedule.clone(),
                        speeds: SpeedAssignment::new(speeds),
                    };
                    let wcm =
                        assert_same_bits(ctx, &random, graph.as_mut(), &format!("{at} random {v}"));
                    if wcm > deadline + 1e-6 {
                        misses += 1;
                    } else {
                        meets += 1;
                    }
                    checked += 1;
                }
            }
        }
    }
    // Every mapping of the or-join graphs onto two PEs.
    for ctx in [or_join_context(0), or_join_context(1)] {
        let name = ctx.ctg().name();
        let n = ctx.ctg().num_tasks();
        let levels = static_levels(&ctx, &BranchProbs::uniform(ctx.ctg()));
        for bits in 0..1u32 << n {
            let assignment: Vec<PeId> = (0..n)
                .map(|t| PeId::new((bits >> t) as usize & 1))
                .collect();
            let schedule = list_schedule_fixed(&ctx, &assignment, &levels, true).unwrap();
            let mut graph = pooled_graph(&ctx, &schedule).expect("a small graph");
            for speeds in [
                SpeedAssignment::nominal(n),
                SpeedAssignment::new((0..n).map(|_| rng.gen_range(0.5..1.0)).collect()),
            ] {
                let plan = Solution {
                    schedule: schedule.clone(),
                    speeds,
                };
                assert_same_bits(
                    &ctx,
                    &plan,
                    Some(&mut graph),
                    &format!("{name} mapping {bits:09b}"),
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 1000, "only {checked} makespans checked");
    assert!(
        pooled > 100,
        "only {pooled} plans had a graph under the cap"
    );
    assert!(
        misses > 0 && meets > 0,
        "random speeds must both miss ({misses}) and meet ({meets}) the deadline"
    );
}

/// Two root forks, `f` and `g`, whose first alternatives both lead to
/// the or-node `join`, and whose second ones run `fx` and `gx`; `tail`
/// follows the join, and the and-node `z` follows `tail` and `fx`, so it
/// runs exactly when `f` takes its second alternative and `g` its first.
/// The join runs whenever either first alternative is taken, but its
/// in-edge from `f` is then off. Where `f` and `tail` share a PE, the
/// same-PE edge `f → tail` has a route `f → join → tail` whose
/// intermediate runs wherever both ends do, yet the route is off in `z`'s
/// scenario: `f`'s long WCET makes it finish after the join there, so the
/// edge decides `tail`'s start and `z`'s, the worst case, and the
/// reduction must keep it.
fn cross_fork_context() -> SchedContext {
    let mut b = CtgBuilder::new("cross_fork_join");
    let f = b.add_task("f");
    let g = b.add_task("g");
    let join = b.add_task_with_kind("join", NodeKind::Or);
    let fx = b.add_task("fx");
    let gx = b.add_task("gx");
    let tail = b.add_task("tail");
    let z = b.add_task("z");
    b.add_cond_edge(f, join, 0, 1.0).unwrap();
    b.add_cond_edge(f, fx, 1, 1.0).unwrap();
    b.add_cond_edge(g, join, 0, 1.0).unwrap();
    b.add_cond_edge(g, gx, 1, 1.0).unwrap();
    b.add_edge(join, tail, 1.0).unwrap();
    b.add_edge(tail, z, 1.0).unwrap();
    b.add_edge(fx, z, 1.0).unwrap();
    let ctg = b.deadline(100.0).build().unwrap();
    let mut pb = PlatformBuilder::new(ctg.num_tasks());
    pb.add_pe("pe0");
    pb.add_pe("pe1");
    for (t, wcet) in [8.0, 1.0, 1.0, 1.0, 1.0, 3.0, 4.0].into_iter().enumerate() {
        pb.set_wcet_row(t, vec![wcet; 2]).unwrap();
        pb.set_energy_row(t, vec![wcet; 2]).unwrap();
    }
    pb.uniform_links(10.0, 0.05).unwrap();
    SchedContext::new(ctg, pb.build().unwrap()).unwrap()
}

/// The longest of `graph`'s enumerated paths at `speeds`, each summed
/// source first as the DP sums a chain: a task's finish is its
/// predecessor's finish plus the edge delay, plus its own execution time.
fn longest_enumerated_path(
    ctx: &SchedContext,
    graph: &ScheduledGraph,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
) -> f64 {
    let profile = ctx.platform().profile();
    let exec = |t: TaskId| profile.wcet(t.index(), schedule.pe_of(t)) / speeds.speed(t);
    let delay = |a: TaskId, b: TaskId| {
        graph
            .edges()
            .iter()
            .find(|e| e.src == a && e.dst == b)
            .expect("consecutive path tasks share an edge")
            .delay
    };
    graph
        .paths()
        .map(|p| {
            let tasks = p.tasks();
            tasks.windows(2).fold(exec(tasks[0]), |fin, w| {
                fin + delay(w[0], w[1]) + exec(w[1])
            })
        })
        .fold(0.0, f64::max)
}

/// The reduction keeps every binding edge: on every two-PE mapping of the
/// cross-fork graph, at nominal and seeded random speeds, the cold DP, the
/// DP on the graph's reduced edges and the longest enumerated path are
/// all the per-scenario reference, bit for bit. And over deadlines from
/// the schedule's makespan up and two tables, no Fig. 2 plan that
/// `validate_solution` accepts has an exact worst case past the deadline.
#[test]
fn the_reduction_keeps_edges_a_guarded_route_only_covers_in_some_scenarios() {
    let ctx = cross_fork_context();
    let n = ctx.ctg().num_tasks();
    assert_eq!(n, 7);
    let uniform = BranchProbs::uniform(ctx.ctg());
    let levels = static_levels(&ctx, &uniform);
    let mut rng = Rng64::seed_from_u64(0xC055_F0C5);
    let tables = [uniform.clone(), arb_table(ctx.ctg(), &mut rng)];
    let (mut checked, mut accepted) = (0, 0);
    for bits in 0..1u32 << n {
        let assignment: Vec<PeId> = (0..n)
            .map(|t| PeId::new((bits >> t) as usize & 1))
            .collect();
        let schedule = list_schedule_fixed(&ctx, &assignment, &levels, true).unwrap();
        let mut graph = pooled_graph(&ctx, &schedule).expect("a small graph");
        for (v, speeds) in [
            SpeedAssignment::nominal(n),
            SpeedAssignment::new((0..n).map(|_| rng.gen_range(0.3..1.0)).collect()),
            SpeedAssignment::new((0..n).map(|_| rng.gen_range(0.3..1.0)).collect()),
        ]
        .into_iter()
        .enumerate()
        {
            let at = format!("mapping {bits:07b} speeds {v}");
            let plan = Solution {
                schedule: schedule.clone(),
                speeds,
            };
            let wcm = assert_same_bits(&ctx, &plan, Some(&mut graph), &at);
            let by_paths = longest_enumerated_path(&ctx, &graph, &schedule, &plan.speeds);
            assert_eq!(
                by_paths.to_bits(),
                wcm.to_bits(),
                "{at}: longest enumerated path {by_paths} vs exact worst case {wcm}"
            );
            checked += 1;
        }
        for factor in [1.0, 1.02, 1.05, 1.1, 1.2, 1.35, 1.5, 2.0, 3.0, 5.0] {
            let deadline = factor * schedule.makespan();
            let tight =
                SchedContext::new(ctx.ctg().with_deadline(deadline), ctx.platform().clone())
                    .unwrap();
            for (t, probs) in tables.iter().enumerate() {
                let at = format!("mapping {bits:07b} deadline x{factor} table {t}");
                let speeds =
                    stretch_schedule(&tight, probs, &schedule, &StretchConfig::default()).unwrap();
                if validate_solution(&tight, &schedule, &speeds).is_err() {
                    continue;
                }
                accepted += 1;
                let wcm = reference_makespan(&tight, &schedule, &speeds);
                assert!(
                    wcm <= deadline + 1e-6,
                    "{at}: validate_solution accepted a plan whose worst case {wcm} misses the deadline {deadline}"
                );
            }
        }
    }
    assert_eq!(checked, 3 << n);
    assert!(accepted > 2000, "only {accepted} Fig. 2 plans accepted");
}
