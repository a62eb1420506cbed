//! Bit-identity pin for [`expected_energy`].
//!
//! The evaluator prices a plan from the context's compiled scenario masks.
//! It must reproduce the historic formula bit for bit: every activation
//! probability from a full scenario scan ([`SchedContext::task_prob`]) and
//! every edge probability from the endpoint conditions' DNF conjunction
//! ([`SchedContext::edge_prob`]). The check covers the three reference
//! workloads and the paper's Table-1 and Table-4/5 TGFF graphs (both
//! categories), each over seeded random tables and the plans of every
//! [`SchedulerKind`].

use adaptive_dvfs::ctg::{BranchProbs, Ctg};
use adaptive_dvfs::platform::Platform;
use adaptive_dvfs::rng::Rng64;
use adaptive_dvfs::sched::{dls_schedule, expected_energy, SchedContext, SchedulerKind, Solution};
use adaptive_dvfs::tgff::{table1_cases, table45_cases, TgffConfig};
use adaptive_dvfs::workloads::{cruise, mpeg, wlan};

/// Random tables drawn per context.
const TABLES: usize = 30;

/// The historic formula, built from the public reference accessors.
fn reference_energy(ctx: &SchedContext, probs: &BranchProbs, sol: &Solution) -> f64 {
    let platform = ctx.platform();
    let (schedule, speeds) = (&sol.schedule, &sol.speeds);
    let mut total = 0.0;
    for t in ctx.ctg().tasks() {
        let p = ctx.task_prob(t, probs);
        total += p * platform.exec_energy(t.index(), schedule.pe_of(t), speeds.speed(t));
    }
    for (_, e) in ctx.ctg().edges() {
        let (src, dst) = (e.src(), e.dst());
        let energy =
            platform
                .comm()
                .energy(schedule.pe_of(src), schedule.pe_of(dst), e.comm_kbytes());
        if energy > 0.0 {
            total += ctx.edge_prob(src, dst, probs) * energy;
        }
    }
    total
}

/// A context whose deadline is `2×` the DLS makespan under uniform
/// probabilities, so every scheduler kind usually finds a plan.
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
    out.extend(table1_cases().into_iter().map(tgff_context));
    out.extend(table45_cases().into_iter().map(tgff_context));
    out
}

/// A seeded random table. Each alternative is occasionally starved to
/// exactly zero, so zero-probability scenarios are priced too.
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

#[test]
fn mask_priced_energy_matches_the_scenario_scan_bit_for_bit() {
    let mut rng = Rng64::seed_from_u64(0xE4E2_0001);
    let contexts = contexts();
    assert_eq!(contexts.len(), 18);
    for (ci, ctx) in contexts.iter().enumerate() {
        let name = ctx.ctg().name();
        let mut plans = [0usize; SchedulerKind::COUNT];
        for table in 0..TABLES {
            let probs = arb_table(ctx.ctg(), &mut rng);
            for kind in SchedulerKind::ALL {
                let Ok(sol) = kind.solve(ctx, &probs) else {
                    continue;
                };
                plans[kind.index()] += 1;
                let fast = expected_energy(ctx, &probs, &sol.schedule, &sol.speeds);
                let reference = reference_energy(ctx, &probs, &sol);
                assert_eq!(
                    fast.to_bits(),
                    reference.to_bits(),
                    "context {ci} ({name}), table {table}, {kind}: {fast} vs {reference}"
                );
            }
        }
        for kind in SchedulerKind::ALL {
            assert!(
                plans[kind.index()] > 0,
                "context {ci} ({name}): {kind} never produced a plan"
            );
        }
    }
}
