//! Schedule-cache equivalence: an adaptive run with memoisation enabled
//! must adopt exactly the plans of a cache-off run over a long drifting
//! MPEG trace — identical energy bits, reschedule counts and final
//! solution — while answering a positive number of lookups from the cache.
//! A racing manager's forced re-solve must adopt the same plan with the
//! cache on as off, whatever plan was in force when the cache was enabled.

use adaptive_dvfs::ctg::{BranchProbs, DecisionVector};
use adaptive_dvfs::sched::{
    dls_schedule, AdaptiveScheduler, ObserveOutcome, SchedContext, DEFAULT_PORTFOLIO,
};
use adaptive_dvfs::sim::Runner;
use adaptive_dvfs::workloads::mpeg;
use adaptive_dvfs::workloads::traces::{self, DriftProfile};

const WINDOW: usize = 20;
const THRESHOLD: f64 = 0.1;
/// Instances each profiled table of the racing test is estimated from.
const PROFILE: usize = 40;

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

/// A drifting trace that revisits its scene regimes: one MPEG segment tiled
/// several times (movies loop scene types; recurrence is the workload
/// property a schedule cache exploits).
fn recurring_trace(ctx: &SchedContext, segment_len: usize, tiles: usize) -> Vec<DecisionVector> {
    let segment = traces::generate_trace(ctx.ctg(), &DriftProfile::new(4711), segment_len);
    let mut trace = Vec::with_capacity(segment_len * tiles);
    for _ in 0..tiles {
        trace.extend_from_slice(&segment);
    }
    trace
}

#[test]
fn cached_adaptive_run_is_bitwise_equivalent_to_uncached() {
    let ctx = mpeg_context();
    let trace = recurring_trace(&ctx, 250, 4);
    let profiled = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..250]);

    let mgr_off = AdaptiveScheduler::new(&ctx, profiled.clone(), WINDOW, THRESHOLD).unwrap();
    let (off, final_off) = Runner::default()
        .run_adaptive(&ctx, mgr_off, &trace)
        .unwrap();

    let mut mgr_on = AdaptiveScheduler::new(&ctx, profiled, WINDOW, THRESHOLD).unwrap();
    mgr_on.enable_cache(64);
    let (on, final_on) = Runner::default()
        .run_adaptive(&ctx, mgr_on, &trace)
        .unwrap();

    // Same decisions, same plans, same energies — to the bit.
    assert_eq!(
        off.exec.total_energy.to_bits(),
        on.exec.total_energy.to_bits(),
        "cache changed the adopted plans"
    );
    assert_eq!(
        off.exec.max_makespan.to_bits(),
        on.exec.max_makespan.to_bits()
    );
    assert_eq!(off.exec.deadline_misses, on.exec.deadline_misses);
    assert_eq!(off.reschedules, on.reschedules);
    assert_eq!(off.exec.instances, on.exec.instances);
    assert_eq!(final_off.solution(), final_on.solution());
    assert_eq!(final_off.current_probs(), final_on.current_probs());

    // ... and it actually cached something.
    assert!(on.cache_hits > 0, "recurring regimes must hit the cache");
    assert!(on.calls < off.calls, "hits must save solver calls");
    // In the plain adaptive loop every lookup outcome is adopted, so the
    // adoption count decomposes exactly into solves + replays.
    assert_eq!(on.reschedules, on.calls + on.cache_hits);
    // Cache-off runs never touch the counters.
    assert_eq!(off.cache_hits, 0);
    assert_eq!(off.cache_misses, 0);
    assert_eq!(off.calls, off.reschedules);
}

#[test]
fn zero_capacity_cache_behaves_like_cache_off() {
    let ctx = mpeg_context();
    let trace = recurring_trace(&ctx, 200, 2);
    let profiled = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..200]);

    let mgr_off = AdaptiveScheduler::new(&ctx, profiled.clone(), WINDOW, THRESHOLD).unwrap();
    let (off, _) = Runner::default()
        .run_adaptive(&ctx, mgr_off, &trace)
        .unwrap();

    let mut mgr_zero = AdaptiveScheduler::new(&ctx, profiled, WINDOW, THRESHOLD).unwrap();
    mgr_zero.enable_cache(0);
    let (zero, _) = Runner::default()
        .run_adaptive(&ctx, mgr_zero, &trace)
        .unwrap();

    assert_eq!(
        off.exec.total_energy.to_bits(),
        zero.exec.total_energy.to_bits()
    );
    assert_eq!(off.calls, zero.calls);
    assert_eq!(off.reschedules, zero.reschedules);
    assert_eq!(zero.cache_hits, 0, "a capacity-0 cache can never hit");
    assert_eq!(
        zero.cache_misses, zero.calls,
        "every adopted solve went through a (missing) lookup"
    );
}

/// Cached and uncached racing managers adopt the same plan on
/// `resolve_now` on profiled tables of every movie preset, whether the
/// cache was enabled before portfolio mode, after it, or after safe mode
/// pinned the all-max-speed plan, and after a re-solve under a budget
/// that aborts the DLS entry was followed by lifting the budget. The plan
/// in force at enable time and the budgeted race's winner are none of the
/// solve path's answers, so the cache must not hold them; a second
/// `resolve_now` replays the raced plan from the cache.
#[test]
fn cached_racing_managers_resolve_like_uncached_ones() {
    fn race(m: &mut AdaptiveScheduler) {
        m.enable_portfolio(&DEFAULT_PORTFOLIO).unwrap();
    }
    type Setup = fn(&mut AdaptiveScheduler, &SchedContext);
    let ctx = mpeg_context();
    let setups: [(&str, Setup); 4] = [
        ("cache, then portfolio", |m, _| {
            m.enable_cache(8);
            race(m);
        }),
        ("portfolio, then cache", |m, _| {
            race(m);
            m.enable_cache(8);
        }),
        ("portfolio, safe mode, then cache", |m, _| {
            race(m);
            m.enter_safe_mode();
            m.enable_cache(8);
        }),
        (
            "portfolio, cache, budgeted re-solve, budget lifted",
            |m, ctx| {
                race(m);
                m.enable_cache(8);
                m.set_solve_budget(Some(0));
                m.resolve_now(ctx);
                m.set_solve_budget(None);
            },
        ),
    ];
    for movie in traces::movie_presets() {
        let trace = traces::generate_trace(ctx.ctg(), &movie.profile, 4 * PROFILE);
        for (w, window) in trace.chunks(PROFILE).enumerate() {
            let profiled = traces::empirical_probs(ctx.ctg(), ctx.activation(), window);
            let base = AdaptiveScheduler::new(&ctx, profiled, WINDOW, THRESHOLD).unwrap();
            let mut uncached = base.clone();
            race(&mut uncached);
            assert_eq!(uncached.resolve_now(&ctx), ObserveOutcome::Rescheduled);
            for (setup, prepare) in setups {
                let label = format!("{} window {w}, {setup}", movie.name);
                let mut cached = base.clone();
                prepare(&mut cached, &ctx);
                assert_eq!(cached.resolve_now(&ctx), ObserveOutcome::Rescheduled);
                assert_eq!(cached.solution(), uncached.solution(), "{label}");
                assert_eq!(cached.stats().cache_hits, 0, "{label}");
                assert_eq!(cached.resolve_now(&ctx), ObserveOutcome::Rescheduled);
                assert_eq!(cached.stats().cache_hits, 1, "{label}");
                assert_eq!(cached.solution(), uncached.solution(), "{label}");
            }
        }
    }
}
