//! Cross-commit pins of the instance simulator and the trace runners.
//!
//! Every mode below folds the f64 bits (and counters) of every result it
//! produces into one FNV-1a digest, over MPEG (three movie presets × 150
//! instances) and two TGFF graphs. The expected digests were captured
//! before the run layer was consolidated onto `Runner`; a refactor of the
//! simulator or the runners must keep every one of them. A deliberate
//! behaviour change re-pins the digests it moves and says so.
//!
//! The modes cover what the `perfbench` digests do not: the overhead,
//! fault-injection and reclamation paths of the instance simulator, the
//! periodic runner, the pooled static engines and the resilient adaptive
//! engine.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, DecisionVector};
use adaptive_dvfs::platform::Platform;
use adaptive_dvfs::sched::{
    dls_schedule, AdaptiveScheduler, OnlineScheduler, SchedContext, Solution,
};
use adaptive_dvfs::sim::{
    simulate_instance, simulate_instance_reclaiming, BurstModel, DegradeConfig, DvfsOverhead,
    FaultEvent, FaultInjector, FaultLog, FaultPlan, PeriodicSummary, RunConfig, RunSummary, Runner,
    SimWorkspace,
};
use adaptive_dvfs::tgff::{table1_cases, table45_cases, TgffConfig};
use adaptive_dvfs::workloads::mpeg;
use adaptive_dvfs::workloads::traces::{self, movie_presets, DriftProfile};

/// Instances per workload trace.
const LEN: usize = 150;

/// The digests, one per mode, captured before the consolidation.
const EXPECTED: &[(&str, u64)] = &[
    ("simulate_instance", 0x9005558c177546c8),
    ("workspace.simulate", 0x9005558c177546c8),
    ("overhead.small", 0xa7dd821a17a22a38),
    ("overhead.time", 0xa9775d51a43fd97a),
    ("overhead.large", 0x392f8ee924bdf723),
    ("faulty.none", 0x20e2538f76d6bc28),
    ("faulty.overrun", 0x7be5a458a0b27d78),
    ("faulty.stall", 0x00f29badc5be5483),
    ("faulty.denial", 0x2535250f63134842),
    ("faulty.retransmit", 0x825f20bfc1be46e9),
    ("faulty.uniform", 0x5fa9b193f8625a1a),
    ("faulty.burst", 0xe4a94f8c3dc1ff36),
    ("reclaim.locked", 0xc4ad15a331a2583b),
    ("reclaim.unlocked", 0x14f44bdbd78b66f8),
    ("periodic", 0x5347bb88b320dda2),
    ("static.seq", 0x198fc4c58a3b440c),
    ("static.pooled", 0x198fc4c58a3b440c),
    ("static.faulty.seq", 0xd8dc1e6108c50b33),
    ("static.faulty.pooled", 0xd8dc1e6108c50b33),
    ("adaptive.plain", 0xe50d79cc8e486366),
    ("adaptive.resilient", 0x12f148e0829708cf),
];

/// 64-bit FNV-1a over the little-endian bytes of every folded value.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn times(&mut self, times: &[Option<(f64, f64)>]) {
        for t in times {
            match *t {
                Some((start, finish)) => {
                    self.u64(1);
                    self.f64(start);
                    self.f64(finish);
                }
                None => self.u64(0),
            }
        }
    }

    fn outcome(&mut self, energy: f64, exec: f64, comm: f64, makespan: f64, met: bool) {
        self.f64(energy);
        self.f64(exec);
        self.f64(comm);
        self.f64(makespan);
        self.u64(u64::from(met));
    }

    fn log(&mut self, log: &FaultLog) {
        let s = &log.stats;
        for n in [s.overruns, s.stalls, s.denials, s.retransmits] {
            self.usize(n);
        }
        self.f64(s.extra_time);
        self.f64(s.extra_energy);
        self.usize(log.events.len());
        for e in &log.events {
            match *e {
                FaultEvent::Overrun { task, factor } => {
                    self.u64(1);
                    self.usize(task.index());
                    self.f64(factor);
                }
                FaultEvent::Stall { pe, from, until } => {
                    self.u64(2);
                    self.usize(pe.index());
                    self.f64(from);
                    self.f64(until);
                }
                FaultEvent::DvfsDenial {
                    task,
                    requested,
                    granted,
                } => {
                    self.u64(3);
                    self.usize(task.index());
                    self.f64(requested);
                    self.f64(granted);
                }
                FaultEvent::Retransmit { src, dst, factor } => {
                    self.u64(4);
                    self.usize(src.index());
                    self.usize(dst.index());
                    self.f64(factor);
                }
            }
        }
    }

    fn summary(&mut self, s: &RunSummary) {
        self.usize(s.exec.instances);
        self.f64(s.exec.total_energy);
        self.usize(s.exec.deadline_misses);
        self.f64(s.exec.max_makespan);
        for n in [s.calls, s.reschedules, s.cache_hits, s.cache_misses] {
            self.usize(n);
        }
        let f = &s.faults;
        for n in [f.overruns, f.stalls, f.denials, f.retransmits] {
            self.usize(n);
        }
        self.f64(f.extra_time);
        self.f64(f.extra_energy);
        let d = &s.degrade;
        for n in [
            d.guard_band_escalations,
            d.safe_mode_escalations,
            d.unschedulable_events,
            d.recoveries,
            d.rejected_reschedules,
            d.failed_reschedules,
            d.budget_exceeded,
        ] {
            self.usize(n);
        }
    }

    fn periodic(&mut self, p: &PeriodicSummary) {
        self.usize(p.instances);
        self.usize(p.overruns);
        self.f64(p.max_lateness);
        self.f64(p.total_energy);
        self.f64(p.horizon);
    }
}

/// One workload: a context, the plan its static runs use, the stale table
/// its adaptive manager starts from, and its trace.
struct Workload {
    ctx: SchedContext,
    solution: Solution,
    stale: BranchProbs,
    trace: Vec<DecisionVector>,
}

/// A context whose deadline is `factor` times the DLS makespan under
/// uniform probabilities.
fn calibrated(ctg: Ctg, platform: Platform, factor: f64) -> SchedContext {
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let makespan = dls_schedule(&ctx, &BranchProbs::uniform(ctx.ctg()))
        .unwrap()
        .makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(factor * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

fn workload(ctx: SchedContext, profile: &DriftProfile) -> Workload {
    let trace = traces::generate_trace(ctx.ctg(), profile, LEN);
    let probs = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace);
    let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
    let stale = BranchProbs::uniform(ctx.ctg());
    Workload {
        ctx,
        solution,
        stale,
        trace,
    }
}

fn tgff_context((cfg, pes): (TgffConfig, usize)) -> SchedContext {
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, pes);
    calibrated(generated.ctg, platform, 1.5)
}

fn workloads() -> Vec<Workload> {
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let ctx = calibrated(ctg, platform, 1.5);
    let mut out: Vec<Workload> = movie_presets()
        .iter()
        .filter(|m| matches!(m.name, "Bike" | "Shuttle" | "Train"))
        .map(|m| workload(ctx.clone(), &m.profile))
        .collect();
    let tgff = [table1_cases().remove(0), table45_cases().remove(5)];
    for (i, case) in tgff.into_iter().enumerate() {
        out.push(workload(
            tgff_context(case),
            &DriftProfile::new(300 + i as u64),
        ));
    }
    out
}

/// The fault plans of the `simulate_faulty` modes: each fault kind alone,
/// every kind at once, every kind under a burst modulator, and none.
fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    let none = FaultPlan::none(11);
    vec![
        ("faulty.none", none.clone()),
        (
            "faulty.overrun",
            FaultPlan {
                overrun_rate: 0.2,
                overrun_factor: 1.7,
                ..none.clone()
            },
        ),
        (
            "faulty.stall",
            FaultPlan {
                stall_rate: 0.4,
                stall_time: 3.0,
                ..none.clone()
            },
        ),
        (
            "faulty.denial",
            FaultPlan {
                dvfs_denial_rate: 0.3,
                ..none.clone()
            },
        ),
        (
            "faulty.retransmit",
            FaultPlan {
                retransmit_rate: 0.3,
                retransmit_factor: 2.5,
                ..none.clone()
            },
        ),
        ("faulty.uniform", FaultPlan::uniform(12, 0.1)),
        (
            "faulty.burst",
            FaultPlan {
                burst: Some(BurstModel {
                    p_enter: 0.1,
                    p_exit: 0.3,
                    rate_multiplier: 6.0,
                }),
                ..FaultPlan::uniform(13, 0.03)
            },
        ),
    ]
}

const OVERHEADS: [(&str, DvfsOverhead); 3] = [
    (
        "overhead.small",
        DvfsOverhead {
            switch_time: 0.05,
            switch_energy: 0.01,
        },
    ),
    (
        "overhead.time",
        DvfsOverhead {
            switch_time: 2.0,
            switch_energy: 0.0,
        },
    ),
    (
        "overhead.large",
        DvfsOverhead {
            switch_time: 1.0,
            switch_energy: 0.5,
        },
    ),
];

/// Computes every mode's digest over every workload.
fn digests() -> Vec<(String, u64)> {
    let workloads = workloads();
    let mut out: Vec<(String, u64)> = Vec::new();
    let mut mode = |name: &str, f: &dyn Fn(&Workload, &mut Fnv)| {
        let mut h = Fnv::new();
        for w in &workloads {
            f(w, &mut h);
        }
        out.push((name.to_string(), h.0));
    };

    mode("simulate_instance", &|w, h| {
        for v in &w.trace {
            let r = simulate_instance(&w.ctx, &w.solution, v).unwrap();
            h.outcome(
                r.energy,
                r.exec_energy,
                r.comm_energy,
                r.makespan,
                r.deadline_met,
            );
            h.times(&r.task_times);
        }
    });
    mode("workspace.simulate", &|w, h| {
        let mut ws = SimWorkspace::new(&w.ctx, &w.solution);
        for v in &w.trace {
            let r = ws.simulate(&w.ctx, &w.solution, v).unwrap();
            h.outcome(
                r.energy,
                r.exec_energy,
                r.comm_energy,
                r.makespan,
                r.deadline_met,
            );
            h.times(ws.task_times());
        }
    });
    for (name, overhead) in OVERHEADS {
        mode(name, &|w, h| {
            let mut ws = SimWorkspace::new(&w.ctx, &w.solution);
            for v in &w.trace {
                let r = ws
                    .simulate_with_overhead(&w.ctx, &w.solution, v, overhead)
                    .unwrap();
                h.outcome(
                    r.energy,
                    r.exec_energy,
                    r.comm_energy,
                    r.makespan,
                    r.deadline_met,
                );
                h.times(ws.task_times());
            }
        });
    }
    for (name, plan) in fault_plans() {
        mode(name, &|w, h| {
            let mut ws = SimWorkspace::new(&w.ctx, &w.solution);
            let mut injector = FaultInjector::empty(&w.ctx);
            let mut log = FaultLog::default();
            for (i, v) in w.trace.iter().enumerate() {
                injector.resample(&plan, &w.ctx, i as u64).unwrap();
                let r = ws
                    .simulate_faulty(&w.ctx, &w.solution, v, &injector, &mut log)
                    .unwrap();
                h.outcome(
                    r.energy,
                    r.exec_energy,
                    r.comm_energy,
                    r.makespan,
                    r.deadline_met,
                );
                h.times(ws.task_times());
                h.log(&log);
            }
        });
    }
    for (name, use_locked) in [("reclaim.locked", true), ("reclaim.unlocked", false)] {
        mode(name, &|w, h| {
            for v in &w.trace {
                let r =
                    simulate_instance_reclaiming(&w.ctx, &w.solution, v, 0.05, use_locked).unwrap();
                h.outcome(
                    r.energy,
                    r.exec_energy,
                    r.comm_energy,
                    r.makespan,
                    r.deadline_met,
                );
                h.times(&r.task_times);
            }
        });
    }
    mode("periodic", &|w, h| {
        let deadline = w.ctx.ctg().deadline();
        for period in [deadline, 0.6 * deadline, 0.25 * deadline] {
            let p = Runner::default()
                .run_periodic(&w.ctx, &w.solution, &w.trace, period)
                .unwrap();
            h.periodic(&p);
        }
    });
    let uniform = FaultPlan::uniform(21, 0.1);
    let static_cfgs = [
        ("static.seq", RunConfig::new()),
        ("static.pooled", RunConfig::new().workers(3).min_batch(0)),
        (
            "static.faulty.seq",
            RunConfig::new().fault_plan(uniform.clone()),
        ),
        (
            "static.faulty.pooled",
            RunConfig::new()
                .workers(3)
                .min_batch(0)
                .fault_plan(uniform.clone()),
        ),
    ];
    for (name, cfg) in static_cfgs {
        let runner = Runner::new(cfg);
        mode(name, &|w, h| {
            h.summary(&runner.run_static(&w.ctx, &w.solution, &w.trace).unwrap());
        });
    }
    let adaptive_cfgs = [
        ("adaptive.plain", RunConfig::new()),
        (
            "adaptive.resilient",
            RunConfig::new()
                .fault_plan(FaultPlan::uniform(22, 0.15))
                .degrade(DegradeConfig::default()),
        ),
    ];
    for (name, cfg) in adaptive_cfgs {
        let runner = Runner::new(cfg);
        mode(name, &|w, h| {
            let mgr = AdaptiveScheduler::new(&w.ctx, w.stale.clone(), 20, 0.2).unwrap();
            let (s, mgr) = runner.run_adaptive(&w.ctx, mgr, &w.trace).unwrap();
            h.summary(&s);
            for t in w.ctx.ctg().tasks() {
                h.f64(mgr.solution().speeds.speed(t));
            }
        });
    }
    out
}

#[test]
fn simulator_and_runners_keep_their_reference_digests() {
    let got = digests();
    for (name, digest) in &got {
        println!("(\"{name}\", 0x{digest:016x}),");
    }
    let mut mismatches = Vec::new();
    for (name, digest) in &got {
        match EXPECTED.iter().find(|(n, _)| n == name) {
            Some(&(_, want)) if want == *digest => {}
            Some(&(_, want)) => {
                mismatches.push(format!("{name}: 0x{digest:016x} != 0x{want:016x}"))
            }
            None => mismatches.push(format!("{name}: no expected digest")),
        }
    }
    assert_eq!(got.len(), EXPECTED.len(), "mode count changed");
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}
