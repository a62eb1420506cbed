//! The three workloads: inputs generated from the seed, set-up, one round
//! of timed work, and the output checks.
//!
//! A run repeats identical rounds over one set of inputs. Each round
//! starts from the state set-up left (a clone of the manager, fresh serve
//! runs), so every round simulates the same instances and adopts the same
//! plans, and every count repeats exactly.
//!
//! A round is cut into *segments* (a fixed slice of a playlist, one serve
//! farm). Each segment is timed on the thread CPU clock and followed by a
//! burst of the host-speed reference, whose factor scales the segment and
//! the re-solves inside it (see [`Reference`]).

use crate::host::{thread_cpu, Reference};
use crate::trace::Tracer;
use ctg_bench::setup::{prepare_mpeg, profile_trace};
use ctg_model::{BranchProbs, DecisionVector};
use ctg_obs::{Event, EventKind, Obs, Sink, Stage};
use ctg_sched::{
    validate_solution, AdaptiveScheduler, OnlineScheduler, PortfolioStats, SchedContext,
    SchedError, Solution, DEFAULT_PORTFOLIO,
};
use ctg_sim::{
    percentile_sorted, run_serve, ArrivalConfig, ArrivalKind, CacheMode, EngineKind, RunConfig,
    Runner, ServeConfig, ServeStats, SimWorkspace, StreamSpec,
};
use ctg_workloads::traces::{self, DriftProfile};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The adaptive manager's profiling window and drift threshold (the
/// paper's Fig. 5 / Table 2 setting).
const WINDOW: usize = 20;
const THRESHOLD: f64 = 0.1;
/// Deadline as a multiple of the nominal DLS makespan (the paper's MPEG
/// calibration).
const DEADLINE_FACTOR: f64 = 2.0;
/// The serve fleet's drift movies (one farm each), and the base seeds of
/// the movies and of the arrival processes (the workload seed offsets the
/// latter).
const FLEET_MOVIES: usize = 8;
const FLEET_MOVIE_SEED: u64 = 0x05EE_D00D;
const ARRIVAL_SEED: u64 = 0x0A17_1BA5;
/// Playback offset between sessions of one movie, in instances.
const OFFSET_STEP: usize = 37;
/// Instances a fleet session profiles for its initial table.
const FLEET_PROFILE: usize = 40;
/// Offered load per stream (arrivals per deadline) and the latency SLO,
/// both relative to the deadline.
const FLEET_LOAD: f64 = 0.8;
const FLEET_SLO: f64 = 2.0;
/// Shared schedule cache of the serve engine.
const SHARED_CAPACITY: usize = 4096;
const SHARED_STRIPES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MpegAdaptive,
    MpegPortfolio,
    ServeFleet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MpegAdaptive,
        Workload::MpegPortfolio,
        Workload::ServeFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MpegAdaptive => "mpeg-adaptive",
            Workload::MpegPortfolio => "mpeg-portfolio",
            Workload::ServeFleet => "serve-fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Instances per movie of a playlist, or per session of the fleet.
    pub movie_len: usize,
    /// Fleet sessions (serve-fleet only).
    pub streams: usize,
    /// Instances per timed segment of a playlist round.
    pub segment: usize,
    /// Host seconds one timed round takes on the host the bounds were set
    /// on; a run makes `--seconds / round_s` rounds, whatever the speed
    /// of the code, so both sides of a comparison aggregate over the same
    /// number of samples.
    pub round_s: f64,
}

impl Sizes {
    pub fn of(w: Workload, tiny: bool) -> Sizes {
        let (movie_len, streams, segment, round_s) = match (w, tiny) {
            (Workload::MpegAdaptive, false) => (1000, 0, 250, 1.5),
            (Workload::MpegPortfolio, false) => (250, 0, 20, 4.5),
            (Workload::ServeFleet, false) => (400, 64, 0, 1.8),
            (Workload::MpegAdaptive, true) => (60, 0, 30, 0.05),
            (Workload::MpegPortfolio, true) => (30, 0, 10, 0.05),
            (Workload::ServeFleet, true) => (60, 16, 0, 0.05),
        };
        Sizes {
            movie_len,
            streams,
            segment,
            round_s,
        }
    }
}

/// splitmix64: the workload seed's pseudo-random stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order the workload seed plays `n` movies in (seed 0 keeps the
/// preset order).
fn play_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed != 0 {
        let mut state = seed;
        for i in (1..n).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

/// What set-up hands to the rounds.
pub struct Prepared {
    pub ctx: SchedContext,
    /// Instances per timed segment of a playlist round.
    pub segment: usize,
    pub input: Input,
}

pub enum Input {
    Adaptive {
        playlist: Vec<DecisionVector>,
        manager: Box<AdaptiveScheduler>,
    },
    Serve {
        /// One farm per drift movie.
        farms: Vec<Farm>,
    },
}

/// One decoder farm: the sessions playing one drift movie, served by one
/// `run_serve` call.
pub struct Farm {
    specs: Vec<StreamSpec>,
    run_cfg: RunConfig,
    serve_cfg: ServeConfig,
}

fn sched_err(e: SchedError) -> String {
    format!("library call failed: {e}")
}

/// The eight movie presets played back to back, `len` instances each,
/// in the order the workload seed picks.
fn playlist(ctx: &SchedContext, seed: u64, len: usize) -> Vec<DecisionVector> {
    let movies = traces::movie_presets();
    play_order(seed, movies.len())
        .into_iter()
        .flat_map(|m| traces::generate_trace(ctx.ctg(), &movies[m].profile, len))
        .collect()
}

/// The decoder farms: one per drift movie, `streams / FLEET_MOVIES`
/// sessions each. Session `k` of a farm lags the farm's first session by
/// `k * OFFSET_STEP` instances, so later sessions revisit regimes earlier
/// ones already solved. The workload seed drives the sessions' arrival
/// times (see [`fleet_config`]).
fn fleet(ctx: &SchedContext, sizes: &Sizes, seed: u64) -> Vec<Farm> {
    let len = sizes.movie_len;
    (0..FLEET_MOVIES)
        .map(|m| {
            let profile = DriftProfile::new(FLEET_MOVIE_SEED + m as u64);
            let movie = traces::generate_trace(ctx.ctg(), &profile, len);
            let specs = (0..sizes.streams / FLEET_MOVIES)
                .map(|k| {
                    let from = k * OFFSET_STEP % len;
                    let trace: Vec<DecisionVector> = movie[from..]
                        .iter()
                        .chain(&movie[..from])
                        .cloned()
                        .collect();
                    let initial_probs = profile_trace(ctx, &trace[..FLEET_PROFILE.min(len)]);
                    StreamSpec {
                        trace,
                        initial_probs,
                        window: WINDOW,
                        threshold: THRESHOLD,
                        fault_plan: None,
                        criticality: 0,
                    }
                })
                .collect();
            let run_cfg = fleet_config(ctx, seed, m);
            let serve_cfg = run_cfg.serve_config();
            Farm {
                specs,
                run_cfg,
                serve_cfg,
            }
        })
        .collect()
}

/// Every knob of the run layer set explicitly: one worker, one shard, one
/// intra-solve worker, the shared cache with coalescing, Poisson arrivals
/// below saturation, the event engine, DLS only. The engine derives each
/// session's arrivals from the config's seed and the session's index in
/// its `run_serve` call, so every farm gets a seed of its own; with one
/// seed for all, the eight farms would see the same arrival bursts.
fn fleet_config(ctx: &SchedContext, seed: u64, farm: usize) -> RunConfig {
    let deadline = ctx.ctg().deadline();
    RunConfig::new()
        .workers(1)
        .shards(1)
        .intra_solve_workers(1)
        .cache(CacheMode::Shared {
            capacity: SHARED_CAPACITY,
            stripes: SHARED_STRIPES,
        })
        .coalesce(true)
        .quantum(THRESHOLD)
        .arrival(ArrivalConfig {
            kind: ArrivalKind::Poisson {
                rate: FLEET_LOAD / deadline,
            },
            seed: ARRIVAL_SEED
                ^ seed
                    .wrapping_mul(FLEET_MOVIES as u64)
                    .wrapping_add(farm as u64),
            slo: Some(FLEET_SLO * deadline),
            traces: Vec::new(),
        })
        .engine(EngineKind::Events)
        .portfolio(&[])
}

/// Whether an adopted plan passes the output check: a valid schedule and
/// speed assignment whose worst-case makespan meets the deadline.
pub fn plan_ok(ctx: &SchedContext, plan: &Solution) -> bool {
    validate_solution(ctx, &plan.schedule, &plan.speeds).is_ok()
        && plan.worst_case_makespan(ctx) <= ctx.ctg().deadline() + 1e-6
}

/// Builds the workload's inputs and solves its initial plans.
pub fn setup(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    let ctx = tracer.root("setup.context", || prepare_mpeg(DEADLINE_FACTOR));
    let input = match w {
        Workload::ServeFleet => {
            let farms = tracer.root("setup.traces", || fleet(&ctx, sizes, seed));
            let mut tables: Vec<&BranchProbs> = Vec::new();
            for s in farms.iter().flat_map(|f| &f.specs) {
                if !tables.contains(&&s.initial_probs) {
                    tables.push(&s.initial_probs);
                }
            }
            let plans = tracer
                .root("setup.solve", || {
                    tables
                        .iter()
                        .map(|t| OnlineScheduler::new().solve(&ctx, t))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(sched_err)?;
            if !plans.iter().all(|p| plan_ok(&ctx, p)) {
                return Err("an initial fleet plan fails the output check".into());
            }
            Input::Serve { farms }
        }
        Workload::MpegAdaptive | Workload::MpegPortfolio => {
            let (playlist, table) = tracer.root("setup.traces", || {
                let p = playlist(&ctx, seed, sizes.movie_len);
                let t = profile_trace(&ctx, &p);
                (p, t)
            });
            let manager = tracer
                .root("setup.solve", || {
                    let mut m = AdaptiveScheduler::new(&ctx, table, WINDOW, THRESHOLD)?;
                    m.set_intra_solve_workers(1);
                    if w == Workload::MpegPortfolio {
                        m.enable_portfolio(&DEFAULT_PORTFOLIO)?;
                    }
                    Ok(m)
                })
                .map_err(sched_err)?;
            if !plan_ok(&ctx, manager.solution()) {
                return Err("the initial plan fails the output check".into());
            }
            Input::Adaptive {
                playlist,
                manager: Box::new(manager),
            }
        }
    };
    Ok(Prepared {
        ctx,
        segment: sizes.segment,
        input,
    })
}

/// How a round is run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untimed: validates every adopted plan and derives the simulated
    /// latency percentiles; the other rounds are compared with it.
    Check,
    /// Timed, with a reference burst after every segment.
    Timed,
    /// Timed like [`Mode::Timed`], and on serve-fleet with the engine's
    /// solve spans collected as its re-solve timings (the engine solves
    /// inside `run_serve`, out of the benchmark's reach). Its segment
    /// times include that recording and are not used for throughput.
    Solves,
    /// Neither checked nor timed: the traced round, under the tracer, and
    /// the untraced rounds it is compared with.
    Bare,
}

/// A timed piece of a round: thread CPU seconds and the reference factor
/// read right after it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_s: f64,
    pub factor: f64,
}

impl Timing {
    /// The time scaled to the reference host.
    pub fn scaled_s(self) -> f64 {
        self.raw_s * self.factor
    }
}

/// Outcome of one round.
#[derive(Debug, Default)]
pub struct RoundOut {
    pub instances: usize,
    pub energy: f64,
    /// Instances that failed: deadline misses, instances run under a plan
    /// that fails the output check, and instances lost to a count
    /// mismatch.
    pub failed: usize,
    /// Adopted re-schedules (observe workloads).
    pub adopted: usize,
    pub solver_calls: usize,
    pub portfolio: PortfolioStats,
    pub serve: Option<ServeStats>,
    /// Instances simulated by the benchmark's own calls (the serve
    /// engine's instances run inside `run_serve`).
    pub direct_sims: usize,
    pub sim_rebuilds: usize,
    /// Latency percentiles in simulated time (check rounds only).
    pub latency_p50: f64,
    pub latency_p99: f64,
    /// Each segment of the round (a fixed slice of a playlist; one farm).
    pub segments: Vec<Timing>,
    /// Each re-solve: an adopting `observe` call, or on serve-fleet a
    /// solve span of the engine ([`Mode::Solves`] rounds only).
    pub resolves: Vec<Timing>,
    /// Drift tables whose solve enumerated paths (traced rounds only).
    pub rebuild_tables: Vec<BranchProbs>,
    pub wall_s: f64,
}

impl RoundOut {
    /// The deterministic outputs, for the digest and the round-to-round
    /// comparison.
    pub fn outputs(&self) -> Vec<(&'static str, u64)> {
        let mut v = vec![
            ("instances", self.instances as u64),
            ("energy_bits", self.energy.to_bits()),
            ("failed", self.failed as u64),
            ("adopted", self.adopted as u64),
            ("solver_calls", self.solver_calls as u64),
            ("races", self.portfolio.races as u64),
            ("direct_sims", self.direct_sims as u64),
            ("sim_rebuilds", self.sim_rebuilds as u64),
        ];
        for wins in self.portfolio.wins {
            v.push(("wins", wins as u64));
        }
        if let Some(s) = &self.serve {
            v.extend([
                ("serve.events", s.events as u64),
                ("serve.drift_events", s.drift_events as u64),
                ("serve.requests", s.requests as u64),
                ("serve.groups", s.groups as u64),
                ("serve.shared_hit_requests", s.shared_hit_requests as u64),
                ("serve.solver_calls", s.solver_calls as u64),
                ("serve.max_queue_depth", s.max_queue_depth as u64),
                ("serve.slo_misses", s.slo_misses as u64),
                ("serve.latency_p50_bits", s.latency_p50.to_bits()),
                ("serve.latency_p99_bits", s.latency_p99.to_bits()),
            ]);
        }
        v
    }

    /// Closes a segment that started at thread CPU time `from`: times it,
    /// runs a reference burst (outside timed modes the factor is 1) and
    /// gives the factor to the re-solves recorded since `resolves_from`.
    fn close_segment(
        &mut self,
        from: std::time::Duration,
        resolves_from: usize,
        reference: &mut Reference,
        mode: Mode,
    ) {
        let raw_s = (thread_cpu() - from).as_secs_f64();
        let factor = match mode {
            Mode::Timed | Mode::Solves => reference.factor(),
            Mode::Check | Mode::Bare => 1.0,
        };
        self.segments.push(Timing { raw_s, factor });
        for r in &mut self.resolves[resolves_from..] {
            r.factor = factor;
        }
    }
}

/// Runs one round.
pub fn round(
    p: &Prepared,
    mode: Mode,
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Result<RoundOut, String> {
    let ctx = &p.ctx;
    let wall0 = Instant::now();
    let mut out = match &p.input {
        Input::Adaptive { playlist, manager } => {
            adaptive_round(ctx, playlist, p.segment, manager, mode, reference, tracer)
        }
        Input::Serve { farms } => serve_round(ctx, farms, mode, reference, tracer),
    }?;
    out.wall_s = wall0.elapsed().as_secs_f64();
    Ok(out)
}

fn adaptive_round(
    ctx: &SchedContext,
    playlist: &[DecisionVector],
    segment: usize,
    manager: &AdaptiveScheduler,
    mode: Mode,
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Result<RoundOut, String> {
    let check = mode == Mode::Check;
    let mut mgr = manager.clone();
    mgr.set_obs(tracer.obs(), 0);
    let calls0 = mgr.stats().calls;
    let mut sim = SimWorkspace::new(ctx, mgr.solution());
    let mut out = RoundOut::default();
    let mut makespans = Vec::with_capacity(if check { playlist.len() } else { 0 });
    let mut bad_plan = false;
    let mut seg0 = thread_cpu();
    let mut seg_resolves = 0;
    for (i, v) in playlist.iter().enumerate() {
        if i > 0 && i % segment == 0 {
            out.close_segment(seg0, seg_resolves, reference, mode);
            seg_resolves = out.resolves.len();
            seg0 = thread_cpu();
        }
        let r = tracer
            .hot("instance.simulate", || sim.simulate(ctx, mgr.solution(), v))
            .map_err(sched_err)?;
        out.instances += 1;
        out.energy += r.energy;
        out.failed += usize::from(!r.deadline_met || bad_plan);
        if check {
            makespans.push(r.makespan);
        }
        let t0 = thread_cpu();
        let adopted = tracer
            .hot("adaptive.observe", || mgr.observe(ctx, v))
            .map_err(sched_err)?;
        let t1 = thread_cpu();
        if adopted {
            out.resolves.push(Timing {
                raw_s: (t1 - t0).as_secs_f64(),
                factor: 1.0,
            });
            out.adopted += 1;
            if tracer.last_root_has("sgraph") {
                out.rebuild_tables.push(mgr.current_probs().clone());
            }
            tracer.hot("instance.rebuild", || sim.rebuild(ctx, mgr.solution()));
            out.sim_rebuilds += 1;
            if check {
                bad_plan = !plan_ok(ctx, mgr.solution());
            }
        }
    }
    out.close_segment(seg0, seg_resolves, reference, mode);
    out.direct_sims = out.instances;
    out.solver_calls = mgr.stats().calls - calls0;
    out.portfolio = mgr.portfolio_stats();
    if check {
        makespans.sort_by(f64::total_cmp);
        out.latency_p50 = percentile_sorted(&makespans, 50.0);
        out.latency_p99 = percentile_sorted(&makespans, 99.0);
    }
    Ok(out)
}

/// Keeps the durations of the library's solve spans and drops every other
/// event: serve-fleet's re-solve timings.
#[derive(Default)]
struct SolveSpans(Mutex<Vec<u64>>);

impl Sink for SolveSpans {
    fn record(&self, event: Event) {
        if event.kind == EventKind::Span && event.stage == Stage::Solve {
            self.0.lock().expect("unpoisoned").push(event.dur_ns);
        }
    }

    fn len(&self) -> usize {
        self.0.lock().expect("unpoisoned").len()
    }
}

fn serve_round(
    ctx: &SchedContext,
    farms: &[Farm],
    mode: Mode,
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Result<RoundOut, String> {
    let mut out = RoundOut::default();
    let mut stats: Vec<ServeStats> = Vec::new();
    let mut session_p50: Vec<f64> = Vec::new();
    let mut session_p99: Vec<f64> = Vec::new();
    for farm in farms {
        let spans = Arc::new(SolveSpans::default());
        let obs = match mode {
            Mode::Solves => Obs::with_sink(spans.clone()),
            Mode::Check | Mode::Timed | Mode::Bare => tracer.obs(),
        };
        let runner = obs
            .enabled()
            .then(|| Runner::new(farm.run_cfg.clone().obs(obs)));
        let seg_resolves = out.resolves.len();
        let seg0 = thread_cpu();
        let report = tracer
            .root("serve.run", || match &runner {
                Some(runner) => runner.serve(ctx, &farm.specs),
                None => run_serve(ctx, &farm.specs, &farm.serve_cfg),
            })
            .map_err(sched_err)?;
        let spans = std::mem::take(&mut *spans.0.lock().expect("unpoisoned"));
        out.resolves.extend(spans.into_iter().map(|ns| Timing {
            raw_s: ns as f64 / 1e9,
            factor: 1.0,
        }));
        out.close_segment(seg0, seg_resolves, reference, mode);
        if report.streams.len() != farm.specs.len() {
            return Err("serve report lost streams".into());
        }
        let mut instances = 0;
        for (s, spec) in report.streams.iter().zip(&farm.specs) {
            instances += s.exec.instances;
            out.energy += s.exec.total_energy;
            out.failed += s.exec.deadline_misses;
            // A session that simulated fewer instances than its trace lost
            // the rest.
            out.failed += spec.trace.len().saturating_sub(s.exec.instances);
        }
        out.failed += instances.abs_diff(report.stats.instances);
        out.instances += instances;
        session_p50.extend(report.latencies.iter().map(|l| l.p50));
        session_p99.extend(report.latencies.iter().map(|l| l.p99));
        stats.push(report.stats);
    }
    // The report carries each session's latency percentiles, not its
    // samples: the fleet's figure is the median session's.
    out.latency_p50 = crate::median(session_p50);
    out.latency_p99 = crate::median(session_p99);
    let mut merged = merge_stats(&stats);
    merged.latency_p50 = out.latency_p50;
    merged.latency_p99 = out.latency_p99;
    out.serve = Some(merged);
    Ok(out)
}

/// The fleet's engine counters: the farms' counts summed and the deepest
/// queue.
fn merge_stats(farms: &[ServeStats]) -> ServeStats {
    let mut m = ServeStats::default();
    for s in farms {
        m.streams += s.streams;
        m.instances += s.instances;
        m.events += s.events;
        m.drift_events += s.drift_events;
        m.requests += s.requests;
        m.groups += s.groups;
        m.shared_hit_requests += s.shared_hit_requests;
        m.solver_calls += s.solver_calls;
        m.slo_misses += s.slo_misses;
        m.max_queue_depth = m.max_queue_depth.max(s.max_queue_depth);
    }
    m
}
