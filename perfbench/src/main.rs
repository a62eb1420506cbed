//! The repository's benchmark: one workload per process, end-to-end
//! metrics with tracing off, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mpeg-adaptive|mpeg-portfolio|serve-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the run's noise diagnostic (wall time, host steal time, the
//! reference kernel's time and the unscaled timings) and the digest of its
//! deterministic outputs. See `perfbench/README.md` for the workloads and
//! the definition of every metric.

mod host;
mod trace;
mod work;

use host::Reference;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use work::{Mode, Prepared, RoundOut, Sizes, Timing, Workload};

/// Timed rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 4;
/// Set-ups per run: the first, timed from `main`'s entry, then repeats
/// spread evenly between the timed rounds, so their median samples the
/// host across the whole run rather than one moment of it.
const SETUPS: usize = 11;
/// Untimed rounds the traced run compares its traced round with.
const OVERHEAD_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
    })
}

/// The library reads `CTG_*` variables at call time (worker counts,
/// shards, intra-solve workers, arrivals, scheduler selection); a run
/// under any of them would not measure the pinned configuration.
fn refuse_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CTG_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Position by position, the median over rounds of the scaled and of the
/// raw times. Rounds repeat the same work, so position `i` is the same
/// segment or re-solve in every round.
fn per_position<'a>(rounds: impl Iterator<Item = &'a [Timing]> + Clone) -> (Vec<f64>, Vec<f64>) {
    let n = rounds.clone().map(<[Timing]>::len).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            (
                median(rounds.clone().map(|r| r[i].scaled_s()).collect()),
                median(rounds.clone().map(|r| r[i].raw_s).collect()),
            )
        })
        .unzip()
}

fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    ctg_sim::percentile_sorted(&v, p)
}

/// FNV-1a over the deterministic outputs.
fn digest(outputs: &[(&str, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, value) in outputs {
        for b in name.bytes().chain(value.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The result line and everything printed before it.
struct Report {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
    noise: Vec<(&'static str, String)>,
}

impl Report {
    fn print(&self) {
        let mut noise = String::from("{");
        for (i, (k, v)) in self.noise.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(noise, "{sep}\"{k}\":{v}");
        }
        noise.push('}');
        println!("{noise}");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Set-up timed from `t0` on the thread CPU clock, followed by a reference
/// burst that scales it.
fn timed_setup(
    args: &Args,
    sizes: &Sizes,
    t0: Duration,
    reference: &mut Reference,
) -> Result<(Prepared, Timing), String> {
    let p = work::setup(args.workload, sizes, args.seed, &mut Tracer::disabled())?;
    let raw_s = (host::thread_cpu() - t0).as_secs_f64();
    let factor = reference.factor();
    Ok((p, Timing { raw_s, factor }))
}

/// Instances of `r` if its outputs differ from the check round's.
fn divergence(r: &RoundOut, check: &RoundOut) -> usize {
    if r.outputs() == check.outputs() {
        0
    } else {
        r.instances.max(1)
    }
}

fn untraced(args: &Args, main_cpu: Duration) -> Result<Report, String> {
    let sizes = Sizes::of(args.workload, args.tiny);
    let mut reference = Reference::new();
    let (p, first) = timed_setup(args, &sizes, main_cpu, &mut reference)?;
    let mut setups = vec![first];
    let check = work::round(&p, Mode::Check, &mut reference, &mut Tracer::disabled())?;
    let n_rounds = if args.tiny {
        2
    } else {
        MIN_ROUNDS.max((args.seconds / sizes.round_s).round() as usize)
    };
    let serve = matches!(p.input, work::Input::Serve { .. });
    let mut rounds: Vec<(Mode, RoundOut)> = Vec::with_capacity(n_rounds);
    let mut diverged = 0;
    for i in 0..n_rounds {
        // serve-fleet alternates throughput rounds with rounds that
        // collect the engine's solve spans.
        let mode = if serve && i % 2 == 1 {
            Mode::Solves
        } else {
            Mode::Timed
        };
        let r = work::round(&p, mode, &mut reference, &mut Tracer::disabled())?;
        diverged += divergence(&r, &check);
        rounds.push((mode, r));
        let repeats = SETUPS - 1;
        if (i + 1) * repeats / n_rounds > i * repeats / n_rounds {
            let (_, t) = timed_setup(args, &sizes, host::thread_cpu(), &mut reference)?;
            setups.push(t);
        }
    }
    let throughput = rounds
        .iter()
        .filter(|(m, _)| *m == Mode::Timed)
        .map(|(_, r)| r.segments.as_slice());
    let (seg_scaled, seg_raw) = per_position(throughput);
    let solve_mode = if serve { Mode::Solves } else { Mode::Timed };
    let solves = rounds
        .iter()
        .filter(|(m, _)| *m == solve_mode)
        .map(|(_, r)| r.resolves.as_slice());
    let (resolve_s, resolve_raw) = per_position(solves);
    let inst_per_s = check.instances as f64 / seg_scaled.iter().sum::<f64>();
    let us = |p: f64| percentile(resolve_s.clone(), p) * 1e6;
    let metrics = vec![
        (
            "setup_s",
            median(setups.iter().map(|t| t.scaled_s()).collect()),
            "s",
        ),
        ("inst_per_s", inst_per_s, "1/s"),
        ("resolve_p50_us", us(50.0), "us"),
        ("resolve_p95_us", us(95.0), "us"),
        ("resolve_p99_us", us(99.0), "us"),
        (
            "energy_per_inst",
            check.energy / check.instances as f64,
            "energy",
        ),
        ("latency_p50_vt", check.latency_p50, "vt"),
        ("latency_p99_vt", check.latency_p99, "vt"),
        (
            "peak_rss_mb",
            host::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        ),
    ];
    let attempted = check.instances + rounds.iter().map(|(_, r)| r.instances).sum::<usize>();
    let failed = check.failed + rounds.iter().map(|(_, r)| r.failed).sum::<usize>() + diverged;
    let noise = vec![
        ("timed_rounds", rounds.len().to_string()),
        ("round_instances", check.instances.to_string()),
        ("resolve_samples", resolve_s.len().to_string()),
        ("setups", setups.len().to_string()),
        (
            "reference_ms",
            json_num(median(reference.samples_s().to_vec()) * 1e3),
        ),
        (
            "raw_setup_s",
            json_num(median(setups.iter().map(|t| t.raw_s).collect())),
        ),
        (
            "raw_inst_per_s",
            json_num(check.instances as f64 / seg_raw.iter().sum::<f64>()),
        ),
        (
            "raw_resolve_p50_us",
            json_num(percentile(resolve_raw, 50.0) * 1e6),
        ),
        (
            "timed_wall_s",
            json_num(rounds.iter().map(|(_, r)| r.wall_s).sum()),
        ),
    ];
    Ok(Report {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        noise: with_digest(noise, &check),
    })
}

fn with_digest(
    mut noise: Vec<(&'static str, String)>,
    check: &RoundOut,
) -> Vec<(&'static str, String)> {
    noise.push(("digest", format!("\"{:016x}\"", digest(&check.outputs()))));
    noise
}

fn traced(args: &Args) -> Result<Report, String> {
    let sizes = Sizes::of(args.workload, args.tiny);
    let mut tracer = Tracer::enabled();
    let mut reference = Reference::new();
    let p = tracer.section(|t| work::setup(args.workload, &sizes, args.seed, t))?;
    let check = work::round(&p, Mode::Check, &mut reference, &mut Tracer::disabled())?;
    // Untraced rounds of the same work price the tracing itself.
    let mut rounds = Vec::with_capacity(OVERHEAD_ROUNDS);
    for _ in 0..OVERHEAD_ROUNDS {
        rounds.push(work::round(
            &p,
            Mode::Bare,
            &mut reference,
            &mut Tracer::disabled(),
        )?);
    }
    let t = tracer.section(|t| work::round(&p, Mode::Bare, &mut reference, t))?;
    let diverged: usize = rounds
        .iter()
        .chain([&t])
        .map(|r| divergence(r, &check))
        .sum();
    let failed =
        check.failed + t.failed + rounds.iter().map(|r| r.failed).sum::<usize>() + diverged;
    let overhead = t.wall_s / median(rounds.iter().map(|r| r.wall_s).collect());
    let paths = replay_paths(&p, &t.rebuild_tables)?;
    let metrics = layer_metrics(&tracer, &t, paths, overhead);
    let attempted =
        check.instances + t.instances + rounds.iter().map(|r| r.instances).sum::<usize>();
    write_spans(args, &tracer);
    let mut counts: Vec<(&str, u64)> = t.outputs();
    for (name, value, unit) in &metrics {
        if *unit == "count" {
            counts.push((name, *value as u64));
        }
    }
    let noise = vec![
        ("traced_wall_s", json_num(tracer.wall_s())),
        ("layer_digest", format!("\"{:016x}\"", digest(&counts))),
    ];
    Ok(Report {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        noise: with_digest(noise, &check),
    })
}

/// Paths enumerated by the traced round's graph rebuilds, replayed from
/// the drift tables through `dls_schedule` and `ScheduledGraph::build`
/// (the solver does not report path counts).
fn replay_paths(p: &Prepared, tables: &[ctg_model::BranchProbs]) -> Result<u64, String> {
    let mut paths = 0;
    for t in tables {
        let schedule = ctg_sched::dls_schedule(&p.ctx, t).map_err(|e| e.to_string())?;
        paths +=
            ctg_sched::ScheduledGraph::build(&p.ctx, &schedule, t, ctg_sched::DEFAULT_PATH_CAP)
                .map_or(0, |g| g.paths().len() as u64);
    }
    Ok(paths)
}

fn layer_metrics(
    tr: &Tracer,
    t: &RoundOut,
    paths: u64,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    use ctg_obs::Stage;
    let n = |v: u64| v as f64;
    let solves = tr.stage_count(Stage::Solve, None);
    let reuses = tr.stage_count(Stage::Solve, Some(1));
    let memo = tr.stage_count(Stage::Solve, Some(2));
    let near = tr.stage_count(Stage::Solve, Some(3));
    let serve = t.serve.unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        (
            "stretch.calls",
            n(tr.stage_count(Stage::Stretch, None)),
            "count",
        ),
        ("stretch.busy_s", tr.busy_s("stretch"), "s"),
        (
            "sgraph.builds",
            n(tr.stage_count(Stage::PathEnum, None)),
            "count",
        ),
        ("sgraph.paths", n(paths), "count"),
        ("sgraph.busy_s", tr.busy_s("sgraph"), "s"),
        ("dls.calls", n(tr.stage_count(Stage::DlsMap, None)), "count"),
        ("dls.busy_s", tr.busy_s("dls"), "s"),
        ("workspace.solves", n(solves), "count"),
        ("workspace.graph_reuses", n(reuses), "count"),
        (
            "workspace.graph_rebuilds",
            n(tr.stage_count(Stage::Solve, Some(0))),
            "count",
        ),
        ("workspace.near_hits", n(near), "count"),
        ("workspace.memo_hits", n(memo), "count"),
        (
            "workspace.reuse_ratio",
            ratio(n(reuses + memo + near), n(solves)),
            "ratio",
        ),
        ("workspace.busy_s", tr.busy_s("workspace"), "s"),
        (
            "scheduler.races",
            n(tr.stage_count(Stage::PortfolioRace, None)),
            "count",
        ),
        (
            "scheduler.wins.dls",
            n(tr.stage_count(Stage::PortfolioRace, Some(0))),
            "count",
        ),
        (
            "scheduler.wins.heft",
            n(tr.stage_count(Stage::PortfolioRace, Some(1))),
            "count",
        ),
        (
            "scheduler.wins.lookahead",
            n(tr.stage_count(Stage::PortfolioRace, Some(2))),
            "count",
        ),
        ("scheduler.busy_s", tr.busy_s("scheduler"), "s"),
        ("scheduler.race_to_dls", tr.race_to_dls(), "ratio"),
        ("adaptive.calls", n(tr.calls("adaptive.observe")), "count"),
        ("adaptive.drift_events", t.adopted as f64, "count"),
        ("adaptive.solver_calls", t.solver_calls as f64, "count"),
        ("adaptive.profile_s", tr.hot_s("adaptive.observe"), "s"),
        ("adaptive.busy_s", tr.busy_s("adaptive"), "s"),
        ("serve.events", serve.events as f64, "count"),
        ("serve.drift_events", serve.drift_events as f64, "count"),
        ("serve.requests", serve.requests as f64, "count"),
        ("serve.groups", serve.groups as f64, "count"),
        (
            "serve.shared_hits",
            serve.shared_hit_requests as f64,
            "count",
        ),
        ("serve.solver_calls", serve.solver_calls as f64, "count"),
        ("serve.shared_hit_rate", serve.shared_hit_rate(), "ratio"),
        (
            "serve.coalescing_factor",
            serve.coalescing_factor(),
            "ratio",
        ),
        (
            "serve.max_queue_depth",
            serve.max_queue_depth as f64,
            "count",
        ),
        ("serve.slo_miss_rate", serve.slo_miss_rate(), "ratio"),
        ("serve.busy_s", tr.busy_s("serve"), "s"),
        ("instance.calls", t.direct_sims as f64, "count"),
        ("instance.rebuilds", t.sim_rebuilds as f64, "count"),
        ("instance.busy_s", tr.busy_s("instance"), "s"),
        ("setup.context_s", tr.busy_s("setup.context"), "s"),
        ("setup.traces_s", tr.busy_s("setup.traces"), "s"),
        ("setup.solve_s", tr.busy_s("setup.solve"), "s"),
        ("trace.wall_s", tr.wall_s(), "s"),
        ("unattributed_s", tr.wall_s() - tr.attributed_s(), "s"),
        ("obs.overhead_ratio", overhead, "ratio"),
    ]
}

/// Writes the traced run's spans next to the benchmark's build output.
fn write_spans(args: &Args, tracer: &Tracer) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perfbench-spans")))
    else {
        return;
    };
    let file = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, tracer.render(args.workload.name())));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
}

fn main() -> ExitCode {
    let main_cpu = host::thread_cpu();
    let wall0 = Instant::now();
    let steal0 = host::steal_s();
    let run = refuse_env().and_then(|()| parse_args()).and_then(|args| {
        let mut report = if args.trace {
            traced(&args)?
        } else {
            untraced(&args, main_cpu)?
        };
        report.noise.splice(
            0..0,
            [
                ("workload", format!("\"{}\"", args.workload.name())),
                ("seed", args.seed.to_string()),
                ("trace", u8::from(args.trace).to_string()),
            ],
        );
        Ok(report)
    });
    match run {
        Ok(mut report) => {
            report
                .noise
                .push(("wall_s", json_num(wall0.elapsed().as_secs_f64())));
            let steal = match (steal0, host::steal_s()) {
                (Some(a), Some(b)) => json_num(b - a),
                _ => "null".into(),
            };
            report.noise.push(("steal_s", steal));
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} instances failed the output check",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
