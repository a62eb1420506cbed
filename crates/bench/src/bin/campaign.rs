//! Campaign bench — the fleet-scale what-if engine (`ctg_sim::campaign`)
//! over a fig. 5/6-style sensitivity grid: workloads × deadline factors ×
//! fault rates × arrival processes × adaptive knobs, every cell a full
//! multi-stream serve run.
//!
//! The full grid (288 cells × 8 streams × 480 instances ≈ 1.1M simulated
//! instances) exercises everything the campaign engine exists for:
//!
//! * **setup amortization** — 288 cells share 8 compiled
//!   (workload, deadline) artifacts, so workload construction, deadline
//!   calibration and drift-trace generation are paid 8 times, not 288;
//! * **work stealing** — cell costs vary widely across knobs and fault
//!   rates, and the one-at-a-time claim discipline keeps workers busy;
//! * **bounded memory** — cells stream to JSONL and only the fixed-size
//!   roll-up stays resident (peak RSS is reported to prove it);
//! * **checkpoint/resume** — smoke runs kill the campaign halfway
//!   (simulated by truncating the JSONL mid-line) and assert the resumed
//!   roll-up is bit-identical to the uninterrupted one.
//!
//! Pass `--smoke` for a seconds-scale run (CI); numbers land in
//! `BENCH_campaign.json`, or `target/BENCH_campaign_smoke.json` for smoke
//! runs so CI never clobbers the committed full-run artifact.

use ctg_bench::setup::{prepare_case, prepare_cruise, prepare_mpeg, profile_trace};
use ctg_sched::SchedError;
use ctg_sim::campaign::{
    run_campaign, ArrivalSpec, Artifact, CampaignConfig, CampaignSpec, KnobSpec,
};
use ctg_sim::RunConfig;
use ctg_workloads::traces::{self, DriftProfile};
use tgff_gen::{Category, TgffConfig};

const TRACE_SEED: u64 = 0x7A5C_BA5E;
const TGFF_SEED: u64 = 31;

/// Resolves a workload × platform label pair to a compiled artifact.
///
/// Workload labels: `mpeg`, `cruise`, or `tgff-<tasks>-<branches>`.
/// Platform labels: `dl<factor>` — the paper's deadline calibration
/// (deadline = factor × the nominal DLS makespan).
fn compile(workload: &str, platform: &str, trace_len: usize) -> Result<Artifact, SchedError> {
    let factor: f64 = platform
        .strip_prefix("dl")
        .and_then(|s| s.parse().ok())
        .expect("platform label is dl<factor>");
    let (ctx, gen_probs) = match workload {
        "mpeg" => (prepare_mpeg(factor), None),
        "cruise" => (prepare_cruise(factor), None),
        tgff => {
            let mut parts = tgff
                .strip_prefix("tgff-")
                .expect("workload label is mpeg|cruise|tgff-<t>-<b>")
                .split('-');
            let tasks: usize = parts.next().unwrap().parse().expect("tgff task count");
            let branches: usize = parts.next().unwrap().parse().expect("tgff branch count");
            let cfg = TgffConfig::new(TGFF_SEED, tasks, branches, Category::ForkJoin);
            let case = prepare_case(&cfg, 3, factor);
            (case.ctx, Some(case.probs))
        }
    };
    // One drift movie per workload label; deadline factor leaves the graph
    // (and so the trace) unchanged, but the artifact is per-pair anyway —
    // regenerating it is exactly the redundant setup the cache absorbs.
    let seed = TRACE_SEED
        ^ workload
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(257).wrapping_add(b as u64));
    let trace = traces::generate_trace(ctx.ctg(), &DriftProfile::new(seed), trace_len);
    let probs = match gen_probs {
        // TGFF cases: the generator's "true" average probabilities.
        Some(p) => p,
        // Library applications: empirical profile of the trace head.
        None => profile_trace(&ctx, &trace[..trace_len.min(40)]),
    };
    Ok(Artifact { ctx, probs, trace })
}

fn full_spec() -> CampaignSpec {
    CampaignSpec {
        name: "fig56-sensitivity".into(),
        workloads: vec![
            "mpeg".into(),
            "cruise".into(),
            "tgff-20-2".into(),
            "tgff-26-3".into(),
        ],
        platforms: vec!["dl1.6".into(), "dl2.0".into()],
        fault_rates: vec![0.0, 0.02, 0.05],
        arrivals: vec![ArrivalSpec::ClosedLoop, ArrivalSpec::Poisson { rate: 0.05 }],
        knobs: [
            (10usize, 0.05),
            (10, 0.1),
            (10, 0.25),
            (20, 0.05),
            (20, 0.1),
            (20, 0.25),
        ]
        .iter()
        .map(|&(window, threshold)| KnobSpec { window, threshold })
        .collect(),
        schedulers: vec!["dls".into()],
        streams: 8,
        seed: 0xF16_5600D,
        explicit: Vec::new(),
    }
}

fn smoke_spec() -> CampaignSpec {
    CampaignSpec {
        name: "fig56-sensitivity-smoke".into(),
        workloads: vec!["mpeg".into(), "tgff-20-2".into()],
        platforms: vec!["dl2.0".into()],
        fault_rates: vec![0.0, 0.05],
        arrivals: vec![ArrivalSpec::ClosedLoop],
        knobs: vec![
            KnobSpec {
                window: 20,
                threshold: 0.1,
            },
            KnobSpec {
                window: 10,
                threshold: 0.25,
            },
        ],
        schedulers: vec!["dls".into()],
        streams: 4,
        seed: 0xF16_5600D,
        explicit: Vec::new(),
    }
}

/// High-water-mark RSS of this process in MiB (0.0 where /proc is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Truncates the cell stream to its first `keep` lines plus a garbage
/// partial tail — the on-disk state a campaign killed mid-write leaves.
fn mangle_checkpoint(path: &std::path::Path, keep: usize) -> usize {
    let data = std::fs::read_to_string(path).expect("read cell stream");
    let total = data.lines().count();
    let mut kept = String::new();
    for line in data.lines().take(keep) {
        kept.push_str(line);
        kept.push('\n');
    }
    kept.push_str("{\"cell\":\"dead");
    std::fs::write(path, kept).expect("rewrite truncated stream");
    total
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace_len = if smoke { 60 } else { 480 };
    let spec = if smoke { smoke_spec() } else { full_spec() };
    let cells_total = spec.cells().len();
    let workers = RunConfig::from_env().workers;
    std::fs::create_dir_all("target").expect("create target dir");
    let jsonl = if smoke {
        "target/campaign_cells_smoke.jsonl"
    } else {
        "target/campaign_cells.jsonl"
    };
    println!(
        "campaign bench: {} ({} workloads x {} deadlines x {} faults x {} arrivals x {} knobs \
         = {} cells, {} streams x {} instances per cell, {} workers)",
        spec.name,
        spec.workloads.len(),
        spec.platforms.len(),
        spec.fault_rates.len(),
        spec.arrivals.len(),
        spec.knobs.len(),
        cells_total,
        spec.streams,
        trace_len,
        workers,
    );

    let compile_fn =
        move |w: &str, p: &str| -> Result<Artifact, SchedError> { compile(w, p, trace_len) };
    let cfg = CampaignConfig {
        workers,
        ..CampaignConfig::new(jsonl)
    };
    let report = run_campaign(&spec, &compile_fn, &cfg).expect("campaign runs");
    let r = &report;
    let cells_per_s = r.cells_run as f64 / r.wall_s;
    let inst_per_s = r.rollup.instances as f64 / r.wall_s;
    // Setup amortization: what compiling per cell *would* have cost
    // (mean compile × cells) over what the shared cache actually paid.
    let amortization = if r.compiles > 0 && r.compile_s > 0.0 {
        (r.compile_s / r.compiles as f64) * r.cells_run as f64 / r.compile_s
    } else {
        1.0
    };
    println!(
        "  ran {} cells ({} resumed) in {:.2}s: {:.1} cells/s, {:.0} inst/s \
         ({} instances, {} events)",
        r.cells_run,
        r.cells_resumed,
        r.wall_s,
        cells_per_s,
        inst_per_s,
        r.rollup.instances,
        r.rollup.events,
    );
    println!(
        "  artifacts: {} compiles ({:.2}s) serving {} cells -> amortization x{:.1}",
        r.compiles, r.compile_s, r.cells_run, amortization,
    );
    println!(
        "  rollup: miss rate {:.4}  resched/inst {:.4}  energy {:.1}  peak rss {:.1} MiB",
        r.rollup.deadline_misses as f64 / r.rollup.instances.max(1) as f64,
        r.rollup.reschedules as f64 / r.rollup.instances.max(1) as f64,
        r.rollup.total_energy,
        peak_rss_mb(),
    );

    if !smoke {
        assert!(
            r.rollup.instances >= 1_000_000,
            "full campaign must simulate >= 1M instances, got {}",
            r.rollup.instances
        );
        assert!(
            amortization >= 10.0,
            "artifact cache must amortize setup >= 10x, got {amortization:.1}"
        );
    }

    // Kill/resume drill: truncate the stream to half its cells plus a
    // partial garbage tail, resume, and demand a bit-identical roll-up.
    let total_lines = mangle_checkpoint(std::path::Path::new(jsonl), cells_total / 2);
    assert_eq!(total_lines, cells_total, "one line per cell");
    let resumed_report = run_campaign(
        &spec,
        &compile_fn,
        &CampaignConfig {
            resume: true,
            ..cfg.clone()
        },
    )
    .expect("resumed campaign runs");
    assert_eq!(resumed_report.cells_resumed, cells_total / 2);
    assert_eq!(
        resumed_report.rollup, r.rollup,
        "resumed roll-up must equal the uninterrupted roll-up"
    );
    assert_eq!(
        resumed_report.rollup.total_energy.to_bits(),
        r.rollup.total_energy.to_bits(),
        "resumed roll-up energy must be bit-identical"
    );
    println!(
        "  resume drill: {} resumed + {} re-run -> roll-up bit-identical: PASS",
        resumed_report.cells_resumed, resumed_report.cells_run
    );

    let out = if smoke {
        "target/BENCH_campaign_smoke.json"
    } else {
        "BENCH_campaign.json"
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"campaign\": \"{}\",\n",
            "  \"grid\": {{\"workloads\": {}, \"deadline_factors\": {}, \"fault_rates\": {}, ",
            "\"arrivals\": {}, \"knobs\": {}}},\n",
            "  \"cells\": {},\n  \"streams_per_cell\": {},\n  \"trace_len\": {},\n",
            "  \"workers\": {},\n  \"smoke\": {},\n",
            "  \"instances\": {},\n  \"wall_s\": {:.2},\n  \"cells_per_s\": {:.2},\n",
            "  \"inst_per_s\": {:.1},\n",
            "  \"compiles\": {},\n  \"artifact_hits\": {},\n  \"compile_s\": {:.3},\n",
            "  \"setup_amortization\": {:.1},\n  \"peak_rss_mb\": {:.1},\n",
            "  \"resume_drill\": \"pass\",\n",
            "  \"rollup\": {}\n",
            "}}\n"
        ),
        spec.name,
        spec.workloads.len(),
        spec.platforms.len(),
        spec.fault_rates.len(),
        spec.arrivals.len(),
        spec.knobs.len(),
        cells_total,
        spec.streams,
        trace_len,
        workers,
        smoke,
        r.rollup.instances,
        r.wall_s,
        cells_per_s,
        inst_per_s,
        r.compiles,
        r.artifact_hits,
        r.compile_s,
        amortization,
        peak_rss_mb(),
        r.rollup.to_json(),
    );
    ctg_obs::json::parse(&json).expect("bench artifact must be valid JSON");
    std::fs::write(out, json).expect("write bench artifact");
    println!("wrote {out}");
}
