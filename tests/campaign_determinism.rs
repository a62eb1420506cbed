//! Campaign engine pins (DESIGN.md §17).
//!
//! Three contracts:
//!
//! 1. **Worker invariance**: the roll-up and the set of streamed cell
//!    lines are bit-identical at 1, 2 and 4 executor workers — claim
//!    order may differ, content may not.
//! 2. **Kill/resume**: a campaign resumed from a half-written (and
//!    partially corrupted) JSONL stream re-runs exactly the missing cells
//!    and produces a roll-up bit-identical to an uninterrupted run.
//! 3. **Checkpoint hygiene**: cells from some other campaign are rejected,
//!    not silently folded in.

use adaptive_dvfs::obs::{BufferedSink, Obs};
use adaptive_dvfs::sched::test_util::example1_context;
use adaptive_dvfs::sched::SchedError;
use adaptive_dvfs::sim::campaign::{
    run_campaign, ArrivalSpec, Artifact, CampaignConfig, CampaignError, CampaignReport,
    CampaignSpec, KnobSpec,
};
use adaptive_dvfs::workloads::traces::{self, DriftProfile};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const TRACE_LEN: usize = 48;

/// 16-cell grid over the example-1 context: 2 workloads × 2 fault rates ×
/// 2 arrival processes × 2 knobs, 3 streams per cell.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "pin".into(),
        workloads: vec!["drift-a".into(), "drift-b".into()],
        platforms: vec!["ex1".into()],
        fault_rates: vec![0.0, 0.05],
        arrivals: vec![ArrivalSpec::ClosedLoop, ArrivalSpec::Poisson { rate: 0.2 }],
        knobs: vec![
            KnobSpec {
                window: 6,
                threshold: 0.25,
            },
            KnobSpec {
                window: 4,
                threshold: 0.1,
            },
        ],
        schedulers: vec!["dls".into()],
        streams: 3,
        seed: 7,
        explicit: Vec::new(),
    }
}

/// The test compile function: the example-1 context with one drift movie
/// per workload label. Deterministic, so every invocation of the same
/// pair yields the same artifact.
fn compile(workload: &str, _platform: &str) -> Result<Artifact, SchedError> {
    let (ctx, _, _) = example1_context();
    let seed = 0x10AD + u64::from(workload.ends_with('b'));
    let trace = traces::generate_trace(ctx.ctg(), &DriftProfile::new(seed), TRACE_LEN);
    let probs = traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..16]);
    Ok(Artifact { ctx, probs, trace })
}

fn out_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ctg_campaign_pin_{tag}_{}.jsonl",
        std::process::id()
    ))
}

fn run(workers: usize, path: &Path, resume: bool) -> CampaignReport {
    run_campaign(
        &spec(),
        &compile,
        &CampaignConfig {
            workers,
            output: path.to_path_buf(),
            resume,
            obs: Obs::disabled(),
        },
    )
    .expect("campaign runs")
}

fn lines_of(path: &Path) -> BTreeSet<String> {
    std::fs::read_to_string(path)
        .expect("cell stream exists")
        .lines()
        .map(str::to_string)
        .collect()
}

fn assert_rollups_bit_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.rollup, b.rollup, "{what}: roll-up diverged");
    assert_eq!(
        a.rollup.total_energy.to_bits(),
        b.rollup.total_energy.to_bits(),
        "{what}: energy bits diverged"
    );
    assert_eq!(
        a.rollup.max_makespan.to_bits(),
        b.rollup.max_makespan.to_bits(),
        "{what}: makespan bits diverged"
    );
}

/// Contract 1: 1/2/4-worker matrix — identical roll-ups (bit-for-bit) and
/// identical cell-line *sets* (order may differ, content may not).
#[test]
fn rollup_and_cell_lines_invariant_across_worker_counts() {
    let p1 = out_path("w1");
    let reference = run(1, &p1, false);
    assert_eq!(reference.cells_total, 16);
    assert_eq!(reference.cells_run, 16);
    assert_eq!(
        reference.compiles, 2,
        "one compile per (workload, platform)"
    );
    assert_eq!(reference.artifact_hits, 14);
    assert!(reference.rollup.instances >= (16 * 3 * TRACE_LEN) as u64);
    let ref_lines = lines_of(&p1);
    assert_eq!(ref_lines.len(), 16, "one line per cell");

    for workers in [2usize, 4] {
        let p = out_path(&format!("w{workers}"));
        let report = run(workers, &p, false);
        assert_rollups_bit_identical(&report, &reference, &format!("{workers} workers"));
        assert_eq!(
            lines_of(&p),
            ref_lines,
            "{workers} workers: cell line set diverged"
        );
        std::fs::remove_file(&p).ok();
    }
    std::fs::remove_file(&p1).ok();
}

/// Contract 2: kill/resume round-trip. Truncate the stream to half its
/// cells plus a garbage partial tail (what a kill mid-write leaves),
/// resume, and demand the missing half is re-run and the roll-up is
/// bit-identical. A second resume over the complete stream runs nothing.
#[test]
fn kill_resume_reproduces_the_uninterrupted_rollup() {
    let full_path = out_path("full");
    let full = run(2, &full_path, false);
    let full_lines = lines_of(&full_path);

    // Simulate the kill: keep 8 of 16 lines, then a torn partial write.
    let kept: Vec<&String> = full_lines.iter().take(8).collect();
    let half_path = out_path("half");
    let mut data = String::new();
    for line in &kept {
        data.push_str(line);
        data.push('\n');
    }
    data.push_str("{\"cell\":\"dead");
    std::fs::write(&half_path, &data).expect("write torn checkpoint");

    let resumed = run(2, &half_path, true);
    assert_eq!(resumed.cells_resumed, 8);
    assert_eq!(resumed.cells_run, 8);
    assert_rollups_bit_identical(&resumed, &full, "kill/resume");
    assert_eq!(
        lines_of(&half_path),
        full_lines,
        "resumed stream must converge on the uninterrupted stream"
    );

    // Resuming a complete stream is a no-op with the same roll-up.
    let noop = run(1, &half_path, true);
    assert_eq!(noop.cells_resumed, 16);
    assert_eq!(noop.cells_run, 0);
    assert_eq!(noop.compiles, 0, "no cells -> no artifact compiles");
    assert_rollups_bit_identical(&noop, &full, "complete resume");
    std::fs::remove_file(&full_path).ok();
    std::fs::remove_file(&half_path).ok();
}

/// Contract 3: a checkpoint holding cells of a *different* campaign (here:
/// a different base seed, so a disjoint cell-ID universe) is an error.
#[test]
fn foreign_checkpoint_is_rejected() {
    let foreign_path = out_path("foreign");
    let mut foreign_spec = spec();
    foreign_spec.seed = 8;
    run_campaign(
        &foreign_spec,
        &compile,
        &CampaignConfig {
            workers: 1,
            output: foreign_path.clone(),
            resume: false,
            obs: Obs::disabled(),
        },
    )
    .expect("foreign campaign runs");
    let err = run_campaign(
        &spec(),
        &compile,
        &CampaignConfig {
            workers: 1,
            output: foreign_path.clone(),
            resume: true,
            obs: Obs::disabled(),
        },
    )
    .expect_err("foreign cells must be rejected");
    assert!(
        matches!(err, CampaignError::Checkpoint(_)),
        "wanted Checkpoint error, got {err}"
    );
    std::fs::remove_file(&foreign_path).ok();
}

/// Campaign-level telemetry: the engine counts completed cells, resumed
/// cells and artifact compiles/hits on the shared metrics registry, and
/// compile/cell_run spans land in the sink. Results stay bit-identical
/// with telemetry on (the crate-wide invariant).
#[test]
fn campaign_telemetry_counts_cells_and_artifacts() {
    let silent_path = out_path("silent");
    let silent = run(1, &silent_path, false);

    let sink = Arc::new(BufferedSink::new(2));
    let obs = Obs::with_sink(sink.clone());
    let traced_path = out_path("traced");
    let traced = run_campaign(
        &spec(),
        &compile,
        &CampaignConfig {
            workers: 1,
            output: traced_path.clone(),
            resume: false,
            obs: obs.clone(),
        },
    )
    .expect("traced campaign runs");
    assert_rollups_bit_identical(&traced, &silent, "telemetry on vs off");

    let snapshot = obs.metrics_snapshot().expect("enabled handle has metrics");
    assert_eq!(snapshot.counter("cells_completed"), 16);
    assert_eq!(snapshot.counter("cells_resumed"), 0);
    assert_eq!(snapshot.counter("artifact_compiles"), 2);
    assert_eq!(snapshot.counter("artifact_hits"), 14);
    let events = sink.drain_sorted();
    let compile_spans = events
        .iter()
        .filter(|e| e.stage.name() == "compile")
        .count();
    let cell_spans = events
        .iter()
        .filter(|e| e.stage.name() == "cell_run")
        .count();
    assert_eq!(compile_spans, 2);
    assert_eq!(cell_spans, 16);
    std::fs::remove_file(&silent_path).ok();
    std::fs::remove_file(&traced_path).ok();
}

/// The executor honours an explicit worker override even when the claim
/// loop races: a deliberately oversubscribed worker count (more workers
/// than cells contended on one core) still reproduces the reference.
#[test]
fn oversubscribed_workers_still_bit_identical() {
    static COMPILES: AtomicUsize = AtomicUsize::new(0);
    let counting = |w: &str, p: &str| -> Result<Artifact, SchedError> {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        compile(w, p)
    };
    let p_ref = out_path("ref");
    let reference = run(1, &p_ref, false);
    let p_over = out_path("over");
    let report = run_campaign(
        &spec(),
        &counting,
        &CampaignConfig {
            workers: 12,
            output: p_over.clone(),
            resume: false,
            obs: Obs::disabled(),
        },
    )
    .expect("oversubscribed campaign runs");
    assert_rollups_bit_identical(&report, &reference, "12 workers vs 1");
    assert_eq!(lines_of(&p_over), lines_of(&p_ref));
    assert_eq!(
        COMPILES.load(Ordering::Relaxed),
        2,
        "concurrent same-pair cells must block on one compile, not fork their own"
    );
    std::fs::remove_file(&p_ref).ok();
    std::fs::remove_file(&p_over).ok();
}
