//! Throughput bench — instances/sec of the batch simulator, sequential vs
//! the worker pool at 1/2/N workers, plus schedule-cache effectiveness for
//! the adaptive manager, on the MPEG workload (perf extension; not a paper
//! table).
//!
//! Every parallel summary is asserted equal to the sequential one (the
//! ordered-merge determinism guarantee as an executable check; `==` on
//! [`RunSummary`] compares everything except wall-clock). The adaptive
//! cache run must adopt exactly the plans of the cache-off run — identical
//! total energy bits and reschedule count — while answering a positive
//! number of lookups from the cache.
//!
//! The trace tiles one MPEG drift segment several times: movies revisit
//! scene types, and the recurrence is what a schedule cache exists to
//! exploit. Pass `--smoke` for a seconds-scale run (CI); numbers land in
//! `BENCH_throughput.json`.

use ctg_bench::setup::{prepare_mpeg, profile_trace};
use ctg_model::DecisionVector;
use ctg_sched::{AdaptiveScheduler, OnlineScheduler};
use ctg_sim::{
    run_adaptive, run_static, run_static_faulty, run_static_faulty_parallel, run_static_parallel,
    worker_count, FaultPlan, RunSummary,
};
use ctg_workloads::traces;

const WINDOW: usize = 20;
const THRESHOLD: f64 = 0.1;
// Must cover the per-tile working set of distinct (exact) probability
// vectors — an LRU scanned sequentially with a working set just above its
// capacity thrashes to ~0 hits. ~74 distinct vectors/tile at LEN=500.
const CACHE_CAPACITY: usize = 256;
const FAULT_SEED: u64 = 0x7A9_0BEEF;
const FAULT_RATE: f64 = 0.05;

fn worker_counts() -> Vec<usize> {
    let n = worker_count();
    let mut out = vec![1, 2];
    if n > 2 {
        out.push(n);
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (segment_len, tiles) = if smoke { (200, 3) } else { (500, 20) };

    let ctx = prepare_mpeg(2.0);
    let movie = &traces::movie_presets()[1]; // Bike: strong scene drift
    let segment = traces::generate_trace(ctx.ctg(), &movie.profile, segment_len);
    let mut trace: Vec<DecisionVector> = Vec::with_capacity(segment_len * tiles);
    for _ in 0..tiles {
        trace.extend_from_slice(&segment);
    }

    let profiled = profile_trace(&ctx, &segment);
    let online = OnlineScheduler::new()
        .solve(&ctx, &profiled)
        .expect("online solves");

    // ---- Static batch: sequential vs pool. ----
    let seq = run_static(&ctx, &online, &trace).expect("static run");
    let mut static_rows = Vec::new();
    for &w in &worker_counts() {
        let s = run_static_parallel(&ctx, &online, &trace, w).expect("parallel static run");
        assert_eq!(
            seq, s,
            "parallel static summary must be identical at {w} workers"
        );
        static_rows.push((w, s));
    }

    // ---- Faulty batch: per-instance fault streams are chunk-invariant. ----
    let plan = FaultPlan::uniform(FAULT_SEED, FAULT_RATE);
    let fseq = run_static_faulty(&ctx, &online, &trace, &plan).expect("faulty run");
    let mut faulty_rows = Vec::new();
    for &w in &worker_counts() {
        let s = run_static_faulty_parallel(&ctx, &online, &trace, &plan, w)
            .expect("parallel faulty run");
        assert_eq!(
            fseq, s,
            "parallel faulty summary must be identical at {w} workers"
        );
        faulty_rows.push((w, s));
    }

    // ---- Adaptive: schedule cache off vs on. ----
    let mgr_off =
        AdaptiveScheduler::new(&ctx, profiled.clone(), WINDOW, THRESHOLD).expect("manager builds");
    let (off, _) = run_adaptive(&ctx, mgr_off, &trace).expect("adaptive run");
    let mut mgr_on =
        AdaptiveScheduler::new(&ctx, profiled.clone(), WINDOW, THRESHOLD).expect("manager builds");
    mgr_on.enable_cache(CACHE_CAPACITY);
    let (on, _) = run_adaptive(&ctx, mgr_on, &trace).expect("adaptive cached run");

    assert_eq!(
        off.exec.total_energy.to_bits(),
        on.exec.total_energy.to_bits(),
        "cache must not change a single adopted plan"
    );
    assert_eq!(off.reschedules, on.reschedules);
    assert_eq!(off.exec.deadline_misses, on.exec.deadline_misses);
    assert!(
        on.cache_hits > 0,
        "recurring MPEG scenes must produce cache hits"
    );
    assert!(on.calls < off.calls, "hits must save solver calls");

    // ---- Report. ----
    let fmt_row = |label: &str, w: &str, s: &RunSummary| {
        println!(
            "{label:<14} {w:>7}  {:>10.0} inst/s  ({:.3}s wall)",
            s.throughput(),
            s.wall_s
        );
    };
    println!(
        "throughput on mpeg/{} ({} instances = {tiles} x {segment_len}):\n",
        movie.name,
        trace.len()
    );
    fmt_row("static", "seq", &seq);
    for (w, s) in &static_rows {
        fmt_row("static", &format!("{w}w"), s);
    }
    fmt_row("faulty", "seq", &fseq);
    for (w, s) in &faulty_rows {
        fmt_row("faulty", &format!("{w}w"), s);
    }
    let hit_rate = on.cache_hits as f64 / (on.cache_hits + on.cache_misses).max(1) as f64;
    println!(
        "\nadaptive        cache off: {} solver calls, {:.3}s rescheduling",
        off.calls, off.resched_wall_s
    );
    println!(
        "adaptive        cache on:  {} solver calls, {} hits / {} misses ({:.0}% hit rate), {:.3}s rescheduling",
        on.calls,
        on.cache_hits,
        on.cache_misses,
        100.0 * hit_rate,
        on.resched_wall_s
    );
    println!("\ndeterminism: PASS (all parallel summaries identical to sequential)");

    // ---- Hand-rolled JSON artifact. ----
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"mpeg/{}\",\n  \"instances\": {},\n  \"smoke\": {smoke},\n",
        movie.name,
        trace.len()
    ));
    let rows_json = |rows: &[(usize, RunSummary)], seq: &RunSummary| {
        let mut s = format!(
            "{{\"seq\": {{\"wall_s\": {:.6}, \"inst_per_s\": {:.1}}}",
            seq.wall_s,
            seq.throughput()
        );
        for (w, r) in rows {
            s.push_str(&format!(
                ", \"{w}w\": {{\"wall_s\": {:.6}, \"inst_per_s\": {:.1}}}",
                r.wall_s,
                r.throughput()
            ));
        }
        s.push('}');
        s
    };
    json.push_str(&format!(
        "  \"static\": {},\n",
        rows_json(&static_rows, &seq)
    ));
    json.push_str(&format!(
        "  \"faulty\": {},\n",
        rows_json(&faulty_rows, &fseq)
    ));
    json.push_str(&format!(
        "  \"adaptive\": {{\"calls_off\": {}, \"calls_on\": {}, \"reschedules\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"hit_rate\": {:.4}, \
         \"resched_wall_off_s\": {:.6}, \"resched_wall_on_s\": {:.6}}},\n",
        off.calls,
        on.calls,
        on.reschedules,
        on.cache_hits,
        on.cache_misses,
        hit_rate,
        off.resched_wall_s,
        on.resched_wall_s
    ));
    json.push_str("  \"determinism\": \"pass\"\n}\n");
    std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");
}
