//! Determinism pins for the discrete-event serving engine (DESIGN.md §16).
//!
//! **Worker/shard invariance for every arrival mode**: per-stream
//! summaries *and* per-stream latency distributions are bit-for-bit
//! identical across worker counts and shard counts, for closed-loop,
//! Poisson and bursty arrivals, under both cache modes. Virtual time makes
//! the event order a pure function of the config, so thread scheduling
//! must never show through. Arrivals change *when* instances run, never
//! *what* they compute: every arrival mode yields the same summaries.

use adaptive_dvfs::sched::test_util::example1_context;
use adaptive_dvfs::sched::SchedContext;
use adaptive_dvfs::sim::serve::{
    run_serve, ArrivalConfig, ArrivalKind, CacheMode, ServeConfig, StreamSpec,
};
use adaptive_dvfs::sim::{FaultPlan, StreamLatency};
use adaptive_dvfs::workloads::traces::{self, DriftProfile};

/// Drifting streams over a small seed pool (same-seed streams drift in
/// sync, exercising the shared cache), a third of them with fault plans.
fn stream_specs(ctx: &SchedContext, streams: usize, len: usize) -> Vec<StreamSpec> {
    (0..streams)
        .map(|i| {
            let profile = DriftProfile::new(0xE7E07 + (i % 4) as u64);
            let trace = traces::generate_trace(ctx.ctg(), &profile, len);
            let initial =
                traces::empirical_probs(ctx.ctg(), ctx.activation(), &trace[..len.min(16)]);
            StreamSpec {
                trace,
                initial_probs: initial,
                window: 6,
                threshold: 0.25,
                fault_plan: (i % 3 == 0).then(|| FaultPlan::uniform(0xFA57 + i as u64, 0.04)),
                criticality: 0,
            }
        })
        .collect()
}

fn cfg(workers: usize, shards: usize, cache: CacheMode, kind: ArrivalKind) -> ServeConfig {
    ServeConfig {
        workers,
        shards,
        cache,
        arrival: ArrivalConfig {
            kind,
            slo: Some(35.0),
            ..ArrivalConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// The three arrival families under test. The Poisson rate sits near the
/// service rate and the bursty chain overshoots it during bursts, so both
/// open-loop modes actually build queues.
fn arrival_modes() -> Vec<(&'static str, ArrivalKind)> {
    vec![
        ("closed", ArrivalKind::ClosedLoop),
        ("poisson", ArrivalKind::Poisson { rate: 0.08 }),
        (
            "bursty",
            ArrivalKind::Bursty {
                rate: 0.08,
                burst_mult: 6.0,
                p_enter: 0.2,
                p_exit: 0.4,
            },
        ),
    ]
}

fn cache_modes(streams: usize) -> Vec<(&'static str, CacheMode)> {
    let mut modes = vec![
        ("off", CacheMode::Off),
        (
            "shared",
            CacheMode::Shared {
                capacity: 128,
                stripes: 4,
            },
        ),
    ];
    if streams >= 256 {
        // Keep the big case to the mode that actually exercises
        // cross-stream interaction; the small cases cover the rest.
        modes.drain(..1);
    }
    modes
}

fn assert_latency_bits_eq(a: &[StreamLatency], b: &[StreamLatency], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: latency vector length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.count, y.count, "{what}: stream {i} latency count");
        assert_eq!(x.slo_misses, y.slo_misses, "{what}: stream {i} slo misses");
        for (name, u, v) in [
            ("sum", x.sum, y.sum),
            ("max", x.max, y.max),
            ("p50", x.p50, y.p50),
            ("p99", x.p99, y.p99),
        ] {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{what}: stream {i} latency {name} bits"
            );
        }
    }
}

/// (1, 2, 4) workers × (1, 8, 256) streams × three arrival families ×
/// cache modes — summaries and latencies invariant across worker and
/// shard counts. Closed loop never queues: depth 0 everywhere.
#[test]
fn summaries_invariant_across_workers_and_shards_for_every_arrival_mode() {
    let (ctx, _, _) = example1_context();
    for &streams in &[1usize, 8, 256] {
        let len = if streams >= 256 { 24 } else { 40 };
        let specs = stream_specs(&ctx, streams, len);
        for (arrival_name, kind) in arrival_modes() {
            for (cache_name, cache) in cache_modes(streams) {
                let mut reference: Option<(Vec<_>, Vec<_>)> = None;
                for &(workers, shards) in &[(1usize, 1usize), (2, 4), (4, streams.max(4))] {
                    let report =
                        run_serve(&ctx, &specs, &cfg(workers, shards, cache, kind)).unwrap();
                    let what = format!(
                        "streams={streams} arrival={arrival_name} cache={cache_name} \
                         w={workers} shards={shards}"
                    );
                    assert_eq!(report.streams.len(), streams, "{what}");
                    if kind == ArrivalKind::ClosedLoop {
                        assert_eq!(report.stats.max_queue_depth, 0, "{what}");
                    }
                    match &reference {
                        None => {
                            let instances: usize =
                                report.streams.iter().map(|s| s.exec.instances).sum();
                            assert_eq!(instances, streams * len, "{what}: every instance runs");
                            reference = Some((report.streams, report.latencies));
                        }
                        Some((s, l)) => {
                            assert_eq!(&report.streams, s, "{what}: summaries diverged");
                            for (i, (x, y)) in report.streams.iter().zip(s).enumerate() {
                                assert_eq!(
                                    x.exec.total_energy.to_bits(),
                                    y.exec.total_energy.to_bits(),
                                    "{what}: stream {i} energy bits"
                                );
                            }
                            assert_latency_bits_eq(&report.latencies, l, &what);
                        }
                    }
                }
            }
        }
    }
}

/// Open-loop arrivals change *when* instances run, never *what* they
/// compute: Poisson and bursty runs produce the same per-stream summaries
/// as the closed-loop run, while their latency distributions pick up the
/// queueing delay.
#[test]
fn open_loop_modes_preserve_summaries_and_add_queueing_delay() {
    let (ctx, _, _) = example1_context();
    let specs = stream_specs(&ctx, 8, 40);
    let cache = CacheMode::Shared {
        capacity: 128,
        stripes: 4,
    };
    let closed = run_serve(&ctx, &specs, &cfg(2, 4, cache, ArrivalKind::ClosedLoop)).unwrap();
    for (name, kind) in arrival_modes().into_iter().skip(1) {
        let open = run_serve(&ctx, &specs, &cfg(2, 4, cache, kind)).unwrap();
        assert_eq!(open.streams, closed.streams, "{name}: summaries diverged");
        let pooled_closed: f64 = closed.latencies.iter().map(|l| l.sum).sum();
        let pooled_open: f64 = open.latencies.iter().map(|l| l.sum).sum();
        assert!(
            pooled_open >= pooled_closed,
            "{name}: queueing can only add latency ({pooled_open} < {pooled_closed})"
        );
        assert!(
            open.stats.max_queue_depth >= 1,
            "{name}: overloaded arrivals must queue"
        );
    }
}
