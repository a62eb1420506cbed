//! The 802.11b receive chain: a workload with a 4-ary modulation branch
//! (the paper's introduction names this application class explicitly).
//!
//! The rate distribution shifts with link quality; the adaptive manager
//! tracks it and re-balances the slack between the four demodulation
//! pipelines.
//!
//! Run with `cargo run --release --example wlan_phy`.

use adaptive_dvfs::prelude::*;
use adaptive_dvfs::sched::dls_schedule;
use adaptive_dvfs::workloads::wlan;
use ctg_rng::Rng64;
use std::error::Error;

/// Frames under drifting link quality: good links favour 11 Mbit/s CCK,
/// degraded links fall back towards 1 Mbit/s DBPSK.
fn link_trace(seed: u64, len: usize) -> Vec<DecisionVector> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut quality = 0.8_f64; // 0 = terrible, 1 = perfect
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        if i % 150 == 0 {
            quality = rng.gen_range(0.1..0.95);
        }
        let preamble = u8::from(rng.gen_bool(quality)); // short preamble on good links
                                                        // Rate selection skews with quality.
        let weights = [
            (1.0 - quality).powi(2),         // 1 Mbit/s
            (1.0 - quality) * quality * 2.0, // 2 Mbit/s
            quality * 0.6,                   // 5.5 Mbit/s
            quality * quality * 1.4,         // 11 Mbit/s
        ];
        let total: f64 = weights.iter().sum();
        let x = rng.gen_range(0.0..total);
        let mut acc = 0.0;
        let mut rate = 3u8;
        for (k, w) in weights.iter().enumerate() {
            acc += w;
            if x < acc {
                rate = k as u8;
                break;
            }
        }
        out.push(DecisionVector::new(vec![preamble, rate]));
    }
    out
}

fn main() -> Result<(), Box<dyn Error>> {
    let ctg = wlan::wlan_ctg();
    let platform = wlan::wlan_platform(&ctg);
    let ctx = SchedContext::new(ctg, platform)?;
    let probs = BranchProbs::uniform(ctx.ctg());
    let makespan = dls_schedule(&ctx, &probs)?.makespan();
    let ctx = SchedContext::new(
        ctx.ctg().with_deadline(1.8 * makespan),
        ctx.platform().clone(),
    )?;
    println!(
        "802.11b RX chain: {} tasks, 4-ary rate fork, {} scenarios, deadline {:.1}",
        ctx.ctg().num_tasks(),
        ctx.scenarios().len(),
        ctx.ctg().deadline()
    );

    // Demonstrate per-rate energies under one solution.
    let solution = OnlineScheduler::new().solve(&ctx, &probs)?;
    for (rate, label) in [
        (0u8, "1 Mbit/s"),
        (1, "2 Mbit/s"),
        (2, "5.5 Mbit/s"),
        (3, "11 Mbit/s"),
    ] {
        let run = simulate_instance(&ctx, &solution, &DecisionVector::new(vec![0, rate]))?;
        println!(
            "  rate {label:10}: energy {:6.2}, makespan {:6.2}, met: {}",
            run.energy, run.makespan, run.deadline_met
        );
    }

    // Adaptive vs static over a drifting link.
    let trace = link_trace(11, 1200);
    let (train, test) = trace.split_at(600);
    let profiled =
        adaptive_dvfs::workloads::traces::empirical_probs(ctx.ctg(), ctx.activation(), train);
    let online = OnlineScheduler::new().solve(&ctx, &profiled)?;
    let runner = Runner::new(RunConfig::new());
    let s_static = runner.run_static(&ctx, &online, test)?;
    let mgr = AdaptiveScheduler::new(&ctx, profiled, 20, 0.1)?;
    let (s_adaptive, _) = runner.run_adaptive(&ctx, mgr, test)?;
    println!(
        "link trace: online {:.2}, adaptive {:.2} ({:+.1}%), {} calls, {} misses",
        s_static.avg_energy(),
        s_adaptive.avg_energy(),
        100.0 * (s_adaptive.avg_energy() / s_static.avg_energy() - 1.0),
        s_adaptive.calls,
        s_adaptive.exec.deadline_misses
    );
    Ok(())
}
