//! Bench: stabilization-harness throughput — corrupted starts certified
//! per second, across the three scramble severities.
//!
//! Each "run" is a full `stabilize_run`: scramble the automata and
//! channel multisets, settle the poison out, drive a real workload, and
//! judge the retained execution against the convergence spec. The 256-seed
//! sweep matches the shape of the `nonfifo stabilize` CLI sweep (seeds are
//! embarrassingly parallel in principle, but the harness is single-threaded
//! by design — determinism is the product), so `runs/sec` here is the rate
//! a user sees per core.

use nonfifo_bench::harness::Group;
use nonfifo_channel::CorruptionSeverity;
use nonfifo_core::{certify, StabilizeConfig};
use nonfifo_protocols::StabilizingDl;
use std::time::Instant;

const SEEDS: u64 = 256;

fn cfg_for(severity: CorruptionSeverity) -> StabilizeConfig {
    StabilizeConfig {
        severity,
        ..StabilizeConfig::default()
    }
}

fn median_rate(cfg: &StabilizeConfig) -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let report = certify(StabilizingDl::new, SEEDS, cfg);
            assert!(report.certified(), "bench workload must certify: {report}");
            SEEDS as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

fn main() {
    let group = Group::new("stabilize_certify").samples(3);
    for severity in CorruptionSeverity::ALL {
        group.bench(&format!("certify_{severity}"), || {
            certify(StabilizingDl::new, SEEDS, &cfg_for(severity))
        });
    }

    println!("\n== runs_per_sec (median of 3, {SEEDS} corrupted starts)");
    for severity in CorruptionSeverity::ALL {
        let rate = median_rate(&cfg_for(severity));
        println!("{severity:<7}: {rate:>10.0} runs/sec");
    }
}
