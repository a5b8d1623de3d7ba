//! Bench: campaign engine throughput — the work-stealing matrix runner at
//! growing worker counts, plus the fingerprint cache's replay rate.
//!
//! The workload is a 512-run matrix of short FIFO/probabilistic deliveries:
//! large enough that claim-cursor overhead is amortised and `runs/sec` is a
//! meaningful rate, small enough to finish in CI. On a single-core machine
//! the thread sweep measures invariance overhead, not speedup — the
//! determinism contract (byte-identical reports at any worker count) is
//! what the integration tests assert; here we only watch the rate.

use nonfifo_bench::harness::Group;
use nonfifo_campaign::{CampaignCache, CampaignRunner, ScenarioSpec};
use nonfifo_channel::Discipline;
use std::time::Instant;

const THREADS: [usize; 3] = [1, 2, 8];

/// 2 protocols × 2 disciplines × 2 scopes × 32 seeds = 256 runs per
/// scenario, 512 total.
fn matrix() -> Vec<nonfifo_campaign::RunSpec> {
    let mut runs = ScenarioSpec::new("bench-fifo")
        .protocol("seqnum")
        .protocol("window4")
        .discipline(Discipline::Fifo)
        .discipline(Discipline::BoundedReorder { bound: 4 })
        .message_counts(&[5, 10])
        .seeds(0..32)
        .expand();
    runs.extend(
        ScenarioSpec::new("bench-prob")
            .protocol("seqnum")
            .protocol("abp")
            .discipline(Discipline::Fifo)
            .discipline(Discipline::LossyFifo { loss: 0.2 })
            .message_counts(&[5, 10])
            .seeds(0..32)
            .expand(),
    );
    runs
}

fn median_rate(runs: &[nonfifo_campaign::RunSpec], threads: usize) -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let report = CampaignRunner::new(threads).run(runs).expect("campaign");
            report.records.len() as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

fn main() {
    let runs = matrix();
    assert!(runs.len() >= 500, "workload shrank below a meaningful size");

    let group = Group::new("campaign_matrix").samples(3);
    for threads in THREADS {
        group.bench(&format!("fresh_t{threads}"), || {
            CampaignRunner::new(threads).run(&runs).expect("campaign")
        });
    }
    let mut cache = CampaignCache::new();
    CampaignRunner::new(1)
        .run_with_cache(&runs, &mut cache)
        .expect("warm the cache");
    group.bench("cached_replay", || {
        CampaignRunner::new(1)
            .run_with_cache(&runs, &mut cache)
            .expect("replay")
    });

    println!("\n== runs_per_sec (median of 3, {} runs)", runs.len());
    for threads in THREADS {
        let rate = median_rate(&runs, threads);
        println!("threads={threads:<2} : {rate:>10.0} runs/sec");
    }
}
