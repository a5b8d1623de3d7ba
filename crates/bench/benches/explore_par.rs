//! Bench: exploration throughput — the sequential oracle vs the
//! level-synchronized parallel explorer at growing thread counts.
//!
//! The workload is the sequence-number certificate scope (no counterexample
//! short-circuits the search, so every run covers the same state set and
//! states/sec is a meaningful rate). The headline number is the 8-thread
//! speedup over the sequential baseline.
//!
//! The partial-order-reduction section runs the same scope with `--por`
//! semantics on and off and reports the certified-states ratio. The ratio
//! is structural — a pure function of the protocol and the scope, not of
//! the machine.

use nonfifo_adversary::{ExploreConfig, ExploreOutcome, Explorer};
use nonfifo_bench::harness::Group;
use nonfifo_protocols::SequenceNumber;
use nonfifo_telemetry::Registry;
use std::sync::Arc;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn states(outcome: &ExploreOutcome) -> usize {
    match outcome {
        ExploreOutcome::Exhausted { states } | ExploreOutcome::Truncated { states } => *states,
        ExploreOutcome::Counterexample { .. } => 0,
    }
}

fn median_rate(mut f: impl FnMut() -> ExploreOutcome) -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let outcome = f();
            states(&outcome) as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

fn main() {
    // Large enough that every BFS level carries a wide frontier (87k+
    // states total), so the parallel engine has real work to distribute.
    let cfg = ExploreConfig {
        max_messages: 8,
        max_depth: 26,
        max_pool: 10,
        max_states: 20_000_000,
        ..ExploreConfig::default()
    };
    let proto = SequenceNumber::new();

    let group = Group::new("explore_throughput").samples(3);
    group.bench("sequential", || Explorer::new().explore(&proto, &cfg));
    for threads in THREADS {
        group.bench(&format!("parallel_t{threads}"), || {
            Explorer::new().parallel(threads).explore(&proto, &cfg)
        });
    }

    println!("\n== states_per_sec (median of 3)");
    let seq = median_rate(|| Explorer::new().explore(&proto, &cfg));
    println!("sequential    : {seq:>10.0} states/sec  (1.00x)");
    for threads in THREADS {
        let rate = median_rate(|| Explorer::new().parallel(threads).explore(&proto, &cfg));
        println!(
            "parallel t={threads:<2} : {rate:>10.0} states/sec  ({:.2}x)",
            rate / seq
        );
    }

    // Telemetry overhead: the same workload with every counter, histogram,
    // and span hook live. The recording path is relaxed atomics, so the
    // target is <= 5% throughput loss (the PR's acceptance criterion).
    println!("\n== telemetry overhead (parallel t=8, median of 3)");
    let plain = median_rate(|| Explorer::new().parallel(8).explore(&proto, &cfg));
    let watched = median_rate(|| {
        Explorer::new()
            .parallel(8)
            .with_telemetry(Arc::new(Registry::new()), None)
            .explore(&proto, &cfg)
    });
    let overhead = (plain - watched) / plain * 100.0;
    println!("telemetry off : {plain:>10.0} states/sec");
    println!("telemetry on  : {watched:>10.0} states/sec");
    println!(
        "overhead      : {overhead:>9.1}%  (target <= 5%) {}",
        if overhead <= 5.0 { "ok" } else { "EXCEEDED" }
    );

    // Partial-order reduction: the same certificate scope with the
    // retired-copy quotient on. Both runs certify (the reduction preserves
    // verdicts), so the states ratio is the quotient's compression — a
    // structural number, identical on every machine.
    println!("\n== partial-order reduction (parallel t=8)");
    let por_cfg = ExploreConfig { por: true, ..cfg };
    let full_states = states(&Explorer::new().parallel(8).explore(&proto, &cfg));
    let por_start = Instant::now();
    let por_outcome = Explorer::new().parallel(8).explore(&proto, &por_cfg);
    let por_elapsed = por_start.elapsed().as_secs_f64();
    let por_states = states(&por_outcome);
    assert!(por_states > 0, "reduced run must still certify");
    let ratio = full_states as f64 / por_states as f64;
    println!("por off       : {full_states:>10} states");
    println!(
        "por on        : {por_states:>10} states  ({:.0} states/sec)",
        por_states as f64 / por_elapsed
    );
    println!("reduction     : {ratio:>10.2}x");
}
