//! Benchmark harness for the `nonfifo` reproduction of Mansour & Schieber
//! (PODC 1989).
//!
//! Two entry points:
//!
//! - `cargo run -p nonfifo-bench --bin report [-- --exp eN]` regenerates the
//!   experiment tables of `EXPERIMENTS.md` (E1–E9 per `DESIGN.md` §4).
//! - `cargo bench -p nonfifo-bench` runs the micro-benchmarks: the
//!   falsifier constructions (`falsify_mf`, `falsify_pf`), the
//!   probabilistic growth runs (`probabilistic`), boundness probing
//!   (`boundness`), raw channel throughput (`channels`), the
//!   window-vs-reorder ablation (`ablation_window`), exploration
//!   throughput, sequential vs parallel (`explore_par`), the campaign
//!   matrix runner with its fingerprint cache (`campaign`), and the
//!   stabilization harness across corruption severities (`stabilize`).
//!
//! The benches run on the self-contained [`harness`] (median-of-samples
//! wall-clock timing) so the workspace needs no external benchmarking
//! crate; absolute numbers are indicative, cross-run deltas on one machine
//! are the signal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness {
    //! A minimal wall-clock micro-benchmark harness.
    //!
    //! Each benchmark runs `samples` times after one warm-up iteration; the
    //! harness reports the median, minimum, and maximum sample. No statistics
    //! beyond that — the benches here compare orders of magnitude (linear vs
    //! exponential cost curves), not nanosecond deltas.

    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Number of timed samples per benchmark.
    pub const DEFAULT_SAMPLES: u32 = 5;

    fn fmt_duration(d: Duration) -> String {
        let ns = d.as_nanos();
        if ns >= 1_000_000_000 {
            format!("{:.3} s", d.as_secs_f64())
        } else if ns >= 1_000_000 {
            format!("{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.3} µs", ns as f64 / 1e3)
        } else {
            format!("{ns} ns")
        }
    }

    /// A named group of benchmarks (mirrors the criterion group concept so
    /// bench sources read the same way).
    pub struct Group {
        title: String,
        samples: u32,
    }

    impl Group {
        /// Starts a group with [`DEFAULT_SAMPLES`] samples per bench.
        pub fn new(title: &str) -> Self {
            println!("\n== {title}");
            Group {
                title: title.to_string(),
                samples: DEFAULT_SAMPLES,
            }
        }

        /// Overrides the per-bench sample count (for slow workloads).
        pub fn samples(mut self, samples: u32) -> Self {
            self.samples = samples.max(1);
            self
        }

        /// Times `f` and prints one result line; the closure's return value
        /// is black-boxed so the workload is not optimised away.
        pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
            black_box(f()); // warm-up, also surfaces panics with a clean line
            let mut times: Vec<Duration> = (0..self.samples)
                .map(|_| {
                    let start = Instant::now();
                    black_box(f());
                    start.elapsed()
                })
                .collect();
            times.sort();
            let median = times[times.len() / 2];
            println!(
                "{}/{name}: median {} (min {}, max {}, n={})",
                self.title,
                fmt_duration(median),
                fmt_duration(times[0]),
                fmt_duration(times[times.len() - 1]),
                self.samples
            );
        }
    }
}
