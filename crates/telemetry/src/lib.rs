//! Telemetry for the nonfifo reproduction: metrics + structured tracing.
//!
//! The paper's theorems are statements about measured quantities — headers
//! used, packets in transit, packets-sent-per-message. This crate gives
//! every simulation and exploration run a first-class way to record those
//! quantities and export them as stable artifacts:
//!
//! * [`Registry`] — named counters, gauges (with high-water marks), and
//!   power-of-two histograms. Registration takes a lock once per metric;
//!   recording is relaxed atomics, so the parallel explorer's workers
//!   record without synchronizing. A single-threaded run records into
//!   plain slots instead ([`LocalHistogram`] and plain integers) and
//!   folds them in once with [`Registry::merge_from`].
//! * [`MetricsSnapshot`] — a frozen registry with a pinned, versioned JSON
//!   schema ([`SCHEMA_VERSION`]) and a human summary table. What
//!   `--metrics-out` writes and the CLI's `explore_pins` tests read.
//! * [`TraceSink`] — spans (rounds, deliveries, explorer levels) and
//!   instants, exported as a Chrome `trace_events` document for
//!   `chrome://tracing` / Perfetto. What `--trace-out` writes, one event
//!   at a time.
//! * [`JsonReader`], [`write_string`] and [`write_u64`] — the zero-dependency
//!   JSON reader and writers (no serde, by policy) that both artifacts and
//!   the campaign wire lines are read and written with, field by field;
//!   [`Json`] is the value tree the benchmark's results and tests use.
//!
//! Telemetry is always optional at the call site and never feeds back into
//! simulation state: fingerprints, explorer reports, and experiment tables
//! are byte-identical with telemetry on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod snapshot;
mod trace;

pub use json::{write_string, write_u64, Json, JsonError, JsonReader};
pub use metrics::{
    bucket_of, bucket_upper, Counter, Gauge, Histogram, LocalHistogram, Registry, HISTOGRAM_BUCKETS,
};
pub use snapshot::{
    GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SnapshotError, SCHEMA_VERSION,
};
pub use trace::{SpanGuard, TraceEvent, TraceLabel, TraceSink};
