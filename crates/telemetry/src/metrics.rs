//! The lock-free metrics registry.
//!
//! Registration (name → cell) takes a mutex once per metric; recording is a
//! relaxed atomic op on a shared cell, so the parallel explorer's worker
//! threads update counters without contending on anything but the cache
//! line. Cells are never removed: a handle stays valid for the life of the
//! registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SCHEMA_VERSION};

/// Number of power-of-two histogram buckets: bucket `i` holds values whose
/// bit length is `i` (bucket 0 holds exactly the value 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone counter handle. Cheap to clone; clones share the cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
    high_water: AtomicU64,
}

/// A gauge handle: a current value plus the high-water mark it has reached.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Sets the current value, advancing the high-water mark if exceeded.
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The largest value ever set.
    pub fn high_water(&self) -> u64 {
        self.0.high_water.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A histogram handle with power-of-two buckets plus exact count/sum/min/max.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCell>);

/// The bucket index for a recorded value: its bit length.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (`0` for bucket 0, else `2^i − 1`).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        let cell = &*self.0;
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.min.fetch_min(v, Ordering::Relaxed);
        cell.max.fetch_max(v, Ordering::Relaxed);
        cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Adds a snapshot's observations, as if each had been recorded here.
    fn merge(&self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let cell = &*self.0;
        cell.count.fetch_add(other.count, Ordering::Relaxed);
        cell.sum.fetch_add(other.sum, Ordering::Relaxed);
        cell.min.fetch_min(other.min, Ordering::Relaxed);
        cell.max.fetch_max(other.max, Ordering::Relaxed);
        for &(le, n) in &other.buckets {
            cell.buckets[bucket_of(le)].fetch_add(n, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let cell = &*self.0;
        LocalHistogram {
            count: cell.count.load(Ordering::Relaxed),
            sum: cell.sum.load(Ordering::Relaxed),
            min: cell.min.load(Ordering::Relaxed),
            max: cell.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| cell.buckets[i].load(Ordering::Relaxed)),
        }
        .snapshot()
    }
}

/// A single-threaded histogram: the same buckets and exact
/// count/sum/min/max as [`Histogram`], held in plain integers. A value
/// recorded on one thread needs no atomics, no lock and no shared cell,
/// so per-run telemetry records into these and exports once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LocalHistogram::default()
    }

    /// Records one observation. The sum wraps, like [`Histogram`]'s.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Adds `other`'s observations, with [`MetricsSnapshot::merge_from`]'s
    /// histogram rule.
    pub fn merge(&mut self, other: &LocalHistogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The histogram whose [`snapshot`](Self::snapshot) is `snap`, or
    /// `None` if no histogram has that snapshot: a bucket bound that is
    /// not a bucket's upper bound, buckets out of order or empty, bucket
    /// counts that do not add up to `count`, or a `min`/`max` outside the
    /// first/last bucket.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Option<LocalHistogram> {
        let mut h = LocalHistogram {
            count: snap.count,
            sum: snap.sum,
            min: if snap.count == 0 { u64::MAX } else { snap.min },
            max: snap.max,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        let mut total = 0u64;
        let mut next = 0;
        for &(le, n) in &snap.buckets {
            let i = bucket_of(le);
            if i < next || bucket_upper(i) != le || n == 0 {
                return None;
            }
            h.buckets[i] = n;
            total = total.checked_add(n)?;
            next = i + 1;
        }
        let ends = match (snap.buckets.first(), snap.buckets.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => {
                bucket_of(lo) == bucket_of(snap.min) && bucket_of(hi) == bucket_of(snap.max)
            }
            _ => snap.min == 0 && snap.max == 0,
        };
        (total == snap.count && ends && snap.min <= snap.max).then_some(h)
    }

    /// The exported form: min reads 0 when empty, and only non-empty
    /// buckets are listed.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (bucket_upper(i), n))
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    /// Derived scalar measurements (rates, ratios) set at export time.
    values: BTreeMap<String, f64>,
}

/// The metrics registry: named counters, gauges, histograms, and derived
/// values, snapshot-able to a stable-schema JSON document.
///
/// Share one registry across threads with `Arc<Registry>`; handles returned
/// by [`counter`](Registry::counter) & co. record lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(GaugeCell::default())))
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(HistogramCell::default())))
            .clone()
    }

    /// Sets the derived value named `name` (rates, ratios — quantities
    /// computed at export time rather than accumulated).
    pub fn set_value(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.values.insert(name.to_string(), value);
    }

    /// Folds `other` into the registry by [`MetricsSnapshot::merge_from`]'s
    /// rules, so `registry.snapshot()` afterwards equals the old snapshot
    /// merged with `other`. This is how a run that recorded into plain
    /// per-run slots reports into a shared registry: once, at the end.
    pub fn merge_from(&self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            self.counter(k).add(v);
        }
        for (k, g) in &other.gauges {
            let cell = self.gauge(k);
            cell.0.value.fetch_max(g.value, Ordering::Relaxed);
            cell.0.high_water.fetch_max(g.high_water, Ordering::Relaxed);
        }
        for (k, h) in &other.histograms {
            self.histogram(k).merge(h);
        }
        for (k, &v) in &other.values {
            self.set_value(k, v);
        }
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: g.get(),
                            high_water: g.high_water(),
                        },
                    )
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            values: inner.values.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5, "handles share the cell");
    }

    #[test]
    fn gauge_tracks_high_water() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(3);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 9);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(2), 3);
        let reg = Registry::new();
        let h = reg.histogram("sizes");
        for v in [0, 1, 2, 3, 7] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms["sizes"];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 13);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 7);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1)]);
    }

    #[test]
    fn local_histograms_export_like_shared_ones() {
        let reg = Registry::new();
        let shared = reg.histogram("h");
        let mut local = LocalHistogram::new();
        assert_eq!(local.snapshot(), shared.snapshot(), "empty: min reads 0");
        for v in [0, 1, 5, 9, 1000, 1 << 40] {
            shared.record(v);
            local.record(v);
        }
        assert_eq!(local.snapshot(), shared.snapshot());
        let mut doubled = local.clone();
        doubled.merge(&local);
        let mut merged = reg.snapshot();
        merged.merge_from(&reg.snapshot());
        assert_eq!(doubled.snapshot(), merged.histograms["h"]);
        doubled.merge(&LocalHistogram::new());
        assert_eq!(doubled.snapshot(), merged.histograms["h"]);
    }

    #[test]
    fn local_histograms_rebuild_exactly_from_their_snapshots() {
        let mut h = LocalHistogram::new();
        for values in [&[][..], &[0], &[3, 3, 900], &[1, 5, 9, 1000, u64::MAX]] {
            for &v in values {
                h.record(v);
            }
            assert_eq!(
                LocalHistogram::from_snapshot(&h.snapshot()),
                Some(h.clone())
            );
        }
        let good = h.snapshot();
        let bad = |edit: fn(&mut HistogramSnapshot)| {
            let mut snap = good.clone();
            edit(&mut snap);
            LocalHistogram::from_snapshot(&snap)
        };
        assert!(bad(|s| s.buckets[1].0 = 6).is_none(), "not a bucket bound");
        assert!(bad(|s| s.buckets.swap(1, 2)).is_none(), "out of order");
        assert!(bad(|s| s.buckets[1].1 += 1).is_none(), "counts disagree");
        assert!(bad(|s| s.buckets[0].1 = 0).is_none(), "empty bucket listed");
        assert!(bad(|s| s.min = 2).is_none(), "min outside the first bucket");
        assert!(bad(|s| s.max = 7).is_none(), "max outside the last bucket");
    }

    #[test]
    fn registry_merge_matches_snapshot_merge() {
        let source = Registry::new();
        source.counter("c").add(3);
        source.gauge("g").set(7);
        source.gauge("g").set(2);
        source.histogram("h").record(12);
        source.histogram("empty");
        source.set_value("v", 1.5);
        let snap = source.snapshot();

        let target = Registry::new();
        target.counter("c").add(1);
        target.gauge("g").set(4);
        target.histogram("h").record(1);
        let mut expected = target.snapshot();
        expected.merge_from(&snap);
        target.merge_from(&snap);
        assert_eq!(target.snapshot(), expected);
        // Into an empty registry, the fold is the snapshot itself.
        let empty = Registry::new();
        empty.merge_from(&snap);
        assert_eq!(empty.snapshot(), snap);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = reg.counter("n");
                let h = reg.histogram("h");
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i % 16);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("n").get(), 8000);
        assert_eq!(reg.histogram("h").count(), 8000);
    }
}
