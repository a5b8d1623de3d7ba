//! Point-in-time metric snapshots with a stable JSON schema.
//!
//! The schema is versioned and pinned ([`SCHEMA_VERSION`]): tests pin exact
//! values in these documents and the golden aggregates under `campaigns/`
//! are compared byte for byte, so any change to the document shape must
//! bump the version and keep
//! [`MetricsSnapshot::from_json`] accepting what it wrote before.

use crate::json::{write_f64, write_string, write_u64, JsonError, JsonReader};
use std::collections::BTreeMap;
use std::fmt;

/// The pinned schema version emitted in every snapshot document.
pub const SCHEMA_VERSION: u64 = 1;

/// A gauge's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The value at snapshot time.
    pub value: u64,
    /// The largest value ever set.
    pub high_water: u64,
}

/// A histogram's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty power-of-two buckets as `(inclusive upper bound, count)`,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Appends the histogram as the JSON object a snapshot document
    /// holds: `count`, `sum`, `min`, `max` and `buckets` as `[le, n]`
    /// pairs, written straight from the fields.
    pub fn write_json(&self, out: &mut String) {
        for (key, n) in [
            ("{\"count\":", self.count),
            (",\"sum\":", self.sum),
            (",\"min\":", self.min),
            (",\"max\":", self.max),
        ] {
            out.push_str(key);
            write_u64(out, n);
        }
        out.push_str(",\"buckets\":[");
        for (i, &(le, n)) in self.buckets.iter().enumerate() {
            out.push_str(if i == 0 { "[" } else { ",[" });
            write_u64(out, le);
            out.push(',');
            write_u64(out, n);
            out.push(']');
        }
        out.push_str("]}");
    }

    /// Reads the next value of `reader` as a [`write_json`](Self::write_json)
    /// object, `name` labelling the errors. The first of repeated keys
    /// wins, unknown fields are skipped, and the checks run in a fixed
    /// order: the buckets, then `count`, `sum`, `min` and `max`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Json`] for a syntax error, after which the reader
    /// is spent; [`SnapshotError::Schema`] for a value that is not such a
    /// histogram (a missing or non-`u64` field, or a bucket that is not a
    /// `[le, n]` pair of `u64`s), which the reader has then passed over
    /// whole.
    pub fn read_json(
        name: &str,
        reader: &mut JsonReader,
    ) -> Result<HistogramSnapshot, SnapshotError> {
        const KEYS: [&str; 4] = ["count", "sum", "min", "max"];
        // Per field: `None` while unseen, `Some(None)` if not a u64.
        let mut scalars = [None; KEYS.len()];
        let mut buckets: Option<Option<Vec<(u64, u64)>>> = None;
        if reader.begin_object()? {
            while let Some(key) = reader.next_key()? {
                match KEYS.iter().position(|k| *k == key) {
                    Some(i) => reader.read_once(&mut scalars[i], JsonReader::u64)?,
                    None if key == "buckets" => reader.read_once(&mut buckets, read_buckets)?,
                    None => reader.skip_value()?,
                }
            }
        }
        let Some(buckets) = buckets.unwrap_or(Some(Vec::new())) else {
            return schema_err(format!("histogram '{name}' has a bad bucket"));
        };
        let [count, sum, min, max] = std::array::from_fn(|i| {
            scalars[i].flatten().ok_or_else(|| {
                SnapshotError::Schema(format!("histogram '{name}' missing {}", KEYS[i]))
            })
        });
        Ok(HistogramSnapshot {
            count: count?,
            sum: sum?,
            min: min?,
            max: max?,
            buckets,
        })
    }

    /// The mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A `buckets` value: `Some` pairs if it is an array of `[le, n]` pairs
/// of `u64`s, `None` if it is an array holding anything else, and no
/// buckets if it is not an array.
fn read_buckets(reader: &mut JsonReader) -> Result<Option<Vec<(u64, u64)>>, JsonError> {
    let mut buckets = Some(Vec::new());
    if reader.begin_array()? {
        while reader.next_item()? {
            let mut pair = [None; 2];
            let mut len = 0;
            if reader.begin_array()? {
                while reader.next_item()? {
                    match pair.get_mut(len) {
                        Some(slot) => *slot = reader.u64()?,
                        None => reader.skip_value()?,
                    }
                    len += 1;
                }
            }
            match (len, pair, &mut buckets) {
                (2, [Some(le), Some(n)], Some(buckets)) => buckets.push((le, n)),
                _ => buckets = None,
            }
        }
    }
    Ok(buckets)
}

/// Everything a [`Registry`](crate::Registry) knows, frozen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The schema version of the document ([`SCHEMA_VERSION`] when written
    /// by this crate).
    pub schema_version: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge states by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Derived scalar values (rates, ratios) by name.
    pub values: BTreeMap<String, f64>,
}

/// Why a snapshot document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is JSON but not a snapshot of a supported schema.
    Schema(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "{e}"),
            SnapshotError::Schema(msg) => write!(f, "snapshot schema error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::Json(e)
    }
}

fn schema_err<T>(msg: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError::Schema(msg.into()))
}

/// A snapshot section read whole: its entries, or its first bad entry's
/// error.
type Section<T> = Result<BTreeMap<String, T>, SnapshotError>;

/// Reads a section: an object whose every value `read` judges, the last
/// of repeated names winning. A value that is not an object is an empty
/// section. Entries after the first bad one are read only for their
/// syntax.
fn read_section<T>(
    reader: &mut JsonReader,
    mut read: impl FnMut(&str, &mut JsonReader) -> Result<T, SnapshotError>,
) -> Result<Section<T>, JsonError> {
    let mut section = Ok(BTreeMap::new());
    if reader.begin_object()? {
        while let Some(name) = reader.next_key()? {
            match (read(&name, reader), &mut section) {
                (Err(SnapshotError::Json(e)), _) => return Err(e),
                (Ok(entry), Ok(entries)) => {
                    entries.insert(name.into_owned(), entry);
                }
                (Err(e), Ok(_)) => section = Err(e),
                (_, Err(_)) => {}
            }
        }
    }
    Ok(section)
}

/// Reads a gauge: an object with `u64` `value` and `high_water` fields.
fn read_gauge(name: &str, reader: &mut JsonReader) -> Result<GaugeSnapshot, SnapshotError> {
    let (mut value, mut high_water) = (None, None);
    if reader.begin_object()? {
        while let Some(key) = reader.next_key()? {
            match &*key {
                "value" => reader.read_once(&mut value, JsonReader::u64)?,
                "high_water" => reader.read_once(&mut high_water, JsonReader::u64)?,
                _ => reader.skip_value()?,
            }
        }
    }
    match (value.flatten(), high_water.flatten()) {
        (Some(value), Some(high_water)) => Ok(GaugeSnapshot { value, high_water }),
        _ => schema_err(format!("gauge '{name}' is malformed")),
    }
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a compact, key-sorted JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`to_json`](Self::to_json)'s document to `out`, written
    /// straight from the maps: how a campaign wire line embeds a snapshot.
    pub fn write_json(&self, out: &mut String) {
        /// Opens the object `key` holds: `,"key":{`.
        fn open(out: &mut String, key: &str) {
            out.push(',');
            write_string(out, key);
            out.push_str(":{");
        }
        /// Writes `"name":` before an entry, with a comma after the first.
        fn name(out: &mut String, i: usize, name: &str) {
            if i > 0 {
                out.push(',');
            }
            write_string(out, name);
            out.push(':');
        }
        out.push_str("{\"schema_version\":");
        write_u64(out, self.schema_version);
        open(out, "counters");
        for (i, (k, &v)) in self.counters.iter().enumerate() {
            name(out, i, k);
            write_u64(out, v);
        }
        out.push('}');
        open(out, "gauges");
        for (i, (k, g)) in self.gauges.iter().enumerate() {
            name(out, i, k);
            out.push_str("{\"value\":");
            write_u64(out, g.value);
            out.push_str(",\"high_water\":");
            write_u64(out, g.high_water);
            out.push('}');
        }
        out.push('}');
        open(out, "histograms");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            name(out, i, k);
            h.write_json(out);
        }
        out.push('}');
        open(out, "values");
        for (i, (k, &v)) in self.values.iter().enumerate() {
            name(out, i, k);
            write_f64(out, v);
        }
        out.push_str("}}");
    }

    /// Parses a snapshot document written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON (trailing characters included), then what
    /// [`read_json`](Self::read_json) rejects.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
        let mut reader = JsonReader::new(text);
        let read = Self::read_json(&mut reader);
        if !matches!(read, Err(SnapshotError::Json(_))) {
            reader.finish()?;
        }
        read
    }

    /// Reads the next value of `reader` as a snapshot document, the one
    /// snapshot decoder. Keys may come in any order and unknown ones are
    /// skipped; the first of repeated top-level keys wins, the last of
    /// repeated names inside a section wins, and a section that is not an
    /// object is ignored. The checks run in a fixed order, wherever the
    /// keys stand: `schema_version`, then the counters, gauges, histograms
    /// and values, each section naming its first bad entry.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Json`] for a syntax error, after which the reader
    /// is spent; [`SnapshotError::Schema`] for a missing or unsupported
    /// `schema_version` or a malformed entry, which the reader has then
    /// passed over whole.
    pub fn read_json(reader: &mut JsonReader) -> Result<MetricsSnapshot, SnapshotError> {
        let mut version = None;
        let (mut counters, mut gauges, mut histograms, mut values) = (None, None, None, None);
        if reader.begin_object()? {
            while let Some(key) = reader.next_key()? {
                match &*key {
                    "schema_version" => reader.read_once(&mut version, JsonReader::u64)?,
                    "counters" => reader.read_once(&mut counters, |r| {
                        read_section(r, |name, r| match r.u64()? {
                            Some(n) => Ok(n),
                            None => schema_err(format!("counter '{name}' is not a u64")),
                        })
                    })?,
                    "gauges" => reader.read_once(&mut gauges, |r| read_section(r, read_gauge))?,
                    "histograms" => reader.read_once(&mut histograms, |r| {
                        read_section(r, HistogramSnapshot::read_json)
                    })?,
                    "values" => reader.read_once(&mut values, |r| {
                        read_section(r, |name, r| match r.f64()? {
                            Some(x) => Ok(x),
                            None => schema_err(format!("value '{name}' is not a number")),
                        })
                    })?,
                    _ => reader.skip_value()?,
                }
            }
        }
        let Some(version) = version.flatten() else {
            return schema_err("missing schema_version");
        };
        if version == 0 || version > SCHEMA_VERSION {
            return schema_err(format!(
                "unsupported schema_version {version} (this build reads ≤ {SCHEMA_VERSION})"
            ));
        }
        // An absent section is empty.
        Ok(MetricsSnapshot {
            schema_version: version,
            counters: counters.unwrap_or(Ok(BTreeMap::new()))?,
            gauges: gauges.unwrap_or(Ok(BTreeMap::new()))?,
            histograms: histograms.unwrap_or(Ok(BTreeMap::new()))?,
            values: values.unwrap_or(Ok(BTreeMap::new()))?,
        })
    }

    /// Renders the snapshot as a human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .chain(self.values.keys())
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max("metric".len());
        out.push_str(&format!("{:<width$}  value\n", "metric"));
        out.push_str(&format!("{:-<width$}  {:-<24}\n", "", ""));
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        for (k, g) in &self.gauges {
            out.push_str(&format!(
                "{k:<width$}  {} (high water {})\n",
                g.value, g.high_water
            ));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<width$}  n={} mean={:.2} min={} max={}\n",
                h.count,
                h.mean(),
                h.min,
                h.max
            ));
        }
        for (k, v) in &self.values {
            out.push_str(&format!("{k:<width$}  {v:.2}\n"));
        }
        out
    }

    /// Folds `other` into `self`, metric by metric, as if both snapshots
    /// had been recorded into one registry:
    ///
    /// - counters add;
    /// - gauges keep the maximum of both `value`s and `high_water`s (the
    ///   only merge that is commutative and still means "high water");
    /// - histograms add `count`/`sum`, widen `min`/`max`, and merge buckets
    ///   by upper bound;
    /// - derived `values` are overwritten by `other`'s (last write wins —
    ///   merge in a deterministic order).
    ///
    /// Every rule except `values` is commutative and associative, so
    /// folding per-run snapshots in run order yields the same aggregate on
    /// any thread count.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(GaugeSnapshot {
                value: 0,
                high_water: 0,
            });
            slot.value = slot.value.max(g.value);
            slot.high_water = slot.high_water.max(g.high_water);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
                Some(slot) => {
                    slot.min = if slot.count == 0 {
                        h.min
                    } else if h.count == 0 {
                        slot.min
                    } else {
                        slot.min.min(h.min)
                    };
                    slot.max = slot.max.max(h.max);
                    slot.count += h.count;
                    slot.sum += h.sum;
                    let mut buckets: BTreeMap<u64, u64> = slot.buckets.iter().copied().collect();
                    for &(le, n) in &h.buckets {
                        *buckets.entry(le).or_insert(0) += n;
                    }
                    slot.buckets = buckets.into_iter().collect();
                }
            }
        }
        for (k, &v) in &other.values {
            self.values.insert(k.clone(), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::Registry;

    fn populated() -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("chan.fwd.sends").add(12);
        reg.counter("chan.fwd.drops").add(3);
        let g = reg.gauge("sim.fwd.in_transit");
        g.set(9);
        g.set(4);
        let h = reg.histogram("sim.packets_per_message");
        for v in [1, 2, 2, 5] {
            h.record(v);
        }
        reg.set_value("explore.states_per_sec", 123456.75);
        reg.snapshot()
    }

    /// The snapshot built as a [`Json`] tree, field by field: the spelling
    /// the streaming writer must match.
    fn tree(snap: &MetricsSnapshot) -> Json {
        fn section<T>(entries: &BTreeMap<String, T>, value: impl Fn(&T) -> Json) -> Json {
            Json::Obj(entries.iter().map(|(k, v)| (k.clone(), value(v))).collect())
        }
        fn obj(fields: Vec<(&str, Json)>) -> Json {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        let gauge = |g: &GaugeSnapshot| {
            obj(vec![
                ("value", Json::Uint(g.value)),
                ("high_water", Json::Uint(g.high_water)),
            ])
        };
        let histogram = |h: &HistogramSnapshot| {
            let bucket = |&(le, n): &(u64, u64)| Json::Arr(vec![Json::Uint(le), Json::Uint(n)]);
            obj(vec![
                ("count", Json::Uint(h.count)),
                ("sum", Json::Uint(h.sum)),
                ("min", Json::Uint(h.min)),
                ("max", Json::Uint(h.max)),
                ("buckets", Json::Arr(h.buckets.iter().map(bucket).collect())),
            ])
        };
        obj(vec![
            ("schema_version", Json::Uint(snap.schema_version)),
            ("counters", section(&snap.counters, |&v| Json::Uint(v))),
            ("gauges", section(&snap.gauges, gauge)),
            ("histograms", section(&snap.histograms, histogram)),
            ("values", section(&snap.values, |&v| Json::Float(v))),
        ])
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = populated();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // And the re-serialization is byte-identical (stable schema).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn schema_version_is_pinned_and_checked() {
        let snap = populated();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert!(snap.to_json().contains("\"schema_version\":1"));
        let future = snap
            .to_json()
            .replacen("\"schema_version\":1", "\"schema_version\":999", 1);
        assert!(matches!(
            MetricsSnapshot::from_json(&future),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            MetricsSnapshot::from_json("{}"),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            MetricsSnapshot::from_json("not json"),
            Err(SnapshotError::Json(_))
        ));
    }

    /// A snapshot's tree renders as its text, the text parses back to the
    /// same tree, and reading the tree's rendering gives the snapshot.
    #[test]
    fn json_value_round_trip_matches_text_round_trip() {
        let snap = populated();
        let value = tree(&snap);
        assert_eq!(value.to_string(), snap.to_json());
        assert_eq!(Json::parse(&snap.to_json()).unwrap(), value);
        assert_eq!(
            MetricsSnapshot::from_json(&value.to_string()).unwrap(),
            snap
        );
    }

    /// The streaming writer spells every snapshot as the tree does: empty
    /// maps, names that need escapes, whole, huge, tiny and non-finite
    /// values.
    #[test]
    fn written_json_matches_the_tree_byte_for_byte() {
        let empty = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            ..MetricsSnapshot::default()
        };
        let mut odd = populated();
        odd.counters
            .insert("quote\"back\\slash\n".to_string(), u64::MAX);
        for (i, v) in [3.0, -0.0, 1e300, 5e-324, f64::NAN, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            odd.values.insert(format!("v{i}"), v);
        }
        for snap in [empty, populated(), odd] {
            let mut out = String::from("prefix");
            snap.write_json(&mut out);
            assert_eq!(out, format!("prefix{}", tree(&snap)));
        }
    }

    /// Top-level keys: the first wins; names in a section: the last wins;
    /// a section that is not an object is ignored; `schema_version` is
    /// judged first wherever it stands.
    #[test]
    fn read_json_judges_repeats_and_order_by_fixed_rules() {
        let read = |doc: &str| MetricsSnapshot::from_json(doc).map_err(|e| e.to_string());
        let snap = read(
            r#"{"counters":{"a":1,"a":2},"counters":{"b":3},"gauges":[1],"schema_version":1,"schema_version":"x","values":{"r":-0}}"#,
        )
        .unwrap();
        assert_eq!(
            snap.counters.into_iter().collect::<Vec<_>>(),
            [("a".to_string(), 2)]
        );
        assert!(snap.gauges.is_empty());
        assert_eq!(snap.values["r"].to_bits(), 0.0f64.to_bits());
        assert_eq!(
            read(r#"{"counters":{"a":-1},"schema_version":2}"#).unwrap_err(),
            "snapshot schema error: unsupported schema_version 2 (this build reads ≤ 1)"
        );
        assert_eq!(
            read(r#"{"values":{"v":"x"},"counters":{"a":1.5,"b":"y"},"schema_version":1}"#)
                .unwrap_err(),
            "snapshot schema error: counter 'a' is not a u64"
        );
        // A syntax error anywhere beats a schema error.
        assert_eq!(
            read(r#"{"counters":{"a":"x"},"schema_version":1} ,"#).unwrap_err(),
            "json error at byte 42: trailing characters after document"
        );
    }

    #[test]
    fn merge_adds_counters_and_widens_gauges_and_histograms() {
        let mut a = populated();
        let b = populated();
        a.merge_from(&b);
        assert_eq!(a.counters["chan.fwd.sends"], 24);
        // Gauges take the max, not the sum.
        assert_eq!(a.gauges["sim.fwd.in_transit"].value, 4);
        assert_eq!(a.gauges["sim.fwd.in_transit"].high_water, 9);
        let h = &a.histograms["sim.packets_per_message"];
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 20);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 5);
        // Buckets merged by upper bound: each count doubled.
        for &(le, n) in &h.buckets {
            let orig = b.histograms["sim.packets_per_message"]
                .buckets
                .iter()
                .find(|&&(l, _)| l == le)
                .unwrap()
                .1;
            assert_eq!(n, 2 * orig);
        }
        // Derived values: last write wins.
        assert_eq!(a.values["explore.states_per_sec"], 123456.75);
    }

    #[test]
    fn merge_into_empty_is_identity_and_order_independent() {
        let b = populated();
        let mut empty = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            ..MetricsSnapshot::default()
        };
        empty.merge_from(&b);
        assert_eq!(empty, b);

        // Commutativity on the structural metrics (values excluded by
        // construction: both sides carry the same derived values here).
        let reg = Registry::new();
        reg.counter("chan.fwd.sends").add(5);
        reg.gauge("sim.fwd.in_transit").set(30);
        reg.histogram("sim.packets_per_message").record(64);
        let c = reg.snapshot();
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut cb = c.clone();
        cb.merge_from(&b);
        cb.values = bc.values.clone();
        assert_eq!(bc, cb);
    }

    #[test]
    fn summary_mentions_every_metric() {
        let snap = populated();
        let table = snap.summary();
        for name in [
            "chan.fwd.sends",
            "sim.fwd.in_transit",
            "sim.packets_per_message",
            "explore.states_per_sec",
        ] {
            assert!(table.contains(name), "summary missing {name}:\n{table}");
        }
        assert!(table.contains("high water 9"));
    }
}
