//! Point-in-time metric snapshots with a stable JSON schema.
//!
//! The schema is versioned and pinned ([`SCHEMA_VERSION`]): tests pin exact
//! values in these documents and the golden aggregates under `campaigns/`
//! are compared byte for byte, so any change to the document shape must
//! bump the version and keep
//! [`MetricsSnapshot::from_json`] accepting what it wrote before.

use crate::json::{write_f64, write_string, write_u64, Json, JsonError, JsonReader};
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
    /// The histogram as the JSON object a snapshot document holds:
    /// `count`, `sum`, `min`, `max` and `buckets` as `[le, n]` pairs.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Uint(self.count)),
            ("sum".into(), Json::Uint(self.sum)),
            ("min".into(), Json::Uint(self.min)),
            ("max".into(), Json::Uint(self.max)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(le, n)| Json::Arr(vec![Json::Uint(le), Json::Uint(n)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a [`to_json_value`](Self::to_json_value) object; `name`
    /// labels the errors.
    ///
    /// # Errors
    ///
    /// Rejects a missing or non-`u64` field and a bucket that is not a
    /// `[le, n]` pair of `u64`s.
    pub fn from_json_value(name: &str, v: &Json) -> Result<HistogramSnapshot, SnapshotError> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| SnapshotError::Schema(format!("histogram '{name}' missing {key}")))
        };
        let mut buckets = Vec::new();
        if let Some(items) = v.get("buckets").and_then(Json::as_arr) {
            for item in items {
                match item.as_arr() {
                    Some([le, n]) => match (le.as_u64(), n.as_u64()) {
                        (Some(le), Some(n)) => buckets.push((le, n)),
                        _ => return schema_err(format!("histogram '{name}' has a bad bucket")),
                    },
                    _ => return schema_err(format!("histogram '{name}' has a bad bucket")),
                }
            }
        }
        Ok(HistogramSnapshot {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            max: field("max")?,
            buckets,
        })
    }

    /// Appends [`to_json_value`](Self::to_json_value)'s object to `out`,
    /// written straight from the fields.
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

    /// Reads the next value of `reader` as
    /// [`from_json_value`](Self::from_json_value) reads a tree: the same
    /// checks in the same order, the first of repeated keys winning, and
    /// unknown fields skipped.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Json`] for a syntax error, after which the reader
    /// is spent; [`SnapshotError::Schema`] for a value that is not such a
    /// histogram, which the reader has then passed over whole.
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
/// buckets if it is not an array (what a tree's `as_arr` skips).
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

impl MetricsSnapshot {
    /// Serializes the snapshot as a compact, key-sorted JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`to_json`](Self::to_json)'s document to `out`, written
    /// straight from the maps with no [`Json`] tree in between: how a
    /// campaign wire line embeds a snapshot. Byte-identical to writing
    /// [`to_json_value`](Self::to_json_value).
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

    /// The snapshot as a [`Json`] value — for callers that embed snapshots
    /// inside a larger document (a campaign wire line) rather than
    /// writing a standalone file.
    pub fn to_json_value(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Uint(v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, g)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Uint(g.value)),
                            ("high_water".into(), Json::Uint(g.high_water)),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json_value()))
                .collect(),
        );
        let values = Json::Obj(
            self.values
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Float(v)))
                .collect(),
        );
        Json::Obj(vec![
            ("schema_version".into(), Json::Uint(self.schema_version)),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
            ("values".into(), values),
        ])
    }

    /// Parses a snapshot document written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, documents without a `schema_version`, and
    /// versions newer than this crate understands.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Parses a snapshot from an already-parsed [`Json`] value (the inverse
    /// of [`to_json_value`](Self::to_json_value)).
    ///
    /// # Errors
    ///
    /// Rejects documents without a `schema_version` and versions newer than
    /// this crate understands.
    pub fn from_json_value(doc: &Json) -> Result<MetricsSnapshot, SnapshotError> {
        let version = match doc.get("schema_version").and_then(Json::as_u64) {
            Some(v) => v,
            None => return schema_err("missing schema_version"),
        };
        if version == 0 || version > SCHEMA_VERSION {
            return schema_err(format!(
                "unsupported schema_version {version} (this build reads ≤ {SCHEMA_VERSION})"
            ));
        }
        let mut snap = MetricsSnapshot {
            schema_version: version,
            ..MetricsSnapshot::default()
        };
        // Counters are most of a run's metrics: collecting bulk-builds the
        // map from the document's sorted keys instead of searching the
        // tree once per key.
        if let Some(fields) = doc.get("counters").and_then(Json::as_obj) {
            snap.counters = fields
                .iter()
                .map(|(k, v)| match v.as_u64() {
                    Some(n) => Ok((k.clone(), n)),
                    None => schema_err(format!("counter '{k}' is not a u64")),
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(fields) = doc.get("gauges").and_then(Json::as_obj) {
            for (k, v) in fields {
                let (value, high_water) = match (
                    v.get("value").and_then(Json::as_u64),
                    v.get("high_water").and_then(Json::as_u64),
                ) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return schema_err(format!("gauge '{k}' is malformed")),
                };
                snap.gauges
                    .insert(k.clone(), GaugeSnapshot { value, high_water });
            }
        }
        if let Some(fields) = doc.get("histograms").and_then(Json::as_obj) {
            for (k, v) in fields {
                snap.histograms
                    .insert(k.clone(), HistogramSnapshot::from_json_value(k, v)?);
            }
        }
        if let Some(fields) = doc.get("values").and_then(Json::as_obj) {
            for (k, v) in fields {
                match v.as_f64() {
                    Some(x) => snap.values.insert(k.clone(), x),
                    None => return schema_err(format!("value '{k}' is not a number")),
                };
            }
        }
        Ok(snap)
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

    #[test]
    fn json_value_round_trip_matches_text_round_trip() {
        let snap = populated();
        let value = snap.to_json_value();
        assert_eq!(value.to_string(), snap.to_json());
        assert_eq!(MetricsSnapshot::from_json_value(&value).unwrap(), snap);
    }

    /// The streaming writer spells every snapshot as the tree did: empty
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
            assert_eq!(out, format!("prefix{}", snap.to_json_value()));
        }
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
