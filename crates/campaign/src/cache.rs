//! Fingerprint-keyed campaign result cache.
//!
//! Every [`RunSpec`](crate::RunSpec) has a canonical spelling whose FNV-64
//! hash keys its result. The cache stores everything a
//! [`RunRecord`](crate::RunRecord) renders or aggregates — outcome,
//! execution fingerprint, engine statistics, and the full per-run metrics
//! snapshot — so a cache replay is indistinguishable from a fresh run in
//! every campaign artifact. Runs are deterministic functions of their
//! specs, which is what makes caching sound at all.
//!
//! The on-disk form is the workspace's hand-rolled JSON, with a schema
//! version for forward compatibility; a missing cache file loads as an
//! empty cache (the natural first-run experience for `--cache`).

use crate::runner::{RunOutcome, RunRecord};
use crate::spec::RunSpec;
use nonfifo_core::{NonFifoError, RunCounters};
use nonfifo_telemetry::{Json, MetricsSnapshot, SCHEMA_VERSION};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, RwLock};

/// Version stamp of the cache file schema.
pub const CACHE_SCHEMA_VERSION: u64 = 1;

/// A run's metrics: the counters of a run this process executed, or the
/// snapshot a cache file or wire line carried. Counters get their metric
/// names only when a snapshot is read — a cache insert, a wire line, an
/// aggregate — so a run nobody exports never formats a name.
#[derive(Debug, Clone)]
pub enum RunMetrics {
    /// The counters of a run executed in this process.
    Counters(Box<RunCounters>),
    /// A snapshot parsed from a cache file or a wire line.
    Snapshot(MetricsSnapshot),
}

impl RunMetrics {
    /// The metrics as a name-keyed snapshot (borrowed if already one).
    pub fn snapshot(&self) -> Cow<'_, MetricsSnapshot> {
        match self {
            RunMetrics::Counters(c) => Cow::Owned(c.snapshot()),
            RunMetrics::Snapshot(s) => Cow::Borrowed(s),
        }
    }

    /// Merges runs' metrics into one campaign-wide snapshot. Equal to
    /// folding each run's snapshot in with
    /// [`MetricsSnapshot::merge_from`] (its rules are order-free for
    /// everything a run records), but counters are summed as counters
    /// and named once, not once per run.
    pub fn aggregate<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            ..MetricsSnapshot::default()
        };
        let mut counters: Option<RunCounters> = None;
        for run in runs {
            match run {
                RunMetrics::Counters(c) => counters.get_or_insert_with(RunCounters::new).merge(c),
                RunMetrics::Snapshot(s) => agg.merge_from(s),
            }
        }
        if let Some(counters) = counters {
            agg.merge_from(&counters.snapshot());
        }
        agg
    }
}

/// Equal when the snapshots are: a run compares equal to its own cache
/// or wire replay.
impl PartialEq for RunMetrics {
    fn eq(&self, other: &RunMetrics) -> bool {
        self.snapshot() == other.snapshot()
    }
}

impl From<MetricsSnapshot> for RunMetrics {
    fn from(snapshot: MetricsSnapshot) -> Self {
        RunMetrics::Snapshot(snapshot)
    }
}

impl From<RunCounters> for RunMetrics {
    fn from(counters: RunCounters) -> Self {
        RunMetrics::Counters(Box::new(counters))
    }
}

/// The cached portion of a run record: everything except the spec (which
/// the lookup key already proves) and the `cached` marker.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Execution fingerprint at the end of the run.
    pub fingerprint: u64,
    /// Scheduler steps taken.
    pub steps: u64,
    /// Forward packets sent.
    pub fwd_sends: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// The run's metrics.
    pub metrics: RunMetrics,
}

impl CachedRun {
    /// The run as a [`Json`] object. This is the one serialization of a
    /// completed run in the workspace: the cache file embeds it per entry
    /// and the service wire protocol ships it per `run` message, so the
    /// two layers cannot drift apart.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            (
                "outcome".to_string(),
                Json::Str(self.outcome.as_str().to_string()),
            ),
            ("fingerprint".to_string(), Json::Uint(self.fingerprint)),
            ("steps".to_string(), Json::Uint(self.steps)),
            ("fwd_sends".to_string(), Json::Uint(self.fwd_sends)),
            ("delivered".to_string(), Json::Uint(self.delivered)),
            (
                "metrics".to_string(),
                self.metrics.snapshot().to_json_value(),
            ),
        ])
    }

    /// Parses a value written by [`to_json_value`](CachedRun::to_json_value).
    ///
    /// # Errors
    ///
    /// Rejects objects with missing or mistyped fields.
    pub fn from_json_value(entry: &Json) -> Result<CachedRun, CacheError> {
        let field = |name: &str| {
            entry
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| CacheError(format!("entry missing field {name:?}")))
        };
        let outcome = entry
            .get("outcome")
            .and_then(Json::as_str)
            .and_then(RunOutcome::from_str_opt)
            .ok_or_else(|| CacheError("entry has no valid outcome".to_string()))?;
        let metrics = entry
            .get("metrics")
            .ok_or_else(|| CacheError("entry missing field \"metrics\"".to_string()))
            .and_then(|m| {
                MetricsSnapshot::from_json_value(m).map_err(|e| CacheError(e.to_string()))
            })?;
        Ok(CachedRun {
            outcome,
            fingerprint: field("fingerprint")?,
            steps: field("steps")?,
            fwd_sends: field("fwd_sends")?,
            delivered: field("delivered")?,
            metrics: metrics.into(),
        })
    }
}

/// Why a cache document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheError(pub String);

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign cache: {}", self.0)
    }
}

impl Error for CacheError {}

impl From<CacheError> for NonFifoError {
    fn from(e: CacheError) -> Self {
        NonFifoError::Usage(e.to_string())
    }
}

/// A fingerprint-keyed store of completed campaign runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignCache {
    entries: BTreeMap<u64, CachedRun>,
}

impl CampaignCache {
    /// An empty cache.
    pub fn new() -> Self {
        CampaignCache::default()
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays the cached result for `spec`, if present, as a full record
    /// marked `cached`.
    pub fn lookup(&self, spec: &RunSpec) -> Option<RunRecord> {
        let hit = self.entries.get(&spec.fingerprint())?;
        Some(RunRecord {
            spec: spec.clone(),
            outcome: hit.outcome,
            fingerprint: hit.fingerprint,
            steps: hit.steps,
            fwd_sends: hit.fwd_sends,
            delivered: hit.delivered,
            metrics: hit.metrics.clone(),
            cached: true,
        })
    }

    /// Stores `record` under `spec`'s key. The entry keeps the metrics
    /// as a snapshot, so later saves do not rename them.
    pub fn insert(&mut self, spec: &RunSpec, record: &RunRecord) {
        let run = CachedRun {
            outcome: record.outcome,
            fingerprint: record.fingerprint,
            steps: record.steps,
            fwd_sends: record.fwd_sends,
            delivered: record.delivered,
            metrics: RunMetrics::Snapshot(record.metrics.snapshot().into_owned()),
        };
        self.entries.insert(spec.fingerprint(), run);
    }

    /// Serializes the cache as a compact JSON document.
    pub fn to_json(&self) -> String {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|(&key, run)| {
                let mut fields = vec![("key".to_string(), Json::Uint(key))];
                match run.to_json_value() {
                    Json::Obj(rest) => fields.extend(rest),
                    _ => unreachable!("CachedRun serializes as an object"),
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            (
                "schema_version".to_string(),
                Json::Uint(CACHE_SCHEMA_VERSION),
            ),
            ("entries".to_string(), Json::Arr(entries)),
        ])
        .to_string()
    }

    /// Parses a document produced by [`to_json`](CampaignCache::to_json).
    ///
    /// # Errors
    ///
    /// Rejects invalid JSON, unknown schema versions, and entries with
    /// missing or mistyped fields.
    pub fn from_json(text: &str) -> Result<CampaignCache, CacheError> {
        let doc = Json::parse(text).map_err(|e| CacheError(e.to_string()))?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| CacheError("missing schema_version".to_string()))?;
        if version != CACHE_SCHEMA_VERSION {
            return Err(CacheError(format!(
                "unsupported schema_version {version} (expected {CACHE_SCHEMA_VERSION})"
            )));
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| CacheError("missing entries array".to_string()))?;
        let mut cache = CampaignCache::new();
        for entry in entries {
            let key = entry
                .get("key")
                .and_then(Json::as_u64)
                .ok_or_else(|| CacheError("entry missing field \"key\"".to_string()))?;
            cache
                .entries
                .insert(key, CachedRun::from_json_value(entry)?);
        }
        Ok(cache)
    }

    /// Loads a cache file; a missing file is an empty cache.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files and on files that exist but do not parse.
    pub fn load(path: &str) -> Result<CampaignCache, NonFifoError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(CampaignCache::from_json(&text)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(CampaignCache::new()),
            Err(e) => Err(NonFifoError::io(path, &e)),
        }
    }

    /// Writes the cache file.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written.
    pub fn save(&self, path: &str) -> Result<(), NonFifoError> {
        std::fs::write(path, self.to_json()).map_err(|e| NonFifoError::io(path, &e))
    }
}

/// A [`CampaignCache`] behind a reader–writer lock: the campaign service's
/// shared persistent store. Many in-flight campaigns consult the cache
/// concurrently (lookups take the read lock); completed runs and file
/// persistence take the write lock. Cloning shares the store.
#[derive(Debug, Clone, Default)]
pub struct SharedCache {
    inner: Arc<RwLock<CampaignCache>>,
}

impl SharedCache {
    /// An empty shared cache.
    pub fn new() -> Self {
        SharedCache::default()
    }

    /// Wraps an already-populated cache.
    pub fn from_cache(cache: CampaignCache) -> Self {
        SharedCache {
            inner: Arc::new(RwLock::new(cache)),
        }
    }

    /// Loads a cache file; a missing file is an empty cache.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files and on files that exist but do not parse.
    pub fn load(path: &str) -> Result<SharedCache, NonFifoError> {
        Ok(SharedCache::from_cache(CampaignCache::load(path)?))
    }

    /// Replays the cached result for `spec` under the read lock.
    pub fn lookup(&self, spec: &RunSpec) -> Option<RunRecord> {
        self.inner.read().expect("cache lock poisoned").lookup(spec)
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.inner.read().expect("cache lock poisoned").len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores a batch of fresh records under one write-lock acquisition.
    pub fn insert_all<'a>(&self, records: impl IntoIterator<Item = (&'a RunSpec, &'a RunRecord)>) {
        let mut cache = self.inner.write().expect("cache lock poisoned");
        for (spec, record) in records {
            cache.insert(spec, record);
        }
    }

    /// Writes the cache file (read lock only — serialization does not
    /// mutate the store).
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written.
    pub fn save(&self, path: &str) -> Result<(), NonFifoError> {
        self.inner.read().expect("cache lock poisoned").save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CampaignRunner;
    use crate::spec::ScenarioSpec;
    use nonfifo_channel::Discipline;

    fn populated() -> (Vec<RunSpec>, CampaignCache) {
        let runs = ScenarioSpec::new("t")
            .protocol("abp")
            .discipline(Discipline::Probabilistic { q: 0.3 })
            .message_counts(&[5, 10])
            .seeds(0..2)
            .expand();
        let mut cache = CampaignCache::new();
        CampaignRunner::new(1)
            .run_with_cache(&runs, &mut cache)
            .unwrap();
        (runs, cache)
    }

    #[test]
    fn json_round_trips_exactly() {
        let (runs, cache) = populated();
        let text = cache.to_json();
        let reloaded = CampaignCache::from_json(&text).unwrap();
        assert_eq!(cache, reloaded);
        for spec in &runs {
            let a = cache.lookup(spec).unwrap();
            let b = reloaded.lookup(spec).unwrap();
            assert_eq!(a, b);
            assert!(a.cached);
        }
    }

    #[test]
    fn bad_documents_are_rejected_with_reasons() {
        for (text, needle) in [
            ("{", "json"),
            ("{}", "schema_version"),
            ("{\"schema_version\":99,\"entries\":[]}", "unsupported"),
            ("{\"schema_version\":1}", "entries"),
            (
                "{\"schema_version\":1,\"entries\":[{\"key\":1}]}",
                "outcome",
            ),
        ] {
            let err = CampaignCache::from_json(text).unwrap_err();
            assert!(
                err.to_string().to_lowercase().contains(needle),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn missing_file_loads_empty() {
        let cache = CampaignCache::load("/nonexistent/campaign.cache.json").unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_run_value_round_trips() {
        let (runs, cache) = populated();
        for spec in &runs {
            let record = cache.lookup(spec).unwrap();
            let run = CachedRun::from(record);
            let back = CachedRun::from_json_value(&run.to_json_value()).unwrap();
            assert_eq!(back, run);
        }
    }

    #[test]
    fn shared_cache_reads_concurrently_and_shares_inserts() {
        let (runs, cache) = populated();
        let shared = SharedCache::from_cache(cache);
        let clone = shared.clone();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| runs.iter().all(|spec| shared.lookup(spec).is_some())))
                .collect();
            for h in handles {
                assert!(h.join().unwrap(), "a reader missed a cached run");
            }
        });
        // Inserts through one handle are visible through the clone.
        let extra = ScenarioSpec::new("extra")
            .protocol("abp")
            .discipline(Discipline::Fifo)
            .message_counts(&[3])
            .expand();
        let record = CampaignRunner::new(1).run(&extra).unwrap().records[0].clone();
        shared.insert_all([(&extra[0], &record)]);
        assert!(clone.lookup(&extra[0]).is_some());
        assert_eq!(clone.len(), runs.len() + 1);
    }
}
