//! Fingerprint-keyed campaign result cache.
//!
//! Every [`RunSpec`](crate::RunSpec) has a canonical spelling whose FNV-64
//! hash keys its result. The cache stores everything a campaign renders
//! or aggregates of a run — outcome, execution fingerprint, engine
//! statistics, and the run's [`RunCounters`] — so a cache replay is
//! indistinguishable from a fresh run in every campaign artifact. Runs are
//! deterministic functions of their specs, which is what makes caching
//! sound at all.
//!
//! An entry keeps the run's [`RunResult`] and its counters as text: the
//! canonical object [`RunCounters::write_json`] writes, which is also what
//! the entry's log line carries, so the cache holds in memory about what
//! its log holds on disk. A decoded `RunCounters` holds a dense table per
//! header and two full histograms, several KB for a run of 100 messages,
//! against about a KB of text. A hit's counters are decoded only to be
//! folded into its campaign's total
//! ([`PlanExpansion::partition_cached`](crate::PlanExpansion::partition_cached))
//! or returned by [`CampaignCache::get`].
//!
//! On disk the cache is an append-only NDJSON log of the
//! [`WireMsg::Run`] lines the daemon streams, keyed by their `spec`
//! fingerprint, so cache and wire share one codec, the one beside
//! [`WireMsg`]: lines are written straight from the entries' text and
//! read field by field off a
//! [`JsonReader`](nonfifo_telemetry::JsonReader), with no `Json` tree in
//! between. In a cache file a
//! line's `index` is its position in the log. A cache remembers the file
//! it was loaded from (a missing file loads as empty, the natural
//! first-run experience for `--cache`), and saving back to that file
//! appends only the runs inserted since the last load or save, so a
//! campaign costs O(its fresh runs), not O(the whole cache).
//!
//! A process killed mid-append leaves at worst a final segment with no
//! newline. `load` drops it (that run is simply recomputed) and remembers
//! the length of the complete lines before it; the next save writes from
//! that length and truncates the file at its new end, so the repair costs
//! O(the torn tail), not O(the cache). A failed append is repaired the
//! same way, from the length before it. Any other malformed line is an
//! error naming its line. Only a save to any other path, or the first
//! save after a load that met a key twice, streams a compacted copy to
//! `<path>.tmp` and renames it into place. There is no migration from
//! older formats — whole-document caches and logs of older wire versions
//! fail at line 1, asking for the file to be deleted: the cache is a
//! memo, so deleting the file is always safe.

use crate::runner::{PlanExpansion, RunOutcome, RunPart, RunResult};
use crate::spec::RunSpec;
use crate::wire::{write_stored_run_line, LineFields, WireMsg, WIRE_SCHEMA_VERSION};
use nonfifo_core::{NonFifoError, RunCounters};
use nonfifo_telemetry::JsonReader;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::sync::{Arc, RwLock};

/// A run record with its counters decoded: everything except the spec
/// (which the lookup key already proves) and the `cached` marker. It
/// travels as the `run` object of a [`WireMsg::Run`] line, on the wire and
/// in the cache file alike, and is what [`CampaignCache::get`] returns. A
/// cache entry keeps the same run with its counters as text.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// What the run ended with.
    pub result: RunResult,
    /// The run's metrics.
    pub metrics: Box<RunCounters>,
}

/// A cache entry: a run's result, and its counters as the canonical text
/// [`RunCounters::write_json`] writes. The encoding is injective, so two
/// entries are equal exactly when their runs are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredRun {
    /// What the run ended with.
    pub(crate) result: RunResult,
    /// The run's counters, encoded.
    pub(crate) counters: Box<str>,
}

impl StoredRun {
    /// `run` with its counters encoded.
    pub(crate) fn encode(run: &CachedRun) -> StoredRun {
        let mut counters = String::new();
        run.metrics.write_json(&mut counters);
        StoredRun {
            result: run.result,
            counters: counters.into_boxed_str(),
        }
    }

    /// The run's counters, decoded.
    pub(crate) fn counters(&self) -> RunCounters {
        RunCounters::read_json(&mut JsonReader::new(&self.counters))
            .expect("a cache entry holds counters its own encoder wrote")
    }

    /// The run with its counters decoded.
    fn decode(&self) -> CachedRun {
        CachedRun {
            result: self.result,
            metrics: Box::new(self.counters()),
        }
    }

    /// The heap and inline bytes the entry holds under its key.
    fn bytes(&self) -> usize {
        std::mem::size_of::<(u64, StoredRun)>() + self.counters.len()
    }
}

/// What every rejection of an old cache format asks for.
const DELETE: &str =
    "(delete the file: it holds deterministic runs, which the next campaign recomputes)";

/// Why a cache file was rejected: the line at fault and what was wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheError {
    /// 1-based line number in the cache file.
    pub line: usize,
    /// What was wrong with the line.
    pub message: String,
}

impl CacheError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        CacheError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign cache line {}: {}", self.line, self.message)
    }
}

impl Error for CacheError {}

/// A fingerprint-keyed store of completed campaign runs, and the log file
/// it persists to.
#[derive(Debug, Clone, Default)]
pub struct CampaignCache {
    entries: BTreeMap<u64, StoredRun>,
    /// The file this cache was loaded from; saves to it append.
    file: Option<String>,
    /// Bytes of `file` that are whole lines of the log.
    logged: u64,
    /// `file` may hold bytes past `logged` (a torn tail or a failed
    /// append), which the next save to it writes over and truncates.
    torn: bool,
    /// Keys inserted since the last load or save, in insertion order.
    pending: Vec<u64>,
    /// `file` holds a key twice, so the next save to it rewrites it.
    compact: bool,
}

/// Equal when the entries are, compared by their counters' text: where a
/// cache came from and what it has yet to write do not matter.
impl PartialEq for CampaignCache {
    fn eq(&self, other: &CampaignCache) -> bool {
        self.entries == other.entries
    }
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

    /// The bytes the entries hold: each one's key, result and counters
    /// text. The map's spare node slots and the allocator's rounding are
    /// not counted.
    pub fn bytes(&self) -> usize {
        self.entries.values().map(StoredRun::bytes).sum()
    }

    /// The cached result for `spec`, if present, with its counters decoded.
    pub fn get(&self, spec: &RunSpec) -> Option<CachedRun> {
        self.get_by_key(spec.fingerprint()).map(StoredRun::decode)
    }

    /// The entry under the spec fingerprint `key`, if present.
    pub(crate) fn get_by_key(&self, key: u64) -> Option<&StoredRun> {
        self.entries.get(&key)
    }

    /// Stores `run` under `spec`'s key. A key already
    /// present keeps its entry: runs are deterministic, so the two agree,
    /// and the log holds each key once. A panicked run is not stored, so
    /// the next campaign runs it again.
    pub fn insert(&mut self, spec: &RunSpec, run: CachedRun) {
        self.insert_stored(spec, StoredRun::encode(&run));
    }

    /// [`insert`](CampaignCache::insert) for a run whose counters are
    /// already encoded.
    pub(crate) fn insert_stored(&mut self, spec: &RunSpec, run: StoredRun) {
        if run.result.outcome == RunOutcome::Panicked {
            return;
        }
        let key = spec.fingerprint();
        if let Entry::Vacant(slot) = self.entries.entry(key) {
            slot.insert(run);
            self.pending.push(key);
        }
    }

    /// Loads a cache file and remembers it as this cache's file; a
    /// missing file is an empty cache. The file is read a line at a time,
    /// so loading holds the entries and one line, not the whole file.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files and on any malformed line but a torn
    /// last one, with a [`CacheError`] naming the line.
    pub fn load(path: &str) -> Result<CampaignCache, NonFifoError> {
        let mut cache = match File::open(path) {
            Ok(file) => CampaignCache::parse_log(BufReader::with_capacity(1 << 16, file))
                .map_err(|e| NonFifoError::io(path, &e))?
                .map_err(|e| NonFifoError::Io {
                    path: path.to_string(),
                    message: e.to_string(),
                })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => CampaignCache::new(),
            Err(e) => return Err(NonFifoError::io(path, &e)),
        };
        cache.file = Some(path.to_string());
        Ok(cache)
    }

    /// Parses a cache log: the outer error is a failed read, the inner one
    /// the first malformed line. A final segment with no newline is a torn
    /// append: it is dropped, and so is nothing else.
    fn parse_log(mut log: impl BufRead) -> std::io::Result<Result<CampaignCache, CacheError>> {
        let mut cache = CampaignCache::new();
        let mut line = Vec::new();
        let mut scratch = String::new();
        for n in 1.. {
            line.clear();
            if log.read_until(b'\n', &mut line)? == 0 {
                break;
            }
            if let Some(rest) = line
                .strip_prefix(b"{\"schema_version\":")
                .filter(|_| n == 1)
            {
                let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
                let version = String::from_utf8_lossy(&rest[..digits]);
                return Ok(Err(CacheError::at(
                    1,
                    format!(
                        "a schema_version {version} whole-document cache; this build reads \
                         run-line logs only {DELETE}"
                    ),
                )));
            }
            let Some(text) = line.strip_suffix(b"\n") else {
                cache.torn = true;
                break;
            };
            if let Err(e) = cache.load_line(n, text, &mut scratch) {
                return Ok(Err(e));
            }
            cache.logged += line.len() as u64;
        }
        Ok(Ok(cache))
    }

    /// Decodes and judges line `n` of a log, and stores its run unless its
    /// key is already stored. The entry keeps the canonical encoding of
    /// the counters the line held (written through `scratch`), so a padded
    /// or reordered line compacts to the bytes a fresh run's line has.
    fn load_line(&mut self, n: usize, text: &[u8], scratch: &mut String) -> Result<(), CacheError> {
        let text = std::str::from_utf8(text).map_err(|_| CacheError::at(n, "line is not UTF-8"))?;
        let fields = LineFields::read(text).map_err(|e| CacheError::at(n, e.to_string()))?;
        if let Some(v) = fields.version() {
            if v < WIRE_SCHEMA_VERSION {
                return Err(CacheError::at(
                    n,
                    format!(
                        "a wire schema_version {v} run line; this build reads version \
                         {WIRE_SCHEMA_VERSION} {DELETE}"
                    ),
                ));
            }
        }
        match fields.into_message() {
            Ok(WireMsg::Run {
                spec_fingerprint,
                run,
                ..
            }) => match self.entries.entry(spec_fingerprint) {
                Entry::Vacant(slot) => {
                    scratch.clear();
                    run.metrics.write_json(scratch);
                    slot.insert(StoredRun {
                        result: run.result,
                        counters: scratch.as_str().into(),
                    });
                }
                Entry::Occupied(_) => self.compact = true,
            },
            Ok(other) => {
                return Err(CacheError::at(
                    n,
                    format!("expected a run line, found a {:?} line", other.kind()),
                ))
            }
            Err(e) => return Err(CacheError::at(n, e.message)),
        }
        Ok(())
    }

    /// Persists the cache to `path`. Saving to the file the cache was
    /// loaded from writes the runs inserted since the last load or save
    /// with one write, over any torn tail, and cuts the file at their end;
    /// with neither new runs nor a torn tail, the file is left untouched.
    /// Any other path, or a file that holds a key twice, gets a compacted
    /// copy written to `<path>.tmp` and renamed into place.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written.
    pub fn save(&mut self, path: &str) -> Result<(), NonFifoError> {
        let own = self.file.as_deref() == Some(path);
        if !own || self.compact {
            let written = self
                .write_compacted(path)
                .map_err(|e| NonFifoError::io(path, &e))?;
            if own {
                self.logged = written;
            }
        } else if self.torn || !self.pending.is_empty() {
            // The log already holds every entry that is not pending.
            let first = (self.entries.len() - self.pending.len()) as u64;
            let mut lines = String::new();
            for (index, key) in (first..).zip(&self.pending) {
                let run = &self.entries[key];
                write_stored_run_line(&mut lines, index, *key, &run.result, &run.counters);
            }
            // Write over any torn tail, then cut the file at the new end:
            // cutting first could empty the file, and ext4 flushes a file
            // emptied by truncation when it is closed. Until this
            // succeeds, the next save writes from `logged` again.
            self.torn = true;
            let end = self.logged + lines.len() as u64;
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(false)
                .open(path)
                .and_then(|mut file| {
                    file.seek(SeekFrom::Start(self.logged))?;
                    file.write_all(lines.as_bytes())?;
                    file.set_len(end)
                })
                .map_err(|e| NonFifoError::io(path, &e))?;
            self.logged = end;
        }
        if own {
            self.pending.clear();
            self.torn = false;
            self.compact = false;
        }
        Ok(())
    }

    /// Streams every entry, in key order, to `<path>.tmp`, then renames
    /// it over `path`. Returns the bytes written.
    fn write_compacted(&self, path: &str) -> std::io::Result<u64> {
        let tmp = format!("{path}.tmp");
        let mut out = File::create(&tmp)?;
        let mut written = 0;
        let mut lines = String::new();
        for (index, (key, run)) in self.entries.iter().enumerate() {
            write_stored_run_line(&mut lines, index as u64, *key, &run.result, &run.counters);
            if lines.len() >= 1 << 16 {
                out.write_all(lines.as_bytes())?;
                written += lines.len() as u64;
                lines.clear();
            }
        }
        out.write_all(lines.as_bytes())?;
        written += lines.len() as u64;
        drop(out);
        std::fs::rename(&tmp, path)?;
        Ok(written)
    }
}

/// A [`CampaignCache`] behind a reader–writer lock: the campaign service's
/// shared persistent store. Many in-flight campaigns consult the cache
/// concurrently (lookups take the read lock); completed runs and file
/// appends take the write lock. Cloning shares the store.
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

    /// The cached result for `spec`, decoded under the read lock.
    pub fn get(&self, spec: &RunSpec) -> Option<CachedRun> {
        self.inner.read().expect("cache lock poisoned").get(spec)
    }

    /// [`PlanExpansion::partition_cached`] under one read-lock
    /// acquisition: each hit's counters are decoded and folded in turn.
    pub fn partition_cached(&self, expansion: &PlanExpansion) -> (RunPart, Vec<usize>) {
        expansion.partition_cached(&self.inner.read().expect("cache lock poisoned"))
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.inner.read().expect("cache lock poisoned").len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes the entries hold (see [`CampaignCache::bytes`]).
    pub fn bytes(&self) -> usize {
        self.inner.read().expect("cache lock poisoned").bytes()
    }

    /// Stores a batch of fresh runs and, given `save_to`, saves the
    /// cache there, all under one write-lock acquisition: concurrent
    /// campaigns append whole batches in turn, never interleaved lines.
    /// Returns the entries and the bytes they hold after the batch.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written; the runs stay inserted.
    pub(crate) fn insert_all<'a>(
        &self,
        runs: impl IntoIterator<Item = (&'a RunSpec, StoredRun)>,
        save_to: Option<&str>,
    ) -> Result<(usize, usize), NonFifoError> {
        let mut cache = self.inner.write().expect("cache lock poisoned");
        for (spec, run) in runs {
            cache.insert_stored(spec, run);
        }
        save_to.map_or(Ok(()), |path| cache.save(path))?;
        Ok((cache.len(), cache.bytes()))
    }

    /// Saves the cache file (see [`CampaignCache::save`]).
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written.
    pub fn save(&self, path: &str) -> Result<(), NonFifoError> {
        self.inner.write().expect("cache lock poisoned").save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CampaignRunner;
    use crate::spec::ScenarioSpec;
    use crate::wire::write_run_line;
    use nonfifo_channel::Discipline;
    use nonfifo_telemetry::Json;
    use std::collections::BTreeSet;

    fn abp(seeds: std::ops::Range<u64>) -> Vec<RunSpec> {
        ScenarioSpec::new("t")
            .protocol("abp")
            .discipline(Discipline::Probabilistic { q: 0.3 })
            .message_counts(&[2])
            .seeds(seeds)
            .expand()
    }

    fn populated() -> (Vec<RunSpec>, CampaignCache) {
        let runs = abp(0..4);
        let mut cache = CampaignCache::new();
        CampaignRunner::new(1)
            .run_with_cache(&runs, &mut cache)
            .unwrap();
        (runs, cache)
    }

    /// A fresh path under the temp dir for one test's cache file.
    fn temp_path(name: &str) -> String {
        let path = std::env::temp_dir()
            .join(format!(
                "nonfifo-cache-{name}-{}.ndjson",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        std::fs::remove_file(&path).ok();
        path
    }

    /// Loads `path`, runs `runs` against it, saves back, and returns the
    /// cache and how many runs executed fresh.
    fn campaign(path: &str, runs: &[RunSpec]) -> (CampaignCache, usize) {
        let mut cache = CampaignCache::load(path).unwrap();
        let report = CampaignRunner::new(1)
            .run_with_cache(runs, &mut cache)
            .unwrap();
        cache.save(path).unwrap();
        (cache, runs.len() - report.cache_hits)
    }

    /// The cache's entries as log lines, in key order.
    fn log_lines(cache: &CampaignCache) -> Vec<String> {
        (0..)
            .zip(&cache.entries)
            .map(|(index, (key, run))| {
                let mut line = String::new();
                write_stored_run_line(&mut line, index, *key, &run.result, &run.counters);
                line
            })
            .collect()
    }

    /// Every line parses as a run line and no key repeats; returns the
    /// keys in file order.
    fn log_keys(bytes: &[u8]) -> Vec<u64> {
        let text = std::str::from_utf8(bytes).unwrap();
        assert!(text.is_empty() || text.ends_with('\n'), "torn log");
        let keys: Vec<u64> = text
            .lines()
            .map(|line| match WireMsg::parse_line(line).unwrap() {
                WireMsg::Run {
                    spec_fingerprint, ..
                } => spec_fingerprint,
                other => panic!("a {} line in the log", other.kind()),
            })
            .collect();
        let unique: BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "a key appears twice");
        keys
    }

    #[test]
    fn json_round_trips_exactly() {
        let (runs, mut cache) = populated();
        let path = temp_path("round-trip");
        cache.save(&path).unwrap();
        let reloaded = CampaignCache::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(cache, reloaded);
        for spec in &runs {
            assert_eq!(cache.get(spec).unwrap(), reloaded.get(spec).unwrap());
        }
    }

    #[test]
    fn bad_lines_are_rejected_with_their_line_number() {
        let (_, cache) = populated();
        let log = log_lines(&cache);
        let report = WireMsg::Error {
            message: "x".to_string(),
        }
        .to_line();
        let garbage_middle = format!("{}{{\"v\":1,garbage\n{}", log[0], log[1]);
        let other_type = format!("{}{}{report}", log[0], log[1]);
        // A line as the version-1 codec wrote it: the snapshot, by name.
        let old_line = "{\"v\":1,\"type\":\"run\",\"index\":0,\"spec\":7,\"run\":{\"outcome\":\
                        \"delivered\",\"fingerprint\":1,\"steps\":2,\"fwd_sends\":3,\
                        \"delivered\":1,\"metrics\":{\"schema_version\":1,\"counters\":{}}}}\n";
        let old_second = format!("{}{old_line}", log[0]);
        // A line as the version-2 codec wrote it: the same run object.
        let v2_line = log[1].replacen("{\"v\":3,", "{\"v\":2,", 1);
        for (text, line, needle) in [
            (
                "{\"schema_version\":1,\"entries\":[]}",
                1,
                "schema_version 1 whole-document",
            ),
            (garbage_middle.as_str(), 2, "json error"),
            (other_type.as_str(), 3, "found a \"error\" line"),
            ("{\"v\":4,\"type\":\"run\"}\n", 1, "schema_version 4"),
            (old_line, 1, "wire schema_version 1 run line"),
            (old_second.as_str(), 2, "delete the file"),
            (v2_line.as_str(), 1, "wire schema_version 2 run line"),
            (v2_line.as_str(), 1, "delete the file"),
        ] {
            let err = CampaignCache::parse_log(text.as_bytes())
                .unwrap()
                .unwrap_err();
            assert_eq!(err.line, line, "{text}: {err}");
            assert!(err.message.contains(needle), "{text}: {err}");
            assert!(err.to_string().contains(&format!("line {line}")), "{err}");
        }
    }

    #[test]
    fn cached_run_value_round_trips() {
        let (_, cache) = populated();
        for (index, (line, stored)) in log_lines(&cache)
            .iter()
            .zip(cache.entries.values())
            .enumerate()
        {
            let WireMsg::Run {
                spec_fingerprint,
                run,
                ..
            } = WireMsg::parse_line(line).unwrap()
            else {
                panic!("not a run line: {line}");
            };
            assert_eq!(run, stored.decode());
            assert_eq!(&StoredRun::encode(&run), stored);
            let mut again = String::new();
            let counters = write_run_line(&mut again, index as u64, spec_fingerprint, &run);
            assert_eq!(&again[counters], &*stored.counters, "the line's counters");
            assert_eq!(again, *line, "re-encoding is byte-stable");
        }
    }

    /// A JSON value with every object's fields reversed, its first key
    /// repeated with a junk value (the first of repeated keys wins), and
    /// an unknown nested field appended.
    fn shuffled(doc: &Json) -> Json {
        match doc {
            Json::Obj(fields) => {
                let mut out: Vec<(String, Json)> = fields
                    .iter()
                    .rev()
                    .map(|(k, v)| (k.clone(), shuffled(v)))
                    .collect();
                if let Some((first, _)) = fields.first() {
                    out.push((first.clone(), Json::Str("junk".to_string())));
                }
                let unknown = Json::Arr(vec![Json::Float(2.5), Json::Int(-3), Json::Null]);
                out.push((
                    "zz_unknown".to_string(),
                    Json::Obj(vec![("deep".to_string(), unknown)]),
                ));
                Json::Obj(out)
            }
            Json::Arr(items) => Json::Arr(items.iter().map(shuffled).collect()),
            other => other.clone(),
        }
    }

    /// A log of padded lines with reordered and repeated fields loads the
    /// runs a canonical log holds, and compacts to the canonical bytes.
    #[test]
    fn non_canonical_lines_load_and_compact_canonically() {
        let mut runs = abp(0..2);
        runs.extend(
            ScenarioSpec::new("t")
                .protocol("seqnum")
                .protocol("window4")
                .discipline(Discipline::BoundedReorder { bound: 4 })
                .message_counts(&[6])
                .seeds(0..2)
                .expand(),
        );
        let fresh: BTreeMap<u64, (&RunSpec, CachedRun)> = runs
            .iter()
            .map(|spec| {
                (
                    spec.fingerprint(),
                    (spec, CampaignRunner::run_one(spec).unwrap()),
                )
            })
            .collect();
        let mut log = String::new();
        let mut canonical = String::new();
        for (index, (key, (_, run))) in (0..).zip(&fresh) {
            let mut line = String::new();
            write_run_line(&mut line, index, *key, run);
            canonical.push_str(&line);
            let padded = shuffled(&Json::parse(line.trim()).unwrap())
                .to_string()
                .replace(',', " ,\t")
                .replace(':', "\t: ")
                .replace('[', "[ ");
            assert_ne!(padded, line.trim());
            log.push_str(&padded);
            log.push('\n');
        }
        let path = temp_path("padded");
        let copy = temp_path("padded-copy");
        std::fs::write(&path, &log).unwrap();
        let mut cache = CampaignCache::load(&path).unwrap();
        for (spec, run) in fresh.values() {
            assert_eq!(cache.get(spec).as_ref(), Some(run), "{spec:?}");
        }
        cache.save(&copy).unwrap();
        let compacted = std::fs::read_to_string(&copy).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&copy).ok();
        assert_eq!(compacted, canonical);
    }

    /// An unknown field nested 100,000 levels deep is refused at the
    /// 128th level with the line named, and no stack frame per level.
    #[test]
    fn a_line_nested_past_the_cap_fails_naming_its_line() {
        let (_, cache) = populated();
        let log = log_lines(&cache);
        let deep = format!(
            "{{\"v\":3,\"x\":{}{}}}\n",
            "[".repeat(100_000),
            "]".repeat(100_000)
        );
        let text = format!("{}{deep}{}", log[0], log[1]);
        let err = CampaignCache::parse_log(text.as_bytes())
            .unwrap()
            .unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(
            err.message.contains("nesting deeper than 128 levels"),
            "{err}"
        );
        assert!(
            err.to_string().starts_with("campaign cache line 2: "),
            "{err}"
        );
    }

    #[test]
    fn missing_file_loads_empty() {
        let cache = CampaignCache::load("/nonexistent/campaign.cache.json").unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn saves_append_new_runs_and_leave_a_warm_file_untouched() {
        let path = temp_path("append");
        let (_, fresh) = campaign(&path, &abp(0..2));
        assert_eq!(fresh, 2);
        let first = std::fs::read(&path).unwrap();
        let (_, fresh) = campaign(&path, &abp(0..5));
        assert_eq!(fresh, 3);
        let second = std::fs::read(&path).unwrap();
        assert!(
            second.starts_with(&first),
            "the first campaign's bytes stay put"
        );
        assert_eq!(log_keys(&second).len(), log_keys(&first).len() + 3);
        let (warm, fresh) = campaign(&path, &abp(0..5));
        assert_eq!(fresh, 0);
        assert_eq!(std::fs::read(&path).unwrap(), second, "warm replay wrote");
        assert_eq!(CampaignCache::load(&path).unwrap(), warm);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saves_elsewhere_write_a_compacted_copy_and_keep_the_own_file() {
        let path = temp_path("own");
        let copy = temp_path("copy");
        let (mut cache, _) = campaign(&path, &abp(0..2));
        CampaignRunner::new(1)
            .run_with_cache(&abp(0..3), &mut cache)
            .unwrap();
        cache.save(&copy).unwrap();
        assert_eq!(CampaignCache::load(&copy).unwrap(), cache);
        assert!(!std::path::Path::new(&format!("{copy}.tmp")).exists());
        // The copy did not count as persisting the pending run.
        cache.save(&path).unwrap();
        assert_eq!(CampaignCache::load(&path).unwrap(), cache);
        assert_eq!(log_keys(&std::fs::read(&path).unwrap()).len(), 3);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&copy).ok();
    }

    #[test]
    fn duplicate_keys_load_once_and_the_next_save_compacts() {
        let path = temp_path("dup");
        campaign(&path, &abp(0..2));
        let once = std::fs::read(&path).unwrap();
        let mut twice = once.clone();
        twice.extend_from_slice(&once);
        std::fs::write(&path, &twice).unwrap();
        let (cache, fresh) = campaign(&path, &abp(0..2));
        assert_eq!((cache.len(), fresh), (2, 0));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            once,
            "compacted to one line a key"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A cache written by two campaigns, cut at every byte offset: each
    /// load returns exactly the runs whose lines end before the cut and
    /// never panics, and a campaign on the cut file keeps the cut's
    /// complete lines byte for byte and leaves a log whose every line
    /// parses — an append never glues onto a fragment.
    #[test]
    fn a_cut_at_every_byte_offset_loads_the_complete_line_prefix() {
        let path = temp_path("torn");
        let runs = abp(0..2);
        campaign(&path, &runs[..1]);
        let (full, _) = campaign(&path, &runs);
        let bytes = std::fs::read(&path).unwrap();
        let keys = log_keys(&bytes);
        assert_eq!(keys.len(), 2);
        let ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        for cut in 0..=bytes.len() {
            let complete = ends.iter().filter(|&&end| end < cut).count();
            let loaded = CampaignCache::parse_log(&bytes[..cut]).unwrap().unwrap();
            let got: Vec<u64> = loaded.entries.keys().copied().collect();
            let mut want = keys[..complete].to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "cut at {cut}");
            for key in &want {
                assert_eq!(loaded.entries[key], full.entries[key], "cut at {cut}");
            }
        }
        for cut in 0..=bytes.len() {
            // A fresh file each time: overwriting one in place costs far
            // more on some file systems than creating it.
            std::fs::remove_file(&path).ok();
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (cache, fresh) = campaign(&path, &runs);
            let complete = ends.iter().filter(|&&end| end < cut).count();
            assert_eq!(fresh, 2 - complete, "cut at {cut}");
            let after = std::fs::read(&path).unwrap();
            let prefix = complete.checked_sub(1).map_or(0, |last| ends[last] + 1);
            assert!(after.starts_with(&bytes[..prefix]), "cut at {cut}");
            assert_eq!(log_keys(&after).len(), 2, "cut at {cut}");
            let reloaded = CampaignCache::load(&path).unwrap();
            assert_eq!(reloaded, cache, "cut at {cut}");
            assert_eq!(reloaded, full, "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_cache_reads_concurrently_and_shares_inserts() {
        let (runs, cache) = populated();
        let shared = SharedCache::from_cache(cache);
        let clone = shared.clone();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| runs.iter().all(|spec| shared.get(spec).is_some())))
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
        let run = CampaignRunner::run_one(&extra[0]).unwrap();
        let stored = StoredRun::encode(&run);
        let bytes = shared.bytes() + stored.bytes();
        let held = shared.insert_all([(&extra[0], stored)], None).unwrap();
        assert_eq!(clone.get(&extra[0]), Some(run));
        assert_eq!(held, (runs.len() + 1, bytes));
        assert_eq!((clone.len(), clone.bytes()), held);
    }
}
