//! Tiered visited-state sets — the dedup store behind both explorers.
//!
//! The exploration engines deduplicate on 64-bit state keys (see
//! [`crate::codec`]). This module puts them behind a [`VisitedSet`] trait
//! with two interchangeable tiers, both exact:
//!
//! - [`RamVisited`] — 64 FNV shards in RAM. Fastest, bounded by memory.
//! - [`TieredVisited`] — an exact tier that **spills to disk** when a byte
//!   budget is exceeded: a RAM delta absorbs inserts and, when it outgrows
//!   the budget, is written as one new sorted on-disk run in O(delta) I/O.
//!   The set holds up to `compact_runs` such runs (each with its own
//!   in-RAM fence pointers); once the threshold is reached, the runs
//!   are merge-compacted into one by a bounded-memory k-way streaming
//!   merge on a background thread — LSM-style, never by reading a whole
//!   run back into RAM. Reports stay byte-identical to [`RamVisited`] —
//!   membership answers are exact — while resident memory stays under the
//!   budget.
//!
//! **Determinism contract.** Both engines call [`VisitedSet::insert`] /
//! [`VisitedSet::insert_new`] in a deterministic order (sequential BFS
//! order, or the parallel engine's shard-major per-level merge) and only
//! ever *read* the set concurrently while it is frozen during a level
//! ([`VisitedSet::contains`], [`VisitedSet::contains_resident`] and
//! [`VisitedSet::probe_spilled_sorted`] take `&self`; the trait requires
//! `Sync`). The tiers therefore produce identical admit/reject decisions
//! — and hence byte-identical reports — at any thread count and for any
//! tier choice. Every quantity the tiers report (spill count, run count,
//! disk bytes, resident/peak estimates, compaction I/O) is computed from
//! deterministic schedule-time accounting, never from the wall-clock state
//! of the background compactor, so telemetry and CLI summaries are also
//! byte-identical across thread counts.
//!
//! Tier selection is data ([`VisitedSpec`]), parsed from the CLI's
//! `--visited <ram|tiered>` / `--memory-budget <bytes>` /
//! `--compact-runs <n>` flags and owned by the
//! [`Explorer`](crate::Explorer) facade.

use crate::codec::{block_contains_key, key_at};
use nonfifo_ioa::fingerprint::{mix64, Fnv64};
use std::collections::HashSet;
use std::fs::File;
use std::hash::BuildHasherDefault;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Visited-state set on the fixed-key FNV-64 hasher: state keys are already
/// well-mixed 64-bit fingerprints, so the cheap hash is safe and saves the
/// SipHash pass `std`'s default would pay per probe.
pub(crate) type FnvSet = HashSet<u64, BuildHasherDefault<Fnv64>>;

/// Visited-set shards in the RAM tiers. Sharding keeps the per-level merge
/// cache-friendly and the occupancy telemetry meaningful; lookups during a
/// level are lock-free because the set is frozen.
pub(crate) const SHARDS: usize = 64;

/// Estimated resident bytes per live key in a RAM shard: the 8-byte key
/// plus hash-table control and load-factor overhead. An estimate, not an
/// allocator measurement — budgets and the `explore.visited_bytes` gauge
/// are denominated in it, consistently across tiers.
const RAM_ENTRY_BYTES: usize = 12;

/// Keys per on-disk block: 512 × 8 B = one 4 KiB page per positioned read,
/// with one in-RAM fence pointer (the block's first key) each.
const BLOCK_KEYS: usize = 512;

/// The shard a key lands in — derived from the *mixed* digest, not the raw
/// key. State keys are FNV chains, which are nearly linear over inputs
/// sharing a prefix (see [`mix64`]); masking the raw low bits inherits that
/// structure, so the index goes through the SplitMix64 finalizer first and
/// masks from full-avalanche bits.
pub(crate) fn shard_of(key: u64) -> usize {
    (mix64(key) & (SHARDS as u64 - 1)) as usize
}

/// A deduplication store for 64-bit state keys.
///
/// Implementations must be deterministic: the same insert sequence yields
/// the same admit/reject answers, whatever the wall clock, thread count, or
/// filesystem says. The read-only probes (`contains`, `contains_resident`,
/// `probe_spilled_sorted`) are safe to call from many threads while no
/// insert is in flight (the engines freeze the set during a level);
/// `insert` / `insert_new` require exclusive access and are the only
/// mutators.
pub trait VisitedSet: Send + Sync + std::fmt::Debug {
    /// True if `key` has been admitted.
    fn contains(&self, key: u64) -> bool;

    /// Membership against the *resident* structures only — for
    /// [`TieredVisited`] the RAM delta, skipping the spilled runs. The
    /// parallel engine probes this in the expansion hot loop and settles
    /// spilled membership once per level through
    /// [`probe_spilled_sorted`](VisitedSet::probe_spilled_sorted), turning
    /// per-key positioned reads into batched sequential ones. Tiers without
    /// spilled state answer exactly like [`contains`](VisitedSet::contains).
    fn contains_resident(&self, key: u64) -> bool {
        self.contains(key)
    }

    /// Batched membership probe against the spilled (non-resident) state:
    /// `keys` is sorted ascending and deduplicated; `hits[i]` is set to
    /// true when `keys[i]` is present in a spilled run. Entries already
    /// true are skipped. Ascending order lets an implementation answer a
    /// whole block of keys with one sequential read. Tiers without spilled
    /// state leave `hits` untouched (the default).
    fn probe_spilled_sorted(&self, keys: &[u64], hits: &mut [bool]) {
        let _ = (keys, hits);
    }

    /// Records `key`; true if it was new (the state should be expanded),
    /// false if it deduplicates against an earlier insert.
    fn insert(&mut self, key: u64) -> bool;

    /// Records `key` that the caller has already proven absent (via
    /// [`contains_resident`](VisitedSet::contains_resident) plus
    /// [`probe_spilled_sorted`](VisitedSet::probe_spilled_sorted)), so a
    /// tier may skip the membership probe [`insert`](VisitedSet::insert)
    /// pays. Returns what [`insert`](VisitedSet::insert) would: true, for a
    /// key that really was absent.
    fn insert_new(&mut self, key: u64) -> bool {
        self.insert(key)
    }

    /// Keys admitted so far.
    fn len(&self) -> usize;

    /// True when nothing has been admitted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears logical content while retaining allocations — arenas call
    /// this between runs to keep the steady state off the allocator.
    fn clear(&mut self);

    /// Estimated resident bytes right now (RAM structures only; spilled
    /// runs are accounted by [`VisitedSet::disk_bytes`]).
    fn memory_bytes(&self) -> usize;

    /// High-water mark of [`VisitedSet::memory_bytes`] over the set's
    /// lifetime — what the `explore.visited_bytes` gauge reports.
    /// Disk-spilling tiers fold their transient spill and compaction
    /// buffers into this, so the mark bounds everything the tier ever holds
    /// resident, not just the steady state.
    fn peak_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Appends the resident shard occupancies (for the
    /// `explore.shard_occupancy` telemetry histogram). Tiers without a
    /// resident shard structure append nothing.
    fn shard_sizes(&self, out: &mut Vec<u64>);

    /// Times the RAM delta was written out as a new on-disk run (0 for
    /// pure-RAM tiers).
    fn spills(&self) -> u64 {
        0
    }

    /// Bytes currently resident in the on-disk runs (0 for pure-RAM tiers).
    fn disk_bytes(&self) -> u64 {
        0
    }

    /// Sorted on-disk runs currently live (0 for pure-RAM tiers). Counted
    /// logically — a compaction is accounted at the moment it is
    /// scheduled, not when the background thread happens to finish — so the
    /// number is deterministic.
    fn disk_runs(&self) -> u64 {
        0
    }

    /// Total spill I/O in bytes over the set's lifetime: run writes plus
    /// compaction reads and rewrites (0 for pure-RAM tiers). Accounted at
    /// schedule time, so the number is deterministic.
    fn compaction_bytes(&self) -> u64 {
        0
    }

    /// Paths of every spill file currently backing the set (empty for
    /// pure-RAM tiers). Exposed so crash-safety tests can pin that
    /// dropping the owner deletes every one of them.
    fn spill_paths(&self) -> Vec<PathBuf> {
        Vec::new()
    }
}

/// The exact in-RAM tier: 64 FNV-hashed shards, exactly the dedup store
/// the parallel engine always used (with the shard index now derived from
/// the mixed digest).
#[derive(Debug)]
pub struct RamVisited {
    shards: Vec<FnvSet>,
    len: usize,
}

impl RamVisited {
    /// An empty set; shard tables grow on demand and are retained across
    /// [`VisitedSet::clear`].
    pub fn new() -> Self {
        RamVisited {
            shards: (0..SHARDS).map(|_| FnvSet::default()).collect(),
            len: 0,
        }
    }
}

impl Default for RamVisited {
    fn default() -> Self {
        RamVisited::new()
    }
}

impl VisitedSet for RamVisited {
    fn contains(&self, key: u64) -> bool {
        self.shards[shard_of(key)].contains(&key)
    }

    fn insert(&mut self, key: u64) -> bool {
        let admitted = self.shards[shard_of(key)].insert(key);
        if admitted {
            self.len += 1;
        }
        admitted
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
        self.len = 0;
    }

    fn memory_bytes(&self) -> usize {
        self.len * RAM_ENTRY_BYTES
    }

    fn shard_sizes(&self, out: &mut Vec<u64>) {
        out.extend(self.shards.iter().map(|s| s.len() as u64));
    }
}

/// Process-unique sequence for spill-file names; combined with the PID so
/// concurrent explorations (and concurrent test processes) never collide.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn spill_path() -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nonfifo-visited-{}-{}.run",
        std::process::id(),
        seq
    ))
}

/// One sorted on-disk run of unique little-endian `u64` keys, probed by
/// binary search over in-RAM fence pointers (first key per 4 KiB block)
/// plus a single positioned read. The file is deleted on drop.
struct DiskRun {
    file: File,
    path: PathBuf,
    keys: u64,
    fences: Vec<u64>,
    /// Serialises seek+read probes on platforms without positioned reads.
    #[cfg(not(unix))]
    probe: std::sync::Mutex<()>,
}

impl std::fmt::Debug for DiskRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskRun")
            .field("path", &self.path)
            .field("keys", &self.keys)
            .field("blocks", &self.fences.len())
            .finish()
    }
}

impl Drop for DiskRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl DiskRun {
    /// Writes `sorted` (strictly increasing, unique) to a fresh spill file.
    fn write(sorted: &[u64]) -> std::io::Result<DiskRun> {
        let mut writer = RunWriter::new()?;
        for &key in sorted {
            writer.push(key)?;
        }
        writer.finish()
    }

    fn read_block_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            // `Read`/`Seek` are implemented for `&File`, so a shared probe
            // only needs the mutex to keep seek+read atomic.
            let _guard = self.probe.lock().expect("disk-run probe lock");
            let mut file = &self.file;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }

    /// The block index `key` can live in, or `None` when it is below the
    /// first fence (or the run is empty).
    fn candidate_block(&self, key: u64) -> Option<usize> {
        if self.keys == 0 || self.fences.first().is_some_and(|&f| key < f) {
            return None;
        }
        Some(self.fences.partition_point(|&f| f <= key) - 1)
    }

    /// Keys resident in block `block` (the last block may be partial).
    fn block_len(&self, block: usize) -> usize {
        (self.keys as usize - block * BLOCK_KEYS).min(BLOCK_KEYS)
    }

    /// Exact membership probe: fence search picks the one candidate block,
    /// a positioned read fetches it, binary search settles it.
    fn contains(&self, key: u64) -> bool {
        let Some(block) = self.candidate_block(key) else {
            return false;
        };
        let start = block * BLOCK_KEYS;
        let in_block = self.block_len(block);
        let mut buf = [0u8; BLOCK_KEYS * 8];
        let bytes = &mut buf[..in_block * 8];
        if self.read_block_at((start * 8) as u64, bytes).is_err() {
            // An unreadable spill file cannot silently fabricate dedup
            // hits; treating the probe as a miss keeps the search sound
            // (worst case it re-expands a state it already covered —
            // impossible for exact tiers unless the file vanished mid-run).
            return false;
        }
        block_contains_key(bytes, key)
    }

    /// Batched probe: `keys` is sorted ascending; `hits[i]` is set when
    /// `keys[i]` is present (entries already true are skipped — the caller
    /// found them in an earlier run). Because the keys are sorted, each
    /// block of the run is read at most once per batch, with one
    /// sequential positioned read instead of one per key.
    fn probe_sorted(&self, keys: &[u64], hits: &mut [bool]) {
        if self.keys == 0 {
            return;
        }
        let mut buf = [0u8; BLOCK_KEYS * 8];
        let mut loaded: Option<(usize, usize)> = None;
        for (i, &key) in keys.iter().enumerate() {
            if hits[i] {
                continue;
            }
            let Some(block) = self.candidate_block(key) else {
                continue;
            };
            let in_block = match loaded {
                Some((b, n)) if b == block => n,
                _ => {
                    let start = block * BLOCK_KEYS;
                    let n = self.block_len(block);
                    if self
                        .read_block_at((start * 8) as u64, &mut buf[..n * 8])
                        .is_err()
                    {
                        // Same soundness stance as `contains`: an
                        // unreadable block is a miss, never a hit.
                        continue;
                    }
                    loaded = Some((block, n));
                    n
                }
            };
            if block_contains_key(&buf[..in_block * 8], key) {
                hits[i] = true;
            }
        }
    }
}

/// Streaming writer for a [`DiskRun`]: keys are pushed in ascending order
/// and buffered through a [`BufWriter`], so building a run never needs the
/// whole key set in RAM — the spill path hands it a sorted slice, the
/// compactor a k-way merge stream.
struct RunWriter {
    writer: BufWriter<File>,
    path: PathBuf,
    fences: Vec<u64>,
    keys: u64,
}

impl RunWriter {
    fn new() -> std::io::Result<RunWriter> {
        let path = spill_path();
        // `File::create` would hand back a write-only descriptor; the run
        // is probed (read) for the rest of its life, so open read+write.
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(RunWriter {
            writer: BufWriter::new(file),
            path,
            fences: Vec::new(),
            keys: 0,
        })
    }

    fn push(&mut self, key: u64) -> std::io::Result<()> {
        if (self.keys as usize).is_multiple_of(BLOCK_KEYS) {
            self.fences.push(key);
        }
        self.keys += 1;
        self.writer.write_all(&key.to_le_bytes())
    }

    fn finish(mut self) -> std::io::Result<DiskRun> {
        self.writer.flush()?;
        let file = self
            .writer
            .into_inner()
            .map_err(std::io::IntoInnerError::into_error)?;
        Ok(DiskRun {
            file,
            path: self.path,
            keys: self.keys,
            fences: self.fences,
            #[cfg(not(unix))]
            probe: std::sync::Mutex::new(()),
        })
    }
}

/// Bounded-memory cursor over one source run of a streaming compaction:
/// reads the run block by block through positioned reads, holding exactly
/// one 4 KiB block resident.
struct RunCursor {
    run: Arc<DiskRun>,
    buf: Box<[u8; BLOCK_KEYS * 8]>,
    /// Next key index of the run to load into the buffer.
    next: u64,
    /// Keys resident in the buffer.
    in_buf: usize,
    /// Keys of the buffer already consumed.
    pos: usize,
}

impl RunCursor {
    fn new(run: Arc<DiskRun>) -> RunCursor {
        RunCursor {
            run,
            buf: Box::new([0u8; BLOCK_KEYS * 8]),
            next: 0,
            in_buf: 0,
            pos: 0,
        }
    }

    fn refill(&mut self) -> std::io::Result<()> {
        self.pos = 0;
        self.in_buf = 0;
        if self.next >= self.run.keys {
            return Ok(());
        }
        let n = ((self.run.keys - self.next) as usize).min(BLOCK_KEYS);
        self.run
            .read_block_at(self.next * 8, &mut self.buf[..n * 8])?;
        self.in_buf = n;
        self.next += n as u64;
        Ok(())
    }

    fn peek(&self) -> Option<u64> {
        (self.pos < self.in_buf).then(|| key_at(&self.buf[..], self.pos))
    }

    fn advance(&mut self) -> std::io::Result<()> {
        self.pos += 1;
        if self.pos >= self.in_buf {
            self.refill()?;
        }
        Ok(())
    }
}

/// Merge-compacts `sources` (sorted runs over pairwise-disjoint key sets)
/// into one fresh sorted run with a bounded-memory k-way streaming merge:
/// one block buffer per source plus the output's write buffer, never a
/// whole run in RAM. Runs on the compaction thread.
fn compact_runs_streaming(sources: &[Arc<DiskRun>]) -> std::io::Result<DiskRun> {
    let mut writer = RunWriter::new()?;
    let mut cursors: Vec<RunCursor> = sources
        .iter()
        .map(|r| RunCursor::new(Arc::clone(r)))
        .collect();
    for cursor in &mut cursors {
        cursor.refill()?;
    }
    loop {
        // k is the compaction threshold (single digits), so a linear scan
        // over the heads beats maintaining a heap.
        let mut best: Option<(u64, usize)> = None;
        for (i, cursor) in cursors.iter().enumerate() {
            if let Some(key) = cursor.peek() {
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, i));
                }
            }
        }
        let Some((key, i)) = best else {
            return writer.finish();
        };
        writer.push(key)?;
        cursors[i].advance()?;
    }
}

/// An in-flight background compaction: the first `covers` entries of the
/// owning set's run list are being merged into one fresh run.
#[derive(Debug)]
struct CompactionJob {
    covers: usize,
    handle: std::thread::JoinHandle<std::io::Result<DiskRun>>,
}

/// Default run-count threshold that triggers a compaction when
/// `--compact-runs` is not given: spills accumulate as independent sorted
/// runs until this many are live, then the background compactor folds them
/// into one.
pub const DEFAULT_COMPACT_RUNS: usize = 8;

/// The exact disk-spilling tier: a [`RamVisited`] delta under a byte
/// budget, written out as a new sorted on-disk run (O(delta) I/O) whenever
/// the resident estimate crosses the budget. Up to `compact_runs` runs
/// accumulate; then a bounded-memory streaming merge on a background
/// thread compacts them into one. Membership is exact — delta OR any run
/// (the key sets are pairwise disjoint by construction) — so reports are
/// byte-identical to the in-RAM tier at any budget and any threshold.
#[derive(Debug)]
pub struct TieredVisited {
    delta: RamVisited,
    runs: Vec<Arc<DiskRun>>,
    budget: usize,
    compact_runs: usize,
    spills: u64,
    peak: usize,
    /// Spill scratch, retained across compactions and runs.
    merge: Vec<u64>,
    pending: Option<CompactionJob>,
    /// Total spill I/O accounted at schedule time (see
    /// [`VisitedSet::compaction_bytes`]).
    compaction_bytes: u64,
    /// Resident bytes of the in-flight compactor's block buffers, charged
    /// from one schedule point to the next (deterministic, unlike the
    /// thread's actual lifetime).
    compactor_bytes: usize,
}

impl TieredVisited {
    /// A tiered set that spills once its resident estimate exceeds
    /// `memory_budget` bytes, compacting at [`DEFAULT_COMPACT_RUNS`] runs.
    /// Any budget is legal — a tiny one just spills often; correctness
    /// never depends on it.
    pub fn new(memory_budget: usize) -> Self {
        TieredVisited::with_compact_runs(memory_budget, DEFAULT_COMPACT_RUNS)
    }

    /// A tiered set compacting once `compact_runs` on-disk runs are live
    /// (clamped up to 1; a threshold of 1 compacts as soon as a second run
    /// exists, reproducing the old single-run behaviour at streaming cost).
    pub fn with_compact_runs(memory_budget: usize, compact_runs: usize) -> Self {
        TieredVisited {
            delta: RamVisited::new(),
            runs: Vec::new(),
            budget: memory_budget,
            compact_runs: compact_runs.max(1),
            spills: 0,
            peak: 0,
            merge: Vec::new(),
            pending: None,
            compaction_bytes: 0,
            compactor_bytes: 0,
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The configured compaction threshold.
    pub fn compact_runs(&self) -> usize {
        self.compact_runs
    }

    /// Deterministic estimate of the fence-pointer bytes: one 8-byte fence
    /// per 4 KiB block *of the total spilled key count*, as if the
    /// compactor had already folded every run into one. The physical fence
    /// count depends on when the background thread finishes (partial last
    /// blocks per run), so the estimate — like [`RAM_ENTRY_BYTES`] — is
    /// the consistent currency budgets are denominated in.
    fn fence_bytes(&self) -> usize {
        (self.disk_keys() as usize).div_ceil(BLOCK_KEYS) * 8
    }

    fn disk_keys(&self) -> u64 {
        self.runs.iter().map(|r| r.keys).sum()
    }

    /// Run count with an in-flight compaction accounted as already applied
    /// — the deterministic number [`VisitedSet::disk_runs`] reports.
    fn logical_runs(&self) -> usize {
        match &self.pending {
            Some(job) => self.runs.len() + 1 - job.covers,
            None => self.runs.len(),
        }
    }

    /// Folds a finished background compaction into the run list. With
    /// `block`, waits for an unfinished one (schedule points and teardown
    /// do; insert-time adoption is opportunistic). Adoption only changes
    /// the physical run layout — every logical quantity (membership, key
    /// counts, accounting) is invariant under it, which is what keeps
    /// reports independent of compactor timing.
    fn adopt_compaction(&mut self, block: bool) {
        let finished = match &self.pending {
            Some(job) => block || job.handle.is_finished(),
            None => return,
        };
        if !finished {
            return;
        }
        let job = self.pending.take().expect("pending compaction checked");
        let compacted = job
            .handle
            .join()
            .expect("visited compaction thread panicked")
            .expect("compact the visited spill runs");
        self.runs
            .splice(0..job.covers, std::iter::once(Arc::new(compacted)));
    }

    /// Writes the delta out as one new sorted run in O(delta) I/O, then
    /// schedules a background compaction if the run count reached the
    /// threshold. The delta is drained shard by shard into the sort
    /// scratch, so the transient peak tracks one delta's worth of keys —
    /// never the full spilled history (the old scheme's `read_all_into`
    /// readback is gone).
    fn spill(&mut self) {
        self.merge.clear();
        let fences = self.fence_bytes();
        for i in 0..SHARDS {
            let shard = &mut self.delta.shards[i];
            let drained = shard.len();
            self.merge.extend(shard.iter().copied());
            shard.clear();
            self.delta.len -= drained;
            let transient =
                self.delta.memory_bytes() + self.merge.len() * 8 + fences + self.compactor_bytes;
            self.peak = self.peak.max(transient);
        }
        self.merge.sort_unstable();
        let run = DiskRun::write(&self.merge).expect("write the visited spill run");
        self.compaction_bytes += run.keys * 8;
        self.runs.push(Arc::new(run));
        self.spills += 1;
        if self.logical_runs() >= self.compact_runs.max(2) {
            self.schedule_compaction();
        }
    }

    /// Starts a background streaming merge of every live run. At most one
    /// compaction is in flight: an unfinished predecessor is joined first,
    /// so schedule points are deterministic synchronisation points and the
    /// accounting below never races the thread.
    fn schedule_compaction(&mut self) {
        self.adopt_compaction(true);
        if self.runs.len() < 2 {
            return;
        }
        let sources = self.runs.clone();
        let covers = sources.len();
        // The merge reads and rewrites every spilled byte exactly once.
        let bytes = self.disk_keys() * 8;
        self.compaction_bytes += 2 * bytes;
        // One block buffer per source, plus the output's write buffer.
        self.compactor_bytes = (covers + 1) * BLOCK_KEYS * 8;
        self.peak = self.peak.max(self.memory_bytes() + self.compactor_bytes);
        let handle = std::thread::Builder::new()
            .name("nonfifo-visited-compact".into())
            .spawn(move || compact_runs_streaming(&sources))
            .expect("spawn the visited compaction thread");
        self.pending = Some(CompactionJob { covers, handle });
    }

    fn join_pending(&mut self) {
        if let Some(job) = self.pending.take() {
            // The compacted output (if any) is dropped here, deleting its
            // file; the sources are deleted when their last Arc goes.
            let _ = job.handle.join();
        }
    }
}

impl Drop for TieredVisited {
    fn drop(&mut self) {
        self.join_pending();
    }
}

impl VisitedSet for TieredVisited {
    fn contains(&self, key: u64) -> bool {
        self.delta.contains(key) || self.runs.iter().any(|r| r.contains(key))
    }

    fn contains_resident(&self, key: u64) -> bool {
        self.delta.contains(key)
    }

    fn probe_spilled_sorted(&self, keys: &[u64], hits: &mut [bool]) {
        for run in &self.runs {
            run.probe_sorted(keys, hits);
        }
    }

    fn insert(&mut self, key: u64) -> bool {
        if self.contains(key) {
            return false;
        }
        self.insert_new(key)
    }

    fn insert_new(&mut self, key: u64) -> bool {
        self.adopt_compaction(false);
        self.delta.insert(key);
        let resident = self.memory_bytes();
        self.peak = self.peak.max(resident);
        if resident > self.budget && !self.delta.is_empty() {
            self.spill();
        }
        true
    }

    fn len(&self) -> usize {
        self.delta.len() + self.disk_keys() as usize
    }

    fn clear(&mut self) {
        self.join_pending();
        self.delta.clear();
        self.runs.clear();
        self.spills = 0;
        self.peak = 0;
        self.compaction_bytes = 0;
        self.compactor_bytes = 0;
    }

    fn memory_bytes(&self) -> usize {
        self.delta.memory_bytes() + self.fence_bytes()
    }

    fn peak_memory_bytes(&self) -> usize {
        self.peak.max(self.memory_bytes())
    }

    fn shard_sizes(&self, out: &mut Vec<u64>) {
        self.delta.shard_sizes(out);
    }

    fn spills(&self) -> u64 {
        self.spills
    }

    fn disk_bytes(&self) -> u64 {
        self.disk_keys() * 8
    }

    fn disk_runs(&self) -> u64 {
        self.logical_runs() as u64
    }

    fn compaction_bytes(&self) -> u64 {
        self.compaction_bytes
    }

    fn spill_paths(&self) -> Vec<PathBuf> {
        self.runs.iter().map(|r| r.path.clone()).collect()
    }
}

/// Tier selection as data: which [`VisitedSet`] an exploration should
/// deduplicate through. Parsed from `--visited` / `--memory-budget` /
/// `--compact-runs` and owned by the [`Explorer`](crate::Explorer) facade.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VisitedSpec {
    /// All in RAM ([`RamVisited`]) — the default.
    #[default]
    Ram,
    /// Spilling to disk past a resident-byte budget ([`TieredVisited`]).
    Tiered {
        /// Resident-byte budget before the delta spills to a new run.
        memory_budget: usize,
        /// Live-run threshold that triggers a background compaction.
        compact_runs: usize,
    },
}

/// Default byte budget when `--visited tiered` is given
/// without `--memory-budget`: 1 GiB.
pub const DEFAULT_MEMORY_BUDGET: usize = 1 << 30;

impl VisitedSpec {
    /// The disk-spilling tier with the default compaction threshold — the
    /// spelling every call site that only cares about the budget uses.
    pub fn tiered(memory_budget: usize) -> Self {
        VisitedSpec::Tiered {
            memory_budget,
            compact_runs: DEFAULT_COMPACT_RUNS,
        }
    }

    /// Constructs the tier this spec names.
    pub fn build(&self) -> Box<dyn VisitedSet> {
        match *self {
            VisitedSpec::Ram => Box::new(RamVisited::new()),
            VisitedSpec::Tiered {
                memory_budget,
                compact_runs,
            } => Box::new(TieredVisited::with_compact_runs(
                memory_budget,
                compact_runs,
            )),
        }
    }

    /// Applies a `--memory-budget` value to the spec (no-op for
    /// [`VisitedSpec::Ram`], which has no budget to bound).
    pub fn with_budget(self, memory_budget: usize) -> Self {
        match self {
            VisitedSpec::Ram => VisitedSpec::Ram,
            VisitedSpec::Tiered { compact_runs, .. } => VisitedSpec::Tiered {
                memory_budget,
                compact_runs,
            },
        }
    }

    /// Applies a `--compact-runs` value to the spec (no-op for tiers
    /// without on-disk runs).
    pub fn with_compact_runs(self, compact_runs: usize) -> Self {
        match self {
            VisitedSpec::Tiered { memory_budget, .. } => VisitedSpec::Tiered {
                memory_budget,
                compact_runs,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for VisitedSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VisitedSpec::Ram => write!(f, "ram"),
            VisitedSpec::Tiered {
                memory_budget,
                compact_runs,
            } => {
                write!(
                    f,
                    "tiered (budget {memory_budget} B, compact at {compact_runs} runs)"
                )
            }
        }
    }
}

impl std::str::FromStr for VisitedSpec {
    type Err = String;

    /// Parses `ram` or `tiered`; budgets and thresholds
    /// ride separately on [`VisitedSpec::with_budget`] and
    /// [`VisitedSpec::with_compact_runs`].
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ram" => Ok(VisitedSpec::Ram),
            "tiered" => Ok(VisitedSpec::tiered(DEFAULT_MEMORY_BUDGET)),
            other => Err(format!("unknown visited tier {other:?} (ram, tiered)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic mixed key stream with duplicates: every third key
    /// repeats an earlier one.
    fn key_stream(n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    mix64((i / 2) as u64)
                } else {
                    mix64(i as u64)
                }
            })
            .collect()
    }

    #[test]
    fn ram_and_tiered_agree_on_every_answer() {
        for compact_runs in [1, 2, 8] {
            let mut ram = RamVisited::new();
            // 1 KiB budget over ~10k keys: dozens of spill compactions.
            let mut tiered = TieredVisited::with_compact_runs(1024, compact_runs);
            for key in key_stream(10_000) {
                assert_eq!(ram.contains(key), tiered.contains(key), "pre-probe {key}");
                assert_eq!(ram.insert(key), tiered.insert(key), "insert {key}");
                assert!(tiered.contains(key), "post-probe {key}");
            }
            assert_eq!(ram.len(), tiered.len());
            assert!(tiered.spills() > 0, "the tiny budget must have spilled");
            assert!(tiered.disk_bytes() > 0);
            assert!(tiered.disk_runs() >= 1);
            assert!(
                tiered.disk_runs() <= compact_runs.max(2) as u64,
                "compaction must keep the live-run count at the threshold, \
                 got {} with compact_runs={compact_runs}",
                tiered.disk_runs()
            );
            assert!(
                tiered.memory_bytes() <= 1024 + SHARDS * RAM_ENTRY_BYTES,
                "resident estimate near the budget after compactions: {}",
                tiered.memory_bytes()
            );
            // Every admitted key answers true from the spilled runs.
            for key in key_stream(10_000) {
                assert!(tiered.contains(key));
            }
            assert!(!tiered.contains(mix64(0xdead_beef)));
        }
    }

    #[test]
    fn batched_sorted_probe_matches_per_key_probes() {
        let mut tiered = TieredVisited::with_compact_runs(512, 4);
        for key in key_stream(4_000) {
            tiered.insert(key);
        }
        assert!(tiered.disk_runs() >= 1);
        // Present, absent, and below-first-fence keys interleaved; sorted
        // unique as the batched API requires.
        let mut probes: Vec<u64> = key_stream(4_000);
        probes.extend((0..2_000u64).map(|i| mix64(i ^ 0xabcd_1234)));
        probes.push(0);
        probes.sort_unstable();
        probes.dedup();
        let mut hits = vec![false; probes.len()];
        tiered.probe_spilled_sorted(&probes, &mut hits);
        for (i, &key) in probes.iter().enumerate() {
            let expected = tiered.contains(key) && !tiered.contains_resident(key);
            assert_eq!(
                hits[i], expected,
                "batched probe diverges from the positioned probe for {key}"
            );
        }
    }

    #[test]
    fn accounting_is_independent_of_compactor_timing() {
        // Two identical insert sequences, one of which stalls between
        // inserts so the background compactor finishes at different
        // moments: every reported number must still match exactly.
        let run = |stall: bool| {
            let mut tiered = TieredVisited::with_compact_runs(768, 2);
            for (i, key) in key_stream(6_000).into_iter().enumerate() {
                tiered.insert(key);
                if stall && i % 1024 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            (
                tiered.len(),
                tiered.spills(),
                tiered.disk_runs(),
                tiered.disk_bytes(),
                tiered.compaction_bytes(),
                tiered.peak_memory_bytes(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn spill_transient_stays_within_twice_the_budget() {
        // The budget-violation regression this PR fixes: the old scheme
        // read the entire prior run back into RAM on every spill, so the
        // transient was unbounded by the budget. The streaming scheme's
        // peak — delta plus sort scratch plus fences plus the compactor's
        // block buffers, all folded into peak_memory_bytes — must stay
        // under 2× budget however many spills and compactions a run forces.
        for budget in [64 * 1024, 256 * 1024] {
            let mut tiered = TieredVisited::with_compact_runs(budget, 4);
            // ~12 B/key resident: enough keys for dozens of spills at the
            // smaller budget and several compaction cycles.
            let keys = 40 * budget / RAM_ENTRY_BYTES;
            for key in key_stream(keys) {
                tiered.insert(key);
            }
            assert!(
                tiered.spills() >= 4,
                "budget {budget}: must spill repeatedly"
            );
            assert!(
                tiered.peak_memory_bytes() < 2 * budget,
                "budget {budget}: transient peak {} breaches 2x the budget",
                tiered.peak_memory_bytes()
            );
        }
    }

    #[test]
    fn compaction_io_is_linear_not_quadratic() {
        // With the rewrite-all scheme, every spill rewrote the whole
        // history: total I/O grew quadratically in the spill count. The
        // multi-run scheme writes each spill once and compacts at the
        // threshold, so total I/O stays within a small multiple of the
        // data volume.
        let mut tiered = TieredVisited::with_compact_runs(1024, 8);
        for key in key_stream(30_000) {
            tiered.insert(key);
        }
        assert!(tiered.spills() > 50, "got {} spills", tiered.spills());
        let data = tiered.disk_bytes();
        let rewrite_all_floor = {
            // What the old scheme would have paid: each spill rewrites all
            // keys spilled so far — at s spills of d bytes each, d·s²/2 —
            // plus reads the prior run back in, roughly doubling it.
            let per_spill = data / tiered.spills();
            per_spill * tiered.spills() * tiered.spills()
        };
        assert!(
            tiered.compaction_bytes() * 5 <= rewrite_all_floor,
            "total spill I/O {} is not >=5x below the rewrite-all floor {}",
            tiered.compaction_bytes(),
            rewrite_all_floor
        );
    }

    #[test]
    fn tiered_clear_resets_to_an_empty_set() {
        let mut tiered = TieredVisited::new(256);
        for key in key_stream(2_000) {
            tiered.insert(key);
        }
        assert!(tiered.spills() > 0);
        tiered.clear();
        assert_eq!(tiered.len(), 0);
        assert_eq!(tiered.spills(), 0);
        assert_eq!(tiered.disk_bytes(), 0);
        assert_eq!(tiered.disk_runs(), 0);
        assert_eq!(tiered.compaction_bytes(), 0);
        assert!(!tiered.contains(mix64(1)));
        // Reusable after the reset, exactly like a fresh set.
        assert!(tiered.insert(42));
        assert!(!tiered.insert(42));
    }

    #[test]
    fn spill_files_are_deleted_on_drop() {
        let paths;
        {
            let mut tiered = TieredVisited::with_compact_runs(64, 8);
            for key in key_stream(500) {
                tiered.insert(key);
            }
            paths = tiered.spill_paths();
            assert!(paths.len() > 1, "multiple runs should be live");
            for path in &paths {
                assert!(path.exists());
            }
        }
        for path in &paths {
            assert!(
                !path.exists(),
                "spill file {path:?} must not outlive the set"
            );
        }
    }

    #[test]
    fn disk_run_block_boundaries_are_exact() {
        // Key counts straddling block boundaries: first/last key of each
        // block, plus absent neighbours of every present key.
        for n in [BLOCK_KEYS - 1, BLOCK_KEYS, BLOCK_KEYS + 1, 3 * BLOCK_KEYS] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            let run = DiskRun::write(&keys).unwrap();
            for &k in &keys {
                assert!(run.contains(k), "{n} keys: present {k}");
                assert!(!run.contains(k + 1), "{n} keys: absent {}", k + 1);
            }
            assert!(!run.contains(0), "{n} keys: below the first fence");
            // The batched probe agrees with the positioned one across the
            // same boundaries.
            let mut probes: Vec<u64> = keys.iter().flat_map(|&k| [k, k + 1]).collect();
            probes.insert(0, 0);
            probes.dedup();
            let mut hits = vec![false; probes.len()];
            run.probe_sorted(&probes, &mut hits);
            for (i, &p) in probes.iter().enumerate() {
                assert_eq!(hits[i], run.contains(p), "{n} keys: probe {p}");
            }
        }
    }

    #[test]
    fn streaming_compaction_merges_disjoint_runs_exactly() {
        // Three runs of disjoint keys straddling block boundaries; the
        // streaming merge must produce exactly their sorted union.
        let a: Vec<u64> = (0..700u64).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..700u64).map(|i| i * 3 + 1).collect();
        let c: Vec<u64> = (0..100u64).map(|i| i * 3 + 2).collect();
        let runs = vec![
            Arc::new(DiskRun::write(&a).unwrap()),
            Arc::new(DiskRun::write(&b).unwrap()),
            Arc::new(DiskRun::write(&c).unwrap()),
        ];
        let merged = compact_runs_streaming(&runs).unwrap();
        assert_eq!(merged.keys as usize, a.len() + b.len() + c.len());
        for &k in a.iter().chain(&b).chain(&c) {
            assert!(merged.contains(k), "merged run lost {k}");
        }
        assert!(!merged.contains(700 * 3 + 5));
    }

    #[test]
    fn shard_index_comes_from_the_mixed_digest() {
        // Raw FNV state keys share high-entropy low bits only after
        // mixing; the regression here is structural: consecutive FNV
        // chains must not all land in a handful of shards.
        let mut occupied = [false; SHARDS];
        for i in 0..4096u64 {
            // FNV-like near-linear keys: a fixed prefix times the prime
            // plus a small delta — the adversarial shape for raw masking.
            let key = 0xcbf2_9ce4_8422_2325u64
                .wrapping_mul(0x0000_0100_0000_01b3)
                .wrapping_add(i);
            occupied[shard_of(key)] = true;
        }
        assert!(
            occupied.iter().filter(|&&b| b).count() == SHARDS,
            "mixed shard index must reach every shard"
        );
    }

    #[test]
    fn spec_parses_builds_and_displays() {
        assert_eq!("ram".parse::<VisitedSpec>().unwrap(), VisitedSpec::Ram);
        assert!(matches!(
            "tiered".parse::<VisitedSpec>().unwrap(),
            VisitedSpec::Tiered {
                compact_runs: DEFAULT_COMPACT_RUNS,
                ..
            }
        ));
        assert!("mmap".parse::<VisitedSpec>().is_err());
        assert!("probabilistic".parse::<VisitedSpec>().is_err());
        let spec = "tiered"
            .parse::<VisitedSpec>()
            .unwrap()
            .with_budget(4096)
            .with_compact_runs(3);
        assert_eq!(
            spec,
            VisitedSpec::Tiered {
                memory_budget: 4096,
                compact_runs: 3
            }
        );
        // `--compact-runs` has no run list to bound on the RAM tier.
        assert_eq!(VisitedSpec::Ram.with_compact_runs(5), VisitedSpec::Ram,);
        let mut set = spec.build();
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert_eq!(VisitedSpec::Ram.to_string(), "ram");
        assert_eq!(
            VisitedSpec::tiered(64).to_string(),
            format!("tiered (budget 64 B, compact at {DEFAULT_COMPACT_RUNS} runs)")
        );
    }
}
