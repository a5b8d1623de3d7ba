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
//!   Each run keeps its own in-RAM fence pointers. When a spill brings the
//!   live runs to a fixed fan-in of 8, the same spill merge-compacts them
//!   into one with a bounded-memory k-way streaming merge — LSM-style,
//!   never by reading a whole run back into RAM, and in the foreground,
//!   so the merge's buffers share the budget with nothing else. Reports
//!   stay byte-identical to [`RamVisited`] — membership answers are exact —
//!   while resident memory stays under the budget.
//!
//! **Determinism contract.** Both engines insert in a deterministic order
//! and only read the set while it is frozen during a level (the probes
//! take `&self`; the trait requires `Sync`), so reports are identical at
//! any thread count and for either tier, and so is every quantity a tier
//! reports at any thread count.
//!
//! Tier selection is data ([`VisitedSpec`]), parsed from the CLI's
//! `--visited <ram|tiered>` / `--memory-budget <bytes>` flags and owned by
//! the [`Explorer`](crate::Explorer) facade.

use crate::spill::SpillFile;
use nonfifo_ioa::fingerprint::{mix64, Fnv64};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::path::PathBuf;

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

/// Reads the `i`-th key of a little-endian-packed sorted key block, the
/// on-disk unit of a spill run.
fn key_at(block: &[u8], i: usize) -> u64 {
    let at = i * 8;
    u64::from_le_bytes(block[at..at + 8].try_into().expect("block layout"))
}

/// Binary-searches a little-endian-packed sorted key block for `key`: the
/// positioned probe's search, which reads one block for one key.
/// `block.len()` must be a multiple of 8.
fn block_contains_key(block: &[u8], key: u64) -> bool {
    let mut lo = 0usize;
    let mut hi = block.len() / 8;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match key_at(block, mid).cmp(&key) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    false
}

/// Unpacks a little-endian-packed sorted key block (at most
/// [`BLOCK_KEYS`] keys) into `keys`: the batched probe searches a block
/// for many keys at once, and [`slice::binary_search`] over the unpacked
/// keys took a third of the time of [`block_contains_key`] per key there.
fn unpack_block<'a>(block: &[u8], keys: &'a mut [u64; BLOCK_KEYS]) -> &'a [u64] {
    let n = block.len() / 8;
    for (i, key) in keys[..n].iter_mut().enumerate() {
        *key = key_at(block, i);
    }
    &keys[..n]
}

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
    /// state leave `hits` untouched. One batch of
    /// [`probe_spilled_batches`](VisitedSet::probe_spilled_batches).
    fn probe_spilled_sorted(&self, keys: &[u64], hits: &mut [bool]) {
        self.probe_spilled_batches(&mut [(keys, hits)]);
    }

    /// [`probe_spilled_sorted`](VisitedSet::probe_spilled_sorted) for many
    /// `(keys, hits)` batches at once, each sorted on its own: the parallel
    /// engine's merge hands over one per visited shard, whose key ranges
    /// interleave, and an implementation reads each spilled block at most
    /// once for all of them. Tiers without spilled state leave every
    /// `hits` untouched (the default).
    fn probe_spilled_batches(&self, batches: &mut [(&[u64], &mut [bool])]) {
        let _ = batches;
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

    /// Sorted on-disk runs currently live (0 for pure-RAM tiers).
    fn disk_runs(&self) -> u64 {
        0
    }

    /// Total spill I/O in bytes over the set's lifetime: run writes plus
    /// compaction reads and rewrites (0 for pure-RAM tiers).
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

/// One sorted on-disk run of unique little-endian `u64` keys, probed by
/// binary search over in-RAM fence pointers (first key per 4 KiB block)
/// plus a single positioned read. The file is deleted on drop.
#[derive(Debug)]
struct DiskRun {
    file: SpillFile,
    keys: u64,
    fences: Vec<u64>,
}

impl DiskRun {
    /// Writes `sorted` (strictly increasing, unique) to a fresh spill file
    /// through a `buffer_bytes` write buffer.
    fn write(sorted: &[u64], buffer_bytes: usize) -> std::io::Result<DiskRun> {
        let mut writer = RunWriter::new(buffer_bytes)?;
        for &key in sorted {
            writer.push(key)?;
        }
        writer.finish()
    }

    fn read_block_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.file.read_at(offset, buf)
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

    /// Reads block `block` into `buf` with one positioned read, and
    /// returns its bytes: none when the read fails. An unreadable spill
    /// file cannot silently fabricate dedup hits; treating the block as
    /// empty makes its probes misses, which keeps the search sound (worst
    /// case it re-expands a state it already covered — impossible for
    /// exact tiers unless the file vanished mid-run).
    fn read_block<'a>(&self, block: usize, buf: &'a mut [u8; BLOCK_KEYS * 8]) -> &'a [u8] {
        let bytes = &mut buf[..self.block_len(block) * 8];
        match self.read_block_at((block * BLOCK_KEYS * 8) as u64, bytes) {
            Ok(()) => bytes,
            Err(_) => &[],
        }
    }

    /// Exact membership probe: fence search picks the one candidate block,
    /// a positioned read fetches it, binary search settles it.
    fn contains(&self, key: u64) -> bool {
        let Some(block) = self.candidate_block(key) else {
            return false;
        };
        block_contains_key(self.read_block(block, &mut [0; BLOCK_KEYS * 8]), key)
    }

    /// Batched probe: in each `(keys, hits)` batch the keys ascend, and
    /// `hits[i]` is set when `keys[i]` is present (entries already true
    /// are skipped — the caller found them in an earlier run). The run is
    /// walked once in ascending block order with a cursor per batch, so
    /// each block is read at most once for every [`PROBE_GROUP`] batches,
    /// with one sequential positioned read instead of one per key.
    fn probe_batches(&self, batches: &mut [(&[u64], &mut [bool])]) {
        if self.keys == 0 {
            return;
        }
        let mut buf = [0u8; BLOCK_KEYS * 8];
        let mut keys_buf = [0u64; BLOCK_KEYS];
        for group in batches.chunks_mut(PROBE_GROUP) {
            let mut next = [0usize; PROBE_GROUP];
            // The least key no batch has passed picks the next block.
            while let Some(&least) = group
                .iter()
                .zip(&next)
                .filter_map(|((keys, _), &i)| keys.get(i))
                .min()
            {
                // Keys below `end` live in `block`, or nowhere when they
                // fall below the first fence.
                let block = self.candidate_block(least);
                let end = match block {
                    Some(b) => self.fences.get(b + 1).copied(),
                    None => self.fences.first().copied(),
                };
                let mut loaded = None;
                for ((keys, hits), i) in group.iter_mut().zip(&mut next) {
                    while let Some(&key) = keys.get(*i) {
                        if end.is_some_and(|end| key >= end) {
                            break;
                        }
                        if let (Some(b), false) = (block, hits[*i]) {
                            let n = *loaded.get_or_insert_with(|| {
                                unpack_block(self.read_block(b, &mut buf), &mut keys_buf).len()
                            });
                            hits[*i] = keys_buf[..n].binary_search(&key).is_ok();
                        }
                        *i += 1;
                    }
                }
            }
        }
    }
}

/// Streaming writer for a [`DiskRun`]: keys are pushed in ascending order
/// and appended to the file through a write buffer of a caller-chosen
/// size (a multiple of 8 bytes), so building a run never needs the whole
/// key set in RAM — the spill path hands it a sorted slice, the merge a
/// k-way stream.
struct RunWriter {
    file: SpillFile,
    buf: Vec<u8>,
    fences: Vec<u64>,
    keys: u64,
}

impl RunWriter {
    fn new(buffer_bytes: usize) -> std::io::Result<RunWriter> {
        Ok(RunWriter {
            file: SpillFile::create("visited")?,
            buf: Vec::with_capacity(buffer_bytes),
            fences: Vec::new(),
            keys: 0,
        })
    }

    fn push(&mut self, key: u64) -> std::io::Result<()> {
        if (self.keys as usize).is_multiple_of(BLOCK_KEYS) {
            self.fences.push(key);
        }
        self.keys += 1;
        if self.buf.len() == self.buf.capacity() {
            self.file.append(&self.buf)?;
            self.buf.clear();
        }
        self.buf.extend_from_slice(&key.to_le_bytes());
        Ok(())
    }

    fn finish(self) -> std::io::Result<DiskRun> {
        self.file.append(&self.buf)?;
        Ok(DiskRun {
            file: self.file,
            keys: self.keys,
            fences: self.fences,
        })
    }
}

/// Bounded-memory cursor over one source run of a merge: reads the run
/// through positioned reads into one buffer of a caller-chosen size.
struct RunCursor<'a> {
    run: &'a DiskRun,
    buf: Vec<u8>,
    /// Next key index of the run to load into the buffer.
    next: u64,
    /// Keys resident in the buffer.
    in_buf: usize,
    /// Keys of the buffer already consumed.
    pos: usize,
}

impl<'a> RunCursor<'a> {
    fn new(run: &'a DiskRun, buffer_bytes: usize) -> RunCursor<'a> {
        RunCursor {
            run,
            buf: vec![0u8; buffer_bytes],
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
        let n = ((self.run.keys - self.next) as usize).min(self.buf.len() / 8);
        self.run
            .read_block_at(self.next * 8, &mut self.buf[..n * 8])?;
        self.in_buf = n;
        self.next += n as u64;
        Ok(())
    }

    fn peek(&self) -> Option<u64> {
        (self.pos < self.in_buf).then(|| key_at(&self.buf, self.pos))
    }

    fn advance(&mut self) -> std::io::Result<()> {
        self.pos += 1;
        if self.pos >= self.in_buf {
            self.refill()?;
        }
        Ok(())
    }
}

/// Merges `sources` (sorted runs over pairwise-disjoint key sets) into one
/// fresh sorted run with a bounded-memory k-way streaming merge: one
/// `buffer_bytes` buffer per source plus one for the output, never a whole
/// run in RAM.
fn merge_runs(sources: &[DiskRun], buffer_bytes: usize) -> std::io::Result<DiskRun> {
    let mut writer = RunWriter::new(buffer_bytes)?;
    let mut cursors: Vec<RunCursor> = sources
        .iter()
        .map(|r| RunCursor::new(r, buffer_bytes))
        .collect();
    for cursor in &mut cursors {
        cursor.refill()?;
    }
    loop {
        // k is the fan-in (single digits), so a linear scan over the heads
        // beats maintaining a heap.
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

/// Batches a [`DiskRun`] probes in one walk over its blocks: the parallel
/// engine's merge hands over at most one per visited shard.
const PROBE_GROUP: usize = SHARDS;

/// Live on-disk runs that trigger a merge: the spill that brings the run
/// count to this fan-in merges every run into one before it returns.
const FAN_IN: usize = 8;

/// The exact disk-spilling tier: a [`RamVisited`] delta under a byte
/// budget, written out as a new sorted on-disk run (O(delta) I/O) whenever
/// the resident estimate crosses the budget. When a spill brings the live
/// runs to a fixed fan-in of 8, a bounded-memory streaming merge folds them
/// into one right away, while the delta is empty. Membership is exact — delta OR any
/// run (the key sets are pairwise disjoint by construction) — so reports
/// are byte-identical to the in-RAM tier at any budget.
#[derive(Debug)]
pub struct TieredVisited {
    delta: RamVisited,
    runs: Vec<DiskRun>,
    budget: usize,
    spills: u64,
    peak: usize,
    /// Spill sort scratch: empty between spills, capacity retained.
    merge: Vec<u64>,
    /// Total spill I/O (see [`VisitedSet::compaction_bytes`]).
    compaction_bytes: u64,
}

impl TieredVisited {
    /// A tiered set that spills once its resident estimate exceeds
    /// `memory_budget` bytes. Any budget is legal — a tiny one just spills
    /// often; correctness never depends on it.
    pub fn new(memory_budget: usize) -> Self {
        TieredVisited {
            delta: RamVisited::new(),
            runs: Vec::new(),
            budget: memory_budget,
            spills: 0,
            peak: 0,
            merge: Vec::new(),
            compaction_bytes: 0,
        }
    }

    /// Fence-pointer bytes, estimated as one 8-byte fence per 4 KiB block
    /// of the total spilled key count — exactly the fences of the merged
    /// run, and within one partial block per live run of the physical
    /// count. Like [`RAM_ENTRY_BYTES`], it is the currency budgets are
    /// denominated in.
    fn fence_bytes(&self) -> usize {
        (self.disk_keys() as usize).div_ceil(BLOCK_KEYS) * 8
    }

    fn disk_keys(&self) -> u64 {
        self.runs.iter().map(|r| r.keys).sum()
    }

    /// I/O buffer bytes for each of `streams` run streams open at once: one
    /// 4 KiB block each, shrunk in whole keys (down to one) when that many
    /// blocks would not fit what the budget leaves above `resident`.
    fn stream_buffer_bytes(&self, resident: usize, streams: usize) -> usize {
        let share = self.budget.saturating_sub(resident) / streams;
        (share / 8 * 8).clamp(8, BLOCK_KEYS * 8)
    }

    /// Writes the delta out as one new sorted run in O(delta) I/O, then
    /// merges the runs if their count reached [`FAN_IN`]. The delta is
    /// drained shard by shard into the sort scratch, so the transient peak
    /// tracks one delta's worth of keys — never the full spilled history.
    fn spill(&mut self) {
        let fences = self.fence_bytes();
        for i in 0..SHARDS {
            let shard = &mut self.delta.shards[i];
            let drained = shard.len();
            self.merge.extend(shard.iter().copied());
            shard.clear();
            self.delta.len -= drained;
            let transient = self.delta.memory_bytes() + self.merge.len() * 8 + fences;
            self.peak = self.peak.max(transient);
        }
        self.merge.sort_unstable();
        let resident = self.merge.len() * 8 + fences;
        let buffer = self.stream_buffer_bytes(resident, 1);
        self.peak = self.peak.max(resident + buffer);
        let run = DiskRun::write(&self.merge, buffer).expect("write the visited spill run");
        self.merge.clear();
        self.compaction_bytes += run.keys * 8;
        self.runs.push(run);
        self.spills += 1;
        if self.runs.len() >= FAN_IN {
            self.compact();
        }
    }

    /// Merges every live run into one. Called only from
    /// [`spill`](Self::spill), so the delta is empty: what is resident is
    /// the sources' fences, the output's (as many again) and one stream
    /// buffer per source plus the output's, sized to fit the budget.
    fn compact(&mut self) {
        let resident = 2 * self.fence_bytes();
        let streams = self.runs.len() + 1;
        let buffer = self.stream_buffer_bytes(resident, streams);
        self.peak = self.peak.max(resident + streams * buffer);
        let merged = merge_runs(&self.runs, buffer).expect("compact the visited spill runs");
        // The merge reads and rewrites every spilled byte exactly once.
        self.compaction_bytes += 2 * merged.keys * 8;
        // Dropping the sources deletes their files.
        self.runs.clear();
        self.runs.push(merged);
    }
}

impl VisitedSet for TieredVisited {
    fn contains(&self, key: u64) -> bool {
        self.delta.contains(key) || self.runs.iter().any(|r| r.contains(key))
    }

    fn contains_resident(&self, key: u64) -> bool {
        self.delta.contains(key)
    }

    fn probe_spilled_batches(&self, batches: &mut [(&[u64], &mut [bool])]) {
        for run in &self.runs {
            run.probe_batches(batches);
        }
    }

    fn insert(&mut self, key: u64) -> bool {
        if self.contains(key) {
            return false;
        }
        self.insert_new(key)
    }

    fn insert_new(&mut self, key: u64) -> bool {
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
        self.delta.clear();
        self.runs.clear();
        self.spills = 0;
        self.peak = 0;
        self.compaction_bytes = 0;
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
        self.runs.len() as u64
    }

    fn compaction_bytes(&self) -> u64 {
        self.compaction_bytes
    }

    fn spill_paths(&self) -> Vec<PathBuf> {
        self.runs
            .iter()
            .map(|r| r.file.path().to_path_buf())
            .collect()
    }
}

/// Tier selection as data: which [`VisitedSet`] an exploration should
/// deduplicate through. Parsed from `--visited` / `--memory-budget` and
/// owned by the [`Explorer`](crate::Explorer) facade.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VisitedSpec {
    /// All in RAM ([`RamVisited`]) — the default.
    #[default]
    Ram,
    /// Spilling to disk past a resident-byte budget ([`TieredVisited`]).
    Tiered {
        /// Resident-byte budget before the delta spills to a new run.
        memory_budget: usize,
    },
}

/// Default byte budget when `--visited tiered` is given
/// without `--memory-budget`: 1 GiB.
pub const DEFAULT_MEMORY_BUDGET: usize = 1 << 30;

impl VisitedSpec {
    /// The disk-spilling tier at `memory_budget` bytes.
    pub fn tiered(memory_budget: usize) -> Self {
        VisitedSpec::Tiered { memory_budget }
    }

    /// Constructs the tier this spec names.
    pub fn build(&self) -> Box<dyn VisitedSet> {
        match *self {
            VisitedSpec::Ram => Box::new(RamVisited::new()),
            VisitedSpec::Tiered { memory_budget } => Box::new(TieredVisited::new(memory_budget)),
        }
    }

    /// Applies a `--memory-budget` value to the spec (no-op for
    /// [`VisitedSpec::Ram`], which has no budget to bound).
    pub fn with_budget(self, memory_budget: usize) -> Self {
        match self {
            VisitedSpec::Ram => VisitedSpec::Ram,
            VisitedSpec::Tiered { .. } => VisitedSpec::Tiered { memory_budget },
        }
    }
}

impl std::fmt::Display for VisitedSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VisitedSpec::Ram => write!(f, "ram"),
            VisitedSpec::Tiered { memory_budget } => write!(f, "tiered (budget {memory_budget} B)"),
        }
    }
}

impl std::str::FromStr for VisitedSpec {
    type Err = String;

    /// Parses `ram` or `tiered`; the budget rides separately on
    /// [`VisitedSpec::with_budget`].
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
    fn key_blocks_round_trip_and_probe_exactly() {
        let keys: Vec<u64> = (0..321u64).map(|i| i * 7 + 3).collect();
        let mut block = Vec::new();
        for &k in &keys {
            block.extend_from_slice(&k.to_le_bytes());
        }
        let mut unpacked = [0u64; BLOCK_KEYS];
        assert_eq!(unpack_block(&block, &mut unpacked), keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(key_at(&block, i), k);
            assert!(block_contains_key(&block, k));
            assert!(!block_contains_key(&block, k + 1));
        }
        assert!(!block_contains_key(&block, 0));
        assert!(!block_contains_key(&[], 42));
        assert!(unpack_block(&[], &mut unpacked).is_empty());
    }

    #[test]
    fn ram_and_tiered_agree_on_every_answer() {
        let mut ram = RamVisited::new();
        // 1 KiB budget over ~10k keys: dozens of spills and compactions.
        let mut tiered = TieredVisited::new(1024);
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
            tiered.disk_runs() < FAN_IN as u64,
            "compaction must keep the live-run count below the fan-in, got {}",
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

    #[test]
    fn batched_sorted_probe_matches_per_key_probes() {
        let mut tiered = TieredVisited::new(512);
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
    fn probes_over_many_batches_match_per_key_probes() {
        // More batches than one walk takes (PROBE_GROUP), with interleaved
        // key ranges as the merge's shards have, some empty, and some hits
        // already set, which must stay set.
        let mut tiered = TieredVisited::new(512);
        for key in key_stream(4_000) {
            tiered.insert(key);
        }
        assert!(tiered.disk_runs() >= 2);
        let mut probes: Vec<u64> = key_stream(4_000);
        probes.extend((0..2_000u64).map(|i| mix64(i ^ 0x5eed)));
        probes.push(0);
        probes.sort_unstable();
        probes.dedup();
        let count = PROBE_GROUP + 36;
        let keys: Vec<Vec<u64>> = (0..count)
            .map(|b| match b % 10 {
                3 => Vec::new(),
                _ => probes.iter().copied().skip(b).step_by(count - 7).collect(),
            })
            .collect();
        let mut hits: Vec<Vec<bool>> = keys
            .iter()
            .map(|k| k.iter().map(|&key| key % 11 == 0).collect())
            .collect();
        let mut batches: Vec<(&[u64], &mut [bool])> = keys
            .iter()
            .zip(hits.iter_mut())
            .map(|(k, h)| (&k[..], &mut h[..]))
            .collect();
        tiered.probe_spilled_batches(&mut batches);
        for (k, h) in keys.iter().zip(&hits) {
            for (&key, &hit) in k.iter().zip(h) {
                let on_disk = tiered.contains(key) && !tiered.contains_resident(key);
                assert_eq!(hit, on_disk || key % 11 == 0, "key {key}");
            }
        }
    }

    #[test]
    fn spill_transient_stays_within_twice_the_budget() {
        // A rewrite-all scheme reads the entire prior run back into RAM on
        // every spill, so its transient is unbounded by the budget. The
        // streaming scheme's peak — delta plus sort scratch plus fences
        // plus the merge's stream buffers, all folded into
        // peak_memory_bytes — must stay under 2× budget however many
        // spills and compactions a run forces. With the merge in the
        // foreground and its buffers sized from the budget, it stays
        // within one RAM entry of the budget itself.
        for budget in [32 * 1024, 64 * 1024, 256 * 1024] {
            let mut tiered = TieredVisited::new(budget);
            // ~12 B/key resident: enough keys for dozens of spills at the
            // smaller budget and several compaction cycles.
            let keys = 40 * budget / RAM_ENTRY_BYTES;
            for key in key_stream(keys) {
                tiered.insert(key);
            }
            assert!(
                tiered.spills() >= FAN_IN as u64,
                "budget {budget}: must spill past the fan-in"
            );
            assert!(
                tiered.peak_memory_bytes() < 2 * budget,
                "budget {budget}: transient peak {} breaches 2x the budget",
                tiered.peak_memory_bytes()
            );
            assert!(
                tiered.peak_memory_bytes() <= budget + RAM_ENTRY_BYTES,
                "budget {budget}: transient peak {} overshoots the budget",
                tiered.peak_memory_bytes()
            );
        }
    }

    #[test]
    fn compaction_io_is_linear_not_quadratic() {
        // With the rewrite-all scheme, every spill rewrote the whole
        // history: total I/O grew quadratically in the spill count. The
        // multi-run scheme writes each spill once and compacts at the
        // fan-in, so total I/O stays within a small multiple of the data
        // volume.
        let mut tiered = TieredVisited::new(1024);
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
            let mut tiered = TieredVisited::new(64);
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
            let run = DiskRun::write(&keys, BLOCK_KEYS * 8).unwrap();
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
            run.probe_batches(&mut [(&probes, &mut hits)]);
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
        // At a full block per stream and at the three-key buffers a tiny
        // budget shrinks them to.
        for buffer in [BLOCK_KEYS * 8, 24] {
            let runs: Vec<DiskRun> = [&a, &b, &c]
                .iter()
                .map(|keys| DiskRun::write(keys, buffer).unwrap())
                .collect();
            let merged = merge_runs(&runs, buffer).unwrap();
            assert_eq!(merged.keys as usize, a.len() + b.len() + c.len());
            for &k in a.iter().chain(&b).chain(&c) {
                assert!(merged.contains(k), "buffer {buffer}: merged run lost {k}");
            }
            assert!(!merged.contains(700 * 3 + 5));
        }
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
        assert_eq!(
            "tiered".parse::<VisitedSpec>().unwrap(),
            VisitedSpec::tiered(DEFAULT_MEMORY_BUDGET)
        );
        assert!("mmap".parse::<VisitedSpec>().is_err());
        assert!("probabilistic".parse::<VisitedSpec>().is_err());
        let spec = "tiered".parse::<VisitedSpec>().unwrap().with_budget(4096);
        assert_eq!(
            spec,
            VisitedSpec::Tiered {
                memory_budget: 4096
            }
        );
        // `--memory-budget` has nothing to bound on the RAM tier.
        assert_eq!(VisitedSpec::Ram.with_budget(5), VisitedSpec::Ram);
        let mut set = spec.build();
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert_eq!(VisitedSpec::Ram.to_string(), "ram");
        assert_eq!(VisitedSpec::tiered(64).to_string(), "tiered (budget 64 B)");
    }
}
