//! Parallel state-space exploration: the sequential oracle's search scaled
//! to every core, behind [`Explorer::parallel`](crate::Explorer::parallel).
//!
//! [`ParallelExplorer`] runs a **level-synchronized** breadth-first search
//! over the composed system: all states at adversary-action depth `d` are
//! expanded (in parallel) before any state at depth `d+1`, so the
//! "shortest counterexample" guarantee of the sequential explorer is
//! preserved exactly. Within a level, worker threads claim chunks of the
//! frontier from a shared atomic cursor — dynamic load balancing with no
//! external work-stealing runtime, in keeping with the workspace's
//! zero-dependency policy.
//!
//! **Zero-copy hot path.** Three structural choices keep the steady-state
//! expansion loop off the allocator (see `docs/explorer_internals.md`):
//!
//! - **Parent-pointer paths.** A frontier node does not own its schedule.
//!   Each level appends one `(parent index, last step)` record, packed in
//!   one word, per admitted node to a per-level arena, and full paths are
//!   reconstructed by walking the parent chain — only on a violation or
//!   never. Expanding a node copies one word instead of cloning an
//!   O(depth) vector.
//! - **Record frontier.** A frontier level is a run of fixed-size blocks
//!   of frontier records in the level store ([`crate::levels`]), one
//!   record per node ([`crate::codec`]): a 16-byte head, then
//!   varints for the counters and about 2 bytes per header-only parked
//!   copy (43 bytes a record on average at seqnum 9/26/10), with the two
//!   automata named by id into the run's [`StationTable`], where each
//!   distinct station state is stored once.
//!   A worker loads a node into its warm [`System`], tries every enabled
//!   action on one reused trial refilled in place from it
//!   ([`System::assign_from`]), and records a discovered successor as its
//!   state key plus its path record, 16 bytes — no system. Most successors lose the
//!   merge (same-level duplicates, and under a disk-spilling tier every
//!   successor whose key lives only on disk), so only the winners are
//!   rebuilt after the merge, by replaying their one step from the loaded
//!   parent and writing the result's record. The engine holds two levels
//!   of records, a level frees with a few deallocations per worker segment
//!   however wide it is, and a warm run performs no heap allocation
//!   (pinned by the allocation regression tests in
//!   `tests/explore_alloc.rs`). Under a memory budget the blocks of every
//!   rebuilt level, and every finished level's path records, stream
//!   through spill files, so a worker holds two blocks however wide the
//!   level, and the disk holds two levels however deep the search. A
//!   budgeted level is also expanded, merged and admitted one fixed run
//!   of frontier ranks at a time ([`slice_ranks`]), so the candidates in
//!   flight are one slice's however wide the level; without a budget the
//!   slice is the whole level.
//! - **Tiered dedup.** The visited set behind the engine is a
//!   [`VisitedSet`] tier chosen by [`VisitedSpec`] (see [`crate::visited`]):
//!   the RAM tier runs 64 FNV shards on the fixed-key FNV-64 hasher
//!   ([`nonfifo_ioa::fingerprint`]), and the tiered tier spills past a
//!   byte budget to sorted disk runs; both are exact. State keys come
//!   from the shared
//!   [`StateCodec`](crate::codec::StateCodec), which folds in the
//!   multiset's incrementally maintained content digest, so hashing a
//!   state never walks the pool.
//!
//! **Determinism.** The outcome is a pure function of (protocol, config):
//! thread count and OS scheduling cannot change it.
//!
//! - Workers only *read* the visited set (it is frozen during a slice);
//!   newly discovered states are merged after the slice in sorted
//!   `(state key, parent rank, step)` order. All paths within a level have
//!   equal length and the frontier is kept sorted by path order, so
//!   comparing `(parent rank, step)` *is* comparing full paths — when two
//!   paths reach the same state in the same level, the lexicographically
//!   smallest path deterministically claims it, exactly as the old
//!   owned-path engine did (property-tested in `tests/explore_props.rs`).
//!   Slices ascend in parent rank, so the first slice to reach a key
//!   holds its smallest path, and its duplicates in later slices meet the
//!   admitted key as visited hits: the winners, their ranks and the order
//!   of inserts are the whole-level merge's.
//! - The merge itself is **sharded and parallel**: candidates are binned
//!   by the 64-way mixed-digest shard index ([`shard_of`]) as workers
//!   discover them, and each shard is sorted, deduplicated, and probed
//!   against the visited tier's spilled runs independently, in place in
//!   the workers' own bins (the merge keeps no copy of its own) — shards
//!   are disjoint key spaces, so the winners emitted in global path-rank
//!   order are exactly the winners the old single-threaded full-sort
//!   merge produced, whatever thread ran which shard (the determinism
//!   argument is spelled out in `docs/explorer_internals.md` §7). While
//!   the tier has runs on disk, each merge thread probes them once for
//!   its shards' sorted key batches
//!   ([`VisitedSet::probe_spilled_batches`]), so a 4 KiB run block is read
//!   once per slice and merge thread instead of once per candidate.
//! - The winners' records are rebuilt in rank order, each from its parent
//!   and its recorded step alone, so which thread rebuilt a node cannot
//!   change it. Station ids may differ with the thread count; they never
//!   enter a key, a rank or a report.
//! - Violations found within a level are collected, and the
//!   lexicographically smallest schedule wins — not the first one a thread
//!   happened to stumble on. (The sequential oracle instead returns the
//!   first violation in discovery order; both are shortest, so outcome
//!   kind and depth always agree, while the schedule bytes may differ
//!   between the two engines — never between thread counts.)
//! - The state budget is enforced during the sorted merge, so `Truncated`
//!   outcomes report a thread-count-independent state count. When a level
//!   contains both a violation and the budget edge, the violation wins
//!   (the conclusive answer beats the resource excuse), even when the
//!   budget ran out in an earlier slice: the rest of the level is then
//!   expanded for violations only. The sequential oracle may report
//!   `Truncated` on such knife-edge scopes.
//!
//! Frontier states are counts-only systems ([`System::disable_event_log`]):
//! no event log, and a monitor that keeps only the copies in transit, so a
//! node's record is O(pool), not O(history); the
//! winning counterexample is re-materialised by
//! replaying its schedule through the strict scheduler (`materialize`,
//! shared with the oracle) — which doubles as an end-to-end validation of
//! every reported attack.

use crate::codec::{load, StationTable, PROVISIONAL};
use crate::explore::{
    apply, build_root, enabled_actions_into, from_step, materialize, to_step, Action,
    ExploreConfig, ExploreOutcome,
};
use crate::explorer::record_run_end;
use crate::levels::{index_level, Fence, LevelView, RecordAt, Segment};
use crate::por::PorCtx;
use crate::schedule::ScheduleStep;
use crate::spill::SpillFile;
use crate::system::System;
use crate::visited::{shard_of, VisitedSet, VisitedSpec, SHARDS};
use crate::workpool::ChunkCursor;
use nonfifo_ioa::{CopyId, Header, Packet};
use nonfifo_protocols::DataLink;
use nonfifo_telemetry::{Counter, Histogram, Registry, TraceSink};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Frontier nodes a worker claims per cursor fetch. Small enough to
/// balance skewed levels, large enough to keep the cursor cold.
const CHUNK: usize = 16;

/// One parent-pointer path record: the frontier node at this level reached
/// its state by taking a step from the previous level's node at index
/// `parent`. Full schedules are reconstructed by walking the chain — one
/// word per node instead of an owned `Vec<ScheduleStep>` per node.
///
/// The word is `parent << 32 | step code`, where the step code is the
/// [`ScheduleStep`] variant's declaration index in bits 29–31 (Send 0,
/// Park 1, Deliver 3, Drop 4) over its header in bits 0–28. So the packed
/// order is the derived `(parent, ScheduleStep)` order, and because the
/// frontier is kept sorted by path order, comparing two records of one BFS
/// level is exactly comparing their full equal-length paths
/// lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PathRec(u64);

/// Header bits of a packed step code; the variant index sits above them.
const HEADER_BITS: u32 = 29;

impl PathRec {
    /// Packs `step` taken from the node ranked `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not an explorer step, or names a header at
    /// 2²⁹ or above, which no scope the explorer can finish does.
    fn new(parent: u32, step: ScheduleStep) -> Self {
        let (variant, header) = match step {
            ScheduleStep::Send => (0, 0),
            ScheduleStep::Park => (1, 0),
            ScheduleStep::Deliver(h) => (3, h.index()),
            ScheduleStep::Drop(h) => (4, h.index()),
            other => unreachable!("`{other}` is not an explorer step"),
        };
        assert!(
            header < 1 << HEADER_BITS,
            "header {header} does not fit a path record's {HEADER_BITS} bits"
        );
        PathRec(u64::from(parent) << 32 | u64::from(variant << HEADER_BITS | header))
    }

    /// Index of the parent node in the previous level's frontier.
    fn parent(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The action taken from the parent.
    fn step(self) -> ScheduleStep {
        let code = self.0 as u32;
        let header = Header::new(code & ((1 << HEADER_BITS) - 1));
        match code >> HEADER_BITS {
            0 => ScheduleStep::Send,
            1 => ScheduleStep::Park,
            3 => ScheduleStep::Deliver(header),
            4 => ScheduleStep::Drop(header),
            variant => unreachable!("step variant {variant} is not an explorer step"),
        }
    }
}

/// The path arena: one [`PathRec`] per admitted non-root node, by depth.
///
/// Without a spill file every level stays resident, `levels[d]` holding
/// depth `d`'s records (`levels[0]` stays empty: the root has no incoming
/// step). With one, only the level being admitted (slice by slice) and
/// rebuilt is resident, in `levels[1]`, and each finished level goes to
/// the file, from which [`get`](PathStore::get) reads a record back with
/// one positioned read.
#[derive(Debug, Default)]
struct PathStore {
    levels: Vec<Vec<PathRec>>,
    /// Per finished depth under a spill file: the file offset of its
    /// records and their count (`spilled[0]` stands for the root's).
    spilled: Vec<(u64, usize)>,
    spilling: bool,
}

impl PathStore {
    /// Forgets every record, keeping the buffers; `spilling` says whether
    /// this run's finished levels go to a spill file.
    fn reset(&mut self, spilling: bool) {
        for level in &mut self.levels {
            level.clear();
        }
        self.spilled.clear();
        self.spilled.push((0, 0));
        self.spilling = spilling;
    }

    fn slot(&self, depth: usize) -> usize {
        if self.spilling {
            1
        } else {
            depth
        }
    }

    /// The records of the level at `depth`, while it is resident.
    fn level(&self, depth: usize) -> &[PathRec] {
        &self.levels[self.slot(depth)]
    }

    /// The buffer the level at `depth` is admitted into, slice by slice.
    fn in_flight(&mut self, depth: usize) -> &mut Vec<PathRec> {
        let slot = self.slot(depth);
        while self.levels.len() <= slot {
            self.levels.push(Vec::new());
        }
        &mut self.levels[slot]
    }

    /// Marks the level at `depth` finished: with a `file`, its records go
    /// there and its buffer is emptied for the next level. Returns the
    /// bytes written.
    fn finish(&mut self, depth: usize, file: Option<&SpillFile>) -> u64 {
        let Some(file) = file else {
            return 0;
        };
        debug_assert_eq!(self.spilled.len(), depth, "levels finish in order");
        let level = &mut self.levels[1];
        let bytes = level.len() * std::mem::size_of::<PathRec>();
        let at = file.reserve(bytes);
        let mut chunk = [0u8; 8 * 1024];
        let mut written = 0;
        for recs in level.chunks(chunk.len() / 8) {
            for (out, rec) in chunk.chunks_exact_mut(8).zip(recs) {
                out.copy_from_slice(&rec.0.to_le_bytes());
            }
            file.write_at(at + written as u64, &chunk[..recs.len() * 8])
                .expect("write the path spill file");
            written += recs.len() * 8;
        }
        self.spilled.push((at, level.len()));
        level.clear();
        bytes as u64
    }

    /// Record `idx` of the level at `depth`.
    fn get(&self, depth: usize, idx: usize, file: Option<&SpillFile>) -> PathRec {
        match self.spilled.get(depth).filter(|_| self.spilling) {
            Some(&(at, _)) => {
                let mut word = [0u8; 8];
                file.expect("a spilled level has a file")
                    .read_at(at + idx as u64 * 8, &mut word)
                    .expect("read the path spill file");
                PathRec(u64::from_le_bytes(word))
            }
            None => self.level(depth)[idx],
        }
    }

    /// Records held, resident or spilled: one per admitted non-root node.
    fn records(&self) -> usize {
        let spilled: usize = self.spilled.iter().map(|&(_, n)| n).sum();
        spilled + self.levels.iter().map(Vec::len).sum::<usize>()
    }
}

/// What a run wrote to its spill files: the blocks of every rebuilt level
/// and the path records of every finished one. Each figure is a function
/// of the scope alone, the same at any thread count; all stay 0 without a
/// memory budget, and on the sequential oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Streamed {
    /// Bytes of frontier blocks written: records plus a 4-byte offset
    /// each.
    pub level_bytes: u64,
    /// Bytes the two level files held at the end: the widest level of
    /// each parity, since each level is written over the one two levels
    /// back.
    pub level_disk_bytes: u64,
    /// Bytes of path records, 8 a record, all kept on disk to the end.
    pub path_bytes: u64,
}

/// The spill files of a run under a memory budget. Rebuilt levels
/// alternate between the two level files: the level at depth `d` goes to
/// `levels[d % 2]`, over the level at `d - 2`, which is dead once `d - 1`
/// is rebuilt. Finished path levels are appended to `paths` and kept,
/// for the counterexample walk.
#[derive(Debug)]
struct Spill {
    levels: [SpillFile; 2],
    paths: SpillFile,
}

impl Spill {
    fn create() -> std::io::Result<Spill> {
        Ok(Spill {
            levels: [SpillFile::create("levels")?, SpillFile::create("levels")?],
            paths: SpillFile::create("paths")?,
        })
    }
}

/// A successor discovered during a level, pending the deterministic merge:
/// its state key and the edge that reached it, and no [`System`] — 16
/// bytes. Winners are rebuilt from their parents after the merge
/// ([`rebuild_frontier`]).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    key: u64,
    rec: PathRec,
}

impl Candidate {
    /// The merge order: by key, then by path.
    fn order(&self) -> (u64, PathRec) {
        (self.key, self.rec)
    }
}

/// Per-worker scratch: action/oldest-copy buffers, the loaded node and the
/// trial system for the expansion core, the candidate/violation
/// out-buffers, and the rebuild phase's output. Candidates are binned by
/// visited-shard index at discovery time ([`shard_of`]), so the post-level
/// merge starts from 64 disjoint key spaces per worker; it merges them in
/// place and hands the emptied bins back. Everything is reused level to
/// level and run to run.
#[derive(Debug, Default)]
struct WorkerScratch {
    actions: Vec<Action>,
    oldest: Vec<(Packet, CopyId)>,
    /// The frontier node being expanded (or rebuilt from), loaded from its
    /// record; primed from the root at the start of every run.
    node: Option<System>,
    /// The one system every enabled action is tried on, refilled from the
    /// node before each try.
    trial: Option<System>,
    candidates: Vec<Vec<Candidate>>,
    violations: Vec<PathRec>,
    /// This worker's contiguous share of the next level's records, in rank
    /// order.
    out: Segment,
    /// The frontier block being read, when it lives in the spill file.
    block: Vec<u8>,
    /// Station states the frozen run table lacked, by provisional id.
    misses: StationTable,
    /// The records in `out` that name a provisional id, with their ids.
    patches: Vec<(RecordAt, (u32, u32))>,
    /// What each provisional id became, per station role.
    tx_ids: Vec<u32>,
    rx_ids: Vec<u32>,
}

/// Frontier ranks expanded, merged and admitted at once under `spec`:
/// under a memory budget a fixed slice of `budget / 64` ranks, at least
/// [`CHUNK`] × [`SHARDS`] (about one budget of candidates at seqnum's four
/// a node), and `None`, the whole level, without one. It depends on the
/// budget alone, never on the thread count, so every run of a scope cuts
/// its levels alike.
pub(crate) fn slice_ranks(spec: VisitedSpec) -> Option<usize> {
    match spec {
        VisitedSpec::Ram => None,
        VisitedSpec::Tiered { memory_budget } => Some((memory_budget / 64).max(CHUNK * SHARDS)),
    }
}

/// Records in the level stored as `segments`.
fn level_len(segments: &[Segment]) -> usize {
    segments.iter().map(Segment::len).sum()
}

/// The bytes of the level stored as `segments` ([`Segment::bytes`]).
fn level_bytes(segments: &[Segment]) -> usize {
    segments.iter().map(Segment::bytes).sum()
}

/// Refills `slot` from the run's root, so a warm system carries this run's
/// constants (automaton types, ghost use) before records are loaded into it.
fn prime(slot: &mut Option<System>, root: &System) {
    match slot {
        Some(sys) => sys.assign_from(root),
        None => *slot = Some(root.clone()),
    }
}

/// Per-shard merge state, retained in the arena: the sorted unique key
/// batch handed to [`VisitedSet::probe_spilled_batches`] and its hits, both
/// left empty while nothing is on disk; a read and a write position per
/// worker bin and a min-heap over the bins' heads for the k-way walks;
/// and how many of the shard's candidates lost. The candidates
/// themselves, winners included, stay in the workers' bins.
#[derive(Debug, Default)]
struct ShardMerge {
    keys: Vec<u64>,
    hits: Vec<bool>,
    cursors: Vec<(usize, usize)>,
    heads: BinaryHeap<Reverse<(u64, PathRec, usize)>>,
    rejected: usize,
}

/// Resident-memory peaks of one run, exported as gauges when telemetry is
/// attached. The path arena needs no peak: it only grows within a run.
#[derive(Debug, Default, Clone, Copy)]
struct Peaks {
    /// The most record bytes two adjacent levels held at once, plus the
    /// station table at that point ([`Segment::bytes`],
    /// [`StationTable::bytes`]), wherever the records lived.
    frontier_bytes: usize,
    /// The most bytes the level store held in RAM during a rebuild: the
    /// expanded level's resident blocks, the most each worker's output
    /// held, and the workers' read buffers. Under a budget it is two
    /// blocks per worker.
    resident_bytes: usize,
    /// The most candidates one slice produced, times their 16-byte size:
    /// what the workers' bins hold at the widest slice. On one worker it
    /// is also the candidate capacity a warm arena retains, less the bins'
    /// growth slack. With more workers each bin keeps the most its own
    /// worker found in one slice, however the scheduler spread the work,
    /// so the retained capacity can exceed it (2.75x at seqnum 8/26/10 in
    /// RAM at 8 threads on 2 cores). Under a budget no worker finds more
    /// than a slice's candidates at once, so each worker's bins stay
    /// within a few slices' worth however the scheduler spread the work.
    candidate_bytes: usize,
    /// The most candidates one level produced over all its slices, times
    /// 16: what the merge would hold if the level were one slice. Equal to
    /// `candidate_bytes` without a budget.
    level_candidate_bytes: usize,
}

/// The reusable workspace an [`Explorer`](crate::Explorer) owns: the
/// visited set (any [`VisitedSpec`] tier), the frontier's level store and
/// the station table, per-worker scratches, the path arena, and the merge
/// buffers. Running repeated explorations through one arena keeps the
/// steady-state expansion loop entirely off the allocator — the allocation
/// regression test in `tests/explore_alloc.rs` pins this.
#[derive(Debug)]
pub(crate) struct ExploreArena {
    visited: Box<dyn VisitedSet>,
    spec: VisitedSpec,
    workers: Vec<WorkerScratch>,
    paths: PathStore,
    /// The level being expanded, as one segment per worker: concatenated
    /// in worker order they are its records in rank order. After each
    /// rebuild the segments trade places with the workers' outputs.
    frontier: Vec<Segment>,
    /// The expanded level's blocks in rank order.
    index: Vec<Fence>,
    /// The run's station states, which every frontier record names by id.
    stations: StationTable,
    /// Shard-major transpose buffer: `bins_in[s * stride + w]` is worker
    /// `w`'s candidate bin for shard `s`, swapped in header-only so the
    /// merge can hand disjoint shard groups to threads, and swapped back
    /// after the level; between levels it holds only empty headers.
    bins_in: Vec<Vec<Candidate>>,
    /// One [`ShardMerge`] per visited shard.
    merges: Vec<ShardMerge>,
    /// Rank-assignment scratch: a min-heap over the tails of the bins in
    /// `bins_in`. Path records within a level are unique (a
    /// `(parent, step)` pair is one edge), so the order is total and
    /// deterministic.
    heap: BinaryHeap<Reverse<(PathRec, usize)>>,
    /// Under a memory budget, the files the run streams its rebuilt
    /// levels and finished path levels through: opened at the first
    /// rebuild and deleted when the run returns, however it returns.
    spill: Option<Spill>,
    /// What the last run wrote to its spill files.
    streamed: Streamed,
}

impl Default for ExploreArena {
    fn default() -> Self {
        ExploreArena {
            visited: VisitedSpec::Ram.build(),
            spec: VisitedSpec::Ram,
            workers: Vec::new(),
            paths: PathStore::default(),
            frontier: Vec::new(),
            index: Vec::new(),
            stations: StationTable::new(),
            bins_in: Vec::new(),
            merges: (0..SHARDS).map(|_| ShardMerge::default()).collect(),
            heap: BinaryHeap::new(),
            spill: None,
            streamed: Streamed::default(),
        }
    }
}

impl ExploreArena {
    /// Swaps the visited tier to `spec`. A no-op when the arena already
    /// runs that spec — the existing set (and its warmed allocations) is
    /// kept and merely cleared at the next run.
    pub(crate) fn install_visited(&mut self, spec: VisitedSpec) {
        if spec != self.spec {
            self.visited = spec.build();
            self.spec = spec;
        }
    }

    /// The visited set of the most recent run — spill counts and resident
    /// bytes are read here.
    pub(crate) fn visited(&self) -> &dyn VisitedSet {
        &*self.visited
    }

    pub(crate) fn visited_mut(&mut self) -> &mut dyn VisitedSet {
        &mut *self.visited
    }

    /// What the most recent parallel run wrote to its spill files.
    pub(crate) fn streamed(&self) -> Streamed {
        self.streamed
    }

    /// Whether runs stream their levels through spill files: whenever a
    /// memory budget is in force.
    fn spilling(&self) -> bool {
        matches!(self.spec, VisitedSpec::Tiered { .. })
    }

    /// Candidates the workers hold.
    fn candidates(&self) -> usize {
        self.workers
            .iter()
            .flat_map(|w| &w.candidates)
            .map(Vec::len)
            .sum()
    }

    /// Forgets the workers' candidates, keeping their bins.
    fn drop_candidates(&mut self) {
        for bin in self.workers.iter_mut().flat_map(|w| &mut w.candidates) {
            bin.clear();
        }
    }

    /// Clears logical state while keeping every allocation: the visited
    /// set, the segments and the merge buffers keep their capacity, and the
    /// station table its automaton boxes.
    fn reset(&mut self, threads: usize) {
        self.visited.clear();
        self.stations.clear();
        self.streamed = Streamed::default();
        self.spill = None;
        let spilling = self.spilling();
        self.paths.reset(spilling);
        while self.workers.len() < threads {
            self.workers.push(WorkerScratch::default());
        }
        while self.frontier.len() < self.workers.len() {
            self.frontier.push(Segment::default());
        }
        let ExploreArena {
            workers,
            frontier,
            bins_in,
            ..
        } = self;
        for seg in frontier.iter_mut() {
            seg.clear();
        }
        for bin in bins_in.iter_mut() {
            bin.clear();
        }
        for w in workers.iter_mut() {
            while w.candidates.len() < SHARDS {
                w.candidates.push(Vec::new());
            }
            for bin in w.candidates.iter_mut() {
                bin.clear();
            }
            w.violations.clear();
            w.out.clear();
            w.misses.clear();
            w.patches.clear();
        }
    }

    /// Reconstructs the full schedule ending in `last`, a record whose
    /// parent sits at depth `depth` (so the path has `depth + 1` steps).
    fn reconstruct(&self, depth: usize, last: PathRec) -> Vec<ScheduleStep> {
        let mut steps = vec![last.step()];
        let mut idx = last.parent() as usize;
        // A depth-0 violation has no interior path to walk: on a fresh
        // arena the path store holds no level yet. Reachable only from a
        // corrupted start, where the very first deliver can already be a
        // phantom.
        for d in (1..=depth).rev() {
            let rec = self
                .paths
                .get(d, idx, self.spill.as_ref().map(|s| &s.paths));
            steps.push(rec.step());
            idx = rec.parent() as usize;
        }
        steps.reverse();
        steps
    }
}

/// The work-stealing breadth-first exploration engine, driven by
/// [`Explorer::parallel`](crate::Explorer::parallel).
#[derive(Debug, Clone)]
pub(crate) struct ParallelExplorer {
    threads: usize,
    telemetry: Option<ExploreTelemetry>,
}

/// Pre-bound metric handles for the explorer. Recording is relaxed atomics
/// on shared cells, so worker threads update them lock-free; nothing here
/// is ever read back into the search, keeping reports byte-identical with
/// telemetry on or off.
#[derive(Debug, Clone)]
struct ExploreTelemetry {
    registry: Arc<Registry>,
    trace: Option<Arc<TraceSink>>,
    /// Frontier nodes expanded (worker-side).
    expansions: Counter,
    /// Successors generated across all levels (worker-side).
    candidates: Counter,
    /// Successors rejected as already-visited: frozen prior-level hits in
    /// workers plus same-level duplicates caught by the sorted merge.
    dedup_hits: Counter,
    /// Unique states admitted to the visited set.
    states: Counter,
    /// Successor transitions put to sleep by the partial-order reduction
    /// (worker-side; stays 0 with `--por` off or inapplicable).
    pruned: Counter,
    /// Nanoseconds spent in the *serial* part of the per-slice merge
    /// (transpose, admit and rank, hand-back — the per-shard sort/probe
    /// work runs on worker threads and is excluded). This over wall time is the
    /// engine's Amdahl serial fraction; a release-only test guards its share.
    merge_serial: Counter,
    /// Nanoseconds of wall time spent expanding the frontier levels:
    /// loading each node's record and trying its actions (on worker
    /// threads), timed once per level.
    expand: Counter,
    /// Nanoseconds spent rebuilding the merge winners' systems from their
    /// parents (the phase after the merge; mostly on worker threads).
    rebuild: Counter,
    /// Rank slices expanded, merged and admitted: one per level without
    /// a memory budget.
    slices: Counter,
    /// Frontier width, one observation per depth level.
    frontier_width: Histogram,
}

impl ExploreTelemetry {
    fn new(registry: Arc<Registry>, trace: Option<Arc<TraceSink>>) -> Self {
        ExploreTelemetry {
            expansions: registry.counter("explore.expansions"),
            candidates: registry.counter("explore.candidates"),
            dedup_hits: registry.counter("explore.dedup_hits"),
            states: registry.counter("explore.states"),
            pruned: registry.counter("explore.pruned_states"),
            merge_serial: registry.counter("explore.merge_serial_ns"),
            expand: registry.counter("explore.phase_ns.expand"),
            rebuild: registry.counter("explore.phase_ns.rebuild"),
            slices: registry.counter("explore.slices"),
            frontier_width: registry.histogram("explore.frontier_width"),
            registry,
            trace,
        }
    }

    /// End-of-run metrics: the ones both engines export
    /// ([`record_run_end`]), plus this engine's visited-set shard occupancy
    /// (balance of the mixed-digest shard split, for tiers with resident
    /// shards), its peak frontier, level-store and candidate bytes, the
    /// bytes of its path records (one per admitted non-root state), the
    /// bytes it streamed through its spill files, and the distinct station
    /// states its records named.
    fn finalize(
        &self,
        visited: &dyn VisitedSet,
        stations: &StationTable,
        elapsed_secs: f64,
        peaks: Peaks,
        path_bytes: usize,
        streamed: Streamed,
    ) {
        let occupancy = self.registry.histogram("explore.shard_occupancy");
        let mut sizes = Vec::new();
        visited.shard_sizes(&mut sizes);
        for size in sizes {
            occupancy.record(size);
        }
        self.registry
            .gauge("explore.peak_frontier_bytes")
            .set(peaks.frontier_bytes as u64);
        self.registry
            .gauge("explore.peak_candidate_bytes")
            .set(peaks.candidate_bytes as u64);
        self.registry
            .gauge("explore.peak_level_candidate_bytes")
            .set(peaks.level_candidate_bytes as u64);
        self.registry
            .gauge("explore.level_store_resident_bytes")
            .set(peaks.resident_bytes as u64);
        self.registry
            .gauge("explore.path_bytes")
            .set(path_bytes as u64);
        if streamed.level_bytes > 0 {
            self.registry
                .counter("explore.level_spill_bytes")
                .add(streamed.level_bytes);
        }
        if streamed.path_bytes > 0 {
            self.registry
                .counter("explore.path_spill_bytes")
                .add(streamed.path_bytes);
        }
        self.registry
            .gauge("explore.station_states.tx")
            .set(stations.transmitters() as u64);
        self.registry
            .gauge("explore.station_states.rx")
            .set(stations.receivers() as u64);
        record_run_end(&self.registry, visited, elapsed_secs);
    }
}

impl ParallelExplorer {
    /// Creates an explorer with `threads` workers; `0` means one per
    /// available core.
    pub(crate) fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        ParallelExplorer {
            threads,
            telemetry: None,
        }
    }

    /// Attaches a metrics registry (and optionally a trace sink) that every
    /// subsequent [`explore_in`](ParallelExplorer::explore_in) call records
    /// into: states/candidates/dedup counters, per-depth frontier widths,
    /// shard occupancy, throughput, peak frontier bytes, and per-level
    /// spans. Telemetry never feeds back into the search — outcomes stay
    /// byte-identical.
    pub(crate) fn with_telemetry(
        mut self,
        registry: Arc<Registry>,
        trace: Option<Arc<TraceSink>>,
    ) -> Self {
        self.telemetry = Some(ExploreTelemetry::new(registry, trace));
        self
    }

    /// The worker count this explorer will use.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Explores `proto` within `cfg`'s scope through `arena`, reusing its
    /// buffers: the shortest counterexample, a certificate, or a
    /// truncation — identical for every thread count and to a fresh-arena
    /// run; only the allocation profile changes.
    pub(crate) fn explore_in(
        &self,
        proto: &dyn DataLink,
        cfg: &ExploreConfig,
        arena: &mut ExploreArena,
    ) -> ExploreOutcome {
        let started = Instant::now();
        arena.reset(self.threads);
        let (outcome, peaks) = self.run(proto, cfg, arena);
        // Deleting the spill files frees their space, whichever way the
        // run ended.
        if let Some(spill) = arena.spill.take() {
            arena.streamed.level_disk_bytes = spill.levels.iter().map(SpillFile::extent).sum();
        }
        if let Some(tel) = &self.telemetry {
            let elapsed = started.elapsed().as_secs_f64();
            let path_bytes = arena.paths.records() * std::mem::size_of::<PathRec>();
            tel.finalize(
                arena.visited(),
                &arena.stations,
                elapsed,
                peaks,
                path_bytes,
                arena.streamed,
            );
            tel.registry
                .gauge("explore.threads")
                .set(self.threads as u64);
        }
        outcome
    }

    fn run(
        &self,
        proto: &dyn DataLink,
        cfg: &ExploreConfig,
        arena: &mut ExploreArena,
    ) -> (ExploreOutcome, Peaks) {
        let tel = self.telemetry.as_ref();
        let root = build_root(proto, cfg, false);
        // The sleep rule is a pure function of (state, action), so workers
        // apply it independently with no coordination — pruning cannot
        // depend on discovery order or thread count.
        let por = PorCtx::new(&root, cfg);
        let root_key = por.key(&root);
        arena.visited.insert(root_key);
        let mut states = 1usize;
        if let Some(t) = tel {
            t.states.inc();
        }
        let mut peaks = Peaks::default();
        if states >= cfg.max_states {
            return (ExploreOutcome::Truncated { states }, peaks);
        }
        for w in arena.workers.iter_mut() {
            prime(&mut w.node, &root);
        }
        // The root level is one record, and stays resident.
        let ids = arena.stations.intern(&root);
        arena.frontier[0].push(&root, ids, None);
        arena.frontier[0].seal(None);
        index_level(&arena.frontier, &mut arena.index);
        peaks.frontier_bytes = arena.frontier[0].bytes() + arena.stations.bytes();
        peaks.resident_bytes = arena.frontier[0].peak_resident();
        let spilling = arena.spilling();
        let slice_ranks = slice_ranks(arena.spec);

        for depth in 0..cfg.max_depth {
            let width = level_len(&arena.frontier);
            if width == 0 {
                break;
            }
            let _level_span = tel.and_then(|t| t.trace.as_deref()).map(|trace| {
                trace.span_with(
                    "explore",
                    format!("level {depth}"),
                    vec![
                        ("depth".into(), depth as u64),
                        ("frontier".into(), width as u64),
                    ],
                )
            });
            if let Some(t) = tel {
                t.frontier_width.record(width as u64);
            }

            // The level goes through expand, merge and admit one slice of
            // ranks at a time, in ascending order: without a budget the
            // whole level at once. A key first reached in a slice is
            // admitted before the next slice expands, so its duplicates
            // there are visited hits, as they would have lost the merge to
            // its smaller path record; the winners and their order are the
            // whole-level merge's.
            let slice = slice_ranks.unwrap_or(width);
            let mut level_candidates = 0;
            let mut truncated = false;
            for start in (0..width).step_by(slice) {
                let ranks = start as u32..(start + slice).min(width) as u32;
                if let Some(t) = tel {
                    t.slices.inc();
                }
                let expand_started = tel.map(|_| Instant::now());
                self.expand_slice(depth, ranks, cfg, por, arena);
                if let (Some(t), Some(started)) = (tel, expand_started) {
                    t.expand.add(started.elapsed().as_nanos() as u64);
                }

                // Violations: the lexicographically smallest path wins;
                // within one level that is the minimal (parent rank, step)
                // pair, and slices ascend in parent rank, so the first
                // slice that finds one holds it. It beats a state budget
                // an earlier slice of the level ran out, as it does when
                // the level is one slice.
                let best_violation = arena
                    .workers
                    .iter()
                    .flat_map(|w| w.violations.iter().copied())
                    .min();
                if let Some(rec) = best_violation {
                    let steps = arena.reconstruct(depth, rec);
                    return (materialize(proto, cfg, steps), peaks);
                }
                let found = arena.candidates();
                level_candidates += found;
                peaks.candidate_bytes = peaks
                    .candidate_bytes
                    .max(found * std::mem::size_of::<Candidate>());
                if truncated {
                    // Past the state budget the rest of the level is
                    // expanded for its violations only.
                    arena.drop_candidates();
                } else {
                    truncated = self.admit_slice(depth, found, cfg, arena, &mut states);
                }
            }
            peaks.level_candidate_bytes = peaks
                .level_candidate_bytes
                .max(level_candidates * std::mem::size_of::<Candidate>());
            if truncated {
                return (ExploreOutcome::Truncated { states }, peaks);
            }

            let ExploreArena {
                workers,
                paths,
                frontier,
                index,
                stations,
                spill,
                streamed,
                ..
            } = &mut *arena;

            // Rebuild: the next frontier is the winners' records, in rank
            // order — unless the depth bound ends the search here, since
            // nothing expands a last level. The workers' output segments
            // then trade places with the expanded level's, and the level's
            // path records are finished. Under a budget both go to the
            // spill files, opened here the first time: the next level over
            // the dead one two levels back.
            if depth + 1 < cfg.max_depth {
                if spilling && spill.is_none() {
                    *spill = Some(Spill::create().expect("create the level spill files"));
                }
                if let Some(spill) = spill.as_mut() {
                    spill.levels[(depth + 1) % 2].rewind();
                }
                let (read, file, path_file) = match spill.as_ref() {
                    Some(s) => (
                        Some(&s.levels[depth % 2]),
                        Some(&s.levels[(depth + 1) % 2]),
                        Some(&s.paths),
                    ),
                    None => (None, None, None),
                };
                let rebuild_started = tel.map(|_| Instant::now());
                let level = LevelView {
                    segments: frontier,
                    index,
                    file: read,
                };
                rebuild_frontier(
                    self.threads,
                    paths.level(depth + 1),
                    level,
                    stations,
                    workers,
                    file,
                );
                if let (Some(t), Some(started)) = (tel, rebuild_started) {
                    t.rebuild.add(started.elapsed().as_nanos() as u64);
                }
                let next: usize = workers.iter().map(|w| w.out.bytes()).sum();
                peaks.frontier_bytes = peaks
                    .frontier_bytes
                    .max(level_bytes(frontier) + next + stations.bytes());
                let resident = frontier.iter().map(Segment::resident).sum::<usize>()
                    + workers
                        .iter()
                        .map(|w| w.out.peak_resident() + w.block.capacity())
                        .sum::<usize>();
                peaks.resident_bytes = peaks.resident_bytes.max(resident);
                if file.is_some() {
                    streamed.level_bytes += next as u64;
                }
                streamed.path_bytes += paths.finish(depth + 1, path_file);
                for (seg, w) in frontier.iter_mut().zip(workers.iter_mut()) {
                    std::mem::swap(seg, &mut w.out);
                    w.out.clear();
                }
                index_level(frontier, index);
            }
        }
        (ExploreOutcome::Exhausted { states }, peaks)
    }

    /// Merges the candidates the workers found in the slice just expanded
    /// and admits the winners: their keys to the visited set, their path
    /// records to the level in flight, in path order. `total` is the
    /// slice's candidate count. Returns whether the state budget ran out.
    fn admit_slice(
        &self,
        depth: usize,
        total: usize,
        cfg: &ExploreConfig,
        arena: &mut ExploreArena,
        states: &mut usize,
    ) -> bool {
        let tel = self.telemetry.as_ref();
        // Deterministic sharded merge: every shard is a disjoint key
        // space, so each is sorted by (key, parent rank, step),
        // deduplicated, and disk-probed independently — on worker
        // threads — and the shard-local decisions are exactly the
        // decisions the old global sort made. Only the transpose, the
        // admit-and-rank pass and the hand-back remain serial (timed
        // as `explore.merge_serial_ns` when telemetry is attached).
        let ExploreArena {
            visited,
            workers,
            paths,
            bins_in,
            merges,
            heap,
            ..
        } = arena;

        let serial_started = tel.map(|_| Instant::now());
        // Transpose worker-major bins into shard-major groups with
        // header-only Vec swaps; `bins_in[s * stride + w]` then holds
        // worker w's candidates for shard s.
        let stride = workers.len();
        while bins_in.len() < SHARDS * stride {
            bins_in.push(Vec::new());
        }
        for (w, scratch) in workers.iter_mut().enumerate() {
            for (s, bin) in scratch.candidates.iter_mut().enumerate() {
                std::mem::swap(&mut bins_in[s * stride + w], bin);
            }
        }
        let mut serial_ns = serial_started.map_or(0, |t| t.elapsed().as_nanos() as u64);

        // Per-shard sort + same-slice dedup + batched spilled-run
        // probe, in the workers' own bins, fanned out over the worker
        // threads in groups of shards. Tiny slices stay inline: a scope
        // spawn costs more than sorting a few dozen candidates.
        let frozen: &dyn VisitedSet = &**visited;
        let merge_threads = self.threads.min(SHARDS);
        if merge_threads == 1 || total < CHUNK * SHARDS {
            merge_shards(merges, &mut bins_in[..SHARDS * stride], frozen);
        } else {
            let per = SHARDS.div_ceil(merge_threads);
            std::thread::scope(|scope| {
                for (ms, bs) in merges
                    .chunks_mut(per)
                    .zip(bins_in[..SHARDS * stride].chunks_mut(per * stride))
                {
                    scope.spawn(move || merge_shards(ms, bs, frozen));
                }
            });
        }

        let serial_resumed = tel.map(|_| Instant::now());

        // Admit and rank (serial): each bin's winners sit in
        // descending (parent rank, step) order, so a min-heap over the
        // bin tails emits the slice in global path order with O(1)
        // by-value pops, after the earlier slices' winners — each node's
        // index in the level's record arena, and so in the next frontier,
        // *is* its path rank, the invariant that lets the merge compare
        // one-word records instead of whole paths. Each winner key was
        // proven absent by the resident probe at expansion time plus the
        // spilled probe above, so the probe-free insert admits every one.
        let slice_dedup: usize = merges.iter().map(|m| m.rejected).sum();
        if let Some(t) = tel {
            t.dedup_hits.add(slice_dedup as u64);
        }
        let level = paths.in_flight(depth + 1);
        let bins = &mut bins_in[..SHARDS * stride];
        heap.clear();
        for (i, bin) in bins.iter().enumerate() {
            if let Some(c) = bin.last() {
                heap.push(Reverse((c.rec, i)));
            }
        }
        let mut truncated = false;
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((_, i)) = *top;
            let c = bins[i].pop().expect("heap tracks non-empty tails");
            let admitted = visited.insert_new(c.key);
            debug_assert!(admitted, "the merge proved every winner absent");
            *states += 1;
            if let Some(t) = tel {
                t.states.inc();
            }
            level.push(c.rec);
            if *states >= cfg.max_states {
                truncated = true;
                break;
            }
            // Replacing the top sifts it down once, instead of a pop
            // and a push.
            match bins[i].last() {
                Some(next) => *top = Reverse((next.rec, i)),
                None => {
                    PeekMut::pop(top);
                }
            }
        }

        // Hand every bin back to its worker header-only, so each
        // candidate's capacity is retained once, in the worker that
        // fills it.
        for (w, scratch) in workers.iter_mut().enumerate() {
            for (s, bin) in scratch.candidates.iter_mut().enumerate() {
                std::mem::swap(&mut bins[s * stride + w], bin);
                bin.clear();
            }
        }
        if let (Some(t), Some(resumed)) = (tel, serial_resumed) {
            serial_ns += resumed.elapsed().as_nanos() as u64;
            t.merge_serial.add(serial_ns);
        }
        truncated
    }

    /// Expands the frontier nodes ranked `ranks`, leaving each worker's
    /// discoveries in its scratch buffers. Workers claim work from an
    /// atomic cursor: a resident level in [`CHUNK`]-sized rank ranges, a
    /// level in the spill file in whole blocks, each read once and clipped
    /// to `ranks`. A slice of one claim runs on the calling thread without
    /// spawning a scope.
    fn expand_slice(
        &self,
        depth: usize,
        ranks: std::ops::Range<u32>,
        cfg: &ExploreConfig,
        por: PorCtx,
        arena: &mut ExploreArena,
    ) {
        let ExploreArena {
            visited,
            workers,
            frontier,
            index,
            stations,
            spill,
            ..
        } = arena;
        // Frozen for the slice: workers only probe membership, so a shared
        // borrow of the tier is all they get (the trait requires `Sync`).
        let level = Level {
            frontier: LevelView {
                segments: frontier,
                index,
                file: spill.as_ref().map(|s| &s.levels[depth % 2]),
            },
            stations,
            visited: &**visited,
            cfg,
            por,
            tel: self.telemetry.as_ref(),
        };
        let (units, chunk) = match level.frontier.file {
            Some(_) => (
                level.frontier.block_of(ranks.start)..level.frontier.block_of(ranks.end - 1) + 1,
                1,
            ),
            None => (ranks.start as usize..ranks.end as usize, CHUNK),
        };
        let cursor = ChunkCursor::new(units.len(), chunk);
        let claimed = |claim: std::ops::Range<usize>| {
            let claim = units.start + claim.start..units.start + claim.end;
            let got = match level.frontier.file {
                Some(_) => level.frontier.ranks(claim),
                None => claim.start as u32..claim.end as u32,
            };
            got.start.max(ranks.start)..got.end.min(ranks.end)
        };
        let nworkers = self.threads.min(units.len().div_ceil(chunk)).max(1);
        if nworkers == 1 {
            while let Some(claim) = cursor.claim() {
                expand_ranks(level, claimed(claim), &mut workers[0]);
            }
            return;
        }
        std::thread::scope(|scope| {
            for scratch in workers[..nworkers].iter_mut() {
                let (cursor, claimed) = (&cursor, &claimed);
                scope.spawn(move || {
                    while let Some(claim) = cursor.claim() {
                        expand_ranks(level, claimed(claim), scratch);
                    }
                });
            }
        });
    }
}

/// What every expansion of one slice reads, shared by the workers.
#[derive(Clone, Copy)]
struct Level<'a> {
    frontier: LevelView<'a>,
    stations: &'a StationTable,
    visited: &'a dyn VisitedSet,
    cfg: &'a ExploreConfig,
    por: PorCtx,
    tel: Option<&'a ExploreTelemetry>,
}

/// Expands the frontier nodes ranked `ranks`, reading each block they
/// span once.
fn expand_ranks(level: Level<'_>, ranks: std::ops::Range<u32>, scratch: &mut WorkerScratch) {
    let mut buf = std::mem::take(&mut scratch.block);
    let mut rank = ranks.start;
    let mut b = level.frontier.block_of(rank);
    while rank < ranks.end {
        level.frontier.fetch(b, &mut buf);
        let block = level.frontier.block(b, &buf);
        let end = ranks.end.min(block.first() + block.len() as u32);
        for r in rank..end {
            expand_node(
                level,
                r,
                block.record((r - block.first()) as usize),
                scratch,
            );
        }
        rank = end;
        b += 1;
    }
    scratch.block = buf;
}

/// Loads the node ranked `rank`, whose record is `record`, into the
/// worker's warm system and tries every enabled action on the reused
/// trial.
fn expand_node(level: Level<'_>, rank: u32, record: &[u8], scratch: &mut WorkerScratch) {
    let Level {
        visited,
        cfg,
        por,
        tel,
        ..
    } = level;
    if let Some(t) = tel {
        t.expansions.inc();
    }
    let sys = scratch.node.as_mut().expect("primed at run start");
    load(record, level.stations, sys);
    let sys = &*sys;
    enabled_actions_into(sys, cfg, &mut scratch.oldest, &mut scratch.actions);
    let next = scratch.trial.get_or_insert_with(|| sys.clone());
    for &action in &scratch.actions {
        next.assign_from(sys);
        apply(next, action);
        let rec = PathRec::new(rank, to_step(action));
        debug_assert_eq!(
            from_step(rec.step()),
            action,
            "the rebuild replays the record"
        );
        if next.violation().is_some() {
            scratch.violations.push(rec);
            continue;
        }
        // Sleep-set pruning, mirrored exactly from the sequential engine:
        // after the violation check, before dedup. Pure in (state, action),
        // so every thread schedule prunes the identical edge set.
        if por.sleeps(sys, next, action, cfg) {
            if let Some(t) = tel {
                t.pruned.inc();
            }
            continue;
        }
        let key = por.key(next);
        // Frozen *resident* membership check — for disk-spilling tiers
        // this is the RAM delta only; spilled-run membership is settled
        // once per slice by the merge's batched sorted probe, so the hot
        // loop never waits on a positioned read. Same-slice duplicates are
        // likewise resolved in the merge.
        if !visited.contains_resident(key) {
            if let Some(t) = tel {
                t.candidates.inc();
            }
            scratch.candidates[shard_of(key)].push(Candidate { key, rec });
        } else if let Some(t) = tel {
            t.dedup_hits.inc();
        }
    }
}

/// The rebuild phase: writes the next level's records from the level's
/// winner records (`recs`, in rank order) by replaying each record's step
/// on its parent, read from `level`. A rebuild depends only on its parent
/// and step, so the records are cut into contiguous slices, one per
/// worker thread, and worker `w` writes its slice to `workers[w].out`,
/// sealing its blocks into `file` if there is one; concatenated in worker
/// order the outputs are the next level in rank order. Small levels stay
/// inline, with the merge's threshold: a scope spawn costs more than a
/// thousand rebuilds.
///
/// Workers resolve station ids against the frozen `stations` and intern
/// the states it lacks in their own scratch under provisional ids. A
/// serial pass in worker order then interns those misses in `stations`
/// and patches the provisional ids in place, so the table's contents are
/// a function of the level's records alone.
fn rebuild_frontier(
    threads: usize,
    recs: &[PathRec],
    level: LevelView<'_>,
    stations: &mut StationTable,
    workers: &mut [WorkerScratch],
    file: Option<&SpillFile>,
) {
    let nworkers = threads.min(recs.len().div_ceil(CHUNK * SHARDS)).max(1);
    let per = recs.len().div_ceil(nworkers).max(1);
    let frozen = &*stations;
    if nworkers == 1 {
        rebuild_slice(recs, level, frozen, &mut workers[0], file);
    } else {
        std::thread::scope(|scope| {
            for (slice, scratch) in recs.chunks(per).zip(workers.iter_mut()) {
                scope.spawn(move || rebuild_slice(slice, level, frozen, scratch, file));
            }
        });
    }
    for scratch in workers[..nworkers].iter_mut() {
        if scratch.patches.is_empty() {
            continue;
        }
        stations.absorb(&scratch.misses, &mut scratch.tx_ids, &mut scratch.rx_ids);
        let settle = |id: u32, ids: &[u32]| match id & PROVISIONAL {
            0 => id,
            _ => ids[(id & !PROVISIONAL) as usize],
        };
        for &(at, (tx, rx)) in &scratch.patches {
            let ids = (settle(tx, &scratch.tx_ids), settle(rx, &scratch.rx_ids));
            scratch.out.set_stations(at, ids, file);
        }
        scratch.patches.clear();
        scratch.misses.clear();
    }
}

/// Rebuilds the children `recs` (in rank order, so siblings are adjacent
/// and parents ascend): the parents are read a block at a time, each
/// parent is loaded once into the worker's warm node, and each child is
/// the trial refilled from it with the record's step applied, appended to
/// `scratch.out` as a record.
fn rebuild_slice(
    recs: &[PathRec],
    level: LevelView<'_>,
    stations: &StationTable,
    scratch: &mut WorkerScratch,
    file: Option<&SpillFile>,
) {
    let WorkerScratch {
        node,
        trial,
        out,
        block: buf,
        misses,
        patches,
        ..
    } = scratch;
    let node = node.as_mut().expect("primed at run start");
    let mut fetched = None;
    let mut loaded = None;
    for rec in recs {
        let parent = rec.parent();
        if loaded != Some(parent) {
            let b = match fetched {
                Some(b) if level.block(b, buf).holds(parent) => b,
                _ => {
                    let b = level.block_of(parent);
                    level.fetch(b, buf);
                    fetched = Some(b);
                    b
                }
            };
            let block = level.block(b, buf);
            load(
                block.record((parent - block.first()) as usize),
                stations,
                node,
            );
            loaded = Some(parent);
        }
        let trial = trial.get_or_insert_with(|| node.clone());
        trial.assign_from(node);
        apply(trial, from_step(rec.step()));
        let ids = stations.resolve(misses, trial);
        let at = out.push(trial, ids, file);
        if (ids.0 | ids.1) & PROVISIONAL != 0 {
            patches.push((at, ids));
        }
    }
    out.seal(file);
}

/// The sharded merge of a group of shards, each in the workers' own bins
/// for it (`bins` holds the shards' bins in turn, as many per shard): sort
/// each bin by `(key, parent rank, step)`, then walk a shard's bins k-way
/// to keep each key's first candidate only, and to collect the shard's
/// sorted unique key batch while something is on disk. One probe then
/// settles every batch of the group against the spilled runs, reading
/// each run block once for the group, and a second walk per shard drops
/// the candidates it found. Each bin is left holding its winners in
/// *descending* path-record order, so rank assignment can pop the minimum
/// off its tail in O(1). Groups run concurrently — every buffer a group
/// touches is its own.
fn merge_shards(merges: &mut [ShardMerge], bins: &mut [Vec<Candidate>], frozen: &dyn VisitedSet) {
    let stride = bins.len() / merges.len();
    let on_disk = frozen.disk_runs() > 0;
    for (m, bins) in merges.iter_mut().zip(bins.chunks_mut(stride)) {
        // `rejected` counts the shard's candidates down to its losers.
        m.rejected = 0;
        for bin in bins.iter_mut() {
            bin.sort_unstable_by_key(Candidate::order);
            m.rejected += bin.len();
        }
        m.keys.clear();
        keep_firsts(bins, &mut m.cursors, &mut m.heads, |c| {
            if on_disk {
                m.keys.push(c.key);
            }
            true
        });
    }
    if on_disk {
        let group = merges.len();
        let mut shards = merges.iter_mut().map(|m| {
            m.hits.clear();
            m.hits.resize(m.keys.len(), false);
            (&m.keys[..], &mut m.hits[..])
        });
        let mut batches: [(&[u64], &mut [bool]); SHARDS] =
            std::array::from_fn(|_| shards.next().unwrap_or((&[], &mut [])));
        frozen.probe_spilled_batches(&mut batches[..group]);
    }
    for (m, bins) in merges.iter_mut().zip(bins.chunks_mut(stride)) {
        if on_disk {
            let mut hits = m.hits.iter();
            keep_firsts(bins, &mut m.cursors, &mut m.heads, |_| {
                !hits.next().expect("one hit per key")
            });
        }
        for bin in bins.iter_mut() {
            bin.sort_unstable_by_key(|c| Reverse(c.rec));
            m.rejected -= bin.len();
        }
    }
}

/// Walks `bins`, each sorted by [`Candidate::order`], k-way in ascending
/// order through the min-heap `heads` over the bins' next candidates, and
/// offers `keep` the first candidate of every distinct key. Each bin is
/// cut, in place and in order, to the candidates `keep` accepted;
/// `cursors` holds each bin's read and write positions.
fn keep_firsts(
    bins: &mut [Vec<Candidate>],
    cursors: &mut Vec<(usize, usize)>,
    heads: &mut BinaryHeap<Reverse<(u64, PathRec, usize)>>,
    mut keep: impl FnMut(&Candidate) -> bool,
) {
    cursors.clear();
    cursors.resize(bins.len(), (0, 0));
    heads.clear();
    for (b, bin) in bins.iter().enumerate() {
        if let Some(c) = bin.first() {
            heads.push(Reverse((c.key, c.rec, b)));
        }
    }
    let mut last = None;
    while let Some(mut top) = heads.peek_mut() {
        let Reverse((key, rec, b)) = *top;
        let (read, write) = &mut cursors[b];
        if last != Some(key) {
            last = Some(key);
            let first = Candidate { key, rec };
            if keep(&first) {
                // The write position trails the read position, so this
                // only overwrites a candidate the walk has passed.
                bins[b][*write] = first;
                *write += 1;
            }
        }
        *read += 1;
        match bins[b].get(*read) {
            Some(c) => *top = Reverse((c.key, c.rec, b)),
            None => {
                PeekMut::pop(top);
            }
        }
    }
    for (bin, &(_, write)) in bins.iter_mut().zip(cursors.iter()) {
        bin.truncate(write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{record_stations, StateCodec};
    use crate::explore::Discipline;
    use crate::levels::LEVEL_BLOCK_BYTES;
    use crate::visited::FnvSet;
    use crate::visited::SHARDS;
    use crate::Explorer;
    use nonfifo_protocols::{AlternatingBit, GoBackN, NaiveCycle, SequenceNumber};

    fn explore(proto: &dyn DataLink, cfg: &ExploreConfig) -> ExploreOutcome {
        Explorer::new().explore(proto, cfg)
    }

    fn par(proto: &dyn DataLink, cfg: &ExploreConfig, threads: usize) -> ExploreOutcome {
        fresh(&ParallelExplorer::new(threads), proto, cfg)
    }

    fn fresh(
        engine: &ParallelExplorer,
        proto: &dyn DataLink,
        cfg: &ExploreConfig,
    ) -> ExploreOutcome {
        engine.explore_in(proto, cfg, &mut ExploreArena::default())
    }

    fn outcome_kind(o: &ExploreOutcome) -> &'static str {
        match o {
            ExploreOutcome::Counterexample { .. } => "counterexample",
            ExploreOutcome::Exhausted { .. } => "exhausted",
            ExploreOutcome::Truncated { .. } => "truncated",
        }
    }

    #[test]
    fn byte_identical_reports_across_thread_counts() {
        let cfg = ExploreConfig::default();
        let protos: Vec<Box<dyn DataLink>> = vec![
            Box::new(AlternatingBit::new()),
            Box::new(NaiveCycle::new(3)),
            Box::new(SequenceNumber::new()),
            Box::new(GoBackN::new(1)),
        ];
        for proto in &protos {
            let reports: Vec<String> = [1, 2, 8]
                .iter()
                .map(|&t| par(proto.as_ref(), &cfg, t).report())
                .collect();
            assert_eq!(reports[0], reports[1], "{}: 1 vs 2 threads", proto.name());
            assert_eq!(reports[0], reports[2], "{}: 1 vs 8 threads", proto.name());
        }
    }

    #[test]
    fn agrees_with_sequential_oracle_on_kind_depth_and_states() {
        let cfg = ExploreConfig::default();
        let protos: Vec<Box<dyn DataLink>> = vec![
            Box::new(AlternatingBit::new()),
            Box::new(NaiveCycle::new(3)),
            Box::new(SequenceNumber::new()),
        ];
        for proto in &protos {
            let seq = explore(proto.as_ref(), &cfg);
            let par = par(proto.as_ref(), &cfg, 4);
            assert_eq!(
                outcome_kind(&seq),
                outcome_kind(&par),
                "{}: outcome kinds diverge",
                proto.name()
            );
            match (&seq, &par) {
                (
                    ExploreOutcome::Counterexample { depth: a, .. },
                    ExploreOutcome::Counterexample { depth: b, .. },
                ) => assert_eq!(a, b, "{}: counterexample depths diverge", proto.name()),
                (
                    ExploreOutcome::Exhausted { states: a },
                    ExploreOutcome::Exhausted { states: b },
                ) => assert_eq!(a, b, "{}: certificate state counts diverge", proto.name()),
                _ => {}
            }
        }
    }

    #[test]
    fn parallel_counterexample_replays_and_is_shortest() {
        let outcome = par(&AlternatingBit::new(), &ExploreConfig::default(), 8);
        let ExploreOutcome::Counterexample {
            depth, schedule, ..
        } = outcome
        else {
            panic!("expected counterexample");
        };
        assert!(depth <= 7, "depth {depth}");
        let sys = schedule.run(&AlternatingBit::new()).expect("replay");
        assert!(sys.violation().is_some());
    }

    #[test]
    fn truncation_is_deterministic_and_explicit() {
        let cfg = ExploreConfig {
            max_states: 10,
            ..ExploreConfig::default()
        };
        let a = par(&SequenceNumber::new(), &cfg, 1);
        let b = par(&SequenceNumber::new(), &cfg, 8);
        assert!(a.is_truncated(), "got {a:?}");
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn depth_zero_violations_reconstruct_from_a_fresh_arena() {
        // Corrupt seed 8 preloads junk whose very first deliver is already
        // a phantom: the shortest counterexample is one action, found at
        // depth 0 before the path arena holds any levels. Regression:
        // `reconstruct` used to slice `levels[1..=0]` on the still-empty
        // arena and panic out of bounds.
        let cfg = ExploreConfig {
            max_messages: 2,
            max_depth: 8,
            max_pool: 4,
            max_states: 300_000,
            corrupt_start: Some(8),
            ..ExploreConfig::default()
        };
        for threads in [1, 4] {
            match par(&SequenceNumber::new(), &cfg, threads) {
                ExploreOutcome::Counterexample { schedule, .. } => {
                    assert_eq!(schedule.steps().len(), 1, "{threads} threads");
                }
                other => {
                    panic!("{threads} threads: expected a one-action counterexample, got {other:?}")
                }
            }
        }
    }

    #[test]
    fn corrupted_starts_flow_through_the_parallel_engine() {
        // Same corrupted root on every engine and thread count: reports are
        // byte-identical, and a parallel-found counterexample re-materialises
        // from the seeded root (materialize panics otherwise).
        for seed in 0..4 {
            let cfg = ExploreConfig {
                max_messages: 2,
                max_depth: 8,
                max_pool: 4,
                max_states: 300_000,
                corrupt_start: Some(seed),
                ..ExploreConfig::default()
            };
            let reference = explore(&SequenceNumber::new(), &cfg).report();
            for threads in [1, 4] {
                let par = par(&SequenceNumber::new(), &cfg, threads).report();
                assert_eq!(par, reference, "seed {seed}, {threads} threads");
            }
        }
    }

    #[test]
    fn disciplines_flow_through_the_parallel_engine() {
        let lossy = ExploreConfig {
            discipline: Discipline::LossyFifo,
            ..ExploreConfig::default()
        };
        assert!(par(&AlternatingBit::new(), &lossy, 4).is_certificate());
        let reorder = ExploreConfig {
            discipline: Discipline::BoundedReorder(8),
            ..ExploreConfig::default()
        };
        assert!(par(&AlternatingBit::new(), &reorder, 4).is_counterexample());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(ParallelExplorer::new(0).threads() >= 1);
        assert_eq!(ParallelExplorer::new(3).threads(), 3);
    }

    #[test]
    fn arena_reuse_preserves_reports() {
        // Back-to-back explorations through one arena — including a switch
        // of protocol, which exercises the assign_from type-mismatch
        // fallback on the warm systems and the station table's kept boxes —
        // match fresh-arena runs exactly.
        let explorer = ParallelExplorer::new(2);
        let cfg = ExploreConfig::default();
        let mut arena = ExploreArena::default();
        for _ in 0..2 {
            for proto in [
                &AlternatingBit::new() as &dyn DataLink,
                &SequenceNumber::new() as &dyn DataLink,
            ] {
                let warm = explorer.explore_in(proto, &cfg, &mut arena).report();
                let cold = fresh(&explorer, proto, &cfg).report();
                assert_eq!(warm, cold, "{}", proto.name());
            }
        }
    }

    /// The pre-optimization engine, kept as a reference: every frontier
    /// node owns its full `Vec<ScheduleStep>` path, and the merge compares
    /// whole paths. The production engine's one-word `(parent rank, step)`
    /// records must reproduce its reports byte for byte.
    fn cloned_path_reference(proto: &dyn DataLink, cfg: &ExploreConfig) -> ExploreOutcome {
        struct Node {
            sys: System,
            path: Vec<ScheduleStep>,
        }
        let mut root = System::new(proto);
        root.disable_event_log();
        let mut visited = FnvSet::default();
        visited.insert(StateCodec::full().key(&root));
        let mut states = 1usize;
        let mut frontier = vec![Node {
            sys: root,
            path: Vec::new(),
        }];
        for _ in 0..cfg.max_depth {
            if frontier.is_empty() {
                break;
            }
            let mut violations: Vec<Vec<ScheduleStep>> = Vec::new();
            let mut candidates: Vec<(u64, Vec<ScheduleStep>, System)> = Vec::new();
            for node in &frontier {
                for action in crate::explore::enabled_actions(&node.sys, cfg) {
                    let mut next = node.sys.clone();
                    apply(&mut next, action);
                    let mut path = node.path.clone();
                    path.push(to_step(action));
                    if next.violation().is_some() {
                        violations.push(path);
                        continue;
                    }
                    let key = StateCodec::full().key(&next);
                    if !visited.contains(&key) {
                        candidates.push((key, path, next));
                    }
                }
            }
            if !violations.is_empty() {
                violations.sort_unstable();
                return materialize(proto, cfg, violations.swap_remove(0));
            }
            candidates.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            let mut next = Vec::new();
            for (key, path, sys) in candidates {
                if visited.insert(key) {
                    states += 1;
                    if states >= cfg.max_states {
                        return ExploreOutcome::Truncated { states };
                    }
                    next.push(Node { sys, path });
                }
            }
            frontier = next;
        }
        ExploreOutcome::Exhausted { states }
    }

    #[test]
    fn rank_merge_matches_cloned_path_reference() {
        let protos: Vec<Box<dyn DataLink>> = vec![
            Box::new(AlternatingBit::new()),
            Box::new(NaiveCycle::new(3)),
            Box::new(SequenceNumber::new()),
            Box::new(GoBackN::new(1)),
        ];
        let scopes = [
            ExploreConfig::default(),
            ExploreConfig {
                discipline: Discipline::BoundedReorder(2),
                ..ExploreConfig::default()
            },
            ExploreConfig {
                discipline: Discipline::LossyFifo,
                ..ExploreConfig::default()
            },
            ExploreConfig {
                max_states: 40,
                ..ExploreConfig::default()
            },
        ];
        for proto in &protos {
            for cfg in &scopes {
                let reference = cloned_path_reference(proto.as_ref(), cfg).report();
                for threads in [1, 4] {
                    let engine = par(proto.as_ref(), cfg, threads).report();
                    assert_eq!(
                        reference,
                        engine,
                        "{} / {} / {threads} threads: parent-pointer engine \
                         diverged from the owned-path reference",
                        proto.name(),
                        cfg.discipline,
                    );
                }
            }
        }
    }

    #[test]
    fn candidates_carry_no_system() {
        // A key and a one-word path record: re-attaching a `System` (or any
        // heap handle) to a candidate, or unpacking its record, blows this.
        assert_eq!(std::mem::size_of::<Candidate>(), 16);
        assert_eq!(std::mem::size_of::<PathRec>(), 8);
    }

    #[test]
    fn packed_path_records_keep_the_path_order() {
        let top = (1 << HEADER_BITS) - 1;
        let mut steps = vec![ScheduleStep::Send, ScheduleStep::Park];
        for h in [0, 1, top].map(Header::new) {
            steps.extend([ScheduleStep::Deliver(h), ScheduleStep::Drop(h)]);
        }
        let mut pairs = Vec::new();
        for parent in [0, 1, u32::MAX] {
            for &step in &steps {
                let rec = PathRec::new(parent, step);
                assert_eq!((rec.parent(), rec.step()), (parent, step));
                assert_eq!(from_step(rec.step()), from_step(step));
                pairs.push(((parent, step), rec));
            }
        }
        for (a, ra) in &pairs {
            for (b, rb) in &pairs {
                assert_eq!(a.cmp(b), ra.cmp(rb), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a path record's 29 bits")]
    fn path_records_reject_headers_past_29_bits() {
        PathRec::new(0, ScheduleStep::Deliver(Header::new(1 << HEADER_BITS)));
    }

    #[test]
    fn rebuild_replays_every_record_at_every_thread_count() {
        // A synthetic level wide enough for the threaded rebuild, stored as
        // three uneven segments: parent p has p % 4 children, so slice cuts
        // fall beside childless parents and inside runs of siblings. Each
        // rebuilt record must load as its parent with the record's step
        // applied, in rank order, and name only settled station ids.
        let cfg = ExploreConfig::default();
        let root = build_root(&SequenceNumber::new(), &cfg, false);
        let mut walk = vec![root.clone()];
        let mut i = 0;
        while walk.len() < 64 {
            let sys = walk[i].clone();
            for action in crate::explore::enabled_actions(&sys, &cfg) {
                let mut next = sys.clone();
                apply(&mut next, action);
                walk.push(next);
            }
            i += 1;
        }
        let parents: Vec<&System> = (0..4000).map(|p| &walk[p % walk.len()]).collect();
        let mut recs = Vec::new();
        let mut expected = Vec::new();
        for (p, parent) in parents.iter().enumerate() {
            for action in crate::explore::enabled_actions(parent, &cfg)
                .into_iter()
                .take(p % 4)
            {
                recs.push(PathRec::new(p as u32, to_step(action)));
                let mut child = (*parent).clone();
                apply(&mut child, action);
                expected.push(StateCodec::full().key(&child));
            }
        }
        assert!(recs.len() > 2 * CHUNK * SHARDS, "three workers get a slice");
        for (threads, spill) in [(1, false), (2, false), (3, false), (1, true), (3, true)] {
            // The run table starts with the parents' stations only, so the
            // children's new station states go through the provisional ids,
            // patched in RAM or in the spill file.
            let file = spill.then(|| SpillFile::create("test").unwrap());
            let file = file.as_ref();
            let mut stations = StationTable::new();
            let mut frontier: Vec<Segment> = (0..3).map(|_| Segment::default()).collect();
            for (p, parent) in parents.iter().enumerate() {
                let ids = stations.intern(parent);
                frontier[[0, 0, 1, 2][p * 4 / parents.len()]].push(parent, ids, file);
            }
            for seg in &mut frontier {
                seg.seal(file);
            }
            let mut index = Vec::new();
            index_level(&frontier, &mut index);
            let before = (stations.transmitters(), stations.receivers());
            let mut workers: Vec<WorkerScratch> =
                (0..threads).map(|_| WorkerScratch::default()).collect();
            for w in workers.iter_mut() {
                prime(&mut w.node, &root);
            }
            let level = LevelView {
                segments: &frontier,
                index: &index,
                file,
            };
            rebuild_frontier(threads, &recs, level, &mut stations, &mut workers, file);
            let outs: Vec<Segment> = workers
                .iter_mut()
                .map(|w| std::mem::take(&mut w.out))
                .collect();
            index_level(&outs, &mut index);
            let next = LevelView {
                segments: &outs,
                index: &index,
                file,
            };
            let mut sys = root.clone();
            let mut keys = Vec::new();
            let mut buf = Vec::new();
            for b in 0..next.blocks() {
                next.fetch(b, &mut buf);
                let block = next.block(b, &buf);
                assert_eq!(block.first() as usize, keys.len(), "blocks in rank order");
                for i in 0..block.len() {
                    let (tx, rx) = record_stations(block.record(i));
                    assert!((tx | rx) & PROVISIONAL == 0, "{threads} threads");
                    load(block.record(i), &stations, &mut sys);
                    keys.push(StateCodec::full().key(&sys));
                }
            }
            for w in &workers {
                assert!(w.patches.is_empty() && w.misses.transmitters() == 0);
            }
            assert_eq!(keys, expected, "{threads} threads, spill {spill}");
            assert!(
                (stations.transmitters(), stations.receivers()) > before,
                "the children reached station states their parents lack"
            );
        }
    }

    /// Every `System` the arena holds: each worker's node and trial.
    fn systems_held(arena: &ExploreArena) -> usize {
        arena
            .workers
            .iter()
            .map(|w| usize::from(w.node.is_some()) + usize::from(w.trial.is_some()))
            .sum()
    }

    /// Every frontier record the arena holds, resident or spilled: the
    /// level segments and the workers' rebuild outputs.
    fn records_held(arena: &ExploreArena) -> usize {
        level_len(&arena.frontier) + arena.workers.iter().map(|w| w.out.len()).sum::<usize>()
    }

    /// The width of every level the last run admitted, by depth, from its
    /// path records: the spilled levels' counts and the level in flight,
    /// or every resident level; the root counts 1.
    fn level_widths(arena: &ExploreArena) -> Vec<usize> {
        let paths = &arena.paths;
        let mut widths: Vec<usize> = match paths.spilling {
            true => paths
                .spilled
                .iter()
                .map(|&(_, n)| n)
                .chain(paths.levels.get(1).map(Vec::len))
                .collect(),
            false => paths.levels.iter().map(Vec::len).collect(),
        };
        widths[0] = 1;
        widths
    }

    #[test]
    fn spilling_runs_hold_records_for_two_levels_only() {
        // Under a 4 KiB budget most of each level's successors are disk
        // duplicates that only the merge's spilled probe can reject. The
        // engine holds two systems per worker whatever the scope, no more
        // records than two adjacent levels, and far fewer than one level's
        // candidates over all its slices; the report is the in-RAM tier's,
        // and the frontier and path gauges are the same at every thread
        // count. The records
        // themselves stream through the spill files: what the level store
        // holds in RAM is bounded by two blocks per worker (each sealed
        // block may overshoot by one record), not by a level's width, and
        // the level files hold two levels, not every level written.
        let cfg = ExploreConfig {
            max_messages: 7,
            max_depth: 22,
            max_pool: 8,
            max_states: 500_000,
            ..ExploreConfig::default()
        };
        let proto = SequenceNumber::new();
        let mut gauges = Vec::new();
        for threads in [1, 2, 3] {
            let registry = Arc::new(Registry::new());
            let explorer =
                ParallelExplorer::new(threads).with_telemetry(Arc::clone(&registry), None);
            let mut arena = ExploreArena::default();
            arena.install_visited(VisitedSpec::tiered(4 * 1024));
            let report = explorer.explore_in(&proto, &cfg, &mut arena).report();
            assert_eq!(report, par(&proto, &cfg, threads).report());
            assert!(arena.visited().spills() > 0, "the 4 KiB budget must spill");

            let held = systems_held(&arena);
            assert!(
                held <= 2 * threads,
                "{held} systems held by {threads} workers"
            );
            let widths = level_widths(&arena);
            assert_eq!(widths.iter().sum::<usize>(), arena.visited().len());
            let two_levels = widths.windows(2).map(|w| w[0] + w[1]).max().unwrap();
            let records = records_held(&arena);
            assert!(
                records <= two_levels,
                "{records} records held; two adjacent levels need at most {two_levels}"
            );
            let snap = registry.snapshot();
            let level_candidates = snap.gauges["explore.peak_level_candidate_bytes"].value as usize
                / std::mem::size_of::<Candidate>();
            assert!(
                records < level_candidates,
                "{records} records held, but the largest level had only {level_candidates} candidates"
            );
            let logical = snap.gauges["explore.peak_frontier_bytes"].value as usize;
            let resident = snap.gauges["explore.level_store_resident_bytes"].value as usize;
            let blocks = 2 * threads * (LEVEL_BLOCK_BYTES + 256);
            assert!(
                resident <= blocks && resident < logical / 4,
                "{resident} B of level store resident at {threads} threads, \
                 against {blocks} B of block buffers and {logical} B of records"
            );
            let written = snap.counters["explore.level_spill_bytes"];
            assert!(written > logical as u64);
            // Each level is written over the one two levels back, so the
            // level files hold the widest level of each parity. The widths
            // rise and then fall, so those two are adjacent.
            let peak = (0..widths.len()).max_by_key(|&d| widths[d]).unwrap();
            assert!(
                widths[..=peak].windows(2).all(|w| w[0] <= w[1]),
                "{widths:?}"
            );
            assert!(
                widths[peak..].windows(2).all(|w| w[0] >= w[1]),
                "{widths:?}"
            );
            let on_disk = arena.streamed().level_disk_bytes;
            assert!(
                on_disk <= logical as u64 && on_disk < written / 2,
                "the level files hold {on_disk} B of {written} B written; \
                 two adjacent levels take {logical} B"
            );
            gauges.push((
                snap.gauges["explore.peak_frontier_bytes"].value,
                snap.gauges["explore.path_bytes"].value,
                snap.gauges["explore.station_states.tx"].value,
                snap.gauges["explore.station_states.rx"].value,
                arena.streamed(),
            ));
        }
        assert!(gauges.windows(2).all(|g| g[0] == g[1]), "{gauges:?}");
    }

    #[test]
    fn runs_close_their_spill_file_however_they_end() {
        // A certificate, a counterexample returned mid-search and a
        // truncation all stream through the file and leave it closed, so
        // its space goes back when the run returns, not when the explorer
        // is dropped. Without a budget no file is opened at all.
        let certificate = ExploreConfig {
            max_messages: 5,
            max_depth: 18,
            max_pool: 6,
            ..ExploreConfig::default()
        };
        let truncated = ExploreConfig {
            max_states: 500,
            ..certificate
        };
        let scopes: [(&dyn DataLink, &ExploreConfig, &str); 3] = [
            (&SequenceNumber::new(), &certificate, "exhausted"),
            (
                &AlternatingBit::new(),
                &ExploreConfig::default(),
                "counterexample",
            ),
            (&SequenceNumber::new(), &truncated, "truncated"),
        ];
        for (proto, cfg, kind) in scopes {
            for spec in [VisitedSpec::tiered(4096), VisitedSpec::Ram] {
                let mut arena = ExploreArena::default();
                arena.install_visited(spec);
                let outcome = ParallelExplorer::new(2).explore_in(proto, cfg, &mut arena);
                assert_eq!(outcome_kind(&outcome), kind);
                assert!(arena.spill.is_none(), "{kind}: the run left its file open");
                let streamed = arena.streamed().level_bytes > 0;
                assert_eq!(streamed, spec != VisitedSpec::Ram, "{kind} {spec:?}");
            }
        }
    }

    /// The bytes of candidate buffer the arena retains: each worker's bins,
    /// the transpose buffer, and the shards' key batches.
    fn candidate_capacity(arena: &ExploreArena) -> (Vec<usize>, usize, usize) {
        let bytes = |bins: &[Vec<Candidate>]| {
            bins.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<Candidate>()
        };
        let workers = arena.workers.iter().map(|w| bytes(&w.candidates)).collect();
        let batches = arena
            .merges
            .iter()
            .map(|m| m.keys.capacity() * std::mem::size_of::<u64>() + m.hits.capacity())
            .sum::<usize>();
        (workers, bytes(&arena.bins_in), batches)
    }

    /// The merge sorts and deduplicates each shard in the workers' own
    /// bins and hands them back, so the transpose side keeps no capacity
    /// and a warm arena holds the candidates' once, plus the key batches.
    /// On one worker, whose bins see every candidate, that is at most
    /// twice the largest level's candidate bytes in RAM; combining the bins
    /// into a per-shard buffer, or keeping a second set of bins on the
    /// transpose side, reads about 5x. With more workers each bin is sized
    /// by the most its own worker found at once, which the scheduler
    /// decides: in RAM that is up to a level, so only the hand-back is
    /// checked. Under a budget it is up to one slice of ranks, so at every
    /// thread count each worker's bins stay within three slices'
    /// candidates (their growth slack, and each shard's largest share over
    /// the slices), the key batches within one, and a slice holds under an
    /// eighth of the widest level's. One test per tier and thread count,
    /// so that the harness runs them side by side.
    mod the_merge_retains_candidate_buffers_once {
        use super::*;

        fn check(spec: VisitedSpec, threads: usize) {
            let cfg = ExploreConfig {
                max_messages: 8,
                max_depth: 26,
                max_pool: 10,
                max_states: 20_000_000,
                ..ExploreConfig::default()
            };
            let registry = Arc::new(Registry::new());
            let explorer =
                ParallelExplorer::new(threads).with_telemetry(Arc::clone(&registry), None);
            let mut arena = ExploreArena::default();
            arena.install_visited(spec);
            for _ in 0..2 {
                let outcome = explorer.explore_in(&SequenceNumber::new(), &cfg, &mut arena);
                assert!(outcome.is_certificate(), "{outcome:?}");
            }
            let (workers, transpose, batches) = candidate_capacity(&arena);
            assert_eq!(
                transpose, 0,
                "{spec:?} at {threads} threads: a bin was not handed back"
            );
            let snap = registry.snapshot();
            let peak = snap.gauges["explore.peak_candidate_bytes"].value as usize;
            let level = snap.gauges["explore.peak_level_candidate_bytes"].value as usize;
            if spec == VisitedSpec::Ram {
                assert_eq!(peak, level, "without a budget a level is one slice");
                if threads == 1 {
                    let held = workers[0] + batches;
                    assert!(held <= 2 * peak, "{held} B retained for a {peak} B peak");
                }
                return;
            }
            assert!(
                8 * peak < level,
                "a {peak} B slice against a {level} B level"
            );
            assert!(
                workers.iter().all(|&held| held <= 3 * peak) && batches <= peak,
                "{threads} threads retain {workers:?} B of bins and {batches} B of \
                 key batches for a {peak} B slice"
            );
        }

        #[test]
        fn ram_at_1_thread() {
            check(VisitedSpec::Ram, 1);
        }

        #[test]
        fn ram_at_2_threads() {
            check(VisitedSpec::Ram, 2);
        }

        #[test]
        fn ram_at_8_threads() {
            check(VisitedSpec::Ram, 8);
        }

        #[test]
        fn tiered_at_1_thread() {
            check(VisitedSpec::tiered(32 * 1024), 1);
        }

        #[test]
        fn tiered_at_2_threads() {
            check(VisitedSpec::tiered(32 * 1024), 2);
        }

        #[test]
        fn tiered_at_8_threads() {
            check(VisitedSpec::tiered(32 * 1024), 8);
        }
    }

    #[test]
    fn telemetry_observes_without_perturbing() {
        let cfg = ExploreConfig::default();
        let plain = par(&SequenceNumber::new(), &cfg, 4).report();

        let registry = Arc::new(Registry::new());
        let trace = Arc::new(TraceSink::new());
        let engine = ParallelExplorer::new(4)
            .with_telemetry(Arc::clone(&registry), Some(Arc::clone(&trace)));
        let instrumented = fresh(&engine, &SequenceNumber::new(), &cfg).report();
        assert_eq!(plain, instrumented, "telemetry must not change the outcome");

        let snap = registry.snapshot();
        let states = snap.counters["explore.states"];
        let candidates = snap.counters["explore.candidates"];
        assert!(states > 1, "visited more than the root");
        assert!(
            candidates >= states - 1,
            "every non-root state was a candidate"
        );
        assert_eq!(
            snap.histograms["explore.shard_occupancy"].count, SHARDS as u64,
            "one occupancy sample per shard"
        );
        assert_eq!(
            snap.histograms["explore.shard_occupancy"].sum, states,
            "shard occupancy sums to the unique-state count"
        );
        assert!(
            snap.histograms["explore.frontier_width"].count >= 1,
            "at least one level was recorded"
        );
        assert!(snap.values.contains_key("explore.states_per_sec"));
        assert!(
            snap.gauges["explore.peak_frontier_bytes"].value > 0,
            "frontier record bytes were recorded"
        );
        assert!(
            snap.gauges["explore.station_states.tx"].value > 0
                && snap.gauges["explore.station_states.rx"].value > 0,
            "station states were counted"
        );
        assert_eq!(
            snap.gauges["explore.peak_candidate_bytes"].value
                % std::mem::size_of::<Candidate>() as u64,
            0,
            "the candidate peak is a whole number of records"
        );
        assert!(
            snap.gauges["explore.peak_candidate_bytes"].value > 0,
            "the candidate peak was recorded"
        );
        assert!(
            snap.counters.contains_key("explore.phase_ns.rebuild"),
            "the rebuild phase is timed"
        );
        assert!(
            snap.counters.get("explore.phase_ns.expand") > Some(&0),
            "the expand phase is timed"
        );
        assert!(!trace.is_empty(), "per-level spans were recorded");
    }
}
