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
//! - **Record frontier.** A frontier level is a flat byte slab of frontier
//!   records ([`crate::codec`]), one per node: a 16-byte head, then
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
//!   of records, a level frees with two deallocations per worker segment
//!   however wide it is, and a warm run performs no heap allocation
//!   (pinned by the allocation regression tests in
//!   `tests/explore_alloc.rs`).
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
//! - Workers only *read* the visited set (it is frozen during a level);
//!   newly discovered states are merged after the level in sorted
//!   `(state key, parent rank, step)` order. All paths within a level have
//!   equal length and the frontier is kept sorted by path order, so
//!   comparing `(parent rank, step)` *is* comparing full paths — when two
//!   paths reach the same state in the same level, the lexicographically
//!   smallest path deterministically claims it, exactly as the old
//!   owned-path engine did (property-tested in `tests/explore_props.rs`).
//! - The merge itself is **sharded and parallel**: candidates are binned
//!   by the 64-way mixed-digest shard index ([`shard_of`]) as workers
//!   discover them, and each shard is sorted, deduplicated, and probed
//!   against the visited tier's spilled runs independently, in place in
//!   the workers' own bins (the merge keeps no copy of its own) — shards
//!   are disjoint key spaces, so the winners emitted in global path-rank
//!   order are exactly the winners the old single-threaded full-sort
//!   merge produced, whatever thread ran which shard (the determinism
//!   argument is spelled out in `docs/explorer_internals.md` §7). While
//!   the tier has runs on disk they are probed once per shard with a
//!   sorted key batch ([`VisitedSet::probe_spilled_sorted`]), so a 4 KiB
//!   run block is read once per level instead of once per candidate.
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
//!   (the conclusive answer beats the resource excuse); the sequential
//!   oracle may report `Truncated` on such knife-edge scopes.
//!
//! Frontier states are counts-only systems ([`System::disable_event_log`]):
//! no event log, and a monitor that keeps only the copies in transit, so a
//! node's record is O(pool), not O(history); the
//! winning counterexample is re-materialised by
//! replaying its schedule through the strict scheduler (`materialize`,
//! shared with the oracle) — which doubles as an end-to-end validation of
//! every reported attack.

use crate::codec::{
    load, record_stations, set_record_stations, write_record, StationTable, PROVISIONAL,
};
use crate::explore::{
    apply, build_root, enabled_actions_into, from_step, materialize, to_step, Action,
    ExploreConfig, ExploreOutcome,
};
use crate::explorer::record_run_end;
use crate::por::PorCtx;
use crate::schedule::ScheduleStep;
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
    out: Slab,
    /// Station states the frozen run table lacked, by provisional id.
    misses: StationTable,
    /// Indices in `out` of the records that name a provisional id.
    patches: Vec<u32>,
    /// What each provisional id became, per station role.
    tx_ids: Vec<u32>,
    rx_ids: Vec<u32>,
}

/// A run of frontier records: record `i` is
/// `bytes[starts[i]..starts[i + 1]]`, the last one ending at `bytes.len()`.
/// A level is a handful of these (one per rebuilding worker), so it frees
/// with a handful of deallocations however wide it is. The offsets are
/// 32-bit byte offsets, so one worker's segment of a level holds at most
/// 4 GiB of records; [`Slab::push`] panics past that.
#[derive(Debug, Default)]
struct Slab {
    bytes: Vec<u8>,
    starts: Vec<u32>,
}

impl Slab {
    fn len(&self) -> usize {
        self.starts.len()
    }

    /// Where record `i` sits in `bytes`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let end = self
            .starts
            .get(i + 1)
            .map_or(self.bytes.len(), |&e| e as usize);
        self.starts[i] as usize..end
    }

    fn record(&self, i: usize) -> &[u8] {
        &self.bytes[self.span(i)]
    }

    fn record_mut(&mut self, i: usize) -> &mut [u8] {
        let span = self.span(i);
        &mut self.bytes[span]
    }

    /// Appends `sys`'s record under the station ids `(tx, rx)`.
    fn push(&mut self, sys: &System, (tx, rx): (u32, u32)) {
        let start = u32::try_from(self.bytes.len()).expect("slab outgrew 32-bit offsets");
        self.starts.push(start);
        write_record(sys, tx, rx, &mut self.bytes);
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.starts.clear();
    }

    /// The bytes the records take: their bytes and offsets, by length, not
    /// capacity, so the figure is the same at any thread count.
    fn bytes(&self) -> usize {
        self.bytes.len() + self.starts.len() * std::mem::size_of::<u32>()
    }
}

/// The record of the node ranked `rank` in a level stored as `segments`.
fn node_record(segments: &[Slab], mut rank: usize) -> &[u8] {
    for seg in segments {
        if rank < seg.len() {
            return seg.record(rank);
        }
        rank -= seg.len();
    }
    panic!("frontier rank out of range")
}

fn level_len(segments: &[Slab]) -> usize {
    segments.iter().map(Slab::len).sum()
}

fn level_bytes(segments: &[Slab]) -> usize {
    segments.iter().map(Slab::bytes).sum()
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
/// batch handed to [`VisitedSet::probe_spilled_sorted`] and its hits, both
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
    /// station table at that point ([`Slab::bytes`], [`StationTable::bytes`]).
    frontier_bytes: usize,
    /// The most candidates one level produced, times their 16-byte size:
    /// what the workers' bins hold at the widest level. On one worker it
    /// is also the candidate capacity a warm arena retains, less the bins'
    /// growth slack. With more workers each bin keeps the most its own
    /// worker found in one level, however the scheduler spread the levels,
    /// so the retained capacity can exceed it (2.75x at seqnum 8/26/10 at
    /// 8 threads on 2 cores).
    candidate_bytes: usize,
}

/// The reusable workspace an [`Explorer`](crate::Explorer) owns: the
/// visited set (any [`VisitedSpec`] tier), the frontier slabs and the
/// station table, per-worker scratches, the path arena, and the merge
/// buffers. Running repeated explorations through one arena keeps the
/// steady-state expansion loop entirely off the allocator — the allocation
/// regression test in `tests/explore_alloc.rs` pins this.
#[derive(Debug)]
pub(crate) struct ExploreArena {
    visited: Box<dyn VisitedSet>,
    spec: VisitedSpec,
    workers: Vec<WorkerScratch>,
    /// `levels[d]` holds one [`PathRec`] per frontier node at depth `d`
    /// (`levels[0]` stays empty: the root has no incoming step).
    levels: Vec<Vec<PathRec>>,
    /// The level being expanded, as one segment per worker: concatenated
    /// in worker order they are its records in rank order. After each
    /// rebuild the segments trade places with the workers' outputs.
    frontier: Vec<Slab>,
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
}

impl Default for ExploreArena {
    fn default() -> Self {
        ExploreArena {
            visited: VisitedSpec::Ram.build(),
            spec: VisitedSpec::Ram,
            workers: Vec::new(),
            levels: Vec::new(),
            frontier: Vec::new(),
            stations: StationTable::new(),
            bins_in: Vec::new(),
            merges: (0..SHARDS).map(|_| ShardMerge::default()).collect(),
            heap: BinaryHeap::new(),
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

    /// Clears logical state while keeping every allocation: the visited
    /// set, the slabs and the merge buffers keep their capacity, and the
    /// station table its automaton boxes.
    fn reset(&mut self, threads: usize) {
        self.visited.clear();
        self.stations.clear();
        while self.workers.len() < threads {
            self.workers.push(WorkerScratch::default());
        }
        while self.frontier.len() < self.workers.len() {
            self.frontier.push(Slab::default());
        }
        let ExploreArena {
            workers,
            levels,
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
        for level in levels.iter_mut() {
            level.clear();
        }
    }

    /// Reconstructs the full schedule ending in `last`, a record whose
    /// parent sits at depth `depth` (so the path has `depth + 1` steps).
    fn reconstruct(&self, depth: usize, last: PathRec) -> Vec<ScheduleStep> {
        let mut steps = vec![last.step()];
        let mut idx = last.parent() as usize;
        // A depth-0 violation has no interior path to walk — and on a fresh
        // arena `levels` is still empty, so even the degenerate `[1..=0]`
        // slice would be out of bounds. Reachable only from a corrupted
        // start, where the very first deliver can already be a phantom.
        if depth > 0 {
            for level in self.levels[1..=depth].iter().rev() {
                let rec = level[idx];
                steps.push(rec.step());
                idx = rec.parent() as usize;
            }
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
    /// Nanoseconds spent in the *serial* part of the per-level merge
    /// (transpose, admit and rank, hand-back — the per-shard sort/probe
    /// work runs on worker threads and is excluded). This over wall time is the
    /// engine's Amdahl serial fraction; CI guards its share.
    merge_serial: Counter,
    /// Nanoseconds of wall time spent expanding the frontier levels:
    /// loading each node's record and trying its actions (on worker
    /// threads), timed once per level.
    expand: Counter,
    /// Nanoseconds spent rebuilding the merge winners' systems from their
    /// parents (the phase after the merge; mostly on worker threads).
    rebuild: Counter,
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
            frontier_width: registry.histogram("explore.frontier_width"),
            registry,
            trace,
        }
    }

    /// End-of-run metrics: the ones both engines export
    /// ([`record_run_end`]), plus this engine's visited-set shard occupancy
    /// (balance of the mixed-digest shard split, for tiers with resident
    /// shards), its peak frontier and candidate bytes, the bytes of its
    /// path records (one per admitted non-root state), and the distinct
    /// station states its records named.
    fn finalize(
        &self,
        visited: &dyn VisitedSet,
        stations: &StationTable,
        elapsed_secs: f64,
        peaks: Peaks,
        path_bytes: usize,
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
            .gauge("explore.path_bytes")
            .set(path_bytes as u64);
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
        if let Some(tel) = &self.telemetry {
            let elapsed = started.elapsed().as_secs_f64();
            let paths = arena.levels.iter().map(Vec::len).sum::<usize>();
            let path_bytes = paths * std::mem::size_of::<PathRec>();
            tel.finalize(arena.visited(), &arena.stations, elapsed, peaks, path_bytes);
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
        let ids = arena.stations.intern(&root);
        arena.frontier[0].push(&root, ids);
        peaks.frontier_bytes = arena.frontier[0].bytes() + arena.stations.bytes();

        for depth in 0..cfg.max_depth {
            let width = level_len(&arena.frontier);
            if width == 0 {
                break;
            }
            let _level_span = tel.and_then(|t| t.trace.as_deref()).map(|trace| {
                trace.span_with_args(
                    "explore",
                    &format!("level {depth}"),
                    vec![
                        ("depth".to_string(), depth as u64),
                        ("frontier".to_string(), width as u64),
                    ],
                )
            });
            if let Some(t) = tel {
                t.frontier_width.record(width as u64);
            }
            let expand_started = tel.map(|_| Instant::now());
            self.expand_level(cfg, por, arena);
            if let (Some(t), Some(started)) = (tel, expand_started) {
                t.expand.add(started.elapsed().as_nanos() as u64);
            }

            // Violations: the lexicographically smallest path wins; within
            // one level that is the minimal (parent rank, step) pair.
            let best_violation = arena
                .workers
                .iter()
                .flat_map(|w| w.violations.iter().copied())
                .min();
            if let Some(rec) = best_violation {
                let steps = arena.reconstruct(depth, rec);
                return (materialize(proto, cfg, steps), peaks);
            }

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
                levels,
                frontier,
                stations,
                bins_in,
                merges,
                heap,
                ..
            } = &mut *arena;

            let serial_started = tel.map(|_| Instant::now());
            // Transpose worker-major bins into shard-major groups with
            // header-only Vec swaps; `bins_in[s * stride + w]` then holds
            // worker w's candidates for shard s.
            let stride = workers.len();
            while bins_in.len() < SHARDS * stride {
                bins_in.push(Vec::new());
            }
            let mut total = 0usize;
            for (w, scratch) in workers.iter_mut().enumerate() {
                for (s, bin) in scratch.candidates.iter_mut().enumerate() {
                    total += bin.len();
                    std::mem::swap(&mut bins_in[s * stride + w], bin);
                }
            }
            peaks.candidate_bytes = peaks
                .candidate_bytes
                .max(total * std::mem::size_of::<Candidate>());
            let mut serial_ns = serial_started.map_or(0, |t| t.elapsed().as_nanos() as u64);

            // Per-shard sort + same-level dedup + batched spilled-run
            // probe, in the workers' own bins, fanned out over the worker
            // threads. Tiny levels stay inline: a scope spawn costs more
            // than sorting a few dozen candidates.
            let frozen: &dyn VisitedSet = &**visited;
            let merge_threads = self.threads.min(SHARDS);
            if merge_threads == 1 || total < CHUNK * SHARDS {
                for (s, m) in merges.iter_mut().enumerate() {
                    merge_shard(m, &mut bins_in[s * stride..(s + 1) * stride], frozen);
                }
            } else {
                let per = SHARDS.div_ceil(merge_threads);
                std::thread::scope(|scope| {
                    for (ms, bs) in merges
                        .chunks_mut(per)
                        .zip(bins_in[..SHARDS * stride].chunks_mut(per * stride))
                    {
                        scope.spawn(move || {
                            for (j, m) in ms.iter_mut().enumerate() {
                                merge_shard(m, &mut bs[j * stride..(j + 1) * stride], frozen);
                            }
                        });
                    }
                });
            }

            let serial_resumed = tel.map(|_| Instant::now());

            // Admit and rank (serial): each bin's winners sit in
            // descending (parent rank, step) order, so a min-heap over the
            // bin tails emits the level in global path order with O(1)
            // by-value pops — each node's index in the level's record
            // arena, and so in the next frontier, *is* its path rank, the
            // invariant that lets the merge compare one-word records
            // instead of whole paths. Each winner key was proven absent by
            // the resident probe at expansion time plus the spilled probe
            // above, so the probe-free insert admits every one.
            let level_dedup: usize = merges.iter().map(|m| m.rejected).sum();
            if let Some(t) = tel {
                t.dedup_hits.add(level_dedup as u64);
            }
            while levels.len() <= depth + 1 {
                levels.push(Vec::new());
            }
            let level = &mut levels[depth + 1];
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
                states += 1;
                if let Some(t) = tel {
                    t.states.inc();
                }
                level.push(c.rec);
                if states >= cfg.max_states {
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
            if truncated {
                return (ExploreOutcome::Truncated { states }, peaks);
            }
            if let (Some(t), Some(resumed)) = (tel, serial_resumed) {
                serial_ns += resumed.elapsed().as_nanos() as u64;
                t.merge_serial.add(serial_ns);
            }

            // Rebuild: the next frontier is the winners' records, in rank
            // order — unless the depth bound ends the search here, since
            // nothing expands a last level. The workers' output segments
            // then trade places with the expanded level's.
            if depth + 1 < cfg.max_depth {
                let rebuild_started = tel.map(|_| Instant::now());
                rebuild_frontier(
                    self.threads,
                    &levels[depth + 1],
                    frontier,
                    stations,
                    workers,
                );
                if let (Some(t), Some(started)) = (tel, rebuild_started) {
                    t.rebuild.add(started.elapsed().as_nanos() as u64);
                }
                let next: usize = workers.iter().map(|w| w.out.bytes()).sum();
                peaks.frontier_bytes = peaks
                    .frontier_bytes
                    .max(level_bytes(frontier) + next + stations.bytes());
                for (seg, w) in frontier.iter_mut().zip(workers.iter_mut()) {
                    std::mem::swap(seg, &mut w.out);
                    w.out.clear();
                }
            }
        }
        (ExploreOutcome::Exhausted { states }, peaks)
    }

    /// Expands every frontier node, leaving each worker's discoveries in
    /// its scratch buffers. Work is claimed in [`CHUNK`]-sized slices from
    /// an atomic cursor; a frontier too small to fill one chunk per worker
    /// runs on the calling thread without spawning a scope.
    fn expand_level(&self, cfg: &ExploreConfig, por: PorCtx, arena: &mut ExploreArena) {
        let ExploreArena {
            visited,
            workers,
            frontier,
            stations,
            ..
        } = arena;
        // Frozen for the level: workers only probe membership, so a shared
        // borrow of the tier is all they get (the trait requires `Sync`).
        let level = Level {
            frontier,
            stations,
            visited: &**visited,
            cfg,
            por,
            tel: self.telemetry.as_ref(),
        };
        let width = level_len(frontier);
        let nworkers = self.threads.min(width.div_ceil(CHUNK)).max(1);
        if nworkers == 1 {
            for rank in 0..width {
                expand_node(level, rank, &mut workers[0]);
            }
            return;
        }
        let cursor = ChunkCursor::new(width, CHUNK);
        std::thread::scope(|scope| {
            for scratch in workers[..nworkers].iter_mut() {
                let cursor = &cursor;
                scope.spawn(move || {
                    while let Some(range) = cursor.claim() {
                        for rank in range {
                            expand_node(level, rank, scratch);
                        }
                    }
                });
            }
        });
    }
}

/// What every expansion of one level reads, shared by the workers.
#[derive(Clone, Copy)]
struct Level<'a> {
    frontier: &'a [Slab],
    stations: &'a StationTable,
    visited: &'a dyn VisitedSet,
    cfg: &'a ExploreConfig,
    por: PorCtx,
    tel: Option<&'a ExploreTelemetry>,
}

/// Loads the node ranked `rank` into the worker's warm system and tries
/// every enabled action on the reused trial.
fn expand_node(level: Level<'_>, rank: usize, scratch: &mut WorkerScratch) {
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
    load(node_record(level.frontier, rank), level.stations, sys);
    let sys = &*sys;
    let rank = rank as u32;
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
        // once per level by the merge's batched sorted probe, so the hot
        // loop never waits on a positioned read. Same-level duplicates are
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
/// on its parent, loaded from `frontier`. A rebuild depends only on its
/// parent and step, so the records are cut into contiguous slices, one per
/// worker thread, and worker `w` writes its slice to `workers[w].out`;
/// concatenated in worker order the outputs are the next level in rank
/// order. Small levels stay inline, with the merge's threshold: a scope
/// spawn costs more than a thousand rebuilds.
///
/// Workers resolve station ids against the frozen `stations` and intern
/// the states it lacks in their own scratch under provisional ids. A
/// serial pass in worker order then interns those misses in `stations`
/// and patches the provisional ids, so the table's contents are a function
/// of the level's records alone.
fn rebuild_frontier(
    threads: usize,
    recs: &[PathRec],
    frontier: &[Slab],
    stations: &mut StationTable,
    workers: &mut [WorkerScratch],
) {
    let nworkers = threads.min(recs.len().div_ceil(CHUNK * SHARDS)).max(1);
    let per = recs.len().div_ceil(nworkers).max(1);
    let frozen = &*stations;
    if nworkers == 1 {
        rebuild_slice(recs, frontier, frozen, &mut workers[0]);
    } else {
        std::thread::scope(|scope| {
            for (slice, scratch) in recs.chunks(per).zip(workers.iter_mut()) {
                scope.spawn(move || rebuild_slice(slice, frontier, frozen, scratch));
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
        for &i in &scratch.patches {
            let record = scratch.out.record_mut(i as usize);
            let (tx, rx) = record_stations(record);
            let (tx, rx) = (settle(tx, &scratch.tx_ids), settle(rx, &scratch.rx_ids));
            set_record_stations(record, tx, rx);
        }
        scratch.patches.clear();
        scratch.misses.clear();
    }
}

/// Rebuilds the children `recs` (in rank order, so siblings are adjacent):
/// each parent is loaded once into the worker's warm node, and each child
/// is the trial refilled from it with the record's step applied, appended
/// to `scratch.out` as a record.
fn rebuild_slice(
    recs: &[PathRec],
    frontier: &[Slab],
    stations: &StationTable,
    scratch: &mut WorkerScratch,
) {
    let node = scratch.node.as_mut().expect("primed at run start");
    let mut loaded = None;
    for rec in recs {
        let parent = rec.parent();
        if loaded != Some(parent) {
            load(node_record(frontier, parent as usize), stations, node);
            loaded = Some(parent);
        }
        let trial = scratch.trial.get_or_insert_with(|| node.clone());
        trial.assign_from(node);
        apply(trial, from_step(rec.step()));
        let ids = stations.resolve(&mut scratch.misses, trial);
        if (ids.0 | ids.1) & PROVISIONAL != 0 {
            scratch.patches.push(scratch.out.len() as u32);
        }
        scratch.out.push(trial, ids);
    }
}

/// The sharded merge, one shard at a time, in the workers' own bins for
/// the shard: sort each bin by `(key, parent rank, step)`, then walk them
/// k-way to keep each key's first candidate only, and to collect the
/// sorted unique key batch for the spilled-run probe while something is
/// on disk. A second walk then drops the candidates the probe found.
/// Each bin is left holding its winners in *descending* path-record order,
/// so rank assignment can pop the minimum off its tail in O(1). Runs
/// concurrently across shards — every buffer it touches is shard-local.
fn merge_shard(m: &mut ShardMerge, bins: &mut [Vec<Candidate>], frozen: &dyn VisitedSet) {
    let mut total = 0;
    for bin in bins.iter_mut() {
        bin.sort_unstable_by_key(Candidate::order);
        total += bin.len();
    }
    m.keys.clear();
    m.hits.clear();
    if frozen.disk_runs() == 0 {
        keep_firsts(bins, &mut m.cursors, &mut m.heads, |_| true);
    } else {
        keep_firsts(bins, &mut m.cursors, &mut m.heads, |c| {
            m.keys.push(c.key);
            true
        });
        m.hits.resize(m.keys.len(), false);
        frozen.probe_spilled_sorted(&m.keys, &mut m.hits);
        let mut hits = m.hits.iter();
        keep_firsts(bins, &mut m.cursors, &mut m.heads, |_| {
            !hits.next().expect("one hit per key")
        });
    }
    let mut winners = 0;
    for bin in bins.iter_mut() {
        bin.sort_unstable_by_key(|c| Reverse(c.rec));
        winners += bin.len();
    }
    m.rejected = total - winners;
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
    use crate::codec::StateCodec;
    use crate::explore::Discipline;
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
        for threads in [1, 2, 3] {
            // The run table starts with the parents' stations only, so the
            // children's new station states go through the provisional ids.
            let mut stations = StationTable::new();
            let mut frontier: Vec<Slab> = (0..3).map(|_| Slab::default()).collect();
            for (p, parent) in parents.iter().enumerate() {
                let ids = stations.intern(parent);
                frontier[[0, 0, 1, 2][p * 4 / parents.len()]].push(parent, ids);
            }
            let before = (stations.transmitters(), stations.receivers());
            let mut workers: Vec<WorkerScratch> =
                (0..threads).map(|_| WorkerScratch::default()).collect();
            for w in workers.iter_mut() {
                prime(&mut w.node, &root);
            }
            rebuild_frontier(threads, &recs, &frontier, &mut stations, &mut workers);
            let mut sys = root.clone();
            let mut keys = Vec::new();
            for w in &workers {
                for i in 0..w.out.len() {
                    let (tx, rx) = record_stations(w.out.record(i));
                    assert!((tx | rx) & PROVISIONAL == 0, "{threads} threads");
                    load(w.out.record(i), &stations, &mut sys);
                    keys.push(StateCodec::full().key(&sys));
                }
                assert!(w.patches.is_empty() && w.misses.transmitters() == 0);
            }
            assert_eq!(keys, expected, "{threads} threads");
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

    /// Every frontier record the arena holds: the level segments and the
    /// workers' rebuild outputs.
    fn records_held(arena: &ExploreArena) -> usize {
        level_len(&arena.frontier) + arena.workers.iter().map(|w| w.out.len()).sum::<usize>()
    }

    #[test]
    fn spilling_runs_hold_records_for_two_levels_only() {
        // Under a 4 KiB budget most of each level's successors are disk
        // duplicates that only the merge's spilled probe can reject. The
        // engine holds two systems per worker whatever the scope, no more
        // records than two adjacent levels, and far fewer than one level's
        // candidates; the report is the in-RAM tier's, and the frontier
        // gauge is the same at every thread count.
        let cfg = ExploreConfig {
            max_messages: 4,
            max_depth: 16,
            max_pool: 6,
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
            let mut widths: Vec<usize> = arena.levels.iter().map(Vec::len).collect();
            widths[0] = 1; // the root
            let two_levels = widths.windows(2).map(|w| w[0] + w[1]).max().unwrap();
            let records = records_held(&arena);
            assert!(
                records <= two_levels,
                "{records} records held; two adjacent levels need at most {two_levels}"
            );
            let snap = registry.snapshot();
            let peak_candidates = snap.gauges["explore.peak_candidate_bytes"].value as usize
                / std::mem::size_of::<Candidate>();
            assert!(
                records < peak_candidates,
                "{records} records held, but the largest level had only {peak_candidates} candidates"
            );
            gauges.push((
                snap.gauges["explore.peak_frontier_bytes"].value,
                snap.gauges["explore.station_states.tx"].value,
                snap.gauges["explore.station_states.rx"].value,
            ));
        }
        assert!(gauges.windows(2).all(|g| g[0] == g[1]), "{gauges:?}");
    }

    /// The bytes of candidate buffer the arena retains: the workers' bins,
    /// the transpose buffer, and each shard's key batch.
    fn candidate_capacity(arena: &ExploreArena) -> usize {
        let bins = arena
            .workers
            .iter()
            .flat_map(|w| &w.candidates)
            .chain(&arena.bins_in)
            .map(Vec::capacity)
            .sum::<usize>();
        let batches = arena
            .merges
            .iter()
            .map(|m| m.keys.capacity() * std::mem::size_of::<u64>() + m.hits.capacity())
            .sum::<usize>();
        bins * std::mem::size_of::<Candidate>() + batches
    }

    #[test]
    fn the_merge_retains_candidate_buffers_once() {
        // The merge sorts and deduplicates each shard in the workers' own
        // bins and hands them back, so the transpose side keeps no
        // capacity and a warm arena holds the candidates' once, plus the
        // key batches. On one worker, whose bins see every candidate, that
        // is at most twice the largest level's candidate bytes; combining
        // the bins into a per-shard buffer, or keeping a second set of
        // bins on the transpose side, reads about 5x. With more workers
        // each bin is sized by the most its own worker found in one level,
        // which the scheduler decides, so only the hand-back is checked.
        let cfg = ExploreConfig {
            max_messages: 8,
            max_depth: 26,
            max_pool: 10,
            max_states: 20_000_000,
            ..ExploreConfig::default()
        };
        for spec in [VisitedSpec::Ram, VisitedSpec::tiered(32 * 1024)] {
            for threads in [1, 2, 8] {
                let registry = Arc::new(Registry::new());
                let explorer =
                    ParallelExplorer::new(threads).with_telemetry(Arc::clone(&registry), None);
                let mut arena = ExploreArena::default();
                arena.install_visited(spec);
                for _ in 0..2 {
                    let outcome = explorer.explore_in(&SequenceNumber::new(), &cfg, &mut arena);
                    assert!(outcome.is_certificate(), "{outcome:?}");
                }
                assert!(
                    arena.bins_in.iter().all(|bin| bin.capacity() == 0),
                    "{spec:?} at {threads} threads: a bin was not handed back"
                );
                if threads == 1 {
                    let snap = registry.snapshot();
                    let peak = snap.gauges["explore.peak_candidate_bytes"].value as usize;
                    let held = candidate_capacity(&arena);
                    assert!(
                        held <= 2 * peak,
                        "{spec:?}: {held} B retained for a {peak} B peak"
                    );
                }
            }
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
