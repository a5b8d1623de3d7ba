//! Allocation regression pins for the exploration hot paths.
//!
//! The parallel engine promises that steady-state expansion — load a node
//! record into the worker's warm [`System`], refill the trial from it with
//! `assign_from`, apply an action, hash it, merge its key, rebuild the
//! winners' records into reused slabs — performs no heap allocation once
//! the arena's buffers have warmed up. This pin makes
//! that promise falsifiable: a counting global allocator measures a warm
//! exploration end to end, and the budget is a small constant (the per-run
//! root-system setup), not a function of the hundreds of expansions the
//! scope performs. A regression that puts even one allocation back into
//! the per-expansion loop blows the budget by an order of magnitude.
//!
//! Frontier levels are flat record slabs over a table of station states,
//! so even a cold run allocates per level and per station state, never per
//! state, and dropping a warmed explorer frees a handful of buffers per
//! level instead of a boxed system per frontier node.
//!
//! The sequential oracle keeps its plain one-queue BFS and clones a system
//! per admitted state, so its pin is linear in the state count: attempted
//! successors that are slept or deduplicated must allocate nothing.
//!
//! [`System`]: nonfifo_adversary::System

use nonfifo_adversary::{ExploreConfig, ExploreOutcome, Explorer};
use nonfifo_protocols::SequenceNumber;
use nonfifo_telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static TRACED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_HOOK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn maybe_trace() {
    if !TRACE.load(Ordering::Relaxed) {
        return;
    }
    IN_HOOK.with(|flag| {
        if flag.get() {
            return;
        }
        flag.set(true);
        if TRACED.fetch_add(1, Ordering::Relaxed).is_multiple_of(97) {
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("=== sampled allocation ===\n{bt}");
        }
        flag.set(false);
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        maybe_trace();
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        maybe_trace();
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn deallocations() -> u64 {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// The allocation counter is process-wide, so the pins run one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocations the sequential oracle may spend per admitted state. It
/// measures about four: the system clone (two boxed automata, the forward
/// pool and the monitor's table of that pool's copies; a counts-only
/// system keeps nothing else on the heap) plus the amortised growth of the
/// frontier, the path records and the visited set. The pinned scope
/// attempts about 2.5 successors per admitted state, so one allocation per
/// attempt lands above the bar.
const PER_STATE: u64 = 5;

#[test]
fn warm_exploration_allocates_a_small_constant() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The sequence-number certificate scope: a few hundred expansions, no
    // violation (so no schedule materialization muddies the count), single
    // thread (so no spawn overhead either — the promise under test is the
    // expansion loop itself).
    let mut explorer = Explorer::new().parallel(1);
    let cfg = ExploreConfig::default();

    // Warm-up: the first runs grow every buffer the engine will ever need
    // for this scope (shards, pools, scratches, the path arena).
    let cold = explorer.explore(&SequenceNumber::new(), &cfg);
    explorer.explore(&SequenceNumber::new(), &cfg);

    let before = allocations();
    let warm = explorer.explore(&SequenceNumber::new(), &cfg);
    let spent = allocations() - before;

    assert_eq!(
        cold.report(),
        warm.report(),
        "warming must not change results"
    );

    // Per-run constant: constructing the root system (boxed automata) and
    // nothing else. The scope performs several hundred expansions, so a
    // single stray allocation per expansion lands far above this bar.
    assert!(
        spent <= 32,
        "warm exploration allocated {spent} times; the expansion loop is \
         supposed to run allocation-free on recycled arena buffers"
    );
}

#[test]
fn warm_sequential_exploration_allocates_per_admitted_state_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The oracle refills one trial system per attempted successor and
    // clones it only when its key is admitted, so dedup hits and slept
    // edges cost no allocation: the count is bounded by a per-state
    // constant (one system clone plus the visited and path-record growth)
    // times the admitted states, plus the per-run root setup. This POR
    // scope (148 states) puts 80 edges to sleep and rejects more as
    // duplicates.
    let mut explorer = Explorer::new();
    let cfg = ExploreConfig {
        por: true,
        max_messages: 6,
        max_depth: 20,
        ..ExploreConfig::default()
    };
    let cold = explorer.explore(&SequenceNumber::new(), &cfg);
    explorer.explore(&SequenceNumber::new(), &cfg);

    let before = allocations();
    let warm = explorer.explore(&SequenceNumber::new(), &cfg);
    let spent = allocations() - before;

    assert_eq!(cold.report(), warm.report());
    let ExploreOutcome::Exhausted { states } = warm else {
        panic!("expected a certificate, got {warm:?}");
    };
    let budget = PER_STATE * states as u64 + 64;
    assert!(
        spent <= budget,
        "warm sequential exploration allocated {spent} times for {states} \
         states (budget {budget}); an attempted successor must not allocate"
    );
}

/// The scope of the cold and teardown pins: 12,869 states over 22 levels,
/// reaching 15 transmitter and 8 receiver states.
fn wide_scope() -> ExploreConfig {
    ExploreConfig {
        max_messages: 7,
        max_depth: 22,
        max_pool: 8,
        max_states: 1_000_000,
        ..ExploreConfig::default()
    }
}

/// Levels, station states and states of the run `registry` recorded.
fn run_shape(registry: &Registry) -> (u64, u64, u64) {
    let snap = registry.snapshot();
    let levels = snap.histograms["explore.frontier_width"].count;
    let stations = snap.gauges["explore.station_states.tx"].value
        + snap.gauges["explore.station_states.rx"].value;
    (levels, stations, snap.counters["explore.states"])
}

/// Allocations a cold parallel run may spend per level: the level's path
/// records, the scoped worker threads of its expansion, merge and rebuild,
/// and the doubling growth of the slabs, bins and shards it fills first.
const PER_LEVEL: u64 = 64;

/// Allocations per distinct station state: its box in the run table and
/// in the worker-local miss table it passed through.
const PER_STATION: u64 = 8;

/// Allocations of a cold run's fixed set of buffers, most of them one per
/// visited shard (the shard's set, each worker's candidate bin, the merge
/// bin, keys and hits), each grown by doubling.
const COLD_FIXED: u64 = 2048;

#[test]
fn cold_parallel_exploration_allocates_per_level_not_per_state() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A fresh explorer grows every buffer from empty. Buffers grow by
    // doubling, so that costs a logarithm per buffer; what must not appear
    // is a term in the state count, such as a boxed system per frontier
    // node, which would cost several allocations for each of the 6,005.
    let registry = std::sync::Arc::new(Registry::new());
    let mut explorer = Explorer::new()
        .parallel(2)
        .with_telemetry(std::sync::Arc::clone(&registry), None);
    let before = allocations();
    let outcome = explorer.explore(&SequenceNumber::new(), &wide_scope());
    let spent = allocations() - before;
    assert!(outcome.is_certificate(), "got {outcome:?}");

    let (levels, stations, states) = run_shape(&registry);
    let budget = PER_LEVEL * levels + PER_STATION * stations + COLD_FIXED;
    assert!(
        budget < states / 2,
        "the pin must tell per-level from per-state costs: budget {budget}, {states} states"
    );
    assert!(
        spent <= budget,
        "a cold run allocated {spent} times over {levels} levels and {stations} \
         station states (budget {budget}); something allocates per state"
    );
}

#[test]
fn dropping_a_warm_explorer_frees_per_level_not_per_state() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Teardown frees the explorer's buffers: per level its path records,
    // per station state its automaton boxes, and a fixed set of slabs,
    // shards and scratches. Anything held per frontier node, such as a
    // boxed system with its ten or so buffers, multiplies the count by the
    // width of the last two levels.
    let registry = std::sync::Arc::new(Registry::new());
    Explorer::new()
        .parallel(2)
        .with_telemetry(std::sync::Arc::clone(&registry), None)
        .explore(&SequenceNumber::new(), &wide_scope());
    let (levels, stations, states) = run_shape(&registry);
    let mut explorer = Explorer::new().parallel(2);
    for _ in 0..2 {
        explorer.explore(&SequenceNumber::new(), &wide_scope());
    }
    let before = deallocations();
    drop(explorer);
    let freed = deallocations() - before;
    let budget = 4 * levels + 4 * stations + 1024;
    assert!(budget < states / 2, "budget {budget}, {states} states");
    assert!(
        freed <= budget,
        "dropping the explorer freed {freed} buffers over {levels} levels \
         (budget {budget}); something is held per state"
    );
}

#[test]
#[ignore]
fn diagnose_allocation_sources() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut explorer = Explorer::new().parallel(2);
    for run in 0..6 {
        let before = allocations();
        explorer.explore(&SequenceNumber::new(), &wide_scope());
        println!("run {run}: {} allocations", allocations() - before);
    }
    let before = deallocations();
    drop(explorer);
    println!("teardown: {} deallocations", deallocations() - before);
}
