//! Allocation regression pins for the exploration hot paths.
//!
//! The parallel engine promises that steady-state expansion — refill the
//! worker's trial [`System`] with `assign_from`, apply an action, hash it,
//! merge its key, rebuild the winners from recycled systems — performs no
//! heap allocation once the arena's buffers have warmed up. This pin makes
//! that promise falsifiable: a counting global allocator measures a warm
//! exploration end to end, and the budget is a small constant (the per-run
//! root-system setup), not a function of the hundreds of expansions the
//! scope performs. A regression that puts even one allocation back into
//! the per-expansion loop blows the budget by an order of magnitude.
//!
//! The sequential oracle keeps its plain one-queue BFS and clones a system
//! per admitted state, so its pin is linear in the state count: attempted
//! successors that are slept or deduplicated must allocate nothing.

use nonfifo_adversary::{ExploreConfig, ExploreOutcome, Explorer};
use nonfifo_protocols::SequenceNumber;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
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

#[test]
#[ignore]
fn diagnose_allocation_sources() {
    let mut explorer = Explorer::new().parallel(1);
    let cfg = ExploreConfig::default();
    for run in 0..6 {
        let before = allocations();
        explorer.explore(&SequenceNumber::new(), &cfg);
        println!("run {run}: {} allocations", allocations() - before);
    }
}
