//! Allocation pin for the simulator's per-run telemetry.
//!
//! A simulation with telemetry attached counts its events in plain
//! per-run slots: no metric name is formatted and no registry cell is
//! created while the run executes. This pin makes that falsifiable with a
//! counting global allocator: a warm run with telemetry may allocate only
//! a small constant more than the same run without it (the boxed counters
//! and the growth of their per-header tables), however many packets it
//! sends. Putting one allocation back into the per-event path adds
//! hundreds.

use nonfifo_channel::Discipline;
use nonfifo_core::{SimConfig, Simulation};
use nonfifo_protocols::SequenceNumber;
use nonfifo_telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Extra allocations telemetry may cost one run: the registry handle, the
/// boxed counters, and a few doublings of the two per-header tables.
const TELEMETRY_BUDGET: u64 = 16;

/// Allocations of one seqnum run of 100 messages over `prob:0.2`, from
/// build to the end of `deliver`, and the forward packets it sent.
fn run(telemetry: bool) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut sim = Simulation::builder(SequenceNumber::factory())
        .channel(Discipline::Probabilistic { q: 0.2 })
        .seed(7)
        .build();
    if telemetry {
        sim.attach_telemetry(Arc::new(Registry::new()), None);
    }
    let stats = sim.deliver(100, &SimConfig::default()).expect("delivery");
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (spent, stats.packets_sent_forward)
}

#[test]
fn telemetry_costs_a_constant_number_of_allocations_per_run() {
    // Warm-up: lazy statics and the allocator's own first-use costs.
    run(false);
    run(true);

    let (plain, sent) = run(false);
    let (watched, watched_sent) = run(true);
    assert_eq!(sent, watched_sent, "telemetry changed the run");
    println!("allocations per run: {plain} without telemetry, {watched} with ({sent} packets)");
    assert!(
        watched <= plain + TELEMETRY_BUDGET,
        "a run with telemetry allocated {watched} times, {} more than without \
         ({plain}) for {sent} forward packets; recording must not allocate per event",
        watched.saturating_sub(plain)
    );
}
