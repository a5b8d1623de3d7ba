//! Allocation pin for refilling a warm live-copies monitor.
//!
//! The explorers load every frontier node into a pooled system whose
//! monitor takes its forward table from the channel's pool with
//! `SpecMonitor::restore_at_rest`. The table copies into the buffer it
//! already owns, so a monitor that has once held a table this large
//! refills without touching the heap. A counting global allocator makes
//! that falsifiable.

use nonfifo_ioa::{CopyId, CopyTable, Dir, Header, Packet, SpecMonitor};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// A pool of `n` header-only copies with ids `1..=n`.
fn pool(n: u64) -> CopyTable {
    let mut table = CopyTable::new();
    for id in 1..=n {
        table.insert(
            CopyId::from_raw(id),
            Packet::header_only(Header::new((id % 3) as u32)),
        );
    }
    table
}

#[test]
fn restore_at_rest_into_a_warm_monitor_does_not_allocate() {
    let (large, small) = (pool(1_000), pool(10));
    let mut mon = SpecMonitor::new().live_copies_only();
    // Warm-up: the first restore sizes the forward table's buffer.
    mon.restore_at_rest(1_000, 0, 2_000, &large);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    mon.restore_at_rest(10, 0, 20, &small);
    assert_eq!(mon.in_transit(Dir::Forward), &small);
    mon.restore_at_rest(1_000, 0, 2_000, &large);
    assert_eq!(mon.in_transit(Dir::Forward), &large);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(spent, 0, "refilling a warm monitor allocated {spent} times");
    assert!(mon.is_at_rest());
    assert_eq!(mon.messages_sent(), 1_000);
}
