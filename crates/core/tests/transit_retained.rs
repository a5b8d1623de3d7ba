//! Memory pin for the tables of copies in transit.
//!
//! T5.1's growth runs spend their memory on copies in transit: the
//! outnumber5 run of 16 messages over `prob:0.5` ends with 120,842 forward
//! copies delayed, each held once in the channel's pool and once in the
//! spec monitor's table. Neither protocol nor channel sends a payload, so
//! both tables keep 12-byte header-only rows, and with the vector's growth
//! slack a table holds at most 16 bytes a copy; a 32-byte
//! `(CopyId, Packet)` row per copy reads about 35. A counting global
//! allocator measures what the simulation holds at the end of the run;
//! everything but the monitor, the pool included, must fit in the same
//! 16 bytes a forward copy.

use nonfifo_channel::Discipline;
use nonfifo_core::{SimConfig, Simulation};
use nonfifo_ioa::Dir;
use nonfifo_protocols::Outnumber;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicI64, Ordering};

struct CountingAlloc;

/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The most heap a table may hold per copy in transit: a 12-byte row and
/// the vector's doubling slack, with room to spare.
const BYTES_PER_COPY: usize = 16;

#[test]
fn header_only_copies_cost_a_narrow_row_in_the_pool_and_the_monitor() {
    let mut sim = Simulation::builder(Outnumber::new(5))
        .channel(Discipline::Probabilistic { q: 0.5 })
        .seed(961_510_686)
        .build();
    let stats = sim.deliver(16, &SimConfig::default()).expect("delivery");
    let in_transit = stats.final_in_transit as usize;
    assert_eq!(in_transit, 120_842, "the growth run changed");

    let monitor = sim.monitor();
    let forward = monitor.in_transit(Dir::Forward);
    assert_eq!(forward.len(), in_transit);
    for dir in Dir::BOTH {
        let table = monitor.in_transit(dir);
        println!(
            "monitor {dir} table: {} B for {} copies",
            table.heap_bytes(),
            table.len()
        );
        // The backward table holds a few dozen acks, where one doubling
        // can leave a row's worth of slack; the bound is for the growth.
        let bound = match dir {
            Dir::Forward => BYTES_PER_COPY * table.len(),
            Dir::Backward => 2 * 12 * table.len().max(4),
        };
        assert!(!table.is_wide(), "the monitor's {dir} table widened");
        assert!(
            table.heap_bytes() <= bound,
            "the monitor's {dir} table holds {} B for {} copies",
            table.heap_bytes(),
            table.len()
        );
    }

    let monitor_bytes = monitor.heap_bytes() as i64;
    let before = LIVE.load(Ordering::Relaxed);
    drop(sim);
    let held = before - LIVE.load(Ordering::Relaxed);
    let rest = (held - monitor_bytes) as usize;
    println!(
        "the simulation holds {held} B: {monitor_bytes} B in the monitor and {rest} B \
         elsewhere, {:.1} B a forward copy",
        rest as f64 / in_transit as f64
    );
    assert!(
        rest <= BYTES_PER_COPY * in_transit,
        "the pool and the rest of the simulation hold {rest} B for {in_transit} copies \
         in transit"
    );
}
