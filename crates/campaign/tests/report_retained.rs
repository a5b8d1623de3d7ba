//! Memory pin for what a finished campaign report keeps.
//!
//! A report keeps one row per run and the runs' counters folded into one
//! total; no run's own counters outlive its fold. This pin makes that
//! falsifiable with a counting global allocator: it runs 160 seqnum runs
//! of 400 messages (whose per-header tables alone hold about 25 KB a run)
//! and measures the live heap the finished report frees when it drops.
//! A report that kept each run's counters would hold about 27 KB a run.

use nonfifo_campaign::{CampaignPlan, CampaignRunner};
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

/// The most heap a finished report may hold per run: its row (the spec's
/// strings included) with room to spare, and far below one run's
/// counters.
const BYTES_PER_RUN: i64 = 1024;

#[test]
fn a_finished_report_holds_rows_not_counters() {
    let plan = CampaignPlan::parse(
        "scenario retained
         protocols seqnum
         disciplines fifo prob:0.2 prob:0.5 lossy:0.2 reorder:4
         messages 400
         seeds 0..32",
    )
    .unwrap();
    let runs = plan.expand();
    assert_eq!(runs.len(), 160);
    let report = CampaignRunner::new(1).run(&runs).unwrap();
    assert_eq!(report.records.len(), runs.len());
    let before = LIVE.load(Ordering::Relaxed);
    drop(report);
    let held = before - LIVE.load(Ordering::Relaxed);
    let per_run = held / runs.len() as i64;
    println!("a finished report holds {held} B, {per_run} B a run");
    assert!(
        per_run < BYTES_PER_RUN,
        "a finished report holds {held} B, {per_run} B for each of {} runs; \
         it should keep rows and one folded total, not each run's counters",
        runs.len()
    );
}
