//! Memory pin for what a loaded campaign cache keeps.
//!
//! A cache entry holds its run's result and its counters as the text its
//! log line carries, not a decoded `RunCounters`: a seqnum run of 100
//! messages decodes to two 100-header tables per lane and two histograms,
//! several KB, against about a KB of text. This pin makes that falsifiable
//! with a counting global allocator: it writes a cache of seqnum and
//! window4 runs of 100 messages, loads it, and measures the live heap the
//! loaded cache frees when it drops.

use nonfifo_campaign::{CampaignCache, CampaignPlan, CampaignRunner};
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

/// The most heap an entry may hold beyond its log line's length: the map's
/// share of a node and the allocator's rounding, with room to spare.
const BYTES_PER_ENTRY: i64 = 128;

#[test]
fn a_loaded_cache_holds_about_its_file() {
    let plan = CampaignPlan::parse(
        "scenario retained
         protocols seqnum window4
         disciplines fifo prob:0.3 lossy:0.2 reorder:4
         messages 100
         seeds 0..8",
    )
    .unwrap();
    let runs = plan.expand();
    assert_eq!(runs.len(), 64);
    let path = std::env::temp_dir()
        .join(format!(
            "nonfifo-cache-retained-{}.ndjson",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    std::fs::remove_file(&path).ok();
    let mut cache = CampaignCache::new();
    for spec in &runs {
        cache.insert(spec, CampaignRunner::run_one(spec).unwrap());
    }
    cache.save(&path).unwrap();
    drop(cache);
    let file = std::fs::metadata(&path).unwrap().len() as i64;

    let loaded = CampaignCache::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.len(), runs.len());
    let before = LIVE.load(Ordering::Relaxed);
    drop(loaded);
    let held = before - LIVE.load(Ordering::Relaxed);
    let entries = runs.len() as i64;
    println!(
        "a loaded cache holds {held} B, {} B an entry, for a {file} B file ({} B a line)",
        held / entries,
        file / entries
    );
    assert!(
        held <= file + BYTES_PER_ENTRY * entries,
        "a loaded cache holds {held} B for a {file} B file of {entries} lines; \
         each entry should keep its counters as text, not decoded"
    );
}
