//! Integration tests for the campaign engine, driven end-to-end through the
//! facade: plan text → expansion → work-stealing execution → report. The
//! load-bearing guarantees are thread-count invariance (the report and the
//! aggregate metrics are byte-identical at any worker count) and cache
//! transparency (a warm replay renders exactly like a cold run).

use nonfifo::campaign::{CampaignCache, CampaignPlan, CampaignRunner, RunOutcome};

const PLAN: &str = "\
# cross-protocol smoke matrix
scenario smoke
protocols abp seqnum window4
disciplines fifo prob:0.2
messages 5 10
seeds 0..2

scenario chaos
protocols seqnum
disciplines fifo
messages 12
seeds 9
fault dup 0.1
fault drop 0.05
";

fn plan_runs() -> Vec<nonfifo::campaign::RunSpec> {
    CampaignPlan::parse(PLAN).expect("plan parses").expand()
}

#[test]
fn report_and_aggregate_are_byte_identical_across_thread_counts() {
    let runs = plan_runs();
    assert_eq!(runs.len(), 3 * 2 * 2 * 2 + 1);

    let baseline = CampaignRunner::new(1).run(&runs).expect("1-thread run");
    let base_render = baseline.render();
    let base_metrics = baseline.aggregate_metrics().to_json();
    for threads in [2, 8] {
        let report = CampaignRunner::new(threads)
            .run(&runs)
            .expect("multi-thread run");
        assert_eq!(
            report.render(),
            base_render,
            "{threads} threads: report diverged from single-threaded run"
        );
        assert_eq!(
            report.aggregate_metrics().to_json(),
            base_metrics,
            "{threads} threads: aggregate metrics diverged"
        );
    }
}

#[test]
fn warm_cache_replays_every_run_and_renders_identically() {
    let runs = plan_runs();
    let mut cache = CampaignCache::new();

    let cold = CampaignRunner::new(2)
        .run_with_cache(&runs, &mut cache)
        .expect("cold run");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cache.len(), runs.len());

    let warm = CampaignRunner::new(2)
        .run_with_cache(&runs, &mut cache)
        .expect("warm run");
    assert_eq!(
        warm.cache_hits,
        runs.len(),
        "second run must be 100% cached"
    );
    assert_eq!(
        warm.render(),
        cold.render(),
        "cache replay must be invisible in the report"
    );
    assert!(warm.records.iter().all(|r| r.cached));
    let mut aggregate = warm.aggregate_metrics();
    aggregate
        .counters
        .insert("campaign.cache_hits".to_string(), 0);
    assert_eq!(
        aggregate.to_json(),
        cold.aggregate_metrics().to_json(),
        "cold and warm aggregates differ only in the hit counter"
    );
}

#[test]
fn cache_survives_a_save_load_round_trip() {
    let runs = plan_runs();
    let mut cache = CampaignCache::new();
    CampaignRunner::new(1)
        .run_with_cache(&runs, &mut cache)
        .expect("populate");

    let path = std::env::temp_dir()
        .join(format!(
            "nonfifo-campaign-cache-{}.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    cache.save(&path).expect("save");
    let loaded = CampaignCache::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, cache, "cache did not round-trip through disk");

    let mut reloaded = loaded;
    let warm = CampaignRunner::new(1)
        .run_with_cache(&runs, &mut reloaded)
        .expect("warm run from disk cache");
    assert_eq!(warm.cache_hits, runs.len());
}

#[test]
fn all_smoke_runs_deliver_and_worst_is_none() {
    let report = CampaignRunner::new(0)
        .run(&plan_runs())
        .expect("smoke campaign");
    assert_eq!(report.count(RunOutcome::Delivered), report.records.len());
    assert!(report.worst().is_none());
}

#[test]
fn run_fingerprints_are_unique_across_the_matrix() {
    let runs = plan_runs();
    let mut keys: Vec<u64> = runs.iter().map(|r| r.fingerprint()).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(
        keys.len(),
        runs.len(),
        "fingerprint collision in the matrix"
    );
}
