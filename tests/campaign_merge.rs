//! Campaign-merge determinism, end-to-end through the facade: the property
//! that makes the `nonfifo serve` daemon safe is that the expand →
//! execute → merge pipeline is a pure function of the plan — however the
//! expansion is partitioned, whatever order the parts come back in, and
//! whatever mix of cached and fresh records fills the slots. These tests
//! pin that property for partitions executed with
//! `CampaignRunner::execute` and for the service (its HTTP daemon lives
//! in `crates/cli/tests/serve.rs`), plus the regressions around it:
//! adversarial partitions, lost records, and warm-cache replay through a
//! restarted daemon.

use nonfifo::campaign::{
    merge_reports, CampaignPlan, CampaignRunner, CampaignService, PlanExpansion, RunPart,
    ServiceConfig, WireMsg,
};
use std::sync::Mutex;

const PLAN: &str = "\
schema_version 1
scenario mixed
protocols abp seqnum window4
disciplines fifo prob:0.25
messages 5 9
seeds 0..2

scenario chaos
protocols seqnum
disciplines prob:0.2
messages 8
seeds 0..3
fault dup 0.1
";

fn expansion() -> PlanExpansion {
    let plan = CampaignPlan::parse(PLAN).expect("plan parses");
    PlanExpansion::of_plan(&plan).expect("plan validates")
}

fn batch_baseline() -> (String, String) {
    let report = CampaignRunner::new(1).run(expansion().runs()).unwrap();
    (report.render(), report.aggregate_metrics().to_json())
}

/// Round-robin parts: index `i` goes to part `i % k`.
fn round_robin(len: usize, k: usize) -> Vec<Vec<usize>> {
    (0..k)
        .map(|part| (part..len).step_by(k).collect())
        .collect()
}

/// A deterministic "random" partition: assigns index `i` to part
/// `xorshift(seed, i) % k`, allowing empty and wildly unbalanced parts —
/// shapes round-robin never produces.
fn scrambled_partition(len: usize, k: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut parts = vec![Vec::new(); k];
    let mut state = seed | 1;
    for i in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        parts[(state as usize) % k].push(i);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// Executes each part with its own `CampaignRunner::execute` call.
fn execute(exp: &PlanExpansion, parts: &[Vec<usize>], threads: usize) -> Vec<RunPart> {
    parts
        .iter()
        .map(|indices| CampaignRunner::new(threads).execute(exp, indices))
        .collect()
}

/// Property: ANY partition of the expansion — round-robin or scrambled,
/// balanced or degenerate, executed at any thread count and merged in any
/// part order — reassembles byte-identically to the single-process batch
/// report.
#[test]
fn arbitrary_partitions_merge_byte_identically() {
    let exp = expansion();
    let (render, aggregate) = batch_baseline();
    let cases: Vec<Vec<Vec<usize>>> = vec![
        round_robin(exp.len(), 1),
        round_robin(exp.len(), 2),
        round_robin(exp.len(), 4),
        round_robin(exp.len(), exp.len()),
        scrambled_partition(exp.len(), 3, 0x9e37),
        scrambled_partition(exp.len(), 5, 0xc2b2),
        scrambled_partition(exp.len(), 2, 0x1234_5678),
    ];
    for (case, partition) in cases.into_iter().enumerate() {
        let mut parts = execute(&exp, &partition, 1 + case % 3);
        // Completion order must not matter: merge the parts reversed.
        parts.reverse();
        let merged = merge_reports(&exp, Vec::new(), parts).unwrap();
        assert_eq!(merged.render(), render, "case {case}");
        assert_eq!(
            merged.aggregate_metrics().to_json(),
            aggregate,
            "case {case}"
        );
    }
}

/// Regression: the service's worker counts 1, 2, and 4 — the matrix
/// `served_campaigns_reproduce_batch_reports_at_1_2_4_workers` drives over
/// HTTP — hold through the service call too, Run deltas included.
#[test]
fn service_reports_are_worker_count_invariant() {
    let (render, aggregate) = batch_baseline();
    let total = expansion().len();
    for workers in [1usize, 2, 4] {
        let service = CampaignService::new(ServiceConfig::default()).unwrap();
        let streamed = Mutex::new(Vec::new());
        let mut sink = |line: &str| {
            if let WireMsg::Run { index, .. } = WireMsg::parse_line(line).unwrap() {
                streamed.lock().unwrap().push(index as usize);
            }
        };
        let report = service.run_campaign(PLAN, workers, &mut sink).unwrap();
        let mut indices = streamed.into_inner().unwrap();
        indices.sort_unstable();
        assert_eq!(
            indices,
            (0..total).collect::<Vec<_>>(),
            "{workers} workers: every run streamed exactly once"
        );
        match report {
            WireMsg::Report {
                render: r,
                aggregate: a,
                ..
            } => {
                assert_eq!(r, render, "{workers} workers");
                assert_eq!(a.to_json(), aggregate, "{workers} workers");
            }
            other => panic!("wrong kind: {}", other.kind()),
        }
    }
}

/// Regression: parts that lost records merge to an error naming the gap,
/// a forged fingerprint and a duplicate record are refused, filling the
/// gap with only the lost runs is refused (the damaged parts' folded
/// counters still hold them), and re-executing the damaged parts whole —
/// in parts at any position — heals to the byte-identical report and
/// aggregate.
#[test]
fn lost_records_are_named_and_retry_heals_byte_identically() {
    let exp = expansion();
    let (render, aggregate) = batch_baseline();
    let partition = round_robin(exp.len(), 3);
    let mut parts = execute(&exp, &partition, 2);

    let mut forged = parts.clone();
    forged[2].rows[0].spec_fingerprint ^= 1;
    let err = merge_reports(&exp, Vec::new(), forged).unwrap_err();
    assert!(err.to_string().contains("different plan"), "{err}");
    assert!(err.to_string().contains("part 2 record"), "{err}");
    let mut doubled = parts.clone();
    doubled.push(parts[0].clone());
    let err = merge_reports(&exp, Vec::new(), doubled).unwrap_err();
    assert!(err.to_string().contains("two records"), "{err}");

    // Drop a prefix of part 1 and a suffix of part 2 — two different
    // shapes of loss.
    let mut lost: Vec<usize> = parts[1].rows.drain(..2).map(|r| r.index).collect();
    lost.extend(parts[2].rows.drain(1..).map(|r| r.index));
    let err = merge_reports(&exp, Vec::new(), parts.clone()).unwrap_err();
    assert!(
        err.to_string().contains("produced no record"),
        "gap is named: {err}"
    );

    // Only the lost runs fill the gap but would count twice in the
    // aggregate: the first damaged part is named.
    let mut patched = parts.clone();
    patched.insert(0, CampaignRunner::new(2).execute(&exp, &lost));
    let err = merge_reports(&exp, Vec::new(), patched).unwrap_err();
    assert!(
        err.to_string()
            .contains("part 2 folds 9 runs but carries 7 rows; re-execute the whole part"),
        "{err}"
    );

    // The merge keys on index + fingerprint, not on the part's position:
    // the damaged parts, re-executed whole, go first.
    parts.truncate(1);
    for damaged in &partition[1..] {
        parts.insert(0, CampaignRunner::new(2).execute(&exp, damaged));
    }
    let healed = merge_reports(&exp, Vec::new(), parts).unwrap();
    assert_eq!(healed.render(), render);
    assert_eq!(healed.aggregate_metrics().to_json(), aggregate);
}

/// The shipped plans' aggregates are pinned to golden files: the batch
/// runner at 1 and 2 threads and the service at 1 and 2 workers reproduce
/// them byte for byte. `smoke` and `stabilize` were written by the binary
/// that still recorded every packet through the registry, so the per-run
/// counters must reproduce those aggregates. `growth` was written by the
/// binary whose spec monitor still kept a table entry for every copy sent;
/// its outnumber5 cells drive the monitor hardest.
#[test]
fn shipped_plans_reproduce_their_golden_aggregates_batch_and_served() {
    for name in ["smoke", "stabilize", "growth"] {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/campaigns");
        let plan = std::fs::read_to_string(format!("{dir}/{name}.campaign")).unwrap();
        let golden = std::fs::read_to_string(format!("{dir}/{name}.metrics.json")).unwrap();
        let runs = CampaignPlan::parse(&plan).unwrap().expand();
        for threads in [1, 2] {
            let batch = CampaignRunner::new(threads).run(&runs).unwrap();
            assert_eq!(batch.aggregate_metrics().to_json(), golden, "{name} batch");
            let service = CampaignService::new(ServiceConfig::default()).unwrap();
            let mut sink = |_: &str| {};
            match service.run_campaign(&plan, threads, &mut sink).unwrap() {
                WireMsg::Report {
                    render, aggregate, ..
                } => {
                    assert_eq!(render, batch.render(), "{name} served");
                    assert_eq!(aggregate.to_json(), golden, "{name} served");
                }
                other => panic!("wrong kind: {}", other.kind()),
            }
        }
    }
}

/// Warm-cache replay through the daemon: a service restarted on the cache
/// file a previous service wrote replays every run without executing
/// anything, byte-identical except the hit counter.
#[test]
fn warm_cache_replays_through_a_restarted_service() {
    let total = expansion().len();
    let path = std::env::temp_dir()
        .join(format!("nonfifo-service-cache-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::remove_file(&path).ok();

    let cfg = ServiceConfig {
        cache_path: Some(path.clone()),
        ..ServiceConfig::default()
    };
    let cold_service = CampaignService::new(cfg.clone()).unwrap();
    let mut sink = |_: &str| {};
    let cold = cold_service.run_campaign(PLAN, 2, &mut sink).unwrap();
    assert_eq!(cold_service.cache().len(), total, "cache file populated");

    // A fresh service instance — only the file connects them.
    let warm_service = CampaignService::new(cfg).unwrap();
    let executed = Mutex::new(0usize);
    let mut sink = |line: &str| {
        if matches!(WireMsg::parse_line(line), Ok(WireMsg::Run { .. })) {
            *executed.lock().unwrap() += 1;
        }
    };
    let warm = warm_service.run_campaign(PLAN, 4, &mut sink).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(executed.into_inner().unwrap(), 0, "nothing re-executed");

    match (cold, warm) {
        (
            WireMsg::Report {
                render: cr,
                aggregate: ca,
                cache_hits: 0,
            },
            WireMsg::Report {
                render: wr,
                aggregate: mut wa,
                cache_hits: hits,
            },
        ) => {
            assert_eq!(hits as usize, total);
            assert_eq!(cr, wr, "renders byte-identical across the restart");
            wa.counters.insert("campaign.cache_hits".to_string(), 0);
            assert_eq!(ca.to_json(), wa.to_json(), "aggregates differ only in hits");
        }
        other => panic!("unexpected reports: {other:?}"),
    }
}

/// The versioned plan schema rides the whole pipeline: a v1 declaration
/// is accepted everywhere, and an unsupported version is rejected with
/// the line number before any run executes.
#[test]
fn schema_versions_gate_the_service_pipeline() {
    let service = CampaignService::new(ServiceConfig::default()).unwrap();
    let mut sink = |_: &str| panic!("rejected plans must not stream");
    let future = PLAN.replace("schema_version 1", "schema_version 99");
    let err = service.run_campaign(&future, 2, &mut sink).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 1"), "{msg}");
    assert!(msg.contains("unsupported schema_version 99"), "{msg}");
}
