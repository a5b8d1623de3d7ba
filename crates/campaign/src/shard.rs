//! The campaign pipeline as three explicit, separately drivable stages:
//! **expand** ([`PlanExpansion`]) → **execute** ([`ShardSpec::execute`]) →
//! **merge** ([`merge_reports`]).
//!
//! The batch runner, the `nonfifo serve` daemon, and the `nonfifo worker`
//! subprocess all drive these same stages; they differ only in *where*
//! each stage runs. A worker process receives the plan text plus a list of
//! run indices, re-expands the plan locally (expansion is deterministic,
//! so shipping indices is enough), executes its slice, and streams one
//! record per run. The merge stage reassembles records **in input order,
//! keyed by spec fingerprint**: every record must name the fingerprint of
//! the spec at its index, so a worker that drifted (stale binary, edited
//! plan, corrupted pipe) is caught at merge time instead of silently
//! corrupting the report. Because every run is a deterministic function of
//! its spec, the merged report is byte-identical to a single-process batch
//! run at any worker count — the property the daemon's CI smoke diffs.

use crate::cache::{CachedRun, CampaignCache, RunMetrics};
use crate::plan::CampaignPlan;
use crate::runner::{execute_one, CampaignReport, RunRecord};
use crate::spec::RunSpec;
use nonfifo_core::NonFifoError;
use nonfifo_protocols::catalog;

/// Stage 1: a validated, expanded run list.
///
/// Construction validates every spec (protocol names against the catalog,
/// discipline parameters) so the execute stage can assume well-formed
/// input — a worker never discovers a typo three shards into a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExpansion {
    runs: Vec<RunSpec>,
}

impl PlanExpansion {
    /// Validates an already-expanded run list.
    ///
    /// # Errors
    ///
    /// Fails on unknown protocol names or invalid discipline parameters.
    pub fn new(runs: Vec<RunSpec>) -> Result<PlanExpansion, NonFifoError> {
        for spec in &runs {
            catalog::by_name(&spec.protocol).map_err(|e| NonFifoError::Usage(e.to_string()))?;
            spec.discipline.validate()?;
        }
        Ok(PlanExpansion { runs })
    }

    /// Expands and validates a parsed plan.
    ///
    /// # Errors
    ///
    /// Fails on unknown protocol names or invalid discipline parameters
    /// (plan parsing already rejects most of these; this also covers
    /// plans built programmatically).
    pub fn of_plan(plan: &CampaignPlan) -> Result<PlanExpansion, NonFifoError> {
        PlanExpansion::new(plan.expand())
    }

    /// The expanded runs, in input order.
    pub fn runs(&self) -> &[RunSpec] {
        &self.runs
    }

    /// Number of runs in the expansion.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True for an empty expansion.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Splits the cache-consulting pre-pass out of the execute stage:
    /// returns the replayed records (marked `cached`) and the indices
    /// still to run, both in input order.
    pub fn partition_cached(&self, cache: &CampaignCache) -> (Vec<(usize, RunRecord)>, Vec<usize>) {
        let mut cached = Vec::new();
        let mut misses = Vec::new();
        for (i, spec) in self.runs.iter().enumerate() {
            match cache.lookup(spec) {
                Some(hit) => cached.push((i, hit)),
                None => misses.push(i),
            }
        }
        (cached, misses)
    }

    /// Partitions `indices` round-robin into `n` shards. Round-robin (not
    /// contiguous blocks) because adjacent runs share a scenario and
    /// therefore a cost profile — interleaving balances the expensive
    /// scenario across every worker instead of handing it to one.
    ///
    /// Shards with no work are dropped, so the result may be shorter than
    /// `n`; it is empty only if `indices` is.
    pub fn shards(&self, indices: &[usize], n: usize) -> Vec<ShardSpec> {
        let n = n.max(1).min(indices.len().max(1));
        let mut shards: Vec<ShardSpec> = (0..n)
            .map(|shard| ShardSpec {
                shard,
                of: n,
                indices: Vec::new(),
            })
            .collect();
        for (slot, &index) in indices.iter().enumerate() {
            shards[slot % n].indices.push(index);
        }
        shards.retain(|s| !s.indices.is_empty());
        shards
    }

    /// [`shards`](PlanExpansion::shards) over every run in the expansion.
    pub fn shard_all(&self, n: usize) -> Vec<ShardSpec> {
        let all: Vec<usize> = (0..self.runs.len()).collect();
        self.shards(&all, n)
    }

    /// Partitions `indices` into `n` shards balanced by **expected run
    /// cost** ([`cost_weight`]) instead of run count: longest-processing-
    /// time greedy — heaviest run first, each to the lightest-loaded shard.
    /// Round-robin balances counts, but a plan mixing an `outnumber` cell
    /// with cheap `abp` seeds ships one worker a shard that runs orders of
    /// magnitude longer than the rest; weighting by cost keeps wall time
    /// balanced instead.
    ///
    /// The partition is a pure function of the expansion (weight ties
    /// resolve in input order, load ties to the lowest shard id), and the
    /// merged report is byte-identical to any other partition's — the
    /// merge is fingerprint-keyed and index-addressed, so *placement*
    /// can never leak into the report.
    ///
    /// Shards with no work are dropped, exactly as in
    /// [`shards`](PlanExpansion::shards).
    pub fn shards_weighted(&self, indices: &[usize], n: usize) -> Vec<ShardSpec> {
        let n = n.max(1).min(indices.len().max(1));
        let mut order: Vec<usize> = indices.to_vec();
        // Stable sort: equal weights keep input order.
        order.sort_by_key(|&i| std::cmp::Reverse(cost_weight(&self.runs[i])));
        let mut shards: Vec<ShardSpec> = (0..n)
            .map(|shard| ShardSpec {
                shard,
                of: n,
                indices: Vec::new(),
            })
            .collect();
        let mut loads = vec![0u64; n];
        for &index in &order {
            let slot = loads
                .iter()
                .enumerate()
                .min_by_key(|&(s, &load)| (load, s))
                .map(|(s, _)| s)
                .expect("n >= 1 shard slots");
            loads[slot] = loads[slot].saturating_add(cost_weight(&self.runs[index]));
            shards[slot].indices.push(index);
        }
        for shard in &mut shards {
            // Execution and the wire protocol expect ascending indices.
            shard.indices.sort_unstable();
        }
        shards.retain(|s| !s.indices.is_empty());
        shards
    }

    /// Percent imbalance of a partition under [`cost_weight`]: the
    /// heaviest shard's load over the ideal per-shard average, ×100 — so
    /// 100 is a perfect balance and 300 means the slowest worker carries
    /// three averages. The `service.shard_imbalance` gauge reports this.
    pub fn shard_imbalance_pct(&self, shards: &[ShardSpec]) -> u64 {
        let loads: Vec<u64> = shards
            .iter()
            .map(|s| s.indices.iter().map(|&i| cost_weight(&self.runs[i])).sum())
            .collect();
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        if total == 0 {
            return 100;
        }
        let avg = total as f64 / loads.len() as f64;
        ((max as f64 / avg) * 100.0).round() as u64
    }
}

/// Expected relative cost of one run — the weight
/// [`PlanExpansion::shards_weighted`] balances. Linear in the message
/// count for ordinary protocols; the catalog's `outnumber<L>` and
/// `afek<k>` families drive state spaces that grow exponentially with
/// traffic, so their weight doubles every few messages (capped well below
/// overflow so a single cell cannot swamp the load sums).
pub fn cost_weight(spec: &RunSpec) -> u64 {
    let base = spec.messages.max(1);
    let exponential = spec.protocol.starts_with("outnumber") || spec.protocol.starts_with("afek");
    if exponential {
        base.saturating_mul(1u64 << (spec.messages / 4).min(20))
    } else {
        base
    }
}

/// Stage 2's unit of assignment: one worker's slice of the expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's position in the partition.
    pub shard: usize,
    /// Total number of shards in the partition.
    pub of: usize,
    /// Indices into the expansion's run list, ascending.
    pub indices: Vec<usize>,
}

impl ShardSpec {
    /// Executes the shard's runs in index order on the calling thread,
    /// invoking `sink` after each — the streaming hook the worker process
    /// uses to emit a wire record per completed run. Returns the complete
    /// shard report.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for `expansion` (the daemon and
    /// worker validate indices when they accept a shard).
    pub fn execute(
        &self,
        expansion: &PlanExpansion,
        mut sink: impl FnMut(&ShardRecord),
    ) -> ShardReport {
        let mut records = Vec::with_capacity(self.indices.len());
        for &index in &self.indices {
            let spec = &expansion.runs()[index];
            let mut run = CachedRun::from(execute_one(spec));
            // Every record this stage produces is streamed as a wire line,
            // so its counters are named once, here.
            run.metrics = RunMetrics::Snapshot(run.metrics.snapshot().into_owned());
            let shard_record = ShardRecord {
                index,
                spec_fingerprint: spec.fingerprint(),
                run,
            };
            sink(&shard_record);
            records.push(shard_record);
        }
        ShardReport {
            shard: self.shard,
            records,
        }
    }
}

/// One completed run, addressed for the merge stage: the index says where
/// it lands, the spec fingerprint proves the executor ran the same spec
/// the merger holds at that index.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Index into the expansion's run list.
    pub index: usize,
    /// [`RunSpec::fingerprint`] of the spec this record answers.
    pub spec_fingerprint: u64,
    /// The run result, in its one serializable form.
    pub run: CachedRun,
}

/// Stage 2's output: every record a shard produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Which shard produced these records.
    pub shard: usize,
    /// Completed runs, in shard-index order.
    pub records: Vec<ShardRecord>,
}

impl ShardReport {
    /// Wraps already-executed records (the batch runner's thread pool
    /// produces `RunRecord`s directly) as a shard report, moving them.
    pub fn from_records(shard: usize, records: Vec<(usize, RunRecord)>) -> ShardReport {
        ShardReport {
            shard,
            records: records
                .into_iter()
                .map(|(index, record)| ShardRecord {
                    index,
                    spec_fingerprint: record.spec.fingerprint(),
                    run: CachedRun::from(record),
                })
                .collect(),
        }
    }

    /// The indices this report covers that `assigned` expected but did not
    /// get — what the daemon re-dispatches when a worker dies mid-shard.
    pub fn missing_from(&self, assigned: &[usize]) -> Vec<usize> {
        assigned
            .iter()
            .copied()
            .filter(|i| !self.records.iter().any(|r| r.index == *i))
            .collect()
    }
}

/// Stage 3: reassembles cache replays and shard records into one
/// [`CampaignReport`], in input order.
///
/// The merge is *fingerprint-keyed*: a shard record only fills slot `i` if
/// its `spec_fingerprint` equals the fingerprint of the spec at `i`. With
/// that check, the merged report is a pure function of the expansion —
/// byte-identical whatever the shard count, completion order, or mix of
/// cached and fresh records.
///
/// # Errors
///
/// Fails (`NonFifoError::Usage`) on out-of-range indices, fingerprint
/// mismatches, two records for one slot, or unfilled slots — each of which
/// means an executor and the merger disagree about the plan.
pub fn merge_reports(
    expansion: &PlanExpansion,
    cached: Vec<(usize, RunRecord)>,
    parts: Vec<ShardReport>,
) -> Result<CampaignReport, NonFifoError> {
    let mut slots: Vec<Option<RunRecord>> = expansion.runs().iter().map(|_| None).collect();
    let cache_hits = cached.len();
    for (index, record) in cached {
        let slot = slots
            .get_mut(index)
            .ok_or_else(|| merge_err(format!("cached index {index} out of range")))?;
        if slot.is_some() {
            return Err(merge_err(format!("two records for run {index}")));
        }
        *slot = Some(record);
    }
    for part in parts {
        for record in part.records {
            let index = record.index;
            let spec = expansion
                .runs()
                .get(index)
                .ok_or_else(|| {
                    merge_err(format!("shard {} index {index} out of range", part.shard))
                })?
                .clone();
            if record.spec_fingerprint != spec.fingerprint() {
                return Err(merge_err(format!(
                    "shard {} record for run {index} answers spec {:016x}, expected {:016x} \
                     (worker ran a different plan?)",
                    part.shard,
                    record.spec_fingerprint,
                    spec.fingerprint()
                )));
            }
            let slot = &mut slots[index];
            if slot.is_some() {
                return Err(merge_err(format!("two records for run {index}")));
            }
            let run = record.run;
            *slot = Some(RunRecord {
                spec,
                outcome: run.outcome,
                fingerprint: run.fingerprint,
                steps: run.steps,
                fwd_sends: run.fwd_sends,
                delivered: run.delivered,
                metrics: run.metrics,
                cached: false,
            });
        }
    }
    let missing = slots.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        return Err(merge_err(format!(
            "{missing} of {} runs produced no record",
            slots.len()
        )));
    }
    Ok(CampaignReport {
        records: slots.into_iter().map(Option::unwrap).collect(),
        cache_hits,
    })
}

fn merge_err(message: String) -> NonFifoError {
    NonFifoError::Usage(format!("shard merge: {message}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CampaignRunner;
    use crate::spec::ScenarioSpec;
    use nonfifo_channel::Discipline;

    fn expansion() -> PlanExpansion {
        PlanExpansion::new(
            ScenarioSpec::new("t")
                .protocol("abp")
                .protocol("seqnum")
                .discipline(Discipline::Fifo)
                .discipline(Discipline::Probabilistic { q: 0.3 })
                .message_counts(&[5])
                .seeds(0..3)
                .expand(),
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_unknown_protocols() {
        let mut runs = expansion().runs().to_vec();
        runs[2].protocol = "warbler".into();
        let err = PlanExpansion::new(runs).unwrap_err();
        assert!(err.to_string().contains("warbler"), "{err}");
    }

    #[test]
    fn round_robin_shards_cover_exactly_the_input() {
        let exp = expansion();
        for n in [1, 2, 3, 4, 7, exp.len(), exp.len() + 5] {
            let shards = exp.shard_all(n);
            assert!(shards.len() <= n.min(exp.len()));
            let mut seen: Vec<usize> = shards.iter().flat_map(|s| s.indices.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..exp.len()).collect::<Vec<_>>(), "n={n}");
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = shards.iter().map(|s| s.indices.len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "n={n}: unbalanced {sizes:?}");
        }
    }

    #[test]
    fn sharded_execution_merges_byte_identically_at_any_worker_count() {
        let exp = expansion();
        let baseline = CampaignRunner::new(1).run(exp.runs()).unwrap();
        for n in [1, 2, 4] {
            let parts: Vec<ShardReport> = exp
                .shard_all(n)
                .iter()
                .map(|shard| shard.execute(&exp, |_| {}))
                .collect();
            let merged = merge_reports(&exp, Vec::new(), parts).unwrap();
            assert_eq!(merged.render(), baseline.render(), "{n} shards");
            assert_eq!(
                merged.aggregate_metrics().to_json(),
                baseline.aggregate_metrics().to_json(),
                "{n} shards"
            );
        }
    }

    #[test]
    fn merge_rejects_fingerprint_mismatches_and_gaps() {
        let exp = expansion();
        let mut parts: Vec<ShardReport> = exp
            .shard_all(2)
            .iter()
            .map(|shard| shard.execute(&exp, |_| {}))
            .collect();

        // A record answering the wrong spec is refused by name.
        let mut forged = parts.clone();
        forged[0].records[0].spec_fingerprint ^= 1;
        let err = merge_reports(&exp, Vec::new(), forged).unwrap_err();
        assert!(err.to_string().contains("different plan"), "{err}");

        // A dropped record is a counted gap, not a silent hole.
        parts[1].records.pop();
        let err = merge_reports(&exp, Vec::new(), parts.clone()).unwrap_err();
        assert!(err.to_string().contains("1 of 12 runs"), "{err}");

        // Refilling the gap via the retry path heals the merge.
        let assigned = exp.shard_all(2)[1].indices.clone();
        let missing = parts[1].missing_from(&assigned);
        assert_eq!(missing.len(), 1);
        let retry = ShardSpec {
            shard: 2,
            of: 3,
            indices: missing,
        }
        .execute(&exp, |_| {});
        parts.push(retry);
        let healed = merge_reports(&exp, Vec::new(), parts).unwrap();
        assert_eq!(
            healed.render(),
            CampaignRunner::new(1).run(exp.runs()).unwrap().render()
        );
    }

    #[test]
    fn duplicate_records_are_rejected() {
        let exp = expansion();
        let part = exp.shard_all(1)[0].execute(&exp, |_| {});
        let err = merge_reports(&exp, Vec::new(), vec![part.clone(), part]).unwrap_err();
        assert!(err.to_string().contains("two records"), "{err}");
    }

    /// One exponential `outnumber5` cell next to a pile of cheap `abp`
    /// seeds — the shape round-robin splits badly.
    fn skewed_expansion() -> PlanExpansion {
        let mut runs = ScenarioSpec::new("hot")
            .protocol("outnumber5")
            .discipline(Discipline::Fifo)
            .message_counts(&[12])
            .seeds(0..1)
            .expand();
        runs.extend(
            ScenarioSpec::new("cold")
                .protocol("abp")
                .discipline(Discipline::Fifo)
                .message_counts(&[5])
                .seeds(0..7)
                .expand(),
        );
        PlanExpansion::new(runs).unwrap()
    }

    fn max_load(exp: &PlanExpansion, shards: &[ShardSpec]) -> u64 {
        shards
            .iter()
            .map(|s| s.indices.iter().map(|&i| cost_weight(&exp.runs()[i])).sum())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn cost_weight_is_linear_except_for_exponential_families() {
        let mut spec = expansion().runs()[0].clone();
        spec.protocol = "seqnum".into();
        spec.messages = 12;
        assert_eq!(cost_weight(&spec), 12);
        spec.protocol = "outnumber5".into();
        assert_eq!(cost_weight(&spec), 12 << 3);
        spec.messages = 0;
        assert_eq!(cost_weight(&spec), 1, "zero-message runs still cost one");
    }

    #[test]
    fn weighted_shards_cover_exactly_the_input() {
        let exp = skewed_expansion();
        let all: Vec<usize> = (0..exp.len()).collect();
        for n in [1, 2, 3, exp.len(), exp.len() + 5] {
            let shards = exp.shards_weighted(&all, n);
            assert!(shards.len() <= n.min(exp.len()));
            let mut seen: Vec<usize> = shards.iter().flat_map(|s| s.indices.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, all, "n={n}");
            for shard in &shards {
                assert!(
                    shard.indices.windows(2).all(|w| w[0] < w[1]),
                    "n={n}: indices must stay ascending for the wire protocol"
                );
            }
            // Pure function of the expansion: re-partitioning is identical.
            assert_eq!(shards, exp.shards_weighted(&all, n), "n={n}");
        }
    }

    #[test]
    fn weighted_shards_beat_round_robin_on_a_skewed_plan() {
        let exp = skewed_expansion();
        let all: Vec<usize> = (0..exp.len()).collect();
        let round_robin = exp.shards(&all, 2);
        let weighted = exp.shards_weighted(&all, 2);
        assert!(
            max_load(&exp, &weighted) < max_load(&exp, &round_robin),
            "LPT must shrink the critical path: weighted {} vs round-robin {}",
            max_load(&exp, &weighted),
            max_load(&exp, &round_robin),
        );
        assert!(
            exp.shard_imbalance_pct(&weighted) <= exp.shard_imbalance_pct(&round_robin),
            "imbalance gauge must not worsen under weighting"
        );
        // The helper's scale: 100 = perfect, and a uniform plan hits it.
        let uniform = expansion();
        let all: Vec<usize> = (0..uniform.len()).collect();
        assert_eq!(
            uniform.shard_imbalance_pct(&uniform.shards_weighted(&all, 3)),
            100,
            "12 equal-cost runs across 3 shards is a perfect balance"
        );
    }

    #[test]
    fn weighted_sharded_execution_merges_byte_identically() {
        // Placement must never leak into the report: the weighted partition
        // merges to the same bytes as the single-worker baseline.
        let exp = expansion();
        let baseline = CampaignRunner::new(1).run(exp.runs()).unwrap();
        let all: Vec<usize> = (0..exp.len()).collect();
        for n in [1, 2, 4] {
            let parts: Vec<ShardReport> = exp
                .shards_weighted(&all, n)
                .iter()
                .map(|shard| shard.execute(&exp, |_| {}))
                .collect();
            let merged = merge_reports(&exp, Vec::new(), parts).unwrap();
            assert_eq!(merged.render(), baseline.render(), "{n} weighted shards");
            assert_eq!(
                merged.aggregate_metrics().to_json(),
                baseline.aggregate_metrics().to_json(),
                "{n} weighted shards"
            );
        }
    }

    #[test]
    fn execute_streams_every_record_in_index_order() {
        let exp = expansion();
        let shard = &exp.shard_all(3)[1];
        let mut streamed = Vec::new();
        let report = shard.execute(&exp, |r| streamed.push(r.index));
        assert_eq!(streamed, shard.indices);
        assert_eq!(report.records.len(), shard.indices.len());
        assert!(report.missing_from(&shard.indices).is_empty());
    }
}
