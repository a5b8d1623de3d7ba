//! The campaign pipeline as three explicit stages: **expand**
//! ([`PlanExpansion`]) → **execute**
//! ([`CampaignRunner::execute`](crate::CampaignRunner::execute)) →
//! **merge** ([`merge_reports`]).
//!
//! The batch runner and the `nonfifo serve` daemon drive these same
//! stages on the same work-stealing execute body. The merge stage
//! reassembles records **in input order, keyed by spec fingerprint**:
//! every record must name the fingerprint of the spec at its index, so an
//! executor that ran a different plan is caught at merge time instead of
//! silently corrupting the report. Because every run is a deterministic
//! function of its spec, the merged report is byte-identical to a
//! single-threaded batch run for any partition of the run list — the
//! property the daemon's CI smoke diffs.

use crate::cache::{CachedRun, CampaignCache};
use crate::plan::CampaignPlan;
use crate::runner::{CampaignReport, RunRecord};
use crate::spec::RunSpec;
use nonfifo_core::NonFifoError;
use nonfifo_protocols::catalog;

/// Stage 1: a validated, expanded run list.
///
/// Construction validates every spec (protocol names against the catalog,
/// discipline parameters) so the execute stage can assume well-formed
/// input — a worker never discovers a typo halfway through a campaign.
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

/// Stage 2's output: the records one execute call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Which part of the run list these records answer; named in merge
    /// errors.
    pub shard: usize,
    /// Completed runs, in index order.
    pub records: Vec<ShardRecord>,
}

/// Stage 3: reassembles cache replays and executed records into one
/// [`CampaignReport`], in input order.
///
/// The merge is *fingerprint-keyed*: a record only fills slot `i` if its
/// `spec_fingerprint` equals the fingerprint of the spec at `i`. With that
/// check, the merged report is a pure function of the expansion —
/// byte-identical whatever the partition, completion order, or mix of
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
                     (executor ran a different plan?)",
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

    /// Executes `n` round-robin parts of the expansion, one call each.
    fn execute_parts(exp: &PlanExpansion, n: usize) -> Vec<ShardReport> {
        (0..n)
            .map(|part| {
                let indices: Vec<usize> = (part..exp.len()).step_by(n).collect();
                let mut report = CampaignRunner::new(1).execute(exp, &indices);
                report.shard = part;
                report
            })
            .collect()
    }

    #[test]
    fn validation_rejects_unknown_protocols() {
        let mut runs = expansion().runs().to_vec();
        runs[2].protocol = "warbler".into();
        let err = PlanExpansion::new(runs).unwrap_err();
        assert!(err.to_string().contains("warbler"), "{err}");
    }

    #[test]
    fn sharded_execution_merges_byte_identically_at_any_worker_count() {
        let exp = expansion();
        let baseline = CampaignRunner::new(1).run(exp.runs()).unwrap();
        for n in [1, 2, 4] {
            let merged = merge_reports(&exp, Vec::new(), execute_parts(&exp, n)).unwrap();
            assert_eq!(merged.render(), baseline.render(), "{n} parts");
            assert_eq!(
                merged.aggregate_metrics().to_json(),
                baseline.aggregate_metrics().to_json(),
                "{n} parts"
            );
        }
    }

    #[test]
    fn merge_rejects_fingerprint_mismatches_and_gaps() {
        let exp = expansion();
        let mut parts = execute_parts(&exp, 2);

        // A record answering the wrong spec is refused by name.
        let mut forged = parts.clone();
        forged[0].records[0].spec_fingerprint ^= 1;
        let err = merge_reports(&exp, Vec::new(), forged).unwrap_err();
        assert!(err.to_string().contains("different plan"), "{err}");

        // A dropped record is a counted gap, not a silent hole.
        let lost = parts[1].records.pop().unwrap().index;
        let err = merge_reports(&exp, Vec::new(), parts.clone()).unwrap_err();
        assert!(err.to_string().contains("1 of 12 runs"), "{err}");

        // Executing exactly the missing index fills the gap.
        parts.push(CampaignRunner::new(1).execute(&exp, &[lost]));
        let healed = merge_reports(&exp, Vec::new(), parts).unwrap();
        assert_eq!(
            healed.render(),
            CampaignRunner::new(1).run(exp.runs()).unwrap().render()
        );
    }

    #[test]
    fn duplicate_records_are_rejected() {
        let exp = expansion();
        let part = execute_parts(&exp, 1).remove(0);
        let err = merge_reports(&exp, Vec::new(), vec![part.clone(), part]).unwrap_err();
        assert!(err.to_string().contains("two records"), "{err}");
    }

    #[test]
    fn execute_streams_every_record_in_index_order() {
        let exp = expansion();
        let indices = [1, 4, 7, 10];
        for threads in [1, 3] {
            let streamed = std::sync::Mutex::new(Vec::new());
            let (report, busy) = CampaignRunner::new(threads).execute_streaming(
                &exp,
                &indices,
                &|r: &ShardRecord| streamed.lock().unwrap().push(r.index),
            );
            let mut streamed = streamed.into_inner().unwrap();
            streamed.sort_unstable();
            assert_eq!(
                streamed, indices,
                "{threads} threads: each run streamed once"
            );
            let order: Vec<usize> = report.records.iter().map(|r| r.index).collect();
            assert_eq!(
                order, indices,
                "{threads} threads: the report is in index order"
            );
            assert_eq!(busy.len(), threads, "one busy time per worker");
        }
    }
}
