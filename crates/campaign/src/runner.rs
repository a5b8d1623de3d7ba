//! The campaign pipeline and its work-stealing runner: **expand**
//! ([`PlanExpansion`]) → **execute** ([`CampaignRunner::execute`]) →
//! **merge** ([`merge_reports`]).
//!
//! [`CampaignRunner`] executes an expanded run list on a pool of scoped
//! worker threads. Work is claimed run-at-a-time from a
//! [`ChunkCursor`](nonfifo_adversary::ChunkCursor) (runs vary wildly in
//! cost — a chunk of 1 is the right granularity, unlike the explorer's
//! uniform frontier nodes), and every worker tags its results with the
//! run's index in the input list. The batch runner and the `nonfifo serve`
//! daemon drive the same three stages on the same execute body.
//!
//! The merge reassembles rows **in input order, keyed by spec
//! fingerprint**: every row must name the fingerprint of the spec at its
//! index, so an executor that ran a different plan is caught at merge
//! time instead of silently corrupting the report. Because every run is a
//! deterministic function of its spec, the rendered report and the
//! aggregate metrics snapshot are **byte-identical at any thread count and
//! for any partition of the run list**: parallelism changes wall-clock
//! time and nothing else.
//!
//! Each run gets a fresh simulation counting into its own
//! [`RunCounters`](nonfifo_core::RunCounters) and a deterministic seed
//! from its spec, so runs are independent and a result can be cached: the
//! [`CampaignCache`] is consulted before the pool spins up, and cached
//! records are indistinguishable from fresh ones in every report artifact.
//! A run's counters live only while the run is streamed, folded or
//! encoded for a cache, which keeps them as text; a cache hit's are
//! decoded only to be folded. Each worker folds the counters of every run it
//! finishes into its own total ([`CountersFold`]) and keeps only the
//! run's row; the merge sums the workers' totals and the cache hits'.
//! Every slot of that fold is an integer sum, maximum or minimum, so the
//! order and grouping of the fold cannot change the aggregate, and a
//! report keeps table rows, not counters.
//!
//! A run that panics does not take its worker down: the panic is caught
//! around that one run and recorded as [`RunOutcome::Panicked`], a failure
//! that the cache never stores.

use crate::cache::{CachedRun, CampaignCache, StoredRun};
use crate::plan::CampaignPlan;
use crate::spec::RunSpec;
use nonfifo_adversary::ChunkCursor;
use nonfifo_channel::CorruptionSeverity;
use nonfifo_core::experiments::table::{f3, markdown};
use nonfifo_core::{
    corrupted_simulation, drive_corrupted, NonFifoError, RunCounters, SeedVerdict, SimConfig,
    SimError, Simulation, StabilizeConfig,
};
use nonfifo_ioa::Dir;
use nonfifo_protocols::{catalog, DataLink};
use nonfifo_telemetry::MetricsSnapshot;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one campaign run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every message was delivered within budget.
    Delivered,
    /// A message outran its step budget.
    Stalled,
    /// The online monitor flagged a specification violation.
    Violation,
    /// A corrupted-start run never acquired a legal suffix: the scramble's
    /// damage persisted past the convergence bound.
    Diverged,
    /// The run panicked: a defect in the engine or a protocol, not a
    /// verdict. It counts as a failure and is never cached, so the next
    /// campaign runs it again.
    Panicked,
}

impl RunOutcome {
    /// Stable text form, used by reports and the cache file.
    pub fn as_str(self) -> &'static str {
        match self {
            RunOutcome::Delivered => "delivered",
            RunOutcome::Stalled => "stalled",
            RunOutcome::Violation => "violation",
            RunOutcome::Diverged => "diverged",
            RunOutcome::Panicked => "panicked",
        }
    }

    /// Parses [`as_str`](RunOutcome::as_str) spellings.
    pub fn from_str_opt(s: &str) -> Option<RunOutcome> {
        match s {
            "delivered" => Some(RunOutcome::Delivered),
            "stalled" => Some(RunOutcome::Stalled),
            "violation" => Some(RunOutcome::Violation),
            "diverged" => Some(RunOutcome::Diverged),
            "panicked" => Some(RunOutcome::Panicked),
            _ => None,
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// What one run ended with, apart from its counters: the one definition
/// of a run's result that a report row ([`RunRecord`]), a merge row
/// ([`IndexedRow`]) and a cache entry ([`CachedRun`]) each carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The execution fingerprint (event-stream hash) at the end of the run.
    pub fingerprint: u64,
    /// Scheduler steps taken (at the stall point for stalled runs).
    pub steps: u64,
    /// Forward packets sent, from the engine's own statistics for delivered
    /// runs and the telemetry counter otherwise.
    pub fwd_sends: u64,
    /// Messages delivered.
    pub delivered: u64,
}

/// One row of a campaign report: an executed (or cache-replayed) run,
/// without its counters, which the campaign folds as the run finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The spec this record answers.
    pub spec: RunSpec,
    /// What the run ended with.
    pub result: RunResult,
    /// True if this record was replayed from the cache rather than run.
    pub cached: bool,
}

/// Per-run counters folded into one total: all a campaign keeps of its
/// runs' telemetry. Every slot [`RunCounters::merge`] combines is an
/// integer sum, maximum or minimum, so the order and the grouping of a
/// fold do not change its [`snapshot`](CountersFold::snapshot). The fold
/// also counts its runs, so [`merge_reports`] can refuse a part whose
/// total covers runs its rows do not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountersFold {
    /// `None` until a run is folded: no runs give the empty snapshot.
    total: Option<RunCounters>,
    /// How many runs were folded.
    runs: usize,
}

impl CountersFold {
    /// A fold of no runs.
    pub fn new() -> Self {
        CountersFold::default()
    }

    /// Folds one run's counters in.
    pub fn add(&mut self, run: &RunCounters) {
        match &mut self.total {
            Some(total) => total.merge(run),
            None => self.total = Some(run.clone()),
        }
        self.runs += 1;
    }

    /// Folds another fold's runs in.
    pub fn absorb(&mut self, other: CountersFold) {
        match (&mut self.total, other.total) {
            (Some(total), Some(theirs)) => total.merge(&theirs),
            (None, theirs) => self.total = theirs,
            (Some(_), None) => {}
        }
        self.runs += other.runs;
    }

    /// How many runs were folded.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The folded runs' name-keyed snapshot: byte-identical to
    /// [`RunCounters::aggregate`] of the same runs in any order, and the
    /// empty snapshot when no run was folded.
    pub fn snapshot(&self) -> MetricsSnapshot {
        RunCounters::aggregate(self.total.as_ref())
    }
}

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
        runs.iter().try_for_each(validate)?;
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
    /// returns the part `cache` answers (its rows, and its counters, each
    /// hit's decoded from the entry's text and folded in turn) and the
    /// indices still to run, both in input order. [`merge_reports`] marks
    /// the part's rows `cached`.
    pub fn partition_cached(&self, cache: &CampaignCache) -> (RunPart, Vec<usize>) {
        let mut hits = RunPart::default();
        let mut misses = Vec::new();
        for (index, spec) in self.runs.iter().enumerate() {
            let spec_fingerprint = spec.fingerprint();
            match cache.get_by_key(spec_fingerprint) {
                Some(run) => hits.push(index, spec_fingerprint, run.result, &run.counters()),
                None => misses.push(index),
            }
        }
        (hits, misses)
    }
}

/// Fails on an unknown protocol name or invalid discipline parameters.
fn validate(spec: &RunSpec) -> Result<(), NonFifoError> {
    catalog::by_name(&spec.protocol).map_err(|e| NonFifoError::Usage(e.to_string()))?;
    spec.discipline.validate()?;
    Ok(())
}

/// One completed run with its counters, addressed by its index and spec
/// fingerprint: what the execute stage hands its `on_record` callback as
/// each run finishes, and what the daemon streams as a `run` line.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedRun {
    /// Index into the expansion's run list.
    pub index: usize,
    /// [`RunSpec::fingerprint`] of the spec this run answers.
    pub spec_fingerprint: u64,
    /// The run result, in its one serializable form.
    pub run: CachedRun,
}

/// One completed run's row, addressed for the merge stage: the index says
/// where it lands, the spec fingerprint proves the executor ran the same
/// spec the merger holds at that index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedRow {
    /// Index into the expansion's run list.
    pub index: usize,
    /// [`RunSpec::fingerprint`] of the spec this row answers.
    pub spec_fingerprint: u64,
    /// What the run ended with.
    pub result: RunResult,
}

/// One part of a campaign's runs, as an execute call or the cache
/// pre-pass returns it: the runs' rows, sorted by index, and their
/// counters folded into one total. The fold covers exactly the part's
/// runs, so a part merges whole or not at all: [`merge_reports`] refuses
/// one whose rows and fold disagree on how many runs it holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunPart {
    /// The rows, sorted by index.
    pub rows: Vec<IndexedRow>,
    /// The rows' runs' counters, folded.
    pub counters: CountersFold,
}

impl RunPart {
    /// Adds one run: its row, and its counters to the fold.
    fn push(
        &mut self,
        index: usize,
        spec_fingerprint: u64,
        result: RunResult,
        counters: &RunCounters,
    ) {
        self.counters.add(counters);
        self.rows.push(IndexedRow {
            index,
            spec_fingerprint,
            result,
        });
    }
}

/// Stage 3: reassembles the parts the cache answered (`cached`, as
/// [`PlanExpansion::partition_cached`] returned them) and the parts of
/// execute calls (`parts`, as [`CampaignRunner::execute`] returned them)
/// into one [`CampaignReport`], in input order, and sums their folded
/// counters into its aggregate. Rows of a `cached` part are marked
/// `cached`.
///
/// The merge is *fingerprint-keyed*: a row only fills slot `i` if its
/// `spec_fingerprint` equals the fingerprint of the spec at `i`. With that
/// check, the merged report is a pure function of the expansion —
/// byte-identical whatever the partition, completion order, or mix of
/// cached and fresh rows.
///
/// # Errors
///
/// Fails (`NonFifoError::Usage`) on out-of-range indices, fingerprint
/// mismatches, two rows for one slot, unfilled slots, or a part whose
/// fold counts a different number of runs than it has rows — each of
/// which means an executor and the merger disagree about the plan, or a
/// part lost rows whose counters its fold still holds. A bad row or part
/// is named by its part's position in `cached` or `parts`. A gap is
/// reported before a short part, so a part that lost rows is first named
/// as the gap it leaves; filling that gap with only the lost runs is
/// refused, because their counters would be counted twice.
pub fn merge_reports(
    expansion: &PlanExpansion,
    cached: Vec<RunPart>,
    parts: Vec<RunPart>,
) -> Result<CampaignReport, NonFifoError> {
    let mut slots: Vec<Option<RunRecord>> = expansion.runs().iter().map(|_| None).collect();
    let mut counters = CountersFold::new();
    let mut cache_hits = 0;
    let cached = cached
        .into_iter()
        .enumerate()
        .map(|(p, part)| (true, p, part));
    let fresh = parts
        .into_iter()
        .enumerate()
        .map(|(p, part)| (false, p, part));
    let mut short_part = None;
    for (is_cached, p, part) in cached.chain(fresh) {
        let kind = if is_cached { "cached part" } else { "part" };
        if part.counters.runs() != part.rows.len() && short_part.is_none() {
            short_part = Some(format!(
                "{kind} {p} folds {} runs but carries {} rows; re-execute the whole part",
                part.counters.runs(),
                part.rows.len()
            ));
        }
        for row in part.rows {
            let index = row.index;
            let spec = expansion
                .runs()
                .get(index)
                .ok_or_else(|| merge_err(format!("{kind} {p} index {index} out of range")))?;
            if row.spec_fingerprint != spec.fingerprint() {
                return Err(merge_err(format!(
                    "{kind} {p} record for run {index} answers spec {:016x}, expected {:016x} \
                     (executor ran a different plan?)",
                    row.spec_fingerprint,
                    spec.fingerprint()
                )));
            }
            let slot = &mut slots[index];
            if slot.is_some() {
                return Err(merge_err(format!("two records for run {index}")));
            }
            *slot = Some(RunRecord {
                spec: spec.clone(),
                result: row.result,
                cached: is_cached,
            });
            cache_hits += usize::from(is_cached);
        }
        counters.absorb(part.counters);
    }
    let missing = slots.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        return Err(merge_err(format!(
            "{missing} of {} runs produced no record",
            slots.len()
        )));
    }
    if let Some(message) = short_part {
        return Err(merge_err(message));
    }
    Ok(CampaignReport {
        records: slots.into_iter().map(Option::unwrap).collect(),
        cache_hits,
        counters,
    })
}

fn merge_err(message: String) -> NonFifoError {
    NonFifoError::Usage(format!("campaign merge: {message}"))
}

/// The work-stealing scenario-matrix runner.
///
/// # Example
///
/// ```
/// use nonfifo_campaign::{CampaignRunner, ScenarioSpec};
/// use nonfifo_channel::Discipline;
///
/// let runs = ScenarioSpec::new("doc")
///     .protocol("abp")
///     .discipline(Discipline::Fifo)
///     .message_counts(&[5])
///     .expand();
/// let report = CampaignRunner::new(2).run(&runs).unwrap();
/// assert_eq!(report.records.len(), 1);
/// assert!(report.worst().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    threads: usize,
}

impl CampaignRunner {
    /// A runner with `threads` workers; `0` means one per available core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        CampaignRunner { threads }
    }

    /// The worker count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every spec with no cache.
    ///
    /// # Errors
    ///
    /// Fails fast (before any simulation) on unknown protocol names or
    /// invalid discipline parameters.
    pub fn run(&self, runs: &[RunSpec]) -> Result<CampaignReport, NonFifoError> {
        let expansion = PlanExpansion::new(runs.to_vec())?;
        let all: Vec<usize> = (0..expansion.len()).collect();
        let part = self.execute(&expansion, &all);
        merge_reports(&expansion, Vec::new(), vec![part])
    }

    /// Runs every spec, replaying cache hits and inserting fresh results.
    ///
    /// The cache is consulted in a pre-pass, so hits cost no thread and no
    /// simulation; only misses are dispatched to the pool. Rows are
    /// merged in input order whatever the interleaving, so the report is
    /// byte-identical to a cold, single-threaded run, and the fresh runs
    /// go into the cache in input order too.
    ///
    /// # Errors
    ///
    /// Fails fast (before any simulation) on unknown protocol names or
    /// invalid discipline parameters.
    pub fn run_with_cache(
        &self,
        runs: &[RunSpec],
        cache: &mut CampaignCache,
    ) -> Result<CampaignReport, NonFifoError> {
        let expansion = PlanExpansion::new(runs.to_vec())?;
        let (hits, to_run) = expansion.partition_cached(cache);
        let fresh = FreshRuns::default();
        let (part, _) = self.execute_streaming(&expansion, &to_run, &|record| {
            fresh.keep(record.index, StoredRun::encode(&record.run))
        });
        let report = merge_reports(&expansion, vec![hits], vec![part])?;
        for (index, run) in fresh.in_input_order() {
            cache.insert_stored(&expansion.runs()[index], run);
        }
        Ok(report)
    }

    /// Executes one spec on the calling thread and returns its full
    /// result, counters included: the entry for a caller that reads one
    /// run's counters. A run that panics is returned as
    /// [`RunOutcome::Panicked`] with zero counts.
    ///
    /// # Errors
    ///
    /// Fails (before simulating) on an unknown protocol name or invalid
    /// discipline parameters.
    pub fn run_one(spec: &RunSpec) -> Result<CachedRun, NonFifoError> {
        validate(spec)?;
        Ok(execute_caught(spec))
    }

    /// The execute stage on this runner's thread pool: runs the given
    /// expansion indices, one claim at a time, and returns their rows
    /// sorted by index, so the result itself is deterministic, not just
    /// its merge, with their counters folded.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for `expansion`.
    pub fn execute(&self, expansion: &PlanExpansion, indices: &[usize]) -> RunPart {
        self.execute_streaming(expansion, indices, &|_| {}).0
    }

    /// The one execute body behind [`execute`](CampaignRunner::execute)
    /// and the campaign service. Workers claim runs from a shared
    /// [`ChunkCursor`] and call `on_record` on each finished run, on the
    /// worker's thread; a caller that keeps a run's counters (the
    /// service's stream, a cache) takes them there. Then the worker folds
    /// the run's counters into its own total and keeps only its row. Also
    /// returns each worker's busy time, from its start to its last
    /// finished run.
    pub(crate) fn execute_streaming(
        &self,
        expansion: &PlanExpansion,
        indices: &[usize],
        on_record: &(dyn Fn(&IndexedRun) + Sync),
    ) -> (RunPart, Vec<Duration>) {
        let runs = expansion.runs();
        let workers = self.threads.min(indices.len()).max(1);
        let cursor = ChunkCursor::new(indices.len(), 1);
        let work = || {
            let started = Instant::now();
            let mut mine = RunPart::default();
            while let Some(range) = cursor.claim() {
                for slot in range {
                    let index = indices[slot];
                    let record = IndexedRun {
                        index,
                        spec_fingerprint: runs[index].fingerprint(),
                        run: execute_caught(&runs[index]),
                    };
                    on_record(&record);
                    let run = &record.run;
                    mine.push(index, record.spec_fingerprint, run.result, &run.metrics);
                }
            }
            (mine, started.elapsed())
        };
        let parts: Vec<(RunPart, Duration)> = if workers == 1 {
            vec![work()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("campaign worker panicked"))
                    .collect()
            })
        };
        let mut merged = RunPart::default();
        let mut busy = Vec::with_capacity(parts.len());
        for (part, took) in parts {
            merged.rows.extend(part.rows);
            merged.counters.absorb(part.counters);
            busy.push(took);
        }
        merged.rows.sort_unstable_by_key(|r| r.index);
        (merged, busy)
    }
}

/// The fresh runs of a campaign that inserts them into a cache, kept as
/// cache entries (counters as text) from the worker threads until the
/// merge has checked them. Panicked runs are not kept: the cache never
/// stores them.
#[derive(Default)]
pub(crate) struct FreshRuns(Mutex<Vec<(usize, StoredRun)>>);

impl FreshRuns {
    /// Keeps the run at expansion index `index`, unless it panicked.
    pub(crate) fn keep(&self, index: usize, run: StoredRun) {
        if run.result.outcome != RunOutcome::Panicked {
            let mut kept = self.0.lock().expect("fresh runs poisoned");
            kept.push((index, run));
        }
    }

    /// The kept runs, sorted by expansion index.
    pub(crate) fn in_input_order(self) -> Vec<(usize, StoredRun)> {
        let mut kept = self.0.into_inner().expect("fresh runs poisoned");
        kept.sort_unstable_by_key(|&(index, _)| index);
        kept
    }
}

/// A spec whose run panics, in this crate's unit tests only: the seam
/// that pins how a panicking run is recorded, served and never cached.
#[cfg(test)]
pub(crate) const PANIC_SEED: u64 = 0xdead_beef;

/// Executes one spec, turning a panic into a [`RunOutcome::Panicked`]
/// record with zero counts: the run is recorded, and the worker and the
/// campaign go on.
fn execute_caught(spec: &RunSpec) -> CachedRun {
    catch_unwind(AssertUnwindSafe(|| execute_one(spec))).unwrap_or_else(|_| CachedRun {
        result: RunResult {
            outcome: RunOutcome::Panicked,
            fingerprint: 0,
            steps: 0,
            fwd_sends: 0,
            delivered: 0,
        },
        metrics: RunCounters::new().into(),
    })
}

/// Executes one validated spec on the calling thread.
fn execute_one(spec: &RunSpec) -> CachedRun {
    #[cfg(test)]
    if spec.seed == PANIC_SEED {
        panic!("seed {PANIC_SEED:#x} panics by design");
    }
    let proto = catalog::by_name(&spec.protocol).expect("specs are validated before dispatch");
    if let Some(severity) = spec.corruption {
        return execute_corrupted(spec, proto, severity);
    }
    let mut builder = Simulation::builder(proto)
        .channel(spec.discipline.clone())
        .seed(spec.seed);
    if let Some(plan) = &spec.fault_plan {
        builder = builder.fault_plan(plan.clone());
    }
    let mut sim = builder.build();
    sim.count_events();
    let cfg = SimConfig {
        max_steps_per_message: spec
            .budget
            .unwrap_or(SimConfig::default().max_steps_per_message),
        payloads: spec.payloads,
        ..SimConfig::default()
    };
    let result = sim.deliver(spec.messages, &cfg);
    let fingerprint = sim.execution_fingerprint();
    let counters = sim.counters().expect("events are counted").clone();
    let (outcome, steps, fwd_sends, delivered) = match &result {
        Ok(stats) => (
            RunOutcome::Delivered,
            stats.steps,
            stats.packets_sent_forward,
            stats.messages_delivered,
        ),
        Err(SimError::Stalled { diagnostic, .. }) => (
            RunOutcome::Stalled,
            diagnostic.at_step,
            counters.sends(Dir::Forward),
            diagnostic.messages_delivered,
        ),
        Err(SimError::Violation(_)) => (
            RunOutcome::Violation,
            0,
            counters.sends(Dir::Forward),
            counters.messages_received(),
        ),
    };
    CachedRun {
        result: RunResult {
            outcome,
            fingerprint,
            steps,
            fwd_sends,
            delivered,
        },
        metrics: counters.into(),
    }
}

/// Executes one corruption-bearing spec: the run starts from a seeded
/// scramble (scramble seed = run seed) and is judged by convergence
/// instead of clean-start delivery — `Delivered` means the execution
/// acquired a legal suffix after its corrupted prefix. Event counting
/// starts between building and driving the simulation, so corrupted
/// records carry the same per-run metrics as clean ones (minus the
/// preload events, which land before counting starts).
fn execute_corrupted(
    spec: &RunSpec,
    proto: Box<dyn DataLink>,
    severity: CorruptionSeverity,
) -> CachedRun {
    let stab_cfg = StabilizeConfig {
        severity,
        discipline: spec.discipline.clone(),
        fault_plan: spec.fault_plan.clone(),
        messages: spec.messages,
        max_steps_per_message: spec
            .budget
            .unwrap_or(StabilizeConfig::default().max_steps_per_message),
        ..StabilizeConfig::default()
    };
    let mut sim = corrupted_simulation(proto, spec.seed, &stab_cfg);
    sim.count_events();
    let outcome = drive_corrupted(&mut sim, spec.seed, &stab_cfg);
    // Phantom deliveries from the scramble don't count: only real workload
    // payloads do (junk payloads live at or above 2^40, so no collisions).
    let delivered = (0..spec.messages)
        .filter(|m| sim.delivered_payloads().contains(m))
        .count() as u64;
    let counters = sim.counters().expect("events are counted").clone();
    CachedRun {
        result: RunResult {
            outcome: match outcome.verdict {
                SeedVerdict::Converged { .. } => RunOutcome::Delivered,
                SeedVerdict::Diverged { .. } => RunOutcome::Diverged,
                SeedVerdict::Stalled => RunOutcome::Stalled,
            },
            fingerprint: outcome.fingerprint,
            steps: outcome.steps,
            fwd_sends: counters.sends(Dir::Forward),
            delivered,
        },
        metrics: counters.into(),
    }
}

/// The merged result of a campaign, in input-spec order: one row per run
/// and the runs' counters folded into one total.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One record per input spec, in input order.
    pub records: Vec<RunRecord>,
    /// How many records were replayed from the cache.
    pub cache_hits: usize,
    /// Every run's counters, cached and fresh, folded.
    pub counters: CountersFold,
}

impl CampaignReport {
    /// Renders the campaign as a markdown table. A pure function of the
    /// run results: byte-identical at any thread count and for any mix of
    /// cached and fresh records.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .records
            .iter()
            .map(|record| {
                let (spec, r) = (&record.spec, &record.result);
                vec![
                    spec.scenario.clone(),
                    spec.protocol.clone(),
                    spec.discipline.to_string(),
                    spec.corruption
                        .map_or_else(|| "-".to_string(), |s| s.to_string()),
                    spec.messages.to_string(),
                    spec.seed.to_string(),
                    r.outcome.to_string(),
                    r.steps.to_string(),
                    r.fwd_sends.to_string(),
                    f3(if r.delivered == 0 {
                        0.0
                    } else {
                        r.fwd_sends as f64 / r.delivered as f64
                    }),
                    format!("{:016x}", r.fingerprint),
                ]
            })
            .collect();
        markdown(
            &[
                "scenario",
                "protocol",
                "channel",
                "corrupt",
                "n",
                "seed",
                "outcome",
                "steps",
                "fwd sends",
                "cost/msg",
                "fingerprint",
            ],
            &rows,
        )
    }

    /// The campaign-wide aggregate: the snapshot of every run's counters,
    /// folded, plus the `campaign.runs_total`, `campaign.cache_hits`, and
    /// per-outcome `campaign.runs.*` counters.
    /// `campaign.runs.panicked` appears only when a run panicked, so the
    /// aggregate of a campaign where none did keeps its bytes.
    /// Deterministic: the fold is order-free, so neither the completion
    /// order nor the partition shows.
    pub fn aggregate_metrics(&self) -> MetricsSnapshot {
        let mut agg = self.counters.snapshot();
        agg.counters
            .insert("campaign.runs_total".to_string(), self.records.len() as u64);
        agg.counters
            .insert("campaign.cache_hits".to_string(), self.cache_hits as u64);
        for outcome in [
            RunOutcome::Delivered,
            RunOutcome::Stalled,
            RunOutcome::Violation,
            RunOutcome::Diverged,
            RunOutcome::Panicked,
        ] {
            let count = self.count(outcome) as u64;
            if count > 0 || outcome != RunOutcome::Panicked {
                agg.counters
                    .insert(format!("campaign.runs.{outcome}"), count);
            }
        }
        agg
    }

    /// Number of runs that ended with `outcome`.
    pub fn count(&self, outcome: RunOutcome) -> usize {
        self.records
            .iter()
            .filter(|r| r.result.outcome == outcome)
            .count()
    }

    /// The campaign-level error for the exit-code contract, if any run
    /// failed: violations dominate stalls and panics. A corrupted-start
    /// run that diverged counts as a violation — failing to recover is a
    /// spec failure, not a liveness one.
    pub fn worst(&self) -> Option<NonFifoError> {
        let violations =
            (self.count(RunOutcome::Violation) + self.count(RunOutcome::Diverged)) as u64;
        let stalls = self.count(RunOutcome::Stalled) as u64;
        let panicked = self.count(RunOutcome::Panicked) as u64;
        if violations == 0 && stalls == 0 && panicked == 0 {
            None
        } else {
            Some(NonFifoError::CampaignFailed {
                violations,
                stalls,
                panicked,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use nonfifo_channel::{Discipline, FaultPlan};

    fn matrix() -> Vec<RunSpec> {
        ScenarioSpec::new("t")
            .protocol("abp")
            .protocol("seqnum")
            .discipline(Discipline::Fifo)
            .discipline(Discipline::Probabilistic { q: 0.3 })
            .message_counts(&[5, 10])
            .seeds(0..3)
            .expand()
    }

    #[test]
    fn report_and_aggregate_are_thread_count_invariant() {
        let runs = matrix();
        let base = CampaignRunner::new(1).run(&runs).unwrap();
        for threads in [2, 8] {
            let other = CampaignRunner::new(threads).run(&runs).unwrap();
            assert_eq!(base.render(), other.render(), "{threads} threads");
            assert_eq!(
                base.aggregate_metrics().to_json(),
                other.aggregate_metrics().to_json(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn cache_replay_is_transparent_and_total() {
        let runs = matrix();
        let mut cache = CampaignCache::new();
        let cold = CampaignRunner::new(2)
            .run_with_cache(&runs, &mut cache)
            .unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cache.len(), runs.len());
        let warm = CampaignRunner::new(2)
            .run_with_cache(&runs, &mut cache)
            .unwrap();
        assert_eq!(warm.cache_hits, runs.len());
        assert!(warm.records.iter().all(|r| r.cached));
        assert_eq!(cold.render(), warm.render());
        // The only aggregate difference a warm cache makes is the hit counter.
        let mut cold_agg = cold.aggregate_metrics();
        cold_agg
            .counters
            .insert("campaign.cache_hits".to_string(), runs.len() as u64);
        assert_eq!(cold_agg, warm.aggregate_metrics());
    }

    #[test]
    fn failing_runs_surface_through_worst() {
        // The alternating bit falls over a bounded-reorder channel.
        let runs = ScenarioSpec::new("break")
            .protocol("abp")
            .discipline(Discipline::BoundedReorder { bound: 4 })
            .message_counts(&[20])
            .seeds(0..4)
            .expand();
        let report = CampaignRunner::new(2).run(&runs).unwrap();
        let failed = report.count(RunOutcome::Violation) + report.count(RunOutcome::Stalled);
        assert!(failed > 0, "expected at least one failing seed");
        match report.worst() {
            Some(NonFifoError::CampaignFailed {
                violations, stalls, ..
            }) => {
                assert_eq!(violations + stalls, failed as u64);
            }
            other => panic!("expected CampaignFailed, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_scenarios_certify_stabilizing_and_flag_trusting_protocols() {
        let runs = ScenarioSpec::new("stab")
            .protocol("stabilizing-dl")
            .discipline(Discipline::Probabilistic { q: 0.2 })
            .message_counts(&[4])
            .seeds(0..6)
            .corruption(CorruptionSeverity::Medium)
            .expand();
        let report = CampaignRunner::new(2).run(&runs).unwrap();
        assert_eq!(report.count(RunOutcome::Delivered), runs.len());
        assert!(report.worst().is_none());

        let naive = ScenarioSpec::new("naive")
            .protocol("cycle3")
            .discipline(Discipline::Probabilistic { q: 0.2 })
            .message_counts(&[4])
            .seeds(0..6)
            .corruption(CorruptionSeverity::Medium)
            .expand();
        let report = CampaignRunner::new(2).run(&naive).unwrap();
        let failed = report.count(RunOutcome::Diverged) + report.count(RunOutcome::Stalled);
        assert!(failed > 0, "cycle3 must not survive corrupted starts");
        match report.worst() {
            Some(NonFifoError::CampaignFailed {
                violations, stalls, ..
            }) => {
                assert_eq!(
                    violations + stalls,
                    failed as u64,
                    "diverged runs count as violations"
                );
            }
            other => panic!("expected CampaignFailed, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_runs_replay_from_the_cache_byte_identically() {
        let runs = ScenarioSpec::new("stab")
            .protocol("stabilizing-dl")
            .discipline(Discipline::Probabilistic { q: 0.2 })
            .message_counts(&[4])
            .seeds(0..3)
            .corruption(CorruptionSeverity::Heavy)
            .fault_plan(FaultPlan::parse("dup 0.1").unwrap())
            .expand();
        let mut cache = CampaignCache::new();
        let cold = CampaignRunner::new(1)
            .run_with_cache(&runs, &mut cache)
            .unwrap();
        let path = std::env::temp_dir()
            .join(format!("nonfifo-runner-stab-{}.ndjson", std::process::id()))
            .to_string_lossy()
            .into_owned();
        cache.save(&path).unwrap();
        let mut warm_cache = CampaignCache::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let warm = CampaignRunner::new(8)
            .run_with_cache(&runs, &mut warm_cache)
            .unwrap();
        assert_eq!(warm.cache_hits, runs.len());
        assert_eq!(cold.render(), warm.render());
    }

    #[test]
    fn unknown_protocols_fail_fast() {
        let mut runs = matrix();
        runs[3].protocol = "warbler".to_string();
        let err = CampaignRunner::new(2).run(&runs).unwrap_err();
        assert!(err.to_string().contains("warbler"), "{err}");
    }

    #[test]
    fn aggregate_counts_runs_and_outcomes() {
        let runs = matrix();
        let report = CampaignRunner::new(2).run(&runs).unwrap();
        let agg = report.aggregate_metrics();
        assert_eq!(agg.counters["campaign.runs_total"], runs.len() as u64);
        assert_eq!(
            agg.counters["campaign.runs.delivered"]
                + agg.counters["campaign.runs.stalled"]
                + agg.counters["campaign.runs.violation"]
                + agg.counters["campaign.runs.diverged"],
            runs.len() as u64
        );
        // Per-run channel counters accumulated across the whole matrix.
        assert!(agg.counters["chan.fwd.sends"] > 0);
        assert!(
            !agg.counters.contains_key("campaign.runs.panicked"),
            "named only when a run panicked"
        );
    }

    /// A run that panics is a recorded `panicked` failure at any thread
    /// count: the other runs are untouched, the campaign fails, and the
    /// cache never stores the run, so a warm campaign runs it again.
    #[test]
    fn a_panicking_run_is_a_recorded_failure_that_is_never_cached() {
        let clean = CampaignRunner::new(1).run(&matrix()).unwrap();
        let mut runs = matrix();
        runs[5].seed = PANIC_SEED;
        for threads in [1, 2] {
            let mut cache = CampaignCache::new();
            let cold = CampaignRunner::new(threads)
                .run_with_cache(&runs, &mut cache)
                .unwrap();
            assert_eq!(cold.records[5].result.outcome, RunOutcome::Panicked);
            for (i, (got, want)) in cold.records.iter().zip(&clean.records).enumerate() {
                assert!(i == 5 || got == want, "{threads} threads: run {i} changed");
            }
            match cold.worst() {
                Some(NonFifoError::CampaignFailed { panicked: 1, .. }) => {}
                other => panic!("expected one panicked run, got {other:?}"),
            }
            assert_eq!(
                cold.aggregate_metrics().counters["campaign.runs.panicked"],
                1
            );
            assert_eq!(
                cache.len(),
                runs.len() - 1,
                "the panicked run is not cached"
            );

            let warm = CampaignRunner::new(threads)
                .run_with_cache(&runs, &mut cache)
                .unwrap();
            assert_eq!(warm.cache_hits, runs.len() - 1);
            assert!(!warm.records[5].cached, "the panicked run executes again");
            assert_eq!(warm.render(), cold.render());
        }
    }

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
    fn execute_parts(exp: &PlanExpansion, n: usize) -> Vec<RunPart> {
        (0..n)
            .map(|part| {
                let indices: Vec<usize> = (part..exp.len()).step_by(n).collect();
                CampaignRunner::new(1).execute(exp, &indices)
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
    fn partitioned_execution_merges_byte_identically_at_any_part_count() {
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
        forged[0].rows[0].spec_fingerprint ^= 1;
        let err = merge_reports(&exp, Vec::new(), forged).unwrap_err();
        assert!(err.to_string().contains("different plan"), "{err}");

        // A dropped record is a counted gap, not a silent hole.
        let lost = parts[1].rows.pop().unwrap().index;
        let err = merge_reports(&exp, Vec::new(), parts.clone()).unwrap_err();
        assert!(err.to_string().contains("1 of 12 runs"), "{err}");

        // Executing only the missing index would count its counters twice,
        // since part 1's fold still holds them: refused, naming the part.
        let mut patched = parts.clone();
        patched.push(CampaignRunner::new(1).execute(&exp, &[lost]));
        let err = merge_reports(&exp, Vec::new(), patched).unwrap_err();
        assert!(
            err.to_string()
                .contains("part 1 folds 6 runs but carries 5 rows"),
            "{err}"
        );

        // Re-executing the whole damaged part heals, table and aggregate.
        let odd: Vec<usize> = (1..exp.len()).step_by(2).collect();
        parts[1] = CampaignRunner::new(1).execute(&exp, &odd);
        let healed = merge_reports(&exp, Vec::new(), parts).unwrap();
        let baseline = CampaignRunner::new(1).run(exp.runs()).unwrap();
        assert_eq!(healed.render(), baseline.render());
        assert_eq!(
            healed.aggregate_metrics().to_json(),
            baseline.aggregate_metrics().to_json()
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
            let (part, busy) = CampaignRunner::new(threads).execute_streaming(
                &exp,
                &indices,
                &|r: &IndexedRun| streamed.lock().unwrap().push(r.index),
            );
            let mut streamed = streamed.into_inner().unwrap();
            streamed.sort_unstable();
            assert_eq!(
                streamed, indices,
                "{threads} threads: each run streamed once"
            );
            let order: Vec<usize> = part.rows.iter().map(|r| r.index).collect();
            assert_eq!(
                order, indices,
                "{threads} threads: the records are in index order"
            );
            assert_eq!(busy.len(), threads, "one busy time per worker");
        }
    }
}
