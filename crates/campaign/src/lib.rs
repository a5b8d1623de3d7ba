//! Campaign engine: declarative scenario matrices over the `nonfifo`
//! simulation stack, executed by a work-stealing thread pool with
//! deterministic, cacheable results.
//!
//! The experiment suite kept re-growing the same shape by hand: a nest of
//! loops over protocols × channels × message counts × seeds, each
//! iteration building a simulation, running it, and accumulating a table.
//! This crate makes that shape a value:
//!
//! - [`ScenarioSpec`] — one axis-product of runs, built fluently or parsed
//!   from the campaign plan DSL ([`CampaignPlan`]), expanding into
//!   individually fingerprinted [`RunSpec`]s.
//! - [`CampaignRunner`] — executes a run list on scoped worker threads,
//!   claiming work run-at-a-time from the shared
//!   [`ChunkCursor`](nonfifo_adversary::ChunkCursor); rows merge in input
//!   order and counters fold order-free, so reports and aggregate metrics
//!   are **byte-identical at any thread count**.
//! - [`CampaignCache`] — runs are deterministic functions of their specs,
//!   so results key by spec fingerprint and replay for free on repeated
//!   campaigns; a cache replay is indistinguishable from a fresh run in
//!   every artifact.
//! - [`CampaignReport`] — the merged rows, a markdown rendering, one
//!   aggregate [`MetricsSnapshot`](nonfifo_telemetry::MetricsSnapshot)
//!   (every run's counters folded into one [`CountersFold`] as the run
//!   finishes), and the campaign-level error for the CLI exit-code
//!   contract.
//! - [`experiments`] — E14 and E15, the paper experiments that are
//!   campaigns, ported off their hand-rolled loops.
//!
//! Under the runner sits an explicit expand → execute → merge pipeline
//! ([`PlanExpansion`], [`CampaignRunner::execute`], [`merge_reports`])
//! whose merge is keyed on expansion index + spec fingerprint, so *any*
//! partition of a campaign reassembles byte-identically. The same engine
//! runs as a long-lived HTTP daemon ([`CampaignService`], `nonfifo
//! serve`) that executes each plan's cache misses on the runner's execute
//! body and streams every finished run to its client in the NDJSON wire
//! protocol ([`WireMsg`]) — see `docs/campaign_service.md`. A run that
//! panics becomes a [`RunOutcome::Panicked`] record, in batch and served
//! campaigns alike.
//!
//! # Example
//!
//! ```
//! use nonfifo_campaign::{CampaignRunner, ScenarioSpec};
//! use nonfifo_channel::Discipline;
//!
//! let runs = ScenarioSpec::new("quickstart")
//!     .protocol("abp")
//!     .protocol("seqnum")
//!     .discipline(Discipline::Probabilistic { q: 0.3 })
//!     .message_counts(&[10])
//!     .seeds(0..2)
//!     .expand();
//! let report = CampaignRunner::new(0).run(&runs).expect("catalog names");
//! assert_eq!(report.records.len(), 4);
//! assert!(report.worst().is_none(), "both protocols survive PL2p");
//! println!("{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod experiments;
mod plan;
mod runner;
mod service;
mod spec;
mod wire;

pub use cache::{CacheError, CachedRun, CampaignCache, SharedCache};
pub use plan::{CampaignPlan, CampaignPlanError, MAX_PLAN_RUNS, PLAN_SCHEMA_VERSION};
pub use runner::{
    merge_reports, CampaignReport, CampaignRunner, CountersFold, IndexedRow, IndexedRun,
    PlanExpansion, RunOutcome, RunPart, RunRecord, RunResult,
};
pub use service::{CampaignService, ServiceConfig, MAX_WORKERS};
pub use spec::{RunSpec, ScenarioSpec};
pub use wire::{WireError, WireMsg, WIRE_SCHEMA_VERSION};
