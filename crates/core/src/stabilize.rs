//! Convergence certification from arbitrary corrupted initial states.
//!
//! A self-stabilizing data-link protocol must reach — and thereafter stay
//! in — legal behavior from *any* initial state, not just the clean boot
//! the rest of the workspace assumes. This module drives that check end to
//! end: each seed scrambles the automaton state and in-transit multisets
//! through [`SimulationBuilder::initial_corruption`], lets the poison
//! flush during a settle phase, runs a real payload workload, and judges
//! the retained execution with a [`ConvergenceSpec`] whose bound is drawn
//! at the settle boundary (so stranding the real workload inside the
//! forgiven prefix is impossible).
//!
//! [`certify`] fans this out over many seeds. A protocol is *certified*
//! when every corrupted start converges; a single divergence or stall is a
//! counterexample to self-stabilization (the fate of every clean-start
//! protocol in the catalog — see `tests/stabilize_props.rs`).
//!
//! [`SimulationBuilder::initial_corruption`]: crate::SimulationBuilder::initial_corruption

use crate::{NonFifoError, SimConfig, SimError, Simulation};
use nonfifo_channel::{CorruptionSeverity, Discipline, FaultPlan};
use nonfifo_ioa::{Convergence, ConvergenceSpec, SpecViolation};
use nonfifo_protocols::DataLink;
use std::fmt;

/// Knobs for a stabilization run.
#[derive(Debug, Clone)]
pub struct StabilizeConfig {
    /// How much junk the scramble plan injects.
    pub severity: CorruptionSeverity,
    /// Channel discipline under the run. The default is probabilistic
    /// (non-FIFO): preloaded junk floats in transit instead of arriving as
    /// a burst, which is exactly the regime where non-stabilizing
    /// protocols betray themselves.
    pub discipline: Discipline,
    /// Optional chaos fault plan composed on top of the corruption —
    /// corrupted starts and live faults are independent axes.
    pub fault_plan: Option<FaultPlan>,
    /// Real messages delivered after the corrupted start.
    pub messages: u64,
    /// Scheduler steps pumped before the workload, flushing
    /// corruption-induced traffic. The convergence bound is the retained
    /// execution's length at the end of this phase.
    pub settle_steps: u64,
    /// Step budget per message before the run is declared stalled.
    pub max_steps_per_message: u64,
}

impl Default for StabilizeConfig {
    fn default() -> Self {
        StabilizeConfig {
            severity: CorruptionSeverity::Medium,
            discipline: Discipline::Probabilistic { q: 0.2 },
            fault_plan: None,
            messages: 4,
            settle_steps: 512,
            max_steps_per_message: 10_000,
        }
    }
}

/// How one corrupted start ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedVerdict {
    /// The execution acquired a legal suffix at the given cut.
    Converged {
        /// Earliest event index from which the rest of the execution is
        /// legal (0 = the corruption never produced observable damage).
        stabilized_at: usize,
    },
    /// Every admissible cut left a violating suffix — the corruption's
    /// damage persisted past the bound.
    Diverged {
        /// The violation at the last (deepest) cut tried.
        last_violation: SpecViolation,
    },
    /// The run never finished its workload: either a message blew the step
    /// budget or the settle loop could not collect every real payload.
    Stalled,
}

impl SeedVerdict {
    /// Whether this start converged.
    pub fn converged(&self) -> bool {
        matches!(self, SeedVerdict::Converged { .. })
    }
}

impl fmt::Display for SeedVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedVerdict::Converged { stabilized_at } => {
                write!(f, "converged (stabilized at event {stabilized_at})")
            }
            SeedVerdict::Diverged { last_violation } => {
                write!(f, "diverged: {last_violation}")
            }
            SeedVerdict::Stalled => write!(f, "stalled"),
        }
    }
}

/// Outcome of one corrupted start.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The seed driving both the channels and the scramble plan.
    pub seed: u64,
    /// How the run ended.
    pub verdict: SeedVerdict,
    /// Order-sensitive digest of the whole run — replayable from the seed.
    pub fingerprint: u64,
    /// Events in the corrupted prefix (the convergence bound used).
    pub corruption_events: usize,
    /// Scheduler steps spent on the workload phase (at the stall point for
    /// stalled runs; settle-phase pumping is not counted).
    pub steps: u64,
}

/// Aggregate of a [`certify`] sweep.
#[derive(Debug, Clone)]
pub struct StabilizeReport {
    /// Corrupted starts examined.
    pub seeds: u64,
    /// Starts that converged.
    pub converged: u64,
    /// Starts whose damage persisted past the bound.
    pub diverged: u64,
    /// Starts that never finished the workload.
    pub stalled: u64,
    /// Largest stabilization cut over the converged starts.
    pub max_stabilized_at: usize,
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

impl StabilizeReport {
    /// Whether every corrupted start converged.
    pub fn certified(&self) -> bool {
        self.diverged == 0 && self.stalled == 0
    }

    /// The first non-converged outcome, if any — the counterexample to
    /// self-stabilization.
    pub fn first_failure(&self) -> Option<&SeedOutcome> {
        self.outcomes.iter().find(|o| !o.verdict.converged())
    }

    /// Converts the report into the workspace error contract: `Ok` when
    /// certified, [`NonFifoError::ConvergenceFailed`] (exit 5) otherwise.
    pub fn to_result(&self) -> Result<(), NonFifoError> {
        if self.certified() {
            Ok(())
        } else {
            Err(NonFifoError::ConvergenceFailed {
                diverged: self.diverged,
                stalled: self.stalled,
                seeds: self.seeds,
            })
        }
    }
}

impl fmt::Display for StabilizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} converged, {} diverged, {} stalled (max stabilization cut {})",
            self.converged, self.seeds, self.diverged, self.stalled, self.max_stabilized_at
        )
    }
}

/// Runs one corrupted start: scramble, settle, deliver the workload with
/// payloads on, settle again until every real payload has landed, then
/// judge the retained execution.
///
/// The scramble plan is seeded by `seed` itself (the channels get `seed`
/// and `seed + 1` as usual), so the whole run — corruption included — is a
/// pure function of `(protocol, config, seed)` and the returned
/// fingerprint replays.
pub fn stabilize_run(proto: impl DataLink, seed: u64, cfg: &StabilizeConfig) -> SeedOutcome {
    let mut sim = corrupted_simulation(proto, seed, cfg);
    drive_corrupted(&mut sim, seed, cfg)
}

/// Builds — but does not drive — the corrupted simulation for
/// `(protocol, seed, config)`. Callers that need to instrument the run
/// (the campaign runner starts event counting here) can interpose
/// between this and [`drive_corrupted`]; [`stabilize_run`] is exactly the
/// two composed.
pub fn corrupted_simulation(proto: impl DataLink, seed: u64, cfg: &StabilizeConfig) -> Simulation {
    let mut builder = Simulation::builder(proto)
        .channel(cfg.discipline.clone())
        .seed(seed)
        .initial_corruption(cfg.severity, seed);
    if let Some(plan) = &cfg.fault_plan {
        builder = builder.fault_plan(plan.clone());
    }
    builder.build()
}

/// Drives a simulation built by [`corrupted_simulation`] to its verdict:
/// settle, deliver the workload with payloads on, settle again until every
/// real payload has landed, judge the retained execution.
pub fn drive_corrupted(sim: &mut Simulation, seed: u64, cfg: &StabilizeConfig) -> SeedOutcome {
    // Flush the poison. Everything recorded up to here — junk preloads,
    // phantom deliveries, acknowledgement exchanges — is the corrupted
    // prefix a stabilizing protocol is allowed to burn.
    sim.settle(cfg.settle_steps);
    let bound = sim
        .execution()
        .expect("initial_corruption retains the execution")
        .len();

    let sim_cfg = SimConfig {
        payloads: true,
        max_steps_per_message: cfg.max_steps_per_message,
        ..SimConfig::default()
    };
    let mut steps = 0;
    let verdict = match sim.deliver(cfg.messages, &sim_cfg) {
        Err(SimError::Stalled { diagnostic, .. }) => {
            steps = diagnostic.at_step;
            SeedVerdict::Stalled
        }
        Err(SimError::Violation(v)) => SeedVerdict::Diverged { last_violation: v },
        Ok(stats) => {
            steps = stats.steps;
            // `deliver` counts *any* message delivery toward its target, so
            // a late phantom can end a round before the real message lands.
            // Settle until every real payload (0..messages) is accounted
            // for; payloads are collision-free by construction (junk
            // payloads live at or above 2^40).
            let mut spent = 0u64;
            let budget = cfg.settle_steps.saturating_mul(8);
            while !workload_complete(sim, cfg.messages) && spent < budget {
                sim.settle(64);
                spent += 64;
            }
            if !workload_complete(sim, cfg.messages) {
                SeedVerdict::Stalled
            } else {
                let exec = sim.execution().expect("retained");
                match ConvergenceSpec::new(bound).check(exec) {
                    Convergence::Converged { stabilized_at } => {
                        SeedVerdict::Converged { stabilized_at }
                    }
                    Convergence::Diverged { last_violation } => {
                        SeedVerdict::Diverged { last_violation }
                    }
                }
            }
        }
    };
    SeedOutcome {
        seed,
        verdict,
        fingerprint: sim.execution_fingerprint(),
        corruption_events: bound,
        steps,
    }
}

fn workload_complete(sim: &Simulation, messages: u64) -> bool {
    let delivered = sim.delivered_payloads();
    (0..messages).all(|m| delivered.contains(&m))
}

/// Certifies a protocol over `seeds` distinct corrupted starts
/// (seeds `0..seeds`). `make` is called once per seed — pass a catalog
/// factory closure like `|| nonfifo_protocols::catalog::by_name("stabilizing-dl").unwrap()`.
pub fn certify<P, F>(make: F, seeds: u64, cfg: &StabilizeConfig) -> StabilizeReport
where
    P: DataLink,
    F: Fn() -> P,
{
    let mut report = StabilizeReport {
        seeds,
        converged: 0,
        diverged: 0,
        stalled: 0,
        max_stabilized_at: 0,
        outcomes: Vec::with_capacity(seeds as usize),
    };
    for seed in 0..seeds {
        let outcome = stabilize_run(make(), seed, cfg);
        match &outcome.verdict {
            SeedVerdict::Converged { stabilized_at } => {
                report.converged += 1;
                report.max_stabilized_at = report.max_stabilized_at.max(*stabilized_at);
            }
            SeedVerdict::Diverged { .. } => report.diverged += 1,
            SeedVerdict::Stalled => report.stalled += 1,
        }
        report.outcomes.push(outcome);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_protocols::{NaiveCycle, StabilizingDl};

    #[test]
    fn stabilizing_dl_converges_from_corrupted_starts() {
        for severity in CorruptionSeverity::ALL {
            let cfg = StabilizeConfig {
                severity,
                ..StabilizeConfig::default()
            };
            let report = certify(StabilizingDl::new, 24, &cfg);
            assert!(
                report.certified(),
                "{severity}: {report}, first failure {:?}",
                report.first_failure()
            );
            assert!(report.to_result().is_ok());
        }
    }

    #[test]
    fn naive_cycle_is_flagged_as_non_stabilizing() {
        let cfg = StabilizeConfig::default();
        let report = certify(|| NaiveCycle::new(3), 24, &cfg);
        assert!(
            !report.certified(),
            "a FIFO-only cycle protocol must not survive corrupted starts: {report}"
        );
        let err = report.to_result().unwrap_err();
        assert!(matches!(err, NonFifoError::ConvergenceFailed { .. }));
        assert!(report.first_failure().is_some());
    }

    #[test]
    fn corrupted_runs_are_deterministic_per_seed() {
        let cfg = StabilizeConfig::default();
        let a = stabilize_run(StabilizingDl::new(), 7, &cfg);
        let b = stabilize_run(StabilizingDl::new(), 7, &cfg);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.corruption_events, b.corruption_events);
        let c = stabilize_run(StabilizingDl::new(), 8, &cfg);
        assert_ne!(a.fingerprint, c.fingerprint, "a different seed diverges");
    }

    #[test]
    fn corruption_composes_with_chaos_faults() {
        let plan = FaultPlan::parse("dup 0.1\ndrop 0.05").unwrap();
        let cfg = StabilizeConfig {
            fault_plan: Some(plan),
            ..StabilizeConfig::default()
        };
        let report = certify(StabilizingDl::new, 12, &cfg);
        assert!(
            report.certified(),
            "chaos faults on top of corruption: {report}, first failure {:?}",
            report.first_failure()
        );
    }

    #[test]
    fn stabilization_cut_stays_within_the_corrupted_prefix() {
        let cfg = StabilizeConfig::default();
        for seed in 0..8 {
            let outcome = stabilize_run(StabilizingDl::new(), seed, &cfg);
            if let SeedVerdict::Converged { stabilized_at } = outcome.verdict {
                assert!(
                    stabilized_at <= outcome.corruption_events,
                    "cut {stabilized_at} escaped the {}-event prefix",
                    outcome.corruption_events
                );
            } else {
                panic!("seed {seed} did not converge: {}", outcome.verdict);
            }
        }
    }
}
