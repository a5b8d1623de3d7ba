//! E16 — convergence from corrupted starts, across severity × chaos.
//!
//! The self-stabilization dichotomy, as a campaign matrix: the counting
//! protocol `stabilizing-dl` (DDPT'11) must converge from *every* seeded
//! corrupted start, at every corruption severity, with and without a live
//! chaos fault plan layered on top — while the FIFO-only `cycle3` trusts
//! whatever it finds in the channel and fails to recover. Each cell of the
//! matrix is one campaign scenario (protocol × severity × fault plan) over
//! a block of seeds; the row reports how many of its corrupted starts
//! converged.
//!
//! Being a campaign, the whole table parallelizes across cores, caches by
//! run fingerprint, and is byte-identical at any thread count.

use crate::runner::{CampaignRunner, RunOutcome};
use crate::spec::ScenarioSpec;
use nonfifo_channel::{CorruptionSeverity, Discipline, FaultPlan};
use nonfifo_core::experiments::table::{f3, markdown};
use std::fmt;

/// One (protocol, severity, fault plan) cell of the convergence matrix.
#[derive(Debug, Clone)]
pub struct E16Row {
    /// Protocol name.
    pub protocol: String,
    /// Corruption severity of the scrambled start.
    pub severity: CorruptionSeverity,
    /// Flattened fault-plan text, or `—` for corruption alone.
    pub faults: String,
    /// Corrupted starts examined.
    pub seeds: u64,
    /// Starts that converged to a legal suffix.
    pub converged: u64,
    /// Starts whose damage persisted past the convergence bound.
    pub diverged: u64,
    /// Starts that never finished their workload.
    pub stalled: u64,
}

impl E16Row {
    /// Fraction of this cell's corrupted starts that converged.
    pub fn rate(&self) -> f64 {
        self.converged as f64 / self.seeds as f64
    }
}

/// The E16 report.
#[derive(Debug, Clone)]
pub struct E16Report {
    /// One row per (protocol, severity, fault plan) cell, protocol-major.
    pub rows: Vec<E16Row>,
}

impl E16Report {
    /// True if every cell for `protocol` converged on all its seeds.
    pub fn certified(&self, protocol: &str) -> bool {
        let mut cells = self.rows.iter().filter(|r| r.protocol == protocol);
        let mut any = false;
        for row in &mut cells {
            any = true;
            if row.converged != row.seeds {
                return false;
            }
        }
        any
    }
}

impl fmt::Display for E16Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.protocol.clone(),
                    r.severity.to_string(),
                    r.faults.clone(),
                    r.seeds.to_string(),
                    r.converged.to_string(),
                    r.diverged.to_string(),
                    r.stalled.to_string(),
                    f3(r.rate()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            markdown(
                &[
                    "protocol",
                    "severity",
                    "faults",
                    "seeds",
                    "converged",
                    "diverged",
                    "stalled",
                    "rate",
                ],
                &rows
            )
        )
    }
}

/// The chaos layer for the faulted half of the matrix: live duplication
/// and loss on top of the corrupted start.
const CHAOS: &str = "dup 0.1\ndrop 0.05";

/// Runs E16 with `seeds` corrupted starts per cell. The stabilizing
/// witness and the trusting contrast each cross every severity with
/// {corruption alone, corruption + chaos}; all cells ride one campaign.
pub fn e16_convergence_campaign_at(seeds: u64) -> E16Report {
    let chaos = FaultPlan::parse(CHAOS).expect("the chaos layer is a valid fault plan");
    let mut runs = Vec::new();
    let mut cells = Vec::new();
    for proto in ["stabilizing-dl", "cycle3"] {
        for severity in CorruptionSeverity::ALL {
            for plan in [None, Some(&chaos)] {
                let name = match plan {
                    None => format!("{proto}-{severity}"),
                    Some(_) => format!("{proto}-{severity}-chaos"),
                };
                let mut spec = ScenarioSpec::new(&name)
                    .protocol(proto)
                    .discipline(Discipline::Probabilistic { q: 0.2 })
                    .message_counts(&[4])
                    .seeds(0..seeds)
                    .corruption(severity);
                if let Some(plan) = plan {
                    spec = spec.fault_plan(plan.clone());
                }
                runs.extend(spec.expand());
                cells.push((name, proto, severity, plan.is_some()));
            }
        }
    }
    let report = CampaignRunner::new(0)
        .run(&runs)
        .expect("e16 scenarios name only catalog protocols");
    let rows = cells
        .into_iter()
        .map(|(name, proto, severity, chaotic)| {
            let mine = report.records.iter().filter(|r| r.spec.scenario == name);
            let mut row = E16Row {
                protocol: proto.to_string(),
                severity,
                faults: if chaotic {
                    CHAOS.lines().collect::<Vec<_>>().join("; ")
                } else {
                    "—".to_string()
                },
                seeds,
                converged: 0,
                diverged: 0,
                stalled: 0,
            };
            for record in mine {
                match record.result.outcome {
                    RunOutcome::Delivered => row.converged += 1,
                    RunOutcome::Diverged | RunOutcome::Violation => row.diverged += 1,
                    // A panicked run reached no verdict, like a stall.
                    RunOutcome::Stalled | RunOutcome::Panicked => row.stalled += 1,
                }
            }
            row
        })
        .collect();
    E16Report { rows }
}

/// Runs E16 at the published scale: 32 corrupted starts per cell.
pub fn e16_convergence_campaign() -> E16Report {
    e16_convergence_campaign_at(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabilizing_dl_certifies_and_cycle3_fails_every_cell_block() {
        let report = e16_convergence_campaign_at(4);
        assert_eq!(
            report.rows.len(),
            12,
            "2 protocols × 3 severities × 2 plans"
        );
        assert!(
            report.certified("stabilizing-dl"),
            "the counting protocol must converge in every cell:\n{report}"
        );
        assert!(
            !report.certified("cycle3"),
            "a FIFO-only protocol must fail at least one corrupted start:\n{report}"
        );
        for row in &report.rows {
            assert_eq!(row.converged + row.diverged + row.stalled, row.seeds);
        }
    }
}
