//! E15 — the Theorem 5.1 growth sweep, re-run as a campaign.
//!
//! The dichotomy of Theorem 5.1: over the PL2p probabilistic channel a
//! bounded-header protocol pays `(1+q−εₙ)^Ω(n)` packets, while unbounded
//! headers stay linear. E5 measures the fitted growth *base* through the
//! dominant-packet tracker; E15 is the same sweep expressed as a campaign
//! matrix — two scenarios (the bounded `outnumber5` witness on short
//! scopes, the unbounded `seqnum` contrast on long ones) crossed with
//! `q ∈ {0.1, 0.3, 0.5}` — and reads the *per-message cost trajectory*
//! straight off the campaign records. The bounded rows' `cost/msg` must
//! compound as `n` grows; the unbounded rows' must stay flat.
//!
//! Being a campaign, the whole table parallelizes across cores, caches by
//! run fingerprint, and is byte-identical at any thread count — this is
//! the experiment the ad-hoc loops of E12–E14 grew up into.

use crate::runner::CampaignRunner;
use crate::spec::ScenarioSpec;
use nonfifo_channel::Discipline;
use nonfifo_core::experiments::table::{f3, markdown};
use std::fmt;

/// One (protocol, q, n) point of the growth sweep.
#[derive(Debug, Clone)]
pub struct E15Row {
    /// Protocol name.
    pub protocol: String,
    /// Channel delay probability.
    pub q: f64,
    /// Messages delivered.
    pub n: u64,
    /// Forward packets sent.
    pub fwd_sends: u64,
    /// Average sends per message.
    pub cost_per_msg: f64,
    /// `cost_per_msg` relative to the previous scope of the same
    /// (protocol, q) series; `None` on each series' first row.
    pub cost_growth: Option<f64>,
}

/// The E15 report.
#[derive(Debug, Clone)]
pub struct E15Report {
    /// One row per (protocol, q, n), series-major.
    pub rows: Vec<E15Row>,
}

impl fmt::Display for E15Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.protocol.clone(),
                    f3(r.q),
                    r.n.to_string(),
                    r.fwd_sends.to_string(),
                    f3(r.cost_per_msg),
                    r.cost_growth.map_or_else(|| "—".to_string(), f3),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            markdown(
                &["protocol", "q", "n", "fwd sends", "cost/msg", "cost growth"],
                &rows
            )
        )
    }
}

const QS: [f64; 3] = [0.1, 0.3, 0.5];

/// Runs E15 with explicit message-count schedules for the bounded witness
/// and the unbounded contrast. Seed 17, step budget 5M per message (the
/// E5 settings).
pub fn e15_growth_campaign_at(bounded_scopes: &[u64], unbounded_scopes: &[u64]) -> E15Report {
    let scenario = |name: &str, proto: &str, scopes: &[u64]| {
        let mut s = ScenarioSpec::new(name)
            .protocol(proto)
            .message_counts(scopes)
            .seeds(17..18)
            .budget(5_000_000);
        for q in QS {
            s = s.discipline(Discipline::Probabilistic { q });
        }
        s.expand()
    };
    let mut runs = scenario("growth-bounded", "outnumber5", bounded_scopes);
    runs.extend(scenario("growth-unbounded", "seqnum", unbounded_scopes));
    let report = CampaignRunner::new(0)
        .run(&runs)
        .expect("e15 scenarios name only catalog protocols");
    // Expansion is (protocol, q, n)-major, so records arrive series-major
    // already; growth is each row against its predecessor in the series.
    let mut rows: Vec<E15Row> = Vec::new();
    for record in &report.records {
        let q = match record.spec.discipline {
            Discipline::Probabilistic { q } => q,
            ref other => unreachable!("e15 runs only PL2p channels, got {other}"),
        };
        let cost = record.result.fwd_sends as f64 / record.spec.messages as f64;
        let cost_growth = rows
            .last()
            .filter(|prev| prev.protocol == record.spec.protocol && prev.q == q)
            .map(|prev| cost / prev.cost_per_msg);
        rows.push(E15Row {
            protocol: record.spec.protocol.clone(),
            q,
            n: record.spec.messages,
            fwd_sends: record.result.fwd_sends,
            cost_per_msg: cost,
            cost_growth,
        });
    }
    E15Report { rows }
}

/// Runs E15 at the published schedule: the bounded witness on doubling
/// short scopes (its cost compounds per message), the unbounded contrast
/// on doubling long ones.
pub fn e15_growth_campaign() -> E15Report {
    e15_growth_campaign_at(&[4, 8, 12], &[50, 100, 200])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_cost_compounds_and_unbounded_stays_flat() {
        // Shrunk scopes for debug-mode test time; the dichotomy is visible
        // immediately.
        let report = e15_growth_campaign_at(&[4, 8], &[30, 60]);
        assert_eq!(report.rows.len(), 12);
        for row in &report.rows {
            let Some(growth) = row.cost_growth else {
                continue;
            };
            if row.protocol == "outnumber5" {
                assert!(
                    growth > 2.0,
                    "outnumber5 at q={} grew only {growth}x per doubling",
                    row.q
                );
            } else {
                assert!(
                    growth < 1.5,
                    "seqnum at q={} cost grew {growth}x: not linear",
                    row.q
                );
            }
        }
    }
}
