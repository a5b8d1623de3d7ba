//! E14 — Theorem 4.1 read off the telemetry pipeline: cost vs. in-transit.
//!
//! Theorem 4.1 prices message extensions in units of the in-transit
//! population: with `k` forward headers and `l` packets in transit, the
//! next delivery costs at least `l/k` sends. This experiment measures both
//! sides of that ratio *through the metrics registry* — the per-direction
//! send counters and the in-transit high-water gauge that `--metrics-out`
//! exports — rather than through the engine's own statistics, and
//! cross-checks the two sources against each other on every row.
//!
//! The contrast is the alternating bit (`k = 2`, tiny in-transit
//! population, flat cost) against the oracle-assisted \[Afe88\]
//! reconstruction (`k` labels, a PL2p channel that never drains, so the
//! in-transit population — and with it the per-message cost floor — grows
//! with `n`). Watching the `cost/msg` column track `hw/k` as `n` grows is
//! Theorem 4.1 as a time series.
//!
//! Historically this was a hand-rolled double loop in `nonfifo-core`; it
//! is now a two-protocol campaign scenario, which is exactly the workload
//! the campaign engine was built for: every row is one cached,
//! fingerprinted run, and the whole table parallelizes for free.

use crate::cache::CachedRun;
use crate::runner::{CampaignRunner, IndexedRun, PlanExpansion};
use crate::spec::{RunSpec, ScenarioSpec};
use nonfifo_channel::Discipline;
use nonfifo_core::experiments::table::{f3, markdown};
use std::fmt;
use std::sync::Mutex;

/// One protocol × message-count measurement, taken from exported metrics.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Protocol name.
    pub protocol: String,
    /// Forward header bound `k`.
    pub headers: u64,
    /// Messages delivered.
    pub n: u64,
    /// Forward sends, from the `chan.fwd.sends` counter.
    pub fwd_sends: u64,
    /// Average sends per message (the measured cost).
    pub cost_per_msg: f64,
    /// Peak in-transit population, from the `sim.fwd.in_transit` gauge's
    /// high-water mark.
    pub in_transit_hw: u64,
    /// The Theorem 4.1 extension floor at peak load: `hw / k`.
    pub floor: f64,
    /// True if the registry's counters agree exactly with the engine's own
    /// run statistics (telemetry cross-validation).
    pub agrees: bool,
}

/// The E14 report.
#[derive(Debug, Clone)]
pub struct E14Report {
    /// One row per (protocol, n), smallest scopes first.
    pub rows: Vec<E14Row>,
}

impl fmt::Display for E14Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.protocol.clone(),
                    r.headers.to_string(),
                    r.n.to_string(),
                    r.fwd_sends.to_string(),
                    f3(r.cost_per_msg),
                    r.in_transit_hw.to_string(),
                    f3(r.floor),
                    if r.agrees { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            markdown(
                &[
                    "protocol",
                    "k",
                    "n",
                    "fwd sends",
                    "cost/msg",
                    "in-transit hw",
                    "hw/k",
                    "metrics = engine",
                ],
                &rows
            )
        )
    }
}

/// The forward header bound of each protocol in the scenario.
fn headers_of(protocol: &str) -> u64 {
    match protocol {
        "abp" => 2,
        "afek4" => 4,
        other => unreachable!("e14 scenario has no protocol {other:?}"),
    }
}

fn row_from(spec: &RunSpec, run: &CachedRun) -> E14Row {
    let headers = headers_of(&spec.protocol);
    let metrics = run.metrics.snapshot();
    let fwd_sends = metrics.counters["chan.fwd.sends"];
    let in_transit_hw = metrics.gauges["sim.fwd.in_transit"].high_water;
    // Cross-validate the telemetry pipeline against the engine statistics
    // carried on the run.
    let agrees = fwd_sends == run.result.fwd_sends
        && metrics.counters["sim.messages.received"] == run.result.delivered;
    E14Row {
        protocol: spec.protocol.clone(),
        headers,
        n: spec.messages,
        fwd_sends,
        cost_per_msg: fwd_sends as f64 / spec.messages as f64,
        in_transit_hw,
        floor: in_transit_hw as f64 / headers as f64,
        agrees,
    }
}

/// Runs E14 over the given message-count schedule: `q = 0.3`, fixed seed,
/// as a campaign scenario (`abp` × `afek4` × scopes), one worker per core.
/// Each row reads its own run's counters, which a campaign report does
/// not keep, so each run's result is taken as the worker finishes it.
pub fn e14_cost_vs_in_transit_at(scopes: &[u64]) -> E14Report {
    let expansion = PlanExpansion::new(
        ScenarioSpec::new("e14")
            .protocol("abp")
            .protocol("afek4")
            .discipline(Discipline::Probabilistic { q: 0.3 })
            .message_counts(scopes)
            .seeds(11..12)
            .expand(),
    )
    .expect("e14 scenario names only catalog protocols");
    let all: Vec<usize> = (0..expansion.len()).collect();
    let finished = Mutex::new(vec![None; expansion.len()]);
    CampaignRunner::new(0).execute_streaming(&expansion, &all, &|record: &IndexedRun| {
        finished.lock().expect("e14 results poisoned")[record.index] = Some(record.run.clone());
    });
    let finished = finished.into_inner().expect("e14 results poisoned");
    // Campaign expansion is protocol-major; the published table is
    // scope-major with abp before afek at each n.
    let mut rows = Vec::new();
    for &n in scopes {
        for proto in ["abp", "afek4"] {
            let index = expansion
                .runs()
                .iter()
                .position(|r| r.protocol == proto && r.messages == n)
                .expect("every matrix point is expanded");
            let run = finished[index].as_ref().expect("every matrix point ran");
            rows.push(row_from(&expansion.runs()[index], run));
        }
    }
    E14Report { rows }
}

/// Runs E14 at the published schedule, message counts doubling from 10.
///
/// The schedule stops at 80 deliberately: the \[Afe88\] rows pay
/// compounding work in `n` (the PL2p channel never drains, so both the
/// flush traffic and the per-poll scan grow with everything sent so far
/// — measured cost roughly 7x per +10 messages past `n = 60`). Run this
/// from the release-mode `report` binary, and prefer
/// [`e14_cost_vs_in_transit_at`] with smaller scopes in debug builds.
pub fn e14_cost_vs_in_transit() -> E14Report {
    e14_cost_vs_in_transit_at(&[10, 20, 40, 80])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_agree_with_engine_and_costs_track_in_transit() {
        // A shrunk schedule: the full one is release-binary territory (the
        // Afek rows compound in n and crawl under debug codegen).
        let report = e14_cost_vs_in_transit_at(&[5, 10, 20, 40]);
        assert_eq!(report.rows.len(), 8);
        for row in &report.rows {
            assert!(
                row.agrees,
                "{} at n={}: telemetry diverged from engine statistics",
                row.protocol, row.n
            );
        }
        let abp: Vec<&E14Row> = report.rows.iter().filter(|r| r.headers == 2).collect();
        let afek: Vec<&E14Row> = report.rows.iter().filter(|r| r.headers == 4).collect();
        // The alternating bit's cost stays flat: its channel drains.
        for row in &abp {
            assert!(
                row.cost_per_msg < 4.0,
                "abp cost blew up: {} at n={}",
                row.cost_per_msg,
                row.n
            );
        }
        // The Afek reconstruction pays the Theorem 4.1 price: the PL2p
        // channel never drains, the in-transit population grows with n,
        // and the per-message cost grows with it.
        assert!(afek.last().unwrap().in_transit_hw > 4 * afek[0].in_transit_hw);
        assert!(afek.last().unwrap().cost_per_msg > afek[0].cost_per_msg);
    }
}
