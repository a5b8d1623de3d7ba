//! E13 — parallel certification of growing scopes.
//!
//! E11 certifies the naive sequence-number protocol safe in one small
//! scope; this experiment grows the scope along every axis (messages,
//! depth, pool) and certifies each with the level-synchronized parallel
//! explorer, cross-checked against the sequential oracle. The state count
//! per scope is the certified coverage; the deterministic-merge design
//! makes the parallel report byte-identical to the sequential one, so the
//! `agrees` column is a differential test run as an experiment.
//!
//! Throughput (states/sec vs. threads) is measured by the
//! `explore_par` bench, not here — experiment output must be
//! deterministic.

use super::table::markdown;
use nonfifo_adversary::{ExploreConfig, ExploreOutcome, Explorer};
use nonfifo_protocols::SequenceNumber;
use std::fmt;

/// One certified scope.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Scope description (messages / depth / pool).
    pub scope: String,
    /// Distinct states covered by the full certificate.
    pub states: usize,
    /// Distinct quotient states covered by the reduced (`--por`)
    /// certificate of the same scope.
    pub por_states: usize,
    /// Verdict rendering.
    pub verdict: String,
    /// True if the parallel and sequential reports were byte-identical.
    pub agrees: bool,
    /// True if the reduced engine reached the same verdict as the full one.
    pub por_agrees: bool,
}

impl E13Row {
    /// Full states per reduced state — the partial-order reduction's
    /// certified-scope multiplier at this scope.
    pub fn reduction_ratio(&self) -> f64 {
        self.states as f64 / self.por_states.max(1) as f64
    }
}

/// The E13 report.
#[derive(Debug, Clone)]
pub struct E13Report {
    /// One row per scope, smallest first.
    pub rows: Vec<E13Row>,
}

impl fmt::Display for E13Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scope.clone(),
                    r.states.to_string(),
                    r.por_states.to_string(),
                    format!("{:.2}x", r.reduction_ratio()),
                    r.verdict.clone(),
                    if r.agrees { "yes" } else { "NO" }.to_string(),
                    if r.por_agrees { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            markdown(
                &[
                    "scope (msgs/depth/pool)",
                    "states",
                    "por states",
                    "reduction",
                    "verdict",
                    "seq = par",
                    "por = full"
                ],
                &rows
            )
        )
    }
}

fn states_of(outcome: &ExploreOutcome) -> usize {
    match outcome {
        ExploreOutcome::Exhausted { states } | ExploreOutcome::Truncated { states } => *states,
        ExploreOutcome::Counterexample { .. } => 0,
    }
}

fn certify(cfg: ExploreConfig) -> E13Row {
    let proto = SequenceNumber::new();
    let mut parallel = Explorer::new().parallel(0);
    let par = parallel.explore(&proto, &cfg);
    let seq = Explorer::new().explore(&proto, &cfg);
    let por = parallel.explore(&proto, &ExploreConfig { por: true, ..cfg });
    let verdict = match &par {
        ExploreOutcome::Exhausted { .. } => "certified safe (exhaustive)".to_string(),
        ExploreOutcome::Counterexample { depth, .. } => {
            format!("counterexample at depth {depth}")
        }
        ExploreOutcome::Truncated { .. } => "inconclusive (state budget)".to_string(),
    };
    // The reduced run certifies the same scope when it reaches the same
    // verdict kind — its state count is the quotient's, so only the kind
    // (and counterexample depth) is comparable.
    let por_agrees = match (&par, &por) {
        (ExploreOutcome::Exhausted { .. }, ExploreOutcome::Exhausted { .. }) => true,
        (
            ExploreOutcome::Counterexample { depth: a, .. },
            ExploreOutcome::Counterexample { depth: b, .. },
        ) => a == b,
        (ExploreOutcome::Truncated { .. }, ExploreOutcome::Truncated { .. }) => true,
        _ => false,
    };
    E13Row {
        scope: format!("{}/{}/{}", cfg.max_messages, cfg.max_depth, cfg.max_pool),
        states: states_of(&par),
        por_states: states_of(&por),
        verdict,
        agrees: par.report() == seq.report(),
        por_agrees,
    }
}

/// Runs E13.
pub fn e13_parallel_certification() -> E13Report {
    let scopes = [(3, 12, 5), (4, 16, 6), (5, 18, 7), (6, 20, 8)];
    let rows = scopes
        .into_iter()
        .map(|(max_messages, max_depth, max_pool)| {
            certify(ExploreConfig {
                max_messages,
                max_depth,
                max_pool,
                max_states: 2_000_000,
                ..ExploreConfig::default()
            })
        })
        .collect();
    E13Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scope_is_certified_and_engines_agree() {
        let report = e13_parallel_certification();
        assert_eq!(report.rows.len(), 4);
        let mut prev = 0;
        for row in &report.rows {
            assert!(row.agrees, "engines disagreed on scope {}", row.scope);
            assert!(
                row.por_agrees,
                "reduced engine disagreed on scope {}",
                row.scope
            );
            assert!(
                row.verdict.contains("certified"),
                "scope {} verdict: {}",
                row.scope,
                row.verdict
            );
            assert!(
                row.states > prev,
                "coverage should grow with the scope: {} after {prev}",
                row.states
            );
            prev = row.states;
        }
        // The reduction's acceptance line: at the top scope the quotient
        // certifies at least 5x the full state count per unit of budget
        // (it is ~25x; the ratio is structural, so this is a determinism
        // pin as much as a strength floor).
        let top = report.rows.last().unwrap();
        assert!(
            top.reduction_ratio() >= 5.0,
            "reduction fell below the 5x acceptance line at {}: {:.2}x",
            top.scope,
            top.reduction_ratio()
        );
    }
}
