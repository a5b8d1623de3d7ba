//! E1 — Theorem 2.1: boundness is bounded by the product of the automata
//! state counts.

use super::table::markdown;
use nonfifo_adversary::boundness::{probe, BoundnessProbeConfig};
use nonfifo_protocols::{AlternatingBit, DataLink, NaiveCycle, SequenceNumber};
use std::fmt;

/// One protocol's boundness probe results.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Protocol name.
    pub protocol: String,
    /// Distinct transmitter control states observed.
    pub tx_states: u64,
    /// Distinct receiver control states observed.
    pub rx_states: u64,
    /// Distinct product states observed.
    pub product_states: u64,
    /// Empirical boundness (largest sampled extension, in forward sends).
    pub max_extension: u64,
    /// Theorem 2.1 consistency: `max_extension ≤ tx_states · rx_states`.
    pub consistent: bool,
}

/// The E1 report.
#[derive(Debug, Clone)]
pub struct E1Report {
    /// One row per probed protocol.
    pub rows: Vec<E1Row>,
}

impl E1Report {
    /// True if every finite-state protocol satisfied the theorem's
    /// inequality on the observed quantities.
    pub fn all_consistent(&self) -> bool {
        self.rows.iter().all(|r| r.consistent)
    }
}

impl fmt::Display for E1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.protocol.clone(),
                    r.tx_states.to_string(),
                    r.rx_states.to_string(),
                    r.product_states.to_string(),
                    r.max_extension.to_string(),
                    if r.consistent {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            markdown(
                &[
                    "protocol",
                    "tx states",
                    "rx states",
                    "product states",
                    "empirical boundness",
                    "≤ kₜ·kᵣ"
                ],
                &rows
            )
        )
    }
}

/// Runs E1 with the given seed.
pub fn e1_boundness(seed: u64) -> E1Report {
    let protocols: Vec<Box<dyn DataLink>> = vec![
        Box::new(AlternatingBit::new()),
        Box::new(NaiveCycle::new(3)),
        Box::new(NaiveCycle::new(5)),
        Box::new(SequenceNumber::new()),
    ];
    let cfg = BoundnessProbeConfig {
        seed,
        ..BoundnessProbeConfig::default()
    };
    let rows = protocols
        .iter()
        .map(|p| {
            let est = probe(p.as_ref(), &cfg);
            E1Row {
                protocol: p.name(),
                tx_states: est.tx_states,
                rx_states: est.rx_states,
                product_states: est.product_states,
                max_extension: est.max_extension(),
                consistent: est.consistent_with_theorem_2_1(),
            }
        })
        .collect();
    E1Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_consistent_and_renders() {
        let report = e1_boundness(42);
        assert_eq!(report.rows.len(), 4);
        assert!(report.all_consistent());
        let text = report.to_string();
        assert!(text.contains("alternating-bit"));
        assert!(text.contains("sequence-number"));
    }

    #[test]
    fn report_seed_pins_every_row() {
        // The seed `report` and EXPERIMENTS.md use: (tx, rx, product)
        // state counts per protocol, so a change to any automaton's state
        // identity that moves E1 shows up here.
        let report = e1_boundness(20260705);
        let rows: Vec<_> = report
            .rows
            .iter()
            .map(|r| {
                (
                    r.protocol.as_str(),
                    r.tx_states,
                    r.rx_states,
                    r.product_states,
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                ("alternating-bit", 4, 2, 4),
                ("naive-cycle(k=3)", 6, 3, 6),
                ("naive-cycle(k=5)", 10, 5, 10),
                ("sequence-number", 46, 33, 46),
            ]
        );
    }
}
