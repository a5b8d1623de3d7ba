//! Empirical boundness and product-state counting — the Theorem 2.1
//! experiments.
//!
//! Theorem 2.1: any protocol `(Aᵗ, Aʳ)` is `kₜ·kᵣ`-bounded, where `kₜ` and
//! `kᵣ` are the automata state counts — boundness is an abstraction of
//! space. We probe this empirically: drive a protocol through a randomized
//! (seeded) channel schedule, sample the boundness extension after every
//! `send_msg` via the [`BoundnessOracle`], and count the distinct product
//! states `(fingerprint(Aᵗ), fingerprint(Aʳ))` visited, each fingerprint
//! covering the automaton's whole derived state. For a
//! finite-state protocol the maximum extension length must stay below the
//! product-state count; for protocols with unbounded state (the naive
//! sequence-number protocol) the product count itself grows with `n` — the
//! space the paper says they must pay.

use crate::oracle::BoundnessOracle;
use crate::system::{Disposition, System};
use nonfifo_ioa::SpecViolation;
use nonfifo_protocols::DataLink;
use nonfifo_rng::StdRng;
use std::collections::BTreeSet;

/// Configuration of a boundness probe.
#[derive(Debug, Clone, Copy)]
pub struct BoundnessProbeConfig {
    /// Messages to sample.
    pub messages: u64,
    /// Probability a fresh forward copy is delivered (vs. parked) under
    /// the randomized schedule.
    pub deliver_probability: f64,
    /// RNG seed.
    pub seed: u64,
    /// Scheduler steps allowed per message.
    pub max_steps_per_message: u64,
    /// Oracle step budget.
    pub oracle_steps: u64,
}

impl Default for BoundnessProbeConfig {
    fn default() -> Self {
        BoundnessProbeConfig {
            messages: 32,
            deliver_probability: 0.5,
            seed: 0,
            max_steps_per_message: 20_000,
            oracle_steps: 100_000,
        }
    }
}

/// The result of a boundness probe.
#[derive(Debug, Clone)]
pub struct BoundnessEstimate {
    /// Extension lengths (`spᵗ→ʳ(β)`) sampled after each `send_msg`.
    pub extension_samples: Vec<u64>,
    /// Distinct transmitter control states observed.
    pub tx_states: u64,
    /// Distinct receiver control states observed.
    pub rx_states: u64,
    /// Distinct product states observed.
    pub product_states: u64,
    /// Safety violation, if one occurred under the randomized schedule.
    pub violation: Option<SpecViolation>,
}

impl BoundnessEstimate {
    /// The empirical boundness: the largest sampled extension.
    pub fn max_extension(&self) -> u64 {
        self.extension_samples.iter().copied().max().unwrap_or(0)
    }

    /// Theorem 2.1's inequality, on the observed quantities: the empirical
    /// boundness is at most the observed product-state count. (Observed
    /// states lower-bound the true `kₜ·kᵣ`, so a `true` here is consistent
    /// with — not a proof of — the theorem; a `false` for a genuinely
    /// finite-state protocol would refute the implementation.)
    pub fn consistent_with_theorem_2_1(&self) -> bool {
        self.max_extension() <= self.tx_states * self.rx_states
    }
}

/// Probes the boundness of a protocol under a randomized schedule.
///
/// # Example
///
/// ```
/// use nonfifo_adversary::boundness::{probe, BoundnessProbeConfig};
/// use nonfifo_protocols::AlternatingBit;
///
/// let est = probe(&AlternatingBit::new(), &BoundnessProbeConfig::default());
/// assert!(est.consistent_with_theorem_2_1());
/// ```
pub fn probe(proto: &dyn DataLink, cfg: &BoundnessProbeConfig) -> BoundnessEstimate {
    let oracle = BoundnessOracle::new(cfg.oracle_steps);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sys = System::new(proto);
    let mut extension_samples = Vec::new();
    let mut tx_states = BTreeSet::new();
    let mut rx_states = BTreeSet::new();
    let mut product_states = BTreeSet::new();

    let mut note_states = |sys: &System| {
        let t = sys.tx.state_fingerprint();
        let r = sys.rx.state_fingerprint();
        tx_states.insert(t);
        rx_states.insert(r);
        product_states.insert((t, r));
    };

    note_states(&sys);
    'outer: for _ in 0..cfg.messages {
        sys.send_msg();
        // Sample the boundness extension for the outstanding message.
        if let Some(ext) = oracle.extension(&sys) {
            extension_samples.push(ext.forward_sends());
        }
        let mut steps = 0;
        while sys.counts().rm < sys.counts().sm {
            if steps >= cfg.max_steps_per_message {
                // Fall back to an optimal channel so the run can continue.
                if !sys.run_to_quiescence(cfg.max_steps_per_message) {
                    break 'outer;
                }
                break;
            }
            let deliver = cfg.deliver_probability;
            sys.step(|_pkt, _copy, _ch| {
                if rng.gen_bool(deliver) {
                    Disposition::Deliver
                } else {
                    Disposition::Park
                }
            });
            note_states(&sys);
            if sys.violation().is_some() {
                break 'outer;
            }
            steps += 1;
        }
    }

    BoundnessEstimate {
        extension_samples,
        tx_states: tx_states.len() as u64,
        rx_states: rx_states.len() as u64,
        product_states: product_states.len() as u64,
        violation: sys.violation(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_protocols::{AlternatingBit, NaiveCycle, SequenceNumber};

    #[test]
    fn alternating_bit_is_tightly_bounded() {
        let est = probe(&AlternatingBit::new(), &BoundnessProbeConfig::default());
        assert_eq!(est.violation, None, "loss-only schedule is its domain");
        // Control states: bit × pending for tx, expected bit for rx.
        assert!(est.tx_states <= 4, "tx states {}", est.tx_states);
        assert!(est.rx_states <= 2, "rx states {}", est.rx_states);
        // Its extensions are a single packet.
        assert_eq!(est.max_extension(), 1);
        assert!(est.consistent_with_theorem_2_1());
    }

    #[test]
    fn naive_cycle_states_scale_with_k() {
        let est = probe(&NaiveCycle::new(4), &BoundnessProbeConfig::default());
        assert_eq!(est.violation, None);
        assert!(est.tx_states <= 8);
        assert!(est.rx_states <= 4);
        assert!(est.consistent_with_theorem_2_1());
    }

    #[test]
    fn sequence_number_states_grow_with_messages() {
        // The paper's point: n headers buy O(log n) space — the automaton
        // is NOT finite-state, and the product-state count grows with n.
        let cfg = BoundnessProbeConfig {
            messages: 24,
            ..BoundnessProbeConfig::default()
        };
        let est = probe(&SequenceNumber::new(), &cfg);
        assert_eq!(est.violation, None);
        assert!(
            est.rx_states >= 24,
            "seqnum receiver visits a state per message, got {}",
            est.rx_states
        );
        // Extensions stay constant-size even though states grow.
        assert!(est.max_extension() <= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = BoundnessProbeConfig::default();
        let a = probe(&AlternatingBit::new(), &cfg);
        let b = probe(&AlternatingBit::new(), &cfg);
        assert_eq!(a.extension_samples, b.extension_samples);
        assert_eq!(a.product_states, b.product_states);
    }
}
