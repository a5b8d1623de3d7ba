//! The builder contract, post-migration. The PR 4 per-discipline
//! constructors (`Simulation::fifo`, `::probabilistic`, `::lossy_fifo`,
//! `::bounded_reorder`, `::chaos`) were pure respellings of
//! `Simulation::builder` chains, held to fingerprint-and-metrics parity
//! until their removal; these tests pin the properties that made that
//! deletion safe — the builder is deterministic, its defaults are the
//! documented ones, and each discipline chain is observably distinct.

use nonfifo::channel::{Discipline, FaultPlan};
use nonfifo::core::{SimConfig, Simulation};
use nonfifo::protocols::{AlternatingBit, SequenceNumber};
use nonfifo::telemetry::{MetricsSnapshot, Registry};
use std::sync::Arc;

/// Runs `sim` for `n` messages under telemetry and returns the pair of
/// observables the builder contract is judged on.
fn observe(mut sim: Simulation, n: u64) -> (u64, MetricsSnapshot) {
    let registry = Arc::new(Registry::new());
    sim.attach_telemetry(Arc::clone(&registry), None);
    sim.deliver(n, &SimConfig::default()).expect("delivery");
    sim.publish_metrics();
    (sim.execution_fingerprint(), registry.snapshot())
}

/// Asserts the two constructions are indistinguishable.
fn assert_parity(old: Simulation, new: Simulation, n: u64, label: &str) {
    let (old_fp, old_snap) = observe(old, n);
    let (new_fp, new_snap) = observe(new, n);
    assert_eq!(old_fp, new_fp, "{label}: fingerprints diverged");
    assert_eq!(old_snap, new_snap, "{label}: metrics diverged");
}

/// One builder chain per spelling the removed constructors had (each
/// channel discipline, plus a fault plan), over a representative protocol.
fn migration_chains(seed: u64) -> Vec<(&'static str, Simulation)> {
    let plan = FaultPlan::parse("dup 0.15\ndrop 0.1").expect("plan");
    vec![
        (
            "fifo",
            Simulation::builder(SequenceNumber::factory()).build(),
        ),
        (
            "probabilistic",
            Simulation::builder(SequenceNumber::factory())
                .channel(Discipline::Probabilistic { q: 0.3 })
                .seed(seed)
                .build(),
        ),
        (
            "lossy_fifo",
            Simulation::builder(AlternatingBit::factory())
                .channel(Discipline::LossyFifo { loss: 0.25 })
                .seed(seed)
                .build(),
        ),
        (
            "bounded_reorder",
            Simulation::builder(SequenceNumber::factory())
                .channel(Discipline::BoundedReorder { bound: 4 })
                .seed(seed)
                .build(),
        ),
        (
            "chaos",
            Simulation::builder(SequenceNumber::factory())
                .fault_plan(plan)
                .seed(seed)
                .build(),
        ),
    ]
}

/// Building the same chain twice yields bit-identical executions — the
/// property the removed constructors delegated to, and the one the
/// campaign cache and the sharded service still rely on.
#[test]
fn every_migration_chain_is_deterministic() {
    for seed in [0, 7, 41] {
        let first = migration_chains(seed);
        let second = migration_chains(seed);
        for ((label, a), (_, b)) in first.into_iter().zip(second) {
            assert_parity(a, b, 25, label);
        }
    }
}

/// The old constructors were distinct for a reason: each discipline chain
/// produces an observably different execution on a lossy-tolerant
/// protocol, so no two rows of the migration table collapsed.
#[test]
fn migration_chains_are_pairwise_distinct() {
    let fingerprints: Vec<(&str, u64)> = migration_chains(7)
        .into_iter()
        .map(|(label, sim)| (label, observe(sim, 25).0))
        .collect();
    for (i, (la, fa)) in fingerprints.iter().enumerate() {
        for (lb, fb) in &fingerprints[i + 1..] {
            assert_ne!(fa, fb, "{la} and {lb} produced identical executions");
        }
    }
}

/// The builder's defaults are the documented ones: FIFO, seed 0, no faults.
/// Spelling them out explicitly must change nothing.
#[test]
fn builder_defaults_are_explicit_fifo_seed_zero() {
    assert_parity(
        Simulation::builder(SequenceNumber::factory()).build(),
        Simulation::builder(SequenceNumber::factory())
            .channel(Discipline::Fifo)
            .seed(0)
            .build(),
        40,
        "defaults",
    );
}
