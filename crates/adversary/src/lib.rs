//! The lower-bound proofs of Mansour & Schieber (PODC 1989) as running
//! code.
//!
//! Every proof in the paper is a constructive adversary: it drives the
//! physical layer so that either the protocol delivers a message that was
//! never sent (an *invalid execution*, `rm(α) = sm(α) + 1`) or pays the
//! stated packet/space cost. This crate executes those constructions
//! against real protocol implementations:
//!
//! - [`System`] — the closed system `Aᵗ ∥ PLᵗ→ʳ ∥ PLʳ→ᵗ ∥ Aʳ` under full
//!   adversary control, with every event recorded and checked online.
//! - [`BoundnessOracle`] — the boundness quantifier ("there exists an
//!   extension β …") made effective: fork the deterministic system, let the
//!   channel behave optimally, and harvest β.
//! - [`MfFalsifier`] — the Theorem 3.1 induction: replay in-transit copies
//!   to simulate extensions, park what cannot be replayed, and grow the
//!   delayed pool until a full extension is coverable — at which point the
//!   replayed extension is an invalid execution.
//! - [`PfFalsifier`] — the Theorem 4.1 induction: park one copy of a
//!   *dominant* packet per message, forcing per-message cost ≥ in-transit/k.
//! - [`GreedyReplayAdversary`] — the cheap heuristic used by experiment E8:
//!   capture one retransmission per message, then replay them in order.
//! - [`DominantTracker`] — the Theorem 5.1 instrumentation: per-extension
//!   dominant packets and the `m_{i,j}` growth trajectory over a
//!   probabilistic channel.
//! - [`boundness`] — empirical boundness and product-state counting for the
//!   Theorem 2.1 experiments.
//! - [`Explorer`] — exhaustive small-scope model checking, the one entry
//!   point for it: every adversary behaviour within a bounded
//!   [`ExploreConfig`] scope (under a non-FIFO, bounded-reorder, or
//!   lossy-FIFO [`Discipline`]), yielding either a *shortest* invalid
//!   execution or a certificate that none exists in scope. It runs the
//!   sequential oracle or, with [`Explorer::parallel`], the same search
//!   level-synchronized across worker threads with a sharded visited set —
//!   deterministic outcomes independent of thread count.
//! - [`StateCodec`] / [`VisitedSet`] — the state-identity layer: each state
//!   is hashed to an 8-byte key, deduplicated through an exact in-RAM tier
//!   or an exact disk-spilling tier bounded by a memory budget
//!   ([`VisitedSpec`]); the parallel engine's frontier holds states as
//!   varint records ([`codec::save`]).
//! - [`shrink()`] — greedy counterexample shrinking: deletes runs of
//!   adversary actions while the schedule still replays to a violation, so
//!   machine-found attacks come back minimal and human-readable.
//! - [`Schedule`] — adversary behaviours as data: parse an attack script,
//!   replay it against any protocol, share it as an artifact.
//!
//! # Example
//!
//! Break the alternating-bit protocol over a non-FIFO channel and get the
//! invalid execution the paper promises:
//!
//! ```
//! use nonfifo_adversary::{FalsifyOutcome, MfFalsifier};
//! use nonfifo_protocols::AlternatingBit;
//!
//! let outcome = MfFalsifier::default().run(&AlternatingBit::new());
//! match outcome {
//!     FalsifyOutcome::Violation(report) => {
//!         // One more receive_msg than send_msg: DL1 refuted.
//!         assert!(report.execution.counts().rm > report.execution.counts().sm);
//!     }
//!     other => panic!("alternating bit should fall: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundness;
pub mod codec;
mod dominant;
pub mod explore;
mod explore_par;
mod explorer;
mod greedy;
mod levels;
mod mf;
mod oracle;
mod pf;
pub mod por;
mod schedule;
mod shrink;
mod spill;
mod system;
pub mod visited;
mod workpool;

pub use codec::StateCodec;
pub use dominant::{DominantReport, DominantTracker, ProbRunConfig};
pub use explore::{scope_root, Discipline, ExploreConfig, ExploreOutcome};
pub use explore_par::Streamed;
pub use explorer::Explorer;
pub use greedy::GreedyReplayAdversary;
pub use levels::LEVEL_BLOCK_BYTES;
pub use mf::{MfConfig, MfFalsifier, MfGrowthStage};
pub use oracle::{BoundnessOracle, Extension};
pub use pf::{PfConfig, PfFalsifier, PfMessageCost};
pub use por::{apply_step, steps_independent_at};
pub use schedule::{Schedule, ScheduleError, ScheduleStep};
pub use shrink::{shrink, ShrinkError, ShrinkOutcome};
pub use system::{fill_ghost, Disposition, System};
pub use visited::{RamVisited, TieredVisited, VisitedSet, VisitedSpec, DEFAULT_MEMORY_BUDGET};
pub use workpool::ChunkCursor;

use nonfifo_ioa::{Execution, SpecViolation};

/// The result of running a falsifier against a protocol.
#[derive(Debug, Clone)]
pub enum FalsifyOutcome {
    /// The adversary constructed an invalid execution — the protocol
    /// violates the data-link specification over a non-FIFO channel.
    Violation(ViolationReport),
    /// The protocol withstood the adversary within the configured budget
    /// (e.g. it uses per-message headers, like the naive protocol).
    Survived(SurvivalReport),
    /// The protocol failed to make progress even under an optimally
    /// behaving channel — it is not a live data-link protocol at all.
    Stuck {
        /// Messages delivered before the protocol wedged.
        delivered: u64,
    },
    /// The protocol kept its safety but its packet cost outran the step
    /// budget — the other horn of the paper's dilemma (pay in packets and
    /// space instead of violating DL1).
    BudgetExhausted {
        /// Messages delivered before the budget ran out.
        delivered: u64,
        /// Forward packets sent up to that point.
        forward_packets_sent: u64,
    },
}

impl FalsifyOutcome {
    /// True if the adversary found an invalid execution.
    pub fn is_violation(&self) -> bool {
        matches!(self, FalsifyOutcome::Violation(_))
    }
}

/// Evidence of a specification violation.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// The violation flagged by the online monitor.
    pub violation: SpecViolation,
    /// The full recorded execution ending in the violation.
    pub execution: Execution,
    /// Messages legitimately delivered before the phantom one.
    pub messages_before_violation: u64,
    /// Total packets the transmitter sent on the forward channel.
    pub forward_packets_sent: u64,
}

/// Statistics from a survived falsification attempt.
#[derive(Debug, Clone)]
pub struct SurvivalReport {
    /// Messages delivered during the attack.
    pub messages_delivered: u64,
    /// Total forward packets sent.
    pub forward_packets_sent: u64,
    /// Copies still delayed on the forward channel at the end.
    pub final_in_transit: u64,
    /// Peak transmitter + receiver space observed, in bytes.
    pub peak_space_bytes: usize,
    /// Distinct forward packet values sent — the execution's header count.
    pub distinct_forward_packets: u64,
}
