//! # nonfifo
//!
//! An executable reproduction of *The Intractability of Bounded Protocols for
//! Non-FIFO Channels* (Yishay Mansour and Baruch Schieber, PODC 1989).
//!
//! The paper proves three lower bounds about data-link protocols running over
//! physical channels that may delay or delete any packet (non-FIFO channels):
//!
//! 1. **Theorem 3.1** — for *any* function `f`, an `M_f`-bounded protocol
//!    needs at least `n` headers to deliver `n` messages; equivalently, the
//!    space of a sub-`n`-header protocol is unbounded by any function of `n`.
//! 2. **Theorem 4.1** — a protocol with `k < n` headers must spend at least
//!    `1/k` times the number of in-transit packets to deliver a message.
//! 3. **Theorem 5.1** — over a probabilistic channel that delays each packet
//!    with probability `q`, any fixed-header protocol sends
//!    `(1 + q − εₙ)^Ω(n)` packets to deliver `n` messages, with overwhelming
//!    probability.
//!
//! This crate re-exports the whole workspace:
//!
//! - [`ioa`] — the I/O-automaton model: packets, events, executions, and the
//!   PL1/PL2/DL1/DL2/DL3 specification checkers.
//! - [`channel`] — physical-layer simulators: adversarial non-FIFO,
//!   probabilistic, FIFO, lossy-FIFO, and bounded-reorder channels.
//! - [`protocols`] — data-link protocols: alternating bit, sequence numbers,
//!   sliding window, a naive label cycle, and reconstructions of the
//!   bounded-header protocols of AFWZ'88 and Afek'88.
//! - [`adversary`] — the paper's proofs as running code: the Theorem 3.1 and
//!   4.1 falsifiers, the boundness oracle, and Theorem 5.1 instrumentation.
//! - [`transport`] — multipath virtual links: the paper's transport-layer
//!   remark, with non-FIFO behaviour emerging from routing.
//! - [`analysis`] — Hoeffding tails, binomial distributions, growth fitting.
//! - [`core`] — the simulation engine and per-experiment runners.
//! - [`campaign`] — declarative scenario matrices: expand a spec into
//!   thousands of deterministic runs, execute them on a work-stealing pool,
//!   and cache results by run fingerprint.
//!
//! ## Quickstart
//!
//! Deliver 100 messages with the naive sequence-number protocol over a
//! probabilistic channel and inspect the cost:
//!
//! ```
//! use nonfifo::channel::Discipline;
//! use nonfifo::core::{Simulation, SimConfig};
//! use nonfifo::protocols::SequenceNumber;
//!
//! let mut sim = Simulation::builder(SequenceNumber::factory())
//!     .channel(Discipline::Probabilistic { q: 0.2 })
//!     .seed(42)
//!     .build();
//! let stats = sim.deliver(100, &SimConfig::default()).expect("delivery");
//! assert_eq!(stats.messages_delivered, 100);
//! assert!(stats.packets_sent_forward >= 100);
//! ```
//!
//! See `examples/` for adversarial runs that break the alternating-bit
//! protocol and reproduce the exponential blow-up of Theorem 5.1.

pub use nonfifo_adversary as adversary;
pub use nonfifo_analysis as analysis;
pub use nonfifo_campaign as campaign;
pub use nonfifo_channel as channel;
pub use nonfifo_core as core;
pub use nonfifo_ioa as ioa;
pub use nonfifo_protocols as protocols;
pub use nonfifo_telemetry as telemetry;
pub use nonfifo_transport as transport;

/// A convenience prelude bringing the most commonly used items into scope.
pub mod prelude {
    pub use nonfifo_adversary::{
        BoundnessOracle, ExploreConfig, ExploreOutcome, Explorer, FalsifyOutcome, MfFalsifier,
        PfFalsifier,
    };
    pub use nonfifo_campaign::{CampaignPlan, CampaignRunner, ScenarioSpec};
    pub use nonfifo_channel::{
        AdversarialChannel, BoundedReorderChannel, Channel, CorruptingChannel, Discipline,
        FifoChannel, LossyFifoChannel, ProbabilisticChannel,
    };
    pub use nonfifo_core::{NonFifoError, SimConfig, Simulation, SimulationBuilder};
    pub use nonfifo_ioa::{
        CopyId, Dir, Event, Execution, Header, Message, Packet, SpecMonitor, SpecViolation,
    };
    pub use nonfifo_protocols::{
        AfekFlush, AlternatingBit, DataLink, GoBackN, NaiveCycle, Receiver, SequenceNumber,
        SlidingWindow, Transmitter,
    };
    pub use nonfifo_telemetry::{MetricsSnapshot, Registry, TraceSink};
    pub use nonfifo_transport::{VirtualLink, VirtualLinkBuilder};
}
