//! Physical-layer channel simulators for the `nonfifo` reproduction of
//! Mansour & Schieber (PODC 1989).
//!
//! The paper's physical layer (§2.1) is a unidirectional, unreliable,
//! non-FIFO packet transport: it may delete any packet or delay it
//! arbitrarily, but never corrupts or duplicates (PL1), and delivers
//! *something* if sends keep happening (PL2). This crate implements that
//! layer several ways:
//!
//! - [`AdversarialChannel`] — the adversary of the lower-bound proofs: every
//!   copy in transit is individually addressable; the caller decides which
//!   copy is delivered when, can park all traffic, or replay a delayed copy
//!   of a packet value in place of a fresh one.
//! - [`ProbabilisticChannel`] — the probabilistic physical layer of §5
//!   (property PL2p): each packet is delivered immediately with probability
//!   `1 − q` and delayed otherwise.
//! - [`FifoChannel`] — a reliable FIFO reference channel (what the data-link
//!   layer is supposed to *provide*).
//! - [`LossyFifoChannel`] — FIFO order with i.i.d. loss; the classic domain
//!   where the alternating-bit protocol is correct.
//! - [`BoundedReorderChannel`] — non-FIFO with bounded overtaking distance;
//!   the realistic middle ground where sliding-window protocols with modular
//!   headers become correct again (experiment E9).
//! - [`CorruptingChannel`] — deliberately PL1-violating fault injection,
//!   proving the checkers catch corruption rather than assuming it away.
//! - [`ChaosChannel`] — a deterministic fault-injecting *decorator* over any
//!   of the above: seeded duplication, loss, corruption, burst loss,
//!   partition windows, and reorder storms, every fault logged and declared
//!   to the harness so PL1 checking stays sound under chaos.
//!
//! All channels except the deliberately faulty [`CorruptingChannel`]
//! satisfy PL1 by construction: every copy is minted exactly once and
//! leaves the channel at most once, uncorrupted. Tests check this against
//! the [`nonfifo_ioa::spec::check_pl1`] checker.
//!
//! # Example
//!
//! ```
//! use nonfifo_channel::{AdversarialChannel, Channel};
//! use nonfifo_ioa::{Dir, Header, Packet};
//!
//! let mut ch = AdversarialChannel::parked(Dir::Forward);
//! let p = Packet::header_only(Header::new(0));
//! ch.send(p);
//! ch.send(p);
//! assert_eq!(ch.in_transit_len(), 2);
//! // The adversary replays the *oldest* delayed copy of p.
//! let (pkt, _copy) = ch.release_oldest_of_packet(p).expect("in transit");
//! assert_eq!(pkt, p);
//! assert!(ch.poll_deliver().is_some());
//! assert_eq!(ch.in_transit_len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod bounded_reorder;
mod channel;
mod chaos;
mod corrupting;
mod corruption;
mod discipline;
mod fifo;
mod lossy_fifo;
mod multiset;
mod probabilistic;

pub use adversarial::{AdversarialChannel, DeliveryMode};
pub use bounded_reorder::BoundedReorderChannel;
pub use channel::{
    tally_headers, BoxedChannel, Channel, ChannelIntrospect, FaultObserver, InstrumentedChannel,
};
pub use chaos::{ChaosChannel, FaultKind, FaultPlan, FaultRecord, PlanError, CHAOS_COPY_BASE};
pub use corrupting::{corrupt_packet, CorruptingChannel};
pub use corruption::{CorruptionSeverity, ScramblePlan, SeverityError, MAX_JUNK_MULTIPLICITY};
pub use discipline::{Discipline, DisciplineError};
pub use fifo::FifoChannel;
pub use lossy_fifo::LossyFifoChannel;
pub use multiset::PacketMultiset;
pub use probabilistic::{ProbabilisticChannel, ReleasePolicy};
