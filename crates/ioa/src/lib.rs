//! I/O-automaton model substrate for the `nonfifo` reproduction of
//! *The Intractability of Bounded Protocols for Non-FIFO Channels*
//! (Mansour & Schieber, PODC 1989).
//!
//! The paper models the data-link layer as two I/O automata, `Aᵗ` at the
//! transmitting station and `Aʳ` at the receiving station, communicating over
//! two unidirectional physical channels. This crate provides the vocabulary
//! that everything else in the workspace is written in:
//!
//! - [`Packet`], [`Header`], [`CopyId`], [`Dir`] — the physical-layer
//!   alphabet. Because the lower bounds assume all *messages* are identical,
//!   the number of distinct packets **is** the number of headers
//!   (paper §2.3, "Headers").
//! - [`Message`], [`MsgId`] — the data-link alphabet, with a ghost identifier
//!   used only by the specification checkers, never by protocols.
//! - [`Event`], [`Execution`] — recorded executions and the counters of the
//!   paper's Definition 2 (`sm`, `rm`, `spᵗ→ʳ`, `rpᵗ→ʳ`, `spʳ→ᵗ`, `rpʳ→ᵗ`).
//! - [`spec`] — checkers for the physical-layer properties (PL1, finite PL2
//!   surrogates) and the data-link properties (DL1 safety, DL2 FIFO, DL3
//!   finite-horizon liveness), plus validity and semi-validity
//!   (Definitions 3–4).
//! - [`SpecMonitor`] — an incremental checker suitable for long runs.
//! - [`CopyTable`] — the copies in transit on one channel, sorted by copy
//!   id: the table behind the monitor and every channel's delayed pool.
//! - [`fingerprint`] — a deterministic hasher for protocol state
//!   fingerprints (used by the boundness experiments of Theorem 2.1).
//!
//! # Example
//!
//! Construct the invalid execution at the heart of every proof in the paper —
//! one more `receive_msg` than `send_msg` — and watch the checker reject it:
//!
//! ```
//! use nonfifo_ioa::{spec, Event, Execution, Message};
//!
//! let mut exec = Execution::new();
//! exec.push(Event::SendMsg(Message::identical(0)));
//! exec.push(Event::ReceiveMsg(Message::identical(0)));
//! exec.push(Event::ReceiveMsg(Message::identical(1)));
//! assert!(spec::check_dl1(&exec).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod copy_table;
pub mod diagram;
mod event;
mod execution;
pub mod fingerprint;
mod message;
mod monitor;
mod packet;
pub mod spec;
pub mod text;
pub mod view;

pub use copy_table::{CopyIter, CopyTable};
pub use event::Event;
pub use execution::{Counts, Execution};
pub use message::{Message, MsgId};
pub use monitor::SpecMonitor;
pub use packet::{CopyId, Dir, Header, Packet, Payload};
pub use spec::{Convergence, ConvergenceSpec, SpecViolation, Validity};
