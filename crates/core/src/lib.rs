//! Simulation engine and experiment harness for the `nonfifo` reproduction
//! of Mansour & Schieber (PODC 1989).
//!
//! This crate is the user-facing top of the workspace:
//!
//! - [`Simulation`] — compose any [`DataLink`](nonfifo_protocols::DataLink)
//!   protocol with any pair of [`Channel`](nonfifo_channel::Channel)s and
//!   run message deliveries with online specification checking and cost
//!   accounting.
//! - [`experiments`] — one runner per experiment in `DESIGN.md` §4
//!   (E1–E9), each producing a typed report that renders as the markdown
//!   table recorded in `EXPERIMENTS.md`.
//!
//! # Example
//!
//! ```
//! use nonfifo_channel::Discipline;
//! use nonfifo_core::{SimConfig, Simulation};
//! use nonfifo_protocols::SequenceNumber;
//!
//! let mut sim = Simulation::builder(SequenceNumber::factory())
//!     .channel(Discipline::Probabilistic { q: 0.25 })
//!     .seed(7)
//!     .build();
//! let stats = sim.deliver(50, &SimConfig::default()).expect("delivery");
//! assert_eq!(stats.messages_delivered, 50);
//! assert!(stats.violation.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod counters;
mod error;
pub mod experiments;
mod simulation;
mod stabilize;

pub use builder::SimulationBuilder;
pub use counters::RunCounters;
pub use error::NonFifoError;
pub use simulation::{
    CrashEvent, CrashMode, RunStats, SimConfig, SimError, Simulation, StallDiagnostic, Station,
};
pub use stabilize::{
    certify, corrupted_simulation, drive_corrupted, stabilize_run, SeedOutcome, SeedVerdict,
    StabilizeConfig, StabilizeReport,
};
