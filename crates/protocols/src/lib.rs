//! Data-link protocol implementations for the `nonfifo` reproduction of
//! Mansour & Schieber (PODC 1989).
//!
//! Every protocol is a pair of deterministic I/O automata implementing
//! [`Transmitter`] and [`Receiver`]. The workspace's channels, adversaries,
//! and simulation engine compose them into the closed system of the paper's
//! Figure 1 (`Aᵗ ∥ PLᵗ→ʳ ∥ PLʳ→ᵗ ∥ Aʳ`).
//!
//! | Protocol | Forward headers | Safe over | Per-message cost | Role |
//! |----------|-----------------|-----------|------------------|------|
//! | [`AlternatingBit`] | 2 | lossy FIFO | O(1) | classic baseline \[BSW69\]; broken on non-FIFO (E8) |
//! | [`NaiveCycle`] | k | FIFO only | O(1) | the canonical falsifier victim (E2) |
//! | [`SequenceNumber`] | n (one per message) | any PL1 channel | O(1) | the paper's "naive protocol": n headers, O(log n) space (E3) |
//! | [`SlidingWindow`] | 2·w | reorder < window | O(1) | how practice escapes the bounds (E9) |
//! | [`GoBackN`] | w+1 | FIFO (with loss) | O(1) amortised | classic cumulative-ack pipeline; reorder-fragile baseline |
//! | [`SelectiveReject`] | 2·w (+2·w NAKs backward) | FIFO (with loss) | O(1), loss-frugal | NAK-driven ARQ; most packet-efficient of the classic trio |
//! | [`Outnumber`] | L (default 5) | probabilistic, q < ½ | exponential in n | reconstruction of \[AFWZ88\] (E5) |
//! | [`AfekFlush`] | 3 | any PL1 channel (ghost-assisted) | Θ(in-transit) | reconstruction of \[Afe88\], tightness of Theorem 4.1 (E4) |
//! | [`StabilizingDl`] | n (one per round) | any PL1 channel, **from any initial state** | capacity + 1 copies | self-stabilizing counting protocol after DDPT arXiv:1011.3632 (E16) |
//!
//! ## The forward/backward asymmetry
//!
//! The paper counts headers on the transmitter-to-receiver channel: all
//! three proofs replay only forward packets, and in each simulation argument
//! the receiver re-sends its acknowledgements fresh, so the backward
//! alphabet never enters the counting. The bounded-header reconstructions
//! here therefore use *indexed* acknowledgements (unbounded backward
//! headers) without weakening any theorem — the lower bounds still bite on
//! the forward channel, which is where these protocols pay.
//!
//! ## Ghost information
//!
//! Two reconstructions ([`AfekFlush`], and [`Outnumber`] only for its
//! diagnostics) consume [`GhostInfo`], a harness-computed summary of channel
//! state (exact stale-copy counts). This substitutes for unavailable
//! mechanisms in the cited unpublished protocols while preserving their
//! packet-cost profiles; see `DESIGN.md` §2 for the substitution argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod afek;
mod alternating_bit;
mod api;
pub mod catalog;
mod go_back_n;
mod naive_cycle;
mod outnumber;
mod selective_reject;
mod sequence;
mod sliding_window;
mod stabilizing_dl;

pub use afek::{AfekFlush, AfekFlushRx, AfekFlushTx};
pub use alternating_bit::{AlternatingBit, AlternatingBitRx, AlternatingBitTx};
pub use api::{
    amnesia_reboot, BoxedReceiver, BoxedTransmitter, DataLink, GhostInfo, HeaderBound, Receiver,
    ReceiverState, Recoverable, Transmitter, TransmitterState,
};
pub use go_back_n::{GoBackN, GoBackNRx, GoBackNTx};
pub use naive_cycle::{NaiveCycle, NaiveCycleRx, NaiveCycleTx};
pub use outnumber::{Outnumber, OutnumberRx, OutnumberTx};
pub use selective_reject::{SelectiveReject, SelectiveRejectRx, SelectiveRejectTx};
pub use sequence::{SequenceNumber, SequenceNumberRx, SequenceNumberTx};
pub use sliding_window::{SlidingWindow, SlidingWindowRx, SlidingWindowTx};
pub use stabilizing_dl::{StabilizingDl, StabilizingDlRx, StabilizingDlTx, DEFAULT_CAPACITY};
