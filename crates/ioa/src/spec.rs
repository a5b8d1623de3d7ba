//! Checkers for the physical-layer and data-link-layer specifications of
//! §2.1–§2.2 of the paper, plus validity and semi-validity (Definitions 3–4).
//!
//! - **PL1** (physical safety): every `receive_pkt` corresponds to a unique
//!   preceding `send_pkt`; no copy is delivered twice, delivered unsent, or
//!   delivered after being dropped.
//! - **PL2** (physical liveness) only constrains infinite executions; for
//!   finite traces we expose [`max_send_burst_without_receive`], the longest
//!   run of sends with no delivery, which experiments bound.
//! - **DL1** (data-link safety): a correspondence matches every
//!   `receive_msg` to a unique preceding `send_msg`.
//! - **DL2** (FIFO): the correspondence is order-preserving.
//! - **DL3** (liveness): finite surrogate — a *quiescent* execution has
//!   delivered every sent message ([`check_dl3_quiescent`]).
//!
//! The invalid executions constructed by Theorems 3.1 and 4.1 have
//! `rm(α) = sm(α) + 1`; [`check_dl1`] rejects exactly those.

use crate::event::Event;
use crate::execution::Execution;
use crate::message::Message;
use crate::packet::{CopyId, Dir, Packet};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A violation of one of the layer specifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecViolation {
    /// PL1(1): a copy was delivered that was never sent.
    UnsentDelivery {
        /// Channel direction.
        dir: Dir,
        /// The offending copy.
        copy: CopyId,
    },
    /// PL1(2): a copy was delivered twice.
    DuplicateDelivery {
        /// Channel direction.
        dir: Dir,
        /// The offending copy.
        copy: CopyId,
    },
    /// PL1: a copy was delivered after the channel dropped it.
    DeliveredAfterDrop {
        /// Channel direction.
        dir: Dir,
        /// The offending copy.
        copy: CopyId,
    },
    /// PL1(1): a delivered copy's packet value differs from the sent value
    /// (the physical layer must not corrupt packets).
    CorruptedDelivery {
        /// Channel direction.
        dir: Dir,
        /// The offending copy.
        copy: CopyId,
    },
    /// DL1: a `receive_msg` has no corresponding unmatched preceding
    /// `send_msg` — the receiver invented or duplicated a message.
    MessageInvented {
        /// Index of the offending `receive_msg` event.
        event_index: usize,
    },
    /// DL2: no order-preserving correspondence exists — messages were
    /// reordered.
    MessageReordered {
        /// Index of the offending `receive_msg` event.
        event_index: usize,
    },
    /// DL3 (finite surrogate): a quiescent execution left messages
    /// undelivered.
    MessagesUndelivered {
        /// `sm(α) − rm(α)` at the end of the execution.
        outstanding: u64,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SpecViolation::UnsentDelivery { dir, copy } => {
                write!(
                    f,
                    "PL1 violated on {dir}: copy {copy} delivered but never sent"
                )
            }
            SpecViolation::DuplicateDelivery { dir, copy } => {
                write!(f, "PL1 violated on {dir}: copy {copy} delivered twice")
            }
            SpecViolation::DeliveredAfterDrop { dir, copy } => {
                write!(
                    f,
                    "PL1 violated on {dir}: copy {copy} delivered after being dropped"
                )
            }
            SpecViolation::CorruptedDelivery { dir, copy } => {
                write!(
                    f,
                    "PL1 violated on {dir}: copy {copy} delivered with a corrupted value"
                )
            }
            SpecViolation::MessageInvented { event_index } => write!(
                f,
                "DL1 violated: receive_msg at event {event_index} has no corresponding send_msg"
            ),
            SpecViolation::MessageReordered { event_index } => write!(
                f,
                "DL2 violated: receive_msg at event {event_index} breaks FIFO order"
            ),
            SpecViolation::MessagesUndelivered { outstanding } => write!(
                f,
                "DL3 violated: execution quiesced with {outstanding} undelivered message(s)"
            ),
        }
    }
}

impl Error for SpecViolation {}

/// Checks PL1 on channel `dir`: deliveries correspond one-to-one to
/// preceding sends of uncorrupted copies, and dropped copies stay dropped.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] encountered, in event order.
pub fn check_pl1(exec: &Execution, dir: Dir) -> Result<(), SpecViolation> {
    #[derive(Clone, Copy, PartialEq)]
    enum CopyState {
        Sent(Packet),
        Delivered,
        Dropped,
    }
    let mut copies: HashMap<CopyId, CopyState> = HashMap::new();
    for event in exec.iter() {
        match *event {
            Event::SendPkt {
                dir: d,
                packet,
                copy,
            } if d == dir => {
                copies.insert(copy, CopyState::Sent(packet));
            }
            Event::ReceivePkt {
                dir: d,
                packet,
                copy,
            } if d == dir => match copies.get(&copy) {
                None => return Err(SpecViolation::UnsentDelivery { dir, copy }),
                Some(CopyState::Delivered) => {
                    return Err(SpecViolation::DuplicateDelivery { dir, copy })
                }
                Some(CopyState::Dropped) => {
                    return Err(SpecViolation::DeliveredAfterDrop { dir, copy })
                }
                Some(CopyState::Sent(sent)) => {
                    if *sent != packet {
                        return Err(SpecViolation::CorruptedDelivery { dir, copy });
                    }
                    copies.insert(copy, CopyState::Delivered);
                }
            },
            Event::DropPkt { dir: d, copy, .. } if d == dir => {
                copies.insert(copy, CopyState::Dropped);
            }
            _ => {}
        }
    }
    Ok(())
}

/// The longest run of `send_pkt` actions on `dir` with no intervening
/// `receive_pkt` on `dir` — a finite surrogate for the PL2 liveness
/// property ("infinitely many sends force a receive").
pub fn max_send_burst_without_receive(exec: &Execution, dir: Dir) -> u64 {
    let mut best = 0u64;
    let mut run = 0u64;
    for event in exec.iter() {
        match *event {
            Event::SendPkt { dir: d, .. } if d == dir => {
                run += 1;
                best = best.max(run);
            }
            Event::ReceivePkt { dir: d, .. } if d == dir => run = 0,
            _ => {}
        }
    }
    best
}

/// An explicit DL1/DL2 correspondence: pairs of
/// `(send_msg event index, receive_msg event index)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Correspondence {
    pairs: Vec<(usize, usize)>,
}

impl Correspondence {
    /// The matched `(send_index, receive_index)` pairs, in receive order.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }
}

fn matchable(send: &Message, recv: &Message) -> bool {
    // Ghost ids are stamped by the harness (sends and deliveries each
    // numbered in order), so they carry no evidence about which send a
    // delivery answers: only payloads must agree.
    send.payload() == recv.payload()
}

/// Checks DL1 alone: every `receive_msg` can be matched to a unique
/// preceding `send_msg` with equal payload.
///
/// # Errors
///
/// Returns [`SpecViolation::MessageInvented`] at the first unmatchable
/// `receive_msg`.
pub fn check_dl1(exec: &Execution) -> Result<Correspondence, SpecViolation> {
    greedy_match(exec, false)
}

/// Checks DL1 **and** DL2: an order-preserving correspondence exists.
///
/// Greedily matching each delivery to the earliest unmatched send *after the
/// previously matched send* succeeds if and only if some order-preserving
/// matching exists, so this check is exact.
///
/// # Errors
///
/// Returns [`SpecViolation::MessageInvented`] if DL1 already fails, or
/// [`SpecViolation::MessageReordered`] if only the FIFO requirement fails.
pub fn check_dl1_dl2(exec: &Execution) -> Result<Correspondence, SpecViolation> {
    greedy_match(exec, true)
}

fn greedy_match(exec: &Execution, fifo: bool) -> Result<Correspondence, SpecViolation> {
    struct PendingSend {
        event_index: usize,
        message: Message,
        matched: bool,
    }
    let mut sends: Vec<PendingSend> = Vec::new();
    let mut pairs = Vec::new();
    let mut frontier = 0usize; // index into `sends`: first candidate when fifo
    for (i, event) in exec.iter().enumerate() {
        match *event {
            Event::SendMsg(m) => sends.push(PendingSend {
                event_index: i,
                message: m,
                matched: false,
            }),
            Event::ReceiveMsg(m) => {
                let start = if fifo { frontier } else { 0 };
                let found = sends[start..]
                    .iter()
                    .position(|s| !s.matched && matchable(&s.message, &m))
                    .map(|off| start + off);
                match found {
                    Some(j) => {
                        sends[j].matched = true;
                        pairs.push((sends[j].event_index, i));
                        if fifo {
                            frontier = j + 1;
                        }
                    }
                    None => {
                        // Distinguish "no send at all" (DL1) from "a send
                        // exists but only before the FIFO frontier" (DL2).
                        let dl1_possible = fifo
                            && sends[..frontier]
                                .iter()
                                .any(|s| !s.matched && matchable(&s.message, &m));
                        return Err(if dl1_possible {
                            SpecViolation::MessageReordered { event_index: i }
                        } else {
                            SpecViolation::MessageInvented { event_index: i }
                        });
                    }
                }
            }
            _ => {}
        }
    }
    Ok(Correspondence { pairs })
}

/// Checks the finite surrogate of DL3: at quiescence every sent message has
/// been delivered (`rm(α) = sm(α)`).
///
/// # Errors
///
/// Returns [`SpecViolation::MessagesUndelivered`] with the number of
/// outstanding messages.
pub fn check_dl3_quiescent(exec: &Execution) -> Result<(), SpecViolation> {
    let c = exec.counts();
    if c.rm < c.sm {
        Err(SpecViolation::MessagesUndelivered {
            outstanding: c.sm - c.rm,
        })
    } else {
        Ok(())
    }
}

/// Classification of an execution per Definitions 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity {
    /// Definition 3: satisfies DL1, DL2 and (finite surrogate of) DL3.
    Valid,
    /// Definition 4: `α = α₁ α₂` with `α₁` valid and `sm(α₂) = 1` — the
    /// final message may still be in flight.
    SemiValid,
    /// Neither: carries the earliest detected violation.
    Invalid(SpecViolation),
}

impl Validity {
    /// Classifies `exec`.
    pub fn classify(exec: &Execution) -> Validity {
        let violation = match check_dl1_dl2(exec) {
            Ok(_) => match check_dl3_quiescent(exec) {
                Ok(()) => return Validity::Valid,
                Err(v) => v,
            },
            Err(v) => v,
        };
        // Semi-validity: safety holds, exactly one message outstanding, and
        // the prefix before the last send_msg is fully delivered.
        if check_dl1_dl2(exec).is_ok() {
            let c = exec.counts();
            if c.sm == c.rm + 1 {
                if let Some(i) = exec.last_send_msg_index() {
                    let prefix = exec.prefix(i);
                    let pc = prefix.counts();
                    if pc.sm == pc.rm && check_dl1_dl2(&prefix).is_ok() {
                        return Validity::SemiValid;
                    }
                }
            }
        }
        Validity::Invalid(violation)
    }

    /// True for [`Validity::Valid`].
    pub fn is_valid(self) -> bool {
        matches!(self, Validity::Valid)
    }

    /// True for [`Validity::Valid`] or [`Validity::SemiValid`].
    pub fn is_semi_valid(self) -> bool {
        matches!(self, Validity::Valid | Validity::SemiValid)
    }
}

impl fmt::Display for Validity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Validity::Valid => write!(f, "valid"),
            Validity::SemiValid => write!(f, "semi-valid"),
            Validity::Invalid(v) => write!(f, "invalid: {v}"),
        }
    }
}

/// Convenience: payload-aware equality used by the matcher, exposed for
/// tests and downstream checkers.
pub fn messages_correspond(send: &Message, recv: &Message) -> bool {
    matchable(send, recv)
}

/// Verdict of a [`ConvergenceSpec`] check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Convergence {
    /// A legal suffix exists: every event from `stabilized_at` onward
    /// satisfies DL1/DL2 (and quiescence, if required) on its own.
    Converged {
        /// Event index where the legal suffix starts (0 = the whole
        /// execution is legal, i.e. the start state was effectively clean).
        stabilized_at: usize,
    },
    /// No cut within the bound yields a legal suffix.
    Diverged {
        /// The violation at the last (deepest) cut tried — the best the
        /// execution managed.
        last_violation: SpecViolation,
    },
}

impl Convergence {
    /// True for [`Convergence::Converged`].
    pub fn is_converged(self) -> bool {
        matches!(self, Convergence::Converged { .. })
    }
}

impl fmt::Display for Convergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Convergence::Converged { stabilized_at } => {
                write!(f, "converged (legal suffix from event {stabilized_at})")
            }
            Convergence::Diverged { last_violation } => {
                write!(f, "diverged ({last_violation})")
            }
        }
    }
}

/// The self-stabilization acceptance condition: an execution is accepted if
/// it has a suffix — starting within a bounded prefix — that is legal on its
/// own, regardless of how illegal the prefix was.
///
/// This is the finite-trace form of the stabilizing data-link specification
/// of Dolev–Dubois–Potop-Butucaru–Tixeuil (arXiv:1011.3632): started from an
/// *arbitrary* automaton/channel configuration, the protocol must reach, and
/// thereafter remain in, legal behavior. In contrast the clean-start
/// checkers ([`check_dl1_dl2`], [`Validity::classify`]) reject the whole
/// execution on the first violation, wherever it occurs.
///
/// A suffix is legal when [`check_dl1_dl2`] accepts it (every delivery in
/// the suffix matches a send *in the suffix*, order-preserved) and — when
/// [`require_quiescence`](ConvergenceSpec::require_quiescence) is set —
/// every suffix send was delivered ([`check_dl3_quiescent`]).
///
/// Legality of a suffix is **not** monotone in the cut point (moving the cut
/// past a `send_msg` strands its delivery in the suffix), so the checker
/// scans candidate cuts: index 0 and the position just after every
/// `send_msg`/`receive_msg` event. DL1/DL2/DL3 only inspect message events,
/// so cutting anywhere else is equivalent to cutting at the previous
/// candidate — the scan is exact and costs O(#messages) suffix checks.
///
/// # Example
///
/// ```
/// use nonfifo_ioa::{spec::ConvergenceSpec, Event, Execution, Message};
///
/// // A corrupted start delivers a phantom, then behaves.
/// let exec: Execution = vec![
///     Event::ReceiveMsg(Message::identical(99)), // phantom from corruption
///     Event::SendMsg(Message::identical(0)),
///     Event::ReceiveMsg(Message::identical(0)),
/// ]
/// .into_iter()
/// .collect();
/// assert!(nonfifo_ioa::spec::check_dl1(&exec).is_err()); // clean-start: rejected
/// let verdict = ConvergenceSpec::new(8).check(&exec);
/// assert!(verdict.is_converged()); // stabilization: accepted (suffix from 1)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceSpec {
    max_prefix_events: usize,
    require_quiescence: bool,
}

impl ConvergenceSpec {
    /// Creates a spec that accepts executions with a legal suffix starting
    /// at or before event index `max_prefix_events`.
    pub fn new(max_prefix_events: usize) -> Self {
        ConvergenceSpec {
            max_prefix_events,
            require_quiescence: true,
        }
    }

    /// Sets whether the legal suffix must also be quiescent (every suffix
    /// `send_msg` delivered). Defaults to true: a protocol that stops
    /// delivering has not stabilized, it has died.
    #[must_use]
    pub fn require_quiescence(mut self, yes: bool) -> Self {
        self.require_quiescence = yes;
        self
    }

    /// The bound on where the legal suffix may start.
    pub fn max_prefix_events(&self) -> usize {
        self.max_prefix_events
    }

    fn suffix_legal(&self, suffix: &Execution) -> Result<(), SpecViolation> {
        check_dl1_dl2(suffix)?;
        if self.require_quiescence {
            check_dl3_quiescent(suffix)?;
        }
        Ok(())
    }

    /// Checks `exec` against the convergence condition, returning the
    /// earliest cut that yields a legal suffix.
    pub fn check(&self, exec: &Execution) -> Convergence {
        let bound = self.max_prefix_events.min(exec.len());
        let mut last = None;
        let mut try_cut = |cut: usize| -> Option<Convergence> {
            let suffix: Execution = exec.iter().skip(cut).copied().collect();
            match self.suffix_legal(&suffix) {
                Ok(()) => Some(Convergence::Converged { stabilized_at: cut }),
                Err(v) => {
                    last = Some(v);
                    None
                }
            }
        };
        if let Some(done) = try_cut(0) {
            return done;
        }
        for (i, event) in exec.iter().enumerate() {
            if i + 1 > bound {
                break;
            }
            if matches!(event, Event::SendMsg(_) | Event::ReceiveMsg(_)) {
                if let Some(done) = try_cut(i + 1) {
                    return done;
                }
            }
        }
        Convergence::Diverged {
            // At least the cut at 0 ran, so a violation was recorded.
            last_violation: last.expect("diverged with no cut tried"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Header, Payload};

    fn send_pkt(c: u64) -> Event {
        Event::SendPkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(c),
        }
    }

    fn recv_pkt(c: u64) -> Event {
        Event::ReceivePkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(c),
        }
    }

    #[test]
    fn pl1_accepts_matched_traffic() {
        let exec: Execution = vec![send_pkt(1), send_pkt(2), recv_pkt(2), recv_pkt(1)]
            .into_iter()
            .collect();
        assert_eq!(check_pl1(&exec, Dir::Forward), Ok(()));
    }

    #[test]
    fn pl1_rejects_duplicate_delivery() {
        let exec: Execution = vec![send_pkt(1), recv_pkt(1), recv_pkt(1)]
            .into_iter()
            .collect();
        assert_eq!(
            check_pl1(&exec, Dir::Forward),
            Err(SpecViolation::DuplicateDelivery {
                dir: Dir::Forward,
                copy: CopyId::from_raw(1)
            })
        );
    }

    #[test]
    fn pl1_rejects_unsent_delivery() {
        let exec: Execution = vec![recv_pkt(9)].into_iter().collect();
        assert!(matches!(
            check_pl1(&exec, Dir::Forward),
            Err(SpecViolation::UnsentDelivery { .. })
        ));
    }

    #[test]
    fn pl1_rejects_delivery_after_drop() {
        let exec: Execution = vec![
            send_pkt(1),
            Event::DropPkt {
                dir: Dir::Forward,
                packet: Packet::header_only(Header::new(0)),
                copy: CopyId::from_raw(1),
            },
            recv_pkt(1),
        ]
        .into_iter()
        .collect();
        assert!(matches!(
            check_pl1(&exec, Dir::Forward),
            Err(SpecViolation::DeliveredAfterDrop { .. })
        ));
    }

    #[test]
    fn pl1_rejects_corruption() {
        let exec: Execution = vec![
            send_pkt(1),
            Event::ReceivePkt {
                dir: Dir::Forward,
                packet: Packet::header_only(Header::new(5)),
                copy: CopyId::from_raw(1),
            },
        ]
        .into_iter()
        .collect();
        assert!(matches!(
            check_pl1(&exec, Dir::Forward),
            Err(SpecViolation::CorruptedDelivery { .. })
        ));
    }

    #[test]
    fn pl1_is_per_direction() {
        let exec: Execution = vec![recv_pkt(9)].into_iter().collect();
        assert_eq!(check_pl1(&exec, Dir::Backward), Ok(()));
    }

    #[test]
    fn burst_measure() {
        let exec: Execution = vec![send_pkt(1), send_pkt(2), recv_pkt(1), send_pkt(3)]
            .into_iter()
            .collect();
        assert_eq!(max_send_burst_without_receive(&exec, Dir::Forward), 2);
        assert_eq!(max_send_burst_without_receive(&exec, Dir::Backward), 0);
    }

    #[test]
    fn dl1_accepts_identical_message_delivery() {
        let exec: Execution = vec![
            Event::SendMsg(Message::identical(0)),
            Event::SendMsg(Message::identical(1)),
            Event::ReceiveMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(1)),
        ]
        .into_iter()
        .collect();
        let m = check_dl1_dl2(&exec).expect("valid");
        assert_eq!(m.pairs(), &[(0, 2), (1, 3)]);
    }

    #[test]
    fn dl1_rejects_the_papers_invalid_execution() {
        // rm(α) = sm(α) + 1: the shape every theorem constructs.
        let exec: Execution = vec![
            Event::SendMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            check_dl1(&exec),
            Err(SpecViolation::MessageInvented { event_index: 2 })
        );
    }

    #[test]
    fn dl1_rejects_delivery_before_send() {
        let exec: Execution = vec![
            Event::ReceiveMsg(Message::identical(0)),
            Event::SendMsg(Message::identical(0)),
        ]
        .into_iter()
        .collect();
        assert!(check_dl1(&exec).is_err());
    }

    #[test]
    fn dl2_rejects_payload_reordering() {
        let exec: Execution = vec![
            Event::SendMsg(Message::with_payload(0, Payload::new(10))),
            Event::SendMsg(Message::with_payload(1, Payload::new(20))),
            Event::ReceiveMsg(Message::with_payload(1, Payload::new(20))),
            Event::ReceiveMsg(Message::with_payload(0, Payload::new(10))),
        ]
        .into_iter()
        .collect();
        // DL1 alone is satisfiable…
        assert!(check_dl1(&exec).is_ok());
        // …but no order-preserving matching exists.
        assert_eq!(
            check_dl1_dl2(&exec),
            Err(SpecViolation::MessageReordered { event_index: 3 })
        );
    }

    #[test]
    fn dl3_quiescent() {
        let exec: Execution = vec![Event::SendMsg(Message::identical(0))]
            .into_iter()
            .collect();
        assert_eq!(
            check_dl3_quiescent(&exec),
            Err(SpecViolation::MessagesUndelivered { outstanding: 1 })
        );
    }

    #[test]
    fn classify_valid() {
        let exec: Execution = vec![
            Event::SendMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(Validity::classify(&exec), Validity::Valid);
        assert!(Validity::classify(&exec).is_semi_valid());
    }

    #[test]
    fn classify_semi_valid() {
        let exec: Execution = vec![
            Event::SendMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(0)),
            Event::SendMsg(Message::identical(1)),
            send_pkt(1),
        ]
        .into_iter()
        .collect();
        assert_eq!(Validity::classify(&exec), Validity::SemiValid);
        assert!(!Validity::classify(&exec).is_valid());
    }

    #[test]
    fn classify_two_outstanding_is_invalid() {
        let exec: Execution = vec![
            Event::SendMsg(Message::identical(0)),
            Event::SendMsg(Message::identical(1)),
        ]
        .into_iter()
        .collect();
        assert!(matches!(Validity::classify(&exec), Validity::Invalid(_)));
    }

    #[test]
    fn classify_invalid_overdelivery() {
        let exec: Execution = vec![
            Event::SendMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            Validity::classify(&exec),
            Validity::Invalid(SpecViolation::MessageInvented { event_index: 2 })
        );
    }

    #[test]
    fn empty_execution_is_valid() {
        assert_eq!(Validity::classify(&Execution::new()), Validity::Valid);
    }

    #[test]
    fn violation_display_nonempty() {
        let v = SpecViolation::MessageInvented { event_index: 3 };
        assert!(v.to_string().contains("DL1"));
    }

    #[test]
    fn convergence_accepts_clean_execution_at_cut_zero() {
        let exec: Execution = vec![
            Event::SendMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            ConvergenceSpec::new(16).check(&exec),
            Convergence::Converged { stabilized_at: 0 }
        );
    }

    #[test]
    fn convergence_forgives_a_poisoned_prefix() {
        // Two phantoms from a corrupted start, then two legal rounds.
        let exec: Execution = vec![
            Event::ReceiveMsg(Message::identical(90)),
            Event::ReceiveMsg(Message::identical(91)),
            Event::SendMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(0)),
            Event::SendMsg(Message::identical(1)),
            Event::ReceiveMsg(Message::identical(1)),
        ]
        .into_iter()
        .collect();
        assert!(check_dl1(&exec).is_err());
        assert_eq!(
            ConvergenceSpec::new(16).check(&exec),
            Convergence::Converged { stabilized_at: 2 }
        );
    }

    #[test]
    fn convergence_rejects_violations_past_the_bound() {
        // The phantom lands at event 4; a bound of 2 cannot cut past it.
        let exec: Execution = vec![
            Event::SendMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(0)),
            Event::SendMsg(Message::identical(1)),
            Event::ReceiveMsg(Message::identical(1)),
            Event::ReceiveMsg(Message::identical(2)), // phantom, late
        ]
        .into_iter()
        .collect();
        let verdict = ConvergenceSpec::new(2).check(&exec);
        assert!(!verdict.is_converged(), "{verdict}");
        // A generous bound forgives it (empty-ish suffix after the phantom).
        assert!(ConvergenceSpec::new(16).check(&exec).is_converged());
    }

    #[test]
    fn convergence_quiescence_rejects_a_protocol_that_stalls() {
        // Phantom prefix, then a send that is never delivered. With the
        // bound at 1 the cut cannot amputate the send, so the only
        // DL1/DL2-legal suffix leaves it outstanding: quiescence rejects.
        let exec: Execution = vec![
            Event::ReceiveMsg(Message::identical(90)),
            Event::SendMsg(Message::identical(0)),
        ]
        .into_iter()
        .collect();
        let strict = ConvergenceSpec::new(1);
        assert!(!strict.check(&exec).is_converged());
        let lax = strict.require_quiescence(false);
        assert_eq!(
            lax.check(&exec),
            Convergence::Converged { stabilized_at: 1 }
        );
        // A bound past the send treats the lost send as part of the
        // transient (stabilizing protocols may lose O(1) messages while
        // converging) and accepts with an empty suffix.
        assert!(ConvergenceSpec::new(16).check(&exec).is_converged());
    }

    #[test]
    fn convergence_cut_is_earliest() {
        // Legal from the very first event after one phantom; later cuts
        // also work but the checker reports the earliest.
        let exec: Execution = vec![
            Event::ReceiveMsg(Message::identical(90)),
            Event::SendMsg(Message::identical(0)),
            Event::ReceiveMsg(Message::identical(0)),
            Event::SendMsg(Message::identical(1)),
            Event::ReceiveMsg(Message::identical(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            ConvergenceSpec::new(16).check(&exec),
            Convergence::Converged { stabilized_at: 1 }
        );
    }

    #[test]
    fn convergence_empty_execution_converges_trivially() {
        assert_eq!(
            ConvergenceSpec::new(0).check(&Execution::new()),
            Convergence::Converged { stabilized_at: 0 }
        );
    }

    #[test]
    fn convergence_display() {
        let c = Convergence::Converged { stabilized_at: 3 };
        assert!(c.to_string().contains("event 3"));
        let d = Convergence::Diverged {
            last_violation: SpecViolation::MessageInvented { event_index: 1 },
        };
        assert!(d.to_string().contains("diverged"));
    }
}
