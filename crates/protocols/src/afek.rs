//! Reconstruction of the three-header protocol of [Afe88]
//! (Y. Afek, personal communication, 1988 — cited by the paper as the tight
//! upper bound for Theorem 4.1, never published).
//!
//! ## Mechanism
//!
//! Message `i` travels as label `i mod 3`. The receiver delivers the
//! expected label only once it has counted *more* copies of it than the
//! stale population of that label — the copies that were already delayed on
//! the forward channel when the current message was handed over. Any rule
//! that fires at or below the stale count is adversarially unsafe (the
//! channel can replay exactly that many stale copies), and our own
//! Theorem 4.1 falsifier demonstrates as much against
//! [`NaiveCycle`](crate::NaiveCycle); `stale + 1` is therefore the minimal
//! safe threshold, and it makes the per-message packet cost **linear in the
//! number of packets in transit** — exactly the property the paper credits
//! to [Afe88] ("In [Afe88] the dependency was improved to be linear in the
//! number of packets that are delayed on the channel at the time the
//! message is sent. Our second lower bound shows that this the best one can
//! do.").
//!
//! ## The ghost substitution
//!
//! The receiver learns the stale count from [`GhostInfo`], a
//! harness-computed oracle, because the original protocol's internal
//! mechanism is unavailable (the citation is a personal communication).
//! The substitution preserves the two properties the paper uses: the
//! three-header forward alphabet, and the Θ(in-transit) per-message cost
//! that witnesses the tightness of Theorem 4.1 (experiment E4). Safety is
//! genuine given a correct oracle: a delivery implies at least one *fresh*
//! copy arrived. The threshold snapshot is taken at the first ghost push of
//! each round and copies received before that push are not counted, so the
//! count-vs-snapshot comparison is sound even though the stale population
//! shrinks as stale copies get delivered.
//!
//! Like [`Outnumber`](crate::Outnumber), the protocol implements the
//! identical-message service and ignores payloads.

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, GhostInfo, HeaderBound, Receiver, Recoverable,
    Transmitter,
};
use crate::sequence::varint_bytes;
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::VecDeque;

/// Factory for the flush protocol (\[Afe88\] uses three labels; the label
/// count is a parameter here so experiment E4 can sweep `k` and watch the
/// cost slope track `1/k`).
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{AfekFlush, DataLink, HeaderBound};
///
/// let proto = AfekFlush::new();
/// assert_eq!(proto.forward_headers(), HeaderBound::Fixed(3));
/// assert_eq!(AfekFlush::with_labels(5).forward_headers(), HeaderBound::Fixed(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AfekFlush {
    labels: u32,
}

impl Default for AfekFlush {
    fn default() -> Self {
        AfekFlush::new()
    }
}

impl AfekFlush {
    /// Creates the classic three-label factory.
    pub fn new() -> Self {
        AfekFlush { labels: 3 }
    }

    /// Creates a factory with `labels` forward headers.
    ///
    /// # Panics
    ///
    /// Panics if `labels < 3` (two labels cannot separate three
    /// consecutive rounds).
    pub fn with_labels(labels: u32) -> Self {
        assert!(
            labels >= 3,
            "flush protocol needs at least 3 labels, got {labels}"
        );
        AfekFlush { labels }
    }

    /// Alias for [`AfekFlush::new`].
    pub fn factory() -> Self {
        AfekFlush::new()
    }

    /// The number of forward labels `k`.
    pub fn labels(&self) -> u32 {
        self.labels
    }
}

impl DataLink for AfekFlush {
    fn name(&self) -> String {
        format!("afek-flush({})", self.labels)
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::Fixed(self.labels)
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(AfekFlushTx::new(self.labels)),
            Box::new(AfekFlushRx::new(self.labels)),
        )
    }

    fn uses_ghosts(&self) -> bool {
        true
    }
}

/// Transmitter automaton of the flush protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct AfekFlushTx {
    labels: u64,
    /// Index of the current (or next) message, 0-based.
    idx: u64,
    pending: bool,
    outbox: VecDeque<Packet>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for AfekFlushTx {
    fn clone(&self) -> Self {
        AfekFlushTx {
            labels: self.labels,
            idx: self.idx,
            pending: self.pending,
            outbox: self.outbox.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.labels.clone_from(&source.labels);
        self.idx.clone_from(&source.idx);
        self.pending.clone_from(&source.pending);
        self.outbox.clone_from(&source.outbox);
    }
}

impl AfekFlushTx {
    /// Creates the automaton with `labels` forward headers.
    pub fn new(labels: u32) -> Self {
        AfekFlushTx {
            labels: u64::from(labels),
            idx: 0,
            pending: false,
            outbox: VecDeque::new(),
        }
    }

    fn enqueue_data(&mut self) {
        let pkt = Packet::header_only(Header::new((self.idx % self.labels) as u32));
        self.outbox.push_back(pkt);
    }
}

impl Recoverable for AfekFlushTx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, Self::new(self.labels as u32));
    }
}

impl Transmitter for AfekFlushTx {
    fn on_send_msg(&mut self, _payload: Option<Payload>) {
        debug_assert!(!self.pending, "send_msg while not ready");
        self.pending = true;
        self.enqueue_data();
    }

    fn on_receive_pkt(&mut self, p: Packet) {
        if self.pending && u64::from(p.header().index()) == self.idx {
            self.pending = false;
            self.idx += 1;
        }
    }

    fn on_tick(&mut self) {
        if self.pending && self.outbox.is_empty() {
            self.enqueue_data();
        }
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn ready(&self) -> bool {
        !self.pending
    }

    fn space_bytes(&self) -> usize {
        varint_bytes(self.idx) + 1 + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

/// Receiver automaton of the flush protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct AfekFlushRx {
    labels: u64,
    /// Next undelivered message index, 0-based.
    next: u64,
    /// Copies of the expected label counted this round (only after the
    /// round's stale snapshot was taken).
    counted: u64,
    /// Stale population of the expected label, snapshotted at the first
    /// ghost push of the round; `None` until that push arrives.
    stale_snapshot: Option<u64>,
    outbox: VecDeque<Packet>,
    deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for AfekFlushRx {
    fn clone(&self) -> Self {
        AfekFlushRx {
            labels: self.labels,
            next: self.next,
            counted: self.counted,
            stale_snapshot: self.stale_snapshot,
            outbox: self.outbox.clone(),
            deliveries: self.deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.labels.clone_from(&source.labels);
        self.next.clone_from(&source.next);
        self.counted.clone_from(&source.counted);
        self.stale_snapshot.clone_from(&source.stale_snapshot);
        self.outbox.clone_from(&source.outbox);
        self.deliveries.clone_from(&source.deliveries);
    }
}

impl AfekFlushRx {
    /// Creates the automaton with `labels` forward headers.
    pub fn new(labels: u32) -> Self {
        AfekFlushRx {
            labels: u64::from(labels),
            next: 0,
            counted: 0,
            stale_snapshot: None,
            outbox: VecDeque::new(),
            deliveries: VecDeque::new(),
        }
    }

    /// The stale snapshot currently gating delivery, if taken.
    pub fn stale_snapshot(&self) -> Option<u64> {
        self.stale_snapshot
    }

    fn expected_header(&self) -> Header {
        Header::new((self.next % self.labels) as u32)
    }

    fn ack(&mut self, index: u64) {
        self.outbox
            .push_back(Packet::header_only(Header::new(index as u32)));
    }
}

impl Recoverable for AfekFlushRx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, Self::new(self.labels as u32));
    }
}

impl Receiver for AfekFlushRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        let expected = self.expected_header();
        if p.header() == expected {
            if let Some(stale) = self.stale_snapshot {
                self.counted += 1;
                if self.counted > stale {
                    self.deliveries.push_back(None);
                    self.next += 1;
                    self.counted = 0;
                    self.stale_snapshot = None;
                    self.ack(self.next - 1);
                }
            }
            // Copies before the round's first ghost push are not counted:
            // the snapshot comparison would be unsound (see module docs).
        } else if self.next > 0 && u64::from(p.header().index()) == (self.next - 1) % self.labels {
            // Duplicate of the delivered message's label — re-ack.
            self.ack(self.next - 1);
        }
    }

    fn on_ghost(&mut self, ghost: &GhostInfo) {
        let stale = ghost.stale_fwd(self.expected_header());
        // First push of the round takes the snapshot; within a round the
        // stale population only shrinks, so keeping the max is exact.
        self.stale_snapshot = Some(self.stale_snapshot.map_or(stale, |s| s.max(stale)));
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn poll_deliver(&mut self) -> Option<Option<Payload>> {
        self.deliveries.pop_front()
    }

    fn space_bytes(&self) -> usize {
        varint_bytes(self.next)
            + varint_bytes(self.counted)
            + varint_bytes(self.stale_snapshot.unwrap_or(0))
            + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghost_with(h: Header, stale: u64) -> GhostInfo {
        let mut g = GhostInfo::default();
        g.push_stale(h, stale);
        g
    }

    #[test]
    fn no_delivery_before_first_ghost_push() {
        let mut rx = AfekFlushRx::new(3);
        rx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert!(rx.poll_deliver().is_none());
        rx.on_ghost(&GhostInfo::default());
        rx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert!(rx.poll_deliver().is_some());
    }

    #[test]
    fn needs_stale_plus_one_copies() {
        let mut rx = AfekFlushRx::new(3);
        rx.on_ghost(&ghost_with(Header::new(0), 3));
        for _ in 0..3 {
            rx.on_receive_pkt(Packet::header_only(Header::new(0)));
            assert!(rx.poll_deliver().is_none(), "fired at or below stale");
        }
        rx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert_eq!(rx.poll_deliver(), Some(None), "stale+1 copies deliver");
        // Ack carries the message index.
        assert_eq!(rx.poll_send().unwrap().header().index(), 0);
    }

    #[test]
    fn snapshot_resets_per_round() {
        let mut rx = AfekFlushRx::new(3);
        rx.on_ghost(&ghost_with(Header::new(0), 0));
        rx.on_receive_pkt(Packet::header_only(Header::new(0)));
        rx.poll_deliver().unwrap();
        assert_eq!(rx.stale_snapshot(), None);
        // New round: expected label is 1; copies of 1 before the ghost push
        // are not counted.
        rx.on_receive_pkt(Packet::header_only(Header::new(1)));
        rx.on_ghost(&ghost_with(Header::new(1), 0));
        assert!(rx.poll_deliver().is_none());
        rx.on_receive_pkt(Packet::header_only(Header::new(1)));
        assert!(rx.poll_deliver().is_some());
    }

    #[test]
    fn end_to_end_with_manual_ghosts() {
        let (mut tx, mut rx) = AfekFlush::new().make();
        for i in 0..6u64 {
            tx.on_send_msg(None);
            rx.on_ghost(&GhostInfo::default()); // no stale copies
            let mut steps = 0;
            while !tx.ready() {
                while let Some(d) = tx.poll_send() {
                    rx.on_receive_pkt(d);
                }
                while let Some(a) = rx.poll_send() {
                    tx.on_receive_pkt(a);
                }
                tx.on_tick();
                steps += 1;
                assert!(steps < 10, "clean channel should deliver fast");
            }
            assert_eq!(rx.poll_deliver(), Some(None), "message {i}");
        }
    }

    #[test]
    fn cost_is_linear_in_stale_count() {
        for stale in [0u64, 5, 20, 100] {
            let (mut tx, mut rx) = AfekFlush::new().make();
            tx.on_send_msg(None);
            rx.on_ghost(&ghost_with(Header::new(0), stale));
            let mut copies = 0u64;
            while !tx.ready() {
                while let Some(d) = tx.poll_send() {
                    copies += 1;
                    rx.on_receive_pkt(d);
                }
                while let Some(a) = rx.poll_send() {
                    tx.on_receive_pkt(a);
                }
                tx.on_tick();
            }
            assert_eq!(copies, stale + 1, "cost should be exactly stale+1");
        }
    }

    #[test]
    fn wrong_label_does_not_count() {
        let mut rx = AfekFlushRx::new(3);
        rx.on_ghost(&ghost_with(Header::new(0), 0));
        rx.on_receive_pkt(Packet::header_only(Header::new(2)));
        assert!(rx.poll_deliver().is_none());
    }
}
