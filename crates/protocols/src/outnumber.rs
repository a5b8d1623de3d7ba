//! Reconstruction of the bounded-header protocol of [AFWZ88]
//! (*Reliable communication using unreliable channels*, manuscript, 1988 —
//! cited by the paper but never published in this form).
//!
//! ## Mechanism
//!
//! Message `i` travels as label `i mod L` (so `L` forward headers, default
//! 5, matching the five-packet construction later published by the same
//! line of work). The receiver refuses to believe a new message until the
//! new label has *outnumbered* everything it had ever received before:
//! it delivers message `i` only after receiving more copies of label
//! `i mod L` (since its last delivery) than its entire receipt count prior
//! to that delivery. Acknowledgements carry the message index (unbounded
//! backward headers — see the crate docs for why this does not weaken any
//! theorem).
//!
//! ## Properties
//!
//! - **Cost**: per-message receipts must exceed all prior receipts, so the
//!   packet count at least doubles per message — "even in the best case it
//!   is exponential in the number of messages delivered", exactly the
//!   behaviour the paper attributes to [AFWZ88] (§1), and an upper witness
//!   for Theorem 5.1's `(1+q−εₙ)^Ω(n)` lower bound (experiment E5).
//! - **Safety domain**: over any channel whose stale-copy population stays
//!   below the receiver's historical receipt count — in particular over
//!   [`ProbabilisticChannel`](../nonfifo_channel/struct.ProbabilisticChannel.html)
//!   with `q < ½`, where delayed copies number about `q/(1−q)` of receipts.
//!   It is **not** safe against the unbounded adversary (no bounded-header
//!   protocol with this simple structure is; the falsifier will find the
//!   violating execution). Every experiment runs under a
//!   [`SpecMonitor`](../nonfifo_ioa/struct.SpecMonitor.html), so a safety
//!   escape would abort the run rather than corrupt a measurement.
//!
//! The protocol ignores payloads: like the paper's model it implements the
//! identical-message service (a stale copy is indistinguishable from a
//! fresh one, so payloads could not be trusted anyway).

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, HeaderBound, Receiver, Recoverable, Transmitter,
};
use crate::sequence::varint_bytes;
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::VecDeque;

/// Factory for the outnumber protocol.
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{DataLink, HeaderBound, Outnumber};
///
/// let proto = Outnumber::new(5);
/// assert_eq!(proto.forward_headers(), HeaderBound::Fixed(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outnumber {
    labels: u32,
}

impl Outnumber {
    /// Creates a factory with `labels` forward headers.
    ///
    /// # Panics
    ///
    /// Panics if `labels < 3` (two labels cannot separate three consecutive
    /// rounds).
    pub fn new(labels: u32) -> Self {
        assert!(
            labels >= 3,
            "outnumber needs at least 3 labels, got {labels}"
        );
        Outnumber { labels }
    }

    /// The default five-label instance.
    pub fn factory() -> Self {
        Outnumber::new(5)
    }

    /// The number of forward labels `L`.
    pub fn labels(&self) -> u32 {
        self.labels
    }
}

impl DataLink for Outnumber {
    fn name(&self) -> String {
        format!("outnumber(L={})", self.labels)
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::Fixed(self.labels)
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(OutnumberTx::new(self.labels)),
            Box::new(OutnumberRx::new(self.labels)),
        )
    }
}

/// Transmitter automaton of the outnumber protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct OutnumberTx {
    labels: u64,
    /// Index of the current (or next) message, 0-based.
    idx: u64,
    pending: bool,
    total_sent: u64,
    outbox: VecDeque<Packet>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for OutnumberTx {
    fn clone(&self) -> Self {
        OutnumberTx {
            labels: self.labels,
            idx: self.idx,
            pending: self.pending,
            total_sent: self.total_sent,
            outbox: self.outbox.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.labels.clone_from(&source.labels);
        self.idx.clone_from(&source.idx);
        self.pending.clone_from(&source.pending);
        self.total_sent.clone_from(&source.total_sent);
        self.outbox.clone_from(&source.outbox);
    }
}

impl OutnumberTx {
    /// Creates the automaton.
    pub fn new(labels: u32) -> Self {
        OutnumberTx {
            labels: u64::from(labels),
            idx: 0,
            pending: false,
            total_sent: 0,
            outbox: VecDeque::new(),
        }
    }

    /// Total data copies sent so far.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    fn label(&self) -> Header {
        Header::new((self.idx % self.labels) as u32)
    }

    fn enqueue_data(&mut self) {
        let pkt = Packet::header_only(self.label());
        self.outbox.push_back(pkt);
        self.total_sent += 1;
    }
}

impl Recoverable for OutnumberTx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, Self::new(self.labels as u32));
    }
}

impl Transmitter for OutnumberTx {
    fn on_send_msg(&mut self, _payload: Option<Payload>) {
        debug_assert!(!self.pending, "send_msg while not ready");
        self.pending = true;
        self.enqueue_data();
    }

    fn on_receive_pkt(&mut self, p: Packet) {
        // Indexed acknowledgement: exact match completes the message.
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
        varint_bytes(self.idx)
            + varint_bytes(self.total_sent)
            + 1
            + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

/// Receiver automaton of the outnumber protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct OutnumberRx {
    labels: u64,
    /// Next undelivered message index, 0-based.
    next: u64,
    /// Copies per label received since the last delivery.
    since_delivery: Vec<u64>,
    /// Total copies ever received.
    total_received: u64,
    /// `total_received` snapshot at the last delivery — the outnumber
    /// threshold.
    threshold: u64,
    outbox: VecDeque<Packet>,
    deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for OutnumberRx {
    fn clone(&self) -> Self {
        OutnumberRx {
            labels: self.labels,
            next: self.next,
            since_delivery: self.since_delivery.clone(),
            total_received: self.total_received,
            threshold: self.threshold,
            outbox: self.outbox.clone(),
            deliveries: self.deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.labels.clone_from(&source.labels);
        self.next.clone_from(&source.next);
        self.since_delivery.clone_from(&source.since_delivery);
        self.total_received.clone_from(&source.total_received);
        self.threshold.clone_from(&source.threshold);
        self.outbox.clone_from(&source.outbox);
        self.deliveries.clone_from(&source.deliveries);
    }
}

impl OutnumberRx {
    /// Creates the automaton.
    pub fn new(labels: u32) -> Self {
        OutnumberRx {
            labels: u64::from(labels),
            next: 0,
            since_delivery: vec![0; labels as usize],
            total_received: 0,
            threshold: 0,
            outbox: VecDeque::new(),
            deliveries: VecDeque::new(),
        }
    }

    /// The current outnumber threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Total data copies received so far.
    pub fn total_received(&self) -> u64 {
        self.total_received
    }

    fn expected_label(&self) -> u64 {
        self.next % self.labels
    }

    fn ack(&mut self, index: u64) {
        self.outbox
            .push_back(Packet::header_only(Header::new(index as u32)));
    }
}

impl Recoverable for OutnumberRx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, Self::new(self.labels as u32));
    }
}

impl Receiver for OutnumberRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        let l = u64::from(p.header().index()) % self.labels;
        self.total_received += 1;
        self.since_delivery[l as usize] += 1;
        if l == self.expected_label() && self.since_delivery[l as usize] > self.threshold {
            self.deliveries.push_back(None);
            self.next += 1;
            self.threshold = self.total_received;
            self.since_delivery.fill(0);
            self.ack(self.next - 1);
        } else if self.next > 0 && l == (self.next - 1) % self.labels {
            // Copy of the previously delivered message's label: the
            // transmitter may have missed our ack — repeat it.
            self.ack(self.next - 1);
        }
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn poll_deliver(&mut self) -> Option<Option<Payload>> {
        self.deliveries.pop_front()
    }

    fn space_bytes(&self) -> usize {
        varint_bytes(self.next)
            + varint_bytes(self.total_received)
            + varint_bytes(self.threshold)
            + self
                .since_delivery
                .iter()
                .map(|&c| varint_bytes(c))
                .sum::<usize>()
            + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pump one message end-to-end over a perfect channel, returning how
    /// many data copies it took.
    fn deliver_one(tx: &mut BoxedTransmitter, rx: &mut BoxedReceiver, i: u64, budget: u64) -> u64 {
        tx.on_send_msg(None);
        let mut copies = 0;
        for _ in 0..budget {
            while let Some(d) = tx.poll_send() {
                copies += 1;
                rx.on_receive_pkt(d);
            }
            while let Some(a) = rx.poll_send() {
                tx.on_receive_pkt(a);
            }
            if tx.ready() {
                assert_eq!(rx.poll_deliver(), Some(None), "message {i}");
                return copies;
            }
            tx.on_tick();
        }
        panic!("message {i} not delivered within budget");
    }

    #[test]
    fn best_case_cost_is_exponential() {
        let (mut tx, mut rx) = Outnumber::new(5).make();
        let costs: Vec<u64> = (0..8)
            .map(|i| deliver_one(&mut tx, &mut rx, i, 1 << 12))
            .collect();
        // First message is cheap; after that each message must outnumber
        // the entire history: cost at least doubles.
        assert_eq!(costs[0], 1);
        for w in costs.windows(2).skip(1) {
            assert!(w[1] >= 2 * w[0], "costs not doubling: {costs:?}");
        }
    }

    #[test]
    fn threshold_tracks_history() {
        let (mut tx, mut rx_boxed) = Outnumber::new(3).make();
        deliver_one(&mut tx, &mut rx_boxed, 0, 1 << 10);
        deliver_one(&mut tx, &mut rx_boxed, 1, 1 << 10);
        // Downcast-free check through the public debug surface: cost of
        // message 2 exceeds the sum of everything before.
        let c2 = deliver_one(&mut tx, &mut rx_boxed, 2, 1 << 10);
        assert!(c2 >= 3);
    }

    #[test]
    fn stale_copies_below_threshold_are_ignored() {
        let mut rx = OutnumberRx::new(3);
        // Deliver message 0 (threshold 0 → first copy delivers).
        rx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert!(rx.poll_deliver().is_some());
        assert_eq!(rx.threshold(), 1);
        // One stale copy of label 1 does not reach the threshold (needs 2).
        rx.on_receive_pkt(Packet::header_only(Header::new(1)));
        assert!(rx.poll_deliver().is_none());
        rx.on_receive_pkt(Packet::header_only(Header::new(1)));
        assert!(rx.poll_deliver().is_some());
    }

    #[test]
    fn reacks_previous_message() {
        let mut rx = OutnumberRx::new(3);
        rx.on_receive_pkt(Packet::header_only(Header::new(0)));
        rx.poll_deliver().unwrap();
        let first_ack = rx.poll_send().unwrap();
        assert_eq!(first_ack.header().index(), 0);
        // A duplicate of label 0 (the delivered message) re-acks.
        rx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert_eq!(rx.poll_send().unwrap().header().index(), 0);
    }

    #[test]
    fn transmitter_ignores_wrong_index_acks() {
        let mut tx = OutnumberTx::new(3);
        tx.on_send_msg(None);
        tx.on_receive_pkt(Packet::header_only(Header::new(7)));
        assert!(!tx.ready());
        tx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert!(tx.ready());
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn rejects_two_labels() {
        let _ = Outnumber::new(2);
    }
}
