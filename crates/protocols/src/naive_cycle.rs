//! A `k`-header label-cycle protocol that trusts the channel order — the
//! canonical victim of the Theorem 3.1/4.1 falsifiers.
//!
//! Message `i` travels as `D(i mod k)`; the receiver delivers on the *first*
//! sighting of the expected label. Over FIFO channels this is correct (it
//! generalises the alternating bit, which is the `k = 2` instance); over a
//! non-FIFO channel a single replayed stale copy of the expected label
//! produces a phantom delivery. The falsifiers find that execution
//! mechanically for every `k`.

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, HeaderBound, Receiver, Recoverable, Transmitter,
};
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::VecDeque;

/// Factory for the `k`-label cycle protocol.
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{DataLink, HeaderBound, NaiveCycle};
///
/// let proto = NaiveCycle::new(3);
/// assert_eq!(proto.forward_headers(), HeaderBound::Fixed(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveCycle {
    k: u32,
}

impl NaiveCycle {
    /// Creates a factory for a cycle of `k` labels.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (a single label cannot even distinguish
    /// consecutive messages over a perfect channel).
    pub fn new(k: u32) -> Self {
        assert!(k >= 2, "label cycle needs k ≥ 2, got {k}");
        NaiveCycle { k }
    }

    /// The number of labels.
    pub fn k(&self) -> u32 {
        self.k
    }
}

impl DataLink for NaiveCycle {
    fn name(&self) -> String {
        format!("naive-cycle(k={})", self.k)
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::Fixed(self.k)
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(NaiveCycleTx::new(self.k)),
            Box::new(NaiveCycleRx::new(self.k)),
        )
    }
}

/// Transmitter automaton of the label-cycle protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct NaiveCycleTx {
    k: u32,
    /// The current message's label, `i mod k` for message `i`.
    label: u32,
    /// The unacknowledged message's payload, while one is outstanding.
    pending: Option<Option<Payload>>,
    outbox: VecDeque<Packet>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for NaiveCycleTx {
    fn clone(&self) -> Self {
        NaiveCycleTx {
            k: self.k,
            label: self.label,
            pending: self.pending,
            outbox: self.outbox.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.k.clone_from(&source.k);
        self.label.clone_from(&source.label);
        self.pending.clone_from(&source.pending);
        self.outbox.clone_from(&source.outbox);
    }
}

impl NaiveCycleTx {
    /// Creates the automaton with label cycle `k`.
    pub fn new(k: u32) -> Self {
        NaiveCycleTx {
            k,
            label: 0,
            pending: None,
            outbox: VecDeque::new(),
        }
    }

    fn data_packet(&self, payload: Option<Payload>) -> Packet {
        Packet::from_parts(Header::new(self.label), payload)
    }
}

impl Recoverable for NaiveCycleTx {
    fn crash_amnesia(&mut self) {
        *self = NaiveCycleTx::new(self.k);
    }
}

impl Transmitter for NaiveCycleTx {
    fn on_send_msg(&mut self, payload: Option<Payload>) {
        debug_assert!(self.pending.is_none(), "send_msg while not ready");
        self.pending = Some(payload);
        let pkt = self.data_packet(payload);
        self.outbox.push_back(pkt);
    }

    fn on_receive_pkt(&mut self, p: Packet) {
        if self.pending.is_some() && p.header() == Header::new(self.label) {
            self.pending = None;
            self.label = (self.label + 1) % self.k;
        }
    }

    fn on_tick(&mut self) {
        if let Some(payload) = self.pending {
            if self.outbox.is_empty() {
                let pkt = self.data_packet(payload);
                self.outbox.push_back(pkt);
            }
        }
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn ready(&self) -> bool {
        self.pending.is_none()
    }

    fn space_bytes(&self) -> usize {
        4 + 4 + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

/// Receiver automaton of the label-cycle protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct NaiveCycleRx {
    k: u32,
    /// The label of the next message to deliver.
    expected: u32,
    outbox: VecDeque<Packet>,
    deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for NaiveCycleRx {
    fn clone(&self) -> Self {
        NaiveCycleRx {
            k: self.k,
            expected: self.expected,
            outbox: self.outbox.clone(),
            deliveries: self.deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.k.clone_from(&source.k);
        self.expected.clone_from(&source.expected);
        self.outbox.clone_from(&source.outbox);
        self.deliveries.clone_from(&source.deliveries);
    }
}

impl NaiveCycleRx {
    /// Creates the automaton with label cycle `k`.
    pub fn new(k: u32) -> Self {
        NaiveCycleRx {
            k,
            expected: 0,
            outbox: VecDeque::new(),
            deliveries: VecDeque::new(),
        }
    }
}

impl Recoverable for NaiveCycleRx {
    fn crash_amnesia(&mut self) {
        *self = NaiveCycleRx::new(self.k);
    }
}

impl Receiver for NaiveCycleRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        self.outbox.push_back(Packet::header_only(p.header()));
        if p.header() == Header::new(self.expected) {
            self.deliveries.push_back(p.payload());
            self.expected = (self.expected + 1) % self.k;
        }
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn poll_deliver(&mut self) -> Option<Option<Payload>> {
        self.deliveries.pop_front()
    }

    fn space_bytes(&self) -> usize {
        4 + 4 + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order_over_perfect_channel() {
        let (mut tx, mut rx) = NaiveCycle::new(3).make();
        for i in 0..7u64 {
            tx.on_send_msg(None);
            let d = tx.poll_send().unwrap();
            assert_eq!(u64::from(d.header().index()), i % 3);
            rx.on_receive_pkt(d);
            assert_eq!(rx.poll_deliver(), Some(None));
            tx.on_receive_pkt(rx.poll_send().unwrap());
            assert!(tx.ready());
        }
    }

    #[test]
    fn replayed_stale_label_is_a_phantom_delivery() {
        let k = 3;
        let (mut tx, mut rx) = NaiveCycle::new(k).make();
        // Round 0: keep one extra copy of label 0.
        tx.on_send_msg(None);
        let fresh = tx.poll_send().unwrap();
        tx.on_tick();
        let stale = tx.poll_send().unwrap();
        rx.on_receive_pkt(fresh);
        rx.poll_deliver().unwrap();
        tx.on_receive_pkt(rx.poll_send().unwrap());
        let _ = rx.poll_send();
        // Rounds 1..k delivered cleanly; receiver cycles back to label 0.
        for _ in 1..u64::from(k) {
            tx.on_send_msg(None);
            rx.on_receive_pkt(tx.poll_send().unwrap());
            rx.poll_deliver().unwrap();
            tx.on_receive_pkt(rx.poll_send().unwrap());
        }
        // Replay the stale label-0 copy: phantom delivery.
        rx.on_receive_pkt(stale);
        assert!(rx.poll_deliver().is_some(), "DL1 violation reproduced");
    }

    #[test]
    #[should_panic(expected = "k ≥ 2")]
    fn rejects_tiny_cycle() {
        let _ = NaiveCycle::new(1);
    }

    #[test]
    fn k_two_matches_alternating_bit_shape() {
        let proto = NaiveCycle::new(2);
        assert_eq!(proto.forward_headers(), HeaderBound::Fixed(2));
        assert_eq!(proto.name(), "naive-cycle(k=2)");
    }

    #[test]
    fn ignores_unexpected_labels() {
        let mut rx = NaiveCycleRx::new(4);
        rx.on_receive_pkt(Packet::header_only(Header::new(2)));
        assert!(rx.poll_deliver().is_none());
        // Still acknowledges what it saw.
        assert_eq!(rx.poll_send().unwrap().header(), Header::new(2));
    }
}
