//! The paper's "naive protocol": deliver the `i`-th message with the `i`-th
//! header.
//!
//! Uses `n` forward headers for `n` messages and `O(log n)` space — the
//! contrast the paper draws against every bounded-header protocol
//! ("In contrast, the naive protocol … uses n headers to deliver n messages
//! in O(log n) space"). It is safe over *any* PL1 channel, adversarial or
//! not: stale copies carry old sequence numbers and are simply ignored, so
//! the Theorem 3.1 falsifier can never hurt it (experiment E3's negative
//! control).

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, HeaderBound, Receiver, Recoverable, Transmitter,
};
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::VecDeque;

/// Number of bytes to store `x` in a variable-length encoding — the honest
/// size of an unbounded counter, so `space_bytes` grows like `log n`.
pub(crate) fn varint_bytes(x: u64) -> usize {
    (64 - u64::leading_zeros(x.max(1)) as usize).div_ceil(7)
}

/// Factory for the stop-and-wait sequence-number protocol.
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{DataLink, HeaderBound, SequenceNumber};
///
/// let proto = SequenceNumber::new();
/// assert_eq!(proto.forward_headers(), HeaderBound::PerMessage);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequenceNumber;

impl SequenceNumber {
    /// Creates the factory.
    pub fn new() -> Self {
        SequenceNumber
    }

    /// Alias for [`SequenceNumber::new`].
    pub fn factory() -> Self {
        SequenceNumber
    }
}

impl DataLink for SequenceNumber {
    fn name(&self) -> String {
        "sequence-number".into()
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::PerMessage
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(SequenceNumberTx::new()),
            Box::new(SequenceNumberRx::new()),
        )
    }
}

/// Transmitter automaton of the sequence-number protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct SequenceNumberTx {
    seq: u64,
    /// The unacknowledged message's payload, while one is outstanding.
    pending: Option<Option<Payload>>,
    outbox: VecDeque<Packet>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for SequenceNumberTx {
    fn clone(&self) -> Self {
        SequenceNumberTx {
            seq: self.seq,
            pending: self.pending,
            outbox: self.outbox.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.seq.clone_from(&source.seq);
        self.pending.clone_from(&source.pending);
        self.outbox.clone_from(&source.outbox);
    }
}

impl SequenceNumberTx {
    /// Creates the automaton at sequence number 0.
    pub fn new() -> Self {
        SequenceNumberTx {
            seq: 0,
            pending: None,
            outbox: VecDeque::new(),
        }
    }

    /// The next sequence number to be assigned.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn data_packet(&self, payload: Option<Payload>) -> Packet {
        Packet::from_parts(Header::new(self.seq as u32), payload)
    }
}

impl Default for SequenceNumberTx {
    fn default() -> Self {
        SequenceNumberTx::new()
    }
}

impl Recoverable for SequenceNumberTx {
    fn crash_amnesia(&mut self) {
        *self = SequenceNumberTx::new();
    }
}

impl Transmitter for SequenceNumberTx {
    fn on_send_msg(&mut self, payload: Option<Payload>) {
        debug_assert!(self.pending.is_none(), "send_msg while not ready");
        self.pending = Some(payload);
        let pkt = self.data_packet(payload);
        self.outbox.push_back(pkt);
    }

    fn on_receive_pkt(&mut self, p: Packet) {
        if self.pending.is_some() && u64::from(p.header().index()) == self.seq {
            self.pending = None;
            self.seq += 1;
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

    fn header_retired(&self, h: Header) -> bool {
        // `seq` only grows and `on_receive_pkt` compares for equality, so
        // an ack below the current number is ignored for the rest of time.
        u64::from(h.index()) < self.seq
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn ready(&self) -> bool {
        self.pending.is_none()
    }

    fn space_bytes(&self) -> usize {
        varint_bytes(self.seq) + 1 + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

/// Receiver automaton of the sequence-number protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct SequenceNumberRx {
    next_expected: u64,
    outbox: VecDeque<Packet>,
    deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for SequenceNumberRx {
    fn clone(&self) -> Self {
        SequenceNumberRx {
            next_expected: self.next_expected,
            outbox: self.outbox.clone(),
            deliveries: self.deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.next_expected.clone_from(&source.next_expected);
        self.outbox.clone_from(&source.outbox);
        self.deliveries.clone_from(&source.deliveries);
    }
}

impl SequenceNumberRx {
    /// Creates the automaton expecting sequence number 0.
    pub fn new() -> Self {
        SequenceNumberRx {
            next_expected: 0,
            outbox: VecDeque::new(),
            deliveries: VecDeque::new(),
        }
    }

    /// The sequence number the receiver expects next.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }
}

impl Default for SequenceNumberRx {
    fn default() -> Self {
        SequenceNumberRx::new()
    }
}

impl Recoverable for SequenceNumberRx {
    fn crash_amnesia(&mut self) {
        *self = SequenceNumberRx::new();
    }
}

impl Receiver for SequenceNumberRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        // Acknowledge the sequence number we saw (idempotent for stale
        // copies — the transmitter ignores acks for anything but its
        // current number).
        self.outbox.push_back(Packet::header_only(p.header()));
        if u64::from(p.header().index()) == self.next_expected {
            self.deliveries.push_back(p.payload());
            self.next_expected += 1;
        }
    }

    fn header_retired(&self, h: Header) -> bool {
        // `next_expected` only grows: a data packet numbered below it can
        // never be delivered again, only re-acknowledged — and the ack it
        // echoes carries the same retired number.
        u64::from(h.index()) < self.next_expected
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn poll_deliver(&mut self) -> Option<Option<Payload>> {
        self.deliveries.pop_front()
    }

    fn space_bytes(&self) -> usize {
        varint_bytes(self.next_expected) + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_over_perfect_channel() {
        let (mut tx, mut rx) = SequenceNumber::new().make();
        for i in 0..10u64 {
            tx.on_send_msg(Some(Payload::new(i * 10)));
            let d = tx.poll_send().unwrap();
            assert_eq!(u64::from(d.header().index()), i);
            rx.on_receive_pkt(d);
            assert_eq!(rx.poll_deliver(), Some(Some(Payload::new(i * 10))));
            tx.on_receive_pkt(rx.poll_send().unwrap());
        }
    }

    #[test]
    fn stale_copies_are_harmless() {
        let mut tx = SequenceNumberTx::new();
        let mut rx = SequenceNumberRx::new();
        // Deliver messages 0 and 1, keeping a stale copy of each.
        let mut stale = Vec::new();
        for _ in 0..2u64 {
            tx.on_send_msg(None);
            let fresh = tx.poll_send().unwrap();
            tx.on_tick();
            stale.push(tx.poll_send().unwrap());
            rx.on_receive_pkt(fresh);
            rx.poll_deliver().unwrap();
            tx.on_receive_pkt(rx.poll_send().unwrap());
            let _ = rx.poll_send();
        }
        // Replay every stale copy: no phantom deliveries, ever.
        for s in stale {
            rx.on_receive_pkt(s);
            assert!(rx.poll_deliver().is_none());
        }
        assert_eq!(rx.next_expected(), 2);
    }

    #[test]
    fn stale_acks_are_harmless() {
        let mut tx = SequenceNumberTx::new();
        tx.on_send_msg(None);
        let _ = tx.poll_send();
        tx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert!(tx.ready());
        tx.on_send_msg(None);
        // A replayed ack for 0 must not complete message 1.
        tx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert!(!tx.ready());
    }

    #[test]
    fn space_grows_logarithmically() {
        assert_eq!(varint_bytes(0), 1);
        assert_eq!(varint_bytes(127), 1);
        assert_eq!(varint_bytes(128), 2);
        assert_eq!(varint_bytes(u64::MAX), 10);
        let mut tx = SequenceNumberTx::new();
        let s_small = tx.space_bytes();
        tx.seq = 1 << 40;
        assert!(tx.space_bytes() > s_small);
        assert!(tx.space_bytes() < s_small + 8);
    }

    #[test]
    fn retransmission_pacing() {
        let mut tx = SequenceNumberTx::new();
        tx.on_send_msg(None);
        assert!(tx.poll_send().is_some());
        assert!(tx.poll_send().is_none());
        tx.on_tick();
        tx.on_tick();
        // One retransmission per tick at most, queued lazily.
        assert!(tx.poll_send().is_some());
        assert!(tx.poll_send().is_none());
    }
}
