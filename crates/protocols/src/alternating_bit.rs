//! The alternating-bit protocol [BSW69] — the paper's §2.3 example of a
//! protocol distinguishing packets with minimal headers.
//!
//! Two forward headers (the bit), two backward headers. Correct over lossy
//! FIFO channels; over a non-FIFO channel a replayed stale copy of the
//! current bit makes the receiver deliver a message that was never sent —
//! experiment E8 and the falsifier tests construct exactly that execution.

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, HeaderBound, Receiver, Recoverable, Transmitter,
};
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::VecDeque;

/// Factory for the alternating-bit protocol.
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{AlternatingBit, DataLink, HeaderBound};
///
/// let proto = AlternatingBit::new();
/// assert_eq!(proto.forward_headers(), HeaderBound::Fixed(2));
/// let (_tx, _rx) = proto.make();
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlternatingBit;

impl AlternatingBit {
    /// Creates the factory.
    pub fn new() -> Self {
        AlternatingBit
    }

    /// Alias for [`AlternatingBit::new`], symmetric with other protocols.
    pub fn factory() -> Self {
        AlternatingBit
    }
}

impl DataLink for AlternatingBit {
    fn name(&self) -> String {
        "alternating-bit".into()
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::Fixed(2)
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(AlternatingBitTx::new()),
            Box::new(AlternatingBitRx::new()),
        )
    }
}

/// Transmitter automaton of the alternating-bit protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct AlternatingBitTx {
    bit: u8,
    /// The unacknowledged message's payload, while one is outstanding.
    pending: Option<Option<Payload>>,
    outbox: VecDeque<Packet>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for AlternatingBitTx {
    fn clone(&self) -> Self {
        AlternatingBitTx {
            bit: self.bit,
            pending: self.pending,
            outbox: self.outbox.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.bit.clone_from(&source.bit);
        self.pending.clone_from(&source.pending);
        self.outbox.clone_from(&source.outbox);
    }
}

impl AlternatingBitTx {
    /// Creates the automaton in its initial state (bit 0, idle).
    pub fn new() -> Self {
        AlternatingBitTx {
            bit: 0,
            pending: None,
            outbox: VecDeque::new(),
        }
    }

    /// The current bit.
    pub fn bit(&self) -> u8 {
        self.bit
    }

    fn data_packet(&self, payload: Option<Payload>) -> Packet {
        Packet::from_parts(Header::new(u32::from(self.bit)), payload)
    }
}

impl Default for AlternatingBitTx {
    fn default() -> Self {
        AlternatingBitTx::new()
    }
}

impl Recoverable for AlternatingBitTx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, AlternatingBitTx::new());
    }
}

impl Transmitter for AlternatingBitTx {
    fn on_send_msg(&mut self, payload: Option<Payload>) {
        debug_assert!(self.pending.is_none(), "send_msg while not ready");
        self.pending = Some(payload);
        let pkt = self.data_packet(payload);
        self.outbox.push_back(pkt);
    }

    fn on_receive_pkt(&mut self, p: Packet) {
        if self.pending.is_some() && p.header().index() == u32::from(self.bit) {
            self.pending = None;
            self.bit ^= 1;
        }
    }

    fn on_tick(&mut self) {
        // Retransmit once per tick while unacknowledged.
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
        1 + 1 + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

/// Receiver automaton of the alternating-bit protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct AlternatingBitRx {
    expected: u8,
    outbox: VecDeque<Packet>,
    inbox_deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for AlternatingBitRx {
    fn clone(&self) -> Self {
        AlternatingBitRx {
            expected: self.expected,
            outbox: self.outbox.clone(),
            inbox_deliveries: self.inbox_deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.expected.clone_from(&source.expected);
        self.outbox.clone_from(&source.outbox);
        self.inbox_deliveries.clone_from(&source.inbox_deliveries);
    }
}

impl AlternatingBitRx {
    /// Creates the automaton in its initial state (expecting bit 0).
    pub fn new() -> Self {
        AlternatingBitRx {
            expected: 0,
            outbox: VecDeque::new(),
            inbox_deliveries: VecDeque::new(),
        }
    }

    /// The bit the receiver expects next.
    pub fn expected_bit(&self) -> u8 {
        self.expected
    }
}

impl Default for AlternatingBitRx {
    fn default() -> Self {
        AlternatingBitRx::new()
    }
}

impl Recoverable for AlternatingBitRx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, AlternatingBitRx::new());
    }
}

impl Receiver for AlternatingBitRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        // Always acknowledge the bit we saw.
        self.outbox.push_back(Packet::header_only(p.header()));
        if p.header().index() == u32::from(self.expected) {
            self.inbox_deliveries.push_back(p.payload());
            self.expected ^= 1;
        }
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn poll_deliver(&mut self) -> Option<Option<Payload>> {
        self.inbox_deliveries.pop_front()
    }

    fn space_bytes(&self) -> usize {
        1 + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_over_perfect_channel() {
        let (mut tx, mut rx) = AlternatingBit::new().make();
        for i in 0..5u64 {
            assert!(tx.ready());
            tx.on_send_msg(Some(Payload::new(i)));
            let d = tx.poll_send().expect("data packet");
            assert_eq!(d.header().index(), (i % 2) as u32);
            rx.on_receive_pkt(d);
            assert_eq!(rx.poll_deliver(), Some(Some(Payload::new(i))));
            let ack = rx.poll_send().expect("ack");
            tx.on_receive_pkt(ack);
        }
        assert!(tx.ready());
    }

    #[test]
    fn retransmits_until_acked() {
        let mut tx = AlternatingBitTx::new();
        tx.on_send_msg(None);
        assert!(tx.poll_send().is_some());
        assert!(tx.poll_send().is_none());
        tx.on_tick();
        assert!(tx.poll_send().is_some());
        tx.on_receive_pkt(Packet::header_only(Header::new(0)));
        tx.on_tick();
        assert!(tx.poll_send().is_none());
        assert!(tx.ready());
    }

    #[test]
    fn wrong_bit_ack_is_ignored() {
        let mut tx = AlternatingBitTx::new();
        tx.on_send_msg(None);
        tx.on_receive_pkt(Packet::header_only(Header::new(1)));
        assert!(!tx.ready());
    }

    #[test]
    fn receiver_acks_duplicates_without_redelivering() {
        let mut rx = AlternatingBitRx::new();
        let d0 = Packet::header_only(Header::new(0));
        rx.on_receive_pkt(d0);
        assert!(rx.poll_deliver().is_some());
        assert!(rx.poll_send().is_some());
        // Duplicate of the old bit: ack again, no delivery.
        rx.on_receive_pkt(d0);
        assert!(rx.poll_deliver().is_none());
        assert!(rx.poll_send().is_some());
    }

    #[test]
    fn stale_copy_causes_phantom_delivery_on_non_fifo() {
        // The E8 scenario in miniature: a delayed copy of bit 0 arrives
        // after the receiver has cycled back to expecting bit 0.
        let (mut tx, mut rx) = AlternatingBit::new().make();
        // Message 0 (bit 0): the channel holds one copy back.
        tx.on_send_msg(None);
        let d0_first = tx.poll_send().unwrap();
        tx.on_tick();
        let d0_stale = tx.poll_send().unwrap(); // the copy the channel delays
        rx.on_receive_pkt(d0_first);
        rx.poll_deliver().unwrap();
        tx.on_receive_pkt(rx.poll_send().unwrap());
        // Message 1 (bit 1) delivered normally.
        tx.on_send_msg(None);
        rx.on_receive_pkt(tx.poll_send().unwrap());
        rx.poll_deliver().unwrap();
        tx.on_receive_pkt(rx.poll_send().unwrap());
        // Receiver now expects bit 0 again; the stale copy is replayed.
        rx.on_receive_pkt(d0_stale);
        // Phantom third delivery with only two messages sent: DL1 violated.
        assert!(rx.poll_deliver().is_some());
    }

    #[test]
    fn fingerprints_reflect_control_state() {
        use crate::api::TransmitterState;
        let mut tx = AlternatingBitTx::new();
        let f0 = tx.state_fingerprint();
        tx.on_send_msg(None);
        assert_ne!(tx.state_fingerprint(), f0);
        assert_ne!(tx, AlternatingBitTx::new());
    }

    #[test]
    fn payload_is_carried() {
        let (mut tx, mut rx) = AlternatingBit::new().make();
        tx.on_send_msg(Some(Payload::new(77)));
        rx.on_receive_pkt(tx.poll_send().unwrap());
        assert_eq!(rx.poll_deliver(), Some(Some(Payload::new(77))));
    }
}
