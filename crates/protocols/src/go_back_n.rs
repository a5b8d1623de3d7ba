//! Go-Back-N: the classic cumulative-acknowledgement pipeline protocol.
//!
//! Unlike the selective-repeat [`SlidingWindow`](crate::SlidingWindow), the
//! receiver keeps no buffer: out-of-order packets are discarded and the
//! cumulative acknowledgement re-asserts the next expected number. The
//! header modulus is the classic minimum `w + 1`. Correct over FIFO (with
//! or without loss); even mild reordering costs goodput, and deep replay
//! aliases the modular numbers exactly as Theorem 3.1 predicts — the
//! falsifier breaks it like any bounded-header protocol.

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, HeaderBound, Receiver, Recoverable, Transmitter,
};
use crate::sequence::varint_bytes;
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::VecDeque;

/// Factory for the Go-Back-N protocol.
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{DataLink, GoBackN, HeaderBound};
///
/// let proto = GoBackN::new(4);
/// assert_eq!(proto.forward_headers(), HeaderBound::Fixed(5)); // M = w + 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoBackN {
    window: u32,
}

impl GoBackN {
    /// Creates a factory with window size `window` (modulus `window + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        GoBackN { window }
    }

    /// The window size `w`.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The header modulus `M = w + 1`.
    pub fn modulus(&self) -> u32 {
        self.window + 1
    }
}

impl DataLink for GoBackN {
    fn name(&self) -> String {
        format!("go-back-n(w={})", self.window)
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::Fixed(self.modulus())
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(GoBackNTx::new(self.window)),
            Box::new(GoBackNRx::new(self.window)),
        )
    }
}

/// Transmitter automaton of Go-Back-N.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct GoBackNTx {
    window: u64,
    modulus: u64,
    base: u64,
    next: u64,
    unacked: VecDeque<Option<Payload>>,
    outbox: VecDeque<Packet>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for GoBackNTx {
    fn clone(&self) -> Self {
        GoBackNTx {
            window: self.window,
            modulus: self.modulus,
            base: self.base,
            next: self.next,
            unacked: self.unacked.clone(),
            outbox: self.outbox.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.window.clone_from(&source.window);
        self.modulus.clone_from(&source.modulus);
        self.base.clone_from(&source.base);
        self.next.clone_from(&source.next);
        self.unacked.clone_from(&source.unacked);
        self.outbox.clone_from(&source.outbox);
    }
}

impl GoBackNTx {
    /// Creates the automaton with window `w`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        GoBackNTx {
            window: u64::from(window),
            modulus: u64::from(window) + 1,
            base: 0,
            next: 0,
            unacked: VecDeque::new(),
            outbox: VecDeque::new(),
        }
    }

    /// Oldest unacknowledged full sequence number.
    pub fn base(&self) -> u64 {
        self.base
    }

    fn packet_for(&self, seq: u64, payload: Option<Payload>) -> Packet {
        Packet::from_parts(Header::new((seq % self.modulus) as u32), payload)
    }
}

impl Recoverable for GoBackNTx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, GoBackNTx::new(self.window as u32));
    }
}

impl Transmitter for GoBackNTx {
    fn on_send_msg(&mut self, payload: Option<Payload>) {
        debug_assert!(self.ready(), "send_msg while window full");
        let seq = self.next;
        self.next += 1;
        self.unacked.push_back(payload);
        let pkt = self.packet_for(seq, payload);
        self.outbox.push_back(pkt);
    }

    fn on_receive_pkt(&mut self, p: Packet) {
        // Cumulative ack: the receiver's next expected number, mod M.
        let a = u64::from(p.header().index());
        let delta = (a + self.modulus - self.base % self.modulus) % self.modulus;
        if delta > 0 && delta <= self.next - self.base {
            self.base += delta;
            for _ in 0..delta {
                self.unacked.pop_front();
            }
        }
    }

    fn on_tick(&mut self) {
        // Go-back: retransmit the whole outstanding window.
        if self.outbox.is_empty() {
            let resend: Vec<Packet> = self
                .unacked
                .iter()
                .enumerate()
                .map(|(i, &payload)| self.packet_for(self.base + i as u64, payload))
                .collect();
            self.outbox.extend(resend);
        }
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn ready(&self) -> bool {
        self.next - self.base < self.window
    }

    fn space_bytes(&self) -> usize {
        varint_bytes(self.base)
            + varint_bytes(self.next)
            + self.unacked.len() * 9
            + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

/// Receiver automaton of Go-Back-N: no reorder buffer.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct GoBackNRx {
    modulus: u64,
    next_expected: u64,
    outbox: VecDeque<Packet>,
    deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for GoBackNRx {
    fn clone(&self) -> Self {
        GoBackNRx {
            modulus: self.modulus,
            next_expected: self.next_expected,
            outbox: self.outbox.clone(),
            deliveries: self.deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.modulus.clone_from(&source.modulus);
        self.next_expected.clone_from(&source.next_expected);
        self.outbox.clone_from(&source.outbox);
        self.deliveries.clone_from(&source.deliveries);
    }
}

impl GoBackNRx {
    /// Creates the automaton with window `w`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        GoBackNRx {
            modulus: u64::from(window) + 1,
            next_expected: 0,
            outbox: VecDeque::new(),
            deliveries: VecDeque::new(),
        }
    }

    /// Next full sequence number the receiver will deliver.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }
}

impl Recoverable for GoBackNRx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, GoBackNRx::new((self.modulus - 1) as u32));
    }
}

impl Receiver for GoBackNRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        let s = u64::from(p.header().index());
        if s == self.next_expected % self.modulus {
            self.deliveries.push_back(p.payload());
            self.next_expected += 1;
        }
        // Cumulative ack either way.
        self.outbox.push_back(Packet::header_only(Header::new(
            (self.next_expected % self.modulus) as u32,
        )));
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
    fn pipeline_over_perfect_channel() {
        let mut tx = GoBackNTx::new(4);
        let mut rx = GoBackNRx::new(4);
        let mut delivered = 0u64;
        let mut sent = 0u64;
        while delivered < 20 {
            while tx.ready() && sent < 20 {
                tx.on_send_msg(Some(Payload::new(sent)));
                sent += 1;
            }
            while let Some(d) = tx.poll_send() {
                rx.on_receive_pkt(d);
            }
            while let Some(m) = rx.poll_deliver() {
                assert_eq!(m, Some(Payload::new(delivered)));
                delivered += 1;
            }
            while let Some(a) = rx.poll_send() {
                tx.on_receive_pkt(a);
            }
            tx.on_tick();
        }
        assert_eq!(tx.base(), 20);
    }

    #[test]
    fn out_of_order_is_discarded_not_buffered() {
        let mut tx = GoBackNTx::new(3);
        let mut rx = GoBackNRx::new(3);
        tx.on_send_msg(None);
        tx.on_send_msg(None);
        let d0 = tx.poll_send().unwrap();
        let d1 = tx.poll_send().unwrap();
        rx.on_receive_pkt(d1);
        assert!(rx.poll_deliver().is_none());
        // The cumulative ack still says "expecting 0".
        assert_eq!(rx.poll_send().unwrap().header().index(), 0);
        rx.on_receive_pkt(d0);
        assert_eq!(rx.poll_deliver(), Some(None));
        // d1 was dropped; only a retransmission will deliver message 1.
        assert!(rx.poll_deliver().is_none());
        tx.on_tick();
        let _re0_or_1 = tx.poll_send().unwrap();
    }

    #[test]
    fn go_back_retransmits_whole_window() {
        let mut tx = GoBackNTx::new(3);
        tx.on_send_msg(None);
        tx.on_send_msg(None);
        tx.on_send_msg(None);
        while tx.poll_send().is_some() {}
        tx.on_tick();
        let mut resent = 0;
        while tx.poll_send().is_some() {
            resent += 1;
        }
        assert_eq!(resent, 3, "go-back-n resends the full window");
    }

    #[test]
    fn loss_recovery_end_to_end() {
        let mut tx = GoBackNTx::new(2);
        let mut rx = GoBackNRx::new(2);
        tx.on_send_msg(None);
        let _lost = tx.poll_send();
        tx.on_tick();
        rx.on_receive_pkt(tx.poll_send().unwrap());
        assert!(rx.poll_deliver().is_some());
        tx.on_receive_pkt(rx.poll_send().unwrap());
        assert_eq!(tx.base(), 1);
    }

    #[test]
    fn modulus_is_w_plus_one() {
        assert_eq!(GoBackN::new(7).modulus(), 8);
        assert_eq!(GoBackN::new(7).forward_headers(), HeaderBound::Fixed(8));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_window() {
        let _ = GoBackN::new(0);
    }
}
