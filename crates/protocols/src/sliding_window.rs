//! A sliding-window protocol with modular sequence numbers — how practical
//! data-link layers live with the paper's lower bounds.
//!
//! Headers are sequence numbers modulo `M = 2·w` (so `M` forward headers for
//! a window of `w`), and the automata keep *unbounded* full-precision
//! counters internally — exactly the trade Theorem 3.1 predicts: bounded
//! headers force unbounded space. The protocol is correct when the channel's
//! reordering is bounded (overtaking distance at most `M − w`); under
//! arbitrary non-FIFO behaviour the modular reconstruction aliases and the
//! falsifier produces phantom deliveries. Experiment E9 maps the crossover.

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, HeaderBound, Receiver, Recoverable, Transmitter,
};
use crate::sequence::varint_bytes;
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Factory for the sliding-window protocol.
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{DataLink, HeaderBound, SlidingWindow};
///
/// let proto = SlidingWindow::new(4);
/// assert_eq!(proto.forward_headers(), HeaderBound::Fixed(8)); // M = 2w
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlidingWindow {
    window: u32,
}

impl SlidingWindow {
    /// Creates a factory with window size `window` (modulus `2·window`).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SlidingWindow { window }
    }

    /// The window size `w`.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The header modulus `M = 2·w`.
    pub fn modulus(&self) -> u32 {
        self.window * 2
    }
}

impl DataLink for SlidingWindow {
    fn name(&self) -> String {
        format!("sliding-window(w={})", self.window)
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::Fixed(self.modulus())
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(SlidingWindowTx::new(self.window)),
            Box::new(SlidingWindowRx::new(self.window)),
        )
    }
}

/// Transmitter automaton of the sliding-window protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct SlidingWindowTx {
    window: u64,
    modulus: u64,
    /// Oldest unacknowledged full sequence number.
    base: u64,
    /// Next fresh full sequence number.
    next: u64,
    unacked: BTreeMap<u64, Option<Payload>>,
    outbox: VecDeque<Packet>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for SlidingWindowTx {
    fn clone(&self) -> Self {
        SlidingWindowTx {
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

impl SlidingWindowTx {
    /// Creates the automaton with window `w`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SlidingWindowTx {
            window: u64::from(window),
            modulus: u64::from(window) * 2,
            base: 0,
            next: 0,
            unacked: BTreeMap::new(),
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

impl Recoverable for SlidingWindowTx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, SlidingWindowTx::new(self.window as u32));
    }
}

impl Transmitter for SlidingWindowTx {
    fn on_send_msg(&mut self, payload: Option<Payload>) {
        debug_assert!(self.ready(), "send_msg while window full");
        let seq = self.next;
        self.next += 1;
        self.unacked.insert(seq, payload);
        let pkt = self.packet_for(seq, payload);
        self.outbox.push_back(pkt);
    }

    fn on_receive_pkt(&mut self, p: Packet) {
        // Cumulative acknowledgement: the receiver's next expected sequence
        // number modulo M. Advance base by the implied delta when plausible.
        let a = u64::from(p.header().index());
        let delta = (a + self.modulus - self.base % self.modulus) % self.modulus;
        if delta > 0 && delta <= self.next - self.base {
            self.base += delta;
            self.unacked = self.unacked.split_off(&self.base);
        }
    }

    fn on_tick(&mut self) {
        // One retransmission round per tick for everything outstanding.
        if self.outbox.is_empty() {
            let resend: Vec<Packet> = self
                .unacked
                .iter()
                .map(|(&seq, &payload)| self.packet_for(seq, payload))
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

/// Receiver automaton of the sliding-window protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct SlidingWindowRx {
    window: u64,
    modulus: u64,
    /// Next full sequence number to deliver.
    next_expected: u64,
    buffered: BTreeMap<u64, Option<Payload>>,
    outbox: VecDeque<Packet>,
    deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for SlidingWindowRx {
    fn clone(&self) -> Self {
        SlidingWindowRx {
            window: self.window,
            modulus: self.modulus,
            next_expected: self.next_expected,
            buffered: self.buffered.clone(),
            outbox: self.outbox.clone(),
            deliveries: self.deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.window.clone_from(&source.window);
        self.modulus.clone_from(&source.modulus);
        self.next_expected.clone_from(&source.next_expected);
        self.buffered.clone_from(&source.buffered);
        self.outbox.clone_from(&source.outbox);
        self.deliveries.clone_from(&source.deliveries);
    }
}

impl SlidingWindowRx {
    /// Creates the automaton with window `w`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SlidingWindowRx {
            window: u64::from(window),
            modulus: u64::from(window) * 2,
            next_expected: 0,
            buffered: BTreeMap::new(),
            outbox: VecDeque::new(),
            deliveries: VecDeque::new(),
        }
    }

    /// Next full sequence number the receiver will deliver.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }
}

impl Recoverable for SlidingWindowRx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, SlidingWindowRx::new(self.window as u32));
    }
}

impl Receiver for SlidingWindowRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        let s = u64::from(p.header().index());
        let delta = (s + self.modulus - self.next_expected % self.modulus) % self.modulus;
        if delta < self.window {
            // Reconstruct the full sequence number assuming bounded reorder.
            let full = self.next_expected + delta;
            self.buffered.insert(full, p.payload());
            while let Some(payload) = self.buffered.remove(&self.next_expected) {
                self.deliveries.push_back(payload);
                self.next_expected += 1;
            }
        }
        // Cumulative ack: our next expected, mod M.
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
        varint_bytes(self.next_expected)
            + self.buffered.len() * 9
            + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_over_perfect_channel() {
        let mut tx = SlidingWindowTx::new(4);
        let mut rx = SlidingWindowRx::new(4);
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
    fn out_of_order_within_window_is_buffered() {
        let (mut tx, mut rx) = SlidingWindow::new(3).make();
        for i in 0..3 {
            tx.on_send_msg(Some(Payload::new(i)));
        }
        let d0 = tx.poll_send().unwrap();
        let d1 = tx.poll_send().unwrap();
        let d2 = tx.poll_send().unwrap();
        rx.on_receive_pkt(d2);
        assert!(rx.poll_deliver().is_none());
        rx.on_receive_pkt(d0);
        rx.on_receive_pkt(d1);
        let ids: Vec<u64> =
            std::iter::from_fn(|| rx.poll_deliver().flatten().map(|p| p.word())).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn loss_recovered_by_retransmission() {
        let mut tx = SlidingWindowTx::new(2);
        let mut rx = SlidingWindowRx::new(2);
        tx.on_send_msg(None);
        let _lost = tx.poll_send().unwrap();
        tx.on_tick(); // retransmit round
        let d0 = tx.poll_send().unwrap();
        rx.on_receive_pkt(d0);
        assert_eq!(rx.poll_deliver(), Some(None));
        tx.on_receive_pkt(rx.poll_send().unwrap());
        assert_eq!(tx.base(), 1);
    }

    #[test]
    fn duplicate_outside_window_is_ignored() {
        let w = 2;
        let mut tx = SlidingWindowTx::new(w);
        let mut rx = SlidingWindowRx::new(w);
        // Deliver 0 and 1, keeping stale copies.
        let mut stale = Vec::new();
        for _ in 0..2u64 {
            tx.on_send_msg(None);
            let fresh = tx.poll_send().unwrap();
            tx.on_tick();
            stale.push(tx.poll_send().unwrap());
            rx.on_receive_pkt(fresh);
            rx.poll_deliver().unwrap();
            while let Some(a) = rx.poll_send() {
                tx.on_receive_pkt(a);
            }
        }
        // Stale copy of 0: header 0, expected = 2 (mod 4 = 2), delta = 2 ≥ w
        // → ignored.
        rx.on_receive_pkt(stale[0]);
        assert!(rx.poll_deliver().is_none());
        assert_eq!(rx.next_expected(), 2);
    }

    #[test]
    fn deep_replay_aliases_and_breaks_dl1() {
        // After a full modulus cycle, a stale copy aliases into the window:
        // the failure mode the falsifier exploits (and the E9 crossover).
        let w = 2;
        let modulus = 4u64;
        let (mut tx, mut rx) = SlidingWindow::new(w).make();
        let mut stale0 = None;
        for i in 0..modulus {
            tx.on_send_msg(None);
            let fresh = tx.poll_send().unwrap();
            if i == 0 {
                tx.on_tick();
                stale0 = tx.poll_send();
            }
            rx.on_receive_pkt(fresh);
            rx.poll_deliver().unwrap();
            while let Some(a) = rx.poll_send() {
                tx.on_receive_pkt(a);
            }
        }
        // Receiver expects 4 (header 0). The stale copy of 0 has header 0:
        // delta = 0 < w → phantom delivery of "message 4".
        rx.on_receive_pkt(stale0.unwrap());
        assert!(rx.poll_deliver().is_some(), "aliasing reproduced");
    }

    #[test]
    fn window_gates_readiness() {
        let mut tx = SlidingWindowTx::new(2);
        assert!(tx.ready());
        tx.on_send_msg(None);
        tx.on_send_msg(None);
        assert!(!tx.ready());
        // Cumulative ack for one message reopens the window.
        tx.on_receive_pkt(Packet::header_only(Header::new(1)));
        assert!(tx.ready());
        assert_eq!(tx.base(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_window() {
        let _ = SlidingWindow::new(0);
    }
}
