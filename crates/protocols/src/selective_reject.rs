//! Selective reject (NAK-based retransmission) — the third classic
//! pipelined ARQ flavour.
//!
//! The receiver buffers out-of-order arrivals like the selective-repeat
//! [`SlidingWindow`](crate::SlidingWindow), but drives retransmission with
//! explicit *negative* acknowledgements: when an arrival reveals a gap, it
//! NAKs the missing number and the transmitter resends exactly that
//! message, rather than blindly re-flooding the window on a timer. Over
//! lossy FIFO channels this is the most packet-frugal of the three ARQ
//! protocols here; its modular headers alias under deep replay exactly
//! like the others (another Theorem 3.1 victim).
//!
//! Backward headers encode `ack mod M` and `NAK(s) = M + (s mod M)` — still
//! a fixed alphabet of `2M`.

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, HeaderBound, Receiver, Recoverable, Transmitter,
};
use crate::sequence::varint_bytes;
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Factory for the selective-reject protocol.
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{DataLink, HeaderBound, SelectiveReject};
///
/// let proto = SelectiveReject::new(4);
/// assert_eq!(proto.forward_headers(), HeaderBound::Fixed(8)); // M = 2w
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectiveReject {
    window: u32,
}

impl SelectiveReject {
    /// Creates a factory with window size `window` (modulus `2·window`).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SelectiveReject { window }
    }

    /// The window size `w`.
    pub fn window(&self) -> u32 {
        self.window
    }
}

impl DataLink for SelectiveReject {
    fn name(&self) -> String {
        format!("selective-reject(w={})", self.window)
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::Fixed(self.window * 2)
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(SelectiveRejectTx::new(self.window)),
            Box::new(SelectiveRejectRx::new(self.window)),
        )
    }
}

/// Transmitter automaton of selective reject.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct SelectiveRejectTx {
    window: u64,
    modulus: u64,
    base: u64,
    next: u64,
    unacked: BTreeMap<u64, Option<Payload>>,
    /// Retransmissions requested by NAKs, FIFO.
    nak_queue: VecDeque<u64>,
    outbox: VecDeque<Packet>,
    /// Ticks since the last cumulative-ack progress; drives the slow
    /// fallback retransmission of the window base (NAKs themselves can be
    /// lost).
    stall_ticks: u32,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for SelectiveRejectTx {
    fn clone(&self) -> Self {
        SelectiveRejectTx {
            window: self.window,
            modulus: self.modulus,
            base: self.base,
            next: self.next,
            unacked: self.unacked.clone(),
            nak_queue: self.nak_queue.clone(),
            outbox: self.outbox.clone(),
            stall_ticks: self.stall_ticks,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.window.clone_from(&source.window);
        self.modulus.clone_from(&source.modulus);
        self.base.clone_from(&source.base);
        self.next.clone_from(&source.next);
        self.unacked.clone_from(&source.unacked);
        self.nak_queue.clone_from(&source.nak_queue);
        self.outbox.clone_from(&source.outbox);
        self.stall_ticks.clone_from(&source.stall_ticks);
    }
}

const STALL_RESEND: u32 = 4;

impl SelectiveRejectTx {
    /// Creates the automaton with window `w`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SelectiveRejectTx {
            window: u64::from(window),
            modulus: u64::from(window) * 2,
            base: 0,
            next: 0,
            unacked: BTreeMap::new(),
            nak_queue: VecDeque::new(),
            outbox: VecDeque::new(),
            stall_ticks: 0,
        }
    }

    /// Oldest unacknowledged full sequence number.
    pub fn base(&self) -> u64 {
        self.base
    }

    fn packet_for(&self, seq: u64, payload: Option<Payload>) -> Packet {
        Packet::from_parts(Header::new((seq % self.modulus) as u32), payload)
    }

    /// Maps a modular number from an ack/NAK back into the outstanding
    /// window, if it denotes an unacked message.
    fn resolve(&self, modular: u64) -> Option<u64> {
        let delta = (modular + self.modulus - self.base % self.modulus) % self.modulus;
        let full = self.base + delta;
        (full < self.next).then_some(full)
    }
}

impl Recoverable for SelectiveRejectTx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, SelectiveRejectTx::new(self.window as u32));
    }
}

impl Transmitter for SelectiveRejectTx {
    fn on_send_msg(&mut self, payload: Option<Payload>) {
        debug_assert!(self.ready(), "send_msg while window full");
        let seq = self.next;
        self.next += 1;
        self.unacked.insert(seq, payload);
        let pkt = self.packet_for(seq, payload);
        self.outbox.push_back(pkt);
    }

    fn on_receive_pkt(&mut self, p: Packet) {
        let idx = u64::from(p.header().index());
        if idx < self.modulus {
            // Cumulative ack: receiver's next expected, mod M.
            let delta = (idx + self.modulus - self.base % self.modulus) % self.modulus;
            if delta > 0 && delta <= self.next - self.base {
                self.base += delta;
                self.unacked = self.unacked.split_off(&self.base);
                self.stall_ticks = 0;
            }
        } else {
            // NAK for a specific outstanding message.
            if let Some(full) = self.resolve(idx - self.modulus) {
                if self.unacked.contains_key(&full) {
                    self.nak_queue.push_back(full);
                }
            }
        }
    }

    fn on_tick(&mut self) {
        if let Some(full) = self.nak_queue.pop_front() {
            if let Some(&payload) = self.unacked.get(&full) {
                let pkt = self.packet_for(full, payload);
                self.outbox.push_back(pkt);
            }
            return;
        }
        // Fallback: if nothing is moving, resend the window base (the
        // receiver cannot NAK a loss it has no later arrival to reveal).
        if !self.unacked.is_empty() {
            self.stall_ticks += 1;
            if self.stall_ticks >= STALL_RESEND && self.outbox.is_empty() {
                self.stall_ticks = 0;
                if let Some((&seq, &payload)) = self.unacked.iter().next() {
                    let pkt = self.packet_for(seq, payload);
                    self.outbox.push_back(pkt);
                }
            }
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
            + self.nak_queue.len() * 8
            + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

/// Receiver automaton of selective reject.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct SelectiveRejectRx {
    window: u64,
    modulus: u64,
    next_expected: u64,
    buffered: BTreeMap<u64, Option<Payload>>,
    /// Full sequence numbers already NAKed (re-NAKed only when a new gap
    /// observation arrives).
    naked: BTreeSet<u64>,
    outbox: VecDeque<Packet>,
    deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for SelectiveRejectRx {
    fn clone(&self) -> Self {
        SelectiveRejectRx {
            window: self.window,
            modulus: self.modulus,
            next_expected: self.next_expected,
            buffered: self.buffered.clone(),
            naked: self.naked.clone(),
            outbox: self.outbox.clone(),
            deliveries: self.deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.window.clone_from(&source.window);
        self.modulus.clone_from(&source.modulus);
        self.next_expected.clone_from(&source.next_expected);
        self.buffered.clone_from(&source.buffered);
        self.naked.clone_from(&source.naked);
        self.outbox.clone_from(&source.outbox);
        self.deliveries.clone_from(&source.deliveries);
    }
}

impl SelectiveRejectRx {
    /// Creates the automaton with window `w`.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SelectiveRejectRx {
            window: u64::from(window),
            modulus: u64::from(window) * 2,
            next_expected: 0,
            buffered: BTreeMap::new(),
            naked: BTreeSet::new(),
            outbox: VecDeque::new(),
            deliveries: VecDeque::new(),
        }
    }

    /// Next full sequence number the receiver will deliver.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    fn ack(&mut self) {
        self.outbox.push_back(Packet::header_only(Header::new(
            (self.next_expected % self.modulus) as u32,
        )));
    }

    fn nak(&mut self, full: u64) {
        let h = self.modulus + full % self.modulus;
        self.outbox
            .push_back(Packet::header_only(Header::new(h as u32)));
    }
}

impl Recoverable for SelectiveRejectRx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, SelectiveRejectRx::new(self.window as u32));
    }
}

impl Receiver for SelectiveRejectRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        let s = u64::from(p.header().index());
        let delta = (s + self.modulus - self.next_expected % self.modulus) % self.modulus;
        if delta < self.window {
            let full = self.next_expected + delta;
            self.buffered.insert(full, p.payload());
            // NAK every gap below this arrival (once each).
            let gaps: Vec<u64> = (self.next_expected..full)
                .filter(|g| !self.buffered.contains_key(g) && !self.naked.contains(g))
                .collect();
            for g in gaps {
                self.naked.insert(g);
                self.nak(g);
            }
            while let Some(payload) = self.buffered.remove(&self.next_expected) {
                self.deliveries.push_back(payload);
                self.naked.remove(&self.next_expected);
                self.next_expected += 1;
            }
        }
        self.ack();
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
            + self.naked.len() * 8
            + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump(tx: &mut SelectiveRejectTx, rx: &mut SelectiveRejectRx) {
        while let Some(d) = tx.poll_send() {
            rx.on_receive_pkt(d);
        }
        while let Some(a) = rx.poll_send() {
            tx.on_receive_pkt(a);
        }
    }

    #[test]
    fn pipeline_over_perfect_channel() {
        let mut tx = SelectiveRejectTx::new(4);
        let mut rx = SelectiveRejectRx::new(4);
        let mut delivered = 0u64;
        let mut sent = 0u64;
        while delivered < 25 {
            while tx.ready() && sent < 25 {
                tx.on_send_msg(Some(Payload::new(sent)));
                sent += 1;
            }
            pump(&mut tx, &mut rx);
            while let Some(m) = rx.poll_deliver() {
                assert_eq!(m, Some(Payload::new(delivered)));
                delivered += 1;
            }
            tx.on_tick();
        }
        assert_eq!(tx.base(), 25);
    }

    #[test]
    fn gap_triggers_exactly_one_nak_and_one_retransmission() {
        let mut tx = SelectiveRejectTx::new(4);
        let mut rx = SelectiveRejectRx::new(4);
        for i in 0..3 {
            tx.on_send_msg(Some(Payload::new(i)));
        }
        let d0 = tx.poll_send().unwrap();
        let _lost_d1 = tx.poll_send().unwrap();
        let d2 = tx.poll_send().unwrap();
        rx.on_receive_pkt(d0);
        rx.on_receive_pkt(d2); // reveals the gap at 1
                               // Outbox: ack, NAK(1), ack.
        let naks: Vec<Packet> = std::iter::from_fn(|| rx.poll_send()).collect();
        let nak_count = naks
            .iter()
            .filter(|p| u64::from(p.header().index()) >= 8)
            .count();
        assert_eq!(nak_count, 1, "exactly one NAK for the one gap");
        for a in naks {
            tx.on_receive_pkt(a);
        }
        // The NAK drives a single retransmission of message 1.
        tx.on_tick();
        let re = tx.poll_send().expect("retransmission");
        assert_eq!(re.header().index(), 1);
        rx.on_receive_pkt(re);
        let ids: Vec<u64> =
            std::iter::from_fn(|| rx.poll_deliver().flatten().map(|p| p.word())).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn repeated_gap_observations_do_not_renak() {
        let mut rx = SelectiveRejectRx::new(4);
        rx.on_receive_pkt(Packet::header_only(Header::new(1))); // gap at 0
        rx.on_receive_pkt(Packet::header_only(Header::new(2))); // gap still at 0
        let naks = std::iter::from_fn(|| rx.poll_send())
            .filter(|p| u64::from(p.header().index()) >= 8)
            .count();
        assert_eq!(naks, 1, "the same gap is NAKed once");
    }

    #[test]
    fn stall_fallback_recovers_tail_loss() {
        // Lose the only packet: no later arrival can reveal the gap, so
        // the stall timer must resend.
        let mut tx = SelectiveRejectTx::new(2);
        let mut rx = SelectiveRejectRx::new(2);
        tx.on_send_msg(None);
        let _lost = tx.poll_send().unwrap();
        for _ in 0..STALL_RESEND {
            tx.on_tick();
        }
        pump(&mut tx, &mut rx);
        assert_eq!(rx.poll_deliver(), Some(None));
    }

    #[test]
    fn frugal_over_loss_compared_to_go_back_n() {
        // Same loss pattern, window 4: selective reject retransmits one
        // packet where go-back-n resends the whole window.
        use crate::go_back_n::{GoBackNRx, GoBackNTx};
        let run_srej = || {
            let mut tx = SelectiveRejectTx::new(4);
            let mut rx = SelectiveRejectRx::new(4);
            let mut sent_packets = 0u64;
            for _ in 0..4u64 {
                tx.on_send_msg(None);
            }
            let mut first = true;
            while let Some(d) = tx.poll_send() {
                sent_packets += 1;
                if first {
                    first = false; // drop the first packet
                } else {
                    rx.on_receive_pkt(d);
                }
            }
            // Drive to completion.
            for _ in 0..20 {
                while let Some(a) = rx.poll_send() {
                    tx.on_receive_pkt(a);
                }
                tx.on_tick();
                while let Some(d) = tx.poll_send() {
                    sent_packets += 1;
                    rx.on_receive_pkt(d);
                }
                if tx.base() == 4 {
                    break;
                }
            }
            assert_eq!(tx.base(), 4);
            sent_packets
        };
        let run_gbn = || {
            let mut tx = GoBackNTx::new(4);
            let mut rx = GoBackNRx::new(4);
            let mut sent_packets = 0u64;
            for _ in 0..4u64 {
                tx.on_send_msg(None);
            }
            let mut first = true;
            while let Some(d) = tx.poll_send() {
                sent_packets += 1;
                if first {
                    first = false;
                } else {
                    rx.on_receive_pkt(d);
                }
            }
            for _ in 0..20 {
                while let Some(a) = rx.poll_send() {
                    tx.on_receive_pkt(a);
                }
                tx.on_tick();
                while let Some(d) = tx.poll_send() {
                    sent_packets += 1;
                    rx.on_receive_pkt(d);
                }
                if tx.base() == 4 {
                    break;
                }
            }
            assert_eq!(tx.base(), 4);
            sent_packets
        };
        assert!(
            run_srej() < run_gbn(),
            "selective reject should beat go-back-n under single loss"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_window() {
        let _ = SelectiveReject::new(0);
    }
}
