//! A self-stabilizing data-link protocol following the counting principle of
//! Dolev, Dubois, Potop-Butucaru & Tixeuil, *Stabilizing Data-Link over
//! non-FIFO Channels with Optimal Fault-Resilience* (arXiv:1011.3632).
//!
//! Each message round travels under a fresh unbounded counter; the receiver
//! delivers a counter it has not passed only after sighting **`capacity + 1`
//! identical copies** of it. Whatever junk a corrupted initial configuration
//! holds — in either channel or in the automata's queues — can therefore
//! never trigger a delivery as long as no junk value appears more than
//! `capacity` times, which is exactly DDPT's fault-resilience trade-off: the
//! counting capacity must exceed the maximum multiplicity of corrupted
//! copies. The source paper's impossibility result (and Mansour–Schieber's
//! bounded-header intractability, which it extends) shows bounded headers
//! cannot achieve this, so the counters here are honestly unbounded
//! ([`HeaderBound::PerMessage`]).
//!
//! This implementation is a faithful reconstruction of the *principle*, not
//! a line-by-line transcription of DDPT's automata: rounds are keyed by full
//! packet value (counter + payload), acknowledgements carry the receiver's
//! last-delivered counter, and the transmitter adopts higher foreign
//! counters only when doing so cannot double-deliver (see
//! [`StabilizingDlTx::on_receive_pkt`]).

use crate::api::{
    BoxedReceiver, BoxedTransmitter, DataLink, HeaderBound, Receiver, Recoverable, Transmitter,
};
use nonfifo_ioa::{Header, Packet, Payload};
use std::collections::{BTreeMap, VecDeque};

/// Default counting capacity: delivery needs 5 identical sightings, so
/// corruption multiplicity up to 4 is tolerated (the workspace's scramble
/// plans inject at most 3 copies of any value).
pub const DEFAULT_CAPACITY: u32 = 4;

/// Counters adopted from acknowledgements are clamped here so the `+ 1`
/// re-key can never wrap `u32`, whatever junk an adversary acks with.
const COUNTER_CLAMP: u32 = 1 << 30;

/// Factory for the stabilizing data-link protocol.
///
/// # Example
///
/// ```
/// use nonfifo_protocols::{DataLink, HeaderBound, StabilizingDl};
///
/// let proto = StabilizingDl::new();
/// assert_eq!(proto.forward_headers(), HeaderBound::PerMessage);
/// let (_tx, _rx) = proto.make();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizingDl {
    capacity: u32,
}

impl StabilizingDl {
    /// Creates the factory with [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        StabilizingDl {
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Creates the factory with an explicit counting capacity: the receiver
    /// delivers after `capacity + 1` identical sightings, tolerating
    /// corruption multiplicity up to `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (a capacity-0 receiver delivers on first
    /// sighting and stabilizes against nothing).
    pub fn with_capacity(capacity: u32) -> Self {
        assert!(capacity >= 1, "counting capacity must be at least 1");
        StabilizingDl { capacity }
    }

    /// The counting capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

impl Default for StabilizingDl {
    fn default() -> Self {
        StabilizingDl::new()
    }
}

impl DataLink for StabilizingDl {
    fn name(&self) -> String {
        format!("stabilizing-dl(c={})", self.capacity)
    }

    fn forward_headers(&self) -> HeaderBound {
        HeaderBound::PerMessage
    }

    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (
            Box::new(StabilizingDlTx::new(self.capacity)),
            Box::new(StabilizingDlRx::new(self.capacity)),
        )
    }
}

/// Transmitter automaton of the stabilizing data-link protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct StabilizingDlTx {
    capacity: u32,
    seq: u32,
    /// The unacknowledged message's payload, while one is outstanding.
    pending: Option<Option<Payload>>,
    copies_sent: u32,
    outbox: VecDeque<Packet>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for StabilizingDlTx {
    fn clone(&self) -> Self {
        StabilizingDlTx {
            capacity: self.capacity,
            seq: self.seq,
            pending: self.pending,
            copies_sent: self.copies_sent,
            outbox: self.outbox.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.capacity.clone_from(&source.capacity);
        self.seq.clone_from(&source.seq);
        self.pending.clone_from(&source.pending);
        self.copies_sent.clone_from(&source.copies_sent);
        self.outbox.clone_from(&source.outbox);
    }
}

impl StabilizingDlTx {
    /// Creates the automaton with the given counting capacity.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity >= 1, "counting capacity must be at least 1");
        StabilizingDlTx {
            capacity,
            seq: 0,
            pending: None,
            copies_sent: 0,
            outbox: VecDeque::new(),
        }
    }

    /// The current round counter.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    fn emit_copy(&mut self, payload: Option<Payload>) {
        self.outbox
            .push_back(Packet::from_parts(Header::new(self.seq), payload));
        self.copies_sent = self.copies_sent.saturating_add(1);
    }
}

impl Recoverable for StabilizingDlTx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, Self::new(self.capacity));
    }
}

impl Transmitter for StabilizingDlTx {
    fn on_send_msg(&mut self, payload: Option<Payload>) {
        debug_assert!(self.pending.is_none(), "send_msg while not ready");
        self.seq += 1;
        self.pending = Some(payload);
        self.copies_sent = 0;
        self.emit_copy(payload);
    }

    /// Acknowledgements carry the receiver's last-delivered counter `a`.
    ///
    /// - `a == seq`: the current round was delivered — complete it.
    /// - `a < seq`: stale, ignore.
    /// - `a > seq`: the receiver claims to be *ahead* of us. From any
    ///   state the scramble generator can produce this is junk (the real
    ///   receiver's counter never exceeds the transmitter's), but from a
    ///   truly arbitrary state it can be genuine, and ignoring it would
    ///   deadlock the round: the receiver only delivers counters above its
    ///   own. So the transmitter *adopts* `a` and re-keys the pending round
    ///   above it — but only while `copies_sent ≤ capacity`. The guard is
    ///   what keeps adoption single-delivery-safe: at most `capacity` copies
    ///   of the old key exist, so the old key can never reach the receiver's
    ///   `capacity + 1` threshold, and the message is delivered exactly once
    ///   (under the new key). Once `copies_sent > capacity` the old key may
    ///   already be deliverable and adoption could double-deliver, so the
    ///   ack is dropped instead — safety over junk-tolerance.
    fn on_receive_pkt(&mut self, p: Packet) {
        let a = p.header().index();
        if self.pending.is_some() {
            if a == self.seq {
                self.pending = None;
                self.copies_sent = 0;
                self.outbox.clear();
            } else if a > self.seq && self.copies_sent <= self.capacity {
                self.seq = a.min(COUNTER_CLAMP) + 1;
                self.copies_sent = 0;
                self.outbox.clear();
                if let Some(payload) = self.pending {
                    self.emit_copy(payload);
                }
            }
        } else if a > self.seq {
            // Idle adoption: keep our counter above anything the receiver
            // has passed, so the next round's counter is fresh.
            self.seq = a.min(COUNTER_CLAMP);
        }
    }

    fn on_tick(&mut self) {
        // Retransmit one copy per tick while unacknowledged; the receiver
        // needs capacity + 1 sightings before it delivers.
        if let Some(payload) = self.pending {
            if self.outbox.is_empty() {
                self.emit_copy(payload);
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
        // Counter + copies counter + pending flag; the unbounded counter is
        // the Θ(log n) space the impossibility results charge for.
        4 + 4 + 1 + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

/// Receiver automaton of the stabilizing data-link protocol.
#[derive(Debug, Hash, PartialEq, Eq)]
pub struct StabilizingDlRx {
    capacity: u32,
    /// Last delivered counter; only counters above it are live.
    highest: u32,
    /// Sighting counts per full packet value, in a `BTreeMap` so iteration
    /// (pruning, fingerprinting) is deterministic.
    counts: BTreeMap<Packet, u32>,
    outbox: VecDeque<Packet>,
    deliveries: VecDeque<Option<Payload>>,
}

/// Manual `Clone` so `clone_from` reuses this automaton's buffers — the
/// explorers refill their warm automata in place via
/// `assign_from`, and the derived `clone_from` would reallocate instead.
impl Clone for StabilizingDlRx {
    fn clone(&self) -> Self {
        StabilizingDlRx {
            capacity: self.capacity,
            highest: self.highest,
            counts: self.counts.clone(),
            outbox: self.outbox.clone(),
            deliveries: self.deliveries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.capacity.clone_from(&source.capacity);
        self.highest.clone_from(&source.highest);
        self.counts.clone_from(&source.counts);
        self.outbox.clone_from(&source.outbox);
        self.deliveries.clone_from(&source.deliveries);
    }
}

impl StabilizingDlRx {
    /// Creates the automaton with the given counting capacity.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity >= 1, "counting capacity must be at least 1");
        StabilizingDlRx {
            capacity,
            highest: 0,
            counts: BTreeMap::new(),
            outbox: VecDeque::new(),
            deliveries: VecDeque::new(),
        }
    }

    /// The last delivered counter.
    pub fn highest(&self) -> u32 {
        self.highest
    }
}

impl Recoverable for StabilizingDlRx {
    fn crash_amnesia(&mut self) {
        crate::api::amnesia_reboot(self, Self::new(self.capacity));
    }
}

impl Receiver for StabilizingDlRx {
    fn on_receive_pkt(&mut self, p: Packet) {
        let c = p.header().index();
        if c > self.highest {
            let n = self.counts.entry(p).or_insert(0);
            *n += 1;
            // The DDPT threshold: strictly more copies than the channel
            // capacity can hold means at least one is a fresh send.
            if *n > self.capacity {
                self.deliveries.push_back(p.payload());
                self.highest = c;
                // Counters at or below the new watermark are dead; dropping
                // their counts keeps state proportional to live junk.
                let highest = self.highest;
                self.counts.retain(|pkt, _| pkt.header().index() > highest);
            }
        }
        // Acknowledge with the last delivered counter (after any update, so
        // a completing round is confirmed immediately).
        self.outbox
            .push_back(Packet::header_only(Header::new(self.highest)));
    }

    fn poll_send(&mut self) -> Option<Packet> {
        self.outbox.pop_front()
    }

    fn poll_deliver(&mut self) -> Option<Option<Payload>> {
        self.deliveries.pop_front()
    }

    fn space_bytes(&self) -> usize {
        4 + 4
            + self.counts.len() * (std::mem::size_of::<Packet>() + 4)
            + self.outbox.len() * std::mem::size_of::<Packet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_round(tx: &mut BoxedTransmitter, rx: &mut BoxedReceiver, i: u64) {
        tx.on_send_msg(Some(Payload::new(i)));
        loop {
            if let Some(d) = tx.poll_send() {
                rx.on_receive_pkt(d);
            }
            while let Some(ack) = rx.poll_send() {
                tx.on_receive_pkt(ack);
            }
            if let Some(m) = rx.poll_deliver() {
                assert_eq!(m, Some(Payload::new(i)));
                assert!(tx.ready(), "ack should complete the round");
                return;
            }
            tx.on_tick();
        }
    }

    #[test]
    fn happy_path_delivers_after_capacity_plus_one_copies() {
        let (mut tx, mut rx) = StabilizingDl::new().make();
        for i in 0..3u64 {
            run_round(&mut tx, &mut rx, i);
        }
    }

    #[test]
    fn junk_below_threshold_never_delivers() {
        let mut rx = StabilizingDlRx::new(DEFAULT_CAPACITY);
        let junk = Packet::header_only(Header::new(77));
        for _ in 0..DEFAULT_CAPACITY {
            rx.on_receive_pkt(junk);
            assert!(rx.poll_deliver().is_none());
            // Still acks its watermark on every sighting.
            assert_eq!(rx.poll_send().unwrap().header(), Header::new(0));
        }
        // The capacity+1-th copy of the *same* value would deliver — that is
        // the resilience boundary, not a bug.
        rx.on_receive_pkt(junk);
        assert!(rx.poll_deliver().is_some());
    }

    #[test]
    fn distinct_junk_values_do_not_pool() {
        let mut rx = StabilizingDlRx::new(DEFAULT_CAPACITY);
        for h in 1..=20u32 {
            rx.on_receive_pkt(Packet::header_only(Header::new(h)));
        }
        assert!(rx.poll_deliver().is_none());
    }

    #[test]
    fn stale_ack_is_ignored_and_junk_ack_adopted_safely() {
        let mut tx = StabilizingDlTx::new(2);
        tx.on_send_msg(None); // seq = 1
        assert_eq!(tx.poll_send().unwrap().header(), Header::new(1));
        // Stale ack (a < seq): ignored.
        tx.on_receive_pkt(Packet::header_only(Header::new(0)));
        assert!(!tx.ready());
        // Foreign higher ack with copies_sent = 1 ≤ capacity: adopt, re-key.
        tx.on_receive_pkt(Packet::header_only(Header::new(10)));
        assert_eq!(tx.seq(), 11);
        assert_eq!(tx.poll_send().unwrap().header(), Header::new(11));
        assert!(!tx.ready());
        // Completing ack for the new key.
        tx.on_receive_pkt(Packet::header_only(Header::new(11)));
        assert!(tx.ready());
    }

    #[test]
    fn adoption_refused_once_old_key_may_be_deliverable() {
        let capacity = 2;
        let mut tx = StabilizingDlTx::new(capacity);
        tx.on_send_msg(None);
        // Drain capacity + 1 copies: the old key is now deliverable.
        for _ in 0..capacity {
            assert!(tx.poll_send().is_some());
            tx.on_tick();
        }
        assert!(tx.poll_send().is_some());
        // A higher ack must now be refused (adoption could double-deliver).
        tx.on_receive_pkt(Packet::header_only(Header::new(10)));
        assert_eq!(tx.seq(), 1);
        assert!(!tx.ready());
    }

    #[test]
    fn idle_adoption_keeps_counters_fresh() {
        let mut tx = StabilizingDlTx::new(DEFAULT_CAPACITY);
        // Junk ack while idle: counter jumps so the next round is above it.
        tx.on_receive_pkt(Packet::header_only(Header::new(500)));
        assert_eq!(tx.seq(), 500);
        tx.on_send_msg(None);
        assert_eq!(tx.poll_send().unwrap().header(), Header::new(501));
    }

    #[test]
    fn adopted_counters_are_clamped() {
        let mut tx = StabilizingDlTx::new(DEFAULT_CAPACITY);
        tx.on_receive_pkt(Packet::header_only(Header::new(u32::MAX - 1)));
        assert_eq!(tx.seq(), COUNTER_CLAMP);
        tx.on_send_msg(None);
        tx.on_receive_pkt(Packet::header_only(Header::new(u32::MAX)));
        assert_eq!(tx.seq(), COUNTER_CLAMP + 1); // no wrap
    }

    #[test]
    fn delivered_counters_prune_dead_counts() {
        let mut rx = StabilizingDlRx::new(1);
        // Junk below the soon-to-move watermark.
        rx.on_receive_pkt(Packet::header_only(Header::new(2)));
        // Deliver counter 5 with 2 sightings (capacity 1).
        let five = Packet::header_only(Header::new(5));
        rx.on_receive_pkt(five);
        rx.on_receive_pkt(five);
        assert!(rx.poll_deliver().is_some());
        assert_eq!(rx.highest(), 5);
        assert!(rx.counts.is_empty(), "counts pruned: {:?}", rx.counts);
    }

    #[test]
    fn amnesia_resets_to_initial_state() {
        let (mut tx, mut rx) = StabilizingDl::new().make();
        run_round(&mut tx, &mut rx, 0);
        let fresh = StabilizingDl::new().make();
        tx.crash_amnesia();
        rx.crash_amnesia();
        assert!(tx.same_state(fresh.0.as_ref()));
        assert!(rx.same_state(fresh.1.as_ref()));
    }

    #[test]
    fn payload_is_carried() {
        let (mut tx, mut rx) = StabilizingDl::with_capacity(1).make();
        tx.on_send_msg(Some(Payload::new(42)));
        rx.on_receive_pkt(tx.poll_send().unwrap());
        tx.on_tick();
        rx.on_receive_pkt(tx.poll_send().unwrap());
        assert_eq!(rx.poll_deliver(), Some(Some(Payload::new(42))));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = StabilizingDl::with_capacity(0);
    }

    #[test]
    fn factory_metadata() {
        let proto = StabilizingDl::with_capacity(7);
        assert_eq!(proto.name(), "stabilizing-dl(c=7)");
        assert_eq!(proto.capacity(), 7);
        assert_eq!(proto.forward_headers(), HeaderBound::PerMessage);
        assert!(!proto.uses_ghosts());
    }
}
