//! The fully adversarial non-FIFO channel of the lower-bound proofs.

use crate::channel::{Channel, ChannelIntrospect, FaultObserver};
use crate::multiset::PacketMultiset;
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use std::collections::VecDeque;

/// What the channel does with freshly sent copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Park every fresh copy in the in-transit multiset; nothing is
    /// delivered unless the adversary explicitly releases it. This is the
    /// default, matching the proofs where the channel "delays the packets
    /// arbitrarily".
    Park,
    /// Deliver every fresh copy immediately, FIFO. Parked copies stay
    /// parked.
    Immediate,
    /// The "optimal behaviour from this point on" of Theorem 2.1's proof:
    /// copies minted after the watermark are delivered immediately, while
    /// copies sent earlier (the delayed pool) remain parked.
    OptimalSince(
        /// Copies with id `≥` this watermark are fresh.
        CopyId,
    ),
}

/// A non-FIFO physical channel under full adversary control.
///
/// Fresh sends are routed according to the current [`DeliveryMode`];
/// delayed copies are individually addressable, which is exactly the power
/// the paper grants the physical layer ("at each point in time there is a
/// set of packets which are in transition… the extension β can be
/// *simulated* by the physical layer, simply by replacing each packet which
/// is sent by `Aᵗ` in β by the respective packet in transition").
///
/// PL1 holds by construction; PL2 is the *caller's* obligation — an
/// adversary that parks forever is only legal against the finite
/// experiments we run, never as a claim about infinite executions.
///
/// # Example
///
/// ```
/// use nonfifo_channel::{AdversarialChannel, Channel, DeliveryMode};
/// use nonfifo_ioa::{Dir, Header, Packet};
///
/// let mut ch = AdversarialChannel::parked(Dir::Forward);
/// let p = Packet::header_only(Header::new(0));
/// let old = ch.send(p);           // parked
/// ch.set_mode(DeliveryMode::Immediate);
/// let fresh = ch.send(p);         // queued for delivery
/// assert_eq!(ch.poll_deliver(), Some((p, fresh)));
/// // Replay the stale copy whenever the adversary chooses:
/// ch.release_copy(old).unwrap();
/// assert_eq!(ch.poll_deliver(), Some((p, old)));
/// ```
#[derive(Debug)]
pub struct AdversarialChannel {
    dir: Dir,
    mode: DeliveryMode,
    parked: PacketMultiset,
    queue: VecDeque<(Packet, CopyId)>,
    drops: Vec<(Packet, CopyId)>,
    next_copy: u64,
    sent: u64,
    delivered: u64,
    dropped: u64,
}

impl Clone for AdversarialChannel {
    fn clone(&self) -> Self {
        AdversarialChannel {
            dir: self.dir,
            mode: self.mode,
            parked: self.parked.clone(),
            queue: self.queue.clone(),
            drops: self.drops.clone(),
            next_copy: self.next_copy,
            sent: self.sent,
            delivered: self.delivered,
            dropped: self.dropped,
        }
    }

    /// Fieldwise `clone_from` so the explorers can refill a warm trial
    /// system's channel without reallocating its buffers.
    fn clone_from(&mut self, source: &Self) {
        self.dir = source.dir;
        self.mode = source.mode;
        self.parked.clone_from(&source.parked);
        self.queue.clone_from(&source.queue);
        self.drops.clone_from(&source.drops);
        self.next_copy = source.next_copy;
        self.sent = source.sent;
        self.delivered = source.delivered;
        self.dropped = source.dropped;
    }
}

impl AdversarialChannel {
    /// Creates a channel in [`DeliveryMode::Park`].
    pub fn parked(dir: Dir) -> Self {
        AdversarialChannel::with_mode(dir, DeliveryMode::Park)
    }

    /// Creates a channel in [`DeliveryMode::Immediate`].
    pub fn immediate(dir: Dir) -> Self {
        AdversarialChannel::with_mode(dir, DeliveryMode::Immediate)
    }

    /// Creates a channel with the given mode.
    pub fn with_mode(dir: Dir, mode: DeliveryMode) -> Self {
        AdversarialChannel {
            dir,
            mode,
            parked: PacketMultiset::new(),
            queue: VecDeque::new(),
            drops: Vec::new(),
            next_copy: 0,
            sent: 0,
            delivered: 0,
            dropped: 0,
        }
    }

    /// The current delivery mode.
    pub fn mode(&self) -> DeliveryMode {
        self.mode
    }

    /// Switches delivery mode. Parked copies are unaffected.
    pub fn set_mode(&mut self, mode: DeliveryMode) {
        self.mode = mode;
    }

    /// The watermark that [`DeliveryMode::OptimalSince`] should use to mean
    /// "everything sent from now on is fresh".
    pub fn watermark(&self) -> CopyId {
        CopyId::from_raw(self.next_copy)
    }

    /// Switches to optimal-from-now behaviour (Theorem 2.1's extension γ):
    /// future sends delivered immediately, the current delayed pool frozen.
    pub fn optimal_from_now(&mut self) {
        self.mode = DeliveryMode::OptimalSince(self.watermark());
    }

    /// The delayed pool.
    pub fn parked_multiset(&self) -> &PacketMultiset {
        &self.parked
    }

    /// Releases a specific delayed copy for delivery.
    ///
    /// # Errors
    ///
    /// Returns `Err(copy)` if the copy is not currently delayed.
    pub fn release_copy(&mut self, copy: CopyId) -> Result<(), CopyId> {
        match self.parked.take_copy(copy) {
            Some(packet) => {
                self.queue.push_back((packet, copy));
                Ok(())
            }
            None => Err(copy),
        }
    }

    /// Releases the oldest delayed copy of the exact packet value `p`
    /// (the replay primitive). Returns the released copy.
    pub fn release_oldest_of_packet(&mut self, p: Packet) -> Option<(Packet, CopyId)> {
        let hit = self.parked.take_oldest_of_packet(p)?;
        self.queue.push_back(hit);
        Some(hit)
    }

    /// Releases the oldest delayed copy of `p` *minted before* `watermark`,
    /// if one exists. This is the lockstep-replay primitive of the
    /// Theorem 3.1 falsifier: substitute a genuinely stale copy for a fresh
    /// one, never the fresh copy itself.
    pub fn release_oldest_of_packet_before(
        &mut self,
        p: Packet,
        watermark: CopyId,
    ) -> Option<(Packet, CopyId)> {
        match self.parked.oldest_of_packet(p) {
            Some(copy) if copy < watermark => {
                self.release_copy(copy).expect("peeked copy is parked");
                Some((p, copy))
            }
            _ => None,
        }
    }

    /// Releases the oldest delayed copy with header `h`.
    pub fn release_oldest_of_header(&mut self, h: Header) -> Option<(Packet, CopyId)> {
        let hit = self.parked.take_oldest_of_header(h)?;
        self.queue.push_back(hit);
        Some(hit)
    }

    /// Releases every delayed copy, oldest first.
    pub fn release_all(&mut self) -> usize {
        let all = self.parked.drain_all();
        let n = all.len();
        self.queue.extend(all);
        n
    }

    /// Drops a specific delayed copy (deletes it forever).
    ///
    /// # Errors
    ///
    /// Returns `Err(copy)` if the copy is not currently delayed.
    pub fn drop_copy(&mut self, copy: CopyId) -> Result<(), CopyId> {
        match self.parked.take_copy(copy) {
            Some(packet) => {
                self.drops.push((packet, copy));
                self.dropped += 1;
                Ok(())
            }
            None => Err(copy),
        }
    }

    /// Drops the oldest delayed copy of `p`.
    pub fn drop_oldest_of_packet(&mut self, p: Packet) -> Option<CopyId> {
        let (packet, copy) = self.parked.take_oldest_of_packet(p)?;
        self.drops.push((packet, copy));
        self.dropped += 1;
        Some(copy)
    }

    /// Number of copies waiting in the delivery queue (released or routed
    /// by mode, not yet polled).
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Copies dropped so far.
    pub fn total_dropped(&self) -> u64 {
        self.dropped
    }

    /// True when nothing is in motion: no copy waits in the delivery queue
    /// and no drop is waiting to be drained. The only state such a channel
    /// holds beyond its counters is the delayed pool.
    pub fn is_at_rest(&self) -> bool {
        self.queue.is_empty() && self.drops.is_empty()
    }

    /// Puts the channel at rest with the given counters and delayed pool
    /// (see [`PacketMultiset::restore`] for `copies` and `digest`). Every
    /// copy is minted by [`send`](Channel::send), so the next copy id is
    /// `sent`. Direction and delivery mode are kept, and so are the
    /// buffers: refilling a warm channel does not allocate.
    pub fn restore_at_rest(
        &mut self,
        sent: u64,
        delivered: u64,
        dropped: u64,
        copies: impl IntoIterator<Item = (Packet, CopyId)>,
        digest: u64,
    ) {
        self.parked.restore(copies, digest);
        self.queue.clear();
        self.drops.clear();
        self.next_copy = sent;
        self.sent = sent;
        self.delivered = delivered;
        self.dropped = dropped;
    }

    /// Heap bytes currently reserved by this channel's buffers (capacities,
    /// not live lengths) — input to the explorer's frontier memory gauge.
    pub fn heap_bytes(&self) -> usize {
        self.parked.heap_bytes()
            + self.queue.capacity() * std::mem::size_of::<(Packet, CopyId)>()
            + self.drops.capacity() * std::mem::size_of::<(Packet, CopyId)>()
    }
}

impl Channel for AdversarialChannel {
    fn dir(&self) -> Dir {
        self.dir
    }

    fn send(&mut self, packet: Packet) -> CopyId {
        let copy = CopyId::from_raw(self.next_copy);
        self.next_copy += 1;
        self.sent += 1;
        let deliver_now = match self.mode {
            DeliveryMode::Park => false,
            DeliveryMode::Immediate => true,
            DeliveryMode::OptimalSince(mark) => copy >= mark,
        };
        if deliver_now {
            self.queue.push_back((packet, copy));
        } else {
            self.parked.insert(packet, copy);
        }
        copy
    }

    fn poll_deliver(&mut self) -> Option<(Packet, CopyId)> {
        let hit = self.queue.pop_front();
        if hit.is_some() {
            self.delivered += 1;
        }
        hit
    }

    fn in_transit_len(&self) -> usize {
        self.parked.len()
    }

    fn total_sent(&self) -> u64 {
        self.sent
    }

    fn total_delivered(&self) -> u64 {
        self.delivered
    }
}

impl ChannelIntrospect for AdversarialChannel {
    fn header_copies(&self, h: Header) -> usize {
        self.parked.header_copies(h)
    }

    fn packet_copies(&self, p: Packet) -> usize {
        self.parked.packet_copies(p)
    }

    fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>) {
        self.parked.count_headers_older_than(watermark, counts);
    }

    fn transit_census(&self) -> Vec<(Packet, usize)> {
        self.parked.census_with(self.queue.iter().map(|&(p, _)| p))
    }
}

impl FaultObserver for AdversarialChannel {
    fn drain_drops(&mut self) -> Vec<(Packet, CopyId)> {
        std::mem::take(&mut self.drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(h: u32) -> Packet {
        Packet::header_only(Header::new(h))
    }

    #[test]
    fn park_mode_parks() {
        let mut ch = AdversarialChannel::parked(Dir::Forward);
        ch.send(p(0));
        assert_eq!(ch.poll_deliver(), None);
        assert_eq!(ch.in_transit_len(), 1);
    }

    #[test]
    fn immediate_mode_delivers_fifo() {
        let mut ch = AdversarialChannel::immediate(Dir::Forward);
        let a = ch.send(p(0));
        let b = ch.send(p(1));
        assert_eq!(ch.poll_deliver(), Some((p(0), a)));
        assert_eq!(ch.poll_deliver(), Some((p(1), b)));
        assert_eq!(ch.poll_deliver(), None);
        assert_eq!(ch.total_delivered(), 2);
    }

    #[test]
    fn optimal_since_splits_old_and_new() {
        let mut ch = AdversarialChannel::parked(Dir::Forward);
        let old = ch.send(p(0));
        ch.optimal_from_now();
        let fresh = ch.send(p(0));
        assert_eq!(ch.poll_deliver(), Some((p(0), fresh)));
        assert_eq!(ch.poll_deliver(), None);
        assert_eq!(ch.in_transit_len(), 1);
        assert_eq!(ch.parked_multiset().packet_of(old), Some(p(0)));
    }

    #[test]
    fn replay_releases_oldest_copy_first() {
        let mut ch = AdversarialChannel::parked(Dir::Forward);
        let first = ch.send(p(0));
        let second = ch.send(p(0));
        assert_eq!(ch.release_oldest_of_packet(p(0)), Some((p(0), first)));
        assert_eq!(ch.release_oldest_of_packet(p(0)), Some((p(0), second)));
        assert_eq!(ch.release_oldest_of_packet(p(0)), None);
    }

    #[test]
    fn release_specific_copy() {
        let mut ch = AdversarialChannel::parked(Dir::Forward);
        let a = ch.send(p(0));
        let b = ch.send(p(0));
        ch.release_copy(b).unwrap();
        assert_eq!(ch.poll_deliver(), Some((p(0), b)));
        assert_eq!(ch.release_copy(b), Err(b));
        ch.release_copy(a).unwrap();
        assert_eq!(ch.poll_deliver(), Some((p(0), a)));
    }

    #[test]
    fn drop_removes_forever() {
        let mut ch = AdversarialChannel::parked(Dir::Forward);
        let a = ch.send(p(0));
        ch.drop_copy(a).unwrap();
        assert_eq!(ch.in_transit_len(), 0);
        assert_eq!(ch.drain_drops(), vec![(p(0), a)]);
        assert_eq!(ch.drain_drops(), vec![]);
        assert_eq!(ch.release_copy(a), Err(a));
    }

    #[test]
    fn release_all_is_oldest_first() {
        let mut ch = AdversarialChannel::parked(Dir::Forward);
        let a = ch.send(p(1));
        let b = ch.send(p(0));
        assert_eq!(ch.release_all(), 2);
        assert_eq!(ch.poll_deliver(), Some((p(1), a)));
        assert_eq!(ch.poll_deliver(), Some((p(0), b)));
    }

    #[test]
    fn header_and_packet_counts() {
        let mut ch = AdversarialChannel::parked(Dir::Forward);
        ch.send(p(0));
        ch.send(p(0));
        ch.send(p(1));
        assert_eq!(ch.packet_copies(p(0)), 2);
        assert_eq!(ch.header_copies(Header::new(1)), 1);
    }
}
