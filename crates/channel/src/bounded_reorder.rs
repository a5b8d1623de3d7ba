//! A non-FIFO channel with *bounded* overtaking distance.
//!
//! The paper's lower bounds need arbitrary reordering; real networks mostly
//! reorder within a bounded horizon. This channel quantifies the gap: a
//! packet can be overtaken by at most `bound − 1` packets sent after it.
//! Sliding-window protocols with modular headers become correct again once
//! the reorder bound is small enough relative to their header space —
//! experiment E9 maps that crossover.

use crate::channel::{census_from_iter, tally_headers, Channel, ChannelIntrospect, FaultObserver};
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use nonfifo_rng::StdRng;
use std::collections::VecDeque;

/// Fraction of packets the channel holds back.
const HOLD_PROBABILITY: f64 = 0.25;

/// A reordering channel with overtaking distance `< bound`.
///
/// Each sent packet is either queued FIFO, or (with probability ¼) *held*
/// and re-enqueued after exactly `bound` further sends (or `bound` ticks,
/// whichever comes first — so a quiescent sender still drains the channel).
/// A held packet sent at index `s` re-enters the queue before any packet
/// sent later than `s` could have been held until, so it is overtaken by at
/// most `bound − 1` later sends. `bound = 1` degenerates to FIFO.
///
/// # Example
///
/// ```
/// use nonfifo_channel::{BoundedReorderChannel, Channel};
/// use nonfifo_ioa::{Dir, Header, Packet};
///
/// let mut ch = BoundedReorderChannel::new(Dir::Forward, 1, 3);
/// ch.send(Packet::header_only(Header::new(0)));
/// ch.send(Packet::header_only(Header::new(1)));
/// // bound = 1 ⇒ FIFO.
/// assert_eq!(ch.poll_deliver().unwrap().0.header().index(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedReorderChannel {
    dir: Dir,
    bound: u64,
    rng: StdRng,
    queue: VecDeque<(Packet, CopyId)>,
    // (release at send index, release at tick, packet, copy)
    held: Vec<(u64, u64, Packet, CopyId)>,
    sends: u64,
    ticks: u64,
    next_copy: u64,
    delivered: u64,
}

impl BoundedReorderChannel {
    /// Creates a channel with overtaking distance `< bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` (a packet must at least be allowed to deliver
    /// itself).
    pub fn new(dir: Dir, bound: u64, seed: u64) -> Self {
        assert!(bound >= 1, "reorder bound must be at least 1");
        BoundedReorderChannel {
            dir,
            bound,
            rng: StdRng::seed_from_u64(seed),
            queue: VecDeque::new(),
            held: Vec::new(),
            sends: 0,
            ticks: 0,
            next_copy: 0,
            delivered: 0,
        }
    }

    /// The reorder bound.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    fn release_due(&mut self) {
        let sends = self.sends;
        let ticks = self.ticks;
        // Stable order: held is kept in send order, and releases preserve it.
        let mut i = 0;
        while i < self.held.len() {
            let (rs, rt, packet, copy) = self.held[i];
            if sends >= rs || ticks >= rt {
                self.queue.push_back((packet, copy));
                self.held.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

impl Channel for BoundedReorderChannel {
    fn dir(&self) -> Dir {
        self.dir
    }

    fn send(&mut self, packet: Packet) -> CopyId {
        let copy = CopyId::from_raw(self.next_copy);
        self.next_copy += 1;
        self.sends += 1;
        // Release due holds *before* enqueueing this send, so a packet held
        // at send index s re-enters the queue ahead of the (s + bound)-th
        // send: at most bound − 1 later sends overtake it.
        self.release_due();
        // bound = 1 means a release threshold equal to the very next send:
        // indistinguishable from FIFO, so skip the hold entirely.
        if self.bound > 1 && self.rng.gen_bool(HOLD_PROBABILITY) {
            self.held.push((
                self.sends + self.bound,
                self.ticks + self.bound,
                packet,
                copy,
            ));
        } else {
            self.queue.push_back((packet, copy));
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

    fn tick(&mut self) {
        self.ticks += 1;
        self.release_due();
    }

    fn in_transit_len(&self) -> usize {
        self.queue.len() + self.held.len()
    }

    fn total_sent(&self) -> u64 {
        self.sends
    }

    fn total_delivered(&self) -> u64 {
        self.delivered
    }
}

impl ChannelIntrospect for BoundedReorderChannel {
    fn header_copies(&self, h: Header) -> usize {
        self.queue.iter().filter(|(p, _)| p.header() == h).count()
            + self
                .held
                .iter()
                .filter(|(_, _, p, _)| p.header() == h)
                .count()
    }

    fn packet_copies(&self, p: Packet) -> usize {
        self.queue.iter().filter(|(q, _)| *q == p).count()
            + self.held.iter().filter(|(_, _, q, _)| *q == p).count()
    }

    fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>) {
        let queued = self.queue.iter().copied();
        let held = self.held.iter().map(|&(_, _, p, c)| (p, c));
        let stale = queued.chain(held).filter(|&(_, c)| c < watermark);
        tally_headers(stale.map(|(p, _)| p), counts);
    }

    fn transit_census(&self) -> Vec<(Packet, usize)> {
        census_from_iter(
            self.queue
                .iter()
                .map(|&(p, _)| p)
                .chain(self.held.iter().map(|&(_, _, p, _)| p)),
        )
    }
}

impl FaultObserver for BoundedReorderChannel {
    fn drain_drops(&mut self) -> Vec<(Packet, CopyId)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(h: u32) -> Packet {
        Packet::header_only(Header::new(h))
    }

    fn drain(ch: &mut BoundedReorderChannel) -> Vec<u32> {
        let mut out = Vec::new();
        loop {
            while let Some((pkt, _)) = ch.poll_deliver() {
                out.push(pkt.header().index());
            }
            if ch.in_transit_len() == 0 {
                return out;
            }
            ch.tick();
        }
    }

    #[test]
    fn bound_one_is_fifo() {
        let mut ch = BoundedReorderChannel::new(Dir::Forward, 1, 99);
        for i in 0..50 {
            ch.send(p(i));
        }
        assert_eq!(drain(&mut ch), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn overtaking_distance_is_bounded() {
        let bound = 8u64;
        let mut ch = BoundedReorderChannel::new(Dir::Forward, bound, 7);
        let mut delivered: Vec<u32> = Vec::new();
        for i in 0..500 {
            ch.send(p(i));
            while let Some((pkt, _)) = ch.poll_deliver() {
                delivered.push(pkt.header().index());
            }
        }
        delivered.extend(drain(&mut ch));
        assert_eq!(delivered.len(), 500, "everything must deliver");
        for (pos, &s) in delivered.iter().enumerate() {
            let overtakers = delivered[..pos].iter().filter(|&&x| x > s).count() as u64;
            assert!(
                overtakers < bound,
                "packet {s} overtaken by {overtakers} ≥ bound {bound}"
            );
        }
    }

    #[test]
    fn actually_reorders_for_large_bound() {
        let mut ch = BoundedReorderChannel::new(Dir::Forward, 16, 3);
        let mut order = Vec::new();
        for i in 0..200 {
            ch.send(p(i));
            while let Some((pkt, _)) = ch.poll_deliver() {
                order.push(pkt.header().index());
            }
        }
        order.extend(drain(&mut ch));
        let sorted: Vec<u32> = (0..200).collect();
        assert_ne!(order, sorted, "bound-16 channel never reordered");
    }

    #[test]
    fn quiescent_sender_still_drains_via_ticks() {
        let mut ch = BoundedReorderChannel::new(Dir::Forward, 64, 5);
        for i in 0..20 {
            ch.send(p(i));
        }
        // No more sends: ticks must flush the held packets.
        let got = drain(&mut ch);
        assert_eq!(got.len(), 20);
        assert_eq!(ch.in_transit_len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_bound() {
        let _ = BoundedReorderChannel::new(Dir::Forward, 0, 0);
    }
}
