//! The probabilistic physical layer of §5 (property PL2p).

use crate::channel::{Channel, ChannelIntrospect, FaultObserver};
use crate::multiset::PacketMultiset;
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use nonfifo_rng::StdRng;
use std::collections::VecDeque;

/// What eventually happens to delayed copies.
///
/// The paper's PL2p only says a packet is delivered *immediately* with
/// probability `1 − q`; the fate of the remaining `q` fraction is left to
/// the adversary. The two policies bracket that freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleasePolicy {
    /// Delayed copies are never delivered (worst case — equivalent to loss,
    /// the regime in which Theorem 5.1's growth argument is cleanest).
    Never,
    /// Every `period` ticks the oldest delayed copy is delivered (keeps
    /// PL2-style liveness observable in finite runs).
    Trickle {
        /// Ticks between releases.
        period: u32,
    },
}

/// A channel that delivers each fresh copy immediately with probability
/// `1 − q` and delays it otherwise (PL2p with error probability `q`).
///
/// Deterministic given its seed, so every Theorem 5.1 experiment is
/// reproducible.
///
/// # Example
///
/// ```
/// use nonfifo_channel::{Channel, ProbabilisticChannel};
/// use nonfifo_ioa::{Dir, Header, Packet};
///
/// let mut ch = ProbabilisticChannel::new(Dir::Forward, 0.5, 7);
/// for _ in 0..100 {
///     ch.send(Packet::header_only(Header::new(0)));
/// }
/// let delayed = ch.in_transit_len();
/// // Roughly q·100 copies are delayed.
/// assert!(delayed > 25 && delayed < 75, "delayed = {delayed}");
/// ```
#[derive(Debug, Clone)]
pub struct ProbabilisticChannel {
    dir: Dir,
    q: f64,
    rng: StdRng,
    policy: ReleasePolicy,
    ticks_since_release: u32,
    delayed: PacketMultiset,
    queue: VecDeque<(Packet, CopyId)>,
    next_copy: u64,
    sent: u64,
    delivered: u64,
}

impl ProbabilisticChannel {
    /// Creates a probabilistic channel with error probability `q` and the
    /// [`ReleasePolicy::Never`] policy.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn new(dir: Dir, q: f64, seed: u64) -> Self {
        ProbabilisticChannel::with_policy(dir, q, seed, ReleasePolicy::Never)
    }

    /// Creates a probabilistic channel with an explicit release policy.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn with_policy(dir: Dir, q: f64, seed: u64, policy: ReleasePolicy) -> Self {
        assert!((0.0..=1.0).contains(&q), "q must be a probability, got {q}");
        ProbabilisticChannel {
            dir,
            q,
            rng: StdRng::seed_from_u64(seed),
            policy,
            ticks_since_release: 0,
            delayed: PacketMultiset::new(),
            queue: VecDeque::new(),
            next_copy: 0,
            sent: 0,
            delivered: 0,
        }
    }

    /// The error probability `q`.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The delayed pool (the `m_{i,j}` counters of §5 read off this).
    pub fn delayed_multiset(&self) -> &PacketMultiset {
        &self.delayed
    }

    /// Force-releases the oldest delayed copy (used by liveness harnesses).
    pub fn release_oldest_delayed(&mut self) -> Option<(Packet, CopyId)> {
        let hit = self.delayed.take_oldest()?;
        self.queue.push_back(hit);
        Some(hit)
    }
}

impl Channel for ProbabilisticChannel {
    fn dir(&self) -> Dir {
        self.dir
    }

    fn send(&mut self, packet: Packet) -> CopyId {
        let copy = CopyId::from_raw(self.next_copy);
        self.next_copy += 1;
        self.sent += 1;
        if self.rng.gen_bool(self.q) {
            self.delayed.insert(packet, copy);
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
        if let ReleasePolicy::Trickle { period } = self.policy {
            self.ticks_since_release += 1;
            if self.ticks_since_release >= period {
                self.ticks_since_release = 0;
                self.release_oldest_delayed();
            }
        }
    }

    fn in_transit_len(&self) -> usize {
        self.delayed.len()
    }

    fn total_sent(&self) -> u64 {
        self.sent
    }

    fn total_delivered(&self) -> u64 {
        self.delivered
    }
}

impl ChannelIntrospect for ProbabilisticChannel {
    fn header_copies(&self, h: Header) -> usize {
        self.delayed.header_copies(h)
    }

    fn packet_copies(&self, p: Packet) -> usize {
        self.delayed.packet_copies(p)
    }

    fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>) {
        self.delayed.count_headers_older_than(watermark, counts);
    }

    fn transit_census(&self) -> Vec<(Packet, usize)> {
        self.delayed.census_with(self.queue.iter().map(|&(p, _)| p))
    }
}

impl FaultObserver for ProbabilisticChannel {
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

    #[test]
    fn q_zero_is_reliable_immediate() {
        let mut ch = ProbabilisticChannel::new(Dir::Forward, 0.0, 1);
        for _ in 0..50 {
            ch.send(p(0));
        }
        assert_eq!(ch.in_transit_len(), 0);
        let mut n = 0;
        while ch.poll_deliver().is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn q_one_delays_everything() {
        let mut ch = ProbabilisticChannel::new(Dir::Forward, 1.0, 1);
        for _ in 0..50 {
            ch.send(p(0));
        }
        assert_eq!(ch.in_transit_len(), 50);
        assert_eq!(ch.poll_deliver(), None);
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed| {
            let mut ch = ProbabilisticChannel::new(Dir::Forward, 0.3, seed);
            (0..200)
                .filter(|_| ch.send(p(0)).raw().is_multiple_of(2))
                .count();
            ch.in_transit_len()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn delay_fraction_close_to_q() {
        let mut ch = ProbabilisticChannel::new(Dir::Forward, 0.25, 123);
        for _ in 0..4000 {
            ch.send(p(0));
        }
        let frac = ch.in_transit_len() as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn trickle_releases_delayed_copies() {
        let mut ch = ProbabilisticChannel::with_policy(
            Dir::Forward,
            1.0,
            1,
            ReleasePolicy::Trickle { period: 2 },
        );
        ch.send(p(0));
        assert_eq!(ch.poll_deliver(), None);
        ch.tick();
        assert_eq!(ch.poll_deliver(), None);
        ch.tick();
        assert!(ch.poll_deliver().is_some());
        assert_eq!(ch.in_transit_len(), 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_q() {
        let _ = ProbabilisticChannel::new(Dir::Forward, 1.5, 0);
    }
}
