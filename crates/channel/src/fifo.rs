//! A reliable FIFO channel — the service the data-link layer provides,
//! used here as a reference substrate and for latency modelling.

use crate::channel::{census_from_iter, tally_headers, Channel, ChannelIntrospect, FaultObserver};
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use std::collections::VecDeque;

/// A reliable, order-preserving channel with optional fixed latency.
///
/// Useful as a control: every protocol in the workspace must be trivially
/// correct over it.
///
/// # Example
///
/// ```
/// use nonfifo_channel::{Channel, FifoChannel};
/// use nonfifo_ioa::{Dir, Header, Packet};
///
/// let mut ch = FifoChannel::with_latency(Dir::Forward, 2);
/// ch.send(Packet::header_only(Header::new(0)));
/// assert!(ch.poll_deliver().is_none()); // not ready yet
/// ch.tick();
/// ch.tick();
/// assert!(ch.poll_deliver().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct FifoChannel {
    dir: Dir,
    latency: u64,
    now: u64,
    queue: VecDeque<(Packet, CopyId, u64)>,
    next_copy: u64,
    sent: u64,
    delivered: u64,
}

impl FifoChannel {
    /// Creates a zero-latency FIFO channel.
    pub fn new(dir: Dir) -> Self {
        FifoChannel::with_latency(dir, 0)
    }

    /// Creates a FIFO channel whose packets become deliverable `latency`
    /// ticks after being sent.
    pub fn with_latency(dir: Dir, latency: u64) -> Self {
        FifoChannel {
            dir,
            latency,
            now: 0,
            queue: VecDeque::new(),
            next_copy: 0,
            sent: 0,
            delivered: 0,
        }
    }
}

impl Channel for FifoChannel {
    fn dir(&self) -> Dir {
        self.dir
    }

    fn send(&mut self, packet: Packet) -> CopyId {
        let copy = CopyId::from_raw(self.next_copy);
        self.next_copy += 1;
        self.sent += 1;
        self.queue
            .push_back((packet, copy, self.now + self.latency));
        copy
    }

    fn poll_deliver(&mut self) -> Option<(Packet, CopyId)> {
        match self.queue.front() {
            Some(&(_, _, ready_at)) if ready_at <= self.now => {
                let (packet, copy, _) = self.queue.pop_front().expect("front exists");
                self.delivered += 1;
                Some((packet, copy))
            }
            _ => None,
        }
    }

    fn tick(&mut self) {
        self.now += 1;
    }

    fn in_transit_len(&self) -> usize {
        self.queue.len()
    }

    fn total_sent(&self) -> u64 {
        self.sent
    }

    fn total_delivered(&self) -> u64 {
        self.delivered
    }
}

impl ChannelIntrospect for FifoChannel {
    fn header_copies(&self, h: Header) -> usize {
        self.queue
            .iter()
            .filter(|(p, _, _)| p.header() == h)
            .count()
    }

    fn packet_copies(&self, p: Packet) -> usize {
        self.queue.iter().filter(|(q, _, _)| *q == p).count()
    }

    fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>) {
        let stale = self.queue.iter().filter(|&&(_, c, _)| c < watermark);
        tally_headers(stale.map(|&(p, _, _)| p), counts);
    }

    fn transit_census(&self) -> Vec<(Packet, usize)> {
        census_from_iter(self.queue.iter().map(|&(p, _, _)| p))
    }
}

impl FaultObserver for FifoChannel {
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
    fn preserves_order() {
        let mut ch = FifoChannel::new(Dir::Forward);
        ch.send(p(0));
        ch.send(p(1));
        ch.send(p(2));
        let mut seen = Vec::new();
        while let Some((pkt, _)) = ch.poll_deliver() {
            seen.push(pkt.header().index());
        }
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(ch.total_delivered(), 3);
    }

    #[test]
    fn latency_gates_delivery() {
        let mut ch = FifoChannel::with_latency(Dir::Backward, 3);
        ch.send(p(0));
        for _ in 0..2 {
            ch.tick();
            assert!(ch.poll_deliver().is_none());
        }
        ch.tick();
        assert!(ch.poll_deliver().is_some());
    }

    #[test]
    fn counts() {
        let mut ch = FifoChannel::new(Dir::Forward);
        ch.send(p(0));
        ch.send(p(0));
        ch.send(p(1));
        assert_eq!(ch.in_transit_len(), 3);
        assert_eq!(ch.packet_copies(p(0)), 2);
        assert_eq!(ch.header_copies(Header::new(1)), 1);
    }
}
