//! A FIFO channel with i.i.d. packet loss — the classic domain of the
//! alternating-bit protocol [BSW69].

use crate::channel::{census_from_iter, tally_headers, Channel, ChannelIntrospect, FaultObserver};
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use nonfifo_rng::StdRng;
use std::collections::VecDeque;

/// An order-preserving channel that loses each packet with probability
/// `loss`, decided at send time. Never reorders or duplicates.
///
/// The alternating-bit protocol is correct over a pair of these; it is *not*
/// correct over [`AdversarialChannel`](crate::AdversarialChannel) — that
/// contrast is experiment E8.
///
/// # Example
///
/// ```
/// use nonfifo_channel::{Channel, LossyFifoChannel};
/// use nonfifo_ioa::{Dir, Header, Packet};
///
/// let mut ch = LossyFifoChannel::new(Dir::Forward, 0.5, 11);
/// let mut got = 0;
/// for _ in 0..100 {
///     ch.send(Packet::header_only(Header::new(0)));
///     if ch.poll_deliver().is_some() { got += 1; }
/// }
/// assert!(got > 25 && got < 75, "got = {got}");
/// ```
#[derive(Debug, Clone)]
pub struct LossyFifoChannel {
    dir: Dir,
    loss: f64,
    rng: StdRng,
    queue: VecDeque<(Packet, CopyId)>,
    drops: Vec<(Packet, CopyId)>,
    next_copy: u64,
    sent: u64,
    delivered: u64,
}

impl LossyFifoChannel {
    /// Creates a lossy FIFO channel with loss probability `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1]`.
    pub fn new(dir: Dir, loss: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss must be a probability, got {loss}"
        );
        LossyFifoChannel {
            dir,
            loss,
            rng: StdRng::seed_from_u64(seed),
            queue: VecDeque::new(),
            drops: Vec::new(),
            next_copy: 0,
            sent: 0,
            delivered: 0,
        }
    }

    /// The loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }
}

impl Channel for LossyFifoChannel {
    fn dir(&self) -> Dir {
        self.dir
    }

    fn send(&mut self, packet: Packet) -> CopyId {
        let copy = CopyId::from_raw(self.next_copy);
        self.next_copy += 1;
        self.sent += 1;
        if self.rng.gen_bool(self.loss) {
            self.drops.push((packet, copy));
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

impl ChannelIntrospect for LossyFifoChannel {
    fn header_copies(&self, h: Header) -> usize {
        self.queue.iter().filter(|(p, _)| p.header() == h).count()
    }

    fn packet_copies(&self, p: Packet) -> usize {
        self.queue.iter().filter(|(q, _)| *q == p).count()
    }

    fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>) {
        let stale = self.queue.iter().filter(|&&(_, c)| c < watermark);
        tally_headers(stale.map(|&(p, _)| p), counts);
    }

    fn transit_census(&self) -> Vec<(Packet, usize)> {
        census_from_iter(self.queue.iter().map(|&(p, _)| p))
    }
}

impl FaultObserver for LossyFifoChannel {
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
    fn zero_loss_is_fifo() {
        let mut ch = LossyFifoChannel::new(Dir::Forward, 0.0, 1);
        ch.send(p(0));
        ch.send(p(1));
        assert_eq!(ch.poll_deliver().unwrap().0.header().index(), 0);
        assert_eq!(ch.poll_deliver().unwrap().0.header().index(), 1);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut ch = LossyFifoChannel::new(Dir::Forward, 1.0, 1);
        ch.send(p(0));
        assert_eq!(ch.poll_deliver(), None);
        assert_eq!(ch.drain_drops().len(), 1);
        assert_eq!(ch.in_transit_len(), 0);
    }

    #[test]
    fn survivors_keep_send_order() {
        let mut ch = LossyFifoChannel::new(Dir::Forward, 0.5, 42);
        for i in 0..200 {
            ch.send(p(i));
        }
        let mut last = None;
        while let Some((pkt, _)) = ch.poll_deliver() {
            if let Some(prev) = last {
                assert!(pkt.header().index() > prev);
            }
            last = Some(pkt.header().index());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_loss() {
        let _ = LossyFifoChannel::new(Dir::Forward, -0.1, 0);
    }
}
