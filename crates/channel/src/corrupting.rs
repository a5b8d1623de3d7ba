//! A fault-injection channel that corrupts packets in flight.
//!
//! The paper's physical layer "ensures that the received messages are not
//! corrupted" (§2.1) — PL1 forbids value changes. This channel exists to
//! violate that assumption on purpose, so the test suite can demonstrate
//! that the [`SpecMonitor`](nonfifo_ioa::SpecMonitor) and the offline PL1
//! checker actually catch corruption rather than assuming it away.

use crate::channel::{census_from_iter, tally_headers, Channel, ChannelIntrospect, FaultObserver};
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use nonfifo_rng::StdRng;
use std::collections::VecDeque;

/// The canonical in-flight bit-flip: the header gains a bit no protocol in
/// the workspace ever sets, so a corrupted value is never mistaken for a
/// legitimate one. Payloads survive — corruption hits the header. Shared by
/// [`CorruptingChannel`] and the chaos fault layer.
pub fn corrupt_packet(p: Packet) -> Packet {
    let flipped = Header::new(p.header().index() ^ 0x8000_0000);
    match p.payload() {
        Some(w) => Packet::new(flipped, w),
        None => Packet::header_only(flipped),
    }
}

/// A FIFO channel that, with probability `corrupt`, rewrites a packet's
/// header before delivering it. Deliberately **not** PL1-compliant.
///
/// # Example
///
/// ```
/// use nonfifo_channel::{Channel, CorruptingChannel};
/// use nonfifo_ioa::{Dir, Header, Packet};
///
/// let mut ch = CorruptingChannel::new(Dir::Forward, 1.0, 1);
/// let sent = Packet::header_only(Header::new(0));
/// ch.send(sent);
/// let (got, _) = ch.poll_deliver().unwrap();
/// assert_ne!(got, sent, "always-corrupt channel must flip the value");
/// ```
#[derive(Debug, Clone)]
pub struct CorruptingChannel {
    dir: Dir,
    corrupt: f64,
    rng: StdRng,
    queue: VecDeque<(Packet, CopyId)>,
    next_copy: u64,
    sent: u64,
    delivered: u64,
}

impl CorruptingChannel {
    /// Creates a corrupting channel.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt` is not in `[0, 1]`.
    pub fn new(dir: Dir, corrupt: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corrupt),
            "corrupt must be a probability, got {corrupt}"
        );
        CorruptingChannel {
            dir,
            corrupt,
            rng: StdRng::seed_from_u64(seed),
            queue: VecDeque::new(),
            next_copy: 0,
            sent: 0,
            delivered: 0,
        }
    }
}

impl Channel for CorruptingChannel {
    fn dir(&self) -> Dir {
        self.dir
    }

    fn send(&mut self, packet: Packet) -> CopyId {
        let copy = CopyId::from_raw(self.next_copy);
        self.next_copy += 1;
        self.sent += 1;
        self.queue.push_back((packet, copy));
        copy
    }

    fn poll_deliver(&mut self) -> Option<(Packet, CopyId)> {
        let (packet, copy) = self.queue.pop_front()?;
        self.delivered += 1;
        let delivered = if self.rng.gen_bool(self.corrupt) {
            corrupt_packet(packet)
        } else {
            packet
        };
        Some((delivered, copy))
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

impl ChannelIntrospect for CorruptingChannel {
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

impl FaultObserver for CorruptingChannel {
    fn drain_drops(&mut self) -> Vec<(Packet, CopyId)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_ioa::spec::{check_pl1, SpecViolation};
    use nonfifo_ioa::{Event, Execution, SpecMonitor};

    #[test]
    fn monitor_catches_corruption() {
        let mut ch = CorruptingChannel::new(Dir::Forward, 1.0, 3);
        let mut monitor = SpecMonitor::new();
        let pkt = Packet::header_only(Header::new(1));
        let copy = ch.send(pkt);
        monitor
            .observe(&Event::SendPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            })
            .unwrap();
        let (got, copy) = ch.poll_deliver().unwrap();
        let err = monitor
            .observe(&Event::ReceivePkt {
                dir: Dir::Forward,
                packet: got,
                copy,
            })
            .unwrap_err();
        assert!(matches!(err, SpecViolation::CorruptedDelivery { .. }));
    }

    #[test]
    fn offline_checker_catches_corruption_too() {
        let mut ch = CorruptingChannel::new(Dir::Forward, 1.0, 3);
        let mut exec = Execution::new();
        let pkt = Packet::header_only(Header::new(2));
        let copy = ch.send(pkt);
        exec.push(Event::SendPkt {
            dir: Dir::Forward,
            packet: pkt,
            copy,
        });
        let (got, copy) = ch.poll_deliver().unwrap();
        exec.push(Event::ReceivePkt {
            dir: Dir::Forward,
            packet: got,
            copy,
        });
        assert!(matches!(
            check_pl1(&exec, Dir::Forward),
            Err(SpecViolation::CorruptedDelivery { .. })
        ));
    }

    #[test]
    fn zero_rate_is_clean_fifo() {
        let mut ch = CorruptingChannel::new(Dir::Forward, 0.0, 3);
        let pkt = Packet::header_only(Header::new(7));
        ch.send(pkt);
        assert_eq!(ch.poll_deliver().unwrap().0, pkt);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_rate() {
        let _ = CorruptingChannel::new(Dir::Forward, 2.0, 0);
    }
}
