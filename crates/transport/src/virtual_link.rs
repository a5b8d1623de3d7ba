//! A multipath virtual link: per-route FIFO, globally non-FIFO.

use nonfifo_channel::{tally_headers, Channel, ChannelIntrospect, FaultObserver};
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use nonfifo_rng::StdRng;
use std::collections::VecDeque;

/// How packets are sprayed across routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Route `i`, `i+1`, … cyclically (deterministic multipath).
    RoundRobin,
    /// Uniformly random route per packet (seeded).
    Random,
}

#[derive(Debug, Clone)]
struct Route {
    latency: u64,
    // (packet, copy, deliverable_at); FIFO per route.
    queue: VecDeque<(Packet, CopyId, u64)>,
    failed: bool,
}

/// A virtual link made of parallel FIFO routes with distinct latencies.
///
/// The spread of latencies controls "how non-FIFO" the link is: with one
/// route (or equal latencies) it is FIFO; with a wide spread a packet on a
/// slow route is overtaken by everything sent later on fast routes — the
/// stale copies the paper's adversary needs arise naturally.
///
/// # Example
///
/// ```
/// use nonfifo_channel::Channel;
/// use nonfifo_ioa::{Dir, Header, Packet};
/// use nonfifo_transport::VirtualLinkBuilder;
///
/// let mut link = VirtualLinkBuilder::new(Dir::Forward)
///     .route(0)   // fast path
///     .route(5)   // slow path
///     .build();
/// let a = link.send(Packet::header_only(Header::new(0))); // fast route
/// let b = link.send(Packet::header_only(Header::new(1))); // slow route
/// let c = link.send(Packet::header_only(Header::new(2))); // fast route
/// // The fast-route packets arrive first; the slow one is overtaken.
/// assert_eq!(link.poll_deliver(), Some((Packet::header_only(Header::new(0)), a)));
/// assert_eq!(link.poll_deliver(), Some((Packet::header_only(Header::new(2)), c)));
/// assert_eq!(link.poll_deliver(), None); // b needs 5 ticks
/// for _ in 0..5 { link.tick(); }
/// assert_eq!(link.poll_deliver(), Some((Packet::header_only(Header::new(1)), b)));
/// ```
#[derive(Debug, Clone)]
pub struct VirtualLink {
    dir: Dir,
    routes: Vec<Route>,
    policy: RoutePolicy,
    rng: StdRng,
    next_route: usize,
    now: u64,
    next_copy: u64,
    sent: u64,
    delivered: u64,
    drops: Vec<(Packet, CopyId)>,
}

/// Builder for [`VirtualLink`].
#[derive(Debug, Clone)]
pub struct VirtualLinkBuilder {
    dir: Dir,
    latencies: Vec<u64>,
    policy: RoutePolicy,
    seed: u64,
}

impl VirtualLinkBuilder {
    /// Starts a builder for a link in direction `dir`.
    pub fn new(dir: Dir) -> Self {
        VirtualLinkBuilder {
            dir,
            latencies: Vec::new(),
            policy: RoutePolicy::RoundRobin,
            seed: 0,
        }
    }

    /// Adds a route with the given latency (in ticks).
    pub fn route(mut self, latency: u64) -> Self {
        self.latencies.push(latency);
        self
    }

    /// Sets the spraying policy (default round-robin).
    pub fn policy(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the RNG seed for [`RoutePolicy::Random`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the link.
    ///
    /// # Panics
    ///
    /// Panics if no routes were added.
    pub fn build(self) -> VirtualLink {
        assert!(
            !self.latencies.is_empty(),
            "a link needs at least one route"
        );
        VirtualLink {
            dir: self.dir,
            routes: self
                .latencies
                .into_iter()
                .map(|latency| Route {
                    latency,
                    queue: VecDeque::new(),
                    failed: false,
                })
                .collect(),
            policy: self.policy,
            rng: StdRng::seed_from_u64(self.seed),
            next_route: 0,
            now: 0,
            next_copy: 0,
            sent: 0,
            delivered: 0,
            drops: Vec::new(),
        }
    }
}

impl VirtualLink {
    /// Number of routes.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Fails route `index`: everything queued on it is dropped and future
    /// traffic avoids it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or if this would fail the last
    /// live route (the link must keep satisfying PL2-style liveness).
    pub fn fail_route(&mut self, index: usize) {
        assert!(index < self.routes.len(), "route {index} out of range");
        let live = self.routes.iter().filter(|r| !r.failed).count();
        assert!(
            live > 1 || self.routes[index].failed,
            "cannot fail the last live route"
        );
        let route = &mut self.routes[index];
        if route.failed {
            return;
        }
        route.failed = true;
        for (packet, copy, _) in route.queue.drain(..) {
            self.drops.push((packet, copy));
        }
    }

    fn pick_route(&mut self) -> usize {
        let live: Vec<usize> = self
            .routes
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.failed)
            .map(|(i, _)| i)
            .collect();
        match self.policy {
            RoutePolicy::RoundRobin => {
                let idx = live[self.next_route % live.len()];
                self.next_route = (self.next_route + 1) % live.len();
                idx
            }
            RoutePolicy::Random => live[self.rng.gen_range(0..live.len())],
        }
    }
}

impl Channel for VirtualLink {
    fn dir(&self) -> Dir {
        self.dir
    }

    fn send(&mut self, packet: Packet) -> CopyId {
        let copy = CopyId::from_raw(self.next_copy);
        self.next_copy += 1;
        self.sent += 1;
        let i = self.pick_route();
        let ready = self.now + self.routes[i].latency;
        self.routes[i].queue.push_back((packet, copy, ready));
        copy
    }

    fn poll_deliver(&mut self) -> Option<(Packet, CopyId)> {
        // Deliver the ready packet with the earliest deliverable time;
        // ties break by route index (deterministic).
        let now = self.now;
        let best = self
            .routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.queue
                    .front()
                    .filter(|&&(_, _, ready)| ready <= now)
                    .map(|&(_, _, ready)| (ready, i))
            })
            .min()?;
        let (_, i) = best;
        let (packet, copy, _) = self.routes[i].queue.pop_front().expect("front exists");
        self.delivered += 1;
        Some((packet, copy))
    }

    fn tick(&mut self) {
        self.now += 1;
    }

    fn in_transit_len(&self) -> usize {
        self.routes.iter().map(|r| r.queue.len()).sum()
    }

    fn total_sent(&self) -> u64 {
        self.sent
    }

    fn total_delivered(&self) -> u64 {
        self.delivered
    }
}

impl ChannelIntrospect for VirtualLink {
    fn header_copies(&self, h: Header) -> usize {
        self.routes
            .iter()
            .flat_map(|r| r.queue.iter())
            .filter(|(p, _, _)| p.header() == h)
            .count()
    }

    fn packet_copies(&self, p: Packet) -> usize {
        self.routes
            .iter()
            .flat_map(|r| r.queue.iter())
            .filter(|(q, _, _)| *q == p)
            .count()
    }

    fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>) {
        let queued = self.routes.iter().flat_map(|r| r.queue.iter());
        let stale = queued.filter(|&&(_, c, _)| c < watermark);
        tally_headers(stale.map(|&(p, _, _)| p), counts);
    }
}

impl FaultObserver for VirtualLink {
    fn drain_drops(&mut self) -> Vec<(Packet, CopyId)> {
        std::mem::take(&mut self.drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_ioa::{Event, Execution};

    fn p(h: u32) -> Packet {
        Packet::header_only(Header::new(h))
    }

    fn two_path(spread: u64) -> VirtualLink {
        VirtualLinkBuilder::new(Dir::Forward)
            .route(0)
            .route(spread)
            .build()
    }

    #[test]
    fn single_route_is_fifo() {
        let mut link = VirtualLinkBuilder::new(Dir::Forward).route(2).build();
        for i in 0..10 {
            link.send(p(i));
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            link.tick();
            while let Some((pkt, _)) = link.poll_deliver() {
                got.push(pkt.header().index());
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn latency_spread_reorders() {
        let mut link = two_path(4);
        link.send(p(0)); // fast
        link.send(p(1)); // slow
        link.send(p(2)); // fast
        let mut got = Vec::new();
        for _ in 0..10 {
            while let Some((pkt, _)) = link.poll_deliver() {
                got.push(pkt.header().index());
            }
            link.tick();
        }
        assert_eq!(got, vec![0, 2, 1], "slow-route packet overtaken");
    }

    #[test]
    fn per_route_fifo_is_preserved() {
        let mut link = two_path(3);
        for i in 0..40 {
            link.send(p(i));
        }
        let mut got = Vec::new();
        for _ in 0..50 {
            while let Some((pkt, _)) = link.poll_deliver() {
                got.push(pkt.header().index());
            }
            link.tick();
        }
        assert_eq!(got.len(), 40);
        // Even-index packets went to route 0, odd to route 1 (round robin);
        // each class must arrive in order.
        let evens: Vec<u32> = got.iter().copied().filter(|x| x % 2 == 0).collect();
        let odds: Vec<u32> = got.iter().copied().filter(|x| x % 2 == 1).collect();
        assert!(evens.windows(2).all(|w| w[0] < w[1]));
        assert!(odds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pl1_holds_with_failures() {
        let mut link = VirtualLinkBuilder::new(Dir::Forward)
            .route(0)
            .route(2)
            .route(5)
            .policy(RoutePolicy::Random)
            .seed(9)
            .build();
        let mut exec = Execution::new();
        for i in 0..60 {
            let pkt = p(i % 4);
            let copy = link.send(pkt);
            exec.push(Event::SendPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
            if i == 30 {
                link.fail_route(2);
            }
            while let Some((pkt, copy)) = link.poll_deliver() {
                exec.push(Event::ReceivePkt {
                    dir: Dir::Forward,
                    packet: pkt,
                    copy,
                });
            }
            for (pkt, copy) in link.drain_drops() {
                exec.push(Event::DropPkt {
                    dir: Dir::Forward,
                    packet: pkt,
                    copy,
                });
            }
            link.tick();
        }
        nonfifo_ioa::spec::check_pl1(&exec, Dir::Forward).expect("PL1");
    }

    #[test]
    fn failed_route_traffic_is_dropped_once() {
        let mut link = two_path(10);
        link.send(p(0)); // fast route
        link.send(p(1)); // slow route
        link.fail_route(1);
        assert_eq!(link.drain_drops().len(), 1);
        assert_eq!(link.in_transit_len(), 1);
        // Idempotent.
        link.fail_route(1);
        assert!(link.drain_drops().is_empty());
        // All future traffic uses the surviving route.
        link.send(p(2));
        link.send(p(3));
        let mut got = Vec::new();
        while let Some((pkt, _)) = link.poll_deliver() {
            got.push(pkt.header().index());
        }
        assert_eq!(got, vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "last live route")]
    fn cannot_fail_everything() {
        let mut link = two_path(1);
        link.fail_route(0);
        link.fail_route(1);
    }

    #[test]
    #[should_panic(expected = "at least one route")]
    fn builder_rejects_empty() {
        let _ = VirtualLinkBuilder::new(Dir::Forward).build();
    }
}
