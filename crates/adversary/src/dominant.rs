//! Theorem 5.1 instrumentation: dominant packets over a probabilistic
//! physical layer.
//!
//! Section 5 of the paper analyses executions
//! `α = send_msg β₁ receive_msg send_msg β₂ … βₙ receive_msg` over a
//! channel that delays each packet with probability `q`. For each extension
//! `βᵢ` at least one packet `p_j` is *dominant*: the protocol sends more
//! copies of it in `βᵢ` than the `m_{i,j}` copies already delayed
//! (otherwise the physical layer could simulate `βᵢ` from delayed copies
//! alone and violate DL1/DL3). A delayed fraction `q` of those sends then
//! pushes `m_{i+1,j}` towards `(1+q)·m_{i,j}` — the engine of the
//! exponential lower bound.
//!
//! [`DominantTracker`] runs a protocol over seeded [`ProbabilisticChannel`]s
//! and records exactly these quantities: the `m_{i,j}` snapshots at each
//! `send_msg`, the per-extension send histograms, and the dominant set —
//! the raw data behind experiments E5 and E6 (Lemmas 5.2 and 5.3).

use nonfifo_channel::{Channel, ChannelIntrospect, ProbabilisticChannel};
use nonfifo_ioa::{Dir, Event, Header, Message, SpecMonitor, SpecViolation};
use nonfifo_protocols::{DataLink, GhostInfo};
use std::collections::BTreeMap;

/// Configuration of a probabilistic run.
#[derive(Debug, Clone, Copy)]
pub struct ProbRunConfig {
    /// Messages to deliver (the `n` of Theorem 5.1).
    pub messages: u64,
    /// Per-packet delay probability `q` (both directions).
    pub q: f64,
    /// RNG seed (forward channel uses `seed`, backward `seed + 1`).
    pub seed: u64,
    /// Scheduler steps allowed per message before declaring the run stuck.
    pub max_steps_per_message: u64,
}

impl Default for ProbRunConfig {
    fn default() -> Self {
        ProbRunConfig {
            messages: 12,
            q: 0.3,
            seed: 0,
            max_steps_per_message: 2_000_000,
        }
    }
}

/// Per-message observation: the §5 quantities for one extension `βᵢ`.
#[derive(Debug, Clone)]
pub struct MessageObservation {
    /// Message index (0-based).
    pub message: u64,
    /// `m_{i,j}`: delayed forward copies per header at the `send_msg`.
    pub in_transit_by_header: BTreeMap<Header, u64>,
    /// Forward sends per header during `βᵢ`.
    pub sends_by_header: BTreeMap<Header, u64>,
    /// Headers dominant in `βᵢ` (sends exceed `m_{i,j}`).
    pub dominant: Vec<Header>,
    /// Scheduler steps `βᵢ` took.
    pub steps: u64,
}

/// The full record of a probabilistic run.
#[derive(Debug, Clone)]
pub struct DominantReport {
    /// Per-message observations, in order.
    pub per_message: Vec<MessageObservation>,
    /// Total forward packets sent over the whole run.
    pub total_forward_sent: u64,
    /// Total forward packets still delayed at the end.
    pub final_in_transit: u64,
    /// Safety violation, if the protocol escaped its safety domain.
    pub violation: Option<SpecViolation>,
    /// The configured delay probability.
    pub q: f64,
    /// True if every message was delivered within budget.
    pub completed: bool,
}

impl DominantReport {
    /// The header dominant in the most extensions — §5's probable dominant
    /// packet `p_j`.
    pub fn probable_dominant(&self) -> Option<Header> {
        let mut counts: BTreeMap<Header, u64> = BTreeMap::new();
        for obs in &self.per_message {
            for &h in &obs.dominant {
                *counts.entry(h).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(h, c)| (c, std::cmp::Reverse(h)))
            .map(|(h, _)| h)
    }

    /// The `m_{i,j}` trajectory of header `h` across messages.
    pub fn m_trajectory(&self, h: Header) -> Vec<u64> {
        self.per_message
            .iter()
            .map(|obs| obs.in_transit_by_header.get(&h).copied().unwrap_or(0))
            .collect()
    }

    /// Growth ratios `m_{i+1,j} / m_{i,j}` of header `h` across consecutive
    /// messages where `h` was dominant in extension `βᵢ` and `m_{i,j} > 0`
    /// — the per-extension growth factor of Lemma 5.3.
    pub fn growth_ratios(&self, h: Header) -> Vec<f64> {
        let traj = self.m_trajectory(h);
        let mut out = Vec::new();
        for (i, obs) in self.per_message.iter().enumerate() {
            if i + 1 >= traj.len() {
                break;
            }
            if obs.dominant.contains(&h) && traj[i] > 0 {
                out.push(traj[i + 1] as f64 / traj[i] as f64);
            }
        }
        out
    }

    /// How many extensions each header was dominant in.
    pub fn dominance_counts(&self) -> BTreeMap<Header, u64> {
        let mut counts = BTreeMap::new();
        for obs in &self.per_message {
            for &h in &obs.dominant {
                *counts.entry(h).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// Runs a protocol over probabilistic channels and harvests the §5 data.
#[derive(Debug, Clone, Copy, Default)]
pub struct DominantTracker {
    /// Run configuration.
    pub config: ProbRunConfig,
}

impl DominantTracker {
    /// Creates a tracker with explicit configuration.
    pub fn new(config: ProbRunConfig) -> Self {
        DominantTracker { config }
    }

    /// Runs `proto` over fresh probabilistic channels.
    pub fn run(&self, proto: &dyn DataLink) -> DominantReport {
        let cfg = self.config;
        let uses_ghosts = proto.uses_ghosts();
        let (mut tx, mut rx) = proto.make();
        let mut fwd = ProbabilisticChannel::new(Dir::Forward, cfg.q, cfg.seed);
        let mut bwd = ProbabilisticChannel::new(Dir::Backward, cfg.q, cfg.seed.wrapping_add(1));
        let mut monitor = SpecMonitor::new();
        let mut per_message = Vec::new();
        let mut completed = true;

        'messages: for message in 0..cfg.messages {
            // m_{i,j} snapshot at the send_msg.
            let in_transit_by_header = header_histogram(&fwd);
            let round_watermark = delayed_watermark(&fwd);

            let _ = monitor.observe(&Event::SendMsg(Message::identical(message)));
            tx.on_send_msg(None);

            let mut sends_by_header: BTreeMap<Header, u64> = BTreeMap::new();
            let mut steps = 0u64;
            let mut delivered = false;
            while !delivered {
                if steps >= cfg.max_steps_per_message {
                    completed = false;
                    break 'messages;
                }
                steps += 1;

                // Ghost summaries (AfekFlush needs the stale counts; the
                // others ignore them, so skip the O(pool) sweep).
                if uses_ghosts {
                    let ghost = ghost_info(&fwd, &bwd, round_watermark);
                    tx.on_ghost(&ghost);
                    rx.on_ghost(&ghost);
                }
                tx.on_tick();
                rx.on_tick();

                // Transmitter sends.
                while let Some(pkt) = tx.poll_send() {
                    *sends_by_header.entry(pkt.header()).or_insert(0) += 1;
                    let copy = fwd.send(pkt);
                    let _ = monitor.observe(&Event::SendPkt {
                        dir: Dir::Forward,
                        packet: pkt,
                        copy,
                    });
                }
                // Forward deliveries.
                while let Some((pkt, copy)) = fwd.poll_deliver() {
                    let _ = monitor.observe(&Event::ReceivePkt {
                        dir: Dir::Forward,
                        packet: pkt,
                        copy,
                    });
                    rx.on_receive_pkt(pkt);
                }
                // Receiver outputs.
                while let Some(payload) = rx.poll_deliver() {
                    let dm = Message::new(monitor.messages_delivered(), payload);
                    let _ = monitor.observe(&Event::ReceiveMsg(dm));
                    delivered = true;
                }
                while let Some(ack) = rx.poll_send() {
                    let copy = bwd.send(ack);
                    let _ = monitor.observe(&Event::SendPkt {
                        dir: Dir::Backward,
                        packet: ack,
                        copy,
                    });
                }
                // Backward deliveries.
                while let Some((ack, copy)) = bwd.poll_deliver() {
                    let _ = monitor.observe(&Event::ReceivePkt {
                        dir: Dir::Backward,
                        packet: ack,
                        copy,
                    });
                    tx.on_receive_pkt(ack);
                }
                fwd.tick();
                bwd.tick();
            }

            // Wait for the transmitter to learn about the delivery too, so
            // the next send_msg is legal (acks may need retries).
            let mut extra = 0u64;
            while !tx.ready() {
                if extra >= cfg.max_steps_per_message {
                    completed = false;
                    break 'messages;
                }
                extra += 1;
                tx.on_tick();
                while let Some(pkt) = tx.poll_send() {
                    *sends_by_header.entry(pkt.header()).or_insert(0) += 1;
                    let copy = fwd.send(pkt);
                    let _ = monitor.observe(&Event::SendPkt {
                        dir: Dir::Forward,
                        packet: pkt,
                        copy,
                    });
                }
                while let Some((pkt, copy)) = fwd.poll_deliver() {
                    let _ = monitor.observe(&Event::ReceivePkt {
                        dir: Dir::Forward,
                        packet: pkt,
                        copy,
                    });
                    rx.on_receive_pkt(pkt);
                }
                while let Some(payload) = rx.poll_deliver() {
                    // A second delivery here would be a violation; let the
                    // monitor judge.
                    let dm = Message::new(monitor.messages_delivered(), payload);
                    let _ = monitor.observe(&Event::ReceiveMsg(dm));
                }
                while let Some(ack) = rx.poll_send() {
                    let copy = bwd.send(ack);
                    let _ = monitor.observe(&Event::SendPkt {
                        dir: Dir::Backward,
                        packet: ack,
                        copy,
                    });
                }
                while let Some((ack, copy)) = bwd.poll_deliver() {
                    let _ = monitor.observe(&Event::ReceivePkt {
                        dir: Dir::Backward,
                        packet: ack,
                        copy,
                    });
                    tx.on_receive_pkt(ack);
                }
            }

            let dominant: Vec<Header> = sends_by_header
                .iter()
                .filter(|(h, &sends)| sends > in_transit_by_header.get(h).copied().unwrap_or(0))
                .map(|(&h, _)| h)
                .collect();
            per_message.push(MessageObservation {
                message,
                in_transit_by_header,
                sends_by_header,
                dominant,
                steps,
            });
        }

        DominantReport {
            per_message,
            total_forward_sent: fwd.total_sent(),
            final_in_transit: fwd.in_transit_len() as u64,
            violation: monitor.first_violation(),
            q: cfg.q,
            completed,
        }
    }
}

fn header_histogram(fwd: &ProbabilisticChannel) -> BTreeMap<Header, u64> {
    let mut hist = BTreeMap::new();
    for (pkt, _) in fwd.delayed_multiset().iter() {
        *hist.entry(pkt.header()).or_insert(0) += 1;
    }
    hist
}

fn delayed_watermark(fwd: &ProbabilisticChannel) -> nonfifo_ioa::CopyId {
    nonfifo_ioa::CopyId::from_raw(fwd.total_sent())
}

fn ghost_info(
    fwd: &ProbabilisticChannel,
    bwd: &ProbabilisticChannel,
    watermark: nonfifo_ioa::CopyId,
) -> GhostInfo {
    let mut ghost = GhostInfo {
        fwd_in_transit: fwd.in_transit_len() as u64,
        bwd_in_transit: bwd.in_transit_len() as u64,
        stale_fwd_by_header: Vec::new(),
    };
    for (pkt, _) in fwd.delayed_multiset().iter() {
        let h = pkt.header();
        if ghost.stale_fwd_by_header.iter().any(|&(g, _)| g == h) {
            continue;
        }
        ghost.push_stale(h, fwd.header_copies_older_than(h, watermark) as u64);
    }
    ghost
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_protocols::{Outnumber, SequenceNumber};

    #[test]
    fn sequence_number_is_linear_and_clean() {
        let cfg = ProbRunConfig {
            messages: 50,
            q: 0.3,
            seed: 7,
            max_steps_per_message: 100_000,
        };
        let report = DominantTracker::new(cfg).run(&SequenceNumber::new());
        assert!(report.completed);
        assert_eq!(report.violation, None);
        assert_eq!(report.per_message.len(), 50);
        // Linear cost: a handful of packets per message on average.
        assert!(
            report.total_forward_sent < 50 * 20,
            "sent {}",
            report.total_forward_sent
        );
    }

    #[test]
    fn outnumber_grows_exponentially_and_stays_safe() {
        let cfg = ProbRunConfig {
            messages: 10,
            q: 0.3,
            seed: 11,
            max_steps_per_message: 1_000_000,
        };
        let report = DominantTracker::new(cfg).run(&Outnumber::factory());
        assert!(report.completed, "run must finish");
        assert_eq!(report.violation, None, "safe in its domain");
        // Total packets at least 2^(n-1) — the outnumber doubling.
        assert!(
            report.total_forward_sent >= 1 << 8,
            "sent only {}",
            report.total_forward_sent
        );
        // Every extension has a dominant header (the §5 claim).
        for obs in &report.per_message {
            assert!(
                !obs.dominant.is_empty(),
                "message {} had no dominant packet",
                obs.message
            );
        }
        assert!(report.probable_dominant().is_some());
    }

    #[test]
    fn same_seed_reproduces() {
        let cfg = ProbRunConfig {
            messages: 20,
            q: 0.25,
            seed: 3,
            max_steps_per_message: 100_000,
        };
        let a = DominantTracker::new(cfg).run(&SequenceNumber::new());
        let b = DominantTracker::new(cfg).run(&SequenceNumber::new());
        assert_eq!(a.total_forward_sent, b.total_forward_sent);
        assert_eq!(a.final_in_transit, b.final_in_transit);
    }

    #[test]
    fn trajectory_reads_back_snapshots() {
        let cfg = ProbRunConfig {
            messages: 8,
            q: 0.4,
            seed: 5,
            max_steps_per_message: 1_000_000,
        };
        let report = DominantTracker::new(cfg).run(&Outnumber::factory());
        if let Some(h) = report.probable_dominant() {
            let traj = report.m_trajectory(h);
            assert_eq!(traj.len(), report.per_message.len());
        }
    }
}
