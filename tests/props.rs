//! Property-based tests: channel and checker invariants under arbitrary
//! operation sequences, and protocol safety under randomized schedules.
//!
//! The generators run on the workspace's own deterministic PRNG
//! (`nonfifo-rng`), so every case is addressable by its seed: a failure
//! message names the seed, and rerunning the test replays the identical
//! input without a persisted regression corpus.

use nonfifo::channel::{
    AdversarialChannel, BoundedReorderChannel, Channel, Discipline, FaultObserver, FifoChannel,
    LossyFifoChannel, PacketMultiset, ProbabilisticChannel,
};
use nonfifo::ioa::spec::{check_dl1_dl2, check_pl1};
use nonfifo::ioa::{CopyId, Dir, Event, Execution, Header, Message, Packet, SpecMonitor};
use nonfifo_rng::StdRng;

mod common;

use common::for_seeds;

/// Operations a test driver can apply to any channel.
#[derive(Debug, Clone)]
enum ChanOp {
    Send(u32),
    Poll,
    Tick,
}

fn chan_ops(rng: &mut StdRng) -> Vec<ChanOp> {
    let len = rng.gen_range(0..200);
    (0..len)
        .map(|_| match rng.gen_range(0..3) {
            0 => ChanOp::Send(rng.gen_range(0..6) as u32),
            1 => ChanOp::Poll,
            _ => ChanOp::Tick,
        })
        .collect()
}

/// Drives a channel with arbitrary ops, records the trace, and checks PL1
/// plus conservation (sent = delivered + dropped + in transit + queued).
fn drive(channel: &mut dyn FaultObserver, ops: &[ChanOp]) {
    let dir = channel.dir();
    let mut exec = Execution::new();
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for op in ops {
        match op {
            ChanOp::Send(h) => {
                let pkt = Packet::header_only(Header::new(*h));
                let copy = channel.send(pkt);
                exec.push(Event::SendPkt {
                    dir,
                    packet: pkt,
                    copy,
                });
            }
            ChanOp::Poll => {
                if let Some((pkt, copy)) = channel.poll_deliver() {
                    exec.push(Event::ReceivePkt {
                        dir,
                        packet: pkt,
                        copy,
                    });
                    delivered += 1;
                }
            }
            ChanOp::Tick => channel.tick(),
        }
        for (pkt, copy) in channel.drain_drops() {
            exec.push(Event::DropPkt {
                dir,
                packet: pkt,
                copy,
            });
            dropped += 1;
        }
    }
    check_pl1(&exec, dir).expect("PL1 must hold for every channel");
    assert_eq!(channel.total_delivered(), delivered);
    // Conservation: every sent copy is delivered, dropped, in transit, or
    // queued awaiting a poll.
    let accounted = delivered + dropped + channel.in_transit_len() as u64;
    assert!(
        channel.total_sent() >= accounted,
        "over-accounted: sent {} < accounted {}",
        channel.total_sent(),
        accounted
    );
}

#[test]
fn pl1_holds_for_fifo() {
    for_seeds(64, |_, rng| {
        let ops = chan_ops(rng);
        drive(&mut FifoChannel::new(Dir::Forward), &ops);
    });
}

#[test]
fn pl1_holds_for_lossy_fifo() {
    for_seeds(64, |seed, rng| {
        let ops = chan_ops(rng);
        drive(&mut LossyFifoChannel::new(Dir::Forward, 0.4, seed), &ops);
    });
}

#[test]
fn pl1_holds_for_probabilistic() {
    for_seeds(64, |seed, rng| {
        let ops = chan_ops(rng);
        drive(
            &mut ProbabilisticChannel::new(Dir::Backward, 0.35, seed),
            &ops,
        );
    });
}

#[test]
fn pl1_holds_for_bounded_reorder() {
    for_seeds(64, |seed, rng| {
        let ops = chan_ops(rng);
        let bound = rng.gen_range(1..20) as u64;
        drive(
            &mut BoundedReorderChannel::new(Dir::Forward, bound, seed),
            &ops,
        );
    });
}

#[test]
fn pl1_holds_for_virtual_link() {
    use nonfifo::transport::{RoutePolicy, VirtualLinkBuilder};
    for_seeds(64, |seed, rng| {
        let ops = chan_ops(rng);
        let spread = rng.gen_range(0..12) as u64;
        let mut link = VirtualLinkBuilder::new(Dir::Forward)
            .route(0)
            .route(spread)
            .route(spread / 2)
            .policy(RoutePolicy::Random)
            .seed(seed)
            .build();
        drive(&mut link, &ops);
    });
}

#[test]
fn sliding_window_correct_under_in_window_reorder() {
    // The E9 diagonal as a property: reorder bound B < w never breaks
    // the window-w protocol.
    use nonfifo::core::{SimConfig, Simulation};
    use nonfifo::protocols::SlidingWindow;
    for_seeds(48, |seed, rng| {
        let w = rng.gen_range(4..10) as u32;
        let bound = u64::from(w) / 2; // strictly inside the window
        let mut sim = Simulation::builder(SlidingWindow::new(w))
            .channel(Discipline::BoundedReorder {
                bound: bound.max(1),
            })
            .seed(seed)
            .build();
        let cfg = SimConfig {
            payloads: true,
            max_steps_per_message: 50_000,
            ..SimConfig::default()
        };
        let stats = sim.deliver(60, &cfg).expect("within tolerance");
        assert_eq!(stats.delivered_payloads, (0..60).collect::<Vec<u64>>());
    });
}

#[test]
fn pl1_holds_for_adversarial_with_releases() {
    for_seeds(64, |seed, outer| {
        // Interleave adversary releases between ordinary ops.
        let ops = chan_ops(outer);
        let mut ch = AdversarialChannel::parked(Dir::Forward);
        let dir = ch.dir();
        let mut exec = Execution::new();
        let mut rng = seed;
        for op in &ops {
            match op {
                ChanOp::Send(h) => {
                    let pkt = Packet::header_only(Header::new(*h));
                    let copy = ch.send(pkt);
                    exec.push(Event::SendPkt {
                        dir,
                        packet: pkt,
                        copy,
                    });
                }
                ChanOp::Poll => {
                    // Pseudo-random adversary action.
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    match rng % 3 {
                        0 => {
                            ch.release_all();
                        }
                        1 => {
                            ch.release_oldest_of_header(Header::new((rng >> 8) as u32 % 6));
                        }
                        _ => {
                            ch.drop_oldest_of_packet(Packet::header_only(Header::new(
                                (rng >> 8) as u32 % 6,
                            )));
                        }
                    }
                    while let Some((pkt, copy)) = ch.poll_deliver() {
                        exec.push(Event::ReceivePkt {
                            dir,
                            packet: pkt,
                            copy,
                        });
                    }
                }
                ChanOp::Tick => ch.tick(),
            }
            for (pkt, copy) in ch.drain_drops() {
                exec.push(Event::DropPkt {
                    dir,
                    packet: pkt,
                    copy,
                });
            }
        }
        check_pl1(&exec, dir).expect("PL1 must hold under adversary control");
    });
}

#[test]
fn multiset_conserves_copies() {
    for_seeds(64, |_, rng| {
        let n = rng.gen_range(0..100);
        let mut ms = PacketMultiset::new();
        let mut expected = 0usize;
        let mut used = std::collections::HashSet::new();
        for _ in 0..n {
            let h = rng.gen_range(0..5) as u32;
            let c = rng.gen_range(0..10_000) as u64;
            if used.insert(c) {
                ms.insert(Packet::header_only(Header::new(h)), CopyId::from_raw(c));
                expected += 1;
            }
        }
        assert_eq!(ms.len(), expected);
        let per_packet: usize = ms.packets().map(|p| ms.packet_copies(p)).sum();
        assert_eq!(per_packet, expected);
        let drained = ms.drain_all();
        assert_eq!(drained.len(), expected);
        // Mint order.
        for w in drained.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    });
}

#[test]
fn monitor_agrees_with_offline_checker_on_message_streams() {
    for_seeds(64, |_, rng| {
        // true = send_msg, false = receive_msg (identical messages).
        let len = rng.gen_range(0..60);
        let mut exec = Execution::new();
        let mut monitor = SpecMonitor::new();
        let mut monitor_flagged = false;
        let mut sends = 0u64;
        let mut recvs = 0u64;
        for _ in 0..len {
            let e = if rng.gen_bool(0.5) {
                sends += 1;
                Event::SendMsg(Message::identical(sends - 1))
            } else {
                recvs += 1;
                Event::ReceiveMsg(Message::identical(recvs - 1))
            };
            if monitor.observe(&e).is_err() {
                monitor_flagged = true;
            }
            exec.push(e);
        }
        // With identical messages the online prefix check is exact: it
        // flags iff the offline DL1 matcher rejects.
        let offline = check_dl1_dl2(&exec).is_err();
        assert_eq!(monitor_flagged, offline);
    });
}

mod text_format {
    use super::*;
    use nonfifo::ioa::text::{parse_text, write_text};
    use nonfifo::ioa::Payload;

    fn arb_event(rng: &mut StdRng) -> Event {
        let msg = |rng: &mut StdRng| {
            let id = rng.next_u64();
            if rng.gen_bool(0.5) {
                Message::with_payload(id, Payload::new(rng.next_u64()))
            } else {
                Message::identical(id)
            }
        };
        let pkt = |rng: &mut StdRng| {
            let h = Header::new(rng.next_u64() as u32);
            if rng.gen_bool(0.5) {
                Packet::new(h, Payload::new(rng.next_u64()))
            } else {
                Packet::header_only(h)
            }
        };
        let dir = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                Dir::Forward
            } else {
                Dir::Backward
            }
        };
        match rng.gen_range(0..5) {
            0 => Event::SendMsg(msg(rng)),
            1 => Event::ReceiveMsg(msg(rng)),
            2 => Event::SendPkt {
                dir: dir(rng),
                packet: pkt(rng),
                copy: CopyId::from_raw(rng.next_u64()),
            },
            3 => Event::ReceivePkt {
                dir: dir(rng),
                packet: pkt(rng),
                copy: CopyId::from_raw(rng.next_u64()),
            },
            _ => Event::DropPkt {
                dir: dir(rng),
                packet: pkt(rng),
                copy: CopyId::from_raw(rng.next_u64()),
            },
        }
    }

    /// Arbitrary executions survive the text round trip unchanged.
    #[test]
    fn text_round_trip() {
        for_seeds(128, |_, rng| {
            let len = rng.gen_range(0..60);
            let exec: Execution = (0..len).map(|_| arb_event(rng)).collect();
            let text = write_text(&exec);
            let back = parse_text(&text).expect("own output parses");
            assert_eq!(back, exec);
        });
    }
}

mod protocol_safety {
    use super::*;
    use nonfifo::adversary::{Disposition, System};
    use nonfifo::protocols::SequenceNumber;

    /// The naive protocol never violates the spec, whatever the channel
    /// does: random park/deliver decisions plus random stale replays.
    #[test]
    fn sequence_number_is_unbreakable() {
        for_seeds(32, |_, rng| {
            let len = rng.gen_range(20..200);
            let decisions: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut sys = System::new(&SequenceNumber::new());
            let mut outstanding = false;
            for d in decisions {
                if !outstanding && sys.ready() {
                    sys.send_msg();
                    outstanding = true;
                }
                match d % 4 {
                    0 => {
                        sys.step_park_all();
                    }
                    1 => {
                        sys.step_deliver_all();
                    }
                    2 => {
                        // Replay a random stale copy if one exists.
                        let target = sys
                            .fwd
                            .parked_multiset()
                            .iter()
                            .nth(usize::from(d) % sys.fwd.in_transit_len().max(1))
                            .map(|(p, _)| p);
                        if let Some(p) = target {
                            sys.fwd.release_oldest_of_packet(p);
                            sys.drain_released();
                        }
                    }
                    _ => {
                        sys.step(|_, _, _| {
                            if d > 128 {
                                Disposition::Deliver
                            } else {
                                Disposition::Park
                            }
                        });
                    }
                }
                assert!(sys.violation().is_none(), "violated: {:?}", sys.violation());
                if sys.counts().rm >= sys.counts().sm {
                    outstanding = false;
                }
            }
        });
    }
}

mod chaos {
    use super::*;
    use nonfifo::channel::{ChaosChannel, FaultPlan};
    use nonfifo::core::{SimConfig, SimError, Simulation};
    use nonfifo::protocols::{AlternatingBit, DataLink, GoBackN, SequenceNumber, SlidingWindow};

    /// A random but well-formed fault plan, produced through the parser so
    /// the text grammar is exercised on every case.
    fn arb_plan(rng: &mut StdRng) -> FaultPlan {
        let mut text = format!(
            "dup {:.3}\ndrop {:.3}\ncorrupt {:.3}\n",
            rng.gen_range(0..300) as f64 / 1000.0,
            rng.gen_range(0..300) as f64 / 1000.0,
            rng.gen_range(0..100) as f64 / 1000.0,
        );
        if rng.gen_bool(0.3) {
            let p = rng.gen_range(0..20) as f64 / 1000.0;
            let len = rng.gen_range(2..9);
            text.push_str(&format!("burst {p:.3} {len}\n"));
        }
        if rng.gen_bool(0.3) {
            let p = rng.gen_range(0..50) as f64 / 1000.0;
            let len = rng.gen_range(2..7);
            text.push_str(&format!("storm {p:.3} {len}\n"));
        }
        if rng.gen_bool(0.3) {
            let start = rng.gen_range(0..50) as u64;
            let end = start + rng.gen_range(1..20) as u64;
            text.push_str(&format!("partition {start} {end}\n"));
        }
        FaultPlan::parse(&text).expect("generated plan parses")
    }

    /// PL1 holds for the chaos decorator as long as its injected copies
    /// are declared — exactly what `drain_injected_sends` is for.
    #[test]
    fn pl1_holds_for_chaos_channel() {
        for_seeds(64, |seed, rng| {
            let plan = arb_plan(rng);
            let ops = chan_ops(rng);
            let mut ch = ChaosChannel::new(Box::new(FifoChannel::new(Dir::Forward)), plan, seed);
            let dir = ch.dir();
            let mut exec = Execution::new();
            let declare = |ch: &mut ChaosChannel, exec: &mut Execution| {
                for (packet, copy) in ch.drain_injected_sends() {
                    exec.push(Event::SendPkt { dir, packet, copy });
                }
                for (packet, copy) in ch.drain_drops() {
                    exec.push(Event::DropPkt { dir, packet, copy });
                }
            };
            for op in &ops {
                match op {
                    ChanOp::Send(h) => {
                        let packet = Packet::header_only(Header::new(*h));
                        let copy = ch.send(packet);
                        exec.push(Event::SendPkt { dir, packet, copy });
                        declare(&mut ch, &mut exec);
                    }
                    ChanOp::Poll => {
                        declare(&mut ch, &mut exec);
                        if let Some((packet, copy)) = ch.poll_deliver() {
                            exec.push(Event::ReceivePkt { dir, packet, copy });
                        }
                    }
                    ChanOp::Tick => {
                        ch.tick();
                        declare(&mut ch, &mut exec);
                    }
                }
            }
            check_pl1(&exec, dir).expect("PL1 must hold under declared chaos");
        });
    }

    /// Runs `proto` through a full chaos simulation and returns the outcome
    /// plus the execution fingerprint.
    fn run_chaos(
        proto: impl DataLink,
        plan: &FaultPlan,
        seed: u64,
    ) -> (Result<u64, SimError>, u64) {
        let mut sim = Simulation::builder(proto)
            .fault_plan(plan.clone())
            .seed(seed)
            .build();
        let cfg = SimConfig {
            max_steps_per_message: 10_000,
            ..SimConfig::default()
        };
        let outcome = sim.deliver(15, &cfg).map(|s| s.messages_delivered);
        (outcome, sim.execution_fingerprint())
    }

    /// The same (protocol, plan, seed) triple always replays the identical
    /// execution: equal outcomes and equal fingerprints.
    #[test]
    fn same_plan_and_seed_reproduce_the_run() {
        for_seeds(32, |seed, rng| {
            let plan = arb_plan(rng);
            let (out_a, fp_a) = run_chaos(SequenceNumber::new(), &plan, seed);
            let (out_b, fp_b) = run_chaos(SequenceNumber::new(), &plan, seed);
            assert_eq!(fp_a, fp_b, "fingerprint must be deterministic");
            assert_eq!(out_a.is_ok(), out_b.is_ok());
            if let (Ok(a), Ok(b)) = (out_a, out_b) {
                assert_eq!(a, b);
            }
        });
    }

    /// Chaos may legitimately break a weak protocol at the *message* layer
    /// (DL1 phantoms for the alternating bit), but because every injected
    /// copy is declared, it can never manufacture a *packet*-layer (PL1)
    /// violation — that would mean the monitor itself is unsound.
    #[test]
    fn chaos_never_fakes_a_packet_layer_violation() {
        use nonfifo::ioa::SpecViolation as V;
        for_seeds(16, |seed, rng| {
            let plan = arb_plan(rng);
            for proto in 0..4 {
                let (outcome, _) = match proto {
                    0 => run_chaos(AlternatingBit::new(), &plan, seed),
                    1 => run_chaos(SequenceNumber::new(), &plan, seed),
                    2 => run_chaos(SlidingWindow::new(4), &plan, seed),
                    _ => run_chaos(GoBackN::new(4), &plan, seed),
                };
                if let Err(SimError::Violation(v)) = outcome {
                    assert!(
                        matches!(v, V::MessageInvented { .. } | V::MessageReordered { .. }),
                        "chaos produced a packet-layer violation: {v:?}"
                    );
                    assert_ne!(proto, 1, "sequence numbers are safe everywhere: {v:?}");
                }
            }
        });
    }
}

mod parser_robustness {
    use super::for_seeds;
    use nonfifo_rng::StdRng;

    /// An adversarial ~`.{0,200}`: mostly printable ASCII with format-ish
    /// tokens mixed in so parsers reach their deeper branches, plus raw
    /// unicode.
    fn arb_line(rng: &mut StdRng) -> String {
        const TOKENS: &[&str] = &[
            "send",
            "recv",
            "drop",
            "pkt",
            "msg",
            "fwd",
            "bwd",
            "copy",
            "park",
            "deliver-all",
            "deliver",
            "quiesce",
            "#",
            ":",
            " ",
            "\t",
            "-",
            "0",
            "7",
            "18446744073709551615",
        ];
        let len = rng.gen_range(0..201);
        let mut s = String::new();
        while s.chars().count() < len {
            match rng.gen_range(0..4) {
                0 => s.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]),
                1 => s.push((b' ' + rng.gen_range(0..95) as u8) as char),
                2 => {
                    s.push(char::from_u32(rng.next_u64() as u32 % 0x11_0000).unwrap_or('\u{fffd}'))
                }
                _ => s.push('\n'),
            }
        }
        s
    }

    /// The trace parser never panics on arbitrary input — it returns a
    /// structured error instead.
    #[test]
    fn trace_parser_total() {
        for_seeds(256, |_, rng| {
            let input = arb_line(rng);
            let _ = nonfifo::ioa::text::parse_text(&input);
        });
    }

    /// Same for the attack-schedule parser.
    #[test]
    fn schedule_parser_total() {
        for_seeds(256, |_, rng| {
            let input = arb_line(rng);
            let _ = nonfifo::adversary::Schedule::parse(&input);
        });
    }
}
