//! The ghost oracle: one pass over a channel's copies older than the round
//! watermark gives the stale count per header.
//!
//! - Every channel kind counts what a per-header filter over the copies it
//!   still holds counts, and the `GhostInfo` it fills stays sorted with each
//!   header once, whatever the headers (corrupted ones reach 2³¹).
//! - The afek3 simulator run, the one protocol that reads the count, keeps
//!   its steps and fingerprint.

use nonfifo::adversary::fill_ghost;
use nonfifo::campaign::{CampaignPlan, CampaignRunner, RunOutcome, RunResult};
use nonfifo::channel::{
    AdversarialChannel, BoundedReorderChannel, Channel, ChaosChannel, CorruptingChannel, FaultPlan,
    FifoChannel, InstrumentedChannel, LossyFifoChannel, ProbabilisticChannel, ReleasePolicy,
};
use nonfifo::ioa::{CopyId, Dir, Header, Packet};
use nonfifo::protocols::GhostInfo;
use nonfifo::transport::{RoutePolicy, VirtualLinkBuilder};
use nonfifo_rng::StdRng;
use std::collections::BTreeMap;

/// Headers the sends draw from: a protocol's small alphabet, the two sides
/// of the old 64-header sweep, and the largest corrupted header.
const HEADERS: [u32; 7] = [0, 1, 2, 63, 64, 70, 0x7fff_ffff];

/// The reference: for each header, a filter over the copies held.
fn reference(held: &BTreeMap<CopyId, Packet>, watermark: CopyId) -> Vec<(Header, u64)> {
    let mut headers: Vec<Header> = held.values().map(|p| p.header()).collect();
    headers.sort_unstable();
    headers.dedup();
    headers
        .into_iter()
        .map(|h| {
            let n = held
                .iter()
                .filter(|&(&c, p)| c < watermark && p.header() == h)
                .count();
            (h, n as u64)
        })
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Drives `ch` through random sends, ticks, deliveries, drops and
/// `extra` moves under a rising watermark, and checks the filled
/// `GhostInfo` against [`reference`] after every step.
///
/// Some channels queue a copy for delivery outside the pool the count
/// reads; with `drain` every step delivers all of those before the check.
/// Without it a step delivers at most one copy, so queues build up.
fn check<C: InstrumentedChannel>(
    name: &str,
    seed: u64,
    mut ch: C,
    drain: bool,
    mut extra: impl FnMut(&mut C, &mut StdRng),
) {
    let mut rng = StdRng::seed_from_u64(seed);
    // The copies in transit: every send and injected copy, less those
    // delivered or dropped.
    let mut held: BTreeMap<CopyId, Packet> = BTreeMap::new();
    let mut watermark = CopyId::from_raw(0);
    let mut ghost = GhostInfo::default();
    let mut peak = 0;
    for step in 0..300 {
        match rng.gen_range(0..10) {
            0..=4 => {
                let h = Header::new(HEADERS[rng.gen_range(0..HEADERS.len())]);
                let p = Packet::header_only(h);
                held.insert(ch.send(p), p);
            }
            5 => ch.tick(),
            6 => extra(&mut ch, &mut rng),
            7 => {
                let back = rng.gen_range(0..4) as u64;
                let mark = CopyId::from_raw(ch.total_sent().saturating_sub(back));
                watermark = watermark.max(mark);
            }
            _ if !drain => {
                if let Some((_, c)) = ch.poll_deliver() {
                    held.remove(&c);
                }
            }
            _ => {}
        }
        for (p, c) in ch.drain_injected_sends() {
            held.insert(c, p);
        }
        while let Some((_, c)) = drain.then(|| ch.poll_deliver()).flatten() {
            held.remove(&c);
        }
        for (_, c) in ch.drain_drops() {
            held.remove(&c);
        }
        fill_ghost(&mut ghost, &ch, watermark);
        let counts = &ghost.stale_fwd_by_header;
        assert!(
            counts.windows(2).all(|w| w[0].0 < w[1].0),
            "{name} seed {seed} step {step}: {counts:?} is not sorted and unique"
        );
        assert_eq!(
            *counts,
            reference(&held, watermark),
            "{name} seed {seed} step {step}"
        );
        peak = peak.max(counts.len());
    }
    assert!(
        peak >= 3,
        "{name} seed {seed}: the pool never held stale copies"
    );
}

#[test]
fn one_pass_counts_equal_per_header_filters_in_every_channel() {
    for seed in 0..8 {
        check(
            "adversarial",
            seed,
            AdversarialChannel::parked(Dir::Forward),
            true,
            |ch, rng| {
                let parked: Vec<CopyId> = ch.parked_multiset().iter().map(|(_, c)| c).collect();
                if let Some(&c) = parked.get(rng.gen_range(0..parked.len() + 1)) {
                    if rng.gen_bool(0.5) {
                        ch.release_copy(c).unwrap();
                    } else {
                        ch.drop_copy(c).unwrap();
                    }
                }
            },
        );
        let trickle = ReleasePolicy::Trickle { period: 3 };
        check(
            "probabilistic",
            seed,
            ProbabilisticChannel::with_policy(Dir::Forward, 0.6, seed, trickle),
            true,
            |ch, _| {
                ch.release_oldest_delayed();
            },
        );
        check(
            "fifo",
            seed,
            FifoChannel::with_latency(Dir::Forward, 4),
            false,
            |_, _| {},
        );
        check(
            "lossy_fifo",
            seed,
            LossyFifoChannel::new(Dir::Forward, 0.3, seed),
            false,
            |_, _| {},
        );
        check(
            "bounded_reorder",
            seed,
            BoundedReorderChannel::new(Dir::Forward, 4, seed),
            false,
            |_, _| {},
        );
        check(
            "corrupting",
            seed,
            CorruptingChannel::new(Dir::Forward, 0.5, seed),
            false,
            |_, _| {},
        );
        let plan = FaultPlan::parse("dup 0.2\ndrop 0.1\ncorrupt 0.1\nstorm 0.2 3\n").unwrap();
        let inner = ProbabilisticChannel::with_policy(Dir::Forward, 0.5, seed, trickle);
        check(
            "chaos",
            seed,
            ChaosChannel::new(Box::new(inner), plan, seed),
            true,
            |_, _| {},
        );
        let link = VirtualLinkBuilder::new(Dir::Forward)
            .route(1)
            .route(6)
            .policy(RoutePolicy::Random)
            .seed(seed)
            .build();
        check("virtual_link", seed, link, false, |_, _| {});
    }
}

/// A header past 63 is counted: the simulator's old sweep stopped at 64
/// headers, so afek65 and above read no stale copies there.
#[test]
fn a_stale_copy_of_header_70_is_counted() {
    let mut ch = ProbabilisticChannel::new(Dir::Forward, 1.0, 0);
    let p = |h| Packet::header_only(Header::new(h));
    ch.send(p(70));
    ch.send(p(70));
    let watermark = CopyId::from_raw(ch.total_sent());
    ch.send(p(70));
    let mut ghost = GhostInfo::default();
    fill_ghost(&mut ghost, &ch, watermark);
    assert_eq!(ghost.stale_fwd_by_header, [(Header::new(70), 2)]);
    assert_eq!(ghost.stale_fwd(Header::new(70)), 2);
}

/// The one afek3 run over `prob:0.5` with seed 1 at `messages`.
fn afek3_run(messages: u64) -> RunResult {
    let plan = CampaignPlan::parse(&format!(
        "scenario afek\nprotocols afek3\ndisciplines prob:0.5\nmessages {messages}\nseeds 1\n"
    ))
    .unwrap();
    let [spec] = &plan.expand()[..] else {
        panic!("one run");
    };
    CampaignRunner::run_one(spec).unwrap().result
}

#[test]
fn afek3_over_prob_half_keeps_its_34_message_run() {
    let run = afek3_run(34);
    assert_eq!(run.outcome, RunOutcome::Delivered);
    assert_eq!(run.steps, 22_192);
    assert_eq!(format!("{:016x}", run.fingerprint), "bc1c9e24de59e770");
}

/// 88,449 steps over a pool of tens of thousands of copies: a release
/// build only (`cargo test --release -- --ignored`).
#[test]
#[ignore]
fn afek3_over_prob_half_keeps_its_40_message_run() {
    let run = afek3_run(40);
    assert_eq!(run.outcome, RunOutcome::Delivered);
    assert_eq!(run.steps, 88_449);
    assert_eq!(format!("{:016x}", run.fingerprint), "b557f8f594b14dce");
}
