//! Differential properties of the online [`SpecMonitor`].
//!
//! Per direction, the monitor keeps the copies in transit in a flat table
//! ordered by copy id and the fate of every settled copy in two bits of a
//! word-packed record: space is O(in transit) plus two bits per settled
//! copy. These properties drive it and a reference model — the same rules
//! over a `HashMap` with one entry per copy — with identical seeded event
//! streams and require identical verdicts event by event, and identical
//! latched and convergence-mode state at the end. The streams interleave
//! ascending channel ids with chaos-range ids (the one out-of-order case)
//! and mix in duplicate receipts, receipts after a drop, receipts of
//! copies never sent, corrupted receipts, drops of copies never sent and
//! re-sent ids. Longer settling streams, in which more than 90% of copies
//! settle, straddle 64-id word boundaries in both ranges, re-send
//! delivered and dropped ids and drop never-sent chaos ids; on them the
//! monitor's entry count is held to the reference's after every event.
//! `clone_from` into warmed monitors is held to a fresh `clone`. A
//! live-copies monitor (the explorer's counts-only mode, which keeps no
//! settled record) is held to the full monitor event by event: the same
//! verdicts latched at the same events, up to the two documented variant
//! remaps. Every case is addressable by seed; `PROPTEST_CASES` scales the
//! case count.

use nonfifo::channel::CHAOS_COPY_BASE;
use nonfifo::ioa::{CopyId, Dir, Event, Header, Message, Packet, SpecMonitor, SpecViolation};
use nonfifo_rng::StdRng;
use std::collections::HashMap;

mod common;

use common::for_seeds;

/// Cases per property; see [`common::cases`].
fn cases() -> u64 {
    common::cases(64)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Sent(Packet),
    Delivered,
    Dropped,
}

/// The monitor's rules over a hash map: the specification the flat tables
/// must match verdict for verdict.
#[derive(Default)]
struct Reference {
    copies: HashMap<(Dir, CopyId), Fate>,
    sm: u64,
    rm: u64,
    events_seen: u64,
    first_violation: Option<SpecViolation>,
    convergence_mode: bool,
    overdeliveries: u64,
    last_overdelivery_index: Option<usize>,
}

impl Reference {
    fn observe(&mut self, event: &Event) -> Result<(), SpecViolation> {
        self.events_seen += 1;
        let result = match *event {
            Event::SendMsg(_) => {
                self.sm += 1;
                Ok(())
            }
            Event::ReceiveMsg(_) => {
                self.rm += 1;
                let event_index = (self.events_seen - 1) as usize;
                if self.rm <= self.sm {
                    Ok(())
                } else if self.convergence_mode {
                    self.overdeliveries += 1;
                    self.last_overdelivery_index = Some(event_index);
                    Ok(())
                } else {
                    Err(SpecViolation::MessageInvented { event_index })
                }
            }
            Event::SendPkt { dir, packet, copy } => {
                self.copies.insert((dir, copy), Fate::Sent(packet));
                Ok(())
            }
            Event::ReceivePkt { dir, packet, copy } => match self.copies.get(&(dir, copy)) {
                None => Err(SpecViolation::UnsentDelivery { dir, copy }),
                Some(Fate::Delivered) => Err(SpecViolation::DuplicateDelivery { dir, copy }),
                Some(Fate::Dropped) => Err(SpecViolation::DeliveredAfterDrop { dir, copy }),
                Some(&Fate::Sent(sent)) if sent != packet => {
                    Err(SpecViolation::CorruptedDelivery { dir, copy })
                }
                Some(Fate::Sent(_)) => {
                    self.copies.insert((dir, copy), Fate::Delivered);
                    Ok(())
                }
            },
            Event::DropPkt { dir, copy, .. } => {
                self.copies.insert((dir, copy), Fate::Dropped);
                Ok(())
            }
        };
        if let Err(v) = result {
            self.first_violation.get_or_insert(v);
        }
        result
    }
}

fn pkt(h: u32) -> Packet {
    Packet::header_only(Header::new(h))
}

/// A seeded event stream over both directions. Copy ids come from a
/// per-direction ascending counter, or (one send in five) from the chaos
/// range, so the two interleave; one send in ten re-uses an id already
/// sent. Receipts and drops pick a sent copy at random, whatever its fate,
/// which yields duplicate receipts and receipts after a drop; some receipts
/// name a copy never sent or carry a corrupted packet, and some drops name
/// a copy never sent.
fn random_stream(rng: &mut StdRng, len: usize) -> Vec<Event> {
    let mut next_inner = [0u64; 2];
    let mut next_chaos = [CHAOS_COPY_BASE; 2];
    let mut sent: [Vec<(CopyId, Packet)>; 2] = [Vec::new(), Vec::new()];
    let mut events = Vec::with_capacity(len);
    let mut msg = 0;
    for _ in 0..len {
        let d = rng.gen_range(0..2);
        let dir = [Dir::Forward, Dir::Backward][d];
        let event = match rng.gen_range(0..10) {
            0 => {
                msg += 1;
                Event::SendMsg(Message::identical(msg))
            }
            1 => Event::ReceiveMsg(Message::identical(msg)),
            2..=4 => {
                let raw = if !sent[d].is_empty() && rng.gen_bool(0.1) {
                    sent[d][rng.gen_range(0..sent[d].len())].0.raw()
                } else if rng.gen_bool(0.2) {
                    next_chaos[d] += 1 + rng.gen_range(0..3) as u64;
                    next_chaos[d]
                } else {
                    next_inner[d] += 1 + rng.gen_range(0..2) as u64;
                    next_inner[d]
                };
                let (copy, packet) = (CopyId::from_raw(raw), pkt(rng.gen_range(0..4) as u32));
                sent[d].push((copy, packet));
                Event::SendPkt { dir, packet, copy }
            }
            5..=7 if !sent[d].is_empty() => {
                let (copy, mut packet) = sent[d][rng.gen_range(0..sent[d].len())];
                if rng.gen_bool(0.1) {
                    packet = pkt(packet.header().index() + 1);
                }
                Event::ReceivePkt { dir, packet, copy }
            }
            8 if !sent[d].is_empty() => {
                let (copy, packet) = if rng.gen_bool(0.2) {
                    (CopyId::from_raw(next_inner[d] + 1), pkt(0))
                } else {
                    sent[d][rng.gen_range(0..sent[d].len())]
                };
                Event::DropPkt { dir, packet, copy }
            }
            _ => {
                // A copy id no send in this direction has used yet: just
                // past the end of either range.
                let raw = if rng.gen_bool(0.5) {
                    next_inner[d] + 1 + rng.gen_range(0..4) as u64
                } else {
                    next_chaos[d] + 1
                };
                let copy = CopyId::from_raw(raw);
                Event::ReceivePkt {
                    dir,
                    packet: pkt(0),
                    copy,
                }
            }
        };
        events.push(event);
    }
    events
}

fn assert_same_state(mon: &SpecMonitor, reference: &Reference, seed: u64) {
    assert_eq!(
        mon.first_violation(),
        reference.first_violation,
        "seed {seed}"
    );
    assert_eq!(mon.events_seen(), reference.events_seen, "seed {seed}");
    assert_eq!(mon.messages_sent(), reference.sm, "seed {seed}");
    assert_eq!(mon.messages_delivered(), reference.rm, "seed {seed}");
    assert_eq!(
        mon.overdeliveries(),
        reference.overdeliveries,
        "seed {seed}"
    );
    assert_eq!(
        mon.last_overdelivery_index(),
        reference.last_overdelivery_index,
        "seed {seed}"
    );
}

#[test]
fn flat_tables_match_the_hash_map_reference() {
    for_seeds(cases(), |seed, rng| {
        let convergence = rng.gen_bool(0.5);
        let (mut mon, mut reference) = if convergence {
            (
                SpecMonitor::convergence(),
                Reference {
                    convergence_mode: true,
                    ..Reference::default()
                },
            )
        } else {
            (SpecMonitor::new(), Reference::default())
        };
        let len = 50 + rng.gen_range(0..400);
        for (i, event) in random_stream(rng, len).iter().enumerate() {
            assert_eq!(
                mon.observe(event),
                reference.observe(event),
                "seed {seed}, event {i}: {event:?}"
            );
        }
        assert_eq!(mon.is_convergence_mode(), convergence);
        assert_same_state(&mon, &reference, seed);
    });
}

#[test]
fn streams_cover_every_verdict() {
    // The differential above is only as strong as its streams: over the
    // default seeds every PL1 verdict and the chaos range must show up.
    let mut seen = [false; 5];
    let mut chaos = false;
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = Reference::default();
        for event in random_stream(&mut rng, 400) {
            if let Event::SendPkt { copy, .. } = event {
                chaos |= copy.raw() >= CHAOS_COPY_BASE;
            }
            let slot = match reference.observe(&event) {
                Ok(()) => continue,
                Err(SpecViolation::UnsentDelivery { .. }) => 0,
                Err(SpecViolation::DuplicateDelivery { .. }) => 1,
                Err(SpecViolation::DeliveredAfterDrop { .. }) => 2,
                Err(SpecViolation::CorruptedDelivery { .. }) => 3,
                Err(SpecViolation::MessageInvented { .. }) => 4,
                Err(other) => panic!("unexpected verdict {other:?}"),
            };
            seen[slot] = true;
        }
    }
    assert!(chaos, "no chaos-range copy id in any stream");
    assert_eq!(seen, [true; 5], "verdicts seen: {seen:?}");
}

#[test]
fn clone_from_into_warmed_monitors_equals_a_fresh_clone() {
    for_seeds(cases(), |seed, rng| {
        let source_len = 20 + rng.gen_range(0..200);
        let mut source = SpecMonitor::new();
        for event in random_stream(rng, source_len) {
            let _ = source.observe(&event);
        }
        // Warm targets built from shorter and longer streams than the
        // source, so their tables start smaller and larger than its own.
        for warm_len in [source_len / 4, source_len * 3] {
            let mut target = SpecMonitor::convergence();
            for event in random_stream(rng, warm_len) {
                let _ = target.observe(&event);
            }
            target.clone_from(&source);
            let mut fresh = source.clone();
            assert_eq!(
                format!("{target:?}"),
                format!("{fresh:?}"),
                "seed {seed}, warm length {warm_len}"
            );
            // And the copies stay equal as they run on.
            for event in random_stream(rng, 100) {
                assert_eq!(target.observe(&event), fresh.observe(&event), "seed {seed}");
            }
            assert_eq!(target.first_violation(), fresh.first_violation());
            assert_eq!(target.events_seen(), fresh.events_seen());
        }
    });
}

/// The live-copies monitor cannot tell a copy already settled from one
/// never sent; these are the only variants it may report differently.
fn remap(v: SpecViolation) -> SpecViolation {
    match v {
        SpecViolation::DuplicateDelivery { dir, copy }
        | SpecViolation::DeliveredAfterDrop { dir, copy } => {
            SpecViolation::UnsentDelivery { dir, copy }
        }
        other => other,
    }
}

#[test]
fn live_copies_monitor_agrees_with_the_full_monitor() {
    for_seeds(cases(), |seed, rng| {
        let convergence = rng.gen_bool(0.5);
        let (mut full, mut reference) = if convergence {
            (
                SpecMonitor::convergence(),
                Reference {
                    convergence_mode: true,
                    ..Reference::default()
                },
            )
        } else {
            (SpecMonitor::new(), Reference::default())
        };
        let mut live = full.clone().live_copies_only();
        let (mut full_latched, mut live_latched) = (None, None);
        let len = 50 + rng.gen_range(0..400);
        for (i, event) in random_stream(rng, len).iter().enumerate() {
            let at = format!("seed {seed}, event {i}: {event:?}");
            let (f, l) = (full.observe(event), live.observe(event));
            let _ = reference.observe(event);
            assert_eq!(f.map_err(remap), l, "{at}");
            if full.first_violation().is_some() {
                full_latched.get_or_insert(i);
            }
            if live.first_violation().is_some() {
                live_latched.get_or_insert(i);
            }
            assert_eq!(full_latched, live_latched, "{at}");
            assert_eq!(
                full.first_violation().map(remap),
                live.first_violation(),
                "{at}"
            );
            assert_eq!(full.messages_sent(), live.messages_sent(), "{at}");
            assert_eq!(full.messages_delivered(), live.messages_delivered(), "{at}");
            assert_eq!(full.events_seen(), live.events_seen(), "{at}");
            assert_eq!(full.overdeliveries(), live.overdeliveries(), "{at}");
            assert_eq!(
                full.last_overdelivery_index(),
                live.last_overdelivery_index(),
                "{at}"
            );
            // The live tables hold exactly the copies in transit.
            for dir in [Dir::Forward, Dir::Backward] {
                let in_transit = reference
                    .copies
                    .iter()
                    .filter(|&(&(d, _), fate)| d == dir && matches!(fate, Fate::Sent(_)))
                    .count();
                assert_eq!(live.tracked_copies(dir), in_transit, "{at}, {dir:?}");
            }
        }
        assert_eq!(live.is_convergence_mode(), convergence);
    });
}

/// A seeded stream in which most copies settle, over ids that straddle
/// 64-id word boundaries. Per direction, channel ids start two below a
/// multiple of 64 and chaos-range ids (one fresh send in five) two below
/// one, and both mostly step by one. Every copy in transit is soon
/// delivered or dropped (more than eight in transit forces a delivery), so
/// settled copies far outnumber live ones. Settled ids are re-sent, and
/// received again, and drops name chaos-range ids never sent.
fn settling_stream(rng: &mut StdRng, len: usize) -> Vec<Event> {
    let mut next_inner = [0u64; 2].map(|_| 64 * (1 + rng.gen_range(0..4) as u64) - 2);
    let mut next_chaos =
        [0u64; 2].map(|_| CHAOS_COPY_BASE + 64 * (1 + rng.gen_range(0..4) as u64) - 2);
    let mut in_transit: [Vec<(CopyId, Packet)>; 2] = [Vec::new(), Vec::new()];
    let mut settled: [Vec<(CopyId, Packet)>; 2] = [Vec::new(), Vec::new()];
    let mut events = Vec::with_capacity(len);
    let mut msg = 0;
    for _ in 0..len {
        let d = rng.gen_range(0..2);
        let dir = [Dir::Forward, Dir::Backward][d];
        let mut roll = rng.gen_range(0..20);
        if in_transit[d].len() > 8 {
            roll = 6;
        } else if (in_transit[d].is_empty() && (6..=13).contains(&roll))
            || (settled[d].is_empty() && (14..=16).contains(&roll))
        {
            // Nothing to settle, or nothing settled: send instead.
            roll = 2;
        }
        let event = match roll {
            0 => {
                msg += 1;
                Event::SendMsg(Message::identical(msg))
            }
            1 => Event::ReceiveMsg(Message::identical(msg)),
            2..=5 => {
                let next = if rng.gen_bool(0.2) {
                    &mut next_chaos[d]
                } else {
                    &mut next_inner[d]
                };
                *next += 1 + u64::from(rng.gen_bool(0.1));
                let (copy, packet) = (CopyId::from_raw(*next), pkt(rng.gen_range(0..4) as u32));
                in_transit[d].push((copy, packet));
                Event::SendPkt { dir, packet, copy }
            }
            6..=11 => {
                let i = rng.gen_range(0..in_transit[d].len());
                let (copy, packet) = in_transit[d][i];
                if rng.gen_bool(0.1) {
                    // Corrupted: the copy stays in transit.
                    let packet = pkt(packet.header().index() + 1);
                    Event::ReceivePkt { dir, packet, copy }
                } else {
                    settled[d].push(in_transit[d].swap_remove(i));
                    Event::ReceivePkt { dir, packet, copy }
                }
            }
            12 | 13 => {
                let i = rng.gen_range(0..in_transit[d].len());
                let (copy, packet) = in_transit[d].swap_remove(i);
                settled[d].push((copy, packet));
                Event::DropPkt { dir, packet, copy }
            }
            14 => {
                // Re-send a settled id, delivered or dropped.
                let i = rng.gen_range(0..settled[d].len());
                let (copy, _) = settled[d].swap_remove(i);
                let packet = pkt(rng.gen_range(0..4) as u32);
                in_transit[d].push((copy, packet));
                Event::SendPkt { dir, packet, copy }
            }
            15 | 16 => {
                // Receive a settled copy again.
                let (copy, packet) = settled[d][rng.gen_range(0..settled[d].len())];
                Event::ReceivePkt { dir, packet, copy }
            }
            17 | 18 => {
                // Drop a chaos-range id no send in this direction has used.
                let copy = CopyId::from_raw(next_chaos[d] + 1 + rng.gen_range(0..70) as u64);
                Event::DropPkt {
                    dir,
                    packet: pkt(0),
                    copy,
                }
            }
            _ => {
                let copy = CopyId::from_raw(next_inner[d] + 1 + rng.gen_range(0..70) as u64);
                Event::ReceivePkt {
                    dir,
                    packet: pkt(0),
                    copy,
                }
            }
        };
        events.push(event);
    }
    events
}

fn dir_of(event: &Event) -> Option<Dir> {
    match *event {
        Event::SendPkt { dir, .. } | Event::ReceivePkt { dir, .. } | Event::DropPkt { dir, .. } => {
            Some(dir)
        }
        Event::SendMsg(_) | Event::ReceiveMsg(_) => None,
    }
}

#[test]
fn settling_streams_match_the_hash_map_reference() {
    for_seeds(cases(), |seed, rng| {
        let convergence = rng.gen_bool(0.5);
        let (mut full, mut reference) = if convergence {
            (
                SpecMonitor::convergence(),
                Reference {
                    convergence_mode: true,
                    ..Reference::default()
                },
            )
        } else {
            (SpecMonitor::new(), Reference::default())
        };
        let mut live = full.clone().live_copies_only();
        // The reference's entries per direction, kept as it grows: an event
        // adds entries only in its own direction.
        let mut entries = [0usize; 2];
        let len = 1_000 + rng.gen_range(0..1_000);
        let events = settling_stream(rng, len);
        for (i, event) in events.iter().enumerate() {
            let at = format!("seed {seed}, event {i}: {event:?}");
            let before = reference.copies.len();
            let expected = reference.observe(event);
            if let Some(dir) = dir_of(event) {
                entries[dir as usize] += reference.copies.len() - before;
            }
            assert_eq!(full.observe(event), expected, "{at}");
            assert_eq!(live.observe(event), expected.map_err(remap), "{at}");
            for dir in [Dir::Forward, Dir::Backward] {
                assert_eq!(
                    full.tracked_copies(dir),
                    entries[dir as usize],
                    "{at}, {dir:?}"
                );
                let in_transit = reference
                    .copies
                    .iter()
                    .filter(|&(&(d, _), fate)| d == dir && matches!(fate, Fate::Sent(_)))
                    .count();
                assert_eq!(live.tracked_copies(dir), in_transit, "{at}, {dir:?}");
            }
            if i == len / 2 {
                // A warmed monitor cloned into mid-stream runs on in step.
                let mut target = SpecMonitor::new();
                for event in random_stream(rng, 200) {
                    let _ = target.observe(&event);
                }
                target.clone_from(&full);
                assert_eq!(format!("{target:?}"), format!("{full:?}"), "{at}");
                full = target;
            }
        }
        assert_same_state(&full, &reference, seed);
        let settled = reference
            .copies
            .values()
            .filter(|fate| !matches!(fate, Fate::Sent(_)))
            .count();
        assert!(
            settled * 10 > reference.copies.len() * 9,
            "seed {seed}: {settled} of {} copies settled",
            reference.copies.len()
        );
    });
}

#[test]
fn settling_streams_cover_their_cases() {
    // Over the default seeds the settling streams must straddle word
    // boundaries in both id ranges, re-send delivered and dropped ids, drop
    // never-sent chaos ids, and reach every PL1 verdict.
    let mut straddles = [false; 2];
    let (mut resent_delivered, mut resent_dropped, mut unsent_chaos_drop) = (false, false, false);
    let mut seen = [false; 4];
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = Reference::default();
        for event in settling_stream(&mut rng, 1_000) {
            match event {
                Event::SendPkt { dir, copy, .. } => {
                    let raw = copy.raw();
                    if raw % 64 == 0
                        && reference
                            .copies
                            .contains_key(&(dir, CopyId::from_raw(raw - 1)))
                    {
                        straddles[usize::from(raw >= CHAOS_COPY_BASE)] = true;
                    }
                    match reference.copies.get(&(dir, copy)) {
                        Some(Fate::Delivered) => resent_delivered = true,
                        Some(Fate::Dropped) => resent_dropped = true,
                        _ => {}
                    }
                }
                Event::DropPkt { dir, copy, .. } => {
                    unsent_chaos_drop |= copy.raw() >= CHAOS_COPY_BASE
                        && !reference.copies.contains_key(&(dir, copy));
                }
                _ => {}
            }
            let slot = match reference.observe(&event) {
                Err(SpecViolation::UnsentDelivery { .. }) => 0,
                Err(SpecViolation::DuplicateDelivery { .. }) => 1,
                Err(SpecViolation::DeliveredAfterDrop { .. }) => 2,
                Err(SpecViolation::CorruptedDelivery { .. }) => 3,
                _ => continue,
            };
            seen[slot] = true;
        }
    }
    assert_eq!(
        straddles, [true; 2],
        "word-boundary straddles (inner, chaos)"
    );
    assert!(resent_delivered, "no re-send of a delivered id");
    assert!(resent_dropped, "no re-send of a dropped id");
    assert!(unsent_chaos_drop, "no drop of a never-sent chaos id");
    assert_eq!(seen, [true; 4], "verdicts seen: {seen:?}");
}
