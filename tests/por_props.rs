//! Property harness for the partial-order reduction (`--por`).
//!
//! Three families of properties back the reduction's soundness argument:
//!
//! 1. **Swap**: for every adjacent pair of steps in a seeded random
//!    schedule that [`steps_independent_at`] claims independent at the
//!    pre-state, executing the pair in either order reaches the same state
//!    digest and the same monitor verdict.
//! 2. **Retirement**: along seeded random walks, every parked packet the
//!    system calls retired ([`System::packet_retired`]) really is dead —
//!    delivering it moves neither automaton fingerprint, neither
//!    specification counter, nor the verdict — and retirement is monotone:
//!    once a value is retired it stays retired for the rest of the walk.
//! 3. **Oracle agreement**: over random protocol × discipline × scope
//!    draws, the reduced engine and the full engine agree on the outcome
//!    kind and the shortest-counterexample depth, and the reduced state
//!    count never exceeds the full one.
//!
//! Cases run on the workspace PRNG so each is addressable by seed;
//! `PROPTEST_CASES` scales the case count.

use nonfifo::adversary::{
    apply_step, scope_root, state_digest, steps_independent_at, Discipline, ExploreConfig,
    ExploreOutcome, Explorer, ScheduleStep, System,
};
use nonfifo::protocols::{
    AfekFlush, AlternatingBit, DataLink, GoBackN, Outnumber, SelectiveReject, SequenceNumber,
    SlidingWindow, StabilizingDl,
};
use nonfifo_rng::StdRng;

/// Cases per property: `PROPTEST_CASES` if set, else a small default that
/// keeps the whole harness in tier-1 time.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn for_seeds(cases: u64, case: impl Fn(u64, &mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(seed, &mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("por property failed at seed {seed}; rerun replays it exactly");
            std::panic::resume_unwind(payload);
        }
    }
}

fn random_protocol(rng: &mut StdRng) -> Box<dyn DataLink> {
    match rng.gen_range(0..9) {
        // Weighted toward the retiring protocol: the quotient and the
        // retirement properties only bite where `header_retired` is
        // implemented, but the defaulted protocols must keep the identity
        // quotient, so they stay in the draw.
        0 | 1 => Box::new(SequenceNumber::new()),
        2 => Box::new(AlternatingBit::new()),
        3 => Box::new(GoBackN::new(1 + rng.gen_range(0..2) as u32)),
        4 => Box::new(SlidingWindow::new(1 + rng.gen_range(0..2) as u32)),
        5 => Box::new(SelectiveReject::new(1 + rng.gen_range(0..2) as u32)),
        6 => Box::new(AfekFlush::new()),
        7 => Box::new(StabilizingDl::new()),
        _ => Box::new(Outnumber::new(3 + rng.gen_range(0..2) as u32)),
    }
}

/// Scope for the walk-based properties: always non-FIFO (where the
/// reduction is live) with the reduction requested.
fn walk_scope(rng: &mut StdRng) -> ExploreConfig {
    ExploreConfig {
        max_messages: 2 + rng.gen_range(0..3) as u64,
        max_depth: 16,
        max_pool: 3 + rng.gen_range(0..3),
        max_states: 2_000_000,
        discipline: Discipline::NonFifo,
        corrupt_start: if rng.gen_range(0..3) == 0 {
            Some(rng.next_u64())
        } else {
            None
        },
        por: true,
    }
}

/// The schedule steps worth trying at `sys`: the two automaton-driving
/// steps plus a deliver and a drop per distinct parked header. Steps that
/// do not resolve to an enabled action are filtered by `apply_step`.
fn candidate_steps(sys: &System) -> Vec<ScheduleStep> {
    let mut steps = vec![ScheduleStep::Send, ScheduleStep::Park];
    let mut headers = Vec::new();
    for (p, _) in sys.fwd.parked_multiset().iter() {
        if !headers.contains(&p.header()) {
            headers.push(p.header());
        }
    }
    for h in headers {
        steps.push(ScheduleStep::Deliver(h));
        steps.push(ScheduleStep::Drop(h));
    }
    steps
}

/// Drives a seeded random walk from the scope root, returning the visited
/// states and the step taken out of each non-final state.
fn random_walk(
    proto: &dyn DataLink,
    cfg: &ExploreConfig,
    rng: &mut StdRng,
) -> (Vec<System>, Vec<ScheduleStep>) {
    let mut states = vec![scope_root(proto, cfg)];
    let mut steps = Vec::new();
    for _ in 0..cfg.max_depth {
        let sys = states.last().unwrap();
        let enabled: Vec<(ScheduleStep, System)> = candidate_steps(sys)
            .into_iter()
            .filter_map(|s| apply_step(sys, cfg, s).map(|next| (s, next)))
            .collect();
        if enabled.is_empty() {
            break;
        }
        let (step, next) = enabled[rng.gen_range(0..enabled.len())].clone();
        steps.push(step);
        states.push(next);
    }
    (states, steps)
}

#[test]
fn claimed_independent_adjacent_pairs_commute() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = walk_scope(rng);
        let (states, steps) = random_walk(proto.as_ref(), &cfg, rng);
        let mut checked = 0u64;
        for i in 0..steps.len().saturating_sub(1) {
            let (at, a, b) = (&states[i], steps[i], steps[i + 1]);
            if !steps_independent_at(at, &cfg, a, b) {
                continue;
            }
            checked += 1;
            let ab = apply_step(at, &cfg, a)
                .and_then(|s| apply_step(&s, &cfg, b))
                .unwrap_or_else(|| {
                    panic!("seed {seed}: independent pair {a:?};{b:?} failed to run in order")
                });
            let ba = apply_step(at, &cfg, b)
                .and_then(|s| apply_step(&s, &cfg, a))
                .unwrap_or_else(|| {
                    panic!("seed {seed}: independent pair {a:?};{b:?} failed to run swapped")
                });
            assert_eq!(
                state_digest(&ab),
                state_digest(&ba),
                "seed {seed}: swapping {a:?};{b:?} changes the state key for {}",
                proto.name(),
            );
            // Verdicts must match by *kind*: a violation's `event_index`
            // records where in the execution log the monitor flagged it,
            // which is path bookkeeping, not part of the verdict (the two
            // orders legitimately log their shared events differently).
            assert_eq!(
                ab.violation().as_ref().map(std::mem::discriminant),
                ba.violation().as_ref().map(std::mem::discriminant),
                "seed {seed}: swapping {a:?};{b:?} changes the verdict for {} \
                 ({:?} vs {:?})",
                proto.name(),
                ab.violation(),
                ba.violation(),
            );
        }
        // The walk should exercise the relation at least occasionally; a
        // harness that never finds an independent pair proves nothing. Not
        // asserted per seed (some walks legitimately have none), but the
        // counter keeps the property honest under --nocapture.
        let _ = checked;
    });
}

#[test]
fn retired_packets_are_dead_and_stay_retired() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = walk_scope(rng);
        let (states, _) = random_walk(proto.as_ref(), &cfg, rng);
        let mut seen_retired = Vec::new();
        for sys in &states {
            // Monotonicity: every value retired earlier in the walk is
            // still retired here, parked or not.
            for &p in &seen_retired {
                assert!(
                    sys.packet_retired(p),
                    "seed {seed}: {} un-retired a value mid-walk",
                    proto.name(),
                );
            }
            for (p, _) in sys.fwd.parked_multiset().iter() {
                if !sys.packet_retired(p) {
                    continue;
                }
                if !seen_retired.contains(&p) {
                    seen_retired.push(p);
                }
                // Deadness: releasing the retired copy is invisible to both
                // automata, both counters, and the monitor.
                let mut probe = sys.clone();
                probe.fwd.release_oldest_of_packet(p);
                probe.drain_released();
                assert!(
                    probe.tx.same_state(sys.tx.as_ref()),
                    "seed {seed}: retired delivery moved the {} transmitter",
                    proto.name(),
                );
                assert!(
                    probe.rx.same_state(sys.rx.as_ref()),
                    "seed {seed}: retired delivery moved the {} receiver",
                    proto.name(),
                );
                let (pc, sc) = (probe.counts(), sys.counts());
                assert_eq!(
                    (pc.sm, pc.rm),
                    (sc.sm, sc.rm),
                    "seed {seed}: counters moved"
                );
                assert_eq!(
                    probe.violation(),
                    sys.violation(),
                    "seed {seed}: retired delivery changed the verdict for {}",
                    proto.name(),
                );
            }
        }
    });
}

fn kind(outcome: &ExploreOutcome) -> &'static str {
    match outcome {
        ExploreOutcome::Counterexample { .. } => "counterexample",
        ExploreOutcome::Exhausted { .. } => "exhausted",
        ExploreOutcome::Truncated { .. } => "truncated",
    }
}

fn states_of(outcome: &ExploreOutcome) -> Option<usize> {
    match outcome {
        ExploreOutcome::Exhausted { states, .. } | ExploreOutcome::Truncated { states, .. } => {
            Some(*states)
        }
        ExploreOutcome::Counterexample { .. } => None,
    }
}

#[test]
fn reduced_engine_agrees_with_full_oracle() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let mut cfg = walk_scope(rng);
        // Random discipline here: outside non-FIFO the reduction must
        // degenerate to the identity and still agree trivially.
        cfg.discipline = match rng.gen_range(0..3) {
            0 => Discipline::NonFifo,
            1 => Discipline::BoundedReorder(rng.gen_range(0..4) as u64),
            _ => Discipline::LossyFifo,
        };
        cfg.max_depth = 4 + rng.gen_range(0..6);
        let reduced = Explorer::new().parallel(0).explore(proto.as_ref(), &cfg);
        let full = Explorer::new()
            .parallel(0)
            .explore(proto.as_ref(), &ExploreConfig { por: false, ..cfg });
        assert_eq!(
            kind(&reduced),
            kind(&full),
            "seed {seed}: reduced and full engines disagree for {} under {} \
             (reduced {reduced:?}, full {full:?})",
            proto.name(),
            cfg.discipline,
        );
        if let (
            ExploreOutcome::Counterexample { depth: dr, .. },
            ExploreOutcome::Counterexample { depth: df, .. },
        ) = (&reduced, &full)
        {
            assert_eq!(
                dr,
                df,
                "seed {seed}: shortest-counterexample depth differs for {}",
                proto.name(),
            );
        }
        if let (Some(r), Some(f)) = (states_of(&reduced), states_of(&full)) {
            assert!(
                r <= f,
                "seed {seed}: reduction grew the state count for {} ({r} > {f})",
                proto.name(),
            );
        }
    });
}
