//! Property harness over the protocol × channel exploration matrix.
//!
//! For random small scopes, random protocols, and every channel
//! [`Discipline`], the sequential oracle and the parallel engine must agree
//! on the outcome *kind* and on the shortest-counterexample depth, and the
//! parallel engine must produce byte-identical reports at every thread
//! count. Cases run on the workspace PRNG so each is addressable by seed;
//! `PROPTEST_CASES` scales the case count (CI pins it for reproducible
//! runtime).

use nonfifo::adversary::codec::{load, save, StationTable};
use nonfifo::adversary::{
    apply_step, scope_root, Discipline, ExploreConfig, ExploreOutcome, Explorer, Schedule,
    ScheduleStep, StateCodec, System,
};
use nonfifo::ioa::{Header, Packet, Payload};
use nonfifo::protocols::{
    catalog, AfekFlush, AlternatingBit, DataLink, GoBackN, Outnumber, SelectiveReject,
    SequenceNumber, SlidingWindow, StabilizingDl,
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
            eprintln!("property failed at seed {seed}; rerun replays it exactly");
            std::panic::resume_unwind(payload);
        }
    }
}

fn random_protocol(rng: &mut StdRng) -> Box<dyn DataLink> {
    match rng.gen_range(0..8) {
        0 => Box::new(SequenceNumber::new()),
        1 => Box::new(AlternatingBit::new()),
        2 => Box::new(GoBackN::new(1 + rng.gen_range(0..2) as u32)),
        3 => Box::new(SlidingWindow::new(1 + rng.gen_range(0..2) as u32)),
        4 => Box::new(SelectiveReject::new(1 + rng.gen_range(0..2) as u32)),
        5 => Box::new(AfekFlush::new()),
        6 => Box::new(StabilizingDl::new()),
        _ => Box::new(Outnumber::new(3 + rng.gen_range(0..2) as u32)),
    }
}

fn random_discipline(rng: &mut StdRng) -> Discipline {
    match rng.gen_range(0..3) {
        0 => Discipline::NonFifo,
        1 => Discipline::BoundedReorder(rng.gen_range(0..4) as u64),
        _ => Discipline::LossyFifo,
    }
}

fn random_scope(rng: &mut StdRng) -> ExploreConfig {
    ExploreConfig {
        max_messages: 1 + rng.gen_range(0..3) as u64,
        max_depth: 4 + rng.gen_range(0..6),
        max_pool: 2 + rng.gen_range(0..3),
        // Generous: random scopes this small never reach it, so outcomes
        // stay comparable across engines.
        max_states: 2_000_000,
        discipline: random_discipline(rng),
        // A third of the scopes start from a seeded corrupted in-transit
        // multiset — the engines must agree there too.
        corrupt_start: if rng.gen_range(0..3) == 0 {
            Some(rng.next_u64())
        } else {
            None
        },
        // Half the scopes run reduced: every property here (engine
        // agreement, thread-count byte-identity, arena invisibility,
        // counterexample replay) must hold with the reduction on too.
        por: rng.gen_range(0..2) == 1,
    }
}

fn kind(outcome: &ExploreOutcome) -> &'static str {
    match outcome {
        ExploreOutcome::Counterexample { .. } => "counterexample",
        ExploreOutcome::Exhausted { .. } => "exhausted",
        ExploreOutcome::Truncated { .. } => "truncated",
    }
}

#[test]
fn sequential_and_parallel_agree_across_the_matrix() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = random_scope(rng);
        let seq = Explorer::new().explore(proto.as_ref(), &cfg);
        let par = Explorer::new().parallel(0).explore(proto.as_ref(), &cfg);
        assert_eq!(
            kind(&seq),
            kind(&par),
            "seed {seed}: engines disagree on outcome kind for {} under {} \
             (seq {seq:?}, par {par:?})",
            proto.name(),
            cfg.discipline,
        );
        if let (
            ExploreOutcome::Counterexample { depth: ds, .. },
            ExploreOutcome::Counterexample { depth: dp, .. },
        ) = (&seq, &par)
        {
            assert_eq!(
                ds,
                dp,
                "seed {seed}: shortest-counterexample depth differs for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}

#[test]
fn parallel_reports_are_byte_identical_across_thread_counts() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = random_scope(rng);
        let baseline = Explorer::new()
            .parallel(1)
            .explore(proto.as_ref(), &cfg)
            .report();
        for threads in [2, 8] {
            let report = Explorer::new()
                .parallel(threads)
                .explore(proto.as_ref(), &cfg)
                .report();
            assert_eq!(
                baseline,
                report,
                "seed {seed}: {threads}-thread report diverges for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}

#[test]
fn arena_reuse_is_invisible() {
    // The engine's zero-copy machinery — parent-pointer path records,
    // record slabs, the station table's kept automaton boxes, warm systems
    // refilled with `assign_from`, reused worker scratch —
    // lives in the arena an `Explorer` owns. Running a random sequence of
    // scopes and protocols through ONE explorer (so every run inherits the
    // previous run's recycled buffers, including across protocol switches)
    // must produce byte-identical reports to fresh-explorer runs.
    for_seeds(cases(), |seed, rng| {
        let threads = 1 + rng.gen_range(0..3);
        let mut explorer = Explorer::new().parallel(threads);
        for round in 0..3 {
            let proto = random_protocol(rng);
            let cfg = random_scope(rng);
            let warm = explorer.explore(proto.as_ref(), &cfg).report();
            let fresh = Explorer::new()
                .parallel(threads)
                .explore(proto.as_ref(), &cfg)
                .report();
            assert_eq!(
                warm,
                fresh,
                "seed {seed} round {round}: warm-explorer report diverges for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}

#[test]
fn counterexamples_replay_and_certificates_quiesce() {
    // Kind-agreement says the engines match each other; this says the
    // counterexamples they agree on are *real*: the emitted schedule
    // replays through the strict scheduler to a DL1 violation.
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = random_scope(rng);
        if let ExploreOutcome::Counterexample { schedule, .. } =
            Explorer::new().parallel(0).explore(proto.as_ref(), &cfg)
        {
            // Replay from the scope's root: corrupted scopes only violate
            // when the seeded junk is present, so a clean boot would abort.
            let sys = Schedule::run_steps_from(schedule.steps(), scope_root(proto.as_ref(), &cfg))
                .unwrap_or_else(|e| panic!("seed {seed}: replay aborted: {e}"));
            assert!(
                sys.violation().is_some(),
                "seed {seed}: counterexample schedule replayed clean for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}

/// One instance of every catalog family.
const CATALOG_INSTANCES: [&str; 10] = [
    "abp",
    "cycle3",
    "seqnum",
    "window2",
    "gbn2",
    "srej1",
    "srej2",
    "outnumber3",
    "afek3",
    "stabilizing-dl",
];

/// The steps worth trying at `sys`: the two automaton-driving steps and a
/// deliver and a drop per distinct parked header. `apply_step` refuses the
/// ones the scope's discipline does not enable.
fn candidate_steps(sys: &System) -> Vec<ScheduleStep> {
    let mut steps = vec![ScheduleStep::Send, ScheduleStep::Park];
    for (p, _) in sys.fwd.parked_multiset().iter() {
        let h = p.header();
        if !steps.contains(&ScheduleStep::Deliver(h)) {
            steps.extend([ScheduleStep::Deliver(h), ScheduleStep::Drop(h)]);
        }
    }
    steps
}

/// `load(save(sys))` must be `sys`: the same keys, the same automata, the
/// same counters, verdict and pool, and a successor with an equal key and
/// verdict for every step.
fn assert_round_trip(sys: &System, cfg: &ExploreConfig, target: &mut System, what: &str) {
    let mut stations = StationTable::new();
    let mut record = Vec::new();
    save(sys, &mut stations, &mut record);
    load(&record, &stations, target);
    for codec in [StateCodec::full(), StateCodec::retired_quotient()] {
        assert_eq!(
            codec.key(sys),
            codec.key(target),
            "{what}: {:?} key",
            codec.mode()
        );
    }
    assert!(sys.tx.same_state(target.tx.as_ref()), "{what}: transmitter");
    assert!(sys.rx.same_state(target.rx.as_ref()), "{what}: receiver");
    assert_eq!(sys.counts(), target.counts(), "{what}: counts");
    assert_eq!(sys.violation(), target.violation(), "{what}: violation");
    assert_eq!(
        sys.fwd.parked_multiset(),
        target.fwd.parked_multiset(),
        "{what}: pool"
    );
    let successor = |s: System| (StateCodec::full().key(&s), s.violation());
    for step in candidate_steps(sys) {
        let next = apply_step(sys, cfg, step).map(successor);
        let loaded = apply_step(target, cfg, step).map(successor);
        assert_eq!(next, loaded, "{what}: successor under {step}");
    }
}

#[test]
fn frontier_records_round_trip_on_random_walks() {
    // Seeded walks over every catalog protocol, discipline and start kind,
    // with duplicated and corrupted copies mixed in (moves outside the
    // explorer's alphabet, which mint and drop copies of their own). A
    // corrupted start parks junk of both packet shapes, payload-carrying
    // included. One target system absorbs every load of a walk, so a load
    // must overwrite whatever the previous one left.
    for name in catalog::PROTOCOLS.iter().map(|(family, _)| family) {
        let stem = name.split(['<', '[']).next().unwrap_or(name);
        assert!(
            CATALOG_INSTANCES.iter().any(|i| i.starts_with(stem)),
            "catalog family {name} has no instance in the walk"
        );
    }
    for_seeds(cases().div_ceil(4), |seed, rng| {
        for name in CATALOG_INSTANCES {
            let proto = catalog::by_name(name).expect("catalog name");
            for discipline in [
                Discipline::NonFifo,
                Discipline::BoundedReorder(2),
                Discipline::LossyFifo,
            ] {
                let cfg = ExploreConfig {
                    max_messages: 4,
                    max_pool: 6,
                    discipline,
                    ..ExploreConfig::default()
                };
                for corrupted in [false, true] {
                    let mut sys = System::new(proto.as_ref());
                    sys.disable_event_log();
                    if corrupted {
                        for _ in 0..1 + rng.gen_range(0..3) {
                            let header = Header::new(rng.gen_range(0..8) as u32);
                            sys.preload_forward(match rng.gen_range(0..2) {
                                0 => Packet::header_only(header),
                                _ => Packet::new(header, Payload::new(rng.next_u64())),
                            });
                        }
                    }
                    let mut target = sys.clone();
                    for depth in 0..30 {
                        if sys.violation().is_some() {
                            break;
                        }
                        let what = format!(
                            "seed {seed} {name} {discipline} corrupted={corrupted} depth {depth}"
                        );
                        assert_round_trip(&sys, &cfg, &mut target, &what);
                        let header = sys
                            .fwd
                            .parked_multiset()
                            .iter()
                            .next()
                            .map(|(p, _)| p.header());
                        match (rng.gen_range(0..10), header) {
                            (0, Some(h)) => assert!(sys.duplicate_oldest(h)),
                            (1, Some(h)) => assert!(sys.corrupt_oldest(h)),
                            _ => {
                                let enabled: Vec<System> = candidate_steps(&sys)
                                    .into_iter()
                                    .filter_map(|step| apply_step(&sys, &cfg, step))
                                    .collect();
                                if enabled.is_empty() {
                                    break;
                                }
                                sys = enabled[rng.gen_range(0..enabled.len())].clone();
                            }
                        }
                    }
                }
            }
        }
    });
}
