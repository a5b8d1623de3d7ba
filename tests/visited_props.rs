//! Property harness for the visited-set tiers and the state codec.
//!
//! For random small scopes, random protocols, and every channel
//! [`Discipline`], the tiers must be invisible: a run deduplicating
//! through the disk-spilling tier — even under a budget tiny enough to
//! force spills every few states — must produce a report byte-identical
//! to the in-RAM run, on both engines. The [`StateCodec`] must
//! reproduce the legacy state digests bit-for-bit on reachable states.
//! Cases run on the workspace PRNG so each is addressable by seed;
//! `PROPTEST_CASES` scales the case count (default 32).

use nonfifo::adversary::{
    scope_root, Discipline, ExploreConfig, Explorer, StateCodec, System, VisitedSpec,
};
use nonfifo::ioa::fingerprint::{fnv64, mix64, StateHash};
use nonfifo::protocols::{
    AfekFlush, AlternatingBit, DataLink, GoBackN, Outnumber, SelectiveReject, SequenceNumber,
    SlidingWindow, StabilizingDl,
};
use nonfifo_rng::StdRng;

mod common;

use common::for_seeds;

/// Cases per property; see [`common::cases`].
fn cases() -> u64 {
    common::cases(32)
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
        max_states: 2_000_000,
        discipline: random_discipline(rng),
        corrupt_start: if rng.gen_range(0..3) == 0 {
            Some(rng.next_u64())
        } else {
            None
        },
        por: rng.gen_range(0..2) == 1,
    }
}

#[test]
fn exact_tiers_are_byte_identical_across_the_matrix() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = random_scope(rng);
        let reference = Explorer::new().explore(proto.as_ref(), &cfg).report();
        // A budget this small spills every ~20 admitted states, so every
        // scope that certifies exercises many delta→run compactions.
        let spec = VisitedSpec::tiered(256);
        let seq = Explorer::new()
            .visited(spec)
            .explore(proto.as_ref(), &cfg)
            .report();
        assert_eq!(
            reference,
            seq,
            "seed {seed}: tiered sequential report diverges for {} under {}",
            proto.name(),
            cfg.discipline,
        );
        for threads in [2, 8] {
            let par = Explorer::new()
                .parallel(threads)
                .visited(spec)
                .explore(proto.as_ref(), &cfg)
                .report();
            assert_eq!(
                reference,
                par,
                "seed {seed}: tiered {threads}-thread report diverges for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}

#[test]
fn multi_run_invariance_across_budget_compaction_and_threads() {
    // The streaming multi-run tier's whole contract in one matrix: for a
    // scope big enough to spill repeatedly, the report is byte-identical
    // across every (budget, engine, thread-count) combination — spill
    // boundaries, run counts, and compactions are invisible to the search.
    let cfg = ExploreConfig {
        max_messages: 8,
        max_depth: 18,
        max_pool: 8,
        max_states: 2_000_000,
        discipline: Discipline::NonFifo,
        corrupt_start: None,
        por: false,
    };
    let proto = SequenceNumber::new();
    let reference = Explorer::new().explore(&proto, &cfg).report();
    // 4 KiB spills 19 times (two compactions at the fan-in of 8); 8 KiB
    // spills 9 times, so exactly one compaction runs and a run follows it;
    // 64 KiB spills once; usize::MAX never spills and must degenerate to
    // the pure-RAM answer.
    for budget in [4 * 1024, 8 * 1024, 64 * 1024, usize::MAX] {
        let spec = VisitedSpec::tiered(budget);
        let seq = Explorer::new().visited(spec).explore(&proto, &cfg).report();
        assert_eq!(
            reference, seq,
            "sequential report diverges at budget {budget}"
        );
        for threads in [1, 2, 8] {
            let par = Explorer::new()
                .parallel(threads)
                .visited(spec)
                .explore(&proto, &cfg)
                .report();
            assert_eq!(
                reference, par,
                "{threads}-thread report diverges at budget {budget}"
            );
        }
    }
}

#[test]
fn dropped_arena_deletes_every_spill_file() {
    // Crash safety: however many runs are live, dropping the explorer —
    // and the arena and tier inside it — must delete every spill file it
    // ever created.
    let cfg = ExploreConfig {
        max_messages: 8,
        max_depth: 18,
        max_pool: 8,
        max_states: 2_000_000,
        discipline: Discipline::NonFifo,
        corrupt_start: None,
        por: false,
    };
    // 4 KiB spills 19 times: compactions at the 8th and 15th spill leave
    // five live runs.
    let mut facade = Explorer::new()
        .parallel(2)
        .visited(VisitedSpec::tiered(4 * 1024));
    facade.explore(&SequenceNumber::new(), &cfg);
    let paths = facade.visited_set().spill_paths();
    assert!(
        paths.len() > 1,
        "the 4 KiB budget should have left several live runs, got {}",
        paths.len()
    );
    for path in &paths {
        assert!(path.exists(), "live run {path:?} must be on disk");
    }
    drop(facade);
    for path in &paths {
        assert!(
            !path.exists(),
            "spill file {path:?} must not outlive its arena"
        );
    }
}

#[test]
fn forced_spills_leave_no_trace_in_the_report() {
    // The regression the tier exists for: a budget far below the scope's
    // working set must actually spill to disk (not silently stay
    // resident) and still certify the exact same state count.
    let cfg = ExploreConfig {
        max_messages: 4,
        max_depth: 14,
        max_pool: 6,
        max_states: 2_000_000,
        discipline: Discipline::NonFifo,
        corrupt_start: None,
        por: false,
    };
    let proto = SequenceNumber::new();
    let reference = Explorer::new().explore(&proto, &cfg).report();
    let mut tiered = Explorer::new().visited(VisitedSpec::tiered(512));
    assert_eq!(tiered.explore(&proto, &cfg).report(), reference);
    let visited = tiered.visited_set();
    assert!(visited.spills() > 0, "512-byte budget must spill");
    assert!(visited.disk_bytes() > 0, "spills must land on disk");
    // The peak folds in the fences and the merge's stream buffers, which
    // outgrow a budget this tiny (the buffers shrink to one key each but
    // the fences cannot). The point stands: the peak tracks budget + a
    // small constant, never the spilled volume (a rewrite-all scheme reads
    // all of disk_bytes back into RAM).
    // (The "peak < 2× budget under heavy spilling" regression itself is
    // pinned by `spill_transient_stays_within_twice_the_budget` in
    // `crates/adversary/src/visited.rs`, at budgets that dwarf the buffer
    // constant.)
    assert!(
        visited.peak_memory_bytes() < 16 * 1024,
        "resident stays near budget + fences and merge buffers, got {}",
        visited.peak_memory_bytes()
    );
}

/// The legacy plain state key, spelled out here so the codec is checked
/// against a derivation it does not share code with.
fn legacy_full_key(sys: &System) -> u64 {
    let ms = sys.fwd.parked_multiset();
    StateHash::new("explore-state")
        .field(sys.tx.state_fingerprint())
        .field(sys.rx.state_fingerprint())
        .field(sys.counts().sm)
        .field(sys.counts().rm)
        .field(ms.content_hash())
        .field(ms.len() as u64)
        .finish()
}

/// The legacy POR quotient key: retired copies leave the pool digest and
/// are counted instead.
fn legacy_quotient_key(sys: &System) -> u64 {
    let ms = sys.fwd.parked_multiset();
    let mut live = ms.content_hash();
    let mut retired = 0u64;
    for (p, _) in ms.iter() {
        if sys.packet_retired(p) {
            live = live.wrapping_sub(mix64(fnv64(&p)));
            retired += 1;
        }
    }
    StateHash::new("explore-state-por")
        .field(sys.tx.state_fingerprint())
        .field(sys.rx.state_fingerprint())
        .field(sys.counts().sm)
        .field(sys.counts().rm)
        .field(live)
        .field(retired)
        .field(ms.len() as u64)
        .finish()
}

#[test]
fn codec_reproduces_the_legacy_digest_on_scope_roots() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = random_scope(rng);
        let root = scope_root(proto.as_ref(), &cfg);
        for (codec, legacy) in [
            (StateCodec::full(), legacy_full_key(&root)),
            (StateCodec::retired_quotient(), legacy_quotient_key(&root)),
        ] {
            assert_eq!(
                codec.key(&root),
                legacy,
                "seed {seed}: {codec:?} key diverges from the legacy digest for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}
