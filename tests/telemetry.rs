//! Integration tests for the telemetry subsystem: the packet-conservation
//! invariant across every channel implementation, the pinned metrics JSON
//! schema, and — the load-bearing guarantee — that attaching telemetry
//! never changes what a run computes.

use nonfifo::adversary::{ExploreConfig, Explorer, VisitedSpec};
use nonfifo::channel::{
    AdversarialChannel, BoundedReorderChannel, ChannelIntrospect, ChaosChannel, CorruptingChannel,
    Discipline, FaultObserver, FaultPlan, FifoChannel, LossyFifoChannel, ProbabilisticChannel,
};
use nonfifo::core::{SimConfig, Simulation};
use nonfifo::ioa::{Dir, Header, Packet};
use nonfifo::protocols::{AlternatingBit, SequenceNumber};
use nonfifo::telemetry::{Json, MetricsSnapshot, Registry, TraceSink, SCHEMA_VERSION};
use nonfifo::transport::VirtualLinkBuilder;
use nonfifo_rng::StdRng;
use std::sync::Arc;

/// Drives a channel with a seeded op mix, drains what is deliverable, and
/// checks exact conservation: every copy that entered is delivered,
/// dropped, or still inside (`in_transit_len` counts every stage —
/// delayed, parked, held, storm-buffered, or ready).
fn check_conservation(mut ch: impl ChannelIntrospect + FaultObserver, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for _ in 0..rng.gen_range(50..250) {
        match rng.gen_range(0..4) {
            0 | 1 => {
                ch.send(Packet::header_only(Header::new(rng.gen_range(0..8) as u32)));
            }
            2 => {
                if ch.poll_deliver().is_some() {
                    delivered += 1;
                }
            }
            _ => ch.tick(),
        }
        dropped += ch.drain_drops().len() as u64;
    }
    while ch.poll_deliver().is_some() {
        delivered += 1;
    }
    dropped += ch.drain_drops().len() as u64;
    assert_eq!(ch.total_delivered(), delivered);
    assert_eq!(
        ch.total_sent(),
        delivered + dropped + ch.in_transit_len() as u64,
        "conservation violated (delivered {delivered}, dropped {dropped}, \
         in transit {})",
        ch.in_transit_len()
    );
}

#[test]
fn conservation_holds_for_every_channel_impl() {
    for seed in 0..16 {
        check_conservation(FifoChannel::new(Dir::Forward), seed);
        check_conservation(LossyFifoChannel::new(Dir::Forward, 0.3, seed), seed);
        check_conservation(BoundedReorderChannel::new(Dir::Forward, 4, seed), seed);
        check_conservation(CorruptingChannel::new(Dir::Forward, 0.2, seed), seed);
        check_conservation(ProbabilisticChannel::new(Dir::Forward, 0.4, seed), seed);
        check_conservation(AdversarialChannel::parked(Dir::Forward), seed);
        check_conservation(AdversarialChannel::immediate(Dir::Forward), seed);
        check_conservation(
            VirtualLinkBuilder::new(Dir::Forward)
                .route(0)
                .route(6)
                .seed(seed)
                .build(),
            seed,
        );
        let plan = FaultPlan::parse("dup 0.2\ndrop 0.1\ncorrupt 0.05").expect("plan");
        check_conservation(
            ChaosChannel::new(Box::new(FifoChannel::new(Dir::Forward)), plan, seed),
            seed,
        );
    }
}

/// The exported counters must satisfy the same invariant the channels do:
/// a seeded chaos run's metrics account for every packet.
#[test]
fn chaos_run_metrics_satisfy_conservation() {
    let plan = FaultPlan::parse("dup 0.15\ndrop 0.1").expect("plan");
    let registry = Arc::new(Registry::new());
    let mut sim = Simulation::builder(SequenceNumber::factory())
        .fault_plan(plan.clone())
        .seed(7)
        .build();
    sim.attach_telemetry(Arc::clone(&registry), None);
    sim.deliver(40, &SimConfig::default()).expect("run");
    sim.publish_metrics();

    let snap = registry.snapshot();
    for dir in ["fwd", "bwd"] {
        let sends = snap.counters[&format!("chan.{dir}.sends")];
        let delivered = snap.counters[&format!("chan.{dir}.delivered")];
        let drops = snap.counters[&format!("chan.{dir}.drops")];
        let in_transit = snap.gauges[&format!("sim.{dir}.in_transit")].value;
        assert_eq!(
            sends,
            delivered + drops + in_transit,
            "{dir}: sends {sends} != delivered {delivered} + drops {drops} \
             + in transit {in_transit}"
        );
        // Injected duplicates are a subset of sends, not extra mass.
        assert!(snap.counters[&format!("chan.{dir}.injected")] <= sends);
    }
    assert!(
        snap.counters["chan.fwd.drops"] > 0,
        "plan injected no drops"
    );
}

#[test]
fn metrics_json_round_trips_with_pinned_schema() {
    let registry = Registry::new();
    registry.counter("a.sends").add(41);
    registry.gauge("a.depth").set(9);
    registry.gauge("a.depth").set(3);
    for v in [0, 1, 5, 1000] {
        registry.histogram("a.sizes").record(v);
    }
    registry.set_value("a.rate", 123.5);

    let snap = registry.snapshot();
    assert_eq!(snap.schema_version, SCHEMA_VERSION);
    assert_eq!(
        SCHEMA_VERSION, 1,
        "schema version is pinned; bump knowingly"
    );

    let json = snap.to_json();
    let back = MetricsSnapshot::from_json(&json).expect("round trip");
    assert_eq!(snap, back);
    assert_eq!(back.to_json(), json, "reserialization is byte-identical");

    // A document from a future schema is rejected, not misread.
    let future = json.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
    assert!(MetricsSnapshot::from_json(&future).is_err());
    // And the document is syntactically plain JSON.
    assert!(Json::parse(&json).is_ok());
}

/// The replayability contract: a run computes bit-for-bit the same
/// execution whether or not anyone is watching.
#[test]
fn telemetry_on_and_off_yield_identical_fingerprints() {
    for seed in 0..8 {
        let cfg = SimConfig::default();
        let mut plain = Simulation::builder(SequenceNumber::factory())
            .channel(Discipline::Probabilistic { q: 0.35 })
            .seed(seed)
            .build();
        let plain_stats = plain.deliver(25, &cfg).expect("plain run");

        let registry = Arc::new(Registry::new());
        let trace = Arc::new(TraceSink::new());
        let mut watched = Simulation::builder(SequenceNumber::factory())
            .channel(Discipline::Probabilistic { q: 0.35 })
            .seed(seed)
            .build();
        watched.attach_telemetry(Arc::clone(&registry), Some(Arc::clone(&trace)));
        let watched_stats = watched.deliver(25, &cfg).expect("watched run");
        watched.publish_metrics();

        assert_eq!(
            plain_stats.fingerprint, watched_stats.fingerprint,
            "seed {seed}: telemetry changed the execution fingerprint"
        );
        assert_eq!(
            format!("{plain_stats:?}"),
            format!("{watched_stats:?}"),
            "seed {seed}: telemetry changed the run statistics"
        );
        assert!(registry.snapshot().counters["sim.messages.received"] == 25);
        assert!(!trace.is_empty());
    }
}

#[test]
fn explorer_reports_are_byte_identical_with_telemetry_enabled() {
    let cfg = ExploreConfig::default();
    for threads in [1, 2, 8] {
        for proto in [
            Box::new(SequenceNumber::new()) as Box<dyn nonfifo::protocols::DataLink>,
            Box::new(AlternatingBit::new()),
        ] {
            let plain = Explorer::new()
                .parallel(threads)
                .explore(proto.as_ref(), &cfg)
                .report();
            let registry = Arc::new(Registry::new());
            let watched = Explorer::new()
                .parallel(threads)
                .with_telemetry(Arc::clone(&registry), Some(Arc::new(TraceSink::new())))
                .explore(proto.as_ref(), &cfg)
                .report();
            assert_eq!(
                plain,
                watched,
                "{} at {threads} threads: telemetry perturbed the report",
                proto.name()
            );
            assert!(registry.snapshot().counters["explore.states"] > 0);
        }
    }
}

#[test]
fn both_engines_export_the_same_search_counters() {
    // Both engines end a run through one shared export, so on the same
    // scope and tier their deterministic search counters agree exactly.
    // (`explore.visited_bytes` is excluded: the resident peak depends on
    // when each engine inserts relative to a spill.)
    const SHARED: [&str; 5] = [
        "explore.states",
        "explore.pruned_states",
        "explore.visited_spills",
        "explore.disk_runs",
        "explore.compaction_bytes",
    ];
    let scope = |messages, depth, pool, por| ExploreConfig {
        max_messages: messages,
        max_depth: depth,
        max_pool: pool,
        max_states: 500_000,
        por,
        ..ExploreConfig::default()
    };
    for (cfg, spec, expected) in [
        (
            scope(6, 20, 6, true),
            VisitedSpec::Ram,
            [Some(148), Some(80), None, None, None],
        ),
        (
            scope(6, 20, 8, false),
            VisitedSpec::tiered(6 * 1024),
            [Some(6005), Some(0), Some(11), Some(4), Some(110_128)],
        ),
    ] {
        for threads in [None, Some(2)] {
            let registry = Arc::new(Registry::new());
            let mut explorer = Explorer::new()
                .visited(spec)
                .with_telemetry(Arc::clone(&registry), None);
            if let Some(t) = threads {
                explorer = explorer.parallel(t);
            }
            assert!(explorer
                .explore(&SequenceNumber::new(), &cfg)
                .is_certificate());
            let snap = registry.snapshot();
            let export = SHARED.map(|name| {
                snap.counters
                    .get(name)
                    .or(snap.gauges.get(name).map(|g| &g.value))
                    .copied()
            });
            assert_eq!(export, expected, "{spec}, threads {threads:?}: {SHARED:?}");
        }
    }
}
