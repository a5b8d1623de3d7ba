//! Differential properties of the simulator's per-run counters.
//!
//! A simulation counts its events in plain [`RunCounters`] slots and names
//! them only when a snapshot is read. These properties hold that snapshot
//! to a reference built the way the simulator used to record: every event
//! of the run's retained log replayed through a [`Registry`], one
//! `format!`-named counter bump per packet event, with the fixed metrics
//! registered up front. Chaos-injected copies — which the log records as
//! plain sends — are identified by a channel wrapper that logs what the
//! harness drains. The cases cover abp, seqnum, window4, gbn4, srej4 and
//! outnumber5 over fifo, probabilistic, lossy and reorder channels, chaos
//! plans with `dup`/`drop`/`corrupt`, and heavy corrupted `stabilizing-dl`
//! starts. Every case is addressable by seed; `PROPTEST_CASES` scales the
//! case count.
//!
//! Campaign cache entries and wire lines carry the counters themselves, so
//! the file also pins their codec: the `run`-line object decodes to
//! counters with the same snapshot and the same aggregates, across every
//! catalog protocol, chaos `corrupt` runs and heavy corrupted starts, and
//! a malformed object fails as a wire or cache error, never a panic. The
//! streaming codec is held to the tree decoder it replaced, kept here as
//! [`reference`]: on seeded mutations of real run lines both accept the
//! same lines, decode them to the same run and name the same error.

use nonfifo::campaign::{
    CachedRun, CampaignCache, CampaignPlan, CampaignRunner, CountersFold, RunOutcome, RunSpec,
    WireMsg, WIRE_SCHEMA_VERSION,
};
use nonfifo::channel::{
    BoxedChannel, Channel, ChannelIntrospect, CorruptionSeverity, Discipline, FaultObserver,
    FaultPlan, FaultRecord, ScramblePlan,
};
use nonfifo::core::{drive_corrupted, RunCounters, SimConfig, Simulation, StabilizeConfig};
use nonfifo::ioa::{CopyId, Dir, Event, Header, Packet};
use nonfifo::protocols::catalog;
use nonfifo::telemetry::{
    GaugeSnapshot, HistogramSnapshot, Json, JsonReader, LocalHistogram, MetricsSnapshot, Registry,
    SnapshotError, SCHEMA_VERSION,
};
use nonfifo_rng::StdRng;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

mod common;

use common::for_seeds;

/// Cases per property; see [`common::cases`].
fn cases() -> u64 {
    common::cases(64)
}

/// Copies the harness drained as injected sends, per direction.
type Injected = Arc<Mutex<HashSet<(Dir, CopyId)>>>;

/// A channel that forwards everything to `inner` and logs the copies the
/// harness drains through `drain_injected_sends`.
#[derive(Debug, Clone)]
struct Recording {
    inner: BoxedChannel,
    injected: Injected,
}

impl Channel for Recording {
    fn dir(&self) -> Dir {
        self.inner.dir()
    }
    fn send(&mut self, packet: Packet) -> CopyId {
        self.inner.send(packet)
    }
    fn poll_deliver(&mut self) -> Option<(Packet, CopyId)> {
        self.inner.poll_deliver()
    }
    fn tick(&mut self) {
        self.inner.tick();
    }
    fn in_transit_len(&self) -> usize {
        self.inner.in_transit_len()
    }
    fn total_sent(&self) -> u64 {
        self.inner.total_sent()
    }
    fn total_delivered(&self) -> u64 {
        self.inner.total_delivered()
    }
}

impl ChannelIntrospect for Recording {
    fn header_copies(&self, h: Header) -> usize {
        self.inner.header_copies(h)
    }
    fn packet_copies(&self, p: Packet) -> usize {
        self.inner.packet_copies(p)
    }
    fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>) {
        self.inner.count_headers_older_than(watermark, counts);
    }
    fn transit_census(&self) -> Vec<(Packet, usize)> {
        self.inner.transit_census()
    }
}

impl FaultObserver for Recording {
    fn drain_drops(&mut self) -> Vec<(Packet, CopyId)> {
        self.inner.drain_drops()
    }
    fn drain_injected_sends(&mut self) -> Vec<(Packet, CopyId)> {
        let drained = self.inner.drain_injected_sends();
        let dir = self.inner.dir();
        let mut log = self.injected.lock().unwrap();
        log.extend(drained.iter().map(|&(_, copy)| (dir, copy)));
        drained
    }
    fn active_faults(&self) -> Vec<String> {
        self.inner.active_faults()
    }
    fn fault_log(&self) -> Vec<FaultRecord> {
        self.inner.fault_log()
    }
}

/// The reference: the retained events from `from` on, replayed through a
/// registry exactly as the simulator recorded per event before it had
/// per-run slots. Gauges are left out (the log has no step boundaries);
/// [`check_gauges`] covers them.
fn reference(events: &[Event], injected: &HashSet<(Dir, CopyId)>) -> MetricsSnapshot {
    let registry = Registry::new();
    let lane = |dir: Dir| match dir {
        Dir::Forward => "fwd",
        Dir::Backward => "bwd",
    };
    let msgs_sent = registry.counter("sim.messages.sent");
    let msgs_received = registry.counter("sim.messages.received");
    for name in ["fwd", "bwd"] {
        for metric in ["sends", "delivered", "drops", "injected"] {
            registry.counter(&format!("chan.{name}.{metric}"));
        }
    }
    let packets_per_message = registry.histogram("sim.packets_per_message");
    let header_usage = registry.histogram("sim.header_usage");
    let fwd_sends = registry.counter("chan.fwd.sends");
    let per_header = |dir: Dir, verb: &str, h: Header| {
        registry
            .counter(&format!("chan.{}.{verb}.h{}", lane(dir), h.index()))
            .inc();
    };
    let mut round_base = 0;
    for event in events {
        match *event {
            Event::SendMsg(_) => {
                msgs_sent.inc();
                round_base = fwd_sends.get();
            }
            Event::ReceiveMsg(_) => {
                msgs_received.inc();
                packets_per_message.record(fwd_sends.get() - round_base);
                round_base = fwd_sends.get();
            }
            Event::SendPkt { dir, packet, copy } => {
                if injected.contains(&(dir, copy)) {
                    registry
                        .counter(&format!("chan.{}.injected", lane(dir)))
                        .inc();
                    per_header(dir, "injected", packet.header());
                }
                registry.counter(&format!("chan.{}.sends", lane(dir))).inc();
                per_header(dir, "send", packet.header());
                if dir == Dir::Forward {
                    header_usage.record(u64::from(packet.header().index()));
                }
            }
            Event::ReceivePkt { dir, packet, .. } => {
                registry
                    .counter(&format!("chan.{}.delivered", lane(dir)))
                    .inc();
                per_header(dir, "recv", packet.header());
            }
            Event::DropPkt { dir, packet, .. } => {
                registry.counter(&format!("chan.{}.drops", lane(dir))).inc();
                per_header(dir, "drop", packet.header());
            }
        }
    }
    registry.snapshot()
}

/// The in-transit gauges against the whole log: the final reading is the
/// copies still inside (sends − receipts − drops, preloads included), and
/// the high-water mark lies between it and the largest such balance at
/// any event boundary (the gauge is sampled once per scheduler step).
fn check_gauges(snap: &MetricsSnapshot, events: &[Event], label: &str) {
    for (dir, name) in [(Dir::Forward, "fwd"), (Dir::Backward, "bwd")] {
        let (mut inside, mut peak) = (0i64, 0i64);
        for event in events {
            match *event {
                Event::SendPkt { dir: d, .. } if d == dir => inside += 1,
                Event::ReceivePkt { dir: d, .. } | Event::DropPkt { dir: d, .. } if d == dir => {
                    inside -= 1
                }
                _ => {}
            }
            peak = peak.max(inside);
        }
        let gauge = &snap.gauges[&format!("sim.{name}.in_transit")];
        assert_eq!(gauge.value as i64, inside, "{label}: {name} in transit");
        assert!(
            gauge.value <= gauge.high_water && gauge.high_water as i64 <= peak,
            "{label}: {name} high water {} outside [{}, {peak}]",
            gauge.high_water,
            gauge.value
        );
    }
}

const PROTOCOLS: [&str; 6] = ["abp", "seqnum", "window4", "gbn4", "srej4", "outnumber5"];

fn discipline(rng: &mut StdRng) -> Discipline {
    match rng.gen_range(0..4) {
        0 => Discipline::Fifo,
        1 => Discipline::Probabilistic {
            q: [0.2, 0.4][rng.gen_range(0..2)],
        },
        2 => Discipline::LossyFifo { loss: 0.2 },
        _ => Discipline::BoundedReorder { bound: 4 },
    }
}

fn chaos_plan(rng: &mut StdRng) -> Option<FaultPlan> {
    let text = match rng.gen_range(0..4) {
        0 => return None,
        1 => "dup 0.2\ndrop 0.1",
        2 => "corrupt 0.1",
        _ => "dup 0.1\ndrop 0.05\ncorrupt 0.05",
    };
    Some(FaultPlan::parse(text).expect("plan"))
}

/// One seeded case: the run, its counters, its retained log from the
/// point counting started, and the copies drained as injected.
struct Case {
    label: String,
    counters: RunCounters,
    published: MetricsSnapshot,
    events: Vec<Event>,
    counted_from: usize,
    injected: HashSet<(Dir, CopyId)>,
}

fn run_case(seed: u64, rng: &mut StdRng) -> Case {
    let corrupted = rng.gen_range(0..4) == 0;
    let protocol = if corrupted {
        "stabilizing-dl"
    } else {
        PROTOCOLS[rng.gen_range(0..PROTOCOLS.len())]
    };
    let discipline = discipline(rng);
    let plan = chaos_plan(rng);
    let run_seed = rng.next_u64() >> 40;
    let label = format!("seed {seed}: {protocol} over {discipline}, plan {plan:?}");
    let injected: Injected = Arc::default();
    let wrap = |inner: BoxedChannel| -> BoxedChannel {
        Box::new(Recording {
            inner,
            injected: Arc::clone(&injected),
        })
    };
    let (fwd, bwd) = match &plan {
        Some(plan) => discipline.build_pair_with_faults(run_seed, plan),
        None => discipline.build_pair(run_seed),
    };
    let proto = catalog::by_name(protocol).expect("catalog protocol");
    let mut sim = Simulation::with_channels(proto, wrap(fwd), wrap(bwd));
    let stab_cfg = StabilizeConfig {
        severity: CorruptionSeverity::Heavy,
        messages: 4,
        ..StabilizeConfig::default()
    };
    if corrupted {
        // The builder's `initial_corruption`, spelled out over our channels.
        sim.enable_convergence_monitor();
        sim.retain_execution();
        sim.corrupt_initial_state(&ScramblePlan::generate(stab_cfg.severity, run_seed));
    } else {
        sim.retain_execution();
    }
    // Counting starts after the preload, as the campaign runner's does.
    let counted_from = sim.execution().expect("retained").len();
    let registry = Arc::new(Registry::new());
    sim.attach_telemetry(Arc::clone(&registry), None);
    if corrupted {
        drive_corrupted(&mut sim, run_seed, &stab_cfg);
    } else {
        let messages = if protocol == "outnumber5" {
            rng.gen_range(2..7) as u64
        } else {
            rng.gen_range(5..60) as u64
        };
        let cfg = SimConfig {
            max_steps_per_message: 5_000,
            ..SimConfig::default()
        };
        // Stalls and violations are fine: the counters must match whatever
        // the run did.
        let _ = sim.deliver(messages, &cfg);
    }
    let counters = sim.counters().expect("telemetry attached").clone();
    sim.publish_metrics();
    let events = sim.execution().expect("retained").events().to_vec();
    let injected = injected.lock().unwrap().clone();
    Case {
        label,
        counters,
        published: registry.snapshot(),
        events,
        counted_from,
        injected,
    }
}

#[test]
fn run_counters_match_the_per_event_registry() {
    let injected_cases = Mutex::new(0u64);
    let large_headers = Mutex::new(0u64);
    for_seeds(cases(), |seed, rng| {
        let case = run_case(seed, rng);
        let mut actual = case.counters.snapshot();
        assert_eq!(
            case.published, actual,
            "{}: the registry fold differs from the counters' snapshot",
            case.label
        );
        check_gauges(&actual, &case.events, &case.label);
        actual.gauges.clear();
        let expected = reference(&case.events[case.counted_from..], &case.injected);
        let mut expected_no_gauges = expected.clone();
        expected_no_gauges.gauges.clear();
        assert_eq!(actual, expected_no_gauges, "{}", case.label);
        if !case.injected.is_empty() {
            *injected_cases.lock().unwrap() += 1;
        }
        if actual.counters.keys().any(|k| {
            k.rsplit_once(".h")
                .and_then(|(_, h)| h.parse::<u64>().ok())
                .is_some_and(|h| h >= 1 << 30)
        }) {
            *large_headers.lock().unwrap() += 1;
        }
    });
    // The generator must actually reach the interesting paths.
    if cases() >= 32 {
        assert!(*injected_cases.lock().unwrap() > 0, "no injected copies");
        assert!(*large_headers.lock().unwrap() > 0, "no header above 2^30");
    }
}

#[test]
fn aggregates_of_counters_equal_the_fold_of_their_snapshots() {
    let mut folded = MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        ..MetricsSnapshot::default()
    };
    let mut metrics = Vec::new();
    for seed in 0..cases().min(24) {
        let counters = run_case(seed, &mut StdRng::seed_from_u64(seed)).counters;
        folded.merge_from(&counters.snapshot());
        // Live counters beside counters replayed from their run-line
        // object must aggregate like the fold.
        metrics.push(if seed % 3 == 0 {
            decode(&encode(&counters))
        } else {
            counters
        });
    }
    assert_eq!(RunCounters::aggregate(&metrics).to_json(), folded.to_json());
}

fn encode(counters: &RunCounters) -> String {
    let mut text = String::new();
    counters.write_json(&mut text);
    text
}

fn decode(text: &str) -> RunCounters {
    let mut reader = JsonReader::new(text);
    let counters = RunCounters::read_json(&mut reader).unwrap();
    reader.finish().unwrap();
    counters
}

/// Seeded campaign runs of every catalog protocol over four channels,
/// chaos `corrupt` runs (which flip header bit 31) and heavy corrupted
/// `stabilizing-dl` starts (labels at 2^30 + k, junk up to 2^31).
fn codec_corpus() -> Vec<CorpusRun> {
    let plan = CampaignPlan::parse(
        "scenario catalog
         protocols abp cycle3 seqnum window4 gbn4 srej4 outnumber5 afek3 stabilizing-dl
         disciplines fifo prob:0.3 lossy:0.2 reorder:4
         messages 6
         seeds 0..2
         budget 2000

         scenario corrupt
         protocols abp seqnum gbn4
         disciplines prob:0.2
         messages 12
         seeds 0..3
         budget 1000
         fault corrupt 0.2

         scenario stabilize
         protocols stabilizing-dl
         disciplines prob:0.2
         messages 4
         seeds 0..4
         corruption heavy",
    )
    .unwrap();
    plan.expand()
        .into_iter()
        .map(|spec| {
            let run = CampaignRunner::run_one(&spec).unwrap();
            CorpusRun { spec, run }
        })
        .collect()
}

/// One run of the codec corpus, with its counters.
struct CorpusRun {
    spec: RunSpec,
    run: CachedRun,
}

/// Per-header counter names at or above `from`.
fn headers_from(snap: &MetricsSnapshot, from: u64) -> usize {
    snap.counters
        .keys()
        .filter_map(|k| k.rsplit_once(".h")?.1.parse::<u64>().ok())
        .filter(|&h| h >= from)
        .count()
}

fn wire_line(record: &CorpusRun, index: u64) -> String {
    WireMsg::Run {
        index,
        spec_fingerprint: record.spec.fingerprint(),
        run: record.run.clone(),
    }
    .to_line()
}

#[test]
fn run_lines_carry_counters_exactly() {
    let records = codec_corpus();
    let mut decoded = Vec::new();
    let (mut at_2_31, mut at_2_30) = (0, 0);
    for (i, record) in records.iter().enumerate() {
        let label = format!(
            "{} {} {} seed {}",
            record.spec.scenario, record.spec.protocol, record.spec.discipline, record.spec.seed
        );
        let snap = record.run.metrics.snapshot();
        let text = encode(&record.run.metrics);
        let back = decode(&text);
        assert_eq!(back.snapshot().to_json(), snap.to_json(), "{label}");
        assert_eq!(&back, &*record.run.metrics, "{label}");
        assert_eq!(encode(&back), text, "{label}: re-encode");
        // The whole wire line round-trips too.
        let line = wire_line(record, i as u64);
        match WireMsg::parse_line(&line).unwrap() {
            WireMsg::Run { run, .. } => assert_eq!(run.metrics, record.run.metrics, "{label}"),
            other => panic!("{label}: a {} line", other.kind()),
        }
        at_2_31 += headers_from(&snap, 1 << 31);
        at_2_30 += headers_from(&snap, 1 << 30) - headers_from(&snap, 1 << 31);
        decoded.push(back);
    }
    assert!(at_2_31 > 0, "no chaos-corrupted header at 2^31");
    assert!(at_2_30 > 0, "no stabilizing-dl label at 2^30 + k");
    assert_eq!(
        RunCounters::aggregate(&decoded).to_json(),
        RunCounters::aggregate(records.iter().map(|r| &*r.run.metrics)).to_json()
    );
}

/// A campaign folds each run's counters into a total as the run
/// finishes, in whatever order its workers finish them and in whatever
/// parts its executors and cache return. The fold is order-free: over
/// the codec corpus (headers at 2^31 and at 2^30 + k, so the sparse
/// tables are in it), any seeded permutation, and any random partition
/// folded part by part and then summed, give the snapshot of the
/// input-order aggregate byte for byte. No runs give the empty snapshot,
/// and a panicked run's zero counters leave a total unchanged.
#[test]
fn folding_counters_in_any_order_and_grouping_gives_the_same_snapshot() {
    let corpus = codec_corpus();
    let runs: Vec<&RunCounters> = corpus.iter().map(|r| &*r.run.metrics).collect();
    let want = RunCounters::aggregate(runs.iter().copied()).to_json();
    let fold = |order: &mut dyn Iterator<Item = &RunCounters>| {
        let mut fold = CountersFold::new();
        order.for_each(|run| fold.add(run));
        fold
    };
    for_seeds(cases(), |seed, rng| {
        let mut order = runs.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let folded = fold(&mut order.iter().copied());
        assert_eq!(folded.snapshot().to_json(), want, "seed {seed}: permuted");

        let k = 1 + rng.gen_range(0..6);
        let mut parts: Vec<Vec<&RunCounters>> = vec![Vec::new(); k];
        for &run in &order {
            parts[rng.gen_range(0..k)].push(run);
        }
        let mut total = CountersFold::new();
        for part in &parts {
            total.absorb(fold(&mut part.iter().copied()));
        }
        assert_eq!(total.snapshot().to_json(), want, "seed {seed}: {k} parts");
    });

    let empty = RunCounters::aggregate([]);
    assert_eq!(CountersFold::new().snapshot(), empty, "no runs");
    let mut none = CountersFold::new();
    none.absorb(CountersFold::new());
    assert_eq!(none.snapshot(), empty, "two folds of no runs");

    let panicked = RunCounters::new();
    let mut total = fold(&mut runs.iter().copied());
    total.add(&panicked);
    assert_eq!(
        total.snapshot().to_json(),
        want,
        "a panicked run adds nothing"
    );
    let mut first = CountersFold::new();
    first.add(&panicked);
    first.absorb(fold(&mut runs.iter().copied()));
    assert_eq!(first.snapshot().to_json(), want, "nor when it comes first");
}

/// Replaces the field at `path` of a JSON line with the raw text `raw`
/// (raw, so it can hold numbers no `Json` value spells).
fn with_field(line: &str, path: &[&str], raw: &str) -> String {
    fn slot<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        let Json::Obj(fields) = doc else {
            panic!("{} is not an object", path[0])
        };
        let (_, value) = fields
            .iter_mut()
            .find(|(k, _)| k == path[0])
            .unwrap_or_else(|| panic!("no field {}", path[0]));
        if path.len() == 1 {
            value
        } else {
            slot(value, &path[1..])
        }
    }
    let mut doc = Json::parse(line.trim()).unwrap();
    *slot(&mut doc, path) = Json::Str("@raw@".to_string());
    format!("{}\n", doc.to_string().replace("\"@raw@\"", raw))
}

#[test]
fn malformed_run_lines_fail_as_wire_and_cache_errors() {
    let records = codec_corpus();
    let sparse = records
        .iter()
        .find(|r| headers_from(&r.run.metrics.snapshot(), 1 << 12) > 0)
        .expect("a run with sparse headers");
    let good = wire_line(sparse, 0);
    let fwd = ["run", "counters", "fwd"];
    let at = |tail: &[&'static str]| -> Vec<&str> { fwd.iter().chain(tail).copied().collect() };
    let too_long = format!("[{}1]", "0,".repeat(1 << 12));
    let cases: Vec<(&str, String)> = vec![
        (
            "truncated line",
            good[..good.find("\"recv\":[").unwrap() + 9].to_string() + "\n",
        ),
        (
            "truncated array",
            with_field(&good, &at(&["headers", "send"]), "[1,2"),
        ),
        (
            "non-integer count",
            with_field(&good, &at(&["headers", "send"]), "[1,2.5]"),
        ),
        ("string count", with_field(&good, &at(&["sends"]), "\"7\"")),
        (
            "negative count",
            with_field(&good, &at(&["headers", "drop"]), "[-1]"),
        ),
        (
            "count above u64",
            with_field(&good, &at(&["headers", "recv"]), "[18446744073709551616]"),
        ),
        (
            "dense array past 2^12",
            with_field(&good, &at(&["headers", "send"]), &too_long),
        ),
        (
            "sparse pair below 2^12",
            with_field(&good, &at(&["headers", "sparse"]), "[[4095,[1,0,0,0]]]"),
        ),
        (
            "sparse pairs out of order",
            with_field(
                &good,
                &at(&["headers", "sparse"]),
                "[[5000,[1,0,0,0]],[4096,[1,0,0,0]]]",
            ),
        ),
        (
            "sparse pair repeated",
            with_field(
                &good,
                &at(&["headers", "sparse"]),
                "[[5000,[1,0,0,0]],[5000,[1,0,0,0]]]",
            ),
        ),
        (
            "sparse header above u32",
            with_field(
                &good,
                &at(&["headers", "sparse"]),
                "[[4294967296,[1,0,0,0]]]",
            ),
        ),
        (
            "sparse pair of zeros",
            with_field(&good, &at(&["headers", "sparse"]), "[[5000,[0,0,0,0]]]"),
        ),
        (
            "short sparse counts",
            with_field(&good, &at(&["headers", "sparse"]), "[[5000,[1,0,0]]]"),
        ),
        (
            "sparse pair truncated",
            with_field(&good, &at(&["headers", "sparse"]), "[[5000]]"),
        ),
        (
            "missing lane field",
            good.replacen("\"in_transit_high\"", "\"in_transit_hi\"", 1),
        ),
        (
            "missing counters",
            good.replacen("\"counters\"", "\"metrics\"", 1),
        ),
        (
            "histogram bucket bound",
            with_field(
                &good,
                &["run", "counters", "header_usage", "buckets"],
                "[[6,1]]",
            ),
        ),
        (
            "histogram count",
            with_field(
                &good,
                &["run", "counters", "packets_per_message", "count"],
                "99999",
            ),
        ),
    ];
    let path = std::env::temp_dir()
        .join(format!("nonfifo-codec-{}.ndjson", std::process::id()))
        .to_string_lossy()
        .into_owned();
    for (what, bad) in &cases {
        assert_ne!(bad, &good, "{what}: the mutation did nothing");
        let err = WireMsg::parse_line(bad).expect_err(what);
        assert!(err.to_string().starts_with("wire: "), "{what}: {err}");
        std::fs::write(&path, format!("{good}{bad}")).unwrap();
        let err = CampaignCache::load(&path).expect_err(what).to_string();
        assert!(err.contains("campaign cache line 2: "), "{what}: {err}");
    }
    std::fs::write(&path, &good).unwrap();
    assert_eq!(CampaignCache::load(&path).unwrap().len(), 1);
    std::fs::remove_file(&path).ok();
}

/// The tree decoder the streaming run-line codec replaced, kept as the
/// reference: a line is parsed whole with `Json::parse`, then judged field
/// by field in a fixed order. A decoded message comes back re-encoded
/// through a `Json` tree, which is how two decodings are compared.
mod reference {
    use super::*;

    /// A decoded line, re-encoded: its `type` and its canonical line.
    type Decoded = (String, String);

    /// `WireMsg::parse_line`'s verdict: the canonical line, or the error
    /// as displayed.
    pub fn parse_line(line: &str) -> Result<String, String> {
        let doc = Json::parse(line.trim()).map_err(|e| format!("wire: {e}"))?;
        message(&doc)
            .map(|(_, line)| line)
            .map_err(|e| format!("wire: {e}"))
    }

    /// A cache file's verdict on one of its lines: the line's run, or the
    /// error message after `campaign cache line N: `.
    pub fn cache_line(text: &str) -> Result<String, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if let Some(v) = doc.get("v").and_then(Json::as_u64) {
            if v < WIRE_SCHEMA_VERSION {
                return Err(format!(
                    "a wire schema_version {v} run line; this build reads version \
                     {WIRE_SCHEMA_VERSION} (delete the file: it holds deterministic runs, \
                     which the next campaign recomputes)"
                ));
            }
        }
        match message(&doc)? {
            (kind, line) if kind == "run" => Ok(line),
            (kind, _) => Err(format!("expected a run line, found a {kind:?} line")),
        }
    }

    fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn message(doc: &Json) -> Result<Decoded, String> {
        if doc.as_obj().is_none() {
            return Err("message is not a JSON object".to_string());
        }
        let v = need_u64(doc, "v")?;
        if v != WIRE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported wire schema_version {v} (this build speaks {WIRE_SCHEMA_VERSION})"
            ));
        }
        let kind = need_str(doc, "type")?;
        let mut fields = vec![("v", Json::Uint(v)), ("type", Json::Str(kind.to_string()))];
        let snapshot = |key: &str, label: &str| {
            let value = doc
                .get(key)
                .ok_or_else(|| format!("{label}: missing {key}"))?;
            snapshot_from_tree(value)
                .map(|snap| snapshot_tree(&snap))
                .map_err(|e| format!("{label}: {e}"))
        };
        match kind {
            "submit" => {
                fields.push(("plan", Json::Str(need_str(doc, "plan")?.to_string())));
                fields.push(("workers", Json::Uint(need_u64(doc, "workers")?)));
            }
            "run" => {
                let run = doc.get("run").ok_or("run: missing run object")?;
                fields.push(("index", Json::Uint(need_u64(doc, "index")?)));
                fields.push(("spec", Json::Uint(need_u64(doc, "spec")?)));
                fields.push(("run", cached_run(run).map_err(|e| format!("run: {e}"))?));
            }
            "metrics" => fields.push(("snapshot", snapshot("snapshot", "metrics")?)),
            "report" => {
                doc.get("aggregate").ok_or("report: missing aggregate")?;
                fields.push(("render", Json::Str(need_str(doc, "render")?.to_string())));
                fields.push(("cache_hits", Json::Uint(need_u64(doc, "cache_hits")?)));
                fields.push(("aggregate", snapshot("aggregate", "report")?));
            }
            "error" => fields.push(("message", Json::Str(need_str(doc, "message")?.to_string()))),
            other => return Err(format!("unknown message type {other:?}")),
        }
        Ok((kind.to_string(), format!("{}\n", obj(fields))))
    }

    fn cached_run(entry: &Json) -> Result<Json, String> {
        let outcome = entry
            .get("outcome")
            .and_then(Json::as_str)
            .filter(|s| RunOutcome::from_str_opt(s).is_some())
            .ok_or("no valid outcome")?;
        let counters = entry.get("counters").ok_or("missing field \"counters\"")?;
        let counters = run_counters(counters)
            .map_err(|e| format!("snapshot schema error: run counters: {e}"))?;
        Ok(obj(vec![
            ("outcome", Json::Str(outcome.to_string())),
            ("fingerprint", Json::Uint(need_u64(entry, "fingerprint")?)),
            ("steps", Json::Uint(need_u64(entry, "steps")?)),
            ("fwd_sends", Json::Uint(need_u64(entry, "fwd_sends")?)),
            ("delivered", Json::Uint(need_u64(entry, "delivered")?)),
            ("counters", counters),
        ]))
    }

    fn need_u64(doc: &Json, key: &str) -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))
    }

    fn need_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    }

    fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
        doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    fn uint(doc: &Json, key: &str) -> Result<u64, String> {
        field(doc, key)?
            .as_u64()
            .ok_or_else(|| format!("{key} is not a u64"))
    }

    fn arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
        field(doc, key)?
            .as_arr()
            .ok_or_else(|| format!("{key} is not an array"))
    }

    const VERBS: [&str; 4] = ["send", "recv", "drop", "injected"];
    const DENSE_HEADERS: u32 = 1 << 12;
    const SCALARS: [&str; 6] = [
        "sends",
        "delivered",
        "drops",
        "injected",
        "in_transit",
        "in_transit_high",
    ];

    fn run_counters(doc: &Json) -> Result<Json, String> {
        let lane = |key: &str| lane(field(doc, key)?).map_err(|e| format!("{key}.{e}"));
        Ok(obj(vec![
            ("messages_sent", Json::Uint(uint(doc, "messages_sent")?)),
            (
                "messages_received",
                Json::Uint(uint(doc, "messages_received")?),
            ),
            ("fwd", lane("fwd")?),
            ("bwd", lane("bwd")?),
            (
                "packets_per_message",
                histogram(doc, "packets_per_message")?,
            ),
            ("header_usage", histogram(doc, "header_usage")?),
        ]))
    }

    fn lane(doc: &Json) -> Result<Json, String> {
        let mut fields = Vec::new();
        for key in SCALARS {
            fields.push((key, Json::Uint(uint(doc, key)?)));
        }
        let headers = header_table(field(doc, "headers")?).map_err(|e| format!("headers.{e}"))?;
        fields.push(("headers", headers));
        Ok(obj(fields))
    }

    fn histogram(doc: &Json, key: &str) -> Result<Json, String> {
        let snap = histogram_from_tree(key, field(doc, key)?).map_err(|e| e.to_string())?;
        let histogram = LocalHistogram::from_snapshot(&snap)
            .ok_or_else(|| format!("{key} is not a histogram's snapshot"))?;
        Ok(histogram_tree(&histogram.snapshot()))
    }

    /// `MetricsSnapshot::from_json`'s verdict on a document.
    pub fn snapshot_from_text(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
        snapshot_from_tree(&Json::parse(text)?)
    }

    /// The tree decoder of a snapshot document: the first of repeated
    /// top-level keys wins (`Json::get`), the last of repeated names in a
    /// section wins (map inserts), a section that is not an object is
    /// ignored, and the checks run in document-independent order.
    pub fn snapshot_from_tree(doc: &Json) -> Result<MetricsSnapshot, SnapshotError> {
        let schema = |msg: String| Err(SnapshotError::Schema(msg));
        let Some(version) = doc.get("schema_version").and_then(Json::as_u64) else {
            return schema("missing schema_version".to_string());
        };
        if version == 0 || version > SCHEMA_VERSION {
            return schema(format!(
                "unsupported schema_version {version} (this build reads ≤ {SCHEMA_VERSION})"
            ));
        }
        let mut snap = MetricsSnapshot {
            schema_version: version,
            ..MetricsSnapshot::default()
        };
        let section = |key: &str| doc.get(key).and_then(Json::as_obj).unwrap_or_default();
        for (k, v) in section("counters") {
            match v.as_u64() {
                Some(n) => snap.counters.insert(k.clone(), n),
                None => return schema(format!("counter '{k}' is not a u64")),
            };
        }
        for (k, v) in section("gauges") {
            let read = |key: &str| v.get(key).and_then(Json::as_u64);
            match (read("value"), read("high_water")) {
                (Some(value), Some(high_water)) => snap
                    .gauges
                    .insert(k.clone(), GaugeSnapshot { value, high_water }),
                _ => return schema(format!("gauge '{k}' is malformed")),
            };
        }
        for (k, v) in section("histograms") {
            snap.histograms
                .insert(k.clone(), histogram_from_tree(k, v)?);
        }
        for (k, v) in section("values") {
            match v.as_f64() {
                Some(x) => snap.values.insert(k.clone(), x),
                None => return schema(format!("value '{k}' is not a number")),
            };
        }
        Ok(snap)
    }

    /// The tree decoder of a histogram object: buckets first, then
    /// `count`, `sum`, `min` and `max`.
    pub fn histogram_from_tree(name: &str, v: &Json) -> Result<HistogramSnapshot, SnapshotError> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| SnapshotError::Schema(format!("histogram '{name}' missing {key}")))
        };
        let mut buckets = Vec::new();
        for item in v.get("buckets").and_then(Json::as_arr).unwrap_or_default() {
            let pair = match item.as_arr() {
                Some([le, n]) => le.as_u64().zip(n.as_u64()),
                _ => None,
            };
            let Some(pair) = pair else {
                let msg = format!("histogram '{name}' has a bad bucket");
                return Err(SnapshotError::Schema(msg));
            };
            buckets.push(pair);
        }
        Ok(HistogramSnapshot {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            max: field("max")?,
            buckets,
        })
    }

    /// The tree encoder of a snapshot document.
    pub fn snapshot_tree(snap: &MetricsSnapshot) -> Json {
        fn section<T>(entries: &BTreeMap<String, T>, value: impl Fn(&T) -> Json) -> Json {
            Json::Obj(entries.iter().map(|(k, v)| (k.clone(), value(v))).collect())
        }
        let gauge = |g: &GaugeSnapshot| {
            obj(vec![
                ("value", Json::Uint(g.value)),
                ("high_water", Json::Uint(g.high_water)),
            ])
        };
        obj(vec![
            ("schema_version", Json::Uint(snap.schema_version)),
            ("counters", section(&snap.counters, |&v| Json::Uint(v))),
            ("gauges", section(&snap.gauges, gauge)),
            ("histograms", section(&snap.histograms, histogram_tree)),
            ("values", section(&snap.values, |&v| Json::Float(v))),
        ])
    }

    /// The tree encoder of a histogram object.
    pub fn histogram_tree(h: &HistogramSnapshot) -> Json {
        let bucket = |&(le, n): &(u64, u64)| Json::Arr(vec![Json::Uint(le), Json::Uint(n)]);
        obj(vec![
            ("count", Json::Uint(h.count)),
            ("sum", Json::Uint(h.sum)),
            ("min", Json::Uint(h.min)),
            ("max", Json::Uint(h.max)),
            ("buckets", Json::Arr(h.buckets.iter().map(bucket).collect())),
        ])
    }

    fn header_table(doc: &Json) -> Result<Json, String> {
        let mut dense: Vec<[u64; 4]> = Vec::new();
        for (verb, name) in VERBS.iter().enumerate() {
            let counts = arr(doc, name)?;
            if counts.len() > DENSE_HEADERS as usize {
                return Err(format!(
                    "{name}: {} dense headers; headers from {DENSE_HEADERS} on are sparse",
                    counts.len()
                ));
            }
            if counts.len() > dense.len() {
                dense.resize(counts.len(), [0; 4]);
            }
            for (slot, n) in dense.iter_mut().zip(counts) {
                slot[verb] = n
                    .as_u64()
                    .ok_or_else(|| format!("{name}: {n} is not a u64"))?;
            }
        }
        while dense.last().is_some_and(|c| c.iter().all(|&n| n == 0)) {
            dense.pop();
        }
        let mut sparse: Vec<(u32, [u64; 4])> = Vec::new();
        for pair in arr(doc, "sparse")? {
            let slot = match pair.as_arr() {
                Some([h, counts]) => h.as_u64().zip(counts.as_arr()),
                _ => None,
            };
            let Some((h, counts)) = slot else {
                return Err(format!("sparse: {pair} is not a [header, counts] pair"));
            };
            let in_order =
                |h: &u32| *h >= DENSE_HEADERS && sparse.last().is_none_or(|&(last, _)| *h > last);
            let h = u32::try_from(h).ok().filter(in_order).ok_or_else(|| {
                format!("sparse: header {h} is below {DENSE_HEADERS} or out of order")
            })?;
            let counts: Vec<u64> = counts.iter().filter_map(Json::as_u64).collect();
            let counts: [u64; 4] = counts
                .try_into()
                .ok()
                .filter(|c: &[u64; 4]| c.iter().any(|&n| n > 0))
                .ok_or_else(|| format!("sparse: header {h} needs 4 counts, not all zero"))?;
            sparse.push((h, counts));
        }
        let mut fields: Vec<(&str, Json)> = VERBS
            .iter()
            .enumerate()
            .map(|(verb, name)| {
                let len = dense.iter().rposition(|c| c[verb] > 0).map_or(0, |i| i + 1);
                let counts = dense[..len].iter().map(|c| Json::Uint(c[verb])).collect();
                (*name, Json::Arr(counts))
            })
            .collect();
        let sparse = sparse.iter().map(|(h, counts)| {
            let counts = counts.iter().map(|&n| Json::Uint(n)).collect();
            Json::Arr(vec![Json::Uint(u64::from(*h)), Json::Arr(counts)])
        });
        fields.push(("sparse", Json::Arr(sparse.collect())));
        Ok(obj(fields))
    }
}

/// Bytes a flip writes: JSON's punctuation, digits and the letters of its
/// literals and escapes.
const FLIP_BYTES: &[u8] = b"{}[],:\"\\0123456789-+.eE tfnulx";

/// Integers of 20 digits: `u64::MAX`, 2^64, all nines, and a small value
/// behind leading zeros.
const TWENTY_DIGITS: [&str; 4] = [
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "00000000000000000007",
];

/// One to three stacked mutations of a corpus line (ASCII, no newline):
/// byte flips, truncations, splices with another line, and 20-digit
/// integers in place of a number.
fn mutate(lines: &[String], rng: &mut StdRng) -> String {
    let line = lines[rng.gen_range(0..lines.len())].trim_end().to_string();
    mutate_text(line, lines, rng)
}

/// [`mutate`]'s one to three stacked mutations of `line`, splicing with
/// `lines`.
fn mutate_text(mut line: String, lines: &[String], rng: &mut StdRng) -> String {
    for _ in 0..1 + rng.gen_range(0..3) {
        if line.is_empty() {
            break;
        }
        let at = rng.gen_range(0..line.len());
        line = match rng.gen_range(0..4) {
            0 => {
                let byte = FLIP_BYTES[rng.gen_range(0..FLIP_BYTES.len())];
                format!("{}{}{}", &line[..at], byte as char, &line[at + 1..])
            }
            1 => line[..at].to_string(),
            2 => {
                let other = lines[rng.gen_range(0..lines.len())].trim_end();
                format!("{}{}", &line[..at], &other[rng.gen_range(0..other.len())..])
            }
            _ => {
                let digits = |i: usize| line.as_bytes()[i].is_ascii_digit();
                let Some(start) = (at..line.len()).find(|&i| digits(i)) else {
                    continue;
                };
                let end = (start..line.len())
                    .find(|&i| !digits(i))
                    .unwrap_or(line.len());
                let n = TWENTY_DIGITS[rng.gen_range(0..TWENTY_DIGITS.len())];
                format!("{}{n}{}", &line[..start], &line[end..])
            }
        };
    }
    line
}

/// Mutated run lines through the streaming codec and through the tree
/// decoder it replaced: nothing panics, the two accept exactly the same
/// lines, every accepted line decodes to the same message (compared by
/// re-encoding), every rejection carries the same message, and a cache
/// file holding the line either loads or fails naming line 2.
#[test]
fn mutated_run_lines_decode_as_the_tree_decoder_did() {
    let lines: Vec<String> = codec_corpus()
        .iter()
        .enumerate()
        .map(|(i, record)| wire_line(record, i as u64))
        .collect();
    let path = std::env::temp_dir()
        .join(format!("nonfifo-mutated-{}.ndjson", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let (accepted, rejected) = (Mutex::new(0u64), Mutex::new(0u64));
    for_seeds(common::cases(2000), |seed, rng| {
        let line = mutate(&lines, rng);
        let streamed = WireMsg::parse_line(&line)
            .map(|msg| msg.to_line())
            .map_err(|e| e.to_string());
        assert_eq!(
            streamed,
            reference::parse_line(&line),
            "seed {seed}: {line}"
        );
        *if streamed.is_ok() {
            &accepted
        } else {
            &rejected
        }
        .lock()
        .unwrap() += 1;

        let file = format!("{}{line}\n", lines[0]);
        std::fs::write(&path, &file).unwrap();
        match (CampaignCache::load(&path), reference::cache_line(&line)) {
            (Ok(cache), Ok(_)) => assert!(!cache.is_empty(), "seed {seed}"),
            (Err(err), Err(message)) => assert_eq!(
                err.to_string(),
                format!("{path}: campaign cache line 2: {message}"),
                "seed {seed}: {line}"
            ),
            (got, want) => panic!("seed {seed}: {line}\ncache {got:?}, reference {want:?}"),
        }
    });
    std::fs::remove_file(&path).ok();
    if common::cases(2000) >= 100 {
        let (accepted, rejected) = (
            accepted.into_inner().unwrap(),
            rejected.into_inner().unwrap(),
        );
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}

/// Reverses the fields of every object, then appends to each a repeat of
/// its first original key holding junk, and an unknown field: a line the
/// codec must read as the original (fields in any order, the first of
/// repeated keys wins, unknown fields skipped).
fn shuffled(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => {
            let mut out: Vec<(String, Json)> = fields
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), shuffled(v)))
                .collect();
            if let Some((first, _)) = fields.first() {
                out.push((first.clone(), Json::Str("junk".to_string())));
            }
            let unknown = Json::Arr(vec![Json::Float(2.5), Json::Int(-3), Json::Null]);
            out.push((
                "zz_unknown".to_string(),
                Json::Obj(vec![("deep".to_string(), unknown)]),
            ));
            Json::Obj(out)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(shuffled).collect()),
        other => other.clone(),
    }
}

#[test]
fn reordered_padded_and_repeated_fields_decode_the_same_run() {
    let records = codec_corpus();
    let path = std::env::temp_dir()
        .join(format!("nonfifo-shuffled-{}.ndjson", std::process::id()))
        .to_string_lossy()
        .into_owned();
    for (i, record) in records.iter().enumerate().step_by(7) {
        let line = wire_line(record, i as u64);
        let doc = Json::parse(line.trim()).unwrap();
        // No key or string value of a run line holds these bytes.
        let padded = shuffled(&doc)
            .to_string()
            .replace(',', " ,\t")
            .replace(':', "\t: ")
            .replace('[', "[ ");
        assert_ne!(padded, line.trim());
        let back = WireMsg::parse_line(&format!("\r\n {padded} \n")).unwrap();
        assert_eq!(back.to_line(), line, "run {i}");
        std::fs::write(&path, format!("{padded}\n")).unwrap();
        let cache = CampaignCache::load(&path).unwrap();
        let replayed = cache.get(&record.spec).expect("the run loads");
        assert_eq!(replayed.metrics, record.run.metrics, "run {i}");
    }
    std::fs::remove_file(&path).ok();
}

/// A snapshot with entries in all four sections, names that need escapes
/// or hold non-ASCII text, and values whole, negative zero, huge and tiny.
fn four_section_snapshot() -> MetricsSnapshot {
    let reg = Registry::new();
    reg.counter("chan.fwd.sends").add(12);
    reg.counter("quote\"back\\slash\u{1}π").add(u64::MAX);
    let g = reg.gauge("sim.fwd.in_transit");
    g.set(9);
    g.set(4);
    let h = reg.histogram("sim.packets_per_message");
    for v in [0, 1, 2, 2, 5, 1 << 40] {
        h.record(v);
    }
    reg.histogram("empty");
    for (i, v) in [3.0, -0.0, 1e300, 5e-324, 123456.75]
        .into_iter()
        .enumerate()
    {
        reg.set_value(&format!("v{i}"), v);
    }
    reg.snapshot()
}

/// The streaming writer spells every snapshot as the tree encoder did:
/// empty maps, names that need escapes, whole, huge, tiny and non-finite
/// values; and what it writes reads back as the same snapshot.
#[test]
fn written_snapshots_match_the_tree_encoder_byte_for_byte() {
    let empty = MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        ..MetricsSnapshot::default()
    };
    let mut odd = four_section_snapshot();
    odd.values.insert("nan".to_string(), f64::NAN);
    odd.values.insert("-inf".to_string(), f64::NEG_INFINITY);
    for snap in [empty, four_section_snapshot(), odd] {
        let mut out = String::from("prefix");
        snap.write_json(&mut out);
        let tree = reference::snapshot_tree(&snap);
        assert_eq!(out, format!("prefix{tree}"));
        if snap.values.values().all(|v| v.is_finite()) {
            let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
            assert_eq!(back.to_json(), snap.to_json());
            assert_eq!(reference::snapshot_from_tree(&tree).unwrap(), back);
        }
    }
}

/// A value a repeated key or name may carry: junk of every JSON type, or
/// `other`, a value from elsewhere in the document.
fn junk(other: &Json, rng: &mut StdRng) -> Json {
    match rng.gen_range(0..7) {
        0 => Json::Str("junk".to_string()),
        1 => Json::Uint(u64::MAX),
        2 => Json::Float(2.5),
        3 => Json::Int(-1),
        4 => Json::Null,
        5 => Json::Obj(vec![("value".to_string(), Json::Arr(Vec::new()))]),
        _ => other.clone(),
    }
}

/// One to three stacked structural mutations of a snapshot document: its
/// top-level fields shuffled, `schema_version` moved last or given a bad
/// value, a top-level key repeated, or a name inside a section repeated,
/// before or after the original.
fn restructure(doc: &Json, rng: &mut StdRng) -> Json {
    let Json::Obj(mut fields) = doc.clone() else {
        return doc.clone();
    };
    for _ in 0..1 + rng.gen_range(0..3) {
        let version = fields.iter().position(|(k, _)| k == "schema_version");
        match (rng.gen_range(0..5), version) {
            (0, _) => {
                for i in (1..fields.len()).rev() {
                    fields.swap(i, rng.gen_range(0..i + 1));
                }
            }
            (1, Some(at)) => {
                let version = fields.remove(at);
                fields.push(version);
            }
            (2, Some(at)) => {
                let bad = [Json::Uint(0), Json::Uint(2), Json::Float(1.0), Json::Null];
                fields[at].1 = bad[rng.gen_range(0..bad.len())].clone();
            }
            (3, _) => {
                let key = fields[rng.gen_range(0..fields.len())].0.clone();
                let other = &fields[rng.gen_range(0..fields.len())].1;
                let repeat = (key, junk(other, rng));
                fields.insert(rng.gen_range(0..fields.len() + 1), repeat);
            }
            _ => {
                let section = rng.gen_range(0..fields.len());
                if let Json::Obj(entries) = &mut fields[section].1 {
                    if !entries.is_empty() {
                        let name = entries[rng.gen_range(0..entries.len())].0.clone();
                        let other = entries[rng.gen_range(0..entries.len())].1.clone();
                        let repeat = (name, junk(&other, rng));
                        entries.insert(rng.gen_range(0..entries.len() + 1), repeat);
                    }
                }
            }
        }
    }
    Json::Obj(fields)
}

/// Mutated metrics documents — the campaign goldens and a document with
/// all four sections — through the streaming decoder and through the tree
/// decoder it replaced: nothing panics, and `MetricsSnapshot::from_json`
/// and `WireMsg::parse_line` of a `metrics` and a `report` line embedding
/// the document give exactly the tree decoder's snapshot or error text.
/// Mutations stack structural ones (sections in any order,
/// `schema_version` last, repeated top-level keys, repeated names within a
/// section) with byte flips, truncations, splices and 20-digit integers.
#[test]
fn mutated_metrics_documents_decode_as_the_tree_decoder_did() {
    let mut docs: Vec<String> = ["growth", "smoke", "stabilize"]
        .iter()
        .map(|name| {
            let path = format!(
                "{}/campaigns/{name}.metrics.json",
                env!("CARGO_MANIFEST_DIR")
            );
            std::fs::read_to_string(path)
                .unwrap()
                .trim_end()
                .to_string()
        })
        .collect();
    docs.push(four_section_snapshot().to_json());
    let trees: Vec<Json> = docs.iter().map(|doc| Json::parse(doc).unwrap()).collect();
    let (accepted, rejected) = (Mutex::new(0u64), Mutex::new(0u64));
    for_seeds(common::cases(500), |seed, rng| {
        let pick = rng.gen_range(0..docs.len());
        let mut doc = docs[pick].clone();
        if rng.gen_bool(0.5) {
            doc = restructure(&trees[pick], rng).to_string();
        }
        if rng.gen_bool(0.5) {
            doc = mutate_text(doc, &docs, rng);
        }
        let streamed = MetricsSnapshot::from_json(&doc)
            .map(|snap| snap.to_json())
            .map_err(|e| e.to_string());
        let tree = reference::snapshot_from_text(&doc)
            .map(|snap| snap.to_json())
            .map_err(|e| e.to_string());
        assert_eq!(streamed, tree, "seed {seed}: {doc}");
        *if streamed.is_ok() {
            &accepted
        } else {
            &rejected
        }
        .lock()
        .unwrap() += 1;
        let v = WIRE_SCHEMA_VERSION;
        for line in [
            format!("{{\"v\":{v},\"type\":\"metrics\",\"snapshot\":{doc}}}"),
            format!(
                "{{\"v\":{v},\"type\":\"report\",\"render\":\"r\",\"cache_hits\":0,\"aggregate\":{doc}}}"
            ),
        ] {
            let streamed = WireMsg::parse_line(&line)
                .map(|msg| msg.to_line())
                .map_err(|e| e.to_string());
            assert_eq!(
                streamed,
                reference::parse_line(&line),
                "seed {seed}: {line}"
            );
        }
    });
    if common::cases(500) >= 100 {
        let (accepted, rejected) = (
            accepted.into_inner().unwrap(),
            rejected.into_inner().unwrap(),
        );
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}
