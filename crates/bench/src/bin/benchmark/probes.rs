//! In-process probes of single layers, called through the libraries'
//! public front doors with inputs shaped like the workloads'. Each probe
//! returns per-operation costs; the traced suite wraps every call in a
//! span.

use crate::plans;
use crate::stats::median;
use crate::workloads::Scope;
use nonfifo_adversary::{
    apply_step, scope_root, ExploreConfig, RamVisited, ScheduleStep, StateCodec, System,
    TieredVisited, VisitedSet,
};
use nonfifo_campaign::{
    merge_reports, CampaignPlan, CampaignRunner, PlanExpansion, RunSpec, SharedCache, WireMsg,
};
use nonfifo_core::{stabilize_run, SimConfig, Simulation, StabilizeConfig};
use nonfifo_protocols::catalog;
use nonfifo_rng::StdRng;
use nonfifo_telemetry::Registry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timing passes per probe; probes report the median pass.
const PASSES: usize = 5;
/// Random-walk states sampled per explore scope.
const WALK_STATES: usize = 1_200;

fn ns(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// Median over `PASSES` of `pass()`'s (nanoseconds, operations) ratio.
fn per_op(mut pass: impl FnMut() -> (f64, usize)) -> f64 {
    let ratios: Vec<f64> = (0..PASSES)
        .map(|_| {
            let (total_ns, ops) = pass();
            total_ns / ops.max(1) as f64
        })
        .collect();
    median(&ratios)
}

/// A sampled state with the schedule steps enabled at it.
pub struct Sampled {
    sys: System,
    steps: Vec<ScheduleStep>,
}

/// The steps worth trying at `sys`: the two automaton-driving steps and a
/// deliver and a drop per distinct parked header. `apply_step` filters
/// the ones that are not enabled.
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

/// Seeded random walks from the scope root, with the event log off as in
/// the engines, until `WALK_STATES` states are sampled.
pub fn walk(scope: &Scope, rng: &mut StdRng) -> Vec<Sampled> {
    let cfg = scope.config();
    let proto = catalog::by_name("seqnum").expect("seqnum is in the catalog");
    let mut root = scope_root(proto.as_ref(), &cfg);
    root.disable_event_log();
    let mut sample = Vec::with_capacity(WALK_STATES);
    while sample.len() < WALK_STATES {
        let mut sys = root.clone();
        for _ in 0..cfg.max_depth {
            let mut enabled: Vec<(ScheduleStep, System)> = candidate_steps(&sys)
                .into_iter()
                .filter_map(|s| apply_step(&sys, &cfg, s).map(|next| (s, next)))
                .collect();
            if enabled.is_empty() || sample.len() >= WALK_STATES {
                break;
            }
            let steps = enabled.iter().map(|(s, _)| *s).collect();
            let (_, next) = enabled.swap_remove(rng.gen_range(0..enabled.len()));
            sample.push(Sampled { sys, steps });
            sys = next;
        }
    }
    sample
}

/// Microseconds per `apply_step` (clone plus transition) over the enabled
/// steps of the sampled states, and their mean heap estimate in bytes.
pub fn system(samples: &[(&ExploreConfig, &[Sampled])]) -> (f64, f64) {
    let apply_ns = per_op(|| {
        let mut ops = 0;
        let started = Instant::now();
        for (cfg, states) in samples {
            for s in states.iter() {
                for &step in &s.steps {
                    black_box(apply_step(&s.sys, cfg, black_box(step)));
                    ops += 1;
                }
            }
        }
        (ns(started), ops)
    });
    let all = samples.iter().flat_map(|(_, states)| states.iter());
    let (bytes, count) = all.fold((0usize, 0usize), |(b, n), s| {
        (b + s.sys.heap_bytes_estimate(), n + 1)
    });
    (apply_ns / 1e3, bytes as f64 / count.max(1) as f64)
}

/// Nanoseconds per dedup key derivation over the sampled states.
pub fn codec_key(codec: StateCodec, states: &[&[Sampled]]) -> f64 {
    per_op(|| {
        let mut ops = 0;
        let started = Instant::now();
        for _ in 0..20 {
            for s in states.iter().flat_map(|v| v.iter()) {
                black_box(codec.key(black_box(&s.sys)));
                ops += 1;
            }
        }
        (ns(started), ops)
    })
}

/// Traffic shape of a visited set: states admitted and, per admitted
/// state, successors probed and the share of them already visited.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub states: usize,
    pub successors_per_state: f64,
    pub hit_ratio: f64,
}

impl Traffic {
    /// From an explore run's counters: every successor is either admitted
    /// (`explore.states`) or rejected as a duplicate (`explore.dedup_hits`).
    pub fn from_counts(states: f64, dedup_hits: f64) -> Traffic {
        let per = 1.0 + dedup_hits / states.max(1.0);
        Traffic {
            states: states as usize,
            successors_per_state: per,
            hit_ratio: 1.0 - 1.0 / per,
        }
    }
}

/// Nanoseconds per insert and per membership probe of the exact in-RAM
/// tier, at the given traffic.
pub fn visited_ram(traffic: Traffic, rng: &mut StdRng) -> (f64, f64) {
    let keys: Vec<u64> = (0..traffic.states).map(|_| rng.next_u64()).collect();
    let probes: Vec<u64> = (0..(traffic.states as f64 * traffic.successors_per_state) as usize)
        .map(|_| {
            if rng.next_f64() < traffic.hit_ratio {
                keys[rng.gen_range(0..keys.len())]
            } else {
                rng.next_u64()
            }
        })
        .collect();
    let mut set = RamVisited::new();
    let started = Instant::now();
    for &k in &keys {
        black_box(set.insert(k));
    }
    let insert_ns = ns(started) / keys.len() as f64;
    let contains_ns = per_op(|| {
        let started = Instant::now();
        for &k in &probes {
            black_box(set.contains(k));
        }
        (ns(started), probes.len())
    });
    (insert_ns, contains_ns)
}

/// Nanoseconds per `insert_new` and per probed key (resident check plus
/// the sorted spilled batch) of the tiered tier at a 256 KiB budget, fed
/// level by level as the parallel engine feeds it, and the spills it made.
pub fn visited_tiered(traffic: Traffic, rng: &mut StdRng) -> (f64, f64, u64) {
    const LEVEL: usize = 4_096;
    let mut set = TieredVisited::new(262_144);
    let mut inserted: Vec<u64> = Vec::with_capacity(traffic.states);
    let (mut insert_ns, mut probe_ns, mut probed) = (0.0, 0.0, 0usize);
    let repeats = (LEVEL as f64 * (traffic.successors_per_state - 1.0)).round() as usize;
    while inserted.len() < traffic.states {
        let mut level: Vec<u64> = (0..LEVEL).map(|_| rng.next_u64()).collect();
        if !inserted.is_empty() {
            level.extend((0..repeats).map(|_| inserted[rng.gen_range(0..inserted.len())]));
        }
        let started = Instant::now();
        let mut pending: Vec<u64> = level
            .iter()
            .copied()
            .filter(|&k| !set.contains_resident(k))
            .collect();
        pending.sort_unstable();
        pending.dedup();
        let mut hits = vec![false; pending.len()];
        set.probe_spilled_sorted(&pending, &mut hits);
        probe_ns += ns(started);
        probed += level.len();
        let fresh: Vec<u64> = pending
            .iter()
            .zip(&hits)
            .filter(|(_, &hit)| !hit)
            .map(|(&k, _)| k)
            .collect();
        let started = Instant::now();
        for &k in &fresh {
            black_box(set.insert_new(k));
        }
        insert_ns += ns(started);
        inserted.extend(fresh);
    }
    (
        insert_ns / inserted.len() as f64,
        probe_ns / probed as f64,
        set.spills(),
    )
}

/// The batch plan's runs of one scenario, every `stride`-th.
fn batch_runs(seed: u64, scenario: &str, stride: usize) -> Vec<RunSpec> {
    CampaignPlan::parse(&plans::batch_plan(seed))
        .expect("the batch plan parses")
        .expand()
        .into_iter()
        .filter(|r| r.scenario == scenario)
        .step_by(stride)
        .collect()
}

/// Simulation probe on the batch plan's clean cells: the median
/// microseconds of build plus `deliver` per run, nanoseconds of `deliver`
/// per delivered message, and the time ratio with telemetry attached
/// against without.
pub fn simulation(seed: u64) -> (f64, f64, f64) {
    let specs = batch_runs(seed, "cells", 16);
    let pass = |telemetry: bool, run_us: &mut Vec<f64>| {
        let (mut deliver_ns, mut delivered, mut total_ns) = (0.0, 0u64, 0.0);
        for spec in &specs {
            let cfg = SimConfig {
                max_steps_per_message: spec
                    .budget
                    .unwrap_or(SimConfig::default().max_steps_per_message),
                payloads: spec.payloads,
                ..SimConfig::default()
            };
            let started = Instant::now();
            let proto =
                catalog::by_name(&spec.protocol).expect("plan protocols are in the catalog");
            let mut sim = Simulation::builder(proto)
                .channel(spec.discipline.clone())
                .seed(spec.seed)
                .build();
            if telemetry {
                sim.attach_telemetry(Arc::new(Registry::new()), None);
            }
            let built = Instant::now();
            if let Ok(stats) = black_box(sim.deliver(spec.messages, &cfg)) {
                deliver_ns += ns(built);
                delivered += stats.messages_delivered;
            }
            let run_ns = ns(started);
            total_ns += run_ns;
            run_us.push(run_ns / 1e3);
        }
        (total_ns, deliver_ns / delivered.max(1) as f64)
    };
    let (mut plain, mut traced, mut per_msg, mut run_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (total, ns_per_msg) = pass(false, &mut run_us);
        plain.push(total);
        per_msg.push(ns_per_msg);
        traced.push(pass(true, &mut Vec::new()).0);
    }
    (
        median(&run_us),
        median(&per_msg),
        median(&traced) / median(&plain),
    )
}

/// Median microseconds of `stabilize_run` on the batch plan's corrupted
/// cells.
pub fn stabilize(seed: u64) -> f64 {
    let mut run_us = Vec::new();
    for spec in batch_runs(seed, "stabilize-chaos", 4) {
        let cfg = StabilizeConfig {
            severity: spec
                .corruption
                .expect("the stabilize scenario is corrupted"),
            discipline: spec.discipline.clone(),
            fault_plan: spec.fault_plan.clone(),
            messages: spec.messages,
            max_steps_per_message: spec
                .budget
                .unwrap_or(StabilizeConfig::default().max_steps_per_message),
            ..StabilizeConfig::default()
        };
        let proto = catalog::by_name(&spec.protocol).expect("plan protocols are in the catalog");
        let started = Instant::now();
        black_box(stabilize_run(proto, spec.seed, &cfg));
        run_us.push(ns(started) / 1e3);
    }
    median(&run_us)
}

/// Milliseconds (seconds for execute) of each campaign stage on the batch
/// plan: expand, execute, merge, render, aggregate.
pub struct Stages {
    pub expand_ms: f64,
    pub execute_s: f64,
    pub merge_ms: f64,
    pub render_ms: f64,
    pub aggregate_ms: f64,
}

pub fn campaign_stages(seed: u64, threads: usize) -> Result<Stages, String> {
    let text = plans::batch_plan(seed);
    let started = Instant::now();
    let plan = CampaignPlan::parse(&text).map_err(|e| e.to_string())?;
    let expansion = PlanExpansion::of_plan(&plan).map_err(|e| e.to_string())?;
    let expand_ms = ns(started) / 1e6;
    let all: Vec<usize> = (0..expansion.len()).collect();
    let started = Instant::now();
    let part = CampaignRunner::new(threads).execute(&expansion, &all);
    let execute_s = ns(started) / 1e9;
    let started = Instant::now();
    let report = merge_reports(&expansion, Vec::new(), vec![part]).map_err(|e| e.to_string())?;
    let merge_ms = ns(started) / 1e6;
    let started = Instant::now();
    black_box(report.render());
    let render_ms = ns(started) / 1e6;
    let started = Instant::now();
    black_box(report.aggregate_metrics());
    let aggregate_ms = ns(started) / 1e6;
    if report.records.len() != expansion.len() {
        return Err(format!(
            "{} records for {} runs",
            report.records.len(),
            expansion.len()
        ));
    }
    Ok(Stages {
        expand_ms,
        execute_s,
        merge_ms,
        render_ms,
        aggregate_ms,
    })
}

/// Milliseconds to load and to save the served cache file, and its bytes
/// per entry.
pub fn cache(path: &str, save_to: &str) -> Result<(f64, f64, f64), String> {
    let mut loads = Vec::new();
    let mut cache = SharedCache::new();
    for _ in 0..3 {
        let started = Instant::now();
        cache = SharedCache::load(path).map_err(|e| e.to_string())?;
        loads.push(ns(started) / 1e6);
    }
    let mut saves = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        cache.save(save_to).map_err(|e| e.to_string())?;
        saves.push(ns(started) / 1e6);
    }
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok((
        median(&saves),
        median(&loads),
        bytes as f64 / cache.len().max(1) as f64,
    ))
}

/// Mean bytes of a streamed `run` line and microseconds to parse one.
pub fn wire(lines: &[String]) -> Result<(f64, f64), String> {
    let bytes: usize = lines.iter().map(|l| l.trim_end().len()).sum();
    let started = Instant::now();
    for line in lines {
        black_box(WireMsg::parse_line(line).map_err(|e| e.to_string())?);
    }
    let n = lines.len().max(1) as f64;
    Ok((bytes as f64 / n, ns(started) / 1e3 / n))
}
