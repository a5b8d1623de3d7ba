//! The traced suite: one instrumented iteration of every workload (the
//! CLI's `--metrics-out` and `--trace-out`, the daemon's `/metrics`) plus
//! the layer probes, each inside a benchmark-side span. It reports the
//! per-layer metrics; end-to-end numbers never come from here.

use crate::probes::{self, Sampled, Traffic};
use crate::proc::Finished;
use crate::stats::{median, percentile_permille, tail_permille};
use crate::workloads::{self, timed, Scope};
use crate::{Ctx, Outcome, Tracer, Workload};
use nonfifo_adversary::{ExploreConfig, StateCodec};
use nonfifo_rng::StdRng;
use nonfifo_telemetry::{Json, MetricsSnapshot};

/// A metrics snapshot value by name: a counter, a gauge's high-water mark
/// or a value.
fn snapshot_value(snapshot: &MetricsSnapshot, name: &str) -> Option<f64> {
    snapshot
        .counters
        .get(name)
        .map(|&c| c as f64)
        .or_else(|| snapshot.gauges.get(name).map(|g| g.high_water as f64))
        .or_else(|| snapshot.values.get(name).copied())
}

/// Parses a Chrome trace file written by `--trace-out`.
fn read_trace(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One traced explore process: its run, metrics snapshot and, when asked
/// for, the Chrome trace it wrote.
struct TracedExplore {
    run: Finished,
    metrics: MetricsSnapshot,
    trace: Option<Json>,
}

impl TracedExplore {
    fn value(&self, name: &str) -> f64 {
        snapshot_value(&self.metrics, name).unwrap_or(f64::NAN)
    }

    /// Process wall minus the engine's own `explore.wall_ns`.
    fn outside_engine_s(&self) -> f64 {
        self.run.wall_s - self.value("explore.wall_ns") / 1e9
    }

    fn traffic(&self) -> Traffic {
        Traffic::from_counts(
            self.value("explore.states"),
            self.value("explore.dedup_hits"),
        )
    }
}

fn traced_explore(
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Outcome,
    w: Workload,
    with_trace: bool,
) -> Option<TracedExplore> {
    let scope = Scope::of(w).expect("explore workload");
    let metrics_path = ctx.path(&format!("{}.metrics.json", w.name()));
    let trace_path = ctx.path(&format!("{}.trace.json", w.name()));
    let mut args = scope.args(ctx.threads);
    args.extend([
        "--metrics-out".to_string(),
        metrics_path.to_string_lossy().into_owned(),
    ]);
    if with_trace {
        args.extend([
            "--trace-out".to_string(),
            trace_path.to_string_lossy().into_owned(),
        ]);
    }
    let run = tracer.span("program", "explore --metrics-out", w, || {
        timed(out, "traced explore", ctx.nonfifo(&args), |r| {
            scope.check(r)
        })
    })?;
    let loaded = std::fs::read_to_string(&metrics_path)
        .map_err(|e| e.to_string())
        .and_then(|text| MetricsSnapshot::from_json(&text).map_err(|e| e.to_string()))
        .and_then(|metrics| {
            let trace = match with_trace {
                true => Some(read_trace(&trace_path.to_string_lossy())?),
                false => None,
            };
            Ok((metrics, trace))
        });
    let failed = loaded.as_ref().err().cloned();
    out.op("read explore telemetry", failed.map_or(Ok(()), Err));
    let (metrics, trace) = loaded.ok()?;
    Some(TracedExplore {
        run,
        metrics,
        trace,
    })
}

/// Durations in milliseconds of the per-level spans in a CLI trace.
fn level_ms(trace: &Json) -> Vec<f64> {
    trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("level "))
        })
        .filter_map(|e| e.get("dur").and_then(Json::as_f64))
        .map(|us| us / 1e3)
        .collect()
}

/// Runs the traced suite. Each workload's section sits in a span of its
/// own, so every program run, request and probe call inside it names that
/// span as its parent.
pub fn suite(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let w = Workload::ExploreWide;
    let wide = tracer.span("workload", w.name(), w, || {
        explore_wide(ctx, tracer, &mut out, &mut rng)
    });
    let w = Workload::ExplorePorSeq;
    let por = tracer.span("workload", w.name(), w, || {
        explore_por_seq(ctx, tracer, &mut out, &mut rng)
    });
    let w = Workload::ExploreSpill;
    let spill = tracer.span("workload", w.name(), w, || {
        explore_spill(ctx, tracer, &mut out, &mut rng)
    });
    let w = Workload::CampaignBatch;
    tracer.span("workload", w.name(), w, || {
        campaign_batch(ctx, tracer, &mut out)
    });
    let w = Workload::CampaignServed;
    tracer.span("workload", w.name(), w, || {
        campaign_served(ctx, tracer, &mut out)
    });

    // Steps and keys over the walks of every explore scope at once.
    let samples: Vec<_> = [&wide, &por, &spill]
        .iter()
        .map(|(cfg, states)| (cfg, states.as_slice()))
        .collect();
    let (apply_us, heap_bytes) = tracer.span("probe", "apply_step", Workload::ExploreWide, || {
        probes::system(&samples)
    });
    let sampled = samples.iter().map(|(_, s)| s.len()).sum();
    out.put("system.apply_step_us", apply_us, sampled);
    out.put("system.heap_bytes_per_state", heap_bytes, sampled);
    let full = tracer.span("probe", "StateCodec::full", Workload::ExploreWide, || {
        probes::codec_key(StateCodec::full(), &[&wide.1, &spill.1])
    });
    out.put("codec.key_ns.full", full, wide.1.len() + spill.1.len());
    out
}

/// explore-wide: the parallel engine's phases, tracing overhead against
/// one untraced run of the same command, and the RAM tier at its traffic.
fn explore_wide(
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Outcome,
    rng: &mut StdRng,
) -> (ExploreConfig, Vec<Sampled>) {
    let w = Workload::ExploreWide;
    let scope = Scope::of(w).expect("explore workload");
    let traced = traced_explore(ctx, tracer, out, w, true);
    let plain = tracer.span("program", "explore", w, || {
        timed(
            out,
            "untraced explore",
            ctx.nonfifo(&scope.args(ctx.threads)),
            |r| scope.check(r),
        )
    });
    if let Some(t) = &traced {
        let levels = t.trace.as_ref().map(level_ms).unwrap_or_default();
        let frontier = t.value("explore.peak_frontier_bytes");
        out.put("cli.outside_engine_s.wide", t.outside_engine_s(), 1);
        out.put(
            "explore_par.engine_states_per_s",
            t.value("explore.states_per_sec"),
            1,
        );
        out.put("explore_par.levels", levels.len() as f64, 1);
        if !levels.is_empty() {
            out.put("explore_par.level_ms.p50", median(&levels), levels.len());
            let max = levels.iter().copied().fold(0.0, f64::max);
            out.put("explore_par.level_ms.max", max, levels.len());
        }
        let serial = t.value("explore.merge_serial_ns") / t.value("explore.wall_ns");
        out.put("explore_par.merge_serial_share", serial, 1);
        let candidates = t.value("explore.candidates") / t.value("explore.states");
        out.put("explore_par.candidates_per_state", candidates, 1);
        out.put("explore_par.peak_frontier_mb", frontier / 1e6, 1);
        let gauges = frontier + t.value("explore.visited_bytes");
        out.put(
            "explore_par.rss_over_gauges",
            t.run.peak_rss_bytes as f64 / gauges,
            1,
        );
        if let Some(p) = &plain {
            out.put(
                "telemetry.explore_overhead_ratio",
                t.run.wall_s / p.wall_s,
                1,
            );
        }
        let traffic = t.traffic();
        let (insert, contains) = tracer.span("probe", "RamVisited", w, || {
            probes::visited_ram(traffic, rng)
        });
        out.put("visited.ram.insert_ns", insert, traffic.states);
        out.put("visited.ram.contains_ns", contains, 1);
    }
    (
        scope.config(),
        tracer.span("probe", "random walk", w, || probes::walk(&scope, rng)),
    )
}

/// explore-por-seq: the sequential oracle under the sleep-set rule, and
/// the quotient key over its walk states.
fn explore_por_seq(
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Outcome,
    rng: &mut StdRng,
) -> (ExploreConfig, Vec<Sampled>) {
    let w = Workload::ExplorePorSeq;
    let scope = Scope::of(w).expect("explore workload");
    if let Some(t) = traced_explore(ctx, tracer, out, w, false) {
        out.put(
            "explore.engine_states_per_s",
            t.value("explore.states_per_sec"),
            1,
        );
        let pruned = t.value("explore.pruned_states") / t.value("explore.states");
        out.put("por.pruned_per_state", pruned, 1);
    }
    let walk = tracer.span("probe", "random walk", w, || probes::walk(&scope, rng));
    let quotient = tracer.span("probe", "StateCodec::retired_quotient", w, || {
        probes::codec_key(StateCodec::retired_quotient(), &[&walk])
    });
    out.put("codec.key_ns.quotient", quotient, walk.len());
    (scope.config(), walk)
}

/// explore-spill: the disk tier's own counters, and the tiered tier at the
/// traffic the run saw.
fn explore_spill(
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Outcome,
    rng: &mut StdRng,
) -> (ExploreConfig, Vec<Sampled>) {
    let w = Workload::ExploreSpill;
    let scope = Scope::of(w).expect("explore workload");
    if let Some(t) = traced_explore(ctx, tracer, out, w, false) {
        out.put("cli.outside_engine_s.spill", t.outside_engine_s(), 1);
        out.put("visited.spills", t.value("explore.visited_spills"), 1);
        let io = t.value("explore.compaction_bytes") / 1e6;
        out.put("visited.spill_io_mb", io, 1);
        let runs = t.metrics.gauges.get("explore.disk_runs");
        out.put(
            "visited.disk_runs",
            runs.map_or(f64::NAN, |g| g.value as f64),
            1,
        );
        let traffic = t.traffic();
        let (insert, probe, spills) = tracer.span("probe", "TieredVisited", w, || {
            probes::visited_tiered(traffic, rng)
        });
        let spilled = match spills {
            0 => Err("the 256 KiB probe never spilled".to_string()),
            _ => Ok(()),
        };
        out.op("tiered probe spills", spilled);
        out.put("visited.tiered.insert_ns", insert, traffic.states);
        out.put("visited.tiered.probe_ns_per_key", probe, 1);
    }
    (
        scope.config(),
        tracer.span("probe", "random walk", w, || probes::walk(&scope, rng)),
    )
}

/// campaign-batch: the pipeline stages, the step loop and telemetry, in
/// process on the batch plan.
fn campaign_batch(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let w = Workload::CampaignBatch;
    let stages = tracer.span("probe", "campaign stages", w, || {
        probes::campaign_stages(ctx.seed, ctx.threads)
    });
    match stages {
        Ok(s) => {
            out.put("campaign.expand_ms", s.expand_ms, 1);
            out.put("campaign.execute_s", s.execute_s, 1);
            out.put("campaign.merge_ms", s.merge_ms, 1);
            out.put("campaign.render_ms", s.render_ms, 1);
            out.put("campaign.aggregate_ms", s.aggregate_ms, 1);
        }
        Err(e) => out.op("campaign stages probe", Err(e)),
    }
    let (run_us, ns_per_msg, overhead) = tracer.span("probe", "Simulation::deliver", w, || {
        probes::simulation(ctx.seed)
    });
    out.put("sim.run_us.p50", run_us, 1);
    out.put("sim.deliver_ns_per_msg", ns_per_msg, 1);
    out.put("telemetry.sim_overhead_ratio", overhead, 1);
    let stab = tracer.span("probe", "stabilize_run", w, || probes::stabilize(ctx.seed));
    out.put("stabilize.run_us.p50", stab, 1);
}

/// campaign-served: the service, its cache and its wire protocol.
fn campaign_served(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let w = Workload::CampaignServed;
    let served = workloads::served(ctx, tracer);
    out.attempted += served.outcome.attempted;
    out.failed += served.outcome.failed;
    if !served.ttfr_s.is_empty() {
        let ms: Vec<f64> = served.ttfr_s.iter().map(|s| s * 1e3).collect();
        out.put("service.ttfr_ms.p50", median(&ms), ms.len());
        // A p90 is reported only when ten samples lie beyond it.
        if tail_permille(ms.len()).is_some() {
            out.put(
                "service.ttfr_ms.p90",
                percentile_permille(&ms, 900),
                ms.len(),
            );
            let p90 = percentile_permille(&served.latency_s, 900);
            out.put("service.latency_s.p90", p90, served.latency_s.len());
        }
        let hit_ratio = served.cache_hits as f64 / served.total_runs as f64;
        out.put("cache.hit_ratio", hit_ratio, 1);
    }
    if let Some(imbalance) = served
        .service_metrics
        .as_ref()
        .and_then(|m| snapshot_value(m, "service.shard_imbalance"))
    {
        out.put("service.shard_imbalance_pct", imbalance, 1);
    }
    let save_to = ctx.path("cache-save.json").to_string_lossy().into_owned();
    let cache = tracer.span("probe", "SharedCache load/save", w, || {
        probes::cache(&served.cache_path, &save_to)
    });
    match cache {
        Ok((save_ms, load_ms, bytes)) => {
            out.put("cache.save_ms", save_ms, 3);
            out.put("cache.load_ms", load_ms, 3);
            out.put("cache.bytes_per_entry", bytes, 1);
        }
        Err(e) => out.op("cache probe", Err(e)),
    }
    let wire = tracer.span("probe", "WireMsg::parse_line", w, || {
        probes::wire(&served.run_lines)
    });
    match wire {
        Ok((bytes, us)) => {
            out.put("wire.run_line_bytes", bytes, served.run_lines.len());
            out.put("wire.parse_us_per_line", us, served.run_lines.len());
        }
        Err(e) => out.op("wire probe", Err(e)),
    }
}
