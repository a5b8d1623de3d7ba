//! The five untraced workloads. Each runs the shipped binary as a user
//! does, checks every output, and reports the end-to-end metrics.

use crate::parse;
use crate::plans;
use crate::proc::{self, Daemon, Finished};
use crate::stats::median;
use crate::{Ctx, Outcome, Tracer, Workload};
use nonfifo_adversary::{Discipline, ExploreConfig};
use nonfifo_campaign::{CampaignPlan, WireMsg};
use nonfifo_telemetry::MetricsSnapshot;
use std::time::Instant;

/// Timed iterations per workload, at least, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Program starts timed for `setup_s` before each timed iteration of an
/// explore or batch workload: the samples then span the whole run, as the
/// iterations do, instead of one burst of milliseconds at its start.
const SETUP_STARTS_PER_ITERATION: usize = 5;
/// Daemon starts timed for `setup_s` on the served workload, one before
/// every tenth submission.
const DAEMON_STARTS: usize = 10;

/// One explore workload's scope and the state count its certificate must
/// name.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    messages: u64,
    depth: usize,
    pool: usize,
    max_states: usize,
    por: bool,
    /// The parallel engine at `threads`; otherwise the sequential oracle.
    parallel: bool,
    /// The tiered visited set at a 256 KiB budget.
    tiered: bool,
    pub states: u64,
}

impl Scope {
    /// The scopes are sized so one process takes 1-2.5 s on the baseline
    /// machine: a run of `--seconds 10` then holds four to ten processes,
    /// and its median rests on more than two samples.
    pub fn of(w: Workload) -> Option<Scope> {
        match w {
            Workload::ExploreWide => Some(Scope {
                messages: 9,
                depth: 26,
                pool: 10,
                max_states: 20_000_000,
                por: false,
                parallel: true,
                tiered: false,
                states: 160_445,
            }),
            Workload::ExplorePorSeq => Some(Scope {
                messages: 100,
                depth: 300,
                pool: 50,
                max_states: 50_000_000,
                por: true,
                parallel: false,
                tiered: false,
                states: 131_276,
            }),
            Workload::ExploreSpill => Some(Scope {
                messages: 9,
                depth: 26,
                pool: 10,
                max_states: 20_000_000,
                por: false,
                parallel: true,
                tiered: true,
                states: 160_445,
            }),
            Workload::CampaignBatch | Workload::CampaignServed => None,
        }
    }

    fn args_at(&self, messages: u64, depth: usize, pool: usize, threads: usize) -> Vec<String> {
        let mut args: Vec<String> = [
            "explore".to_string(),
            "seqnum".to_string(),
            "--messages".to_string(),
            messages.to_string(),
            "--depth".to_string(),
            depth.to_string(),
            "--pool".to_string(),
            pool.to_string(),
            "--max-states".to_string(),
            self.max_states.to_string(),
        ]
        .to_vec();
        if self.parallel {
            args.extend(["--threads".to_string(), threads.to_string()]);
        }
        if self.por {
            args.push("--por".to_string());
        }
        if self.tiered {
            args.extend(["--visited", "tiered", "--memory-budget", "262144"].map(String::from));
        }
        args
    }

    /// The workload's command line.
    pub fn args(&self, threads: usize) -> Vec<String> {
        self.args_at(self.messages, self.depth, self.pool, threads)
    }

    /// The same engine and tier on a one-message scope: what a run costs
    /// before the search itself.
    fn setup_args(&self, threads: usize) -> Vec<String> {
        self.args_at(1, 1, 1, threads)
    }

    /// The scope as a library config, for the probes.
    pub fn config(&self) -> ExploreConfig {
        ExploreConfig {
            max_messages: self.messages,
            max_depth: self.depth,
            max_pool: self.pool,
            max_states: self.max_states,
            discipline: Discipline::NonFifo,
            corrupt_start: None,
            por: self.por,
        }
    }

    /// Checks one finished explore process: exit 0, the pinned certificate
    /// count, and (tiered) at least one spill.
    pub fn check(&self, run: &Finished) -> Result<(), String> {
        if run.code() != 0 {
            return Err(format!("exit code {}", run.code()));
        }
        match parse::certificate_states(&run.stdout) {
            Some(n) if n == self.states => {}
            other => {
                return Err(format!(
                    "certificate names {other:?} states, want {}",
                    self.states
                ))
            }
        }
        if self.tiered && parse::spill_count(&run.stdout).unwrap_or(0) == 0 {
            return Err("no spill line".to_string());
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx, w: Workload) -> Outcome {
    eprintln!(
        "running {} (seed {}, {} s)",
        w.name(),
        ctx.seed,
        ctx.seconds
    );
    match w {
        Workload::CampaignBatch => batch(ctx),
        Workload::CampaignServed => served(ctx, &Tracer::new(false)).outcome,
        explore_workload => explore(ctx, Scope::of(explore_workload).expect("explore workload")),
    }
}

/// Runs `cmd` and records the run as one operation checked by `check`.
pub fn timed(
    outcome: &mut Outcome,
    what: &str,
    mut cmd: std::process::Command,
    check: impl FnOnce(&Finished) -> Result<(), String>,
) -> Option<Finished> {
    match proc::run(&mut cmd) {
        Ok(run) => {
            let verdict = check(&run);
            let ok = verdict.is_ok();
            outcome.op(what, verdict);
            ok.then_some(run)
        }
        Err(e) => {
            outcome.op(what, Err(format!("spawn: {e}")));
            None
        }
    }
}

/// Repeats `iteration` until `--seconds` have passed and at least
/// `MIN_ITERATIONS` ran, timing `SETUP_STARTS_PER_ITERATION` starts of
/// `setup_args` before each. Records `setup_s`, the median start, and
/// returns the successful iterations.
fn iterate(
    ctx: &Ctx,
    outcome: &mut Outcome,
    setup_args: &[String],
    mut iteration: impl FnMut(&mut Outcome) -> Option<Finished>,
) -> Vec<Finished> {
    let started = Instant::now();
    let mut starts = Vec::new();
    let mut runs = Vec::new();
    let mut tries = 0;
    while tries < MIN_ITERATIONS || started.elapsed().as_secs_f64() < ctx.seconds {
        tries += 1;
        for _ in 0..SETUP_STARTS_PER_ITERATION {
            let start = timed(
                outcome,
                "setup start",
                ctx.nonfifo(setup_args),
                |r| match r.code() {
                    0 => Ok(()),
                    c => Err(format!("exit code {c}")),
                },
            );
            starts.extend(start.map(|r| r.wall_s));
        }
        runs.extend(iteration(outcome));
    }
    if !starts.is_empty() {
        outcome.put("setup_s", median(&starts), starts.len());
    }
    runs
}

/// Records the median wall, CPU time and peak resident set of the checked
/// processes.
fn put_process_metrics(outcome: &mut Outcome, runs: &[Finished]) {
    if runs.is_empty() {
        return;
    }
    let n = runs.len();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.peak_rss_bytes as f64 / 1e6).collect();
    outcome.put("latency_s.p50", median(&walls), n);
    outcome.put("cpu_s", median(&cpus), n);
    outcome.put("peak_rss_mb", median(&rss), n);
}

fn explore(ctx: &Ctx, scope: Scope) -> Outcome {
    let mut outcome = Outcome::default();
    let args = scope.args(ctx.threads);
    let runs = iterate(
        ctx,
        &mut outcome,
        &scope.setup_args(ctx.threads),
        |outcome| timed(outcome, "explore", ctx.nonfifo(&args), |r| scope.check(r)),
    );
    put_process_metrics(&mut outcome, &runs);
    outcome
}

/// Expected run count of a plan, from the library's own expansion.
fn plan_runs(plan: &str) -> Result<u64, String> {
    CampaignPlan::parse(plan)
        .map(|p| p.expand().len() as u64)
        .map_err(|e| e.to_string())
}

/// Checks a finished `campaign` process: its outcome line accounts for
/// every run and its exit code is the one the contract gives those
/// outcomes.
fn check_campaign(run: &Finished, runs: u64) -> Result<(), String> {
    let o = parse::outcomes(&run.stdout).ok_or("no outcome line")?;
    if o.total() != runs {
        return Err(format!("outcome line covers {} of {runs} runs", o.total()));
    }
    if run.code() != o.exit_code() {
        return Err(format!(
            "exit code {}, outcomes imply {}",
            run.code(),
            o.exit_code()
        ));
    }
    Ok(())
}

fn write(ctx: &Ctx, name: &str, text: &str) -> Result<String, String> {
    let path = ctx.path(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

fn batch(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let plan = plans::batch_plan(ctx.seed);
    let (plan_path, setup_path, runs) = match (
        write(ctx, "batch.campaign", &plan),
        write(ctx, "setup.campaign", plans::setup_plan()),
        plan_runs(&plan),
    ) {
        (Ok(p), Ok(s), Ok(n)) => (p, s, n),
        (p, s, n) => {
            outcome.op("write plans", p.and(s).and(n).map(|_| ()));
            return outcome;
        }
    };
    let threads = ctx.threads.to_string();
    let setup_args = [
        "campaign".into(),
        setup_path,
        "--threads".into(),
        threads.clone(),
    ];
    let args = [
        "campaign",
        plan_path.as_str(),
        "--threads",
        threads.as_str(),
    ];
    let mut first_table: Option<String> = None;
    let finished = iterate(ctx, &mut outcome, &setup_args, |outcome| {
        timed(outcome, "campaign", ctx.nonfifo(&args), |r| {
            check_campaign(r, runs)?;
            let table = parse::table(&r.stdout);
            match &first_table {
                None => first_table = Some(table),
                Some(first) if *first != table => {
                    return Err("render differs from the first iteration's".to_string())
                }
                Some(_) => {}
            }
            Ok(())
        })
    });
    put_process_metrics(&mut outcome, &finished);
    outcome
}

/// What one served-workload run saw, for both the end-to-end metrics and
/// the traced suite's per-layer ones.
pub struct Served {
    pub outcome: Outcome,
    /// Seconds from POST to the first streamed line, per submission.
    pub ttfr_s: Vec<f64>,
    /// Seconds from POST to the `report` line, per submission.
    pub latency_s: Vec<f64>,
    /// Every `run` line streamed back, raw.
    pub run_lines: Vec<String>,
    /// Runs and cache hits over every submission's report.
    pub total_runs: u64,
    pub cache_hits: u64,
    /// The daemon's `GET /metrics` snapshot after the loop.
    pub service_metrics: Option<MetricsSnapshot>,
    /// The daemon's cache file after the loop.
    pub cache_path: String,
}

/// The served workload: a seed-derived history cache, then a closed loop
/// of submissions from one client to one daemon, each checked, the last
/// one against the batch CLI, with timed starts of a second daemon spread
/// through the loop.
pub fn served(ctx: &Ctx, tracer: &Tracer) -> Served {
    let w = Workload::CampaignServed;
    let mut s = Served {
        outcome: Outcome::default(),
        ttfr_s: Vec::new(),
        latency_s: Vec::new(),
        run_lines: Vec::new(),
        total_runs: 0,
        cache_hits: 0,
        service_metrics: None,
        cache_path: ctx.path("served-cache.json").to_string_lossy().into_owned(),
    };
    let threads = ctx.threads.to_string();
    let history = ctx
        .path("history-cache.json")
        .to_string_lossy()
        .into_owned();

    // Untimed preparation: the history cache the daemon starts from.
    let history_plan = plans::history_plan(ctx.seed);
    let prepared = match (
        write(ctx, "history.campaign", &history_plan),
        plan_runs(&history_plan),
    ) {
        (Ok(plan), Ok(runs)) => {
            let args = [
                "campaign",
                &plan,
                "--threads",
                &threads,
                "--cache",
                &history,
            ];
            tracer
                .span("program", "campaign --cache (history)", w, || {
                    timed(
                        &mut s.outcome,
                        "history campaign",
                        ctx.nonfifo(&args),
                        |r| check_campaign(r, runs),
                    )
                })
                .is_some()
        }
        (plan, runs) => {
            s.outcome
                .op("write history plan", plan.and(runs).map(|_| ()));
            false
        }
    };
    if !prepared {
        return s;
    }

    let daemon = match start_daemon(ctx, tracer, &history, &s.cache_path) {
        Ok((daemon, _)) => {
            s.outcome.op("daemon start", Ok(()));
            daemon
        }
        Err(e) => {
            s.outcome.op("daemon start", Err(e));
            return s;
        }
    };

    // The closed loop: the next submission leaves only when the previous
    // report has arrived and its stream has been checked. Only checked
    // submissions contribute timings, run lines and cache hits. Before
    // every tenth submission a second daemon starts on a fresh copy of the
    // history cache, timed to its first healthy `/healthz`, and stops
    // again: set-up is sampled across the loop, not in one burst.
    let setup_cache = ctx.path("setup-cache.json").to_string_lossy().into_owned();
    let mut starts = Vec::new();
    let mut last_render = None;
    for i in 0..plans::SUBMISSIONS {
        if i % (plans::SUBMISSIONS / DAEMON_STARTS) == 0 {
            let timed_start = start_daemon(ctx, tracer, &history, &setup_cache)
                .and_then(|(probe, secs)| probe.shutdown().map(|_| secs));
            match timed_start {
                Ok(secs) => {
                    starts.push(secs);
                    s.outcome.op("daemon start", Ok(()));
                }
                Err(e) => s.outcome.op("daemon start", Err(e)),
            }
        }
        let body = WireMsg::Submit {
            plan: plans::submission_plan(ctx.seed, i),
            workers: ctx.threads as u64,
        }
        .to_line();
        let checked = tracer
            .span("request", "POST /campaign", w, || {
                proc::post_stream(&daemon.addr, "/campaign", &body)
            })
            .map_err(|e| e.to_string())
            .and_then(|stream| check_stream(&stream).map(|checked| (stream, checked)));
        match checked {
            Ok((stream, checked)) => {
                s.ttfr_s.extend(stream.first_line_s);
                s.latency_s.extend(stream.report_s);
                s.run_lines.extend(checked.run_lines);
                s.total_runs += plans::RUNS_PER_SUBMISSION as u64;
                s.cache_hits += checked.cache_hits;
                if i == plans::SUBMISSIONS - 1 {
                    last_render = Some(checked.render);
                }
                s.outcome.op("submission", Ok(()));
            }
            Err(e) => s.outcome.op("submission", Err(e)),
        }
    }

    // Untimed checks on what came back.
    match proc::request(&daemon.addr, "GET", "/metrics", "") {
        Ok((200, body)) => match MetricsSnapshot::from_json(body.trim()) {
            Ok(snapshot) => {
                let retried = snapshot
                    .counters
                    .get("service.retried_runs")
                    .copied()
                    .unwrap_or(0);
                s.outcome.op(
                    "retried runs",
                    if retried == 0 {
                        Ok(())
                    } else {
                        Err(format!("service.retried_runs = {retried}"))
                    },
                );
                s.service_metrics = Some(snapshot);
            }
            Err(e) => s.outcome.op("GET /metrics", Err(e.to_string())),
        },
        other => s.outcome.op("GET /metrics", Err(format!("{other:?}"))),
    }
    if let Some(render) = last_render {
        let last = plans::submission_plan(ctx.seed, plans::SUBMISSIONS - 1);
        let same = write(ctx, "last-submission.campaign", &last).and_then(|path| {
            let mut cmd = ctx.nonfifo(&["campaign", &path, "--threads", &threads]);
            let run = tracer
                .span("program", "campaign (served check)", w, || {
                    proc::run(&mut cmd)
                })
                .map_err(|e| e.to_string())?;
            if parse::table(&run.stdout) == parse::table(&render) {
                Ok(())
            } else {
                Err("served render differs from the batch CLI's".to_string())
            }
        });
        s.outcome.op("served vs batch render", same);
    }
    match daemon.shutdown() {
        Ok((bytes, cpu)) => {
            s.outcome.put("peak_rss_mb", bytes as f64 / 1e6, 1);
            // The daemon's start and its idle time while the checks ran
            // are a few hundredths of a second of this.
            if !s.latency_s.is_empty() {
                let per = cpu / s.latency_s.len() as f64;
                s.outcome.put("cpu_s", per, s.latency_s.len());
            }
        }
        Err(e) => s.outcome.op("daemon shutdown", Err(e)),
    }
    if !s.latency_s.is_empty() {
        s.outcome
            .put("latency_s.p50", median(&s.latency_s), s.latency_s.len());
    }
    if !starts.is_empty() {
        s.outcome.put("setup_s", median(&starts), starts.len());
    }
    s
}

/// Starts `nonfifo serve` on a fresh copy of the history cache and returns
/// it with its start-up time, spawn to first healthy `/healthz`.
fn start_daemon(
    ctx: &Ctx,
    tracer: &Tracer,
    history: &str,
    cache: &str,
) -> Result<(Daemon, f64), String> {
    std::fs::copy(history, cache).map_err(|e| format!("copy history cache: {e}"))?;
    let threads = ctx.threads.to_string();
    let mut cmd = ctx.nonfifo(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--cache",
        cache,
        "--workers",
        &threads,
    ]);
    tracer.span("program", "serve", Workload::CampaignServed, || {
        Daemon::start(&mut cmd)
    })
}

/// What a submission's stream carried, once checked.
struct CheckedStream {
    run_lines: Vec<String>,
    cache_hits: u64,
    render: String,
}

/// Checks one submission's stream: status 200, 41 fresh `run` lines, then
/// a timed report with 41 cache hits.
fn check_stream(stream: &proc::Stream) -> Result<CheckedStream, String> {
    if stream.status != 200 {
        return Err(format!(
            "status {} with {} lines",
            stream.status,
            stream.lines.len()
        ));
    }
    let half = (plans::RUNS_PER_SUBMISSION / 2) as u64;
    let mut run_lines = Vec::new();
    let mut report = None;
    for line in &stream.lines {
        match WireMsg::parse_line(line).map_err(|e| e.to_string())? {
            WireMsg::Run { .. } => run_lines.push(line.clone()),
            WireMsg::Report {
                render, cache_hits, ..
            } => report = Some((render, cache_hits)),
            WireMsg::Metrics { .. } => {}
            other => return Err(format!("unexpected {} line", other.kind())),
        }
    }
    let (render, cache_hits) = report
        .filter(|_| stream.report_s.is_some())
        .ok_or("no report line")?;
    let runs = run_lines.len() as u64;
    if runs != half || cache_hits != half {
        return Err(format!(
            "{runs} fresh runs and {cache_hits} cache hits, want {half} each"
        ));
    }
    Ok(CheckedStream {
        run_lines,
        cache_hits,
        render,
    })
}
