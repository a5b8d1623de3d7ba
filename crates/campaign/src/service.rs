//! The campaign service: a long-running daemon that accepts plan
//! documents, shards each plan's expansion across worker *processes*, and
//! streams results as they land — the `nonfifo serve` back end.
//!
//! ## Architecture
//!
//! The daemon is a thread-per-connection HTTP/1.1 server hand-rolled on
//! [`std::net`] (this workspace links no external crates). A submitted
//! campaign drives the same three public stages as the batch CLI:
//! [`PlanExpansion`] expands and validates the plan, each
//! [`ShardSpec`] executes its round-robin slice — in a spawned
//! `nonfifo worker` process fed one [`WireMsg::Shard`] line on stdin and
//! answering one [`WireMsg::Run`] line per completed run on stdout — and
//! [`merge_reports`] reassembles the records fingerprint-keyed in input
//! order. Workers that die mid-shard leave detectable gaps
//! ([`ShardReport::missing_from`]), which the daemon re-executes
//! in-process before merging, so a killed worker costs wall-clock time
//! but never changes a byte of the final report.
//!
//! ## Determinism
//!
//! Every run is a deterministic function of its spec, the merge is keyed
//! by expansion index and spec fingerprint, and the aggregate snapshot
//! merges per-run metrics in input order — so the final
//! [`WireMsg::Report`] is byte-identical to single-process batch output
//! at any worker count, any completion interleaving, and any mix of
//! cached and fresh records. CI pins this for 1, 2, and 4 workers.
//!
//! ## Shared cache
//!
//! One [`SharedCache`] (an `RwLock`ed [`CampaignCache`]) serves every
//! connection: concurrent campaigns replay hits under the read lock, and
//! each campaign's fresh records land under one write-lock acquisition.
//! A warm replay differs from the cold run only in the
//! `campaign.cache_hits` counter.

use crate::cache::SharedCache;
use crate::plan::CampaignPlan;
use crate::runner::RunRecord;
use crate::shard::{merge_reports, PlanExpansion, ShardRecord, ShardReport, ShardSpec};
use crate::wire::WireMsg;
use nonfifo_core::NonFifoError;
use nonfifo_telemetry::{MetricsSnapshot, Registry, SCHEMA_VERSION};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The largest `POST /campaign` body the daemon reads: 16 MiB, far above
/// any real plan (the shipped ones are a few KB). The body buffer is sized
/// from the client's `Content-Length`, so without a cap one request could
/// make the daemon allocate whatever a client claims.
const MAX_BODY_BYTES: usize = 16 << 20;

/// How a [`CampaignService`] runs campaigns.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Default worker count for submissions that don't request one
    /// (`Submit { workers: 0 }`); `0` means one per available core.
    pub workers: usize,
    /// Command line (program plus arguments) spawned per shard, fed a
    /// `Shard` line on stdin and read for `Run` lines on stdout. Empty
    /// means execute shards on in-process threads instead — same staging,
    /// no processes; used by tests and by `--in-process` deployments.
    pub worker_command: Vec<String>,
    /// Cache file shared by every campaign; loaded at startup (missing
    /// file = empty cache) and rewritten after each campaign that ran
    /// fresh runs.
    pub cache_path: Option<String>,
}

type Sink<'a> = Mutex<&'a mut (dyn FnMut(&WireMsg) + Send)>;

fn emit(sink: &Sink<'_>, msg: &WireMsg) {
    (*sink.lock().expect("delta sink poisoned"))(msg);
}

/// The long-running campaign daemon: shared cache, service telemetry, and
/// the HTTP front end. Cheap to clone (connection handlers share state
/// through `Arc`s).
#[derive(Debug, Clone)]
pub struct CampaignService {
    cfg: ServiceConfig,
    cache: SharedCache,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
}

impl CampaignService {
    /// A service with the given configuration, loading the shared cache
    /// from `cache_path` if configured.
    ///
    /// # Errors
    ///
    /// Fails if the cache file exists but cannot be read or parsed.
    pub fn new(cfg: ServiceConfig) -> Result<CampaignService, NonFifoError> {
        let cache = match &cfg.cache_path {
            Some(path) => SharedCache::load(path)?,
            None => SharedCache::new(),
        };
        Ok(CampaignService {
            cfg,
            cache,
            registry: Arc::new(Registry::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The service-level telemetry registry (`service.*` metrics plus
    /// `campaign.runs_per_sec`), exported by `GET /metrics`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The cache shared by every campaign this service runs.
    pub fn cache(&self) -> &SharedCache {
        &self.cache
    }

    /// Asks the serve loop to exit after the connection in flight.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn effective_workers(&self, requested: usize) -> usize {
        let configured = if requested > 0 {
            requested
        } else {
            self.cfg.workers
        };
        if configured > 0 {
            configured
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        }
    }

    /// Runs one submitted campaign: expand, shard across workers, merge.
    /// Streams a [`WireMsg::Run`] per completed run (as it lands, any
    /// order) and a [`WireMsg::Metrics`] delta per finished shard to
    /// `sink`, then returns the final [`WireMsg::Report`] — byte-identical
    /// to batch output for the same plan. Fresh results are published to
    /// the shared cache (and the cache file, if configured) before the
    /// report is returned.
    ///
    /// # Errors
    ///
    /// Fails on plan parse/validation errors, on a merge that cannot be
    /// completed, and on cache-file write failures.
    pub fn run_campaign(
        &self,
        plan_text: &str,
        requested_workers: usize,
        sink: &mut (dyn FnMut(&WireMsg) + Send),
    ) -> Result<WireMsg, NonFifoError> {
        let started = Instant::now();
        let plan = CampaignPlan::parse(plan_text)?;
        let expansion = PlanExpansion::of_plan(&plan)?;

        let mut cached: Vec<(usize, RunRecord)> = Vec::new();
        let mut misses: Vec<usize> = Vec::new();
        for (i, spec) in expansion.runs().iter().enumerate() {
            match self.cache.lookup(spec) {
                Some(hit) => cached.push((i, hit)),
                None => misses.push(i),
            }
        }

        let workers = self.effective_workers(requested_workers);
        // Weight-balanced sharding: a plan mixing an exponential-cost cell
        // (outnumber/afek at high traffic) with cheap seeds would leave
        // round-robin workers idle behind one hot shard. Placement never
        // reaches the report — the merge is fingerprint-keyed and
        // index-addressed — so any partition is byte-identical.
        let shards = expansion.shards_weighted(&misses, workers);
        self.registry
            .gauge("service.active_workers")
            .set(shards.len() as u64);
        self.registry
            .gauge("service.shard_imbalance")
            .set(expansion.shard_imbalance_pct(&shards));

        let sink: Sink<'_> = Mutex::new(sink);
        let raw_parts: Vec<(ShardSpec, Vec<ShardRecord>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| {
                    let expansion = &expansion;
                    let sink = &sink;
                    scope.spawn(move || {
                        let records = if self.cfg.worker_command.is_empty() {
                            shard
                                .execute(expansion, |r| emit(sink, &WireMsg::run_delta(r)))
                                .records
                        } else {
                            self.drive_worker(plan_text, shard, sink)
                        };
                        (shard.clone(), records)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard driver panicked"))
                .collect()
        });

        // Fill any gaps a dead or drifting worker left, then emit each
        // shard's metrics delta (per-run snapshots merged in index order).
        let mut parts = Vec::with_capacity(raw_parts.len());
        let mut retried = 0usize;
        for (shard, records) in raw_parts {
            let mut part = ShardReport {
                shard: shard.shard,
                records,
            };
            let missing = part.missing_from(&shard.indices);
            if !missing.is_empty() {
                retried += missing.len();
                let refill = ShardSpec {
                    shard: shard.shard,
                    of: shard.of,
                    indices: missing,
                }
                .execute(&expansion, |r| emit(&sink, &WireMsg::run_delta(r)));
                part.records.extend(refill.records);
                part.records.sort_unstable_by_key(|r| r.index);
            }
            let mut delta = MetricsSnapshot {
                schema_version: SCHEMA_VERSION,
                ..MetricsSnapshot::default()
            };
            for record in &part.records {
                delta.merge_from(&record.run.metrics);
            }
            emit(
                &sink,
                &WireMsg::Metrics {
                    shard: shard.shard as u64,
                    snapshot: delta,
                },
            );
            parts.push(part);
        }

        let cache_hits = cached.len();
        let fresh = expansion.len() - cache_hits;
        let report = merge_reports(&expansion, cached, parts)?;
        self.cache.insert_all(
            report
                .records
                .iter()
                .filter(|r| !r.cached)
                .map(|r| (&r.spec, r)),
        );
        if let Some(path) = &self.cfg.cache_path {
            if fresh > 0 {
                self.cache.save(path)?;
            }
        }

        self.registry.counter("service.campaigns_total").inc();
        self.registry
            .counter("service.runs_total")
            .add(report.records.len() as u64);
        self.registry
            .counter("service.cache_hits")
            .add(cache_hits as u64);
        self.registry
            .counter("service.retried_runs")
            .add(retried as u64);
        let secs = started.elapsed().as_secs_f64();
        if fresh > 0 && secs > 0.0 {
            self.registry
                .set_value("campaign.runs_per_sec", fresh as f64 / secs);
        }
        self.registry.gauge("service.active_workers").set(0);

        Ok(WireMsg::Report {
            render: report.render(),
            cache_hits: cache_hits as u64,
            aggregate: report.aggregate_metrics(),
        })
    }

    /// Spawns one worker process, hands it its shard, and collects the
    /// `Run` lines it streams back (forwarding each to `sink`). Every
    /// failure mode — spawn error, worker death, garbage on the pipe —
    /// degrades to returned records stopping early; the caller detects
    /// the gap and re-executes the missing runs in-process.
    fn drive_worker(&self, plan: &str, shard: &ShardSpec, sink: &Sink<'_>) -> Vec<ShardRecord> {
        let cmd = &self.cfg.worker_command;
        let mut child: Child = match Command::new(&cmd[0])
            .args(&cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
        {
            Ok(child) => child,
            Err(_) => return Vec::new(),
        };
        if let Some(mut stdin) = child.stdin.take() {
            // Dropping stdin closes the pipe: the worker sees exactly one
            // assignment line then EOF.
            let _ = stdin.write_all(WireMsg::shard_assignment(plan, shard).to_line().as_bytes());
        }
        let mut records = Vec::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let Ok(msg) = WireMsg::parse_line(&line) else {
                    break;
                };
                if let Some(record) = msg.clone().into_shard_record() {
                    emit(sink, &msg);
                    records.push(record);
                } else {
                    // An Error (or any non-Run) line means the worker gave
                    // up on the rest of its shard.
                    break;
                }
            }
        }
        let _ = child.wait();
        records
    }

    /// Serves HTTP on `listener` until [`request_shutdown`](Self::request_shutdown) (or a
    /// `POST /shutdown` request) fires. Connections are handled on their
    /// own threads; campaigns submitted concurrently share the cache.
    ///
    /// Routes: `GET /healthz`, `GET /metrics` (service registry snapshot),
    /// `POST /campaign` (plan text or a `submit` wire message; answers a
    /// newline-delimited [`WireMsg`] stream), `POST /shutdown`.
    ///
    /// # Errors
    ///
    /// Fails if the listener's local address cannot be read.
    pub fn serve(&self, listener: TcpListener) -> Result<(), NonFifoError> {
        let addr = listener.local_addr().map_err(|e| NonFifoError::Io {
            path: "listener".to_string(),
            message: e.to_string(),
        })?;
        loop {
            if self.is_shutdown() {
                return Ok(());
            }
            let Ok((stream, _)) = listener.accept() else {
                continue;
            };
            if self.is_shutdown() {
                return Ok(());
            }
            let service = self.clone();
            std::thread::spawn(move || service.handle_conn(stream, addr));
        }
    }

    fn handle_conn(&self, stream: TcpStream, addr: SocketAddr) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);

        let mut request_line = String::new();
        if reader.read_line(&mut request_line).is_err() {
            return;
        }
        let mut head = request_line.split_whitespace();
        let method = head.next().unwrap_or("").to_string();
        let path = head.next().unwrap_or("").to_string();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let line = line.trim();
            if line.is_empty() {
                break;
            }
            if let Some((key, value)) = line.split_once(':') {
                if key.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        self.registry.counter("service.requests_total").inc();

        match (method.as_str(), path.as_str()) {
            ("GET", "/healthz") => respond(&mut writer, "200 OK", "text/plain", "ok\n"),
            ("GET", "/metrics") => {
                let body = format!("{}\n", self.registry.snapshot().to_json());
                respond(&mut writer, "200 OK", "application/json", &body);
            }
            ("POST", "/shutdown") => {
                self.request_shutdown();
                respond(&mut writer, "200 OK", "text/plain", "shutting down\n");
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(addr);
            }
            ("POST", "/campaign") if content_length > MAX_BODY_BYTES => {
                let line = WireMsg::Error {
                    message: format!(
                        "request body of {content_length} bytes exceeds the \
                         {MAX_BODY_BYTES}-byte limit"
                    ),
                }
                .to_line();
                respond(
                    &mut writer,
                    "413 Payload Too Large",
                    "application/x-ndjson",
                    &line,
                );
            }
            ("POST", "/campaign") => {
                let mut body = vec![0u8; content_length];
                if reader.read_exact(&mut body).is_err() {
                    return;
                }
                let body = String::from_utf8_lossy(&body).into_owned();
                self.handle_campaign(&mut writer, &body);
            }
            _ => respond(
                &mut writer,
                "404 Not Found",
                "text/plain",
                "no such route\n",
            ),
        }
    }

    /// `POST /campaign`: the body is either raw plan text or a `submit`
    /// wire message. The plan is validated *before* the status line, so
    /// malformed submissions get a clean `400` with a line-numbered
    /// [`WireMsg::Error`]; valid ones get a `200` NDJSON stream of
    /// `Run`/`Metrics` deltas ending in the final `Report`.
    fn handle_campaign(&self, writer: &mut BufWriter<TcpStream>, body: &str) {
        let (plan_text, workers) = if body.trim_start().starts_with('{') {
            match WireMsg::parse_line(body) {
                Ok(WireMsg::Submit { plan, workers }) => (plan, workers as usize),
                Ok(other) => {
                    let line = WireMsg::Error {
                        message: format!("expected a submit message, got {:?}", other.kind()),
                    }
                    .to_line();
                    respond(writer, "400 Bad Request", "application/x-ndjson", &line);
                    return;
                }
                Err(e) => {
                    let line = WireMsg::Error {
                        message: e.to_string(),
                    }
                    .to_line();
                    respond(writer, "400 Bad Request", "application/x-ndjson", &line);
                    return;
                }
            }
        } else {
            (body.to_string(), 0)
        };

        let validated = CampaignPlan::parse(&plan_text)
            .map_err(NonFifoError::from)
            .and_then(|plan| PlanExpansion::of_plan(&plan));
        if let Err(e) = validated {
            let line = WireMsg::Error {
                message: e.to_string(),
            }
            .to_line();
            respond(writer, "400 Bad Request", "application/x-ndjson", &line);
            return;
        }

        let header =
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
        if writer.write_all(header.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
        let result = {
            let mut sink = |msg: &WireMsg| {
                let _ = writer.write_all(msg.to_line().as_bytes());
                let _ = writer.flush();
            };
            self.run_campaign(&plan_text, workers, &mut sink)
        };
        let final_line = match result {
            Ok(report) => report.to_line(),
            Err(e) => WireMsg::Error {
                message: e.to_string(),
            }
            .to_line(),
        };
        let _ = writer.write_all(final_line.as_bytes());
        let _ = writer.flush();
    }
}

fn respond(writer: &mut BufWriter<TcpStream>, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.flush();
}

/// The `nonfifo worker` loop: reads one [`WireMsg::Shard`] assignment from
/// `input`, re-expands the plan locally, executes the assigned indices in
/// order, and writes one flushed [`WireMsg::Run`] line per completed run
/// to `output` — so a parent reading the pipe sees results the moment
/// they land, and a worker killed mid-shard leaves a clean line boundary.
///
/// `die_after: Some(n)` makes the process exit with a failure status
/// after emitting `n` records — the deterministic crash hook the
/// worker-killed-mid-shard tests use.
///
/// # Errors
///
/// Fails (after writing a [`WireMsg::Error`] line, so the parent sees why)
/// on a missing or malformed assignment, an unparsable plan, or
/// out-of-range indices.
pub fn run_worker(
    input: &mut dyn BufRead,
    output: &mut dyn Write,
    die_after: Option<u64>,
) -> Result<(), NonFifoError> {
    let fail = |output: &mut dyn Write, message: String| -> NonFifoError {
        let _ = output.write_all(
            WireMsg::Error {
                message: message.clone(),
            }
            .to_line()
            .as_bytes(),
        );
        let _ = output.flush();
        NonFifoError::Usage(format!("worker: {message}"))
    };

    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => return Err(fail(output, "no shard assignment on stdin".to_string())),
            Ok(_) if line.trim().is_empty() => continue,
            Ok(_) => break,
            Err(e) => return Err(fail(output, format!("stdin: {e}"))),
        }
    }
    let msg = WireMsg::parse_line(&line).map_err(|e| fail(output, e.to_string()))?;
    let WireMsg::Shard {
        plan,
        shard,
        of,
        indices,
    } = msg
    else {
        return Err(fail(output, "expected a shard assignment".to_string()));
    };
    let plan = CampaignPlan::parse(&plan).map_err(|e| fail(output, e.to_string()))?;
    let expansion = PlanExpansion::of_plan(&plan).map_err(|e| fail(output, e.to_string()))?;
    let indices: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
    if let Some(&bad) = indices.iter().find(|&&i| i >= expansion.len()) {
        return Err(fail(
            output,
            format!("index {bad} out of range for {} runs", expansion.len()),
        ));
    }
    let spec = ShardSpec {
        shard: shard as usize,
        of: of as usize,
        indices,
    };
    let mut emitted = 0u64;
    spec.execute(&expansion, |record| {
        output
            .write_all(WireMsg::run_delta(record).to_line().as_bytes())
            .expect("worker stdout closed");
        output.flush().expect("worker stdout closed");
        emitted += 1;
        if die_after == Some(emitted) {
            std::process::exit(9);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CampaignRunner;

    const PLAN: &str = "\
schema_version 1
scenario smoke
protocols abp seqnum
disciplines fifo prob:0.3
messages 6
seeds 0..3
";

    fn batch_report() -> (String, String) {
        let plan = CampaignPlan::parse(PLAN).unwrap();
        let report = CampaignRunner::new(1).run(&plan.expand()).unwrap();
        (report.render(), report.aggregate_metrics().to_json())
    }

    fn collect(service: &CampaignService, workers: usize) -> (Vec<WireMsg>, WireMsg) {
        let deltas = Mutex::new(Vec::new());
        let mut sink = |msg: &WireMsg| deltas.lock().unwrap().push(msg.clone());
        let report = service.run_campaign(PLAN, workers, &mut sink).unwrap();
        (deltas.into_inner().unwrap(), report)
    }

    #[test]
    fn in_process_service_matches_batch_at_any_worker_count() {
        let (render, aggregate) = batch_report();
        for workers in [1, 2, 4] {
            let service = CampaignService::new(ServiceConfig::default()).unwrap();
            let (deltas, report) = collect(&service, workers);
            let runs = deltas
                .iter()
                .filter(|m| matches!(m, WireMsg::Run { .. }))
                .count();
            assert_eq!(runs, 12, "{workers} workers: one Run delta per run");
            let metrics = deltas
                .iter()
                .filter(|m| matches!(m, WireMsg::Metrics { .. }))
                .count();
            assert_eq!(
                metrics,
                workers.min(12),
                "{workers} workers: one delta per shard"
            );
            match report {
                WireMsg::Report {
                    render: r,
                    cache_hits,
                    aggregate: a,
                } => {
                    assert_eq!(r, render, "{workers} workers");
                    assert_eq!(a.to_json(), aggregate, "{workers} workers");
                    assert_eq!(cache_hits, 0);
                }
                other => panic!("wrong kind: {}", other.kind()),
            }
        }
    }

    #[test]
    fn warm_replay_differs_only_in_the_hit_counter() {
        let service = CampaignService::new(ServiceConfig::default()).unwrap();
        let (_, cold) = collect(&service, 2);
        let (deltas, warm) = collect(&service, 4);
        assert!(
            deltas.iter().all(|m| !matches!(m, WireMsg::Run { .. })),
            "a fully warm campaign executes nothing"
        );
        match (cold, warm) {
            (
                WireMsg::Report {
                    render: cr,
                    aggregate: ca,
                    cache_hits: 0,
                },
                WireMsg::Report {
                    render: wr,
                    aggregate: mut wa,
                    cache_hits: 12,
                },
            ) => {
                assert_eq!(cr, wr);
                wa.counters.insert("campaign.cache_hits".to_string(), 0);
                assert_eq!(ca.to_json(), wa.to_json());
            }
            other => panic!("unexpected reports: {other:?}"),
        }
    }

    #[test]
    fn shard_metrics_deltas_reassemble_the_per_run_aggregate() {
        let service = CampaignService::new(ServiceConfig::default()).unwrap();
        let (deltas, report) = collect(&service, 3);
        let mut merged = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            ..MetricsSnapshot::default()
        };
        for delta in &deltas {
            if let WireMsg::Metrics { snapshot, .. } = delta {
                merged.merge_from(snapshot);
            }
        }
        let WireMsg::Report { aggregate, .. } = report else {
            panic!("expected report");
        };
        // The aggregate = merged per-run snapshots + campaign.* counters.
        for (name, value) in &merged.counters {
            assert_eq!(aggregate.counters.get(name), Some(value), "{name}");
        }
        assert!(aggregate.counters.contains_key("campaign.runs_total"));
    }

    #[test]
    fn service_registry_tracks_campaigns_and_workers() {
        let service = CampaignService::new(ServiceConfig::default()).unwrap();
        let _ = collect(&service, 4);
        let snap = service.registry().snapshot();
        assert_eq!(snap.counters["service.campaigns_total"], 1);
        assert_eq!(snap.counters["service.runs_total"], 12);
        assert_eq!(snap.counters["service.retried_runs"], 0);
        let gauge = &snap.gauges["service.active_workers"];
        assert_eq!(gauge.value, 0, "idle after the campaign");
        assert_eq!(gauge.high_water, 4, "peak = shard count");
        assert!(snap.values["campaign.runs_per_sec"] > 0.0);
    }

    #[test]
    fn malformed_plans_fail_with_line_numbers_before_any_execution() {
        let service = CampaignService::new(ServiceConfig::default()).unwrap();
        let mut sink = |_: &WireMsg| panic!("no deltas for a rejected plan");
        let err = service
            .run_campaign("scenario x\nwarble 3\n", 2, &mut sink)
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn worker_loop_round_trips_a_shard_over_buffers() {
        let plan = CampaignPlan::parse(PLAN).unwrap();
        let expansion = PlanExpansion::of_plan(&plan).unwrap();
        let shard = &expansion.shard_all(3)[1];
        let assignment = WireMsg::shard_assignment(PLAN, shard).to_line();
        let mut output = Vec::new();
        run_worker(&mut assignment.as_bytes(), &mut output, None).unwrap();
        let records: Vec<ShardRecord> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| WireMsg::parse_line(l).unwrap().into_shard_record().unwrap())
            .collect();
        assert_eq!(records, shard.execute(&expansion, |_| {}).records);
    }

    #[test]
    fn worker_loop_rejects_bad_assignments_with_an_error_line() {
        for (input, needle) in [
            ("", "no shard assignment"),
            ("not json\n", "wire:"),
            (
                "{\"v\":1,\"type\":\"submit\",\"plan\":\"x\",\"workers\":1}\n",
                "expected a shard assignment",
            ),
        ] {
            let mut output = Vec::new();
            let err = run_worker(&mut input.as_bytes(), &mut output, None).unwrap_err();
            assert!(err.to_string().contains(needle), "{input:?}: {err}");
            let line = String::from_utf8(output).unwrap();
            assert!(
                matches!(WireMsg::parse_line(&line).unwrap(), WireMsg::Error { .. }),
                "{input:?}: parent-visible error line"
            );
        }
    }
}
