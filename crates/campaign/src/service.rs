//! The campaign service: a long-running daemon that accepts plan
//! documents, runs each plan's cache misses on its own threads, and
//! streams results as they land — the `nonfifo serve` back end.
//!
//! ## Architecture
//!
//! The daemon is a thread-per-connection HTTP/1.1 server hand-rolled on
//! [`std::net`] (this workspace links no external crates). A submitted
//! campaign drives the same three public stages as the batch CLI:
//! [`PlanExpansion`] expands and validates the plan, the cache misses run
//! on [`CampaignRunner`]'s work-stealing execute body — the one batch
//! uses — which streams one [`WireMsg::Run`] line per finished run, and
//! [`merge_reports`] reassembles the rows fingerprint-keyed in input
//! order. A run that panics is caught around that run and recorded as
//! `panicked`, so the stream still ends in its report and the daemon
//! keeps serving.
//!
//! ## Determinism
//!
//! Every run is a deterministic function of its spec, the merge is keyed
//! by expansion index and spec fingerprint, and the aggregate snapshot is
//! an order-free fold of the runs' counters (every slot a sum, maximum or
//! minimum) — so the final [`WireMsg::Report`] is byte-identical to
//! single-process batch output at any worker count, any completion
//! interleaving, and any mix of cached and fresh records. A report keeps
//! the runs' rows and that one folded total, no per-run counters. The
//! `serve.rs` CLI tests pin this for 1, 2, and 4 workers.
//!
//! ## Shared cache
//!
//! One [`SharedCache`] (an `RwLock`ed [`CampaignCache`](crate::CampaignCache))
//! serves every connection: concurrent campaigns replay hits under the
//! read lock, decoding each hit's counters from the entry's text and
//! folding them, and each campaign's fresh runs land, and are appended to
//! the cache file in input order, under one write-lock acquisition. A
//! fresh run's entry keeps the `counters` text of the line its worker
//! streamed, so the append encodes nothing again. A warm replay differs
//! from the cold run only in the `campaign.cache_hits` counter.

use crate::cache::{SharedCache, StoredRun};
use crate::plan::CampaignPlan;
use crate::runner::{merge_reports, CampaignRunner, FreshRuns, IndexedRun, PlanExpansion};
use crate::wire::{write_run_line, WireMsg};
use nonfifo_core::NonFifoError;
use nonfifo_telemetry::Registry;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The largest `POST /campaign` body the daemon reads: 16 MiB, far above
/// any real plan (the shipped ones are a few KB). The body buffer is sized
/// from the client's `Content-Length`, so without a cap one request could
/// make the daemon allocate whatever a client claims.
const MAX_BODY_BYTES: usize = 16 << 20;

/// The largest request head (request line and headers) the daemon reads:
/// 16 KiB, far above what any client here sends. Lines are read until
/// their newline, so without a cap one request with no newline would grow
/// a line buffer by whatever a client sends.
const MAX_HEAD_BYTES: u64 = 16 << 10;

/// The most worker threads one campaign or exploration may ask for: 64,
/// well above any core count this runs on. A campaign spawns one thread
/// per worker, bounded only by the plan's runs, and a parallel exploration
/// sizes per-worker scratch by it, so without a cap one `submit` or one
/// `--threads`/`--workers` value could exhaust the machine. The daemon
/// answers a larger `submit` with a `400`; the CLI rejects a larger option
/// as a usage error.
pub const MAX_WORKERS: usize = 64;

/// How a [`CampaignService`] runs campaigns.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Default worker-thread count for submissions that don't request
    /// one (`Submit { workers: 0 }`); `0` means one per available core.
    pub workers: usize,
    /// Cache file shared by every campaign; loaded at startup (missing
    /// file = empty cache), and each campaign appends its fresh runs to
    /// it before returning its report.
    pub cache_path: Option<String>,
}

/// Where a campaign's stream goes: one NDJSON line per call.
type Sink<'a> = Mutex<&'a mut (dyn FnMut(&str) + Send)>;

/// Hands one rendered line to the sink; only the hand-off holds its lock.
fn emit(sink: &Sink<'_>, line: &str) {
    (*sink.lock().expect("stream sink poisoned"))(line);
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
    ///
    /// The registry records what the start cost: `service.cache_load_ms`
    /// (a value), and `service.cache_entries` and `service.cache_bytes`
    /// (gauges: the entries and the bytes they hold, which each campaign's
    /// insert updates).
    pub fn new(cfg: ServiceConfig) -> Result<CampaignService, NonFifoError> {
        let started = Instant::now();
        let cache = match &cfg.cache_path {
            Some(path) => SharedCache::load(path)?,
            None => SharedCache::new(),
        };
        let registry = Registry::new();
        registry.set_value(
            "service.cache_load_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        registry
            .gauge("service.cache_entries")
            .set(cache.len() as u64);
        registry
            .gauge("service.cache_bytes")
            .set(cache.bytes() as u64);
        Ok(CampaignService {
            cfg,
            cache,
            registry: Arc::new(registry),
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

    /// Runs one submitted campaign: expand, execute the cache misses on
    /// `requested_workers` threads (`0` = the configured default), merge.
    /// Streams to `sink`, one NDJSON line per call, a [`WireMsg::Run`]
    /// line per executed run (as it lands, any order) and then one
    /// [`WireMsg::Metrics`] delta of the executed runs, and returns the
    /// final [`WireMsg::Report`] — byte-identical to batch output for the
    /// same plan. Fresh results are published to the shared cache (and
    /// appended to the cache file, if configured) before the report is
    /// returned; panicked runs are not.
    ///
    /// # Errors
    ///
    /// Fails on plan parse/validation errors, on a merge that cannot be
    /// completed, and on cache-file write failures.
    pub fn run_campaign(
        &self,
        plan_text: &str,
        requested_workers: usize,
        sink: &mut (dyn FnMut(&str) + Send),
    ) -> Result<WireMsg, NonFifoError> {
        let started = Instant::now();
        let expansion = expand(plan_text)?;
        self.run_expansion(&expansion, started, requested_workers, sink)
    }

    /// [`run_campaign`](Self::run_campaign) on a plan already expanded
    /// and validated; `started` is when the submission began.
    fn run_expansion(
        &self,
        expansion: &PlanExpansion,
        started: Instant,
        requested_workers: usize,
        sink: &mut (dyn FnMut(&str) + Send),
    ) -> Result<WireMsg, NonFifoError> {
        let (hits, misses) = self.cache.partition_cached(expansion);

        let runner = CampaignRunner::new(if requested_workers > 0 {
            requested_workers
        } else {
            self.cfg.workers
        });
        self.registry
            .gauge("service.active_workers")
            .set(runner.threads().min(misses.len()) as u64);
        let sink: Sink<'_> = Mutex::new(sink);
        let fresh = FreshRuns::default();
        let (part, busy) = runner.execute_streaming(expansion, &misses, &|record: &IndexedRun| {
            // Rendered from the borrow on the worker's own thread; the
            // cache keeps the line's counters text, not a second encoding.
            let mut line = String::new();
            let counters = write_run_line(
                &mut line,
                record.index as u64,
                record.spec_fingerprint,
                &record.run,
            );
            emit(&sink, &line);
            let run = StoredRun {
                result: record.run.result,
                counters: line[counters].into(),
            };
            fresh.keep(record.index, run);
        });
        self.registry
            .gauge("service.shard_imbalance")
            .set(imbalance_pct(&busy));
        let metrics = WireMsg::Metrics {
            snapshot: part.counters.snapshot(),
        };
        emit(&sink, &metrics.to_line());

        let cache_hits = hits.rows.len();
        let executed = expansion.len() - cache_hits;
        let report = merge_reports(expansion, vec![hits], vec![part])?;
        let (cache_entries, cache_bytes) = self.cache.insert_all(
            fresh
                .in_input_order()
                .into_iter()
                .map(|(index, run)| (&expansion.runs()[index], run)),
            self.cfg.cache_path.as_deref(),
        )?;
        self.registry
            .gauge("service.cache_entries")
            .set(cache_entries as u64);
        self.registry
            .gauge("service.cache_bytes")
            .set(cache_bytes as u64);

        self.registry.counter("service.campaigns_total").inc();
        self.registry
            .counter("service.runs_total")
            .add(report.records.len() as u64);
        self.registry
            .counter("service.cache_hits")
            .add(cache_hits as u64);
        let secs = started.elapsed().as_secs_f64();
        if executed > 0 && secs > 0.0 {
            self.registry
                .set_value("campaign.runs_per_sec", executed as f64 / secs);
        }
        self.registry.gauge("service.active_workers").set(0);

        Ok(WireMsg::Report {
            render: report.render(),
            cache_hits: cache_hits as u64,
            aggregate: report.aggregate_metrics(),
        })
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

        let mut head = (&mut reader).take(MAX_HEAD_BYTES);
        let mut request_line = String::new();
        if head.read_line(&mut request_line).is_err() {
            return;
        }
        let mut words = request_line.split_whitespace();
        let method = words.next().unwrap_or("").to_string();
        let path = words.next().unwrap_or("").to_string();
        let mut content_length = 0usize;
        // A line that ends short of its newline ends the head: at the
        // client's EOF, or at the cap.
        let mut whole = request_line.ends_with('\n');
        let mut line = String::new();
        while whole {
            line.clear();
            if head.read_line(&mut line).is_err() {
                break;
            }
            whole = line.ends_with('\n');
            let field = line.trim();
            if field.is_empty() {
                break;
            }
            if let Some((key, value)) = field.split_once(':') {
                if key.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let over_cap = !whole && head.limit() == 0;
        self.registry.counter("service.requests_total").inc();
        if over_cap {
            respond(
                &mut writer,
                "431 Request Header Fields Too Large",
                "text/plain",
                &format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit\n"),
            );
            // Closing with unread bytes would reset the connection, which
            // can discard the answer before the client reads it. So read
            // and drop what the client still sends, through a fixed
            // buffer, up to the body cap or a second's silence.
            let _ = writer.get_ref().shutdown(Shutdown::Write);
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_secs(1)));
            let _ = std::io::copy(
                &mut reader.take(MAX_BODY_BYTES as u64),
                &mut std::io::sink(),
            );
            return;
        }

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
                Ok(WireMsg::Submit { workers, .. }) if workers > MAX_WORKERS as u64 => {
                    let line = WireMsg::Error {
                        message: format!(
                            "submit requests {workers} workers; the limit is {MAX_WORKERS}"
                        ),
                    }
                    .to_line();
                    respond(writer, "400 Bad Request", "application/x-ndjson", &line);
                    return;
                }
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

        let started = Instant::now();
        let expansion = match expand(&plan_text) {
            Ok(expansion) => expansion,
            Err(e) => {
                let line = WireMsg::Error {
                    message: e.to_string(),
                }
                .to_line();
                respond(writer, "400 Bad Request", "application/x-ndjson", &line);
                return;
            }
        };

        let header =
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
        if writer.write_all(header.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
        let result = {
            let mut sink = |line: &str| {
                let _ = writer.write_all(line.as_bytes());
                let _ = writer.flush();
            };
            self.run_expansion(&expansion, started, workers, &mut sink)
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

/// Parses and expands a submitted plan: the one validation a submission
/// gets.
fn expand(plan_text: &str) -> Result<PlanExpansion, NonFifoError> {
    PlanExpansion::of_plan(&CampaignPlan::parse(plan_text)?)
}

fn respond(writer: &mut BufWriter<TcpStream>, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.flush();
}

/// The busiest worker's busy time over the mean busy time, ×100: 100 is
/// a perfect balance, and 200 means the slowest worker ran twice the
/// average. Each worker is busy from its start to its last finished run.
/// The `service.shard_imbalance` gauge reports it; the name predates the
/// one shared run queue, and the benchmark reads it.
fn imbalance_pct(busy: &[Duration]) -> u64 {
    let total: f64 = busy.iter().map(Duration::as_secs_f64).sum();
    let max = busy.iter().map(Duration::as_secs_f64).fold(0.0, f64::max);
    if total == 0.0 {
        return 100;
    }
    (max * busy.len() as f64 / total * 100.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CampaignCache;
    use crate::runner::{RunOutcome, PANIC_SEED};
    use nonfifo_telemetry::{MetricsSnapshot, SCHEMA_VERSION};

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
        let mut sink = |line: &str| {
            let msg = WireMsg::parse_line(line).unwrap();
            assert_eq!(msg.to_line(), line, "a streamed line re-encodes to itself");
            deltas.lock().unwrap().push(msg);
        };
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
            assert_eq!(metrics, 1, "{workers} workers: one delta per campaign");
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
        let mut count = 0;
        for delta in &deltas {
            if let WireMsg::Metrics { snapshot, .. } = delta {
                merged.merge_from(snapshot);
                count += 1;
            }
        }
        assert_eq!(count, 1, "one delta per campaign");
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
        let gauge = &snap.gauges["service.active_workers"];
        assert_eq!(gauge.value, 0, "idle after the campaign");
        assert_eq!(gauge.high_water, 4, "peak = threads used");
        assert!(
            snap.gauges["service.shard_imbalance"].value >= 100,
            "the busiest worker is at least the mean"
        );
        assert!(snap.values["campaign.runs_per_sec"] > 0.0);
    }

    /// Two campaigns with overlapping misses, run at once on one service:
    /// the cache file ends up one whole line per key, equal to the cache
    /// in memory, and a warm replay leaves it byte-identical.
    #[test]
    fn concurrent_campaigns_append_each_key_once() {
        let path = std::env::temp_dir()
            .join(format!(
                "nonfifo-service-append-{}.ndjson",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        std::fs::remove_file(&path).ok();
        let service = CampaignService::new(ServiceConfig {
            cache_path: Some(path.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let later = PLAN.replace("seeds 0..3", "seeds 1..5");
        // Each campaign streams its first run only after both have looked
        // up their misses and before either inserts: seeds 1..3 run twice.
        let looked_up = std::sync::Barrier::new(2);
        let streamed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for plan in [PLAN, later.as_str()] {
                let (service, looked_up, streamed) = (&service, &looked_up, &streamed);
                scope.spawn(move || {
                    let mut first = true;
                    let mut sink = |line: &str| {
                        if std::mem::take(&mut first) {
                            looked_up.wait();
                        }
                        if matches!(WireMsg::parse_line(line), Ok(WireMsg::Run { .. })) {
                            streamed.fetch_add(1, Ordering::Relaxed);
                        }
                    };
                    service.run_campaign(plan, 2, &mut sink).unwrap();
                });
            }
        });
        assert_eq!(
            streamed.into_inner(),
            12 + 16,
            "both campaigns ran the overlap"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let mut keys: Vec<u64> = text
            .lines()
            .map(|line| match WireMsg::parse_line(line).unwrap() {
                WireMsg::Run {
                    spec_fingerprint, ..
                } => spec_fingerprint,
                other => panic!("a {} line in the cache", other.kind()),
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), text.lines().count(), "a key appears twice");
        let union = CampaignPlan::parse(&PLAN.replace("seeds 0..3", "seeds 0..5"))
            .unwrap()
            .expand();
        assert_eq!(keys.len(), union.len());
        let reloaded = CampaignCache::load(&path).unwrap();
        assert_eq!(reloaded.len(), service.cache().len());
        for spec in &union {
            assert_eq!(reloaded.get(spec), service.cache().get(spec));
        }

        let (_, report) = collect(&service, 4);
        assert!(matches!(report, WireMsg::Report { cache_hits: 12, .. }));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "warm replay wrote"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_plans_fail_with_line_numbers_before_any_execution() {
        let service = CampaignService::new(ServiceConfig::default()).unwrap();
        let mut sink = |_: &str| panic!("no deltas for a rejected plan");
        let err = service
            .run_campaign("scenario x\nwarble 3\n", 2, &mut sink)
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn imbalance_is_the_busiest_worker_over_the_mean() {
        let ms = Duration::from_millis;
        assert_eq!(imbalance_pct(&[ms(7)]), 100, "one worker is balanced");
        assert_eq!(imbalance_pct(&[ms(5), ms(5)]), 100);
        assert_eq!(imbalance_pct(&[ms(30), ms(10)]), 150);
        assert_eq!(imbalance_pct(&[ms(4), ms(0), ms(0), ms(0)]), 400);
        assert_eq!(imbalance_pct(&[ms(0), ms(0)]), 100, "no work is balanced");
    }

    /// One HTTP/1.1 exchange with the daemon at `addr`; returns the body.
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (_, body) = response.split_once("\r\n\r\n").expect("a header block");
        body.to_string()
    }

    /// A run that panics, served over a real socket: the stream ends in
    /// its report, which shows the run as `panicked`; the daemon keeps
    /// serving; and the run is never cached, so a warm replay runs it
    /// again and the cache file has no line for it.
    #[test]
    fn a_panicking_run_is_served_as_a_failure_and_never_cached() {
        let path = std::env::temp_dir()
            .join(format!(
                "nonfifo-service-panic-{}.ndjson",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        std::fs::remove_file(&path).ok();
        let service = CampaignService::new(ServiceConfig {
            workers: 2,
            cache_path: Some(path.clone()),
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = {
            let service = service.clone();
            std::thread::spawn(move || service.serve(listener))
        };
        let plan =
            format!("{PLAN}\nscenario boom\nprotocols abp\ndisciplines fifo\nmessages 6\nseeds {PANIC_SEED}\n");
        let panicking = CampaignPlan::parse(&plan).unwrap().expand().pop().unwrap();
        assert_eq!(panicking.seed, PANIC_SEED);

        // Cold, all 13 runs execute; warm, only the panicked one does.
        for executed in [13, 1] {
            let body = http(addr, "POST", "/campaign", &plan);
            let msgs: Vec<WireMsg> = body
                .lines()
                .map(|l| WireMsg::parse_line(l).unwrap())
                .collect();
            let outcomes: Vec<RunOutcome> = msgs
                .iter()
                .filter_map(|m| match m {
                    WireMsg::Run { run, .. } => Some(run.result.outcome),
                    _ => None,
                })
                .collect();
            assert_eq!(outcomes.len(), executed, "{body}");
            assert_eq!(
                outcomes
                    .iter()
                    .filter(|&&o| o == RunOutcome::Panicked)
                    .count(),
                1
            );
            let Some(WireMsg::Report {
                render,
                cache_hits,
                aggregate,
            }) = msgs.last()
            else {
                panic!("the stream ends in its report: {body}");
            };
            assert_eq!(*cache_hits as usize, 13 - executed);
            assert_eq!(render.lines().filter(|l| l.contains("panicked")).count(), 1);
            assert_eq!(aggregate.counters["campaign.runs.panicked"], 1);
        }
        assert_eq!(http(addr, "GET", "/healthz", ""), "ok\n", "still serving");
        http(addr, "POST", "/shutdown", "");
        daemon.join().unwrap().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 12, "every run but the panicked one");
        for line in text.lines() {
            let WireMsg::Run {
                spec_fingerprint,
                run,
                ..
            } = WireMsg::parse_line(line).unwrap()
            else {
                panic!("a cache line that is not a run: {line}");
            };
            assert_ne!(spec_fingerprint, panicking.fingerprint());
            assert_ne!(run.result.outcome, RunOutcome::Panicked);
        }
    }
}
