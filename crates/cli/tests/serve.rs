//! End-to-end tests of the campaign service over a real process: the
//! `nonfifo serve` daemon driven over raw HTTP on an ephemeral port. The
//! invariant under test everywhere: the served report is byte-identical to
//! single-process `nonfifo campaign` output.

use nonfifo_campaign::{CampaignPlan, CampaignRunner, WireMsg};
use nonfifo_telemetry::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

const PLAN: &str = "\
schema_version 1
scenario pipes
protocols abp seqnum
disciplines fifo prob:0.3
messages 6
seeds 0..3
";

fn batch_baseline() -> (String, String) {
    let plan = CampaignPlan::parse(PLAN).unwrap();
    let report = CampaignRunner::new(1).run(&plan.expand()).unwrap();
    (report.render(), report.aggregate_metrics().to_json())
}

fn total_runs() -> usize {
    CampaignPlan::parse(PLAN).unwrap().expand().len()
}

/// One raw HTTP/1.1 request; returns (head, body). The server closes the
/// connection after each response, so reading to EOF collects everything —
/// including a full NDJSON campaign stream.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    (head.to_string(), body.to_string())
}

/// A running daemon that dies with its test: dropping the guard, as a
/// failed assertion's unwinding does, kills and reaps the process.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `nonfifo serve` on an ephemeral port with `extra` arguments;
/// returns the daemon and the bound address scraped from its banner line.
fn spawn_daemon(extra: &[&str]) -> (Daemon, String) {
    let mut daemon = Daemon(
        Command::new(BIN)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    // Borrowed, not taken: the daemon prints after its banner, so the pipe
    // must stay open.
    let stdout = daemon.0.stdout.as_mut().unwrap();
    let mut banner = Vec::new();
    let mut byte = [0u8; 1];
    while !banner.ends_with(b"/\n") {
        assert_eq!(stdout.read(&mut byte).unwrap(), 1, "daemon died at startup");
        banner.push(byte[0]);
    }
    let addr = String::from_utf8(banner)
        .unwrap()
        .trim()
        .strip_prefix("serving on http://")
        .and_then(|s| s.strip_suffix('/'))
        .expect("banner names the bound address")
        .to_string();
    (daemon, addr)
}

/// `POST /shutdown`, then waits for the daemon to exit cleanly.
fn shut_down(mut daemon: Daemon, addr: &str) {
    let (head, _) = http(addr, "POST", "/shutdown", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            assert!(status.success(), "daemon exits cleanly on /shutdown");
            break;
        }
        assert!(Instant::now() < deadline, "daemon ignored /shutdown");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A fresh daemon per worker count, so every submission executes the
/// whole plan on that many threads: every run streams once, the report
/// and aggregate match batch, and the daemon used that many threads.
#[test]
fn served_campaigns_reproduce_batch_reports_at_1_2_4_workers() {
    let (render, aggregate) = batch_baseline();
    for workers in [1u64, 2, 4] {
        let (daemon, addr) = spawn_daemon(&[]);
        let submit = WireMsg::Submit {
            plan: PLAN.to_string(),
            workers,
        }
        .to_line();
        let (head, body) = http(&addr, "POST", "/campaign", &submit);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let (runs, report) = stream(&body);
        assert_eq!(runs, total_runs(), "{workers} workers: every run streamed");
        let WireMsg::Report {
            render: r,
            aggregate: a,
            cache_hits,
        } = report
        else {
            panic!("stream ends with the report: {body}");
        };
        assert_eq!(r, render, "{workers} workers");
        assert_eq!(a.to_json(), aggregate, "{workers} workers");
        assert_eq!(cache_hits, 0, "{workers} workers: a fresh daemon");
        // The live worker gauge reads 0 between campaigns, so it is read at
        // its high-water mark: the submission must have run on that many
        // threads. The rate is only required to be exported; the
        // benchmark's campaign-served workload times the daemon.
        let (_, metrics) = http(&addr, "GET", "/metrics", "");
        let snapshot = Json::parse(metrics.trim()).unwrap();
        let read = |section: &str, name: &str| snapshot.get(section).and_then(|s| s.get(name));
        let high_water = read("gauges", "service.active_workers")
            .and_then(|g| g.get("high_water"))
            .and_then(Json::as_u64);
        assert_eq!(high_water, Some(workers), "threads used");
        for (name, want) in [
            ("service.campaigns_total", 1),
            ("service.runs_total", total_runs() as u64),
            ("service.cache_hits", 0),
        ] {
            let got = read("counters", name).and_then(Json::as_u64);
            assert_eq!(got, Some(want), "{workers} workers: {name}");
        }
        let rate = read("values", "campaign.runs_per_sec").and_then(Json::as_f64);
        assert!(rate.unwrap_or(0.0) > 0.0, "{workers} workers: {rate:?}");
        shut_down(daemon, &addr);
    }
}

#[test]
fn http_daemon_serves_campaigns_byte_identical_to_batch() {
    let (render, aggregate) = batch_baseline();
    let (daemon, addr) = spawn_daemon(&[]);

    let (head, body) = http(&addr, "GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    // Cold submission: raw plan text, default worker count.
    let (head, body) = http(&addr, "POST", "/campaign", PLAN);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let msgs: Vec<WireMsg> = body
        .lines()
        .map(|l| WireMsg::parse_line(l).unwrap())
        .collect();
    let WireMsg::Report {
        render: r,
        aggregate: a,
        cache_hits,
    } = msgs.last().unwrap().clone()
    else {
        panic!("stream ends with the report: {body}");
    };
    assert_eq!(r, render, "served == batch");
    assert_eq!(a.to_json(), aggregate);
    assert_eq!(cache_hits, 0);
    let runs = msgs
        .iter()
        .filter(|m| matches!(m, WireMsg::Run { .. }))
        .count();
    assert_eq!(runs, total_runs(), "cold run streams every record");

    // Warm submission via a submit wire message: shared cache replays all.
    let submit = WireMsg::Submit {
        plan: PLAN.to_string(),
        workers: 4,
    }
    .to_line();
    let (head, body) = http(&addr, "POST", "/campaign", &submit);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let WireMsg::Report {
        render: warm_render,
        cache_hits: warm_hits,
        ..
    } = WireMsg::parse_line(body.lines().last().unwrap()).unwrap()
    else {
        panic!("warm stream ends with the report");
    };
    assert_eq!(warm_render, render, "warm replay byte-identical");
    assert_eq!(warm_hits as usize, total_runs());

    // Malformed plans are a 400 with a line-numbered error, pre-stream.
    let (head, body) = http(&addr, "POST", "/campaign", "scenario x\nwarble 1\n");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let WireMsg::Error { message } = WireMsg::parse_line(body.trim()).unwrap() else {
        panic!("400 body is an error message: {body}");
    };
    assert!(message.contains("line 2"), "{message}");

    // Service metrics are exported over HTTP.
    let (head, body) = http(&addr, "GET", "/metrics", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let snapshot = Json::parse(body.trim()).unwrap();
    assert_eq!(
        snapshot
            .get("counters")
            .and_then(|c| c.get("service.campaigns_total"))
            .and_then(Json::as_u64),
        Some(2)
    );
    assert!(
        snapshot
            .get("gauges")
            .and_then(|g| g.get("service.active_workers"))
            .and_then(|g| g.get("high_water"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );
    assert!(
        snapshot
            .get("values")
            .and_then(|v| v.get("campaign.runs_per_sec"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    // What the start cost, and what the cache holds since: no cache file,
    // so nothing loaded, then each distinct run once.
    let (load_ms, entries) = start_up_load(&snapshot);
    assert!(load_ms.is_some_and(|ms| ms >= 0.0), "{load_ms:?}");
    assert_eq!(entries, Some(total_runs() as u64));

    shut_down(daemon, &addr);
}

/// `service.cache_load_ms` and `service.cache_entries` from a daemon's
/// `GET /metrics` snapshot.
fn start_up_load(snapshot: &Json) -> (Option<f64>, Option<u64>) {
    let load_ms = snapshot
        .get("values")
        .and_then(|v| v.get("service.cache_load_ms"))
        .and_then(Json::as_f64);
    (load_ms, gauge(snapshot, "service.cache_entries"))
}

/// A gauge's value from a daemon's `GET /metrics` snapshot.
fn gauge(snapshot: &Json, name: &str) -> Option<u64> {
    snapshot
        .get("gauges")
        .and_then(|g| g.get(name))
        .and_then(|g| g.get("value"))
        .and_then(Json::as_u64)
}

/// The daemon's `service.cache_bytes` gauge.
fn cache_bytes(addr: &str) -> Option<u64> {
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    gauge(&Json::parse(metrics.trim()).unwrap(), "service.cache_bytes")
}

#[test]
fn oversized_bodies_get_a_413_and_the_daemon_keeps_serving() {
    let (daemon, addr) = spawn_daemon(&[]);
    // A 1 TiB claim with no body behind it: the daemon must refuse it
    // from the header alone instead of allocating the claimed size.
    let mut stream = TcpStream::connect(&addr).unwrap();
    write!(
        stream,
        "POST /campaign HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 1099511627776\r\n\
         Connection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("a header block");
    assert!(head.starts_with("HTTP/1.1 413"), "{head}");
    let WireMsg::Error { message } = WireMsg::parse_line(body.trim()).unwrap() else {
        panic!("413 body is an error message: {body}");
    };
    assert!(message.contains("1099511627776"), "{message}");

    let (head, body) = http(&addr, "GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    shut_down(daemon, &addr);
}

/// A request head with no newline is read only up to the 16 KiB head cap:
/// the client gets a `431`, and the daemon goes on answering.
#[test]
fn oversized_request_heads_get_a_431_and_the_daemon_keeps_serving() {
    let (daemon, addr) = spawn_daemon(&[]);
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&vec![b'A'; 1 << 20]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("a header block");
    assert!(
        head.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
        "{head}"
    );
    assert!(body.contains("16384-byte limit"), "{body}");

    let (head, body) = http(&addr, "GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    shut_down(daemon, &addr);
}

#[test]
fn oversized_worker_counts_get_a_400_and_the_daemon_keeps_serving() {
    let (daemon, addr) = spawn_daemon(&[]);
    let submit = |workers| {
        WireMsg::Submit {
            plan: PLAN.to_string(),
            workers,
        }
        .to_line()
    };
    let (head, body) = http(&addr, "POST", "/campaign", &submit(1_000_000));
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let WireMsg::Error { message } = WireMsg::parse_line(body.trim()).unwrap() else {
        panic!("400 body is an error message: {body}");
    };
    assert!(message.contains("1000000"), "{message}");

    let (head, body) = http(&addr, "GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    let (head, body) = http(&addr, "POST", "/campaign", &submit(2));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let last = WireMsg::parse_line(body.lines().last().unwrap()).unwrap();
    let WireMsg::Report { render, .. } = last else {
        panic!("stream ends with the report: {body}");
    };
    assert_eq!(render, batch_baseline().0, "served == batch");
    shut_down(daemon, &addr);
}

/// Bodies that once killed the daemon — a stack-deep JSON nest, a plan
/// of 10^11 runs, a seed with no successor — each get a `400` naming what
/// is wrong, and the daemon goes on answering.
#[test]
fn hostile_bodies_get_a_400_and_the_daemon_keeps_serving() {
    let (daemon, addr) = spawn_daemon(&[]);
    let scenario = "scenario s\nprotocols abp\ndisciplines fifo\nmessages 5\n";
    let nested = format!("{{\"v\":{}", "[".repeat(200_000));
    for (body, needle) in [
        (nested, "nesting deeper than"),
        (format!("{scenario}seeds 0..99999999999\n"), "plan line 1"),
        (
            format!("{scenario}seeds 18446744073709551615\n"),
            "plan line 5",
        ),
    ] {
        let started = Instant::now();
        let (head, reply) = http(&addr, "POST", "/campaign", &body);
        assert!(head.starts_with("HTTP/1.1 400"), "{needle}: {head}");
        let WireMsg::Error { message } = WireMsg::parse_line(reply.trim()).unwrap() else {
            panic!("400 body is an error message: {reply}");
        };
        assert!(message.contains(needle), "{message}");
        assert!(started.elapsed() < Duration::from_secs(5), "{needle}: slow");
        let (head, reply) = http(&addr, "GET", "/healthz", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(reply, "ok\n");
    }
    shut_down(daemon, &addr);
}

/// The run messages and the final report of one campaign stream.
fn stream(body: &str) -> (usize, WireMsg) {
    let msgs: Vec<WireMsg> = body
        .lines()
        .map(|l| WireMsg::parse_line(l).unwrap())
        .collect();
    let runs = msgs
        .iter()
        .filter(|m| matches!(m, WireMsg::Run { .. }))
        .count();
    (runs, msgs.last().expect("a non-empty stream").clone())
}

fn temp_cache(name: &str) -> String {
    let path = std::env::temp_dir()
        .join(format!(
            "nonfifo-serve-{name}-{}.ndjson",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    std::fs::remove_file(&path).ok();
    path
}

/// A daemon killed mid-append leaves a half-written last line. A new
/// daemon on that file starts, replays every complete line, re-runs only
/// the cut run, and streams the batch report. The bytes its cache holds
/// then are what a warm restart on the repaired file loads.
#[test]
fn a_daemon_restarts_on_a_torn_cache_and_reruns_only_the_cut_run() {
    let (render, aggregate) = batch_baseline();
    let path = temp_cache("torn");
    let (daemon, addr) = spawn_daemon(&["--cache", &path]);
    let (head, body) = http(&addr, "POST", "/campaign", PLAN);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(stream(&body).0, total_runs());
    let (_, metrics) = http(&addr, "GET", "/metrics", "");
    let entries = gauge(
        &Json::parse(metrics.trim()).unwrap(),
        "service.cache_entries",
    );
    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(entries, Some(lines as u64), "the gauge follows each insert");
    shut_down(daemon, &addr);

    let bytes = std::fs::read(&path).unwrap();
    let body_end = bytes.len() - 1;
    let last_start = bytes[..body_end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    std::fs::write(&path, &bytes[..(last_start + body_end) / 2]).unwrap();

    let (daemon, addr) = spawn_daemon(&["--cache", &path]);
    let (head, body) = http(&addr, "GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    let (_, metrics) = http(&addr, "GET", "/metrics", "");
    let (load_ms, entries) = start_up_load(&Json::parse(metrics.trim()).unwrap());
    assert!(load_ms.is_some_and(|ms| ms >= 0.0), "{load_ms:?}");
    assert_eq!(
        entries,
        Some(total_runs() as u64 - 1),
        "every whole line loaded"
    );
    let (head, body) = http(&addr, "POST", "/campaign", PLAN);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let (runs, report) = stream(&body);
    assert_eq!(runs, 1, "only the cut run executes");
    let WireMsg::Report {
        render: r,
        cache_hits,
        aggregate: mut a,
    } = report
    else {
        panic!("stream ends with the report: {body}");
    };
    assert_eq!(r, render, "served after recovery == batch");
    assert_eq!(cache_hits as usize, total_runs() - 1);
    a.counters.insert("campaign.cache_hits".to_string(), 0);
    assert_eq!(a.to_json(), aggregate, "aggregates differ only in hits");
    let held = cache_bytes(&addr);
    assert!(held.is_some_and(|bytes| bytes > 0), "{held:?}");
    shut_down(daemon, &addr);

    let (daemon, addr) = spawn_daemon(&["--cache", &path]);
    assert_eq!(cache_bytes(&addr), held, "a warm restart holds the same");
    shut_down(daemon, &addr);

    let repaired = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(repaired.lines().count(), total_runs());
    for line in repaired.lines() {
        assert!(matches!(
            WireMsg::parse_line(line).unwrap(),
            WireMsg::Run { .. }
        ));
    }
}

/// A whole-document cache from an older build stops the daemon before it
/// binds, with the version and line in the message, not a panic.
#[test]
fn serve_refuses_an_old_whole_document_cache() {
    let path = temp_cache("v1");
    std::fs::write(&path, "{\"schema_version\":1,\"entries\":[]}").unwrap();
    let out = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--cache", &path])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let first = stderr.lines().next().unwrap_or("");
    assert!(first.contains("line 1"), "{first}");
    assert!(first.contains("schema_version 1"), "{first}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("serving on"));
}
