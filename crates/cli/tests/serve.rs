//! End-to-end tests of the campaign service over real processes: the
//! daemon spawning `nonfifo worker` subprocesses per shard, the worker
//! subcommand speaking the wire protocol over its pipes, crash-retry, and
//! the full HTTP daemon driven exactly the way the CI serve-smoke job
//! drives it. The invariant under test everywhere: the served report is
//! byte-identical to single-process `nonfifo campaign` output.

use nonfifo_campaign::{
    CampaignPlan, CampaignRunner, CampaignService, PlanExpansion, ServiceConfig, ShardRecord,
    WireMsg,
};
use nonfifo_telemetry::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
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

fn worker_service(extra: &[&str]) -> CampaignService {
    let mut worker_command = vec![BIN.to_string(), "worker".to_string()];
    worker_command.extend(extra.iter().map(|s| s.to_string()));
    CampaignService::new(ServiceConfig {
        workers: 0,
        worker_command,
        cache_path: None,
    })
    .unwrap()
}

#[test]
fn worker_processes_reproduce_batch_reports_at_1_2_4() {
    let (render, aggregate) = batch_baseline();
    for workers in [1usize, 2, 4] {
        let service = worker_service(&[]);
        let streamed = Mutex::new(0usize);
        let mut sink = |msg: &WireMsg| {
            if matches!(msg, WireMsg::Run { .. }) {
                *streamed.lock().unwrap() += 1;
            }
        };
        let report = service.run_campaign(PLAN, workers, &mut sink).unwrap();
        assert_eq!(
            streamed.into_inner().unwrap(),
            total_runs(),
            "{workers} workers: every run streamed"
        );
        let WireMsg::Report {
            render: r,
            aggregate: a,
            ..
        } = report
        else {
            panic!("expected report");
        };
        assert_eq!(r, render, "{workers} worker processes");
        assert_eq!(a.to_json(), aggregate, "{workers} worker processes");
        let snap = service.registry().snapshot();
        assert_eq!(snap.counters["service.retried_runs"], 0);
        assert_eq!(
            snap.gauges["service.active_workers"].high_water,
            workers.min(total_runs()) as u64
        );
    }
}

#[test]
fn killed_workers_are_retried_to_a_byte_identical_report() {
    let (render, aggregate) = batch_baseline();
    // Every worker dies (exit 9) after streaming two results, so most of
    // the campaign arrives through the daemon's in-process retry path.
    let service = worker_service(&["--die-after", "2"]);
    let mut sink = |_: &WireMsg| {};
    let report = service.run_campaign(PLAN, 3, &mut sink).unwrap();
    let WireMsg::Report {
        render: r,
        aggregate: a,
        ..
    } = report
    else {
        panic!("expected report");
    };
    assert_eq!(r, render, "report survives worker crashes unchanged");
    assert_eq!(a.to_json(), aggregate);
    let retried = service.registry().snapshot().counters["service.retried_runs"];
    assert_eq!(
        retried as usize,
        total_runs() - 3 * 2,
        "every run the three dying workers dropped was retried"
    );
}

#[test]
fn worker_subcommand_speaks_the_wire_protocol_over_its_pipes() {
    let plan = CampaignPlan::parse(PLAN).unwrap();
    let expansion = PlanExpansion::of_plan(&plan).unwrap();
    let shard = &expansion.shard_all(2)[1];

    let mut child = Command::new(BIN)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(WireMsg::shard_assignment(PLAN, shard).to_line().as_bytes())
        .unwrap();
    let mut output = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut output)
        .unwrap();
    assert!(child.wait().unwrap().success());

    let records: Vec<ShardRecord> = output
        .lines()
        .map(|l| {
            WireMsg::parse_line(l)
                .unwrap()
                .into_shard_record()
                .expect("workers emit only Run lines")
        })
        .collect();
    assert_eq!(records, shard.execute(&expansion, |_| {}).records);
}

#[test]
fn worker_subcommand_rejects_garbage_with_an_error_line_and_exit_1() {
    let mut child = Command::new(BIN)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"this is not a wire message\n")
        .unwrap();
    let mut output = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut output)
        .unwrap();
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(1), "usage errors exit 1");
    assert!(
        matches!(
            WireMsg::parse_line(output.lines().next().unwrap()).unwrap(),
            WireMsg::Error { .. }
        ),
        "parent-visible error line: {output:?}"
    );
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

/// Starts `nonfifo serve` on an ephemeral port; returns the daemon and the
/// bound address scraped from its banner line.
fn spawn_daemon() -> (Child, String) {
    let mut daemon = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Borrowed, not taken: the daemon prints after its banner, so the pipe
    // must stay open.
    let stdout = daemon.stdout.as_mut().unwrap();
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
fn shut_down(mut daemon: Child, addr: &str) {
    let (head, _) = http(addr, "POST", "/shutdown", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            assert!(status.success(), "daemon exits cleanly on /shutdown");
            break;
        }
        assert!(Instant::now() < deadline, "daemon ignored /shutdown");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn http_daemon_serves_campaigns_byte_identical_to_batch() {
    let (render, aggregate) = batch_baseline();
    let (daemon, addr) = spawn_daemon();

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

    shut_down(daemon, &addr);
}

#[test]
fn oversized_bodies_get_a_413_and_the_daemon_keeps_serving() {
    let (daemon, addr) = spawn_daemon();
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
