//! Running the `nonfifo` binary as a user does: one process per
//! invocation, timed from outside, with its peak resident set sampled from
//! `/proc/<pid>/status` while it runs; and a daemon driven over HTTP.

use crate::parse;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the poller samples `VmHWM`. The mark only grows, so a sample
/// taken late still sees every earlier peak; only growth in the last
/// interval before exit can be missed.
const POLL: Duration = Duration::from_millis(5);

/// Samples a process's `VmHWM` until stopped; the last readable sample is
/// its peak resident set.
pub struct RssPoller {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl RssPoller {
    pub fn start(pid: u32) -> RssPoller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let path = format!("/proc/{pid}/status");
            let mut peak = 0;
            loop {
                if let Some(bytes) = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| parse::vm_hwm_bytes(&s))
                {
                    peak = peak.max(bytes);
                }
                if flag.load(Ordering::SeqCst) {
                    return peak;
                }
                std::thread::sleep(POLL);
            }
        });
        RssPoller { stop, handle }
    }

    /// Stops sampling and returns the peak in bytes (0 if never readable).
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("rss poller panicked")
    }
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// (user and system time) and fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU seconds, user plus system, of every child this process has reaped
/// (each with its own reaped descendants). Time the hypervisor steals from
/// a virtual CPU is not counted, so on a shared host this moves less than
/// wall time.
fn reaped_children_cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value with the layout of the
    // kernel's `struct rusage` on 64-bit Linux, and getrusage writes only
    // that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) cannot fail");
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    seconds(usage.utime) + seconds(usage.stime)
}

/// One finished process.
pub struct Finished {
    pub wall_s: f64,
    /// CPU seconds of the process and of the children it reaped.
    pub cpu_s: f64,
    pub peak_rss_bytes: u64,
    pub status: ExitStatus,
    pub stdout: String,
}

impl Finished {
    pub fn code(&self) -> i32 {
        self.status.code().unwrap_or(-1)
    }
}

/// Runs `cmd` to completion with stdout captured, timing it from spawn to
/// reaped exit, taking its CPU time and sampling its peak resident set.
/// Children are reaped one at a time, so the CPU time reaped while this
/// one is waited for is its own.
pub fn run(cmd: &mut Command) -> std::io::Result<Finished> {
    let cpu_before = reaped_children_cpu_s();
    let started = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).stdin(Stdio::null()).spawn()?;
    let poller = RssPoller::start(child.id());
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let status = child.wait();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = reaped_children_cpu_s() - cpu_before;
    let peak_rss_bytes = poller.finish();
    read?;
    Ok(Finished {
        wall_s,
        cpu_s,
        peak_rss_bytes,
        status: status?,
        stdout,
    })
}

/// A running `nonfifo serve`; killed and reaped on drop unless shut down.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    rss: Option<RssPoller>,
    /// Drains the daemon's stdout so it never blocks on a full pipe; ends
    /// when the daemon exits.
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon and waits until `GET /healthz` answers 200.
    /// Returns it with the start-up time, spawn to first healthy answer.
    pub fn start(cmd: &mut Command) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut child = cmd
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?;
        let rss = Some(RssPoller::start(child.id()));
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            rss,
            drain: None,
        };
        let mut reader = BufReader::new(stdout);
        reader
            .read_line(&mut banner)
            .map_err(|e| format!("read serve banner: {e}"))?;
        daemon.addr =
            parse::serve_addr(&banner).ok_or_else(|| format!("unexpected banner {banner:?}"))?;
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        let deadline = started + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) = request(&daemon.addr, "GET", "/healthz", "") {
                return Ok((daemon, started.elapsed().as_secs_f64()));
            }
            if Instant::now() > deadline {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Asks the daemon to exit, waits for it, and returns its peak
    /// resident set in bytes and the CPU seconds it and its workers used.
    pub fn shutdown(mut self) -> Result<(u64, f64), String> {
        let asked = request(&self.addr, "POST", "/shutdown", "");
        let mut child = self.child.take().expect("daemon is running");
        let cpu_before = reaped_children_cpu_s();
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err("daemon ignored /shutdown".to_string());
                }
                Err(e) => break Err(format!("wait for daemon: {e}")),
            }
        };
        let cpu_s = reaped_children_cpu_s() - cpu_before;
        let peak = self.rss.take().map_or(0, RssPoller::finish);
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        asked.map_err(|e| format!("POST /shutdown: {e}"))?;
        match status? {
            s if s.success() => Ok((peak, cpu_s)),
            s => Err(format!("daemon exited with {s}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(rss) = self.rss.take() {
            rss.finish();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn connect(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    Ok(stream)
}

/// Reads the status line and headers, returning the status code.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<u16> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = parse::http_status(&line).unwrap_or(0);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            return Ok(status);
        }
    }
}

/// One request with a fully read body.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut reader = BufReader::new(connect(addr, method, path, body)?);
    let status = read_head(&mut reader)?;
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    Ok((status, text))
}

/// A streamed NDJSON response, timed from the request.
pub struct Stream {
    pub status: u16,
    pub lines: Vec<String>,
    /// Seconds to the first body line.
    pub first_line_s: Option<f64>,
    /// Seconds to the terminal `report` line.
    pub report_s: Option<f64>,
}

/// POSTs `body` and reads the response line by line until the server
/// closes it. Lines are kept raw; parsing them here would put client work
/// on the timed path.
pub fn post_stream(addr: &str, path: &str, body: &str) -> std::io::Result<Stream> {
    let started = Instant::now();
    let mut reader = BufReader::new(connect(addr, "POST", path, body)?);
    let status = read_head(&mut reader)?;
    let mut out = Stream {
        status,
        lines: Vec::new(),
        first_line_s: None,
        report_s: None,
    };
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(out);
        }
        let at = started.elapsed().as_secs_f64();
        out.first_line_s.get_or_insert(at);
        if line.contains("\"type\":\"report\"") {
            out.report_s = Some(at);
        }
        out.lines.push(line);
    }
}
