//! `benchmark` — the end-to-end and per-layer benchmark of the `nonfifo`
//! CLI. See `README.md` in this directory for the workloads, the metric
//! table and how to read a comparison.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--traced] [--out FILE]
//! benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! End-to-end numbers come from the `nonfifo` binary next to this one
//! (`cargo build --release -p nonfifo-cli -p nonfifo-bench`, or `run.sh`
//! here), run as a black box: one process per explore or campaign iteration
//! and a real daemon over HTTP for served campaigns. `--trace 1` (or `--traced`)
//! runs the traced suite instead: one instrumented iteration of every
//! workload plus in-process probes of single layers. The last line of
//! standard output is always one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod compare;
mod parse;
mod plans;
mod probes;
mod proc;
mod stats;
mod traced;
mod workloads;

use nonfifo_telemetry::{Json, TraceSink};
use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--traced] [--out FILE]
       benchmark compare PARENT.jsonl CHANGE.jsonl

workloads: explore-wide explore-por-seq explore-spill campaign-batch
           campaign-served (default: all five)";

/// One metric's identity: what it measures in, which way is better, and
/// the share of the parent's median it may worsen by (end-to-end only).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// Every workload reports each of these on an untraced run: one time per
/// operation, one memory figure and one set-up time. A throughput would be
/// a constant over the same median wall, so none is reported.
///
/// Every bound is 0.25, the largest allowed: on the 2-vCPU VM the baseline
/// was measured on, the machine's own speed drifts by 10-30% over minutes,
/// and `compare` judges the paired ratios to cancel that drift (see
/// `README.md`).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("latency_s.p50", "s", false, 0.25),
    e2e("cpu_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// The traced suite reports each of these.
pub const PER_LAYER: [MetricDef; 43] = [
    layer("cli.outside_engine_s.wide", "s", false),
    layer("cli.outside_engine_s.spill", "s", false),
    layer("explore_par.engine_states_per_s", "states/s", true),
    layer("explore_par.levels", "count", false),
    layer("explore_par.level_ms.p50", "ms", false),
    layer("explore_par.level_ms.max", "ms", false),
    layer("explore_par.merge_serial_share", "ratio", false),
    layer("explore_par.candidates_per_state", "ratio", false),
    layer("explore_par.peak_frontier_mb", "MB", false),
    layer("explore_par.rss_over_gauges", "ratio", false),
    layer("explore.engine_states_per_s", "states/s", true),
    layer("por.pruned_per_state", "ratio", true),
    layer("system.apply_step_us", "us", false),
    layer("system.heap_bytes_per_state", "B", false),
    layer("codec.key_ns.full", "ns", false),
    layer("codec.key_ns.quotient", "ns", false),
    layer("visited.ram.insert_ns", "ns", false),
    layer("visited.ram.contains_ns", "ns", false),
    layer("visited.tiered.insert_ns", "ns", false),
    layer("visited.tiered.probe_ns_per_key", "ns", false),
    layer("visited.spills", "count", false),
    layer("visited.spill_io_mb", "MB", false),
    layer("visited.disk_runs", "count", false),
    layer("sim.run_us.p50", "us", false),
    layer("sim.deliver_ns_per_msg", "ns", false),
    layer("stabilize.run_us.p50", "us", false),
    layer("telemetry.sim_overhead_ratio", "ratio", false),
    layer("telemetry.explore_overhead_ratio", "ratio", false),
    layer("campaign.expand_ms", "ms", false),
    layer("campaign.execute_s", "s", false),
    layer("campaign.merge_ms", "ms", false),
    layer("campaign.render_ms", "ms", false),
    layer("campaign.aggregate_ms", "ms", false),
    layer("cache.save_ms", "ms", false),
    layer("cache.load_ms", "ms", false),
    layer("cache.bytes_per_entry", "B", false),
    layer("cache.hit_ratio", "ratio", true),
    layer("wire.run_line_bytes", "B", false),
    layer("wire.parse_us_per_line", "us", false),
    layer("service.ttfr_ms.p50", "ms", false),
    layer("service.ttfr_ms.p90", "ms", false),
    layer("service.latency_s.p90", "s", false),
    layer("service.shard_imbalance_pct", "%", false),
];

/// Looks a metric up in either catalog.
fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// The five workloads. Names are fixed: results files and comparisons key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreWide,
    ExplorePorSeq,
    ExploreSpill,
    CampaignBatch,
    CampaignServed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ExploreWide,
        Workload::ExplorePorSeq,
        Workload::ExploreSpill,
        Workload::CampaignBatch,
        Workload::CampaignServed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreWide => "explore-wide",
            Workload::ExplorePorSeq => "explore-por-seq",
            Workload::ExploreSpill => "explore-spill",
            Workload::CampaignBatch => "campaign-batch",
            Workload::CampaignServed => "campaign-served",
        }
    }

    /// Numeric id carried in trace span arguments.
    fn id(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("listed") as u64
    }
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Value {
    pub def: &'static MetricDef,
    pub value: f64,
    pub samples: usize,
}

/// What one workload (or the traced suite) measured and how many of its
/// operations failed a correctness check.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Counts one operation, and a failure when `result` is an error.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }

    /// Records a metric; names must be in the catalog.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        let def = metric_def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.metrics.push(Value {
            def,
            value,
            samples,
        });
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|v| v.def.name == name)
            .map(|v| v.value)
    }

    /// Correct when nothing failed and every expected metric is a finite,
    /// measured number.
    pub fn correct(&self, expected: &[MetricDef]) -> bool {
        self.failed == 0
            && expected
                .iter()
                .all(|d| self.get(d.name).is_some_and(|v| v.is_finite() && v != 0.0))
    }

    fn metrics_json(&self, prefix: &str, with_samples: bool) -> Vec<(String, Json)> {
        self.metrics
            .iter()
            .map(|v| {
                let mut fields = vec![
                    ("value".to_string(), Json::Float(v.value)),
                    ("unit".to_string(), Json::Str(v.def.unit.to_string())),
                ];
                if with_samples {
                    fields.push(("n".to_string(), Json::Uint(v.samples as u64)));
                }
                (format!("{prefix}{}", v.def.name), Json::Obj(fields))
            })
            .collect()
    }
}

/// Everything a workload run needs to find and drive the program.
pub struct Ctx {
    /// The `nonfifo` binary under test.
    pub nonfifo: PathBuf,
    /// Scratch directory for plans, caches, metrics and spill files.
    pub work: PathBuf,
    /// Explorer threads, campaign threads and daemon workers:
    /// `min(2, nproc)`.
    pub threads: usize,
    pub seed: u64,
    /// Wall time one workload measures for, at least.
    pub seconds: f64,
}

impl Ctx {
    /// A `nonfifo` invocation whose temporary files land in the work dir.
    pub fn nonfifo<S: AsRef<std::ffi::OsStr>>(&self, args: &[S]) -> Command {
        let mut cmd = Command::new(&self.nonfifo);
        cmd.args(args).env("TMPDIR", self.work.join("tmp"));
        cmd
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Benchmark-side spans around every program invocation and probe call,
/// written as a Chrome trace when the traced suite ends. Off by default:
/// untraced runs pay nothing.
pub struct Tracer {
    sink: Option<TraceSink>,
    next_id: Cell<u64>,
    stack: RefCell<Vec<u64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            sink: on.then(TraceSink::new),
            next_id: Cell::new(1),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span whose arguments carry its own id, its
    /// parent's id (0 at the root) and the workload id.
    pub fn span<R>(&self, cat: &str, name: &str, workload: Workload, f: impl FnOnce() -> R) -> R {
        let Some(sink) = &self.sink else {
            return f();
        };
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.stack.borrow().last().copied().unwrap_or(0);
        let _guard = sink.span_with_args(
            cat,
            name,
            vec![
                ("span_id".to_string(), id),
                ("parent_id".to_string(), parent),
                ("workload".to_string(), workload.id()),
            ],
        );
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        out
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        match &self.sink {
            Some(sink) => std::fs::write(path, sink.to_chrome_json()),
            None => Ok(()),
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        out: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

/// The workspace this benchmark was built from (`crates/bench/../..`).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `nonfifo` binary built next to this one.
fn find_cli() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("nonfifo");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build it with \
             `cargo build --release -p nonfifo-cli -p nonfifo-bench`",
            bin.display()
        ))
    }
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and source a result was measured on.
fn fingerprint(threads: usize) -> Json {
    let root = workspace_root().to_string_lossy().into_owned();
    let git = |args: &[&str]| {
        let mut full = vec!["-C", root.as_str()];
        full.extend_from_slice(args);
        command_line("git", &full)
    };
    // A source tree that is not a git checkout of its own (an exported
    // copy, perhaps inside some other repository) has no head to report.
    let own_repo = std::fs::canonicalize(git(&["rev-parse", "--show-toplevel"]))
        .ok()
        .zip(std::fs::canonicalize(&root).ok())
        .is_some_and(|(top, root)| top == root);
    let head = if own_repo {
        git(&["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let dirty = match head.as_str() {
        "unknown" => Json::Null,
        _ => Json::Bool(
            Command::new("git")
                .args(["-C", root.as_str(), "status", "--porcelain"])
                .output()
                .is_ok_and(|o| !o.stdout.is_empty()),
        ),
    };
    let mem_total_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::Obj(vec![
        ("nproc".into(), Json::Uint(nproc as u64)),
        ("threads".into(), Json::Uint(threads as u64)),
        ("mem_total_kb".into(), Json::Uint(mem_total_kb)),
        ("kernel".into(), Json::Str(kernel)),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        ("git_head".into(), Json::Str(head)),
        ("git_dirty".into(), dirty),
    ])
}

fn run(args: &Args) -> Result<(Vec<(String, Outcome)>, Ctx), String> {
    let nonfifo = find_cli()?;
    let work = nonfifo
        .parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/release")
        .join("benchmark-work");
    let tmp = work.join("tmp");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    // The tiered visited probe spills through the standard temp dir.
    std::env::set_var("TMPDIR", &tmp);
    let ctx = Ctx {
        nonfifo,
        work,
        threads: std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(2),
        seed: args.seed,
        seconds: args.seconds,
    };
    let results = if args.traced {
        let tracer = Tracer::new(true);
        let outcome = traced::suite(&ctx, &tracer);
        let path = ctx.path("benchmark-trace.json");
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
        vec![("traced".to_string(), outcome)]
    } else {
        args.workloads
            .iter()
            .map(|&w| (w.name().to_string(), workloads::run(&ctx, w)))
            .collect()
    };
    Ok((results, ctx))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return match compare::run(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (results, ctx) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: &[MetricDef] = if args.traced { &PER_LAYER } else { &END_TO_END };
    for (name, outcome) in &results {
        for v in &outcome.metrics {
            println!(
                "{name:<16} {:<36} {:>16.6} {:<9} (n={})",
                v.def.name, v.value, v.def.unit, v.samples
            );
        }
        println!(
            "{name:<16} {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
    }
    if let Some(path) = &args.out {
        if let Err(e) = append_results(path, &args, &ctx, &results, expected) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    // The last line: one JSON object. A single workload reports its
    // metrics under their own names; several are prefixed `workload.`.
    let single = results.len() == 1;
    let metrics = results
        .iter()
        .flat_map(|(name, o)| {
            o.metrics_json(
                &if single {
                    String::new()
                } else {
                    format!("{name}.")
                },
                false,
            )
        })
        .collect();
    let line = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(results.iter().all(|(_, o)| o.correct(expected))),
        ),
        (
            "attempted".into(),
            Json::Uint(results.iter().map(|(_, o)| o.attempted).sum()),
        ),
        (
            "failed".into(),
            Json::Uint(results.iter().map(|(_, o)| o.failed).sum()),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{line}");
    ExitCode::SUCCESS
}

/// Appends one results line (fingerprint, per-workload metrics with sample
/// counts) to a JSONL file that `benchmark compare` reads.
fn append_results(
    path: &Path,
    args: &Args,
    ctx: &Ctx,
    results: &[(String, Outcome)],
    expected: &[MetricDef],
) -> Result<(), String> {
    use std::io::Write as _;
    let workloads = results
        .iter()
        .map(|(name, o)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("correct".into(), Json::Bool(o.correct(expected))),
                    ("attempted".into(), Json::Uint(o.attempted)),
                    ("failed".into(), Json::Uint(o.failed)),
                    ("metrics".into(), Json::Obj(o.metrics_json("", true))),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("schema".into(), Json::Uint(1)),
        ("seed".into(), Json::Uint(args.seed)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("traced".into(), Json::Bool(args.traced)),
        ("fingerprint".into(), fingerprint(ctx.threads)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root describes this program; its
    /// metric names, units, directions and bounds must match the catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text = std::fs::read_to_string(workspace_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("valid JSON");
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), catalog.len(), "{key}");
            for (entry, def) in listed.iter().zip(catalog) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
                assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound);
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn args_parse_one_workload_runs_and_reject_junk() {
        let raw: Vec<String> = [
            "--workload",
            "explore-spill",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_args(&raw).unwrap();
        assert_eq!(args.workloads, vec![Workload::ExploreSpill]);
        assert_eq!((args.seed, args.seconds, args.traced), (7, 5.0, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--bogus", "1"],
        ] {
            let raw: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&raw).is_err(), "{bad:?}");
        }
    }
}
