//! The explorer's pinned artifacts, checked through the `nonfifo` binary:
//! the E13 bench scope's frontier layout and work, its certificate under
//! every visited budget, the deep POR oracle's counters, the gbn4
//! counterexample goldens and the reduced E13 top scope. Every pinned
//! figure is a function of the scope alone, so it must match exactly on
//! any machine and at any thread count.

use nonfifo_telemetry::Json;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

/// The E13 bench scope, 87,515 states unreduced. Its wall time is the
/// benchmark's business (explore-wide and explore-spill); these tests pin
/// what the scope alone decides.
const BENCH: &str = "explore seqnum --messages 8 --depth 26 --pool 10 --max-states 20000000";

/// The bench scope's certificate, the same line on every engine and tier.
const CERTIFICATE: &str = "certificate: no invalid execution in scope (exhaustive, 87515 states)\n";

/// One finished `nonfifo` run.
struct Run {
    code: Option<i32>,
    /// Stdout after the banner line, which alone names the engine, the
    /// thread count and the tier, and before the `metrics written` line.
    report: String,
    metrics: Json,
}

impl Run {
    fn counter(&self, name: &str) -> u64 {
        self.metric(&["counters", name])
    }

    fn gauge(&self, name: &str) -> u64 {
        self.metric(&["gauges", name, "value"])
    }

    fn metric(&self, path: &[&str]) -> u64 {
        path.iter()
            .try_fold(&self.metrics, |json, key| json.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metrics lack {path:?}"))
    }
}

/// Starts every command line at once, each as its own `nonfifo` process
/// writing `--metrics-out`, and waits for them all. Each report is a few
/// lines, well under a pipe's buffer, so no child blocks on its stdout
/// while an earlier one is awaited.
fn run_all<S: AsRef<str>>(jobs: &[S]) -> Vec<Run> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let children: Vec<(Child, String)> = jobs
        .iter()
        .map(|line| {
            let path = std::env::temp_dir()
                .join(format!(
                    "nonfifo-pins-{}-{}.json",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ))
                .to_string_lossy()
                .into_owned();
            let child = Command::new(BIN)
                .args(line.as_ref().split_whitespace())
                .args(["--metrics-out", &path])
                .stdout(Stdio::piped())
                .spawn()
                .unwrap();
            (child, path)
        })
        .collect();
    children
        .into_iter()
        .map(|(child, path)| {
            let out = child.wait_with_output().unwrap();
            let metrics = std::fs::read_to_string(&path).unwrap_or_default();
            std::fs::remove_file(&path).ok();
            let stdout = String::from_utf8(out.stdout).unwrap();
            let report = stdout
                .split_once('\n')
                .map_or("", |(_, rest)| rest)
                .strip_suffix(&format!("metrics written to {path}\n"))
                .unwrap_or_else(|| panic!("no metrics line: {stdout}"))
                .to_string();
            Run {
                code: out.status.code(),
                report,
                metrics: Json::parse(&metrics).unwrap(),
            }
        })
        .collect()
}

fn bench(extra: &str) -> String {
    format!("{BENCH} {extra}")
}

/// The peak frontier gauge is the bytes of the two live levels' records (a
/// 16-byte head, then varint counters and delta-coded copies, plus a
/// 4-byte offset each) and of the station table, read from slab lengths,
/// and the station-state gauges count the distinct automaton states the
/// records name. The in-RAM visited estimate is 12 B per admitted key. The
/// work counters (states admitted, expansions, candidates, dedup hits) and
/// the peak candidate bytes are what the search did; a candidate is 16 B
/// (an 8-byte key and an 8-byte packed path record; 17,875 of them at the
/// widest level), and the path arena holds one 8-byte record per admitted
/// non-root state. Without a memory budget each level is expanded, merged
/// and admitted as one slice, so the slice count is the 26 levels. All
/// are functions of the scope alone, so they must match these exact values
/// at 8 and at 2 threads. Any change to the record layout, the key width,
/// what a frontier node holds or how much work a level does moves them.
#[test]
fn the_bench_scope_pins_its_frontier_layout_and_work_at_2_and_8_threads() {
    let runs = run_all(&[
        bench("--parallel --threads 8"),
        bench("--parallel --threads 2"),
    ]);
    for (threads, run) in [8, 2].into_iter().zip(&runs) {
        assert_eq!(run.code, Some(0), "{threads} threads");
        assert_eq!(run.report, CERTIFICATE, "{threads} threads");
        for (name, pinned) in [
            ("explore.peak_frontier_bytes", 1_569_325),
            ("explore.station_states.tx", 17),
            ("explore.station_states.rx", 9),
            ("explore.visited_bytes", 1_050_180),
            ("explore.peak_candidate_bytes", 286_000),
            ("explore.path_bytes", 700_112),
        ] {
            assert_eq!(run.gauge(name), pinned, "{threads} threads: {name}");
        }
        for (name, pinned) in [
            ("explore.states", 87_515),
            ("explore.expansions", 87_515),
            ("explore.candidates", 87_514),
            ("explore.dedup_hits", 369_513),
            ("explore.slices", 26),
        ] {
            assert_eq!(run.counter(name), pinned, "{threads} threads: {name}");
        }
    }
}

/// About 87k states need about 1 MB resident in the RAM tier, so a small
/// budget forces the tiered set through disk spills. The certificate must
/// not notice: at 32 KiB the scope spills 32 times and compacts four times
/// at the fixed fan-in of 8, at 64 KiB it spills 16 times and compacts
/// twice, at 256 KiB it spills 4 times and never compacts, and every run
/// prints the in-RAM certificate. At 256 KiB the spill summary must report
/// disk traffic, since a run that silently stayed resident would print the
/// certificate while guarding nothing. At 64 KiB, fewer live runs than
/// spills means a compaction merged runs; a tier that rewrote one
/// monolithic run, or never merged, fails one of the two comparisons. The
/// merge runs in the foreground with budget-sized buffers, so the peak
/// stays within one 12-byte RAM entry of the budget. Inserts happen only in
/// the single-threaded admit pass, so the spill cadence, and with it the
/// whole report, is the same at 1, 2 and 8 threads.
///
/// At 256 KiB each level goes through expand, merge and admit in slices
/// of 4,096 ranks (42 slices over the 26 levels), so the candidates in
/// flight are one slice's: 371,760 B, where the widest level's add up to
/// 1,072,128 B. Keys that live only on disk stay candidates until the
/// merge probes them, so the scope makes 311,779 candidates against 87,514
/// in RAM; the dedup hits, rejected in the expansion or in the merge, are
/// RAM's 369,513. The slices depend on the budget alone, so every figure
/// is the same at every thread count.
#[test]
fn the_bench_scope_certifies_identically_at_every_visited_budget() {
    let runs = run_all(&[
        bench("--visited tiered --memory-budget 32768"),
        bench("--visited tiered --memory-budget 65536"),
        bench("--visited tiered --memory-budget 262144 --threads 1"),
        bench("--visited tiered --memory-budget 262144 --threads 2"),
        bench("--visited tiered --memory-budget 262144 --threads 8"),
    ]);
    for run in &runs {
        assert_eq!(run.code, Some(0), "{}", run.report);
        assert!(run.report.starts_with(CERTIFICATE), "{}", run.report);
    }

    let spill = &runs[2].report[CERTIFICATE.len()..];
    let spills: u64 = spill
        .strip_prefix("visited: ")
        .and_then(|s| s.split_once(' '))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no spill summary: {spill}"));
    assert!(spills >= 1, "{spill}");

    let at_64k = &runs[1];
    let live_runs = at_64k.gauge("explore.disk_runs");
    let spilled = at_64k.counter("explore.visited_spills");
    assert!(
        1 <= live_runs && live_runs < spilled,
        "{live_runs} runs, {spilled} spills"
    );
    let peak = at_64k.gauge("explore.visited_bytes");
    assert!(peak <= 65_536 + 12, "peak {peak} B");

    assert_eq!(runs[3].report, runs[2].report, "2 threads");
    assert_eq!(runs[4].report, runs[2].report, "8 threads");
    for (threads, run) in [1, 2, 8].into_iter().zip(&runs[2..]) {
        for (name, pinned) in [
            ("explore.candidates", 311_779),
            ("explore.dedup_hits", 369_513),
            ("explore.slices", 42),
        ] {
            assert_eq!(run.counter(name), pinned, "{threads} threads: {name}");
        }
        for (name, pinned) in [
            ("explore.peak_candidate_bytes", 371_760),
            ("explore.peak_level_candidate_bytes", 1_072_128),
        ] {
            assert_eq!(run.gauge(name), pinned, "{threads} threads: {name}");
        }
    }
}

/// Under a memory budget the level in flight's candidates are bounded by
/// a slice, not a level: at 10/30/12 with 256 KiB the widest level's
/// candidates add up to 23 MB, nearly all of them keys that live only on
/// disk, while each slice of 4,096 ranks, at most 2 + 12 successors a
/// node (send, park, and a delivery per distinct parked header) of 16
/// bytes, holds at most 917,504 B. The gauge is a function of the scope
/// and the budget alone. The scope takes seconds in an optimized build, so
/// this runs with `cargo test --release -- --ignored`.
#[test]
#[ignore = "a 1.1M-state scope; run with --release -- --ignored"]
fn a_budgeted_wide_scope_holds_one_slice_of_candidates() {
    let run = run_all(&[
        "explore seqnum --messages 10 --depth 30 --pool 12 --max-states 20000000 \
         --threads 2 --memory-budget 262144",
    ])
    .remove(0);
    assert_eq!(run.code, Some(0), "{}", run.report);
    let slice_bound = 4096 * (2 + 12) * 16;
    let peak = run.gauge("explore.peak_candidate_bytes");
    assert!(peak <= slice_bound, "{peak} B of candidates in flight");
    let level = run.gauge("explore.peak_level_candidate_bytes");
    assert!(level > 20 * slice_bound, "the widest level held {level} B");
}

/// The benchmark's explore-por-seq scope on the sequential engine: 300
/// levels through the reused trial system, the path records and the
/// sleep-set rule. The state and pruned counts are deterministic.
#[test]
fn the_sequential_oracle_pins_its_deep_por_counters() {
    let run = run_all(&[
        "explore seqnum --messages 100 --depth 300 --pool 50 --max-states 50000000 --por",
    ])
    .remove(0);
    assert_eq!(run.code, Some(0), "{}", run.report);
    assert_eq!(run.counter("explore.states"), 131_276);
    assert_eq!(run.counter("explore.pruned_states"), 121_324);
}

/// `tests/golden/` holds the go-back-N(4) counterexample report at 6/12/5
/// as written by the binary whose explorer systems still kept their full
/// history. The two engines may report different shortest attacks, so each
/// has its own golden; no thread count and no `--por` may change a byte.
/// Only the banner (engine, threads, por) is cut.
#[test]
fn gbn4_counterexamples_match_their_goldens_byte_for_byte() {
    let golden = |engine: &str| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
        std::fs::read_to_string(format!("{dir}/gbn4-cex.{engine}.txt")).unwrap()
    };
    let engines = [
        ("sequential", ""),
        ("sequential", "--por"),
        ("parallel", "--threads 1"),
        ("parallel", "--threads 1 --por"),
        ("parallel", "--threads 2"),
        ("parallel", "--threads 2 --por"),
        ("parallel", "--threads 8"),
        ("parallel", "--threads 8 --por"),
    ];
    let jobs: Vec<String> = engines
        .iter()
        .map(|(_, flags)| format!("explore gbn4 --messages 6 --depth 12 --pool 5 {flags}"))
        .collect();
    for ((engine, flags), run) in engines.iter().zip(run_all(&jobs)) {
        assert_eq!(run.code, Some(2), "{flags:?}");
        assert_eq!(run.report, golden(engine), "{flags:?}");
    }
}

/// Under a memory budget the parallel engine streams its levels and path
/// records through spill files and reconstructs a counterexample from
/// the records it reads back. Each report must be the in-RAM run's, byte
/// for byte, at 1, 2 and 8 threads, plus the `visited:` and `streamed:`
/// lines: the gbn4 golden, the alternating bit at the default scope, and
/// the corrupted start whose counterexample is found at depth 0, before
/// any level streams.
#[test]
fn budgeted_counterexamples_match_the_ram_runs_byte_for_byte() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/gbn4-cex.parallel.txt"
    ))
    .unwrap();
    let scopes = [
        ("explore gbn4 --messages 6 --depth 12 --pool 5", true),
        ("explore abp", true),
        (
            "explore seqnum --corrupt-start 8 --messages 2 --depth 8 --pool 4 --max-states 300000",
            false,
        ),
    ];
    let mut jobs = Vec::new();
    for (scope, _) in scopes {
        for threads in [1, 2, 8] {
            jobs.push(format!("{scope} --threads {threads}"));
            jobs.push(format!("{scope} --threads {threads} --memory-budget 4096"));
        }
    }
    let runs = run_all(&jobs);
    for (i, pair) in runs.chunks(2).enumerate() {
        let ((scope, streams), job) = (scopes[i / 3], &jobs[2 * i + 1]);
        let (ram, budgeted) = (&pair[0], &pair[1]);
        assert_eq!(ram.code, Some(2), "{job}");
        assert_eq!(budgeted.code, Some(2), "{job}");
        if scope.contains("gbn4") {
            assert_eq!(ram.report, golden, "{job}");
        }
        let (report, extra): (Vec<&str>, Vec<&str>) = budgeted
            .report
            .lines()
            .partition(|l| !l.starts_with("visited: ") && !l.starts_with("streamed: "));
        assert_eq!(report, ram.report.lines().collect::<Vec<_>>(), "{job}");
        assert_eq!(
            extra.iter().any(|l| l.starts_with("streamed: ")),
            streams,
            "{job}: {extra:?}"
        );
        assert_eq!(budgeted.report, runs[2 * (i / 3 * 3) + 1].report, "{job}");
    }
}

/// The reduced engine must agree with the full explorer on the verdict.
/// Both state counts are functions of the protocol and the scope alone, so
/// the reduction line and the reduced run's counters are pinned exactly:
/// fewer states means the quotient got coarser, more means the reduction
/// got weaker. The quotient key is a pure function of the state, so the
/// reduced report is the same at any thread count.
#[test]
fn the_reduced_e13_top_scope_pins_its_reduction_at_every_thread_count() {
    let scope = "explore seqnum --messages 6 --depth 20 --pool 8 --max-states 2000000 --por";
    let runs = run_all(&[
        format!("{scope} --differential"),
        format!("{scope} --threads 1"),
        format!("{scope} --threads 2"),
        format!("{scope} --threads 8"),
    ]);
    let differential = &runs[0];
    assert_eq!(differential.code, Some(0), "{}", differential.report);
    let lines: Vec<&str> = differential.report.lines().collect();
    assert!(
        lines.contains(&"differential: reduced and full explorers agree on the verdict"),
        "{}",
        differential.report
    );
    assert!(
        lines.contains(&"reduction: 237 states vs 6005 full (25.34x)"),
        "{}",
        differential.report
    );
    assert_eq!(differential.counter("explore.states"), 237);
    assert_eq!(differential.counter("explore.pruned_states"), 147);

    assert_eq!(runs[1].code, Some(0), "{}", runs[1].report);
    assert_eq!(runs[2].report, runs[1].report, "2 threads");
    assert_eq!(runs[3].report, runs[1].report, "8 threads");
}

/// The level merge is the explorer's only serial section; the sharded
/// parallel merge exists to keep it small. At 8 threads its serial
/// remainder (the transpose, the admit-and-rank pass and the hand-back of
/// the bins to the workers, counted by `explore.merge_serial_ns`) must stay
/// under 20% of wall time: above that, Amdahl caps speedup at 5x no matter
/// the core count. A wall-clock ratio means something only in an optimized
/// build, so this runs with `cargo test --release -- --ignored`.
#[test]
#[ignore = "wall-clock ratio; run with --release -- --ignored"]
fn the_merge_stays_under_a_fifth_of_wall_time_at_8_threads() {
    let run = run_all(&[bench("--parallel --threads 8")]).remove(0);
    assert_eq!(run.code, Some(0), "{}", run.report);
    let serial = run.counter("explore.merge_serial_ns") as f64;
    let wall = run
        .metrics
        .get("values")
        .and_then(|v| v.get("explore.wall_ns"))
        .and_then(Json::as_f64)
        .expect("explore.wall_ns");
    let share = serial / wall;
    assert!(
        share < 0.20,
        "serial merge fraction {share:.3} breaches 20%"
    );
}
