//! `explore`, `campaign`, `serve` and `stabilize` accept only the options
//! they read: a typo or a retired option is a usage error naming it, never
//! silently ignored. `--visited` and `--memory-budget` pick the visited
//! tier, and `--help` prints the usage.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

const SCOPE: [&str; 8] = [
    "explore",
    "seqnum",
    "--messages",
    "2",
    "--depth",
    "6",
    "--pool",
    "2",
];

const SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../campaigns/smoke.campaign"
);

fn nonfifo(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(BIN).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn explore<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    [&SCOPE[..], extra].concat()
}

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("nonfifo-opts-{tag}-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn unread_options_are_usage_errors_that_name_them() {
    for (args, named) in [
        (explore(&["--bogus", "1"]), &["--bogus"][..]),
        (
            explore(&["--visited", "tiered", "--memory-budjet", "4096"]),
            &["--memory-budjet"],
        ),
        (
            explore(&["--bogus", "1", "--threadz", "2", "--visited", "tiered"]),
            &["--bogus", "--threadz"],
        ),
        (explore(&["--seed", "3"]), &["--seed"]),
        (explore(&["--diagram"]), &["--diagram"]),
        (
            vec![
                "stabilize",
                "--protocol",
                "stabilizing-dl",
                "--sevrity",
                "heavy",
            ],
            &["--sevrity"],
        ),
        (
            vec!["stabilize", "--protocol", "stabilizing-dl", "--por"],
            &["--por"],
        ),
        (
            vec!["campaign", SMOKE, "--thread", "1", "--cahce", "c.json"],
            &["--thread", "--cahce"],
        ),
        (vec!["campaign", SMOKE, "--metrics"], &["--metrics"]),
        // A port out of range, so a regression fails to bind here
        // instead of serving forever.
        (
            vec!["serve", "--addr", "127.0.0.1:99999", "--worker", "2"],
            &["--worker"],
        ),
    ] {
        let (code, stderr) = nonfifo(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: unknown option"),
            "{args:?}: {first}"
        );
        for name in named {
            assert!(first.contains(name), "{args:?} must name {name}: {first}");
        }
    }

    // Every option the rest of the toolchain passes to these subcommands
    // parses.
    let metrics = temp_path("explore");
    let (code, stderr) = nonfifo(&explore(&[
        "--max-states",
        "100000",
        "--threads",
        "2",
        "--parallel",
        "--por",
        "--differential",
        "--visited",
        "tiered",
        "--memory-budget",
        "4096",
        "--metrics-out",
        &metrics,
    ]));
    std::fs::remove_file(&metrics).ok();
    assert_eq!(code, Some(0), "{stderr}");

    let cache = temp_path("campaign-cache");
    let metrics = temp_path("campaign-metrics");
    let (code, stderr) = nonfifo(&[
        "campaign",
        SMOKE,
        "--threads",
        "1",
        "--cache",
        &cache,
        "--metrics-out",
        &metrics,
    ]);
    std::fs::remove_file(&cache).ok();
    std::fs::remove_file(&metrics).ok();
    assert_eq!(code, Some(0), "{stderr}");

    let plan = concat!(env!("CARGO_MANIFEST_DIR"), "/../../attacks/mild.chaos");
    let (code, stderr) = nonfifo(&[
        "stabilize",
        "--protocol",
        "stabilizing-dl",
        "--seeds",
        "4",
        "--severity",
        "heavy",
        "--discipline",
        "fifo",
        "--messages",
        "3",
        "--budget",
        "500",
        "--plan",
        plan,
    ]);
    assert_eq!(code, Some(0), "{stderr}");

    // A cache from an older build stops the daemon before it binds, so
    // this error shows all three options parsed without serving.
    let old = temp_path("serve-cache");
    std::fs::write(&old, "{\"schema_version\":1,\"entries\":[]}").unwrap();
    let (code, stderr) = nonfifo(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--cache",
        &old,
    ]);
    std::fs::remove_file(&old).ok();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("schema_version 1"), "{stderr}");
}

/// A thread count above the worker limit is a usage error naming the
/// limit, raised while the arguments are read: no banner is printed, so no
/// worker thread, per-worker scratch or listening socket was made.
#[test]
fn thread_counts_above_the_limit_are_usage_errors() {
    for (args, option) in [
        (explore(&["--threads", "65"]), "--threads 65"),
        (vec!["campaign", SMOKE, "--threads", "65"], "--threads 65"),
        // A port out of range, so a regression fails to bind instead of
        // serving forever.
        (
            vec!["serve", "--addr", "127.0.0.1:99999", "--workers", "65"],
            "--workers 65",
        ),
    ] {
        let out = Command::new(BIN).args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started work");
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(
            first,
            format!("error: {option}: the limit is 64"),
            "{args:?}"
        );
    }
}

/// `--memory-budget` alone selects the tiered set, byte for byte as with
/// `--visited tiered`; only `--visited ram` refuses a budget. Every visited
/// tier is exact, so asking for the retired Bloom tier fails as bad usage
/// naming the tiers that exist, never a panic or a silent fallback.
#[test]
fn visited_options_pick_a_tier_or_fail_as_usage_errors() {
    let run = |extra: &[&str]| Command::new(BIN).args(explore(extra)).output().unwrap();
    let alone = run(&["--memory-budget", "4096"]);
    let tiered = run(&["--visited", "tiered", "--memory-budget", "4096"]);
    assert_eq!(alone.status.code(), Some(0));
    assert_eq!(alone.stdout, tiered.stdout);
    let banner = String::from_utf8_lossy(&alone.stdout);
    assert!(
        banner.contains("visited tiered (budget 4096 B)"),
        "{banner}"
    );

    for (extra, first) in [
        (
            &["--visited", "ram", "--memory-budget", "4096"][..],
            "error: --memory-budget does not apply to --visited ram",
        ),
        (
            &["--visited", "probabilistic"],
            "error: unknown visited tier \"probabilistic\" (ram, tiered)",
        ),
    ] {
        let (code, stderr) = nonfifo(&explore(extra));
        assert_eq!(code, Some(1), "{extra:?}: {stderr}");
        assert_eq!(stderr.lines().next(), Some(first), "{extra:?}");
    }
}

/// `--help` and `-h` anywhere, `help` and `help <cmd>` print the usage to
/// stdout and exit 0.
#[test]
fn help_prints_the_usage_and_exits_0() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["help", "explore"],
        &["explore", "--help"],
        &["explore", "seqnum", "-h"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("\nusage:\n  nonfifo simulate"), "{args:?}");
    }
}
