//! `explore` accepts only the options it reads: a typo or a retired
//! option is a usage error naming it, never silently ignored.

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

fn explore(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(BIN).args(SCOPE).args(extra).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unread_options_are_usage_errors_that_name_them() {
    for (extra, named) in [
        (&["--bogus", "1"][..], &["--bogus"][..]),
        (
            &["--visited", "tiered", "--memory-budjet", "4096"],
            &["--memory-budjet"],
        ),
        (
            &["--bogus", "1", "--threadz", "2", "--visited", "tiered"],
            &["--bogus", "--threadz"],
        ),
        (&["--seed", "3"], &["--seed"]),
        (&["--diagram"], &["--diagram"]),
    ] {
        let (code, stderr) = explore(extra);
        assert_eq!(code, Some(1), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: unknown option"),
            "{extra:?}: {first}"
        );
        for name in named {
            assert!(first.contains(name), "{extra:?} must name {name}: {first}");
        }
    }
    // Every option the rest of the toolchain passes to `explore` parses.
    let metrics =
        std::env::temp_dir().join(format!("nonfifo-explore-opts-{}.json", std::process::id()));
    let metrics = metrics.to_string_lossy().into_owned();
    let (code, stderr) = explore(&[
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
    ]);
    std::fs::remove_file(&metrics).ok();
    assert_eq!(code, Some(0), "{stderr}");
}
