//! `nonfifo report` regenerates the `EXPERIMENTS.md` tables under their
//! titles, and `nonfifo recheck` re-validates a dumped trace against the
//! layer specifications.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

fn nonfifo(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{args:?}: {stdout}");
    stdout
}

#[test]
fn report_prints_the_preamble_and_the_experiment_title() {
    let stdout = nonfifo(&["report", "--exp", "e3"]);
    assert!(
        stdout.starts_with("# nonfifo experiment report\n"),
        "{stdout}"
    );
    assert!(stdout.contains("Seed 20260705."), "{stdout}");
    assert!(
        stdout.contains("\n## E3 — Theorem 3.1 contrapositive: the naive n-header protocol\n"),
        "{stdout}"
    );
}

/// A trace the inductive falsifier dumps breaks DL1 while every channel
/// behaved legally, and `recheck` says so line by line.
#[test]
fn recheck_reports_each_layer_of_a_dumped_attack() {
    let path = std::env::temp_dir()
        .join(format!("nonfifo-recheck-{}.txt", std::process::id()))
        .to_string_lossy()
        .into_owned();
    nonfifo(&["attack", "cycle3", "mf", "--dump", &path]);
    let stdout = nonfifo(&["recheck", &path]);
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = stdout.lines().collect();
    for dir in ["t→r", "r→t"] {
        assert!(
            lines.contains(&format!("PL1 [{dir}]: ok").as_str()),
            "{stdout}"
        );
    }
    assert!(
        lines.iter().any(|l| l.starts_with("DL1: VIOLATED")),
        "{stdout}"
    );
}
