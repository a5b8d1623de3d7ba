//! A reader that closes stdout early (`nonfifo ... | head -1`) silences the
//! rest of the output: the command must not panic with "failed printing to
//! stdout", and it still exits with its usual code.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

/// Runs `args`, reads the first stdout line like `head -1`, closes the pipe,
/// and returns the exit code and everything written to stderr.
fn head_1(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty(), "{args:?} printed nothing");
    // The reader (and with it the pipe's read end) is dropped here.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    (child.wait().unwrap().code(), stderr)
}

#[test]
fn output_larger_than_the_pipe_stops_quietly() {
    // 400 delivered messages render a diagram of about 160 KiB: more than
    // a pipe buffers, so the writer meets the closed pipe whatever the
    // timing.
    let attack = std::env::temp_dir().join(format!("nonfifo-closed-stdout-{}", std::process::id()));
    std::fs::write(&attack, "send\ndeliver-all\n".repeat(400)).unwrap();
    let path = attack.to_string_lossy().into_owned();
    let (code, stderr) = head_1(&["schedule", "seqnum", &path, "--diagram"]);
    std::fs::remove_file(&attack).ok();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn explore_keeps_its_exit_code_after_the_reader_leaves() {
    let (code, stderr) = head_1(&[
        "explore",
        "seqnum",
        "--messages",
        "3",
        "--depth",
        "8",
        "--pool",
        "3",
    ]);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
