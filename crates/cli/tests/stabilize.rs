//! `nonfifo stabilize` end to end: the stabilizing protocol certifies
//! every corrupted start at every severity, and a protocol that cannot
//! converge gets the convergence exit code.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

fn stabilize(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(["stabilize", "--protocol"])
        .args(args)
        .output()
        .unwrap()
}

/// The default sweep certifies 1000 corrupted starts. The light, medium
/// and heavy scrambles must each certify 256 seeds; the property harness
/// checks fewer seeds per severity.
#[test]
fn the_stabilizing_protocol_certifies_every_start_at_every_severity() {
    let out = stabilize(&["stabilizing-dl"]);
    assert_eq!(out.status.code(), Some(0));
    for severity in ["light", "medium", "heavy"] {
        let out = stabilize(&["stabilizing-dl", "--seeds", "256", "--severity", severity]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{severity}: {stdout}");
        assert!(
            stdout.contains("result : 256/256 converged"),
            "{severity}: {stdout}"
        );
    }
}

/// A certifier that passes everything certifies nothing: the FIFO-only
/// label cycle must fail with the convergence exit code, not a usage error
/// or a crash.
#[test]
fn the_naive_cycle_fails_to_converge_with_exit_5() {
    let out = stabilize(&["cycle3", "--seeds", "64"]);
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
