//! `explore --max-states` at the edge of the budget: 0 is a usage error,
//! and a truncation reports exactly the budget on every engine.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

const SCOPE: [&str; 8] = [
    "explore",
    "seqnum",
    "--messages",
    "3",
    "--depth",
    "8",
    "--pool",
    "3",
];

fn explore(extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(BIN).args(SCOPE).args(extra).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_zero_state_budget_is_a_usage_error() {
    for flag in ["--max-states", "--states"] {
        let (code, _, stderr) = explore(&[flag, "0"]);
        assert_eq!(code, Some(1), "{flag} 0");
        assert!(
            stderr.starts_with("error: --max-states must admit at least the root state"),
            "{flag} 0: {stderr}"
        );
    }
}

#[test]
fn truncations_report_the_budget_on_every_engine() {
    for budget in ["1", "2"] {
        for engine in [
            &[][..],
            &["--parallel", "--threads", "1"],
            &["--parallel", "--threads", "2"],
        ] {
            let mut args = vec!["--max-states", budget];
            args.extend_from_slice(engine);
            let (code, stdout, _) = explore(&args);
            assert_eq!(code, Some(3), "{args:?}");
            assert!(
                stdout.contains(&format!(
                    "inconclusive: state budget exhausted after {budget} states"
                )),
                "{args:?}: {stdout}"
            );
        }
    }
}
