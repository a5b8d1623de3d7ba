//! Property harness for the self-stabilization wing, driven end-to-end
//! through the facade: seeded initial corruption → settle → workload →
//! convergence judgment. Cases run on the workspace PRNG so each is
//! addressable by seed; `PROPTEST_CASES` scales the case count
//! (default 32).

use nonfifo::channel::{CorruptionSeverity, Discipline, FaultPlan, ScramblePlan};
use nonfifo::core::{certify, stabilize_run, SeedVerdict, StabilizeConfig};
use nonfifo::protocols::{NaiveCycle, StabilizingDl};
use nonfifo_rng::StdRng;

mod common;

use common::for_seeds;

/// Cases per property; see [`common::cases`].
fn cases() -> u64 {
    common::cases(32)
}

fn random_severity(rng: &mut StdRng) -> CorruptionSeverity {
    CorruptionSeverity::ALL[rng.gen_range(0..CorruptionSeverity::ALL.len())]
}

#[test]
fn scramble_plans_are_pure_functions_of_severity_and_seed() {
    for_seeds(cases(), |_seed, rng| {
        let severity = random_severity(rng);
        let seed = rng.next_u64();
        let a = ScramblePlan::generate(severity, seed);
        let b = ScramblePlan::generate(severity, seed);
        assert_eq!(a, b, "{severity} plan at seed {seed} is not deterministic");
        assert!(!a.is_empty(), "{severity} plan injects nothing");
        let shifted = ScramblePlan::generate(severity, seed ^ 1);
        assert_ne!(a, shifted, "{severity} plans at adjacent seeds collide");
    });
}

#[test]
fn corrupted_runs_replay_fingerprint_identically_per_seed() {
    for_seeds(cases(), |seed, rng| {
        let cfg = StabilizeConfig {
            severity: random_severity(rng),
            discipline: Discipline::Probabilistic {
                q: 0.1 + 0.1 * rng.gen_range(0..3) as f64,
            },
            ..StabilizeConfig::default()
        };
        let run_seed = rng.next_u64() % 10_000;
        let a = stabilize_run(StabilizingDl::new(), run_seed, &cfg);
        let b = stabilize_run(StabilizingDl::new(), run_seed, &cfg);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "case {seed}: fingerprint does not replay at run seed {run_seed}"
        );
        assert_eq!(
            a.verdict, b.verdict,
            "case {seed}: verdict not deterministic"
        );
        assert_eq!(
            a.corruption_events, b.corruption_events,
            "case {seed}: corrupted prefix length not deterministic"
        );
    });
}

#[test]
fn stabilizing_dl_converges_across_random_scopes() {
    for_seeds(cases(), |seed, rng| {
        let cfg = StabilizeConfig {
            severity: random_severity(rng),
            discipline: Discipline::Probabilistic {
                q: 0.1 + 0.1 * rng.gen_range(0..3) as f64,
            },
            fault_plan: if rng.gen_range(0..2) == 0 {
                Some(FaultPlan::parse("dup 0.1\ndrop 0.05").expect("valid plan"))
            } else {
                None
            },
            ..StabilizeConfig::default()
        };
        let outcome = stabilize_run(StabilizingDl::new(), rng.next_u64() % 10_000, &cfg);
        assert!(
            matches!(outcome.verdict, SeedVerdict::Converged { .. }),
            "case {seed}: stabilizing-dl failed a corrupted start: {}",
            outcome.verdict
        );
    });
}

#[test]
fn convergence_spec_rejects_the_naive_cycle_from_poisoned_states() {
    // The contrast that makes certification meaningful: a FIFO-only label
    // cycle trusts whatever the scramble left in the channel and never
    // recovers on at least one seed.
    let report = certify(|| NaiveCycle::new(3), 16, &StabilizeConfig::default());
    assert!(
        !report.certified(),
        "naive cycle must not certify from corrupted starts: {report}"
    );
    assert!(report.first_failure().is_some());
    assert_eq!(
        report.converged + report.diverged + report.stalled,
        report.seeds
    );
}
