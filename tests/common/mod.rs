//! The seeded-case driver shared by the property harnesses. Every case
//! runs on the workspace PRNG, so a failure names a seed that replays it
//! exactly; `PROPTEST_CASES` scales the case count.

// Each test file compiles this module on its own and uses part of it.
#![allow(dead_code)]

use nonfifo_rng::StdRng;

/// Cases per property: `PROPTEST_CASES` if set, else the file's `default`,
/// sized to keep its harness in tier-1 time.
pub fn cases(default: u64) -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `case` once per seed in `0..cases`; a panic names the seed so the
/// failing input replays exactly.
pub fn for_seeds(cases: u64, case: impl Fn(u64, &mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(seed, &mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property failed at seed {seed}; rerun replays it exactly");
            std::panic::resume_unwind(payload);
        }
    }
}
