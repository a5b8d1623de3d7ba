//! Campaign plans generated from the benchmark seed. The seed moves only
//! the run seeds inside each cell, so every seed gives the same cell mix
//! and nearly the same cost, and the same seed always gives the same text.

use nonfifo_rng::StdRng;
use std::fmt::Write as _;
use std::ops::Range;

/// Submissions the served workload sends to one daemon.
pub const SUBMISSIONS: usize = 100;
/// Runs in one submission; half of them are in the history cache.
pub const RUNS_PER_SUBMISSION: usize = 82;
/// Served cells: protocol, discipline, messages. All of them deliver, so a
/// served report never carries a failure.
const SERVED_CELLS: [(&str, &str, u64); 5] = [
    ("seqnum", "prob:0.2", 100),
    ("window4", "prob:0.5", 100),
    ("gbn4", "lossy:0.2", 100),
    ("srej4", "fifo", 100),
    ("seqnum", "reorder:4", 100),
];
/// Runs per served cell in each half of a submission (sums to 41).
const HALF_SPLIT: [u64; 5] = [8, 8, 8, 8, 9];
/// Seeds per served cell in the history cache (5 × 130 = 650 runs).
const HISTORY_SEEDS: u64 = 130;

/// A seed-derived base for run seeds, distinct per `salt`.
fn base(seed: u64, salt: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ salt).next_u64() >> 34
}

fn push_cell(out: &mut String, name: &str, cell: (&str, &str, u64), seeds: Range<u64>) {
    let (protocol, discipline, messages) = cell;
    let _ = write!(
        out,
        "\nscenario {name}\nprotocols {protocol}\ndisciplines {discipline}\n\
         messages {messages}\nseeds {}..{}\n",
        seeds.start, seeds.end
    );
}

/// The campaign-batch plan, 1,818 runs (one process takes 1-1.5 s on the
/// baseline machine, so a 10 s run holds about eight): five protocols ×
/// five channels × two lengths, outnumber5 growth cells whose cost grows
/// exponentially with the message count (18 runs that cost as much as the
/// 1,600 cell runs), and corrupted stabilizing-dl starts under a chaos
/// rider. Bounded-header protocols fall on the reorder channel, so the
/// campaign reports violations by design.
pub fn batch_plan(seed: u64) -> String {
    let b = base(seed, 0xba7c);
    format!(
        "schema_version 1\n\
         # campaign-batch, benchmark seed {seed}\n\
         scenario cells\n\
         protocols abp seqnum window4 gbn4 srej4\n\
         disciplines fifo prob:0.2 prob:0.5 lossy:0.2 reorder:4\n\
         messages 100 400\n\
         seeds {b}..{}\n\
         \n\
         scenario growth\n\
         protocols outnumber5\n\
         disciplines prob:0.1 prob:0.3 prob:0.5\n\
         messages 8 12 16\n\
         seeds {b}..{}\n\
         budget 5000000\n\
         \n\
         scenario stabilize-chaos\n\
         protocols stabilizing-dl\n\
         disciplines prob:0.2 prob:0.4\n\
         messages 4\n\
         seeds {b}..{}\n\
         corruption heavy\n\
         fault dup 0.1\n\
         fault drop 0.05\n",
        b + 32,
        b + 2,
        b + 100,
    )
}

/// The plan whose batch run writes the served workload's history cache.
pub fn history_plan(seed: u64) -> String {
    let h = base(seed, 0x5e7e);
    let mut out = format!("schema_version 1\n# served history, benchmark seed {seed}\n");
    for (j, cell) in SERVED_CELLS.into_iter().enumerate() {
        push_cell(&mut out, &format!("hist-{j}"), cell, h..h + HISTORY_SEEDS);
    }
    out
}

/// Submission `i` of the served workload: per cell, a seed window inside
/// the history (cached) and a window no earlier submission used (fresh).
pub fn submission_plan(seed: u64, i: usize) -> String {
    let h = base(seed, 0x5e7e);
    let mut rng = StdRng::seed_from_u64(base(seed, 0x50b) ^ i as u64);
    let mut out = format!("schema_version 1\n# served submission {i}, benchmark seed {seed}\n");
    for (j, (cell, len)) in SERVED_CELLS.into_iter().zip(HALF_SPLIT).enumerate() {
        let offset = rng.gen_range(0..(HISTORY_SEEDS - len + 1) as usize) as u64;
        push_cell(
            &mut out,
            &format!("hist-{j}"),
            cell,
            h + offset..h + offset + len,
        );
        let fresh = h + HISTORY_SEEDS + 16 * i as u64;
        push_cell(&mut out, &format!("new-{j}"), cell, fresh..fresh + len);
    }
    out
}

/// A one-run plan: what `campaign` costs before it simulates anything.
pub fn setup_plan() -> &'static str {
    "scenario setup\nprotocols seqnum\ndisciplines fifo\nmessages 1\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_campaign::CampaignPlan;
    use std::collections::HashSet;

    fn fingerprints(plan: &str) -> Vec<u64> {
        CampaignPlan::parse(plan)
            .expect("generated plans parse")
            .expand()
            .iter()
            .map(|r| r.fingerprint())
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_text() {
        assert_eq!(batch_plan(7), batch_plan(7));
        assert_eq!(history_plan(7), history_plan(7));
        assert_eq!(submission_plan(7, 3), submission_plan(7, 3));
        assert_ne!(batch_plan(7), batch_plan(8));
        assert_ne!(submission_plan(7, 3), submission_plan(8, 3));
    }

    #[test]
    fn batch_plan_has_1818_runs() {
        assert_eq!(fingerprints(&batch_plan(1)).len(), 1_818);
        assert_eq!(fingerprints(setup_plan()).len(), 1);
    }

    #[test]
    fn served_overlap_is_exactly_half_and_fresh_runs_never_repeat() {
        for seed in [1, 2] {
            let history: HashSet<u64> = fingerprints(&history_plan(seed)).into_iter().collect();
            assert_eq!(history.len(), 650);
            let mut fresh_seen = HashSet::new();
            for i in 0..SUBMISSIONS {
                let runs = fingerprints(&submission_plan(seed, i));
                assert_eq!(runs.len(), RUNS_PER_SUBMISSION);
                let cached = runs.iter().filter(|f| history.contains(f)).count();
                assert_eq!(cached * 2, runs.len(), "seed {seed} submission {i}");
                for f in runs.iter().filter(|f| !history.contains(f)) {
                    assert!(fresh_seen.insert(*f), "seed {seed}: fresh run repeats");
                }
            }
        }
    }
}
