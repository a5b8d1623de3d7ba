//! Mutation harness for the campaign plan DSL.
//!
//! The shipped plans under `campaigns/` are mutated on the workspace PRNG
//! — byte flips, truncations, line splices across the corpus, and
//! integers grown to 20 digits, one to three mutations a case — and each
//! mutant is handed to [`CampaignPlan::parse`]. It must never panic, and
//! every error it returns must name a line of the text: between 1 and the
//! text's line count (line 1 for a text with no lines, where "no
//! scenario" is reported). Every case is addressable by seed;
//! `PROPTEST_CASES` scales the case count, and no fuzz crate is needed.

use nonfifo::campaign::CampaignPlan;
use nonfifo_rng::StdRng;

mod common;

use common::for_seeds;

/// The shipped plans, in file-name order.
fn corpus() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/campaigns");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "campaign"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "the shipped plans are missing: {paths:?}");
    paths
        .iter()
        .map(|path| std::fs::read_to_string(path).unwrap())
        .collect()
}

/// Integers no count or seed field holds: 20 digits, around and past
/// `u64::MAX`.
const HUGE: [&str; 4] = [
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "10000000000000000000",
];

/// Applies one mutation to `text`, drawing from `corpus` for splices.
fn mutate(text: &str, corpus: &[String], rng: &mut StdRng) -> String {
    let bytes = text.as_bytes();
    match rng.gen_range(0..4) {
        // Flip one byte to an arbitrary value; invalid UTF-8 is replaced,
        // as a reader of untrusted text would.
        0 if !bytes.is_empty() => {
            let mut flipped = bytes.to_vec();
            let at = rng.gen_range(0..flipped.len());
            flipped[at] = rng.next_u64() as u8;
            String::from_utf8_lossy(&flipped).into_owned()
        }
        // Cut the text at an arbitrary byte.
        1 => String::from_utf8_lossy(&bytes[..rng.gen_range(0..bytes.len() + 1)]).into_owned(),
        // Splice: a line of some plan lands at an arbitrary line of this
        // one, in place of it or beside it.
        2 => {
            let mut lines: Vec<&str> = text.lines().collect();
            let donor: Vec<&str> = corpus[rng.gen_range(0..corpus.len())].lines().collect();
            let line = donor[rng.gen_range(0..donor.len())];
            let at = rng.gen_range(0..lines.len() + 1);
            if at < lines.len() && rng.gen_bool(0.5) {
                lines[at] = line;
            } else {
                lines.insert(at, line);
            }
            lines.join("\n")
        }
        // Grow one run of digits to 20 digits, or append a 20-digit seed
        // range or count to the text.
        _ => {
            let huge = HUGE[rng.gen_range(0..HUGE.len())];
            let digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .collect();
            if digits.is_empty() || rng.gen_bool(0.25) {
                let directive = [
                    "seeds 0..",
                    "seeds ",
                    "messages ",
                    "budget ",
                    "schema_version ",
                ][rng.gen_range(0..5)];
                format!("{text}\n{directive}{huge}\n")
            } else {
                let start = digits[rng.gen_range(0..digits.len())];
                let end = (start..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                format!("{}{huge}{}", &text[..start], &text[end..])
            }
        }
    }
}

#[test]
fn mutated_plans_never_panic_and_every_error_names_a_line() {
    let corpus = corpus();
    for text in &corpus {
        CampaignPlan::parse(text).expect("a shipped plan parses");
    }
    for_seeds(common::cases(3000), |seed, rng| {
        let mut text = corpus[rng.gen_range(0..corpus.len())].clone();
        for _ in 0..1 + rng.gen_range(0..3) {
            text = mutate(&text, &corpus, rng);
        }
        if let Err(e) = CampaignPlan::parse(&text) {
            let lines = text.lines().count().max(1);
            assert!(
                (1..=lines).contains(&e.line),
                "seed {seed}: error at line {} of a {lines}-line text: {e}\n{text}",
                e.line
            );
        }
    });
}
