//! Order statistics and the comparison rule.
//!
//! Quartiles follow the exclusive method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread printed here matches
//! one computed elsewhere from the same values. Tail percentiles are
//! nearest-rank, and only reported where at least ten samples lie beyond
//! them.

/// Median: the middle value, or the mean of the two middle values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// `[q1, median, q3]` by the exclusive method. A single value is all three.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile given in per-mille (900 = p90).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_permille(values: &[f64], permille: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let data = sorted(values);
    let rank = (permille * data.len()).div_ceil(1000).max(1);
    data[rank - 1]
}

/// The tail percentile (per-mille) worth reporting for `n` samples: the
/// highest of p99.9, p99 and p90 that leaves at least ten samples beyond
/// it, or `None` when even p90 would rest on fewer.
pub fn tail_permille(n: usize) -> Option<usize> {
    [999, 990, 900]
        .into_iter()
        .find(|&pm| n - (pm * n).div_ceil(1000) >= 10)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

/// What a comparison of two sets of runs concludes about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine pairs in ten, by more than the
    /// parent's own spread.
    Improved,
    /// The median paired change is no worse than the bound.
    NoWorse,
    /// The median paired change is worse than the bound (or, for a metric
    /// without a bound, the change loses decisively).
    Regressed,
    /// The runs cannot tell: the paired changes spread wider than the
    /// bound, or a metric without a bound moved by less than its spread.
    Unresolved,
}

impl Verdict {
    /// Lower-case label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The outcome of comparing one metric between a parent and a change.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Quartiles of the paired relative change `change_i / parent_i - 1`,
    /// signed so that a positive value is better.
    pub paired: [f64; 3],
    /// Share of pairs (run i of each side) the change won; ties count for
    /// neither side.
    pub win_fraction: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Compares paired runs of one metric: run i of each side ran back to
/// back, so a drift in the machine's speed moves both runs of a pair and
/// cancels in their ratio. `bound` is the share of the parent's value by
/// which the metric may worsen (`None` for per-layer metrics, which have no
/// bound). Runs beyond the shorter side are left out.
///
/// # Panics
///
/// Panics when either side has no runs.
pub fn compare(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> Comparison {
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let p = quartiles(parent);
    let c = quartiles(change);
    let paired = quartiles(
        &parent
            .iter()
            .zip(change)
            .map(|(&p, &c)| {
                let relative = c / p - 1.0;
                if higher_is_better {
                    relative
                } else {
                    -relative
                }
            })
            .collect::<Vec<_>>(),
    );
    let parent_iqr = p[2] - p[0];
    // Positive when the change's median is better.
    let gain = if higher_is_better {
        c[1] - p[1]
    } else {
        p[1] - c[1]
    };
    let decisive = |count: usize| count * 10 >= pairs * 9;
    let verdict = if decisive(wins) && gain > parent_iqr {
        Verdict::Improved
    } else if let Some(bound) = bound {
        let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
        if paired[2] - paired[0] > bound {
            if all_better {
                Verdict::NoWorse
            } else {
                Verdict::Unresolved
            }
        } else if -paired[1] > bound {
            Verdict::Regressed
        } else {
            Verdict::NoWorse
        }
    } else if decisive(losses) && -gain > parent_iqr {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    };
    Comparison {
        parent: p,
        change: c,
        paired,
        win_fraction: wins as f64 / pairs as f64,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.0]), 7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert!(
            close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 3.0),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]);
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(percentile_permille(&hundred, 900), 90.0));
        assert!(close(percentile_permille(&hundred, 500), 50.0));
        assert!(close(percentile_permille(&[5.0], 900), 5.0));
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_permille(3), None);
        assert_eq!(tail_permille(99), None);
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn compare_verdicts_follow_the_pairing_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        // A clear, paired win on a higher-is-better metric.
        let faster: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let c = compare(&parent, &faster, true, Some(0.1));
        assert_eq!(c.verdict, Verdict::Improved);
        assert!(close(c.win_fraction, 1.0));
        // Within the bound either way: no worse.
        let same: Vec<f64> = parent.iter().map(|x| x * 0.97).collect();
        assert_eq!(
            compare(&parent, &same, true, Some(0.1)).verdict,
            Verdict::NoWorse
        );
        // Beyond the bound: regressed.
        let slower: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            compare(&parent, &slower, true, Some(0.1)).verdict,
            Verdict::Regressed
        );
        // Lower-is-better flips the direction.
        assert_eq!(
            compare(&parent, &faster, false, Some(0.1)).verdict,
            Verdict::Regressed
        );
        // Paired changes spread wider than the bound: unresolved.
        let noisy: Vec<f64> = parent
            .iter()
            .enumerate()
            .map(|(i, x)| if i % 2 == 0 { x * 0.5 } else { x * 1.5 })
            .collect();
        let c = compare(&parent, &noisy, true, Some(0.1));
        assert_eq!(c.verdict, Verdict::Unresolved);
        assert!(close(c.paired[2] - c.paired[0], 1.0), "{:?}", c.paired);
        // No bound (a per-layer metric): unresolved unless decisive.
        let nudged: Vec<f64> = parent.iter().map(|x| x * 0.999).collect();
        assert_eq!(
            compare(&parent, &nudged, true, None).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            compare(&parent, &slower, true, None).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_cancels_drift_shared_by_a_pair() {
        // The machine's speed swings by ±35% between pairs; within a pair
        // both sides see the same speed.
        let speed = [1.0, 1.3, 0.7, 1.2, 0.8, 1.35, 0.75, 1.1, 0.9, 1.25];
        let parent: Vec<f64> = speed.iter().map(|s| 2.0 * s).collect();
        let jitter = [1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01, 0.99];
        let same: Vec<f64> = parent.iter().zip(jitter).map(|(p, j)| p * j).collect();
        // Each side alone spreads far wider than the bound, yet a commit
        // compared with itself is no worse.
        let c = compare(&parent, &same, false, Some(0.25));
        assert!((c.parent[2] - c.parent[0]) / c.parent[1] > 0.25);
        assert_eq!(c.verdict, Verdict::NoWorse);
        // A 30% slowdown in every pair shows through the same drift.
        let slower: Vec<f64> = same.iter().map(|x| x * 1.3).collect();
        let c = compare(&parent, &slower, false, Some(0.25));
        assert!(close(c.paired[1], -0.3), "{:?}", c.paired);
        assert_eq!(c.verdict, Verdict::Regressed);
    }
}
