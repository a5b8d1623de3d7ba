//! `benchmark compare PARENT.jsonl CHANGE.jsonl`: reads two results files
//! written with `--out` (one line per run, run i of each file forming a
//! pair) and prints, per workload and metric, both sides' quartiles, the
//! quartiles of the paired relative change, the change's win fraction and a
//! verdict.

use crate::stats::{compare, Verdict};
use crate::{END_TO_END, PER_LAYER};
use nonfifo_telemetry::Json;
use std::collections::BTreeMap;

/// Fewest runs per side a comparison accepts.
const MIN_RUNS: usize = 10;

/// One run: workload → (failed operations, metric → value).
type Run = BTreeMap<String, (u64, BTreeMap<String, f64>)>;

/// Parses a results file: one JSON object per non-empty line.
pub fn parse_results(text: &str) -> Result<Vec<Run>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let workloads = doc
                .get("workloads")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("line {}: no workloads object", i + 1))?;
            workloads
                .iter()
                .map(|(name, w)| {
                    let failed = w.get("failed").and_then(Json::as_u64).unwrap_or(0);
                    let metrics = w
                        .get("metrics")
                        .and_then(Json::as_obj)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|(m, v)| Some((m.clone(), v.get("value")?.as_f64()?)))
                        .collect();
                    Ok((name.clone(), (failed, metrics)))
                })
                .collect()
        })
        .collect()
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let runs = parse_results(&text).map_err(|e| format!("{path}: {e}"))?;
    if runs.len() < MIN_RUNS {
        return Err(format!(
            "{path} holds {} runs; a comparison needs at least {MIN_RUNS} alternating pairs",
            runs.len()
        ));
    }
    Ok(runs)
}

/// One metric's values across runs, in run order.
fn series(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get(workload)?.1.get(metric).copied())
        .collect()
}

/// The comparison table for every workload both sides measured.
pub fn report(parent: &[Run], change: &[Run]) -> String {
    let mut out = String::new();
    let workloads: Vec<&String> =
        parent
            .iter()
            .flat_map(|r| r.keys())
            .fold(Vec::new(), |mut seen, w| {
                if !seen.contains(&w) {
                    seen.push(w);
                }
                seen
            });
    for workload in workloads {
        let measured = |runs: &[Run]| runs.iter().filter(|r| r.contains_key(workload)).count();
        let failed = |runs: &[Run]| -> u64 {
            runs.iter()
                .filter_map(|r| r.get(workload))
                .map(|w| w.0)
                .sum()
        };
        out.push_str(&format!(
            "{workload}: parent {} run(s), {} failed op(s); change {} run(s), {} failed op(s)\n",
            measured(parent),
            failed(parent),
            measured(change),
            failed(change)
        ));
        out.push_str(&format!(
            "  {:<36} {:>38} {:>38} {:>24} {:>5}  verdict\n",
            "metric",
            "parent q1 / median / q3",
            "change q1 / median / q3",
            "paired gain % q1/med/q3",
            "wins"
        ));
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (p, c) = (
                series(parent, workload, def.name),
                series(change, workload, def.name),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let cmp = compare(&p, &c, def.higher_is_better, def.bound);
            let q = |x: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", x[0], x[1], x[2]);
            let pct = |x: [f64; 3]| {
                format!(
                    "{:+.1} / {:+.1} / {:+.1}",
                    x[0] * 100.0,
                    x[1] * 100.0,
                    x[2] * 100.0
                )
            };
            // A gain does not count when the change fails more operations.
            let verdict = match cmp.verdict {
                Verdict::Improved if failed(change) > failed(parent) => Verdict::Unresolved,
                v => v,
            };
            out.push_str(&format!(
                "  {:<36} {:>38} {:>38} {:>24} {:>5.2}  {}\n",
                format!("{} ({})", def.name, def.unit),
                q(cmp.parent),
                q(cmp.change),
                pct(cmp.paired),
                cmp.win_fraction,
                verdict.label()
            ));
        }
    }
    out
}

pub fn run(args: &[String]) -> Result<(), String> {
    let [parent, change] = args else {
        return Err("compare takes a parent and a change results file".to_string());
    };
    print!("{}", report(&load(parent)?, &load(change)?));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(latency_s: f64, failed: u64) -> String {
        format!(
            "{{\"schema\":1,\"workloads\":{{\"explore-wide\":{{\"correct\":true,\"attempted\":4,\
             \"failed\":{failed},\"metrics\":{{\"latency_s.p50\":{{\"value\":{latency_s},\
             \"unit\":\"s\",\"n\":3}}}}}}}}}}"
        )
    }

    #[test]
    fn results_lines_parse() {
        let runs = parse_results(&format!("{}\n\n{}\n", line(1.0, 0), line(1.015, 1))).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1]["explore-wide"].0, 1);
        assert_eq!(runs[1]["explore-wide"].1["latency_s.p50"], 1.015);
        assert!(parse_results("{\"schema\":1}").is_err());
        assert!(parse_results("not json").is_err());
    }

    #[test]
    fn report_gives_a_verdict_per_workload_and_metric() {
        let parent = parse_results(
            &(0..10)
                .map(|i| line(1.0 + f64::from(i % 2) / 100.0, 0))
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        let faster = parse_results(
            &(0..10)
                .map(|i| line(0.7 + f64::from(i % 2) / 100.0, 0))
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        let table = report(&parent, &faster);
        assert!(table.contains("explore-wide"), "{table}");
        assert!(table.contains("latency_s.p50 (s)"), "{table}");
        assert!(table.trim_end().ends_with("improved"), "{table}");
        // The same gain with more failed operations is not a gain.
        let failing = parse_results(
            &(0..10)
                .map(|i| line(0.7 + f64::from(i % 2) / 100.0, 1))
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        assert!(report(&parent, &failing).trim_end().ends_with("unresolved"));
        assert!(report(&parent, &parent).trim_end().ends_with("no-worse"));
    }
}
