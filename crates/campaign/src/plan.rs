//! The campaign plan text format: scenarios as data, in the same lenient
//! line-oriented style as the fault-plan DSL.
//!
//! One directive per line, `#` comments and blank lines ignored:
//!
//! ```text
//! # T5.1 growth, as a campaign
//! schema_version 1       # optional; plans without it parse as v1
//! scenario growth
//! protocols outnumber5 seqnum
//! disciplines prob:0.1 prob:0.3 prob:0.5
//! messages 10 20 40
//! seeds 0..5
//! budget 5000000
//! corruption medium      # optional; start every run from a seeded scramble
//! fault dup 0.1          # optional; verbs are the fault-plan DSL's
//! ```
//!
//! Every `scenario NAME` line opens a new scenario; the axis directives
//! that follow belong to it. Protocol names are resolved against the
//! catalog *at parse time*, so a typo is a line-numbered parse error, not
//! a mid-campaign panic.
//!
//! The plan format is versioned with the same forward-compatibility
//! contract as the campaign cache and the metrics snapshot: an optional
//! `schema_version N` directive (before the first scenario) declares the
//! format the file was written against, versions newer than
//! [`PLAN_SCHEMA_VERSION`] are rejected with a line-numbered error, and
//! unversioned files keep parsing as v1.

use crate::spec::{RunSpec, ScenarioSpec};
use nonfifo_channel::{CorruptionSeverity, Discipline, FaultPlan, SeverityError};
use nonfifo_core::NonFifoError;
use nonfifo_protocols::catalog;
use std::error::Error;
use std::fmt;

/// The newest plan-file schema this build reads (and the version written
/// into new plans). Bump when a directive changes meaning; the parser
/// keeps accepting every older version.
pub const PLAN_SCHEMA_VERSION: u64 = 1;

/// The most runs one plan may expand to: 2^20, far above any shipped or
/// benchmarked plan (the largest holds a few thousand). Plans are counted
/// from their axis lengths before anything is expanded, so a `seeds`
/// range of billions is a line-numbered error, not an allocation.
pub const MAX_PLAN_RUNS: u64 = 1 << 20;

/// A parsed campaign plan: an ordered list of scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// The schema version the plan file declared (1 when it declared none).
    pub schema_version: u64,
    /// Scenarios in declaration order.
    pub scenarios: Vec<ScenarioSpec>,
}

/// A campaign-plan parse failure: the line it happened on and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlanError {
    /// 1-based line number in the plan text.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for CampaignPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign plan line {}: {}", self.line, self.message)
    }
}

impl Error for CampaignPlanError {}

impl From<CampaignPlanError> for NonFifoError {
    fn from(e: CampaignPlanError) -> Self {
        NonFifoError::Usage(e.to_string())
    }
}

fn err(line: usize, message: impl Into<String>) -> CampaignPlanError {
    CampaignPlanError {
        line,
        message: message.into(),
    }
}

/// A scenario being accumulated, with the bookkeeping needed for
/// line-accurate errors on directives that are validated late.
struct Draft {
    opened_at: usize,
    spec: ScenarioSpec,
    /// Fault directives as `(plan line, directive text)`; joined and parsed
    /// when the scenario closes so the fault-plan DSL stays authoritative.
    fault_lines: Vec<(usize, String)>,
}

impl Draft {
    /// Checks the scenario and adds its runs to `planned`, the runs of
    /// the scenarios before it.
    fn finish(self, planned: &mut u64) -> Result<ScenarioSpec, CampaignPlanError> {
        let mut spec = self.spec;
        for (axis, empty) in [
            ("protocols", spec.protocols.is_empty()),
            ("disciplines", spec.disciplines.is_empty()),
            ("messages", spec.message_counts.is_empty()),
        ] {
            if empty {
                return Err(err(
                    self.opened_at,
                    format!("scenario {:?} declares no {axis}", spec.name),
                ));
            }
        }
        *planned = spec
            .run_count()
            .and_then(|runs| planned.checked_add(runs))
            .filter(|&runs| runs <= MAX_PLAN_RUNS)
            .ok_or_else(|| {
                err(
                    self.opened_at,
                    format!(
                        "scenario {:?} takes the plan past {MAX_PLAN_RUNS} runs",
                        spec.name
                    ),
                )
            })?;
        if !self.fault_lines.is_empty() {
            let text: Vec<&str> = self.fault_lines.iter().map(|(_, t)| t.as_str()).collect();
            let plan = FaultPlan::parse(&text.join("\n")).map_err(|e| {
                // Map the fault-plan DSL's line back to the campaign file's.
                let line = self.fault_lines[e.line - 1].0;
                err(line, e.message)
            })?;
            spec.fault_plan = Some(plan);
        }
        Ok(spec)
    }
}

impl CampaignPlan {
    /// Parses the plan text format.
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignPlanError`] naming the offending line: unknown
    /// directives, directives before any `scenario` line, unknown protocol
    /// or discipline spellings, malformed numbers or seed ranges, duplicate
    /// scenario names, scenarios with an empty axis, plans with no
    /// scenario at all, and plans of more than [`MAX_PLAN_RUNS`] runs.
    pub fn parse(text: &str) -> Result<CampaignPlan, CampaignPlanError> {
        let mut scenarios: Vec<ScenarioSpec> = Vec::new();
        let mut draft: Option<Draft> = None;
        let mut schema_version: Option<u64> = None;
        let mut planned = 0u64;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut words = content.split_whitespace();
            let verb = words.next().expect("non-empty line has a first word");
            let args: Vec<&str> = words.collect();
            if verb == "schema_version" {
                let [v] = args[..] else {
                    return Err(err(line, "schema_version takes exactly one number"));
                };
                if schema_version.is_some() {
                    return Err(err(line, "duplicate schema_version directive"));
                }
                if draft.is_some() || !scenarios.is_empty() {
                    return Err(err(
                        line,
                        "schema_version must appear before the first scenario",
                    ));
                }
                let v: u64 = v
                    .parse()
                    .map_err(|_| err(line, format!("schema_version: cannot parse {v:?}")))?;
                if v == 0 || v > PLAN_SCHEMA_VERSION {
                    return Err(err(
                        line,
                        format!(
                            "unsupported schema_version {v} (this build reads \
                             ≤ {PLAN_SCHEMA_VERSION})"
                        ),
                    ));
                }
                schema_version = Some(v);
                continue;
            }
            if verb == "scenario" {
                let [name] = args[..] else {
                    return Err(err(line, "scenario takes exactly one name"));
                };
                let taken = scenarios.iter().map(|s| s.name.as_str());
                if taken
                    .chain(draft.iter().map(|d| d.spec.name.as_str()))
                    .any(|n| n == name)
                {
                    return Err(err(line, format!("duplicate scenario name {name:?}")));
                }
                if let Some(done) = draft.take() {
                    scenarios.push(done.finish(&mut planned)?);
                }
                draft = Some(Draft {
                    opened_at: line,
                    spec: ScenarioSpec::new(name),
                    fault_lines: Vec::new(),
                });
                continue;
            }
            let Some(d) = draft.as_mut() else {
                return Err(err(line, format!("`{verb}` before any `scenario` line")));
            };
            match verb {
                "protocols" | "protocol" => {
                    if args.is_empty() {
                        return Err(err(line, "protocols needs at least one name"));
                    }
                    for name in &args {
                        catalog::by_name(name).map_err(|e| err(line, e.to_string()))?;
                        d.spec.protocols.push((*name).to_string());
                    }
                }
                "disciplines" | "discipline" => {
                    if args.is_empty() {
                        return Err(err(line, "disciplines needs at least one spelling"));
                    }
                    for spelling in &args {
                        let parsed: Discipline = spelling
                            .parse()
                            .map_err(|e: nonfifo_channel::DisciplineError| err(line, e.0))?;
                        d.spec.disciplines.push(parsed);
                    }
                }
                "messages" => {
                    if args.is_empty() {
                        return Err(err(line, "messages needs at least one count"));
                    }
                    for n in &args {
                        let n: u64 = n
                            .parse()
                            .map_err(|_| err(line, format!("messages: cannot parse {n:?}")))?;
                        if n == 0 {
                            return Err(err(line, "messages must be at least 1"));
                        }
                        d.spec.message_counts.push(n);
                    }
                }
                "seeds" => {
                    let [range] = args[..] else {
                        return Err(err(line, "seeds takes one value: `A..B` or a single seed"));
                    };
                    d.spec.seeds = parse_seeds(line, range)?;
                }
                "budget" => {
                    let [n] = args[..] else {
                        return Err(err(line, "budget takes one step count"));
                    };
                    let n: u64 = n
                        .parse()
                        .map_err(|_| err(line, format!("budget: cannot parse {n:?}")))?;
                    if n == 0 {
                        return Err(err(line, "budget must be at least 1"));
                    }
                    d.spec.budget = Some(n);
                }
                "payloads" => {
                    if !args.is_empty() {
                        return Err(err(line, "payloads takes no arguments"));
                    }
                    d.spec.payloads = true;
                }
                "corruption" => {
                    let [severity] = args[..] else {
                        return Err(err(
                            line,
                            "corruption takes one severity: light, medium, or heavy",
                        ));
                    };
                    let parsed: CorruptionSeverity = severity
                        .parse()
                        .map_err(|e: SeverityError| err(line, e.to_string()))?;
                    d.spec.corruption = Some(parsed);
                }
                "fault" => {
                    if args.is_empty() {
                        return Err(err(line, "fault needs a fault-plan directive"));
                    }
                    d.fault_lines.push((line, args.join(" ")));
                }
                other => {
                    return Err(err(
                        line,
                        format!(
                            "unknown directive `{other}` (expected schema_version, scenario, \
                             protocols, disciplines, messages, seeds, budget, payloads, \
                             corruption, or fault)"
                        ),
                    ))
                }
            }
        }
        if let Some(done) = draft.take() {
            scenarios.push(done.finish(&mut planned)?);
        }
        if scenarios.is_empty() {
            return Err(err(1, "plan declares no scenario"));
        }
        Ok(CampaignPlan {
            schema_version: schema_version.unwrap_or(1),
            scenarios,
        })
    }

    /// Expands every scenario, concatenated in declaration order.
    pub fn expand(&self) -> Vec<RunSpec> {
        self.scenarios
            .iter()
            .flat_map(ScenarioSpec::expand)
            .collect()
    }
}

fn parse_seeds(line: usize, text: &str) -> Result<std::ops::Range<u64>, CampaignPlanError> {
    if let Some((a, b)) = text.split_once("..") {
        let start: u64 = a
            .parse()
            .map_err(|_| err(line, format!("seeds: cannot parse {a:?}")))?;
        let end: u64 = b
            .parse()
            .map_err(|_| err(line, format!("seeds: cannot parse {b:?}")))?;
        if start >= end {
            return Err(err(line, format!("seeds: empty range {start}..{end}")));
        }
        Ok(start..end)
    } else {
        let seed: u64 = text
            .parse()
            .map_err(|_| err(line, format!("seeds: cannot parse {text:?}")))?;
        let end = seed.checked_add(1).ok_or_else(|| {
            err(
                line,
                format!("seeds: {seed} is past the largest seed, {}", u64::MAX - 1),
            )
        })?;
        Ok(seed..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = "\
# a smoke matrix
scenario smoke
protocols abp seqnum
disciplines fifo prob:0.3
messages 5 10
seeds 0..2

scenario chaos
protocols window4
disciplines fifo
messages 8
seeds 7
corruption medium
fault dup 0.1
fault drop 0.05
";

    #[test]
    fn parses_scenarios_and_expands_in_order() {
        let plan = CampaignPlan::parse(PLAN).unwrap();
        assert_eq!(plan.scenarios.len(), 2);
        assert_eq!(plan.schema_version, 1, "unversioned plans parse as v1");
        let runs = plan.expand();
        assert_eq!(runs.len(), 2 * 2 * 2 * 2 + 1);
        assert_eq!(runs[0].scenario, "smoke");
        let last = runs.last().unwrap();
        assert_eq!(last.scenario, "chaos");
        assert_eq!(last.seed, 7);
        assert_eq!(last.corruption, Some(CorruptionSeverity::Medium));
        assert!(runs[0].corruption.is_none());
        let faults = last.fault_plan.as_ref().unwrap();
        assert!((faults.dup - 0.1).abs() < 1e-12);
        assert!((faults.drop - 0.05).abs() < 1e-12);
    }

    #[test]
    fn errors_carry_the_offending_line() {
        let cases: &[(&str, usize, &str)] = &[
            ("protocols abp", 1, "before any `scenario`"),
            ("scenario a\nprotocols warbler", 2, "unknown protocol"),
            (
                "scenario a\ndisciplines smoke-signal",
                2,
                "unknown discipline",
            ),
            ("scenario a\nmessages zero", 2, "cannot parse"),
            ("scenario a\nseeds 5..5", 2, "empty range"),
            ("scenario a\ncorruption lethal", 2, "severity"),
            ("scenario a\ncorruption light heavy", 2, "one severity"),
            ("scenario a\nteleport now", 2, "unknown directive"),
            (
                "scenario a\nprotocols abp\ndisciplines fifo\nmessages 5\nfault dup",
                5,
                "dup",
            ),
            ("scenario a\nscenario a", 2, "duplicate"),
            ("", 1, "no scenario"),
            ("schema_version 2", 1, "unsupported schema_version 2"),
            ("schema_version 0", 1, "unsupported schema_version 0"),
            ("schema_version one", 1, "cannot parse"),
            ("schema_version 1 1", 1, "one number"),
            (
                "schema_version 1\nschema_version 1",
                2,
                "duplicate schema_version",
            ),
            (
                "scenario a\nschema_version 1",
                2,
                "before the first scenario",
            ),
        ];
        for (text, line, needle) in cases {
            let e = CampaignPlan::parse(text).unwrap_err();
            assert_eq!(e.line, *line, "{text:?}: {e}");
            assert!(e.to_string().contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn the_largest_single_seed_is_an_error_not_an_overflow() {
        let scenario = "scenario a\nprotocols abp\ndisciplines fifo\nmessages 5\n";
        let e = CampaignPlan::parse(&format!("{scenario}seeds 18446744073709551615")).unwrap_err();
        assert_eq!(e.line, 5, "{e}");
        assert!(e.to_string().contains("past the largest seed"), "{e}");
        let plan = CampaignPlan::parse(&format!("{scenario}seeds 18446744073709551614")).unwrap();
        assert_eq!(plan.expand()[0].seed, u64::MAX - 1);
    }

    #[test]
    fn plans_past_the_run_cap_fail_before_expanding() {
        let scenario = |name: &str, seeds: &str| {
            format!("scenario {name}\nprotocols abp seqnum\ndisciplines fifo\nmessages 5\nseeds {seeds}\n")
        };
        // Half the cap per scenario: two fit, a third does not.
        let half = format!("0..{}", MAX_PLAN_RUNS / 4);
        let two = format!("{}{}", scenario("a", &half), scenario("b", &half));
        let plan = CampaignPlan::parse(&two).unwrap();
        let runs: u64 = plan.scenarios.iter().map(|s| s.run_count().unwrap()).sum();
        assert_eq!(runs, MAX_PLAN_RUNS);
        for (text, line) in [
            (format!("{two}{}", scenario("c", "0..1")), 11),
            (scenario("big", "0..99999999999"), 1),
            (scenario("huge", "0..18446744073709551615"), 1),
        ] {
            let e = CampaignPlan::parse(&text).unwrap_err();
            assert_eq!(e.line, line, "{e}");
            assert!(e.to_string().contains("past 1048576 runs"), "{e}");
        }
    }

    #[test]
    fn every_shipped_plan_parses() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns");
        let mut plans = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "campaign") {
                let text = std::fs::read_to_string(&path).unwrap();
                let plan = CampaignPlan::parse(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(!plan.expand().is_empty(), "{}", path.display());
                plans += 1;
            }
        }
        assert!(plans > 0, "no plans under {dir}");
    }

    #[test]
    fn empty_axes_are_rejected_at_the_scenario_line() {
        let e = CampaignPlan::parse("scenario lonely\nprotocols abp").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("no disciplines"), "{e}");
    }

    #[test]
    fn declared_schema_version_is_recorded() {
        let plan = CampaignPlan::parse(
            "schema_version 1\nscenario s\nprotocols abp\ndisciplines fifo\nmessages 3\n",
        )
        .unwrap();
        assert_eq!(plan.schema_version, 1);
        assert_eq!(plan.expand().len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let plan = CampaignPlan::parse(
            "# header\n\nscenario s # trailing\nprotocols abp\ndisciplines fifo\nmessages 3\n",
        )
        .unwrap();
        assert_eq!(plan.expand().len(), 1);
    }
}
