//! Declarative run matrices: [`ScenarioSpec`] and its expansion into
//! individually fingerprinted [`RunSpec`]s.
//!
//! A scenario is a cross product: every named protocol × every channel
//! discipline × every message count × every seed, sharing one optional
//! fault plan and one step budget. Expansion is deterministic (protocol
//! order, then discipline, then message count, then seed — exactly as the
//! axes were declared), and every expanded run carries a stable canonical
//! spelling whose FNV-64 hash keys the campaign result cache.

use nonfifo_channel::{CorruptionSeverity, Discipline, FaultPlan};
use nonfifo_ioa::fingerprint::fnv64;
use std::fmt;

/// One axis-product of runs: the unit of declaration in a campaign plan.
///
/// # Example
///
/// ```
/// use nonfifo_campaign::ScenarioSpec;
/// use nonfifo_channel::Discipline;
///
/// let runs = ScenarioSpec::new("smoke")
///     .protocol("abp")
///     .protocol("seqnum")
///     .discipline(Discipline::Fifo)
///     .discipline(Discipline::Probabilistic { q: 0.3 })
///     .message_counts(&[10, 20])
///     .seeds(0..3)
///     .expand();
/// assert_eq!(runs.len(), 2 * 2 * 2 * 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name, echoed into every expanded run and report row.
    pub name: String,
    /// Protocol names, resolved via `nonfifo_protocols::catalog`.
    pub protocols: Vec<String>,
    /// Channel disciplines to cross with the protocols.
    pub disciplines: Vec<Discipline>,
    /// Message counts (`n`) to deliver per run.
    pub message_counts: Vec<u64>,
    /// Seed range, half-open.
    pub seeds: std::ops::Range<u64>,
    /// Optional fault plan wrapped around every run's channel pair.
    pub fault_plan: Option<FaultPlan>,
    /// Optional override of `SimConfig::max_steps_per_message`.
    pub budget: Option<u64>,
    /// Stamp messages with their index as payload.
    pub payloads: bool,
    /// Optional initial-state corruption: every run starts from a seeded
    /// scramble of this severity and is judged by convergence instead of
    /// clean-start delivery.
    pub corruption: Option<CorruptionSeverity>,
}

impl ScenarioSpec {
    /// A scenario with empty axes and a single seed (`0..1`).
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            protocols: Vec::new(),
            disciplines: Vec::new(),
            message_counts: Vec::new(),
            seeds: 0..1,
            fault_plan: None,
            budget: None,
            payloads: false,
            corruption: None,
        }
    }

    /// Adds a protocol to the protocol axis.
    #[must_use]
    pub fn protocol(mut self, name: impl Into<String>) -> Self {
        self.protocols.push(name.into());
        self
    }

    /// Adds a discipline to the channel axis.
    #[must_use]
    pub fn discipline(mut self, d: Discipline) -> Self {
        self.disciplines.push(d);
        self
    }

    /// Sets the message-count axis.
    #[must_use]
    pub fn message_counts(mut self, counts: &[u64]) -> Self {
        self.message_counts = counts.to_vec();
        self
    }

    /// Sets the seed range.
    #[must_use]
    pub fn seeds(mut self, seeds: std::ops::Range<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Attaches a fault plan to every run of the scenario.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the per-message step budget for every run.
    #[must_use]
    pub fn budget(mut self, max_steps_per_message: u64) -> Self {
        self.budget = Some(max_steps_per_message);
        self
    }

    /// Enables payload stamping for every run.
    #[must_use]
    pub fn payloads(mut self, on: bool) -> Self {
        self.payloads = on;
        self
    }

    /// Starts every run from a seeded corrupted initial state of the given
    /// severity. Corrupted runs are judged by convergence — the outcome is
    /// `Delivered` only if the execution acquired a legal suffix — and the
    /// scramble is derived from the run seed, so the initial-corruption
    /// axis crosses with fault plans and stays cacheable.
    #[must_use]
    pub fn corruption(mut self, severity: CorruptionSeverity) -> Self {
        self.corruption = Some(severity);
        self
    }

    /// How many runs [`expand`](Self::expand) yields, counted from the
    /// axis lengths without expanding; `None` if that overflows a `u64`.
    pub fn run_count(&self) -> Option<u64> {
        let axes = [
            self.protocols.len(),
            self.disciplines.len(),
            self.message_counts.len(),
        ];
        let seeds = self.seeds.end.saturating_sub(self.seeds.start);
        axes.into_iter()
            .try_fold(seeds, |runs, axis| runs.checked_mul(axis as u64))
    }

    /// Expands the cross product in declaration order: protocol, then
    /// discipline, then message count, then seed.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut runs = Vec::new();
        for proto in &self.protocols {
            for d in &self.disciplines {
                for &n in &self.message_counts {
                    for seed in self.seeds.clone() {
                        runs.push(RunSpec {
                            scenario: self.name.clone(),
                            protocol: proto.clone(),
                            discipline: d.clone(),
                            messages: n,
                            seed,
                            fault_plan: self.fault_plan.clone(),
                            budget: self.budget,
                            payloads: self.payloads,
                            corruption: self.corruption,
                        });
                    }
                }
            }
        }
        runs
    }
}

/// One fully concrete simulation run: a point of the scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Name of the scenario this run expanded from.
    pub scenario: String,
    /// Protocol name (catalog spelling).
    pub protocol: String,
    /// Channel discipline.
    pub discipline: Discipline,
    /// Messages to deliver.
    pub messages: u64,
    /// RNG seed handed to the channel pair.
    pub seed: u64,
    /// Fault plan, if the scenario injects faults.
    pub fault_plan: Option<FaultPlan>,
    /// `SimConfig::max_steps_per_message` override.
    pub budget: Option<u64>,
    /// Payload stamping.
    pub payloads: bool,
    /// Initial-state corruption severity, if the scenario starts corrupted.
    pub corruption: Option<CorruptionSeverity>,
}

impl RunSpec {
    /// The canonical one-line spelling of this run. Stable across
    /// processes; the cache key is its hash. Fault plans are folded in via
    /// their canonical plan text ([`FaultPlan`]'s `Display`), so two specs
    /// collide exactly when they describe the same run.
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "scenario={} proto={} chan={} n={} seed={}",
            self.scenario, self.protocol, self.discipline, self.messages, self.seed
        );
        if let Some(budget) = self.budget {
            s.push_str(&format!(" budget={budget}"));
        }
        if self.payloads {
            s.push_str(" payloads");
        }
        if let Some(severity) = self.corruption {
            s.push_str(&format!(" corrupt={severity}"));
        }
        if let Some(plan) = &self.fault_plan {
            // Canonical plan text is multi-line; flatten it.
            let flat: Vec<String> = plan.to_string().lines().map(str::to_string).collect();
            s.push_str(&format!(" faults=[{}]", flat.join("; ")));
        }
        s
    }

    /// FNV-64 hash of [`canonical`](RunSpec::canonical): the cache key.
    pub fn fingerprint(&self) -> u64 {
        fnv64(self.canonical().as_str())
    }
}

impl fmt::Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("t")
            .protocol("abp")
            .discipline(Discipline::Probabilistic { q: 0.3 })
            .message_counts(&[5])
            .seeds(3..5)
    }

    #[test]
    fn expansion_order_is_declaration_order() {
        let runs = ScenarioSpec::new("t")
            .protocol("abp")
            .protocol("seqnum")
            .discipline(Discipline::Fifo)
            .discipline(Discipline::BoundedReorder { bound: 2 })
            .message_counts(&[5, 10])
            .seeds(0..2)
            .expand();
        assert_eq!(runs.len(), 16);
        assert_eq!(
            runs[0].canonical(),
            "scenario=t proto=abp chan=fifo n=5 seed=0"
        );
        assert_eq!(runs[1].seed, 1);
        assert_eq!(runs[2].messages, 10);
        assert_eq!(runs[4].discipline, Discipline::BoundedReorder { bound: 2 });
        assert_eq!(runs[8].protocol, "seqnum");
    }

    #[test]
    fn fingerprints_separate_all_axes() {
        let base = spec().expand();
        let budgeted = spec().budget(99).expand();
        let faulted = spec()
            .fault_plan(FaultPlan::parse("dup 0.1").unwrap())
            .expand();
        let payloaded = spec().payloads(true).expand();
        let corrupted = spec().corruption(CorruptionSeverity::Medium).expand();
        let heavier = spec().corruption(CorruptionSeverity::Heavy).expand();
        let fps: Vec<u64> = [
            &base[0],
            &base[1],
            &budgeted[0],
            &faulted[0],
            &payloaded[0],
            &corrupted[0],
            &heavier[0],
        ]
        .iter()
        .map(|r| r.fingerprint())
        .collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{i} vs {j} collide");
            }
        }
        // Stable: same spec, same key.
        assert_eq!(base[0].fingerprint(), spec().expand()[0].fingerprint());
    }

    #[test]
    fn canonical_spells_out_the_corruption_severity() {
        let runs = spec().corruption(CorruptionSeverity::Light).expand();
        let c = runs[0].canonical();
        assert!(c.contains(" corrupt=light"), "{c}");
    }

    #[test]
    fn canonical_folds_in_the_fault_plan() {
        let runs = spec()
            .fault_plan(FaultPlan::parse("dup 0.1\ndrop 0.2").unwrap())
            .expand();
        let c = runs[0].canonical();
        assert!(c.contains("faults=[dup 0.1; drop 0.2]"), "{c}");
    }
}
