//! The exploration front door.
//!
//! [`Explorer`] is the one public way to run an exhaustive search. It owns
//! the engine choice (the sequential oracle or the level-synchronized
//! parallel engine), the [`VisitedSpec`] tier and the reusable arena the
//! tier lives in, and the telemetry sinks; the scope is an argument of
//! each [`explore`](Explorer::explore) call, so one warmed explorer serves
//! any number of scopes and protocols. Every tier is exact, so reports are
//! byte-identical whatever the engine, thread count, tier or budget.
//!
//! ```
//! use nonfifo_adversary::{ExploreConfig, Explorer, VisitedSpec};
//! use nonfifo_protocols::SequenceNumber;
//!
//! // Sequential engine, exact disk-spilling tier under a 64 KiB budget:
//! // the report is byte-identical to the default in-RAM run.
//! let cfg = ExploreConfig::default();
//! let proto = SequenceNumber::new();
//! let mut tiered = Explorer::new().visited(VisitedSpec::tiered(64 * 1024));
//! let mut ram = Explorer::new();
//! assert_eq!(
//!     tiered.explore(&proto, &cfg).report(),
//!     ram.explore(&proto, &cfg).report()
//! );
//! ```

use crate::codec::EncodedState;
use crate::explore::{run_sequential, ExploreConfig, ExploreOutcome};
use crate::explore_par::{ExploreArena, ParallelExplorer};
use crate::visited::{VisitedSet, VisitedSpec};
use nonfifo_protocols::DataLink;
use nonfifo_telemetry::{Registry, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// One front door for exhaustive exploration: owns the engine choice
/// (sequential oracle or level-synchronized parallel), the visited-tier
/// spec, the reusable arena, and the telemetry sinks. Build it
/// fluent-style, then call [`explore`](Explorer::explore) any number of
/// times, on any scope — runs reuse the arena's warmed buffers, and after
/// each run the visited set stays readable through
/// [`visited_set`](Explorer::visited_set) for spill introspection.
#[derive(Debug, Default)]
pub struct Explorer {
    /// `None` = the sequential oracle; `Some(n)` = the parallel engine on
    /// `n` resolved worker threads.
    threads: Option<usize>,
    spec: VisitedSpec,
    registry: Option<Arc<Registry>>,
    trace: Option<Arc<TraceSink>>,
    arena: ExploreArena,
}

impl Explorer {
    /// An explorer in the default configuration: sequential engine, exact
    /// in-RAM visited tier, no telemetry.
    pub fn new() -> Self {
        Explorer::default()
    }

    /// Switches to the parallel engine on `threads` workers (`0` = one per
    /// available core, resolved immediately).
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = Some(ParallelExplorer::new(threads).threads());
        self
    }

    /// Switches (back) to the sequential oracle engine.
    pub fn sequential(mut self) -> Self {
        self.threads = None;
        self
    }

    /// Selects the visited tier runs deduplicate through. Every tier is
    /// exact, so the report is byte-identical to the default at any budget.
    pub fn visited(mut self, spec: VisitedSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Attaches a metrics registry (and optionally a trace sink) that
    /// every subsequent run records into, whichever engine runs.
    /// Telemetry never feeds back into the search — outcomes stay
    /// byte-identical with it on or off.
    pub fn with_telemetry(
        mut self,
        registry: Arc<Registry>,
        trace: Option<Arc<TraceSink>>,
    ) -> Self {
        self.registry = Some(registry);
        self.trace = trace;
        self
    }

    /// Resolved worker threads of the parallel engine, or `None` for the
    /// sequential oracle.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The visited set of the most recent run: spill count, disk bytes,
    /// and peak resident bytes.
    pub fn visited_set(&self) -> &dyn VisitedSet {
        self.arena.visited()
    }

    /// Explores `proto` within `cfg`'s scope: the shortest counterexample,
    /// a certificate, or a truncation — deterministic in (protocol, scope),
    /// whatever the engine, thread count, or tier.
    pub fn explore(&mut self, proto: &dyn DataLink, cfg: &ExploreConfig) -> ExploreOutcome {
        self.arena.install_visited(self.spec);
        if cfg.max_states == 0 {
            // Both engines admit the root before checking the budget, so an
            // empty budget is settled here for either.
            self.arena.visited_mut().clear();
            return ExploreOutcome::Truncated { states: 0 };
        }
        if let Some(threads) = self.threads {
            let mut engine = ParallelExplorer::new(threads);
            if let Some(registry) = &self.registry {
                engine = engine.with_telemetry(Arc::clone(registry), self.trace.clone());
            }
            return engine.explore_in(proto, cfg, &mut self.arena);
        }
        let started = Instant::now();
        let visited = self.arena.visited_mut();
        visited.clear();
        let (outcome, pruned) = run_sequential(proto, cfg, visited);
        if let Some(registry) = &self.registry {
            // The sequential oracle is uninstrumented (it is the reference
            // implementation); record its counters after the fact.
            registry.counter("explore.pruned_states").add(pruned);
            if let ExploreOutcome::Exhausted { states } | ExploreOutcome::Truncated { states } =
                &outcome
            {
                registry.counter("explore.states").add(*states as u64);
            }
            record_run_end(
                registry,
                self.arena.visited(),
                started.elapsed().as_secs_f64(),
            );
        }
        outcome
    }
}

/// The end-of-run metrics both engines export: throughput, wall time, the
/// codec width, and the visited tier's footprint and spill accounting.
pub(crate) fn record_run_end(registry: &Registry, visited: &dyn VisitedSet, elapsed_secs: f64) {
    if elapsed_secs > 0.0 {
        registry.set_value(
            "explore.states_per_sec",
            visited.len() as f64 / elapsed_secs,
        );
    }
    // Wall time in the values map so CI can ratio merge_serial_ns against
    // it without parsing states_per_sec backwards.
    registry.set_value("explore.wall_ns", elapsed_secs * 1e9);
    registry
        .gauge("explore.visited_bytes")
        .set(visited.peak_memory_bytes() as u64);
    registry
        .gauge("explore.codec_bytes_per_state")
        .set(EncodedState::BYTES as u64);
    if visited.spills() > 0 {
        registry
            .counter("explore.visited_spills")
            .add(visited.spills());
    }
    if visited.disk_runs() > 0 {
        registry.gauge("explore.disk_runs").set(visited.disk_runs());
    }
    if visited.compaction_bytes() > 0 {
        registry
            .counter("explore.compaction_bytes")
            .add(visited.compaction_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Discipline;
    use nonfifo_protocols::{AlternatingBit, SequenceNumber};

    #[test]
    fn tier_choice_is_invisible() {
        let cfg = ExploreConfig {
            discipline: Discipline::LossyFifo,
            ..ExploreConfig::default()
        };
        let proto = AlternatingBit::new();
        let reference = Explorer::new().explore(&proto, &cfg).report();
        // A 128-byte budget forces a spill every dozen states in this scope.
        let mut tiered = Explorer::new().visited(VisitedSpec::tiered(128));
        assert_eq!(tiered.explore(&proto, &cfg).report(), reference);
        assert!(
            tiered.visited_set().spills() > 0,
            "tiny budget must have spilled"
        );
        let mut par_tiered = Explorer::new()
            .parallel(4)
            .visited(VisitedSpec::tiered(128));
        assert_eq!(par_tiered.explore(&proto, &cfg).report(), reference);
    }

    #[test]
    fn runs_reuse_one_arena_across_engines_tiers_and_scopes() {
        let proto = SequenceNumber::new();
        let scopes = [
            ExploreConfig::default(),
            ExploreConfig {
                max_depth: 10,
                por: true,
                ..ExploreConfig::default()
            },
        ];
        let mut explorer = Explorer::new();
        for _ in 0..2 {
            for cfg in &scopes {
                let reference = Explorer::new().explore(&proto, cfg).report();
                explorer = explorer.sequential();
                assert_eq!(explorer.explore(&proto, cfg).report(), reference);
                explorer = explorer.parallel(2);
                assert_eq!(explorer.explore(&proto, cfg).report(), reference);
                explorer = explorer.visited(VisitedSpec::tiered(4096));
                assert_eq!(explorer.explore(&proto, cfg).report(), reference);
                explorer = explorer.visited(VisitedSpec::Ram);
            }
        }
    }
}
