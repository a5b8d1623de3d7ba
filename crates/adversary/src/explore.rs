//! Exhaustive small-scope exploration of the adversary's choices.
//!
//! The falsifiers follow the paper's particular strategy; this module
//! instead enumerates *every* adversary behaviour within a bounded scope
//! (messages, pool size, action depth) by breadth-first search over the
//! composed system's state space. Within the scope it either returns a
//! **shortest** invalid execution, or a certificate that none exists — a
//! small-scope verification complementing the constructive lower bounds:
//! the naive sequence-number protocol is *exhaustively* safe in scope,
//! while the bounded-header victims fall with minimal counterexamples.
//!
//! The adversary's power is a [`Discipline`]: the default non-FIFO channel
//! may replay any delayed copy, a bounded-reorder channel may only deliver
//! copies that overtake at most `b` older ones, and a lossy-FIFO channel
//! delivers in order but may lose queued copies. Exploring the same
//! protocol under different disciplines reproduces the paper's dichotomy
//! as a protocol × channel matrix (the alternating bit is exhaustively
//! safe under lossy FIFO and falls under non-FIFO, in the same scope).
//!
//! Soundness of deduplication: every action ends with the transmitter's
//! outbox drained onto the (parked) forward channel and the backward
//! channel empty, so the state key — control fingerprints of both automata,
//! the forward pool histogram, and the message counters — determines all
//! future behaviour of the deterministic system.
//!
//! This sequential explorer is the **oracle**: the level-synchronized
//! parallel engine behind [`Explorer::parallel`](crate::Explorer::parallel)
//! shares the expansion core below (`enabled_actions` / `apply` /
//! `state_key`) and is differentially tested against this one.
//!
//! The oracle is one plain BFS queue, but it copies no history. Its
//! systems keep counters only (no event log); each attempted successor is
//! one reused trial [`System`] refilled from its parent with
//! [`System::assign_from`], and only a successor whose key is admitted is
//! cloned into the queue, so slept edges and duplicates cost no
//! allocation. Paths are `(parent, step)` records, one per admitted state,
//! walked back only for a counterexample, whose execution comes from the
//! same strict-scheduler replay the parallel engine reports through
//! (`materialize`). A unit test holds that replay to the event log a
//! logged system records under the same actions.
//!
//! The two engines drive the visited tier through deliberately different
//! contracts. The oracle calls [`VisitedSet::insert`] one key at a time —
//! the simplest use of the trait, and the easiest to audit. The parallel
//! engine uses the batched side of the same trait
//! ([`VisitedSet::contains_resident`] during expansion, then
//! [`VisitedSet::probe_spilled_sorted`] over sorted per-shard batches and
//! [`VisitedSet::insert_new`] at the level merge), which turns disk-tier
//! probing into one sequential block read per batch instead of a random
//! read per key. Byte-identical reports across both engines and every
//! tier — pinned by `tests/visited_props.rs` — are what certify that the
//! batched path implements exactly this oracle's semantics.

use crate::schedule::{Schedule, ScheduleStep};
use crate::system::System;
use crate::visited::VisitedSet;
use nonfifo_channel::Channel as _;
use nonfifo_ioa::{CopyId, Execution, Header, Packet};
use nonfifo_protocols::DataLink;
use nonfifo_rng::StdRng;
use std::collections::VecDeque;
use std::fmt;

// The state-identity plumbing lives in one shared module now
// ([`crate::codec`] / [`crate::visited`]); these re-exports keep the
// historical in-crate paths valid.

/// What the forward channel is allowed to do with delayed copies — the
/// channel axis of the exploration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Full non-FIFO power (the paper's PL1 channel): any delayed copy may
    /// be delivered at any time.
    NonFifo,
    /// A copy may be delivered only if at most `b` older copies are still
    /// delayed — the bounded-reorder-distance channel of experiment E9.
    /// `BoundedReorder(0)` is reliable FIFO.
    BoundedReorder(u64),
    /// FIFO delivery (only the globally oldest delayed copy), but any
    /// delayed copy may be lost. The alternating bit is exhaustively safe
    /// here — loss alone cannot reorder.
    LossyFifo,
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Discipline::NonFifo => write!(f, "nonfifo"),
            Discipline::BoundedReorder(b) => write!(f, "reorder{b}"),
            Discipline::LossyFifo => write!(f, "lossy"),
        }
    }
}

impl std::str::FromStr for Discipline {
    type Err = String;

    /// Parses `nonfifo`, `lossy`, or `reorder<b>` (e.g. `reorder2`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "nonfifo" => Ok(Discipline::NonFifo),
            "lossy" => Ok(Discipline::LossyFifo),
            _ => s
                .strip_prefix("reorder")
                .and_then(|b| b.parse().ok())
                .map(Discipline::BoundedReorder)
                .ok_or_else(|| format!("unknown discipline {s:?} (nonfifo, reorder<b>, lossy)")),
        }
    }
}

/// Scope bounds for the exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum `send_msg` actions.
    pub max_messages: u64,
    /// Maximum actions along any path.
    pub max_depth: usize,
    /// Maximum copies in the forward pool (branches beyond are pruned —
    /// the certificate is relative to this bound).
    pub max_pool: usize,
    /// Safety valve on visited states, the root included. Reaching it makes
    /// the outcome [`ExploreOutcome::Truncated`] — **not** a certificate;
    /// callers must treat it as inconclusive. A truncation never names more
    /// states than this budget; a budget of 0 admits not even the root.
    pub max_states: usize,
    /// The channel discipline the adversary plays under.
    pub discipline: Discipline,
    /// Start the exploration from a *corrupted* root: the seed drives a
    /// small deterministic preload of junk packet copies onto the parked
    /// forward channel (declared as monitored sends, so PL1 checking stays
    /// meaningful) before the first adversary action. `None` is the
    /// ordinary clean boot. A certificate under `Some(_)` says no adversary
    /// schedule violates safety *even from that poisoned in-transit state* —
    /// the small-scope face of self-stabilization.
    pub corrupt_start: Option<u64>,
    /// Enable partial-order reduction: defer inert deliveries under the
    /// sleep-set rule of [`por`](crate::por). Effective only under
    /// [`Discipline::NonFifo`] with ghost-free protocols (elsewhere the
    /// reduced search silently equals the full one). Certificates and
    /// counterexample existence are preserved — the shortest reachable
    /// violation survives the reduction — but `Exhausted` state counts
    /// shrink, so reduced and full reports are *not* byte-comparable;
    /// compare outcome kind, depth, and shrunk schedules instead.
    pub por: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_messages: 3,
            max_depth: 14,
            max_pool: 6,
            max_states: 200_000,
            discipline: Discipline::NonFifo,
            corrupt_start: None,
            por: false,
        }
    }
}

/// Decorrelates corrupted-root preloads from other consumers of the seed.
const CORRUPT_ROOT_SALT: u64 = 0x5eed_c0de_ba5e_0001;

/// Builds the root [`System`] of `cfg`'s scope — the state every replay of
/// an emitted schedule must start from. For clean scopes this is a fresh
/// boot; with [`ExploreConfig::corrupt_start`] set it carries the seeded
/// junk preload, and replaying from `System::new` instead desynchronises
/// on the first step that touches the preloaded junk.
pub fn scope_root(proto: &dyn DataLink, cfg: &ExploreConfig) -> System {
    build_root(proto, cfg, true)
}

/// Builds the exploration root for `cfg`: a fresh closed system, its event
/// log disabled first when `event_log` is false (the engines' counters-only
/// frontiers), then the corrupted-start preload applied if configured.
/// Both engines — and the counterexample re-materialisation — construct
/// their roots through this one path, so corrupted starts cannot
/// desynchronise them.
pub(crate) fn build_root(proto: &dyn DataLink, cfg: &ExploreConfig, event_log: bool) -> System {
    let mut root = System::new(proto);
    if !event_log {
        root.disable_event_log();
    }
    if let Some(seed) = cfg.corrupt_start {
        let mut rng = StdRng::seed_from_u64(seed ^ CORRUPT_ROOT_SALT);
        // One or two distinct junk values, one or two copies each, capped
        // by the scope's pool bound: enough to poison the receiver's view
        // without drowning the state space. Headers stay small (0..8) so
        // the junk collides with real alphabets instead of being ignored.
        let values = rng.gen_range(1..3);
        for _ in 0..values {
            let pkt = Packet::header_only(Header::new(rng.gen_range(0..8) as u32));
            let copies = rng.gen_range(1..3);
            for _ in 0..copies {
                if root.fwd.in_transit_len() >= cfg.max_pool {
                    return root;
                }
                root.preload_forward(pkt);
            }
        }
    }
    root
}

/// The result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub enum ExploreOutcome {
    /// A shortest-in-actions invalid execution within the scope.
    Counterexample {
        /// The invalid execution.
        execution: Execution,
        /// Number of adversary actions on the path.
        depth: usize,
        /// The attack as a replayable script (see [`Schedule`]): running
        /// it against the same protocol reproduces the violation.
        schedule: Schedule,
    },
    /// No invalid execution exists within the scope.
    Exhausted {
        /// Distinct states visited.
        states: usize,
    },
    /// The state budget ran out before the scope was covered; no
    /// conclusion.
    Truncated {
        /// Distinct states visited before giving up.
        states: usize,
    },
}

impl ExploreOutcome {
    /// True if a counterexample was found.
    pub fn is_counterexample(&self) -> bool {
        matches!(self, ExploreOutcome::Counterexample { .. })
    }

    /// True if the scope was fully covered with no counterexample — the
    /// only outcome that is a safety certificate.
    pub fn is_certificate(&self) -> bool {
        matches!(self, ExploreOutcome::Exhausted { .. })
    }

    /// True if the state budget ran out — an inconclusive outcome that
    /// callers must never report as safety.
    pub fn is_truncated(&self) -> bool {
        matches!(self, ExploreOutcome::Truncated { .. })
    }

    /// A canonical one-report rendering: identical inputs produce
    /// byte-identical reports, whatever engine or thread count produced the
    /// outcome. The differential tests compare these strings.
    pub fn report(&self) -> String {
        match self {
            ExploreOutcome::Counterexample {
                execution,
                depth,
                schedule,
            } => format!(
                "counterexample: {depth} adversary actions, {} events\n{}",
                execution.len(),
                schedule.to_text()
            ),
            ExploreOutcome::Exhausted { states } => {
                format!(
                    "certificate: no invalid execution in scope (exhaustive, {states} states)\n"
                )
            }
            ExploreOutcome::Truncated { states } => {
                format!("inconclusive: state budget exhausted after {states} states\n")
            }
        }
    }
}

/// One adversary action in the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Hand the next message to the transmitter (sends parked).
    SendMsg,
    /// One scheduler step with everything parked (drives retransmission).
    StepPark,
    /// Release the oldest delayed copy of a packet value to the receiver.
    Deliver(Packet),
    /// Lose the oldest delayed copy of a packet value (lossy disciplines).
    DropOldest(Packet),
}

/// Fills `oldest` with each distinct parked packet value's oldest delayed
/// copy, in packet order (deterministic). The multiset's entries are sorted
/// by copy id, so the first occurrence of a value is its oldest copy; the
/// distinct-value count is tiny (bounded by the scope's pool), so the
/// membership scan is a few cache lines.
fn oldest_copies_into(sys: &System, oldest: &mut Vec<(Packet, CopyId)>) {
    oldest.clear();
    for (packet, copy) in sys.fwd.parked_multiset().iter() {
        if !oldest.iter().any(|&(p, _)| p == packet) {
            oldest.push((packet, copy));
        }
    }
    oldest.sort_unstable();
}

/// Fills `actions` with the enabled adversary actions, reusing `oldest` as
/// scratch — the allocation-free core of both explorers' expansion loops.
pub(crate) fn enabled_actions_into(
    sys: &System,
    cfg: &ExploreConfig,
    oldest: &mut Vec<(Packet, CopyId)>,
    actions: &mut Vec<Action>,
) {
    actions.clear();
    if sys.ready() && sys.messages_sent() < cfg.max_messages {
        actions.push(Action::SendMsg);
    }
    if sys.fwd.in_transit_len() < cfg.max_pool {
        actions.push(Action::StepPark);
    }
    oldest_copies_into(sys, oldest);
    // A delivery overtakes the delayed copies older than the one released;
    // each discipline bounds how many it may overtake.
    let ms = sys.fwd.parked_multiset();
    match cfg.discipline {
        Discipline::NonFifo => {
            for &(packet, _) in oldest.iter() {
                actions.push(Action::Deliver(packet));
            }
        }
        Discipline::BoundedReorder(bound) => {
            for &(packet, copy) in oldest.iter() {
                if ms.copies_older_than(copy) as u64 <= bound {
                    actions.push(Action::Deliver(packet));
                }
            }
        }
        Discipline::LossyFifo => {
            for &(packet, copy) in oldest.iter() {
                if ms.copies_older_than(copy) == 0 {
                    actions.push(Action::Deliver(packet));
                }
            }
            for &(packet, _) in oldest.iter() {
                actions.push(Action::DropOldest(packet));
            }
        }
    }
}

pub(crate) fn enabled_actions(sys: &System, cfg: &ExploreConfig) -> Vec<Action> {
    let mut oldest = Vec::new();
    let mut actions = Vec::new();
    enabled_actions_into(sys, cfg, &mut oldest, &mut actions);
    actions
}

pub(crate) fn apply(sys: &mut System, action: Action) {
    match action {
        Action::SendMsg => {
            sys.send_msg();
            // Drain the transmitter's immediate output into the pool so the
            // state key captures it.
            sys.step_park_all();
        }
        Action::StepPark => {
            sys.step_park_all();
        }
        Action::Deliver(packet) => {
            sys.fwd.release_oldest_of_packet(packet);
            sys.drain_released();
            // The receiver's acks may wake the transmitter; park its output.
            sys.step_park_all();
        }
        Action::DropOldest(packet) => {
            // Mirrors `ScheduleStep::Drop` replay exactly: the loss is a
            // monitored drop, no scheduler step elapses.
            sys.fwd.drop_oldest_of_packet(packet);
            sys.drain_released();
        }
    }
}

pub(crate) fn to_step(action: Action) -> ScheduleStep {
    match action {
        Action::SendMsg => ScheduleStep::Send,
        Action::StepPark => ScheduleStep::Park,
        Action::Deliver(packet) => ScheduleStep::Deliver(packet.header()),
        Action::DropOldest(packet) => ScheduleStep::Drop(packet.header()),
    }
}

/// The inverse of [`to_step`] on the explorer's own steps. Every packet an
/// exploration parks is header-only (messages are identical and the
/// corrupted-start junk carries no payload), so a header names its packet
/// exactly — the same fact that lets a schedule replay a found violation.
pub(crate) fn from_step(step: ScheduleStep) -> Action {
    match step {
        ScheduleStep::Send => Action::SendMsg,
        ScheduleStep::Park => Action::StepPark,
        ScheduleStep::Deliver(h) => Action::Deliver(Packet::header_only(h)),
        ScheduleStep::Drop(h) => Action::DropOldest(Packet::header_only(h)),
        other => unreachable!("`{other}` is not an explorer step"),
    }
}

/// The sequential breadth-first search — the oracle engine, generic over
/// the visited tier. `visited` must arrive empty (cleared); the
/// [`Explorer`](crate::Explorer) owns its construction and reuse. Returns
/// the outcome and the successor transitions the partial-order reduction
/// put to sleep (0 with [`ExploreConfig::por`] off or inapplicable).
pub(crate) fn run_sequential(
    proto: &dyn DataLink,
    cfg: &ExploreConfig,
    visited: &mut dyn VisitedSet,
) -> (ExploreOutcome, u64) {
    let root = build_root(proto, cfg, false);
    let por = crate::por::PorCtx::new(&root, cfg);
    let mut pruned = 0u64;
    visited.insert(por.key(&root));
    if visited.len() >= cfg.max_states {
        let outcome = ExploreOutcome::Truncated {
            states: visited.len(),
        };
        return (outcome, pruned);
    }
    // Path records: the state admitted `n`-th (the root is 0th) was reached
    // by taking `paths[n - 1].1` from the state admitted `paths[n - 1].0`-th.
    let mut paths: Vec<(usize, ScheduleStep)> = Vec::new();
    // Frontier entries: a state, its admission index, and its depth.
    let mut frontier: VecDeque<(System, usize, usize)> = VecDeque::new();
    let mut trial = root.clone();
    frontier.push_back((root, 0, 0));
    let (mut oldest, mut actions) = (Vec::new(), Vec::new());

    while let Some((sys, id, depth)) = frontier.pop_front() {
        if depth >= cfg.max_depth {
            continue;
        }
        enabled_actions_into(&sys, cfg, &mut oldest, &mut actions);
        for &action in &actions {
            trial.assign_from(&sys);
            apply(&mut trial, action);
            if trial.violation().is_some() {
                let mut steps = Vec::with_capacity(depth + 1);
                steps.push(to_step(action));
                let mut node = id;
                while node > 0 {
                    let (parent, step) = paths[node - 1];
                    steps.push(step);
                    node = parent;
                }
                steps.reverse();
                return (materialize(proto, cfg, steps), pruned);
            }
            // The sleep decision is a pure function of (state, action), so
            // it sits *after* the violation check (a violating successor is
            // never inert, but keep the order manifest) and *before* dedup:
            // a slept edge is neither recorded nor expanded, here or in the
            // parallel engine.
            if por.sleeps(&sys, &trial, action, cfg) {
                pruned += 1;
                continue;
            }
            if visited.insert(por.key(&trial)) {
                if visited.len() >= cfg.max_states {
                    let outcome = ExploreOutcome::Truncated {
                        states: visited.len(),
                    };
                    return (outcome, pruned);
                }
                paths.push((id, to_step(action)));
                frontier.push_back((trial.clone(), paths.len(), depth + 1));
            }
        }
    }
    let outcome = ExploreOutcome::Exhausted {
        states: visited.len(),
    };
    (outcome, pruned)
}

/// Turns a found violating path into the reported counterexample: replays
/// `steps` through the strict scheduler from the scope's event-logged root
/// and records the full invalid execution. Both engines explore on
/// counters-only systems and report through this one replay, which doubles
/// as an end-to-end validation of every reported attack.
pub(crate) fn materialize(
    proto: &dyn DataLink,
    cfg: &ExploreConfig,
    steps: Vec<ScheduleStep>,
) -> ExploreOutcome {
    let schedule = Schedule::new(steps);
    // Replay from the same (possibly corrupted) root that produced the
    // violation — a clean boot would desynchronise corrupted-start runs.
    let sys = Schedule::run_steps_from(schedule.steps(), build_root(proto, cfg, true))
        .expect("explorer-found schedule must replay");
    assert!(
        sys.violation().is_some(),
        "explorer-found schedule must reproduce its violation"
    );
    ExploreOutcome::Counterexample {
        execution: sys.execution().clone(),
        depth: schedule.steps().len(),
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::state_key;
    use nonfifo_ioa::spec::{check_dl1, check_pl1, Validity};
    use nonfifo_ioa::Dir;
    use nonfifo_protocols::{AlternatingBit, GoBackN, NaiveCycle, SequenceNumber, StabilizingDl};

    fn explore(proto: &dyn DataLink, cfg: &ExploreConfig) -> ExploreOutcome {
        crate::Explorer::new().explore(proto, cfg)
    }

    #[test]
    fn finds_minimal_counterexample_for_alternating_bit() {
        let outcome = explore(&AlternatingBit::new(), &ExploreConfig::default());
        let ExploreOutcome::Counterexample {
            execution,
            depth,
            schedule,
        } = outcome
        else {
            panic!("expected counterexample, got {outcome:?}");
        };
        // The minimal attack: deliver two messages (keeping a stale copy of
        // bit 0), then replay it. That is 7 adversary actions or fewer.
        assert!(depth <= 7, "depth {depth}");
        // The counterexample is a genuine invalid execution over a legal
        // channel.
        assert!(check_dl1(&execution).is_err());
        assert!(matches!(
            Validity::classify(&execution),
            Validity::Invalid(_)
        ));
        check_pl1(&execution, Dir::Forward).unwrap();
        check_pl1(&execution, Dir::Backward).unwrap();
        // The emitted schedule is replayable: running it reproduces the
        // violation from scratch.
        let replayed = schedule.run(&AlternatingBit::new()).expect("replay");
        assert!(replayed.violation().is_some());
        assert_eq!(replayed.counts().rm, replayed.counts().sm + 1);
        // And it survives a text round trip.
        let text = schedule.to_text();
        let parsed = crate::Schedule::parse(&text).unwrap();
        assert_eq!(parsed, schedule);
    }

    #[test]
    fn finds_counterexample_for_cycle3_with_more_messages() {
        let cfg = ExploreConfig {
            max_messages: 4,
            max_depth: 16,
            max_pool: 6,
            max_states: 500_000,
            ..ExploreConfig::default()
        };
        let outcome = explore(&NaiveCycle::new(3), &cfg);
        assert!(outcome.is_counterexample(), "got {outcome:?}");
    }

    #[test]
    fn sequence_number_is_exhaustively_safe_in_scope() {
        let cfg = ExploreConfig {
            max_messages: 3,
            max_depth: 12,
            max_pool: 5,
            max_states: 500_000,
            ..ExploreConfig::default()
        };
        let outcome = explore(&SequenceNumber::new(), &cfg);
        let ExploreOutcome::Exhausted { states } = outcome else {
            panic!("expected exhaustive certificate, got {outcome:?}");
        };
        assert!(states > 10, "trivially small exploration: {states}");
    }

    #[test]
    fn scope_bounds_are_respected() {
        // With no messages allowed there is nothing to violate.
        let cfg = ExploreConfig {
            max_messages: 0,
            max_depth: 6,
            max_pool: 3,
            max_states: 1000,
            ..ExploreConfig::default()
        };
        let outcome = explore(&AlternatingBit::new(), &cfg);
        assert!(matches!(outcome, ExploreOutcome::Exhausted { .. }));
    }

    #[test]
    fn alternating_bit_is_exhaustively_safe_under_lossy_fifo() {
        // Loss alone cannot reorder: the protocol that falls to the
        // non-FIFO adversary in 6 actions carries a certificate here.
        let cfg = ExploreConfig {
            discipline: Discipline::LossyFifo,
            ..ExploreConfig::default()
        };
        let outcome = explore(&AlternatingBit::new(), &cfg);
        assert!(outcome.is_certificate(), "got {outcome:?}");
    }

    #[test]
    fn alternating_bit_is_exhaustively_safe_under_fifo() {
        let cfg = ExploreConfig {
            discipline: Discipline::BoundedReorder(0),
            ..ExploreConfig::default()
        };
        let outcome = explore(&AlternatingBit::new(), &cfg);
        assert!(outcome.is_certificate(), "got {outcome:?}");
    }

    #[test]
    fn bounded_reorder_restores_the_attack() {
        // Enough reorder distance re-enables the stale replay.
        let cfg = ExploreConfig {
            discipline: Discipline::BoundedReorder(8),
            ..ExploreConfig::default()
        };
        let outcome = explore(&AlternatingBit::new(), &cfg);
        assert!(outcome.is_counterexample(), "got {outcome:?}");
    }

    #[test]
    fn truncation_is_not_a_certificate() {
        let cfg = ExploreConfig {
            max_states: 10,
            ..ExploreConfig::default()
        };
        let outcome = explore(&SequenceNumber::new(), &cfg);
        assert!(outcome.is_truncated(), "got {outcome:?}");
        assert!(!outcome.is_certificate());
        assert!(outcome.report().contains("inconclusive"));
    }

    #[test]
    fn corrupted_roots_are_deterministic_per_seed() {
        let cfg = ExploreConfig {
            corrupt_start: Some(42),
            ..ExploreConfig::default()
        };
        let a = build_root(&SequenceNumber::new(), &cfg, true);
        let b = build_root(&SequenceNumber::new(), &cfg, true);
        assert_eq!(state_key(&a), state_key(&b));
        assert!(
            a.fwd.in_transit_len() > 0,
            "a corrupted root preloads at least one junk copy"
        );
        assert_eq!(a.execution().len(), b.execution().len());
        // Every preloaded copy is a declared send: the monitor saw it.
        assert_eq!(a.violation(), None);
    }

    #[test]
    fn corrupted_starts_separate_stabilizing_from_trusting_protocols() {
        // The counting protocol needs capacity+1 identical sightings to
        // deliver; a preload of at most two copies per junk value can never
        // cross that threshold, so every corrupted start carries a
        // certificate. The sequence-number protocol trusts whatever matches
        // its expected header — a junk copy of header 0 is a phantom
        // delivery one adversary action deep.
        let scope = |seed| ExploreConfig {
            max_messages: 2,
            max_depth: 8,
            max_pool: 4,
            max_states: 300_000,
            corrupt_start: Some(seed),
            ..ExploreConfig::default()
        };
        let mut seqnum_fell = false;
        for seed in 0..16 {
            let dl = explore(&StabilizingDl::new(), &scope(seed));
            assert!(
                dl.is_certificate(),
                "seed {seed}: stabilizing-dl got {dl:?}"
            );
            if explore(&SequenceNumber::new(), &scope(seed)).is_counterexample() {
                seqnum_fell = true;
            }
        }
        assert!(
            seqnum_fell,
            "no junk preload collided with seqnum's expected header across 16 seeds"
        );
    }

    #[test]
    fn replayed_counterexamples_match_the_live_event_log() {
        // The oracle explores on counters-only systems and reports the
        // strict scheduler's replay of the found path. That replay must
        // record exactly what an event-logged system records when stepped
        // through the same actions with `apply`, or the reported
        // executions would depend on the engine's bookkeeping.
        let cycle3 = ExploreConfig {
            max_messages: 4,
            max_depth: 16,
            max_pool: 6,
            max_states: 500_000,
            ..ExploreConfig::default()
        };
        let corrupted = ExploreConfig {
            max_messages: 2,
            max_depth: 8,
            max_pool: 4,
            corrupt_start: Some(8),
            ..ExploreConfig::default()
        };
        let reorder = ExploreConfig {
            discipline: Discipline::BoundedReorder(8),
            ..ExploreConfig::default()
        };
        let cases: [(&str, Box<dyn DataLink>, ExploreConfig); 5] = [
            (
                "abp",
                Box::new(AlternatingBit::new()),
                ExploreConfig::default(),
            ),
            ("cycle3", Box::new(NaiveCycle::new(3)), cycle3),
            ("gbn1", Box::new(GoBackN::new(1)), ExploreConfig::default()),
            ("abp reorder8", Box::new(AlternatingBit::new()), reorder),
            (
                "seqnum corrupt8",
                Box::new(SequenceNumber::new()),
                corrupted,
            ),
        ];
        for (name, proto, cfg) in &cases {
            let ExploreOutcome::Counterexample {
                execution,
                schedule,
                ..
            } = explore(proto.as_ref(), cfg)
            else {
                panic!("{name}: expected a counterexample");
            };
            let mut live = build_root(proto.as_ref(), cfg, true);
            for &step in schedule.steps() {
                assert_eq!(
                    live.violation(),
                    None,
                    "{name}: violation before the last step"
                );
                apply(&mut live, from_step(step));
            }
            assert!(live.violation().is_some(), "{name}: live run must violate");
            assert_eq!(&execution, live.execution(), "{name}");
        }
    }

    #[test]
    fn from_step_inverts_to_step() {
        let packet = Packet::header_only(Header::new(3));
        for action in [
            Action::SendMsg,
            Action::StepPark,
            Action::Deliver(packet),
            Action::DropOldest(packet),
        ] {
            assert_eq!(from_step(to_step(action)), action);
        }
    }

    #[test]
    fn discipline_parses_and_displays() {
        for text in ["nonfifo", "lossy", "reorder0", "reorder7"] {
            let d: Discipline = text.parse().unwrap();
            assert_eq!(d.to_string(), text);
        }
        assert!("reorder".parse::<Discipline>().is_err());
        assert!("fifoish".parse::<Discipline>().is_err());
    }
}
