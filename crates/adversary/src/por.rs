//! Partial-order reduction for the exploration engines.
//!
//! The scope explosion the explorer fights is mostly *commutation*: under a
//! non-FIFO channel, the adversary's choices of when to consume a stale
//! delayed copy interleave freely with everything else, and every
//! interleaving drags the search through its own ladder of intermediate
//! pool histograms. This module attacks that explosion on two levels,
//! keeping the full explorer as the differential oracle that proves both
//! sound:
//!
//! 1. a **sleep-set rule over inert deliveries** prunes redundant *edges*
//!    (the `explore.pruned_states` counter), and
//! 2. a **retired-copy quotient key** (`PorCtx::key`) collapses redundant
//!    *states*: pool slots holding values both stations have permanently
//!    retired ([`System::packet_retired`]) are anonymised in the dedup
//!    digest, so states that differ only in which dead value fills a slot
//!    are visited once. Under breadth-first search with full-state
//!    deduplication the quotient — not the edge pruning — is where the
//!    order-of-magnitude scope savings come from: a slept successor is
//!    usually still reachable along a path that never minted the copy,
//!    while the quotient removes the whole class.
//!
//! # The independence relation
//!
//! Two enabled adversary actions are *independent at a state* when running
//! them in either order reaches the same state key and the same monitor
//! verdict. The relation this module exports
//! ([`steps_independent_at`]) is deliberately conditional — checked at the
//! state, not declared globally — because in this model almost nothing
//! commutes unconditionally:
//!
//! - **Inert deliveries commute with automaton-invisible actions.** A
//!   `deliver h` is *inert* at a state when releasing the copy changes
//!   neither automaton's state nor the `sm`/`rm` counters: the receiver
//!   shrugs at a stale value and the echoed ack is ignored by the
//!   transmitter. Copy identities are invisible to both the automata and
//!   the state key (the pool digest is an order-independent value
//!   histogram), so an inert delivery commutes with any co-enabled action
//!   that leaves the transmitter's state unchanged — `park`, another
//!   inert delivery, a drop of a different value — *provided* it is still
//!   inert after that action (a delivery that becomes acceptable stops
//!   commuting, and the relation says so).
//! - **Drops on distinct values commute with everything off-value.** A
//!   `drop h` touches only the channel: no tick, no automaton transition.
//!   Two drops of different values commute; a drop commutes with `send`,
//!   `park`, and any deliver or drop of a different value.
//! - Ghost-reading protocols ([`System::uses_ghosts`]) observe the pool
//!   through the per-step summary, so *nothing* is invisible to them and
//!   the relation is empty.
//!
//! # The sleep-set rule the engines apply
//!
//! Under [`Discipline::NonFifo`](crate::Discipline), for ghost-free
//! protocols, both engines put an enabled delivery **to sleep** (skip the
//! edge and the successor state) when all of the following hold at the
//! parent:
//!
//! 1. the delivery is inert (checked by trial application — a pure function
//!    of the parent state and the step, never of discovery order or thread
//!    schedule);
//! 2. `park` is enabled (the pool is below its bound).
//!
//! Deferral is sound because a slept delivery is not lost, merely
//! postponed: the copy stays in the pool, so the same action stays enabled
//! at every successor until either (a) it stops being inert — at which
//! point it is expanded as an ordinary action (this is the persistent-set
//! wake-up that keeps a corrupted-start phantom, or a stale copy whose
//! value comes back into expectation, reachable), or (b) the pool reaches
//! its bound — at which point rule 2 fails and the consumption is expanded
//! (this covers paths that spend an inert delivery purely to free pool
//! space). Everything else an inert delivery does is reproducible without
//! it: its embedded tick is exactly a `park` (enabled, by rule 2), and the
//! retained copy only ever *adds* enabled actions under non-FIFO, never
//! disables or alters one. Bounded-reorder and lossy disciplines gate
//! deliveries on copy age, where a retained copy can block other actions —
//! the reduction stays off there, and `--por` degenerates to the full
//! search.
//!
//! Violating successors are never slept (a violation changes `rm`, so it is
//! not inert), and the sleep decision is recomputed from scratch at every
//! state, so duplicate states reached along different paths always agree on
//! it — which is what lets the reduced engines keep plain state-key
//! deduplication and byte-identical reports at any thread count.
//!
//! # The retired-copy quotient
//!
//! A delayed copy is *retired garbage* when **both** stations have outgrown
//! its header: the receiver can never again accept it, and the ack it would
//! echo is forever ignored by the transmitter
//! ([`System::packet_retired`], built on the protocols'
//! `header_retired` oracles and their monotonicity contract — once retired,
//! retired forever). Two states that agree on everything except which
//! retired values occupy their pool slots are bisimilar: delivering or
//! dropping one retired copy is matched, move for move, by delivering or
//! dropping any other, and no other action can tell them apart. The reduced
//! engines therefore deduplicate on `PorCtx::key`, whose kernel is
//! exactly that bisimulation — the live-value histogram plus a retired-slot
//! *count* in place of the retired values themselves. Because the key is a
//! pure function of the state, the quotient graph the engines explore is
//! representative-independent: state counts, certificates, and
//! counterexamples come out identical between the sequential and parallel
//! engines and at every thread count. Protocols that keep the defaulted
//! `header_retired` (always false — cycling alphabets *must*, since a
//! reused header comes back into expectation) get the identity quotient and
//! behave exactly as without `--por`.

use crate::codec::{state_key, CodecMode, StateCodec};
use crate::explore::{enabled_actions, Action, Discipline, ExploreConfig};
use crate::schedule::ScheduleStep;
use crate::system::System;
use nonfifo_channel::Channel as _;
use nonfifo_ioa::Packet;

/// Per-run reduction context, fixed at the root: which [`StateCodec`] the
/// run deduplicates through — the retired-copy quotient when the sleep-set
/// rule is live for this (protocol, config) pair, the plain full codec
/// otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PorCtx {
    codec: StateCodec,
}

impl PorCtx {
    /// Builds the context for one exploration run. The reduction is live
    /// only when the config asks for it, the discipline is full non-FIFO
    /// (where a retained copy can never disable or alter another action),
    /// and the protocol is ghost-free (so channel-only edits are invisible
    /// to the automata).
    pub(crate) fn new(root: &System, cfg: &ExploreConfig) -> Self {
        let active = cfg.por && cfg.discipline == Discipline::NonFifo && !root.uses_ghosts();
        PorCtx {
            codec: if active {
                StateCodec::retired_quotient()
            } else {
                StateCodec::full()
            },
        }
    }

    /// True when the sleep-set rule (and the quotient key) is live.
    fn active(&self) -> bool {
        self.codec.mode() == CodecMode::RetiredQuotient
    }

    /// True when `action`, taken from `parent` and producing `child`, goes
    /// to sleep: the successor is neither recorded nor expanded. A pure
    /// function of `(parent state, action)` — `child` is the already-applied
    /// trial the expansion loop has in hand anyway.
    pub(crate) fn sleeps(
        &self,
        parent: &System,
        child: &System,
        action: Action,
        cfg: &ExploreConfig,
    ) -> bool {
        if !self.active() || !matches!(action, Action::Deliver(_)) {
            return false;
        }
        // Rule 2: `park` must be enabled, so the slept delivery's tick is
        // reproducible and a pool-bound squeeze wakes the consumption.
        if parent.fwd.in_transit_len() >= cfg.max_pool {
            return false;
        }
        inert(parent, child)
    }

    /// The dedup key the reduced engines use: [`state_key`] with every
    /// *retired* delayed copy ([`System::packet_retired`]) replaced by an
    /// anonymous garbage token. Two states that differ only in **which**
    /// retired values occupy their pool slots — `{old₀×2, old₁×1}` versus
    /// `{old₀×1, old₁×2}` — collapse to one key: by the retirement
    /// contract their futures are bisimilar (each is forever ignored by
    /// both stations, so delivering one retired copy mirrors delivering
    /// any other), and this collapse, not edge pruning, is where the
    /// reduction's state savings come from. Inactive contexts return the
    /// full [`state_key`] unchanged. The derivation itself lives in the
    /// shared [`StateCodec`] ([`CodecMode::RetiredQuotient`]), bit-for-bit
    /// the historical chain.
    pub(crate) fn key(&self, sys: &System) -> u64 {
        self.codec.key(sys)
    }
}

/// True when the step from `parent` to `child` was invisible to both
/// automata and to the specification counters — the channel moved, the
/// stations did not. The automata are compared exactly (derived `Eq`), not
/// by fingerprint, so a hash collision can never make a step look inert.
fn inert(parent: &System, child: &System) -> bool {
    child.violation() == parent.violation()
        && child.counts().sm == parent.counts().sm
        && child.counts().rm == parent.counts().rm
        && child.tx.same_state(parent.tx.as_ref())
        && child.rx.same_state(parent.rx.as_ref())
}

/// Applies `action` to a clone of `sys` and reports whether it was inert
/// (see [`inert`]). The trial clone is discarded.
fn trial_inert(sys: &System, action: Action) -> bool {
    let mut probe = sys.clone();
    crate::explore::apply(&mut probe, action);
    inert(sys, &probe)
}

/// Resolves a schedule step to the exploration [`Action`] it denotes at
/// `sys`, if that action is currently enabled under `cfg`. Deliver/drop
/// steps name a header; the exploration works on whole packet values, so
/// the oldest delayed copy of the header supplies the value (exactly the
/// resolution [`Schedule`](crate::Schedule) replay performs).
fn resolve(sys: &System, cfg: &ExploreConfig, step: ScheduleStep) -> Option<Action> {
    let by_header = |h| -> Option<Packet> {
        sys.fwd
            .parked_multiset()
            .iter()
            .map(|(p, _)| p)
            .find(|p| p.header() == h)
    };
    let action = match step {
        ScheduleStep::Send => Action::SendMsg,
        ScheduleStep::Park => Action::StepPark,
        ScheduleStep::Deliver(h) => Action::Deliver(by_header(h)?),
        ScheduleStep::Drop(h) => Action::DropOldest(by_header(h)?),
        _ => return None,
    };
    enabled_actions(sys, cfg)
        .contains(&action)
        .then_some(action)
}

/// The independence relation over [`ScheduleStep`]s, evaluated at a state:
/// true when `a` and `b` are both enabled at `sys` under `cfg` and running
/// them in either order provably reaches the same state key and the same
/// monitor verdict *kind* (a violation's `event_index` records where in
/// the execution log the monitor flagged it — path bookkeeping the two
/// orders legitimately disagree on). This is the relation the property harness
/// (`tests/por_props.rs`) validates by literally swapping adjacent pairs;
/// the engines' sleep rule defers a strict subset of what it licenses
/// (inert deliveries), leaning on the additional park-substitution argument
/// documented at module level.
///
/// The relation is symmetric and irreflexive, and it is *conditional*:
/// the same pair of steps may be independent at one state and dependent at
/// another (a stale delivery commutes only until its value comes back into
/// expectation).
pub fn steps_independent_at(
    sys: &System,
    cfg: &ExploreConfig,
    a: ScheduleStep,
    b: ScheduleStep,
) -> bool {
    if sys.uses_ghosts() || a == b {
        return false;
    }
    let (Some(act_a), Some(act_b)) = (resolve(sys, cfg, a), resolve(sys, cfg, b)) else {
        return false;
    };
    if act_a == act_b {
        return false;
    }
    action_pair_independent(sys, cfg, act_a, act_b)
        || action_pair_independent(sys, cfg, act_b, act_a)
}

/// Packet value an action consumes from the pool, if any.
fn consumed_value(action: Action) -> Option<Packet> {
    match action {
        Action::Deliver(p) | Action::DropOldest(p) => Some(p),
        Action::SendMsg | Action::StepPark => None,
    }
}

/// One-directional check: is `t` a channel-invisible action that commutes
/// with `other` at `sys`? (The public relation tries both orientations.)
fn action_pair_independent(sys: &System, cfg: &ExploreConfig, t: Action, other: Action) -> bool {
    // The pair must not compete for the same packet value: consuming
    // actions on one value are totally ordered by copy age.
    if let (Some(p), Some(q)) = (consumed_value(t), consumed_value(other)) {
        if p == q {
            return false;
        }
    }
    match t {
        // A drop touches only the channel — no tick, no automaton
        // transition — so it commutes with anything off its value. (Under
        // lossy FIFO a drop can only *enable* other deliveries: removing
        // copies never increases anyone's older-copy count.)
        Action::DropOldest(_) => true,
        // An inert delivery commutes with `other` when (a) `other` leaves
        // the transmitter's state unchanged, so the tick embedded in
        // the delivery mints the same retransmission on both sides of the
        // swap, (b) the delivery is still inert after `other`, and (c)
        // `other` is still enabled after the delivery — the delivery's
        // embedded tick can refill the pool to its bound and disable
        // `park`, making the swapped order unrunnable. All three are
        // checked by trial application at this state.
        Action::Deliver(_) => {
            cfg.discipline == Discipline::NonFifo
                && trial_inert(sys, t)
                && tx_preserving(sys, other)
                && inert_after(sys, cfg, other, t)
                && enabled_after(sys, cfg, t, other)
        }
        Action::SendMsg | Action::StepPark => false,
    }
}

/// True when applying `action` leaves the transmitter's state unchanged.
fn tx_preserving(sys: &System, action: Action) -> bool {
    let mut probe = sys.clone();
    crate::explore::apply(&mut probe, action);
    probe.tx.same_state(sys.tx.as_ref())
}

/// True when `t` is still enabled and inert after `first` runs at `sys`.
fn inert_after(sys: &System, cfg: &ExploreConfig, first: Action, t: Action) -> bool {
    let mut probe = sys.clone();
    crate::explore::apply(&mut probe, first);
    resolve_action(&probe, cfg, t) && trial_inert(&probe, t)
}

/// True when `other` is still enabled after `first` runs at `sys`.
fn enabled_after(sys: &System, cfg: &ExploreConfig, first: Action, other: Action) -> bool {
    let mut probe = sys.clone();
    crate::explore::apply(&mut probe, first);
    resolve_action(&probe, cfg, other)
}

/// True when `t` is in the enabled set of `sys`.
fn resolve_action(sys: &System, cfg: &ExploreConfig, t: Action) -> bool {
    enabled_actions(sys, cfg).contains(&t)
}

/// Applies `step` at `sys` if it resolves to an enabled action, returning
/// the successor. Test-support surface for the property harness: the swap
/// experiment needs to run steps without the full schedule runner's
/// park-on-deliver conventions diverging from the explorer's `apply`.
pub fn apply_step(sys: &System, cfg: &ExploreConfig, step: ScheduleStep) -> Option<System> {
    let action = resolve(sys, cfg, step)?;
    let mut next = sys.clone();
    crate::explore::apply(&mut next, action);
    Some(next)
}

/// The state key of `sys` — re-exported for the property harness, which
/// compares swap results by the same digest the engines deduplicate on.
pub fn state_digest(sys: &System) -> u64 {
    state_key(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::build_root;
    use nonfifo_protocols::{AlternatingBit, SequenceNumber};

    fn nonfifo_cfg() -> ExploreConfig {
        ExploreConfig {
            por: true,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn stale_delivery_is_inert_and_sleeps() {
        // seqnum: deliver message 0, send message 1, keep a stale copy of
        // h0 parked. Delivering the stale copy is inert: rx ignores it, tx
        // ignores the echoed ack.
        let cfg = nonfifo_cfg();
        let mut sys = build_root(&SequenceNumber::new(), &cfg, true);
        sys.send_msg();
        sys.step_park_all();
        sys.step_park_all(); // two copies of h0 parked
        let stale = sys.fwd.parked_multiset().iter().next().unwrap().0;
        sys.fwd.release_oldest_of_packet(stale);
        sys.drain_released();
        sys.step_park_all();
        sys.send_msg();
        sys.step_park_all();
        assert!(
            sys.fwd.parked_multiset().packet_copies(stale) >= 1,
            "stale copy retained"
        );

        let ctx = PorCtx::new(&sys, &cfg);
        let mut child = sys.clone();
        crate::explore::apply(&mut child, Action::Deliver(stale));
        assert!(inert(&sys, &child), "stale delivery must be inert");
        assert!(ctx.sleeps(&sys, &child, Action::Deliver(stale), &cfg));
    }

    #[test]
    fn genuine_delivery_never_sleeps() {
        let cfg = nonfifo_cfg();
        let mut sys = build_root(&SequenceNumber::new(), &cfg, true);
        sys.send_msg();
        sys.step_park_all();
        let fresh = sys.fwd.parked_multiset().iter().next().unwrap().0;
        let ctx = PorCtx::new(&sys, &cfg);
        let mut child = sys.clone();
        crate::explore::apply(&mut child, Action::Deliver(fresh));
        assert!(!inert(&sys, &child), "accepted delivery moves the counters");
        assert!(!ctx.sleeps(&sys, &child, Action::Deliver(fresh), &cfg));
    }

    #[test]
    fn sleep_rule_requires_pool_slack() {
        // Build a state with a *stale* (inert) copy parked while the pool
        // sits exactly at its bound: the delivery is inert, but `park` is
        // disabled, so the sleep rule must expand it — consuming the copy
        // is the only pool-shrinking move and deferring it would lose the
        // paths that need the slack.
        let cfg = ExploreConfig {
            max_pool: 3,
            ..nonfifo_cfg()
        };
        let mut sys = build_root(&SequenceNumber::new(), &cfg, true);
        sys.send_msg();
        sys.step_park_all();
        sys.step_park_all(); // two h0 copies parked
        let stale = sys.fwd.parked_multiset().iter().next().unwrap().0;
        sys.fwd.release_oldest_of_packet(stale);
        sys.drain_released();
        sys.step_park_all(); // m0 done; one stale h0 left
        sys.send_msg();
        sys.step_park_all(); // h1 parked — pool 2
        sys.step_park_all(); // h1 again — pool 3, at the bound
        assert!(sys.fwd.in_transit_len() >= cfg.max_pool, "pool at bound");
        let ctx = PorCtx::new(&sys, &cfg);
        let mut child = sys.clone();
        crate::explore::apply(&mut child, Action::Deliver(stale));
        assert!(inert(&sys, &child), "stale delivery still inert at the cap");
        assert!(!ctx.sleeps(&sys, &child, Action::Deliver(stale), &cfg));
    }

    #[test]
    fn reduction_is_off_outside_nonfifo() {
        let cfg = ExploreConfig {
            discipline: Discipline::LossyFifo,
            ..nonfifo_cfg()
        };
        let root = build_root(&AlternatingBit::new(), &cfg, true);
        let ctx = PorCtx::new(&root, &cfg);
        assert!(!ctx.active());
        let clean = build_root(&AlternatingBit::new(), &nonfifo_cfg(), true);
        assert!(PorCtx::new(&clean, &nonfifo_cfg()).active());
    }

    #[test]
    fn independence_licenses_stale_swap_pairs_only() {
        // Same setup as the sleep test: one stale h0 copy, tx pending on
        // h1. `deliver h0` × `park` is independent; `deliver h1` (the
        // genuine one) is dependent with everything.
        let cfg = nonfifo_cfg();
        let mut sys = build_root(&SequenceNumber::new(), &cfg, true);
        sys.send_msg();
        sys.step_park_all();
        sys.step_park_all();
        let stale = sys.fwd.parked_multiset().iter().next().unwrap().0;
        sys.fwd.release_oldest_of_packet(stale);
        sys.drain_released();
        sys.step_park_all();
        sys.send_msg();
        sys.step_park_all();
        let stale_step = ScheduleStep::Deliver(stale.header());
        let fresh = sys
            .fwd
            .parked_multiset()
            .iter()
            .map(|(p, _)| p)
            .find(|p| *p != stale)
            .expect("fresh h1 copy parked");
        let fresh_step = ScheduleStep::Deliver(fresh.header());

        assert!(steps_independent_at(
            &sys,
            &cfg,
            stale_step,
            ScheduleStep::Park
        ));
        assert!(steps_independent_at(
            &sys,
            &cfg,
            ScheduleStep::Park,
            stale_step
        ));
        assert!(!steps_independent_at(
            &sys,
            &cfg,
            fresh_step,
            ScheduleStep::Park
        ));
        // The genuine delivery completes the transmitter's send, so the
        // stale delivery's embedded tick mints differently across the swap.
        assert!(!steps_independent_at(&sys, &cfg, stale_step, fresh_step));
        // Irreflexive, and unresolvable steps are never independent.
        assert!(!steps_independent_at(&sys, &cfg, stale_step, stale_step));
        let ghost_town = ScheduleStep::Deliver(nonfifo_ioa::Header::new(999));
        assert!(!steps_independent_at(&sys, &cfg, stale_step, ghost_town));
    }
}
