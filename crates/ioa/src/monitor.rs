//! An incremental specification monitor for long-running simulations.
//!
//! [`crate::spec`] checks a recorded [`Execution`](crate::Execution) after
//! the fact; this monitor checks PL1 and the identical-message form of
//! DL1/DL2 *online*, without retaining the trace. PL1 needs the fate of
//! every copy ever sent (a receipt after a delivery or a drop is a
//! violation), so by default the monitor keeps one entry per sent copy:
//! space is O(copies sent), not O(in transit). The entries live in flat
//! per-direction tables ordered by copy id, which makes the common insert a
//! `push`, a lookup a binary search, and copying a monitor a `memcpy`.
//!
//! A monitor switched to [`live_copies_only`](SpecMonitor::live_copies_only)
//! forgets a copy once it is delivered or dropped, so its tables hold
//! exactly the copies in transit: space is O(in transit). Its verdict is the
//! same — a receipt of any copy not in transit is still a PL1 violation,
//! latched at the same event — but it no longer knows *why* the copy is
//! missing, so it reports [`UnsentDelivery`](SpecViolation::UnsentDelivery)
//! where the full monitor says
//! [`DuplicateDelivery`](SpecViolation::DuplicateDelivery) or
//! [`DeliveredAfterDrop`](SpecViolation::DeliveredAfterDrop). The state-space
//! explorer's counts-only systems run this mode; every counterexample it
//! reports is replayed on a fully logged system under the full monitor.

use crate::event::Event;
use crate::packet::{CopyId, Dir, Packet};
use crate::spec::SpecViolation;

#[derive(Debug, Clone, Copy, PartialEq)]
enum CopyState {
    Sent(Packet),
    Delivered,
    Dropped,
}

/// The fate of every copy seen in one direction, kept sorted by copy id.
///
/// Channels mint copy ids in ascending order, so a new copy almost always
/// lands past the last entry, found without a search, and
/// [`set`](CopyTable::set) appends it; only ids from a separate range (the
/// chaos layer's twins, minted from `CHAOS_COPY_BASE`) arrive out of order
/// and take the binary-search insert. A flat vector of `Copy` pairs also makes `clone_from` a plain
/// copy into the target's buffer: no rehash, and no allocation once the
/// target has held a table this large.
#[derive(Debug, Clone, Default)]
struct CopyTable(Vec<(CopyId, CopyState)>);

impl CopyTable {
    fn find(&self, copy: CopyId) -> Result<usize, usize> {
        match self.0.last() {
            Some(&(last, _)) if last < copy => Err(self.0.len()),
            _ => self.0.binary_search_by_key(&copy, |&(id, _)| id),
        }
    }

    /// Records `state` for `copy`, replacing any earlier entry.
    fn set(&mut self, copy: CopyId, state: CopyState) {
        match self.find(copy) {
            Ok(i) => self.0[i].1 = state,
            Err(i) => self.0.insert(i, (copy, state)),
        }
    }

    /// Forgets `copy`, if present.
    fn remove(&mut self, copy: CopyId) {
        if let Ok(i) = self.find(copy) {
            self.0.remove(i);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<(CopyId, CopyState)>()
    }
}

/// Online checker for PL1 (both directions) and the prefix-count form of
/// DL1 (`rm ≤ sm` at every prefix — exact for the identical-message model).
///
/// # Example
///
/// ```
/// use nonfifo_ioa::{Event, Message, SpecMonitor};
///
/// let mut mon = SpecMonitor::new();
/// mon.observe(&Event::SendMsg(Message::identical(0))).unwrap();
/// mon.observe(&Event::ReceiveMsg(Message::identical(0))).unwrap();
/// // A second delivery with no matching send violates DL1.
/// assert!(mon.observe(&Event::ReceiveMsg(Message::identical(1))).is_err());
/// ```
#[derive(Debug, Default)]
pub struct SpecMonitor {
    copies_fwd: CopyTable,
    copies_bwd: CopyTable,
    sm: u64,
    rm: u64,
    events_seen: u64,
    first_violation: Option<SpecViolation>,
    convergence_mode: bool,
    overdeliveries: u64,
    last_overdelivery_index: Option<usize>,
    live_copies_only: bool,
}

impl Clone for SpecMonitor {
    fn clone(&self) -> Self {
        SpecMonitor {
            copies_fwd: self.copies_fwd.clone(),
            copies_bwd: self.copies_bwd.clone(),
            sm: self.sm,
            rm: self.rm,
            events_seen: self.events_seen,
            first_violation: self.first_violation,
            convergence_mode: self.convergence_mode,
            overdeliveries: self.overdeliveries,
            last_overdelivery_index: self.last_overdelivery_index,
            live_copies_only: self.live_copies_only,
        }
    }

    /// Fieldwise `clone_from` so monitor clones in the explorer's pooled
    /// systems copy the tables into the buffers they already own. It goes
    /// through the inner vectors: `CopyTable`'s derived `clone_from` would
    /// allocate a fresh one.
    fn clone_from(&mut self, source: &Self) {
        self.copies_fwd.0.clone_from(&source.copies_fwd.0);
        self.copies_bwd.0.clone_from(&source.copies_bwd.0);
        self.sm = source.sm;
        self.rm = source.rm;
        self.events_seen = source.events_seen;
        self.first_violation = source.first_violation;
        self.convergence_mode = source.convergence_mode;
        self.overdeliveries = source.overdeliveries;
        self.last_overdelivery_index = source.last_overdelivery_index;
        self.live_copies_only = source.live_copies_only;
    }
}

impl SpecMonitor {
    /// Creates a monitor with no observed events.
    pub fn new() -> Self {
        SpecMonitor::default()
    }

    /// Creates a monitor in *convergence mode*, for runs started from a
    /// corrupted state.
    ///
    /// PL1 stays fatal — the physical layer is not what corruption excuses,
    /// and chaos fault plans must remain checkable — but the prefix-count
    /// form of DL1 (`rm ≤ sm`) is *tracked* rather than latched: a run from
    /// a poisoned state legitimately drains phantom deliveries before it
    /// stabilizes, and once `rm > sm` the prefix counts never recover, so
    /// latching would condemn every corrupted start unconditionally.
    /// Convergence is instead judged after the fact by
    /// [`ConvergenceSpec`](crate::spec::ConvergenceSpec) on the retained
    /// execution; the monitor exposes
    /// [`overdeliveries`](Self::overdeliveries) and
    /// [`last_overdelivery_index`](Self::last_overdelivery_index) as cheap
    /// online diagnostics.
    pub fn convergence() -> Self {
        SpecMonitor {
            convergence_mode: true,
            ..SpecMonitor::default()
        }
    }

    /// Switches to *live-copies* mode: a delivered or dropped copy's entry
    /// is removed rather than kept, so the tables hold only the copies in
    /// transit. Violations are latched at the same events as in full mode;
    /// only the PL1 variant can differ, `UnsentDelivery` standing in for
    /// `DuplicateDelivery` and `DeliveredAfterDrop`.
    ///
    /// # Panics
    ///
    /// Panics if any event has already been observed — forgetting copies
    /// mid-run would leave settled entries behind.
    pub fn live_copies_only(mut self) -> Self {
        assert_eq!(
            self.events_seen, 0,
            "live_copies_only after events were observed"
        );
        self.live_copies_only = true;
        self
    }

    /// Copies this monitor currently holds an entry for in direction `dir`:
    /// every copy ever sent there in full mode, only the copies in transit
    /// in [live-copies](Self::live_copies_only) mode.
    pub fn tracked_copies(&self, dir: Dir) -> usize {
        match dir {
            Dir::Forward => self.copies_fwd.0.len(),
            Dir::Backward => self.copies_bwd.0.len(),
        }
    }

    /// True for a [live-copies](Self::live_copies_only) monitor, outside
    /// convergence mode, with no violation latched and no backward copy in
    /// transit: its whole state is then the `sm`/`rm`/event counters and
    /// the forward copies in transit, which is what
    /// [`restore_at_rest`](Self::restore_at_rest) takes back.
    pub fn is_at_rest(&self) -> bool {
        self.live_copies_only
            && !self.convergence_mode
            && self.first_violation.is_none()
            && self.copies_bwd.0.is_empty()
    }

    /// Puts a live-copies monitor into the [at-rest](Self::is_at_rest)
    /// state with the given counters and forward copies in transit, which
    /// must come in ascending copy-id order. The tables keep their
    /// buffers, so refilling a warm monitor does not allocate.
    ///
    /// # Panics
    ///
    /// Panics on a monitor that keeps settled copies, or in convergence
    /// mode: neither state is made of these parts alone.
    pub fn restore_at_rest(
        &mut self,
        sm: u64,
        rm: u64,
        events_seen: u64,
        forward: impl IntoIterator<Item = (Packet, CopyId)>,
    ) {
        assert!(
            self.live_copies_only && !self.convergence_mode,
            "restore_at_rest needs a live-copies monitor"
        );
        self.copies_fwd.0.clear();
        self.copies_fwd.0.extend(
            forward
                .into_iter()
                .map(|(packet, copy)| (copy, CopyState::Sent(packet))),
        );
        debug_assert!(
            self.copies_fwd.0.windows(2).all(|w| w[0].0 < w[1].0),
            "forward copies out of mint order"
        );
        self.copies_bwd.0.clear();
        self.sm = sm;
        self.rm = rm;
        self.events_seen = events_seen;
        self.first_violation = None;
    }

    /// Heap bytes reserved by the copy tables.
    pub fn heap_bytes(&self) -> usize {
        self.copies_fwd.heap_bytes() + self.copies_bwd.heap_bytes()
    }

    /// True if this monitor tracks rather than latches DL overdeliveries.
    pub fn is_convergence_mode(&self) -> bool {
        self.convergence_mode
    }

    /// Convergence mode only: number of `receive_msg` events observed while
    /// `rm > sm` (phantom deliveries drained from the corrupted state).
    pub fn overdeliveries(&self) -> u64 {
        self.overdeliveries
    }

    /// Convergence mode only: event index of the most recent overdelivery —
    /// a lower bound on where a legal suffix can start.
    pub fn last_overdelivery_index(&self) -> Option<usize> {
        self.last_overdelivery_index
    }

    /// Number of events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The first violation observed, if any (also returned by the failing
    /// [`observe`](Self::observe) call).
    pub fn first_violation(&self) -> Option<SpecViolation> {
        self.first_violation
    }

    /// `sm − rm`: messages accepted but not yet delivered.
    pub fn outstanding_messages(&self) -> u64 {
        self.sm - self.rm.min(self.sm)
    }

    /// `sm`: messages accepted from the higher layer so far.
    pub fn messages_sent(&self) -> u64 {
        self.sm
    }

    /// `rm`: messages delivered to the higher layer so far.
    pub fn messages_delivered(&self) -> u64 {
        self.rm
    }

    /// Feeds one event to the monitor.
    ///
    /// # Errors
    ///
    /// Returns the violation if this event breaks PL1 or prefix-DL1. The
    /// monitor latches the first violation but keeps accepting events, so a
    /// caller may continue a run for diagnostics.
    pub fn observe(&mut self, event: &Event) -> Result<(), SpecViolation> {
        self.events_seen += 1;
        let result = self.observe_inner(event);
        if let Err(v) = result {
            self.first_violation.get_or_insert(v);
            return Err(v);
        }
        Ok(())
    }

    fn copies(&mut self, dir: Dir) -> &mut CopyTable {
        match dir {
            Dir::Forward => &mut self.copies_fwd,
            Dir::Backward => &mut self.copies_bwd,
        }
    }

    fn observe_inner(&mut self, event: &Event) -> Result<(), SpecViolation> {
        match *event {
            Event::SendMsg(_) => {
                self.sm += 1;
                Ok(())
            }
            Event::ReceiveMsg(_) => {
                self.rm += 1;
                if self.rm > self.sm {
                    let event_index = (self.events_seen - 1) as usize;
                    if self.convergence_mode {
                        self.overdeliveries += 1;
                        self.last_overdelivery_index = Some(event_index);
                        Ok(())
                    } else {
                        Err(SpecViolation::MessageInvented { event_index })
                    }
                } else {
                    Ok(())
                }
            }
            Event::SendPkt { dir, packet, copy } => {
                self.copies(dir).set(copy, CopyState::Sent(packet));
                Ok(())
            }
            Event::ReceivePkt { dir, packet, copy } => {
                let live_only = self.live_copies_only;
                let table = self.copies(dir);
                let Ok(i) = table.find(copy) else {
                    return Err(SpecViolation::UnsentDelivery { dir, copy });
                };
                match table.0[i].1 {
                    CopyState::Delivered => Err(SpecViolation::DuplicateDelivery { dir, copy }),
                    CopyState::Dropped => Err(SpecViolation::DeliveredAfterDrop { dir, copy }),
                    CopyState::Sent(sent) if sent != packet => {
                        Err(SpecViolation::CorruptedDelivery { dir, copy })
                    }
                    CopyState::Sent(_) if live_only => {
                        table.0.remove(i);
                        Ok(())
                    }
                    CopyState::Sent(_) => {
                        table.0[i].1 = CopyState::Delivered;
                        Ok(())
                    }
                }
            }
            Event::DropPkt { dir, copy, .. } => {
                if self.live_copies_only {
                    self.copies(dir).remove(copy);
                } else {
                    self.copies(dir).set(copy, CopyState::Dropped);
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::packet::Header;

    fn sp(c: u64) -> Event {
        Event::SendPkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(c),
        }
    }

    fn rp(c: u64) -> Event {
        Event::ReceivePkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(c),
        }
    }

    #[test]
    fn accepts_matched_stream() {
        let mut mon = SpecMonitor::new();
        for e in [sp(1), sp(2), rp(2), rp(1)] {
            mon.observe(&e).expect("ok");
        }
        assert_eq!(mon.events_seen(), 4);
        assert_eq!(mon.first_violation(), None);
    }

    #[test]
    fn latches_first_violation_but_keeps_running() {
        let mut mon = SpecMonitor::new();
        mon.observe(&sp(1)).unwrap();
        mon.observe(&rp(1)).unwrap();
        let v = mon.observe(&rp(1)).unwrap_err();
        assert!(matches!(v, SpecViolation::DuplicateDelivery { .. }));
        // Still accepts further (fine) events.
        mon.observe(&sp(2)).unwrap();
        assert_eq!(mon.first_violation(), Some(v));
    }

    #[test]
    fn prefix_dl1() {
        let mut mon = SpecMonitor::new();
        mon.observe(&Event::SendMsg(Message::identical(0))).unwrap();
        assert_eq!(mon.outstanding_messages(), 1);
        mon.observe(&Event::ReceiveMsg(Message::identical(0)))
            .unwrap();
        assert_eq!(mon.outstanding_messages(), 0);
        assert!(mon
            .observe(&Event::ReceiveMsg(Message::identical(1)))
            .is_err());
    }

    #[test]
    fn convergence_mode_tracks_overdeliveries_without_latching() {
        let mut mon = SpecMonitor::convergence();
        assert!(mon.is_convergence_mode());
        // Phantom deliveries from a corrupted start: tracked, not fatal.
        mon.observe(&Event::ReceiveMsg(Message::identical(90)))
            .unwrap();
        mon.observe(&Event::ReceiveMsg(Message::identical(91)))
            .unwrap();
        assert_eq!(mon.overdeliveries(), 2);
        assert_eq!(mon.last_overdelivery_index(), Some(1));
        assert_eq!(mon.first_violation(), None);
        // PL1 stays fatal even in convergence mode.
        assert!(mon.observe(&rp(1)).is_err());
        assert!(mon.first_violation().is_some());
    }

    #[test]
    fn convergence_mode_counts_continuing_overdelivery() {
        // rm stays ahead of sm: every further delivery while rm > sm counts.
        let mut mon = SpecMonitor::convergence();
        mon.observe(&Event::ReceiveMsg(Message::identical(0)))
            .unwrap();
        mon.observe(&Event::SendMsg(Message::identical(0))).unwrap();
        mon.observe(&Event::ReceiveMsg(Message::identical(0)))
            .unwrap();
        assert_eq!(mon.overdeliveries(), 2);
        assert_eq!(mon.last_overdelivery_index(), Some(2));
    }

    #[test]
    fn directions_are_independent() {
        let mut mon = SpecMonitor::new();
        mon.observe(&sp(7)).unwrap();
        // Same copy id on the other direction was never sent there.
        let e = Event::ReceivePkt {
            dir: Dir::Backward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(7),
        };
        assert!(mon.observe(&e).is_err());
    }
}
