//! An incremental specification monitor for long-running simulations.
//!
//! [`crate::spec`] checks a recorded [`Execution`](crate::Execution) after
//! the fact; this monitor checks PL1 and the identical-message form of
//! DL1/DL2 *online*, without retaining the trace. PL1 needs the fate of
//! every copy ever sent (a receipt after a delivery or a drop is a
//! violation), but only a copy in transit needs its packet. So each
//! direction keeps two flat tables: the copies in transit with their
//! packets, a [`CopyTable`] ordered by copy id (the same table a channel
//! keeps its delayed pool in), and a *settled record* of two bits per
//! delivered or dropped copy, packed into 64-id words. Space is 12 bytes
//! per header-only copy in transit (32 once a copy carries a payload)
//! plus two bits per settled copy. Channels mint ids in ascending order,
//! so the common insert into either table is a `push`, a lookup a binary
//! search, and copying a monitor a `memcpy`.
//!
//! A monitor switched to [`live_copies_only`](SpecMonitor::live_copies_only)
//! keeps no settled records (the one box that would hold them is absent),
//! so its tables hold exactly the copies in transit. Its verdict is the
//! same — a receipt of any copy not in transit is still a PL1 violation,
//! latched at the same event — but it no longer knows *why* the copy is
//! missing, so it reports [`UnsentDelivery`](SpecViolation::UnsentDelivery)
//! where the full monitor says
//! [`DuplicateDelivery`](SpecViolation::DuplicateDelivery) or
//! [`DeliveredAfterDrop`](SpecViolation::DeliveredAfterDrop). The state-space
//! explorer's counts-only systems run this mode; every counterexample it
//! reports is replayed on a fully logged system under the full monitor.

use crate::copy_table::CopyTable;
use crate::event::Event;
use crate::packet::{CopyId, Dir};
use crate::spec::SpecViolation;

/// How a settled copy left the channel.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Delivered,
    Dropped,
}

/// The settled copies among the 64 ids `64 * word ..= 64 * word + 63`: bit
/// `id % 64` of `delivered` or of `dropped` is set for a copy settled that
/// way, and at most one of the two is set for an id.
#[derive(Debug, Clone, Copy)]
struct SettledWord {
    word: u64,
    delivered: u64,
    dropped: u64,
}

/// One direction's settled copies, two bits each, in words sorted by
/// `word`. A copy is settled or in transit, never both. Sends and
/// settlements both run in mint order, so they almost always touch the
/// last word or append one; the chaos range's ids get their own words at
/// the tail.
#[derive(Debug, Clone, Default)]
struct SettledRecord(Vec<SettledWord>);

/// The word and the bit of `copy` in a settled record.
fn word_and_bit(copy: CopyId) -> (u64, u64) {
    (copy.raw() >> 6, 1 << (copy.raw() & 63))
}

impl SettledRecord {
    /// Position of `word`, or where it would go. The last word is checked
    /// first: every fresh id and most settling ones fall in or past it.
    fn find(&self, word: u64) -> Result<usize, usize> {
        match self.0.last() {
            Some(last) if last.word < word => Err(self.0.len()),
            Some(last) if last.word == word => Ok(self.0.len() - 1),
            _ => self.0.binary_search_by_key(&word, |w| w.word),
        }
    }

    /// Forgets any fate of `copy`: it has been sent again.
    fn unsettle(&mut self, copy: CopyId) {
        let (word, bit) = word_and_bit(copy);
        if let Ok(i) = self.find(word) {
            self.0[i].delivered &= !bit;
            self.0[i].dropped &= !bit;
        }
    }

    /// Records `fate` for `copy`, replacing any earlier fate.
    fn settle(&mut self, copy: CopyId, fate: Fate) {
        let (word, bit) = word_and_bit(copy);
        let i = self.find(word).unwrap_or_else(|i| {
            let empty = SettledWord {
                word,
                delivered: 0,
                dropped: 0,
            };
            self.0.insert(i, empty);
            i
        });
        let w = &mut self.0[i];
        let (set, clear) = match fate {
            Fate::Delivered => (&mut w.delivered, &mut w.dropped),
            Fate::Dropped => (&mut w.dropped, &mut w.delivered),
        };
        *set |= bit;
        *clear &= !bit;
    }

    /// The fate of `copy`; `None` if it was never settled, or sent since.
    fn fate(&self, copy: CopyId) -> Option<Fate> {
        let (word, bit) = word_and_bit(copy);
        let w = self.0[self.find(word).ok()?];
        if w.delivered & bit != 0 {
            Some(Fate::Delivered)
        } else if w.dropped & bit != 0 {
            Some(Fate::Dropped)
        } else {
            None
        }
    }

    /// Number of settled copies.
    fn len(&self) -> usize {
        self.0
            .iter()
            .map(|w| (w.delivered | w.dropped).count_ones() as usize)
            .sum()
    }

    fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<SettledWord>()
    }
}

/// The forward and the backward settled record, in one box, so that a
/// live-copies monitor, which keeps none, pays one null pointer for them.
type SettledRecords = Box<[SettledRecord; 2]>;

/// Convergence mode's tally of the deliveries made while `rm > sm`. One
/// option in place of a mode flag and two fields: with it, the box above
/// leaves the monitor, which every explorer `System` embeds, at its size.
#[derive(Debug, Clone, Copy, Default)]
struct Overdeliveries {
    count: u64,
    last_index: Option<usize>,
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
#[derive(Debug)]
pub struct SpecMonitor {
    copies_fwd: CopyTable,
    copies_bwd: CopyTable,
    /// The settled records, indexed by `Dir as usize`; `None` in
    /// live-copies mode.
    settled: Option<SettledRecords>,
    sm: u64,
    rm: u64,
    events_seen: u64,
    first_violation: Option<SpecViolation>,
    /// `Some` in convergence mode.
    convergence: Option<Overdeliveries>,
}

impl Default for SpecMonitor {
    fn default() -> Self {
        SpecMonitor {
            copies_fwd: CopyTable::default(),
            copies_bwd: CopyTable::default(),
            settled: Some(SettledRecords::default()),
            sm: 0,
            rm: 0,
            events_seen: 0,
            first_violation: None,
            convergence: None,
        }
    }
}

impl Clone for SpecMonitor {
    fn clone(&self) -> Self {
        SpecMonitor {
            copies_fwd: self.copies_fwd.clone(),
            copies_bwd: self.copies_bwd.clone(),
            settled: self.settled.clone(),
            sm: self.sm,
            rm: self.rm,
            events_seen: self.events_seen,
            first_violation: self.first_violation,
            convergence: self.convergence,
        }
    }

    /// Fieldwise `clone_from` so monitor clones in the explorer's pooled
    /// systems copy the tables into the buffers they already own. It goes
    /// through the settled records' inner vectors: their derived
    /// `clone_from` would allocate fresh ones.
    fn clone_from(&mut self, source: &Self) {
        self.copies_fwd.clone_from(&source.copies_fwd);
        self.copies_bwd.clone_from(&source.copies_bwd);
        match (&mut self.settled, &source.settled) {
            (Some(to), Some(from)) => {
                for (to, from) in to.iter_mut().zip(from.iter()) {
                    to.0.clone_from(&from.0);
                }
            }
            (to, from) => *to = from.clone(),
        }
        self.sm = source.sm;
        self.rm = source.rm;
        self.events_seen = source.events_seen;
        self.first_violation = source.first_violation;
        self.convergence = source.convergence;
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
            convergence: Some(Overdeliveries::default()),
            ..SpecMonitor::default()
        }
    }

    /// Switches to *live-copies* mode: the monitor keeps no settled
    /// records, so its tables hold only the copies in transit. Violations
    /// are latched at the same events as in full mode; only the PL1 variant
    /// can differ, `UnsentDelivery` standing in for `DuplicateDelivery` and
    /// `DeliveredAfterDrop`.
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
        self.settled = None;
        self
    }

    /// Copies this monitor currently holds an entry for in direction `dir`:
    /// in full mode every copy ever sent or dropped there, those in transit
    /// at a table row each and the settled ones at two bits each; only the
    /// copies in transit in [live-copies](Self::live_copies_only) mode. In
    /// full mode this counts the settled record's bits, a walk over it.
    pub fn tracked_copies(&self, dir: Dir) -> usize {
        self.in_transit(dir).len() + self.settled.as_ref().map_or(0, |s| s[dir as usize].len())
    }

    /// True for a [live-copies](Self::live_copies_only) monitor, outside
    /// convergence mode, with no violation latched and no backward copy in
    /// transit: its whole state is then the `sm`/`rm`/event counters and
    /// the forward copies in transit, which is what
    /// [`restore_at_rest`](Self::restore_at_rest) takes back.
    pub fn is_at_rest(&self) -> bool {
        self.settled.is_none()
            && self.convergence.is_none()
            && self.first_violation.is_none()
            && self.copies_bwd.is_empty()
    }

    /// Puts a live-copies monitor into the [at-rest](Self::is_at_rest)
    /// state with the given counters and a copy of `forward` as the
    /// forward copies in transit. The tables keep their buffers, so
    /// refilling a warm monitor does not allocate.
    ///
    /// # Panics
    ///
    /// Panics on a monitor that keeps settled copies, or in convergence
    /// mode: neither state is made of these parts alone.
    pub fn restore_at_rest(&mut self, sm: u64, rm: u64, events_seen: u64, forward: &CopyTable) {
        assert!(
            self.settled.is_none() && self.convergence.is_none(),
            "restore_at_rest needs a live-copies monitor"
        );
        self.copies_fwd.clone_from(forward);
        self.copies_bwd.clear();
        self.sm = sm;
        self.rm = rm;
        self.events_seen = events_seen;
        self.first_violation = None;
    }

    /// Heap bytes reserved by the transit tables and settled records.
    pub fn heap_bytes(&self) -> usize {
        let settled = self.settled.as_ref().map_or(0, |s| {
            std::mem::size_of_val(&**s) + s.iter().map(SettledRecord::heap_bytes).sum::<usize>()
        });
        self.copies_fwd.heap_bytes() + self.copies_bwd.heap_bytes() + settled
    }

    /// The copies in transit in direction `dir`, with their packets.
    pub fn in_transit(&self, dir: Dir) -> &CopyTable {
        match dir {
            Dir::Forward => &self.copies_fwd,
            Dir::Backward => &self.copies_bwd,
        }
    }

    /// True if this monitor tracks rather than latches DL overdeliveries.
    pub fn is_convergence_mode(&self) -> bool {
        self.convergence.is_some()
    }

    /// Convergence mode only: number of `receive_msg` events observed while
    /// `rm > sm` (phantom deliveries drained from the corrupted state).
    pub fn overdeliveries(&self) -> u64 {
        self.convergence.map_or(0, |o| o.count)
    }

    /// Convergence mode only: event index of the most recent overdelivery —
    /// a lower bound on where a legal suffix can start.
    pub fn last_overdelivery_index(&self) -> Option<usize> {
        self.convergence.and_then(|o| o.last_index)
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
                    if let Some(o) = &mut self.convergence {
                        o.count += 1;
                        o.last_index = Some(event_index);
                        Ok(())
                    } else {
                        Err(SpecViolation::MessageInvented { event_index })
                    }
                } else {
                    Ok(())
                }
            }
            Event::SendPkt { dir, packet, copy } => {
                self.copies(dir).insert(copy, packet);
                if let Some(settled) = &mut self.settled {
                    settled[dir as usize].unsettle(copy);
                }
                Ok(())
            }
            Event::ReceivePkt { dir, packet, copy } => {
                let table = self.copies(dir);
                match table.find(copy) {
                    Ok(i) if table.packet_at(i) != packet => {
                        Err(SpecViolation::CorruptedDelivery { dir, copy })
                    }
                    Ok(i) => {
                        table.remove_at(i);
                        if let Some(settled) = &mut self.settled {
                            settled[dir as usize].settle(copy, Fate::Delivered);
                        }
                        Ok(())
                    }
                    Err(_) => {
                        let settled = self.settled.as_ref();
                        Err(match settled.and_then(|s| s[dir as usize].fate(copy)) {
                            Some(Fate::Delivered) => SpecViolation::DuplicateDelivery { dir, copy },
                            Some(Fate::Dropped) => SpecViolation::DeliveredAfterDrop { dir, copy },
                            None => SpecViolation::UnsentDelivery { dir, copy },
                        })
                    }
                }
            }
            Event::DropPkt { dir, copy, .. } => {
                self.copies(dir).remove(copy);
                if let Some(settled) = &mut self.settled {
                    settled[dir as usize].settle(copy, Fate::Dropped);
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
    use crate::packet::{Header, Packet, Payload};

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
    fn settled_copies_cost_bits_not_table_entries() {
        // The growth run's shape: one copy in two is delivered at once, the
        // other stays in transit. A table entry per copy sent would reserve
        // 2^18 * 32 = 8,388,608 B here; the in-transit half plus the
        // settled bits fit in about half that.
        let mut mon = SpecMonitor::new();
        for c in 0..200_000 {
            mon.observe(&sp(c)).unwrap();
            if c % 2 == 0 {
                mon.observe(&rp(c)).unwrap();
            }
        }
        assert_eq!(mon.tracked_copies(Dir::Forward), 200_000);
        assert!(
            mon.heap_bytes() < 4_500_000,
            "{} heap bytes",
            mon.heap_bytes()
        );
        // Settled copies still know their fate.
        assert!(matches!(
            mon.observe(&rp(1_000)),
            Err(SpecViolation::DuplicateDelivery { .. })
        ));
        mon.observe(&rp(1_001)).unwrap();
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn settled_records_add_nothing_to_the_monitor_itself() {
        // Every explorer `System` embeds a live-copies monitor. The settled
        // records sit behind one pointer, which is null in that mode, so
        // the monitor is as large as when it had no settled records.
        assert_eq!(std::mem::size_of::<SpecMonitor>(), 120);
        let live = SpecMonitor::new().live_copies_only();
        assert_eq!(live.heap_bytes(), 0);
    }

    fn receive(copy: u64, packet: Packet) -> Event {
        Event::ReceivePkt {
            dir: Dir::Forward,
            packet,
            copy: CopyId::from_raw(copy),
        }
    }

    #[test]
    fn a_payload_on_a_header_only_copy_is_a_corrupted_delivery() {
        let mut mon = SpecMonitor::new();
        mon.observe(&sp(1)).unwrap();
        mon.observe(&sp(2)).unwrap();
        assert!(!mon.in_transit(Dir::Forward).is_wide());
        let forged = Packet::new(Header::new(0), Payload::new(9));
        assert!(matches!(
            mon.observe(&receive(1, forged)),
            Err(SpecViolation::CorruptedDelivery { .. })
        ));
        // The copy stays in transit, and the table narrow.
        assert_eq!(mon.in_transit(Dir::Forward).len(), 2);
        assert!(!mon.in_transit(Dir::Forward).is_wide());
    }

    #[test]
    fn a_payload_copy_received_header_only_is_a_corrupted_delivery() {
        let mut mon = SpecMonitor::new().live_copies_only();
        let sent = Packet::new(Header::new(0), Payload::new(9));
        mon.observe(&sp(1)).unwrap();
        mon.observe(&Event::SendPkt {
            dir: Dir::Forward,
            packet: sent,
            copy: CopyId::from_raw(2),
        })
        .unwrap();
        assert!(mon.in_transit(Dir::Forward).is_wide());
        assert!(matches!(
            mon.observe(&rp(2)),
            Err(SpecViolation::CorruptedDelivery { .. })
        ));
        // The header-only copy beside it still matches, and the payload
        // copy is still in transit with its payload.
        mon.observe(&rp(1)).unwrap();
        assert_eq!(
            mon.in_transit(Dir::Forward).get(CopyId::from_raw(2)),
            Some(sent)
        );
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
