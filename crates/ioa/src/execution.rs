//! Recorded executions and the counters of the paper's Definition 2.

use crate::event::Event;
use crate::packet::Dir;
use std::fmt;
use std::ops::Index;

/// The action counters of Definition 2: for an execution `α`, `sm(α)` and
/// `rm(α)` count `send_msg` / `receive_msg` actions and `sp`/`rp` count
/// `send_pkt` / `receive_pkt` actions per channel direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// `sm(α)` — number of `send_msg` actions.
    pub sm: u64,
    /// `rm(α)` — number of `receive_msg` actions.
    pub rm: u64,
    /// `spᵗ→ʳ(α)` — packets sent on the forward channel.
    pub sp_fwd: u64,
    /// `rpᵗ→ʳ(α)` — packets received from the forward channel.
    pub rp_fwd: u64,
    /// `spʳ→ᵗ(α)` — packets sent on the backward channel.
    pub sp_bwd: u64,
    /// `rpʳ→ᵗ(α)` — packets received from the backward channel.
    pub rp_bwd: u64,
    /// Packets dropped on the forward channel (not in the paper's counters;
    /// kept so `in_transit` is exact for deleting channels).
    pub dropped_fwd: u64,
    /// Packets dropped on the backward channel.
    pub dropped_bwd: u64,
}

impl Counts {
    /// Packets sent in direction `dir`.
    pub fn sp(&self, dir: Dir) -> u64 {
        match dir {
            Dir::Forward => self.sp_fwd,
            Dir::Backward => self.sp_bwd,
        }
    }

    /// Packets received in direction `dir`.
    pub fn rp(&self, dir: Dir) -> u64 {
        match dir {
            Dir::Forward => self.rp_fwd,
            Dir::Backward => self.rp_bwd,
        }
    }

    /// Packets dropped in direction `dir`.
    pub fn dropped(&self, dir: Dir) -> u64 {
        match dir {
            Dir::Forward => self.dropped_fwd,
            Dir::Backward => self.dropped_bwd,
        }
    }

    /// Packets currently delayed on the channel in direction `dir`:
    /// `sp − rp − dropped`. This is the quantity Theorem 4.1's `P_f`
    /// boundness is a function of.
    pub fn in_transit(&self, dir: Dir) -> u64 {
        self.sp(dir) - self.rp(dir) - self.dropped(dir)
    }

    fn apply(&mut self, event: &Event) {
        match *event {
            Event::SendMsg(_) => self.sm += 1,
            Event::ReceiveMsg(_) => self.rm += 1,
            Event::SendPkt { dir, .. } => match dir {
                Dir::Forward => self.sp_fwd += 1,
                Dir::Backward => self.sp_bwd += 1,
            },
            Event::ReceivePkt { dir, .. } => match dir {
                Dir::Forward => self.rp_fwd += 1,
                Dir::Backward => self.rp_bwd += 1,
            },
            Event::DropPkt { dir, .. } => match dir {
                Dir::Forward => self.dropped_fwd += 1,
                Dir::Backward => self.dropped_bwd += 1,
            },
        }
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sm={} rm={} sp[t→r]={} rp[t→r]={} sp[r→t]={} rp[r→t]={}",
            self.sm, self.rm, self.sp_fwd, self.rp_fwd, self.sp_bwd, self.rp_bwd
        )
    }
}

/// A recorded execution: a sequence of [`Event`]s with incrementally
/// maintained [`Counts`].
///
/// Executions can grow large; the simulation engine offers a counters-only
/// mode, but the adversary constructions record full executions because their
/// *output* is an execution (the invalid execution the theorems promise).
///
/// For workloads that clone executions by the million — the parallel
/// state-space explorer clones the whole composed system once per expanded
/// edge — [`counts_only`](Execution::counts_only) builds an execution that
/// maintains the counters but discards the events, making `clone` O(1)
/// instead of O(events). Violating paths are then re-materialised by
/// replaying the adversary schedule from scratch.
///
/// # Example
///
/// ```
/// use nonfifo_ioa::{Dir, Event, Execution, Message};
///
/// let mut exec = Execution::new();
/// exec.push(Event::SendMsg(Message::identical(0)));
/// assert_eq!(exec.counts().sm, 1);
/// assert_eq!(exec.counts().in_transit(Dir::Forward), 0);
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Execution {
    events: Vec<Event>,
    counts: Counts,
    counts_only: bool,
}

impl Clone for Execution {
    fn clone(&self) -> Self {
        Execution {
            events: self.events.clone(),
            counts: self.counts,
            counts_only: self.counts_only,
        }
    }

    /// Fieldwise `clone_from` so pooled clones reuse the event buffer.
    fn clone_from(&mut self, source: &Self) {
        self.events.clone_from(&source.events);
        self.counts = source.counts;
        self.counts_only = source.counts_only;
    }
}

impl Execution {
    /// Creates an empty execution.
    pub fn new() -> Self {
        Execution::default()
    }

    /// Creates an empty execution with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Execution {
            events: Vec::with_capacity(cap),
            counts: Counts::default(),
            counts_only: false,
        }
    }

    /// Creates an execution that maintains [`Counts`] but stores no events:
    /// `push` updates the counters and drops the event, so `clone` stays
    /// O(1) however long the run. `len`/`iter`/`events` see an empty event
    /// list.
    pub fn counts_only() -> Self {
        Execution {
            events: Vec::new(),
            counts: Counts::default(),
            counts_only: true,
        }
    }

    /// True if this execution discards events and keeps only counters.
    pub fn is_counts_only(&self) -> bool {
        self.counts_only
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.counts.apply(&event);
        if !self.counts_only {
            self.events.push(event);
        }
    }

    /// The Definition 2 counters for the whole execution.
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Sets the counters of a [counts-only](Execution::counts_only)
    /// execution, as if events with those tallies had been pushed. The
    /// explorer restores its frontier systems from stored records with it.
    ///
    /// # Panics
    ///
    /// Panics on an execution that keeps its events: its log and its
    /// counters would disagree.
    pub fn restore_counts(&mut self, counts: Counts) {
        assert!(self.counts_only, "restore_counts on a logged execution");
        self.counts = counts;
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// The events as a slice.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Returns the execution consisting of the first `len` events.
    pub fn prefix(&self, len: usize) -> Execution {
        let mut out = Execution::with_capacity(len);
        for e in &self.events[..len] {
            out.push(*e);
        }
        out
    }

    /// Appends all events of `other` (the concatenation `α β` used
    /// throughout the paper's proofs).
    pub fn extend_from(&mut self, other: &Execution) {
        for e in other.iter() {
            self.push(*e);
        }
    }

    /// Index of the last `send_msg` event, if any.
    pub fn last_send_msg_index(&self) -> Option<usize> {
        self.events.iter().rposition(Event::is_send_msg)
    }

    /// A compact multi-line rendering for diagnostics (one event per line,
    /// truncated to the final `max` events).
    pub fn render_tail(&self, max: usize) -> String {
        use fmt::Write as _;
        let start = self.events.len().saturating_sub(max);
        let mut out = String::new();
        if start > 0 {
            let _ = writeln!(out, "… ({start} earlier events)");
        }
        for (i, e) in self.events.iter().enumerate().skip(start) {
            let _ = writeln!(out, "{i:>6}: {e}");
        }
        out
    }
}

impl Index<usize> for Execution {
    type Output = Event;

    fn index(&self, i: usize) -> &Event {
        &self.events[i]
    }
}

impl Extend<Event> for Execution {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

impl FromIterator<Event> for Execution {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        let mut exec = Execution::new();
        exec.extend(iter);
        exec
    }
}

impl<'a> IntoIterator for &'a Execution {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::packet::{CopyId, Header, Packet};

    fn send(h: u32, c: u64) -> Event {
        Event::SendPkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(h)),
            copy: CopyId::from_raw(c),
        }
    }

    fn recv(h: u32, c: u64) -> Event {
        Event::ReceivePkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(h)),
            copy: CopyId::from_raw(c),
        }
    }

    #[test]
    fn counts_track_definition_2() {
        let mut exec = Execution::new();
        exec.push(Event::SendMsg(Message::identical(0)));
        exec.push(send(0, 1));
        exec.push(send(0, 2));
        exec.push(recv(0, 1));
        exec.push(Event::ReceiveMsg(Message::identical(0)));
        let c = exec.counts();
        assert_eq!((c.sm, c.rm), (1, 1));
        assert_eq!((c.sp_fwd, c.rp_fwd), (2, 1));
        assert_eq!(c.in_transit(Dir::Forward), 1);
        assert_eq!(c.in_transit(Dir::Backward), 0);
    }

    #[test]
    fn drop_reduces_in_transit() {
        let mut exec = Execution::new();
        exec.push(send(0, 1));
        exec.push(Event::DropPkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(1),
        });
        assert_eq!(exec.counts().in_transit(Dir::Forward), 0);
    }

    #[test]
    fn prefix_recomputes_counts() {
        let mut exec = Execution::new();
        exec.push(Event::SendMsg(Message::identical(0)));
        exec.push(send(0, 1));
        exec.push(recv(0, 1));
        let p = exec.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.counts().rp_fwd, 0);
        assert_eq!(p.counts().sp_fwd, 1);
    }

    #[test]
    fn concatenation_matches_paper_notation() {
        let alpha: Execution = vec![Event::SendMsg(Message::identical(0))]
            .into_iter()
            .collect();
        let beta: Execution = vec![send(0, 1), recv(0, 1)].into_iter().collect();
        let mut alpha_beta = alpha.clone();
        alpha_beta.extend_from(&beta);
        assert_eq!(alpha_beta.len(), 3);
        assert_eq!(alpha_beta.counts().sm, 1);
        assert_eq!(alpha_beta.counts().rp_fwd, 1);
    }

    #[test]
    fn last_send_msg_index_finds_the_pending_message() {
        let mut exec = Execution::new();
        assert_eq!(exec.last_send_msg_index(), None);
        exec.push(Event::SendMsg(Message::identical(0)));
        exec.push(send(0, 1));
        exec.push(Event::SendMsg(Message::identical(1)));
        exec.push(send(0, 2));
        assert_eq!(exec.last_send_msg_index(), Some(2));
    }

    #[test]
    fn render_tail_truncates() {
        let mut exec = Execution::new();
        for i in 0..10 {
            exec.push(send(0, i));
        }
        let s = exec.render_tail(3);
        assert!(s.starts_with("… (7 earlier events)"));
        assert_eq!(s.lines().count(), 4);
    }
}
