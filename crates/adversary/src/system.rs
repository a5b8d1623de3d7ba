//! The composed closed system under adversary control.

use nonfifo_channel::{
    corrupt_packet, AdversarialChannel, Channel, ChannelIntrospect, FaultObserver,
};
use nonfifo_ioa::{CopyId, Dir, Event, Execution, Header, Message, Packet, SpecViolation};
use nonfifo_ioa::{Counts, SpecMonitor};
use nonfifo_protocols::{
    BoxedReceiver, BoxedTransmitter, DataLink, GhostInfo, Receiver, Transmitter,
};

/// Refills `ghost` with the stale count of `fwd`: the copies it holds that
/// were minted before `watermark`, tallied by header in one pass. This is
/// the one ghost oracle: the simulator, [`System::step`] and
/// [`DominantTracker`](crate::DominantTracker) call it, for ghost-reading
/// protocols only, so every engine hands the automata the same summary.
pub fn fill_ghost<C: ChannelIntrospect + ?Sized>(
    ghost: &mut GhostInfo,
    fwd: &C,
    watermark: CopyId,
) {
    ghost.stale_fwd_by_header.clear();
    fwd.count_headers_older_than(watermark, &mut ghost.stale_fwd_by_header);
}

/// What the adversary does with a freshly sent forward packet during a
/// [`System::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Leave the copy delayed on the channel.
    Park,
    /// Deliver the copy this step.
    Deliver,
}

/// The scalars of a [`System`] at rest: everything but its two automata
/// and its parked forward pool (see [`System::rest_scalars`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RestScalars {
    /// The Definition 2 counters; the channel and monitor counters follow
    /// from them.
    pub(crate) counts: Counts,
    /// The raw stale-copy watermark.
    pub(crate) round_watermark: u64,
    /// Peak automaton space so far.
    pub(crate) peak_space: usize,
    /// The parked pool's content digest.
    pub(crate) pool_digest: u64,
}

/// Every event a system records is one of the eight counted kinds, so the
/// monitor's event count is their sum.
fn events_of(c: &Counts) -> u64 {
    c.sm + c.rm + c.sp_fwd + c.rp_fwd + c.sp_bwd + c.rp_bwd + c.dropped_fwd + c.dropped_bwd
}

/// The closed system of the paper's Figure 1 with both physical channels
/// under adversary control.
///
/// The forward channel is permanently in
/// [`DeliveryMode::Park`](nonfifo_channel::DeliveryMode::Park): every fresh
/// copy is parked, and the per-step policy decides which copies — fresh or
/// stale — are released. Acknowledgements flow immediately (the proofs never
/// need to manipulate the backward channel: in each simulation argument the
/// receiver behaves identically and re-sends its acks fresh).
///
/// Every action is recorded in an [`Execution`] and checked online by a
/// [`SpecMonitor`]; the falsifiers succeed precisely when the monitor flags
/// `rm > sm`.
#[derive(Debug)]
pub struct System {
    /// The transmitting-station automaton.
    pub tx: BoxedTransmitter,
    /// The receiving-station automaton.
    pub rx: BoxedReceiver,
    /// The forward (t→r) channel, parked by default.
    pub fwd: AdversarialChannel,
    /// The backward (r→t) channel, immediate by default.
    pub bwd: AdversarialChannel,
    exec: Execution,
    monitor: SpecMonitor,
    next_msg: u64,
    /// Forward-channel watermark at the most recent `send_msg` — copies
    /// older than this are the stale population.
    round_watermark: CopyId,
    /// How many packets the policy may pump from the transmitter per step.
    pub burst: usize,
    peak_space: usize,
    partitioned: bool,
    /// Whether the protocol consumes [`GhostInfo`]; honest protocols don't,
    /// and [`step`](System::step) skips the ghost count entirely for them.
    uses_ghosts: bool,
    /// Reusable ghost summary so the per-step count never allocates.
    ghost_scratch: GhostInfo,
}

impl Clone for System {
    fn clone(&self) -> Self {
        System {
            tx: self.tx.clone_box(),
            rx: self.rx.clone_box(),
            fwd: self.fwd.clone(),
            bwd: self.bwd.clone(),
            exec: self.exec.clone(),
            monitor: self.monitor.clone(),
            next_msg: self.next_msg,
            round_watermark: self.round_watermark,
            burst: self.burst,
            peak_space: self.peak_space,
            partitioned: self.partitioned,
            uses_ghosts: self.uses_ghosts,
            ghost_scratch: GhostInfo::default(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.assign_from(source);
    }
}

impl System {
    /// Builds the closed system for a fresh instance of `proto`.
    pub fn new(proto: &dyn DataLink) -> Self {
        let (tx, rx) = proto.make();
        System {
            tx,
            rx,
            fwd: AdversarialChannel::parked(Dir::Forward),
            bwd: AdversarialChannel::immediate(Dir::Backward),
            exec: Execution::new(),
            monitor: SpecMonitor::new(),
            next_msg: 0,
            round_watermark: CopyId::from_raw(0),
            burst: 64,
            peak_space: 0,
            partitioned: false,
            uses_ghosts: proto.uses_ghosts(),
            ghost_scratch: GhostInfo::default(),
        }
    }

    /// Copies `source`'s state into `self`, reusing every buffer this
    /// system already owns: the automata are refilled in place via
    /// [`TransmitterState::assign_from`](nonfifo_protocols::TransmitterState::assign_from)
    /// (falling back to `clone_box` on a concrete-type mismatch), and the
    /// channels, monitor, and execution reuse their allocations through
    /// `clone_from`. Both explorers refill their reused trial systems with
    /// this, which is what keeps their expansion loops off the allocator.
    pub fn assign_from(&mut self, source: &System) {
        if !self.tx.assign_from(source.tx.as_ref()) {
            self.tx = source.tx.clone_box();
        }
        if !self.rx.assign_from(source.rx.as_ref()) {
            self.rx = source.rx.clone_box();
        }
        self.fwd.clone_from(&source.fwd);
        self.bwd.clone_from(&source.bwd);
        self.exec.clone_from(&source.exec);
        self.monitor.clone_from(&source.monitor);
        self.next_msg = source.next_msg;
        self.round_watermark = source.round_watermark;
        self.burst = source.burst;
        self.peak_space = source.peak_space;
        self.partitioned = source.partitioned;
        self.uses_ghosts = source.uses_ghosts;
        // ghost_scratch is per-step scratch, not logical state: keep ours.
    }

    /// The run-varying scalars of this system, which must be *at rest*: a
    /// counts-only system ([`disable_event_log`](System::disable_event_log))
    /// with both channels' delivery queues and drop buffers empty, nothing
    /// parked on the backward channel and no violation latched. Every
    /// explorer action ends in such a state. The channel counters, the
    /// monitor's counters and the message counter are then functions of
    /// the [`Counts`], which this checks; together with the two automata
    /// and the parked pool, the scalars are the whole state
    /// ([`restore`](System::restore) takes them back).
    ///
    /// # Panics
    ///
    /// Panics if the system is not at rest or its counters disagree.
    pub(crate) fn rest_scalars(&self) -> RestScalars {
        let c = self.exec.counts();
        let channel_agrees = |ch: &AdversarialChannel, sent: u64, received: u64, dropped: u64| {
            ch.is_at_rest()
                && ch.watermark() == CopyId::from_raw(sent)
                && ch.total_sent() == sent
                && ch.total_delivered() == received
                && ch.total_dropped() == dropped
        };
        assert!(
            self.exec.is_counts_only()
                && self.monitor.is_at_rest()
                && channel_agrees(&self.fwd, c.sp_fwd, c.rp_fwd, c.dropped_fwd)
                && channel_agrees(&self.bwd, c.sp_bwd, c.rp_bwd, c.dropped_bwd)
                && self.bwd.in_transit_len() == 0
                && self.monitor.tracked_copies(Dir::Forward) == self.fwd.in_transit_len()
                && self.monitor.messages_sent() == c.sm
                && self.monitor.messages_delivered() == c.rm
                && self.monitor.events_seen() == events_of(&c)
                && self.next_msg == c.sm,
            "only a counts-only system at rest has a record"
        );
        RestScalars {
            counts: c,
            round_watermark: self.round_watermark.raw(),
            peak_space: self.peak_space,
            pool_digest: self.fwd.parked_multiset().content_hash(),
        }
    }

    /// Puts this system into the at-rest state made of the automata `tx`
    /// and `rx`, the scalars `s` ([`rest_scalars`](System::rest_scalars))
    /// and the parked forward `pool` in mint order. The live monitor's
    /// forward table is rebuilt from the pool it must equal. Run constants
    /// (burst, partition, ghost use, channel and monitor modes) are kept,
    /// so `self` must be a counts-only system of the same run. Every buffer
    /// and automaton box is reused: a warm restore does not allocate.
    pub(crate) fn restore(
        &mut self,
        tx: &dyn Transmitter,
        rx: &dyn Receiver,
        s: &RestScalars,
        pool: impl IntoIterator<Item = (Packet, CopyId)>,
    ) {
        if !self.tx.assign_from(tx) {
            self.tx = tx.clone_box();
        }
        if !self.rx.assign_from(rx) {
            self.rx = rx.clone_box();
        }
        let c = s.counts;
        self.fwd
            .restore_at_rest(c.sp_fwd, c.rp_fwd, c.dropped_fwd, pool, s.pool_digest);
        self.bwd
            .restore_at_rest(c.sp_bwd, c.rp_bwd, c.dropped_bwd, [], 0);
        self.exec.restore_counts(c);
        self.monitor
            .restore_at_rest(c.sm, c.rm, events_of(&c), self.fwd.parked_multiset().iter());
        self.next_msg = c.sm;
        self.round_watermark = CopyId::from_raw(s.round_watermark);
        self.peak_space = s.peak_space;
    }

    /// The recorded execution so far.
    pub fn execution(&self) -> &Execution {
        &self.exec
    }

    /// Makes this a counts-only system, which holds O(in flight) state, not
    /// O(history). The event log becomes a counters-only recorder
    /// ([`Execution::counts_only`]): [`counts`](System::counts) stays exact,
    /// but [`execution`](System::execution) no longer accumulates events.
    /// The monitor switches to
    /// [`live_copies_only`](SpecMonitor::live_copies_only): it still sees
    /// every event and latches every violation at the same event, but keeps
    /// entries only for the copies in transit. Copying the system then
    /// costs O(protocol state + pool) however long the run. Both explorer
    /// engines copy systems on every expanded edge and re-materialise a
    /// found execution by replaying its schedule on a logged system.
    /// [`distinct_forward_packets`](System::distinct_forward_packets) needs
    /// the log and panics on a counts-only system.
    ///
    /// # Panics
    ///
    /// Panics if any event has already been recorded — switching modes
    /// mid-run would silently truncate the log.
    pub fn disable_event_log(&mut self) {
        assert!(
            self.exec.is_empty() && self.exec.counts() == Counts::default(),
            "disable_event_log after events were recorded"
        );
        self.exec = Execution::counts_only();
        self.monitor = SpecMonitor::new().live_copies_only();
    }

    /// The Definition 2 counters of the recorded execution.
    pub fn counts(&self) -> Counts {
        self.exec.counts()
    }

    /// The first specification violation observed, if any.
    pub fn violation(&self) -> Option<SpecViolation> {
        self.monitor.first_violation()
    }

    /// Messages handed to the transmitter so far.
    pub fn messages_sent(&self) -> u64 {
        self.next_msg
    }

    /// Peak `space_bytes` observed across both automata.
    pub fn peak_space_bytes(&self) -> usize {
        self.peak_space
    }

    /// Number of distinct forward packet values sent so far — the paper's
    /// header count `|P|` for this execution — read off the event log.
    ///
    /// # Panics
    ///
    /// Panics on a counts-only system ([`disable_event_log`]), which
    /// keeps no record of the values it sent.
    ///
    /// [`disable_event_log`]: System::disable_event_log
    pub fn distinct_forward_packets(&self) -> u64 {
        assert!(
            !self.exec.is_counts_only(),
            "distinct_forward_packets on a system without an event log"
        );
        let mut values: Vec<Packet> = self
            .exec
            .iter()
            .filter_map(|event| match *event {
                Event::SendPkt {
                    dir: Dir::Forward,
                    packet,
                    ..
                } => Some(packet),
                _ => None,
            })
            .collect();
        values.sort_unstable();
        values.dedup();
        values.len() as u64
    }

    /// The watermark separating stale from current-round forward copies.
    pub fn round_watermark(&self) -> CopyId {
        self.round_watermark
    }

    /// Whether the protocol driving this system consumes [`GhostInfo`].
    /// Ghost-reading protocols observe the in-transit pool through the
    /// per-step summary, so channel-only edits are *not* invisible to them —
    /// the explorer's partial-order reduction disables itself here.
    pub fn uses_ghosts(&self) -> bool {
        self.uses_ghosts
    }

    /// True when the delayed forward copy `p` is *retired garbage*: the
    /// receiver has retired its header (it can never be delivered again)
    /// and the transmitter has retired it too (the acknowledgement the
    /// receiver would echo for it is ignored for the rest of time). Retired
    /// copies are interchangeable — only how many of them occupy pool slots
    /// matters — which is what the explorer's partial-order reduction
    /// exploits (see [`por`](crate::por)). Both claims come from the
    /// protocol ([`Transmitter::header_retired`] /
    /// [`Receiver::header_retired`]) and are conservative-by-default.
    ///
    /// [`Transmitter::header_retired`]: nonfifo_protocols::Transmitter::header_retired
    /// [`Receiver::header_retired`]: nonfifo_protocols::Receiver::header_retired
    pub fn packet_retired(&self, p: Packet) -> bool {
        self.rx.header_retired(p.header()) && self.tx.header_retired(p.header())
    }

    /// Approximate resident bytes of this system as a live value: the
    /// struct itself plus the automata's live state, the channels' reserved
    /// buffers and the monitor's copy tables. It is what one system costs
    /// while it is being worked on (a trial, an oracle queue entry); a
    /// parallel-engine frontier node at rest costs only its record, 43
    /// bytes on average at seqnum 9/26/10 (see [`crate::codec`]), which
    /// the `explore.peak_frontier_bytes` gauge counts instead. An
    /// estimate, not an accounting guarantee.
    pub fn heap_bytes_estimate(&self) -> usize {
        std::mem::size_of::<System>()
            + self.tx.space_bytes()
            + self.rx.space_bytes()
            + self.fwd.heap_bytes()
            + self.bwd.heap_bytes()
            + self.monitor.heap_bytes()
    }

    /// True when the transmitter can accept the next message.
    pub fn ready(&self) -> bool {
        self.tx.ready()
    }

    /// Hands the next (identical) message to the transmitter and marks the
    /// round boundary for staleness accounting.
    ///
    /// # Panics
    ///
    /// Panics if the transmitter is not [`ready`](System::ready).
    pub fn send_msg(&mut self) {
        assert!(self.tx.ready(), "send_msg while transmitter busy");
        self.round_watermark = self.fwd.watermark();
        let m = Message::identical(self.next_msg);
        self.next_msg += 1;
        self.record(Event::SendMsg(m));
        self.tx.on_send_msg(m.payload());
    }

    fn record(&mut self, event: Event) {
        let _ = self.monitor.observe(&event);
        self.exec.push(event);
    }

    /// Runs one scheduler step:
    ///
    /// 1. push ghost summaries and tick both automata;
    /// 2. pump up to [`burst`](System::burst) transmitter sends onto the
    ///    forward channel (parked), consulting `dispose` for each;
    /// 3. deliver everything released on the forward channel to the
    ///    receiver;
    /// 4. drain receiver deliveries and acknowledgements; acks flow to the
    ///    transmitter immediately.
    ///
    /// Returns the number of `receive_msg` actions that occurred.
    pub fn step<F>(&mut self, mut dispose: F) -> u64
    where
        F: FnMut(Packet, CopyId, &mut AdversarialChannel) -> Disposition,
    {
        if self.uses_ghosts {
            fill_ghost(&mut self.ghost_scratch, &self.fwd, self.round_watermark);
            self.tx.on_ghost(&self.ghost_scratch);
            self.rx.on_ghost(&self.ghost_scratch);
        }
        self.tx.on_tick();
        self.rx.on_tick();

        // Transmitter output.
        for _ in 0..self.burst {
            let Some(pkt) = self.tx.poll_send() else {
                break;
            };
            let copy = self.fwd.send(pkt);
            self.record(Event::SendPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
            if self.partitioned {
                // A partitioned forward channel loses every fresh copy;
                // the drop is drained (and monitored) in drain_released.
                let _ = self.fwd.drop_copy(copy);
            } else if dispose(pkt, copy, &mut self.fwd) == Disposition::Deliver {
                // Release may be a no-op if the policy already released it.
                let _ = self.fwd.release_copy(copy);
            }
        }

        self.drain_released()
    }

    /// Whether the forward channel is currently partitioned.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Partitions or heals the forward channel. While partitioned, every
    /// fresh forward copy is dropped at the moment it is sent (each drop is
    /// a monitored `DropPkt`, so the accounting stays PL1-sound). Copies
    /// already parked are unaffected — a partition severs the link, it does
    /// not flush the buffer.
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
    }

    /// The oldest delayed forward copy with header `h`, if any.
    pub fn oldest_forward_of_header(&self, h: Header) -> Option<Packet> {
        self.fwd
            .parked_multiset()
            .iter()
            .filter(|(p, _)| p.header() == h)
            .min_by_key(|&(_, c)| c)
            .map(|(p, _)| p)
    }

    /// Duplicates the oldest delayed forward copy of header `h`: a second
    /// copy of the same packet value is minted onto the channel (parked) as
    /// a monitored `SendPkt`, exactly how the chaos layer declares its
    /// duplicate twins. Returns false (no-op) if no copy of `h` is delayed.
    pub fn duplicate_oldest(&mut self, h: Header) -> bool {
        let Some(pkt) = self.oldest_forward_of_header(h) else {
            return false;
        };
        let copy = self.fwd.send(pkt);
        self.record(Event::SendPkt {
            dir: Dir::Forward,
            packet: pkt,
            copy,
        });
        true
    }

    /// Mints `pkt` onto the forward channel as a parked, monitored
    /// `SendPkt` — the corrupted-start explorer's way of seeding an
    /// arbitrary in-transit multiset before the first adversary action.
    /// Same declaration pattern as [`duplicate_oldest`](System::duplicate_oldest):
    /// the copy is announced to the monitor, so its later delivery or loss
    /// stays PL1-sound.
    pub fn preload_forward(&mut self, pkt: Packet) -> CopyId {
        let copy = self.fwd.send(pkt);
        self.record(Event::SendPkt {
            dir: Dir::Forward,
            packet: pkt,
            copy,
        });
        copy
    }

    /// Replaces the oldest delayed forward copy of header `h` with a
    /// bit-corrupted rewrite: the original copy is dropped (monitored
    /// `DropPkt`) and the corrupted value is minted as a fresh parked copy
    /// (monitored `SendPkt`). Returns false (no-op) if no copy of `h` is
    /// delayed.
    pub fn corrupt_oldest(&mut self, h: Header) -> bool {
        let Some(pkt) = self.oldest_forward_of_header(h) else {
            return false;
        };
        let dropped = self.fwd.drop_oldest_of_packet(pkt).is_some();
        debug_assert!(dropped, "oldest copy just observed must be droppable");
        let twisted = corrupt_packet(pkt);
        let copy = self.fwd.send(twisted);
        self.record(Event::SendPkt {
            dir: Dir::Forward,
            packet: twisted,
            copy,
        });
        self.drain_released();
        true
    }

    /// Crashes the transmitting station with total loss of volatile state
    /// (see [`nonfifo_protocols::Recoverable`]). The channels are
    /// untouched: every in-transit copy survives the crash.
    pub fn crash_tx(&mut self) {
        self.tx.crash_amnesia();
    }

    /// Crashes the receiving station with total loss of volatile state.
    pub fn crash_rx(&mut self) {
        self.rx.crash_amnesia();
    }

    /// Delivers everything currently queued on both channels and drains the
    /// automata outputs; returns the number of `receive_msg` actions.
    pub fn drain_released(&mut self) -> u64 {
        let mut delivered_msgs = 0;
        // Forward deliveries to the receiver.
        while let Some((pkt, copy)) = self.fwd.poll_deliver() {
            self.record(Event::ReceivePkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
            self.rx.on_receive_pkt(pkt);
            delivered_msgs += self.drain_rx_outputs();
        }
        // A receiver may also have pending outputs without new receipts
        // (e.g. after a tick).
        delivered_msgs += self.drain_rx_outputs();
        for (pkt, copy) in self.fwd.drain_drops() {
            self.record(Event::DropPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
        }
        self.note_space();
        delivered_msgs
    }

    fn drain_rx_outputs(&mut self) -> u64 {
        let mut delivered = 0;
        while let Some(payload) = self.rx.poll_deliver() {
            // Deliveries are named in order: the n-th is m<n>.
            let m = Message::new(self.monitor.messages_delivered(), payload);
            self.record(Event::ReceiveMsg(m));
            delivered += 1;
        }
        while let Some(ack) = self.rx.poll_send() {
            let copy = self.bwd.send(ack);
            self.record(Event::SendPkt {
                dir: Dir::Backward,
                packet: ack,
                copy,
            });
        }
        while let Some((ack, copy)) = self.bwd.poll_deliver() {
            self.record(Event::ReceivePkt {
                dir: Dir::Backward,
                packet: ack,
                copy,
            });
            self.tx.on_receive_pkt(ack);
        }
        delivered
    }

    fn note_space(&mut self) {
        let s = self.tx.space_bytes() + self.rx.space_bytes();
        self.peak_space = self.peak_space.max(s);
    }

    /// Convenience: one step delivering every fresh forward copy.
    pub fn step_deliver_all(&mut self) -> u64 {
        self.step(|_, _, _| Disposition::Deliver)
    }

    /// Convenience: one step parking every fresh forward copy.
    pub fn step_park_all(&mut self) -> u64 {
        self.step(|_, _, _| Disposition::Park)
    }

    /// Replays stale copies into the receiver: for each packet value in
    /// `receipts`, releases the oldest delayed copy of that value and
    /// delivers it. The transmitter is not ticked — this realises the
    /// paper's simulated extension `β′`, in which the channel substitutes
    /// delayed copies for the automaton's sends.
    ///
    /// Stops early once the monitor flags a violation (the goal) and
    /// returns how many receipts were replayed.
    ///
    /// # Panics
    ///
    /// Panics if a requested value has no delayed copy — callers must check
    /// coverage first.
    pub fn replay_receipts(&mut self, receipts: &[Packet]) -> usize {
        for (i, &pkt) in receipts.iter().enumerate() {
            let (_, _copy) = self
                .fwd
                .release_oldest_of_packet(pkt)
                .unwrap_or_else(|| panic!("replay of {pkt} without coverage"));
            self.drain_released();
            if self.violation().is_some() {
                return i + 1;
            }
        }
        receipts.len()
    }

    /// Runs `step_deliver_all` until the outstanding message count reaches
    /// zero or `max_steps` elapse; returns true on success.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> bool {
        for _ in 0..max_steps {
            if self.counts().rm >= self.counts().sm {
                return true;
            }
            self.step_deliver_all();
        }
        self.counts().rm >= self.counts().sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_protocols::{AlternatingBit, SequenceNumber};

    #[test]
    fn deliver_all_runs_a_message_end_to_end() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.send_msg();
        assert!(sys.run_to_quiescence(32));
        let c = sys.counts();
        assert_eq!((c.sm, c.rm), (1, 1));
        assert_eq!(sys.violation(), None);
    }

    #[test]
    fn park_all_blocks_delivery_and_grows_pool() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.send_msg();
        for _ in 0..10 {
            sys.step_park_all();
        }
        let c = sys.counts();
        assert_eq!(c.rm, 0);
        assert!(c.in_transit(Dir::Forward) >= 10);
        assert_eq!(sys.fwd.in_transit_len() as u64, c.in_transit(Dir::Forward));
    }

    #[test]
    fn ghost_reports_stale_copies() {
        let mut sys = System::new(&AlternatingBit::new());
        sys.send_msg();
        for _ in 0..5 {
            sys.step_park_all();
        }
        // Complete message 0 so we can start round 1.
        assert!(sys.run_to_quiescence(16));
        sys.send_msg();
        let mut ghost = GhostInfo::default();
        fill_ghost(&mut ghost, &sys.fwd, sys.round_watermark);
        // The parked copies of bit 0 are stale relative to round 1.
        assert!(ghost.stale_fwd(Header::new(0)) >= 5);
        assert_eq!(ghost.stale_fwd(Header::new(1)), 0);
    }

    #[test]
    fn replay_produces_phantom_delivery_for_alternating_bit() {
        let mut sys = System::new(&AlternatingBit::new());
        // Message 0: park a few copies of bit 0, then deliver.
        sys.send_msg();
        for _ in 0..3 {
            sys.step_park_all();
        }
        assert!(sys.run_to_quiescence(16));
        // Message 1 (bit 1) delivered cleanly.
        sys.send_msg();
        assert!(sys.run_to_quiescence(16));
        // Receiver now expects bit 0 again; replay one stale copy.
        let stale0 = Packet::header_only(Header::new(0));
        assert!(sys.fwd.packet_copies(stale0) >= 3);
        sys.replay_receipts(&[stale0]);
        assert!(matches!(
            sys.violation(),
            Some(SpecViolation::MessageInvented { .. })
        ));
        let c = sys.counts();
        assert_eq!(c.rm, c.sm + 1);
    }

    #[test]
    fn fork_is_independent() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.send_msg();
        let mut fork = sys.clone();
        assert!(fork.run_to_quiescence(32));
        assert_eq!(sys.counts().rm, 0);
        assert_eq!(fork.counts().rm, 1);
    }

    #[test]
    fn counts_only_monitor_holds_exactly_the_copies_in_transit() {
        use crate::explore::{apply, enabled_actions_into, Discipline, ExploreConfig};
        use nonfifo_protocols::GoBackN;
        use nonfifo_rng::StdRng;
        for seed in 0..48 {
            let mut rng = StdRng::seed_from_u64(seed);
            let proto: Box<dyn DataLink> = match seed % 3 {
                0 => Box::new(SequenceNumber::new()),
                1 => Box::new(AlternatingBit::new()),
                _ => Box::new(GoBackN::new(4)),
            };
            let cfg = ExploreConfig {
                discipline: [Discipline::NonFifo, Discipline::LossyFifo][seed as usize % 2],
                max_messages: 8,
                max_pool: 8,
                ..ExploreConfig::default()
            };
            let mut sys = System::new(proto.as_ref());
            sys.disable_event_log();
            let (mut oldest, mut actions) = (Vec::new(), Vec::new());
            for step in 0..80 {
                assert_eq!(
                    sys.monitor.tracked_copies(Dir::Forward),
                    sys.fwd.in_transit_len(),
                    "seed {seed}, step {step}"
                );
                assert_eq!(
                    sys.monitor.tracked_copies(Dir::Backward),
                    0,
                    "seed {seed}, step {step}"
                );
                // Mostly the explorer's own actions; now and then a
                // duplicated or corrupted copy, which mint and drop copies
                // outside the explorer's alphabet of moves.
                let header = sys
                    .fwd
                    .parked_multiset()
                    .iter()
                    .next()
                    .map(|(p, _)| p.header());
                match (rng.gen_range(0..10), header) {
                    (0, Some(h)) => assert!(sys.duplicate_oldest(h)),
                    (1, Some(h)) => assert!(sys.corrupt_oldest(h)),
                    _ => {
                        enabled_actions_into(&sys, &cfg, &mut oldest, &mut actions);
                        if actions.is_empty() {
                            break;
                        }
                        apply(&mut sys, actions[rng.gen_range(0..actions.len())]);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "without an event log")]
    fn counts_only_systems_cannot_count_headers() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.disable_event_log();
        sys.distinct_forward_packets();
    }

    #[test]
    fn space_tracking_moves() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.send_msg();
        sys.run_to_quiescence(32);
        assert!(sys.peak_space_bytes() > 0);
    }
}
