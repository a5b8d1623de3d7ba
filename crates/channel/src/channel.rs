//! The physical-layer channel abstraction.
//!
//! The channel API is split into three traits along the lines a caller
//! actually needs:
//!
//! * [`Channel`] — the minimal core: the paper's two actions plus the
//!   simulation clock. Everything a protocol harness needs to *run*.
//! * [`ChannelIntrospect`] — read-only views of the in-transit multiset
//!   (per-header counts, stale populations, the census). Everything an
//!   adversary or a telemetry layer needs to *measure*.
//! * [`FaultObserver`] — the fault-side ledger (drops, injected sends,
//!   active fault windows, the fault log). Everything a monitor needs to
//!   stay *sound* under chaos.
//!
//! Concrete channels implement all three; [`InstrumentedChannel`] bundles
//! them back together behind one object-safe trait (with a blanket impl) so
//! downstream code that holds a [`BoxedChannel`] keeps the full surface
//! without naming three traits.

use crate::chaos::FaultRecord;
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use std::fmt;

/// A unidirectional physical channel (one `PLᵗ→ʳ` or `PLʳ→ᵗ` of the paper).
///
/// The interface mirrors the paper's two actions — `send_pkt` is
/// [`send`](Channel::send), `receive_pkt` is one successful
/// [`poll_deliver`](Channel::poll_deliver) — plus a
/// [`tick`](Channel::tick) clock and the aggregate counters.
///
/// Implementations guarantee PL1 by construction: every copy id is minted by
/// exactly one `send` and yielded by at most one `poll_deliver` (or one
/// drained drop).
pub trait Channel: fmt::Debug {
    /// Which direction this channel carries.
    fn dir(&self) -> Dir;

    /// `send_pkt(p)`: puts a fresh copy of `packet` on the channel and
    /// returns its minted identity.
    fn send(&mut self, packet: Packet) -> CopyId;

    /// Delivers the next packet the channel chooses to deliver, if any.
    fn poll_deliver(&mut self) -> Option<(Packet, CopyId)>;

    /// Advances the channel's internal clock one step (latency, trickle
    /// release, …). Default: no-op.
    fn tick(&mut self) {}

    /// Number of copies currently in transit (sent, not yet delivered or
    /// dropped, and not yet queued for delivery).
    fn in_transit_len(&self) -> usize;

    /// Total `send_pkt` actions so far.
    fn total_sent(&self) -> u64;

    /// Total `receive_pkt` actions so far.
    fn total_delivered(&self) -> u64;
}

/// Read-only introspection of the in-transit multiset.
///
/// The adversaries steer by these counts (stale populations, dominant
/// packets) and the telemetry layer reads them as the single source of
/// truth for its gauges — they are views, never mutations.
pub trait ChannelIntrospect: Channel {
    /// Copies in transit with header `h`.
    fn header_copies(&self, h: Header) -> usize;

    /// Copies in transit of the exact packet value `p`.
    fn packet_copies(&self, p: Packet) -> usize;

    /// Adds each copy in transit minted before `watermark` to `counts`
    /// under its header, in one pass over the channel's copies (see
    /// [`tally_headers`]). Those copies are the "stale population" relative
    /// to a round boundary: the harnesses hand their per-header counts to
    /// oracle-assisted protocol reconstructions as ghost information.
    fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>);

    /// Per-packet-value counts of copies currently inside the channel
    /// (delayed *or* queued for delivery), for stall diagnostics. Unlike
    /// [`in_transit_len`](Channel::in_transit_len) this sweeps every
    /// internal buffer. Default: empty (opaque channel).
    fn transit_census(&self) -> Vec<(Packet, usize)> {
        Vec::new()
    }
}

/// The fault-side ledger of a channel.
///
/// Lossy and chaotic channels decide to drop or inject copies on their own;
/// the harness drains those decisions each step so every fault becomes a
/// logged event (`DropPkt` / declared `SendPkt`) and the PL1 monitor stays
/// sound. Fault-free channels take every default.
pub trait FaultObserver: Channel {
    /// Copies the channel has decided to drop since the last call; the
    /// harness logs these as `DropPkt` events.
    fn drain_drops(&mut self) -> Vec<(Packet, CopyId)>;

    /// Copies a fault layer has *injected* (duplicates, corrupted
    /// replacements) since the last call. The harness observes each as a
    /// `SendPkt` before the copy can be delivered, which keeps the PL1
    /// monitor sound under chaos: an injected fault is a declared send,
    /// distinguishable from a protocol bug. Default: none.
    fn drain_injected_sends(&mut self) -> Vec<(Packet, CopyId)> {
        Vec::new()
    }

    /// Human-readable descriptions of fault conditions active right now
    /// (partition windows, loss bursts, reorder storms). Default: none.
    fn active_faults(&self) -> Vec<String> {
        Vec::new()
    }

    /// The record of faults injected so far, in injection order.
    /// Default: empty (fault-free channel).
    fn fault_log(&self) -> Vec<FaultRecord> {
        Vec::new()
    }
}

/// The full channel surface behind one object-safe trait.
///
/// The simulation engine holds channels as trait objects and forks them for
/// the boundness oracle, so the bundle adds [`clone_box`] on top of the
/// three capability traits. The blanket impl covers every `Clone` channel —
/// concrete implementations never write `clone_box` by hand.
///
/// [`clone_box`]: InstrumentedChannel::clone_box
pub trait InstrumentedChannel: ChannelIntrospect + FaultObserver {
    /// Clones the channel behind a box.
    fn clone_box(&self) -> BoxedChannel;
}

impl<T> InstrumentedChannel for T
where
    T: ChannelIntrospect + FaultObserver + Clone + 'static,
{
    fn clone_box(&self) -> BoxedChannel {
        Box::new(self.clone())
    }
}

/// Folds an iterator of in-transit packet values into the deterministic
/// per-value histogram that [`ChannelIntrospect::transit_census`] returns.
pub(crate) fn census_from_iter(packets: impl Iterator<Item = Packet>) -> Vec<(Packet, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for p in packets {
        *counts.entry(p).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

/// Adds one count per packet to `counts` under the packet's header,
/// keeping `counts` sorted by header with each header once. The tally
/// behind every [`ChannelIntrospect::count_headers_older_than`]: a sparse
/// list rather than a per-header array, because corrupted headers reach
/// 2³¹.
pub fn tally_headers(packets: impl IntoIterator<Item = Packet>, counts: &mut Vec<(Header, u64)>) {
    let mut add = |(h, n): (Header, u64)| match counts.binary_search_by_key(&h, |&(g, _)| g) {
        Ok(i) => counts[i].1 += n,
        Err(i) => counts.insert(i, (h, n)),
    };
    // Senders repeat a header many times in a row, so each run of one
    // header is counted first and looked up once.
    let mut run: Option<(Header, u64)> = None;
    for h in packets.into_iter().map(|p| p.header()) {
        match &mut run {
            Some((g, n)) if *g == h => *n += 1,
            _ => {
                if let Some(done) = run.replace((h, 1)) {
                    add(done);
                }
            }
        }
    }
    if let Some(done) = run {
        add(done);
    }
}

/// A boxed channel trait object carrying the full (core + introspect +
/// fault) surface.
pub type BoxedChannel = Box<dyn InstrumentedChannel>;

impl Clone for BoxedChannel {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FifoChannel;

    #[test]
    fn boxed_channel_is_cloneable() {
        let mut ch: BoxedChannel = Box::new(FifoChannel::new(Dir::Forward));
        ch.send(Packet::header_only(Header::new(0)));
        let mut forked = ch.clone();
        // The fork sees the in-flight packet but evolves independently.
        assert_eq!(forked.in_transit_len(), 1);
        forked.poll_deliver().expect("delivery in fork");
        assert_eq!(forked.in_transit_len(), 0);
        assert_eq!(ch.in_transit_len(), 1);
    }
}
