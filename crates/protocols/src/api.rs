//! The protocol automaton API: [`Transmitter`], [`Receiver`], and the
//! [`DataLink`] factory.

use nonfifo_ioa::fingerprint::fnv64;
use nonfifo_ioa::{Header, Packet, Payload};
use std::any::Any;
use std::fmt;
use std::hash::Hash;

/// The harness-computed stale count pushed to the automata every
/// scheduler step.
///
/// Real protocols cannot observe channel state; the two unpublished
/// protocols the paper cites (\[AFWZ88\], \[Afe88\]) realise equivalent
/// knowledge through mechanisms whose specifications are unavailable, so our
/// reconstructions receive it as an explicit oracle instead (see `DESIGN.md`
/// §2). Every harness fills it the same way, with one pass over the forward
/// channel's copies older than the round watermark. Honest protocols simply
/// ignore [`Transmitter::on_ghost`] / [`Receiver::on_ghost`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GhostInfo {
    /// Per forward header: copies delayed on the forward channel that were
    /// sent *before* the most recent `send_msg` — the stale population that
    /// could be replayed against the current message. Sorted by header, each
    /// header once, and only headers with a stale copy. A sparse list rather
    /// than a per-header array, because corrupted headers reach 2³¹; a flat
    /// vec rather than a map, so a harness can refill it every scheduler
    /// step without touching the heap.
    pub stale_fwd_by_header: Vec<(Header, u64)>,
}

impl GhostInfo {
    /// Stale forward copies of header `h` (0 if none).
    pub fn stale_fwd(&self, h: Header) -> u64 {
        self.stale_fwd_by_header
            .binary_search_by_key(&h, |&(header, _)| header)
            .map(|i| self.stale_fwd_by_header[i].1)
            .unwrap_or(0)
    }
}

/// Crash-recovery semantics for a station automaton.
///
/// The chaos experiments crash and restart stations mid-execution; this
/// trait fixes what "restart" means:
///
/// - **Amnesia** ([`crash_amnesia`](Recoverable::crash_amnesia)): all
///   volatile state — counters, windows, outboxes, undelivered buffers —
///   resets to the automaton's initial state. Configuration fixed at
///   construction (window size `w`, label cycle `k`) survives as ROM: a
///   rebooted station still knows what protocol it runs.
/// - **Restore**: the harness snapshots via `clone_box` at a checkpoint
///   (the simulation checkpoints at `send_msg` boundaries) and swaps the
///   snapshot back in, modelling a station with stable storage.
///
/// A crash never touches the channels: copies already in transit stay in
/// transit, which is exactly what makes recovery interesting over a
/// non-FIFO physical layer — the rebooted automaton faces its own stale
/// copies with fresh (reset) state.
pub trait Recoverable {
    /// Crashes the automaton with total loss of volatile state.
    ///
    /// After the call the automaton *equals* a freshly constructed one with
    /// the same configuration under its derived `Eq` — the whole state,
    /// queued outputs included, so no queued output survives — and
    /// therefore has the initial state identity.
    fn crash_amnesia(&mut self);
}

/// Shared implementation of [`Recoverable::crash_amnesia`]: rebuilds the
/// automaton from its construction-time configuration ("ROM") while reusing
/// the existing heap buffers.
///
/// Callers pass a freshly constructed `initial` carrying the same
/// configuration (`Self::new(self.window)` and the like); the reset goes
/// through the automaton's fieldwise `clone_from`, so queue and map
/// allocations survive the reboot — the same reason the automata implement
/// manual `Clone` for the explorer's pool. Because the whole state is
/// copied, the rebooted automaton is `==` to `initial`, which is exactly
/// the [`Recoverable::crash_amnesia`] contract; no per-protocol reset list
/// has to be kept in sync with the field set by hand.
pub fn amnesia_reboot<A: Clone>(automaton: &mut A, initial: A) {
    automaton.clone_from(&initial);
}

/// The transmitting-station automaton `Aᵗ`.
///
/// Input actions are the `on_*` methods (`send_msg`,
/// `receive_pkt`ʳ→ᵗ, a clock tick, and the ghost push); the output action
/// `send_pkt`ᵗ→ʳ is modelled by the harness draining
/// [`poll_send`](Transmitter::poll_send).
///
/// Implementations must be deterministic: the adversaries compute boundness
/// extensions by cloning the automaton and simulating forward, which is only
/// sound if a clone behaves identically on identical inputs.
///
/// An automaton's state identity is its whole state: implementors derive
/// `Hash`, `PartialEq` and `Eq` (plus `Debug`) and write a `Clone`, and the
/// blanket [`TransmitterState`] impl supplies the fingerprint, the exact
/// comparison, boxing and in-place refill. Nothing the protocol stores can
/// be left out of its identity by accident.
///
/// Automata are `Send + Sync`: the parallel state-space explorer shares
/// frontier nodes across worker threads by reference and clones them on
/// expansion, so a protocol state may not contain thread-bound interior
/// mutability. Every automaton here is a plain deterministic data structure,
/// which satisfies the bounds for free.
pub trait Transmitter: TransmitterState + Recoverable + fmt::Debug + Send + Sync {
    /// `send_msg(m)`: the higher layer hands over the next message, of
    /// which the automaton sees only the payload (`None` in the paper's
    /// identical-message model). The message's ghost id stays with the
    /// harness: an automaton cannot tell messages apart.
    ///
    /// The harness only calls this when [`ready`](Transmitter::ready)
    /// returns true.
    fn on_send_msg(&mut self, payload: Option<Payload>);

    /// `receive_pkt`ʳ→ᵗ`(p)`: an acknowledgement packet arrives.
    fn on_receive_pkt(&mut self, p: Packet);

    /// One scheduler step has elapsed (drives retransmission timers).
    fn on_tick(&mut self) {}

    /// Harness pushes ghost channel summaries; honest protocols ignore it.
    fn on_ghost(&mut self, _ghost: &GhostInfo) {}

    /// True when, from the automaton's **current** state, an arriving
    /// acknowledgement with header `h` can never again change its control
    /// state, its outputs, or its readiness — for *every* possible future
    /// input sequence. The claim must be **monotone**: once a header is
    /// retired it stays retired forever (protocols with strictly growing
    /// counters retire every header below the counter; protocols that
    /// cycle through a fixed header alphabet must leave the conservative
    /// default, `false`).
    ///
    /// This is the protocol-supplied half of the explorer's partial-order
    /// reduction (see `nonfifo-adversary`'s `por` module): delayed copies
    /// whose header both stations have retired are interchangeable
    /// garbage, and the reduced engine deduplicates states modulo their
    /// identity. An over-claiming implementation makes `--por` unsound —
    /// the differential oracle and the property harness exist to catch
    /// exactly that.
    fn header_retired(&self, _h: Header) -> bool {
        false
    }

    /// Drains the next enabled `send_pkt`ᵗ→ʳ output, if any.
    fn poll_send(&mut self) -> Option<Packet>;

    /// True when the automaton can accept the next `send_msg` (simple
    /// stop-and-wait flow control; the paper's executions interleave one
    /// message at a time).
    fn ready(&self) -> bool;

    /// Bytes of live protocol state — the space observable of Theorem 3.1.
    fn space_bytes(&self) -> usize;
}

/// State identity and copying for a [`Transmitter`], supplied by one
/// blanket impl for every automaton that is `Clone + Hash + Eq`.
pub trait TransmitterState {
    /// Deterministic fingerprint of the whole state: [`fnv64`] of the
    /// derived `Hash`. The Theorem 2.1 experiments count distinct values
    /// and the explorer's state key carries it, so two states share a
    /// fingerprint only by a 64-bit hash collision.
    fn state_fingerprint(&self) -> u64;

    /// True when `other` is the same concrete automaton in an equal state
    /// (the derived `Eq`): the exact comparison behind a fingerprint.
    fn same_state(&self, other: &dyn Transmitter) -> bool;

    /// Clones the automaton behind a box.
    fn clone_box(&self) -> BoxedTransmitter;

    /// The automaton as [`Any`], enabling same-type downcasts.
    fn as_any(&self) -> &dyn Any;

    /// Copies `source`'s state into `self` without allocating a new box,
    /// reusing this automaton's storage through its `clone_from`. Returns
    /// false when `source` is a different concrete type — callers fall back
    /// to [`clone_box`](TransmitterState::clone_box). The state-space
    /// explorer recycles frontier systems through a pool with this, so its
    /// steady-state expansion loop never touches the allocator.
    fn assign_from(&mut self, source: &dyn Transmitter) -> bool;
}

impl<T: Transmitter + Clone + Hash + Eq + 'static> TransmitterState for T {
    fn state_fingerprint(&self) -> u64 {
        fnv64(self)
    }

    fn same_state(&self, other: &dyn Transmitter) -> bool {
        other.as_any().downcast_ref::<T>() == Some(self)
    }

    fn clone_box(&self) -> BoxedTransmitter {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn assign_from(&mut self, source: &dyn Transmitter) -> bool {
        match source.as_any().downcast_ref::<T>() {
            Some(src) => {
                self.clone_from(src);
                true
            }
            None => false,
        }
    }
}

/// The receiving-station automaton `Aʳ`.
///
/// Input actions: `receive_pkt`ᵗ→ʳ, tick, ghost. Output actions:
/// `send_pkt`ʳ→ᵗ via [`poll_send`](Receiver::poll_send) and
/// `receive_msg(m)` via [`poll_deliver`](Receiver::poll_deliver). State
/// identity comes from the blanket [`ReceiverState`] impl, as for
/// [`Transmitter`].
pub trait Receiver: ReceiverState + Recoverable + fmt::Debug + Send + Sync {
    /// `receive_pkt`ᵗ→ʳ`(p)`: a data packet arrives.
    fn on_receive_pkt(&mut self, p: Packet);

    /// One scheduler step has elapsed.
    fn on_tick(&mut self) {}

    /// Harness pushes ghost channel summaries; honest protocols ignore it.
    fn on_ghost(&mut self, _ghost: &GhostInfo) {}

    /// True when, from the automaton's **current** state, an arriving data
    /// packet with header `h` can never again change its control state or
    /// deliver a message — for *every* possible future input sequence.
    /// (Re-emitting an acknowledgement for such a packet is allowed; the
    /// reduction additionally requires the transmitter to have retired the
    /// echoed header.) Same monotonicity contract and same soundness
    /// stakes as [`Transmitter::header_retired`]; the conservative default
    /// is `false`.
    fn header_retired(&self, _h: Header) -> bool {
        false
    }

    /// Drains the next enabled `send_pkt`ʳ→ᵗ output (acknowledgement).
    fn poll_send(&mut self) -> Option<Packet>;

    /// Drains the next enabled `receive_msg` output: the delivered payload
    /// (`None` inside for an identical message). The harness stamps the
    /// message's ghost id from its own delivery count.
    fn poll_deliver(&mut self) -> Option<Option<Payload>>;

    /// Bytes of live protocol state.
    fn space_bytes(&self) -> usize;
}

/// State identity and copying for a [`Receiver`], supplied by one blanket
/// impl for every automaton that is `Clone + Hash + Eq`; see
/// [`TransmitterState`].
pub trait ReceiverState {
    /// Deterministic fingerprint of the whole state: [`fnv64`] of the
    /// derived `Hash`.
    fn state_fingerprint(&self) -> u64;

    /// True when `other` is the same concrete automaton in an equal state
    /// (the derived `Eq`).
    fn same_state(&self, other: &dyn Receiver) -> bool;

    /// Clones the automaton behind a box.
    fn clone_box(&self) -> BoxedReceiver;

    /// The automaton as [`Any`], enabling same-type downcasts.
    fn as_any(&self) -> &dyn Any;

    /// Copies `source`'s state into `self` without allocating a new box;
    /// false when `source` is a different concrete type (fall back to
    /// [`clone_box`](ReceiverState::clone_box)).
    fn assign_from(&mut self, source: &dyn Receiver) -> bool;
}

impl<T: Receiver + Clone + Hash + Eq + 'static> ReceiverState for T {
    fn state_fingerprint(&self) -> u64 {
        fnv64(self)
    }

    fn same_state(&self, other: &dyn Receiver) -> bool {
        other.as_any().downcast_ref::<T>() == Some(self)
    }

    fn clone_box(&self) -> BoxedReceiver {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn assign_from(&mut self, source: &dyn Receiver) -> bool {
        match source.as_any().downcast_ref::<T>() {
            Some(src) => {
                self.clone_from(src);
                true
            }
            None => false,
        }
    }
}

/// A boxed transmitter trait object.
pub type BoxedTransmitter = Box<dyn Transmitter>;

/// A boxed receiver trait object.
pub type BoxedReceiver = Box<dyn Receiver>;

impl Clone for BoxedTransmitter {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl Clone for BoxedReceiver {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// How a protocol's forward-header usage grows with the number of messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderBound {
    /// At most `k` distinct forward packets, ever (the paper's
    /// "protocol with a fixed number k of headers").
    Fixed(
        /// The header count `k`.
        u32,
    ),
    /// Header usage grows with the number of messages (the paper's naive
    /// protocol: `h(n) = n`).
    PerMessage,
}

impl fmt::Display for HeaderBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderBound::Fixed(k) => write!(f, "{k} headers"),
            HeaderBound::PerMessage => write!(f, "n headers"),
        }
    }
}

/// A data-link protocol: a named factory for fresh `(Aᵗ, Aʳ)` pairs.
///
/// Experiment tables iterate over `Vec<Box<dyn DataLink>>`, instantiating a
/// fresh automaton pair per run. Factories are `Send + Sync` so parallel
/// harnesses (the differential explorer, the property matrix) can share one
/// factory across threads.
pub trait DataLink: fmt::Debug + Send + Sync {
    /// Human-readable protocol name (appears in experiment tables).
    fn name(&self) -> String;

    /// The forward-header budget this protocol promises.
    fn forward_headers(&self) -> HeaderBound;

    /// Builds a fresh automaton pair in their initial states.
    fn make(&self) -> (BoxedTransmitter, BoxedReceiver);

    /// True if the automata consume [`GhostInfo`] (oracle-assisted
    /// reconstructions). Harnesses may skip the — potentially expensive —
    /// ghost computation when this is false.
    fn uses_ghosts(&self) -> bool {
        false
    }
}

/// A boxed factory is a factory: lets `Box<dyn DataLink>` flow into any
/// `impl DataLink` position (the simulation builder, experiment tables)
/// without a bespoke newtype adapter at each call site.
impl DataLink for Box<dyn DataLink> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn forward_headers(&self) -> HeaderBound {
        (**self).forward_headers()
    }
    fn make(&self) -> (BoxedTransmitter, BoxedReceiver) {
        (**self).make()
    }
    fn uses_ghosts(&self) -> bool {
        (**self).uses_ghosts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_accessors() {
        let g = GhostInfo {
            stale_fwd_by_header: vec![(Header::new(0), 3), (Header::new(2), 4)],
        };
        assert_eq!(g.stale_fwd(Header::new(0)), 3);
        assert_eq!(g.stale_fwd(Header::new(1)), 0);
        assert_eq!(g.stale_fwd(Header::new(2)), 4);
    }

    #[test]
    fn header_bound_display() {
        assert_eq!(HeaderBound::Fixed(3).to_string(), "3 headers");
        assert_eq!(HeaderBound::PerMessage.to_string(), "n headers");
    }
}
