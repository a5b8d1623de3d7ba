//! The physical-layer alphabet: headers, packets, copy identities, and
//! channel directions.

use std::fmt;

/// A packet header — an element of the paper's packet alphabet `P`.
///
/// The lower bounds assume all messages are identical, so the protocol can
/// only distinguish packets by the extra information it appends; the paper
/// calls `|P|` the *number of headers* (§2.3). A protocol "with `k` headers"
/// is a protocol that only ever sends packets whose header index is `< k` on
/// the transmitter-to-receiver channel.
///
/// # Example
///
/// ```
/// use nonfifo_ioa::Header;
/// let h = Header::new(3);
/// assert_eq!(h.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Header(u32);

impl Header {
    /// Creates a header with the given index in the packet alphabet.
    pub const fn new(index: u32) -> Self {
        Header(index)
    }

    /// The index of this header within the packet alphabet.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl From<u32> for Header {
    fn from(index: u32) -> Self {
        Header(index)
    }
}

/// An application payload word.
///
/// The lower-bound experiments run in the paper's identical-message model and
/// never use payloads; the practical protocols (`SequenceNumber`,
/// `SlidingWindow`) may carry one so that downstream users get a real
/// data-transfer service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Payload(u64);

impl Payload {
    /// Wraps a payload word.
    pub const fn new(word: u64) -> Self {
        Payload(word)
    }

    /// The payload word.
    pub const fn word(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Payload {
    fn from(word: u64) -> Self {
        Payload(word)
    }
}

/// A packet: a header plus an optional payload.
///
/// Packet *identity* (the `Eq`/`Ord`/`Hash` impls) covers both fields: two
/// packets are "the same packet" in the sense of the paper exactly when they
/// are indistinguishable to the receiving automaton. In the identical-message
/// model payloads are `None` and packet identity reduces to the header.
///
/// # Example
///
/// ```
/// use nonfifo_ioa::{Header, Packet};
/// let p = Packet::header_only(Header::new(1));
/// assert_eq!(p.header().index(), 1);
/// assert!(p.payload().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Packet {
    header: Header,
    payload: Option<Payload>,
}

impl Packet {
    /// Creates a packet carrying a payload.
    pub const fn new(header: Header, payload: Payload) -> Self {
        Packet {
            header,
            payload: Some(payload),
        }
    }

    /// Creates a payload-less packet (the identical-message model).
    pub const fn header_only(header: Header) -> Self {
        Packet {
            header,
            payload: None,
        }
    }

    /// Creates a packet with an optional payload: the payload-carrying form
    /// of [`Packet::new`] or, for `None`, [`Packet::header_only`].
    pub const fn from_parts(header: Header, payload: Option<Payload>) -> Self {
        Packet { header, payload }
    }

    /// The packet's header.
    pub const fn header(self) -> Header {
        self.header
    }

    /// The packet's payload, if any.
    pub const fn payload(self) -> Option<Payload> {
        self.payload
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.payload {
            Some(p) => write!(f, "{}⟨{}⟩", self.header, p),
            None => write!(f, "{}", self.header),
        }
    }
}

/// The identity of one *copy* of a packet in flight.
///
/// Every `send_pkt` action mints a fresh `CopyId`; the matching
/// `receive_pkt` (if any) references the same copy. This is what makes PL1 —
/// "each receive corresponds to a unique preceding send, each send to at most
/// one receive" — checkable in constant time per event, and it is what lets
/// the adversaries *replay* a specific delayed copy, the engine of every
/// proof in the paper.
///
/// Copy ids are unique per channel instance; an event pairs a copy id with a
/// [`Dir`], and the pair is globally unique within an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CopyId(u64);

impl CopyId {
    /// Creates a copy id from a raw counter value.
    pub const fn from_raw(raw: u64) -> Self {
        CopyId(raw)
    }

    /// The raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CopyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Direction of a physical channel in the composed system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// Transmitter to receiver (`t → r`): data packets.
    Forward,
    /// Receiver to transmitter (`r → t`): acknowledgement packets.
    Backward,
}

impl Dir {
    /// Both directions, forward first.
    pub const BOTH: [Dir; 2] = [Dir::Forward, Dir::Backward];

    /// The opposite direction.
    pub const fn opposite(self) -> Dir {
        match self {
            Dir::Forward => Dir::Backward,
            Dir::Backward => Dir::Forward,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::Forward => write!(f, "t→r"),
            Dir::Backward => write!(f, "r→t"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header::new(7);
        assert_eq!(h.index(), 7);
        assert_eq!(Header::from(7u32), h);
        assert_eq!(h.to_string(), "h7");
    }

    #[test]
    fn packet_identity_includes_payload() {
        let a = Packet::header_only(Header::new(0));
        let b = Packet::new(Header::new(0), Payload::new(1));
        assert_ne!(a, b);
        assert_eq!(a.header(), b.header());
    }

    #[test]
    fn packet_display() {
        let p = Packet::new(Header::new(2), Payload::new(255));
        assert_eq!(p.to_string(), "h2⟨0xff⟩");
        assert_eq!(Packet::header_only(Header::new(2)).to_string(), "h2");
    }

    #[test]
    fn dir_opposite_is_involutive() {
        for d in Dir::BOTH {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_ne!(Dir::Forward, Dir::Backward);
    }

    #[test]
    fn copy_id_ordering_follows_mint_order() {
        assert!(CopyId::from_raw(1) < CopyId::from_raw(2));
        assert_eq!(CopyId::from_raw(5).raw(), 5);
    }

    #[test]
    fn headers_are_ordered_by_index() {
        let mut hs = vec![Header::new(3), Header::new(1), Header::new(2)];
        hs.sort();
        assert_eq!(hs, vec![Header::new(1), Header::new(2), Header::new(3)]);
    }
}
