//! The data-link alphabet: messages and their ghost identities.

use crate::packet::Payload;
use std::fmt;

/// A ghost identifier for a message instance.
///
/// The paper's lower bounds assume all messages are identical; protocols must
/// not be able to tell messages apart by content. The harnesses still name
/// each `send_msg` and `receive_msg` event so executions read well, so they
/// stamp every message with a `MsgId` that no [`Packet`](crate::Packet) can
/// carry and no protocol ever sees: automata take and yield payloads only,
/// and the harness numbers sends and deliveries from its own counters (the
/// `n`-th delivery is `m<n>`). Ids are therefore not part of any automaton's
/// state, and the specification checkers match deliveries to sends by
/// payload and order, never by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(u64);

impl MsgId {
    /// Creates a message id from a raw sequence number.
    pub const fn from_raw(raw: u64) -> Self {
        MsgId(raw)
    }

    /// The raw sequence number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A message handed to the data-link layer at the transmitting station, or
/// delivered by it at the receiving station.
///
/// # Example
///
/// ```
/// use nonfifo_ioa::{Message, Payload};
/// let m = Message::with_payload(0, Payload::new(0xCAFE));
/// assert_eq!(m.payload(), Some(Payload::new(0xCAFE)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Message {
    id: MsgId,
    payload: Option<Payload>,
}

impl Message {
    /// Creates the `seq`-th message with an optional payload.
    pub const fn new(seq: u64, payload: Option<Payload>) -> Self {
        Message {
            id: MsgId::from_raw(seq),
            payload,
        }
    }

    /// Creates the `seq`-th identical message (the paper's model: payload-less).
    pub const fn identical(seq: u64) -> Self {
        Message::new(seq, None)
    }

    /// Creates the `seq`-th message carrying an application payload.
    pub const fn with_payload(seq: u64, payload: Payload) -> Self {
        Message::new(seq, Some(payload))
    }

    /// The ghost identity of this message instance.
    pub const fn id(self) -> MsgId {
        self.id
    }

    /// The application payload, if any.
    pub const fn payload(self) -> Option<Payload> {
        self.payload
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.payload {
            Some(p) => write!(f, "{}⟨{}⟩", self.id, p),
            None => write!(f, "{}", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_messages_differ_only_by_ghost_id() {
        let a = Message::identical(0);
        let b = Message::identical(1);
        assert_eq!(a.payload(), b.payload());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn payload_roundtrip() {
        let m = Message::with_payload(3, Payload::new(9));
        assert_eq!(m.id().raw(), 3);
        assert_eq!(m.payload().map(Payload::word), Some(9));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Message::identical(2).to_string(), "m2");
        assert_eq!(
            Message::with_payload(2, Payload::new(16)).to_string(),
            "m2⟨0x10⟩"
        );
    }
}
