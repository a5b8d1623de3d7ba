//! Fixed-width state encoding — the explorer's state-identity layer.
//!
//! Both exploration engines deduplicate on a 64-bit digest of the composed
//! [`System`] state. Historically each engine recomputed that digest from
//! the live `System` with ad-hoc [`StateHash`] chains duplicated across
//! `explore.rs`, `explore_par.rs`, and `por.rs`; this module is the one
//! shared home for that plumbing, and it adds the representation that the
//! tiered visited sets ([`crate::visited`]) need to push exploration past
//! RAM: a **fixed-width byte codec**.
//!
//! A bounded-protocol state is tiny by construction — that is the paper's
//! whole premise. The automata are finite (64-bit whole-state fingerprints),
//! the `sm`/`rm` counters are bounded by the scope's message budget, and
//! the pool is summarised by an order-independent content digest plus its
//! length. [`StateCodec::encode`] packs exactly those fields into a
//! 40-byte [`EncodedState`] — well under the 64 B/state target — and
//! [`StateCodec::key_of`] derives from the packed bytes the **same** 64-bit
//! dedup key the engines have always used, so swapping representations can
//! never change a report.
//!
//! Two codec modes mirror the two dedup keys in the system:
//!
//! - [`CodecMode::Full`] — the plain state key (domain tag
//!   `explore-state`): control fingerprints, counters, whole-pool digest,
//!   pool length.
//! - [`CodecMode::RetiredQuotient`] — the partial-order-reduction quotient
//!   (domain tag `explore-state-por`, see [`crate::por`]): pool slots whose
//!   values both stations have permanently retired are anonymised into a
//!   retired-slot *count*, and the digest covers live values only.
//!
//! The encoded form is the unit the byte-budget accounting of the visited
//! tiers is denominated in: [`EncodedState::BYTES`] is exported as the
//! `explore.codec_bytes_per_state` telemetry gauge and guarded in CI.
//!
//! A key identifies a state; a **frontier record** *is* one. [`save`] and
//! [`load`] turn a [`System`] at rest into a few dozen `u64` words and back
//! (layout at [`save`]), naming the two automata by id into a
//! per-run [`StationTable`]. The parallel engine stores its frontier levels
//! as flat slabs of these records.

use crate::system::{RestScalars, System};
use nonfifo_ioa::fingerprint::{fnv64, mix64, Fnv64, StateHash};
use nonfifo_ioa::{CopyId, Counts, Header, Packet, Payload};
use nonfifo_protocols::{Receiver, Transmitter};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Which dedup key the codec derives — the plain state key or the
/// partial-order-reduction retired-copy quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecMode {
    /// The full state key (domain tag `explore-state`): every pool value
    /// participates in the digest.
    Full,
    /// The POR quotient key (domain tag `explore-state-por`): retired pool
    /// values are anonymised into a count, live values into a digest.
    RetiredQuotient,
}

/// A [`System`] state bit-packed into [`EncodedState::BYTES`] bytes.
///
/// Layout (little-endian, fixed offsets):
///
/// | offset | width | field                                    |
/// |-------:|------:|------------------------------------------|
/// |      0 |     8 | transmitter control fingerprint           |
/// |      8 |     8 | receiver control fingerprint              |
/// |     16 |     4 | `sm` — `send_msg` count                   |
/// |     20 |     4 | `rm` — `receive_msg` count                |
/// |     24 |     8 | pool digest (whole-pool or live-only)     |
/// |     32 |     4 | retired-copy count (0 in [`CodecMode::Full`]) |
/// |     36 |     4 | pool length                               |
///
/// The 32-bit fields are bounded by the exploration scope (messages and
/// pool copies are small enumerations), so the narrowing is lossless for
/// any scope the explorer can finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodedState {
    bytes: [u8; Self::BYTES],
}

impl EncodedState {
    /// Fixed width of an encoded state, in bytes. The acceptance budget is
    /// ≤ 64; the packed layout needs 40.
    pub const BYTES: usize = 40;

    /// The packed little-endian bytes.
    pub fn as_bytes(&self) -> &[u8; Self::BYTES] {
        &self.bytes
    }

    /// Transmitter control fingerprint.
    pub fn tx_fingerprint(&self) -> u64 {
        self.read_u64(0)
    }

    /// Receiver control fingerprint.
    pub fn rx_fingerprint(&self) -> u64 {
        self.read_u64(8)
    }

    /// `sm` — number of `send_msg` actions on the path to this state.
    pub fn sm(&self) -> u64 {
        u64::from(self.read_u32(16))
    }

    /// `rm` — number of `receive_msg` actions on the path to this state.
    pub fn rm(&self) -> u64 {
        u64::from(self.read_u32(20))
    }

    /// The pool digest: the whole-pool content hash in [`CodecMode::Full`],
    /// the live-values-only digest in [`CodecMode::RetiredQuotient`].
    pub fn pool_digest(&self) -> u64 {
        self.read_u64(24)
    }

    /// Retired delayed copies anonymised out of the digest (always 0 in
    /// [`CodecMode::Full`]).
    pub fn retired(&self) -> u64 {
        u64::from(self.read_u32(32))
    }

    /// Total delayed copies in the forward pool.
    pub fn pool_len(&self) -> u64 {
        u64::from(self.read_u32(36))
    }

    fn read_u64(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("fixed layout"))
    }

    fn read_u32(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("fixed layout"))
    }
}

/// Encoder from live [`System`] states to [`EncodedState`]s and their
/// 64-bit dedup keys.
///
/// The codec is a zero-sized-ish value type (`Copy`), fixed per exploration
/// run: both engines and the POR context hold one and route every dedup key
/// through it, so the key derivation lives in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCodec {
    mode: CodecMode,
}

impl StateCodec {
    /// Codec for the plain state key (domain tag `explore-state`).
    pub const fn full() -> Self {
        StateCodec {
            mode: CodecMode::Full,
        }
    }

    /// Codec for the POR retired-copy quotient key (domain tag
    /// `explore-state-por`).
    pub const fn retired_quotient() -> Self {
        StateCodec {
            mode: CodecMode::RetiredQuotient,
        }
    }

    /// The mode this codec encodes for.
    pub fn mode(&self) -> CodecMode {
        self.mode
    }

    /// Packs `sys` into the fixed-width representation.
    pub fn encode(&self, sys: &System) -> EncodedState {
        let ms = sys.fwd.parked_multiset();
        let (digest, retired) = match self.mode {
            CodecMode::Full => (ms.content_hash(), 0u64),
            CodecMode::RetiredQuotient => {
                // Start from the incrementally maintained whole-pool digest
                // and subtract the retired copies back out — the walk only
                // pays for what it anonymises.
                let mut live = ms.content_hash();
                let mut retired = 0u64;
                for (p, _) in ms.iter() {
                    if sys.packet_retired(p) {
                        live = live.wrapping_sub(mix64(fnv64(&p)));
                        retired += 1;
                    }
                }
                (live, retired)
            }
        };
        let counts = sys.counts();
        debug_assert!(
            counts.sm <= u64::from(u32::MAX) && counts.rm <= u64::from(u32::MAX),
            "scope counters outgrew the 32-bit codec fields"
        );
        let mut bytes = [0u8; EncodedState::BYTES];
        bytes[0..8].copy_from_slice(&sys.tx.state_fingerprint().to_le_bytes());
        bytes[8..16].copy_from_slice(&sys.rx.state_fingerprint().to_le_bytes());
        bytes[16..20].copy_from_slice(&(counts.sm as u32).to_le_bytes());
        bytes[20..24].copy_from_slice(&(counts.rm as u32).to_le_bytes());
        bytes[24..32].copy_from_slice(&digest.to_le_bytes());
        bytes[32..36].copy_from_slice(&(retired as u32).to_le_bytes());
        bytes[36..40].copy_from_slice(&(ms.len() as u32).to_le_bytes());
        EncodedState { bytes }
    }

    /// The 64-bit dedup key of an encoded state. Bit-for-bit the digest the
    /// engines always used: the [`StateHash`] chain over the same fields
    /// under the same domain tag, so every pinned state count and
    /// byte-identity guarantee survives the representation change (the
    /// compatibility tests in this module and `tests/visited_props.rs` pin
    /// it).
    pub fn key_of(&self, enc: &EncodedState) -> u64 {
        let h = StateHash::new(match self.mode {
            CodecMode::Full => "explore-state",
            CodecMode::RetiredQuotient => "explore-state-por",
        })
        .field(enc.tx_fingerprint())
        .field(enc.rx_fingerprint())
        .field(enc.sm())
        .field(enc.rm())
        .field(enc.pool_digest());
        match self.mode {
            CodecMode::Full => h.field(enc.pool_len()).finish(),
            CodecMode::RetiredQuotient => h.field(enc.retired()).field(enc.pool_len()).finish(),
        }
    }

    /// Encode-and-key in one call — the hot-path entry both engines use.
    pub fn key(&self, sys: &System) -> u64 {
        self.key_of(&self.encode(sys))
    }
}

/// Words of a frontier record before its parked copies.
const RECORD_HEAD: usize = 7;

/// Bit 31 of a copy word: a payload word follows the copy word.
const HAS_PAYLOAD: u64 = 1 << 31;

/// Packs two 32-bit record fields into one word, `lo` in bits 0..32.
fn pack(lo: u64, hi: u64) -> u64 {
    let narrow =
        |v: u64| u64::from(u32::try_from(v).expect("scope outgrew the 32-bit record fields"));
    narrow(lo) | narrow(hi) << 32
}

/// The two 32-bit fields of a packed word.
fn unpack(word: u64) -> (u64, u64) {
    (word & 0xffff_ffff, word >> 32)
}

/// Appends `sys`'s frontier record to `out` under the station ids `tx`
/// and `rx` — [`save`] with the ids already resolved.
pub(crate) fn write_record(sys: &System, tx: u32, rx: u32, out: &mut Vec<u64>) {
    let s = sys.rest_scalars();
    let c = s.counts;
    out.extend_from_slice(&[
        pack(u64::from(tx), u64::from(rx)),
        pack(c.sm, c.rm),
        pack(c.sp_fwd, c.rp_fwd),
        pack(c.dropped_fwd, c.sp_bwd),
        pack(c.rp_bwd, c.dropped_bwd),
        pack(s.round_watermark, s.peak_space as u64),
        s.pool_digest,
    ]);
    for (packet, copy) in sys.fwd.parked_multiset().iter() {
        assert!(copy.raw() < HAS_PAYLOAD, "copy id outgrew its record field");
        let header = u64::from(packet.header().index()) << 32;
        match packet.payload() {
            None => out.push(copy.raw() | header),
            Some(payload) => {
                out.extend_from_slice(&[copy.raw() | HAS_PAYLOAD | header, payload.word()])
            }
        }
    }
}

/// The station ids a record names, `(transmitter, receiver)`.
pub(crate) fn record_stations(record: &[u64]) -> (u32, u32) {
    let (tx, rx) = unpack(record[0]);
    (tx as u32, rx as u32)
}

/// Renames the station ids a record names.
pub(crate) fn set_record_stations(record: &mut [u64], tx: u32, rx: u32) {
    record[0] = pack(u64::from(tx), u64::from(rx));
}

/// Appends `sys`'s **frontier record** to `out`, interning its two automata
/// in `stations` and naming them by station id. The record is the whole
/// state of a system at rest, so [`load`] rebuilds an equal system from it.
/// Layout, in little-endian `u64` words (`lo | hi` is bits 0..32 | 32..64):
///
/// | word | content |
/// |-----:|---------|
/// |    0 | transmitter station id \| receiver station id |
/// |    1 | `sm` \| `rm` |
/// |    2 | packets sent t→r \| received t→r |
/// |    3 | packets dropped t→r \| sent r→t |
/// |    4 | packets received r→t \| dropped r→t |
/// |    5 | stale-copy watermark \| peak automaton space |
/// |    6 | parked-pool content digest |
/// |   7… | one word per parked copy, in mint order: copy id (bits 0..31), payload flag (bit 31) \| header; a flagged copy is followed by its payload word |
///
/// Nothing else is stored. The copy watermarks, the channels' counters,
/// the monitor's counters and the message counter equal or sum the
/// counts of words 1–4; the monitor's live forward table equals the
/// parked pool; at rest the backward channel, the delivery queues and the
/// drop buffers are empty and no violation is latched
/// (saving asserts all of it). A header-only copy costs
/// 8 bytes, so a record is 56 bytes plus 8 per parked copy.
///
/// # Panics
///
/// Panics if `sys` is not at rest — a counts-only system whose last step
/// has settled, which every explorer action ensures — or if a counter or
/// copy id outgrew its field.
pub fn save(sys: &System, stations: &mut StationTable, out: &mut Vec<u64>) {
    let (tx, rx) = stations.intern(sys);
    write_record(sys, tx, rx, out);
}

/// Loads the frontier record `record`, saved against `stations`, into
/// `into`, which must be a counts-only system of the same run (its burst,
/// partition and ghost settings are kept). Every buffer and automaton box
/// of `into` is reused, so loading into a warm system does not allocate.
pub fn load(record: &[u64], stations: &StationTable, into: &mut System) {
    let (tx, rx) = record_stations(record);
    let (sm, rm) = unpack(record[1]);
    let (sp_fwd, rp_fwd) = unpack(record[2]);
    let (dropped_fwd, sp_bwd) = unpack(record[3]);
    let (rp_bwd, dropped_bwd) = unpack(record[4]);
    let (round_watermark, peak_space) = unpack(record[5]);
    let scalars = RestScalars {
        counts: Counts {
            sm,
            rm,
            sp_fwd,
            rp_fwd,
            sp_bwd,
            rp_bwd,
            dropped_fwd,
            dropped_bwd,
        },
        round_watermark,
        peak_space: peak_space as usize,
        pool_digest: record[6],
    };
    let mut words = record[RECORD_HEAD..].iter();
    let pool = std::iter::from_fn(|| {
        let &word = words.next()?;
        let header = Header::new((word >> 32) as u32);
        let packet = if word & HAS_PAYLOAD == 0 {
            Packet::header_only(header)
        } else {
            let &payload = words.next().expect("a flagged copy has a payload word");
            Packet::new(header, Payload::new(payload))
        };
        Some((packet, CopyId::from_raw(word & (HAS_PAYLOAD - 1))))
    });
    into.restore(stations.tx.get(tx), stations.rx.get(rx), &scalars, pool);
}

/// The automaton operations a [`StationTable`] interns through, for both
/// station roles.
trait Station {
    fn same(&self, other: &Self) -> bool;
    fn boxed(&self) -> Box<Self>;
    fn refill(&mut self, from: &Self) -> bool;
    fn space(&self) -> usize;
}

impl Station for dyn Transmitter {
    fn same(&self, other: &Self) -> bool {
        self.same_state(other)
    }
    fn boxed(&self) -> Box<Self> {
        self.clone_box()
    }
    fn refill(&mut self, from: &Self) -> bool {
        self.assign_from(from)
    }
    fn space(&self) -> usize {
        self.space_bytes()
    }
}

impl Station for dyn Receiver {
    fn same(&self, other: &Self) -> bool {
        self.same_state(other)
    }
    fn boxed(&self) -> Box<Self> {
        self.clone_box()
    }
    fn refill(&mut self, from: &Self) -> bool {
        self.assign_from(from)
    }
    fn space(&self) -> usize {
        self.space_bytes()
    }
}

/// End of a fingerprint collision chain.
const NO_ID: u32 = u32::MAX;

/// Interned states of one station role. Ids count up from 0 in intern
/// order. States are found by fingerprint and confirmed with `same_state`,
/// so two distinct states never share an id, even on a fingerprint
/// collision (the colliding ids form a chain through `next`).
#[derive(Debug)]
struct Interner<S: ?Sized> {
    /// `states[..len()]` are the interned states; boxes past that are
    /// kept from earlier runs and refilled in place.
    states: Vec<Box<S>>,
    /// Per id: the state's fingerprint.
    fps: Vec<u64>,
    /// Per id: the next-older id with the same fingerprint, or [`NO_ID`].
    next: Vec<u32>,
    /// Newest id per fingerprint.
    heads: HashMap<u64, u32, BuildHasherDefault<Fnv64>>,
}

impl<S: ?Sized> Default for Interner<S> {
    fn default() -> Self {
        Interner {
            states: Vec::new(),
            fps: Vec::new(),
            next: Vec::new(),
            heads: HashMap::default(),
        }
    }
}

impl<S: ?Sized + Station> Interner<S> {
    fn len(&self) -> usize {
        self.fps.len()
    }

    fn get(&self, id: u32) -> &S {
        assert!(
            (id as usize) < self.len(),
            "station id {id} is not interned"
        );
        &self.states[id as usize]
    }

    fn find(&self, fp: u64, state: &S) -> Option<u32> {
        let mut id = *self.heads.get(&fp)?;
        while id != NO_ID {
            if self.states[id as usize].same(state) {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    fn intern(&mut self, fp: u64, state: &S) -> u32 {
        if let Some(id) = self.find(fp, state) {
            return id;
        }
        let id = self.len();
        assert!(id < PROVISIONAL as usize, "station table outgrew its ids");
        match self.states.get_mut(id) {
            Some(slot) => {
                if !slot.refill(state) {
                    *slot = state.boxed();
                }
            }
            None => self.states.push(state.boxed()),
        }
        self.fps.push(fp);
        self.next
            .push(self.heads.insert(fp, id as u32).unwrap_or(NO_ID));
        id as u32
    }

    /// Forgets every state but keeps the boxes for the next run.
    fn clear(&mut self) {
        self.fps.clear();
        self.next.clear();
        self.heads.clear();
    }

    /// Deterministic footprint: per state its box pointer, fingerprint,
    /// chain link and index entry, plus the automaton's own space.
    fn bytes(&self) -> usize {
        let per_id = std::mem::size_of::<Box<S>>()
            + std::mem::size_of::<u64>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<(u64, u32)>();
        self.states[..self.len()]
            .iter()
            .map(|s| per_id + s.space())
            .sum()
    }
}

/// Bit 31 of a station id marks a *provisional* id: an index into a
/// worker-local table of states the frozen run table did not hold yet,
/// renamed by [`StationTable::absorb`]'s mapping.
pub(crate) const PROVISIONAL: u32 = 1 << 31;

/// Every distinct transmitter and receiver state the frontier records of
/// one run name, each stored once. A bounded protocol has few station
/// states (the explore-wide scope reaches 19 transmitter and 10 receiver
/// states over 160,445 global states), so a record names its two automata
/// by 32-bit id instead of carrying them — SPIN's collapse compression.
///
/// Interning is exact: a state is found by its `state_fingerprint` and
/// confirmed with `same_state` (the automaton's derived `Eq`), never by the
/// hash alone. Ids depend on intern order, which may depend on the thread
/// count, so they never enter a key, a rank or a report. The explorer
/// clears its table between runs but keeps the automaton boxes, which the
/// next run refills in place.
#[derive(Debug, Default)]
pub struct StationTable {
    tx: Interner<dyn Transmitter>,
    rx: Interner<dyn Receiver>,
}

impl StationTable {
    /// An empty table.
    pub fn new() -> Self {
        StationTable::default()
    }

    /// Distinct transmitter states interned.
    pub(crate) fn transmitters(&self) -> usize {
        self.tx.len()
    }

    /// Distinct receiver states interned.
    pub(crate) fn receivers(&self) -> usize {
        self.rx.len()
    }

    /// The ids of `sys`'s two automata, interning whichever is new.
    pub(crate) fn intern(&mut self, sys: &System) -> (u32, u32) {
        (
            self.tx.intern(sys.tx.state_fingerprint(), sys.tx.as_ref()),
            self.rx.intern(sys.rx.state_fingerprint(), sys.rx.as_ref()),
        )
    }

    /// The ids of `sys`'s two automata, read-only: an automaton this table
    /// lacks is interned in `misses` instead and named by its
    /// [`PROVISIONAL`] id there. Parallel workers resolve through a frozen
    /// run table this way, and [`absorb`](StationTable::absorb) settles
    /// their misses afterwards.
    pub(crate) fn resolve(&self, misses: &mut StationTable, sys: &System) -> (u32, u32) {
        let fp = sys.tx.state_fingerprint();
        let tx = self
            .tx
            .find(fp, sys.tx.as_ref())
            .unwrap_or_else(|| PROVISIONAL | misses.tx.intern(fp, sys.tx.as_ref()));
        let fp = sys.rx.state_fingerprint();
        let rx = self
            .rx
            .find(fp, sys.rx.as_ref())
            .unwrap_or_else(|| PROVISIONAL | misses.rx.intern(fp, sys.rx.as_ref()));
        (tx, rx)
    }

    /// Interns every state of `misses` in its id order and fills `tx_ids`
    /// and `rx_ids` with the id each provisional id becomes.
    pub(crate) fn absorb(
        &mut self,
        misses: &StationTable,
        tx_ids: &mut Vec<u32>,
        rx_ids: &mut Vec<u32>,
    ) {
        tx_ids.clear();
        for (&fp, state) in misses.tx.fps.iter().zip(&misses.tx.states) {
            tx_ids.push(self.tx.intern(fp, state.as_ref()));
        }
        rx_ids.clear();
        for (&fp, state) in misses.rx.fps.iter().zip(&misses.rx.states) {
            rx_ids.push(self.rx.intern(fp, state.as_ref()));
        }
    }

    /// Forgets every state, keeping the automaton boxes for reuse.
    pub(crate) fn clear(&mut self) {
        self.tx.clear();
        self.rx.clear();
    }

    /// Bytes the interned states take: a fixed index cost per state plus
    /// each automaton's reported space. A function of the set of states
    /// alone, so the same at any intern order.
    pub(crate) fn bytes(&self) -> usize {
        self.tx.bytes() + self.rx.bytes()
    }
}

/// Reads the `i`-th key of a little-endian-packed sorted key block — the
/// on-disk unit of the visited tiers' spill runs (see [`crate::visited`]).
/// The codec owns every byte layout in the dedup path, so the run format
/// lives here next to [`EncodedState`]'s.
pub(crate) fn key_at(block: &[u8], i: usize) -> u64 {
    let at = i * 8;
    u64::from_le_bytes(block[at..at + 8].try_into().expect("block layout"))
}

/// Binary-searches a little-endian-packed sorted key block for `key`.
/// `block.len()` must be a multiple of 8. This is the probe primitive the
/// visited tiers' positioned and batched disk probes both settle on, so a
/// single-key probe and a batched sequential probe can never disagree.
pub(crate) fn block_contains_key(block: &[u8], key: u64) -> bool {
    let mut lo = 0usize;
    let mut hi = block.len() / 8;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match key_at(block, mid).cmp(&key) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    false
}

/// The plain state key of `sys` — the soundness anchor of deduplication:
/// every action ends with the transmitter's outbox drained and the backward
/// channel empty, so these fields determine all future behaviour of the
/// deterministic system (see the module docs of [`crate::explore`]).
pub(crate) fn state_key(sys: &System) -> u64 {
    StateCodec::full().key(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{
        apply, build_root, enabled_actions, to_step, Discipline, ExploreConfig, ExploreOutcome,
    };
    use crate::schedule::Schedule;
    use nonfifo_protocols::{catalog, AlternatingBit, DataLink, SequenceNumber};
    use std::collections::{HashSet, VecDeque};

    /// The legacy key derivation, verbatim, as the compatibility oracle.
    fn legacy_full_key(sys: &System) -> u64 {
        let ms = sys.fwd.parked_multiset();
        StateHash::new("explore-state")
            .field(sys.tx.state_fingerprint())
            .field(sys.rx.state_fingerprint())
            .field(sys.counts().sm)
            .field(sys.counts().rm)
            .field(ms.content_hash())
            .field(ms.len() as u64)
            .finish()
    }

    fn legacy_quotient_key(sys: &System) -> u64 {
        let ms = sys.fwd.parked_multiset();
        let mut live = ms.content_hash();
        let mut retired = 0u64;
        for (p, _) in ms.iter() {
            if sys.packet_retired(p) {
                live = live.wrapping_sub(mix64(fnv64(&p)));
                retired += 1;
            }
        }
        StateHash::new("explore-state-por")
            .field(sys.tx.state_fingerprint())
            .field(sys.rx.state_fingerprint())
            .field(sys.counts().sm)
            .field(sys.counts().rm)
            .field(live)
            .field(retired)
            .field(ms.len() as u64)
            .finish()
    }

    /// Walk a few hundred states of a real exploration and check both codec
    /// keys against the legacy chains at every one.
    #[test]
    fn codec_keys_reproduce_the_legacy_digests() {
        let cfg = ExploreConfig::default();
        for proto in [
            &SequenceNumber::new() as &dyn nonfifo_protocols::DataLink,
            &AlternatingBit::new(),
        ] {
            let mut frontier = vec![build_root(proto, &cfg, true)];
            let mut seen = 0usize;
            while let Some(sys) = frontier.pop() {
                assert_eq!(StateCodec::full().key(&sys), legacy_full_key(&sys));
                assert_eq!(
                    StateCodec::retired_quotient().key(&sys),
                    legacy_quotient_key(&sys)
                );
                seen += 1;
                if seen >= 300 {
                    break;
                }
                for action in enabled_actions(&sys, &cfg) {
                    let mut next = sys.clone();
                    apply(&mut next, action);
                    frontier.push(next);
                }
            }
            assert!(seen >= 100, "walked a nontrivial sample: {seen}");
        }
    }

    #[test]
    fn encoded_fields_round_trip() {
        let cfg = ExploreConfig::default();
        let mut sys = build_root(&SequenceNumber::new(), &cfg, true);
        sys.send_msg();
        sys.step_park_all();
        let enc = StateCodec::full().encode(&sys);
        assert_eq!(enc.tx_fingerprint(), sys.tx.state_fingerprint());
        assert_eq!(enc.rx_fingerprint(), sys.rx.state_fingerprint());
        assert_eq!(enc.sm(), sys.counts().sm);
        assert_eq!(enc.rm(), sys.counts().rm);
        assert_eq!(enc.pool_digest(), sys.fwd.parked_multiset().content_hash());
        assert_eq!(enc.retired(), 0);
        assert_eq!(enc.pool_len(), sys.fwd.parked_multiset().len() as u64);
        assert_eq!(enc.as_bytes().len(), EncodedState::BYTES);
    }

    #[test]
    fn codec_stays_under_the_byte_budget() {
        // The 64 B/state target named in the module docs.
        const {
            assert!(EncodedState::BYTES <= 64);
        }
    }

    #[test]
    fn key_blocks_round_trip_and_probe_exactly() {
        let keys: Vec<u64> = (0..321u64).map(|i| i * 7 + 3).collect();
        let mut block = Vec::new();
        for &k in &keys {
            block.extend_from_slice(&k.to_le_bytes());
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(key_at(&block, i), k);
            assert!(block_contains_key(&block, k));
            assert!(!block_contains_key(&block, k + 1));
        }
        assert!(!block_contains_key(&block, 0));
        assert!(!block_contains_key(&[], 42));
    }

    /// The audit's identity: each automaton's `Debug` text (every field,
    /// spelled out), the message counters and the sorted pool. It is exact,
    /// with no 64-bit shortcut anywhere.
    type DebugTextKey = (String, String, u64, u64, Vec<nonfifo_ioa::Packet>);

    fn debug_text_key(sys: &System) -> DebugTextKey {
        let mut pool: Vec<_> = sys.fwd.parked_multiset().iter().map(|(p, _)| p).collect();
        pool.sort_unstable();
        let c = sys.counts();
        (
            format!("{:?}", sys.tx),
            format!("{:?}", sys.rx),
            c.sm,
            c.rm,
            pool,
        )
    }

    /// The sequential oracle's search (no reduction), deduplicating on
    /// [`debug_text_key`] instead of the shipped key. Returns the report the
    /// oracle would print: the attack script or the state count.
    fn explore_by_debug_text(proto: &dyn DataLink, cfg: &ExploreConfig) -> String {
        let root = build_root(proto, cfg, false);
        let mut visited = HashSet::from([debug_text_key(&root)]);
        let mut frontier = VecDeque::from([(root, Schedule::new(Vec::new()))]);
        while let Some((sys, path)) = frontier.pop_front() {
            if path.steps().len() >= cfg.max_depth {
                continue;
            }
            for action in enabled_actions(&sys, cfg) {
                let mut next = sys.clone();
                apply(&mut next, action);
                let mut steps = path.steps().to_vec();
                steps.push(to_step(action));
                let steps = Schedule::new(steps);
                if next.violation().is_some() {
                    return steps.to_text();
                }
                if visited.insert(debug_text_key(&next)) {
                    assert!(visited.len() < cfg.max_states, "audit scope truncated");
                    frontier.push_back((next, steps));
                }
            }
        }
        format!("{} states", visited.len())
    }

    #[test]
    fn shipped_identity_matches_debug_text_identity() {
        // One instance of every catalog family. A protocol whose identity
        // leaves out state the Debug text shows (or a hasher that merges
        // distinct states) explores a different number of states, or
        // certifies where the exact search finds an attack.
        let instances = [
            "abp",
            "cycle3",
            "seqnum",
            "window2",
            "gbn2",
            "srej1",
            "srej2",
            "outnumber3",
            "afek3",
            "stabilizing-dl",
        ];
        for (family, _) in catalog::PROTOCOLS {
            let stem = family.split(['<', '[']).next().unwrap_or(family);
            assert!(
                instances.iter().any(|i| i.starts_with(stem)),
                "catalog family {family} is not audited"
            );
        }
        for name in instances {
            let proto = catalog::by_name(name).expect("catalog name");
            for discipline in [
                Discipline::NonFifo,
                Discipline::LossyFifo,
                Discipline::BoundedReorder(2),
            ] {
                for (max_messages, max_depth, max_pool) in [(3, 16, 3), (5, 20, 4)] {
                    let cfg = ExploreConfig {
                        max_messages,
                        max_depth,
                        max_pool,
                        discipline,
                        ..ExploreConfig::default()
                    };
                    let shipped = match crate::Explorer::new().explore(proto.as_ref(), &cfg) {
                        ExploreOutcome::Counterexample { schedule, .. } => schedule.to_text(),
                        ExploreOutcome::Exhausted { states } => format!("{states} states"),
                        other => panic!("{name}: audit scope truncated: {other:?}"),
                    };
                    assert_eq!(
                        shipped,
                        explore_by_debug_text(proto.as_ref(), &cfg),
                        "{name} {discipline} {max_messages}/{max_depth}/{max_pool}: \
                         the shipped state identity disagrees with the exact one"
                    );
                }
            }
        }
    }

    #[test]
    fn modes_are_domain_separated() {
        let cfg = ExploreConfig::default();
        let sys = build_root(&SequenceNumber::new(), &cfg, true);
        assert_ne!(
            StateCodec::full().key(&sys),
            StateCodec::retired_quotient().key(&sys),
            "the two key domains must never collide structurally"
        );
    }
}
