//! State identity and state storage for the explorers.
//!
//! The module does three jobs, one entry point each:
//!
//! - **The dedup key.** [`StateCodec::key`] hashes a [`System`] into the
//!   64-bit key both engines and the visited tiers ([`crate::visited`])
//!   deduplicate on: a [`StateHash`] chain over the control fingerprints
//!   of both automata, the `sm`/`rm` counters, an order-independent digest
//!   of the parked pool and its length. A codec is fixed per run and comes
//!   in two kinds, under separate domain tags:
//!   - [`StateCodec::full`] — the plain state key (tag `explore-state`):
//!     every pool value enters the digest.
//!   - [`StateCodec::retired_quotient`] — the partial-order-reduction
//!     quotient (tag `explore-state-por`, see [`crate::por`]): pool
//!     copies whose values both stations have permanently retired leave
//!     the digest and are counted instead.
//! - **The frontier record.** A key identifies a state; a record *is*
//!   one. [`save`] and [`load`] turn a [`System`] at rest into a few dozen
//!   bytes and back (layout at [`save`]): a fixed head of the two automata,
//!   named by id, and the pool digest, then varints for the counters and
//!   the delta-coded parked copies. The parallel engine stores its
//!   frontier levels as flat byte slabs of these records.
//! - **The station table.** A [`StationTable`] interns every distinct
//!   transmitter and receiver state of a run once, so a record names its
//!   two automata by 32-bit id.

use crate::system::{RestScalars, System};
use nonfifo_ioa::fingerprint::{fnv64, mix64, Fnv64, StateHash};
use nonfifo_ioa::{CopyId, Counts, Header, Packet, Payload};
use nonfifo_protocols::{Receiver, Transmitter};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The dedup key derivation of one exploration run: the plain state key
/// or the partial-order-reduction retired-copy quotient.
///
/// A `Copy` value fixed per run: both engines and the POR context hold one
/// and route every dedup key through [`key`](StateCodec::key), so the
/// derivation lives in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCodec {
    /// Whether retired pool copies are counted instead of digested.
    quotient: bool,
}

impl StateCodec {
    /// Codec for the plain state key (domain tag `explore-state`).
    pub const fn full() -> Self {
        StateCodec { quotient: false }
    }

    /// Codec for the POR retired-copy quotient key (domain tag
    /// `explore-state-por`).
    pub const fn retired_quotient() -> Self {
        StateCodec { quotient: true }
    }

    /// The 64-bit dedup key of `sys`: the [`StateHash`] chain over the
    /// transmitter and receiver fingerprints, `sm`, `rm` and the pool
    /// digest, then (quotient only) the retired-copy count, then the pool
    /// length. A pure function of the state, so pinned state counts and
    /// reports never depend on which engine or thread computed it.
    ///
    /// The plain key is the soundness anchor of deduplication: every action
    /// ends with the transmitter's outbox drained and the backward channel
    /// empty, so these fields determine all future behaviour of the
    /// deterministic system (see the module docs of [`crate::explore`]).
    ///
    /// # Panics
    ///
    /// Panics if `sm`, `rm` or the pool length reaches 2³², which no scope
    /// the explorer can finish does.
    pub fn key(&self, sys: &System) -> u64 {
        let ms = sys.fwd.parked_multiset();
        let counts = sys.counts();
        let chain = |start: StateHash| {
            start
                .field(sys.tx.state_fingerprint())
                .field(sys.rx.state_fingerprint())
                .field(scope_count(counts.sm))
                .field(scope_count(counts.rm))
        };
        if !self.quotient {
            return chain(const { StateHash::new("explore-state") })
                .field(ms.content_hash())
                .field(scope_count(ms.len() as u64))
                .finish();
        }
        // Start from the incrementally maintained whole-pool digest and
        // subtract the retired copies back out: the walk only pays for
        // what it anonymises.
        let mut live = ms.content_hash();
        let mut retired = 0u64;
        for (p, _) in ms.iter() {
            if sys.packet_retired(p) {
                live = live.wrapping_sub(mix64(fnv64(&p)));
                retired += 1;
            }
        }
        chain(const { StateHash::new("explore-state-por") })
            .field(live)
            .field(scope_count(retired))
            .field(scope_count(ms.len() as u64))
            .finish()
    }
}

/// `v`, a count the scope bounds (messages, pool copies), as a key field.
/// The check proves the four high bytes zero, so the compiler folds their
/// four steps of the byte-wise FNV chain into one multiply: about 10% off
/// each key. A scope the explorer can finish never counts to 2³².
fn scope_count(v: u64) -> u64 {
    u64::from(u32::try_from(v).expect("a scope count below 2^32"))
}

/// Bytes of a frontier record before its varint fields: the two station
/// ids and the pool digest.
const RECORD_HEAD: usize = 16;

/// Appends `v` to `out` as an unsigned LEB128 varint: seven bits a byte,
/// low bits first, the high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the LEB128 varint at the front of `bytes` and advances past it.
#[inline]
fn take_varint(bytes: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&b, rest) = bytes.split_first().expect("a record ends mid-varint");
        *bytes = rest;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Reads the little-endian `u64` at the front of `bytes` and advances past
/// it.
fn take_u64(bytes: &mut &[u8]) -> u64 {
    let (word, rest) = bytes.split_at(8);
    *bytes = rest;
    u64::from_le_bytes(word.try_into().expect("8 bytes"))
}

/// Appends the record of a system at rest with the station ids `tx` and
/// `rx`, the scalars `s` and the parked copies `pool` (in mint order) to
/// `out`.
fn put_record(
    tx: u32,
    rx: u32,
    s: &RestScalars,
    pool: impl IntoIterator<Item = (Packet, CopyId)>,
    out: &mut Vec<u8>,
) {
    let c = s.counts;
    out.extend_from_slice(&tx.to_le_bytes());
    out.extend_from_slice(&rx.to_le_bytes());
    out.extend_from_slice(&s.pool_digest.to_le_bytes());
    for v in [
        c.sm,
        c.rm,
        c.sp_fwd,
        c.rp_fwd,
        c.dropped_fwd,
        c.sp_bwd,
        c.rp_bwd,
        c.dropped_bwd,
        s.round_watermark,
        s.peak_space as u64,
    ] {
        put_varint(out, v);
    }
    let mut last = 0;
    for (packet, copy) in pool {
        let gap = copy
            .raw()
            .checked_sub(last)
            .expect("parked copies come in mint order");
        last = copy.raw();
        put_varint(out, gap);
        let header = u64::from(packet.header().index()) << 1;
        match packet.payload() {
            None => put_varint(out, header),
            Some(payload) => {
                put_varint(out, header | 1);
                out.extend_from_slice(&payload.word().to_le_bytes());
            }
        }
    }
}

/// The scalars of a record and, lazily, its parked copies.
fn read_record(record: &[u8]) -> (RestScalars, Copies<'_>) {
    let pool_digest = u64::from_le_bytes(record[8..RECORD_HEAD].try_into().expect("8 bytes"));
    let mut bytes = &record[RECORD_HEAD..];
    let mut next = || take_varint(&mut bytes);
    let counts = Counts {
        sm: next(),
        rm: next(),
        sp_fwd: next(),
        rp_fwd: next(),
        dropped_fwd: next(),
        sp_bwd: next(),
        rp_bwd: next(),
        dropped_bwd: next(),
    };
    let scalars = RestScalars {
        counts,
        round_watermark: next(),
        peak_space: next() as usize,
        pool_digest,
    };
    (scalars, Copies { bytes, last: 0 })
}

/// The parked copies of a record, decoded one at a time in mint order.
struct Copies<'a> {
    bytes: &'a [u8],
    /// The previous copy's id, which the next copy's gap is taken from.
    last: u64,
}

impl Iterator for Copies<'_> {
    type Item = (Packet, CopyId);

    // Inlined into `System::restore`'s copy loop, which `load` runs once
    // per frontier node.
    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.bytes.is_empty() {
            return None;
        }
        self.last += take_varint(&mut self.bytes);
        let tagged = take_varint(&mut self.bytes);
        let header = Header::new(u32::try_from(tagged >> 1).expect("a header index"));
        let packet = match tagged & 1 {
            0 => Packet::header_only(header),
            _ => Packet::new(header, Payload::new(take_u64(&mut self.bytes))),
        };
        Some((packet, CopyId::from_raw(self.last)))
    }
}

/// Appends `sys`'s frontier record to `out` under the station ids `tx`
/// and `rx` — [`save`] with the ids already resolved.
pub(crate) fn write_record(sys: &System, tx: u32, rx: u32, out: &mut Vec<u8>) {
    put_record(
        tx,
        rx,
        &sys.rest_scalars(),
        sys.fwd.parked_multiset().iter(),
        out,
    );
}

/// The station ids a record names, `(transmitter, receiver)`.
pub(crate) fn record_stations(record: &[u8]) -> (u32, u32) {
    let id = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes"));
    (id(0), id(4))
}

/// Renames the station ids a record names, in place: they are a fixed
/// prefix, so the rest of the record does not move.
pub(crate) fn set_record_stations(record: &mut [u8], tx: u32, rx: u32) {
    record[0..4].copy_from_slice(&tx.to_le_bytes());
    record[4..8].copy_from_slice(&rx.to_le_bytes());
}

/// Appends `sys`'s **frontier record** to `out`, interning its two automata
/// in `stations` and naming them by station id. The record is the whole
/// state of a system at rest, so [`load`] rebuilds an equal system from it.
/// Layout, in bytes; a fixed 16-byte head, then unsigned LEB128 varints
/// (seven bits a byte, low bits first):
///
/// | bytes | content |
/// |------:|---------|
/// |  0..4 | transmitter station id, `u32` little-endian |
/// |  4..8 | receiver station id, `u32` little-endian |
/// | 8..16 | parked-pool content digest, `u64` little-endian |
/// |   16… | ten varints: `sm`, `rm`; packets sent, received and dropped t→r; sent, received and dropped r→t; stale-copy watermark; peak automaton space |
/// |     … | per parked copy, in mint order: a varint of its copy id minus the previous copy's (the first copy's minus 0), a varint of `header << 1 \| has_payload`, and the payload's 8 little-endian bytes if the flag is set |
///
/// Nothing else is stored. The copy watermarks, the channels' counters,
/// the monitor's counters and the message counter equal or sum the
/// stored counts; the monitor's live forward table equals the parked
/// pool; at rest the backward channel, the delivery queues and the drop
/// buffers are empty and no violation is latched (saving asserts all of
/// it). A bounded scope keeps every scalar small, so a varint is mostly
/// one byte: at seqnum 9/26/10 each counter takes one byte, a header-only
/// copy two, and a record averages 43 bytes (16 of head, 10 of counters
/// and 8.6 copies). The station ids are a fixed prefix so that the
/// parallel rebuild can rename a provisional id in place.
///
/// # Panics
///
/// Panics if `sys` is not at rest — a counts-only system whose last step
/// has settled, which every explorer action ensures.
pub fn save(sys: &System, stations: &mut StationTable, out: &mut Vec<u8>) {
    let (tx, rx) = stations.intern(sys);
    write_record(sys, tx, rx, out);
}

/// Loads the frontier record `record`, saved against `stations`, into
/// `into`, which must be a counts-only system of the same run (its burst,
/// partition and ghost settings are kept). Every buffer and automaton box
/// of `into` is reused, so loading into a warm system does not allocate.
pub fn load(record: &[u8], stations: &StationTable, into: &mut System) {
    let (tx, rx) = record_stations(record);
    let (scalars, pool) = read_record(record);
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

    /// Writes the record `(tx, rx, s, pool)`, checks that it reads back
    /// whole, and returns its bytes.
    fn round_trip(tx: u32, rx: u32, s: &RestScalars, pool: &[(Packet, CopyId)]) -> Vec<u8> {
        let mut record = Vec::new();
        put_record(tx, rx, s, pool.iter().copied(), &mut record);
        assert_eq!(record_stations(&record), (tx, rx));
        let (scalars, copies) = read_record(&record);
        assert_eq!(&scalars, s);
        assert_eq!(copies.collect::<Vec<_>>(), pool);
        record
    }

    /// Scalars with every field `v`.
    fn scalars_of(v: u64) -> RestScalars {
        RestScalars {
            counts: Counts {
                sm: v,
                rm: v,
                sp_fwd: v,
                rp_fwd: v,
                sp_bwd: v,
                rp_bwd: v,
                dropped_fwd: v,
                dropped_bwd: v,
            },
            round_watermark: v,
            peak_space: v as usize,
            pool_digest: v.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn header_only(h: u32, copy: u64) -> (Packet, CopyId) {
        (Packet::header_only(Header::new(h)), CopyId::from_raw(copy))
    }

    #[test]
    fn record_scalars_round_trip_at_the_varint_edges() {
        // A varint spends one byte per started 7 bits of its value.
        for (v, width) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16383, 2),
            (16384, 3),
            (u64::from(u32::MAX), 5),
        ] {
            let record = round_trip(0, 0, &scalars_of(v), &[]);
            assert_eq!(record.len(), RECORD_HEAD + 10 * width, "every field {v}");
        }
        // Distinct values per field, so two swapped fields cannot read back.
        let mut s = scalars_of(0);
        s.counts = Counts {
            sm: 1,
            rm: 2,
            sp_fwd: 3,
            rp_fwd: 4,
            sp_bwd: 5,
            rp_bwd: 6,
            dropped_fwd: 7,
            dropped_bwd: 8,
        };
        s.round_watermark = 9;
        s.peak_space = 10;
        round_trip(0, 0, &s, &[]);
    }

    #[test]
    fn an_empty_pool_ends_the_record_at_its_counters() {
        let record = round_trip(3, 4, &scalars_of(5), &[]);
        assert_eq!(record.len(), RECORD_HEAD + 10);
        assert_eq!(read_record(&record).1.next(), None);
    }

    #[test]
    fn copy_gaps_round_trip_across_the_varint_boundaries() {
        for (gap, width) in [
            (1, 1),
            (127, 1),
            (128, 2),
            (129, 2),
            (16383, 2),
            (16384, 3),
            (16385, 3),
        ] {
            // The first copy's id is its gap from 0; headers stay one byte.
            let pool: Vec<_> = (1..=4).map(|i| header_only(i as u32, i * gap)).collect();
            let record = round_trip(0, 0, &scalars_of(1), &pool);
            assert_eq!(
                record.len(),
                RECORD_HEAD + 10 + 4 * (width + 1),
                "gap {gap}"
            );
        }
        // A gap of 0 (the first copy minted), ids near the top of the
        // range, and a header at the top of its range.
        let pool = [
            header_only(0, 0),
            header_only(u32::MAX, u64::MAX - 1),
            header_only(1, u64::MAX),
        ];
        round_trip(0, 0, &scalars_of(1), &pool);
    }

    #[test]
    fn payload_copies_carry_their_whole_word() {
        let with = |h: u32, word: u64, copy: u64| {
            (
                Packet::new(Header::new(h), Payload::new(word)),
                CopyId::from_raw(copy),
            )
        };
        let pool = [
            with(2, u64::MAX, 1),
            header_only(2, 2),
            with(0, 0, 3),
            with(7, u64::MAX, 200),
        ];
        let record = round_trip(0, 0, &scalars_of(1), &pool);
        // Gaps 1, 1, 1 and 197; headers 2, 2, 0 and 7; three payloads.
        assert_eq!(record.len(), RECORD_HEAD + 10 + (3 + 2) + 4 + 3 * 8);
    }

    #[test]
    fn provisional_station_ids_patch_in_place() {
        let pool = [header_only(1, 1), header_only(2, 130)];
        let s = scalars_of(300);
        let mut record = round_trip(PROVISIONAL | 5, PROVISIONAL, &s, &pool);
        let len = record.len();
        set_record_stations(&mut record, 7, PROVISIONAL - 1);
        assert_eq!(record.len(), len);
        assert_eq!(record_stations(&record), (7, PROVISIONAL - 1));
        let (scalars, copies) = read_record(&record);
        assert_eq!(scalars, s);
        assert_eq!(copies.collect::<Vec<_>>(), pool);
    }

    #[test]
    fn the_seqnum_root_record_is_exactly_26_bytes() {
        // The 16-byte head and ten one-byte counters over an empty pool; a
        // change of layout moves this.
        let root = build_root(&SequenceNumber::new(), &ExploreConfig::default(), false);
        let mut record = Vec::new();
        save(&root, &mut StationTable::new(), &mut record);
        assert_eq!(record.len(), 26);
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
