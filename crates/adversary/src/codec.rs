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

use crate::system::System;
use nonfifo_ioa::fingerprint::{fnv64, mix64, StateHash};

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
        // The acceptance criterion pinned in BENCH_baseline.json.
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
