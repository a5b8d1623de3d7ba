//! A multiset of in-transit packet copies with per-copy provenance.

use crate::channel::tally_headers;
use nonfifo_ioa::fingerprint::{fnv64, mix64};
use nonfifo_ioa::{CopyId, Header, Packet};
use std::collections::BTreeMap;

/// The set of packet copies currently delayed on a channel.
///
/// Copies are indexed both by packet value (so an adversary can ask for "the
/// oldest delayed copy of `p`", the replay primitive of every proof) and by
/// copy id (so a scripted adversary can release a specific copy). "Oldest"
/// means smallest [`CopyId`], i.e. mint order.
///
/// # Representation
///
/// One flat `Vec<(CopyId, Packet)>` kept sorted by copy id. Channels mint
/// copy ids monotonically, so inserts are almost always a `push`, and the
/// per-copy queries ([`packet_of`](PacketMultiset::packet_of),
/// [`take_copy`](PacketMultiset::take_copy),
/// [`copies_older_than`](PacketMultiset::copies_older_than)) are binary
/// searches. The per-value queries are linear scans: the counts
/// ([`packet_copies`](PacketMultiset::packet_copies),
/// [`header_copies`](PacketMultiset::header_copies)), the oldest-of-value
/// lookups and takes, the census
/// ([`histogram`](PacketMultiset::histogram),
/// [`census_with`](PacketMultiset::census_with)), and the per-header stale
/// count ([`count_headers_older_than`](PacketMultiset::count_headers_older_than),
/// over the copies older than its watermark). The explorers bound their
/// pools to a few cache lines, so there the scans are cheap. A simulator
/// pool is not bounded: at 16 messages the outnumber5 run over `prob:0.5`
/// ends with 120,842 copies delayed. Two simulator paths scan it: the
/// stall census, once per stalled run, and the ghost count for
/// ghost-reading protocols (afek), one pass over the stale copies on
/// every step. The payoff of the flat table is on the
/// state-space-exploration hot path: cloning the multiset is one `memcpy`,
/// and [`content_hash`](PacketMultiset::content_hash) is an incrementally
/// maintained accumulator, so hashing a system state no longer walks the
/// pool at all.
///
/// # Example
///
/// ```
/// use nonfifo_channel::PacketMultiset;
/// use nonfifo_ioa::{CopyId, Header, Packet};
///
/// let mut ms = PacketMultiset::new();
/// let p = Packet::header_only(Header::new(0));
/// ms.insert(p, CopyId::from_raw(1));
/// ms.insert(p, CopyId::from_raw(2));
/// assert_eq!(ms.packet_copies(p), 2);
/// let (_, oldest) = ms.take_oldest_of_packet(p).unwrap();
/// assert_eq!(oldest, CopyId::from_raw(1));
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PacketMultiset {
    /// `(copy, packet)` pairs sorted by copy id (mint order).
    entries: Vec<(CopyId, Packet)>,
    /// Order-independent accumulator: the wrapping sum of
    /// `mix64(fnv64(packet))` over every delayed copy. Two pools with the
    /// same value histogram have the same accumulator, whatever order
    /// copies came and went. The [`mix64`] finalizer is load-bearing: raw
    /// FNV hashes of sequentially-numbered packets sum-collide.
    acc: u64,
}

impl Clone for PacketMultiset {
    fn clone(&self) -> Self {
        PacketMultiset {
            entries: self.entries.clone(),
            acc: self.acc,
        }
    }

    /// Capacity-reusing clone: the explorers assign states into warm trial
    /// systems, so the steady-state expansion loop never touches the heap.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
        self.acc = source.acc;
    }
}

impl PacketMultiset {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        PacketMultiset::default()
    }

    /// Total number of delayed copies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no copies are delayed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Order-independent 64-bit digest of the value histogram, maintained
    /// incrementally on every insert and removal. Together with
    /// [`len`](PacketMultiset::len) this is the multiset's contribution to
    /// the explorers' state key — O(1) instead of a walk over the pool.
    pub fn content_hash(&self) -> u64 {
        self.acc
    }

    /// Heap bytes currently reserved by the multiset (the capacity, not
    /// just the live entries) — input to the explorer's frontier memory
    /// gauge.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(CopyId, Packet)>()
    }

    /// Inserts a copy of `packet`.
    ///
    /// # Panics
    ///
    /// Panics if `copy` is already present — copy ids are minted uniquely by
    /// the channel, so a duplicate insert is a harness bug.
    pub fn insert(&mut self, packet: Packet, copy: CopyId) {
        let pos = match self.entries.last() {
            // Channels mint ids monotonically, so this is the common case.
            Some(&(last, _)) if last < copy => self.entries.len(),
            None => 0,
            _ => match self.entries.binary_search_by_key(&copy, |e| e.0) {
                Err(pos) => pos,
                Ok(_) => panic!("copy {copy} inserted twice"),
            },
        };
        self.entries.insert(pos, (copy, packet));
        self.acc = self.acc.wrapping_add(mix64(fnv64(&packet)));
    }

    fn remove_at(&mut self, pos: usize) -> (Packet, CopyId) {
        let (copy, packet) = self.entries.remove(pos);
        self.acc = self.acc.wrapping_sub(mix64(fnv64(&packet)));
        (packet, copy)
    }

    /// Number of delayed copies of the exact packet value `p`.
    pub fn packet_copies(&self, p: Packet) -> usize {
        self.entries.iter().filter(|&&(_, q)| q == p).count()
    }

    /// Number of delayed copies whose header is `h` (any payload).
    pub fn header_copies(&self, h: Header) -> usize {
        self.entries
            .iter()
            .filter(|&&(_, q)| q.header() == h)
            .count()
    }

    /// The packet value of a delayed copy, if it is delayed.
    pub fn packet_of(&self, copy: CopyId) -> Option<Packet> {
        self.entries
            .binary_search_by_key(&copy, |e| e.0)
            .ok()
            .map(|pos| self.entries[pos].1)
    }

    /// Adds the delayed copies minted before `watermark` to `counts` by
    /// header (see [`tally_headers`]): one pass over the stale prefix.
    pub fn count_headers_older_than(&self, watermark: CopyId, counts: &mut Vec<(Header, u64)>) {
        let older = self.copies_older_than(watermark);
        tally_headers(self.entries[..older].iter().map(|&(_, p)| p), counts);
    }

    /// Number of delayed copies minted before `watermark` (any value) —
    /// how many a delivery of `watermark` would overtake.
    pub fn copies_older_than(&self, watermark: CopyId) -> usize {
        self.entries.partition_point(|&(c, _)| c < watermark)
    }

    /// Removes and returns a specific copy.
    pub fn take_copy(&mut self, copy: CopyId) -> Option<Packet> {
        let pos = self.entries.binary_search_by_key(&copy, |e| e.0).ok()?;
        Some(self.remove_at(pos).0)
    }

    /// The oldest delayed copy of the exact packet `p`, if any.
    pub fn oldest_of_packet(&self, p: Packet) -> Option<CopyId> {
        self.entries.iter().find(|&&(_, q)| q == p).map(|&(c, _)| c)
    }

    /// Removes and returns the oldest delayed copy of the exact packet `p`.
    pub fn take_oldest_of_packet(&mut self, p: Packet) -> Option<(Packet, CopyId)> {
        let pos = self.entries.iter().position(|&(_, q)| q == p)?;
        let (packet, copy) = self.remove_at(pos);
        Some((packet, copy))
    }

    /// Removes and returns the oldest delayed copy with header `h`.
    pub fn take_oldest_of_header(&mut self, h: Header) -> Option<(Packet, CopyId)> {
        let pos = self.entries.iter().position(|&(_, q)| q.header() == h)?;
        let (packet, copy) = self.remove_at(pos);
        Some((packet, copy))
    }

    /// Removes and returns the oldest delayed copy overall.
    pub fn take_oldest(&mut self) -> Option<(Packet, CopyId)> {
        if self.entries.is_empty() {
            return None;
        }
        let (packet, copy) = self.remove_at(0);
        Some((packet, copy))
    }

    /// Iterates over `(packet, copy)` pairs in copy-mint order.
    pub fn iter(&self) -> impl Iterator<Item = (Packet, CopyId)> + '_ {
        self.entries.iter().map(|&(c, p)| (p, c))
    }

    /// Iterates over the distinct packet values present, in packet order.
    pub fn packets(&self) -> impl Iterator<Item = Packet> + '_ {
        let mut values: Vec<Packet> = self.entries.iter().map(|&(_, p)| p).collect();
        values.sort_unstable();
        values.dedup();
        values.into_iter()
    }

    /// Per-packet-value copy counts, in packet order (deterministic).
    pub fn histogram(&self) -> Vec<(Packet, usize)> {
        let mut values: Vec<Packet> = self.entries.iter().map(|&(_, p)| p).collect();
        values.sort_unstable();
        let mut out: Vec<(Packet, usize)> = Vec::new();
        for p in values {
            match out.last_mut() {
                Some((q, n)) if *q == p => *n += 1,
                _ => out.push((p, 1)),
            }
        }
        out
    }

    /// The [`histogram`](PacketMultiset::histogram) extended with copies
    /// living outside the multiset (delivery queues, storm buffers), in
    /// packet order. This is the single census path for every channel that
    /// keeps its delayed pool in a `PacketMultiset` — the telemetry layer
    /// reads the same counts the stall diagnostics print.
    pub fn census_with(&self, extra: impl Iterator<Item = Packet>) -> Vec<(Packet, usize)> {
        let mut counts: BTreeMap<Packet, usize> = BTreeMap::new();
        for (p, _) in self.iter() {
            *counts.entry(p).or_insert(0) += 1;
        }
        for p in extra {
            *counts.entry(p).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Replaces the contents with `copies`, which must come in ascending
    /// copy-id order (as [`iter`](PacketMultiset::iter) yields them), and
    /// takes `digest` as the [`content_hash`](PacketMultiset::content_hash)
    /// of the result instead of rehashing every value. The buffer is
    /// reused, so refilling a warm multiset does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if the copy ids are not strictly ascending. A digest that
    /// does not match the values is caught in debug builds.
    pub fn restore(&mut self, copies: impl IntoIterator<Item = (Packet, CopyId)>, digest: u64) {
        self.entries.clear();
        for (packet, copy) in copies {
            if let Some(&(last, _)) = self.entries.last() {
                assert!(last < copy, "restored copies out of mint order");
            }
            self.entries.push((copy, packet));
        }
        self.acc = digest;
        debug_assert_eq!(
            self.entries
                .iter()
                .fold(0u64, |acc, (_, p)| acc.wrapping_add(mix64(fnv64(p)))),
            digest,
            "restored digest does not match the values"
        );
    }

    /// Removes every copy, returning them in mint order.
    pub fn drain_all(&mut self) -> Vec<(Packet, CopyId)> {
        self.acc = 0;
        self.entries.drain(..).map(|(c, p)| (p, c)).collect()
    }
}

impl IntoIterator for &PacketMultiset {
    type Item = (Packet, CopyId);
    type IntoIter = std::vec::IntoIter<(Packet, CopyId)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_ioa::Payload;

    fn p(h: u32) -> Packet {
        Packet::header_only(Header::new(h))
    }

    fn c(raw: u64) -> CopyId {
        CopyId::from_raw(raw)
    }

    #[test]
    fn insert_and_counts() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(0), c(1));
        ms.insert(p(0), c(2));
        ms.insert(p(1), c(3));
        assert_eq!(ms.len(), 3);
        assert_eq!(ms.packet_copies(p(0)), 2);
        assert_eq!(ms.header_copies(Header::new(1)), 1);
        assert_eq!(ms.header_copies(Header::new(9)), 0);
    }

    #[test]
    fn header_copies_spans_payloads() {
        let mut ms = PacketMultiset::new();
        ms.insert(Packet::new(Header::new(0), Payload::new(1)), c(1));
        ms.insert(Packet::new(Header::new(0), Payload::new(2)), c(2));
        assert_eq!(ms.header_copies(Header::new(0)), 2);
        assert_eq!(
            ms.packet_copies(Packet::new(Header::new(0), Payload::new(1))),
            1
        );
    }

    #[test]
    fn take_oldest_of_packet_is_fifo() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(0), c(5));
        ms.insert(p(0), c(9));
        assert_eq!(ms.take_oldest_of_packet(p(0)), Some((p(0), c(5))));
        assert_eq!(ms.take_oldest_of_packet(p(0)), Some((p(0), c(9))));
        assert_eq!(ms.take_oldest_of_packet(p(0)), None);
        assert!(ms.is_empty());
    }

    #[test]
    fn take_oldest_of_header_crosses_payloads() {
        let mut ms = PacketMultiset::new();
        let a = Packet::new(Header::new(0), Payload::new(7));
        ms.insert(a, c(2));
        ms.insert(p(0), c(1));
        let (_, copy) = ms.take_oldest_of_header(Header::new(0)).unwrap();
        assert_eq!(copy, c(1));
    }

    #[test]
    fn take_specific_copy() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(0), c(1));
        ms.insert(p(0), c(2));
        assert_eq!(ms.take_copy(c(2)), Some(p(0)));
        assert_eq!(ms.take_copy(c(2)), None);
        assert_eq!(ms.packet_copies(p(0)), 1);
    }

    #[test]
    fn take_oldest_overall() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(1), c(4));
        ms.insert(p(0), c(2));
        assert_eq!(ms.take_oldest(), Some((p(0), c(2))));
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(0), c(1));
        ms.insert(p(1), c(1));
    }

    #[test]
    fn histogram_is_deterministic() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(1), c(1));
        ms.insert(p(0), c(2));
        ms.insert(p(1), c(3));
        assert_eq!(ms.histogram(), vec![(p(0), 1), (p(1), 2)]);
    }

    #[test]
    fn drain_all_in_mint_order() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(1), c(3));
        ms.insert(p(0), c(1));
        assert_eq!(ms.drain_all(), vec![(p(0), c(1)), (p(1), c(3))]);
        assert!(ms.is_empty());
        assert_eq!(ms.content_hash(), 0);
    }

    #[test]
    fn out_of_order_insert_keeps_mint_order() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(1), c(7));
        ms.insert(p(0), c(3));
        ms.insert(p(2), c(5));
        let order: Vec<CopyId> = ms.iter().map(|(_, c)| c).collect();
        assert_eq!(order, vec![c(3), c(5), c(7)]);
        assert_eq!(ms.take_oldest(), Some((p(0), c(3))));
    }

    #[test]
    fn content_hash_is_order_independent_and_count_sensitive() {
        let mut a = PacketMultiset::new();
        a.insert(p(0), c(1));
        a.insert(p(1), c(2));
        let mut b = PacketMultiset::new();
        b.insert(p(1), c(9));
        b.insert(p(0), c(4));
        // Same histogram, different copy ids and insertion order.
        assert_eq!(a.content_hash(), b.content_hash());
        b.insert(p(0), c(10));
        assert_ne!(a.content_hash(), b.content_hash());
        // Removal restores the digest exactly.
        b.take_copy(c(10));
        assert_eq!(a.content_hash(), b.content_hash());
    }

    /// Differential property against the twin-BTreeMap model the flat
    /// representation replaced: a random op sequence must leave both with
    /// the same histogram, per-value counts, oldest-copy answers, and
    /// removal results — and equal histograms must mean equal
    /// `content_hash`, however different the op orders that built them.
    #[test]
    fn flat_repr_matches_btreemap_model() {
        use nonfifo_rng::StdRng;
        use std::collections::BTreeMap;

        /// The old representation, as the executable model: copies by
        /// value and by id, in two ordered maps.
        #[derive(Default)]
        struct Model {
            by_value: BTreeMap<Packet, Vec<CopyId>>,
            by_copy: BTreeMap<CopyId, Packet>,
        }

        impl Model {
            fn insert(&mut self, p: Packet, c: CopyId) {
                let ids = self.by_value.entry(p).or_default();
                ids.push(c);
                ids.sort_unstable();
                self.by_copy.insert(c, p);
            }

            fn remove(&mut self, p: Packet, c: CopyId) {
                let ids = self.by_value.get_mut(&p).unwrap();
                ids.retain(|&i| i != c);
                if ids.is_empty() {
                    self.by_value.remove(&p);
                }
                self.by_copy.remove(&c);
            }

            fn histogram(&self) -> Vec<(Packet, usize)> {
                self.by_value.iter().map(|(&p, v)| (p, v.len())).collect()
            }
        }

        let cases: u64 = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        for seed in 0..cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ms = PacketMultiset::new();
            let mut model = Model::default();
            let mut next_copy = 1u64;
            for _ in 0..200 {
                match rng.gen_range(0..6) {
                    // Insert a copy of a packet from a small value universe
                    // (so duplicates and shared headers actually occur).
                    0..=2 => {
                        let packet = Packet::new(
                            Header::new(rng.gen_range(0..4) as u32),
                            Payload::new(rng.gen_range(0..3) as u64),
                        );
                        let copy = c(next_copy);
                        next_copy += 1;
                        ms.insert(packet, copy);
                        model.insert(packet, copy);
                    }
                    3 => {
                        if let Some((packet, copy)) = ms.take_oldest() {
                            assert_eq!(
                                copy,
                                *model.by_copy.keys().next().unwrap(),
                                "seed {seed}: oldest copy diverged"
                            );
                            model.remove(packet, copy);
                        } else {
                            assert!(model.by_copy.is_empty());
                        }
                    }
                    4 => {
                        let packet = Packet::new(
                            Header::new(rng.gen_range(0..4) as u32),
                            Payload::new(rng.gen_range(0..3) as u64),
                        );
                        let expected = model
                            .by_value
                            .get(&packet)
                            .and_then(|ids| ids.first().copied());
                        match ms.take_oldest_of_packet(packet) {
                            Some((q, copy)) => {
                                assert_eq!(q, packet);
                                assert_eq!(Some(copy), expected, "seed {seed}");
                                model.remove(packet, copy);
                            }
                            None => assert_eq!(expected, None, "seed {seed}"),
                        }
                    }
                    _ => {
                        let copy = c(rng.gen_range(1..next_copy.max(2) as usize) as u64);
                        let expected = model.by_copy.get(&copy).copied();
                        let got = ms.take_copy(copy);
                        assert_eq!(got, expected, "seed {seed}: take_copy diverged");
                        if let Some(p) = got {
                            model.remove(p, copy);
                        }
                    }
                }
                assert_eq!(ms.len(), model.by_copy.len(), "seed {seed}");
                assert_eq!(ms.histogram(), model.histogram(), "seed {seed}");
                for (&p, ids) in &model.by_value {
                    assert_eq!(ms.packet_copies(p), ids.len(), "seed {seed}");
                    assert_eq!(ms.oldest_of_packet(p), ids.first().copied(), "seed {seed}");
                }
                // Content digest is a pure function of the histogram:
                // rebuilding the same histogram in a different op order
                // (ascending copy ids, value-major) must reproduce it.
                let mut rebuilt = PacketMultiset::new();
                let mut id = 1u64;
                for (p, n) in model.histogram() {
                    for _ in 0..n {
                        rebuilt.insert(p, c(id));
                        id += 1;
                    }
                }
                assert_eq!(
                    rebuilt.content_hash(),
                    ms.content_hash(),
                    "seed {seed}: digest is not order-independent"
                );
            }
        }
    }

    #[test]
    fn copies_older_than_counts_the_overtaken() {
        let mut ms = PacketMultiset::new();
        ms.insert(p(0), c(1));
        ms.insert(p(1), c(3));
        ms.insert(p(0), c(5));
        assert_eq!(ms.copies_older_than(c(1)), 0);
        assert_eq!(ms.copies_older_than(c(4)), 2);
        assert_eq!(ms.copies_older_than(c(9)), 3);
        let mut counts = Vec::new();
        ms.count_headers_older_than(c(4), &mut counts);
        assert_eq!(counts, [(Header::new(0), 1), (Header::new(1), 1)]);
    }
}
