//! One direction's copies in transit, sorted by copy id: the table behind
//! both a channel's delayed pool and the spec monitor.

use crate::packet::{CopyId, Header, Packet};
use std::fmt;

/// A header-only copy in 12 bytes. Packing to 4-byte alignment keeps the
/// `u64` id from padding the row to 16; the fields are only ever copied
/// out, never borrowed.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
struct Narrow {
    id: CopyId,
    header: Header,
}

/// A row of either width, read by value.
trait Row: Copy {
    fn id(&self) -> CopyId;
    fn packet(&self) -> Packet;
}

impl Row for Narrow {
    #[inline]
    fn id(&self) -> CopyId {
        self.id
    }
    #[inline]
    fn packet(&self) -> Packet {
        Packet::header_only(self.header)
    }
}

impl Row for (CopyId, Packet) {
    #[inline]
    fn id(&self) -> CopyId {
        self.0
    }
    #[inline]
    fn packet(&self) -> Packet {
        self.1
    }
}

/// The rows, narrow until the first copy that carries a payload. The wide
/// vector is boxed so that it fits in the narrow one's niche: the enum is
/// as large as one `Vec`.
#[derive(Clone)]
#[allow(clippy::box_collection)] // the box is what fits the niche
enum Rows {
    Narrow(Vec<Narrow>),
    Wide(Box<Vec<(CopyId, Packet)>>),
}

/// Runs `$body` with `$rows` bound to the row vector of either width: the
/// width is matched once per call, never per row.
macro_rules! on_rows {
    ($rows:expr, $bound:ident => $body:expr) => {
        match $rows {
            Rows::Narrow($bound) => $body,
            Rows::Wide($bound) => $body,
        }
    };
}

/// Copies in transit with their packets, sorted by [`CopyId`] (mint
/// order).
///
/// Channels mint copy ids in ascending order, so a new copy almost always
/// lands past the last row, found without a search, and is appended; only
/// ids from a separate range (the chaos layer's twins, minted from
/// `CHAOS_COPY_BASE`) arrive out of order and take the binary-search
/// insert. Lookups by id are binary searches; lookups by value are scans.
///
/// # Representation
///
/// Until a copy carries a payload, every row is a 12-byte
/// `(CopyId, Header)`; the first payload widens the table, once and for
/// good, to 32-byte `(CopyId, Packet)` rows. The lower-bound runs never
/// send a payload, so their tables stay narrow. Either way the rows are
/// one flat vector of `Copy` values: `clone_from` is a plain copy into the
/// target's buffer, with no allocation once the target has held a table
/// this large and of this width. Two tables are equal when they hold the
/// same copies, whatever their widths.
///
/// # Example
///
/// ```
/// use nonfifo_ioa::{CopyId, CopyTable, Header, Packet, Payload};
///
/// let mut t = CopyTable::new();
/// t.insert(CopyId::from_raw(2), Packet::header_only(Header::new(0)));
/// t.insert(CopyId::from_raw(1), Packet::header_only(Header::new(1)));
/// assert_eq!(t.heap_bytes(), 4 * 12);
/// let first: Vec<CopyId> = t.iter().map(|(c, _)| c).collect();
/// assert_eq!(first, [CopyId::from_raw(1), CopyId::from_raw(2)]);
///
/// // A payload widens the table; it still holds the same copies.
/// let p = Packet::new(Header::new(0), Payload::new(7));
/// t.insert(CopyId::from_raw(3), p);
/// assert_eq!(t.get(CopyId::from_raw(3)), Some(p));
/// assert!(t.is_wide());
/// ```
pub struct CopyTable(Rows);

impl Clone for CopyTable {
    fn clone(&self) -> Self {
        CopyTable(self.0.clone())
    }

    /// Copies into the buffer `self` already owns when both tables have
    /// the same width; otherwise takes a fresh copy of `source`.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.0, &source.0) {
            (Rows::Narrow(to), Rows::Narrow(from)) => to.clone_from(from),
            (Rows::Wide(to), Rows::Wide(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

impl Default for CopyTable {
    fn default() -> Self {
        CopyTable::new()
    }
}

impl fmt::Debug for CopyTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl PartialEq for CopyTable {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Rows::Narrow(a), Rows::Narrow(b)) => a == b,
            (Rows::Wide(a), Rows::Wide(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for CopyTable {}

/// Position of `copy` among `rows`, or where it would go. The last row is
/// checked first: a fresh id falls past it.
#[inline]
fn find<R: Row>(rows: &[R], copy: CopyId) -> Result<usize, usize> {
    match rows.last() {
        Some(last) if last.id() < copy => Err(rows.len()),
        _ => rows.binary_search_by_key(&copy, R::id),
    }
}

impl CopyTable {
    /// Creates an empty, narrow table.
    pub const fn new() -> Self {
        CopyTable(Rows::Narrow(Vec::new()))
    }

    /// Number of copies.
    #[inline]
    pub fn len(&self) -> usize {
        on_rows!(&self.0, rows => rows.len())
    }

    /// True if the table holds no copy.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once a copy with a payload has been stored: the rows are then
    /// 32 bytes each, not 12.
    pub fn is_wide(&self) -> bool {
        matches!(self.0, Rows::Wide(_))
    }

    /// Heap bytes reserved: the rows' capacity, and for a wide table the
    /// box around its vector.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Rows::Narrow(rows) => rows.capacity() * std::mem::size_of::<Narrow>(),
            Rows::Wide(rows) => {
                std::mem::size_of::<Vec<(CopyId, Packet)>>()
                    + rows.capacity() * std::mem::size_of::<(CopyId, Packet)>()
            }
        }
    }

    /// Position of `copy`: `Ok` if it is in the table, else `Err` with
    /// where it would go.
    #[inline]
    pub fn find(&self, copy: CopyId) -> Result<usize, usize> {
        on_rows!(&self.0, rows => find(rows, copy))
    }

    /// The packet of the copy at position `i` (in mint order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn packet_at(&self, i: usize) -> Packet {
        on_rows!(&self.0, rows => rows[i].packet())
    }

    /// The packet `copy` carries, if it is in the table.
    pub fn get(&self, copy: CopyId) -> Option<Packet> {
        let i = self.find(copy).ok()?;
        Some(self.packet_at(i))
    }

    /// Puts `copy` in the table carrying `packet`, returning the packet it
    /// carried before if it was already there.
    #[inline]
    pub fn insert(&mut self, copy: CopyId, packet: Packet) -> Option<Packet> {
        match self.find(copy) {
            Ok(i) => Some(self.set(i, packet)),
            Err(i) => {
                match &mut self.0 {
                    Rows::Narrow(rows) if packet.payload().is_none() => rows.insert(
                        i,
                        Narrow {
                            id: copy,
                            header: packet.header(),
                        },
                    ),
                    _ => self.widen().insert(i, (copy, packet)),
                }
                None
            }
        }
    }

    /// Replaces the packet of the copy at position `i`, returning the old
    /// one.
    fn set(&mut self, i: usize, packet: Packet) -> Packet {
        let old = self.packet_at(i);
        match &mut self.0 {
            Rows::Narrow(rows) if packet.payload().is_none() => rows[i].header = packet.header(),
            _ => self.widen()[i].1 = packet,
        }
        old
    }

    /// The wide rows, converting the narrow ones first.
    fn widen(&mut self) -> &mut Vec<(CopyId, Packet)> {
        if let Rows::Narrow(rows) = &self.0 {
            let wide = rows.iter().map(|r| (r.id(), r.packet())).collect();
            self.0 = Rows::Wide(Box::new(wide));
        }
        match &mut self.0 {
            Rows::Wide(rows) => rows,
            Rows::Narrow(_) => unreachable!("the table was just widened"),
        }
    }

    /// Removes and returns the copy at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn remove_at(&mut self, i: usize) -> (CopyId, Packet) {
        on_rows!(&mut self.0, rows => {
            let row = rows.remove(i);
            (row.id(), row.packet())
        })
    }

    /// Removes `copy`, returning its packet, if it is in the table.
    pub fn remove(&mut self, copy: CopyId) -> Option<Packet> {
        let i = self.find(copy).ok()?;
        Some(self.remove_at(i).1)
    }

    /// Position of the oldest copy whose packet satisfies `pred`.
    #[inline]
    pub fn position(&self, mut pred: impl FnMut(Packet) -> bool) -> Option<usize> {
        on_rows!(&self.0, rows => rows.iter().position(|r| pred(r.packet())))
    }

    /// Number of copies whose packet satisfies `pred`.
    #[inline]
    pub fn count(&self, mut pred: impl FnMut(Packet) -> bool) -> usize {
        on_rows!(&self.0, rows => rows.iter().filter(|r| pred(r.packet())).count())
    }

    /// Number of copies minted before `watermark`: they are the first
    /// ones.
    #[inline]
    pub fn older_than(&self, watermark: CopyId) -> usize {
        on_rows!(&self.0, rows => rows.partition_point(|r| r.id() < watermark))
    }

    /// Iterates over `(copy, packet)` pairs in mint order.
    #[inline]
    pub fn iter(&self) -> CopyIter<'_> {
        self.prefix(self.len())
    }

    /// Iterates over the `n` oldest copies.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`len`](CopyTable::len).
    #[inline]
    pub fn prefix(&self, n: usize) -> CopyIter<'_> {
        match &self.0 {
            Rows::Narrow(rows) => CopyIter {
                narrow: rows[..n].iter(),
                wide: [].iter(),
            },
            Rows::Wide(rows) => CopyIter {
                narrow: [].iter(),
                wide: rows[..n].iter(),
            },
        }
    }

    /// Removes every copy, keeping the buffer and the width.
    #[inline]
    pub fn clear(&mut self) {
        on_rows!(&mut self.0, rows => rows.clear())
    }

    /// Replaces the contents with `copies`, which must come in ascending
    /// copy-id order. The buffer is reused, so refilling a warm table of
    /// the same width does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if the copy ids are not strictly ascending.
    pub fn restore(&mut self, copies: impl IntoIterator<Item = (CopyId, Packet)>) {
        self.clear();
        for (copy, packet) in copies {
            match &mut self.0 {
                Rows::Narrow(rows) if packet.payload().is_none() => {
                    assert_ascending(rows, copy);
                    rows.push(Narrow {
                        id: copy,
                        header: packet.header(),
                    });
                }
                _ => {
                    let rows = self.widen();
                    assert_ascending(rows, copy);
                    rows.push((copy, packet));
                }
            }
        }
    }
}

#[inline]
fn assert_ascending<R: Row>(rows: &[R], copy: CopyId) {
    if let Some(last) = rows.last() {
        assert!(last.id() < copy, "restored copies out of mint order");
    }
}

impl<'a> IntoIterator for &'a CopyTable {
    type Item = (CopyId, Packet);
    type IntoIter = CopyIter<'a>;

    fn into_iter(self) -> CopyIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`CopyTable`]'s `(copy, packet)` pairs in mint order.
///
/// It holds a slice of each width, one of them empty, and drains the
/// narrow one first: on a narrow table a step costs what a slice
/// iterator's does.
#[derive(Clone, Debug)]
pub struct CopyIter<'a> {
    narrow: std::slice::Iter<'a, Narrow>,
    wide: std::slice::Iter<'a, (CopyId, Packet)>,
}

impl fmt::Debug for Narrow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", { self.id }, { self.header })
    }
}

impl Iterator for CopyIter<'_> {
    type Item = (CopyId, Packet);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self.narrow.next() {
            Some(r) => Some((r.id(), r.packet())),
            None => self.wide.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.narrow.len() + self.wide.len();
        (n, Some(n))
    }

    #[inline]
    fn fold<B, F: FnMut(B, Self::Item) -> B>(self, init: B, mut f: F) -> B {
        let acc = self
            .narrow
            .fold(init, |acc, r| f(acc, (r.id(), r.packet())));
        self.wide.fold(acc, |acc, &r| f(acc, r))
    }
}

impl ExactSizeIterator for CopyIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn rows_and_table_stay_small() {
        assert_eq!(std::mem::size_of::<Narrow>(), 12);
        assert_eq!(std::mem::size_of::<(CopyId, Packet)>(), 32);
        // The boxed wide vector sits in the narrow vector's niche.
        assert_eq!(std::mem::size_of::<CopyTable>(), 24);
    }

    #[test]
    fn a_payload_widens_the_table_and_keeps_its_copies() {
        let c = CopyId::from_raw;
        let h = |i| Packet::header_only(Header::new(i));
        let mut t = CopyTable::new();
        t.insert(c(1), h(0));
        t.insert(c(5), h(1));
        assert!(!t.is_wide());
        let narrow = t.clone();
        let p = Packet::new(Header::new(2), Payload::new(9));
        assert_eq!(t.insert(c(3), p), None);
        assert!(t.is_wide());
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, [(c(1), h(0)), (c(3), p), (c(5), h(1))]);
        // Removing the payload copy leaves a wide table equal to the
        // narrow one.
        assert_eq!(t.remove(c(3)), Some(p));
        assert!(t.is_wide());
        assert_eq!(t, narrow);
        assert_eq!(narrow, t);

        // Giving a header-only copy a payload widens the table too.
        let mut t = narrow.clone();
        assert_eq!(t.insert(c(5), p), Some(h(1)));
        assert!(t.is_wide());
        assert_eq!(t.get(c(5)), Some(p));
        assert_eq!(t.get(c(1)), Some(h(0)));
    }
}
