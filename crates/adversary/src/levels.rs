//! The parallel engine's level store: where a BFS level's frontier records
//! live, in RAM or streamed through a spill file.
//!
//! A level is written as [`Segment`]s, one per rebuilding worker, and each
//! segment as fixed-size **blocks**: records back to back, then one 32-bit
//! offset per record, so a block reads alone. Each sealed block leaves a
//! [`Fence`] in RAM (its first rank, its record count, its length and
//! where it lives), as the tiered visited set keeps a fence per run block.
//! Concatenated in worker order the segments are the level in rank order,
//! and [`index_level`] lays their fences out as one rank-ordered index.
//!
//! Without a spill file every sealed block stays resident in its segment.
//! With one (a run under `--memory-budget`) a worker writes each block to
//! the file as it seals it, so a worker holds one block it is writing and
//! one it is reading, however wide the level. Expansion then claims whole
//! blocks and fetches each with one positioned read, and the rebuild
//! walks its parents in ascending rank order, a block at a time.
//! This is the disk BFS of Stern & Dill ("Using magnetic disk instead of
//! main memory in the Murφ verifier", CAV 1998).
//!
//! A level is written at rising offsets of its [`SpillFile`], and the
//! rebuild's station-id patches overwrite eight bytes in place. The engine
//! alternates two files between levels, each new level written over the
//! one two levels back, so the disk holds two levels however deep the
//! search goes; no file is ever truncated.

use crate::codec::{set_record_stations, write_record};
use crate::spill::SpillFile;
use crate::system::System;

/// Bytes at which a level-store block is sealed: its records and their
/// offsets reach this size. A single larger record gets a block of its
/// own. A budgeted parallel run holds two of these per worker thread.
pub const LEVEL_BLOCK_BYTES: usize = 8 * 1024;

/// Bytes of one entry in a block's trailing offset table.
const OFFSET_BYTES: usize = std::mem::size_of::<u32>();

/// [`Fence::seg`] of a block that lives in the spill file.
const ON_DISK: u32 = u32::MAX;

/// One sealed block's entry in RAM.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fence {
    /// Rank of the block's first record: within its segment as written,
    /// within the level once [`index_level`] has laid the level out.
    first: u32,
    /// Records in the block.
    records: u32,
    /// Bytes of the block: its records and their offsets.
    len: u32,
    /// The segment whose bytes hold the block, or [`ON_DISK`].
    seg: u32,
    /// Where the block starts: in its segment's bytes, or in the file.
    at: u64,
}

/// Where a pushed record sits: its block in the segment, and its byte
/// offset in the block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordAt {
    block: u32,
    offset: u32,
}

/// One worker's share of a level, written in rank order as blocks.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    /// Resident block bytes: every sealed block when nothing spills, and
    /// the open block's records.
    bytes: Vec<u8>,
    /// Offsets of the open block's records from its start.
    starts: Vec<u32>,
    /// Where the open block starts in `bytes`.
    open: usize,
    /// The sealed blocks in order, ranks counted from the segment's first.
    fences: Vec<Fence>,
    /// Records pushed.
    len: usize,
    /// The most bytes `bytes` and `starts` held since the last clear.
    peak_resident: usize,
}

impl Segment {
    /// Records pushed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `sys`'s record under the station ids `(tx, rx)`, sealing
    /// the block it completes (into `file`, if there is one).
    ///
    /// # Panics
    ///
    /// Panics past 4 GiB of records in one block or 2³² in one segment,
    /// which no scope the explorer can finish reaches.
    pub(crate) fn push(
        &mut self,
        sys: &System,
        (tx, rx): (u32, u32),
        file: Option<&SpillFile>,
    ) -> RecordAt {
        let offset = self.bytes.len() - self.open;
        let at = RecordAt {
            block: u32::try_from(self.fences.len()).expect("a segment of 2^32 blocks"),
            offset: u32::try_from(offset).expect("a block outgrew 32-bit offsets"),
        };
        self.starts.push(at.offset);
        write_record(sys, tx, rx, &mut self.bytes);
        self.len += 1;
        if self.bytes.len() - self.open + self.starts.len() * OFFSET_BYTES >= LEVEL_BLOCK_BYTES {
            self.seal(file);
        }
        at
    }

    /// Seals the open block, if it holds a record: appends its offset
    /// table and leaves its fence. With a `file` the block is written out
    /// and its bytes are reused for the next block.
    pub(crate) fn seal(&mut self, file: Option<&SpillFile>) {
        if self.starts.is_empty() {
            return;
        }
        for start in &self.starts {
            self.bytes.extend_from_slice(&start.to_le_bytes());
        }
        self.peak_resident = self.peak_resident.max(self.bytes.len());
        let records = self.starts.len();
        let block = &self.bytes[self.open..];
        let (seg, at) = match file {
            Some(file) => (
                ON_DISK,
                file.append(block).expect("write the level spill file"),
            ),
            None => (0, self.open as u64),
        };
        self.fences.push(Fence {
            first: u32::try_from(self.len - records).expect("a segment of 2^32 records"),
            records: records as u32,
            len: u32::try_from(block.len()).expect("a block outgrew 32-bit offsets"),
            seg,
            at,
        });
        self.starts.clear();
        match file {
            Some(_) => self.bytes.truncate(self.open),
            None => self.open = self.bytes.len(),
        }
    }

    /// Renames the station ids of the record at `at`, in place in RAM or
    /// in `file`. The record's block must be sealed.
    pub(crate) fn set_stations(
        &mut self,
        at: RecordAt,
        (tx, rx): (u32, u32),
        file: Option<&SpillFile>,
    ) {
        let fence = self.fences[at.block as usize];
        let start = fence.at + u64::from(at.offset);
        if fence.seg == ON_DISK {
            let mut head = [0u8; 8];
            set_record_stations(&mut head, tx, rx);
            file.expect("a spilled block has a file")
                .write_at(start, &head)
                .expect("patch the level spill file");
        } else {
            set_record_stations(&mut self.bytes[start as usize..], tx, rx);
        }
    }

    /// Forgets every record, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.starts.clear();
        self.open = 0;
        self.fences.clear();
        self.len = 0;
        self.peak_resident = 0;
    }

    /// The bytes the records take, with a 4-byte offset each, wherever
    /// they live: the same at any thread count and any budget.
    pub(crate) fn bytes(&self) -> usize {
        let sealed: usize = self.fences.iter().map(|f| f.len as usize).sum();
        sealed + self.bytes.len() - self.open + self.starts.len() * OFFSET_BYTES
    }

    /// The bytes of records and offsets the segment holds in RAM.
    pub(crate) fn resident(&self) -> usize {
        self.bytes.len() + self.starts.len() * OFFSET_BYTES
    }

    /// The most bytes of records and offsets the segment held in RAM at
    /// once since it was cleared.
    pub(crate) fn peak_resident(&self) -> usize {
        self.peak_resident.max(self.resident())
    }
}

/// Lays out the level stored as `segments`, every one sealed, as `index`:
/// their fences in worker order, ranks counted from the level's first
/// record, each resident block naming the segment that holds it.
pub(crate) fn index_level(segments: &[Segment], index: &mut Vec<Fence>) {
    index.clear();
    let mut base = 0u32;
    for (w, seg) in segments.iter().enumerate() {
        debug_assert!(seg.starts.is_empty(), "an open block is not indexed");
        index.extend(seg.fences.iter().map(|f| Fence {
            first: base + f.first,
            seg: if f.seg == ON_DISK { ON_DISK } else { w as u32 },
            ..*f
        }));
        base += seg.len as u32;
    }
}

/// A level as its readers see it: its block index, the segments that
/// hold its resident blocks, and the file that holds the rest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelView<'a> {
    pub(crate) segments: &'a [Segment],
    pub(crate) index: &'a [Fence],
    pub(crate) file: Option<&'a SpillFile>,
}

impl<'a> LevelView<'a> {
    /// Blocks in the level.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> usize {
        self.index.len()
    }

    /// The ranks of the records in blocks `blocks`.
    pub(crate) fn ranks(&self, blocks: std::ops::Range<usize>) -> std::ops::Range<u32> {
        let last = self.index[blocks.end - 1];
        self.index[blocks.start].first..last.first + last.records
    }

    /// The block holding the record ranked `rank`.
    pub(crate) fn block_of(&self, rank: u32) -> usize {
        self.index.partition_point(|f| f.first + f.records <= rank)
    }

    /// Makes block `b` readable through `buf`: one positioned read for a
    /// block on disk, nothing for a resident one.
    pub(crate) fn fetch(&self, b: usize, buf: &mut Vec<u8>) {
        let fence = self.index[b];
        if fence.seg == ON_DISK {
            let len = fence.len as usize;
            buf.reserve_exact(len.saturating_sub(buf.len()));
            buf.resize(len, 0);
            // Unlike a visited probe, a lost frontier record cannot be
            // answered conservatively: a failed read ends the run.
            self.file
                .expect("a spilled block has a file")
                .read_at(fence.at, buf)
                .expect("read the level spill file");
        }
    }

    /// Block `b`, which [`fetch`](Self::fetch) made readable through
    /// `buf` if it lives on disk.
    pub(crate) fn block<'b>(&'b self, b: usize, buf: &'b [u8]) -> Block<'b> {
        let fence = self.index[b];
        let bytes = match fence.seg {
            ON_DISK => buf,
            seg => {
                let at = fence.at as usize;
                &self.segments[seg as usize].bytes[at..at + fence.len as usize]
            }
        };
        Block {
            bytes,
            first: fence.first,
            records: fence.records as usize,
        }
    }
}

/// One block's records, readable by index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block<'a> {
    bytes: &'a [u8],
    first: u32,
    records: usize,
}

impl<'a> Block<'a> {
    /// Rank of the block's first record in its level.
    pub(crate) fn first(&self) -> u32 {
        self.first
    }

    /// Records in the block.
    pub(crate) fn len(&self) -> usize {
        self.records
    }

    /// Whether the record ranked `rank` is in this block.
    pub(crate) fn holds(&self, rank: u32) -> bool {
        (self.first..self.first + self.records as u32).contains(&rank)
    }

    /// The `i`-th record of the block.
    pub(crate) fn record(&self, i: usize) -> &'a [u8] {
        let table = self.bytes.len() - self.records * OFFSET_BYTES;
        let offset = |j: usize| {
            let at = table + j * OFFSET_BYTES;
            u32::from_le_bytes(
                self.bytes[at..at + OFFSET_BYTES]
                    .try_into()
                    .expect("4 bytes"),
            ) as usize
        };
        let end = if i + 1 < self.records {
            offset(i + 1)
        } else {
            table
        };
        &self.bytes[offset(i)..end]
    }
}
