//! Request vocabulary shared by the device models.
//!
//! The simulator works in fixed-size logical blocks of 4 KiB, the block size
//! the paper uses when sizing the mapping cache (§4.2). Devices are addressed
//! by *physical block number* (PBN) local to the device; the RAID layouts in
//! `craid-raid` translate array-logical addresses to `(device, PBN)` pairs.

use serde::{Deserialize, Serialize};

/// Size of one logical block in bytes (4 KiB, as in the paper's §4.2).
pub const BLOCK_SIZE_BYTES: u64 = 4096;

/// Whether an I/O transfers data to or from the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Data flows from the device to the host.
    Read,
    /// Data flows from the host to the device.
    Write,
}

impl IoKind {
    /// True for [`IoKind::Read`].
    pub const fn is_read(self) -> bool {
        matches!(self, IoKind::Read)
    }

    /// True for [`IoKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, IoKind::Write)
    }
}

impl std::fmt::Display for IoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoKind::Read => write!(f, "read"),
            IoKind::Write => write!(f, "write"),
        }
    }
}

/// A contiguous run of logical blocks `[start, start + len)`.
///
/// # Example
///
/// ```
/// use craid_diskmodel::BlockRange;
/// let r = BlockRange::new(100, 8);
/// assert_eq!(r.end(), 108);
/// assert!(r.contains(107));
/// assert!(!r.contains(108));
/// assert_eq!(r.bytes(), 8 * 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockRange {
    start: u64,
    len: u64,
}

impl BlockRange {
    /// Creates a range starting at `start` spanning `len` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or the range would overflow the address space.
    pub fn new(start: u64, len: u64) -> Self {
        assert!(len > 0, "a block range cannot be empty");
        assert!(
            start.checked_add(len).is_some(),
            "block range overflows the address space"
        );
        BlockRange { start, len }
    }

    /// First block of the range.
    pub const fn start(self) -> u64 {
        self.start
    }

    /// Number of blocks in the range.
    pub const fn len(self) -> u64 {
        self.len
    }

    /// Always false; ranges are non-empty by construction.
    pub const fn is_empty(self) -> bool {
        false
    }

    /// One past the last block of the range.
    pub const fn end(self) -> u64 {
        self.start + self.len
    }

    /// Number of bytes covered by the range.
    pub const fn bytes(self) -> u64 {
        self.len * BLOCK_SIZE_BYTES
    }

    /// True if `block` falls inside the range.
    pub const fn contains(self, block: u64) -> bool {
        block >= self.start && block < self.end()
    }

    /// True if the two ranges share at least one block.
    pub const fn overlaps(self, other: BlockRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Iterates over the individual block numbers of the range.
    pub fn blocks(self) -> impl Iterator<Item = u64> {
        self.start..self.end()
    }

    /// Splits the range into chunks of at most `chunk` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn chunks(self, chunk: u64) -> impl Iterator<Item = BlockRange> {
        assert!(chunk > 0, "chunk size must be positive");
        let start = self.start;
        let end = self.end();
        (start..end).step_by(chunk as usize).map(move |s| {
            let len = chunk.min(end - s);
            BlockRange::new(s, len)
        })
    }
}

impl std::fmt::Display for BlockRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_accessors() {
        let r = BlockRange::new(10, 5);
        assert_eq!(r.start(), 10);
        assert_eq!(r.len(), 5);
        assert_eq!(r.end(), 15);
        assert_eq!(r.bytes(), 5 * BLOCK_SIZE_BYTES);
        assert!(!r.is_empty());
    }

    #[test]
    fn contains_and_overlaps() {
        let a = BlockRange::new(0, 10);
        let b = BlockRange::new(9, 10);
        let c = BlockRange::new(10, 10);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
        assert!(a.contains(0) && a.contains(9) && !a.contains(10));
    }

    #[test]
    fn chunk_split_conserves_blocks() {
        let r = BlockRange::new(5, 23);
        let chunks: Vec<_> = r.chunks(8).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], BlockRange::new(5, 8));
        assert_eq!(chunks[1], BlockRange::new(13, 8));
        assert_eq!(chunks[2], BlockRange::new(21, 7));
        let total: u64 = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn blocks_iterator_matches_len() {
        let r = BlockRange::new(100, 4);
        assert_eq!(r.blocks().collect::<Vec<_>>(), vec![100, 101, 102, 103]);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_range_rejected() {
        let _ = BlockRange::new(0, 0);
    }

    #[test]
    fn io_kind_predicates() {
        assert!(IoKind::Read.is_read());
        assert!(!IoKind::Read.is_write());
        assert!(IoKind::Write.is_write());
        assert_eq!(IoKind::Read.to_string(), "read");
        assert_eq!(IoKind::Write.to_string(), "write");
    }

    proptest! {
        /// Splitting a range into chunks always conserves the exact block set.
        #[test]
        fn prop_chunks_partition_range(start in 0u64..1_000_000, len in 1u64..4096, chunk in 1u64..512) {
            let r = BlockRange::new(start, len);
            let mut covered = Vec::new();
            let mut prev_end = r.start();
            for c in r.chunks(chunk) {
                prop_assert_eq!(c.start(), prev_end, "chunks must be contiguous");
                prop_assert!(c.len() <= chunk);
                prev_end = c.end();
                covered.extend(c.blocks());
            }
            prop_assert_eq!(prev_end, r.end());
            prop_assert_eq!(covered, r.blocks().collect::<Vec<_>>());
        }

        /// `overlaps` is symmetric and consistent with `contains`.
        #[test]
        fn prop_overlap_symmetric(a_start in 0u64..10_000, a_len in 1u64..128,
                                  b_start in 0u64..10_000, b_len in 1u64..128) {
            let a = BlockRange::new(a_start, a_len);
            let b = BlockRange::new(b_start, b_len);
            prop_assert_eq!(a.overlaps(b), b.overlaps(a));
            let any_shared = a.blocks().any(|blk| b.contains(blk));
            prop_assert_eq!(a.overlaps(b), any_shared);
        }
    }
}
