//! The on-disk segmented cache.
//!
//! Enterprise drives such as the Seagate Cheetah 15K.5 carry a small DRAM
//! buffer (16 MiB on that model) organised as a handful of segments, each
//! caching a recently touched extent plus read-ahead. The CRAID paper leans
//! on this behaviour to explain two effects (§5.2):
//!
//! * small cache partitions (PC) confine the hot set to a narrow region of
//!   every disk, so the region tends to stay resident in the drive's own
//!   cache and writes complete at buffer speed;
//! * for larger PC sizes that effect fades, which is why write latency grows
//!   slightly with PC size in Fig. 6.
//!
//! [`SegmentedCache`] models exactly that: an LRU set of block extents. A hit
//! is served at electronics speed by [`crate::HddModel`], a miss pays the
//! mechanical cost and installs a new segment covering the access plus
//! read-ahead.

use serde::{Deserialize, Serialize};

use crate::request::{BlockRange, IoKind, BLOCK_SIZE_BYTES};

/// Result of probing the cache for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// Every block of the request was resident.
    Hit,
    /// At least one block missed; the mechanical path must be taken.
    Miss,
}

/// A fixed-size, segment-based model of a drive's internal DRAM cache.
///
/// # Example
///
/// ```
/// use craid_diskmodel::{SegmentedCache, BlockRange, IoKind, CacheOutcome};
///
/// let mut cache = SegmentedCache::new(16 * 1024 * 1024, 16, 64);
/// let r = BlockRange::new(1_000, 8);
/// assert_eq!(cache.access(IoKind::Read, r), CacheOutcome::Miss);
/// // The segment installed by the miss (with read-ahead) now covers it.
/// assert_eq!(cache.access(IoKind::Read, r), CacheOutcome::Hit);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentedCache {
    /// Cached extents, most recently used last.
    segments: Vec<BlockRange>,
    max_segments: usize,
    segment_blocks: u64,
    readahead_blocks: u64,
    hits: u64,
    misses: u64,
}

impl SegmentedCache {
    /// Creates a cache of `capacity_bytes` split into `max_segments` segments
    /// with `readahead_blocks` of read-ahead installed after every miss.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` or `max_segments` is zero.
    pub fn new(capacity_bytes: u64, max_segments: usize, readahead_blocks: u64) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        assert!(max_segments > 0, "cache needs at least one segment");
        let segment_blocks = (capacity_bytes / max_segments as u64 / BLOCK_SIZE_BYTES).max(1);
        SegmentedCache {
            segments: Vec::with_capacity(max_segments),
            max_segments,
            segment_blocks,
            readahead_blocks,
            hits: 0,
            misses: 0,
        }
    }

    /// A cache that never hits (capacity of a single block, no read-ahead).
    /// Used to model the paper's observation that DiskSim's SSD model carries
    /// no cache.
    pub fn disabled() -> Self {
        SegmentedCache {
            segments: Vec::new(),
            max_segments: 1,
            segment_blocks: 0,
            readahead_blocks: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Hit ratio over the cache's lifetime, or 0 if it was never accessed.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Probes the cache for `range` and updates its state.
    ///
    /// Reads that hit refresh the segment's recency. Misses (reads and
    /// writes alike) install a segment covering the access plus read-ahead,
    /// evicting the least recently used segment if the cache is full — the
    /// write-caching behaviour of a drive with its buffer enabled.
    pub fn access(&mut self, kind: IoKind, range: BlockRange) -> CacheOutcome {
        if self.segment_blocks == 0 {
            self.misses += 1;
            return CacheOutcome::Miss;
        }
        if range.len() > self.segment_blocks {
            // Larger than a whole segment: treat as a streaming access that
            // bypasses the cache but still installs its tail for re-reads.
            self.misses += 1;
            self.install(range, kind);
            return CacheOutcome::Miss;
        }
        if let Some(idx) = self
            .segments
            .iter()
            .position(|seg| seg.contains(range.start()) && seg.contains(range.end() - 1))
        {
            // Refresh recency.
            let seg = self.segments.remove(idx);
            self.segments.push(seg);
            self.hits += 1;
            CacheOutcome::Hit
        } else {
            self.misses += 1;
            self.install(range, kind);
            CacheOutcome::Miss
        }
    }

    fn install(&mut self, range: BlockRange, kind: IoKind) {
        let extra = if kind.is_read() {
            self.readahead_blocks
        } else {
            0
        };
        let len = (range.len() + extra).min(self.segment_blocks.max(range.len()));
        let seg = BlockRange::new(range.start(), len.max(1));
        // Drop any older segment fully shadowed by the new one.
        self.segments
            .retain(|s| !seg.contains(s.start()) || !seg.contains(s.end() - 1));
        if self.segments.len() >= self.max_segments {
            self.segments.remove(0);
        }
        self.segments.push(seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SegmentedCache {
        // 4 segments of 16 blocks each.
        SegmentedCache::new(4 * 16 * BLOCK_SIZE_BYTES, 4, 8)
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = small_cache();
        let r = BlockRange::new(100, 4);
        assert_eq!(c.access(IoKind::Read, r), CacheOutcome::Miss);
        assert_eq!(c.access(IoKind::Read, r), CacheOutcome::Hit);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn readahead_serves_sequential_follow_up() {
        let mut c = small_cache();
        assert_eq!(
            c.access(IoKind::Read, BlockRange::new(0, 4)),
            CacheOutcome::Miss
        );
        // Read-ahead of 8 blocks covers [0, 12); the next sequential read hits.
        assert_eq!(
            c.access(IoKind::Read, BlockRange::new(4, 4)),
            CacheOutcome::Hit
        );
    }

    #[test]
    fn writes_install_but_get_no_readahead() {
        let mut c = small_cache();
        assert_eq!(
            c.access(IoKind::Write, BlockRange::new(50, 4)),
            CacheOutcome::Miss
        );
        assert_eq!(
            c.access(IoKind::Read, BlockRange::new(50, 4)),
            CacheOutcome::Hit
        );
        // Beyond the written extent there is no read-ahead.
        assert_eq!(
            c.access(IoKind::Read, BlockRange::new(54, 4)),
            CacheOutcome::Miss
        );
    }

    #[test]
    fn lru_eviction_drops_oldest_segment() {
        let mut c = small_cache();
        for i in 0..5u64 {
            c.access(IoKind::Read, BlockRange::new(i * 1_000, 2));
        }
        // Segment for the first extent (around block 0) should be gone.
        assert_eq!(
            c.access(IoKind::Read, BlockRange::new(0, 2)),
            CacheOutcome::Miss
        );
        // The most recent extents are still resident.
        assert_eq!(
            c.access(IoKind::Read, BlockRange::new(4_000, 2)),
            CacheOutcome::Hit
        );
        assert!(c.segments.len() <= 4);
    }

    #[test]
    fn a_new_segment_drops_the_segments_it_shadows() {
        let mut c = small_cache();
        c.access(IoKind::Read, BlockRange::new(0, 2)); // [0, 10)
        c.access(IoKind::Read, BlockRange::new(20, 2)); // [20, 30)
        c.access(IoKind::Read, BlockRange::new(0, 12)); // [0, 16) covers [0, 10)
        let hit = c.access(IoKind::Read, BlockRange::new(8, 4));
        assert_eq!((c.segments.len(), hit), (2, CacheOutcome::Hit));
    }

    #[test]
    fn oversized_request_streams_past_cache() {
        let mut c = small_cache();
        let big = BlockRange::new(0, 64);
        assert_eq!(c.access(IoKind::Read, big), CacheOutcome::Miss);
        assert_eq!(c.access(IoKind::Read, big), CacheOutcome::Miss);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = SegmentedCache::disabled();
        let r = BlockRange::new(10, 2);
        for _ in 0..5 {
            assert_eq!(c.access(IoKind::Read, r), CacheOutcome::Miss);
        }
        assert_eq!(c.hit_ratio(), 0.0);
    }

    #[test]
    fn hot_narrow_band_stays_resident() {
        // The effect the paper relies on: if all traffic targets a narrow
        // band, the band stays cached and the hit ratio climbs.
        let mut c = small_cache();
        let mut hits = 0;
        for i in 0..1_000u64 {
            let r = BlockRange::new((i * 3) % 32, 2);
            if c.access(IoKind::Read, r) == CacheOutcome::Hit {
                hits += 1;
            }
        }
        assert!(
            hits > 700,
            "narrow working set should mostly hit, got {hits}"
        );
    }
}
