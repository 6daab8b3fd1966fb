//! Disk failures: degraded-mode planning and rebuild scheduling.
//!
//! A RAID array's reliability story has two phases that this module models
//! (and that the paper's parity-group layouts were designed around):
//!
//! 1. **Degraded mode** — while a disk is failed, every read that would
//!    have touched it is reconstructed by reading the same row offset from
//!    the `G - 1` surviving members of its parity group
//!    ([`Layout::reconstruction_peers`](craid_raid::Layout)); writes aimed
//!    at the dead disk are absorbed by the (surviving) parity update.
//! 2. **Rebuild** — once a hot spare is installed (`DiskRepair`), a
//!    rate-paced task on the array's
//!    [`BackgroundEngine`](crate::background::BackgroundEngine) streams
//!    reconstruction I/O onto it, interleaved with client traffic, until
//!    the spare holds the full live image and the array is healthy again.
//!    Under the [`HotFirst`](crate::background::BackgroundPriority::HotFirst)
//!    priority the cache-partition rows and the hottest archive stripes are
//!    reconstructed first — the data-aware counterpart of CRAID's upgrade
//!    story.
//!
//! The array ([`CraidArray`](crate::array::CraidArray)) drives these
//! primitives from its `submit`/`fail_disk`/`repair_disk` paths and its
//! background pump; the counters land in [`FaultStats`] on the final
//! report.

use craid_diskmodel::{BlockRange, IoKind};
use craid_raid::IoPurpose;

use crate::partition::PartitionIo;
use crate::report::FaultStats;

/// Upper bound on the number of scattered hot blocks a hot-first rebuild
/// front-loads (beyond this the seek cost of chasing singles outweighs the
/// benefit of reconstructing them early).
pub(crate) const MAX_HOT_REBUILD_BLOCKS: usize = 4_096;

/// Rewrites an I/O plan for an array whose disk `failed` is unavailable,
/// into `out` (cleared first, so a caller can keep it as a spare list).
///
/// Reads targeting the failed disk fan out as [`IoPurpose::ReconstructRead`]
/// to the peers `peers_for` appends for that I/O (the surviving members of
/// its parity group) to `peers`, which is cleared first and serves as the
/// caller's spare list; writes are dropped when `accepts_writes` is false
/// (a dead disk — parity absorbs the update) and passed through when it is
/// true (a rebuilding hot spare). Counters for the report accumulate into
/// `stats`.
pub(crate) fn degrade_plan(
    plan: &[PartitionIo],
    out: &mut Vec<PartitionIo>,
    failed: usize,
    accepts_writes: bool,
    peers_for: impl Fn(&PartitionIo, &mut Vec<usize>),
    peers: &mut Vec<usize>,
    stats: &mut FaultStats,
) {
    out.clear();
    for &io in plan {
        if io.disk != failed {
            out.push(io);
            continue;
        }
        match io.kind {
            IoKind::Read => {
                stats.degraded_reads += 1;
                peers.clear();
                peers_for(&io, peers);
                for &peer in peers.iter() {
                    stats.reconstruction_ios += 1;
                    stats.reconstruction_blocks += io.range.len();
                    out.push(PartitionIo {
                        disk: peer,
                        range: io.range,
                        kind: IoKind::Read,
                        purpose: IoPurpose::ReconstructRead,
                    });
                }
            }
            IoKind::Write if accepts_writes => out.push(io),
            IoKind::Write => stats.parity_absorbed_writes += 1,
        }
    }
}

/// The per-disk physical block count a rebuild must reconstruct when
/// `used_logical` of `logical` addressable blocks hold data: the
/// physical-to-logical ratio folds the parity overhead in.
pub(crate) fn live_blocks(physical: u64, logical: u64, used_logical: u64) -> u64 {
    let logical = logical.max(1) as u128;
    let used = (used_logical as u128).min(logical);
    (physical as u128 * used).div_ceil(logical) as u64
}

/// Builds a rebuild's segment order: the `hot` ranges first (in the order
/// given), then the uncovered remainder of `[0, total)` in ascending order.
/// The hot ranges must be disjoint; ranges reaching beyond `total` are
/// clipped.
pub(crate) fn prioritized_segments(total: u64, hot: Vec<BlockRange>) -> Vec<BlockRange> {
    let hot: Vec<BlockRange> = hot
        .into_iter()
        .filter(|r| r.start() < total)
        .map(|r| BlockRange::new(r.start(), r.len().min(total - r.start())))
        .collect();
    let mut covered = hot.clone();
    covered.sort_by_key(|r| r.start());
    debug_assert!(
        covered.windows(2).all(|w| w[0].end() <= w[1].start()),
        "hot ranges must be disjoint"
    );
    let mut segments = hot;
    let mut cursor = 0;
    for range in covered {
        if range.start() > cursor {
            segments.push(BlockRange::new(cursor, range.start() - cursor));
        }
        cursor = range.end();
    }
    if cursor < total {
        segments.push(BlockRange::new(cursor, total - cursor));
    }
    segments
}

/// Merges a sorted, deduplicated list of block numbers into contiguous
/// ranges.
pub(crate) fn merge_blocks_to_ranges(blocks: &[u64]) -> Vec<BlockRange> {
    let mut out: Vec<BlockRange> = Vec::new();
    for &block in blocks {
        match out.last_mut() {
            Some(last) if last.end() == block => {
                *last = BlockRange::new(last.start(), last.len() + 1)
            }
            _ => out.push(BlockRange::new(block, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(disk: usize, start: u64, len: u64, kind: IoKind) -> PartitionIo {
        PartitionIo {
            disk,
            range: BlockRange::new(start, len),
            kind,
            purpose: IoPurpose::Data,
        }
    }

    #[test]
    fn degrade_fans_reads_out_to_peers_and_leaves_others_alone() {
        let plan = vec![io(0, 10, 4, IoKind::Read), io(2, 10, 4, IoKind::Read)];
        let mut stats = FaultStats::default();
        // The output list's old contents are cleared, not kept.
        let mut out = vec![io(5, 0, 1, IoKind::Write)];
        // So are the peer list's.
        let mut peers = vec![7];
        let peers_for = |_: &PartitionIo, peers: &mut Vec<usize>| peers.extend([0, 1, 3]);
        degrade_plan(&plan, &mut out, 2, false, peers_for, &mut peers, &mut stats);
        // Disk 0's read survives untouched; disk 2's read becomes three
        // reconstruction reads at the same range.
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], io(0, 10, 4, IoKind::Read));
        for (rec, peer) in out[1..].iter().zip([0, 1, 3]) {
            assert_eq!(rec.disk, peer);
            assert_eq!(rec.range, BlockRange::new(10, 4));
            assert_eq!(rec.purpose, IoPurpose::ReconstructRead);
        }
        assert_eq!(stats.degraded_reads, 1);
        assert_eq!(stats.reconstruction_ios, 3);
        assert_eq!(stats.reconstruction_blocks, 12);
    }

    #[test]
    fn degrade_absorbs_writes_to_a_dead_disk_but_not_to_a_spare() {
        let plan = vec![io(2, 0, 2, IoKind::Write)];
        let mut stats = FaultStats::default();
        let mut out = Vec::new();
        let mut peers = Vec::new();
        let peers_for = |_: &PartitionIo, peers: &mut Vec<usize>| peers.extend([0, 1]);
        degrade_plan(&plan, &mut out, 2, false, peers_for, &mut peers, &mut stats);
        assert!(out.is_empty(), "a dead disk cannot take the write");
        assert_eq!(stats.parity_absorbed_writes, 1);

        degrade_plan(&plan, &mut out, 2, true, peers_for, &mut peers, &mut stats);
        assert_eq!(out, plan, "a rebuilding spare accepts writes");
    }

    #[test]
    fn a_plan_that_avoids_the_failed_disk_passes_through() {
        let plan = vec![
            io(0, 0, 2, IoKind::Read),
            io(1, 4, 1, IoKind::Write),
            io(3, 8, 8, IoKind::Read),
        ];
        let mut stats = FaultStats::default();
        let mut out = vec![io(2, 0, 1, IoKind::Read)];
        degrade_plan(
            &plan,
            &mut out,
            2,
            false,
            |_, _| unreachable!("no I/O touches the failed disk"),
            &mut Vec::new(),
            &mut stats,
        );
        assert_eq!(out, plan);
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn reads_of_a_rebuilding_spare_still_reconstruct() {
        // The spare accepts writes but holds no data yet: its reads still
        // fan out to the surviving peers.
        let plan = vec![io(2, 10, 4, IoKind::Read), io(2, 20, 2, IoKind::Write)];
        let mut stats = FaultStats::default();
        let mut out = Vec::new();
        let peers_for = |_: &PartitionIo, peers: &mut Vec<usize>| peers.extend([0, 1, 3]);
        degrade_plan(
            &plan,
            &mut out,
            2,
            true,
            peers_for,
            &mut Vec::new(),
            &mut stats,
        );
        assert_eq!(out.len(), 4);
        for (rec, peer) in out[..3].iter().zip([0, 1, 3]) {
            assert_eq!(rec.disk, peer);
            assert_eq!(rec.range, BlockRange::new(10, 4));
            assert_eq!(rec.purpose, IoPurpose::ReconstructRead);
        }
        assert_eq!(out[3], plan[1], "the write lands on the spare");
        assert_eq!(stats.degraded_reads, 1);
        assert_eq!(stats.reconstruction_ios, 3);
        assert_eq!(stats.parity_absorbed_writes, 0);
    }

    #[test]
    fn live_region_scales_with_usage() {
        assert_eq!(live_blocks(1_000, 800, 400), 500);
        assert_eq!(live_blocks(1_000, 800, 0), 0);
        assert_eq!(live_blocks(1_000, 800, 10_000), 1_000, "clamped to full");
        assert_eq!(live_blocks(999, 1_000, 1), 1, "rounds up");
    }

    #[test]
    fn prioritized_segments_cover_the_space_exactly_once() {
        let segments = prioritized_segments(
            100,
            vec![
                BlockRange::new(40, 10),
                BlockRange::new(10, 5),
                BlockRange::new(95, 20),
            ],
        );
        // Hot first (clipped), then the ascending remainder.
        assert_eq!(
            segments,
            vec![
                BlockRange::new(40, 10),
                BlockRange::new(10, 5),
                BlockRange::new(95, 5),
                BlockRange::new(0, 10),
                BlockRange::new(15, 25),
                BlockRange::new(50, 45),
            ]
        );
        let total: u64 = segments.iter().map(|r| r.len()).sum();
        assert_eq!(total, 100);
        let mut blocks: Vec<u64> = segments.iter().flat_map(|r| r.blocks()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn no_hot_ranges_degenerates_to_sequential() {
        assert_eq!(
            prioritized_segments(64, Vec::new()),
            vec![BlockRange::new(0, 64)]
        );
    }

    #[test]
    fn merge_blocks_groups_runs() {
        assert_eq!(
            merge_blocks_to_ranges(&[1, 2, 3, 7, 9, 10]),
            vec![
                BlockRange::new(1, 3),
                BlockRange::new(7, 1),
                BlockRange::new(9, 2)
            ]
        );
        assert!(merge_blocks_to_ranges(&[]).is_empty());
    }
}
