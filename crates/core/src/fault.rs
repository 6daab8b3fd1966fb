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

use craid_diskmodel::IoKind;
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
/// to the peers `peers_for` reports for that I/O (the surviving members of
/// its parity group); writes are dropped when `accepts_writes` is false (a
/// dead disk — parity absorbs the update) and passed through when it is
/// true (a rebuilding hot spare). Counters for the report accumulate into
/// `stats`.
pub(crate) fn degrade_plan(
    plan: &[PartitionIo],
    out: &mut Vec<PartitionIo>,
    failed: usize,
    accepts_writes: bool,
    peers_for: impl Fn(&PartitionIo) -> Vec<usize>,
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
                for peer in peers_for(&io) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use craid_diskmodel::BlockRange;

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
        degrade_plan(&plan, &mut out, 2, false, |_| vec![0, 1, 3], &mut stats);
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
        degrade_plan(&plan, &mut out, 2, false, |_| vec![0, 1], &mut stats);
        assert!(out.is_empty(), "a dead disk cannot take the write");
        assert_eq!(stats.parity_absorbed_writes, 1);

        degrade_plan(&plan, &mut out, 2, true, |_| vec![0, 1], &mut stats);
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
            |_| unreachable!("no I/O touches the failed disk"),
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
        degrade_plan(&plan, &mut out, 2, true, |_| vec![0, 1, 3], &mut stats);
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
}
