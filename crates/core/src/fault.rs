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
//!    rate-paced task on the array's [`BackgroundEngine`] streams
//!    reconstruction I/O onto it, interleaved with client traffic, until
//!    the spare holds the full live image and the array is healthy again.
//!    Under the [`HotFirst`](crate::background::BackgroundPriority::HotFirst)
//!    priority the cache-partition rows and the hottest archive stripes are
//!    reconstructed first — the data-aware counterpart of CRAID's upgrade
//!    story.
//!
//! The array ([`CraidArray`](crate::array::CraidArray)) drives these
//! primitives from its `submit`/`fail_disk`/`repair_disk` paths, with or
//! without a cache partition; the counters land in [`FaultStats`] on the
//! final report.

use craid_diskmodel::{BlockRange, IoKind};
use craid_raid::IoPurpose;
use craid_simkit::SimTime;

use crate::background::{prioritized_segments, BackgroundEngine};
use crate::devices::{DeviceIoEvent, DeviceSet};
use crate::partition::PartitionIo;
use crate::report::FaultStats;

/// Upper bound on the number of scattered hot blocks a hot-first rebuild
/// front-loads (beyond this the seek cost of chasing singles outweighs the
/// benefit of reconstructing them early).
const MAX_HOT_REBUILD_BLOCKS: usize = 4_096;

/// Rewrites an I/O plan for an array whose disk `failed` is unavailable.
///
/// Reads targeting the failed disk fan out as [`IoPurpose::ReconstructRead`]
/// to the peers `peers_for` reports for that I/O (the surviving members of
/// its parity group); writes are dropped when `accepts_writes` is false (a
/// dead disk — parity absorbs the update) and passed through when it is
/// true (a rebuilding hot spare). Counters for the report accumulate into
/// `stats`.
pub(crate) fn degrade_plan(
    plan: Vec<PartitionIo>,
    failed: usize,
    accepts_writes: bool,
    peers_for: impl Fn(&PartitionIo) -> Vec<usize>,
    stats: &mut FaultStats,
) -> Vec<PartitionIo> {
    let mut out = Vec::with_capacity(plan.len());
    for io in plan {
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
    out
}

/// The per-disk physical block count a rebuild must reconstruct when
/// `used_logical` of `logical` addressable blocks hold data: the
/// physical-to-logical ratio folds the parity overhead in. Shared by both
/// arrays' live-region computations.
pub(crate) fn live_blocks(physical: u64, logical: u64, used_logical: u64) -> u64 {
    let logical = logical.max(1) as u128;
    let used = (used_logical as u128).min(logical);
    (physical as u128 * used).div_ceil(logical) as u64
}

/// The segment order a rebuild streams `live` physical blocks in: `hot`
/// ranges first (the cache-partition rows and the hottest archive stripes,
/// in the order given), then the ascending remainder. An empty `hot` list
/// is a plain sequential rebuild. Capped at [`MAX_HOT_REBUILD_BLOCKS`]
/// worth of scattered hot blocks by the callers.
pub(crate) fn rebuild_segments(live: u64, hot: Vec<BlockRange>) -> Vec<BlockRange> {
    prioritized_segments(live, hot)
}

/// Caps a hot-block list for [`rebuild_segments`] callers.
pub(crate) fn cap_hot_blocks(mut blocks: Vec<u64>) -> Vec<u64> {
    blocks.truncate(MAX_HOT_REBUILD_BLOCKS);
    blocks
}

/// Validates and starts a rebuild: installs the hot spare in `disk`'s slot
/// and enqueues a rebuild task (with the given segment order) on the
/// array's background engine. `segments` must cover the disk's *live*
/// region — the cache-partition rows plus the archive share of the dataset,
/// parity included — rather than the raw device capacity, in the spirit of
/// CRAID's data-aware maintenance: stripes that never held data need no
/// reconstruction. Shared by both array implementations' `repair_disk`.
#[allow(clippy::too_many_arguments)] // a plain parameter list beats a one-use builder here
pub(crate) fn start_rebuild(
    engine: &mut BackgroundEngine,
    devices: &mut DeviceSet,
    now: SimTime,
    disk: usize,
    peers: Vec<usize>,
    segments: Vec<BlockRange>,
    rate_blocks_per_sec: f64,
    stats: &mut FaultStats,
) -> Result<(), crate::error::CraidError> {
    if peers.is_empty() {
        return Err(crate::error::CraidError::InvalidFault(format!(
            "disk {disk} has no surviving parity-group members to rebuild from"
        )));
    }
    // Clamp every segment to the device, centrally: whatever live-region
    // estimate or hot-segment plan the caller produced, the rebuild never
    // writes past the spare's capacity.
    let capacity = devices.capacity_blocks(disk);
    let segments: Vec<BlockRange> = segments
        .into_iter()
        .filter(|r| r.start() < capacity)
        .map(|r| BlockRange::new(r.start(), r.len().min(capacity - r.start())))
        .collect();
    devices.start_rebuild(disk)?;
    engine.push_rebuild(now, disk, peers, segments, rate_blocks_per_sec);
    stats.disk_repairs += 1;
    Ok(())
}

/// Issues the device I/O for one rebuild batch: a
/// [`IoPurpose::RebuildRead`] of every range from every surviving peer plus
/// a [`IoPurpose::RebuildWrite`] of the reconstructed range onto the spare.
/// Shared by both array implementations' background pumps.
pub(crate) fn issue_rebuild_batch(
    now: SimTime,
    disk: usize,
    peers: &[usize],
    ranges: &[BlockRange],
    devices: &mut DeviceSet,
    events: &mut Vec<DeviceIoEvent>,
    stats: &mut FaultStats,
) {
    for &range in ranges {
        for &peer in peers {
            events.push(devices.submit(now, peer, IoKind::Read, range, IoPurpose::RebuildRead));
            stats.rebuild_read_blocks += range.len();
        }
        events.push(devices.submit(now, disk, IoKind::Write, range, IoPurpose::RebuildWrite));
        stats.rebuild_write_blocks += range.len();
    }
}

/// Applies a completed rebuild: the spare is marked healthy and the MTTR
/// recorded. Shared by both array implementations' background pumps.
pub(crate) fn complete_rebuild(
    done: &crate::background::CompletedTask,
    devices: &mut DeviceSet,
    stats: &mut FaultStats,
) {
    stats.rebuilds_completed += 1;
    stats.rebuild_secs += done.window_secs;
    devices.complete_rebuild(done.disk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::{Batch, TaskKind};
    use crate::config::{ArrayConfig, StrategyKind};

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
        let out = degrade_plan(plan, 2, false, |_| vec![0, 1, 3], &mut stats);
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
        let dead = degrade_plan(plan.clone(), 2, false, |_| vec![0, 1], &mut stats);
        assert!(dead.is_empty(), "a dead disk cannot take the write");
        assert_eq!(stats.parity_absorbed_writes, 1);

        let spare = degrade_plan(plan, 2, true, |_| vec![0, 1], &mut stats);
        assert_eq!(spare.len(), 1, "a rebuilding spare accepts writes");
    }

    #[test]
    fn rebuild_on_the_engine_paces_heals_and_records_traffic() {
        let cfg = ArrayConfig::small_test(StrategyKind::Raid5, 10_000);
        let mut devices = DeviceSet::from_config(&cfg);
        devices.fail_disk(1).unwrap();

        let mut engine = BackgroundEngine::new();
        let mut events = Vec::new();
        let mut stats = FaultStats::default();
        start_rebuild(
            &mut engine,
            &mut devices,
            SimTime::ZERO,
            1,
            vec![0, 2, 3],
            rebuild_segments(1_000, Vec::new()),
            100.0,
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.disk_repairs, 1);

        // At t = 0 nothing is due yet.
        assert!(engine.poll(SimTime::ZERO).is_empty());
        // At t = 2 s the pace demands 200 blocks: one batch catches up.
        let batches = engine.poll(SimTime::from_secs(2.0));
        let [Batch::Rebuild {
            disk,
            peers,
            ranges,
            ..
        }] = batches.as_slice()
        else {
            panic!("a rebuild batch is due");
        };
        issue_rebuild_batch(
            SimTime::from_secs(2.0),
            *disk,
            peers,
            ranges,
            &mut devices,
            &mut events,
            &mut stats,
        );
        assert_eq!(events.len(), 4, "3 peer reads + 1 spare write");
        assert!(events[..3]
            .iter()
            .all(|e| e.purpose == IoPurpose::RebuildRead));
        assert_eq!(events[3].purpose, IoPurpose::RebuildWrite);
        assert_eq!(events[3].device, 1);
        assert_eq!(stats.rebuild_write_blocks, 200);
        assert_eq!(stats.rebuild_read_blocks, 600);

        // Far in the future the engine catches up in capped batches until
        // the spare holds the whole live image.
        loop {
            let batches = engine.poll(SimTime::from_secs(100.0));
            if batches.is_empty() {
                break;
            }
            for batch in batches {
                let Batch::Rebuild {
                    disk,
                    peers,
                    ranges,
                    ..
                } = batch
                else {
                    panic!("only a rebuild is queued");
                };
                issue_rebuild_batch(
                    SimTime::from_secs(100.0),
                    disk,
                    &peers,
                    &ranges,
                    &mut devices,
                    &mut events,
                    &mut stats,
                );
            }
        }
        let done = engine.take_completed();
        assert_eq!(done.len(), 1, "the rebuild finished");
        let done = &done[0];
        assert_eq!(done.kind, TaskKind::Rebuild);
        complete_rebuild(done, &mut devices, &mut stats);
        assert_eq!(stats.rebuilds_completed, 1);
        assert_eq!(stats.rebuild_write_blocks, 1_000);
        assert_eq!(stats.rebuild_secs, 100.0);
        assert_eq!(devices.degraded_disk(), None, "the array healed");
    }

    #[test]
    fn rebuild_without_peers_is_rejected() {
        let cfg = ArrayConfig::small_test(StrategyKind::Raid5, 10_000);
        let mut devices = DeviceSet::from_config(&cfg);
        devices.fail_disk(0).unwrap();
        let mut engine = BackgroundEngine::new();
        let mut stats = FaultStats::default();
        let err = start_rebuild(
            &mut engine,
            &mut devices,
            SimTime::ZERO,
            0,
            Vec::new(),
            vec![BlockRange::new(0, 10)],
            100.0,
            &mut stats,
        );
        assert!(err.is_err());
        assert!(engine.is_idle());
    }

    #[test]
    fn live_region_scales_with_usage() {
        assert_eq!(live_blocks(1_000, 800, 400), 500);
        assert_eq!(live_blocks(1_000, 800, 0), 0);
        assert_eq!(live_blocks(1_000, 800, 10_000), 1_000, "clamped to full");
        assert_eq!(live_blocks(999, 1_000, 1), 1, "rounds up");
    }

    #[test]
    fn hot_block_cap_is_enforced() {
        let capped = cap_hot_blocks((0..10_000u64).collect());
        assert_eq!(capped.len(), super::MAX_HOT_REBUILD_BLOCKS);
    }
}
