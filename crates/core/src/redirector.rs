//! The I/O redirector (paper §4.3 and Fig. 2).
//!
//! For every client request the redirector consults the mapping cache (via
//! the [`IoMonitor`]), splits multi-block I/Os as required, and produces the
//! physical I/O plan:
//!
//! * blocks with a cached copy are redirected to the cache partition;
//! * blocks without one are admitted — reads are served from the archive and
//!   copied to the cache partition in the background, writes go straight to
//!   the newly allocated cache slots;
//! * evictions triggered by admissions generate background write-back I/Os
//!   (read the dirty copy from `PC`, rewrite the original block and its
//!   parity in `PA`).
//!
//! Foreground I/Os are the ones the client waits for; background I/Os only
//! occupy devices and delay later requests, mirroring how CRAID interleaves
//! its maintenance work with normal operation.

use craid_diskmodel::{BlockRange, IoKind};
use craid_raid::PlanBuffers;

use crate::background::TaskId;
use crate::monitor::IoMonitor;
use crate::partition::{ArchiveLayout, CachePartition, Partition, PartitionIo};
use crate::restripe::RestripeState;

/// How the planner reaches the archive partition. While a paced archive
/// restripe is in flight, reads of blocks the reshape cursor has not
/// passed resolve through the preserved pre-upgrade volume, and writes —
/// which always land at the reshaped home — supersede the pending move
/// (the array forwards the accumulated supersessions to the background
/// engine as forfeited work after planning).
pub(crate) enum ArchiveAccess<'a> {
    /// No restripe in flight: all archive I/O targets the live volume.
    Plain(&'a Partition<ArchiveLayout>),
    /// Mid-restripe: split per block between the live volume and the
    /// preserved pre-upgrade one.
    Restriping {
        /// The live (post-upgrade) volume.
        current: &'a Partition<ArchiveLayout>,
        /// The in-flight reshape (owns the pre-upgrade volume).
        restripe: &'a mut RestripeState,
    },
}

impl ArchiveAccess<'_> {
    /// Appends reads of `blocks` from their authoritative archive copies
    /// to `plan`.
    #[inline]
    pub(crate) fn plan_reads(
        &self,
        blocks: &[u64],
        scratch: &mut ArchiveScratch,
        plan: &mut Vec<PartitionIo>,
    ) {
        match self {
            ArchiveAccess::Plain(pa) => {
                pa.plan_blocks_into(IoKind::Read, blocks, &mut scratch.buffers, plan)
            }
            ArchiveAccess::Restriping { current, restripe } => {
                scratch.pending.clear();
                scratch.settled.clear();
                for &block in blocks {
                    if restripe.is_pending(current, block) {
                        scratch.pending.push(block);
                    } else {
                        scratch.settled.push(block);
                    }
                }
                current.plan_blocks_into(
                    IoKind::Read,
                    &scratch.settled,
                    &mut scratch.buffers,
                    plan,
                );
                restripe.old.plan_blocks_into(
                    IoKind::Read,
                    &scratch.pending,
                    &mut scratch.buffers,
                    plan,
                );
            }
        }
    }

    /// Appends writes of `blocks` at their current archive homes to
    /// `plan`, superseding any pending restripe move of the same blocks.
    #[inline]
    pub(crate) fn plan_writes(
        &mut self,
        blocks: &[u64],
        scratch: &mut ArchiveScratch,
        plan: &mut Vec<PartitionIo>,
    ) {
        match self {
            ArchiveAccess::Plain(pa) => {
                pa.plan_blocks_into(IoKind::Write, blocks, &mut scratch.buffers, plan)
            }
            ArchiveAccess::Restriping { current, restripe } => {
                for &block in blocks {
                    restripe.supersede(current, block);
                }
                current.plan_blocks_into(IoKind::Write, blocks, &mut scratch.buffers, plan);
            }
        }
    }

    /// Appends the I/O of one client request for `range` to `plan`. With
    /// no restripe in flight the range is planned as the one run it is;
    /// mid-restripe its blocks are split as [`ArchiveAccess::plan_reads`]
    /// and [`ArchiveAccess::plan_writes`] do.
    pub(crate) fn plan_range(
        &mut self,
        kind: IoKind,
        range: BlockRange,
        scratch: &mut ArchiveScratch,
        plan: &mut Vec<PartitionIo>,
    ) {
        if let ArchiveAccess::Plain(pa) = self {
            pa.plan_runs_into(kind, &[range], &mut scratch.buffers, plan);
            return;
        }
        let mut blocks = std::mem::take(&mut scratch.blocks);
        blocks.clear();
        blocks.extend(range.blocks());
        match kind {
            IoKind::Read => self.plan_reads(&blocks, scratch, plan),
            IoKind::Write => self.plan_writes(&blocks, scratch, plan),
        }
        scratch.blocks = blocks;
    }
}

/// The archive side of [`PlanScratch`]: the planner's buffers, which the
/// cache partition's planning shares, plus the block lists a request is
/// split into while a restripe is in flight.
#[derive(Debug, Default)]
pub(crate) struct ArchiveScratch {
    pub(crate) buffers: PlanBuffers,
    /// A request's blocks, for a mid-restripe request on an array without
    /// a cache partition.
    blocks: Vec<u64>,
    /// Blocks the restripe has not moved yet (read from the old volume).
    pending: Vec<u64>,
    /// Blocks at their reshaped homes.
    settled: Vec<u64>,
}

/// Reusable buffers for planning client requests: the per-block triage
/// lists, the planner's working memory and the foreground and background
/// I/O lists a request's plan is built in. The array owns one and hands it
/// to every request and every background batch, cleared and never shrunk,
/// so planning allocates nothing once each buffer has reached the
/// high-water mark of the requests it served.
#[derive(Debug, Default)]
pub struct PlanScratch {
    hit_slots: Vec<u64>,
    admitted_slots: Vec<u64>,
    admitted_pa_blocks: Vec<u64>,
    /// Archive blocks of dirty victims (a request's, or a migration
    /// batch's).
    pub(crate) writeback_pa_blocks: Vec<u64>,
    /// Cache slots of dirty victims, in step with `writeback_pa_blocks`.
    pub(crate) writeback_slots: Vec<u64>,
    pub(crate) archive: ArchiveScratch,
    /// I/Os the client's completion waits for (a background batch's
    /// old-geometry reads).
    pub(crate) foreground: Vec<PartitionIo>,
    /// Maintenance I/Os issued alongside (a background batch's I/O).
    pub(crate) background: Vec<PartitionIo>,
    /// The array's spare list for degraded-mode rewrites.
    pub(crate) degraded: Vec<PartitionIo>,
    /// The parity-group peers of one degraded read's disk.
    pub(crate) peers: Vec<usize>,
    /// The blocks of a request that flow through the monitor while a
    /// cache-partition migration is in flight.
    pub(crate) fresh: Vec<u64>,
    /// `(generation, old slot)` of a request's pending dirty blocks, read
    /// from the preserved pre-upgrade cache partitions.
    pub(crate) old_slot_reads: Vec<(TaskId, u64)>,
    /// One generation's old slots, cut out of `old_slot_reads`.
    pub(crate) old_slots: Vec<u64>,
    /// `(old slot, new slot)` of each block a migration batch moves.
    pub(crate) moves: Vec<(u64, u64)>,
    /// The runs a restripe batch moves.
    pub(crate) runs: Vec<BlockRange>,
}

impl PlanScratch {
    fn clear(&mut self) {
        self.hit_slots.clear();
        self.admitted_slots.clear();
        self.admitted_pa_blocks.clear();
        self.writeback_pa_blocks.clear();
        self.writeback_slots.clear();
        self.foreground.clear();
        self.background.clear();
    }
}

/// The physical plan for one client request.
#[derive(Debug, Clone, Default)]
pub struct RequestPlan {
    /// I/Os the client's completion waits for.
    pub foreground: Vec<PartitionIo>,
    /// Maintenance I/Os issued alongside (copies into `PC`, eviction
    /// write-backs).
    pub background: Vec<PartitionIo>,
    /// Number of blocks served from an existing cached copy.
    pub cache_hit_blocks: u64,
    /// Number of blocks admitted into the cache partition by this request.
    pub admitted_blocks: u64,
    /// Number of evictions triggered.
    pub evictions: u64,
    /// Evictions whose victim was dirty (archive write-back needed).
    pub dirty_writebacks: u64,
}

/// Builds the I/O plan for one client request against a CRAID volume.
///
/// The monitor's policy and the cache partition's allocator are updated as a
/// side effect (admissions, evictions), exactly once per block of the
/// request.
pub fn plan_request(
    monitor: &mut IoMonitor,
    pc: &mut CachePartition,
    pa: &Partition<ArchiveLayout>,
    kind: IoKind,
    range: BlockRange,
) -> RequestPlan {
    let mut scratch = PlanScratch::default();
    let mut plan = plan_request_iter(
        monitor,
        pc,
        &mut ArchiveAccess::Plain(pa),
        kind,
        range.blocks(),
        range.len(),
        &mut scratch,
    );
    plan.foreground = scratch.foreground;
    plan.background = scratch.background;
    plan
}

/// [`plan_request`] over any block sequence, against an [`ArchiveAccess`]
/// and with caller-owned scratch so the hot loop allocates nothing per
/// request: the I/O lists are built in `scratch.foreground` and
/// `scratch.background`, and the returned plan carries the counters only
/// (its lists are empty). While an expansion migration is in flight the
/// array passes only the blocks that flow through the monitor (the rest
/// are redirected to their pre-upgrade homes); `request_blocks` is the
/// size of the original client request (the `S_i` the policies see),
/// which may exceed the number of blocks planned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_request_iter(
    monitor: &mut IoMonitor,
    pc: &mut CachePartition,
    pa: &mut ArchiveAccess<'_>,
    kind: IoKind,
    blocks: impl Iterator<Item = u64>,
    request_blocks: u64,
    scratch: &mut PlanScratch,
) -> RequestPlan {
    let mut plan = RequestPlan::default();
    scratch.clear();

    for pa_block in blocks {
        let (decision, evictions) = monitor.access(pa_block, kind, request_blocks, pc);
        if decision.is_hit() {
            plan.cache_hit_blocks += 1;
            scratch.hit_slots.push(decision.slot());
        } else {
            plan.admitted_blocks += 1;
            scratch.admitted_slots.push(decision.slot());
            scratch.admitted_pa_blocks.push(pa_block);
        }
        for task in evictions {
            plan.evictions += 1;
            if task.dirty {
                plan.dirty_writebacks += 1;
                scratch.writeback_slots.push(task.pc_slot);
                scratch.writeback_pa_blocks.push(task.pa_block);
            }
        }
    }

    match kind {
        IoKind::Read => {
            // Cached blocks are read from PC, missing blocks from PA (from
            // their pre-reshape location while an archive restripe has not
            // reached them).
            pc.plan_blocks_into(
                IoKind::Read,
                &scratch.hit_slots,
                &mut scratch.archive.buffers,
                &mut scratch.foreground,
            );
            pa.plan_reads(
                &scratch.admitted_pa_blocks,
                &mut scratch.archive,
                &mut scratch.foreground,
            );
            // Copying the admitted blocks into their new PC slots happens in
            // the background (B.1 in the paper's control-flow figure).
            pc.plan_blocks_into(
                IoKind::Write,
                &scratch.admitted_slots,
                &mut scratch.archive.buffers,
                &mut scratch.background,
            );
        }
        IoKind::Write => {
            // Writes are always absorbed by the cache partition. Hit and
            // admitted slots merge in request order (hits first, matching
            // the historical plan order bit-for-bit).
            scratch.hit_slots.extend_from_slice(&scratch.admitted_slots);
            pc.plan_blocks_into(
                IoKind::Write,
                &scratch.hit_slots,
                &mut scratch.archive.buffers,
                &mut scratch.foreground,
            );
        }
    }

    // Dirty evictions: read the stale copy back from PC and rewrite the
    // original data (and its parity) in the archive — the "4 additional
    // I/Os" of §5.1. Archive writes land at the reshaped home and
    // supersede any pending restripe move of the same block.
    pc.plan_blocks_into(
        IoKind::Read,
        &scratch.writeback_slots,
        &mut scratch.archive.buffers,
        &mut scratch.background,
    );
    pa.plan_writes(
        &scratch.writeback_pa_blocks,
        &mut scratch.archive,
        &mut scratch.background,
    );

    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_cache::PolicyKind;
    use craid_raid::{IoPurpose, Raid5Layout};

    fn setup(pc_rows: u64) -> (IoMonitor, CachePartition, Partition<ArchiveLayout>) {
        let pc_layout = Raid5Layout::new(4, 4, 2, pc_rows * 2).unwrap();
        let pc = CachePartition::new(pc_layout, 0, 0);
        let pa_layout = ArchiveLayout::Ideal(Raid5Layout::new(4, 4, 2, 64).unwrap());
        let pa = Partition::new(pa_layout, 0, pc_rows * 2);
        let monitor = IoMonitor::new(PolicyKind::Wlru(0.5), pc.capacity());
        (monitor, pc, pa)
    }

    #[test]
    fn cold_read_fetches_from_archive_and_copies_to_cache() {
        let (mut monitor, mut pc, pa) = setup(4);
        let plan = plan_request(
            &mut monitor,
            &mut pc,
            &pa,
            IoKind::Read,
            BlockRange::new(10, 2),
        );
        assert_eq!(plan.cache_hit_blocks, 0);
        assert_eq!(plan.admitted_blocks, 2);
        assert_eq!(plan.evictions, 0);
        // Foreground: archive reads only. Background: PC copy writes (+ parity).
        assert!(plan.foreground.iter().all(|io| io.kind == IoKind::Read));
        assert!(!plan.background.is_empty());
        assert!(plan
            .background
            .iter()
            .any(|io| io.kind == IoKind::Write && io.purpose == IoPurpose::Data));
    }

    #[test]
    fn warm_read_is_served_entirely_from_the_cache_partition() {
        let (mut monitor, mut pc, pa) = setup(4);
        let range = BlockRange::new(10, 2);
        plan_request(&mut monitor, &mut pc, &pa, IoKind::Read, range);
        let plan = plan_request(&mut monitor, &mut pc, &pa, IoKind::Read, range);
        assert_eq!(plan.cache_hit_blocks, 2);
        assert_eq!(plan.admitted_blocks, 0);
        assert!(plan.background.is_empty());
        // All foreground I/O targets the cache partition region (offset 0..8
        // on the shared devices, i.e. below the PA offset of 8).
        assert!(plan.foreground.iter().all(|io| io.range.start() < 8));
    }

    #[test]
    fn writes_go_to_the_cache_partition_with_parity() {
        let (mut monitor, mut pc, pa) = setup(4);
        let plan = plan_request(
            &mut monitor,
            &mut pc,
            &pa,
            IoKind::Write,
            BlockRange::new(50, 3),
        );
        assert_eq!(plan.admitted_blocks, 3);
        assert!(plan.foreground.iter().all(|io| io.kind == IoKind::Write
            || io.purpose == IoPurpose::OldDataRead
            || io.purpose == IoPurpose::ParityRead));
        assert!(plan
            .foreground
            .iter()
            .any(|io| io.purpose == IoPurpose::ParityWrite));
        // Nothing touches the archive partition for a write that fits in PC.
        assert!(plan.foreground.iter().all(|io| io.range.start() < 8));
    }

    #[test]
    fn consecutive_admissions_get_contiguous_slots_and_coalesce() {
        let (mut monitor, mut pc, pa) = setup(8);
        let plan = plan_request(
            &mut monitor,
            &mut pc,
            &pa,
            IoKind::Write,
            BlockRange::new(100, 4),
        );
        // 4 blocks admitted into slots 0..4 → 2-block stripe units on
        // consecutive disks; data writes must be coalesced to 2-block I/Os.
        let data_writes: Vec<_> = plan
            .foreground
            .iter()
            .filter(|io| io.purpose == IoPurpose::Data)
            .collect();
        assert!(data_writes.iter().all(|io| io.range.len() == 2));
        assert_eq!(data_writes.len(), 2);
    }

    #[test]
    fn dirty_eviction_produces_archive_writeback() {
        // PC with a single row: capacity 3 data blocks.
        let (mut monitor, mut pc, pa) = setup(1);
        assert_eq!(pc.capacity(), 6);
        // Fill the cache with dirty blocks.
        for b in 0..6 {
            plan_request(
                &mut monitor,
                &mut pc,
                &pa,
                IoKind::Write,
                BlockRange::new(b, 1),
            );
        }
        // The next write must evict a dirty victim and write it back to PA.
        let plan = plan_request(
            &mut monitor,
            &mut pc,
            &pa,
            IoKind::Write,
            BlockRange::new(100, 1),
        );
        assert!(plan.evictions >= 1);
        assert_eq!(plan.dirty_writebacks, plan.evictions);
        // Background contains a PC read of the victim and a PA write with
        // parity maintenance (reads + writes beyond the data write itself).
        assert!(plan
            .background
            .iter()
            .any(|io| io.kind == IoKind::Read && io.range.start() < 2));
        assert!(plan
            .background
            .iter()
            .any(|io| io.purpose == IoPurpose::ParityWrite && io.range.start() >= 2));
    }

    #[test]
    fn a_reused_scratch_plans_like_a_fresh_one() {
        // A small cache partition, so requests hit, admit and evict dirty
        // victims; one monitor plans through one scratch, its twin through
        // a fresh scratch per request.
        let (mut monitor, mut pc, pa) = setup(2);
        let (mut twin, mut twin_pc, _) = setup(2);
        let mut scratch = PlanScratch::default();
        for i in 0..300u64 {
            let kind = if i % 3 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            let range = BlockRange::new(i * 7 % 90, 1 + i % 5);
            let counts = plan_request_iter(
                &mut monitor,
                &mut pc,
                &mut ArchiveAccess::Plain(&pa),
                kind,
                range.blocks(),
                range.len(),
                &mut scratch,
            );
            let fresh = plan_request(&mut twin, &mut twin_pc, &pa, kind, range);
            assert_eq!(scratch.foreground, fresh.foreground, "request {i}");
            assert_eq!(scratch.background, fresh.background, "request {i}");
            assert_eq!(
                (
                    counts.cache_hit_blocks,
                    counts.admitted_blocks,
                    counts.evictions,
                    counts.dirty_writebacks
                ),
                (
                    fresh.cache_hit_blocks,
                    fresh.admitted_blocks,
                    fresh.evictions,
                    fresh.dirty_writebacks
                ),
                "request {i}"
            );
        }
        assert!(monitor.stats().dirty_evictions > 0);
    }

    #[test]
    fn scratch_lists_hold_only_the_latest_request() {
        let (mut monitor, mut pc, pa) = setup(4);
        let mut scratch = PlanScratch::default();
        let range = BlockRange::new(10, 4);
        for (cold, hits) in [(true, 0), (false, 4)] {
            let counts = plan_request_iter(
                &mut monitor,
                &mut pc,
                &mut ArchiveAccess::Plain(&pa),
                IoKind::Read,
                range.blocks(),
                range.len(),
                &mut scratch,
            );
            assert_eq!(counts.cache_hit_blocks, hits);
            // A cold read copies into PC in the background; a warm one
            // leaves nothing of it behind.
            assert_eq!(!scratch.background.is_empty(), cold);
            assert_eq!(
                scratch.foreground.iter().all(|io| io.range.start() < 8),
                !cold
            );
        }
    }

    #[test]
    fn a_plain_archive_plans_a_range_like_its_blocks() {
        let (_, _, pa) = setup(4);
        let mut scratch = ArchiveScratch::default();
        let range = BlockRange::new(13, 21);
        let blocks: Vec<u64> = range.blocks().collect();
        for kind in [IoKind::Read, IoKind::Write] {
            let mut plan = Vec::new();
            ArchiveAccess::Plain(&pa).plan_range(kind, range, &mut scratch, &mut plan);
            assert_eq!(plan, pa.plan_blocks(kind, &blocks), "{kind}");
        }
    }

    /// An archive mid-restripe from 4 disks onto 8 over its first 100
    /// blocks: the live volume and the reshape.
    fn restriping() -> (Partition<ArchiveLayout>, RestripeState) {
        let volume = |disks| {
            let layout = ArchiveLayout::Ideal(Raid5Layout::new(disks, 4, 2, 64).unwrap());
            Partition::new(layout, 0, 8)
        };
        let current = volume(8);
        let state = RestripeState::new(volume(4), &current, 100);
        (current, state)
    }

    #[test]
    fn mid_restripe_reads_split_between_old_and_new_homes() {
        let (current, mut state) = restriping();
        let old = state.old.clone();
        let blocks: Vec<u64> = (0..120).rev().collect();
        let (pending, settled): (Vec<u64>, Vec<u64>) = blocks
            .iter()
            .copied()
            .partition(|&b| state.is_pending(&current, b));
        assert!(!pending.is_empty() && !settled.is_empty());
        let prefix = PartitionIo {
            disk: 0,
            range: BlockRange::new(8, 1),
            kind: IoKind::Read,
            purpose: IoPurpose::Data,
        };
        let mut plan = vec![prefix];
        let mut scratch = ArchiveScratch::default();
        let access = ArchiveAccess::Restriping {
            current: &current,
            restripe: &mut state,
        };
        access.plan_reads(&blocks, &mut scratch, &mut plan);
        let mut expected = vec![prefix];
        expected.extend(current.plan_blocks(IoKind::Read, &settled));
        expected.extend(old.plan_blocks(IoKind::Read, &pending));
        assert_eq!(plan, expected);
        // A later, settled-only read reuses the split lists from scratch.
        plan.clear();
        access.plan_reads(&settled[..3], &mut scratch, &mut plan);
        assert_eq!(plan, current.plan_blocks(IoKind::Read, &settled[..3]));
        assert_eq!(state.take_forfeits(), 0, "reads supersede nothing");
    }

    #[test]
    fn mid_restripe_writes_land_at_new_homes_and_supersede_pending_moves() {
        let (current, mut state) = restriping();
        let blocks: Vec<u64> = (0..30).collect();
        let pending = blocks
            .iter()
            .filter(|&&b| state.is_pending(&current, b))
            .count() as u64;
        assert!(pending > 0);
        let mut plan = Vec::new();
        ArchiveAccess::Restriping {
            current: &current,
            restripe: &mut state,
        }
        .plan_writes(&blocks, &mut ArchiveScratch::default(), &mut plan);
        assert_eq!(plan, current.plan_blocks(IoKind::Write, &blocks));
        assert_eq!(state.take_forfeits(), pending);
        assert!(blocks.iter().all(|&b| !state.is_pending(&current, b)));
    }

    #[test]
    fn mid_restripe_ranges_plan_like_their_block_lists() {
        let (current, mut by_range) = restriping();
        let (_, mut by_blocks) = restriping();
        let mut scratch = ArchiveScratch::default();
        for (i, (kind, range)) in [
            (IoKind::Read, BlockRange::new(20, 30)),
            (IoKind::Write, BlockRange::new(30, 12)),
            (IoKind::Read, BlockRange::new(25, 30)),
        ]
        .into_iter()
        .enumerate()
        {
            let mut plan = Vec::new();
            ArchiveAccess::Restriping {
                current: &current,
                restripe: &mut by_range,
            }
            .plan_range(kind, range, &mut scratch, &mut plan);
            let blocks: Vec<u64> = range.blocks().collect();
            let mut expected = Vec::new();
            let mut access = ArchiveAccess::Restriping {
                current: &current,
                restripe: &mut by_blocks,
            };
            match kind {
                IoKind::Read => {
                    access.plan_reads(&blocks, &mut ArchiveScratch::default(), &mut expected)
                }
                IoKind::Write => {
                    access.plan_writes(&blocks, &mut ArchiveScratch::default(), &mut expected)
                }
            }
            assert_eq!(plan, expected, "request {i}");
            assert_eq!(by_range.take_forfeits(), by_blocks.take_forfeits());
        }
        assert!(by_range.superseded_count > 0);
    }

    #[test]
    fn multi_block_requests_are_split_across_partitions() {
        let (mut monitor, mut pc, pa) = setup(4);
        // Warm up only the first block of a later 2-block request.
        plan_request(
            &mut monitor,
            &mut pc,
            &pa,
            IoKind::Read,
            BlockRange::new(20, 1),
        );
        let plan = plan_request(
            &mut monitor,
            &mut pc,
            &pa,
            IoKind::Read,
            BlockRange::new(20, 2),
        );
        assert_eq!(plan.cache_hit_blocks, 1);
        assert_eq!(plan.admitted_blocks, 1);
        // Foreground mixes a PC read (offset < 8) and a PA read (offset >= 8).
        assert!(plan.foreground.iter().any(|io| io.range.start() < 8));
        assert!(plan.foreground.iter().any(|io| io.range.start() >= 8));
    }
}
