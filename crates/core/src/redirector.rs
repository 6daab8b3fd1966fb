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
    /// Plans reads of `blocks` from their authoritative archive copies.
    #[inline]
    pub(crate) fn plan_reads(&self, blocks: &[u64]) -> Vec<PartitionIo> {
        match self {
            ArchiveAccess::Plain(pa) => pa.plan_blocks(IoKind::Read, blocks),
            ArchiveAccess::Restriping { current, restripe } => {
                let (pending, settled): (Vec<u64>, Vec<u64>) = blocks
                    .iter()
                    .partition(|&&b| restripe.is_pending(current, b));
                let mut plan = current.plan_blocks(IoKind::Read, &settled);
                plan.extend(restripe.old.plan_blocks(IoKind::Read, &pending));
                plan
            }
        }
    }

    /// Plans writes of `blocks` at their current archive homes, superseding
    /// any pending restripe move of the same blocks.
    #[inline]
    pub(crate) fn plan_writes(&mut self, blocks: &[u64]) -> Vec<PartitionIo> {
        match self {
            ArchiveAccess::Plain(pa) => pa.plan_blocks(IoKind::Write, blocks),
            ArchiveAccess::Restriping { current, restripe } => {
                for &block in blocks {
                    restripe.supersede(current, block);
                }
                current.plan_blocks(IoKind::Write, blocks)
            }
        }
    }
}

/// Reusable per-block triage buffers for the planner. The replay hot loop
/// plans one request per trace record; owning these vectors across calls
/// (cleared, never shrunk) keeps the per-request path free of heap
/// allocations once the high-water marks are reached.
#[derive(Debug, Default)]
pub struct PlanScratch {
    hit_slots: Vec<u64>,
    admitted_slots: Vec<u64>,
    admitted_pa_blocks: Vec<u64>,
    writeback_pa_blocks: Vec<u64>,
    writeback_slots: Vec<u64>,
}

impl PlanScratch {
    fn clear(&mut self) {
        self.hit_slots.clear();
        self.admitted_slots.clear();
        self.admitted_pa_blocks.clear();
        self.writeback_pa_blocks.clear();
        self.writeback_slots.clear();
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
    plan_request_iter(
        monitor,
        pc,
        &mut ArchiveAccess::Plain(pa),
        kind,
        range.blocks(),
        range.len(),
        &mut PlanScratch::default(),
    )
}

/// [`plan_request`] over any block sequence, against an [`ArchiveAccess`]
/// and with caller-owned triage scratch so the hot loop allocates nothing
/// per request. While an expansion migration is in flight the array passes
/// only the blocks that flow through the monitor (the rest are redirected
/// to their pre-upgrade homes); `request_blocks` is the size of the
/// original client request (the `S_i` the policies see), which may exceed
/// the number of blocks planned.
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
            plan.foreground
                .extend(pc.plan_blocks(IoKind::Read, &scratch.hit_slots));
            plan.foreground
                .extend(pa.plan_reads(&scratch.admitted_pa_blocks));
            // Copying the admitted blocks into their new PC slots happens in
            // the background (B.1 in the paper's control-flow figure).
            plan.background
                .extend(pc.plan_blocks(IoKind::Write, &scratch.admitted_slots));
        }
        IoKind::Write => {
            // Writes are always absorbed by the cache partition. Hit and
            // admitted slots merge in request order (hits first, matching
            // the historical plan order bit-for-bit).
            let admitted = std::mem::take(&mut scratch.admitted_slots);
            scratch.hit_slots.extend(&admitted);
            scratch.admitted_slots = admitted;
            plan.foreground
                .extend(pc.plan_blocks(IoKind::Write, &scratch.hit_slots));
        }
    }

    // Dirty evictions: read the stale copy back from PC and rewrite the
    // original data (and its parity) in the archive — the "4 additional
    // I/Os" of §5.1. Archive writes land at the reshaped home and
    // supersede any pending restripe move of the same block.
    plan.background
        .extend(pc.plan_blocks(IoKind::Read, &scratch.writeback_slots));
    plan.background
        .extend(pa.plan_writes(&scratch.writeback_pa_blocks));

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
