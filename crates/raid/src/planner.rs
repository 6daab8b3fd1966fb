//! Translating logical requests into per-device physical I/Os.
//!
//! The planner is where the paper's cost model becomes concrete:
//!
//! * a logical **read** touches only the disks holding its data blocks
//!   (contiguous runs per disk are coalesced into single device requests);
//! * a logical **write** to a RAID-5 layout additionally pays the
//!   read-modify-write parity update — read old data, read old parity, write
//!   new data, write new parity — which is exactly the "4 additional I/Os
//!   (2 reads and 2 writes)" the paper charges for every dirty-block eviction
//!   (§5.1). When an entire parity column is overwritten, the old-data and
//!   old-parity reads are skipped (full-stripe write optimization).
//!
//! Planning works in stripe-unit pieces, not blocks. A [`Layout`] keeps each
//! logical stripe unit, and its parity, contiguous on one disk, so a run of
//! logical blocks costs one `locate` (and, for writes, one `parity_for`) per
//! stripe unit it crosses — the rebuild-unit granularity Thomasian's RAID
//! tutorial costs reorganisations in.

use craid_diskmodel::{BlockRange, IoKind};
use serde::{Deserialize, Serialize};

use crate::layout::Layout;
use crate::types::{DiskBlock, IoPurpose};

/// One physical I/O to be issued to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedIo {
    /// Target device index within the array.
    pub disk: usize,
    /// Physical block range on that device (partition-relative).
    pub range: BlockRange,
    /// Transfer direction.
    pub kind: IoKind,
    /// Why this I/O exists (data vs. parity maintenance).
    pub purpose: IoPurpose,
}

/// Plans device I/Os for logical requests over a [`Layout`].
///
/// # Runs and set semantics
///
/// Every request is planned as a set of logical blocks: [`plan_runs_into`]
/// takes that set as ascending, disjoint runs, and [`plan_blocks_into`]
/// reduces its input to such runs first (a block listed twice is planned
/// once). The plan lists the data I/Os, then for writes
/// the old-data reads, old-parity reads and parity writes, each group
/// sorted by disk and block and merged where physically contiguous. A
/// parity column is fully written, and skips its reads, when at least
/// `data_blocks_per_parity_stripe / stripe_unit` distinct written blocks
/// share its parity block.
///
/// # Appending into reused buffers
///
/// [`plan_runs_into`] and [`plan_blocks_into`] are the planner: they
/// append the plan to the caller's list and do their work in a
/// [`PlanBuffers`], so a caller that keeps both across requests plans
/// without allocating once the buffers have grown to its largest request.
/// I/Os merge only inside the part one call appended, never with what the
/// list already held. [`plan_blocks`] wraps them for callers that want a
/// fresh list.
///
/// [`plan_runs_into`]: IoPlanner::plan_runs_into
/// [`plan_blocks_into`]: IoPlanner::plan_blocks_into
/// [`plan_blocks`]: IoPlanner::plan_blocks
///
/// # Example
///
/// ```
/// use craid_raid::{IoPlanner, PlanBuffers, Raid5Layout};
/// use craid_diskmodel::{BlockRange, IoKind};
///
/// let planner = IoPlanner::new(Raid5Layout::new(4, 4, 2, 16).unwrap());
/// // A single-block overwrite needs 4 device I/Os: old data, old parity,
/// // new data, new parity.
/// let plan = planner.plan_blocks(IoKind::Write, &[0]);
/// assert_eq!(plan.len(), 4);
///
/// // The same plan, appended to a list after a read of block 8.
/// let mut buffers = PlanBuffers::default();
/// let mut ios = Vec::new();
/// planner.plan_blocks_into(IoKind::Read, &[8], &mut buffers, &mut ios);
/// planner.plan_runs_into(IoKind::Write, &[BlockRange::new(0, 1)], &mut buffers, &mut ios);
/// assert_eq!(ios.len(), 5);
/// assert_eq!(ios[1..], plan[..]);
/// ```
#[derive(Debug, Clone)]
pub struct IoPlanner<L> {
    layout: L,
}

impl<L: Layout> IoPlanner<L> {
    /// Wraps a layout.
    pub fn new(layout: L) -> Self {
        IoPlanner { layout }
    }

    /// The wrapped layout.
    pub fn layout(&self) -> &L {
        &self.layout
    }

    /// Plans the device I/Os for an arbitrary (not necessarily contiguous
    /// or sorted) set of logical blocks into a fresh list (see
    /// [`IoPlanner::plan_blocks_into`]).
    ///
    /// # Panics
    ///
    /// Panics if any block is beyond the layout's data capacity.
    pub fn plan_blocks(&self, kind: IoKind, logical_blocks: &[u64]) -> Vec<PlannedIo> {
        let mut plan = Vec::new();
        self.plan_blocks_into(kind, logical_blocks, &mut PlanBuffers::default(), &mut plan);
        plan
    }

    /// Appends to `plan` the device I/Os for an arbitrary (not necessarily
    /// contiguous or sorted) set of logical blocks, reduced to runs inside
    /// `buffers`. Used by CRAID when copying the scattered hot set into the
    /// cache partition.
    ///
    /// # Panics
    ///
    /// Panics if any block is beyond the layout's data capacity.
    pub fn plan_blocks_into(
        &self,
        kind: IoKind,
        logical_blocks: &[u64],
        buffers: &mut PlanBuffers,
        plan: &mut Vec<PlannedIo>,
    ) {
        let mut runs = std::mem::take(&mut buffers.runs);
        runs_of(logical_blocks, &mut buffers.sorted, &mut runs);
        self.plan_runs_into(kind, &runs, buffers, plan);
        buffers.runs = runs;
    }

    /// Appends to `plan` the device I/Os for the logical blocks of `runs`,
    /// which must be ascending and disjoint, working in `buffers`. The
    /// I/Os already in `plan` are left as they are.
    ///
    /// # Panics
    ///
    /// Panics if a run starts before the previous one ends or extends
    /// beyond the layout's data capacity.
    pub fn plan_runs_into(
        &self,
        kind: IoKind,
        runs: &[BlockRange],
        buffers: &mut PlanBuffers,
        plan: &mut Vec<PlannedIo>,
    ) {
        let capacity = self.layout.data_capacity();
        let unit = self.layout.stripe_unit();
        let PlanBuffers {
            data,
            parity,
            columns,
            bounds,
            ..
        } = buffers;
        data.clear();
        parity.clear();
        // Sized once up front: a restripe batch is a few stripe units, and
        // growing these vectors piece by piece would cost as much as
        // planning them.
        let pieces: usize = runs.iter().map(|run| (run.len() / unit) as usize + 2).sum();
        data.reserve(pieces);
        if kind.is_write() {
            parity.reserve(pieces);
        }
        let mut prev_end = 0;
        for run in runs {
            assert!(
                run.start() >= prev_end,
                "runs must be ascending and disjoint ({run} starts before {prev_end})"
            );
            assert!(
                run.end() <= capacity,
                "logical block {} beyond capacity {capacity}",
                run.start().max(capacity)
            );
            prev_end = run.end();
            // One piece per stripe unit the run crosses.
            let mut pos = run.start();
            while pos < run.end() {
                let len = ((pos / unit + 1) * unit).min(run.end()) - pos;
                let at = self.layout.locate(pos);
                data.push(Extent::at(at, len));
                if kind.is_write() {
                    if let Some(p) = self.layout.parity_for(pos) {
                        parity.push(ParityPiece {
                            parity: Extent::at(p, len),
                            data: at,
                        });
                    }
                }
                pos += len;
            }
        }
        let full = (self.layout.data_blocks_per_parity_stripe() / unit).max(1);
        columns.split(parity, full, bounds);
        plan.reserve(
            data.len()
                + columns.old_data_reads.len()
                + columns.parity_reads.len()
                + columns.parity_writes.len(),
        );
        coalesce(data, kind, IoPurpose::Data, plan);
        coalesce(
            &mut columns.old_data_reads,
            IoKind::Read,
            IoPurpose::OldDataRead,
            plan,
        );
        coalesce(
            &mut columns.parity_reads,
            IoKind::Read,
            IoPurpose::ParityRead,
            plan,
        );
        coalesce(
            &mut columns.parity_writes,
            IoKind::Write,
            IoPurpose::ParityWrite,
            plan,
        );
    }
}

/// The planner's working memory, kept by a caller that plans many
/// requests so that [`IoPlanner::plan_runs_into`] and
/// [`IoPlanner::plan_blocks_into`] reuse it instead of allocating: the
/// runs a block list reduces to and its sorted copy, the data extents,
/// the parity pieces, the three parity column lists and the coverage
/// bounds. Every call clears what it uses, and nothing shrinks, so the
/// buffers hold the high-water mark of the requests planned with them.
/// Their contents between calls mean nothing.
#[derive(Debug, Clone, Default)]
pub struct PlanBuffers {
    runs: Vec<BlockRange>,
    sorted: Vec<u64>,
    data: Vec<Extent>,
    parity: Vec<ParityPiece>,
    columns: Columns,
    bounds: Vec<u64>,
}

/// Fills `runs` with the ascending, duplicate-free runs covering a block
/// list, sorting a copy of it in `sorted` when it is not already strictly
/// ascending.
fn runs_of(blocks: &[u64], sorted: &mut Vec<u64>, runs: &mut Vec<BlockRange>) {
    runs.clear();
    let blocks = if blocks.windows(2).all(|w| w[0] < w[1]) {
        blocks
    } else {
        sorted.clear();
        sorted.extend_from_slice(blocks);
        sorted.sort_unstable();
        sorted.dedup();
        sorted
    };
    for &block in blocks {
        match runs.last_mut() {
            Some(run) if run.end() == block => *run = BlockRange::new(run.start(), run.len() + 1),
            _ => runs.push(BlockRange::new(block, 1)),
        }
    }
}

/// Blocks `start .. start + len`, physically contiguous on one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Extent {
    disk: usize,
    start: u64,
    len: u64,
}

impl Extent {
    fn at(loc: DiskBlock, len: u64) -> Self {
        Extent {
            disk: loc.disk,
            start: loc.block,
            len,
        }
    }

    fn end(self) -> u64 {
        self.start + self.len
    }
}

/// A written stripe-unit piece seen from its parity: the parity blocks
/// protecting it, and where its data starts (parity block `parity.start +
/// i` protects data block `data.block + i`).
#[derive(Debug, Clone, Copy)]
struct ParityPiece {
    parity: Extent,
    data: DiskBlock,
}

/// The parity traffic of a write, before coalescing.
#[derive(Debug, Clone, Default)]
struct Columns {
    old_data_reads: Vec<Extent>,
    parity_reads: Vec<Extent>,
    parity_writes: Vec<Extent>,
}

impl Columns {
    /// Splits the written pieces' parity columns into full ones (parity
    /// write only) and partial ones (read-modify-write: the old data and
    /// the old parity are read first). A parity block's column is full when
    /// at least `full` pieces cover it. Pieces whose parity extents overlap
    /// form a cluster; only inside a cluster can coverage exceed one.
    /// The three lists are refilled in place; `bounds` is working memory.
    fn split(&mut self, pieces: &mut [ParityPiece], full: u64, bounds: &mut Vec<u64>) {
        self.old_data_reads.clear();
        self.parity_reads.clear();
        self.parity_writes.clear();
        pieces.sort_unstable_by_key(|p| p.parity);
        let mut rest: &[ParityPiece] = pieces;
        while let Some(first) = rest.first() {
            let disk = first.parity.disk;
            let start = first.parity.start;
            let mut end = first.parity.end();
            let size = rest
                .iter()
                .take_while(|p| {
                    let joins = p.parity.disk == disk && p.parity.start < end;
                    if joins {
                        end = end.max(p.parity.end());
                    }
                    joins
                })
                .count();
            let (cluster, tail) = rest.split_at(size);
            rest = tail;
            self.parity_writes.push(Extent {
                disk,
                start,
                len: end - start,
            });
            if (size as u64) < full {
                self.read_modify_write(cluster, start, end);
                continue;
            }
            // Coverage is constant between consecutive piece boundaries.
            bounds.clear();
            bounds.extend(
                cluster
                    .iter()
                    .flat_map(|p| [p.parity.start, p.parity.end()]),
            );
            bounds.sort_unstable();
            bounds.dedup();
            for pair in bounds.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                let covering = cluster
                    .iter()
                    .filter(|p| p.parity.start <= lo && hi <= p.parity.end())
                    .count() as u64;
                if covering < full {
                    self.read_modify_write(cluster, lo, hi);
                }
            }
        }
    }

    /// Reads the old parity blocks `lo .. hi` of `cluster`'s disk and the
    /// old data every piece of the cluster has under them.
    fn read_modify_write(&mut self, cluster: &[ParityPiece], lo: u64, hi: u64) {
        self.parity_reads.push(Extent {
            disk: cluster[0].parity.disk,
            start: lo,
            len: hi - lo,
        });
        for piece in cluster {
            let from = lo.max(piece.parity.start);
            let to = hi.min(piece.parity.end());
            if from < to {
                self.old_data_reads.push(Extent {
                    disk: piece.data.disk,
                    start: piece.data.block + (from - piece.parity.start),
                    len: to - from,
                });
            }
        }
    }
}

/// Sorts `extents` and appends them to `plan` as I/Os, merging those that
/// are physically contiguous (or overlapping) on one disk. Only I/Os this
/// call appended merge: what `plan` already held is another group.
fn coalesce(extents: &mut [Extent], kind: IoKind, purpose: IoPurpose, plan: &mut Vec<PlannedIo>) {
    extents.sort_unstable();
    let first = plan.len();
    for extent in extents.iter() {
        match plan[first..].last_mut() {
            Some(io) if io.disk == extent.disk && extent.start <= io.range.end() => {
                let end = io.range.end().max(extent.end());
                io.range = BlockRange::new(io.range.start(), end - io.range.start());
            }
            _ => plan.push(PlannedIo {
                disk: extent.disk,
                range: BlockRange::new(extent.start, extent.len),
                kind,
                purpose,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raid0::Raid0Layout;
    use crate::raid5::Raid5Layout;
    use crate::raid5plus::Raid5PlusLayout;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    include!("planner_reference.rs");

    impl<L: Layout> IoPlanner<L> {
        /// [`IoPlanner::plan_runs_into`] into a fresh list with fresh
        /// buffers.
        fn plan_runs(&self, kind: IoKind, runs: &[BlockRange]) -> Vec<PlannedIo> {
            let mut plan = Vec::new();
            self.plan_runs_into(kind, runs, &mut PlanBuffers::default(), &mut plan);
            plan
        }
    }

    fn raid5_planner() -> IoPlanner<Raid5Layout> {
        // 4 disks, one parity group of 4, unit 2, 16 blocks/disk.
        IoPlanner::new(Raid5Layout::new(4, 4, 2, 16).unwrap())
    }

    #[test]
    fn single_block_read_is_one_io() {
        let p = raid5_planner();
        let plan = p.plan_runs(IoKind::Read, &[BlockRange::new(0, 1)]);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].kind, IoKind::Read);
        assert_eq!(plan[0].purpose, IoPurpose::Data);
        assert_eq!(plan[0].range.len(), 1);
    }

    #[test]
    fn contiguous_read_coalesces_per_disk() {
        let p = raid5_planner();
        // One stripe unit (2 blocks) lives on one disk → a 2-block read is 1 I/O.
        let plan = p.plan_runs(IoKind::Read, &[BlockRange::new(0, 2)]);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].range.len(), 2);
        // Crossing into the next unit touches a second disk.
        let plan = p.plan_runs(IoKind::Read, &[BlockRange::new(0, 3)]);
        assert_eq!(plan.len(), 2);
        let total: u64 = plan.iter().map(|io| io.range.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn small_write_pays_the_four_io_penalty() {
        let p = raid5_planner();
        let plan = p.plan_runs(IoKind::Write, &[BlockRange::new(0, 1)]);
        let data_writes = plan
            .iter()
            .filter(|io| io.purpose == IoPurpose::Data)
            .count();
        let old_reads = plan
            .iter()
            .filter(|io| io.purpose == IoPurpose::OldDataRead)
            .count();
        let parity_reads = plan
            .iter()
            .filter(|io| io.purpose == IoPurpose::ParityRead)
            .count();
        let parity_writes = plan
            .iter()
            .filter(|io| io.purpose == IoPurpose::ParityWrite)
            .count();
        assert_eq!(
            (data_writes, old_reads, parity_reads, parity_writes),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn full_column_write_skips_reads() {
        let p = raid5_planner();
        // Row 0 offset 0 has 3 data blocks (logical 0, 2, 4 at offset 0).
        let plan = p.plan_blocks(IoKind::Write, &[0, 2, 4]);
        assert!(plan.iter().all(|io| io.purpose != IoPurpose::OldDataRead));
        assert!(plan.iter().all(|io| io.purpose != IoPurpose::ParityRead));
        assert_eq!(
            plan.iter()
                .filter(|io| io.purpose == IoPurpose::ParityWrite)
                .count(),
            1
        );
    }

    #[test]
    fn raid0_write_has_no_parity_traffic() {
        let p = IoPlanner::new(Raid0Layout::new(4, 2, 16).unwrap());
        let plan = p.plan_runs(IoKind::Write, &[BlockRange::new(0, 8)]);
        assert!(plan.iter().all(|io| io.purpose == IoPurpose::Data));
        assert!(plan.iter().all(|io| io.kind == IoKind::Write));
    }

    #[test]
    fn plan_blocks_accepts_scattered_input() {
        let p = raid5_planner();
        let plan = p.plan_blocks(IoKind::Read, &[0, 7, 13, 1]);
        let total: u64 = plan.iter().map(|io| io.range.len()).sum();
        assert_eq!(total, 4);
        // Blocks 0 and 1 are contiguous on one disk and must be coalesced.
        assert!(plan.iter().any(|io| io.range.len() == 2));
    }

    #[test]
    fn duplicate_blocks_are_deduplicated() {
        let p = raid5_planner();
        let plan = p.plan_blocks(IoKind::Read, &[5, 5, 5]);
        let total: u64 = plan.iter().map(|io| io.range.len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn a_repeated_block_is_not_a_full_stripe_write() {
        // Nine data units share each parity block, but nine copies of one
        // block are one written block: the column is partial and pays the
        // read-modify-write.
        let p = IoPlanner::new(Raid5Layout::new(10, 10, 8, 800).unwrap());
        let once = p.plan_blocks(IoKind::Write, &[0]);
        assert_eq!(
            once.len(),
            4,
            "data write, old data, old parity, parity write"
        );
        assert_eq!(p.plan_blocks(IoKind::Write, &[0; 9]), once);
    }

    #[test]
    fn every_entry_point_plans_the_same_set() {
        let p = IoPlanner::new(Raid5Layout::new(8, 4, 4, 64).unwrap());
        let range = BlockRange::new(3, 70);
        let blocks: Vec<u64> = (range.start()..range.end()).rev().collect();
        for kind in [IoKind::Read, IoKind::Write] {
            let plan = p.plan_runs(kind, &[range]);
            assert_eq!(plan, reference_plan(p.layout(), kind, &blocks));
            assert_eq!(p.plan_blocks(kind, &blocks), plan);
            let split = [BlockRange::new(3, 5), BlockRange::new(8, 65)];
            assert_eq!(p.plan_runs(kind, &split), plan);
        }
    }

    #[test]
    #[should_panic(expected = "ascending and disjoint")]
    fn overlapping_runs_are_refused() {
        let p = raid5_planner();
        p.plan_runs(
            IoKind::Write,
            &[BlockRange::new(4, 4), BlockRange::new(6, 1)],
        );
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn runs_past_capacity_are_refused() {
        let p = raid5_planner();
        let cap = p.layout().data_capacity();
        p.plan_runs(IoKind::Read, &[BlockRange::new(cap - 1, 2)]);
    }

    #[test]
    fn empty_requests_append_nothing() {
        let p = raid5_planner();
        let mut buffers = PlanBuffers::default();
        let mut plan = Vec::new();
        // Leave a write's pieces in the buffers first.
        p.plan_blocks_into(IoKind::Write, &[3], &mut buffers, &mut plan);
        let before = plan.clone();
        for kind in [IoKind::Read, IoKind::Write] {
            p.plan_runs_into(kind, &[], &mut buffers, &mut plan);
            p.plan_blocks_into(kind, &[], &mut buffers, &mut plan);
        }
        assert_eq!(plan, before);
    }

    #[test]
    fn a_read_after_a_write_in_the_same_buffers_has_no_parity_traffic() {
        let p = raid5_planner();
        let run = [BlockRange::new(1, 5)];
        let mut buffers = PlanBuffers::default();
        let mut plan = Vec::new();
        p.plan_runs_into(IoKind::Write, &run, &mut buffers, &mut plan);
        assert!(plan.iter().any(|io| io.purpose == IoPurpose::ParityRead));
        plan.clear();
        p.plan_runs_into(IoKind::Read, &run, &mut buffers, &mut plan);
        assert!(plan
            .iter()
            .all(|io| io.purpose == IoPurpose::Data && io.kind == IoKind::Read));
        assert_eq!(plan, p.plan_runs(IoKind::Read, &run));
    }

    #[test]
    fn a_full_column_write_after_a_small_one_reads_nothing() {
        let p = raid5_planner();
        let mut buffers = PlanBuffers::default();
        let mut plan = Vec::new();
        p.plan_blocks_into(IoKind::Write, &[7], &mut buffers, &mut plan);
        assert_eq!(plan.len(), 4, "the small write reads old data and parity");
        plan.clear();
        // Logical 0, 2 and 4 fill row 0's first parity column.
        p.plan_blocks_into(IoKind::Write, &[4, 2, 0], &mut buffers, &mut plan);
        assert!(plan
            .iter()
            .all(|io| !matches!(io.purpose, IoPurpose::OldDataRead | IoPurpose::ParityRead)));
        assert_eq!(plan, p.plan_blocks(IoKind::Write, &[0, 2, 4]));
    }

    #[test]
    fn an_ascending_block_list_ignores_a_stale_sorted_copy() {
        let p = raid5_planner();
        let mut buffers = PlanBuffers::default();
        let mut plan = Vec::new();
        // Unsorted, with a duplicate: planned from a sorted copy.
        p.plan_blocks_into(IoKind::Read, &[9, 3, 4, 3], &mut buffers, &mut plan);
        assert_eq!(
            plan,
            p.plan_runs(
                IoKind::Read,
                &[BlockRange::new(3, 2), BlockRange::new(9, 1)]
            )
        );
        // Strictly ascending: planned as given, not from the old copy.
        plan.clear();
        p.plan_blocks_into(IoKind::Read, &[0, 1], &mut buffers, &mut plan);
        assert_eq!(plan, p.plan_runs(IoKind::Read, &[BlockRange::new(0, 2)]));
        // A shorter unsorted list replaces the copy entirely.
        plan.clear();
        p.plan_blocks_into(IoKind::Read, &[12, 11], &mut buffers, &mut plan);
        assert_eq!(plan, p.plan_runs(IoKind::Read, &[BlockRange::new(11, 2)]));
    }

    #[test]
    fn a_plan_never_merges_with_an_adjacent_io_the_list_held() {
        let p = raid5_planner();
        // Logical 6..8 is row 1's first stripe unit: not at offset 0.
        let run = [BlockRange::new(6, 2)];
        let fresh = p.plan_runs(IoKind::Read, &run);
        assert_eq!(fresh.len(), 1);
        let io = fresh[0];
        assert!(io.range.start() > 0);
        // The block just before it on the same disk, already in the list.
        let held = PlannedIo {
            range: BlockRange::new(io.range.start() - 1, 1),
            ..io
        };
        let mut plan = vec![held];
        p.plan_runs_into(IoKind::Read, &run, &mut PlanBuffers::default(), &mut plan);
        assert_eq!(plan, [held, io]);
    }

    /// SplitMix64: a deterministic shuffle key.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A duplicate-free, shuffled block list over `layout`: the union of
    /// `segments` (short ones inside a couple of stripe units, long ones
    /// across rows, parity groups and member sets), or the whole volume.
    fn scattered_blocks<L: Layout>(
        layout: &L,
        segments: &[(u64, u64, bool)],
        seed: u64,
    ) -> Vec<u64> {
        let cap = layout.data_capacity();
        let mut set = BTreeSet::new();
        if seed.is_multiple_of(8) {
            set.extend(0..cap);
        }
        for &(start, len, long) in segments {
            let start = start % cap;
            let len = 1 + len % if long { cap } else { 2 * layout.stripe_unit() };
            set.extend(start..(start + len).min(cap));
        }
        let mut blocks: Vec<u64> = set.into_iter().collect();
        blocks.sort_by_key(|&b| mix(b ^ seed));
        blocks
    }

    fn assert_matches_reference<L: Layout>(layout: L, segments: &[(u64, u64, bool)], seed: u64) {
        let blocks = scattered_blocks(&layout, segments, seed);
        let p = IoPlanner::new(layout);
        for kind in [IoKind::Read, IoKind::Write] {
            assert_eq!(
                p.plan_blocks(kind, &blocks),
                reference_plan(p.layout(), kind, &blocks),
                "{kind} of {blocks:?}"
            );
        }
    }

    proptest! {
        /// Reads never generate parity traffic and always move exactly the
        /// requested number of distinct blocks.
        #[test]
        fn prop_reads_move_exact_blocks(start in 0u64..30, len in 1u64..12) {
            let p = raid5_planner();
            let cap = p.layout().data_capacity();
            let start = start.min(cap - 1);
            let len = len.min(cap - start);
            let plan = p.plan_runs(IoKind::Read, &[BlockRange::new(start, len)]);
            prop_assert!(plan.iter().all(|io| io.purpose == IoPurpose::Data && io.kind == IoKind::Read));
            let total: u64 = plan.iter().map(|io| io.range.len()).sum();
            prop_assert_eq!(total, len);
        }

        /// For RAID-5 writes the number of data blocks written equals the
        /// request size, every touched parity column is written exactly once,
        /// and parity reads only happen for partial columns.
        #[test]
        fn prop_write_parity_accounting(start in 0u64..30, len in 1u64..12) {
            let p = raid5_planner();
            let cap = p.layout().data_capacity();
            let start = start.min(cap - 1);
            let len = len.min(cap - start);
            let plan = p.plan_runs(IoKind::Write, &[BlockRange::new(start, len)]);
            let data: u64 = plan.iter().filter(|io| io.purpose == IoPurpose::Data).map(|io| io.range.len()).sum();
            prop_assert_eq!(data, len);
            let parity_reads: u64 = plan.iter().filter(|io| io.purpose == IoPurpose::ParityRead).map(|io| io.range.len()).sum();
            let parity_writes: u64 = plan.iter().filter(|io| io.purpose == IoPurpose::ParityWrite).map(|io| io.range.len()).sum();
            prop_assert!(parity_writes >= 1);
            prop_assert!(parity_reads <= parity_writes, "cannot read more parity than we rewrite");
            // Device targets of data writes never coincide with the parity
            // block being rewritten at the same physical address.
            for a in plan.iter().filter(|io| io.purpose == IoPurpose::Data) {
                for b in plan.iter().filter(|io| io.purpose == IoPurpose::ParityWrite) {
                    if a.disk == b.disk {
                        prop_assert!(!a.range.overlaps(b.range));
                    }
                }
            }
        }
    }

    /// The runs covering a duplicate-free block list, built without the
    /// planner's own `runs_of`.
    fn sorted_runs(blocks: &[u64]) -> Vec<BlockRange> {
        let mut sorted = blocks.to_vec();
        sorted.sort_unstable();
        let mut runs: Vec<BlockRange> = Vec::new();
        for block in sorted {
            match runs.last_mut() {
                Some(run) if run.end() == block => {
                    *run = BlockRange::new(run.start(), run.len() + 1)
                }
                _ => runs.push(BlockRange::new(block, 1)),
            }
        }
        runs
    }

    /// One drawn request: the segments of its block set, the shuffle seed
    /// and whether it writes.
    type Request = (Vec<(u64, u64, bool)>, u64, bool);

    /// Plans `requests` one after another into one list with one reused
    /// `PlanBuffers`, alternating the run and block entry points. Before
    /// each request the list gains a copy of that request's first I/O, so
    /// a merge across the boundary would always be possible. Every call
    /// must leave the list's earlier I/Os as they were and append exactly
    /// the plan fresh buffers give.
    fn assert_appends_like_fresh<L: Layout>(layout: L, requests: &[Request]) {
        let p = IoPlanner::new(layout);
        let mut buffers = PlanBuffers::default();
        let mut list = vec![PlannedIo {
            disk: 0,
            range: BlockRange::new(0, 1),
            kind: IoKind::Write,
            purpose: IoPurpose::ParityWrite,
        }];
        for (i, (segments, seed, write)) in requests.iter().enumerate() {
            let kind = if *write { IoKind::Write } else { IoKind::Read };
            let blocks = scattered_blocks(p.layout(), segments, *seed);
            let runs = sorted_runs(&blocks);
            let fresh = p.plan_runs(kind, &runs);
            list.extend(fresh.first().copied());
            let before = list.clone();
            if i % 2 == 0 {
                p.plan_runs_into(kind, &runs, &mut buffers, &mut list);
            } else {
                p.plan_blocks_into(kind, &blocks, &mut buffers, &mut list);
            }
            assert_eq!(
                list[..before.len()],
                before[..],
                "request {i}: the prefix moved"
            );
            assert_eq!(
                list[before.len()..],
                fresh[..],
                "request {i}: {kind} of {runs:?}"
            );
        }
    }

    proptest! {
        /// Appending keeps the list's prefix and appends the fresh plan,
        /// and reused buffers plan like fresh ones, over random requests
        /// on RAID-5, RAID-5+ and RAID-0.
        #[test]
        fn prop_appended_plans_match_fresh_ones(
            (pick, a, b) in (0u8..3, 0usize..12, 0usize..12),
            (unit, rows) in (1u64..6, 1u64..9),
            requests in proptest::collection::vec(
                (
                    proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..5),
                    any::<u64>(),
                    any::<bool>(),
                ),
                1..8,
            ),
        ) {
            match pick {
                0 => {
                    let group = 2 + a % 4;
                    let layout = Raid5Layout::new((1 + b % 3) * group, group, unit, rows * unit).unwrap();
                    assert_appends_like_fresh(layout, &requests);
                }
                1 => {
                    let layout = Raid5PlusLayout::new(&[2 + a % 5, 2 + b % 5], unit, rows * unit).unwrap();
                    assert_appends_like_fresh(layout, &requests);
                }
                _ => {
                    let layout = Raid0Layout::new(2 + a % 5, unit, rows * unit).unwrap();
                    assert_appends_like_fresh(layout, &requests);
                }
            }
        }
    }

    proptest! {
        /// The run planner returns the per-block reference's plan, I/O for
        /// I/O, on RAID-5 with several parity groups.
        #[test]
        fn prop_raid5_matches_the_reference(
            (groups, group, unit, rows) in (1usize..4, 2usize..6, 1u64..6, 1u64..9),
            segments in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..6),
            seed in any::<u64>(),
        ) {
            let layout = Raid5Layout::new(groups * group, group, unit, rows * unit).unwrap();
            assert_matches_reference(layout, &segments, seed);
        }

        /// Same on RAID-5+, whose member sets differ in width (and whose
        /// full-column threshold is the narrowest set's).
        #[test]
        fn prop_raid5plus_matches_the_reference(
            sizes in proptest::collection::vec(2usize..7, 1..4),
            (unit, rows) in (1u64..6, 1u64..7),
            segments in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..6),
            seed in any::<u64>(),
        ) {
            let layout = Raid5PlusLayout::new(&sizes, unit, rows * unit).unwrap();
            assert_matches_reference(layout, &segments, seed);
        }

        /// Same on RAID-0, which has no parity traffic at all.
        #[test]
        fn prop_raid0_matches_the_reference(
            (disks, unit, rows) in (2usize..7, 1u64..6, 1u64..9),
            segments in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..6),
            seed in any::<u64>(),
        ) {
            let layout = Raid0Layout::new(disks, unit, rows * unit).unwrap();
            assert_matches_reference(layout, &segments, seed);
        }
    }
}
