//! Partitions: placing a layout onto a slice of the array's devices.
//!
//! CRAID divides every disk into a small **cache partition** (`PC`) at the
//! start of the device (the fastest, outermost zone) and an **archive
//! partition** (`PA`) covering the rest. A [`Partition`] binds a RAID layout
//! to a device range and a per-device block offset; [`CachePartition`] adds
//! the slot allocator the I/O monitor uses to place cached copies, and
//! [`ArchiveLayout`] abstracts over the two archive organisations the paper
//! evaluates (ideal RAID-5 vs. aggregated RAID-5+).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use craid_diskmodel::{BlockRange, IoKind};
use craid_raid::{IoPlanner, Layout, PlanBuffers, PlannedIo, Raid5Layout, Raid5PlusLayout};

/// A device I/O produced by a partition: a [`PlannedIo`] whose device index
/// and block number are absolute (array-wide device id, device-absolute
/// block).
pub type PartitionIo = PlannedIo;

/// A RAID layout bound to a contiguous range of devices and a per-device
/// block offset.
#[derive(Debug, Clone)]
pub struct Partition<L> {
    planner: IoPlanner<L>,
    first_device: usize,
    block_offset: u64,
}

impl<L: Layout> Partition<L> {
    /// Binds `layout` to the devices starting at `first_device`, with every
    /// physical block shifted by `block_offset` on its device.
    pub fn new(layout: L, first_device: usize, block_offset: u64) -> Self {
        Partition {
            planner: IoPlanner::new(layout),
            first_device,
            block_offset,
        }
    }

    /// The wrapped layout.
    pub fn layout(&self) -> &L {
        self.planner.layout()
    }

    /// Logical data capacity of the partition in blocks.
    pub fn data_capacity(&self) -> u64 {
        self.planner.layout().data_capacity()
    }

    /// Index of the first device used by this partition.
    pub fn first_device(&self) -> usize {
        self.first_device
    }

    /// Per-device block offset of this partition.
    pub fn block_offset(&self) -> u64 {
        self.block_offset
    }

    /// Moves the partition onto a new first device, keeping the layout and
    /// offsets. Used when an upgrade splices new disks in front of the
    /// devices this partition lives on (the dedicated SSDs trail the
    /// mechanical disks, so their indices shift).
    pub fn rebind_first_device(&mut self, first_device: usize) {
        self.first_device = first_device;
    }

    /// Plans the device I/Os for a set of logical partition blocks into a
    /// fresh list (see [`Partition::plan_blocks_into`]).
    pub fn plan_blocks(&self, kind: IoKind, blocks: &[u64]) -> Vec<PartitionIo> {
        let mut plan = self.planner.plan_blocks(kind, blocks);
        self.place(&mut plan);
        plan
    }

    /// Appends to `plan` the device I/Os for a set of logical partition
    /// blocks, in absolute coordinates: the planner works in `buffers`
    /// (see [`IoPlanner::plan_blocks_into`]) and only the I/Os this call
    /// appended are shifted onto the partition's devices and offset.
    pub fn plan_blocks_into(
        &self,
        kind: IoKind,
        blocks: &[u64],
        buffers: &mut PlanBuffers,
        plan: &mut Vec<PartitionIo>,
    ) {
        let from = plan.len();
        self.planner.plan_blocks_into(kind, blocks, buffers, plan);
        self.place(&mut plan[from..]);
    }

    /// [`Partition::plan_blocks_into`] for ascending, disjoint logical runs
    /// (see [`IoPlanner::plan_runs_into`]).
    pub fn plan_runs_into(
        &self,
        kind: IoKind,
        runs: &[BlockRange],
        buffers: &mut PlanBuffers,
        plan: &mut Vec<PartitionIo>,
    ) {
        let from = plan.len();
        self.planner.plan_runs_into(kind, runs, buffers, plan);
        self.place(&mut plan[from..]);
    }

    /// Shifts layout-relative I/Os onto this partition's devices and block
    /// offset, in place.
    fn place(&self, ios: &mut [PlannedIo]) {
        for io in ios {
            io.disk += self.first_device;
            io.range = BlockRange::new(io.range.start() + self.block_offset, io.range.len());
        }
    }
}

/// The two archive-partition organisations of the paper's evaluation.
#[derive(Debug, Clone)]
pub enum ArchiveLayout {
    /// An ideally restriped RAID-5 across all disks.
    Ideal(Raid5Layout),
    /// The aggregation of independent RAID-5 sets left behind by upgrades.
    Aggregated(Raid5PlusLayout),
}

impl Layout for ArchiveLayout {
    fn disk_count(&self) -> usize {
        match self {
            ArchiveLayout::Ideal(l) => l.disk_count(),
            ArchiveLayout::Aggregated(l) => l.disk_count(),
        }
    }

    fn data_capacity(&self) -> u64 {
        match self {
            ArchiveLayout::Ideal(l) => l.data_capacity(),
            ArchiveLayout::Aggregated(l) => l.data_capacity(),
        }
    }

    fn stripe_unit(&self) -> u64 {
        match self {
            ArchiveLayout::Ideal(l) => l.stripe_unit(),
            ArchiveLayout::Aggregated(l) => l.stripe_unit(),
        }
    }

    fn blocks_per_disk(&self) -> u64 {
        match self {
            ArchiveLayout::Ideal(l) => l.blocks_per_disk(),
            ArchiveLayout::Aggregated(l) => l.blocks_per_disk(),
        }
    }

    fn locate(&self, logical: u64) -> craid_raid::DiskBlock {
        match self {
            ArchiveLayout::Ideal(l) => l.locate(logical),
            ArchiveLayout::Aggregated(l) => l.locate(logical),
        }
    }

    fn parity_for(&self, logical: u64) -> Option<craid_raid::DiskBlock> {
        match self {
            ArchiveLayout::Ideal(l) => l.parity_for(logical),
            ArchiveLayout::Aggregated(l) => l.parity_for(logical),
        }
    }

    fn data_blocks_per_parity_stripe(&self) -> u64 {
        match self {
            ArchiveLayout::Ideal(l) => l.data_blocks_per_parity_stripe(),
            ArchiveLayout::Aggregated(l) => l.data_blocks_per_parity_stripe(),
        }
    }

    fn reconstruction_peers(&self, disk: usize, peers: &mut Vec<usize>) {
        match self {
            ArchiveLayout::Ideal(l) => l.reconstruction_peers(disk, peers),
            ArchiveLayout::Aggregated(l) => l.reconstruction_peers(disk, peers),
        }
    }
}

/// The cache partition: a RAID-5 area at the head of the caching devices plus
/// the slot allocator handing out cache blocks to the I/O monitor.
///
/// Slots are handed out in ascending order (lowest free slot first), so the
/// blocks of a freshly admitted run land physically contiguous — this is what
/// gives CRAID the "long sequential chains of related blocks" the paper
/// credits for its sequentiality gains.
#[derive(Debug, Clone)]
pub struct CachePartition {
    partition: Partition<Raid5Layout>,
    capacity: u64,
    next_fresh: u64,
    recycled: BinaryHeap<Reverse<u64>>,
}

impl CachePartition {
    /// Creates a cache partition over the given layout.
    pub fn new(layout: Raid5Layout, first_device: usize, block_offset: u64) -> Self {
        let capacity = layout.data_capacity();
        CachePartition {
            partition: Partition::new(layout, first_device, block_offset),
            capacity,
            next_fresh: 0,
            recycled: BinaryHeap::new(),
        }
    }

    /// Total number of cache slots (data blocks).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of slots currently handed out.
    pub fn allocated(&self) -> u64 {
        self.next_fresh - self.recycled.len() as u64
    }

    /// Number of slots still available.
    pub fn free_slots(&self) -> u64 {
        self.capacity - self.allocated()
    }

    /// Index of the first device holding the cache partition.
    pub fn first_device(&self) -> usize {
        self.partition.first_device()
    }

    /// The cache partition's RAID-5 layout (degraded planning needs its
    /// parity groups).
    pub fn layout(&self) -> &Raid5Layout {
        self.partition.layout()
    }

    /// Moves the partition onto a new first device without touching the
    /// slot allocator or layout — the devices kept their contents, only
    /// their indices shifted (new mechanical disks were spliced in front
    /// of the dedicated SSDs).
    pub fn rebind_first_device(&mut self, first_device: usize) {
        self.partition.rebind_first_device(first_device);
    }

    /// Number of devices the cache partition spans.
    pub fn device_count(&self) -> usize {
        self.partition.layout().disk_count()
    }

    /// Hands out the lowest free slot, or `None` if the partition is full.
    pub fn allocate(&mut self) -> Option<u64> {
        if let Some(Reverse(slot)) = self.recycled.pop() {
            return Some(slot);
        }
        if self.next_fresh < self.capacity {
            let slot = self.next_fresh;
            self.next_fresh += 1;
            Some(slot)
        } else {
            None
        }
    }

    /// Returns a slot to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never allocated (is out of range).
    pub fn release(&mut self, slot: u64) {
        assert!(slot < self.capacity, "slot {slot} out of range");
        self.recycled.push(Reverse(slot));
    }

    /// Plans the device I/Os touching the given cache slots into a fresh
    /// list.
    pub fn plan_blocks(&self, kind: IoKind, slots: &[u64]) -> Vec<PartitionIo> {
        self.partition.plan_blocks(kind, slots)
    }

    /// Appends to `plan` the device I/Os touching the given cache slots
    /// (see [`Partition::plan_blocks_into`]).
    pub fn plan_blocks_into(
        &self,
        kind: IoKind,
        slots: &[u64],
        buffers: &mut PlanBuffers,
        plan: &mut Vec<PartitionIo>,
    ) {
        self.partition.plan_blocks_into(kind, slots, buffers, plan);
    }

    /// Replaces the layout (an online upgrade extended the partition over
    /// more devices) and resets the slot allocator. All previous slot
    /// assignments become invalid — the caller must have drained the mapping
    /// cache first.
    pub fn rebuild(&mut self, layout: Raid5Layout, first_device: usize, block_offset: u64) {
        self.capacity = layout.data_capacity();
        self.partition = Partition::new(layout, first_device, block_offset);
        self.next_fresh = 0;
        self.recycled.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_raid::IoPurpose;

    fn pc() -> CachePartition {
        // 4 devices, single parity group, 2-block units, 8 blocks per disk
        // → 3 data units per row × 4 rows × 2 blocks = 24 slots.
        CachePartition::new(Raid5Layout::new(4, 4, 2, 8).unwrap(), 0, 0)
    }

    #[test]
    fn slots_are_allocated_in_ascending_order() {
        let mut p = pc();
        assert_eq!(p.capacity(), 24);
        assert_eq!(p.allocate(), Some(0));
        assert_eq!(p.allocate(), Some(1));
        assert_eq!(p.allocate(), Some(2));
        assert_eq!(p.allocated(), 3);
        assert_eq!(p.free_slots(), 21);
    }

    #[test]
    fn released_slots_are_reused_lowest_first() {
        let mut p = pc();
        for _ in 0..5 {
            p.allocate();
        }
        p.release(3);
        p.release(1);
        assert_eq!(p.allocate(), Some(1));
        assert_eq!(p.allocate(), Some(3));
        assert_eq!(p.allocate(), Some(5));
    }

    #[test]
    fn allocation_stops_at_capacity() {
        let mut p = pc();
        for _ in 0..24 {
            assert!(p.allocate().is_some());
        }
        assert_eq!(p.allocate(), None);
        assert_eq!(p.free_slots(), 0);
        p.release(7);
        assert_eq!(p.allocate(), Some(7));
    }

    #[test]
    fn plan_translates_device_and_offset() {
        let layout = Raid5Layout::new(4, 4, 2, 8).unwrap();
        let p = CachePartition::new(layout, 10, 0);
        let plan = p.plan_blocks(IoKind::Read, &[0, 1]);
        assert_eq!(plan.len(), 1);
        assert_eq!(
            plan[0].disk, 10,
            "device ids are shifted to the partition's devices"
        );

        let part = Partition::new(Raid5Layout::new(4, 4, 2, 8).unwrap(), 2, 100);
        let plan = part.plan_blocks(IoKind::Read, &[0]);
        assert_eq!(plan[0].disk, 2);
        assert_eq!(plan[0].range.start(), 100, "block offset is applied");
    }

    #[test]
    fn appended_plans_shift_only_what_they_appended() {
        let part = Partition::new(Raid5Layout::new(4, 4, 2, 8).unwrap(), 2, 100);
        let prefix = PartitionIo {
            disk: 0,
            range: BlockRange::new(0, 1),
            kind: IoKind::Read,
            purpose: IoPurpose::Data,
        };
        let mut plan = vec![prefix];
        let mut buffers = PlanBuffers::default();
        part.plan_blocks_into(IoKind::Write, &[0], &mut buffers, &mut plan);
        assert_eq!(plan[0], prefix, "the prefix is neither shifted nor merged");
        assert_eq!(plan[1..], part.plan_blocks(IoKind::Write, &[0])[..]);
        assert_eq!(plan.len(), 5, "data, old data, old parity, parity");
        part.plan_runs_into(
            IoKind::Read,
            &[BlockRange::new(0, 2)],
            &mut buffers,
            &mut plan,
        );
        assert_eq!(plan.len(), 6);
        assert_eq!(plan[5].disk, 2);
        assert_eq!(plan[5].range, BlockRange::new(100, 2));
    }

    #[test]
    fn a_range_plans_as_one_run_like_its_blocks() {
        let layout = ArchiveLayout::Ideal(Raid5Layout::new(8, 4, 4, 64).unwrap());
        let part = Partition::new(layout, 1, 40);
        let mut buffers = PlanBuffers::default();
        for kind in [IoKind::Read, IoKind::Write] {
            for range in [
                BlockRange::new(0, 1),
                BlockRange::new(5, 30),
                BlockRange::new(90, 64),
            ] {
                let blocks: Vec<u64> = range.blocks().collect();
                let mut plan = Vec::new();
                part.plan_runs_into(kind, &[range], &mut buffers, &mut plan);
                assert_eq!(plan, part.plan_blocks(kind, &blocks), "{kind} of {range:?}");
            }
        }
    }

    #[test]
    fn a_cache_partition_appends_slot_plans_on_its_own_devices() {
        let mut p = CachePartition::new(Raid5Layout::new(4, 4, 2, 8).unwrap(), 8, 0);
        let slots: Vec<u64> = (0..5).filter_map(|_| p.allocate()).collect();
        let prefix = PartitionIo {
            disk: 3,
            range: BlockRange::new(0, 2),
            kind: IoKind::Write,
            purpose: IoPurpose::Data,
        };
        let mut plan = vec![prefix];
        p.plan_blocks_into(
            IoKind::Write,
            &slots,
            &mut PlanBuffers::default(),
            &mut plan,
        );
        assert_eq!(plan[0], prefix);
        assert_eq!(plan[1..], p.plan_blocks(IoKind::Write, &slots)[..]);
        assert!(plan[1..].iter().all(|io| (8..12).contains(&io.disk)));
    }

    #[test]
    fn an_aggregated_archive_plans_a_run_inside_its_owning_set() {
        // Sets of 4 and 3 disks; the first holds logical blocks 0..48.
        let layout = ArchiveLayout::Aggregated(Raid5PlusLayout::new(&[4, 3], 2, 16).unwrap());
        let part = Partition::new(layout, 2, 10);
        let mut buffers = PlanBuffers::default();
        let mut plan = Vec::new();
        part.plan_runs_into(
            IoKind::Write,
            &[BlockRange::new(50, 10)],
            &mut buffers,
            &mut plan,
        );
        assert!(plan.iter().any(|io| io.purpose == IoPurpose::ParityWrite));
        assert!(plan.iter().all(|io| (6..9).contains(&io.disk)));
        assert!(plan.iter().all(|io| io.range.start() >= 10));
        plan.clear();
        part.plan_runs_into(
            IoKind::Write,
            &[BlockRange::new(0, 10)],
            &mut buffers,
            &mut plan,
        );
        assert!(plan.iter().all(|io| (2..6).contains(&io.disk)));
    }

    #[test]
    fn write_plans_carry_parity_to_shifted_devices() {
        let p = pc();
        let plan = p.plan_blocks(IoKind::Write, &[0]);
        assert!(plan.iter().any(|io| io.purpose == IoPurpose::ParityWrite));
        let total_devices = p.device_count();
        assert!(plan.iter().all(|io| io.disk < total_devices));
    }

    #[test]
    fn rebuild_resets_slots_and_capacity() {
        let mut p = pc();
        for _ in 0..10 {
            p.allocate();
        }
        p.rebuild(Raid5Layout::new(8, 4, 2, 8).unwrap(), 0, 0);
        assert_eq!(p.capacity(), 8 * 6); // 6 data units per row × 4 rows × 2
        assert_eq!(p.allocated(), 0);
        assert_eq!(p.allocate(), Some(0));
    }

    #[test]
    fn rebind_keeps_slots_and_shifts_devices() {
        let mut p = pc();
        for _ in 0..5 {
            p.allocate();
        }
        p.rebind_first_device(12);
        assert_eq!(p.allocated(), 5, "the allocator survives the rebind");
        assert_eq!(p.first_device(), 12);
        let plan = p.plan_blocks(IoKind::Read, &[0]);
        assert!(plan.iter().all(|io| io.disk >= 12));
    }

    #[test]
    fn archive_layout_delegates() {
        let ideal = ArchiveLayout::Ideal(Raid5Layout::new(4, 4, 2, 8).unwrap());
        let agg = ArchiveLayout::Aggregated(Raid5PlusLayout::new(&[4, 3], 2, 8).unwrap());
        let mut peers = Vec::new();
        ideal.reconstruction_peers(1, &mut peers);
        agg.reconstruction_peers(5, &mut peers);
        assert_eq!(peers, vec![0, 2, 3, 4, 6]);
        assert_eq!(ideal.disk_count(), 4);
        assert_eq!(agg.disk_count(), 7);
        assert!(ideal.data_capacity() > 0);
        assert!(agg.parity_for(0).is_some());
        assert_eq!(ideal.stripe_unit(), 2);
        assert!(agg.blocks_per_disk() > 0);
        // Both layouts expose a positive parity-stripe width.
        assert!(ideal.data_blocks_per_parity_stripe() > 0);
        assert!(agg.data_blocks_per_parity_stripe() > 0);
        let _ = ideal.locate(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn releasing_unknown_slot_panics() {
        let mut p = pc();
        p.release(1_000);
    }
}
