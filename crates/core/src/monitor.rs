//! The I/O monitor (paper §4.1).
//!
//! The monitor watches every block access, maintains the working set through
//! a replacement policy (WLRU(0.5) by default), keeps the [`MappingCache`]
//! in sync with the policy's residency decisions, and hands the array the
//! eviction work (write-backs of dirty copies) that each admission may
//! trigger. It is also responsible for the upgrade-time invalidation of the
//! whole cache partition.

use serde::{Deserialize, Serialize};

use craid_cache::{AccessMeta, AccessOutcome, PolicyKind, ReplacementPolicy};
use craid_diskmodel::IoKind;

use crate::mapping::MappingCache;
use crate::partition::CachePartition;

/// What the monitor decided about one block access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDecision {
    /// The block already had a cached copy at this cache-partition slot.
    Cached {
        /// Slot of the existing copy.
        slot: u64,
    },
    /// The block was just admitted and assigned this slot; the caller must
    /// copy the data into the slot (for reads) or write the new data there
    /// (for writes).
    Admitted {
        /// Slot assigned to the new copy.
        slot: u64,
    },
}

impl BlockDecision {
    /// The cache-partition slot the block lives in after this access.
    pub fn slot(self) -> u64 {
        match self {
            BlockDecision::Cached { slot } | BlockDecision::Admitted { slot } => slot,
        }
    }

    /// True if the access hit an existing cached copy.
    pub fn is_hit(self) -> bool {
        matches!(self, BlockDecision::Cached { .. })
    }
}

/// Write-back work produced by an eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionTask {
    /// Archive block whose cached copy was evicted.
    pub pa_block: u64,
    /// Cache slot that held the copy (already released).
    pub pc_slot: u64,
    /// True if the copy was modified and must be written back to the
    /// archive (costing the RAID-5 read-modify-write there).
    pub dirty: bool,
}

/// Counters the paper's evaluation reads off the monitor (Tables 2-4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Block accesses belonging to read requests.
    pub read_accesses: u64,
    /// Read block accesses that found a cached copy.
    pub read_hits: u64,
    /// Block accesses belonging to write requests.
    pub write_accesses: u64,
    /// Write block accesses that found a cached copy.
    pub write_hits: u64,
    /// Evictions triggered by read admissions.
    pub read_evictions: u64,
    /// Evictions triggered by write admissions.
    pub write_evictions: u64,
    /// Evictions whose victim was dirty (requiring archive write-back).
    pub dirty_evictions: u64,
}

impl MonitorStats {
    /// Overall hit ratio across reads and writes, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        ratio(
            self.read_hits + self.write_hits,
            self.read_accesses + self.write_accesses,
        )
    }

    /// Hit ratio of read block accesses.
    pub fn read_hit_ratio(&self) -> f64 {
        ratio(self.read_hits, self.read_accesses)
    }

    /// Hit ratio of write block accesses.
    pub fn write_hit_ratio(&self) -> f64 {
        ratio(self.write_hits, self.write_accesses)
    }

    /// Overall replacement (eviction) ratio: evictions per block access.
    pub fn replacement_ratio(&self) -> f64 {
        ratio(
            self.read_evictions + self.write_evictions,
            self.read_accesses + self.write_accesses,
        )
    }

    /// Evictions per read block access.
    pub fn read_eviction_ratio(&self) -> f64 {
        ratio(self.read_evictions, self.read_accesses)
    }

    /// Evictions per write block access.
    pub fn write_eviction_ratio(&self) -> f64 {
        ratio(self.write_evictions, self.write_accesses)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The I/O monitor: replacement policy + mapping cache + statistics.
#[derive(Debug)]
pub struct IoMonitor {
    policy: Box<dyn ReplacementPolicy>,
    mapping: MappingCache,
    stats: MonitorStats,
    /// Per-block access counts — the heat signal the background engine's
    /// `HotFirst` priority orders rebuilds and migrations by. Survives
    /// invalidations (it is access history, not residency). A BTree map so
    /// iteration (`hottest_blocks`) walks keys in a deterministic order
    /// before the heat-ranked sort applies its own tie-break.
    heat: std::collections::BTreeMap<u64, u64>,
}

impl IoMonitor {
    /// Creates a monitor using `policy_kind` with room for `capacity_blocks`
    /// cached blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero.
    pub fn new(policy_kind: PolicyKind, capacity_blocks: u64) -> Self {
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        IoMonitor {
            policy: policy_kind.build(capacity_blocks as usize),
            mapping: MappingCache::new(),
            stats: MonitorStats::default(),
            heat: std::collections::BTreeMap::new(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &MonitorStats {
        &self.stats
    }

    /// Number of blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.mapping.len()
    }

    /// Read access to the mapping cache (for the redirector).
    pub fn mapping(&self) -> &MappingCache {
        &self.mapping
    }

    /// Looks up whether `pa_block` currently has a cached copy and where.
    pub fn cached_slot(&self, pa_block: u64) -> Option<u64> {
        self.mapping.lookup(pa_block).map(|m| m.pc_block)
    }

    /// Records one block access and returns the placement decision plus any
    /// eviction work it triggered.
    ///
    /// # Panics
    ///
    /// Panics if the cache partition has fewer free slots than the policy
    /// believes (the two are kept in lock-step by construction).
    pub fn access(
        &mut self,
        pa_block: u64,
        kind: IoKind,
        request_blocks: u64,
        pc: &mut CachePartition,
    ) -> (BlockDecision, Vec<EvictionTask>) {
        let meta = match kind {
            IoKind::Read => AccessMeta::read(request_blocks),
            IoKind::Write => AccessMeta::write(request_blocks),
        };
        match kind {
            IoKind::Read => self.stats.read_accesses += 1,
            IoKind::Write => self.stats.write_accesses += 1,
        }
        *self.heat.entry(pa_block).or_insert(0) += 1;

        let outcome = self.policy.access(pa_block, meta);
        match outcome {
            AccessOutcome::Hit => {
                match kind {
                    IoKind::Read => self.stats.read_hits += 1,
                    IoKind::Write => self.stats.write_hits += 1,
                }
                if kind.is_write() {
                    self.mapping.mark_dirty(pa_block);
                }
                let slot = self
                    .mapping
                    .lookup(pa_block)
                    .expect("policy residency and mapping cache are in lock-step")
                    .pc_block;
                (BlockDecision::Cached { slot }, Vec::new())
            }
            AccessOutcome::Inserted => {
                let slot = pc
                    .allocate()
                    .expect("policy capacity equals cache-partition capacity");
                self.mapping.insert(pa_block, slot, kind.is_write());
                // The tracer's ambient clock was set by the replay loop for
                // this request; with no tracer installed this builds nothing.
                craid_obs::emit(|now| {
                    craid_obs::TraceEvent::instant(craid_obs::SpanCategory::Cache, "admit", now)
                        .arg("block", pa_block)
                        .arg("write", kind.is_write())
                });
                craid_obs::counter_add("cache.admissions", 1);
                (BlockDecision::Admitted { slot }, Vec::new())
            }
            AccessOutcome::InsertedWithEviction(evicted) => {
                match kind {
                    IoKind::Read => self.stats.read_evictions += 1,
                    IoKind::Write => self.stats.write_evictions += 1,
                }
                let victim = self
                    .mapping
                    .remove(evicted.block)
                    .expect("evicted block must have a mapping");
                pc.release(victim.pc_block);
                let dirty = victim.dirty;
                if dirty {
                    self.stats.dirty_evictions += 1;
                }
                let slot = pc.allocate().expect("the eviction just freed a slot");
                self.mapping.insert(pa_block, slot, kind.is_write());
                craid_obs::emit(|now| {
                    craid_obs::TraceEvent::instant(craid_obs::SpanCategory::Cache, "admit", now)
                        .arg("block", pa_block)
                        .arg("write", kind.is_write())
                });
                craid_obs::emit(|now| {
                    craid_obs::TraceEvent::instant(craid_obs::SpanCategory::Cache, "evict", now)
                        .arg("block", evicted.block)
                        .arg("dirty", dirty)
                });
                craid_obs::counter_add("cache.admissions", 1);
                craid_obs::counter_add("cache.evictions", 1);
                (
                    BlockDecision::Admitted { slot },
                    vec![EvictionTask {
                        pa_block: evicted.block,
                        pc_slot: victim.pc_block,
                        dirty,
                    }],
                )
            }
        }
    }

    /// Invalidates the whole cache partition (the paper's upgrade step):
    /// every cached block is dropped, dirty copies are returned as write-back
    /// tasks, and all slots are released. The caller typically rebuilds the
    /// cache partition over the new device set afterwards and calls
    /// [`IoMonitor::resize`].
    pub fn invalidate_all(&mut self, pc: &mut CachePartition) -> Vec<EvictionTask> {
        self.policy.clear();
        let mut tasks = Vec::new();
        for (pa_block, mapping) in self.mapping.drain() {
            pc.release(mapping.pc_block);
            if mapping.dirty {
                self.stats.dirty_evictions += 1;
                tasks.push(EvictionTask {
                    pa_block,
                    pc_slot: mapping.pc_block,
                    dirty: true,
                });
            }
        }
        tasks
    }

    /// Starts a paced cache-partition redistribution (the background-engine
    /// variant of the upgrade step): every translation is drained and its
    /// slot released, the policy is cleared, and the former contents —
    /// clean *and* dirty — are returned so the caller can enqueue them as a
    /// migration task. Unlike [`IoMonitor::invalidate_all`], nothing is
    /// counted as an eviction: the blocks are being *moved*, not dropped.
    pub fn begin_migration(
        &mut self,
        pc: &mut CachePartition,
    ) -> Vec<(u64, crate::mapping::Mapping)> {
        self.policy.clear();
        let drained = self.mapping.drain();
        for (_, mapping) in &drained {
            pc.release(mapping.pc_block);
        }
        drained
    }

    /// Re-admits a block the background migration moved into the (rebuilt)
    /// cache partition, preserving its dirty bit. Returns the assigned slot
    /// plus any eviction work the re-admission displaced, or `None` when the
    /// block is already resident (client traffic beat the migration to it).
    ///
    /// The re-admission is silent: it counts into neither the access nor the
    /// eviction statistics — it is maintenance traffic, not client load.
    pub fn readmit(
        &mut self,
        pa_block: u64,
        dirty: bool,
        pc: &mut CachePartition,
    ) -> Option<(u64, Vec<EvictionTask>)> {
        if self.mapping.contains(pa_block) {
            return None;
        }
        let meta = if dirty {
            AccessMeta::write(1)
        } else {
            AccessMeta::read(1)
        };
        match self.policy.access(pa_block, meta) {
            AccessOutcome::Hit => None, // residency and mapping are in lock-step
            AccessOutcome::Inserted => {
                let slot = pc
                    .allocate()
                    .expect("policy capacity equals cache-partition capacity");
                self.mapping.insert(pa_block, slot, dirty);
                Some((slot, Vec::new()))
            }
            AccessOutcome::InsertedWithEviction(evicted) => {
                let victim = self
                    .mapping
                    .remove(evicted.block)
                    .expect("evicted block must have a mapping");
                pc.release(victim.pc_block);
                let slot = pc.allocate().expect("the eviction just freed a slot");
                self.mapping.insert(pa_block, slot, dirty);
                Some((
                    slot,
                    vec![EvictionTask {
                        pa_block: evicted.block,
                        pc_slot: victim.pc_block,
                        dirty: victim.dirty,
                    }],
                ))
            }
        }
    }

    /// Observed access count of `pa_block` (the heat signal).
    pub fn heat_of(&self, pa_block: u64) -> u64 {
        self.heat.get(&pa_block).copied().unwrap_or(0)
    }

    /// Sorts `blocks` hottest-first (ties broken by ascending block number,
    /// so the order is deterministic).
    pub fn rank_hot_desc(&self, blocks: &mut [u64]) {
        blocks.sort_by_key(|&b| (std::cmp::Reverse(self.heat_of(b)), b));
    }

    /// Up to `limit` of the hottest blocks ever observed, hottest first
    /// (deterministic tie-break by block number). The background engine uses
    /// this to put a rebuild's hot stripes at the front of the stream.
    pub fn hottest_blocks(&self, limit: usize) -> Vec<u64> {
        let mut ranked: Vec<(u64, u64)> = self.heat.iter().map(|(&b, &h)| (b, h)).collect();
        ranked.sort_by_key(|&(b, h)| (std::cmp::Reverse(h), b));
        ranked.truncate(limit);
        ranked.into_iter().map(|(b, _)| b).collect()
    }

    /// Swaps the replacement policy mid-run (a scenario's `PolicySwitch`
    /// event), preserving the resident set and its dirty bits.
    ///
    /// The new policy is rebuilt by re-inserting every cached block in
    /// ascending block order, so the handover is deterministic; recency /
    /// frequency history beyond residency is not carried over (the new
    /// policy starts with one access per resident block).
    pub fn switch_policy(&mut self, kind: PolicyKind) {
        let mut resident: Vec<(u64, bool)> =
            self.mapping.iter().map(|(pa, m)| (pa, m.dirty)).collect();
        resident.sort_unstable();
        let mut fresh = kind.build(self.policy.capacity());
        for (pa_block, dirty) in resident {
            let meta = if dirty {
                AccessMeta::write(1)
            } else {
                AccessMeta::read(1)
            };
            let outcome = fresh.access(pa_block, meta);
            debug_assert!(
                !outcome.is_replacement(),
                "rebuilding at equal capacity cannot evict"
            );
        }
        self.policy = fresh;
    }

    /// Adjusts the policy's capacity after the cache partition was rebuilt
    /// over a different device count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero.
    pub fn resize(&mut self, capacity_blocks: u64) {
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        let evicted = self.policy.resize(capacity_blocks as usize);
        debug_assert!(
            evicted.is_empty(),
            "resize is only called right after invalidation, when the policy is empty"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_raid::Raid5Layout;

    fn pc(slots_per_disk: u64) -> CachePartition {
        CachePartition::new(Raid5Layout::new(4, 4, 1, slots_per_disk).unwrap(), 0, 0)
    }

    fn monitor(capacity: u64) -> IoMonitor {
        IoMonitor::new(PolicyKind::Wlru(0.5), capacity)
    }

    #[test]
    fn admission_then_hit() {
        let mut pc = pc(4); // capacity 12
        let mut m = monitor(pc.capacity());
        let (d, ev) = m.access(100, IoKind::Read, 1, &mut pc);
        assert!(matches!(d, BlockDecision::Admitted { .. }));
        assert!(ev.is_empty());
        let (d2, _) = m.access(100, IoKind::Read, 1, &mut pc);
        assert!(d2.is_hit());
        assert_eq!(d2.slot(), d.slot());
        assert_eq!(m.stats().read_hits, 1);
        assert_eq!(m.stats().read_accesses, 2);
        assert_eq!(m.cached_blocks(), 1);
        assert_eq!(m.cached_slot(100), Some(d.slot()));
        assert_eq!(m.cached_slot(999), None);
    }

    #[test]
    fn write_hit_marks_mapping_dirty() {
        let mut pc = pc(4);
        let mut m = monitor(pc.capacity());
        m.access(5, IoKind::Read, 1, &mut pc);
        assert!(!m.mapping().lookup(5).unwrap().dirty);
        m.access(5, IoKind::Write, 1, &mut pc);
        assert!(m.mapping().lookup(5).unwrap().dirty);
        assert_eq!(m.stats().write_hits, 1);
    }

    #[test]
    fn eviction_releases_and_reuses_slot() {
        let mut pc = pc(1); // capacity 3
        let mut m = monitor(pc.capacity());
        m.access(1, IoKind::Write, 1, &mut pc);
        m.access(2, IoKind::Read, 1, &mut pc);
        m.access(3, IoKind::Read, 1, &mut pc);
        assert_eq!(pc.free_slots(), 0);
        // Fourth distinct block must evict one of the first three.
        let (d, ev) = m.access(4, IoKind::Read, 1, &mut pc);
        assert!(matches!(d, BlockDecision::Admitted { .. }));
        assert_eq!(ev.len(), 1);
        assert_eq!(
            ev[0].pc_slot,
            d.slot(),
            "the freed slot is reused immediately"
        );
        assert_eq!(m.cached_blocks(), 3);
        assert_eq!(pc.free_slots(), 0);
        assert_eq!(m.stats().read_evictions, 1);
    }

    #[test]
    fn wlru_prefers_clean_victims_reducing_dirty_evictions() {
        // One dirty and two clean blocks: WLRU must evict a clean one.
        let mut pc = pc(1);
        let mut m = monitor(pc.capacity());
        m.access(1, IoKind::Write, 1, &mut pc); // dirty, LRU position
        m.access(2, IoKind::Read, 1, &mut pc);
        m.access(3, IoKind::Read, 1, &mut pc);
        let (_, ev) = m.access(4, IoKind::Read, 1, &mut pc);
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].dirty, "WLRU should have picked a clean victim");
        assert_eq!(m.stats().dirty_evictions, 0);
        assert!(m.mapping().contains(1), "the dirty block survived");
    }

    #[test]
    fn invalidate_all_returns_only_dirty_writebacks() {
        let mut pc = pc(2); // capacity 6
        let mut m = monitor(pc.capacity());
        m.access(1, IoKind::Write, 1, &mut pc);
        m.access(2, IoKind::Read, 1, &mut pc);
        m.access(3, IoKind::Write, 1, &mut pc);
        let tasks = m.invalidate_all(&mut pc);
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|t| t.dirty));
        assert_eq!(m.cached_blocks(), 0);
        assert_eq!(pc.free_slots(), pc.capacity());
        // The monitor can be resized and keeps working afterwards.
        m.resize(pc.capacity() * 2);
        let (d, _) = m.access(9, IoKind::Read, 1, &mut pc);
        assert!(matches!(d, BlockDecision::Admitted { .. }));
    }

    #[test]
    fn stats_ratios() {
        let mut pc = pc(1);
        let mut m = monitor(pc.capacity());
        for b in 0..3 {
            m.access(b, IoKind::Read, 1, &mut pc);
        }
        for b in 0..3 {
            m.access(b, IoKind::Write, 1, &mut pc);
        }
        let s = m.stats();
        assert_eq!(s.read_hit_ratio(), 0.0);
        assert_eq!(s.write_hit_ratio(), 1.0);
        assert_eq!(s.hit_ratio(), 0.5);
        assert_eq!(s.replacement_ratio(), 0.0);
        // Overflow the cache from a write: eviction attributed to writes.
        m.access(100, IoKind::Write, 1, &mut pc);
        assert!(m.stats().write_eviction_ratio() > 0.0);
        assert_eq!(m.stats().read_eviction_ratio(), 0.0);
    }

    #[test]
    fn heat_ranks_blocks_by_access_count() {
        let mut pc = pc(4);
        let mut m = monitor(pc.capacity());
        for _ in 0..3 {
            m.access(5, IoKind::Read, 1, &mut pc);
        }
        m.access(9, IoKind::Write, 1, &mut pc);
        m.access(9, IoKind::Read, 1, &mut pc);
        m.access(1, IoKind::Read, 1, &mut pc);
        assert_eq!(m.heat_of(5), 3);
        assert_eq!(m.heat_of(9), 2);
        assert_eq!(m.heat_of(42), 0);
        let mut blocks = vec![1, 5, 9, 42];
        m.rank_hot_desc(&mut blocks);
        assert_eq!(blocks, vec![5, 9, 1, 42]);
        assert_eq!(m.hottest_blocks(2), vec![5, 9]);
    }

    #[test]
    fn begin_migration_drains_everything_without_counting_evictions() {
        let mut pc = pc(2);
        let mut m = monitor(pc.capacity());
        m.access(1, IoKind::Write, 1, &mut pc);
        m.access(2, IoKind::Read, 1, &mut pc);
        let drained = m.begin_migration(&mut pc);
        assert_eq!(drained.len(), 2, "clean and dirty entries are returned");
        assert!(drained.iter().any(|(b, map)| *b == 1 && map.dirty));
        assert!(drained.iter().any(|(b, map)| *b == 2 && !map.dirty));
        assert_eq!(m.cached_blocks(), 0);
        assert_eq!(pc.free_slots(), pc.capacity());
        assert_eq!(m.stats().dirty_evictions, 0, "moves are not evictions");
        // Heat history survives the migration.
        assert_eq!(m.heat_of(1), 1);
    }

    #[test]
    fn readmit_restores_residency_silently_and_preserves_dirty() {
        let mut pc = pc(2);
        let mut m = monitor(pc.capacity());
        m.access(1, IoKind::Write, 1, &mut pc);
        let drained = m.begin_migration(&mut pc);
        let accesses_before = m.stats().read_accesses + m.stats().write_accesses;
        let (pa, mapping) = drained[0];
        let (slot, evictions) = m.readmit(pa, mapping.dirty, &mut pc).unwrap();
        assert!(evictions.is_empty());
        assert!(m.mapping().lookup(pa).unwrap().dirty);
        assert_eq!(m.mapping().lookup(pa).unwrap().pc_block, slot);
        assert_eq!(
            m.stats().read_accesses + m.stats().write_accesses,
            accesses_before,
            "re-admission does not count as client traffic"
        );
        // A second readmit is a no-op: the block is already home.
        assert!(m.readmit(pa, mapping.dirty, &mut pc).is_none());
    }

    #[test]
    fn switch_policy_keeps_residents_and_dirty_bits() {
        // The WLRU case above spares dirty block 1; after a switch to LRU,
        // rebuilt in ascending block order, block 1 is the victim.
        let mut pc = pc(1);
        let mut m = monitor(pc.capacity());
        m.access(1, IoKind::Write, 1, &mut pc);
        m.access(2, IoKind::Read, 1, &mut pc);
        m.access(3, IoKind::Read, 1, &mut pc);
        m.switch_policy(PolicyKind::Lru);
        assert_eq!(m.cached_blocks(), 3);
        assert!(m.mapping().lookup(1).unwrap().dirty);
        let (_, ev) = m.access(4, IoKind::Read, 1, &mut pc);
        assert_eq!((ev.len(), ev[0].pa_block, ev[0].dirty), (1, 1, true));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        monitor(0);
    }
}
