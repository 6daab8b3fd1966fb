//! The I/O monitor (paper §4.1).
//!
//! The monitor watches every block access, maintains the working set through
//! a replacement policy (WLRU(0.5) by default), keeps the [`MappingCache`]
//! in sync with the policy's residency decisions, and hands the array the
//! eviction work (write-backs of dirty copies) that each admission may
//! trigger. It is also responsible for the upgrade-time invalidation of the
//! whole cache partition.

use serde::{Deserialize, Serialize};

use craid_cache::{AccessMeta, BlockMap, PolicyKind, ReplacementPolicy};
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
    /// The policy's kind and capacity, so emptying or resizing the cache
    /// can build a fresh policy.
    kind: PolicyKind,
    capacity: usize,
    policy: Box<dyn ReplacementPolicy>,
    mapping: MappingCache,
    stats: MonitorStats,
    /// Per-block access counts — the heat signal the background engine's
    /// `HotFirst` priority orders rebuilds and migrations by. Survives
    /// invalidations (it is access history, not residency). It holds every
    /// block ever accessed, so it grows with the footprint touched, not
    /// with the cache; `hottest_blocks` sorts it by heat, then by block.
    heat: BlockMap<u64>,
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
        let capacity = capacity_blocks as usize;
        IoMonitor {
            kind: policy_kind,
            capacity,
            policy: policy_kind.build(capacity),
            mapping: MappingCache::with_capacity(capacity),
            stats: MonitorStats::default(),
            heat: BlockMap::new(),
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

    /// Records one block access and returns the placement decision plus the
    /// eviction work it triggered: at most one task, as an iterator, so the
    /// caller can loop over it and no list is allocated per access.
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
    ) -> (BlockDecision, std::option::IntoIter<EvictionTask>) {
        let meta = match kind {
            IoKind::Read => AccessMeta::read(request_blocks),
            IoKind::Write => AccessMeta::write(request_blocks),
        };
        match kind {
            IoKind::Read => self.stats.read_accesses += 1,
            IoKind::Write => self.stats.write_accesses += 1,
        }
        *self.heat.get_or_insert(pa_block, 0) += 1;

        let outcome = self.policy.access(pa_block, meta);
        if outcome.is_hit() {
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
            return (BlockDecision::Cached { slot }, None.into_iter());
        }
        let (slot, eviction) = self.admit(pa_block, kind.is_write(), outcome.evicted(), pc);
        // The tracer's ambient clock was set by the replay loop for this
        // request; with no tracer installed this builds nothing.
        craid_obs::emit(|now| {
            craid_obs::TraceEvent::instant(craid_obs::SpanCategory::Cache, "admit", now)
                .arg("block", pa_block)
                .arg("write", kind.is_write())
        });
        craid_obs::counter_add("cache.admissions", 1);
        if let Some(task) = eviction {
            match kind {
                IoKind::Read => self.stats.read_evictions += 1,
                IoKind::Write => self.stats.write_evictions += 1,
            }
            self.stats.dirty_evictions += u64::from(task.dirty);
            craid_obs::emit(|now| {
                craid_obs::TraceEvent::instant(craid_obs::SpanCategory::Cache, "evict", now)
                    .arg("block", task.pa_block)
                    .arg("dirty", task.dirty)
            });
            craid_obs::counter_add("cache.evictions", 1);
        }
        (BlockDecision::Admitted { slot }, eviction.into_iter())
    }

    /// Gives `pa_block`, which the policy just admitted, a slot and a
    /// translation, after releasing the slot and translation of `evicted`,
    /// the block the policy pushed out for it, if any. Returns the slot and
    /// the victim's write-back work. Counts and traces nothing.
    fn admit(
        &mut self,
        pa_block: u64,
        dirty: bool,
        evicted: Option<u64>,
        pc: &mut CachePartition,
    ) -> (u64, Option<EvictionTask>) {
        let eviction = evicted.map(|victim| {
            let mapping = self
                .mapping
                .remove(victim)
                .expect("evicted block must have a mapping");
            pc.release(mapping.pc_block);
            EvictionTask {
                pa_block: victim,
                pc_slot: mapping.pc_block,
                dirty: mapping.dirty,
            }
        });
        let slot = pc
            .allocate()
            .expect("policy capacity equals cache-partition capacity");
        self.mapping.insert(pa_block, slot, dirty);
        (slot, eviction)
    }

    /// Invalidates the whole cache partition (the paper's upgrade step):
    /// every cached block is dropped, dirty copies are returned as write-back
    /// tasks, and all slots are released. The caller typically rebuilds the
    /// cache partition over the new device set afterwards and calls
    /// [`IoMonitor::resize`].
    pub fn invalidate_all(&mut self, pc: &mut CachePartition) -> Vec<EvictionTask> {
        self.policy = self.kind.build(self.capacity);
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
    /// slot released, the policy is rebuilt empty, and the former contents —
    /// clean *and* dirty — are returned so the caller can enqueue them as a
    /// migration task. Unlike [`IoMonitor::invalidate_all`], nothing is
    /// counted as an eviction: the blocks are being *moved*, not dropped.
    pub fn begin_migration(
        &mut self,
        pc: &mut CachePartition,
    ) -> Vec<(u64, crate::mapping::Mapping)> {
        self.policy = self.kind.build(self.capacity);
        let drained = self.mapping.drain();
        for (_, mapping) in &drained {
            pc.release(mapping.pc_block);
        }
        drained
    }

    /// Re-admits a block the background migration moved into the (rebuilt)
    /// cache partition, preserving its dirty bit. Returns the assigned slot
    /// plus the eviction work the re-admission displaced (at most one task,
    /// as in [`IoMonitor::access`]), or `None` when the block is already
    /// resident (client traffic beat the migration to it).
    ///
    /// The re-admission is silent: it counts into neither the access nor the
    /// eviction statistics — it is maintenance traffic, not client load.
    pub fn readmit(
        &mut self,
        pa_block: u64,
        dirty: bool,
        pc: &mut CachePartition,
    ) -> Option<(u64, std::option::IntoIter<EvictionTask>)> {
        if self.mapping.contains(pa_block) {
            return None;
        }
        let meta = if dirty {
            AccessMeta::write(1)
        } else {
            AccessMeta::read(1)
        };
        let outcome = self.policy.access(pa_block, meta);
        if outcome.is_hit() {
            return None; // residency and mapping are in lock-step
        }
        let (slot, eviction) = self.admit(pa_block, dirty, outcome.evicted(), pc);
        Some((slot, eviction.into_iter()))
    }

    /// Observed access count of `pa_block` (the heat signal).
    pub fn heat_of(&self, pa_block: u64) -> u64 {
        self.heat.get(pa_block).unwrap_or(0)
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
        let mut ranked = self.heat.sorted();
        ranked.sort_by_key(|&(b, h)| (std::cmp::Reverse(h), b));
        ranked.truncate(limit);
        ranked.into_iter().map(|(b, _)| b).collect()
    }

    /// Swaps the replacement policy mid-run (a scenario's `PolicySwitch`
    /// event), preserving the resident set and its dirty bits.
    ///
    /// The new policy is rebuilt by re-inserting every cached block in
    /// ascending block order (the mapping cache's walk), so the handover is
    /// deterministic; recency / frequency history beyond residency is not
    /// carried over (the new policy starts with one access per resident
    /// block).
    pub fn switch_policy(&mut self, kind: PolicyKind) {
        let mut fresh = kind.build(self.capacity);
        for (pa_block, mapping) in self.mapping.iter() {
            let dirty = mapping.dirty;
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
        self.kind = kind;
        self.policy = fresh;
    }

    /// Adjusts the policy's capacity after the cache partition was rebuilt
    /// over a different device count, by building a fresh policy of the new
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero.
    pub fn resize(&mut self, capacity_blocks: u64) {
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        debug_assert!(
            self.mapping.is_empty(),
            "resize is only called right after invalidation, when the cache is empty"
        );
        self.capacity = capacity_blocks as usize;
        self.policy = self.kind.build(self.capacity);
        self.mapping = MappingCache::with_capacity(self.capacity);
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

    /// An access's or re-admission's evictions collected into a list.
    fn collected<T>(
        (value, evictions): (T, std::option::IntoIter<EvictionTask>),
    ) -> (T, Vec<EvictionTask>) {
        (value, evictions.collect())
    }

    #[test]
    fn admission_then_hit() {
        let mut pc = pc(4); // capacity 12
        let mut m = monitor(pc.capacity());
        let (d, ev) = collected(m.access(100, IoKind::Read, 1, &mut pc));
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
    fn every_access_yields_at_most_one_eviction() {
        let mut pc = pc(1); // capacity 3
        let mut m = monitor(pc.capacity());
        let mut evictions = 0u64;
        for i in 0..200u64 {
            let kind = if i % 4 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            let (decision, evicted) = m.access(i * 7 % 11, kind, 1, &mut pc);
            assert!(evicted.len() <= 1, "access {i}");
            if decision.is_hit() {
                assert_eq!(evicted.len(), 0, "a hit evicts nothing (access {i})");
            }
            evictions += evicted.len() as u64;
        }
        let stats = m.stats();
        assert!(evictions > 0);
        assert_eq!(evictions, stats.read_evictions + stats.write_evictions);
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
        let (d, ev) = collected(m.access(4, IoKind::Read, 1, &mut pc));
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
        let (_, ev) = collected(m.access(4, IoKind::Read, 1, &mut pc));
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].dirty, "WLRU should have picked a clean victim");
        assert_eq!(m.stats().dirty_evictions, 0);
        assert!(m.mapping().contains(1), "the dirty block survived");
    }

    #[test]
    fn only_wlru_spares_the_written_lru_block() {
        // A written block at the LRU end and two clean ones: every policy
        // but WLRU evicts the written block, and the monitor charges its
        // write-back from the mapping cache's dirty bit.
        for kind in PolicyKind::paper_set() {
            let mut pc = pc(1); // capacity 3
            let mut m = IoMonitor::new(kind, pc.capacity());
            m.access(1, IoKind::Write, 1, &mut pc);
            m.access(2, IoKind::Read, 1, &mut pc);
            m.access(3, IoKind::Read, 1, &mut pc);
            let (_, ev) = collected(m.access(4, IoKind::Read, 1, &mut pc));
            let wlru = matches!(kind, PolicyKind::Wlru(_));
            let expected = if wlru { (1, 2, false) } else { (1, 1, true) };
            assert_eq!((ev.len(), ev[0].pa_block, ev[0].dirty), expected, "{kind}");
            assert_eq!(m.stats().dirty_evictions, u64::from(!wlru), "{kind}");
        }
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
    fn resize_sets_the_capacity_of_the_rebuilt_policy() {
        for kind in PolicyKind::paper_set() {
            let mut old_pc = pc(2); // capacity 6
            let mut m = IoMonitor::new(kind, old_pc.capacity());
            m.access(1, IoKind::Read, 1, &mut old_pc);
            for (slots, capacity) in [(1, 3), (4, 12)] {
                m.invalidate_all(&mut old_pc);
                let mut new_pc = pc(slots);
                assert_eq!(new_pc.capacity(), capacity);
                m.resize(capacity);
                // The first `capacity` distinct blocks fit; the next evicts.
                for b in 0..capacity {
                    let (_, ev) = collected(m.access(100 + b, IoKind::Read, 1, &mut new_pc));
                    assert!(ev.is_empty(), "{kind} evicted below capacity {capacity}");
                }
                let (_, ev) = collected(m.access(999, IoKind::Read, 1, &mut new_pc));
                assert_eq!(ev.len(), 1, "{kind} at capacity {capacity}");
                assert_eq!(m.cached_blocks() as u64, capacity, "{kind}");
                old_pc = new_pc;
            }
        }
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
    fn hottest_blocks_break_heat_ties_by_ascending_block() {
        // Scrambled accesses give 300 blocks one of three heats; within a
        // heat the blocks must come out by ascending number.
        let mut pc = pc(400); // capacity 1200, so nothing is evicted
        let mut m = monitor(pc.capacity());
        let block = |i: u64| i * 7_919 % 300 * 5_003;
        for i in 0..600u64 {
            let b = block(i % 300);
            for _ in 0..1 + b % 3 {
                m.access(b, IoKind::Read, 1, &mut pc);
            }
        }
        let mut expected: Vec<u64> = (0..300).map(block).collect();
        expected.sort_by_key(|&b| (std::cmp::Reverse(b % 3), b));
        assert_eq!(m.hottest_blocks(usize::MAX), expected);
        assert_eq!(m.hottest_blocks(5), expected[..5]);
    }

    #[test]
    fn begin_migration_returns_blocks_in_ascending_order() {
        let mut pc = pc(400); // capacity 1200
        let mut m = monitor(pc.capacity());
        let mut expected = Vec::new();
        for i in 0..1_100u64 {
            let b = i * 2_654_435_761 % 1_722_253_320;
            let kind = if i % 2 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            m.access(b, kind, 1, &mut pc);
            expected.push((b, kind.is_write()));
        }
        expected.sort_unstable();
        let drained: Vec<(u64, bool)> = m
            .begin_migration(&mut pc)
            .into_iter()
            .map(|(b, map)| (b, map.dirty))
            .collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn extreme_block_ids_are_ordinary_blocks() {
        let mut pc = pc(1); // capacity 3
        let mut m = monitor(pc.capacity());
        for block in [0, u64::MAX, 0] {
            m.access(block, IoKind::Write, 1, &mut pc);
        }
        assert_eq!((m.heat_of(0), m.heat_of(u64::MAX)), (2, 1));
        assert!(m.cached_slot(0).is_some() && m.cached_slot(u64::MAX).is_some());
        assert_eq!(m.hottest_blocks(2), vec![0, u64::MAX]);
        m.access(1, IoKind::Read, 1, &mut pc);
        // Clean block 1 ranks third, outside WLRU(0.5)'s scan window of two,
        // so the dirty LRU head, u64::MAX, is the victim.
        let (_, ev) = collected(m.access(2, IoKind::Read, 1, &mut pc));
        assert_eq!((ev[0].pa_block, ev[0].dirty), (u64::MAX, true));
        let writebacks = m.invalidate_all(&mut pc);
        assert_eq!((writebacks.len(), writebacks[0].pa_block), (1, 0));
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
        let (slot, evictions) = collected(m.readmit(pa, mapping.dirty, &mut pc).unwrap());
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
    fn readmit_eviction_carries_the_victims_dirty_bit() {
        let mut pc = pc(1); // capacity 3
        let mut m = IoMonitor::new(PolicyKind::Lru, pc.capacity());
        for (block, dirty) in [(1, true), (2, false), (3, false)] {
            let (_, ev) = collected(m.readmit(block, dirty, &mut pc).unwrap());
            assert!(ev.is_empty());
        }
        // The LRU victim's dirty bit comes from the mapping cache, and its
        // slot goes straight to the re-admitted block.
        let (slot, ev) = collected(m.readmit(4, false, &mut pc).unwrap());
        let victim = (ev.len(), ev[0].pa_block, ev[0].pc_slot, ev[0].dirty);
        assert_eq!(victim, (1, 1, slot, true));
        assert!(!m.mapping().contains(1));
        assert_eq!(*m.stats(), MonitorStats::default(), "re-admits are silent");
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
        let (_, ev) = collected(m.access(4, IoKind::Read, 1, &mut pc));
        assert_eq!((ev.len(), ev[0].pa_block, ev[0].dirty), (1, 1, true));
        // The switch outlives an invalidation: the emptied cache is still
        // LRU, so the same stream evicts dirty block 1 again.
        m.invalidate_all(&mut pc);
        let mut ev = Vec::new();
        for (block, kind) in [
            (1, IoKind::Write),
            (2, IoKind::Read),
            (3, IoKind::Read),
            (4, IoKind::Read),
        ] {
            ev.extend(m.access(block, kind, 1, &mut pc).1);
        }
        assert_eq!((ev.len(), ev[0].pa_block, ev[0].dirty), (1, 1, true));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        monitor(0);
    }

    /// Drives `stream` through `m`, returning each access's decision and
    /// evictions.
    fn replay(
        m: &mut IoMonitor,
        pc: &mut CachePartition,
        stream: impl Iterator<Item = (u64, bool)>,
    ) -> Vec<(BlockDecision, Vec<EvictionTask>)> {
        stream
            .map(|(block, write)| {
                let kind = if write { IoKind::Write } else { IoKind::Read };
                collected(m.access(block, kind, 1 + block % 4, pc))
            })
            .collect()
    }

    #[test]
    fn an_invalidated_monitor_decides_like_a_new_one() {
        // The warm-up re-references blocks around evictions, which moves
        // ARC's target and LFUDA's and GDSF's age; emptying the monitor,
        // and resizing it or not, must leave none of that behind. Each run
        // gets a fresh cache partition, as the array rebuilds its own.
        let warm = (0..600u64).map(|i| ((i * 7 + i / 5) % 29, i % 3 == 0));
        let second = || (0..400u64).map(|i| ((i * 11 + i / 7) % 31, i % 4 == 1));
        for kind in PolicyKind::paper_set() {
            for (migrate, slots) in [(false, 2), (true, 2), (false, 3), (true, 3)] {
                let mut old_pc = pc(2);
                let mut m = IoMonitor::new(kind, old_pc.capacity());
                replay(&mut m, &mut old_pc, warm.clone());
                let s = m.stats();
                assert!(s.read_evictions + s.write_evictions > 0, "{kind}");
                if migrate {
                    m.begin_migration(&mut old_pc);
                } else {
                    m.invalidate_all(&mut old_pc);
                }
                let mut pc_a = pc(slots);
                if pc_a.capacity() != old_pc.capacity() {
                    m.resize(pc_a.capacity());
                }
                let mut pc_b = pc(slots);
                let mut fresh = IoMonitor::new(kind, pc_b.capacity());
                assert_eq!(
                    replay(&mut m, &mut pc_a, second()),
                    replay(&mut fresh, &mut pc_b, second()),
                    "{kind}, migrate = {migrate}, slots = {slots}"
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Under every policy the mapping cache is the one record of
        /// dirtiness: each eviction's dirty flag, the dirty-eviction count
        /// and the residents' flags all equal a recount of which resident
        /// blocks were written.
        #[test]
        fn prop_mapping_cache_holds_every_dirty_bit(
            slots in 1u64..4,
            stream in proptest::collection::vec((0u64..24, any::<bool>()), 1..200),
        ) {
            for kind in PolicyKind::paper_set() {
                let mut pc = pc(slots);
                let mut m = IoMonitor::new(kind, pc.capacity());
                // Resident block -> written while resident.
                let mut written = std::collections::BTreeMap::new();
                let mut dirty_evictions = 0;
                for &(block, write) in &stream {
                    let io = if write { IoKind::Write } else { IoKind::Read };
                    let (decision, evictions) = m.access(block, io, 1, &mut pc);
                    prop_assert_eq!(decision.is_hit(), written.contains_key(&block));
                    for task in evictions {
                        let was_written = written.remove(&task.pa_block);
                        prop_assert_eq!(Some(task.dirty), was_written, "{}", kind);
                        dirty_evictions += u64::from(task.dirty);
                    }
                    *written.entry(block).or_insert(false) |= write;
                    prop_assert_eq!(m.stats().dirty_evictions, dirty_evictions);
                    let mapped: Vec<(u64, bool)> =
                        m.mapping().iter().map(|(pa, map)| (pa, map.dirty)).collect();
                    let recount: Vec<(u64, bool)> = written.iter().map(|(&b, &d)| (b, d)).collect();
                    prop_assert_eq!(mapped, recount, "{}", kind);
                }
            }
        }
    }
}
