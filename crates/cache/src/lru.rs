//! LRU and Weighted-LRU policies, plus the recency list shared with ARC.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::policy::{AccessMeta, AccessOutcome, Evicted, ReplacementPolicy};

/// An ordered recency list: O(log n) touch/insert/evict with strict LRU
/// ordering. Shared by [`LruPolicy`], [`WlruPolicy`] and the ARC lists.
#[derive(Debug, Clone, Default)]
pub(crate) struct LruList {
    /// block -> recency stamp
    stamps: HashMap<u64, u64>,
    /// recency stamp -> block (ascending = least recently used first)
    order: BTreeMap<u64, u64>,
    next_stamp: u64,
}

impl LruList {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.stamps.len()
    }

    pub(crate) fn contains(&self, block: u64) -> bool {
        self.stamps.contains_key(&block)
    }

    /// Inserts `block` as the most recently used entry (or refreshes it).
    pub(crate) fn touch(&mut self, block: u64) {
        if let Some(old) = self.stamps.remove(&block) {
            self.order.remove(&old);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.stamps.insert(block, stamp);
        self.order.insert(stamp, block);
    }

    /// Removes and returns the least recently used block.
    pub(crate) fn pop_lru(&mut self) -> Option<u64> {
        let (&stamp, &block) = self.order.iter().next()?;
        self.order.remove(&stamp);
        self.stamps.remove(&block);
        Some(block)
    }

    /// Removes a specific block; returns true if it was present.
    pub(crate) fn remove(&mut self, block: u64) -> bool {
        if let Some(stamp) = self.stamps.remove(&block) {
            self.order.remove(&stamp);
            true
        } else {
            false
        }
    }

    /// Blocks in least-recently-used-first order.
    pub(crate) fn iter_lru_first(&self) -> impl Iterator<Item = u64> + '_ {
        self.order.values().copied()
    }

    pub(crate) fn clear(&mut self) -> Vec<u64> {
        let blocks: Vec<u64> = self.order.values().copied().collect();
        self.order.clear();
        self.stamps.clear();
        blocks
    }
}

/// Plain Least Recently Used replacement.
#[derive(Debug, Clone)]
pub struct LruPolicy {
    capacity: usize,
    list: LruList,
    dirty: HashMap<u64, bool>,
}

impl LruPolicy {
    /// Creates an LRU policy holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruPolicy {
            capacity,
            list: LruList::new(),
            dirty: HashMap::new(),
        }
    }

    fn evict_one(&mut self) -> Option<Evicted> {
        let victim = self.list.pop_lru()?;
        let dirty = self.dirty.remove(&victim).unwrap_or(false);
        Some(Evicted {
            block: victim,
            dirty,
        })
    }
}

impl ReplacementPolicy for LruPolicy {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn contains(&self, block: u64) -> bool {
        self.list.contains(block)
    }

    fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
        if self.list.contains(block) {
            self.list.touch(block);
            if meta.is_write {
                self.dirty.insert(block, true);
            }
            return AccessOutcome::Hit;
        }
        let evicted = if self.list.len() >= self.capacity {
            self.evict_one()
        } else {
            None
        };
        self.list.touch(block);
        self.dirty.insert(block, meta.is_write);
        match evicted {
            Some(e) => AccessOutcome::InsertedWithEviction(e),
            None => AccessOutcome::Inserted,
        }
    }

    fn mark_clean(&mut self, block: u64) {
        if let Some(d) = self.dirty.get_mut(&block) {
            *d = false;
        }
    }

    fn is_dirty(&self, block: u64) -> bool {
        self.dirty.get(&block).copied().unwrap_or(false)
    }

    fn remove(&mut self, block: u64) -> Option<Evicted> {
        if self.list.remove(block) {
            let dirty = self.dirty.remove(&block).unwrap_or(false);
            Some(Evicted { block, dirty })
        } else {
            None
        }
    }

    fn clear(&mut self) -> Vec<Evicted> {
        let blocks = self.list.clear();
        blocks
            .into_iter()
            .map(|block| Evicted {
                block,
                dirty: self.dirty.remove(&block).unwrap_or(false),
            })
            .collect()
    }

    fn resize(&mut self, capacity: usize) -> Vec<Evicted> {
        assert!(capacity > 0, "cache capacity must be positive");
        self.capacity = capacity;
        let mut out = Vec::new();
        while self.list.len() > self.capacity {
            if let Some(e) = self.evict_one() {
                out.push(e);
            }
        }
        out
    }

    fn resident_blocks(&self) -> Vec<u64> {
        self.list.iter_lru_first().collect()
    }
}

/// A Fenwick (binary-indexed) tree counting resident recency stamps, so the
/// LRU rank of a stamp — "how many resident blocks are older?" — is an
/// O(log n) prefix sum instead of an O(n) list walk.
///
/// Stamps index the tree directly, so the stamp space must stay inside the
/// window the tree was built for; [`WlruPolicy`] renumbers all live stamps
/// (compaction) whenever `next_stamp` would leave the window.
#[derive(Debug, Clone, Default)]
struct StampRanks {
    /// 1-based Fenwick array; `tree.len() - 1` is the stamp window.
    tree: Vec<u32>,
}

impl StampRanks {
    fn new(window: usize) -> Self {
        StampRanks {
            tree: vec![0; window + 1],
        }
    }

    fn window(&self) -> u64 {
        (self.tree.len() - 1) as u64
    }

    fn add(&mut self, stamp: u64) {
        let mut i = stamp as usize + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    fn remove(&mut self, stamp: u64) {
        let mut i = stamp as usize + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of resident stamps strictly below `stamp` — the stamp's
    /// 0-based position from the LRU end.
    fn count_below(&self, stamp: u64) -> usize {
        let mut i = stamp as usize;
        let mut sum = 0u32;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum as usize
    }
}

/// Weighted LRU (the paper's WLRUw, §4.1): prefer evicting a *clean* block,
/// considering at most the `⌈k·w⌉` least-recently-used candidates; fall back
/// to the plain LRU victim if every candidate in that window is dirty.
///
/// With `w = 0` it degenerates to plain LRU; with `w = 1` the whole cache is
/// eligible. The reference algorithm scans the recency list from the LRU end,
/// an `O(k·w)` walk per eviction that dominated replay time on large cache
/// partitions. This implementation keeps the clean residents in a stamp-
/// ordered set and ranks the oldest one with a Fenwick tree (`StampRanks`), so every access
/// — eviction included — is `O(log k)` while selecting the exact victim the
/// reference scan would: the oldest clean block when its LRU rank falls
/// inside the scan window, the LRU head otherwise.
#[derive(Debug, Clone)]
pub struct WlruPolicy {
    capacity: usize,
    w: f64,
    /// block -> (recency stamp, dirty flag)
    entries: HashMap<u64, (u64, bool)>,
    /// stamp -> block, ascending = least recently used first
    order: BTreeMap<u64, u64>,
    /// Stamps of clean resident blocks (the eviction candidates).
    clean: BTreeSet<u64>,
    ranks: StampRanks,
    next_stamp: u64,
}

impl WlruPolicy {
    /// Creates a WLRU policy with scan fraction `w ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `w` is outside `[0, 1]`.
    pub fn new(capacity: usize, w: f64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&w),
            "WLRU weight must be in [0,1], got {w}"
        );
        WlruPolicy {
            capacity,
            w,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            clean: BTreeSet::new(),
            ranks: StampRanks::new(Self::stamp_window(capacity, 0)),
            next_stamp: 0,
        }
    }

    /// The scan fraction.
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// Stamp window: live stamps fit with at least a same-sized headroom of
    /// fresh stamps before the next compaction, so compaction cost amortizes
    /// to O(1) per access.
    fn stamp_window(capacity: usize, len: usize) -> usize {
        (2 * capacity).max(2 * len).max(64)
    }

    /// Renumbers all live stamps densely from 0 in LRU order (order
    /// preserved, so behaviour is unchanged) and rebuilds the rank tree.
    fn compact(&mut self) {
        let window = Self::stamp_window(self.capacity, self.order.len());
        let mut order = BTreeMap::new();
        let mut clean = BTreeSet::new();
        let mut ranks = StampRanks::new(window);
        for (fresh, (_, &block)) in self.order.iter().enumerate() {
            let fresh = fresh as u64;
            let entry = self
                .entries
                .get_mut(&block)
                .expect("ordered blocks are resident");
            entry.0 = fresh;
            if !entry.1 {
                clean.insert(fresh);
            }
            order.insert(fresh, block);
            ranks.add(fresh);
        }
        self.next_stamp = order.len() as u64;
        self.order = order;
        self.clean = clean;
        self.ranks = ranks;
    }

    fn alloc_stamp(&mut self) -> u64 {
        if self.next_stamp >= self.ranks.window() {
            self.compact();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    /// Inserts `block` as the most recently used entry with dirty flag
    /// `dirty` (the block must not be resident).
    fn insert_mru(&mut self, block: u64, dirty: bool) {
        let stamp = self.alloc_stamp();
        self.entries.insert(block, (stamp, dirty));
        self.order.insert(stamp, block);
        self.ranks.add(stamp);
        if !dirty {
            self.clean.insert(stamp);
        }
    }

    /// Drops a resident block from every index, returning its dirty flag.
    fn detach(&mut self, block: u64) -> Option<bool> {
        let (stamp, dirty) = self.entries.remove(&block)?;
        self.order.remove(&stamp);
        self.ranks.remove(stamp);
        if !dirty {
            self.clean.remove(&stamp);
        }
        Some(dirty)
    }

    /// The victim the reference WLRU scan would pick: the oldest clean block
    /// when its LRU rank is inside the first `⌈k·w⌉` positions, otherwise the
    /// LRU head.
    fn pick_victim(&self) -> Option<u64> {
        let scan_limit = ((self.capacity as f64) * self.w).ceil() as usize;
        if let Some(&oldest_clean) = self.clean.iter().next() {
            // Every resident stamp below the oldest clean one belongs to a
            // dirty block, so `count_below` is exactly the number of dirty
            // candidates the reference scan would skip first.
            if self.ranks.count_below(oldest_clean) < scan_limit {
                return self.order.get(&oldest_clean).copied();
            }
        }
        self.order.values().next().copied()
    }
}

impl ReplacementPolicy for WlruPolicy {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn contains(&self, block: u64) -> bool {
        self.entries.contains_key(&block)
    }

    fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
        if let Some(&(_, dirty)) = self.entries.get(&block) {
            let dirty = dirty || meta.is_write;
            self.detach(block);
            self.insert_mru(block, dirty);
            return AccessOutcome::Hit;
        }
        let evicted = if self.entries.len() >= self.capacity {
            let victim = self
                .pick_victim()
                .expect("cache is full, a victim must exist");
            let dirty = self.detach(victim).expect("the victim is resident");
            Some(Evicted {
                block: victim,
                dirty,
            })
        } else {
            None
        };
        self.insert_mru(block, meta.is_write);
        match evicted {
            Some(e) => AccessOutcome::InsertedWithEviction(e),
            None => AccessOutcome::Inserted,
        }
    }

    fn mark_clean(&mut self, block: u64) {
        if let Some((stamp, dirty)) = self.entries.get_mut(&block) {
            if *dirty {
                *dirty = false;
                self.clean.insert(*stamp);
            }
        }
    }

    fn is_dirty(&self, block: u64) -> bool {
        self.entries
            .get(&block)
            .map(|&(_, dirty)| dirty)
            .unwrap_or(false)
    }

    fn remove(&mut self, block: u64) -> Option<Evicted> {
        let dirty = self.detach(block)?;
        Some(Evicted { block, dirty })
    }

    fn clear(&mut self) -> Vec<Evicted> {
        let blocks: Vec<u64> = self.order.values().copied().collect();
        blocks
            .into_iter()
            .map(|block| {
                let dirty = self.detach(block).expect("ordered blocks are resident");
                Evicted { block, dirty }
            })
            .collect()
    }

    fn resize(&mut self, capacity: usize) -> Vec<Evicted> {
        assert!(capacity > 0, "cache capacity must be positive");
        self.capacity = capacity;
        // Like the plain LRU resize: surplus entries leave in strict LRU
        // order (no clean-first preference when the shrink itself evicts).
        let mut out = Vec::new();
        while self.entries.len() > self.capacity {
            let victim = *self
                .order
                .values()
                .next()
                .expect("non-empty: len exceeds a positive capacity");
            let dirty = self.detach(victim).expect("the LRU head is resident");
            out.push(Evicted {
                block: victim,
                dirty,
            });
        }
        out
    }

    fn resident_blocks(&self) -> Vec<u64> {
        self.order.values().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: AccessMeta = AccessMeta::read(1);
    const W: AccessMeta = AccessMeta::write(1);

    #[test]
    fn recency_list_pops_least_recent_first() {
        let mut l = LruList::new();
        for b in [1, 2, 3] {
            l.touch(b);
        }
        l.touch(1); // 2 is now the least recent
        assert!(l.remove(3) && !l.remove(3));
        let popped = [l.pop_lru(), l.pop_lru(), l.pop_lru()];
        assert_eq!((popped, l.len()), ([Some(2), Some(1), None], 0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = LruPolicy::new(3);
        p.access(1, R);
        p.access(2, R);
        p.access(3, R);
        p.access(1, R); // refresh 1; 2 is now LRU
        let out = p.access(4, R);
        assert_eq!(
            out.evicted(),
            Some(Evicted {
                block: 2,
                dirty: false
            })
        );
        assert!(p.contains(1) && p.contains(3) && p.contains(4));
    }

    #[test]
    fn lru_tracks_dirtiness() {
        let mut p = LruPolicy::new(2);
        p.access(1, W);
        p.access(2, R);
        assert!(p.is_dirty(1));
        assert!(!p.is_dirty(2));
        let out = p.access(3, R);
        assert_eq!(
            out.evicted(),
            Some(Evicted {
                block: 1,
                dirty: true
            })
        );
    }

    #[test]
    fn lru_mark_clean_clears_dirty_bit() {
        let mut p = LruPolicy::new(2);
        p.access(1, W);
        p.mark_clean(1);
        assert!(!p.is_dirty(1));
        p.access(2, R);
        let out = p.access(3, R);
        assert_eq!(
            out.evicted(),
            Some(Evicted {
                block: 1,
                dirty: false
            })
        );
    }

    #[test]
    fn lru_hit_on_write_marks_dirty() {
        let mut p = LruPolicy::new(2);
        p.access(1, R);
        assert!(!p.is_dirty(1));
        assert!(p.access(1, W).is_hit());
        assert!(p.is_dirty(1));
    }

    #[test]
    fn lru_resize_evicts_surplus() {
        let mut p = LruPolicy::new(4);
        for b in 1..=4 {
            p.access(b, R);
        }
        let evicted = p.resize(2);
        assert_eq!(evicted.len(), 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.capacity(), 2);
        // The survivors are the most recently used (3 and 4).
        assert!(p.contains(3) && p.contains(4));
    }

    #[test]
    fn lru_clear_returns_all_entries() {
        let mut p = LruPolicy::new(3);
        p.access(1, W);
        p.access(2, R);
        let drained = p.clear();
        assert_eq!(drained.len(), 2);
        assert!(p.is_empty());
        assert!(drained.iter().any(|e| e.block == 1 && e.dirty));
        assert!(drained.iter().any(|e| e.block == 2 && !e.dirty));
    }

    #[test]
    fn lru_remove_specific_block() {
        let mut p = LruPolicy::new(3);
        p.access(1, W);
        assert_eq!(
            p.remove(1),
            Some(Evicted {
                block: 1,
                dirty: true
            })
        );
        assert_eq!(p.remove(1), None);
        assert!(!p.contains(1));
    }

    #[test]
    fn lru_never_exceeds_capacity() {
        let mut p = LruPolicy::new(5);
        for b in 0..100 {
            p.access(b, R);
            assert!(p.len() <= 5);
        }
    }

    #[test]
    fn wlru_prefers_clean_victim() {
        let mut p = WlruPolicy::new(3, 1.0);
        p.access(1, W); // dirty, LRU position
        p.access(2, R); // clean
        p.access(3, W); // dirty
        let out = p.access(4, R);
        // Plain LRU would evict 1 (dirty); WLRU skips it and evicts clean 2.
        assert_eq!(
            out.evicted(),
            Some(Evicted {
                block: 2,
                dirty: false
            })
        );
        assert!(p.contains(1) && p.contains(3) && p.contains(4));
    }

    #[test]
    fn wlru_falls_back_to_lru_when_all_dirty() {
        let mut p = WlruPolicy::new(3, 0.5);
        p.access(1, W);
        p.access(2, W);
        p.access(3, W);
        let out = p.access(4, R);
        assert_eq!(
            out.evicted(),
            Some(Evicted {
                block: 1,
                dirty: true
            })
        );
    }

    #[test]
    fn wlru_scan_limit_is_respected() {
        // With w such that only 1 candidate is scanned, a clean block further
        // up the list is NOT considered.
        let mut p = WlruPolicy::new(4, 0.25); // scan limit = ceil(4*0.25) = 1
        p.access(1, W); // LRU, dirty — the only scanned candidate
        p.access(2, R); // clean but outside the scan window
        p.access(3, R);
        p.access(4, R);
        let out = p.access(5, R);
        assert_eq!(
            out.evicted(),
            Some(Evicted {
                block: 1,
                dirty: true
            })
        );
    }

    #[test]
    fn wlru_zero_weight_is_plain_lru() {
        let mut wlru = WlruPolicy::new(3, 0.0);
        let mut lru = LruPolicy::new(3);
        for &(b, m) in &[(1, W), (2, R), (3, W), (4, R), (2, R), (5, W)] {
            let a = wlru.access(b, m);
            let b2 = lru.access(b, m);
            assert_eq!(a, b2);
        }
    }

    #[test]
    fn wlru_behaves_like_set_for_membership() {
        let mut p = WlruPolicy::new(2, 0.5);
        assert_eq!(p.capacity(), 2);
        p.access(10, R);
        assert!(p.contains(10));
        assert!(!p.contains(11));
        assert_eq!(p.resident_blocks().len(), 1);
        assert_eq!(p.weight(), 0.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn wlru_rejects_bad_weight() {
        WlruPolicy::new(2, 1.5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn lru_rejects_zero_capacity() {
        LruPolicy::new(0);
    }

    #[test]
    fn wlru_stamp_compaction_preserves_order() {
        // Small capacity → small stamp window, so a long access run forces
        // many compactions; the recency order must survive each one.
        let mut p = WlruPolicy::new(4, 0.5);
        for i in 0..10_000u64 {
            p.access(i % 7, if i % 3 == 0 { W } else { R });
        }
        let mut reference = WlruPolicy::new(4, 0.5);
        // Replaying into a fresh policy must land in the same state: the
        // windows differ but the observable order and dirt must match.
        for i in 0..10_000u64 {
            reference.access(i % 7, if i % 3 == 0 { W } else { R });
        }
        assert_eq!(p.resident_blocks(), reference.resident_blocks());
    }

    /// The reference WLRU victim selection from the paper: scan the recency
    /// list from the LRU end, return the first clean block among the first
    /// `⌈k·w⌉` candidates, else the LRU head. Kept as the oracle for the
    /// equivalence property below; the shipping [`WlruPolicy`] answers the
    /// same question with an order-statistic index instead of a scan.
    #[derive(Debug, Clone)]
    struct ScanWlru {
        inner: LruPolicy,
        w: f64,
    }

    impl ScanWlru {
        fn new(capacity: usize, w: f64) -> Self {
            ScanWlru {
                inner: LruPolicy::new(capacity),
                w,
            }
        }

        fn pick_victim(&self) -> Option<u64> {
            let scan_limit = ((self.inner.capacity() as f64) * self.w).ceil() as usize;
            let mut fallback = None;
            for (i, block) in self.inner.list.iter_lru_first().enumerate() {
                if fallback.is_none() {
                    fallback = Some(block);
                }
                if i >= scan_limit {
                    break;
                }
                if !self.inner.is_dirty(block) {
                    return Some(block);
                }
            }
            fallback
        }

        fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
            if self.inner.contains(block) {
                return self.inner.access(block, meta);
            }
            let evicted = if self.inner.len() >= self.inner.capacity() {
                let victim = self.pick_victim().expect("full cache has a victim");
                self.inner.remove(victim)
            } else {
                None
            };
            let inserted = self.inner.access(block, meta);
            assert!(!inserted.is_replacement());
            match evicted {
                Some(e) => AccessOutcome::InsertedWithEviction(e),
                None => AccessOutcome::Inserted,
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The indexed WLRU is operation-for-operation identical to the
        /// reference scan: same outcomes (same victims, same dirty flags)
        /// and the same resident set in the same recency order, across
        /// mixed accesses, writeback completions, removals, and resizes.
        /// Each raw tuple decodes to one operation: `kind` selects access
        /// (weighted heaviest), mark-clean, remove, or resize.
        #[test]
        fn prop_wlru_index_matches_reference_scan(
            cap in 1usize..12,
            wsel in 0usize..5,
            ops in proptest::collection::vec(
                (0u8..12, 0u64..48, any::<bool>(), 1usize..12),
                1..300,
            ),
        ) {
            let w = [0.0, 0.25, 0.5, 0.75, 1.0][wsel];
            let mut fast = WlruPolicy::new(cap, w);
            let mut oracle = ScanWlru::new(cap, w);
            for (kind, block, write, new_cap) in ops {
                match kind {
                    0..=7 => {
                        let meta = if write { W } else { R };
                        prop_assert_eq!(fast.access(block, meta), oracle.access(block, meta));
                    }
                    8 | 9 => {
                        fast.mark_clean(block);
                        oracle.inner.mark_clean(block);
                    }
                    10 => {
                        prop_assert_eq!(fast.remove(block), oracle.inner.remove(block));
                    }
                    _ => {
                        prop_assert_eq!(fast.resize(new_cap), oracle.inner.resize(new_cap));
                    }
                }
                prop_assert_eq!(fast.resident_blocks(), oracle.inner.resident_blocks());
                for b in fast.resident_blocks() {
                    prop_assert_eq!(fast.is_dirty(b), oracle.inner.is_dirty(b));
                }
            }
        }
    }
}
