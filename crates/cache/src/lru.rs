//! LRU and Weighted-LRU policies, plus the recency list shared with ARC.

use crate::block_map::BlockMap;
use crate::policy::{AccessMeta, AccessOutcome, ReplacementPolicy};

/// The node index that ends a [`Chain`].
const NIL: u32 = u32::MAX;

/// A slab node's neighbours in one [`Chain`].
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

impl Link {
    const DETACHED: Link = Link {
        prev: NIL,
        next: NIL,
    };
}

/// A doubly linked list of slab nodes, oldest first. The chain holds its
/// two ends; the caller holds every node's [`Link`] in a slice indexed by
/// node.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };

    /// Links `node` in as the newest entry.
    fn push_back(&mut self, links: &mut [Link], node: u32) {
        links[node as usize] = Link {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = node,
            tail => links[tail as usize].next = node,
        }
        self.tail = node;
    }

    /// Unlinks `node`, which must be in this chain.
    fn unlink(&mut self, links: &mut [Link], node: u32) {
        let Link { prev, next } = links[node as usize];
        match prev {
            NIL => self.head = next,
            prev => links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => links[next as usize].prev = prev,
        }
    }
}

/// A recency list: a [`BlockMap`] from each block to its node in a slab,
/// and the nodes chained least recently used first, so `touch`, `pop_lru`
/// and `remove` are O(1). A freed node is the next one reused, so the slab
/// never holds more nodes than the list ever held blocks at once. Backs
/// [`LruPolicy`], the ARC lists and [`WlruPolicy`]'s recency order.
#[derive(Debug, Clone)]
pub(crate) struct LruList {
    /// block -> node
    index: BlockMap<u32>,
    /// node -> block
    blocks: Vec<u64>,
    links: Vec<Link>,
    order: Chain,
    /// Nodes released by removals, reused last-freed first.
    free: Vec<u32>,
}

impl LruList {
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty list whose table and slab hold `blocks` blocks without
    /// growing.
    pub(crate) fn with_capacity(blocks: usize) -> Self {
        LruList {
            index: BlockMap::with_capacity(blocks),
            blocks: Vec::with_capacity(blocks),
            links: Vec::with_capacity(blocks),
            order: Chain::EMPTY,
            free: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn contains(&self, block: u64) -> bool {
        self.index.contains_key(block)
    }

    /// Inserts `block` as the most recently used entry (or refreshes it).
    pub(crate) fn touch(&mut self, block: u64) {
        match self.node(block) {
            Some(node) => self.move_to_mru(node),
            None => {
                self.insert(block);
            }
        }
    }

    /// Removes and returns the least recently used block.
    pub(crate) fn pop_lru(&mut self) -> Option<u64> {
        let node = self.lru()?;
        Some(self.remove_node(node))
    }

    /// Removes a specific block; returns true if it was present.
    pub(crate) fn remove(&mut self, block: u64) -> bool {
        match self.node(block) {
            Some(node) => {
                self.remove_node(node);
                true
            }
            None => false,
        }
    }

    /// The node holding `block`.
    fn node(&self, block: u64) -> Option<u32> {
        self.index.get(block)
    }

    /// The least recently used node.
    fn lru(&self) -> Option<u32> {
        Some(self.order.head).filter(|&node| node != NIL)
    }

    /// Makes `node` the most recently used.
    fn move_to_mru(&mut self, node: u32) {
        self.order.unlink(&mut self.links, node);
        self.order.push_back(&mut self.links, node);
    }

    /// Adds `block`, which must be absent, as the most recently used entry
    /// and returns its node: the last node freed, if any.
    fn insert(&mut self, block: u64) -> u32 {
        let node = match self.free.pop() {
            Some(node) => {
                self.blocks[node as usize] = block;
                node
            }
            None => {
                let node = u32::try_from(self.blocks.len())
                    .ok()
                    .filter(|&node| node != NIL)
                    .expect("a recency list holds fewer than u32::MAX blocks");
                self.blocks.push(block);
                self.links.push(Link::DETACHED);
                node
            }
        };
        self.index.insert(block, node);
        self.order.push_back(&mut self.links, node);
        node
    }

    /// Removes `node` from the list and returns its block.
    fn remove_node(&mut self, node: u32) -> u64 {
        let block = self.blocks[node as usize];
        self.index.remove(block);
        self.order.unlink(&mut self.links, node);
        self.free.push(node);
        block
    }

    /// The listed nodes, least recently used first.
    fn nodes_lru_first(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.lru(), |&node| {
            Some(self.links[node as usize].next).filter(|&next| next != NIL)
        })
    }
}

/// Plain Least Recently Used replacement.
#[derive(Debug, Clone)]
pub struct LruPolicy {
    capacity: usize,
    list: LruList,
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
            list: LruList::with_capacity(capacity),
        }
    }
}

impl ReplacementPolicy for LruPolicy {
    fn access(&mut self, block: u64, _meta: AccessMeta) -> AccessOutcome {
        if let Some(node) = self.list.node(block) {
            self.list.move_to_mru(node);
            return AccessOutcome::Hit;
        }
        let evicted = if self.list.len() >= self.capacity {
            self.list.pop_lru()
        } else {
            None
        };
        self.list.insert(block);
        AccessOutcome::inserted(evicted)
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
    fn new(window: u32) -> Self {
        StampRanks {
            tree: vec![0; window as usize + 1],
        }
    }

    fn window(&self) -> u32 {
        (self.tree.len() - 1) as u32
    }

    fn add(&mut self, stamp: u32) {
        let mut i = stamp as usize + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    fn remove(&mut self, stamp: u32) {
        let mut i = stamp as usize + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of resident stamps strictly below `stamp` — the stamp's
    /// 0-based position from the LRU end.
    fn count_below(&self, stamp: u32) -> usize {
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
/// partitions. This implementation keeps its residents in a slab of at most
/// `k` nodes, chained twice by `u32` indices: every resident in recency
/// order (an `LruList`), and the clean ones, oldest first. A Fenwick tree
/// over recency stamps (`StampRanks`) ranks the oldest clean block, so every
/// access, eviction included, is `O(log k)` while selecting the exact victim
/// the reference scan would: the oldest clean block when its LRU rank falls
/// inside the scan window, the LRU head otherwise. The arriving block takes
/// over the victim's node.
#[derive(Debug, Clone)]
pub struct WlruPolicy {
    capacity: usize,
    w: f64,
    /// Residents in recency order; its node indices also index the three
    /// per-node vectors below.
    list: LruList,
    stamps: Vec<u32>,
    dirty: Vec<bool>,
    clean_links: Vec<Link>,
    /// Clean residents, oldest first (the eviction candidates).
    clean: Chain,
    ranks: StampRanks,
    next_stamp: u32,
}

impl WlruPolicy {
    /// Creates a WLRU policy with scan fraction `w ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `w` is outside `[0, 1]`, or if twice
    /// `capacity`, the stamp window, does not fit a `u32`.
    pub fn new(capacity: usize, w: f64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&w),
            "WLRU weight must be in [0,1], got {w}"
        );
        let window = u32::try_from(Self::stamp_window(capacity))
            .expect("the stamp window, twice the capacity, fits a u32");
        WlruPolicy {
            capacity,
            w,
            list: LruList::with_capacity(capacity),
            stamps: vec![0; capacity],
            dirty: vec![false; capacity],
            clean_links: vec![Link::DETACHED; capacity],
            clean: Chain::EMPTY,
            ranks: StampRanks::new(window),
            next_stamp: 0,
        }
    }

    /// The scan fraction.
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// Stamp window: the at most `capacity` live stamps fit with at least a
    /// same-sized headroom of fresh stamps before the next compaction, so
    /// compaction cost amortizes to O(1) per access.
    fn stamp_window(capacity: usize) -> usize {
        capacity.saturating_mul(2).max(64)
    }

    /// Renumbers all live stamps densely from 0 in LRU order (order
    /// preserved, so behaviour is unchanged) and rebuilds the rank tree.
    fn compact(&mut self) {
        self.ranks = StampRanks::new(self.ranks.window());
        for (fresh, node) in self.list.nodes_lru_first().enumerate() {
            let fresh = fresh as u32;
            self.stamps[node as usize] = fresh;
            self.ranks.add(fresh);
        }
        self.next_stamp = self.list.len() as u32;
    }

    /// Takes `node` out of the rank tree and the clean chain, returning its
    /// dirty flag.
    fn forget(&mut self, node: u32) -> bool {
        let i = node as usize;
        self.ranks.remove(self.stamps[i]);
        if !self.dirty[i] {
            self.clean.unlink(&mut self.clean_links, node);
        }
        self.dirty[i]
    }

    /// Gives `node`, just made the most recently used, the next stamp and
    /// dirty flag `dirty`.
    fn remember(&mut self, node: u32, dirty: bool) {
        let i = node as usize;
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.stamps[i] = stamp;
        self.dirty[i] = dirty;
        self.ranks.add(stamp);
        if !dirty {
            self.clean.push_back(&mut self.clean_links, node);
        }
    }

    /// The victim the reference WLRU scan would pick: the oldest clean block
    /// when its LRU rank is inside the first `⌈k·w⌉` positions, otherwise the
    /// LRU head.
    fn pick_victim(&self) -> u32 {
        let scan_limit = ((self.capacity as f64) * self.w).ceil() as usize;
        let oldest_clean = self.clean.head;
        // Every resident stamp below the oldest clean one belongs to a dirty
        // block, so `count_below` is exactly the number of dirty candidates
        // the reference scan would skip first.
        if oldest_clean != NIL
            && self.ranks.count_below(self.stamps[oldest_clean as usize]) < scan_limit
        {
            return oldest_clean;
        }
        self.list.lru().expect("cache is full, a victim must exist")
    }
}

impl ReplacementPolicy for WlruPolicy {
    fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
        // An access takes one stamp, and a compaction leaves at least
        // `capacity` free.
        if self.next_stamp >= self.ranks.window() {
            self.compact();
        }
        if let Some(node) = self.list.node(block) {
            let dirty = self.forget(node) || meta.is_write;
            self.list.move_to_mru(node);
            self.remember(node, dirty);
            return AccessOutcome::Hit;
        }
        let evicted = if self.list.len() >= self.capacity {
            let victim = self.pick_victim();
            self.forget(victim);
            Some(self.list.remove_node(victim))
        } else {
            None
        };
        let node = self.list.insert(block);
        self.remember(node, meta.is_write);
        AccessOutcome::inserted(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: AccessMeta = AccessMeta::read(1);
    const W: AccessMeta = AccessMeta::write(1);

    /// WLRU's residents with their dirty flags, least recently used first.
    fn residents(p: &WlruPolicy) -> Vec<(u64, bool)> {
        p.list
            .nodes_lru_first()
            .map(|node| (p.list.blocks[node as usize], p.dirty[node as usize]))
            .collect()
    }

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
    fn recency_list_reuses_freed_nodes() {
        let mut l = LruList::new();
        for b in 0..1_000u64 {
            l.touch(b);
            if b >= 3 {
                assert!(l.remove(b - 3));
            }
        }
        // Never more than four blocks at once, so never more than four
        // nodes, and the order survives the reuse.
        assert_eq!((l.blocks.len(), l.len()), (4, 3));
        assert_eq!([l.pop_lru(), l.pop_lru()], [Some(997), Some(998)]);
        l.touch(5);
        assert_eq!(
            [l.pop_lru(), l.pop_lru(), l.pop_lru()],
            [Some(999), Some(5), None]
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = LruPolicy::new(3);
        p.access(1, R);
        p.access(2, R);
        p.access(3, R);
        p.access(1, R); // refresh 1; 2 is now LRU
        assert_eq!(p.access(4, R).evicted(), Some(2));
        assert!(p.list.contains(1) && p.list.contains(3) && p.list.contains(4));
    }

    #[test]
    fn lru_never_exceeds_capacity() {
        let mut p = LruPolicy::new(5);
        for b in 0..100 {
            p.access(b, R);
            assert!(p.list.len() <= 5);
        }
    }

    #[test]
    fn wlru_prefers_clean_victim() {
        let mut p = WlruPolicy::new(3, 1.0);
        p.access(1, W); // dirty, LRU position
        p.access(2, R); // clean
        p.access(3, W); // dirty

        // Plain LRU would evict 1 (dirty); WLRU skips it and evicts clean 2.
        assert_eq!(p.access(4, R).evicted(), Some(2));
        assert_eq!(residents(&p), [(1, true), (3, true), (4, false)]);
    }

    #[test]
    fn wlru_write_hit_marks_block_dirty() {
        let mut p = WlruPolicy::new(2, 1.0);
        p.access(1, R);
        p.access(2, R);
        assert!(p.access(1, W).is_hit());
        assert!(p.access(2, R).is_hit());
        assert_eq!(residents(&p), [(1, true), (2, false)]);
        // Block 1 is least recently used, but the write hit made it dirty.
        assert_eq!(p.access(3, R).evicted(), Some(2));
    }

    #[test]
    fn wlru_read_hit_keeps_block_dirty() {
        let mut p = WlruPolicy::new(2, 1.0);
        p.access(1, W);
        p.access(2, R);
        assert!(p.access(1, R).is_hit());
        assert!(p.access(2, R).is_hit());
        assert_eq!(residents(&p), [(1, true), (2, false)]);
        assert_eq!(p.access(3, R).evicted(), Some(2));
    }

    #[test]
    fn wlru_falls_back_to_lru_when_all_dirty() {
        let mut p = WlruPolicy::new(3, 0.5);
        p.access(1, W);
        p.access(2, W);
        p.access(3, W);
        assert_eq!(p.access(4, R).evicted(), Some(1));
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
        assert_eq!(p.access(5, R).evicted(), Some(1));
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
        assert_eq!(p.capacity, 2);
        p.access(10, R);
        assert_eq!(residents(&p), [(10, false)]);
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
        assert_eq!(residents(&p), residents(&reference));
    }

    /// The reference WLRU victim selection from the paper: scan the recency
    /// list from the LRU end, return the first clean block among the first
    /// `⌈k·w⌉` candidates, else the LRU head. Kept as the oracle for the
    /// equivalence property below; the shipping [`WlruPolicy`] answers the
    /// same question with an order-statistic index instead of a scan.
    #[derive(Debug, Clone)]
    struct ScanWlru {
        capacity: usize,
        w: f64,
        /// Resident blocks with their dirty flags, least recently used first.
        list: Vec<(u64, bool)>,
    }

    impl ScanWlru {
        fn new(capacity: usize, w: f64) -> Self {
            ScanWlru {
                capacity,
                w,
                list: Vec::new(),
            }
        }

        /// Position of the victim in `list`.
        fn pick_victim(&self) -> usize {
            let scan_limit = ((self.capacity as f64) * self.w).ceil() as usize;
            self.list
                .iter()
                .take(scan_limit)
                .position(|&(_, dirty)| !dirty)
                .unwrap_or(0)
        }

        fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
            if let Some(at) = self.list.iter().position(|&(b, _)| b == block) {
                let (_, dirty) = self.list.remove(at);
                self.list.push((block, dirty || meta.is_write));
                return AccessOutcome::Hit;
            }
            let evicted = if self.list.len() >= self.capacity {
                Some(self.list.remove(self.pick_victim()).0)
            } else {
                None
            };
            self.list.push((block, meta.is_write));
            AccessOutcome::inserted(evicted)
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The indexed WLRU is access-for-access identical to the reference
        /// scan: same outcomes (same victims) and the same resident set, in
        /// the same recency order with the same dirty flags, after every
        /// access of a mixed read/write stream.
        #[test]
        fn prop_wlru_index_matches_reference_scan(
            cap in 1usize..12,
            wsel in 0usize..5,
            ops in proptest::collection::vec((0u64..48, any::<bool>()), 1..300),
        ) {
            let w = [0.0, 0.25, 0.5, 0.75, 1.0][wsel];
            let mut fast = WlruPolicy::new(cap, w);
            let mut oracle = ScanWlru::new(cap, w);
            for (block, write) in ops {
                let meta = if write { W } else { R };
                prop_assert_eq!(fast.access(block, meta), oracle.access(block, meta));
                prop_assert_eq!(residents(&fast), oracle.list.clone());
                prop_assert!(fast.list.blocks.len() <= cap, "the slab outgrew the capacity");
            }
        }
    }
}
