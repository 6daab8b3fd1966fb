//! LRU and Weighted-LRU policies, plus the recency list shared with ARC.

use crate::block_map::BlockMap;
use crate::policy::{AccessMeta, AccessOutcome, ReplacementPolicy};

/// The node index that ends the recency chain.
const NIL: u32 = u32::MAX;

/// A slab node's neighbours in the recency chain.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
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
    /// Least recently used node, [`NIL`] while the list is empty.
    head: u32,
    /// Most recently used node, [`NIL`] while the list is empty.
    tail: u32,
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
            head: NIL,
            tail: NIL,
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
        Some(self.head).filter(|&node| node != NIL)
    }

    /// Makes `node` the most recently used.
    fn move_to_mru(&mut self, node: u32) {
        self.unlink(node);
        self.link_mru(node);
    }

    /// Links `node` in as the most recently used.
    fn link_mru(&mut self, node: u32) {
        self.links[node as usize] = Link {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = node,
            tail => self.links[tail as usize].next = node,
        }
        self.tail = node;
    }

    /// Unlinks `node`, which must be listed.
    fn unlink(&mut self, node: u32) {
        let Link { prev, next } = self.links[node as usize];
        match prev {
            NIL => self.head = next,
            prev => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.links[next as usize].prev = prev,
        }
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
                self.links.push(Link {
                    prev: NIL,
                    next: NIL,
                });
                node
            }
        };
        self.index.insert(block, node);
        self.link_mru(node);
        node
    }

    /// Removes `node` from the list and returns its block.
    fn remove_node(&mut self, node: u32) -> u64 {
        let block = self.blocks[node as usize];
        self.index.remove(block);
        self.unlink(node);
        self.free.push(node);
        block
    }

    /// The node after `node` toward the most recently used end, [`NIL`]
    /// after the last.
    fn next(&self, node: u32) -> u32 {
        self.links[node as usize].next
    }

    /// The listed nodes, least recently used first.
    #[cfg(test)]
    fn nodes_lru_first(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.lru(), |&node| {
            Some(self.next(node)).filter(|&next| next != NIL)
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

/// Weighted LRU (the paper's WLRUw, §4.1): prefer evicting a *clean* block,
/// considering at most the `⌈k·w⌉` least-recently-used candidates; fall back
/// to the plain LRU victim if every candidate in that window is dirty.
///
/// With `w = 0` it degenerates to plain LRU; with `w = 1` the whole cache is
/// eligible. The reference algorithm scans the recency list from the LRU end,
/// an `O(k·w)` walk per eviction that dominated replay time on large cache
/// partitions. This implementation keeps its residents in a slab of at most
/// `k` nodes chained in recency order (an `LruList`), knows the oldest clean
/// resident, and counts the residents older than it, with a flag on each
/// (on every resident while none is clean). Those are exactly the dirty
/// candidates the reference scan skips first, so the victim is
/// the oldest clean resident while the count is below `⌈k·w⌉`, else the LRU
/// head, as the scan would pick. A resident stays dirty until it leaves, so
/// the oldest clean resident only ever moves toward the MRU end: when it
/// leaves its place, a walk from its recency successor to the next clean
/// resident (or the MRU end) flags what it passes. A flag lasts until its
/// node moves, so each node is walked at most once per access that moved
/// it, and every access is amortized `O(1)`. The arriving block takes over
/// the victim's node.
#[derive(Debug, Clone)]
pub struct WlruPolicy {
    capacity: usize,
    w: f64,
    /// `⌈k·w⌉`: how many residents the reference scan considers.
    scan_limit: usize,
    /// Residents in recency order; its node indices also index `marks`.
    list: LruList,
    marks: Vec<Mark>,
    /// The oldest clean resident's node, [`NIL`] while none is clean.
    oldest_clean: u32,
    /// Residents flagged [`Mark::Older`].
    older: usize,
    /// Nodes the walks have passed, for the amortization test.
    #[cfg(test)]
    walked: usize,
}

/// A WLRU resident's dirt, and whether it is older than the oldest clean
/// resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Clean,
    /// Dirty, and more recently used than the oldest clean resident.
    Dirty,
    /// Dirty, and older than the oldest clean resident (or no resident is
    /// clean).
    Older,
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
            scan_limit: ((capacity as f64) * w).ceil() as usize,
            list: LruList::with_capacity(capacity),
            marks: vec![Mark::Clean; capacity],
            oldest_clean: NIL,
            older: 0,
            #[cfg(test)]
            walked: 0,
        }
    }

    /// The scan fraction.
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// Walks from `node` toward the MRU end, flagging every dirty resident
    /// it passes, and makes the first clean one the oldest clean resident
    /// ([`NIL`] if it reaches the end).
    fn advance_oldest_clean(&mut self, mut node: u32) {
        while node != NIL && self.marks[node as usize] != Mark::Clean {
            self.marks[node as usize] = Mark::Older;
            self.older += 1;
            #[cfg(test)]
            {
                self.walked += 1;
            }
            node = self.list.next(node);
        }
        self.oldest_clean = node;
    }

    /// The victim the reference WLRU scan would pick: the oldest clean block
    /// when fewer than `⌈k·w⌉` residents are older, otherwise the LRU head.
    fn pick_victim(&self) -> u32 {
        if self.oldest_clean != NIL && self.older < self.scan_limit {
            return self.oldest_clean;
        }
        self.list.lru().expect("cache is full, a victim must exist")
    }
}

impl ReplacementPolicy for WlruPolicy {
    fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
        if let Some(node) = self.list.node(block) {
            let next = self.list.next(node);
            self.list.move_to_mru(node);
            let mark = &mut self.marks[node as usize];
            match *mark {
                // Now more recently used than the oldest clean resident, if
                // there is one.
                Mark::Older if self.oldest_clean != NIL => {
                    *mark = Mark::Dirty;
                    self.older -= 1;
                }
                Mark::Older | Mark::Dirty => {}
                Mark::Clean => {
                    if meta.is_write {
                        *mark = Mark::Dirty;
                    }
                    if node == self.oldest_clean {
                        // The walk ends at this node, now the MRU one, if no
                        // other clean resident comes first.
                        self.advance_oldest_clean(if next == NIL { node } else { next });
                    }
                }
            }
            return AccessOutcome::Hit;
        }
        let evicted = if self.list.len() >= self.capacity {
            let victim = self.pick_victim();
            let next = self.list.next(victim);
            let block = self.list.remove_node(victim);
            if victim == self.oldest_clean {
                self.advance_oldest_clean(next);
            } else {
                // The LRU head, older than the oldest clean resident.
                debug_assert_eq!(self.marks[victim as usize], Mark::Older);
                self.older -= 1;
            }
            Some(block)
        } else {
            None
        };
        let node = self.list.insert(block);
        self.marks[node as usize] = match (meta.is_write, self.oldest_clean) {
            (false, NIL) => {
                self.oldest_clean = node;
                Mark::Clean
            }
            (false, _) => Mark::Clean,
            (true, NIL) => {
                self.older += 1;
                Mark::Older
            }
            (true, _) => Mark::Dirty,
        };
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
            .map(|node| {
                let dirty = p.marks[node as usize] != Mark::Clean;
                (p.list.blocks[node as usize], dirty)
            })
            .collect()
    }

    /// Recounts WLRU's bookkeeping along the recency list: the residents
    /// before the first clean one, and only they, are flagged older, their
    /// number is the count kept, and the first clean one is the oldest clean
    /// resident kept.
    fn assert_older_recounts(p: &WlruPolicy) {
        let nodes: Vec<u32> = p.list.nodes_lru_first().collect();
        let first_clean = nodes
            .iter()
            .position(|&node| p.marks[node as usize] == Mark::Clean);
        let older = first_clean.unwrap_or(nodes.len());
        for (at, &node) in nodes.iter().enumerate() {
            let flagged = p.marks[node as usize] == Mark::Older;
            assert_eq!(flagged, at < older, "resident #{at} of {}", nodes.len());
        }
        assert_eq!(p.older, older, "the count of older residents");
        assert_eq!(p.oldest_clean, first_clean.map_or(NIL, |at| nodes[at]));
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
    fn wlru_long_mixed_run_matches_the_reference_scan() {
        // Seven blocks cycle through four slots, every third access a
        // write, so dirty runs form, are walked and leave again for 10,000
        // accesses.
        let mut p = WlruPolicy::new(4, 0.5);
        let mut reference = ScanWlru::new(4, 0.5);
        for i in 0..10_000u64 {
            let meta = if i % 3 == 0 { W } else { R };
            assert_eq!(
                p.access(i % 7, meta),
                reference.access(i % 7, meta),
                "access {i}"
            );
        }
        assert_eq!(residents(&p), reference.list);
        assert_older_recounts(&p);
    }

    #[test]
    fn wlru_walks_each_node_once_per_move() {
        // Half the accesses hit the oldest clean resident, by a write (it
        // turns dirty, and the walk passes the dirty run behind it) or a
        // read; the rest add a written or a read block, so dirty runs keep
        // forming between the clean residents. Rescanning from the LRU head
        // on every access would pass about 63 nodes each time, over 1.2
        // million in all; the walks pass about 5,000.
        let capacity = 64;
        let mut p = WlruPolicy::new(capacity, 1.0);
        let mut reference = ScanWlru::new(capacity, 1.0);
        let mut fresh = 0u64..;
        let accesses = 20_000;
        for i in 0..accesses {
            let block = match (i % 4, p.oldest_clean) {
                (0 | 1, _) | (_, NIL) => fresh.next().expect("an unbounded range"),
                (_, node) => p.list.blocks[node as usize],
            };
            let meta = if i % 2 == 0 { W } else { R };
            assert_eq!(
                p.access(block, meta),
                reference.access(block, meta),
                "access {i}"
            );
        }
        assert_older_recounts(&p);
        assert!(
            p.walked <= accesses + capacity,
            "{} nodes walked in {accesses} accesses",
            p.walked
        );
        assert!(p.walked >= accesses / 8, "the stream walks dirty runs");
    }

    /// The reference WLRU victim selection from the paper: scan the recency
    /// list from the LRU end, return the first clean block among the first
    /// `⌈k·w⌉` candidates, else the LRU head. Kept as the oracle for the
    /// equivalence tests; the shipping [`WlruPolicy`] answers the same
    /// question from its count of residents older than the oldest clean one.
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
        /// WLRU is access-for-access identical to the reference scan: same
        /// outcomes (same victims) and the same resident set, in the same
        /// recency order with the same dirty flags, after every access of a
        /// mixed read/write stream; and its count of older residents always
        /// recounts.
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
                assert_older_recounts(&fast);
                prop_assert!(fast.list.blocks.len() <= cap, "the slab outgrew the capacity");
            }
        }

        /// The same agreement at capacities up to 64 and weights whose scan
        /// window falls between slots, on streams of up to 600 accesses
        /// over a pool of blocks sized against the capacity: every outcome,
        /// the recount after every access and the final resident order.
        #[test]
        fn prop_wlru_matches_reference_scan_up_to_64_blocks(
            cap in 1usize..65,
            wsel in 0usize..7,
            pool in 1u64..160,
            ops in proptest::collection::vec((0u64..1_000, any::<bool>()), 1..601),
        ) {
            let w = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0][wsel];
            let mut fast = WlruPolicy::new(cap, w);
            let mut oracle = ScanWlru::new(cap, w);
            for (raw, write) in ops {
                let block = raw % pool;
                let meta = if write { W } else { R };
                prop_assert_eq!(fast.access(block, meta), oracle.access(block, meta));
                assert_older_recounts(&fast);
            }
            prop_assert_eq!(residents(&fast), oracle.list);
        }
    }
}
