//! Adaptive Replacement Cache (ARC).
//!
//! The self-tuning policy of Megiddo & Modha that the paper reports as the
//! best pure predictor in its Tables 2 and 3 (CRAID nevertheless ships with
//! WLRU because clean-preferring evictions save parity write-backs). ARC
//! balances two resident lists — `T1` for blocks seen once recently, `T2` for
//! blocks seen at least twice — and adapts the split `p` between them by
//! watching hits in two ghost lists (`B1`, `B2`) of recently evicted blocks.

use std::collections::HashMap;

use crate::lru::LruList;
use crate::policy::{AccessMeta, AccessOutcome, Evicted, ReplacementPolicy};

/// The ARC replacement policy.
#[derive(Debug, Clone)]
pub struct ArcPolicy {
    capacity: usize,
    /// Target size for T1 (the adaptation parameter `p`).
    p: usize,
    t1: LruList,
    t2: LruList,
    b1: LruList,
    b2: LruList,
    dirty: HashMap<u64, bool>,
}

impl ArcPolicy {
    /// Creates an ARC policy holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ArcPolicy {
            capacity,
            p: 0,
            t1: LruList::new(),
            t2: LruList::new(),
            b1: LruList::new(),
            b2: LruList::new(),
            dirty: HashMap::new(),
        }
    }

    /// Evicts the appropriate resident block into its ghost list and returns
    /// it. `from_b2` is true when the current miss hit ghost list B2.
    fn replace(&mut self, from_b2: bool) -> Option<Evicted> {
        let take_from_t1 =
            self.t1.len() >= 1 && ((from_b2 && self.t1.len() == self.p) || self.t1.len() > self.p);
        let (block, ghost) = if take_from_t1 {
            (self.t1.pop_lru()?, &mut self.b1)
        } else {
            match self.t2.pop_lru() {
                Some(b) => (b, &mut self.b2),
                None => (self.t1.pop_lru()?, &mut self.b1),
            }
        };
        ghost.touch(block);
        let dirty = self.dirty.remove(&block).unwrap_or(false);
        Some(Evicted { block, dirty })
    }

    fn record_dirty(&mut self, block: u64, is_write: bool) {
        let entry = self.dirty.entry(block).or_insert(false);
        if is_write {
            *entry = true;
        }
    }
}

impl ReplacementPolicy for ArcPolicy {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    fn contains(&self, block: u64) -> bool {
        self.t1.contains(block) || self.t2.contains(block)
    }

    fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
        // Case I: hit in T1 or T2 → promote to MRU of T2.
        if self.t1.contains(block) {
            self.t1.remove(block);
            self.t2.touch(block);
            self.record_dirty(block, meta.is_write);
            return AccessOutcome::Hit;
        }
        if self.t2.contains(block) {
            self.t2.touch(block);
            self.record_dirty(block, meta.is_write);
            return AccessOutcome::Hit;
        }

        // Case II: ghost hit in B1 → grow the recency target.
        if self.b1.contains(block) {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(self.capacity);
            let evicted = self.replace(false);
            self.b1.remove(block);
            self.t2.touch(block);
            self.dirty.insert(block, meta.is_write);
            return match evicted {
                Some(e) => AccessOutcome::InsertedWithEviction(e),
                None => AccessOutcome::Inserted,
            };
        }

        // Case III: ghost hit in B2 → grow the frequency side.
        if self.b2.contains(block) {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            let evicted = self.replace(true);
            self.b2.remove(block);
            self.t2.touch(block);
            self.dirty.insert(block, meta.is_write);
            return match evicted {
                Some(e) => AccessOutcome::InsertedWithEviction(e),
                None => AccessOutcome::Inserted,
            };
        }

        // Case IV: a completely new block.
        let mut evicted = None;
        let l1 = self.t1.len() + self.b1.len();
        if l1 == self.capacity {
            if self.t1.len() < self.capacity {
                self.b1.pop_lru();
                evicted = self.replace(false);
            } else {
                // B1 is empty and T1 is full: evict the LRU of T1 outright.
                if let Some(victim) = self.t1.pop_lru() {
                    let dirty = self.dirty.remove(&victim).unwrap_or(false);
                    evicted = Some(Evicted {
                        block: victim,
                        dirty,
                    });
                }
            }
        } else {
            let total = l1 + self.t2.len() + self.b2.len();
            if total >= self.capacity {
                if total == 2 * self.capacity {
                    self.b2.pop_lru();
                }
                if self.len() >= self.capacity {
                    evicted = self.replace(false);
                }
            }
        }
        self.t1.touch(block);
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
        self.contains(block) && self.dirty.get(&block).copied().unwrap_or(false)
    }

    fn remove(&mut self, block: u64) -> Option<Evicted> {
        if self.t1.remove(block) || self.t2.remove(block) {
            let dirty = self.dirty.remove(&block).unwrap_or(false);
            Some(Evicted { block, dirty })
        } else {
            self.b1.remove(block);
            self.b2.remove(block);
            None
        }
    }

    fn clear(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for block in self.t1.clear().into_iter().chain(self.t2.clear()) {
            out.push(Evicted {
                block,
                dirty: self.dirty.remove(&block).unwrap_or(false),
            });
        }
        self.b1.clear();
        self.b2.clear();
        self.dirty.clear();
        self.p = 0;
        out
    }

    fn resize(&mut self, capacity: usize) -> Vec<Evicted> {
        assert!(capacity > 0, "cache capacity must be positive");
        self.capacity = capacity;
        self.p = self.p.min(capacity);
        let mut out = Vec::new();
        while self.len() > capacity {
            if let Some(e) = self.replace(false) {
                out.push(e);
            } else {
                break;
            }
        }
        out
    }

    fn resident_blocks(&self) -> Vec<u64> {
        self.t1
            .iter_lru_first()
            .chain(self.t2.iter_lru_first())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const R: AccessMeta = AccessMeta::read(1);
    const W: AccessMeta = AccessMeta::write(1);

    #[test]
    fn hit_promotes_to_frequency_list() {
        let mut p = ArcPolicy::new(4);
        assert!(!p.access(1, R).is_hit());
        assert!(p.access(1, R).is_hit());
        assert!(p.contains(1));
        // Still a hit on the third access (now in T2).
        assert!(p.access(1, R).is_hit());
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut p = ArcPolicy::new(8);
        for b in 0..1_000u64 {
            p.access(b % 50, R);
            assert!(p.len() <= 8, "resident count {} exceeds capacity", p.len());
        }
    }

    #[test]
    fn ghost_hit_reinserts_block() {
        let mut p = ArcPolicy::new(2);
        p.access(1, R);
        p.access(2, R);
        p.access(1, R); // promote 1 to the frequency list
        let out = p.access(3, R); // evicts the T1 LRU (block 2) into ghost list B1
        assert_eq!(
            out.evicted(),
            Some(Evicted {
                block: 2,
                dirty: false
            })
        );
        assert_eq!(p.len(), 2);
        assert!(p.b1.len() + p.b2.len() >= 1);
        // Access the evicted block again: a ghost hit brings it back resident.
        let out = p.access(2, R);
        assert!(!out.is_hit());
        assert!(p.contains(2));
    }

    #[test]
    fn scan_resistance_keeps_frequent_blocks() {
        // A frequently reused block should survive a long one-shot scan —
        // the property that distinguishes ARC from plain LRU.
        let mut p = ArcPolicy::new(8);
        for _ in 0..20 {
            p.access(1, R);
            p.access(2, R);
        }
        for b in 100..140u64 {
            p.access(b, R);
            // Keep touching the hot pair occasionally.
            if b % 4 == 0 {
                p.access(1, R);
                p.access(2, R);
            }
        }
        assert!(
            p.contains(1) && p.contains(2),
            "hot blocks evicted by a scan"
        );
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut p = ArcPolicy::new(2);
        p.access(1, W);
        p.access(2, R);
        let out = p.access(3, R);
        let e = out.evicted().expect("cache was full");
        if e.block == 1 {
            assert!(e.dirty);
        } else {
            assert!(!e.dirty);
        }
    }

    #[test]
    fn mark_clean_and_is_dirty() {
        let mut p = ArcPolicy::new(4);
        p.access(9, W);
        assert!(p.is_dirty(9));
        p.mark_clean(9);
        assert!(!p.is_dirty(9));
        assert!(!p.is_dirty(12345), "non-resident blocks are never dirty");
    }

    #[test]
    fn clear_returns_residents_and_resets_adaptation() {
        let mut p = ArcPolicy::new(3);
        p.access(1, W);
        p.access(2, R);
        p.access(2, R);
        let drained = p.clear();
        assert_eq!(drained.len(), 2);
        assert_eq!(p.len(), 0);
        assert_eq!(p.b1.len() + p.b2.len(), 0);
        assert_eq!(p.p, 0);
    }

    #[test]
    fn resize_shrinks_residency() {
        let mut p = ArcPolicy::new(6);
        for b in 0..6u64 {
            p.access(b, R);
        }
        let evicted = p.resize(2);
        assert_eq!(p.capacity(), 2);
        assert!(p.len() <= 2);
        assert_eq!(evicted.len(), 4);
    }

    #[test]
    fn remove_specific_block() {
        let mut p = ArcPolicy::new(4);
        p.access(5, W);
        assert_eq!(
            p.remove(5),
            Some(Evicted {
                block: 5,
                dirty: true
            })
        );
        assert_eq!(p.remove(5), None);
    }

    #[test]
    fn adaptation_target_moves_with_workload() {
        let mut p = ArcPolicy::new(4);
        // Promote two blocks to the frequency list, then let two one-timers
        // spill into the ghost list and re-reference one of them: the B1
        // ghost hit must grow the recency target.
        p.access(1, R);
        p.access(2, R);
        p.access(1, R);
        p.access(2, R);
        p.access(3, R);
        p.access(4, R);
        assert_eq!(p.p, 0);
        p.access(5, R); // evicts the T1 LRU (3) into B1
        assert!(p.b1.len() + p.b2.len() >= 1);
        p.access(3, R); // ghost hit in B1
        assert!(p.p > 0, "B1 ghost hit must raise the recency target");
    }

    proptest! {
        /// Under any access pattern ARC never exceeds its capacity, never
        /// loses track of residency, and evicts at most one block per access.
        #[test]
        fn prop_arc_invariants(blocks in proptest::collection::vec(0u64..64, 1..400), cap in 1usize..16) {
            let mut p = ArcPolicy::new(cap);
            let mut resident = std::collections::HashSet::new();
            for &b in &blocks {
                let out = p.access(b, R);
                match out {
                    AccessOutcome::Hit => {
                        prop_assert!(resident.contains(&b));
                    }
                    AccessOutcome::Inserted => {
                        resident.insert(b);
                    }
                    AccessOutcome::InsertedWithEviction(e) => {
                        prop_assert!(resident.remove(&e.block), "evicted a non-resident block");
                        resident.insert(b);
                    }
                }
                prop_assert!(p.len() <= cap);
                prop_assert!(p.contains(b));
                prop_assert_eq!(p.len(), resident.len());
            }
        }
    }
}
