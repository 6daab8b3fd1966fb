//! Adaptive Replacement Cache (ARC).
//!
//! The self-tuning policy of Megiddo & Modha that the paper reports as the
//! best pure predictor in its Tables 2 and 3 (CRAID nevertheless ships with
//! WLRU because clean-preferring evictions save parity write-backs). ARC
//! balances two resident lists — `T1` for blocks seen once recently, `T2` for
//! blocks seen at least twice — and adapts the split `p` between them by
//! watching hits in two ghost lists (`B1`, `B2`) of recently evicted blocks.

use crate::lru::LruList;
use crate::policy::{AccessMeta, AccessOutcome, ReplacementPolicy};

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
        }
    }

    /// Number of resident blocks (`|T1| + |T2|`).
    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    /// Evicts the appropriate resident block into its ghost list and returns
    /// it. `from_b2` is true when the current miss hit ghost list B2.
    fn replace(&mut self, from_b2: bool) -> Option<u64> {
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
        Some(block)
    }
}

impl ReplacementPolicy for ArcPolicy {
    fn access(&mut self, block: u64, _meta: AccessMeta) -> AccessOutcome {
        // Case I: hit in T1 or T2 → promote to MRU of T2.
        if self.t1.remove(block) || self.t2.contains(block) {
            self.t2.touch(block);
            return AccessOutcome::Hit;
        }

        // Case II: ghost hit in B1 → grow the recency target.
        if self.b1.contains(block) {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(self.capacity);
            let evicted = self.replace(false);
            self.b1.remove(block);
            self.t2.touch(block);
            return AccessOutcome::inserted(evicted);
        }

        // Case III: ghost hit in B2 → grow the frequency side.
        if self.b2.contains(block) {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            let evicted = self.replace(true);
            self.b2.remove(block);
            self.t2.touch(block);
            return AccessOutcome::inserted(evicted);
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
                evicted = self.t1.pop_lru();
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
        AccessOutcome::inserted(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const R: AccessMeta = AccessMeta::read(1);

    fn is_resident(p: &ArcPolicy, block: u64) -> bool {
        p.t1.contains(block) || p.t2.contains(block)
    }

    #[test]
    fn hit_promotes_to_frequency_list() {
        let mut p = ArcPolicy::new(4);
        assert!(!p.access(1, R).is_hit());
        assert!(p.access(1, R).is_hit());
        assert!(p.t2.contains(1) && !p.t1.contains(1));
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
        assert_eq!(out.evicted(), Some(2));
        assert_eq!(p.len(), 2);
        assert!(p.b1.len() + p.b2.len() >= 1);
        // Access the evicted block again: a ghost hit brings it back resident.
        let out = p.access(2, R);
        assert!(!out.is_hit());
        assert!(p.t2.contains(2));
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
            is_resident(&p, 1) && is_resident(&p, 2),
            "hot blocks evicted by a scan"
        );
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

    #[test]
    fn b2_ghost_hit_lowers_recency_target() {
        let mut p = ArcPolicy::new(2);
        p.access(1, R);
        p.access(1, R); // 1 moves to T2
        p.access(2, R);
        assert_eq!(p.access(3, R).evicted(), Some(2)); // T1's LRU goes to B1
                                                       // A B1 ghost hit raises the target and pushes T2's LRU into B2.
        assert_eq!(p.access(2, R).evicted(), Some(1));
        assert_eq!(p.p, 1);
        assert!(p.b2.contains(1));
        // A B2 ghost hit lowers it again and pushes T1's LRU into B1.
        assert_eq!(p.access(1, R).evicted(), Some(3));
        assert_eq!(p.p, 0);
        assert!(p.t2.contains(1) && p.t2.contains(2) && p.b1.contains(3));
    }

    #[test]
    fn full_recency_list_evicts_without_a_ghost() {
        // With T1 holding the whole capacity and B1 empty, a new block
        // evicts T1's LRU outright: no ghost remembers it, so its return is
        // a plain miss that leaves the target alone.
        let mut p = ArcPolicy::new(2);
        p.access(1, R);
        p.access(2, R);
        assert_eq!(p.access(3, R).evicted(), Some(1));
        assert_eq!(p.b1.len() + p.b2.len(), 0);
        assert_eq!(p.access(1, R).evicted(), Some(2));
        assert_eq!(p.p, 0);
        assert!(p.t1.contains(1) && !p.t2.contains(1));
    }

    proptest! {
        /// ARC's directory bounds: the recency side (`T1` and its ghosts
        /// `B1`) never outgrows the capacity, and all four lists together
        /// never hold more than twice it.
        #[test]
        fn prop_arc_directory_stays_within_twice_capacity(
            blocks in proptest::collection::vec(0u64..64, 1..400),
            cap in 1usize..16,
        ) {
            let mut p = ArcPolicy::new(cap);
            for &b in &blocks {
                p.access(b, R);
                prop_assert!(p.t1.len() + p.b1.len() <= cap);
                prop_assert!(p.len() + p.b1.len() + p.b2.len() <= 2 * cap);
                prop_assert!(p.p <= cap);
            }
        }

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
                    AccessOutcome::InsertedWithEviction(victim) => {
                        prop_assert!(resident.remove(&victim), "evicted a non-resident block");
                        resident.insert(b);
                    }
                }
                prop_assert!(p.len() <= cap);
                prop_assert!(is_resident(&p, b));
                prop_assert_eq!(p.len(), resident.len());
            }
        }
    }
}
