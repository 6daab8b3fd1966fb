//! Key-ordered policies: LFUDA and GDSF.
//!
//! Both policies assign every resident block a priority key and evict the
//! block with the smallest key; both add the running *age factor* `L`
//! (initialised to 0 and bumped to the victim's key on every eviction) so
//! that long-resident but once-popular blocks eventually age out:
//!
//! * LFUDA: `K_i = C_i · F_i + L`
//! * GDSF:  `K_i = C_i · F_i / S_i + L`
//!
//! with `C_i` the retrieval cost (1 for every block in a RAID array — all
//! blocks cost the same to fetch), `F_i` the access count while resident and
//! `S_i` the size of the original client request the block arrived with.
//! The `S_i` term is what makes GDSF perform poorly in the paper's Table 2:
//! penalising blocks of large requests has no useful meaning at the block
//! level of a RAID controller.

use std::collections::{BTreeMap, BTreeSet};

use crate::policy::{AccessMeta, AccessOutcome, Evicted, ReplacementPolicy};

/// Key formula selector for the shared implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyFormula {
    Lfuda,
    Gdsf,
}

/// A totally ordered f64 wrapper so keys can live in a `BTreeSet`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    frequency: u64,
    /// Size (blocks) of the request that brought the block in.
    size: u64,
    key: f64,
    dirty: bool,
}

/// Shared implementation of the two key-ordered policies.
#[derive(Debug, Clone)]
struct KeyedPolicy {
    formula: KeyFormula,
    capacity: usize,
    /// Resident entries in block order — a BTree map so `clear` and
    /// `resident_blocks` walk blocks deterministically.
    entries: BTreeMap<u64, Entry>,
    /// (key, block) ordered ascending; the smallest key is the next victim.
    order: BTreeSet<(OrdF64, u64)>,
    /// Running age factor `L`.
    age: f64,
    /// Retrieval cost `C_i`; constant 1.0 for block storage.
    cost: f64,
}

impl KeyedPolicy {
    fn new(formula: KeyFormula, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        KeyedPolicy {
            formula,
            capacity,
            entries: BTreeMap::new(),
            order: BTreeSet::new(),
            age: 0.0,
            cost: 1.0,
        }
    }

    fn key_for(&self, frequency: u64, size: u64) -> f64 {
        let freq_term = self.cost * frequency as f64;
        match self.formula {
            KeyFormula::Lfuda => freq_term + self.age,
            KeyFormula::Gdsf => freq_term / size.max(1) as f64 + self.age,
        }
    }

    fn reindex(&mut self, block: u64, old_key: f64, new_key: f64) {
        self.order.remove(&(OrdF64(old_key), block));
        self.order.insert((OrdF64(new_key), block));
    }

    fn evict_smallest(&mut self) -> Option<Evicted> {
        let &(OrdF64(key), block) = self.order.iter().next()?;
        self.order.remove(&(OrdF64(key), block));
        let entry = self
            .entries
            .remove(&block)
            .expect("order and entries are in sync");
        // Dynamic aging: L becomes the evicted key.
        self.age = key;
        Some(Evicted {
            block,
            dirty: entry.dirty,
        })
    }

    fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
        if let Some(entry) = self.entries.get_mut(&block) {
            entry.frequency += 1;
            if meta.is_write {
                entry.dirty = true;
            }
            let old_key = entry.key;
            let (frequency, size) = (entry.frequency, entry.size);
            let new_key = self.key_for(frequency, size);
            let entry = self.entries.get_mut(&block).expect("just checked");
            entry.key = new_key;
            self.reindex(block, old_key, new_key);
            return AccessOutcome::Hit;
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.evict_smallest()
        } else {
            None
        };
        let key = self.key_for(1, meta.request_blocks);
        self.entries.insert(
            block,
            Entry {
                frequency: 1,
                size: meta.request_blocks,
                key,
                dirty: meta.is_write,
            },
        );
        self.order.insert((OrdF64(key), block));
        match evicted {
            Some(e) => AccessOutcome::InsertedWithEviction(e),
            None => AccessOutcome::Inserted,
        }
    }

    fn remove(&mut self, block: u64) -> Option<Evicted> {
        let entry = self.entries.remove(&block)?;
        self.order.remove(&(OrdF64(entry.key), block));
        Some(Evicted {
            block,
            dirty: entry.dirty,
        })
    }

    fn clear(&mut self) -> Vec<Evicted> {
        let out: Vec<Evicted> = self
            .entries
            .iter()
            .map(|(&block, e)| Evicted {
                block,
                dirty: e.dirty,
            })
            .collect();
        self.entries.clear();
        self.order.clear();
        self.age = 0.0;
        out
    }

    fn resize(&mut self, capacity: usize) -> Vec<Evicted> {
        assert!(capacity > 0, "cache capacity must be positive");
        self.capacity = capacity;
        let mut out = Vec::new();
        while self.entries.len() > self.capacity {
            if let Some(e) = self.evict_smallest() {
                out.push(e);
            }
        }
        out
    }
}

macro_rules! keyed_policy_type {
    ($(#[$doc:meta])* $name:ident, $formula:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            inner: KeyedPolicy,
        }

        impl $name {
            /// Creates the policy holding at most `capacity` blocks.
            ///
            /// # Panics
            ///
            /// Panics if `capacity` is zero.
            pub fn new(capacity: usize) -> Self {
                $name {
                    inner: KeyedPolicy::new($formula, capacity),
                }
            }
        }

        impl ReplacementPolicy for $name {
            fn capacity(&self) -> usize {
                self.inner.capacity
            }

            fn len(&self) -> usize {
                self.inner.entries.len()
            }

            fn contains(&self, block: u64) -> bool {
                self.inner.entries.contains_key(&block)
            }

            fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
                self.inner.access(block, meta)
            }

            fn mark_clean(&mut self, block: u64) {
                if let Some(e) = self.inner.entries.get_mut(&block) {
                    e.dirty = false;
                }
            }

            fn is_dirty(&self, block: u64) -> bool {
                self.inner.entries.get(&block).map(|e| e.dirty).unwrap_or(false)
            }

            fn remove(&mut self, block: u64) -> Option<Evicted> {
                self.inner.remove(block)
            }

            fn clear(&mut self) -> Vec<Evicted> {
                self.inner.clear()
            }

            fn resize(&mut self, capacity: usize) -> Vec<Evicted> {
                self.inner.resize(capacity)
            }

            fn resident_blocks(&self) -> Vec<u64> {
                self.inner.entries.keys().copied().collect()
            }
        }
    };
}

keyed_policy_type!(
    /// Least Frequently Used with Dynamic Aging: evicts the block with the
    /// smallest `C_i·F_i + L`.
    LfudaPolicy,
    KeyFormula::Lfuda
);

keyed_policy_type!(
    /// Greedy-Dual-Size with Frequency: evicts the block with the smallest
    /// `C_i·F_i / S_i + L`, where `S_i` is the size of the request the block
    /// arrived with.
    GdsfPolicy,
    KeyFormula::Gdsf
);

#[cfg(test)]
mod tests {
    use super::*;

    const R: AccessMeta = AccessMeta::read(1);
    const W: AccessMeta = AccessMeta::write(1);

    #[test]
    fn lfuda_keeps_frequent_blocks() {
        let mut p = LfudaPolicy::new(3);
        p.access(1, R);
        p.access(1, R);
        p.access(1, R);
        p.access(2, R);
        p.access(3, R);
        // Block 2 and 3 have frequency 1; inserting 4 evicts one of them, not 1.
        let e = p.access(4, R).evicted().unwrap();
        assert_ne!(e.block, 1);
        assert!(p.contains(1));
    }

    #[test]
    fn lfuda_dynamic_aging_lets_new_blocks_displace_stale_popular_ones() {
        let mut p = LfudaPolicy::new(2);
        // Block 1 becomes very popular, then goes cold.
        for _ in 0..50 {
            p.access(1, R);
        }
        p.access(2, R);
        assert!(p.inner.age == 0.0);
        // A stream of new blocks keeps evicting; each eviction raises L, so
        // eventually a newcomer's key (1 + L) exceeds block 1's stale key (50).
        let mut evicted_one = false;
        for b in 3..200 {
            if let Some(e) = p.access(b, R).evicted() {
                if e.block == 1 {
                    evicted_one = true;
                    break;
                }
            }
        }
        assert!(
            evicted_one,
            "dynamic aging must eventually evict the stale popular block"
        );
        assert!(p.inner.age > 0.0);
    }

    #[test]
    fn gdsf_penalises_blocks_of_large_requests() {
        let mut p = GdsfPolicy::new(2);
        p.access(1, AccessMeta::read(64)); // key = 1/64
        p.access(2, AccessMeta::read(1)); // key = 1
        let e = p.access(3, AccessMeta::read(1)).evicted().unwrap();
        assert_eq!(e.block, 1, "the large-request block has the smallest key");
    }

    #[test]
    fn gdsf_and_lfuda_differ_only_by_size_term() {
        // With all request sizes equal to 1 the two policies make identical
        // decisions on the same access stream.
        let mut lfuda = LfudaPolicy::new(3);
        let mut gdsf = GdsfPolicy::new(3);
        let stream = [1u64, 2, 3, 1, 4, 2, 5, 1, 6, 7, 2, 8];
        for &b in &stream {
            let a = lfuda.access(b, R);
            let c = gdsf.access(b, R);
            assert_eq!(a.is_hit(), c.is_hit());
        }
        let mut l: Vec<u64> = lfuda.resident_blocks();
        let mut g: Vec<u64> = gdsf.resident_blocks();
        l.sort_unstable();
        g.sort_unstable();
        assert_eq!(l, g);
    }

    #[test]
    fn dirty_tracking_round_trip() {
        let mut p = LfudaPolicy::new(2);
        p.access(1, W);
        assert!(p.is_dirty(1));
        p.mark_clean(1);
        assert!(!p.is_dirty(1));
        p.access(1, W);
        assert!(p.is_dirty(1));
        assert_eq!(
            p.remove(1),
            Some(Evicted {
                block: 1,
                dirty: true
            })
        );
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut p = GdsfPolicy::new(4);
        for b in 0..200u64 {
            p.access(b, AccessMeta::read(1 + b % 8));
            assert!(p.len() <= 4);
        }
    }

    #[test]
    fn clear_resets_age() {
        let mut p = LfudaPolicy::new(1);
        p.access(1, R);
        p.access(2, R); // eviction bumps L
        assert!(p.inner.age > 0.0);
        let drained = p.clear();
        assert_eq!(drained.len(), 1);
        assert_eq!(p.inner.age, 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn resize_evicts_lowest_keys_first() {
        let mut p = LfudaPolicy::new(4);
        p.access(1, R);
        p.access(1, R); // freq 2
        p.access(2, R);
        p.access(3, R);
        p.access(4, R);
        let evicted = p.resize(1);
        assert_eq!(evicted.len(), 3);
        assert!(p.contains(1), "the most frequent block survives the shrink");
    }
}
