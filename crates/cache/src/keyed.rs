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

use crate::policy::{AccessMeta, AccessOutcome, ReplacementPolicy};

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
}

/// Shared implementation of the two key-ordered policies.
#[derive(Debug, Clone)]
struct KeyedPolicy {
    formula: KeyFormula,
    capacity: usize,
    /// Resident entries by block.
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

    fn evict_smallest(&mut self) -> Option<u64> {
        let &(OrdF64(key), block) = self.order.iter().next()?;
        self.order.remove(&(OrdF64(key), block));
        self.entries
            .remove(&block)
            .expect("order and entries are in sync");
        // Dynamic aging: L becomes the evicted key.
        self.age = key;
        Some(block)
    }

    fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
        if let Some(entry) = self.entries.get_mut(&block) {
            entry.frequency += 1;
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
            },
        );
        self.order.insert((OrdF64(key), block));
        AccessOutcome::inserted(evicted)
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
            fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome {
                self.inner.access(block, meta)
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
        assert_ne!(e, 1);
        assert!(p.inner.entries.contains_key(&1));
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
        let evicted_one = (3..200).any(|b| p.access(b, R).evicted() == Some(1));
        assert!(
            evicted_one,
            "dynamic aging must eventually evict the stale popular block"
        );
        assert!(p.inner.age > 0.0);
    }

    #[test]
    fn lfuda_eviction_raises_age_to_the_victims_key() {
        let mut p = LfudaPolicy::new(2);
        for _ in 0..3 {
            p.access(1, R); // key 3
        }
        p.access(2, R); // key 1
        assert_eq!(p.access(3, R).evicted(), Some(2));
        assert!(p.inner.age == 1.0);
        // Newcomers enter at one access plus the age.
        assert!(p.inner.entries[&3].key == 2.0);
        assert_eq!(p.access(4, R).evicted(), Some(3));
        assert!(p.inner.age == 2.0);
        // Block 4 entered at key 3, level with block 1; the lower block id
        // goes first.
        assert_eq!(p.access(5, R).evicted(), Some(1));
    }

    #[test]
    fn gdsf_keeps_the_size_of_the_arrival_request() {
        let mut p = GdsfPolicy::new(2);
        p.access(1, AccessMeta::read(4));
        // Hits count towards the frequency but do not change the size.
        p.access(1, AccessMeta::read(1));
        p.access(1, AccessMeta::read(16));
        assert!(p.inner.entries[&1].key == 0.75);
    }

    #[test]
    fn gdsf_penalises_blocks_of_large_requests() {
        let mut p = GdsfPolicy::new(2);
        p.access(1, AccessMeta::read(64)); // key = 1/64
        p.access(2, AccessMeta::read(1)); // key = 1
        let e = p.access(3, AccessMeta::read(1)).evicted().unwrap();
        assert_eq!(e, 1, "the large-request block has the smallest key");
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
        let l: Vec<&u64> = lfuda.inner.entries.keys().collect();
        let g: Vec<&u64> = gdsf.inner.entries.keys().collect();
        assert_eq!(l, g);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut p = GdsfPolicy::new(4);
        for b in 0..200u64 {
            p.access(b, AccessMeta::read(1 + b % 8));
            assert!(p.inner.entries.len() <= 4);
        }
    }
}
