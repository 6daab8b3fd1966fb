//! The mapping cache (paper §4.2).
//!
//! An in-memory table from archive-partition LBAs to their cached copies in
//! the cache partition, with a dirty flag per entry: a [`BlockMap`] of
//! packed translations, sized from the cache partition's capacity. A lookup
//! hashes the LBA and probes a few adjacent slots. A slot takes 16 bytes,
//! so a full cache costs 18–37 bytes per cached block, the range the
//! table's load spans; the paper budgets ≈0.58 % of the cache-partition
//! size, ≈5.9 MB per cached GB, or about 23 bytes per 4 KiB block.
//!
//! The mapping cache is the one home of dirty bits that the array reads:
//! the monitor charges an evicted copy's write-back from the flag it removes
//! here, and the replacement policy only decides residency.
//!
//! The paper notes that losing the mapping cache can lose data because dirty
//! blocks are updated in place in `PC`; it therefore keeps a persistent log
//! of dirty translations. [`MappingCache::dirty_log`] and
//! [`MappingCache::recover_from_log`] model that: after a crash, dirty
//! entries are recovered from the log and clean entries are simply
//! invalidated.

use craid_cache::BlockMap;
use serde::{Deserialize, Serialize};

/// One translation held by the mapping cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    /// Block number of the cached copy within the cache partition.
    pub pc_block: u64,
    /// True if the cached copy differs from the archive copy.
    pub dirty: bool,
}

impl Mapping {
    /// The translation in one word: the slot above a low dirty bit.
    fn pack(self) -> u64 {
        assert!(
            self.pc_block < 1 << 63,
            "cache slot {} does not fit a packed translation",
            self.pc_block
        );
        self.pc_block << 1 | u64::from(self.dirty)
    }

    fn unpack(word: u64) -> Self {
        Mapping {
            pc_block: word >> 1,
            dirty: word & 1 == 1,
        }
    }
}

/// A persisted dirty-translation record (the failure-resilience log of
/// §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyLogEntry {
    /// Archive-partition LBA of the original block.
    pub pa_block: u64,
    /// Cache-partition block holding the (modified) copy.
    pub pc_block: u64,
}

/// The in-memory translation table `LBA_PA → (LBA_PC, dirty)`.
///
/// Every walk ([`MappingCache::iter`], [`MappingCache::drain`],
/// [`MappingCache::dirty_log`]) is by ascending archive LBA.
///
/// # Example
///
/// ```
/// use craid::MappingCache;
///
/// let mut m = MappingCache::new();
/// m.insert(1_000, 0, false);
/// m.mark_dirty(1_000);
/// assert_eq!(m.lookup(1_000).unwrap().pc_block, 0);
/// assert!(m.lookup(1_000).unwrap().dirty);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MappingCache {
    /// archive LBA -> packed [`Mapping`]
    map: BlockMap<u64>,
}

impl MappingCache {
    /// Creates an empty mapping cache that grows as translations arrive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty mapping cache that holds `blocks` translations (a
    /// cache partition's capacity) without growing.
    pub fn with_capacity(blocks: usize) -> Self {
        MappingCache {
            map: BlockMap::with_capacity(blocks),
        }
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up the translation for an archive block.
    pub fn lookup(&self, pa_block: u64) -> Option<Mapping> {
        self.map.get(pa_block).map(Mapping::unpack)
    }

    /// True if `pa_block` currently has a cached copy.
    pub fn contains(&self, pa_block: u64) -> bool {
        self.map.contains_key(pa_block)
    }

    /// Inserts (or replaces) the translation for `pa_block`.
    pub fn insert(&mut self, pa_block: u64, pc_block: u64, dirty: bool) {
        self.map
            .insert(pa_block, Mapping { pc_block, dirty }.pack());
    }

    /// Marks the cached copy of `pa_block` as modified and returns its
    /// slot, or `None` if the block is not mapped: one probe of the table
    /// for a write hit.
    pub fn mark_dirty(&mut self, pa_block: u64) -> Option<u64> {
        let word = self.map.get_mut(pa_block)?;
        *word |= 1;
        Some(Mapping::unpack(*word).pc_block)
    }

    /// Removes the translation for `pa_block`, returning it if present.
    pub fn remove(&mut self, pa_block: u64) -> Option<Mapping> {
        self.map.remove(pa_block).map(Mapping::unpack)
    }

    /// Removes every translation, returning the former contents by ascending
    /// archive LBA (used when the cache partition is invalidated during an
    /// upgrade).
    pub fn drain(&mut self) -> Vec<(u64, Mapping)> {
        let out = self.iter().collect();
        self.map.clear();
        out
    }

    /// Iterates over all translations in archive-LBA order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Mapping)> {
        self.map
            .sorted()
            .into_iter()
            .map(|(pa_block, word)| (pa_block, Mapping::unpack(word)))
    }

    /// The persistent dirty log: every translation whose cached copy is
    /// modified and would be lost if the mapping cache disappeared, by
    /// ascending archive LBA.
    pub fn dirty_log(&self) -> Vec<DirtyLogEntry> {
        self.iter()
            .filter(|(_, m)| m.dirty)
            .map(|(pa_block, m)| DirtyLogEntry {
                pa_block,
                pc_block: m.pc_block,
            })
            .collect()
    }

    /// Rebuilds a mapping cache from a persisted dirty log, as after a crash:
    /// only dirty translations survive (clean cached copies are simply
    /// invalidated because the archive still holds identical data).
    pub fn recover_from_log(log: &[DirtyLogEntry]) -> Self {
        let mut cache = MappingCache::with_capacity(log.len());
        for entry in log {
            cache.insert(entry.pa_block, entry.pc_block, true);
        }
        cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut m = MappingCache::new();
        assert!(m.is_empty());
        m.insert(100, 0, false);
        m.insert(200, 1, true);
        assert_eq!(m.len(), 2);
        assert!(m.contains(100));
        assert_eq!(
            m.lookup(100),
            Some(Mapping {
                pc_block: 0,
                dirty: false
            })
        );
        assert_eq!(
            m.lookup(200),
            Some(Mapping {
                pc_block: 1,
                dirty: true
            })
        );
        assert_eq!(m.lookup(300), None);
        assert_eq!(
            m.remove(100),
            Some(Mapping {
                pc_block: 0,
                dirty: false
            })
        );
        assert_eq!(m.remove(100), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn dirty_transitions() {
        let mut m = MappingCache::new();
        m.insert(5, 9, false);
        assert_eq!(m.mark_dirty(5), Some(9), "the marked copy's slot");
        assert!(m.lookup(5).unwrap().dirty);
        assert_eq!(m.mark_dirty(5), Some(9), "marking twice keeps the slot");
        assert_eq!(
            m.lookup(5),
            Some(Mapping {
                pc_block: 9,
                dirty: true
            })
        );
        assert_eq!(m.mark_dirty(999), None, "unknown blocks are not marked");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn reinsert_replaces_translation() {
        let mut m = MappingCache::new();
        m.insert(7, 1, true);
        m.insert(7, 42, false);
        assert_eq!(
            m.lookup(7),
            Some(Mapping {
                pc_block: 42,
                dirty: false
            })
        );
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_returns_everything_in_order() {
        // Scattered archive LBAs inserted and removed in scrambled order,
        // so the table's slot order is nothing like the LBA order: every
        // walk must still come out by ascending LBA.
        let mut m = MappingCache::new();
        let mut reference = std::collections::BTreeMap::new();
        for i in 0..1_500u64 {
            let pa = i * 2_654_435_761 % 1_722_253_320;
            m.insert(pa, i, i % 3 == 0);
            reference.insert(
                pa,
                Mapping {
                    pc_block: i,
                    dirty: i % 3 == 0,
                },
            );
            if i % 4 == 1 {
                let gone = (i / 2) * 2_654_435_761 % 1_722_253_320;
                assert_eq!(m.remove(gone), reference.remove(&gone));
            }
        }
        assert!(reference.len() >= 1_000);
        let expected: Vec<(u64, Mapping)> = reference.into_iter().collect();
        let dirty: Vec<DirtyLogEntry> = expected
            .iter()
            .filter(|(_, map)| map.dirty)
            .map(|&(pa_block, map)| DirtyLogEntry {
                pa_block,
                pc_block: map.pc_block,
            })
            .collect();
        assert_eq!(m.iter().collect::<Vec<_>>(), expected);
        assert_eq!(m.dirty_log(), dirty);
        assert_eq!(m.drain(), expected);
        assert!(m.is_empty());
    }

    #[test]
    fn crash_recovery_keeps_only_dirty_blocks() {
        let mut m = MappingCache::new();
        m.insert(1, 10, false);
        m.insert(2, 11, true);
        m.insert(3, 12, true);
        let log = m.dirty_log();
        assert_eq!(log.len(), 2);
        let recovered = MappingCache::recover_from_log(&log);
        assert_eq!(recovered.len(), 2);
        assert!(!recovered.contains(1), "clean blocks are invalidated");
        assert!(recovered.lookup(2).unwrap().dirty);
        assert_eq!(recovered.lookup(3).unwrap().pc_block, 12);
    }

    proptest! {
        /// The mapping cache behaves like a map: after a sequence of inserts
        /// and removals, lookups agree with a reference BTreeMap.
        #[test]
        fn prop_behaves_like_reference_map(ops in proptest::collection::vec((0u64..64, 0u64..32, any::<bool>(), any::<bool>()), 1..200)) {
            let mut m = MappingCache::new();
            let mut reference = std::collections::BTreeMap::new();
            for (pa, pc, dirty, remove) in ops {
                if remove {
                    prop_assert_eq!(m.remove(pa).is_some(), reference.remove(&pa).is_some());
                } else {
                    m.insert(pa, pc, dirty);
                    reference.insert(pa, (pc, dirty));
                }
            }
            prop_assert_eq!(m.len(), reference.len());
            for (&pa, &(pc, dirty)) in &reference {
                let got = m.lookup(pa).unwrap();
                prop_assert_eq!(got.pc_block, pc);
                prop_assert_eq!(got.dirty, dirty);
            }
            // The dirty log covers exactly the dirty entries.
            let dirty_count = reference.values().filter(|(_, d)| *d).count();
            prop_assert_eq!(m.dirty_log().len(), dirty_count);
        }
    }
}
