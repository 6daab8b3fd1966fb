//! [`BlockMap`], the per-block table under the request path.

/// 2^64 / φ, the multiplier of Fibonacci hashing.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest table, in slots. A power of two, so a home slot is the top bits
/// of the hash and the table never needs a shift of 64.
const MIN_SLOTS: usize = 8;

/// Most bytes in one page: half the 128 KiB above which the system
/// allocator maps a block on its own.
const PAGE_BYTES: usize = 64 * 1024;

/// An open-addressed table from block ids to small `Copy` values.
///
/// A key's home slot is the top bits of `key × 2^64/φ` (Fibonacci hashing);
/// a collision probes the following slots, wrapping past the end (linear
/// probing); a removal pulls later entries of its cluster back into the
/// hole when their home slot allows it (backward-shift deletion), so the
/// table keeps no tombstones. Occupancy lives in a bitset beside the slots,
/// so every `u64`, `0` and `u64::MAX` included, is an ordinary key. The
/// table doubles before it passes 7/8 full, or grows once to a size given
/// ahead ([`BlockMap::reserve`]).
///
/// The slots live in pages of at most 64 KiB: as many slots as fit, rounded
/// down to a power of two, which is 4,096 slots of a `u64` value and 2,048
/// of a 24-byte one. So even a table of a few MiB is made of blocks the
/// allocator hands out and takes back like any small allocation, and the
/// pages a doubling frees serve later ones. Kept in one block, the table's
/// 2–4 MiB frees moved glibc's threshold for mapping blocks on their own,
/// and the replay benchmark's peak RSS on `steady_wdev` swung between
/// about 91 and 107 MiB with the seed and the replay count (2-vCPU Xeon
/// VM); in pages it stayed within 95–97 MiB. A page of 128 KiB or more
/// would move that threshold again.
///
/// The hash is not collision-resistant: keys chosen to share home slots
/// degrade lookups to a scan of their cluster. The keys here are archive
/// block ids, which the dataset mapper scatters in whole extents, and a
/// collision costs probe length, never a different answer: every lookup
/// gives what a `BTreeMap` would.
///
/// No slot order reaches a caller: the one walk, [`BlockMap::sorted`],
/// returns the entries by ascending key.
///
/// # Example
///
/// ```
/// use craid_cache::BlockMap;
///
/// let mut heat = BlockMap::new();
/// *heat.get_or_insert(u64::MAX, 0) += 1;
/// *heat.get_or_insert(7, 0) += 2;
/// *heat.get_or_insert(u64::MAX, 0) += 1;
/// assert_eq!(heat.remove(7), Some(2));
/// assert_eq!(heat.sorted(), vec![(u64::MAX, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct BlockMap<V> {
    /// `(key, value)` per slot, `PAGE_SLOTS` slots a page; meaningful
    /// where `used` has the slot's bit.
    pages: Vec<Box<[(u64, V)]>>,
    /// One bit per slot, set while the slot holds an entry.
    used: Vec<u64>,
    len: usize,
    /// `64 - log2(slots)`: a hash shifted right by this is a slot.
    shift: u32,
}

impl<V: Copy + Default> Default for BlockMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> BlockMap<V> {
    /// Most slots in one page: as many as fit [`PAGE_BYTES`], rounded down
    /// to a power of two.
    const PAGE_SLOTS: usize = {
        let fit = PAGE_BYTES / std::mem::size_of::<(u64, V)>();
        assert!(fit > 0, "a slot is smaller than a page");
        1 << fit.ilog2()
    };

    /// Creates an empty table of the smallest size; it grows as keys arrive.
    pub fn new() -> Self {
        Self::with_slots(MIN_SLOTS)
    }

    /// Creates an empty table that holds `keys` entries without growing.
    pub fn with_capacity(keys: usize) -> Self {
        Self::with_slots(Self::slots_for(keys))
    }

    /// The fewest slots, at least [`MIN_SLOTS`], that hold `keys` entries.
    fn slots_for(keys: usize) -> usize {
        let mut slots = MIN_SLOTS;
        while Self::max_len(slots) < keys {
            slots *= 2;
        }
        slots
    }

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= MIN_SLOTS);
        let page = vec![(0, V::default()); slots.min(Self::PAGE_SLOTS)].into_boxed_slice();
        BlockMap {
            pages: vec![page; slots.div_ceil(Self::PAGE_SLOTS)],
            used: vec![0; slots.div_ceil(64)],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Most entries a table of `slots` slots holds before it doubles.
    fn max_len(slots: usize) -> usize {
        slots / 8 * 7
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots.
    fn slots(&self) -> usize {
        1 << (64 - self.shift)
    }

    fn mask(&self) -> usize {
        self.slots() - 1
    }

    fn slot(&self, slot: usize) -> &(u64, V) {
        &self.pages[slot / Self::PAGE_SLOTS][slot % Self::PAGE_SLOTS]
    }

    fn slot_mut(&mut self, slot: usize) -> &mut (u64, V) {
        &mut self.pages[slot / Self::PAGE_SLOTS][slot % Self::PAGE_SLOTS]
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIBONACCI) >> self.shift) as usize
    }

    fn is_used(&self, slot: usize) -> bool {
        self.used[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn set_used(&mut self, slot: usize, used: bool) {
        let bit = 1 << (slot % 64);
        if used {
            self.used[slot / 64] |= bit;
        } else {
            self.used[slot / 64] &= !bit;
        }
    }

    /// The slot holding `key`, or `Err` with the empty slot that ends its
    /// probe sequence (where an insertion of `key` belongs).
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.mask();
        let mut slot = self.home(key);
        loop {
            if !self.is_used(slot) {
                return Err(slot);
            }
            if self.slot(slot).0 == key {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The value stored for `key`.
    pub fn get(&self, key: u64) -> Option<V> {
        self.find(key).ok().map(|slot| self.slot(slot).1)
    }

    /// True if `key` has an entry.
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_ok()
    }

    /// A mutable reference to the value stored for `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.find(key) {
            Ok(slot) => Some(&mut self.slot_mut(slot).1),
            Err(_) => None,
        }
    }

    /// The value stored for `key`, inserting `value` first if there is none.
    pub fn get_or_insert(&mut self, key: u64, value: V) -> &mut V {
        let slot = match self.find(key) {
            Ok(slot) => slot,
            Err(empty) => self.occupy(empty, key, value),
        };
        &mut self.slot_mut(slot).1
    }

    /// Stores `value` for `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.find(key) {
            Ok(slot) => Some(std::mem::replace(&mut self.slot_mut(slot).1, value)),
            Err(empty) => {
                self.occupy(empty, key, value);
                None
            }
        }
    }

    /// Puts a new entry into `empty`, the end of `key`'s probe sequence,
    /// doubling the table first if the entry would fill it past 7/8.
    /// Returns the entry's slot.
    fn occupy(&mut self, empty: usize, key: u64, value: V) -> usize {
        let slot = if self.len < Self::max_len(self.slots()) {
            empty
        } else {
            self.rehash(self.slots() * 2);
            self.find(key)
                .expect_err("the key was absent before the table grew")
        };
        *self.slot_mut(slot) = (key, value);
        self.set_used(slot, true);
        self.len += 1;
        slot
    }

    /// Grows the table once, if needed, so that `additional` more entries
    /// fit without a doubling.
    pub fn reserve(&mut self, additional: usize) {
        let keys = self.len.saturating_add(additional);
        if keys > Self::max_len(self.slots()) {
            self.rehash(Self::slots_for(keys));
        }
    }

    /// Moves every entry into a table of `slots` slots.
    fn rehash(&mut self, slots: usize) {
        let mut bigger = Self::with_slots(slots);
        for slot in 0..self.slots() {
            if self.is_used(slot) {
                let (key, value) = *self.slot(slot);
                let empty = bigger
                    .find(key)
                    .expect_err("keys are unique, so each moves to a free slot");
                *bigger.slot_mut(empty) = (key, value);
                bigger.set_used(empty, true);
            }
        }
        bigger.len = self.len;
        *self = bigger;
    }

    /// Removes `key`'s entry, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key).ok()?;
        let value = self.slot(hole).1;
        let mask = self.mask();
        // Backward shift: walk the rest of the cluster and move back into
        // the hole every entry whose probe sequence passes through it, that
        // is, whose home lies cyclically at or before the hole. An entry
        // homed after the hole stays, or its own lookups would miss it.
        let mut slot = (hole + 1) & mask;
        while self.is_used(slot) {
            let home = self.home(self.slot(slot).0);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                *self.slot_mut(hole) = *self.slot(slot);
                hole = slot;
            }
            slot = (slot + 1) & mask;
        }
        self.set_used(hole, false);
        self.len -= 1;
        Some(value)
    }

    /// Removes every entry, keeping the table's size.
    pub fn clear(&mut self) {
        self.used.fill(0);
        self.len = 0;
    }

    /// Every entry, by ascending key.
    pub fn sorted(&self) -> Vec<(u64, V)> {
        let mut entries: Vec<(u64, V)> = (0..self.slots())
            .filter(|&slot| self.is_used(slot))
            .map(|slot| *self.slot(slot))
            .collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The first `n` keys, counting up from `from`, whose home slot in a
    /// table of `MIN_SLOTS` slots is `home`.
    fn keys_homed_at(home: usize, from: u64, n: usize) -> Vec<u64> {
        let probe = BlockMap::<u32>::new();
        (from..)
            .filter(|&k| probe.home(k) == home)
            .take(n)
            .collect()
    }

    #[test]
    fn sizes_follow_the_load_limit() {
        assert_eq!(BlockMap::<u64>::new().slots(), MIN_SLOTS);
        assert_eq!(BlockMap::<u64>::with_capacity(7).slots(), 8);
        assert_eq!(BlockMap::<u64>::with_capacity(8).slots(), 16);
        assert_eq!(BlockMap::<u64>::with_capacity(229_376).slots(), 262_144);
        let mut m = BlockMap::new();
        for key in 0..7 {
            m.insert(key, key);
        }
        assert_eq!(m.slots(), 8, "seven keys fill eight slots to 7/8");
        m.insert(7, 7);
        assert_eq!((m.slots(), m.len()), (16, 8));
        assert!((0..8).all(|key| m.get(key) == Some(key)));
    }

    #[test]
    fn pages_hold_at_most_64_kib() {
        // A `u64` value makes 16-byte slots, three of them 32-byte slots and
        // five 48-byte slots, of which 1,365 fit a page and 1,024 are used.
        assert_eq!(BlockMap::<u64>::PAGE_SLOTS, 4_096);
        assert_eq!(BlockMap::<(u64, u64, u64)>::PAGE_SLOTS, 2_048);
        assert_eq!(BlockMap::<(u64, u64, u64, u64, u64)>::PAGE_SLOTS, 1_024);
        let m = BlockMap::<(u64, u64, u64)>::with_capacity(30_000);
        assert_eq!((m.slots(), m.pages.len()), (65_536, 32));
        assert!(m
            .pages
            .iter()
            .all(|page| std::mem::size_of_val(&**page) == PAGE_BYTES));
    }

    #[test]
    fn reserve_grows_once_and_keeps_every_entry() {
        let key = |i: u64| i * 1_000_003;
        let mut m = BlockMap::new();
        for i in 0..5 {
            m.insert(key(i), i);
        }
        // 20,005 entries need 32,768 slots (7/8 of 16,384 is 14,336).
        m.reserve(20_000);
        assert_eq!((m.slots(), m.len()), (32_768, 5));
        for i in 5..20_005 {
            m.insert(key(i), i);
        }
        assert_eq!(m.slots(), 32_768, "no doubling after the reserve");
        assert!((0..20_005).all(|i| m.get(key(i)) == Some(i)));
        // 28,005 entries still fit 7/8 of 32,768 slots.
        m.reserve(8_000);
        assert_eq!(
            m.slots(),
            32_768,
            "a reserve the table holds changes nothing"
        );
    }

    #[test]
    fn removal_inside_a_wrapped_cluster_keeps_every_other_key() {
        // Two keys homed at the last slot fill it and wrap to slot 0; a key
        // homed at slot 1 sits at its home behind them, and one homed at
        // slot 0 probes on to slot 2. Removing any one of them must leave
        // the rest findable: the entry at its home must not shift back.
        let last = keys_homed_at(MIN_SLOTS - 1, 0, 2);
        let cluster = [
            last[0],
            last[1],
            keys_homed_at(1, 0, 1)[0],
            keys_homed_at(0, 0, 1)[0],
        ];
        let build = || {
            let mut m = BlockMap::new();
            for (value, &key) in cluster.iter().enumerate() {
                m.insert(key, value as u32);
            }
            m
        };
        let m = build();
        assert_eq!([7, 0, 1, 2].map(|slot| m.slot(slot).0), cluster);
        for gone in 0..cluster.len() {
            let mut m = build();
            assert_eq!(m.remove(cluster[gone]), Some(gone as u32));
            for (value, &key) in cluster.iter().enumerate() {
                let expected = (value != gone).then_some(value as u32);
                assert_eq!(m.get(key), expected, "after removing key #{gone}");
            }
            assert_eq!(m.len(), cluster.len() - 1);
        }
    }

    #[test]
    fn a_table_of_many_pages_matches_a_btree_map() {
        let mut m = BlockMap::new();
        let mut reference = BTreeMap::new();
        for i in 0..30_000u64 {
            let key = i * 2_654_435_761 % 1_722_253_320;
            assert_eq!(m.insert(key, i), reference.insert(key, i));
            if i % 3 == 2 {
                let gone = (i - 1) * 2_654_435_761 % 1_722_253_320;
                assert_eq!(m.remove(gone), reference.remove(&gone));
            }
        }
        assert_eq!((m.slots(), m.pages.len()), (32_768, 8));
        assert_eq!(m.len(), reference.len());
        for i in 0..30_000u64 {
            let key = i * 2_654_435_761 % 1_722_253_320;
            assert_eq!(m.get(key), reference.get(&key).copied());
        }
        let walk: Vec<(u64, u64)> = reference.into_iter().collect();
        assert_eq!(m.sorted(), walk);
    }

    #[test]
    fn extreme_keys_are_ordinary() {
        let mut m = BlockMap::new();
        assert_eq!(m.get(0), None);
        assert_eq!(m.insert(0, 1u8), None);
        assert_eq!(m.insert(u64::MAX, 2), None);
        assert_eq!((m.get(0), m.get(u64::MAX), m.len()), (Some(1), Some(2), 2));
        assert_eq!(m.remove(0), Some(1));
        assert_eq!(m.sorted(), vec![(u64::MAX, 2)]);
        m.clear();
        assert!(m.is_empty() && !m.contains_key(u64::MAX));
    }

    proptest! {
        /// Random get-or-insert, insert, get, remove and clear steps over a
        /// key pool small enough to fill the table to its load limit, so
        /// clusters wrap past the end, agree with a `BTreeMap` after every
        /// step: length, every lookup and the sorted walk.
        #[test]
        fn prop_matches_a_btree_map(
            ops in proptest::collection::vec((0u8..5, 0u64..40, 0u32..1_000), 1..400),
        ) {
            let key = |k: u64| match k {
                38 => u64::MAX,
                39 => u64::MAX - 1,
                k => k,
            };
            let mut m = BlockMap::new();
            let mut reference = BTreeMap::new();
            for (op, k, value) in ops {
                let k = key(k);
                match op {
                    0 => {
                        let got = *m.get_or_insert(k, value);
                        prop_assert_eq!(got, *reference.entry(k).or_insert(value));
                    }
                    1 => prop_assert_eq!(m.insert(k, value), reference.insert(k, value)),
                    2 => prop_assert_eq!(m.get(k), reference.get(&k).copied()),
                    3 => prop_assert_eq!(m.remove(k), reference.remove(&k)),
                    _ if value % 50 == 0 => {
                        m.clear();
                        reference.clear();
                    }
                    _ => {
                        if let Some(v) = m.get_mut(k) {
                            *v += 1;
                        }
                        if let Some(v) = reference.get_mut(&k) {
                            *v += 1;
                        }
                    }
                }
                prop_assert_eq!(m.len(), reference.len());
                for probe in (0..40).map(key) {
                    prop_assert_eq!(m.get(probe), reference.get(&probe).copied());
                }
                let walk: Vec<(u64, u32)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(m.sorted(), walk);
            }
        }
    }
}
