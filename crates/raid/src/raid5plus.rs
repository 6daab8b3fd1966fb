//! RAID-5+: an array grown by aggregation.
//!
//! The paper's realistic baseline (Fig. 3b): every capacity upgrade adds a
//! batch of disks that forms a **new, independent RAID-5 set** with its own
//! (short) stripe width, instead of restriping the whole volume. The volume
//! is then the concatenation of all sets. This is what administrators
//! actually do when a full restripe is too expensive — and it is exactly the
//! configuration whose performance and load balance degrade in the paper's
//! Figures 4, 6 and 7.

use serde::{Deserialize, Serialize};

use crate::layout::Layout;
use crate::raid5::Raid5Layout;
use crate::types::{DiskBlock, LayoutError};

/// One member set of a RAID-5+ aggregation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct MemberSet {
    /// Index of the first physical disk of this set within the whole array.
    first_disk: usize,
    /// Logical block (within the aggregated volume) where this set starts.
    logical_start: u64,
    layout: Raid5Layout,
}

/// The aggregation of several independent RAID-5 sets.
///
/// # Example
///
/// ```
/// use craid_raid::{Layout, Raid5PlusLayout};
///
/// // An array that started with 4 disks and was later expanded with 3 more.
/// let l = Raid5PlusLayout::new(&[4, 3], 2, 16).unwrap();
/// assert_eq!(l.disk_count(), 7);
/// // The first set holds 3 data units × 8 rows × 2 blocks = 48 blocks; the
/// // second set's blocks land on disks 4..7.
/// assert!(l.locate(47).disk < 4);
/// assert!(l.locate(48).disk >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Raid5PlusLayout {
    sets: Vec<MemberSet>,
    stripe_unit: u64,
    blocks_per_disk: u64,
}

impl Raid5PlusLayout {
    /// Creates a RAID-5+ layout from the disk count of every expansion step.
    ///
    /// `set_sizes[0]` is the original array, each following entry one
    /// expansion. Every set is an independent RAID-5 whose parity group spans
    /// the entire set (as in the paper's figure). All sets share the same
    /// stripe unit and per-disk block count.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if any set has fewer than 2 disks or the
    /// geometry parameters are invalid.
    pub fn new(
        set_sizes: &[usize],
        stripe_unit: u64,
        blocks_per_disk: u64,
    ) -> Result<Self, LayoutError> {
        if set_sizes.is_empty() {
            return Err(LayoutError::InvalidGeometry(
                "at least one RAID set is required".into(),
            ));
        }
        let mut sets = Vec::with_capacity(set_sizes.len());
        let mut first_disk = 0usize;
        let mut logical_start = 0u64;
        for &size in set_sizes {
            let layout = Raid5Layout::new(size, size, stripe_unit, blocks_per_disk)?;
            let capacity = layout.data_capacity();
            sets.push(MemberSet {
                first_disk,
                logical_start,
                layout,
            });
            first_disk += size;
            logical_start += capacity;
        }
        Ok(Raid5PlusLayout {
            sets,
            stripe_unit,
            blocks_per_disk,
        })
    }

    /// The member set that owns `logical`, and the offset within it.
    fn set_of(&self, logical: u64) -> (&MemberSet, u64) {
        assert!(
            logical < self.data_capacity(),
            "logical block {logical} beyond capacity {}",
            self.data_capacity()
        );
        // Sets are few (single digits); a linear scan beats a binary search
        // in practice and keeps the code obvious.
        let set = self
            .sets
            .iter()
            .rev()
            .find(|s| logical >= s.logical_start)
            .expect("logical_start of the first set is 0");
        (set, logical - set.logical_start)
    }
}

impl Layout for Raid5PlusLayout {
    fn disk_count(&self) -> usize {
        self.sets
            .last()
            .map(|s| s.first_disk + s.layout.disk_count())
            .unwrap_or(0)
    }

    fn data_capacity(&self) -> u64 {
        self.sets
            .last()
            .map(|s| s.logical_start + s.layout.data_capacity())
            .unwrap_or(0)
    }

    fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    fn blocks_per_disk(&self) -> u64 {
        self.blocks_per_disk
    }

    fn locate(&self, logical: u64) -> DiskBlock {
        let (set, within) = self.set_of(logical);
        let loc = set.layout.locate(within);
        DiskBlock::new(loc.disk + set.first_disk, loc.block)
    }

    fn parity_for(&self, logical: u64) -> Option<DiskBlock> {
        let (set, within) = self.set_of(logical);
        set.layout
            .parity_for(within)
            .map(|p| DiskBlock::new(p.disk + set.first_disk, p.block))
    }

    fn data_blocks_per_parity_stripe(&self) -> u64 {
        // Conservative: the narrowest member set bounds full-stripe detection.
        self.sets
            .iter()
            .map(|s| s.layout.data_blocks_per_parity_stripe())
            .min()
            .unwrap_or(1)
    }

    fn reconstruction_peers(&self, disk: usize) -> Vec<usize> {
        // Redundancy never crosses member sets: the peers are the other
        // disks of whichever independent RAID-5 set owns `disk`.
        self.sets
            .iter()
            .find(|s| (s.first_disk..s.first_disk + s.layout.disk_count()).contains(&disk))
            .map(|s| {
                s.layout
                    .reconstruction_peers(disk - s.first_disk)
                    .into_iter()
                    .map(|d| d + s.first_disk)
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Data capacity of member set `idx`.
    fn set_capacity(l: &Raid5PlusLayout, idx: usize) -> u64 {
        l.sets[idx].layout.data_capacity()
    }

    #[test]
    fn paper_schedule_reaches_50_disks() {
        // The 10-disk array plus one set per step of the paper's schedule.
        let mut sets = vec![10];
        sets.extend(crate::ExpansionSchedule::paper().additions());
        let l = Raid5PlusLayout::new(&sets, 32, 32 * 4).unwrap();
        assert_eq!((l.disk_count(), l.sets.len()), (50, 7));
        assert!(l.uses_all_disks());
    }

    #[test]
    fn sets_own_disjoint_disk_ranges() {
        let l = Raid5PlusLayout::new(&[4, 3, 5], 2, 8).unwrap();
        assert_eq!(l.disk_count(), 12);
        let cap0 = set_capacity(&l, 0);
        let cap1 = set_capacity(&l, 1);
        // Blocks of set 0 stay on disks 0..4, set 1 on 4..7, set 2 on 7..12.
        for b in 0..cap0 {
            assert!(l.locate(b).disk < 4);
        }
        for b in cap0..cap0 + cap1 {
            let d = l.locate(b).disk;
            assert!((4..7).contains(&d));
        }
        for b in cap0 + cap1..l.data_capacity() {
            assert!(l.locate(b).disk >= 7);
        }
    }

    #[test]
    fn capacity_is_sum_of_sets() {
        let l = Raid5PlusLayout::new(&[4, 3], 2, 8).unwrap();
        assert_eq!(l.data_capacity(), set_capacity(&l, 0) + set_capacity(&l, 1));
        // Set of 4 disks: 3 data units/row × 4 rows × 2 blocks = 24.
        assert_eq!(set_capacity(&l, 0), 24);
        // Set of 3 disks: 2 data units/row × 4 rows × 2 blocks = 16.
        assert_eq!(set_capacity(&l, 1), 16);
    }

    #[test]
    fn parity_stays_within_owning_set() {
        let l = Raid5PlusLayout::new(&[4, 3], 2, 8).unwrap();
        let cap0 = set_capacity(&l, 0);
        for b in 0..l.data_capacity() {
            let p = l.parity_for(b).unwrap();
            if b < cap0 {
                assert!(p.disk < 4);
            } else {
                assert!((4..7).contains(&p.disk));
            }
        }
    }

    #[test]
    fn narrow_sets_limit_full_stripe_width() {
        let l = Raid5PlusLayout::new(&[10, 3], 2, 8).unwrap();
        // Narrowest set has 3 disks → 2 data units per stripe.
        assert_eq!(l.data_blocks_per_parity_stripe(), 2 * 2);
    }

    #[test]
    fn reconstruction_peers_stay_within_the_member_set() {
        let l = Raid5PlusLayout::new(&[4, 3, 5], 2, 8).unwrap();
        assert_eq!(l.reconstruction_peers(0), vec![1, 2, 3]);
        assert_eq!(l.reconstruction_peers(5), vec![4, 6]);
        assert_eq!(l.reconstruction_peers(7), vec![8, 9, 10, 11]);
        assert!(l.reconstruction_peers(12).is_empty(), "out of range");
    }

    #[test]
    fn constructor_validation() {
        assert!(Raid5PlusLayout::new(&[], 2, 8).is_err());
        assert!(Raid5PlusLayout::new(&[4, 1], 2, 8).is_err());
        assert!(Raid5PlusLayout::new(&[4], 0, 8).is_err());
    }

    proptest! {
        /// The aggregated mapping is injective across all member sets.
        #[test]
        fn prop_aggregated_mapping_injective(sizes in proptest::collection::vec(2usize..6, 1..4),
                                             rows in 1u64..4) {
            let unit = 2u64;
            let l = Raid5PlusLayout::new(&sizes, unit, rows * unit).unwrap();
            let mut seen = HashSet::new();
            for b in 0..l.data_capacity() {
                let loc = l.locate(b);
                prop_assert!(loc.disk < l.disk_count());
                prop_assert!(seen.insert(loc));
            }
        }
    }
}
