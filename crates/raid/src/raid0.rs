//! RAID-0: rotating stripes without redundancy.
//!
//! The paper mentions CRAID variants whose cache partition uses RAID-0 (their
//! results are relegated to a technical report); this simulator builds none,
//! since every cache partition is RAID-5. RAID-0 stays as the test layout:
//! the cheapest one to reason about, it anchors the reshape, planner and
//! layout-contract tests.

use serde::{Deserialize, Serialize};

use crate::layout::Layout;
use crate::types::{DiskBlock, LayoutError};

/// A RAID-0 layout over `disks` devices.
///
/// Logical stripe units are placed round-robin across the devices; there is
/// no parity, so the whole per-disk area is usable for data.
///
/// # Example
///
/// ```
/// use craid_raid::{Layout, Raid0Layout};
///
/// let l = Raid0Layout::new(4, 2, 16).unwrap();
/// assert_eq!(l.data_capacity(), 4 * 16);
/// assert_eq!(l.locate(0).disk, 0);
/// assert_eq!(l.locate(2).disk, 1); // next stripe unit, next disk
/// assert_eq!(l.parity_for(0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Raid0Layout {
    disks: usize,
    stripe_unit: u64,
    blocks_per_disk: u64,
}

impl Raid0Layout {
    /// Creates a RAID-0 layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if fewer than two disks are given, the stripe
    /// unit is zero, or the per-disk block count is not a positive multiple
    /// of the stripe unit.
    pub fn new(disks: usize, stripe_unit: u64, blocks_per_disk: u64) -> Result<Self, LayoutError> {
        if disks < 2 {
            return Err(LayoutError::NotEnoughDisks {
                got: disks,
                need: 2,
            });
        }
        if stripe_unit == 0 {
            return Err(LayoutError::InvalidGeometry(
                "stripe unit must be positive".into(),
            ));
        }
        if blocks_per_disk == 0 || !blocks_per_disk.is_multiple_of(stripe_unit) {
            return Err(LayoutError::InvalidGeometry(format!(
                "blocks per disk ({blocks_per_disk}) must be a positive multiple of the stripe unit ({stripe_unit})"
            )));
        }
        Ok(Raid0Layout {
            disks,
            stripe_unit,
            blocks_per_disk,
        })
    }

    fn rows(&self) -> u64 {
        self.blocks_per_disk / self.stripe_unit
    }
}

impl Layout for Raid0Layout {
    fn disk_count(&self) -> usize {
        self.disks
    }

    fn data_capacity(&self) -> u64 {
        self.rows() * self.disks as u64 * self.stripe_unit
    }

    fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    fn blocks_per_disk(&self) -> u64 {
        self.blocks_per_disk
    }

    fn locate(&self, logical: u64) -> DiskBlock {
        assert!(
            logical < self.data_capacity(),
            "logical block {logical} beyond capacity {}",
            self.data_capacity()
        );
        let unit = logical / self.stripe_unit;
        let offset = logical % self.stripe_unit;
        let disk = (unit % self.disks as u64) as usize;
        let row = unit / self.disks as u64;
        DiskBlock::new(disk, row * self.stripe_unit + offset)
    }

    fn parity_for(&self, logical: u64) -> Option<DiskBlock> {
        assert!(
            logical < self.data_capacity(),
            "logical block {logical} beyond capacity {}",
            self.data_capacity()
        );
        None
    }

    fn data_blocks_per_parity_stripe(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn capacity_uses_every_block() {
        let l = Raid0Layout::new(5, 4, 40).unwrap();
        assert_eq!(l.data_capacity(), 5 * 40);
        assert_eq!(l.blocks_per_disk(), 40);
        assert_eq!(l.stripe_unit(), 4);
        assert!(l.uses_all_disks());
    }

    #[test]
    fn round_robin_rotation() {
        let l = Raid0Layout::new(3, 2, 8).unwrap();
        // units: 0->d0, 1->d1, 2->d2, 3->d0 (next row)
        assert_eq!(l.locate(0), DiskBlock::new(0, 0));
        assert_eq!(l.locate(1), DiskBlock::new(0, 1));
        assert_eq!(l.locate(2), DiskBlock::new(1, 0));
        assert_eq!(l.locate(4), DiskBlock::new(2, 0));
        assert_eq!(l.locate(6), DiskBlock::new(0, 2));
    }

    #[test]
    fn no_parity() {
        let l = Raid0Layout::new(3, 2, 8).unwrap();
        for b in 0..l.data_capacity() {
            assert_eq!(l.parity_for(b), None);
        }
        assert_eq!(l.data_blocks_per_parity_stripe(), 1);
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            Raid0Layout::new(1, 2, 8),
            Err(LayoutError::NotEnoughDisks { .. })
        ));
        assert!(Raid0Layout::new(2, 0, 8).is_err());
        assert!(
            Raid0Layout::new(2, 3, 8).is_err(),
            "8 is not a multiple of 3"
        );
        assert!(Raid0Layout::new(2, 2, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_locate_panics() {
        let l = Raid0Layout::new(2, 2, 4).unwrap();
        l.locate(l.data_capacity());
    }

    proptest! {
        /// The logical-to-physical mapping is a bijection: no two logical
        /// blocks land on the same physical block.
        #[test]
        fn prop_mapping_is_injective(disks in 2usize..9, unit in 1u64..9, rows in 1u64..9) {
            let l = Raid0Layout::new(disks, unit, rows * unit).unwrap();
            let mut seen = HashSet::new();
            for b in 0..l.data_capacity() {
                let loc = l.locate(b);
                prop_assert!(loc.disk < disks);
                prop_assert!(loc.block < l.blocks_per_disk());
                prop_assert!(seen.insert(loc), "physical block {loc} mapped twice");
            }
            // Injective over equal-size finite sets means bijective.
            prop_assert_eq!(seen.len() as u64, l.data_capacity());
        }

        /// Consecutive logical blocks within one stripe unit stay physically
        /// contiguous on the same disk.
        #[test]
        fn prop_stripe_units_are_contiguous(disks in 2usize..6, unit in 2u64..8, rows in 1u64..6) {
            let l = Raid0Layout::new(disks, unit, rows * unit).unwrap();
            for b in 0..l.data_capacity() - 1 {
                if (b + 1) % unit != 0 {
                    let a = l.locate(b);
                    let c = l.locate(b + 1);
                    prop_assert_eq!(a.disk, c.disk);
                    prop_assert_eq!(a.block + 1, c.block);
                }
            }
        }
    }
}
